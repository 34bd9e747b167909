//! Property-test battery for the pluggable wire codecs.
//!
//! Every codec must round-trip arbitrary payloads bit-identically, never
//! grow the wire body past the raw length (the 1-byte `coded` flag is
//! the entire envelope overhead — `HEADER_BOUND_BYTES`), reject
//! malformed bodies with an error instead of a panic, and sit behind a
//! per-piece checksum that catches every single-bit flip of the encoded
//! stream. That checksum is the word-parallel FNV digest (`rt::FnvLanes`),
//! fed here through an iterator by the public `wire_checksum` and in the
//! pipeline as slices by `pack_piece`, over the same bytes and so to the
//! same value; the byte-serial FNV-1a is kept for digests that are
//! persisted (checkpoints) or tiny (keys, ids, fingerprints). Payloads are
//! generated from seeded SplitMix64 so a failure replays from its case
//! index alone.

use quakeviz::pipeline::wire_checksum;
use quakeviz::rt::rng::SplitMix64;
use quakeviz::rt::wire::{Codec, HEADER_BOUND_BYTES};

/// One generated payload: raw bytes plus the element stride the pipeline
/// would encode it with (4 = f32 field, 1 = quantized u8, 16 = RGBA).
struct Case {
    label: &'static str,
    raw: Vec<u8>,
    stride: usize,
}

/// The adversarial payload battery for one seed: degenerate sizes,
/// all-zero and constant blocks, NaN-bearing float fields, sparse
/// quantized fields, and incompressible high-entropy noise.
fn battery(seed: u64) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    let mut cases = Vec::new();

    for len in [0usize, 1, 2, 3, 5, 129, 255, 256, 257] {
        cases.push(Case { label: "zeros", raw: vec![0u8; len], stride: 1 });
    }
    let b = rng.next_u64() as u8;
    cases.push(Case { label: "constant", raw: vec![b; 1024], stride: 1 });

    // f32 field with NaNs (several payload-bit patterns), infinities,
    // subnormals, and signed zeros scattered through ordinary values
    let mut floats = Vec::with_capacity(4 * 256);
    for i in 0..256u32 {
        let v = match i % 7 {
            0 => f32::NAN,
            1 => f32::from_bits(0x7fc0_0000 | rng.next_u64() as u32 & 0x003f_ffff),
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::from_bits(rng.next_u64() as u32 & 0x007f_ffff), // subnormal
            5 => -0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        };
        floats.extend_from_slice(&v.to_le_bytes());
    }
    cases.push(Case { label: "nan_f32", raw: floats, stride: 4 });

    // sparse quantized field: long zero runs with isolated spikes
    let mut sparse = vec![0u8; 2048];
    for _ in 0..40 {
        let at = rng.next_below(2048) as usize;
        sparse[at] = rng.next_u64() as u8;
    }
    cases.push(Case { label: "sparse_u8", raw: sparse, stride: 1 });

    // adversarial high entropy: must hit the stored-raw fallback, not grow
    let noise: Vec<u8> = (0..1500).map(|_| rng.next_u64() as u8).collect();
    cases.push(Case { label: "noise", raw: noise, stride: 1 });

    // RGBA-ish pixels with a ragged tail (len not a stride multiple)
    let mut pixels: Vec<u8> = Vec::new();
    for _ in 0..37 {
        let p = [rng.next_f32(), rng.next_f32(), 0.0, 1.0];
        for c in p {
            pixels.extend_from_slice(&c.to_le_bytes());
        }
    }
    pixels.extend_from_slice(&[1, 2, 3]); // ragged tail
    cases.push(Case { label: "rgba_ragged", raw: pixels, stride: 16 });

    // random length, random stride (including stride > len)
    let len = rng.next_below(600) as usize;
    let raw: Vec<u8> = (0..len).map(|_| (rng.next_below(4) * 85) as u8).collect();
    let stride = [1usize, 2, 4, 8, 16, 1024][rng.next_below(6) as usize];
    cases.push(Case { label: "random", raw, stride });

    cases
}

/// Tentpole invariant: encode → decode is the identity, bit for bit, for
/// every codec over every battery payload, and the wire body never
/// exceeds the raw length (so raw + `HEADER_BOUND_BYTES` bounds the
/// whole piece).
#[test]
fn every_codec_roundtrips_bit_identically() {
    for seed in 0..25u64 {
        for case in battery(seed) {
            for codec in Codec::ALL {
                let e = codec.encode(case.raw.clone(), case.stride);
                assert!(
                    e.body.len() <= case.raw.len(),
                    "seed {seed} {}/{:?}: body grew {} -> {} (header bound is {} byte)",
                    case.label,
                    codec,
                    case.raw.len(),
                    e.body.len(),
                    HEADER_BOUND_BYTES,
                );
                let back = codec
                    .decode(e.coded, &e.body, case.raw.len(), case.stride)
                    .unwrap_or_else(|err| {
                        panic!("seed {seed} {}/{codec:?}: decode failed: {err:?}", case.label)
                    });
                assert_eq!(
                    back, case.raw,
                    "seed {seed} {}/{codec:?}: round-trip not bit-identical",
                    case.label
                );
            }
        }
    }
}

/// The uncoded fallback path must also round-trip (decode with
/// `coded = false` is a straight copy, rejected on any length mismatch).
#[test]
fn stored_raw_fallback_is_length_checked() {
    for codec in Codec::ALL {
        let raw = vec![9u8; 64];
        assert_eq!(codec.decode(false, &raw, 64, 1).unwrap(), raw);
        assert!(codec.decode(false, &raw, 63, 1).is_err());
        assert!(codec.decode(false, &raw, 65, 1).is_err());
    }
}

/// Fuzzed garbage bodies: decoders must return `Err` or a wrong-free
/// reconstruction, never panic, whatever bytes arrive as a coded body.
#[test]
fn arbitrary_coded_bodies_never_panic() {
    let mut rng = SplitMix64::new(0xB0D1E5);
    for _ in 0..4000 {
        let len = rng.next_below(120) as usize;
        let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let raw_len = rng.next_below(256) as usize;
        let stride = [1usize, 4, 16][rng.next_below(3) as usize];
        for codec in [Codec::Rle, Codec::Shuffle] {
            if let Ok(out) = codec.decode(true, &body, raw_len, stride) {
                assert_eq!(out.len(), raw_len, "{codec:?} returned the wrong length");
            }
        }
    }
}

/// Checksum property backing the corruption tests: the digest over the
/// encoded piece stream changes under *every* single-bit flip —
/// exhaustively for small payloads, sampled for large ones. The stream is
/// the real envelope: `pack_piece` stores exactly this `wire_checksum`
/// (`proto`'s `pack_piece_stores_the_public_wire_checksum`). The pipeline
/// verifies it before any codec decode runs, so no corrupt body ever
/// reaches a decoder.
#[test]
fn single_bit_flips_always_change_the_checksum() {
    for seed in 0..5u64 {
        for case in battery(seed) {
            for codec in Codec::ALL {
                let e = codec.encode(case.raw.clone(), case.stride);
                let sum = |body: &[u8]| {
                    // the pipeline's piece envelope: coded flag, base step,
                    // raw length, then the encoded body
                    let header = [e.coded as u8]
                        .into_iter()
                        .chain(u32::MAX.to_le_bytes())
                        .chain((case.raw.len() as u32).to_le_bytes());
                    wire_checksum(7, 13, 0, header.chain(body.iter().copied()))
                };
                let clean = sum(&e.body);
                let nbits = e.body.len() * 8;
                let flips: Vec<usize> = if nbits <= 2048 {
                    (0..nbits).collect()
                } else {
                    let mut rng = SplitMix64::new(seed ^ 0xF11B);
                    (0..256).map(|_| rng.next_below(nbits as u64) as usize).collect()
                };
                for k in flips {
                    let mut corrupt = e.body.clone();
                    corrupt[k / 8] ^= 1 << (k % 8);
                    assert_ne!(
                        sum(&corrupt),
                        clean,
                        "{}/{codec:?}: flip of bit {k} not caught",
                        case.label
                    );
                }
            }
        }
    }
}
