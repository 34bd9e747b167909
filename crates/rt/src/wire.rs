//! Pluggable wire codecs for payload-bearing sends.
//!
//! The traffic matrix (PR 1) shows `BlockData` dominating bytes moved, and
//! the paper's 2DIP shape exists precisely because block distribution (`Ts`)
//! is the bandwidth-bound term of §5. This module supplies the byte-level
//! compression layer the pipeline applies at its send sites:
//!
//! * [`Codec::Raw`] — identity; the wire body *is* the raw payload.
//! * [`Codec::Rle`] — classic `(count, byte)` run-length pairs; wins on
//!   quantized fields where the quiet basin is long runs of equal bytes.
//! * [`Codec::Shuffle`] — byte-plane shuffle (transpose by element stride)
//!   followed by zero-run tokens. Splitting f32 values into per-byte planes
//!   groups the highly-repetitive exponent bytes together, and XOR temporal
//!   deltas of coherent fields shuffle into long zero runs.
//!
//! Every codec is *guaranteed never to expand*: `encode` compares the coded
//! body against the raw input and falls back to verbatim storage, so the
//! encoded body is always ≤ the raw length. The single `coded` flag that
//! records which branch was taken is the entire header — the documented
//! per-piece overhead bound is **1 byte** ([`HEADER_BOUND_BYTES`]).
//!
//! Codec selection is per [`TagClass`] via [`WireSpec`], set on
//! `PipelineBuilder` or by `pipeline-report --codec` (see
//! [`WireSpec::parse`] for the grammar). [`WireLedger`] accumulates the
//! raw-vs-wire byte counts and encode/decode time per class that feed
//! `traffic.<class>.raw_bytes` / `.wire_bytes` metrics, `pipeline-report`,
//! and the wire rows of `tests/ledger.rs`.
//!
//! Decoded bytes are bit-identical to the encoded input for every codec —
//! `tests/wire_codec.rs` proves it property-style over adversarial payloads.

use crate::stats::TagClass;
use std::sync::atomic::{AtomicU64, Ordering};

/// Documented per-piece header overhead: the `coded` flag (never more).
pub const HEADER_BOUND_BYTES: usize = 1;

/// A byte-stream compressor for one wire payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Identity: wire body == raw body.
    #[default]
    Raw,
    /// `(count u8 in 1..=255, byte)` pairs.
    Rle,
    /// Byte-plane shuffle by element stride, then zero-run tokens:
    /// token `0x00..=0x7F` copies `token+1` literal bytes, token
    /// `0x80..=0xFF` emits `token-0x7F` (1..=128) zero bytes.
    Shuffle,
}

/// Result of [`Codec::encode`]: the wire body plus whether it is coded
/// (vs stored raw verbatim after the no-expansion fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    pub coded: bool,
    pub body: Vec<u8>,
}

/// A malformed wire body (truncated, overlong, or inconsistent with the
/// declared raw length). Decoders return this instead of panicking so the
/// fault path can count and degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode: {}", self.0)
    }
}

impl Codec {
    pub const ALL: [Codec; 3] = [Codec::Raw, Codec::Rle, Codec::Shuffle];

    pub fn as_str(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Rle => "rle",
            Codec::Shuffle => "shuffle",
        }
    }

    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "raw" => Some(Codec::Raw),
            "rle" => Some(Codec::Rle),
            "shuffle" => Some(Codec::Shuffle),
            _ => None,
        }
    }

    /// Encode `raw` (consumed: the Raw codec and the stored fallback return
    /// it unchanged without copying). `stride` is the element width in
    /// bytes (4 for f32 fields, 1 for quantized u8, 16 for RGBA pixels) and
    /// only affects [`Codec::Shuffle`]'s plane transpose.
    pub fn encode(self, raw: Vec<u8>, stride: usize) -> Encoded {
        let coded = match self {
            Codec::Raw => None,
            Codec::Rle => rle_encode(&raw),
            Codec::Shuffle => zero_run_encode(&shuffle(&raw, stride), raw.len()),
        };
        match coded {
            Some(body) if body.len() < raw.len() => Encoded { coded: true, body },
            _ => Encoded { coded: false, body: raw },
        }
    }

    /// Decode a wire body back to exactly `raw_len` raw bytes. Rejects any
    /// body that is malformed or does not reproduce the declared length.
    pub fn decode(
        self,
        coded: bool,
        body: &[u8],
        raw_len: usize,
        stride: usize,
    ) -> Result<Vec<u8>, WireError> {
        if !coded {
            if body.len() != raw_len {
                return Err(WireError("stored body length != raw length"));
            }
            return Ok(body.to_vec());
        }
        match self {
            Codec::Raw => Err(WireError("raw codec has no coded form")),
            Codec::Rle => rle_decode(body, raw_len),
            Codec::Shuffle => zero_run_decode(body, raw_len).map(|p| unshuffle(&p, stride)),
        }
    }
}

/// RLE pairs; bails out (returns `None`) as soon as the output would match
/// or exceed the raw length, since the caller falls back to stored-raw.
fn rle_encode(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw.len() / 4 + 8);
    let mut i = 0;
    while i < raw.len() {
        if out.len() + 2 > raw.len() {
            return None;
        }
        let b = raw[i];
        let mut n = 1usize;
        while n < 255 && i + n < raw.len() && raw[i + n] == b {
            n += 1;
        }
        out.push(n as u8);
        out.push(b);
        i += n;
    }
    Some(out)
}

fn rle_decode(body: &[u8], raw_len: usize) -> Result<Vec<u8>, WireError> {
    if !body.len().is_multiple_of(2) {
        return Err(WireError("rle body has odd length"));
    }
    let mut out = Vec::with_capacity(raw_len);
    for pair in body.chunks_exact(2) {
        let n = pair[0] as usize;
        if n == 0 {
            return Err(WireError("rle run of zero length"));
        }
        if out.len() + n > raw_len {
            return Err(WireError("rle output exceeds raw length"));
        }
        out.resize(out.len() + n, pair[1]);
    }
    if out.len() != raw_len {
        return Err(WireError("rle output shorter than raw length"));
    }
    Ok(out)
}

/// Transpose into byte planes: plane b holds byte b of every complete
/// `stride`-wide element; the ragged tail (if any) is appended verbatim.
fn shuffle(raw: &[u8], stride: usize) -> Vec<u8> {
    let s = stride.max(1);
    let n = raw.len() / s;
    let mut out = Vec::with_capacity(raw.len());
    for b in 0..s {
        for i in 0..n {
            out.push(raw[i * s + b]);
        }
    }
    out.extend_from_slice(&raw[n * s..]);
    out
}

fn unshuffle(planes: &[u8], stride: usize) -> Vec<u8> {
    let s = stride.max(1);
    let n = planes.len() / s;
    let mut out = vec![0u8; planes.len()];
    for b in 0..s {
        for i in 0..n {
            out[i * s + b] = planes[b * n + i];
        }
    }
    out[n * s..].copy_from_slice(&planes[n * s..]);
    out
}

fn zero_run_encode(data: &[u8], budget: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(budget.min(data.len() / 2 + 8));
    let mut i = 0;
    while i < data.len() {
        if out.len() >= budget {
            return None;
        }
        if data[i] == 0 {
            let mut n = 1usize;
            while n < 128 && i + n < data.len() && data[i + n] == 0 {
                n += 1;
            }
            out.push(0x7F + n as u8);
            i += n;
        } else {
            let mut n = 1usize;
            while n < 128 && i + n < data.len() && data[i + n] != 0 {
                n += 1;
            }
            out.push((n - 1) as u8);
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        }
    }
    Some(out)
}

fn zero_run_decode(body: &[u8], raw_len: usize) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while i < body.len() {
        let t = body[i];
        i += 1;
        if t >= 0x80 {
            let n = (t - 0x7F) as usize;
            if out.len() + n > raw_len {
                return Err(WireError("zero run exceeds raw length"));
            }
            out.resize(out.len() + n, 0);
        } else {
            let n = t as usize + 1;
            if i + n > body.len() {
                return Err(WireError("literal run truncated"));
            }
            if out.len() + n > raw_len {
                return Err(WireError("literal run exceeds raw length"));
            }
            out.extend_from_slice(&body[i..i + n]);
            i += n;
        }
    }
    if out.len() != raw_len {
        return Err(WireError("zero-run output shorter than raw length"));
    }
    Ok(out)
}

/// XOR `prev` into `cur` in place — both the temporal-delta transform and
/// its own inverse. Lengths must match (callers force a keyframe when the
/// previous payload has a different length).
pub fn xor_in_place(cur: &mut [u8], prev: &[u8]) {
    debug_assert_eq!(cur.len(), prev.len());
    for (c, p) in cur.iter_mut().zip(prev) {
        *c ^= *p;
    }
}

/// Wire configuration: a codec per [`TagClass`] plus the temporal-delta
/// switch for block data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpec {
    pub codecs: [Codec; TagClass::COUNT],
    /// Send per-block XOR deltas against the sender's previous step.
    pub delta: bool,
    /// Force a keyframe every K sender-owned steps (absolute step count,
    /// so the schedule is deterministic across resume). Ignored unless
    /// `delta` is on.
    pub keyframe_every: u32,
}

impl Default for WireSpec {
    fn default() -> WireSpec {
        WireSpec { codecs: [Codec::Raw; TagClass::COUNT], delta: false, keyframe_every: 8 }
    }
}

impl WireSpec {
    /// All payload classes on `codec`, deltas off.
    pub fn all(codec: Codec) -> WireSpec {
        WireSpec { codecs: [codec; TagClass::COUNT], ..WireSpec::default() }
    }

    /// The plain uncompressed wire format (the default).
    pub fn raw() -> WireSpec {
        WireSpec::default()
    }

    pub fn codec_for(&self, class: TagClass) -> Codec {
        self.codecs[class as usize]
    }

    /// Anything non-default configured?
    pub fn is_active(&self) -> bool {
        self.delta || self.codecs.iter().any(|&c| c != Codec::Raw)
    }

    /// Parse a spec string. Tokens are separated by `,` or `+`:
    ///
    /// * `raw` / `rle` / `shuffle` — codec for every payload class
    /// * `<class>=<codec>` — per-class override, e.g. `block_data=shuffle`
    /// * `delta` / `delta=on|off` — temporal block deltas
    /// * `keyframe=K` (alias `keyframe_every=K`) — keyframe period, K ≥ 1
    ///
    /// Examples: `rle`, `shuffle+delta`, `shuffle+delta+keyframe=4`,
    /// `block_data=shuffle,lic_image=rle,delta`.
    pub fn parse(s: &str) -> Result<WireSpec, String> {
        let mut spec = WireSpec::default();
        for tok in s.split([',', '+']).map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(codec) = Codec::parse(tok) {
                spec.codecs = [codec; TagClass::COUNT];
                continue;
            }
            match tok.split_once('=') {
                None if tok == "delta" => spec.delta = true,
                None => return Err(format!("unknown wire token {tok:?}")),
                Some(("delta", v)) => {
                    spec.delta = match v {
                        "on" | "1" | "true" => true,
                        "off" | "0" | "false" => false,
                        _ => return Err(format!("delta: bad value {v:?}")),
                    }
                }
                Some(("keyframe" | "keyframe_every", v)) => {
                    let k: u32 = v.parse().map_err(|_| format!("keyframe: bad value {v:?}"))?;
                    if k == 0 {
                        return Err("keyframe: period must be >= 1".into());
                    }
                    spec.keyframe_every = k;
                }
                Some((class, codec)) => {
                    let c =
                        Codec::parse(codec).ok_or_else(|| format!("unknown codec {codec:?}"))?;
                    let idx = TagClass::ALL
                        .iter()
                        .position(|t| t.as_str() == class)
                        .ok_or_else(|| format!("unknown tag class {class:?}"))?;
                    spec.codecs[idx] = c;
                }
            }
        }
        Ok(spec)
    }

    /// Short human description for reports ("block_data=shuffle delta k=4",
    /// or just the codec name when every class shares it).
    pub fn describe(&self) -> String {
        let uniform = self.codecs.iter().all(|c| *c == self.codecs[0]);
        let mut parts: Vec<String> = if uniform {
            if self.codecs[0] == Codec::Raw {
                Vec::new()
            } else {
                vec![self.codecs[0].as_str().to_string()]
            }
        } else {
            TagClass::ALL
                .iter()
                .filter(|c| self.codec_for(**c) != Codec::Raw)
                .map(|c| format!("{}={}", c.as_str(), self.codec_for(*c).as_str()))
                .collect()
        };
        if self.delta {
            parts.push(format!("delta k={}", self.keyframe_every));
        }
        if parts.is_empty() {
            "raw".into()
        } else {
            parts.join(" ")
        }
    }
}

const LEDGER_FIELDS: usize = 6;

/// Per-[`TagClass`] raw-vs-wire accounting, shared by every rank thread.
/// Sender sides record raw/wire byte counts and encode time plus the
/// keyframe/delta piece split; receiver sides record decode time.
#[derive(Default)]
pub struct WireLedger {
    cells: [[AtomicU64; LEDGER_FIELDS]; TagClass::COUNT],
}

/// One class's totals from [`WireLedger::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireClassStats {
    pub class: TagClass,
    pub raw_bytes: u64,
    pub wire_bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub keyframe_pieces: u64,
    pub delta_pieces: u64,
}

impl WireClassStats {
    /// Compression ratio raw/wire (≥ 1.0 by the no-expansion guarantee).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.wire_bytes.max(1) as f64
    }
}

impl WireLedger {
    pub fn new() -> WireLedger {
        WireLedger::default()
    }

    pub fn record_send(&self, class: TagClass, raw_bytes: u64, wire_bytes: u64, encode_ns: u64) {
        let cell = &self.cells[class as usize];
        cell[0].fetch_add(raw_bytes, Ordering::Relaxed);
        cell[1].fetch_add(wire_bytes, Ordering::Relaxed);
        cell[2].fetch_add(encode_ns, Ordering::Relaxed);
    }

    pub fn record_decode(&self, class: TagClass, decode_ns: u64) {
        self.cells[class as usize][3].fetch_add(decode_ns, Ordering::Relaxed);
    }

    pub fn record_pieces(&self, class: TagClass, keyframes: u64, deltas: u64) {
        let cell = &self.cells[class as usize];
        cell[4].fetch_add(keyframes, Ordering::Relaxed);
        cell[5].fetch_add(deltas, Ordering::Relaxed);
    }

    /// Totals for every class that saw traffic, in [`TagClass::ALL`] order.
    pub fn snapshot(&self) -> Vec<WireClassStats> {
        TagClass::ALL
            .iter()
            .map(|&class| {
                let cell = &self.cells[class as usize];
                WireClassStats {
                    class,
                    raw_bytes: cell[0].load(Ordering::Relaxed),
                    wire_bytes: cell[1].load(Ordering::Relaxed),
                    encode_ns: cell[2].load(Ordering::Relaxed),
                    decode_ns: cell[3].load(Ordering::Relaxed),
                    keyframe_pieces: cell[4].load(Ordering::Relaxed),
                    delta_pieces: cell[5].load(Ordering::Relaxed),
                }
            })
            .filter(|s| s.raw_bytes > 0 || s.wire_bytes > 0)
            .collect()
    }

    /// What the codec+delta layer saved per payload class (wire ≤ raw
    /// always; equal on the plain raw wire), under the metric names it is
    /// published as: `traffic.<class>.raw_bytes` and `.wire_bytes`.
    pub fn named(&self) -> impl Iterator<Item = (String, u64)> {
        self.snapshot().into_iter().flat_map(|w| {
            let name = |what| format!("traffic.{}.{what}", w.class.as_str());
            [(name("raw_bytes"), w.raw_bytes), (name("wire_bytes"), w.wire_bytes)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: Codec, raw: &[u8], stride: usize) {
        let e = codec.encode(raw.to_vec(), stride);
        assert!(e.body.len() <= raw.len(), "{codec:?} expanded {} -> {}", raw.len(), e.body.len());
        let back = codec.decode(e.coded, &e.body, raw.len(), stride).expect("decode");
        assert_eq!(back, raw, "{codec:?} round-trip mismatch");
    }

    #[test]
    fn codecs_roundtrip_basic_shapes() {
        let zeros = vec![0u8; 300];
        let ramp: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let sparse: Vec<u8> = (0..300u32).map(|i| if i % 37 == 0 { 0xAB } else { 0 }).collect();
        for codec in Codec::ALL {
            for stride in [1usize, 4, 16] {
                roundtrip(codec, &[], stride);
                roundtrip(codec, &[7], stride);
                roundtrip(codec, &zeros, stride);
                roundtrip(codec, &ramp, stride);
                roundtrip(codec, &sparse, stride);
            }
        }
    }

    #[test]
    fn compressible_payloads_shrink() {
        let zeros = vec![0u8; 4096];
        for codec in [Codec::Rle, Codec::Shuffle] {
            let e = codec.encode(zeros.clone(), 4);
            assert!(e.coded && e.body.len() < zeros.len() / 8, "{codec:?}: {}", e.body.len());
        }
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert!(Codec::Rle.decode(true, &[0, 5], 5, 1).is_err());
        assert!(Codec::Rle.decode(true, &[3], 3, 1).is_err());
        assert!(Codec::Rle.decode(true, &[200, 1], 10, 1).is_err());
        assert!(Codec::Shuffle.decode(true, &[5, 1, 2], 6, 1).is_err());
        assert!(Codec::Shuffle.decode(true, &[0xFF], 4, 1).is_err());
        assert!(Codec::Raw.decode(false, &[1, 2], 3, 1).is_err());
    }

    #[test]
    fn spec_parse_grammar() {
        let s = WireSpec::parse("shuffle+delta+keyframe=4").unwrap();
        assert_eq!(s.codec_for(TagClass::BlockData), Codec::Shuffle);
        assert!(s.delta);
        assert_eq!(s.keyframe_every, 4);

        let s = WireSpec::parse("block_data=rle,lic_image=shuffle").unwrap();
        assert_eq!(s.codec_for(TagClass::BlockData), Codec::Rle);
        assert_eq!(s.codec_for(TagClass::LicImage), Codec::Shuffle);
        assert_eq!(s.codec_for(TagClass::VolumeImage), Codec::Raw);
        assert!(!s.delta);

        assert!(WireSpec::parse("").unwrap() == WireSpec::default());
        assert!(WireSpec::parse("zstd").is_err());
        assert!(WireSpec::parse("block_data=lz4").is_err());
        assert!(WireSpec::parse("keyframe=0").is_err());
        assert!(WireSpec::parse("delta=maybe").is_err());
    }

    #[test]
    fn ledger_accumulates_per_class() {
        let ledger = WireLedger::new();
        ledger.record_send(TagClass::BlockData, 100, 40, 7);
        ledger.record_send(TagClass::BlockData, 100, 60, 3);
        ledger.record_decode(TagClass::BlockData, 5);
        ledger.record_pieces(TagClass::BlockData, 2, 6);
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 1);
        let s = snap[0];
        assert_eq!(s.class, TagClass::BlockData);
        assert_eq!((s.raw_bytes, s.wire_bytes), (200, 100));
        assert_eq!((s.encode_ns, s.decode_ns), (10, 5));
        assert_eq!((s.keyframe_pieces, s.delta_pieces), (2, 6));
        assert!((s.ratio() - 2.0).abs() < 1e-12);
    }
}
