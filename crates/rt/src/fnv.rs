//! FNV-1a 64 in two forms.
//!
//! * [`Fnv1a`] folds one byte at a time: `h ← (h ⊕ b) · p`. It is the
//!   digest of everything persisted or tiny — checkpoint trailers and field
//!   checksums, the config fingerprint, fault-site identities,
//!   communicator ids, cache keys — whose values are on disk or pinned, so
//!   they must not change, and whose inputs are small or hashed once.
//! * [`FnvLanes`] is the word-parallel, streaming form of the pipeline's
//!   digest, for in-memory bulk integrity checks (wire pieces, cache
//!   entries): four independent lanes of `h ← (h ⊕ w) · p` over
//!   little-endian `u64` words, lane = word index mod 4, so four multiply
//!   chains run side by side instead of one per byte. It takes its bytes
//!   as slices ([`FnvLanes::slice`]) or through an iterator
//!   ([`FnvLanes::bytes`]); the value depends only on the byte stream, not
//!   on how it was cut.
//!
//! Any single-byte difference changes an [`Fnv1a`] digest, and any
//! difference confined to one word changes an [`FnvLanes`] digest: each
//! step is injective in `h` for an odd `p` mod 2⁶⁴ — per byte in the
//! first, per word *within its lane* in the second — so once two streams
//! diverge in a lane that lane never re-converges, and the lanes, the byte
//! tail and the length are folded at [`FnvLanes::finish`] by the same
//! injective step.

/// A running byte-serial digest. Two multipliers are in the field and both
/// stay: every value they produced is pinned or persisted.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    h: u64,
    prime: u64,
}

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The pipeline's multiplier, 2⁴⁴ + 0x1b3 (see [`Fnv1a::pipeline`]).
const PIPELINE_PRIME: u64 = 0x1000_0000_01b3;

impl Fnv1a {
    /// The published FNV-1a 64 (prime 2⁴⁰ + 0x1b3): fault-injection sites
    /// and communicator ids.
    pub const fn standard() -> Fnv1a {
        Fnv1a { h: OFFSET, prime: 0x0100_0000_01b3 }
    }

    /// The digest the pipeline persists — checkpoint trailers and field
    /// checksums, the config fingerprint, cache keys. Its multiplier is
    /// 2⁴⁴ + 0x1b3, the FNV prime written with a zero too many when those
    /// formats were defined: odd, so the argument above holds, and on disk
    /// in checkpoints, so it is the format.
    pub const fn pipeline() -> Fnv1a {
        Fnv1a { h: OFFSET, prime: PIPELINE_PRIME }
    }

    /// Continue over `bytes`.
    pub fn bytes(self, bytes: impl IntoIterator<Item = u8>) -> Fnv1a {
        let prime = self.prime;
        let h = bytes.into_iter().fold(self.h, |h, b| (h ^ b as u64).wrapping_mul(prime));
        Fnv1a { h, prime }
    }

    /// Continue over 64-bit words, each fed little-endian.
    pub fn words(self, words: impl IntoIterator<Item = u64>) -> Fnv1a {
        self.bytes(words.into_iter().flat_map(u64::to_le_bytes))
    }

    pub fn finish(self) -> u64 {
        self.h
    }
}

const LANES: usize = 4;
/// One word per lane: the unit whole words are folded in.
const BLOCK: usize = 8 * LANES;

/// One injective step of the pipeline digest.
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PIPELINE_PRIME)
}

/// Fold one block: word `i` into lane `i`.
fn fold_block(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
    for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
        *lane = step(*lane, u64::from_le_bytes(*word));
    }
}

/// A running word-parallel digest (module doc). `len` says where the
/// stream stands: the bytes of a word not yet whole wait in `word`, and
/// word `i` of the stream went to lane `i mod 4`.
#[derive(Debug, Clone, Copy)]
pub struct FnvLanes {
    lanes: [u64; LANES],
    word: u64,
    len: u64,
}

impl Default for FnvLanes {
    fn default() -> FnvLanes {
        FnvLanes::new()
    }
}

impl FnvLanes {
    pub const fn new() -> FnvLanes {
        FnvLanes { lanes: [OFFSET; LANES], word: 0, len: 0 }
    }

    /// Continue over a slice: bytes up to the next block boundary go one at
    /// a time, then whole blocks straight to the lanes.
    pub fn slice(self, bytes: &[u8]) -> FnvLanes {
        let head = (BLOCK - self.len as usize % BLOCK) % BLOCK;
        let (head, rest) = bytes.split_at(head.min(bytes.len()));
        let mut h = self.push(head);
        let (blocks, tail) = rest.as_chunks::<BLOCK>();
        for block in blocks {
            fold_block(&mut h.lanes, block);
        }
        h.len += (blocks.len() * BLOCK) as u64;
        h.push(tail)
    }

    /// Continue over a byte iterator — the same value as
    /// [`FnvLanes::slice`] over the same bytes. The bytes are staged into a
    /// stack buffer and fed as slices, so the lanes still take whole
    /// blocks.
    pub fn bytes(self, bytes: impl IntoIterator<Item = u8>) -> FnvLanes {
        let (mut it, mut h) = (bytes.into_iter(), self);
        loop {
            let mut stage = [0u8; 8 * BLOCK];
            let mut n = 0;
            for (slot, b) in stage.iter_mut().zip(&mut it) {
                *slot = b;
                n += 1;
            }
            h = h.slice(&stage[..n]);
            if n < stage.len() {
                return h;
            }
        }
    }

    /// Bytes one at a time, each word assembled in `word` and folded into
    /// its lane once whole: the (under a block's worth of) edges of a
    /// slice.
    fn push(mut self, bytes: &[u8]) -> FnvLanes {
        for &b in bytes {
            self.word |= (b as u64) << (8 * (self.len % 8));
            self.len += 1;
            if self.len.is_multiple_of(8) {
                let lane = &mut self.lanes[(self.len / 8 - 1) as usize % LANES];
                *lane = step(*lane, self.word);
                self.word = 0;
            }
        }
        self
    }

    /// Fold the lanes, the byte tail (the bytes of a last, partial word)
    /// and the length into one value.
    pub fn finish(self) -> u64 {
        let tail = &self.word.to_le_bytes()[..self.len as usize % 8];
        let h = self.lanes.into_iter().fold(OFFSET, step);
        let h = tail.iter().fold(h, |h, &b| step(h, b as u64));
        step(h, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors, the two feeding forms agreeing
    /// on the same bytes, and one pinned value of the pipeline's variant.
    #[test]
    fn matches_the_reference_vectors() {
        let fnv = |bytes: &[u8]| Fnv1a::standard().bytes(bytes.iter().copied()).finish();
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        let words = [0x0706_0504_0302_0100u64, 0x0f0e_0d0c_0b0a_0908];
        for start in [Fnv1a::standard(), Fnv1a::pipeline()] {
            let whole = start.bytes(0u8..16).finish();
            assert_eq!(start.words(words).finish(), whole);
            assert_eq!(start.bytes(0u8..7).bytes(7u8..16).finish(), whole);
        }
        assert_eq!(Fnv1a::pipeline().bytes(*b"a").finish(), 0xaf74_d84c_8601_ec8c);
    }

    fn stream(len: usize) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::new(len as u64);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn lanes(bytes: &[u8]) -> u64 {
        FnvLanes::new().slice(bytes).finish()
    }

    /// One slice, the same bytes split at every point (so the second part
    /// starts mid-word and mid-block), and byte by byte through an
    /// iterator all give one value — for every length 0..=100, which
    /// covers every lane and tail position across three whole blocks, and
    /// for lengths around the iterator's staging buffer.
    #[test]
    fn lanes_value_depends_only_on_the_byte_stream() {
        for len in (0..=100).chain([255, 256, 257, 1000]) {
            let bytes = stream(len);
            let whole = lanes(&bytes);
            assert_eq!(FnvLanes::new().bytes(bytes.iter().copied()).finish(), whole, "len {len}");
            for cut in 0..=len {
                let (a, b) = bytes.split_at(cut);
                let split = FnvLanes::new().slice(a).slice(b).finish();
                assert_eq!(split, whole, "len {len} cut {cut}");
                let mixed = FnvLanes::new().bytes(a.iter().copied()).slice(b).finish();
                assert_eq!(mixed, whole, "len {len} cut {cut} (iterator, then slice)");
            }
            let (a, b) = bytes.split_at(len / 3);
            let (b, c) = b.split_at(b.len() / 2);
            assert_eq!(FnvLanes::new().slice(a).slice(b).slice(c).finish(), whole, "len {len}");
        }
    }

    /// Every single-bit flip at every length 0..=100 changes the digest —
    /// a flip touches one word of one lane or one tail byte, and each step
    /// is injective.
    #[test]
    fn lanes_catch_every_single_bit_flip() {
        for len in 0..=100 {
            let bytes = stream(len);
            let clean = lanes(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(lanes(&flipped), clean, "len {len}: flip of bit {bit} not caught");
            }
        }
    }

    /// Appending a zero byte changes the digest (the length is folded in),
    /// and one value is pinned.
    #[test]
    fn lanes_fold_the_length_and_stay_pinned() {
        for len in 0..=100 {
            let mut bytes = stream(len);
            let clean = lanes(&bytes);
            bytes.push(0);
            assert_ne!(lanes(&bytes), clean, "len {len}: an appended zero byte not caught");
        }
        assert_eq!(lanes(&(0..100).collect::<Vec<u8>>()), 0x8b50_8bc9_33e2_261b);
    }
}
