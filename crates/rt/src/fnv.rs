//! FNV-1a 64 — the workspace's one digest loop: wire and checkpoint
//! checksums, fault-site identities, cache keys, the config fingerprint
//! and communicator ids all fold their bytes through [`Fnv1a::bytes`].
//! Any single-byte difference changes the digest: each byte applies
//! `h ← (h ⊕ b) · p`, injective in `h` for an odd `p` mod 2⁶⁴, so once two
//! streams diverge they never re-converge.

/// A running digest. Two multipliers are in the field and both stay: every
/// value they produced is pinned or persisted.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    h: u64,
    prime: u64,
}

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Fnv1a {
    /// The published FNV-1a 64 (prime 2⁴⁰ + 0x1b3): fault-injection sites
    /// and communicator ids.
    pub const fn standard() -> Fnv1a {
        Fnv1a { h: OFFSET, prime: 0x0100_0000_01b3 }
    }

    /// The digest the pipeline persists — checkpoint trailers and field
    /// checksums, the config fingerprint, wire checksums, cache keys. Its
    /// multiplier is 2⁴⁴ + 0x1b3, the FNV prime written with a zero too
    /// many when those formats were defined: odd, so the argument above
    /// holds, and on disk in checkpoints, so it is the format.
    pub const fn pipeline() -> Fnv1a {
        Fnv1a { h: OFFSET, prime: 0x1000_0000_01b3 }
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
}
