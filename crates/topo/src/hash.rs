//! The workspace's one seeded stream and one content hash.
//!
//! Every seeded soak, fault draw, address hash, and row seed runs on
//! [`SplitMix64`] / [`fmix64`]; every plan, stats, cache-key, and matrix
//! digest is [`fnv1a64`]. They live in this leaf crate so each consumer
//! shares one definition instead of a copy that could drift, and they are
//! `#[inline]` because the workspace builds without LTO and [`fmix64`] sits
//! on the engine's per-access address-hash path.

/// The splitmix64 increment: 2^64 divided by the golden ratio, odd.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finaliser: a bijective 64-bit mixer with full avalanche.
#[inline]
#[must_use]
pub fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream: each draw advances the state by [`GOLDEN_GAMMA`]
/// and returns [`fmix64`] of it. Identical seeds give identical streams on
/// every platform, which is what makes every seeded run reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit draw.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        fmix64(self.0)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits of [`Self::next`].
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// A [`Hasher`](std::hash::Hasher) for keys that are already unique
/// integers, such as packet ids: each written word is folded in through
/// [`fmix64`], so one `u64` key costs one mix instead of a SipHash round. Not DoS-resistant, which simulator-internal maps do not need.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fmix64Hasher(u64);

impl std::hash::Hasher for Fmix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = fmix64(self.0 ^ n);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`Fmix64Hasher`], for
/// `HashMap<u64, _, BuildFmix64>`.
pub type BuildFmix64 = std::hash::BuildHasherDefault<Fmix64Hasher>;

/// FNV-1a 64 of `bytes`: the workspace's content hash for plan, stats,
/// cache-key, and matrix digests. Fast and non-cryptographic — it detects
/// drift and corruption, not adversarial collisions.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmix64_hasher_mixes_one_word_once() {
        use std::hash::{BuildHasher, Hash, Hasher};
        let mut h = Fmix64Hasher::default();
        42u64.hash(&mut h);
        assert_eq!(h.finish(), fmix64(42));
        let build = BuildFmix64::default();
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
        assert_ne!(build.hash_one(1u64), build.hash_one(2u64));
    }

    #[test]
    fn splitmix64_reference_vector() {
        // The reference splitmix64 outputs for state 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
