//! Deterministic pseudo-random number generation.
//!
//! All simulation code paths use this PCG-64 implementation (O'Neill's
//! PCG XSL RR 128/64) rather than the `rand` crate, so that every figure in
//! EXPERIMENTS.md is reproducible bit-for-bit from a single `u64` seed,
//! independent of external crate versions.

/// A PCG XSL RR 128/64 generator: 128-bit LCG state, 64-bit output.
///
/// Statistically strong for simulation purposes, tiny, and `Copy`-cheap to
/// fork into independent streams via [`Pcg64::split`].
///
/// # Examples
///
/// ```
/// use bristle_netsim::rng::Pcg64;
///
/// let mut a = Pcg64::seed_from_u64(7);
/// let mut b = Pcg64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64 {
    /// Creates a generator from a seed and a stream selector.
    ///
    /// Distinct `stream` values yield statistically independent sequences
    /// even under the same `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        // Standard PCG initialization: set increment from the stream id
        // (must be odd), advance once, add seed, advance again.
        let inc = ((stream as u128) << 1) | 1;
        let mut rng = Pcg64 { state: 0, inc };
        rng.step();
        rng.state = rng.state.wrapping_add(seed as u128);
        rng.step();
        rng
    }

    /// Creates a generator from a seed on the default stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed, 0xda3e_39cb_94b9_5bdb)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        // XSL-RR output function: xor-fold the 128-bit state, then rotate
        // by the top 6 bits.
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }

    /// Returns a uniform `u64` in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }

    /// Forks an independent generator keyed by `tag`.
    ///
    /// Useful for giving each experiment component (topology, workload,
    /// mobility, ...) its own stream derived from one master seed.
    pub fn split(&mut self, tag: u64) -> Pcg64 {
        let seed = self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Pcg64::new(seed, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg64::seed_from_u64(42);
        let mut b = Pcg64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::seed_from_u64(1);
        let mut b = Pcg64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Pcg64::new(7, 1);
        let mut b = Pcg64::new(7, 2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg64::seed_from_u64(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg64::seed_from_u64(4);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10 000 per bucket; allow a generous 10% band.
            assert!((9_000..=11_000).contains(&c), "bucket count {c} out of band");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = Pcg64::seed_from_u64(5);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..10_000 {
            let v = rng.range_inclusive(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn range_inclusive_singleton() {
        let mut rng = Pcg64::seed_from_u64(6);
        for _ in 0..10 {
            assert_eq!(rng.range_inclusive(9, 9), 9);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Pcg64::seed_from_u64(8);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely identity");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg64::seed_from_u64(11);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.1)));
    }

    #[test]
    fn split_streams_are_independent_of_parent_continuation() {
        let mut parent = Pcg64::seed_from_u64(12);
        let mut child = parent.split(1);
        let parent_next = parent.next_u64();
        let child_next = child.next_u64();
        assert_ne!(parent_next, child_next);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Pcg64::seed_from_u64(13).below(0);
    }
}
