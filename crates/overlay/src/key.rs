//! The hash key space: a ring of 2^64 positions.
//!
//! Every peer and data item in an HS-P2P is named by a hash key drawn from
//! a circular identifier space of size ρ (here ρ = 2^64, arithmetic is
//! plain `u64` wrapping). Routing approaches a target key *clockwise*
//! (increasing key order, wrapping at ρ), which is the property the paper's
//! §3 clustered-naming analysis relies on.
//!
//! Keys are also viewed as strings of base-2^b digits (default b = 2, base
//! 4) for digit-correcting finger tables, giving O(log_b N) route lengths
//! that match the magnitudes reported in the paper's Fig. 7.

use std::hash::{BuildHasherDefault, Hasher};

use bristle_netsim::rng::Pcg64;

/// A position on the 2^64 identifier ring.
///
/// # Examples
///
/// ```
/// use bristle_overlay::key::Key;
///
/// let a = Key(10);
/// let b = Key(4);
/// // Clockwise distance wraps; ring distance takes the shorter way.
/// assert_eq!(a.clockwise_to(b), u64::MAX - 5);
/// assert_eq!(a.ring_distance(b), 6);
/// // Keys can be derived from names.
/// assert_eq!(Key::hash_of(b"item"), Key::hash_of(b"item"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Key(pub u64);

/// Size of the key space as a floating-point value (for ∇-style ratios).
pub const RING_SIZE_F64: f64 = 18_446_744_073_709_551_616.0; // 2^64

impl Key {
    /// The zero key.
    pub const ZERO: Key = Key(0);
    /// The maximum key (ρ − 1).
    pub const MAX: Key = Key(u64::MAX);

    /// Draws a uniformly random key.
    #[inline]
    pub fn random(rng: &mut Pcg64) -> Key {
        Key(rng.next_u64())
    }

    /// Hashes an arbitrary byte string onto the ring (FNV-1a — the sim
    /// stand-in for the paper's SHA-1; uniformity is all that matters).
    pub fn hash_of(bytes: &[u8]) -> Key {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Final avalanche (splitmix64) to decorrelate short inputs.
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Key(z ^ (z >> 31))
    }

    /// Clockwise (increasing, wrapping) distance from `self` to `other`.
    ///
    /// `a.clockwise_to(a) == 0`.
    #[inline]
    pub fn clockwise_to(self, other: Key) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Ring distance: the shorter way around.
    #[inline]
    pub fn ring_distance(self, other: Key) -> u64 {
        let cw = self.clockwise_to(other);
        cw.min(cw.wrapping_neg())
    }

    /// The key at clockwise offset `delta` from `self`.
    #[inline]
    pub fn offset(self, delta: u64) -> Key {
        Key(self.0.wrapping_add(delta))
    }

    /// Whether `x` lies in the clockwise-open interval `(self, end]`.
    ///
    /// Degenerate case: when `self == end` the interval is the whole ring
    /// minus nothing — we treat it as containing every `x != self` plus
    /// `end` itself (full ring), matching successor semantics on a
    /// single-node ring.
    #[inline]
    pub fn in_cw_range(self, x: Key, end: Key) -> bool {
        if self == end {
            return true;
        }
        let to_x = self.clockwise_to(x);
        let to_end = self.clockwise_to(end);
        to_x != 0 && to_x <= to_end
    }

    /// Digit `level` of the key in base `2^bits`, counting level 0 as the
    /// *least significant* digit.
    #[inline]
    pub fn digit(self, level: u32, bits: u32) -> u64 {
        debug_assert!((1..=32).contains(&bits));
        let shift = level * bits;
        if shift >= 64 {
            return 0;
        }
        (self.0 >> shift) & ((1u64 << bits) - 1)
    }

    /// Number of digit levels in the key space for the given digit width.
    #[inline]
    pub fn levels(bits: u32) -> u32 {
        64u32.div_ceil(bits)
    }
}

/// Hasher for in-process tables keyed by [`Key`]s (or tuples of them).
///
/// Keys are already uniform hashes, so SipHash's mixing buys nothing on
/// them: one folded multiply per word spreads them across buckets as
/// evenly as they are spread around the ring. Only for tables this
/// program fills itself — a multiplicative hash gives no protection
/// against keys chosen to collide. Nothing may depend on the iteration
/// order of a table either way; every consumer sorts or folds
/// commutatively.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

/// `BuildHasher` for [`KeyHasher`]: `HashMap<Key, T, KeyHashBuilder>`.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        // Fibonacci hashing (odd multiplier 2^64 / φ), keeping both halves
        // of the product: the high half carries a key's high bits down to
        // the bucket index, so one narrow band of the ring still spreads.
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clockwise_distance_basics() {
        assert_eq!(Key(5).clockwise_to(Key(9)), 4);
        assert_eq!(Key(9).clockwise_to(Key(5)), u64::MAX - 3); // wraps
        assert_eq!(Key(7).clockwise_to(Key(7)), 0);
    }

    #[test]
    fn ring_distance_symmetric_and_short() {
        assert_eq!(Key(0).ring_distance(Key(10)), 10);
        assert_eq!(Key(10).ring_distance(Key(0)), 10);
        assert_eq!(Key(u64::MAX).ring_distance(Key(0)), 1);
        assert_eq!(Key(0).ring_distance(Key(u64::MAX)), 1);
    }

    #[test]
    fn offset_wraps() {
        assert_eq!(Key(u64::MAX).offset(1), Key(0));
        assert_eq!(Key(3).offset(0), Key(3));
    }

    #[test]
    fn cw_range_membership() {
        // (2, 8] on a small stretch.
        assert!(Key(2).in_cw_range(Key(3), Key(8)));
        assert!(Key(2).in_cw_range(Key(8), Key(8)));
        assert!(!Key(2).in_cw_range(Key(2), Key(8)), "open at start");
        assert!(!Key(2).in_cw_range(Key(9), Key(8)));
        // Wrapping interval (max-1, 1].
        let a = Key(u64::MAX - 1);
        assert!(a.in_cw_range(Key(u64::MAX), Key(1)));
        assert!(a.in_cw_range(Key(0), Key(1)));
        assert!(!a.in_cw_range(Key(2), Key(1)));
    }

    #[test]
    fn cw_range_full_ring_degenerate() {
        assert!(Key(4).in_cw_range(Key(9), Key(4)));
        assert!(Key(4).in_cw_range(Key(4), Key(4)));
    }

    #[test]
    fn digits_roundtrip() {
        let k = Key(0b11_10_01_00);
        assert_eq!(k.digit(0, 2), 0b00);
        assert_eq!(k.digit(1, 2), 0b01);
        assert_eq!(k.digit(2, 2), 0b10);
        assert_eq!(k.digit(3, 2), 0b11);
        assert_eq!(k.digit(31, 2), 0);
        assert_eq!(k.digit(99, 2), 0, "beyond the top is zero");
    }

    #[test]
    fn digit_reconstruction() {
        let k = Key(0xdead_beef_cafe_f00d);
        for bits in [1u32, 2, 4, 8, 16] {
            let mut v: u64 = 0;
            for level in (0..Key::levels(bits)).rev() {
                v = (v << bits) | k.digit(level, bits);
            }
            assert_eq!(v, k.0, "bits {bits}");
        }
    }

    #[test]
    fn levels_rounding() {
        assert_eq!(Key::levels(1), 64);
        assert_eq!(Key::levels(2), 32);
        assert_eq!(Key::levels(3), 22); // ceil(64/3)
        assert_eq!(Key::levels(4), 16);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let a = Key::hash_of(b"node-1");
        let b = Key::hash_of(b"node-1");
        let c = Key::hash_of(b"node-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Short sequential inputs should land far apart after avalanche.
        assert!(a.ring_distance(c) > 1 << 32);
    }

    #[test]
    fn key_hasher_spreads_clustered_and_sequential_keys() {
        use std::hash::BuildHasher;
        let hash = KeyHashBuilder::default();
        // Worst realistic inputs: consecutive keys, and keys differing
        // only in their high bits (one narrow band of the ring).
        for keys in [
            (0..4096u64).map(Key).collect::<Vec<_>>(),
            (0..4096u64).map(|i| Key(i << 52)).collect::<Vec<_>>(),
        ] {
            for bits in [7u32, 12] {
                let buckets = 1usize << bits;
                let mut low = vec![0u32; buckets];
                let mut high = vec![0u32; buckets];
                for k in &keys {
                    let h = hash.hash_one(k);
                    low[(h as usize) & (buckets - 1)] += 1;
                    high[(h >> (64 - bits)) as usize] += 1;
                }
                let mean = (keys.len() / buckets).max(1) as u32;
                for fill in [&low, &high] {
                    assert!(*fill.iter().max().unwrap() <= 8 * mean, "a bucket overflowed");
                }
            }
        }
        // Tuples hash both words, in order.
        let pair = |a: u64, b: u64| hash.hash_one((Key(a), Key(b)));
        assert_ne!(pair(1, 2), pair(2, 1));
        assert_ne!(pair(1, 2), pair(1, 3));
        assert_eq!(pair(1, 2), pair(1, 2));
    }

    #[test]
    fn random_keys_cover_both_halves() {
        let mut rng = Pcg64::seed_from_u64(1);
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..1000 {
            if Key::random(&mut rng).0 < u64::MAX / 2 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 400 && hi > 400, "lo {lo} hi {hi}");
    }
}
