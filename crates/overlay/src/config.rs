//! Overlay protocol parameters.

/// How a node picks one neighbor out of several key-wise-equivalent
/// candidates for a routing-table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborSelection {
    /// First node clockwise in the slot interval (no locality awareness).
    First,
    /// Uniformly random node from the candidate window.
    Random,
    /// Network-proximity neighbor selection: the candidate with the lowest
    /// physical shortest-path distance (Tornado/Pastry-style; the paper's
    /// Fig. 5 `distance(r, i)` check and the Fig. 9 "with locality" mode).
    Proximity,
}

/// Leaf-set radius of every ring and prefix DHT: this many immediate
/// successors *and* predecessors.
pub const LEAF_RADIUS: usize = 4;

/// Parameters of the ring DHT ([`crate::ring::RingDht`]).
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Digit width in bits; the routing base is `2^bits_per_digit`.
    pub bits_per_digit: u32,
    /// How many clockwise-first candidates per finger interval are examined
    /// by the neighbor-selection policy.
    pub candidate_window: usize,
    /// Neighbor-selection policy for finger slots.
    pub selection: NeighborSelection,
}

impl RingConfig {
    /// Tornado-like configuration: base-4 digits, proximity neighbor
    /// selection. Matches the route-length magnitudes in the paper
    /// (≈ 5–6 application hops at N = 2 000).
    pub fn tornado() -> Self {
        RingConfig {
            bits_per_digit: 2,
            candidate_window: 6,
            selection: NeighborSelection::Proximity,
        }
    }

    /// Tornado-like structure but locality-blind (paper Fig. 9's "without
    /// locality" mode).
    pub fn tornado_no_locality() -> Self {
        RingConfig { selection: NeighborSelection::Random, ..Self::tornado() }
    }

    /// Chord-like baseline: base-2 fingers, successor-only selection,
    /// no proximity awareness.
    pub fn chord() -> Self {
        RingConfig { bits_per_digit: 1, candidate_window: 1, selection: NeighborSelection::First }
    }

    /// Number of digit levels implied by the digit width.
    pub fn levels(&self) -> u32 {
        crate::key::Key::levels(self.bits_per_digit)
    }

    /// The routing base `2^bits_per_digit`.
    pub fn base(&self) -> u64 {
        1u64 << self.bits_per_digit
    }

    /// Validates parameter sanity.
    pub fn validate(&self) {
        assert!((1..=16).contains(&self.bits_per_digit), "bits_per_digit out of range");
        assert!(self.candidate_window >= 1, "candidate_window must be >= 1");
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::tornado()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [RingConfig::tornado(), RingConfig::tornado_no_locality(), RingConfig::chord()] {
            cfg.validate();
        }
    }

    #[test]
    fn tornado_base_is_four() {
        let cfg = RingConfig::tornado();
        assert_eq!(cfg.base(), 4);
        assert_eq!(cfg.levels(), 32);
    }

    #[test]
    fn chord_base_is_two() {
        let cfg = RingConfig::chord();
        assert_eq!(cfg.base(), 2);
        assert_eq!(cfg.levels(), 64);
        assert_eq!(cfg.selection, NeighborSelection::First);
    }

    #[test]
    #[should_panic(expected = "bits_per_digit")]
    fn zero_bits_rejected() {
        RingConfig { bits_per_digit: 0, ..RingConfig::tornado() }.validate();
    }
}
