//! Bristle system configuration.

use bristle_overlay::config::RingConfig;

/// Which naming policy the system assigns keys under (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamingPolicy {
    /// Uniformly random keys (a plain HS-P2P).
    Scrambled,
    /// Stationary keys clustered into a band sized to the stationary
    /// fraction of the population.
    Clustered,
}

/// How registrants keep their cached states fresh (§2.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingMode {
    /// Early binding: mobile nodes push updates through their LDTs and
    /// everyone re-registers periodically.
    Early,
    /// Late binding: consumers resolve addresses on demand via
    /// `_discovery` when their cached state has expired.
    Late,
}

/// All tunables of a [`crate::system::BristleSystem`].
#[derive(Debug, Clone)]
pub struct BristleConfig {
    /// Overlay protocol parameters (shared by both layers).
    pub ring: RingConfig,
    /// Key-assignment policy.
    pub naming: NamingPolicy,
    /// Replication factor k for location records in the stationary layer.
    pub location_replicas: usize,
    /// TTL (ticks) of a published location record.
    pub location_ttl: u64,
    /// TTL (ticks) of leases granted on cached addresses.
    pub lease_ttl: u64,
    /// Unit cost `v` of one advertisement message (Fig. 4).
    pub unit_cost: u32,
    /// Node capacities are drawn uniformly from this inclusive range.
    pub capacity_range: (u32, u32),
    /// Early vs late binding.
    pub binding: BindingMode,
}

impl BristleConfig {
    /// Sensible defaults: clustered naming, Tornado-like overlay, k = 3
    /// location replicas, 300-tick leases, capacities 1..=15 (the paper's
    /// Fig. 8 range).
    pub fn recommended() -> Self {
        BristleConfig {
            ring: RingConfig::tornado(),
            naming: NamingPolicy::Clustered,
            location_replicas: 3,
            location_ttl: 600,
            lease_ttl: 300,
            unit_cost: 1,
            capacity_range: (1, 15),
            binding: BindingMode::Early,
        }
    }

    /// The configuration the paper's §4.1 state-discovery experiment uses:
    /// scrambled naming, and zero-length leases so that *every* mobile-node
    /// hop needs a `_discovery` (the paper assumes mobile nodes advertise
    /// to the stationary layer only).
    pub fn paper_scrambled() -> Self {
        BristleConfig {
            naming: NamingPolicy::Scrambled,
            lease_ttl: 0,
            binding: BindingMode::Late,
            ..Self::recommended()
        }
    }

    /// As [`BristleConfig::paper_scrambled`] but with the clustered naming
    /// scheme (§3's optimization).
    pub fn paper_clustered() -> Self {
        BristleConfig { naming: NamingPolicy::Clustered, ..Self::paper_scrambled() }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) {
        self.ring.validate();
        assert!(self.location_replicas >= 1, "need at least one location replica");
        assert!(self.unit_cost >= 1, "unit cost must be positive");
        let (lo, hi) = self.capacity_range;
        assert!(lo >= 1 && lo <= hi, "invalid capacity range ({lo}, {hi})");
    }
}

impl Default for BristleConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        BristleConfig::recommended().validate();
        BristleConfig::paper_scrambled().validate();
        BristleConfig::paper_clustered().validate();
    }

    #[test]
    fn paper_presets_differ_only_in_naming() {
        let s = BristleConfig::paper_scrambled();
        let c = BristleConfig::paper_clustered();
        assert_eq!(s.naming, NamingPolicy::Scrambled);
        assert_eq!(c.naming, NamingPolicy::Clustered);
        assert_eq!(s.lease_ttl, c.lease_ttl);
        assert_eq!(s.binding, c.binding);
    }

    #[test]
    #[should_panic(expected = "capacity range")]
    fn bad_capacity_range_rejected() {
        BristleConfig { capacity_range: (5, 2), ..BristleConfig::recommended() }.validate();
    }
}
