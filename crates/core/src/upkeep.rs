//! Periodic system upkeep: the glue that turns the paper's "periodically
//! refresh / periodically register / leases expire" prose into one
//! callable round.
//!
//! A [`BristleSystem::run_upkeep`] round performs, in order:
//!
//! 1. lease purge (expired contracts dropped);
//! 2. location-record expiry in the stationary layer — "once the
//!    contract of a state expires, the state is no longer valid"
//!    (§2.3.2);
//! 3. failure detection and local repair in both layers (probe entries,
//!    patch the damaged ones — §2.3.2's connectivity monitoring);
//! 4. under **early binding** only: re-registration and proactive
//!    republish + LDT re-advertisement for every mobile node.
//!
//! Late-binding systems skip step 4 and rely on `_discovery` at use
//! time; the ablation experiment quantifies that trade.

use bristle_overlay::repair::RepairReport;

use crate::config::BindingMode;
use crate::error::Result;
use crate::system::BristleSystem;

/// What one upkeep round did.
#[derive(Debug, Clone, Default)]
pub struct UpkeepReport {
    /// Lease contracts purged.
    pub leases_purged: usize,
    /// Expired location records removed from the repository.
    pub records_expired: usize,
    /// Repair sweep over the mobile layer.
    pub mobile_repair: RepairReport,
    /// Repair sweep over the stationary layer.
    pub stationary_repair: RepairReport,
    /// Whether the early-binding refresh ran.
    pub refreshed_bindings: bool,
}

impl BristleSystem {
    /// One full upkeep round (see module docs for the steps).
    pub fn run_upkeep(&mut self) -> Result<UpkeepReport> {
        let mut report = UpkeepReport {
            leases_purged: self.purge_leases(),
            records_expired: self.expire_locations(),
            ..Default::default()
        };

        // Failure detection + local repair, both layers.
        let dcache = self.distances_arc();
        let mut rng = self.rng().split(6);
        report.mobile_repair =
            self.mobile.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);
        report.stationary_repair =
            self.stationary.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);

        if self.config().binding == BindingMode::Early {
            self.refresh_bindings()?;
            report.refreshed_bindings = true;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;

    fn system(seed: u64, cfg: BristleConfig) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(40)
            .mobile_nodes(15)
            .topology(TransitStubConfig::tiny())
            .config(cfg)
            .build()
            .unwrap()
    }

    #[test]
    fn upkeep_noop_on_fresh_system() {
        let mut sys = system(1, BristleConfig::recommended());
        let r = sys.run_upkeep().unwrap();
        assert_eq!(r.leases_purged, 0);
        assert_eq!(r.records_expired, 0);
        assert_eq!(r.mobile_repair.dropped, 0);
        assert_eq!(r.stationary_repair.dropped, 0);
        assert!(r.refreshed_bindings, "recommended config is early binding");
    }

    #[test]
    fn upkeep_expires_stale_records_and_early_binding_republishes() {
        let mut sys = system(2, BristleConfig::recommended());
        let ttl = sys.config().location_ttl;
        sys.tick(ttl + 1);
        let r = sys.run_upkeep().unwrap();
        assert!(r.records_expired > 0, "lapsed records must be dropped");
        // Early binding immediately republished them: discovery still works.
        let watcher = sys.stationary_keys()[0];
        let m = sys.mobile_keys()[0];
        assert!(sys.discover(watcher, m).unwrap().resolved.is_some());
    }

    #[test]
    fn late_binding_upkeep_leaves_a_gap_until_next_publish() {
        let cfg = BristleConfig { binding: BindingMode::Late, ..BristleConfig::recommended() };
        let mut sys = system(3, cfg);
        let ttl = sys.config().location_ttl;
        sys.tick(ttl + 1);
        let r = sys.run_upkeep().unwrap();
        assert!(!r.refreshed_bindings);
        assert!(r.records_expired > 0);
        // The repository is now empty for everyone who has not moved
        // since: discovery fails until the subject republishes.
        let watcher = sys.stationary_keys()[0];
        let m = sys.mobile_keys()[0];
        assert!(sys.discover(watcher, m).unwrap().resolved.is_none());
        // A move republishes and closes the gap.
        sys.move_node(m, None).unwrap();
        assert!(sys.discover(watcher, m).unwrap().resolved.is_some());
    }

    #[test]
    fn upkeep_heals_failure_damage() {
        let mut sys = system(4, BristleConfig::recommended());
        // Abruptly kill a few stationary nodes.
        let victims: Vec<_> = sys.stationary_keys().iter().copied().step_by(6).take(4).collect();
        for v in victims {
            sys.fail_node(v).unwrap();
        }
        assert!(!sys.mobile.health().is_healthy());
        let r = sys.run_upkeep().unwrap();
        assert!(r.mobile_repair.dropped > 0);
        assert!(sys.mobile.health().is_healthy());
        assert!(sys.stationary.health().is_healthy());
    }

    #[test]
    fn upkeep_purges_leases() {
        let mut sys = system(5, BristleConfig::recommended());
        let m = sys.mobile_keys()[0];
        sys.advertise_update(m).unwrap();
        let ttl = sys.config().lease_ttl;
        // Advance the clock without the tick() purge to isolate upkeep.
        sys.clock.advance(ttl + 1);
        let r = sys.run_upkeep().unwrap();
        assert!(r.leases_purged > 0);
    }
}
