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
//! 4. under **early binding**: re-registration and proactive republish +
//!    LDT re-advertisement for every mobile node. Late binding only
//!    re-registers the holders step 3 rebuilt, and relies on `_discovery`
//!    at use time; the ablation experiment quantifies that trade.

use crate::config::BindingMode;
use crate::error::Result;
use crate::system::BristleSystem;

impl BristleSystem {
    /// One full upkeep round (see module docs for the steps).
    pub fn run_upkeep(&mut self) -> Result<()> {
        self.purge_leases();
        self.expire_locations();

        // Failure detection + local repair, both layers.
        let dcache = self.distances_arc();
        let mut rng = self.rng().split(6);
        let swept = self.mobile.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);
        self.stationary.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);

        if self.config().binding == BindingMode::Early {
            self.refresh_bindings()?;
        } else {
            self.reregister(&swept);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;
    use bristle_overlay::meter::MessageKind;

    fn system(seed: u64, cfg: BristleConfig) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(40)
            .mobile_nodes(15)
            .topology(TransitStubConfig::tiny())
            .config(cfg)
            .build()
            .unwrap()
    }

    /// Location records held across the stationary layer, and how many
    /// of them have lapsed.
    fn records(sys: &BristleSystem) -> (usize, usize) {
        let now = sys.clock.now();
        let all = sys.stationary.iter().flat_map(|n| n.store.values());
        all.fold((0, 0), |(held, lapsed), r| (held + 1, lapsed + usize::from(r.is_expired(now))))
    }

    #[test]
    fn upkeep_noop_on_fresh_system() {
        let mut sys = system(1, BristleConfig::recommended());
        let held = records(&sys);
        let probes = sys.mobile.total_state() + sys.stationary.total_state();
        let updates = sys.meter.count(MessageKind::Update);
        sys.run_upkeep().unwrap();
        assert_eq!(records(&sys), held, "nothing lapsed, nothing to drop");
        assert_eq!(sys.meter.count(MessageKind::Refresh) as usize, probes, "one probe an entry");
        assert!(sys.mobile.health().is_healthy() && sys.stationary.health().is_healthy());
        assert!(
            sys.meter.count(MessageKind::Update) > updates,
            "recommended config is early binding"
        );
    }

    #[test]
    fn upkeep_expires_stale_records_and_early_binding_republishes() {
        let mut sys = system(2, BristleConfig::recommended());
        let ttl = sys.config().location_ttl;
        sys.tick(ttl + 1);
        assert!(records(&sys).1 > 0, "records have lapsed");
        sys.run_upkeep().unwrap();
        let (held, lapsed) = records(&sys);
        assert_eq!(lapsed, 0, "lapsed records must be dropped");
        assert!(held > 0, "and early binding republished them");
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
        let updates = sys.meter.count(MessageKind::Update);
        sys.run_upkeep().unwrap();
        assert_eq!(records(&sys), (0, 0), "every record lapsed and none was republished");
        assert_eq!(sys.meter.count(MessageKind::Update), updates, "no binding refresh");
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
        sys.run_upkeep().unwrap();
        assert!(sys.mobile.health().is_healthy());
        assert!(sys.stationary.health().is_healthy());
    }

    #[test]
    fn upkeep_purges_leases() {
        // Late binding, so the round grants no fresh lease after its purge.
        let cfg = BristleConfig { binding: BindingMode::Late, ..BristleConfig::recommended() };
        let mut sys = system(5, cfg);
        let m = sys.mobile_keys()[0];
        sys.advertise_update(m).unwrap();
        assert!(!sys.leases.is_empty());
        let ttl = sys.config().lease_ttl;
        // Advance the clock without the tick() purge to isolate upkeep.
        sys.clock.advance(ttl + 1);
        sys.run_upkeep().unwrap();
        assert!(sys.leases.is_empty());
    }
}
