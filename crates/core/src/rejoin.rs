//! Reversing a wrongful funeral (partition tolerance).
//!
//! [`crate::heal`] buries a node the failure detector confirmed dead.
//! When the verdict was wrong — the node was unreachable behind a
//! network partition, not crashed — the node refutes the verdict with a
//! bumped incarnation number (see `bristle_proto::machine`) and asks a
//! live sponsor to reverse the funeral. [`BristleSystem::rejoin_node`]
//! is that reversal: it re-admits the node from the corpse state the
//! funeral preserved, re-inserts it into the LDTs of every mobile
//! target it was registered to (capacity-aware, via the normal tree
//! build), restores its withdrawn location records at the fresher
//! incarnation, and re-registers interest both ways. The fresher
//! incarnation makes the restored records dominate anything the far
//! side published during the split, so
//! [`BristleSystem::anti_entropy_locations`] converges both sides onto
//! the post-rejoin state.

use bristle_overlay::key::Key;
use bristle_store::DurableState;

use crate::durable::Disk;
use crate::error::Result;
use crate::restart::RestartReport;
use crate::system::BristleSystem;

impl BristleSystem {
    /// Whether `key` has corpse state available for a rejoin.
    pub fn can_rejoin(&self, key: Key) -> bool {
        self.corpses.get(&key).is_some_and(|c| c.body.is_some())
    }

    /// Reverses the funeral of a wrongfully buried node.
    ///
    /// `incarnation` is the incarnation the node claims after learning
    /// of its own death (the protocol layer guarantees it exceeds the
    /// one the verdict was charged against); the restored node lives at
    /// `max(incarnation, buried_incarnation + 1)` so the rejoin always
    /// out-ranks the funeral even if the claim is stale.
    ///
    /// The node returns with nothing — a restart
    /// ([`BristleSystem::restart_node_from_store`]) whose disk kept no
    /// rows — and with the same report. A WAL goes back to the node as
    /// it stood at the verdict, and what it held before the funeral and
    /// the tables no longer have is durably dropped; a node without one
    /// comes back without a store.
    ///
    /// Idempotent: rejoining a node that was never buried — or was
    /// already rejoined — is a no-op with `restored == false`.
    pub fn rejoin_node(&mut self, key: Key, incarnation: u64) -> Result<RestartReport> {
        let Some((info, disk)) = self.take_corpse(key) else {
            return Ok(RestartReport { key, ..Default::default() });
        };
        if let Disk::Wal(wal) = disk {
            self.stores.attach_wal(key, wal);
        }
        self.resurrect(key, info, incarnation, &DurableState::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;
    use bristle_overlay::meter::MessageKind;

    fn system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    #[test]
    fn rejoin_reverses_a_funeral_end_to_end() {
        let mut sys = system(40, 12, 11);
        let victim = sys.mobile_keys()[0];
        let buried_inc = sys.node_info(victim).unwrap().incarnation;
        sys.confirm_dead(victim).unwrap();
        assert!(sys.is_confirmed_dead(victim));
        assert!(sys.can_rejoin(victim));

        let report = sys.rejoin_node(victim, buried_inc + 1).unwrap();
        assert!(report.restored);
        assert!(report.was_mobile);
        assert!(report.incarnation > buried_inc, "rejoin out-ranks the funeral");
        assert!(!sys.is_confirmed_dead(victim), "no longer dead");
        assert!(!sys.can_rejoin(victim), "corpse state consumed");
        assert_eq!(sys.node_info(victim).unwrap().incarnation, report.incarnation);
        assert!(sys.mobile_keys().contains(&victim));

        // The location records withdrawn at the funeral are back, at the
        // fresher incarnation, and discovery resolves again.
        assert!(report.publish_hops > 0);
        let owner = sys.stationary.owner(victim).unwrap();
        let rec = *sys.stationary.node(owner).unwrap().store.get(&victim).unwrap();
        assert_eq!(rec.incarnation, report.incarnation);
        let asker = sys.stationary_keys()[0];
        let disc = sys.discover(asker, victim).unwrap();
        assert!(disc.resolved.is_some(), "discovery works after rejoin");

        // Registration state mentions the node again, both directions.
        assert!(report.registrations_restored > 0);
        let registered_somewhere =
            sys.registry.iter().any(|(_, regs)| regs.clone().any(|r| r.key == victim));
        assert!(registered_somewhere, "the node registers to subjects it holds");

        // Every re-disseminated LDT contains the resurrected member.
        for &t in &report.ldts_rejoined {
            assert!(sys.build_ldt(t).unwrap().contains(victim));
        }
    }

    #[test]
    fn rejoin_without_a_funeral_is_a_no_op() {
        let mut sys = system(30, 8, 12);
        let node = sys.mobile_keys()[0];
        let before = sys.meter.count(MessageKind::Register);
        let report = sys.rejoin_node(node, 5).unwrap();
        assert!(!report.restored);
        assert_eq!(report.registrations_restored, 0);
        assert_eq!(sys.meter.count(MessageKind::Register), before);
        // And so is rejoining twice.
        sys.confirm_dead(node).unwrap();
        assert!(sys.rejoin_node(node, 1).unwrap().restored);
        assert!(!sys.rejoin_node(node, 1).unwrap().restored);
    }

    #[test]
    fn stale_rejoin_claim_still_outranks_the_burial() {
        let mut sys = system(30, 8, 13);
        let victim = sys.mobile_keys()[1];
        let buried_inc = sys.node_info(victim).unwrap().incarnation;
        sys.confirm_dead(victim).unwrap();
        // A claim no fresher than the burial is bumped past it anyway.
        let report = sys.rejoin_node(victim, buried_inc).unwrap();
        assert!(report.restored);
        assert_eq!(report.incarnation, buried_inc + 1);
    }

    #[test]
    fn stationary_rejoin_restores_the_replica() {
        let mut sys = system(40, 10, 14);
        let subject = sys.mobile_keys()[0];
        let primary = sys.stationary.owner(subject).unwrap();
        sys.confirm_dead(primary).unwrap();
        let report = sys.rejoin_node(primary, 1).unwrap();
        assert!(report.restored);
        assert!(!report.was_mobile);
        assert_eq!(report.publish_hops, 0, "stationary nodes publish nothing");
        assert!(sys.stationary_keys().contains(&primary));
        // Anti-entropy refills whatever store the returned replica should
        // hold; a second pass finds nothing left.
        sys.anti_entropy_locations().unwrap();
        assert_eq!(sys.anti_entropy_locations().unwrap(), 0);
    }

    #[test]
    fn rejoin_republication_stamps_are_never_in_the_future() {
        // Regression for the SimTime::since invariant: a record stamped
        // ahead of the clock would read as age 0 forever and never
        // expire. The rejoin path republishes the victim's location, so
        // pin that every restored record carries published_at <= now and
        // ages normally from there (computing the age at all would trip
        // the debug_assert in `since` if the stamp were in the future).
        let mut sys = system(40, 12, 16);
        let victim = sys.mobile_keys()[0];
        sys.clock.advance(100);
        sys.confirm_dead(victim).unwrap();
        sys.clock.advance(50);
        let report = sys.rejoin_node(victim, 1).unwrap();
        assert!(report.restored);
        let now = sys.clock.now();
        let owner = sys.stationary.owner(victim).unwrap();
        let rec = *sys.stationary.node(owner).unwrap().store.get(&victim).unwrap();
        assert!(
            rec.published_at <= now,
            "republished at {} but clock is {}",
            rec.published_at,
            now
        );
        assert!(!rec.is_expired(now), "fresh at republication");
        assert!(rec.is_expired(rec.published_at.plus(rec.ttl)), "expires after its ttl");
    }

    #[test]
    fn rejoin_is_deterministic() {
        let run = |seed: u64| {
            let mut sys = system(30, 10, seed);
            let victim = sys.mobile_keys()[2];
            sys.confirm_dead(victim).unwrap();
            let report = sys.rejoin_node(victim, 1).unwrap();
            let tallies: Vec<(MessageKind, u64, u64)> = bristle_overlay::meter::ALL_KINDS
                .iter()
                .map(|&k| (k, sys.meter.count(k), sys.meter.cost(k)))
                .collect();
            (report.registrations_restored, report.ldts_rejoined, tallies)
        };
        assert_eq!(run(15), run(15), "same seed, same resurrection, same bill");
    }
}
