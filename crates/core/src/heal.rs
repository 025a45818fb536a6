//! Crash-failure confirmation and self-healing (robustness layer).
//!
//! When the failure detector (in `bristle-proto`) confirms a node dead,
//! the system must do more than forget it: every LDT the corpse belonged
//! to has an orphaned subtree that would miss future `update`s, leases it
//! held are worthless, and — if it was stationary — the location records
//! it stored are gone from one replica. [`BristleSystem::confirm_dead`]
//! performs the whole funeral in one deterministic pass and reports what
//! it fixed; [`BristleSystem::anti_entropy_locations`] (in [`crate::repo`])
//! is the periodic pass that puts every record copy back at its current
//! replica set afterwards, and keeps a dead subject's record withdrawn.

use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;

use crate::arena::NodeIdx;
use crate::durable::Disk;
use crate::error::Result;
use crate::ldt::Ldt;
use crate::system::{BristleSystem, NodeInfo};
use crate::time::SimTime;

/// A death verdict, and the body it buried.
pub(crate) struct Corpse {
    /// The node as it was when buried, and the disk it left behind: kept
    /// so a wrongful funeral can be reversed by [`crate::rejoin`] without
    /// re-admitting from scratch, and so a restart ([`crate::restart`])
    /// has a disk to read. `None` when the verdict found nobody to bury:
    /// the node had already left or crashed, or the key was never known.
    pub(crate) body: Option<(NodeInfo, Disk)>,
    /// When the verdict was passed: [`BristleSystem::tick`] prunes it,
    /// and the disk with it,
    /// [`GRAVEYARD_RETENTION`](crate::system::GRAVEYARD_RETENTION) ticks
    /// later, so long-running churn does not grow the map without bound.
    pub(crate) buried_at: SimTime,
}

/// What [`BristleSystem::confirm_dead`] repaired.
#[derive(Debug, Clone)]
pub struct DeathReport {
    /// The node declared dead.
    pub dead: Key,
    /// Whether the node was still present (false on repeated confirmations
    /// or when the corpse was already removed by other means).
    pub was_present: bool,
    /// Whether the dead node was mobile.
    pub was_mobile: bool,
    /// Mobile targets whose LDTs lost a member and were re-grafted.
    pub ldts_repaired: Vec<Key>,
    /// Registration-state entries pruned (as registrant and as target).
    pub registrations_pruned: usize,
    /// Lease contracts revoked (held by or granted on the dead node).
    pub leases_revoked: usize,
    /// Location-record copies removed (a dead *mobile* node's records
    /// must not keep answering `_discovery`).
    pub records_unpublished: usize,
    /// Whether every repaired tree passed the reachability invariant:
    /// root-rooted, cycle-free, and containing all surviving registrants.
    pub invariant_ok: bool,
}

impl BristleSystem {
    /// Whether `key` has been confirmed crashed.
    pub fn is_confirmed_dead(&self, key: Key) -> bool {
        self.corpses.contains_key(&key)
    }

    /// Declares `key` crashed and heals everything it touched:
    ///
    /// 1. keeps the body and its disk in the graveyard, and materializes
    ///    the LDT of every live mobile target `key` was registered to
    ///    (while the corpse is still a member),
    /// 2. removes the corpse from both layers and prunes its
    ///    registrations and leases,
    /// 3. sweeps stale routing entries out of both layers, and the
    ///    holders the mobile sweep rebuilt re-register with their new rows,
    /// 4. re-grafts each orphaned LDT subtree via [`Ldt::heal`] and
    ///    disseminates the repaired tree (one `update` per edge, counted
    ///    as [`MessageKind::LdtRepair`] per tree),
    /// 5. unpublishes a dead mobile node's location records so
    ///    `_discovery` stops resurrecting it.
    ///
    /// Idempotent: confirming an already-confirmed corpse is a no-op.
    pub fn confirm_dead(&mut self, key: Key) -> Result<DeathReport> {
        let mut report = DeathReport {
            dead: key,
            was_present: false,
            was_mobile: false,
            ldts_repaired: Vec::new(),
            registrations_pruned: 0,
            leases_revoked: 0,
            records_unpublished: 0,
            invariant_ok: true,
        };
        if self.corpses.contains_key(&key) {
            return Ok(report);
        }
        // The body, and its disk as of the crash, before any funeral
        // bookkeeping: cleanup performed about it by survivors is not
        // written into it. If the verdict turns out to be wrong
        // (partition, not crash), [`crate::rejoin`] reverses the funeral
        // from that body instead of re-admitting a stranger.
        let body = self.node_info(key).ok().copied().map(|info| (info, self.bury_store(key)));
        report.was_present = body.is_some();
        report.was_mobile = self.is_mobile(key);
        self.corpses.insert(key, Corpse { body, buried_at: self.clock.now() });

        // (1) Targets whose LDT contains the corpse, with trees built
        // while the corpse is still registered (sorted for determinism),
        // and their registrants before the registration pass below.
        let mut trees: Vec<(Key, Ldt, Vec<NodeIdx>)> = Vec::new();
        for target in self.registry.targets_of(key) {
            if self.contains_node(target) {
                let registrants = self.registry.edges_of(target).iter().map(|e| e.holder);
                trees.push((target, self.build_ldt(target)?, registrants.collect()));
            }
        }

        // (2) Remove the corpse and its bookkeeping.
        if report.was_present {
            self.fail_node(key)?;
        }
        (report.registrations_pruned, report.leases_revoked) = self.dissolve(key);

        // (3) Drop dangling routing entries so repairs route cleanly.
        let dcache = self.distances_arc();
        let mut rng = self.rng().split(6);
        let swept = self.mobile.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);
        self.stationary.repair_sweep(&self.attachments, &dcache, &mut rng, &mut self.meter);
        self.reregister(&swept);

        // (4) Re-graft every orphaned subtree and disseminate the repair.
        let unit_cost = self.config().unit_cost;
        for (target, mut tree, registrants) in trees {
            if tree.heal(key, unit_cost).is_none() {
                continue; // corpse was not actually a member
            }
            let mut live = registrants.into_iter().filter(|&h| self.info.contains(h));
            let reachable = tree.all_reachable_from_root()
                && live.all(|h| tree.contains(self.interner().key_of(h)));
            report.invariant_ok &= reachable;
            self.advertise_update(target)?;
            self.meter.bump(MessageKind::LdtRepair, 1);
            report.ldts_repaired.push(target);
        }

        // (5) A dead mobile node's published location is a lie.
        if report.was_mobile {
            report.records_unpublished = self.withdraw_location(key)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::{BristleBuilder, BristleSystem, GRAVEYARD_RETENTION};
    use bristle_netsim::transit_stub::TransitStubConfig;

    fn system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    /// Some (target, registrant) pair where the registrant is not the
    /// target itself.
    fn pick_member(sys: &BristleSystem) -> (Key, Key) {
        for &target in sys.mobile_keys() {
            if let Some(r) = sys.registry.registrants_of(target).find(|r| r.key != target) {
                return (target, r.key);
            }
        }
        panic!("no registrations in test system");
    }

    /// Once the whole stationary layer is dead, a mobile node's funeral
    /// finds no record to withdraw, and still heals.
    #[test]
    fn a_funeral_after_the_stationary_layer_died_withdraws_nothing() {
        let mut sys = system(6, 4, 3);
        for s in sys.stationary_keys().to_vec() {
            sys.confirm_dead(s).unwrap();
        }
        let m = sys.mobile_keys()[0];
        assert_eq!(sys.confirm_dead(m).unwrap().records_unpublished, 0);
        assert!(sys.is_confirmed_dead(m) && sys.node_info(m).is_err());
    }

    #[test]
    fn confirm_dead_prunes_and_repairs_every_affected_ldt() {
        let mut sys = system(40, 12, 1);
        let (target, victim) = pick_member(&sys);
        let repairs_before = sys.meter.count(MessageKind::LdtRepair);
        let report = sys.confirm_dead(victim).unwrap();
        assert!(report.was_present);
        assert!(report.invariant_ok, "repaired trees must stay root-reachable");
        assert!(report.ldts_repaired.contains(&target), "the LDT that lost {victim} is repaired");
        assert!(report.registrations_pruned > 0);
        assert!(sys.is_confirmed_dead(victim));
        assert!(sys.node_info(victim).is_err(), "corpse removed from the system");
        assert_eq!(
            sys.meter.count(MessageKind::LdtRepair) - repairs_before,
            report.ldts_repaired.len() as u64
        );
        // The registry no longer mentions the corpse anywhere.
        for (t, regs) in sys.registry.iter() {
            assert_ne!(t, victim);
            assert!(regs.clone().all(|r| r.key != victim));
        }
        // Rebuilt trees exclude it and keep every survivor reachable.
        for &t in &report.ldts_repaired {
            let tree = sys.build_ldt(t).unwrap();
            assert!(!tree.contains(victim));
            assert!(tree.all_reachable_from_root());
        }
    }

    #[test]
    fn confirm_dead_is_idempotent() {
        let mut sys = system(30, 8, 2);
        let (_, victim) = pick_member(&sys);
        let first = sys.confirm_dead(victim).unwrap();
        assert!(first.was_present);
        let second = sys.confirm_dead(victim).unwrap();
        assert!(!second.was_present);
        assert!(second.ldts_repaired.is_empty());
        assert_eq!(second.registrations_pruned, 0);
    }

    #[test]
    fn dead_mobile_node_stops_answering_discovery() {
        let mut sys = system(30, 8, 3);
        let victim = sys.mobile_keys()[0];
        let report = sys.confirm_dead(victim).unwrap();
        assert!(report.was_mobile);
        assert!(report.records_unpublished > 0, "published records are withdrawn");
        let asker = sys.stationary_keys()[0];
        let disc = sys.discover(asker, victim).unwrap();
        assert!(disc.resolved.is_none(), "no stale resurrection after confirmation");
    }

    #[test]
    fn discovery_fails_over_to_replica_when_primary_dies() {
        let mut sys = system(40, 10, 4);
        assert!(sys.config().location_replicas >= 3, "test needs a replica chain");
        let subject = sys.mobile_keys()[0];
        let primary = sys.stationary.owner(subject).unwrap();
        let asker = *sys.stationary_keys().iter().find(|&&s| s != primary).unwrap();
        sys.confirm_dead(primary).unwrap();

        // The old second replica was promoted to owner and serves
        // directly — delivery survives the death without a probe.
        let disc = sys.discover(asker, subject).unwrap();
        assert!(disc.resolved.is_some(), "a surviving replica must answer");
        assert_eq!(sys.meter.count(MessageKind::ReplicaFailover), 0, "owner-served, no probe");

        // Model the replication gap: the promoted owner has not yet
        // received the record (the same state a freshly joined owner is
        // in). The chain must absorb the miss, and the failover counts.
        let new_owner = sys.stationary.owner(subject).unwrap();
        sys.stationary.node_mut(new_owner).unwrap().store.remove(&subject);
        let disc = sys.discover(asker, subject).unwrap();
        assert!(disc.resolved.is_some(), "a deeper replica must answer");
        assert_eq!(sys.meter.count(MessageKind::ReplicaFailover), 1, "probed failover is metered");
    }

    #[test]
    fn anti_entropy_restores_replication_after_stationary_death() {
        let mut sys = system(40, 10, 5);
        let replicas = sys.config().location_replicas;
        let subject = sys.mobile_keys()[0];
        let primary = sys.stationary.owner(subject).unwrap();
        sys.confirm_dead(primary).unwrap();
        let installed = sys.anti_entropy_locations().unwrap();
        assert!(installed > 0, "lost copies must be re-installed");
        let set = sys.stationary.replica_set(subject, replicas).unwrap();
        for r in set {
            assert!(
                sys.stationary.node(r).unwrap().store.contains_key(&subject),
                "replica {r} must hold {subject} after reconciliation"
            );
        }
        // A second pass finds nothing left to fix.
        assert_eq!(sys.anti_entropy_locations().unwrap(), 0);
    }

    #[test]
    fn anti_entropy_prefers_the_newest_record() {
        let mut sys = system(40, 10, 6);
        let replicas = sys.config().location_replicas;
        let subject = sys.mobile_keys()[0];
        // Move the subject so a fresh record (seq 1) lands at the replica
        // set, then plant a stale seq-0 copy at the first replica.
        sys.move_node(subject, None).unwrap();
        let set = sys.stationary.replica_set(subject, replicas).unwrap();
        let fresh = *sys.stationary.node(set[0]).unwrap().store.get(&subject).unwrap();
        let mut stale = fresh;
        stale.seq = 0;
        sys.stationary.node_mut(set[0]).unwrap().store.insert(subject, stale);
        sys.anti_entropy_locations().unwrap();
        for &r in &set {
            let rec = sys.stationary.node(r).unwrap().store.get(&subject).unwrap();
            assert_eq!(rec.seq, fresh.seq, "newest copy wins at replica {r}");
        }
    }

    #[test]
    fn anti_entropy_ranks_incarnation_above_seq() {
        let mut sys = system(40, 10, 8);
        let replicas = sys.config().location_replicas;
        let subject = sys.mobile_keys()[0];
        sys.move_node(subject, None).unwrap();
        let set = sys.stationary.replica_set(subject, replicas).unwrap();
        // Split-brain shape: one replica holds a far-side record from the
        // subject's previous life with an inflated seq; the rest hold the
        // post-rejoin record at a fresher incarnation.
        let current = *sys.stationary.node(set[0]).unwrap().store.get(&subject).unwrap();
        let mut far_side = current;
        far_side.seq = current.seq + 50;
        sys.stationary.node_mut(set[0]).unwrap().store.insert(subject, far_side);
        let mut rejoined = current;
        rejoined.incarnation = current.incarnation + 1;
        for &r in &set[1..] {
            sys.stationary.node_mut(r).unwrap().store.insert(subject, rejoined);
        }
        sys.anti_entropy_locations().unwrap();
        for &r in &set {
            let rec = sys.stationary.node(r).unwrap().store.get(&subject).unwrap();
            assert_eq!(
                (rec.incarnation, rec.seq),
                (rejoined.incarnation, rejoined.seq),
                "fresher incarnation beats inflated far-side seq at replica {r}"
            );
        }
    }

    #[test]
    fn anti_entropy_keeps_buried_records_withdrawn_and_strays_out() {
        let mut sys = system(40, 10, 9);
        let replicas = sys.config().location_replicas;
        let (victim, live) = (sys.mobile_keys()[0], sys.mobile_keys()[1]);
        // Each subject's record also sits on a node outside its set, as
        // a replica set that moved under it leaves one behind.
        for subject in [victim, live] {
            let set = sys.stationary.replica_set(subject, replicas).unwrap();
            let record = *sys.stationary.node(set[0]).unwrap().store.get(&subject).unwrap();
            let stray = sys.stationary.keys().find(|k| !set.contains(k)).unwrap();
            sys.stationary.node_mut(stray).unwrap().store.insert(subject, record);
        }
        // The funeral withdraws the victim's record from its set only.
        sys.confirm_dead(victim).unwrap();
        sys.anti_entropy_locations().unwrap();
        let holders = |sys: &BristleSystem, subject: Key| -> Vec<Key> {
            sys.stationary
                .iter()
                .filter(|n| n.store.contains_key(&subject))
                .map(|n| n.key)
                .collect()
        };
        assert!(holders(&sys, victim).is_empty(), "a buried subject's record is not re-planted");
        let mut set = sys.stationary.replica_set(live, replicas).unwrap();
        set.sort_unstable();
        assert_eq!(holders(&sys, live), set, "a live subject's record is held by its set alone");
    }

    #[test]
    fn confirm_dead_meter_trace_is_deterministic() {
        let run = |seed: u64| {
            let mut sys = system(30, 10, seed);
            let (_, victim) = pick_member(&sys);
            sys.confirm_dead(victim).unwrap();
            let tallies: Vec<(MessageKind, u64, u64)> = bristle_overlay::meter::ALL_KINDS
                .iter()
                .map(|&k| (k, sys.meter.count(k), sys.meter.cost(k)))
                .collect();
            tallies
        };
        assert_eq!(run(7), run(7), "same seed, same funeral, same bill");
    }

    #[test]
    fn graveyard_prunes_corpses_past_retention() {
        let mut sys = system(30, 8, 5);
        let victim = sys.mobile_keys()[0];
        sys.confirm_dead(victim).unwrap();
        assert!(sys.is_confirmed_dead(victim));
        assert_eq!(sys.graveyard_len(), 1);
        // Inside the window the corpse is still held.
        sys.tick(GRAVEYARD_RETENTION - 1);
        assert_eq!(sys.graveyard_len(), 1, "retention window still open");
        assert!(sys.is_confirmed_dead(victim));
        // One more tick closes the window.
        sys.tick(1);
        assert_eq!(sys.graveyard_len(), 0, "corpse pruned at retention");
        assert!(!sys.is_confirmed_dead(victim), "dead-set entry reclaimed too");
    }

    #[test]
    fn a_verdict_on_an_absent_node_is_pruned_at_retention() {
        let mut sys = system(30, 8, 5);
        // The node left gracefully before the (late) verdict arrived:
        // there is nobody to bury, only the verdict to remember.
        let leaver = sys.mobile_keys()[0];
        sys.leave_node(leaver).unwrap();
        let report = sys.confirm_dead(leaver).unwrap();
        assert!(!report.was_present);
        assert!(sys.is_confirmed_dead(leaver));
        assert!(!sys.can_rejoin(leaver), "no body was buried");
        assert_eq!(sys.graveyard_len(), 0);
        sys.tick(GRAVEYARD_RETENTION - 1);
        assert!(sys.is_confirmed_dead(leaver), "retention window still open");
        sys.tick(1);
        assert!(!sys.is_confirmed_dead(leaver), "the verdict is reclaimed with the window");
    }

    #[test]
    fn graveyard_stays_bounded_under_perpetual_churn() {
        let mut sys = system(40, 12, 7);
        // One funeral every half retention window: at most 2 + 1 = 3
        // corpses can be inside the window at once, no matter how long
        // the churn runs.
        let victims: Vec<Key> = sys.mobile_keys().to_vec();
        let mut peak = 0usize;
        for victim in victims {
            sys.confirm_dead(victim).unwrap();
            peak = peak.max(sys.graveyard_len());
            sys.tick(GRAVEYARD_RETENTION / 2);
            peak = peak.max(sys.graveyard_len());
        }
        assert!(peak <= 3, "graveyard must stay bounded, saw {peak}");
        sys.tick(2 * GRAVEYARD_RETENTION);
        assert_eq!(sys.graveyard_len(), 0, "quiescence drains the graveyard");
    }
}
