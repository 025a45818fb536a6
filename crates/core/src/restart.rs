//! Crash-restart from durable state (the `bristle-store` payoff).
//!
//! [`crate::rejoin`] resurrects a wrongfully buried node *empty*: a
//! stationary node returns with a blank shard and waits for
//! [`BristleSystem::anti_entropy_locations`] to refill it from whichever
//! nodes still hold its records, one `Replicate` message per record. A
//! node whose durable store survived the crash can do better:
//! [`BristleSystem::restart_node_from_store`] replays the node's
//! snapshot + write-ahead log and reinstalls its shard, explicit
//! registrations and leases *locally* — zero messages — so the subsequent
//! anti-entropy pass finds (almost) nothing to ship. The durability
//! experiment in `bristle-sim` meters exactly this difference.
//!
//! Both are one body, `resurrect`, below: a rejoin is a restart whose
//! disk kept nothing. Neither builds a registration edge: after the rewire
//! every holder goes through [`crate::repo`]'s registration pass, which
//! re-derives each edge the rewired rows imply. A disk keeps only explicit
//! registrations, and they become the node's explicit interests again, so
//! a restart brings back no edge its rows do not name but those.

use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_store::{DurableState, ReplayReport};

use crate::durable::location_from_stored;
use crate::error::Result;
use crate::naming::Mobility;
use crate::system::{BristleSystem, NodeInfo};
use crate::time::SimTime;

/// What [`BristleSystem::restart_node_from_store`] recovered.
#[derive(Debug, Clone, Default)]
pub struct RestartReport {
    /// The restarted node.
    pub key: Key,
    /// The incarnation the node lives at after the restart (strictly
    /// greater than both the buried and the persisted incarnation).
    pub incarnation: u64,
    /// Whether a buried corpse was actually restarted. `false` means the
    /// node was never buried (or already restored) and nothing happened.
    pub restored: bool,
    /// Whether the restarted node is mobile.
    pub was_mobile: bool,
    /// Location records reinstalled into the node's shard from its
    /// durable store, without any network traffic.
    pub records_recovered: usize,
    /// Persisted records dropped at restart (subject gone, dead, or the
    /// record's TTL lapsed during the downtime).
    pub records_skipped: usize,
    /// Registration edges the resurrection added, one `Register` each,
    /// the node's own and every holder's whose rows the rewire changed.
    pub registrations_restored: usize,
    /// Persisted registrations dropped (target gone or dead).
    pub registrations_stale: usize,
    /// Lease contracts still within their window that were restored.
    pub leases_restored: usize,
    /// Mobile targets whose LDTs regained the node and were
    /// re-disseminated.
    pub ldts_rejoined: Vec<Key>,
    /// Hops spent republishing the node's location (mobile only).
    pub publish_hops: usize,
    /// What the WAL replay processed, when the node had a WAL that
    /// re-opened (`None` for a node restarted from its grave's fold of
    /// its rows, and for a rejoin).
    pub replay: Option<ReplayReport>,
}

impl BristleSystem {
    /// Restarts a buried node from the disk its grave kept — the
    /// crash-restart alternative to [`BristleSystem::rejoin_node`].
    ///
    /// A WAL is re-opened from its directory (a genuine replay:
    /// snapshot, then log, torn tail tolerated) and the node keeps it; a
    /// node without one restarts from the rows its tables held at the
    /// verdict and holds no store. Then the node is resurrected
    /// (`resurrect`, below) with that state, at an incarnation
    /// out-ranking both the funeral and the persisted one.
    ///
    /// Idempotent: restarting a node that was never buried — or was
    /// already restored — is a no-op with `restored == false`.
    pub fn restart_node_from_store(&mut self, key: Key) -> Result<RestartReport> {
        let Some((info, disk)) = self.take_corpse(key) else {
            return Ok(RestartReport { key, ..Default::default() });
        };
        let (persisted, replay) = self.reopen_disk(key, disk);
        let floor = persisted.identity.map_or(0, |(_, incarnation)| incarnation) + 1;
        let mut report = self.resurrect(key, info, floor, &persisted)?;
        report.replay = replay;
        Ok(report)
    }

    /// Brings `key`, buried as `info` and just taken out of its grave,
    /// back to life — the one body of [`BristleSystem::rejoin_node`]
    /// (which returns with nothing: `persisted` empty) and
    /// [`BristleSystem::restart_node_from_store`] (which returns with
    /// what its disk kept). The node lives at `max(incarnation_floor,
    /// buried incarnation + 1)`, so it always out-ranks its funeral.
    ///
    /// 1. membership is restored from the corpse state and both layers
    ///    are rewired (the omniscient equivalent of the Fig. 5 join walk
    ///    the real node would run);
    /// 2. a stationary node's persisted shard is reinstalled locally — no
    ///    `Replicate` traffic — skipping subjects that died or whose
    ///    records expired during the downtime;
    /// 3. every holder's registrations are reconciled with its rewired
    ///    rows (§2.3.1) and explicit interests, the node's persisted (all
    ///    explicit) registrations among them, one register message per
    ///    *new* edge;
    ///    unexpired persisted leases resume where they left off;
    /// 4. every LDT the node re-entered is re-disseminated, and a mobile
    ///    node republishes the location its funeral withdrew and pushes
    ///    it through its own LDT;
    /// 5. the node's store drops whatever it still holds that steps 2–4
    ///    did not put back into the tables.
    pub(crate) fn resurrect(
        &mut self,
        key: Key,
        mut info: NodeInfo,
        incarnation_floor: u64,
        persisted: &DurableState,
    ) -> Result<RestartReport> {
        info.incarnation = incarnation_floor.max(info.incarnation + 1);
        let mut report = RestartReport {
            key,
            incarnation: info.incarnation,
            restored: true,
            was_mobile: info.mobility == Mobility::Mobile,
            ..Default::default()
        };
        self.readmit(key, info)?;
        self.rewire();

        let now = self.clock.now();
        if !report.was_mobile {
            for (&raw_subject, stored) in &persisted.records {
                let subject = Key(raw_subject);
                let record = location_from_stored(subject, stored);
                let usable = self.is_mobile(subject)
                    && !self.is_confirmed_dead(subject)
                    && !record.is_expired(now);
                if usable && self.install_record(key, record)? {
                    report.records_recovered += 1;
                } else {
                    report.records_skipped += 1;
                }
            }
        }

        // The rewire may have changed any holder's rows. Every registration
        // on disk is explicit, so the node keeps them all.
        let (kept, stale): (Vec<Key>, _) =
            persisted.registrations.keys().map(|&t| Key(t)).partition(|&t| self.is_mobile(t));
        report.registrations_stale = stale.len();
        self.interests.extend(kept.into_iter().map(|t| (key, t)));
        let holders: Vec<Key> = self.mobile.keys().collect();
        report.registrations_restored = self.reregister(&holders);

        for (&raw_subject, &expires) in &persisted.leases {
            let subject = Key(raw_subject);
            if self.contains_node(subject) && SimTime(expires) > now {
                self.lease_unmirrored(key, subject, expires - now.0);
                report.leases_restored += 1;
            }
        }

        for target in self.registry.targets_of(key) {
            if self.contains_node(target) {
                self.advertise_update(target)?;
                self.meter.bump(MessageKind::LdtRepair, 1);
                report.ldts_rejoined.push(target);
            }
        }
        if report.was_mobile {
            report.publish_hops = self.publish_location(key)?;
            self.advertise_update(key)?;
        }
        self.reconcile_store(key);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::durable::Disk;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;
    use bristle_store::WalBackend;

    fn system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bristle-restart-test-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The stationary node holding the most location records (ties break
    /// toward the smaller key for determinism).
    fn busiest_primary(sys: &BristleSystem) -> Key {
        let mut best = (0usize, Key(u64::MAX));
        for &s in sys.stationary_keys() {
            let n = sys.stationary.node(s).unwrap().store.len();
            if n > best.0 || (n == best.0 && s < best.1) {
                best = (n, s);
            }
        }
        best.1
    }

    #[test]
    fn restart_without_a_funeral_is_a_no_op() {
        let mut sys = system(30, 8, 21);
        let node = sys.stationary_keys()[0];
        let report = sys.restart_node_from_store(node).unwrap();
        assert!(!report.restored);
        assert_eq!(report.records_recovered, 0);
    }

    #[test]
    fn wal_restart_recovers_the_shard_without_messages() {
        let dir = scratch("shard-recovery");
        let mut sys = system(40, 12, 22);
        let victim = busiest_primary(&sys);
        sys.attach_wal(victim, WalBackend::open(&dir, 8).unwrap());
        // Accumulate some churn so the WAL sees live traffic too.
        for i in 0..4 {
            let m = sys.mobile_keys()[i];
            sys.move_node(m, None).unwrap();
        }
        let shard_before: Vec<Key> =
            sys.stationary.node(victim).unwrap().store.keys().copied().collect();
        assert!(!shard_before.is_empty(), "victim must hold records for the test to bite");

        sys.confirm_dead(victim).unwrap();
        assert!(sys.stationary.node(victim).is_err(), "shard gone with the corpse");

        let replicate_before = sys.meter.count(MessageKind::Replicate);
        let report = sys.restart_node_from_store(victim).unwrap();
        assert!(report.restored);
        assert!(report.replay.is_some(), "a WAL-backed node replays its log");
        assert_eq!(report.records_recovered, shard_before.len());
        assert_eq!(
            sys.meter.count(MessageKind::Replicate),
            replicate_before,
            "shard recovery is local: no Replicate traffic"
        );
        for subject in shard_before {
            assert!(
                sys.stationary.node(victim).unwrap().store.contains_key(&subject),
                "record for {subject} must be back"
            );
        }
        assert_eq!(sys.node_info(victim).unwrap().incarnation, report.incarnation);
        assert!(report.incarnation > 0, "restart out-ranks the funeral");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log that no longer opens costs the node its durability, not its
    /// shard: the restart falls back to the fold its grave kept, and the
    /// node comes back without a store.
    #[test]
    fn a_wal_that_fails_to_reopen_restarts_from_the_corpses_fold() {
        let dir = scratch("unreadable-log");
        let mut sys = system(40, 12, 22);
        let victim = busiest_primary(&sys);
        sys.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
        let shard = sys.stationary.node(victim).unwrap().store.len();
        assert!(shard > 0, "victim must hold records for the test to bite");
        sys.confirm_dead(victim).unwrap();
        std::fs::write(dir.join("wal.log"), b"NOTMAGIC").unwrap();

        let report = sys.restart_node_from_store(victim).unwrap();
        assert!(report.restored);
        assert!(report.replay.is_none(), "the log did not reopen");
        assert_eq!(report.records_recovered, shard);
        assert!(sys.stores.state(victim).is_none(), "no store without a log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_skips_records_of_nodes_that_died_meanwhile() {
        let dir = scratch("skip-dead-subjects");
        let mut sys = system(40, 12, 23);
        let victim = busiest_primary(&sys);
        sys.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
        let subject =
            *sys.stationary.node(victim).unwrap().store.keys().next().expect("has a record");
        sys.confirm_dead(victim).unwrap();
        // The subject dies while the primary is down.
        sys.confirm_dead(subject).unwrap();
        let report = sys.restart_node_from_store(victim).unwrap();
        assert!(report.restored);
        assert!(report.records_skipped >= 1, "dead subject's record must not resurrect");
        assert!(!sys.stationary.node(victim).unwrap().store.contains_key(&subject));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_without_a_wal_also_recovers() {
        // Without a WAL the verdict folds the node's rows into its grave
        // (nothing really crashed); the restart path works the same,
        // minus the replay report, and the node keeps no store.
        let mut sys = system(40, 10, 24);
        let victim = busiest_primary(&sys);
        let shard = sys.stationary.node(victim).unwrap().store.len();
        assert!(shard > 0);
        sys.confirm_dead(victim).unwrap();
        let report = sys.restart_node_from_store(victim).unwrap();
        assert!(report.restored);
        assert!(report.replay.is_none(), "a fold has nothing to replay");
        assert_eq!(report.records_recovered, shard);
        assert!(sys.stores.state(victim).is_none());
    }

    /// A crash keeps exactly the rows the tables held for the node at
    /// that instant, and a restart reinstalls all of them.
    #[test]
    fn a_crash_keeps_the_rows_its_tables_held() {
        let mut sys = system(40, 12, 28);
        for i in 0..4 {
            let m = sys.mobile_keys()[i];
            sys.move_node(m, None).unwrap();
        }
        let moved = sys.mobile_keys()[3];
        let member = sys.registry.registrants_of(moved).map(|r| r.key).find(|&k| sys.is_mobile(k));
        for victim in [busiest_primary(&sys), member.expect("a mobile LDT member")] {
            let friend = *sys.mobile_keys().iter().find(|&&k| k != victim).unwrap();
            sys.register_interest(victim, friend).unwrap();
            let rows = sys.durable_rows(victim);
            assert!(!rows.leases.is_empty(), "the victim must hold leases for the test to bite");
            assert!(rows.registrations.contains_key(&friend.0), "and its explicit registration");
            assert!(sys.is_mobile(victim) || !rows.records.is_empty(), "and a primary records");
            sys.confirm_dead(victim).unwrap();
            let kept = sys.corpses[&victim].body.as_ref().map(|(_, disk)| disk);
            assert!(matches!(kept, Some(Disk::Fold(f)) if *f == rows), "the grave keeps its rows");

            let report = sys.restart_node_from_store(victim).unwrap();
            assert!(report.restored);
            assert_eq!((report.records_recovered, report.records_skipped), (rows.records.len(), 0));
            assert_eq!(report.registrations_stale, 0);
            assert!(report.registrations_restored >= rows.registrations.len());
            for &target in rows.registrations.keys() {
                let regs = sys.registry.registrants_of(Key(target));
                assert!(regs.clone().any(|r| r.key == victim), "edge to {target} restored");
            }
            assert_eq!(report.leases_restored, rows.leases.len());
        }
    }

    /// A WAL restart whose rewire changed the node's rows: afterwards each
    /// edge the node holds targets a mobile node its rows name, or is the
    /// explicit registration it made before the crash, which survives.
    #[test]
    fn a_restart_brings_back_no_rowless_registration() {
        for seed in [8, 27] {
            let dir = scratch(&format!("rowless-{seed}"));
            let mut sys = system(30, 12, seed);
            let victim = sys.mobile_keys()[0];
            let rows = |sys: &BristleSystem| sys.mobile.node(victim).unwrap().keys().to_vec();
            let held = rows(&sys);
            let stranger = |k: &&Key| **k != victim && !held.contains(k);
            let friend = *sys.mobile_keys().iter().find(stranger).expect("a mobile stranger");
            sys.register_interest(victim, friend).unwrap();
            sys.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
            sys.confirm_dead(victim).unwrap();
            for _ in 0..6 {
                sys.join_node(Mobility::Mobile).unwrap();
            }
            let report = sys.restart_node_from_store(victim).unwrap();
            assert!(report.replay.is_some(), "seed {seed}: a WAL-backed node replays its log");
            let now = rows(&sys);
            let lost = held.iter().filter(|&&t| sys.is_mobile(t) && !now.contains(&t)).count();
            assert!(lost > 0, "seed {seed}: the rewire must drop a row to a mobile node");
            for target in sys.registry.targets_of(victim) {
                let named = now.contains(&target) && sys.is_mobile(target);
                assert!(named || target == friend, "seed {seed}: a rowless edge to {target}");
            }
            assert!(sys.registry.registrants_of(friend).any(|r| r.key == victim), "seed {seed}");
            sys.assert_stores_mirror_tables(&format!("the restart (seed {seed})"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_rejoin_is_a_restart_with_an_empty_store() {
        // What `republish_restart` relies on: with nothing persisted, the
        // two resurrections leave the same system but for the report type.
        for pick in [|s: &BristleSystem| busiest_primary(s), |s: &BristleSystem| s.mobile_keys()[3]]
        {
            let run = |restart: bool| {
                let mut sys = system(40, 12, 27);
                let victim = pick(&sys);
                sys.move_node(sys.mobile_keys()[0], None).unwrap();
                sys.confirm_dead(victim).unwrap();
                sys.discard_disk(victim);
                let incarnation = if restart {
                    sys.restart_node_from_store(victim).unwrap().incarnation
                } else {
                    sys.rejoin_node(victim, 1).unwrap().incarnation
                };
                sys.assert_stores_mirror_tables("the resurrection");
                let registry: Vec<(Key, Vec<crate::registry::Registrant>)> =
                    sys.registry.iter().map(|(t, regs)| (t, regs.collect())).collect();
                let mut leases: Vec<_> =
                    sys.leases.iter().map(|(pair, l)| (pair, l.expires)).collect();
                leases.sort_unstable();
                let shards: Vec<_> =
                    sys.stationary.iter().map(|n| (n.key, n.store.clone())).collect();
                let tallies: Vec<(u64, u64)> = bristle_overlay::meter::ALL_KINDS
                    .iter()
                    .map(|&k| (sys.meter.count(k), sys.meter.cost(k)))
                    .collect();
                (incarnation, registry, leases, shards, tallies)
            };
            assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn restart_is_deterministic() {
        let run = |seed: u64| {
            let mut sys = system(30, 10, seed);
            let victim = busiest_primary(&sys);
            sys.confirm_dead(victim).unwrap();
            let report = sys.restart_node_from_store(victim).unwrap();
            let tallies: Vec<(MessageKind, u64, u64)> = bristle_overlay::meter::ALL_KINDS
                .iter()
                .map(|&k| (k, sys.meter.count(k), sys.meter.cost(k)))
                .collect();
            (report.records_recovered, report.registrations_restored, tallies)
        };
        assert_eq!(run(25), run(25), "same seed, same recovery, same bill");
    }

    #[test]
    fn restarted_replica_beats_republication_on_anti_entropy_traffic() {
        // The acceptance metric in miniature: recover the same primary
        // once via plain rejoin (empty shard, anti-entropy refills it)
        // and once via WAL restart (shard intact), same seed, and
        // compare the Replicate bill.
        let run = |use_wal: bool| {
            let dir = scratch(if use_wal { "ae-wal" } else { "ae-rejoin" });
            let mut sys = system(40, 12, 26);
            let victim = busiest_primary(&sys);
            if use_wal {
                sys.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
            }
            let shard = sys.stationary.node(victim).unwrap().store.len();
            assert!(shard > 0);
            sys.confirm_dead(victim).unwrap();
            let before = sys.meter.count(MessageKind::Replicate);
            if use_wal {
                sys.restart_node_from_store(victim).unwrap();
            } else {
                sys.rejoin_node(victim, 1).unwrap();
            }
            sys.anti_entropy_locations().unwrap();
            let bill = sys.meter.count(MessageKind::Replicate) - before;
            let _ = std::fs::remove_dir_all(&dir);
            bill
        };
        let republish = run(false);
        let restart = run(true);
        assert!(
            restart < republish,
            "log-replay rejoin ({restart} Replicates) must beat republication ({republish})"
        );
    }
}
