//! Crash-restart from durable state (the `bristle-store` payoff).
//!
//! [`crate::rejoin`] resurrects a wrongfully buried node *empty*: a
//! stationary node returns with a blank shard and waits for
//! [`BristleSystem::anti_entropy_locations`] to refill it from the
//! surviving replicas, one `Replicate` message per record. A node whose
//! durable store survived the crash can do better:
//! [`BristleSystem::restart_node_from_store`] replays the node's
//! snapshot + write-ahead log and reinstalls its shard, registrations
//! and leases *locally* — zero messages — so the subsequent
//! anti-entropy pass finds (almost) nothing to ship. The durability
//! experiment in `bristle-sim` meters exactly this difference.

use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_store::ReplayReport;

use crate::durable::{location_from_stored, WalRecord};
use crate::error::Result;
use crate::naming::Mobility;
use crate::registry::Registrant;
use crate::system::BristleSystem;
use crate::time::SimTime;

/// What [`BristleSystem::restart_node_from_store`] recovered.
#[derive(Debug, Clone)]
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
    /// Registration edges re-established from the durable store.
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
    /// What the WAL replay processed, when the node had a WAL backend
    /// (`None` for in-memory stores — they survive a simulated crash
    /// only because the simulator never really killed the process).
    pub replay: Option<ReplayReport>,
}

impl BristleSystem {
    /// Restarts a buried node from its durable store — the
    /// crash-restart alternative to [`BristleSystem::rejoin_node`].
    ///
    /// The node's store is re-opened from disk when it has a WAL
    /// backend (a genuine replay: snapshot, then log, torn tail
    /// tolerated), then its folded state is reinstalled:
    ///
    /// 1. membership and wiring are restored exactly as a rejoin would,
    ///    at an incarnation out-ranking both the funeral and the
    ///    persisted one;
    /// 2. a stationary node's shard of location records is reinstalled
    ///    locally — no `Replicate` traffic — skipping subjects that
    ///    died or whose records expired during the downtime;
    /// 3. registration edges are re-established from the persisted set
    ///    (one register message each, like a rejoin) and unexpired
    ///    leases resume;
    /// 4. affected LDTs are re-disseminated, and a mobile node
    ///    republishes its location.
    ///
    /// Idempotent: restarting a node that was never buried — or was
    /// already restored — is a no-op with `restored == false`.
    pub fn restart_node_from_store(&mut self, key: Key) -> Result<RestartReport> {
        let mut report = RestartReport {
            key,
            incarnation: 0,
            restored: false,
            was_mobile: false,
            records_recovered: 0,
            records_skipped: 0,
            registrations_restored: 0,
            registrations_stale: 0,
            leases_restored: 0,
            ldts_rejoined: Vec::new(),
            publish_hops: 0,
            replay: None,
        };
        let Some(mut info) = self.take_corpse(key) else {
            return Ok(report);
        };

        // The process comes back up: replay disk if there is any.
        report.replay = self.stores.reopen_wal(key);
        let state = self.stores.state(key).cloned().unwrap_or_default();
        let persisted_incarnation = state.identity.map(|(_, inc)| inc).unwrap_or(0);

        info.incarnation = info.incarnation.max(persisted_incarnation) + 1;
        report.incarnation = info.incarnation;
        report.restored = true;
        report.was_mobile = info.mobility == Mobility::Mobile;
        self.dead.remove(&key);
        self.stores.thaw(key);
        self.readmit(key, info)?;
        self.rewire();

        // (2) Reinstall the recovered shard locally. This is the entire
        // point of the WAL: the records come off disk, not the network.
        let now = self.clock.now();
        if info.mobility == Mobility::Stationary {
            for (&raw_subject, stored) in &state.records {
                let subject = Key(raw_subject);
                let record = location_from_stored(subject, stored);
                let usable = self.node_info(subject).is_ok()
                    && !self.is_confirmed_dead(subject)
                    && self.is_mobile(subject)
                    && !record.is_expired(now);
                if usable {
                    self.stationary.node_mut(key)?.store.insert(subject, record);
                    report.records_recovered += 1;
                } else {
                    self.stores.apply(key, WalRecord::RecordRemove { subject: raw_subject });
                    report.records_skipped += 1;
                }
            }
        }

        // (3) Re-register from the persisted edge set, then from the
        // rebuilt routing entries (idempotent where they overlap).
        for &raw_target in state.registrations.keys() {
            let target = Key(raw_target);
            if self.node_info(target).is_ok() && self.is_mobile(target) {
                if self.registry.register(Registrant::new(key, info.capacity), target) {
                    self.meter.bump(MessageKind::Register, 1);
                    report.registrations_restored += 1;
                }
            } else {
                self.stores.apply(key, WalRecord::Deregister { target: raw_target });
                report.registrations_stale += 1;
            }
        }
        let my_entries: Vec<Key> = self.mobile.node(key)?.entries.iter().map(|e| e.key).collect();
        for subject in my_entries {
            if self.is_mobile(subject)
                && self.registry.register(Registrant::new(key, info.capacity), subject)
            {
                self.stores
                    .apply(key, WalRecord::Register { target: subject.0, capacity: info.capacity });
                self.meter.bump(MessageKind::Register, 1);
                report.registrations_restored += 1;
            }
        }
        if report.was_mobile {
            for holder in self.mobile.holders_of(key) {
                let cap = self.node_info(holder)?.capacity;
                if self.registry.register(Registrant::new(holder, cap), key) {
                    self.stores.apply(holder, WalRecord::Register { target: key.0, capacity: cap });
                    self.meter.bump(MessageKind::Register, 1);
                    report.registrations_restored += 1;
                }
            }
        }

        // Unexpired leases resume where they left off; lapsed ones are
        // durably revoked.
        for (&raw_subject, &expires) in &state.leases {
            let subject = Key(raw_subject);
            let alive = self.node_info(subject).is_ok() && SimTime(expires) > now;
            if alive {
                self.leases.grant(key, subject, now, expires - now.0);
                report.leases_restored += 1;
            } else {
                self.stores.apply(key, WalRecord::LeaseRevoke { subject: raw_subject });
            }
        }

        // (4) Re-disseminate every LDT the node re-entered, exactly as a
        // rejoin would.
        let mut targets: Vec<Key> = self
            .registry
            .iter()
            .filter(|(target, regs)| *target != key && regs.iter().any(|r| r.key == key))
            .map(|(target, _)| target)
            .filter(|&t| self.node_info(t).is_ok())
            .collect();
        targets.sort_unstable();
        for target in targets {
            self.advertise_update(target)?;
            self.meter.bump(MessageKind::LdtRepair, 1);
            report.ldts_rejoined.push(target);
        }

        if report.was_mobile {
            report.publish_hops = self.publish_location(key)?;
            self.advertise_update(key)?;
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
        sys.stores.attach_wal(victim, WalBackend::open(&dir, 8).unwrap());
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

    #[test]
    fn restart_skips_records_of_nodes_that_died_meanwhile() {
        let dir = scratch("skip-dead-subjects");
        let mut sys = system(40, 12, 23);
        let victim = busiest_primary(&sys);
        sys.stores.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
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
    fn mem_backed_restart_also_recovers() {
        // Without a WAL the simulator's in-memory store still has the
        // state (nothing really crashed); the restart path works the
        // same, minus the replay report.
        let mut sys = system(40, 10, 24);
        let victim = busiest_primary(&sys);
        let shard = sys.stationary.node(victim).unwrap().store.len();
        assert!(shard > 0);
        sys.confirm_dead(victim).unwrap();
        let report = sys.restart_node_from_store(victim).unwrap();
        assert!(report.restored);
        assert!(report.replay.is_none(), "mem backends have nothing to replay");
        assert_eq!(report.records_recovered, shard);
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
                sys.stores.attach_wal(victim, WalBackend::open(&dir, 0).unwrap());
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
