//! Per-node durable-state stores (the `bristle-store` integration).
//!
//! A node's repository — identity/incarnation, the location records of
//! its shard of the stationary layer, registrations, leases — lives in
//! the live tables. A node holds a store only while it is alive and has
//! a WAL: [`BristleSystem::attach_wal`] gives it a [`WalBackend`] seeded
//! with its rows, and from then on every repository mutation of that
//! node is mirrored as a [`WalRecord`] into it, by [`crate::repo`] and
//! nothing else. A node without a WAL holds no second copy. A store
//! keeps only what a restart cannot re-derive: an edge the node's rows
//! imply comes back with the rows, so only explicit registrations are
//! logged.
//!
//! What a death leaves is kept in one place, the node's grave
//! ([`crate::heal`]). A verdict moves the node's disk there: its WAL,
//! or the rows its tables held at that instant. [`crate::restart`] reads
//! it back, and a grave pruned at retention drops it. A crash nobody
//! confirmed leaves nothing a restart could read, so it keeps nothing.
//!
//! Store mutations never touch the meter, the RNG, or the clock:
//! attaching, detaching or swapping backends cannot perturb a seeded
//! run (the flight-recorder golden trace pins this).

use std::collections::HashMap;

use bristle_netsim::attach::{Attachment, HostId};
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
pub use bristle_store::WalRecord;
use bristle_store::{DurableState, ReplayReport, StateStore, StoredRecord, WalBackend};

use crate::location::LocationRecord;
use crate::system::BristleSystem;
use crate::time::SimTime;

/// The WALs of live nodes, keyed by node (module docs).
#[derive(Default)]
pub struct StoreHub {
    backends: HashMap<Key, WalBackend>,
}

impl std::fmt::Debug for StoreHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHub").field("wal", &self.backends.len()).finish()
    }
}

impl StoreHub {
    /// An empty hub.
    pub fn new() -> StoreHub {
        StoreHub::default()
    }

    /// Applies one mutation to `node`'s store, if it has one.
    pub fn apply(&mut self, node: Key, rec: WalRecord) {
        if let Some(backend) = self.backends.get_mut(&node) {
            backend.apply(&rec);
        }
    }

    /// The folded durable state of `node`, if it has a store.
    pub fn state(&self, node: Key) -> Option<&DurableState> {
        self.backends.get(&node).map(|b| b.state())
    }

    /// Attaches a WAL backend for `node`, rebasing whatever its current
    /// store holds into the log. A rejoin hands a grave's WAL back
    /// through it.
    ///
    /// A node without a WAL has no store here, so its log starts empty,
    /// and a restart off it brings the node back without the rows it
    /// held before the attach. Attach through
    /// [`BristleSystem::attach_wal`], which seeds the log with them; this
    /// one stays public only for the wall-clock benchmark's `handoff`
    /// workload, until that workload moves to the system call.
    #[doc(hidden)]
    pub fn attach_wal(&mut self, node: Key, mut backend: WalBackend) {
        // owed: ROADMAP 8(a)
        if let Some(existing) = self.backends.get(&node) {
            for rec in existing.state().to_records() {
                backend.apply(&rec);
            }
        }
        self.backends.insert(node, backend);
    }

    /// Forgets `node`'s store entirely (the node left, or crashed with
    /// no verdict to keep its disk: its state must not resurrect).
    pub fn forget(&mut self, node: Key) {
        self.backends.remove(&node);
    }
}

/// What a death verdict keeps of a node's store, in its grave.
pub(crate) enum Disk {
    /// The node's WAL, as it stood at the verdict.
    Wal(WalBackend),
    /// The rows the tables held for a node without a WAL at the verdict
    /// ([`BristleSystem::durable_rows`]).
    Fold(DurableState),
}

/// The [`WalRecord`] mirroring a [`LocationRecord`] stored for
/// `record.subject`.
pub fn record_put(record: &LocationRecord) -> WalRecord {
    WalRecord::RecordPut {
        subject: record.subject.0,
        host: record.addr.host.0,
        router: record.addr.attachment.router.0,
        epoch: u64::from(record.addr.attachment.epoch),
        incarnation: record.incarnation,
        seq: record.seq,
        published_at: record.published_at.0,
        ttl: record.ttl,
    }
}

/// Reconstructs the [`LocationRecord`] a [`StoredRecord`] persisted. The
/// stored epoch is 64 bits wide; one no host can have replays as
/// [`Attachment::NEVER_CURRENT`], a record `is_valid` rejects.
pub fn location_from_stored(subject: Key, sr: &StoredRecord) -> LocationRecord {
    LocationRecord {
        subject,
        addr: NetAddr {
            host: HostId(sr.host),
            attachment: Attachment::from_wide(RouterId(sr.router), sr.epoch),
        },
        incarnation: sr.incarnation,
        seq: sr.seq,
        published_at: SimTime(sr.published_at),
        ttl: sr.ttl,
    }
}

impl BristleSystem {
    /// What the tables hold of `key`'s repository, as its store would
    /// fold it: identity `(key, incarnation)` while the node is present,
    /// its shard, its standing explicit registrations (each interest of
    /// its that R(·) holds), and the lease-table rows it holds.
    pub(crate) fn durable_rows(&self, key: Key) -> DurableState {
        let mut rows = DurableState::new();
        if let Ok(info) = self.node_info(key) {
            rows.apply(&WalRecord::Identity { key: key.0, incarnation: info.incarnation });
        }
        if let Ok(shard) = self.stationary.node(key) {
            for rec in shard.store.values() {
                rows.apply(&record_put(rec));
            }
        }
        for &(_, target) in self.interests.range((key, Key(0))..=(key, Key(u64::MAX))) {
            if let Some(r) = self.registry.registrants_of(target).find(|r| r.key == key) {
                rows.apply(&WalRecord::Register { target: target.0, capacity: r.capacity });
            }
        }
        for ((holder, subject), lease) in self.leases.iter() {
            if holder == key {
                rows.apply(&WalRecord::LeaseGrant { subject: subject.0, expires: lease.expires.0 });
            }
        }
        rows
    }

    /// Takes `key`'s store out of the hub at its death verdict, before
    /// any funeral cleanup: its WAL, or, for a node without one, the
    /// rows its tables hold at this instant. The hub never holds a dead
    /// node's store, so cleanup performed about it by survivors is not
    /// written into its disk.
    pub(crate) fn bury_store(&mut self, key: Key) -> Disk {
        match self.stores.backends.remove(&key) {
            Some(wal) => Disk::Wal(wal),
            None => Disk::Fold(self.durable_rows(key)),
        }
    }

    /// Brings `key`'s process back up off the disk its grave kept, and
    /// returns what that disk says, with the replay report when there
    /// was a log to replay. A WAL is re-opened from its directory (a
    /// genuine replay: snapshot, then log, torn tail tolerated) and goes
    /// back to the hub. A fold, or a WAL that will not re-open, brings
    /// the node back with the rows it held at its verdict and no store,
    /// so a disk fault costs durability, not the shard.
    pub(crate) fn reopen_disk(
        &mut self,
        key: Key,
        disk: Disk,
    ) -> (DurableState, Option<ReplayReport>) {
        let wal = match disk {
            Disk::Wal(wal) => wal,
            Disk::Fold(rows) => return (rows, None),
        };
        let (dir, snapshot_every) = (wal.dir().to_path_buf(), wal.snapshot_every());
        let fold = wal.state().clone();
        // Closes the append handle and releases the directory's lock.
        drop(wal);
        match WalBackend::open(dir, snapshot_every) {
            Ok(wal) => {
                let replayed = (wal.state().clone(), Some(wal.replay_report().clone()));
                self.stores.backends.insert(key, wal);
                replayed
            }
            Err(_) => (fold, None),
        }
    }

    /// Empties the disk `key`'s grave holds, so the node comes back with
    /// nothing on it (the blank-disk baseline of a restart). A no-op for
    /// a node that is not buried.
    pub fn discard_disk(&mut self, key: Key) {
        if let Some((_, disk)) = self.corpses.get_mut(&key).and_then(|c| c.body.as_mut()) {
            *disk = Disk::Fold(DurableState::new());
        }
    }

    /// Attaches a WAL backend for `key`, seeded with its store if it has
    /// one and otherwise with the rows the tables hold for it (its
    /// identity, shard, registrations and leases), so a later
    /// crash-restart replays everything the node held, not only what
    /// changed after the attach.
    pub fn attach_wal(&mut self, key: Key, mut backend: WalBackend) {
        if self.stores.state(key).is_none() && self.contains_node(key) {
            for rec in self.durable_rows(key).to_records() {
                backend.apply(&rec);
            }
        }
        self.stores.attach_wal(key, backend);
    }

    /// Panics unless every store the hub holds belongs to a present node
    /// and holds exactly [`Self::durable_rows`].
    #[doc(hidden)]
    pub fn assert_stores_mirror_tables(&self, step: &str) {
        for (&key, store) in &self.stores.backends {
            assert!(self.contains_node(key), "after {step}: the hub holds absent {key}'s store");
            assert_eq!(
                *store.state(),
                self.durable_rows(key),
                "after {step}: store of {key} (left) differs from the tables (right)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::attach::AttachmentMap;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bristle-core-test-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        use crate::config::BristleConfig;
        use crate::system::BristleBuilder;
        use bristle_netsim::transit_stub::TransitStubConfig;

        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    #[test]
    fn a_hub_holds_nothing_for_a_node_it_was_never_given() {
        let dir = scratch("hub-attach");
        let mut hub = StoreHub::new();
        let k = Key(3);
        hub.apply(k, WalRecord::Register { target: 11, capacity: 2 });
        assert!(hub.state(k).is_none(), "a mutation alone creates no store");
        hub.attach_wal(k, WalBackend::open(&dir, 0).unwrap());
        hub.apply(k, WalRecord::Register { target: 12, capacity: 1 });
        hub.forget(k);
        assert!(hub.state(k).is_none());
        let log = WalBackend::open(&dir, 0).expect("forgetting a store closes its log");
        assert_eq!(log.replay_report().log_records, 1, "only what was applied after the attach");
        assert_eq!(log.state().registrations.keys().copied().collect::<Vec<_>>(), [12]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The system-level attach seeds the log with the node's rows; the
    /// hub-level one, on a node without a WAL, starts it empty.
    #[test]
    fn attach_wal_seeds_the_log_with_the_nodes_rows() {
        let dir = scratch("seeded-attach");
        let mut sys = system(30, 10, 31);
        let m = sys.mobile_keys()[0];
        sys.move_node(m, None).unwrap();
        let seeded = sys.stationary.owner(m).unwrap();
        let bare = sys.registry.registrants_of(m).map(|r| r.key).find(|&k| k != seeded);
        let bare = bare.expect("an LDT member besides the primary");
        let rows = sys.durable_rows(seeded);
        assert!(!rows.records.is_empty() && !rows.leases.is_empty(), "the seed must bite");
        assert!(!sys.durable_rows(bare).is_empty());

        sys.attach_wal(seeded, WalBackend::open(dir.join("seeded"), 0).unwrap());
        sys.stores.attach_wal(bare, WalBackend::open(dir.join("bare"), 0).unwrap());
        sys.stores.forget(seeded);
        sys.stores.forget(bare);
        let log = WalBackend::open(dir.join("seeded"), 0).expect("reopen succeeds");
        assert_eq!(log.replay_report().log_records, rows.to_records().len());
        assert_eq!(log.state(), &rows);
        let log = WalBackend::open(dir.join("bare"), 0).expect("reopen succeeds");
        assert_eq!(log.replay_report().log_records, 0);
        assert!(log.state().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dead node's store is kept in one place, its grave, and in none
    /// once the grave is pruned; a crash no verdict follows keeps
    /// nothing. After every step, each store the hub holds belongs to a
    /// present node and mirrors its tables.
    #[test]
    fn a_store_outlives_its_node_only_in_the_graveyard() {
        use crate::naming::Mobility;
        use crate::system::GRAVEYARD_RETENTION;

        for seed in [8, 27] {
            let dir = scratch(&format!("graveyard-{seed}"));
            let mut sys = system(40, 16, seed);
            let check = |sys: &BristleSystem, step: &str| {
                sys.assert_stores_mirror_tables(&format!("{step} (seed {seed})"))
            };
            let walled: Vec<Key> = sys.stationary_keys().iter().copied().step_by(4).collect();
            for &key in &walled {
                sys.attach_wal(key, WalBackend::open(dir.join(key.to_string()), 8).unwrap());
            }
            check(&sys, "attach_wal");

            // Churn in `dynamics`' shape: moves, joins, and stationary
            // crashes no verdict follows, one of them WAL-backed.
            sys.fail_node(walled[0]).unwrap();
            let mut failed = vec![walled[0]];
            for round in 0..6 {
                sys.move_node(sys.mobile_keys()[round], None).unwrap();
                let mobility = [Mobility::Mobile, Mobility::Stationary][round % 2];
                sys.join_node(mobility).unwrap();
                let stationaries = sys.stationary_keys().to_vec();
                let crashed = stationaries[sys.rng().index(stationaries.len())];
                sys.fail_node(crashed).unwrap();
                failed.push(crashed);
                sys.run_upkeep().unwrap();
                check(&sys, "churn");
            }
            for key in failed {
                assert!(sys.stores.state(key).is_none(), "seed {seed}: {key} crashed unconfirmed");
            }

            // A verdict moves the WAL into the grave, which keeps it open
            // until retention prunes it.
            let buried = *walled.iter().find(|&&k| sys.contains_node(k)).expect("a live WAL");
            sys.confirm_dead(buried).unwrap();
            check(&sys, "confirm_dead (WAL-backed)");
            assert!(sys.stores.state(buried).is_none(), "seed {seed}: the hub kept a dead store");
            assert!(
                WalBackend::open(dir.join(buried.to_string()), 8).is_err(),
                "held in the grave"
            );
            sys.tick(GRAVEYARD_RETENTION);
            sys.run_upkeep().unwrap();
            check(&sys, "the graveyard's retention");
            assert!(!sys.restart_node_from_store(buried).unwrap().restored);
            WalBackend::open(dir.join(buried.to_string()), 8).expect("pruning closed the log");

            // A node without a WAL, crashed and restarted twice, comes
            // back each time with the rows its tables held at that crash.
            let victim = sys
                .stationary_keys()
                .iter()
                .copied()
                .filter(|k| !walled.contains(k))
                .max_by_key(|&k| (sys.stationary.node(k).unwrap().store.len(), Key(!k.0)))
                .expect("a stationary node without a WAL");
            let mut before = DurableState::new();
            for crash in ["first", "second"] {
                sys.tick(10);
                let shard = &sys.stationary.node(victim).unwrap().store;
                let held: Vec<Key> = shard.keys().copied().filter(|&s| sys.is_mobile(s)).collect();
                for &subject in held.iter().take(3) {
                    sys.move_node(subject, None).unwrap();
                }
                let rows = sys.durable_rows(victim);
                assert!(!rows.records.is_empty() && !rows.leases.is_empty(), "seed {seed}: bite");
                assert_ne!(rows, before, "seed {seed}: the {crash} crash must see new rows");
                sys.confirm_dead(victim).unwrap();
                check(&sys, "confirm_dead (no WAL)");
                let report = sys.restart_node_from_store(victim).unwrap();
                check(&sys, "restart_node_from_store (no WAL)");
                assert!(report.restored && report.replay.is_none());
                assert!(sys.stores.state(victim).is_none(), "seed {seed}: back without a store");
                assert_eq!(
                    (report.records_recovered, report.records_skipped),
                    (rows.records.len(), 0)
                );
                assert_eq!(report.leases_restored, rows.leases.len());
                // Re-dissemination may renew a restored lease, never drop it.
                let now = sys.durable_rows(victim);
                let kept = rows.records.iter().all(|(s, r)| now.records.get(s) == Some(r))
                    && rows.leases.iter().all(|(s, e)| now.leases.get(s) >= Some(e))
                    && rows.registrations.keys().all(|t| now.registrations.contains_key(t));
                assert!(kept, "seed {seed}: the {crash} restart lost rows");
                before = rows;
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The records `dir`'s log holds, in append order (a log that never
    /// snapshots).
    fn logged(dir: &std::path::Path) -> Vec<WalRecord> {
        let bytes = std::fs::read(dir.join("wal.log")).expect("a log");
        let mut frames = &bytes[bristle_store::wal::LOG_MAGIC.len()..];
        let mut out = Vec::new();
        while let [a, b, c, d, _, _, _, _, rest @ ..] = frames {
            let len = u32::from_le_bytes([*a, *b, *c, *d]) as usize;
            out.push(WalRecord::decode(&rest[..len]).expect("a record"));
            frames = &rest[len..];
        }
        out
    }

    /// A join and a funeral's repair rewrite WAL-backed holders' rows; the
    /// registration pass that follows logs no `Register` or `Deregister`
    /// to any of them, and every store still mirrors its tables.
    #[test]
    fn a_registration_pass_logs_nothing() {
        use crate::naming::Mobility;

        for seed in [8, 27] {
            let dir = scratch(&format!("pass-{seed}"));
            let mut sys = system(30, 12, seed);
            let keys: Vec<Key> = sys.mobile.keys().collect();
            let friend = *sys.mobile_keys().last().expect("a mobile node");
            sys.register_interest(keys[0], friend).unwrap();
            for &k in &keys {
                sys.attach_wal(k, WalBackend::open(dir.join(k.to_string()), 0).unwrap());
            }
            let rows = |sys: &BristleSystem, k: Key| sys.mobile.node(k).map(|n| n.keys().to_vec());
            let dead = sys.mobile_keys()[0];
            for step in ["join", "funeral"] {
                let before: Vec<_> = keys
                    .iter()
                    .map(|&k| (rows(&sys, k), logged(&dir.join(k.to_string())).len()))
                    .collect();
                if step == "join" {
                    sys.join_node(Mobility::Mobile).unwrap();
                } else {
                    sys.confirm_dead(dead).unwrap();
                }
                sys.assert_stores_mirror_tables(&format!("{step} (seed {seed})"));
                let mut rewritten = 0;
                for (&k, (held, logs)) in keys.iter().zip(before) {
                    if k == dead || rows(&sys, k) == held {
                        continue;
                    }
                    rewritten += 1;
                    let new = logged(&dir.join(k.to_string())).split_off(logs);
                    let edge = |r: &WalRecord| {
                        matches!(r, WalRecord::Register { .. } | WalRecord::Deregister { .. })
                    };
                    assert!(!new.iter().any(edge), "seed {seed}: the {step} logged {new:?} to {k}");
                }
                assert!(rewritten > 0, "seed {seed}: the {step} must rewrite some rows");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An explicit registration at a capacity its holder does not report
    /// (a forged `Register` may carry any): the pass re-registers it at
    /// the holder's own, and the holder's store follows.
    #[test]
    fn a_store_follows_the_capacity_the_pass_gives_an_explicit_edge() {
        let dir = scratch("capacity");
        let mut sys = system(30, 12, 8);
        let (who, target) = (sys.mobile_keys()[0], sys.mobile_keys()[1]);
        sys.attach_wal(who, WalBackend::open(&dir, 0).unwrap());
        let own = sys.node_info(who).unwrap().capacity;
        sys.add_registrant(who, own + 1, target);
        sys.sync_registrations();
        sys.assert_stores_mirror_tables("the sync");
        assert_eq!(sys.stores.state(who).unwrap().registrations[&target.0], own);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_conversion_round_trips() {
        let rec = LocationRecord {
            subject: Key(9),
            addr: NetAddr {
                host: HostId(4),
                attachment: Attachment { router: RouterId(2), epoch: 5 },
            },
            incarnation: 1,
            seq: 6,
            published_at: SimTime(100),
            ttl: 600,
        };
        let wal = record_put(&rec);
        let WalRecord::RecordPut { subject, .. } = wal else { panic!("wrong variant") };
        assert_eq!(subject, 9);
        let mut st = DurableState::new();
        st.apply(&wal);
        let back = location_from_stored(Key(9), st.records.get(&9).unwrap());
        assert_eq!(back, rec);
    }

    /// A stored epoch is 64 bits wide and a row's 32: one that does not
    /// fit replays to a record no map holds current, not to the record
    /// whose epoch shares its low half.
    #[test]
    fn a_stored_epoch_beyond_u32_replays_to_a_stale_record() {
        let mut map = AttachmentMap::new();
        let host = map.attach_new(RouterId(2));
        map.move_host(host, RouterId(2));
        let current = map.current(host);
        let stored = |epoch: u64| StoredRecord {
            host: host.0,
            router: current.router.0,
            epoch,
            incarnation: 1,
            seq: 6,
            published_at: 100,
            ttl: 600,
        };
        let honest = location_from_stored(Key(9), &stored(u64::from(current.epoch)));
        assert!(honest.addr.is_valid(&map));
        for wide in [(1u64 << 32) + u64::from(current.epoch), u64::from(u32::MAX), u64::MAX] {
            let replayed = location_from_stored(Key(9), &stored(wide));
            assert_eq!(replayed.addr.attachment.epoch, Attachment::NEVER_CURRENT);
            assert!(!replayed.addr.is_valid(&map), "stored epoch {wide}");
        }
    }
}
