//! Per-node durable-state stores (the `bristle-store` integration).
//!
//! A node's repository — identity/incarnation, the location records of
//! its shard of the stationary layer, registrations, leases — lives in
//! the live tables. A node gets a [`StateStore`] only when something
//! needs one: [`BristleSystem::attach_wal`] gives it a [`WalBackend`]
//! seeded with its rows, which [`crate::restart`] exploits to rejoin
//! with its shard intact instead of re-learning it from the overlay;
//! and a crash folds its rows into a [`bristle_store::MemBackend`], so
//! the corpse keeps what it held at the instant of death. From then on
//! every repository mutation of that node is mirrored as a
//! [`WalRecord`] into its store, by [`crate::repo`] and nothing else. A
//! node that never crashed and has no WAL holds no second copy.
//!
//! Store mutations never touch the meter, the RNG, or the clock:
//! attaching, detaching or swapping backends cannot perturb a seeded
//! run (the flight-recorder golden trace pins this).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use bristle_netsim::attach::{Attachment, HostId};
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
pub use bristle_store::WalRecord;
use bristle_store::{DurableState, MemBackend, ReplayReport, StateStore, StoredRecord, WalBackend};

use crate::location::LocationRecord;
use crate::system::BristleSystem;
use crate::time::SimTime;

/// All per-node stores, keyed by node. A node has none until it
/// crashes or is given a WAL (module docs).
#[derive(Default)]
pub struct StoreHub {
    backends: HashMap<Key, Box<dyn StateStore>>,
    /// Nodes whose store is frozen: a crashed (or departed) node's disk
    /// must stop changing at the moment it dies, so funeral cleanup
    /// performed *about* it by survivors is not written into it.
    frozen: HashSet<Key>,
    /// `(directory, snapshot_every)` of WAL-backed nodes, kept so a
    /// crash-restart can reopen the store from disk.
    wal_meta: HashMap<Key, (PathBuf, u64)>,
}

impl std::fmt::Debug for StoreHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHub")
            .field("backends", &self.backends.len())
            .field("frozen", &self.frozen.len())
            .field("wal", &self.wal_meta.len())
            .finish()
    }
}

impl StoreHub {
    /// An empty hub.
    pub fn new() -> StoreHub {
        StoreHub::default()
    }

    /// Applies one mutation to `node`'s store, if it has one. Frozen
    /// stores are skipped — a dead node's store must reflect its state
    /// *as of the crash*.
    pub fn apply(&mut self, node: Key, rec: WalRecord) {
        let Some(backend) = self.backends.get_mut(&node) else { return };
        if !self.frozen.contains(&node) {
            backend.apply(&rec);
        }
    }

    /// The folded durable state of `node`, if it has a store.
    pub fn state(&self, node: Key) -> Option<&DurableState> {
        self.backends.get(&node).map(|b| b.state())
    }

    /// The backend family serving `node` (`"mem"` when it has no store).
    pub fn kind(&self, node: Key) -> &'static str {
        self.backends.get(&node).map(|b| b.kind()).unwrap_or("mem")
    }

    /// Stops mutating `node`'s store (crash semantics). Idempotent.
    pub fn freeze(&mut self, node: Key) {
        self.frozen.insert(node);
    }

    /// Resumes mutating `node`'s store (restart/rejoin). Idempotent.
    pub fn thaw(&mut self, node: Key) {
        self.frozen.remove(&node);
    }

    /// Whether `node`'s store is frozen.
    pub fn is_frozen(&self, node: Key) -> bool {
        self.frozen.contains(&node)
    }

    /// Attaches a WAL backend for `node`, rebasing whatever its current
    /// store holds into the log, and remembers the directory so
    /// [`StoreHub::reopen_wal`] can re-open it from disk.
    ///
    /// A node that never crashed has no store here, so its log starts
    /// empty, and a restart off it brings the node back without the rows
    /// it held before the attach. Attach through
    /// [`BristleSystem::attach_wal`], which seeds the log with them; this
    /// one stays public only for the wall-clock benchmark's `handoff`
    /// workload, until that workload moves to the system call.
    #[doc(hidden)]
    pub fn attach_wal(&mut self, node: Key, mut backend: WalBackend) {
        if let Some(existing) = self.backends.get(&node) {
            for rec in existing.state().to_records() {
                backend.apply(&rec);
            }
        }
        self.wal_meta.insert(node, (backend.dir().to_path_buf(), backend.snapshot_every()));
        self.backends.insert(node, Box::new(backend));
    }

    /// Re-opens `node`'s WAL backend from disk, discarding the in-memory
    /// fold — this is the process-restart path: what the node knows
    /// afterwards is exactly what the snapshot + log say. Returns the
    /// replay report, or `None` when the node has no WAL backend or the
    /// re-open failed. On failure the node keeps the fold it had, in an
    /// in-memory backend, and stops being WAL-backed, so a disk fault
    /// degrades durability, not correctness.
    pub fn reopen_wal(&mut self, node: Key) -> Option<ReplayReport> {
        let (dir, snapshot_every) = self.wal_meta.get(&node).cloned()?;
        // Drop the live backend first so its append handle is closed,
        // keeping its fold for the failure arm.
        let fold = self.backends.remove(&node).map(|b| b.state().to_records());
        match WalBackend::open(&dir, snapshot_every) {
            Ok(backend) => {
                let report = backend.replay_report().clone();
                self.backends.insert(node, Box::new(backend));
                Some(report)
            }
            Err(_) => {
                self.wal_meta.remove(&node);
                self.backends.insert(node, mem_holding(fold.into_iter().flatten()));
                None
            }
        }
    }

    /// Forgets `node`'s store entirely (graceful leave: the node is gone
    /// for good and its state must not resurrect).
    pub fn forget(&mut self, node: Key) {
        self.backends.remove(&node);
        self.frozen.remove(&node);
        self.wal_meta.remove(&node);
    }
}

/// An in-memory store folded from `records`.
fn mem_holding(records: impl IntoIterator<Item = WalRecord>) -> Box<dyn StateStore> {
    let mut mem = MemBackend::new();
    for rec in records {
        mem.apply(&rec);
    }
    Box::new(mem)
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
    /// its shard, the registry edges it is the registrant of, and the
    /// lease-table rows it holds.
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
        for (target, regs) in self.registry.iter() {
            if let Some(r) = regs.iter().find(|r| r.key == key) {
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

    /// Gives a present `key` a store holding [`Self::durable_rows`],
    /// unless it has one. A store mirrors the tables from the moment it
    /// exists, so the fold is exactly what a mirror kept since build
    /// would hold now.
    pub(crate) fn fold_store(&mut self, key: Key) {
        if self.stores.state(key).is_none() && self.contains_node(key) {
            let rows = self.durable_rows(key).to_records();
            self.stores.backends.insert(key, mem_holding(rows));
        }
    }

    /// Crash semantics for `key`'s store: it keeps the rows the tables
    /// hold for the node at this instant, and stops changing. A verdict
    /// naming an absent node creates no store.
    pub(crate) fn freeze_store(&mut self, key: Key) {
        self.fold_store(key);
        self.stores.freeze(key);
    }

    /// Attaches a WAL backend for `key`, seeded with its store if it has
    /// one and otherwise with the rows the tables hold for it (its
    /// identity, shard, registrations and leases), so a later
    /// crash-restart replays everything the node held, not only what
    /// changed after the attach.
    pub fn attach_wal(&mut self, key: Key, backend: WalBackend) {
        self.fold_store(key);
        self.stores.attach_wal(key, backend);
    }

    /// Panics unless every live node that holds an unfrozen store holds
    /// exactly [`Self::durable_rows`].
    #[doc(hidden)]
    pub fn assert_stores_mirror_tables(&self, step: &str) {
        for key in self.mobile.keys().filter(|&k| !self.stores.is_frozen(k)) {
            if let Some(have) = self.stores.state(key) {
                assert_eq!(
                    *have,
                    self.durable_rows(key),
                    "after {step}: store of {key} (left) differs from the tables (right)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::attach::AttachmentMap;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bristle-core-test-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_hub_holds_nothing_for_a_node_it_was_never_given() {
        let mut hub = StoreHub::new();
        let k = Key(7);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 1 });
        assert!(hub.state(k).is_none(), "a mutation alone creates no store");
        hub.backends.insert(k, mem_holding([WalRecord::Identity { key: 7, incarnation: 1 }]));
        assert_eq!(hub.kind(k), "mem");
        hub.freeze(k);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 9 });
        assert_eq!(hub.state(k).unwrap().identity, Some((7, 1)), "frozen store unchanged");
        hub.thaw(k);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 9 });
        assert_eq!(hub.state(k).unwrap().identity, Some((7, 9)));
    }

    #[test]
    fn a_hub_attach_starts_an_empty_log_and_reopen_reads_disk() {
        let dir = scratch("hub-attach");
        let mut hub = StoreHub::new();
        let k = Key(3);
        hub.apply(k, WalRecord::Register { target: 11, capacity: 2 });
        hub.attach_wal(k, WalBackend::open(&dir, 0).unwrap());
        assert_eq!(hub.kind(k), "wal");
        hub.apply(k, WalRecord::Register { target: 12, capacity: 1 });
        let report = hub.reopen_wal(k).expect("reopen succeeds");
        assert_eq!(report.log_records, 1, "only what was applied after the attach");
        let regs = &hub.state(k).unwrap().registrations;
        assert_eq!(regs.keys().copied().collect::<Vec<_>>(), [12]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The system-level attach seeds the log with the node's rows; the
    /// hub-level one, on a node that never crashed, starts it empty.
    #[test]
    fn attach_wal_seeds_the_log_with_the_nodes_rows() {
        use crate::config::BristleConfig;
        use crate::system::BristleBuilder;
        use bristle_netsim::transit_stub::TransitStubConfig;

        let dir = scratch("seeded-attach");
        let mut sys = BristleBuilder::new(31)
            .stationary_nodes(30)
            .mobile_nodes(10)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap();
        let m = sys.mobile_keys()[0];
        sys.move_node(m, None).unwrap();
        let seeded = sys.stationary.owner(m).unwrap();
        let bare = sys.registry.registrants_of(m).iter().map(|r| r.key).find(|&k| k != seeded);
        let bare = bare.expect("an LDT member besides the primary");
        let rows = sys.durable_rows(seeded);
        assert!(!rows.records.is_empty() && !rows.leases.is_empty(), "the seed must bite");
        assert!(!sys.durable_rows(bare).is_empty());

        sys.attach_wal(seeded, WalBackend::open(dir.join("seeded"), 0).unwrap());
        sys.stores.attach_wal(bare, WalBackend::open(dir.join("bare"), 0).unwrap());
        let report = sys.stores.reopen_wal(seeded).expect("reopen succeeds");
        assert_eq!(report.log_records, rows.to_records().len());
        assert_eq!(sys.stores.state(seeded), Some(&rows));
        assert_eq!(sys.stores.reopen_wal(bare).expect("reopen succeeds").log_records, 0);
        assert!(sys.stores.state(bare).unwrap().is_empty());
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
