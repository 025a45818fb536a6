//! Per-node durable-state stores (the `bristle-store` integration).
//!
//! Every repository mutation a node performs — identity/incarnation
//! changes, location-record writes at its shard of the stationary
//! layer, registrations, leases — is mirrored as a
//! [`WalRecord`] into that node's [`StateStore`], by [`crate::repo`]
//! and nothing else. The default backend is
//! [`bristle_store::MemBackend`]: a second in-memory copy of the
//! node's rows (one `BTreeMap` update per mutation, no I/O) that
//! survives nothing; attaching a [`WalBackend`] makes the node's state
//! survive a crash, which [`crate::restart`] exploits to rejoin with its
//! shard intact instead of re-learning it from the overlay.
//!
//! Store mutations never touch the meter, the RNG, or the clock:
//! attaching, detaching or swapping backends cannot perturb a seeded
//! run (the flight-recorder golden trace pins this).

use std::collections::{BTreeMap, HashMap, HashSet};
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

/// All per-node stores, keyed by node. Nodes get a lazily created
/// [`MemBackend`] on first mutation; a durable backend is opted into
/// with [`StoreHub::attach_wal`].
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

    /// Applies one mutation to `node`'s store (creating its default
    /// in-memory backend on first use). Frozen nodes are skipped — a
    /// dead node's store must reflect its state *as of the crash*.
    pub fn apply(&mut self, node: Key, rec: WalRecord) {
        if self.frozen.contains(&node) {
            return;
        }
        self.backends.entry(node).or_insert_with(|| Box::new(MemBackend::new())).apply(&rec);
    }

    /// The folded durable state of `node`, if it has ever mutated.
    pub fn state(&self, node: Key) -> Option<&DurableState> {
        self.backends.get(&node).map(|b| b.state())
    }

    /// The backend family serving `node` (`"mem"` for the default).
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

    /// Attaches a WAL backend for `node`, rebasing whatever state its
    /// current (in-memory) store holds into the log, and remembers the
    /// directory so [`StoreHub::reopen_wal`] can re-open it from disk.
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
                let mut mem = MemBackend::new();
                for rec in fold.into_iter().flatten() {
                    mem.apply(&rec);
                }
                self.backends.insert(node, Box::new(mem));
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
    /// Panics unless, for every live node whose store is not frozen,
    /// `stores.state(k)` is exactly what the tables say: identity
    /// `(key, incarnation)`, records = its shard, registrations = the
    /// registry edges it is the registrant of, leases = the lease-table
    /// rows it holds. With `leases_exact` false the table may hold
    /// leases the store lacks — the function-path `discover` was called.
    #[doc(hidden)]
    pub fn assert_stores_mirror_tables(&self, step: &str, leases_exact: bool) {
        let mut want: BTreeMap<Key, DurableState> = BTreeMap::new();
        for node in self.mobile.iter().filter(|n| !self.stores.is_frozen(n.key)) {
            let incarnation = self.info_unchecked(node.key).incarnation;
            let state = want.entry(node.key).or_default();
            state.apply(&WalRecord::Identity { key: node.key.0, incarnation });
            if let Ok(shard) = self.stationary.node(node.key) {
                for rec in shard.store.values() {
                    state.apply(&record_put(rec));
                }
            }
        }
        for (target, regs) in self.registry.iter() {
            for r in regs {
                if let Some(state) = want.get_mut(&r.key) {
                    state.apply(&WalRecord::Register { target: target.0, capacity: r.capacity });
                }
            }
        }
        for ((holder, subject), lease) in self.leases.iter() {
            if let Some(state) = want.get_mut(&holder) {
                state
                    .apply(&WalRecord::LeaseGrant { subject: subject.0, expires: lease.expires.0 });
            }
        }
        for (key, mut want) in want {
            let have = self.stores.state(key).cloned().unwrap_or_default();
            if !leases_exact {
                want.leases.retain(|subject, _| have.leases.contains_key(subject));
            }
            assert_eq!(
                have,
                want,
                "after {step}: store of {key} (left) differs from the tables (right); leases \
                 compared {}",
                if leases_exact {
                    "exactly"
                } else {
                    "store ⊆ table: `discover` does not mirror"
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::attach::AttachmentMap;

    #[test]
    fn hub_defaults_to_mem_and_freezes() {
        let mut hub = StoreHub::new();
        let k = Key(7);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 1 });
        assert_eq!(hub.kind(k), "mem");
        assert_eq!(hub.state(k).unwrap().identity, Some((7, 1)));
        hub.freeze(k);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 9 });
        assert_eq!(hub.state(k).unwrap().identity, Some((7, 1)), "frozen store unchanged");
        hub.thaw(k);
        hub.apply(k, WalRecord::Identity { key: 7, incarnation: 9 });
        assert_eq!(hub.state(k).unwrap().identity, Some((7, 9)));
    }

    #[test]
    fn attach_wal_rebases_and_reopen_reads_disk() {
        let dir = std::env::temp_dir()
            .join(format!("bristle-core-test-{}", std::process::id()))
            .join("hub-rebase");
        let _ = std::fs::remove_dir_all(&dir);
        let mut hub = StoreHub::new();
        let k = Key(3);
        hub.apply(k, WalRecord::Register { target: 11, capacity: 2 });
        hub.attach_wal(k, WalBackend::open(&dir, 0).unwrap());
        assert_eq!(hub.kind(k), "wal");
        hub.apply(k, WalRecord::Register { target: 12, capacity: 1 });
        let report = hub.reopen_wal(k).expect("reopen succeeds");
        assert_eq!(report.log_records, 2, "rebased + live record replayed");
        let regs = &hub.state(k).unwrap().registrations;
        assert_eq!(regs.len(), 2);
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
