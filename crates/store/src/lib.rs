//! # bristle-store
//!
//! Pluggable durable-state backends for Bristle's stationary layer.
//!
//! The paper treats the stationary layer as a *location-information
//! repository*, which makes each stationary node a tiny database: it
//! owns a shard of location records, the registrations binding it into
//! LDTs, the leases it holds, and its own identity + incarnation. This
//! crate gives that database a storage abstraction:
//!
//! * [`WalRecord`] — one typed mutation; the durable state is defined
//!   as a fold over the record sequence ([`DurableState::apply`]).
//! * [`StateStore`] — the backend trait: feed it records, read back the
//!   folded state.
//! * [`MemBackend`] — folds in memory, survives nothing. Same simulated
//!   behaviour as the pre-store code (no message, RNG draw or clock
//!   tick differs), at the cost of a second copy of the node's rows.
//! * [`WalBackend`] — append-only log + periodic snapshot + replay on
//!   open, torn-write tolerant. A crashed node reopens its store and
//!   recovers its shard from disk instead of re-learning it from the
//!   overlay.
//!
//! The crate is dependency-free and deliberately sits *below* every
//! other workspace crate: identifiers are raw integers, time is a raw
//! tick count, and nothing here touches the simulator's RNG, meter, or
//! clock — attaching or swapping a backend cannot perturb a seeded run.

#![warn(missing_docs)]

pub mod mem;
pub mod record;
pub mod state;
pub mod wal;

pub use mem::MemBackend;
pub use record::{CodecError, WalRecord};
pub use state::{DurableState, StoredRecord};
pub use wal::{ReplayReport, WalBackend};

/// A storage backend for one stationary node's durable state.
///
/// The trait is infallible by design: the in-memory fold must advance
/// even when a disk is unhappy, because the overlay's correctness never
/// depends on persistence (durability only changes how much a node can
/// recover after a crash). Fallible backends latch their first error
/// for later inspection (see [`WalBackend::io_error`]).
pub trait StateStore {
    /// A short name for the backend family (`"mem"`, `"wal"`).
    fn kind(&self) -> &'static str;

    /// Applies one mutation record.
    fn apply(&mut self, rec: &WalRecord);

    /// The current folded state.
    fn state(&self) -> &DurableState;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_and_wal_fold_identically() {
        let dir = std::env::temp_dir()
            .join(format!("bristle-store-test-{}", std::process::id()))
            .join("equivalence");
        let _ = std::fs::remove_dir_all(&dir);
        let mut mem = MemBackend::new();
        let mut wal = WalBackend::open(&dir, 4).unwrap();
        let recs = [
            WalRecord::Identity { key: 10, incarnation: 1 },
            WalRecord::RecordPut {
                subject: 1,
                host: 2,
                router: 3,
                epoch: 13,
                incarnation: 4,
                seq: 5,
                published_at: 6,
                ttl: 7,
            },
            WalRecord::Register { target: 20, capacity: 2 },
            WalRecord::LeaseGrant { subject: 1, expires: 99 },
            WalRecord::RecordRemove { subject: 1 },
            WalRecord::Identity { key: 10, incarnation: 2 },
        ];
        for r in &recs {
            mem.apply(r);
            wal.apply(r);
        }
        assert_eq!(mem.state(), wal.state());
        // And the WAL's disk image reproduces the same state.
        drop(wal);
        let reopened = WalBackend::open(&dir, 4).unwrap();
        assert_eq!(mem.state(), reopened.state());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
