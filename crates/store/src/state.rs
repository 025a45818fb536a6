//! The durable state a stationary node owns, as a fold over
//! [`WalRecord`]s.

use std::collections::BTreeMap;

use crate::record::WalRecord;

/// A stored location record, in the store's raw representation (see the
/// [`record`](crate::record) module docs for why ids are raw integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// Raw host id of the subject's address.
    pub host: u32,
    /// Raw router id the subject was attached to.
    pub router: u32,
    /// Attachment epoch at publish time.
    pub epoch: u64,
    /// The subject's incarnation at publish time.
    pub incarnation: u64,
    /// The subject's per-move sequence number.
    pub seq: u64,
    /// Virtual publish time.
    pub published_at: u64,
    /// Time-to-live in ticks.
    pub ttl: u64,
}

/// Everything a stationary node must not lose across a crash: its own
/// identity and incarnation, its shard of the location repository, its
/// explicit registrations, and the leases granted to it.
///
/// All maps are `BTreeMap` so iteration — and therefore snapshot
/// encoding — is in sorted key order, byte-stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableState {
    /// `(key, incarnation)` of the owning node, once recorded.
    pub identity: Option<(u64, u64)>,
    /// Location records stored at this node, by subject key.
    pub records: BTreeMap<u64, StoredRecord>,
    /// Targets of this node's explicit registrations, with their capacity.
    pub registrations: BTreeMap<u64, u32>,
    /// Leases held by this node, by subject, with absolute expiry.
    pub leases: BTreeMap<u64, u64>,
}

/// The stored form of a [`WalRecord::RecordPut`]'s payload.
fn stored_record(rec: &WalRecord) -> Option<StoredRecord> {
    match *rec {
        WalRecord::RecordPut {
            host, router, epoch, incarnation, seq, published_at, ttl, ..
        } => Some(StoredRecord { host, router, epoch, incarnation, seq, published_at, ttl }),
        _ => None,
    }
}

impl DurableState {
    /// An empty state.
    pub fn new() -> DurableState {
        DurableState::default()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.identity.is_none()
            && self.records.is_empty()
            && self.registrations.is_empty()
            && self.leases.is_empty()
    }

    /// Whether [`DurableState::apply`] would change the state. Read-only,
    /// so a backend can decide to log a record before it folds it.
    pub fn would_change(&self, rec: &WalRecord) -> bool {
        match *rec {
            WalRecord::Identity { key, incarnation } => self.identity != Some((key, incarnation)),
            WalRecord::RecordPut { subject, .. } => {
                self.records.get(&subject) != stored_record(rec).as_ref()
            }
            WalRecord::RecordRemove { subject } => self.records.contains_key(&subject),
            WalRecord::Register { target, capacity } => {
                self.registrations.get(&target) != Some(&capacity)
            }
            WalRecord::Deregister { target } => self.registrations.contains_key(&target),
            WalRecord::LeaseGrant { subject, expires } => {
                self.leases.get(&subject) != Some(&expires)
            }
            WalRecord::LeaseRevoke { subject } => self.leases.contains_key(&subject),
        }
    }

    /// Applies one mutation record. Returns `true` when the state
    /// changed — backends use this to skip appending no-op records, so
    /// idempotent re-application (replay, registration re-sync) does not
    /// grow the log.
    pub fn apply(&mut self, rec: &WalRecord) -> bool {
        if !self.would_change(rec) {
            return false;
        }
        match *rec {
            WalRecord::Identity { key, incarnation } => self.identity = Some((key, incarnation)),
            WalRecord::RecordPut { subject, .. } => {
                self.records.extend(stored_record(rec).map(|stored| (subject, stored)));
            }
            WalRecord::RecordRemove { subject } => {
                self.records.remove(&subject);
            }
            WalRecord::Register { target, capacity } => {
                self.registrations.insert(target, capacity);
            }
            WalRecord::Deregister { target } => {
                self.registrations.remove(&target);
            }
            WalRecord::LeaseGrant { subject, expires } => {
                self.leases.insert(subject, expires);
            }
            WalRecord::LeaseRevoke { subject } => {
                self.leases.remove(&subject);
            }
        }
        true
    }

    /// The state as a canonical record sequence: identity first, then
    /// records, registrations, and leases in sorted key order. Folding
    /// the result into an empty state reproduces `self` exactly —
    /// this is both the snapshot encoding and the rebase path when a
    /// node switches backends mid-run.
    pub fn to_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::with_capacity(
            usize::from(self.identity.is_some())
                + self.records.len()
                + self.registrations.len()
                + self.leases.len(),
        );
        if let Some((key, incarnation)) = self.identity {
            out.push(WalRecord::Identity { key, incarnation });
        }
        for (&subject, r) in &self.records {
            out.push(WalRecord::RecordPut {
                subject,
                host: r.host,
                router: r.router,
                epoch: r.epoch,
                incarnation: r.incarnation,
                seq: r.seq,
                published_at: r.published_at,
                ttl: r.ttl,
            });
        }
        for (&target, &capacity) in &self.registrations {
            out.push(WalRecord::Register { target, capacity });
        }
        for (&subject, &expires) in &self.leases {
            out.push(WalRecord::LeaseGrant { subject, expires });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_reports_change_and_noop() {
        let mut s = DurableState::new();
        let put = WalRecord::Register { target: 9, capacity: 3 };
        assert!(s.apply(&put), "first application changes state");
        assert!(!s.apply(&put), "identical re-application is a no-op");
        assert!(s.apply(&WalRecord::Register { target: 9, capacity: 4 }), "capacity update");
        assert!(s.apply(&WalRecord::Deregister { target: 9 }));
        assert!(!s.apply(&WalRecord::Deregister { target: 9 }), "double remove is a no-op");
        assert!(s.is_empty());
    }

    #[test]
    fn would_change_predicts_apply_and_leaves_the_state_alone() {
        let mut s = DurableState::new();
        // Twice through: the second pass meets every record as a no-op
        // or as an update of what the first pass left behind.
        let recs = crate::record::tests::every_record();
        for rec in recs.iter().chain(recs.iter()) {
            let before = s.clone();
            let predicted = s.would_change(rec);
            assert_eq!(s, before, "would_change mutated the state on {rec:?}");
            assert_eq!(s.apply(rec), predicted, "prediction wrong on {rec:?}");
            assert_eq!(s != before, predicted, "apply's report wrong on {rec:?}");
            assert!(!s.would_change(rec), "re-applying {rec:?} must be a no-op");
        }
    }

    #[test]
    fn to_records_round_trips_the_state() {
        let mut s = DurableState::new();
        for rec in crate::record::tests::every_record() {
            s.apply(&rec);
        }
        let mut rebuilt = DurableState::new();
        for rec in s.to_records() {
            assert!(rebuilt.apply(&rec), "canonical sequence has no no-ops");
        }
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn to_records_is_sorted() {
        let mut s = DurableState::new();
        for subject in [44u64, 2, 99, 7] {
            s.apply(&WalRecord::LeaseGrant { subject, expires: subject + 1 });
        }
        let subjects: Vec<u64> = s
            .to_records()
            .iter()
            .map(|r| match r {
                WalRecord::LeaseGrant { subject, .. } => *subject,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(subjects, vec![2, 7, 44, 99]);
    }
}
