//! Lease (TTL) management for cached states.
//!
//! "Each state stored in a Bristle node appeared in the mobile layer is
//! thus associated with a time-to-live (TTL) value, which indicates the
//! valid lifetime of the state. Once the contract of a state expires, the
//! state is no longer valid." (paper §2.3.2)
//!
//! A [`LeaseTable`] tracks, per (holder, subject) pair, until when the
//! holder may trust its cached copy of the subject's network address.

use std::collections::HashMap;

use bristle_overlay::key::{Key, KeyHashBuilder};

use crate::time::SimTime;

/// One lease contract: valid until `expires` (exclusive).
///
/// TTL boundary convention (shared with
/// [`crate::location::LocationRecord::is_expired`]): a contract granted
/// at `t` for `ttl` ticks is valid on the half-open window
/// `[t, t + ttl)` — still valid at `t + ttl - 1`, invalid exactly at
/// `t + ttl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// First instant at which the lease is no longer valid.
    pub expires: SimTime,
}

impl Lease {
    /// A lease granted at `now` for `ttl` ticks.
    pub fn granted(now: SimTime, ttl: u64) -> Lease {
        Lease { expires: now.plus(ttl) }
    }

    /// Whether the lease is still valid at `now`.
    pub fn is_valid(&self, now: SimTime) -> bool {
        now < self.expires
    }
}

/// All leases held across the system, keyed by (holder, subject).
///
/// # Examples
///
/// ```
/// use bristle_core::lease::LeaseTable;
/// use bristle_core::time::SimTime;
/// use bristle_overlay::key::Key;
///
/// let mut leases = LeaseTable::new();
/// leases.grant(Key(1), Key(2), SimTime(0), 10);
/// assert!(leases.is_fresh(Key(1), Key(2), SimTime(9)));
/// assert!(!leases.is_fresh(Key(1), Key(2), SimTime(10)));
/// assert_eq!(leases.purge_expired(SimTime(10)), 1);
/// assert!(leases.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    leases: HashMap<(Key, Key), Lease, KeyHashBuilder>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants (or renews) `holder`'s lease on `subject`'s state.
    pub fn grant(&mut self, holder: Key, subject: Key, now: SimTime, ttl: u64) {
        self.leases.insert((holder, subject), Lease::granted(now, ttl));
    }

    /// Whether `holder` currently holds a valid lease on `subject`.
    pub fn is_fresh(&self, holder: Key, subject: Key, now: SimTime) -> bool {
        self.leases.get(&(holder, subject)).is_some_and(|l| l.is_valid(now))
    }

    /// Drops every lease on `subject` — used when the subject leaves.
    pub fn revoke_subject(&mut self, subject: Key) -> usize {
        let before = self.leases.len();
        self.leases.retain(|&(_, s), _| s != subject);
        before - self.leases.len()
    }

    /// Drops every lease held *by* `holder` — used when the holder is
    /// confirmed crashed, so its contracts cannot outlive it.
    pub fn revoke_holder(&mut self, holder: Key) -> usize {
        let before = self.leases.len();
        self.leases.retain(|&(h, _), _| h != holder);
        before - self.leases.len()
    }

    /// Drops every expired lease; returns how many were purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.purge_expired_pairs(now).len()
    }

    /// Drops every expired lease and returns the `(holder, subject)`
    /// pairs purged, sorted — callers that mirror revocations into
    /// per-holder durable stores need to know whose contract ended.
    pub fn purge_expired_pairs(&mut self, now: SimTime) -> Vec<(Key, Key)> {
        let mut purged = Vec::new();
        self.leases.retain(|&pair, l| {
            let keep = l.is_valid(now);
            if !keep {
                purged.push(pair);
            }
            keep
        });
        purged.sort_unstable();
        purged
    }

    /// The holders currently leasing `subject`'s state, sorted.
    pub fn holders_of_subject(&self, subject: Key) -> Vec<Key> {
        let mut holders: Vec<Key> =
            self.leases.keys().filter(|&&(_, s)| s == subject).map(|&(h, _)| h).collect();
        holders.sort_unstable();
        holders
    }

    /// Every `((holder, subject), contract)` row, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((Key, Key), Lease)> + '_ {
        self.leases.iter().map(|(&pair, &lease)| (pair, lease))
    }

    /// Number of live lease contracts (valid or not yet purged).
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether the table holds no contracts.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_lifecycle() {
        let l = Lease::granted(SimTime(10), 5);
        assert!(l.is_valid(SimTime(10)));
        assert!(l.is_valid(SimTime(14)));
        assert!(!l.is_valid(SimTime(15)), "expiry instant is invalid");
    }

    #[test]
    fn table_grant_and_expiry() {
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(2), SimTime(0), 10);
        assert!(t.is_fresh(Key(1), Key(2), SimTime(9)));
        assert!(!t.is_fresh(Key(1), Key(2), SimTime(10)));
        assert!(!t.is_fresh(Key(2), Key(1), SimTime(0)), "direction matters");
    }

    #[test]
    fn renewal_extends() {
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(2), SimTime(0), 10);
        t.grant(Key(1), Key(2), SimTime(8), 10);
        assert!(t.is_fresh(Key(1), Key(2), SimTime(15)));
    }

    #[test]
    fn revoke_subject_drops_every_lease_on_it() {
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(9), SimTime(0), 10);
        t.grant(Key(2), Key(9), SimTime(0), 10);
        t.grant(Key(1), Key(3), SimTime(0), 10);
        assert_eq!(t.revoke_subject(Key(9)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.is_fresh(Key(1), Key(3), SimTime(5)));
    }

    #[test]
    fn revoke_holder_drops_only_the_holders_contracts() {
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(9), SimTime(0), 10);
        t.grant(Key(1), Key(3), SimTime(0), 10);
        t.grant(Key(2), Key(1), SimTime(0), 10);
        assert_eq!(t.revoke_holder(Key(1)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.is_fresh(Key(2), Key(1), SimTime(5)), "leases *on* 1 survive");
    }

    /// Pins `Lease::is_valid` and `LeaseTable::purge_expired` to the
    /// same semantics at the boundary instant `now == granted + ttl`:
    /// the lease must be invalid AND purged there. Off-by-one drift
    /// between the two would let a contract be simultaneously "fresh"
    /// (served from the table) and "purged" (dropped by upkeep).
    #[test]
    fn expiry_boundary_agrees_between_is_valid_and_purge() {
        let granted = SimTime(100);
        let ttl = 20;
        let boundary = granted.plus(ttl);
        let just_before = SimTime(boundary.0 - 1);

        let l = Lease::granted(granted, ttl);
        assert!(l.is_valid(just_before));
        assert!(!l.is_valid(boundary), "invalid exactly at granted + ttl");

        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(2), granted, ttl);
        assert_eq!(t.purge_expired(just_before), 0, "valid leases are not purged");
        assert!(t.is_fresh(Key(1), Key(2), just_before));
        assert!(!t.is_fresh(Key(1), Key(2), boundary), "is_fresh agrees with is_valid");
        assert_eq!(t.purge_expired(boundary), 1, "purged exactly at granted + ttl");
        assert!(t.is_empty());
    }

    /// Pins the half-open `[granted, granted + ttl)` validity window at
    /// ttl-1 / ttl / ttl+1 — the same convention
    /// `LocationRecord::is_expired` is pinned to in `location.rs`.
    #[test]
    fn ttl_boundary_three_points() {
        let granted = SimTime(100);
        let ttl = 20;
        let l = Lease::granted(granted, ttl);
        assert!(l.is_valid(granted), "valid at grant");
        assert!(l.is_valid(granted.plus(ttl - 1)), "valid at ttl-1");
        assert!(!l.is_valid(granted.plus(ttl)), "invalid exactly at ttl");
        assert!(!l.is_valid(granted.plus(ttl + 1)), "stays invalid at ttl+1");
    }

    #[test]
    fn purge_expired_removes_only_stale() {
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(2), SimTime(0), 5);
        t.grant(Key(1), Key(3), SimTime(0), 50);
        assert_eq!(t.purge_expired(SimTime(10)), 1);
        assert_eq!(t.len(), 1);
        assert!(t.is_fresh(Key(1), Key(3), SimTime(10)));
    }
}
