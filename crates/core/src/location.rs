//! Location records: what the stationary layer stores per mobile node.
//!
//! A mobile node Y publishes `<Y, current address>` to the stationary-layer
//! node whose hash key is closest to Y's (§2.1), replicated across k
//! clustered nodes for availability (§2.3.2). A `_discovery` for Y routes
//! to that node and returns the record.

use bristle_netsim::attach::AttachmentMap;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;

use crate::time::SimTime;

/// One mobile node's published location, as stored in the stationary layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationRecord {
    /// The mobile node this record describes.
    pub subject: Key,
    /// The network address the subject last published.
    pub addr: NetAddr,
    /// The subject's incarnation when the record was published. Ranked
    /// before `seq` on conflicts: a record published after a wrongful
    /// death (incarnation bumped) beats any record from the previous
    /// life, however many sequence numbers that life had racked up on
    /// the other side of a partition.
    pub incarnation: u64,
    /// Publication sequence number; higher wins on conflicts.
    pub seq: u64,
    /// When the record was published.
    pub published_at: SimTime,
    /// Lease duration granted to consumers of this record.
    pub ttl: u64,
}

// One per published mobile node per replica.
const _: () = assert!(std::mem::size_of::<LocationRecord>() <= 56);

impl LocationRecord {
    /// Builds a record from the subject's current attachment.
    pub fn fresh(
        subject: Key,
        host: bristle_netsim::attach::HostId,
        attachments: &AttachmentMap,
        incarnation: u64,
        seq: u64,
        now: SimTime,
        ttl: u64,
    ) -> LocationRecord {
        LocationRecord {
            subject,
            addr: NetAddr::current(host, attachments),
            incarnation,
            seq,
            published_at: now,
            ttl,
        }
    }

    /// Whether the recorded address still reaches the subject.
    pub fn is_current(&self, attachments: &AttachmentMap) -> bool {
        self.addr.is_valid(attachments)
    }

    /// Whether the record's own lease has expired at `now`.
    ///
    /// TTL boundary convention (shared with [`crate::lease::Lease`]): a
    /// record published at `t` with lifetime `ttl` is valid on the
    /// half-open window `[t, t + ttl)` — still valid at `t + ttl - 1`,
    /// expired exactly at `t + ttl`. Boundary tests here and in
    /// `lease.rs` pin both sites to this one convention.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now.since(self.published_at) >= self.ttl
    }

    /// Resolves conflicts deterministically: keeps the record from the
    /// higher incarnation, then the higher sequence number, then the
    /// later publication time. Both sides of a healed partition applying
    /// this rule converge on the same record.
    pub fn newer_of(self, other: LocationRecord) -> LocationRecord {
        if (other.incarnation, other.seq, other.published_at)
            > (self.incarnation, self.seq, self.published_at)
        {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::graph::RouterId;

    fn setup() -> (AttachmentMap, bristle_netsim::attach::HostId) {
        let mut m = AttachmentMap::new();
        let h = m.attach_new(RouterId(1));
        (m, h)
    }

    #[test]
    fn freshness_tracks_movement() {
        let (mut m, h) = setup();
        let rec = LocationRecord::fresh(Key(5), h, &m, 0, 1, SimTime(0), 30);
        assert!(rec.is_current(&m));
        m.move_host(h, RouterId(2));
        assert!(!rec.is_current(&m));
    }

    #[test]
    fn ttl_expiry() {
        let (m, h) = setup();
        let rec = LocationRecord::fresh(Key(5), h, &m, 0, 1, SimTime(10), 30);
        assert!(!rec.is_expired(SimTime(39)));
        assert!(rec.is_expired(SimTime(40)));
    }

    /// Pins the half-open `[published_at, published_at + ttl)` validity
    /// window at ttl-1 / ttl / ttl+1 — the same convention
    /// `Lease::is_valid` is pinned to in `lease.rs`.
    #[test]
    fn ttl_boundary_three_points() {
        let (m, h) = setup();
        let published = SimTime(100);
        let ttl = 20;
        let rec = LocationRecord::fresh(Key(5), h, &m, 0, 1, published, ttl);
        assert!(!rec.is_expired(published), "fresh at publication");
        assert!(!rec.is_expired(published.plus(ttl - 1)), "valid at ttl-1");
        assert!(rec.is_expired(published.plus(ttl)), "expired exactly at ttl");
        assert!(rec.is_expired(published.plus(ttl + 1)), "stays expired at ttl+1");
    }

    #[test]
    fn newer_of_prefers_higher_seq() {
        let (m, h) = setup();
        let a = LocationRecord::fresh(Key(5), h, &m, 0, 1, SimTime(0), 30);
        let b = LocationRecord::fresh(Key(5), h, &m, 0, 2, SimTime(0), 30);
        assert_eq!(a.newer_of(b).seq, 2);
        assert_eq!(b.newer_of(a).seq, 2);
        // Equal seq: later publication wins.
        let c = LocationRecord::fresh(Key(5), h, &m, 0, 2, SimTime(9), 30);
        assert_eq!(b.newer_of(c).published_at, SimTime(9));
    }

    #[test]
    fn newer_of_ranks_incarnation_above_seq() {
        let (m, h) = setup();
        // The pre-partition life racked up a high seq on the far side;
        // the post-rejoin life publishes at a fresher incarnation with a
        // reset-looking seq. The new life must win deterministically.
        let old_life = LocationRecord::fresh(Key(5), h, &m, 0, 40, SimTime(100), 30);
        let new_life = LocationRecord::fresh(Key(5), h, &m, 1, 2, SimTime(50), 30);
        assert_eq!(old_life.newer_of(new_life).incarnation, 1);
        assert_eq!(new_life.newer_of(old_life).incarnation, 1);
    }
}
