//! Host attachment points and movement.
//!
//! An overlay node ("host") lives at some stub router of the physical
//! topology — its *network attachment point*. Mobility is modelled exactly
//! as in the paper: a mobile host re-attaches to a different router, which
//! invalidates every copy of its old network address held elsewhere in the
//! system.
//!
//! Each attachment carries an *epoch* counter that increments on every
//! move. A remembered address `(router, epoch)` is valid iff the epoch
//! still matches — the simulator's cheap stand-in for "the IP address no
//! longer routes to this host".

use crate::graph::RouterId;
use crate::rng::Pcg64;

/// Identifier of a host (an overlay-node body living in the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl HostId {
    /// The host id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// One host's current physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment {
    /// The router the host currently attaches to.
    pub router: RouterId,
    /// Incremented on every move; stale epochs mean stale addresses.
    pub epoch: u64,
}

/// Tracks where every host is attached and how often it has moved.
#[derive(Debug, Clone, Default)]
pub struct AttachmentMap {
    slots: Vec<Attachment>,
    moves: u64,
}

impl AttachmentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new host at `router`; returns its id.
    pub fn attach_new(&mut self, router: RouterId) -> HostId {
        self.slots.push(Attachment { router, epoch: 0 });
        HostId((self.slots.len() - 1) as u32)
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The host's current attachment.
    pub fn current(&self, host: HostId) -> Attachment {
        self.slots[host.index()]
    }

    /// The host's current router.
    pub fn router(&self, host: HostId) -> RouterId {
        self.slots[host.index()].router
    }

    /// Moves `host` to `router`, bumping its epoch. Returns the new
    /// attachment. Moving to the current router still counts as a move
    /// (e.g. DHCP renumbering at the same point of attachment).
    pub fn move_host(&mut self, host: HostId, router: RouterId) -> Attachment {
        let slot = &mut self.slots[host.index()];
        slot.router = router;
        slot.epoch += 1;
        self.moves += 1;
        *slot
    }

    /// Moves `host` to a random router from `candidates` distinct from its
    /// current one when possible.
    pub fn move_host_random(
        &mut self,
        host: HostId,
        candidates: &[RouterId],
        rng: &mut Pcg64,
    ) -> Attachment {
        assert!(!candidates.is_empty(), "no attachment candidates");
        let cur = self.router(host);
        let mut target = *rng.choose(candidates);
        if candidates.len() > 1 {
            while target == cur {
                target = *rng.choose(candidates);
            }
        }
        self.move_host(host, target)
    }

    /// Whether a remembered attachment is still the host's current one.
    pub fn is_current(&self, host: HostId, remembered: Attachment) -> bool {
        self.slots[host.index()] == remembered
    }

    /// Total number of moves performed across all hosts.
    pub fn total_moves(&self) -> u64 {
        self.moves
    }

    /// Iterator over `(host, attachment)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, Attachment)> + '_ {
        self.slots.iter().enumerate().map(|(i, &a)| (HostId(i as u32), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_assigns_sequential_ids() {
        let mut m = AttachmentMap::new();
        assert_eq!(m.attach_new(RouterId(5)), HostId(0));
        assert_eq!(m.attach_new(RouterId(6)), HostId(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.router(HostId(1)), RouterId(6));
    }

    #[test]
    fn move_bumps_epoch_and_invalidates() {
        let mut m = AttachmentMap::new();
        let h = m.attach_new(RouterId(1));
        let before = m.current(h);
        assert!(m.is_current(h, before));
        let after = m.move_host(h, RouterId(2));
        assert_eq!(after.router, RouterId(2));
        assert_eq!(after.epoch, 1);
        assert!(!m.is_current(h, before), "old address must be stale");
        assert!(m.is_current(h, after));
        assert_eq!(m.total_moves(), 1);
    }

    #[test]
    fn move_to_same_router_still_invalidates() {
        let mut m = AttachmentMap::new();
        let h = m.attach_new(RouterId(1));
        let before = m.current(h);
        let after = m.move_host(h, RouterId(1));
        assert_eq!(after.router, RouterId(1));
        assert!(!m.is_current(h, before));
    }

    #[test]
    fn random_move_avoids_current_router_when_possible() {
        let mut m = AttachmentMap::new();
        let mut rng = Pcg64::seed_from_u64(1);
        let candidates: Vec<RouterId> = (0..10).map(RouterId).collect();
        let h = m.attach_new(RouterId(3));
        for _ in 0..50 {
            let prev = m.router(h);
            let a = m.move_host_random(h, &candidates, &mut rng);
            assert_ne!(a.router, prev);
        }
    }

    #[test]
    fn random_move_single_candidate_allowed() {
        let mut m = AttachmentMap::new();
        let mut rng = Pcg64::seed_from_u64(2);
        let h = m.attach_new(RouterId(0));
        let a = m.move_host_random(h, &[RouterId(0)], &mut rng);
        assert_eq!(a.router, RouterId(0));
        assert_eq!(a.epoch, 1);
    }
}
