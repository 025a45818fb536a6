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
//!
//! The counter is 32 bits wide because an [`Attachment`] sits in every
//! routing row of the overlay that names a host that can move (DESIGN
//! §13); the wire and the WAL carry it as 64 bits and narrow through
//! [`Attachment::from_wide`], which cannot alias one epoch onto another.
//!
//! Whether a host can move at all is decided once, when it is attached:
//! [`AttachmentMap::attach_fixed`] registers one that never does (a
//! stationary node's body), so every address of it stays current for
//! good and a reader may take it from the host alone.

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
    ///
    /// A per-host move counter, `u32` so that `Attachment` is 8 bytes and
    /// a routing row holding one is 24, not 40. No host's epoch ever
    /// equals [`Attachment::NEVER_CURRENT`].
    pub epoch: u32,
}

impl Attachment {
    /// The epoch no registered host ever has: [`AttachmentMap::move_host`]
    /// refuses to count up to it. Every 64-bit epoch that does not fit
    /// narrows to it, so an address carrying one is never current.
    pub const NEVER_CURRENT: u32 = u32::MAX;

    /// An attachment from the 64-bit epoch frames and WAL records carry.
    /// An epoch a map can hold comes back as itself; anything wider
    /// becomes [`Self::NEVER_CURRENT`] rather than its low 32 bits, so
    /// `2³² + e` does not pass for `e`.
    pub fn from_wide(router: RouterId, epoch: u64) -> Attachment {
        Attachment { router, epoch: u32::try_from(epoch).unwrap_or(Self::NEVER_CURRENT) }
    }
}

/// Tracks where every host is attached, how often it has moved, and
/// which hosts never move.
#[derive(Debug, Clone, Default)]
pub struct AttachmentMap {
    slots: Vec<Attachment>,
    /// Per host: attached fixed, so [`AttachmentMap::move_host`] refuses it.
    fixed: Vec<bool>,
    moves: u64,
}

impl AttachmentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new host at `router` that may move; returns its id.
    pub fn attach_new(&mut self, router: RouterId) -> HostId {
        self.attach(router, false)
    }

    /// Registers a new host at `router` that never moves; returns its id.
    /// Its address is its attachment at epoch 0 for as long as it exists.
    pub fn attach_fixed(&mut self, router: RouterId) -> HostId {
        self.attach(router, true)
    }

    fn attach(&mut self, router: RouterId, fixed: bool) -> HostId {
        self.slots.push(Attachment { router, epoch: 0 });
        self.fixed.push(fixed);
        HostId((self.slots.len() - 1) as u32)
    }

    /// Whether `host` was attached fixed. Total, like
    /// [`AttachmentMap::is_current`]: a host this map never registered is
    /// not fixed.
    pub fn is_fixed(&self, host: HostId) -> bool {
        self.fixed.get(host.index()).is_some_and(|&fixed| fixed)
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
    ///
    /// # Panics
    /// On a host attached fixed, and on the move that would take the
    /// host's epoch to [`Attachment::NEVER_CURRENT`].
    pub fn move_host(&mut self, host: HostId, router: RouterId) -> Attachment {
        assert!(!self.fixed[host.index()], "{host} is attached fixed: it never moves");
        let slot = &mut self.slots[host.index()];
        slot.router = router;
        // Invariant: an epoch is written here and in `attach` only,
        // one step at a time from 0, so it reaches the reserved value
        // only after 2³² − 1 calls naming this one host. Nothing read
        // off the wire or the disk is ever stored into a slot, so no
        // input can bring the count closer; wrapping instead would make
        // a four-billion-moves-old address current again.
        slot.epoch = slot
            .epoch
            .checked_add(1)
            .filter(|&e| e != Attachment::NEVER_CURRENT)
            .expect("a host moved 2^32 - 1 times: its epoch counter is spent");
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
    /// Total: `host` may come off the wire, and a host this map never
    /// registered has no current attachment.
    pub fn is_current(&self, host: HostId, remembered: Attachment) -> bool {
        self.slots.get(host.index()) == Some(&remembered)
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

    /// The width of the epoch is not observable from inside one build;
    /// what it must keep is: an address taken before `k` moves of its
    /// host is current iff `k == 0`, however many moves follow, moves
    /// to the router the host is already at included, and whatever the
    /// other hosts do meanwhile.
    #[test]
    fn an_address_is_current_until_its_host_first_moves_seeded() {
        let routers: Vec<RouterId> = (0..7).map(RouterId).collect();
        for seed in [8u64, 27, 0xA5] {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut m = AttachmentMap::new();
            let hosts: Vec<HostId> = (0..2).map(|_| m.attach_new(*rng.choose(&routers))).collect();
            // Every address ever handed out, with the moves its host had
            // made by then.
            let mut taken: Vec<(HostId, Attachment, u32)> = Vec::new();
            let mut moved = [0u32; 2];
            for step in 0..6_000 {
                let i = rng.index(hosts.len());
                taken.push((hosts[i], m.current(hosts[i]), moved[i]));
                let j = rng.index(hosts.len());
                if step % 3 == 0 {
                    m.move_host(hosts[j], m.router(hosts[j]));
                } else {
                    m.move_host_random(hosts[j], &routers, &mut rng);
                }
                moved[j] += 1;
                if step % 500 == 499 || step < 8 {
                    for &(h, a, at) in &taken {
                        let k = moved[h.index()] - at;
                        assert_eq!(m.is_current(h, a), k == 0, "seed {seed} step {step}: k = {k}");
                    }
                }
            }
            assert!(moved.iter().all(|&k| k > 2_000), "seed {seed}: thousands of moves a host");
            assert_eq!(m.total_moves(), 6_000);
        }
    }

    #[test]
    fn unknown_hosts_and_wide_epochs_are_never_current() {
        let empty = AttachmentMap::new();
        let mut m = AttachmentMap::new();
        let h = m.attach_new(RouterId(1));
        for _ in 0..5 {
            m.move_host(h, RouterId(1));
        }
        let now = m.current(h);
        assert_eq!(now.epoch, 5);
        // Every epoch a map can hold widens and narrows to itself ...
        for e in [0, 5, u32::MAX - 1] {
            assert_eq!(Attachment::from_wide(RouterId(1), u64::from(e)).epoch, e);
        }
        // ... and nothing wider lands on one: not by truncation (2^32 + 5
        // is not 5), not at the boundary, not at the top.
        for wide in [(1u64 << 32) + 5, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            let a = Attachment::from_wide(RouterId(1), wide);
            assert_eq!(a.epoch, Attachment::NEVER_CURRENT, "{wide}");
            assert!(!m.is_current(h, a), "{wide}");
        }
        // A host no map registered has no current attachment.
        for map in [&empty, &m] {
            assert!(!map.is_current(HostId(u32::MAX), now));
            assert!(
                !map.is_current(HostId(4_000_000), Attachment { router: RouterId(0), epoch: 0 })
            );
        }
    }

    /// The counter stops one short of the reserved epoch instead of
    /// reaching or wrapping past it.
    #[test]
    #[should_panic(expected = "epoch counter is spent")]
    fn the_move_that_would_reach_the_reserved_epoch_is_refused() {
        let last = Attachment { router: RouterId(0), epoch: Attachment::NEVER_CURRENT - 2 };
        let mut m = AttachmentMap { slots: vec![last], fixed: vec![false], moves: 0 };
        assert_eq!(m.move_host(HostId(0), RouterId(1)).epoch, Attachment::NEVER_CURRENT - 1);
        m.move_host(HostId(0), RouterId(2));
    }

    /// A host attached fixed keeps its one address: a move is refused
    /// before anything changes, and the hosts beside it move as before.
    #[test]
    fn a_fixed_host_refuses_to_move() {
        let mut m = AttachmentMap::new();
        let (fixed, mobile) = (m.attach_fixed(RouterId(1)), m.attach_new(RouterId(1)));
        assert!(m.is_fixed(fixed) && !m.is_fixed(mobile) && !m.is_fixed(HostId(7)));
        let home = m.current(fixed);
        assert_eq!(home, Attachment { router: RouterId(1), epoch: 0 });
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.move_host(fixed, RouterId(2));
        }));
        assert!(refused.is_err(), "a fixed host moved");
        let mut rng = Pcg64::seed_from_u64(3);
        let routers = [RouterId(2), RouterId(3)];
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.move_host_random(fixed, &routers, &mut rng);
        }));
        assert!(refused.is_err(), "a fixed host moved at random");
        assert!(m.is_current(fixed, home) && m.total_moves() == 0);
        m.move_host(mobile, RouterId(2));
        assert!(m.is_current(fixed, home) && m.total_moves() == 1);
    }
}
