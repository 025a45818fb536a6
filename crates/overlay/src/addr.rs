//! Network addresses and state-pairs.
//!
//! The paper's central data structure is the *state-pair* `<hash key,
//! network address>`: one row of a peer's routing state. The network
//! address "allows the local node to communicate with that node directly";
//! when a node moves, every remembered copy of its address becomes invalid.
//!
//! In the simulator a network address is the host's identity plus the
//! attachment it had when the address was learned. The address is *valid*
//! iff the host's attachment epoch still matches — the moral equivalent of
//! an IP address that still routes to the host.

use bristle_netsim::attach::{Attachment, AttachmentMap, HostId};
use bristle_netsim::graph::RouterId;

use crate::key::Key;

/// A concrete network address: which host, attached where, as of when.
///
/// Three `u32`s, 12 bytes with no padding, and 16 as `Option<NetAddr>`.
/// One sits in every learned routing entry, so its width is gated below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetAddr {
    /// The host this address names.
    pub host: HostId,
    /// Attachment point and epoch at the time the address was learned.
    pub attachment: Attachment,
}

impl NetAddr {
    /// Builds an address from a host's *current* attachment.
    pub fn current(host: HostId, attachments: &AttachmentMap) -> NetAddr {
        NetAddr { host, attachment: attachments.current(host) }
    }

    /// The router this address points at.
    pub fn router(&self) -> RouterId {
        self.attachment.router
    }

    /// Whether the address still reaches the host (the host has not moved
    /// since the address was learned).
    pub fn is_valid(&self, attachments: &AttachmentMap) -> bool {
        attachments.is_current(self.host, self.attachment)
    }
}

/// A learned network address: what a node last heard of a peer that can
/// move. The paper's state-pair `<key, addr>` (§1) is a row's key and
/// this, for every row whose address can go stale.
///
/// `addr == None` is the paper's "null" address — the key of a known peer
/// whose network address has not been resolved (or has been invalidated
/// and cleared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAddr {
    /// The peer's network address, if resolved.
    pub addr: Option<NetAddr>,
}

impl CachedAddr {
    /// Whether the row currently lets us *reach* the peer: the address is
    /// present and still valid.
    pub fn is_reachable(&self, attachments: &AttachmentMap) -> bool {
        self.addr.is_some_and(|a| a.is_valid(attachments))
    }
}

/// The address half of a routing row on a ring whose peers can move:
/// where the row's address is found, in 4 bytes.
///
/// A state-pair goes stale only when its peer moves (§1), so only a row
/// naming a peer that can move keeps a learned [`CachedAddr`], in its
/// ring's table beside the rows; the handle is that entry's position. A
/// peer on a host attached fixed ([`AttachmentMap::attach_fixed`]) is
/// named by its host: its address is [`NetAddr::current`] for good.
///
/// A forwarding hop compares every row's key and reads one row's
/// address, so keys and handles live in parallel arrays: the scan reads
/// 8 bytes a row. At N = 5e4 the mobile ring holds 1.4 M rows at 12 B,
/// a fifth of which also own a 16 B entry, and the stationary ring 1.1 M
/// at 8 B ([`NoAddr`]), so most of the live heap scales with these
/// widths (DESIGN §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrHandle(u32);

impl AddrHandle {
    /// Set on a handle naming a learned entry; clear on one naming a host.
    const LEARNED: u32 = 1 << 31;
}

// A field added to either half of a row fails the build here, not the
// benchmark.
const _: () = assert!(std::mem::size_of::<NetAddr>() == 12);
const _: () = assert!(std::mem::size_of::<Key>() == 8);
const _: () = assert!(std::mem::size_of::<CachedAddr>() == 16);
const _: () = assert!(std::mem::size_of::<AddrHandle>() == 4);
const _: () = assert!(std::mem::size_of::<NoAddr>() == 0);

/// What a ring keeps beside each row's key. A ring is built over one of
/// the two kinds, so the compiler checks that no reader of the other is
/// left.
pub trait RowAddr: Copy + PartialEq + std::fmt::Debug {
    /// Whether the ring keeps a learned address for each row naming a
    /// peer that can move.
    const LEARNS: bool;
    /// The row for a peer whose address never goes stale, on `host`.
    fn fixed(host: HostId) -> Self;
    /// The row whose address is entry `at` of its ring's learned table.
    fn learned(at: usize) -> Self;
    /// The entry of its ring's learned table the row names, if any.
    fn entry(self) -> Option<usize>;
    /// The host the row names, a fixed peer's, or `None` for a row
    /// naming a learned entry (or nothing).
    fn fixed_host(self) -> Option<HostId>;

    /// The row naming a peer on `host`, the one place the rule is kept:
    /// the host itself if it is attached fixed (or the ring learns
    /// nothing), else a new last entry of the ring's `learned` table,
    /// holding `addr`.
    fn name(
        host: HostId,
        attachments: &AttachmentMap,
        learned: &mut Vec<CachedAddr>,
        addr: impl FnOnce() -> NetAddr,
    ) -> Self {
        if Self::LEARNS && !attachments.is_fixed(host) {
            learned.push(CachedAddr { addr: Some(addr()) });
            Self::learned(learned.len() - 1)
        } else {
            Self::fixed(host)
        }
    }
}

impl RowAddr for AddrHandle {
    const LEARNS: bool = true;

    fn fixed(host: HostId) -> Self {
        assert!(host.0 < Self::LEARNED, "{host} does not fit a row handle");
        AddrHandle(host.0)
    }

    fn learned(at: usize) -> Self {
        assert!(at < Self::LEARNED as usize, "more than 2^31 learned addresses");
        AddrHandle(at as u32 | Self::LEARNED)
    }

    fn entry(self) -> Option<usize> {
        (self.0 & Self::LEARNED != 0).then_some((self.0 & !Self::LEARNED) as usize)
    }

    fn fixed_host(self) -> Option<HostId> {
        (self.0 & Self::LEARNED == 0).then_some(HostId(self.0))
    }
}

/// The row address of a ring whose peers never move: nothing. The
/// stationary layer is "an ordinary HS-P2P over the fixed nodes" (§1);
/// only mobile peers' addresses go stale or `null`, so a stationary
/// row's address would be a copy of a fact that never changes, and a
/// hop reads the peer's host off the peer's own node instead. Zero
/// bytes: a ring of these rows keeps its keys alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoAddr;

impl RowAddr for NoAddr {
    const LEARNS: bool = false;

    fn fixed(_: HostId) -> Self {
        NoAddr
    }

    fn learned(_: usize) -> Self {
        NoAddr
    }

    fn entry(self) -> Option<usize> {
        None
    }

    fn fixed_host(self) -> Option<HostId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::graph::RouterId;

    #[test]
    fn address_validity_tracks_movement() {
        let mut map = AttachmentMap::new();
        let h = map.attach_new(RouterId(3));
        let addr = NetAddr::current(h, &map);
        assert!(addr.is_valid(&map));
        assert_eq!(addr.router(), RouterId(3));
        map.move_host(h, RouterId(4));
        assert!(!addr.is_valid(&map), "moving invalidates old addresses");
        let fresh = NetAddr::current(h, &map);
        assert!(fresh.is_valid(&map));
        assert_eq!(fresh.router(), RouterId(4));
    }

    #[test]
    fn handles_name_a_host_or_an_entry() {
        for host in [HostId(0), HostId(7), HostId(AddrHandle::LEARNED - 1)] {
            let row = AddrHandle::fixed(host);
            assert_eq!((row.fixed_host(), row.entry()), (Some(host), None));
        }
        for at in [0, 5, AddrHandle::LEARNED as usize - 1] {
            let row = AddrHandle::learned(at);
            assert_eq!((row.fixed_host(), row.entry()), (None, Some(at)));
        }
        assert_ne!(AddrHandle::fixed(HostId(3)), AddrHandle::learned(3));
    }

    #[test]
    fn cached_addr_reachability() {
        let mut map = AttachmentMap::new();
        let h = map.attach_new(RouterId(0));
        let row = CachedAddr { addr: Some(NetAddr::current(h, &map)) };
        assert!(row.is_reachable(&map));
        let null = CachedAddr { addr: None };
        assert!(!null.is_reachable(&map), "null address is unreachable");
        map.move_host(h, RouterId(1));
        assert!(!row.is_reachable(&map));
    }
}
