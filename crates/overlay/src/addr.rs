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
/// One sits in every routing row, so its width is gated below.
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

/// The address half of a routing row: the paper's state-pair `<key,
/// addr>` (§1) is a node's `keys()[i]` and `addrs()[i]` (see
/// [`crate::node::NodeState`]).
///
/// `addr == None` is the paper's "null" address — the key of a known peer
/// whose network address has not been resolved (or has been invalidated
/// and cleared).
///
/// A forwarding hop compares every row's key and reads one row's
/// address, so the two halves live in parallel arrays: the scan reads 8
/// bytes a row, not 24. At N = 5e4 the mobile ring holds 1.4 M rows at
/// 24 B and the stationary ring 1.1 M at 8 B ([`NoAddr`]), so most of
/// the live heap scales with these widths (DESIGN §13) — which is why
/// the attachment epoch is a `u32`: as a `u64` it pads the address to 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAddr {
    /// The peer's network address, if resolved.
    pub addr: Option<NetAddr>,
}

// A field added to either half of a row fails the build here, not the
// benchmark.
const _: () = assert!(std::mem::size_of::<NetAddr>() == 12);
const _: () = assert!(std::mem::size_of::<Key>() == 8);
const _: () = assert!(std::mem::size_of::<CachedAddr>() == 16);
const _: () = assert!(std::mem::size_of::<NoAddr>() == 0);

impl CachedAddr {
    /// Whether the row currently lets us *reach* the peer: the address is
    /// present and still valid.
    pub fn is_reachable(&self, attachments: &AttachmentMap) -> bool {
        self.addr.is_some_and(|a| a.is_valid(attachments))
    }
}

/// What a ring keeps beside each row's key: the half of a state-pair
/// that can go stale. A ring is built over one of the two kinds, so the
/// compiler checks that no reader of the other is left.
pub trait RowAddr: Copy + PartialEq + std::fmt::Debug {
    /// The row for the peer on `host`, as a build learns it now.
    fn resolve(host: HostId, attachments: &AttachmentMap) -> Self;
    /// The row for a peer whose address `addr` was just learned.
    fn learned(addr: NetAddr) -> Self;
}

impl RowAddr for CachedAddr {
    fn resolve(host: HostId, attachments: &AttachmentMap) -> Self {
        CachedAddr { addr: Some(NetAddr::current(host, attachments)) }
    }

    fn learned(addr: NetAddr) -> Self {
        CachedAddr { addr: Some(addr) }
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
    fn resolve(_: HostId, _: &AttachmentMap) -> Self {
        NoAddr
    }

    fn learned(_: NetAddr) -> Self {
        NoAddr
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
