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

/// One routing-state row: `<key, addr>` as in the paper (§1).
///
/// `addr == None` is the paper's "null" address — the key of a known peer
/// whose network address has not been resolved (or has been invalidated
/// and cleared).
///
/// 24 bytes: 8 of key, 12 of address, 4 of `Option` tag. A node's rows
/// are scanned on every hop it forwards and at N = 5e4 the two rings hold
/// 2.5 M of them, so both the hop's cache lines and most of the live heap
/// scale with this width (DESIGN §13) — which is why the attachment epoch
/// is a `u32`: as a `u64` it pads the row to 40.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePair {
    /// The peer's hash key.
    pub key: Key,
    /// The peer's network address, if resolved.
    pub addr: Option<NetAddr>,
}

// A field added to a row fails the build here, not the benchmark.
const _: () = assert!(std::mem::size_of::<NetAddr>() == 12);
const _: () = assert!(std::mem::size_of::<Option<NetAddr>>() == 16);
const _: () = assert!(std::mem::size_of::<StatePair>() == 24);

impl StatePair {
    /// A state-pair with a resolved address.
    pub fn resolved(key: Key, addr: NetAddr) -> StatePair {
        StatePair { key, addr: Some(addr) }
    }

    /// A state-pair whose address is not (yet) known.
    pub fn unresolved(key: Key) -> StatePair {
        StatePair { key, addr: None }
    }

    /// Whether the pair currently lets us *reach* the peer: the address is
    /// present and still valid.
    pub fn is_reachable(&self, attachments: &AttachmentMap) -> bool {
        self.addr.is_some_and(|a| a.is_valid(attachments))
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
    fn state_pair_reachability() {
        let mut map = AttachmentMap::new();
        let h = map.attach_new(RouterId(0));
        let pair = StatePair::resolved(Key(1), NetAddr::current(h, &map));
        assert!(pair.is_reachable(&map));
        let null = StatePair::unresolved(Key(1));
        assert!(!null.is_reachable(&map), "null address is unreachable");
        map.move_host(h, RouterId(1));
        assert!(!pair.is_reachable(&map));
    }
}
