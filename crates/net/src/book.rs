//! The address book: where protocol addresses meet the real network.
//!
//! On the wire the machines speak [`WireAddr`]s — `(host, router,
//! epoch)` triples from the simulated topology. A real deployment needs
//! one more indirection: which UDP endpoint is that host listening on?
//! The book records it, host → endpoint. A move changes a host's router
//! and epoch, never its socket, so the book never hears of one.
//!
//! Staleness is *not* the book's business: an address whose epoch the
//! overlay has retired is rejected by `NodeEnv::addr_current` before
//! the book is ever consulted (the socket driver checks at send time;
//! the simulator drops at arrival — indistinguishable unless a node
//! moves within one datagram flight, which scripted scenarios avoid).

use std::collections::HashMap;
use std::net::SocketAddr;

use bristle_proto::wire::WireAddr;

/// Maps overlay addresses to real socket endpoints.
#[derive(Debug, Default)]
pub struct AddressBook {
    /// Host id → the UDP endpoint its node listens on. Hosts are
    /// one-per-node in the topology, so this is the identity mapping.
    by_host: HashMap<u32, SocketAddr>,
}

impl AddressBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the node addressed by `addr` listens on `endpoint`,
    /// replacing any previous endpoint for the same host.
    pub fn register(&mut self, addr: WireAddr, endpoint: SocketAddr) {
        self.by_host.insert(addr.host, endpoint);
    }

    /// The endpoint the node addressed by `addr` listens on. Router and
    /// epoch are deliberately ignored (see the module docs: staleness is
    /// the env's check, reachability is the book's).
    pub fn resolve(&self, addr: WireAddr) -> Option<SocketAddr> {
        self.by_host.get(&addr.host).copied()
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.by_host.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.by_host.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(host: u32, router: u32) -> WireAddr {
        WireAddr { host, router, epoch: 0 }
    }

    fn ep(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn register_and_resolve() {
        let mut book = AddressBook::new();
        book.register(addr(1, 10), ep(4001));
        book.register(addr(2, 10), ep(4002));
        assert_eq!(book.resolve(addr(1, 10)), Some(ep(4001)));
        // A stale epoch still resolves — staleness is the env's check.
        assert_eq!(book.resolve(WireAddr { host: 1, router: 10, epoch: 9 }), Some(ep(4001)));
        // So does a moved host: the endpoint itself never moved.
        assert_eq!(book.resolve(WireAddr { host: 1, router: 20, epoch: 1 }), Some(ep(4001)));
        assert_eq!(book.resolve(addr(3, 10)), None);
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn reregistering_a_host_replaces_its_endpoint() {
        let mut book = AddressBook::new();
        book.register(addr(1, 10), ep(4001));
        book.register(addr(1, 20), ep(5001));
        assert_eq!(book.resolve(addr(1, 10)), Some(ep(5001)));
        assert_eq!(book.len(), 1);
    }
}
