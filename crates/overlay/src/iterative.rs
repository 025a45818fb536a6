//! Iterative (source-driven) routing.
//!
//! Recursive routing — each hop forwards the message onward — is what
//! the mobile layer uses for data traffic. For *queries* like
//! `_discovery`, many HS-P2P deployments prefer the **iterative** mode:
//! the querier contacts each hop itself and learns the next hop from the
//! reply. The trade-offs are classic:
//!
//! * the querier keeps control (timeouts, retries, parallelism) and
//!   needs no trust in intermediaries — but
//! * every step costs a full round trip to the querier instead of one
//!   overlay-edge traversal, so the physical cost is higher unless the
//!   querier is central.
//!
//! [`RingDht::route_iterative`] implements the mode so the ablation
//! suite can price it against recursive discovery.

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;

use crate::addr::RowAddr;
use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::{RingDht, RingError};
use crate::route::Route;

impl<V, A: RowAddr> RingDht<V, A> {
    /// Routes from `src` toward `target` iteratively: `src` asks each
    /// successive hop for its best next hop, paying a round trip per
    /// step. Returns the same [`Route`] shape as recursive routing, with
    /// `path_cost` covering all round trips.
    pub fn route_iterative(
        &self,
        src: Key,
        target: Key,
        kind: MessageKind,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Route, RingError> {
        let from = self.slot_of(src)?;
        let src_router = attachments.router(self.at(from).host);
        let mut hops = Vec::new();
        let mut path_cost = 0u64;
        for next in self.walk(from, target) {
            // Round trip: query to `next`, reply with its next hop.
            let node = self.at(next);
            let rtt = 2 * dcache.distance(src_router, attachments.router(node.host));
            meter.record(kind, rtt);
            path_cost += rtt;
            hops.push(node.key);
        }
        Ok(Route { source: src, target, hops, path_cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use bristle_netsim::rng::Pcg64;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (RingDht<()>, AttachmentMap, DistanceCache, Pcg64) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
        let mut attachments = AttachmentMap::new();
        let mut dht = RingDht::new(RingConfig::tornado());
        for _ in 0..n {
            let host = attachments.attach_new(*rng.choose(&stubs));
            dht.insert(Key::random(&mut rng), host, 1).unwrap();
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        (dht, attachments, dcache, rng)
    }

    #[test]
    fn iterative_visits_same_nodes_as_recursive() {
        let (dht, attachments, dcache, mut rng) = setup(100, 1);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        for _ in 0..50 {
            let src = *rng.choose(&keys);
            let target = Key::random(&mut rng);
            let recursive = dht.route(src, target, &attachments, &dcache, &mut meter).unwrap();
            let iterative = dht
                .route_iterative(
                    src,
                    target,
                    MessageKind::DiscoveryHop,
                    &attachments,
                    &dcache,
                    &mut meter,
                )
                .unwrap();
            assert_eq!(recursive.hops, iterative.hops, "same greedy decisions");
        }
    }

    #[test]
    fn iterative_costs_more_on_average() {
        let (dht, attachments, dcache, mut rng) = setup(120, 2);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let (mut rec, mut ite) = (0u64, 0u64);
        for _ in 0..100 {
            let src = *rng.choose(&keys);
            let target = Key::random(&mut rng);
            rec += dht.route(src, target, &attachments, &dcache, &mut meter).unwrap().path_cost;
            ite += dht
                .route_iterative(
                    src,
                    target,
                    MessageKind::DiscoveryHop,
                    &attachments,
                    &dcache,
                    &mut meter,
                )
                .unwrap()
                .path_cost;
        }
        assert!(ite > rec, "round trips {ite} must exceed forwarding {rec}");
    }

    #[test]
    fn iterative_meters_under_requested_kind() {
        let (dht, attachments, dcache, _) = setup(60, 3);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        dht.route_iterative(
            keys[0],
            keys[keys.len() / 2],
            MessageKind::DiscoveryHop,
            &attachments,
            &dcache,
            &mut meter,
        )
        .unwrap();
        assert_eq!(meter.count(MessageKind::RouteHop), 0);
        assert!(meter.count(MessageKind::DiscoveryHop) > 0);
    }

    #[test]
    fn self_owned_target_is_free() {
        let (dht, attachments, dcache, _) = setup(30, 4);
        let k = dht.keys().next().unwrap();
        let mut meter = Meter::new();
        let r = dht
            .route_iterative(k, k, MessageKind::RouteHop, &attachments, &dcache, &mut meter)
            .unwrap();
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.path_cost, 0);
    }
}
