//! Route execution and cost accounting.
//!
//! A [`Route`] records what the paper measures per sampled route: the
//! *application-level hops* (overlay forwardings) and the *path cost* — the
//! sum over hops of the physical shortest-path weight between the two
//! attachment routers (computed with Dijkstra, paper §4.1).

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;

use crate::addr::RowAddr;
use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::{RingDht, RingError, Slot};

/// The outcome of routing a message through the overlay.
#[derive(Debug, Clone)]
pub struct Route {
    /// Originating node.
    pub source: Key,
    /// The key the message was addressed to.
    pub target: Key,
    /// Nodes visited after the source; the last one is the owner of
    /// `target`. Empty when the source already owns the target.
    pub hops: Vec<Key>,
    /// Sum of per-hop physical shortest-path weights.
    pub path_cost: u64,
}

impl Route {
    /// Number of application-level hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The node that owns the target key (the route's endpoint).
    pub fn terminus(&self) -> Key {
        *self.hops.last().unwrap_or(&self.source)
    }
}

/// Hard bound on route length. Monotone routing ends within `len()` hops,
/// so a walk this long means the overlay is corrupt: [`RingDht::walk`]
/// panics (in every build profile) instead of returning an error.
const MAX_HOPS: usize = 4096;

impl<V, A: RowAddr> RingDht<V, A> {
    /// The nodes a message from the node at `from` visits on its way to
    /// the owner of `target`, by slab position: `from` itself is not
    /// yielded, the last item is the owner, and there are no items when
    /// `from` already owns `target`. The one route loop of the crate —
    /// [`RingDht::route_as`] and Bristle's `_discovery` both read the
    /// nodes they land on straight off the slots it hands out. The walk
    /// borrows the ring, so no insert can move a slot under it; a caller
    /// that keeps a slot past the walk keeps it only until the next
    /// insert.
    ///
    /// # Panics
    /// Panics past `MAX_HOPS` (4096) hops, which only a corrupt overlay
    /// reaches.
    pub fn walk(&self, from: Slot, target: Key) -> impl Iterator<Item = Slot> + '_ {
        let (mut cur, mut hops) = (from, 0usize);
        std::iter::from_fn(move || {
            cur = self.next_hop_from(cur, target)?;
            hops += 1;
            assert!(hops <= MAX_HOPS, "route exceeded {MAX_HOPS} hops: overlay corrupt");
            Some(cur)
        })
    }

    /// Routes from `src` toward `target` along [`RingDht::walk`], charging
    /// every hop and its physical cost to `meter` under the given message
    /// kind, and returns the keys visited.
    pub fn route_as(
        &self,
        src: Key,
        target: Key,
        kind: MessageKind,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Route, RingError> {
        let from = self.slot_of(src)?;
        let mut hops = Vec::new();
        let mut path_cost = 0u64;
        let mut cur_router = attachments.router(self.at(from).host);
        for next in self.walk(from, target) {
            let node = self.at(next);
            let next_router = attachments.router(node.host);
            let cost = dcache.distance(cur_router, next_router);
            meter.record(kind, cost);
            path_cost += cost;
            hops.push(node.key);
            cur_router = next_router;
        }
        Ok(Route { source: src, target, hops, path_cost })
    }

    /// Routes an ordinary application message (kind [`MessageKind::RouteHop`]).
    pub fn route(
        &self,
        src: Key,
        target: Key,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Route, RingError> {
        self.route_as(src, target, MessageKind::RouteHop, attachments, dcache, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use bristle_netsim::rng::Pcg64;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (RingDht<()>, AttachmentMap, DistanceCache) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
        let mut attachments = AttachmentMap::new();
        let mut dht = RingDht::new(RingConfig::tornado());
        for _ in 0..n {
            let host = attachments.attach_new(*rng.choose(&stubs));
            let key = Key::random(&mut rng);
            dht.insert(key, host, 1).unwrap();
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        (dht, attachments, dcache)
    }

    #[test]
    fn route_reaches_owner_and_meters_hops() {
        let (dht, attachments, dcache) = setup(100, 1);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let target = Key::random(&mut Pcg64::seed_from_u64(2));
        let route = dht.route(keys[0], target, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(route.terminus(), dht.owner(target).unwrap());
        assert_eq!(meter.count(MessageKind::RouteHop) as usize, route.hop_count());
        assert_eq!(meter.cost(MessageKind::RouteHop), route.path_cost);
    }

    #[test]
    fn route_to_self_owned_key_is_free() {
        let (dht, attachments, dcache) = setup(50, 3);
        let some = dht.keys().next().unwrap();
        let mut meter = Meter::new();
        // A node's own key is owned by itself.
        let route = dht.route(some, some, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(route.hop_count(), 0);
        assert_eq!(route.path_cost, 0);
        assert_eq!(route.terminus(), some);
    }

    #[test]
    fn discovery_kind_is_metered_separately() {
        let (dht, attachments, dcache) = setup(80, 4);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        dht.route_as(
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
    fn path_cost_respects_triangle_via_direct_distance() {
        // Route cost can exceed the direct src→owner distance (overlay
        // stretch) but each hop is itself a shortest path, so the total is
        // at least the direct distance.
        let (dht, attachments, dcache) = setup(100, 5);
        let keys: Vec<Key> = dht.keys().collect();
        let mut rng = Pcg64::seed_from_u64(6);
        let mut meter = Meter::new();
        for _ in 0..50 {
            let src = *rng.choose(&keys);
            let dst = *rng.choose(&keys);
            let route = dht.route(src, dst, &attachments, &dcache, &mut meter).unwrap();
            let direct = dcache.distance(
                attachments.router(dht.node(src).unwrap().host),
                attachments.router(dht.node(route.terminus()).unwrap().host),
            );
            assert!(route.path_cost >= direct, "route cheaper than direct path");
        }
    }

    /// `route_as` as it was before [`RingDht::walk`]: its own loop over
    /// `next_hop_from`. Kept verbatim as the oracle.
    fn route_as_by_own_loop<V>(
        dht: &RingDht<V>,
        src: Key,
        target: Key,
        kind: MessageKind,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Route, RingError> {
        let mut hops = Vec::new();
        let mut path_cost = 0u64;
        let mut cur = dht.slot_of(src)?;
        let mut cur_router = attachments.router(dht.at(cur).host);
        while let Some(next) = dht.next_hop_from(cur, target) {
            let node = dht.at(next);
            let next_router = attachments.router(node.host);
            let cost = dcache.distance(cur_router, next_router);
            meter.record(kind, cost);
            path_cost += cost;
            hops.push(node.key);
            cur = next;
            cur_router = next_router;
            assert!(hops.len() <= MAX_HOPS, "route exceeded {MAX_HOPS} hops: overlay corrupt");
        }
        Ok(Route { source: src, target, hops, path_cost })
    }

    #[test]
    fn route_as_on_walk_is_the_route_its_own_loop_took() {
        for n in [1, 2, 300] {
            let (mut dht, attachments, dcache) = setup(n, n as u64);
            let mut rng = Pcg64::seed_from_u64(7);
            let (mut new_meter, mut old_meter) = (Meter::new(), Meter::new());
            // Fresh tables, then tables with a third of the ring gone.
            for stale in [false, true] {
                if stale && n > 2 {
                    let keys: Vec<Key> = dht.keys().collect();
                    keys.iter().step_by(3).for_each(|&k| drop(dht.remove(k)));
                }
                let keys: Vec<Key> = dht.keys().collect();
                for _ in 0..200 {
                    let src = *rng.choose(&keys);
                    let target =
                        if rng.chance(0.5) { *rng.choose(&keys) } else { Key::random(&mut rng) };
                    let kind = MessageKind::DiscoveryHop;
                    let new =
                        dht.route_as(src, target, kind, &attachments, &dcache, &mut new_meter);
                    let old = route_as_by_own_loop(
                        &dht,
                        src,
                        target,
                        kind,
                        &attachments,
                        &dcache,
                        &mut old_meter,
                    );
                    let (new, old) = (new.unwrap(), old.unwrap());
                    assert_eq!(
                        (&new.hops, new.path_cost, new.terminus()),
                        (&old.hops, old.path_cost, old.terminus()),
                        "n = {n}, {src} -> {target}"
                    );
                    // `walk` hands out the same nodes, by position.
                    let from = dht.slot_of(src).unwrap();
                    let walked: Vec<Key> = dht.walk(from, target).map(|s| dht.at(s).key).collect();
                    assert_eq!(walked, new.hops);
                }
                assert_eq!(new_meter.tallies(), old_meter.tallies(), "n = {n}");
            }
            let gone = Key(1);
            assert!(!dht.contains(gone));
            assert_eq!(
                dht.route(gone, Key(2), &attachments, &dcache, &mut new_meter).unwrap_err(),
                RingError::UnknownNode(gone)
            );
        }
    }
}
