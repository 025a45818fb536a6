//! Property-style tests of the topology generator and shortest paths.
//!
//! Each invariant is driven with seeded [`Pcg64`] sampling: offline-safe,
//! and a failure reproduces from its seed.

use std::sync::Arc;

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::{single_source, DistanceCache, UNREACHABLE};
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::{RouterKind, TransitStubConfig, TransitStubTopology};

fn random_config(rng: &mut Pcg64) -> TransitStubConfig {
    TransitStubConfig {
        transit_domains: rng.range_inclusive(1, 3) as usize,
        routers_per_transit: rng.range_inclusive(1, 3) as usize,
        stubs_per_transit_router: rng.range_inclusive(1, 3) as usize,
        routers_per_stub: rng.range_inclusive(1, 6) as usize,
        ..TransitStubConfig::tiny()
    }
}

#[test]
fn generated_topologies_always_connected_seeded() {
    let mut outer = Pcg64::seed_from_u64(0xA1);
    for _ in 0..40 {
        let cfg = random_config(&mut outer);
        let mut rng = Pcg64::seed_from_u64(outer.next_u64());
        let topo = TransitStubTopology::generate(&cfg, &mut rng);
        assert_eq!(topo.router_count(), cfg.total_routers());
        assert!(topo.graph().is_connected());
        let d = single_source(topo.graph(), bristle_netsim::graph::RouterId(0));
        assert!(d.iter().all(|&x| x != UNREACHABLE));
    }
}

#[test]
fn stub_transit_partition_is_exact_seeded() {
    let mut outer = Pcg64::seed_from_u64(0xA2);
    for _ in 0..40 {
        let cfg = random_config(&mut outer);
        let mut rng = Pcg64::seed_from_u64(outer.next_u64());
        let topo = TransitStubTopology::generate(&cfg, &mut rng);
        let transit_expected = cfg.transit_domains * cfg.routers_per_transit;
        let stub_expected = transit_expected * cfg.stubs_per_transit_router * cfg.routers_per_stub;
        let (mut transit, mut stub) = (0, 0);
        for r in topo.graph().vertices() {
            match topo.kind(r) {
                RouterKind::Transit { .. } => transit += 1,
                RouterKind::Stub { .. } => stub += 1,
            }
        }
        assert_eq!(transit, transit_expected);
        assert_eq!(stub, stub_expected);
        assert_eq!(topo.stub_routers().len(), stub_expected);
    }
}

#[test]
fn distance_cache_always_agrees_with_dijkstra_seeded() {
    let mut outer = Pcg64::seed_from_u64(0xA3);
    for _ in 0..40 {
        let cfg = random_config(&mut outer);
        let mut rng = Pcg64::seed_from_u64(outer.next_u64());
        let topo = TransitStubTopology::generate(&cfg, &mut rng);
        let n = topo.router_count() as u32;
        let graph = Arc::new(topo.into_graph());
        let cache = DistanceCache::new(Arc::clone(&graph), 3); // tiny: force eviction
        let probes = 1 + outer.index(11);
        for _ in 0..probes {
            let a = bristle_netsim::graph::RouterId(outer.next_u64() as u32 % n);
            let b = bristle_netsim::graph::RouterId(outer.next_u64() as u32 % n);
            let expect = single_source(&graph, a)[b.index()];
            assert_eq!(cache.distance(a, b), expect);
        }
    }
}

#[test]
fn movement_epochs_strictly_increase_seeded() {
    let mut outer = Pcg64::seed_from_u64(0xA4);
    for _ in 0..40 {
        let mut rng = Pcg64::seed_from_u64(outer.next_u64());
        let moves = 1 + outer.index(19);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let mut map = AttachmentMap::new();
        let h = map.attach_new(stubs[0]);
        let mut last_epoch = map.current(h).epoch;
        for _ in 0..moves {
            let a = map.move_host_random(h, &stubs, &mut rng);
            assert!(a.epoch > last_epoch);
            last_epoch = a.epoch;
        }
        assert_eq!(map.total_moves(), moves as u64);
    }
}
