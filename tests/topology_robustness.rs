//! Robustness of the headline conclusions to the topology family:
//! re-runs the locality (Fig. 9) and naming (Fig. 7) comparisons on flat
//! **Waxman** topologies instead of transit-stub, checking the winners
//! don't change. The paper only evaluates on GT-ITM transit-stub; these
//! tests rule out the conclusions being artifacts of that model.

use std::collections::HashMap;
use std::sync::Arc;

use bristle::core::ldt::Ldt;
use bristle::core::registry::Registrant;
use bristle::netsim::attach::AttachmentMap;
use bristle::netsim::dijkstra::DistanceCache;
use bristle::netsim::rng::Pcg64;
use bristle::netsim::waxman::{WaxmanConfig, WaxmanTopology};
use bristle::overlay::config::RingConfig;
use bristle::overlay::key::Key;
use bristle::overlay::ring::RingDht;

/// Average per-tree per-edge LDT cost on a Waxman network, for one
/// neighbor-selection mode.
fn ldt_cost_on_waxman(ring: RingConfig, seed: u64) -> f64 {
    let mut rng = Pcg64::seed_from_u64(seed);
    let topo = WaxmanTopology::generate(&WaxmanConfig::small(), &mut rng);
    let routers = topo.routers();
    let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 1024);
    let mut attachments = AttachmentMap::new();
    let mut dht: RingDht<()> = RingDht::new(ring);
    for _ in 0..300 {
        let host = attachments.attach_new(*rng.choose(&routers));
        let cap = rng.range_inclusive(1, 15) as u32;
        loop {
            let k = Key::random(&mut rng);
            if dht.insert(k, host, cap).is_ok() {
                break;
            }
        }
    }
    dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
    let rev = dht.reverse_index();
    let caps: HashMap<Key, u32> = dht.iter().map(|n| (n.key, n.capacity)).collect();
    let node_router: HashMap<Key, bristle::netsim::graph::RouterId> =
        dht.iter().map(|n| (n.key, attachments.router(n.host))).collect();
    let mut total = 0u64;
    let mut edges = 0usize;
    for root in dht.keys().collect::<Vec<_>>() {
        let registrants: Vec<Registrant> = rev
            .get(&root)
            .map(|hs| hs.iter().map(|&h| Registrant::new(h, caps[&h])).collect())
            .unwrap_or_default();
        let tree = Ldt::build(Registrant::new(root, caps[&root]), &registrants, 1);
        let (c, e) = tree.edge_cost_sum(|a, b| dcache.distance(node_router[&a], node_router[&b]));
        total += c;
        edges += e;
    }
    total as f64 / edges.max(1) as f64
}

#[test]
fn locality_advantage_survives_waxman_topologies() {
    let with = ldt_cost_on_waxman(RingConfig::tornado(), 11);
    let without = ldt_cost_on_waxman(RingConfig::tornado_no_locality(), 11);
    assert!(
        with < without,
        "locality must stay cheaper on Waxman too: with {with} vs without {without}"
    );
}

#[test]
fn naming_advantage_survives_waxman_topologies() {
    // Scrambled vs clustered route hops on a Waxman physical network,
    // with the mobile-layer semantics emulated at the overlay level:
    // every hop into a "mobile" node (keys outside the stationary band)
    // costs an extra stationary-layer resolution route.
    use bristle::core::naming::{Mobility, NamingScheme};
    use bristle::overlay::meter::Meter;

    let run = |clustered: bool| -> f64 {
        let mut rng = Pcg64::seed_from_u64(21);
        let topo = WaxmanTopology::generate(&WaxmanConfig::small(), &mut rng);
        let routers = topo.routers();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 1024);
        let mut attachments = AttachmentMap::new();
        let n_stat = 100usize;
        let n_mob = 100usize;
        let naming = if clustered {
            NamingScheme::clustered(n_stat as f64 / (n_stat + n_mob) as f64)
        } else {
            NamingScheme::Scrambled
        };
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        let mut stationary = Vec::new();
        let mut mobile = std::collections::HashSet::new();
        for i in 0..n_stat + n_mob {
            let class = if i < n_stat { Mobility::Stationary } else { Mobility::Mobile };
            let host = attachments.attach_new(*rng.choose(&routers));
            loop {
                let k = naming.assign(class, &mut rng);
                if dht.insert(k, host, 1).is_ok() {
                    if class == Mobility::Stationary {
                        stationary.push(k);
                    } else {
                        mobile.insert(k);
                    }
                    break;
                }
            }
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        let mut meter = Meter::new();
        let mut hops = 0usize;
        let samples = 300;
        for _ in 0..samples {
            let src = *rng.choose(&stationary);
            let dst = *rng.choose(&stationary);
            let mut cur = src;
            while let Some(next) = dht.next_hop(cur, dst).expect("route") {
                hops += 1;
                if mobile.contains(&next) {
                    // Emulated `_discovery`: one stationary-layer route's
                    // worth of extra hops (≈ log4 of the stationary count).
                    let route =
                        dht.route(src, next, &attachments, &dcache, &mut meter).expect("resolve");
                    hops += route.hop_count();
                }
                cur = next;
            }
        }
        hops as f64 / samples as f64
    };

    let scrambled = run(false);
    let clustered = run(true);
    assert!(
        clustered < scrambled,
        "clustered naming must win on Waxman too: {clustered} vs {scrambled}"
    );
}
