//! A tour of the HS-P2P substrate families the paper names as candidate
//! stationary layers (§2.2): the ring DHT with digit fingers
//! (Tornado/Chord family), the prefix-routing DHT (Pastry/Tapestry
//! family), and CAN's d-dimensional torus — all storing and finding the
//! same records under the same keys.
//!
//! ```text
//! cargo run --release --example substrate_tour
//! ```

use std::sync::Arc;

use bristle::netsim::attach::{AttachmentMap, HostId};
use bristle::netsim::dijkstra::DistanceCache;
use bristle::netsim::rng::Pcg64;
use bristle::netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
use bristle::overlay::can::CanOverlay;
use bristle::overlay::config::RingConfig;
use bristle::overlay::key::Key;
use bristle::overlay::meter::Meter;
use bristle::overlay::prefix::PrefixDht;
use bristle::overlay::ring::RingDht;

const NODES: usize = 400;
const LOOKUPS: usize = 500;

fn main() {
    let mut rng = Pcg64::seed_from_u64(2003);
    let topo = TransitStubTopology::generate(&TransitStubConfig::small(), &mut rng);
    let stubs = topo.stub_routers().to_vec();
    let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 2048);
    let mut attachments = AttachmentMap::new();
    let keys: Vec<Key> = (0..NODES).map(|_| Key::random(&mut rng)).collect();
    for _ in 0..NODES {
        attachments.attach_new(*rng.choose(&stubs));
    }

    // --- Ring DHT (Tornado-like, base-4 fingers, proximity selection) ---
    let mut ring: RingDht<u64> = RingDht::new(RingConfig::tornado());
    for (i, &k) in keys.iter().enumerate() {
        ring.insert(k, HostId(i as u32), 1).expect("insert");
    }
    ring.build_all_tables(&attachments, &dcache, &mut rng, 1);
    let mut meter = Meter::new();
    let mut ring_hops = 0usize;
    for i in 0..LOOKUPS {
        let src = keys[i % NODES];
        let target = Key::hash_of(format!("item-{i}").as_bytes());
        let route = ring.route(src, target, &attachments, &dcache, &mut meter).expect("route");
        ring_hops += route.hop_count();
    }
    println!(
        "ring DHT    : {} nodes, {:.1} rows/node, {:.2} hops/lookup (clockwise successor ownership)",
        ring.len(),
        ring.total_state() as f64 / ring.len() as f64,
        ring_hops as f64 / LOOKUPS as f64
    );

    // --- Prefix DHT (Pastry-like, digit-correcting) ---
    let mut prefix: PrefixDht<u64> = PrefixDht::new(RingConfig::tornado());
    for (i, &k) in keys.iter().enumerate() {
        prefix.insert(k, HostId(i as u32), 1).expect("insert");
    }
    prefix.build_all_tables(&attachments, &dcache, &mut rng);
    let mut prefix_hops = 0usize;
    for i in 0..LOOKUPS {
        let src = keys[i % NODES];
        let target = Key::hash_of(format!("item-{i}").as_bytes());
        prefix_hops += prefix.route(src, target).expect("route").len();
    }
    println!(
        "prefix DHT  : {} nodes, {:.1} rows/node, {:.2} hops/lookup (numerically-closest ownership)",
        prefix.len(),
        prefix.total_state() as f64 / prefix.len() as f64,
        prefix_hops as f64 / LOOKUPS as f64
    );

    // --- CAN (2-d torus) ---
    let mut can: CanOverlay<u64> = CanOverlay::new(2);
    for (i, &k) in keys.iter().enumerate() {
        can.join(k, HostId(i as u32), &mut rng).expect("join");
    }
    let mut can_hops = 0usize;
    for i in 0..LOOKUPS {
        let src = keys[i % NODES];
        let target = Key::hash_of(format!("item-{i}").as_bytes());
        can_hops += can.route(src, target).expect("route").len();
    }
    println!(
        "CAN d=2     : {} nodes, {:.1} neighbors/node, {:.2} hops/lookup (zone ownership)",
        can.len(),
        can.avg_state(),
        can_hops as f64 / LOOKUPS as f64
    );

    // All three agree on the abstraction: put/get roundtrip.
    let item = Key::hash_of(b"the-demo-item");
    let src = keys[0];
    let mut m = Meter::new();
    ring.publish(src, item, 7, 3, &attachments, &dcache, &mut m).expect("publish");
    let out = ring.lookup(src, item, 3, &attachments, &dcache, &mut m).expect("lookup");
    assert_eq!(out.value, Some(7));
    can.put(item, 7);
    assert_eq!(can.get(item).map(|(_, v)| *v), Some(7));
    println!("\nput/get of the same key works across substrates; Bristle's layers can sit on any of them.");
}
