//! Property-style tests of the ring DHT over arbitrary populations.
//!
//! Each invariant is driven with seeded [`Pcg64`] sampling: offline-safe,
//! and a failure reproduces from its seed.

use std::sync::Arc;

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::{Graph, RouterId};
use bristle_netsim::rng::Pcg64;
use bristle_overlay::config::{NeighborSelection, RingConfig};
use bristle_overlay::key::Key;
use bristle_overlay::meter::Meter;
use bristle_overlay::ring::RingDht;

/// Builds an overlay from an arbitrary key set (flat physical network).
fn overlay_of(keys: &[u64], bits: u32) -> (RingDht<u32>, AttachmentMap, DistanceCache) {
    let mut g = Graph::with_vertices(2);
    g.add_edge(RouterId(0), RouterId(1), 1);
    let dcache = DistanceCache::new(Arc::new(g), 4);
    let mut attachments = AttachmentMap::new();
    let cfg = RingConfig {
        bits_per_digit: bits,
        candidate_window: 2,
        selection: NeighborSelection::First,
    };
    let mut dht = RingDht::new(cfg);
    for &k in keys {
        let host = attachments.attach_new(RouterId(0));
        let _ = dht.insert(Key(k), host, 1); // duplicates silently dropped
    }
    let mut rng = Pcg64::seed_from_u64(1);
    dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
    (dht, attachments, dcache)
}

fn random_keys(rng: &mut Pcg64) -> Vec<u64> {
    let n = 1 + rng.index(79);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn owner_is_clockwise_closest_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xB1);
    for _ in 0..48 {
        let keys = random_keys(&mut rng);
        let probe = rng.next_u64();
        let (dht, _, _) = overlay_of(&keys, 2);
        let owner = dht.owner(Key(probe)).unwrap();
        // No other node lies strictly between the probe and its owner.
        let gap = Key(probe).clockwise_to(owner);
        for k in dht.keys() {
            if k != owner {
                assert!(Key(probe).clockwise_to(k) > gap, "{k} closer than owner {owner}");
            }
        }
    }
}

#[test]
fn routes_terminate_at_owner_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xB2);
    for _ in 0..48 {
        let keys = random_keys(&mut rng);
        let probe = rng.next_u64();
        let bits = rng.range_inclusive(1, 4) as u32;
        let (dht, attachments, dcache) = overlay_of(&keys, bits);
        let all: Vec<Key> = dht.keys().collect();
        let src = all[rng.index(all.len())];
        let mut meter = Meter::new();
        let route = dht.route(src, Key(probe), &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(route.terminus(), dht.owner(Key(probe)).unwrap());
        // Route length bounded by population (monotone ⇒ no revisits).
        assert!(route.hop_count() <= all.len());
        // No node visited twice.
        let mut seen = std::collections::HashSet::new();
        seen.insert(src);
        for h in &route.hops {
            assert!(seen.insert(*h), "revisit of {h}");
        }
    }
}

#[test]
fn replica_sets_are_prefix_closed_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xB3);
    for _ in 0..48 {
        let keys = random_keys(&mut rng);
        let probe = rng.next_u64();
        let k1 = 1 + rng.index(4);
        let k2 = 1 + rng.index(4);
        let (dht, _, _) = overlay_of(&keys, 2);
        let (small, large) = (k1.min(k2), k1.max(k2));
        let a = dht.replica_set(Key(probe), small).unwrap();
        let b = dht.replica_set(Key(probe), large).unwrap();
        assert_eq!(&b[..a.len()], &a[..], "smaller set is a prefix of the larger");
        let mut dedup = b.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), b.len(), "replica set has no duplicates");
    }
}

#[test]
fn leaf_sets_contain_true_neighbors_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xB4);
    for _ in 0..48 {
        let keys = random_keys(&mut rng);
        let (dht, _, _) = overlay_of(&keys, 2);
        if dht.len() < 2 {
            continue;
        }
        for node in dht.iter() {
            let succ = dht.successor_of(node.key.offset(1)).unwrap();
            let pred = dht.predecessor_of(node.key).unwrap();
            assert!(node.leaf_keys.contains(&succ), "{} missing successor", node.key);
            assert!(node.leaf_keys.contains(&pred), "{} missing predecessor", node.key);
        }
    }
}

#[test]
fn reverse_index_total_matches_forward_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xB5);
    for _ in 0..48 {
        let keys = random_keys(&mut rng);
        let (dht, _, _) = overlay_of(&keys, 2);
        let rev = dht.reverse_index();
        let total: usize = rev.values().map(Vec::len).sum();
        assert_eq!(total, dht.total_state());
    }
}
