//! Property-style tests of the CAN overlay: zone tiling, ownership
//! uniqueness, routing convergence, and takeover correctness under
//! arbitrary join/leave interleavings.
//!
//! Each invariant is driven with seeded [`Pcg64`] sampling: offline-safe,
//! and a failure reproduces from its seed.

use bristle_netsim::attach::HostId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::can::{point_of_key, CanOverlay, MAX_DIMS};
use bristle_overlay::key::Key;

/// A random interleaving of joins (true, ~70%) and leaves (false).
fn random_ops(rng: &mut Pcg64) -> Vec<bool> {
    let n = 1 + rng.index(59);
    (0..n).map(|_| rng.chance(0.7)).collect()
}

fn apply_ops(dims: usize, seed: u64, ops: &[bool]) -> CanOverlay<u32> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut can: CanOverlay<u32> = CanOverlay::new(dims);
    let mut members: Vec<Key> = Vec::new();
    let mut next_host = 0u32;
    for &join in ops {
        if join || members.len() <= 1 {
            let k = loop {
                let k = Key::random(&mut rng);
                if can.node(k).is_none() {
                    break k;
                }
            };
            can.join(k, HostId(next_host), &mut rng).expect("join");
            next_host += 1;
            members.push(k);
        } else {
            let idx = rng.index(members.len());
            let victim = members.swap_remove(idx);
            can.leave(victim).expect("leave");
        }
    }
    can
}

#[test]
fn torus_always_fully_tiled_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xC1);
    for _ in 0..32 {
        let dims = 1 + rng.index(3);
        let seed = rng.next_u64();
        let ops = random_ops(&mut rng);
        let can = apply_ops(dims, seed, &ops);
        assert!(can.covers_torus(), "coverage broken after {} ops", ops.len());
    }
}

#[test]
fn ownership_is_unique_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xC2);
    for _ in 0..32 {
        let dims = 1 + rng.index(3);
        let seed = rng.next_u64();
        let ops = random_ops(&mut rng);
        let can = apply_ops(dims, seed, &ops);
        let probes = 1 + rng.index(7);
        for _ in 0..probes {
            let p = point_of_key(Key(rng.next_u64()), dims);
            let owners = can.iter().filter(|n| n.zones.iter().any(|z| z.contains(&p))).count();
            assert_eq!(owners, 1, "point must have exactly one owner");
        }
    }
}

#[test]
fn routes_always_reach_the_owner_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xC3);
    for _ in 0..32 {
        let dims = 2 + rng.index(2);
        let seed = rng.next_u64();
        let ops = random_ops(&mut rng);
        let probe = rng.next_u64();
        let can = apply_ops(dims, seed, &ops);
        let members: Vec<Key> = can.iter().map(|n| n.key).collect();
        if members.is_empty() {
            continue;
        }
        let src = members[probe as usize % members.len()];
        let hops = can.route(src, Key(probe)).expect("route");
        let terminus = hops.last().copied().unwrap_or(src);
        assert_eq!(Some(terminus), can.owner(Key(probe)));
        assert!(hops.len() <= members.len(), "greedy routes never revisit");
    }
}

#[test]
fn neighbor_symmetry_holds_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xC4);
    for _ in 0..32 {
        let dims = 1 + rng.index(3);
        let seed = rng.next_u64();
        let ops = random_ops(&mut rng);
        let can = apply_ops(dims, seed, &ops);
        for n in can.iter() {
            for other in &n.neighbors {
                let back = can.node(*other).expect("neighbor exists");
                assert!(back.neighbors.contains(&n.key));
            }
        }
    }
}

#[test]
fn point_derivation_is_deterministic_and_spread_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xC5);
    for _ in 0..256 {
        let key = rng.next_u64();
        let dims = 1 + rng.index(MAX_DIMS);
        let a = point_of_key(Key(key), dims);
        let b = point_of_key(Key(key), dims);
        assert_eq!(a, b);
        if dims >= 2 {
            // Coordinates decorrelate: equal coordinates are astronomically
            // unlikely for the avalanche expansion.
            assert_ne!(a[0], a[1]);
        }
    }
}
