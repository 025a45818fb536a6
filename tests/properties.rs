//! Property-style tests over the stack's core invariants.
//!
//! Each invariant is driven with seeded [`Pcg64`] sampling, so the suite
//! runs in the offline build with zero external dependencies and a
//! failure reproduces from its seed.

use bristle::core::advertise::{plan_advertisement, AdvertiseStep};
use bristle::core::analysis::{member_only_responsibility, non_member_responsibility, Population};
use bristle::core::ldt::Ldt;
use bristle::core::lease::LeaseTable;
use bristle::core::naming::{Mobility, NamingScheme};
use bristle::core::registry::Registrant;
use bristle::core::time::SimTime;
use bristle::netsim::dijkstra::{single_source, UNREACHABLE};
use bristle::netsim::graph::{Graph, RouterId};
use bristle::netsim::rng::Pcg64;
use bristle::overlay::key::Key;

fn random_registrants(rng: &mut Pcg64, max: usize) -> Vec<Registrant> {
    let n = rng.index(max + 1);
    (0..n).map(|i| Registrant::new(Key(i as u64 + 1), rng.range_inclusive(1, 15) as u32)).collect()
}

fn random_graph(seed: u64, n: usize) -> Graph {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut g = Graph::with_vertices(n);
    for i in 1..n {
        let j = rng.index(i);
        g.add_edge(RouterId(i as u32), RouterId(j as u32), rng.range_inclusive(1, 30) as u32);
    }
    for _ in 0..n / 2 {
        let a = rng.index(n);
        let b = rng.index(n);
        if a != b && !g.has_edge(RouterId(a as u32), RouterId(b as u32)) {
            g.add_edge(RouterId(a as u32), RouterId(b as u32), rng.range_inclusive(1, 30) as u32);
        }
    }
    g
}

// ---------------------------------------------------------------------
// Key-space arithmetic.
// ---------------------------------------------------------------------

#[test]
fn clockwise_distance_antisymmetric_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x11);
    for _ in 0..500 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (ka, kb) = (Key(a), Key(b));
        let cw = ka.clockwise_to(kb);
        let ccw = kb.clockwise_to(ka);
        if a == b {
            assert_eq!(cw, 0);
            assert_eq!(ccw, 0);
        } else {
            assert_eq!(cw.wrapping_add(ccw), 0, "cw + ccw wraps to ring size");
        }
    }
    // Edge pairs the sampler is unlikely to hit.
    for (a, b) in [(0, u64::MAX), (u64::MAX, 0), (1, 0), (u64::MAX, u64::MAX)] {
        let cw = Key(a).clockwise_to(Key(b));
        let ccw = Key(b).clockwise_to(Key(a));
        if a == b {
            assert_eq!(cw, 0);
        } else {
            assert_eq!(cw.wrapping_add(ccw), 0);
        }
    }
}

#[test]
fn ring_distance_symmetric_and_bounded_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x12);
    for _ in 0..500 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let d = Key(a).ring_distance(Key(b));
        assert_eq!(d, Key(b).ring_distance(Key(a)));
        assert!(d <= u64::MAX / 2 + 1);
    }
}

#[test]
fn offset_roundtrip_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x13);
    for _ in 0..500 {
        let (a, delta) = (rng.next_u64(), rng.next_u64());
        let k = Key(a).offset(delta);
        assert_eq!(Key(a).clockwise_to(k), delta);
    }
}

#[test]
fn cw_range_consistent_with_distances_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x14);
    for _ in 0..500 {
        let (s, xk, e) = (Key(rng.next_u64()), Key(rng.next_u64()), Key(rng.next_u64()));
        if s != e {
            let inside = s.in_cw_range(xk, e);
            let expect = s.clockwise_to(xk) != 0 && s.clockwise_to(xk) <= s.clockwise_to(e);
            assert_eq!(inside, expect);
        }
    }
}

#[test]
fn digit_reconstruction_all_widths_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x15);
    for _ in 0..200 {
        let v = rng.next_u64();
        for bits in 1u32..=16 {
            let k = Key(v);
            let mut rebuilt: u64 = 0;
            for level in (0..Key::levels(bits)).rev() {
                let shift = level * bits;
                if shift >= 64 {
                    continue;
                }
                rebuilt |= k.digit(level, bits) << shift;
            }
            assert_eq!(rebuilt, v, "bits {bits}");
        }
    }
}

// ---------------------------------------------------------------------
// Naming scheme.
// ---------------------------------------------------------------------

#[test]
fn clustered_assignment_always_legal_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x21);
    for _ in 0..50 {
        let frac = 0.01 + rng.f64() * 0.98;
        let scheme = NamingScheme::clustered(frac);
        for _ in 0..32 {
            let s = scheme.assign(Mobility::Stationary, &mut rng);
            assert!(scheme.permits(s, Mobility::Stationary));
            assert!(!scheme.permits(s, Mobility::Mobile));
            let m = scheme.assign(Mobility::Mobile, &mut rng);
            assert!(scheme.permits(m, Mobility::Mobile));
            assert!(!scheme.permits(m, Mobility::Stationary));
        }
    }
}

#[test]
fn nabla_matches_requested_fraction_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x22);
    for _ in 0..200 {
        let frac = 0.01 + rng.f64() * 0.99;
        let scheme = NamingScheme::clustered(frac);
        assert!((scheme.nabla() - frac).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// Advertisement partitioning (Fig. 4).
// ---------------------------------------------------------------------

#[test]
fn partitions_cover_exactly_once_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x31);
    for _ in 0..200 {
        let regs = random_registrants(&mut rng, 39);
        let avail = rng.range_inclusive(0, 20) as u32;
        let v = rng.range_inclusive(1, 3) as u32;
        let steps = plan_advertisement(&regs, avail, v);
        let mut covered: Vec<Key> = steps
            .iter()
            .flat_map(|s: &AdvertiseStep| {
                std::iter::once(s.head.key).chain(s.delegated.iter().map(|r| r.key))
            })
            .collect();
        covered.sort_unstable();
        let mut expected: Vec<Key> = regs.iter().map(|r| r.key).collect();
        expected.sort_unstable();
        assert_eq!(covered, expected);
    }
}

#[test]
fn partition_sizes_near_equal_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x32);
    for _ in 0..200 {
        let regs = random_registrants(&mut rng, 39);
        let avail = rng.range_inclusive(2, 20) as u32;
        let steps = plan_advertisement(&regs, avail, 1);
        if steps.len() > 1 {
            let sizes: Vec<usize> = steps.iter().map(AdvertiseStep::partition_size).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "sizes {sizes:?}");
        }
    }
}

#[test]
fn heads_are_top_capacities_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x33);
    for _ in 0..200 {
        let regs = random_registrants(&mut rng, 39);
        if regs.is_empty() {
            continue;
        }
        let avail = rng.range_inclusive(2, 20) as u32;
        let steps = plan_advertisement(&regs, avail, 1);
        let k = steps.len();
        let mut caps: Vec<u32> = regs.iter().map(|r| r.capacity).collect();
        caps.sort_unstable_by(|a, b| b.cmp(a));
        let mut heads: Vec<u32> = steps.iter().map(|s| s.head.capacity).collect();
        heads.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(heads, caps[..k].to_vec());
    }
}

// ---------------------------------------------------------------------
// LDT structure.
// ---------------------------------------------------------------------

#[test]
fn ldt_spans_membership_exactly_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x41);
    for _ in 0..200 {
        let regs = random_registrants(&mut rng, 39);
        let root_cap = rng.range_inclusive(1, 15) as u32;
        // A load of `used` units on every member, as the capacity it
        // leaves free.
        let used = rng.range_inclusive(0, 15) as u32;
        let regs: Vec<Registrant> =
            regs.iter().map(|r| Registrant::new(r.key, r.capacity.saturating_sub(used))).collect();
        let root = Registrant::new(Key(0), root_cap.saturating_sub(used));
        let tree = Ldt::build(root, &regs, 1);
        assert_eq!(tree.len(), regs.len() + 1);
        assert_eq!(tree.edge_count(), regs.len());
        assert!(tree.depth() >= 1);
        assert!(tree.depth() as usize <= regs.len() + 1);
        let total: usize = tree.level_histogram().iter().sum();
        assert_eq!(total, tree.len());
        for (i, n) in tree.nodes().iter().enumerate() {
            if let Some(p) = n.parent {
                assert!((p as usize) < i, "parents precede children");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Leases.
// ---------------------------------------------------------------------

#[test]
fn lease_validity_window_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x51);
    for _ in 0..500 {
        let now = rng.index(1_000_000) as u64;
        let ttl = rng.index(10_000) as u64;
        let probe = rng.index(20_000) as u64;
        let mut t = LeaseTable::new();
        t.grant(Key(1), Key(2), SimTime(now), ttl);
        let at = SimTime(now + probe);
        assert_eq!(t.is_fresh(Key(1), Key(2), at), probe < ttl);
    }
}

#[test]
fn purge_is_idempotent_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x52);
    for _ in 0..200 {
        let now = rng.index(1000) as u64;
        let ttl = rng.index(100) as u64;
        let mut t = LeaseTable::new();
        for i in 0..10u64 {
            t.grant(Key(i), Key(i + 1), SimTime(now), ttl + i);
        }
        let probe = SimTime(now + ttl + 5);
        let first = t.purge_expired(probe);
        let second = t.purge_expired(probe);
        assert_eq!(second, 0);
        assert!(first <= 10);
    }
}

// ---------------------------------------------------------------------
// Analytic model consistency.
// ---------------------------------------------------------------------

#[test]
fn non_member_dominates_member_by_log_n_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x61);
    for _ in 0..200 {
        let n = 64.0 + rng.f64() * (1e7 - 64.0);
        let frac = 0.01 + rng.f64() * 0.94;
        let p = Population::new(n, n * frac);
        let member = member_only_responsibility(p);
        let non = non_member_responsibility(p);
        assert!((non / member - p.log_n()).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// Shortest paths.
// ---------------------------------------------------------------------

#[test]
fn dijkstra_triangle_inequality_seeded() {
    let mut rng = Pcg64::seed_from_u64(0x71);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let n = 5 + rng.index(35);
        let g = random_graph(seed, n);
        let rows: Vec<Vec<u64>> = (0..n).map(|v| single_source(&g, RouterId(v as u32))).collect();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(rows[a][b], rows[b][a], "symmetry");
                for c in 0..n {
                    if rows[a][b] != UNREACHABLE && rows[b][c] != UNREACHABLE {
                        assert!(rows[a][c] <= rows[a][b] + rows[b][c]);
                    }
                }
            }
        }
    }
}
