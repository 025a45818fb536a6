//! Model-based testing: arbitrary operation sequences against a
//! [`BristleSystem`] must preserve its structural invariants.
//!
//! Invariants checked after every operation:
//!
//! 1. key bookkeeping is consistent — `stationary_keys ∪ mobile_keys`
//!    equals the node-info map, with no overlap;
//! 2. the mobile layer contains *every* node; the stationary layer
//!    contains exactly the stationary ones;
//! 3. every mobile node's location is discoverable (modulo deliberately
//!    injected abrupt failures, which may lose un-replicated records);
//! 4. routing from any live node terminates at the owner;
//! 5. the registry never references the *target* of a dropped node.
//!
//! The op sequences are drawn with seeded [`Pcg64`] sampling:
//! offline-safe, and a failure reproduces from its seed.

use bristle_core::config::BristleConfig;
use bristle_core::naming::Mobility;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;

/// The operations the model exercises.
#[derive(Debug, Clone)]
enum Op {
    MoveMobile(usize),
    JoinMobile,
    JoinStationary,
    LeaveMobile(usize),
    LeaveStationary(usize),
    Route(usize, usize),
    Tick(u64),
    Upkeep,
}

fn random_op(rng: &mut Pcg64) -> Op {
    match rng.index(8) {
        0 => Op::MoveMobile(rng.next_u64() as usize),
        1 => Op::JoinMobile,
        2 => Op::JoinStationary,
        3 => Op::LeaveMobile(rng.next_u64() as usize),
        4 => Op::LeaveStationary(rng.next_u64() as usize),
        5 => Op::Route(rng.next_u64() as usize, rng.next_u64() as usize),
        6 => Op::Tick(rng.range_inclusive(1, 499)),
        _ => Op::Upkeep,
    }
}

fn check_invariants(sys: &mut BristleSystem) {
    // (1) + (2): bookkeeping consistency.
    let n_stat = sys.stationary_keys().len();
    let n_mob = sys.mobile_keys().len();
    assert_eq!(sys.len(), n_stat + n_mob, "info map vs key lists");
    assert_eq!(sys.mobile.len(), n_stat + n_mob, "mobile layer holds everyone");
    assert_eq!(sys.stationary.len(), n_stat, "stationary layer holds the fixed nodes");
    for &k in sys.stationary_keys().to_vec().iter() {
        assert!(sys.stationary.contains(k));
        assert!(sys.mobile.contains(k));
        assert!(!sys.is_mobile(k));
    }
    for &k in sys.mobile_keys().to_vec().iter() {
        assert!(!sys.stationary.contains(k));
        assert!(sys.mobile.contains(k));
        assert!(sys.is_mobile(k));
    }
    // (4): routing terminates at the owner, from a few sources.
    let all: Vec<_> = sys.mobile.keys().collect();
    if all.len() >= 2 {
        let src = all[0];
        let dst = all[all.len() / 2];
        let rep = sys.route_mobile(src, dst).expect("route");
        assert_eq!(rep.terminus, sys.mobile.owner(dst).expect("owner"));
    }
    // (5): registry targets all live and mobile.
    let targets: Vec<_> = sys.registry.iter().map(|(t, _)| t).collect();
    for t in targets {
        assert!(sys.is_mobile(t), "registry target {t} not a live mobile node");
    }
}

fn apply(sys: &mut BristleSystem, op: &Op) {
    match op {
        Op::MoveMobile(i) => {
            let mobiles = sys.mobile_keys().to_vec();
            if !mobiles.is_empty() {
                sys.move_node(mobiles[i % mobiles.len()], None).expect("move");
            }
        }
        Op::JoinMobile => {
            sys.join_node(Mobility::Mobile).expect("join mobile");
        }
        Op::JoinStationary => {
            sys.join_node(Mobility::Stationary).expect("join stationary");
        }
        Op::LeaveMobile(i) => {
            let mobiles = sys.mobile_keys().to_vec();
            if mobiles.len() > 1 {
                sys.leave_node(mobiles[i % mobiles.len()]).expect("leave mobile");
            }
        }
        Op::LeaveStationary(i) => {
            let stationaries = sys.stationary_keys().to_vec();
            if stationaries.len() > 4 {
                sys.leave_node(stationaries[i % stationaries.len()]).expect("leave stationary");
            }
        }
        Op::Route(a, b) => {
            let all: Vec<_> = sys.mobile.keys().collect();
            if all.len() >= 2 {
                let src = all[a % all.len()];
                let dst = all[b % all.len()];
                sys.route_mobile(src, dst).expect("route");
            }
        }
        Op::Tick(dt) => {
            sys.tick(*dt);
        }
        Op::Upkeep => {
            sys.run_upkeep().expect("upkeep");
        }
    }
}

fn build_system(seed: u64, mobiles: usize) -> BristleSystem {
    BristleBuilder::new(seed)
        .stationary_nodes(25)
        .mobile_nodes(mobiles)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("builds")
}

#[test]
fn random_op_sequences_preserve_invariants_seeded() {
    let mut rng = Pcg64::seed_from_u64(0xD1);
    for _ in 0..24 {
        let seed = rng.index(1000) as u64;
        let n_ops = 1 + rng.index(24);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let mut sys = build_system(seed, 10);
        check_invariants(&mut sys);
        for op in &ops {
            apply(&mut sys, op);
            check_invariants(&mut sys);
        }
    }
}

#[test]
fn locations_stay_discoverable_under_graceful_ops_seeded() {
    // No abrupt failures in the op set, so invariant (3) must hold:
    // every live mobile node's location resolves (early binding keeps
    // records fresh through upkeep).
    let mut rng = Pcg64::seed_from_u64(0xD2);
    for _ in 0..24 {
        let seed = rng.index(1000) as u64;
        let n_ops = 1 + rng.index(19);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let mut sys = build_system(seed, 8);
        for op in &ops {
            apply(&mut sys, op);
        }
        // Keep the repository fresh if time has passed.
        sys.run_upkeep().expect("upkeep");
        let watcher = sys.stationary_keys()[0];
        for m in sys.mobile_keys().to_vec() {
            let disc = sys.discover(watcher, m).expect("discover");
            assert!(disc.resolved.is_some(), "lost location of {m}");
        }
    }
}
