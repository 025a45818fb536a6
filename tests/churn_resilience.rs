//! Acceptance tests for the self-healing overlay under churn
//! ([`bristle::sim::resilience`]).
//!
//! The headline scenario: a message-driven system under balanced churn
//! (including silent crashes and a deliberate kill of the busiest
//! location-record primary) over a 10%-lossy transport. Every confirmed
//! death must trigger an LDT repair that leaves all surviving
//! registrants root-reachable, `_discovery` for subjects whose primary
//! died must resolve through a surviving replica, delivery success must
//! stay at or above 95%, and two same-seed runs must agree on every
//! meter tally.

use bristle::core::config::BristleConfig;
use bristle::core::system::{BristleBuilder, BristleSystem};
use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::overlay::key::Key;
use bristle::proto::transport::FaultConfig;
use bristle::sim::messaging::MessagingBristleSystem;
use bristle::sim::resilience::{run_churn_messaging, ResilienceConfig};

/// The two fixed seeds CI runs; both exercise crashes of ordinary nodes
/// *and* of the record primary, stale answers, and replica failovers.
const CI_SEEDS: [u64; 2] = [8, 27];

fn assert_resilient(seed: u64) {
    let cfg = ResilienceConfig::standard(seed);
    let out = run_churn_messaging(&cfg);

    // Healing: every LDT membership a confirmed-dead node held was
    // repaired, and every repaired tree kept its live registrants
    // root-reachable.
    assert!(out.deaths_confirmed >= 2, "seed {seed} confirmed too few deaths: {out:?}");
    assert_eq!(out.deaths_confirmed, out.fails, "seed {seed}: every crash must be confirmed");
    assert_eq!(
        out.ldts_repaired, out.repairs_expected,
        "seed {seed}: every orphaned LDT membership must be re-grafted"
    );
    assert!(out.invariant_ok, "seed {seed}: a repaired tree failed root-reachability");

    // Failover: records whose primary died keep resolving via replicas.
    assert!(out.dead_primary_lookups > 0, "seed {seed} never tested a dead primary");
    assert_eq!(
        out.dead_primary_hits, out.dead_primary_lookups,
        "seed {seed}: a record with a dead primary failed to resolve"
    );

    // Liveness under loss: delivery success stays at or above 95%.
    assert!(out.routes.attempted > 0);
    assert!(
        out.routes.rate() >= 0.95,
        "seed {seed} delivery rate {:.3} below 0.95 ({}/{})",
        out.routes.rate(),
        out.routes.delivered,
        out.routes.attempted
    );

    // Staleness is exercised and repaired, not just absent.
    assert!(out.discoveries > 0);
    assert_eq!(out.stale_repairs, out.stale_answers);
}

#[test]
fn churn_scenario_heals_and_delivers_seed_a() {
    assert_resilient(CI_SEEDS[0]);
}

#[test]
fn churn_scenario_heals_and_delivers_seed_b() {
    assert_resilient(CI_SEEDS[1]);
}

/// Determinism: the full scenario — churn draws, lossy transport,
/// heartbeats, healing — replays identically from the same seed, meter
/// tallies included.
#[test]
fn same_seed_runs_agree_on_every_meter_tally() {
    for seed in CI_SEEDS {
        let cfg = ResilienceConfig::standard(seed);
        let a = run_churn_messaging(&cfg);
        let b = run_churn_messaging(&cfg);
        assert_eq!(a, b, "seed {seed} diverged between identical runs");
    }
}

fn build(seed: u64) -> BristleSystem {
    BristleBuilder::new(seed)
        .stationary_nodes(40)
        .mobile_nodes(12)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds")
}

/// A mobile target whose LDT has at least `min` members, plus that tree's
/// deepest member — a leaf (parents precede children in the node array,
/// so the last node has no descendants) that is safe to crash mid-round.
fn target_and_leaf(sys: &mut BristleSystem, min: usize) -> (Key, Key, usize) {
    let mut targets = sys.mobile_keys().to_vec();
    targets.sort_unstable();
    for t in targets {
        let tree = sys.build_ldt(t).expect("mobile target has a tree");
        if tree.len() >= min {
            let leaf = tree.nodes().last().expect("non-empty").key;
            if leaf != t {
                return (t, leaf, tree.edge_count());
            }
        }
    }
    panic!("no mobile target with an LDT of {min}+ members");
}

/// A registrant that crashes *while* an LDT dissemination round is in
/// flight loses its ack (the round reports the shortfall rather than
/// stalling); confirmation then prunes it from the registry and re-grafts
/// the tree, after which a fresh round acks every edge.
#[test]
fn node_failing_mid_ldt_dissemination_is_pruned() {
    let mut msys = MessagingBristleSystem::new(build(42), FaultConfig::perfect(), 7);
    let (target, victim, edges) = target_and_leaf(&mut msys.sys, 3);

    // The crash lands one micro-tick in: after the round's sends are
    // spawned, before any of them deliver.
    msys.schedule_fail(bristle::core::time::SimTime(msys.micro_now().0 + 1), victim);
    let acked = msys.disseminate_update(target).expect("round completes");
    assert!(acked < edges, "victim's ack must be missing ({acked} of {edges})");
    assert!(msys.is_failed(victim));

    // Heartbeats notice the silence; confirmation heals the tree.
    let mut confirmed = false;
    for _ in 0..6 {
        for k in msys.heartbeat_round() {
            let report = msys.confirm_and_heal(k).expect("confirmed peer is known");
            if k == victim {
                assert!(
                    report.ldts_repaired.contains(&target),
                    "victim's death must repair the target's tree: {report:?}"
                );
                assert!(report.invariant_ok);
                confirmed = true;
            }
        }
        if confirmed {
            break;
        }
    }
    assert!(confirmed, "the mid-round crash was never confirmed");
    assert!(
        !msys.sys.registry.registrants_of(target).any(|r| r.key == victim),
        "the dead registrant must be pruned"
    );

    // The healed tree disseminates cleanly: every remaining edge acks.
    let healed_edges = msys.sys.build_ldt(target).expect("tree rebuilds").edge_count();
    let acked = msys.disseminate_update(target).expect("round completes");
    assert_eq!(acked, healed_edges, "the healed tree must ack in full");
    assert!(healed_edges > 0, "the tree must still have live members");
}
