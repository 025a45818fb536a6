//! Acceptance tests for partition tolerance
//! ([`bristle::sim::partition`]).
//!
//! The headline scenario: the router population is cut in two and the
//! near side — kept ignorant of far-side heartbeats — wrongfully buries
//! the nodes behind the cut. After the heal, every wrongfully dead node
//! must refute the verdict with a bumped incarnation number, a rejoin
//! must reverse each funeral (registrations, location records and LDT
//! membership restored), split-brain record divergence must reconcile
//! to the `(incarnation, seq, published_at)` maximum, and delivery over
//! the same endpoint pairs must return to within 1% of the pre-cut
//! level within a bounded number of heartbeat rounds.

use bristle::core::config::BristleConfig;
use bristle::core::system::BristleBuilder;
use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::overlay::obs::Hist;
use bristle::proto::transport::{FaultConfig, LinkFilter};
use bristle::sim::messaging::MessagingBristleSystem;
use bristle::sim::partition::{run_partition, PartitionConfig, RECOVERY_ROUNDS};

/// The two fixed seeds CI runs; both produce multiple wrongful deaths
/// and full post-heal recovery.
const CI_SEEDS: [u64; 2] = [8, 27];

fn assert_partition_tolerant(seed: u64) {
    let cfg = PartitionConfig::standard(seed);
    let out = run_partition(&cfg);

    // The cut isolates real nodes and the near side buries them alive.
    assert!(out.far_side > 0, "seed {seed}: the cut isolated nobody");
    assert!(out.wrongful_deaths >= 2, "seed {seed} buried too few live nodes: {out:?}");

    // Every wrongful verdict is refuted and every funeral reversed,
    // within the bounded recovery window.
    assert_eq!(
        out.rejoined, out.wrongful_deaths,
        "seed {seed}: a wrongfully buried node never rejoined: {out:?}"
    );
    assert!(out.refutations > 0, "seed {seed}: no Alive refutation was ever broadcast");
    // Every reversal needs a refutation that reached a sponsor.
    assert!(
        out.refutations >= out.rejoined as u64,
        "seed {seed}: a funeral was reversed that no refutation asked for: {out:?}"
    );
    assert!(
        out.recovery_rounds_used <= RECOVERY_ROUNDS,
        "seed {seed}: recovery exceeded its bound"
    );

    // Split-brain divergence planted on the replicas reconciles to the
    // (incarnation, seq, published_at) maximum — the post-rejoin record.
    assert!(out.divergent_planted > 0, "seed {seed}: reconciliation was never exercised");
    assert!(out.reconciled, "seed {seed}: a replica kept the stale-incarnation record: {out:?}");

    // Delivery over the same pairs returns to within 1% of pre-cut.
    assert!(out.delivery.pre.attempted > 0);
    assert!(
        out.delivery.recovered(0.01),
        "seed {seed}: post-heal delivery {:.3} fell below pre-cut {:.3} - 1%",
        out.delivery.post_rate(),
        out.delivery.pre_rate()
    );
}

#[test]
fn partition_scenario_refutes_and_rejoins_seed_a() {
    assert_partition_tolerant(CI_SEEDS[0]);
}

#[test]
fn partition_scenario_refutes_and_rejoins_seed_b() {
    assert_partition_tolerant(CI_SEEDS[1]);
}

/// Determinism: the whole scenario — the cut, the lossy transport, the
/// funerals, the refutations and rejoins, the reconciliation — replays
/// identically from the same seed, meter tallies included.
#[test]
fn same_seed_partition_runs_agree_on_every_meter_tally() {
    for seed in CI_SEEDS {
        let cfg = PartitionConfig::standard(seed);
        assert_eq!(run_partition(&cfg), run_partition(&cfg), "seed {seed} diverged");
    }
}

/// Fine-grained state check on a hand-driven cut: after refutation and
/// rejoin, each resurrected node is back in the membership books at a
/// strictly fresher incarnation, its location record carries that
/// incarnation, it is registered again, and every LDT naming it as a
/// registrant contains it as a member.
#[test]
fn rejoined_nodes_recover_records_registrations_and_ldt_membership() {
    let sys = BristleBuilder::new(33)
        .stationary_nodes(36)
        .mobile_nodes(14)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds");
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::perfect(), 33);

    // Cut the routers in two: sorted order, first half vs second half.
    let mut routers = msys.sys.stub_routers().to_vec();
    routers.sort_unstable();
    let (near, far) = routers.split_at(routers.len() / 2);
    let far: Vec<_> = far.to_vec();
    let far_keys: Vec<_> = {
        let mut ks: Vec<_> = msys.sys.mobile.keys().collect();
        ks.sort_unstable();
        ks.into_iter().filter(|&k| far.contains(&msys.sys.router_of(k).unwrap())).collect()
    };
    assert!(!far_keys.is_empty(), "the cut must strand someone");
    msys.partition_now(LinkFilter::default().partition_groups(&[near.to_vec(), far.clone()]));

    // Suspicion hardens; bury every far-side node the near side condemns.
    let mut buried = Vec::new();
    for _ in 0..5 {
        for k in msys.heartbeat_round() {
            if far_keys.contains(&k) && msys.confirm_and_heal(k).is_ok() {
                buried.push(k);
            }
        }
    }
    assert!(!buried.is_empty(), "nobody was wrongfully buried");
    assert_eq!(msys.wrongly_buried(), {
        let mut b = buried.clone();
        b.sort_unstable();
        b
    });

    // Heal; the rejoin sweep reverses every funeral.
    msys.heal_now();
    for _ in 0..6 {
        msys.heartbeat_round();
        if msys.wrongly_buried().is_empty() {
            break;
        }
    }
    assert!(msys.wrongly_buried().is_empty(), "a funeral was never reversed");
    let rejoins = msys.registry().histogram(Hist::Rejoin).count();
    assert_eq!(rejoins, buried.len() as u64, "one reversal per burial");

    // Rejoined stationary replicas refill their stores from the live
    // copies; one reconciliation pass settles every record.
    msys.sys.anti_entropy_locations().unwrap();

    for k in buried {
        // Alive again, at a strictly fresher incarnation.
        assert!(!msys.sys.is_confirmed_dead(k));
        let info = *msys.sys.node_info(k).expect("rejoined node is known");
        assert!(info.incarnation > 0, "the verdict must be out-ranked");

        if msys.sys.is_mobile(k) {
            // Its withdrawn location record is back at that incarnation.
            let owner = msys.sys.stationary.owner(k).unwrap();
            let stored = *msys.sys.stationary.node(owner).unwrap().store.get(&k).unwrap();
            assert_eq!(stored.incarnation, info.incarnation);
            // Holders of its state re-registered to it, so its own LDT
            // can push future moves; the tree must contain them.
            let regs = msys.sys.registry.registrants_of(k);
            if regs.len() > 0 {
                let tree = msys.sys.build_ldt(k).unwrap();
                for r in regs {
                    assert!(tree.contains(r.key), "registrant missing from rejoined LDT");
                }
            }
        }
        // Every LDT naming the resurrected node as a registrant has it
        // back as a member.
        let targets: Vec<_> = msys
            .sys
            .registry
            .iter()
            .filter(|(t, regs)| *t != k && regs.clone().any(|r| r.key == k))
            .map(|(t, _)| t)
            .collect();
        for t in targets {
            assert!(
                msys.sys.build_ldt(t).unwrap().contains(k),
                "rejoined node missing from an LDT it is registered to"
            );
        }
    }
}
