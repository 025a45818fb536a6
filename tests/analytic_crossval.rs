//! Cross-validation: the measured system must agree with the paper's
//! analytic models (`bristle_core::analysis`) within honest tolerances.
//! This ties the two halves of the reproduction together — if either the
//! simulator or the formulas drifted, these tests catch it.

use bristle::core::analysis;
use bristle::core::config::BristleConfig;
use bristle::core::system::BristleBuilder;
use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::sim::workload::{measure_routes, sample_stationary_pairs};

#[test]
fn measured_route_hops_match_expected_route_hops() {
    // expected_route_hops(n, 4) should predict plain-overlay routes to
    // within ~35% at several scales.
    for (n, seed) in [(150usize, 1u64), (400, 2)] {
        let mut sys = BristleBuilder::new(seed)
            .stationary_nodes(n)
            .mobile_nodes(0)
            .topology(TransitStubConfig::small())
            .build()
            .expect("builds");
        let pairs = sample_stationary_pairs(&mut sys, 300);
        let agg = measure_routes(&mut sys, &pairs);
        let predicted = analysis::expected_route_hops(n as f64, 4.0);
        let measured = agg.mean_hops();
        assert!(
            (measured - predicted).abs() / predicted < 0.35,
            "n = {n}: measured {measured} vs predicted {predicted}"
        );
    }
}

#[test]
fn measured_registrations_match_model_scale() {
    // registrations_per_mobile predicts (M/N)·log₂N; our tables hold a
    // small constant factor more rows than the idealized log₂N, so check
    // the *ratio structure*: registrations per mobile divided by total
    // state rows per node must equal M/N (every row on a mobile subject
    // is a registration).
    let sys = BristleBuilder::new(3)
        .stationary_nodes(120)
        .mobile_nodes(80)
        .topology(TransitStubConfig::small())
        .build()
        .expect("builds");
    let m_over_n = 80.0 / 200.0;
    let mobile = sys.mobile_keys().len() as f64;
    let nodes = mobile + sys.stationary_keys().len() as f64;
    let rows_per_node = sys.mobile.total_state() as f64 / nodes;
    let registrants_per_mobile = sys.registry.total_registrations() as f64 / mobile;
    let measured_ratio = registrants_per_mobile * (mobile / nodes) / rows_per_node;
    // registrations = rows pointing at mobile subjects ≈ (M/N) × rows.
    assert!(
        (measured_ratio - m_over_n).abs() < 0.12,
        "registration share {measured_ratio} vs M/N {m_over_n}"
    );
}

#[test]
fn measured_ldt_depth_matches_loglog_bound() {
    // With ample capacity the LDT depth should be ≈ log_k(members) + 1 —
    // the O(log log N) dissemination bound.
    let sys = BristleBuilder::new(4)
        .stationary_nodes(150)
        .mobile_nodes(60)
        .topology(TransitStubConfig::small())
        .config(BristleConfig { capacity_range: (15, 15), ..BristleConfig::recommended() })
        .build()
        .expect("builds");
    for &m in sys.mobile_keys().to_vec().iter().take(20) {
        let tree = sys.build_ldt(m).expect("ldt");
        if tree.len() < 3 {
            continue;
        }
        let bound = analysis::ldt_depth(tree.len() as f64, 15.0) + 2.0;
        assert!(
            (tree.depth() as f64) <= bound.ceil(),
            "tree of {} members has depth {} > bound {bound}",
            tree.len(),
            tree.depth()
        );
    }
}

#[test]
fn measured_rdp_between_model_curves() {
    // The measured scrambled/clustered hop ratio at M/N = 0.5 should fall
    // in the band the analytic route-hop models define (they bracket the
    // real system: the scrambled model assumes every mobile hop pays a
    // full discovery; the clustered model assumes none before the knee).
    use bristle::sim::experiments::fig7;
    let cfg = fig7::Fig7Config {
        n_stationary: 100,
        routes: 300,
        topology: TransitStubConfig::tiny(),
        seed: 5,
    };
    let row = fig7::run(&cfg).rows.into_iter().find(|r| r.fraction == 0.5).expect("M/N = 0.5");
    let n = 200.0; // total at M/N = 0.5 with 100 stationary
    let p = analysis::Population::new(n, 100.0);
    let model_ratio =
        analysis::scrambled_route_hops(p, 4.0) / analysis::clustered_route_hops(p, 4.0);
    let measured_ratio = row.rdp_hops();
    assert!(
        measured_ratio > 1.0 && measured_ratio < model_ratio * 1.5,
        "measured RDP {measured_ratio} vs model {model_ratio}"
    );
}
