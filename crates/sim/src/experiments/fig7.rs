//! **Figure 7** — state discovery: application-level hops and relative
//! delay penalty (RDP), scrambled vs clustered naming.
//!
//! Paper setup (§4, §4.1): N − M = 2 000 stationary nodes, M = 0..8 000
//! mobile nodes (M/N = 0..80%), nodes placed on a GT-ITM transit-stub
//! topology; 10 000 sample routes between random stationary pairs; a
//! mobile node advertises its location to the stationary layer only, so
//! *every* hop through a mobile node needs a `_discovery`. Fig. 7(a)
//! plots the mean application-level hops for both naming schemes;
//! Fig. 7(b) the RDP — scrambled over clustered — for hops and for
//! Dijkstra path cost, with a knee at M/N = 50%.
//!
//! We reproduce the setup exactly: `BristleConfig::paper_*` presets give
//! zero-TTL leases (per-hop discovery) and all mobile nodes move once
//! before sampling so cached addresses are genuinely stale.

use bristle_core::config::BristleConfig;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_netsim::transit_stub::TransitStubConfig;

use super::per_point;
use crate::cli::SweepArgs;
use crate::report::{f2, Table};
use crate::sweeps::SweepRun;
use crate::workload::{measure_routes, sample_stationary_pairs};

/// Mobile fractions M/N on the x-axis (the paper's 0..80 %).
pub const FRACTIONS: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

/// Parameters for the Figure 7 regeneration.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Stationary node count (N − M; the paper uses 2 000).
    pub n_stationary: usize,
    /// Sample routes per point (the paper uses 10 000).
    pub routes: usize,
    /// Physical topology.
    pub topology: TransitStubConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Fig7Config {
    /// Reduced scale: 200 stationary nodes, 600 routes per point.
    pub fn quick() -> Self {
        Fig7Config {
            n_stationary: 200,
            routes: 600,
            topology: TransitStubConfig::small(),
            seed: 42,
        }
    }

    /// The paper's scale: 2 000 stationary nodes, 10 000 routes.
    pub fn paper() -> Self {
        Fig7Config {
            n_stationary: 2_000,
            routes: 10_000,
            topology: TransitStubConfig::medium(),
            ..Self::quick()
        }
    }

    /// Mobile count for a given fraction f: M = f/(1−f) · (N − M),
    /// since the paper fixes the stationary count.
    pub fn mobile_count(&self, fraction: f64) -> usize {
        if fraction <= 0.0 {
            return 0;
        }
        ((fraction / (1.0 - fraction)) * self.n_stationary as f64).round() as usize
    }
}

/// Metrics for one naming scheme at one sweep point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeMetrics {
    /// Mean application-level hops per route.
    pub hops: f64,
    /// Mean Dijkstra path cost per route.
    pub path_cost: f64,
    /// Mean `_discovery` operations per route.
    pub discoveries: f64,
}

/// One sweep point of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Mobile fraction M/N.
    pub fraction: f64,
    /// Scrambled-naming metrics.
    pub scrambled: SchemeMetrics,
    /// Clustered-naming metrics.
    pub clustered: SchemeMetrics,
}

impl Fig7Row {
    /// RDP in application-level hops (Fig. 7b, solid series).
    pub fn rdp_hops(&self) -> f64 {
        if self.clustered.hops == 0.0 {
            1.0
        } else {
            self.scrambled.hops / self.clustered.hops
        }
    }

    /// RDP in actual path cost (Fig. 7b, dashed series).
    pub fn rdp_cost(&self) -> f64 {
        if self.clustered.path_cost == 0.0 {
            1.0
        } else {
            self.scrambled.path_cost / self.clustered.path_cost
        }
    }
}

/// The regenerated Figure 7 data set.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// One row per mobile fraction.
    pub rows: Vec<Fig7Row>,
}

fn measure_scheme(
    cfg: &Fig7Config,
    fraction: f64,
    base: BristleConfig,
    seed_tag: u64,
) -> SchemeMetrics {
    let m = cfg.mobile_count(fraction);
    let mut sys: BristleSystem = BristleBuilder::new(cfg.seed ^ seed_tag)
        .stationary_nodes(cfg.n_stationary)
        .mobile_nodes(m)
        .topology(cfg.topology.clone())
        .config(base)
        .build()
        .expect("system builds");
    // Every mobile node moves once, invalidating all cached addresses —
    // the paper's "mobile node only advertises ... to the stationary
    // layer" steady state.
    for key in sys.mobile_keys().to_vec() {
        sys.move_node(key, None).expect("mobile node moves");
    }
    let pairs = sample_stationary_pairs(&mut sys, cfg.routes);
    let agg = measure_routes(&mut sys, &pairs);
    SchemeMetrics {
        hops: agg.mean_hops(),
        path_cost: agg.mean_cost(),
        discoveries: agg.mean_discoveries(),
    }
}

fn run_point(cfg: &Fig7Config, fraction: f64) -> Fig7Row {
    let scrambled = measure_scheme(cfg, fraction, BristleConfig::paper_scrambled(), 0x5c5a);
    let clustered = measure_scheme(cfg, fraction, BristleConfig::paper_clustered(), 0xc1c1);
    Fig7Row { fraction, scrambled, clustered }
}

/// Runs the sweep, one scoped thread per fraction.
pub fn run(cfg: &Fig7Config) -> Fig7Result {
    Fig7Result { rows: per_point(&FRACTIONS, |f| run_point(cfg, f)) }
}

/// Renders Fig. 7(a): mean application-level hops per naming scheme.
pub fn to_table_hops(result: &Fig7Result) -> Table {
    let mut t = Table::new(
        "Figure 7(a) — application-level hops per route",
        &["M/N", "scrambled", "clustered", "disc/route (scr)", "disc/route (clu)"],
    );
    for r in &result.rows {
        t.row(vec![
            f2(r.fraction),
            f2(r.scrambled.hops),
            f2(r.clustered.hops),
            f2(r.scrambled.discoveries),
            f2(r.clustered.discoveries),
        ]);
    }
    t
}

/// Renders Fig. 7(b): relative delay penalty.
pub fn to_table_rdp(result: &Fig7Result) -> Table {
    let mut t = Table::new(
        "Figure 7(b) — relative delay penalty (scrambled / clustered)",
        &["M/N", "RDP hops", "RDP path cost"],
    );
    for r in &result.rows {
        t.row(vec![f2(r.fraction), f2(r.rdp_hops()), f2(r.rdp_cost())]);
    }
    t
}

/// The `fig7` sweep: regenerates the paper's **Figure 7** (state
/// discovery: hops and RDP, scrambled vs clustered naming).
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(Fig7Config::quick(), Fig7Config::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let result = run(&cfg);
    let mut out = SweepRun::new("fig7", cfg.seed);
    out.tables.extend([to_table_hops(&result), to_table_rdp(&result)]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Config {
        Fig7Config { n_stationary: 60, routes: 80, topology: TransitStubConfig::tiny(), seed: 11 }
    }

    #[test]
    fn mobile_count_fixes_stationary_population() {
        let cfg = Fig7Config::quick();
        assert_eq!(cfg.mobile_count(0.0), 0);
        // M/N = 0.5 → M = N − M.
        assert_eq!(cfg.mobile_count(0.5), cfg.n_stationary);
        // M/N = 0.8 → M = 4 (N − M), the paper's 8 000 at 2 000 stationary.
        assert_eq!(cfg.mobile_count(0.8), 4 * cfg.n_stationary);
    }

    #[test]
    fn clustered_never_worse_than_scrambled() {
        let result = run(&tiny());
        for r in &result.rows {
            assert!(
                r.clustered.hops <= r.scrambled.hops + 0.5,
                "at M/N {} clustered {} vs scrambled {}",
                r.fraction,
                r.clustered.hops,
                r.scrambled.hops
            );
        }
    }

    #[test]
    fn scrambled_hops_grow_with_mobility() {
        let result = run(&tiny());
        let first = result.rows.first().unwrap();
        let last = result.rows.last().unwrap();
        assert!(
            last.scrambled.hops > first.scrambled.hops * 1.5,
            "scrambled {} → {}",
            first.scrambled.hops,
            last.scrambled.hops
        );
    }

    #[test]
    fn rdp_starts_near_one() {
        let result = run(&tiny());
        let r0 = &result.rows[0];
        assert!((r0.rdp_hops() - 1.0).abs() < 0.25, "rdp at M=0 is {}", r0.rdp_hops());
    }

    #[test]
    fn zero_mobility_has_no_discoveries() {
        let result = run(&tiny());
        let r0 = &result.rows[0];
        assert_eq!(r0.scrambled.discoveries, 0.0);
        assert_eq!(r0.clustered.discoveries, 0.0);
    }

    #[test]
    fn tables_render() {
        let result = run(&tiny());
        assert_eq!(to_table_hops(&result).len(), FRACTIONS.len());
        assert_eq!(to_table_rdp(&result).len(), FRACTIONS.len());
    }
}
