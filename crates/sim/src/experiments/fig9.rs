//! **Figure 9** — LDT cost with and without network locality.
//!
//! Paper setup (§4.3): Bristle nodes are added to a 10 000-router
//! transit-stub network; capacities are uniform 1..=15. For every LDT in
//! the system the per-edge cost (minimal physical path weight between
//! the two members) is measured and averaged. Two modes are compared:
//! trees whose membership comes from proximity-aware state selection
//! ("with locality", Fig. 5's `distance(r, i)` check) and trees whose
//! membership is key-structured but location-blind ("without locality").
//!
//! Expected shape: with-locality trees are cheaper everywhere, and get
//! *cheaper* as the population grows (denser nodes → closer candidates),
//! while locality-blind trees stay expensive.

use std::collections::HashMap;
use std::sync::Arc;

use bristle_core::ldt::Ldt;
use bristle_core::registry::Registrant;
use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
use bristle_overlay::config::RingConfig;
use bristle_overlay::key::Key;
use bristle_overlay::ring::RingDht;

use super::per_point;
use crate::cli::SweepArgs;
use crate::report::{f2, Table};
use crate::sweeps::SweepRun;

/// Population fractions on the x-axis (the paper's M/N sweep as the
/// node population is "dynamically increased").
pub const FRACTIONS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// Capacities are drawn uniformly from this inclusive range (the
/// paper's 1..=15).
pub const CAPACITY_RANGE: (u32, u32) = (1, 15);

/// Parameters for the Figure 9 regeneration.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Maximum overlay population (reached at fraction 1.0).
    pub max_nodes: usize,
    /// How many roots to build trees for (None = every node).
    pub tree_sample: Option<usize>,
    /// Physical topology.
    pub topology: TransitStubConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Fig9Config {
    /// Reduced scale: 800 nodes max on a small topology.
    pub fn quick() -> Self {
        Fig9Config {
            max_nodes: 800,
            tree_sample: Some(400),
            topology: TransitStubConfig::small(),
            seed: 42,
        }
    }

    /// Paper scale: a ≈10 000-router network, up to 10 000 nodes.
    pub fn paper() -> Self {
        Fig9Config {
            max_nodes: 10_000,
            tree_sample: Some(1_500),
            topology: TransitStubConfig::paper(),
            ..Self::quick()
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Population fraction.
    pub fraction: f64,
    /// Node count at this point.
    pub nodes: usize,
    /// Average per-tree per-edge cost with locality-aware membership.
    pub cost_with_locality: f64,
    /// Average per-tree per-edge cost with locality-blind membership.
    pub cost_without_locality: f64,
}

/// The regenerated Figure 9 data set.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// One row per fraction.
    pub rows: Vec<Fig9Row>,
}

/// Builds an overlay of `n` nodes over the shared topology and returns
/// the average per-tree per-edge LDT cost.
fn measure_mode(
    n: usize,
    ring: RingConfig,
    stub_routers: &[bristle_netsim::graph::RouterId],
    dcache: &DistanceCache,
    cfg: &Fig9Config,
    seed_tag: u64,
) -> f64 {
    let mut rng = Pcg64::seed_from_u64(cfg.seed ^ seed_tag);
    let mut attachments = AttachmentMap::new();
    let mut dht: RingDht<()> = RingDht::new(ring);
    let (lo, hi) = CAPACITY_RANGE;
    for _ in 0..n {
        let host = attachments.attach_new(*rng.choose(stub_routers));
        let cap = rng.range_inclusive(lo as u64, hi as u64) as u32;
        loop {
            let k = Key::random(&mut rng);
            if dht.insert(k, host, cap).is_ok() {
                break;
            }
        }
    }
    dht.build_all_tables(&attachments, dcache, &mut rng, 1);

    let rev = dht.reverse_index();
    let capacities: HashMap<Key, u32> = dht.iter().map(|node| (node.key, node.capacity)).collect();
    let routers: HashMap<Key, bristle_netsim::graph::RouterId> =
        dht.iter().map(|node| (node.key, attachments.router(node.host))).collect();

    let mut roots: Vec<Key> = dht.keys().collect();
    if let Some(s) = cfg.tree_sample {
        rng.shuffle(&mut roots);
        roots.truncate(s.min(roots.len()));
    }

    let mut total_cost = 0u64;
    let mut total_edges = 0usize;
    for &root in &roots {
        let registrants: Vec<Registrant> = rev
            .get(&root)
            .map(|hs| hs.iter().map(|&h| Registrant::new(h, capacities[&h])).collect())
            .unwrap_or_default();
        let tree = Ldt::build(Registrant::new(root, capacities[&root]), &registrants, 1);
        let (cost, edges) = tree.edge_cost_sum(|a, b| dcache.distance(routers[&a], routers[&b]));
        total_cost += cost;
        total_edges += edges;
    }
    if total_edges == 0 {
        0.0
    } else {
        total_cost as f64 / total_edges as f64
    }
}

/// Runs the sweep.
pub fn run(cfg: &Fig9Config) -> Fig9Result {
    // One shared physical network across all points (as in the paper).
    // The distance cache is sized to hold a row per router so repeated
    // sweep points never recompute a Dijkstra (≈ 80 B × routers² memory).
    let mut topo_rng = Pcg64::seed_from_u64(cfg.seed);
    let topo = TransitStubTopology::generate(&cfg.topology, &mut topo_rng);
    let stub_routers = topo.stub_routers().to_vec();
    let rows = topo.router_count() + 64;
    let dcache = DistanceCache::new(Arc::new(topo.into_graph()), rows);

    let point = |fraction: f64| -> Fig9Row {
        let n = ((cfg.max_nodes as f64) * fraction).round().max(8.0) as usize;
        let with = measure_mode(n, RingConfig::tornado(), &stub_routers, &dcache, cfg, 0x10c0);
        let without =
            measure_mode(n, RingConfig::tornado_no_locality(), &stub_routers, &dcache, cfg, 0xb11d);
        Fig9Row { fraction, nodes: n, cost_with_locality: with, cost_without_locality: without }
    };

    Fig9Result { rows: per_point(&FRACTIONS, point) }
}

/// Renders the figure data.
pub fn to_table(result: &Fig9Result) -> Table {
    let mut t = Table::new(
        "Figure 9 — average per-tree per-edge LDT cost",
        &["M/N", "nodes", "with locality", "without locality", "saving"],
    );
    for r in &result.rows {
        let saving = if r.cost_without_locality > 0.0 {
            1.0 - r.cost_with_locality / r.cost_without_locality
        } else {
            0.0
        };
        t.row(vec![
            f2(r.fraction),
            r.nodes.to_string(),
            f2(r.cost_with_locality),
            f2(r.cost_without_locality),
            format!("{:.1}%", saving * 100.0),
        ]);
    }
    t
}

/// The `fig9` sweep: regenerates the paper's **Figure 9** (LDT cost
/// with/without network locality).
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(Fig9Config::quick(), Fig9Config::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let mut out = SweepRun::new("fig9", cfg.seed);
    out.tables.push(to_table(&run(&cfg)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig9Config {
        Fig9Config {
            max_nodes: 300,
            tree_sample: Some(150),
            topology: TransitStubConfig::tiny(),
            seed: 5,
        }
    }

    #[test]
    fn locality_always_cheaper() {
        let result = run(&tiny());
        for r in &result.rows {
            assert!(
                r.cost_with_locality < r.cost_without_locality,
                "at {} with {} must beat without {}",
                r.fraction,
                r.cost_with_locality,
                r.cost_without_locality
            );
        }
    }

    #[test]
    fn locality_improves_with_density() {
        let result = run(&tiny());
        let first = result.rows.first().unwrap();
        let last = result.rows.last().unwrap();
        assert!(
            last.cost_with_locality <= first.cost_with_locality * 1.05,
            "density must not hurt locality: {} → {}",
            first.cost_with_locality,
            last.cost_with_locality
        );
    }

    #[test]
    fn node_counts_track_fractions() {
        let result = run(&tiny());
        assert_eq!(result.rows[0].nodes, 30);
        assert_eq!(result.rows[FRACTIONS.len() - 1].nodes, 300);
    }

    #[test]
    fn table_renders() {
        let result = run(&tiny());
        assert_eq!(to_table(&result).len(), FRACTIONS.len());
    }
}
