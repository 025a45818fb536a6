//! **Figure 8** — LDT adaptation to workload and heterogeneity.
//!
//! Paper setup (§4.2): up to 25 000 nodes; each node's capacity (number
//! of available network connections) drawn uniformly from 1..=MAX with
//! MAX swept 1..15; the average registrant count per node is
//! ⌈log₂ 25 000⌉ = 15, so every LDT has ≈15 members.
//!
//! * Fig. 8(a): for each MAX, the distribution of tree nodes over tree
//!   levels (root = level 1) across all LDTs — low-capacity populations
//!   produce chains, capable populations produce shallow fans.
//! * Fig. 8(b): 15 sampled trees; per member (sorted by capacity,
//!   ID 1 = root) its capacity and the number of nodes assigned to it —
//!   showing that work lands on the super nodes and is split evenly
//!   among them.

use std::collections::HashMap;

use bristle_core::ldt::Ldt;
use bristle_core::registry::Registrant;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::config::{NeighborSelection, RingConfig};
use bristle_overlay::key::Key;

use crate::cli::SweepArgs;
use crate::metrics::Histogram;
use crate::report::{f2, Table};
use crate::runreport::Json;
use crate::sweeps::SweepRun;
use crate::workload::{flat_distances, random_ring, Telemetry};

/// The MAX capacity values swept on Fig. 8(a)'s x-axis (the paper's
/// 1..15).
pub const MAX_CAPACITIES: [u32; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
/// Trees shown in the Fig. 8(b) detail, drawn from the highest-MAX
/// population (the paper shows 15).
pub const DETAIL_TREES: usize = 15;

/// Parameters for the Figure 8 regeneration.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Overlay size (the paper uses 25 000).
    pub n_nodes: usize,
    /// How many roots to materialize trees for (None = all nodes).
    pub tree_sample: Option<usize>,
    /// Cap on registrants per tree (None = the overlay's natural reverse
    /// pointers). The paper's setup has exactly ⌈log₂ N⌉ = 15 interested
    /// nodes per tree; capping reproduces that membership exactly.
    pub registrant_cap: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Fig8Config {
    /// Reduced scale: 2 000 nodes, all trees.
    pub fn quick() -> Self {
        Fig8Config { n_nodes: 2_000, tree_sample: Some(800), registrant_cap: None, seed: 42 }
    }

    /// Paper scale: 25 000 nodes, all trees measured, membership capped
    /// at the paper's ⌈log₂ 25 000⌉ = 15 registrants per tree.
    pub fn paper() -> Self {
        Fig8Config { n_nodes: 25_000, tree_sample: None, registrant_cap: Some(15), ..Self::quick() }
    }
}

/// Per-MAX level distribution (Fig. 8a).
#[derive(Debug, Clone)]
pub struct LevelDistribution {
    /// The MAX capacity of this population.
    pub max_capacity: u32,
    /// `fractions[l]` = share of tree nodes at level `l + 1`.
    pub fractions: Vec<f64>,
    /// Mean tree depth.
    pub mean_depth: f64,
    /// Deepest tree seen.
    pub max_depth: u32,
}

/// One member row of a Fig. 8(b) detail tree.
#[derive(Debug, Clone, Copy)]
pub struct DetailMember {
    /// Reported capacity (gray bar).
    pub capacity: u32,
    /// Members assigned to it, partition size (dark bar).
    pub assigned: usize,
}

/// The regenerated Figure 8 data set.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Fig. 8(a): one distribution per MAX.
    pub distributions: Vec<LevelDistribution>,
    /// Fig. 8(b): sampled trees at MAX = 15, members sorted by capacity
    /// (index 0 = root).
    pub detail: Vec<Vec<DetailMember>>,
}

/// Builds the registrant structure once: a flat overlay's reverse index.
fn registrant_structure(n: usize, rng: &mut Pcg64) -> (Vec<Key>, HashMap<Key, Vec<Key>>) {
    let cfg = RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() };
    let (mut dht, attachments, _) = random_ring(n, cfg, &[RouterId(0)], rng);
    dht.build_all_tables(&attachments, &flat_distances(), rng, 1);
    (dht.keys().collect(), dht.reverse_index())
}

/// Runs the experiment.
pub fn run(cfg: &Fig8Config) -> Fig8Result {
    let mut rng = Pcg64::seed_from_u64(cfg.seed);
    let (keys, rev) = registrant_structure(cfg.n_nodes, &mut rng);
    let roots: Vec<Key> = match cfg.tree_sample {
        None => keys.clone(),
        Some(s) => {
            let mut shuffled = keys.clone();
            rng.shuffle(&mut shuffled);
            shuffled.truncate(s.min(keys.len()));
            shuffled
        }
    };

    let mut distributions = Vec::with_capacity(MAX_CAPACITIES.len());
    let mut detail: Vec<Vec<DetailMember>> = Vec::new();

    for max_cap in MAX_CAPACITIES {
        // Fresh capacities per MAX: uniform 1..=MAX (paper §4.2).
        let mut cap_rng = Pcg64::new(cfg.seed ^ (max_cap as u64) << 8, 99);
        let capacities: HashMap<Key, u32> =
            keys.iter().map(|&k| (k, cap_rng.range_inclusive(1, max_cap as u64) as u32)).collect();

        let mut level_hist = Histogram::new();
        let mut depth_sum = 0u64;
        let mut max_depth = 0u32;
        let mut trees_at_max: Vec<Ldt> = Vec::new();
        for &root in &roots {
            let mut registrants: Vec<Registrant> = rev
                .get(&root)
                .map(|hs| hs.iter().map(|&h| Registrant::new(h, capacities[&h])).collect())
                .unwrap_or_default();
            if let Some(cap) = cfg.registrant_cap {
                registrants.truncate(cap);
            }
            let tree = Ldt::build(Registrant::new(root, capacities[&root]), &registrants, 1);
            for node in tree.nodes() {
                level_hist.record((node.level - 1) as usize);
            }
            depth_sum += tree.depth() as u64;
            max_depth = max_depth.max(tree.depth());
            if Some(&max_cap) == MAX_CAPACITIES.iter().max() && trees_at_max.len() < DETAIL_TREES {
                trees_at_max.push(tree);
            }
        }
        let fractions: Vec<f64> =
            (0..level_hist.buckets()).map(|b| level_hist.fraction(b)).collect();
        distributions.push(LevelDistribution {
            max_capacity: max_cap,
            fractions,
            mean_depth: depth_sum as f64 / roots.len().max(1) as f64,
            max_depth,
        });

        // Fig. 8(b) detail from the highest-MAX population.
        if !trees_at_max.is_empty() {
            detail = trees_at_max
                .iter()
                .map(|tree| {
                    let mut members: Vec<DetailMember> = tree
                        .nodes()
                        .iter()
                        .map(|n| DetailMember { capacity: n.capacity, assigned: n.assigned })
                        .collect();
                    // Paper sorts by decreasing available capacity; the
                    // root keeps ID 1.
                    members[1..].sort_by_key(|m| std::cmp::Reverse(m.capacity));
                    members
                })
                .collect();
        }
    }

    Fig8Result { distributions, detail }
}

/// Levels shown individually in the Fig. 8(a) table (the paper's y-axis
/// range); anything deeper is folded into an overflow column.
const SHOWN_LEVELS: usize = 15;

/// Renders Fig. 8(a) as level-share percentages per MAX.
pub fn to_table_levels(result: &Fig8Result) -> Table {
    let deepest = result.distributions.iter().map(|d| d.fractions.len()).max().unwrap_or(0);
    let shown = deepest.min(SHOWN_LEVELS);
    let mut level_names: Vec<String> = (1..=shown).map(|l| format!("L{l}%")).collect();
    if deepest > shown {
        level_names.push(format!("L>{shown}%"));
    }
    let mut header: Vec<&str> = vec!["MAX", "mean depth", "max depth"];
    header.extend(level_names.iter().map(String::as_str));
    let mut t = Table::new("Figure 8(a) — tree-level distribution vs MAX capacity", &header);
    for d in &result.distributions {
        let mut row = vec![d.max_capacity.to_string(), f2(d.mean_depth), d.max_depth.to_string()];
        for l in 0..shown {
            let frac = d.fractions.get(l).copied().unwrap_or(0.0);
            row.push(format!("{:.1}", frac * 100.0));
        }
        if deepest > shown {
            let overflow: f64 = d.fractions.iter().skip(shown).sum();
            row.push(format!("{:.1}", overflow * 100.0));
        }
        t.row(row);
    }
    t
}

/// Renders Fig. 8(b): per-member capacity and assignment for each
/// sampled tree.
pub fn to_table_detail(result: &Fig8Result) -> Table {
    let mut t = Table::new(
        "Figure 8(b) — capacity (C) and nodes assigned (A) per member, 15 sampled trees",
        &["tree", "members (ID1=root): C/A ..."],
    );
    for (i, tree) in result.detail.iter().enumerate() {
        let cells: Vec<String> =
            tree.iter().map(|m| format!("{}/{}", m.capacity, m.assigned)).collect();
        t.row(vec![format!("{}", i + 1), cells.join(" ")]);
    }
    t
}

/// The `fig8` sweep: regenerates the paper's **Figure 8** (LDT
/// adaptation and node heterogeneity). A function-call experiment with
/// no message-passing driver, so report cells carry distribution rows
/// only.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(Fig8Config::quick(), Fig8Config::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let result = run(&cfg);
    let mut out = SweepRun::new("fig8", cfg.seed);
    out.tables.extend([to_table_levels(&result), to_table_detail(&result)]);
    for dist in &result.distributions {
        out.report.push_cell(
            Json::obj([
                ("study", Json::Str("levels".into())),
                ("n_nodes", Json::U64(cfg.n_nodes as u64)),
                ("max_capacity", Json::U64(dist.max_capacity as u64)),
            ]),
            &Telemetry::default(),
            Json::obj([
                ("fractions", Json::Arr(dist.fractions.iter().map(|&f| Json::F64(f)).collect())),
                ("mean_depth", Json::F64(dist.mean_depth)),
                ("max_depth", Json::U64(dist.max_depth as u64)),
            ]),
        );
    }
    for (i, tree) in result.detail.iter().enumerate() {
        out.report.push_cell(
            Json::obj([("study", Json::Str("detail".into())), ("tree", Json::U64(i as u64))]),
            &Telemetry::default(),
            Json::Obj(vec![(
                "members".to_string(),
                Json::Arr(
                    tree.iter()
                        .map(|m| {
                            Json::obj([
                                ("capacity", Json::U64(m.capacity as u64)),
                                ("assigned", Json::U64(m.assigned as u64)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig8Config {
        Fig8Config { n_nodes: 300, tree_sample: Some(120), registrant_cap: None, seed: 3 }
    }

    #[test]
    fn depth_shrinks_as_capacity_grows() {
        let result = run(&tiny());
        let d1 = &result.distributions[0];
        let d15 = &result.distributions[MAX_CAPACITIES.len() - 1];
        assert!(
            d1.mean_depth > d15.mean_depth * 2.0,
            "MAX=1 depth {} vs MAX=15 depth {}",
            d1.mean_depth,
            d15.mean_depth
        );
    }

    #[test]
    fn max_one_capacity_gives_chains() {
        let result = run(&tiny());
        let d1 = &result.distributions[0];
        // Chains: every level has the same share (1 node per level/tree).
        assert!(d1.max_depth >= 10, "chains should be deep, got {}", d1.max_depth);
    }

    #[test]
    fn level_fractions_sum_to_one() {
        let result = run(&tiny());
        for d in &result.distributions {
            let sum: f64 = d.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "MAX {} sums to {sum}", d.max_capacity);
        }
    }

    #[test]
    fn detail_trees_present_with_root_first() {
        let result = run(&tiny());
        assert_eq!(result.detail.len(), DETAIL_TREES);
        for tree in &result.detail {
            assert!(!tree.is_empty());
            // Non-root members sorted by decreasing capacity.
            for w in tree[1..].windows(2) {
                assert!(w[0].capacity >= w[1].capacity);
            }
        }
    }

    #[test]
    fn assignments_land_on_capable_members() {
        // Across detail trees, the highest-capacity non-root member must
        // receive at least as many assignments as the weakest, on average.
        let result = run(&tiny());
        let (mut strong, mut weak) = (0usize, 0usize);
        for tree in &result.detail {
            if tree.len() >= 3 {
                strong += tree[1].assigned;
                weak += tree[tree.len() - 1].assigned;
            }
        }
        assert!(strong >= weak, "strong {strong} weak {weak}");
    }

    #[test]
    fn tables_render() {
        let result = run(&tiny());
        assert_eq!(to_table_levels(&result).len(), MAX_CAPACITIES.len());
        assert!(!to_table_detail(&result).is_empty());
    }
}
