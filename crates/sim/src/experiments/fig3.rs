//! **Figure 3** — per-stationary-node responsibility, member-only vs
//! non-member-only LDTs.
//!
//! The paper plots the analytic responsibility for N = 2^20 over a linear
//! M/N sweep. We regenerate that curve, and *additionally* measure the
//! same quantity on a live (smaller) overlay by materializing both tree
//! designs and counting how many trees each stationary node is drafted
//! into — confirming the analytic gap of ≈ log N on real trees.

use std::collections::HashMap;

use bristle_core::analysis::{figure3_series, ResponsibilityPoint};
use bristle_core::ldt::Ldt;
use bristle_core::ldt_nonmember::NonMemberTree;
use bristle_core::registry::Registrant;
use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::config::{NeighborSelection, RingConfig};
use bristle_overlay::key::Key;
use bristle_overlay::ring::RingDht;

use crate::cli::SweepArgs;
use crate::report::{f2, f3, Table};
use crate::sweeps::SweepRun;
use crate::workload::{flat_distances, random_ring};

/// N of the analytic curve (the paper's 2^20).
pub const ANALYTIC_N: f64 = 1_048_576.0;
/// Mobile fractions M/N sweeping the x-axis.
pub const FRACTIONS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
/// Measured registrants' capacities are drawn uniformly from this
/// inclusive range (the paper's U(1..15)).
pub const CAPACITY_RANGE: (u32, u32) = (1, 15);

/// Parameters for the Figure 3 regeneration.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Node count of the measured overlay.
    pub measured_n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Fig3Config {
    /// Reduced scale: 512-node measured overlay.
    pub fn quick() -> Self {
        Fig3Config { measured_n: 512, seed: 42 }
    }

    /// Paper scale: analytic N = 2^20, measured overlay of 4096 nodes.
    pub fn paper() -> Self {
        Fig3Config { measured_n: 4096, ..Self::quick() }
    }
}

/// One row of the regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The analytic point (paper curve).
    pub analytic: ResponsibilityPoint,
    /// Measured member-only responsibility (trees per stationary node).
    pub measured_member: f64,
    /// Measured non-member-only responsibility.
    pub measured_non_member: f64,
}

/// The regenerated Figure 3 data set.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// One row per mobile fraction.
    pub rows: Vec<Fig3Row>,
}

/// Builds a flat overlay (no physical locality needed here) of `n` nodes.
fn flat_overlay(n: usize, rng: &mut Pcg64) -> (RingDht<Vec<u8>>, AttachmentMap, DistanceCache) {
    let dcache = flat_distances();
    let cfg = RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() };
    let (mut dht, attachments, _) = random_ring(n, cfg, &[RouterId(0)], rng);
    dht.build_all_tables(&attachments, &dcache, rng, 1);
    (dht, attachments, dcache)
}

/// Runs the experiment.
pub fn run(cfg: &Fig3Config) -> Fig3Result {
    let analytic = figure3_series(ANALYTIC_N, &FRACTIONS);
    let mut rng = Pcg64::seed_from_u64(cfg.seed);
    let (dht, attachments, dcache) = flat_overlay(cfg.measured_n, &mut rng);
    let keys: Vec<Key> = dht.keys().collect();
    let rev = dht.reverse_index();
    let capacities: HashMap<Key, u32> = keys
        .iter()
        .map(|&k| (k, rng.range_inclusive(CAPACITY_RANGE.0 as u64, CAPACITY_RANGE.1 as u64) as u32))
        .collect();

    let mut rows = Vec::with_capacity(FRACTIONS.len());
    for (i, &fraction) in FRACTIONS.iter().enumerate() {
        let m = ((cfg.measured_n as f64) * fraction) as usize;
        let m = m.clamp(1, cfg.measured_n - 1);
        // Deterministic mobile subset per fraction.
        let mut pick_rng = Pcg64::new(cfg.seed ^ (i as u64), 77);
        let mut shuffled = keys.clone();
        pick_rng.shuffle(&mut shuffled);
        let mobile: Vec<Key> = shuffled[..m].to_vec();
        let stationary: Vec<Key> = shuffled[m..].to_vec();
        let mobile_set: std::collections::HashSet<Key> = mobile.iter().copied().collect();
        let is_stationary: HashMap<Key, bool> =
            keys.iter().map(|&k| (k, !mobile_set.contains(&k))).collect();

        // Member-only: per mobile root, the LDT over its registrants.
        // Count, per stationary node, the trees it belongs to.
        let mut member_load: HashMap<Key, usize> = HashMap::new();
        for &root in &mobile {
            let registrants: Vec<Registrant> = rev
                .get(&root)
                .map(|holders| {
                    holders.iter().map(|&h| Registrant::new(h, capacities[&h])).collect()
                })
                .unwrap_or_default();
            let tree = Ldt::build(Registrant::new(root, capacities[&root]), &registrants, 1);
            for node in tree.nodes().iter().skip(1) {
                if is_stationary[&node.key] {
                    *member_load.entry(node.key).or_default() += 1;
                }
            }
        }

        // Non-member-only: Scribe-like trees whose helpers are "elected
        // from the other N − M nodes in the stationary layer" (§2.3) —
        // leaves reach the root via stationary-layer routes, drafting
        // every stationary node they traverse.
        let stationary_dht = {
            let mut s: RingDht<()> = RingDht::new(RingConfig {
                selection: NeighborSelection::First,
                ..RingConfig::tornado()
            });
            for &k in &stationary {
                let host = dht.node(k).expect("known").host;
                s.insert(k, host, 1).expect("distinct keys");
            }
            let mut wire_rng = Pcg64::new(cfg.seed ^ 0xf163 ^ (i as u64), 3);
            s.build_all_tables(&attachments, &dcache, &mut wire_rng, 1);
            s
        };
        let mut non_member_load: HashMap<Key, usize> = HashMap::new();
        for &root in &mobile {
            let members: Vec<Key> = rev.get(&root).cloned().unwrap_or_default();
            // Each leaf injects at its stationary representative; the
            // root's location record lives at the root key's stationary
            // owner.
            let root_rep = stationary_dht.owner(root).expect("stationary layer non-empty");
            let entries: Vec<Key> =
                members.iter().map(|&m| stationary_dht.owner(m).expect("non-empty")).collect();
            let tree =
                NonMemberTree::build(&stationary_dht, root_rep, &entries, &attachments, &dcache)
                    .expect("overlay intact");
            for &p in &tree.participants {
                *non_member_load.entry(p).or_default() += 1;
            }
        }

        let per_stationary = |load: &HashMap<Key, usize>| {
            load.values().sum::<usize>() as f64 / stationary.len().max(1) as f64
        };
        rows.push(Fig3Row {
            analytic: analytic[i],
            measured_member: per_stationary(&member_load),
            measured_non_member: per_stationary(&non_member_load),
        });
    }
    Fig3Result { rows }
}

/// Renders the result as the paper's figure data.
pub fn to_table(result: &Fig3Result) -> Table {
    let mut t = Table::new(
        "Figure 3 — responsibility vs M/N (analytic N = 2^20; measured overlay)",
        &[
            "M/N",
            "member-only (analytic)",
            "non-member (analytic)",
            "member-only (measured)",
            "non-member (measured)",
        ],
    );
    for row in &result.rows {
        t.row(vec![
            f2(row.analytic.mobile_fraction),
            f2(row.analytic.member_only),
            f2(row.analytic.non_member),
            f3(row.measured_member),
            f3(row.measured_non_member),
        ]);
    }
    t
}

/// The `fig3` sweep: regenerates the paper's **Figure 3** (LDT
/// responsibility).
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(Fig3Config::quick(), Fig3Config::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let mut out = SweepRun::new("fig3", cfg.seed);
    out.tables.push(to_table(&run(&cfg)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig3Config {
        Fig3Config { measured_n: 128, seed: 7 }
    }

    #[test]
    fn measured_non_member_exceeds_member() {
        let result = run(&tiny_config());
        for row in &result.rows {
            assert!(
                row.measured_non_member > row.measured_member,
                "at M/N {} non-member {} must exceed member {}",
                row.analytic.mobile_fraction,
                row.measured_non_member,
                row.measured_member
            );
        }
    }

    #[test]
    fn responsibility_grows_with_mobile_fraction() {
        let result = run(&tiny_config());
        let (first, last) = (&result.rows[0], &result.rows[FRACTIONS.len() - 1]);
        assert!(last.measured_non_member > first.measured_non_member);
        assert!(last.analytic.non_member > first.analytic.non_member);
    }

    #[test]
    fn table_has_one_row_per_fraction() {
        let result = run(&tiny_config());
        let t = to_table(&result);
        assert_eq!(t.len(), FRACTIONS.len());
    }

    #[test]
    fn deterministic() {
        let a = run(&tiny_config());
        let b = run(&tiny_config());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.measured_member, y.measured_member);
            assert_eq!(x.measured_non_member, y.measured_non_member);
        }
    }
}
