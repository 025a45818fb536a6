//! **Ablations** — the design choices DESIGN.md calls out, measured.
//!
//! Four studies, none of which is a paper figure but all of which back
//! claims the paper makes in passing:
//!
//! 1. **Substrate comparison** (§2.2, §2.3.2): "The stationary layer can
//!    be any HS-P2P, e.g., CAN, Chord, Pastry, Tapestry, Tornado" — with
//!    different state/route trade-offs (CAN: O(d) state, O(d·N^(1/d))
//!    hops; ring/prefix DHTs: O(log N) both). We measure state-per-node
//!    and route hops for the Tornado-like ring (base 4), the Chord-like
//!    ring (base 2), the Pastry-like prefix DHT, and CAN at d ∈ {2, 4}.
//! 2. **LDT fan-out** (Fig. 4's `v`): how the advertisement unit cost
//!    shifts tree depth vs per-node sending load.
//! 3. **Binding mode** (§2.3.2): early binding trades proactive update
//!    traffic for discovery-free routes; late binding the reverse.
//! 4. **Query mode**: recursive vs iterative `_discovery` — identical
//!    hop sequences, very different physical cost.

use bristle_core::config::BristleConfig;
use bristle_core::ldt::Ldt;
use bristle_core::registry::Registrant;
use bristle_core::system::BristleBuilder;
use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::can::CanOverlay;
use bristle_overlay::config::{NeighborSelection, RingConfig};
use bristle_overlay::key::Key;

use crate::cli::SweepArgs;
use crate::report::{f2, Table};
use crate::runreport::Json;
use crate::sweeps::SweepRun;
use crate::workload::{flat_distances, random_ring, Telemetry};

use std::sync::Arc;

/// Registrant count for the LDT fan-out study.
pub const LDT_MEMBERS: usize = 24;
/// Unit costs `v` swept in the fan-out study.
pub const UNIT_COSTS: [u32; 4] = [1, 2, 4, 8];
/// Route samples in the binding-mode study.
pub const BINDING_ROUTES: usize = 150;

/// Parameters for the ablation studies.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Overlay size for the substrate comparison.
    pub n_nodes: usize,
    /// Routes sampled per substrate.
    pub routes: usize,
    /// Population for the binding-mode study.
    pub binding_nodes: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl AblationConfig {
    /// Reduced scale.
    pub fn quick() -> Self {
        AblationConfig { n_nodes: 512, routes: 400, binding_nodes: (120, 60), seed: 42 }
    }

    /// Larger populations.
    pub fn paper() -> Self {
        AblationConfig { n_nodes: 4096, routes: 2_000, binding_nodes: (600, 300), ..Self::quick() }
    }
}

/// One substrate's measurements.
#[derive(Debug, Clone)]
pub struct SubstrateRow {
    /// Substrate name.
    pub name: &'static str,
    /// Mean routing-state rows (ring) / neighbors (CAN) per node.
    pub state_per_node: f64,
    /// Mean route hops to random keys.
    pub route_hops: f64,
}

/// One LDT fan-out measurement.
#[derive(Debug, Clone, Copy)]
pub struct FanoutRow {
    /// The unit cost `v`.
    pub unit_cost: u32,
    /// Resulting tree depth.
    pub depth: u32,
    /// Maximum messages any single member sends (its partition fan-out).
    pub max_fanout: usize,
}

/// One binding-mode measurement.
#[derive(Debug, Clone)]
pub struct BindingRow {
    /// Mode name.
    pub name: &'static str,
    /// Proactive messages (publish + update) during the scenario.
    pub proactive_msgs: u64,
    /// Reactive discovery operations during the route phase.
    pub discoveries: f64,
    /// Mean route hops (including discovery traffic).
    pub route_hops: f64,
}

/// One query-mode measurement (recursive vs iterative discovery).
#[derive(Debug, Clone)]
pub struct QueryModeRow {
    /// Mode name.
    pub name: &'static str,
    /// Mean physical cost per discovery-style query.
    pub cost_per_query: f64,
    /// Mean messages per query.
    pub msgs_per_query: f64,
}

/// The full ablation data set.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Study 1: substrate comparison.
    pub substrates: Vec<SubstrateRow>,
    /// Study 2: LDT fan-out.
    pub fanout: Vec<FanoutRow>,
    /// Study 3: binding modes.
    pub binding: Vec<BindingRow>,
    /// Study 4: recursive vs iterative query routing.
    pub query_modes: Vec<QueryModeRow>,
}

fn measure_ring(
    cfg: &AblationConfig,
    ring: RingConfig,
    name: &'static str,
    seed: u64,
) -> SubstrateRow {
    let mut rng = Pcg64::seed_from_u64(seed);
    let (mut dht, attachments, _) = random_ring(cfg.n_nodes, ring, &[RouterId(0)], &mut rng);
    dht.build_all_tables(&attachments, &flat_distances(), &mut rng, 1);
    let keys: Vec<Key> = dht.keys().collect();
    let mut hops_total = 0usize;
    for _ in 0..cfg.routes {
        let src = dht.slot_of(*rng.choose(&keys)).expect("route");
        hops_total += dht.walk(src, Key::random(&mut rng)).count();
    }
    SubstrateRow {
        name,
        state_per_node: dht.total_state() as f64 / dht.len() as f64,
        route_hops: hops_total as f64 / cfg.routes as f64,
    }
}

fn measure_prefix(cfg: &AblationConfig, name: &'static str, seed: u64) -> SubstrateRow {
    use bristle_overlay::prefix::PrefixDht;
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut attachments = AttachmentMap::new();
    let dcache = flat_distances();
    let ring = RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() };
    let mut dht: PrefixDht<()> = PrefixDht::new(ring);
    for _ in 0..cfg.n_nodes {
        let host = attachments.attach_new(RouterId(0));
        loop {
            let k = Key::random(&mut rng);
            if dht.insert(k, host, 1).is_ok() {
                break;
            }
        }
    }
    dht.build_all_tables(&attachments, &dcache, &mut rng);
    let keys: Vec<Key> = dht.keys().collect();
    let mut hops_total = 0usize;
    for _ in 0..cfg.routes {
        let src = *rng.choose(&keys);
        hops_total += dht.route(src, Key::random(&mut rng)).expect("route").len();
    }
    SubstrateRow {
        name,
        state_per_node: dht.total_state() as f64 / dht.len() as f64,
        route_hops: hops_total as f64 / cfg.routes as f64,
    }
}

fn measure_can(cfg: &AblationConfig, dims: usize, name: &'static str, seed: u64) -> SubstrateRow {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut can: CanOverlay<()> = CanOverlay::new(dims);
    for i in 0..cfg.n_nodes {
        loop {
            let k = Key::random(&mut rng);
            if can.join(k, HostId(i as u32), &mut rng).is_ok() {
                break;
            }
        }
    }
    // The overlay iterates a `HashMap`; sort so the sampled sources (and
    // the printed means) repeat run to run.
    let mut keys: Vec<Key> = can.iter().map(|n| n.key).collect();
    keys.sort_unstable();
    let mut hops_total = 0usize;
    for _ in 0..cfg.routes {
        let src = *rng.choose(&keys);
        let target = Key::random(&mut rng);
        hops_total += can.route(src, target).expect("route").len();
    }
    SubstrateRow {
        name,
        state_per_node: can.avg_state(),
        route_hops: hops_total as f64 / cfg.routes as f64,
    }
}

fn measure_fanout(cfg: &AblationConfig) -> Vec<FanoutRow> {
    let mut rng = Pcg64::seed_from_u64(cfg.seed ^ 0xfa);
    let registrants: Vec<Registrant> = (0..LDT_MEMBERS)
        .map(|i| Registrant::new(Key(i as u64 + 1), rng.range_inclusive(1, 15) as u32))
        .collect();
    let root = Registrant::new(Key(0), 15);
    UNIT_COSTS
        .iter()
        .map(|&v| {
            let tree = Ldt::build(root, &registrants, v);
            // Fan-out of a member = number of children it has.
            let mut children = vec![0usize; tree.len()];
            for n in tree.nodes() {
                if let Some(p) = n.parent {
                    children[p as usize] += 1;
                }
            }
            FanoutRow {
                unit_cost: v,
                depth: tree.depth(),
                max_fanout: children.into_iter().max().unwrap_or(0),
            }
        })
        .collect()
}

fn measure_binding(cfg: &AblationConfig) -> Vec<BindingRow> {
    use bristle_overlay::meter::MessageKind;
    let mut rows = Vec::new();
    for (name, base) in [
        ("early binding", BristleConfig::recommended()),
        (
            "late binding",
            BristleConfig {
                lease_ttl: 0,
                binding: bristle_core::config::BindingMode::Late,
                ..BristleConfig::recommended()
            },
        ),
    ] {
        let mut sys = BristleBuilder::new(cfg.seed ^ 0xb1)
            .stationary_nodes(cfg.binding_nodes.0)
            .mobile_nodes(cfg.binding_nodes.1)
            .topology(TransitStubConfig::small())
            .config(base)
            .build()
            .expect("builds");
        let before = sys.meter.clone();
        for m in sys.mobile_keys().to_vec() {
            sys.move_node(m, None).expect("move");
        }
        let proactive_msgs = (sys.meter.count(MessageKind::Publish)
            + sys.meter.count(MessageKind::Update)
            + sys.meter.count(MessageKind::Replicate))
            - (before.count(MessageKind::Publish)
                + before.count(MessageKind::Update)
                + before.count(MessageKind::Replicate));
        let stationaries = sys.stationary_keys().to_vec();
        let mobiles = sys.mobile_keys().to_vec();
        let mut discoveries = 0usize;
        let mut hops = 0usize;
        for i in 0..BINDING_ROUTES {
            let src = stationaries[i % stationaries.len()];
            let dst = mobiles[(i * 3) % mobiles.len()];
            let rep = sys.route_mobile(src, dst).expect("route");
            discoveries += rep.discoveries;
            hops += rep.total_hops();
        }
        rows.push(BindingRow {
            name,
            proactive_msgs,
            discoveries: discoveries as f64 / BINDING_ROUTES as f64,
            route_hops: hops as f64 / BINDING_ROUTES as f64,
        });
    }
    rows
}

fn measure_query_modes(cfg: &AblationConfig) -> Vec<QueryModeRow> {
    use bristle_netsim::transit_stub::TransitStubTopology;
    use bristle_overlay::meter::{MessageKind, Meter};
    // A physically realistic network this time: round trips must cost
    // real distance for the comparison to mean anything.
    let mut rng = Pcg64::seed_from_u64(cfg.seed ^ 0x17e2);
    let topo = TransitStubTopology::generate(&TransitStubConfig::small(), &mut rng);
    let stubs = topo.stub_routers().to_vec();
    let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 2048);
    let (mut dht, attachments, _) =
        random_ring(cfg.n_nodes.min(1024), RingConfig::tornado(), &stubs, &mut rng);
    dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
    let keys: Vec<Key> = dht.keys().collect();
    let mut rec = Meter::new();
    let mut ite = Meter::new();
    for _ in 0..cfg.routes {
        let src = *rng.choose(&keys);
        let target = Key::random(&mut rng);
        dht.route_as(src, target, MessageKind::DiscoveryHop, &attachments, &dcache, &mut rec)
            .expect("route");
        dht.route_iterative(
            src,
            target,
            MessageKind::DiscoveryHop,
            &attachments,
            &dcache,
            &mut ite,
        )
        .expect("route");
    }
    let row = |name, m: &Meter| QueryModeRow {
        name,
        cost_per_query: m.cost(MessageKind::DiscoveryHop) as f64 / cfg.routes as f64,
        msgs_per_query: m.count(MessageKind::DiscoveryHop) as f64 / cfg.routes as f64,
    };
    vec![row("recursive", &rec), row("iterative", &ite)]
}

/// Runs all four studies.
pub fn run(cfg: &AblationConfig) -> AblationResult {
    let substrates = vec![
        measure_ring(
            cfg,
            RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() },
            "ring base-4 (Tornado-like)",
            cfg.seed ^ 1,
        ),
        measure_ring(
            cfg,
            RingConfig { selection: NeighborSelection::First, ..RingConfig::chord() },
            "ring base-2 (Chord-like)",
            cfg.seed ^ 2,
        ),
        measure_prefix(cfg, "prefix base-4 (Pastry-like)", cfg.seed ^ 7),
        measure_can(cfg, 2, "CAN d=2", cfg.seed ^ 3),
        measure_can(cfg, 4, "CAN d=4", cfg.seed ^ 4),
    ];
    AblationResult {
        substrates,
        fanout: measure_fanout(cfg),
        binding: measure_binding(cfg),
        query_modes: measure_query_modes(cfg),
    }
}

/// Renders the substrate comparison.
pub fn to_table_substrates(result: &AblationResult) -> Table {
    let mut t = Table::new(
        "Ablation 1 — HS-P2P substrate candidates (paper §2.3.2)",
        &["substrate", "state/node", "route hops"],
    );
    for r in &result.substrates {
        t.row(vec![r.name.to_string(), f2(r.state_per_node), f2(r.route_hops)]);
    }
    t
}

/// Renders the fan-out study.
pub fn to_table_fanout(result: &AblationResult) -> Table {
    let mut t = Table::new(
        "Ablation 2 — LDT unit cost v (Fig. 4)",
        &["v", "tree depth", "max member fan-out"],
    );
    for r in &result.fanout {
        t.row(vec![r.unit_cost.to_string(), r.depth.to_string(), r.max_fanout.to_string()]);
    }
    t
}

/// Renders the binding study.
pub fn to_table_binding(result: &AblationResult) -> Table {
    let mut t = Table::new(
        "Ablation 3 — early vs late binding (§2.3.2)",
        &["mode", "proactive msgs", "disc/route", "hops/route"],
    );
    for r in &result.binding {
        t.row(vec![
            r.name.to_string(),
            r.proactive_msgs.to_string(),
            f2(r.discoveries),
            f2(r.route_hops),
        ]);
    }
    t
}

/// Renders the query-mode study.
pub fn to_table_query_modes(result: &AblationResult) -> Table {
    let mut t = Table::new(
        "Ablation 4 — recursive vs iterative query routing",
        &["mode", "cost/query", "msgs/query"],
    );
    for r in &result.query_modes {
        t.row(vec![r.name.to_string(), f2(r.cost_per_query), f2(r.msgs_per_query)]);
    }
    t
}

/// The `ablation` sweep: substrate comparison, LDT fan-out, binding
/// modes and query modes. No message-passing driver, so report cells
/// carry study rows only — no meter tallies, no latency histograms.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(AblationConfig::quick(), AblationConfig::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let result = run(&cfg);
    let mut out = SweepRun::new("ablation", cfg.seed);
    out.tables.extend([
        to_table_substrates(&result),
        to_table_fanout(&result),
        to_table_binding(&result),
        to_table_query_modes(&result),
    ]);
    let mut study = |name: &str, outcome: Json| {
        out.report.push_cell(
            Json::obj([("study", Json::Str(name.into()))]),
            &Telemetry::default(),
            outcome,
        );
    };
    for row in &result.substrates {
        study(
            "substrate",
            Json::obj([
                ("name", Json::Str(row.name.into())),
                ("state_per_node", Json::F64(row.state_per_node)),
                ("route_hops", Json::F64(row.route_hops)),
            ]),
        );
    }
    for row in &result.fanout {
        study(
            "fanout",
            Json::obj([
                ("unit_cost", Json::U64(row.unit_cost as u64)),
                ("depth", Json::U64(row.depth as u64)),
                ("max_fanout", Json::U64(row.max_fanout as u64)),
            ]),
        );
    }
    for row in &result.binding {
        study(
            "binding",
            Json::obj([
                ("name", Json::Str(row.name.into())),
                ("proactive_msgs", Json::U64(row.proactive_msgs)),
                ("discoveries", Json::F64(row.discoveries)),
                ("route_hops", Json::F64(row.route_hops)),
            ]),
        );
    }
    for row in &result.query_modes {
        study(
            "query_mode",
            Json::obj([
                ("name", Json::Str(row.name.into())),
                ("cost_per_query", Json::F64(row.cost_per_query)),
                ("msgs_per_query", Json::F64(row.msgs_per_query)),
            ]),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig { n_nodes: 128, routes: 100, binding_nodes: (40, 20), seed: 5 }
    }

    #[test]
    fn can_trades_state_for_hops() {
        let result = run(&tiny());
        let ring4 = &result.substrates[0];
        let can2 = &result.substrates[3];
        assert!(can2.state_per_node < ring4.state_per_node, "CAN keeps O(d) state");
        assert!(can2.route_hops > ring4.route_hops, "CAN pays O(d·N^(1/d)) hops");
    }

    #[test]
    fn substrate_rows_repeat_exactly() {
        let rows = |r: AblationResult| -> Vec<(f64, f64)> {
            r.substrates.iter().map(|s| (s.state_per_node, s.route_hops)).collect()
        };
        assert_eq!(rows(run(&tiny())), rows(run(&tiny())));
    }

    #[test]
    fn base4_beats_base2_on_hops() {
        let result = run(&tiny());
        assert!(result.substrates[0].route_hops < result.substrates[1].route_hops);
    }

    #[test]
    fn prefix_family_behaves_like_ring_family() {
        // Same base, same O(log N) class: hops within 1.5x of each other.
        let result = run(&tiny());
        let ring4 = &result.substrates[0];
        let prefix4 = &result.substrates[2];
        assert!(prefix4.route_hops < ring4.route_hops * 1.5);
        assert!(ring4.route_hops < prefix4.route_hops * 1.5);
    }

    #[test]
    fn higher_dim_can_routes_shorter() {
        let result = run(&tiny());
        let can2 = &result.substrates[3];
        let can4 = &result.substrates[4];
        assert!(
            can4.route_hops <= can2.route_hops * 1.2,
            "d=4 {} vs d=2 {}",
            can4.route_hops,
            can2.route_hops
        );
    }

    #[test]
    fn bigger_unit_cost_deepens_trees() {
        let result = run(&tiny());
        let first = result.fanout.first().unwrap();
        let last = result.fanout.last().unwrap();
        assert!(last.depth >= first.depth, "v=8 {} vs v=1 {}", last.depth, first.depth);
        assert!(last.max_fanout <= first.max_fanout);
    }

    #[test]
    fn late_binding_discovers_more() {
        let result = run(&tiny());
        let early = &result.binding[0];
        let late = &result.binding[1];
        assert!(
            late.discoveries > early.discoveries,
            "late {} vs early {}",
            late.discoveries,
            early.discoveries
        );
        assert!(late.route_hops >= early.route_hops);
    }

    #[test]
    fn iterative_queries_cost_more_per_query() {
        let result = run(&tiny());
        let rec = &result.query_modes[0];
        let ite = &result.query_modes[1];
        assert!(
            ite.cost_per_query > rec.cost_per_query,
            "iterative {} vs recursive {}",
            ite.cost_per_query,
            rec.cost_per_query
        );
        // Same greedy path → same message count.
        assert!((ite.msgs_per_query - rec.msgs_per_query).abs() < 1e-9);
    }

    #[test]
    fn tables_render() {
        let result = run(&tiny());
        assert_eq!(to_table_substrates(&result).len(), 5);
        assert_eq!(to_table_fanout(&result).len(), UNIT_COSTS.len());
        assert_eq!(to_table_binding(&result).len(), 2);
        assert_eq!(to_table_query_modes(&result).len(), 2);
    }
}
