//! **Table 1** — design choices for mobility in HS-P2P: Type A (plain
//! IP), Type B (mobile IP), and Bristle, compared quantitatively.
//!
//! The paper's table is qualitative ("Fair/Poor/Good"); we regenerate it
//! with measured numbers that justify each adjective:
//!
//! * **scalability** — average routing-state rows per node, and messages
//!   per movement event (state the infrastructure must churn);
//! * **reliability / end-to-end semantics** — the fraction of sessions
//!   that survive the peer moving (a correspondent holding the peer's
//!   overlay identity can still reach the same physical host), and the
//!   availability of data owned by movers;
//! * **performance** — physical path stretch of routes versus direct
//!   shortest paths (Type B pays the mobile-IP triangle, Bristle pays
//!   discovery, Type A pays nothing but breaks semantics).
//!
//! Movement and lookups are interleaved by the discrete-event engine for
//! the Bristle run, exercising the full update/discovery machinery under
//! concurrent-looking load.

use bristle_core::config::BristleConfig;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_core::time::SimTime;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::key::Key;

use crate::baseline_type_a::TypeASystem;
use crate::baseline_type_b::TypeBSystem;
use crate::cli::SweepArgs;
use crate::engine::{run as run_events, EventQueue};
use crate::metrics::Samples;
use crate::mobility::MobilityModel;
use crate::report::{f2, pct, Table};
use crate::sweeps::SweepRun;

/// Probability that a Type B home agent is down at any lookup.
pub const AGENT_FAILURE_PROB: f64 = 0.1;
/// Mean ticks between moves of one node.
pub const MOVE_INTERVAL: u64 = 50;
/// Physical topology all three architectures are built on.
pub const TOPOLOGY: TransitStubConfig = TransitStubConfig::small();

/// Parameters for the Table 1 regeneration.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Stationary node count.
    pub n_stationary: usize,
    /// Mobile node count.
    pub n_mobile: usize,
    /// Movement events injected.
    pub moves: usize,
    /// Lookups interleaved with the movement.
    pub lookups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Table1Config {
    /// Reduced scale.
    pub fn quick() -> Self {
        Table1Config { n_stationary: 150, n_mobile: 60, moves: 120, lookups: 200, seed: 42 }
    }

    /// Larger populations (a 1 024-node system, 30% mobile).
    pub fn paper() -> Self {
        Table1Config {
            n_stationary: 716,
            n_mobile: 308,
            moves: 600,
            lookups: 1_000,
            ..Self::quick()
        }
    }
}

/// Measured metrics for one architecture.
#[derive(Debug, Clone)]
pub struct SystemMetrics {
    /// Architecture name.
    pub name: &'static str,
    /// Required infrastructure.
    pub infrastructure: &'static str,
    /// Mean routing-state rows per node.
    pub state_per_node: f64,
    /// Mean protocol messages caused by one movement event.
    pub msgs_per_move: f64,
    /// Fraction of sessions that survive the peer's movement.
    pub session_survival: f64,
    /// Fraction of lookups for movers' data that succeed mid-churn.
    pub data_availability: f64,
    /// Mean mobility-induced delivery overhead (paid cost / forwarding
    /// cost; 1.0 = no indirection at all).
    pub path_stretch: f64,
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One row per architecture: Type A, Type B, Bristle.
    pub systems: Vec<SystemMetrics>,
}

/// A key owned by `node` (just below it on the ring — with 2^64 random
/// keys the gap is never occupied).
fn key_owned_by(node: Key) -> Key {
    Key(node.0.wrapping_sub(1))
}

fn measure_bristle(cfg: &Table1Config) -> SystemMetrics {
    let mut sys: BristleSystem = BristleBuilder::new(cfg.seed)
        .stationary_nodes(cfg.n_stationary)
        .mobile_nodes(cfg.n_mobile)
        .topology(TOPOLOGY)
        .config(BristleConfig::recommended())
        .build()
        .expect("bristle builds");

    // Every mobile node self-publishes one data item it owns.
    let mobiles = sys.mobile_keys().to_vec();
    for &m in &mobiles {
        sys.store_data(m, key_owned_by(m), m.0.to_le_bytes().to_vec()).expect("store");
    }

    let msgs_before = sys.meter.total_messages();
    let mut lookups_ok = 0usize;
    let mut lookups_total = 0usize;
    let mut stretch = Samples::new();
    let mut sessions_ok = 0usize;
    let mut sessions_total = 0usize;

    // Interleave moves and lookups through the event engine.
    #[derive(Clone, Copy)]
    enum Ev {
        Move(usize),
        Lookup(usize),
    }
    let mobility = MobilityModel::new(MOVE_INTERVAL);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    {
        let rng = sys.rng();
        for i in 0..cfg.moves {
            let delay = 1 + mobility.next_delay(rng) % (MOVE_INTERVAL * 4);
            queue.schedule_at(SimTime(delay + i as u64), Ev::Move(i));
        }
        for i in 0..cfg.lookups {
            queue.schedule_at(
                SimTime(1 + (i as u64 * MOVE_INTERVAL * 4) / cfg.lookups.max(1) as u64),
                Ev::Lookup(i),
            );
        }
    }
    let stationaries = sys.stationary_keys().to_vec();
    run_events(&mut queue, SimTime(u64::MAX), u64::MAX, |_q, t, ev| {
        if sys.clock.now() < t {
            let dt = t.since(sys.clock.now());
            sys.tick(dt);
        }
        match ev {
            Ev::Move(i) => {
                let m = mobiles[i % mobiles.len()];
                sys.move_node(m, None).expect("move");
                // Session check: a correspondent holding `m` routes to it
                // and must land on the same node.
                let src = stationaries[i % stationaries.len()];
                let rep = sys.route_mobile(src, m).expect("route");
                sessions_total += 1;
                if rep.terminus == m {
                    sessions_ok += 1;
                }
            }
            Ev::Lookup(i) => {
                let reader = stationaries[(i * 7) % stationaries.len()];
                let target = mobiles[i % mobiles.len()];
                let (payload, _) = sys.fetch_data(reader, key_owned_by(target)).expect("fetch");
                lookups_total += 1;
                if payload.is_some() {
                    lookups_ok += 1;
                }
            }
        }
    });

    let msgs_per_move = (sys.meter.total_messages() - msgs_before) as f64 / cfg.moves as f64;

    // Mobility overhead on the same footing as the other systems:
    // stationary→stationary messages (the traffic §3's clustered naming
    // optimizes) with the mobile population in place — paid cost over the
    // pure forwarding cost.
    for i in 0..cfg.lookups {
        let src = stationaries[i % stationaries.len()];
        let dst = stationaries[(i * 5 + 1) % stationaries.len()];
        if src == dst {
            continue;
        }
        let rep = sys.route_mobile(src, dst).expect("route");
        stretch.push(rep.mobility_overhead());
    }
    SystemMetrics {
        name: "Bristle",
        infrastructure: "IP",
        state_per_node: sys.mobile.total_state() as f64 / sys.mobile.len() as f64,
        msgs_per_move,
        session_survival: sessions_ok as f64 / sessions_total.max(1) as f64,
        data_availability: lookups_ok as f64 / lookups_total.max(1) as f64,
        path_stretch: stretch.mean().max(1.0),
    }
}

fn measure_type_a(cfg: &Table1Config) -> SystemMetrics {
    let mut sys = TypeASystem::build(cfg.seed, cfg.n_stationary, cfg.n_mobile, &TOPOLOGY, 1);
    let mobiles = sys.mobile_bodies();
    let readers = sys.stationary_bodies();

    // Each mobile body self-publishes one item it owns; stationary bodies
    // publish too (they anchor the stretch measurement, since mover data
    // does not survive Type A movement at all).
    for &b in &mobiles {
        let key = key_owned_by(sys.current_key(b));
        sys.publish(b, key, vec![1]).expect("publish");
    }
    for &b in &readers {
        let key = key_owned_by(sys.current_key(b));
        sys.publish(b, key, vec![2]).expect("publish");
    }

    let msgs_before = sys.meter.total_messages();
    let mut join_msgs = 0u64;
    let mut sessions_ok = 0usize;
    let mut sessions_total = 0usize;
    let mut lookups_ok = 0usize;
    let mut lookups_total = 0usize;
    let mut stretch = Samples::new();

    for i in 0..cfg.moves {
        let body = mobiles[i % mobiles.len()];
        let old_key = sys.current_key(body);
        let (_, _, msgs) = sys.move_body(body).expect("move");
        join_msgs += msgs;
        // Session: the correspondent still holds `old_key`.
        sessions_total += 1;
        if sys.dht.contains(old_key) {
            sessions_ok += 1;
        }
        // A lookup for the mover's (pre-move) data item.
        if i < cfg.lookups {
            let reader = readers[i % readers.len()];
            let (found, _) = sys.lookup(reader, key_owned_by(old_key)).expect("lookup");
            lookups_total += 1;
            if found {
                lookups_ok += 1;
            }
        }
    }
    // Fill remaining availability lookups against mover data (for parity
    // with the other systems' mover-targeted lookups).
    while lookups_total < cfg.lookups {
        let body = mobiles[lookups_total % mobiles.len()];
        let reader = readers[lookups_total % readers.len()];
        let (found, _) = sys.lookup(reader, key_owned_by(sys.current_key(body))).expect("lookup");
        lookups_total += 1;
        if found {
            lookups_ok += 1;
        }
    }
    // Mobility overhead: by construction zero. A Type A hop always goes
    // straight to the peer's one true address (the overlay simply forgets
    // movers), so the paid cost *is* the forwarding cost — overhead 1.0.
    // That is the "Good performance" cell of the paper's Table 1; the
    // price shows up in the session/data columns instead.
    stretch.push(1.0);

    let _ = join_msgs;
    SystemMetrics {
        name: "Type A (plain IP)",
        infrastructure: "IP",
        state_per_node: sys.avg_state_per_node(),
        msgs_per_move: (sys.meter.total_messages() - msgs_before) as f64 / cfg.moves as f64,
        session_survival: sessions_ok as f64 / sessions_total.max(1) as f64,
        data_availability: lookups_ok as f64 / lookups_total.max(1) as f64,
        path_stretch: stretch.mean().max(1.0),
    }
}

fn measure_type_b(cfg: &Table1Config) -> SystemMetrics {
    let mut sys = TypeBSystem::build(cfg.seed, cfg.n_stationary, cfg.n_mobile, &TOPOLOGY);
    let mobiles = sys.mobile_keys();
    let stationaries = sys.stationary_keys();
    let msgs_before = sys.meter.total_messages();

    let mut sessions_ok = 0usize;
    let mut sessions_total = 0usize;
    let mut rng = bristle_netsim::rng::Pcg64::seed_from_u64(cfg.seed ^ 0xb);
    for i in 0..cfg.moves {
        let m = mobiles[i % mobiles.len()];
        sys.move_node(m).expect("move");
        // Inject agent failures with the configured probability.
        let agent_up = !rng.chance(AGENT_FAILURE_PROB);
        sys.set_agent_alive(m, agent_up);
        let src = stationaries[i % stationaries.len()];
        let route = sys.route(src, m).expect("route");
        sessions_total += 1;
        if route.delivered && sys.dht.owner(m).expect("owner") == m {
            sessions_ok += 1;
        }
        sys.set_agent_alive(m, true);
    }
    let msgs_per_move = (sys.meter.total_messages() - msgs_before) as f64 / cfg.moves as f64;

    // Data availability == session survival here (the overlay is static;
    // reaching the owner is the only failure mode), sampled with agent
    // failures active.
    let mut lookups_ok = 0usize;
    for i in 0..cfg.lookups {
        let m = mobiles[i % mobiles.len()];
        let src = stationaries[(i * 3) % stationaries.len()];
        let agent_up = !rng.chance(AGENT_FAILURE_PROB);
        sys.set_agent_alive(m, agent_up);
        let route = sys.route(src, m).expect("route");
        if route.delivered {
            lookups_ok += 1;
        }
        sys.set_agent_alive(m, true);
    }
    // Mobility overhead on stationary→stationary traffic: the overlay's
    // scrambled keys put mobile nodes on the path, and each such hop pays
    // the mobile-IP triangle — paid cost over per-hop direct cost.
    let mut stretch = Samples::new();
    for i in 0..cfg.lookups {
        let src = stationaries[i % stationaries.len()];
        let dst = stationaries[(i * 5 + 1) % stationaries.len()];
        if src == dst {
            continue;
        }
        let route = sys.route(src, dst).expect("route");
        if route.delivered {
            stretch.push(route.stretch());
        }
    }
    SystemMetrics {
        name: "Type B (mobile IP)",
        infrastructure: "Mobile IP (home agents)",
        state_per_node: sys.dht.total_state() as f64 / sys.dht.len() as f64,
        msgs_per_move,
        session_survival: sessions_ok as f64 / sessions_total.max(1) as f64,
        data_availability: lookups_ok as f64 / cfg.lookups.max(1) as f64,
        path_stretch: stretch.mean().max(1.0),
    }
}

/// Runs all three architectures.
pub fn run(cfg: &Table1Config) -> Table1Result {
    Table1Result { systems: vec![measure_type_a(cfg), measure_type_b(cfg), measure_bristle(cfg)] }
}

/// Renders the quantitative Table 1.
pub fn to_table(result: &Table1Result) -> Table {
    let mut t = Table::new(
        "Table 1 — mobility design choices, measured",
        &[
            "architecture",
            "infrastructure",
            "state/node",
            "msgs/move",
            "session survival",
            "data availability",
            "mobility overhead",
        ],
    );
    for s in &result.systems {
        t.row(vec![
            s.name.to_string(),
            s.infrastructure.to_string(),
            f2(s.state_per_node),
            f2(s.msgs_per_move),
            pct(s.session_survival),
            pct(s.data_availability),
            f2(s.path_stretch),
        ]);
    }
    t
}

/// The `table1` sweep: regenerates the paper's **Table 1** (Type A /
/// Type B / Bristle, measured).
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let mut cfg = args.scale.pick(Table1Config::quick(), Table1Config::paper());
    cfg.seed = args.seed_or(cfg.seed);
    let mut out = SweepRun::new("table1", cfg.seed);
    out.tables.push(to_table(&run(&cfg)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table1Config {
        Table1Config { n_stationary: 50, n_mobile: 20, moves: 30, lookups: 40, seed: 9 }
    }

    #[test]
    fn bristle_preserves_sessions_type_a_does_not() {
        let result = run(&tiny());
        let type_a = &result.systems[0];
        let bristle = &result.systems[2];
        assert_eq!(type_a.session_survival, 0.0, "Type A identities die on move");
        assert!(
            bristle.session_survival > 0.95,
            "Bristle keeps sessions: {}",
            bristle.session_survival
        );
    }

    #[test]
    fn bristle_data_beats_type_a_under_movement() {
        let result = run(&tiny());
        let type_a = &result.systems[0];
        let bristle = &result.systems[2];
        assert!(
            bristle.data_availability > type_a.data_availability,
            "bristle {} vs type A {}",
            bristle.data_availability,
            type_a.data_availability
        );
        assert!(bristle.data_availability > 0.95);
    }

    #[test]
    fn type_b_reliability_suffers_agent_failures() {
        let result = run(&tiny());
        let type_b = &result.systems[1];
        assert!(
            type_b.data_availability < 0.95,
            "10% agent failures must show: {}",
            type_b.data_availability
        );
    }

    #[test]
    fn type_b_pays_triangular_stretch() {
        let result = run(&tiny());
        let type_a = &result.systems[0];
        let type_b = &result.systems[1];
        assert!(
            type_b.path_stretch > type_a.path_stretch,
            "triangles cost: {}",
            type_b.path_stretch
        );
    }

    #[test]
    fn type_a_moves_cost_most_messages() {
        let result = run(&tiny());
        let type_a = &result.systems[0];
        let type_b = &result.systems[1];
        assert!(
            type_a.msgs_per_move > type_b.msgs_per_move,
            "full rejoin {} must beat a binding update {}",
            type_a.msgs_per_move,
            type_b.msgs_per_move
        );
    }

    #[test]
    fn table_has_three_rows() {
        let result = run(&tiny());
        assert_eq!(to_table(&result).len(), 3);
    }
}
