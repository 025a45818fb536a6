//! Sim-vs-socket conformance: the same seed-scripted scenario run over
//! the in-memory [`SimTransport`] and over real UDP loopback sockets
//! must tell the same story.
//!
//! Both arms drive the *same* [`ProtoMachine`] code through the *same*
//! `SystemEnv` window onto a [`BristleSystem`] built from the same
//! seed; only the carrier differs — the simulator's event queue and
//! micro-clock on one side, `bristle-net`'s nonblocking sockets and
//! fast-forwarding wall clock on the other. Two artifacts are compared:
//!
//! - **Per-kind meter tallies** — `(kind, count, cost)` over every
//!   [`MessageKind`]. Every metering decision is made by the machines
//!   — a spurious retry too: each driver asks the destination machine
//!   whether it already processed the frame — or by the one mirrored
//!   driver rule, the stale-address black-hole, so a divergence means a
//!   driver leaked semantics into the protocol.
//! - **The causal profile** — every flight-recorder event, grouped by
//!   trace id and stripped of wall-dependent fields (`at`, `elapsed`).
//!   Within one trace, event *timing* differs between a micro-clock
//!   and a real kernel, but the *set* of causal events must not.
//!
//! The scenario is one list of steps, `script`; the two arms are two
//! short interpreters of it that settle after every step, so a step
//! added to the list runs over both carriers. It covers the paper's
//! interesting paths: registration, plain routes, a settled move
//! followed by an LDT dissemination, and the stale-belief recovery — a
//! confidently wrong (force-believed) address found epoch-stale at
//! forwarding time, one wasted metered hop, and a `_discovery` through
//! the stationary layer. Mid-flight moves — the only wedge that could
//! make the sim's arrival-time black-hole and the socket driver's
//! send-time staleness check disagree — are deliberately excluded; the
//! socket-side timeout ladder is exercised by `bristle-net`'s own driver
//! tests.
//!
//! [`SimTransport`]: bristle_proto::transport::SimTransport
//! [`ProtoMachine`]: bristle_proto::machine::ProtoMachine

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bristle_core::config::BristleConfig;
use bristle_core::system::BristleSystem;
use bristle_core::time::SimTime;
use bristle_net::{SocketDriver, WallClock};
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{FlightRecorder, ObsEvent, Registry};
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::transport::FaultConfig;

use crate::messaging::{
    children_by_parent, wire_addr_of, AuthConfig, MessagingBristleSystem, Nodes, SystemEnv,
    FLIGHT_RECORDER_CAPACITY,
};
use crate::workload::tiny_system;

/// Event budget per scripted operation, mirroring the messaging
/// driver's runaway backstop.
const MAX_EVENTS: u64 = 2_000_000;

/// What one arm of the conformance run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// `(kind, count, cost)` for every message kind, in `ALL_KINDS`
    /// order (kinds with zero traffic included, so the vectors align).
    pub tallies: Vec<(MessageKind, u64, u64)>,
    /// The causal profile: flight events grouped by trace id, with
    /// wall-dependent fields stripped (see [`profile`]).
    pub profile: String,
}

/// The shared population of the conformance, golden-trace and
/// messaging-integration scenarios.
pub fn build(seed: u64) -> BristleSystem {
    tiny_system(seed, 40, 12, BristleConfig::recommended())
}

/// A pair whose mobile-layer route is a single direct hop to a mobile
/// target, so a force-believed stale address is used verbatim by the
/// origin (the recovery-ladder precondition), and a staged move
/// provably races the in-flight forward.
pub fn direct_pair(sys: &BristleSystem) -> (Key, Key) {
    for &target in sys.mobile_keys() {
        for src in sys.mobile.keys() {
            if src != target && sys.mobile.next_hop(src, target).ok().flatten() == Some(target) {
                return (src, target);
            }
        }
    }
    panic!("no direct mobile pair in this population");
}

/// Installs a fresh (but about-to-be-stale) resolved state-pair at
/// `holder` for `subject`, modelling an established session.
pub fn force_belief(sys: &mut BristleSystem, holder: Key, subject: Key) {
    let info = *sys.node_info(subject).expect("known");
    let addr = NetAddr::current(info.host, &sys.attachments);
    let (now, ttl) = (sys.clock.now(), sys.config().lease_ttl);
    sys.leases.grant(holder, subject, now, ttl);
    sys.mobile.upsert_entry(holder, subject, addr).expect("known");
}

/// One flight event as a stable, wall-clock-free line: node plus kind,
/// with `at` dropped entirely and `elapsed` cut from the discovery
/// milestones (micro-ticks and fast-forwarded wall ticks measure
/// different spans of the same story).
fn fmt_causal(e: &ObsEvent) -> String {
    let mut line = format!("node={} {}", e.node, e.kind);
    if let Some(cut) = line.find(" elapsed=") {
        line.truncate(cut);
    }
    line
}

/// Renders the causal profile: events grouped by ascending trace id,
/// lines sorted within each trace (carrier-dependent interleavings —
/// a kernel scheduling two sockets vs. a queue popping two deliveries —
/// must not count as divergence; the *multiset* of events per trace
/// must match exactly, duplicates included).
pub fn profile(events: &[ObsEvent]) -> String {
    let mut by_trace: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace).or_default().push(fmt_causal(e));
    }
    let mut doc = String::new();
    for (trace, mut lines) in by_trace {
        lines.sort();
        doc.push_str(&format!("trace {trace:016x}\n"));
        for line in lines {
            doc.push_str("  ");
            doc.push_str(&line);
            doc.push('\n');
        }
    }
    doc
}

/// One step of the scripted scenario. Both arms settle after each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `who` registers on `target`; the registration must be acked.
    Register { who: Key, target: Key },
    /// A route that must deliver.
    Route { src: Key, target: Key },
    /// A settled move: nothing is in flight while `key` reattaches at `to`.
    Move { key: Key, to: RouterId },
    /// `key` pushes its current address down its LDT.
    Disseminate { key: Key },
    /// `holder` is given a fresh, resolved state-pair for `subject`
    /// ([`force_belief`]) — confidently wrong once `subject` moves.
    Believe { holder: Key, subject: Key },
}

/// The scenario: registration, a plain route, a settled move followed by
/// an LDT dissemination, and the stale-belief recovery — over actors
/// chosen from the freshly built (pre-ops) system, so both arms agree.
fn script(sys: &BristleSystem) -> Vec<Step> {
    // The stale-belief recovery's origin and (direct-hop) mobile target.
    let (ladder_src, ladder_target) = direct_pair(sys);
    // The mobile node that registers watchers, moves, disseminates.
    let m = *sys
        .mobile_keys()
        .iter()
        .find(|&&k| k != ladder_target)
        .expect("more than one mobile node");
    // Its two stationary registrants.
    let (w1, w2) = (sys.stationary_keys()[0], sys.stationary_keys()[1]);
    let elsewhere = |of: Key| {
        let here = sys.router_of(of).expect("attached");
        sys.stub_routers().iter().copied().find(|&r| r != here).expect("another stub router exists")
    };
    vec![
        Step::Register { who: w1, target: m },
        Step::Register { who: w2, target: m },
        Step::Route { src: w1, target: m },
        Step::Move { key: m, to: elsewhere(m) },
        Step::Disseminate { key: m },
        Step::Route { src: w2, target: m },
        Step::Believe { holder: ladder_src, subject: ladder_target },
        Step::Move { key: ladder_target, to: elsewhere(ladder_target) },
        Step::Route { src: ladder_src, target: ladder_target },
    ]
}

/// Runs the scripted scenario over the simulator's event queue and
/// in-memory transport (fault-free: the recovery ladder's losses come
/// from the scripted stale address, not from random drops).
pub fn run_sim(seed: u64) -> ConformanceReport {
    let sys = build(seed);
    let steps = script(&sys);
    sim_arm(sys, seed, &steps)
}

fn sim_arm(sys: BristleSystem, seed: u64, steps: &[Step]) -> ConformanceReport {
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::perfect(), seed);
    for &step in steps {
        match step {
            Step::Register { who, target } => {
                mbs.register(who, target).expect("registration completes");
            }
            Step::Route { src, target } => {
                mbs.route(src, target).expect("route delivers");
            }
            Step::Move { key, to } => {
                let t = mbs.micro_now();
                mbs.schedule_move(SimTime(t.0 + 1), key, Some(to));
            }
            Step::Disseminate { key } => {
                mbs.disseminate_update(key).expect("update disseminates");
            }
            Step::Believe { holder, subject } => force_belief(&mut mbs.sys, holder, subject),
        }
        mbs.settle();
    }
    ConformanceReport { tallies: mbs.sys.meter.tallies(), profile: profile(&mbs.flight().events()) }
}

/// The socket arm's world state: everything [`SystemEnv`] windows onto,
/// minus what the simulator-specific driver owns (event queue, fault
/// transport). No failures are scripted, so nothing is ever held against
/// a node and the degraded set stays empty.
struct NetWorld {
    sys: BristleSystem,
    nodes: Nodes,
    obs: Registry,
    flight: FlightRecorder,
    auth: AuthConfig,
    degraded: BTreeSet<Key>,
}

impl NetWorld {
    fn env(&mut self) -> SystemEnv<'_> {
        SystemEnv {
            sys: &mut self.sys,
            nodes: &mut self.nodes,
            obs: &mut self.obs,
            flight: &mut self.flight,
            auth: self.auth,
            degraded: &self.degraded,
        }
    }
}

fn net_register(d: &mut SocketDriver, w: &mut NetWorld, who: Key, target: Key) {
    let capacity = w.sys.node_info(who).expect("known").capacity;
    let now = d.now();
    let mut env = w.env();
    let out = d.machine_mut(who).expect("bound").start_register(now, &mut env, target, capacity);
    d.dispatch(who, out, &mut env).expect("register dispatch");
    let settled = |c: &Completion| {
        matches!(c,
            Completion::Registered { target: t } | Completion::RegisterFailed { target: t }
                if *t == target)
    };
    d.run_until(&mut env, MAX_EVENTS, settled).expect("register settles");
    assert!(
        d.completions
            .iter()
            .any(|c| matches!(c, Completion::Registered { target: t } if *t == target)),
        "registration must be acked"
    );
    d.completions.retain(|c| !settled(c));
}

fn net_route(d: &mut SocketDriver, w: &mut NetWorld, src: Key, target: Key) {
    let now = d.now();
    let mut env = w.env();
    let (route_id, out) = d.machine_mut(src).expect("bound").start_route(now, &mut env, target);
    d.dispatch(src, out, &mut env).expect("route dispatch");
    let mine = move |c: &Completion| match *c {
        Completion::Delivered { origin, route_id: r } => origin == src && r == route_id,
        Completion::RouteFailed { origin, route_id: r, .. } => origin == src && r == route_id,
        _ => false,
    };
    d.run_until(&mut env, MAX_EVENTS, mine).expect("route settles");
    assert!(
        d.completions
            .iter()
            .any(|c| matches!(*c, Completion::Delivered { origin, route_id: r } if origin == src && r == route_id)),
        "route {src} -> {target} must deliver"
    );
    d.completions.retain(|c| !mine(c));
}

fn net_disseminate(d: &mut SocketDriver, w: &mut NetWorld, key: Key) {
    let info = *w.sys.node_info(key).expect("known");
    let ldt = w.sys.build_ldt(key).expect("ldt builds");
    let addr = wire_addr_of(&w.sys, key).expect("known");
    let mut expected = 0usize;
    for (parent, children) in children_by_parent(&ldt) {
        expected += children.len();
        let now = d.now();
        let mut env = w.env();
        let out = d
            .machine_mut(parent)
            .expect("bound")
            .start_update(now, &mut env, key, addr, info.seq, &children);
        d.dispatch(parent, out, &mut env).expect("update dispatch");
    }
    let mut settled = 0usize;
    while settled < expected {
        let mut env = w.env();
        d.run_until(&mut env, MAX_EVENTS, |c| {
            matches!(c, Completion::UpdateAcked { .. } | Completion::UpdateFailed { .. })
        })
        .expect("update edge settles");
        d.completions.retain(|c| match c {
            Completion::UpdateAcked { .. } | Completion::UpdateFailed { .. } => {
                settled += 1;
                false
            }
            _ => true,
        });
    }
}

/// Drains in-flight datagrams and remaining timers, then forgets any
/// leftover completions — the socket mirror of the sim driver's settle.
fn net_settle(d: &mut SocketDriver, w: &mut NetWorld) {
    let mut env = w.env();
    d.run_until_quiet(&mut env, MAX_EVENTS).expect("network quiesces");
    d.completions.clear();
}

/// Runs the same scripted scenario with every machine behind a real
/// nonblocking UDP socket on loopback, driven by `bristle-net`'s
/// fast-forwarding poll loop.
pub fn run_sockets(seed: u64) -> ConformanceReport {
    let sys = build(seed);
    let steps = script(&sys);
    socket_arm(sys, &steps)
}

fn socket_arm(sys: BristleSystem, steps: &[Step]) -> ConformanceReport {
    let mut world = NetWorld {
        sys,
        nodes: Nodes::default(),
        obs: Registry::default(),
        flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        auth: AuthConfig::default(),
        degraded: BTreeSet::new(),
    };
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
    d.set_grace(Duration::from_millis(5));
    let all: Vec<Key> =
        world.sys.stationary_keys().iter().chain(world.sys.mobile_keys()).copied().collect();
    for key in all {
        // Same construction as the sim driver's, under the session
        // defaults the sim arm runs with.
        let machine = ProtoMachine::new(key, RetryPolicy::default());
        d.bind_node(key, wire_addr_of(&world.sys, key).expect("known"), machine)
            .expect("loopback socket binds");
    }

    for &step in steps {
        match step {
            Step::Register { who, target } => net_register(&mut d, &mut world, who, target),
            Step::Route { src, target } => net_route(&mut d, &mut world, src, target),
            // A settled move: the system reattaches the host (epoch
            // bump). The address book keys endpoints by host, and the
            // node's socket does not move — only its overlay address.
            Step::Move { key, to } => {
                world.sys.move_node(key, Some(to)).expect("mobile node moves");
            }
            Step::Disseminate { key } => net_disseminate(&mut d, &mut world, key),
            Step::Believe { holder, subject } => force_belief(&mut world.sys, holder, subject),
        }
        net_settle(&mut d, &mut world);
    }

    // Nothing in the scripted scenario may trip the socket boundary's
    // hardening: every datagram on the wire is one of our envelopes.
    let stats = d.stats();
    assert_eq!(stats.dropped_oversized, 0, "no oversized frames in a clean run");
    assert_eq!(stats.dropped_garbage, 0, "no undecodable frames in a clean run");

    ConformanceReport {
        tallies: world.sys.meter.tallies(),
        profile: profile(&world.flight.events()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_interpret_the_same_steps() {
        let steps = script(&build(5));
        assert_eq!(sim_arm(build(5), 5, &steps), socket_arm(build(5), &steps));
    }

    #[test]
    fn the_script_uses_every_kind_of_step() {
        let steps = script(&build(5));
        let has = |p: fn(&Step) -> bool| steps.iter().any(p);
        assert!(has(|s| matches!(s, Step::Register { .. })));
        assert!(has(|s| matches!(s, Step::Route { .. })));
        assert!(has(|s| matches!(s, Step::Move { .. })));
        assert!(has(|s| matches!(s, Step::Disseminate { .. })));
        assert!(has(|s| matches!(s, Step::Believe { .. })));
    }
}
