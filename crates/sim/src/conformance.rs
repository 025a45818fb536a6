//! Sim-vs-socket conformance: the same seed-scripted scenario run over
//! the in-memory [`SimTransport`] and over real UDP loopback sockets
//! must tell the same story.
//!
//! Both arms drive the *same* [`ProtoMachine`] code through the *same*
//! `SystemEnv` window onto a [`BristleSystem`] built from the same
//! seed; only the carrier differs — the simulator's event queue and
//! micro-clock on one side, `bristle-net`'s nonblocking sockets and
//! fast-forwarding wall clock on the other. Three artifacts are compared:
//!
//! - **Per-kind meter tallies** — `(kind, count, cost)` over every
//!   [`MessageKind`]. Every metering decision is made by the machines
//!   — a spurious retry too: each driver asks the destination machine
//!   whether it already processed the frame — so a divergence means a
//!   driver leaked semantics into the protocol.
//! - **The run's registry** — one per arm, in its [`Telemetry`]. Every
//!   [`Hist`] series counts alike on both, and so do `frames_sent`, the
//!   frames handed to the carrier, acks included, which no tally meters,
//!   and `stale_blackholed`, the frames a machine rejected as sent to an
//!   address its node had left: both drivers hand every frame to the
//!   destination's machine, and only the machine decides. The socket
//!   arm counts 0 `written_off` and 0 drops, and its
//!   `datagrams_received` equals its `frames_sent`.
//! - **The causal profile** — every flight-recorder event, grouped by
//!   trace id and stripped of wall-dependent fields (`at`, `elapsed`).
//!   Within one trace, event *timing* differs between a micro-clock
//!   and a real kernel, but the *set* of causal events must not.
//!
//! The scenario is one list of steps, `script`; the two arms are two
//! short interpreters of it that settle after every step, so a step
//! added to the list runs over both carriers. It covers the paper's
//! interesting paths: registration, plain routes, a settled move
//! followed by an LDT dissemination, the stale-belief recovery — a
//! confidently wrong (force-believed) address found epoch-stale at
//! forwarding time, one wasted metered hop, and a `_discovery` through
//! the stationary layer — and the Fig. 2 stale-address branch itself,
//! twice: a route's target moves while the hop to it is in flight, so
//! every copy dies at the old attachment and the hop times out into a
//! `_discovery`; and a route's origin moves while its hop is in flight,
//! so the ack meets the stale address the hop was sent from and the
//! retransmission, sent from the new one, is acked.
//!
//! [`SimTransport`]: bristle_proto::transport::SimTransport
//! [`MessageKind`]: bristle_overlay::meter::MessageKind
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
use bristle_overlay::obs::{Counter, FlightRecorder, Gauge, Hist, ObsEvent, Registry};
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::transport::FaultConfig;

use crate::messaging::{
    children_by_parent, wire_addr_of, AuthConfig, MessagingBristleSystem, Nodes, SystemEnv,
    FLIGHT_RECORDER_CAPACITY,
};
use crate::workload::{tiny_system, Telemetry};

/// Event budget per scripted operation, mirroring the messaging
/// driver's runaway backstop.
const MAX_EVENTS: u64 = 2_000_000;

/// What one arm of the conformance run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Every kind's tallies (zero ones too, so the arms align) and the
    /// run's one registry at its end.
    pub telemetry: Telemetry,
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
    sys.mobile.upsert_entry(holder, subject, addr, &sys.attachments).expect("known");
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
    /// A route that must deliver, with `mover` reattaching at `to` one
    /// tick after its first frame is sent, before any frame arrives.
    MoveMidFlight { src: Key, target: Key, mover: Key, to: RouterId },
    /// `key` pushes its current address down its LDT.
    Disseminate { key: Key },
    /// `holder` is given a fresh, resolved state-pair for `subject`
    /// ([`force_belief`]) — confidently wrong once `subject` moves.
    Believe { holder: Key, subject: Key },
}

/// A mobile node and a target its route's first hop, to a stationary
/// node, goes toward: the route's first frame is that hop, sent at once.
fn stationary_first_hop(sys: &BristleSystem) -> (Key, Key) {
    let first = |src: Key, target| sys.mobile.next_hop(src, target).ok().flatten();
    let pairs =
        sys.mobile_keys().iter().flat_map(|&s| sys.stationary_keys().iter().map(move |&t| (s, t)));
    pairs
        .into_iter()
        .find(|&(s, t)| first(s, t).is_some_and(|n| !sys.is_mobile(n)))
        .expect("such a pair")
}

/// The scenario: registration, a plain route, a settled move followed by
/// an LDT dissemination, the stale-belief recovery, and a move in flight
/// at each end of a route — over actors chosen from the freshly built
/// (pre-ops) system, so both arms agree.
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
    // The `skip`-th stub router `of` was not built at.
    let away = |of: Key, skip: usize| {
        let here = sys.router_of(of).expect("attached");
        sys.stub_routers().iter().copied().filter(|&r| r != here).nth(skip).expect("routers")
    };
    let (origin, far) = stationary_first_hop(sys);
    vec![
        Step::Register { who: w1, target: m },
        Step::Register { who: w2, target: m },
        Step::Route { src: w1, target: m },
        Step::Move { key: m, to: away(m, 0) },
        Step::Disseminate { key: m },
        Step::Route { src: w2, target: m },
        Step::Believe { holder: ladder_src, subject: ladder_target },
        Step::Move { key: ladder_target, to: away(ladder_target, 0) },
        Step::Route { src: ladder_src, target: ladder_target },
        Step::Believe { holder: ladder_src, subject: ladder_target },
        Step::MoveMidFlight {
            src: ladder_src,
            target: ladder_target,
            mover: ladder_target,
            to: away(ladder_target, 1),
        },
        Step::MoveMidFlight { src: origin, target: far, mover: origin, to: away(origin, 0) },
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
            Step::MoveMidFlight { src, target, mover, to } => {
                mbs.schedule_move(SimTime(mbs.micro_now().0 + 1), mover, Some(to));
                mbs.route(src, target).expect("route delivers");
            }
            Step::Disseminate { key } => {
                mbs.disseminate_update(key).expect("update disseminates");
            }
            Step::Believe { holder, subject } => force_belief(&mut mbs.sys, holder, subject),
        }
        mbs.settle();
    }
    ConformanceReport { telemetry: Telemetry::of(&mbs), profile: profile(&mbs.flight().events()) }
}

/// The socket arm's world state: everything [`SystemEnv`] windows onto,
/// minus what the simulator-specific driver owns (event queue, fault
/// transport). No failures are scripted, so nothing is ever held against
/// a node and the degraded set stays empty.
struct NetWorld {
    sys: BristleSystem,
    nodes: Nodes,
    /// The run's one registry: the env and the steps write it, and the
    /// driver's counts join it at the end.
    obs: Registry,
    flight: FlightRecorder,
    auth: AuthConfig,
    degraded: BTreeSet<Key>,
}

impl NetWorld {
    fn env(&mut self) -> SystemEnv<'_> {
        SystemEnv {
            sys: &mut self.sys,
            nodes: &self.nodes,
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
    let settled = claim(d, w, 1, |c| {
        matches!(c,
            Completion::Registered { target: t } | Completion::RegisterFailed { target: t }
                if t == target)
    });
    assert!(settled.contains(&Completion::Registered { target }), "registration must be acked");
}

/// A route, with `moved.0` reattaching at `moved.1` once its first
/// frames are on the wire and before any is read back.
fn net_route(
    d: &mut SocketDriver,
    w: &mut NetWorld,
    src: Key,
    target: Key,
    moved: Option<(Key, RouterId)>,
) {
    let started = d.now();
    let mut env = w.env();
    let (route_id, out) = d.machine_mut(src).expect("bound").start_route(started, &mut env, target);
    d.dispatch(src, out, &mut env).expect("route dispatch");
    if let Some((mover, to)) = moved {
        env.sys.relocate(mover, Some(to)).expect("mobile node moves");
    }
    let settled = claim(d, w, 1, |c| match c {
        Completion::Delivered { origin, route_id: r }
        | Completion::RouteFailed { origin, route_id: r, .. } => origin == src && r == route_id,
        _ => false,
    });
    let delivered = Completion::Delivered { origin: src, route_id };
    assert!(settled.contains(&delivered), "route {src} -> {target} must deliver");
    w.obs.record(Hist::Route, d.now().since(started));
}

fn net_disseminate(d: &mut SocketDriver, w: &mut NetWorld, key: Key) {
    let info = *w.sys.node_info(key).expect("known");
    let ldt = w.sys.build_ldt(key).expect("ldt builds");
    let addr = wire_addr_of(&w.sys, key).expect("known");
    let started = d.now();
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
    claim(d, w, expected, |c| {
        matches!(c, Completion::UpdateAcked { .. } | Completion::UpdateFailed { .. })
    });
    if expected > 0 {
        w.obs.record(Hist::Dissemination, d.now().since(started));
    }
}

/// Runs the socket arm until `n` completions `mine` claims have
/// surfaced, and takes every one it claims out of the buffer: the socket
/// mirror of the sim driver's claim-once loop. Returns what it took.
fn claim(
    d: &mut SocketDriver,
    w: &mut NetWorld,
    n: usize,
    mine: impl Fn(Completion) -> bool,
) -> Vec<Completion> {
    let mut taken = Vec::new();
    while taken.len() < n {
        d.run_until(&mut w.env(), MAX_EVENTS, |&c| mine(c)).expect("the operation settles");
        let before = taken.len();
        d.completions.retain(|&c| {
            let hit = mine(c);
            if hit {
                taken.push(c);
            }
            !hit
        });
        assert!(taken.len() > before, "the network went quiet first");
    }
    taken
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

/// Every node of `sys` behind its own loopback socket, and the world
/// the socket arm's environment windows onto.
fn bind_all(sys: BristleSystem) -> (SocketDriver, NetWorld) {
    let world = NetWorld {
        sys,
        nodes: Nodes::default(),
        obs: Registry::default(),
        flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        auth: AuthConfig::default(),
        degraded: BTreeSet::new(),
    };
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
    let all: Vec<Key> =
        world.sys.stationary_keys().iter().chain(world.sys.mobile_keys()).copied().collect();
    for key in all {
        // Same construction as the sim driver's, under the session
        // defaults the sim arm runs with.
        let machine = ProtoMachine::new(key, RetryPolicy::default());
        d.bind_node(key, wire_addr_of(&world.sys, key).expect("known"), machine)
            .expect("loopback socket binds");
    }
    (d, world)
}

fn socket_arm(sys: BristleSystem, steps: &[Step]) -> ConformanceReport {
    let (mut d, mut world) = bind_all(sys);
    for &step in steps {
        match step {
            Step::Register { who, target } => net_register(&mut d, &mut world, who, target),
            Step::Route { src, target } => net_route(&mut d, &mut world, src, target, None),
            Step::MoveMidFlight { src, target, mover, to } => {
                net_route(&mut d, &mut world, src, target, Some((mover, to)))
            }
            // A settled move: the system reattaches the host (epoch
            // bump). The driver finds sockets by host, and the node's
            // socket does not move — only its overlay address.
            Step::Move { key, to } => {
                world.sys.relocate(key, Some(to)).expect("mobile node moves");
            }
            Step::Disseminate { key } => net_disseminate(&mut d, &mut world, key),
            Step::Believe { holder, subject } => force_belief(&mut world.sys, holder, subject),
        }
        net_settle(&mut d, &mut world);
    }

    let counted = d.registry();
    Counter::ALL.iter().for_each(|&c| world.obs.add(c, counted.counter(c)));
    Gauge::ALL.iter().for_each(|&g| world.obs.set(g, counted.gauge(g)));
    let telemetry = Telemetry { tallies: world.sys.meter.tallies(), registry: Some(world.obs) };
    ConformanceReport { telemetry, profile: profile(&world.flight.events()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_interpret_the_same_steps() {
        let steps = script(&build(5));
        let (sim, net) = (sim_arm(build(5), 5, &steps), socket_arm(build(5), &steps));
        let frames = |r: &ConformanceReport| {
            r.telemetry.registry.as_ref().expect("one registry").counter(Counter::FramesSent)
        };
        assert_eq!((&sim.telemetry.tallies, &sim.profile), (&net.telemetry.tallies, &net.profile));
        assert_eq!(frames(&sim), frames(&net));
    }

    /// The one rule, pinned where the two drivers used to disagree: a
    /// `Register` sent to a mobile node at `(r, e)` that re-attaches at
    /// the same router `r`, under epoch `e + 1`, while it is in flight is
    /// rejected by the node's machine on both carriers, and so is every
    /// retransmission, which is the same frame: no ack, no dedup entry,
    /// one `stale_blackholed` a copy, and the registration fails. (A
    /// driver comparing routers only let the first copy in.)
    #[test]
    fn a_frame_to_a_same_router_move_is_rejected_on_both_carriers() {
        let copies = u64::from(RetryPolicy::default().max_attempts);
        for seed in [8u64, 27] {
            let sys = build(seed);
            let (who, m) = (sys.stationary_keys()[0], sys.mobile_keys()[0]);
            let before = wire_addr_of(&sys, m).expect("attached");
            let here = before.router_id();

            let mut mbs = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let t = mbs.micro_now();
            mbs.schedule_move(SimTime(t.0 + 1), m, Some(here));
            assert!(mbs.register(who, m).is_err(), "seed {seed}: the sim arm heard an ack");
            mbs.settle();
            let after = wire_addr_of(&mbs.sys, m).expect("attached");
            assert_eq!((after.router, after.epoch), (before.router, before.epoch + 1));
            let sim = mbs.registry();

            let (mut d, mut world) = bind_all(build(seed));
            let capacity = world.sys.node_info(who).expect("known").capacity;
            let mut env = world.env();
            let now = d.now();
            let out = d.machine_mut(who).expect("bound").start_register(now, &mut env, m, capacity);
            d.dispatch(who, out, &mut env).expect("register dispatch");
            env.sys.relocate(m, Some(here)).expect("mobile node moves");
            d.run_until_quiet(&mut env, MAX_EVENTS).expect("network quiesces");
            let failed = Completion::RegisterFailed { target: m };
            assert_eq!(d.completions, vec![failed], "seed {seed}: the socket arm heard an ack");
            // The driver counts what it carried; the machines' rejections
            // reach the world's registry through `emit`.
            let net = d.registry();
            let sent = [sim.counter(Counter::FramesSent), net.counter(Counter::FramesSent)];
            let rejected = [&sim, &world.obs].map(|r| r.counter(Counter::StaleBlackholed));
            assert_eq!((sent, rejected), ([copies; 2], [copies; 2]), "seed {seed}: sent, rejected");
            let held = [sim.gauge(Gauge::Seen), net.gauge(Gauge::Seen)];
            assert_eq!(held, [0, 0], "seed {seed}: a dedup entry");
        }
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
        let moved = |s: &Step| match *s {
            Step::MoveMidFlight { src, target, mover, .. } => Some((mover == src, mover == target)),
            _ => None,
        };
        let mid: Vec<(bool, bool)> = steps.iter().filter_map(moved).collect();
        assert_eq!(mid, [(false, true), (true, false)], "the target moves, then an origin");
    }
}
