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
//!   or by mirrored driver bookkeeping (the spurious-retry check, the
//!   stale-address black-hole), so a divergence means a driver leaked
//!   semantics into the protocol.
//! - **The causal profile** — every flight-recorder event, grouped by
//!   trace id and stripped of wall-dependent fields (`at`, `elapsed`).
//!   Within one trace, event *timing* differs between a micro-clock
//!   and a real kernel, but the *set* of causal events must not.
//!
//! The scripted scenario covers the paper's interesting paths:
//! registration, plain routes, a settled move followed by an LDT
//! dissemination, and the stale-belief recovery — a confidently wrong
//! (force-believed) address found epoch-stale at forwarding time, one
//! wasted metered hop, and a `_discovery` through the stationary
//! layer. Mid-flight moves — the only wedge that could make the sim's
//! arrival-time black-hole and the socket driver's send-time staleness
//! check disagree — are deliberately excluded; the socket-side timeout
//! ladder is exercised by `bristle-net`'s own driver tests.
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
use bristle_overlay::addr::{NetAddr, StatePair};
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{ObsEvent, ObsEventKind};
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::transport::FaultConfig;

use crate::messaging::{
    children_by_parent, wire_addr_of, AuthConfig, MessagingBristleSystem, Nodes, ObsCollector,
    SystemEnv,
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
    sys.mobile.node_mut(holder).expect("known").upsert_entry(StatePair::resolved(subject, addr));
}

/// The deterministic actors of the scripted scenario, chosen from the
/// freshly built (pre-ops) system so both arms agree.
struct Cast {
    /// Stationary registrants of mobile node `m`.
    w1: Key,
    w2: Key,
    /// The mobile node that registers watchers, moves, disseminates.
    m: Key,
    m_to: RouterId,
    /// The stale-belief recovery's origin and (direct-hop) mobile target.
    ladder_src: Key,
    ladder_target: Key,
    ladder_to: RouterId,
}

fn cast(sys: &BristleSystem) -> Cast {
    let (ladder_src, ladder_target) = direct_pair(sys);
    let m = *sys
        .mobile_keys()
        .iter()
        .find(|&&k| k != ladder_target)
        .expect("more than one mobile node");
    let w1 = sys.stationary_keys()[0];
    let w2 = sys.stationary_keys()[1];
    let other_router = |of: Key| {
        let here = sys.router_of(of).expect("attached");
        sys.stub_routers().iter().copied().find(|&r| r != here).expect("another stub router exists")
    };
    Cast {
        w1,
        w2,
        m,
        m_to: other_router(m),
        ladder_src,
        ladder_target,
        ladder_to: other_router(ladder_target),
    }
}

/// One flight event as a stable, wall-clock-free line: node plus kind,
/// with `at` dropped entirely and `elapsed` dropped from the discovery
/// milestones (micro-ticks and fast-forwarded wall ticks measure
/// different spans of the same story).
fn fmt_causal(e: &ObsEvent) -> String {
    let kind = match e.kind {
        ObsEventKind::Send { to, tag, msg_id } => format!("send to={to} tag={tag} msg_id={msg_id}"),
        ObsEventKind::Ack { from, msg_id } => format!("ack from={from} msg_id={msg_id}"),
        ObsEventKind::Timeout { what, attempt } => format!("timeout what={what} attempt={attempt}"),
        ObsEventKind::Suspect { peer, incarnation } => {
            format!("suspect peer={peer} incarnation={incarnation}")
        }
        ObsEventKind::Refute { incarnation } => format!("refute incarnation={incarnation}"),
        ObsEventKind::RouteDelivered { route_id } => format!("route_delivered route_id={route_id}"),
        ObsEventKind::RouteFailed { route_id } => format!("route_failed route_id={route_id}"),
        ObsEventKind::DiscoveryStart { subject } => format!("discovery_start subject={subject}"),
        ObsEventKind::DiscoveryResolved { subject, .. } => {
            format!("discovery_resolved subject={subject}")
        }
        ObsEventKind::DiscoveryFailed { subject, .. } => {
            format!("discovery_failed subject={subject}")
        }
        ObsEventKind::AuthReject { from, tag, reason, dropped } => {
            format!("auth_reject from={from} tag={tag} reason={reason} dropped={dropped}")
        }
    };
    format!("node={} {}", e.node, kind)
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

/// Runs the scripted scenario over the simulator's event queue and
/// in-memory transport (fault-free: the recovery ladder's losses come
/// from the scripted stale address, not from random drops).
pub fn run_sim(seed: u64) -> ConformanceReport {
    let sys = build(seed);
    let cast = cast(&sys);
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::perfect(), seed);

    mbs.register(cast.w1, cast.m).expect("w1 registers on m");
    mbs.settle();
    mbs.register(cast.w2, cast.m).expect("w2 registers on m");
    mbs.settle();
    mbs.route(cast.w1, cast.m).expect("plain route w1 -> m");
    mbs.settle();

    let t = mbs.micro_now();
    mbs.schedule_move(SimTime(t.0 + 1), cast.m, Some(cast.m_to));
    mbs.settle();
    mbs.disseminate_update(cast.m).expect("m disseminates its move");
    mbs.settle();
    mbs.route(cast.w2, cast.m).expect("route w2 -> m after the update");
    mbs.settle();

    force_belief(&mut mbs.sys, cast.ladder_src, cast.ladder_target);
    let t = mbs.micro_now();
    mbs.schedule_move(SimTime(t.0 + 1), cast.ladder_target, Some(cast.ladder_to));
    mbs.settle();
    mbs.route(cast.ladder_src, cast.ladder_target).expect("ladder route recovers");
    mbs.settle();

    ConformanceReport {
        tallies: mbs.sys.meter.tallies(),
        profile: profile(&mbs.obs().flight.events()),
    }
}

/// The socket arm's world state: everything [`SystemEnv`] windows onto,
/// minus what the simulator-specific driver owns (event queue, fault
/// transport). No failures are scripted, so nothing is ever held against
/// a node and the degraded set stays empty.
struct NetWorld {
    sys: BristleSystem,
    nodes: Nodes,
    obs: ObsCollector,
    auth: AuthConfig,
    degraded: BTreeSet<Key>,
}

impl NetWorld {
    fn env(&mut self) -> SystemEnv<'_> {
        SystemEnv {
            sys: &mut self.sys,
            nodes: &self.nodes,
            obs: &mut self.obs,
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

/// Executes a settled move: the system reattaches the host (epoch
/// bump), the address book re-seats it. The endpoint — the node's
/// socket — does not change; only its overlay address did.
fn net_move(d: &mut SocketDriver, w: &mut NetWorld, key: Key, to: RouterId) {
    let host = w.sys.node_info(key).expect("known").host;
    w.sys.move_node(key, Some(to)).expect("mobile node moves");
    d.book_mut().reseat(host.0, to);
}

/// Runs the same scripted scenario with every machine behind a real
/// nonblocking UDP socket on loopback, driven by `bristle-net`'s
/// fast-forwarding poll loop.
pub fn run_sockets(seed: u64) -> ConformanceReport {
    let sys = build(seed);
    let cast = cast(&sys);
    let mut world = NetWorld {
        sys,
        nodes: Nodes::default(),
        obs: ObsCollector::default(),
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

    net_register(&mut d, &mut world, cast.w1, cast.m);
    net_settle(&mut d, &mut world);
    net_register(&mut d, &mut world, cast.w2, cast.m);
    net_settle(&mut d, &mut world);
    net_route(&mut d, &mut world, cast.w1, cast.m);
    net_settle(&mut d, &mut world);

    net_move(&mut d, &mut world, cast.m, cast.m_to);
    net_disseminate(&mut d, &mut world, cast.m);
    net_settle(&mut d, &mut world);
    net_route(&mut d, &mut world, cast.w2, cast.m);
    net_settle(&mut d, &mut world);

    force_belief(&mut world.sys, cast.ladder_src, cast.ladder_target);
    net_move(&mut d, &mut world, cast.ladder_target, cast.ladder_to);
    net_route(&mut d, &mut world, cast.ladder_src, cast.ladder_target);
    net_settle(&mut d, &mut world);

    // Nothing in the scripted scenario may trip the socket boundary's
    // hardening: every datagram on the wire is one of our envelopes.
    let stats = d.stats();
    assert_eq!(stats.dropped_oversized, 0, "no oversized frames in a clean run");
    assert_eq!(stats.dropped_garbage, 0, "no undecodable frames in a clean run");

    ConformanceReport {
        tallies: world.sys.meter.tallies(),
        profile: profile(&world.obs.flight.events()),
    }
}
