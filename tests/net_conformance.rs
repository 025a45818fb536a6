//! Sim-vs-socket conformance: the seed-scripted messaging scenario run
//! over the in-memory `SimTransport` and over real UDP loopback sockets
//! must produce identical per-kind meter tallies and the same causal
//! (trace-id-grouped) event sequence. See `bristle::sim::conformance`
//! for the scenario and the normalization rules.
//!
//! A third check pins the golden messaging trace byte-for-byte: the net
//! runtime rides along in this PR, and the proof that it changed no
//! simulator semantics is that the golden file still matches.

use std::path::PathBuf;

use bristle::core::time::SimTime;
use bristle::overlay::obs::{ObsEvent, ObsEventKind};
use bristle::proto::transport::FaultConfig;
use bristle::sim::conformance::{build, direct_pair, force_belief, run_sim, run_sockets};
use bristle::sim::messaging::MessagingBristleSystem;

fn conformance_at(seed: u64) {
    let sim = run_sim(seed);
    let net = run_sockets(seed);
    assert_eq!(
        sim.tallies, net.tallies,
        "per-kind meter tallies diverge between SimTransport and loopback sockets (seed {seed})"
    );
    // Compare profiles line-by-line so a drift points at the first
    // divergent trace instead of dumping both documents.
    for (i, (s, n)) in sim.profile.lines().zip(net.profile.lines()).enumerate() {
        assert_eq!(s, n, "causal profile diverges at line {} (seed {seed})", i + 1);
    }
    assert_eq!(
        sim.profile.lines().count(),
        net.profile.lines().count(),
        "causal profile length diverges (seed {seed})"
    );
}

#[test]
fn sim_and_sockets_agree_at_seed_8() {
    conformance_at(8);
}

#[test]
fn sim_and_sockets_agree_at_seed_27() {
    conformance_at(27);
}

/// The tallies are not vacuous: the scenario exercises registration,
/// updates, routes, and the stale-belief recovery through `_discovery`
/// in both arms. (The *timeout* ladder needs a mid-flight move, which
/// conformance scenarios exclude by design — that is the condition
/// under which the sim's arrival-time black-hole and the socket
/// driver's send-time check are equivalent. The socket-side retry
/// ladder is pinned by `bristle-net`'s driver unit tests instead.)
#[test]
fn the_scenario_exercises_the_recovery_paths() {
    use bristle::overlay::meter::MessageKind;
    let sim = run_sim(8);
    let count = |k: MessageKind| {
        sim.tallies.iter().find(|(kind, _, _)| *kind == k).map(|&(_, c, _)| c).unwrap_or(0)
    };
    assert!(count(MessageKind::Register) >= 2, "both watchers register");
    assert!(count(MessageKind::Update) >= 1, "the move is disseminated");
    assert!(count(MessageKind::RouteHop) >= 3, "routes (plus the wasted stale hop) flow");
    assert!(count(MessageKind::DiscoveryHop) >= 1, "recovery goes through _discovery");
    assert_eq!(count(MessageKind::SpuriousRetry), 0, "a clean run wastes no retransmissions");
    assert_eq!(count(MessageKind::MalformedFrame), 0, "clean runs drop nothing at the boundary");
}

// ---- golden-trace byte-identity (scenario duplicated from
// golden_trace.rs so this suite pins it independently) ----

fn fmt_event(e: &ObsEvent) -> String {
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
        ObsEventKind::DiscoveryResolved { subject, elapsed } => {
            format!("discovery_resolved subject={subject} elapsed={elapsed}")
        }
        ObsEventKind::DiscoveryFailed { subject, elapsed } => {
            format!("discovery_failed subject={subject} elapsed={elapsed}")
        }
        ObsEventKind::AuthReject { from, tag, reason, dropped } => {
            format!("auth_reject from={from} tag={tag} reason={reason} dropped={dropped}")
        }
    };
    format!("at={} trace={:016x} node={} {}", e.at, e.trace, e.node, kind)
}

/// The golden messaging trace is untouched by the net runtime: the
/// exact scenario of `golden_trace.rs`, re-rendered and compared
/// byte-for-byte against the checked-in file.
#[test]
fn golden_trace_is_byte_identical() {
    let sys = build(42);
    let (src, target) = direct_pair(&sys);
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::lossy(0.2), 7);
    force_belief(&mut mbs.sys, src, target);

    let old_router = mbs.sys.router_of(target).expect("known");
    let new_router = mbs
        .sys
        .stub_routers()
        .iter()
        .copied()
        .find(|&r| r != old_router)
        .expect("another stub router exists");
    let t0 = mbs.micro_now();
    mbs.schedule_move(SimTime(t0.0 + 1), target, Some(new_router));
    mbs.route(src, target).expect("route recovers through the stationary layer");

    let mut doc = String::new();
    doc.push_str("# golden messaging trace: seed 42, loss 0.2, transport seed 7\n");
    doc.push_str(&format!("# src={src} target={target} moved_to={new_router:?}\n"));
    for e in &mbs.obs().flight.events() {
        doc.push_str(&fmt_event(e));
        doc.push('\n');
    }
    doc.push_str("# latency snapshots (count/p50/p99/max, micro-ticks)\n");
    for (name, s) in mbs.obs().latency_snapshots() {
        doc.push_str(&format!(
            "hist {name} count={} p50={} p99={} max={}\n",
            s.count, s.p50, s.p99, s.max
        ));
    }

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/messaging_trace.golden");
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(doc, golden, "the net runtime must not perturb the simulator's golden trace");
}
