//! Golden-trace test for the observability layer: a fixed-seed lossy
//! route with a mid-flight move is replayed, and the flight recorder's
//! event sequence plus the latency-histogram snapshots are compared
//! line-for-line against a checked-in golden file.
//!
//! The scenario is the acceptance route from `messaging_integration.rs`:
//! the target moves routers one micro-tick after the forward to its
//! believed-fresh address is sent, the bytes black-hole, retransmissions
//! time out, and the hop recovers through a `_discovery`. Every event in
//! that story — sends, timeouts, the discovery session, the final
//! delivery — carries the *same causal trace id* as the route that
//! provoked it, which is what the correlation assertions pin.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! BRISTLE_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::path::PathBuf;

use bristle::core::time::SimTime;
use bristle::overlay::obs::{Hist, ObsEvent, ObsEventKind};
use bristle::proto::transport::FaultConfig;
use bristle::sim::conformance::{build, direct_pair, force_belief};
use bristle::sim::messaging::MessagingBristleSystem;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/messaging_trace.golden")
}

/// Runs the fixed scenario and renders the full golden document.
fn run_scenario() -> (String, Vec<ObsEvent>) {
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

    let events = mbs.flight().events();
    let mut doc = String::new();
    doc.push_str("# golden messaging trace: seed 42, loss 0.2, transport seed 7\n");
    doc.push_str(&format!("# src={src} target={target} moved_to={new_router:?}\n"));
    // One event, one stable line. Trace ids are seeded-deterministic
    // (key × counter hash), so they are reproducible and safe to pin.
    for e in &events {
        doc.push_str(&format!("at={} trace={:016x} node={} {}\n", e.at, e.trace, e.node, e.kind));
    }
    doc.push_str("# latency snapshots (count/p50/p99/max, micro-ticks)\n");
    let registry = mbs.registry();
    for h in Hist::ALL {
        let s = registry.histogram(h).snapshot();
        doc.push_str(&format!(
            "hist {} count={} p50={} p99={} max={}\n",
            h.name(),
            s.count,
            s.p50,
            s.p99,
            s.max
        ));
    }
    (doc, events)
}

#[test]
fn flight_recorder_trace_matches_golden() {
    let (doc, _) = run_scenario();
    let path = golden_path();
    if std::env::var_os("BRISTLE_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &doc).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file present; run with BRISTLE_UPDATE_GOLDEN=1 to create it");
    // Compare line-by-line so a drift points at the first divergent event
    // instead of dumping both documents.
    for (i, (got, want)) in doc.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "trace diverges at line {}", i + 1);
    }
    assert_eq!(
        doc.lines().count(),
        want.lines().count(),
        "trace length changed (set BRISTLE_UPDATE_GOLDEN=1 to regenerate)"
    );
}

/// The causal-correlation acceptance: the route's trace id appears on its
/// RouteHop sends, on the hop timeouts, on the `_discovery` session the
/// stale hop falls back to, and on the final delivery — one id tells the
/// whole recovery story.
#[test]
fn route_trace_correlates_hops_timeouts_and_discovery() {
    let (_, events) = run_scenario();

    // The route's trace is the one on the delivery milestone.
    let route_trace = events
        .iter()
        .find_map(|e| match e.kind {
            ObsEventKind::RouteDelivered { .. } => Some(e.trace),
            _ => None,
        })
        .expect("the route must deliver");
    assert_ne!(route_trace, 0, "operations get a nonzero trace");

    let with_trace: Vec<&ObsEvent> = events.iter().filter(|e| e.trace == route_trace).collect();
    let has = |pred: &dyn Fn(&ObsEvent) -> bool| with_trace.iter().any(|e| pred(e));

    assert!(
        has(&|e| matches!(e.kind, ObsEventKind::Send { tag: "RouteHop", .. })),
        "route hops carry the route's trace"
    );
    assert!(
        has(&|e| matches!(e.kind, ObsEventKind::Timeout { what: "hop", .. })),
        "black-holed hop retries carry the route's trace"
    );
    assert!(
        has(&|e| matches!(e.kind, ObsEventKind::DiscoveryStart { .. })),
        "the fallback discovery session inherits the route's trace"
    );
    assert!(
        has(&|e| matches!(e.kind, ObsEventKind::Send { tag: "Discovery", .. })),
        "discovery frames inherit the route's trace"
    );
    assert!(
        has(&|e| matches!(e.kind, ObsEventKind::DiscoveryResolved { .. })),
        "the resolution milestone carries the route's trace"
    );

    // Background traffic (heartbeats, obituaries) is trace 0 and there is
    // none in this scenario; every event belongs to *some* operation.
    assert!(events.iter().all(|e| e.trace != 0), "no background traffic in a single route");
}
