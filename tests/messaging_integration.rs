//! Integration tests for the message-passing driver
//! ([`bristle::sim::messaging`]) against the function-call path.
//!
//! The headline acceptance scenario: a seeded route to a mobile node
//! through a 20%-lossy [`SimTransport`] with a `move_node` fired while
//! the forward is in flight completes via a `_discovery` retry, with the
//! meter showing the [`MessageKind::DiscoveryRetry`]. On a perfect
//! transport, per-kind message counts match the function-call path
//! exactly for the same seed.

use bristle::core::time::SimTime;
use bristle::overlay::meter::{MessageKind, Meter, ALL_KINDS};
use bristle::proto::transport::FaultConfig;
use bristle::sim::conformance::{build, direct_pair, force_belief};
use bristle::sim::messaging::{MessagingBristleSystem, MessagingError};

fn counts(meter: &Meter) -> Vec<(MessageKind, u64, u64)> {
    ALL_KINDS.iter().map(|&k| (k, meter.count(k), meter.cost(k))).collect()
}

fn delta(before: &[(MessageKind, u64, u64)], after: &Meter) -> Vec<(MessageKind, u64, u64)> {
    before.iter().map(|&(k, c0, w0)| (k, after.count(k) - c0, after.cost(k) - w0)).collect()
}

/// With a perfect transport, the message-passing route produces exactly
/// the per-kind meter counts and costs of the synchronous
/// `route_mobile` on a twin system built from the same seed.
#[test]
fn perfect_transport_matches_function_call_meter_exactly() {
    for seed in [42u64, 7, 1234] {
        let mut fn_sys = build(seed);
        let msg_sys = build(seed);

        // Identical builds: pick the pair once, valid for both.
        let src = fn_sys.stationary_keys()[0];
        let target = fn_sys.mobile_keys()[0];

        let before = counts(&fn_sys.meter);
        assert_eq!(
            before,
            counts(&msg_sys.meter),
            "twin builds must start identical (seed {seed})"
        );

        fn_sys.route_mobile(src, target).expect("function-call route");
        let want = delta(&before, &fn_sys.meter);

        let mut mbs = MessagingBristleSystem::new(msg_sys, FaultConfig::perfect(), 99);
        mbs.route(src, target).expect("messaging route");
        mbs.settle();
        let got = delta(&before, &mbs.sys.meter);

        assert_eq!(want, got, "per-kind meter deltas diverge on seed {seed}");
        let zero = |k| got.iter().find(|&&(g, _, _)| g == k).map(|&(_, c, _)| c).unwrap_or(0);
        assert_eq!(zero(MessageKind::Timeout), 0, "no timeouts on a perfect network");
        assert_eq!(zero(MessageKind::DiscoveryRetry), 0, "no retries on a perfect network");
    }
}

/// The acceptance scenario: 20% loss, and the target moves routers one
/// micro-tick after the forward to its (believed-fresh) address is
/// sent. The bytes black-hole, retransmissions time out, and the hop
/// recovers through a `_discovery` — visible as a DiscoveryRetry.
#[test]
fn lossy_route_with_midflight_move_recovers_via_discovery() {
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

    let before = counts(&mbs.sys.meter);
    let report = mbs.route(src, target).expect("route recovers through the stationary layer");
    assert!(report.delivered_at > t0, "the recovery took micro-time");

    let d = delta(&before, &mbs.sys.meter);
    let count = |k| d.iter().find(|&&(g, _, _)| g == k).map(|&(_, c, _)| c).unwrap_or(0);
    assert!(count(MessageKind::Timeout) >= 1, "the black-holed hop must time out");
    assert!(count(MessageKind::DiscoveryRetry) >= 1, "recovery must go through _discovery");
}

/// A fully lossy network terminates with a route error, never a hang:
/// hop retries exhaust, the rediscovery fallback exhausts too, and the
/// machine reports failure.
#[test]
fn total_loss_fails_cleanly_instead_of_hanging() {
    let sys = build(42);
    let src = sys.stationary_keys()[0];
    let target = sys.mobile_keys()[0];
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::lossy(1.0), 7);
    match mbs.route(src, target) {
        Err(MessagingError::RouteFailed { origin, .. }) => assert_eq!(origin, src),
        other => panic!("expected RouteFailed under total loss, got {other:?}"),
    }
    assert!(mbs.sys.meter.count(MessageKind::Timeout) >= 1);
}

/// The same transport seed and fault schedule yield a byte-identical
/// transport trace across runs; a different seed diverges.
#[test]
fn same_seed_produces_identical_transport_trace() {
    let faults = FaultConfig {
        drop_probability: 0.3,
        duplicate_probability: 0.1,
        min_latency: 1,
        jitter: 5,
    };
    let run = |transport_seed: u64| {
        let sys = build(42);
        let src = sys.stationary_keys()[0];
        let target = sys.mobile_keys()[0];
        let mut mbs = MessagingBristleSystem::new(sys, faults.clone(), transport_seed);
        let _ = mbs.route(src, target);
        mbs.settle();
        mbs.transport().trace_bytes()
    };
    let a = run(7);
    let b = run(7);
    assert!(!a.is_empty(), "the run must actually send messages");
    assert_eq!(a, b, "same seed must replay byte-identically");
    // The canonical bytes are a contract, not a view of `TraceRecord`'s
    // memory layout: pinned (FNV-1a) to what this scenario serialized to
    // when `arrivals` was still a heap `Vec`.
    let fnv = a.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((a.len(), fnv), (973, 0xffc4_a351_ae8a_7da7), "trace_bytes changed");
    let c = run(8);
    assert_ne!(a, c, "a different fault seed must perturb the trace");
}
