//! Messaging-mode tour: the same Bristle system, driven by messages.
//!
//! The function-call path computes a route in one synchronous call; the
//! message-passing driver replays it as envelopes over a deterministic
//! transport, with acks, timeouts and bounded retries. This tour stages
//! the paper's signature failure: a message is forwarded to a mobile
//! node's last known address just as the node moves away. The bytes
//! black-hole at the old router, the sender's retransmissions time out,
//! and the hop falls back to a `_discovery` through the stationary layer
//! — which resolves the fresh address and completes the route. Every
//! timeout and retry lands in the same [`Meter`] the experiments read.
//!
//! Run with: `cargo run --release --example messaging_tour`

use bristle::core::config::BristleConfig;
use bristle::core::system::{BristleBuilder, BristleSystem};
use bristle::core::time::SimTime;
use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::overlay::addr::NetAddr;
use bristle::overlay::key::Key;
use bristle::overlay::meter::MessageKind;
use bristle::proto::transport::FaultConfig;
use bristle::sim::messaging::MessagingBristleSystem;

/// Finds a pair whose mobile-layer route is a single direct hop, so the
/// staged move provably races the in-flight forward.
fn direct_pair(sys: &BristleSystem) -> (Key, Key) {
    for &target in sys.mobile_keys() {
        for src in sys.mobile.keys() {
            if src != target && sys.mobile.next_hop(src, target).ok().flatten() == Some(target) {
                return (src, target);
            }
        }
    }
    panic!("no direct mobile pair in this population");
}

fn main() {
    let sys = BristleBuilder::new(42)
        .stationary_nodes(40)
        .mobile_nodes(12)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds");

    let (src, target) = direct_pair(&sys);
    println!("population: {} stationary + {} mobile nodes", 40, 12);
    println!("route under test: {src} -> {target} (direct mobile hop)\n");

    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::perfect(), 7);

    // --- Act 1: a clean route, establishing a resolved state-pair. -----
    let before = snapshot(&mbs.sys.meter);
    let rep = mbs.route(src, target).expect("clean route delivers");
    mbs.settle();
    println!("act 1 — clean route: delivered at micro-time {}", rep.delivered_at);
    print_delta("  ", &before, &mbs.sys.meter);

    // Model an established session: src holds a fresh lease on target's
    // current address (a discovery either just did this, or we assert it).
    let info = *mbs.sys.node_info(target).expect("known");
    let addr = NetAddr::current(info.host, &mbs.sys.attachments);
    let (now, ttl) = (mbs.sys.clock.now(), mbs.sys.config().lease_ttl);
    mbs.sys.leases.grant(src, target, now, ttl);
    mbs.sys.mobile.upsert_entry(src, target, addr, &mbs.sys.attachments).expect("known");

    // --- Act 2: the target moves while the next message is in flight. --
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
    println!(
        "\nact 2 — {target} moves {old_router} -> {new_router} one tick after the forward is sent"
    );

    let before = snapshot(&mbs.sys.meter);
    let rep = mbs.route(src, target).expect("route recovers through the stationary layer");
    println!("  delivered anyway at micro-time {}", rep.delivered_at);
    print_delta("  ", &before, &mbs.sys.meter);

    let timeouts =
        mbs.sys.meter.count(MessageKind::Timeout) - before_count(&before, MessageKind::Timeout);
    let rediscoveries = mbs.sys.meter.count(MessageKind::DiscoveryRetry)
        - before_count(&before, MessageKind::DiscoveryRetry);
    assert!(timeouts >= 1, "the black-holed hop must time out");
    assert!(rediscoveries >= 1, "recovery must go through _discovery");
    println!(
        "\nthe stale hop timed out {timeouts}x, fell back to {rediscoveries} rediscovery, and the \
         transport trace recorded {} sends",
        mbs.transport().trace().len()
    );
}

fn snapshot(meter: &bristle::overlay::meter::Meter) -> Vec<(MessageKind, u64, u64)> {
    bristle::overlay::meter::ALL_KINDS.iter().map(|&k| (k, meter.count(k), meter.cost(k))).collect()
}

fn before_count(snap: &[(MessageKind, u64, u64)], kind: MessageKind) -> u64 {
    snap.iter().find(|(k, _, _)| *k == kind).map(|(_, c, _)| *c).unwrap_or(0)
}

fn print_delta(
    indent: &str,
    before: &[(MessageKind, u64, u64)],
    after: &bristle::overlay::meter::Meter,
) {
    for &(k, c0, cost0) in before {
        let (c1, cost1) = (after.count(k), after.cost(k));
        if c1 > c0 {
            println!("{indent}{k:?}: {} messages, {} cost", c1 - c0, cost1 - cost0);
        }
    }
}
