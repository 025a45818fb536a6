//! How many dedup sightings the socket driver's machines hold while
//! routes run.
//!
//! A receiver must know a frame's second copy for as long as one can
//! arrive, and a dedup lifetime is two ack ladders, far longer than a
//! burst of routes. A window that kept every sighting for its lifetime
//! held every hop of the burst. Each acked frame now carries its
//! sender's floor, the lowest id it still awaits an ack for, and a
//! receiver forgets the sightings below it, so what it holds is about one
//! sighting for each peer it hears from, not one for each hop.

use std::collections::HashSet;
use std::time::Duration;

use bristle_core::time::SimTime;
use bristle_net::{SocketDriver, WallClock};
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::Gauge;
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::splitmix64;
use bristle_proto::testenv::MockEnv;

/// `udp-route-256`'s population, one socket each.
const NODES: u64 = 256;
/// Routes run, each to its own completion, with no settle between.
const ROUTES: u64 = 2_000;
/// Hops a route takes.
const HOPS: u64 = 4;

/// 256 nodes over loopback sockets at a 1 ms tick. A route walks the key
/// ring, each hop to the next key, as a route follows its routing
/// table's few rows, so 256 sender–receiver pairs carry 8 000 hops. The
/// clock never leaves the first ack wait, let alone a dedup lifetime.
#[test]
fn seen_holds_about_one_record_a_peer() {
    let mut env = MockEnv::default();
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
    // Waited out only if loopback stalls mid-route.
    d.set_grace(Duration::from_millis(100));
    let key = |i: u64| Key(1 + i % NODES);
    for i in 0..NODES {
        env = env.with_node(key(i), i as u32 + 1, i as u32 + 1);
        let machine = ProtoMachine::new(key(i), RetryPolicy::default());
        d.bind_node(key(i), env.addrs[&key(i)], machine).expect("loopback socket binds");
    }
    let mut pairs = HashSet::new();
    for r in 0..ROUTES {
        let from = splitmix64(r) % NODES;
        let (src, target) = (key(from), key(from + HOPS));
        for h in 0..HOPS {
            env.mobile_hops.insert((key(from + h), target), key(from + h + 1));
            pairs.insert((key(from + h), key(from + h + 1)));
        }
        let now = d.now();
        let machine = d.machine_mut(src).expect("bound");
        let (route_id, out) = machine.start_route(now, &mut env, target);
        d.dispatch(src, out, &mut env).expect("bound");
        let mine = |c: &Completion| matches!(*c, Completion::Delivered { origin, route_id: r } if origin == src && r == route_id);
        d.run_until(&mut env, 100_000, mine).expect("the route converges");
        d.completions.clear();
    }
    let hops = env.meter.count(MessageKind::RouteHop);
    assert_eq!(hops, ROUTES * HOPS, "every hop sent once");
    assert_eq!(env.meter.count(MessageKind::Timeout), 0);
    let held = d.registry().gauge(Gauge::Seen);
    let pairs = pairs.len() as u64;
    assert!(held <= 2 * pairs, "{held} sightings held for {pairs} sender-receiver pairs");
    assert!(held * 10 < hops, "{held} sightings held for {hops} hops delivered");
}
