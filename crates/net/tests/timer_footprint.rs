//! How many wakes the socket driver keeps queued while routes run.
//!
//! Every reliable send has a deadline, and an acked one is never
//! cancelled, so a driver that queued a timer per send held arm rate ×
//! ack wait of them: `udp-route-256` ended its window with 54 086. A
//! machine now keeps its own deadlines and the driver queues a wake for
//! a node only when its machine reports one earlier than the wake it
//! holds, so the queue is bounded by the population, not by the
//! traffic.

use std::time::Duration;

use bristle_core::time::SimTime;
use bristle_net::{SocketDriver, WallClock};
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::Counter;
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::splitmix64;
use bristle_proto::testenv::MockEnv;

/// `udp-route-256`'s population, one socket each.
const NODES: u64 = 256;
/// Routes in the burst, three hops each.
const ROUTES: u64 = 400;

/// A key of `1..=NODES` drawn from `draw`.
fn node(draw: u64) -> Key {
    Key(1 + draw % NODES)
}

/// `udp-route-256`'s shape: 256 nodes on loopback sockets at a 1 ms tick,
/// routes run back to back, each stopped at its own completion, so the
/// clock never leaves the first ack wait. Every hop is acked; none of
/// their deadlines is due when the burst ends.
#[test]
fn pending_wakes_stay_within_two_a_node() {
    let mut env = MockEnv::default();
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
    // Waited out only if loopback stalls mid-route; generous, so a
    // loaded host does not fast-forward into the wakes being counted.
    d.set_grace(Duration::from_millis(100));
    for i in 1..=NODES {
        let key = Key(i);
        env = env.with_node(key, i as u32, i as u32);
        let machine = ProtoMachine::new(key, RetryPolicy::default());
        d.bind_node(key, env.addrs[&key], machine).expect("loopback socket binds");
    }
    let mut peak = 0;
    for r in 0..ROUTES {
        // src → two drawn relays → target; a later route through the
        // same node toward the same target re-lays its hop, and every
        // walk still ends at the target.
        let draw = |i: u64| node(splitmix64(r * 4 + i));
        let path = [draw(0), draw(1), draw(2), draw(3)];
        if (1..4).any(|i| path[..i].contains(&path[i])) {
            continue;
        }
        for hop in path.windows(2) {
            env.mobile_hops.insert((hop[0], path[3]), hop[1]);
        }
        let (src, target) = (path[0], path[3]);
        let now = d.now();
        let machine = d.machine_mut(src).expect("bound");
        let (route_id, out) = machine.start_route(now, &mut env, target);
        d.dispatch(src, out, &mut env).expect("bound");
        let mine = |c: &Completion| matches!(*c, Completion::Delivered { origin, route_id: r } if origin == src && r == route_id);
        d.run_until(&mut env, 100_000, mine).expect("the route converges");
        d.completions.clear();
        peak = peak.max(d.pending_wakes());
    }
    let hops = env.meter.count(MessageKind::RouteHop);
    let bound = 2 * NODES as usize;
    assert!(hops > 2 * bound as u64, "{hops} hop deadlines armed: a timer each would pass it");
    assert_eq!(d.registry().counter(Counter::FastForwards), 0, "the burst never waited");
    assert_eq!(env.meter.count(MessageKind::Timeout), 0);
    assert!(peak <= bound, "{peak} wakes queued for {NODES} nodes");

    // Past the burst every queued wake fires once, finds its deadline
    // met, and asks for no other.
    d.set_grace(Duration::from_millis(1));
    d.run_until_quiet(&mut env, 100_000).expect("the wakes converge");
    assert_eq!(d.pending_wakes(), 0);
    assert_eq!(env.meter.count(MessageKind::Timeout), 0, "no deadline was missed");
}
