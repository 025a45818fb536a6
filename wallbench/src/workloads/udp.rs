//! `udp-route`: routes over `bristle_net::SocketDriver`, every node
//! behind its own loopback UDP socket (op = `start_route` → `dispatch` →
//! run until this route's completion; no per-op settle; 1 ms tick, 5 ms
//! grace). The only workload that runs `Envelope::encode/decode`,
//! syscalls and the socket loop. Loopback only — no real link.

use std::time::{Duration, Instant};

use bristle_core::system::BristleSystem;
use bristle_core::time::SimTime;
use bristle_net::{NetStats, SocketDriver, WallClock};
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_proto::machine::{Completion, ProtoMachine, RetryPolicy};
use bristle_proto::transport::FaultConfig;
use bristle_proto::wire::WireAddr;
use bristle_sim::messaging::MessagingBristleSystem;

use crate::cells;
use crate::env::{assert_same_tallies, BenchEnv};
use crate::harness::{
    all_keys, bench_metrics, measure, meter_mark, new_tracer, time_per_call, Ctx, Outcome, Window,
};
use crate::metrics::Values;
use crate::span::{self, Trace};
use crate::workloads::simloop::run_twice;
use crate::workloads::{build, topology_cell};

/// Population (20 % mobile), one socket each.
const NODES: usize = 256;
/// Real time per virtual tick.
const TICK: Duration = Duration::from_millis(1);
/// Real time the loop waits for in-flight datagrams before calling the
/// network quiet.
const GRACE: Duration = Duration::from_millis(5);
/// The real driver's per-operation event budget.
const MAX_EVENTS: u64 = 2_000_000;
/// Descriptors the process must be allowed: one per node plus slack.
const NOFILE_NEEDED: u64 = 512;

struct World {
    sys: BristleSystem,
    d: SocketDriver,
    /// `(src, target)` per op, warm-up first.
    pairs: Vec<(Key, Key)>,
    build_s: f64,
    bind_s: f64,
}

/// A driver with every node of `sys` bound to a loopback socket.
fn bind_all(sys: &BristleSystem) -> SocketDriver {
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, TICK));
    d.set_grace(GRACE);
    for key in all_keys(sys) {
        let info = sys.node_info(key).expect("known node");
        let addr = WireAddr::from_net(NetAddr::current(info.host, &sys.attachments));
        let machine = ProtoMachine::new(key, RetryPolicy::default());
        d.bind_node(key, addr, machine).expect("loopback socket binds");
    }
    d
}

fn setup(ctx: &Ctx) -> World {
    let t = Instant::now();
    let sys = build(NODES);
    let build_s = t.elapsed().as_secs_f64();
    let pairs = ctx.random_pairs(&all_keys(&sys), ctx.warmup + ctx.ops, 1);
    let t = Instant::now();
    let d = bind_all(&sys);
    let bind_s = t.elapsed().as_secs_f64();
    let mut world = World { sys, d, pairs, build_s, bind_s };
    for i in 0..ctx.warmup {
        let (src, target) = world.pairs[i];
        route(&mut world, src, target, Trace::off());
    }
    world
}

/// One op. With tracing on, the driver's own `run_until` is replaced by
/// the same loop written over its public `pump` / `fire_due`, so each
/// step carries a span.
fn route(w: &mut World, src: Key, target: Key, trace: Trace<'_>) -> bool {
    let d = &mut w.d;
    let mut env = BenchEnv { sys: &mut w.sys, trace };
    let now = d.now();
    trace.enter(span::START_ROUTE);
    let (route_id, out) = d.machine_mut(src).expect("bound").start_route(now, &mut env, target);
    trace.exit(span::START_ROUTE);
    trace.enter(span::DISPATCH);
    let sent = d.dispatch(src, out, &mut env);
    trace.exit(span::DISPATCH);
    if sent.is_err() {
        return false;
    }
    let mine = move |c: &Completion| match *c {
        Completion::Delivered { origin, route_id: r } => origin == src && r == route_id,
        Completion::RouteFailed { origin, route_id: r, .. } => origin == src && r == route_id,
        _ => false,
    };
    let ran = if trace.is_on() {
        traced_run_until(d, &mut env, trace, mine)
    } else {
        d.run_until(&mut env, MAX_EVENTS, mine).is_ok()
    };
    let delivered = d.completions.iter().any(
        |c| matches!(*c, Completion::Delivered { origin, route_id: r } if origin == src && r == route_id),
    );
    // The caller drains what the machines surfaced: this route's
    // outcome and the `Resolved`s its discoveries left.
    d.completions.clear();
    ran && delivered
}

/// `SocketDriver::run_until` over public functions. It cannot
/// fast-forward the driver's clock (that is private), and never needs
/// to: a route whose datagrams stop arriving for a whole grace window
/// has failed as far as this workload is concerned.
fn traced_run_until(
    d: &mut SocketDriver,
    env: &mut BenchEnv<'_>,
    trace: Trace<'_>,
    mut found: impl FnMut(&Completion) -> bool,
) -> bool {
    let pump = |d: &mut SocketDriver, env: &mut BenchEnv<'_>| {
        trace.enter(span::PUMP);
        let n = d.pump(env);
        trace.exit(span::PUMP);
        n
    };
    let mut events = 0u64;
    loop {
        if d.completions.iter().any(&mut found) {
            return true;
        }
        let Ok(n) = pump(d, env) else { return false };
        trace.enter(span::FIRE_DUE);
        let fired = d.fire_due(env);
        trace.exit(span::FIRE_DUE);
        let Ok(fired) = fired else { return false };
        if n + fired > 0 {
            events += (n + fired) as u64;
            if events > MAX_EVENTS {
                return false;
            }
            continue;
        }
        let deadline = Instant::now() + GRACE;
        loop {
            match pump(d, env) {
                Ok(0) if Instant::now() >= deadline => return false,
                Ok(0) => std::thread::sleep(Duration::from_micros(200)),
                Ok(_) => break,
                Err(_) => return false,
            }
        }
    }
}

fn window(world: &mut World, ctx: &Ctx, trace: Trace<'_>) -> Window {
    let mut w = Window::with_capacity(ctx.ops);
    let mark = meter_mark(&world.sys.meter);
    for i in 0..ctx.ops {
        let (src, target) = world.pairs[ctx.warmup + i];
        trace.set_op(i as u32);
        w.op(|| {
            trace.enter(span::OP);
            let ok = route(world, src, target, trace);
            trace.exit(span::OP);
            ok
        });
    }
    w.close(mark, &world.sys.meter);
    w
}

/// What the socket boundary did that the protocol never saw, summed
/// over every driver the run used. All of it must be zero on a clean
/// loopback run.
#[derive(Default)]
struct Boundary {
    drops: u64,
    fast_forwards: u64,
}

impl Boundary {
    fn add(&mut self, stats: NetStats) {
        self.drops += stats.dropped_oversized + stats.dropped_garbage + stats.stale_blackholed;
        self.fast_forwards += stats.fast_forwards;
    }

    fn check(&self, errors: &mut Vec<String>) {
        if self.drops > 0 {
            errors.push(format!("{} datagrams dropped at the socket boundary", self.drops));
        }
        if self.fast_forwards > 0 {
            errors.push(format!("{} clock fast-forwards on a busy network", self.fast_forwards));
        }
    }
}

/// The real simulator driver on the same op list; its meter is what the
/// socket run (and the traced loops) must reproduce.
fn real_driver_meter(ctx: &Ctx, pairs: &[(Key, Key)]) -> bristle_overlay::meter::Meter {
    let mut mbs = MessagingBristleSystem::new(build(NODES), FaultConfig::perfect(), ctx.seed);
    for &(src, target) in pairs {
        let _ = mbs.route(src, target);
        mbs.settle(); // drains acks and stale timers only: nothing metered
    }
    mbs.sys.meter.clone()
}

fn nofile_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

pub fn run(ctx: &Ctx) -> Outcome {
    if let Some(limit) = nofile_limit() {
        assert!(
            limit >= NOFILE_NEEDED,
            "udp-route-256 needs RLIMIT_NOFILE >= {NOFILE_NEEDED} (one socket per node), \
             but the soft limit is {limit}; raise it with `ulimit -n {NOFILE_NEEDED}`"
        );
    }
    let mut boundary = Boundary::default();
    let mut datagrams = 0.0;
    let m = measure(
        ctx,
        || setup(ctx),
        |world| {
            let sent_before = world.d.stats().datagrams_sent;
            let w = window(world, ctx, Trace::off());
            datagrams = (world.d.stats().datagrams_sent - sent_before) as f64;
            boundary.add(world.d.stats());
            w
        },
    );
    let mut out = m.outcome(ctx);
    let real = real_driver_meter(ctx, &m.world.pairs);
    if let Err(e) = assert_same_tallies("udp-route socket run", &m.world.sys.meter, &real) {
        out.errors.push(e);
    }
    if !ctx.trace {
        boundary.check(&mut out.errors);
        return out;
    }
    let w = m.window;
    let pairs = m.world.pairs;
    drop((m.world.sys, m.world.d));

    // Traced pass: same seed, same op list, the run loop written over
    // the driver's public functions.
    let mut world = setup(ctx);
    let tracer = new_tracer();
    let tw = window(&mut world, ctx, Trace::on(&tracer));
    boundary.add(world.d.stats());
    boundary.check(&mut out.errors);
    if let Err(e) = assert_same_tallies("udp-route traced loop", &world.sys.meter, &real) {
        out.errors.push(e);
    }
    let tracer = tracer.into_inner();
    let ops = tw.ops() as f64;

    // The same op list once more on the simulator loop: it sees inside
    // `poll` (which the socket driver calls privately from `pump`) and
    // captures the frames the codec cells replay.
    let sim = run_twice(ctx, NODES, &pairs, 1);
    if let Err(e) = assert_same_tallies("udp-route simulator loop", &sim.meter, &real) {
        out.errors.push(e);
    }

    let mut l = Values::default();
    l.set("core.system_build_s", world.build_s);
    l.set("netsim.topology_build_s", topology_cell());
    sim.layer_metrics(&mut l);
    cells::codec(&mut l, &sim.frames);
    l.set("net.bind_s", world.bind_s);
    l.set("net.pumps_per_op", tracer.agg(span::PUMP).count as f64 / ops);
    l.set("net.pump_self_us_per_op", tracer.self_ns(span::PUMP) / ops / 1e3);
    l.set("net.dispatch_ns", tracer.self_ns_mean(span::DISPATCH));
    l.set("net.datagrams_per_op", datagrams / w.ops() as f64);
    l.set("net.datagrams_per_s", datagrams / w.seconds());
    l.set("net.drops", boundary.drops as f64);
    l.set("net.fast_forwards", boundary.fast_forwards as f64);
    l.set("sim.route_span_us", tracer.total_ns_mean(span::OP) / 1e3);
    l.set("sim.ops_per_s_decay", w.decay());

    // One pump of a quiet driver: the per-call floor of the socket sweep.
    // (The busy driver's sockets are closed first: two drivers' worth
    // would not fit the descriptor limit checked above.)
    let World { mut sys, d, .. } = world;
    drop(d);
    let mut quiet = bind_all(&sys);
    let mut env = BenchEnv { sys: &mut sys, trace: Trace::off() };
    l.set(
        "net.idle_pump_ns",
        time_per_call(2_000, |_| {
            std::hint::black_box(quiet.pump(&mut env).expect("idle pump"));
        }),
    );
    bench_metrics(&mut l, &w, &tw, &tracer);
    out.traced(&tw, l, &tracer);
    out
}
