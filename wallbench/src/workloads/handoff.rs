//! `handoff`: the write side of the message path. One op moves a mobile
//! node, disseminates the update through its LDT by reliable messages,
//! then routes from a random source to the mover — each step settled —
//! on a lossy transport, closed over a fixed cast of mobile nodes whose
//! stores (and their location-replica holders') are WAL-backed. LDT
//! build, advertisement partitioning, location publish, WAL appends and
//! retry timers firing under loss all run here, so a gain for reads that
//! costs updates shows.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;
use bristle_proto::machine::RetryPolicy;
use bristle_proto::transport::FaultConfig;
use bristle_sim::messaging::MessagingBristleSystem;
use bristle_store::WalBackend;

use crate::cells;
use crate::env::BenchEnv;
use crate::harness::{
    all_keys, bench_metrics, dir_bytes, measure, meter_mark, new_tracer, time_per_call, Ctx,
    Outcome, Window,
};
use crate::metrics::Values;
use crate::span::{self, Trace};
use crate::workloads::{build, topology_cell};

/// Population (20 % mobile).
const NODES: usize = 1_000;
/// Mobile nodes that take turns moving.
const CAST: usize = 64;
/// Share of sends the transport drops.
const LOSS: f64 = 0.05;
/// Attempts per reliable send. At 5 % loss an attempt (message and ack)
/// fails about one time in ten; the default four attempts would lose an
/// LDT edge every few hundred ops, and the benchmark needs workloads on
/// which no operation fails.
const MAX_ATTEMPTS: u32 = 12;
/// WAL auto-snapshot threshold (appended frames per node).
const SNAPSHOT_EVERY: u64 = 0;

struct World {
    mbs: MessagingBristleSystem,
    /// `(mover, route source)` per op, warm-up first.
    ops: Vec<(Key, Key)>,
    build_s: f64,
}

fn setup(ctx: &Ctx, wal_dir: &Path) -> World {
    let _ = std::fs::remove_dir_all(wal_dir);
    let t = Instant::now();
    let mut sys = build(NODES);
    let build_s = t.elapsed().as_secs_f64();

    // The cast is part of the (fixed) deployment; the seed decides who
    // moves when and who routes to them.
    let cast = sys.mobile_keys()[..CAST].to_vec();
    let mut rng = ctx.op_rng(1);
    let keys = all_keys(&sys);
    let ops = (0..ctx.warmup + ctx.ops)
        .map(|_| {
            let mover = *rng.choose(&cast);
            loop {
                let src = *rng.choose(&keys);
                if src != mover {
                    break (mover, src);
                }
            }
        })
        .collect();

    let mut durable: BTreeSet<Key> = cast.iter().copied().collect();
    for &m in &cast {
        let replicas = sys.stationary.replica_set(m, sys.config().location_replicas);
        durable.extend(replicas.expect("stationary layer is populated"));
    }
    for node in durable {
        let dir = wal_dir.join(format!("{:016x}", node.0));
        sys.stores.attach_wal(node, WalBackend::open(dir, SNAPSHOT_EVERY).expect("WAL opens"));
    }

    let policy = RetryPolicy { max_attempts: MAX_ATTEMPTS, ..RetryPolicy::default() };
    let mbs = MessagingBristleSystem::with_policy(sys, FaultConfig::lossy(LOSS), ctx.seed, policy);
    let mut world = World { mbs, ops, build_s };
    for i in 0..ctx.warmup {
        let (mover, src) = world.ops[i];
        handoff(&mut world.mbs, mover, src, Trace::off());
    }
    world
}

/// One op. Returns `(acked LDT edges, route delivered)`.
fn handoff(
    mbs: &mut MessagingBristleSystem,
    mover: Key,
    src: Key,
    trace: Trace<'_>,
) -> (usize, bool) {
    trace.enter(span::MOVE);
    let at = SimTime(mbs.micro_now().0 + 1);
    mbs.schedule_move(at, mover, None);
    settle(mbs, trace);
    trace.exit(span::MOVE);

    trace.enter(span::DISSEMINATE);
    let acked = mbs.disseminate_update(mover).unwrap_or(0);
    trace.exit(span::DISSEMINATE);
    settle(mbs, trace);

    trace.enter(span::ROUTE);
    let delivered = mbs.route(src, mover).is_ok();
    trace.exit(span::ROUTE);
    settle(mbs, trace);
    (acked, delivered)
}

fn settle(mbs: &mut MessagingBristleSystem, trace: Trace<'_>) {
    trace.enter(span::SETTLE);
    mbs.settle();
    trace.exit(span::SETTLE);
}

/// Edges of `mover`'s LDT — what a full dissemination must ack. The
/// tree depends only on registrations, which no op changes.
fn ldt_edges(mbs: &MessagingBristleSystem, mover: Key) -> usize {
    mbs.sys.build_ldt(mover).expect("live mover").len() - 1
}

fn window(world: &mut World, ctx: &Ctx, trace: Trace<'_>) -> Window {
    let mut w = Window::with_capacity(ctx.ops);
    let (mut edges_expected, mut edges_acked) = (0usize, 0usize);
    let mark = meter_mark(&world.mbs.sys.meter);
    for i in 0..ctx.ops {
        let (mover, src) = world.ops[ctx.warmup + i];
        trace.set_op(i as u32);
        let mut acked = 0;
        w.op(|| {
            trace.enter(span::OP);
            let (a, delivered) = handoff(&mut world.mbs, mover, src, trace);
            trace.exit(span::OP);
            acked = a;
            delivered
        });
        edges_expected += ldt_edges(&world.mbs, mover);
        edges_acked += acked;
    }
    w.close(mark, &world.mbs.sys.meter);
    // An op also fails when an LDT edge stayed unacked (checked outside
    // the ops' timers; acks never exceed edges, so the sums suffice).
    w.failed += (edges_expected - edges_acked) as u64;
    w
}

pub fn run(ctx: &Ctx) -> Outcome {
    let wal_dir = ctx.scratch.join("wal");
    let m = measure(ctx, || setup(ctx, &wal_dir), |world| window(world, ctx, Trace::off()));
    let mut out = m.outcome(ctx);
    if !ctx.trace {
        return out;
    }
    let w = m.window;
    drop(m.world);

    // Traced pass: same seed, same op list, a span around every call
    // the op makes into the driver.
    let mut world = setup(ctx, &wal_dir);
    let wal_before = dir_bytes(&wal_dir);
    let retransmits_before = cells::retransmits(&world.mbs.sys.meter);
    let sends_before = world.mbs.transport().trace().len();
    let tracer = new_tracer();
    let tw = window(&mut world, ctx, Trace::on(&tracer));
    let tracer = tracer.into_inner();
    let ops = tw.ops() as f64;

    let mut l = Values::default();
    l.set("core.system_build_s", world.build_s);
    l.set("netsim.topology_build_s", topology_cell());
    l.set("core.move_span_us", tracer.total_ns_mean(span::MOVE) / 1e3);
    l.set("sim.disseminate_span_us", tracer.total_ns_mean(span::DISSEMINATE) / 1e3);
    l.set("sim.route_span_us", tracer.total_ns_mean(span::ROUTE) / 1e3);
    l.set("sim.settle_span_us", tracer.total_ns_mean(span::SETTLE) / 1e3);
    l.set("sim.sends_per_op", (world.mbs.transport().trace().len() - sends_before) as f64 / ops);
    l.set(
        "proto.retransmits_per_op",
        (cells::retransmits(&world.mbs.sys.meter) - retransmits_before) as f64 / ops,
    );
    l.set("store.wal_bytes_per_op", (dir_bytes(&wal_dir) - wal_before) as f64 / ops);
    l.set("sim.ops_per_s_decay", w.decay());

    // Isolated cells on inputs captured from the workload.
    let movers: Vec<Key> = world.ops[ctx.warmup..].iter().map(|&(m, _)| m).take(4_096).collect();
    let sys = &world.mbs.sys;
    let mut ldt_nodes = 0usize;
    let ldt_ns = time_per_call(movers.len(), |i| {
        ldt_nodes += std::hint::black_box(sys.build_ldt(movers[i]).expect("live mover")).len();
    });
    l.set("core.ldt_build_ns", ldt_ns);
    l.set("core.ldt_size_mean", ldt_nodes as f64 / movers.len() as f64);
    l.set("store.mem_apply_ns", cells::mem_apply_ns());
    let mut env = BenchEnv { sys: &mut world.mbs.sys, trace: Trace::off() };
    l.set("proto.poll_timer_self_ns", cells::stale_timer_poll_ns(&mut env));
    // The workload's WALs must be closed before the replay cell re-opens them.
    drop(world);
    cells::wal(&mut l, &ctx.scratch, &wal_dir);
    bench_metrics(&mut l, &w, &tw, &tracer);
    out.traced(&tw, l, &tracer);
    out
}
