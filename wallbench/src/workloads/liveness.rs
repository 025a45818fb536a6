//! `liveness`: `heartbeat_round()` + `settle()` after `seed_monitors()`
//! on a slightly lossy transport (op = one round). The only workload
//! where `proto::failure` and a deep `sim::engine::EventQueue` (every
//! watcher's probes in flight at once) dominate; routes and the codec
//! are bypassed.

use std::time::Instant;

use bristle_overlay::meter::MessageKind;
use bristle_proto::transport::FaultConfig;
use bristle_sim::messaging::MessagingBristleSystem;

use crate::cells;
use crate::env::BenchEnv;
use crate::harness::{
    bench_metrics, measure, meter_mark, new_tracer, rss_bytes, Ctx, Outcome, Window,
};
use crate::metrics::Values;
use crate::span::{self, Trace};
use crate::workloads::{build, topology_cell};

/// Population (20 % mobile).
const NODES: usize = 1_000;
/// Share of sends the transport drops.
const LOSS: f64 = 0.02;

fn setup(ctx: &Ctx) -> (MessagingBristleSystem, f64) {
    let t = Instant::now();
    let sys = build(NODES);
    let build_s = t.elapsed().as_secs_f64();
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::lossy(LOSS), ctx.seed);
    mbs.seed_monitors();
    for _ in 0..ctx.warmup {
        round(&mut mbs, Trace::off());
    }
    (mbs, build_s)
}

/// One op; fails if the round reported a death (nobody crashes here).
fn round(mbs: &mut MessagingBristleSystem, trace: Trace<'_>) -> bool {
    trace.enter(span::HEARTBEAT_ROUND);
    let dead = mbs.heartbeat_round();
    trace.exit(span::HEARTBEAT_ROUND);
    trace.enter(span::SETTLE);
    mbs.settle();
    trace.exit(span::SETTLE);
    dead.is_empty()
}

fn window(mbs: &mut MessagingBristleSystem, ctx: &Ctx, trace: Trace<'_>) -> Window {
    let mut w = Window::with_capacity(ctx.ops);
    let mark = meter_mark(&mbs.sys.meter);
    for i in 0..ctx.ops {
        trace.set_op(i as u32);
        w.op(|| {
            trace.enter(span::OP);
            let ok = round(mbs, trace);
            trace.exit(span::OP);
            ok
        });
    }
    w.close(mark, &mbs.sys.meter);
    w
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut sends, mut rss_per_send) = (0.0, 0.0);
    let m = measure(
        ctx,
        || setup(ctx),
        |(mbs, _)| {
            let rss_before = rss_bytes();
            let sends_before = mbs.transport().trace().len();
            let w = window(mbs, ctx, Trace::off());
            sends = (mbs.transport().trace().len() - sends_before) as f64;
            rss_per_send = (rss_bytes() - rss_before) / sends.max(1.0);
            w
        },
    );
    let mut out = m.outcome(ctx);
    if !ctx.trace {
        return out;
    }
    let w = m.window;
    drop(m.world);

    let (mut mbs, build_s) = setup(ctx);
    let retransmits_before = cells::retransmits(&mbs.sys.meter);
    let probes_before = mbs.sys.meter.count(MessageKind::HeartbeatSent);
    let tracer = new_tracer();
    let tw = window(&mut mbs, ctx, Trace::on(&tracer));
    let tracer = tracer.into_inner();
    let ops = tw.ops() as f64;

    let mut l = Values::default();
    l.set("core.system_build_s", build_s);
    l.set("netsim.topology_build_s", topology_cell());
    l.set("sim.heartbeat_round_span_ms", tracer.total_ns_mean(span::HEARTBEAT_ROUND) / 1e6);
    l.set("sim.settle_span_us", tracer.total_ns_mean(span::SETTLE) / 1e3);
    l.set("sim.sends_per_op", sends / ops);
    l.set("sim.ops_per_s_decay", w.decay());
    l.set("sim.rss_bytes_per_send", rss_per_send);
    l.set(
        "proto.retransmits_per_op",
        (cells::retransmits(&mbs.sys.meter) - retransmits_before) as f64 / ops,
    );
    // Every probe of a round is in flight at once, with its ack-window
    // timer: that is the queue depth the hold model is run at.
    let probes = (mbs.sys.meter.count(MessageKind::HeartbeatSent) - probes_before) as f64 / ops;
    cells::queue_hold(&mut l, (2.0 * probes) as usize, ctx.seed);

    l.set(
        "proto.transport_send_ns",
        cells::transport_send_ns(&mbs.sys, FaultConfig::lossy(LOSS), ctx.seed),
    );
    let mut env = BenchEnv { sys: &mut mbs.sys, trace: Trace::off() };
    l.set("proto.poll_timer_self_ns", cells::stale_timer_poll_ns(&mut env));
    bench_metrics(&mut l, &w, &tw, &tracer);
    out.traced(&tw, l, &tracer);
    out
}
