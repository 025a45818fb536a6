//! `msgroute`: `MessagingBristleSystem::route_burst` calls of 32 random
//! pairs each, then `settle()` (op = one burst, settled) on a perfect
//! transport — the message path at a population it has never been run
//! at. `proto` route/hop/ack sessions and the `sim` driver loop do the
//! work; no codec (the sim transport passes structs), no sockets, no WAL.

use bristle_overlay::key::Key;
use bristle_proto::transport::FaultConfig;
use bristle_sim::messaging::MessagingBristleSystem;

use crate::cells;
use crate::env::assert_same_tallies;
use crate::harness::{
    all_keys, bench_metrics, measure, meter_mark, rss_bytes, Ctx, Outcome, Window,
};
use crate::metrics::Values;
use crate::span;
use crate::workloads::simloop::run_twice;
use crate::workloads::{build, topology_cell};

/// Population (20 % mobile).
const NODES: usize = 10_000;
/// Concurrent closed-loop clients: routes launched together per op.
const BURST: usize = 32;

/// One op. The settle is part of it: without one the driver's buffered
/// completions (every `Resolved` a discovery leaves behind) are rescanned
/// by every open session on every event, and the run goes quadratic.
fn burst(mbs: &mut MessagingBristleSystem, pairs: &[(Key, Key)]) -> bool {
    let ok = mbs.route_burst(pairs).iter().all(|r| r.is_ok());
    mbs.settle();
    ok
}

/// Set-up: build the system, wrap it in the driver, run the warm-up bursts.
fn setup(ctx: &Ctx) -> (MessagingBristleSystem, Vec<(Key, Key)>) {
    let sys = build(NODES);
    let pairs = ctx.random_pairs(&all_keys(&sys), (ctx.warmup + ctx.ops) * BURST, 1);
    let mut mbs = MessagingBristleSystem::new(sys, FaultConfig::perfect(), ctx.seed);
    for b in pairs.chunks(BURST).take(ctx.warmup) {
        burst(&mut mbs, b);
    }
    (mbs, pairs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut rss_per_send = 0.0;
    let m = measure(
        ctx,
        || setup(ctx),
        |(mbs, pairs)| {
            let rss_before = rss_bytes();
            let sends_before = mbs.transport().trace().len();
            let mut w = Window::with_capacity(ctx.ops);
            let mark = meter_mark(&mbs.sys.meter);
            for b in pairs[ctx.warmup * BURST..].chunks(BURST) {
                w.op(|| burst(mbs, b));
            }
            w.close(mark, &mbs.sys.meter);
            let sends = mbs.transport().trace().len() - sends_before;
            rss_per_send = (rss_bytes() - rss_before) / sends.max(1) as f64;
            w
        },
    );
    let mut out = m.outcome(ctx);
    if !ctx.trace {
        return out;
    }
    let w = m.window;
    let (mbs, pairs) = m.world;
    let real_meter = mbs.sys.meter.clone();
    drop(mbs);

    // Traced pass: the same op list on the bench-owned loop.
    let run = run_twice(ctx, NODES, &pairs, BURST);
    if let Err(e) = assert_same_tallies("msgroute traced loop", &run.meter, &real_meter) {
        out.errors.push(e);
    }
    let (tracer, tw, events) = (&run.tracer, &run.traced, run.events);
    let ops = tw.ops() as f64;

    let mut l = Values::default();
    l.set("core.system_build_s", run.build_s);
    l.set("netsim.topology_build_s", topology_cell());
    run.layer_metrics(&mut l);
    l.set("sim.route_span_us", tracer.total_ns_mean(span::OP) / 1e3 / BURST as f64);
    l.set("sim.events_per_op", events / ops);
    l.set("sim.sends_per_op", run.sends / ops);
    l.set("sim.events_per_s", events / w.seconds());
    // What the real driver spends outside the layers the loop can see:
    // `machine_entry`, the `delivered` set, the per-step scan of all 32
    // burst sessions.
    let layers_self_ns = tracer.self_ns_sum_except(span::OP);
    l.set("sim.driver_residual_ns_per_event", (w.seconds() * 1e9 - layers_self_ns) / events);
    l.set("sim.ops_per_s_decay", w.decay());
    l.set("sim.rss_bytes_per_send", rss_per_send);
    l.set("proto.transport_send_ns", tracer.self_ns_mean(span::TRANSPORT_SEND));
    l.set(
        "proto.retransmits_per_op",
        cells::retransmits(&real_meter) as f64 / (ctx.warmup + ctx.ops) as f64,
    );
    cells::queue_hold(&mut l, (events / ops) as usize, ctx.seed);
    l.set("store.mem_apply_ns", cells::mem_apply_ns());
    // Like for like: the loop with spans on against the loop with spans off.
    bench_metrics(&mut l, &run.untraced, tw, tracer);
    l.set("bench.op_p99_us", w.p99_us());
    out.traced(tw, l, tracer);
    out
}
