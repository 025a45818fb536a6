//! `lookup`: function-path `BristleSystem::route_mobile(src, dst)` over
//! random node pairs on a settled system whose tables are far larger
//! than the caches. `overlay`, `netsim` and `core::mobile` do all the
//! work; `proto`, `sim`, `net` and `store` none. Its set-up is the table
//! build.

use std::time::Instant;

use bristle_core::system::BristleSystem;
use bristle_netsim::graph::RouterId;
use bristle_overlay::key::Key;

use crate::harness::{
    all_keys, bench_metrics, measure, meter_mark, new_tracer, time_per_call, Ctx, Outcome, Window,
};
use crate::metrics::Values;
use crate::span::{self, Trace};
use crate::workloads::{build, topology_cell, BUILD_WORKERS};

/// Population (20 % mobile).
const NODES: usize = 50_000;
/// How many of the workload's ops the isolated cells replay.
const CELL_OPS: usize = 20_000;

/// One op: route, then check the terminus owns the target.
fn route(sys: &mut BristleSystem, src: Key, dst: Key, trace: Trace<'_>) -> (bool, usize, usize) {
    trace.enter(span::ROUTE_MOBILE);
    let rep = sys.route_mobile(src, dst);
    trace.exit(span::ROUTE_MOBILE);
    match rep {
        Ok(r) => {
            let ok = sys.mobile.owner(dst) == Ok(r.terminus) && r.failed_discoveries == 0;
            (ok, r.forward_hops, r.discoveries)
        }
        Err(_) => (false, 0, 0),
    }
}

/// Set-up: build and wire the system, then the warm-up routes.
fn setup(ctx: &Ctx) -> (BristleSystem, Vec<(Key, Key)>, f64) {
    let t = Instant::now();
    let mut sys = build(NODES);
    let build_s = t.elapsed().as_secs_f64();
    let keys = all_keys(&sys);
    let pairs = ctx.random_pairs(&keys, ctx.warmup + ctx.ops, 1);
    for &(s, d) in &pairs[..ctx.warmup] {
        route(&mut sys, s, d, Trace::off());
    }
    (sys, pairs, build_s)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let m = measure(
        ctx,
        || setup(ctx),
        |(sys, pairs, _)| {
            let mut w = Window::with_capacity(ctx.ops);
            let mark = meter_mark(&sys.meter);
            for &(s, d) in &pairs[ctx.warmup..] {
                w.op(|| route(sys, s, d, Trace::off()).0);
            }
            w.close(mark, &sys.meter);
            w
        },
    );
    let mut out = m.outcome(ctx);
    if !ctx.trace {
        return out;
    }
    let w = m.window;
    drop(m.world);

    // Traced pass: same seed, same op list, one span around each call.
    let (mut sys, pairs, build_s) = setup(ctx);
    let timed = &pairs[ctx.warmup..];
    let tracer = new_tracer();
    let trace = Trace::on(&tracer);
    let mut tw = Window::with_capacity(timed.len());
    let (mut hops, mut discoveries) = (0usize, 0usize);
    let mark = meter_mark(&sys.meter);
    for (i, &(s, d)) in timed.iter().enumerate() {
        trace.set_op(i as u32);
        tw.op(|| {
            trace.enter(span::OP);
            let (ok, h, disc) = route(&mut sys, s, d, trace);
            trace.exit(span::OP);
            hops += h;
            discoveries += disc;
            ok
        });
    }
    tw.close(mark, &sys.meter);
    let tracer = tracer.into_inner();
    let ops = tw.ops() as f64;

    let mut l = Values::default();
    l.set("core.system_build_s", build_s);
    l.set("overlay.hops_per_op", hops as f64 / ops);
    l.set("core.discoveries_per_op", discoveries as f64 / ops);
    // Every metered message costs one distance lookup; the entry-point
    // scans inside `_discovery` add more that cannot be seen from here.
    let distance_calls = tw.msgs as f64 / ops;
    l.set("netsim.distance_calls_per_op", distance_calls);
    l.set("overlay.rows_per_node", sys.mobile.total_state() as f64 / sys.len() as f64);

    // Isolated cells on inputs captured from the workload.
    let cell = &timed[..timed.len().min(CELL_OPS)];
    let (next_hop_ns, walked) = next_hop_cell(&sys, cell);
    l.set("overlay.next_hop_ns", next_hop_ns);
    let distance_ns = distance_cell(&sys, &walked);
    l.set("netsim.distance_ns", distance_ns);
    l.set("core.discover_ns", discover_cell(&mut sys, ctx));
    l.set(
        "core.route_mobile_residual_ns",
        w.p50_ns() - (hops as f64 / ops) * next_hop_ns - distance_calls * distance_ns,
    );
    l.set("netsim.topology_build_s", topology_cell());
    for (name, workers) in
        [("overlay.table_build_s", BUILD_WORKERS), ("overlay.table_build_1w_s", 1)]
    {
        let t = Instant::now();
        sys.rewire_with_workers(workers);
        l.set(name, t.elapsed().as_secs_f64());
    }
    bench_metrics(&mut l, &w, &tw, &tracer);
    out.traced(&tw, l, &tracer);
    out
}

/// Walks `pairs` with bare `RingDht::next_hop` on the mobile layer;
/// returns ns per call and the router pair of every hop walked.
fn next_hop_cell(sys: &BristleSystem, pairs: &[(Key, Key)]) -> (f64, Vec<(RouterId, RouterId)>) {
    let mut path: Vec<Key> = Vec::with_capacity(pairs.len() * 8);
    let mut calls = 0u64;
    let t = Instant::now();
    for &(src, dst) in pairs {
        let mut cur = src;
        path.push(cur);
        while let Some(next) = sys.mobile.next_hop(cur, dst).expect("known node") {
            cur = next;
            path.push(cur);
            calls += 1;
        }
        calls += 1; // the final call that answered "owner"
        path.push(Key(u64::MAX)); // route separator
    }
    let ns = t.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    let walked = path
        .windows(2)
        .filter(|w| w[0] != Key(u64::MAX) && w[1] != Key(u64::MAX))
        .map(|w| (sys.router_of(w[0]).expect("live"), sys.router_of(w[1]).expect("live")))
        .collect();
    (ns, walked)
}

/// `DistanceCache::distance` on the workload's hop router pairs, warm
/// (one untimed pass first).
fn distance_cell(sys: &BristleSystem, walked: &[(RouterId, RouterId)]) -> f64 {
    let d = sys.distances();
    let mut acc = 0u64;
    for &(a, b) in walked {
        acc = acc.wrapping_add(d.distance(a, b));
    }
    let ns = time_per_call(walked.len(), |i| {
        let (a, b) = walked[i];
        acc = acc.wrapping_add(d.distance(a, b));
    });
    std::hint::black_box(acc);
    ns
}

/// `BristleSystem::discover(asker, subject)` on random askers and mobile
/// subjects off the op stream.
fn discover_cell(sys: &mut BristleSystem, ctx: &Ctx) -> f64 {
    let keys = all_keys(sys);
    let mobile = sys.mobile_keys().to_vec();
    let mut rng = ctx.op_rng(2);
    let asks: Vec<(Key, Key)> =
        (0..2_000).map(|_| (*rng.choose(&keys), *rng.choose(&mobile))).collect();
    time_per_call(asks.len(), |i| {
        let (asker, subject) = asks[i];
        std::hint::black_box(sys.discover(asker, subject).expect("known nodes"));
    })
}
