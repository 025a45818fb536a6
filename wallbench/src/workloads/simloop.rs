//! A bench-owned message loop over public functions only —
//! `ProtoMachine::{start_route, poll}`, `EventQueue::{schedule_at, pop}`,
//! `SimTransport::send` and a [`BenchEnv`] — so every layer boundary the
//! real `MessagingBristleSystem` crosses privately can carry a span.
//!
//! It mirrors the real driver's fault-free bookkeeping step for step
//! (machines made on first use, the `delivered` set behind the
//! spurious-retry count, the arrival-router check, one scan of the open
//! sessions per event), because it is only a valid microscope if its
//! per-kind meter tallies equal the real driver's on the same op list;
//! callers check that with [`crate::env::assert_same_tallies`].

use std::collections::HashSet;
use std::time::Instant;

use bristle_core::arena::{KeyInterner, NodeArena};
use bristle_core::system::BristleSystem;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::machine::{Completion, Event, Output, ProtoMachine, RetryPolicy, TimerKind};
use bristle_proto::transport::{Delivery, FaultConfig, SimTransport, Transport};
use bristle_proto::wire::Envelope;
use bristle_sim::engine::EventQueue;

use bristle_overlay::meter::Meter;

use crate::env::BenchEnv;
use crate::harness::{meter_mark, new_tracer, Ctx, Window};
use crate::metrics::Values;
use crate::span::{self, Trace, Tracer};
use crate::workloads::build;

/// The real driver's per-operation event budget.
const MAX_EVENTS_PER_OP: u64 = 2_000_000;

enum Ev {
    Deliver(Delivery),
    Timer { node: Key, kind: TimerKind },
}

/// See the module docs.
pub struct SimLoop<'a> {
    pub sys: BristleSystem,
    transport: SimTransport,
    ids: KeyInterner,
    machines: NodeArena<ProtoMachine>,
    queue: EventQueue<Ev>,
    delivered: HashSet<(Key, u64)>,
    completions: Vec<Completion>,
    trace: Trace<'a>,
    /// Events popped so far.
    pub events: u64,
    /// Frames handed to the transport so far.
    pub sends: u64,
    /// `poll` calls so far (deliveries and timers).
    pub polls: u64,
    /// Up to `frame_cap` sent frames, for the codec cells.
    pub frames: Vec<Envelope>,
    frame_cap: usize,
}

impl<'a> SimLoop<'a> {
    /// A loop over `sys` on a perfect transport seeded as the real
    /// driver seeds its own, keeping the first `frame_cap` frames sent.
    fn new(sys: BristleSystem, seed: u64, trace: Trace<'a>, frame_cap: usize) -> Self {
        let transport = SimTransport::new(sys.distances_arc(), FaultConfig::perfect(), seed);
        SimLoop {
            sys,
            transport,
            ids: KeyInterner::new(),
            machines: NodeArena::new(),
            queue: EventQueue::new(),
            delivered: HashSet::new(),
            completions: Vec::new(),
            trace,
            events: 0,
            sends: 0,
            polls: 0,
            frames: Vec::new(),
            frame_cap,
        }
    }

    /// Switches span recording (the warm-up runs untraced).
    fn set_trace(&mut self, trace: Trace<'a>) {
        self.trace = trace;
    }

    fn machine<'m>(
        ids: &mut KeyInterner,
        machines: &'m mut NodeArena<ProtoMachine>,
        node: Key,
    ) -> &'m mut ProtoMachine {
        let idx = ids.intern(node);
        if !machines.contains(idx) {
            machines.insert(idx, ProtoMachine::new(node, RetryPolicy::default()));
        }
        machines.get_mut(idx).expect("just ensured")
    }

    /// Routes every pair concurrently, as `route_burst` does. Returns
    /// whether each route was delivered.
    fn route_burst(&mut self, pairs: &[(Key, Key)]) -> Vec<bool> {
        let mut results: Vec<Option<bool>> = vec![None; pairs.len()];
        let mut sessions: Vec<(Key, u64)> = Vec::with_capacity(pairs.len());
        for &(src, target) in pairs {
            let now = self.queue.now();
            let (route_id, out) = {
                let machine = Self::machine(&mut self.ids, &mut self.machines, src);
                let mut env = BenchEnv { sys: &mut self.sys, trace: self.trace };
                self.trace.enter(span::START_ROUTE);
                let r = machine.start_route(now, &mut env, target);
                self.trace.exit(span::START_ROUTE);
                r
            };
            self.dispatch(src, out);
            sessions.push((src, route_id));
        }
        let mut events = 0u64;
        loop {
            let mut open = 0usize;
            for (i, &(src, route_id)) in sessions.iter().enumerate() {
                if results[i].is_none() {
                    results[i] = self.take_route_completion(src, route_id);
                    open += usize::from(results[i].is_none());
                }
            }
            if open == 0 || events >= MAX_EVENTS_PER_OP || !self.step() {
                break;
            }
            events += 1;
        }
        results.into_iter().map(|r| r == Some(true)).collect()
    }

    /// Drains every pending event, as the real driver's `settle` does.
    fn settle(&mut self) {
        let mut budget = MAX_EVENTS_PER_OP;
        while budget > 0 && self.step() {
            budget -= 1;
        }
        self.completions.clear();
    }

    fn step(&mut self) -> bool {
        self.trace.enter(span::QUEUE_POP);
        let popped = self.queue.pop();
        self.trace.exit(span::QUEUE_POP);
        let Some((now, event)) = popped else { return false };
        self.events += 1;
        match event {
            Ev::Deliver(d) => {
                let dst = d.env.dst;
                if self.sys.router_of(dst) == Ok(d.to_router) {
                    self.delivered.insert((d.env.src, d.env.msg_id));
                    let out = {
                        let machine = Self::machine(&mut self.ids, &mut self.machines, dst);
                        let mut env = BenchEnv { sys: &mut self.sys, trace: self.trace };
                        self.trace.enter(span::POLL_DELIVER);
                        let out = machine.poll(now, Event::Deliver(d.env), &mut env);
                        self.trace.exit(span::POLL_DELIVER);
                        out
                    };
                    self.polls += 1;
                    self.dispatch(dst, out);
                }
            }
            Ev::Timer { node, kind } => {
                if let Some(machine) = self.ids.get(node).and_then(|i| self.machines.get_mut(i)) {
                    let mut env = BenchEnv { sys: &mut self.sys, trace: self.trace };
                    self.trace.enter(span::POLL_TIMER);
                    let out = machine.poll(now, Event::Timer(kind), &mut env);
                    self.trace.exit(span::POLL_TIMER);
                    self.polls += 1;
                    self.dispatch(node, out);
                }
            }
        }
        true
    }

    fn dispatch(&mut self, from: Key, out: Output) {
        let now = self.queue.now();
        let Ok(from_router) = self.sys.router_of(from) else { return };
        for o in out.outgoing {
            if self.delivered.contains(&(o.env.src, o.env.msg_id)) {
                self.sys.meter.bump(MessageKind::SpuriousRetry, 1);
            }
            if self.frames.len() < self.frame_cap {
                self.frames.push(o.env.clone());
            }
            self.sends += 1;
            self.trace.enter(span::TRANSPORT_SEND);
            let deliveries = self.transport.send(now, from_router, o.to_addr.router_id(), o.env);
            self.trace.exit(span::TRANSPORT_SEND);
            for d in deliveries {
                self.trace.enter(span::QUEUE_PUSH);
                self.queue.schedule_at(d.at, Ev::Deliver(d));
                self.trace.exit(span::QUEUE_PUSH);
            }
        }
        for t in out.timers {
            self.trace.enter(span::QUEUE_PUSH);
            self.queue.schedule_at(t.at, Ev::Timer { node: from, kind: t.kind });
            self.trace.exit(span::QUEUE_PUSH);
        }
        self.completions.extend(out.completions);
    }

    /// `Some(delivered?)` once this route's outcome has surfaced.
    fn take_route_completion(&mut self, origin: Key, route_id: u64) -> Option<bool> {
        let mut found = None;
        self.completions.retain(|c| match *c {
            Completion::Delivered { origin: o, route_id: r } if o == origin && r == route_id => {
                found.get_or_insert(true);
                false
            }
            Completion::RouteFailed { origin: o, route_id: r, .. }
                if o == origin && r == route_id =>
            {
                found.get_or_insert(false);
                false
            }
            _ => true,
        });
        found
    }
}

/// What [`run_twice`] found.
pub struct LoopRun {
    /// The traced pass's spans, its cost re-calibrated against the
    /// untraced pass.
    pub tracer: Tracer,
    pub untraced: Window,
    pub traced: Window,
    /// The loop's meter after warm-up and window (identical in both passes).
    pub meter: Meter,
    /// Events popped, frames sent and `poll` calls made in one window.
    pub events: f64,
    pub sends: f64,
    pub polls: f64,
    /// The first frames sent, for the codec cells.
    pub frames: Vec<Envelope>,
    /// Seconds the system build took.
    pub build_s: f64,
}

/// Runs `pairs` (warm-up first; `burst` routes per op, each op settled)
/// on a fresh [`SimLoop`] over a system of `nodes` nodes, twice: spans
/// off, then spans on. The difference between the two windows is what
/// tracing cost in situ, and the tracer is re-calibrated to it.
pub fn run_twice(ctx: &Ctx, nodes: usize, pairs: &[(Key, Key)], burst: usize) -> LoopRun {
    let tracer = new_tracer();
    let pass = |trace: Trace<'_>, frame_cap: usize| {
        let t = Instant::now();
        let sys = build(nodes);
        let build_s = t.elapsed().as_secs_f64();
        let mut lp = SimLoop::new(sys, ctx.seed, Trace::off(), frame_cap);
        let mut ops = pairs.chunks(burst);
        for b in ops.by_ref().take(ctx.warmup) {
            lp.route_burst(b);
            lp.settle();
        }
        lp.set_trace(trace);
        let before = (lp.events, lp.sends, lp.polls);
        let mut w = Window::with_capacity(ctx.ops);
        let mark = meter_mark(&lp.sys.meter);
        for (i, b) in ops.enumerate() {
            trace.set_op(i as u32);
            w.op(|| {
                trace.enter(span::OP);
                let ok = lp.route_burst(b).iter().all(|&d| d);
                lp.settle();
                trace.exit(span::OP);
                ok
            });
        }
        w.close(mark, &lp.sys.meter);
        let counts = [lp.events - before.0, lp.sends - before.1, lp.polls - before.2];
        (w, counts.map(|c| c as f64), lp.sys.meter.clone(), std::mem::take(&mut lp.frames), build_s)
    };
    let (untraced, ..) = pass(Trace::off(), 0);
    let (traced, [events, sends, polls], meter, frames, build_s) =
        pass(Trace::on(&tracer), crate::cells::FRAME_SAMPLE);
    let mut tracer = tracer.into_inner();
    tracer.recalibrate((traced.seconds() - untraced.seconds()) * 1e9);
    LoopRun { tracer, untraced, traced, meter, events, sends, polls, frames, build_s }
}

impl LoopRun {
    /// The per-layer numbers the traced pass's spans yield (per op of
    /// the traced window).
    pub fn layer_metrics(&self, l: &mut Values) {
        let (tracer, ops) = (&self.tracer, self.traced.ops() as f64);
        l.set("proto.start_route_self_ns", tracer.self_ns_mean(span::START_ROUTE));
        l.set("proto.poll_deliver_self_ns", tracer.self_ns_mean(span::POLL_DELIVER));
        l.set("proto.poll_timer_self_ns", tracer.self_ns_mean(span::POLL_TIMER));
        l.set("proto.polls_per_op", self.polls / ops);
        let env_calls: u64 = [
            span::ENV_NEXT_HOP,
            span::ENV_ENTRY,
            span::ENV_REPLICAS,
            span::ENV_ADDR,
            span::ENV_BELIEVED,
            span::ENV_RECORD,
            span::ENV_DISTANCE,
            span::ENV_METER,
            span::ENV_COMMIT,
        ]
        .iter()
        .map(|&n| tracer.agg(n).count)
        .sum();
        l.set("proto.env_calls_per_poll", env_calls as f64 / self.polls.max(1.0));
        l.set("overlay.next_hop_ns", tracer.self_ns_mean(span::ENV_NEXT_HOP));
        l.set("overlay.hops_per_op", tracer.agg(span::ENV_NEXT_HOP).count as f64 / ops);
        l.set("netsim.distance_ns", tracer.self_ns_mean(span::ENV_DISTANCE));
        l.set("netsim.distance_calls_per_op", tracer.agg(span::ENV_DISTANCE).count as f64 / ops);
        l.set("core.discoveries_per_op", tracer.agg(span::ENV_ENTRY).count as f64 / ops);
    }
}
