//! In-memory spans around calls into the layers.
//!
//! A span is `(name, op, parent, start, end)`. Spans nest by call order:
//! the span open when another is entered is its parent. Per-name totals
//! and self times are folded as spans close, so a run of millions of
//! spans costs a few hundred bytes; the raw spans of the first ops (whole
//! ops, until a span budget is used up) are kept as well and written out
//! with the results, which is enough to read one op's causal tree.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its direct children cover.
//!
//! Reading the clock is not free (tens of nanoseconds here, as much as
//! the cheapest calls being timed), so the tracer measures its own cost
//! first — what an empty span reports as its duration, and what it adds
//! to its parent's self time — and the per-name means and sums it hands
//! out have that cost taken off again.

use std::cell::RefCell;
use std::time::Instant;

/// Index into [`NAMES`].
pub type NameId = u16;

macro_rules! span_names {
    ($($id:ident = $name:literal,)*) => {
        span_names!(@consts 0u16; $($id,)*);
        /// Every span name, indexed by [`NameId`].
        pub const NAMES: &[&str] = &[$($name,)*];
    };
    (@consts $n:expr; $id:ident, $($rest:ident,)*) => {
        pub const $id: NameId = $n;
        span_names!(@consts $n + 1u16; $($rest,)*);
    };
    (@consts $n:expr;) => {};
}

span_names! {
    // One per op, wrapping everything the op does.
    OP = "bench.op",
    // Workload calls into a public driver API (outer spans).
    ROUTE_MOBILE = "core.route_mobile",
    ROUTE = "sim.route",
    SETTLE = "sim.settle",
    MOVE = "core.move",
    DISSEMINATE = "sim.disseminate",
    HEARTBEAT_ROUND = "sim.heartbeat_round",
    // Bench-owned loops over public functions.
    START_ROUTE = "proto.start_route",
    POLL_DELIVER = "proto.poll_deliver",
    POLL_TIMER = "proto.poll_timer",
    TRANSPORT_SEND = "proto.transport_send",
    QUEUE_PUSH = "sim.queue_push",
    QUEUE_POP = "sim.queue_pop",
    PUMP = "net.pump",
    FIRE_DUE = "net.fire_due",
    DISPATCH = "net.dispatch",
    // Calls the bench-owned NodeEnv forwards to the layers below.
    ENV_NEXT_HOP = "overlay.next_hop",
    ENV_ENTRY = "core.entry_stationary",
    ENV_REPLICAS = "overlay.replicas",
    ENV_ADDR = "core.addr",
    ENV_BELIEVED = "core.believed_addr",
    ENV_RECORD = "overlay.location_record",
    ENV_DISTANCE = "netsim.distance",
    ENV_METER = "overlay.meter",
    ENV_COMMIT = "core.commit",
    ENV_STORE = "store.apply",
}

/// "No enclosing span."
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span (times are nanoseconds since the tracer was made).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    /// The op this span belongs to (all spans of one op share it).
    pub op: u32,
    /// Index of the enclosing span in [`Tracer::kept`], or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Folded totals for one span name, as measured (tracer cost included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Direct child spans closed under spans of this name.
    pub children: u64,
}

/// What the tracer itself costs, per span, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    /// The duration an empty span reports.
    pub inside_ns: f64,
    /// What an empty span adds to its parent's self time.
    pub outside_ns: f64,
}

struct Frame {
    name: NameId,
    start_ns: u64,
    children_ns: u64,
    children: u64,
    /// Slot reserved in `kept` (or `NO_PARENT` when this op is not kept).
    slot: u32,
}

/// Records spans; see the module docs.
pub struct Tracer {
    origin: Instant,
    aggs: Vec<Agg>,
    stack: Vec<Frame>,
    kept: Vec<Span>,
    /// Raw spans are kept for ops that start while fewer than this many
    /// are held.
    keep_spans: usize,
    keeping: bool,
    op: u32,
    cost: SpanCost,
}

impl Tracer {
    /// A tracer that keeps the raw spans of the first ops, stopping at
    /// the first op boundary past `keep_spans` spans.
    pub fn new(keep_spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            aggs: vec![Agg::default(); NAMES.len()],
            stack: Vec::with_capacity(16),
            kept: Vec::new(),
            keep_spans,
            keeping: keep_spans > 0,
            op: 0,
            cost: SpanCost::default(),
        }
    }

    /// A tracer that has measured its own cost through the [`Trace`]
    /// handle the loops use, so its reports can take it off again.
    pub fn calibrated(keep_spans: usize) -> RefCell<Self> {
        const N: u64 = 100_000;
        let probe = RefCell::new(Tracer::new(0));
        let trace = Trace::on(&probe);
        trace.enter(OP);
        for _ in 0..N {
            trace.enter(PUMP);
            trace.exit(PUMP);
        }
        trace.exit(OP);
        let probe = probe.into_inner();
        let mut t = Tracer::new(keep_spans);
        t.cost = SpanCost {
            inside_ns: probe.agg(PUMP).total_ns as f64 / N as f64,
            outside_ns: probe.agg(OP).self_ns as f64 / N as f64,
        };
        RefCell::new(t)
    }

    /// The tracer's own cost per span, as last calibrated.
    pub fn cost(&self) -> SpanCost {
        self.cost
    }

    /// Re-scales the tracer's cost to what it was *in this run*: the
    /// same work took `extra_ns` longer with spans on than off. In a
    /// cache-thrashing workload the tracer's own state keeps being
    /// evicted, and a span costs about twice what the empty-loop
    /// calibration says. The split between the part a span reports
    /// inside itself and the part it adds to its parent is kept.
    pub fn recalibrate(&mut self, extra_ns: f64) {
        let spans: u64 = self.aggs.iter().map(|a| a.count).sum();
        let was = self.cost.inside_ns + self.cost.outside_ns;
        if spans > 0 && extra_ns > 0.0 && was > 0.0 {
            let scale = extra_ns / spans as f64 / was;
            self.cost.inside_ns *= scale;
            self.cost.outside_ns *= scale;
        }
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
        self.keeping = self.kept.len() < self.keep_spans;
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`Self::exit`].
    #[inline]
    pub fn enter(&mut self, name: NameId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.enter_at(name, now);
    }

    /// Closes the innermost open span, which must be `name`.
    #[inline]
    pub fn exit(&mut self, name: NameId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.exit_at(name, now);
    }

    fn enter_at(&mut self, name: NameId, now: u64) {
        let slot = if self.keeping {
            let parent = self.stack.last().map_or(NO_PARENT, |f| f.slot);
            self.kept.push(Span { name, op: self.op, parent, start_ns: now, end_ns: now });
            (self.kept.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Frame { name, start_ns: now, children_ns: 0, children: 0, slot });
    }

    fn exit_at(&mut self, name: NameId, now: u64) {
        let f = self.stack.pop().expect("exit without enter");
        assert_eq!(f.name, name, "spans must close innermost-first");
        let dur = now.saturating_sub(f.start_ns);
        let agg = &mut self.aggs[name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(f.children_ns);
        agg.children += f.children;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
            parent.children += 1;
        }
        if f.slot != NO_PARENT {
            self.kept[f.slot as usize].end_ns = now;
        }
    }

    /// Totals for `name` so far.
    pub fn agg(&self, name: NameId) -> Agg {
        self.aggs[name as usize]
    }

    /// Self time of all spans of `name` with the tracer's cost taken
    /// off, in nanoseconds.
    pub fn self_ns(&self, name: NameId) -> f64 {
        let a = self.agg(name);
        let overhead =
            a.count as f64 * self.cost.inside_ns + a.children as f64 * self.cost.outside_ns;
        (a.self_ns as f64 - overhead).max(0.0)
    }

    /// Mean self time per span of `name`, tracer cost taken off (0 when
    /// none ran).
    pub fn self_ns_mean(&self, name: NameId) -> f64 {
        self.self_ns(name) / self.agg(name).count.max(1) as f64
    }

    /// Mean duration per span of `name`, in nanoseconds, as measured (0
    /// when none ran). For spans long enough that the tracer's cost
    /// inside them does not matter.
    pub fn total_ns_mean(&self, name: NameId) -> f64 {
        let a = self.agg(name);
        a.total_ns as f64 / a.count.max(1) as f64
    }

    /// Sum of [`Self::self_ns`] over every name but `except` — the time
    /// the layers below `except` account for.
    pub fn self_ns_sum_except(&self, except: NameId) -> f64 {
        (0..NAMES.len() as NameId).filter(|&n| n != except).map(|n| self.self_ns(n)).sum()
    }

    /// The raw spans of the kept ops, in entry order.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// `(name, totals)` for every name that recorded at least one span.
    pub fn aggs(&self) -> impl Iterator<Item = (&'static str, Agg)> + '_ {
        self.aggs.iter().enumerate().filter(|(_, a)| a.count > 0).map(|(i, a)| (NAMES[i], *a))
    }
}

/// A copyable handle to a shared [`Tracer`], or to none: the bench-owned
/// loops and the [`crate::env::BenchEnv`] they drive both open spans, and
/// the env's queries only get `&self`.
#[derive(Clone, Copy)]
pub struct Trace<'a>(Option<&'a RefCell<Tracer>>);

impl<'a> Trace<'a> {
    /// Spans recorded into `tracer`.
    pub fn on(tracer: &'a RefCell<Tracer>) -> Self {
        Trace(Some(tracer))
    }

    /// Every call is a no-op.
    pub fn off() -> Self {
        Trace(None)
    }

    #[inline]
    pub fn enter(self, name: NameId) {
        if let Some(t) = self.0 {
            t.borrow_mut().enter(name);
        }
    }

    #[inline]
    pub fn exit(self, name: NameId) {
        if let Some(t) = self.0 {
            t.borrow_mut().exit(name);
        }
    }

    #[inline]
    pub fn set_op(self, op: u32) {
        if let Some(t) = self.0 {
            t.borrow_mut().set_op(op);
        }
    }

    pub fn is_on(self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new(8);
        t.enter_at(OP, 0);
        t.enter_at(PUMP, 10);
        t.enter_at(ENV_DISTANCE, 20);
        t.exit_at(ENV_DISTANCE, 50); // 30
        t.exit_at(PUMP, 100); // 90 total, 60 self
        t.exit_at(OP, 200); // 200 total, 110 self
        assert_eq!(t.agg(ENV_DISTANCE), Agg { count: 1, total_ns: 30, self_ns: 30, children: 0 });
        assert_eq!(t.agg(PUMP), Agg { count: 1, total_ns: 90, self_ns: 60, children: 1 });
        assert_eq!(t.agg(OP), Agg { count: 1, total_ns: 200, self_ns: 110, children: 1 });
        // Only the *direct* child is subtracted from the grandparent.
        assert_eq!(t.self_ns_sum_except(OP), 90.0);
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let mut t = Tracer::new(8);
        t.enter_at(POLL_DELIVER, 0);
        t.enter_at(ENV_NEXT_HOP, 5);
        t.exit_at(ENV_NEXT_HOP, 25); // 20
        t.enter_at(ENV_DISTANCE, 30);
        t.exit_at(ENV_DISTANCE, 40); // 10
        t.enter_at(ENV_NEXT_HOP, 50);
        t.exit_at(ENV_NEXT_HOP, 90); // 40
        t.exit_at(POLL_DELIVER, 100);
        assert_eq!(t.agg(POLL_DELIVER), Agg { count: 1, total_ns: 100, self_ns: 30, children: 3 });
        assert_eq!(t.agg(ENV_NEXT_HOP), Agg { count: 2, total_ns: 60, self_ns: 60, children: 0 });
        assert!((t.self_ns_mean(ENV_NEXT_HOP) - 30.0).abs() < 1e-9);

        // With a known tracer cost, it comes off both ways: what each
        // span reports inside itself, and what it adds to its parent.
        t.cost = SpanCost { inside_ns: 4.0, outside_ns: 6.0 };
        assert!((t.self_ns(ENV_NEXT_HOP) - (60.0 - 2.0 * 4.0)).abs() < 1e-9);
        assert!((t.self_ns(POLL_DELIVER) - (30.0 - 4.0 - 3.0 * 6.0)).abs() < 1e-9);

        // Four spans that cost 20 ns more in all than the same work
        // untraced: 5 ns a span, split 2 : 3 as before.
        t.recalibrate(20.0);
        assert!((t.cost().inside_ns - 2.0).abs() < 1e-9);
        assert!((t.cost().outside_ns - 3.0).abs() < 1e-9);
        t.recalibrate(-1.0);
        assert!((t.cost().inside_ns - 2.0).abs() < 1e-9, "a faster traced run changes nothing");
    }

    #[test]
    fn kept_spans_carry_parent_and_op_until_the_limit() {
        let mut t = Tracer::new(2);
        t.set_op(0);
        t.enter_at(OP, 0);
        t.enter_at(PUMP, 1);
        t.exit_at(PUMP, 2);
        t.exit_at(OP, 3);
        t.set_op(1);
        t.enter_at(OP, 4);
        t.exit_at(OP, 5);
        assert_eq!(
            t.kept(),
            &[
                Span { name: OP, op: 0, parent: NO_PARENT, start_ns: 0, end_ns: 3 },
                Span { name: PUMP, op: 0, parent: 0, start_ns: 1, end_ns: 2 },
            ]
        );
        // The op past the limit is still folded into the totals.
        assert_eq!(t.agg(OP).count, 2);
    }

    #[test]
    fn name_table_matches_its_constants() {
        assert_eq!(NAMES[OP as usize], "bench.op");
        assert_eq!(NAMES[ENV_STORE as usize], "store.apply");
        assert_eq!(ENV_STORE as usize, NAMES.len() - 1);
    }
}
