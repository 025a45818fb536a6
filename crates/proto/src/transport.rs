//! Transport abstraction and the deterministic in-memory simulator.
//!
//! [`Transport`] is the machine-facing contract: given a send at some
//! time between two routers, produce zero, one or two timestamped
//! deliveries, returned inline ([`Deliveries`]). [`SimTransport`]
//! implements it over the physical topology's [`DistanceCache`] —
//! per-link latency is the shortest-path weight plus a configured base
//! and seeded jitter — and injects faults (drops, duplication,
//! reordering via jitter, link and partition outages) from a seeded
//! [`Pcg64`], so every run with the same seed and fault schedule
//! produces a byte-identical delivery trace.
//!
//! Every send is counted and the newest [`TRACE_CAPACITY`] of them are
//! kept as [`TraceRecord`] rows in a ring ([`SendTrace`]), so what the
//! trace holds is set by the ring, not by how long the run has been. A
//! row is a flat 64 bytes: the (at most two) arrival times sit inline in
//! [`Arrivals`] rather than behind a per-send heap allocation.
//! [`SimTransport::trace_bytes`] is the canonical serialization; it does
//! not depend on that layout and refuses to digest a trace that has
//! evicted a row.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use bristle_core::time::SimTime;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;

use crate::wire::Envelope;

/// A scheduled delivery: when, at which router, carrying what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time.
    pub at: SimTime,
    /// Router the bytes arrive at: the destination the *sender* chose,
    /// whether or not the host is still there.
    pub to_router: RouterId,
    /// The message.
    pub env: Envelope,
}

/// The deliveries one send causes: none (dropped or blocked), one, or
/// two (duplicated), held inline so a send allocates nothing for them.
/// Read by iterating, in the order the copies were scheduled.
#[derive(Debug, Default)]
pub struct Deliveries {
    /// Filled from the front: a `None` is never followed by a `Some`.
    slots: [Option<Delivery>; 2],
}

// Not `flatten()`: its front and back buffers hold a whole `Delivery`
// each, and the extra copies per send cost `liveness-1e3` 4–7 % of its
// rounds (DESIGN §13). Since the slots fill from the front, stopping at
// the first empty one yields the same deliveries.
impl IntoIterator for Deliveries {
    type Item = Delivery;
    type IntoIter = std::iter::MapWhile<
        std::array::IntoIter<Option<Delivery>, 2>,
        fn(Option<Delivery>) -> Option<Delivery>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().map_while(std::convert::identity)
    }
}

/// The machine-facing transport contract.
pub trait Transport {
    /// Submits `env` from `from` toward `to` at time `now`; returns the
    /// deliveries this causes (empty = dropped, two = duplicated).
    fn send(&mut self, now: SimTime, from: RouterId, to: RouterId, env: Envelope) -> Deliveries;
}

/// Fault-injection knobs, all off by default.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a send is silently dropped.
    pub drop_probability: f64,
    /// Probability a delivered send also arrives a second time.
    pub duplicate_probability: f64,
    /// Base latency added to every link's path weight.
    pub min_latency: u64,
    /// Maximum extra seeded jitter per delivery (inclusive); non-zero
    /// jitter reorders messages that race on different links.
    pub jitter: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { drop_probability: 0.0, duplicate_probability: 0.0, min_latency: 1, jitter: 0 }
    }
}

impl FaultConfig {
    /// A perfect network: every send arrives exactly once.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// A lossy network dropping the given fraction of sends.
    pub fn lossy(drop_probability: f64) -> Self {
        FaultConfig { drop_probability, ..Self::default() }.normalized()
    }

    /// The same configuration with both probabilities clamped into
    /// `[0, 1]` (NaN counts as 0). An out-of-range probability would
    /// otherwise silently skew the fixed per-send draw order; the
    /// transport normalizes every configuration it is handed.
    pub fn normalized(mut self) -> Self {
        self.drop_probability = clamp_probability(self.drop_probability);
        self.duplicate_probability = clamp_probability(self.duplicate_probability);
        self
    }
}

fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// A fail-slow degradation script: the gray-failure counterpart to the
/// binary outages in [`LinkFilter`]. A degraded node or link stays up —
/// traffic still flows — but slower and lossier, which is exactly the
/// regime binary failure detectors handle worst.
///
/// Attached to a node (all its traffic, both directions) or to a
/// directed link (that direction only, for asymmetric degradation) via
/// [`SimTransport::degrade_node`] / [`SimTransport::degrade_link`];
/// applying [`Degradation::none`] lifts one script,
/// [`SimTransport::clear_degradations`] all of them. Extra-loss decisions
/// draw from a side hash stream, never from the transport's main RNG, so
/// the default (undegraded) delivery trace stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Latency multiplier in percent: 100 = unchanged, 300 = 3×.
    pub slowdown_pct: u32,
    /// Extra drop probability applied on top of the configured
    /// [`FaultConfig::drop_probability`].
    pub extra_loss: f64,
}

impl Default for Degradation {
    fn default() -> Self {
        Degradation { slowdown_pct: 100, extra_loss: 0.0 }
    }
}

impl Degradation {
    /// No degradation at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// A pure multiplicative slowdown (`pct` = 100 leaves latency
    /// unchanged; values below 100 are treated as 100 — degradations
    /// never speed a link up).
    pub fn slowdown(pct: u32) -> Self {
        Degradation { slowdown_pct: pct.max(100), ..Self::default() }
    }

    /// Pure extra loss on top of the configured drop probability.
    pub fn lossy(extra_loss: f64) -> Self {
        Degradation { extra_loss: clamp_probability(extra_loss), ..Self::default() }
    }

    /// Whether the script degrades nothing.
    pub fn is_none(&self) -> bool {
        self.slowdown_pct <= 100 && self.extra_loss == 0.0
    }

    /// The pointwise-worst combination of two scripts (a send crossing
    /// a degraded link between two degraded nodes suffers the worst of
    /// each effect, not their product — gray failures overlap, they
    /// don't compound multiplicatively in this model).
    fn combine(a: Degradation, b: Degradation) -> Degradation {
        Degradation {
            slowdown_pct: a.slowdown_pct.max(b.slowdown_pct),
            extra_loss: if a.extra_loss >= b.extra_loss { a.extra_loss } else { b.extra_loss },
        }
    }

    /// Extra latency the script adds to `base`.
    fn added_latency(&self, base: u64) -> u64 {
        base * u64::from(self.slowdown_pct.max(100)) / 100 - base
    }
}

/// The side hash stream degradation loss draws from ([`splitmix64`]),
/// so the main RNG's fixed per-send draw order is untouched.
use crate::mix::splitmix64 as stir;

/// Deterministic link/partition outages consulted before every send.
///
/// All lookups are `O(log n)` sorted-set membership tests — `blocks`
/// runs on the hot path of every send. Two independent rules compose:
/// fully isolated routers, and a group partition that cuts all traffic
/// between routers assigned to different groups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFilter {
    /// Routers partitioned off entirely (no traffic in or out).
    partitioned: BTreeSet<RouterId>,
    /// Disjoint router groups; traffic between different groups is cut.
    /// Routers in no group talk to everyone (subject to the other rules).
    groups: Vec<BTreeSet<RouterId>>,
}

impl LinkFilter {
    /// Cuts `router` off entirely: nothing in, nothing out.
    pub fn isolate(mut self, router: RouterId) -> Self {
        self.partitioned.insert(router);
        self
    }

    /// Partitions the network into the given disjoint groups; all
    /// traffic between routers of different groups is cut. Replaces any
    /// previous group assignment.
    pub fn partition_groups(mut self, groups: &[Vec<RouterId>]) -> Self {
        self.groups = groups.iter().map(|g| g.iter().copied().collect()).collect();
        self
    }

    /// Whether the filter blocks nothing at all.
    pub fn is_empty(&self) -> bool {
        self.partitioned.is_empty() && self.groups.is_empty()
    }

    /// Whether traffic from `a` to `b` is blocked.
    pub fn blocks(&self, a: RouterId, b: RouterId) -> bool {
        self.partitioned.contains(&a) || self.partitioned.contains(&b) || self.cut_by_groups(a, b)
    }

    fn cut_by_groups(&self, a: RouterId, b: RouterId) -> bool {
        let group_of = |r| self.groups.iter().position(|g| g.contains(&r));
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) => ga != gb,
            _ => false,
        }
    }
}

/// What happened to one send, for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Arrived exactly once.
    Delivered,
    /// Silently lost (random drop).
    Dropped,
    /// Arrived twice.
    Duplicated,
    /// Blocked by an outage or partition.
    Blocked,
}

impl Fate {
    fn code(self) -> u8 {
        match self {
            Fate::Delivered => 0,
            Fate::Dropped => 1,
            Fate::Duplicated => 2,
            Fate::Blocked => 3,
        }
    }
}

/// When the copies of one send arrive: none (dropped or blocked), one,
/// or two (duplicated). Stored inline — a heap `Vec` per row would be
/// most of the ring's memory and an allocation per send — and read as a
/// `[SimTime]` through `Deref`.
// Slots past `len` are never written, so the derived comparison of the
// whole array agrees with comparing the slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arrivals {
    at: [SimTime; 2],
    len: u8,
}

impl Arrivals {
    /// Appends one arrival.
    ///
    /// # Panics
    /// Panics on a third: a send has at most a primary and a duplicate.
    fn push(&mut self, at: SimTime) {
        self.at[usize::from(self.len)] = at;
        self.len += 1;
    }
}

impl std::ops::Deref for Arrivals {
    type Target = [SimTime];

    fn deref(&self) -> &[SimTime] {
        &self.at[..usize::from(self.len)]
    }
}

/// One row of the transport's send trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Send order (0-based).
    pub seq: u64,
    /// Submission time.
    pub sent_at: SimTime,
    /// Source router.
    pub from: RouterId,
    /// Destination router.
    pub to: RouterId,
    /// Message tag (see [`crate::wire::WireMessage::tag`]).
    pub tag: u8,
    /// Sender-scoped message id.
    pub msg_id: u64,
    /// Outcome.
    pub fate: Fate,
    /// Every arrival this send caused, in the order the copies were
    /// scheduled: empty when dropped or blocked, one entry when
    /// delivered, two (primary then duplicate) when duplicated.
    pub arrivals: Arrivals,
}

// One cache line, no heap pointer: the ring is `TRACE_CAPACITY` of these.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 64);

/// Rows a [`SendTrace`] retains (256 KiB of 64-byte rows): enough to
/// read back the end of any operation, and several times what the
/// longest in-tree run that digests its whole trace sends.
pub const TRACE_CAPACITY: usize = 4096;

/// The transport's send trace: a count of every send so far and the
/// newest [`TRACE_CAPACITY`] rows.
///
/// The one unusual thing about it: [`len`](Self::len) is the number of
/// sends *ever recorded* — the next row's `seq` — not the number of rows
/// held, so differences of `len()` count sends however long the run.
/// The rows themselves are behind [`rows`](Self::rows) /
/// [`iter`](Self::iter), oldest first, and indexing is by send number.
///
/// ```
/// use std::sync::Arc;
/// use bristle_core::time::SimTime;
/// use bristle_netsim::dijkstra::DistanceCache;
/// use bristle_netsim::graph::{Graph, RouterId};
/// use bristle_overlay::key::Key;
/// use bristle_proto::transport::{FaultConfig, SimTransport, Transport, TRACE_CAPACITY};
/// use bristle_proto::wire::{Envelope, WireMessage};
///
/// let mut g = Graph::with_vertices(2);
/// g.add_edge(RouterId(0), RouterId(1), 3);
/// let dcache = Arc::new(DistanceCache::new(Arc::new(g), 2));
/// let mut t = SimTransport::new(dcache, FaultConfig::perfect(), 7);
/// for id in 0..TRACE_CAPACITY as u64 + 3 {
///     let msg = WireMessage::HopAck { acked: id };
///     let env = Envelope { src: Key(1), dst: Key(2), msg_id: id, trace_id: 0, msg, auth: None };
///     t.send(SimTime(id), RouterId(0), RouterId(1), env);
/// }
/// let trace = t.trace();
/// assert_eq!(trace.len(), TRACE_CAPACITY + 3, "every send is counted");
/// assert_eq!(trace.rows().len(), TRACE_CAPACITY, "the newest rows are kept");
/// assert_eq!(trace.evicted(), 3);
/// assert_eq!(trace.rows()[0].seq, 3, "oldest retained row");
/// assert_eq!(trace[trace.len() - 1].msg_id, TRACE_CAPACITY as u64 + 2, "indexed by send number");
/// ```
#[derive(Debug, Default)]
pub struct SendTrace {
    /// The newest rows, oldest first; `rows[i].seq == evicted() + i`.
    rows: VecDeque<TraceRecord>,
    /// Sends recorded so far.
    sent: usize,
}

impl SendTrace {
    /// Sends recorded so far, evicted rows included.
    pub fn len(&self) -> usize {
        self.sent
    }

    /// Whether nothing has been sent yet.
    pub fn is_empty(&self) -> bool {
        self.sent == 0
    }

    /// Rows dropped from the front of the ring to make room.
    pub fn evicted(&self) -> usize {
        self.sent - self.rows.len()
    }

    /// The retained rows, oldest first.
    pub fn rows(&self) -> &VecDeque<TraceRecord> {
        &self.rows
    }

    /// Iterates the retained rows, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, TraceRecord> {
        self.rows.iter()
    }

    fn push(&mut self, row: TraceRecord) {
        if self.rows.len() == TRACE_CAPACITY {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
        self.sent += 1;
    }
}

impl std::ops::Index<usize> for SendTrace {
    type Output = TraceRecord;

    /// The row of send number `seq`.
    ///
    /// # Panics
    /// Panics if that send has not happened yet or its row has been
    /// evicted.
    fn index(&self, seq: usize) -> &TraceRecord {
        let evicted = self.evicted();
        match seq.checked_sub(evicted).and_then(|i| self.rows.get(i)) {
            Some(row) => row,
            None => {
                panic!("send {seq} is not in the trace ({} sent, {evicted} evicted)", self.sent)
            }
        }
    }
}

/// The deterministic in-memory transport.
pub struct SimTransport {
    dcache: Arc<DistanceCache>,
    faults: FaultConfig,
    filter: LinkFilter,
    rng: Pcg64,
    trace: SendTrace,
    /// Per-node fail-slow scripts; a degraded node affects every send it
    /// originates or receives.
    node_degrade: BTreeMap<RouterId, Degradation>,
    /// Per-directed-link scripts — `(from, to)` only, so loss and
    /// slowdown can be asymmetric.
    link_degrade: BTreeMap<(RouterId, RouterId), Degradation>,
    /// Seed of the side hash stream for extra-loss decisions.
    degrade_salt: u64,
    /// Draws taken from the side stream so far.
    degrade_draws: u64,
}

impl SimTransport {
    /// A transport over `dcache`'s topology with the given faults,
    /// drawing all randomness from `seed`.
    pub fn new(dcache: Arc<DistanceCache>, faults: FaultConfig, seed: u64) -> Self {
        SimTransport {
            dcache,
            faults: faults.normalized(),
            filter: LinkFilter::default(),
            rng: Pcg64::seed_from_u64(seed),
            trace: SendTrace::default(),
            node_degrade: BTreeMap::new(),
            link_degrade: BTreeMap::new(),
            degrade_salt: stir(seed ^ 0xD09E),
            degrade_draws: 0,
        }
    }

    /// Replaces the outage schedule.
    pub fn set_filter(&mut self, filter: LinkFilter) {
        self.filter = filter;
    }

    /// Applies (or replaces) a fail-slow script on `router`; both
    /// directions of all its traffic are affected.
    pub fn degrade_node(&mut self, router: RouterId, d: Degradation) {
        if d.is_none() {
            self.node_degrade.remove(&router);
        } else {
            self.node_degrade.insert(router, d);
        }
    }

    /// Applies (or replaces) a fail-slow script on the directed
    /// `from → to` link; the reverse direction is untouched (asymmetric
    /// degradation).
    pub fn degrade_link(&mut self, from: RouterId, to: RouterId, d: Degradation) {
        if d.is_none() {
            self.link_degrade.remove(&(from, to));
        } else {
            self.link_degrade.insert((from, to), d);
        }
    }

    /// Lifts every fail-slow script at once.
    pub fn clear_degradations(&mut self) {
        self.node_degrade.clear();
        self.link_degrade.clear();
    }

    /// The worst-of combination of the scripts touching a `from → to`
    /// send.
    fn active_degradation(&self, from: RouterId, to: RouterId) -> Option<Degradation> {
        let sources = [
            self.node_degrade.get(&from),
            self.node_degrade.get(&to),
            self.link_degrade.get(&(from, to)),
        ];
        sources.into_iter().flatten().copied().reduce(Degradation::combine)
    }

    /// Current fault configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// The send trace: every send counted, the newest rows retained.
    pub fn trace(&self) -> &SendTrace {
        &self.trace
    }

    /// Serializes the trace into a canonical byte string; two runs are
    /// behaviourally identical iff their trace bytes are equal.
    ///
    /// # Panics
    /// Panics once the run has sent more than [`TRACE_CAPACITY`] frames:
    /// the bytes would cover only the retained suffix, and a digest of
    /// part of a run must never pass for a digest of all of it.
    pub fn trace_bytes(&self) -> Vec<u8> {
        let evicted = self.trace.evicted();
        assert!(
            evicted == 0,
            "trace_bytes: {evicted} of {} rows evicted from the {TRACE_CAPACITY}-row trace; \
             the bytes would not cover the whole run",
            self.trace.len(),
        );
        let mut out = Vec::with_capacity(self.trace.rows.len() * 48);
        for r in &self.trace.rows {
            out.extend_from_slice(&r.seq.to_le_bytes());
            out.extend_from_slice(&r.sent_at.0.to_le_bytes());
            out.extend_from_slice(&r.from.0.to_le_bytes());
            out.extend_from_slice(&r.to.0.to_le_bytes());
            out.push(r.tag);
            out.extend_from_slice(&r.msg_id.to_le_bytes());
            out.push(r.fate.code());
            out.push(r.arrivals.len() as u8);
            for a in r.arrivals.iter() {
                out.extend_from_slice(&a.0.to_le_bytes());
            }
        }
        out
    }
}

impl Transport for SimTransport {
    fn send(&mut self, now: SimTime, from: RouterId, to: RouterId, env: Envelope) -> Deliveries {
        let seq = self.trace.len() as u64;
        let tag = env.msg.tag();
        let msg_id = env.msg_id;
        let mut record = TraceRecord {
            seq,
            sent_at: now,
            from,
            to,
            tag,
            msg_id,
            fate: Fate::Delivered,
            arrivals: Arrivals::default(),
        };

        if self.filter.blocks(from, to) {
            record.fate = Fate::Blocked;
            self.trace.push(record);
            return Deliveries::default();
        }

        // Fixed draw order per send — drop, duplicate, jitter, dup-jitter —
        // so the random stream (and thus the trace) is reproducible even
        // as probabilities vary.
        let dropped = self.rng.chance(self.faults.drop_probability);
        let duplicated = self.rng.chance(self.faults.duplicate_probability);
        let jitter = if self.faults.jitter > 0 {
            self.rng.range_inclusive(0, self.faults.jitter)
        } else {
            0
        };
        let dup_jitter = if self.faults.jitter > 0 {
            self.rng.range_inclusive(0, self.faults.jitter)
        } else {
            0
        };

        if dropped {
            record.fate = Fate::Dropped;
            self.trace.push(record);
            return Deliveries::default();
        }

        // Fail-slow scripts apply after the fixed draws above, and their
        // loss decision comes from the side hash stream: a run with no
        // degradations consumes exactly the same main-RNG draws as
        // before the feature existed, keeping default traces
        // byte-identical.
        let degrade = self.active_degradation(from, to);
        if let Some(script) = degrade {
            if script.extra_loss > 0.0 {
                self.degrade_draws += 1;
                let roll = stir(self.degrade_salt ^ self.degrade_draws);
                let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
                if unit < script.extra_loss {
                    record.fate = Fate::Dropped;
                    self.trace.push(record);
                    return Deliveries::default();
                }
            }
        }

        let link = self.dcache.distance(from, to) + self.faults.min_latency;
        let base = link + degrade.map_or(0, |script| script.added_latency(link));
        let arrival = now.plus(base + jitter);
        record.arrivals.push(arrival);
        // N arrivals cost N−1 clones: the last delivery takes `env` by
        // move, so the common single-arrival case never clones at all.
        let slots = if duplicated {
            record.fate = Fate::Duplicated;
            let dup_arrival = now.plus(base + dup_jitter);
            record.arrivals.push(dup_arrival);
            [
                Some(Delivery { at: arrival, to_router: to, env: env.clone() }),
                Some(Delivery { at: dup_arrival, to_router: to, env }),
            ]
        } else {
            [Some(Delivery { at: arrival, to_router: to, env }), None]
        };
        self.trace.push(record);
        Deliveries { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMessage;
    use bristle_netsim::graph::Graph;
    use bristle_overlay::key::Key;

    fn line_cache(n: usize) -> Arc<DistanceCache> {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(RouterId(i as u32), RouterId(i as u32 + 1), 3);
        }
        Arc::new(DistanceCache::new(Arc::new(g), n))
    }

    fn envelope(id: u64) -> Envelope {
        Envelope {
            src: Key(1),
            dst: Key(2),
            msg_id: id,
            trace_id: 0,
            msg: WireMessage::HopAck { acked: id },
            auth: None,
        }
    }

    /// The deliveries of one send from router `from` to `to` at `now`,
    /// in the order they were scheduled, as a `Vec` to index.
    fn sent(t: &mut SimTransport, now: u64, from: u32, to: u32, env: Envelope) -> Vec<Delivery> {
        t.send(SimTime(now), RouterId(from), RouterId(to), env).into_iter().collect()
    }

    #[test]
    fn perfect_transport_delivers_once_with_link_latency() {
        let mut t = SimTransport::new(line_cache(4), FaultConfig::perfect(), 7);
        let d = sent(&mut t, 10, 0, 3, envelope(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, SimTime(10 + 9 + 1), "3 hops x weight 3 + min latency");
        assert_eq!(d[0].to_router, RouterId(3));
        assert_eq!(t.trace().len(), 1);
        assert_eq!(t.trace()[0].fate, Fate::Delivered);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::lossy(1.0), 7);
        for i in 0..50 {
            assert!(sent(&mut t, i, 0, 2, envelope(i)).is_empty());
        }
        assert!(t.trace().iter().all(|r| r.fate == Fate::Dropped));
    }

    #[test]
    fn same_seed_same_trace_bytes() {
        let faults = FaultConfig {
            drop_probability: 0.3,
            duplicate_probability: 0.2,
            min_latency: 2,
            jitter: 9,
        };
        let runs: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let mut t = SimTransport::new(line_cache(5), faults.clone(), 99);
                for i in 0..200 {
                    t.send(
                        SimTime(i),
                        RouterId((i % 5) as u32),
                        RouterId(((i + 2) % 5) as u32),
                        envelope(i),
                    );
                }
                t.trace_bytes()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "byte-identical replay");
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn different_seed_different_trace() {
        let faults = FaultConfig { drop_probability: 0.5, ..FaultConfig::default() };
        let mut a = SimTransport::new(line_cache(3), faults.clone(), 1);
        let mut b = SimTransport::new(line_cache(3), faults, 2);
        for i in 0..100 {
            a.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
            b.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
        }
        assert_ne!(a.trace_bytes(), b.trace_bytes());
    }

    /// Past the ring the count and `seq` run on and the rows held are
    /// the newest, in send order; at exactly capacity the digest is
    /// still the whole run's.
    #[test]
    fn trace_counts_every_send_and_keeps_the_newest_rows() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::lossy(0.3), 8);
        let send = |t: &mut SimTransport, i: usize| {
            t.send(SimTime(i as u64), RouterId(0), RouterId(2), envelope(i as u64));
        };
        (0..TRACE_CAPACITY).for_each(|i| send(&mut t, i));
        assert_eq!((t.trace().len(), t.trace().evicted()), (TRACE_CAPACITY, 0));
        let whole = t.trace_bytes();
        assert!(whole.len() >= TRACE_CAPACITY * 35, "every row serialised");

        (TRACE_CAPACITY..2 * TRACE_CAPACITY + 5).for_each(|i| send(&mut t, i));
        let trace = t.trace();
        assert_eq!(trace.len(), 2 * TRACE_CAPACITY + 5);
        assert_eq!(trace.rows().len(), TRACE_CAPACITY);
        assert_eq!(trace.evicted(), TRACE_CAPACITY + 5);
        for (i, row) in trace.iter().enumerate() {
            let seq = trace.evicted() + i;
            assert_eq!(
                (row.seq, row.msg_id, row.sent_at),
                (seq as u64, seq as u64, SimTime(seq as u64))
            );
            assert_eq!(trace[seq], *row);
        }
    }

    #[test]
    #[should_panic(expected = "1 of 4097 rows evicted")]
    fn trace_bytes_refuses_after_the_first_eviction() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::perfect(), 8);
        for i in 0..=TRACE_CAPACITY as u64 {
            t.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
        }
        t.trace_bytes();
    }

    #[test]
    fn duplication_delivers_twice() {
        let faults = FaultConfig { duplicate_probability: 1.0, ..FaultConfig::default() };
        let mut t = SimTransport::new(line_cache(3), faults, 3);
        let d = sent(&mut t, 0, 0, 1, envelope(0));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].env, d[1].env);
        assert_eq!(t.trace()[0].fate, Fate::Duplicated);
    }

    #[test]
    fn single_delivery_carries_the_sent_envelope_unchanged() {
        // The single-arrival path moves the envelope instead of cloning;
        // the delivered bytes must still be exactly what was sent.
        let mut t = SimTransport::new(line_cache(3), FaultConfig::perfect(), 3);
        let frame = envelope(77);
        let d = sent(&mut t, 0, 0, 1, frame.clone());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].env, frame);
    }

    #[test]
    fn duplicated_send_records_both_arrivals() {
        let faults =
            FaultConfig { duplicate_probability: 1.0, jitter: 30, ..FaultConfig::default() };
        let mut t = SimTransport::new(line_cache(3), faults, 3);
        for i in 0..20 {
            let d = sent(&mut t, i * 100, 0, 1, envelope(i));
            let rec = &t.trace()[i as usize];
            assert_eq!(rec.arrivals.len(), 2, "both copies' arrivals are recorded");
            assert_eq!(*rec.arrivals, [d[0].at, d[1].at]);
        }
        // The trace bytes must distinguish the two copies' timings: a
        // run whose duplicates arrive at recorded times differs from one
        // where the second arrival were lost to the trace.
        assert!(t.trace().iter().any(|r| r.arrivals[0] != r.arrivals[1]));
    }

    #[test]
    fn out_of_range_probabilities_are_clamped() {
        let wild = FaultConfig {
            drop_probability: 7.5,
            duplicate_probability: -2.0,
            ..FaultConfig::default()
        };
        let norm = wild.clone().normalized();
        assert_eq!(norm.drop_probability, 1.0);
        assert_eq!(norm.duplicate_probability, 0.0);
        assert_eq!(FaultConfig::lossy(f64::NAN).drop_probability, 0.0);

        // The transport normalizes on construction: a >1.0 drop rate
        // behaves exactly like 1.0 (same seed, same draws, same trace).
        let mut a = SimTransport::new(line_cache(3), wild, 9);
        let mut b = SimTransport::new(line_cache(3), FaultConfig::lossy(1.0), 9);
        for i in 0..50 {
            a.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
            b.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
        }
        assert_eq!(a.trace_bytes(), b.trace_bytes());
        assert!(a.trace().iter().all(|r| r.fate == Fate::Dropped));
    }

    #[test]
    fn jitter_reorders_racing_sends() {
        let faults = FaultConfig { jitter: 50, ..FaultConfig::default() };
        let mut t = SimTransport::new(line_cache(3), faults, 11);
        // Submit many racing pairs; with jitter up to 50 on a 3-weight
        // link some later send must overtake an earlier one.
        let mut arrivals = Vec::new();
        for i in 0..40 {
            let d = sent(&mut t, i, 0, 1, envelope(i));
            arrivals.push(d[0].at);
        }
        assert!(
            arrivals.windows(2).any(|w| w[1] < w[0]),
            "some pair must arrive out of submission order: {arrivals:?}"
        );
    }

    #[test]
    fn isolated_routers_stop_traffic() {
        let mut t = SimTransport::new(line_cache(4), FaultConfig::perfect(), 5);
        t.set_filter(LinkFilter::default().isolate(RouterId(2)));
        assert!(sent(&mut t, 0, 1, 2, envelope(0)).is_empty(), "partitioned in");
        assert!(sent(&mut t, 0, 2, 1, envelope(1)).is_empty(), "partitioned out");
        assert_eq!(sent(&mut t, 0, 0, 3, envelope(2)).len(), 1, "others flow");
        assert!(t.trace().iter().take(2).all(|r| r.fate == Fate::Blocked));
    }

    #[test]
    fn outage_lift_restores_traffic_deterministically() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::perfect(), 5);
        t.set_filter(LinkFilter::default().isolate(RouterId(1)));
        assert!(sent(&mut t, 0, 0, 1, envelope(0)).is_empty());
        t.set_filter(LinkFilter::default());
        assert_eq!(sent(&mut t, 1, 0, 1, envelope(1)).len(), 1);
    }

    #[test]
    fn degraded_node_slows_its_traffic_only() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::perfect(), 5);
        t.degrade_node(RouterId(1), Degradation::slowdown(300));
        // 0 → 1: base 3 + 1, tripled by the slowdown.
        let d = sent(&mut t, 0, 0, 1, envelope(0));
        assert_eq!(d[0].at, SimTime(12), "3× the base 4-tick latency");
        // 0 → 2 transits router 1 physically, but degradation models the
        // *endpoint* failing slow, so pass-through traffic is untouched.
        let d = sent(&mut t, 0, 0, 2, envelope(1));
        assert_eq!(d[0].at, SimTime(7), "6 + min latency, undegraded");
        t.degrade_node(RouterId(1), Degradation::none());
        let d = sent(&mut t, 10, 0, 1, envelope(2));
        assert_eq!(d[0].at, SimTime(14), "healed back to base latency");
    }

    #[test]
    fn asymmetric_link_loss_drops_one_direction_only() {
        let mut t = SimTransport::new(line_cache(3), FaultConfig::perfect(), 5);
        t.degrade_link(RouterId(0), RouterId(1), Degradation::lossy(1.0));
        assert!(sent(&mut t, 0, 0, 1, envelope(0)).is_empty());
        assert_eq!(t.trace()[0].fate, Fate::Dropped);
        assert_eq!(
            sent(&mut t, 0, 1, 0, envelope(1)).len(),
            1,
            "the reverse direction stays healthy"
        );
    }

    #[test]
    fn degradation_loss_never_disturbs_the_main_rng() {
        // Two identically seeded lossy transports; one also has a
        // degraded (extra-lossy) node. Sends not touching that node
        // must have byte-identical outcomes, because degradation loss
        // draws from a side hash stream, not the main RNG.
        let faults = FaultConfig {
            drop_probability: 0.3,
            duplicate_probability: 0.1,
            jitter: 9,
            ..FaultConfig::default()
        };
        let mut clean = SimTransport::new(line_cache(3), faults.clone(), 99);
        let mut degraded = SimTransport::new(line_cache(3), faults, 99);
        degraded.degrade_node(RouterId(1), Degradation::lossy(0.5));
        for i in 0..100 {
            clean.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
            degraded.send(SimTime(i), RouterId(0), RouterId(2), envelope(i));
            clean.send(SimTime(i), RouterId(0), RouterId(1), envelope(1000 + i));
            degraded.send(SimTime(i), RouterId(0), RouterId(1), envelope(1000 + i));
        }
        let bystanders = |t: &SimTransport| {
            t.trace().iter().filter(|r| r.to == RouterId(2)).cloned().collect::<Vec<_>>()
        };
        let (a, b) = (bystanders(&clean), bystanders(&degraded));
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.fate, &x.arrivals), (y.fate, &y.arrivals), "bystander send diverged");
        }
        // And the degraded node really did lose extra traffic.
        let losses = |t: &SimTransport| {
            t.trace().iter().filter(|r| r.to == RouterId(1) && r.fate == Fate::Dropped).count()
        };
        assert!(losses(&degraded) > losses(&clean), "extra loss applied");
    }

    #[test]
    fn group_partition_cuts_cross_group_traffic_only() {
        let mut t = SimTransport::new(line_cache(4), FaultConfig::perfect(), 5);
        let filter = LinkFilter::default()
            .partition_groups(&[vec![RouterId(0), RouterId(1)], vec![RouterId(2), RouterId(3)]]);
        assert!(!filter.is_empty());
        t.set_filter(filter);
        assert!(sent(&mut t, 0, 1, 2, envelope(0)).is_empty());
        assert!(sent(&mut t, 0, 3, 0, envelope(1)).is_empty());
        assert_eq!(sent(&mut t, 0, 0, 1, envelope(2)).len(), 1);
        assert_eq!(sent(&mut t, 0, 2, 3, envelope(3)).len(), 1);
    }
}
