//! Observability primitives: a registry of a run's telemetry series,
//! latency histograms, structured protocol events, and a bounded flight
//! recorder.
//!
//! Everything here measures *virtual* time — the `u64` tick counts the
//! simulation clocks hand out — so identical seeds produce identical
//! histograms and identical event sequences on any machine. The pieces:
//!
//! * [`Registry`] — every series a run keeps, declared once: the
//!   [`Counter`]s, [`Hist`]ograms and [`Gauge`]s, each a slot of a fixed
//!   array indexed by its discriminant.
//! * [`Histogram`] — fixed-size log₂-bucketed latency histogram with
//!   [`Snapshot`] (count / p50 / p99 / max) summaries.
//! * [`ObsEvent`] / [`ObsEventKind`] — structured protocol events (send,
//!   ack, timeout, suspect, refute, route and discovery milestones), each
//!   stamped with a causal `trace` id so one logical operation and all the
//!   traffic it triggers correlate.
//! * [`FlightRecorder`] — a bounded ring buffer of the most recent events,
//!   for post-mortem inspection of failed operations.

use crate::key::Key;

/// Declares the run's telemetry series: one enum per kind of series
/// (counter, histogram, gauge), each variant one series with the name
/// reports give it, plus `ALL` in declaration order. As with
/// `message_kinds!`, the list is the single source of truth — a series
/// added here is the whole change — and a variant's discriminant is its
/// slot in the [`Registry`]'s array for its kind.
macro_rules! series {
    ($(
        $(#[$kind_doc:meta])*
        $kind:ident {
            $( $(#[$doc:meta])* $name:ident = $label:literal, )+
        }
    )+) => {$(
        $(#[$kind_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $( $(#[$doc])* $name, )+
        }

        impl $kind {
            /// Every series of this kind, in declaration (report) order.
            pub const ALL: [$kind; [$($kind::$name),+].len()] = [$($kind::$name),+];

            /// The series' name in reports.
            pub const fn name(self) -> &'static str {
                match self {
                    $( $kind::$name => $label, )+
                }
            }
        }
    )+};
}

series! {
    /// Monotone counts no meter kind holds. Both drivers write
    /// `frames_sent`, the machines' events the next two; the seven after
    /// those are the socket boundary's.
    Counter {
        /// Monitor seedings that rebuilt the wanted heartbeat edges; the
        /// rest found every input where the last seeding left it.
        Reseeds = "reseeds",
        /// Frames handed to the carrier: the sim transport's sends, the
        /// socket driver's `send_to`s. Acks included, which no meter
        /// kind counts.
        FramesSent = "frames_sent",
        /// [`ObsEventKind::StaleReject`]s, plus sends to a host no
        /// socket is bound for.
        StaleBlackholed = "stale_blackholed",
        /// [`ObsEventKind::OracleForward`]s.
        OracleForwards = "oracle_forwards",
        /// Datagrams read off a socket, dropped ones included.
        DatagramsReceived = "datagrams_received",
        /// Datagrams dropped for exceeding the frame cap, at send or at
        /// receive.
        DroppedOversized = "dropped_oversized",
        /// Datagrams dropped for failing to decode, or for naming a
        /// destination their socket does not host.
        DroppedGarbage = "dropped_garbage",
        /// Times the clock fast-forwarded a quiet network to the next
        /// timer deadline.
        FastForwards = "fast_forwards",
        /// Every `recv_from` issued, `WouldBlock`s included: what reading
        /// cost, against `datagrams_received`, what it found.
        RecvCalls = "recv_calls",
        /// Pumps that read every socket because nothing was owed.
        Sweeps = "sweeps",
        /// Owed datagrams given up on: sent to a bound socket, still
        /// unread when a grace window expired.
        WrittenOff = "written_off",
    }
    /// Latency distributions on the driver's micro-clock, in the order
    /// `bristle-run-report/v1` lists them.
    Hist {
        /// Route start → delivery at the target's owner.
        Route = "route",
        /// `_discovery` session start → resolution (or abandonment).
        Discovery = "discovery",
        /// Update-dissemination start → every edge settled.
        Dissemination = "dissemination",
        /// The earliest suspicion still standing at a death verdict →
        /// the verdict.
        Detection = "detection",
        /// Wrongful burial → funeral reversed.
        Rejoin = "rejoin",
    }
    /// Levels read when a snapshot is taken.
    Gauge {
        /// `(src, msg_id)` entries held by every machine's dedup window.
        Seen = "seen",
    }
}

/// Every series of a run, each in a fixed array slot indexed by its
/// discriminant: recording a value hashes, allocates and formats
/// nothing, and a snapshot is a `Clone`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Registry {
    counters: [u64; Counter::ALL.len()],
    histograms: [Histogram; Hist::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
}

impl Registry {
    /// Adds `n` to a counter.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// A counter's total.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Records one observation of `value` ticks in a histogram.
    pub fn record(&mut self, hist: Hist, value: u64) {
        self.histograms[hist as usize].record(value);
    }

    /// A histogram as recorded so far.
    pub fn histogram(&self, hist: Hist) -> &Histogram {
        &self.histograms[hist as usize]
    }

    /// Sets a gauge's level.
    pub fn set(&mut self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize] = value;
    }

    /// A gauge's level when it was last set.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }
}

/// Number of histogram buckets: one for value 0, one per power of two up
/// to and including the bucket that holds `u64::MAX`.
const BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram over virtual-time tick values.
///
/// Bucket 0 holds exactly the value 0; bucket *i* ≥ 1 holds the values in
/// `[2^(i−1), 2^i)`, so every `u64` lands in one of 65 buckets. Quantiles
/// are answered as the *upper bound* of the bucket where the cumulative
/// count crosses the requested rank (the exact maximum is tracked
/// separately and returned whenever the rank falls in the top non-empty
/// bucket), which bounds the relative error by 2× — plenty for the
/// order-of-magnitude latency claims the experiments make.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, max: 0 }
    }
}

/// Index of the bucket holding `value` (0 → 0, else 64 − leading zeros).
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i − 1`, saturating at the top).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation of `value` ticks.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at the `num/den` quantile (e.g. 1/2 for p50, 99/100 for
    /// p99): the upper bound of the bucket where the cumulative count
    /// reaches the rank, or the exact maximum if that is the last
    /// non-empty bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Rank of the requested quantile, 1-based, rounded up.
        let rank = (self.count * num).div_ceil(den);
        let rank = rank.max(1);
        let top = (0..BUCKETS).rfind(|&i| self.buckets[i] > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == top { self.max } else { bucket_upper(i) };
            }
        }
        self.max
    }

    /// Summarizes the histogram as count / p50 / p99 / max.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count,
            p50: self.quantile(1, 2),
            p99: self.quantile(99, 100),
            max: self.max,
        }
    }
}

/// Point-in-time summary of a [`Histogram`]: count / p50 / p99 / max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Number of observations.
    pub count: u64,
    /// Median latency (bucket upper bound, exact max in the top bucket).
    pub p50: u64,
    /// 99th-percentile latency (same bucket semantics).
    pub p99: u64,
    /// Exact maximum observed latency.
    pub max: u64,
}

/// A structured protocol event, stamped with virtual time and a causal
/// trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Virtual time (ticks) when the event happened.
    pub at: u64,
    /// Causal trace id linking this event to the operation that caused it
    /// (0 = background traffic with no originating operation).
    pub trace: u64,
    /// The node the event happened on.
    pub node: Key,
    /// What happened.
    pub kind: ObsEventKind,
}

/// The kinds of structured events protocol machines emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A wire frame was handed to the transport.
    Send {
        /// Destination key.
        to: Key,
        /// Wire-message tag name (static, from the codec).
        tag: &'static str,
        /// The frame's message id.
        msg_id: u64,
    },
    /// An expected acknowledgement arrived.
    Ack {
        /// The acknowledging peer.
        from: Key,
        /// The message id being acknowledged.
        msg_id: u64,
    },
    /// A retry/acknowledgement timer expired without the awaited reply.
    Timeout {
        /// What timed out (static timer kind name).
        what: &'static str,
        /// Retry attempt number that just failed (1-based).
        attempt: u32,
    },
    /// The local failure detector moved a peer into suspicion.
    Suspect {
        /// The suspected peer.
        peer: Key,
        /// The incarnation the suspicion is against.
        incarnation: u64,
    },
    /// A node refuted its own rumored death with a fresher incarnation.
    Refute {
        /// The refuting (fresher) incarnation.
        incarnation: u64,
    },
    /// A route reached its target.
    RouteDelivered {
        /// The route id (origin's message id for the route).
        route_id: u64,
    },
    /// A route was abandoned after exhausting retries.
    RouteFailed {
        /// The route id.
        route_id: u64,
    },
    /// An address-resolution (`_discovery`) session started.
    DiscoveryStart {
        /// The subject whose address is being resolved.
        subject: Key,
    },
    /// A `_discovery` session resolved the subject's address.
    DiscoveryResolved {
        /// The resolved subject.
        subject: Key,
        /// Virtual-time ticks from session start to resolution.
        elapsed: u64,
    },
    /// A `_discovery` session gave up without an address.
    DiscoveryFailed {
        /// The unresolved subject.
        subject: Key,
        /// Virtual-time ticks from session start to abandonment.
        elapsed: u64,
    },
    /// A received frame failed authentication (forged, replayed, or
    /// unsigned where a signature was required).
    AuthReject {
        /// The envelope's claimed sender.
        from: Key,
        /// Wire-message tag name of the rejected frame.
        tag: &'static str,
        /// Why verification failed (static reason name).
        reason: &'static str,
        /// Whether the frame was dropped (enforce) or merely logged.
        dropped: bool,
    },
    /// A received frame was sent to an address its destination no
    /// longer holds: it died at the old attachment.
    StaleReject {
        /// The envelope's claimed sender.
        from: Key,
        /// Wire-message tag name of the rejected frame.
        tag: &'static str,
        /// The frame's message id.
        msg_id: u64,
    },
    /// A hop waiting on a failed `_discovery` was sent to the subject's
    /// true address anyway, which no node can know.
    OracleForward {
        /// The subject the discovery failed to resolve.
        subject: Key,
    },
}

/// The kind and its fields as one stable line — what the golden trace
/// pins and the conformance profile compares: `send to=… tag=… msg_id=…`.
/// The discovery milestones end in ` elapsed=…`, the one field that is
/// clock-dependent.
impl std::fmt::Display for ObsEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ObsEventKind::Send { to, tag, msg_id } => {
                write!(f, "send to={to} tag={tag} msg_id={msg_id}")
            }
            ObsEventKind::Ack { from, msg_id } => write!(f, "ack from={from} msg_id={msg_id}"),
            ObsEventKind::Timeout { what, attempt } => {
                write!(f, "timeout what={what} attempt={attempt}")
            }
            ObsEventKind::Suspect { peer, incarnation } => {
                write!(f, "suspect peer={peer} incarnation={incarnation}")
            }
            ObsEventKind::Refute { incarnation } => write!(f, "refute incarnation={incarnation}"),
            ObsEventKind::RouteDelivered { route_id } => {
                write!(f, "route_delivered route_id={route_id}")
            }
            ObsEventKind::RouteFailed { route_id } => write!(f, "route_failed route_id={route_id}"),
            ObsEventKind::DiscoveryStart { subject } => {
                write!(f, "discovery_start subject={subject}")
            }
            ObsEventKind::DiscoveryResolved { subject, elapsed } => {
                write!(f, "discovery_resolved subject={subject} elapsed={elapsed}")
            }
            ObsEventKind::DiscoveryFailed { subject, elapsed } => {
                write!(f, "discovery_failed subject={subject} elapsed={elapsed}")
            }
            ObsEventKind::AuthReject { from, tag, reason, dropped } => {
                write!(f, "auth_reject from={from} tag={tag} reason={reason} dropped={dropped}")
            }
            ObsEventKind::StaleReject { from, tag, msg_id } => {
                write!(f, "stale_reject from={from} tag={tag} msg_id={msg_id}")
            }
            ObsEventKind::OracleForward { subject } => {
                write!(f, "oracle_forward subject={subject}")
            }
        }
    }
}

/// A bounded ring buffer of the most recent [`ObsEvent`]s.
///
/// When full, the oldest event is overwritten and `dropped` counts how
/// many were lost — post-mortems see the *end* of the story, which is the
/// part that explains a failure.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<ObsEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (capacity ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity >= 1");
        FlightRecorder {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// How many events were overwritten because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Accepts one event, overwriting the oldest when full.
    pub fn record(&mut self, event: ObsEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // 0 is its own bucket; 1 starts bucket 1; each power of two opens
        // a new bucket; u64::MAX lands in the last one.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for i in 1..64 {
            let p = 1u64 << i;
            assert_eq!(bucket_of(p - 1), i, "below 2^{i}");
            assert_eq!(bucket_of(p), i + 1, "at 2^{i}");
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot(), Snapshot { count: 0, p50: 0, p99: 0, max: 0 });
    }

    #[test]
    fn single_value_snapshot_is_exact() {
        let mut h = Histogram::default();
        h.record(37);
        let s = h.snapshot();
        // 37 is alone in the top non-empty bucket, so quantiles are exact.
        assert_eq!(s, Snapshot { count: 1, p50: 37, p99: 37, max: 37 });
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, u64::MAX);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn quantiles_use_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for v in [3, 3, 3, 3, 3, 3, 3, 3, 3, 200] {
            h.record(v);
        }
        // p50 rank 5 falls in bucket [2,4) → upper bound 3 (exact here).
        assert_eq!(h.quantile(1, 2), 3);
        // p99 rank 10 falls in the top bucket → exact max.
        assert_eq!(h.quantile(99, 100), 200);
        assert_eq!(h.max(), 200);
    }

    #[test]
    fn powers_of_two_separate() {
        let mut h = Histogram::default();
        h.record(4); // bucket [4,8)
        h.record(7); // same bucket
        h.record(8); // next bucket
        assert_eq!(h.count(), 3);
        // Median (rank 2) in bucket [4,8) → upper bound 7.
        assert_eq!(h.quantile(1, 2), 7);
        assert_eq!(h.max(), 8);
    }

    /// A report finds a series by its name, so no two share one; and the
    /// histograms are listed in the order v1 reports render them.
    #[test]
    fn series_names_are_unique_and_histograms_keep_report_order() {
        let names: Vec<&str> = (Counter::ALL.iter().map(|c| c.name()))
            .chain(Hist::ALL.iter().map(|h| h.name()))
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        let v1 = ["route", "discovery", "dissemination", "detection", "rejoin"];
        assert!(Hist::ALL.iter().map(|h| h.name()).eq(v1));
    }

    /// A snapshot is a value: what is recorded after it was taken does
    /// not reach it.
    #[test]
    fn a_snapshot_does_not_change_when_later_values_are_recorded() {
        let mut live = Registry::default();
        live.add(Counter::Reseeds, 2);
        live.record(Hist::Route, 37);
        live.set(Gauge::Seen, 5);
        let snapshot = live.clone();
        live.add(Counter::Reseeds, 1);
        for h in Hist::ALL {
            live.record(h, 1_000);
        }
        live.set(Gauge::Seen, 9);
        assert_eq!(snapshot.counter(Counter::Reseeds), 2);
        assert_eq!(
            snapshot.histogram(Hist::Route).snapshot(),
            Snapshot { count: 1, p50: 37, p99: 37, max: 37 }
        );
        assert!(Hist::ALL[1..].iter().all(|&h| snapshot.histogram(h).count() == 0));
        assert_eq!(snapshot.gauge(Gauge::Seen), 5);
        assert_eq!(
            (
                live.counter(Counter::Reseeds),
                live.histogram(Hist::Route).count(),
                live.gauge(Gauge::Seen)
            ),
            (3, 2, 9)
        );
    }

    #[test]
    fn flight_recorder_keeps_latest_and_counts_dropped() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(ObsEvent {
                at: i,
                trace: 7,
                node: Key(1),
                kind: ObsEventKind::RouteDelivered { route_id: i },
            });
        }
        assert_eq!(fr.dropped(), 2);
        let at: Vec<u64> = fr.events().iter().map(|e| e.at).collect();
        assert_eq!(at, vec![2, 3, 4]);
    }
}
