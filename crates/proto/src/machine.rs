//! Sans-I/O per-node protocol state machines.
//!
//! A [`ProtoMachine`] holds one node's protocol state and is driven
//! entirely from outside: `poll(now, event, env)` consumes a delivered
//! envelope or an expired timer and returns an [`Output`] — messages to
//! send, timers to arm, operations that completed. The machine never
//! reads a clock, never touches a socket, and never sleeps; timeouts,
//! bounded retries and exponential backoff are expressed as data, so the
//! same machine runs under the deterministic simulator today and could
//! run on real sockets unchanged.
//!
//! Shared-system knowledge (routing tables, addresses, leases, the
//! meter) is reached through the [`NodeEnv`] trait, which the driver
//! implements over `BristleSystem`. Metering happens at *send* time so
//! that with a perfect transport the message tallies match the
//! function-call path in `bristle-core` exactly; acks and the probe-miss
//! notice are unmetered control traffic that only exists because a
//! message, unlike a function call, can fail to return.
//!
//! Everything that leaves a machine goes through one send path. One
//! frame builder allocates the `msg_id`, meters the cost and seals the
//! frame; one table, keyed by that `msg_id`, holds every frame awaiting
//! an ack — a route hop (paper Fig. 2), an LDT `Update` to a child
//! (§2.3.1, Fig. 4), a `Register` at a mobile target — because the
//! three are one exchange: send, await the ack, retransmit with
//! backoff, give up after `max_attempts`. A session records what it
//! carries only for the three things that differ (what a
//! retransmission meters, which timer re-arms it, what exhaustion
//! means) and is closed only by its own kind of ack from the peer the
//! frame went to. Discoveries keep their own table: their ids come from
//! a different counter, one that travels on the wire.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use bristle_core::auth::{AuthDomain, AuthError, VerifyPolicy};
use bristle_core::time::SimTime;
use bristle_netsim::graph::RouterId;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{ObsEvent, ObsEventKind};

use crate::failure::{
    FailureDetector, FailurePolicy, Liveness, LivenessTransition, TimeoutVerdict,
};
use crate::rto::{RtoConfig, RtoEstimator};
use crate::seen::{self, SeenSet};
use crate::wire::{Envelope, WireAddr, WireMessage};

/// Largest wait any backed-off timer may reach. Far above every sane
/// schedule (2³² ticks), yet small enough that `base << attempt` can
/// never overflow into a zero or absurd wait.
const MAX_BACKOFF: u64 = 1 << 32;

/// A restarted machine's frame ids begin at `incarnation << LIFE_SHIFT`
/// (see [`ProtoMachine::restore_incarnation`]).
const LIFE_SHIFT: u32 = 32;

/// Exponential backoff `base << attempt`, saturating and clamped to
/// [`MAX_BACKOFF`] so deep retry chains and adversarial attempt counts
/// cannot shift the wait past any sane bound (or overflow `u64`).
fn backoff(base: u64, attempt: u32) -> u64 {
    match 1u64.checked_shl(attempt) {
        Some(factor) => base.saturating_mul(factor).min(MAX_BACKOFF),
        None => MAX_BACKOFF,
    }
}

/// How a node retries unacknowledged sends.
///
/// Hop forwards, updates and registrations await an ack for
/// `ack_timeout` ticks; discoveries are retried end-to-end after
/// `discovery_timeout`. Both back off exponentially: attempt `k` waits
/// `timeout << k`. After `max_attempts` sends the operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks to wait for a HopAck / UpdateAck / RegisterAck.
    pub ack_timeout: u64,
    /// Ticks to wait for a DiscoveryReply before re-issuing.
    pub discovery_timeout: u64,
    /// Total send attempts (first try included) before giving up.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Generous relative to simulated link latencies so a loss-free
        // transport never triggers a spurious (parity-breaking) retry.
        RetryPolicy { ack_timeout: 20_000, discovery_timeout: 100_000, max_attempts: 4 }
    }
}

/// Timer payloads. Stale timers (whose session has already completed)
/// are ignored on expiry, so timers never need cancelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmit an unacked mobile-layer hop.
    HopRetry {
        /// `msg_id` of the awaited HopAck.
        msg_id: u64,
    },
    /// Re-issue an unanswered discovery.
    DiscoveryRetry {
        /// The discovery session to retry.
        session: u64,
    },
    /// Retransmit an unacked LDT update edge.
    UpdateRetry {
        /// `msg_id` of the awaited UpdateAck.
        msg_id: u64,
    },
    /// Retransmit an unacked registration.
    RegisterRetry {
        /// `msg_id` of the awaited RegisterAck.
        msg_id: u64,
    },
    /// A heartbeat probe's ack window elapsed.
    HeartbeatTimeout {
        /// The monitored peer being probed.
        peer: Key,
        /// The probe sequence number awaited.
        seq: u64,
    },
}

/// A timer the driver must arm for this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Absolute expiry time.
    pub at: SimTime,
    /// What to do when it fires.
    pub kind: TimerKind,
}

/// An input to [`ProtoMachine::poll`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A message arrived from the transport.
    Deliver(Envelope),
    /// A previously armed timer expired.
    Timer(TimerKind),
}

/// One message to hand to the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Where the sender believes the destination is attached.
    pub to_addr: WireAddr,
    /// The addressed message.
    pub env: Envelope,
}

/// A protocol operation that finished (well or badly) at this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// A route reached the node owning its target key (emitted by the
    /// terminus).
    Delivered {
        /// The route's originator.
        origin: Key,
        /// Originator-scoped route id.
        route_id: u64,
    },
    /// A hop exhausted its retries with no fallback left.
    RouteFailed {
        /// The route's originator.
        origin: Key,
        /// Originator-scoped route id.
        route_id: u64,
        /// The node at which forwarding gave up.
        at: Key,
    },
    /// A discovery resolved its subject's address.
    Resolved {
        /// The subject that was resolved.
        subject: Key,
    },
    /// A discovery gave up (no replica had a record, or every attempt
    /// timed out).
    ResolutionFailed {
        /// The subject that could not be resolved.
        subject: Key,
    },
    /// An LDT update edge was acknowledged.
    UpdateAcked {
        /// The tree member that acked.
        child: Key,
    },
    /// An LDT update edge exhausted its retries.
    UpdateFailed {
        /// The unreachable tree member.
        child: Key,
    },
    /// A registration was acknowledged (lease granted).
    Registered {
        /// The mobile node registered with.
        target: Key,
    },
    /// A registration exhausted its retries.
    RegisterFailed {
        /// The unreachable target.
        target: Key,
    },
    /// A monitored peer missed enough heartbeat rounds to be suspected.
    PeerSuspected {
        /// The suspect.
        peer: Key,
    },
    /// A monitored peer was confirmed crashed, either by this node's
    /// own detector or via a third-party SuspectNotify.
    PeerDead {
        /// The confirmed-dead peer.
        peer: Key,
    },
    /// A standing suspicion or death verdict against `peer` was
    /// overturned by evidence of a fresher incarnation.
    PeerRefuted {
        /// The peer whose verdict was overturned.
        peer: Key,
        /// The fresher incarnation that overturned it.
        incarnation: u64,
        /// Whether the overturned verdict was a death (a wrongful death)
        /// rather than mere suspicion.
        was_dead: bool,
    },
    /// This node learned it was suspected or declared dead, bumped its
    /// own incarnation past the verdict, and answered with an `Alive`
    /// refutation.
    SelfRefuted {
        /// The node that delivered the accusation.
        accuser: Key,
        /// This node's incarnation after the bump.
        incarnation: u64,
    },
    /// A wrongfully-buried peer asked this node to reverse its funeral.
    RejoinRequested {
        /// The peer asking to rejoin.
        peer: Key,
        /// The incarnation it rejoins at.
        incarnation: u64,
    },
    /// A sponsor acknowledged this node's rejoin request.
    RejoinCompleted {
        /// The sponsor that honored the rejoin.
        sponsor: Key,
    },
}

/// Everything a `poll` call asked the outside world to do.
#[derive(Debug, Default)]
pub struct Output {
    /// Messages to hand to the transport, in send order.
    pub outgoing: Vec<Outgoing>,
    /// Timers to arm.
    pub timers: Vec<Timer>,
    /// Operations that completed during this poll.
    pub completions: Vec<Completion>,
}

impl Output {
    /// An output that does nothing.
    pub fn none() -> Output {
        Output::default()
    }
}

/// The machine's window onto shared system state.
///
/// Every method is a *query* or a *commit* the paper's protocols would
/// perform against local state plus configuration knowledge (routing
/// tables, the replica rule, the distance oracle used for metering).
pub trait NodeEnv {
    /// Mobile-layer next hop from `cur` toward `target` (`None` = owner).
    fn next_hop_mobile(&self, cur: Key, target: Key) -> Option<Key>;
    /// Stationary-layer next hop from `cur` toward `target`.
    fn next_hop_stationary(&self, cur: Key, target: Key) -> Option<Key>;
    /// Whether `key` names a mobile node.
    fn is_mobile(&self, key: Key) -> bool;
    /// The stationary entry point `from` injects discoveries through.
    fn entry_stationary(&self, from: Key) -> Key;
    /// Location replica set for `subject`, owner first.
    fn replicas(&self, subject: Key) -> Vec<Key>;
    /// `key`'s true current address (stationary nodes never move; for
    /// mobile nodes this models out-of-band convergence after a failed
    /// resolution, mirroring the function-call path).
    fn current_addr(&self, key: Key) -> WireAddr;
    /// Whether `addr` still reaches its host.
    fn addr_current(&self, addr: WireAddr) -> bool;
    /// `holder`'s cached **and lease-fresh** address for `subject`.
    fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr>;
    /// The location record `holder` (stationary) stores for `subject`.
    fn location_record(&self, holder: Key, subject: Key) -> Option<WireAddr>;
    /// Shortest-path distance between two routers (the metered cost).
    fn distance(&self, a: RouterId, b: RouterId) -> u64;
    /// Records one sent message of `kind` with physical cost `cost`.
    fn meter(&mut self, kind: MessageKind, cost: u64);
    /// Counts one event of `kind` with no cost (timeouts, retries).
    fn bump(&mut self, kind: MessageKind);
    /// Commits a successful resolution at the asker: grant the lease and
    /// patch the cached state-pair.
    fn commit_resolution(&mut self, asker: Key, subject: Key, addr: WireAddr);
    /// Applies a received LDT update at `receiver`: grant the lease on
    /// `subject` and patch the cached state-pair.
    fn apply_update(&mut self, receiver: Key, subject: Key, addr: WireAddr, seq: u64);
    /// Applies a received registration at `target`.
    fn apply_register(&mut self, target: Key, who: Key, capacity: u32);
    /// Commits an acknowledged registration at the registrant (the lease
    /// the function-call path grants synchronously).
    fn commit_register(&mut self, who: Key, target: Key);
    /// Applies a received location publication at `holder`.
    fn apply_publish(&mut self, holder: Key, subject: Key, addr: WireAddr, seq: u64) {
        let _ = (holder, subject, addr, seq);
    }
    /// Accepts a structured observability event (default: discard).
    ///
    /// Emission is unmetered and must never influence protocol
    /// decisions; drivers override this to feed a flight recorder and
    /// per-operation latency histograms.
    fn emit(&mut self, event: ObsEvent) {
        let _ = event;
    }
    /// The deployment's shared authentication oracle (default `None`:
    /// the seed deployment — frames travel unsealed, nothing verifies,
    /// traces stay byte-identical to pre-auth runs).
    fn auth_domain(&self) -> Option<AuthDomain> {
        None
    }
    /// How strictly this node authenticates received frames.
    fn verify_policy(&self) -> VerifyPolicy {
        VerifyPolicy::Off
    }
    /// Whether a location publication for `subject` reflects live state
    /// rather than a replay of withdrawn records (default: always
    /// fresh). Drivers override this to consult the graveyard: a
    /// replayed record carries the subject's *valid* signature, so
    /// staleness — not the MAC — is what rejects it.
    fn publish_fresh(&self, subject: Key) -> bool {
        let _ = subject;
        true
    }
}

/// A parked forward waiting on an address resolution.
#[derive(Debug, Clone, Copy)]
struct ParkedForward {
    origin: Key,
    route_id: u64,
    target: Key,
    /// Whether this forward already failed once and was re-resolved;
    /// a second failure is final.
    after_failure: bool,
    /// The causal trace the forward belongs to.
    trace: u64,
}

/// What a reliable exchange carries — the only thing the paper's three
/// send-await-retransmit exchanges differ in.
#[derive(Debug, Clone, Copy)]
enum SessionKind {
    /// A route hop to the next mobile-layer peer (paper Fig. 2).
    Hop {
        origin: Key,
        route_id: u64,
        target: Key,
        /// Whether this forward already failed once and was re-resolved;
        /// a second failure is final.
        after_failure: bool,
    },
    /// An LDT `Update` to a child (§2.3.1, Fig. 4).
    Update,
    /// A `Register` at a mobile target.
    Register,
}

impl SessionKind {
    /// What every transmission of the frame, first or repeated, meters.
    fn metered(self) -> MessageKind {
        match self {
            SessionKind::Hop { .. } => MessageKind::RouteHop,
            SessionKind::Update => MessageKind::Update,
            SessionKind::Register => MessageKind::Register,
        }
    }

    /// The timer that guards the ack window of session `msg_id`.
    fn timer(self, msg_id: u64) -> TimerKind {
        match self {
            SessionKind::Hop { .. } => TimerKind::HopRetry { msg_id },
            SessionKind::Update => TimerKind::UpdateRetry { msg_id },
            SessionKind::Register => TimerKind::RegisterRetry { msg_id },
        }
    }

    /// The name timeouts of this exchange are observed under.
    fn what(self) -> &'static str {
        match self {
            SessionKind::Hop { .. } => "hop",
            SessionKind::Update => "update",
            SessionKind::Register => "register",
        }
    }

    /// Whether `ack` is the acknowledgement this exchange awaits.
    fn acked_by(self, ack: &WireMessage) -> bool {
        matches!(
            (self, ack),
            (SessionKind::Hop { .. }, WireMessage::HopAck { .. })
                | (SessionKind::Update, WireMessage::UpdateAck { .. })
                | (SessionKind::Register, WireMessage::RegisterAck { .. })
        )
    }
}

/// One frame awaiting its ack: sent, retransmitted with backoff, given
/// up on after `max_attempts`.
#[derive(Debug)]
struct Session {
    /// The sealed frame, retransmitted verbatim.
    out: Outgoing,
    attempt: u32,
    /// The only node whose ack closes the session.
    peer: Key,
    /// When the first copy was sent, for RTT sampling (Karn: only
    /// acks of attempt-0 frames are sampled).
    sent_at: SimTime,
    kind: SessionKind,
}

#[derive(Debug)]
struct DiscSession {
    subject: Key,
    attempt: u32,
    pending: Vec<ParkedForward>,
    /// Trace of the forward that opened the session (joiners keep their
    /// own traces on the parked forwards).
    trace: u64,
    /// When the session was opened, for resolution-latency events.
    started: SimTime,
}

/// One node's protocol state machine.
#[derive(Debug)]
pub struct ProtoMachine {
    key: Key,
    policy: RetryPolicy,
    next_msg_id: u64,
    next_session: u64,
    next_trace: u64,
    /// Receiver-side dedup: the `(src, msg_id)` pairs processed within
    /// the last `seen_lifetime` ticks (at most twice that).
    seen: SeenSet,
    /// How long a frame's copies can keep arriving under the retry
    /// timers in force; see [`Self::dedup_lifetime`].
    seen_lifetime: u64,
    /// Test oracle: when set, dedup asks this never-pruned set instead.
    #[cfg(test)]
    seen_oracle: Option<std::collections::HashSet<(Key, u64)>>,
    /// Frames awaiting an ack, by the `msg_id` they were sent under.
    sessions: HashMap<u64, Session>,
    /// Discoveries awaiting a reply, by session id — a different
    /// counter (`next_session`), carried on the wire, so not a `msg_id`.
    discs: HashMap<u64, DiscSession>,
    detector: FailureDetector,
    /// This node's own SWIM-style incarnation number; bumped exactly
    /// when the node learns it was suspected or declared dead.
    incarnation: u64,
    /// `Some` switches every retry timer from the fixed [`RetryPolicy`]
    /// waits to adaptive per-peer Jacobson/Karn RTO estimation.
    rto: Option<RtoConfig>,
    /// Per-peer RTT estimators (adaptive mode only).
    estimators: HashMap<Key, RtoEstimator>,
    /// One estimator for discovery round-trips, which span several
    /// hops and have no single peer to attribute the latency to.
    disc_est: Option<RtoEstimator>,
    /// Send time of the in-flight attempt-0 heartbeat probe per peer;
    /// cleared on retransmit so late acks are never sampled (Karn).
    /// Adaptive mode only: its one reader is the RTT sample.
    hb_sent: HashMap<Key, SimTime>,
}

impl ProtoMachine {
    /// A fresh machine for the node named `key`.
    pub fn new(key: Key, policy: RetryPolicy) -> Self {
        ProtoMachine {
            key,
            policy,
            next_msg_id: 0,
            next_session: 0,
            next_trace: 0,
            seen: SeenSet::default(),
            seen_lifetime: Self::dedup_lifetime(&policy, None),
            #[cfg(test)]
            seen_oracle: None,
            sessions: HashMap::new(),
            discs: HashMap::new(),
            detector: FailureDetector::new(FailurePolicy::default()),
            incarnation: 0,
            rto: None,
            estimators: HashMap::new(),
            disc_est: None,
            hb_sent: HashMap::new(),
        }
    }

    /// Switches retry timers to adaptive per-peer RTO estimation
    /// (`Some`) or back to the fixed [`RetryPolicy`] waits (`None`).
    /// Discovery gets its own estimator seeded from the fixed
    /// discovery timeout, since its round-trips span several hops.
    pub fn set_adaptive_rto(&mut self, cfg: Option<RtoConfig>) {
        self.rto = cfg;
        self.seen_lifetime = Self::dedup_lifetime(&self.policy, cfg.as_ref());
        self.estimators.clear();
        self.hb_sent.clear();
        self.disc_est =
            cfg.map(|_| RtoEstimator::new(RtoConfig::for_discovery(self.policy.discovery_timeout)));
    }

    /// The dedup horizon under the retry timers in force, from an upper
    /// bound on how long a reliable frame's sender spends on it, first
    /// send to giving up: the ack waits `ack_timeout << k` for `k <
    /// max_attempts` (clamped or not) sum to less than `ack_timeout <<
    /// max_attempts`; under adaptive RTO no jittered or backed-off wait
    /// exceeds `max_rto`. A receiver sizing its horizon from its own
    /// timers assumes what the drivers arrange: every machine of a
    /// deployment runs one policy.
    fn dedup_lifetime(policy: &RetryPolicy, rto: Option<&RtoConfig>) -> u64 {
        let ladder = match rto {
            Some(cfg) => cfg.max_rto.saturating_mul(u64::from(policy.max_attempts)),
            None => 1u64
                .checked_shl(policy.max_attempts)
                .map_or(u64::MAX, |factor| policy.ack_timeout.saturating_mul(factor)),
        };
        seen::lifetime(ladder)
    }

    /// Records a sighting of `src`'s frame `msg_id`; `true` if it is the
    /// first one inside the dedup horizon.
    fn first_sighting(&mut self, src: Key, msg_id: u64) -> bool {
        #[cfg(test)]
        if let Some(oracle) = self.seen_oracle.as_mut() {
            return oracle.insert((src, msg_id));
        }
        self.seen.insert(src, msg_id)
    }

    /// Dedup entries held (occupancy gauge for the flatness tests).
    #[doc(hidden)]
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// The adaptive-RTO configuration, if enabled.
    pub fn adaptive_rto(&self) -> Option<RtoConfig> {
        self.rto
    }

    /// The current (unjittered, un-backed-off base) RTO estimate for
    /// `peer`, if adaptive mode has collected at least one sample.
    pub fn rto_estimate(&self, peer: Key) -> Option<u64> {
        self.estimators.get(&peer).filter(|e| e.samples() > 0).map(|e| e.rto())
    }

    /// The detector's health score for `peer` (100 = perfect, `None` =
    /// unmonitored).
    pub fn peer_health(&self, peer: Key) -> Option<u32> {
        self.detector.health(peer)
    }

    /// Whether `peer` is monitored, not dead, and currently bleeding
    /// health — a gray-failure signal the driver uses for latency-aware
    /// replica failover.
    pub fn is_peer_degraded(&self, peer: Key) -> bool {
        self.detector.is_degraded(peer)
    }

    /// Every monitored peer currently held degraded (see
    /// [`Self::is_peer_degraded`]), ascending.
    pub fn degraded_peers(&self) -> impl Iterator<Item = Key> + '_ {
        self.detector.degraded()
    }

    /// The ack-retry wait for `peer`: the fixed policy timeout, or the
    /// peer's jittered adaptive RTO.
    fn ack_timeout_for(&mut self, peer: Key) -> u64 {
        match self.rto {
            None => self.policy.ack_timeout,
            Some(cfg) => {
                let salt = self.key.0 ^ peer.0.rotate_left(32);
                self.estimators
                    .entry(peer)
                    .or_insert_with(|| RtoEstimator::new(cfg))
                    .jittered_rto(salt)
            }
        }
    }

    /// The heartbeat-probe wait for `peer` (fixed mode uses the
    /// detector's `ack_wait`; adaptive mode shares the peer's RTO
    /// estimator with the ack path).
    fn hb_timeout_for(&mut self, peer: Key) -> u64 {
        match self.rto {
            None => self.detector.policy().ack_wait,
            Some(cfg) => {
                let salt = self.key.0 ^ peer.0.rotate_left(32) ^ 0xB5;
                self.estimators
                    .entry(peer)
                    .or_insert_with(|| RtoEstimator::new(cfg))
                    .jittered_rto(salt)
            }
        }
    }

    /// The discovery-session wait: fixed, or the jittered discovery
    /// estimator.
    fn discovery_timeout_for(&mut self) -> u64 {
        match self.disc_est.as_mut() {
            None => self.policy.discovery_timeout,
            Some(est) => est.jittered_rto(self.key.0),
        }
    }

    /// The rearm delay for an ack-retry against `peer` at (post-bump)
    /// attempt `next_attempt`: fixed exponential backoff, or the
    /// peer's adaptive RTO (whose Karn backoff replaces the shift).
    fn retry_wait(&mut self, peer: Key, next_attempt: u32) -> u64 {
        match self.rto {
            None => backoff(self.policy.ack_timeout, next_attempt),
            Some(_) => {
                self.note_rto_timeout(peer);
                self.ack_timeout_for(peer)
            }
        }
    }

    /// Feeds a measured round-trip into `peer`'s estimator (adaptive
    /// mode only; Karn's rule drops samples from retransmitted frames).
    fn rtt_sample(&mut self, peer: Key, attempt: u32, rtt: u64) {
        if let Some(cfg) = self.rto {
            self.estimators
                .entry(peer)
                .or_insert_with(|| RtoEstimator::new(cfg))
                .karn_sample(attempt, rtt);
        }
    }

    /// Records a retry timeout against `peer`'s estimator, doubling its
    /// backed-off RTO (Karn backoff; collapses on the next clean
    /// sample).
    fn note_rto_timeout(&mut self, peer: Key) {
        if let Some(cfg) = self.rto {
            self.estimators.entry(peer).or_insert_with(|| RtoEstimator::new(cfg)).on_timeout();
        }
    }

    /// The node this machine speaks for.
    pub fn key(&self) -> Key {
        self.key
    }

    /// This node's own incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The highest incarnation this node has observed `peer` at
    /// (`None` = unmonitored).
    pub fn peer_incarnation(&self, peer: Key) -> Option<u64> {
        self.detector.incarnation_of(peer)
    }

    /// Raises this node's own incarnation to `incarnation` (never
    /// lowers it). A process restarted from its durable store resumes
    /// at the persisted-and-bumped incarnation rather than 0, so its
    /// post-restart messages out-rank its pre-crash life — and are not
    /// mistaken for it: the new life numbers its frames from
    /// `incarnation << 32`, above every id a previous life (which began
    /// at a lower incarnation's base and sent fewer than 2³² frames)
    /// can have used, so a peer whose dedup set still holds the old
    /// `(src, msg_id)` pairs sees new frames, and a late ack addressed
    /// to the old life names no session of the new one.
    pub fn restore_incarnation(&mut self, incarnation: u64) {
        self.incarnation = self.incarnation.max(incarnation);
        self.next_msg_id = self.next_msg_id.max(incarnation << LIFE_SHIFT);
    }

    /// Replaces the failure-detection thresholds (existing suspicion
    /// state, incarnations included, is kept).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        let mut fresh = FailureDetector::new(policy);
        for &peer in self.detector.monitored() {
            fresh.monitor(peer);
            let incarnation = self.detector.incarnation_of(peer).unwrap_or(0);
            fresh.observe_alive(peer, incarnation);
            if self.detector.is_dead(peer) {
                fresh.mark_dead(peer, incarnation);
            }
        }
        self.detector = fresh;
    }

    /// Starts monitoring `peer`'s liveness via heartbeats.
    pub fn monitor(&mut self, peer: Key) {
        if peer != self.key {
            self.detector.monitor(peer);
        }
    }

    /// Stops monitoring every peer for which `keep` returns false.
    pub fn retain_monitored(&mut self, keep: impl FnMut(Key) -> bool) {
        self.detector.retain_monitored(keep);
    }

    /// This node's current belief about `peer` (`None` = unmonitored).
    pub fn liveness(&self, peer: Key) -> Option<Liveness> {
        self.detector.liveness(peer)
    }

    /// Peers this node monitors, ascending.
    pub fn monitored(&self) -> &[Key] {
        self.detector.monitored()
    }

    /// Number of in-flight sessions awaiting acks or replies.
    pub fn inflight(&self) -> usize {
        self.sessions.len() + self.discs.len()
    }

    fn fresh_msg_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    /// Allocates a causal trace id for an operation this node originates.
    ///
    /// Deterministic (a per-node counter mixed with the node key so two
    /// nodes never mint the same id in practice) and never 0 — trace 0 is
    /// reserved for background traffic such as heartbeats.
    fn fresh_trace(&mut self) -> u64 {
        self.next_trace += 1;
        (self.key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.next_trace) | 1
    }

    /// Emits one [`ObsEventKind::Send`] per outgoing frame in `out`.
    /// Called exactly once per public entry point so every frame — first
    /// sends, retransmits, acks, replies — is observed.
    fn observe_sends(&self, now: SimTime, env: &mut dyn NodeEnv, out: &Output) {
        for o in &out.outgoing {
            let kind = ObsEventKind::Send {
                to: o.env.dst,
                tag: o.env.msg.tag_name(),
                msg_id: o.env.msg_id,
            };
            self.note(env, now, o.env.trace_id, kind);
        }
    }

    /// Emits one structured event from this node — the only place an
    /// [`ObsEvent`] is written.
    fn note(&self, env: &mut dyn NodeEnv, now: SimTime, trace: u64, kind: ObsEventKind) {
        env.emit(ObsEvent { at: now.0, trace, node: self.key, kind });
    }

    fn my_router(&self, env: &dyn NodeEnv) -> RouterId {
        env.current_addr(self.key).router_id()
    }

    // -----------------------------------------------------------------
    // The send path
    // -----------------------------------------------------------------

    /// Builds one frame from this node to `dst` at `to_addr` — the only
    /// place an [`Envelope`] is written. The `msg_id` is allocated, the
    /// physical cost metered as `metered` (`None` for acks and the other
    /// unmetered control traffic) and the signer's trailer applied here,
    /// once, *before* [`Self::send_reliable`] clones the frame into a
    /// session: a retransmission is the stored frame, id and tag
    /// included.
    fn frame(
        &mut self,
        env: &mut dyn NodeEnv,
        dst: Key,
        to_addr: WireAddr,
        trace: u64,
        msg: WireMessage,
        metered: Option<MessageKind>,
    ) -> Outgoing {
        if let Some(kind) = metered {
            let cost = env.distance(self.my_router(env), to_addr.router_id());
            env.meter(kind, cost);
        }
        let msg_id = self.fresh_msg_id();
        let mut envelope =
            Envelope { src: self.key, dst, msg_id, trace_id: trace, msg, auth: None };
        Self::seal(env, &mut envelope);
        Outgoing { to_addr, env: envelope }
    }

    /// Queues one fire-and-forget frame to `dst` at its current address.
    fn post(
        &mut self,
        env: &mut dyn NodeEnv,
        out: &mut Output,
        dst: Key,
        trace: u64,
        msg: WireMessage,
        metered: Option<MessageKind>,
    ) {
        let to_addr = env.current_addr(dst);
        out.outgoing.push(self.frame(env, dst, to_addr, trace, msg, metered));
    }

    /// Opens a reliable exchange with the peer `frame` is addressed to:
    /// the frame is sent, a copy kept under its `msg_id` for
    /// retransmission, and the first ack window armed.
    /// [`Self::on_ack`] closes the session, [`Self::retry`] retransmits
    /// it or gives up.
    fn send_reliable(
        &mut self,
        now: SimTime,
        out: &mut Output,
        frame: Outgoing,
        kind: SessionKind,
    ) {
        let (msg_id, peer) = (frame.env.msg_id, frame.env.dst);
        out.outgoing.push(frame.clone());
        self.sessions.insert(msg_id, Session { out: frame, attempt: 0, peer, sent_at: now, kind });
        let wait = self.ack_timeout_for(peer);
        out.timers.push(Timer { at: now.plus(wait), kind: kind.timer(msg_id) });
    }

    // -----------------------------------------------------------------
    // Frame authentication
    // -----------------------------------------------------------------

    /// The identity whose authority `msg` carries, if its kind is
    /// authenticated: location records speak for their *subject*
    /// (relays re-seal on the subject's behalf, modelling a forwarded
    /// signature), `Alive` refutations for the refuted node, and
    /// registrations, their acks and death verdicts for their sender.
    /// `None` marks an unauthenticated kind (hops, acks, discovery,
    /// heartbeats) that never carries a trailer.
    fn signer_of(src: Key, msg: &WireMessage) -> Option<Key> {
        match msg {
            WireMessage::Publish { subject, .. } | WireMessage::Update { subject, .. } => {
                Some(*subject)
            }
            WireMessage::Alive { node, .. } => Some(*node),
            WireMessage::Register { .. }
            | WireMessage::RegisterAck { .. }
            | WireMessage::SuspectNotify { .. } => Some(src),
            _ => None,
        }
    }

    /// Seals `envelope` with its signer's trailer when the deployment
    /// authenticates (no-op otherwise, and on unauthenticated kinds).
    /// Must run *before* the envelope is cloned into a retry session so
    /// retransmits carry the tag too.
    fn seal(env: &dyn NodeEnv, envelope: &mut Envelope) {
        let Some(signer) = Self::signer_of(envelope.src, &envelope.msg) else { return };
        if let Some(domain) = env.auth_domain() {
            envelope.auth = Some(domain.sign(signer, envelope.msg.auth_digest()));
        }
    }

    /// Verifies a received frame's trailer: self-certification and the
    /// MAC for authenticated kinds, plus the replay check on location
    /// publications (a withdrawn record's signature is still valid —
    /// only freshness rejects it).
    fn check_frame(env: &dyn NodeEnv, envelope: &Envelope) -> Result<(), AuthError> {
        let Some(signer) = Self::signer_of(envelope.src, &envelope.msg) else {
            return Ok(());
        };
        let Some(domain) = env.auth_domain() else { return Ok(()) };
        let Some(auth) = envelope.auth else { return Err(AuthError::MissingTag) };
        domain.verify(signer, envelope.msg.auth_digest(), auth)?;
        if let WireMessage::Publish { subject, .. } = envelope.msg {
            if !env.publish_fresh(subject) {
                return Err(AuthError::StaleRecord);
            }
        }
        Ok(())
    }

    /// The receive-side authentication gate. Returns `false` when the
    /// frame must be dropped before touching any state (enforcing
    /// policy only); failures are metered as [`MessageKind::ForgedFrame`]
    /// (plus [`MessageKind::AuthReject`] when dropped) and emitted to
    /// the flight recorder either way.
    fn admit_frame(&self, now: SimTime, env: &mut dyn NodeEnv, envelope: &Envelope) -> bool {
        let policy = env.verify_policy();
        if policy == VerifyPolicy::Off {
            return true;
        }
        let Err(reason) = Self::check_frame(env, envelope) else { return true };
        env.bump(MessageKind::ForgedFrame);
        let dropped = policy == VerifyPolicy::Enforce;
        let kind = ObsEventKind::AuthReject {
            from: envelope.src,
            tag: envelope.msg.tag_name(),
            reason: reason.name(),
            dropped,
        };
        self.note(env, now, envelope.trace_id, kind);
        if dropped {
            env.bump(MessageKind::AuthReject);
            return false;
        }
        true
    }

    // -----------------------------------------------------------------
    // Operation entry points
    // -----------------------------------------------------------------

    /// Starts routing a message from this node toward `target`.
    /// Returns the route id (for matching the eventual completion) and
    /// the first batch of effects.
    pub fn start_route(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        target: Key,
    ) -> (u64, Output) {
        let route_id = self.fresh_msg_id();
        let trace = self.fresh_trace();
        let mut out = Output::none();
        let parked =
            ParkedForward { origin: self.key, route_id, target, after_failure: false, trace };
        self.forward_route(now, env, parked, &mut out);
        self.observe_sends(now, env, &out);
        (route_id, out)
    }

    /// Disseminates `subject`'s fresh address to this node's LDT
    /// children: one reliable Update per edge.
    pub fn start_update(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        subject: Key,
        addr: WireAddr,
        seq: u64,
        children: &[Key],
    ) -> Output {
        let mut out = Output::none();
        let trace = self.fresh_trace();
        for &child in children {
            let to_addr = env.current_addr(child);
            let msg = WireMessage::Update { subject, addr, seq };
            let frame = self.frame(env, child, to_addr, trace, msg, Some(MessageKind::Update));
            self.send_reliable(now, &mut out, frame, SessionKind::Update);
        }
        self.observe_sends(now, env, &out);
        out
    }

    /// Registers this node's interest in mobile node `target`.
    pub fn start_register(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        target: Key,
        capacity: u32,
    ) -> Output {
        let mut out = Output::none();
        let trace = self.fresh_trace();
        let to_addr = env.current_addr(target);
        let msg = WireMessage::Register { target, capacity };
        let frame = self.frame(env, target, to_addr, trace, msg, Some(MessageKind::Register));
        self.send_reliable(now, &mut out, frame, SessionKind::Register);
        self.observe_sends(now, env, &out);
        out
    }

    /// Sends a one-shot (unacknowledged) message — Publish, JoinProbe,
    /// Leave, Refresh — metered as `kind`.
    pub fn send_oneshot(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        to: Key,
        msg: WireMessage,
        kind: MessageKind,
    ) -> Output {
        let mut out = Output::none();
        let trace = self.fresh_trace();
        self.post(env, &mut out, to, trace, msg, Some(kind));
        self.observe_sends(now, env, &out);
        out
    }

    /// Opens one heartbeat round: probes every monitored, not-yet-dead
    /// peer (one probe each, metered as HeartbeatSent) and arms the ack
    /// windows. Rounds are driver-paced — a round's probes never re-arm
    /// themselves, so an idle machine stays idle.
    pub fn start_heartbeats(&mut self, now: SimTime, env: &mut dyn NodeEnv) -> Output {
        let mut out = Output::none();
        // Every probe of the round leaves from the same place: resolved
        // at the first probe, not once per peer.
        let mut my_router = None;
        for i in 0..self.detector.monitored().len() {
            let peer = self.detector.monitored()[i];
            let Some(seq) = self.detector.begin_probe(peer) else { continue };
            let from = *my_router.get_or_insert_with(|| self.my_router(env));
            self.push_heartbeat(env, from, peer, seq, &mut out);
            if self.rto.is_some() {
                self.hb_sent.insert(peer, now);
            }
            let wait = self.hb_timeout_for(peer);
            out.timers.push(Timer {
                at: now.plus(wait),
                kind: TimerKind::HeartbeatTimeout { peer, seq },
            });
        }
        self.observe_sends(now, env, &out);
        out
    }

    /// Queues one probe of `peer`, metered as sent from router `from`.
    fn push_heartbeat(
        &mut self,
        env: &mut dyn NodeEnv,
        from: RouterId,
        peer: Key,
        seq: u64,
        out: &mut Output,
    ) {
        // Metered here rather than by the frame builder, which would
        // look this node's own router up again for every probe.
        let to_addr = env.current_addr(peer);
        let cost = env.distance(from, to_addr.router_id());
        env.meter(MessageKind::HeartbeatSent, cost);
        let msg = WireMessage::Heartbeat { seq, incarnation: self.incarnation };
        out.outgoing.push(self.frame(env, peer, to_addr, 0, msg, None));
    }

    /// Tells `to` that `suspect` has been confirmed dead at the highest
    /// incarnation this node observed it at (unmetered control traffic,
    /// like acks: it spreads a verdict, not state). Also the obituary a
    /// wrongfully-buried node itself must eventually receive — learning
    /// of its own funeral is what triggers the incarnation bump and the
    /// `Alive` refutation.
    pub fn notify_suspect(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        to: Key,
        suspect: Key,
    ) -> Output {
        let mut out = Output::none();
        let incarnation = self.detector.incarnation_of(suspect).unwrap_or(0);
        self.post(env, &mut out, to, 0, WireMessage::SuspectNotify { suspect, incarnation }, None);
        self.observe_sends(now, env, &out);
        out
    }

    /// Asserts this node's own liveness at its current incarnation to
    /// `to` (metered as [`MessageKind::Refutation`]).
    pub fn send_alive(&mut self, now: SimTime, env: &mut dyn NodeEnv, to: Key) -> Output {
        let msg = WireMessage::Alive { node: self.key, incarnation: self.incarnation };
        self.send_oneshot(now, env, to, msg, MessageKind::Refutation)
    }

    /// Asks `sponsor` to reverse this node's funeral — re-admit it to
    /// the overlay at its current incarnation (metered as
    /// [`MessageKind::Rejoin`]).
    pub fn start_rejoin(&mut self, now: SimTime, env: &mut dyn NodeEnv, sponsor: Key) -> Output {
        let msg = WireMessage::Rejoin { incarnation: self.incarnation };
        self.send_oneshot(now, env, sponsor, msg, MessageKind::Rejoin)
    }

    /// Digests third-party or first-hand evidence that `peer` is alive
    /// at `incarnation`, emitting a [`Completion::PeerRefuted`] when it
    /// overturns a standing verdict.
    fn digest_alive(
        &mut self,
        env: &mut dyn NodeEnv,
        peer: Key,
        incarnation: u64,
        out: &mut Output,
    ) {
        if let Some(overturned) = self.detector.observe_alive(peer, incarnation) {
            let was_dead = overturned == Liveness::Dead;
            if was_dead {
                env.bump(MessageKind::WrongfulDeath);
            }
            out.completions.push(Completion::PeerRefuted { peer, incarnation, was_dead });
        }
    }

    /// Feeds one event (delivery or timer) through the machine.
    pub fn poll(&mut self, now: SimTime, event: Event, env: &mut dyn NodeEnv) -> Output {
        self.seen.advance(now, self.seen_lifetime);
        let out = match event {
            Event::Deliver(envelope) => {
                if self.admit_frame(now, env, &envelope) {
                    self.on_deliver(now, env, envelope)
                } else {
                    // Rejected frame: no ack, no dedup entry, no state.
                    Output::none()
                }
            }
            Event::Timer(kind) => self.on_timer(now, env, kind),
        };
        self.observe_sends(now, env, &out);
        out
    }

    // -----------------------------------------------------------------
    // Mobile-layer forwarding (paper Fig. 2)
    // -----------------------------------------------------------------

    fn forward_route(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        parked: ParkedForward,
        out: &mut Output,
    ) {
        let ParkedForward { origin, route_id, target, .. } = parked;
        let Some(next) = env.next_hop_mobile(self.key, target) else {
            self.note(env, now, parked.trace, ObsEventKind::RouteDelivered { route_id });
            out.completions.push(Completion::Delivered { origin, route_id });
            return;
        };
        if env.is_mobile(next) {
            let believed = env.believed_addr(self.key, next);
            match believed {
                Some(addr) if env.addr_current(addr) => {
                    self.send_hop(now, env, next, addr, parked, out);
                }
                other => {
                    if let Some(stale) = other {
                        // Confidently wrong: one wasted delivery attempt to
                        // the old attachment point. The attempt is metered
                        // but not emitted — the moved host can no longer
                        // receive at that address, so the bytes black-hole
                        // either way, and keeping it implicit preserves
                        // exact meter parity with the function-call path.
                        let cost = env.distance(self.my_router(env), stale.router_id());
                        env.meter(MessageKind::RouteHop, cost);
                    }
                    self.start_discovery(now, env, next, parked, out);
                }
            }
        } else {
            let addr = env.current_addr(next);
            self.send_hop(now, env, next, addr, parked, out);
        }
    }

    fn send_hop(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        next: Key,
        to_addr: WireAddr,
        parked: ParkedForward,
        out: &mut Output,
    ) {
        let ParkedForward { origin, route_id, target, after_failure, trace } = parked;
        let msg = WireMessage::RouteHop { origin, route_id, target };
        let kind = SessionKind::Hop { origin, route_id, target, after_failure };
        let frame = self.frame(env, next, to_addr, trace, msg, Some(kind.metered()));
        self.send_reliable(now, out, frame, kind);
    }

    // -----------------------------------------------------------------
    // `_discovery` (paper §2.3.2)
    // -----------------------------------------------------------------

    fn start_discovery(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        subject: Key,
        parked: ParkedForward,
        out: &mut Output,
    ) {
        // Join an in-flight session for the same subject if one exists.
        if let Some(session) = self.discs.values_mut().find(|s| s.subject == subject) {
            session.pending.push(parked);
            return;
        }
        let sid = self.next_session;
        self.next_session += 1;
        let trace = parked.trace;
        self.discs.insert(
            sid,
            DiscSession { subject, attempt: 0, pending: vec![parked], trace, started: now },
        );
        self.note(env, now, trace, ObsEventKind::DiscoveryStart { subject });
        self.emit_discovery(env, sid, subject, trace, out);
        let wait = self.discovery_timeout_for();
        out.timers
            .push(Timer { at: now.plus(wait), kind: TimerKind::DiscoveryRetry { session: sid } });
    }

    fn emit_discovery(
        &mut self,
        env: &mut dyn NodeEnv,
        sid: u64,
        subject: Key,
        trace: u64,
        out: &mut Output,
    ) {
        let entry = env.entry_stationary(self.key);
        if entry == self.key {
            // We are our own entry point: run the first stationary step
            // locally, exactly as the function path skips the injection
            // hop when `entry == from`.
            self.handle_discovery(env, subject, self.key, sid, None, trace, out);
        } else {
            let msg =
                WireMessage::Discovery { subject, asker: self.key, session: sid, probe: None };
            self.post(env, out, entry, trace, msg, Some(MessageKind::DiscoveryHop));
        }
    }

    /// One stationary node's handling of a Discovery hop: route toward
    /// the owner, then walk the replica chain on a miss, then reply.
    #[allow(clippy::too_many_arguments)]
    fn handle_discovery(
        &mut self,
        env: &mut dyn NodeEnv,
        subject: Key,
        asker: Key,
        sid: u64,
        probe: Option<Key>,
        trace: u64,
        out: &mut Output,
    ) {
        let hop = |probe| WireMessage::Discovery { subject, asker, session: sid, probe };
        let metered = Some(MessageKind::DiscoveryHop);
        match probe {
            None => {
                if let Some(nh) = env.next_hop_stationary(self.key, subject) {
                    self.post(env, out, nh, trace, hop(None), metered);
                    return;
                }
                // We own the subject's record space: the route terminus.
                if let Some(addr) = env.location_record(self.key, subject) {
                    self.send_reply(env, subject, sid, asker, Some(addr), trace, out);
                    return;
                }
                // Miss at the owner: probe successor replicas.
                let replicas = env.replicas(subject);
                match replicas.iter().copied().find(|&r| r != self.key) {
                    Some(next_rep) => {
                        self.post(env, out, next_rep, trace, hop(Some(self.key)), metered)
                    }
                    None => self.send_reply(env, subject, sid, asker, None, trace, out),
                }
            }
            Some(terminus) => {
                if let Some(addr) = env.location_record(self.key, subject) {
                    // Serving from a probed replica rather than the route
                    // terminus: the chain absorbed the primary's miss.
                    env.bump(MessageKind::ReplicaFailover);
                    self.send_reply(env, subject, sid, asker, Some(addr), trace, out);
                    return;
                }
                let replicas = env.replicas(subject);
                let next = replicas
                    .iter()
                    .position(|&r| r == self.key)
                    .and_then(|i| replicas.get(i + 1))
                    .copied();
                match next {
                    Some(r) => self.post(env, out, r, trace, hop(Some(terminus)), metered),
                    None => {
                        // Chain exhausted: tell the terminus, which answers
                        // the asker itself (unmetered control notice — the
                        // function path replies from the terminus on a
                        // total miss).
                        let miss = WireMessage::ProbeMiss { subject, asker, session: sid };
                        self.post(env, out, terminus, trace, miss, None);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_reply(
        &mut self,
        env: &mut dyn NodeEnv,
        subject: Key,
        sid: u64,
        asker: Key,
        addr: Option<WireAddr>,
        trace: u64,
        out: &mut Output,
    ) {
        let reply = WireMessage::DiscoveryReply { subject, session: sid, addr };
        self.post(env, out, asker, trace, reply, Some(MessageKind::DiscoveryHop));
    }

    fn finish_discovery(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        session: DiscSession,
        addr: Option<WireAddr>,
        out: &mut Output,
    ) {
        let subject = session.subject;
        let elapsed = now.since(session.started);
        match addr {
            Some(a) => {
                let resolved = ObsEventKind::DiscoveryResolved { subject, elapsed };
                self.note(env, now, session.trace, resolved);
                env.commit_resolution(self.key, subject, a);
                out.completions.push(Completion::Resolved { subject });
            }
            None => {
                let failed = ObsEventKind::DiscoveryFailed { subject, elapsed };
                self.note(env, now, session.trace, failed);
                out.completions.push(Completion::ResolutionFailed { subject });
            }
        }
        for parked in session.pending {
            // On success the resolved address is also the cached one; on
            // failure forward to the subject's true attachment, modelling
            // the function path's out-of-band convergence.
            let to_addr = addr.unwrap_or_else(|| env.current_addr(subject));
            self.send_hop(now, env, subject, to_addr, parked, out);
        }
    }

    // -----------------------------------------------------------------
    // Deliveries
    // -----------------------------------------------------------------

    fn on_deliver(&mut self, now: SimTime, env: &mut dyn NodeEnv, envelope: Envelope) -> Output {
        let mut out = Output::none();
        let src = envelope.src;
        let msg_id = envelope.msg_id;
        // Replies and forwards stay on the causal trace of the frame that
        // provoked them, so a route and the discovery retries, replica
        // failovers and refutations it triggers share one trace id.
        let trace = envelope.trace_id;
        match envelope.msg {
            WireMessage::RouteHop { origin, route_id, target } => {
                let dup = !self.first_sighting(src, msg_id);
                // Always (re-)ack, even duplicates: the original ack may
                // have been lost. Acks are unmetered control traffic.
                self.post(env, &mut out, src, trace, WireMessage::HopAck { acked: msg_id }, None);
                if !dup {
                    let parked =
                        ParkedForward { origin, route_id, target, after_failure: false, trace };
                    self.forward_route(now, env, parked, &mut out);
                }
            }
            WireMessage::HopAck { acked }
            | WireMessage::UpdateAck { acked }
            | WireMessage::RegisterAck { acked } => {
                self.on_ack(now, env, &envelope, acked, &mut out);
            }
            WireMessage::Discovery { subject, asker, session, probe } => {
                if self.first_sighting(src, msg_id) {
                    self.handle_discovery(env, subject, asker, session, probe, trace, &mut out);
                }
            }
            WireMessage::DiscoveryReply { subject: _, session, addr } => {
                if let Some(s) = self.discs.remove(&session) {
                    // Karn: only first-attempt sessions feed the
                    // discovery estimator.
                    if s.attempt == 0 {
                        if let Some(est) = self.disc_est.as_mut() {
                            est.sample(now.since(s.started));
                        }
                    }
                    self.finish_discovery(now, env, s, addr, &mut out);
                }
            }
            WireMessage::ProbeMiss { subject, asker, session } => {
                if self.first_sighting(src, msg_id) {
                    self.send_reply(env, subject, session, asker, None, trace, &mut out);
                }
            }
            WireMessage::Register { target, capacity } => {
                if self.first_sighting(src, msg_id) {
                    env.apply_register(target, src, capacity);
                }
                let ack = WireMessage::RegisterAck { acked: msg_id };
                self.post(env, &mut out, src, trace, ack, None);
            }
            WireMessage::Update { subject, addr, seq } => {
                if self.first_sighting(src, msg_id) {
                    env.apply_update(self.key, subject, addr, seq);
                }
                self.post(
                    env,
                    &mut out,
                    src,
                    trace,
                    WireMessage::UpdateAck { acked: msg_id },
                    None,
                );
            }
            WireMessage::Publish { subject, addr, seq } => {
                if self.first_sighting(src, msg_id) {
                    env.apply_publish(self.key, subject, addr, seq);
                }
            }
            WireMessage::JoinProbe { .. }
            | WireMessage::Leave { .. }
            | WireMessage::Refresh { .. } => {
                // Vocabulary completeness: observed, deduplicated, no
                // protocol reaction yet.
                self.first_sighting(src, msg_id);
            }
            WireMessage::Heartbeat { seq, incarnation } => {
                // The probe itself is evidence of life at `incarnation`.
                self.digest_alive(env, src, incarnation, &mut out);
                let reply = if self.detector.is_dead(src) {
                    // A peer we hold dead is probing us: a zombie on the
                    // far side of a healed partition. Instead of acking,
                    // tell it about its own funeral so it can bump its
                    // incarnation and refute. (The obituary is a verdict
                    // and travels sealed.)
                    WireMessage::SuspectNotify {
                        suspect: src,
                        incarnation: self.detector.incarnation_of(src).unwrap_or(0),
                    }
                } else {
                    // Always answer, even duplicates: the previous ack
                    // may have been lost. Acks are unmetered control
                    // traffic.
                    WireMessage::HeartbeatAck { seq, incarnation: self.incarnation }
                };
                self.post(env, &mut out, src, trace, reply, None);
            }
            WireMessage::HeartbeatAck { seq, incarnation } => {
                self.digest_alive(env, src, incarnation, &mut out);
                let closed = self.detector.ack(src, seq, incarnation);
                if self.rto.is_some() {
                    if let Some(sent) = self.hb_sent.remove(&src) {
                        // The entry survives only while the attempt-0
                        // probe is the one in flight (Karn: retransmits
                        // clear it).
                        if closed {
                            self.rtt_sample(src, 0, now.since(sent));
                        }
                    }
                }
            }
            WireMessage::SuspectNotify { suspect, incarnation } => {
                if suspect == self.key {
                    // Our own obituary. Bump past the verdict's
                    // incarnation and refute — every time, because the
                    // previous refutation may have been lost.
                    if incarnation >= self.incarnation {
                        self.incarnation = incarnation + 1;
                    }
                    self.note(
                        env,
                        now,
                        trace,
                        ObsEventKind::Refute { incarnation: self.incarnation },
                    );
                    let alive =
                        WireMessage::Alive { node: self.key, incarnation: self.incarnation };
                    self.post(env, &mut out, src, trace, alive, Some(MessageKind::Refutation));
                    out.completions.push(Completion::SelfRefuted {
                        accuser: src,
                        incarnation: self.incarnation,
                    });
                } else if self.first_sighting(src, msg_id)
                    && self.detector.mark_dead(suspect, incarnation)
                {
                    out.completions.push(Completion::PeerDead { peer: suspect });
                }
            }
            WireMessage::Alive { node, incarnation } => {
                if node == self.key {
                    // A relayed assertion about ourselves: never regress.
                    self.incarnation = self.incarnation.max(incarnation);
                } else {
                    self.digest_alive(env, node, incarnation, &mut out);
                }
            }
            WireMessage::Rejoin { incarnation } => {
                // The rejoiner is alive by definition of having sent this.
                self.digest_alive(env, src, incarnation, &mut out);
                if self.first_sighting(src, msg_id) {
                    out.completions.push(Completion::RejoinRequested { peer: src, incarnation });
                }
                // Always ack, even duplicates: the previous ack may have
                // been lost and the rejoiner keeps asking until it hears
                // one. Acks are unmetered control traffic.
                self.post(env, &mut out, src, trace, WireMessage::RejoinAck { incarnation }, None);
            }
            WireMessage::RejoinAck { incarnation } => {
                if incarnation == self.incarnation {
                    out.completions.push(Completion::RejoinCompleted { sponsor: src });
                }
            }
        }
        out
    }

    /// Closes the session `ack` names — if there is one, it awaits this
    /// kind of ack, and the ack comes from the peer the frame was sent
    /// to. Message ids are a per-source counter anyone can guess and
    /// acks are unauthenticated (a `RegisterAck` is signed by whoever
    /// sends it), so without the peer check any third party could
    /// complete a registration the target never applied or silence a
    /// hop's retry ladder; a mismatched ack leaves session and timer
    /// untouched.
    fn on_ack(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        ack: &Envelope,
        acked: u64,
        out: &mut Output,
    ) {
        let Entry::Occupied(open) = self.sessions.entry(acked) else { return };
        let awaited = open.get();
        if awaited.peer != ack.src || !awaited.kind.acked_by(&ack.msg) {
            return;
        }
        let Session { attempt, peer, sent_at, kind, .. } = open.remove();
        self.rtt_sample(peer, attempt, now.since(sent_at));
        self.note(env, now, ack.trace_id, ObsEventKind::Ack { from: peer, msg_id: acked });
        match kind {
            SessionKind::Hop { .. } => {}
            SessionKind::Update => out.completions.push(Completion::UpdateAcked { child: peer }),
            SessionKind::Register => {
                env.commit_register(self.key, peer);
                out.completions.push(Completion::Registered { target: peer });
            }
        }
    }

    // -----------------------------------------------------------------
    // Timers
    // -----------------------------------------------------------------

    fn on_timer(&mut self, now: SimTime, env: &mut dyn NodeEnv, kind: TimerKind) -> Output {
        let mut out = Output::none();
        match kind {
            TimerKind::HopRetry { msg_id }
            | TimerKind::UpdateRetry { msg_id }
            | TimerKind::RegisterRetry { msg_id } => self.retry(now, env, msg_id, kind, &mut out),
            TimerKind::DiscoveryRetry { session } => {
                self.discovery_retry(now, env, session, &mut out)
            }
            TimerKind::HeartbeatTimeout { peer, seq } => {
                self.heartbeat_timeout(now, env, peer, seq, &mut out)
            }
        }
        out
    }

    fn heartbeat_timeout(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        peer: Key,
        seq: u64,
        out: &mut Output,
    ) {
        match self.detector.on_timeout(peer, seq) {
            TimeoutVerdict::Ignore => {}
            TimeoutVerdict::Resend { attempt } => {
                env.bump(MessageKind::Timeout);
                self.note(env, now, 0, ObsEventKind::Timeout { what: "heartbeat", attempt });
                let from = self.my_router(env);
                self.push_heartbeat(env, from, peer, seq, out);
                let wait = match self.rto {
                    None => backoff(self.detector.policy().ack_wait, attempt),
                    Some(_) => {
                        // Karn: the probe in flight is no longer attempt
                        // 0, so a late ack must not be sampled.
                        self.hb_sent.remove(&peer);
                        self.note_rto_timeout(peer);
                        self.hb_timeout_for(peer)
                    }
                };
                out.timers.push(Timer {
                    at: now.plus(wait),
                    kind: TimerKind::HeartbeatTimeout { peer, seq },
                });
            }
            TimeoutVerdict::Missed { transition } => {
                env.bump(MessageKind::Timeout);
                let attempt = self.detector.policy().probe_attempts;
                self.note(env, now, 0, ObsEventKind::Timeout { what: "heartbeat", attempt });
                match transition {
                    Some(LivenessTransition::Suspected) => {
                        env.bump(MessageKind::SuspectRaised);
                        let incarnation = self.detector.incarnation_of(peer).unwrap_or(0);
                        self.note(env, now, 0, ObsEventKind::Suspect { peer, incarnation });
                        out.completions.push(Completion::PeerSuspected { peer });
                    }
                    Some(LivenessTransition::ConfirmedDead) => {
                        out.completions.push(Completion::PeerDead { peer });
                    }
                    None => {}
                }
            }
        }
    }

    /// A reliable exchange's ack window elapsed: retransmit the stored
    /// frame and re-arm with backoff, or give up after `max_attempts`
    /// sends. A stale timer (its session already acked) and a timer
    /// whose variant is not the one the session armed are both ignored.
    fn retry(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        msg_id: u64,
        fired: TimerKind,
        out: &mut Output,
    ) {
        let Some(session) = self.sessions.get_mut(&msg_id) else { return };
        if session.kind.timer(msg_id) != fired {
            return;
        }
        session.attempt += 1;
        let (attempt, peer, kind) = (session.attempt, session.peer, session.kind);
        let trace = session.out.env.trace_id;
        let resend = (attempt < self.policy.max_attempts).then(|| session.out.clone());
        env.bump(MessageKind::Timeout);
        self.note(env, now, trace, ObsEventKind::Timeout { what: kind.what(), attempt });
        if let Some(frame) = resend {
            let cost = env.distance(self.my_router(env), frame.to_addr.router_id());
            env.meter(kind.metered(), cost);
            out.outgoing.push(frame);
            let wait = self.retry_wait(peer, attempt);
            out.timers.push(Timer { at: now.plus(wait), kind: fired });
            return;
        }
        // Retries exhausted.
        self.sessions.remove(&msg_id);
        match kind {
            SessionKind::Hop { origin, route_id, target, after_failure } => {
                if env.is_mobile(peer) && !after_failure {
                    // The peer may have moved out from under us: retry
                    // through the stationary layer (the paper's recovery
                    // path), once.
                    env.bump(MessageKind::DiscoveryRetry);
                    let parked =
                        ParkedForward { origin, route_id, target, after_failure: true, trace };
                    self.start_discovery(now, env, peer, parked, out);
                } else {
                    self.note(env, now, trace, ObsEventKind::RouteFailed { route_id });
                    out.completions.push(Completion::RouteFailed {
                        origin,
                        route_id,
                        at: self.key,
                    });
                }
            }
            SessionKind::Update => out.completions.push(Completion::UpdateFailed { child: peer }),
            SessionKind::Register => {
                out.completions.push(Completion::RegisterFailed { target: peer })
            }
        }
    }

    fn discovery_retry(&mut self, now: SimTime, env: &mut dyn NodeEnv, sid: u64, out: &mut Output) {
        let Some(session) = self.discs.get_mut(&sid) else { return };
        session.attempt += 1;
        let (attempt, subject, trace) = (session.attempt, session.subject, session.trace);
        env.bump(MessageKind::Timeout);
        if attempt < self.policy.max_attempts {
            env.bump(MessageKind::DiscoveryRetry);
            self.note(env, now, trace, ObsEventKind::Timeout { what: "discovery", attempt });
            self.emit_discovery(env, sid, subject, trace, out);
            let fixed = self.policy.discovery_timeout;
            let key0 = self.key.0;
            let wait = match self.disc_est.as_mut() {
                None => backoff(fixed, attempt),
                Some(est) => {
                    est.on_timeout();
                    est.jittered_rto(key0)
                }
            };
            out.timers.push(Timer {
                at: now.plus(wait),
                kind: TimerKind::DiscoveryRetry { session: sid },
            });
            return;
        }
        let session = self.discs.remove(&sid).expect("session present");
        self.note(env, now, trace, ObsEventKind::Timeout { what: "discovery", attempt });
        self.finish_discovery(now, env, session, None, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::MockEnv;
    use bristle_netsim::rng::Pcg64;

    const A: Key = Key(10);
    const B: Key = Key(20);
    const M: Key = Key(30);

    fn policy() -> RetryPolicy {
        RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
    }

    fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    #[test]
    fn hop_ack_clears_retry() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, B);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(out.timers.len(), 1);
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1);
        assert_eq!(env.meter.cost(MessageKind::RouteHop), 4);
        let hop_id = out.outgoing[0].env.msg_id;
        let ack = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::HopAck { acked: hop_id },
            auth: None,
        };
        m.poll(t(10), Event::Deliver(ack), &mut env);
        assert_eq!(m.inflight(), 0);
        // The stale timer fires harmlessly.
        let out = m.poll(t(100), Event::Timer(TimerKind::HopRetry { msg_id: hop_id }), &mut env);
        assert!(out.outgoing.is_empty() && out.completions.is_empty());
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1, "no spurious resend");
        assert_eq!(env.meter.count(MessageKind::Timeout), 0);
    }

    #[test]
    fn unacked_hop_retries_with_backoff_then_fails() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B); // B is stationary: no rediscovery fallback
        let mut m = ProtoMachine::new(A, policy());
        let (route_id, out) = m.start_route(t(0), &mut env, B);
        let msg_id = out.outgoing[0].env.msg_id;
        assert_eq!(out.timers[0].at, t(100));

        let out1 = m.poll(t(100), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        assert_eq!(out1.outgoing.len(), 1, "first retransmit");
        assert_eq!(out1.outgoing[0].env.msg_id, msg_id, "retransmit reuses the msg id");
        assert_eq!(out1.timers[0].at, t(100 + 200), "exponential backoff");
        let out2 = m.poll(t(300), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        assert_eq!(out2.outgoing.len(), 1, "second retransmit... no: attempts exhausted");
        // max_attempts = 3: initial send + 2 retransmits? attempt counter
        // reaches 2 on this firing, 2 < 3 so it retransmits once more.
        let out3 = m.poll(t(900), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        assert_eq!(
            out3.completions,
            vec![Completion::RouteFailed { origin: A, route_id, at: A }],
            "third expiry gives up"
        );
        assert_eq!(env.meter.count(MessageKind::RouteHop), 3, "initial + 2 retransmits");
        assert_eq!(env.meter.count(MessageKind::Timeout), 3);
        assert_eq!(m.inflight(), 0);
    }

    #[test]
    fn duplicate_route_hop_forwards_once_but_reacks() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        // B owns the target: delivery completes there.
        let mut m = ProtoMachine::new(B, policy());
        let hop = Envelope {
            src: A,
            dst: B,
            msg_id: 7,
            trace_id: 0,
            msg: WireMessage::RouteHop { origin: A, route_id: 3, target: B },
            auth: None,
        };
        let out1 = m.poll(t(0), Event::Deliver(hop.clone()), &mut env);
        assert_eq!(out1.completions, vec![Completion::Delivered { origin: A, route_id: 3 }]);
        assert_eq!(out1.outgoing.len(), 1, "ack");
        let out2 = m.poll(t(1), Event::Deliver(hop), &mut env);
        assert!(out2.completions.is_empty(), "duplicate not re-delivered");
        assert_eq!(out2.outgoing.len(), 1, "but re-acked");
        assert!(matches!(out2.outgoing[0].env.msg, WireMessage::HopAck { acked: 7 }));
    }

    #[test]
    fn unresolved_mobile_next_hop_triggers_discovery_then_forwards() {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, M);
        assert_eq!(out.outgoing.len(), 1);
        let sent = &out.outgoing[0];
        assert!(
            matches!(sent.env.msg, WireMessage::Discovery { subject, probe: None, .. } if subject == M),
            "no believed address: discovery first, got {:?}",
            sent.env.msg
        );
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "injection hop metered");
        assert_eq!(env.meter.count(MessageKind::RouteHop), 0, "no forward yet");
        let sid = match sent.env.msg {
            WireMessage::Discovery { session, .. } => session,
            _ => unreachable!(),
        };
        // The stationary layer answers with M's address.
        let m_addr = env.current_addr(M);
        let reply = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::DiscoveryReply { subject: M, session: sid, addr: Some(m_addr) },
            auth: None,
        };
        let out = m.poll(t(50), Event::Deliver(reply), &mut env);
        assert!(out.completions.contains(&Completion::Resolved { subject: M }));
        assert_eq!(env.resolutions, vec![(A, M, m_addr)]);
        assert_eq!(out.outgoing.len(), 1);
        assert!(
            matches!(out.outgoing[0].env.msg, WireMessage::RouteHop { target, .. } if target == M)
        );
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1, "forward after resolution");
        assert_eq!(env.meter.cost(MessageKind::RouteHop), 8, "|1 - 9|");
    }

    #[test]
    fn stale_belief_meters_wasted_attempt_before_discovery() {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        // A confidently believes a stale address (epoch 0 no longer valid).
        let stale = WireAddr { host: 3, router: 2, epoch: 0 };
        env.valid.remove(&(3, 0));
        env.believed.insert((A, M), stale);
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, M);
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1, "wasted stale attempt metered");
        assert_eq!(env.meter.cost(MessageKind::RouteHop), 1, "|1 - 2|");
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "then discovery");
        assert_eq!(out.outgoing.len(), 1, "only the discovery actually travels");
    }

    #[test]
    fn discovery_timeout_retries_then_gives_up_via_oracle() {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, M);
        let sid = match out.outgoing[0].env.msg {
            WireMessage::Discovery { session, .. } => session,
            ref other => panic!("expected discovery, got {other:?}"),
        };
        assert_eq!(out.timers[0].at, t(1000));

        let o1 =
            m.poll(t(1000), Event::Timer(TimerKind::DiscoveryRetry { session: sid }), &mut env);
        assert_eq!(o1.outgoing.len(), 1, "re-issued");
        assert_eq!(o1.timers[0].at, t(1000 + 2000), "backoff doubles");
        assert_eq!(env.meter.count(MessageKind::DiscoveryRetry), 1);
        let o2 =
            m.poll(t(3000), Event::Timer(TimerKind::DiscoveryRetry { session: sid }), &mut env);
        assert_eq!(o2.outgoing.len(), 1);
        let o3 =
            m.poll(t(9000), Event::Timer(TimerKind::DiscoveryRetry { session: sid }), &mut env);
        assert!(o3.completions.contains(&Completion::ResolutionFailed { subject: M }));
        // Gives up on resolving but still forwards to the true address.
        assert_eq!(o3.outgoing.len(), 1);
        assert!(matches!(o3.outgoing[0].env.msg, WireMessage::RouteHop { .. }));
        assert_eq!(env.meter.count(MessageKind::DiscoveryRetry), 2);
        assert_eq!(env.meter.count(MessageKind::Timeout), 3);
    }

    #[test]
    fn stationary_node_routes_discovery_and_owner_replies() {
        let s1 = Key(100);
        let s2 = Key(200);
        let mut env = MockEnv::default()
            .with_node(s1, 1, 2)
            .with_node(s2, 2, 6)
            .with_node(A, 3, 1)
            .with_node(M, 4, 9)
            .mobile(M);
        env.stat_hops.insert((s1, M), s2);
        // s2 owns M's record.
        let m_addr = env.current_addr(M);
        env.records.insert((s2, M), m_addr);

        let mut m1 = ProtoMachine::new(s1, policy());
        let q = Envelope {
            src: A,
            dst: s1,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::Discovery { subject: M, asker: A, session: 9, probe: None },
            auth: None,
        };
        let out = m1.poll(t(0), Event::Deliver(q), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(out.outgoing[0].env.dst, s2, "forwarded toward the owner");
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1);

        let mut m2 = ProtoMachine::new(s2, policy());
        let out = m2.poll(t(1), Event::Deliver(out.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(
            matches!(
                out.outgoing[0].env.msg,
                WireMessage::DiscoveryReply { addr: Some(a), session: 9, .. } if a == m_addr
            ),
            "owner replies with the record"
        );
        assert_eq!(out.outgoing[0].env.dst, A);
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 2, "reply metered");
    }

    #[test]
    fn owner_miss_probes_replicas_then_terminus_answers() {
        let s1 = Key(100);
        let s2 = Key(200);
        let mut env =
            MockEnv::default().with_node(s1, 1, 2).with_node(s2, 2, 6).with_node(A, 3, 1).mobile(M);
        env.replica_sets.insert(M, vec![s1, s2]);

        // s1 is the terminus (owns M) but has no record: probes s2.
        let mut m1 = ProtoMachine::new(s1, policy());
        let q = Envelope {
            src: A,
            dst: s1,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::Discovery { subject: M, asker: A, session: 4, probe: None },
            auth: None,
        };
        let out = m1.poll(t(0), Event::Deliver(q), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(
            matches!(out.outgoing[0].env.msg, WireMessage::Discovery { probe: Some(p), .. } if p == s1)
        );
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "probe hop metered");

        // s2 also misses: chain exhausted, unmetered ProbeMiss to terminus.
        let mut m2 = ProtoMachine::new(s2, policy());
        let out = m2.poll(t(1), Event::Deliver(out.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::ProbeMiss { .. }));
        assert_eq!(out.outgoing[0].env.dst, s1);
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "probe-miss is unmetered");

        // The terminus answers the asker with a miss, metered from itself.
        let out = m1.poll(t(2), Event::Deliver(out.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::DiscoveryReply { addr: None, .. }));
        assert_eq!(out.outgoing[0].env.dst, A);
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 2);
    }

    #[test]
    fn update_applies_once_acks_twice_and_retries_bounded() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let addr = env.current_addr(A);
        let mut sender = ProtoMachine::new(A, policy());
        let out = sender.start_update(t(0), &mut env, A, addr, 3, &[B]);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(env.meter.count(MessageKind::Update), 1);
        let update = out.outgoing[0].env.clone();
        let msg_id = update.msg_id;

        let mut receiver = ProtoMachine::new(B, policy());
        let r1 = receiver.poll(t(5), Event::Deliver(update.clone()), &mut env);
        assert_eq!(env.updates, vec![(B, A, 3)]);
        assert!(matches!(r1.outgoing[0].env.msg, WireMessage::UpdateAck { .. }));
        let r2 = receiver.poll(t(6), Event::Deliver(update), &mut env);
        assert_eq!(env.updates.len(), 1, "duplicate update not re-applied");
        assert_eq!(r2.outgoing.len(), 1, "but re-acked");

        // Sender: ack completes the edge.
        let out = sender.poll(t(7), Event::Deliver(r1.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::UpdateAcked { child: B }]);
        assert_eq!(sender.inflight(), 0);

        // A second, never-acked edge exhausts its retries.
        let out = sender.start_update(t(100), &mut env, A, addr, 4, &[B]);
        let id2 = out.outgoing[0].env.msg_id;
        assert_ne!(id2, msg_id);
        sender.poll(t(200), Event::Timer(TimerKind::UpdateRetry { msg_id: id2 }), &mut env);
        sender.poll(t(400), Event::Timer(TimerKind::UpdateRetry { msg_id: id2 }), &mut env);
        let out =
            sender.poll(t(900), Event::Timer(TimerKind::UpdateRetry { msg_id: id2 }), &mut env);
        assert_eq!(out.completions, vec![Completion::UpdateFailed { child: B }]);
        assert_eq!(env.meter.count(MessageKind::Update), 1 + 3, "initial x2 + 2 retransmits");
        assert_eq!(env.meter.count(MessageKind::Timeout), 3);
    }

    #[test]
    fn register_commits_lease_on_ack() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(M, 3, 9).mobile(M);
        let mut who = ProtoMachine::new(A, policy());
        let out = who.start_register(t(0), &mut env, M, 12);
        assert_eq!(env.meter.count(MessageKind::Register), 1);
        assert_eq!(env.meter.cost(MessageKind::Register), 8);
        let reg = out.outgoing[0].env.clone();

        let mut target = ProtoMachine::new(M, policy());
        let r = target.poll(t(1), Event::Deliver(reg), &mut env);
        assert_eq!(env.registered, vec![(M, A, 12)]);
        let out = who.poll(t(2), Event::Deliver(r.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::Registered { target: M }]);
        assert_eq!(env.committed, vec![(A, M)], "lease granted only after the ack");
    }

    #[test]
    fn delivery_at_owner_completes_without_forwarding() {
        let mut env = MockEnv::default().with_node(A, 1, 1);
        let mut m = ProtoMachine::new(A, policy());
        // A owns the target: next_hop_mobile returns None.
        let (route_id, out) = m.start_route(t(0), &mut env, Key(999));
        assert_eq!(out.completions, vec![Completion::Delivered { origin: A, route_id }]);
        assert!(out.outgoing.is_empty());
        assert_eq!(env.meter.total_messages(), 0);
    }

    #[test]
    fn hop_failure_to_mobile_peer_falls_back_to_discovery_once() {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        env.believed.insert((A, M), env.current_addr(M)); // valid belief
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, M);
        let msg_id = out.outgoing[0].env.msg_id;
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::RouteHop { .. }));

        // Exhaust the hop retries without an ack.
        m.poll(t(100), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        m.poll(t(300), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        let out = m.poll(t(900), Event::Timer(TimerKind::HopRetry { msg_id }), &mut env);
        assert!(out.completions.is_empty(), "mobile peer: not a failure yet");
        assert_eq!(out.outgoing.len(), 1);
        assert!(
            matches!(out.outgoing[0].env.msg, WireMessage::Discovery { subject, .. } if subject == M),
            "falls back to the stationary layer"
        );
        assert_eq!(env.meter.count(MessageKind::DiscoveryRetry), 1);

        // Resolution succeeds; the re-sent hop fails again -> final.
        let sid = match out.outgoing[0].env.msg {
            WireMessage::Discovery { session, .. } => session,
            _ => unreachable!(),
        };
        let reply = Envelope {
            src: B,
            dst: A,
            msg_id: 50,
            trace_id: 0,
            msg: WireMessage::DiscoveryReply {
                subject: M,
                session: sid,
                addr: Some(env.current_addr(M)),
            },
            auth: None,
        };
        let out = m.poll(t(1000), Event::Deliver(reply), &mut env);
        let id2 = out.outgoing[0].env.msg_id;
        m.poll(t(1100), Event::Timer(TimerKind::HopRetry { msg_id: id2 }), &mut env);
        m.poll(t(1300), Event::Timer(TimerKind::HopRetry { msg_id: id2 }), &mut env);
        let out = m.poll(t(1900), Event::Timer(TimerKind::HopRetry { msg_id: id2 }), &mut env);
        assert_eq!(out.completions.len(), 1);
        assert!(
            matches!(out.completions[0], Completion::RouteFailed { .. }),
            "second failure is final"
        );
    }

    #[test]
    fn concurrent_forwards_share_one_discovery_session() {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, M), M);
        env.mobile_hops.insert((A, Key(31)), M);
        env.entries.insert(A, B);
        let mut m = ProtoMachine::new(A, policy());
        let (_, o1) = m.start_route(t(0), &mut env, M);
        let (_, o2) = m.start_route(t(1), &mut env, Key(31));
        assert_eq!(o1.outgoing.len(), 1);
        assert!(o2.outgoing.is_empty(), "second forward joins the in-flight session");
        assert_eq!(m.inflight(), 1);
        let sid = match o1.outgoing[0].env.msg {
            WireMessage::Discovery { session, .. } => session,
            _ => unreachable!(),
        };
        let reply = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::DiscoveryReply {
                subject: M,
                session: sid,
                addr: Some(env.current_addr(M)),
            },
            auth: None,
        };
        let out = m.poll(t(10), Event::Deliver(reply), &mut env);
        assert_eq!(out.outgoing.len(), 2, "both parked forwards resume");
    }

    #[test]
    fn heartbeat_round_trip_keeps_peer_fresh() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        let mut target = ProtoMachine::new(B, policy());
        prober.monitor(B);
        let out = prober.start_heartbeats(t(0), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(env.meter.count(MessageKind::HeartbeatSent), 1);
        assert_eq!(env.meter.cost(MessageKind::HeartbeatSent), 4, "|1 - 5|");
        let hb = out.outgoing[0].env.clone();
        let timer = out.timers[0].kind;

        // The target acks (unmetered), including on a duplicate.
        let r1 = target.poll(t(1), Event::Deliver(hb.clone()), &mut env);
        assert!(matches!(r1.outgoing[0].env.msg, WireMessage::HeartbeatAck { seq: 0, .. }));
        let r2 = target.poll(t(2), Event::Deliver(hb), &mut env);
        assert_eq!(r2.outgoing.len(), 1, "duplicate heartbeat re-acked");
        assert_eq!(env.meter.total_messages(), 1, "only the probe itself is metered");

        let out = prober.poll(t(3), Event::Deliver(r1.outgoing[0].env.clone()), &mut env);
        assert!(out.completions.is_empty());
        assert_eq!(prober.liveness(B), Some(Liveness::Fresh));
        // The stale ack window fires harmlessly.
        let out = prober.poll(t(100), Event::Timer(timer), &mut env);
        assert!(out.outgoing.is_empty() && out.completions.is_empty());
        assert_eq!(env.meter.count(MessageKind::Timeout), 0);
    }

    #[test]
    fn silent_peer_is_suspected_then_condemned() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        prober.set_failure_policy(FailurePolicy {
            ack_wait: 100,
            probe_attempts: 2,
            suspect_after: 1,
            dead_after: 2,
            grace_misses: 0,
        });
        prober.monitor(B);

        // Round 1: probe, retransmit, miss -> suspect.
        let out = prober.start_heartbeats(t(0), &mut env);
        let timer = out.timers[0].kind;
        let o1 = prober.poll(t(100), Event::Timer(timer), &mut env);
        assert_eq!(o1.outgoing.len(), 1, "retransmission");
        assert_eq!(env.meter.count(MessageKind::HeartbeatSent), 2);
        let o2 = prober.poll(t(300), Event::Timer(o1.timers[0].kind), &mut env);
        assert_eq!(o2.completions, vec![Completion::PeerSuspected { peer: B }]);
        assert_eq!(env.meter.count(MessageKind::SuspectRaised), 1);
        assert_eq!(prober.liveness(B), Some(Liveness::Suspect));

        // Round 2: another full miss -> dead.
        let out = prober.start_heartbeats(t(1000), &mut env);
        let timer = out.timers[0].kind;
        let o1 = prober.poll(t(1100), Event::Timer(timer), &mut env);
        let o2 = prober.poll(t(1300), Event::Timer(o1.timers[0].kind), &mut env);
        assert_eq!(o2.completions, vec![Completion::PeerDead { peer: B }]);
        assert_eq!(prober.liveness(B), Some(Liveness::Dead));

        // Dead peers are no longer probed.
        let out = prober.start_heartbeats(t(2000), &mut env);
        assert!(out.outgoing.is_empty());
    }

    #[test]
    fn suspect_notify_marks_dead_once() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut origin = ProtoMachine::new(A, policy());
        let mut receiver = ProtoMachine::new(B, policy());
        receiver.monitor(M);
        let out = origin.notify_suspect(t(0), &mut env, B, M);
        assert_eq!(env.meter.total_messages(), 0, "verdict spreading is unmetered");
        let notice = out.outgoing[0].env.clone();
        let r1 = receiver.poll(t(0), Event::Deliver(notice.clone()), &mut env);
        assert_eq!(r1.completions, vec![Completion::PeerDead { peer: M }]);
        assert_eq!(receiver.liveness(M), Some(Liveness::Dead));
        let r2 = receiver.poll(t(1), Event::Deliver(notice), &mut env);
        assert!(r2.completions.is_empty(), "duplicate notice is news only once");
    }

    /// The full wrongful-death recovery handshake at machine level: a
    /// third-party verdict condemns a live peer; after the partition
    /// heals, the zombie's probe is answered with its own obituary, it
    /// bumps its incarnation and refutes, and the refutation overturns
    /// the verdict at the accuser.
    #[test]
    fn healed_zombie_refutes_and_is_resurrected() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9);
        let mut a = ProtoMachine::new(A, policy());
        let mut b = ProtoMachine::new(B, policy());
        let mut herald = ProtoMachine::new(M, policy());
        a.monitor(B);
        b.monitor(A);

        // A third party convinces A that B is dead (wrongfully: B is
        // merely beyond a partition).
        let notice = herald.notify_suspect(t(0), &mut env, A, B).outgoing[0].env.clone();
        a.poll(t(0), Event::Deliver(notice), &mut env);
        assert_eq!(a.liveness(B), Some(Liveness::Dead));

        // The cut heals; B's next probe reaches A, which answers with
        // B's obituary instead of an ack.
        let probe = b.start_heartbeats(t(10), &mut env).outgoing[0].env.clone();
        let out = a.poll(t(11), Event::Deliver(probe), &mut env);
        let obituary = out.outgoing[0].env.clone();
        assert!(
            matches!(obituary.msg, WireMessage::SuspectNotify { suspect, .. } if suspect == B),
            "a dead peer's probe is answered with its obituary: {obituary:?}"
        );

        // B learns of its own funeral: bumps its incarnation, refutes.
        let out = b.poll(t(12), Event::Deliver(obituary), &mut env);
        assert_eq!(b.incarnation(), 1);
        assert_eq!(out.completions, vec![Completion::SelfRefuted { accuser: A, incarnation: 1 }]);
        let refutation = out.outgoing[0].env.clone();
        assert!(matches!(refutation.msg, WireMessage::Alive { node, incarnation: 1 } if node == B));
        assert_eq!(env.meter.count(MessageKind::Refutation), 1);

        // The refutation resurrects B at A.
        let out = a.poll(t(13), Event::Deliver(refutation), &mut env);
        assert_eq!(
            out.completions,
            vec![Completion::PeerRefuted { peer: B, incarnation: 1, was_dead: true }]
        );
        assert_eq!(a.liveness(B), Some(Liveness::Fresh));
        assert_eq!(env.meter.count(MessageKind::WrongfulDeath), 1);
        assert_eq!(a.start_heartbeats(t(20), &mut env).outgoing.len(), 1, "B is probed again");
    }

    #[test]
    fn rejoin_round_trip_completes() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut rejoiner = ProtoMachine::new(A, policy());
        let mut sponsor = ProtoMachine::new(B, policy());
        // A's funeral was charged to incarnation 0; learning of it bumps.
        let notice = sponsor.notify_suspect(t(0), &mut env, A, A).outgoing[0].env.clone();
        rejoiner.poll(t(0), Event::Deliver(notice), &mut env);
        assert_eq!(rejoiner.incarnation(), 1);

        let ask = rejoiner.start_rejoin(t(1), &mut env, B).outgoing[0].env.clone();
        assert_eq!(env.meter.count(MessageKind::Rejoin), 1);
        let out = sponsor.poll(t(1), Event::Deliver(ask.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::RejoinRequested { peer: A, incarnation: 1 }]);
        let ack = out.outgoing[0].env.clone();
        // A duplicated ask re-acks without re-announcing the request.
        let dup = sponsor.poll(t(2), Event::Deliver(ask), &mut env);
        assert!(dup.completions.is_empty());
        assert_eq!(dup.outgoing.len(), 1, "duplicate rejoin is re-acked");

        let out = rejoiner.poll(t(3), Event::Deliver(ack), &mut env);
        assert_eq!(out.completions, vec![Completion::RejoinCompleted { sponsor: B }]);
    }

    #[test]
    fn stale_incarnation_does_not_resurrect() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut a = ProtoMachine::new(A, policy());
        let mut herald = ProtoMachine::new(B, policy());
        a.monitor(M);
        // M observed alive at incarnation 2, then condemned at 2.
        let alive = Envelope {
            src: B,
            dst: A,
            msg_id: 50,
            trace_id: 0,
            msg: WireMessage::Alive { node: M, incarnation: 2 },
            auth: None,
        };
        a.poll(t(0), Event::Deliver(alive), &mut env);
        let notice = herald.notify_suspect(t(1), &mut env, A, M).outgoing[0].env.clone();
        // The herald never saw M, so its verdict is charged to
        // incarnation 0 — stale against A's knowledge.
        a.poll(t(1), Event::Deliver(notice), &mut env);
        assert_eq!(a.liveness(M), Some(Liveness::Fresh), "stale verdict is ignored");
        // An Alive at the already-known incarnation changes nothing.
        let stale_alive = Envelope {
            src: B,
            dst: A,
            msg_id: 51,
            trace_id: 0,
            msg: WireMessage::Alive { node: M, incarnation: 2 },
            auth: None,
        };
        let out = a.poll(t(2), Event::Deliver(stale_alive), &mut env);
        assert!(out.completions.is_empty());
    }

    // -----------------------------------------------------------------
    // Frame authentication
    // -----------------------------------------------------------------

    #[test]
    fn sealed_register_round_trip_verifies_under_enforcement() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(M, 3, 9).mobile(M);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut who = ProtoMachine::new(A, policy());
        let out = who.start_register(t(0), &mut env, M, 12);
        let reg = out.outgoing[0].env.clone();
        assert!(reg.auth.is_some(), "the register travels sealed");

        let mut target = ProtoMachine::new(M, policy());
        let r = target.poll(t(1), Event::Deliver(reg), &mut env);
        assert_eq!(env.registered, vec![(M, A, 12)]);
        assert!(r.outgoing[0].env.auth.is_some(), "the ack travels sealed too");
        let out = who.poll(t(2), Event::Deliver(r.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::Registered { target: M }]);
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0);
    }

    #[test]
    fn forged_alive_dropped_under_enforcement_but_digested_log_only() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut a = ProtoMachine::new(A, policy());
        a.monitor(M);
        // An adversary refutes on M's behalf: the pubkey certifies M but
        // the tag was minted without M's secret.
        let forged = Envelope {
            src: B,
            dst: A,
            msg_id: 9,
            trace_id: 0,
            msg: WireMessage::Alive { node: M, incarnation: 7 },
            auth: Some(AuthDomain::forged(M)),
        };
        let out = a.poll(t(0), Event::Deliver(forged.clone()), &mut env);
        assert!(out.completions.is_empty() && out.outgoing.is_empty());
        assert_eq!(a.peer_incarnation(M), Some(0), "forged evidence never digested");
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);

        env.vpolicy = VerifyPolicy::LogOnly;
        a.poll(t(1), Event::Deliver(forged), &mut env);
        assert_eq!(a.peer_incarnation(M), Some(7), "log-only meters but still digests");
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 2);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1, "nothing more dropped");
    }

    #[test]
    fn unsigned_verdict_rejected_when_enforcing() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut a = ProtoMachine::new(A, policy());
        a.monitor(M);
        let bare = Envelope {
            src: B,
            dst: A,
            msg_id: 4,
            trace_id: 0,
            msg: WireMessage::SuspectNotify { suspect: M, incarnation: 0 },
            auth: None,
        };
        let out = a.poll(t(0), Event::Deliver(bare), &mut env);
        assert!(out.completions.is_empty());
        assert_eq!(a.liveness(M), Some(Liveness::Fresh), "untagged verdict ignored");
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);
    }

    #[test]
    fn replayed_publish_with_valid_signature_rejected_as_stale() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(M, 3, 9).mobile(M);
        let domain = AuthDomain::new(8);
        env.domain = Some(domain);
        env.vpolicy = VerifyPolicy::Enforce;
        env.stale_subjects.insert(M);
        let mut holder = ProtoMachine::new(A, policy());
        // The signature is genuinely M's — replayed from before the
        // withdrawal — so only the freshness check can reject it.
        let msg = WireMessage::Publish {
            subject: M,
            addr: WireAddr { host: 3, router: 9, epoch: 0 },
            seq: 1,
        };
        let auth = Some(domain.sign(M, msg.auth_digest()));
        let replay = Envelope { src: M, dst: A, msg_id: 5, trace_id: 0, msg, auth };
        holder.poll(t(0), Event::Deliver(replay.clone()), &mut env);
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);

        // The same frame for a live subject sails through.
        env.stale_subjects.clear();
        holder.poll(t(1), Event::Deliver(replay), &mut env);
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1, "fresh record accepted");
    }

    /// The PR-5 wrongful-death handshake, replayed end to end with
    /// enforcement on: every authority-bearing frame travels sealed and
    /// the honest exchange never trips the gate.
    #[test]
    fn refutation_round_trip_survives_enforcement() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut a = ProtoMachine::new(A, policy());
        let mut b = ProtoMachine::new(B, policy());
        let mut herald = ProtoMachine::new(M, policy());
        a.monitor(B);
        b.monitor(A);

        let notice = herald.notify_suspect(t(0), &mut env, A, B).outgoing[0].env.clone();
        assert!(notice.auth.is_some(), "verdicts travel sealed");
        a.poll(t(0), Event::Deliver(notice), &mut env);
        assert_eq!(a.liveness(B), Some(Liveness::Dead));

        let probe = b.start_heartbeats(t(10), &mut env).outgoing[0].env.clone();
        assert!(probe.auth.is_none(), "heartbeats are unauthenticated kinds");
        let obituary = a.poll(t(11), Event::Deliver(probe), &mut env).outgoing[0].env.clone();
        assert!(obituary.auth.is_some(), "the zombie-path obituary is sealed");
        let refutation = b.poll(t(12), Event::Deliver(obituary), &mut env).outgoing[0].env.clone();
        assert!(refutation.auth.is_some(), "the Alive refutation is sealed");
        let out = a.poll(t(13), Event::Deliver(refutation), &mut env);
        assert_eq!(
            out.completions,
            vec![Completion::PeerRefuted { peer: B, incarnation: 1, was_dead: true }]
        );
        assert_eq!(a.liveness(B), Some(Liveness::Fresh));
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0, "honest traffic never rejected");
    }

    #[test]
    fn backoff_shifts_saturate_and_clamp() {
        assert_eq!(backoff(100, 0), 100);
        assert_eq!(backoff(100, 1), 200);
        assert_eq!(backoff(100, 3), 800);
        assert_eq!(backoff(100, 60), MAX_BACKOFF, "deep chains hit the ceiling");
        assert_eq!(backoff(100, 64), MAX_BACKOFF, "shift past the word width saturates");
        assert_eq!(backoff(100, u32::MAX), MAX_BACKOFF);
        assert_eq!(backoff(u64::MAX, 1), MAX_BACKOFF, "multiplication never overflows");
        assert_eq!(backoff(0, 7), 0);
    }

    fn small_rto() -> RtoConfig {
        RtoConfig { min_rto: 10, max_rto: 10_000, initial_rto: 100, jitter_frac: 0 }
    }

    #[test]
    fn adaptive_rto_learns_from_hop_acks_and_rearms_with_the_estimate() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        m.set_adaptive_rto(Some(small_rto()));

        // No samples yet: the first hop arms at the initial RTO, not
        // the fixed policy timeout.
        let (_, out) = m.start_route(t(0), &mut env, B);
        assert_eq!(out.timers[0].at, t(100), "initial RTO before any sample");
        let hop_id = out.outgoing[0].env.msg_id;
        let ack = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::HopAck { acked: hop_id },
            auth: None,
        };
        m.poll(t(30), Event::Deliver(ack), &mut env);
        // rtt = 30: srtt8 = 240, rttvar4 = 60, rto = 30 + 60 = 90.
        assert_eq!(m.rto_estimate(B), Some(90));
        let (_, out) = m.start_route(t(1000), &mut env, B);
        assert_eq!(out.timers[0].at, t(1090), "next hop arms with the learned RTO");
    }

    #[test]
    fn karn_backoff_doubles_the_adaptive_retry_wait() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        m.set_adaptive_rto(Some(small_rto()));
        let (_, out) = m.start_route(t(0), &mut env, B);
        let timer = out.timers[0].kind;
        assert_eq!(out.timers[0].at, t(100));
        // First timeout: retransmit, estimator backoff doubles the RTO.
        let out = m.poll(t(100), Event::Timer(timer), &mut env);
        assert_eq!(out.outgoing.len(), 1, "retransmission");
        assert_eq!(out.timers[0].at, t(100 + 200), "Karn backoff doubled the wait");
    }

    /// The reliable exchanges, each opened at `A`: a hop to a stationary
    /// and to a mobile peer, an update to a child, a registration.
    #[derive(Debug, Clone, Copy)]
    enum Exchange {
        HopTo(Key),
        Update,
        Register,
    }

    const EXCHANGES: [Exchange; 4] =
        [Exchange::HopTo(B), Exchange::HopTo(M), Exchange::Update, Exchange::Register];

    /// What the one send path owes each exchange.
    struct Expect {
        peer: Key,
        metered: MessageKind,
        timer: fn(u64) -> TimerKind,
        ack: fn(u64) -> WireMessage,
        acked: Option<Completion>,
        failed: Option<Completion>,
    }

    fn world() -> MockEnv {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, B), B);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        env.believed.insert((A, M), env.current_addr(M)); // valid belief
        env
    }

    fn open(
        x: Exchange,
        m: &mut ProtoMachine,
        env: &mut MockEnv,
        now: SimTime,
    ) -> (Output, Expect) {
        let hop = |peer, failed| Expect {
            peer,
            metered: MessageKind::RouteHop,
            timer: |msg_id| TimerKind::HopRetry { msg_id },
            ack: |acked| WireMessage::HopAck { acked },
            acked: None,
            failed,
        };
        match x {
            Exchange::HopTo(peer) => {
                let (route_id, out) = m.start_route(now, env, peer);
                // A mobile peer is re-resolved once before the route fails.
                let failed = Completion::RouteFailed { origin: A, route_id, at: A };
                (out, hop(peer, (peer != M).then_some(failed)))
            }
            Exchange::Update => {
                let addr = env.current_addr(A);
                let expect = Expect {
                    peer: B,
                    metered: MessageKind::Update,
                    timer: |msg_id| TimerKind::UpdateRetry { msg_id },
                    ack: |acked| WireMessage::UpdateAck { acked },
                    acked: Some(Completion::UpdateAcked { child: B }),
                    failed: Some(Completion::UpdateFailed { child: B }),
                };
                (m.start_update(now, env, A, addr, 1, &[B]), expect)
            }
            Exchange::Register => {
                let expect = Expect {
                    peer: M,
                    metered: MessageKind::Register,
                    timer: |msg_id| TimerKind::RegisterRetry { msg_id },
                    ack: |acked| WireMessage::RegisterAck { acked },
                    acked: Some(Completion::Registered { target: M }),
                    failed: Some(Completion::RegisterFailed { target: M }),
                };
                (m.start_register(now, env, M, 4), expect)
            }
        }
    }

    const METERED: [MessageKind; 3] =
        [MessageKind::RouteHop, MessageKind::Update, MessageKind::Register];

    /// The same lost-ack ladder over every exchange, on fixed and on
    /// adaptive timers: one frame, retransmitted verbatim, metered as
    /// its own kind, re-armed under its own timer, given up on after
    /// `max_attempts` sends.
    #[test]
    fn lost_ack_ladder_is_one_mechanism_over_every_exchange() {
        // Fixed: 100 << attempt. Adaptive: initial RTO 60, Karn-doubled.
        let rto = RtoConfig { initial_rto: 60, ..small_rto() };
        for (adaptive, waits) in [(None, [100, 200, 400]), (Some(rto), [60, 120, 240])] {
            for x in EXCHANGES {
                let ctx = format!("{x:?}, adaptive {}", adaptive.is_some());
                let mut env = world();
                let mut m = ProtoMachine::new(A, policy());
                m.set_adaptive_rto(adaptive);
                let (out, want) = open(x, &mut m, &mut env, t(0));
                assert_eq!(out.outgoing.len(), 1, "{ctx}");
                let frame = out.outgoing[0].clone();
                assert_eq!(frame.env.dst, want.peer, "{ctx}");
                let timer = (want.timer)(frame.env.msg_id);
                let mut now = 0;
                let mut armed = out.timers;
                for (fired, wait) in waits.into_iter().enumerate() {
                    now += wait;
                    assert_eq!(armed, vec![Timer { at: t(now), kind: timer }], "{ctx}");
                    assert_eq!(m.inflight(), 1, "{ctx}");
                    let out = m.poll(t(now), Event::Timer(timer), &mut env);
                    assert_eq!(env.meter.count(MessageKind::Timeout), fired as u64 + 1, "{ctx}");
                    if fired < 2 {
                        assert_eq!(out.outgoing, vec![frame.clone()], "{ctx}: verbatim");
                        assert!(out.completions.is_empty(), "{ctx}");
                    }
                    armed = out.timers;
                    if fired == 2 {
                        // Exhausted after three sends, all metered alike.
                        for kind in METERED {
                            let sends = if kind == want.metered { 3 } else { 0 };
                            assert_eq!(env.meter.count(kind), sends, "{ctx}: {kind:?}");
                        }
                        match want.failed {
                            Some(failure) => {
                                assert_eq!(out.completions, vec![failure], "{ctx}");
                                assert!(out.outgoing.is_empty() && armed.is_empty(), "{ctx}");
                                assert_eq!(m.inflight(), 0, "{ctx}");
                            }
                            None => {
                                // The single `_discovery` fallback.
                                assert!(out.completions.is_empty(), "{ctx}");
                                assert!(
                                    matches!(out.outgoing[0].env.msg, WireMessage::Discovery { subject, .. } if subject == M),
                                    "{ctx}"
                                );
                                assert_eq!(
                                    env.meter.count(MessageKind::DiscoveryRetry),
                                    1,
                                    "{ctx}"
                                );
                                assert!(
                                    matches!(armed[0].kind, TimerKind::DiscoveryRetry { .. }),
                                    "{ctx}"
                                );
                                assert_eq!(m.inflight(), 1, "{ctx}: the discovery session");
                            }
                        }
                    }
                }
            }
        }
    }

    /// An ack closes a session only when it is the session's kind of
    /// ack *and* comes from the peer the frame went to; a retry timer
    /// acts only when it is the variant the session armed. Anything else
    /// leaves the session open and silent, the real timer still fires,
    /// and the honest ack still closes it.
    #[test]
    fn hostile_acks_and_mismatched_timers_leave_sessions_open() {
        let third = Key(99);
        for x in EXCHANGES {
            let mut env = world().with_node(third, 9, 3);
            // Enforcement does not help: a `RegisterAck` is signed by
            // whoever sends it, so the third party's verifies.
            let domain = AuthDomain::new(8);
            env.domain = Some(domain);
            env.vpolicy = VerifyPolicy::Enforce;
            let mut m = ProtoMachine::new(A, policy());
            let (out, want) = open(x, &mut m, &mut env, t(0));
            let msg_id = out.outgoing[0].env.msg_id;
            let timer = (want.timer)(msg_id);
            let ack_from = |src: Key, msg: WireMessage| {
                let auth = matches!(msg, WireMessage::RegisterAck { .. })
                    .then(|| domain.sign(src, msg.auth_digest()));
                Envelope { src, dst: A, msg_id: 0, trace_id: 0, msg, auth }
            };
            let wrong_acks: [fn(u64) -> WireMessage; 2] = match x {
                Exchange::HopTo(_) => [
                    |acked| WireMessage::UpdateAck { acked },
                    |acked| WireMessage::RegisterAck { acked },
                ],
                Exchange::Update => [
                    |acked| WireMessage::HopAck { acked },
                    |acked| WireMessage::RegisterAck { acked },
                ],
                Exchange::Register => [
                    |acked| WireMessage::HopAck { acked },
                    |acked| WireMessage::UpdateAck { acked },
                ],
            };
            let mut hostile = vec![Event::Deliver(ack_from(third, (want.ack)(msg_id)))];
            hostile.extend(wrong_acks.map(|ack| Event::Deliver(ack_from(want.peer, ack(msg_id)))));
            for wrong_timer in [
                TimerKind::HopRetry { msg_id },
                TimerKind::UpdateRetry { msg_id },
                TimerKind::RegisterRetry { msg_id },
            ] {
                if wrong_timer != timer {
                    hostile.push(Event::Timer(wrong_timer));
                }
            }
            let events_before = env.events.len();
            for (i, event) in hostile.into_iter().enumerate() {
                let out = m.poll(t(10), event, &mut env);
                let ctx = format!("{x:?}, hostile event {i}");
                assert!(out.outgoing.is_empty() && out.timers.is_empty(), "{ctx}");
                assert!(out.completions.is_empty(), "{ctx}");
                assert_eq!(m.inflight(), 1, "{ctx}: session still open");
            }
            assert_eq!(env.events.len(), events_before, "{x:?}: nothing emitted");
            assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0, "{x:?}: all verified");
            assert_eq!(env.meter.count(MessageKind::Timeout), 0, "{x:?}");
            assert!(env.committed.is_empty(), "{x:?}: no lease from a stranger's ack");
            assert_eq!(m.rto_estimate(want.peer), None, "{x:?}");

            // The ladder is intact: first expiry, first retransmission.
            let out = m.poll(t(100), Event::Timer(timer), &mut env);
            assert_eq!(out.outgoing.len(), 1, "{x:?}: the real timer still fires");
            assert_eq!(out.timers, vec![Timer { at: t(300), kind: timer }], "{x:?}");
            // And the honest ack closes the session.
            let out =
                m.poll(t(110), Event::Deliver(ack_from(want.peer, (want.ack)(msg_id))), &mut env);
            assert_eq!(out.completions, Vec::from_iter(want.acked), "{x:?}");
            assert_eq!(m.inflight(), 0, "{x:?}");
            assert_eq!(env.committed.len(), usize::from(matches!(x, Exchange::Register)), "{x:?}");
        }
    }

    #[test]
    fn heartbeat_acks_feed_the_rto_estimator() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        prober.set_adaptive_rto(Some(small_rto()));
        prober.monitor(B);
        prober.start_heartbeats(t(0), &mut env);
        let ack = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::HeartbeatAck { seq: 0, incarnation: 0 },
            auth: None,
        };
        prober.poll(t(40), Event::Deliver(ack), &mut env);
        // rtt = 40: srtt8 = 320, rttvar4 = 80, rto = 40 + 80 = 120.
        assert_eq!(prober.rto_estimate(B), Some(120));
    }

    /// One frame of every `seen`-guarded kind, from `src` under `msg_id`.
    fn guarded_frame(rng: &mut Pcg64, src: Key, msg_id: u64) -> Envelope {
        let addr = WireAddr { host: 7, router: 3, epoch: 0 };
        let n = rng.range_inclusive(0, 99);
        let msg = match rng.range_inclusive(0, 10) {
            0 => WireMessage::RouteHop { origin: src, route_id: n, target: A },
            1 => WireMessage::RouteHop { origin: src, route_id: n, target: B },
            2 => WireMessage::Discovery { subject: M, asker: src, session: n, probe: None },
            3 => WireMessage::ProbeMiss { subject: M, asker: src, session: n },
            4 => WireMessage::Register { target: A, capacity: 4 },
            5 => WireMessage::Update { subject: src, addr, seq: n },
            6 => WireMessage::Publish { subject: src, addr, seq: n },
            7 => WireMessage::JoinProbe { key: src },
            8 => WireMessage::Leave { key: src },
            9 => WireMessage::SuspectNotify { suspect: Key(99), incarnation: 0 },
            _ => WireMessage::Rejoin { incarnation: n },
        };
        Envelope { src, dst: A, msg_id, trace_id: 0, msg, auth: None }
    }

    /// The two-generation `seen` against the never-pruned set it
    /// replaced, through the machine: first copies, retransmissions and
    /// transport duplicates of every guarded kind, each frame's copies
    /// drawn inside one retry ladder of its first, over dozens of
    /// lifetimes. Same duplicate verdict — so the same `Output`, frame
    /// for frame, and the same commits — at fixed and adaptive RTO.
    /// Then the contract past the horizon, stated: two lifetimes after
    /// the traffic stops nothing is held, and a replayed frame is new.
    #[test]
    fn bounded_seen_matches_a_never_pruned_set_inside_the_retry_ladder() {
        const FRAMES: usize = 600;
        // Fixed: 100 << 3 bounds 100 + 200 + 400. Adaptive: max_rto × 3.
        for (adaptive, ladder) in [(None, 800), (Some(small_rto()), 30_000)] {
            for seed in [8u64, 27] {
                let ctx = format!("seed {seed}, adaptive {}", adaptive.is_some());
                let mut rng = Pcg64::seed_from_u64(seed);
                let mut arrivals: Vec<(u64, Envelope)> = Vec::new();
                let mut next_id = [0u64; 3];
                let mut first = 0;
                for _ in 0..FRAMES {
                    first += rng.range_inclusive(0, ladder / 4);
                    let s = rng.range_inclusive(0, 2) as usize;
                    let frame = guarded_frame(&mut rng, [B, M, Key(77)][s], next_id[s]);
                    next_id[s] += 1;
                    for _ in 0..rng.range_inclusive(0, 3) {
                        arrivals.push((first + rng.range_inclusive(0, ladder), frame.clone()));
                    }
                    arrivals.push((first, frame));
                }
                arrivals.sort_by_key(|&(at, _)| at);
                let horizon = arrivals[arrivals.len() - 1].0;
                let replayed = arrivals[0].1.clone();

                let strangers =
                    |env: MockEnv| env.with_node(Key(77), 8, 2).with_node(Key(99), 9, 3);
                let (mut env, mut oracle_env) = (strangers(world()), strangers(world()));
                let mut bounded = ProtoMachine::new(A, policy());
                let mut oracle = ProtoMachine::new(A, policy());
                for m in [&mut bounded, &mut oracle] {
                    m.set_adaptive_rto(adaptive);
                    m.monitor(Key(99));
                }
                assert_eq!(bounded.seen_lifetime, 2 * ladder, "{ctx}");
                oracle.seen_oracle = Some(Default::default());
                let copies = arrivals.len();
                for (at, frame) in arrivals {
                    let got = bounded.poll(t(at), Event::Deliver(frame.clone()), &mut env);
                    let want = oracle.poll(t(at), Event::Deliver(frame), &mut oracle_env);
                    assert_eq!(got.outgoing, want.outgoing, "{ctx} t={at}");
                    assert_eq!(got.timers, want.timers, "{ctx} t={at}");
                    assert_eq!(got.completions, want.completions, "{ctx} t={at}");
                }
                assert_eq!(env.events, oracle_env.events, "{ctx}");
                assert_eq!(env.updates, oracle_env.updates, "{ctx}");
                assert_eq!(env.registered, oracle_env.registered, "{ctx}");
                assert_eq!(oracle.seen_oracle.as_ref().map(|o| o.len()), Some(FRAMES), "{ctx}");
                assert!(copies > FRAMES * 2, "{ctx}: duplicates were drawn");
                assert!(bounded.seen_len() < FRAMES / 4, "{ctx}: held {}", bounded.seen_len());

                // Anything the machine hears ages the set, guarded or not.
                let silence = horizon + 2 * bounded.seen_lifetime;
                let probe = WireMessage::Heartbeat { seq: 0, incarnation: 0 };
                let probe =
                    Envelope { src: B, dst: A, msg_id: 0, trace_id: 0, msg: probe, auth: None };
                bounded.poll(t(silence), Event::Deliver(probe), &mut env);
                assert_eq!(
                    bounded.seen_len(),
                    0,
                    "{ctx}: empty two lifetimes after the last frame"
                );
                // The contract: a frame older than two lifetimes is new.
                bounded.poll(t(silence), Event::Deliver(replayed.clone()), &mut env);
                assert_eq!(bounded.seen_len(), 1, "{ctx}: replay accepted as new");
                bounded.poll(t(silence + 1), Event::Deliver(replayed), &mut env);
                assert_eq!(bounded.seen_len(), 1, "{ctx}: and its duplicate is caught again");
            }
        }
    }

    /// A restarted machine's ids start above every id of its previous
    /// lives, whatever those lives' incarnations were.
    #[test]
    fn restored_machine_numbers_frames_above_its_previous_lives() {
        let mut env = world();
        let mut old = ProtoMachine::new(A, policy());
        let (first_id, _) = old.start_route(t(0), &mut env, B);
        assert_eq!(first_id, 0);
        let mut new = ProtoMachine::new(A, policy());
        new.restore_incarnation(3);
        let (first_id, out) = new.start_route(t(0), &mut env, B);
        assert_eq!((first_id, out.outgoing[0].env.msg_id), (3 << 32, (3 << 32) + 1));
        new.restore_incarnation(2);
        let (next_id, _) = new.start_route(t(0), &mut env, B);
        assert_eq!(next_id, (3 << 32) + 2, "never lowered");
    }
}
