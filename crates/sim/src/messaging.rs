//! Message-passing driver: runs a [`BristleSystem`] over the
//! `bristle-proto` state machines and a fault-injecting transport.
//!
//! The function-call path in `bristle-core` computes a whole route (or
//! discovery, or update fan-out) in one synchronous call. This driver
//! replays the same protocols as *messages*: every hop is an envelope
//! submitted to a [`SimTransport`], every ack has a timeout, and lost
//! messages are retried with exponential backoff by the per-node
//! [`ProtoMachine`]s. With a perfect transport the per-kind meter tallies
//! match the function-call path exactly; under loss the extra
//! retransmissions, [`MessageKind::Timeout`]s and
//! [`MessageKind::DiscoveryRetry`]s become visible in the same meter.
//!
//! Time has two scales. The system's coarse [`Clock`](bristle_core::time::Clock)
//! (lease windows, record TTLs) stays frozen while an operation is in
//! flight, exactly as the function-call path completes a route "within"
//! one clock instant; the driver's own [`EventQueue`] runs a fine-grained
//! micro-clock for link latencies and retry timers.
//!
//! The driver itself is two pieces. One machine step
//! (`MessagingBristleSystem::drive`) resolves a node's machine, lends
//! it the system through a `SystemEnv` and dispatches what comes back —
//! every operation start, delivery and timer goes through it. One event
//! loop (`run_until`) runs events until a caller's predicate is
//! satisfied, the queue drains or the budget is spent; each operation
//! keeps only its predicate and its own reading of a quiet or runaway
//! stop.
//!
//! The per-frame bookkeeping is kept off the heap and out of hash
//! tables: spurious retries are metered from a
//! [`DeliveryLedger`] (a bit per `(src, msg_id)`, indexed by the
//! driver's own [`KeyInterner`]; shared with the socket driver), and
//! [`MessagingBristleSystem::seed_monitors`] re-seeds each heartbeat
//! round by diffing one sorted edge list against the machines' sorted
//! monitor sets instead of rebuilding them.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bristle_core::arena::{KeyInterner, NodeArena, NodeIdx};
use bristle_core::auth::{AuthDomain, VerifyPolicy};
use bristle_core::heal::DeathReport;
use bristle_core::ldt::Ldt;
use bristle_core::location::LocationRecord;
use bristle_core::naming::Mobility;
use bristle_core::rejoin::RejoinReport;
use bristle_core::restart::RestartReport;
use bristle_core::system::BristleSystem;
use bristle_core::time::SimTime;
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{
    EventSink, FlightRecorder, Histogram as LatencyHistogram, ObsEvent, ObsEventKind, Snapshot,
};
use bristle_proto::failure::FailurePolicy;
use bristle_proto::ledger::DeliveryLedger;
use bristle_proto::machine::{
    Completion, Event, NodeEnv, Output, ProtoMachine, RetryPolicy, TimerKind,
};
use bristle_proto::rto::RtoConfig;
use bristle_proto::transport::{
    Degradation, Delivery, FaultConfig, LinkFilter, SimTransport, Transport,
};
use bristle_proto::wire::{Envelope, WireAddr, WireMessage};

use crate::engine::EventQueue;

/// Hard cap on events processed per driver operation; hitting it means a
/// protocol bug (unbounded retry), not a slow network.
const MAX_EVENTS_PER_OP: u64 = 2_000_000;

/// Events on the driver's micro-clock.
enum MsgEvent {
    /// Bytes arrive at a router (discarded if the destination host has
    /// moved away from it in the meantime).
    Deliver(Delivery),
    /// A machine's retry timer expires.
    Timer {
        /// The machine the timer belongs to.
        node: Key,
        /// The timer payload.
        kind: TimerKind,
    },
    /// A scheduled mid-operation disruption: move a mobile node.
    Move {
        /// The node to move.
        key: Key,
        /// Destination router (random when `None`).
        to: Option<RouterId>,
    },
    /// A scheduled mid-operation disruption: a node crashes silently.
    Fail {
        /// The node that dies.
        key: Key,
    },
}

/// Why a messaging operation did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessagingError {
    /// Every retry of some hop was exhausted; the route died at `at`.
    RouteFailed {
        /// Route originator.
        origin: Key,
        /// Originator-scoped route id.
        route_id: u64,
        /// Node at which forwarding gave up.
        at: Key,
    },
    /// The event queue drained without the operation completing.
    Stalled,
    /// The per-operation event budget was hit — a retry loop is not
    /// converging.
    Runaway,
    /// The named node is not part of the system.
    UnknownNode(Key),
}

impl std::fmt::Display for MessagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessagingError::RouteFailed { origin, route_id, at } => {
                write!(f, "route {route_id} from {origin} failed at {at}: retries exhausted")
            }
            MessagingError::Stalled => {
                write!(f, "event queue drained before the operation completed")
            }
            MessagingError::Runaway => {
                write!(f, "event budget exhausted: retry loop not converging")
            }
            MessagingError::UnknownNode(k) => write!(f, "unknown node {k}"),
        }
    }
}

impl std::error::Error for MessagingError {}

/// How [`MessagingBristleSystem::run_until`] stopped.
enum Ran {
    /// The caller's predicate reported the awaited outcome.
    Done,
    /// The event queue drained first.
    Quiet,
    /// The per-operation event budget ran out first.
    Runaway,
}

impl Ran {
    /// For operations that must reach their outcome: a drained queue is
    /// a stall, a spent budget a runaway retry loop.
    fn settled(self) -> Result<(), MessagingError> {
        match self {
            Ran::Done => Ok(()),
            Ran::Quiet => Err(MessagingError::Stalled),
            Ran::Runaway => Err(MessagingError::Runaway),
        }
    }
}

/// One reversed funeral: when the node was wrongfully buried and when
/// the rejoin restored it (micro-clock times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinRecord {
    /// The resurrected node.
    pub key: Key,
    /// Micro-time of the wrongful funeral.
    pub buried_at: SimTime,
    /// Micro-time the funeral was reversed.
    pub rejoined_at: SimTime,
    /// The incarnation the node lives at after the rejoin.
    pub incarnation: u64,
}

/// Driver bookkeeping for a funeral run on a node whose machine was
/// still alive (unreachable, not crashed).
struct WrongfulBurial {
    /// The corpse's own incarnation at burial; any higher incarnation
    /// observed later proves it refuted the verdict.
    incarnation: u64,
    /// Micro-time of the funeral.
    at: SimTime,
    /// Watchers that held the death verdict — the nodes whose obituary
    /// the corpse must eventually receive.
    announcers: Vec<Key>,
}

/// What a completed messaging route reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessagingRouteReport {
    /// Originator-scoped route id.
    pub route_id: u64,
    /// Micro-clock time the route reached its target's owner.
    pub delivered_at: SimTime,
    /// Events processed while the route was in flight.
    pub events: u64,
}

/// How many structured events the driver's flight recorder retains.
/// Large enough to hold a whole operation's causal neighborhood at the
/// paper's scales; old events are overwritten (and counted) beyond it.
const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// Driver-side observability state: the flight recorder plus the
/// per-operation latency histograms the run reports are built from.
/// All latencies are micro-clock ticks (the driver's [`EventQueue`]
/// time scale, not the coarse lease clock).
#[derive(Debug)]
pub struct ObsCollector {
    /// Bounded ring of recent structured protocol events.
    pub flight: FlightRecorder,
    /// Route start → delivery-at-owner latency.
    pub route_latency: LatencyHistogram,
    /// `_discovery` session start → resolution (or abandonment) latency.
    pub discovery_latency: LatencyHistogram,
    /// Update-dissemination start → every edge settled latency.
    pub dissemination_latency: LatencyHistogram,
    /// Failure-detection latency: first suspicion → confirmed dead.
    pub detection_latency: LatencyHistogram,
    /// Partition-recovery latency: wrongful burial → funeral reversed.
    pub rejoin_latency: LatencyHistogram,
    /// Micro-time each peer was first suspected, pending confirmation.
    suspected_at: HashMap<Key, u64>,
}

impl Default for ObsCollector {
    fn default() -> Self {
        ObsCollector {
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            route_latency: LatencyHistogram::new(),
            discovery_latency: LatencyHistogram::new(),
            dissemination_latency: LatencyHistogram::new(),
            detection_latency: LatencyHistogram::new(),
            rejoin_latency: LatencyHistogram::new(),
            suspected_at: HashMap::new(),
        }
    }
}

impl ObsCollector {
    /// Digests one machine-emitted event: records it in the flight
    /// recorder and folds resolution latencies / suspicion timestamps
    /// into the histograms.
    fn observe(&mut self, event: ObsEvent) {
        match event.kind {
            ObsEventKind::DiscoveryResolved { elapsed, .. }
            | ObsEventKind::DiscoveryFailed { elapsed, .. } => {
                self.discovery_latency.record(elapsed);
            }
            ObsEventKind::Suspect { peer, .. } => {
                self.suspected_at.entry(peer).or_insert(event.at);
            }
            _ => {}
        }
        self.flight.record(event);
    }

    /// Records suspect→confirmed latency for `key` if a machine reported
    /// suspicion of it earlier (first suspicion wins), and forgets the
    /// pending suspicion either way.
    fn confirm_detection(&mut self, key: Key, now: u64) {
        if let Some(at) = self.suspected_at.remove(&key) {
            self.detection_latency.record(now.saturating_sub(at));
        }
    }

    /// Named snapshots of every latency histogram, in report order.
    pub fn latency_snapshots(&self) -> Vec<(&'static str, Snapshot)> {
        vec![
            ("route", self.route_latency.snapshot()),
            ("discovery", self.discovery_latency.snapshot()),
            ("dissemination", self.dissemination_latency.snapshot()),
            ("detection", self.detection_latency.snapshot()),
            ("rejoin", self.rejoin_latency.snapshot()),
        ]
    }
}

/// The machines' window onto the shared system: every [`NodeEnv`] query
/// or commit maps onto the exact state the function-call path reads and
/// writes, which is what makes the meter tallies comparable.
pub(crate) struct SystemEnv<'a> {
    pub(crate) sys: &'a mut BristleSystem,
    /// Last known wire addresses of nodes that crashed or left: senders
    /// may still address them (that is the point of crash *detection*),
    /// and the transport needs a router to deliver the doomed bytes to.
    pub(crate) tombstones: &'a HashMap<Key, WireAddr>,
    /// Destination for machine-emitted structured events.
    pub(crate) obs: &'a mut ObsCollector,
    /// The run's authentication configuration (defaults are the seed
    /// deployment: unsealed frames, nothing verified).
    pub(crate) auth: AuthConfig,
    /// Peers some watcher currently holds degraded (gray-failing):
    /// replica sets are reordered healthy-first so placement prefers
    /// responsive replicas without shrinking the set. Empty by default,
    /// which leaves ordering untouched.
    pub(crate) degraded: &'a BTreeSet<Key>,
}

/// Authentication configuration of one messaging run, shared by every
/// node's environment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AuthConfig {
    /// The deployment's key-derivation oracle (`None` = pre-auth seed).
    pub(crate) domain: Option<AuthDomain>,
    /// How strictly received frames are checked.
    pub(crate) policy: VerifyPolicy,
}

/// Where mail for a node nobody ever knew goes: a syntactically valid
/// address whose epoch can never match a live attachment. Router 0 always
/// exists in a generated topology.
const DEAD_LETTER_ADDR: WireAddr = WireAddr { host: u32::MAX, router: 0, epoch: u64::MAX };

/// `key`'s wire address as the system currently attaches it (`None`
/// for a node the system does not know).
pub(crate) fn wire_addr_of(sys: &BristleSystem, key: Key) -> Option<WireAddr> {
    let info = sys.node_info(key).ok()?;
    Some(WireAddr::from_net(NetAddr::current(info.host, &sys.attachments)))
}

/// An LDT's edges grouped by parent, parents in first-edge order: one
/// `start_update` per relaying member.
pub(crate) fn children_by_parent(ldt: &Ldt) -> Vec<(Key, Vec<Key>)> {
    let mut by_parent: Vec<(Key, Vec<Key>)> = Vec::new();
    for (parent, child) in ldt.edges() {
        match by_parent.iter_mut().find(|(p, _)| *p == parent) {
            Some((_, cs)) => cs.push(child),
            None => by_parent.push((parent, vec![child])),
        }
    }
    by_parent
}

impl NodeEnv for SystemEnv<'_> {
    fn next_hop_mobile(&self, cur: Key, target: Key) -> Option<Key> {
        self.sys.mobile.next_hop(cur, target).ok().flatten()
    }

    fn next_hop_stationary(&self, cur: Key, target: Key) -> Option<Key> {
        self.sys.stationary.next_hop(cur, target).ok().flatten()
    }

    fn is_mobile(&self, key: Key) -> bool {
        self.sys.is_mobile(key)
    }

    fn entry_stationary(&self, from: Key) -> Key {
        self.sys.entry_stationary_for(from).unwrap_or(from)
    }

    fn replicas(&self, subject: Key) -> Vec<Key> {
        let mut set = self
            .sys
            .stationary
            .replica_set(subject, self.sys.config().location_replicas)
            .unwrap_or_default();
        // Latency-aware failover: a degraded-but-alive replica keeps its
        // slot (the set is never shrunk — a funeral needs real evidence)
        // but moves behind its healthy peers. The stable sort keeps ring
        // order within each class, and an empty degraded set leaves the
        // historical order byte-identical.
        if !self.degraded.is_empty() {
            set.sort_by_key(|k| self.degraded.contains(k));
        }
        set
    }

    fn current_addr(&self, key: Key) -> WireAddr {
        wire_addr_of(self.sys, key)
            .unwrap_or_else(|| self.tombstones.get(&key).copied().unwrap_or(DEAD_LETTER_ADDR))
    }

    fn addr_current(&self, addr: WireAddr) -> bool {
        addr.to_net().is_valid(&self.sys.attachments)
    }

    fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        let cached = self.sys.mobile.node(holder).ok()?.entry(subject).and_then(|p| p.addr)?;
        if self.sys.leases.is_fresh(holder, subject, self.sys.clock.now()) {
            Some(WireAddr::from_net(cached))
        } else {
            None
        }
    }

    fn location_record(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        let rec = self.sys.stationary.node(holder).ok()?.store.get(&subject)?;
        Some(WireAddr::from_net(rec.addr))
    }

    fn distance(&self, a: RouterId, b: RouterId) -> u64 {
        self.sys.distances().distance(a, b)
    }

    fn meter(&mut self, kind: MessageKind, cost: u64) {
        self.sys.meter.record(kind, cost);
    }

    fn bump(&mut self, kind: MessageKind) {
        self.sys.meter.bump(kind, 1);
    }

    fn commit_resolution(&mut self, asker: Key, subject: Key, addr: WireAddr) {
        self.sys.learn_addr(asker, subject, addr.to_net());
    }

    fn apply_update(&mut self, receiver: Key, subject: Key, addr: WireAddr, _seq: u64) {
        self.sys.learn_addr(receiver, subject, addr.to_net());
    }

    fn apply_register(&mut self, target: Key, who: Key, capacity: u32) {
        self.sys.add_registrant(who, capacity, target);
    }

    fn commit_register(&mut self, who: Key, target: Key) {
        self.sys.grant_lease(who, target);
    }

    fn apply_publish(&mut self, holder: Key, subject: Key, addr: WireAddr, seq: u64) {
        // The wire `Publish` carries no incarnation; the holder stamps the
        // subject's current one — the same value the function-call path
        // writes — so post-rejoin records dominate pre-partition ones.
        let incarnation = self.sys.node_info(subject).map(|i| i.incarnation).unwrap_or(0);
        let record = LocationRecord {
            subject,
            addr: addr.to_net(),
            incarnation,
            seq,
            published_at: self.sys.clock.now(),
            ttl: self.sys.config().location_ttl,
        };
        // Centralized with the function-call path: same conflict rule,
        // same durable-store mirror (no-op if the holder is gone).
        let _ = self.sys.install_record(holder, record);
    }

    fn emit(&mut self, event: ObsEvent) {
        self.obs.observe(event);
    }

    fn auth_domain(&self) -> Option<AuthDomain> {
        self.auth.domain
    }

    fn verify_policy(&self) -> VerifyPolicy {
        self.auth.policy
    }

    fn publish_fresh(&self, subject: Key) -> bool {
        // A replayed publication carries its subject's *valid* signature
        // — staleness is the only thing that can reject it. Withdrawn
        // means the subject's funeral is confirmed system-wide.
        !self.sys.is_confirmed_dead(subject)
    }
}

/// A [`BristleSystem`] driven entirely by messages over a
/// [`SimTransport`].
pub struct MessagingBristleSystem {
    /// The shared system state (routing tables, leases, meter, clock).
    pub sys: BristleSystem,
    transport: SimTransport,
    /// Driver-side key interner; machine lookups go through it once and
    /// then index the flat arena below.
    ids: KeyInterner,
    machines: NodeArena<ProtoMachine>,
    queue: EventQueue<MsgEvent>,
    policy: RetryPolicy,
    failure_policy: FailurePolicy,
    completions: Vec<Completion>,
    /// Nodes that crashed silently: their machines are gone and mail to
    /// them black-holes, but the *system* bookkeeping still believes in
    /// them until a confirmation heals it.
    failed: HashSet<Key>,
    /// Last known addresses of failed/departed nodes (see [`SystemEnv`]).
    tombstones: HashMap<Key, WireAddr>,
    /// Nodes buried while their machine was still running — wrongful
    /// funerals awaiting an incarnation-bumped refutation and rejoin.
    wrongly_buried: BTreeMap<Key, WrongfulBurial>,
    /// Every funeral reversed so far, in rejoin order.
    rejoin_log: Vec<RejoinRecord>,
    /// Flight recorder and latency histograms for this run.
    obs: ObsCollector,
    /// Authentication configuration shared by every node's environment.
    auth: AuthConfig,
    /// Adaptive-RTO configuration applied to every machine (`None` =
    /// fixed [`RetryPolicy`] timers, the default).
    rto: Option<RtoConfig>,
    /// Bounded-ingress backpressure: max queued deliveries per
    /// destination node before lookup-class frames are shed (`None` =
    /// unbounded, the default).
    ingress_cap: Option<usize>,
    /// Deliveries currently queued per destination node (only
    /// maintained while `ingress_cap` is set).
    inflight: HashMap<Key, usize>,
    /// `(src, msg_id)` of every frame some machine has already
    /// processed; a later transmission of the same frame is a spurious
    /// retry (wasted work from a too-short timeout). Sources are indexed
    /// by `ids`, looked up and never interned: `src` is off the wire.
    delivered: DeliveryLedger,
    /// Peers some watcher's health score currently holds degraded; fed
    /// to [`SystemEnv::replicas`] for healthy-first ordering.
    degraded: BTreeSet<Key>,
}

impl MessagingBristleSystem {
    /// Wraps `sys` with per-node machines and a seeded transport with the
    /// given fault schedule.
    pub fn new(sys: BristleSystem, faults: FaultConfig, seed: u64) -> Self {
        Self::with_policy(sys, faults, seed, RetryPolicy::default())
    }

    /// Like [`Self::new`] with an explicit retry policy. The policy's
    /// timeouts must comfortably exceed the worst link latency or a
    /// loss-free run will retransmit spuriously and break meter parity.
    pub fn with_policy(
        sys: BristleSystem,
        faults: FaultConfig,
        seed: u64,
        policy: RetryPolicy,
    ) -> Self {
        let transport = SimTransport::new(sys.distances_arc(), faults, seed);
        let rto = sys.config().adaptive_rto.then(RtoConfig::default);
        MessagingBristleSystem {
            sys,
            transport,
            ids: KeyInterner::new(),
            machines: NodeArena::new(),
            queue: EventQueue::new(),
            policy,
            failure_policy: FailurePolicy::default(),
            completions: Vec::new(),
            failed: HashSet::new(),
            tombstones: HashMap::new(),
            wrongly_buried: BTreeMap::new(),
            rejoin_log: Vec::new(),
            obs: ObsCollector::default(),
            auth: AuthConfig::default(),
            rto,
            ingress_cap: None,
            inflight: HashMap::new(),
            delivered: DeliveryLedger::new(),
            degraded: BTreeSet::new(),
        }
    }

    /// Switches every machine (existing and future) to adaptive
    /// per-peer RTO estimation, or back to fixed timers with `None`.
    /// Estimator state does not survive the switch.
    pub fn set_adaptive_rto(&mut self, cfg: Option<RtoConfig>) {
        self.rto = cfg;
        for (_, machine) in self.machines.iter_mut() {
            machine.set_adaptive_rto(cfg);
        }
    }

    /// Whether machines run adaptive RTO estimation.
    pub fn adaptive_rto(&self) -> bool {
        self.rto.is_some()
    }

    /// Bounds every node's ingress queue at `cap` pending deliveries:
    /// beyond it, lookup-class frames (route and discovery traffic) are
    /// shed deterministically and metered as [`MessageKind::LoadShed`];
    /// protocol-fact frames (updates, registrations, heartbeats, acks,
    /// verdicts) are always admitted, so overload degrades lookup
    /// latency instead of corrupting protocol state. `None` (the
    /// default) disables backpressure entirely.
    pub fn set_ingress_cap(&mut self, cap: Option<usize>) {
        self.ingress_cap = cap;
        if cap.is_none() {
            self.inflight.clear();
        }
    }

    /// Turns on frame authentication: honest machines seal every
    /// authority-bearing frame under the domain derived from `seed`.
    /// Verification strictness is set separately with
    /// [`Self::set_verify_policy`] — sealing without verification is
    /// exactly the log-only migration posture.
    pub fn enable_auth(&mut self, seed: u64) {
        self.auth.domain = Some(AuthDomain::new(seed));
    }

    /// Sets how strictly received frames are authenticated. Meaningful
    /// once [`Self::enable_auth`] has established a domain; without one
    /// every kind is treated as unauthenticated and nothing is checked.
    pub fn set_verify_policy(&mut self, policy: VerifyPolicy) {
        self.auth.policy = policy;
    }

    /// The deployment's authentication domain, if auth is enabled. The
    /// adversary driver uses this to mint *identity-certifying* (but
    /// MAC-invalid) trailers and to replay genuinely signed frames.
    pub fn auth_domain(&self) -> Option<AuthDomain> {
        self.auth.domain
    }

    /// Injects an adversary-crafted frame into the transport as if some
    /// node at `from_router` had sent it: same link latencies, faults
    /// and delivery scheduling as honest traffic. The adversary is a
    /// protocol-level attacker — it can put any bytes on the wire, but
    /// the honest receive path (and its [`VerifyPolicy`]) decides what
    /// those bytes do.
    pub fn inject_frame(&mut self, from_router: RouterId, to_addr: WireAddr, env: Envelope) {
        let now = self.queue.now();
        let to_router = to_addr.router_id();
        for d in self.transport.send(now, from_router, to_router, env) {
            self.admit(d);
        }
    }

    /// Drains every event the injected frames (and any reactions they
    /// provoke) schedule, then reports how many events ran. The
    /// adversary driver calls this after a volley of [`Self::inject_frame`]s.
    pub fn settle_injected(&mut self) -> u64 {
        self.drain()
    }

    /// Overrides the failure-detection policy used by every machine
    /// (existing machines are rebuilt around it, monitored sets intact).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure_policy = policy;
        for (_, machine) in self.machines.iter_mut() {
            machine.set_failure_policy(policy);
        }
    }

    /// The machine for `key`, if one is running.
    fn machine_of(&self, key: Key) -> Option<&ProtoMachine> {
        self.ids.get(key).and_then(|i| self.machines.get(i))
    }

    /// The index of `node`'s machine, starting one under the session's
    /// policies if none is running. Machines live in a flat arena indexed
    /// by the driver's own interner, so the steady-state lookup on the
    /// delivery hot path is one hash plus an array index.
    fn started(&mut self, node: Key) -> NodeIdx {
        let idx = self.ids.intern(node);
        if !self.machines.contains(idx) {
            let mut m = ProtoMachine::new(node, self.policy);
            m.set_failure_policy(self.failure_policy);
            m.set_adaptive_rto(self.rto);
            self.machines.insert(idx, m);
        }
        idx
    }

    /// The machine for `node`, started if need be.
    fn machine_started(&mut self, node: Key) -> &mut ProtoMachine {
        let idx = self.started(node);
        self.machines.get_mut(idx).expect("just started")
    }

    /// One machine step: resolves `node`'s machine (starting it when
    /// `start` says a missing one should be, as a first frame or a
    /// driver-initiated operation does), lends it the system through a
    /// [`SystemEnv`] for the length of `f`, and dispatches what `f`
    /// returns. Without a machine nothing happens.
    #[inline]
    fn drive(
        &mut self,
        node: Key,
        start: bool,
        f: impl FnOnce(&mut ProtoMachine, SimTime, &mut SystemEnv<'_>) -> Output,
    ) {
        let idx = if start { Some(self.started(node)) } else { self.ids.get(node) };
        let now = self.queue.now();
        // The one place the driver's disjoint fields are lent out.
        let Self { sys, tombstones, obs, auth, degraded, machines, .. } = self;
        let Some(machine) = idx.and_then(|i| machines.get_mut(i)) else { return };
        let out = f(machine, now, &mut SystemEnv { sys, tombstones, obs, auth: *auth, degraded });
        self.dispatch(node, out);
    }

    /// The one event loop: handles events until `done` reports the
    /// awaited outcome (asked before every event, so an outcome already
    /// buffered costs none), the queue drains, or the per-operation
    /// budget is spent. Returns how it stopped and the events it ran.
    #[inline]
    fn run_until(&mut self, mut done: impl FnMut(&mut Self) -> bool) -> (Ran, u64) {
        let mut events = 0u64;
        loop {
            if done(self) {
                return (Ran::Done, events);
            }
            if events >= MAX_EVENTS_PER_OP {
                return (Ran::Runaway, events);
            }
            if !self.step() {
                return (Ran::Quiet, events);
            }
            events += 1;
        }
    }

    /// Runs the network quiet (or the budget out); returns the events run.
    fn drain(&mut self) -> u64 {
        self.run_until(|_| false).1
    }

    /// `key`'s index in the delivery ledger, if the driver has one.
    fn source_index(&self, key: Key) -> Option<usize> {
        self.ids.get(key).map(|i| i.index())
    }

    /// Whether a machine is running for `key`.
    fn has_machine(&self, key: Key) -> bool {
        self.machine_of(key).is_some()
    }

    /// Retires `key`'s machine (its interned index survives). The
    /// ledger forgets the ids it sent: a machine started for `key` later
    /// may number its frames from 0 again, and they are not retries of
    /// the previous life's.
    fn remove_machine(&mut self, key: Key) {
        if let Some(i) = self.ids.get(key) {
            self.machines.remove(i);
        }
        self.delivered.forget_source(self.source_index(key), key);
    }

    /// Keys of all running machines, sorted.
    fn machine_keys_sorted(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.machines.iter().map(|(i, _)| self.ids.key_of(i)).collect();
        keys.sort_unstable();
        keys
    }

    /// The transport (for its trace).
    pub fn transport(&self) -> &SimTransport {
        &self.transport
    }

    /// The run's observability state: flight recorder and latency
    /// histograms.
    pub fn obs(&self) -> &ObsCollector {
        &self.obs
    }

    /// The driver's micro-clock.
    pub fn micro_now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules a mobile node's move at micro-time `at`, to be executed
    /// while a later operation's event loop runs past that time.
    pub fn schedule_move(&mut self, at: SimTime, key: Key, to: Option<RouterId>) {
        self.queue.schedule_at(at, MsgEvent::Move { key, to });
    }

    /// Schedules a silent crash at micro-time `at` (see
    /// [`Self::fail_silently`]), to be executed while a later operation's
    /// event loop runs past that time.
    pub fn schedule_fail(&mut self, at: SimTime, key: Key) {
        self.queue.schedule_at(at, MsgEvent::Fail { key });
    }

    /// Cuts the network along `filter` immediately: sends whose
    /// endpoints the filter separates are blocked until
    /// [`Self::heal_now`] (in-flight deliveries are unaffected).
    pub fn partition_now(&mut self, filter: LinkFilter) {
        self.transport.set_filter(filter);
    }

    /// Heals every cut immediately: the transport's link filter is reset.
    pub fn heal_now(&mut self) {
        self.transport.set_filter(LinkFilter::default());
    }

    /// Applies a fail-slow script to `key`'s current router immediately:
    /// everything it sends or receives suffers the script's slowdown,
    /// ramp and extra loss until healed. The node stays up — this is
    /// gray failure, not a crash.
    pub fn degrade_node_now(&mut self, key: Key, degradation: Degradation) {
        if let Ok(router) = self.sys.router_of(key) {
            self.transport.degrade_node(router, degradation, self.queue.now());
        }
    }

    /// Applies a fail-slow script to the directed `from → to` link
    /// between two nodes' current routers immediately; the reverse
    /// direction is untouched (asymmetric degradation).
    pub fn degrade_link_now(&mut self, from: Key, to: Key, degradation: Degradation) {
        if let (Ok(a), Ok(b)) = (self.sys.router_of(from), self.sys.router_of(to)) {
            self.transport.degrade_link(a, b, degradation, self.queue.now());
        }
    }

    /// Lifts every fail-slow script immediately.
    pub fn heal_degradations_now(&mut self) {
        self.transport.clear_degradations();
    }

    /// Peers some watcher's health score currently holds degraded
    /// (sorted). Refreshed by every [`Self::heartbeat_round`].
    pub fn degraded_peers(&self) -> Vec<Key> {
        self.degraded.iter().copied().collect()
    }

    /// Nodes currently awaiting a funeral reversal (sorted).
    pub fn wrongly_buried(&self) -> Vec<Key> {
        self.wrongly_buried.keys().copied().collect()
    }

    /// Every funeral reversed so far, in rejoin order.
    pub fn rejoin_log(&self) -> &[RejoinRecord] {
        &self.rejoin_log
    }

    /// Crashes `key` without notice: its machine vanishes and mail to it
    /// black-holes, but every piece of *system* bookkeeping — ring
    /// membership, registrations, published records, leases — still
    /// believes in it. Only failure detection plus
    /// [`Self::confirm_and_heal`] repairs the damage.
    pub fn fail_silently(&mut self, key: Key) {
        self.fail_now(key);
    }

    /// Whether `key` has crashed silently (and not yet been confirmed).
    pub fn is_failed(&self, key: Key) -> bool {
        self.failed.contains(&key)
    }

    /// Graceful departure through the driver: the machine is retired and
    /// the system-level leave protocol runs.
    pub fn leave(&mut self, key: Key) -> Result<(), MessagingError> {
        self.remember_addr(key);
        self.remove_machine(key);
        self.sys.leave_node(key).map_err(|_| MessagingError::UnknownNode(key))
    }

    /// Restarts a crashed, buried node from its durable store — distinct
    /// from both [`Self::leave`] (gone for good) and the rejoin path
    /// (which resurrects an *empty* node that re-learns its state from
    /// the overlay). The node must have been confirmed dead
    /// ([`Self::confirm_and_heal`]); its store — re-opened from disk
    /// when WAL-backed — supplies the recovered shard, and a brand-new
    /// machine is started at the restored incarnation (nothing of the
    /// old process survives but the disk).
    pub fn crash_restart(&mut self, key: Key) -> Result<RestartReport, MessagingError> {
        let report =
            self.sys.restart_node_from_store(key).map_err(|_| MessagingError::UnknownNode(key))?;
        if report.restored {
            self.revive_machine(key, report.incarnation);
        }
        Ok(report)
    }

    /// A restarted process: nothing of the old machine survives, and the
    /// driver stops treating the node as failed, departed or buried.
    fn revive_machine(&mut self, key: Key, incarnation: u64) {
        self.failed.remove(&key);
        self.tombstones.remove(&key);
        self.wrongly_buried.remove(&key);
        self.remove_machine(key);
        self.machine_started(key).restore_incarnation(incarnation);
    }

    /// Restarts a crashed, buried node with a *blank* disk — the
    /// republication baseline for [`Self::crash_restart`]. The node's
    /// durable store is discarded and it comes back empty via the rejoin
    /// path, re-learning its state from the overlay (anti-entropy refills
    /// a stationary shard one `Replicate` per record). A fresh machine is
    /// started at the rejoined incarnation, exactly as in a WAL restart.
    pub fn republish_restart(&mut self, key: Key) -> Result<RejoinReport, MessagingError> {
        self.sys.stores.forget(key);
        let report = self.sys.rejoin_node(key, 1).map_err(|_| MessagingError::UnknownNode(key))?;
        if report.reversed {
            self.revive_machine(key, report.incarnation);
        }
        Ok(report)
    }

    fn fail_now(&mut self, key: Key) {
        if self.sys.node_info(key).is_err() {
            return;
        }
        self.remember_addr(key);
        self.failed.insert(key);
        self.remove_machine(key);
    }

    /// Snapshots `key`'s current wire address into the tombstone book so
    /// later sends (from nodes that still believe in it) stay routable.
    fn remember_addr(&mut self, key: Key) {
        if let Some(addr) = wire_addr_of(&self.sys, key) {
            self.tombstones.insert(key, addr);
        }
    }

    /// Rebuilds every live node's monitored-peer set from the current
    /// registration state, so heartbeat coverage tracks membership:
    ///
    /// * LDT edges watch both ways — a mobile target monitors its
    ///   registrants and each registrant monitors the target (those are
    ///   exactly the nodes whose silence breaks dissemination);
    /// * each stationary node monitors its ring successor (the peer that
    ///   would inherit its records);
    /// * every node is monitored by its mobile-ring predecessor, so no
    ///   crash can go unobserved.
    ///
    /// Silently-failed nodes stay *watched* but never watch.
    ///
    /// Membership rarely changes between two rounds, so the wanted edges
    /// are gathered into one list sorted by `(watcher, peer)` and each
    /// watcher's run of it is compared with the set its machine already
    /// monitors — itself kept sorted. An unchanged watcher costs that
    /// comparison; only a changed one is edited.
    pub fn seed_monitors(&mut self) {
        let mut wanted: Vec<(Key, Key)> = Vec::new();
        {
            let sys = &self.sys;
            let failed = &self.failed;
            let live = |k: Key| sys.node_info(k).is_ok() && !failed.contains(&k);
            let mut add = |watcher: Key, peer: Key| {
                if watcher != peer && live(watcher) && sys.node_info(peer).is_ok() {
                    wanted.push((watcher, peer));
                }
            };
            for (t, registrants) in sys.registry.iter() {
                for r in registrants {
                    add(r.key, t);
                    add(t, r.key);
                }
            }
            for &s in sys.stationary_keys() {
                if let Ok(set) = sys.stationary.replica_set(s, 2) {
                    if let Some(&succ) = set.get(1) {
                        add(s, succ);
                    }
                }
            }
            let mut all: Vec<Key> = sys.mobile.keys().collect();
            all.sort_unstable();
            let n = all.len();
            for (i, &node) in all.iter().enumerate() {
                add(all[(i + n - 1) % n], node);
            }
        }
        wanted.sort_unstable();
        wanted.dedup();
        for peers in wanted.chunk_by(|a, b| a.0 == b.0) {
            let machine = self.machine_started(peers[0].0);
            if machine.monitored().iter().eq(peers.iter().map(|(_, p)| p)) {
                continue;
            }
            machine.retain_monitored(|k| peers.binary_search_by_key(&k, |&(_, p)| p).is_ok());
            for &(_, p) in peers {
                machine.monitor(p);
            }
        }
    }

    /// Runs one system-wide heartbeat round: re-seeds the monitor sets,
    /// lets every live machine probe its monitored peers, and drains the
    /// resulting acks, retransmissions and timeouts. Returns the peers
    /// newly *confirmed dead* this round (sorted, deduplicated, minus
    /// anything already confirmed) — candidates for
    /// [`Self::confirm_and_heal`]. Suspicion alone is not reported; it
    /// either heals on the next ack or hardens into confirmation.
    pub fn heartbeat_round(&mut self) -> Vec<Key> {
        self.seed_monitors();
        let watchers = self.machine_keys_sorted();
        for w in watchers {
            self.drive(w, false, |m, now, env| m.start_heartbeats(now, env));
        }
        self.drain();
        // Refresh the gray-failure view from the round's evidence: any
        // watcher holding a peer degraded is enough to demote it in
        // replica ordering (the union errs toward caution, never toward
        // a funeral).
        self.degraded.clear();
        for (_, machine) in self.machines.iter() {
            self.degraded.extend(machine.degraded_peers());
        }
        self.rejoin_sweep();
        let mut dead = Vec::new();
        self.completions.retain(|c| match *c {
            Completion::PeerDead { peer } => {
                dead.push(peer);
                false
            }
            Completion::PeerSuspected { .. } => false,
            Completion::PeerRefuted { .. }
            | Completion::SelfRefuted { .. }
            | Completion::RejoinRequested { .. }
            | Completion::RejoinCompleted { .. } => false,
            _ => true,
        });
        dead.sort_unstable();
        dead.dedup();
        dead.retain(|&k| !self.sys.is_confirmed_dead(k));
        dead
    }

    /// Gives every wrongly buried node a chance to learn of its own
    /// funeral and reverse it. Each still-buried node is sent an
    /// obituary (`SuspectNotify` naming itself) by a live watcher that
    /// held the verdict; a node that receives one bumps its incarnation
    /// and answers with an `Alive` refutation, after which the driver
    /// has it ask the same watcher to sponsor a rejoin. An accepted
    /// rejoin reverses the funeral ([`BristleSystem::rejoin_node`]).
    /// Every message travels the faulty transport, so a node still cut
    /// off by a partition simply misses its obituary and is retried on
    /// the next round — rejoin happens only once connectivity is back.
    fn rejoin_sweep(&mut self) {
        if self.wrongly_buried.is_empty() {
            return;
        }
        // (1) Obituary announcements, one per buried node, from the
        // lowest-keyed surviving believer (deterministic).
        let buried: Vec<Key> = self.wrongly_buried.keys().copied().collect();
        let mut sponsors: BTreeMap<Key, Key> = BTreeMap::new();
        for &f in &buried {
            let Some(announcer) = self.pick_announcer(f) else { continue };
            sponsors.insert(f, announcer);
            self.drive(announcer, false, |m, now, env| m.notify_suspect(now, env, f, f));
        }
        self.drain();
        // (2) Nodes whose incarnation moved past their burial have
        // refuted the verdict: they ask their announcer to sponsor the
        // rejoin.
        for &f in &buried {
            let Some(&sponsor) = sponsors.get(&f) else { continue };
            let refuted = match (self.machine_of(f), self.wrongly_buried.get(&f)) {
                (Some(m), Some(b)) => m.incarnation() > b.incarnation,
                _ => false,
            };
            if !refuted {
                continue;
            }
            self.drive(f, false, |m, now, env| m.start_rejoin(now, env, sponsor));
        }
        self.drain();
        // (3) Reverse the funeral of every accepted rejoin.
        let mut requests: Vec<(Key, u64)> = Vec::new();
        self.completions.retain(|c| match *c {
            Completion::RejoinRequested { peer, incarnation } => {
                requests.push((peer, incarnation));
                false
            }
            _ => true,
        });
        requests.sort_unstable();
        requests.dedup();
        for (peer, incarnation) in requests {
            let Some(burial) = self.wrongly_buried.remove(&peer) else { continue };
            let Ok(report) = self.sys.rejoin_node(peer, incarnation) else { continue };
            if !report.reversed {
                continue;
            }
            self.sys.meter.bump(MessageKind::WrongfulDeath, 1);
            let rejoined_at = self.queue.now();
            self.obs.rejoin_latency.record(rejoined_at.since(burial.at));
            self.rejoin_log.push(RejoinRecord {
                key: peer,
                buried_at: burial.at,
                rejoined_at,
                incarnation: report.incarnation,
            });
        }
    }

    /// The lowest-keyed live watcher that held `buried`'s death verdict,
    /// falling back to the lowest-keyed live machine when none of the
    /// original believers survive.
    fn pick_announcer(&self, buried: Key) -> Option<Key> {
        let live = |k: &Key| {
            *k != buried
                && self.sys.node_info(*k).is_ok()
                && !self.failed.contains(k)
                && !self.wrongly_buried.contains_key(k)
                && self.has_machine(*k)
        };
        if let Some(b) = self.wrongly_buried.get(&buried) {
            if let Some(&a) = b.announcers.iter().find(|k| live(k)) {
                return Some(a);
            }
        }
        self.machine_keys_sorted().into_iter().find(|k| live(k))
    }

    /// Acts on a confirmed death: spreads the verdict to watchers that
    /// have not yet condemned `key` themselves (`SuspectNotify`), retires
    /// the corpse at the driver level, and runs the system-wide funeral
    /// ([`BristleSystem::confirm_dead`]) — LDT re-grafting, registration
    /// and lease pruning, record withdrawal.
    pub fn confirm_and_heal(&mut self, key: Key) -> Result<DeathReport, MessagingError> {
        if self.sys.node_info(key).is_err() && !self.sys.is_confirmed_dead(key) {
            return Err(MessagingError::UnknownNode(key));
        }
        // A funeral for a node whose machine is still running is
        // *wrongful* — the node is unreachable (partitioned), not
        // crashed. Its machine stays alive so it can eventually receive
        // its obituary and refute the verdict; the driver remembers the
        // burial so [`Self::rejoin_sweep`] can reverse it.
        let wrongful =
            !self.failed.contains(&key) && self.sys.node_info(key).is_ok() && self.has_machine(key);
        if wrongful {
            self.remember_addr(key);
        } else {
            self.fail_now(key);
        }
        let mut believers = Vec::new();
        let mut unconvinced = Vec::new();
        for (i, m) in self.machines.iter() {
            let w = self.ids.key_of(i);
            match m.liveness(key) {
                Some(bristle_proto::failure::Liveness::Dead) => believers.push(w),
                Some(_) => unconvinced.push(w),
                None => {}
            }
        }
        believers.sort_unstable();
        unconvinced.sort_unstable();
        if let Some(&herald) = believers.first() {
            for &peer in &unconvinced {
                self.drive(herald, false, |m, now, env| m.notify_suspect(now, env, peer, key));
            }
            self.drain();
        }
        // The notifications above re-announce the same death; those
        // echoes are not news.
        self.completions.retain(|c| !matches!(c, Completion::PeerDead { peer } if *peer == key));
        if wrongful {
            let incarnation = self.machine_of(key).map(|m| m.incarnation()).unwrap_or(0);
            self.wrongly_buried.insert(
                key,
                WrongfulBurial { incarnation, at: self.queue.now(), announcers: believers },
            );
        }
        let report = self.sys.confirm_dead(key).map_err(|_| MessagingError::UnknownNode(key))?;
        self.obs.confirm_detection(key, self.queue.now().0);
        Ok(report)
    }

    /// Routes a message from `src` toward `target` entirely by message
    /// passing, driving the event loop until the route completes or
    /// fails. Lost hops time out and retransmit; hops to a moved mobile
    /// peer fall back to a `_discovery` through the stationary layer.
    pub fn route(&mut self, src: Key, target: Key) -> Result<MessagingRouteReport, MessagingError> {
        if self.sys.node_info(src).is_err() || self.failed.contains(&src) {
            return Err(MessagingError::UnknownNode(src));
        }
        let now = self.queue.now();
        let route_id = self.start_route(src, target);
        let mut outcome = None;
        let (ran, events) = self.run_until(|d| {
            outcome = d.take_route_completion(src, route_id).transpose();
            outcome.is_some()
        });
        ran.settled()?;
        let done = outcome.expect("the loop stopped on an outcome")?;
        self.obs.route_latency.record(done.since(now));
        Ok(MessagingRouteReport { route_id, delivered_at: done, events })
    }

    /// Has `src`'s machine (started if need be) originate a route toward
    /// `target`; returns the route id its completion will carry.
    fn start_route(&mut self, src: Key, target: Key) -> u64 {
        let mut route_id = 0;
        self.drive(src, true, |m, now, env| {
            let (id, out) = m.start_route(now, env, target);
            route_id = id;
            out
        });
        route_id
    }

    /// Routes every `(src, target)` pair *concurrently*: all routes are
    /// launched before the event loop runs, so their frames contend for
    /// the same links and ingress queues — the flash-crowd shape
    /// sequential [`Self::route`] calls (each settling before the next
    /// starts) can never produce. Results are positional.
    pub fn route_burst(
        &mut self,
        pairs: &[(Key, Key)],
    ) -> Vec<Result<MessagingRouteReport, MessagingError>> {
        let mut results: Vec<Option<Result<MessagingRouteReport, MessagingError>>> =
            vec![None; pairs.len()];
        let mut sessions: Vec<Option<(Key, u64, SimTime)>> = Vec::with_capacity(pairs.len());
        for (i, &(src, target)) in pairs.iter().enumerate() {
            if self.sys.node_info(src).is_err() || self.failed.contains(&src) {
                results[i] = Some(Err(MessagingError::UnknownNode(src)));
                sessions.push(None);
                continue;
            }
            let now = self.queue.now();
            let route_id = self.start_route(src, target);
            sessions.push(Some((src, route_id, now)));
        }
        // Each completion is matched against the sessions once, when it
        // is new, instead of every open session rescanning the whole
        // buffer on every event. A completion is consumed iff its
        // session was open when the scan that meets it began (the first
        // one decides the outcome) — what one `take_route_completion`
        // per open session per event consumed.
        let mut by_route: Vec<((Key, u64), usize)> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(src, route_id, _)| ((src, route_id), i)))
            .collect();
        by_route.sort_unstable();
        let mut remaining = by_route.len();
        // Sessions the running scan closed.
        let mut closing: Vec<usize> = Vec::new();
        // Everything buffered is new to this burst; later scans start
        // where the previous one stopped.
        let mut scanned = 0usize;
        let mut events = 0u64;
        while remaining > 0 {
            let now = self.queue.now();
            closing.clear();
            let mut kept = scanned;
            for j in scanned..self.completions.len() {
                let c = self.completions[j];
                let route = match c {
                    Completion::Delivered { origin, route_id }
                    | Completion::RouteFailed { origin, route_id, .. } => Some((origin, route_id)),
                    _ => None,
                };
                let session = route
                    .and_then(|route| by_route.binary_search_by_key(&route, |&(k, _)| k).ok())
                    .map(|at| by_route[at].1)
                    .filter(|&i| results[i].is_none() || closing.contains(&i));
                let Some(i) = session else {
                    self.completions[kept] = c;
                    kept += 1;
                    continue;
                };
                if results[i].is_some() {
                    continue;
                }
                let (_, route_id, started) = sessions[i].expect("only sessions are indexed");
                results[i] = Some(match c {
                    Completion::RouteFailed { origin, route_id, at } => {
                        Err(MessagingError::RouteFailed { origin, route_id, at })
                    }
                    _ => {
                        self.obs.route_latency.record(now.since(started));
                        Ok(MessagingRouteReport { route_id, delivered_at: now, events })
                    }
                });
                remaining -= 1;
                closing.push(i);
            }
            self.completions.truncate(kept);
            scanned = kept;
            if remaining == 0 {
                break;
            }
            let stop = if events >= MAX_EVENTS_PER_OP {
                Some(MessagingError::Runaway)
            } else if !self.step() {
                Some(MessagingError::Stalled)
            } else {
                None
            };
            if let Some(e) = stop {
                for r in results.iter_mut().filter(|r| r.is_none()) {
                    *r = Some(Err(e.clone()));
                }
                break;
            }
            events += 1;
        }
        results.into_iter().map(|r| r.unwrap_or(Err(MessagingError::Stalled))).collect()
    }

    /// Disseminates `key`'s current address through its LDT by reliable
    /// Update messages (the message-passing `advertise_update`), running
    /// the event loop until every edge is acked or exhausts its retries.
    /// Returns the number of acknowledged edges.
    pub fn disseminate_update(&mut self, key: Key) -> Result<usize, MessagingError> {
        let info = *self.sys.node_info(key).map_err(|_| MessagingError::UnknownNode(key))?;
        let ldt = self.sys.build_ldt(key).map_err(|_| MessagingError::UnknownNode(key))?;
        let addr = wire_addr_of(&self.sys, key).expect("known above");
        let started = self.queue.now();
        let mut expected = 0usize;
        for (parent, children) in children_by_parent(&ldt) {
            // A parent that crashed (or vanished) mid-tree cannot relay:
            // its edges are skipped now and repaired by confirmation.
            if self.failed.contains(&parent) || self.sys.node_info(parent).is_err() {
                continue;
            }
            expected += children.len();
            self.drive(parent, true, |m, now, env| {
                m.start_update(now, env, key, addr, info.seq, &children)
            });
        }
        let mut acked = 0usize;
        if expected > 0 {
            let mut settled = 0usize;
            let (ran, _) = self.run_until(|d| {
                d.completions.retain(|c| match c {
                    Completion::UpdateAcked { .. } => {
                        acked += 1;
                        settled += 1;
                        false
                    }
                    Completion::UpdateFailed { .. } => {
                        settled += 1;
                        false
                    }
                    _ => true,
                });
                settled >= expected
            });
            // A queue that drained with edges unsettled is not an error:
            // a parent died *during* the round, so its pending acks can
            // never arrive. Report how far the dissemination got — the
            // shortfall is exactly what failure detection must catch.
            if let Ran::Runaway = ran {
                return Err(MessagingError::Runaway);
            }
            self.obs.dissemination_latency.record(self.queue.now().since(started));
        }
        Ok(acked)
    }

    /// Registers `who`'s interest in mobile `target` by message, driving
    /// the loop until the registration is acked (lease granted) or fails.
    pub fn register(&mut self, who: Key, target: Key) -> Result<(), MessagingError> {
        let info = *self.sys.node_info(who).map_err(|_| MessagingError::UnknownNode(who))?;
        if self.failed.contains(&who) {
            return Err(MessagingError::UnknownNode(who));
        }
        if self.sys.node_info(target).map(|i| i.mobility) != Ok(Mobility::Mobile) {
            return Err(MessagingError::UnknownNode(target));
        }
        self.drive(who, true, |m, now, env| m.start_register(now, env, target, info.capacity));
        let mut outcome = None;
        let (ran, _) = self.run_until(|d| {
            d.completions.retain(|c| match *c {
                Completion::Registered { target: t } if t == target => {
                    outcome = Some(Ok(()));
                    false
                }
                Completion::RegisterFailed { target: t } if t == target => {
                    outcome = Some(Err(MessagingError::Stalled));
                    false
                }
                _ => true,
            });
            outcome.is_some()
        });
        ran.settled()?;
        outcome.expect("the loop stopped on an outcome")
    }

    /// Drains every pending event (stray acks, stale timers) so the next
    /// operation starts from a quiet network.
    pub fn settle(&mut self) {
        self.drain();
        self.completions.clear();
    }

    /// Pops and handles one event. Returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((_, event)) = self.queue.pop() else {
            return false;
        };
        match event {
            MsgEvent::Deliver(d) => {
                // The sender addressed a router; if the destination host
                // has moved away since — or crashed — the bytes
                // black-hole there. A wrongly buried node is gone from
                // the system's books but still listening at its
                // tombstoned attachment: its obituary must reach it.
                let dst = d.env.dst;
                if self.ingress_cap.is_some() {
                    if let Some(n) = self.inflight.get_mut(&dst) {
                        *n = n.saturating_sub(1);
                    }
                }
                if self.failed.contains(&dst) {
                    return true;
                }
                let reachable = match self.sys.router_of(dst) {
                    Ok(r) => r == d.to_router,
                    Err(_) => {
                        self.wrongly_buried.contains_key(&dst)
                            && self
                                .tombstones
                                .get(&dst)
                                .is_some_and(|a| a.router_id() == d.to_router)
                    }
                };
                if reachable {
                    // The frame is about to be processed: any *later*
                    // copy of it on the wire is a spurious retry.
                    let src = d.env.src;
                    self.delivered.insert(self.source_index(src), src, d.env.msg_id);
                    self.drive(dst, true, |m, now, env| m.poll(now, Event::Deliver(d.env), env));
                }
            }
            MsgEvent::Timer { node, kind } => {
                self.drive(node, false, |m, now, env| m.poll(now, Event::Timer(kind), env));
            }
            MsgEvent::Move { key, to } => {
                let _ = self.sys.move_node(key, to);
            }
            MsgEvent::Fail { key } => self.fail_now(key),
        }
        true
    }

    /// Turns one machine's [`Output`] into transport sends, scheduled
    /// deliveries and armed timers.
    fn dispatch(&mut self, from: Key, out: Output) {
        let now = self.queue.now();
        let from_router = match self.sys.router_of(from) {
            Ok(r) => r,
            // A wrongly buried node transmits from its tombstoned
            // attachment (refutations and rejoin requests).
            Err(_) if self.wrongly_buried.contains_key(&from) => match self.tombstones.get(&from) {
                Some(a) => a.router_id(),
                None => return,
            },
            Err(_) => return,
        };
        let from_index = self.source_index(from);
        for o in out.outgoing {
            // A transmission of a frame whose first copy was already
            // processed is retry-timer waste — the receiver will dedup
            // it. Counted (cost zero) so the degradation sweep can
            // compare RTO policies by wasted sends.
            let src = o.env.src;
            let index = if src == from { from_index } else { self.source_index(src) };
            if self.delivered.contains(index, src, o.env.msg_id) {
                self.sys.meter.bump(MessageKind::SpuriousRetry, 1);
            }
            let to_router = o.to_addr.router_id();
            for d in self.transport.send(now, from_router, to_router, o.env) {
                self.admit(d);
            }
        }
        for t in out.timers {
            self.queue.schedule_at(t.at, MsgEvent::Timer { node: from, kind: t.kind });
        }
        self.completions.extend(out.completions);
    }

    /// Schedules one transport delivery, applying ingress backpressure:
    /// with a cap set and the destination's queue full, lookup-class
    /// frames are shed (metered, never delivered) while protocol-fact
    /// frames are admitted regardless — shedding a fact would corrupt
    /// protocol state to save queue space, the wrong trade.
    fn admit(&mut self, d: Delivery) {
        if let Some(cap) = self.ingress_cap {
            let queued = self.inflight.entry(d.env.dst).or_insert(0);
            let sheddable = matches!(
                d.env.msg,
                WireMessage::RouteHop { .. }
                    | WireMessage::Discovery { .. }
                    | WireMessage::DiscoveryReply { .. }
                    | WireMessage::ProbeMiss { .. }
            );
            if *queued >= cap && sheddable {
                self.sys.meter.bump(MessageKind::LoadShed, 1);
                return;
            }
            *queued += 1;
        }
        self.queue.schedule_at(d.at, MsgEvent::Deliver(d));
    }

    /// Scans buffered completions for this route's outcome.
    fn take_route_completion(
        &mut self,
        origin: Key,
        route_id: u64,
    ) -> Result<Option<SimTime>, MessagingError> {
        let mut found = None;
        let now = self.queue.now();
        self.completions.retain(|c| match *c {
            Completion::Delivered { origin: o, route_id: r } if o == origin && r == route_id => {
                if found.is_none() {
                    found = Some(Ok(Some(now)));
                }
                false
            }
            Completion::RouteFailed { origin: o, route_id: r, at }
                if o == origin && r == route_id =>
            {
                if found.is_none() {
                    found = Some(Err(MessagingError::RouteFailed { origin: o, route_id: r, at }));
                }
                false
            }
            _ => true,
        });
        found.unwrap_or(Ok(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_core::config::BristleConfig;
    use bristle_core::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;
    use bristle_proto::transport::TRACE_CAPACITY;

    /// The machines' dedup horizon under the default policy: twice
    /// `ack_timeout << max_attempts` = 20 000 << 4.
    const DEDUP_LIFETIME: u64 = 640_000;

    fn build(seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(40)
            .mobile_nodes(16)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .expect("system builds")
    }

    /// The monitor sets [`MessagingBristleSystem::seed_monitors`] used to
    /// build every round — a set of peers per watcher, from its own walk
    /// of the registration state — kept as the reference the diffed
    /// seeding is checked against.
    fn wanted_oracle(msys: &MessagingBristleSystem) -> BTreeMap<Key, BTreeSet<Key>> {
        let mut wanted: BTreeMap<Key, BTreeSet<Key>> = BTreeMap::new();
        let sys = &msys.sys;
        let failed = &msys.failed;
        let live = |k: Key| sys.node_info(k).is_ok() && !failed.contains(&k);
        let mut add = |watcher: Key, peer: Key| {
            if watcher != peer && live(watcher) && sys.node_info(peer).is_ok() {
                wanted.entry(watcher).or_default().insert(peer);
            }
        };
        let mut targets: Vec<Key> = sys.registry.iter().map(|(t, _)| t).collect();
        targets.sort_unstable();
        for t in targets {
            for r in sys.registry.registrants_of(t) {
                add(r.key, t);
                add(t, r.key);
            }
        }
        for &s in sys.stationary_keys() {
            if let Ok(set) = sys.stationary.replica_set(s, 2) {
                if let Some(&succ) = set.get(1) {
                    add(s, succ);
                }
            }
        }
        let mut all: Vec<Key> = sys.mobile.keys().collect();
        all.sort_unstable();
        let n = all.len();
        for (i, &node) in all.iter().enumerate() {
            add(all[(i + n - 1) % n], node);
        }
        wanted
    }

    fn monitored_sets(msys: &MessagingBristleSystem) -> BTreeMap<Key, Vec<Key>> {
        msys.machines.iter().map(|(i, m)| (msys.ids.key_of(i), m.monitored().to_vec())).collect()
    }

    /// Re-seeds and checks every machine against the oracle: a watcher
    /// the rules name monitors exactly its wanted peers, one they do not
    /// name keeps what it had, and every set is ascending.
    fn reseed_and_check(msys: &mut MessagingBristleSystem, after: &str) {
        let before = monitored_sets(msys);
        msys.seed_monitors();
        let oracle = wanted_oracle(msys);
        let now = monitored_sets(msys);
        assert!(!oracle.is_empty());
        for (watcher, peers) in &oracle {
            let peers: Vec<Key> = peers.iter().copied().collect();
            assert_eq!(now.get(watcher), Some(&peers), "after {after}: watcher {watcher}");
        }
        for (key, set) in &now {
            assert!(set.windows(2).all(|w| w[0] < w[1]), "after {after}: {key} unsorted");
            if !oracle.contains_key(key) {
                assert_eq!(before.get(key), Some(set), "after {after}: bystander {key} edited");
            }
        }
        // A second seeding finds nothing to do.
        msys.seed_monitors();
        assert_eq!(monitored_sets(msys), now, "after {after}: seeding is not idempotent");
    }

    fn seeding_matches_oracle_through_churn(seed: u64) {
        let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::lossy(0.02), seed);
        let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
        let stationary: Vec<Key> = msys.sys.stationary_keys().to_vec();
        reseed_and_check(&mut msys, "build");

        msys.sys.move_node(mobiles[1], None).expect("mover is live");
        reseed_and_check(&mut msys, "move");

        let victim = mobiles[3];
        msys.fail_silently(victim);
        reseed_and_check(&mut msys, "fail_silently");
        assert!(!msys.has_machine(victim), "a failed node never watches");
        assert!(
            monitored_sets(&msys).values().any(|set| set.contains(&victim)),
            "a failed node stays watched"
        );

        msys.leave(stationary[5]).expect("leaver is known");
        reseed_and_check(&mut msys, "leave");
        assert!(monitored_sets(&msys).values().all(|set| !set.contains(&stationary[5])));

        msys.register(stationary[0], mobiles[1]).expect("registration completes");
        msys.register(mobiles[2], mobiles[1]).expect("registration completes");
        reseed_and_check(&mut msys, "register");
        let set = monitored_sets(&msys);
        assert!(
            set[&mobiles[1]].contains(&stationary[0]) && set[&stationary[0]].contains(&mobiles[1])
        );

        let mut confirmed = false;
        for _ in 0..8 {
            if msys.heartbeat_round().contains(&victim) {
                confirmed = true;
                break;
            }
            msys.sys.tick(1);
        }
        assert!(confirmed, "seed {seed}: the crash was never detected");
        msys.confirm_and_heal(victim).expect("victim is known");
        reseed_and_check(&mut msys, "confirm_and_heal");
        assert!(monitored_sets(&msys).values().all(|set| !set.contains(&victim)));

        let report = msys.crash_restart(victim).expect("victim restarts");
        assert!(report.restored);
        reseed_and_check(&mut msys, "crash_restart");
        assert!(!monitored_sets(&msys)[&victim].is_empty(), "the restarted node watches again");
    }

    #[test]
    fn seeding_matches_oracle_through_churn_seed_a() {
        seeding_matches_oracle_through_churn(8);
    }

    #[test]
    fn seeding_matches_oracle_through_churn_seed_b() {
        seeding_matches_oracle_through_churn(27);
    }

    /// A restarted process numbers its frames from 0 again; they are new
    /// frames, not retransmissions of its previous life's.
    #[test]
    fn restarted_node_first_route_meters_no_spurious_retry() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
            let (victim, target) = (mobiles[0], mobiles[1]);
            // First life: the victim's frames 0.. are delivered and recorded.
            msys.route(victim, target).expect("clean route");
            msys.settle();
            msys.seed_monitors();
            msys.fail_silently(victim);
            let mut confirmed = false;
            for _ in 0..8 {
                if msys.heartbeat_round().contains(&victim) {
                    confirmed = true;
                    break;
                }
                msys.sys.tick(1);
            }
            assert!(confirmed, "seed {seed}: the crash was never detected");
            msys.confirm_and_heal(victim).expect("victim is known");
            assert!(msys.crash_restart(victim).expect("victim restarts").restored);
            msys.settle();
            let before = msys.sys.meter.count(MessageKind::SpuriousRetry);
            msys.route(victim, target).expect("clean route after restart");
            msys.settle();
            assert_eq!(
                msys.sys.meter.count(MessageKind::SpuriousRetry) - before,
                0,
                "seed {seed}: a perfect transport retransmits nothing"
            );
        }
    }

    /// The machines write the repository through `SystemEnv`, which
    /// forwards to the one write path of `bristle_core::repo`: after a
    /// registration, a dissemination and a route that resolves its hops
    /// by `_discovery`, every store still holds what the tables hold.
    #[test]
    fn message_path_keeps_stores_mirroring_tables() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let (watcher, m) = (msys.sys.stationary_keys()[0], msys.sys.mobile_keys()[0]);
            msys.register(watcher, m).expect("registration acked");
            assert!(msys.sys.registry.registrants_of(m).iter().any(|r| r.key == watcher));
            msys.sys.assert_stores_mirror_tables("register by message", true);

            msys.sys.move_node(m, None).expect("mobile node moves");
            msys.sys.tick(msys.sys.config().lease_ttl + 1);
            assert!(msys.sys.leases.is_empty(), "every lease lapsed");
            let acked = msys.disseminate_update(m).expect("dissemination runs");
            assert_eq!(msys.sys.leases.len(), acked, "one lease per acked LDT edge");
            msys.sys.assert_stores_mirror_tables("disseminate by message", true);

            let src = msys.sys.stationary_keys()[1];
            let before = msys.sys.meter.count(MessageKind::DiscoveryHop);
            msys.route(src, msys.sys.mobile_keys()[1]).expect("route delivers");
            msys.settle();
            assert!(msys.sys.meter.count(MessageKind::DiscoveryHop) > before, "no hop resolved");
            assert!(msys.sys.leases.len() > acked, "a resolution leases the address");
            msys.sys.assert_stores_mirror_tables("route with _discovery", true);
        }
    }

    /// A neighbour's dedup set still holds the previous life's
    /// `(src, msg_id)` pairs when a node restarts inside one dedup
    /// lifetime. The new life's hops must not be mistaken for them:
    /// acked as duplicates and never forwarded, the route would stall
    /// with the sender holding its ack.
    #[test]
    fn restarted_node_routes_through_a_neighbour_that_saw_its_previous_life() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
            let victim = mobiles[0];
            let born = msys.micro_now();
            // First life: every target's first hop leaves under a low id.
            for &target in &mobiles[1..] {
                msys.route(victim, target).expect("clean route");
            }
            msys.settle();
            msys.fail_silently(victim);
            msys.confirm_and_heal(victim).expect("victim is known");
            assert!(msys.crash_restart(victim).expect("victim restarts").restored);
            for &target in &mobiles[1..] {
                let done = msys.route(victim, target);
                assert!(done.is_ok(), "seed {seed}: route to {target} after restart: {done:?}");
            }
            assert!(msys.micro_now().since(born) < DEDUP_LIFETIME, "all inside one dedup lifetime");
        }
    }

    /// What the message path holds after `rounds` rounds of heartbeats
    /// at 2 % loss and a route burst, each settled.
    struct Held {
        sends: usize,
        trace_rows: usize,
        seen: usize,
        /// Frames of the deduplicated kinds this workload sends.
        guarded: u64,
        ledger_bytes: usize,
        machines: usize,
        elapsed: u64,
    }

    fn soak(seed: u64, rounds: usize) -> Held {
        let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::lossy(0.02), seed);
        let mut keys: Vec<Key> = msys.sys.mobile.keys().collect();
        keys.sort_unstable();
        let mut rng = bristle_netsim::rng::Pcg64::seed_from_u64(seed);
        msys.seed_monitors();
        for _ in 0..rounds {
            msys.heartbeat_round();
            msys.settle();
            let pairs: Vec<(Key, Key)> = (0..8)
                .map(|_| (*rng.choose(&keys), *rng.choose(&keys)))
                .filter(|(s, t)| s != t)
                .collect();
            msys.route_burst(&pairs);
            msys.settle();
        }
        Held {
            sends: msys.transport.trace().len(),
            trace_rows: msys.transport.trace().rows().len(),
            seen: msys.machines.iter().map(|(_, m)| m.seen_len()).sum(),
            guarded: [MessageKind::RouteHop, MessageKind::DiscoveryHop]
                .iter()
                .map(|&kind| msys.sys.meter.count(kind))
                .sum(),
            ledger_bytes: msys.delivered.heap_bytes(),
            machines: msys.machines.iter().count(),
            elapsed: msys.micro_now().0,
        }
    }

    /// The flatness gate, by count rather than by RSS: ten times the
    /// rounds must not mean ten times the tables. The send trace holds
    /// its ring, `seen` holds two lifetimes of traffic however long the
    /// run, and the delivery ledger — whose low-water mark is still
    /// ROADMAP 2(b)'s, so it does grow — stays at a bit per id plus a
    /// constant per source.
    #[test]
    fn message_path_tables_are_flat_in_rounds() {
        const R: usize = 40;
        for seed in [8u64, 27] {
            let (short, long) = (soak(seed, R), soak(seed, 10 * R));
            assert!(long.sends > 9 * short.sends, "seed {seed}: ten times the traffic");
            for held in [&short, &long] {
                assert!(held.sends > TRACE_CAPACITY, "seed {seed}: the ring wrapped");
                assert!(held.trace_rows <= TRACE_CAPACITY, "seed {seed}");
                let budget = held.sends / 8 + 128 * held.machines;
                assert!(
                    held.ledger_bytes <= budget,
                    "seed {seed}: ledger holds {} B for {} ids from {} sources, budget {budget} B",
                    held.ledger_bytes,
                    held.sends,
                    held.machines
                );
            }
            assert!(short.elapsed > DEDUP_LIFETIME, "seed {seed}: R rounds outlast one lifetime");
            // One lifetime's deduplicated traffic, at the long run's rate.
            let per_lifetime = long.guarded * DEDUP_LIFETIME / long.elapsed;
            assert!(
                (long.seen as u64) <= short.seen as u64 + per_lifetime,
                "seed {seed}: seen holds {} after {R} rounds and {} after {}; {per_lifetime} frames a lifetime",
                short.seen,
                long.seen,
                10 * R
            );
            assert!((long.seen as u64) < long.guarded / 10, "seed {seed}: and it forgets");
        }
    }

    /// `route_burst` as it was: one `take_route_completion` per open
    /// session per event.
    fn route_burst_reference(
        msys: &mut MessagingBristleSystem,
        pairs: &[(Key, Key)],
    ) -> Vec<Result<MessagingRouteReport, MessagingError>> {
        let mut results: Vec<Option<Result<MessagingRouteReport, MessagingError>>> =
            vec![None; pairs.len()];
        let mut sessions: Vec<Option<(Key, u64, SimTime)>> = Vec::new();
        for (i, &(src, target)) in pairs.iter().enumerate() {
            if msys.sys.node_info(src).is_err() || msys.failed.contains(&src) {
                results[i] = Some(Err(MessagingError::UnknownNode(src)));
                sessions.push(None);
                continue;
            }
            let now = msys.queue.now();
            let route_id = msys.start_route(src, target);
            sessions.push(Some((src, route_id, now)));
        }
        let mut events = 0u64;
        loop {
            let mut open = 0usize;
            for (i, session) in sessions.iter().enumerate() {
                let Some((src, route_id, started)) = *session else { continue };
                if results[i].is_some() {
                    continue;
                }
                match msys.take_route_completion(src, route_id) {
                    Ok(Some(done)) => {
                        msys.obs.route_latency.record(done.since(started));
                        results[i] =
                            Some(Ok(MessagingRouteReport { route_id, delivered_at: done, events }));
                    }
                    Ok(None) => open += 1,
                    Err(e) => results[i] = Some(Err(e)),
                }
            }
            if open == 0 || events >= MAX_EVENTS_PER_OP || !msys.step() {
                break;
            }
            events += 1;
        }
        results.into_iter().map(|r| r.unwrap_or(Err(MessagingError::Stalled))).collect()
    }

    /// Bursts on twin systems — duplicates and loss on the wire, an
    /// unknown source, a repeated pair, stale completions left in the
    /// buffer between bursts — must agree position by position, and
    /// leave the same completions, tallies and latency histogram behind.
    #[test]
    fn route_burst_matches_per_session_scan() {
        for seed in [8u64, 27] {
            let faults = FaultConfig {
                drop_probability: 0.15,
                duplicate_probability: 0.3,
                min_latency: 1,
                jitter: 7,
            };
            let mut a = MessagingBristleSystem::new(build(seed), faults.clone(), seed);
            let mut b = MessagingBristleSystem::new(build(seed), faults, seed);
            let mut keys: Vec<Key> = a.sys.mobile.keys().collect();
            keys.sort_unstable();
            let mut rng = bristle_netsim::rng::Pcg64::seed_from_u64(seed);
            for burst in 0..6 {
                let mut pairs: Vec<(Key, Key)> = (0..24)
                    .map(|_| (*rng.choose(&keys), *rng.choose(&keys)))
                    .filter(|(s, t)| s != t)
                    .collect();
                pairs.push((Key(0xDEAD_0000_0000_0001), keys[0]));
                pairs.push(pairs[0]);
                let got = a.route_burst(&pairs);
                let want = route_burst_reference(&mut b, &pairs);
                assert_eq!(got, want, "seed {seed} burst {burst}");
                assert_eq!(a.completions, b.completions, "seed {seed} burst {burst}: leftovers");
                assert!(got.iter().any(|r| r.is_ok()));
                // Callers that do not settle leave completions behind.
                if burst % 2 == 1 {
                    a.settle();
                    b.settle();
                }
            }
            assert_eq!(a.transport.trace_bytes(), b.transport.trace_bytes());
            assert_eq!(a.obs.route_latency.snapshot(), b.obs.route_latency.snapshot());
            for &kind in bristle_overlay::meter::ALL_KINDS.iter() {
                assert_eq!(a.sys.meter.count(kind), b.sys.meter.count(kind), "{kind:?}");
            }
        }
    }
}
