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
//! micro-clock for link latencies and the machines' wake-ups.
//!
//! The driver is one `impl` over four files. This one holds the struct
//! and the loop: one machine step (`drive_at`) lends a node's machine
//! the system through a `SystemEnv` and dispatches what comes back —
//! every operation start, delivery and wake goes through it — and one
//! event loop (`run_until`) offers the running operation each completion
//! once, takes out the ones it claims and runs events until it is done,
//! the queue drains or the budget is spent. `env` is that window (its
//! `emit` feeds the driver's registry and flight recorder), `ops` the
//! operations a caller runs to completion (each keeps only what it
//! claims and its own reading of a quiet or runaway stop), `liveness`
//! the driver's view of each node and the crash, burial, heartbeat-round
//! and rejoin steps that change it.
//!
//! The driver decides nothing about addresses: a frame travels between
//! the routers its header names and reaches its destination's machine
//! if that node is listening, and the machine decides whether it was
//! sent to the address the node holds now, as over sockets.
//!
//! The per-frame bookkeeping is kept out of the queue and out of hash
//! tables. An admitted frame waits in a driver-owned slab (`Frames`),
//! and its delivery event carries the slot's `u32`, not the 128-byte
//! frame; the slot is freed when that event is popped, and a frame the
//! ingress cap sheds never takes one. A machine keeps its own
//! deadlines and reports the earliest ([`Output::wake`]); the driver
//! queues a wake for it unless the last one it queued is still ahead
//! and no later ([`Output::wake_to_queue`]), so the queue holds a wake
//! or two per machine, not one timer per send, and a wake event is just
//! the node's dense index. A node's key is resolved to that index once
//! per delivery, and its machine, what the driver holds against it, its
//! ingress depth and its last wake are array reads under it. The driver
//! keeps no record of which frames were processed: whether a frame a
//! wake sent is a spurious retry is read from the destination machine's
//! dedup window ([`ProtoMachine::has_processed`]), as the socket driver
//! reads it.

use std::collections::BTreeSet;

use bristle_core::arena::{NodeArena, NodeIdx};
use bristle_core::auth::{AuthDomain, VerifyPolicy};
use bristle_core::system::BristleSystem;
use bristle_core::time::SimTime;
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{Counter, FlightRecorder, Gauge, Hist, Registry};
use bristle_proto::failure::FailurePolicy;
use bristle_proto::machine::{Completion, Event, Frame, Output, ProtoMachine, RetryPolicy};
use bristle_proto::transport::{Delivery, FaultConfig, SimTransport, Transport};
use bristle_proto::wire::{Envelope, WireAddr, WireMessage};

use crate::engine::EventQueue;

mod env;
mod liveness;
mod ops;

pub(crate) use env::{addr_of, children_by_parent, wire_addr_of, AuthConfig, SystemEnv};
pub(crate) use liveness::Nodes;

/// Hard cap on events processed per driver operation; hitting it means a
/// protocol bug (unbounded retry), not a slow network.
const MAX_EVENTS_PER_OP: u64 = 2_000_000;

/// How many structured events the driver's flight recorder retains.
/// Large enough to hold a whole operation's causal neighborhood at the
/// paper's scales; old events are overwritten (and counted) beyond it.
pub(crate) const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// Events on the driver's micro-clock.
enum MsgEvent {
    /// A frame reaches its destination: the one in this slot of the
    /// driver's [`Frames`].
    Deliver(u32),
    /// A wake the machine at this index asked for comes due.
    Wake(NodeIdx),
    /// A scheduled mid-operation disruption: move a mobile node (its
    /// registrants are told only by a later dissemination).
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

// Every event in flight is one of these in a wheel bucket or an overflow
// deque, so its size is the queue's resident bytes per event. A delivery
// and a wake carry 4-B indices; the floor is `Move`, a key and an
// optional router (16 B) plus the tag.
const _: () = assert!(std::mem::size_of::<MsgEvent>() <= 24);

/// The frames in flight, each in a slot a [`MsgEvent::Deliver`] names,
/// so the queue moves a `u32` where it would move a frame. A slot is
/// taken when a frame is admitted and freed by its own delivery event,
/// before the destination polls; freed slots are reused first, so the
/// slab holds no more slots than the most frames ever in flight at
/// once. The arrival time is the event's queue time. A slot holds a
/// frame's addresses as the attachment map holds one
/// ([`WireAddr::to_net`]), 128 bytes where a [`Frame`] takes 136: every
/// epoch a host can hold narrows to itself and every wider one to an
/// epoch no host holds, so the frame meets the same fate either way.
#[derive(Default)]
struct Frames {
    slots: Vec<Option<(NetAddr, NetAddr, Envelope)>>,
    free: Vec<u32>,
}

// `liveness-1e3` holds about 7 000 frames in flight.
const _: () = assert!(std::mem::size_of::<Option<(NetAddr, NetAddr, Envelope)>>() <= 128);

impl Frames {
    /// Parks a frame; returns its slot.
    fn put(&mut self, frame: Frame) -> u32 {
        let frame = Some((frame.to_addr.to_net(), frame.from_addr.to_net(), frame.env));
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = frame;
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("fewer than 2^32 frames in flight");
                self.slots.push(frame);
                slot
            }
        }
    }

    /// Takes the frame out of `slot` and frees the slot.
    fn take(&mut self, slot: u32) -> Frame {
        let (to, from, env) =
            self.slots[slot as usize].take().expect("a slot is freed once, by its own event");
        self.free.push(slot);
        Frame { to_addr: WireAddr::from_net(to), from_addr: WireAddr::from_net(from), env }
    }

    /// Frames in flight now.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
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

/// What a completed messaging route reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessagingRouteReport {
    /// Originator-scoped route id.
    pub route_id: u64,
    /// Micro-clock time the route reached its target's owner.
    pub delivered_at: SimTime,
}

/// A [`BristleSystem`] driven entirely by messages over a
/// [`SimTransport`].
pub struct MessagingBristleSystem {
    /// The shared system state (routing tables, leases, meter, clock).
    pub sys: BristleSystem,
    transport: SimTransport,
    /// The driver's view of every node: what is held against it, its
    /// ingress depth, its last queued wake. It and the machines below
    /// are indexed by the system's interner.
    nodes: Nodes,
    machines: NodeArena<ProtoMachine>,
    queue: EventQueue<MsgEvent>,
    /// The frames the queue's `Deliver` events name.
    frames: Frames,
    policy: RetryPolicy,
    failure_policy: FailurePolicy,
    completions: Vec<Completion>,
    /// This run's series; latencies are micro-clock ticks (the
    /// [`EventQueue`]'s time scale, not the coarse lease clock).
    obs: Registry,
    /// Bounded ring of recent structured protocol events.
    flight: FlightRecorder,
    /// Authentication configuration shared by every node's environment.
    auth: AuthConfig,
    /// Whether every machine runs adaptive RTO estimation (`false` =
    /// fixed [`RetryPolicy`] timers, the default).
    adaptive_rto: bool,
    /// Bounded-ingress backpressure: max queued deliveries per
    /// destination node before lookup-class frames are shed (`None` =
    /// unbounded, the default).
    ingress_cap: Option<usize>,
    /// Peers some watcher's health score currently holds degraded; fed
    /// to [`SystemEnv::replicas`] for healthy-first ordering.
    degraded: BTreeSet<Key>,
    /// What `seed_inputs` read when the monitor sets were last seeded
    /// (`None` before the first seeding).
    seeded_at: Option<u64>,
    /// Every machine started judges duplicates by a never-pruned set
    /// ([`ProtoMachine::use_dedup_oracle`]).
    #[cfg(test)]
    dedup_oracle: bool,
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
        MessagingBristleSystem {
            sys,
            transport,
            nodes: Nodes::default(),
            machines: NodeArena::new(),
            queue: EventQueue::new(),
            frames: Frames::default(),
            policy,
            failure_policy: FailurePolicy::default(),
            completions: Vec::new(),
            obs: Registry::default(),
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            auth: AuthConfig::default(),
            adaptive_rto: false,
            ingress_cap: None,
            degraded: BTreeSet::new(),
            seeded_at: None,
            #[cfg(test)]
            dedup_oracle: false,
        }
    }

    /// Starts every machine on adaptive per-peer RTO estimation
    /// ([`ProtoMachine::set_adaptive_rto`]) instead of fixed timers.
    /// Like every setter here it configures a fresh driver: a machine
    /// already running keeps the timers it started with.
    pub fn set_adaptive_rto(&mut self, on: bool) {
        self.adaptive_rto = on;
    }

    /// Bounds every node's ingress queue at `cap` pending deliveries:
    /// beyond it, lookup-class frames (route and discovery traffic) are
    /// shed deterministically and metered as [`MessageKind::LoadShed`];
    /// protocol-fact frames (updates, registrations, heartbeats, acks,
    /// verdicts) are always admitted, so overload degrades lookup
    /// latency instead of corrupting protocol state. Without a cap (the
    /// default) there is no backpressure.
    pub fn set_ingress_cap(&mut self, cap: usize) {
        self.ingress_cap = Some(cap);
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

    /// Overrides the failure-detection policy every machine starts
    /// under (a machine already running keeps its own).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure_policy = policy;
    }

    /// `key`'s index in the system's one interner, if the system ever
    /// held it.
    fn idx(&self, key: Key) -> Option<NodeIdx> {
        self.sys.interner().get(key)
    }

    /// The machine for `key`, if one is running.
    fn machine_of(&self, key: Key) -> Option<&ProtoMachine> {
        self.idx(key).and_then(|i| self.machines.get(i))
    }

    /// Starts a machine at `idx` under the session's policies, unless
    /// one is running.
    fn ensure_machine(&mut self, idx: NodeIdx) {
        if !self.machines.contains(idx) {
            let mut m = ProtoMachine::new(self.sys.interner().key_of(idx), self.policy);
            m.set_failure_policy(self.failure_policy);
            m.set_adaptive_rto(self.adaptive_rto);
            #[cfg(test)]
            if self.dedup_oracle {
                m.use_dedup_oracle();
            }
            self.machines.insert(idx, m);
            self.nodes.touch();
        }
    }

    /// The machine for `node`, started if need be; none for a key the
    /// system never held.
    fn machine_started(&mut self, node: Key) -> Option<&mut ProtoMachine> {
        let idx = self.idx(node)?;
        self.ensure_machine(idx);
        self.machines.get_mut(idx)
    }

    /// One step of `node`'s machine, if one is running.
    #[inline]
    fn drive(
        &mut self,
        node: Key,
        f: impl FnOnce(&mut ProtoMachine, SimTime, &mut SystemEnv<'_>) -> Output,
    ) {
        if let Some(idx) = self.idx(node) {
            self.drive_at(idx, false, f);
        }
    }

    /// One machine step: lends the machine at `idx` the system through a
    /// [`SystemEnv`] for the length of `f` and dispatches what `f`
    /// returns — every operation start, delivery and wake goes through
    /// here. `woke` says `f` polled a wake, the one step that
    /// retransmits (see [`Self::meter_spurious`]). Without a machine
    /// nothing happens.
    #[inline]
    fn drive_at(
        &mut self,
        idx: NodeIdx,
        woke: bool,
        f: impl FnOnce(&mut ProtoMachine, SimTime, &mut SystemEnv<'_>) -> Output,
    ) {
        let now = self.queue.now();
        // The one place the driver's disjoint fields are lent out.
        let Self { sys, nodes, obs, flight, auth, degraded, machines, .. } = self;
        let Some(machine) = machines.get_mut(idx) else { return };
        let out =
            f(machine, now, &mut SystemEnv { sys, nodes, obs, flight, auth: *auth, degraded });
        if woke {
            self.meter_spurious(&out);
        }
        self.dispatch(idx, out);
    }

    /// The one event loop, and the only place completions leave the
    /// buffer. Before every event it offers `claim` each completion not
    /// yet offered, once and in order (those buffered on entry first),
    /// as `Some(c)`, and takes out the ones it claims; then `None` asks
    /// whether the operation is done. Stops then, when the queue drains
    /// or when the per-operation budget is spent; returns how.
    #[inline]
    fn run_until(&mut self, mut claim: impl FnMut(&Self, Option<Completion>) -> bool) -> Ran {
        let mut events = 0u64;
        // Completions below `offered` were offered and not claimed.
        let mut offered = 0usize;
        loop {
            let mut kept = offered;
            for j in offered..self.completions.len() {
                let c = self.completions[j];
                if !claim(self, Some(c)) {
                    self.completions[kept] = c;
                    kept += 1;
                }
            }
            self.completions.truncate(kept);
            offered = kept;
            if claim(self, None) {
                return Ran::Done;
            }
            if events >= MAX_EVENTS_PER_OP {
                return Ran::Runaway;
            }
            if !self.step() {
                return Ran::Quiet;
            }
            events += 1;
        }
    }

    /// Runs the network quiet (or the budget out), claiming nothing.
    fn drain(&mut self) {
        self.run_until(|_, _| false);
    }

    /// Whether a machine is running for `key`.
    fn has_machine(&self, key: Key) -> bool {
        self.machine_of(key).is_some()
    }

    /// Retires `key`'s machine (its interned index survives).
    fn remove_machine(&mut self, key: Key) {
        if let Some(i) = self.idx(key) {
            if self.machines.remove(i).is_some() {
                self.nodes.touch();
            }
        }
    }

    /// Keys of all running machines, sorted.
    fn machine_keys_sorted(&self) -> Vec<Key> {
        let key_of = |i| self.sys.interner().key_of(i);
        let mut keys: Vec<Key> = self.machines.iter().map(|(i, _)| key_of(i)).collect();
        keys.sort_unstable();
        keys
    }

    /// The transport (for its trace).
    pub fn transport(&self) -> &SimTransport {
        &self.transport
    }

    /// A snapshot of the run's series, its gauges read now: `seen` is
    /// every running machine's [`ProtoMachine::seen_held`]. The
    /// transport counts every send, so `frames_sent` is read from its
    /// trace rather than kept twice.
    pub fn registry(&self) -> Registry {
        let mut snapshot = self.obs.clone();
        let seen = self.machines.iter().map(|(_, m)| m.seen_held() as u64).sum();
        snapshot.set(Gauge::Seen, seen);
        snapshot.add(Counter::FramesSent, self.transport.trace().len() as u64);
        snapshot
    }

    /// The run's most recent structured protocol events.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The driver's micro-clock.
    pub fn micro_now(&self) -> SimTime {
        self.queue.now()
    }

    /// Peers some watcher's health score currently holds degraded
    /// (sorted). Refreshed by every [`Self::heartbeat_round`].
    pub fn degraded_peers(&self) -> Vec<Key> {
        self.degraded.iter().copied().collect()
    }

    /// Pops and handles one event. Returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((_, event)) = self.queue.pop() else {
            return false;
        };
        match event {
            MsgEvent::Deliver(slot) => {
                let frame = self.frames.take(slot);
                let dst = frame.env.dst;
                let idx = self.idx(dst);
                if let (Some(_), Some(i)) = (self.ingress_cap, idx) {
                    let queued = self.nodes.ingress_mut(i);
                    *queued = queued.saturating_sub(1);
                }
                // A crashed node hears nothing; a wrongly buried one is
                // gone from the system's books but still listening where
                // it last lived: its obituary must reach it.
                let listening =
                    liveness::listening(self.nodes.held_at(idx), || self.sys.contains_node(dst));
                if let (true, Some(idx)) = (listening, idx) {
                    // A first frame starts the machine.
                    self.ensure_machine(idx);
                    self.drive_at(idx, false, |m, now, env| m.poll(now, Event::Arrive(frame), env));
                }
            }
            MsgEvent::Wake(node) => {
                self.drive_at(node, true, |m, now, env| m.poll(now, Event::Wake, env));
            }
            MsgEvent::Move { key, to } => {
                let _ = self.sys.relocate(key, to);
            }
            MsgEvent::Fail { key } => self.fail_silently(key),
        }
        true
    }

    /// Meters each frame of `out`, which a wake just sent, as a
    /// [`MessageKind::SpuriousRetry`] if its destination already
    /// processed it: retransmission waste its dedup window will drop.
    /// Counted (cost zero) so the degradation sweep can compare RTO
    /// policies by wasted sends. Only a wake retransmits, and a frame it
    /// sends fresh was never processed, so every frame it sent is asked
    /// about and no other send is.
    fn meter_spurious(&mut self, out: &Output) {
        for o in &out.outgoing {
            let processed = |m: &ProtoMachine| m.has_processed(o.env.src, o.env.msg_id);
            if self.machine_of(o.env.dst).is_some_and(processed) {
                self.sys.meter.bump(MessageKind::SpuriousRetry, 1);
            }
        }
    }

    /// Turns one machine's [`Output`] into transport sends, scheduled
    /// deliveries and, unless the node's last wake still covers it, a
    /// queued wake. A node that is not listening sends nothing.
    fn dispatch(&mut self, idx: NodeIdx, out: Output) {
        let (now, from) = (self.queue.now(), self.sys.interner().key_of(idx));
        if !liveness::listening(self.nodes.held_at(Some(idx)), || self.sys.contains_node(from)) {
            return;
        }
        let wake = out.wake_to_queue(self.nodes.wake_mut(idx), now);
        for Frame { to_addr, from_addr, env } in out.outgoing {
            let (from, to) = (from_addr.router_id(), to_addr.router_id());
            for d in self.transport.send(now, from, to, env) {
                self.admit(d, to_addr, from_addr);
            }
        }
        if let Some(at) = wake {
            self.queue.schedule_at(at, MsgEvent::Wake(idx));
        }
        // A verdict heard from a third party starts monitoring its
        // subject (`FailureDetector::mark_dead`): the one way a
        // monitored set grows without a seeding.
        if out.completions.iter().any(|c| matches!(c, Completion::PeerDead { .. })) {
            self.nodes.touch();
        }
        self.completions.extend(out.completions);
    }

    /// Schedules one transport delivery of a frame sent to `to_addr` from
    /// `from_addr`, applying ingress backpressure: with a cap set and the
    /// destination's queue full, lookup-class frames are shed (metered,
    /// never delivered) while protocol-fact frames are admitted
    /// regardless — shedding a fact would corrupt protocol state to save
    /// queue space, the wrong trade.
    fn admit(&mut self, d: Delivery, to_addr: WireAddr, from_addr: WireAddr) {
        // A key the system never held has no queue: its frame is dropped
        // on arrival.
        if let (Some(cap), Some(idx)) = (self.ingress_cap, self.idx(d.env.dst)) {
            let queued = self.nodes.ingress_mut(idx);
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
        let slot = self.frames.put(Frame { to_addr, from_addr, env: d.env });
        self.queue.schedule_at(d.at, MsgEvent::Deliver(slot));
    }
}

#[cfg(test)]
mod schedules;

/// What the per-file driver tests share.
#[cfg(test)]
mod testkit {
    use bristle_core::config::BristleConfig;
    use bristle_core::system::{BristleBuilder, BristleSystem};
    use bristle_netsim::transit_stub::TransitStubConfig;

    /// The machines' dedup horizon under the default policy: twice
    /// `ack_timeout << max_attempts` = 20 000 << 4.
    pub(super) const DEDUP_LIFETIME: u64 = 640_000;

    pub(super) fn build(seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(40)
            .mobile_nodes(16)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .expect("system builds")
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use bristle_proto::transport::TRACE_CAPACITY;

    /// What the message path holds after `rounds` rounds of heartbeats
    /// at 2 % loss and a route burst, each settled.
    struct Held {
        sends: usize,
        trace_rows: usize,
        seen: u64,
        /// Frames of the deduplicated kinds this workload sends.
        guarded: u64,
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
            seen: msys.registry().gauge(Gauge::Seen),
            guarded: [MessageKind::RouteHop, MessageKind::DiscoveryHop]
                .iter()
                .map(|&kind| msys.sys.meter.count(kind))
                .sum(),
            elapsed: msys.micro_now().0,
        }
    }

    /// The flatness gate, by count rather than by RSS: ten times the
    /// rounds must not mean ten times the tables. The send trace holds
    /// its ring and `seen` holds two lifetimes of traffic however long
    /// the run.
    #[test]
    fn message_path_tables_are_flat_in_rounds() {
        const R: usize = 40;
        for seed in [8u64, 27] {
            let (short, long) = (soak(seed, R), soak(seed, 10 * R));
            assert!(long.sends > 9 * short.sends, "seed {seed}: ten times the traffic");
            for held in [&short, &long] {
                assert!(held.sends > TRACE_CAPACITY, "seed {seed}: the ring wrapped");
                assert!(held.trace_rows <= TRACE_CAPACITY, "seed {seed}");
            }
            assert!(short.elapsed > DEDUP_LIFETIME, "seed {seed}: R rounds outlast one lifetime");
            // One lifetime's deduplicated traffic, at the long run's rate.
            let per_lifetime = long.guarded * DEDUP_LIFETIME / long.elapsed;
            assert!(
                long.seen <= short.seen + per_lifetime,
                "seed {seed}: seen holds {} after {R} rounds and {} after {}; {per_lifetime} frames a lifetime",
                short.seen,
                long.seen,
                10 * R
            );
            assert!(long.seen < long.guarded / 10, "seed {seed}: and it forgets");
        }
    }

    /// The `seen` gauge is read when a snapshot is taken: it is the sum
    /// of what every running machine's dedup window holds then, and a
    /// snapshot taken earlier keeps its own reading.
    #[test]
    fn the_seen_gauge_is_the_machines_summed_dedup_occupancy() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let held = |m: &MessagingBristleSystem| -> u64 {
                m.machines.iter().map(|(_, machine)| machine.seen_held() as u64).sum()
            };
            let before = msys.registry();
            assert_eq!(before.gauge(Gauge::Seen), 0, "seed {seed}: nothing processed yet");
            let mobiles = msys.sys.mobile_keys().to_vec();
            for pair in mobiles.windows(2) {
                msys.route(pair[0], pair[1]).expect("a perfect transport delivers");
            }
            let after = msys.registry();
            assert!(after.gauge(Gauge::Seen) > 0, "seed {seed}: the routes left entries");
            assert_eq!(after.gauge(Gauge::Seen), held(&msys), "seed {seed}");
            assert_eq!(before.gauge(Gauge::Seen), 0, "seed {seed}: the earlier snapshot stands");
        }
    }

    /// `frames_sent` is the transport's send count, read when the
    /// snapshot is taken: a driver's sends and an injected volley alike,
    /// acks included, with no second tally to drift from it.
    #[test]
    fn frames_sent_is_the_transports_send_count() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let frames = |m: &MessagingBristleSystem| m.registry().counter(Counter::FramesSent);
            assert_eq!(frames(&msys), 0, "seed {seed}");
            let mobiles = msys.sys.mobile_keys().to_vec();
            for pair in mobiles.windows(2) {
                msys.route(pair[0], pair[1]).expect("a perfect transport delivers");
            }
            msys.settle();
            let routed = frames(&msys);
            let hops = msys.sys.meter.count(MessageKind::RouteHop);
            assert!(
                routed > hops,
                "seed {seed}: {routed} frames for {hops} metered hops and their acks"
            );
            assert_eq!(routed, msys.transport().trace().len() as u64, "seed {seed}");
            // A volley of acks nobody awaits, each a frame the transport
            // carries and the meter never sees.
            let to = wire_addr_of(&msys.sys, mobiles[0]).expect("live");
            for acked in 0..5 {
                let ack = Envelope {
                    src: mobiles[1],
                    dst: mobiles[0],
                    msg_id: u64::MAX - acked,
                    trace_id: 0,
                    msg: WireMessage::HopAck { acked },
                    auth: None,
                };
                msys.inject_frame(to.router_id(), to, ack);
            }
            msys.settle_injected();
            assert_eq!(frames(&msys), routed + 5, "seed {seed}");
            assert_eq!(frames(&msys), msys.transport().trace().len() as u64, "seed {seed}");
        }
    }

    /// `SpuriousRetry` is "a retransmission of a frame the destination
    /// had already processed", read from the destination's dedup window.
    /// A `Register` whose acks are all lost is processed once and
    /// retransmitted until its ladder runs out: every retransmission is
    /// spurious. If the target leaves after processing the first copy,
    /// nobody holds that record any more and the copies black-hole: none
    /// is.
    #[test]
    fn spurious_retries_are_read_from_the_destinations_dedup_window() {
        use bristle_proto::transport::Degradation;
        for seed in [8u64, 27] {
            for leaves in [false, true] {
                let ctx = format!("seed {seed}, target leaves {leaves}");
                let mut msys =
                    MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
                let mut mobiles: Vec<Key> = msys.sys.mobile.keys().collect();
                mobiles.sort_unstable();
                let (who, target) = (mobiles[0], mobiles[1]);
                msys.degrade_link_now(target, who, Degradation::lossy(1.0));
                let count = |m: &MessagingBristleSystem, kind| m.sys.meter.count(kind);
                let (sent, spurious) =
                    (count(&msys, MessageKind::Register), count(&msys, MessageKind::SpuriousRetry));

                let mut msg_id = None;
                msys.machine_started(who);
                msys.drive(who, |m, now, env| {
                    let out = m.start_register(now, env, target, 1);
                    msg_id = Some(out.outgoing[0].env.msg_id);
                    out
                });
                let msg_id = msg_id.expect("a Register went out");
                let processed = |d: &MessagingBristleSystem, c: Option<Completion>| {
                    c.is_none()
                        && d.machine_of(target).is_some_and(|m| m.has_processed(who, msg_id))
                };
                assert!(matches!(msys.run_until(processed), Ran::Done), "{ctx}");
                if leaves {
                    msys.leave(target).expect("target leaves");
                }
                msys.drain();

                let retransmissions = count(&msys, MessageKind::Register) - sent - 1;
                assert_eq!(retransmissions, u64::from(msys.policy.max_attempts) - 1, "{ctx}");
                let want = if leaves { 0 } else { retransmissions };
                assert_eq!(count(&msys, MessageKind::SpuriousRetry) - spurious, want, "{ctx}");
                assert!(msys.completions.contains(&Completion::RegisterFailed { target }), "{ctx}");
            }
        }
    }

    /// The socket driver's pending-wake gate, on this driver: routes run
    /// back to back with no `settle`, each stopped at its own delivery,
    /// leave at most two wakes queued a machine, where a timer a send
    /// would leave one for every hop still in its ack wait. Settled, the
    /// queue holds none, and no deadline was missed on the way.
    #[test]
    fn pending_wakes_stay_within_two_a_machine() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mut mobiles: Vec<Key> = msys.sys.mobile.keys().collect();
            mobiles.sort_unstable();
            let wakes = |m: &MessagingBristleSystem| {
                m.queue.pending_events().filter(|e| matches!(e, MsgEvent::Wake(_))).count()
            };
            let mut peak = 0;
            for &src in &mobiles {
                for &target in mobiles.iter().filter(|&&t| t != src) {
                    msys.route(src, target).expect("a perfect transport delivers");
                    peak = peak.max(wakes(&msys));
                }
            }
            let machines = msys.machines.iter().count();
            let hops = msys.sys.meter.count(MessageKind::RouteHop) as usize;
            assert!(hops > 4 * machines, "seed {seed}: {hops} hops over {machines} machines");
            assert!(peak <= 2 * machines, "seed {seed}: {peak} wakes for {machines} machines");
            msys.settle();
            assert_eq!(msys.queue.len(), 0, "seed {seed}");
            assert_eq!(msys.sys.meter.count(MessageKind::Timeout), 0, "seed {seed}");
        }
    }

    /// One wake that finds two `Register`s due resends both frames, and
    /// meters a spurious retry for each: both targets processed the first
    /// copy, and every ack is lost. Only one wake is queued for the two.
    #[test]
    fn one_wake_meters_each_resent_frame_its_destination_processed() {
        use bristle_proto::transport::Degradation;
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mut mobiles: Vec<Key> = msys.sys.mobile.keys().collect();
            mobiles.sort_unstable();
            let (who, targets) = (mobiles[0], [mobiles[1], mobiles[2]]);
            for target in targets {
                msys.degrade_link_now(target, who, Degradation::lossy(1.0));
            }
            let count = |m: &MessagingBristleSystem, kind| m.sys.meter.count(kind);
            let (sent, spurious) =
                (count(&msys, MessageKind::Register), count(&msys, MessageKind::SpuriousRetry));
            msys.machine_started(who);
            for target in targets {
                msys.drive(who, |m, now, env| m.start_register(now, env, target, 1));
            }
            let idx = msys.idx(who).expect("interned");
            let queued = |m: &MessagingBristleSystem| {
                m.queue
                    .pending_events()
                    .filter(|e| matches!(e, MsgEvent::Wake(i) if *i == idx))
                    .count()
            };
            assert_eq!(queued(&msys), 1, "seed {seed}: one wake for both deadlines");
            msys.drain();
            let retransmissions = 2 * (u64::from(msys.policy.max_attempts) - 1);
            let registers = count(&msys, MessageKind::Register) - sent;
            assert_eq!(registers, 2 + retransmissions, "seed {seed}");
            let resent = count(&msys, MessageKind::SpuriousRetry) - spurious;
            assert_eq!(resent, retransmissions, "seed {seed}");
            for target in targets {
                let failed = Completion::RegisterFailed { target };
                assert!(msys.completions.contains(&failed), "seed {seed}");
            }
        }
    }

    /// The `Deliver` events in the queue.
    fn queued_deliveries(msys: &MessagingBristleSystem) -> usize {
        msys.queue.pending_events().filter(|e| matches!(e, MsgEvent::Deliver(_))).count()
    }

    /// Every frame slot in use is named by exactly one queued `Deliver`,
    /// checked before every event of heartbeat rounds and route bursts at
    /// 2 % loss under an ingress cap, with a forged frame among them: a
    /// shed frame takes no slot, a delivered one gives its slot back, and
    /// a drained network holds none. Freed slots are reused, so the slab
    /// never grows past the most frames in flight at once.
    #[test]
    fn frame_slots_are_the_queued_deliveries() {
        use bristle_proto::wire::WireAddr;
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::lossy(0.02), seed);
            msys.set_ingress_cap(1);
            let mut peak = 0;
            let mut check = |m: &MessagingBristleSystem| {
                let live = m.frames.live();
                assert_eq!(live, queued_deliveries(m), "seed {seed}: one slot per queued frame");
                peak = peak.max(live);
                false
            };
            let mut mobiles: Vec<Key> = msys.sys.mobile.keys().collect();
            mobiles.sort_unstable();
            let mut rng = bristle_netsim::rng::Pcg64::seed_from_u64(seed);
            msys.seed_monitors();
            for round in 0..6 {
                for w in msys.machine_keys_sorted() {
                    msys.drive(w, |m, now, env| m.start_heartbeats(now, env));
                }
                msys.run_until(|m, c| c.is_none() && check(m));
                for _ in 0..24 {
                    let (src, target) = (*rng.choose(&mobiles), *rng.choose(&mobiles));
                    if src != target {
                        msys.machine_started(src);
                        msys.drive(src, |m, now, env| m.start_route(now, env, target).1);
                    }
                }
                if round == 3 {
                    let dst = mobiles[0];
                    let to = wire_addr_of(&msys.sys, dst).expect("live");
                    let forged = Envelope {
                        src: msys.sys.stationary_keys()[0],
                        dst,
                        msg_id: u64::MAX,
                        trace_id: 0,
                        msg: WireMessage::DiscoveryReply {
                            subject: mobiles[1],
                            session: u64::MAX,
                            addr: Some(WireAddr { router: 4_000_000, ..to }),
                        },
                        auth: None,
                    };
                    msys.inject_frame(to.router_id(), to, forged);
                }
                msys.run_until(|m, c| c.is_none() && check(m));
                msys.settle();
                assert_eq!((msys.frames.live(), queued_deliveries(&msys)), (0, 0), "seed {seed}");
            }
            assert!(
                msys.sys.meter.count(MessageKind::LoadShed) > 0,
                "seed {seed}: frames were shed"
            );
            assert!(msys.sys.meter.count(MessageKind::MalformedFrame) > 0, "seed {seed}: forged");
            assert!(peak > 1, "seed {seed}: frames overlapped in flight");
            assert!(
                msys.frames.slots.len() <= peak,
                "seed {seed}: {} slots for at most {peak} frames in flight",
                msys.frames.slots.len()
            );
        }
    }

    /// A system at `seed` on a perfect transport with every lease lapsed:
    /// a hop to a mobile node now needs a `_discovery`.
    fn leases_lapsed(seed: u64) -> MessagingBristleSystem {
        let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
        msys.sys.tick(msys.sys.config().lease_ttl + 1);
        assert!(msys.sys.leases.is_empty(), "seed {seed}: every lease lapsed");
        msys
    }

    /// Mobile `(src, target, next)` triples, ascending, whose route's
    /// first hop `src → next` goes to a mobile node: with no lease on
    /// it, the route must resolve `next` before it can move.
    fn discovering_routes(msys: &MessagingBristleSystem) -> Vec<(Key, Key, Key)> {
        let sys = &msys.sys;
        let mut mobiles = sys.mobile_keys().to_vec();
        mobiles.sort_unstable();
        let first_hop = |src, target| sys.mobile.next_hop(src, target).ok().flatten();
        let mut routes = Vec::new();
        for &src in &mobiles {
            for &target in mobiles.iter().filter(|&&t| t != src) {
                if let Some(next) = first_hop(src, target).filter(|&n| sys.is_mobile(n)) {
                    routes.push((src, target, next));
                }
            }
        }
        routes
    }

    /// A `DiscoveryReply` forged with an open session's id and an address
    /// whose router the topology lacks is dropped before it touches the
    /// session, metered once as malformed. The honest reply then resolves
    /// the session: the asker is leased the honest address and the route
    /// is delivered. (Accepted, the forgery sent the parked hop toward a
    /// router the distance oracle cannot price.)
    #[test]
    fn a_forged_discovery_reply_is_dropped_before_it_touches_the_session() {
        use bristle_proto::wire::{Envelope, WireAddr};
        for seed in [8u64, 27] {
            let mut msys = leases_lapsed(seed);
            let (src, target, next) = discovering_routes(&msys)[0];
            let mut opened = None;
            msys.machine_started(src);
            msys.drive(src, |m, now, env| {
                let (route_id, out) = m.start_route(now, env, target);
                if let WireMessage::Discovery { session, .. } = out.outgoing[0].env.msg {
                    opened = Some((route_id, session));
                }
                out
            });
            let (route_id, session) = opened.expect("the first hop opened a discovery");

            let honest = wire_addr_of(&msys.sys, next).expect("live");
            let asker = wire_addr_of(&msys.sys, src).expect("live");
            let forged = Envelope {
                src: msys.sys.stationary_keys()[0],
                dst: src,
                msg_id: u64::MAX,
                trace_id: 0,
                msg: WireMessage::DiscoveryReply {
                    subject: next,
                    session,
                    addr: Some(WireAddr { router: 4_000_000, ..honest }),
                },
                auth: None,
            };
            let malformed =
                |m: &MessagingBristleSystem| m.sys.meter.count(MessageKind::MalformedFrame);
            let before = malformed(&msys);
            msys.inject_frame(asker.router_id(), asker, forged);
            msys.drain();

            assert_eq!(malformed(&msys) - before, 1, "seed {seed}: the forgery metered once");
            let delivered = Completion::Delivered { origin: src, route_id };
            assert!(msys.completions.contains(&delivered), "seed {seed}: {:?}", msys.completions);
            let row = msys.sys.mobile.node(src).expect("live").entry(next).expect("row");
            assert_eq!(row.addr, Some(honest.to_net()), "seed {seed}");
            assert!(msys.sys.leases.is_fresh(src, next, msys.sys.clock.now()), "seed {seed}");
        }
    }

    /// Every hop a failed `_discovery` sends to its subject's true
    /// address is counted, once: none on a perfect transport, where every
    /// discovery resolves; one when every copy of the discovery is lost —
    /// and that route is delivered all the same, by the oracle.
    #[test]
    fn hops_forwarded_past_a_failed_discovery_are_counted() {
        use bristle_proto::transport::Degradation;
        let oracle = |m: &MessagingBristleSystem| m.registry().counter(Counter::OracleForwards);
        let discoveries =
            |m: &MessagingBristleSystem| m.registry().histogram(Hist::Discovery).count();
        for seed in [8u64, 27] {
            let mut msys = leases_lapsed(seed);
            for (src, target, _) in discovering_routes(&msys).into_iter().take(8) {
                msys.route(src, target).expect("a perfect transport delivers");
            }
            assert!(discoveries(&msys) > 0, "seed {seed}: discoveries ran");
            assert_eq!(oracle(&msys), 0, "seed {seed}: and resolved");

            // An asker whose link to its stationary entry point loses
            // everything, and whose next hop is attached elsewhere.
            let mut msys = leases_lapsed(seed);
            let router = |m: &MessagingBristleSystem, k| m.sys.router_of(k).expect("live");
            let entry = |m: &MessagingBristleSystem, k| m.sys.entry_stationary_for(k).expect("one");
            let (src, target, _) = discovering_routes(&msys)
                .into_iter()
                .find(|&(src, _, next)| router(&msys, entry(&msys, src)) != router(&msys, next))
                .expect("an asker whose entry point is not where its next hop is");
            msys.degrade_link_now(src, entry(&msys, src), Degradation::lossy(1.0));
            msys.route(src, target).expect("delivered by the oracle");
            assert_eq!(oracle(&msys), 1, "seed {seed}");
            assert_eq!(discoveries(&msys), 1, "seed {seed}: one discovery, failed");
        }
    }

    /// An operation takes out of the buffer only the completions it
    /// claims: a death verdict a third party announces while a route
    /// burst runs surfaces during the burst, is left buffered by it —
    /// alone, every route's outcome claimed — and is what the next
    /// heartbeat round returns.
    #[test]
    fn a_verdict_heard_during_a_route_burst_is_left_for_the_next_round() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mut mobiles = msys.sys.mobile_keys().to_vec();
            mobiles.sort_unstable();
            let (herald, hearer, subject) = (msys.sys.stationary_keys()[0], mobiles[0], mobiles[1]);
            msys.machine_started(herald);
            msys.drive(herald, |m, now, env| m.notify_suspect(now, env, hearer, subject));
            let pairs: Vec<(Key, Key)> = mobiles.windows(2).map(|p| (p[1], p[0])).collect();
            assert!(msys.completions.is_empty(), "seed {seed}: the verdict is still in flight");
            let routed = msys.route_burst(&pairs);
            assert!(routed.iter().all(Result::is_ok), "seed {seed}: {routed:?}");
            let verdict = Completion::PeerDead { peer: subject };
            assert_eq!(msys.completions, vec![verdict], "seed {seed}: heard during the burst");
            assert_eq!(msys.heartbeat_round(), vec![subject], "seed {seed}");
            assert!(msys.completions.is_empty(), "seed {seed}: and the round took it");
        }
    }

    /// Every completion is an outcome an operation awaits, so routes run
    /// back to back with no `settle` between them leave the buffer empty
    /// — even when each resolves a hop by `_discovery`, whose result is
    /// committed at its asker rather than reported.
    #[test]
    fn routes_that_discover_leave_no_completion_behind() {
        const K: usize = 12;
        for seed in [8u64, 27] {
            let mut msys = leases_lapsed(seed);
            let discoveries =
                |m: &MessagingBristleSystem| m.registry().histogram(Hist::Discovery).count();
            let mut routed = 0;
            for (src, target, next) in discovering_routes(&msys) {
                if routed == K {
                    break;
                }
                // An earlier route may have resolved this hop already.
                if msys.sys.leases.is_fresh(src, next, msys.sys.clock.now()) {
                    continue;
                }
                let before = discoveries(&msys);
                msys.route(src, target).expect("a perfect transport delivers");
                assert!(discoveries(&msys) > before, "seed {seed}: route {routed} discovered");
                assert!(
                    msys.completions.is_empty(),
                    "seed {seed}: route {routed} left {:?}",
                    msys.completions
                );
                routed += 1;
            }
            assert_eq!(routed, K, "seed {seed}");
        }
    }
}
