//! Sans-I/O per-node protocol state machines.
//!
//! A [`ProtoMachine`] holds one node's protocol state and is driven
//! entirely from outside: `poll(now, event, env)` consumes an arrived
//! [`Frame`] or a wake-up and returns an [`Output`] — frames to send,
//! when to wake the machine next, operations that completed. A frame
//! says where it was sent to and from: the machine stamps its own
//! address on every frame it sends, rejects every frame not sent to
//! that address (paper Fig. 2: a frame to a stale address dies at the
//! old attachment), and answers a frame at the address it came from,
//! so a driver decides nothing about addresses. The machine
//! never reads a clock, never touches a socket, and never sleeps; each
//! exchange, discovery and heartbeat probe in flight keeps its own
//! deadline, and a wake fires the ones that have passed, so timeouts,
//! bounded retries and exponential backoff are data and a driver holds
//! one wake-up per machine, not one timer per send. The same machine
//! runs under the deterministic simulator and over real sockets.
//!
//! Shared-system knowledge (routing tables, addresses, leases, the
//! meter) is reached through the [`NodeEnv`] trait, which the driver
//! implements over `BristleSystem`. Metering happens at *send* time so
//! that with a perfect transport the message tallies match the
//! function-call path in `bristle-core` exactly; acks and the probe-miss
//! notice are unmetered control traffic that only exists because a
//! message, unlike a function call, can fail to return.
//!
//! The machine is one `impl` cut along the paper's three mechanisms,
//! each file holding the delivery arms and the deadlines it owns:
//! `exchange` (the send-await-retransmit exchange a route hop, an LDT
//! `Update` and a `Register` all are), `route` (Fig. 2 forwarding and
//! `_discovery`), `liveness` (§2.3.3), plus `admit` (which frames are
//! let in). This file keeps the wire-facing types, [`NodeEnv`], the one
//! read of the node's own address, the one frame builder — it allocates
//! the `msg_id`, meters the cost and seals the frame —
//! [`ProtoMachine::poll`], the dispatch and the wake. Every
//! retry wait comes from one `Timers` value ([`crate::rto`]), so nothing
//! here knows whether timers are fixed or adaptive. DESIGN.md §5 has the
//! map.

use std::collections::HashMap;
use std::num::NonZeroU64;

use bristle_core::auth::{AuthDomain, VerifyPolicy};
use bristle_core::time::SimTime;
use bristle_netsim::graph::RouterId;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{ObsEvent, ObsEventKind};

use crate::failure::{FailureDetector, FailurePolicy};
use crate::rto::Timers;
use crate::seen::Kind;
pub use crate::wire::Frame;
use crate::wire::{Envelope, WireAddr, WireMessage};

mod admit;
mod exchange;
mod liveness;
mod route;

pub use crate::rto::RetryPolicy;

use admit::Admission;
use exchange::Session;
use route::{DiscSession, ParkedForward};

/// Kept for the wall-clock benchmark's own driver loop; nothing arms
/// one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    // owed: ROADMAP 8(a)
    HopRetry { msg_id: u64 },
}

/// What [`Output::timers`] yields: nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    // owed: ROADMAP 8(a)
    pub at: SimTime,
    pub kind: TimerKind,
}

/// An input to [`ProtoMachine::poll`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A frame reached this node; `admit` decides whether it is let in.
    Arrive(Frame),
    /// A deadline this machine reported ([`Output::wake`]) may have come
    /// due: every exchange, discovery and probe whose deadline has
    /// passed fires, in (deadline, arm order). A wake with nothing due
    /// does nothing.
    Wake,
    /// Polled as an [`Event::Arrive`] at this node's own address from
    /// the sender's current one.
    #[doc(hidden)]
    Deliver(Envelope), // owed: ROADMAP 8(a)
    /// Polled as [`Event::Wake`].
    #[doc(hidden)]
    Timer(TimerKind), // owed: ROADMAP 8(a)
}

/// A protocol operation that finished (well or badly) at this node.
///
/// A variant exists only for an outcome some driver operation awaits:
/// each is taken out of the driver's buffer by the operation that
/// started it (or, for the liveness verdicts, by the heartbeat round).
/// What a discovery resolved, a suspicion and a refutation reach their
/// readers as an [`ObsEvent`] or a meter kind instead.
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
    /// A monitored peer was confirmed crashed, either by this node's
    /// own detector or via a third-party SuspectNotify.
    PeerDead {
        /// The confirmed-dead peer.
        peer: Key,
    },
    /// A wrongfully-buried peer's `Alive` refutation reached this node,
    /// which may sponsor the reversal of its funeral.
    RejoinRequested {
        /// The peer asking to rejoin.
        peer: Key,
        /// The incarnation it rejoins at.
        incarnation: u64,
    },
}

/// Everything a `poll` call asked the outside world to do.
#[derive(Debug, Default)]
pub struct Output {
    /// Frames to hand to the transport, in send order.
    pub outgoing: Vec<Frame>,
    /// When to send this machine an [`Event::Wake`]: the earliest
    /// deadline the call armed, or, after a wake, the earliest deadline
    /// still open. A driver queues it through [`Self::wake_to_queue`].
    pub wake: Option<SimTime>,
    /// Operations that completed during this poll.
    pub completions: Vec<Completion>,
    /// Always empty.
    #[doc(hidden)]
    pub timers: std::iter::Empty<Timer>, // owed: ROADMAP 8(a)
}

impl Output {
    /// An output that does nothing.
    pub fn none() -> Output {
        Output::default()
    }

    /// Asks for a wake at `due`, unless this output already asks for
    /// an earlier one.
    fn arm(&mut self, due: SimTime) {
        self.wake = Some(self.wake.map_or(due, |w| w.min(due)));
    }

    /// The wake a driver must queue for this output at `now`, given the
    /// last one it queued for the machine, `armed` (updated here): none
    /// if that one is still ahead and no later than this output's, since
    /// it reports this deadline again when it fires.
    pub fn wake_to_queue(&self, armed: &mut SimTime, now: SimTime) -> Option<SimTime> {
        let at = self.wake.filter(|&at| !(now < *armed && *armed <= at))?;
        *armed = at;
        Some(at)
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
    /// Whether `addr` names a router [`Self::distance`] can price
    /// (default: every one does). An address arrives in unauthenticated
    /// frames; drivers whose oracle is a finite topology override this
    /// so a forged one is refused before anything is sent toward it.
    fn routable(&self, addr: WireAddr) -> bool {
        let _ = addr;
        true
    }
}

/// Emits one structured event from `node` — the only place an
/// [`ObsEvent`] is written.
fn note(node: Key, env: &mut dyn NodeEnv, now: SimTime, trace: u64, kind: ObsEventKind) {
    env.emit(ObsEvent { at: now.0, trace, node, kind });
}

/// The exchanges a machine has in flight, both kinds in one box: it is
/// allocated at the first open and dropped when the last exchange of
/// either kind closes ([`close`]), so a machine at rest owns no table.
#[derive(Debug, Default)]
struct Open {
    /// Frames awaiting an ack, by the `msg_id` they were sent under.
    sessions: HashMap<u64, Session>,
    /// Discoveries awaiting a reply, by session id — a different
    /// counter (`next_session`), carried on the wire, so not a `msg_id`.
    discs: HashMap<u64, DiscSession>,
}

/// Closes the exchange `take` removes from the open tables; the last
/// one out drops the box, tables and all. Every removal from either
/// table comes here.
fn close<V>(open: &mut Option<Box<Open>>, take: impl FnOnce(&mut Open) -> Option<V>) -> Option<V> {
    let tables = open.as_deref_mut()?;
    let closed = take(tables);
    if tables.sessions.is_empty() && tables.discs.is_empty() {
        *open = None;
    }
    closed
}

/// One node's protocol state machine.
#[derive(Debug)]
pub struct ProtoMachine {
    key: Key,
    next_msg_id: u64,
    next_session: u64,
    /// Traces minted so far, plus one: never zero, so an
    /// `Option<ProtoMachine>` costs no tag.
    next_trace: NonZeroU64,
    /// Which received frames are let in, and which are duplicates.
    admission: Admission,
    /// Every retry wait, fixed or adaptive.
    timers: Timers,
    /// The exchanges in flight; `None` while there are none.
    open: Option<Box<Open>>,
    detector: FailureDetector,
    /// This node's own SWIM-style incarnation number; bumped exactly
    /// when the node learns it was suspected or declared dead.
    incarnation: u64,
}

// A driver holds one machine per node (112 B on a 64-bit target). Every
// table a machine holds empty at rest — its open exchanges, its dedup
// records, its monitored peers, the adaptive-RTO arm — sits behind a
// box, so a field added inline rather than boxed while unused fails the
// build here. Test builds are exempt: their dedup oracle
// (`Admission::oracle`) adds 48 B. A driver's arena slot is an
// `Option<ProtoMachine>`, which `next_trace`'s niche holds at the
// machine's own size.
#[cfg(not(any(test, feature = "dedup-oracle")))]
const _: () = assert!(std::mem::size_of::<ProtoMachine>() <= 112);
const _: () =
    assert!(std::mem::size_of::<Option<ProtoMachine>>() == std::mem::size_of::<ProtoMachine>());

impl ProtoMachine {
    /// A fresh machine for the node named `key`.
    pub fn new(key: Key, policy: RetryPolicy) -> Self {
        ProtoMachine {
            key,
            next_msg_id: 0,
            next_session: 0,
            next_trace: NonZeroU64::MIN,
            admission: Admission::default(),
            timers: Timers::new(policy),
            open: None,
            detector: FailureDetector::new(FailurePolicy::default()),
            incarnation: 0,
        }
    }

    /// Switches retry timers to adaptive per-peer RTO estimation
    /// (`true`) or back to the fixed [`RetryPolicy`] waits. Each
    /// estimator starts at its fixed timeout and adapts within bounds
    /// scaled from it; discovery gets its own, since its round-trips
    /// span several hops. The dedup horizon follows the new ladder.
    pub fn set_adaptive_rto(&mut self, on: bool) {
        self.timers.set_adaptive(self.key, on);
    }

    /// How many `(src, msg_id)` sightings this node's dedup window
    /// holds: per source, those of the last one to two lifetimes that no
    /// floor has passed. A driver sums it over its machines into its
    /// `seen` gauge.
    pub fn seen_held(&self) -> usize {
        self.admission.held()
    }

    /// Judges duplicates by a never-pruned set from now on, the oracle
    /// the bounded window is tested against.
    #[cfg(any(test, feature = "dedup-oracle"))]
    #[doc(hidden)]
    pub fn use_dedup_oracle(&mut self) {
        self.admission.oracle = Some(Default::default());
    }

    /// Whether this node has already processed `src`'s frame `msg_id`:
    /// the receiver's dedup window, asked without recording anything.
    /// Drivers meter [`MessageKind::SpuriousRetry`] from it — a
    /// retransmission of a frame the destination already processed —
    /// asking about every frame an [`Event::Wake`] sent: only a wake
    /// retransmits, and a frame it sends fresh has an id never sent
    /// before, so nobody has processed it. Exact for every retransmitted
    /// frame: each of its copies leaves within one retry ladder of the
    /// first, the window holds a sighting for at least two, and no floor
    /// has passed it, since its exchange is open.
    pub fn has_processed(&self, src: Key, msg_id: u64) -> bool {
        self.admission.sighted(src, msg_id)
    }

    /// The floor this node holds for `src` (0 if none): every exchange
    /// `src` opened below it has closed, so an acked frame of `src`'s
    /// under a lower id is a duplicate here ([`WireMessage::floor`]).
    pub fn floor_of(&self, src: Key) -> u64 {
        self.admission.floor_of(src)
    }

    /// The current (unjittered, un-backed-off base) RTO estimate for
    /// `peer`, if adaptive mode has collected at least one sample.
    pub fn rto_estimate(&self, peer: Key) -> Option<u64> {
        self.timers.estimate(peer)
    }

    /// The node this machine speaks for.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Number of in-flight sessions awaiting acks or replies.
    pub fn inflight(&self) -> usize {
        self.open.as_deref().map_or(0, |o| o.sessions.len() + o.discs.len())
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
        self.next_trace = self.next_trace.saturating_add(1);
        let minted = self.next_trace.get() - 1;
        (self.key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ minted) | 1
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
            note(self.key, env, now, o.env.trace_id, kind);
        }
    }

    /// Where this node is attached now: the one read of its own address,
    /// stamped on every frame it sends and held against every frame it
    /// receives.
    fn own_addr(&self, env: &dyn NodeEnv) -> WireAddr {
        env.current_addr(self.key)
    }

    /// Builds one frame from this node, at its own address, to `dst` at
    /// `to_addr` — the only place an [`Envelope`] is written. The
    /// `msg_id` is allocated, the floor of an acked kind stamped
    /// ([`Self::floor`]), the physical cost metered as `metered`
    /// (`None` for acks and the other unmetered control traffic) and the
    /// signer's trailer applied here, once, *before* a reliable exchange
    /// clones the frame into its session: a retransmission is the stored
    /// frame, id, floor and tag included, restamped with where it leaves
    /// from. Its floor is then lower than a fresh frame's, which is still
    /// sound: every exchange below it has closed.
    fn frame(
        &mut self,
        env: &mut dyn NodeEnv,
        dst: Key,
        to_addr: WireAddr,
        trace: u64,
        msg: WireMessage,
        metered: Option<MessageKind>,
    ) -> Frame {
        let from_addr = self.own_addr(env);
        if let Some(kind) = metered {
            let cost = env.distance(from_addr.router_id(), to_addr.router_id());
            env.meter(kind, cost);
        }
        let msg_id = self.fresh_msg_id();
        let msg = if msg.floor().is_some() { msg.with_floor(self.floor(msg_id)) } else { msg };
        let mut envelope =
            Envelope { src: self.key, dst, msg_id, trace_id: trace, msg, auth: None };
        Admission::seal(env, &mut envelope);
        Frame { to_addr, from_addr, env: envelope }
    }

    /// The floor a frame sent now under `msg_id` carries
    /// ([`WireMessage::floor`]): the lowest id this node still awaits an
    /// ack for, `msg_id` included. Ids only grow, so every exchange below
    /// it has closed, and its receiver may forget them.
    fn floor(&self, msg_id: u64) -> u64 {
        let open = self.open.as_deref().into_iter().flat_map(|o| o.sessions.keys());
        open.fold(msg_id, |low, &id| low.min(id))
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

    /// Feeds one event (arrival or wake) through the machine.
    pub fn poll(&mut self, now: SimTime, event: Event, env: &mut dyn NodeEnv) -> Output {
        self.admission.advance(now, self.timers.ladder());
        let out = match event {
            Event::Arrive(frame) => {
                match Admission::admits(self.key, self.own_addr(env), now, env, &frame) {
                    Some(believed) => self.on_deliver(now, env, frame, believed),
                    // Rejected frame: no answer, no dedup entry, no state.
                    None => Output::none(),
                }
            }
            Event::Deliver(envelope) => {
                let (to_addr, from_addr) = (self.own_addr(env), env.current_addr(envelope.src));
                let frame = Frame { to_addr, from_addr, env: envelope };
                return self.poll(now, Event::Arrive(frame), env);
            }
            Event::Wake | Event::Timer(_) => self.on_wake(now, env),
        };
        self.observe_sends(now, env, &out);
        out
    }

    /// Handles an admitted frame, the liveness kinds in their own file;
    /// `believed` says whether its floor may raise its source's
    /// ([`Admission::admits`]). An answer goes to the frame's sender at
    /// the address the frame came from. Replies and forwards stay on the
    /// causal trace of the frame that provoked them, so a route and the
    /// discovery retries, replica failovers and refutations it triggers
    /// share one trace id.
    fn on_deliver(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        frame: Frame,
        believed: bool,
    ) -> Output {
        let mut out = Output::none();
        let Frame { from_addr: from, env: envelope, .. } = frame;
        let (src, msg_id, trace) = (envelope.src, envelope.msg_id, envelope.trace_id);
        // An acked kind is deduplicated against its source's floor too.
        let kind = match envelope.msg.floor() {
            Some(floor) => Kind::Exchange(believed.then_some(floor)),
            None => Kind::Posted,
        };
        match envelope.msg {
            WireMessage::RouteHop { origin, route_id, target, .. } => {
                let dup = !self.admission.first_sighting(src, msg_id, kind);
                // Always (re-)ack, even duplicates: the original ack may
                // have been lost. Acks are unmetered control traffic.
                let ack = WireMessage::HopAck { acked: msg_id };
                out.outgoing.push(self.frame(env, src, from, trace, ack, None));
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
                if self.admission.first_sighting(src, msg_id, kind) {
                    self.handle_discovery(env, subject, asker, session, probe, trace, &mut out);
                }
            }
            WireMessage::DiscoveryReply { subject: _, session, addr } => {
                self.on_discovery_reply(now, env, session, addr, &mut out);
            }
            WireMessage::ProbeMiss { subject, asker, session } => {
                if self.admission.first_sighting(src, msg_id, kind) {
                    let miss = WireMessage::DiscoveryReply { subject, session, addr: None };
                    self.post(env, &mut out, asker, trace, miss, Some(MessageKind::DiscoveryHop));
                }
            }
            // An exchange's receiving half: apply once, ack every copy.
            WireMessage::Register { target, capacity, .. } => {
                if self.admission.first_sighting(src, msg_id, kind) {
                    env.apply_register(target, src, capacity);
                }
                let ack = WireMessage::RegisterAck { acked: msg_id };
                out.outgoing.push(self.frame(env, src, from, trace, ack, None));
            }
            WireMessage::Update { subject, addr, seq, .. } => {
                if self.admission.first_sighting(src, msg_id, kind) {
                    env.apply_update(self.key, subject, addr, seq);
                }
                let ack = WireMessage::UpdateAck { acked: msg_id };
                out.outgoing.push(self.frame(env, src, from, trace, ack, None));
            }
            WireMessage::Publish { subject, addr, seq } => {
                if self.admission.first_sighting(src, msg_id, kind) {
                    env.apply_publish(self.key, subject, addr, seq);
                }
            }
            WireMessage::Heartbeat { .. }
            | WireMessage::HeartbeatAck { .. }
            | WireMessage::SuspectNotify { .. }
            | WireMessage::Alive { .. } => {
                self.on_liveness_frame(now, env, from, envelope, &mut out)
            }
        }
        out
    }

    /// Fires everything due by `now`, earliest deadline first, and
    /// reports the earliest deadline left open. An item is picked anew
    /// after each firing, since a firing can open or close others.
    fn on_wake(&mut self, now: SimTime, env: &mut dyn NodeEnv) -> Output {
        let mut out = Output::none();
        while let Some((_, item)) = self.first_deadline().filter(|&(due, _)| due <= now) {
            match item {
                Due::Exchange(msg_id) => self.retry(now, env, msg_id, &mut out),
                Due::Discovery(sid) => self.discovery_retry(now, env, sid, &mut out),
                Due::Probe(peer, seq) => self.heartbeat_timeout(now, env, peer, seq, &mut out),
            }
        }
        out.wake = self.first_deadline().map(|(due, _)| due);
        out
    }

    /// The earliest deadline in flight, and whose it is. Ties go to the
    /// item armed first: within one kind every wait comes off the same
    /// ladder, so an equal deadline means the lower id (exchanges,
    /// discoveries) or, for probes, the lower key — the order a round
    /// arms them in. Across kinds, exchanges go first, then discoveries,
    /// then probes.
    fn first_deadline(&self) -> Option<(SimTime, Due)> {
        let open = self.open.as_deref();
        let exchanges = open.into_iter().flat_map(|o| &o.sessions);
        let exchanges = exchanges.map(|(&id, s)| (s.due, 0, id, Due::Exchange(id)));
        let discs = open.into_iter().flat_map(|o| &o.discs);
        let discs = discs.map(|(&sid, s)| (s.due, 1, sid, Due::Discovery(sid)));
        let probes = self.detector.in_flight();
        let probes = probes.map(|(peer, seq, due)| (due, 2, peer.0, Due::Probe(peer, seq)));
        let first =
            exchanges.chain(discs).chain(probes).min_by_key(|&(due, rank, id, _)| (due, rank, id));
        first.map(|(due, _, _, item)| (due, item))
    }
}

/// Something in flight that a wake can fire.
#[derive(Debug, Clone, Copy)]
enum Due {
    /// The reliable exchange sent under this `msg_id`.
    Exchange(u64),
    /// The discovery session with this id.
    Discovery(u64),
    /// The heartbeat probe to this peer, under this sequence number.
    Probe(Key, u64),
}

/// The little world and the fixtures the per-file machine tests share.
#[cfg(test)]
mod testkit {
    use super::*;
    pub(super) use crate::testenv::MockEnv;

    pub(super) const A: Key = Key(10);
    pub(super) const B: Key = Key(20);
    pub(super) const M: Key = Key(30);

    pub(super) fn policy() -> RetryPolicy {
        RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
    }

    pub(super) fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    /// `envelope` arriving from its sender's address at its
    /// destination's, both where `env` attaches them now.
    pub(super) fn arrival(env: &MockEnv, envelope: Envelope) -> Event {
        let (to_addr, from_addr) = (env.addrs[&envelope.dst], env.addrs[&envelope.src]);
        Event::Arrive(Frame { to_addr, from_addr, env: envelope })
    }

    /// `A` with a stationary peer `B` and a mobile peer `M` it holds a
    /// valid belief about.
    pub(super) fn world() -> MockEnv {
        let mut env =
            MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
        env.mobile_hops.insert((A, B), B);
        env.mobile_hops.insert((A, M), M);
        env.entries.insert(A, B);
        env.believed.insert((A, M), env.current_addr(M)); // valid belief
        env
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

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

    /// `msg` from `src` to `A`.
    fn to_a(env: &MockEnv, src: Key, msg: WireMessage) -> Event {
        arrival(env, Envelope { src, dst: A, msg_id: 0, trace_id: 0, msg, auth: None })
    }

    /// The ack that closes the exchange `sent` opened, sent back from
    /// where `sent` went to where it came from.
    fn ack_of(sent: &Frame) -> Event {
        let acked = sent.env.msg_id;
        let msg = match sent.env.msg {
            WireMessage::RouteHop { .. } => WireMessage::HopAck { acked },
            WireMessage::Update { .. } => WireMessage::UpdateAck { acked },
            WireMessage::Register { .. } => WireMessage::RegisterAck { acked },
            ref other => panic!("{other:?} opens no exchange"),
        };
        let env = Envelope { src: sent.env.dst, dst: A, msg_id: 0, trace_id: 0, msg, auth: None };
        Event::Arrive(Frame { to_addr: sent.from_addr, from_addr: sent.to_addr, env })
    }

    /// An acked kind carries the lowest id its sender still awaits an
    /// ack for, its own included; a retransmission keeps the floor it
    /// was first sent with.
    #[test]
    fn an_acked_frame_carries_its_senders_lowest_open_id() {
        let mut env = world();
        let mut m = ProtoMachine::new(A, policy());
        let stamped = |f: &Frame| (f.env.msg_id, f.env.msg.floor());
        let addr = env.current_addr(A);
        let updates = m.start_update(t(0), &mut env, A, addr, 1, &[B, M]).outgoing;
        assert_eq!(updates.iter().map(stamped).collect::<Vec<_>>(), [(0, Some(0)), (1, Some(0))]);
        m.poll(t(10), ack_of(&updates[0]), &mut env);
        let register = m.start_register(t(20), &mut env, M, 4).outgoing;
        assert_eq!(stamped(&register[0]), (2, Some(1)), "the update to M is still open");
        let resent = m.poll(t(100), Event::Wake, &mut env).outgoing;
        assert_eq!(stamped(&resent[0]), (1, Some(0)), "resent as stored");
        m.poll(t(110), ack_of(&updates[1]), &mut env);
        m.poll(t(110), ack_of(&register[0]), &mut env);
        let (_, hop) = m.start_route(t(120), &mut env, B);
        assert_eq!(stamped(&hop.outgoing[0]), (4, Some(4)), "nothing open (3 is the route id)");
    }

    /// Each way an exchange closes — a hop acked, a register's ladder
    /// run out, a discovery answered, a discovery timed out — leaves the
    /// machine owning no exchange table once nothing is in flight.
    #[test]
    fn closed_exchanges_release_their_tables() {
        let released = |m: &ProtoMachine, what: &str| {
            assert_eq!(m.inflight(), 0, "{what}");
            assert!(m.open.is_none(), "{what}");
        };
        let mut env = world();
        let mut m = ProtoMachine::new(A, policy());
        released(&m, "a fresh machine");

        let (_, out) = m.start_route(t(0), &mut env, B);
        assert!(m.open.is_some());
        m.poll(t(10), ack_of(&out.outgoing[0]), &mut env);
        released(&m, "a hop acked");

        let out = m.start_register(t(100), &mut env, M, 4);
        assert_eq!(out.wake, Some(t(200)));
        for at in [200, 400, 800] {
            m.poll(t(at), Event::Wake, &mut env);
        }
        assert_eq!(env.meter.count(MessageKind::Timeout), 3, "the ladder ran out");
        released(&m, "a register whose retries ran out");

        // With no belief about `M`, a route to it opens a discovery; the
        // hop it parks is sent once the discovery ends, and acked.
        for answered in [true, false] {
            env.believed.remove(&(A, M));
            let (_, out) = m.start_route(t(1000), &mut env, M);
            let WireMessage::Discovery { session, .. } = out.outgoing[0].env.msg else {
                panic!("expected a discovery, got {:?}", out.outgoing[0].env.msg)
            };
            assert_eq!(m.open.as_ref().map(|o| (o.discs.len(), o.sessions.len())), Some((1, 0)));
            let out = if answered {
                let addr = Some(env.current_addr(M));
                m.poll(
                    t(1050),
                    to_a(&env, B, WireMessage::DiscoveryReply { subject: M, session, addr }),
                    &mut env,
                )
            } else {
                m.poll(t(2000), Event::Wake, &mut env);
                m.poll(t(4000), Event::Wake, &mut env);
                m.poll(t(8000), Event::Wake, &mut env)
            };
            let open = m.open.as_ref().map(|o| (o.discs.len(), o.sessions.len()));
            assert_eq!(open, Some((0, 1)), "answered {answered}: only the parked hop");
            m.poll(t(9000), ack_of(&out.outgoing[0]), &mut env);
            released(&m, &format!("a discovery, answered {answered}"));
        }
    }

    /// The box is released only when its last exchange of either kind
    /// closes: closing one of two hops keeps it as it was, and a hop
    /// still open keeps it through a discovery's close; closing
    /// everything frees it.
    #[test]
    fn an_exchange_table_is_released_only_when_it_empties() {
        // Where the box is and what its hop table holds.
        let held =
            |m: &ProtoMachine| m.open.as_deref().map(|o| (o as *const Open, o.sessions.capacity()));
        let mut env = world();
        let mut m = ProtoMachine::new(A, policy());
        let addr = env.current_addr(A);
        let out = m.start_update(t(0), &mut env, A, addr, 1, &[B, M]);
        assert_eq!(m.inflight(), 2);
        let both = held(&m);
        assert!(both.is_some_and(|(_, capacity)| capacity >= 2));
        m.poll(t(10), ack_of(&out.outgoing[0]), &mut env);
        assert_eq!((m.inflight(), held(&m)), (1, both), "one still open");
        m.poll(t(20), ack_of(&out.outgoing[1]), &mut env);
        assert_eq!((m.inflight(), held(&m)), (0, None), "both closed");

        // Mixed: a hop to `B` stays open while a discovery of `M` opens
        // and is answered.
        let (_, hop) = m.start_route(t(100), &mut env, B);
        env.believed.remove(&(A, M));
        let (_, out) = m.start_route(t(100), &mut env, M);
        let WireMessage::Discovery { session, .. } = out.outgoing[0].env.msg else {
            panic!("expected a discovery, got {:?}", out.outgoing[0].env.msg)
        };
        let before = held(&m);
        let addr = Some(env.current_addr(M));
        let reply = to_a(&env, B, WireMessage::DiscoveryReply { subject: M, session, addr });
        let resumed = m.poll(t(150), reply, &mut env);
        assert_eq!(held(&m), before, "the open hop kept the box through the discovery's close");
        assert_eq!(m.open.as_ref().map(|o| o.discs.len()), Some(0));
        assert_eq!(m.inflight(), 2, "the hop to B, and the one the discovery resumed");
        m.poll(t(200), ack_of(&hop.outgoing[0]), &mut env);
        m.poll(t(200), ack_of(&resumed.outgoing[0]), &mut env);
        assert_eq!((m.inflight(), held(&m)), (0, None), "all closed");
    }
}
