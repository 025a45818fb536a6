//! Lease-based crash-failure detection.
//!
//! A [`FailureDetector`] tracks the liveness of a set of monitored peers
//! through heartbeat probes. Like everything in this crate it is
//! sans-I/O: the detector only hands out probe sequence numbers and
//! digests acks and timeouts; [`crate::machine::ProtoMachine`] turns its
//! decisions into [`crate::wire::WireMessage::Heartbeat`] traffic and
//! the driver supplies time.
//!
//! The suspicion state machine follows the classic lease shape: a peer
//! is [`Liveness::Fresh`] while its heartbeats come back, becomes
//! [`Liveness::Suspect`] after [`SUSPECT_AFTER`] consecutive missed
//! probe rounds, and [`Liveness::Dead`] after [`DEAD_AFTER`]. A round is
//! only *missed* once all [`PROBE_ATTEMPTS`] sends of the same probe
//! went unanswered, which keeps false confirmations vanishingly rare on
//! a lossy-but-alive link (at 10% independent loss per direction, one
//! round misses with probability `0.19^3 ≈ 0.7%`, and a false
//! *confirmation* needs [`DEAD_AFTER`] such rounds in a row).
//! Any ack restores a suspect to fresh.
//!
//! Suspicion and death are charged against a SWIM-style **incarnation
//! number** per peer. Within one incarnation death is final — but a
//! network partition makes live nodes indistinguishable from dead ones,
//! so verdicts must be revocable by stronger evidence: observing a peer
//! alive at a *fresher* incarnation ([`FailureDetector::observe_alive`])
//! drops any standing suspicion or death verdict, because only the peer
//! itself can bump its incarnation (it does so exactly when it learns it
//! was declared dead, then broadcasts an `Alive` refutation).
//!
//! A node monitors a handful of peers (its LDT neighbours, a ring
//! successor, a ring predecessor's ward) and touches them all every
//! heartbeat round, so the peer table is two parallel vectors ordered by
//! key — the keys, and each key's health — searched by bisection. There
//! is no hashing, [`FailureDetector::monitored`] *is* the key vector
//! (sorted by construction, nothing collected or sorted per call), and
//! a driver can compare it against the set it wants with one slice
//! comparison. Both vectors sit in one box that exists only while
//! somebody is monitored, so a detector watching nobody owns no heap,
//! and a driver that hands over the whole set at once
//! ([`FailureDetector::set_monitored`]) gets vectors of exactly its size.
//!
//! The detector is the one owner of a probe in flight: its sequence,
//! attempt and deadline, and when its first send went out. Closing it,
//! [`FailureDetector::ack`] hands back that send time with the attempt
//! that was answered, so the caller samples the round trip under
//! Karn's rule (RFC 6298 §3) like any other ack: only an answer to the
//! first send is unambiguous. A retransmission reuses its probe's
//! sequence, so an ack for any other sequence answers no send of the
//! probe in flight and cannot blur which attempt was answered.

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;

/// Sends of one probe (first try included) before the round counts as
/// missed.
pub const PROBE_ATTEMPTS: u32 = 3;
/// Consecutive missed rounds before a peer becomes suspect.
pub const SUSPECT_AFTER: u32 = 2;
/// Consecutive missed rounds before a peer is confirmed dead.
pub const DEAD_AFTER: u32 = 3;

/// The one detector setting scenarios vary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailurePolicy {
    /// Extra missed rounds granted before condemnation while the peer's
    /// health score is still high (it has been acking recently, so the
    /// misses look like gray failure, not death). `0`, the default,
    /// disables the grace entirely and restores the binary alive/dead
    /// behaviour.
    pub grace_misses: u32,
}

/// A peer's health score starts (and is capped) here.
pub const FULL_HEALTH: u32 = 100;

/// Peers whose score has fallen below this are *degraded*: alive, but
/// answering late or only after retransmissions. Drivers use this to
/// prefer healthier replicas (latency-aware failover).
pub const DEGRADED_HEALTH: u32 = 80;

/// What the detector currently believes about a monitored peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Answering heartbeats.
    Fresh,
    /// Missed enough rounds to be suspected, not yet condemned.
    Suspect,
    /// Confirmed crashed at its current incarnation. Acks from a dead
    /// peer are ignored unless they carry a fresher incarnation.
    Dead,
}

/// A liveness state change caused by a missed probe round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessTransition {
    /// Fresh → Suspect.
    Suspected,
    /// Suspect → Dead.
    ConfirmedDead,
}

/// What to do when a probe's ack window expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutVerdict {
    /// No probe in flight under that sequence (acked, superseded, or the
    /// peer unmonitored or dead).
    Ignore,
    /// Retransmit the same probe; this is send number `attempt + 1`.
    Resend {
        /// Zero-based retransmission counter.
        attempt: u32,
    },
    /// The round is missed; `transition` is the resulting state change,
    /// if any.
    Missed {
        /// State change triggered by the miss.
        transition: Option<LivenessTransition>,
    },
}

#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    liveness: Liveness,
    /// Consecutive missed rounds.
    missed: u32,
    /// When the round that turned a fresh peer suspect missed; cleared
    /// with `missed` or spent by its verdict, never set by hearsay.
    suspected_at: Option<SimTime>,
    /// Next probe sequence number to hand out.
    next_seq: u64,
    /// The zero-based attempt of the probe in flight (never one to a
    /// dead peer), whose sequence is the last one handed out.
    awaiting: Option<u8>,
    /// When the ack window of the probe in flight closes; read only
    /// while `awaiting` is set.
    due: SimTime,
    /// When the probe in flight first went out; read only while
    /// `awaiting` is set.
    sent: SimTime,
    /// Highest incarnation the peer has been observed at; suspicion and
    /// death are charged against this number.
    incarnation: u64,
    /// Health score in `[0, FULL_HEALTH]`: acks raise it, retransmissions
    /// and missed rounds bleed it. Low-but-alive peers are *degraded*
    /// and drivers steer load away from them.
    score: u32,
    /// Gray-failure evidence: rounds answered only after a
    /// retransmission. Each earns one extra missed round before
    /// condemnation, capped at [`FailurePolicy::grace_misses`]. A peer
    /// that was acking promptly and then crashes earned none, so its
    /// funeral schedule is untouched.
    grace_credit: u32,
}

impl PeerHealth {
    fn fresh() -> Self {
        PeerHealth {
            liveness: Liveness::Fresh,
            missed: 0,
            suspected_at: None,
            next_seq: 0,
            awaiting: None,
            due: SimTime::ZERO,
            sent: SimTime::ZERO,
            incarnation: 0,
            score: FULL_HEALTH,
            grace_credit: 0,
        }
    }

    /// Believed alive, but scoring below [`DEGRADED_HEALTH`].
    fn is_degraded(&self) -> bool {
        self.liveness != Liveness::Dead && self.score < DEGRADED_HEALTH
    }

    /// The attempt of probe `seq`, if it is the one in flight.
    fn in_flight(&self, seq: u64) -> Option<u32> {
        self.awaiting.filter(|_| seq == self.next_seq - 1).map(u32::from)
    }

    /// Fresh again: no miss, no suspicion, no probe awaited.
    fn refresh(&mut self) {
        self.liveness = Liveness::Fresh;
        self.missed = 0;
        self.suspected_at = None;
        self.awaiting = None;
    }
}

// One per monitored peer on every machine: a cache line at most.
const _: () = assert!(std::mem::size_of::<PeerHealth>() <= 64);

/// Per-node suspicion state over a set of monitored peers.
#[derive(Debug)]
pub struct FailureDetector {
    policy: FailurePolicy,
    /// The monitored peers; `None` while there are none.
    peers: Option<Box<Peers>>,
}

/// The peer table: monitored keys ascending, and `health[i]` belonging
/// to `keys[i]`.
#[derive(Debug, Default)]
struct Peers {
    keys: Vec<Key>,
    health: Vec<PeerHealth>,
}

impl FailureDetector {
    /// A detector with the given thresholds, monitoring nobody.
    pub fn new(policy: FailurePolicy) -> Self {
        FailureDetector { policy, peers: None }
    }

    /// Replaces the thresholds; every peer's state is kept (grace earned
    /// under a larger cap is cut to the new one when next earned).
    pub fn set_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    fn peer(&self, peer: Key) -> Option<&PeerHealth> {
        let table = self.peers.as_deref()?;
        table.keys.binary_search(&peer).ok().map(|i| &table.health[i])
    }

    fn peer_mut(&mut self, peer: Key) -> Option<&mut PeerHealth> {
        let table = self.peers.as_deref_mut()?;
        table.keys.binary_search(&peer).ok().map(|i| &mut table.health[i])
    }

    /// Monitors exactly `peers` (ascending, distinct): a peer already
    /// monitored keeps its state, a new one starts fresh and one left out
    /// is forgotten, in one walk of both lists. The table is sized to
    /// `peers` exactly, and an empty list frees it.
    pub fn set_monitored(&mut self, peers: &[Key]) {
        debug_assert!(peers.windows(2).all(|w| w[0] < w[1]), "peers ascending and distinct");
        if peers.is_empty() {
            self.peers = None;
            return;
        }
        let table = self.peers.get_or_insert_with(Default::default);
        let mut held = 0;
        let health = peers.iter().map(|&k| {
            while table.keys.get(held).is_some_and(|&h| h < k) {
                held += 1;
            }
            match table.keys.get(held) {
                Some(&h) if h == k => table.health[held],
                _ => PeerHealth::fresh(),
            }
        });
        table.health = health.collect();
        table.keys = peers.to_vec();
    }

    /// Every peer this detector holds state for, ascending: the last
    /// list [`Self::set_monitored`] was given, plus any peer
    /// [`Self::mark_dead`] has condemned on hearsay since.
    pub fn monitored(&self) -> &[Key] {
        self.peers.as_deref().map_or(&[], |table| &table.keys)
    }

    /// Monitored peers that are [degraded](Self::is_degraded), ascending.
    pub fn degraded(&self) -> impl Iterator<Item = Key> + '_ {
        let pairs = self.peers.as_deref().map(|table| table.keys.iter().zip(&table.health));
        pairs.into_iter().flatten().filter(|(_, p)| p.is_degraded()).map(|(&k, _)| k)
    }

    /// Current belief about `peer`, or `None` if unmonitored.
    pub fn liveness(&self, peer: Key) -> Option<Liveness> {
        self.peer(peer).map(|p| p.liveness)
    }

    /// Whether `peer` is monitored and confirmed dead.
    pub fn is_dead(&self, peer: Key) -> bool {
        self.liveness(peer) == Some(Liveness::Dead)
    }

    /// When this detector's own missed rounds raised its standing
    /// suspicion of `peer`: kept through its own verdict, until an ack or
    /// a fresher incarnation resets the miss count or the verdict is
    /// spent. Hearsay ([`Self::mark_dead`]) misses no round, raises none.
    pub fn suspected_at(&self, peer: Key) -> Option<SimTime> {
        self.peer(peer).and_then(|p| p.suspected_at)
    }

    /// Takes [`Self::suspected_at`] once the verdict on `peer` has been
    /// acted on, so no later life's verdict is timed from it; what the
    /// detector believes about `peer` is left as it is.
    pub fn spend_suspicion(&mut self, peer: Key) -> Option<SimTime> {
        self.peer_mut(peer).and_then(|p| p.suspected_at.take())
    }

    /// Highest incarnation `peer` has been observed at, or `None` if
    /// unmonitored.
    pub fn incarnation_of(&self, peer: Key) -> Option<u64> {
        self.peer(peer).map(|p| p.incarnation)
    }

    /// `peer`'s health score in `[0, FULL_HEALTH]`, or `None` if
    /// unmonitored. Acks raise it, retransmissions and misses bleed it.
    pub fn health(&self, peer: Key) -> Option<u32> {
        self.peer(peer).map(|p| p.score)
    }

    /// Whether `peer` is monitored, believed alive, and scoring below
    /// [`DEGRADED_HEALTH`] — answering, but late or only after
    /// retransmissions.
    pub fn is_degraded(&self, peer: Key) -> bool {
        self.peer(peer).is_some_and(PeerHealth::is_degraded)
    }

    /// Digests evidence that `peer` is alive at `incarnation` (from a
    /// heartbeat, an ack, or an `Alive` refutation). A strictly fresher
    /// incarnation overrides any standing suspicion or death verdict and
    /// resets the peer to [`Liveness::Fresh`]; stale or equal
    /// incarnations change nothing. Returns the liveness the refutation
    /// overturned (`Suspect` or `Dead`), or `None` if nothing changed.
    pub fn observe_alive(&mut self, peer: Key, incarnation: u64) -> Option<Liveness> {
        let p = self.peer_mut(peer)?;
        if incarnation <= p.incarnation {
            return None;
        }
        p.incarnation = incarnation;
        if p.liveness == Liveness::Fresh {
            return None;
        }
        let overturned = p.liveness;
        p.refresh();
        Some(overturned)
    }

    /// Opens a probe round for `peer`, its first send going out at
    /// `now`: returns the sequence number to send, or `None` when no
    /// probe should go out (unmonitored, dead, or a probe is already in
    /// flight). The caller arms its deadline ([`Self::arm_probe`]).
    pub fn begin_probe(&mut self, peer: Key, now: SimTime) -> Option<u64> {
        let p = self.peer_mut(peer)?;
        if p.liveness == Liveness::Dead || p.awaiting.is_some() {
            return None;
        }
        let seq = p.next_seq;
        p.next_seq += 1;
        p.awaiting = Some(0);
        p.sent = now;
        Some(seq)
    }

    /// Sets when the ack window of the probe in flight to `peer` closes:
    /// after its first send, and after each retransmission.
    pub fn arm_probe(&mut self, peer: Key, due: SimTime) {
        if let Some(p) = self.peer_mut(peer) {
            p.due = due;
        }
    }

    /// Every probe in flight as `(peer, seq, deadline)`, peers ascending.
    /// An ack, a miss, a verdict or a refutation ends a probe, and it
    /// leaves this list with it.
    pub fn in_flight(&self) -> impl Iterator<Item = (Key, u64, SimTime)> + '_ {
        let pairs = self.peers.as_deref().map(|table| table.keys.iter().zip(&table.health));
        let awaited = pairs.into_iter().flatten().filter(|(_, p)| p.awaiting.is_some());
        awaited.map(|(&peer, p)| (peer, p.next_seq - 1, p.due))
    }

    /// Digests a HeartbeatAck carrying the responder's `incarnation`.
    /// Returns the `(attempt, sent)` of the in-flight probe it closed:
    /// the zero-based send Karn's rule charges the answer to, and when
    /// the probe first went out. An ack that closes nothing returns
    /// `None` (acks for stale sequences change nothing; acks from a
    /// dead peer are ignored unless the incarnation is fresh enough to
    /// resurrect it first — see [`FailureDetector::observe_alive`]).
    pub fn ack(&mut self, peer: Key, seq: u64, incarnation: u64) -> Option<(u32, SimTime)> {
        self.observe_alive(peer, incarnation);
        let grace_misses = self.policy.grace_misses;
        let p = self.peer_mut(peer)?;
        let attempt = p.in_flight(seq)?;
        p.refresh();
        p.score = (p.score + 15).min(FULL_HEALTH);
        if attempt > 0 {
            // Answered, but only after a retransmission: the signature
            // of a slow-not-dead peer. Earn one round of condemnation
            // grace (bounded by policy).
            p.grace_credit = (p.grace_credit + 1).min(grace_misses);
        }
        Some((attempt, p.sent))
    }

    /// Digests the expiry, at `now`, of the ack window for probe `seq`
    /// to `peer`.
    pub fn on_timeout(&mut self, peer: Key, seq: u64, now: SimTime) -> TimeoutVerdict {
        let Some(p) = self.peer_mut(peer) else { return TimeoutVerdict::Ignore };
        let Some(attempt) = p.in_flight(seq) else { return TimeoutVerdict::Ignore };
        if attempt + 1 < PROBE_ATTEMPTS {
            p.awaiting = p.awaiting.map(|a| a + 1);
            p.score = p.score.saturating_sub(10);
            return TimeoutVerdict::Resend { attempt: attempt + 1 };
        }
        p.awaiting = None;
        p.missed += 1;
        p.score = p.score.saturating_sub(25);
        // Earned grace: every round this peer answered late (the
        // gray-failure signature) buys one extra missed round before the
        // funeral. A peer that acked promptly until it crashed earned
        // nothing — its schedule is unchanged.
        let dead_after = DEAD_AFTER + p.grace_credit;
        let transition = if p.missed >= dead_after {
            p.liveness = Liveness::Dead;
            Some(LivenessTransition::ConfirmedDead)
        } else if p.missed >= SUSPECT_AFTER && p.liveness == Liveness::Fresh {
            p.liveness = Liveness::Suspect;
            p.suspected_at = Some(now);
            Some(LivenessTransition::Suspected)
        } else {
            None
        };
        TimeoutVerdict::Missed { transition }
    }

    /// Marks `peer` dead outright (e.g. on a third-party SuspectNotify
    /// charging `incarnation`), monitoring it first if necessary. A
    /// verdict against an incarnation older than the one already
    /// observed is stale evidence and is ignored. Returns whether this
    /// is news.
    pub fn mark_dead(&mut self, peer: Key, incarnation: u64) -> bool {
        let table = self.peers.get_or_insert_with(Default::default);
        let i = table.keys.binary_search(&peer).unwrap_or_else(|i| {
            table.keys.insert(i, peer);
            table.health.insert(i, PeerHealth::fresh());
            i
        });
        let p = &mut table.health[i];
        if incarnation < p.incarnation {
            return false;
        }
        p.incarnation = incarnation;
        if p.liveness == Liveness::Dead {
            return false;
        }
        p.liveness = Liveness::Dead;
        p.awaiting = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Key = Key(5);
    const T0: SimTime = SimTime::ZERO;

    fn det() -> FailureDetector {
        FailureDetector::new(FailurePolicy::default())
    }

    /// Runs one fully-missed round: every retransmission times out.
    /// Every window of probe `seq` expires at tick `seq`.
    fn miss_round(d: &mut FailureDetector) -> Option<LivenessTransition> {
        let seq = d.begin_probe(P, T0).expect("probe opens");
        loop {
            match d.on_timeout(P, seq, SimTime(seq)) {
                TimeoutVerdict::Resend { .. } => continue,
                TimeoutVerdict::Missed { transition } => return transition,
                TimeoutVerdict::Ignore => panic!("round still open"),
            }
        }
    }

    #[test]
    fn acked_probe_stays_fresh() {
        let mut d = det();
        d.set_monitored(&[P]);
        let seq = d.begin_probe(P, SimTime(7)).unwrap();
        assert_eq!(d.ack(P, seq, 0), Some((0, SimTime(7))), "the first send, answered");
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
        assert_eq!(d.on_timeout(P, seq, SimTime(seq)), TimeoutVerdict::Ignore, "stale timer");
    }

    #[test]
    fn retransmits_before_counting_a_miss() {
        let mut d = det();
        d.set_monitored(&[P]);
        let seq = d.begin_probe(P, T0).unwrap();
        assert_eq!(d.on_timeout(P, seq, SimTime(seq)), TimeoutVerdict::Resend { attempt: 1 });
        // A late ack of the retransmitted probe still counts.
        assert_eq!(d.ack(P, seq, 0), Some((1, T0)));
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
    }

    #[test]
    fn consecutive_misses_suspect_then_condemn() {
        let mut d = det();
        d.set_monitored(&[P]);
        assert_eq!(miss_round(&mut d), None, "one miss is tolerated");
        assert_eq!(miss_round(&mut d), Some(LivenessTransition::Suspected));
        assert_eq!(d.liveness(P), Some(Liveness::Suspect));
        assert_eq!(miss_round(&mut d), Some(LivenessTransition::ConfirmedDead));
        assert_eq!(d.liveness(P), Some(Liveness::Dead));
        assert_eq!(d.begin_probe(P, T0), None, "dead peers are not probed");
        assert!(d.ack(P, 99, 0).is_none(), "death is final within an incarnation");
        assert_eq!(d.liveness(P), Some(Liveness::Dead));
    }

    #[test]
    fn ack_recovers_a_suspect() {
        let mut d = det();
        d.set_monitored(&[P]);
        miss_round(&mut d);
        miss_round(&mut d);
        assert_eq!(d.liveness(P), Some(Liveness::Suspect));
        let seq = d.begin_probe(P, T0).unwrap();
        assert!(d.ack(P, seq, 0).is_some());
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
        // The miss counter reset too: condemnation needs 3 fresh misses.
        assert_eq!(miss_round(&mut d), None);
        assert_eq!(miss_round(&mut d), Some(LivenessTransition::Suspected));
    }

    #[test]
    fn stale_sequence_ack_is_ignored() {
        let mut d = det();
        d.set_monitored(&[P]);
        let s0 = d.begin_probe(P, T0).unwrap();
        // Round misses; a later round opens with a fresh sequence.
        while !matches!(d.on_timeout(P, s0, SimTime(s0)), TimeoutVerdict::Missed { .. }) {}
        let s1 = d.begin_probe(P, T0).unwrap();
        assert_ne!(s0, s1);
        assert!(d.ack(P, s0, 0).is_none(), "old sequence does not close the new probe");
        assert!(d.ack(P, s1, 0).is_some());
    }

    /// `suspected_at` is this detector's own evidence: the round whose
    /// miss turns a fresh peer suspect stamps it with its `now`, a
    /// first-hand verdict keeps it, an ack or a fresher incarnation
    /// clears it, and a verdict from a third party does not set it —
    /// though one that lands on a standing suspicion keeps it, until
    /// the verdict is acted on and spends it.
    #[test]
    fn suspects_counts_only_this_detectors_own_misses() {
        let mut d = det();
        d.set_monitored(&[P]);
        miss_round(&mut d);
        assert_eq!(d.suspected_at(P), None, "one miss is tolerated");
        miss_round(&mut d);
        assert_eq!(d.suspected_at(P), Some(SimTime(1)), "probe 1's round raised it");
        let seq = d.begin_probe(P, T0).unwrap();
        assert!(d.ack(P, seq, 0).is_some());
        assert_eq!(d.suspected_at(P), None, "an ack heals the suspicion");
        assert!(d.mark_dead(P, 0));
        assert!(d.is_dead(P));
        assert_eq!(d.suspected_at(P), None, "hearsay is not a suspicion");

        let mut own = det();
        own.set_monitored(&[P]);
        miss_round(&mut own);
        miss_round(&mut own);
        assert_eq!(miss_round(&mut own), Some(LivenessTransition::ConfirmedDead));
        assert_eq!(own.suspected_at(P), Some(SimTime(1)), "the verdict it grew into keeps it");
        assert_eq!(own.observe_alive(P, 1), Some(Liveness::Dead));
        assert_eq!(own.suspected_at(P), None, "a fresher incarnation clears it");
        miss_round(&mut own);
        miss_round(&mut own);
        assert_eq!(own.suspected_at(P), Some(SimTime(4)), "a new suspicion, its own round");
        assert_eq!(own.observe_alive(P, 2), Some(Liveness::Suspect));
        assert_eq!(own.suspected_at(P), None, "and a fresher incarnation clears that too");

        let mut standing = det();
        standing.set_monitored(&[P]);
        miss_round(&mut standing);
        miss_round(&mut standing);
        assert!(standing.mark_dead(P, 0));
        assert_eq!(
            standing.suspected_at(P),
            Some(SimTime(1)),
            "the suspicion the verdict landed on still stands"
        );
        standing.spend_suspicion(P);
        assert_eq!(standing.suspected_at(P), None, "until the verdict is acted on");
        assert!(standing.is_dead(P), "which leaves the verdict standing");
    }

    #[test]
    fn mark_dead_is_news_once_and_implies_monitoring() {
        let mut d = det();
        assert!(d.mark_dead(P, 0), "first report is news");
        assert!(!d.mark_dead(P, 0), "repeat is not");
        assert!(d.is_dead(P));
        assert_eq!(d.monitored(), vec![P]);
    }

    #[test]
    fn only_one_probe_in_flight_per_peer() {
        let mut d = det();
        d.set_monitored(&[P]);
        let seq = d.begin_probe(P, T0).unwrap();
        assert_eq!(d.begin_probe(P, T0), None, "round already open");
        assert!(d.ack(P, seq, 0).is_some());
        assert!(d.begin_probe(P, T0).is_some(), "next round opens after the ack");
    }

    #[test]
    fn fresher_incarnation_refutes_death() {
        let mut d = det();
        d.set_monitored(&[P]);
        miss_round(&mut d);
        miss_round(&mut d);
        miss_round(&mut d);
        assert!(d.is_dead(P));
        // Evidence at the condemned incarnation changes nothing...
        assert_eq!(d.observe_alive(P, 0), None);
        assert!(d.is_dead(P));
        // ...but a fresher incarnation overturns the verdict.
        assert_eq!(d.observe_alive(P, 1), Some(Liveness::Dead));
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
        assert_eq!(d.incarnation_of(P), Some(1));
        assert!(d.begin_probe(P, T0).is_some(), "resurrected peers are probed again");
    }

    #[test]
    fn fresher_incarnation_drops_suspicion() {
        let mut d = det();
        d.set_monitored(&[P]);
        miss_round(&mut d);
        miss_round(&mut d);
        assert_eq!(d.liveness(P), Some(Liveness::Suspect));
        assert_eq!(d.observe_alive(P, 1), Some(Liveness::Suspect));
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
        // The miss counter reset: condemnation needs 3 fresh misses.
        assert_eq!(miss_round(&mut d), None);
    }

    #[test]
    fn ack_with_fresh_incarnation_resurrects() {
        let mut d = det();
        d.set_monitored(&[P]);
        miss_round(&mut d);
        miss_round(&mut d);
        miss_round(&mut d);
        assert!(d.is_dead(P));
        let seq = d.begin_probe(P, T0);
        assert_eq!(seq, None, "dead peers are not probed");
        // A zombie's ack at incarnation 1 resurrects it, though no probe
        // is in flight to close.
        assert!(d.ack(P, 99, 1).is_none());
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
    }

    #[test]
    fn stale_death_verdict_is_ignored() {
        let mut d = det();
        d.set_monitored(&[P]);
        assert_eq!(d.observe_alive(P, 2), None, "fresh peer stays fresh");
        assert_eq!(d.incarnation_of(P), Some(2));
        assert!(!d.mark_dead(P, 1), "verdict against an older incarnation is stale");
        assert_eq!(d.liveness(P), Some(Liveness::Fresh));
        assert!(d.mark_dead(P, 2), "verdict at the current incarnation sticks");
        assert!(d.is_dead(P));
    }

    #[test]
    fn health_bleeds_on_misses_and_recovers_on_acks() {
        let mut d = det();
        d.set_monitored(&[P]);
        assert_eq!(d.health(P), Some(FULL_HEALTH));
        assert!(!d.is_degraded(P));
        // One resend then a late ack: the peer looks slow, not dead.
        let seq = d.begin_probe(P, T0).unwrap();
        assert_eq!(d.on_timeout(P, seq, SimTime(seq)), TimeoutVerdict::Resend { attempt: 1 });
        assert_eq!(d.health(P), Some(FULL_HEALTH - 10));
        assert!(d.ack(P, seq, 0).is_some());
        assert_eq!(d.health(P), Some(FULL_HEALTH), "ack restores the score (capped)");
        // A fully missed round bleeds resend + miss penalties.
        miss_round(&mut d);
        assert_eq!(d.health(P), Some(FULL_HEALTH - 10 * (PROBE_ATTEMPTS - 1) - 25));
        assert!(d.is_degraded(P));
    }

    #[test]
    fn grace_spares_a_recently_acking_peer_but_not_a_corpse() {
        let policy = FailurePolicy { grace_misses: 2 };
        // A gray-failing peer: acks every round, but only after a
        // resend. Each late ack earns one round of grace (capped at
        // `grace_misses`), so when it then goes quiet it survives
        // `dead_after + 2` rounds instead of `dead_after`.
        let mut slow = FailureDetector::new(policy);
        slow.set_monitored(&[P]);
        for _ in 0..4 {
            let seq = slow.begin_probe(P, T0).unwrap();
            assert!(matches!(slow.on_timeout(P, seq, SimTime(seq)), TimeoutVerdict::Resend { .. }));
            assert!(slow.ack(P, seq, 0).is_some());
        }
        assert_eq!(miss_round(&mut slow), None);
        assert_eq!(miss_round(&mut slow), Some(LivenessTransition::Suspected));
        assert_eq!(miss_round(&mut slow), None, "round 3: earned grace holds");
        assert_eq!(miss_round(&mut slow), None, "round 4: earned grace holds");
        assert!(slow.liveness(P) != Some(Liveness::Dead));
        assert_eq!(miss_round(&mut slow), Some(LivenessTransition::ConfirmedDead));

        // A peer that acked promptly until it crashed earned no grace:
        // its condemnation schedule is exactly the no-grace one.
        let mut dead = FailureDetector::new(policy);
        dead.set_monitored(&[P]);
        for _ in 0..4 {
            let seq = dead.begin_probe(P, T0).unwrap();
            assert!(dead.ack(P, seq, 0).is_some(), "prompt acks earn no grace");
        }
        assert_eq!(miss_round(&mut dead), None);
        assert_eq!(miss_round(&mut dead), Some(LivenessTransition::Suspected));
        assert_eq!(miss_round(&mut dead), Some(LivenessTransition::ConfirmedDead));
    }

    #[test]
    fn monitored_is_sorted_and_a_new_set_forgets() {
        let mut d = det();
        for k in [Key(9), Key(1), Key(4)] {
            assert!(d.mark_dead(k, 0));
        }
        assert_eq!(d.monitored(), [Key(1), Key(4), Key(9)]);
        d.set_monitored(&[Key(1), Key(4)]);
        assert_eq!(d.monitored(), [Key(1), Key(4)]);
    }

    /// The peer table exists only while somebody is monitored: monitoring
    /// nobody frees it, and a detector watching nobody answers as a
    /// fresh one does.
    #[test]
    fn monitoring_nobody_frees_the_peers() {
        let mut d = det();
        assert!(d.peers.is_none(), "a fresh detector owns no table");
        d.set_monitored(&[P]);
        assert!(d.mark_dead(Key(6), 0));
        d.set_monitored(&[P]);
        assert_eq!(d.monitored(), [P]);
        d.set_monitored(&[]);
        assert!(d.peers.is_none(), "nobody kept, nothing owned");
        assert!(d.monitored().is_empty());
        assert_eq!((d.liveness(P), d.degraded().count()), (None, 0));
        d.set_monitored(&[]);
        assert!(d.peers.is_none(), "monitoring nobody opens nothing");
    }

    /// `set_monitored` sizes the table to the list it is given and carries
    /// every kept peer's whole state over: a suspect keeps its stamp,
    /// score, earned grace and the probe it has in flight; a peer left
    /// out is gone, one new starts fresh, and an empty list frees the box.
    #[test]
    fn a_seeded_peer_table_is_exact_and_keeps_state() {
        let mut d = FailureDetector::new(FailurePolicy { grace_misses: 2 });
        let (gone, kept, new) = (Key(2), P, Key(8));
        d.set_monitored(&[Key(1), gone, kept, Key(7), Key(9)]);
        // One late ack earns a round of grace; two missed rounds make a
        // suspect; a third probe is left in flight after one resend.
        let seq = d.begin_probe(kept, T0).unwrap();
        assert!(matches!(d.on_timeout(kept, seq, SimTime(seq)), TimeoutVerdict::Resend { .. }));
        assert!(d.ack(kept, seq, 0).is_some());
        miss_round(&mut d);
        assert_eq!(miss_round(&mut d), Some(LivenessTransition::Suspected));
        let probe = d.begin_probe(kept, T0).unwrap();
        d.arm_probe(kept, SimTime(77));
        assert_eq!(d.on_timeout(kept, probe, SimTime(50)), TimeoutVerdict::Resend { attempt: 1 });
        assert!(d.mark_dead(gone, 3));
        let before = *d.peer(kept).unwrap();
        assert_eq!(before.grace_credit, 1);

        d.set_monitored(&[Key(1), kept, new, Key(9)]);
        let table = d.peers.as_deref().unwrap();
        assert_eq!((table.keys.capacity(), table.health.capacity()), (4, 4), "exactly the list");
        assert_eq!(d.monitored(), [Key(1), kept, new, Key(9)]);
        assert_eq!(d.liveness(gone), None, "a peer left out is gone");
        assert_eq!(d.incarnation_of(gone), None);
        let after = *d.peer(kept).unwrap();
        assert_eq!(d.liveness(kept), Some(Liveness::Suspect));
        assert_eq!(d.suspected_at(kept), Some(SimTime(2)));
        assert_eq!(
            (after.missed, after.score, after.grace_credit, after.next_seq),
            (before.missed, before.score, before.grace_credit, before.next_seq)
        );
        assert_eq!(d.in_flight().collect::<Vec<_>>(), [(kept, probe, SimTime(77))]);
        assert_eq!(d.on_timeout(kept, probe, SimTime(77)), TimeoutVerdict::Resend { attempt: 2 });
        assert_eq!(d.health(new), Some(FULL_HEALTH), "a new peer starts fresh");
        assert_eq!(d.liveness(new), Some(Liveness::Fresh));

        d.set_monitored(&[]);
        assert!(d.peers.is_none(), "an empty list frees the box");
    }

    /// The peer table is ordered by construction: whatever order peers
    /// arrive and leave in, `monitored()` is ascending without a sort,
    /// and every peer's state stays attached to its own key.
    #[test]
    fn peer_table_stays_ordered_and_keeps_state_with_its_key() {
        let mut d = det();
        // Distinct (the mix is a bijection), in no order.
        let keys: Vec<Key> = (0..40u64).map(|i| Key(crate::mix::splitmix64(i))).collect();
        for (i, &k) in keys.iter().enumerate() {
            // Hearsay brings each peer in; its own incarnation, fresher
            // than the verdict's, stamps it and revokes the verdict.
            d.mark_dead(k, 0);
            assert_eq!(d.observe_alive(k, i as u64 + 1), Some(Liveness::Dead));
            if i % 5 == 4 {
                d.mark_dead(Key(i as u64), 0);
            }
            assert!(d.monitored().windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates");
        }
        let kept: Vec<Key> = d.monitored().iter().copied().filter(|k| k.0 % 3 != 0).collect();
        d.set_monitored(&kept);
        assert!(d.monitored().windows(2).all(|w| w[0] < w[1]));
        assert!(d.monitored().iter().all(|k| k.0 % 3 != 0));
        let stamped = keys.iter().enumerate().filter(|(_, &k)| d.liveness(k).is_some());
        assert!(stamped.clone().count() > 10);
        for (i, &k) in stamped {
            assert_eq!(d.incarnation_of(k), Some(i as u64 + 1), "state moved off {k}");
        }
        let degraded: Vec<Key> = d.degraded().collect();
        assert!(degraded.is_empty(), "nobody missed a round");
    }
}
