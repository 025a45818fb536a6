//! Periodic liveness refresh (paper §2.3.3): driver-paced heartbeat
//! rounds, the [`FailureDetector`]'s verdicts on the windows that
//! elapse, refutation by incarnation — a node that learns of its own
//! funeral bumps past the verdict, and fresher evidence overturns a
//! standing one wherever it arrives — and rejoin: a refutation asks its
//! receiver to sponsor the reversal of the funeral.

use super::*;
use crate::failure::{Liveness, LivenessTransition, TimeoutVerdict, PROBE_ATTEMPTS};
use crate::rto::Awaited;

/// A restarted machine's frame ids begin at `incarnation << LIFE_SHIFT`
/// (see [`ProtoMachine::restore_incarnation`]).
const LIFE_SHIFT: u32 = 32;

impl ProtoMachine {
    /// This node's own incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
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

    /// The id this machine numbers its next frame with: every frame it
    /// has sent went under a lower one. A life that replaces another must
    /// start at or above the other's, or a peer holding that life's floor
    /// ([`ProtoMachine::floor_of`]) takes its acked frames for duplicates.
    pub fn next_msg_id(&self) -> u64 {
        self.next_msg_id
    }

    /// What this node believes about the peers it monitors: their
    /// liveness, incarnations, health and suspicions. Read-only; the
    /// monitored set, a spent suspicion and the policy change only
    /// through this machine's own methods.
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Replaces the failure-detection thresholds (existing suspicion
    /// state, incarnations included, is kept).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.detector.set_policy(policy);
    }

    /// Monitors exactly `peers` (ascending, distinct, never this node),
    /// keeping the state of those already monitored
    /// ([`FailureDetector::set_monitored`]).
    pub fn set_monitored(&mut self, peers: &[Key]) {
        debug_assert!(peers.binary_search(&self.key).is_err(), "a node never monitors itself");
        self.detector.set_monitored(peers);
    }

    /// Takes the stamp of this node's own suspicion of `peer`, the
    /// `now` of its `Suspect` event ([`FailureDetector::spend_suspicion`]).
    pub fn spend_suspicion(&mut self, peer: Key) -> Option<SimTime> {
        self.detector.spend_suspicion(peer)
    }

    /// Opens one heartbeat round: probes every monitored, not-yet-dead
    /// peer (one probe each, metered as HeartbeatSent) and arms the ack
    /// windows' deadlines. Rounds are driver-paced — a round's probes
    /// never re-arm themselves, so an idle machine stays idle.
    pub fn start_heartbeats(&mut self, now: SimTime, env: &mut dyn NodeEnv) -> Output {
        let mut out = Output::none();
        for i in 0..self.detector.monitored().len() {
            let peer = self.detector.monitored()[i];
            let Some(seq) = self.detector.begin_probe(peer, now) else { continue };
            let probe = WireMessage::Heartbeat { seq, incarnation: self.incarnation };
            self.post(env, &mut out, peer, 0, probe, Some(MessageKind::HeartbeatSent));
            let due = now.plus(self.timers.first_wait(Awaited::Probe(peer)));
            self.detector.arm_probe(peer, due);
            out.arm(due);
        }
        self.observe_sends(now, env, &out);
        out
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

    /// Refutes this node's funeral to `to`: the sealed `Alive` at its
    /// current incarnation that the obituary arm answers with (metered as
    /// [`MessageKind::Refutation`]), which asks its receiver to sponsor
    /// the rejoin ([`Completion::RejoinRequested`]).
    pub fn refute(&mut self, now: SimTime, env: &mut dyn NodeEnv, to: Key) -> Output {
        let mut out = Output::none();
        let trace = self.fresh_trace();
        let alive = WireMessage::Alive { node: self.key, incarnation: self.incarnation };
        self.post(env, &mut out, to, trace, alive, Some(MessageKind::Refutation));
        self.observe_sends(now, env, &out);
        out
    }

    /// The incarnation an unsealed frame from `src` vouches for. Under
    /// an enforcing policy that is none fresher than the one already
    /// held: anyone can send such a frame under `src`'s key, and only a
    /// sealed `Alive` may reverse a verdict.
    fn vouched(&self, env: &dyn NodeEnv, src: Key, incarnation: u64) -> u64 {
        if env.verify_policy() != VerifyPolicy::Enforce {
            return incarnation;
        }
        incarnation.min(self.detector.incarnation_of(src).unwrap_or(0))
    }

    /// Digests third-party or first-hand evidence that `peer` is alive
    /// at `incarnation`, metering a [`MessageKind::WrongfulDeath`] when
    /// it overturns a death verdict.
    fn digest_alive(&mut self, env: &mut dyn NodeEnv, peer: Key, incarnation: u64) {
        if self.detector.observe_alive(peer, incarnation) == Some(Liveness::Dead) {
            env.bump(MessageKind::WrongfulDeath);
        }
    }

    /// The liveness delivery arms, for a frame sent from `from`.
    pub(super) fn on_liveness_frame(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        from: WireAddr,
        envelope: Envelope,
        out: &mut Output,
    ) {
        let (src, msg_id, trace) = (envelope.src, envelope.msg_id, envelope.trace_id);
        match envelope.msg {
            WireMessage::Heartbeat { seq, incarnation } => {
                // The probe itself is evidence of life at `incarnation`.
                let incarnation = self.vouched(env, src, incarnation);
                self.digest_alive(env, src, incarnation);
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
                out.outgoing.push(self.frame(env, src, from, trace, reply, None));
            }
            WireMessage::HeartbeatAck { seq, incarnation } => {
                let incarnation = self.vouched(env, src, incarnation);
                self.digest_alive(env, src, incarnation);
                if let Some((attempt, sent)) = self.detector.ack(src, seq, incarnation) {
                    self.timers.sample(Awaited::Probe(src), attempt, now.since(sent));
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
                    let refute = ObsEventKind::Refute { incarnation: self.incarnation };
                    note(self.key, env, now, trace, refute);
                    let alive =
                        WireMessage::Alive { node: self.key, incarnation: self.incarnation };
                    let refutation = Some(MessageKind::Refutation);
                    out.outgoing.push(self.frame(env, src, from, trace, alive, refutation));
                } else if self.admission.first_sighting(src, msg_id, Kind::Posted)
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
                    // A refutation is also the rejoin request: whoever
                    // hears it may sponsor the reversal, monitor or not.
                    self.digest_alive(env, node, incarnation);
                    out.completions.push(Completion::RejoinRequested { peer: node, incarnation });
                }
            }
            _ => unreachable!("on_deliver hands this file only its own kinds"),
        }
    }

    /// The ack window of probe `seq` to `peer` elapsed (a wake found its
    /// deadline passed): retransmit it, or count the round as missed and
    /// report what the detector makes of that.
    pub(super) fn heartbeat_timeout(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        peer: Key,
        seq: u64,
        out: &mut Output,
    ) {
        match self.detector.on_timeout(peer, seq, now) {
            TimeoutVerdict::Ignore => {}
            TimeoutVerdict::Resend { attempt } => {
                env.bump(MessageKind::Timeout);
                note(self.key, env, now, 0, ObsEventKind::Timeout { what: "heartbeat", attempt });
                let probe = WireMessage::Heartbeat { seq, incarnation: self.incarnation };
                self.post(env, out, peer, 0, probe, Some(MessageKind::HeartbeatSent));
                let due = now.plus(self.timers.retry_wait(Awaited::Probe(peer), attempt));
                self.detector.arm_probe(peer, due);
                out.arm(due);
            }
            TimeoutVerdict::Missed { transition } => {
                env.bump(MessageKind::Timeout);
                let timeout = ObsEventKind::Timeout { what: "heartbeat", attempt: PROBE_ATTEMPTS };
                note(self.key, env, now, 0, timeout);
                match transition {
                    Some(LivenessTransition::Suspected) => {
                        env.bump(MessageKind::SuspectRaised);
                        let incarnation = self.detector.incarnation_of(peer).unwrap_or(0);
                        note(self.key, env, now, 0, ObsEventKind::Suspect { peer, incarnation });
                    }
                    Some(LivenessTransition::ConfirmedDead) => {
                        out.completions.push(Completion::PeerDead { peer });
                    }
                    None => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;
    use super::*;

    #[test]
    fn heartbeat_round_trip_keeps_peer_fresh() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        let mut target = ProtoMachine::new(B, policy());
        prober.set_monitored(&[B]);
        let out = prober.start_heartbeats(t(0), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(env.meter.count(MessageKind::HeartbeatSent), 1);
        assert_eq!(env.meter.cost(MessageKind::HeartbeatSent), 4, "|1 - 5|");
        let hb = out.outgoing[0].env.clone();
        assert_eq!(out.wake, Some(t(policy().ack_timeout)), "a probe waits like an exchange");

        // The target acks (unmetered), including on a duplicate.
        let r1 = target.poll(t(1), arrival(&env, hb.clone()), &mut env);
        assert!(matches!(r1.outgoing[0].env.msg, WireMessage::HeartbeatAck { seq: 0, .. }));
        let r2 = target.poll(t(2), arrival(&env, hb), &mut env);
        assert_eq!(r2.outgoing.len(), 1, "duplicate heartbeat re-acked");
        assert_eq!(env.meter.total_messages(), 1, "only the probe itself is metered");

        let out = prober.poll(t(3), arrival(&env, r1.outgoing[0].env.clone()), &mut env);
        assert!(out.completions.is_empty());
        assert_eq!(prober.detector().liveness(B), Some(Liveness::Fresh));
        // The wake armed for the acked probe finds nothing due.
        let out = prober.poll(t(policy().ack_timeout), Event::Wake, &mut env);
        assert!(out.outgoing.is_empty() && out.completions.is_empty());
        assert_eq!(out.wake, None);
        assert_eq!(env.meter.count(MessageKind::Timeout), 0);
    }

    /// Runs heartbeat round `round` against a silent peer: the probe,
    /// each retransmission, and the window that counts the miss. Returns
    /// the output of that last window.
    fn miss_round(prober: &mut ProtoMachine, round: u32, env: &mut MockEnv) -> Output {
        let mut wake = prober.start_heartbeats(t(u64::from(round) * 1_000_000), env).wake;
        loop {
            let out = prober.poll(wake.expect("a probe in flight"), Event::Wake, env);
            if out.wake.is_none() {
                return out;
            }
            wake = out.wake;
        }
    }

    #[test]
    fn silent_peer_is_suspected_then_condemned() {
        use crate::failure::{DEAD_AFTER, SUSPECT_AFTER};
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        prober.set_monitored(&[B]);

        for round in 1..=DEAD_AFTER {
            let out = miss_round(&mut prober, round, &mut env);
            let sent = env.meter.count(MessageKind::HeartbeatSent);
            assert_eq!(sent, u64::from(round * PROBE_ATTEMPTS), "every send of a probe");
            let suspected = u64::from(round >= SUSPECT_AFTER);
            assert_eq!(env.meter.count(MessageKind::SuspectRaised), suspected);
            if round < DEAD_AFTER {
                assert!(out.completions.is_empty(), "suspicion is no verdict");
                let want = if round < SUSPECT_AFTER { Liveness::Fresh } else { Liveness::Suspect };
                assert_eq!(prober.detector().liveness(B), Some(want), "after round {round}");
            } else {
                assert_eq!(out.completions, vec![Completion::PeerDead { peer: B }]);
                assert_eq!(prober.detector().liveness(B), Some(Liveness::Dead));
            }
        }

        // Dead peers are no longer probed.
        let out = prober.start_heartbeats(t(u64::from(DEAD_AFTER + 1) * 1_000_000), &mut env);
        assert!(out.outgoing.is_empty());
    }

    /// Swapping the failure policy keeps every peer's state: a suspect
    /// stays suspect under its stamp and degraded, and its probe in
    /// flight is still awaited under the sequence it was sent with.
    #[test]
    fn a_policy_swap_keeps_every_peers_state() {
        use crate::failure::SUSPECT_AFTER;
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = ProtoMachine::new(A, policy());
        prober.set_monitored(&[B]);
        for round in 1..=SUSPECT_AFTER {
            miss_round(&mut prober, round, &mut env);
        }
        let stamp = prober.detector().suspected_at(B);
        assert!(stamp.is_some(), "suspected after {SUSPECT_AFTER} missed rounds");
        let seq = |out: &Output| match out.outgoing[0].env.msg {
            WireMessage::Heartbeat { seq, .. } => seq,
            ref msg => panic!("not a probe: {msg:?}"),
        };
        let out = prober.start_heartbeats(t(9_000_000), &mut env);
        assert_eq!(seq(&out), u64::from(SUSPECT_AFTER));

        prober.set_failure_policy(FailurePolicy { grace_misses: 2 });
        assert_eq!(prober.detector().liveness(B), Some(Liveness::Suspect));
        assert_eq!(prober.detector().suspected_at(B), stamp);
        assert_eq!(prober.detector().degraded().collect::<Vec<_>>(), [B]);
        let resent = prober.poll(out.wake.expect("a probe in flight"), Event::Wake, &mut env);
        assert_eq!(seq(&resent), u64::from(SUSPECT_AFTER), "the same probe, resent");
    }

    #[test]
    fn suspect_notify_marks_dead_once() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut origin = ProtoMachine::new(A, policy());
        let mut receiver = ProtoMachine::new(B, policy());
        receiver.set_monitored(&[M]);
        let out = origin.notify_suspect(t(0), &mut env, B, M);
        assert_eq!(env.meter.total_messages(), 0, "verdict spreading is unmetered");
        let notice = out.outgoing[0].env.clone();
        let r1 = receiver.poll(t(0), arrival(&env, notice.clone()), &mut env);
        assert_eq!(r1.completions, vec![Completion::PeerDead { peer: M }]);
        assert_eq!(receiver.detector().liveness(M), Some(Liveness::Dead));
        let r2 = receiver.poll(t(1), arrival(&env, notice), &mut env);
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
        a.set_monitored(&[B]);
        b.set_monitored(&[A]);

        // A third party convinces A that B is dead (wrongfully: B is
        // merely beyond a partition).
        let notice = herald.notify_suspect(t(0), &mut env, A, B).outgoing[0].env.clone();
        a.poll(t(0), arrival(&env, notice), &mut env);
        assert_eq!(a.detector().liveness(B), Some(Liveness::Dead));

        // The cut heals; B's next probe reaches A, which answers with
        // B's obituary instead of an ack.
        let probe = b.start_heartbeats(t(10), &mut env).outgoing[0].env.clone();
        let out = a.poll(t(11), arrival(&env, probe), &mut env);
        let obituary = out.outgoing[0].env.clone();
        assert!(
            matches!(obituary.msg, WireMessage::SuspectNotify { suspect, .. } if suspect == B),
            "a dead peer's probe is answered with its obituary: {obituary:?}"
        );

        // B learns of its own funeral: bumps its incarnation, refutes.
        let out = b.poll(t(12), arrival(&env, obituary), &mut env);
        assert_eq!(b.incarnation(), 1);
        assert!(out.completions.is_empty());
        let refuted = |e: &ObsEvent| matches!(e.kind, ObsEventKind::Refute { incarnation: 1 });
        assert!(env.events.iter().any(|e| e.node == B && refuted(e)));
        let refutation = out.outgoing[0].env.clone();
        assert!(matches!(refutation.msg, WireMessage::Alive { node, incarnation: 1 } if node == B));
        assert_eq!(env.meter.count(MessageKind::Refutation), 1);

        // The refutation resurrects B at A, and asks A to sponsor it.
        let out = a.poll(t(13), arrival(&env, refutation), &mut env);
        assert_eq!(out.completions, vec![Completion::RejoinRequested { peer: B, incarnation: 1 }]);
        assert_eq!(a.detector().liveness(B), Some(Liveness::Fresh));
        assert_eq!(env.meter.count(MessageKind::WrongfulDeath), 1);
        assert_eq!(a.start_heartbeats(t(20), &mut env).outgoing.len(), 1, "B is probed again");
    }

    /// The refutation is the rejoin request: whoever hears a fresher
    /// `Alive` is asked to sponsor the reversal, whether or not it
    /// monitors the refuter. Under enforcement the frame travels sealed,
    /// and a forged one is refused before it asks anything.
    #[test]
    fn an_alive_asks_its_receiver_to_sponsor_the_rejoin() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut rejoiner = ProtoMachine::new(A, policy());
        let mut sponsor = ProtoMachine::new(B, policy());
        // A's funeral was charged to incarnation 0; learning of it bumps.
        let notice = sponsor.notify_suspect(t(0), &mut env, A, A).outgoing[0].env.clone();
        rejoiner.poll(t(0), arrival(&env, notice), &mut env);
        assert_eq!(rejoiner.incarnation(), 1);
        assert_eq!(env.meter.count(MessageKind::Refutation), 1, "the obituary is answered");

        let alive = rejoiner.refute(t(1), &mut env, B).outgoing[0].env.clone();
        assert!(matches!(alive.msg, WireMessage::Alive { node, incarnation: 1 } if node == A));
        assert!(alive.auth.is_some(), "the refutation travels sealed");
        assert_eq!(env.meter.count(MessageKind::Refutation), 2);
        assert!(sponsor.detector().incarnation_of(A).is_none(), "B does not monitor A");
        let asked = vec![Completion::RejoinRequested { peer: A, incarnation: 1 }];
        let out = sponsor.poll(t(2), arrival(&env, alive.clone()), &mut env);
        assert_eq!(out.completions, asked);
        assert!(out.outgoing.is_empty(), "nothing answers a refutation");
        let again = sponsor.poll(t(3), arrival(&env, alive), &mut env);
        assert_eq!(again.completions, asked, "every copy asks: the driver reverses once");

        let msg = WireMessage::Alive { node: A, incarnation: 1000 };
        let forged = Envelope { src: A, dst: B, msg_id: 99, trace_id: 0, msg, auth: None };
        let out = sponsor.poll(t(4), arrival(&env, forged), &mut env);
        assert!(out.completions.is_empty(), "an unsealed refutation asks nothing");
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);
    }

    /// Under enforcement, a heartbeat or an ack is no evidence of a
    /// fresher incarnation: anyone can send one under a condemned
    /// peer's key, and only a sealed `Alive` may reverse its funeral.
    /// Without enforcement the same frame still refutes.
    #[test]
    fn unsealed_frames_vouch_for_no_fresher_incarnation_under_enforcement() {
        for vpolicy in [VerifyPolicy::Enforce, VerifyPolicy::LogOnly] {
            let mut env =
                MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9);
            env.domain = Some(AuthDomain::new(8));
            env.vpolicy = vpolicy;
            let mut a = ProtoMachine::new(A, policy());
            let mut herald = ProtoMachine::new(M, policy());
            a.set_monitored(&[B]);
            let notice = herald.notify_suspect(t(0), &mut env, A, B).outgoing[0].env.clone();
            a.poll(t(0), arrival(&env, notice), &mut env);
            assert_eq!(a.detector().liveness(B), Some(Liveness::Dead));

            let forge =
                |msg_id, msg| Envelope { src: B, dst: A, msg_id, trace_id: 0, msg, auth: None };
            let probe = forge(7, WireMessage::Heartbeat { seq: 0, incarnation: 1000 });
            let ack = forge(8, WireMessage::HeartbeatAck { seq: 0, incarnation: 1000 });
            a.poll(t(1), arrival(&env, probe), &mut env);
            a.poll(t(2), arrival(&env, ack), &mut env);
            let refuted = vpolicy != VerifyPolicy::Enforce;
            let (liveness, incarnation) =
                if refuted { (Liveness::Fresh, 1000) } else { (Liveness::Dead, 0) };
            assert_eq!(a.detector().liveness(B), Some(liveness), "{vpolicy:?}");
            assert_eq!(a.detector().incarnation_of(B), Some(incarnation), "{vpolicy:?}");
            assert_eq!(env.meter.count(MessageKind::WrongfulDeath), u64::from(refuted));
        }
    }

    #[test]
    fn stale_incarnation_does_not_resurrect() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut a = ProtoMachine::new(A, policy());
        let mut herald = ProtoMachine::new(B, policy());
        a.set_monitored(&[M]);
        // M observed alive at incarnation 2, then condemned at 2.
        let alive = Envelope {
            src: B,
            dst: A,
            msg_id: 50,
            trace_id: 0,
            msg: WireMessage::Alive { node: M, incarnation: 2 },
            auth: None,
        };
        a.poll(t(0), arrival(&env, alive), &mut env);
        let notice = herald.notify_suspect(t(1), &mut env, A, M).outgoing[0].env.clone();
        // The herald never saw M, so its verdict is charged to
        // incarnation 0 — stale against A's knowledge.
        a.poll(t(1), arrival(&env, notice), &mut env);
        assert_eq!(a.detector().liveness(M), Some(Liveness::Fresh), "stale verdict is ignored");
        // An Alive at the already-known incarnation changes nothing.
        let stale_alive = Envelope {
            src: B,
            dst: A,
            msg_id: 51,
            trace_id: 0,
            msg: WireMessage::Alive { node: M, incarnation: 2 },
            auth: None,
        };
        a.poll(t(2), arrival(&env, stale_alive), &mut env);
        assert_eq!(a.detector().liveness(M), Some(Liveness::Fresh));
        assert_eq!(a.detector().incarnation_of(M), Some(2));
        assert_eq!(env.meter.count(MessageKind::WrongfulDeath), 0);
    }

    /// `B`'s answer to probe `seq`.
    fn heartbeat_ack(seq: u64) -> Envelope {
        let msg = WireMessage::HeartbeatAck { seq, incarnation: 0 };
        Envelope { src: B, dst: A, msg_id: seq, trace_id: 0, msg, auth: None }
    }

    /// `A` on adaptive timers, monitoring `B`.
    fn adaptive_prober() -> ProtoMachine {
        let mut prober = ProtoMachine::new(A, policy());
        prober.set_adaptive_rto(true);
        prober.set_monitored(&[B]);
        prober
    }

    #[test]
    fn heartbeat_acks_feed_the_rto_estimator() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut prober = adaptive_prober();
        prober.start_heartbeats(t(0), &mut env);
        prober.poll(t(40), arrival(&env, heartbeat_ack(0)), &mut env);
        // rtt = 40: srtt8 = 320, rttvar4 = 80, rto = 40 + 80 = 120.
        assert_eq!(prober.rto_estimate(B), Some(120));
    }

    /// Karn's rule on the probe path: the answer to a re-sent probe is
    /// ambiguous and no sample; the answer to a first send is one.
    #[test]
    fn probe_acks_keep_karns_rule() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);

        let mut resent = adaptive_prober();
        let wake = resent.start_heartbeats(t(0), &mut env).wake.expect("a probe in flight");
        let out = resent.poll(wake, Event::Wake, &mut env);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::Heartbeat { seq: 0, .. }));
        resent.poll(wake.plus(40), arrival(&env, heartbeat_ack(0)), &mut env);
        assert_eq!(resent.detector().in_flight().count(), 0, "the ack closed the probe");
        assert_eq!(resent.rto_estimate(B), None, "a re-sent probe's answer");
        resent.start_heartbeats(t(1_000), &mut env);
        resent.poll(t(1_040), arrival(&env, heartbeat_ack(1)), &mut env);
        assert_eq!(resent.rto_estimate(B), Some(120), "the next probe's first send is sampled");
    }
}
