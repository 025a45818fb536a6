//! The reliable exchange: send a frame, await its ack, retransmit with
//! backoff, give up after `max_attempts`. One table, keyed by `msg_id`,
//! holds every frame awaiting an ack — a route hop (paper Fig. 2), an
//! LDT `Update` to a child (§2.3.1, Fig. 4), a `Register` at a mobile
//! target — because the three are one exchange. A session keeps its own
//! deadline, records what it carries only for what differs (what a
//! retransmission meters, what exhaustion means) and is closed only by
//! its own kind of ack from the peer the frame went to.

use super::*;
use crate::rto::Awaited;

/// What a reliable exchange carries — the only thing the paper's three
/// send-await-retransmit exchanges differ in.
#[derive(Debug, Clone, Copy)]
pub(super) enum SessionKind {
    /// A route hop to the next mobile-layer peer (paper Fig. 2), and the
    /// forward to resume should the peer never ack.
    Hop(ParkedForward),
    /// An LDT `Update` to a child (§2.3.1, Fig. 4).
    Update,
    /// A `Register` at a mobile target.
    Register,
}

impl SessionKind {
    /// What every transmission of the frame, first or repeated, meters.
    pub(super) fn metered(self) -> MessageKind {
        match self {
            SessionKind::Hop(_) => MessageKind::RouteHop,
            SessionKind::Update => MessageKind::Update,
            SessionKind::Register => MessageKind::Register,
        }
    }

    /// The name timeouts of this exchange are observed under.
    fn what(self) -> &'static str {
        match self {
            SessionKind::Hop(_) => "hop",
            SessionKind::Update => "update",
            SessionKind::Register => "register",
        }
    }

    /// Whether `ack` is the acknowledgement this exchange awaits.
    fn acked_by(self, ack: &WireMessage) -> bool {
        matches!(
            (self, ack),
            (SessionKind::Hop(_), WireMessage::HopAck { .. })
                | (SessionKind::Update, WireMessage::UpdateAck { .. })
                | (SessionKind::Register, WireMessage::RegisterAck { .. })
        )
    }
}

/// One frame awaiting its ack: sent, retransmitted with backoff, given
/// up on after `max_attempts`.
#[derive(Debug)]
pub(super) struct Session {
    /// The sealed frame, retransmitted verbatim but for its sender
    /// address, which each copy takes from where it leaves.
    out: Frame,
    attempt: u32,
    /// The only node whose ack closes the session.
    peer: Key,
    /// When the first copy was sent, for RTT sampling (Karn: only
    /// acks of attempt-0 frames are sampled).
    sent_at: SimTime,
    /// When the ack window of the latest copy closes.
    pub(super) due: SimTime,
    kind: SessionKind,
}

impl ProtoMachine {
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
            let msg = WireMessage::Update { subject, addr, seq, floor: 0 }; // `frame` stamps it
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
        let msg = WireMessage::Register { target, capacity, floor: 0 }; // `frame` stamps it
        let frame = self.frame(env, target, to_addr, trace, msg, Some(MessageKind::Register));
        self.send_reliable(now, &mut out, frame, SessionKind::Register);
        self.observe_sends(now, env, &out);
        out
    }

    /// Opens a reliable exchange with the peer `frame` is addressed to:
    /// the frame is sent, a copy kept under its `msg_id` for
    /// retransmission, and the first ack window's deadline armed.
    /// [`Self::on_ack`] closes the session, [`Self::retry`] retransmits
    /// it or gives up.
    pub(super) fn send_reliable(
        &mut self,
        now: SimTime,
        out: &mut Output,
        frame: Frame,
        kind: SessionKind,
    ) {
        let (msg_id, peer) = (frame.env.msg_id, frame.env.dst);
        out.outgoing.push(frame.clone());
        let due = now.plus(self.timers.first_wait(Awaited::Ack(peer)));
        let session = Session { out: frame, attempt: 0, peer, sent_at: now, due, kind };
        self.open.get_or_insert_with(Default::default).sessions.insert(msg_id, session);
        out.arm(due);
    }

    /// Closes the session `ack` names — if there is one, it awaits this
    /// kind of ack, and the ack comes from the peer the frame was sent
    /// to. Message ids are a per-source counter anyone can guess and
    /// acks are unauthenticated (a `RegisterAck` is signed by whoever
    /// sends it), so without the peer check any third party could
    /// complete a registration the target never applied or silence a
    /// hop's retry ladder; a mismatched ack leaves the session and its
    /// deadline untouched.
    pub(super) fn on_ack(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        ack: &Envelope,
        acked: u64,
        out: &mut Output,
    ) {
        let Some(awaited) = self.open.as_deref().and_then(|o| o.sessions.get(&acked)) else {
            return;
        };
        if awaited.peer != ack.src || !awaited.kind.acked_by(&ack.msg) {
            return;
        }
        let Some(closed) = close(&mut self.open, |o| o.sessions.remove(&acked)) else { return };
        let Session { attempt, peer, sent_at, kind, .. } = closed;
        self.timers.sample(Awaited::Ack(peer), attempt, now.since(sent_at));
        note(self.key, env, now, ack.trace_id, ObsEventKind::Ack { from: peer, msg_id: acked });
        match kind {
            SessionKind::Hop(_) => {}
            SessionKind::Update => out.completions.push(Completion::UpdateAcked { child: peer }),
            SessionKind::Register => {
                env.commit_register(self.key, peer);
                out.completions.push(Completion::Registered { target: peer });
            }
        }
    }

    /// The ack window of session `msg_id` elapsed (a wake found its
    /// deadline passed): retransmit the stored frame and re-arm with
    /// backoff, or give up after `max_attempts` sends.
    pub(super) fn retry(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        msg_id: u64,
        out: &mut Output,
    ) {
        let Some(session) = self.open.as_deref_mut().and_then(|o| o.sessions.get_mut(&msg_id))
        else {
            return;
        };
        session.attempt += 1;
        let (attempt, peer, kind) = (session.attempt, session.peer, session.kind);
        let trace = session.out.env.trace_id;
        let resend = (attempt < self.timers.max_attempts()).then(|| {
            session.due = now.plus(self.timers.retry_wait(Awaited::Ack(peer), attempt));
            (session.out.clone(), session.due)
        });
        env.bump(MessageKind::Timeout);
        note(self.key, env, now, trace, ObsEventKind::Timeout { what: kind.what(), attempt });
        if let Some((mut frame, due)) = resend {
            frame.from_addr = self.own_addr(env);
            let cost = env.distance(frame.from_addr.router_id(), frame.to_addr.router_id());
            env.meter(kind.metered(), cost);
            out.outgoing.push(frame);
            out.arm(due);
            return;
        }
        // Retries exhausted.
        close(&mut self.open, |o| o.sessions.remove(&msg_id));
        match kind {
            SessionKind::Hop(hop) => self.hop_exhausted(now, env, peer, hop, out),
            SessionKind::Update => out.completions.push(Completion::UpdateFailed { child: peer }),
            SessionKind::Register => {
                out.completions.push(Completion::RegisterFailed { target: peer })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;

    #[test]
    fn hop_ack_clears_retry() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        let (_, out) = m.start_route(t(0), &mut env, B);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(out.wake, Some(t(100)));
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
        m.poll(t(10), arrival(&env, ack), &mut env);
        assert_eq!(m.inflight(), 0);
        // The wake armed for the acked hop finds nothing due.
        let out = m.poll(t(100), Event::Wake, &mut env);
        assert!(out.outgoing.is_empty() && out.completions.is_empty());
        assert_eq!(out.wake, None, "nothing left in flight");
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
        assert_eq!(out.wake, Some(t(100)));

        let out1 = m.poll(t(100), Event::Wake, &mut env);
        assert_eq!(out1.outgoing.len(), 1, "first retransmit");
        assert_eq!(out1.outgoing[0].env.msg_id, msg_id, "retransmit reuses the msg id");
        assert_eq!(out1.wake, Some(t(100 + 200)), "exponential backoff");
        // max_attempts = 3: the attempt counter reaches 2 on this wake,
        // and 2 < 3, so it retransmits once more.
        let out2 = m.poll(t(300), Event::Wake, &mut env);
        assert_eq!(out2.outgoing.len(), 1, "second retransmit");
        assert_eq!(out2.wake, Some(t(300 + 400)));
        let out3 = m.poll(t(700), Event::Wake, &mut env);
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
        let r1 = receiver.poll(t(5), arrival(&env, update.clone()), &mut env);
        assert_eq!(env.updates, vec![(B, A, 3)]);
        assert!(matches!(r1.outgoing[0].env.msg, WireMessage::UpdateAck { .. }));
        let r2 = receiver.poll(t(6), arrival(&env, update), &mut env);
        assert_eq!(env.updates.len(), 1, "duplicate update not re-applied");
        assert_eq!(r2.outgoing.len(), 1, "but re-acked");

        // Sender: ack completes the edge.
        let out = sender.poll(t(7), arrival(&env, r1.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::UpdateAcked { child: B }]);
        assert_eq!(sender.inflight(), 0);

        // A second, never-acked edge exhausts its retries.
        let out = sender.start_update(t(100), &mut env, A, addr, 4, &[B]);
        let id2 = out.outgoing[0].env.msg_id;
        assert_ne!(id2, msg_id);
        sender.poll(t(200), Event::Wake, &mut env);
        sender.poll(t(400), Event::Wake, &mut env);
        let out = sender.poll(t(800), Event::Wake, &mut env);
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
        let r = target.poll(t(1), arrival(&env, reg), &mut env);
        assert_eq!(env.registered, vec![(M, A, 12)]);
        let out = who.poll(t(2), arrival(&env, r.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::Registered { target: M }]);
        assert_eq!(env.committed, vec![(A, M)], "lease granted only after the ack");
    }

    #[test]
    fn adaptive_rto_learns_from_hop_acks_and_rearms_with_the_estimate() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        m.set_adaptive_rto(true);

        // No samples yet: the first hop arms at the initial RTO, not
        // the fixed policy timeout.
        let (_, out) = m.start_route(t(0), &mut env, B);
        assert_eq!(out.wake, Some(t(100)), "initial RTO before any sample");
        let hop_id = out.outgoing[0].env.msg_id;
        let ack = Envelope {
            src: B,
            dst: A,
            msg_id: 0,
            trace_id: 0,
            msg: WireMessage::HopAck { acked: hop_id },
            auth: None,
        };
        m.poll(t(30), arrival(&env, ack), &mut env);
        // rtt = 30: srtt8 = 240, rttvar4 = 60, rto = 30 + 60 = 90.
        assert_eq!(m.rto_estimate(B), Some(90));
        let (_, out) = m.start_route(t(1000), &mut env, B);
        assert_eq!(out.wake, Some(t(1090)), "next hop arms with the learned RTO");
    }

    #[test]
    fn karn_backoff_doubles_the_adaptive_retry_wait() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut m = ProtoMachine::new(A, policy());
        m.set_adaptive_rto(true);
        let (_, out) = m.start_route(t(0), &mut env, B);
        assert_eq!(out.wake, Some(t(100)));
        // First timeout: retransmit, estimator backoff doubles the RTO.
        let out = m.poll(t(100), Event::Wake, &mut env);
        assert_eq!(out.outgoing.len(), 1, "retransmission");
        assert_eq!(out.wake, Some(t(100 + 200)), "Karn backoff doubled the wait");
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
        ack: fn(u64) -> WireMessage,
        acked: Option<Completion>,
        failed: Option<Completion>,
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
    /// its own kind, its deadline re-armed with backoff, given up on
    /// after `max_attempts` sends.
    #[test]
    fn lost_ack_ladder_is_one_mechanism_over_every_exchange() {
        // Fixed: 100 << attempt. Adaptive at a 60-tick timeout: initial
        // RTO 60, Karn-doubled, within a 32 · 60 ceiling.
        let fast = RetryPolicy { ack_timeout: 60, ..policy() };
        let arms = [(false, policy(), [100, 200, 400], 800), (true, fast, [60, 120, 240], 5_760)];
        for (adaptive, timeouts, waits, ladder) in arms {
            for x in EXCHANGES {
                let ctx = format!("{x:?}, adaptive {adaptive}");
                let mut env = world();
                let mut m = ProtoMachine::new(A, timeouts);
                m.set_adaptive_rto(adaptive);
                assert_eq!(m.timers.ladder(), ladder, "{ctx}");
                let (out, want) = open(x, &mut m, &mut env, t(0));
                assert_eq!(out.outgoing.len(), 1, "{ctx}");
                let frame = out.outgoing[0].clone();
                assert_eq!(frame.env.dst, want.peer, "{ctx}");
                let mut now = 0;
                let mut armed = out.wake;
                for (fired, wait) in waits.into_iter().enumerate() {
                    now += wait;
                    assert_eq!(armed, Some(t(now)), "{ctx}");
                    assert_eq!(m.inflight(), 1, "{ctx}");
                    // A wake a tick early finds nothing due.
                    let early = m.poll(t(now - 1), Event::Wake, &mut env);
                    assert!(early.outgoing.is_empty(), "{ctx}");
                    assert_eq!(early.wake, Some(t(now)), "{ctx}");
                    let out = m.poll(t(now), Event::Wake, &mut env);
                    assert_eq!(env.meter.count(MessageKind::Timeout), fired as u64 + 1, "{ctx}");
                    if fired < 2 {
                        assert_eq!(out.outgoing, vec![frame.clone()], "{ctx}: verbatim");
                        assert!(out.completions.is_empty(), "{ctx}");
                    }
                    armed = out.wake;
                    if fired == 2 {
                        // Exhausted after three sends, all metered alike.
                        for kind in METERED {
                            let sends = if kind == want.metered { 3 } else { 0 };
                            assert_eq!(env.meter.count(kind), sends, "{ctx}: {kind:?}");
                        }
                        match want.failed {
                            Some(failure) => {
                                assert_eq!(out.completions, vec![failure], "{ctx}");
                                assert!(out.outgoing.is_empty() && armed.is_none(), "{ctx}");
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
                                // The reply window: the fixed discovery
                                // timeout, or its estimator's first RTO,
                                // which starts there and jitter only adds to.
                                let window = armed.map(|w| w.since(t(now)));
                                let fixed = Some(timeouts.discovery_timeout);
                                if adaptive {
                                    assert!(window >= fixed, "{ctx}: {window:?}");
                                } else {
                                    assert_eq!(window, fixed, "{ctx}");
                                }
                                assert_eq!(m.inflight(), 1, "{ctx}: the discovery session");
                            }
                        }
                    }
                }
            }
        }
    }

    /// An ack closes a session only when it is the session's kind of
    /// ack *and* comes from the peer the frame went to, and a wake fires
    /// a session only once its deadline has passed. Anything else — a
    /// stranger's ack, the wrong kind of ack, a wake before the deadline,
    /// the same early wake again — leaves the session open and silent,
    /// the real deadline still fires, and the honest ack still closes it.
    #[test]
    fn hostile_acks_and_early_wakes_leave_sessions_open() {
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
            assert_eq!(out.wake, Some(t(100)), "{x:?}");
            let msg_id = out.outgoing[0].env.msg_id;
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
            let mut hostile = vec![(t(10), arrival(&env, ack_from(third, (want.ack)(msg_id))))];
            hostile.extend(
                wrong_acks.map(|ack| (t(10), arrival(&env, ack_from(want.peer, ack(msg_id))))),
            );
            // A wake before the deadline, then the same wake repeated at
            // one tick, and one a tick short of the deadline.
            hostile.extend([(t(10), Event::Wake), (t(10), Event::Wake), (t(99), Event::Wake)]);
            let events_before = env.events.len();
            for (i, (at, event)) in hostile.into_iter().enumerate() {
                let woke = matches!(event, Event::Wake);
                let out = m.poll(at, event, &mut env);
                let ctx = format!("{x:?}, hostile event {i}");
                assert!(out.outgoing.is_empty(), "{ctx}");
                // An early wake reports the deadline it found not yet due.
                assert_eq!(out.wake, woke.then_some(t(100)), "{ctx}");
                assert!(out.completions.is_empty(), "{ctx}");
                assert_eq!(m.inflight(), 1, "{ctx}: session still open");
            }
            assert_eq!(env.events.len(), events_before, "{x:?}: nothing emitted");
            assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0, "{x:?}: all verified");
            assert_eq!(env.meter.count(MessageKind::Timeout), 0, "{x:?}");
            assert!(env.committed.is_empty(), "{x:?}: no lease from a stranger's ack");
            assert_eq!(m.rto_estimate(want.peer), None, "{x:?}");

            // The ladder is intact: first deadline, first retransmission.
            let out = m.poll(t(100), Event::Wake, &mut env);
            assert_eq!(out.outgoing.len(), 1, "{x:?}: the real deadline still fires");
            assert_eq!(out.wake, Some(t(300)), "{x:?}");
            // A second wake at that tick finds the retransmission's
            // deadline not yet due.
            let again = m.poll(t(100), Event::Wake, &mut env);
            assert!(again.outgoing.is_empty() && again.wake == Some(t(300)), "{x:?}");
            assert_eq!(env.meter.count(MessageKind::Timeout), 1, "{x:?}");
            // And the honest ack closes the session.
            let out =
                m.poll(t(110), arrival(&env, ack_from(want.peer, (want.ack)(msg_id))), &mut env);
            assert_eq!(out.completions, Vec::from_iter(want.acked), "{x:?}");
            assert_eq!(m.inflight(), 0, "{x:?}");
            assert_eq!(env.committed.len(), usize::from(matches!(x, Exchange::Register)), "{x:?}");
        }
    }

    /// One wake that finds two sessions due fires both, in the order
    /// they were armed — the `msg_id` order here — retransmitting both
    /// frames verbatim, and reports the earlier of their next deadlines.
    /// A third session, not yet due, is left alone.
    #[test]
    fn one_wake_resends_every_due_session_in_arm_order() {
        let mut env = world();
        let mut m = ProtoMachine::new(A, policy());
        let addr = env.current_addr(A);
        let first = m.start_update(t(0), &mut env, A, addr, 1, &[M, B]);
        let (_, later) = m.start_route(t(50), &mut env, B);
        assert_eq!((first.wake, later.wake), (Some(t(100)), Some(t(150))));
        let sent: Vec<Frame> = first.outgoing.clone();
        assert!(sent[0].env.msg_id < sent[1].env.msg_id);

        let out = m.poll(t(100), Event::Wake, &mut env);
        assert_eq!(out.outgoing, sent, "both due frames, verbatim, in arm order");
        assert_eq!(out.wake, Some(t(150)), "the hop armed at 50 is next");
        assert_eq!(env.meter.count(MessageKind::Timeout), 2);
        assert_eq!(m.inflight(), 3);
        let out = m.poll(t(150), Event::Wake, &mut env);
        assert_eq!(out.outgoing, later.outgoing, "then the hop alone");
        assert_eq!(out.wake, Some(t(300)), "the updates' second window");
    }
}
