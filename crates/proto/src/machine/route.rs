//! Mobile-layer forwarding (paper Fig. 2 `_route`) and the `_discovery`
//! sessions it falls back to (§2.3.2). A stationary next hop is sent to
//! directly, a mobile one at the address this node believes — or, with
//! no fresh belief, after a `_discovery` through the stationary layer
//! resolves one; forwards waiting on one subject park on one session.
//! The stationary side of `_discovery` (route to the owner, walk the
//! replica chain on a miss, reply) is here as well.

use super::exchange::SessionKind;
use super::*;
use crate::rto::Awaited;

/// A forward, in flight as a hop or parked on an address resolution.
#[derive(Debug, Clone, Copy)]
pub(super) struct ParkedForward {
    pub(super) origin: Key,
    pub(super) route_id: u64,
    pub(super) target: Key,
    /// Whether this forward already failed once and was re-resolved;
    /// a second failure is final.
    pub(super) after_failure: bool,
    /// The causal trace the forward belongs to.
    pub(super) trace: u64,
}

#[derive(Debug)]
pub(super) struct DiscSession {
    subject: Key,
    attempt: u32,
    pending: Vec<ParkedForward>,
    /// Trace of the forward that opened the session (joiners keep their
    /// own traces on the parked forwards).
    trace: u64,
    /// When the session was opened, for resolution-latency events.
    started: SimTime,
    /// When the reply window of the latest attempt closes.
    pub(super) due: SimTime,
}

impl ProtoMachine {
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

    /// A discovery's answer: its round-trip is a sample, and the
    /// forwards parked on the session resume. A reply naming a router
    /// the environment cannot route to is forged — no stationary node
    /// stores one — and is dropped before it touches the session, so
    /// the honest reply still resolves it.
    pub(super) fn on_discovery_reply(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        session: u64,
        addr: Option<WireAddr>,
        out: &mut Output,
    ) {
        if addr.is_some_and(|a| !env.routable(a)) {
            env.bump(MessageKind::MalformedFrame);
            return;
        }
        if let Some(s) = close(&mut self.open, |o| o.discs.remove(&session)) {
            self.timers.sample(Awaited::Discovery, s.attempt, now.since(s.started));
            self.finish_discovery(now, env, s, addr, out);
        }
    }

    pub(super) fn forward_route(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        parked: ParkedForward,
        out: &mut Output,
    ) {
        let ParkedForward { origin, route_id, target, .. } = parked;
        let Some(next) = env.next_hop_mobile(self.key, target) else {
            note(self.key, env, now, parked.trace, ObsEventKind::RouteDelivered { route_id });
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
                        let cost = env.distance(self.own_addr(env).router_id(), stale.router_id());
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
        let msg = WireMessage::RouteHop {
            origin: parked.origin,
            route_id: parked.route_id,
            target: parked.target,
            floor: 0, // `frame` stamps it
        };
        let kind = SessionKind::Hop(parked);
        let frame = self.frame(env, next, to_addr, parked.trace, msg, Some(kind.metered()));
        self.send_reliable(now, out, frame, kind);
    }

    /// A hop to `peer` went unacked through every retry. A mobile peer
    /// may have moved out from under us: retry through the stationary
    /// layer (the paper's recovery path), once.
    pub(super) fn hop_exhausted(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        peer: Key,
        hop: ParkedForward,
        out: &mut Output,
    ) {
        if env.is_mobile(peer) && !hop.after_failure {
            env.bump(MessageKind::DiscoveryRetry);
            let parked = ParkedForward { after_failure: true, ..hop };
            self.start_discovery(now, env, peer, parked, out);
        } else {
            let ParkedForward { origin, route_id, trace, .. } = hop;
            note(self.key, env, now, trace, ObsEventKind::RouteFailed { route_id });
            out.completions.push(Completion::RouteFailed { origin, route_id, at: self.key });
        }
    }

    fn start_discovery(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        subject: Key,
        parked: ParkedForward,
        out: &mut Output,
    ) {
        // Join an in-flight session for the same subject if one exists.
        let open = self.open.get_or_insert_with(Default::default);
        if let Some(session) = open.discs.values_mut().find(|s| s.subject == subject) {
            session.pending.push(parked);
            return;
        }
        let sid = self.next_session;
        self.next_session += 1;
        let trace = parked.trace;
        let due = now.plus(self.timers.first_wait(Awaited::Discovery));
        let session =
            DiscSession { subject, attempt: 0, pending: vec![parked], trace, started: now, due };
        open.discs.insert(sid, session);
        note(self.key, env, now, trace, ObsEventKind::DiscoveryStart { subject });
        self.emit_discovery(env, sid, subject, trace, out);
        out.arm(due);
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
    pub(super) fn handle_discovery(
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
        let reply = |addr| WireMessage::DiscoveryReply { subject, session: sid, addr };
        let metered = Some(MessageKind::DiscoveryHop);
        match probe {
            None => {
                if let Some(nh) = env.next_hop_stationary(self.key, subject) {
                    self.post(env, out, nh, trace, hop(None), metered);
                    return;
                }
                // We own the subject's record space: the route terminus.
                if let Some(addr) = env.location_record(self.key, subject) {
                    self.post(env, out, asker, trace, reply(Some(addr)), metered);
                    return;
                }
                // Miss at the owner: probe successor replicas.
                let replicas = env.replicas(subject);
                match replicas.iter().copied().find(|&r| r != self.key) {
                    Some(next_rep) => {
                        self.post(env, out, next_rep, trace, hop(Some(self.key)), metered)
                    }
                    None => self.post(env, out, asker, trace, reply(None), metered),
                }
            }
            Some(terminus) => {
                if let Some(addr) = env.location_record(self.key, subject) {
                    // Serving from a probed replica rather than the route
                    // terminus: the chain absorbed the primary's miss.
                    env.bump(MessageKind::ReplicaFailover);
                    self.post(env, out, asker, trace, reply(Some(addr)), metered);
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
                note(self.key, env, now, session.trace, resolved);
                env.commit_resolution(self.key, subject, a);
            }
            None => {
                let failed = ObsEventKind::DiscoveryFailed { subject, elapsed };
                note(self.key, env, now, session.trace, failed);
            }
        }
        for parked in session.pending {
            // On success the resolved address is also the cached one; on
            // failure forward to the subject's true attachment, modelling
            // the function path's out-of-band convergence — counted, as
            // no node can know it.
            let to_addr = addr.unwrap_or_else(|| {
                note(self.key, env, now, parked.trace, ObsEventKind::OracleForward { subject });
                env.current_addr(subject)
            });
            self.send_hop(now, env, subject, to_addr, parked, out);
        }
    }

    /// The reply window of discovery `sid` elapsed (a wake found its
    /// deadline passed): re-issue it with backoff, or give the
    /// resolution up after `max_attempts` tries.
    pub(super) fn discovery_retry(
        &mut self,
        now: SimTime,
        env: &mut dyn NodeEnv,
        sid: u64,
        out: &mut Output,
    ) {
        let Some(session) = self.open.as_deref_mut().and_then(|o| o.discs.get_mut(&sid)) else {
            return;
        };
        session.attempt += 1;
        let (attempt, subject, trace) = (session.attempt, session.subject, session.trace);
        let retried = (attempt < self.timers.max_attempts()).then(|| {
            session.due = now.plus(self.timers.retry_wait(Awaited::Discovery, attempt));
            session.due
        });
        env.bump(MessageKind::Timeout);
        if let Some(due) = retried {
            env.bump(MessageKind::DiscoveryRetry);
            note(self.key, env, now, trace, ObsEventKind::Timeout { what: "discovery", attempt });
            self.emit_discovery(env, sid, subject, trace, out);
            out.arm(due);
            return;
        }
        note(self.key, env, now, trace, ObsEventKind::Timeout { what: "discovery", attempt });
        if let Some(session) = close(&mut self.open, |o| o.discs.remove(&sid)) {
            self.finish_discovery(now, env, session, None, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;

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
            msg: WireMessage::RouteHop { origin: A, route_id: 3, target: B, floor: 0 },
            auth: None,
        };
        let out1 = m.poll(t(0), arrival(&env, hop.clone()), &mut env);
        assert_eq!(out1.completions, vec![Completion::Delivered { origin: A, route_id: 3 }]);
        assert_eq!(out1.outgoing.len(), 1, "ack");
        let out2 = m.poll(t(1), arrival(&env, hop), &mut env);
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
        let out = m.poll(t(50), arrival(&env, reply), &mut env);
        assert!(out.completions.is_empty(), "a resolution is committed, not reported");
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
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::Discovery { .. }));
        assert_eq!(out.wake, Some(t(1000)));

        let o1 = m.poll(t(1000), Event::Wake, &mut env);
        assert_eq!(o1.outgoing.len(), 1, "re-issued");
        assert_eq!(o1.wake, Some(t(1000 + 2000)), "backoff doubles");
        assert_eq!(env.meter.count(MessageKind::DiscoveryRetry), 1);
        let o2 = m.poll(t(3000), Event::Wake, &mut env);
        assert_eq!(o2.outgoing.len(), 1);
        assert_eq!(o2.wake, Some(t(3000 + 4000)));
        let o3 = m.poll(t(7000), Event::Wake, &mut env);
        assert!(o3.completions.is_empty());
        assert!(env.resolutions.is_empty(), "nothing resolved");
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
        let out = m1.poll(t(0), arrival(&env, q), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert_eq!(out.outgoing[0].env.dst, s2, "forwarded toward the owner");
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1);

        let mut m2 = ProtoMachine::new(s2, policy());
        let out = m2.poll(t(1), arrival(&env, out.outgoing[0].env.clone()), &mut env);
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
        let out = m1.poll(t(0), arrival(&env, q), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(
            matches!(out.outgoing[0].env.msg, WireMessage::Discovery { probe: Some(p), .. } if p == s1)
        );
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "probe hop metered");

        // s2 also misses: chain exhausted, unmetered ProbeMiss to terminus.
        let mut m2 = ProtoMachine::new(s2, policy());
        let out = m2.poll(t(1), arrival(&env, out.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::ProbeMiss { .. }));
        assert_eq!(out.outgoing[0].env.dst, s1);
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 1, "probe-miss is unmetered");

        // The terminus answers the asker with a miss, metered from itself.
        let out = m1.poll(t(2), arrival(&env, out.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.outgoing.len(), 1);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::DiscoveryReply { addr: None, .. }));
        assert_eq!(out.outgoing[0].env.dst, A);
        assert_eq!(env.meter.count(MessageKind::DiscoveryHop), 2);
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
        assert_eq!(m.poll(t(100), Event::Wake, &mut env).outgoing[0].env.msg_id, msg_id);
        m.poll(t(300), Event::Wake, &mut env);
        let out = m.poll(t(700), Event::Wake, &mut env);
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
        let out = m.poll(t(1000), arrival(&env, reply), &mut env);
        let id2 = out.outgoing[0].env.msg_id;
        assert_eq!(m.poll(t(1100), Event::Wake, &mut env).outgoing[0].env.msg_id, id2);
        m.poll(t(1300), Event::Wake, &mut env);
        let out = m.poll(t(1700), Event::Wake, &mut env);
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
        let out = m.poll(t(10), arrival(&env, reply), &mut env);
        assert_eq!(out.outgoing.len(), 2, "both parked forwards resume");
    }
}
