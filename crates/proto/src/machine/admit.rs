//! Frame admission: which frames are let in. *Whether a frame reached
//! its addressee* is decided here, by the destination, whichever driver
//! carried it. *Which kinds carry authority* is written once
//! (`signer_of`), so the send path seals exactly the kinds the receive
//! path verifies, and so does *whose floor a frame may raise*; *whether
//! this copy is the first* is the dedup window (`seen`), per source a
//! floor and the sightings above it, none held past two lifetimes of the
//! retry ladder in force.
//! [`ProtoMachine::poll`](super::ProtoMachine::poll) asks
//! [`Admission::admits`] before any state is touched; delivery arms ask
//! [`Admission::first_sighting`] where an effect must happen once.
//! Nothing here sends.

use bristle_core::auth::AuthError;

use super::*;
use crate::seen::{self, Kind, SeenSet};

/// The identity whose authority `msg` carries, if its kind is
/// authenticated: location records speak for their *subject* (relays
/// re-seal on the subject's behalf, modelling a forwarded signature),
/// `Alive` refutations (each one a rejoin request too) for the refuted
/// node, and registrations, their acks and death verdicts for their
/// sender. `None` marks an unauthenticated kind (hops, acks, discovery,
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

/// Verifies a received frame's trailer: self-certification and the MAC
/// for authenticated kinds, plus the replay check on location
/// publications (a withdrawn record's signature is still valid — only
/// freshness rejects it).
fn check_frame(env: &dyn NodeEnv, envelope: &Envelope) -> Result<(), AuthError> {
    let Some(signer) = signer_of(envelope.src, &envelope.msg) else {
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

/// One node's admission state; see the module docs.
#[derive(Debug, Default)]
pub(super) struct Admission {
    /// Receiver-side dedup: per source, the floor its acked frames
    /// carried and the sightings not yet below it, none held past two
    /// lifetimes of the retry ladder in force ([`Self::advance`]).
    seen: SeenSet,
    /// Test oracle: when set, dedup asks this never-pruned set instead
    /// ([`ProtoMachine::use_dedup_oracle`]).
    #[cfg(any(test, feature = "dedup-oracle"))]
    pub(super) oracle: Option<std::collections::HashSet<(Key, u64)>>,
}

impl Admission {
    /// Seals `envelope` with its signer's trailer when the deployment
    /// authenticates (no-op otherwise, and on unauthenticated kinds).
    /// Must run *before* the envelope is cloned into a retry session so
    /// retransmits carry the tag too.
    pub(super) fn seal(env: &dyn NodeEnv, envelope: &mut Envelope) {
        let Some(signer) = signer_of(envelope.src, &envelope.msg) else { return };
        if let Some(domain) = env.auth_domain() {
            envelope.auth = Some(domain.sign(signer, envelope.msg.auth_digest()));
        }
    }

    /// Ages the dedup generations to `now` under a retry ladder of
    /// `ladder` ticks, an upper bound on how long a reliable frame's
    /// sender spends on it; every event a machine handles does, delivery
    /// or wake. A receiver sizing its horizon from its own timers
    /// assumes what the drivers arrange: every machine of a deployment
    /// runs one policy.
    pub(super) fn advance(&mut self, now: SimTime, ladder: u64) {
        self.seen.advance(now, seen::lifetime(ladder));
    }

    /// The receive-side gate of `node`, attached at `own`. Returns
    /// `None` when the frame must be dropped before touching any state:
    /// it was sent to an address other than `own` (the `(host, router,
    /// epoch)` equality `NodeEnv::addr_current` holds beliefs to), emitted
    /// as an [`ObsEventKind::StaleReject`]; its sender address names no
    /// routable router, metered [`MessageKind::MalformedFrame`]; or it
    /// fails authentication under an enforcing policy. Auth failures are
    /// metered as [`MessageKind::ForgedFrame`] (plus
    /// [`MessageKind::AuthReject`] when dropped) and emitted to the
    /// flight recorder, from `node`, either way.
    ///
    /// A let-in frame comes with whether the floor it carries, if any,
    /// may raise its source's: with verification off every floor is
    /// believed, as every frame is; otherwise only one its own source
    /// sealed and this node verified. An unsealed `RouteHop` or a relayed
    /// `Update` is still deduplicated against the floor held.
    pub(super) fn admits(
        node: Key,
        own: WireAddr,
        now: SimTime,
        env: &mut dyn NodeEnv,
        frame: &Frame,
    ) -> Option<bool> {
        let envelope = &frame.env;
        if frame.to_addr != own {
            let (from, tag, msg_id) = (envelope.src, envelope.msg.tag_name(), envelope.msg_id);
            let rejected = ObsEventKind::StaleReject { from, tag, msg_id };
            note(node, env, now, envelope.trace_id, rejected);
            return None;
        }
        if !env.routable(frame.from_addr) {
            env.bump(MessageKind::MalformedFrame);
            return None;
        }
        let policy = env.verify_policy();
        if policy == VerifyPolicy::Off {
            return Some(true);
        }
        let Err(reason) = check_frame(env, envelope) else {
            let sealed = signer_of(envelope.src, &envelope.msg) == Some(envelope.src);
            return Some(sealed && env.auth_domain().is_some());
        };
        env.bump(MessageKind::ForgedFrame);
        let dropped = policy == VerifyPolicy::Enforce;
        let kind = ObsEventKind::AuthReject {
            from: envelope.src,
            tag: envelope.msg.tag_name(),
            reason: reason.name(),
            dropped,
        };
        note(node, env, now, envelope.trace_id, kind);
        if dropped {
            env.bump(MessageKind::AuthReject);
        }
        (!dropped).then_some(false)
    }

    /// Records a sighting of `src`'s frame `msg_id`, of `kind`; `true` if
    /// it is the first: not sighted inside the dedup horizon and, for an
    /// acked frame, not below the floor held for `src`.
    pub(super) fn first_sighting(&mut self, src: Key, msg_id: u64, kind: Kind) -> bool {
        #[cfg(any(test, feature = "dedup-oracle"))]
        if let Some(oracle) = self.oracle.as_mut() {
            return oracle.insert((src, msg_id));
        }
        self.seen.insert(src, msg_id, kind)
    }

    /// Whether `src`'s frame `msg_id` is sighted inside the dedup
    /// horizon; records nothing. Exact for a frame whose exchange is
    /// still open, since no floor has passed it.
    pub(super) fn sighted(&self, src: Key, msg_id: u64) -> bool {
        #[cfg(any(test, feature = "dedup-oracle"))]
        if let Some(oracle) = self.oracle.as_ref() {
            return oracle.contains(&(src, msg_id));
        }
        self.seen.contains(src, msg_id)
    }

    /// The floor held for `src`, 0 if none.
    pub(super) fn floor_of(&self, src: Key) -> u64 {
        self.seen.floor_of(src)
    }

    /// Dedup entries held.
    pub(super) fn held(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;
    use crate::failure::Liveness;
    use bristle_netsim::rng::Pcg64;

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
        let r = target.poll(t(1), arrival(&env, reg), &mut env);
        assert_eq!(env.registered, vec![(M, A, 12)]);
        assert!(r.outgoing[0].env.auth.is_some(), "the ack travels sealed too");
        let out = who.poll(t(2), arrival(&env, r.outgoing[0].env.clone()), &mut env);
        assert_eq!(out.completions, vec![Completion::Registered { target: M }]);
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0);
    }

    #[test]
    fn forged_alive_dropped_under_enforcement_but_digested_log_only() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut a = ProtoMachine::new(A, policy());
        a.set_monitored(&[M]);
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
        let out = a.poll(t(0), arrival(&env, forged.clone()), &mut env);
        assert!(out.completions.is_empty() && out.outgoing.is_empty());
        assert_eq!(a.detector().incarnation_of(M), Some(0), "forged evidence never digested");
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);

        env.vpolicy = VerifyPolicy::LogOnly;
        a.poll(t(1), arrival(&env, forged), &mut env);
        assert_eq!(a.detector().incarnation_of(M), Some(7), "log-only meters but still digests");
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 2);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1, "nothing more dropped");
    }

    #[test]
    fn unsigned_verdict_rejected_when_enforcing() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.domain = Some(AuthDomain::new(8));
        env.vpolicy = VerifyPolicy::Enforce;
        let mut a = ProtoMachine::new(A, policy());
        a.set_monitored(&[M]);
        let bare = Envelope {
            src: B,
            dst: A,
            msg_id: 4,
            trace_id: 0,
            msg: WireMessage::SuspectNotify { suspect: M, incarnation: 0 },
            auth: None,
        };
        let out = a.poll(t(0), arrival(&env, bare), &mut env);
        assert!(out.completions.is_empty());
        assert_eq!(a.detector().liveness(M), Some(Liveness::Fresh), "untagged verdict ignored");
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
        holder.poll(t(0), arrival(&env, replay.clone()), &mut env);
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 1);
        assert_eq!(env.meter.count(MessageKind::AuthReject), 1);

        // The same frame for a live subject sails through.
        env.stale_subjects.clear();
        holder.poll(t(1), arrival(&env, replay), &mut env);
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
        a.set_monitored(&[B]);
        b.set_monitored(&[A]);

        let notice = herald.notify_suspect(t(0), &mut env, A, B).outgoing[0].env.clone();
        assert!(notice.auth.is_some(), "verdicts travel sealed");
        a.poll(t(0), arrival(&env, notice), &mut env);
        assert_eq!(a.detector().liveness(B), Some(Liveness::Dead));

        let probe = b.start_heartbeats(t(10), &mut env).outgoing[0].env.clone();
        assert!(probe.auth.is_none(), "heartbeats are unauthenticated kinds");
        let obituary = a.poll(t(11), arrival(&env, probe), &mut env).outgoing[0].env.clone();
        assert!(obituary.auth.is_some(), "the zombie-path obituary is sealed");
        let refutation = b.poll(t(12), arrival(&env, obituary), &mut env).outgoing[0].env.clone();
        assert!(refutation.auth.is_some(), "the Alive refutation is sealed");
        a.poll(t(13), arrival(&env, refutation), &mut env);
        assert_eq!(env.meter.count(MessageKind::WrongfulDeath), 1);
        assert_eq!(a.detector().liveness(B), Some(Liveness::Fresh));
        assert_eq!(env.meter.count(MessageKind::ForgedFrame), 0, "honest traffic never rejected");
    }

    /// One frame of every `seen`-guarded kind, from `src` under `msg_id`;
    /// an acked kind carries `floor`.
    fn guarded_frame(rng: &mut Pcg64, src: Key, msg_id: u64, floor: u64) -> Envelope {
        let addr = WireAddr { host: 7, router: 3, epoch: 0 };
        let n = rng.range_inclusive(0, 99);
        let msg = match rng.range_inclusive(0, 8) {
            0 => WireMessage::RouteHop { origin: src, route_id: n, target: A, floor },
            1 => WireMessage::RouteHop { origin: src, route_id: n, target: B, floor },
            2 => WireMessage::Discovery { subject: M, asker: src, session: n, probe: None },
            3 => WireMessage::ProbeMiss { subject: M, asker: src, session: n },
            4 => WireMessage::Register { target: A, capacity: 4, floor },
            5 => WireMessage::Update { subject: src, addr, seq: n, floor },
            6 => WireMessage::Publish { subject: src, addr, seq: n },
            7 => WireMessage::SuspectNotify { suspect: Key(99), incarnation: 0 },
            _ => WireMessage::Discovery { subject: B, asker: src, session: n, probe: Some(M) },
        };
        Envelope { src, dst: A, msg_id, trace_id: 0, msg, auth: None }
    }

    /// The bounded `seen` against the never-pruned set it replaced,
    /// through the machine: first copies, retransmissions and transport
    /// duplicates of every guarded kind, each frame's copies drawn inside
    /// one retry ladder of its first, over dozens of lifetimes. Each
    /// acked frame carries its sender's floor, drawn from a sender model:
    /// the lowest id not yet acked, an exchange acked some time after its
    /// first copy landed. Same duplicate verdict — so the same `Output`,
    /// frame for frame, and the same commits — at fixed and adaptive RTO.
    /// Then the contract past the horizon, stated: two lifetimes after
    /// the traffic stops nothing is held, and a replayed frame is new.
    #[test]
    fn bounded_seen_matches_a_never_pruned_set_inside_the_retry_ladder() {
        const FRAMES: usize = 600;
        // Fixed: 100 << 3 bounds 100 + 200 + 400. Adaptive: max_rto × 3,
        // with max_rto 32 · 100.
        for (adaptive, ladder) in [(false, 800), (true, 9_600)] {
            for seed in [8u64, 27] {
                let ctx = format!("seed {seed}, adaptive {adaptive}");
                let mut rng = Pcg64::seed_from_u64(seed);
                let mut arrivals: Vec<(u64, Envelope)> = Vec::new();
                let mut next_id = [0u64; 3];
                // Per source, its open exchanges: (id, when it is acked).
                let mut open: [Vec<(u64, u64)>; 3] = Default::default();
                let mut first = 0;
                for _ in 0..FRAMES {
                    first += rng.range_inclusive(0, ladder / 4);
                    let s = rng.range_inclusive(0, 2) as usize;
                    let id = next_id[s];
                    next_id[s] += 1;
                    open[s].retain(|&(_, acked)| acked > first);
                    let floor = open[s].first().map_or(id, |&(low, _)| low);
                    let frame = guarded_frame(&mut rng, [B, M, Key(77)][s], id, floor);
                    if frame.msg.floor().is_some() {
                        open[s].push((id, first + 1 + rng.range_inclusive(0, ladder)));
                    }
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
                    m.set_monitored(&[Key(99)]);
                }
                let lifetime = crate::seen::lifetime(bounded.timers.ladder());
                assert_eq!(lifetime, 2 * ladder, "{ctx}");
                oracle.use_dedup_oracle();
                let copies = arrivals.len();
                let mut peak = 0;
                for (at, frame) in arrivals {
                    let got = bounded.poll(t(at), arrival(&env, frame.clone()), &mut env);
                    let want = oracle.poll(t(at), arrival(&oracle_env, frame), &mut oracle_env);
                    assert_eq!(got.outgoing, want.outgoing, "{ctx} t={at}");
                    assert_eq!(got.wake, want.wake, "{ctx} t={at}");
                    assert_eq!(got.completions, want.completions, "{ctx} t={at}");
                    peak = peak.max(bounded.seen_held());
                }
                assert_eq!(env.events, oracle_env.events, "{ctx}");
                assert_eq!(env.updates, oracle_env.updates, "{ctx}");
                assert_eq!(env.registered, oracle_env.registered, "{ctx}");
                assert_eq!(
                    oracle.admission.oracle.as_ref().map(|o| o.len()),
                    Some(FRAMES),
                    "{ctx}"
                );
                assert!(copies > FRAMES * 2, "{ctx}: duplicates were drawn");
                assert!(peak < FRAMES / 4, "{ctx}: held {peak} at the peak");

                // Anything the machine hears ages the set, guarded or not.
                let silence = horizon + 2 * lifetime;
                let probe = WireMessage::Heartbeat { seq: 0, incarnation: 0 };
                let probe =
                    Envelope { src: B, dst: A, msg_id: 0, trace_id: 0, msg: probe, auth: None };
                bounded.poll(t(silence), arrival(&env, probe), &mut env);
                assert_eq!(
                    bounded.seen_held(),
                    0,
                    "{ctx}: empty two lifetimes after the last frame"
                );
                // The contract: a frame older than two lifetimes is new.
                bounded.poll(t(silence), arrival(&env, replayed.clone()), &mut env);
                assert_eq!(bounded.seen_held(), 1, "{ctx}: replay accepted as new");
                bounded.poll(t(silence + 1), arrival(&env, replayed), &mut env);
                assert_eq!(bounded.seen_held(), 1, "{ctx}: and its duplicate is caught again");
            }
        }
    }

    /// The contract on a hostile floor (`seen`'s module docs). A hop
    /// forged from `B` under a high id, carrying floor `u64::MAX`:
    /// with verification off it is believed, and `B`'s next honest hop is
    /// acked but not forwarded, until two lifetimes have passed; under
    /// enforcement an unsealed hop raises nothing, and the honest hop is
    /// forwarded at once.
    #[test]
    fn a_forged_floor_silences_its_source_for_at_most_two_lifetimes() {
        let lifetime = crate::seen::lifetime(100 << 3);
        let hop = |msg_id, floor| {
            let msg = WireMessage::RouteHop { origin: B, route_id: msg_id, target: M, floor };
            Envelope { src: B, dst: A, msg_id, trace_id: 0, msg, auth: None }
        };
        let forwarded = |out: &Output| {
            out.outgoing.iter().any(|o| matches!(o.env.msg, WireMessage::RouteHop { .. }))
        };
        for verify in [VerifyPolicy::Off, VerifyPolicy::Enforce] {
            let mut env = world();
            env.domain = Some(AuthDomain::new(8));
            env.vpolicy = verify;
            let mut a = ProtoMachine::new(A, policy());
            let forged = a.poll(t(0), arrival(&env, hop(u64::MAX, u64::MAX)), &mut env);
            assert!(forged
                .outgoing
                .iter()
                .any(|o| o.env.msg == WireMessage::HopAck { acked: u64::MAX }));
            let honest = a.poll(t(10), arrival(&env, hop(5, 5)), &mut env);
            assert!(
                matches!(honest.outgoing[0].env.msg, WireMessage::HopAck { acked: 5 }),
                "{verify:?}: every copy is acked"
            );
            assert_eq!(forwarded(&honest), verify == VerifyPolicy::Enforce, "{verify:?}");
            let later = a.poll(t(10 + 2 * lifetime), arrival(&env, hop(6, 6)), &mut env);
            assert!(forwarded(&later), "{verify:?}: two lifetimes on, the floor is gone");
        }
    }
}
