//! The operations a caller runs to completion — each starts frames at
//! one or more machines, then runs the event loop, claiming the
//! completions it awaits as they surface, until it is done — and the
//! disruptions a caller scripts around them.

use bristle_core::naming::Mobility;
use bristle_proto::transport::{Degradation, LinkFilter};
use bristle_proto::wire::{Envelope, WireAddr};

use super::*;

impl MessagingBristleSystem {
    /// Routes a message from `src` toward `target` entirely by message
    /// passing, driving the event loop until the route completes or
    /// fails. Lost hops time out and retransmit; hops to a moved mobile
    /// peer fall back to a `_discovery` through the stationary layer.
    pub fn route(&mut self, src: Key, target: Key) -> Result<MessagingRouteReport, MessagingError> {
        self.route_burst(&[(src, target)]).pop().unwrap_or(Err(MessagingError::Stalled))
    }

    /// Has `src`'s machine (started if need be) originate a route toward
    /// `target`; returns the route id its completion will carry.
    fn start_route(&mut self, src: Key, target: Key) -> u64 {
        let mut route_id = 0;
        self.machine_started(src);
        self.drive(src, |m, now, env| {
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
        // Every route starts now: launching one runs no event.
        let started = self.queue.now();
        // Each launched route's `(origin, route id)` and position.
        let mut by_route: Vec<((Key, u64), usize)> = Vec::with_capacity(pairs.len());
        for (i, &(src, target)) in pairs.iter().enumerate() {
            if self.sys.node_info(src).is_err() || self.is_failed(src) {
                results[i] = Some(Err(MessagingError::UnknownNode(src)));
            } else {
                by_route.push(((src, self.start_route(src, target)), i));
            }
        }
        by_route.sort_unstable();
        let mut remaining = by_route.len();
        // A completion is claimed iff its session was open when the batch
        // that carries it began; the first one decides the outcome. These
        // are the sessions the running batch closed.
        let mut closing: Vec<usize> = Vec::new();
        let ran = self.run_until(|d, offered| {
            let Some(c) = offered else {
                closing.clear();
                return remaining == 0;
            };
            let (Completion::Delivered { origin, route_id }
            | Completion::RouteFailed { origin, route_id, .. }) = c
            else {
                return false;
            };
            let Ok(at) = by_route.binary_search_by_key(&(origin, route_id), |&(k, _)| k) else {
                return false;
            };
            let i = by_route[at].1;
            if results[i].is_some() {
                return closing.contains(&i);
            }
            results[i] = Some(match c {
                Completion::RouteFailed { origin, route_id, at } => {
                    Err(MessagingError::RouteFailed { origin, route_id, at })
                }
                _ => Ok(MessagingRouteReport { route_id, delivered_at: d.queue.now() }),
            });
            remaining -= 1;
            closing.push(i);
            true
        });
        for report in results.iter().flatten().flatten() {
            self.obs.record(Hist::Route, report.delivered_at.since(started));
        }
        // Only a run that stopped short leaves a route without an outcome.
        let short = ran.settled().err().unwrap_or(MessagingError::Stalled);
        results.into_iter().map(|r| r.unwrap_or_else(|| Err(short.clone()))).collect()
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
            if self.is_failed(parent) || self.sys.node_info(parent).is_err() {
                continue;
            }
            expected += children.len();
            self.machine_started(parent);
            self.drive(parent, |m, now, env| {
                m.start_update(now, env, key, addr, info.seq, &children)
            });
        }
        let (mut acked, mut settled) = (0usize, 0usize);
        if expected > 0 {
            let ran = self.run_until(|_, c| match c {
                Some(Completion::UpdateAcked { .. }) => {
                    acked += 1;
                    settled += 1;
                    true
                }
                Some(Completion::UpdateFailed { .. }) => {
                    settled += 1;
                    true
                }
                Some(_) => false,
                None => settled >= expected,
            });
            // A queue that drained with edges unsettled is not an error:
            // a parent died *during* the round, so its pending acks can
            // never arrive. Report how far the dissemination got — the
            // shortfall is exactly what failure detection must catch.
            if let Ran::Runaway = ran {
                return Err(MessagingError::Runaway);
            }
            self.obs.record(Hist::Dissemination, self.queue.now().since(started));
        }
        Ok(acked)
    }

    /// Registers `who`'s interest in mobile `target` by message, driving
    /// the loop until the registration is acked (lease granted) or fails.
    pub fn register(&mut self, who: Key, target: Key) -> Result<(), MessagingError> {
        let info = *self.sys.node_info(who).map_err(|_| MessagingError::UnknownNode(who))?;
        if self.is_failed(who) {
            return Err(MessagingError::UnknownNode(who));
        }
        if self.sys.node_info(target).map(|i| i.mobility) != Ok(Mobility::Mobile) {
            return Err(MessagingError::UnknownNode(target));
        }
        self.machine_started(who);
        self.drive(who, |m, now, env| m.start_register(now, env, target, info.capacity));
        let (mut acked, mut settled) = (false, false);
        let ran = self.run_until(|_, c| match c {
            Some(Completion::Registered { target: t }) if t == target => {
                acked = true;
                settled = true;
                true
            }
            Some(Completion::RegisterFailed { target: t }) if t == target => {
                settled = true;
                true
            }
            Some(_) => false,
            None => settled,
        });
        ran.settled()?;
        acked.then_some(()).ok_or(MessagingError::Stalled)
    }

    /// Injects an adversary-crafted frame into the transport as if some
    /// node at `from_router` had sent it: same link latencies, faults
    /// and delivery scheduling as honest traffic. Its header names
    /// `to_addr` and, as the sender's, the claimed sender's current
    /// address. The adversary is a protocol-level attacker — it can put
    /// any bytes on the wire, but the honest receive path (and its
    /// [`VerifyPolicy`]) decides what those bytes do.
    pub fn inject_frame(&mut self, from_router: RouterId, to_addr: WireAddr, env: Envelope) {
        let now = self.queue.now();
        let from_addr = addr_of(&self.sys, &self.nodes, env.src);
        for d in self.transport.send(now, from_router, to_addr.router_id(), env) {
            self.admit(d, to_addr, from_addr);
        }
    }

    /// Drains every event the injected frames (and any reactions they
    /// provoke) schedule. The adversary driver calls this after a volley
    /// of [`Self::inject_frame`]s.
    pub fn settle_injected(&mut self) {
        self.drain();
    }

    /// Schedules a mobile node's move at micro-time `at`, to be executed
    /// while a later operation's event loop runs past that time. Its
    /// registrants learn the new address only from [`Self::disseminate_update`].
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
    /// everything it sends or receives suffers the script's slowdown
    /// and extra loss until healed. The node stays up — this is
    /// gray failure, not a crash.
    pub fn degrade_node_now(&mut self, key: Key, degradation: Degradation) {
        if let Ok(router) = self.sys.router_of(key) {
            self.transport.degrade_node(router, degradation);
        }
    }

    /// Applies a fail-slow script to the directed `from → to` link
    /// between two nodes' current routers immediately; the reverse
    /// direction is untouched (asymmetric degradation).
    pub fn degrade_link_now(&mut self, from: Key, to: Key, degradation: Degradation) {
        if let (Ok(a), Ok(b)) = (self.sys.router_of(from), self.sys.router_of(to)) {
            self.transport.degrade_link(a, b, degradation);
        }
    }

    /// Lifts every fail-slow script immediately.
    pub fn heal_degradations_now(&mut self) {
        self.transport.clear_degradations();
    }

    /// Drains every pending event (stray acks, stale timers) so the next
    /// operation starts from a quiet network, claiming every completion
    /// on the way, so none is left buffered.
    pub fn settle(&mut self) {
        self.run_until(|_, c| c.is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::MAX_EVENTS_PER_OP;
    use super::*;
    use bristle_proto::transport::FaultConfig;

    /// A scheduled move re-attaches the node and republishes its record
    /// but tells no registrant: on a perfect transport it meters no
    /// `Update`, and a registrant's row keeps the old address until
    /// `disseminate_update` sends one `Update` per LDT edge.
    #[test]
    fn a_scheduled_move_tells_no_registrant_until_dissemination() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let m = msys.sys.mobile_keys()[0];
            let ldt = msys.sys.build_ldt(m).expect("a live mobile node");
            let learned = |c: &Key| msys.sys.mobile.node(*c).is_ok_and(|n| n.entry(m).is_some());
            let holder = ldt.edges().map(|(_, c)| c).find(learned).expect("a registrant's row");
            let row = |msys: &MessagingBristleSystem| {
                let entry = msys.sys.mobile.node(holder).expect("live").entry(m).copied();
                entry.and_then(|e| e.addr).map(WireAddr::from_net)
            };
            let updates = |msys: &MessagingBristleSystem| msys.sys.meter.count(MessageKind::Update);
            let (old, before) = (row(&msys), updates(&msys));
            assert_eq!(old, wire_addr_of(&msys.sys, m), "seed {seed}: the row starts current");
            let here = msys.sys.router_of(m).expect("live");
            let to = *msys.sys.stub_routers().iter().find(|&&r| r != here).expect("a router");
            msys.schedule_move(SimTime(msys.micro_now().0 + 1), m, Some(to));
            msys.settle();
            assert_eq!(msys.sys.router_of(m), Ok(to), "seed {seed}: the move ran");
            assert_eq!(updates(&msys), before, "seed {seed}: a move alone sends no Update");
            assert_eq!(row(&msys), old, "seed {seed}: the registrant was not told");
            assert_eq!(msys.disseminate_update(m), Ok(ldt.edge_count()), "seed {seed}");
            assert_eq!(updates(&msys) - before, ldt.edge_count() as u64, "seed {seed}");
            assert_eq!(row(&msys), wire_addr_of(&msys.sys, m), "seed {seed}: and now it is");
        }
    }

    /// Scans buffered completions for this route's outcome.
    fn take_route_completion(
        msys: &mut MessagingBristleSystem,
        origin: Key,
        route_id: u64,
    ) -> Result<Option<SimTime>, MessagingError> {
        let mut found = None;
        let now = msys.queue.now();
        msys.completions.retain(|c| match *c {
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
            if msys.sys.node_info(src).is_err() || msys.is_failed(src) {
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
                match take_route_completion(msys, src, route_id) {
                    Ok(Some(done)) => {
                        msys.obs.record(Hist::Route, done.since(started));
                        results[i] =
                            Some(Ok(MessagingRouteReport { route_id, delivered_at: done }));
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
            assert_eq!(a.obs, b.obs);
            for &kind in bristle_overlay::meter::ALL_KINDS.iter() {
                assert_eq!(a.sys.meter.count(kind), b.sys.meter.count(kind), "{kind:?}");
            }
        }
    }
}
