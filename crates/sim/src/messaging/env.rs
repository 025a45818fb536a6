//! The machines' window onto the shared system ([`SystemEnv`], the
//! simulator's [`NodeEnv`]), which also carries what their events feed.

use bristle_core::ldt::Ldt;
use bristle_core::location::LocationRecord;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::obs::{Counter, FlightRecorder, Hist, ObsEvent, ObsEventKind, Registry};
use bristle_proto::machine::NodeEnv;
use bristle_proto::wire::WireAddr;

use super::*;

/// The machines' window onto the shared system: every [`NodeEnv`] query
/// or commit maps onto the exact state the function-call path reads and
/// writes, which is what makes the meter tallies comparable.
pub(crate) struct SystemEnv<'a> {
    pub(crate) sys: &'a mut BristleSystem,
    /// The driver's view of every node, read for the last known address
    /// of one that crashed or left: senders may still address it (that
    /// is the point of crash *detection*), and the transport needs a
    /// router to deliver the doomed bytes to.
    pub(crate) nodes: &'a Nodes,
    /// The run's series: a discovery's milestone lands in its histogram.
    pub(crate) obs: &'a mut Registry,
    /// Where every machine-emitted structured event is recorded.
    pub(crate) flight: &'a mut FlightRecorder,
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

/// Where mail for `key` goes: its current address, else the last one the
/// driver saw it at, else the dead-letter address.
pub(crate) fn addr_of(sys: &BristleSystem, nodes: &Nodes, key: Key) -> WireAddr {
    let last = || nodes.last_addr(sys.interner().get(key)).unwrap_or(DEAD_LETTER_ADDR);
    wire_addr_of(sys, key).unwrap_or_else(last)
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
        addr_of(self.sys, self.nodes, key)
    }

    fn addr_current(&self, addr: WireAddr) -> bool {
        addr.to_net().is_valid(&self.sys.attachments)
    }

    fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        // The lease first: without one the row's learned address is not
        // read at all.
        if !self.sys.leases.is_fresh(holder, subject, self.sys.clock.now()) {
            return None;
        }
        let cached = self.sys.mobile.node(holder).ok()?.entry(subject).and_then(|p| p.addr)?;
        Some(WireAddr::from_net(cached))
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
        match event.kind {
            ObsEventKind::DiscoveryResolved { elapsed, .. }
            | ObsEventKind::DiscoveryFailed { elapsed, .. } => {
                self.obs.record(Hist::Discovery, elapsed)
            }
            ObsEventKind::StaleReject { .. } => self.obs.add(Counter::StaleBlackholed, 1),
            ObsEventKind::OracleForward { .. } => self.obs.add(Counter::OracleForwards, 1),
            _ => {}
        }
        self.flight.record(event);
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

    fn routable(&self, addr: WireAddr) -> bool {
        self.sys.has_router(addr.router_id())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::MessagingBristleSystem;
    use super::*;
    use bristle_proto::transport::FaultConfig;
    use bristle_proto::wire::{Envelope, WireMessage};

    /// Every live node that holds a store: only those in `durable` may.
    fn stored(msys: &MessagingBristleSystem, durable: &[Key]) -> Vec<Key> {
        let held: Vec<Key> =
            msys.sys.mobile.keys().filter(|&k| msys.sys.stores.state(k).is_some()).collect();
        assert!(
            held.iter().all(|k| durable.contains(k)),
            "{held:?} hold stores; only {durable:?} may"
        );
        held
    }

    /// A store exists where durability does: after build and a run of
    /// traffic that writes every kind of row, a node that neither
    /// crashed nor was given a WAL holds none.
    #[test]
    fn a_node_that_never_crashed_holds_no_store() {
        for seed in [8u64, 27] {
            let sys = crate::workload::tiny_system(seed, 800, 200, Default::default());
            let mut msys = MessagingBristleSystem::new(sys, FaultConfig::perfect(), seed);
            assert!(stored(&msys, &[]).is_empty(), "seed {seed}: after build");

            let (watcher, m) = (msys.sys.stationary_keys()[0], msys.sys.mobile_keys()[0]);
            msys.register(watcher, m).expect("registration acked");
            msys.sys.move_node(m, None).expect("mobile node moves");
            msys.sys.tick(msys.sys.config().lease_ttl + 1);
            assert!(msys.disseminate_update(m).expect("dissemination runs") > 0);

            let stationary = msys.sys.stationary_keys().to_vec();
            let mobile = msys.sys.mobile_keys().to_vec();
            let pairs: Vec<(Key, Key)> = (0..32).map(|i| (stationary[i], mobile[i + 1])).collect();
            let before = msys.sys.meter.count(MessageKind::DiscoveryHop);
            assert!(msys.route_burst(&pairs).iter().all(Result::is_ok), "seed {seed}");
            msys.settle();
            assert!(msys.sys.meter.count(MessageKind::DiscoveryHop) > before, "seed {seed}");
            msys.heartbeat_round();
            msys.settle();
            assert!(!msys.sys.leases.is_empty(), "seed {seed}: leases were written");
            assert!(stored(&msys, &[]).is_empty(), "seed {seed}: after traffic");
        }
    }

    /// Mail for a node nobody knew is addressed to a host no map has at
    /// an epoch no host reaches: not current, and asking is not a panic.
    #[test]
    fn the_dead_letter_address_is_never_current() {
        let empty = bristle_netsim::attach::AttachmentMap::new();
        assert!(!DEAD_LETTER_ADDR.to_net().is_valid(&empty));
        assert!(!DEAD_LETTER_ADDR.to_net().is_valid(&build(8).attachments));
    }

    /// One unauthenticated `Update` can put any three integers into a
    /// holder's row. Whatever they are, the next route through that row
    /// returns: a host the map never registered is simply not current, a
    /// router the topology does not have is refused where it would be
    /// learned (metered once), and an epoch of `2³² + current` does not
    /// narrow onto the current one.
    #[test]
    fn forged_addresses_never_panic_a_receiver() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let subject = msys.sys.mobile_keys()[0];
            let holder =
                msys.sys.registry.registrants_of(subject).next().expect("a registrant").key;
            let honest = wire_addr_of(&msys.sys, subject).expect("live");
            let to_addr = wire_addr_of(&msys.sys, holder).expect("live");
            let forgeries = [
                ("host", WireAddr { host: 4_000_000, ..honest }, 0),
                ("router", WireAddr { router: 4_000_000, ..honest }, 1),
                ("epoch", WireAddr { epoch: (1 << 32) + honest.epoch, ..honest }, 0),
            ];
            for (i, (what, addr, refused)) in forgeries.into_iter().enumerate() {
                let before = msys.sys.meter.count(MessageKind::MalformedFrame);
                let forged = Envelope {
                    src: msys.sys.stationary_keys()[0],
                    dst: holder,
                    msg_id: u64::MAX - i as u64,
                    trace_id: 0,
                    msg: WireMessage::Update { subject, addr, seq: u64::MAX, floor: 0 },
                    auth: None,
                };
                msys.inject_frame(to_addr.router_id(), to_addr, forged);
                msys.settle_injected();
                assert_eq!(
                    msys.sys.meter.count(MessageKind::MalformedFrame) - before,
                    refused,
                    "seed {seed}: forged {what} metered"
                );
                let row = msys.sys.mobile.node(holder).expect("live").entry(subject).expect("row");
                assert_eq!(row.addr == Some(addr.to_net()), refused == 0, "seed {seed}: {what}");
                let current = addr.to_net().is_valid(&msys.sys.attachments);
                assert!(!current, "seed {seed}: forged {what} passes for current");
                // Delivered through `_discovery`, or failed — never unwound.
                let _ = msys.route(holder, subject);
                msys.settle();
                let row = msys.sys.mobile.node(holder).expect("live").entry(subject).expect("row");
                assert_eq!(row.addr.map(WireAddr::from_net), Some(honest), "seed {seed}: {what}");
            }
        }
    }
}
