//! The bench-owned [`NodeEnv`]: the machines' window onto a
//! [`BristleSystem`], timing each call it forwards to `overlay`,
//! `netsim`, `core` and `store`.
//!
//! It is the fault-free subset of `bristle_sim::messaging::SystemEnv`
//! (which is `pub(crate)`): no tombstones, no degraded set, no
//! authentication, observability events discarded. Every query and
//! commit maps onto the same state the real driver's env reads and
//! writes, which [`assert_same_tallies`] holds it to: a loop run through
//! this env must leave the same per-kind `(count, cost)` meter tallies
//! as `MessagingBristleSystem` on the same op list. Delete this file
//! when ROADMAP item 2 exports one env from `bristle-proto`.

use bristle_core::durable::WalRecord;
use bristle_core::location::LocationRecord;
use bristle_core::registry::Registrant;
use bristle_core::system::BristleSystem;
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::{MessageKind, Meter, ALL_KINDS};
use bristle_proto::machine::NodeEnv;
use bristle_proto::wire::WireAddr;

use crate::span::{self, NameId, Trace};

/// Where mail for a node nobody knows goes (as in the real env): a valid
/// address whose epoch can never match a live attachment.
const DEAD_LETTER_ADDR: WireAddr = WireAddr { host: u32::MAX, router: 0, epoch: u64::MAX };

/// See the module docs. With [`Trace::off`] the forwarding is untimed.
pub struct BenchEnv<'a> {
    pub sys: &'a mut BristleSystem,
    pub trace: Trace<'a>,
}

impl BenchEnv<'_> {
    /// Grants `holder` a lease on `subject`, mirrors it into the holder's
    /// store and patches the cached state-pair — the shared body of
    /// `commit_resolution` and `apply_update`.
    fn grant_and_patch(&mut self, holder: Key, subject: Key, addr: WireAddr) {
        self.trace.enter(span::ENV_COMMIT);
        let now = self.sys.clock.now();
        let ttl = self.sys.config().lease_ttl;
        self.sys.leases.grant(holder, subject, now, ttl);
        self.store(holder, WalRecord::LeaseGrant { subject: subject.0, expires: now.plus(ttl).0 });
        if let Ok(node) = self.sys.mobile.node_mut(holder) {
            if let Some(pair) = node.entry_mut(subject) {
                pair.addr = Some(addr.to_net());
            }
        }
        self.trace.exit(span::ENV_COMMIT);
    }

    /// A `&self` query forwarded under a span.
    fn query<T>(&self, name: NameId, f: impl FnOnce() -> T) -> T {
        self.trace.enter(name);
        let out = f();
        self.trace.exit(name);
        out
    }

    fn store(&mut self, node: Key, rec: WalRecord) {
        self.trace.enter(span::ENV_STORE);
        self.sys.stores.apply(node, rec);
        self.trace.exit(span::ENV_STORE);
    }
}

impl NodeEnv for BenchEnv<'_> {
    fn next_hop_mobile(&self, cur: Key, target: Key) -> Option<Key> {
        self.query(span::ENV_NEXT_HOP, || self.sys.mobile.next_hop(cur, target).ok().flatten())
    }

    fn next_hop_stationary(&self, cur: Key, target: Key) -> Option<Key> {
        self.query(span::ENV_NEXT_HOP, || self.sys.stationary.next_hop(cur, target).ok().flatten())
    }

    fn is_mobile(&self, key: Key) -> bool {
        self.sys.is_mobile(key)
    }

    fn entry_stationary(&self, from: Key) -> Key {
        self.query(span::ENV_ENTRY, || self.sys.entry_stationary_for(from).unwrap_or(from))
    }

    fn replicas(&self, subject: Key) -> Vec<Key> {
        self.query(span::ENV_REPLICAS, || {
            self.sys
                .stationary
                .replica_set(subject, self.sys.config().location_replicas)
                .unwrap_or_default()
        })
    }

    fn current_addr(&self, key: Key) -> WireAddr {
        self.query(span::ENV_ADDR, || match self.sys.node_info(key) {
            Ok(info) => WireAddr::from_net(NetAddr::current(info.host, &self.sys.attachments)),
            Err(_) => DEAD_LETTER_ADDR,
        })
    }

    fn addr_current(&self, addr: WireAddr) -> bool {
        addr.to_net().is_valid(&self.sys.attachments)
    }

    fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        self.query(span::ENV_BELIEVED, || {
            let cached = self.sys.mobile.node(holder).ok()?.entry(subject).and_then(|p| p.addr)?;
            if self.sys.leases.is_fresh(holder, subject, self.sys.clock.now()) {
                Some(WireAddr::from_net(cached))
            } else {
                None
            }
        })
    }

    fn location_record(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        self.query(span::ENV_RECORD, || {
            let rec = self.sys.stationary.node(holder).ok()?.store.get(&subject)?;
            Some(WireAddr::from_net(rec.addr))
        })
    }

    fn distance(&self, a: RouterId, b: RouterId) -> u64 {
        self.query(span::ENV_DISTANCE, || self.sys.distances().distance(a, b))
    }

    fn meter(&mut self, kind: MessageKind, cost: u64) {
        self.trace.enter(span::ENV_METER);
        self.sys.meter.record(kind, cost);
        self.trace.exit(span::ENV_METER);
    }

    fn bump(&mut self, kind: MessageKind) {
        self.sys.meter.bump(kind, 1);
    }

    fn commit_resolution(&mut self, asker: Key, subject: Key, addr: WireAddr) {
        self.grant_and_patch(asker, subject, addr);
    }

    fn apply_update(&mut self, receiver: Key, subject: Key, addr: WireAddr, _seq: u64) {
        self.grant_and_patch(receiver, subject, addr);
    }

    fn apply_register(&mut self, target: Key, who: Key, capacity: u32) {
        self.sys.registry.register(Registrant::new(who, capacity), target);
        self.store(who, WalRecord::Register { target: target.0, capacity });
    }

    fn commit_register(&mut self, who: Key, target: Key) {
        let now = self.sys.clock.now();
        let ttl = self.sys.config().lease_ttl;
        self.sys.leases.grant(who, target, now, ttl);
        self.store(who, WalRecord::LeaseGrant { subject: target.0, expires: now.plus(ttl).0 });
    }

    fn apply_publish(&mut self, holder: Key, subject: Key, addr: WireAddr, seq: u64) {
        let incarnation = self.sys.node_info(subject).map(|i| i.incarnation).unwrap_or(0);
        let record = LocationRecord {
            subject,
            addr: addr.to_net(),
            incarnation,
            seq,
            published_at: self.sys.clock.now(),
            ttl: self.sys.config().location_ttl,
        };
        let _ = self.sys.install_record(holder, record);
    }

    fn publish_fresh(&self, subject: Key) -> bool {
        !self.sys.is_confirmed_dead(subject)
    }
}

/// `(kind, count, cost)` over every message kind, in declaration order.
pub fn tallies(meter: &Meter) -> Vec<(MessageKind, u64, u64)> {
    ALL_KINDS.iter().map(|&k| (k, meter.count(k), meter.cost(k))).collect()
}

/// Fails (with the first differing kind) unless a bench-owned loop left
/// the same tallies as the real driver on the same op list.
pub fn assert_same_tallies(what: &str, ours: &Meter, real: &Meter) -> Result<(), String> {
    for ((k, c1, p1), (_, c2, p2)) in tallies(ours).into_iter().zip(tallies(real)) {
        if (c1, p1) != (c2, p2) {
            return Err(format!(
                "{what}: meter tallies differ from MessagingBristleSystem at {k:?}: \
                 bench loop (count {c1}, cost {p1}) vs real driver (count {c2}, cost {p2})"
            ));
        }
    }
    Ok(())
}
