//! The fake [`NodeEnv`] the machine tests and the socket driver's tests
//! share: a fixed little world held in hash maps, with every commit
//! recorded so a test can assert on it. Hidden from the docs — it is
//! test support, compiled unconditionally only because a crate's
//! `#[cfg(test)]` items are invisible to its dependents' tests.

use std::collections::{HashMap, HashSet};

use bristle_core::auth::{AuthDomain, VerifyPolicy};
use bristle_netsim::graph::RouterId;
use bristle_overlay::key::Key;
use bristle_overlay::meter::{MessageKind, Meter};
use bristle_overlay::obs::ObsEvent;

use crate::machine::NodeEnv;
use crate::wire::WireAddr;

/// A fixed little world for machine and driver tests.
#[derive(Default)]
pub struct MockEnv {
    pub mobile_hops: HashMap<(Key, Key), Key>,
    pub stat_hops: HashMap<(Key, Key), Key>,
    pub mobile: HashSet<Key>,
    pub addrs: HashMap<Key, WireAddr>,
    pub valid: HashSet<(u32, u64)>,
    pub believed: HashMap<(Key, Key), WireAddr>,
    pub records: HashMap<(Key, Key), WireAddr>,
    pub replica_sets: HashMap<Key, Vec<Key>>,
    pub entries: HashMap<Key, Key>,
    pub meter: Meter,
    pub resolutions: Vec<(Key, Key, WireAddr)>,
    pub updates: Vec<(Key, Key, u64)>,
    pub registered: Vec<(Key, Key, u32)>,
    pub committed: Vec<(Key, Key)>,
    /// Every structured event the machines emitted, in order.
    pub events: Vec<ObsEvent>,
    // Auth knobs; the defaults (None / Off / no staleness) are the
    // seed deployment.
    pub domain: Option<AuthDomain>,
    pub vpolicy: VerifyPolicy,
    pub stale_subjects: HashSet<Key>,
    /// Routers [`NodeEnv::routable`] refuses (none by default).
    pub unroutable: HashSet<u32>,
}

impl MockEnv {
    /// Adds `key`, attached as host `host` at router `router` (epoch 0)
    /// and its own stationary entry point.
    pub fn with_node(mut self, key: Key, host: u32, router: u32) -> Self {
        self.addrs.insert(key, WireAddr { host, router, epoch: 0 });
        self.valid.insert((host, 0));
        self.entries.insert(key, key);
        self
    }

    /// Marks `key` as a mobile node.
    pub fn mobile(mut self, key: Key) -> Self {
        self.mobile.insert(key);
        self
    }
}

impl NodeEnv for MockEnv {
    fn next_hop_mobile(&self, cur: Key, target: Key) -> Option<Key> {
        self.mobile_hops.get(&(cur, target)).copied()
    }
    fn next_hop_stationary(&self, cur: Key, target: Key) -> Option<Key> {
        self.stat_hops.get(&(cur, target)).copied()
    }
    fn is_mobile(&self, key: Key) -> bool {
        self.mobile.contains(&key)
    }
    fn entry_stationary(&self, from: Key) -> Key {
        self.entries[&from]
    }
    fn replicas(&self, subject: Key) -> Vec<Key> {
        self.replica_sets.get(&subject).cloned().unwrap_or_default()
    }
    fn current_addr(&self, key: Key) -> WireAddr {
        self.addrs[&key]
    }
    fn addr_current(&self, addr: WireAddr) -> bool {
        self.valid.contains(&(addr.host, addr.epoch))
    }
    fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        self.believed.get(&(holder, subject)).copied()
    }
    fn location_record(&self, holder: Key, subject: Key) -> Option<WireAddr> {
        self.records.get(&(holder, subject)).copied()
    }
    fn distance(&self, a: RouterId, b: RouterId) -> u64 {
        (a.0 as i64 - b.0 as i64).unsigned_abs()
    }
    fn meter(&mut self, kind: MessageKind, cost: u64) {
        self.meter.record(kind, cost);
    }
    fn bump(&mut self, kind: MessageKind) {
        self.meter.bump(kind, 1);
    }
    fn commit_resolution(&mut self, asker: Key, subject: Key, addr: WireAddr) {
        self.resolutions.push((asker, subject, addr));
        self.believed.insert((asker, subject), addr);
    }
    fn apply_update(&mut self, receiver: Key, subject: Key, _addr: WireAddr, seq: u64) {
        self.updates.push((receiver, subject, seq));
    }
    fn apply_register(&mut self, target: Key, who: Key, capacity: u32) {
        self.registered.push((target, who, capacity));
    }
    fn commit_register(&mut self, who: Key, target: Key) {
        self.committed.push((who, target));
    }
    fn emit(&mut self, event: ObsEvent) {
        self.events.push(event);
    }
    fn auth_domain(&self) -> Option<AuthDomain> {
        self.domain
    }
    fn verify_policy(&self) -> VerifyPolicy {
        self.vpolicy
    }
    fn publish_fresh(&self, subject: Key) -> bool {
        !self.stale_subjects.contains(&subject)
    }
    fn routable(&self, addr: WireAddr) -> bool {
        !self.unroutable.contains(&addr.router)
    }
}
