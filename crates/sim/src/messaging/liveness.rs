//! The failure and rejoin driver: what the driver knows against each
//! node ([`Nodes`]), and the crash, burial, restart, heartbeat-round
//! and rejoin steps that change it.

use std::collections::BTreeMap;

use bristle_core::heal::DeathReport;
use bristle_core::restart::RestartReport;
use bristle_proto::failure::Liveness;
use bristle_proto::wire::WireAddr;

use super::*;

/// Driver bookkeeping for a funeral run on a node whose machine was
/// still alive (unreachable, not crashed).
#[derive(Debug)]
pub(super) struct WrongfulBurial {
    /// Micro-time of the funeral.
    at: SimTime,
    /// Watchers that held the death verdict — the nodes whose obituary
    /// the corpse must eventually receive.
    announcers: Vec<Key>,
}

/// Why a node's mail is no longer ordinary.
#[derive(Debug)]
pub(super) enum Fate {
    /// Crashed silently: the machine is gone and mail to it black-holes,
    /// but the *system* bookkeeping still believes in it until a
    /// confirmation heals it. Outlives the funeral, until a restart.
    Crashed,
    /// Buried while its machine was still running — a wrongful funeral
    /// awaiting an incarnation-bumped refutation and rejoin. Gone from
    /// the system's books but still listening where it last lived.
    BuriedAlive(WrongfulBurial),
    /// Left gracefully (or lost its burial without rejoining).
    Departed,
}

/// What the driver holds against a node, beyond what the system's own
/// books say: its fate, and the wire address it last lived at — senders
/// that still believe in it keep addressing it there.
#[derive(Debug)]
pub(super) struct Held {
    last_addr: WireAddr,
    fate: Fate,
    /// Its machine's next frame id when this was held: a later life must
    /// not number its frames below it.
    next_msg_id: u64,
}

/// Whether a node's machine hears and sends frames — the one question
/// about a node the driver answers — given what is held against it and
/// whether the system holds it: a crashed node does neither, a buried
/// one still listens where it last lived.
pub(super) fn listening(held: Option<&Held>, in_system: impl FnOnce() -> bool) -> bool {
    match held {
        Some(Held { fate: Fate::Crashed, .. }) => false,
        Some(Held { fate: Fate::BuriedAlive(_), .. }) => true,
        _ => in_system(),
    }
}

/// The driver's view of one node. Nothing held is the common case — its
/// machine runs, or starts with its first frame — and costs a null.
#[derive(Debug, Default)]
pub(super) struct NodeView {
    held: Option<Box<Held>>,
    /// Deliveries queued for it (maintained only under an ingress cap).
    ingress: usize,
    /// The last wake queued for its machine ([`Output::wake_to_queue`]).
    wake: SimTime,
}

/// The driver's view of every node it has met, indexed by the system's
/// one [`KeyInterner`](bristle_core::arena::KeyInterner): a key the
/// system never held has no view, and a frame to it is dropped on
/// arrival.
#[derive(Debug, Default)]
pub(crate) struct Nodes {
    /// One view per index up to the highest one met, so lookups are
    /// array reads.
    views: Vec<NodeView>,
    /// Bumped whenever what the driver holds against a node, or whether
    /// it runs a machine for it, changes — and when a machine's
    /// monitored set moves by anything but a seeding.
    epoch: u64,
}

impl Nodes {
    /// The view of the node at `idx`, a default one if never met.
    fn view_mut(&mut self, idx: NodeIdx) -> &mut NodeView {
        if idx.index() >= self.views.len() {
            self.views.resize_with(idx.index() + 1, NodeView::default);
        }
        &mut self.views[idx.index()]
    }

    /// The deliveries queued for the node at `idx`.
    pub(super) fn ingress_mut(&mut self, idx: NodeIdx) -> &mut usize {
        &mut self.view_mut(idx).ingress
    }

    /// The last wake queued for the node at `idx`.
    pub(super) fn wake_mut(&mut self, idx: NodeIdx) -> &mut SimTime {
        &mut self.view_mut(idx).wake
    }

    /// What is held against the node at `idx` (nothing, if never met).
    pub(super) fn held_at(&self, idx: Option<NodeIdx>) -> Option<&Held> {
        self.views.get(idx?.index())?.held.as_deref()
    }

    /// A count that never moves back; see the field.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counts a change the driver made outside this type (to `machines`).
    pub(super) fn touch(&mut self) {
        self.epoch += 1;
    }

    /// Records (`Some`) or clears what is held against the node at `idx`.
    fn hold(&mut self, idx: NodeIdx, held: Option<Held>) {
        self.view_mut(idx).held = held.map(Box::new);
        self.epoch += 1;
    }

    /// Lifts the burial of the node at `idx`; it stays departed unless a
    /// rejoin follows.
    fn unbury(&mut self, idx: NodeIdx) -> Option<WrongfulBurial> {
        let held = self.views.get_mut(idx.index())?.held.as_mut()?;
        self.epoch += 1;
        match std::mem::replace(&mut held.fate, Fate::Departed) {
            Fate::BuriedAlive(burial) => Some(burial),
            other => {
                held.fate = other;
                None
            }
        }
    }

    /// Nodes awaiting a funeral reversal, by index.
    fn buried(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        let buried = self.views.iter().enumerate().filter(|(_, view)| {
            matches!(view.held.as_deref(), Some(Held { fate: Fate::BuriedAlive(_), .. }))
        });
        buried.map(|(i, _)| NodeIdx(i as u32))
    }

    /// Last known wire address of the node at `idx`, if it crashed, left
    /// or was buried.
    pub(crate) fn last_addr(&self, idx: Option<NodeIdx>) -> Option<WireAddr> {
        self.held_at(idx).map(|held| held.last_addr)
    }
}

impl MessagingBristleSystem {
    /// Nodes currently awaiting a funeral reversal (sorted).
    pub fn wrongly_buried(&self) -> Vec<Key> {
        let mut keys: Vec<Key> =
            self.nodes.buried().map(|i| self.sys.interner().key_of(i)).collect();
        keys.sort_unstable();
        keys
    }

    /// What the driver holds against `key`'s fate, if anything.
    fn fate(&self, key: Key) -> Option<&Fate> {
        self.nodes.held_at(self.idx(key)).map(|held| &held.fate)
    }

    /// Crashes `key` without notice: its machine vanishes and mail to it
    /// black-holes, but every piece of *system* bookkeeping — ring
    /// membership, registrations, published records, leases — still
    /// believes in it. Only failure detection plus
    /// [`Self::confirm_and_heal`] repairs the damage. The node's current
    /// address is kept so later sends (from nodes that still believe in
    /// it) stay routable; a node the system does not know is left alone.
    pub fn fail_silently(&mut self, key: Key) {
        let (Some(idx), Some(last_addr)) = (self.idx(key), wire_addr_of(&self.sys, key)) else {
            return;
        };
        let next_msg_id = self.next_msg_id(key);
        self.nodes.hold(idx, Some(Held { last_addr, fate: Fate::Crashed, next_msg_id }));
        self.remove_machine(key);
    }

    /// Whether `key` crashed silently. Stays true through the funeral
    /// ([`Self::confirm_and_heal`]), until the node is restarted.
    pub fn is_failed(&self, key: Key) -> bool {
        matches!(self.fate(key), Some(Fate::Crashed))
    }

    /// Graceful departure through the driver: the machine is retired and
    /// the system-level leave protocol runs.
    pub fn leave(&mut self, key: Key) -> Result<(), MessagingError> {
        if let (Some(idx), Some(last_addr)) = (self.idx(key), wire_addr_of(&self.sys, key)) {
            // A crashed node made to leave stays crashed.
            let fate = if self.is_failed(key) { Fate::Crashed } else { Fate::Departed };
            let next_msg_id = self.next_msg_id(key);
            self.nodes.hold(idx, Some(Held { last_addr, fate, next_msg_id }));
        }
        self.remove_machine(key);
        self.sys.leave_node(key).map_err(|_| MessagingError::UnknownNode(key))
    }

    /// Restarts a crashed, buried node from its durable store — distinct
    /// from both [`Self::leave`] (gone for good) and the rejoin path
    /// (which resurrects an *empty* node that re-learns its state from
    /// the overlay). The node must have been confirmed dead
    /// ([`Self::confirm_and_heal`]); the disk its grave kept — a WAL,
    /// re-opened, or the rows its tables held at the verdict — supplies
    /// the recovered shard, and a brand-new machine is started at the
    /// restored incarnation (nothing of the old process survives but
    /// the disk).
    pub fn crash_restart(&mut self, key: Key) -> Result<RestartReport, MessagingError> {
        let report =
            self.sys.restart_node_from_store(key).map_err(|_| MessagingError::UnknownNode(key))?;
        if report.restored {
            self.revive_machine(key, report.incarnation);
        }
        Ok(report)
    }

    /// The id `key`'s machine, or the last one held against it, numbers
    /// its next frame with (0 for a node that never ran one).
    fn next_msg_id(&self, key: Key) -> u64 {
        let held = || self.nodes.held_at(self.idx(key)).map_or(0, |h| h.next_msg_id);
        self.machine_of(key).map_or_else(held, ProtoMachine::next_msg_id)
    }

    /// A restarted process: nothing of the old machine survives, and the
    /// driver stops treating the node as failed, departed or buried.
    fn revive_machine(&mut self, key: Key, incarnation: u64) {
        let Some(idx) = self.idx(key) else { return };
        let earlier = self.next_msg_id(key);
        self.nodes.hold(idx, None);
        self.remove_machine(key);
        if let Some(machine) = self.machine_started(key) {
            machine.restore_incarnation(incarnation);
            // Below the earlier life's ids, the new life's acked frames
            // would be duplicates at every peer still holding that life's
            // floor, for up to two dedup lifetimes.
            debug_assert!(
                machine.next_msg_id() >= earlier,
                "{key}'s new life numbers from {} below its last life's {earlier}",
                machine.next_msg_id()
            );
        }
    }

    /// Restarts a crashed, buried node with a *blank* disk — the
    /// republication baseline for [`Self::crash_restart`]. The disk its
    /// grave kept is discarded and it comes back empty via the rejoin
    /// path, re-learning its state from the overlay (anti-entropy refills
    /// a stationary shard one `Replicate` per record). A fresh machine is
    /// started at the rejoined incarnation, exactly as in a WAL restart.
    pub fn republish_restart(&mut self, key: Key) -> Result<RestartReport, MessagingError> {
        self.sys.discard_disk(key);
        let report = self.sys.rejoin_node(key, 1).map_err(|_| MessagingError::UnknownNode(key))?;
        if report.restored {
            self.revive_machine(key, report.incarnation);
        }
        Ok(report)
    }

    /// Rebuilds every live node's monitored-peer set from the current
    /// registration state, so heartbeat coverage tracks membership:
    ///
    /// * LDT edges watch both ways — a mobile target monitors its
    ///   registrants and each registrant monitors the target (those are
    ///   exactly the nodes whose silence breaks dissemination);
    /// * each stationary node monitors its ring successor (the peer that
    ///   would inherit its records);
    /// * every node is monitored by its mobile-ring predecessor, so no
    ///   crash can go unobserved.
    ///
    /// Silently-failed nodes stay *watched* but never watch.
    ///
    /// Membership rarely changes between two rounds, so the wanted edges
    /// are gathered into one list sorted by `(watcher, peer)` and each
    /// watcher's run of it is compared with the set its machine already
    /// monitors — itself kept sorted. An unchanged watcher costs that
    /// comparison; only a changed one is handed its whole run, in a table
    /// sized to it ([`ProtoMachine::set_monitored`]). And when nothing read
    /// here has changed since the last seeding — the system's
    /// [`BristleSystem::membership_epoch`] and the driver's own count of
    /// fates, machines and monitored sets it changed elsewhere both
    /// stand where they stood — the call returns at once.
    pub fn seed_monitors(&mut self) {
        if self.seeded_at == Some(self.seed_inputs()) {
            return;
        }
        let mut wanted: Vec<(Key, Key)> = Vec::new();
        {
            let sys = &self.sys;
            let live = |k: Key| sys.node_info(k).is_ok() && !self.is_failed(k);
            let mut add = |watcher: Key, peer: Key| {
                if watcher != peer && live(watcher) && sys.node_info(peer).is_ok() {
                    wanted.push((watcher, peer));
                }
            };
            for (t, registrants) in sys.registry.iter() {
                for r in registrants {
                    add(r.key, t);
                    add(t, r.key);
                }
            }
            for &s in sys.stationary_keys() {
                if let Ok(succ) = sys.stationary.successor_of(s.offset(1)) {
                    add(s, succ);
                }
            }
            // Ascending already: the ring's own key order.
            let all: Vec<Key> = sys.mobile.keys().collect();
            let n = all.len();
            for (i, &node) in all.iter().enumerate() {
                add(all[(i + n - 1) % n], node);
            }
        }
        wanted.sort_unstable();
        wanted.dedup();
        let mut changed = Vec::new();
        for peers in wanted.chunk_by(|a, b| a.0 == b.0) {
            let Some(machine) = self.machine_started(peers[0].0) else { continue };
            if machine.detector().monitored().iter().eq(peers.iter().map(|(_, p)| p)) {
                continue;
            }
            changed.clear();
            changed.extend(peers.iter().map(|&(_, p)| p));
            machine.set_monitored(&changed);
        }
        // Read after the loop: starting a watcher's machine counts.
        self.seeded_at = Some(self.seed_inputs());
        self.obs.add(Counter::Reseeds, 1);
    }

    /// Everything [`Self::seed_monitors`] reads, as one count.
    fn seed_inputs(&self) -> u64 {
        self.sys.membership_epoch() + self.nodes.epoch()
    }

    /// Runs one system-wide heartbeat round: re-seeds the monitor sets,
    /// lets every live machine probe its monitored peers, and drains the
    /// resulting acks, retransmissions and timeouts. Returns the peers
    /// newly *confirmed dead* this round (sorted, deduplicated, minus
    /// anything already confirmed) — candidates for
    /// [`Self::confirm_and_heal`]. Suspicion alone is not reported; it
    /// either heals on the next ack or hardens into confirmation. A
    /// verdict on a node the system no longer holds — it left, or its
    /// grave was pruned — is not a new death and is not reported.
    pub fn heartbeat_round(&mut self) -> Vec<Key> {
        self.seed_monitors();
        let watchers = self.machine_keys_sorted();
        for w in watchers {
            self.drive(w, |m, now, env| m.start_heartbeats(now, env));
        }
        self.drain();
        // Refresh the gray-failure view from the round's evidence: any
        // watcher holding a peer degraded is enough to demote it in
        // replica ordering (the union errs toward caution, never toward
        // a funeral).
        self.degraded.clear();
        for (_, machine) in self.machines.iter() {
            self.degraded.extend(machine.detector().degraded());
        }
        self.rejoin_sweep();
        let mut dead = Vec::new();
        // Takes what the drains above left: done before any event.
        self.run_until(|_, c| match c {
            Some(Completion::PeerDead { peer }) => {
                dead.push(peer);
                true
            }
            // A rejoin request the sweep did not take (nobody was
            // buried) reverses nothing.
            Some(Completion::RejoinRequested { .. }) => true,
            Some(_) => false,
            None => true,
        });
        dead.sort_unstable();
        dead.dedup();
        dead.retain(|&k| self.sys.node_info(k).is_ok() && !self.sys.is_confirmed_dead(k));
        dead
    }

    /// Gives every wrongly buried node a chance to learn of its own
    /// funeral and reverse it. Each still-buried node is sent an
    /// obituary (`SuspectNotify` naming itself) by a live watcher that
    /// held the verdict; a node that receives one bumps its incarnation
    /// and answers with an `Alive` refutation, which asks its receiver
    /// to sponsor a rejoin, and the driver has it refute to the same
    /// watcher once more. An accepted rejoin reverses the funeral
    /// (`BristleSystem::rejoin_node`).
    /// Every message travels the faulty transport, so a node still cut
    /// off by a partition simply misses its obituary and is retried on
    /// the next round — rejoin happens only once connectivity is back.
    fn rejoin_sweep(&mut self) {
        // (1) Obituary announcements, one per buried node, from the
        // lowest-keyed surviving believer (deterministic).
        let buried = self.wrongly_buried();
        if buried.is_empty() {
            return;
        }
        // Each carries the incarnation its announcer last heard of the
        // node.
        let mut sponsors: BTreeMap<Key, (Key, u64)> = BTreeMap::new();
        for &f in &buried {
            let Some(announcer) = self.pick_announcer(f) else { continue };
            let heard = self.machine_of(announcer).and_then(|m| m.detector().incarnation_of(f));
            sponsors.insert(f, (announcer, heard.unwrap_or(0)));
            self.drive(announcer, |m, now, env| m.notify_suspect(now, env, f, f));
        }
        self.drain();
        // (2) Nodes whose incarnation is past their obituary's have
        // refuted the verdict: they refute to their announcer again, in
        // case the answer to the obituary was lost. (A node a restart
        // put past it already refutes a stale obituary without bumping.)
        for &f in &buried {
            let Some(&(sponsor, heard)) = sponsors.get(&f) else { continue };
            let refuted = match (self.machine_of(f), self.fate(f)) {
                (Some(m), Some(Fate::BuriedAlive(_))) => m.incarnation() > heard,
                _ => false,
            };
            if !refuted {
                continue;
            }
            self.drive(f, |m, now, env| m.refute(now, env, sponsor));
        }
        // (3) Run the refutations out and reverse the funeral of every
        // accepted rejoin.
        let mut requests: Vec<(Key, u64)> = Vec::new();
        self.run_until(|_, c| match c {
            Some(Completion::RejoinRequested { peer, incarnation }) => {
                requests.push((peer, incarnation));
                true
            }
            _ => false,
        });
        requests.sort_unstable();
        requests.dedup();
        for (peer, incarnation) in requests {
            let Some(idx) = self.idx(peer) else { continue };
            let Some(burial) = self.nodes.unbury(idx) else { continue };
            let Ok(report) = self.sys.rejoin_node(peer, incarnation) else { continue };
            if !report.restored {
                continue;
            }
            self.nodes.hold(idx, None);
            self.obs.record(Hist::Rejoin, self.queue.now().since(burial.at));
        }
    }

    /// The lowest-keyed live watcher that held `buried`'s death verdict,
    /// falling back to the lowest-keyed live machine when none of the
    /// original believers survive.
    fn pick_announcer(&self, buried: Key) -> Option<Key> {
        let live = |k: &Key| {
            *k != buried
                && self.sys.node_info(*k).is_ok()
                && matches!(self.fate(*k), None | Some(Fate::Departed))
                && self.has_machine(*k)
        };
        if let Some(Fate::BuriedAlive(burial)) = self.fate(buried) {
            if let Some(&a) = burial.announcers.iter().find(|k| live(k)) {
                return Some(a);
            }
        }
        self.machine_keys_sorted().into_iter().find(|k| live(k))
    }

    /// Acts on a confirmed death: spreads the verdict to watchers that
    /// have not yet condemned `key` themselves (`SuspectNotify`), retires
    /// the corpse at the driver level, and runs the system-wide funeral
    /// ([`BristleSystem::confirm_dead`]) — LDT re-grafting, registration
    /// and lease pruning, record withdrawal.
    pub fn confirm_and_heal(&mut self, key: Key) -> Result<DeathReport, MessagingError> {
        if self.sys.node_info(key).is_err() && !self.sys.is_confirmed_dead(key) {
            return Err(MessagingError::UnknownNode(key));
        }
        // A funeral for a node whose machine is still running is
        // *wrongful* — the node is unreachable (partitioned), not
        // crashed. Its machine stays alive so it can eventually receive
        // its obituary and refute the verdict; the driver remembers the
        // burial so [`Self::rejoin_sweep`] can reverse it.
        // It keeps listening where the system attached it.
        let buried_at =
            wire_addr_of(&self.sys, key).filter(|_| !self.is_failed(key) && self.has_machine(key));
        if buried_at.is_none() {
            self.fail_silently(key);
        }
        let mut believers = Vec::new();
        let mut unconvinced = Vec::new();
        for (i, m) in self.machines.iter() {
            let w = self.sys.interner().key_of(i);
            match m.detector().liveness(key) {
                Some(Liveness::Dead) => believers.push(w),
                Some(_) => unconvinced.push(w),
                None => {}
            }
        }
        believers.sort_unstable();
        unconvinced.sort_unstable();
        let herald = believers.first().copied();
        if let Some(herald) = herald {
            for &peer in &unconvinced {
                self.drive(herald, |m, now, env| m.notify_suspect(now, env, peer, key));
            }
        }
        // Runs the notifications out, if any went (else no event), and
        // takes every report of this death: the echoes are not news.
        let echo = |c: Completion| matches!(c, Completion::PeerDead { peer } if peer == key);
        self.run_until(|_, c| c.map_or(herald.is_none(), echo));
        if let (Some(idx), Some(last_addr)) = (self.idx(key), buried_at) {
            let burial = WrongfulBurial { at: self.queue.now(), announcers: believers };
            let (fate, next_msg_id) = (Fate::BuriedAlive(burial), self.next_msg_id(key));
            self.nodes.hold(idx, Some(Held { last_addr, fate, next_msg_id }));
        }
        let report = self.sys.confirm_dead(key).map_err(|_| MessagingError::UnknownNode(key))?;
        // Detection runs from the earliest suspicion still standing in a
        // running watcher's detector (one an ack or a refutation healed,
        // or hearsay, started none), and spends them all: a watcher may
        // hold `key` dead into a later life it never hears from.
        let spent = self.machines.iter_mut().filter_map(|(_, m)| m.spend_suspicion(key));
        if let Some(at) = spent.min() {
            self.obs.record(Hist::Detection, self.queue.now().0.saturating_sub(at.0));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::super::testkit::*;
    use super::super::SystemEnv;
    use super::*;
    use bristle_core::naming::Mobility;
    use bristle_core::registry::Registrant;
    use bristle_proto::machine::NodeEnv;
    use bristle_proto::transport::{FaultConfig, LinkFilter};
    use bristle_proto::wire::{Envelope, WireMessage};

    /// The monitor sets [`MessagingBristleSystem::seed_monitors`] used to
    /// build every round — a set of peers per watcher, from its own walk
    /// of the registration state — kept as the reference the diffed
    /// seeding is checked against.
    fn wanted_oracle(msys: &MessagingBristleSystem) -> BTreeMap<Key, BTreeSet<Key>> {
        let mut wanted: BTreeMap<Key, BTreeSet<Key>> = BTreeMap::new();
        let sys = &msys.sys;
        let live = |k: Key| sys.node_info(k).is_ok() && !msys.is_failed(k);
        let mut add = |watcher: Key, peer: Key| {
            if watcher != peer && live(watcher) && sys.node_info(peer).is_ok() {
                wanted.entry(watcher).or_default().insert(peer);
            }
        };
        let mut targets: Vec<Key> = sys.registry.iter().map(|(t, _)| t).collect();
        targets.sort_unstable();
        for t in targets {
            for r in sys.registry.registrants_of(t) {
                add(r.key, t);
                add(t, r.key);
            }
        }
        for &s in sys.stationary_keys() {
            if let Ok(set) = sys.stationary.replica_set(s, 2) {
                if let Some(&succ) = set.get(1) {
                    add(s, succ);
                }
            }
        }
        let mut all: Vec<Key> = sys.mobile.keys().collect();
        all.sort_unstable();
        let n = all.len();
        for (i, &node) in all.iter().enumerate() {
            add(all[(i + n - 1) % n], node);
        }
        wanted
    }

    /// The oracle's sets in [`monitored_sets`]' shape.
    fn wanted_sets(msys: &MessagingBristleSystem) -> BTreeMap<Key, Vec<Key>> {
        wanted_oracle(msys).into_iter().map(|(w, set)| (w, set.into_iter().collect())).collect()
    }

    fn monitored_sets(msys: &MessagingBristleSystem) -> BTreeMap<Key, Vec<Key>> {
        let key_of = |i| msys.sys.interner().key_of(i);
        msys.machines.iter().map(|(i, m)| (key_of(i), m.detector().monitored().to_vec())).collect()
    }

    /// Seeds — gated, as every caller does — and checks every machine
    /// against the oracle: a watcher the rules name monitors exactly its
    /// wanted peers, one they do not name keeps what it had, and every
    /// set is ascending. Then a seeding with the gate forced open must
    /// find the sets already where it would put them, and a plain second
    /// one must not run at all.
    fn reseed_and_check(msys: &mut MessagingBristleSystem, after: &str) {
        let before = monitored_sets(msys);
        msys.seed_monitors();
        let oracle = wanted_sets(msys);
        let now = monitored_sets(msys);
        assert!(!oracle.is_empty());
        for (watcher, peers) in &oracle {
            assert_eq!(now.get(watcher), Some(peers), "after {after}: watcher {watcher}");
        }
        for (key, set) in &now {
            assert!(set.windows(2).all(|w| w[0] < w[1]), "after {after}: {key} unsorted");
            if !oracle.contains_key(key) {
                assert_eq!(before.get(key), Some(set), "after {after}: bystander {key} edited");
            }
        }
        msys.seeded_at = None;
        msys.seed_monitors();
        assert_eq!(monitored_sets(msys), now, "after {after}: the gate hid a stale set");
        let seeded = reseeds(msys);
        msys.seed_monitors();
        assert_eq!(reseeds(msys), seeded, "after {after}: nothing moved, yet it reseeded");
        assert_eq!(monitored_sets(msys), now, "after {after}: seeding is not idempotent");
    }

    /// Seedings so far that rebuilt the wanted edges, read from the
    /// registry.
    fn reseeds(msys: &MessagingBristleSystem) -> u64 {
        msys.registry().counter(Counter::Reseeds)
    }

    /// Rounds until `victim` is reported dead.
    fn detect(msys: &mut MessagingBristleSystem, victim: Key, seed: u64) {
        let mut confirmed = false;
        for _ in 0..8 {
            if msys.heartbeat_round().contains(&victim) {
                confirmed = true;
                break;
            }
            msys.sys.tick(1);
        }
        assert!(confirmed, "seed {seed}: the crash of {victim} was never detected");
    }

    fn seeding_matches_oracle_through_churn(seed: u64) {
        let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::lossy(0.02), seed);
        let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
        let stationary: Vec<Key> = msys.sys.stationary_keys().to_vec();
        reseed_and_check(&mut msys, "build");

        msys.sys.move_node(mobiles[1], None).expect("mover is live");
        reseed_and_check(&mut msys, "move");

        for class in [Mobility::Mobile, Mobility::Stationary] {
            let joined = msys.sys.join_node(class).expect("join completes").key;
            reseed_and_check(&mut msys, "join");
            assert!(!monitored_sets(&msys)[&joined].is_empty(), "the newcomer watches");
        }

        let victim = mobiles[3];
        msys.fail_silently(victim);
        reseed_and_check(&mut msys, "fail_silently");
        assert!(!msys.has_machine(victim), "a failed node never watches");
        assert!(
            monitored_sets(&msys).values().any(|set| set.contains(&victim)),
            "a failed node stays watched"
        );

        msys.leave(stationary[5]).expect("leaver is known");
        reseed_and_check(&mut msys, "leave");
        assert!(monitored_sets(&msys).values().all(|set| !set.contains(&stationary[5])));

        msys.register(stationary[0], mobiles[1]).expect("registration completes");
        msys.register(mobiles[2], mobiles[1]).expect("registration completes");
        reseed_and_check(&mut msys, "register");
        let set = monitored_sets(&msys);
        assert!(
            set[&mobiles[1]].contains(&stationary[0]) && set[&stationary[0]].contains(&mobiles[1])
        );

        // A write that goes round the driver and `repo` both: the table
        // counts it itself.
        let target = mobiles[2];
        let registered = |msys: &MessagingBristleSystem, who| {
            msys.sys.registry.registrants_of(target).any(|r| r.key == who)
        };
        let stranger = *stationary
            .iter()
            .find(|&&s| msys.sys.node_info(s).is_ok() && !registered(&msys, s))
            .expect("someone has not registered");
        assert!(msys.sys.registry.register(Registrant::new(stranger, 1), target));
        reseed_and_check(&mut msys, "direct registry write");
        assert!(monitored_sets(&msys)[&target].contains(&stranger));
        assert!(msys.sys.registry.deregister(stranger, target));
        reseed_and_check(&mut msys, "direct registry removal");
        assert!(!monitored_sets(&msys)[&target].contains(&stranger));

        detect(&mut msys, victim, seed);
        msys.confirm_and_heal(victim).expect("victim is known");
        reseed_and_check(&mut msys, "confirm_and_heal");
        assert!(monitored_sets(&msys).values().all(|set| !set.contains(&victim)));

        let report = msys.crash_restart(victim).expect("victim restarts");
        assert!(report.restored);
        reseed_and_check(&mut msys, "crash_restart");
        assert!(!monitored_sets(&msys)[&victim].is_empty(), "the restarted node watches again");

        // A wrongful funeral, and its reversal by the rejoin sweep.
        let cut_off = mobiles[5];
        let home = wire_addr_of(&msys.sys, cut_off).expect("live").router_id();
        msys.partition_now(LinkFilter::default().isolate(home));
        msys.confirm_and_heal(cut_off).expect("known");
        assert_eq!(msys.wrongly_buried(), vec![cut_off]);
        reseed_and_check(&mut msys, "wrongful confirm_and_heal");
        assert!(monitored_sets(&msys)
            .iter()
            .all(|(&w, set)| w == cut_off || !set.contains(&cut_off)));
        msys.heal_now();
        msys.heartbeat_round();
        assert!(msys.wrongly_buried().is_empty() && msys.sys.node_info(cut_off).is_ok());
        reseed_and_check(&mut msys, "rejoin_sweep");
        assert!(monitored_sets(&msys).values().any(|set| set.contains(&cut_off)));
        msys.settle();

        let blank = mobiles[7];
        msys.fail_silently(blank);
        msys.confirm_and_heal(blank).expect("known");
        reseed_and_check(&mut msys, "funeral before republish_restart");
        assert!(msys.republish_restart(blank).expect("rejoins").restored);
        reseed_and_check(&mut msys, "republish_restart");
        assert!(!monitored_sets(&msys)[&blank].is_empty());

        // A verdict heard from a third party starts monitoring its
        // subject; the next seeding must see that set has moved.
        let (hearer, subject) = (stationary[2], mobiles[9]);
        assert!(!monitored_sets(&msys)[&hearer].contains(&subject));
        let to_addr = wire_addr_of(&msys.sys, hearer).expect("live");
        let verdict = Envelope {
            src: stationary[3],
            dst: hearer,
            msg_id: u64::MAX,
            trace_id: 0,
            msg: WireMessage::SuspectNotify { suspect: subject, incarnation: 0 },
            auth: None,
        };
        msys.partition_now(LinkFilter::default());
        msys.inject_frame(to_addr.router_id(), to_addr, verdict);
        msys.settle_injected();
        assert!(monitored_sets(&msys)[&hearer].contains(&subject), "seed {seed}: hearsay lands");
        reseed_and_check(&mut msys, "third-party verdict");
        assert!(!monitored_sets(&msys)[&hearer].contains(&subject));
    }

    #[test]
    fn seeding_matches_oracle_through_churn_seed_a() {
        seeding_matches_oracle_through_churn(8);
    }

    #[test]
    fn seeding_matches_oracle_through_churn_seed_b() {
        seeding_matches_oracle_through_churn(27);
    }

    /// The gate itself: what is not membership does not open it, a quiet
    /// run of rounds seeds once, and the second of two seedings starts
    /// no machine and edits no set.
    #[test]
    fn reseed_happens_only_when_an_input_moved() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
            assert_eq!(reseeds(&msys), 0);
            msys.seed_monitors();
            assert_eq!(reseeds(&msys), 1, "seed {seed}: the first seeding always runs");
            let (sets, machines) = (monitored_sets(&msys), msys.machines.iter().count());
            msys.seed_monitors();
            assert_eq!(reseeds(&msys), 1, "seed {seed}: nothing changed");
            assert_eq!((monitored_sets(&msys), msys.machines.iter().count()), (sets, machines));

            // Moves, routes and rounds on a quiet network are not membership.
            let epoch = msys.sys.membership_epoch();
            msys.sys.move_node(mobiles[1], None).expect("mover is live");
            let pairs: Vec<(Key, Key)> = mobiles.windows(2).map(|w| (w[0], w[1])).collect();
            assert!(msys.route_burst(&pairs).iter().all(Result::is_ok), "seed {seed}");
            msys.settle();
            for _ in 0..5 {
                assert!(msys.heartbeat_round().is_empty());
                msys.settle();
                msys.sys.tick(1);
            }
            assert_eq!(msys.sys.membership_epoch(), epoch, "seed {seed}: membership stood still");
            assert_eq!(reseeds(&msys), 1, "seed {seed}: five rounds, no reseeding");
            assert_eq!(monitored_sets(&msys), wanted_sets(&msys), "seed {seed}: and none was owed");

            // Each owner counts its own changes.
            let joined = msys.sys.join_node(Mobility::Mobile).expect("join completes").key;
            assert!(msys.sys.membership_epoch() > epoch);
            msys.heartbeat_round();
            assert_eq!(reseeds(&msys), 2, "seed {seed}: a join reseeds");
            msys.fail_silently(joined);
            msys.heartbeat_round();
            assert_eq!(reseeds(&msys), 3, "seed {seed}: so does a crash the system missed");
        }
    }

    /// Detection is timed from the suspicion that became the verdict. A
    /// peer cut off for two rounds is suspected, and the next round's
    /// acks heal it. Rounds later it crashes, and one of the watchers
    /// that suspected it before hears the death from a third party at
    /// once: that watcher raises no `Suspect` of its own this time. The
    /// others detect the crash. Neither the healed suspicion nor the
    /// hearsay starts the clock, so the latency recorded is at most the
    /// time from the crash to the verdict.
    #[test]
    fn detection_latency_counts_from_the_suspicion_that_became_the_verdict() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            msys.seed_monitors();
            let watchers = |msys: &MessagingBristleSystem, peer: Key| -> Vec<Key> {
                let watching =
                    msys.machines.iter().filter(|(_, m)| m.detector().liveness(peer).is_some());
                watching.map(|(i, _)| msys.sys.interner().key_of(i)).collect()
            };
            let victim = *msys
                .sys
                .mobile_keys()
                .iter()
                .max_by_key(|&&k| (watchers(&msys, k).len(), k))
                .expect("mobile nodes exist");
            let suspecting = |msys: &MessagingBristleSystem| -> Vec<Key> {
                let suspects =
                    |&w: &Key| msys.machine_of(w).and_then(|m| m.detector().suspected_at(victim));
                watchers(msys, victim).into_iter().filter(|w| suspects(w).is_some()).collect()
            };

            // Suspected under loss: cut off for two rounds.
            let home = wire_addr_of(&msys.sys, victim).expect("live").router_id();
            msys.partition_now(LinkFilter::default().isolate(home));
            for _ in 0..2 {
                assert!(
                    msys.heartbeat_round().is_empty(),
                    "seed {seed}: two misses condemn nobody"
                );
                msys.sys.tick(1);
            }
            let suspected = suspecting(&msys);
            assert!(suspected.len() >= 2, "seed {seed}: {suspected:?}");
            // Healed by the next round's acks, then quiet for a while.
            msys.heal_now();
            for _ in 0..4 {
                msys.heartbeat_round();
                msys.sys.tick(1);
            }
            assert!(suspecting(&msys).is_empty(), "seed {seed}: every suspicion healed");
            let live = |msys: &MessagingBristleSystem, w| {
                msys.machine_of(w).and_then(|m| m.detector().liveness(victim))
            };
            assert!(suspected.iter().all(|&w| live(&msys, w) == Some(Liveness::Fresh)));

            // The crash, and hearsay at one earlier suspect.
            let crashed_at = msys.micro_now();
            msys.fail_silently(victim);
            let (hearer, herald) = (suspected[0], suspected[1]);
            let to_addr = wire_addr_of(&msys.sys, hearer).expect("live");
            let verdict = Envelope {
                src: herald,
                dst: hearer,
                msg_id: u64::MAX,
                trace_id: 0,
                msg: WireMessage::SuspectNotify { suspect: victim, incarnation: 0 },
                auth: None,
            };
            msys.inject_frame(to_addr.router_id(), to_addr, verdict);
            msys.settle_injected();
            assert_eq!(live(&msys, hearer), Some(Liveness::Dead), "seed {seed}: hearsay lands");
            assert_eq!(
                msys.machine_of(hearer).expect("running").detector().suspected_at(victim),
                None
            );

            // The others miss three rounds: suspect after two, dead after three.
            for _ in 0..3 {
                msys.heartbeat_round();
                msys.sys.tick(1);
            }
            assert!(suspecting(&msys).contains(&herald), "seed {seed}: detected first-hand");
            msys.confirm_and_heal(victim).expect("victim is known");
            let verdict_after = msys.micro_now().since(crashed_at);
            let registry = msys.registry();
            let detection = registry.histogram(Hist::Detection);
            assert_eq!(detection.count(), 1, "seed {seed}");
            assert!(
                detection.max() <= verdict_after,
                "seed {seed}: detection took {} ticks, crash to verdict {verdict_after}",
                detection.max()
            );
        }
    }

    /// A verdict spends every suspicion it was timed from. Its watchers
    /// hold the victim dead into the life a restart gives it until they
    /// hear from that life. When that life's crash is buried before any
    /// of them suspects it again, no suspicion of that life stands, so
    /// the verdict is not timed — from the first life's least of all.
    #[test]
    fn a_verdict_spends_every_suspicion_it_was_timed_from() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let victim = msys.sys.mobile_keys()[3];
            msys.seed_monitors();
            msys.fail_silently(victim);
            detect(&mut msys, victim, seed);
            msys.confirm_and_heal(victim).expect("victim is known");
            assert!(msys.crash_restart(victim).expect("victim restarts").restored);
            let dead = |m: &ProtoMachine| m.detector().liveness(victim) == Some(Liveness::Dead);
            assert!(msys.machines.iter().any(|(_, m)| dead(m)), "seed {seed}: held dead");

            msys.fail_silently(victim);
            msys.confirm_and_heal(victim).expect("victim is known");
            let detection = msys.registry().histogram(Hist::Detection).count();
            assert_eq!(detection, 1, "seed {seed}: only the first life's verdict is timed");
        }
    }

    /// A restarted process numbers its frames from `incarnation << 32`,
    /// above every id of its previous life; they are new frames, not
    /// retransmissions of that life's.
    #[test]
    fn restarted_node_first_route_meters_no_spurious_retry() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
            let (victim, target) = (mobiles[0], mobiles[1]);
            // First life: the victim's frames 0.. are processed and held in
            // the receivers' dedup windows.
            msys.route(victim, target).expect("clean route");
            msys.settle();
            msys.seed_monitors();
            msys.fail_silently(victim);
            detect(&mut msys, victim, seed);
            msys.confirm_and_heal(victim).expect("victim is known");
            assert!(msys.crash_restart(victim).expect("victim restarts").restored);
            msys.settle();
            let before = msys.sys.meter.count(MessageKind::SpuriousRetry);
            msys.route(victim, target).expect("clean route after restart");
            msys.settle();
            assert_eq!(
                msys.sys.meter.count(MessageKind::SpuriousRetry) - before,
                0,
                "seed {seed}: a perfect transport retransmits nothing"
            );
        }
    }

    /// A neighbour's dedup window still holds the previous life's
    /// sightings, and its floor, when a node restarts inside one dedup
    /// lifetime. The new life's hops must not be mistaken for them: acked
    /// as duplicates and never forwarded, the route would stall with the
    /// sender holding its ack. A neighbour that heard the first life's
    /// hops holds a floor above that life's first id, and a life numbered
    /// below it would be silenced at that neighbour for two lifetimes,
    /// whether the node restarts off its disk or republishes.
    #[test]
    fn restarted_node_routes_through_a_neighbour_that_saw_its_previous_life() {
        for seed in [8u64, 27] {
            for crash in [true, false] {
                let ctx = format!("seed {seed}, crash_restart {crash}");
                let mut msys =
                    MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
                let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
                let victim = mobiles[0];
                let born = msys.micro_now();
                // First life: every target's first hop leaves under a low id.
                for &target in &mobiles[1..] {
                    msys.route(victim, target).expect("clean route");
                }
                msys.settle();
                let floors = msys.machines.iter().map(|(_, m)| m.floor_of(victim));
                let high = floors.max().unwrap_or(0);
                assert!(high > 0, "{ctx}: a neighbour holds the first life's floor");
                msys.fail_silently(victim);
                msys.confirm_and_heal(victim).expect("victim is known");
                let report =
                    if crash { msys.crash_restart(victim) } else { msys.republish_restart(victim) };
                assert!(report.expect("victim restarts").restored, "{ctx}");
                let next = msys.machine_of(victim).map(ProtoMachine::next_msg_id);
                assert!(next > Some(high), "{ctx}: the new life numbers above {high}");
                for &target in &mobiles[1..] {
                    let done = msys.route(victim, target);
                    assert!(done.is_ok(), "{ctx}: route to {target} after restart: {done:?}");
                }
                let within = msys.micro_now().since(born) < DEDUP_LIFETIME;
                assert!(within, "{ctx}: all inside one dedup lifetime");
            }
        }
    }

    /// What the driver says of `key`: `is_failed`, whether it awaits a
    /// funeral reversal, whether a machine runs for it, and where a
    /// sender that still believes in it addresses its mail.
    fn view_of(msys: &mut MessagingBristleSystem, key: Key) -> (bool, bool, bool, WireAddr) {
        let buried = msys.wrongly_buried().contains(&key);
        let MessagingBristleSystem { sys, nodes, obs, flight, auth, degraded, .. } = msys;
        let env = SystemEnv { sys, nodes, obs, flight, auth: *auth, degraded };
        let addr = env.current_addr(key);
        (msys.is_failed(key), buried, msys.has_machine(key), addr)
    }

    /// The per-node record through every legal life, one step at a
    /// time. Once the system forgets a node, `current_addr` falls back
    /// to the attachment the driver last saw it at (`home`).
    #[test]
    fn node_view_follows_every_legal_life() {
        for seed in [8u64, 27] {
            let mut msys = MessagingBristleSystem::new(build(seed), FaultConfig::perfect(), seed);
            let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
            let stationary: Vec<Key> = msys.sys.stationary_keys().to_vec();
            msys.seed_monitors();
            let home = |msys: &MessagingBristleSystem, k| wire_addr_of(&msys.sys, k).expect("live");
            let (up, down, buried) = (false, true, true);

            // run -> fail_silently -> confirm_and_heal -> crash_restart
            let v = mobiles[3];
            let v_home = home(&msys, v);
            assert_eq!(view_of(&mut msys, v), (up, !buried, true, v_home), "seed {seed}: running");
            msys.fail_silently(v);
            assert_eq!(
                view_of(&mut msys, v),
                (down, !buried, false, v_home),
                "seed {seed}: crashed"
            );
            msys.confirm_and_heal(v).expect("known");
            assert!(msys.sys.node_info(v).is_err(), "seed {seed}: the funeral forgets the node");
            assert_eq!(
                view_of(&mut msys, v),
                (down, !buried, false, v_home),
                "seed {seed}: a buried crash stays failed, addressed where it last lived"
            );
            assert!(msys.crash_restart(v).expect("restarts").restored);
            let v_now = home(&msys, v);
            assert_eq!(view_of(&mut msys, v), (up, !buried, true, v_now), "seed {seed}: restarted");
            assert_eq!(
                msys.nodes.last_addr(msys.idx(v)),
                None,
                "seed {seed}: nothing held against it"
            );

            // run -> partition -> wrongful confirm_and_heal -> rejoin_sweep
            let w = mobiles[5];
            let w_home = home(&msys, w);
            msys.partition_now(LinkFilter::default().isolate(w_home.router_id()));
            msys.confirm_and_heal(w).expect("known");
            assert!(msys.sys.node_info(w).is_err());
            assert_eq!(
                view_of(&mut msys, w),
                (up, buried, true, w_home),
                "seed {seed}: buried alive"
            );
            assert_eq!(msys.wrongly_buried(), vec![w]);
            msys.heartbeat_round();
            assert_eq!(
                view_of(&mut msys, w),
                (up, buried, true, w_home),
                "seed {seed}: still cut off"
            );
            msys.heal_now();
            msys.heartbeat_round();
            let w_now = home(&msys, w);
            assert_eq!(view_of(&mut msys, w), (up, !buried, true, w_now), "seed {seed}: rejoined");
            assert_eq!(msys.nodes.last_addr(msys.idx(w)), None);
            assert_eq!(msys.registry().histogram(Hist::Rejoin).count(), 1, "seed {seed}");
            msys.settle();

            // run -> leave
            let s = stationary[5];
            let s_home = home(&msys, s);
            msys.leave(s).expect("known");
            assert_eq!(
                view_of(&mut msys, s),
                (up, !buried, false, s_home),
                "seed {seed}: departed"
            );
            assert_eq!(msys.leave(s), Err(MessagingError::UnknownNode(s)));
            assert_eq!(
                view_of(&mut msys, s),
                (up, !buried, false, s_home),
                "seed {seed}: stays so"
            );

            // run -> fail_silently -> confirm_and_heal -> republish_restart
            let r = mobiles[7];
            let r_home = home(&msys, r);
            msys.fail_silently(r);
            msys.confirm_and_heal(r).expect("known");
            assert_eq!(view_of(&mut msys, r), (down, !buried, false, r_home));
            assert!(msys.republish_restart(r).expect("rejoins").restored);
            let r_now = home(&msys, r);
            assert_eq!(
                view_of(&mut msys, r),
                (up, !buried, true, r_now),
                "seed {seed}: republished"
            );
            assert_eq!(msys.nodes.last_addr(msys.idx(r)), None);

            // A node the driver never met has nothing held against it.
            let stranger = Key(0xDEAD_0000_0000_0001);
            assert_eq!(view_of(&mut msys, stranger).0, up);
            msys.fail_silently(stranger);
            assert!(!msys.is_failed(stranger), "seed {seed}: only known nodes crash");
        }
    }
}
