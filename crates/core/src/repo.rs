//! A node's repository, written once (paper §2.3).
//!
//! Every node keeps registrations R(·) (§2.3.1) and leased
//! `<key, addr>` state-pairs (§2.3.2), and a stationary node a shard of
//! location records, in the live tables (`registry`, `leases`,
//! `stationary.node(k).store`). A live node that has a WAL
//! ([`crate::durable`]) also holds them as a [`WalRecord`] fold in its
//! [`crate::durable::StoreHub`] backend (registrations only where they
//! are explicit: [`crate::durable`]). This
//! module is the only code that changes either, and it changes both in
//! one call, so `assert_stores_mirror_tables` (in [`crate::durable`])
//! holds after every operation. DESIGN §8 "The write path" tabulates
//! operation → tables → record.
//!
//! Metering stays with the callers, registrations aside: a sync meters
//! every edge, the registration pass only the new ones. Mirrors never
//! touch the meter, the RNG or the clock.

use std::collections::BTreeSet;

use bristle_overlay::addr::{NetAddr, RowAddr};
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::ring::Slot;

use crate::arena::NodeIdx;
use crate::durable::{record_put, WalRecord};
use crate::error::Result;
use crate::location::LocationRecord;
use crate::naming::Mobility;
use crate::registry::{Edge, Edges, Registrant};
use crate::system::{BristleSystem, NodeInfo};

impl BristleSystem {
    /// Makes `info` the live identity of `key` (admission, or a
    /// resurrection at a fresher incarnation).
    pub(crate) fn set_identity(&mut self, key: Key, info: NodeInfo) {
        let idx = self.idx(key);
        self.info.insert(idx, info);
        self.identity_epoch += 1;
        self.stores.apply(key, WalRecord::Identity { key: key.0, incarnation: info.incarnation });
    }

    /// Grants (or renews) `holder`'s lease on `subject`'s address for
    /// `lease_ttl` from now.
    pub fn grant_lease(&mut self, holder: Key, subject: Key) {
        let (now, ttl) = (self.clock.now(), self.config().lease_ttl);
        self.leases.grant(holder, subject, now, ttl);
        self.stores
            .apply(holder, WalRecord::LeaseGrant { subject: subject.0, expires: now.plus(ttl).0 });
    }

    /// A lease in the table only, for a restart resuming a contract its
    /// store already holds (at the persisted expiry, hence `ttl`).
    pub(crate) fn lease_unmirrored(&mut self, holder: Key, subject: Key, ttl: u64) {
        self.leases.grant(holder, subject, self.clock.now(), ttl);
    }

    /// Patches `holder`'s cached state-pair for `subject`, if it has one.
    pub(crate) fn cache_addr(&mut self, holder: Key, subject: Key, addr: NetAddr) {
        if let Ok(holder) = self.mobile.slot_of(holder) {
            self.cache_addr_at(holder, subject, addr);
        }
    }

    /// [`Self::cache_addr`] for a holder already resolved to its
    /// mobile-layer slab position.
    pub(crate) fn cache_addr_at(&mut self, holder: Slot, subject: Key, addr: NetAddr) {
        if let Some(pair) = self.mobile.at_mut(holder).entry_mut(subject) {
            pair.addr = Some(addr);
        }
    }

    /// Whether `addr` points at a router the topology has. An address
    /// is learned from an unauthenticated frame, and once it is in a row
    /// or a shard a route prices the way to its router (the
    /// stale-belief branch of Fig. 2) by indexing the distance oracle
    /// with it — so one that names no router is refused here, where it
    /// would be learned, metered once as a malformed frame. Addresses
    /// the system mints never take the branch.
    fn admits(&mut self, addr: NetAddr) -> bool {
        let known = self.has_router(addr.router());
        if !known {
            self.meter.bump(MessageKind::MalformedFrame, 1);
        }
        known
    }

    /// `holder` learns `subject`'s address from an `update`, a
    /// `_discovery` reply or a registration: a fresh lease, and the
    /// cached state-pair patched. An address naming a router the
    /// topology does not have teaches nothing (`admits`).
    pub fn learn_addr(&mut self, holder: Key, subject: Key, addr: NetAddr) {
        if !self.admits(addr) {
            return;
        }
        self.grant_lease(holder, subject);
        self.cache_addr(holder, subject, addr);
    }

    /// Drops every expired lease; returns how many were purged.
    pub(crate) fn purge_leases(&mut self) -> usize {
        let purged = self.leases.purge_expired_pairs(self.clock.now());
        for &(holder, subject) in &purged {
            self.stores.apply(holder, WalRecord::LeaseRevoke { subject: subject.0 });
        }
        purged.len()
    }

    /// Adds `who` (reporting `capacity`) to R(`target`) as an explicit
    /// interest, which stands whether or not `who`'s rows name `target`;
    /// a repeat updates the capacity. A store logs explicit registrations
    /// only; a row-derived edge is re-derived from the rows. Returns
    /// whether the edge is new.
    pub fn add_registrant(&mut self, who: Key, capacity: u32, target: Key) -> bool {
        self.interests.insert((who, target));
        // No-op re-registrations are not logged (backends skip them).
        self.stores.apply(who, WalRecord::Register { target: target.0, capacity });
        self.registry.register(Registrant::new(who, capacity), target)
    }

    /// Rebuilds the registration state from the mobile layer's reverse
    /// routing pointers: every holder of a *mobile* node's state-pair
    /// registers to that node with its capacity (§2.3.1 — "X can register
    /// itself to those mobile nodes only"), and then to its live explicit
    /// interests. Each R(·) lists its row holders in ring order; a
    /// holder's index is resolved once, a target's once an edge, and only
    /// rows with a learned entry are read: a row has one exactly when its
    /// peer can move. The row-derived edges are gathered first, so each
    /// list is allocated once (`Registry::register_all`). A store logs
    /// no row-derived edge.
    pub fn sync_registrations(&mut self) {
        let old = self.registry.take();
        let (info, keys) = (&self.info, &mut self.registry.keys);
        let mobile = |t: &NodeIdx| info.get(*t).is_some_and(|i| i.mobility == Mobility::Mobile);
        let mut edges = Vec::with_capacity(self.mobile.learned_entries().0);
        for holder in self.mobile.iter() {
            let edge = Edge { holder: keys.intern(holder.key), capacity: holder.capacity };
            let rows = holder.keys().iter().zip(holder.addrs());
            for (&subject, _) in rows.filter(|(_, row)| row.entry().is_some()) {
                let Some(t) = keys.get(subject).filter(mobile) else { continue };
                edges.push((t, edge));
            }
        }
        self.meter.bump(MessageKind::Register, edges.len() as u64);
        self.registry.register_all(&edges);
        self.settle_registrations(old);
    }

    /// The rest of a sync once the rows' edges are in: the explicit
    /// interests, and a `Deregister` to each store whose edge the rebuild
    /// dropped from `old`.
    fn settle_registrations(&mut self, old: Edges) {
        let explicit: Vec<Key> = self.interests.iter().map(|&(holder, _)| holder).collect();
        self.reregister(&explicit);
        self.registry.shrink_to_fit();
        // Edges the rebuild dropped (none on the initial build).
        for (t, regs) in old.iter() {
            let (kept, target) = (self.registry.edges.list(t), self.interner().key_of(t).0);
            for gone in regs.iter().filter(|r| !kept.iter().any(|k| k.holder == r.holder)) {
                let holder = self.interner().key_of(gone.holder);
                self.stores.apply(holder, WalRecord::Deregister { target });
            }
        }
    }

    /// [`Self::sync_registrations`]' rule for `holders` only, the pass
    /// every rewrite of mobile rows ends with: each listed holder still in
    /// the mobile ring is registered to exactly the live mobile nodes its
    /// rows name or its explicit interests do. Each new edge is a metered
    /// `Register` (their count is returned); a dropped one is unmetered.
    /// A store logs no row-derived edge, and an explicit one it changed.
    pub(crate) fn reregister(&mut self, holders: &[Key]) -> usize {
        let listed: BTreeSet<Key> =
            holders.iter().copied().filter(|&h| self.mobile.contains(h)).collect();
        let mut wanted: BTreeSet<(Key, Key)> =
            self.interests.iter().copied().filter(|(h, _)| listed.contains(h)).collect();
        for node in listed.iter().filter_map(|&h| self.mobile.node(h).ok()) {
            wanted.extend(node.keys().iter().map(|&t| (node.key, t)));
        }
        wanted.retain(|&(_, t)| self.is_mobile(t));
        let edges = self.registry.iter().flat_map(|(t, regs)| regs.map(move |r| (r.key, t)));
        let gone: Vec<_> = edges.filter(|e| listed.contains(&e.0) && !wanted.contains(e)).collect();
        for (holder, target) in gone {
            self.registry.deregister(holder, target);
            self.stores.apply(holder, WalRecord::Deregister { target: target.0 });
        }
        let mut sent = 0;
        for (holder, target) in wanted {
            let capacity = self.info_unchecked(holder).capacity;
            if self.interests.contains(&(holder, target)) {
                self.stores.apply(holder, WalRecord::Register { target: target.0, capacity });
            }
            if self.registry.register(Registrant::new(holder, capacity), target) {
                self.meter.bump(MessageKind::Register, 1);
                sent += 1;
            }
        }
        sent
    }

    /// Installs `record` into `holder`'s stationary-layer shard unless a
    /// strictly newer copy (by incarnation, then sequence) is already
    /// there, or its address names a router the topology does not have
    /// (`admits`). The messaging driver's publish path lands here.
    /// Returns whether the record was installed.
    pub fn install_record(&mut self, holder: Key, record: LocationRecord) -> Result<bool> {
        if !self.admits(record.addr) {
            return Ok(false);
        }
        let node = self.stationary.node_mut(holder)?;
        if let Some(existing) = node.store.get(&record.subject) {
            if (existing.incarnation, existing.seq) > (record.incarnation, record.seq) {
                return Ok(false);
            }
        }
        node.store.insert(record.subject, record);
        self.stores.apply(holder, record_put(&record));
        Ok(true)
    }

    /// Routes `record` from `entry` to its subject's replica set (the
    /// overlay meters the route and the replica pushes). Returns how many
    /// replicas stored it.
    pub(crate) fn publish_record(&mut self, entry: Key, record: LocationRecord) -> Result<usize> {
        let dcache = self.distances_arc();
        let set = self.stationary.publish(
            entry,
            record.subject,
            record,
            self.config().location_replicas,
            &self.attachments,
            &dcache,
            &mut self.meter,
        )?;
        let put = record_put(&record);
        for &replica in &set {
            self.stores.apply(replica, put);
        }
        Ok(set.len())
    }

    /// Removes `key`'s location record from its replica set (the subject
    /// left, or its funeral was held). Returns copies removed.
    pub(crate) fn withdraw_location(&mut self, key: Key) -> Result<usize> {
        if self.stationary.is_empty() {
            return Ok(0); // The whole stationary layer died: nothing to withdraw.
        }
        let replicas = self.config().location_replicas;
        let set = self.stationary.replica_set(key, replicas)?;
        let removed = self.stationary.unpublish(key, replicas)?;
        for &replica in &set {
            self.stores.apply(replica, WalRecord::RecordRemove { subject: key.0 });
        }
        Ok(removed)
    }

    /// Anti-entropy over the location store, through the overlay's one
    /// placement pass
    /// ([`RingDht::place_replicas`](bristle_overlay::ring::RingDht::place_replicas)):
    /// every copy of a record goes back to its subject's current replica
    /// set, and the newest by [`LocationRecord::newer_of`] wins wherever it
    /// is held, so a shard a rejoin left blank is refilled and both sides
    /// of a healed partition converge on the same record. A copy whose
    /// subject is not a live mobile node is dropped: its funeral or its
    /// departure withdrew it. Returns copies installed.
    pub fn anti_entropy_locations(&mut self) -> Result<usize> {
        let dcache = self.distances_arc();
        let live: BTreeSet<Key> = self.mobile_keys().iter().copied().collect();
        let placement = self.stationary.place_replicas(
            self.config().location_replicas,
            |subject| live.contains(&subject),
            LocationRecord::newer_of,
            &self.attachments,
            &dcache,
            &mut self.meter,
        )?;
        for (member, _, record) in &placement.installed {
            self.stores.apply(*member, record_put(record));
        }
        for &(holder, subject) in &placement.dropped {
            self.stores.apply(holder, WalRecord::RecordRemove { subject: subject.0 });
        }
        Ok(placement.installed.len())
    }

    /// Removes expired location records from every stationary replica.
    pub fn expire_locations(&mut self) {
        let now = self.clock.now();
        let holders: Vec<Key> = self.stationary.keys().collect();
        for holder in holders {
            let shard = &mut self.stationary.node_mut(holder).expect("known").store;
            shard.retain(|subject, rec| {
                let keep = !rec.is_expired(now);
                if !keep {
                    self.stores.apply(holder, WalRecord::RecordRemove { subject: subject.0 });
                }
                keep
            });
        }
    }

    /// A stationary node's graceful exit from the stationary layer: its
    /// shard goes to its successor (metered by the overlay), which keeps
    /// its own copy where it already has one.
    pub(crate) fn hand_off_shard(&mut self, key: Key) -> Result<()> {
        let dcache = self.distances_arc();
        let moving: Vec<LocationRecord> =
            self.stationary.node(key)?.store.values().copied().collect();
        self.stationary.leave_gracefully(key, &self.attachments, &dcache, &mut self.meter)?;
        let Ok(heir) = self.stationary.successor_of(key) else {
            return Ok(()); // last node out
        };
        let inherited = &self.stationary.node(heir)?.store;
        for record in moving.iter().filter(|r| inherited.get(&r.subject) == Some(r)) {
            self.stores.apply(heir, record_put(record));
        }
        Ok(())
    }

    /// Dissolves every registration and lease that names `key`, as
    /// holder or as subject — the node left or was confirmed dead.
    /// Survivors' stores drop their explicit edges to it (a row-derived
    /// one is in no store); its own store is in its grave or about to be
    /// forgotten, so its side is not mirrored. Returns
    /// `(registrations pruned, leases revoked)`.
    pub(crate) fn dissolve(&mut self, key: Key) -> (usize, usize) {
        let bereaved: Vec<Key> = self.registry.registrants_of(key).map(|r| r.key).collect();
        for holder in bereaved {
            self.stores.apply(holder, WalRecord::Deregister { target: key.0 });
        }
        for holder in self.leases.holders_of_subject(key) {
            self.stores.apply(holder, WalRecord::LeaseRevoke { subject: key.0 });
        }
        self.interests.retain(|&(h, t)| h != key && t != key);
        (
            self.registry.remove_everywhere(key) + self.registry.drop_target(key),
            self.leases.revoke_subject(key) + self.leases.revoke_holder(key),
        )
    }

    /// Durably removes every row `key`'s store still holds that
    /// [`Self::durable_rows`] no longer has: what a funeral took from the
    /// tables while the store lay in the grave, what a restart found
    /// stale, and a registration that is not a standing explicit edge.
    pub(crate) fn reconcile_store(&mut self, key: Key) {
        let Some(state) = self.stores.state(key) else { return };
        let rows = self.durable_rows(key);
        let records = state.records.keys().filter(|s| !rows.records.contains_key(s));
        let edges = state.registrations.keys().filter(|t| !rows.registrations.contains_key(t));
        let leases = state.leases.keys().filter(|s| !rows.leases.contains_key(s));
        let stale: Vec<WalRecord> = (records.map(|&subject| WalRecord::RecordRemove { subject }))
            .chain(edges.map(|&target| WalRecord::Deregister { target }))
            .chain(leases.map(|&subject| WalRecord::LeaseRevoke { subject }))
            .collect();
        for rec in stale {
            self.stores.apply(key, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use bristle_netsim::transit_stub::TransitStubConfig;

    use super::*;
    use crate::system::BristleBuilder;

    /// A holder with a row to a mobile node, and a mobile node it holds no
    /// row for.
    fn drift_at(sys: &BristleSystem, skip: usize) -> (Key, Key, Key) {
        let movable = |k: &Key| sys.is_mobile(*k);
        let node = sys.mobile.iter().filter(|n| n.keys().iter().any(movable)).nth(skip).unwrap();
        let held = *node.keys().iter().find(|k| movable(k)).unwrap();
        let other = sys.mobile_keys().iter().find(|&&t| t != node.key && !node.knows(t));
        (node.key, held, *other.unwrap())
    }

    fn system() -> BristleSystem {
        let sys = BristleBuilder::new(8).stationary_nodes(30).mobile_nodes(12);
        sys.topology(TransitStubConfig::tiny()).build().unwrap()
    }

    fn registered(sys: &BristleSystem, who: Key, target: Key) -> bool {
        sys.registry.registrants_of(target).any(|r| r.key == who)
    }

    /// What a sync leaves, for two runs to compare: R(·) as `iter` reads
    /// it, and how far the registry epoch and the `Register` tally moved.
    fn synced(
        sys: &mut BristleSystem,
        sync: impl FnOnce(&mut BristleSystem),
    ) -> (Vec<(Key, Vec<Registrant>)>, u64, u64) {
        let (epoch, registers) = (sys.registry.epoch(), sys.meter.count(MessageKind::Register));
        sync(sys);
        let lists = sys.registry.iter().map(|(t, regs)| (t, regs.collect())).collect();
        (lists, sys.registry.epoch() - epoch, sys.meter.count(MessageKind::Register) - registers)
    }

    /// [`BristleSystem::sync_registrations`] one edge at a time: a
    /// `register_at` and a metered `Register` for every row, in ring
    /// order, that names a live mobile node.
    fn sync_one_edge_at_a_time(sys: &mut BristleSystem) {
        let old = sys.registry.take();
        let info = &sys.info;
        let mobile = |t: &NodeIdx| info.get(*t).is_some_and(|i| i.mobility == Mobility::Mobile);
        for holder in sys.mobile.iter() {
            let (h, capacity) = (sys.registry.keys.intern(holder.key), holder.capacity);
            for &subject in holder.keys() {
                let Some(t) = sys.registry.keys.get(subject).filter(mobile) else { continue };
                sys.registry.register_at(Edge { holder: h, capacity }, t);
                sys.meter.bump(MessageKind::Register, 1);
            }
        }
        sys.settle_registrations(old);
    }

    /// [`BristleSystem::refresh_bindings`] over [`sync_one_edge_at_a_time`].
    fn refresh_one_edge_at_a_time(sys: &mut BristleSystem) {
        sync_one_edge_at_a_time(sys);
        for key in sys.mobile_keys().to_vec() {
            sys.publish_location(key).unwrap();
            sys.advertise_update(key).unwrap();
        }
    }

    /// The sync that gathers its edges and lays each list out once leaves
    /// what registering one row's edge at a time leaves — list order and
    /// contents, the epoch's move and the `Register` tally — on a fresh
    /// build, and in `refresh_bindings` after a join, a leave, a move and
    /// a rejoin, with an explicit interest standing.
    #[test]
    fn the_bulk_sync_lays_out_what_one_edge_at_a_time_does() {
        for seed in [8, 27] {
            let wired = || {
                let builder = BristleBuilder::new(seed)
                    .stationary_nodes(40)
                    .mobile_nodes(24)
                    .topology(TransitStubConfig::tiny());
                let mut sys = builder.assemble();
                sys.admit_all(40, 24).unwrap();
                sys.rewire();
                sys
            };
            let (mut bulk, mut reference) = (wired(), wired());
            let fresh = synced(&mut bulk, BristleSystem::sync_registrations);
            assert!(fresh.2 > 0, "seed {seed}: the build registered nothing");
            assert_eq!(
                fresh,
                synced(&mut reference, sync_one_edge_at_a_time),
                "seed {seed}: build"
            );
            for sys in [&mut bulk, &mut reference] {
                sys.publish_all_locations().unwrap();
                let (s, _, friend) = drift_at(sys, 0);
                sys.register_interest(s, friend).unwrap();
            }
            for step in ["join", "leave", "move", "rejoin"] {
                for sys in [&mut bulk, &mut reference] {
                    match step {
                        "join" => assert!(sys.join_node(Mobility::Mobile).is_ok()),
                        "leave" => sys.leave_node(sys.mobile_keys()[4]).unwrap(),
                        "move" => assert!(sys.move_node(sys.mobile_keys()[0], None).is_ok()),
                        _ => {
                            let key = sys.mobile_keys()[2];
                            sys.confirm_dead(key).unwrap();
                            assert!(sys.rejoin_node(key, 1).unwrap().restored);
                        }
                    }
                }
                assert_eq!(
                    synced(&mut bulk, |sys| sys.refresh_bindings().unwrap()),
                    synced(&mut reference, refresh_one_edge_at_a_time),
                    "seed {seed}: refresh after the {step}"
                );
            }
        }
    }

    /// The pass gives a listed holder exactly its rows' registrations,
    /// one metered `Register` per new edge and none per dropped one, keeps
    /// its explicit interests, and leaves an unlisted holder's drift alone.
    #[test]
    fn the_registration_pass_reconciles_only_the_listed_holders() {
        let mut sys = system();
        let (a, a_row, a_stray) = drift_at(&sys, 0);
        let (b, b_row, b_stray) = drift_at(&sys, 1);
        for (who, row, stray) in [(a, a_row, a_stray), (b, b_row, b_stray)] {
            assert!(sys.registry.deregister(who, row));
            assert!(sys.registry.register(Registrant::new(who, 1), stray));
        }
        let registers = sys.meter.count(MessageKind::Register);
        assert_eq!(sys.reregister(&[a]), 1);
        assert_eq!(sys.meter.count(MessageKind::Register), registers + 1);
        assert!(registered(&sys, a, a_row) && !registered(&sys, a, a_stray));
        assert!(!registered(&sys, b, b_row) && registered(&sys, b, b_stray), "b was not listed");
        assert!(!sys.add_registrant(b, 1, b_stray), "b_stray is now an interest");
        assert_eq!(sys.reregister(&[b, Key(0x0dd)]), 1);
        assert!(registered(&sys, b, b_row) && registered(&sys, b, b_stray), "an interest stays");
        assert_eq!(sys.reregister(&[a, b]), 0, "nothing left to reconcile");
    }

    /// An explicit interest outlives every pass over its holder and every
    /// sync, and goes with its target's funeral.
    #[test]
    fn an_explicit_interest_stands_until_its_target_dies() {
        let mut sys = system();
        let (s, _, friend) = drift_at(&sys, 0);
        sys.register_interest(s, friend).unwrap();
        let z = *sys.mobile_keys().iter().find(|&&z| z != s && z != friend).unwrap();
        sys.confirm_dead(z).unwrap();
        sys.rejoin_node(z, 1).unwrap();
        assert!(!sys.mobile.node(s).unwrap().knows(friend), "still no row names it");
        assert!(registered(&sys, s, friend), "the rejoin's pass dropped it");
        sys.sync_registrations();
        assert!(registered(&sys, s, friend), "the sync dropped it");
        sys.confirm_dead(friend).unwrap();
        sys.rejoin_node(friend, 1).unwrap();
        assert!(!registered(&sys, s, friend), "the funeral kept it");
    }
}
