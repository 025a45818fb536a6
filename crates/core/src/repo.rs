//! A node's repository, written once (paper §2.3).
//!
//! Every node keeps registrations R(·) (§2.3.1) and leased
//! `<key, addr>` state-pairs (§2.3.2), and a stationary node a shard of
//! location records, in the live tables (`registry`, `leases`,
//! `stationary.node(k).store`). A node that has a store — a WAL was
//! attached, or it crashed ([`crate::durable`]) — also holds them as a
//! [`WalRecord`] fold in its [`crate::durable::StoreHub`] backend. This
//! module is the only code that changes either, and it changes both in
//! one call, so `assert_stores_mirror_tables` (in [`crate::durable`])
//! holds after every operation. DESIGN §8 "The write path" tabulates
//! operation → tables → record.
//!
//! Metering stays with the callers, whose bills differ (a join meters
//! every edge, a resurrection only the new ones). Mirrors never touch
//! the meter, the RNG or the clock.

use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::ring::Slot;

use crate::durable::{record_put, StoreHub, WalRecord};
use crate::error::Result;
use crate::location::LocationRecord;
use crate::registry::{Registrant, Registry};
use crate::system::{BristleSystem, NodeInfo};

/// [`BristleSystem::add_registrant`] over the two fields it writes, for
/// the caller that is iterating a third.
fn register_edge(
    registry: &mut Registry,
    stores: &mut StoreHub,
    who: Key,
    capacity: u32,
    target: Key,
) -> bool {
    // No-op re-registrations are not logged (backends skip them).
    stores.apply(who, WalRecord::Register { target: target.0, capacity });
    registry.register(Registrant::new(who, capacity), target)
}

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

    /// Adds `who` (reporting `capacity`) to R(`target`); a repeat
    /// updates the capacity. Returns whether the edge is new.
    pub fn add_registrant(&mut self, who: Key, capacity: u32, target: Key) -> bool {
        register_edge(&mut self.registry, &mut self.stores, who, capacity, target)
    }

    /// Rebuilds the registration state from the mobile layer's reverse
    /// routing pointers: every holder of a *mobile* node's state-pair
    /// registers to that node with its capacity (§2.3.1 — "X can register
    /// itself to those mobile nodes only"). Each R(·) lists its holders
    /// in ring order.
    pub fn sync_registrations(&mut self) {
        let old = self.registry.take();
        for holder in self.mobile.iter() {
            let capacity = self.info_unchecked(holder.key).capacity;
            for &subject in holder.keys() {
                if self.is_mobile(subject) {
                    register_edge(
                        &mut self.registry,
                        &mut self.stores,
                        holder.key,
                        capacity,
                        subject,
                    );
                    self.meter.bump(MessageKind::Register, 1);
                }
            }
        }
        // Edges the rebuild dropped (none on the initial build).
        for (target, regs) in old.iter() {
            let kept = self.registry.registrants_of(target);
            for gone in regs.iter().filter(|r| !kept.iter().any(|k| k.key == r.key)) {
                self.stores.apply(gone.key, WalRecord::Deregister { target: target.0 });
            }
        }
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
        let replicas = self.config().location_replicas;
        let set = self.stationary.replica_set(key, replicas)?;
        let removed = self.stationary.unpublish(key, replicas)?;
        for &replica in &set {
            self.stores.apply(replica, WalRecord::RecordRemove { subject: key.0 });
        }
        Ok(removed)
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
    /// Survivors' stores drop their edges to it; its own store is frozen
    /// or about to be forgotten, so its side is not mirrored. Returns
    /// `(registrations pruned, leases revoked)`.
    pub(crate) fn dissolve(&mut self, key: Key) -> (usize, usize) {
        let bereaved: Vec<Key> = self.registry.registrants_of(key).iter().map(|r| r.key).collect();
        for holder in bereaved {
            self.stores.apply(holder, WalRecord::Deregister { target: key.0 });
        }
        for holder in self.leases.holders_of_subject(key) {
            self.stores.apply(holder, WalRecord::LeaseRevoke { subject: key.0 });
        }
        (
            self.registry.remove_everywhere(key) + self.registry.drop_target(key),
            self.leases.revoke_subject(key) + self.leases.revoke_holder(key),
        )
    }

    /// Durably removes every row `key`'s store still holds that the
    /// tables no longer have: what a funeral took from the tables while
    /// the store was frozen, and what a restart found stale.
    pub(crate) fn reconcile_store(&mut self, key: Key) {
        let Some(state) = self.stores.state(key) else { return };
        let shard = self.stationary.node(key).ok().map(|n| n.store);
        let mut stale: Vec<WalRecord> = Vec::new();
        for &subject in state.records.keys() {
            if !shard.is_some_and(|s| s.contains_key(&Key(subject))) {
                stale.push(WalRecord::RecordRemove { subject });
            }
        }
        for &target in state.registrations.keys() {
            if !self.registry.registrants_of(Key(target)).iter().any(|r| r.key == key) {
                stale.push(WalRecord::Deregister { target });
            }
        }
        for &subject in state.leases.keys() {
            if self.leases.get(key, Key(subject)).is_none() {
                stale.push(WalRecord::LeaseRevoke { subject });
            }
        }
        for rec in stale {
            self.stores.apply(key, rec);
        }
    }
}
