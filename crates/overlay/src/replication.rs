//! Record publication with k-replication.
//!
//! The paper (§2.3.2, availability): "a data item published to a HS-P2P
//! can simply be replicated to k nodes clustered with the hash keys closest
//! to the one represented the data item. Once one of these nodes fails, the
//! requested data item can be rapidly accessed in the remaining k − 1
//! nodes." This module implements exactly that scheme over [`RingDht`];
//! Bristle uses it to keep mobile-node location records available through
//! stationary-node churn.

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;

use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::{RingDht, RingError};

/// Result of a replicated lookup.
#[derive(Debug, Clone)]
pub struct LookupOutcome<V> {
    /// The record, if any live replica held it.
    pub value: Option<V>,
    /// Node that answered (the owner, or a surviving replica).
    pub served_by: Option<Key>,
    /// Application-level hops spent (route + replica probes).
    pub hops: usize,
    /// Physical path cost spent.
    pub path_cost: u64,
}

impl<V: Clone> RingDht<V> {
    /// Publishes `value` under `key`: routes from `src` to the owner, then
    /// replicates to the `replicas − 1` following nodes.
    ///
    /// Returns the replica set actually written.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol message's fields
    pub fn publish(
        &mut self,
        src: Key,
        key: Key,
        value: V,
        replicas: usize,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Vec<Key>, RingError> {
        assert!(replicas >= 1, "need at least one replica");
        let route = self.route_as(src, key, MessageKind::Publish, attachments, dcache, meter)?;
        let set = self.replica_set(key, replicas)?;
        let owner = route.terminus();
        debug_assert_eq!(set.first(), Some(&owner));
        let owner_router = attachments.router(self.node(owner)?.host);
        for (i, &replica) in set.iter().enumerate() {
            if i > 0 {
                // Owner pushes copies directly to the other replicas.
                let r = attachments.router(self.node(replica)?.host);
                meter.record(MessageKind::Replicate, dcache.distance(owner_router, r));
            }
            self.node_mut(replica)?.store.insert(key, value.clone());
        }
        Ok(set)
    }

    /// Looks `key` up starting from `src`. If the owner lacks the record
    /// (e.g. it just joined, or the original owner failed), up to
    /// `probe_replicas − 1` subsequent replicas are probed.
    pub fn lookup(
        &self,
        src: Key,
        key: Key,
        probe_replicas: usize,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<LookupOutcome<V>, RingError> {
        let route = self.route(src, key, attachments, dcache, meter)?;
        let mut hops = route.hop_count();
        let mut path_cost = route.path_cost;
        let set = self.replica_set(key, probe_replicas.max(1))?;
        let mut prev_router = attachments.router(self.node(route.terminus())?.host);
        for &candidate in &set {
            let router = attachments.router(self.node(candidate)?.host);
            if candidate != route.terminus() {
                // Probe hop from the previous replica to the next.
                let cost = dcache.distance(prev_router, router);
                meter.record(MessageKind::RouteHop, cost);
                hops += 1;
                path_cost += cost;
            }
            prev_router = router;
            if let Some(v) = self.node(candidate)?.store.get(&key) {
                return Ok(LookupOutcome {
                    value: Some(v.clone()),
                    served_by: Some(candidate),
                    hops,
                    path_cost,
                });
            }
        }
        Ok(LookupOutcome { value: None, served_by: None, hops, path_cost })
    }

    /// Removes the record for `key` from its replica set (e.g. when the
    /// record's subject leaves the system).
    pub fn unpublish(&mut self, key: Key, replicas: usize) -> Result<usize, RingError> {
        let set = self.replica_set(key, replicas)?;
        let mut removed = 0;
        for replica in set {
            if self.node_mut(replica)?.store.remove(&key).is_some() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Re-replicates every record whose replica set changed after
    /// membership churn. Walks all stored records and re-inserts them at
    /// the current replica set; returns the number of copies moved.
    ///
    /// This is the steady-state equivalent of the periodic "states
    /// refreshment" the paper assumes keeps replicas converged.
    pub fn rebalance_replicas(
        &mut self,
        replicas: usize,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<usize, RingError> {
        // Collect all (record key, value, holder) triples first.
        let mut records: Vec<(Key, V, Key)> = Vec::new();
        for node in self.iter() {
            for (&k, v) in node.store {
                records.push((k, v.clone(), node.key));
            }
        }
        let mut moved = 0;
        for (k, v, holder) in records {
            let set = self.replica_set(k, replicas)?;
            if !set.contains(&holder) {
                self.node_mut(holder)?.store.remove(&k);
            }
            let holder_router = attachments.router(self.node(holder)?.host);
            for &replica in &set {
                if self.node(replica)?.store.contains_key(&k) {
                    continue;
                }
                let r = attachments.router(self.node(replica)?.host);
                meter.record(MessageKind::Replicate, dcache.distance(holder_router, r));
                self.node_mut(replica)?.store.insert(k, v.clone());
                moved += 1;
            }
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use bristle_netsim::rng::Pcg64;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (RingDht<u64>, AttachmentMap, DistanceCache, Pcg64) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
        let mut attachments = AttachmentMap::new();
        let mut dht = RingDht::new(RingConfig::tornado());
        for _ in 0..n {
            let host = attachments.attach_new(*rng.choose(&stubs));
            dht.insert(Key::random(&mut rng), host, 1).unwrap();
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        (dht, attachments, dcache, rng)
    }

    #[test]
    fn publish_then_lookup_roundtrip() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 1);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let set =
            dht.publish(keys[0], record_key, 99, 3, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(set.len(), 3);
        let out = dht.lookup(keys[5], record_key, 3, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(out.value, Some(99));
        assert_eq!(out.served_by, Some(set[0]), "owner serves when alive");
        assert_eq!(meter.count(MessageKind::Replicate), 2);
    }

    #[test]
    fn lookup_missing_record_returns_none() {
        let (dht, attachments, dcache, mut rng) = setup(32, 2);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let out = dht
            .lookup(keys[0], Key::random(&mut rng), 3, &attachments, &dcache, &mut meter)
            .unwrap();
        assert!(out.value.is_none());
        assert!(out.served_by.is_none());
    }

    #[test]
    fn replica_survives_owner_failure() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 3);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let set =
            dht.publish(keys[0], record_key, 7, 3, &attachments, &dcache, &mut meter).unwrap();
        // Kill the owner without repairing anything.
        dht.remove(set[0]);
        let src = *keys.iter().find(|k| !set.contains(k)).unwrap();
        let out = dht.lookup(src, record_key, 3, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(out.value, Some(7), "replica must serve after owner death");
        assert_eq!(out.served_by, Some(set[1]));
    }

    #[test]
    fn record_lost_without_replication() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 4);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let set =
            dht.publish(keys[0], record_key, 7, 1, &attachments, &dcache, &mut meter).unwrap();
        dht.remove(set[0]);
        let src = *keys.iter().find(|k| !set.contains(k)).unwrap();
        let out = dht.lookup(src, record_key, 1, &attachments, &dcache, &mut meter).unwrap();
        assert!(out.value.is_none(), "k = 1 gives no fault tolerance");
    }

    #[test]
    fn unpublish_removes_all_copies() {
        let (mut dht, attachments, dcache, mut rng) = setup(48, 5);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        dht.publish(keys[0], record_key, 1, 3, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(dht.unpublish(record_key, 3).unwrap(), 3);
        let out = dht.lookup(keys[1], record_key, 3, &attachments, &dcache, &mut meter).unwrap();
        assert!(out.value.is_none());
    }

    #[test]
    fn rebalance_restores_replica_count_after_churn() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 6);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let set =
            dht.publish(keys[0], record_key, 1, 3, &attachments, &dcache, &mut meter).unwrap();
        dht.remove(set[0]);
        dht.remove(set[1]);
        let moved = dht.rebalance_replicas(3, &attachments, &dcache, &mut meter).unwrap();
        assert!(moved >= 2, "two lost copies must be recreated, moved {moved}");
        let live_set = dht.replica_set(record_key, 3).unwrap();
        for r in live_set {
            assert!(dht.node(r).unwrap().store.contains_key(&record_key));
        }
    }

    #[test]
    fn rebalance_drops_out_of_set_copies() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 7);
        let keys: Vec<Key> = dht.keys().collect();
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        dht.publish(keys[0], record_key, 1, 2, &attachments, &dcache, &mut meter).unwrap();
        // A new node joins right in front of the record key: the replica
        // set shifts, and the far copy must eventually be dropped.
        let host = attachments.current(bristle_netsim::attach::HostId(0)); // reuse any host body
        let _ = host;
        let new_key = record_key; // owner-of-key position (successor includes equal key)
        if !dht.contains(new_key) {
            dht.insert(new_key, bristle_netsim::attach::HostId(0), 1).unwrap();
        }
        dht.rebalance_replicas(2, &attachments, &dcache, &mut meter).unwrap();
        let set = dht.replica_set(record_key, 2).unwrap();
        let holders: Vec<Key> =
            dht.iter().filter(|n| n.store.contains_key(&record_key)).map(|n| n.key).collect();
        let mut sorted_set = set.clone();
        sorted_set.sort_unstable();
        let mut sorted_holders = holders.clone();
        sorted_holders.sort_unstable();
        assert_eq!(sorted_holders, sorted_set, "holders must equal the current replica set");
    }
}
