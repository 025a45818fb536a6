//! Record publication with k-replication.
//!
//! The paper (§2.3.2, availability): "a data item published to a HS-P2P
//! can simply be replicated to k nodes clustered with the hash keys closest
//! to the one represented the data item. Once one of these nodes fails, the
//! requested data item can be rapidly accessed in the remaining k − 1
//! nodes." This module implements exactly that scheme over [`RingDht`];
//! Bristle uses it to keep mobile-node location records available through
//! stationary-node churn, and [`RingDht::place_replicas`] moves every
//! record to its replica set as churn moves the set.

use std::collections::BTreeMap;

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;

use crate::addr::RowAddr;
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

/// What [`RingDht::place_replicas`] changed, as `publish` returns the set
/// it wrote: for a caller that mirrors the stores.
#[derive(Debug, Clone)]
pub struct Placement<V> {
    /// `(member, key, value)`: a copy installed at a replica-set member.
    pub installed: Vec<(Key, Key, V)>,
    /// `(holder, key)`: a copy dropped from a node outside the key's set.
    pub dropped: Vec<(Key, Key)>,
}

impl<V: Clone, A: RowAddr> RingDht<V, A> {
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

    /// Puts every record where its replica set is now: the periodic
    /// "states refreshment" the paper assumes keeps replicas converged
    /// through churn. Walks every store once and groups the copies by key.
    /// They are offered to `pick(a, b)` in ring order from the key, the
    /// set's owner first; it returns the winner, `a` on a tie. The winner
    /// is installed at each set member that lacks it or holds a copy it
    /// beats, one `Replicate` from the winning holder's router each;
    /// copies outside the set, and every copy of a key `placed` rejects,
    /// are dropped.
    pub fn place_replicas(
        &mut self,
        replicas: usize,
        placed: impl Fn(Key) -> bool,
        pick: impl Fn(V, V) -> V,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<Placement<V>, RingError>
    where
        V: PartialEq,
    {
        let beats = |a: &V, b: &V| pick(b.clone(), a.clone()) != *b;
        let mut copies: BTreeMap<Key, Vec<(Key, V)>> = BTreeMap::new();
        for node in self.iter() {
            for (&k, v) in node.store {
                copies.entry(k).or_default().push((node.key, v.clone()));
            }
        }
        let mut placement = Placement { installed: Vec::new(), dropped: Vec::new() };
        for (k, mut holders) in copies {
            let set = if placed(k) { self.replica_set(k, replicas)? } else { Vec::new() };
            for &(holder, _) in holders.iter().filter(|(h, _)| !set.contains(h)) {
                self.node_mut(holder)?.store.remove(&k);
                placement.dropped.push((holder, k));
            }
            holders.sort_by_key(|&(h, _)| h.0.wrapping_sub(k.0));
            let best = holders.into_iter().reduce(|a, b| if beats(&b.1, &a.1) { b } else { a });
            let Some((holder, value)) = best else { continue };
            let from = attachments.router(self.node(holder)?.host);
            for &member in &set {
                let node = self.node(member)?;
                if node.store.get(&k).is_some_and(|have| !beats(&value, have)) {
                    continue;
                }
                let to = attachments.router(node.host);
                meter.record(MessageKind::Replicate, dcache.distance(from, to));
                self.node_mut(member)?.store.insert(k, value.clone());
                placement.installed.push((member, k, value.clone()));
            }
        }
        Ok(placement)
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
        let replicates = meter.count(MessageKind::Replicate);
        let placed =
            dht.place_replicas(3, |_| true, |a, _| a, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(placed.installed.len(), 2, "two lost copies must be recreated");
        assert_eq!(meter.count(MessageKind::Replicate) - replicates, 2, "one Replicate a copy");
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
        let (record_key, withdrawn) = (Key::random(&mut rng), Key::random(&mut rng));
        let set =
            dht.publish(keys[0], record_key, 1, 2, &attachments, &dcache, &mut meter).unwrap();
        dht.publish(keys[0], withdrawn, 1, 2, &attachments, &dcache, &mut meter).unwrap();
        // A newer copy is stranded outside the set, as a rejoin that
        // moved the set leaves one, beside a copy of a key whose subject
        // is gone.
        let stray = *keys.iter().find(|k| !set.contains(k)).unwrap();
        dht.node_mut(stray).unwrap().store.insert(record_key, 5);
        dht.node_mut(stray).unwrap().store.insert(withdrawn, 5);
        let placed = dht
            .place_replicas(2, |k| k != withdrawn, u64::max, &attachments, &dcache, &mut meter)
            .unwrap();
        assert_eq!(placed.installed.len(), 2, "the newer copy replaces both older ones");
        assert!(placed.dropped.contains(&(stray, record_key)));
        let holders = |key: Key| -> Vec<(Key, u64)> {
            dht.iter().filter_map(|n| n.store.get(&key).map(|&v| (n.key, v))).collect()
        };
        let mut want: Vec<(Key, u64)> = set.iter().map(|&r| (r, 5)).collect();
        want.sort_unstable();
        assert_eq!(holders(record_key), want, "holders are the set, each with the newest copy");
        assert!(holders(withdrawn).is_empty(), "a key the caller does not place keeps no copy");
        // Nothing is left to move.
        let again = dht
            .place_replicas(2, |k| k != withdrawn, u64::max, &attachments, &dcache, &mut meter)
            .unwrap();
        assert!(again.installed.is_empty() && again.dropped.is_empty());
    }
}
