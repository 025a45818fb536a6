//! Overlay maintenance: periodic refresh, failure handling, health checks.
//!
//! "As well as a typical HS-P2P, since a node may leave the system at any
//! time, it needs to periodically refresh its state to the associated nodes
//! to maintain the entire system's reliability" (paper §2.3.3). This module
//! provides the refresh cycle, abrupt-failure handling, and structural
//! health diagnostics used by the reliability experiments.

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::rng::Pcg64;

use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::{RingDht, RingError};

/// Structural health report for the overlay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Total routing-state rows.
    pub total_entries: usize,
    /// Entries pointing at nodes that are no longer present.
    pub dangling_entries: usize,
    /// Nodes whose leaf set no longer contains their true successor.
    pub broken_successors: usize,
}

impl HealthReport {
    /// Fraction of entries that are dangling (0 when there are none).
    pub fn staleness(&self) -> f64 {
        if self.total_entries == 0 {
            0.0
        } else {
            self.dangling_entries as f64 / self.total_entries as f64
        }
    }

    /// Whether the overlay is fully converged.
    pub fn is_healthy(&self) -> bool {
        self.dangling_entries == 0 && self.broken_successors == 0
    }
}

impl<V> RingDht<V> {
    /// One full refresh cycle: every node rebuilds its routing state and
    /// re-advertises itself to its neighbors. Meters one `Refresh` message
    /// per refreshed entry (the paper's "periodical states refreshment").
    pub fn refresh_cycle(
        &mut self,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
        meter: &mut Meter,
    ) {
        self.build_all_tables(attachments, dcache, rng, 1);
        meter.bump(MessageKind::Refresh, self.total_state() as u64);
    }

    /// Abrupt failure: the node disappears without notifying anyone. Its
    /// stored records die with it; other nodes keep dangling entries until
    /// the next refresh. Returns how many records were lost at that node.
    pub fn fail_node(&mut self, key: Key) -> Result<usize, RingError> {
        let state = self.remove(key).ok_or(RingError::UnknownNode(key))?;
        Ok(state.store.len())
    }

    /// Graceful leave: the node hands its stored records to its successor
    /// before departing (metered as `Leave` traffic) and disappears.
    pub fn leave_gracefully(
        &mut self,
        key: Key,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        meter: &mut Meter,
    ) -> Result<usize, RingError> {
        let state = self.remove(key).ok_or(RingError::UnknownNode(key))?;
        if self.is_empty() {
            return Ok(0); // last node out: records are lost with the system
        }
        let heir = self.successor_of(key)?;
        let from = attachments.router(state.host);
        let to = attachments.router(self.node(heir)?.host);
        let handed = state.store.len();
        if handed > 0 {
            meter.record(MessageKind::Leave, dcache.distance(from, to));
        }
        let heir_store = self.node_mut(heir)?.store;
        for (k, v) in state.store {
            heir_store.entry(k).or_insert(v);
        }
        Ok(handed)
    }

    /// Scans the overlay for structural damage.
    pub fn health(&self) -> HealthReport {
        let mut report = HealthReport::default();
        for node in self.iter() {
            report.total_entries += node.state_size();
            for &k in node.keys() {
                if !self.contains(k) {
                    report.dangling_entries += 1;
                }
            }
            if self.len() > 1 {
                let true_succ = self.successor_of(node.key.offset(1)).expect("non-empty");
                if !node.leaf_keys().any(|k| k == true_succ) {
                    report.broken_successors += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (RingDht<u32>, AttachmentMap, DistanceCache, Pcg64) {
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
    fn fresh_overlay_is_healthy() {
        let (dht, _, _, _) = setup(64, 1);
        let h = dht.health();
        assert!(h.is_healthy(), "{h:?}");
        assert_eq!(h.staleness(), 0.0);
    }

    #[test]
    fn failures_create_damage_refresh_heals_it() {
        let (mut dht, attachments, dcache, mut rng) = setup(96, 2);
        let keys: Vec<Key> = dht.keys().collect();
        for k in keys.iter().take(20) {
            dht.fail_node(*k).unwrap();
        }
        let damaged = dht.health();
        assert!(damaged.dangling_entries > 0, "failures must leave dangling entries");
        let mut meter = Meter::new();
        dht.refresh_cycle(&attachments, &dcache, &mut rng, &mut meter);
        let healed = dht.health();
        assert!(healed.is_healthy(), "{healed:?}");
        assert_eq!(meter.count(MessageKind::Refresh), healed.total_entries as u64);
    }

    #[test]
    fn graceful_leave_hands_records_to_successor() {
        let (mut dht, attachments, dcache, mut rng) = setup(32, 3);
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let keys: Vec<Key> = dht.keys().collect();
        dht.publish(keys[0], record_key, 5u32, 1, &attachments, &dcache, &mut meter).unwrap();
        let owner = dht.owner(record_key).unwrap();
        let heir = dht.successor_of(owner.offset(1)).unwrap();
        let handed = dht.leave_gracefully(owner, &attachments, &dcache, &mut meter).unwrap();
        assert_eq!(handed, 1);
        assert_eq!(dht.node(heir).unwrap().store.get(&record_key), Some(&5));
        // And the heir is now the owner, so lookups keep working.
        let out = dht
            .lookup(
                *dht.keys().next().as_ref().unwrap(),
                record_key,
                1,
                &attachments,
                &dcache,
                &mut meter,
            )
            .unwrap();
        assert_eq!(out.value, Some(5));
    }

    #[test]
    fn abrupt_failure_loses_records() {
        let (mut dht, attachments, dcache, mut rng) = setup(32, 4);
        let mut meter = Meter::new();
        let record_key = Key::random(&mut rng);
        let keys: Vec<Key> = dht.keys().collect();
        dht.publish(keys[0], record_key, 5u32, 1, &attachments, &dcache, &mut meter).unwrap();
        let owner = dht.owner(record_key).unwrap();
        let lost = dht.fail_node(owner).unwrap();
        assert_eq!(lost, 1);
    }

    #[test]
    fn leave_last_node_is_safe() {
        let (mut dht, attachments, dcache, _) = setup(1, 5);
        let only = dht.keys().next().unwrap();
        let mut meter = Meter::new();
        assert_eq!(dht.leave_gracefully(only, &attachments, &dcache, &mut meter).unwrap(), 0);
        assert!(dht.is_empty());
    }

    #[test]
    fn health_counts_broken_successors() {
        let (mut dht, _, _, _) = setup(16, 6);
        // A run of failures longer than the leaf radius (4) leaves the
        // predecessor of the run with no live successor in its leaf set.
        let victims: Vec<Key> = dht.keys().skip(3).take(8).collect();
        for v in victims {
            dht.fail_node(v).unwrap();
        }
        let h = dht.health();
        assert!(h.broken_successors > 0);
        assert!(h.staleness() > 0.0);
    }
}
