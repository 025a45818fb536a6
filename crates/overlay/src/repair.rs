//! Incremental repair.
//!
//! The paper's reliability story (§2.3.2) rests, beyond periodic full
//! refresh, on failure detection and local repair: *each node
//! periodically monitors its connectivity to other O(log N) nodes*.
//! [`RingDht::probe_and_repair`] is that round for one node — it pings
//! its entries, drops the dead ones, and patches only the damaged slots
//! (leaf repair via live ring neighbors) instead of rebuilding the whole
//! table; [`RingDht::repair_sweep`] runs it ring-wide.

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::rng::Pcg64;

use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::{RingDht, RingError};

/// Outcome of one node's probe-and-repair round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Entries probed (one ping each).
    pub probed: usize,
    /// Entries found dead and dropped.
    pub dropped: usize,
    /// Replacement entries installed.
    pub patched: usize,
}

impl<V> RingDht<V> {
    /// One failure-detection round for `key`: probes every entry
    /// (metered as `Refresh`), drops entries pointing at departed nodes,
    /// and repairs the routing state by recomputing only if damage was
    /// found. Returns what happened.
    pub fn probe_and_repair(
        &mut self,
        key: Key,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
        meter: &mut Meter,
    ) -> Result<RepairReport, RingError> {
        let entries: Vec<Key> = self.node(key)?.entries.iter().map(|e| e.key).collect();
        let mut report = RepairReport { probed: entries.len(), ..Default::default() };
        let my_router = attachments.router(self.node(key)?.host);
        let mut dead = Vec::new();
        for e in entries {
            match self.node(e) {
                Ok(n) => {
                    // Live: the probe costs one round trip.
                    meter.record(
                        MessageKind::Refresh,
                        dcache.distance(my_router, attachments.router(n.host)),
                    );
                }
                Err(_) => {
                    // Dead: the probe times out (still costs the attempt,
                    // charged at zero physical distance — the packet dies
                    // in the network).
                    meter.bump(MessageKind::Refresh, 1);
                    dead.push(e);
                }
            }
        }
        if dead.is_empty() {
            return Ok(report);
        }
        report.dropped = dead.len();
        let node = self.node_mut(key)?;
        node.entries.retain(|e| !dead.contains(&e.key));
        node.leaf_keys.retain(|k| !dead.contains(k));
        // Patch: recompute the table against the live map (the local
        // equivalent of asking ring neighbors for replacements).
        let before = self.node(key)?.entries.len();
        self.rebuild_node(key, attachments, dcache, rng)?;
        let after = self.node(key)?.entries.len();
        report.patched = after.saturating_sub(before);
        Ok(report)
    }

    /// System-wide probe-and-repair sweep; returns aggregate damage found.
    pub fn repair_sweep(
        &mut self,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
        meter: &mut Meter,
    ) -> RepairReport {
        let keys: Vec<Key> = self.keys().collect();
        let mut total = RepairReport::default();
        for k in keys {
            if let Ok(r) = self.probe_and_repair(k, attachments, dcache, rng, meter) {
                total.probed += r.probed;
                total.dropped += r.dropped;
                total.patched += r.patched;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (RingDht<()>, AttachmentMap, DistanceCache, Pcg64) {
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
        dht.build_all_tables(&attachments, &dcache, &mut rng);
        (dht, attachments, dcache, rng)
    }

    #[test]
    fn repair_noop_on_healthy_overlay() {
        let (mut dht, attachments, dcache, mut rng) = setup(64, 1);
        let mut meter = Meter::new();
        let k = dht.keys().next().unwrap();
        let r = dht.probe_and_repair(k, &attachments, &dcache, &mut rng, &mut meter).unwrap();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.patched, 0);
        assert!(r.probed > 0);
        assert_eq!(meter.count(MessageKind::Refresh) as usize, r.probed);
    }

    #[test]
    fn repair_detects_and_heals_damage() {
        let (mut dht, attachments, dcache, mut rng) = setup(96, 2);
        let victims: Vec<Key> = dht.keys().step_by(4).collect();
        for v in &victims {
            dht.fail_node(*v).unwrap();
        }
        let mut meter = Meter::new();
        let sweep = dht.repair_sweep(&attachments, &dcache, &mut rng, &mut meter);
        assert!(sweep.dropped > 0, "damage must be found");
        assert!(dht.health().is_healthy(), "sweep must fully heal");
    }

    #[test]
    fn repair_sweep_cheaper_than_it_looks() {
        // Probes are one message per entry; a healthy sweep sends exactly
        // total_state() probes and changes nothing.
        let (mut dht, attachments, dcache, mut rng) = setup(48, 3);
        let expected = dht.total_state();
        let mut meter = Meter::new();
        let sweep = dht.repair_sweep(&attachments, &dcache, &mut rng, &mut meter);
        assert_eq!(sweep.probed, expected);
        assert_eq!(sweep.dropped, 0);
    }
}
