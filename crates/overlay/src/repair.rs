//! Incremental repair.
//!
//! The paper's reliability story (§2.3.2) rests, beyond periodic full
//! refresh, on failure detection and local repair: *each node
//! periodically monitors its connectivity to other O(log N) nodes*.
//! [`RingDht::repair_sweep`] is that round ring-wide: every node pings
//! its entries, and only the nodes that found a dead one re-derive their
//! tables, instead of the whole ring rebuilding.

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::rng::Pcg64;

use crate::addr::RowAddr;
use crate::key::Key;
use crate::meter::{MessageKind, Meter};
use crate::ring::RingDht;

impl<V, A: RowAddr> RingDht<V, A> {
    /// One failure-detection round over every node: each probes all of
    /// its entries (metered as `Refresh`), and the nodes that found one
    /// pointing at a departed node are rebuilt against the live ring, in
    /// ring order on `rng` (the local equivalent of asking ring neighbors
    /// for replacements). Returns the rebuilt nodes, in that order.
    pub fn repair_sweep(
        &mut self,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
        meter: &mut Meter,
    ) -> Vec<Key> {
        let mut damaged = Vec::new();
        for node in self.iter() {
            let my_router = attachments.router(node.host);
            let mut dead = false;
            for &k in node.keys() {
                match self.node(k) {
                    // Live: the probe costs one round trip.
                    Ok(n) => meter.record(
                        MessageKind::Refresh,
                        dcache.distance(my_router, attachments.router(n.host)),
                    ),
                    // Dead: the probe times out (still costs the attempt,
                    // charged at zero physical distance — the packet dies
                    // in the network).
                    Err(_) => {
                        meter.bump(MessageKind::Refresh, 1);
                        dead = true;
                    }
                }
            }
            if dead {
                damaged.push(node.key);
            }
        }
        self.rebuild(&damaged, attachments, dcache, rng).expect("damaged nodes are live");
        damaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use crate::node::NodeRef;
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
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        (dht, attachments, dcache, rng)
    }

    #[test]
    fn repair_detects_and_heals_damage() {
        let (mut dht, attachments, dcache, mut rng) = setup(96, 2);
        let victims: Vec<Key> = dht.keys().step_by(4).collect();
        for v in &victims {
            dht.fail_node(*v).unwrap();
        }
        let damaged = dht.health();
        assert!(damaged.dangling_entries > 0, "damage must be there to find");
        let holders: Vec<Key> = dht
            .iter()
            .filter(|n| n.keys().iter().any(|&k| dht.node(k).is_err()))
            .map(|n| n.key)
            .collect();
        let mut meter = Meter::new();
        let rebuilt = dht.repair_sweep(&attachments, &dcache, &mut rng, &mut meter);
        assert_eq!(rebuilt, holders, "the sweep rebuilds the damaged nodes, in ring order");
        assert_eq!(meter.count(MessageKind::Refresh) as usize, damaged.total_entries);
        assert!(dht.health().is_healthy(), "sweep must fully heal");
    }

    #[test]
    fn repair_sweep_cheaper_than_it_looks() {
        // Probes are one message per entry; a healthy sweep sends exactly
        // total_state() probes and changes nothing: every row keeps its
        // key, its learned entry and the address it resolves to.
        let (mut dht, attachments, dcache, mut rng) = setup(48, 3);
        let rows = |dht: &RingDht<()>| -> Vec<_> {
            let row = |n: NodeRef<'_, ()>, k| (k, n.entry(k).copied(), n.resolve(k, &attachments));
            dht.iter().map(|n| n.keys().iter().map(|&k| row(n, k)).collect::<Vec<_>>()).collect()
        };
        let before = rows(&dht);
        let mut meter = Meter::new();
        assert!(dht.repair_sweep(&attachments, &dcache, &mut rng, &mut meter).is_empty());
        assert_eq!(meter.count(MessageKind::Refresh) as usize, dht.total_state());
        assert_eq!(rows(&dht), before);
    }
}
