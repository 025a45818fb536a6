//! A Pastry/Tapestry-style prefix-routing DHT.
//!
//! The ring DHT in [`crate::ring`] approaches keys clockwise — the
//! behavior Bristle's §3 clustered-naming analysis needs. Tornado itself
//! (and Pastry/Tapestry, which the paper also names as substrate
//! candidates) routes by **prefix correction** instead: each hop fixes
//! one more leading digit of the target key, and a key is owned by the
//! *numerically closest* node (either direction around the ring). This
//! module implements that family faithfully:
//!
//! * per-node state: a routing table with one entry per (prefix length,
//!   next digit) pair plus a leaf set of the numerically nearest
//!   neighbors on both sides;
//! * routing: prefer the table entry extending the shared prefix with
//!   the target; fall back to *any* known node strictly closer to the
//!   target (Pastry's "rare case"), which with exact leaf sets provably
//!   terminates at the owner;
//! * ownership: minimum ring distance, ties to the lower key.
//!
//! Having both families lets the ablation suite check that Bristle's
//! measured behavior is not an artifact of one routing geometry.

use std::collections::BTreeMap;
use std::ops::Bound;

use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::rng::Pcg64;

use crate::addr::{AddrHandle, CachedAddr, NetAddr, RowAddr};
use crate::config::{NeighborSelection, RingConfig, LEAF_RADIUS};
use crate::key::Key;
use crate::node::{NodeRef, NodeState};
use crate::ring::RingError;

/// A prefix-routing DHT over record type `V`.
#[derive(Debug, Clone)]
pub struct PrefixDht<V> {
    cfg: RingConfig,
    nodes: BTreeMap<u64, PrefixNode<V>>,
}

/// A node and its routing rows: their keys, ascending, their addresses,
/// and the learned entries those name.
#[derive(Debug, Clone)]
struct PrefixNode<V> {
    state: NodeState<V>,
    keys: Box<[Key]>,
    addrs: Box<[AddrHandle]>,
    learned: Box<[CachedAddr]>,
}

/// Length (in digits) of the longest common prefix of two keys, reading
/// from the most significant digit.
pub fn shared_prefix_digits(a: Key, b: Key, bits: u32) -> u32 {
    let diff = a.0 ^ b.0;
    if diff == 0 {
        return Key::levels(bits);
    }
    diff.leading_zeros() / bits
}

impl<V> PrefixDht<V> {
    /// Creates an empty overlay.
    pub fn new(cfg: RingConfig) -> Self {
        cfg.validate();
        assert_eq!(64 % cfg.bits_per_digit, 0, "prefix DHT needs digit-aligned keys");
        PrefixDht { cfg, nodes: BTreeMap::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `k` names a node.
    pub fn contains(&self, k: Key) -> bool {
        self.nodes.contains_key(&k.0)
    }

    /// Adds a node (tables built separately).
    pub fn insert(&mut self, key: Key, host: HostId, capacity: u32) -> Result<(), RingError> {
        if self.nodes.contains_key(&key.0) {
            return Err(RingError::DuplicateKey(key));
        }
        let state = NodeState::new(key, host, capacity);
        let (keys, addrs, learned) = Default::default();
        self.nodes.insert(key.0, PrefixNode { state, keys, addrs, learned });
        Ok(())
    }

    /// Removes a node.
    pub fn remove(&mut self, key: Key) -> Option<NodeState<V>> {
        self.nodes.remove(&key.0).map(|n| n.state)
    }

    /// Node state by key.
    pub fn node(&self, key: Key) -> Result<NodeRef<'_, V>, RingError> {
        let node = self.nodes.get(&key.0).ok_or(RingError::UnknownNode(key))?;
        Ok(NodeRef::new(&node.state, &node.keys, &node.addrs, &node.learned))
    }

    /// Iterator over node keys.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.nodes.keys().map(|&k| Key(k))
    }

    /// Total routing-state rows.
    pub fn total_state(&self) -> usize {
        self.nodes.values().map(|n| n.keys.len()).sum()
    }

    /// The **numerically closest** node to `k` (ties to the lower key) —
    /// prefix-family ownership.
    pub fn owner(&self, k: Key) -> Result<Key, RingError> {
        if self.nodes.is_empty() {
            return Err(RingError::Empty);
        }
        let above = self
            .nodes
            .range(k.0..)
            .next()
            .map(|(&key, _)| Key(key))
            .unwrap_or_else(|| Key(*self.nodes.keys().next().expect("non-empty")));
        let below = self
            .nodes
            .range(..=k.0)
            .next_back()
            .map(|(&key, _)| Key(key))
            .unwrap_or_else(|| Key(*self.nodes.keys().next_back().expect("non-empty")));
        let (da, db) = (k.ring_distance(above), k.ring_distance(below));
        Ok(if da < db || (da == db && above < below) { above } else { below })
    }

    /// Recomputes one node's routing table and leaf set.
    pub fn rebuild_node(
        &mut self,
        key: Key,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
    ) -> Result<usize, RingError> {
        let me = self.node(key)?;
        let my_router = attachments.router(me.host);
        let bits = self.cfg.bits_per_digit;
        let base = self.cfg.base();
        let levels = Key::levels(bits);
        let mut chosen: Vec<Key> = Vec::new();

        // Routing table: for each prefix length `l` and digit value `d`
        // differing from my own digit at position l, one node whose key
        // shares my first `l` digits and has digit `d` next.
        for level in 0..levels {
            let shift = 64 - (level + 1) * bits;
            let my_digit = (key.0 >> shift) & (base - 1);
            for d in 0..base {
                if d == my_digit {
                    continue;
                }
                // Candidate key range: my prefix, digit d, anything after.
                let prefix_mask = if level == 0 { 0 } else { u64::MAX << (64 - level * bits) };
                let start = (key.0 & prefix_mask) | (d << shift);
                let end = start | ((1u64 << shift) - 1);
                let mut cands = Vec::new();
                for (&k, _) in self.nodes.range((Bound::Included(start), Bound::Included(end))) {
                    if k != key.0 {
                        cands.push(Key(k));
                        if cands.len() == self.cfg.candidate_window {
                            break;
                        }
                    }
                }
                if cands.is_empty() {
                    continue;
                }
                let pick = match self.cfg.selection {
                    NeighborSelection::First => cands[0],
                    NeighborSelection::Random => *rng.choose(&cands),
                    NeighborSelection::Proximity => {
                        let mut best = cands[0];
                        let mut best_d = u64::MAX;
                        for &c in &cands {
                            let host = self.node(c)?.host;
                            let dist = dcache.distance(my_router, attachments.router(host));
                            if dist < best_d {
                                best_d = dist;
                                best = c;
                            }
                        }
                        best
                    }
                };
                chosen.push(pick);
            }
        }

        // Leaf set: nearest keys each side (numeric order, wrapping).
        let after = (Bound::Excluded(key.0), Bound::Unbounded);
        let max_leaves = LEAF_RADIUS.min(self.nodes.len().saturating_sub(1));
        let mut leaf_keys: Vec<Key> = Vec::with_capacity(max_leaves * 2);
        for (&k, _) in self.nodes.range(after).chain(self.nodes.range(..key.0)) {
            if leaf_keys.len() == max_leaves {
                break;
            }
            leaf_keys.push(Key(k));
        }
        let mut preds = Vec::with_capacity(max_leaves);
        for (&k, _) in self.nodes.range(..key.0).rev().chain(self.nodes.range(after).rev()) {
            if preds.len() == max_leaves {
                break;
            }
            if !leaf_keys.contains(&Key(k)) {
                preds.push(Key(k));
            }
        }
        leaf_keys.extend(preds);

        chosen.extend(leaf_keys);
        chosen.sort_unstable();
        chosen.dedup();
        let mut learned = Vec::new();
        let addrs = chosen
            .iter()
            .map(|&k| {
                let host = self.node(k)?.host;
                let current = || NetAddr::current(host, attachments);
                Ok(AddrHandle::name(host, attachments, &mut learned, current))
            })
            .collect::<Result<Box<[_]>, RingError>>()?;
        let count = chosen.len();
        let node = self.nodes.get_mut(&key.0).expect("known");
        (node.keys, node.addrs, node.learned) = (chosen.into(), addrs, learned.into());
        Ok(count)
    }

    /// Rebuilds every node's state.
    pub fn build_all_tables(
        &mut self,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
    ) {
        let keys: Vec<Key> = self.keys().collect();
        for k in keys {
            self.rebuild_node(k, attachments, dcache, rng).expect("known key");
        }
    }

    /// The next hop from `cur` toward `target`: the entry with the
    /// longest shared prefix among those strictly closer to the target,
    /// ties broken by numeric closeness. `None` when `cur` owns the key.
    pub fn next_hop(&self, cur: Key, target: Key) -> Result<Option<Key>, RingError> {
        if cur == self.owner(target)? {
            return Ok(None);
        }
        let node = self.node(cur)?;
        let bits = self.cfg.bits_per_digit;
        let my_dist = cur.ring_distance(target);
        let mut best: Option<(u32, u64, Key)> = None; // (prefix, dist, key)
        for &k in node.keys() {
            if !self.contains(k) {
                continue;
            }
            let dist = k.ring_distance(target);
            if dist >= my_dist {
                continue; // must make strict numeric progress
            }
            let prefix = shared_prefix_digits(k, target, bits);
            let better = match best {
                None => true,
                Some((bp, bd, _)) => prefix > bp || (prefix == bp && dist < bd),
            };
            if better {
                best = Some((prefix, dist, k));
            }
        }
        match best {
            Some((_, _, k)) => Ok(Some(k)),
            None => {
                // With exact leaf sets this is unreachable: if cur is not
                // the owner, its immediate neighbor toward the target is
                // strictly closer. Guard anyway for damaged overlays.
                Ok(None)
            }
        }
    }

    /// Routes from `src` to the owner of `target`; returns the hop list.
    pub fn route(&self, src: Key, target: Key) -> Result<Vec<Key>, RingError> {
        let mut cur = src;
        let mut hops = Vec::new();
        while let Some(next) = self.next_hop(cur, target)? {
            hops.push(next);
            cur = next;
            assert!(hops.len() <= self.nodes.len(), "prefix route did not converge");
        }
        Ok(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::graph::{Graph, RouterId};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (PrefixDht<()>, AttachmentMap, DistanceCache) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut g = Graph::with_vertices(2);
        g.add_edge(RouterId(0), RouterId(1), 1);
        let dcache = DistanceCache::new(Arc::new(g), 4);
        let mut attachments = AttachmentMap::new();
        let cfg = RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() };
        let mut dht = PrefixDht::new(cfg);
        for _ in 0..n {
            let host = attachments.attach_new(RouterId(0));
            loop {
                let k = Key::random(&mut rng);
                if dht.insert(k, host, 1).is_ok() {
                    break;
                }
            }
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng);
        (dht, attachments, dcache)
    }

    #[test]
    fn shared_prefix_math() {
        assert_eq!(shared_prefix_digits(Key(0), Key(0), 2), 32);
        assert_eq!(shared_prefix_digits(Key(0), Key(1), 2), 31);
        assert_eq!(shared_prefix_digits(Key(0), Key(1 << 63), 2), 0);
        assert_eq!(shared_prefix_digits(Key(0b1100 << 60), Key(0b1101 << 60), 2), 1);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let (dht, _, _) = setup(100, 1);
        let mut rng = Pcg64::seed_from_u64(2);
        for _ in 0..200 {
            let t = Key::random(&mut rng);
            let owner = dht.owner(t).unwrap();
            let best = dht.keys().map(|k| (t.ring_distance(k), k)).min().unwrap();
            assert_eq!(t.ring_distance(owner), best.0);
        }
    }

    #[test]
    fn routes_terminate_at_owner() {
        let (dht, _, _) = setup(150, 3);
        let keys: Vec<Key> = dht.keys().collect();
        let mut rng = Pcg64::seed_from_u64(4);
        for _ in 0..300 {
            let src = *rng.choose(&keys);
            let t = Key::random(&mut rng);
            let hops = dht.route(src, t).unwrap();
            let terminus = hops.last().copied().unwrap_or(src);
            assert_eq!(terminus, dht.owner(t).unwrap());
        }
    }

    #[test]
    fn hops_scale_logarithmically() {
        let avg = |n: usize, seed: u64| {
            let (dht, _, _) = setup(n, seed);
            let keys: Vec<Key> = dht.keys().collect();
            let mut rng = Pcg64::seed_from_u64(seed + 99);
            let mut total = 0usize;
            for _ in 0..300 {
                let src = *rng.choose(&keys);
                total += dht.route(src, Key::random(&mut rng)).unwrap().len();
            }
            total as f64 / 300.0
        };
        let (small, large) = (avg(64, 5), avg(512, 6));
        assert!(large < small * 2.5, "8x nodes, hops {small} -> {large}");
    }

    #[test]
    fn prefix_progress_dominates_routing() {
        // Along any route, the shared prefix with the target never
        // shrinks, and numeric distance strictly shrinks.
        let (dht, _, _) = setup(128, 7);
        let keys: Vec<Key> = dht.keys().collect();
        let mut rng = Pcg64::seed_from_u64(8);
        for _ in 0..100 {
            let src = *rng.choose(&keys);
            let t = Key::random(&mut rng);
            let mut dist = src.ring_distance(t);
            for hop in dht.route(src, t).unwrap() {
                let nd = hop.ring_distance(t);
                assert!(nd < dist, "numeric distance must strictly shrink");
                dist = nd;
            }
        }
    }

    /// Every node's rows ascend and carry each row's current address, and
    /// its leaf set read off its position in them is its nearest keys
    /// each side — on rings of 2–9 nodes too, where a node is listed
    /// once, as a successor.
    #[test]
    fn rows_ascend_and_the_leaf_set_is_the_nearest_keys() {
        for n in (1..=2 * LEAF_RADIUS + 1).chain([40]) {
            let (dht, attachments, _) = setup(n, 20 + n as u64);
            let ring: Vec<Key> = dht.keys().collect();
            let radius = LEAF_RADIUS.min(n - 1);
            for (i, &key) in ring.iter().enumerate() {
                let node = dht.node(key).unwrap();
                assert!(node.keys().windows(2).all(|w| w[0] < w[1]), "{n}: rows of {key}");
                for &k in node.keys() {
                    let host = dht.node(k).unwrap().host;
                    let current = NetAddr::current(host, &attachments);
                    assert_eq!(node.resolve(k, &attachments), Some(current));
                }
                let mut leaves: Vec<Key> = (1..=radius).map(|d| ring[(i + d) % n]).collect();
                let preds: Vec<Key> = (1..n)
                    .map(|d| ring[(i + n - d) % n])
                    .filter(|k| !leaves.contains(k))
                    .take(radius)
                    .collect();
                leaves.extend(preds);
                assert_eq!(node.leaf_keys().collect::<Vec<_>>(), leaves, "{n}: leaves of {key}");
            }
        }
    }

    #[test]
    fn state_size_is_logarithmic() {
        let (dht, _, _) = setup(256, 9);
        let avg = dht.total_state() as f64 / dht.len() as f64;
        // ~log4(256)=4 populated rows × 3 entries + 8 leaves ≈ 20.
        assert!(avg > 8.0 && avg < 64.0, "{avg}");
    }

    #[test]
    fn single_node_owns_all() {
        let mut dht: PrefixDht<()> = PrefixDht::new(RingConfig::tornado());
        dht.insert(Key(7), HostId(0), 1).unwrap();
        assert_eq!(dht.owner(Key(u64::MAX)).unwrap(), Key(7));
        assert!(dht.route(Key(7), Key(0)).unwrap().is_empty());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut dht: PrefixDht<()> = PrefixDht::new(RingConfig::tornado());
        dht.insert(Key(7), HostId(0), 1).unwrap();
        assert_eq!(dht.insert(Key(7), HostId(1), 1), Err(RingError::DuplicateKey(Key(7))));
    }

    #[test]
    #[should_panic(expected = "digit-aligned")]
    fn misaligned_digit_width_rejected() {
        let cfg = RingConfig { bits_per_digit: 3, ..RingConfig::tornado() };
        let _: PrefixDht<()> = PrefixDht::new(cfg);
    }
}
