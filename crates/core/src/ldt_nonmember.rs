//! Non-member-only dissemination trees (the rejected design of §2.3).
//!
//! The paper contrasts its member-only LDT with a Scribe/IP-multicast-like
//! alternative that organizes the tree "by utilizing the nodes along the
//! routes from the leaves to the root": interested nodes are the leaves,
//! and every overlay node on the route from a leaf to the root is drafted
//! into the tree as a *non-member helper*. Each helper must then hold
//! location state for the tree's mobile node, which is what blows the
//! per-stationary-node responsibility up from `M/(N−M)·log N` to
//! `M/(N−M)·log² N` (Figure 3).
//!
//! We implement the design faithfully so Figure 3 can be reproduced as a
//! *measured* experiment, not just an analytic plot.

use std::collections::HashSet;

use bristle_netsim::attach::AttachmentMap;
use bristle_netsim::dijkstra::DistanceCache;
use bristle_overlay::key::Key;
use bristle_overlay::meter::Meter;
use bristle_overlay::ring::{RingDht, RingError};

/// A materialized non-member-only dissemination tree.
#[derive(Debug, Clone)]
pub struct NonMemberTree {
    /// The mobile node whose movement the tree disseminates.
    pub root: Key,
    /// The interested (leaf) members.
    pub members: Vec<Key>,
    /// Every node participating in the tree (root, members, helpers).
    pub participants: HashSet<Key>,
    /// Participants that never asked to be involved: interior overlay
    /// nodes drafted from the routes.
    pub helpers: HashSet<Key>,
    /// Directed edges `(child, parent)` pointing toward the root.
    pub edges: HashSet<(Key, Key)>,
}

impl NonMemberTree {
    /// Builds the tree from the union of overlay routes member → root.
    pub fn build<V>(
        dht: &RingDht<V>,
        root: Key,
        members: &[Key],
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
    ) -> Result<NonMemberTree, RingError> {
        let mut participants: HashSet<Key> = HashSet::new();
        let mut edges: HashSet<(Key, Key)> = HashSet::new();
        participants.insert(root);
        let mut scratch = Meter::new();
        for &m in members {
            participants.insert(m);
            let route = dht.route(m, root, attachments, dcache, &mut scratch)?;
            let mut prev = m;
            for &hop in &route.hops {
                // Edge child → parent: traffic flows root-ward on reverse
                // routes, so the member-side node is the child.
                edges.insert((prev, hop));
                participants.insert(hop);
                prev = hop;
                if hop == root {
                    break;
                }
            }
            // The owner of the root key terminates the route; attach it to
            // the root if they differ (the root key's owner stores for it).
            if prev != root {
                edges.insert((prev, root));
            }
        }
        let member_set: HashSet<Key> = members.iter().copied().collect();
        let helpers = participants
            .iter()
            .copied()
            .filter(|k| *k != root && !member_set.contains(k))
            .collect();
        Ok(NonMemberTree { root, members: members.to_vec(), participants, helpers, edges })
    }

    /// Total nodes drafted into the tree — the paper's `S(τ)`.
    pub fn size(&self) -> usize {
        self.participants.len()
    }

    /// Number of unwilling helpers.
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::rng::Pcg64;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use bristle_overlay::config::RingConfig;
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
    fn tree_contains_all_members_and_root() {
        let (dht, attachments, dcache, _rng) = setup(128, 1);
        let keys: Vec<Key> = dht.keys().collect();
        let root = keys[0];
        let members: Vec<Key> = (1..=10).map(|i| keys[i * 7]).collect();
        let tree = NonMemberTree::build(&dht, root, &members, &attachments, &dcache).unwrap();
        assert!(tree.participants.contains(&root));
        for m in &members {
            assert!(tree.participants.contains(m));
        }
        // With scrambled membership, routes are long enough to draft
        // helpers on a 128-node overlay.
        assert!(tree.helper_count() > 0, "expected interior helpers");
    }

    #[test]
    fn helpers_are_disjoint_from_members() {
        let (dht, attachments, dcache, _) = setup(96, 2);
        let keys: Vec<Key> = dht.keys().collect();
        let members: Vec<Key> = keys.iter().copied().skip(1).step_by(9).collect();
        let tree = NonMemberTree::build(&dht, keys[0], &members, &attachments, &dcache).unwrap();
        for h in &tree.helpers {
            assert!(!members.contains(h));
            assert_ne!(*h, keys[0]);
        }
        assert_eq!(tree.size(), tree.helpers.len() + tree.members.len() + 1);
    }

    #[test]
    fn non_member_tree_larger_than_membership() {
        // The whole point of Fig. 3: S(τ) ≫ |members| + 1.
        let (dht, attachments, dcache, _) = setup(256, 3);
        let keys: Vec<Key> = dht.keys().collect();
        let members: Vec<Key> = keys.iter().copied().skip(1).step_by(17).collect();
        let tree = NonMemberTree::build(&dht, keys[0], &members, &attachments, &dcache).unwrap();
        assert!(
            tree.size() as f64 >= (members.len() + 1) as f64 * 1.5,
            "size {} members {}",
            tree.size(),
            members.len()
        );
    }

    #[test]
    fn empty_membership_tree_is_just_root() {
        let (dht, attachments, dcache, _) = setup(32, 5);
        let root = dht.keys().next().unwrap();
        let tree = NonMemberTree::build(&dht, root, &[], &attachments, &dcache).unwrap();
        assert_eq!(tree.size(), 1);
        assert_eq!(tree.helper_count(), 0);
        assert!(tree.edges.is_empty());
    }
}
