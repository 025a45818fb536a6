//! Location dissemination trees (member-only LDTs, paper §2.3).
//!
//! Every mobile node Y is associated with an LDT whose membership is Y
//! plus its registrants R(Y). When Y moves, its new address flows down the
//! tree: Y sends to the heads chosen by the Figure 4 advertisement
//! algorithm, each head forwards to the heads of its delegated sublist,
//! and so on. The tree is therefore *not* stored anywhere — it is the
//! trace of the recursive advertisement — but materializing it lets the
//! simulator measure exactly what the paper measures: depth and level
//! distribution (Fig. 8a), per-member assignment (Fig. 8b), and per-edge
//! physical cost (Fig. 9).

use bristle_overlay::key::Key;

use crate::advertise::{plan_advertisement, AdvertiseStep};
use crate::registry::Registrant;

/// One node of a materialized LDT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdtNode {
    /// The member's hash key.
    pub key: Key,
    /// The capacity it reported at registration.
    pub capacity: u32,
    /// Tree level; the root is level 1 (paper Fig. 8a's convention).
    pub level: u32,
    /// Index of the parent in [`Ldt::nodes`], `None` for the root.
    pub parent: Option<u32>,
    /// Number of members in the partition this node was handed (head
    /// included) — Fig. 8(b)'s "number of nodes assigned". For the root
    /// this is the full registrant count.
    pub assigned: usize,
}

/// A materialized member-only location dissemination tree.
///
/// # Examples
///
/// ```
/// use bristle_core::ldt::Ldt;
/// use bristle_core::registry::Registrant;
/// use bristle_overlay::key::Key;
///
/// let root = Registrant::new(Key(0), 8);
/// let members: Vec<Registrant> =
///     (1..=8).map(|i| Registrant::new(Key(i), 8)).collect();
///
/// // Capable members → a wide, shallow tree.
/// let tree = Ldt::build(root, &members, 1);
/// assert_eq!(tree.len(), 9);
/// assert_eq!(tree.depth(), 2);
///
/// // Members with one unit each → Fig. 8(a)'s degenerate chain.
/// let weak: Vec<Registrant> =
///     (1..=8).map(|i| Registrant::new(Key(i), 1)).collect();
/// let chain = Ldt::build(Registrant::new(Key(0), 1), &weak, 1);
/// assert_eq!(chain.depth(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct Ldt {
    nodes: Vec<LdtNode>,
}

impl Ldt {
    /// Builds the LDT for `root` (the mobile node, with its own capacity)
    /// over its registrants, with message unit cost `unit_cost` (Fig. 4's
    /// `v`). A member's available capacity `Avail_i` is its capacity: no
    /// run loads a node with other work, so Fig. 4's `Used_i` is zero.
    pub fn build(root: Registrant, registrants: &[Registrant], unit_cost: u32) -> Ldt {
        let mut tree = Ldt {
            nodes: vec![LdtNode {
                key: root.key,
                capacity: root.capacity,
                level: 1,
                parent: None,
                assigned: registrants.len(),
            }],
        };
        tree.graft(0, registrants.to_vec(), unit_cost);
        tree
    }

    /// Hangs `list` below the member at `at` by the recursive Fig. 4
    /// partitioning: each parent hands its list to the heads
    /// [`plan_advertisement`] picks for its capacity, and each head does
    /// the same with the sublist it was delegated. Parents precede their
    /// children in `nodes`.
    fn graft(&mut self, at: u32, list: Vec<Registrant>, unit_cost: u32) {
        // Work stack of (parent index, list that parent must cover).
        let mut stack: Vec<(u32, Vec<Registrant>)> = vec![(at, list)];
        while let Some((parent_idx, list)) = stack.pop() {
            if list.is_empty() {
                continue;
            }
            let parent = self.nodes[parent_idx as usize];
            let steps: Vec<AdvertiseStep> = plan_advertisement(&list, parent.capacity, unit_cost);
            for step in steps {
                self.nodes.push(LdtNode {
                    key: step.head.key,
                    capacity: step.head.capacity,
                    level: parent.level + 1,
                    parent: Some(parent_idx),
                    assigned: step.partition_size(),
                });
                stack.push(((self.nodes.len() - 1) as u32, step.delegated));
            }
        }
    }

    /// All tree nodes; index 0 is the root.
    pub fn nodes(&self) -> &[LdtNode] {
        &self.nodes
    }

    /// The root node (the mobile node the tree belongs to).
    pub fn root(&self) -> &LdtNode {
        &self.nodes[0]
    }

    /// Total members (root + registrants).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The deepest level present (root-only trees have depth 1).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(1)
    }

    /// Members per level, `histogram[l - 1]` = number of level-`l` nodes.
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.depth() as usize];
        for n in &self.nodes {
            hist[(n.level - 1) as usize] += 1;
        }
        hist
    }

    /// Iterates the tree's `(parent key, child key)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (Key, Key)> + '_ {
        self.nodes.iter().filter_map(move |n| n.parent.map(|p| (self.nodes[p as usize].key, n.key)))
    }

    /// Number of edges (= members − 1).
    pub fn edge_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Sums `cost(parent, child)` over all edges; returns `(total, edges)`.
    ///
    /// The paper's Fig. 9 metric feeds the physical shortest-path weight
    /// between the two members' attachment routers in here.
    pub fn edge_cost_sum(&self, mut cost: impl FnMut(Key, Key) -> u64) -> (u64, usize) {
        let mut total = 0u64;
        let mut count = 0usize;
        for (p, c) in self.edges() {
            total += cost(p, c);
            count += 1;
        }
        (total, count)
    }

    /// Looks a member up by key.
    pub fn member(&self, key: Key) -> Option<&LdtNode> {
        self.nodes.iter().find(|n| n.key == key)
    }

    /// Whether `key` is a member of this tree.
    pub fn contains(&self, key: Key) -> bool {
        self.member(key).is_some()
    }

    /// Checks the dissemination invariant: index 0 is the unique root
    /// and every other member's parent chain terminates there (no
    /// orphans, no cycles, no out-of-range parents).
    pub fn all_reachable_from_root(&self) -> bool {
        if self.nodes.is_empty() || self.nodes[0].parent.is_some() {
            return false;
        }
        for i in 1..self.nodes.len() {
            let mut cur = i;
            let mut steps = 0usize;
            while let Some(p) = self.nodes[cur].parent {
                cur = p as usize;
                if cur >= self.nodes.len() {
                    return false;
                }
                steps += 1;
                if steps > self.nodes.len() {
                    return false; // cycle
                }
            }
            if cur != 0 {
                return false;
            }
        }
        true
    }

    /// Removes the confirmed-dead member `dead` and re-grafts its
    /// orphaned subtree under `dead`'s parent via the same
    /// capacity-aware advertisement partitioning (Fig. 4) that built
    /// the tree, so the repair keeps capable survivors near the root.
    ///
    /// Returns `None` when `dead` is not a member or is the root (a
    /// dead root dissolves the whole tree — the caller handles that).
    /// On success every surviving member stays in the tree and
    /// [`Ldt::all_reachable_from_root`] holds again.
    pub fn heal(&mut self, dead: Key, unit_cost: u32) -> Option<LdtHeal> {
        let dead_idx = self.nodes.iter().position(|n| n.key == dead)?;
        if dead_idx == 0 {
            return None;
        }
        // Mark the dead subtree in one forward pass (parents always
        // precede children in `nodes`, an invariant of the build loop
        // that the rebuild below preserves).
        let mut in_subtree = vec![false; self.nodes.len()];
        in_subtree[dead_idx] = true;
        for i in dead_idx + 1..self.nodes.len() {
            if let Some(p) = self.nodes[i].parent {
                in_subtree[i] = in_subtree[p as usize];
            }
        }
        let graft_idx = self.nodes[dead_idx].parent.expect("non-root has a parent") as usize;
        let orphans: Vec<Registrant> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| in_subtree[i] && i != dead_idx)
            .map(|(_, n)| Registrant::new(n.key, n.capacity))
            .collect();

        // Rebuild the kept prefix with remapped parent indices. The
        // remap is monotone, so parent-precedes-child survives.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut kept: Vec<LdtNode> = Vec::with_capacity(self.nodes.len() - 1);
        for (i, n) in self.nodes.iter().enumerate() {
            if in_subtree[i] {
                continue;
            }
            remap[i] = kept.len() as u32;
            let mut node = *n;
            node.parent = n.parent.map(|p| remap[p as usize]);
            kept.push(node);
        }
        // Every kept ancestor of the graft point loses exactly one
        // member from its partition: the dead node (its orphaned
        // descendants re-attach below the same ancestors).
        let mut cur = Some(remap[graft_idx] as usize);
        while let Some(i) = cur {
            kept[i].assigned = kept[i].assigned.saturating_sub(1);
            cur = kept[i].parent.map(|p| p as usize);
        }
        self.nodes = kept;

        // Re-graft the orphans under the dead node's parent with the
        // same recursive partitioning the original build used.
        let report = LdtHeal {
            dead,
            orphans: orphans.len(),
            graft_parent: self.nodes[remap[graft_idx] as usize].key,
        };
        self.graft(remap[graft_idx], orphans, unit_cost);
        Some(report)
    }
}

/// Outcome of one [`Ldt::heal`] repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdtHeal {
    /// The member that was removed.
    pub dead: Key,
    /// How many orphaned descendants were re-grafted.
    pub orphans: usize,
    /// The surviving member the orphans were re-attached under.
    pub graft_parent: Key,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs(caps: &[u32]) -> Vec<Registrant> {
        // Keys 1.. to keep the root key (0) distinct.
        caps.iter().enumerate().map(|(i, &c)| Registrant::new(Key(1 + i as u64), c)).collect()
    }

    fn root(cap: u32) -> Registrant {
        Registrant::new(Key(0), cap)
    }

    #[test]
    fn tree_covers_every_registrant_exactly_once() {
        let members = regs(&[3, 7, 1, 9, 4, 4, 2, 8, 6, 5]);
        let tree = Ldt::build(root(5), &members, 1);
        assert_eq!(tree.len(), members.len() + 1);
        let mut keys: Vec<Key> = tree.nodes().iter().map(|n| n.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), tree.len(), "no duplicates");
        for m in &members {
            assert!(tree.member(m.key).is_some());
        }
    }

    #[test]
    fn unit_capacity_everywhere_degenerates_to_chain() {
        // Avail − v ≤ 0 at every node → each node hands everything to one
        // head → a chain of depth |R| + 1 (paper Fig. 8a at MAX = 1).
        let members = regs(&[1; 8]);
        let tree = Ldt::build(root(1), &members, 1);
        assert_eq!(tree.depth(), 9);
        assert_eq!(tree.level_histogram(), vec![1; 9]);
    }

    #[test]
    fn high_capacity_gives_shallow_tree() {
        let members = regs(&[15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        let tree = Ldt::build(root(15), &members, 1);
        // Root fans out 15 ways directly: depth 2.
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.level_histogram(), vec![1, 15]);
    }

    #[test]
    fn mixed_capacity_depth_between_extremes() {
        let members = regs(&[4, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1]);
        let tree = Ldt::build(root(4), &members, 1);
        let d = tree.depth();
        assert!(d > 2 && d < 13, "depth {d}");
    }

    #[test]
    fn workload_lengthens_tree() {
        // The same members with 7 of their 8 units taken by other work.
        let free = Ldt::build(root(8), &regs(&[8; 8]), 1);
        let busy = Ldt::build(root(1), &regs(&[1; 8]), 1);
        assert!(busy.depth() > free.depth(), "busy {} vs free {}", busy.depth(), free.depth());
    }

    #[test]
    fn levels_are_parent_plus_one() {
        let members = regs(&[5, 3, 8, 2, 9, 1, 7]);
        let tree = Ldt::build(root(3), &members, 1);
        for n in tree.nodes() {
            match n.parent {
                None => assert_eq!(n.level, 1),
                Some(p) => assert_eq!(n.level, tree.nodes()[p as usize].level + 1),
            }
        }
    }

    #[test]
    fn edges_connect_all_members() {
        let members = regs(&[5, 3, 8, 2, 9, 1, 7]);
        let tree = Ldt::build(root(3), &members, 1);
        assert_eq!(tree.edge_count(), members.len());
        // Every non-root node appears exactly once as a child.
        let mut children: Vec<Key> = tree.edges().map(|(_, c)| c).collect();
        children.sort_unstable();
        children.dedup();
        assert_eq!(children.len(), members.len());
    }

    #[test]
    fn edge_cost_sum_accumulates() {
        let members = regs(&[2, 2, 2]);
        let tree = Ldt::build(root(10), &members, 1);
        let (total, count) = tree.edge_cost_sum(|_, _| 7);
        assert_eq!(count, 3);
        assert_eq!(total, 21);
    }

    #[test]
    fn empty_registrants_root_only() {
        let tree = Ldt::build(root(5), &[], 1);
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.edge_count(), 0);
        assert_eq!(tree.root().assigned, 0);
    }

    #[test]
    fn heads_have_higher_capacity_than_delegated_on_average() {
        // The algorithm routes dissemination work through capable nodes:
        // average capacity must not increase with depth.
        let caps: Vec<u32> = (1..=15).collect();
        let members = regs(&caps);
        let tree = Ldt::build(root(6), &members, 1);
        let hist = tree.level_histogram();
        if hist.len() >= 3 {
            let avg_at = |lvl: u32| {
                let v: Vec<u32> = tree
                    .nodes()
                    .iter()
                    .filter(|n| n.level == lvl && n.parent.is_some())
                    .map(|n| n.capacity)
                    .collect();
                v.iter().sum::<u32>() as f64 / v.len() as f64
            };
            assert!(avg_at(2) >= avg_at(tree.depth()), "capable nodes sit higher");
        }
    }

    #[test]
    fn heal_regrafts_orphans_and_keeps_everyone_reachable() {
        let members = regs(&[3, 7, 1, 9, 4, 4, 2, 8, 6, 5]);
        let mut tree = Ldt::build(root(2), &members, 1);
        assert!(tree.all_reachable_from_root());
        // Kill an interior member (one with children, if any exists;
        // otherwise any non-root member still exercises the path).
        let victim = tree
            .edges()
            .map(|(p, _)| p)
            .find(|&p| p != Key(0))
            .unwrap_or_else(|| tree.nodes()[1].key);
        let before_len = tree.len();
        let report = tree.heal(victim, 1).expect("member heals");
        assert_eq!(report.dead, victim);
        assert_eq!(tree.len(), before_len - 1);
        assert!(tree.member(victim).is_none(), "dead member removed");
        assert!(tree.all_reachable_from_root(), "repair restores the invariant");
        for m in &members {
            if m.key != victim {
                assert!(tree.contains(m.key), "survivor {:?} kept", m.key);
            }
        }
        // Levels still consistent after the re-graft.
        for n in tree.nodes() {
            match n.parent {
                None => assert_eq!(n.level, 1),
                Some(p) => assert_eq!(n.level, tree.nodes()[p as usize].level + 1),
            }
        }
        assert_eq!(tree.root().assigned, members.len() - 1, "root partition shrank by one");
    }

    #[test]
    fn heal_leaf_has_no_orphans() {
        let members = regs(&[5, 5, 5]);
        let mut tree = Ldt::build(root(8), &members, 1);
        let leaf = tree
            .nodes()
            .iter()
            .map(|n| n.key)
            .find(|&k| k != Key(0) && tree.edges().all(|(p, _)| p != k))
            .expect("a leaf exists");
        let report = tree.heal(leaf, 1).expect("leaf heals");
        assert_eq!(report.orphans, 0);
        assert!(tree.all_reachable_from_root());
    }

    #[test]
    fn heal_root_or_stranger_is_refused() {
        let members = regs(&[5, 5]);
        let mut tree = Ldt::build(root(8), &members, 1);
        assert_eq!(tree.heal(Key(0), 1), None, "a dead root dissolves the tree");
        assert_eq!(tree.heal(Key(999), 1), None, "not a member");
        assert_eq!(tree.len(), 3, "refused heals change nothing");
    }

    #[test]
    fn heal_chain_interior_reattaches_deep_subtree() {
        // Unit capacities force a chain; killing the second link orphans
        // the entire tail, which must re-graft under the root.
        let members = regs(&[1; 6]);
        let mut tree = Ldt::build(root(1), &members, 1);
        assert_eq!(tree.depth(), 7);
        let second = tree.nodes().iter().find(|n| n.level == 2).expect("chain link").key;
        let report = tree.heal(second, 1).expect("heals");
        assert_eq!(report.orphans, 5, "the whole tail was orphaned");
        assert_eq!(report.graft_parent, Key(0));
        assert!(tree.all_reachable_from_root());
        assert_eq!(tree.len(), 6);
        assert_eq!(tree.depth(), 6, "chain re-forms one link shorter");
    }
}
