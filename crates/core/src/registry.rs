//! Registration bookkeeping (paper §2.3.1, `register`).
//!
//! A node X that holds Y's state-pair registers its interest to Y, along
//! with its capacity `C_X`. Y therefore knows the set R(Y) of registrants
//! it must inform when it moves — the membership of Y's LDT. With the
//! HS-P2P replicating a node's state to O(log N) peers, |R(Y)| = O(log N).

use bristle_overlay::key::Key;

use crate::arena::KeyInterner;

/// One registered interested party: who, and how able.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registrant {
    /// The registrant's hash key.
    pub key: Key,
    /// The capacity `C_X` it reported when registering.
    pub capacity: u32,
}

impl Registrant {
    /// Convenience constructor.
    pub fn new(key: Key, capacity: u32) -> Registrant {
        Registrant { key, capacity }
    }
}

/// The system-wide registration state: for each target node, who has
/// registered interest in its movement.
///
/// Internally targets are interned to dense indices and registrant
/// lists live in a flat `Vec` — the per-target lookup on the LDT hot
/// path is one hash (the interner boundary) plus an array index. The
/// public API stays `Key`-based.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    targets: KeyInterner,
    lists: Vec<Vec<Registrant>>,
    /// Bumped by every call that adds or removes an edge.
    epoch: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `who` to `target` (idempotent; re-registration updates
    /// the reported capacity). Returns `true` if this was a new interest.
    pub fn register(&mut self, who: Registrant, target: Key) -> bool {
        let idx = self.targets.intern(target).index();
        if idx >= self.lists.len() {
            self.lists.resize_with(idx + 1, Vec::new);
        }
        let list = &mut self.lists[idx];
        match list.iter_mut().find(|r| r.key == who.key) {
            Some(existing) => {
                existing.capacity = who.capacity;
                false
            }
            None => {
                list.push(who);
                self.epoch += 1;
                true
            }
        }
    }

    /// Sizes the registrant lists for the edges about to be registered,
    /// given as one `target` per edge: each list is allocated once, at
    /// its final length. Targets are interned as they come, so a caller
    /// that registers the edges in this same order leaves [`Self::iter`]'s
    /// order as registering alone would.
    pub(crate) fn reserve_edges(&mut self, targets: impl IntoIterator<Item = Key>) {
        let mut counts: Vec<usize> = Vec::new();
        for target in targets {
            let idx = self.targets.intern(target).index();
            if idx >= counts.len() {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        if counts.len() > self.lists.len() {
            self.lists.reserve_exact(counts.len() - self.lists.len());
            self.lists.resize_with(counts.len(), Vec::new);
        }
        for (list, edges) in self.lists.iter_mut().zip(counts) {
            list.reserve_exact(edges);
        }
    }

    /// Removes `who`'s interest in `target`.
    pub fn deregister(&mut self, who: Key, target: Key) -> bool {
        let Some(list) = self.targets.get(target).and_then(|i| self.lists.get_mut(i.index()))
        else {
            return false;
        };
        let before = list.len();
        list.retain(|r| r.key != who);
        let removed = list.len() < before;
        self.epoch += removed as u64;
        removed
    }

    /// Removes `who` from every target's registrant list (the node left).
    pub fn remove_everywhere(&mut self, who: Key) -> usize {
        let mut removed = 0;
        for list in &mut self.lists {
            let before = list.len();
            list.retain(|r| r.key != who);
            removed += before - list.len();
        }
        self.epoch += (removed > 0) as u64;
        removed
    }

    /// Drops all interests *in* `target` (the target left).
    pub fn drop_target(&mut self, target: Key) -> usize {
        let Some(list) = self.targets.get(target).and_then(|i| self.lists.get_mut(i.index()))
        else {
            return 0;
        };
        let dropped = list.len();
        self.epoch += (dropped > 0) as u64;
        list.clear();
        dropped
    }

    /// Empties the registry and returns what it held. The empty one
    /// counts on from the old one's [`Self::epoch`], so a rebuild reads
    /// as a change even when it lands on the same number of edges.
    pub fn take(&mut self) -> Registry {
        let epoch = self.epoch + 1;
        std::mem::replace(self, Registry { epoch, ..Registry::default() })
    }

    /// A count that moves whenever the set of `(registrant, target)`
    /// edges does (a capacity update is not a change of edges), and
    /// never moves back: equal readings mean nothing registered or
    /// deregistered in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The registrants R(target), in registration order.
    pub fn registrants_of(&self, target: Key) -> &[Registrant] {
        self.targets
            .get(target)
            .and_then(|i| self.lists.get(i.index()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The targets `who` is registered to, other than itself, sorted:
    /// the LDTs `who` is a member of.
    pub fn targets_of(&self, who: Key) -> Vec<Key> {
        let mut targets: Vec<Key> = self
            .iter()
            .filter(|(target, regs)| *target != who && regs.iter().any(|r| r.key == who))
            .map(|(target, _)| target)
            .collect();
        targets.sort_unstable();
        targets
    }

    /// Total registrations across all targets.
    pub fn total_registrations(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Iterates `(target, registrants)` pairs with at least one
    /// registrant, in target-intern (first-registration) order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[Registrant])> + '_ {
        self.lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| (self.targets.key_of(crate::arena::NodeIdx(i as u32)), l.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_but_updates_capacity() {
        let mut reg = Registry::new();
        assert!(reg.register(Registrant::new(Key(1), 5), Key(9)));
        assert!(!reg.register(Registrant::new(Key(1), 8), Key(9)));
        let r = reg.registrants_of(Key(9));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].capacity, 8);
        assert_eq!(reg.total_registrations(), 1);
    }

    #[test]
    fn deregister_removes_interest() {
        let mut reg = Registry::new();
        reg.register(Registrant::new(Key(1), 5), Key(9));
        reg.register(Registrant::new(Key(2), 5), Key(9));
        assert!(reg.deregister(Key(1), Key(9)));
        assert_eq!(reg.registrants_of(Key(9)).len(), 1);
        assert!(!reg.deregister(Key(1), Key(9)));
        assert!(reg.deregister(Key(2), Key(9)));
        assert_eq!(reg.iter().count(), 0);
    }

    #[test]
    fn remove_everywhere_sweeps_all_targets() {
        let mut reg = Registry::new();
        reg.register(Registrant::new(Key(1), 5), Key(9));
        reg.register(Registrant::new(Key(1), 5), Key(10));
        reg.register(Registrant::new(Key(2), 5), Key(10));
        assert_eq!(reg.remove_everywhere(Key(1)), 2);
        assert_eq!(reg.registrants_of(Key(9)).len(), 0);
        assert_eq!(reg.registrants_of(Key(10)).len(), 1);
    }

    #[test]
    fn drop_target_clears_interest_list() {
        let mut reg = Registry::new();
        reg.register(Registrant::new(Key(1), 5), Key(9));
        reg.register(Registrant::new(Key(2), 6), Key(9));
        assert_eq!(reg.drop_target(Key(9)), 2);
        assert_eq!(reg.drop_target(Key(9)), 0);
        assert!(reg.registrants_of(Key(9)).is_empty());
    }

    /// Lists sized by `reserve_edges` and then filled in the same order
    /// hold exactly their edges, in the order registering alone gives.
    #[test]
    fn reserved_lists_are_exact_and_keep_registration_order() {
        let edges = [(1, 9), (2, 7), (1, 7), (3, 9), (2, 9), (4, 11), (3, 7)];
        let fill = |reg: &mut Registry| {
            for (who, target) in edges {
                reg.register(Registrant::new(Key(who), 5), Key(target));
            }
        };
        let (mut reserved, mut grown) = (Registry::new(), Registry::new());
        reserved.reserve_edges(edges.iter().map(|&(_, target)| Key(target)));
        fill(&mut reserved);
        fill(&mut grown);
        assert!(reserved.iter().eq(grown.iter()), "same targets, same order, same lists");
        assert!(reserved.lists.iter().all(|l| l.capacity() == l.len()), "no slack");
        assert_eq!(reserved.lists.capacity(), 3);
    }

    #[test]
    fn targets_of_lists_memberships_sorted_and_skips_self() {
        let mut reg = Registry::new();
        reg.register(Registrant::new(Key(1), 5), Key(10));
        reg.register(Registrant::new(Key(1), 5), Key(9));
        reg.register(Registrant::new(Key(1), 5), Key(1));
        reg.register(Registrant::new(Key(2), 5), Key(8));
        assert_eq!(reg.targets_of(Key(1)), vec![Key(9), Key(10)]);
        assert!(reg.targets_of(Key(3)).is_empty());
    }

    #[test]
    fn epoch_moves_with_the_edge_set_and_only_with_it() {
        let mut reg = Registry::new();
        let mut last = reg.epoch();
        let mut moved = |reg: &Registry| std::mem::replace(&mut last, reg.epoch()) < reg.epoch();
        reg.register(Registrant::new(Key(1), 5), Key(9));
        assert!(moved(&reg));
        reg.register(Registrant::new(Key(1), 8), Key(9));
        assert!(!moved(&reg), "a capacity update adds no edge");
        reg.register(Registrant::new(Key(2), 5), Key(9));
        reg.register(Registrant::new(Key(2), 5), Key(10));
        assert!(moved(&reg));
        assert!(!reg.deregister(Key(3), Key(9)) && !moved(&reg));
        assert!(reg.deregister(Key(1), Key(9)) && moved(&reg));
        assert!(reg.remove_everywhere(Key(3)) == 0 && !moved(&reg));
        assert!(reg.remove_everywhere(Key(2)) == 2 && moved(&reg));
        assert!(reg.drop_target(Key(9)) == 0 && !moved(&reg));
        reg.register(Registrant::new(Key(4), 5), Key(9));
        assert!(reg.drop_target(Key(9)) == 1 && moved(&reg));
        // A rebuild to the same edges is still a change.
        reg.register(Registrant::new(Key(4), 5), Key(9));
        let before = reg.epoch();
        let old = reg.take();
        assert_eq!(old.total_registrations(), 1);
        assert_eq!(reg.total_registrations(), 0);
        reg.register(Registrant::new(Key(4), 5), Key(9));
        assert!(reg.epoch() > before);
    }

    #[test]
    fn unknown_target_has_no_registrants() {
        let reg = Registry::new();
        assert!(reg.registrants_of(Key(404)).is_empty());
    }
}
