//! Registration bookkeeping (paper §2.3.1, `register`).
//!
//! A node X that holds Y's state-pair registers its interest to Y, along
//! with its capacity `C_X`. Y therefore knows the set R(Y) of registrants
//! it must inform when it moves — the membership of Y's LDT. With the
//! HS-P2P replicating a node's state to O(log N) peers, |R(Y)| = O(log N).
//!
//! R(·) lives in the node-index space of the one [`KeyInterner`] the
//! registry owns for the whole system: an 8-byte `Edge` names its holder
//! by [`NodeIdx`], a dense slot map finds a target's list by its index, and
//! the `Key`-based API hands out [`Registrant`]s by value.

use bristle_overlay::key::Key;

use crate::arena::{KeyInterner, NodeIdx};

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

/// One stored registration: the holder, and the `C_X` its frame reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// The registrant's index.
    pub holder: NodeIdx,
    /// The capacity it reported.
    pub capacity: u32,
}

const _: () = assert!(std::mem::size_of::<Edge>() == 8);

/// A slot-map entry for a target with no list.
const NO_LIST: u32 = u32::MAX;

/// R(·)'s edges without their keys: what [`Registry::take`] hands back.
#[derive(Debug, Clone, Default)]
pub struct Edges {
    /// Indexed by target [`NodeIdx`]: its position in `lists` (one list a key).
    slot: Vec<u32>,
    /// Each target and its exact-size list, in first-registration order.
    lists: Vec<(NodeIdx, Box<[Edge]>)>,
}

impl Edges {
    /// R(`target`), in registration order.
    pub(crate) fn list(&self, target: NodeIdx) -> &[Edge] {
        self.slot(target).map_or(&[], |s| &self.lists[s].1)
    }

    fn slot(&self, target: NodeIdx) -> Option<usize> {
        self.slot.get(target.index()).filter(|&&s| s != NO_LIST).map(|&s| s as usize)
    }

    /// `(target, registrants)` pairs with at least one registrant, in
    /// first-registration order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeIdx, &[Edge])> + '_ {
        self.lists.iter().filter(|(_, l)| !l.is_empty()).map(|(t, l)| (*t, &l[..]))
    }
}

/// Removes `holder` from `list`, reallocating it only if it was there.
fn remove(list: &mut Box<[Edge]>, holder: NodeIdx) -> bool {
    let found = list.iter().any(|e| e.holder == holder);
    if found {
        *list = list.iter().copied().filter(|e| e.holder != holder).collect();
    }
    found
}

/// The system-wide registration state: for each target node, who has
/// registered interest in its movement.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Every admitted node's and registered holder's index (append-only).
    pub(crate) keys: KeyInterner,
    pub(crate) edges: Edges,
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
        let holder = self.keys.intern(who.key);
        let target = self.keys.intern(target);
        self.register_at(Edge { holder, capacity: who.capacity }, target)
    }

    /// [`Self::register`] for interned ends.
    pub(crate) fn register_at(&mut self, edge: Edge, target: NodeIdx) -> bool {
        let (t, edges) = (target.index(), &mut self.edges);
        edges.slot.resize(edges.slot.len().max(t + 1), NO_LIST);
        if edges.slot[t] == NO_LIST {
            edges.slot[t] = edges.lists.len() as u32;
            edges.lists.push((target, Box::default()));
        }
        let list = &mut edges.lists[edges.slot[t] as usize].1;
        if let Some(existing) = list.iter_mut().find(|e| e.holder == edge.holder) {
            existing.capacity = edge.capacity;
            return false;
        }
        *list = list.iter().copied().chain([edge]).collect();
        self.epoch += 1;
        true
    }

    /// Releases the spare capacity a rebuild left in the slot map and order.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.edges.slot.shrink_to_fit();
        self.edges.lists.shrink_to_fit();
    }

    fn list_mut(&mut self, target: Key) -> Option<&mut Box<[Edge]>> {
        let s = self.edges.slot(self.keys.get(target)?)?;
        Some(&mut self.edges.lists[s].1)
    }

    /// Removes `who`'s interest in `target`.
    pub fn deregister(&mut self, who: Key, target: Key) -> bool {
        let (Some(holder), Some(list)) = (self.keys.get(who), self.list_mut(target)) else {
            return false;
        };
        let removed = remove(list, holder);
        self.epoch += removed as u64;
        removed
    }

    /// Removes `who` from every target's registrant list (the node left).
    pub fn remove_everywhere(&mut self, who: Key) -> usize {
        let Some(holder) = self.keys.get(who) else { return 0 };
        let lists = self.edges.lists.iter_mut();
        let removed: usize = lists.map(|(_, l)| remove(l, holder) as usize).sum();
        self.epoch += (removed > 0) as u64;
        removed
    }

    /// Drops all interests *in* `target` (the target left), and the
    /// list's allocation with them.
    pub fn drop_target(&mut self, target: Key) -> usize {
        let Some(list) = self.list_mut(target) else { return 0 };
        let dropped = std::mem::take(list).len();
        self.epoch += (dropped > 0) as u64;
        dropped
    }

    /// Empties R(·) and returns its edges; the interner stays. The
    /// registry counts on from its old [`Self::epoch`], so a rebuild
    /// reads as a change even when it lands on the same number of edges.
    pub fn take(&mut self) -> Edges {
        self.epoch += 1;
        std::mem::take(&mut self.edges)
    }

    /// A count that moves whenever the set of `(registrant, target)`
    /// edges does (a capacity update is not a change of edges), and
    /// never moves back: equal readings mean nothing registered or
    /// deregistered in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// R(`target`)'s edges, in registration order.
    pub(crate) fn edges_of(&self, target: Key) -> &[Edge] {
        self.keys.get(target).map_or(&[], |t| self.edges.list(t))
    }

    /// The registrant an edge names.
    pub(crate) fn registrant(&self, edge: Edge) -> Registrant {
        Registrant::new(self.keys.key_of(edge.holder), edge.capacity)
    }

    /// The registrants R(target), in registration order.
    pub fn registrants_of(
        &self,
        target: Key,
    ) -> impl ExactSizeIterator<Item = Registrant> + Clone + '_ {
        self.edges_of(target).iter().map(|&e| self.registrant(e))
    }

    /// The targets `who` is registered to, other than itself, sorted:
    /// the LDTs `who` is a member of.
    pub fn targets_of(&self, who: Key) -> Vec<Key> {
        let Some(h) = self.keys.get(who) else { return Vec::new() };
        let held = self.edges.iter().filter(|(t, l)| *t != h && l.iter().any(|e| e.holder == h));
        let mut targets: Vec<Key> = held.map(|(t, _)| self.keys.key_of(t)).collect();
        targets.sort_unstable();
        targets
    }

    /// Total registrations across all targets.
    pub fn total_registrations(&self) -> usize {
        self.edges.lists.iter().map(|(_, l)| l.len()).sum()
    }

    /// Iterates `(target, registrants)` pairs with at least one
    /// registrant, in first-registration order.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (Key, impl ExactSizeIterator<Item = Registrant> + Clone + '_)> + '_
    {
        self.edges.iter().map(|(t, l)| (self.keys.key_of(t), l.iter().map(|&e| self.registrant(e))))
    }
}

#[cfg(test)]
mod tests {
    use bristle_netsim::rng::Pcg64;
    use bristle_netsim::transit_stub::TransitStubConfig;

    use super::*;
    use crate::system::BristleBuilder;

    type Lists = Vec<(Key, Vec<Registrant>)>;

    /// What `iter` yields, collected.
    fn snapshot(reg: &Registry) -> Lists {
        reg.iter().map(|(t, regs)| (t, regs.collect())).collect()
    }

    /// Taken edges, resolved through the registry that kept the keys.
    fn resolve(reg: &Registry, edges: &Edges) -> Lists {
        let list = |l: &[Edge]| l.iter().map(|&e| reg.registrant(e)).collect();
        edges.iter().map(|(t, l)| (reg.keys.key_of(t), list(l))).collect()
    }

    /// The heap bytes R(`target`)'s list owns.
    fn owned(reg: &Registry, target: Key) -> usize {
        let slot = reg.keys.get(target).and_then(|t| reg.edges.slot.get(t.index()));
        let list = slot.filter(|&&s| s != NO_LIST).map(|&s| &reg.edges.lists[s as usize].1);
        list.map_or(0, |l| std::mem::size_of_val(&l[..]))
    }

    #[test]
    fn register_is_idempotent_but_updates_capacity() {
        let mut reg = Registry::new();
        assert!(reg.register(Registrant::new(Key(1), 5), Key(9)));
        assert!(!reg.register(Registrant::new(Key(1), 8), Key(9)));
        let r: Vec<Registrant> = reg.registrants_of(Key(9)).collect();
        assert_eq!(r, [Registrant::new(Key(1), 8)]);
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
    fn drop_target_clears_interest_list_and_its_allocation() {
        let mut reg = Registry::new();
        reg.register(Registrant::new(Key(1), 5), Key(9));
        reg.register(Registrant::new(Key(2), 6), Key(9));
        assert!(owned(&reg, Key(9)) > 0);
        assert_eq!(reg.drop_target(Key(9)), 2);
        assert_eq!(reg.drop_target(Key(9)), 0);
        assert_eq!(reg.registrants_of(Key(9)).len(), 0);
        assert_eq!(owned(&reg, Key(9)), 0);
    }

    /// A funeral and a departure each leave the gone target's R(·) list
    /// owning no allocation.
    #[test]
    fn a_gone_targets_list_owns_no_allocation() {
        let build = BristleBuilder::new(8).stationary_nodes(30).mobile_nodes(12);
        let mut sys = build.topology(TransitStubConfig::tiny()).build().unwrap();
        let (dead, left) = (sys.mobile_keys()[0], sys.mobile_keys()[1]);
        assert!(owned(&sys.registry, dead) > 0 && owned(&sys.registry, left) > 0);
        sys.confirm_dead(dead).unwrap();
        assert_eq!(owned(&sys.registry, dead), 0, "after the funeral");
        sys.leave_node(left).unwrap();
        assert_eq!(owned(&sys.registry, left), 0, "after the departure");
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
        assert_eq!(old.iter().map(|(_, l)| l.len()).sum::<usize>(), 1);
        assert_eq!(reg.total_registrations(), 0);
        reg.register(Registrant::new(Key(4), 5), Key(9));
        assert!(reg.epoch() > before);
    }

    #[test]
    fn unknown_target_has_no_registrants() {
        let reg = Registry::new();
        assert_eq!(reg.registrants_of(Key(404)).len(), 0);
    }

    /// R(·) as a list of `(target, registrants)` in first-registration
    /// order, keyed by `Key` throughout: the layout before the index
    /// space, kept as the reference semantics.
    #[derive(Default)]
    struct Oracle {
        lists: Lists,
        epoch: u64,
    }

    impl Oracle {
        fn list(&mut self, target: Key) -> Option<&mut Vec<Registrant>> {
            self.lists.iter_mut().find(|(t, _)| *t == target).map(|(_, l)| l)
        }

        fn register(&mut self, who: Registrant, target: Key) -> bool {
            if self.list(target).is_none() {
                self.lists.push((target, Vec::new()));
            }
            let list = self.list(target).unwrap();
            if let Some(r) = list.iter_mut().find(|r| r.key == who.key) {
                r.capacity = who.capacity;
                return false;
            }
            list.push(who);
            self.epoch += 1;
            true
        }

        fn deregister(&mut self, who: Key, target: Key) -> bool {
            let Some(list) = self.list(target) else { return false };
            let before = list.len();
            list.retain(|r| r.key != who);
            let removed = list.len() < before;
            self.epoch += removed as u64;
            removed
        }

        fn remove_everywhere(&mut self, who: Key) -> usize {
            let mut removed = 0;
            for (_, list) in &mut self.lists {
                let before = list.len();
                list.retain(|r| r.key != who);
                removed += before - list.len();
            }
            self.epoch += (removed > 0) as u64;
            removed
        }

        fn drop_target(&mut self, target: Key) -> usize {
            let dropped = self.list(target).map_or(0, |l| std::mem::take(l).len());
            self.epoch += (dropped > 0) as u64;
            dropped
        }

        fn take(&mut self) -> Lists {
            self.epoch += 1;
            let taken = std::mem::take(&mut self.lists);
            taken.into_iter().filter(|(_, l)| !l.is_empty()).collect()
        }

        fn snapshot(&self) -> Lists {
            self.lists.iter().filter(|(_, l)| !l.is_empty()).cloned().collect()
        }

        fn targets_of(&self, who: Key) -> Vec<Key> {
            let member =
                |(t, l): &&(Key, Vec<Registrant>)| *t != who && l.iter().any(|r| r.key == who);
            let mut targets: Vec<Key> = self.lists.iter().filter(member).map(|(t, _)| *t).collect();
            targets.sort_unstable();
            targets
        }
    }

    /// Seeded interleavings of every mutator, new edges and capacity
    /// updates, over admitted nodes and holders never admitted: the
    /// index-space registry answers every read as the reference does.
    #[test]
    fn the_index_space_registry_matches_the_key_space_reference() {
        for seed in [8u64, 27] {
            let mut rng = Pcg64::seed_from_u64(seed);
            let (mut reg, mut oracle) = (Registry::new(), Oracle::default());
            // Admitted nodes are interned before anything registers, as
            // the system does; strangers first appear in a registration.
            let admitted: Vec<Key> = (0..24).map(|i| Key(0xA000 + i * 7919)).collect();
            for &k in &admitted {
                reg.keys.intern(k);
            }
            let strangers: Vec<Key> = (0..8).map(|i| Key(0xEC11_0000 + i)).collect();
            for step in 0..3000 {
                let who =
                    if rng.chance(0.2) { *rng.choose(&strangers) } else { *rng.choose(&admitted) };
                let target = *rng.choose(&admitted);
                let capacity = rng.range_inclusive(1, 15) as u32;
                let at = format!("seed {seed} step {step}");
                match rng.below(100) {
                    0..=54 => assert_eq!(
                        reg.register(Registrant::new(who, capacity), target),
                        oracle.register(Registrant::new(who, capacity), target),
                        "{at}: register"
                    ),
                    55..=84 => assert_eq!(
                        reg.deregister(who, target),
                        oracle.deregister(who, target),
                        "{at}: deregister"
                    ),
                    85..=92 => assert_eq!(
                        reg.remove_everywhere(who),
                        oracle.remove_everywhere(who),
                        "{at}: remove_everywhere"
                    ),
                    93..=98 => assert_eq!(
                        reg.drop_target(target),
                        oracle.drop_target(target),
                        "{at}: drop_target"
                    ),
                    _ => {
                        let taken = reg.take();
                        assert_eq!(resolve(&reg, &taken), oracle.take(), "{at}: take");
                    }
                }
                assert_eq!(snapshot(&reg), oracle.snapshot(), "{at}: iter and list order");
                assert_eq!(reg.epoch(), oracle.epoch, "{at}: epoch");
                let total: usize = oracle.lists.iter().map(|(_, l)| l.len()).sum();
                assert_eq!(reg.total_registrations(), total, "{at}: total");
                for &k in admitted.iter().chain(&strangers) {
                    assert_eq!(reg.targets_of(k), oracle.targets_of(k), "{at}: targets_of {k}");
                }
            }
        }
    }
}
