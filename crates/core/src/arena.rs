//! Dense node indices and flat per-node arenas.
//!
//! Every `HashMap<Key, _>` lookup on a per-node hot path pays a hash and
//! a probe; at 10⁵–10⁶ nodes those misses dominate the simulation's
//! profile. This module provides the scale engine's alternative: a
//! [`KeyInterner`] assigns each key a dense [`NodeIdx`] once, and hot
//! state lives in [`NodeArena`]s — flat `Vec`s indexed by that id. The
//! interner's hash map is the *only* hash on the path (the API
//! boundary, and a one-multiply [`KeyHasher`](bristle_overlay::key::KeyHasher)
//! at that); everything behind it is an array index.
//!
//! Indices are append-only: a node that leaves or dies keeps its
//! [`NodeIdx`] forever (its arena slots are vacated, the id is never
//! reused). That makes indices stable across churn — a driver can hold
//! an index through a funeral and a rejoin — and keeps shard
//! assignments deterministic under the parallel tick paths.

use std::collections::HashMap;

use bristle_overlay::key::{Key, KeyHashBuilder};

/// A dense, stable per-node index (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for slicing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Key ⇄ dense-index bijection. Interning is idempotent; indices are
/// never reused or reordered.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    idx_of: HashMap<Key, NodeIdx, KeyHashBuilder>,
    keys: Vec<Key>,
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index for `key`, assigning the next dense id on first sight.
    pub fn intern(&mut self, key: Key) -> NodeIdx {
        if let Some(&idx) = self.idx_of.get(&key) {
            return idx;
        }
        let idx = NodeIdx(u32::try_from(self.keys.len()).expect("more than u32::MAX nodes"));
        self.idx_of.insert(key, idx);
        self.keys.push(key);
        idx
    }

    /// The index for `key`, if it was ever interned.
    #[inline]
    pub fn get(&self, key: Key) -> Option<NodeIdx> {
        self.idx_of.get(&key).copied()
    }

    /// The key owning `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was never assigned by this interner.
    #[inline]
    pub fn key_of(&self, idx: NodeIdx) -> Key {
        self.keys[idx.index()]
    }

    /// Number of distinct keys ever interned (== the next fresh index).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A flat arena of per-node state indexed by [`NodeIdx`]: a `Vec` of
/// slots plus an occupancy count. Absent nodes cost one `None`.
#[derive(Debug, Clone)]
pub struct NodeArena<T> {
    slots: Vec<Option<T>>,
    occupied: usize,
}

impl<T> Default for NodeArena<T> {
    fn default() -> Self {
        NodeArena { slots: Vec::new(), occupied: 0 }
    }
}

impl<T> NodeArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    fn grow_to(&mut self, idx: NodeIdx) {
        if idx.index() >= self.slots.len() {
            self.slots.resize_with(idx.index() + 1, || None);
        }
    }

    /// Installs `value` at `idx`, returning the previous occupant.
    pub fn insert(&mut self, idx: NodeIdx, value: T) -> Option<T> {
        self.grow_to(idx);
        let old = self.slots[idx.index()].replace(value);
        if old.is_none() {
            self.occupied += 1;
        }
        old
    }

    /// Vacates the slot at `idx`, returning its occupant.
    pub fn remove(&mut self, idx: NodeIdx) -> Option<T> {
        let old = self.slots.get_mut(idx.index()).and_then(Option::take);
        if old.is_some() {
            self.occupied -= 1;
        }
        old
    }

    /// The occupant of `idx`, if any.
    #[inline]
    pub fn get(&self, idx: NodeIdx) -> Option<&T> {
        self.slots.get(idx.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the occupant of `idx`, if any.
    #[inline]
    pub fn get_mut(&mut self, idx: NodeIdx) -> Option<&mut T> {
        self.slots.get_mut(idx.index()).and_then(Option::as_mut)
    }

    /// Whether the slot at `idx` is occupied.
    #[inline]
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.get(idx).is_some()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Iterates occupied slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeIdx, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (NodeIdx(i as u32), v)))
    }

    /// Iterates occupied slots mutably, in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeIdx, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (NodeIdx(i as u32), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_idempotent_and_dense() {
        let mut int = KeyInterner::new();
        let a = int.intern(Key(100));
        let b = int.intern(Key(200));
        assert_eq!(int.intern(Key(100)), a, "re-interning returns the same id");
        assert_eq!((a, b), (NodeIdx(0), NodeIdx(1)), "ids are dense in intern order");
        assert_eq!(int.key_of(a), Key(100));
        assert_eq!(int.key_of(b), Key(200));
        assert_eq!(int.get(Key(300)), None);
        assert_eq!(int.len(), 2);
    }

    #[test]
    fn arena_insert_get_remove() {
        let mut arena: NodeArena<&str> = NodeArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.insert(NodeIdx(3), "c"), None);
        assert_eq!(arena.insert(NodeIdx(0), "a"), None);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(NodeIdx(3)), Some(&"c"));
        assert_eq!(arena.get(NodeIdx(1)), None, "gap slots read as absent");
        assert_eq!(arena.get(NodeIdx(99)), None, "past the end reads as absent");
        assert_eq!(arena.insert(NodeIdx(3), "C"), Some("c"), "re-insert replaces");
        assert_eq!(arena.len(), 2, "replacement does not change occupancy");
        assert_eq!(arena.remove(NodeIdx(3)), Some("C"));
        assert_eq!(arena.remove(NodeIdx(3)), None, "double-remove is a no-op");
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn arena_iterates_in_index_order() {
        let mut arena: NodeArena<u32> = NodeArena::new();
        for i in [4u32, 1, 9, 2] {
            arena.insert(NodeIdx(i), i * 10);
        }
        arena.remove(NodeIdx(9));
        let seen: Vec<(NodeIdx, u32)> = arena.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(seen, vec![(NodeIdx(1), 10), (NodeIdx(2), 20), (NodeIdx(4), 40)]);
        for (_, v) in arena.iter_mut() {
            *v += 1;
        }
        assert_eq!(arena.get(NodeIdx(1)), Some(&11));
    }

    #[test]
    fn departed_indices_stay_stable() {
        let mut int = KeyInterner::new();
        let mut arena: NodeArena<u8> = NodeArena::new();
        let a = int.intern(Key(7));
        arena.insert(a, 1);
        arena.remove(a); // the node leaves...
        let again = int.intern(Key(7)); // ...and later rejoins
        assert_eq!(again, a, "the id survives departure");
        arena.insert(again, 2);
        assert_eq!(arena.get(a), Some(&2));
    }
}
