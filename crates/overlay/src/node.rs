//! Per-node overlay state.

use std::collections::BTreeMap;

use bristle_netsim::attach::HostId;

use crate::addr::StatePair;
use crate::key::Key;

/// The full state one overlay node maintains.
///
/// `V` is the type of records the node stores on behalf of the overlay
/// (Bristle instantiates it with location records).
#[derive(Debug, Clone)]
pub struct NodeState<V> {
    /// The node's hash key — its overlay identity.
    pub key: Key,
    /// The physical host embodying the node.
    pub host: HostId,
    /// Advertised capacity C_X (paper §2.3.1): max connections, bandwidth,
    /// ... — a unitless ability score used by LDT scheduling.
    pub capacity: u32,
    /// Routing-state rows: finger-table and leaf-set neighbors, deduplicated.
    pub entries: Vec<StatePair>,
    /// Keys of the leaf-set subset of `entries` (cw successors then ccw
    /// predecessors), kept separately for owner checks and repair.
    pub leaf_keys: Vec<Key>,
    /// Records stored at this node (replica store).
    pub store: BTreeMap<Key, V>,
}

impl<V> NodeState<V> {
    /// Creates a node with empty routing state and store.
    pub fn new(key: Key, host: HostId, capacity: u32) -> Self {
        NodeState {
            key,
            host,
            capacity,
            entries: Vec::new(),
            leaf_keys: Vec::new(),
            store: BTreeMap::new(),
        }
    }

    /// Whether `other` appears in this node's routing state.
    pub fn knows(&self, other: Key) -> bool {
        self.entries.iter().any(|e| e.key == other)
    }

    /// Looks up the state-pair for `other`, if present.
    pub fn entry(&self, other: Key) -> Option<&StatePair> {
        self.entries.iter().find(|e| e.key == other)
    }

    /// Mutable access to the state-pair for `other`, if present.
    pub fn entry_mut(&mut self, other: Key) -> Option<&mut StatePair> {
        self.entries.iter_mut().find(|e| e.key == other)
    }

    /// Inserts or replaces a state-pair (keyed by `pair.key`).
    pub fn upsert_entry(&mut self, pair: StatePair) {
        match self.entry_mut(pair.key) {
            Some(slot) => *slot = pair,
            None => self.entries.push(pair),
        }
    }

    /// Number of routing-state rows.
    pub fn state_size(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_replaces_by_key() {
        let mut n: NodeState<()> = NodeState::new(Key(1), HostId(0), 1);
        n.upsert_entry(StatePair::unresolved(Key(7)));
        assert!(n.knows(Key(7)));
        assert_eq!(n.state_size(), 1);
        assert!(n.entry(Key(7)).unwrap().addr.is_none());
        // Upsert with same key must replace, not duplicate.
        n.upsert_entry(StatePair::unresolved(Key(7)));
        assert_eq!(n.state_size(), 1);
        n.upsert_entry(StatePair::unresolved(Key(9)));
        assert_eq!(n.state_size(), 2);
    }

    #[test]
    fn entry_lookup_misses() {
        let n: NodeState<()> = NodeState::new(Key(1), HostId(0), 1);
        assert!(!n.knows(Key(2)));
        assert!(n.entry(Key(2)).is_none());
    }
}
