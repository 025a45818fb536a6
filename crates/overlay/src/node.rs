//! Per-node overlay state, and the views a reader and a writer get of a
//! node together with its routing rows.

use std::collections::BTreeMap;

use bristle_netsim::attach::HostId;

use crate::addr::CachedAddr;
use crate::config::LEAF_RADIUS;
use crate::key::Key;

/// What one overlay node owns besides its routing rows, which live with
/// its overlay: a ring keeps every node's rows in one ring-wide arena.
/// [`NodeRef`] and [`NodeMut`] show a node with its rows.
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
    /// Records stored at this node (replica store).
    pub store: BTreeMap<Key, V>,
}

// A field added to a node fails the build here, not the benchmark: every
// cell of both rings' slabs holds one (DESIGN §13).
const _: () = assert!(std::mem::size_of::<NodeState<()>>() <= 40);

impl<V> NodeState<V> {
    /// Creates a node with an empty store.
    pub fn new(key: Key, host: HostId, capacity: u32) -> Self {
        NodeState { key, host, capacity, store: BTreeMap::new() }
    }
}

/// A node as a reader sees it: its own fields, and its routing rows as
/// two parallel arrays in ascending key order — `keys`, which a
/// forwarding hop scans, and `addrs`, of which it reads the one row it
/// chose. The leaf set is not stored: in key order it is the rows either
/// side of where the node's own key sorts ([`NodeRef::leaf_keys`]).
#[derive(Debug)]
pub struct NodeRef<'a, V> {
    /// The node's hash key.
    pub key: Key,
    /// The physical host embodying the node.
    pub host: HostId,
    /// Advertised capacity C_X.
    pub capacity: u32,
    /// Records stored at this node.
    pub store: &'a BTreeMap<Key, V>,
    keys: &'a [Key],
    addrs: &'a [CachedAddr],
}

impl<V> Clone for NodeRef<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for NodeRef<'_, V> {}

impl<'a, V> NodeRef<'a, V> {
    /// `node` with the rows `keys` (ascending, distinct, never the node's
    /// own key) and their addresses `addrs`.
    pub(crate) fn new(node: &'a NodeState<V>, keys: &'a [Key], addrs: &'a [CachedAddr]) -> Self {
        debug_assert_eq!(keys.len(), addrs.len());
        let NodeState { key, host, capacity, ref store } = *node;
        NodeRef { key, host, capacity, store, keys, addrs }
    }

    /// The keys of the routing rows, ascending.
    pub fn keys(&self) -> &'a [Key] {
        self.keys
    }

    /// The cached addresses of the routing rows, parallel to
    /// [`NodeRef::keys`].
    pub fn addrs(&self) -> &'a [CachedAddr] {
        self.addrs
    }

    /// The leaf set: up to [`LEAF_RADIUS`] nearest clockwise successors,
    /// nearest first, then as many counter-clockwise predecessors that
    /// are not already listed. Every build puts a node's nearest
    /// neighbours in its rows, so these are the rows either side of
    /// where its own key sorts, wrapping; on a ring too small for both
    /// radii a node is listed once, as a successor.
    pub fn leaf_keys(&self) -> impl Iterator<Item = Key> + 'a {
        let keys = self.keys;
        let n = keys.len();
        let me = keys.partition_point(|&k| k < self.key);
        let successors = LEAF_RADIUS.min(n);
        let predecessors = successors.min(n - successors);
        let cw = (0..successors).map(move |d| keys[(me + d) % n]);
        cw.chain((1..=predecessors).map(move |d| keys[(me + n - d) % n]))
    }

    /// Whether `other` appears in this node's routing state.
    pub fn knows(&self, other: Key) -> bool {
        self.keys.binary_search(&other).is_ok()
    }

    /// The cached address of `other`'s row, if it has one.
    pub fn entry(&self, other: Key) -> Option<&'a CachedAddr> {
        self.keys.binary_search(&other).ok().map(|i| &self.addrs[i])
    }

    /// Number of routing-state rows.
    pub fn state_size(&self) -> usize {
        self.keys.len()
    }
}

/// A node as a writer sees it: its store, and its rows' cached addresses
/// (which rows it has is its overlay's to change).
#[derive(Debug)]
pub struct NodeMut<'a, V> {
    /// Records stored at this node.
    pub store: &'a mut BTreeMap<Key, V>,
    keys: &'a [Key],
    addrs: &'a mut [CachedAddr],
}

impl<'a, V> NodeMut<'a, V> {
    /// `node` with the rows `keys` and their addresses `addrs`, as
    /// [`NodeRef::new`].
    pub(crate) fn new(
        node: &'a mut NodeState<V>,
        keys: &'a [Key],
        addrs: &'a mut [CachedAddr],
    ) -> Self {
        debug_assert_eq!(keys.len(), addrs.len());
        NodeMut { store: &mut node.store, keys, addrs }
    }

    /// The cached address of `other`'s row, to patch, if it has one.
    pub fn entry_mut(self, other: Key) -> Option<&'a mut CachedAddr> {
        self.keys.binary_search(&other).ok().map(|i| &mut self.addrs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NetAddr;
    use bristle_netsim::attach::Attachment;
    use bristle_netsim::graph::RouterId;

    fn node_with_rows(own: u64, keys: &[u64]) -> (NodeState<()>, Vec<Key>, Vec<CachedAddr>) {
        let keys: Vec<Key> = keys.iter().map(|&k| Key(k)).collect();
        let addrs = vec![CachedAddr { addr: None }; keys.len()];
        (NodeState::new(Key(own), HostId(0), 1), keys, addrs)
    }

    #[test]
    fn entries_are_found_by_key() {
        let (mut node, keys, mut addrs) = node_with_rows(1, &[7, 9]);
        let view = NodeRef::new(&node, &keys, &addrs);
        assert!(view.knows(Key(9)) && !view.knows(Key(8)));
        assert!(view.entry(Key(2)).is_none());
        assert_eq!(view.state_size(), 2);
        let addr =
            NetAddr { host: HostId(3), attachment: Attachment { router: RouterId(1), epoch: 0 } };
        NodeMut::new(&mut node, &keys, &mut addrs).entry_mut(Key(9)).unwrap().addr = Some(addr);
        assert!(NodeMut::new(&mut node, &keys, &mut addrs).entry_mut(Key(8)).is_none());
        assert_eq!(addrs, [CachedAddr { addr: None }, CachedAddr { addr: Some(addr) }]);
        let empty = NodeState::<()>::new(Key(1), HostId(0), 1);
        let view = NodeRef::new(&empty, &[], &[]);
        assert!(!view.knows(Key(2)));
        assert_eq!(view.leaf_keys().count(), 0);
    }

    /// The leaf set read off a node's position in its rows, wrapping past
    /// both ends of the key line.
    #[test]
    fn leaf_keys_are_the_rows_either_side_of_the_node() {
        let leaves = |keys: &[u64]| {
            let (node, keys, addrs) = node_with_rows(50, keys);
            NodeRef::new(&node, &keys, &addrs).leaf_keys().map(|k| k.0).collect::<Vec<_>>()
        };
        let ten = [5, 10, 20, 30, 40, 60, 70, 80, 90, 95];
        assert_eq!(leaves(&ten), [60, 70, 80, 90, 40, 30, 20, 10]);
        // Own key past every row: successors wrap to the start.
        let low = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(leaves(&low), [1, 2, 3, 4, 9, 8, 7, 6]);
        // Too few rows for both radii: each listed once, successors first.
        assert_eq!(leaves(&[10, 60, 70]), [60, 70, 10]);
        assert_eq!(leaves(&[10, 20, 60, 70, 80, 90]), [60, 70, 80, 90, 20, 10]);
        assert_eq!(leaves(&[60]), [60]);
    }
}
