//! Per-node overlay state, and the views a reader and a writer get of a
//! node together with its routing rows.

use std::collections::BTreeMap;
use std::fmt;

use bristle_netsim::attach::{AttachmentMap, HostId};

use crate::addr::{AddrHandle, CachedAddr, NetAddr, RowAddr};
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
/// chose. `A` is the ring's row address ([`RowAddr`]): an [`AddrHandle`]
/// (4 B) on a ring whose peers can move, naming a fixed peer's host or a
/// movable peer's entry in the ring's learned table, and zero bytes on
/// one whose peers do not ([`crate::addr::NoAddr`]). The leaf set is not
/// stored: in key order it is the rows either side of where the node's
/// own key sorts ([`NodeRef::leaf_keys`]).
pub struct NodeRef<'a, V, A = AddrHandle> {
    /// The node's hash key.
    pub key: Key,
    /// The physical host embodying the node.
    pub host: HostId,
    /// Advertised capacity C_X.
    pub capacity: u32,
    /// Records stored at this node.
    pub store: &'a BTreeMap<Key, V>,
    keys: &'a [Key],
    addrs: &'a [A],
    /// The ring's learned table, which `addrs` index into.
    learned: &'a [CachedAddr],
}

impl<V, A> Clone for NodeRef<'_, V, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V, A> Copy for NodeRef<'_, V, A> {}

// By hand: the learned table is the whole ring's.
impl<V: fmt::Debug, A: fmt::Debug> fmt::Debug for NodeRef<'_, V, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef")
            .field("key", &self.key)
            .field("host", &self.host)
            .field("capacity", &self.capacity)
            .field("store", &self.store)
            .field("keys", &self.keys)
            .field("addrs", &self.addrs)
            .finish_non_exhaustive()
    }
}

impl<'a, V, A> NodeRef<'a, V, A> {
    /// `node` with the rows `keys` (ascending, distinct, never the node's
    /// own key), their addresses `addrs` and the ring's learned table.
    pub(crate) fn new(
        node: &'a NodeState<V>,
        keys: &'a [Key],
        addrs: &'a [A],
        learned: &'a [CachedAddr],
    ) -> Self {
        debug_assert_eq!(keys.len(), addrs.len());
        let NodeState { key, host, capacity, ref store } = *node;
        NodeRef { key, host, capacity, store, keys, addrs, learned }
    }

    /// The keys of the routing rows, ascending.
    pub fn keys(&self) -> &'a [Key] {
        self.keys
    }

    /// The row addresses of the routing rows, parallel to
    /// [`NodeRef::keys`].
    pub fn addrs(&self) -> &'a [A] {
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

    /// Number of routing-state rows.
    pub fn state_size(&self) -> usize {
        self.keys.len()
    }
}

impl<'a, V, A: RowAddr> NodeRef<'a, V, A> {
    /// The learned address of `other`'s row: `None` when the node has no
    /// row for `other`, or a row naming a peer that never moves.
    pub fn entry(&self, other: Key) -> Option<&'a CachedAddr> {
        let i = self.keys.binary_search(&other).ok()?;
        self.addrs[i].entry().map(|at| &self.learned[at])
    }

    /// The address `other`'s row resolves to: a fixed peer's current one,
    /// or the one learned for a peer that can move (`None` while null, or
    /// without a row for `other`).
    pub fn resolve(&self, other: Key, attachments: &AttachmentMap) -> Option<NetAddr> {
        let row = self.addrs[self.keys.binary_search(&other).ok()?];
        match row.fixed_host() {
            Some(host) => Some(NetAddr::current(host, attachments)),
            None => self.learned[row.entry()?].addr,
        }
    }
}

/// A node as a writer sees it: its store, and its rows' learned
/// addresses (which rows it has is its overlay's to change).
pub struct NodeMut<'a, V, A = AddrHandle> {
    /// Records stored at this node.
    pub store: &'a mut BTreeMap<Key, V>,
    keys: &'a [Key],
    addrs: &'a [A],
    learned: &'a mut [CachedAddr],
}

impl<V: fmt::Debug, A: fmt::Debug> fmt::Debug for NodeMut<'_, V, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeMut")
            .field("store", &self.store)
            .field("keys", &self.keys)
            .field("addrs", &self.addrs)
            .finish_non_exhaustive()
    }
}

impl<'a, V, A: RowAddr> NodeMut<'a, V, A> {
    /// `node` with the rows `keys`, their addresses `addrs` and the
    /// ring's learned table, as [`NodeRef::new`].
    pub(crate) fn new(
        node: &'a mut NodeState<V>,
        keys: &'a [Key],
        addrs: &'a [A],
        learned: &'a mut [CachedAddr],
    ) -> Self {
        debug_assert_eq!(keys.len(), addrs.len());
        NodeMut { store: &mut node.store, keys, addrs, learned }
    }

    /// The learned address of `other`'s row, to patch: `None` as for
    /// [`NodeRef::entry`].
    pub fn entry_mut(self, other: Key) -> Option<&'a mut CachedAddr> {
        let i = self.keys.binary_search(&other).ok()?;
        self.addrs[i].entry().map(|at| &mut self.learned[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::attach::Attachment;
    use bristle_netsim::graph::RouterId;

    /// A node with rows for `keys`, each naming a fixed peer on host 0.
    fn node_with_rows(own: u64, keys: &[u64]) -> (NodeState<()>, Vec<Key>, Vec<AddrHandle>) {
        let keys: Vec<Key> = keys.iter().map(|&k| Key(k)).collect();
        let addrs = vec![AddrHandle::fixed(HostId(0)); keys.len()];
        (NodeState::new(Key(own), HostId(0), 1), keys, addrs)
    }

    #[test]
    fn entries_are_found_by_key() {
        let (mut node, keys, mut addrs) = node_with_rows(1, &[7, 9]);
        addrs[1] = AddrHandle::learned(1);
        let mut learned = vec![CachedAddr { addr: None }; 2];
        let view = NodeRef::new(&node, &keys, &addrs, &learned);
        assert!(view.knows(Key(9)) && !view.knows(Key(8)));
        assert!(view.entry(Key(2)).is_none());
        assert!(view.entry(Key(7)).is_none(), "a fixed peer's row has no entry");
        assert_eq!(view.entry(Key(9)), Some(&CachedAddr { addr: None }));
        assert_eq!(view.state_size(), 2);
        let addr =
            NetAddr { host: HostId(3), attachment: Attachment { router: RouterId(1), epoch: 0 } };
        let row = NodeMut::new(&mut node, &keys, &addrs, &mut learned).entry_mut(Key(9));
        row.unwrap().addr = Some(addr);
        assert!(NodeMut::new(&mut node, &keys, &addrs, &mut learned).entry_mut(Key(8)).is_none());
        assert!(NodeMut::new(&mut node, &keys, &addrs, &mut learned).entry_mut(Key(7)).is_none());
        assert_eq!(learned, [CachedAddr { addr: None }, CachedAddr { addr: Some(addr) }]);
        let empty = NodeState::<()>::new(Key(1), HostId(0), 1);
        let view = NodeRef::<_, AddrHandle>::new(&empty, &[], &[], &[]);
        assert!(!view.knows(Key(2)));
        assert_eq!(view.leaf_keys().count(), 0);
    }

    /// The leaf set read off a node's position in its rows, wrapping past
    /// both ends of the key line.
    #[test]
    fn leaf_keys_are_the_rows_either_side_of_the_node() {
        let leaves = |keys: &[u64]| {
            let (node, keys, addrs) = node_with_rows(50, keys);
            NodeRef::new(&node, &keys, &addrs, &[]).leaf_keys().map(|k| k.0).collect::<Vec<_>>()
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
