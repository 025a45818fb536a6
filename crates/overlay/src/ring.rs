//! The ring DHT: the HS-P2P substrate both Bristle layers run on.
//!
//! This is the in-tree stand-in for Tornado (the authors' own HS-P2P that
//! Bristle is built on — see DESIGN.md §2 for the substitution argument).
//! It is a ring-structured overlay:
//!
//! * Every node owns the arc of key space ending at its key; a key's
//!   *owner* is its clockwise successor node.
//! * Routing is **monotone clockwise**: each hop moves strictly closer to
//!   the target (never overshooting), which is exactly the property the
//!   paper's §3 clustered-naming analysis (eq. 1, the ∇ ≥ 1/2 bound)
//!   requires.
//! * Routing state per node: a *leaf set* (the [`LEAF_RADIUS`] nearest
//!   successors and predecessors) plus *digit fingers* — for every level
//!   `i` and digit value `j ∈ 1..2^b`, one neighbor in the key interval
//!   `[x + j·2^(b·i), x + (j+1)·2^(b·i))`. With base 4 this yields
//!   O(log₄ N) routes, matching the ≈5–6 hop magnitudes of the paper's
//!   Fig. 7 at N = 2 000.
//! * Finger slots choose among several key-wise-equivalent candidates by a
//!   [`NeighborSelection`] policy; `Proximity` picks the physically
//!   nearest, giving the locality properties the paper measures in Fig. 9.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::hash::Hasher;

use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;

use crate::addr::{AddrHandle, CachedAddr, NetAddr, RowAddr};
use crate::config::{NeighborSelection, RingConfig, LEAF_RADIUS};
use crate::key::{Key, KeyHasher};
use crate::node::{NodeMut, NodeRef, NodeState};

/// Errors from structural DHT operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// A node with that key is already present.
    DuplicateKey(Key),
    /// The referenced node does not exist.
    UnknownNode(Key),
    /// The overlay has no nodes at all.
    Empty,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            RingError::UnknownNode(k) => write!(f, "unknown node {k}"),
            RingError::Empty => write!(f, "overlay is empty"),
        }
    }
}

impl std::error::Error for RingError {}

/// The ring DHT over record type `V`, each routing row holding its
/// peer's key and an `A` ([`RowAddr`]): by default an [`AddrHandle`],
/// which names a fixed peer's host or a movable peer's learned
/// [`CachedAddr`], the one thing a move makes stale; a ring of peers
/// that never move holds [`crate::addr::NoAddr`], zero bytes, and so its
/// keys alone.
///
/// # Examples
///
/// ```
/// use bristle_netsim::attach::HostId;
/// use bristle_overlay::config::RingConfig;
/// use bristle_overlay::key::Key;
/// use bristle_overlay::ring::RingDht;
///
/// let mut dht: RingDht<String> = RingDht::new(RingConfig::tornado());
/// dht.insert(Key(100), HostId(0), 1).unwrap();
/// dht.insert(Key(200), HostId(1), 1).unwrap();
///
/// // Ownership is the clockwise successor (inclusive), wrapping.
/// assert_eq!(dht.owner(Key(150)).unwrap(), Key(200));
/// assert_eq!(dht.owner(Key(201)).unwrap(), Key(100));
/// assert_eq!(dht.replica_set(Key(150), 2).unwrap(), vec![Key(200), Key(100)]);
/// ```
#[derive(Debug, Clone)]
pub struct RingDht<V, A = AddrHandle> {
    cfg: RingConfig,
    /// Key order → slab position, for the ordered queries alone: `keys`,
    /// `iter`, successors and predecessors, replicas, leaf sets and the
    /// bulk build's snapshot. A lookup by key never descends it.
    index: BTreeMap<u64, Slot>,
    /// Node states, addressed by key: a node sits in the first cell at or
    /// after its key's [`home`] that no other live node holds, probing
    /// linearly and wrapping. A departed node leaves a tombstone, so the
    /// probe chains that ran through its cell still reach their keys.
    slab: Vec<Cell<V>>,
    /// Cells live or tombstoned. An insert that would take this past
    /// 7/8 of the slab first lays the slab out afresh.
    used: usize,
    /// Bumped by every node added or removed.
    epoch: u64,
    /// Every live node's routing rows, each node's a [`Span`] of it.
    rows: Arena<A>,
}

/// A live node's position in the slab. It stays valid until the ring's
/// next insert (which may lay the slab out afresh and move every node)
/// or that node's removal; route walks carry it so each hop resolves a
/// node once, and must not insert while they hold one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Slot(u32);

#[derive(Debug, Clone)]
enum Cell<V> {
    /// Untouched since the slab was last laid out: ends every probe.
    Empty,
    /// Held a node that has left: a probe passes over it, an insert may
    /// take it.
    Tomb,
    Live(Occupant<V>),
}

// Every cell of both rings' slabs is this size (DESIGN §13): an occupant
// and a tag word, since no field of the occupant has a spare value.
const _: () = assert!(std::mem::size_of::<Cell<()>>() <= 64);

impl<V> Cell<V> {
    fn live(&self) -> Option<&Occupant<V>> {
        match self {
            Cell::Live(o) => Some(o),
            Cell::Empty | Cell::Tomb => None,
        }
    }

    fn live_mut(&mut self) -> Option<&mut Occupant<V>> {
        match self {
            Cell::Live(o) => Some(o),
            Cell::Empty | Cell::Tomb => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Occupant<V> {
    /// Key of the live node counter-clockwise of this one (its own key on
    /// a one-node ring): the node owns `(pred, key]`.
    pred: Key,
    /// Where the node's routing rows are in the ring's [`Arena`].
    span: Span,
    node: NodeState<V>,
}

/// A node's rows in its ring's [`Arena`]: `keys[start..start + len]`
/// and the same run of `addrs`, with the learned entries they name.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Every node's routing rows, ring-wide, in compressed-sparse-row form:
/// two parallel arrays, `keys` (which a forwarding hop scans, 8 bytes a
/// row) and `addrs` (of which it reads the one row it chose), and each
/// live node's [`Span`] of them, its rows in ascending key order; beside
/// them `learned`, one entry for each row naming a peer that can move,
/// owned by that row alone. The whole-ring build lays the arena out
/// afresh in key order, each array at its final size; `rebuild` and
/// `upsert_entry` append a node's new run with fresh entries and leave
/// its old run dead, and as soon as dead rows outnumber live ones, or
/// dead entries live ones, the live runs are copied into a fresh arena.
/// So no node owns an allocation, and churn never holds more than twice
/// the live rows or entries. Where `A` is zero-sized `addrs` allocates
/// nothing, and where it learns nothing neither does `learned`.
#[derive(Debug, Clone)]
struct Arena<A> {
    keys: Vec<Key>,
    addrs: Vec<A>,
    learned: Vec<CachedAddr>,
    /// Rows no live node's span covers.
    dead: usize,
    /// Entries no live row names.
    dead_learned: usize,
}

impl<A: RowAddr> Arena<A> {
    fn with_capacity(rows: usize, learned: usize) -> Self {
        Arena {
            keys: Vec::with_capacity(rows),
            addrs: Vec::with_capacity(rows),
            learned: Vec::with_capacity(learned),
            dead: 0,
            dead_learned: 0,
        }
    }

    /// Rows some live node's span covers.
    fn live(&self) -> usize {
        self.keys.len() - self.dead
    }

    /// Entries some live row names.
    fn live_learned(&self) -> usize {
        self.learned.len() - self.dead_learned
    }

    /// The span of the rows appended since the arena held `from`. The one
    /// place a row's position is narrowed, so the `u32` bound is checked
    /// here.
    fn since(&self, from: usize) -> Span {
        u32::try_from(self.keys.len()).expect("more than u32::MAX routing rows");
        Span { start: from as u32, len: (self.keys.len() - from) as u32 }
    }

    /// Row `i`: its key, its address, and its entry if it names one.
    fn row(&self, i: usize) -> (Key, A, Option<CachedAddr>) {
        let row = self.addrs[i];
        (self.keys[i], row, row.entry().map(|at| self.learned[at]))
    }

    /// The address a copy of `row` appended here takes: `row` itself, or
    /// one naming a copy of `entry`, the entry `row` names.
    fn adopt(&mut self, row: A, entry: Option<CachedAddr>) -> A {
        match entry {
            Some(entry) => {
                self.learned.push(entry);
                A::learned(self.learned.len() - 1)
            }
            None => row,
        }
    }

    /// Appends a copy of a row read by [`Arena::row`].
    fn push_copy(&mut self, (key, row, entry): (Key, A, Option<CachedAddr>)) {
        let row = self.adopt(row, entry);
        self.keys.push(key);
        self.addrs.push(row);
    }

    /// Appends the rows of the snapshot positions `picks`, each naming
    /// its node as [`RowAddr::name`] does, returning their span.
    fn push(
        &mut self,
        ring: &[RingPos],
        picks: impl IntoIterator<Item = usize>,
        attachments: &AttachmentMap,
    ) -> Span {
        let from = self.keys.len();
        for pos in picks {
            let RingPos { key, host, .. } = ring[pos];
            let current = || NetAddr::current(host, attachments);
            let row = A::name(host, attachments, &mut self.learned, current);
            self.keys.push(Key(key));
            self.addrs.push(row);
        }
        self.since(from)
    }

    /// Appends `other`'s rows at `span`, returning where they now are.
    /// Keys, and the addresses of a ring that learns nothing, copy as
    /// they are; a learned entry is copied with its row and renumbered.
    fn copy_from(&mut self, other: &Self, span: Span) -> Span {
        let from = self.keys.len();
        self.keys.extend_from_slice(&other.keys[span.range()]);
        if A::LEARNS {
            for i in span.range() {
                let (_, row, entry) = other.row(i);
                let row = self.adopt(row, entry);
                self.addrs.push(row);
            }
        } else {
            self.addrs.extend_from_slice(&other.addrs[span.range()]);
        }
        self.since(from)
    }

    /// Counts the rows at `span`, and the entries they name, dead.
    fn kill(&mut self, span: Span) {
        self.dead += span.len as usize;
        if A::LEARNS {
            let named = self.addrs[span.range()].iter().filter(|row| row.entry().is_some());
            self.dead_learned += named.count();
        }
    }
}

/// A build shard's rows as snapshot positions, 4 bytes a row, gathered in
/// blocks of fixed size. A block is never reallocated, so a shard that
/// grows copies nothing and leaves no freed copies of itself behind.
#[derive(Default)]
struct Picks {
    blocks: Vec<Vec<u32>>,
}

impl Picks {
    const BLOCK: usize = 1 << 16;

    fn push(&mut self, pos: usize) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < block.capacity() => block.push(pos as u32),
            _ => {
                let mut block = Vec::with_capacity(Self::BLOCK);
                block.push(pos as u32);
                self.blocks.push(block);
            }
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().flatten().map(|&pos| pos as usize)
    }
}

/// The occupant of the live cell `slot`.
fn occupant_in<V>(slab: &mut [Cell<V>], slot: Slot) -> &mut Occupant<V> {
    slab[slot.0 as usize].live_mut().expect("slot names a live node")
}

/// The cell `key`'s probe starts at among `cells`: its [`KeyHasher`]
/// fold, reduced by multiply-high (keys of one narrow arc still spread).
#[inline]
fn home(key: u64, cells: usize) -> usize {
    let mut hash = KeyHasher::default();
    hash.write_u64(key);
    ((u128::from(hash.finish()) * cells as u128) >> 64) as usize
}

/// The cell after `at` among `cells`, wrapping.
#[inline]
fn next_cell(at: usize, cells: usize) -> usize {
    if at + 1 == cells {
        0
    } else {
        at + 1
    }
}

/// The cell of the live node with key `key`. Terminates because a
/// non-empty slab always keeps an empty cell (`used` stays at or under
/// 7/8 of it).
#[inline]
fn find<V>(slab: &[Cell<V>], key: u64) -> Option<usize> {
    if slab.is_empty() {
        return None;
    }
    let mut at = home(key, slab.len());
    loop {
        match &slab[at] {
            Cell::Live(o) if o.node.key.0 == key => return Some(at),
            Cell::Empty => return None,
            Cell::Live(_) | Cell::Tomb => at = next_cell(at, slab.len()),
        }
    }
}

/// The first cell on `key`'s probe chain that no live node holds: where
/// an insert of an absent `key` goes.
fn vacancy<V>(slab: &[Cell<V>], key: u64) -> usize {
    let mut at = home(key, slab.len());
    while let Cell::Live(_) = slab[at] {
        at = next_cell(at, slab.len());
    }
    at
}

impl<V, A: RowAddr> RingDht<V, A> {
    /// Creates an empty overlay with the given configuration.
    pub fn new(cfg: RingConfig) -> Self {
        cfg.validate();
        let rows = Arena::with_capacity(0, 0);
        RingDht { cfg, index: BTreeMap::new(), slab: Vec::new(), used: 0, epoch: 0, rows }
    }

    /// Creates an empty overlay whose slab takes `nodes` inserts at load
    /// 4/5 without being laid out again, so none of them moves a slot.
    pub fn with_capacity(cfg: RingConfig, nodes: usize) -> Self {
        let mut ring = RingDht::new(cfg);
        ring.lay_out(nodes + nodes.div_ceil(4));
        ring
    }

    /// Lays the slab out afresh over `cells` cells, more than the live
    /// count: every live node at the first free cell of its probe chain,
    /// no tombstones, and the index pointed at the new cells. The one
    /// place the slab's length is set, so the `u32` slot bound is checked
    /// here.
    fn lay_out(&mut self, cells: usize) {
        debug_assert!(self.is_empty() || cells > self.len());
        u32::try_from(cells).expect("more than u32::MAX slab cells");
        let mut fresh = Vec::with_capacity(cells);
        fresh.resize_with(cells, || Cell::Empty);
        let mut old = std::mem::replace(&mut self.slab, fresh);
        for (&key, slot) in self.index.iter_mut() {
            let at = vacancy(&self.slab, key);
            self.slab[at] = std::mem::replace(&mut old[slot.0 as usize], Cell::Empty);
            *slot = Slot(at as u32);
        }
        self.used = self.index.len();
    }

    /// The overlay's configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Number of participating nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A count that moves whenever a node joins or leaves the ring and
    /// never moves back: equal readings mean the same membership.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a node with key `k` participates.
    pub fn contains(&self, k: Key) -> bool {
        find(&self.slab, k.0).is_some()
    }

    fn occupant(&self, slot: Slot) -> &Occupant<V> {
        self.slab[slot.0 as usize].live().expect("slot names a live node")
    }

    fn occupant_mut(&mut self, slot: Slot) -> &mut Occupant<V> {
        occupant_in(&mut self.slab, slot)
    }

    /// A node with its rows.
    fn view<'a>(&'a self, o: &'a Occupant<V>) -> NodeRef<'a, V, A> {
        let (rows, arena) = (o.span.range(), &self.rows);
        NodeRef::new(&o.node, &arena.keys[rows.clone()], &arena.addrs[rows], &arena.learned)
    }

    /// Index entry of the first node at or clockwise-after `k`.
    fn successor_entry(&self, k: Key) -> Option<(Key, Slot)> {
        let (&key, &slot) = self.index.range(k.0..).next().or_else(|| self.index.iter().next())?;
        Some((Key(key), slot))
    }

    /// Adds a node. Routing state is built separately (see
    /// [`RingDht::rebuild`] / [`RingDht::build_all_tables`]).
    ///
    /// Every [`Slot`] handed out before the call is void after it: an
    /// insert that would take the live and tombstoned cells past 7/8 of
    /// the slab first lays it out afresh over twice the live count.
    pub fn insert(&mut self, key: Key, host: HostId, capacity: u32) -> Result<(), RingError> {
        if self.contains(key) {
            return Err(RingError::DuplicateKey(key));
        }
        if (self.used + 1) * 8 > self.slab.len() * 7 {
            self.lay_out(2 * (self.len() + 1));
        }
        let pred = self.predecessor_of(key).unwrap_or(key);
        let at = vacancy(&self.slab, key.0);
        if let Cell::Empty = self.slab[at] {
            self.used += 1;
        }
        let node = NodeState::new(key, host, capacity);
        self.slab[at] = Cell::Live(Occupant { pred, span: Span::default(), node });
        self.index.insert(key.0, Slot(at as u32));
        self.epoch += 1;
        let (_, succ) = self.successor_entry(key.offset(1)).expect("just inserted");
        self.occupant_mut(succ).pred = key;
        Ok(())
    }

    /// Removes a node, returning its state (stores and all; its routing
    /// rows die). Its cell becomes a tombstone; every other node keeps its
    /// slot.
    pub fn remove(&mut self, key: Key) -> Option<NodeState<V>> {
        let at = find(&self.slab, key.0)?;
        self.index.remove(&key.0);
        self.epoch += 1;
        let Cell::Live(gone) = std::mem::replace(&mut self.slab[at], Cell::Tomb) else {
            unreachable!("`find` returns live cells only")
        };
        if let Some((_, succ)) = self.successor_entry(key) {
            self.occupant_mut(succ).pred = gone.pred;
        }
        self.retire(gone.span);
        Some(gone.node)
    }

    /// The slab position of the node with key `key`: a probe from the
    /// key's home cell, which reads the node's own cell when it is found.
    pub fn slot_of(&self, key: Key) -> Result<Slot, RingError> {
        find(&self.slab, key.0).map(|at| Slot(at as u32)).ok_or(RingError::UnknownNode(key))
    }

    /// The node at `slot`.
    ///
    /// # Panics
    /// Panics if that node has since been removed. A slot held across an
    /// insert may name another node, or panic here.
    pub fn at(&self, slot: Slot) -> NodeRef<'_, V, A> {
        self.view(self.occupant(slot))
    }

    /// Mutable access to the node at `slot`, for a walk that goes on to
    /// write the node it resolved.
    ///
    /// # Panics
    /// Panics if that node has since been removed. A slot held across an
    /// insert may name another node, or panic here.
    pub fn at_mut(&mut self, slot: Slot) -> NodeMut<'_, V, A> {
        let RingDht { slab, rows, .. } = self;
        let o = occupant_in(slab, slot);
        let span = o.span.range();
        NodeMut::new(&mut o.node, &rows.keys[span.clone()], &rows.addrs[span], &mut rows.learned)
    }

    /// Immutable access to a node's state.
    pub fn node(&self, key: Key) -> Result<NodeRef<'_, V, A>, RingError> {
        self.slot_of(key).map(|slot| self.at(slot))
    }

    /// Mutable access to a node's state.
    pub fn node_mut(&mut self, key: Key) -> Result<NodeMut<'_, V, A>, RingError> {
        self.slot_of(key).map(|slot| self.at_mut(slot))
    }

    /// Iterator over node keys, ascending: ring order starting at key 0.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.index.keys().map(|&k| Key(k))
    }

    /// Iterator over node states, in the same ring order.
    pub fn iter(&self) -> impl Iterator<Item = NodeRef<'_, V, A>> + '_ {
        self.index.values().map(|&slot| self.at(slot))
    }

    /// The first node at or clockwise-after `k` — the *owner* of key `k`.
    pub fn successor_of(&self, k: Key) -> Result<Key, RingError> {
        self.successor_entry(k).map(|(key, _)| key).ok_or(RingError::Empty)
    }

    /// Alias for [`RingDht::successor_of`], in the paper's vocabulary: the
    /// peer "whose hash key is the closest to k" in routing order.
    pub fn owner(&self, k: Key) -> Result<Key, RingError> {
        self.successor_of(k)
    }

    /// The first node strictly clockwise-before `k`.
    pub fn predecessor_of(&self, k: Key) -> Result<Key, RingError> {
        let before = self.index.range(..k.0).next_back().or_else(|| self.index.iter().next_back());
        before.map(|(&key, _)| Key(key)).ok_or(RingError::Empty)
    }

    /// Index entries clockwise from `start` (inclusive), once around.
    fn clockwise_from(&self, start: Key) -> impl Iterator<Item = (Key, Slot)> + '_ {
        self.index.range(start.0..).chain(self.index.range(..start.0)).map(|(&k, &s)| (Key(k), s))
    }

    /// The owner of `k` followed by the next `count − 1` distinct nodes
    /// clockwise — the natural replica set for key `k`.
    pub fn replica_set(&self, k: Key, count: usize) -> Result<Vec<Key>, RingError> {
        if self.is_empty() {
            return Err(RingError::Empty);
        }
        Ok(self.clockwise_from(k).take(count).map(|(key, _)| key).collect())
    }

    /// [`RingDht::replica_set`] by slab position and without the `Vec`,
    /// for a reader that visits the replicas in order and may stop early.
    /// Nothing on an empty overlay. The slots are good until the next
    /// insert, like every [`Slot`].
    pub fn replica_slots(&self, k: Key, count: usize) -> impl Iterator<Item = Slot> + '_ {
        self.clockwise_from(k).take(count).map(|(_, slot)| slot)
    }

    /// The key-order snapshot every table build reads, one [`RingPos`] a
    /// node: 24 B, cache-resident where the slab is not. It lives only for
    /// the build that takes it.
    fn snapshot(&self, attachments: &AttachmentMap) -> Vec<RingPos> {
        self.index
            .iter()
            .map(|(&key, &slot)| {
                let host = self.at(slot).host;
                RingPos { key, slot, host, router: attachments.router(host) }
            })
            .collect()
    }

    /// Points the node at `slot` at its new rows `span`; its old rows die.
    fn replace_rows(&mut self, slot: Slot, span: Span) {
        let old = std::mem::replace(&mut self.occupant_mut(slot).span, span);
        self.retire(old);
    }

    /// Counts `span`'s rows and entries dead, and copies the live rows
    /// into a fresh arena as soon as dead rows or dead entries outnumber
    /// the live ones.
    fn retire(&mut self, span: Span) {
        self.rows.kill(span);
        let rows = &self.rows;
        if rows.dead > rows.live() || rows.dead_learned > rows.live_learned() {
            let mut fresh = Arena::with_capacity(rows.live(), rows.live_learned());
            for cell in &mut self.slab {
                if let Cell::Live(o) = cell {
                    o.span = fresh.copy_from(&self.rows, o.span);
                }
            }
            self.rows = fresh;
        }
    }

    /// Gives the node `holder` a row for `other`, whose address `addr`
    /// has just been learned: its learned entry patched in place if it
    /// has the row (a row naming a peer attached fixed has none, and
    /// `addr` can only confirm its host); else its rows are copied to the
    /// arena's end with the new row where its key sorts, so they stay in
    /// key order and the leaf set stays the rows nearest the node.
    pub fn upsert_entry(
        &mut self,
        holder: Key,
        other: Key,
        addr: NetAddr,
        attachments: &AttachmentMap,
    ) -> Result<(), RingError> {
        debug_assert_ne!(holder, other, "a node has no row for itself");
        let slot = self.slot_of(holder)?;
        let (old, rows) = (self.occupant(slot).span.range(), &mut self.rows);
        match rows.keys[old.clone()].binary_search(&other) {
            Ok(i) => {
                if let Some(entry) = rows.addrs[old.start + i].entry() {
                    rows.learned[entry] = CachedAddr { addr: Some(addr) };
                }
            }
            Err(i) => {
                let (from, at) = (rows.keys.len(), old.start + i);
                (old.start..at).for_each(|i| rows.push_copy(rows.row(i)));
                let row = A::name(addr.host, attachments, &mut rows.learned, || addr);
                rows.keys.push(other);
                rows.addrs.push(row);
                (at..old.end).for_each(|i| rows.push_copy(rows.row(i)));
                let new = rows.since(from);
                self.replace_rows(slot, new);
            }
        }
        Ok(())
    }

    /// Rebuilds the routing state of the nodes `keys`, in the order
    /// given, on the caller's `rng`: what a join, a repair sweep or a
    /// moved node re-derives (paper §2.3.3, Fig. 5). One snapshot serves
    /// the whole batch, since no node's tables read another node's rows;
    /// it costs O(N), which every caller already pays to pick its batch.
    ///
    /// Fails with [`RingError::UnknownNode`] at the first key that is not
    /// in the ring, with the keys before it rebuilt.
    pub fn rebuild(
        &mut self,
        keys: &[Key],
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
    ) -> Result<(), RingError> {
        let ring = self.snapshot(attachments);
        let mut scratch = Scratch::default();
        for &key in keys {
            let me = ring
                .binary_search_by_key(&key.0, |pos| pos.key)
                .map_err(|_| RingError::UnknownNode(key))?;
            let chosen = bulk_tables(&self.cfg, &ring, me, dcache, rng, &mut scratch);
            let span = self.rows.push(&ring, chosen.iter().copied(), attachments);
            self.replace_rows(ring[me].slot, span);
        }
        Ok(())
    }

    /// Rebuilds every node's routing state (steady-state wiring), sharded
    /// across `workers` threads, with results identical at every count.
    ///
    /// A node's tables depend on ring *structure* only — keys, hosts,
    /// attachments — never on another node's installed entries, so
    /// workers take contiguous shards of one snapshot and the results are
    /// installed after the last worker joins. The one order-dependent
    /// input is the RNG: [`NeighborSelection::Random`] draws once per
    /// non-empty finger slot, so that policy is built as a single shard
    /// on the caller's `rng`, in ring order, whatever `workers` says;
    /// `First` and `Proximity` never draw.
    pub fn build_all_tables(
        &mut self,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
        workers: usize,
    ) {
        let snapshot = self.snapshot(attachments);
        let (cfg, ring) = (&self.cfg, snapshot.as_slice());
        let shards = match cfg.selection {
            NeighborSelection::Random => 1,
            NeighborSelection::First | NeighborSelection::Proximity => workers.max(1),
        };
        let chunk = ring.len().div_ceil(shards).max(1);
        // A shard's output is its nodes' row counts and their rows as
        // snapshot positions, 4 bytes a row, and how many of those rows
        // name a peer that can move: the arena and its learned table are
        // laid out once, at their final sizes, after the last worker joins.
        let build = move |first: usize, rng: &mut Pcg64| -> (Vec<u32>, Picks, usize) {
            let last = (first + chunk).min(ring.len());
            let mut scratch = Scratch::default();
            let (mut lens, mut picks) = (Vec::with_capacity(last - first), Picks::default());
            let mut movable = 0;
            for me in first..last {
                let chosen = bulk_tables(cfg, ring, me, dcache, rng, &mut scratch);
                lens.push(chosen.len() as u32);
                chosen.iter().for_each(|&pos| picks.push(pos));
                movable +=
                    chosen.iter().filter(|&&pos| !attachments.is_fixed(ring[pos].host)).count();
            }
            (lens, picks, movable)
        };
        let built: Vec<(Vec<u32>, Picks, usize)> = std::thread::scope(|s| {
            let spawned: Vec<_> = (chunk..ring.len())
                .step_by(chunk)
                // Never drawn from: only `Random` draws, and it is one shard.
                .map(|first| s.spawn(move || build(first, &mut Pcg64::seed_from_u64(0))))
                .collect();
            let mut built = vec![build(0, rng)];
            built.extend(spawned.into_iter().map(|h| h.join().expect("table worker panicked")));
            built
        });
        let total = built.iter().map(|(_, picks, _)| picks.len()).sum();
        let learned = if A::LEARNS { built.iter().map(|(.., movable)| movable).sum() } else { 0 };
        let mut rows = Arena::with_capacity(total, learned);
        let mut nodes = ring.iter();
        for (lens, picks, _) in built {
            let mut picks = picks.iter();
            for (len, node) in lens.into_iter().zip(&mut nodes) {
                let span = rows.push(ring, picks.by_ref().take(len as usize), attachments);
                self.occupant_mut(node.slot).span = span;
            }
        }
        self.rows = rows;
    }

    /// The next hop from `cur` toward `target`, or `None` when `cur` is the
    /// owner of `target`.
    ///
    /// Monotone clockwise: the returned node always lies in `(cur, target]`
    /// unless the final fallback to the immediate successor fires (in which
    /// case the successor is the owner). Entries pointing at departed nodes
    /// are skipped, modelling failure detection by timeout.
    pub fn next_hop(&self, cur: Key, target: Key) -> Result<Option<Key>, RingError> {
        // An empty overlay is reported as such, not as an unknown `cur`.
        if self.is_empty() {
            return Err(RingError::Empty);
        }
        let cur = self.slot_of(cur)?;
        Ok(self.next_hop_from(cur, target).map(|next| self.at(next).key))
    }

    /// [`RingDht::next_hop`] by slab position, for walks that go on to
    /// read the node they land on. `cur` must have been handed out since
    /// the ring's last insert, and the slot returned is good until its
    /// next one.
    ///
    /// Of all live entries that do not overshoot, the one advancing
    /// furthest wins. Liveness costs a probe of the slab — for a live
    /// neighbor, a read of the very cell the walk reads next — so it is
    /// asked of the furthest advance only, then of the next furthest if
    /// that neighbor has departed: the same answer as filtering the dead
    /// out first, for one probe instead of one per entry.
    pub fn next_hop_from(&self, cur: Slot, target: Key) -> Option<Slot> {
        let here = self.occupant(cur);
        let (me, keys) = (here.node.key, &self.rows.keys[here.span.range()]);
        if here.pred.in_cw_range(target, me) {
            return None;
        }
        // The furthest advance an entry offers within `bound` (0 is `cur`
        // itself, anything past the target overshoots).
        let furthest = |bound: u64| {
            let advances = keys.iter().map(|&k| me.clockwise_to(k));
            advances.filter(|adv| (1..=bound).contains(adv)).max()
        };
        let mut bound = me.clockwise_to(target);
        while let Some(adv) = furthest(bound) {
            if let Ok(next) = self.slot_of(me.offset(adv)) {
                return Some(next);
            }
            bound = adv - 1; // departed neighbor
        }
        // target ∈ (cur, successor(cur)]: the successor owns it.
        let (_, succ) = self.successor_entry(me.offset(1)).expect("ring holds cur");
        Some(succ)
    }

    /// Builds the reverse-pointer index: for each node, the set of nodes
    /// whose routing state contains it. These are exactly the peers that
    /// *register* to a node in Bristle (§2.3.1: "X registers itself to
    /// nodes whose state-pairs are replicated in X").
    ///
    /// Whole-ring and hash-ordered: it serves the Fig. 3, 8 and 9
    /// experiments only.
    pub fn reverse_index(&self) -> HashMap<Key, Vec<Key>> {
        let mut index: HashMap<Key, Vec<Key>> = HashMap::with_capacity(self.len());
        for node in self.iter() {
            for &k in node.keys() {
                index.entry(k).or_default().push(node.key);
            }
        }
        index
    }

    /// Total routing-state rows across all nodes (scalability metric).
    pub fn total_state(&self) -> usize {
        self.rows.live()
    }

    /// The learned table's entries as `(live, dead)`: one live entry per
    /// row naming a peer that can move, and dead ones awaiting the next
    /// compaction, which comes before they outnumber the live ones.
    pub fn learned_entries(&self) -> (usize, usize) {
        (self.rows.live_learned(), self.rows.dead_learned)
    }
}

/// One node as a bulk build sees it: a row of the key-order snapshot.
#[derive(Clone, Copy)]
struct RingPos {
    key: u64,
    slot: Slot,
    host: HostId,
    router: RouterId,
}

/// A build worker's reusable buffers.
#[derive(Default)]
struct Scratch {
    /// Snapshot positions of the rows being chosen.
    chosen: Vec<usize>,
    /// Per finger slot (level-major, then digit), the start position the
    /// previous node's same slot found: consecutive nodes' slot starts
    /// lie close together in key order, so a search gallops from there.
    hints: Vec<usize>,
}

/// `xs.partition_point(pred)`, found by galloping outward from `hint`
/// (any value; past the end is the end) and then a binary search within
/// the last stride: O(log d) probes for an answer `d` from the hint.
/// `pred` must be true on a prefix of `xs` and false on the rest.
fn gallop<T>(xs: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let hint = hint.min(xs.len());
    let (mut lo, mut hi) = (0, xs.len());
    let mut step = 1;
    if hint < xs.len() && pred(&xs[hint]) {
        // The answer is past `hint`.
        lo = hint + 1;
        while hint + step < xs.len() {
            if !pred(&xs[hint + step]) {
                hi = hint + step;
                break;
            }
            lo = hint + step + 1;
            step *= 2;
        }
    } else {
        // The answer is at or before `hint`.
        hi = hint;
        while step <= hint {
            if pred(&xs[hint - step]) {
                lo = hint - step + 1;
                break;
            }
            hi = hint - step;
            step *= 2;
        }
    }
    lo + xs[lo..hi].partition_point(pred)
}

/// The lowest finger level that can hold a neighbor of a node whose
/// clockwise successor is `gap` away. The slots of one level tile
/// `[key + span, key + base·span)`, so the level is empty whenever the
/// nearest other node lies at or beyond `base·span`; empty slots draw
/// nothing from the RNG, so starting the build here changes neither the
/// tables nor the caller's stream.
fn first_level_past(cfg: &RingConfig, gap: u64) -> u32 {
    let bits = cfg.bits_per_digit;
    (0..cfg.levels())
        .find(|level| {
            let reach_bits = (level + 1) * bits;
            reach_bits >= 64 || gap >> reach_bits == 0
        })
        .unwrap_or(cfg.levels())
}

/// `(start, span)` of every finger slot of `key` from `first_level` up,
/// in build order: by level, then by digit value.
fn finger_slots(
    cfg: &RingConfig,
    key: Key,
    first_level: u32,
) -> impl Iterator<Item = (Key, u64)> + '_ {
    let (bits, base) = (cfg.bits_per_digit, cfg.base());
    (first_level..cfg.levels())
        .map(move |level| level * bits)
        .take_while(|&shift| shift < 64)
        .flat_map(move |shift| {
            let span = 1u64 << shift;
            (1..base).map(move |j| (key.offset(j.wrapping_mul(span)), span))
        })
}

/// Which of a finger slot's `count ≥ 1` candidates (clockwise order) the
/// policy takes. `distance(i)` is the physical distance to candidate `i`
/// as a distance row holds it (`u32::MAX` unreachable, so last); of
/// equally near candidates the first wins.
fn select(
    policy: NeighborSelection,
    count: usize,
    rng: &mut Pcg64,
    mut distance: impl FnMut(usize) -> u32,
) -> usize {
    match policy {
        NeighborSelection::First => 0,
        NeighborSelection::Random => rng.index(count),
        NeighborSelection::Proximity => {
            let (mut best, mut best_d) = (0, u32::MAX);
            for i in 0..count {
                let d = distance(i);
                if d < best_d {
                    (best, best_d) = (i, d);
                }
            }
            best
        }
    }
}

/// The routing state of the node at snapshot position `me`, read off the
/// snapshot alone: the snapshot positions of its deduplicated rows,
/// ascending, which is key order.
/// The one table computation of the ring, behind both
/// [`RingDht::build_all_tables`] and [`RingDht::rebuild`]. It is the
/// omniscient steady-state build; the protocol-faithful incremental join
/// (paper Fig. 5) lives in `bristle-core::join` and re-derives the
/// tables it touched through it.
///
/// A finger slot's candidates are a gallop from where the previous
/// node's same slot started and a short sequential walk in the snapshot,
/// the leaves are the neighbouring positions, and the node asks the
/// distance oracle for one row.
fn bulk_tables<'s>(
    cfg: &RingConfig,
    ring: &[RingPos],
    me: usize,
    dcache: &DistanceCache,
    rng: &mut Pcg64,
    scratch: &'s mut Scratch,
) -> &'s [usize] {
    let n = ring.len();
    let my = ring[me];
    let key = Key(my.key);
    // The position clockwise of `pos`, wrapping.
    let cw = |pos: usize| if pos + 1 == n { 0 } else { pos + 1 };

    let Scratch { chosen, hints } = scratch;
    chosen.clear();
    let mut row = None;
    let first_level = first_level_past(cfg, key.clockwise_to(Key(ring[cw(me)].key)));
    let slots_per_level = cfg.base() as usize - 1;
    hints.resize(cfg.levels() as usize * slots_per_level, 0);
    let first_slot = first_level as usize * slots_per_level;
    for ((start, span), hint) in finger_slots(cfg, key, first_level).zip(&mut hints[first_slot..]) {
        // Up to `candidate_window` nodes clockwise from `start` within
        // `span` of it, `me` excluded, at most once around.
        let slot_first = chosen.len();
        *hint = gallop(ring, *hint, |p| p.key < start.0);
        let mut pos = *hint % n;
        for _ in 0..n {
            if start.clockwise_to(Key(ring[pos].key)) >= span
                || chosen.len() - slot_first == cfg.candidate_window
            {
                break;
            }
            if pos != me {
                chosen.push(pos);
            }
            pos = cw(pos);
        }
        let cands = &chosen[slot_first..];
        if cands.is_empty() {
            continue;
        }
        let pick = cands[select(cfg.selection, cands.len(), rng, |i| {
            let router = ring[cands[i]].router;
            row.get_or_insert_with(|| dcache.row(my.router))[router.index()]
        })];
        chosen.truncate(slot_first);
        chosen.push(pick);
    }

    // Leaf set: the neighbouring positions, successors first; on a ring
    // too small for both radii a node is listed once, as a successor.
    let successors = LEAF_RADIUS.min(n - 1);
    let predecessors = successors.min(n - 1 - successors);
    let leaves =
        (1..=successors).map(|d| (me + d) % n).chain((1..=predecessors).map(|d| (me + n - d) % n));
    chosen.extend(leaves);

    // Position order is key order, so this is the `(Key, Slot)` sort.
    chosen.sort_unstable();
    chosen.dedup();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NoAddr;
    use bristle_netsim::graph::RouterId;
    use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;

    /// The host for a new node at `router`: every third one attached
    /// fixed, so a ring's rows mix both kinds of address.
    fn attach_mixed(attachments: &mut AttachmentMap, router: RouterId) -> HostId {
        if attachments.len().is_multiple_of(3) {
            attachments.attach_fixed(router)
        } else {
            attachments.attach_new(router)
        }
    }

    /// Builds a populated overlay over a tiny physical network.
    fn setup(n: usize, seed: u64, cfg: RingConfig) -> (RingDht<u32>, AttachmentMap, DistanceCache) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
        let mut attachments = AttachmentMap::new();
        let mut dht = RingDht::new(cfg);
        for _ in 0..n {
            let host = attach_mixed(&mut attachments, *rng.choose(&stubs));
            let mut key = Key::random(&mut rng);
            while dht.contains(key) {
                key = Key::random(&mut rng);
            }
            dht.insert(key, host, 1 + rng.below(15) as u32).unwrap();
        }
        dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
        (dht, attachments, dcache)
    }

    // --------------------------------------------------------------
    // The per-node reference build: what joins, repairs and refreshes
    // ran until they moved onto `rebuild`. It walks the key index,
    // O(log N) a slot, and shares only the slot enumeration
    // (`finger_slots`), the empty-level skip and `select` with
    // `bulk_tables`; candidates, leaves, sort and dedup are its own.
    // --------------------------------------------------------------

    /// Up to `count` nodes clockwise from `start` (inclusive) whose keys
    /// lie within `span` of `start`, `exclude` left out.
    fn finger_candidates<V, A: RowAddr>(
        dht: &RingDht<V, A>,
        start: Key,
        span: u64,
        exclude: Key,
        count: usize,
    ) -> Vec<(Key, Slot)> {
        dht.clockwise_from(start)
            .take_while(|&(k, _)| start.clockwise_to(k) < span)
            .filter(|&(k, _)| k != exclude)
            .take(count)
            .collect()
    }

    /// The lowest finger level that can hold a neighbor of `key`.
    fn first_finger_level<V, A: RowAddr>(dht: &RingDht<V, A>, key: Key) -> u32 {
        let gap = dht.successor_entry(key.offset(1)).map_or(0, |(succ, _)| key.clockwise_to(succ));
        first_level_past(&dht.cfg, gap)
    }

    /// Digit fingers from `first_level` up: for each level and non-zero
    /// digit value, one neighbor in `[key + j·span, key + (j+1)·span)`.
    fn finger_picks<V, A: RowAddr>(
        dht: &RingDht<V, A>,
        key: Key,
        first_level: u32,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
    ) -> Vec<(Key, Slot)> {
        let my_router = attachments.router(dht.node(key).unwrap().host);
        let mut row = None;
        let mut picks = Vec::new();
        for (start, span) in finger_slots(&dht.cfg, key, first_level) {
            let cands = finger_candidates(dht, start, span, key, dht.cfg.candidate_window);
            if cands.is_empty() {
                continue;
            }
            let pick = select(dht.cfg.selection, cands.len(), rng, |i| {
                let router = attachments.router(dht.at(cands[i].1).host);
                row.get_or_insert_with(|| dcache.row(my_router))[router.index()]
            });
            picks.push(cands[pick]);
        }
        picks
    }

    /// A row as a reader can tell it apart: its address if that names no
    /// learned entry (a fixed peer's host, or nothing), else the entry.
    type RowView<A> = Result<A, CachedAddr>;

    /// A node's reference rows: keys, row views, resolved addresses and
    /// the leaf set, each as the builder listed it.
    type Reference<A> = (Vec<Key>, Vec<RowView<A>>, Vec<Option<NetAddr>>, Vec<Key>);

    /// `node`'s rows as [`RowView`]s.
    fn row_views<V, A: RowAddr>(node: NodeRef<'_, V, A>) -> Vec<RowView<A>> {
        let rows = node.keys().iter().zip(node.addrs());
        rows.map(|(&k, &row)| node.entry(k).map_or(Ok(row), |entry| Err(*entry))).collect()
    }

    /// `node` holds exactly `reference`'s rows, each resolving to the
    /// reference's address, and its leaf set read off its position in
    /// them is the reference's.
    fn assert_rows_are<V, A: RowAddr>(
        node: NodeRef<'_, V, A>,
        (keys, rows, addrs, leaves): &Reference<A>,
        attachments: &AttachmentMap,
        at: &str,
    ) {
        let key = node.key;
        assert_eq!(node.keys(), keys, "{at}: keys of {key}");
        assert_eq!(&row_views(node), rows, "{at}: rows of {key}");
        let resolved: Vec<Option<NetAddr>> =
            keys.iter().map(|&k| node.resolve(k, attachments)).collect();
        assert_eq!(&resolved, addrs, "{at}: addresses of {key}");
        assert_eq!(&node.leaf_keys().collect::<Vec<_>>(), leaves, "{at}: leaves of {key}");
    }

    /// The routing state the node at `key` gets, by index walk.
    fn compute_tables<V, A: RowAddr>(
        dht: &RingDht<V, A>,
        key: Key,
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        rng: &mut Pcg64,
    ) -> Reference<A> {
        use std::ops::Bound;
        let first_level = first_finger_level(dht, key);
        let mut chosen = finger_picks(dht, key, first_level, attachments, dcache, rng);

        // Leaf set: nearest successors and predecessors (key order, no
        // selection policy — leaves pin down ownership and must be exact).
        let after = (Bound::Excluded(key.0), Bound::Unbounded);
        let max_leaves = LEAF_RADIUS.min(dht.len().saturating_sub(1));
        let entry = |(&k, &slot): (&u64, &Slot)| (Key(k), slot);
        let mut leaves: Vec<(Key, Slot)> = Vec::with_capacity(max_leaves * 2);
        leaves.extend(
            dht.index.range(after).chain(dht.index.range(..key.0)).map(entry).take(max_leaves),
        );
        let preds: Vec<(Key, Slot)> = dht
            .index
            .range(..key.0)
            .rev()
            .chain(dht.index.range(after).rev())
            .map(entry)
            .filter(|p| !leaves.contains(p))
            .take(max_leaves)
            .collect();
        leaves.extend(preds);

        chosen.extend(leaves.iter().copied());
        chosen.sort_unstable();
        chosen.dedup();

        // A ring that learns keeps each movable peer's current address;
        // a fixed peer's row names its host, which resolves to the same.
        let hosts: Vec<HostId> = chosen.iter().map(|&(_, slot)| dht.at(slot).host).collect();
        let learns = |host: HostId| A::LEARNS && !attachments.is_fixed(host);
        let current = |host| CachedAddr { addr: Some(NetAddr::current(host, attachments)) };
        let rows = hosts.iter().map(|&h| if learns(h) { Err(current(h)) } else { Ok(A::fixed(h)) });
        let addrs = hosts.iter().map(|&h| A::LEARNS.then(|| NetAddr::current(h, attachments)));
        (
            chosen.into_iter().map(|(k, _)| k).collect(),
            rows.collect(),
            addrs.collect(),
            leaves.into_iter().map(|(k, _)| k).collect(),
        )
    }

    /// `rebuild(batch)` against the reference run over the same batch on
    /// the same seed: every rebuilt node's keys, addresses and leaf set, and
    /// the RNG state afterwards. `batch` holds no key twice.
    fn assert_rebuild_matches_reference<V: Clone, A: RowAddr>(
        dht: &RingDht<V, A>,
        batch: &[Key],
        attachments: &AttachmentMap,
        dcache: &DistanceCache,
        at: &str,
    ) {
        let mut reference_rng = Pcg64::seed_from_u64(31);
        let reference: Vec<Reference<A>> = batch
            .iter()
            .map(|&k| compute_tables(dht, k, attachments, dcache, &mut reference_rng))
            .collect();
        let mut rebuilt = dht.clone();
        let mut rng = Pcg64::seed_from_u64(31);
        rebuilt.rebuild(batch, attachments, dcache, &mut rng).unwrap();
        for (key, reference) in batch.iter().zip(&reference) {
            assert_rows_are(rebuilt.node(*key).unwrap(), reference, attachments, at);
        }
        assert_eq!(format!("{rng:?}"), format!("{reference_rng:?}"), "{at}: RNG");
    }

    #[test]
    fn insert_remove_contains() {
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        assert!(dht.is_empty());
        dht.insert(Key(10), HostId(0), 1).unwrap();
        assert!(dht.contains(Key(10)));
        assert_eq!(dht.insert(Key(10), HostId(1), 1), Err(RingError::DuplicateKey(Key(10))));
        assert!(dht.remove(Key(10)).is_some());
        assert!(dht.remove(Key(10)).is_none());
        assert!(dht.is_empty());
    }

    /// `keys` is ascending whatever the history (slab positions follow
    /// key hashes, not key order), and `epoch` moves with membership alone.
    #[test]
    fn keys_ascend_and_epoch_counts_membership_through_random_churn() {
        let mut rng = Pcg64::seed_from_u64(61);
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        let mut live: Vec<Key> = Vec::new();
        for step in 0..400u32 {
            let before = dht.epoch();
            if live.is_empty() || rng.below(3) > 0 {
                let key = Key::random(&mut rng);
                dht.insert(key, HostId(step), 1).unwrap();
                assert!(dht.insert(key, HostId(step), 1).is_err());
                live.push(key);
            } else {
                let key = live.swap_remove(rng.index(live.len()));
                assert!(dht.remove(key).is_some() && dht.remove(key).is_none());
            }
            assert_eq!(dht.epoch(), before + 1, "step {step}: one change, refusals uncounted");
            let keys: Vec<Key> = dht.keys().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "step {step}: keys() not ascending");
            assert_eq!(keys.len(), live.len());
        }
    }

    #[test]
    fn successor_wraps_around() {
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        for k in [10u64, 20, 30] {
            dht.insert(Key(k), HostId(k as u32), 1).unwrap();
        }
        assert_eq!(dht.successor_of(Key(10)).unwrap(), Key(10), "inclusive");
        assert_eq!(dht.successor_of(Key(11)).unwrap(), Key(20));
        assert_eq!(dht.successor_of(Key(31)).unwrap(), Key(10), "wraps");
        assert_eq!(dht.predecessor_of(Key(10)).unwrap(), Key(30), "wraps back");
        assert_eq!(dht.predecessor_of(Key(25)).unwrap(), Key(20));
    }

    #[test]
    fn empty_overlay_errors() {
        let dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        assert_eq!(dht.successor_of(Key(0)), Err(RingError::Empty));
        assert_eq!(dht.node(Key(0)).err(), Some(RingError::UnknownNode(Key(0))));
        assert_eq!(dht.replica_slots(Key(0), 3).count(), 0);
    }

    #[test]
    fn replica_set_distinct_and_ordered() {
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        for k in [10u64, 20, 30] {
            dht.insert(Key(k), HostId(k as u32), 1).unwrap();
        }
        assert_eq!(dht.replica_set(Key(15), 2).unwrap(), vec![Key(20), Key(30)]);
        // Requesting more replicas than nodes returns all nodes once.
        assert_eq!(dht.replica_set(Key(25), 9).unwrap(), vec![Key(30), Key(10), Key(20)]);
        // The same nodes by slab position, and writable there.
        for (k, count) in [(15, 2), (25, 9), (31, 1)] {
            let slots: Vec<Slot> = dht.replica_slots(Key(k), count).collect();
            let keys: Vec<Key> = slots.iter().map(|&s| dht.at(s).key).collect();
            assert_eq!(keys, dht.replica_set(Key(k), count).unwrap());
            dht.at_mut(slots[0]).store.insert(Key(k), ());
            assert!(dht.node(keys[0]).unwrap().store.contains_key(&Key(k)));
        }
    }

    #[test]
    fn tables_have_logarithmic_size() {
        let (dht, _, _) = setup(256, 1, RingConfig::tornado());
        let avg = dht.total_state() as f64 / dht.len() as f64;
        // log4(256) = 4 levels × 3 slots + 8 leaves ≈ 20, allow a wide band.
        assert!(avg > 8.0 && avg < 64.0, "avg state size {avg}");
    }

    #[test]
    fn leaf_keys_present_and_exact() {
        let (dht, _, _) = setup(64, 2, RingConfig::tornado());
        for node in dht.iter() {
            // Every node's first leaf must be its exact successor.
            let succ = dht.successor_of(node.key.offset(1)).unwrap();
            let leaves: Vec<Key> = node.leaf_keys().collect();
            assert_eq!(leaves[0], succ, "node {} missing successor {succ}", node.key);
            assert_eq!(leaves.len(), 8, "radius 4 both ways");
            for l in leaves {
                assert!(node.knows(l));
            }
        }
    }

    #[test]
    fn routes_terminate_at_owner_and_are_monotone() {
        let (dht, _, _) = setup(128, 3, RingConfig::tornado());
        let keys: Vec<Key> = dht.keys().collect();
        let mut rng = Pcg64::seed_from_u64(9);
        for _ in 0..200 {
            let src = *rng.choose(&keys);
            let target = Key::random(&mut rng);
            let owner = dht.owner(target).unwrap();
            let mut cur = src;
            let mut hops = 0;
            let mut last_d = cur.clockwise_to(target);
            while let Some(next) = dht.next_hop(cur, target).unwrap() {
                let nd = next.clockwise_to(target);
                // Monotone: strictly closer, except the final owner hop
                // which may sit just past the target.
                assert!(nd < last_d || next == owner, "overshoot at hop {hops}");
                cur = next;
                last_d = nd;
                hops += 1;
                assert!(hops <= 64, "route did not terminate");
            }
            assert_eq!(cur, owner);
        }
    }

    #[test]
    fn route_lengths_scale_logarithmically() {
        let mut totals = Vec::new();
        for n in [64usize, 512] {
            let (dht, _, _) = setup(n, 4, RingConfig::tornado());
            let keys: Vec<Key> = dht.keys().collect();
            let mut rng = Pcg64::seed_from_u64(5);
            let mut hops_sum = 0usize;
            let samples = 300;
            for _ in 0..samples {
                let src = *rng.choose(&keys);
                let target = *rng.choose(&keys);
                let mut cur = src;
                let mut hops = 0;
                while let Some(next) = dht.next_hop(cur, target).unwrap() {
                    cur = next;
                    hops += 1;
                }
                hops_sum += hops;
            }
            totals.push(hops_sum as f64 / samples as f64);
        }
        // 8× more nodes must cost far less than 8× more hops.
        assert!(totals[1] < totals[0] * 2.5, "hops {totals:?} not logarithmic");
        assert!(totals[1] >= totals[0] * 0.9, "more nodes cannot shorten routes much");
    }

    #[test]
    fn chord_config_routes_longer_than_tornado() {
        let (t, _, _) = setup(256, 6, RingConfig::tornado());
        let (c, _, _) = setup(256, 6, RingConfig::chord());
        let avg = |dht: &RingDht<u32>| {
            let keys: Vec<Key> = dht.keys().collect();
            let mut rng = Pcg64::seed_from_u64(7);
            let mut sum = 0usize;
            for _ in 0..200 {
                let (src, dst) = (*rng.choose(&keys), *rng.choose(&keys));
                let mut cur = src;
                while let Some(next) = dht.next_hop(cur, dst).unwrap() {
                    cur = next;
                    sum += 1;
                }
            }
            sum as f64 / 200.0
        };
        let (ta, ca) = (avg(&t), avg(&c));
        assert!(ta < ca, "tornado {ta} should beat chord {ca} (base 4 vs 2)");
    }

    #[test]
    fn next_hop_skips_departed_neighbors() {
        let (mut dht, _, _) = setup(64, 8, RingConfig::tornado());
        let keys: Vec<Key> = dht.keys().collect();
        // Remove a third of the nodes *without* rebuilding tables: entries
        // now dangle, and routing must still terminate.
        for k in keys.iter().step_by(3) {
            dht.remove(*k);
        }
        let alive: Vec<Key> = dht.keys().collect();
        let mut rng = Pcg64::seed_from_u64(11);
        for _ in 0..100 {
            let src = *rng.choose(&alive);
            let target = Key::random(&mut rng);
            let mut cur = src;
            let mut hops = 0;
            while let Some(next) = dht.next_hop(cur, target).unwrap() {
                assert!(dht.contains(next), "routed to a dead node");
                cur = next;
                hops += 1;
                assert!(hops <= 128, "no termination under staleness");
            }
            assert_eq!(cur, dht.owner(target).unwrap());
        }
    }

    #[test]
    fn reverse_index_matches_forward_tables() {
        let (dht, _, _) = setup(96, 12, RingConfig::tornado());
        let rev = dht.reverse_index();
        for node in dht.iter() {
            for k in node.keys() {
                assert!(rev[k].contains(&node.key));
            }
        }
        let total: usize = rev.values().map(Vec::len).sum();
        assert_eq!(total, dht.total_state());
    }

    #[test]
    fn reverse_index_size_is_logarithmic() {
        let (dht, _, _) = setup(512, 13, RingConfig::tornado());
        let rev = dht.reverse_index();
        let avg = rev.values().map(Vec::len).sum::<usize>() as f64 / rev.len() as f64;
        assert!(avg > 8.0 && avg < 64.0, "avg registrant count {avg}");
    }

    #[test]
    fn proximity_selection_prefers_close_neighbors() {
        // Compare average physical distance of finger entries under
        // Proximity vs First selection on identical populations.
        let avg_dist = |cfg: RingConfig| {
            let (dht, attachments, dcache) = setup(200, 14, cfg);
            let mut sum = 0u64;
            let mut n = 0u64;
            for node in dht.iter() {
                let my_router = attachments.router(node.host);
                for &k in node.keys() {
                    let other = dht.node(k).unwrap().host;
                    sum += dcache.distance(my_router, attachments.router(other));
                    n += 1;
                }
            }
            sum as f64 / n as f64
        };
        let prox = avg_dist(RingConfig::tornado());
        let first =
            avg_dist(RingConfig { selection: NeighborSelection::First, ..RingConfig::tornado() });
        assert!(prox < first, "proximity {prox} must beat first {first}");
    }

    /// Every way the ring builds tables against the per-node reference —
    /// each node's keys, addresses and the leaf set read off its position
    /// in them — on every ring shape that has a boundary in it, rings of
    /// 2–9 nodes among them (where a node is listed once, as a
    /// successor): the whole-ring build at 1, 2, 3 and 7 workers
    /// (Proximity and First shard, Random runs as one shard whatever the
    /// count), and two `rebuild` batches — a join's (a bootstrap's route
    /// toward the newcomer, then the newcomer) and a repair sweep's
    /// (every node still holding a removed key, on a ring the removals
    /// left tombstones in). Both row-address kinds: handles over a mix of
    /// fixed and movable hosts, each row naming its peer's host or an
    /// entry holding its current address and resolving to that address,
    /// and the stationary layer's keys-only rows.
    #[test]
    fn every_build_matches_the_per_node_reference() {
        builds_match_the_per_node_reference::<AddrHandle>();
        builds_match_the_per_node_reference::<NoAddr>();
    }

    fn builds_match_the_per_node_reference<A: RowAddr>() {
        for (cfg, label) in [
            (RingConfig::tornado(), "tornado"),
            (RingConfig::chord(), "chord"),
            (RingConfig::tornado_no_locality(), "tornado_no_locality"),
            // 3 ∤ 64: the top level's slots wrap past the node itself.
            (RingConfig { bits_per_digit: 3, ..RingConfig::tornado() }, "base 8"),
        ] {
            for n in (1..=2 * LEAF_RADIUS + 1).chain([300]) {
                for shape in ["fresh", "churned", "edge keys"] {
                    let mut rng = Pcg64::seed_from_u64(n as u64);
                    let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
                    let stubs = topo.stub_routers().to_vec();
                    let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
                    let mut attachments = AttachmentMap::new();
                    let mut dht: RingDht<(), A> = RingDht::new(cfg.clone());
                    let mut add = |dht: &mut RingDht<(), A>, rng: &mut Pcg64, key: Option<Key>| {
                        let key = key.unwrap_or_else(|| Key::random(rng));
                        let host = attach_mixed(&mut attachments, *rng.choose(&stubs));
                        dht.insert(key, host, 1).unwrap();
                    };
                    match shape {
                        "fresh" => (0..n).for_each(|_| add(&mut dht, &mut rng, None)),
                        // Tombstones in the slab, some of them taken by
                        // later inserts; sized so no insert lays it out
                        // again and sweeps them.
                        "churned" => {
                            let (extra, back) = ((n / 2).max(1), (n / 4).max(1));
                            dht = RingDht::with_capacity(cfg.clone(), n + extra + back);
                            (0..n + extra).for_each(|_| add(&mut dht, &mut rng, None));
                            let keys: Vec<Key> = dht.keys().collect();
                            let doomed = extra + back;
                            for i in 0..doomed {
                                dht.remove(keys[i * keys.len() / doomed]).unwrap();
                            }
                            (0..back).for_each(|_| add(&mut dht, &mut rng, None));
                            assert!(
                                dht.slab.iter().any(|c| matches!(c, Cell::Tomb)),
                                "{label}/{n}: no tombstone left"
                            );
                        }
                        // 0, MAX, 1, MAX − 1, …: every gap is 1 or wraps.
                        _ => (0..n as u64).for_each(|i| {
                            let key = if i % 2 == 0 { Key(i / 2) } else { Key(u64::MAX - i / 2) };
                            add(&mut dht, &mut rng, Some(key))
                        }),
                    }
                    assert_eq!(dht.len(), n);
                    assert_storage_invariants(&dht);

                    let mut oracle_rng = Pcg64::seed_from_u64(31);
                    let oracle: Vec<(Key, Reference<A>)> = dht
                        .keys()
                        .map(|k| {
                            (k, compute_tables(&dht, k, &attachments, &dcache, &mut oracle_rng))
                        })
                        .collect();
                    for workers in [1, 2, 3, 7] {
                        let at = format!("{label}/{n}/{shape}/{workers} workers");
                        let mut bulk = dht.clone();
                        let mut bulk_rng = Pcg64::seed_from_u64(31);
                        bulk.build_all_tables(&attachments, &dcache, &mut bulk_rng, workers);
                        for (key, reference) in &oracle {
                            assert_rows_are(bulk.node(*key).unwrap(), reference, &attachments, &at);
                        }
                        assert_eq!(format!("{bulk_rng:?}"), format!("{oracle_rng:?}"), "{at}: RNG");
                    }

                    // Join-shaped: the bootstrap and the nodes its route
                    // toward the newcomer visits, then the newcomer.
                    let mut wired = dht.clone();
                    wired.build_all_tables(&attachments, &dcache, &mut Pcg64::seed_from_u64(31), 1);
                    let keys: Vec<Key> = wired.keys().collect();
                    let (boot, newcomer) = (keys[0], keys[n / 2]);
                    let from = wired.slot_of(boot).unwrap();
                    let mut batch: Vec<Key> = std::iter::once(boot)
                        .chain(wired.walk(from, newcomer).map(|s| wired.at(s).key))
                        .filter(|&k| k != newcomer)
                        .collect();
                    batch.push(newcomer);
                    let at = format!("{label}/{n}/{shape}/join");
                    assert_rebuild_matches_reference(&wired, &batch, &attachments, &dcache, &at);

                    // Repair-shaped: a third of the ring gone, tables not
                    // rebuilt; every node still holding a removed key.
                    let mut damaged = wired;
                    keys.iter().skip(1).step_by(3).for_each(|&k| drop(damaged.remove(k)));
                    let batch: Vec<Key> = damaged
                        .iter()
                        .filter(|node| node.keys().iter().any(|&k| !damaged.contains(k)))
                        .map(|node| node.key)
                        .collect();
                    assert!(n == 1 || !batch.is_empty(), "{label}/{n}/{shape}: nothing damaged");
                    let at = format!("{label}/{n}/{shape}/repair");
                    assert_rebuild_matches_reference(&damaged, &batch, &attachments, &dcache, &at);
                }
            }
        }
    }

    /// A row given by `upsert_entry` lands where its key sorts. A new
    /// node between a node and its successor becomes its nearest leaf;
    /// one across the ring leaves the leaf set as it was. Either way the
    /// node's rows, leaf set and hops are those of the same rows sorted
    /// and laid out fresh, and the arena counts the old run dead. A new
    /// peer that can move gets a learned entry; one attached fixed is
    /// named by its host. A second upsert patches the row in place.
    #[test]
    fn upsert_lands_where_the_key_sorts() {
        let (dht, attachments, _) = setup(64, 21, RingConfig::tornado());
        let keys: Vec<Key> = dht.keys().collect();
        let me = keys[10];
        let before: Vec<Key> = dht.node(me).unwrap().leaf_keys().collect();
        let inside = me.offset(me.clockwise_to(keys[11]) / 2);
        let outside = keys[40].offset(keys[40].clockwise_to(keys[41]) / 2);
        let mut nearest = vec![inside];
        nearest.extend(&before[..LEAF_RADIUS - 1]);
        nearest.extend(&before[LEAF_RADIUS..]);
        let mut rng = Pcg64::seed_from_u64(22);
        for (new, leaves, fixed) in [
            (inside, nearest.clone(), false),
            (outside, before.clone(), false),
            (inside, nearest, true),
        ] {
            let (mut ring, mut attachments) = (dht.clone(), attachments.clone());
            let host = if fixed {
                attachments.attach_fixed(RouterId(0))
            } else {
                attachments.attach_new(RouterId(0))
            };
            let addr = NetAddr::current(host, &attachments);
            ring.insert(new, host, 1).unwrap();
            let mut fresh = ring.clone();
            let old = fresh.occupant(fresh.slot_of(me).unwrap()).span;
            let live = (ring.total_state(), ring.rows.live_learned());
            ring.upsert_entry(me, new, addr, &attachments).unwrap();
            let grown = (live.0 + 1, live.1 + usize::from(!fixed));
            assert_eq!((ring.total_state(), ring.rows.live_learned()), grown, "one row more");
            let entries = fresh.rows.addrs[old.range()].iter().filter(|r| r.entry().is_some());
            let dead =
                (fresh.rows.dead + old.len as usize, fresh.rows.dead_learned + entries.count());
            assert_eq!((ring.rows.dead, ring.rows.dead_learned), dead, "the old run dead");

            let node = fresh.node(me).unwrap();
            let mut rows: Vec<(Key, AddrHandle, Option<CachedAddr>)> = (node.keys().iter())
                .zip(node.addrs())
                .map(|(&k, &row)| (k, row, node.entry(k).copied()))
                .collect();
            let row = if fixed { AddrHandle::fixed(host) } else { AddrHandle::learned(0) };
            let entry = (!fixed).then_some(CachedAddr { addr: Some(addr) });
            rows.push((new, row, entry));
            rows.sort_unstable_by_key(|&(k, ..)| k);
            let mut laid = Arena::with_capacity(0, 0);
            rows.into_iter().for_each(|row| laid.push_copy(row));
            let slot = fresh.slot_of(me).unwrap();
            let span = fresh.rows.copy_from(&laid, laid.since(0));
            fresh.replace_rows(slot, span);

            let (got, want) = (ring.node(me).unwrap(), fresh.node(me).unwrap());
            assert_eq!(
                (got.keys(), row_views(got)),
                (want.keys(), row_views(want)),
                "rows after {new}"
            );
            assert_eq!(got.entry(new).is_none(), fixed, "an entry iff {new} can move");
            assert_eq!(got.resolve(new, &attachments), Some(addr));
            assert_eq!(got.leaf_keys().collect::<Vec<_>>(), leaves, "leaves after {new}");
            assert_eq!(want.leaf_keys().collect::<Vec<_>>(), leaves, "fresh leaves after {new}");
            let targets =
                ring.keys().chain((0..64).map(|_| Key::random(&mut rng))).collect::<Vec<_>>();
            for t in targets {
                assert_eq!(ring.next_hop(me, t), fresh.next_hop(me, t), "hop toward {t}");
            }

            // Learned again: patched where it is, nothing appended.
            let (rows_before, entries_before) = (ring.rows.keys.len(), ring.rows.learned.len());
            let moved = if fixed {
                addr
            } else {
                attachments.move_host(host, RouterId(1));
                NetAddr::current(host, &attachments)
            };
            ring.upsert_entry(me, new, moved, &attachments).unwrap();
            assert_eq!(
                (ring.rows.keys.len(), ring.rows.learned.len()),
                (rows_before, entries_before)
            );
            assert_eq!(ring.node(me).unwrap().resolve(new, &attachments), Some(moved));
            assert_storage_invariants(&ring);
        }
    }

    /// `gallop` finds `partition_point`'s index from every hint, on both
    /// ends and past them, for targets before, between, on and after the
    /// values (the empty tail), duplicates included.
    #[test]
    fn gallop_is_partition_point_from_any_hint() {
        let arrays: [Vec<u64>; 4] = [
            vec![],
            vec![5],
            vec![1, 3, 3, 3, 7, 9, 20, 21, 22, 40, 41, 90],
            (0..100).map(|i| i * 3).collect(),
        ];
        for xs in arrays {
            for target in 0..=310 {
                let want = xs.partition_point(|&x| x < target);
                for hint in 0..=xs.len() + 2 {
                    let got = gallop(&xs, hint, |&x| x < target);
                    assert_eq!(got, want, "{} values, target {target}, hint {hint}", xs.len());
                }
            }
        }
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        dht.insert(Key(42), HostId(0), 1).unwrap();
        assert_eq!(dht.owner(Key(7)).unwrap(), Key(42));
        assert_eq!(dht.owner(Key(42)).unwrap(), Key(42));
        assert_eq!(dht.next_hop(Key(42), Key(7)).unwrap(), None);
        // Attachment-free table build on a singleton: no neighbors.
        let mut rng = Pcg64::seed_from_u64(0);
        let mut attachments = AttachmentMap::new();
        attachments.attach_new(RouterId(0));
        let mut g = bristle_netsim::graph::Graph::with_vertices(1);
        let _ = &mut g;
        let dc = DistanceCache::new(Arc::new(g), 1);
        let mut dht2: RingDht<()> = RingDht::new(RingConfig::tornado());
        dht2.insert(Key(42), HostId(0), 1).unwrap();
        dht2.rebuild(&[Key(42)], &attachments, &dc, &mut rng).unwrap();
        assert_eq!(
            dht2.rebuild(&[Key(7)], &attachments, &dc, &mut rng),
            Err(RingError::UnknownNode(Key(7)))
        );
        assert_eq!(dht2.node(Key(42)).unwrap().state_size(), 0);
    }

    // --------------------------------------------------------------
    // Differential tests: the lazy probe, the slab and the level skip
    // against the straightforward code they replaced.
    // --------------------------------------------------------------

    /// The eager scan `next_hop` used to be: drop every departed entry,
    /// then take the furthest advance that does not overshoot. One index
    /// lookup per entry, which is why it is now only the oracle.
    fn next_hop_eager<V>(
        dht: &RingDht<V>,
        cur: Key,
        target: Key,
    ) -> Result<Option<Key>, RingError> {
        let owner = dht.owner(target)?;
        if cur == owner {
            return Ok(None);
        }
        let node = dht.node(cur)?;
        let d = cur.clockwise_to(target);
        let mut best: Option<(u64, Key)> = None;
        for &k in node.keys() {
            if !dht.contains(k) {
                continue; // departed neighbor
            }
            let adv = cur.clockwise_to(k);
            if adv == 0 || adv > d {
                continue; // self or overshoot
            }
            if best.map(|(b, _)| adv > b).unwrap_or(true) {
                best = Some((adv, k));
            }
        }
        match best {
            Some((_, k)) => Ok(Some(k)),
            None => Ok(Some(dht.successor_of(cur.offset(1))?)),
        }
    }

    /// Every node × (every node key, its two neighbours on the key line,
    /// and some random keys): both scans must name the same hop.
    fn assert_hops_agree<V>(dht: &RingDht<V>, rng: &mut Pcg64, label: &str) {
        let keys: Vec<Key> = dht.keys().collect();
        let mut targets: Vec<Key> =
            keys.iter().flat_map(|k| [*k, k.offset(1), k.offset(u64::MAX)]).collect();
        targets.extend((0..64).map(|_| Key::random(rng)));
        targets.extend([Key::ZERO, Key::MAX]);
        for &cur in &keys {
            for &target in &targets {
                assert_eq!(
                    dht.next_hop(cur, target),
                    next_hop_eager(dht, cur, target),
                    "{label}: {cur} -> {target}"
                );
            }
        }
    }

    /// What the slab must keep true after any insert or remove.
    fn assert_storage_invariants<V, A: RowAddr>(dht: &RingDht<V, A>) {
        let keys: Vec<Key> = dht.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys() out of order");
        assert_eq!(dht.iter().map(|n| n.key).collect::<Vec<_>>(), keys, "iter() != keys()");
        assert_eq!(dht.len(), keys.len());
        let live = dht.slab.iter().filter(|c| c.live().is_some()).count();
        let tombs = dht.slab.iter().filter(|c| matches!(c, Cell::Tomb)).count();
        assert_eq!(live, dht.len(), "live cells != len()");
        assert_eq!(live + tombs, dht.used, "a tombstone is not counted as used");
        assert!(dht.slab.is_empty() || dht.used < dht.slab.len(), "no empty cell ends a probe");
        // The arena: live runs are disjoint, in bounds and `live()` rows
        // in all, each ascending; dead rows never outnumber live ones.
        let rows = &dht.rows;
        let mut spans: Vec<Span> = dht.slab.iter().filter_map(Cell::live).map(|o| o.span).collect();
        spans.retain(|s| s.len > 0);
        spans.sort_unstable_by_key(|s| s.start);
        assert!(spans.windows(2).all(|w| w[0].range().end <= w[1].range().start), "runs overlap");
        assert!(spans.last().is_none_or(|s| s.range().end <= rows.keys.len()), "run past the end");
        assert_eq!(spans.iter().map(|s| s.len as usize).sum::<usize>(), rows.live());
        assert_eq!(rows.keys.len(), rows.addrs.len());
        assert!(rows.dead <= rows.live(), "{} dead rows beside {} live", rows.dead, rows.live());
        // The learned table: each entry named by one live row at most,
        // `live_learned()` of them named, and no more dead than live.
        let mut named: Vec<usize> =
            spans.iter().flat_map(|s| &rows.addrs[s.range()]).filter_map(|r| r.entry()).collect();
        named.sort_unstable();
        assert!(named.windows(2).all(|w| w[0] < w[1]), "an entry named twice");
        assert!(named.last().is_none_or(|&at| at < rows.learned.len()), "entry past the end");
        assert_eq!(named.len(), rows.live_learned(), "live entries miscounted");
        assert!(
            rows.dead_learned <= rows.live_learned(),
            "{} dead entries beside {} live",
            rows.dead_learned,
            rows.live_learned()
        );
        assert!(A::LEARNS || rows.learned.capacity() == 0, "a ring that learns nothing allocated");
        assert!(dht.iter().all(|n| n.keys().windows(2).all(|w| w[0] < w[1])), "rows out of order");
        for &k in &keys {
            let slot = dht.slot_of(k).unwrap();
            assert_eq!(dht.occupant(slot).node.key, k, "probe lands on the wrong cell");
            assert_eq!(Some(&slot), dht.index.get(&k.0), "index and probe disagree at {k}");
            assert_eq!(
                dht.occupant(slot).pred,
                dht.predecessor_of(k).unwrap(),
                "stale pred at {k}"
            );
        }
    }

    /// Churn shaped like the system's — repair-sized `rebuild` batches,
    /// departures, joins (an insert, then the newcomer's rebuild) and
    /// upserts, over fixed and movable hosts — appends far more rows than
    /// the ring holds, yet dead rows never outnumber live ones, nor dead
    /// learned entries live ones, and neither an append nor a compaction
    /// changes any row of a node the step did not touch.
    #[test]
    fn arena_dead_rows_never_outnumber_live_through_churn() {
        let (mut dht, mut attachments, dcache) = setup(120, 27, RingConfig::tornado());
        let mut rng = Pcg64::seed_from_u64(28);
        let rows_of = |dht: &RingDht<u32>| -> BTreeMap<Key, (Vec<Key>, Vec<RowView<AddrHandle>>)> {
            dht.iter().map(|n| (n.key, (n.keys().to_vec(), row_views(n)))).collect()
        };
        let mut appended = 0;
        for step in 0..400 {
            let before = rows_of(&dht);
            let keys: Vec<Key> = dht.keys().collect();
            let (touched, rebuilt) = match rng.below(4) {
                0 => {
                    let mut batch: Vec<Key> =
                        (0..1 + rng.below(10)).map(|_| *rng.choose(&keys)).collect();
                    batch.sort_unstable();
                    batch.dedup();
                    dht.rebuild(&batch, &attachments, &dcache, &mut rng).unwrap();
                    (batch.clone(), batch)
                }
                1 if keys.len() > 60 => (vec![dht.remove(*rng.choose(&keys)).unwrap().key], vec![]),
                2 => {
                    let key = Key::random(&mut rng);
                    let host = attach_mixed(&mut attachments, RouterId(0));
                    dht.insert(key, host, 1).unwrap();
                    dht.rebuild(&[key], &attachments, &dcache, &mut rng).unwrap();
                    (vec![key], vec![key])
                }
                _ => {
                    let holder = *rng.choose(&keys);
                    let other = *rng.choose(&keys);
                    if other == holder {
                        continue;
                    }
                    let grew = !dht.node(holder).unwrap().knows(other);
                    let host = dht.node(other).unwrap().host;
                    if !attachments.is_fixed(host) && rng.chance(0.5) {
                        attachments.move_host(host, RouterId(1));
                    }
                    let addr = NetAddr::current(host, &attachments);
                    dht.upsert_entry(holder, other, addr, &attachments).unwrap();
                    (vec![holder], if grew { vec![holder] } else { vec![] })
                }
            };
            appended += rebuilt.iter().map(|&k| dht.node(k).unwrap().state_size()).sum::<usize>();
            assert_storage_invariants(&dht);
            for (key, rows) in rows_of(&dht) {
                if !touched.contains(&key) {
                    assert_eq!(Some(&rows), before.get(&key), "step {step}: rows of {key} moved");
                }
            }
        }
        assert!(appended > 4 * dht.total_state(), "churn too light to force a compaction");
    }

    #[test]
    fn lazy_next_hop_matches_eager_scan() {
        for (cfg, label) in [
            (RingConfig::tornado(), "tornado"),
            (RingConfig::chord(), "chord"),
            (RingConfig::tornado_no_locality(), "tornado_no_locality"),
        ] {
            for seed in [1u64, 2] {
                let (mut dht, attachments, dcache) = setup(48, seed, cfg.clone());
                let mut rng = Pcg64::seed_from_u64(seed ^ 0x5eed);
                assert_hops_agree(&dht, &mut rng, &format!("{label}/fresh"));

                // A third of the nodes gone, tables not rebuilt: entries dangle.
                let keys: Vec<Key> = dht.keys().collect();
                let gone: Vec<NodeState<u32>> =
                    keys.iter().step_by(3).map(|&k| dht.remove(k).unwrap()).collect();
                assert_storage_invariants(&dht);
                assert_hops_agree(&dht, &mut rng, &format!("{label}/a third removed"));

                // Half of them back (each on a tombstone of its own probe
                // chain), with tables of their own; everyone else still
                // routes on stale state.
                let (cells, used) = (dht.slab.len(), dht.used);
                for n in gone.iter().step_by(2) {
                    dht.insert(n.key, n.host, n.capacity).unwrap();
                    dht.rebuild(&[n.key], &attachments, &dcache, &mut rng).unwrap();
                }
                assert_eq!((dht.slab.len(), dht.used), (cells, used), "tombstones were not reused");
                assert_storage_invariants(&dht);
                assert_hops_agree(&dht, &mut rng, &format!("{label}/reinserted"));
            }
        }
    }

    #[test]
    fn lazy_next_hop_matches_eager_scan_on_tiny_and_wrapping_rings() {
        let rings: [&[u64]; 4] = [
            &[42],
            &[7, u64::MAX - 7],
            &[0, 1, u64::MAX - 1, u64::MAX],
            &[0, 1, 2, 1 << 62, 1 << 63, u64::MAX - 2, u64::MAX - 1, u64::MAX],
        ];
        for keys in rings {
            for cfg in
                [RingConfig::tornado(), RingConfig::chord(), RingConfig::tornado_no_locality()]
            {
                let mut rng = Pcg64::seed_from_u64(keys.len() as u64);
                let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
                let stubs = topo.stub_routers().to_vec();
                let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
                let mut attachments = AttachmentMap::new();
                let mut dht: RingDht<()> = RingDht::new(cfg);
                for &k in keys {
                    dht.insert(Key(k), attachments.attach_new(*rng.choose(&stubs)), 1).unwrap();
                    assert_storage_invariants(&dht);
                }
                dht.build_all_tables(&attachments, &dcache, &mut rng, 1);
                assert_hops_agree(&dht, &mut rng, &format!("{keys:?}"));
                // Drop the node next to the wrap point and route on stale tables.
                if keys.len() > 2 {
                    dht.remove(Key(*keys.last().unwrap()));
                    assert_storage_invariants(&dht);
                    assert_hops_agree(&dht, &mut rng, &format!("{keys:?} minus last"));
                }
            }
        }
    }

    #[test]
    fn slab_invariants_hold_under_random_churn() {
        let mut rng = Pcg64::seed_from_u64(77);
        let mut dht: RingDht<()> = RingDht::new(RingConfig::tornado());
        let mut live: Vec<Key> = Vec::new();
        for step in 0..600 {
            // Small key space so inserts collide and removes hit the ends.
            let insert = live.is_empty() || rng.chance(0.55);
            if insert {
                let k = match rng.below(8) {
                    0 => Key(rng.below(4)),
                    1 => Key(u64::MAX - rng.below(4)),
                    _ => Key::random(&mut rng),
                };
                match dht.insert(k, HostId(step), 1) {
                    Ok(()) => live.push(k),
                    Err(e) => assert_eq!(e, RingError::DuplicateKey(k)),
                }
            } else {
                let k = live.swap_remove(rng.index(live.len()));
                assert_eq!(dht.remove(k).map(|n| n.key), Some(k));
                assert!(dht.remove(k).is_none());
            }
            assert_storage_invariants(&dht);
            assert_eq!(dht.len(), live.len());
        }
    }

    /// Cells a probe for the live key `k` reads: its home through its own.
    fn probe_len<V>(dht: &RingDht<V>, k: Key) -> usize {
        let cells = dht.slab.len();
        let at = dht.slot_of(k).unwrap().0 as usize;
        (at + cells - home(k.0, cells)) % cells + 1
    }

    /// The hashed slab against the ordered index over generated op lists:
    /// inserts, removes, re-inserts of removed keys, a `with_capacity`
    /// ring refilled with the live keys, and one node's rebuild — on keys
    /// packed against 0 and `u64::MAX`, and on one narrow band (clustered
    /// naming's stationary keys). After every op each live key probes to
    /// its own cell, which is the index's; every absent key is unknown;
    /// and only an insert moves anyone's slot.
    #[test]
    fn hashed_slab_matches_the_ordered_index_through_generated_churn() {
        let mut rng = Pcg64::seed_from_u64(26);
        let topo = TransitStubTopology::generate(&TransitStubConfig::tiny(), &mut rng);
        let stubs = topo.stub_routers().to_vec();
        let dcache = DistanceCache::new(Arc::new(topo.into_graph()), 256);
        let mut attachments = AttachmentMap::new();
        let hosts: Vec<HostId> =
            (0..32).map(|_| attach_mixed(&mut attachments, *rng.choose(&stubs))).collect();
        let never: Vec<Key> = (0..8).map(|i| Key((1 << 62) + i)).collect();
        for shape in ["edge keys", "clustered"] {
            let draw = |rng: &mut Pcg64| match (shape, rng.below(2)) {
                ("edge keys", 0) => Key(rng.below(256)),
                ("edge keys", _) => Key(u64::MAX - rng.below(256)),
                _ => Key((1 << 63) - 512 + rng.below(1024)),
            };
            for seed in 0..4u64 {
                let mut rng = Pcg64::seed_from_u64(seed);
                let cfg = RingConfig::tornado();
                let mut dht: RingDht<()> = RingDht::new(cfg.clone());
                let mut host_of: BTreeMap<Key, HostId> = BTreeMap::new();
                let mut gone: Vec<Key> = Vec::new();
                for step in 0..500 {
                    let at = format!("{shape}/seed {seed}/step {step}");
                    let before: Vec<(u64, Slot)> =
                        dht.index.iter().map(|(&k, &s)| (k, s)).collect();
                    let mut inserted = false;
                    match rng.below(20) {
                        0..=7 => {
                            let key = draw(&mut rng);
                            let host = *rng.choose(&hosts);
                            match dht.insert(key, host, 1) {
                                Ok(()) => {
                                    host_of.insert(key, host);
                                    gone.retain(|&g| g != key);
                                    inserted = true;
                                }
                                Err(e) => assert_eq!(e, RingError::DuplicateKey(key), "{at}"),
                            }
                        }
                        8..=12 if !dht.is_empty() => {
                            let keys: Vec<Key> = dht.keys().collect();
                            let key = *rng.choose(&keys);
                            assert_eq!(dht.remove(key).map(|n| n.key), Some(key), "{at}");
                            host_of.remove(&key);
                            gone.push(key);
                        }
                        13..=15 if !gone.is_empty() => {
                            let key = gone.swap_remove(rng.index(gone.len()));
                            let host = *rng.choose(&hosts);
                            dht.insert(key, host, 1).unwrap();
                            host_of.insert(key, host);
                            inserted = true;
                        }
                        16..=18 if !dht.is_empty() => {
                            let keys: Vec<Key> = dht.keys().collect();
                            let key = *rng.choose(&keys);
                            dht.rebuild(&[key], &attachments, &dcache, &mut rng).unwrap();
                        }
                        _ => {
                            // A fresh ring sized for the live keys and a
                            // few more: refilling it moves no slot.
                            let mut fresh = RingDht::with_capacity(cfg.clone(), host_of.len() + 4);
                            let cells = fresh.slab.len();
                            let mut placed = Vec::new();
                            for (&key, &host) in &host_of {
                                fresh.insert(key, host, 1).unwrap();
                                placed.push((key, fresh.slot_of(key).unwrap()));
                            }
                            for (key, slot) in placed {
                                assert_eq!(fresh.slot_of(key), Ok(slot), "{at}: {key} moved");
                            }
                            assert_eq!(fresh.slab.len(), cells, "{at}: laid out again");
                            dht = fresh;
                            inserted = true;
                        }
                    }
                    assert_storage_invariants(&dht);
                    assert_eq!(dht.len(), host_of.len(), "{at}");
                    for &key in gone.iter().chain(&never) {
                        assert_eq!(dht.slot_of(key), Err(RingError::UnknownNode(key)), "{at}");
                        assert!(!dht.contains(key) && dht.node(key).is_err(), "{at}: {key}");
                    }
                    if !inserted {
                        for (key, slot) in before.into_iter().filter(|(k, _)| dht.contains(Key(*k)))
                        {
                            assert_eq!(dht.slot_of(Key(key)), Ok(slot), "{at}: {key:x} moved");
                        }
                    }
                }
            }
        }
    }

    /// Mean cells read by a successful probe at the two loads the slab
    /// runs at: 4/5 when a `with_capacity` ring is full, and just under
    /// 7/8, the most an insert leaves before laying the slab out again.
    /// Linear probing's expectation is ½(1 + 1/(1 − α)) cells: 3.0 and
    /// 4.5 (Knuth). At 4 000 keys a mean lands within about ±0.2 of 3.0
    /// from seed to seed, so the bounds leave half a cell and a cell and
    /// a half for that; a hash that clustered the keys would read many.
    #[test]
    fn successful_probes_stay_short_at_both_loads() {
        let n = 4000;
        for shape in ["random", "sequential", "band"] {
            let mut rng = Pcg64::seed_from_u64(3);
            let mut dht: RingDht<()> = RingDht::with_capacity(RingConfig::tornado(), n);
            let cells = dht.slab.len();
            let mean = |dht: &RingDht<()>| {
                dht.keys().map(|k| probe_len(dht, k)).sum::<usize>() as f64 / dht.len() as f64
            };
            let mut i = 0u64;
            let mut insert_to = |dht: &mut RingDht<()>, count: usize| {
                while dht.len() < count {
                    let key = match shape {
                        "random" => Key::random(&mut rng),
                        "sequential" => Key(i),
                        _ => Key((1 << 63) + (i << 12)),
                    };
                    i += 1;
                    let _ = dht.insert(key, HostId(0), 1);
                }
            };
            insert_to(&mut dht, n);
            let at_build = mean(&dht);
            insert_to(&mut dht, cells * 7 / 8);
            let at_limit = mean(&dht);
            assert_eq!(dht.slab.len(), cells, "{shape}: laid out before 7/8");
            assert!(at_build <= 3.5, "{shape}: {at_build:.2} cells at load 4/5");
            assert!(at_limit <= 6.0, "{shape}: {at_limit:.2} cells at load 7/8");
        }
    }

    #[test]
    fn skipping_empty_finger_levels_changes_neither_tables_nor_rng() {
        for (cfg, label) in [
            (RingConfig::tornado(), "proximity"),
            (RingConfig::chord(), "first"),
            (RingConfig::tornado_no_locality(), "random"),
        ] {
            // 4 nodes: huge gaps, nearly every level skipped; 300: few are.
            for n in [1usize, 2, 4, 300] {
                let (dht, attachments, dcache) = setup(n, 21, cfg.clone());
                let mut skipped_any = false;
                let mut rng_skip = Pcg64::seed_from_u64(5);
                let mut rng_full = rng_skip.clone();
                for key in dht.keys() {
                    let first = first_finger_level(&dht, key);
                    skipped_any |= first > 0;
                    let skip = finger_picks(&dht, key, first, &attachments, &dcache, &mut rng_skip);
                    let full = finger_picks(&dht, key, 0, &attachments, &dcache, &mut rng_full);
                    assert_eq!(skip, full, "{label}/{n}: picks diverged at {key}");
                    assert_eq!(
                        format!("{rng_skip:?}"),
                        format!("{rng_full:?}"),
                        "{label}/{n}: RNG streams diverged at {key}"
                    );
                }
                assert!(skipped_any || n == 1, "{label}/{n}: the skip never fired");
            }
        }
    }
}
