//! Single-source shortest paths and a memoizing distance oracle.
//!
//! The paper charges every application-level hop the *shortest-path weight*
//! between the two routers involved (computed with Dijkstra's algorithm),
//! and sums those weights into a route's "path cost". Experiments issue
//! millions of pairwise distance queries over a handful of sources, so we
//! memoize whole single-source distance vectors in a [`DistanceCache`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::graph::{Graph, RouterId, Weight};

/// Distance value: `u64` to avoid overflow when summing `u32` weights.
pub type Dist = u64;

/// Sentinel for "unreachable".
pub const UNREACHABLE: Dist = Dist::MAX;

/// Computes shortest-path distances from `src` to every vertex.
///
/// Returns a vector indexed by router id; unreachable vertices hold
/// [`UNREACHABLE`].
pub fn single_source(graph: &Graph, src: RouterId) -> Vec<Dist> {
    dijkstra(graph, src, UNREACHABLE, |d, w| d + Dist::from(w))
}

/// Dijkstra from `src` in distance type `D`: `inf` marks the unreachable
/// and `add` extends a distance by one link.
fn dijkstra<D: Copy + Ord + From<u32>>(
    graph: &Graph,
    src: RouterId,
    inf: D,
    add: impl Fn(D, Weight) -> D,
) -> Vec<D> {
    let n = graph.vertex_count();
    assert!(src.index() < n, "source out of range");
    let mut dist = vec![inf; n];
    let mut heap: BinaryHeap<Reverse<(D, u32)>> = BinaryHeap::new();
    dist[src.index()] = D::from(0);
    heap.push(Reverse((D::from(0), src.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for e in graph.neighbors(RouterId(v)) {
            let nd = add(d, e.weight);
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                heap.push(Reverse((nd, e.to.0)));
            }
        }
    }
    dist
}

/// Computes the shortest path from `src` to `dst` and returns
/// `(total weight, vertex sequence src..=dst)`, or `None` if unreachable.
pub fn shortest_path(graph: &Graph, src: RouterId, dst: RouterId) -> Option<(Dist, Vec<RouterId>)> {
    let n = graph.vertex_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut prev: Vec<u32> = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        if v == dst.0 {
            break;
        }
        for e in graph.neighbors(RouterId(v)) {
            let nd = d + e.weight as Dist;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                prev[e.to.index()] = v;
                heap.push(Reverse((nd, e.to.0)));
            }
        }
    }
    if dist[dst.index()] == UNREACHABLE {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = RouterId(prev[cur.index()]);
        path.push(cur);
    }
    path.reverse();
    Some((dist[dst.index()], path))
}

/// A thread-safe memoizing shortest-path-distance oracle.
///
/// Caches full single-source distance vectors keyed by source router, at
/// most [`DistanceCache::capacity`] of them. A row holds each distance in
/// 4 bytes, `u32::MAX` for unreachable, which sorts last, so a caller
/// comparing entries of one [`DistanceCache::row`] compares them as
/// stored; [`DistanceCache::distance`] widens its answer to [`Dist`].
/// Which of two tables holds the rows is fixed at construction by that
/// bound alone:
///
/// * `capacity >= vertex_count` — nothing can ever be evicted, so each
///   source has a cell of its own that is written once. A hit takes no
///   lock and no atomic read-modify-write: it is the cell's state word,
///   the row pointer and the value.
/// * below that — a bounded table behind a lock that evicts round-robin
///   (experiments exhibit heavy source reuse, so eviction is rare in
///   practice).
pub struct DistanceCache {
    graph: Arc<Graph>,
    capacity: usize,
    rows: Rows,
}

enum Rows {
    /// `cells[s]` = distances from source `s`, once asked for.
    Dense(Box<[OnceLock<Arc<[u32]>>]>),
    /// Rows live in a bounded `Vec`; a hit is one read of `index`, never a
    /// scan. A miss takes the write lock and, at capacity, evicts round-robin.
    Bounded(RwLock<CacheSlots>),
}

struct CacheSlots {
    /// `index[s]` = slot holding distances from source `s`, or `u32::MAX`.
    index: Vec<u32>,
    entries: Vec<(RouterId, Arc<[u32]>)>,
    /// Round-robin eviction cursor.
    cursor: usize,
}

impl CacheSlots {
    fn get(&self, src: RouterId) -> Option<&Arc<[u32]>> {
        let slot = self.index[src.index()];
        (slot != u32::MAX).then(|| &self.entries[slot as usize].1)
    }
}

/// A guard on the bounded table, poisoned or not. A row is computed
/// before the write guard is taken, and wherever a write section could
/// be cut short every `index` entry that is set still names an entry
/// holding that source's row — the worst left behind is a row nothing
/// points at, which the cursor reclaims — so the table a panicked
/// holder leaves is as good as the one it found.
fn unpoisoned<G>(guard: Result<G, PoisonError<G>>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl DistanceCache {
    /// Creates a cache over `graph` holding at most `capacity` source rows.
    ///
    /// Panics if `graph`'s link weights sum to `u32::MAX` or more: no
    /// shortest path outweighs every link together, so below that each
    /// distance fits a row's 4 bytes with the sentinel left free.
    pub fn new(graph: Arc<Graph>, capacity: usize) -> Self {
        let total = graph.total_weight();
        assert!(total < u64::from(u32::MAX), "link weights sum to {total}, past a 4-byte row");
        let n = graph.vertex_count();
        let capacity = capacity.max(1);
        let rows = if capacity >= n {
            Rows::Dense((0..n).map(|_| OnceLock::new()).collect())
        } else {
            Rows::Bounded(RwLock::new(CacheSlots {
                index: vec![u32::MAX; n],
                entries: Vec::new(),
                cursor: 0,
            }))
        };
        DistanceCache { graph, capacity, rows }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Maximum number of cached source rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of source rows currently cached.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Dense(cells) => cells.iter().filter(|cell| cell.get().is_some()).count(),
            Rows::Bounded(slots) => unpoisoned(slots.read()).entries.len(),
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the distance row for `src`, computing it on first use:
    /// `u32::MAX` where a router is unreachable. Callers that race for an
    /// uncomputed row get the same one.
    pub fn row(&self, src: RouterId) -> Arc<[u32]> {
        match &self.rows {
            Rows::Dense(cells) => Arc::clone(cells[src.index()].get_or_init(|| self.compute(src))),
            Rows::Bounded(slots) => self.bounded_row(slots, src),
        }
    }

    /// Dijkstra in a row's width. [`DistanceCache::new`] keeps every
    /// shortest path below `u32::MAX`, so a sum that saturates is no
    /// shortest path and never wins.
    fn compute(&self, src: RouterId) -> Arc<[u32]> {
        dijkstra(&self.graph, src, u32::MAX, u32::saturating_add).into()
    }

    fn bounded_row(&self, slots: &RwLock<CacheSlots>, src: RouterId) -> Arc<[u32]> {
        if let Some(row) = unpoisoned(slots.read()).get(src) {
            return Arc::clone(row);
        }
        let row = self.compute(src);
        let mut slots = unpoisoned(slots.write());
        // Another thread may have inserted while we computed.
        if let Some(row) = slots.get(src) {
            return Arc::clone(row);
        }
        if slots.entries.len() < self.capacity {
            let pos = slots.entries.len() as u32;
            slots.entries.push((src, Arc::clone(&row)));
            slots.index[src.index()] = pos;
        } else {
            let cursor = slots.cursor;
            slots.cursor = (cursor + 1) % self.capacity;
            let old_src = slots.entries[cursor].0;
            slots.index[old_src.index()] = u32::MAX;
            slots.entries[cursor] = (src, Arc::clone(&row));
            slots.index[src.index()] = cursor as u32;
        }
        row
    }

    /// Shortest-path distance between two routers, [`UNREACHABLE`] if
    /// there is none.
    ///
    /// A hit reads the one value in place; callers that want many
    /// distances from one source take [`DistanceCache::row`] once.
    pub fn distance(&self, a: RouterId, b: RouterId) -> Dist {
        if a == b {
            return 0;
        }
        let hit = match &self.rows {
            Rows::Dense(cells) => cells[a.index()].get().map(|row| row[b.index()]),
            Rows::Bounded(slots) => unpoisoned(slots.read()).get(a).map(|row| row[b.index()]),
        };
        match hit.unwrap_or_else(|| self.row(a)[b.index()]) {
            u32::MAX => UNREACHABLE,
            d => Dist::from(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Weight;
    use crate::rng::Pcg64;

    fn line(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(RouterId(i as u32), RouterId(i as u32 + 1), (i + 1) as Weight);
        }
        g
    }

    /// O(V^3) Floyd–Warshall oracle for cross-checking Dijkstra.
    fn floyd_warshall(g: &Graph) -> Vec<Vec<Dist>> {
        let n = g.vertex_count();
        let mut d = vec![vec![UNREACHABLE; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0;
        }
        for v in g.vertices() {
            for e in g.neighbors(v) {
                let w = e.weight as Dist;
                if w < d[v.index()][e.to.index()] {
                    d[v.index()][e.to.index()] = w;
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                if d[i][k] == UNREACHABLE {
                    continue;
                }
                for j in 0..n {
                    if d[k][j] == UNREACHABLE {
                        continue;
                    }
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        d
    }

    /// A row as `Dist`s, its sentinel read as [`UNREACHABLE`].
    fn widened(row: &[u32]) -> Vec<Dist> {
        row.iter().map(|&d| if d == u32::MAX { UNREACHABLE } else { Dist::from(d) }).collect()
    }

    fn random_connected(rng: &mut Pcg64, n: usize, extra: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        // Random spanning tree, then extra chords.
        for i in 1..n {
            let j = rng.index(i);
            g.add_edge(
                RouterId(i as u32),
                RouterId(j as u32),
                rng.range_inclusive(1, 20) as Weight,
            );
        }
        let mut added = 0;
        while added < extra {
            let a = rng.index(n);
            let b = rng.index(n);
            if a != b && !g.has_edge(RouterId(a as u32), RouterId(b as u32)) {
                g.add_edge(
                    RouterId(a as u32),
                    RouterId(b as u32),
                    rng.range_inclusive(1, 20) as Weight,
                );
                added += 1;
            }
        }
        g
    }

    #[test]
    fn line_distances() {
        let g = line(5);
        let d = single_source(&g, RouterId(0));
        // Weights 1,2,3,4 → prefix sums.
        assert_eq!(d, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn matches_floyd_warshall_on_random_graphs() {
        let mut rng = Pcg64::seed_from_u64(99);
        for trial in 0..5 {
            let g = random_connected(&mut rng, 30 + trial * 10, 25);
            let fw = floyd_warshall(&g);
            for v in g.vertices() {
                assert_eq!(single_source(&g, v), fw[v.index()], "source {v}");
            }
        }
    }

    #[test]
    fn unreachable_marked() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(RouterId(0), RouterId(1), 5);
        let d = single_source(&g, RouterId(0));
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn shortest_path_reconstruction() {
        let g = line(6);
        let (w, path) = shortest_path(&g, RouterId(0), RouterId(5)).unwrap();
        assert_eq!(w, 1 + 2 + 3 + 4 + 5);
        assert_eq!(path, (0..6).map(RouterId).collect::<Vec<_>>());
    }

    #[test]
    fn shortest_path_prefers_cheap_detour() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(RouterId(0), RouterId(2), 10);
        g.add_edge(RouterId(0), RouterId(1), 2);
        g.add_edge(RouterId(1), RouterId(2), 3);
        let (w, path) = shortest_path(&g, RouterId(0), RouterId(2)).unwrap();
        assert_eq!(w, 5);
        assert_eq!(path, vec![RouterId(0), RouterId(1), RouterId(2)]);
    }

    #[test]
    fn shortest_path_none_when_disconnected() {
        let g = Graph::with_vertices(2);
        assert!(shortest_path(&g, RouterId(0), RouterId(1)).is_none());
    }

    #[test]
    fn cache_agrees_with_direct_computation() {
        let mut rng = Pcg64::seed_from_u64(17);
        let g = Arc::new(random_connected(&mut rng, 60, 40));
        let cache = DistanceCache::new(Arc::clone(&g), 8);
        for _ in 0..200 {
            let a = RouterId(rng.index(60) as u32);
            let b = RouterId(rng.index(60) as u32);
            assert_eq!(cache.distance(a, b), single_source(&g, a)[b.index()]);
        }
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn cache_self_distance_zero_without_population() {
        let g = Arc::new(line(4));
        let cache = DistanceCache::new(g, 2);
        assert_eq!(cache.distance(RouterId(2), RouterId(2)), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_eviction_keeps_correctness() {
        let g = Arc::new(line(10));
        let cache = DistanceCache::new(Arc::clone(&g), 2);
        for round in 0..3 {
            for s in 0..10u32 {
                let d = cache.distance(RouterId(s), RouterId(9));
                let expect = single_source(&g, RouterId(s))[9];
                assert_eq!(d, expect, "round {round} source {s}");
            }
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distance_equals_row_while_every_call_evicts_under_concurrent_readers() {
        let mut rng = Pcg64::seed_from_u64(41);
        let n = 24u32;
        let g = Arc::new(random_connected(&mut rng, n as usize, 20));
        let truth: Vec<Vec<Dist>> = g.vertices().map(|v| single_source(&g, v)).collect();
        // One row: any two different sources evict each other.
        let cache = DistanceCache::new(Arc::clone(&g), 1);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for stride in [5u32, 7] {
                let (cache, truth, start) = (&cache, &truth, &start);
                s.spawn(move || {
                    start.wait();
                    // Coprime strides: each reader visits every source, in
                    // an order of its own, so hits and misses interleave.
                    for i in 0..n * 40 {
                        let (a, b) = ((i * stride) % n, (i * 11) % n);
                        let d = cache.distance(RouterId(a), RouterId(b));
                        assert_eq!(d, truth[a as usize][b as usize], "reader {stride}: {a}->{b}");
                    }
                });
            }
            start.wait();
            for a in 0..n {
                for b in 0..n {
                    let d = cache.distance(RouterId(a), RouterId(b));
                    assert_eq!(d, Dist::from(cache.row(RouterId(a))[b as usize]), "{a}->{b}");
                    assert_eq!(d, truth[a as usize][b as usize], "{a}->{b}");
                }
            }
        });
        assert_eq!(cache.len(), 1);
    }

    /// The table is chosen by `capacity` alone, so the same graph asked
    /// through both must give the same answers — and the reference's.
    #[test]
    fn dense_and_bounded_rows_agree_with_floyd_warshall() {
        let mut rng = Pcg64::seed_from_u64(73);
        for trial in 0..4 {
            let n = 12 + trial * 9;
            let g = Arc::new(random_connected(&mut rng, n, n));
            let fw = floyd_warshall(&g);
            let dense = DistanceCache::new(Arc::clone(&g), n);
            let bounded = DistanceCache::new(Arc::clone(&g), 3);
            assert!(
                matches!(dense.rows, Rows::Dense(_)) && matches!(bounded.rows, Rows::Bounded(_))
            );
            assert_eq!((dense.capacity(), bounded.capacity()), (n, 3));
            for cache in [&dense, &bounded] {
                for v in g.vertices() {
                    assert_eq!(cache.distance(v, v), 0);
                }
                assert!(cache.is_empty(), "trial {trial}: a self-distance computes no row");
            }
            for (asked, a) in g.vertices().enumerate() {
                for b in g.vertices() {
                    let want = fw[a.index()][b.index()];
                    assert_eq!(dense.distance(a, b), want, "trial {trial}: dense {a}->{b}");
                    assert_eq!(bounded.distance(a, b), want, "trial {trial}: bounded {a}->{b}");
                }
                assert_eq!(widened(&dense.row(a)), fw[a.index()], "trial {trial}: dense row {a}");
                assert_eq!(
                    widened(&bounded.row(a)),
                    fw[a.index()],
                    "trial {trial}: bounded row {a}"
                );
                // `len` counts computed rows: every one kept, or the last three.
                assert_eq!(dense.len(), asked + 1, "trial {trial}");
                assert_eq!(bounded.len(), (asked + 1).min(3), "trial {trial}");
            }
            // Evicted sources are recomputed, in any order, to the same rows.
            for a in (0..n as u32).rev().map(RouterId) {
                assert_eq!(bounded.row(a)[..], dense.row(a)[..], "trial {trial}: revisit {a}");
            }
            assert_eq!((dense.len(), bounded.len()), (n, 3));
        }
    }

    /// A row holds 4 bytes a router in either table; a router cut off
    /// reads `u32::MAX` there and [`UNREACHABLE`] through `distance`,
    /// and a path one short of the sentinel is a distance like any other.
    #[test]
    fn a_row_is_four_bytes_a_router() {
        let heavy = u32::MAX / 2;
        // Routers 0–1–2 in a line weighing `u32::MAX - 1`; 3 and 4 cut off.
        let mut g = Graph::with_vertices(5);
        g.add_edge(RouterId(0), RouterId(1), heavy);
        g.add_edge(RouterId(1), RouterId(2), heavy);
        assert_eq!(g.total_weight(), u64::from(u32::MAX) - 1);
        let g = Arc::new(g);
        for capacity in [5, 2] {
            let cache = DistanceCache::new(Arc::clone(&g), capacity);
            for v in g.vertices() {
                let row = cache.row(v);
                assert_eq!(
                    std::mem::size_of_val(&*row),
                    4 * g.vertex_count(),
                    "capacity {capacity}"
                );
            }
            assert_eq!(cache.row(RouterId(0))[..], [0, heavy, 2 * heavy, u32::MAX, u32::MAX]);
            assert_eq!(cache.distance(RouterId(0), RouterId(2)), Dist::from(u32::MAX - 1));
            assert_eq!(cache.distance(RouterId(2), RouterId(0)), Dist::from(u32::MAX - 1));
            assert_eq!(cache.distance(RouterId(1), RouterId(4)), UNREACHABLE);
            assert_eq!(cache.distance(RouterId(4), RouterId(0)), UNREACHABLE);
            assert_eq!(cache.distance(RouterId(4), RouterId(3)), UNREACHABLE);
        }
    }

    #[test]
    #[should_panic(expected = "past a 4-byte row")]
    fn a_graph_whose_weights_reach_the_sentinel_is_refused() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(RouterId(0), RouterId(1), u32::MAX / 2);
        g.add_edge(RouterId(1), RouterId(2), u32::MAX / 2 + 1);
        assert_eq!(g.total_weight(), u64::from(u32::MAX));
        DistanceCache::new(Arc::new(g), 3);
    }

    #[test]
    fn dense_row_is_computed_once_when_two_threads_race_for_it() {
        let mut rng = Pcg64::seed_from_u64(29);
        let g = Arc::new(random_connected(&mut rng, 40, 30));
        let cache = DistanceCache::new(Arc::clone(&g), 40);
        let start = std::sync::Barrier::new(2);
        for src in g.vertices() {
            let (mine, theirs) = std::thread::scope(|s| {
                let other = s.spawn(|| {
                    start.wait();
                    cache.row(src)
                });
                start.wait();
                (cache.row(src), other.join().expect("reader finished"))
            });
            assert!(Arc::ptr_eq(&mine, &theirs), "source {src}: one Dijkstra, one row");
            assert!(Arc::ptr_eq(&mine, &cache.row(src)));
            assert_eq!(cache.len(), src.index() + 1);
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let mut rng = Pcg64::seed_from_u64(23);
        let g = Arc::new(random_connected(&mut rng, 40, 30));
        let cache = DistanceCache::new(g, 64);
        for _ in 0..500 {
            let a = RouterId(rng.index(40) as u32);
            let b = RouterId(rng.index(40) as u32);
            let c = RouterId(rng.index(40) as u32);
            assert!(cache.distance(a, c) <= cache.distance(a, b) + cache.distance(b, c));
        }
    }
}
