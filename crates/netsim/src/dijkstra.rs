//! Single-source shortest paths and a memoizing distance oracle.
//!
//! The paper charges every application-level hop the *shortest-path weight*
//! between the two routers involved (computed with Dijkstra's algorithm),
//! and sums those weights into a route's "path cost". Experiments issue
//! millions of pairwise distance queries over a handful of sources, so we
//! memoize whole single-source distance vectors in a [`DistanceCache`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, RwLock};

use crate::graph::{Graph, RouterId};

/// Distance value: `u64` to avoid overflow when summing `u32` weights.
pub type Dist = u64;

/// Sentinel for "unreachable".
pub const UNREACHABLE: Dist = Dist::MAX;

/// Computes shortest-path distances from `src` to every vertex.
///
/// Returns a vector indexed by router id; unreachable vertices hold
/// [`UNREACHABLE`].
pub fn single_source(graph: &Graph, src: RouterId) -> Vec<Dist> {
    let n = graph.vertex_count();
    assert!(src.index() < n, "source out of range");
    let mut dist = vec![UNREACHABLE; n];
    let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for e in graph.neighbors(RouterId(v)) {
            let nd = d + e.weight as Dist;
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
/// Caches full single-source distance vectors keyed by source router. The
/// cache is bounded: past [`DistanceCache::capacity`] sources it evicts an
/// arbitrary entry (experiments exhibit heavy source reuse, so eviction is
/// rare in practice).
pub struct DistanceCache {
    graph: Arc<Graph>,
    capacity: usize,
    // Rows live in a bounded `Vec`; a hit is one read of `index`, never a
    // scan. A miss takes the write lock and, at capacity, evicts round-robin.
    slots: RwLock<CacheSlots>,
}

struct CacheSlots {
    /// `index[s]` = slot holding distances from source `s`, or `u32::MAX`.
    index: Vec<u32>,
    entries: Vec<(RouterId, Arc<Vec<Dist>>)>,
    /// Round-robin eviction cursor.
    cursor: usize,
}

impl DistanceCache {
    /// Creates a cache over `graph` holding at most `capacity` source rows.
    pub fn new(graph: Arc<Graph>, capacity: usize) -> Self {
        let n = graph.vertex_count();
        DistanceCache {
            graph,
            capacity: capacity.max(1),
            slots: RwLock::new(CacheSlots {
                index: vec![u32::MAX; n],
                entries: Vec::new(),
                cursor: 0,
            }),
        }
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
        self.slots.read().expect("cache lock poisoned").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `read` applied to `src`'s row under the read guard, if it is cached.
    fn cached<R>(&self, src: RouterId, read: impl FnOnce(&Arc<Vec<Dist>>) -> R) -> Option<R> {
        let slots = self.slots.read().expect("cache lock poisoned");
        let slot = slots.index[src.index()];
        (slot != u32::MAX).then(|| read(&slots.entries[slot as usize].1))
    }

    /// Returns the distance row for `src`, computing it on first use.
    pub fn row(&self, src: RouterId) -> Arc<Vec<Dist>> {
        if let Some(row) = self.cached(src, Arc::clone) {
            return row;
        }
        let row = Arc::new(single_source(&self.graph, src));
        let mut slots = self.slots.write().expect("cache lock poisoned");
        // Another thread may have inserted while we computed.
        let slot = slots.index[src.index()];
        if slot != u32::MAX {
            return Arc::clone(&slots.entries[slot as usize].1);
        }
        if slots.entries.len() < self.capacity {
            slots.entries.push((src, Arc::clone(&row)));
            let pos = (slots.entries.len() - 1) as u32;
            slots.index[src.index()] = pos;
        } else {
            let cursor = slots.cursor;
            slots.cursor = (cursor + 1) % self.capacity;
            let (old_src, _) = slots.entries[cursor];
            slots.index[old_src.index()] = u32::MAX;
            slots.entries[cursor] = (src, Arc::clone(&row));
            slots.index[src.index()] = cursor as u32;
        }
        row
    }

    /// Shortest-path distance between two routers.
    ///
    /// A hit reads the one value under the read guard; callers that want
    /// many distances from one source take [`DistanceCache::row`] once.
    pub fn distance(&self, a: RouterId, b: RouterId) -> Dist {
        if a == b {
            return 0;
        }
        self.cached(a, |row| row[b.index()]).unwrap_or_else(|| self.row(a)[b.index()])
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
                    assert_eq!(d, cache.row(RouterId(a))[b as usize], "{a}->{b}");
                    assert_eq!(d, truth[a as usize][b as usize], "{a}->{b}");
                }
            }
        });
        assert_eq!(cache.len(), 1);
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
