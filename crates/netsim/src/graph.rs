//! Compact undirected weighted graph over router vertices.

use std::fmt;

/// Identifier of a router (a vertex of the physical topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

impl RouterId {
    /// The router id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Link weight. The paper's "path weight"; dimensionless cost units.
pub type Weight = u32;

/// An edge incident to some vertex: the neighbor and the link weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The far endpoint.
    pub to: RouterId,
    /// The link cost.
    pub weight: Weight,
}

/// An undirected weighted graph in adjacency-list form.
///
/// Vertices are dense `RouterId`s `0..n`. Parallel edges are permitted but
/// never produced by the in-tree generators; self-loops are rejected.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds an undirected edge `a — b` with the given weight.
    ///
    /// # Panics
    /// Panics on self-loops, zero weights, or out-of-range endpoints.
    pub fn add_edge(&mut self, a: RouterId, b: RouterId, weight: Weight) {
        assert_ne!(a, b, "self-loop {a}");
        assert!(weight > 0, "zero-weight link {a}–{b}");
        assert!(a.index() < self.adj.len() && b.index() < self.adj.len(), "vertex out of range");
        self.adj[a.index()].push(Edge { to: b, weight });
        self.adj[b.index()].push(Edge { to: a, weight });
        self.edge_count += 1;
    }

    /// Returns whether an edge `a — b` exists (any weight).
    pub fn has_edge(&self, a: RouterId, b: RouterId) -> bool {
        self.adj.get(a.index()).is_some_and(|edges| edges.iter().any(|e| e.to == b))
    }

    /// The neighbors (with weights) of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: RouterId) -> &[Edge] {
        &self.adj[v.index()]
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.adj.len() as u32).map(RouterId)
    }

    /// Returns whether the graph is connected (trivially true when empty).
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![RouterId(0)];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = stack.pop() {
            for e in self.neighbors(v) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    visited += 1;
                    stack.push(e.to);
                }
            }
        }
        visited == n
    }

    /// Sum of all link weights (each undirected edge counted once).
    pub fn total_weight(&self) -> u64 {
        self.adj.iter().flat_map(|edges| edges.iter().map(|e| e.weight as u64)).sum::<u64>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_vertices(3);
        g.add_edge(RouterId(0), RouterId(1), 1);
        g.add_edge(RouterId(1), RouterId(2), 2);
        g.add_edge(RouterId(2), RouterId(0), 3);
        g
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for v in g.vertices() {
            for e in g.neighbors(v) {
                assert!(g
                    .neighbors(e.to)
                    .iter()
                    .any(|back| back.to == v && back.weight == e.weight));
            }
        }
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(RouterId(0), RouterId(1)));
        assert!(g.has_edge(RouterId(1), RouterId(0)));
        assert!(!g.has_edge(RouterId(0), RouterId(0)));
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let mut g = Graph::with_vertices(4);
        g.add_edge(RouterId(0), RouterId(1), 1);
        g.add_edge(RouterId(2), RouterId(3), 1);
        assert!(!g.is_connected());
        assert!(Graph::with_vertices(0).is_connected());
        assert!(Graph::with_vertices(1).is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = Graph::with_vertices(1);
        g.add_edge(RouterId(0), RouterId(0), 1);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(RouterId(0), RouterId(1), 0);
    }
}
