//! Breadth-first traversal over graphs and graph views.
//!
//! Every peeling iteration of the CTC algorithms runs `|Q|` BFS passes, so
//! the machinery here is built for reuse: a generic [`Adjacency`] trait lets
//! the same BFS run over a [`CsrGraph`], a [`DynGraph`] deletion overlay, or
//! an edge-filtered view, and [`BfsScratch`] recycles its buffers across runs
//! with epoch stamping (no `O(n)` clearing per BFS).

use crate::csr::CsrGraph;
use crate::distfield::EpochMarks;
use crate::dynamic::DynGraph;
use crate::ids::{EdgeId, VertexId};

/// Distance value for unreachable vertices.
pub const INF: u32 = u32::MAX;

/// Neighborhood access abstraction for traversals.
pub trait Adjacency {
    /// Number of vertex slots (dead vertices included).
    fn vertex_count(&self) -> usize;
    /// `true` if `v` participates in the view.
    fn is_active(&self, v: VertexId) -> bool;
    /// Calls `f` for every active neighbor of `v`.
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, f: F);
}

impl Adjacency for CsrGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn is_active(&self, _v: VertexId) -> bool {
        true
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for &nb in self.neighbors(v) {
            f(VertexId(nb));
        }
    }
}

impl Adjacency for DynGraph<'_> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.base().num_vertices()
    }

    #[inline]
    fn is_active(&self, v: VertexId) -> bool {
        self.is_vertex_alive(v)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for (nb, _) in self.alive_neighbors(v) {
            f(nb);
        }
    }
}

/// A view of a [`CsrGraph`] restricted to edges accepted by a predicate.
///
/// Used by the truss-distance machinery (Def. 7): BFS over
/// `{e : τ(e) ≥ t}` is a `FilteredGraph` whose predicate consults the edge
/// trussness array.
pub struct FilteredGraph<'g, F: Fn(EdgeId) -> bool> {
    base: &'g CsrGraph,
    keep: F,
}

impl<'g, F: Fn(EdgeId) -> bool> FilteredGraph<'g, F> {
    /// Wraps `base`, keeping only edges with `keep(e) == true`.
    pub fn new(base: &'g CsrGraph, keep: F) -> Self {
        FilteredGraph { base, keep }
    }
}

impl<F: Fn(EdgeId) -> bool> Adjacency for FilteredGraph<'_, F> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn is_active(&self, _v: VertexId) -> bool {
        true
    }

    #[inline]
    fn for_each_neighbor<G: FnMut(VertexId)>(&self, v: VertexId, mut f: G) {
        for (nb, e) in self.base.incident(v) {
            if (self.keep)(e) {
                f(nb);
            }
        }
    }
}

/// Reusable BFS workspace with epoch-stamped visitation.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    /// Vertices reached by the most recent BFS.
    reached: EpochMarks,
    /// Distance per vertex; valid iff the vertex is in `reached`.
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl BfsScratch {
    /// Creates a scratch sized for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            reached: EpochMarks::with_len(n),
            dist: vec![0; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Grows internal buffers to hold `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        self.reached.ensure(n);
        if self.dist.len() < n {
            self.dist.resize(n, 0);
        }
    }

    #[inline]
    fn begin(&mut self, n: usize) {
        self.ensure(n);
        self.reached.clear();
        self.queue.clear();
    }

    /// Distance of `v` computed by the most recent BFS ([`INF`] if
    /// unreached).
    #[inline(always)]
    pub fn dist(&self, v: VertexId) -> u32 {
        if self.reached.contains(v.index()) {
            self.dist[v.index()]
        } else {
            INF
        }
    }

    /// Vertices reached by the most recent BFS, in visit order.
    pub fn reached(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.queue.iter().map(|&v| VertexId(v))
    }

    /// Number of vertices reached by the most recent BFS.
    pub fn reached_count(&self) -> usize {
        self.queue.len()
    }

    /// Runs a BFS from `src`; afterwards query distances with
    /// [`dist`](Self::dist). Returns the farthest `(vertex, distance)`
    /// reached (the source itself if isolated).
    pub fn run<A: Adjacency>(&mut self, adj: &A, src: VertexId) -> (VertexId, u32) {
        self.begin(adj.vertex_count());
        debug_assert!(adj.is_active(src), "BFS source {src} is not active");
        self.reached.insert(src.index());
        self.dist[src.index()] = 0;
        self.queue.push(src.0);
        let mut head = 0usize;
        let mut far = (src, 0u32);
        while head < self.queue.len() {
            let v = VertexId(self.queue[head]);
            head += 1;
            let dv = self.dist[v.index()];
            if dv > far.1 {
                far = (v, dv);
            }
            adj.for_each_neighbor(v, |nb| {
                if self.reached.insert(nb.index()) {
                    self.dist[nb.index()] = dv + 1;
                    self.queue.push(nb.0);
                }
            });
        }
        far
    }

    /// Runs a BFS bounded to `max_depth` hops from `src`.
    pub fn run_bounded<A: Adjacency>(&mut self, adj: &A, src: VertexId, max_depth: u32) {
        self.begin(adj.vertex_count());
        self.reached.insert(src.index());
        self.dist[src.index()] = 0;
        self.queue.push(src.0);
        let mut head = 0usize;
        while head < self.queue.len() {
            let v = VertexId(self.queue[head]);
            head += 1;
            let dv = self.dist[v.index()];
            if dv == max_depth {
                continue;
            }
            adj.for_each_neighbor(v, |nb| {
                if self.reached.insert(nb.index()) {
                    self.dist[nb.index()] = dv + 1;
                    self.queue.push(nb.0);
                }
            });
        }
    }
}

/// Single-shot BFS returning a full distance vector ([`INF`] = unreachable).
pub fn bfs_distances<A: Adjacency>(adj: &A, src: VertexId) -> Vec<u32> {
    let mut scratch = BfsScratch::new(adj.vertex_count());
    scratch.run(adj, src);
    (0..adj.vertex_count())
        .map(|v| scratch.dist(VertexId::from(v)))
        .collect()
}

/// `true` if every vertex of `q` lies in one connected component of `adj`.
///
/// This is the `connect(Q)` predicate from Algorithms 1, 2 and 4. Returns
/// `false` for an empty `q` or if any query vertex is inactive.
pub fn query_connected<A: Adjacency>(adj: &A, q: &[VertexId], scratch: &mut BfsScratch) -> bool {
    let Some(&first) = q.first() else {
        return false;
    };
    if q.iter().any(|&v| !adj.is_active(v)) {
        return false;
    }
    scratch.run(adj, first);
    q.iter().all(|&v| scratch.dist(v) != INF)
}

/// Labels each active vertex with a component id; inactive vertices get
/// `u32::MAX`. Returns `(labels, component_count)`.
pub fn connected_components<A: Adjacency>(adj: &A) -> (Vec<u32>, usize) {
    let n = adj.vertex_count();
    let mut label = vec![u32::MAX; n];
    let mut scratch = BfsScratch::new(n);
    let mut next = 0u32;
    for v in 0..n {
        let v = VertexId::from(v);
        if !adj.is_active(v) || label[v.index()] != u32::MAX {
            continue;
        }
        scratch.run(adj, v);
        for r in scratch.reached() {
            label[r.index()] = next;
        }
        next += 1;
    }
    (label, next as usize)
}

/// `true` if all active vertices form one connected component.
pub fn is_connected<A: Adjacency>(adj: &A) -> bool {
    let n = adj.vertex_count();
    let active = (0..n).filter(|&v| adj.is_active(VertexId::from(v))).count();
    if active <= 1 {
        return true;
    }
    let first = (0..n)
        .map(VertexId::from)
        .find(|&v| adj.is_active(v))
        .expect("active > 1 implies a first active vertex");
    let mut scratch = BfsScratch::new(n);
    scratch.run(adj, first);
    scratch.reached_count() == active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn path5() -> CsrGraph {
        graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path5();
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_reports_farthest() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        let (far, dist) = s.run(&g, VertexId(2));
        assert_eq!(dist, 2);
        assert!(far == VertexId(0) || far == VertexId(4));
    }

    #[test]
    fn bfs_unreachable_is_inf() {
        let g = graph_from_edges(&[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn scratch_reuse_across_epochs() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        s.run(&g, VertexId(0));
        assert_eq!(s.dist(VertexId(4)), 4);
        s.run(&g, VertexId(4));
        assert_eq!(s.dist(VertexId(0)), 4);
        assert_eq!(s.dist(VertexId(4)), 0);
    }

    #[test]
    fn bounded_bfs_stops() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        s.run_bounded(&g, VertexId(0), 2);
        assert_eq!(s.dist(VertexId(2)), 2);
        assert_eq!(s.dist(VertexId(3)), INF);
    }

    #[test]
    fn query_connected_detects_split() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (3, 4)]);
        let mut s = BfsScratch::new(5);
        assert!(query_connected(&g, &[VertexId(0), VertexId(2)], &mut s));
        assert!(!query_connected(&g, &[VertexId(0), VertexId(3)], &mut s));
        assert!(!query_connected(&g, &[], &mut s));
    }

    #[test]
    fn query_connected_on_dyn_graph_respects_deletion() {
        let g = path5();
        let mut d = DynGraph::new(&g);
        let mut s = BfsScratch::new(5);
        assert!(query_connected(&d, &[VertexId(0), VertexId(4)], &mut s));
        d.remove_vertex(VertexId(2));
        assert!(!query_connected(&d, &[VertexId(0), VertexId(4)], &mut s));
        // A deleted query vertex also disconnects the query.
        assert!(!query_connected(&d, &[VertexId(2)], &mut s));
    }

    #[test]
    fn components_and_connectivity() {
        let g = graph_from_edges(&[(0, 1), (2, 3), (3, 4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path5()));
    }

    #[test]
    fn filtered_graph_skips_edges() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let heavy = g.edge_between(VertexId(0), VertexId(2)).unwrap();
        let view = FilteredGraph::new(&g, |e| e != heavy);
        let d = bfs_distances(&view, VertexId(0));
        assert_eq!(d[2], 2, "direct edge filtered away, path via 1 remains");
    }

    #[test]
    fn single_vertex_graph_is_connected() {
        let mut b = crate::builder::GraphBuilder::new();
        b.ensure_vertices(1);
        let g = b.build();
        assert!(is_connected(&g));
    }
}
