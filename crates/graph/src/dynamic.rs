//! Deletion overlay over an immutable [`CsrGraph`].
//!
//! The CTC algorithms (Alg. 1, 3, 4 of the paper) peel a working graph by
//! repeatedly deleting vertices and edges. Rather than rebuilding CSR images,
//! [`DynGraph`] keeps per-vertex / per-edge alive flags and live degrees over
//! a borrowed base graph; peeling an edge is O(1) and neighborhood scans skip
//! dead entries. The paper's complexity analysis (§4.4) relies on exactly
//! this "record removals, never copy" strategy for its `O(m')` space bound.

use crate::csr::CsrGraph;
use crate::heap::vec_heap_bytes;
use crate::ids::{EdgeId, VertexId};

/// The owned buffers behind a [`DynGraph`], detached from any base graph.
///
/// Lets a long-lived caller (the pooled peel scratch of `ctc-core`) reuse
/// the overlay's allocations across graphs of different sizes:
/// [`DynGraph::with_buffers`] resets and adopts them,
/// [`DynGraph::into_buffers`] hands them back.
#[derive(Clone, Debug, Default)]
pub struct DynBuffers {
    vertex_alive: Vec<bool>,
    edge_alive: Vec<bool>,
    degree: Vec<u32>,
    alive_list: Vec<VertexId>,
    alive_pos: Vec<u32>,
}

/// A mutable view of a [`CsrGraph`] supporting vertex and edge deletion.
#[derive(Clone)]
pub struct DynGraph<'g> {
    base: &'g CsrGraph,
    vertex_alive: Vec<bool>,
    edge_alive: Vec<bool>,
    degree: Vec<u32>,
    /// Dense, unordered list of alive vertices (swap-removed on death), so
    /// hot loops iterate `O(alive)` instead of scanning dead slots.
    alive_list: Vec<VertexId>,
    /// Position of each vertex in `alive_list` (`u32::MAX` once dead).
    alive_pos: Vec<u32>,
    alive_edge_count: usize,
}

impl DynBuffers {
    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.vertex_alive)
            + vec_heap_bytes(&self.edge_alive)
            + vec_heap_bytes(&self.degree)
            + vec_heap_bytes(&self.alive_list)
            + vec_heap_bytes(&self.alive_pos)
    }
}

impl<'g> DynGraph<'g> {
    /// Creates a fully-alive view of `base`.
    pub fn new(base: &'g CsrGraph) -> Self {
        Self::with_buffers(base, DynBuffers::default())
    }

    /// Creates a fully-alive view of `base`, recycling `bufs`' allocations
    /// (the warm-path constructor: no heap traffic once the buffers have
    /// grown to the workload's high-water mark).
    pub fn with_buffers(base: &'g CsrGraph, bufs: DynBuffers) -> Self {
        let n = base.num_vertices();
        let m = base.num_edges();
        let DynBuffers {
            mut vertex_alive,
            mut edge_alive,
            mut degree,
            mut alive_list,
            mut alive_pos,
        } = bufs;
        vertex_alive.clear();
        vertex_alive.resize(n, true);
        edge_alive.clear();
        edge_alive.resize(m, true);
        degree.clear();
        degree.extend((0..n).map(|v| base.degree(VertexId::from(v)) as u32));
        alive_list.clear();
        alive_list.extend((0..n as u32).map(VertexId));
        alive_pos.clear();
        alive_pos.extend(0..n as u32);
        DynGraph {
            base,
            vertex_alive,
            edge_alive,
            degree,
            alive_list,
            alive_pos,
            alive_edge_count: m,
        }
    }

    /// Dismantles the overlay, returning its buffers for reuse.
    pub fn into_buffers(self) -> DynBuffers {
        DynBuffers {
            vertex_alive: self.vertex_alive,
            edge_alive: self.edge_alive,
            degree: self.degree,
            alive_list: self.alive_list,
            alive_pos: self.alive_pos,
        }
    }

    /// Removes `v` from the alive list (swap-remove, `O(1)`).
    fn unlist(&mut self, v: VertexId) {
        let p = self.alive_pos[v.index()] as usize;
        debug_assert!(self.alive_list[p] == v, "alive list out of sync");
        self.alive_list.swap_remove(p);
        if let Some(&moved) = self.alive_list.get(p) {
            self.alive_pos[moved.index()] = p as u32;
        }
        self.alive_pos[v.index()] = u32::MAX;
    }

    /// The underlying immutable graph.
    #[inline(always)]
    pub fn base(&self) -> &'g CsrGraph {
        self.base
    }

    /// Restores every vertex and edge to alive.
    pub fn reset(&mut self) {
        let n = self.base.num_vertices();
        self.vertex_alive.iter_mut().for_each(|b| *b = true);
        self.edge_alive.iter_mut().for_each(|b| *b = true);
        for v in 0..n {
            self.degree[v] = self.base.degree(VertexId::from(v)) as u32;
        }
        self.alive_list.clear();
        self.alive_list.extend((0..n as u32).map(VertexId));
        self.alive_pos.clear();
        self.alive_pos.extend(0..n as u32);
        self.alive_edge_count = self.base.num_edges();
    }

    /// Number of alive vertices.
    #[inline(always)]
    pub fn num_alive_vertices(&self) -> usize {
        self.alive_list.len()
    }

    /// Number of alive edges.
    #[inline(always)]
    pub fn num_alive_edges(&self) -> usize {
        self.alive_edge_count
    }

    /// `true` if vertex `v` has not been deleted.
    #[inline(always)]
    pub fn is_vertex_alive(&self, v: VertexId) -> bool {
        self.vertex_alive[v.index()]
    }

    /// `true` if edge `e` has not been deleted.
    #[inline(always)]
    pub fn is_edge_alive(&self, e: EdgeId) -> bool {
        self.edge_alive[e.index()]
    }

    /// Live degree of `v` (0 if deleted).
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degree[v.index()] as usize
    }

    /// Iterator over alive vertices in ascending id order.
    pub fn alive_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| VertexId::from(i))
    }

    /// The alive vertices as a dense slice, in **unspecified order**
    /// (swap-removal order). `O(alive)` to iterate — the peeling hot
    /// loops use this instead of scanning every vertex slot; use
    /// [`alive_vertices`](Self::alive_vertices) when ascending order
    /// matters.
    #[inline(always)]
    pub fn alive_vertex_list(&self) -> &[VertexId] {
        &self.alive_list
    }

    /// Iterator over alive edges as `(EdgeId, u, v)`.
    pub fn alive_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.base
            .edges()
            .filter(move |(e, _, _)| self.edge_alive[e.index()])
    }

    /// Iterator over alive `(neighbor, edge)` pairs of `v`.
    ///
    /// An arc counts as alive when both its edge and the far endpoint are.
    #[inline]
    pub fn alive_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.base
            .incident(v)
            .filter(move |(nb, e)| self.edge_alive[e.index()] && self.vertex_alive[nb.index()])
    }

    /// The alive edge `{u, v}`, if any.
    pub fn alive_edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if !self.vertex_alive[u.index()] || !self.vertex_alive[v.index()] {
            return None;
        }
        let e = self.base.edge_between(u, v)?;
        self.edge_alive[e.index()].then_some(e)
    }

    /// Deletes edge `e`; returns `true` if it was alive.
    pub fn remove_edge(&mut self, e: EdgeId) -> bool {
        if !self.edge_alive[e.index()] {
            return false;
        }
        self.edge_alive[e.index()] = false;
        self.alive_edge_count -= 1;
        let (u, v) = self.base.edge_endpoints(e);
        self.degree[u.index()] -= 1;
        self.degree[v.index()] -= 1;
        true
    }

    /// Deletes vertex `v` and all its alive incident edges; returns the
    /// deleted edges. No-op (empty vec) if `v` was already dead.
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<EdgeId> {
        if !self.vertex_alive[v.index()] {
            return Vec::new();
        }
        let doomed: Vec<EdgeId> = self
            .base
            .incident(v)
            .filter(|(_, e)| self.edge_alive[e.index()])
            .map(|(_, e)| e)
            .collect();
        for &e in &doomed {
            self.remove_edge(e);
        }
        self.vertex_alive[v.index()] = false;
        self.unlist(v);
        doomed
    }

    /// Marks a vertex dead without touching edges.
    ///
    /// Caller must have removed the incident edges already; used by the
    /// truss-maintenance cascade where edges die first.
    pub fn mark_vertex_dead(&mut self, v: VertexId) -> bool {
        if !self.vertex_alive[v.index()] {
            return false;
        }
        debug_assert_eq!(
            self.degree[v.index()],
            0,
            "marking vertex {v} dead with live edges"
        );
        self.vertex_alive[v.index()] = false;
        self.unlist(v);
        true
    }

    /// Calls `f(w, e_uw, e_vw)` for every alive common neighbor `w` of `u`
    /// and `v` (both connecting edges alive). Merge over sorted rows.
    pub fn for_each_common_neighbor<F: FnMut(VertexId, EdgeId, EdgeId)>(
        &self,
        u: VertexId,
        v: VertexId,
        mut f: F,
    ) {
        self.for_each_common_neighbor_while(u, v, |w, euw, evw| {
            f(w, euw, evw);
            true
        });
    }

    /// [`for_each_common_neighbor`](Self::for_each_common_neighbor) with
    /// early exit: stops as soon as `f` returns `false`. Callers that know
    /// how many alive triangles an edge participates in (the truss
    /// maintainer keeps exactly that count) stop the row merge the moment
    /// the last one is found instead of walking both rows to the end.
    pub fn for_each_common_neighbor_while<F: FnMut(VertexId, EdgeId, EdgeId) -> bool>(
        &self,
        u: VertexId,
        v: VertexId,
        mut f: F,
    ) {
        let ru = self.base.neighbors(u);
        let eu = self.base.neighbor_edge_ids(u);
        let rv = self.base.neighbors(v);
        let ev = self.base.neighbor_edge_ids(v);
        let (mut i, mut j) = (0usize, 0usize);
        while i < ru.len() && j < rv.len() {
            let a = ru[i];
            let b = rv[j];
            if a < b {
                i += 1;
            } else if b < a {
                j += 1;
            } else {
                let w = VertexId(a);
                let euw = EdgeId(eu[i]);
                let evw = EdgeId(ev[j]);
                if self.vertex_alive[w.index()]
                    && self.edge_alive[euw.index()]
                    && self.edge_alive[evw.index()]
                    && !f(w, euw, evw)
                {
                    return;
                }
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn k4() -> CsrGraph {
        graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn starts_fully_alive() {
        let g = k4();
        let d = DynGraph::new(&g);
        assert_eq!(d.num_alive_vertices(), 4);
        assert_eq!(d.num_alive_edges(), 6);
        assert_eq!(d.degree(VertexId(0)), 3);
    }

    #[test]
    fn remove_edge_updates_degrees() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        assert!(d.remove_edge(e));
        assert!(!d.remove_edge(e), "double delete must be a no-op");
        assert_eq!(d.degree(VertexId(0)), 2);
        assert_eq!(d.degree(VertexId(1)), 2);
        assert_eq!(d.num_alive_edges(), 5);
        assert!(d.alive_edge_between(VertexId(0), VertexId(1)).is_none());
        assert!(d.alive_edge_between(VertexId(0), VertexId(2)).is_some());
    }

    #[test]
    fn remove_vertex_cascades_to_edges() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        let doomed = d.remove_vertex(VertexId(0));
        assert_eq!(doomed.len(), 3);
        assert_eq!(d.num_alive_vertices(), 3);
        assert_eq!(d.num_alive_edges(), 3);
        assert!(!d.is_vertex_alive(VertexId(0)));
        assert_eq!(d.alive_neighbors(VertexId(1)).count(), 2);
        assert!(d.remove_vertex(VertexId(0)).is_empty());
    }

    #[test]
    fn common_neighbors_respect_deletions() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        let mut commons = Vec::new();
        d.for_each_common_neighbor(VertexId(0), VertexId(1), |w, _, _| commons.push(w.0));
        assert_eq!(commons, vec![2, 3]);

        // Killing vertex 2 removes it from the common set.
        d.remove_vertex(VertexId(2));
        commons.clear();
        d.for_each_common_neighbor(VertexId(0), VertexId(1), |w, _, _| commons.push(w.0));
        assert_eq!(commons, vec![3]);

        // Killing edge (0,3) removes 3 as well: the (0,3) side is dead.
        let e03 = g.edge_between(VertexId(0), VertexId(3)).unwrap();
        d.remove_edge(e03);
        commons.clear();
        d.for_each_common_neighbor(VertexId(0), VertexId(1), |w, _, _| commons.push(w.0));
        assert!(commons.is_empty());
    }

    #[test]
    fn reset_restores_everything() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(1));
        d.reset();
        assert_eq!(d.num_alive_vertices(), 4);
        assert_eq!(d.num_alive_edges(), 6);
        assert_eq!(d.degree(VertexId(1)), 3);
    }

    #[test]
    fn alive_iterators_filter() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(3));
        assert_eq!(
            d.alive_vertices().collect::<Vec<_>>(),
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
        assert_eq!(d.alive_edges().count(), 3);
        let nbrs: Vec<u32> = d.alive_neighbors(VertexId(0)).map(|(v, _)| v.0).collect();
        assert_eq!(nbrs, vec![1, 2]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn alive_list_tracks_deaths_and_reset() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut d = DynGraph::new(&g);
        assert_eq!(d.alive_vertex_list().len(), 4);
        d.remove_vertex(VertexId(1));
        let mut list: Vec<u32> = d.alive_vertex_list().iter().map(|v| v.0).collect();
        list.sort_unstable();
        assert_eq!(list, vec![0, 2, 3]);
        assert_eq!(d.alive_vertex_list().len(), d.num_alive_vertices());
        // The unordered list and the ordered iterator agree as sets, at
        // every step of a deletion sequence.
        d.remove_vertex(VertexId(3));
        let mut unordered: Vec<VertexId> = d.alive_vertex_list().to_vec();
        unordered.sort_unstable();
        assert_eq!(unordered, d.alive_vertices().collect::<Vec<_>>());
        d.reset();
        assert_eq!(d.alive_vertex_list().len(), 4);
    }

    #[test]
    fn buffer_recycling_matches_fresh_overlay() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(0));
        let bufs = d.into_buffers();
        // Adopt the dirty buffers for a *different* (larger) graph: the
        // overlay must come up fully alive and consistent.
        let g2 = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d2 = DynGraph::with_buffers(&g2, bufs);
        assert_eq!(d2.num_alive_vertices(), 5);
        assert_eq!(d2.num_alive_edges(), 4);
        assert_eq!(d2.degree(VertexId(1)), 2);
        assert_eq!(d2.alive_vertex_list().len(), 5);
    }

    #[test]
    fn alive_edge_between_dead_endpoint() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let mut d = DynGraph::new(&g);
        assert!(d.alive_edge_between(VertexId(0), VertexId(1)).is_some());
        d.remove_vertex(VertexId(0));
        assert!(d.alive_edge_between(VertexId(0), VertexId(1)).is_none());
        assert!(d.alive_edge_between(VertexId(1), VertexId(2)).is_some());
    }

    #[test]
    fn base_accessor_exposes_parent() {
        let g = graph_from_edges(&[(0, 1)]);
        let d = DynGraph::new(&g);
        assert_eq!(d.base().num_edges(), 1);
    }

    #[test]
    fn clone_preserves_deletion_state() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(2));
        let c = d.clone();
        assert_eq!(c.num_alive_vertices(), 2);
        assert_eq!(c.num_alive_edges(), 1);
    }

    #[test]
    #[should_panic]
    fn mark_dead_with_live_edges_panics_in_debug() {
        // Only meaningful with debug assertions; release builds skip it.
        if !cfg!(debug_assertions) {
            panic!("skip: debug assertion disabled");
        }
        let g = graph_from_edges(&[(0, 1)]);
        let mut d = DynGraph::new(&g);
        d.mark_vertex_dead(VertexId(0));
    }
}
