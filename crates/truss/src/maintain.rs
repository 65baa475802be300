//! K-truss maintenance under deletions (Algorithm 3).
//!
//! After the peeling steps of Basic/BulkDelete remove vertices, the working
//! graph may stop being a k-truss: edges can fall below `k − 2` triangles.
//! [`TrussMaintainer`] owns the edge-support array and cascades deletions —
//! every edge that drops below threshold is queued, its triangles unwound,
//! and isolated vertices are swept — restoring the k-truss property exactly
//! as the paper's Algorithm 3 does.

use ctc_graph::{edge_supports_dyn, vec_heap_bytes, DynGraph, EdgeId, VertexId};

/// What a maintenance round removed: the requested vertices, every cascade
/// victim, and all deleted edges. The peeling algorithms use this to stamp
/// per-iteration removal times without rescanning the graph.
#[derive(Clone, Debug, Default)]
pub struct CascadeReport {
    /// All vertices removed this round (requested + cascade + isolated).
    pub vertices: Vec<VertexId>,
    /// All edges removed this round.
    pub edges: Vec<EdgeId>,
}

impl CascadeReport {
    /// Empties both lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.vertices.clear();
        self.edges.clear();
    }

    /// Heap bytes held (capacity of both lists).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.vertices) + vec_heap_bytes(&self.edges)
    }
}

/// Incremental k-truss maintenance state over a [`DynGraph`].
///
/// All working memory (support array, deletion queue, triangle scratch) is
/// owned and reusable: a maintainer can be re-armed for a different graph
/// or level with [`reset_with`](Self::reset_with) without reallocating,
/// which is how the pooled peel scratch of `ctc-core` keeps the warm query
/// path allocation-free.
#[derive(Default)]
pub struct TrussMaintainer {
    /// Current support of each alive edge (garbage for dead edges).
    support: Vec<u32>,
    /// The enforced trussness level `k`.
    k: u32,
    /// Scratch: edges already queued for deletion this round.
    in_queue: Vec<bool>,
    /// Pooled deletion queue (always drained after a call).
    queue: Vec<EdgeId>,
    /// Pooled per-edge triangle scratch for the cascade.
    touched: Vec<(EdgeId, EdgeId)>,
    /// Pooled isolated-vertex scratch for the sweep.
    orphans: Vec<VertexId>,
}

impl TrussMaintainer {
    /// Builds maintenance state for `live`, computing initial supports
    /// (line 15 of Algorithm 2) and enforcing level `k`.
    pub fn new(live: &DynGraph<'_>, k: u32) -> Self {
        let mut m = TrussMaintainer::default();
        m.reset_with(&edge_supports_dyn(live), live, k);
        m
    }

    /// Heap bytes held by the maintainer's pooled buffers (capacity, not
    /// length).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.support)
            + vec_heap_bytes(&self.in_queue)
            + vec_heap_bytes(&self.queue)
            + vec_heap_bytes(&self.touched)
            + vec_heap_bytes(&self.orphans)
    }

    /// Re-arms the maintainer for `live` at level `k` with its supports
    /// (must be `edge_supports_dyn(live)`-equal: the caller counts them,
    /// or serves them from a cache keyed on the exact subgraph). Reuses
    /// every buffer.
    pub fn reset_with(&mut self, supports: &[u32], live: &DynGraph<'_>, k: u32) {
        let m = live.base().num_edges();
        assert_eq!(supports.len(), m, "support table does not match graph");
        self.support.clear();
        self.support.extend_from_slice(supports);
        self.k = k;
        self.in_queue.clear();
        self.in_queue.resize(m, false);
        self.queue.clear();
        self.touched.clear();
        self.orphans.clear();
    }

    /// The enforced trussness level.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Current support of edge `e` (meaningful only while `e` is alive).
    pub fn support(&self, e: EdgeId) -> u32 {
        self.support[e.index()]
    }

    /// The whole support table (meaningful entries: alive edges).
    pub fn supports(&self) -> &[u32] {
        &self.support
    }

    /// Deletes the vertices `vd` (with incident edges) from `live` and
    /// restores the k-truss property by cascading (Algorithm 3). Returns
    /// everything that died, cascade victims included.
    pub fn delete_vertices(&mut self, live: &mut DynGraph<'_>, vd: &[VertexId]) -> CascadeReport {
        let mut report = CascadeReport::default();
        self.delete_vertices_into(live, vd, &mut report);
        report
    }

    /// [`delete_vertices`](Self::delete_vertices) writing into a
    /// caller-owned report, so pooled callers pay no per-round allocation.
    pub fn delete_vertices_into(
        &mut self,
        live: &mut DynGraph<'_>,
        vd: &[VertexId],
        report: &mut CascadeReport,
    ) {
        report.clear();
        // Lines 1–3: seed S with all edges incident to Vd.
        debug_assert!(self.queue.is_empty(), "deletion queue must start drained");
        let mut queue = std::mem::take(&mut self.queue);
        for &v in vd {
            if !live.is_vertex_alive(v) {
                continue;
            }
            for (_, e) in live.alive_neighbors(v) {
                if !self.in_queue[e.index()] {
                    self.in_queue[e.index()] = true;
                    queue.push(e);
                }
            }
        }
        self.cascade(live, &mut queue, report);
        queue.clear();
        self.queue = queue;
        // Mark the requested vertices dead even if they had no edges left.
        for &v in vd {
            if live.is_vertex_alive(v) && live.degree(v) == 0 {
                live.mark_vertex_dead(v);
                report.vertices.push(v);
            }
        }
        // Line 10: sweep vertices isolated by the cascade.
        self.sweep_isolated(live, report);
    }

    /// Deletes a set of edges directly and cascades.
    pub fn delete_edges(&mut self, live: &mut DynGraph<'_>, ed: &[EdgeId]) -> CascadeReport {
        let mut queue = std::mem::take(&mut self.queue);
        for &e in ed {
            if live.is_edge_alive(e) && !self.in_queue[e.index()] {
                self.in_queue[e.index()] = true;
                queue.push(e);
            }
        }
        let mut report = CascadeReport::default();
        self.cascade(live, &mut queue, &mut report);
        queue.clear();
        self.queue = queue;
        self.sweep_isolated(live, &mut report);
        report
    }

    /// Lines 4–9: process the deletion queue, unwinding triangles.
    fn cascade(
        &mut self,
        live: &mut DynGraph<'_>,
        queue: &mut Vec<EdgeId>,
        report: &mut CascadeReport,
    ) {
        let mut head = 0usize;
        let mut touched = std::mem::take(&mut self.touched);
        while head < queue.len() {
            let e = queue[head];
            head += 1;
            if !live.is_edge_alive(e) {
                self.in_queue[e.index()] = false;
                continue;
            }
            let (u, v) = live.base().edge_endpoints(e);
            touched.clear();
            // The maintained support of `e` is exactly its alive-triangle
            // count, so the row merge can stop after that many matches —
            // and be skipped outright at support 0, which is the common
            // case deep in a teardown cascade.
            let mut remaining = self.support[e.index()];
            if remaining > 0 {
                live.for_each_common_neighbor_while(u, v, |_, euw, evw| {
                    touched.push((euw, evw));
                    remaining -= 1;
                    remaining > 0
                });
            }
            for &(euw, evw) in &touched {
                for f in [euw, evw] {
                    let s = &mut self.support[f.index()];
                    *s = s.saturating_sub(1);
                    if *s + 2 < self.k && !self.in_queue[f.index()] {
                        self.in_queue[f.index()] = true;
                        queue.push(f);
                    }
                }
            }
            live.remove_edge(e);
            report.edges.push(e);
            self.in_queue[e.index()] = false;
        }
        touched.clear();
        self.touched = touched;
    }

    /// Removes alive vertices of live-degree zero.
    fn sweep_isolated(&mut self, live: &mut DynGraph<'_>, report: &mut CascadeReport) {
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.clear();
        orphans.extend(
            live.alive_vertex_list()
                .iter()
                .copied()
                .filter(|&v| live.degree(v) == 0),
        );
        // The alive list is swap-removal-ordered; report in ascending id
        // order so the cascade report is independent of deletion history.
        orphans.sort_unstable();
        for &v in &orphans {
            live.mark_vertex_dead(v);
            report.vertices.push(v);
        }
        orphans.clear();
        self.orphans = orphans;
    }

    /// Test/debug invariant: every alive edge meets the support threshold
    /// and the stored supports match a fresh recount.
    pub fn check_invariants(&self, live: &DynGraph<'_>) -> std::result::Result<(), String> {
        let fresh = ctc_graph::edge_supports_dyn(live);
        for (e, u, v) in live.alive_edges() {
            if self.support[e.index()] != fresh[e.index()] {
                return Err(format!(
                    "edge {e} ({u},{v}): stored support {} != recomputed {}",
                    self.support[e.index()],
                    fresh[e.index()]
                ));
            }
            if fresh[e.index()] + 2 < self.k {
                return Err(format!(
                    "edge {e} ({u},{v}): support {} violates k={}",
                    fresh[e.index()],
                    self.k
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_graph, figure1_grey_vertices, Figure1Ids};
    use ctc_graph::{graph_from_edges, induced_subgraph};

    #[test]
    fn deleting_p1_cascades_to_p2_p3() {
        // Example 4: removing p1 from the grey 4-truss forces p2, p3 out.
        let g = figure1_graph();
        let grey = induced_subgraph(&g, &figure1_grey_vertices());
        let f = Figure1Ids::default();
        let mut live = DynGraph::new(&grey.graph);
        let mut m = TrussMaintainer::new(&live, 4);
        let p1 = grey.local(f.p1).unwrap();
        let removed = m.delete_vertices(&mut live, &[p1]).vertices.len();
        assert_eq!(removed, 3, "p1 plus cascade victims p2 and p3");
        assert!(!live.is_vertex_alive(grey.local(f.p2).unwrap()));
        assert!(!live.is_vertex_alive(grey.local(f.p3).unwrap()));
        assert!(live.is_vertex_alive(grey.local(f.q3).unwrap()));
        assert_eq!(live.num_alive_vertices(), 8);
        m.check_invariants(&live).unwrap();
    }

    #[test]
    fn cascade_preserves_rest_of_truss() {
        let g = figure1_graph();
        let grey = induced_subgraph(&g, &figure1_grey_vertices());
        let f = Figure1Ids::default();
        let mut live = DynGraph::new(&grey.graph);
        let mut m = TrussMaintainer::new(&live, 4);
        m.delete_vertices(&mut live, &[grey.local(f.p1).unwrap()]);
        // Remaining graph is Figure 1(b): a 4-truss on 8 vertices, 17 edges.
        assert_eq!(live.num_alive_edges(), 17);
        let sub = ctc_graph::alive_subgraph(&live);
        assert!(crate::decompose::is_k_truss(&sub.graph, 4));
    }

    #[test]
    fn whole_truss_can_collapse() {
        // K4 at k=4: deleting any vertex kills everything.
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut live = DynGraph::new(&g);
        let mut m = TrussMaintainer::new(&live, 4);
        let removed = m.delete_vertices(&mut live, &[VertexId(0)]).vertices.len();
        assert_eq!(removed, 4);
        assert_eq!(live.num_alive_edges(), 0);
        assert_eq!(live.num_alive_vertices(), 0);
    }

    #[test]
    fn k2_never_cascades() {
        // At k=2 the truss condition is vacuous: deleting a vertex removes
        // only that vertex (and newly isolated neighbors).
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let mut live = DynGraph::new(&g);
        let mut m = TrussMaintainer::new(&live, 2);
        let removed = m.delete_vertices(&mut live, &[VertexId(1)]).vertices.len();
        // vertex 1 dies; vertex 0 becomes isolated and is swept.
        assert_eq!(removed, 2);
        assert!(live.is_vertex_alive(VertexId(2)));
        assert!(live.is_vertex_alive(VertexId(3)));
        m.check_invariants(&live).unwrap();
    }

    #[test]
    fn delete_edges_cascades_like_vertices() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut live = DynGraph::new(&g);
        let mut m = TrussMaintainer::new(&live, 4);
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        m.delete_edges(&mut live, &[e]);
        assert_eq!(live.num_alive_edges(), 0, "K4 minus an edge has no 4-truss");
    }

    #[test]
    fn maintenance_agrees_with_fresh_decomposition() {
        // After deleting a vertex, the alive graph must equal the k-truss of
        // the from-scratch graph-minus-vertex.
        let g = figure1_graph();
        let grey = induced_subgraph(&g, &figure1_grey_vertices());
        let f = Figure1Ids::default();
        let p1 = grey.local(f.p1).unwrap();

        let mut live = DynGraph::new(&grey.graph);
        let mut m = TrussMaintainer::new(&live, 4);
        m.delete_vertices(&mut live, &[p1]);
        let incremental = ctc_graph::alive_subgraph(&live);

        // From scratch: remove p1, take the 4-truss.
        let rest: Vec<VertexId> = grey.graph.vertices().filter(|&v| v != p1).collect();
        let minus = induced_subgraph(&grey.graph, &rest);
        let d = crate::decompose::truss_decomposition(&minus.graph);
        let surviving: Vec<EdgeId> = minus
            .graph
            .edges()
            .filter(|&(e, _, _)| d.truss(e) >= 4)
            .map(|(e, _, _)| e)
            .collect();
        assert_eq!(incremental.num_edges(), surviving.len());
    }

    #[test]
    fn double_delete_is_harmless() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let mut live = DynGraph::new(&g);
        let mut m = TrussMaintainer::new(&live, 3);
        m.delete_vertices(&mut live, &[VertexId(0)]);
        let before = live.num_alive_vertices();
        m.delete_vertices(&mut live, &[VertexId(0)]);
        assert_eq!(live.num_alive_vertices(), before);
        m.check_invariants(&live).unwrap();
    }
}
