//! `FindG0` (Algorithm 2): the maximal connected k-truss containing the
//! query nodes with the largest `k`.
//!
//! Edges stream in by descending trussness level, expanding outward from
//! the query vertices. A per-vertex cursor over the truss-sorted rows of the
//! [`TrussIndex`] makes every edge O(1) to visit (Remark 2: `O(m')` total),
//! and a union-find answers the per-level "is Q connected yet?" check in
//! near-constant amortized time. A level cap starts the descent below the
//! top level, which is §7.1's fixed trussness.

use crate::index::TrussIndex;
use ctc_graph::error::{GraphError, Result};
use ctc_graph::{
    nested_heap_bytes, vec_heap_bytes, BfsScratch, CsrGraph, EdgeId, EpochMarks, UnionFind,
    VertexId,
};

/// Output of [`find_g0`]: the maximal connected k-truss containing `Q` with
/// the largest `k`, as an edge/vertex set of the parent graph.
#[derive(Clone, Debug)]
pub struct G0 {
    /// The trussness `k` of the community (`τ(G0)`).
    pub k: u32,
    /// Edges of `G0` (parent edge ids).
    pub edges: Vec<EdgeId>,
    /// Vertices of `G0` (parent vertex ids), ascending.
    pub vertices: Vec<VertexId>,
}

const NO_LEVEL: u32 = u32::MAX;

/// Pooled working state for [`find_g0_with`].
///
/// Every per-vertex / per-edge array is epoch-stamped, so arming a query
/// costs O(|touched last time|) amortized rather than O(n + m) — the
/// expansion only ever pays for the vertices and edges it actually visits.
#[derive(Clone, Debug, Default)]
pub struct FindScratch {
    /// Per-vertex cursor into the truss-sorted row; stale stamp reads as 0.
    cursor: Vec<u32>,
    cursor_set: EpochMarks,
    /// Level a vertex was last enqueued at; stale stamp reads as NO_LEVEL.
    pending: Vec<u32>,
    pending_set: EpochMarks,
    in_g0_vertex: EpochMarks,
    in_g0_edge: EpochMarks,
    uf: UnionFind,
    g0_edges: Vec<EdgeId>,
    /// Every vertex first marked `in_g0_vertex`, in discovery order.
    touched: Vec<u32>,
    /// Per-level worklists; inner vecs keep their capacity across queries.
    levels: Vec<Vec<u32>>,
    q_raw: Vec<u32>,
    comp: EpochMarks,
}

impl FindScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.cursor)
            + self.cursor_set.heap_bytes()
            + vec_heap_bytes(&self.pending)
            + self.pending_set.heap_bytes()
            + self.in_g0_vertex.heap_bytes()
            + self.in_g0_edge.heap_bytes()
            + self.uf.heap_bytes()
            + vec_heap_bytes(&self.g0_edges)
            + vec_heap_bytes(&self.touched)
            + nested_heap_bytes(&self.levels)
            + vec_heap_bytes(&self.q_raw)
            + self.comp.heap_bytes()
    }

    #[inline]
    fn cursor_of(&self, v: usize) -> u32 {
        if self.cursor_set.contains(v) {
            self.cursor[v]
        } else {
            0
        }
    }

    #[inline]
    fn pending_of(&self, v: usize) -> u32 {
        if self.pending_set.contains(v) {
            self.pending[v]
        } else {
            NO_LEVEL
        }
    }
}

/// Runs Algorithm 2 on `g` with query set `q`.
///
/// Errors with [`GraphError::EmptyQuery`] for an empty query,
/// [`GraphError::VertexOutOfRange`] for bad ids, and
/// [`GraphError::Disconnected`] when the query vertices do not share a
/// connected component (they can never be covered by one connected k-truss).
pub fn find_g0(g: &CsrGraph, idx: &TrussIndex, q: &[VertexId]) -> Result<G0> {
    find_g0_with(g, idx, q, u32::MAX, &mut FindScratch::new())
}

/// [`find_g0`] with a level cap and pooled `scratch` buffers.
///
/// The answer is the maximal connected k-truss containing `q` with the
/// largest `k ≤ cap` (§7.1 "trading trussness for diameter"); `u32::MAX`
/// leaves the search uncapped, and a cap below 2 answers
/// [`GraphError::Disconnected`]. The warm path performs no allocation and
/// touches no O(n)/O(m) state.
pub fn find_g0_with(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    cap: u32,
    scratch: &mut FindScratch,
) -> Result<G0> {
    if q.is_empty() {
        return Err(GraphError::EmptyQuery);
    }
    let n = g.num_vertices();
    for &v in q {
        if v.index() >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v.0, n });
        }
        if g.degree(v) == 0 {
            // An isolated query vertex cannot sit in any k-truss.
            return Err(GraphError::Disconnected);
        }
    }
    // Lemma 1: k ≤ min_q τ(q); the cap lowers the starting level further.
    let k_start = q
        .iter()
        .map(|&v| idx.vertex_truss(v))
        .min()
        .expect("q nonempty")
        .min(cap);
    if k_start < 2 {
        return Err(GraphError::Disconnected);
    }

    scratch.cursor.resize(n.max(scratch.cursor.len()), 0);
    scratch.cursor_set.ensure(n);
    scratch.cursor_set.clear();
    scratch.pending.resize(n.max(scratch.pending.len()), 0);
    scratch.pending_set.ensure(n);
    scratch.pending_set.clear();
    scratch.in_g0_vertex.ensure(n);
    scratch.in_g0_vertex.clear();
    scratch.in_g0_edge.ensure(g.num_edges());
    scratch.in_g0_edge.clear();
    scratch.uf.reset(n);
    scratch.g0_edges.clear();
    scratch.touched.clear();
    // Worklists per level, indexed by k (0..=k_start). `pending[v]` is the
    // level the vertex was last enqueued at (loose dedup; reprocessing is
    // idempotent thanks to the cursors).
    while scratch.levels.len() <= k_start as usize {
        scratch.levels.push(Vec::new());
    }
    for lvl in scratch.levels.iter_mut() {
        lvl.clear();
    }
    for &qv in q {
        if scratch.pending_of(qv.index()) != k_start {
            scratch.pending_set.insert(qv.index());
            scratch.pending[qv.index()] = k_start;
            scratch.levels[k_start as usize].push(qv.0);
        }
    }
    scratch.q_raw.clear();
    scratch.q_raw.extend(q.iter().map(|v| v.0));

    let mut k = k_start;
    loop {
        // Drain the worklist of level k; it may grow while we iterate.
        let mut worklist = std::mem::take(&mut scratch.levels[k as usize]);
        let mut head = 0usize;
        while head < worklist.len() {
            let v = VertexId(worklist[head]);
            head += 1;
            let (nbrs, edges) = idx.sorted_row(v);
            let mut c = scratch.cursor_of(v.index()) as usize;
            while c < edges.len() {
                let e = EdgeId(edges[c]);
                if idx.edge_truss(e) < k {
                    break;
                }
                let u = VertexId(nbrs[c]);
                c += 1;
                if scratch.in_g0_edge.insert(e.index()) {
                    scratch.g0_edges.push(e);
                    if scratch.in_g0_vertex.insert(v.index()) {
                        scratch.touched.push(v.0);
                    }
                    if scratch.in_g0_vertex.insert(u.index()) {
                        scratch.touched.push(u.0);
                    }
                    scratch.uf.union(v.0, u.0);
                }
                if scratch.pending_of(u.index()) != k {
                    scratch.pending_set.insert(u.index());
                    scratch.pending[u.index()] = k;
                    worklist.push(u.0);
                }
            }
            scratch.cursor_set.insert(v.index());
            scratch.cursor[v.index()] = c as u32;
            // Line 12–13: requeue v at the level of its next untaken edge.
            if c < edges.len() {
                let l = idx.edge_truss(EdgeId(edges[c]));
                debug_assert!(l < k);
                if scratch.pending_of(v.index()) != l {
                    scratch.pending_set.insert(v.index());
                    scratch.pending[v.index()] = l;
                    scratch.levels[l as usize].push(v.0);
                }
            }
        }
        // Hand the (possibly grown) worklist's capacity back to the pool.
        worklist.clear();
        scratch.levels[k as usize] = worklist;
        // Level complete: is Q connected inside G0?
        let FindScratch { uf, q_raw, .. } = scratch;
        if uf.all_connected(q_raw) && q.iter().all(|&v| scratch.in_g0_vertex.contains(v.index())) {
            return Ok(extract_component(g, scratch, q[0], k));
        }
        if k == 2 {
            return Err(GraphError::Disconnected);
        }
        k -= 1;
    }
}

/// Keeps only the connected component of the accumulated edge set that
/// contains `root`, producing the final `G0`.
///
/// The edge ids of a CSR built from sorted, deduplicated pairs ascend in
/// lexicographic `(min, max)` endpoint order, so walking the component's
/// vertices in ascending id order and each CSR row's upper neighbors
/// (`nb > v`) in place emits the canonical ascending edge list directly —
/// no O(|E0| log |E0|) sort and no O(n) vertex-set scan. Canonical order
/// matters: every query inside one community produces a byte-identical
/// edge list — and therefore a byte-identical peel subgraph, which is what
/// lets the pooled peel scratch reuse its initial-supports table across
/// queries.
fn extract_component(g: &CsrGraph, scratch: &mut FindScratch, root: VertexId, k: u32) -> G0 {
    let rep = scratch.uf.find(root.0);
    scratch.comp.ensure(g.num_vertices());
    scratch.comp.clear();
    // Every touched vertex is joined to Q at the final level, so this is
    // the exact size, and the list never grows.
    let mut vertices: Vec<VertexId> = Vec::with_capacity(scratch.touched.len());
    for i in 0..scratch.touched.len() {
        let v = scratch.touched[i];
        if scratch.uf.find(v) == rep {
            scratch.comp.insert(v as usize);
            vertices.push(VertexId(v));
        }
    }
    vertices.sort_unstable();
    let mut edges = Vec::with_capacity(scratch.g0_edges.len());
    for &v in &vertices {
        for (nb, e) in g.incident(v) {
            if nb > v && scratch.in_g0_edge.contains(e.index()) && scratch.comp.contains(nb.index())
            {
                edges.push(e);
            }
        }
    }
    debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "canonical order");
    G0 { k, edges, vertices }
}

/// The query distance `dist(G0, Q)` of a located community (Def. 3): the
/// largest eccentricity of a query vertex, since `G0` is connected.
///
/// `G0` is a whole component of the `τ ≥ k` edges, so its rows are the
/// index's `τ ≥ k` row prefixes, and one level-synchronous BFS per query
/// vertex walks them with no copy of `G0`. `scratch` must be the one that
/// located `g0`: its cursors stop exactly at those prefixes' ends (the
/// locate took every `τ ≥ k` edge of each `G0` vertex and no other), and
/// the walk reuses its visit marks and vertex list, so it allocates
/// nothing.
pub fn g0_query_distance(
    idx: &TrussIndex,
    g0: &G0,
    q: &[VertexId],
    scratch: &mut FindScratch,
) -> u32 {
    let FindScratch {
        cursor,
        cursor_set,
        pending_set: seen,
        touched: queue,
        ..
    } = scratch;
    let mut dist = 0;
    for &src in q {
        seen.clear();
        seen.insert(src.index());
        queue.clear();
        queue.push(src.0);
        let (mut lo, mut depth) = (0, 0);
        loop {
            let hi = queue.len();
            for i in lo..hi {
                let v = queue[i] as usize;
                debug_assert!(cursor_set.contains(v), "every G0 vertex was expanded");
                let (nbrs, _) = idx.sorted_row(VertexId(v as u32));
                for &nb in &nbrs[..cursor[v] as usize] {
                    if seen.insert(nb as usize) {
                        queue.push(nb);
                    }
                }
            }
            if queue.len() == hi {
                break;
            }
            (lo, depth) = (hi, depth + 1);
        }
        debug_assert_eq!(queue.len(), g0.vertices.len(), "G0 is one component");
        dist = dist.max(depth);
    }
    dist
}

/// The maximal connected k-truss containing `q` for a *given* `k`, or
/// `None` if the query is not covered / not connected at that level.
///
/// A filtered BFS over the `τ ≥ k` edges: the independent construction the
/// cross-checks hold [`find_g0_with`] (capped or not) against.
pub fn find_ktruss_containing(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    k: u32,
) -> Option<G0> {
    if q.is_empty() || q.iter().any(|&v| idx.vertex_truss(v) < k) {
        return None;
    }
    // BFS from q[0] over edges with trussness ≥ k.
    let view = ctc_graph::FilteredGraph::new(g, |e| idx.edge_truss(e) >= k);
    let mut bfs = BfsScratch::new(g.num_vertices());
    bfs.run(&view, q[0]);
    if q.iter().any(|&v| bfs.dist(v) == ctc_graph::INF) {
        return None;
    }
    let mut vertices: Vec<VertexId> = bfs.reached().collect();
    vertices.sort_unstable();
    let mut edges = Vec::new();
    for &v in &vertices {
        for (nb, e) in g.incident(v) {
            if v < nb && idx.edge_truss(e) >= k && bfs.dist(nb) != ctc_graph::INF {
                edges.push(e);
            }
        }
    }
    // Ascending-vertex, ascending-row iteration emits the same canonical
    // edge order as `find_g0` (see `extract_component`) with no sort.
    debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "canonical order");
    // Drop vertices that have no qualifying incident edge (can only be the
    // root itself in degenerate cases).
    vertices.retain(|&v| {
        g.incident(v)
            .any(|(nb, e)| idx.edge_truss(e) >= k && bfs.dist(nb) != ctc_graph::INF)
    });
    Some(G0 { k, edges, vertices })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_graph, figure4_graph, Figure1Ids, Figure4Ids};
    use ctc_graph::graph_from_edges;

    #[test]
    fn figure1_query_q123_returns_grey_4truss() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let g0 = find_g0(&g, &idx, &[f.q1, f.q2, f.q3]).unwrap();
        assert_eq!(g0.k, 4);
        // grey region: 11 vertices, 23 edges (everything but t and its 2 edges)
        assert_eq!(g0.vertices.len(), 11);
        assert_eq!(g0.edges.len(), 23);
        assert!(!g0.vertices.contains(&f.t));
    }

    #[test]
    fn figure4_example6_descends_to_level_2() {
        let g = figure4_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure4Ids::default();
        let g0 = find_g0(&g, &idx, &[f.q1, f.q2]).unwrap();
        assert_eq!(g0.k, 2, "Example 6: bridge forces k down to 2");
        assert_eq!(g0.vertices.len(), 8);
        assert_eq!(g0.edges.len(), 13, "G0 coincides with the whole graph");
    }

    #[test]
    fn single_query_vertex_gets_its_best_truss() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let g0 = find_g0(&g, &idx, &[f.q3]).unwrap();
        assert_eq!(g0.k, 4);
        // q3's 4-truss component: the whole grey region (connected via q3).
        assert!(g0.vertices.contains(&f.p1));
        assert!(g0.vertices.contains(&f.v3));
        assert!(!g0.vertices.contains(&f.t));
    }

    #[test]
    fn component_trimming_drops_unreached_side() {
        // Two disjoint K4s; query inside one of them.
        let g = graph_from_edges(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
        ]);
        let idx = TrussIndex::build(&g);
        let g0 = find_g0(&g, &idx, &[VertexId(0)]).unwrap();
        assert_eq!(g0.k, 4);
        assert_eq!(g0.vertices.len(), 4);
        assert!(g0.vertices.iter().all(|v| v.0 <= 3));
    }

    #[test]
    fn disconnected_query_errors() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let idx = TrussIndex::build(&g);
        let err = find_g0(&g, &idx, &[VertexId(0), VertexId(3)]).unwrap_err();
        assert_eq!(err, GraphError::Disconnected);
    }

    #[test]
    fn empty_and_bad_queries_error() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let idx = TrussIndex::build(&g);
        assert_eq!(find_g0(&g, &idx, &[]).unwrap_err(), GraphError::EmptyQuery);
        assert!(matches!(
            find_g0(&g, &idx, &[VertexId(99)]).unwrap_err(),
            GraphError::VertexOutOfRange { .. }
        ));
    }

    #[test]
    fn isolated_query_vertex_errors() {
        let mut b = ctc_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.ensure_vertices(4);
        let g = b.build();
        let idx = TrussIndex::build(&g);
        assert_eq!(
            find_g0(&g, &idx, &[VertexId(3)]).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn g0_is_a_genuine_k_truss() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let g0 = find_g0(&g, &idx, &[f.q1, f.q2, f.q3]).unwrap();
        let sub = ctc_graph::edge_subgraph(&g, &g0.edges);
        assert!(crate::decompose::is_k_truss(&sub.graph, g0.k));
        assert!(ctc_graph::is_connected(&sub.graph));
    }

    #[test]
    fn fixed_k_variant_matches_levels() {
        let g = figure4_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure4Ids::default();
        // k=4: q1's own K4 only.
        let a = find_ktruss_containing(&g, &idx, &[f.q1], 4).unwrap();
        assert_eq!(a.vertices.len(), 4);
        // k=4 with both queries: impossible (bridge is trussness 2).
        assert!(find_ktruss_containing(&g, &idx, &[f.q1, f.q2], 4).is_none());
        // k=2: whole graph.
        let b = find_ktruss_containing(&g, &idx, &[f.q1, f.q2], 2).unwrap();
        assert_eq!(b.vertices.len(), 8);
        assert_eq!(b.edges.len(), 13);
    }

    /// One pooled scratch serving many queries (including error paths in
    /// between) must answer each exactly like a fresh scratch would.
    #[test]
    fn pooled_scratch_reuse_matches_fresh() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let queries: Vec<Vec<VertexId>> = vec![
            vec![f.q1, f.q2, f.q3],
            vec![f.q3],
            vec![f.t],
            vec![f.q1, f.t],
            vec![f.q2],
            vec![f.q1, f.q2, f.q3],
        ];
        let mut scratch = FindScratch::new();
        for q in &queries {
            let pooled = find_g0_with(&g, &idx, q, u32::MAX, &mut scratch);
            let fresh = find_g0(&g, &idx, q);
            match (pooled, fresh) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.k, b.k, "query {q:?}");
                    assert_eq!(a.edges, b.edges, "query {q:?}");
                    assert_eq!(a.vertices, b.vertices, "query {q:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "query {q:?}"),
                (a, b) => panic!("divergence on {q:?}: {a:?} vs {b:?}"),
            }
            // Interleave a capped locate on the same scratch.
            let with = find_g0_with(&g, &idx, q, 3, &mut scratch);
            let plain = find_g0_with(&g, &idx, q, 3, &mut FindScratch::new());
            match (with, plain) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.k, b.k);
                    assert_eq!(a.edges, b.edges);
                    assert_eq!(a.vertices, b.vertices);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "query {q:?}"),
                (a, b) => panic!("capped divergence on {q:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn find_g0_matches_fixed_k_at_its_level() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q3];
        let g0 = find_g0(&g, &idx, &q).unwrap();
        let fixed = find_ktruss_containing(&g, &idx, &q, g0.k).unwrap();
        let mut a = g0.edges.clone();
        let mut b = fixed.edges.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "streaming and filtered construction must agree");
    }
}
