//! The paper's "simple truss index" (§4.3).
//!
//! For each vertex the incident arcs are re-sorted by **descending edge
//! trussness**, so "all incident edges with trussness ≥ k" is a row prefix;
//! vertex trussness is the first entry. The trussness of an edge given by
//! its vertex pair is `edge_truss(g.edge_between(u, v)?)`: the CSR's
//! sorted rows answer the pair lookup the paper gives a hashtable.
//! Construction costs one truss decomposition, `O(ρ·m)` (Remark 1); the
//! index occupies `O(m)` space.

use crate::decompose::{truss_decomposition_with, DecomposeScratch, TrussDecomposition};
use ctc_graph::{CsrGraph, EdgeId, VertexId};

/// Truss index over a fixed graph.
#[derive(Clone, Debug)]
pub struct TrussIndex {
    /// Trussness per edge id.
    edge_truss: Vec<u32>,
    /// Trussness per vertex (max incident edge trussness; 0 if isolated).
    vertex_truss: Vec<u32>,
    /// Maximum trussness of any edge — `τ̄(∅)`.
    max_truss: u32,
    /// The distinct edge trussness values, descending.
    levels: Vec<u32>,
    /// Row offsets (copied from the CSR so the index is self-contained).
    offsets: Vec<u32>,
    /// Neighbor ids, each row sorted by (desc trussness, asc id).
    sorted_nbr: Vec<u32>,
    /// Edge ids parallel to `sorted_nbr`.
    sorted_edge: Vec<u32>,
}

impl TrussIndex {
    /// Builds the index for `g` (runs a truss decomposition).
    ///
    /// ```
    /// use ctc_truss::{fixtures, TrussIndex};
    ///
    /// let g = fixtures::figure1_graph();
    /// let idx = TrussIndex::build(&g);
    /// assert_eq!(idx.max_truss(), 4);
    /// assert_eq!(idx.num_edges(), g.num_edges());
    /// ```
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with(g, &mut DecomposeScratch::new())
    }

    /// Builds the index for `g` using pooled decomposition `scratch`.
    /// Identical output to [`TrussIndex::build`]; a warmed scratch makes
    /// the decomposition phase allocation-free.
    pub fn build_with(g: &CsrGraph, scratch: &mut DecomposeScratch) -> Self {
        Self::from_decomposition(g, truss_decomposition_with(g, scratch))
    }

    /// Builds the index from a precomputed decomposition, taking over its
    /// trussness array.
    pub fn from_decomposition(g: &CsrGraph, decomp: TrussDecomposition) -> Self {
        Self::from_parts(g, decomp.edge_truss, decomp.max_truss)
    }

    pub(crate) fn from_parts(g: &CsrGraph, edge_truss: Vec<u32>, max_truss: u32) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        debug_assert_eq!(edge_truss.len(), m);
        // Rows are (desc trussness, asc neighbor id). A per-row comparison
        // sort costs O(Σ deg log deg) — noticeable on the LCTC locate path,
        // which builds a local index per query. Instead: counting-sort the
        // edge ids by (desc truss, asc id) globally, then scatter each edge
        // into its two endpoint rows in that order. Within one truss level
        // ascending edge id IS ascending neighbor id (edge ids follow the
        // canonical ascending (min,max) pair order: a row's neighbors below
        // v come first, ascending, then those above v, ascending — both
        // monotone in id), so the result is byte-identical in O(m + K).
        let levels = max_truss as usize + 1;
        let mut level_count = vec![0u32; levels];
        for &t in &edge_truss {
            level_count[t as usize] += 1;
        }
        let mut level_start = vec![0u32; levels];
        let mut acc = 0u32;
        for t in (0..levels).rev() {
            level_start[t] = acc;
            acc += level_count[t];
        }
        let distinct = (0..levels as u32)
            .rev()
            .filter(|&t| level_count[t as usize] > 0)
            .collect();
        let mut order = vec![0u32; m];
        for (e, &t) in edge_truss.iter().enumerate() {
            let slot = &mut level_start[t as usize];
            order[*slot as usize] = e as u32;
            *slot += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for v in 0..n {
            let next = offsets[v] + g.degree(VertexId::from(v)) as u32;
            offsets.push(next);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut sorted_nbr = vec![0u32; 2 * m];
        let mut sorted_edge = vec![0u32; 2 * m];
        for &e in &order {
            let (u, v) = g.edge_endpoints(EdgeId(e));
            for (a, b) in [(u, v), (v, u)] {
                let slot = &mut cursor[a.index()];
                sorted_nbr[*slot as usize] = b.0;
                sorted_edge[*slot as usize] = e;
                *slot += 1;
            }
        }
        let mut vertex_truss = vec![0u32; n];
        for v in 0..n {
            let lo = offsets[v] as usize;
            if lo < offsets[v + 1] as usize {
                vertex_truss[v] = edge_truss[sorted_edge[lo] as usize];
            }
        }
        TrussIndex {
            edge_truss,
            vertex_truss,
            max_truss,
            levels: distinct,
            offsets,
            sorted_nbr,
            sorted_edge,
        }
    }

    /// Trussness of edge `e`.
    #[inline(always)]
    pub fn edge_truss(&self, e: EdgeId) -> u32 {
        self.edge_truss[e.index()]
    }

    /// The whole per-edge trussness array.
    #[inline]
    pub fn edge_truss_slice(&self) -> &[u32] {
        &self.edge_truss
    }

    /// Trussness of vertex `v` (Lemma 1 upper bound `k ≤ min_q τ(q)` uses
    /// this).
    #[inline(always)]
    pub fn vertex_truss(&self, v: VertexId) -> u32 {
        self.vertex_truss[v.index()]
    }

    /// `τ̄(∅)`: the maximum trussness of any edge of the indexed graph.
    #[inline(always)]
    pub fn max_truss(&self) -> u32 {
        self.max_truss
    }

    /// The distinct edge trussness values, descending: the levels at
    /// which the `τ ≥ t` subgraph changes. Computed once per index.
    #[inline]
    pub fn distinct_levels(&self) -> &[u32] {
        &self.levels
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.edge_truss.len()
    }

    /// The truss-sorted row of `v`: parallel `(neighbors, edge ids)` slices
    /// ordered by descending edge trussness.
    #[inline]
    pub fn sorted_row(&self, v: VertexId) -> (&[u32], &[u32]) {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        (&self.sorted_nbr[lo..hi], &self.sorted_edge[lo..hi])
    }

    /// Iterator over `(neighbor, edge, trussness)` of `v`'s incident edges
    /// with trussness ≥ `k` (a row prefix).
    pub fn incident_at_least(
        &self,
        v: VertexId,
        k: u32,
    ) -> impl Iterator<Item = (VertexId, EdgeId, u32)> + '_ {
        let (nbrs, edges) = self.sorted_row(v);
        nbrs.iter()
            .zip(edges.iter())
            .map(|(&nb, &e)| (VertexId(nb), EdgeId(e), self.edge_truss[e as usize]))
            .take_while(move |&(_, _, t)| t >= k)
    }

    /// Approximate in-memory footprint in bytes (used by Table 3).
    pub fn memory_bytes(&self) -> usize {
        self.edge_truss.len() * 4
            + self.vertex_truss.len() * 4
            + self.levels.len() * 4
            + self.offsets.len() * 4
            + self.sorted_nbr.len() * 4
            + self.sorted_edge.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_graph, Figure1Ids};
    use ctc_graph::graph_from_edges;

    #[test]
    fn rows_sorted_by_descending_truss() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        for v in g.vertices() {
            let (_, edges) = idx.sorted_row(v);
            let ts: Vec<u32> = edges.iter().map(|&e| idx.edge_truss(EdgeId(e))).collect();
            assert!(
                ts.windows(2).all(|w| w[0] >= w[1]),
                "row of {v} not sorted: {ts:?}"
            );
        }
    }

    #[test]
    fn vertex_truss_is_first_row_entry() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        assert_eq!(idx.vertex_truss(f.q2), 4);
        assert_eq!(idx.vertex_truss(f.t), 2);
        for v in g.vertices() {
            let (_, edges) = idx.sorted_row(v);
            let first = edges
                .first()
                .map(|&e| idx.edge_truss(EdgeId(e)))
                .unwrap_or(0);
            assert_eq!(idx.vertex_truss(v), first);
        }
    }

    #[test]
    fn incident_at_least_is_prefix() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        // q1 has 4 trussness-4 edges and the trussness-2 edge to t.
        let at4: Vec<_> = idx.incident_at_least(f.q1, 4).collect();
        assert_eq!(at4.len(), 3);
        let at2: Vec<_> = idx.incident_at_least(f.q1, 2).collect();
        assert_eq!(at2.len(), 4);
        assert!(at2.iter().any(|&(nb, _, t)| nb == f.t && t == 2));
    }

    #[test]
    fn max_truss_matches_decomposition() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        assert_eq!(idx.max_truss(), 4);
        assert_eq!(idx.num_edges(), g.num_edges());
        assert_eq!(idx.num_vertices(), g.num_vertices());
    }

    #[test]
    fn counting_sorted_rows_match_comparison_sort() {
        // The O(m + K) scatter must reproduce exactly what the old per-row
        // comparison sort produced: (desc truss, asc neighbor id).
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        for v in g.vertices() {
            let (nbrs, edges) = idx.sorted_row(v);
            let mut row: Vec<(u32, u32, u32)> = g
                .incident(v)
                .map(|(nb, e)| (idx.edge_truss(e), nb.0, e.0))
                .collect();
            row.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let want_nbrs: Vec<u32> = row.iter().map(|&(_, nb, _)| nb).collect();
            let want_edges: Vec<u32> = row.iter().map(|&(_, _, e)| e).collect();
            assert_eq!(nbrs, &want_nbrs[..], "row of {v} diverged");
            assert_eq!(edges, &want_edges[..], "edge row of {v} diverged");
        }
    }

    /// What [`TrussIndex::distinct_levels`] must equal: every edge's
    /// trussness, sorted descending, deduplicated.
    fn sorted_distinct(idx: &TrussIndex) -> Vec<u32> {
        let mut levels = idx.edge_truss_slice().to_vec();
        levels.sort_unstable_by(|a, b| b.cmp(a));
        levels.dedup();
        levels
    }

    #[test]
    fn distinct_levels_match_a_sort_of_the_edge_trussness() {
        let idx = TrussIndex::build(&figure1_graph());
        assert_eq!(idx.distinct_levels(), [4, 2]);
        assert_eq!(idx.distinct_levels(), sorted_distinct(&idx));
        for seed in 0..4 {
            let g = ctc_gen::random::erdos_renyi_nm(150, 1500, seed);
            let idx = TrussIndex::build(&g);
            assert!(idx.distinct_levels().len() > 2, "seed {seed}");
            assert_eq!(idx.distinct_levels(), sorted_distinct(&idx), "seed {seed}");
        }
        let empty = TrussIndex::build(&graph_from_edges(&[]));
        assert!(empty.distinct_levels().is_empty());
        // A republished index carries them too: cutting the bridge `t`
        // off removes level 2.
        let f = Figure1Ids::default();
        let mut dynx = crate::DynamicIndex::build(&figure1_graph());
        dynx.delete_edge(f.q1, f.t).unwrap();
        dynx.delete_edge(f.t, f.q3).unwrap();
        let (_, idx) = dynx.materialize().unwrap();
        assert_eq!(idx.distinct_levels(), [4]);
        assert_eq!(idx.distinct_levels(), sorted_distinct(&idx));
    }

    #[test]
    fn memory_accounting_nonzero() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let idx = TrussIndex::build(&g);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn isolated_vertex_truss_is_zero() {
        let mut b = ctc_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertices(3);
        let g = b.build();
        let idx = TrussIndex::build(&g);
        assert_eq!(idx.vertex_truss(VertexId(2)), 0);
        assert!(idx.sorted_row(VertexId(2)).0.is_empty());
    }
}
