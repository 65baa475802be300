//! Blocked u64-bitset adjacency: the locate-phase intersection kernel.
//!
//! The locate phase (Algorithm 2 and LCTC's per-query decomposition) is
//! bound by sorted-row merges: every edge pays `O(d(u) + d(v))` compares to
//! find its triangles. [`BitsetAdjacency`] trades memory for word-parallel
//! intersection: vertices above a degree threshold get a *span-compressed*
//! bitset row — `u64` words covering only `[min_nbr/64 ..= max_nbr/64]` —
//! and two dense rows intersect with `AND` + `popcount` over the overlap of
//! their spans, which the compiler auto-vectorizes with no SIMD crates.
//!
//! Each dense row also carries a *rank directory* (exclusive prefix
//! popcounts per word), so the position of a neighbor inside the CSR row —
//! and therefore its **edge id** — is recovered from its bit in O(1). That
//! is what lets triangle enumeration emit `(w, e_uw, e_vw)` triples without
//! hashtable or binary-search lookups.
//!
//! The kernel is a *hybrid*: rows below the threshold (or whose neighbor
//! span is too wide to pack profitably) stay sparse, and intersections
//! dispatch per edge — dense∧dense AND, dense∧sparse bit-probes, and the
//! existing early-exit merge for sparse∧sparse. All three paths enumerate
//! common neighbors in ascending id order, so results are byte-identical
//! to the merge oracle by construction.

use crate::csr::CsrGraph;
use crate::ids::{EdgeId, VertexId};

/// Default degree threshold: rows with fewer neighbors stay sparse.
///
/// Low on purpose — a merge over two degree-8 rows already costs ~16
/// branchy compares, while the packed spans of community-scale graphs are
/// a handful of words. The hybrid guard on span width (below) is what
/// keeps pathological rows out, not a high degree bar.
pub const DEFAULT_DENSE_DEGREE: u32 = 8;

/// A dense row is only packed when its word span is at most this many
/// words per neighbor — beyond that the bitset walks more memory than the
/// merge it replaces (and the slab would bloat: the cap bounds the whole
/// structure by `8·m` words).
const SPAN_WORDS_PER_DEGREE: u32 = 4;

/// Slab coordinates of one vertex's packed row; `num_words == 0` marks a
/// sparse (merge-path) row.
#[derive(Clone, Copy, Debug, Default)]
struct Row {
    words_start: u32,
    first_word: u32,
    num_words: u32,
}

/// Hybrid bitset/merge adjacency sidecar over a [`CsrGraph`].
///
/// Holds no reference to the graph it was built from; every query takes
/// `&CsrGraph` so the sidecar can live in pools and engine-level caches
/// without self-referential lifetimes. Passing a *different* graph than
/// the one it was built from is a logic error (debug-asserted).
#[derive(Clone, Debug)]
pub struct BitsetAdjacency {
    threshold: u32,
    num_vertices: usize,
    words: Vec<u64>,
    rank: Vec<u32>,
    rows: Vec<Row>,
}

impl BitsetAdjacency {
    /// Builds the sidecar with the default degree threshold.
    pub fn build(g: &CsrGraph) -> Self {
        Self::with_threshold(g, DEFAULT_DENSE_DEGREE)
    }

    /// Builds with an explicit degree threshold (`0`/`1` packs every
    /// non-isolated vertex whose span qualifies; `u32::MAX` packs nothing,
    /// forcing the pure merge path — the oracle configuration).
    pub fn with_threshold(g: &CsrGraph, threshold: u32) -> Self {
        let n = g.num_vertices();
        let mut rows = vec![Row::default(); n];
        let mut words: Vec<u64> = Vec::new();
        let mut rank: Vec<u32> = Vec::new();
        let threshold = threshold.max(1);
        for (v, row) in rows.iter_mut().enumerate() {
            let nbrs = g.neighbors(VertexId(v as u32));
            let deg = nbrs.len() as u32;
            if deg < threshold {
                continue;
            }
            let first_word = nbrs[0] >> 6;
            let span = (nbrs[nbrs.len() - 1] >> 6) - first_word + 1;
            if span > deg.saturating_mul(SPAN_WORDS_PER_DEGREE)
                || words.len() + span as usize > u32::MAX as usize
            {
                continue;
            }
            let start = words.len() as u32;
            *row = Row {
                words_start: start,
                first_word,
                num_words: span,
            };
            words.resize(words.len() + span as usize, 0);
            let w = &mut words[start as usize..];
            for &nb in nbrs {
                w[((nb >> 6) - first_word) as usize] |= 1u64 << (nb & 63);
            }
            let mut acc = 0u32;
            rank.reserve(span as usize);
            for &word in w.iter().take(span as usize) {
                rank.push(acc);
                acc += word.count_ones();
            }
        }
        BitsetAdjacency {
            threshold,
            num_vertices: n,
            words,
            rank,
            rows,
        }
    }

    /// The degree threshold the sidecar was built with.
    #[inline]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// `true` if `v` has a packed bitset row.
    #[inline]
    pub fn is_dense(&self, v: VertexId) -> bool {
        self.rows[v.index()].num_words != 0
    }

    /// Number of vertices with a packed row (diagnostic).
    pub fn num_dense(&self) -> usize {
        self.rows.iter().filter(|r| r.num_words != 0).count()
    }

    #[inline(always)]
    fn row_words(&self, r: Row) -> &[u64] {
        &self.words[r.words_start as usize..(r.words_start + r.num_words) as usize]
    }

    /// `true` if dense row `r` contains neighbor `w`.
    #[inline(always)]
    fn row_contains(&self, r: Row, w: u32) -> bool {
        let wi = w >> 6;
        if wi < r.first_word || wi >= r.first_word + r.num_words {
            return false;
        }
        let word = self.words[(r.words_start + wi - r.first_word) as usize];
        word >> (w & 63) & 1 != 0
    }

    /// Position of neighbor `w` inside the CSR row backing dense row `r`
    /// (caller guarantees membership): rank-directory word prefix plus the
    /// popcount of the bits below `w` in its word.
    #[inline(always)]
    fn row_position(&self, r: Row, w: u32) -> usize {
        let slot = (r.words_start + (w >> 6) - r.first_word) as usize;
        let below = self.words[slot] & ((1u64 << (w & 63)) - 1);
        (self.rank[slot] + below.count_ones()) as usize
    }

    /// Number of common neighbors of `u` and `v` (the support of the edge
    /// `{u, v}` if present). Byte-identical to the sorted-row merge on
    /// every input; only the dispatch differs.
    pub fn intersection_count(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> u32 {
        debug_assert_eq!(
            self.num_vertices,
            g.num_vertices(),
            "sidecar/graph mismatch"
        );
        let (ru, rv) = (self.rows[u.index()], self.rows[v.index()]);
        match (ru.num_words != 0, rv.num_words != 0) {
            (true, true) => {
                let lo = ru.first_word.max(rv.first_word);
                let hi = (ru.first_word + ru.num_words).min(rv.first_word + rv.num_words);
                if lo >= hi {
                    return 0;
                }
                let a = &self.row_words(ru)[(lo - ru.first_word) as usize..];
                let b = &self.row_words(rv)[(lo - rv.first_word) as usize..];
                let len = (hi - lo) as usize;
                let mut c = 0u32;
                for i in 0..len {
                    c += (a[i] & b[i]).count_ones();
                }
                c
            }
            (true, false) => self.probe_count(ru, g.neighbors(v)),
            (false, true) => self.probe_count(rv, g.neighbors(u)),
            (false, false) => merge_count(g.neighbors(u), g.neighbors(v)),
        }
    }

    #[inline]
    fn probe_count(&self, dense: Row, sparse: &[u32]) -> u32 {
        let mut c = 0u32;
        for &w in sparse {
            c += self.row_contains(dense, w) as u32;
        }
        c
    }

    /// Calls `f(w, e_uw, e_vw)` for every common neighbor `w ≥ from` of `u`
    /// and `v`, in ascending `w` order — the same order (and the same edge
    /// ids) the merge oracle produces.
    pub fn for_each_common<F: FnMut(VertexId, EdgeId, EdgeId)>(
        &self,
        g: &CsrGraph,
        u: VertexId,
        v: VertexId,
        from: u32,
        mut f: F,
    ) {
        debug_assert_eq!(
            self.num_vertices,
            g.num_vertices(),
            "sidecar/graph mismatch"
        );
        let (ru, rv) = (self.rows[u.index()], self.rows[v.index()]);
        match (ru.num_words != 0, rv.num_words != 0) {
            (true, true) => {
                let lo = ru.first_word.max(rv.first_word).max(from >> 6);
                let hi = (ru.first_word + ru.num_words).min(rv.first_word + rv.num_words);
                if lo >= hi {
                    return;
                }
                let (eu, ev) = (g.neighbor_edge_ids(u), g.neighbor_edge_ids(v));
                for wi in lo..hi {
                    let mut bits = self.words[(ru.words_start + wi - ru.first_word) as usize]
                        & self.words[(rv.words_start + wi - rv.first_word) as usize];
                    if wi == from >> 6 {
                        bits &= !0u64 << (from & 63);
                    }
                    while bits != 0 {
                        let w = (wi << 6) + bits.trailing_zeros();
                        bits &= bits - 1;
                        let e_uw = EdgeId(eu[self.row_position(ru, w)]);
                        let e_vw = EdgeId(ev[self.row_position(rv, w)]);
                        f(VertexId(w), e_uw, e_vw);
                    }
                }
            }
            (true, false) => self.probe_common(g, ru, u, v, from, &mut f),
            (false, true) => self.probe_common(g, rv, v, u, from, |w, ed, es| f(w, es, ed)),
            (false, false) => {
                let (nu, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
                let (nv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
                let mut i = nu.partition_point(|&x| x < from);
                let mut j = nv.partition_point(|&x| x < from);
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            f(VertexId(nu[i]), EdgeId(eu[i]), EdgeId(ev[j]));
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
    }

    /// Dense∧sparse arm of [`for_each_common`]: walk the sparse CSR row,
    /// probe the dense bitset. `f(w, e_dense_w, e_sparse_w)`.
    #[inline]
    fn probe_common<F: FnMut(VertexId, EdgeId, EdgeId)>(
        &self,
        g: &CsrGraph,
        dense: Row,
        dense_v: VertexId,
        sparse_v: VertexId,
        from: u32,
        mut f: F,
    ) {
        let (ns, es) = (g.neighbors(sparse_v), g.neighbor_edge_ids(sparse_v));
        let ed = g.neighbor_edge_ids(dense_v);
        for i in ns.partition_point(|&x| x < from)..ns.len() {
            let w = ns[i];
            if self.row_contains(dense, w) {
                f(
                    VertexId(w),
                    EdgeId(ed[self.row_position(dense, w)]),
                    EdgeId(es[i]),
                );
            }
        }
    }
}

/// The classic two-pointer merge count — the sparse∧sparse arm and the
/// oracle every bitset path must reproduce.
#[inline]
pub(crate) fn merge_count(a: &[u32], b: &[u32]) -> u32 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn check_against_merge(g: &CsrGraph, threshold: u32) {
        let adj = BitsetAdjacency::with_threshold(g, threshold);
        for (e, u, v) in g.edges() {
            let want = merge_count(g.neighbors(u), g.neighbors(v));
            assert_eq!(
                adj.intersection_count(g, u, v),
                want,
                "edge {e} ({u},{v}) t={threshold}"
            );
            // Listing path: same commons, correct edge ids, ascending.
            let mut got: Vec<(u32, u32, u32)> = Vec::new();
            adj.for_each_common(g, u, v, 0, |w, euw, evw| got.push((w.0, euw.0, evw.0)));
            assert_eq!(got.len(), want as usize);
            assert!(got.windows(2).all(|p| p[0].0 < p[1].0), "not ascending");
            for &(w, euw, evw) in &got {
                assert_eq!(g.edge_between(u, VertexId(w)), Some(EdgeId(euw)));
                assert_eq!(g.edge_between(v, VertexId(w)), Some(EdgeId(evw)));
            }
            // Bounded listing agrees with filtering.
            for from in [0u32, u.0, v.0 + 1, 63, 64, 65] {
                let mut bounded = 0usize;
                adj.for_each_common(g, u, v, from, |w, _, _| {
                    assert!(w.0 >= from);
                    bounded += 1;
                });
                let want_b = got.iter().filter(|t| t.0 >= from).count();
                assert_eq!(bounded, want_b, "from={from}");
            }
        }
    }

    fn dense_fixture() -> CsrGraph {
        // Two overlapping K6s plus far-id chords so spans cross words.
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
                edges.push((i + 4, j + 4));
            }
        }
        edges.push((0, 100));
        edges.push((1, 100));
        edges.push((0, 101));
        edges.push((1, 101));
        edges.push((100, 101));
        graph_from_edges(&edges)
    }

    #[test]
    fn hybrid_matches_merge_at_every_threshold() {
        let g = dense_fixture();
        for t in [0u32, 1, 2, 4, 8, u32::MAX] {
            check_against_merge(&g, t);
        }
    }

    #[test]
    fn span_guard_leaves_scattered_hubs_sparse() {
        // A hub whose neighbors are spread over a huge id range: span cap
        // must refuse to pack it, and results must still be exact.
        let mut edges = Vec::new();
        for i in 0..16u32 {
            edges.push((0, 1 + i * 1000));
        }
        edges.push((1, 1001));
        edges.push((0, 1)); // triangle 0-1-1001
        let g = graph_from_edges(&edges);
        let adj = BitsetAdjacency::with_threshold(&g, 1);
        assert!(!adj.is_dense(VertexId(0)), "span cap should reject the hub");
        check_against_merge(&g, 1);
    }

    #[test]
    fn word_boundary_neighbors() {
        // Neighbors straddling the 64-bit word boundary.
        let edges: Vec<(u32, u32)> = vec![
            (62, 63),
            (62, 64),
            (63, 64),
            (63, 65),
            (64, 65),
            (62, 128),
            (63, 128),
            (64, 128),
            (65, 128),
        ];
        let g = graph_from_edges(&edges);
        for t in [1u32, u32::MAX] {
            check_against_merge(&g, t);
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = graph_from_edges(&[]);
        let adj = BitsetAdjacency::build(&g);
        assert_eq!(adj.num_dense(), 0);
        let g = graph_from_edges(&[(0, 1)]);
        check_against_merge(&g, 1);
    }
}
