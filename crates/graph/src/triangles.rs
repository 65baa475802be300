//! Triangle enumeration and edge-support computation.
//!
//! The support of an edge `e = (u,v)` in a graph `H` is the number of
//! triangles of `H` containing `e` (Def. in §2 of the paper); k-trusses are
//! defined entirely in terms of support. All hot entry points here route
//! through the hybrid [`BitsetAdjacency`] kernel — word-parallel AND +
//! popcount for dense rows, the classic sorted-row merge for sparse ones —
//! and every path produces answers byte-identical to the merge oracle
//! ([`naive_edge_supports`] pins that in tests and proptests).

use crate::bitset::{merge_count, BitsetAdjacency};
use crate::csr::CsrGraph;
use crate::dynamic::DynGraph;
use crate::ids::{EdgeId, VertexId};
use crate::parallel::Parallelism;

/// Computes `sup(e)` for every edge of `g`.
///
/// Cost is `O(Σ_e (d(u) + d(v)))` worst case, but edges whose endpoints
/// both carry packed bitset rows intersect in `O(span/64)` words instead.
/// This is the serial reference path; [`edge_supports_par`] spreads the
/// same per-edge intersections over threads and produces an identical
/// array.
pub fn edge_supports(g: &CsrGraph) -> Vec<u32> {
    let adj = BitsetAdjacency::build(g);
    let mut sup = Vec::new();
    edge_supports_adj(g, &adj, &mut sup);
    sup
}

/// [`edge_supports`] against a caller-built kernel, writing into a
/// caller-owned buffer.
pub fn edge_supports_adj(g: &CsrGraph, adj: &BitsetAdjacency, sup: &mut Vec<u32>) {
    sup.clear();
    sup.resize(g.num_edges(), 0);
    for (e, u, v) in g.edges() {
        sup[e.index()] = adj.intersection_count(g, u, v);
    }
}

/// Computes `sup(e)` for every edge of `g`, spreading the per-edge
/// intersections over `par` worker threads.
///
/// Each edge's support depends only on the immutable CSR rows (and the
/// shared read-only bitset sidecar) of its endpoints, so workers fill
/// disjoint chunks of the output with no synchronization and the result is
/// byte-identical to [`edge_supports`] for every thread count.
pub fn edge_supports_par(g: &CsrGraph, par: Parallelism) -> Vec<u32> {
    if par.is_serial() {
        return edge_supports(g);
    }
    let adj = BitsetAdjacency::build(g);
    let mut sup = vec![0u32; g.num_edges()];
    par.fill_chunks(&mut sup, |start, chunk| {
        for (i, s) in chunk.iter_mut().enumerate() {
            let (u, v) = g.edge_endpoints(EdgeId((start + i) as u32));
            *s = adj.intersection_count(g, u, v);
        }
    });
    sup
}

/// Computes supports restricted to the alive part of `d`.
///
/// This is line 15 of Algorithm 2: after `FindG0` materializes the working
/// subgraph, supports within it seed the k-truss maintenance.
pub fn edge_supports_dyn(d: &DynGraph<'_>) -> Vec<u32> {
    let mut sup = Vec::new();
    edge_supports_dyn_into(d, &mut sup);
    sup
}

/// [`edge_supports_dyn`] writing into a caller-owned buffer.
///
/// A fully-alive overlay takes the static fast path: the bitset/merge
/// hybrid over the plain CSR with no per-element alive checks. Partial
/// overlays fall back to the alive-checked merge — bitset rows describe
/// the *base* graph and would overcount deleted neighbors.
pub fn edge_supports_dyn_into(d: &DynGraph<'_>, sup: &mut Vec<u32>) {
    let g = d.base();
    if d.num_alive_vertices() == g.num_vertices() && d.num_alive_edges() == g.num_edges() {
        edge_supports_adj(g, &BitsetAdjacency::build(g), sup);
        return;
    }
    sup.clear();
    sup.resize(g.num_edges(), 0);
    for (e, u, v) in d.alive_edges() {
        let mut c = 0u32;
        d.for_each_common_neighbor(u, v, |_, _, _| c += 1);
        sup[e.index()] = c;
    }
}

/// Calls `f(a, b, c)` once per triangle of `g`, with `a < b < c` in
/// ascending vertex-id order.
///
/// Each triangle `{a, b, c}` is reported exactly once, discovered from its
/// lexicographically smallest edge `(a, b)` by listing common neighbors
/// `w > b` through the hybrid intersection kernel. Runs in `O(m^{3/2})`
/// like the classic forward algorithm, with the per-edge intersections
/// taking the word-parallel path wherever rows are packed.
pub fn for_each_triangle<F: FnMut(VertexId, VertexId, VertexId)>(g: &CsrGraph, mut f: F) {
    let adj = BitsetAdjacency::build(g);
    for (_, u, v) in g.edges() {
        debug_assert!(u < v, "CSR edges are canonical (u < v)");
        adj.for_each_common(g, u, v, v.0 + 1, |w, _, _| f(u, v, w));
    }
}

/// Total number of triangles in `g`.
///
/// ```
/// use ctc_graph::{graph_from_edges, triangle_count};
///
/// // K4 contains one triangle per vertex triple: C(4,3) = 4.
/// let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
/// assert_eq!(triangle_count(&g), 4);
/// ```
pub fn triangle_count(g: &CsrGraph) -> u64 {
    // Sum of supports counts each triangle three times.
    edge_supports(g).iter().map(|&s| s as u64).sum::<u64>() / 3
}

/// Total number of triangles in `g`, computed over `par` worker threads.
///
/// Per-chunk support sums are reduced in chunk order, so the count equals
/// [`triangle_count`] exactly for every thread count.
pub fn triangle_count_par(g: &CsrGraph, par: Parallelism) -> u64 {
    let adj = BitsetAdjacency::build(g);
    let partial = par.map_chunks(g.num_edges(), |range| {
        range
            .map(|e| {
                let (u, v) = g.edge_endpoints(EdgeId(e as u32));
                adj.intersection_count(g, u, v) as u64
            })
            .sum::<u64>()
    });
    partial.into_iter().sum::<u64>() / 3
}

/// Support of a single edge `{u, v}` in `g` (`None` if not an edge).
pub fn support_of(g: &CsrGraph, u: VertexId, v: VertexId) -> Option<u32> {
    let _ = g.edge_between(u, v)?;
    Some(merge_count(g.neighbors(u), g.neighbors(v)))
}

/// Lists the common neighbors of `u` and `v` (the apexes of triangles over
/// the edge `{u,v}`).
pub fn common_neighbors(g: &CsrGraph, u: VertexId, v: VertexId) -> Vec<VertexId> {
    let mut out = Vec::new();
    common_neighbors_into(g, u, v, &mut out);
    out
}

/// [`common_neighbors`] writing into a caller-owned buffer — the pooled
/// form for hot loops, so repeated apex listings reuse one allocation.
pub fn common_neighbors_into(g: &CsrGraph, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
    out.clear();
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(VertexId(a[i]));
                i += 1;
                j += 1;
            }
        }
    }
}

/// Returns, for every edge, the list-free triangle check used in tests:
/// `sup(e)` recomputed naively by scanning all vertices. O(n·m); test-only
/// oracle.
pub fn naive_edge_supports(g: &CsrGraph) -> Vec<u32> {
    let mut sup = vec![0u32; g.num_edges()];
    for (e, u, v) in g.edges() {
        let mut c = 0;
        for w in g.vertices() {
            if w != u && w != v && g.has_edge(w, u) && g.has_edge(w, v) {
                c += 1;
            }
        }
        sup[e.index()] = c;
    }
    sup
}

/// Edge id triple of a triangle `(a, b, c)`, if all three edges exist.
pub fn triangle_edges(
    g: &CsrGraph,
    a: VertexId,
    b: VertexId,
    c: VertexId,
) -> Option<(EdgeId, EdgeId, EdgeId)> {
    Some((
        g.edge_between(a, b)?,
        g.edge_between(b, c)?,
        g.edge_between(a, c)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn k4() -> CsrGraph {
        graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn k4_supports_are_two() {
        let g = k4();
        assert!(edge_supports(&g).iter().all(|&s| s == 2));
        assert_eq!(triangle_count(&g), 4);
    }

    #[test]
    fn supports_match_naive_oracle() {
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (2, 4),
            (4, 5),
            (0, 5),
        ]);
        assert_eq!(edge_supports(&g), naive_edge_supports(&g));
    }

    #[test]
    fn dyn_supports_after_deletion() {
        let g = k4();
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(3));
        let sup = edge_supports_dyn(&d);
        // Remaining triangle {0,1,2}: every alive edge has support 1.
        for (e, _, _) in d.alive_edges() {
            assert_eq!(sup[e.index()], 1);
        }
    }

    #[test]
    fn triangle_enumeration_counts_match() {
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (0, 2),
            (1, 3),
            (2, 3),
            (0, 3),
            (3, 4),
            (4, 5),
        ]);
        let mut listed = 0u64;
        for_each_triangle(&g, |a, b, c| {
            assert!(a < b && b < c, "ascending-id contract");
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
            listed += 1;
        });
        assert_eq!(listed, triangle_count(&g));
    }

    #[test]
    fn triangle_free_graph() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert_eq!(triangle_count(&g), 0);
        assert!(edge_supports(&g).iter().all(|&s| s == 0));
        let mut any = false;
        for_each_triangle(&g, |_, _, _| any = true);
        assert!(!any);
    }

    #[test]
    fn support_of_and_common_neighbors() {
        let g = k4();
        assert_eq!(support_of(&g, VertexId(0), VertexId(1)), Some(2));
        assert_eq!(support_of(&g, VertexId(0), VertexId(0)), None);
        let c = common_neighbors(&g, VertexId(0), VertexId(1));
        assert_eq!(c, vec![VertexId(2), VertexId(3)]);
        // The pooled form reuses its buffer and clears stale contents.
        let mut buf = vec![VertexId(99)];
        common_neighbors_into(&g, VertexId(0), VertexId(1), &mut buf);
        assert_eq!(buf, vec![VertexId(2), VertexId(3)]);
    }

    #[test]
    fn triangle_edges_resolves_ids() {
        let g = k4();
        let t = triangle_edges(&g, VertexId(0), VertexId(1), VertexId(2));
        assert!(t.is_some());
        let g2 = graph_from_edges(&[(0, 1), (1, 2)]);
        assert!(triangle_edges(&g2, VertexId(0), VertexId(1), VertexId(2)).is_none());
    }

    #[test]
    fn parallel_supports_match_serial() {
        let mut edges = vec![];
        // Two overlapping K4s plus a tail: mixed supports.
        for &(u, v) in &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
            (5, 6),
            (6, 7),
        ] {
            edges.push((u, v));
        }
        let g = graph_from_edges(&edges);
        let serial = edge_supports(&g);
        for threads in [1usize, 2, 3, 8] {
            let par = edge_supports_par(&g, Parallelism::threads(threads));
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(
                triangle_count_par(&g, Parallelism::threads(threads)),
                triangle_count(&g),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_supports_empty_graph() {
        let g = graph_from_edges(&[]);
        assert!(edge_supports_par(&g, Parallelism::threads(4)).is_empty());
        assert_eq!(triangle_count_par(&g, Parallelism::threads(4)), 0);
    }

    /// Hub with many spokes plus chords — dense hub row, sparse spokes:
    /// the hybrid dispatch must agree with the count on every edge.
    #[test]
    fn seen_rows_sorted_star_with_chords() {
        let mut edges = vec![];
        for i in 1..=8u32 {
            edges.push((0, i));
        }
        edges.push((1, 2));
        edges.push((3, 4));
        edges.push((5, 6));
        edges.push((7, 8));
        let g = graph_from_edges(&edges);
        let mut listed = 0;
        for_each_triangle(&g, |_, _, _| listed += 1);
        assert_eq!(listed, 4);
        assert_eq!(triangle_count(&g), 4);
        assert_eq!(edge_supports(&g), naive_edge_supports(&g));
    }
}
