//! Triangle enumeration and edge-support computation.
//!
//! The support of an edge `e = (u,v)` in a graph `H` is the number of
//! triangles of `H` containing `e` (Def. in §2 of the paper); k-trusses are
//! defined entirely in terms of support. Whole-graph counts run one kernel,
//! the degree-oriented walk of [`Oriented`], which meets each triangle
//! exactly once; the truss decomposition of `ctc-truss` pools the same
//! kernel. Questions about one edge or one vertex pair take a single
//! sorted-row merge, [`for_each_common_neighbor`]. Both are pinned to the
//! scan-every-vertex oracle [`naive_edge_supports`] in tests and proptests.

use crate::csr::CsrGraph;
use crate::dynamic::DynGraph;
use crate::heap::vec_heap_bytes;
use crate::ids::{EdgeId, VertexId};

/// Degree-oriented forward adjacency: every edge `{u, v}` is stored once,
/// at its lower-ranked endpoint, where `u ≺ v` iff `(deg u, u) < (deg v,
/// v)`. A triangle `u ≺ v ≺ w` then shows up exactly once, as the wedge
/// `u → v → w` closed by the arc `u → w`, so each walk finds each triangle
/// once, from its lowest-ranked vertex; and no out-row is longer than
/// `√(2m)`, which bounds a walk by `O(m^{1.5})`.
///
/// One instance can be rebuilt for any number of graphs; its buffers keep
/// their capacity, which is how the truss decomposition's pooled scratch
/// reuses it.
///
/// ```
/// use ctc_graph::{graph_from_edges, Oriented};
///
/// let g = graph_from_edges(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
/// let mut oriented = Oriented::default();
/// oriented.build(&g);
/// let mut sup = Vec::new();
/// oriented.count(&mut sup);
/// assert_eq!(sup, vec![1, 1, 1, 0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Oriented {
    /// `start[u]..start[u + 1]` is `u`'s slice of `arcs`.
    start: Vec<u32>,
    /// `(v, e)` for every out-arc `u → v` of edge `e`, row by row.
    arcs: Vec<(u32, u32)>,
    /// `mark[w]` is `e_uw` while `w` is an out-neighbor of the vertex `u`
    /// being walked, and the dummy edge slot `m` otherwise.
    mark: Vec<u32>,
}

impl Oriented {
    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.start) + vec_heap_bytes(&self.arcs) + vec_heap_bytes(&self.mark)
    }

    /// Orients `g` in `O(n + m)`: each CSR row is filtered as it is
    /// copied, so out-rows stay ascending with no sort.
    pub fn build(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        // `(deg v, v)` packed into one ordered key.
        let rank = |v: u32| ((g.degree(VertexId(v)) as u64) << 32) | u64::from(v);
        self.start.clear();
        self.start.reserve_exact(n + 1);
        // Branch-free filter: every arc is written at `len`, which only
        // advances past out-arcs; the one spare slot takes the last write.
        self.arcs.clear();
        self.arcs.reserve_exact(g.num_edges() + 1);
        self.arcs.resize(g.num_edges() + 1, (0, 0));
        let mut len = 0;
        for u in 0..n as u32 {
            self.start.push(len as u32);
            let ru = rank(u);
            let row = g.neighbors(VertexId(u)).iter();
            for (&v, &e) in row.zip(g.neighbor_edge_ids(VertexId(u))) {
                self.arcs[len] = (v, e);
                len += usize::from(ru < rank(v));
            }
        }
        self.arcs.truncate(len);
        self.start.push(len as u32);
        self.mark.clear();
        self.mark.reserve_exact(n);
        self.mark.resize(n, g.num_edges() as u32);
    }

    /// Calls `visit(mark, e_uv, out(v))` for every out-arc `u → v`, with
    /// `u`'s out-neighbors marked: for each `(w, e_vw)` in `out(v)`,
    /// `mark[w]` is either the third edge `e_uw` of the triangle `u ≺ v ≺
    /// w` or the dummy slot `m`.
    fn walk(&mut self, mut visit: impl FnMut(&[u32], u32, &[(u32, u32)])) {
        let Self { start, arcs, mark } = self;
        // Every edge has exactly one arc, so `m` is the arc count.
        let dummy = arcs.len() as u32;
        let out = |v: u32| start[v as usize] as usize..start[v as usize + 1] as usize;
        for u in 0..mark.len() as u32 {
            let out_u = &arcs[out(u)];
            for &(v, e) in out_u {
                mark[v as usize] = e;
            }
            for &(v, e_uv) in out_u {
                visit(mark, e_uv, &arcs[out(v)]);
            }
            for &(v, _) in out_u {
                mark[v as usize] = dummy;
            }
        }
    }

    /// First walk: the support of every edge of the graph last
    /// [built](Self::build) into `sup`, indexed by edge id. Branch-free: a
    /// miss lands on the dummy slot `m`, whose wrapping counter is dropped
    /// at the end.
    pub fn count(&mut self, sup: &mut Vec<u32>) {
        let m = self.arcs.len();
        sup.clear();
        sup.reserve_exact(m + 1);
        sup.resize(m + 1, 0);
        self.walk(|mark, e_uv, out_v| {
            let mut closed = 0u32;
            for &(w, e_vw) in out_v {
                let e_uw = mark[w as usize] as usize;
                let hit = u32::from(e_uw != m);
                sup[e_uw] = sup[e_uw].wrapping_add(1);
                sup[e_vw as usize] += hit;
                closed += hit;
            }
            sup[e_uv as usize] += closed;
        });
        sup.truncate(m);
    }

    /// Second walk: lays out a triangle listing for the supports `sup` the
    /// first walk counted. Edge `e`'s slots are
    /// `tri[tri_start[e]..tri_start[e + 1]]`, one pair of the other two
    /// edge ids per triangle on `e`, in walk order.
    pub fn fill(&mut self, sup: &[u32], tri_start: &mut Vec<u32>, tri: &mut Vec<u32>) {
        // Point each edge at the end of its run; the walk fills runs
        // back to front, leaving `tri_start[e]` at the start of `e`'s run.
        tri_start.clear();
        tri_start.reserve_exact(sup.len() + 1);
        let mut end = 0u32;
        for &s in sup {
            end += 2 * s;
            tri_start.push(end);
        }
        tri_start.push(end);
        tri.clear();
        tri.reserve_exact(end as usize);
        tri.resize(end as usize, 0);
        let m = self.arcs.len() as u32;
        self.walk(|mark, e_uv, out_v| {
            for &(w, e_vw) in out_v {
                let e_uw = mark[w as usize];
                if e_uw == m {
                    continue;
                }
                for (e, a, b) in [(e_uv, e_vw, e_uw), (e_vw, e_uv, e_uw), (e_uw, e_uv, e_vw)] {
                    let slot = &mut tri_start[e as usize];
                    *slot -= 2;
                    tri[*slot as usize] = a;
                    tri[*slot as usize + 1] = b;
                }
            }
        });
    }
}

/// Computes `sup(e)` for every edge of `g`, indexed by edge id, with one
/// walk over a freshly built [`Oriented`] adjacency.
pub fn edge_supports(g: &CsrGraph) -> Vec<u32> {
    let mut oriented = Oriented::default();
    oriented.build(g);
    let mut sup = Vec::new();
    oriented.count(&mut sup);
    sup
}

/// Computes supports restricted to the alive part of `d`.
///
/// This is line 15 of Algorithm 2: after `FindG0` materializes the working
/// subgraph, supports within it seed the k-truss maintenance. A
/// fully-alive overlay is its base graph and takes [`edge_supports`];
/// otherwise each alive edge merges its endpoints' alive rows.
pub fn edge_supports_dyn(d: &DynGraph<'_>) -> Vec<u32> {
    let g = d.base();
    if d.num_alive_vertices() == g.num_vertices() && d.num_alive_edges() == g.num_edges() {
        return edge_supports(g);
    }
    let mut sup = vec![0u32; g.num_edges()];
    for (e, u, v) in d.alive_edges() {
        let mut c = 0u32;
        d.for_each_common_neighbor(u, v, |_, _, _| c += 1);
        sup[e.index()] = c;
    }
    sup
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
    edge_supports(g).iter().map(|&s| u64::from(s)).sum::<u64>() / 3
}

/// Calls `f(w, e_uw, e_vw)` for every common neighbor `w` of `u` and `v`,
/// in ascending `w` order: one two-pointer merge of their sorted CSR rows,
/// which reads each side edge's id off its row position.
#[inline]
pub fn for_each_common_neighbor<F: FnMut(VertexId, EdgeId, EdgeId)>(
    g: &CsrGraph,
    u: VertexId,
    v: VertexId,
    mut f: F,
) {
    let (nu, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
    let (nv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
    let (mut i, mut j) = (0, 0);
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

/// Support of a single edge `{u, v}` in `g` (`None` if not an edge).
pub fn support_of(g: &CsrGraph, u: VertexId, v: VertexId) -> Option<u32> {
    g.edge_between(u, v)?;
    let mut c = 0;
    for_each_common_neighbor(g, u, v, |_, _, _| c += 1);
    Some(c)
}

/// Lists the common neighbors of `u` and `v` (the apexes of triangles over
/// the edge `{u,v}`), ascending.
pub fn common_neighbors(g: &CsrGraph, u: VertexId, v: VertexId) -> Vec<VertexId> {
    let mut out = Vec::new();
    for_each_common_neighbor(g, u, v, |w, _, _| out.push(w));
    out
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
    fn triangle_free_graph() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert_eq!(triangle_count(&g), 0);
        assert!(edge_supports(&g).iter().all(|&s| s == 0));
    }

    #[test]
    fn support_of_and_common_neighbors() {
        let g = k4();
        assert_eq!(support_of(&g, VertexId(0), VertexId(1)), Some(2));
        assert_eq!(support_of(&g, VertexId(0), VertexId(0)), None);
        let c = common_neighbors(&g, VertexId(0), VertexId(1));
        assert_eq!(c, vec![VertexId(2), VertexId(3)]);
    }

    #[test]
    fn triangle_edges_resolves_ids() {
        let g = k4();
        let t = triangle_edges(&g, VertexId(0), VertexId(1), VertexId(2));
        assert!(t.is_some());
        let g2 = graph_from_edges(&[(0, 1), (1, 2)]);
        assert!(triangle_edges(&g2, VertexId(0), VertexId(1), VertexId(2)).is_none());
    }

    /// Hub with many spokes plus chords — dense hub row, sparse spokes:
    /// the orientation must agree with the naive count on every edge.
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
        assert_eq!(triangle_count(&g), 4);
        assert_eq!(edge_supports(&g), naive_edge_supports(&g));
    }
}
