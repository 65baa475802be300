//! Immutable compressed-sparse-row (CSR) representation of an undirected
//! simple graph.
//!
//! Layout: per-vertex neighbor rows, each sorted by neighbor id, with a
//! parallel array mapping every directed arc to its undirected [`EdgeId`].
//! Edge endpoints are stored once, canonically ordered (`u < v`). This gives
//! `O(log d)` edge lookup without hashing, cache-friendly sequential
//! neighborhood scans, and dense per-edge side arrays for the truss engine.

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, VertexId};

/// An immutable undirected simple graph in CSR form.
///
/// Build one from any edge list (duplicates, self-loops and either endpoint
/// order are tolerated by the builder) and query it through typed ids:
///
/// ```
/// use ctc_graph::{graph_from_edges, CsrGraph, VertexId};
///
/// let g: CsrGraph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.neighbors(VertexId(2)), &[0, 1, 3]); // rows stay sorted
/// assert_eq!(g.degree(VertexId(2)), 3);
/// assert!(g.edge_between(VertexId(0), VertexId(3)).is_none());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is vertex `v`'s slice in `neighbors`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor rows (2m entries).
    neighbors: Vec<u32>,
    /// `arc_edge[i]` is the undirected edge id of the arc `neighbors[i]`.
    arc_edge: Vec<u32>,
    /// Canonical endpoints (`u < v`) indexed by [`EdgeId`].
    edges: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// Builds from an already sorted, deduplicated, canonicalized edge list
    /// (`u < v`, ascending). Use [`GraphBuilder`](crate::GraphBuilder) for
    /// arbitrary input.
    pub(crate) fn from_sorted_dedup_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let m = edges.len();
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * m];
        let mut arc_edge = vec![0u32; 2 * m];
        for (eid, &(u, v)) in edges.iter().enumerate() {
            let cu = cursor[u as usize] as usize;
            neighbors[cu] = v;
            arc_edge[cu] = eid as u32;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            neighbors[cv] = u;
            arc_edge[cv] = eid as u32;
            cursor[v as usize] += 1;
        }
        // Every row comes out sorted without a sort pass: for vertex `w`, the
        // arcs toward smaller neighbors arrive from edges `(u, w)` whose first
        // coordinate `u < w`, and the arcs toward larger neighbors from edges
        // `(w, x)` whose first coordinate is `w` — so in the globally sorted
        // scan all `u < w` arcs land first (ascending in `u`), then all
        // `x > w` arcs (ascending in `x`).
        debug_assert!((0..n).all(|v| {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        CsrGraph {
            offsets,
            neighbors,
            arc_edge,
            edges,
        }
    }

    /// Builds from filled neighbor rows (`offsets` has `n + 1` entries,
    /// every row strictly ascending, no self-loops, each edge in both of
    /// its endpoints' rows), numbering the edges canonically: `(u, v)`,
    /// `u < v`, ascending — the ids a sort of the whole edge list would
    /// give, paid for with one sweep instead of that sort.
    pub(crate) fn from_sorted_rows(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        let n = offsets.len() - 1;
        debug_assert!((0..n).all(|v| {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        let mut arc_edge = vec![0u32; neighbors.len()];
        let mut edges = Vec::with_capacity(neighbors.len() / 2);
        // `low[w]` is the slot of `w`'s next neighbor below `w`. The sweep
        // meets those neighbors in ascending order, which is their order in
        // the row, and by the time it reaches `u` itself, `low[u]` has moved
        // past them to the first neighbor above `u`.
        let mut low: Vec<u32> = offsets[..n].to_vec();
        for u in 0..n {
            for i in low[u] as usize..offsets[u + 1] as usize {
                let w = neighbors[i];
                debug_assert!(w as usize > u, "rows are sorted and symmetric");
                let e = edges.len() as u32;
                edges.push((u as u32, w));
                arc_edge[i] = e;
                let j = &mut low[w as usize];
                arc_edge[*j as usize] = e;
                *j += 1;
            }
        }
        CsrGraph {
            offsets,
            neighbors,
            arc_edge,
            edges,
        }
    }

    /// Builds from a canonical edge list (`u < v`, strictly ascending, all
    /// endpoints `< n`), validating those preconditions — the entry point
    /// for callers that maintain a canonical edge set themselves (the
    /// dynamic truss index) and need the exact edge-id assignment
    /// [`GraphBuilder`](crate::GraphBuilder) would produce, without paying
    /// its sort/dedup pass.
    ///
    /// Violations yield [`GraphError::Corrupt`] /
    /// [`GraphError::VertexOutOfRange`], never a panic.
    ///
    /// ```
    /// use ctc_graph::{CsrGraph, VertexId};
    ///
    /// let g = CsrGraph::from_canonical_edges(4, vec![(0, 1), (0, 2), (1, 2)]).unwrap();
    /// assert_eq!(g.num_edges(), 3);
    /// assert_eq!(g.neighbors(VertexId(0)), &[1, 2]);
    /// assert!(CsrGraph::from_canonical_edges(2, vec![(1, 0)]).is_err());
    /// ```
    pub fn from_canonical_edges(n: usize, edges: Vec<(u32, u32)>) -> Result<Self> {
        let mut prev: Option<(u32, u32)> = None;
        for &(u, v) in &edges {
            if u >= v {
                return Err(GraphError::Corrupt(format!(
                    "edge ({u},{v}) not canonical (u < v)"
                )));
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if prev.is_some_and(|p| p >= (u, v)) {
                return Err(GraphError::Corrupt(format!(
                    "edge list not strictly ascending at ({u},{v})"
                )));
            }
            prev = Some((u, v));
        }
        Ok(Self::from_sorted_dedup_edges(n, edges))
    }

    /// Reassembles a graph from its four raw CSR arrays, validating every
    /// structural invariant (used by the snapshot loader, where the arrays
    /// come from an untrusted file).
    ///
    /// The arrays must be exactly what [`CsrGraph::offsets_raw`],
    /// [`CsrGraph::neighbors_raw`], [`CsrGraph::arc_edges_raw`] and
    /// [`CsrGraph::edges`] would report for a well-formed graph: offsets
    /// monotone from `0` to `2m`, rows strictly sorted, edges canonical
    /// (`u < v`) in strictly ascending order, and every arc's edge id
    /// consistent with its endpoints. Any violation yields
    /// [`GraphError::Corrupt`], never a panic — validation runs in
    /// `O(n + m)`.
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        arc_edge: Vec<u32>,
        edges: Vec<(u32, u32)>,
    ) -> Result<Self> {
        let corrupt = |msg: String| GraphError::Corrupt(msg);
        if offsets.is_empty() {
            return Err(corrupt("offsets array is empty".into()));
        }
        let n = offsets.len() - 1;
        let m = edges.len();
        if neighbors.len() != 2 * m || arc_edge.len() != 2 * m {
            return Err(corrupt(format!(
                "arc arrays have {} / {} entries, want 2m = {}",
                neighbors.len(),
                arc_edge.len(),
                2 * m
            )));
        }
        if offsets[0] != 0 || offsets[n] as usize != 2 * m {
            return Err(corrupt(format!(
                "offsets span {}..{}, want 0..{}",
                offsets[0],
                offsets[n],
                2 * m
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("offsets not monotone".into()));
        }
        let mut prev: Option<(u32, u32)> = None;
        for &(u, v) in &edges {
            if u >= v {
                return Err(corrupt(format!("edge ({u},{v}) not canonical (u < v)")));
            }
            if v as usize >= n {
                return Err(corrupt(format!("edge ({u},{v}) out of range for n={n}")));
            }
            if prev.is_some_and(|p| p >= (u, v)) {
                return Err(corrupt(format!(
                    "edge list not strictly ascending at ({u},{v})"
                )));
            }
            prev = Some((u, v));
        }
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let row = &neighbors[lo..hi];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt(format!("neighbor row of {v} not strictly sorted")));
            }
            for (&nb, &ae) in row.iter().zip(&arc_edge[lo..hi]) {
                if nb as usize >= n {
                    return Err(corrupt(format!("neighbor {nb} out of range for n={n}")));
                }
                let (v, nb) = (v as u32, nb);
                let want = if v < nb { (v, nb) } else { (nb, v) };
                if edges.get(ae as usize) != Some(&want) {
                    return Err(corrupt(format!(
                        "arc ({v},{nb}) maps to edge id {ae}, which is {:?}",
                        edges.get(ae as usize)
                    )));
                }
            }
        }
        Ok(CsrGraph {
            offsets,
            neighbors,
            arc_edge,
            edges,
        })
    }

    /// The raw CSR offset array (`n + 1` entries, see the struct docs).
    #[inline]
    pub fn offsets_raw(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbor rows (`2m` entries).
    #[inline]
    pub fn neighbors_raw(&self) -> &[u32] {
        &self.neighbors
    }

    /// The raw arc → undirected-edge-id array, parallel to
    /// [`CsrGraph::neighbors_raw`].
    #[inline]
    pub fn arc_edges_raw(&self) -> &[u32] {
        &self.arc_edge
    }

    /// Number of vertices `n`.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(VertexId::from(v)))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from)
    }

    /// Sorted neighbor row of `v` as raw ids.
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Edge ids parallel to [`neighbors`](Self::neighbors).
    #[inline(always)]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[u32] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.arc_edge[lo..hi]
    }

    /// Iterator of `(neighbor, edge id)` pairs for `v`.
    #[inline]
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .zip(self.neighbor_edge_ids(v).iter())
            .map(|(&nb, &e)| (VertexId(nb), EdgeId(e)))
    }

    /// Canonical endpoints (`u < v`) of edge `e`.
    #[inline(always)]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let (u, v) = self.edges[e.index()];
        (VertexId(u), VertexId(v))
    }

    /// Iterator over all edges as `(EdgeId, u, v)` with `u < v`.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::from(i), VertexId(u), VertexId(v)))
    }

    /// Looks up the edge `{u, v}`, if present, via binary search in the
    /// smaller endpoint's row.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v || u.index() >= self.num_vertices() || v.index() >= self.num_vertices() {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let row = self.neighbors(a);
        let pos = row.binary_search(&b.0).ok()?;
        Some(EdgeId(self.neighbor_edge_ids(a)[pos]))
    }

    /// `true` if `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Approximate in-memory footprint in bytes (CSR arrays only).
    ///
    /// Used by the Table 3 experiment to report "graph size" the way the
    /// paper does (megabytes of the in-memory structure).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.neighbors.len() * 4
            + self.arc_edge.len() * 4
            + self.edges.len() * 8
    }

    /// Returns the given endpoint's opposite on edge `e`.
    ///
    /// Panics in debug builds if `x` is not an endpoint of `e`.
    #[inline(always)]
    pub fn other_endpoint(&self, e: EdgeId, x: VertexId) -> VertexId {
        let (u, v) = self.edges[e.index()];
        debug_assert!(
            x.0 == u || x.0 == v,
            "vertex {x} not an endpoint of edge {e}"
        );
        if x.0 == u {
            VertexId(v)
        } else {
            VertexId(u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn triangle() -> CsrGraph {
        graph_from_edges(&[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbor_rows_are_sorted() {
        let g = graph_from_edges(&[(0, 5), (0, 2), (0, 9), (0, 1)]);
        assert_eq!(g.neighbors(VertexId(0)), &[1, 2, 5, 9]);
        for v in g.vertices() {
            let row = g.neighbors(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {v} not sorted");
        }
    }

    #[test]
    fn arc_edge_ids_match_endpoints() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        for v in g.vertices() {
            for (nb, e) in g.incident(v) {
                let (a, b) = g.edge_endpoints(e);
                assert!(
                    (a == v && b == nb) || (a == nb && b == v),
                    "arc ({v},{nb}) mapped to edge {e} with endpoints ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn edge_between_both_directions() {
        let g = triangle();
        let e1 = g.edge_between(VertexId(0), VertexId(2));
        let e2 = g.edge_between(VertexId(2), VertexId(0));
        assert!(e1.is_some());
        assert_eq!(e1, e2);
        assert!(g.edge_between(VertexId(0), VertexId(0)).is_none());
    }

    #[test]
    fn edge_between_out_of_range_is_none() {
        let g = triangle();
        assert_eq!(g.edge_between(VertexId(0), VertexId(99)), None);
        assert_eq!(g.edge_between(VertexId(99), VertexId(0)), None);
    }

    #[test]
    fn other_endpoint_flips() {
        let g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(g.other_endpoint(e, VertexId(0)), VertexId(1));
        assert_eq!(g.other_endpoint(e, VertexId(1)), VertexId(0));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = graph_from_edges(&[(3, 1), (2, 0)]);
        for (_, u, v) in g.edges() {
            assert!(u < v);
        }
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (1, 4)]);
        let rebuilt = CsrGraph::from_raw_parts(
            g.offsets_raw().to_vec(),
            g.neighbors_raw().to_vec(),
            g.arc_edges_raw().to_vec(),
            g.edges().map(|(_, u, v)| (u.0, v.0)).collect(),
        )
        .unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn raw_parts_reject_inconsistencies() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let offsets = g.offsets_raw().to_vec();
        let neighbors = g.neighbors_raw().to_vec();
        let arcs = g.arc_edges_raw().to_vec();
        let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        // Empty offsets.
        assert!(CsrGraph::from_raw_parts(vec![], vec![], vec![], vec![]).is_err());
        // Arc arrays not 2m long.
        assert!(CsrGraph::from_raw_parts(
            offsets.clone(),
            neighbors[1..].to_vec(),
            arcs.clone(),
            edges.clone()
        )
        .is_err());
        // Non-monotone offsets.
        let mut bad = offsets.clone();
        bad[1] = 6;
        assert!(
            CsrGraph::from_raw_parts(bad, neighbors.clone(), arcs.clone(), edges.clone()).is_err()
        );
        // Non-canonical edge.
        let mut bad_edges = edges.clone();
        bad_edges[0] = (1, 0);
        assert!(CsrGraph::from_raw_parts(
            offsets.clone(),
            neighbors.clone(),
            arcs.clone(),
            bad_edges
        )
        .is_err());
        // Arc pointing at the wrong edge id.
        let mut bad_arcs = arcs.clone();
        bad_arcs.swap(0, 1);
        assert!(CsrGraph::from_raw_parts(
            offsets.clone(),
            neighbors.clone(),
            bad_arcs,
            edges.clone()
        )
        .is_err());
        // Unsorted row.
        let mut bad_nbrs = neighbors.clone();
        bad_nbrs.swap(0, 1);
        assert!(CsrGraph::from_raw_parts(offsets, bad_nbrs, arcs, edges).is_err());
    }

    #[test]
    fn memory_bytes_scales_with_m() {
        let small = triangle();
        let big = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
