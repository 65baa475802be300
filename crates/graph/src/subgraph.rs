//! Subgraph extraction with id remapping.
//!
//! CTC search constantly narrows scope: `FindG0` yields an edge subset of
//! `G`, LCTC expands a Steiner tree into a local subgraph, and peeling
//! operates on the extracted piece. [`Subgraph`] packages the extracted
//! [`CsrGraph`] together with the mapping back to the parent's vertex ids.

use crate::csr::CsrGraph;
use crate::distfield::EpochMarks;
use crate::dynamic::DynGraph;
use crate::fx::FxHashMap;
use crate::heap::vec_heap_bytes;
use crate::ids::{EdgeId, VertexId};

/// A compact graph extracted from a parent, with its local ids mapped
/// back to the parent's.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph with dense local ids.
    pub graph: CsrGraph,
    /// `to_parent[local] = parent id`.
    pub to_parent: Vec<u32>,
}

impl Subgraph {
    /// Maps a parent vertex into this subgraph, if included: a scan of
    /// `to_parent`, O(n'). A search looks up only its query vertices.
    pub fn local(&self, parent: VertexId) -> Option<VertexId> {
        self.to_parent
            .iter()
            .position(|&p| p == parent.0)
            .map(VertexId::from)
    }

    /// Maps a local vertex back to the parent graph.
    #[inline]
    pub fn parent(&self, local: VertexId) -> VertexId {
        VertexId(self.to_parent[local.index()])
    }

    /// Maps a set of parent vertices to local ids; `None` if any is absent.
    pub fn locals(&self, parents: &[VertexId]) -> Option<Vec<VertexId>> {
        parents.iter().map(|&p| self.local(p)).collect()
    }

    /// Number of vertices in the extracted graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges in the extracted graph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// The subgraph on `vertices`, ascending distinct parent ids, whose edges
/// are `pairs` (parent-id endpoint pairs in any order; repeats and
/// self-loops are dropped). Local id `l` is `vertices[l]`, so the
/// numbering is canonical: two routes to the same vertex and edge sets
/// give byte-identical subgraphs, which is what lets the pooled peel
/// scratch in `ctc-core` recognize a repeated LCTC community and reuse its
/// cached support table.
///
/// # Panics
///
/// If a pair has an endpoint outside `vertices`.
pub fn ascending_subgraph(
    vertices: Vec<u32>,
    pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Subgraph {
    debug_assert!(
        vertices.windows(2).all(|w| w[0] < w[1]),
        "subgraph vertices must be ascending and distinct"
    );
    let local: FxHashMap<u32, u32> = vertices
        .iter()
        .enumerate()
        .map(|(l, &p)| (p, l as u32))
        .collect();
    let pairs = pairs.into_iter();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(pairs.size_hint().0);
    for (u, v) in pairs {
        if u == v {
            continue;
        }
        let (a, b) = (local[&u.0], local[&v.0]);
        edges.push(if a < b { (a, b) } else { (b, a) });
    }
    // The renumbering is monotone, so pairs handed over in ascending
    // canonical order (the induced and alive copies') map to a sorted,
    // duplicate-free list and skip the sort.
    if !edges.windows(2).all(|w| w[0] < w[1]) {
        edges.sort_unstable();
        edges.dedup();
    }
    Subgraph {
        graph: CsrGraph::from_sorted_dedup_edges(vertices.len(), edges),
        to_parent: vertices,
    }
}

/// Extracts the subgraph of `g` induced by `vertices` (any order, repeats
/// allowed), with local ids in ascending parent id order.
///
/// Keeps every edge of `g` whose endpoints are both in `vertices`.
pub fn induced_subgraph(g: &CsrGraph, vertices: &[VertexId]) -> Subgraph {
    let mut members: Vec<u32> = vertices.iter().map(|v| v.0).collect();
    members.sort_unstable();
    members.dedup();
    let mut pairs = Vec::new();
    for &pu in &members {
        for &pv in g.neighbors(VertexId(pu)) {
            // Each edge once, from its smaller endpoint.
            if pv > pu && members.binary_search(&pv).is_ok() {
                pairs.push((VertexId(pu), VertexId(pv)));
            }
        }
    }
    ascending_subgraph(members, pairs)
}

/// Extracts the subgraph of `g` consisting of exactly the given edges
/// (vertices are the union of their endpoints), with local ids in order of
/// discovery: each edge's endpoints in turn, the first time they appear.
/// The edges must be distinct.
pub fn edge_subgraph(g: &CsrGraph, edges: &[EdgeId]) -> Subgraph {
    edge_subgraph_with(g, edges, &mut SubgraphScratch::new())
}

/// Pooled state for [`edge_subgraph_with`]: a parent→local id array with
/// one epoch-stamped slot per parent vertex, so arming a call costs O(1)
/// rather than O(n).
#[derive(Clone, Debug, Default)]
pub struct SubgraphScratch {
    local: Vec<u32>,
    seen: EpochMarks,
}

impl SubgraphScratch {
    /// An empty scratch; it grows to the parent graph on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.local) + self.seen.heap_bytes()
    }
}

/// [`edge_subgraph`] over a pooled parent→local array, which is the only
/// id map the copy needs: it builds no hash map and sorts no edge list.
///
/// Rows are filled from degree counts and each is sorted on its own (rows
/// are short; the edge list is not), then one sweep in local order
/// numbers the edges canonically, which is the numbering a sort of the
/// local endpoint pairs gives.
pub fn edge_subgraph_with(
    g: &CsrGraph,
    edges: &[EdgeId],
    scratch: &mut SubgraphScratch,
) -> Subgraph {
    let SubgraphScratch { local, seen } = scratch;
    let parents = g.num_vertices();
    if local.len() < parents {
        local.resize(parents, 0);
    }
    seen.ensure(parents);
    seen.clear();
    // Local ids in discovery order; `offsets[l + 1]` counts l's degree.
    let mut to_parent: Vec<u32> = Vec::new();
    let mut offsets: Vec<u32> = vec![0];
    for &e in edges {
        let (u, v) = g.edge_endpoints(e);
        for p in [u.index(), v.index()] {
            if seen.insert(p) {
                local[p] = to_parent.len() as u32;
                to_parent.push(p as u32);
                offsets.push(0);
            }
            offsets[local[p] as usize + 1] += 1;
        }
    }
    let n = to_parent.len();
    for l in 0..n {
        offsets[l + 1] += offsets[l];
    }
    let mut fill: Vec<u32> = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; 2 * edges.len()];
    for &e in edges {
        let (u, v) = g.edge_endpoints(e);
        let (lu, lv) = (local[u.index()] as usize, local[v.index()] as usize);
        neighbors[fill[lu] as usize] = lv as u32;
        fill[lu] += 1;
        neighbors[fill[lv] as usize] = lu as u32;
        fill[lv] += 1;
    }
    drop(fill);
    for l in 0..n {
        neighbors[offsets[l] as usize..offsets[l + 1] as usize].sort_unstable();
    }
    Subgraph {
        graph: CsrGraph::from_sorted_rows(offsets, neighbors),
        to_parent,
    }
}

/// Builds a subgraph from explicit parent-id endpoint pairs (LCTC's `Ht`)
/// on the union of their endpoints, numbered in ascending parent id order
/// by [`ascending_subgraph`], independent of the pairs' order.
pub fn subgraph_from_pairs(pairs: &[(VertexId, VertexId)]) -> Subgraph {
    let mut vertices: Vec<u32> = pairs.iter().flat_map(|&(u, v)| [u.0, v.0]).collect();
    vertices.sort_unstable();
    vertices.dedup();
    ascending_subgraph(vertices, pairs.iter().copied())
}

/// Materializes the alive part of a [`DynGraph`] as a standalone subgraph,
/// with local ids in ascending parent id order.
pub fn alive_subgraph(d: &DynGraph<'_>) -> Subgraph {
    let vertices = d.alive_vertices().map(|v| v.0).collect();
    ascending_subgraph(vertices, d.alive_edges().map(|(_, u, v)| (u, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn sample() -> CsrGraph {
        // Two triangles sharing vertex 2, plus a pendant.
        graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = sample();
        let s = induced_subgraph(&g, &[VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 4); // (0,1),(1,2),(0,2),(2,3); (3,4) excluded
        let l2 = s.local(VertexId(2)).unwrap();
        assert_eq!(s.parent(l2), VertexId(2));
        assert!(s.local(VertexId(5)).is_none());
    }

    #[test]
    fn induced_dedups_input_vertices() {
        let g = sample();
        let s = induced_subgraph(&g, &[VertexId(0), VertexId(1), VertexId(0)]);
        assert_eq!(s.num_vertices(), 2);
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    fn edge_subgraph_takes_exact_edges() {
        let g = sample();
        let e01 = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let e24 = g.edge_between(VertexId(2), VertexId(4)).unwrap();
        let s = edge_subgraph(&g, &[e01, e24]);
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 2);
        // Edge (0,2) exists in parent but was not selected.
        let l0 = s.local(VertexId(0)).unwrap();
        let l2 = s.local(VertexId(2)).unwrap();
        assert!(!s.graph.has_edge(l0, l2));
    }

    #[test]
    fn alive_subgraph_reflects_deletions() {
        let g = sample();
        let mut d = DynGraph::new(&g);
        d.remove_vertex(VertexId(5));
        d.remove_edge(g.edge_between(VertexId(2), VertexId(3)).unwrap());
        let s = alive_subgraph(&d);
        assert_eq!(s.num_vertices(), 5);
        assert_eq!(s.num_edges(), 5);
        let l2 = s.local(VertexId(2)).unwrap();
        let l3 = s.local(VertexId(3)).unwrap();
        assert!(!s.graph.has_edge(l2, l3));
    }

    #[test]
    fn roundtrip_mappings() {
        let g = sample();
        let verts = [VertexId(2), VertexId(4), VertexId(5)];
        let s = induced_subgraph(&g, &verts);
        let locals = s.locals(&verts).unwrap();
        let back: Vec<VertexId> = locals.iter().map(|&l| s.parent(l)).collect();
        assert_eq!(back, verts.to_vec());
    }
}
