//! Triangle-connected k-truss communities — the model of Huang et al.
//! SIGMOD'14 (the paper's reference \[17\]) that CTC is contrasted against.
//!
//! A k-truss community of a query vertex `q` is a maximal set of k-truss
//! edges reachable from an edge incident to `q` through *triangle
//! adjacency*: two edges are adjacent iff they share a triangle whose three
//! edges all have trussness ≥ k. Triangle connectivity is strictly stronger
//! than connectivity — the paper's introduction exploits exactly this to
//! motivate CTC (`Q = {v4, q3, p1}` in Figure 1 has no TCP community for
//! any k).

use crate::index::TrussIndex;
use ctc_graph::{for_each_common_neighbor, CsrGraph, EdgeId, VertexId};

/// One triangle-connected k-truss community.
#[derive(Clone, Debug)]
pub struct TcpCommunity {
    /// The trussness parameter the community was extracted at.
    pub k: u32,
    /// Edges of the community.
    pub edges: Vec<EdgeId>,
}

impl TcpCommunity {
    /// Vertices covered by the community.
    pub fn vertices(&self, g: &CsrGraph) -> Vec<VertexId> {
        crate::ktruss::edge_list_vertices(g, &self.edges)
    }
}

/// All k-truss communities containing the query vertex `q` at level `k`
/// (possibly several — the model finds overlapping communities).
pub fn tcp_communities(g: &CsrGraph, idx: &TrussIndex, q: VertexId, k: u32) -> Vec<TcpCommunity> {
    let mut visited = vec![false; g.num_edges()];
    let mut out = Vec::new();
    for (_, e, t) in idx.incident_at_least(q, k) {
        let _ = t;
        if visited[e.index()] {
            continue;
        }
        let mut comm = Vec::new();
        let mut stack = vec![e];
        visited[e.index()] = true;
        while let Some(cur) = stack.pop() {
            comm.push(cur);
            let (u, v) = g.edge_endpoints(cur);
            // Triangle adjacency: common neighbors w with both side edges
            // in the k-truss. The row merge hands back both side-edge ids
            // directly — no per-w allocation and no `edge_between` probes.
            for_each_common_neighbor(g, u, v, |_, euw, evw| {
                if idx.edge_truss(euw) >= k && idx.edge_truss(evw) >= k {
                    for f in [euw, evw] {
                        if !visited[f.index()] {
                            visited[f.index()] = true;
                            stack.push(f);
                        }
                    }
                }
            });
        }
        comm.sort_unstable();
        out.push(TcpCommunity { k, edges: comm });
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.edges.len()));
    out
}

/// `true` if some single triangle-connected k-truss community contains every
/// vertex of `q`, for some `k ≥ 3` — the feasibility question the paper's
/// introduction answers negatively for `Q = {v4, q3, p1}`.
pub fn tcp_feasible(g: &CsrGraph, idx: &TrussIndex, q: &[VertexId]) -> bool {
    let Some(&first) = q.first() else {
        return false;
    };
    let k_hi = q.iter().map(|&v| idx.vertex_truss(v)).min().unwrap_or(0);
    for k in (3..=k_hi).rev() {
        for comm in tcp_communities(g, idx, first, k) {
            let vs = comm.vertices(g);
            if q.iter().all(|v| vs.contains(v)) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_graph, Figure1Ids};
    use crate::index::TrussIndex;

    #[test]
    fn q3_has_two_overlapping_4truss_communities() {
        // §3.2: the K4s {q3,p1,p2,p3} and {q3,v3,v4,v5} are separate
        // triangle-connected communities of q3... they are also joined
        // through the grey 4-truss stitching; verify the count at k=4.
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let comms = tcp_communities(&g, &idx, f.q3, 4);
        assert!(!comms.is_empty());
        // The p-side K4 shares no triangle with the v-side edges, so q3 must
        // belong to at least 2 distinct triangle-connected communities.
        assert!(comms.len() >= 2, "got {} communities", comms.len());
        // Every community is internally a set of trussness-≥4 edges.
        for c in &comms {
            for &e in &c.edges {
                assert!(idx.edge_truss(e) >= 4);
            }
        }
    }

    #[test]
    fn intro_example_infeasible_query() {
        // Q = {v4, q3, p1}: no triangle-connected k-truss community covers
        // all three for any k ≥ 3 (edges (v4,q3) and (q3,p1) are not
        // triangle connected).
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        assert!(!tcp_feasible(&g, &idx, &[f.v4, f.q3, f.p1]));
        // Whereas {q1, q2} clearly is feasible (same K4).
        assert!(tcp_feasible(&g, &idx, &[f.q1, f.q2]));
    }

    #[test]
    fn k3_merges_more_than_k4() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let at4: usize = tcp_communities(&g, &idx, f.q3, 4)
            .iter()
            .map(|c| c.edges.len())
            .sum();
        let at2: usize = tcp_communities(&g, &idx, f.q3, 3)
            .iter()
            .map(|c| c.edges.len())
            .sum();
        assert!(at2 >= at4);
    }

    #[test]
    fn no_community_above_vertex_truss() {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        assert!(tcp_communities(&g, &idx, f.t, 3).is_empty());
        assert!(!tcp_communities(&g, &idx, f.t, 2).is_empty());
    }
}
