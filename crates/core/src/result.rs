//! Community result types returned by every search algorithm.

use ctc_graph::{
    ascending_subgraph, diameter_exact, edge_density, induced_subgraph, BfsScratch, CsrGraph,
    EdgeId, Subgraph, VertexId,
};
use std::time::Duration;

/// Per-phase wall-clock timings of a search.
///
/// The three named phases partition the total exactly:
/// `locate + peel + finish == total`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time to locate `G0` (Algorithm 2) or build `Gt` (LCTC Steiner +
    /// expansion + local decomposition).
    pub locate: Duration,
    /// Time spent in the peeling loop (distance computation + maintenance).
    pub peel: Duration,
    /// Everything after the peel: assembling the result, mapping local ids
    /// back to the parent graph, final bookkeeping. Defined as
    /// `total − locate − peel` so the phases always sum to the total.
    pub finish: Duration,
    /// End-to-end time.
    pub total: Duration,
}

impl PhaseTimings {
    /// Builds timings from the two measured phases and the end-to-end
    /// total, assigning the residual to `finish`.
    pub fn with_residual(locate: Duration, peel: Duration, total: Duration) -> Self {
        PhaseTimings {
            locate,
            peel,
            finish: total.saturating_sub(locate).saturating_sub(peel),
            total,
        }
    }
}

/// A community returned by Basic / BulkDelete / LCTC / the Truss baseline.
///
/// Vertex ids refer to the *original* input graph.
#[derive(Clone, Debug)]
pub struct Community {
    /// Trussness `k` of the community (matches `τ̄(Q)` for the exact
    /// algorithms; LCTC may return less, see Fig. 13(b)).
    pub k: u32,
    /// Community vertices (original graph ids, ascending).
    pub vertices: Vec<VertexId>,
    /// Community edges as original-id vertex pairs (`u < v`).
    pub edges: Vec<(VertexId, VertexId)>,
    /// Query distance `dist_R(R, Q)` measured inside the community.
    pub query_distance: u32,
    /// Number of peeling iterations executed.
    pub iterations: usize,
    /// Size (vertices, edges) of the starting graph `G0` — the denominator
    /// of the paper's "kept %" free-rider metric.
    pub g0_size: (usize, usize),
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl Community {
    /// Number of community vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of community edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge density `2m / (n(n−1))` — the "(c) Density" series of the
    /// experiment figures.
    pub fn density(&self) -> f64 {
        edge_density(self.vertices.len(), self.edges.len())
    }

    /// Fraction of `G0`'s vertices kept — the "(b) percentage" series; lower
    /// means more free riders removed.
    pub fn kept_fraction(&self) -> f64 {
        if self.g0_size.0 == 0 {
            return 1.0;
        }
        self.vertices.len() as f64 / self.g0_size.0 as f64
    }

    /// Materializes the community as a standalone graph.
    ///
    /// The community's own edge list is used (not the induced subgraph of
    /// the parent: peeling may have removed edges whose endpoints survive).
    pub fn subgraph(&self) -> Subgraph {
        let vertices = self.vertices.iter().map(|v| v.0).collect();
        ascending_subgraph(vertices, self.edges.iter().copied())
    }

    /// Exact diameter of the community (all-pairs BFS over its subgraph).
    pub fn diameter(&self) -> u32 {
        diameter_exact(&self.subgraph().graph)
    }

    /// `true` if every query vertex is a member.
    pub fn contains_query(&self, q: &[VertexId]) -> bool {
        q.iter().all(|v| self.vertices.binary_search(v).is_ok())
    }

    /// Validates the structural contract: connected, contains `Q`, and every
    /// edge has support ≥ `k − 2` inside the community. Returns a
    /// description of the first violation (an edge is named by its rank in
    /// the ascending list of the community's edges).
    ///
    /// Members get local ids by binary search over the ascending
    /// `vertices`, and each edge's support is a merge of two sorted rows
    /// that stops at `k − 2` common neighbors, so a call holds the rows and
    /// little else. An edge with an endpoint outside `vertices` is reported
    /// as a violation.
    pub fn validate(&self, q: &[VertexId]) -> Result<(), String> {
        if !self.contains_query(q) {
            return Err("community does not contain all query vertices".into());
        }
        let rows = MemberRows::new(self)?;
        if !rows.is_connected() {
            return Err("community is not connected".into());
        }
        if let Some(e) = rows.first_edge_below(self.k.saturating_sub(2)) {
            return Err(format!("edge {e} violates the {}-truss condition", self.k));
        }
        Ok(())
    }
}

/// A community's adjacency in member-local ids (ranks in the ascending
/// `vertices`): sorted, duplicate-free rows and nothing else, which is all
/// [`Community::validate`] reads.
struct MemberRows {
    /// `offsets[v]..offsets[v + 1]` is local vertex `v`'s row in `nbrs`.
    offsets: Vec<u32>,
    nbrs: Vec<u32>,
}

impl MemberRows {
    fn new(c: &Community) -> Result<Self, String> {
        let local = |v: VertexId| {
            c.vertices
                .binary_search(&v)
                .map_err(|_| format!("edge endpoint {v} is not a community vertex"))
        };
        let n = c.vertices.len();
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &c.edges {
            if u != v {
                offsets[local(u)? + 1] += 1;
                offsets[local(v)? + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut nbrs = vec![0u32; offsets[n] as usize];
        for &(u, v) in &c.edges {
            if u != v {
                let (a, b) = (local(u)?, local(v)?);
                nbrs[fill[a] as usize] = b as u32;
                fill[a] += 1;
                nbrs[fill[b] as usize] = a as u32;
                fill[b] += 1;
            }
        }
        // Sort each row and squeeze out repeated edges in place; a row
        // never moves right, so the compaction cannot overwrite a row it
        // has yet to read.
        let mut kept = 0;
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            nbrs[lo..hi].sort_unstable();
            offsets[v] = kept as u32;
            for i in lo..hi {
                if i == lo || nbrs[i] != nbrs[i - 1] {
                    nbrs[kept] = nbrs[i];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u32;
        nbrs.truncate(kept);
        Ok(MemberRows { offsets, nbrs })
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.nbrs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// `true` if the members form one component (vacuously for ≤ 1).
    fn is_connected(&self) -> bool {
        let n = self.offsets.len() - 1;
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = vec![0u32];
        seen[0] = true;
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &w in self.row(v as usize) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    queue.push(w);
                }
            }
        }
        queue.len() == n
    }

    /// The rank, among all edges `(u, v)`, `u < v`, in ascending order, of
    /// the first edge with fewer than `need` common neighbors.
    fn first_edge_below(&self, need: u32) -> Option<EdgeId> {
        if need == 0 {
            return None;
        }
        let mut rank = 0usize;
        for u in 0..self.offsets.len() - 1 {
            let ru = self.row(u);
            for &v in ru.iter().filter(|&&v| v as usize > u) {
                if common_at_least(ru, self.row(v as usize), need) {
                    rank += 1;
                } else {
                    return Some(EdgeId::from(rank));
                }
            }
        }
        None
    }
}

/// `true` once two sorted rows share `need` entries; stops there.
fn common_at_least(a: &[u32], b: &[u32], need: u32) -> bool {
    let (mut i, mut j, mut found) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                found += 1;
                if found == need {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

/// Builds a [`Community`] from a parent graph and a set of parent-vertex
/// ids, taking the full induced subgraph (used by baselines and the Truss
/// baseline where the community is induced by construction).
pub fn community_from_induced(
    g: &CsrGraph,
    k: u32,
    vertices: Vec<VertexId>,
    q: &[VertexId],
    g0_size: (usize, usize),
    iterations: usize,
    timings: PhaseTimings,
) -> Community {
    // Local ids ascend with parent ids, so the members come out ascending
    // and deduplicated, and each edge's endpoints in order.
    let sub = induced_subgraph(g, &vertices);
    let edges = sub
        .graph
        .edges()
        .map(|(_, u, v)| (sub.parent(u), sub.parent(v)))
        .collect();
    let ql: Vec<VertexId> = q.iter().filter_map(|&v| sub.local(v)).collect();
    let mut scratch = BfsScratch::new(sub.num_vertices());
    let qd = ctc_graph::graph_query_distance(&sub.graph, &ql, &mut scratch);
    Community {
        k,
        vertices: sub.to_parent.iter().map(|&p| VertexId(p)).collect(),
        edges,
        query_distance: qd,
        iterations,
        g0_size,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::graph_from_edges;

    fn k4_community() -> Community {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        community_from_induced(
            &g,
            4,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)],
            &[VertexId(0)],
            (4, 6),
            0,
            PhaseTimings::default(),
        )
    }

    #[test]
    fn basic_accessors() {
        let c = k4_community();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 6);
        assert!((c.density() - 1.0).abs() < 1e-12);
        assert_eq!(c.kept_fraction(), 1.0);
        assert_eq!(c.diameter(), 1);
        assert!(c.contains_query(&[VertexId(0)]));
        assert!(!c.contains_query(&[VertexId(9)]));
    }

    #[test]
    fn validate_catches_violations() {
        let c = k4_community();
        assert!(c.validate(&[VertexId(0)]).is_ok());
        let mut broken = c.clone();
        broken.k = 5;
        assert!(broken.validate(&[VertexId(0)]).is_err());
        let mut missing = c;
        missing.vertices.retain(|&v| v != VertexId(0));
        assert!(missing.validate(&[VertexId(0)]).is_err());
    }

    /// `validate` as it was: a hash-mapped copy of the community and a
    /// whole-graph support count. The oracle for the lean version.
    fn validate_oracle(c: &Community, q: &[VertexId]) -> Result<(), String> {
        if !c.contains_query(q) {
            return Err("community does not contain all query vertices".into());
        }
        let sub = c.subgraph();
        if !ctc_graph::is_connected(&sub.graph) {
            return Err("community is not connected".into());
        }
        let sup = ctc_graph::edge_supports(&sub.graph);
        if let Some((e, _, _)) = sub
            .graph
            .edges()
            .find(|&(e, _, _)| sup[e.index()] + 2 < c.k)
        {
            return Err(format!("edge {e} violates the {}-truss condition", c.k));
        }
        Ok(())
    }

    /// Corruptions of a valid community that keep `vertices` ascending
    /// and every edge endpoint a member, with the query they check against.
    fn corruptions(c: &Community, q: &[VertexId], pick: usize) -> Vec<Community> {
        let mut out = Vec::new();
        let mut raised = c.clone();
        raised.k += 1;
        out.push(raised);
        if !c.edges.is_empty() {
            let e = pick % c.edges.len();
            let mut dropped = c.clone();
            dropped.edges.remove(e);
            out.push(dropped);
            let mut repeated = c.clone();
            let (u, v) = c.edges[e];
            repeated.edges.push((v, u));
            out.push(repeated);
            let mut self_loop = c.clone();
            self_loop.edges.push((u, u));
            out.push(self_loop);
        }
        for &gone in [c.vertices[pick % c.vertices.len()], q[0]].iter() {
            let mut cut = c.clone();
            cut.vertices.retain(|&v| v != gone);
            cut.edges.retain(|&(a, b)| a != gone && b != gone);
            out.push(cut);
        }
        let mut isolated = c.clone();
        let spare = VertexId(c.vertices.last().unwrap().0 + 1);
        isolated.vertices.push(spare);
        out.push(isolated);
        if c.vertices.len() >= 3 {
            // A chord between two members, often a new edge.
            let mut chord = c.clone();
            let (a, b) = (c.vertices[0], c.vertices[c.vertices.len() / 2]);
            chord.edges.push((a, b));
            out.push(chord);
        }
        out
    }

    #[test]
    fn lean_validate_matches_the_oracle() {
        use crate::{CtcConfig, CtcSearcher, SearchAlgo};
        use ctc_gen::planted::{planted_partition, PlantedConfig};
        use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
        let mut graphs = vec![ctc_truss::fixtures::figure1_graph()];
        for seed in 0..4u64 {
            graphs.push(erdos_renyi_nm(40 + 10 * seed as usize, 200, seed));
            graphs.push(barabasi_albert(50, 4, seed));
            graphs.push(
                planted_partition(&PlantedConfig {
                    community_sizes: vec![12, 15, 10],
                    background_vertices: 5,
                    p_in: 0.55,
                    noise_edges_per_vertex: 1.0,
                    seed,
                })
                .graph,
            );
        }
        let algos = [
            SearchAlgo::Basic,
            SearchAlgo::BulkDelete,
            SearchAlgo::Local,
            SearchAlgo::TrussOnly,
        ];
        let (mut checked, mut rejected) = (0, 0);
        for (i, g) in graphs.iter().enumerate() {
            let s = CtcSearcher::new(g);
            let n = g.num_vertices() as u32;
            for j in 0..6u32 {
                let q: Vec<VertexId> = (0..1 + j % 3)
                    .map(|t| VertexId((i as u32 * 31 + j * 17 + t * 7) % n))
                    .collect();
                for algo in algos {
                    let Ok(c) =
                        s.search_with(&q, algo, &CtcConfig::default(), &mut Default::default())
                    else {
                        continue;
                    };
                    assert_eq!(c.validate(&q), Ok(()), "{algo:?} answer on graph {i}");
                    assert_eq!(validate_oracle(&c, &q), Ok(()));
                    for bad in corruptions(&c, &q, i + j as usize) {
                        let got = bad.validate(&q);
                        assert_eq!(got, validate_oracle(&bad, &q), "graph {i}, q {q:?}");
                        rejected += got.is_err() as usize;
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 200 && rejected > checked / 4,
            "{rejected} of {checked}"
        );
    }

    #[test]
    fn validate_reports_a_foreign_endpoint() {
        let mut c = k4_community();
        c.edges.push((VertexId(0), VertexId(9)));
        assert!(c
            .validate(&[VertexId(0)])
            .unwrap_err()
            .contains("not a community"));
    }

    #[test]
    fn subgraph_uses_own_edges_not_induced() {
        // Community that lost edge (0,1) during peeling: subgraph must not
        // resurrect it.
        let c = Community {
            k: 2,
            vertices: vec![VertexId(0), VertexId(1), VertexId(2)],
            edges: vec![(VertexId(0), VertexId(2)), (VertexId(1), VertexId(2))],
            query_distance: 2,
            iterations: 1,
            g0_size: (3, 3),
            timings: PhaseTimings::default(),
        };
        let sub = c.subgraph();
        assert_eq!(sub.num_edges(), 2);
        let l0 = sub.local(VertexId(0)).unwrap();
        let l1 = sub.local(VertexId(1)).unwrap();
        assert!(!sub.graph.has_edge(l0, l1));
    }
}
