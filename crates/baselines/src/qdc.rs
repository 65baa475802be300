//! QDC — query-biased densest connected subgraph (Wu et al., PVLDB'15, the
//! paper's reference 32), reimplemented as RWR-weighted greedy peeling.
//!
//! Node relevance comes from a random walk with restart at the query
//! vertices; each vertex costs `1 / r(v)` (irrelevant vertices are
//! expensive) and the objective is the query-biased density
//! `ρ(S) = |E(S)| / Σ_{v∈S} cost(v)`. Charikar-style peeling removes the
//! vertex with the worst degree-to-relevance ratio and keeps the best
//! snapshot; the answer is the component of that snapshot containing the
//! query (the original QDC can split off the query — the failure mode the
//! CTC paper points out; we surface it the same way by falling back to the
//! query's component).

use ctc_core::{community_from_induced, Community, PhaseTimings};
use ctc_graph::error::{GraphError, Result};
use ctc_graph::{
    connected_components, induced_subgraph, personalized_pagerank, CsrGraph, PageRankOptions,
    VertexId,
};
use std::time::Instant;

/// QDC parameters.
#[derive(Clone, Debug)]
pub struct QdcConfig {
    /// Random-walk restart probability.
    pub restart: f64,
    /// Power-iteration cap for the RWR scores (kept low: scores only need
    /// to rank vertices).
    pub rwr_iterations: usize,
    /// `false` (default): faithful to the original QDC — return the best-
    /// density snapshot and fail if it splits the query across components
    /// (the weakness the CTC paper highlights, §7.2). `true`: restrict the
    /// snapshot choice to query-connected ones (a strictly safer variant).
    pub enforce_query_connectivity: bool,
}

impl Default for QdcConfig {
    fn default() -> Self {
        QdcConfig {
            restart: 0.15,
            rwr_iterations: 40,
            enforce_query_connectivity: false,
        }
    }
}

/// Runs QDC for query `q` on `g`.
///
/// ```
/// use ctc_baselines::{qdc, QdcConfig};
/// use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
///
/// let g = figure1_graph();
/// let f = Figure1Ids::default();
/// let cfg = QdcConfig { enforce_query_connectivity: true, ..QdcConfig::default() };
/// let c = qdc(&g, &[f.q1], &cfg).unwrap();
/// assert!(c.vertices.contains(&f.q1));
/// assert!(c.density() > 0.0);
/// ```
pub fn qdc(g: &CsrGraph, q: &[VertexId], cfg: &QdcConfig) -> Result<Community> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t0 = Instant::now();
    if q.is_empty() {
        return Err(GraphError::EmptyQuery);
    }
    let n = g.num_vertices();
    let r = personalized_pagerank(
        g,
        q,
        PageRankOptions {
            restart: cfg.restart,
            tolerance: 1e-12,
            max_iterations: cfg.rwr_iterations,
        },
    );
    // cost(v) = 1 / max(r(v), floor); floor keeps far vertices finite.
    let floor = 1e-12;
    let cost: Vec<f64> = r.iter().map(|&x| 1.0 / x.max(floor)).collect();
    let mut degree: Vec<i64> = (0..n).map(|v| g.degree(VertexId::from(v)) as i64).collect();
    let mut removed = vec![false; n];
    let mut is_query = vec![false; n];
    for &v in q {
        is_query[v.index()] = true;
    }
    // Peeling priority: degree(v) * r(v) ascending — low-degree, low-
    // relevance vertices go first. (Scaled to u64 for heap ordering.)
    let score = |deg: i64, v: usize| -> u64 {
        let s = deg as f64 * r[v].max(floor) * 1e12;
        s.min(u64::MAX as f64 / 2.0) as u64
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..n as u32)
        .filter(|&v| !is_query[v as usize])
        .map(|v| Reverse((score(degree[v as usize], v as usize), v)))
        .collect();
    let mut live_edges = g.num_edges() as i64;
    let mut live_cost: f64 = cost.iter().sum();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut densities: Vec<f64> = vec![live_edges as f64 / live_cost.max(floor)];
    while let Some(Reverse((s, v))) = heap.pop() {
        if removed[v as usize] || s != score(degree[v as usize], v as usize) {
            continue;
        }
        removed[v as usize] = true;
        order.push(v);
        live_edges -= degree[v as usize];
        live_cost -= cost[v as usize];
        for &nb in g.neighbors(VertexId(v)) {
            if !removed[nb as usize] {
                degree[nb as usize] -= 1;
                if !is_query[nb as usize] {
                    heap.push(Reverse((score(degree[nb as usize], nb as usize), nb)));
                }
            }
        }
        densities.push(live_edges as f64 / live_cost.max(floor));
    }
    // Query connectivity only degrades as vertices are peeled (query
    // vertices themselves are never removed), so the last query-connected
    // snapshot t* is found by binary search; the answer is the densest
    // snapshot no later than t*. The original QDC can return the densest
    // snapshot outright and split the query — the failure mode the CTC
    // paper highlights — we keep the query by construction.
    let snapshot_connected = |t: usize| -> bool {
        let mut alive = vec![true; n];
        for &v in &order[..t] {
            alive[v as usize] = false;
        }
        let keep: Vec<VertexId> = (0..n)
            .map(VertexId::from)
            .filter(|&v| alive[v.index()])
            .collect();
        let sub = induced_subgraph(g, &keep);
        let Some(ql) = sub.locals(q) else {
            return false;
        };
        let mut scratch = ctc_graph::BfsScratch::new(sub.num_vertices());
        ctc_graph::query_connected(&sub.graph, &ql, &mut scratch)
    };
    if !snapshot_connected(0) {
        return Err(GraphError::Disconnected);
    }
    let t_star = if cfg.enforce_query_connectivity {
        let (mut lo, mut hi) = (0usize, order.len());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if snapshot_connected(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    } else {
        order.len() // original QDC: any snapshot is admissible
    };
    let best_t = (0..=t_star)
        .max_by(|&a, &b| {
            densities[a]
                .partial_cmp(&densities[b])
                .expect("finite densities")
        })
        .unwrap_or(0);
    let mut alive = vec![true; n];
    for &v in &order[..best_t] {
        alive[v as usize] = false;
    }
    let keep: Vec<VertexId> = (0..n)
        .map(VertexId::from)
        .filter(|&v| alive[v.index()])
        .collect();
    let sub = induced_subgraph(g, &keep);
    // Keep the query's component (the snapshot may contain stray pieces).
    let (labels, _) = connected_components(&sub.graph);
    let q0 = sub.local(q[0]).ok_or(GraphError::Disconnected)?;
    let target = labels[q0.index()];
    let vertices: Vec<VertexId> = sub
        .graph
        .vertices()
        .filter(|&v| labels[v.index()] == target)
        .map(|v| sub.parent(v))
        .collect();
    let community = community_from_induced(
        g,
        2,
        vertices,
        q,
        (g.num_vertices(), g.num_edges()),
        best_t,
        PhaseTimings::with_residual(t0.elapsed(), Default::default(), t0.elapsed()),
    );
    if !community.contains_query(q) {
        return Err(GraphError::Disconnected);
    }
    Ok(community)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::graph_from_edges;

    /// Two K4s joined by a path; query in the left K4.
    fn barbell() -> CsrGraph {
        graph_from_edges(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (6, 8),
            (6, 9),
            (7, 8),
            (7, 9),
            (8, 9),
        ])
    }

    #[test]
    fn stays_near_the_query() {
        let g = barbell();
        let c = qdc(&g, &[VertexId(0)], &QdcConfig::default()).unwrap();
        assert!(c.contains_query(&[VertexId(0)]));
        // The far K4 should not be included: its relevance is tiny.
        assert!(
            !c.vertices.contains(&VertexId(9)),
            "far clique leaked into the community: {:?}",
            c.vertices
        );
    }

    #[test]
    fn community_is_connected() {
        let g = barbell();
        let c = qdc(&g, &[VertexId(0), VertexId(2)], &QdcConfig::default()).unwrap();
        c.validate(&[VertexId(0), VertexId(2)]).unwrap();
    }

    #[test]
    fn dense_neighborhood_beats_sparse_tail() {
        let g = barbell();
        let c = qdc(&g, &[VertexId(1)], &QdcConfig::default()).unwrap();
        // The K4 around the query should survive.
        for v in [0u32, 2, 3] {
            assert!(c.vertices.contains(&VertexId(v)), "missing K4 member {v}");
        }
    }

    #[test]
    fn empty_query_errors() {
        let g = barbell();
        assert_eq!(
            qdc(&g, &[], &QdcConfig::default()).unwrap_err(),
            GraphError::EmptyQuery
        );
    }

    #[test]
    fn safe_mode_spanning_query_keeps_path() {
        let g = barbell();
        let cfg = QdcConfig {
            enforce_query_connectivity: true,
            ..Default::default()
        };
        let c = qdc(&g, &[VertexId(0), VertexId(9)], &cfg).unwrap();
        assert!(c.contains_query(&[VertexId(0), VertexId(9)]));
        // Must include the connecting path.
        assert!(c.vertices.contains(&VertexId(4)));
        assert!(c.vertices.contains(&VertexId(5)));
    }

    #[test]
    fn original_mode_can_split_spanning_query() {
        // The densest snapshot on the barbell drops the path, splitting the
        // query across the two cliques — the paper's documented QDC failure
        // mode. Faithful behavior: an error (counted as F1 = 0 in Exp-3).
        let g = barbell();
        let r = qdc(&g, &[VertexId(0), VertexId(9)], &QdcConfig::default());
        match r {
            Err(GraphError::Disconnected) => {}
            Ok(c) => {
                // If the peel happened to keep the path, the result must at
                // least be a valid community.
                c.validate(&[VertexId(0), VertexId(9)]).unwrap();
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
