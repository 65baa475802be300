//! Whole-graph and per-community summary statistics.
//!
//! Backs Table 2 (network statistics) and the density/size series of the
//! experiment figures.

use crate::csr::CsrGraph;
use crate::ids::VertexId;
use crate::triangles::edge_supports;

/// Summary statistics of a network, in the shape of the paper's Table 2.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Mean degree `2m / n`.
    pub avg_degree: f64,
    /// Edge density `2m / (n (n-1))`.
    pub density: f64,
    /// Number of triangles.
    pub triangles: u64,
    /// Average local clustering coefficient.
    pub avg_clustering: f64,
}

/// Computes [`GraphStats`] for `g`, counting the supports once for both
/// the triangles (`Σ sup / 3`) and the clustering.
pub fn graph_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_vertices();
    let m = g.num_edges();
    let sup = edge_supports(g);
    GraphStats {
        num_vertices: n,
        num_edges: m,
        max_degree: g.max_degree(),
        avg_degree: if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        },
        density: edge_density(n, m),
        triangles: sup.iter().map(|&s| u64::from(s)).sum::<u64>() / 3,
        avg_clustering: clustering_from_supports(g, &sup),
    }
}

/// Edge density `2m / (n(n-1))` — the community quality metric used in the
/// figures ("(c) Density" panels).
pub fn edge_density(n: usize, m: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    2.0 * m as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Local clustering coefficient of one vertex.
pub fn local_clustering(g: &CsrGraph, v: VertexId) -> f64 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0u64;
    let row = g.neighbors(v);
    for (i, &a) in row.iter().enumerate() {
        for &b in &row[i + 1..] {
            if g.has_edge(VertexId(a), VertexId(b)) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d as f64 * (d as f64 - 1.0))
}

/// Mean of local clustering coefficients over all vertices.
pub fn average_clustering(g: &CsrGraph) -> f64 {
    clustering_from_supports(g, &edge_supports(g))
}

/// [`average_clustering`] from `g`'s edge supports `sup`: counting closed
/// wedges per vertex off the support array avoids the quadratic neighbor
/// scan on hubs.
fn clustering_from_supports(g: &CsrGraph, sup: &[u32]) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut closed_at = vec![0u64; n];
    for (e, u, v) in g.edges() {
        // Each triangle over edge (u,v) contributes a closed wedge at the
        // apex w; accumulate instead at u and v: every triangle {a,b,c}
        // contributes one closed wedge at each corner, and summing sup over
        // the 3 edges hits each corner exactly twice.
        closed_at[u.index()] += sup[e.index()] as u64;
        closed_at[v.index()] += sup[e.index()] as u64;
    }
    let mut acc = 0.0f64;
    for (v, &closed_twice) in closed_at.iter().enumerate() {
        let d = g.degree(VertexId::from(v));
        if d < 2 {
            continue;
        }
        let wedges = d as f64 * (d as f64 - 1.0) / 2.0;
        // closed_at[v] counted each triangle at v twice (once per incident
        // triangle edge at v).
        let closed = closed_twice as f64 / 2.0;
        acc += closed / wedges;
    }
    acc / n as f64
}

/// Degree histogram: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Vertices sorted by descending degree — the paper's "degree rank" query
/// knob samples from prefixes of this order.
pub fn vertices_by_degree_desc(g: &CsrGraph) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = g.vertices().collect();
    vs.sort_by_key(|&v| std::cmp::Reverse((g.degree(v), v.0)));
    vs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn stats_of_k4() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 6);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.triangles, 4);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert!((s.avg_clustering - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_matches_local_definition() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let avg = average_clustering(&g);
        let by_local: f64 = (0..5)
            .map(|v| local_clustering(&g, VertexId(v)))
            .sum::<f64>()
            / 5.0;
        assert!(
            (avg - by_local).abs() < 1e-12,
            "avg {avg} vs local {by_local}"
        );
    }

    #[test]
    fn density_degenerate_cases() {
        assert_eq!(edge_density(0, 0), 0.0);
        assert_eq!(edge_density(1, 0), 0.0);
        assert!((edge_density(2, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (1, 3)]);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 4);
        assert_eq!(h[1], 1); // vertex 0
        assert_eq!(h[2], 2); // vertices 2 and 3
        assert_eq!(h[3], 1); // vertex 1
    }

    #[test]
    fn degree_ordering_is_descending() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let order = vertices_by_degree_desc(&g);
        assert_eq!(order[0], VertexId(0));
        let degs: Vec<usize> = order.iter().map(|&v| g.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    #[test]
    fn stats_of_empty_graph() {
        let g = GraphBuilder::new().build();
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.avg_clustering, 0.0);
        assert!(degree_histogram(&g).len() <= 1);
    }

    #[test]
    fn histogram_of_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(5);
        let g = b.build();
        assert_eq!(degree_histogram(&g), vec![5]);
    }

    #[test]
    fn degree_order_ties_break_deterministically() {
        let g = graph_from_edges(&[(0, 1), (2, 3)]);
        let a = vertices_by_degree_desc(&g);
        let b = vertices_by_degree_desc(&g);
        assert_eq!(a, b);
    }
}
