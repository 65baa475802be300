//! Property tests on substrate invariants: distances, connectivity,
//! serialization, Steiner trees, PageRank.

use ctc_core::{steiner_tree, SteinerMode};
use ctc_graph::{
    bfs_distances, connected_components, diameter_double_sweep, diameter_exact, graph_from_edges,
    personalized_pagerank, PageRankOptions, UnionFind, VertexId, INF,
};
use ctc_truss::{Snapshot, TrussIndex};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..16, 0u32..16), 1..64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn bfs_satisfies_triangle_inequality(edges in arb_edges(), s in 0u32..16, t in 0u32..16) {
        let g = graph_from_edges(&edges);
        let n = g.num_vertices() as u32;
        if n == 0 {
            return Ok(());
        }
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        let ds = bfs_distances(&g, s);
        let dt = bfs_distances(&g, t);
        let dst = ds[t.index()];
        for v in 0..n as usize {
            if ds[v] != INF && dt[v] != INF {
                prop_assert!(dst != INF);
                prop_assert!(dst as u64 <= ds[v] as u64 + dt[v] as u64);
            }
        }
    }

    #[test]
    fn double_sweep_lower_bounds_exact_diameter(edges in arb_edges()) {
        let g = graph_from_edges(&edges);
        if g.num_vertices() == 0 || !ctc_graph::is_connected(&g) {
            return Ok(());
        }
        let exact = diameter_exact(&g);
        let sweep = diameter_double_sweep(&g, VertexId(0));
        prop_assert!(sweep <= exact);
        // Double sweep is exact on trees and usually tight; it is always a
        // valid eccentricity, so also ≥ exact/2.
        prop_assert!(sweep as u64 * 2 >= exact as u64);
    }

    #[test]
    fn union_find_matches_bfs_components(edges in arb_edges()) {
        let g = graph_from_edges(&edges);
        let n = g.num_vertices();
        let mut uf = UnionFind::new(n);
        for (_, u, v) in g.edges() {
            uf.union(u.0, v.0);
        }
        let (labels, count) = connected_components(&g);
        prop_assert_eq!(uf.component_count(), count);
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(
                    uf.connected(u as u32, v as u32),
                    labels[u] == labels[v]
                );
            }
        }
    }

    #[test]
    fn edge_list_roundtrip(edges in arb_edges()) {
        let g = graph_from_edges(&edges);
        let mut buf = Vec::new();
        ctc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = ctc_graph::io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        // The .ctci graph section preserves ids exactly.
        let img = Snapshot::build(g.clone()).to_bytes();
        let g3 = Snapshot::from_bytes(&img).unwrap().graph;
        prop_assert_eq!(&g, &g3);
    }

    #[test]
    fn pagerank_is_a_distribution(edges in arb_edges(), seed in 0u32..16) {
        let g = graph_from_edges(&edges);
        let n = g.num_vertices() as u32;
        if n == 0 {
            return Ok(());
        }
        let p = personalized_pagerank(&g, &[VertexId(seed % n)], PageRankOptions::default());
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total = {}", total);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn steiner_tree_spans_query_acyclically(
        edges in arb_edges(),
        q_raw in proptest::collection::vec(0u32..16, 1..5),
        gamma in 0.0f64..6.0,
    ) {
        let g = graph_from_edges(&edges);
        let n = g.num_vertices() as u32;
        if n == 0 {
            return Ok(());
        }
        let mut q: Vec<VertexId> = q_raw.iter().map(|&v| VertexId(v % n)).collect();
        q.sort();
        q.dedup();
        let idx = TrussIndex::build(&g);
        for mode in [SteinerMode::PathMinExact, SteinerMode::EdgeAdditive] {
            match steiner_tree(&g, &idx, &q, gamma, mode) {
                None => {
                    // Legitimate only if the query is not mutually reachable
                    // (or some query vertex is isolated with |q| > 1).
                    if q.len() > 1 {
                        let d = bfs_distances(&g, q[0]);
                        prop_assert!(
                            q.iter().any(|&v| d[v.index()] == INF),
                            "{mode:?} failed on a reachable query"
                        );
                    }
                }
                Some(t) => {
                    // Tree: |E| = |V| − 1, spans Q, connected.
                    prop_assert_eq!(t.edges.len() + 1, t.vertices.len());
                    let mut uf = UnionFind::new(g.num_vertices());
                    for &e in &t.edges {
                        let (u, v) = g.edge_endpoints(e);
                        prop_assert!(uf.union(u.0, v.0), "cycle in Steiner tree");
                    }
                    let q_ids: Vec<u32> = q.iter().map(|v| v.0).collect();
                    prop_assert!(uf.all_connected(&q_ids));
                    // kt is the min edge trussness of the tree.
                    if !t.edges.is_empty() {
                        let kt = t.edges.iter().map(|&e| idx.edge_truss(e)).min().unwrap();
                        prop_assert_eq!(kt, t.min_truss);
                    }
                }
            }
        }
    }
}
