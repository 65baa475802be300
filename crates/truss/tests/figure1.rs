//! Pins the paper's Figure 1 ground truth independently of the doctests:
//! per-edge trussness, the k=4 grey region of 11 vertices returned by
//! `FindG0`, and the diameter-3 optimal community of Figure 1(b).

use ctc_graph::{diameter_exact, induced_subgraph, support_of, VertexId};
use ctc_truss::fixtures::{figure1_graph, figure1_grey_vertices, figure1b_vertices, Figure1Ids};
use ctc_truss::{find_g0, is_k_truss, truss_decomposition, TrussIndex};

#[test]
fn every_edge_trussness_matches_figure1() {
    // The grey region is a (maximal) 4-truss, so every edge inside it has
    // trussness exactly 4; the two bridge edges through `t` close no
    // triangle and sit at the floor trussness of 2.
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let d = truss_decomposition(&g);
    assert_eq!(d.max_truss, 4);
    let bridges = [
        g.edge_between(f.q1, f.t).expect("q1-t edge"),
        g.edge_between(f.t, f.q3).expect("t-q3 edge"),
    ];
    for (e, u, v) in g.edges() {
        let expected = if bridges.contains(&e) { 2 } else { 4 };
        assert_eq!(d.truss(e), expected, "trussness of edge ({u:?},{v:?})");
    }
}

#[test]
fn vertex_trussness_matches_figure1() {
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let idx = TrussIndex::build(&g);
    for v in figure1_grey_vertices() {
        assert_eq!(idx.vertex_truss(v), 4, "vertex {v:?} sits in the 4-truss");
    }
    assert_eq!(
        idx.vertex_truss(f.t),
        2,
        "the bridge t only reaches trussness 2"
    );
}

#[test]
fn section2_support_vs_trussness_example() {
    // §2's worked example: sup(q2, v2) = 3 yet τ(q2, v2) = 4.
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let idx = TrussIndex::build(&g);
    assert_eq!(support_of(&g, f.q2, f.v2), Some(3));
    assert_eq!(
        g.edge_between(f.q2, f.v2).map(|e| idx.edge_truss(e)),
        Some(4)
    );
}

#[test]
fn find_g0_returns_the_grey_region() {
    // FindG0 on Q = {q1,q2,q3}: k = 4 and exactly the 11 grey vertices
    // (everything but the bridge t).
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let idx = TrussIndex::build(&g);
    let g0 = find_g0(&g, &idx, &[f.q1, f.q2, f.q3]).expect("query is connected");
    assert_eq!(g0.k, 4);
    assert_eq!(g0.vertices.len(), 11);
    let mut got = g0.vertices.clone();
    got.sort();
    let mut grey = figure1_grey_vertices();
    grey.sort();
    assert_eq!(got, grey);
    assert!(!g0.vertices.contains(&f.t));
}

#[test]
fn optimal_community_has_diameter_3() {
    // Figure 1(b) — grey minus the free riders {p1,p2,p3} — is itself a
    // 4-truss and achieves the optimal diameter 3 (the grey region has 4).
    let g = figure1_graph();
    let b = induced_subgraph(&g, &figure1b_vertices());
    assert_eq!(b.num_vertices(), 8);
    assert!(is_k_truss(&b.graph, 4));
    assert_eq!(diameter_exact(&b.graph), 3);
    let grey = induced_subgraph(&g, &figure1_grey_vertices());
    assert_eq!(diameter_exact(&grey.graph), 4);
}

#[test]
fn free_riders_are_furthest_from_the_query() {
    // Example 4: within G0 the free riders sit at query distance 4, strictly
    // further than every community vertex, which is why Basic peels them.
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let grey = induced_subgraph(&g, &figure1_grey_vertices());
    let q: Vec<VertexId> = [f.q1, f.q2, f.q3]
        .iter()
        .map(|&v| grey.local(v).expect("query is grey"))
        .collect();
    let mut scratch = ctc_graph::BfsScratch::new(grey.num_vertices());
    let dist = ctc_graph::query_distances(&grey.graph, &q, &mut scratch);
    for p in [f.p1, f.p2, f.p3] {
        assert_eq!(dist[grey.local(p).unwrap().index()], 4, "free rider {p:?}");
    }
    for v in [f.v1, f.v2, f.v3, f.v4, f.v5] {
        assert!(
            dist[grey.local(v).unwrap().index()] < 4,
            "community vertex {v:?} must be closer than the free riders"
        );
    }
}
