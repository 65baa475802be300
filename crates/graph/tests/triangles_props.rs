//! Property tests pinning the triangle kernels to textbook oracles: the
//! degree-oriented walk behind `edge_supports` and `triangle_count`
//! against the scan-every-vertex `naive_edge_supports`, and the row merge
//! behind `for_each_common_neighbor`, `support_of` and `common_neighbors`
//! against a plain two-pointer merge, on sparse ER and BA graphs, small
//! dense graphs with compact ids, and graphs whose vertices tie on degree.

use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::triangles::naive_edge_supports;
use ctc_graph::{
    common_neighbors, edge_supports, edge_supports_dyn, for_each_common_neighbor, graph_from_edges,
    support_of, triangle_count, CsrGraph, DynGraph, Oriented, VertexId,
};
use proptest::prelude::*;

/// Textbook sorted-merge intersection — the oracle the row merge must
/// reproduce, neighbor for neighbor.
fn merge_common(g: &CsrGraph, u: VertexId, v: VertexId) -> Vec<u32> {
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Every check on one graph; `pooled` carries one oriented adjacency
/// across graphs, so a rebuild over a different graph is exercised too.
fn check_triangles(g: &CsrGraph, pooled: &mut Oriented) -> Result<(), TestCaseError> {
    let naive = naive_edge_supports(g);
    let sup = edge_supports(g);
    prop_assert_eq!(&sup, &naive, "oriented supports vs naive");
    let mut again = vec![u32::MAX; 5];
    pooled.build(g);
    pooled.count(&mut again);
    prop_assert_eq!(&again, &naive, "pooled oriented supports vs naive");
    prop_assert_eq!(
        &edge_supports_dyn(&DynGraph::new(g)),
        &naive,
        "fully alive overlay"
    );
    // Triangle identity: Σ sup(e) = 3 · #triangles.
    let sum: u64 = sup.iter().map(|&s| u64::from(s)).sum();
    prop_assert_eq!(sum, 3 * triangle_count(g), "sum of supports != 3T");
    // The row merge's stream, for every pair of vertices: the oracle's
    // common neighbors in ascending order, each with its two edge ids.
    for u in g.vertices() {
        for v in g.vertices().filter(|&v| v > u) {
            let oracle = merge_common(g, u, v);
            let mut seen = Vec::new();
            for_each_common_neighbor(g, u, v, |w, euw, evw| seen.push((w, euw, evw)));
            let ws: Vec<u32> = seen.iter().map(|&(w, _, _)| w.0).collect();
            prop_assert_eq!(&ws, &oracle, "stream of ({:?}, {:?})", u, v);
            for &(w, euw, evw) in &seen {
                prop_assert_eq!(g.edge_between(u, w), Some(euw), "wrong u-w edge id");
                prop_assert_eq!(g.edge_between(v, w), Some(evw), "wrong v-w edge id");
            }
            let listed: Vec<u32> = common_neighbors(g, u, v).iter().map(|w| w.0).collect();
            prop_assert_eq!(&listed, &oracle, "common_neighbors of ({:?}, {:?})", u, v);
            let want = g.edge_between(u, v).map(|e| sup[e.index()]);
            prop_assert_eq!(support_of(g, u, v), want, "support_of ({:?}, {:?})", u, v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn kernels_match_oracles_on_er_graphs(
        n in 4usize..60,
        edges_per_vertex in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        check_triangles(&g, &mut Oriented::default())?;
    }

    #[test]
    fn kernels_match_oracles_on_ba_graphs(
        n in 6usize..60,
        attach in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let g = barabasi_albert(n, attach, seed);
        check_triangles(&g, &mut Oriented::default())?;
    }

    /// Small dense graphs with compact ids: half to almost all of the
    /// `n(n−1)/2` pairs joined, with `n ≤ 64` — the shape of fb's answer
    /// subgraphs, where the oriented walk is the slower kernel.
    #[test]
    fn kernels_match_oracles_on_dense_er_graphs(
        n in 8usize..65,
        percent in 50usize..96,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, n * (n - 1) / 2 * percent / 100, seed);
        check_triangles(&g, &mut Oriented::default())?;
    }
}

/// Cliques up to `K_64` (every vertex ties on degree, so the orientation
/// is by id alone), through one pooled instance that grows and shrinks.
#[test]
fn cliques_match_the_oracles() {
    let mut pooled = Oriented::default();
    for n in [1u32, 2, 3, 4, 5, 8, 17, 33, 64, 6] {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        let g = graph_from_edges(&edges);
        check_triangles(&g, &mut pooled).unwrap_or_else(|e| panic!("K_{n}: {e:?}"));
        let want = u64::from(n) * u64::from(n.saturating_sub(1)) * u64::from(n.saturating_sub(2));
        assert_eq!(triangle_count(&g), want / 6, "K_{n}");
    }
}

/// Degree ties broken by id: a star whose hub also sits in a K4 (the
/// K4's other three vertices tie, as do the two spokes a chord joins), a
/// cycle with every vertex of degree 4, and ids straddling a 64-bit word.
#[test]
fn degree_ties_match_the_oracles() {
    let mut star = vec![(1, 2), (4, 9), (4, 10), (4, 11), (9, 10), (9, 11), (10, 11)];
    star.extend([0, 1, 2, 3, 5, 6, 7, 8].map(|s| (4, s)));
    let square_of_cycle: Vec<(u32, u32)> = (0..12u32)
        .flat_map(|v| [(v, (v + 1) % 12), (v, (v + 2) % 12)])
        .collect();
    let straddle = vec![
        (62, 63),
        (62, 64),
        (63, 64),
        (63, 65),
        (64, 65),
        (62, 128),
        (63, 128),
        (64, 128),
        (65, 128),
    ];
    let mut pooled = Oriented::default();
    for (name, edges) in [
        ("star+k4", star),
        ("square of C12", square_of_cycle),
        ("word straddle", straddle),
    ] {
        let g = graph_from_edges(&edges);
        check_triangles(&g, &mut pooled).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn empty_and_tiny_graphs_are_safe() {
    for g in [
        erdos_renyi_nm(0, 0, 1),
        erdos_renyi_nm(1, 0, 1),
        erdos_renyi_nm(2, 1, 1),
    ] {
        check_triangles(&g, &mut Oriented::default()).expect("kernels agree on degenerate graphs");
    }
}
