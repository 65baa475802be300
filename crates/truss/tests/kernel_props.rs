//! Property tests pinning the locate path's kernels to merge-based
//! oracles at the truss layer: `find_g0` under pooled scratch reuse,
//! `tcp_communities` against a sorted-merge reimplementation, and the
//! serial decomposition against itself across scratch reuse, whichever
//! peel structure each graph takes — byte-identical on ER / BA / planted
//! graphs.

use ctc_gen::planted::planted_equal;
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::{common_neighbors, CsrGraph, VertexId};
use ctc_truss::{
    find_g0, find_g0_with, tcp_communities, truss_decomposition, truss_decomposition_with,
    DecomposeScratch, FindScratch, TcpCommunity, TrussIndex,
};
use proptest::prelude::*;

/// Merge-oracle reimplementation of `tcp_communities`: same traversal
/// structure, but triangle adjacency via `common_neighbors` + explicit
/// `edge_between` probes instead of the row merge's edge ids. Output must be
/// byte-identical (both sort community edges and order communities by
/// descending size with stable ties).
fn tcp_oracle(g: &CsrGraph, idx: &TrussIndex, q: VertexId, k: u32) -> Vec<TcpCommunity> {
    let mut visited = vec![false; g.num_edges()];
    let mut out = Vec::new();
    for (_, e, _) in idx.incident_at_least(q, k) {
        if visited[e.index()] {
            continue;
        }
        let mut comm = Vec::new();
        let mut stack = vec![e];
        visited[e.index()] = true;
        while let Some(cur) = stack.pop() {
            comm.push(cur);
            let (u, v) = g.edge_endpoints(cur);
            for w in common_neighbors(g, u, v) {
                let euw = g.edge_between(u, w).expect("triangle side edge");
                let evw = g.edge_between(v, w).expect("triangle side edge");
                if idx.edge_truss(euw) >= k && idx.edge_truss(evw) >= k {
                    for f in [euw, evw] {
                        if !visited[f.index()] {
                            visited[f.index()] = true;
                            stack.push(f);
                        }
                    }
                }
            }
        }
        comm.sort_unstable();
        out.push(TcpCommunity { k, edges: comm });
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.edges.len()));
    out
}

/// Runs every cross-check on one graph; `scratch` persists across calls so
/// reuse across *different* graphs is exercised too.
fn check_truss_kernels(
    g: &CsrGraph,
    find: &mut FindScratch,
    decomp: &mut DecomposeScratch,
    seed: u64,
) -> Result<(), TestCaseError> {
    // Decomposition: a pooled scratch, last grown on another graph and
    // perhaps another peel structure, must match a fresh run
    // byte-for-byte.
    let fresh = truss_decomposition(g);
    let pooled = truss_decomposition_with(g, decomp);
    prop_assert_eq!(
        &pooled.edge_truss,
        &fresh.edge_truss,
        "trussness diverged under scratch reuse"
    );
    prop_assert_eq!(pooled.max_truss, fresh.max_truss);

    let idx = TrussIndex::build(g);
    let n = g.num_vertices();
    if n == 0 {
        return Ok(());
    }
    // A few deterministic pseudo-random queries per graph; both success and
    // error outcomes must agree between pooled and fresh locate.
    for i in 0..4u64 {
        let a = VertexId(((seed.wrapping_mul(31).wrapping_add(i * 7)) % n as u64) as u32);
        let b = VertexId(((seed.wrapping_mul(17).wrapping_add(i * 13)) % n as u64) as u32);
        let q = if i % 2 == 0 { vec![a] } else { vec![a, b] };
        let fresh = find_g0(g, &idx, &q);
        let pooled = find_g0_with(g, &idx, &q, u32::MAX, find);
        match (&fresh, &pooled) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.k, y.k, "G0 trussness diverged for {:?}", &q);
                prop_assert_eq!(&x.edges, &y.edges, "G0 edges diverged for {:?}", &q);
                prop_assert_eq!(
                    &x.vertices,
                    &y.vertices,
                    "G0 vertices diverged for {:?}",
                    &q
                );
            }
            (Err(x), Err(y)) => {
                prop_assert_eq!(
                    format!("{x:?}"),
                    format!("{y:?}"),
                    "errors diverged for {:?}",
                    &q
                )
            }
            _ => prop_assert!(
                false,
                "pooled/fresh outcome diverged for {:?}: {:?} vs {:?}",
                &q,
                fresh,
                pooled
            ),
        }
        // TCP communities from the same query vertex at every feasible k.
        for k in 3..=idx.max_truss().min(6) {
            let kernel = tcp_communities(g, &idx, a, k);
            let oracle = tcp_oracle(g, &idx, a, k);
            prop_assert_eq!(
                kernel.len(),
                oracle.len(),
                "tcp community count diverged at k={}",
                k
            );
            for (x, y) in kernel.iter().zip(&oracle) {
                prop_assert_eq!(x.k, y.k);
                prop_assert_eq!(&x.edges, &y.edges, "tcp edges diverged at k={}", k);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn kernels_match_oracles_on_er_graphs(
        n in 4usize..60,
        edges_per_vertex in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        let mut find = FindScratch::default();
        let mut decomp = DecomposeScratch::default();
        check_truss_kernels(&g, &mut find, &mut decomp, seed)?;
    }

    #[test]
    fn kernels_match_oracles_on_ba_graphs(
        n in 6usize..60,
        attach in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let g = barabasi_albert(n, attach, seed);
        let mut find = FindScratch::default();
        let mut decomp = DecomposeScratch::default();
        check_truss_kernels(&g, &mut find, &mut decomp, seed)?;
    }

    #[test]
    fn kernels_match_oracles_on_planted_graphs(
        communities in 2usize..4,
        size in 4usize..10,
        seed in 0u64..10_000,
    ) {
        let gt = planted_equal(communities, size, 0.85, 0.05, seed);
        let mut find = FindScratch::default();
        let mut decomp = DecomposeScratch::default();
        check_truss_kernels(&gt.graph, &mut find, &mut decomp, seed)?;
    }
}

/// One long-lived scratch pair across a stream of differently-sized graphs
/// — the engine-pool usage pattern (grow, shrink, error paths in between).
#[test]
fn scratch_survives_graph_stream() {
    let mut find = FindScratch::default();
    let mut decomp = DecomposeScratch::default();
    for (i, g) in [
        erdos_renyi_nm(40, 160, 1),
        erdos_renyi_nm(5, 6, 2),
        barabasi_albert(50, 3, 3),
        erdos_renyi_nm(0, 0, 4),
        planted_equal(3, 8, 0.9, 0.05, 5).graph,
    ]
    .iter()
    .enumerate()
    {
        check_truss_kernels(g, &mut find, &mut decomp, i as u64)
            .expect("pooled kernels agree across the graph stream");
    }
}
