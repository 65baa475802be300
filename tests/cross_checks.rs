//! Cross-module consistency: the truss engine's fast paths must agree with
//! naive recomputation, and maintenance must agree with from-scratch
//! decomposition after deletions.

use ctc_graph::{graph_from_edges, DynGraph, EdgeId, VertexId};
use ctc_truss::{
    find_g0, find_g0_with, find_ktruss_containing, naive_truss_decomposition, truss_decomposition,
    FindScratch, TrussIndex, TrussMaintainer,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..14, 0u32..14), 4..56)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn decomposition_matches_naive(edges in arb_graph()) {
        let g = graph_from_edges(&edges);
        let fast = truss_decomposition(&g);
        let slow = naive_truss_decomposition(&g);
        prop_assert_eq!(&fast.edge_truss, &slow.edge_truss);
        prop_assert_eq!(fast.max_truss, slow.max_truss);
    }

    #[test]
    fn index_rows_are_consistent(edges in arb_graph()) {
        let g = graph_from_edges(&edges);
        let idx = TrussIndex::build(&g);
        let d = truss_decomposition(&g);
        for (e, u, v) in g.edges() {
            prop_assert_eq!(idx.edge_truss(e), d.truss(e));
            prop_assert_eq!(idx.truss_of_pair(u, v), Some(d.truss(e)));
        }
        for v in g.vertices() {
            prop_assert_eq!(idx.vertex_truss(v), d.vertex_truss(&g, v));
            let (_, row_edges) = idx.sorted_row(v);
            let ts: Vec<u32> = row_edges.iter().map(|&e| idx.edge_truss(EdgeId(e))).collect();
            prop_assert!(ts.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn maintenance_equals_fresh_decomposition(
        edges in arb_graph(),
        victims in proptest::collection::vec(0u32..14, 1..4),
        k in 3u32..6,
    ) {
        let g = graph_from_edges(&edges);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        // Incremental: enforce level k, delete victims, cascade.
        let mut live = DynGraph::new(&g);
        // Start from the maximal k-truss at level k.
        let d0 = truss_decomposition(&g);
        let low: Vec<EdgeId> = g
            .edges()
            .filter(|&(e, _, _)| d0.truss(e) < k)
            .map(|(e, _, _)| e)
            .collect();
        let mut m = TrussMaintainer::new(&live, k);
        m.delete_edges(&mut live, &low);
        let vs: Vec<VertexId> = victims
            .iter()
            .map(|&v| VertexId(v % g.num_vertices() as u32))
            .collect();
        m.delete_vertices(&mut live, &vs);
        m.check_invariants(&live).map_err(TestCaseError::fail)?;

        // From scratch: remove victims from G, decompose, keep τ ≥ k edges.
        let keep: Vec<VertexId> = g.vertices().filter(|v| !vs.contains(v)).collect();
        let minus = ctc_graph::induced_subgraph(&g, &keep);
        let d1 = truss_decomposition(&minus.graph);
        let fresh: usize = minus
            .graph
            .edges()
            .filter(|&(e, _, _)| d1.truss(e) >= k)
            .count();
        prop_assert_eq!(live.num_alive_edges(), fresh,
            "incremental maintenance diverged from fresh decomposition");
    }

    #[test]
    fn find_g0_agrees_with_filtered_search(
        edges in arb_graph(),
        q_raw in proptest::collection::vec(0u32..14, 1..4),
        cap in 0u32..8,
    ) {
        let g = graph_from_edges(&edges);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let mut q: Vec<VertexId> = q_raw
            .iter()
            .map(|&v| VertexId(v % g.num_vertices() as u32))
            .collect();
        q.sort();
        q.dedup();
        let idx = TrussIndex::build(&g);
        match find_g0(&g, &idx, &q) {
            Err(_) => {}
            Ok(g0) => {
                // Same k via the filtered construction.
                let fixed = find_ktruss_containing(&g, &idx, &q, g0.k)
                    .expect("level k must be feasible");
                let mut a = g0.edges.clone();
                let mut b = fixed.edges;
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
                // No higher level is feasible.
                prop_assert!(find_ktruss_containing(&g, &idx, &q, g0.k + 1).is_none());
            }
        }
        // Capped: the highest feasible level at or below the cap, and
        // failure together when there is none (caps 0 and 1 included).
        let capped = find_g0_with(&g, &idx, &q, cap, &mut FindScratch::new());
        let filtered = (2..=cap).rev().find_map(|k| find_ktruss_containing(&g, &idx, &q, k));
        match (capped, filtered) {
            (Ok(a), Some(b)) => {
                prop_assert_eq!(a.k, b.k);
                prop_assert_eq!(a.vertices, b.vertices);
                prop_assert_eq!(a.edges, b.edges);
            }
            (Err(_), None) => {}
            (a, b) => prop_assert!(false, "cap {}: {:?} vs {:?}", cap, a, b),
        }
    }
}

#[test]
fn searchers_agree_with_find_g0_on_planted_graphs() {
    // Basic, BulkDelete and LCTC must all return a community that (a)
    // contains the query and (b) certifies the same trussness k that
    // FindG0 reports for that query — peeling only shrinks G0, never its
    // trussness level, and LCTC's expansion stops at the same global bound.
    use ctc_core::{CtcConfig, CtcSearcher};
    use ctc_gen::planted_equal;

    let cfg = CtcConfig::default();
    let mut checked = 0;
    for seed in 0..6u64 {
        let gt = planted_equal(4, 16, 0.6, 1.0, seed);
        let g = &gt.graph;
        let searcher = CtcSearcher::new(g);
        let mut qg = ctc_gen::QueryGenerator::new(g, seed ^ 0xc0ffee);
        for qsize in [1usize, 2, 3] {
            let Some((q, _)) = qg.sample_from_ground_truth(&gt, qsize) else {
                continue;
            };
            let Ok(g0) = find_g0(g, searcher.index(), &q) else {
                continue;
            };
            let methods: [(&str, Result<ctc_core::Community, _>); 3] = [
                ("basic", searcher.basic(&q, &cfg)),
                ("bulk_delete", searcher.bulk_delete(&q, &cfg)),
                ("local", searcher.local(&q, &cfg)),
            ];
            for (name, res) in methods {
                let c = res.unwrap_or_else(|e| panic!("{name} failed on feasible query: {e}"));
                assert!(c.contains_query(&q), "{name} dropped a query vertex");
                assert_eq!(
                    c.k, g0.k,
                    "{name} certified k != FindG0's k (seed {seed}, |Q|={qsize})"
                );
                c.validate(&q)
                    .unwrap_or_else(|e| panic!("{name} invalid: {e}"));
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "only {checked} feasible planted queries — generator drifted?"
    );
}

#[test]
fn maintenance_stress_on_larger_graph() {
    // Deterministic, denser scenario: peel a mini-facebook community graph
    // vertex by vertex and verify invariants at every tenth step.
    let net = ctc_gen::mini_network("facebook", 3).unwrap();
    let g = net.graph;
    let d = truss_decomposition(&g);
    let k = d.max_truss.saturating_sub(1).max(3);
    let mut live = DynGraph::new(&g);
    let low: Vec<EdgeId> = g
        .edges()
        .filter(|&(e, _, _)| d.truss(e) < k)
        .map(|(e, _, _)| e)
        .collect();
    let mut m = TrussMaintainer::new(&live, k);
    m.delete_edges(&mut live, &low);
    m.check_invariants(&live).unwrap();
    let mut step = 0;
    while live.num_alive_vertices() > 0 {
        let v = live.alive_vertices().next().unwrap();
        m.delete_vertices(&mut live, &[v]);
        step += 1;
        if step % 10 == 0 {
            m.check_invariants(&live).unwrap();
        }
    }
    assert_eq!(live.num_alive_edges(), 0);
}
