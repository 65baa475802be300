//! End-to-end persistence pipeline: a searcher warm-started from a `.ctci`
//! snapshot must answer every algorithm's queries byte-identically to a
//! searcher built cold from the same graph (the ISSUE 3 acceptance bar).

use ctc::prelude::*;
use ctc_gen::random::erdos_renyi_nm;
use proptest::prelude::*;

/// Runs all four algorithms on both searchers and compares the full
/// answer, success or failure alike.
fn assert_answers_identical(cold: &CtcSearcher<'_>, warm: &CtcSearcher<'_>, q: &[VertexId]) {
    let cfg = CtcConfig::default();
    type Run<'a> = (
        &'a str,
        fn(&CtcSearcher<'_>, &[VertexId], &CtcConfig) -> ctc::graph::error::Result<Community>,
    );
    let runs: [Run; 4] = [
        ("basic", |s, q, c| s.basic(q, c)),
        ("bd", |s, q, c| s.bulk_delete(q, c)),
        ("lctc", |s, q, c| s.local(q, c)),
        ("truss", |s, q, c| s.truss_only(q, c)),
    ];
    for (name, run) in runs {
        match (run(cold, q, &cfg), run(warm, q, &cfg)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.k, b.k, "{name}: k diverged for {q:?}");
                assert_eq!(a.vertices, b.vertices, "{name}: members diverged for {q:?}");
                assert_eq!(a.edges, b.edges, "{name}: edges diverged for {q:?}");
                assert_eq!(
                    a.query_distance, b.query_distance,
                    "{name}: query distance diverged for {q:?}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{name}: errors diverged for {q:?}"),
            other => panic!("{name}: cold/warm disagree for {q:?}: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn snapshot_searcher_matches_cold_searcher(
        n in 6usize..50,
        edges_per_vertex in 2usize..6,
        seed in 0u64..10_000,
        qa in 0usize..50,
        qb in 0usize..50,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        let snap = Snapshot::build(g.clone());
        let loaded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let cold = CtcSearcher::new(&g);
        let warm = CtcSearcher::from_snapshot(&loaded);
        let q1 = VertexId((qa % n) as u32);
        let q2 = VertexId((qb % n) as u32);
        assert_answers_identical(&cold, &warm, &[q1]);
        assert_answers_identical(&cold, &warm, &[q1, q2]);
    }
}

#[test]
fn engine_file_roundtrip_matches_cold_on_figure1() {
    let dir = std::env::temp_dir().join("ctc_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig1.ctci");
    let g = ctc::truss::fixtures::figure1_graph();
    let f = ctc::truss::fixtures::Figure1Ids::default();
    Snapshot::build(g.clone()).save(&path).unwrap();
    let engine = CommunityEngine::load(&path).unwrap();
    let cold = CtcSearcher::new(&g);
    let q = vec![f.q1, f.q2, f.q3];
    let batch = vec![
        EngineQuery::new(q.clone()).algo(SearchAlgo::Basic),
        EngineQuery::new(q.clone()).algo(SearchAlgo::BulkDelete),
        EngineQuery::new(q.clone()).algo(SearchAlgo::Local),
        EngineQuery::new(q.clone()).algo(SearchAlgo::TrussOnly),
    ];
    let answers = engine.search_batch(&batch);
    let cfg = CtcConfig::default();
    let expect = [
        cold.basic(&q, &cfg).unwrap(),
        cold.bulk_delete(&q, &cfg).unwrap(),
        cold.local(&q, &cfg).unwrap(),
        cold.truss_only(&q, &cfg).unwrap(),
    ];
    for (got, want) in answers.iter().zip(&expect) {
        let got = got.as_ref().unwrap();
        assert_eq!(got.k, want.k);
        assert_eq!(got.vertices, want.vertices);
        assert_eq!(got.edges, want.edges);
    }
}
