//! End-to-end pipelines over generated networks: every algorithm, every
//! model, structural contracts on the results, and the free-rider-effect
//! argument of §3.2 checked mechanically.

use ctc::prelude::*;
use ctc_gen::{mini_network, planted_equal};
use ctc_graph::VertexId;

#[test]
fn full_pipeline_on_mini_facebook() {
    let net = mini_network("facebook", 11).unwrap();
    let g = &net.graph;
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    let mut qgen = QueryGenerator::new(g, 5);
    for trial in 0..10 {
        let Some((q, _)) = qgen.sample_from_ground_truth(&net, 2 + trial % 3) else {
            continue;
        };
        for (name, c) in [
            ("basic", searcher.basic(&q, &cfg)),
            ("bd", searcher.bulk_delete(&q, &cfg)),
            ("lctc", searcher.local(&q, &cfg)),
            ("truss", searcher.truss_only(&q, &cfg)),
        ] {
            let c = c.unwrap_or_else(|e| panic!("{name} failed on {q:?}: {e}"));
            c.validate(&q)
                .unwrap_or_else(|e| panic!("{name} invalid on {q:?}: {e}"));
            assert!(c.k >= 2);
            assert!(c.query_distance <= c.diameter());
            assert!(
                c.diameter() <= 2 * c.query_distance.max(1),
                "Lemma 2 violated for {name}"
            );
        }
    }
}

#[test]
fn peeled_algorithms_never_exceed_truss_size() {
    let net = mini_network("dblp", 13).unwrap();
    let g = &net.graph;
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    let mut qgen = QueryGenerator::new(g, 3);
    for _ in 0..8 {
        let Some(q) = qgen.sample(3, DegreeRank::top(0.8), 2) else {
            continue;
        };
        let Ok(g0) = searcher.truss_only(&q, &cfg) else {
            continue;
        };
        for c in [
            searcher.basic(&q, &cfg).unwrap(),
            searcher.bulk_delete(&q, &cfg).unwrap(),
        ] {
            assert_eq!(c.k, g0.k, "peeling must not change trussness");
            assert!(
                c.num_vertices() <= g0.num_vertices(),
                "peeled community larger than G0"
            );
        }
    }
}

#[test]
fn baselines_cover_query_on_planted_graph() {
    let gt = planted_equal(8, 25, 0.6, 1.0, 17);
    let g = &gt.graph;
    let mut qgen = QueryGenerator::new(g, 23);
    for _ in 0..6 {
        let Some((q, _)) = qgen.sample_from_ground_truth(&gt, 2) else {
            continue;
        };
        let m = mdc(g, &q, &MdcConfig::default()).expect("mdc");
        assert!(m.contains_query(&q));
        let kc = kcore_community(g, &q).expect("kcore");
        assert!(kc.contains_query(&q));
        let qd = qdc(
            g,
            &q,
            &QdcConfig {
                enforce_query_connectivity: true,
                ..Default::default()
            },
        )
        .expect("qdc safe mode");
        assert!(qd.contains_query(&q));
        qd.validate(&q).expect("qdc community connected");
    }
}

#[test]
fn truss_methods_beat_degree_methods_on_planted_truth() {
    // On a clean planted partition, LCTC should align with ground truth at
    // least as well as MDC (the paper's Fig. 12 ordering).
    let gt = planted_equal(12, 30, 0.6, 1.0, 31);
    let g = &gt.graph;
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    let mut qgen = QueryGenerator::new(g, 41);
    let mut lctc_total = 0.0;
    let mut mdc_total = 0.0;
    let mut n = 0;
    for _ in 0..15 {
        let Some((q, ci)) = qgen.sample_from_ground_truth(&gt, 3) else {
            continue;
        };
        let truth = &gt.communities[ci];
        let Ok(l) = searcher.local(&q, &cfg) else {
            continue;
        };
        let Ok(m) = mdc(g, &q, &MdcConfig::default()) else {
            continue;
        };
        lctc_total += f1_score(&l.vertices, truth).f1;
        mdc_total += f1_score(&m.vertices, truth).f1;
        n += 1;
    }
    assert!(n >= 5, "too few successful trials");
    assert!(
        lctc_total >= mdc_total * 0.9,
        "LCTC F1 sum {lctc_total:.2} unexpectedly below MDC {mdc_total:.2}"
    );
}

/// §3.2 / Proposition 1: merging the found community with a far-away dense
/// subgraph must not improve the goodness metric (diameter) — i.e. the
/// definition does not admit free riders.
#[test]
fn free_rider_effect_is_avoided() {
    use ctc::truss::fixtures::{figure1_graph, Figure1Ids};
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let q = [f.q1, f.q2];
    let searcher = CtcSearcher::new(&g);
    let c = searcher.basic(&q, &CtcConfig::default()).unwrap();
    let d_before = c.diameter();
    // Candidate free riders: the K4 {q3, p1, p2, p3} — a query-independent
    // 4-truss. Merge it in and recompute the diameter of the union.
    let mut merged: Vec<VertexId> = c.vertices.clone();
    for v in [f.q3, f.p1, f.p2, f.p3] {
        if !merged.contains(&v) {
            merged.push(v);
        }
    }
    let sub = ctc_graph::induced_subgraph(&g, &merged);
    let d_after = ctc_graph::diameter_exact(&sub.graph);
    assert!(
        d_after >= d_before,
        "free riders improved the metric: {d_after} < {d_before}"
    );
}

#[test]
fn tcp_model_contrast_from_intro() {
    // The intro's motivating failure: TCP has no community for
    // Q = {v4, q3, p1}, while CTC returns one.
    use ctc::truss::fixtures::{figure1_graph, Figure1Ids};
    use ctc::truss::tcp_feasible;
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let q = [f.v4, f.q3, f.p1];
    let idx = TrussIndex::build(&g);
    assert!(
        !tcp_feasible(&g, &idx, &q),
        "TCP should fail on the intro query"
    );
    let searcher = CtcSearcher::new(&g);
    let c = searcher.basic(&q, &CtcConfig::default()).unwrap();
    c.validate(&q).unwrap();
    assert!(c.k >= 2, "CTC finds a community where TCP cannot");
}

#[test]
fn serialization_roundtrip_preserves_search_results() {
    let net = mini_network("facebook", 19).unwrap();
    let g = &net.graph;
    let img = Snapshot::build(g.clone()).to_bytes();
    let g2 = Snapshot::from_bytes(&img).unwrap().graph;
    assert_eq!(g, &g2);
    let mut qgen = QueryGenerator::new(g, 29);
    let q = qgen.sample(2, DegreeRank::top(0.5), 2).unwrap();
    let c1 = CtcSearcher::new(g)
        .basic(&q, &CtcConfig::default())
        .unwrap();
    let c2 = CtcSearcher::new(&g2)
        .basic(&q, &CtcConfig::default())
        .unwrap();
    assert_eq!(c1.vertices, c2.vertices);
    assert_eq!(c1.k, c2.k);
}
