//! Quality-focused integration tests for the search algorithms on
//! generated networks (beyond the unit fixtures).

use ctc_core::{CtcConfig, CtcSearcher};
use ctc_gen::{planted_equal, DegreeRank, QueryGenerator};

#[test]
fn lctc_matches_global_trussness_on_tight_queries() {
    // Queries inside one dense planted circle: the local exploration must
    // certify the same k as the global algorithms (Fig. 13b's claim).
    let gt = planted_equal(10, 40, 0.5, 1.0, 77);
    let g = &gt.graph;
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    let mut qg = QueryGenerator::new(g, 5);
    let mut same = 0;
    let mut total = 0;
    for _ in 0..12 {
        let Some((q, _)) = qg.sample_from_ground_truth(&gt, 3) else {
            continue;
        };
        let Ok(global) = searcher.bulk_delete(&q, &cfg) else {
            continue;
        };
        let Ok(local) = searcher.local(&q, &cfg) else {
            continue;
        };
        total += 1;
        if local.k == global.k {
            same += 1;
        }
        assert!(
            local.k >= global.k.saturating_sub(2),
            "LCTC trussness too far off"
        );
    }
    assert!(total >= 8, "too few comparisons ran");
    assert!(
        same * 10 >= total * 7,
        "LCTC matched global k only {same}/{total} times"
    );
}

#[test]
fn fixed_k_sweep_is_feasible_below_max() {
    let gt = planted_equal(6, 30, 0.6, 0.8, 13);
    let g = &gt.graph;
    let searcher = CtcSearcher::new(g);
    let mut qg = QueryGenerator::new(g, 3);
    let (q, _) = qg.sample_from_ground_truth(&gt, 2).expect("query");
    let max = searcher.bulk_delete(&q, &CtcConfig::default()).unwrap().k;
    assert!(max >= 3, "planted circle should be dense (k = {max})");
    for k in 2..=max {
        let c = searcher
            .bulk_delete(&q, &CtcConfig::new().fixed_k(k))
            .unwrap_or_else(|e| panic!("fixed k={k} infeasible below max {max}: {e}"));
        assert_eq!(c.k, k);
        c.validate(&q).unwrap();
    }
}

#[test]
fn eta_monotonicity_of_exploration() {
    // A larger exploration budget can only see more of the graph; the
    // certified trussness must be non-decreasing in η.
    let gt = planted_equal(8, 35, 0.5, 1.0, 57);
    let g = &gt.graph;
    let searcher = CtcSearcher::new(g);
    let mut qg = QueryGenerator::new(g, 21);
    for _ in 0..6 {
        let Some(q) = qg.sample(2, DegreeRank::top(0.8), 2) else {
            continue;
        };
        let mut prev_k = 0;
        for eta in [10usize, 100, 1000] {
            let Ok(c) = searcher.local(&q, &CtcConfig::new().eta(eta)) else {
                continue;
            };
            assert!(
                c.k >= prev_k,
                "trussness dropped when η grew: {} -> {} at η={eta}",
                prev_k,
                c.k
            );
            prev_k = c.k;
        }
    }
}

#[test]
fn community_timings_are_populated() {
    let gt = planted_equal(5, 25, 0.6, 0.8, 3);
    let g = &gt.graph;
    let searcher = CtcSearcher::new(g);
    let mut qg = QueryGenerator::new(g, 1);
    let (q, _) = qg.sample_from_ground_truth(&gt, 2).unwrap();
    let c = searcher.basic(&q, &CtcConfig::default()).unwrap();
    assert!(c.timings.total >= c.timings.peel);
    assert!(c.timings.total.as_nanos() > 0);
}
