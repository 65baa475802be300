//! The process-wide scratch pool holds one scratch per concurrent search,
//! however many engines the process serves.
//!
//! Its own test binary, with a single test function, because the pool is
//! process-wide: any other search in the same process would move the
//! counts.

use ctc_core::{scratch_pool_stats, CommunityEngine, ScratchPoolStats, SearchAlgo};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::{CsrGraph, VertexId};
use ctc_truss::fixtures::figure1_graph;
use std::sync::Barrier;

const ALGOS: [SearchAlgo; 4] = [
    SearchAlgo::Basic,
    SearchAlgo::BulkDelete,
    SearchAlgo::Local,
    SearchAlgo::TrussOnly,
];

/// Eight graphs of different sizes and shapes.
fn graphs() -> Vec<CsrGraph> {
    let mut gs = vec![figure1_graph()];
    gs.extend((0..4).map(|i| erdos_renyi_nm(30 + 20 * i, (30 + 20 * i) * 4, i as u64)));
    gs.extend((0..3).map(|i| barabasi_albert(40 + 30 * i, 3, 100 + i as u64)));
    gs
}

/// The endpoints of the graph's first edge: a query every algorithm
/// answers.
fn query(engine: &CommunityEngine) -> Vec<VertexId> {
    let (_, u, v) = engine.graph().edges().next().expect("graph has an edge");
    vec![u, v]
}

fn search_all(engines: &[CommunityEngine]) {
    for engine in engines {
        let q = query(engine);
        for algo in ALGOS {
            engine
                .search(&q, algo)
                .expect("edge endpoints are connected");
        }
    }
}

#[test]
fn pool_holds_one_scratch_per_concurrent_search() {
    let engines: Vec<CommunityEngine> = graphs().into_iter().map(CommunityEngine::build).collect();
    assert_eq!(engines.len(), 8);
    assert_eq!(scratch_pool_stats(), ScratchPoolStats::default());

    // One thread, eight engines over eight graphs: one scratch serves all.
    search_all(&engines);
    search_all(&engines);
    let serial = scratch_pool_stats();
    assert_eq!(serial.idle, 1, "{serial:?}");
    assert!(serial.resident_bytes > 0, "{serial:?}");

    // Three threads at once: at most one scratch each.
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                start.wait();
                search_all(&engines);
            });
        }
    });
    let concurrent = scratch_pool_stats();
    assert!((1..=3).contains(&concurrent.idle), "{concurrent:?}");
}
