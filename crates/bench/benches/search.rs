//! Microbench: the three CTC search algorithms end to end — the timing
//! series behind Figures 5–10 (Basic ≫ BD ≫ LCTC is the expected order) —
//! plus the peel-phase hot loop in isolation, cold-scratch vs warm-pooled
//! vs the full-recompute reference oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_core::{peel_reference, peel_with, CtcConfig, CtcSearcher, DeletePolicy, PeelScratch};
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_truss::find_g0;
use std::time::Duration;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctc_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let net = mini_network("facebook", 7).expect("mini preset");
    let g = net.graph;
    let searcher = CtcSearcher::new(&g);
    let cfg = CtcConfig::default();
    let mut qg = QueryGenerator::new(&g, 5);
    let q = qg.sample(3, DegreeRank::top(0.8), 2).expect("query");
    group.bench_with_input(BenchmarkId::new("basic", "fb-mini"), &q, |b, q| {
        b.iter(|| searcher.basic(q, &cfg).expect("basic"))
    });
    group.bench_with_input(BenchmarkId::new("bulk_delete", "fb-mini"), &q, |b, q| {
        b.iter(|| searcher.bulk_delete(q, &cfg).expect("bd"))
    });
    group.bench_with_input(BenchmarkId::new("lctc", "fb-mini"), &q, |b, q| {
        b.iter(|| searcher.local(q, &cfg).expect("lctc"))
    });
    group.bench_with_input(BenchmarkId::new("truss_only", "fb-mini"), &q, |b, q| {
        b.iter(|| searcher.truss_only(q, &cfg).expect("truss"))
    });
    group.finish();
}

/// The peel phase alone on the Basic/BD subgraph of the mini preset:
/// what the incremental distance engine (PR 5) actually accelerates.
fn bench_peel_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("peel_phase");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let net = mini_network("facebook", 7).expect("mini preset");
    let g = net.graph;
    let searcher = CtcSearcher::new(&g);
    let mut qg = QueryGenerator::new(&g, 5);
    let q = qg.sample(3, DegreeRank::top(0.8), 2).expect("query");
    let g0 = find_g0(&g, searcher.index(), &q).expect("G0 exists");
    let sub = ctc_graph::edge_subgraph(&g, &g0.edges);
    let ql = sub.locals(&q).expect("query inside G0");
    for (label, policy) in [
        ("bd", DeletePolicy::BulkAtLeast),
        ("lctc_inner", DeletePolicy::LocalGreedy),
        ("basic", DeletePolicy::SingleFurthest),
    ] {
        // Warm pooled scratch: the serving path (allocation-free rounds,
        // support-cache hits on the repeated community).
        let mut scratch = PeelScratch::new();
        let _ = peel_with(&sub.graph, &ql, g0.k, policy, None, &mut scratch);
        group.bench_with_input(BenchmarkId::new("warm", label), &ql, |b, ql| {
            b.iter(|| peel_with(&sub.graph, ql, g0.k, policy, None, &mut scratch))
        });
        // Cold scratch per call: what a pool miss pays.
        group.bench_with_input(BenchmarkId::new("cold", label), &ql, |b, ql| {
            b.iter(|| {
                let mut fresh = PeelScratch::new();
                peel_with(&sub.graph, ql, g0.k, policy, None, &mut fresh)
            })
        });
        // Full-recompute oracle: the pre-incremental loop.
        group.bench_with_input(BenchmarkId::new("reference", label), &ql, |b, ql| {
            b.iter(|| peel_reference(&sub.graph, ql, g0.k, policy, None))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search, bench_peel_phase);
criterion_main!(benches);
