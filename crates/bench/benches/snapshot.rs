//! Microbench: the serving split — offline index construction (cold) vs
//! `.ctci` snapshot load (warm start) vs batched warm queries.
//!
//! The paper's Remark 1 prices the offline build at `O(ρ·m)`; a snapshot
//! load replaces that with an `O(n + m)` validated array read plus the
//! deterministic truss-order row rebuild. The checksum group splits out
//! the load's integrity check: the version-1 trailer's byte-serial FNV-1a
//! against the version-2 word-parallel `lanes64` over the same image. The
//! warm-batch group then prices what a serving process actually pays per
//! request once the engine is up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_core::{CommunityEngine, EngineQuery, SearchAlgo};
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_graph::io::{fnv1a64, lanes64};
use ctc_truss::{Snapshot, TrussIndex};
use std::time::Duration;

fn bench_snapshot(c: &mut Criterion) {
    let net = mini_network("facebook", 7).expect("mini preset");
    let g = net.graph;
    let snap = Snapshot::build(g.clone());
    let raw = snap.to_bytes();

    // Offline: the cost a process pays without a snapshot.
    let mut group = c.benchmark_group("snapshot_cold_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("truss_index_build", |b| b.iter(|| TrussIndex::build(&g)));
    group.finish();

    // Warm start: parse + validate + deterministic row rebuild.
    let mut group = c.benchmark_group("snapshot_load");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}B", raw.len())),
        &raw,
        |b, raw| b.iter(|| Snapshot::from_bytes(raw).expect("valid snapshot")),
    );
    group.finish();

    // The integrity check alone: both trailer checksums over one image.
    let mut group = c.benchmark_group("checksum");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("fnv1a64", format!("{}B", raw.len())),
        &raw,
        |b, raw| b.iter(|| fnv1a64(raw)),
    );
    group.bench_with_input(
        BenchmarkId::new("lanes64", format!("{}B", raw.len())),
        &raw,
        |b, raw| b.iter(|| lanes64(raw)),
    );
    group.finish();

    // Online: batched queries against the shared engine.
    let engine = CommunityEngine::from_snapshot(snap);
    let mut qg = QueryGenerator::new(engine.graph(), 11);
    let mut group = c.benchmark_group("snapshot_warm_batch");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for batch in [1usize, 8, 32] {
        let queries: Vec<EngineQuery> = (0..batch)
            .map(|_| {
                EngineQuery::new(qg.sample(2, DegreeRank::top(0.8), 2).expect("query"))
                    .algo(SearchAlgo::Local)
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("batch={batch}")),
            &queries,
            |b, queries| b.iter(|| engine.search_batch(queries)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
