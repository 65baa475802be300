//! Microbench: truss decomposition and truss-index construction — the
//! offline cost behind Table 3 — on the mini presets and on the full
//! facebook and dblp presets a serving engine builds at start-up, the
//! PKT frontier-peeling oracle at 2/4/8 threads against the serial kernel,
//! and LCTC's per-query decomposition of its local graph `Gt` through one
//! warm pooled scratch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_core::local::expand_tree;
use ctc_core::{steiner_tree, CtcConfig};
use ctc_gen::{mini_network, network_by_name, DegreeRank, QueryGenerator};
use ctc_graph::{CsrGraph, Parallelism};
use ctc_truss::{
    truss_decomposition, truss_decomposition_par, truss_decomposition_with, DecomposeScratch,
    TrussIndex,
};
use std::time::Duration;

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("truss_decomposition");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for name in ["facebook", "dblp"] {
        let mini = mini_network(name, 7).expect("mini preset").graph;
        let preset = network_by_name(name).expect("full preset").data.graph;
        for (label, g) in [(format!("{name}-mini"), &mini), (name.to_string(), &preset)] {
            group.bench_with_input(
                BenchmarkId::new("decompose", format!("{label}/m={}", g.num_edges())),
                g,
                |b, g| b.iter(|| truss_decomposition(g)),
            );
            group.bench_with_input(
                BenchmarkId::new("index_build", format!("{label}/m={}", g.num_edges())),
                g,
                |b, g| b.iter(|| TrussIndex::build(g)),
            );
        }
    }
    group.finish();

    // The PKT oracle against the serial kernel on the densest generated
    // graph (the full facebook preset: 87K edges on 4K vertices; dblp has
    // more edges, 128K, but on 32K vertices). threads=1 routes through the
    // serial decomposition and is the baseline every build runs; PKT would
    // have to beat it on real cores to earn a build path.
    let net = network_by_name("facebook").expect("full preset");
    let g = net.data.graph;
    let mut group = c.benchmark_group("truss_decomposition_parallel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(
                format!("facebook/m={}", g.num_edges()),
                format!("t={threads}"),
            ),
            &g,
            |b, g| b.iter(|| truss_decomposition_par(g, Parallelism::threads(threads))),
        );
    }
    group.finish();
}

/// LCTC's local graphs `Gt` (Algorithm 5, steps 2–3) for a fixed set of
/// `count` seeded queries, drawn as ctcbench draws them: |Q| = 3 from the
/// top 80% by degree, pairwise within 2 hops.
fn lctc_local_graphs(g: &CsrGraph, count: usize) -> Vec<CsrGraph> {
    let idx = TrussIndex::build(g);
    let cfg = CtcConfig::default();
    let mut gen = QueryGenerator::new(g, 1);
    (0..count)
        .filter_map(|_| {
            let q = gen.sample(3, DegreeRank::top(0.8), 2)?;
            let tree = steiner_tree(g, &idx, &q, cfg.gamma)?;
            Some(expand_tree(&idx, &tree, cfg.eta).graph)
        })
        .collect()
}

/// The decomposition stage of LCTC's locate: every `Gt` of the seeded set
/// in turn, through one scratch already warm on all of them, as the
/// pooled `PeelScratch` serves it.
fn bench_lctc_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("lctc_local");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for name in ["facebook", "dblp"] {
        let g = network_by_name(name).expect("full preset").data.graph;
        let locals = lctc_local_graphs(&g, 20);
        let edges: usize = locals.iter().map(CsrGraph::num_edges).sum();
        let mut scratch = DecomposeScratch::new();
        for gt in &locals {
            truss_decomposition_with(gt, &mut scratch);
        }
        group.bench_function(
            BenchmarkId::new(
                "decompose",
                format!("{name}/{} Gt, {edges} edges", locals.len()),
            ),
            |b| {
                b.iter(|| {
                    for gt in &locals {
                        black_box(truss_decomposition_with(gt, &mut scratch));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decomposition, bench_lctc_local);
criterion_main!(benches);
