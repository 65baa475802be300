//! Microbench: truss decomposition and truss-index construction — the
//! offline cost behind Table 3 — on the mini presets and on the full
//! facebook and dblp presets a serving engine builds at start-up, plus
//! serial-vs-parallel comparisons of the frontier-peeling decomposition at
//! 1/2/4/8 threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_gen::{mini_network, network_by_name};
use ctc_graph::Parallelism;
use ctc_truss::{truss_decomposition, truss_decomposition_par, TrussIndex};
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

    // Serial vs parallel on the densest generated graph (the full facebook
    // preset: 87K edges on 4K vertices; dblp has more edges, 128K, but on
    // 32K vertices). threads=1 routes through the serial decomposition and
    // is the baseline; speedups at ≥2 threads require real cores, so run
    // this on multi-core hardware.
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

criterion_group!(benches, bench_decomposition);
criterion_main!(benches);
