//! Microbench: `FindG0` (Algorithm 2) — the `O(|E(G0)|)` claim of Remark 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_truss::{find_g0, TrussIndex};
use std::time::Duration;

fn bench_find_g0(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_g0");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let net = mini_network("facebook", 7).expect("mini preset");
    let g = net.graph;
    let idx = TrussIndex::build(&g);
    for size in [1usize, 4, 16] {
        let mut qg = QueryGenerator::new(&g, 11);
        let q = qg.sample(size, DegreeRank::top(0.8), 2).expect("query");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("|Q|={size}")),
            &q,
            |b, q| b.iter(|| find_g0(&g, &idx, q).expect("connected")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_find_g0);
criterion_main!(benches);
