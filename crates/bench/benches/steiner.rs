//! The Steiner stage of LCTC's locate: the exact truss-distance (Def. 7)
//! tree over seeded query sets of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_core::steiner_tree;
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_truss::TrussIndex;
use std::time::Duration;

fn bench_steiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_truss_distance");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let net = mini_network("dblp", 7).expect("mini preset");
    let g = net.graph;
    let idx = TrussIndex::build(&g);
    for size in [2usize, 4, 8] {
        let mut qg = QueryGenerator::new(&g, 13);
        let q = qg.sample(size, DegreeRank::any(), 3).expect("query");
        group.bench_with_input(
            BenchmarkId::new("path_min_exact", format!("|Q|={size}")),
            &q,
            |b, q| b.iter(|| steiner_tree(&g, &idx, q, 3.0)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_steiner);
criterion_main!(benches);
