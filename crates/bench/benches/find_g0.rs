//! Microbench: `FindG0` (Algorithm 2) — the `O(|E(G0)|)` claim of Remark 2
//! — and the whole locate step built on it.
//!
//! `find_g0` times Algorithm 2 alone on the mini facebook preset for
//! growing `|Q|`. `locate` runs a fixed set of seeded queries on the full
//! facebook and dblp presets, drawn as ctcbench draws them (|Q| = 3 from
//! the top 80% by degree, pairwise within 2 hops), through warm pooled
//! scratches, and times three things for the whole set: FindG0 alone;
//! BulkDelete's locate, which is FindG0 plus the copy of `G0` the peel
//! runs on; and the Truss baseline, which is FindG0 plus the answer taken
//! from `G0`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctc_core::{CtcConfig, CtcSearcher, PeelScratch, SearchAlgo};
use ctc_gen::{mini_network, network_by_name, DegreeRank, QueryGenerator};
use ctc_graph::{edge_subgraph_with, SubgraphScratch, VertexId};
use ctc_truss::{find_g0, find_g0_with, FindScratch, TrussIndex};
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

/// Seeded queries per preset in the `locate` group.
const LOCATE_QUERIES: usize = 10;

fn bench_locate(c: &mut Criterion) {
    let mut group = c.benchmark_group("locate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for name in ["facebook", "dblp"] {
        let g = network_by_name(name).expect("full preset").data.graph;
        let searcher = CtcSearcher::new(&g);
        let idx = searcher.index();
        let mut qg = QueryGenerator::new(&g, 1);
        let queries: Vec<Vec<VertexId>> = (0..LOCATE_QUERIES)
            .filter_map(|_| qg.sample(3, DegreeRank::top(0.8), 2))
            .collect();
        let mut find = FindScratch::new();
        let mut sub = SubgraphScratch::new();
        let mut peel = PeelScratch::new();
        let cfg = CtcConfig::default();
        let edges: usize = queries
            .iter()
            .map(|q| {
                let g0 = find_g0_with(&g, idx, q, u32::MAX, &mut find).expect("connected");
                edge_subgraph_with(&g, &g0.edges, &mut sub);
                searcher
                    .search_with(q, SearchAlgo::TrussOnly, &cfg, &mut peel)
                    .expect("connected");
                g0.edges.len()
            })
            .sum();
        let label = format!("{name}/{} queries, {edges} G0 edges", queries.len());
        group.bench_function(BenchmarkId::new("find_g0", &label), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(find_g0_with(&g, idx, q, u32::MAX, &mut find).expect("connected"));
                }
            })
        });
        group.bench_function(BenchmarkId::new("bulk_delete", &label), |b| {
            b.iter(|| {
                for q in &queries {
                    let g0 = find_g0_with(&g, idx, q, u32::MAX, &mut find).expect("connected");
                    black_box(edge_subgraph_with(&g, &g0.edges, &mut sub));
                }
            })
        });
        group.bench_function(BenchmarkId::new("truss", &label), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(
                        searcher
                            .search_with(q, SearchAlgo::TrussOnly, &cfg, &mut peel)
                            .expect("connected"),
                    );
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_find_g0, bench_locate);
criterion_main!(benches);
