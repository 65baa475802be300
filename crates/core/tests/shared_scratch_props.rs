//! One scratch, many graphs, same answers.
//!
//! Every [`CommunityEngine`] draws its peel scratches from one
//! process-wide pool, so a scratch grown on one graph serves the next
//! search on another. On pairs of ER/BA/planted graphs of different sizes,
//! plus Figure 1, every answer must equal a fresh-scratch search
//! (`searcher().search_with(…, &mut PeelScratch::new())`) field for
//! field, for every algorithm, with and without a fixed k, when searches
//! interleave across the engines:
//!
//! - through one explicitly shared scratch, grown on the larger graph,
//!   reused on the smaller and on Figure 1, then back on the larger;
//! - through [`CommunityEngine::search`], which draws from the pool;
//! - through [`CommunityEngine::search`] on 4 threads at once, striding
//!   over every engine's queries, so concurrent checkouts serve
//!   different graphs.

use ctc_core::{Community, CommunityEngine, CtcConfig, PeelScratch, SearchAlgo};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::error::Result;
use ctc_graph::{CsrGraph, VertexId};
use ctc_truss::fixtures::figure1_graph;
use proptest::prelude::*;

const ALGOS: [SearchAlgo; 4] = [
    SearchAlgo::Basic,
    SearchAlgo::BulkDelete,
    SearchAlgo::Local,
    SearchAlgo::TrussOnly,
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An ER, BA or planted-partition graph on `n` vertices.
fn graph(kind: u8, n: usize, seed: u64) -> CsrGraph {
    match kind {
        0 => erdos_renyi_nm(n, n * 4, seed),
        1 => barabasi_albert(n, 3, seed),
        _ => {
            planted_partition(&PlantedConfig {
                community_sizes: vec![n / 3, n / 4, n / 5],
                background_vertices: n / 10,
                p_in: 0.5,
                noise_edges_per_vertex: 1.0,
                seed,
            })
            .graph
        }
    }
}

/// Three queries of one to three vertices, drawn from edge endpoints so
/// that most are connected; a disconnected one must fail alike on both
/// sides.
fn queries(g: &CsrGraph, rng: &mut u64) -> Vec<Vec<VertexId>> {
    let edges: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
    if edges.is_empty() {
        return Vec::new();
    }
    (0..3)
        .map(|len| {
            (0..=len)
                .map(|_| {
                    let (u, v) = edges[(splitmix(rng) % edges.len() as u64) as usize];
                    if splitmix(rng).is_multiple_of(2) {
                        u
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// The answer of a search over a scratch no other search has touched.
fn fresh(engine: &CommunityEngine, q: &[VertexId], algo: SearchAlgo) -> Result<Community> {
    engine
        .searcher()
        .search_with(q, algo, engine.config(), &mut PeelScratch::new())
}

fn assert_same(got: &Result<Community>, want: &Result<Community>, label: &str) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.k, b.k, "{label}: k");
            assert_eq!(a.vertices, b.vertices, "{label}: vertices");
            assert_eq!(a.edges, b.edges, "{label}: edges");
            assert_eq!(
                a.query_distance, b.query_distance,
                "{label}: query distance"
            );
            assert_eq!(a.iterations, b.iterations, "{label}: iterations");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: error"),
        (a, b) => panic!("{label}: shared scratch gave {a:?}, a fresh one {b:?}"),
    }
}

/// One engine's workload: its queries and their fresh-scratch answers.
struct Workload {
    engine: CommunityEngine,
    name: &'static str,
    queries: Vec<Vec<VertexId>>,
    want: Vec<Vec<Result<Community>>>,
}

impl Workload {
    fn new(engine: CommunityEngine, name: &'static str, rng: &mut u64) -> Self {
        let queries = queries(engine.graph(), rng);
        let want = queries
            .iter()
            .map(|q| ALGOS.iter().map(|&algo| fresh(&engine, q, algo)).collect())
            .collect();
        Workload {
            engine,
            name,
            queries,
            want,
        }
    }

    fn label(&self, qi: usize, algo: SearchAlgo, path: &str) -> String {
        let q = &self.queries[qi];
        let k = self.engine.config().fixed_k;
        format!("{} {path}: {q:?} via {algo:?}, fixed k {k:?}", self.name)
    }
}

fn check_interleaved(small: CsrGraph, large: CsrGraph, fixed_k: u32, seed: u64) {
    let mut rng = seed;
    let bases = [
        (CommunityEngine::build(large), "large"),
        (CommunityEngine::build(small), "small"),
        (CommunityEngine::build(figure1_graph()), "figure1"),
    ];
    for cfg in [CtcConfig::default(), CtcConfig::new().fixed_k(fixed_k)] {
        let loads: Vec<Workload> = bases
            .iter()
            .map(|(e, name)| Workload::new(e.clone().with_config(cfg.clone()), name, &mut rng))
            .collect();
        // Large, small, Figure 1, then large again.
        let order = [0, 1, 2, 0];

        let mut shared = PeelScratch::new();
        for &w in &order {
            let load = &loads[w];
            for (qi, q) in load.queries.iter().enumerate() {
                for (ai, &algo) in ALGOS.iter().enumerate() {
                    let got = load.engine.searcher().search_with(
                        q,
                        algo,
                        load.engine.config(),
                        &mut shared,
                    );
                    assert_same(&got, &load.want[qi][ai], &load.label(qi, algo, "shared"));
                }
            }
        }

        // Query by query, alternating engines: each search draws from the
        // pool the previous one, on another graph, returned to.
        for qi in 0..3 {
            for &w in &order {
                let load = &loads[w];
                let Some(q) = load.queries.get(qi) else {
                    continue;
                };
                for (ai, &algo) in ALGOS.iter().enumerate() {
                    let got = load.engine.search(q, algo);
                    assert_same(&got, &load.want[qi][ai], &load.label(qi, algo, "search"));
                }
            }
        }

        // Every engine's queries under every algorithm, searched by four
        // threads at once.
        let batch: Vec<(usize, usize, usize)> = loads
            .iter()
            .enumerate()
            .flat_map(|(w, load)| {
                (0..load.queries.len())
                    .flat_map(move |qi| (0..ALGOS.len()).map(move |ai| (w, qi, ai)))
            })
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (loads, batch) = (&loads, &batch);
                scope.spawn(move || {
                    for &(w, qi, ai) in batch.iter().skip(t).step_by(4) {
                        let load = &loads[w];
                        let got = load.engine.search(&load.queries[qi], ALGOS[ai]);
                        let label = load.label(qi, ALGOS[ai], "threads");
                        assert_same(&got, &load.want[qi][ai], &label);
                    }
                });
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn shared_scratches_answer_like_fresh_ones(
        small_kind in 0u8..3,
        large_kind in 0u8..3,
        small_n in 16usize..48,
        large_n in 60usize..120,
        fixed_k in 2u32..6,
        seed in 0u64..100_000,
    ) {
        let small = graph(small_kind, small_n, seed);
        let large = graph(large_kind, large_n, seed ^ 0x5eed);
        check_interleaved(small, large, fixed_k, seed);
    }
}
