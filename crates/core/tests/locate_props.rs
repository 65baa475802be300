//! Property suite pinning the copy-free locate paths to the constructions
//! they replaced, on ER, BA and planted graphs and Figure 1, for queries
//! of one to three vertices, uncapped and at every cap in `2..=6`:
//!
//! * `edge_subgraph` (and its pooled form) over `G0`, and over shuffled
//!   random edge subsets, equals a hash-map + `GraphBuilder` construction
//!   with the same discovery numbering, array for array;
//! * the Truss baseline's answer, taken straight from `G0`, equals the
//!   answer assembled from `subgraph_from_pairs` + `graph_query_distance`,
//!   edge order included.

use ctc_core::{Community, CtcConfig, CtcSearcher, PeelScratch, SearchAlgo};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::error::Result;
use ctc_graph::{
    edge_subgraph, edge_subgraph_with, graph_query_distance, subgraph_from_pairs, BfsScratch,
    CsrGraph, EdgeId, FxHashMap, GraphBuilder, Subgraph, SubgraphScratch, VertexId,
};
use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
use ctc_truss::{find_g0_with, FindScratch, TrussIndex};

const CAPS: [Option<u32>; 6] = [None, Some(2), Some(3), Some(4), Some(5), Some(6)];

/// The pre-pooled `edge_subgraph`: local ids from a hash map in discovery
/// order, edges sorted by `GraphBuilder`.
fn oracle_edge_subgraph(g: &CsrGraph, edges: &[EdgeId]) -> Subgraph {
    let mut from_parent: FxHashMap<u32, u32> = FxHashMap::default();
    let mut to_parent: Vec<u32> = Vec::new();
    let mut local_id = |p: u32| {
        *from_parent.entry(p).or_insert_with(|| {
            to_parent.push(p);
            (to_parent.len() - 1) as u32
        })
    };
    let mut b = GraphBuilder::with_capacity(edges.len());
    for &e in edges {
        let (u, v) = g.edge_endpoints(e);
        let (lu, lv) = (local_id(u.0), local_id(v.0));
        b.add_edge(lu, lv);
    }
    b.ensure_vertices(to_parent.len());
    Subgraph {
        graph: b.build(),
        to_parent,
        from_parent,
    }
}

/// The Truss answer as the searcher used to build it: a canonical copy of
/// `G0`, its vertices and edges mapped back, and the query distance by
/// BFS over the copy.
fn oracle_truss(g: &CsrGraph, idx: &TrussIndex, q: &[VertexId], cap: u32) -> Result<Community> {
    let g0 = find_g0_with(g, idx, q, cap, &mut FindScratch::new())?;
    let pairs: Vec<_> = g0.edges.iter().map(|&e| g.edge_endpoints(e)).collect();
    let sub = subgraph_from_pairs(&pairs);
    let ql = sub.locals(q).expect("query inside G0");
    let query_distance =
        graph_query_distance(&sub.graph, &ql, &mut BfsScratch::new(sub.num_vertices()));
    let mut vertices: Vec<VertexId> = sub.graph.vertices().map(|v| sub.parent(v)).collect();
    vertices.sort_unstable();
    let edges = sub
        .graph
        .edges()
        .map(|(_, u, v)| {
            let (pu, pv) = (sub.parent(u), sub.parent(v));
            (pu.min(pv), pu.max(pv))
        })
        .collect();
    Ok(Community {
        k: g0.k,
        vertices,
        edges,
        query_distance,
        iterations: 0,
        g0_size: (g0.vertices.len(), g0.edges.len()),
        timings: Default::default(),
    })
}

fn assert_same_subgraph(a: &Subgraph, b: &Subgraph, label: &str) {
    assert_eq!(
        a.graph.offsets_raw(),
        b.graph.offsets_raw(),
        "{label}: offsets"
    );
    assert_eq!(
        a.graph.neighbors_raw(),
        b.graph.neighbors_raw(),
        "{label}: rows"
    );
    assert_eq!(
        a.graph.arc_edges_raw(),
        b.graph.arc_edges_raw(),
        "{label}: arc ids"
    );
    assert_eq!(a.graph, b.graph, "{label}: edge list");
    assert_eq!(a.to_parent, b.to_parent, "{label}: to_parent");
    assert_eq!(a.from_parent, b.from_parent, "{label}: from_parent");
}

/// A small LCG: the suite's queries and edge subsets, seeded.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

fn exercise(g: &CsrGraph, seed: u64, label: &str) {
    let n = g.num_vertices();
    let idx = TrussIndex::build(g);
    let searcher = CtcSearcher::new(g);
    let mut rng = Lcg(seed | 1);
    // One pooled scratch of each kind across every query and cap, as the
    // engine's pool serves them.
    let mut peel = PeelScratch::new();
    let mut sub_scratch = SubgraphScratch::new();
    let mut find = FindScratch::new();
    for size in 1..=3 {
        let mut q: Vec<VertexId> = (0..size).map(|_| VertexId(rng.below(n) as u32)).collect();
        q.sort_unstable();
        q.dedup();
        for cap in CAPS {
            let tag = format!("{label}: q={q:?} cap={cap:?}");
            let cap_level = cap.unwrap_or(u32::MAX);
            let cfg = match cap {
                Some(k) => CtcConfig::new().fixed_k(k),
                None => CtcConfig::default(),
            };
            let direct = searcher.search_with(&q, SearchAlgo::TrussOnly, &cfg, &mut peel);
            match (direct, oracle_truss(g, &idx, &q, cap_level)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.k, b.k, "{tag}: k");
                    assert_eq!(a.vertices, b.vertices, "{tag}: vertices");
                    assert_eq!(a.edges, b.edges, "{tag}: edges");
                    assert_eq!(a.query_distance, b.query_distance, "{tag}: distance");
                    assert_eq!(a.iterations, b.iterations, "{tag}: iterations");
                    assert_eq!(a.g0_size, b.g0_size, "{tag}: g0 size");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{tag}: error"),
                (a, b) => panic!("{tag}: direct {a:?} vs oracle {b:?}"),
            }
            let Ok(g0) = find_g0_with(g, &idx, &q, cap_level, &mut find) else {
                continue;
            };
            let want = oracle_edge_subgraph(g, &g0.edges);
            assert_same_subgraph(&edge_subgraph(g, &g0.edges), &want, &tag);
            let pooled = edge_subgraph_with(g, &g0.edges, &mut sub_scratch);
            assert_same_subgraph(&pooled, &want, &tag);
        }
    }
    // Discovery numbering under arbitrary edge orders: shuffled random
    // subsets of distinct edges.
    let m = g.num_edges();
    for round in 0..4 {
        let mut edges: Vec<EdgeId> = (0..m)
            .filter(|_| rng.below(3) != 0)
            .map(EdgeId::from)
            .collect();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.below(i + 1));
        }
        let tag = format!("{label}: subset {round} of {} edges", edges.len());
        let want = oracle_edge_subgraph(g, &edges);
        let pooled = edge_subgraph_with(g, &edges, &mut sub_scratch);
        assert_same_subgraph(&pooled, &want, &tag);
    }
}

#[test]
fn er_graphs_match_the_old_constructions() {
    for seed in 0..8u64 {
        let n = 20 + (seed as usize % 5) * 13;
        let g = erdos_renyi_nm(n, n * 4, seed);
        exercise(&g, seed.wrapping_mul(977), "er");
    }
}

#[test]
fn ba_graphs_match_the_old_constructions() {
    for seed in 0..8u64 {
        let n = 25 + (seed as usize % 4) * 17;
        let g = barabasi_albert(n, 3, seed);
        exercise(&g, seed.wrapping_mul(1489), "ba");
    }
}

#[test]
fn planted_graphs_match_the_old_constructions() {
    for seed in 0..4u64 {
        let net = planted_partition(&PlantedConfig {
            community_sizes: vec![12, 15, 10],
            background_vertices: 5,
            p_in: 0.55,
            noise_edges_per_vertex: 1.0,
            seed,
        });
        exercise(&net.graph, seed.wrapping_mul(3331), "planted");
    }
}

#[test]
fn figure1_matches_the_old_constructions() {
    let g = figure1_graph();
    let f = Figure1Ids::default();
    for seed in 0..4u64 {
        exercise(&g, seed.wrapping_mul(7919), "figure1");
    }
    // The paper's query, whose G0 is the grey 4-truss (Example 4).
    let idx = TrussIndex::build(&g);
    let q = [f.q1, f.q2, f.q3];
    let direct = CtcSearcher::new(&g)
        .truss_only(&q, &CtcConfig::default())
        .unwrap();
    let want = oracle_truss(&g, &idx, &q, u32::MAX).unwrap();
    assert_eq!(direct.edges, want.edges);
    assert_eq!((direct.query_distance, direct.num_vertices()), (4, 11));
}
