//! Property suite pinning the copy-free locate paths and the map-free
//! subgraph copies to the constructions they replaced, on ER, BA and
//! planted graphs and Figure 1, for queries of one to three vertices,
//! uncapped and at every cap in `2..=6`:
//!
//! * `edge_subgraph` (and its pooled form) over `G0`, and over shuffled
//!   random edge subsets, equals a hash-map + `GraphBuilder` construction
//!   with the same discovery numbering, array for array;
//! * every caller of the shared ascending-id constructor equals the same
//!   construction fed the ascending vertex list first: `induced_subgraph`
//!   on shuffled input with repeats, `alive_subgraph` after random
//!   deletions, `Community::subgraph` on every algorithm's answers, and
//!   `subgraph_from_pairs` with repeated and self-loop pairs;
//! * `Subgraph::local` agrees with the construction's map on every parent
//!   id, present or absent;
//! * the Truss baseline's answer, taken straight from `G0`, equals the
//!   answer assembled from `subgraph_from_pairs` + `graph_query_distance`,
//!   edge order included.

use ctc_core::{Community, CtcConfig, CtcSearcher, PeelScratch, SearchAlgo};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::error::Result;
use ctc_graph::{
    alive_subgraph, edge_subgraph, edge_subgraph_with, graph_query_distance, induced_subgraph,
    subgraph_from_pairs, BfsScratch, CsrGraph, DynGraph, EdgeId, FxHashMap, GraphBuilder, Subgraph,
    SubgraphScratch, VertexId,
};
use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
use ctc_truss::{find_g0_with, FindScratch, TrussIndex};
use std::collections::BTreeSet;

const CAPS: [Option<u32>; 6] = [None, Some(2), Some(3), Some(4), Some(5), Some(6)];

/// The hash-map + `GraphBuilder` construction every copy is held to:
/// local ids from a hash map in order of first appearance, in `vertices`
/// and then in `pairs`; `GraphBuilder` drops self-loops and repeats and
/// sorts the edges. Returns the map too, the oracle for `local()`.
fn oracle_subgraph(
    vertices: impl IntoIterator<Item = u32>,
    pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> (Subgraph, FxHashMap<u32, u32>) {
    let mut from_parent: FxHashMap<u32, u32> = FxHashMap::default();
    let mut to_parent: Vec<u32> = Vec::new();
    let mut local_id = |p: u32| {
        *from_parent.entry(p).or_insert_with(|| {
            to_parent.push(p);
            (to_parent.len() - 1) as u32
        })
    };
    for p in vertices {
        local_id(p);
    }
    let mut b = GraphBuilder::new();
    for (u, v) in pairs {
        let (lu, lv) = (local_id(u.0), local_id(v.0));
        b.add_edge(lu, lv);
    }
    b.ensure_vertices(to_parent.len());
    let sub = Subgraph {
        graph: b.build(),
        to_parent,
    };
    (sub, from_parent)
}

/// The pre-pooled `edge_subgraph`: local ids in discovery order.
fn oracle_edge_subgraph(g: &CsrGraph, edges: &[EdgeId]) -> (Subgraph, FxHashMap<u32, u32>) {
    oracle_subgraph([], edges.iter().map(|&e| g.edge_endpoints(e)))
}

/// A copy with ascending local ids: the ascending vertex list first, so
/// the pairs add no vertex.
fn oracle_ascending(
    vertices: impl IntoIterator<Item = u32>,
    pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> (Subgraph, FxHashMap<u32, u32>) {
    let ascending: BTreeSet<u32> = vertices.into_iter().collect();
    oracle_subgraph(ascending, pairs)
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

/// `a` equals the oracle's copy array for array, and its `local()`
/// answers as the oracle's map does for every parent id below `n`.
fn assert_same_subgraph(
    a: &Subgraph,
    want: &(Subgraph, FxHashMap<u32, u32>),
    n: usize,
    label: &str,
) {
    let (b, map) = want;
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
    for p in 0..n as u32 {
        let want = map.get(&p).map(|&l| VertexId(l));
        assert_eq!(a.local(VertexId(p)), want, "{label}: local({p})");
    }
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

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const ALGOS: [SearchAlgo; 4] = [
    SearchAlgo::Basic,
    SearchAlgo::BulkDelete,
    SearchAlgo::Local,
    SearchAlgo::TrussOnly,
];

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
            assert_same_subgraph(&edge_subgraph(g, &g0.edges), &want, n, &tag);
            let pooled = edge_subgraph_with(g, &g0.edges, &mut sub_scratch);
            assert_same_subgraph(&pooled, &want, n, &tag);
            // G0's endpoint pairs, shuffled, with repeats (some reversed)
            // and self-loops, one of them on a vertex outside G0.
            let mut pairs: Vec<(VertexId, VertexId)> =
                g0.edges.iter().map(|&e| g.edge_endpoints(e)).collect();
            for i in 0..pairs.len() / 3 {
                let (u, v) = pairs[i * 2 % pairs.len()];
                pairs.push(if i % 2 == 0 { (u, v) } else { (v, u) });
            }
            pairs.push((q[0], q[0]));
            let loner = VertexId(rng.below(n) as u32);
            pairs.push((loner, loner));
            rng.shuffle(&mut pairs);
            let want = oracle_ascending(pairs.iter().flat_map(|&(u, v)| [u.0, v.0]), pairs.clone());
            assert_same_subgraph(
                &subgraph_from_pairs(&pairs),
                &want,
                n,
                &format!("{tag}: pairs"),
            );
        }
        // Every algorithm's answer, copied by `Community::subgraph`.
        for algo in ALGOS {
            let Ok(c) = searcher.search_with(&q, algo, &CtcConfig::default(), &mut peel) else {
                continue;
            };
            let want = oracle_ascending(c.vertices.iter().map(|v| v.0), c.edges.clone());
            assert_same_subgraph(
                &c.subgraph(),
                &want,
                n,
                &format!("{label}: {algo:?} q={q:?}"),
            );
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
        rng.shuffle(&mut edges);
        let tag = format!("{label}: subset {round} of {} edges", edges.len());
        let want = oracle_edge_subgraph(g, &edges);
        let pooled = edge_subgraph_with(g, &edges, &mut sub_scratch);
        assert_same_subgraph(&pooled, &want, n, &tag);
    }
    // Induced copies of shuffled vertex subsets with repeats.
    for round in 0..4 {
        let mut vertices: Vec<VertexId> = g.vertices().filter(|_| rng.below(2) == 0).collect();
        for i in 0..vertices.len() / 4 {
            vertices.push(vertices[i * 3 % vertices.len()]);
        }
        rng.shuffle(&mut vertices);
        let members: BTreeSet<u32> = vertices.iter().map(|v| v.0).collect();
        let pairs = g
            .edges()
            .map(|(_, u, v)| (u, v))
            .filter(|(u, v)| members.contains(&u.0) && members.contains(&v.0));
        let want = oracle_ascending(members.iter().copied(), pairs);
        let tag = format!("{label}: induced {round} on {} listed", vertices.len());
        assert_same_subgraph(&induced_subgraph(g, &vertices), &want, n, &tag);
    }
    // Alive copies after random vertex and edge deletions.
    for round in 0..4 {
        let mut live = DynGraph::new(g);
        for _ in 0..n / 5 {
            live.remove_vertex(VertexId(rng.below(n) as u32));
        }
        for _ in 0..m / 5 {
            live.remove_edge(EdgeId::from(rng.below(m)));
        }
        let alive = (0..n as u32).filter(|&v| live.is_vertex_alive(VertexId(v)));
        let pairs: Vec<_> = live.alive_edges().map(|(_, u, v)| (u, v)).collect();
        let want = oracle_ascending(alive, pairs);
        let tag = format!("{label}: alive {round}");
        assert_same_subgraph(&alive_subgraph(&live), &want, n, &tag);
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
