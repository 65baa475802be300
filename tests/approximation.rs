//! The paper's approximation guarantees, checked against brute force.
//!
//! For small graphs the optimal CTC is computable exactly at every level
//! `k`: enumerate vertex supersets of `Q`, peel each induced subgraph to
//! its maximal k-truss, and take the minimum diameter among connected
//! candidates. (Taking the *maximal* k-truss per vertex set is sound:
//! adding edges over the same vertices never raises the diameter and never
//! breaks the truss condition, so some optimum is edge-maximal.)
//!
//! Theorem 3: `diam(Basic) ≤ 2·diam(OPT)`.
//! Theorem 6: `diam(BD) ≤ 2·diam(OPT) + 2`.
//! Problem 2: `decide_ctck`'s Yes, No and Unknown each agree with the
//! exact optimum at their level.

use ctc::core::{decide_ctck, CtckAnswer};
use ctc::prelude::*;
use ctc::truss::fixtures::{figure1_graph, Figure1Ids};
use ctc_graph::{
    diameter_exact, edge_supports, graph_from_edges, induced_subgraph, CsrGraph, DynGraph,
    VertexId, INF,
};
use proptest::prelude::*;

/// Highest level the brute force tries.
const MAX_K: u32 = 16;

/// Peels `live` to its maximal k-truss: removes edges with support
/// `< k − 2` to a fixpoint.
fn peel_to_ktruss(live: &mut DynGraph<'_>, k: u32) {
    loop {
        let doomed: Vec<_> = live
            .alive_edges()
            .filter(|&(_, u, v)| {
                let mut c = 0u32;
                live.for_each_common_neighbor(u, v, |_, _, _| c += 1);
                c + 2 < k
            })
            .map(|(e, _, _)| e)
            .collect();
        if doomed.is_empty() {
            break;
        }
        for e in doomed {
            live.remove_edge(e);
        }
    }
}

/// Exact CTC at every level by exhaustive search: `opt[k]` is the
/// minimum diameter of a connected k-truss containing `q`, or `None` when
/// no connected k-truss contains `q` (`opt[0]` and `opt[1]` stay `None`).
///
/// Only call on graphs with ≤ ~16 non-query vertices.
fn brute_force_levels(g: &CsrGraph, q: &[VertexId]) -> Vec<Option<u32>> {
    let others: Vec<VertexId> = g.vertices().filter(|v| !q.contains(v)).collect();
    assert!(others.len() <= 16, "brute force explosion");
    let mut opt: Vec<Option<u32>> = vec![None; MAX_K as usize + 1];
    for mask in 0u32..(1 << others.len()) {
        let mut vs: Vec<VertexId> = q.to_vec();
        for (i, &v) in others.iter().enumerate() {
            if mask & (1 << i) != 0 {
                vs.push(v);
            }
        }
        let sub = induced_subgraph(g, &vs);
        let ql: Vec<VertexId> = match sub.locals(q) {
            Some(l) => l,
            None => continue,
        };
        // Climb the levels on this vertex set: each maximal k-truss
        // contains the next level's, so the first level where the query
        // falls apart ends the climb.
        let mut live = DynGraph::new(&sub.graph);
        for k in 2..=MAX_K {
            peel_to_ktruss(&mut live, k);
            // Peeling removes edges only, so vertex ids are unchanged.
            let peeled = ctc_graph::alive_subgraph(&live).graph;
            // Every query vertex must survive with at least one edge — a
            // bare vertex is not a k-truss community.
            if ql.iter().any(|&v| peeled.degree(v) == 0) {
                break;
            }
            let mut scratch = ctc_graph::BfsScratch::new(peeled.num_vertices());
            if !ctc_graph::query_connected(&peeled, &ql, &mut scratch) {
                break;
            }
            // Restrict to Q's component for the diameter.
            scratch.run(&peeled, ql[0]);
            let comp: Vec<VertexId> = scratch.reached().collect();
            let csub = induced_subgraph(&peeled, &comp);
            // The component of a k-truss peel is itself a k-truss? Induced
            // on component keeps exactly the component's edges ✓.
            let sup = edge_supports(&csub.graph);
            if sup.iter().any(|&s| s + 2 < k) || csub.num_edges() == 0 {
                continue;
            }
            let d = diameter_exact(&csub.graph);
            if d == INF {
                continue;
            }
            let best = &mut opt[k as usize];
            *best = Some(best.map_or(d, |b| b.min(d)));
        }
    }
    opt
}

/// The highest level `opt` reaches, with its optimal diameter.
fn top_level(opt: &[Option<u32>]) -> Option<(u32, u32)> {
    (2..=MAX_K)
        .rev()
        .find_map(|k| opt[k as usize].map(|d| (k, d)))
}

/// Exact CTC by exhaustive search: returns `(k_max, optimal diameter)`.
///
/// Only call on graphs with ≤ ~16 non-query vertices.
fn brute_force_ctc(g: &CsrGraph, q: &[VertexId]) -> Option<(u32, u32)> {
    top_level(&brute_force_levels(g, q))
}

/// `decide_ctck` against the exact optimum `opt` (from
/// [`brute_force_levels`]) at every level up to one past the top and
/// every `d` in `0..=6`:
///
/// * Yes: the witness is a valid connected k-truss containing `q` with
///   diameter ≤ d;
/// * No: no connected k-truss containing `q` has diameter ≤ d;
/// * Unknown: lower bound ≤ d < achieved diameter.
///
/// Every lower bound the decider certifies is at most the optimum.
fn check_decision(searcher: &CtcSearcher<'_>, q: &[VertexId], opt: &[Option<u32>]) {
    let (k_opt, _) = top_level(opt).expect("a feasible level");
    for k in 2..=k_opt + 1 {
        let best = opt[k as usize];
        for d in 0..=6u32 {
            let answer = decide_ctck(searcher, q, k, d).expect("decision");
            match &answer {
                CtckAnswer::Yes(c) => {
                    assert_eq!(c.k, k, "witness level (k={k}, d={d})");
                    c.validate(q)
                        .unwrap_or_else(|e| panic!("invalid witness (k={k}, d={d}): {e}"));
                    assert!(c.diameter() <= d, "witness too wide (k={k}, d={d})");
                }
                CtckAnswer::No {
                    diameter_lower_bound,
                } => {
                    assert!(
                        best.is_none_or(|b| b > d),
                        "No, but a {k}-truss of diameter {best:?} <= {d} exists"
                    );
                    assert!(
                        best.is_none_or(|b| *diameter_lower_bound <= b),
                        "lower bound {diameter_lower_bound} above the optimum {best:?} (k={k})"
                    );
                }
                CtckAnswer::Unknown {
                    achieved_diameter,
                    diameter_lower_bound,
                } => {
                    assert!(
                        *diameter_lower_bound <= d && d < *achieved_diameter,
                        "Unknown outside its bracket (k={k}, d={d}): {answer:?}"
                    );
                    let b = best.expect("Unknown at a level with a community");
                    assert!(
                        *diameter_lower_bound <= b,
                        "lower bound {diameter_lower_bound} above the optimum {b} (k={k})"
                    );
                }
            }
        }
    }
}

#[test]
fn figure1_brute_force_confirms_example4() {
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let q = [f.q1, f.q2, f.q3];
    let (k, opt) = brute_force_ctc(&g, &q).expect("feasible");
    assert_eq!(k, 4);
    assert_eq!(opt, 3, "Figure 1(b) is optimal");
    let searcher = CtcSearcher::new(&g);
    let basic = searcher.basic(&q, &CtcConfig::default()).unwrap();
    assert_eq!(basic.k, k);
    assert!(basic.diameter() <= 2 * opt);
    // On this instance Basic is exactly optimal (Example 4).
    assert_eq!(basic.diameter(), opt);
}

#[test]
fn figure1_bd_within_guarantee() {
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let q = [f.q1, f.q2, f.q3];
    let (_, opt) = brute_force_ctc(&g, &q).expect("feasible");
    let searcher = CtcSearcher::new(&g);
    let bd = searcher.bulk_delete(&q, &CtcConfig::default()).unwrap();
    assert!(
        bd.diameter() <= 2 * opt + 2,
        "BD diameter {} vs bound {}",
        bd.diameter(),
        2 * opt + 2
    );
}

#[test]
fn figure1_decision_matches_brute_force() {
    let g = figure1_graph();
    let f = Figure1Ids::default();
    let q = [f.q1, f.q2, f.q3];
    let opt = brute_force_levels(&g, &q);
    assert_eq!(top_level(&opt), Some((4, 3)), "Figure 1(b) is optimal");
    // Example 2: at k = 2 the 5-cycle through q1, q2, q3 has diameter 2.
    assert_eq!(opt[2], Some(2));
    check_decision(&CtcSearcher::new(&g), &q, &opt);
}

/// Random small graphs: every algorithm returns a valid community whose
/// trussness matches the brute-force max, Basic honors the
/// 2-approximation, and the CTCk decision agrees with brute force at
/// every level.
fn check_on_graph(edges: &[(u32, u32)], q_raw: &[u32]) {
    let g = graph_from_edges(edges);
    if g.num_vertices() < 2 {
        return;
    }
    let q: Vec<VertexId> = q_raw
        .iter()
        .map(|&v| VertexId(v % g.num_vertices() as u32))
        .collect();
    let mut qd: Vec<VertexId> = q.clone();
    qd.sort();
    qd.dedup();
    if qd.iter().any(|&v| g.degree(v) == 0) {
        return;
    }
    let searcher = CtcSearcher::new(&g);
    let cfg = CtcConfig::default();
    let basic = match searcher.basic(&qd, &cfg) {
        Ok(c) => c,
        Err(_) => return, // disconnected query: nothing to check
    };
    let opt = brute_force_levels(&g, &qd);
    let Some((k_opt, d_opt)) = top_level(&opt) else {
        panic!("algorithm found a community but brute force found none");
    };
    assert_eq!(basic.k, k_opt, "Basic must find the maximum trussness");
    assert!(
        basic.diameter() <= 2 * d_opt,
        "2-approximation violated: basic {} opt {}",
        basic.diameter(),
        d_opt
    );
    basic.validate(&qd).unwrap();
    let bd = searcher.bulk_delete(&qd, &cfg).unwrap();
    assert_eq!(bd.k, k_opt);
    assert!(bd.diameter() <= 2 * d_opt + 2, "BD bound violated");
    bd.validate(&qd).unwrap();
    let lctc = searcher.local(&qd, &cfg).unwrap();
    lctc.validate(&qd).unwrap();
    check_decision(&searcher, &qd, &opt);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn approximation_holds_on_random_graphs(
        edges in proptest::collection::vec((0u32..10, 0u32..10), 8..28),
        q in proptest::collection::vec(0u32..10, 1..3),
    ) {
        check_on_graph(&edges, &q);
    }
}

#[test]
fn dense_small_graph_regression() {
    // Near-complete graph on 8 vertices with a few chords removed.
    let mut edges = Vec::new();
    for u in 0..8u32 {
        for v in (u + 1)..8 {
            if (u, v) != (0, 7) && (u, v) != (2, 5) {
                edges.push((u, v));
            }
        }
    }
    check_on_graph(&edges, &[0, 7]);
}
