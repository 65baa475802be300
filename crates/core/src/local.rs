//! Local exploration for LCTC (Algorithm 5, steps 2–3): expand the Steiner
//! tree into a bounded neighborhood graph `Gt`.
//!
//! Starting from the tree vertices, a multi-source BFS follows only edges
//! with trussness ≥ `kt` (the tree's minimum edge trussness) and stops
//! admitting new vertices once `η` are selected. The final `Gt` is closed
//! under qualifying edges between selected vertices, which maximizes the
//! trussness the local decomposition can certify.

use crate::steiner::SteinerTree;
use ctc_graph::{CsrGraph, GraphBuilder, Subgraph, VertexId};
use ctc_truss::TrussIndex;

/// Expands `tree` into a locality `Gt` of at most `eta` vertices.
pub fn expand_tree(_g: &CsrGraph, idx: &TrussIndex, tree: &SteinerTree, eta: usize) -> Subgraph {
    let kt = tree.min_truss;
    let mut from_parent: ctc_graph::FxHashMap<u32, u32> = Default::default();
    let mut to_parent: Vec<u32> = Vec::new();
    let mut queue: std::collections::VecDeque<VertexId> = Default::default();
    for &v in &tree.vertices {
        if let std::collections::hash_map::Entry::Vacant(e) = from_parent.entry(v.0) {
            e.insert(to_parent.len() as u32);
            to_parent.push(v.0);
            queue.push_back(v);
        }
    }
    let budget = eta.max(to_parent.len());
    while let Some(v) = queue.pop_front() {
        if to_parent.len() >= budget {
            break;
        }
        for (nb, _, _) in idx.incident_at_least(v, kt) {
            if to_parent.len() >= budget {
                break;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = from_parent.entry(nb.0) {
                e.insert(to_parent.len() as u32);
                to_parent.push(nb.0);
                queue.push_back(nb);
            }
        }
    }
    // Close Gt under τ ≥ kt edges among the selected vertices.
    let mut b = GraphBuilder::new();
    b.ensure_vertices(to_parent.len());
    for (lu, &pu) in to_parent.iter().enumerate() {
        for (nb, _, _) in idx.incident_at_least(VertexId(pu), kt) {
            if nb.0 <= pu {
                continue;
            }
            if let Some(&lv) = from_parent.get(&nb.0) {
                b.add_edge(lu as u32, lv);
            }
        }
    }
    // The tree's own edges are τ ≥ kt by definition of kt, so they are
    // already included; Q is therefore connected inside Gt.
    Subgraph {
        graph: b.build(),
        to_parent,
        from_parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SteinerMode;
    use crate::steiner::steiner_tree;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};

    fn setup() -> (CsrGraph, TrussIndex, Figure1Ids) {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        (g, idx, Figure1Ids::default())
    }

    #[test]
    fn expansion_contains_tree_and_respects_kt() {
        let (g, idx, f) = setup();
        let q = [f.q1, f.q2, f.q3];
        let tree = steiner_tree(&g, &idx, &q, 3.0, SteinerMode::PathMinExact).unwrap();
        let gt = expand_tree(&g, &idx, &tree, 1000);
        for &v in &tree.vertices {
            assert!(gt.local(v).is_some(), "tree vertex {v} missing from Gt");
        }
        // kt = 4 here: Gt must exclude t (its edges have trussness 2).
        assert!(gt.local(f.t).is_none());
        // Every Gt edge has parent trussness ≥ kt.
        for (_, lu, lv) in gt.graph.edges() {
            let (pu, pv) = (gt.parent(lu), gt.parent(lv));
            let e = g.edge_between(pu, pv).unwrap();
            assert!(idx.edge_truss(e) >= tree.min_truss);
        }
    }

    #[test]
    fn eta_bounds_vertex_count() {
        let (g, idx, f) = setup();
        let tree = steiner_tree(&g, &idx, &[f.q1], 3.0, SteinerMode::PathMinExact).unwrap();
        let gt = expand_tree(&g, &idx, &tree, 3);
        assert!(gt.num_vertices() <= 3);
        assert!(gt.local(f.q1).is_some());
    }

    #[test]
    fn large_eta_captures_whole_truss_level() {
        let (g, idx, f) = setup();
        let q = [f.q1, f.q2, f.q3];
        let tree = steiner_tree(&g, &idx, &q, 3.0, SteinerMode::PathMinExact).unwrap();
        let gt = expand_tree(&g, &idx, &tree, 10_000);
        // All 11 grey vertices are reachable via trussness-4 edges.
        assert_eq!(gt.num_vertices(), 11);
        assert_eq!(gt.num_edges(), 23);
    }

    #[test]
    fn tree_edges_survive_expansion() {
        let (g, idx, f) = setup();
        let q = [f.q2, f.v3];
        let tree = steiner_tree(&g, &idx, &q, 3.0, SteinerMode::PathMinExact).unwrap();
        let gt = expand_tree(&g, &idx, &tree, 1000);
        for &e in &tree.edges {
            let (u, v) = g.edge_endpoints(e);
            let (lu, lv) = (gt.local(u).unwrap(), gt.local(v).unwrap());
            assert!(gt.graph.has_edge(lu, lv), "tree edge ({u},{v}) missing");
        }
    }
}
