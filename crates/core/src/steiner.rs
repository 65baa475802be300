//! Truss-distance Steiner trees (Def. 7, §5.2).
//!
//! LCTC seeds its local exploration with a Steiner tree over the query
//! nodes. A hop-count tree can run through low-trussness bridges (the `T1`
//! vs `T2` example in §5.2), so path weight is the paper's *truss distance*
//! `d̂_P(u,v) = dist_P(u,v) + γ·(τ̄(∅) − min_{e∈P} τ(e))`: length plus a
//! penalty for the weakest edge on the path.
//!
//! The tree is built with the classic Kou–Markowsky–Berman 2-approximation
//! skeleton (metric closure over `Q` → MST → path substitution → prune).
//! The closure holds the exact Def. 7 distances: because the penalty
//! depends only on the *minimum* trussness along the path, the distance is
//! `min_t (hops in the τ≥t subgraph + γ(τ̄ − t))` over the distinct
//! trussness levels `t`, one BFS per (query, level).

use ctc_graph::{BfsScratch, CsrGraph, EdgeId, FilteredGraph, UnionFind, VertexId, INF};
use ctc_truss::TrussIndex;

/// A Steiner tree over the query set, in parent-graph ids.
#[derive(Clone, Debug)]
pub struct SteinerTree {
    /// Tree edges (parent edge ids). Empty for singleton queries.
    pub edges: Vec<EdgeId>,
    /// Tree vertices (includes all query vertices).
    pub vertices: Vec<VertexId>,
    /// `kt = min_{e∈T} τ(e)` — the expansion threshold for LCTC. For a
    /// singleton query this is the vertex trussness.
    pub min_truss: u32,
}

/// Builds a truss-distance Steiner tree connecting `q`.
///
/// Returns `None` when the query vertices are not mutually reachable.
pub fn steiner_tree(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    gamma: f64,
) -> Option<SteinerTree> {
    match q {
        [] => None,
        [only] => Some(SteinerTree {
            edges: Vec::new(),
            vertices: vec![*only],
            min_truss: idx.vertex_truss(*only).max(2),
        }),
        _ => steiner_path_min(g, idx, q, gamma),
    }
}

fn steiner_path_min(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    gamma: f64,
) -> Option<SteinerTree> {
    let r = q.len();
    let tau_bar = idx.max_truss();
    // Levels above the best query vertex trussness are unreachable from at
    // least one endpoint of every pair involving that vertex; globally cap
    // at the max vertex trussness among the query set.
    let cap = q.iter().map(|&v| idx.vertex_truss(v)).max().unwrap_or(2);
    let mut scratch = BfsScratch::new(g.num_vertices());
    // Metric closure: best (cost, level) per query pair.
    let mut closure = vec![vec![(f64::INFINITY, 0u32); r]; r];
    for &t in idx.distinct_levels().iter().filter(|&&t| t <= cap) {
        let penalty = gamma * (tau_bar - t) as f64;
        // A path found at this or any lower level costs ≥ penalty + 1;
        // once every pair already beats that, no further level can help.
        let worst = closure
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().filter(move |(j, _)| *j != i))
            .map(|(_, &(c, _))| c)
            .fold(0.0f64, f64::max);
        if worst <= penalty + 1.0 {
            break;
        }
        let view = FilteredGraph::new(g, |e| idx.edge_truss(e) >= t);
        for (i, &qi) in q.iter().enumerate() {
            // Depth beyond which no pair of this source can improve.
            let room = closure[i]
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &(c, _))| c)
                .fold(0.0f64, f64::max)
                - penalty;
            if room < 1.0 {
                continue;
            }
            let depth = if room.is_infinite() {
                u32::MAX
            } else {
                room.floor() as u32
            };
            scratch.run_bounded(&view, qi, depth);
            for (j, &qj) in q.iter().enumerate() {
                if j == i {
                    continue;
                }
                let d = scratch.dist(qj);
                if d != INF {
                    let cost = d as f64 + penalty;
                    if cost < closure[i][j].0 {
                        closure[i][j] = (cost, t);
                        closure[j][i] = (cost, t);
                    }
                }
            }
        }
    }
    build_tree_from_closure(g, idx, q, closure)
}

/// BFS path from `src` to `dst` in the `τ ≥ level` subgraph.
fn bfs_path(
    g: &CsrGraph,
    idx: &TrussIndex,
    src: VertexId,
    dst: VertexId,
    level: u32,
) -> Option<Vec<EdgeId>> {
    let n = g.num_vertices();
    let mut parent_edge: Vec<u32> = vec![u32::MAX; n];
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[src.index()] = true;
    queue.push_back(src);
    'bfs: while let Some(v) = queue.pop_front() {
        for (nb, e) in g.incident(v) {
            if idx.edge_truss(e) < level || visited[nb.index()] {
                continue;
            }
            visited[nb.index()] = true;
            parent[nb.index()] = v.0;
            parent_edge[nb.index()] = e.0;
            if nb == dst {
                break 'bfs;
            }
            queue.push_back(nb);
        }
    }
    if !visited[dst.index()] {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = dst;
    while cur != src {
        path.push(EdgeId(parent_edge[cur.index()]));
        cur = VertexId(parent[cur.index()]);
    }
    Some(path)
}

/// KMB tail: MST over the closure, path substitution, leaf pruning. Each
/// closure entry holds a pair's cost and the level its best path lives at.
fn build_tree_from_closure(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    closure: Vec<Vec<(f64, u32)>>,
) -> Option<SteinerTree> {
    let r = q.len();
    // Prim over the metric closure.
    let mut in_tree = vec![false; r];
    let mut best = vec![(f64::INFINITY, 0usize); r];
    in_tree[0] = true;
    for j in 1..r {
        best[j] = (closure[0][j].0, 0);
    }
    let mut mst_edges: Vec<(usize, usize)> = Vec::with_capacity(r - 1);
    for _ in 1..r {
        let (j, &(cost, from)) = best
            .iter()
            .enumerate()
            .filter(|(j, _)| !in_tree[*j])
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("no NaN costs"))?;
        if cost.is_infinite() {
            return None; // some query vertex unreachable
        }
        in_tree[j] = true;
        mst_edges.push((from, j));
        for t in 1..r {
            if !in_tree[t] && closure[j][t].0 < best[t].0 {
                best[t] = (closure[j][t].0, j);
            }
        }
    }
    // Substitute each closure edge by a concrete path.
    let mut edge_set: ctc_graph::FxHashSet<u32> = Default::default();
    for (i, j) in mst_edges {
        let level = closure[i][j].1;
        let path = bfs_path(g, idx, q[i], q[j], level)?;
        for e in path {
            edge_set.insert(e.0);
        }
    }
    prune_to_tree(g, idx, q, edge_set)
}

/// Reduces the union of paths to a tree (drop cycle extras via a spanning
/// forest) and prunes non-terminal leaves.
fn prune_to_tree(
    g: &CsrGraph,
    idx: &TrussIndex,
    q: &[VertexId],
    edge_set: ctc_graph::FxHashSet<u32>,
) -> Option<SteinerTree> {
    // Keep a spanning forest of the union, preferring high-trussness edges.
    let mut edges: Vec<EdgeId> = edge_set.iter().map(|&e| EdgeId(e)).collect();
    edges.sort_unstable_by_key(|&e| (std::cmp::Reverse(idx.edge_truss(e)), e.0));
    let mut uf = UnionFind::new(g.num_vertices());
    let mut tree: Vec<EdgeId> = Vec::new();
    for &e in &edges {
        let (u, v) = g.edge_endpoints(e);
        if uf.union(u.0, v.0) {
            tree.push(e);
        }
    }
    // Iteratively prune degree-1 vertices that are not query terminals.
    let mut degree: ctc_graph::FxHashMap<u32, u32> = Default::default();
    for &e in &tree {
        let (u, v) = g.edge_endpoints(e);
        *degree.entry(u.0).or_insert(0) += 1;
        *degree.entry(v.0).or_insert(0) += 1;
    }
    let is_terminal = |v: u32| q.iter().any(|&x| x.0 == v);
    let mut alive: ctc_graph::FxHashSet<u32> = tree.iter().map(|&e| e.0).collect();
    loop {
        let mut pruned = false;
        for &e in &tree {
            if !alive.contains(&e.0) {
                continue;
            }
            let (u, v) = g.edge_endpoints(e);
            for x in [u.0, v.0] {
                if degree[&x] == 1 && !is_terminal(x) && alive.contains(&e.0) {
                    alive.remove(&e.0);
                    *degree.get_mut(&u.0).expect("endpoint tracked") -= 1;
                    *degree.get_mut(&v.0).expect("endpoint tracked") -= 1;
                    pruned = true;
                }
            }
        }
        if !pruned {
            break;
        }
    }
    let final_edges: Vec<EdgeId> = tree.into_iter().filter(|e| alive.contains(&e.0)).collect();
    // Verify all query vertices are still connected through the tree.
    uf.reset(g.num_vertices());
    for &e in &final_edges {
        let (u, v) = g.edge_endpoints(e);
        uf.union(u.0, v.0);
    }
    let q_raw: Vec<u32> = q.iter().map(|v| v.0).collect();
    if !uf.all_connected(&q_raw) {
        return None;
    }
    let vertices = ctc_truss::edge_list_vertices(g, &final_edges);
    let min_truss = final_edges
        .iter()
        .map(|&e| idx.edge_truss(e))
        .min()
        .unwrap_or_else(|| idx.vertex_truss(q[0]).max(2));
    Some(SteinerTree {
        edges: final_edges,
        vertices,
        min_truss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};

    fn setup() -> (CsrGraph, TrussIndex, Figure1Ids) {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        (g, idx, Figure1Ids::default())
    }

    #[test]
    fn paper_example_prefers_high_truss_tree() {
        // §5.2: with γ = 3, the tree through t (trussness-2 edges) costs
        // 3 + 3·(4−2) = 9 while the tree through v4 costs 3. The Steiner
        // tree must avoid t.
        let (g, idx, f) = setup();
        let q = [f.q1, f.q2, f.q3];
        let t = steiner_tree(&g, &idx, &q, 3.0).unwrap();
        assert!(
            !t.vertices.contains(&f.t),
            "tree runs through the weak bridge t"
        );
        assert_eq!(t.min_truss, 4, "kt should be 4");
        // Tree spans Q with r-1 ≤ |edges| ≤ small.
        assert!(t.edges.len() >= 3, "tree too small: {:?}", t.edges);
    }

    #[test]
    fn gamma_zero_follows_hop_count() {
        // With γ = 0 the truss distance is plain hop count and the q1–t–q3
        // shortcut (2 hops) beats any trussness-4 detour (3 hops).
        let (g, idx, f) = setup();
        let t = steiner_tree(&g, &idx, &[f.q1, f.q3], 0.0).unwrap();
        assert!(
            t.vertices.contains(&f.t),
            "γ=0 should take the short bridge"
        );
        assert_eq!(t.min_truss, 2);
    }

    #[test]
    fn singleton_query() {
        let (g, idx, f) = setup();
        let t = steiner_tree(&g, &idx, &[f.q2], 3.0).unwrap();
        assert!(t.edges.is_empty());
        assert_eq!(t.vertices, vec![f.q2]);
        assert_eq!(t.min_truss, 4);
    }

    #[test]
    fn empty_query_is_none() {
        let (g, idx, _) = setup();
        assert!(steiner_tree(&g, &idx, &[], 3.0).is_none());
    }

    #[test]
    fn disconnected_query_is_none() {
        let g = ctc_graph::graph_from_edges(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let idx = TrussIndex::build(&g);
        assert!(steiner_tree(&g, &idx, &[VertexId(0), VertexId(3)], 3.0).is_none());
    }

    #[test]
    fn tree_is_acyclic_and_spans_q() {
        let (g, idx, f) = setup();
        let q = [f.q1, f.q2, f.q3, f.v3];
        let t = steiner_tree(&g, &idx, &q, 3.0).unwrap();
        // |E| = |V| - 1 for a tree.
        assert_eq!(t.edges.len() + 1, t.vertices.len());
        for qi in q {
            assert!(t.vertices.contains(&qi));
        }
        // Leaves are terminals.
        let mut deg: std::collections::HashMap<u32, u32> = Default::default();
        for &e in &t.edges {
            let (u, v) = g.edge_endpoints(e);
            *deg.entry(u.0).or_default() += 1;
            *deg.entry(v.0).or_default() += 1;
        }
        for (&v, &d) in &deg {
            if d == 1 {
                assert!(q.iter().any(|&x| x.0 == v), "non-terminal leaf {v}");
            }
        }
    }
}
