//! Query classes, so every seed sends the same mix of cheap and costly
//! searches.
//!
//! What a search costs is set mostly by the size of `G0`, the connected
//! k-truss with the largest k that holds the query: on these presets it is
//! either a component of a few hundred edges, answered in microseconds, or
//! a giant one of 50K–130K edges, answered in milliseconds. Drawn freely,
//! the share of giant-`G0` queries in a run moves from seed to seed by
//! several points, and every latency percentile and the capacity move
//! with it. So a query's class is the decade of its `G0` edge count,
//! computed here from the trussness of the edges alone (the class is a
//! property of the input, not of any search code), and each stream draws
//! its classes in one fixed order whose shares match the query
//! generator's own. The seed picks which queries fill each class.

use crate::rng::Quota;
use ctc_gen::{DegreeRank, QueryGenerator};
use ctc_graph::union_find::UnionFind;
use ctc_graph::{CsrGraph, VertexId};
use ctc_truss::TrussIndex;

/// Draws whose classes estimate the generator's class shares; a fixed
/// generator seed, so the shares are the same for every `--seed`.
const SHARE_SAMPLE: usize = 600;

/// Seed of the share estimate.
const SHARE_SEED: u64 = 0x5eed_c1a5;

/// Marks a vertex with no edge at a level.
const NONE: u32 = u32::MAX;

/// The components of the subgraph of edges with trussness ≥ k.
struct Level {
    /// Component root of each vertex, [`NONE`] when no edge reaches it.
    root: Vec<u32>,
    /// Edge count of the component each root names.
    edges: Vec<u32>,
}

/// Query classes of one graph and their shares among generated queries.
pub struct Strata {
    /// `levels[i]` holds the components at trussness `max_truss - i`,
    /// down to 2.
    levels: Vec<Level>,
    /// `(class, share)` in ascending class order.
    shares: Vec<(u8, f64)>,
}

impl Strata {
    /// Computes the per-level components of `graph` and estimates the
    /// class shares of `QueryGenerator` queries (|Q| = 3, top-80% degree
    /// rank, inter-distance 2).
    pub fn new(graph: &CsrGraph, index: &TrussIndex) -> Strata {
        let mut edges: Vec<(u32, u32, u32)> = graph
            .edges()
            .map(|(e, u, v)| (index.edge_truss(e), u.0, v.0))
            .collect();
        edges.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        let n = graph.num_vertices();
        let mut uf = UnionFind::new(n);
        let mut levels = Vec::new();
        let mut added = 0;
        for k in (2..=index.max_truss()).rev() {
            while added < edges.len() && edges[added].0 >= k {
                uf.union(edges[added].1, edges[added].2);
                added += 1;
            }
            let mut root = vec![NONE; n];
            let mut count = vec![0u32; n];
            for &(_, u, v) in &edges[..added] {
                let r = uf.find(u);
                root[u as usize] = r;
                root[v as usize] = r;
                count[r as usize] += 1;
            }
            levels.push(Level { root, edges: count });
        }
        let mut strata = Strata {
            levels,
            shares: Vec::new(),
        };
        let mut gen = QueryGenerator::new(graph, SHARE_SEED);
        let mut counts = [0usize; 10];
        for _ in 0..SHARE_SAMPLE {
            if let Some(q) = gen.sample(3, DegreeRank::top(0.8), 2) {
                counts[usize::from(strata.class_of(&q))] += 1;
            }
        }
        let total = counts.iter().sum::<usize>().max(1) as f64;
        strata.shares = (0u8..)
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(class, c)| (class, c as f64 / total))
            .collect();
        if strata.shares.is_empty() {
            strata.shares.push((0, 1.0));
        }
        strata
    }

    /// The class of query `q`: the decade of the edge count of the
    /// largest-k connected truss holding all of `q` (0 when none does).
    pub fn class_of(&self, q: &[VertexId]) -> u8 {
        self.levels
            .iter()
            .find_map(|level| {
                let r = level.root[q[0].index()];
                (r != NONE && q.iter().all(|v| level.root[v.index()] == r))
                    .then(|| level.edges[r as usize].ilog10() as u8)
            })
            .unwrap_or(0)
    }

    /// The cheapest class that generated queries fall in.
    pub fn smallest_class(&self) -> u8 {
        self.shares[0].0
    }

    /// A fresh class order whose every prefix holds each class in
    /// proportion to its share.
    pub fn order(&self) -> ClassOrder {
        let weights: Vec<f64> = self.shares.iter().map(|&(_, share)| share).collect();
        ClassOrder {
            classes: self.shares.iter().map(|&(class, _)| class).collect(),
            quota: Quota::new(&weights),
        }
    }
}

/// The fixed class sequence of one stream; see [`Strata::order`].
pub struct ClassOrder {
    classes: Vec<u8>,
    quota: Quota,
}

impl ClassOrder {
    /// The class of the next query.
    pub fn next_class(&mut self) -> u8 {
        self.classes[self.quota.next_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_the_largest_k_truss_holding_the_query() {
        // A K5 (10 edges, a 5-truss) with a path 4-5-6 hanging off it: a
        // query inside the K5 lives in a 10-edge truss (class 1); one
        // that reaches the path needs the whole 12-edge graph at k = 2
        // (class 1 too). A bare two-edge path is class 0.
        let mut pairs = Vec::new();
        for u in 0..5 {
            for v in u + 1..5 {
                pairs.push((u, v));
            }
        }
        pairs.extend([(4, 5), (5, 6)]);
        let g = ctc_graph::graph_from_edges(&pairs);
        let s = Strata::new(&g, &TrussIndex::build(&g));
        let q = |ids: &[u32]| ids.iter().map(|&i| VertexId(i)).collect::<Vec<_>>();
        assert_eq!(s.class_of(&q(&[0, 1, 4])), 1);
        assert_eq!(s.class_of(&q(&[0, 6])), 1);
        let path = ctc_graph::graph_from_edges(&[(0, 1), (1, 2)]);
        let s = Strata::new(&path, &TrussIndex::build(&path));
        assert_eq!(s.class_of(&q(&[0, 2])), 0);
    }
}
