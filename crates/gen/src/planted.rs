//! Planted-partition (stochastic block model) graphs with ground-truth
//! communities.
//!
//! The CTC paper evaluates against SNAP networks with 5000 ground-truth
//! communities; this generator is the workspace's stand-in: disjoint
//! communities with dense internal wiring (`p_in`) and sparse global noise
//! (`p_out`), which is exactly the structure the F1 experiments (Fig. 12)
//! need.

use ctc_graph::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated network together with its planted communities.
#[derive(Clone, Debug)]
pub struct GroundTruthGraph {
    /// The generated graph.
    pub graph: CsrGraph,
    /// Planted communities (disjoint vertex sets).
    pub communities: Vec<Vec<VertexId>>,
    /// `membership[v]` = community index of `v` (`u32::MAX` for background
    /// vertices outside any planted community).
    pub membership: Vec<u32>,
}

impl GroundTruthGraph {
    /// The community containing `v`, if any.
    pub fn community_of(&self, v: VertexId) -> Option<&[VertexId]> {
        let c = self.membership[v.index()];
        if c == u32::MAX {
            None
        } else {
            Some(&self.communities[c as usize])
        }
    }
}

/// Parameters for [`planted_partition`].
#[derive(Clone, Debug)]
pub struct PlantedConfig {
    /// Sizes of the planted communities (may differ per community).
    pub community_sizes: Vec<usize>,
    /// Extra background vertices belonging to no community.
    pub background_vertices: usize,
    /// Within-community edge probability.
    pub p_in: f64,
    /// Number of random inter-community / background "noise" edges, as a
    /// multiple of `n` (e.g. 2.0 → 2n noise edges).
    pub noise_edges_per_vertex: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        PlantedConfig {
            community_sizes: vec![20; 50],
            background_vertices: 0,
            p_in: 0.6,
            noise_edges_per_vertex: 1.0,
            seed: 42,
        }
    }
}

/// Generates a planted-partition graph.
pub fn planted_partition(cfg: &PlantedConfig) -> GroundTruthGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n: usize = cfg.community_sizes.iter().sum::<usize>() + cfg.background_vertices;
    let mut membership = vec![u32::MAX; n];
    let mut communities = Vec::with_capacity(cfg.community_sizes.len());
    let mut next = 0u32;
    for (ci, &size) in cfg.community_sizes.iter().enumerate() {
        let mut comm = Vec::with_capacity(size);
        for _ in 0..size {
            membership[next as usize] = ci as u32;
            comm.push(VertexId(next));
            next += 1;
        }
        communities.push(comm);
    }
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    // Dense intra-community wiring.
    for comm in &communities {
        for (i, &u) in comm.iter().enumerate() {
            for &v in &comm[i + 1..] {
                if rng.gen::<f64>() < cfg.p_in {
                    b.add_edge(u.0, v.0);
                }
            }
        }
    }
    // Sparse global noise: connects communities and background vertices.
    let noise = (cfg.noise_edges_per_vertex * n as f64) as usize;
    for _ in 0..noise {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        b.add_edge(u, v);
    }
    // Keep everything reachable: chain each background vertex and each
    // community head onto a random earlier vertex.
    let comm_count: usize = cfg.community_sizes.iter().sum();
    for v in comm_count..n {
        let t = rng.gen_range(0..v as u32);
        b.add_edge(v as u32, t);
    }
    for comm in communities.iter().skip(1) {
        let head = comm[0].0;
        let t = rng.gen_range(0..communities[0].len() as u32);
        b.add_edge(head, t);
    }
    let graph = crate::util::stitch_connected(b.build(), &mut rng);
    GroundTruthGraph {
        graph,
        communities,
        membership,
    }
}

/// Convenience: `c` communities of equal `size` with default density knobs.
pub fn planted_equal(c: usize, size: usize, p_in: f64, noise: f64, seed: u64) -> GroundTruthGraph {
    planted_partition(&PlantedConfig {
        community_sizes: vec![size; c],
        background_vertices: 0,
        p_in,
        noise_edges_per_vertex: noise,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_add_up() {
        let g = planted_partition(&PlantedConfig {
            community_sizes: vec![10, 20, 30],
            background_vertices: 5,
            p_in: 0.8,
            noise_edges_per_vertex: 0.5,
            seed: 1,
        });
        assert_eq!(g.graph.num_vertices(), 65);
        assert_eq!(g.communities.len(), 3);
        assert_eq!(g.communities[2].len(), 30);
        assert_eq!(g.membership.iter().filter(|&&m| m == u32::MAX).count(), 5);
    }

    #[test]
    fn communities_are_denser_than_background() {
        let g = planted_equal(8, 25, 0.7, 0.5, 3);
        // Count intra vs inter edges.
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (_, u, v) in g.graph.edges() {
            if g.membership[u.index()] == g.membership[v.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 3 * inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn community_of_lookup() {
        let g = planted_equal(2, 5, 1.0, 0.0, 9);
        let c0 = g.community_of(VertexId(0)).unwrap();
        assert_eq!(c0.len(), 5);
        assert!(c0.contains(&VertexId(4)));
        let c1 = g.community_of(VertexId(7)).unwrap();
        assert!(c1.contains(&VertexId(5)));
    }

    #[test]
    fn p_in_one_makes_cliques() {
        let g = planted_equal(3, 6, 1.0, 0.0, 5);
        for comm in &g.communities {
            for (i, &u) in comm.iter().enumerate() {
                for &v in &comm[i + 1..] {
                    assert!(g.graph.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = planted_equal(4, 10, 0.5, 1.0, 77);
        let b = planted_equal(4, 10, 0.5, 1.0, 77);
        assert_eq!(a.graph, b.graph);
    }
}
