//! Small shared helpers for the generators.

use ctc_graph::{connected_components, CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::Rng;

/// Returns `g` with one extra edge per stray component so the result is
/// connected (the paper assumes connected inputs, §2). Each stray component
/// is attached to a random vertex of the largest component.
pub fn stitch_connected(g: CsrGraph, rng: &mut StdRng) -> CsrGraph {
    let (labels, count) = connected_components(&g);
    if count <= 1 {
        return g;
    }
    // Find the largest component.
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        if l != u32::MAX {
            sizes[l as usize] += 1;
        }
    }
    let main = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| s)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let main_vertices: Vec<u32> = labels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l == main)
        .map(|(v, _)| v as u32)
        .collect();
    // One representative per stray component.
    let mut seen = vec![false; count];
    let mut b = GraphBuilder::with_capacity(g.num_edges() + count);
    b.ensure_vertices(g.num_vertices());
    for (_, u, v) in g.edges() {
        b.add_edge(u.0, v.0);
    }
    for (v, &l) in labels.iter().enumerate() {
        if l != u32::MAX && l != main && !seen[l as usize] {
            seen[l as usize] = true;
            let t = main_vertices[rng.gen_range(0..main_vertices.len())];
            b.add_edge(v as u32, t);
        }
        // Isolated vertices carry label == their own component id already;
        // handled by the same branch.
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::{graph_from_edges, is_connected};
    use rand::SeedableRng;

    #[test]
    fn stitches_two_components() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (3, 4)]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = stitch_connected(g, &mut rng);
        assert!(is_connected(&s));
        assert_eq!(s.num_edges(), 4);
    }

    #[test]
    fn connected_input_unchanged() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2)]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = stitch_connected(g.clone(), &mut rng);
        assert_eq!(g, s);
    }

    #[test]
    fn stitches_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertices(4);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(5);
        let s = stitch_connected(g, &mut rng);
        assert!(is_connected(&s));
    }
}
