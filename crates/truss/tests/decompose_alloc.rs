//! Counting-allocator proof that a warm decomposition allocates only its
//! result.
//!
//! LCTC runs `TrussIndex::build_with` over the pooled
//! [`DecomposeScratch`] on every query, so once the scratch has grown to
//! a graph, `truss_decomposition_with` on that graph must make exactly
//! one heap allocation: the returned `edge_truss` array. This test
//! installs a counting global allocator (the one in
//! `crates/core/tests/alloc.rs`), warms a scratch, and pins that count.
//!
//! Single test function on purpose: the allocation counter is global, and
//! concurrent tests in the same binary would pollute the measurement.

use ctc_gen::mini_network;
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_truss::{truss_decomposition, truss_decomposition_with, DecomposeScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_decomposition_allocates_only_its_result() {
    // The planted graph `crates/core/tests/alloc.rs` peels and the mini
    // facebook preset are small and dense, so they take the live bit
    // matrix peel (3.3 KB and 56 KB of matrix against a 25 KB and a
    // 201 KB pre-index); the sparse mini dblp preset keeps the triangle
    // pre-index (220 KB against an 800 KB matrix).
    let planted = planted_partition(&PlantedConfig {
        community_sizes: vec![25, 30, 20],
        background_vertices: 8,
        p_in: 0.5,
        noise_edges_per_vertex: 1.0,
        seed: 11,
    })
    .graph;
    let facebook = mini_network("facebook", 7).expect("mini preset").graph;
    let dblp = mini_network("dblp", 7).expect("mini preset").graph;
    for (name, g) in [
        ("planted", &planted),
        ("mini facebook", &facebook),
        ("mini dblp", &dblp),
    ] {
        let want = truss_decomposition(g);
        let mut scratch = DecomposeScratch::new();
        let _ = truss_decomposition_with(g, &mut scratch);
        // The counter is process-global, so a concurrently-allocating
        // libtest harness thread could inflate one measurement; the result
        // vector makes every run allocate at least once, so the best of a
        // few runs is the decomposition's own count.
        let mut min_delta = u64::MAX;
        for _ in 0..5 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let got = truss_decomposition_with(g, &mut scratch);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert_eq!(got.edge_truss, want.edge_truss, "{name}");
            min_delta = min_delta.min(after - before);
        }
        assert_eq!(
            min_delta, 1,
            "{name}: a warm decomposition made {min_delta} heap allocations in its \
             best run; only the returned trussness array should allocate"
        );
    }
}
