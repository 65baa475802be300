//! Counting-allocator proof that [`PeelScratch::heap_bytes`] is exact.
//!
//! `/stats` reports the process-wide scratch pool's resident bytes as the
//! sum of `heap_bytes` over its idle scratches, so the sum must cover
//! every pooled buffer. This test warms one scratch over all four
//! algorithms on three graphs, then drops it and asserts that exactly
//! `heap_bytes()` bytes were freed: a pooled field added later without
//! accounting makes the drop free more than the report says.
//!
//! The allocator keeps a live-bytes count per thread, and the scratch is
//! dropped on the thread that measures, so frees elsewhere in the process
//! cannot disturb the count. Single test function on purpose, as in
//! `alloc.rs`: the allocator is global to the binary.

use ctc_core::{CtcConfig, CtcSearcher, PeelScratch, SearchAlgo};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_gen::random::barabasi_albert;
use ctc_graph::{CsrGraph, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LiveBytes;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const ALGOS: [SearchAlgo; 4] = [
    SearchAlgo::Basic,
    SearchAlgo::BulkDelete,
    SearchAlgo::Local,
    SearchAlgo::TrussOnly,
];

/// Query sets of one to three vertices; on the planted graph, vertices 2,
/// 7 and 12 share its first community.
fn queries(g: &CsrGraph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices() as u32;
    let v = |i: u32| VertexId(i % n);
    vec![
        vec![v(2)],
        vec![v(2), v(7)],
        vec![v(2), v(7), v(12)],
        vec![v(30), v(41)],
    ]
}

#[test]
fn dropping_a_warm_scratch_frees_exactly_its_heap_bytes() {
    let planted = planted_partition(&PlantedConfig {
        community_sizes: vec![25, 30, 20],
        background_vertices: 8,
        p_in: 0.5,
        noise_edges_per_vertex: 1.0,
        seed: 11,
    })
    .graph;
    let ba = barabasi_albert(120, 4, 7);
    let sparse = barabasi_albert(1500, 3, 7);
    let cfg = CtcConfig::default();
    let mut scratch = PeelScratch::new();
    let mut answered = 0;
    // Twice over all three graphs, so later passes run on buffers grown
    // for the others (the reuse the process-wide pool relies on). LCTC's
    // local decomposition peels the small dense graphs it cuts from the
    // planted graph and the small BA graph on the live bit matrix, and
    // the sparse ones it cuts from the large BA graph on the triangle
    // pre-index, so the buffers of both fall inside the check.
    for _ in 0..2 {
        for g in [&planted, &ba, &sparse] {
            let searcher = CtcSearcher::new(g);
            for q in queries(g) {
                for algo in ALGOS {
                    answered += searcher.search_with(&q, algo, &cfg, &mut scratch).is_ok() as usize;
                }
            }
        }
    }
    assert!(answered > 0, "the workload must answer something");

    let expected = scratch.heap_bytes();
    assert!(expected > 0, "a warm scratch holds buffers");
    let before = live();
    drop(scratch);
    let freed = before - live();
    assert_eq!(
        freed, expected as i64,
        "dropping the scratch freed {freed} bytes but heap_bytes() reported {expected}"
    );
}
