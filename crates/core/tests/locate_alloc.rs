//! Counting-allocator bounds on what locating a community costs in heap.
//!
//! * A warm Truss search allocates at most its answer plus `G0`'s two
//!   lists plus a small constant: it answers from `G0` and makes no copy.
//! * A warm BulkDelete copy of `G0` (`edge_subgraph_with`) allocates its
//!   CSR arrays plus 20 bytes per vertex and no map: not one sized by the
//!   edge count, which alone would break the bound on the dense graph
//!   below, nor one from parent to local id, whose 512 buckets for this
//!   `G0`'s 240 vertices would too.
//!
//! The allocator counts per thread the bytes each allocation adds (a
//! `realloc` counts its growth), so other threads cannot disturb a
//! measurement. Single test function, as in `alloc.rs`.

use ctc_core::{CtcConfig, CtcSearcher, PeelScratch, SearchAlgo};
use ctc_gen::random::erdos_renyi_np;
use ctc_graph::{edge_subgraph_with, SubgraphScratch, VertexId};
use ctc_truss::{find_g0_with, FindScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct AddedBytes;

thread_local! {
    /// Bytes this thread's allocations and growing reallocations added.
    static ADDED: Cell<u64> = const { Cell::new(0) };
}

fn add(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ADDED.try_with(|a| a.set(a.get() + bytes as u64));
}

fn added() -> u64 {
    ADDED.with(Cell::get)
}

unsafe impl GlobalAlloc for AddedBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: AddedBytes = AddedBytes;

/// Slack for the query's own small vectors.
const CONSTANT: u64 = 256;

#[test]
fn warm_locate_allocates_no_copy_of_g0() {
    // Dense enough that G0 has many more edges than vertices.
    let g = erdos_renyi_np(240, 0.3, 5);
    let searcher = CtcSearcher::new(&g);
    let cfg = CtcConfig::default();
    let q = [VertexId(3), VertexId(77), VertexId(150)];

    // Truss: the answer and G0's lists, nothing else.
    let mut scratch = PeelScratch::new();
    for algo in [SearchAlgo::BulkDelete, SearchAlgo::TrussOnly] {
        searcher.search_with(&q, algo, &cfg, &mut scratch).unwrap();
    }
    let before = added();
    let c = searcher
        .search_with(&q, SearchAlgo::TrussOnly, &cfg, &mut scratch)
        .unwrap();
    let spent = added() - before;
    let (n0, m0) = c.g0_size;
    let answer = 4 * c.vertices.capacity() + 8 * c.edges.capacity();
    let g0_lists = 4 * (n0 + m0);
    assert!(m0 >= 8 * n0, "the test graph must be dense: G0 {n0} x {m0}");
    assert!(
        spent <= (answer + g0_lists) as u64 + CONSTANT,
        "a warm Truss search allocated {spent} bytes; its answer holds {answer} \
         and G0's lists {g0_lists}"
    );

    // BulkDelete's copy: CSR arrays plus, per vertex, `to_parent` (up to
    // 8 bytes with its growth slack), the offsets' growth slack (4) and
    // two row cursors (4 each).
    let idx = searcher.index();
    let mut find = FindScratch::new();
    let g0 = find_g0_with(&g, idx, &q, u32::MAX, &mut find).unwrap();
    let mut sub_scratch = SubgraphScratch::new();
    edge_subgraph_with(&g, &g0.edges, &mut sub_scratch);
    let before = added();
    let sub = edge_subgraph_with(&g, &g0.edges, &mut sub_scratch);
    let spent = added() - before;
    let (n, m) = (sub.num_vertices() as u64, sub.num_edges() as u64);
    let csr = 4 * (n + 1) + 3 * 8 * m;
    let per_vertex = 20 * n;
    // A map with a slot per edge holds at least 8 bytes of key and value
    // per edge, which the vertex term cannot absorb here.
    assert!(
        8 * m > per_vertex + CONSTANT,
        "G0 {n} x {m} too sparse to tell"
    );
    assert!(
        spent <= csr + per_vertex + CONSTANT,
        "a warm G0 copy allocated {spent} bytes for {n} vertices and {m} edges \
         (CSR arrays {csr})"
    );
}
