//! Counting-allocator proof that the warm peel path allocates nothing.
//!
//! `CommunityEngine::search` / `search_batch` run their peeling through a
//! [`PeelScratch`] drawn from the process-wide scratch pool that every
//! engine shares, so the per-request peel work is exactly one
//! [`peel_rounds`] call over warm buffers. This test installs a counting
//! global allocator, warms a scratch on the workload, and then asserts
//! the round loop performs **zero** heap allocations — for every
//! deletion policy.
//!
//! Single test function on purpose: the allocation counter is global, and
//! concurrent tests in the same binary would pollute the measurement.

use ctc_core::{peel_rounds, peel_with, DeletePolicy, PeelScratch};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_graph::{edge_subgraph, Parallelism, VertexId};
use ctc_truss::{find_g0, TrussIndex};
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
fn warm_peel_rounds_allocate_nothing() {
    // A non-trivial community-structured graph so the peel actually runs
    // multiple rounds with cascades.
    let net = planted_partition(&PlantedConfig {
        community_sizes: vec![25, 30, 20],
        background_vertices: 8,
        p_in: 0.5,
        noise_edges_per_vertex: 1.0,
        seed: 11,
    });
    let g = net.graph;
    let idx = TrussIndex::build(&g);
    let q = [VertexId(2), VertexId(7), VertexId(12)];
    let g0 = find_g0(&g, &idx, &q).expect("query connected in planted graph");
    let sub = edge_subgraph(&g, &g0.edges);
    let ql = sub.locals(&q).expect("query inside G0");

    for policy in [
        DeletePolicy::SingleFurthest,
        DeletePolicy::BulkAtLeast,
        DeletePolicy::LocalGreedy,
    ] {
        let mut scratch = PeelScratch::new();
        // Two warm-up passes: every pooled buffer reaches its high-water
        // mark for this (graph, query, policy) workload.
        for _ in 0..2 {
            let _ = peel_with(
                &sub.graph,
                &ql,
                g0.k,
                policy,
                None,
                Parallelism::serial(),
                &mut scratch,
            );
        }
        // The counter is process-global, so a concurrently-allocating
        // libtest harness thread could inflate one measurement. A single
        // zero-delta run is sound proof (the loop cannot subtract someone
        // else's allocations), so measure a few times and require one.
        let mut min_delta = u64::MAX;
        for _ in 0..5 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let stats = peel_rounds(
                &sub.graph,
                &ql,
                g0.k,
                policy,
                None,
                Parallelism::serial(),
                &mut scratch,
            );
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(
                stats.iterations > 0,
                "{policy:?}: the workload must actually peel"
            );
            min_delta = min_delta.min(after - before);
            if min_delta == 0 {
                break;
            }
        }
        assert_eq!(
            min_delta, 0,
            "{policy:?}: warm peel_rounds performed {min_delta} heap allocations \
             in its best run"
        );
    }
}
