//! What R(·) costs in heap bytes per registration edge.
//!
//! An edge names its holder by node index beside the capacity it
//! reported, 8 bytes; a target's list hangs off a dense slot map over
//! the node indices. This binary holds one test because its counting
//! allocator sees every allocation the process makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bristle_core::system::BristleBuilder;
use bristle_netsim::transit_stub::TransitStubConfig;

/// Bytes the process holds on the heap. `Relaxed`: a statistic, it
/// publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged, with the
// caller's own pointer and layout; the counter does not touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller vouches for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// A built system of 5 000 nodes, a fifth of them mobile, as the
/// wall-clock benchmark lays them out: all of R(·) — lists, their
/// order and the slot map — holds at most 10 heap bytes an edge.
#[test]
fn a_registration_edge_costs_at_most_ten_heap_bytes() {
    let mut sys = BristleBuilder::new(8)
        .stationary_nodes(4_000)
        .mobile_nodes(1_000)
        .topology(TransitStubConfig::small())
        .build()
        .expect("system builds");
    let edges = sys.registry.total_registrations();
    assert!(edges > 20 * 1_000, "every mobile node has its row holders registered: {edges}");
    let before = LIVE.load(Relaxed);
    drop(sys.registry.take());
    let bytes = before - LIVE.load(Relaxed);
    let per_edge = bytes as f64 / edges as f64;
    assert!(per_edge <= 10.0, "{bytes} B over {edges} edges: {per_edge:.2} B an edge");
    assert_eq!(sys.registry.total_registrations(), 0);
}
