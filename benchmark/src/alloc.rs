//! The benchmark's own counting global allocator: allocations *and* live
//! bytes, snapshot-able around a timed call.
//!
//! Backs `allocs_per_name`, `heap_growth_bytes_per_name`, `setup_heap_mb`
//! and the ladder's per-rung `allocs_per_name`. The counters are global, so
//! allocations made by service worker threads inside a timed region count
//! too — on `authority_scan` that is the point.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed everywhere: these are statistics and publish no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Wraps [`System`], counting every allocation (including `realloc` and
/// zeroed allocations) and tracking the bytes currently live.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence the pointers returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // Wrapping add of the (possibly negative) size change.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_live_bytes_around_a_region() {
        let (a0, b0) = (allocations(), live_bytes());
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        // Other test threads allocate concurrently, so only lower bounds hold.
        assert!(allocations() > a0);
        assert!(live_bytes() >= b0.wrapping_add(1 << 16) || live_bytes() > b0);
        drop(v);
    }
}
