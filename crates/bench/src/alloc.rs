//! Opt-in heap-allocation counting for the perf-snapshot binaries.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (including `realloc` growths and zeroed allocations) in a
//! relaxed atomic. A binary opts in by installing it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: naming_bench::alloc::CountingAlloc =
//!     naming_bench::alloc::CountingAlloc;
//! ```
//!
//! The counter is installed per *binary*, not by this library, so
//! benchmarks that don't want the (one relaxed `fetch_add` per
//! allocation) overhead are unaffected. `bench_scale` uses it to report
//! allocs/op for the scale tiers — the number that makes the arena layout
//! visible directly, rather than inferred from RSS: a resolve over inline
//! contexts allocates nothing, so the hot-loop quotient should be ~0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around [`System`]: every allocation bumps a global
/// counter readable via [`allocation_count`]. Deallocations are not
/// counted — the interesting number is allocation pressure, not churn
/// balance.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (0 forever unless a binary
/// installed [`CountingAlloc`] as its global allocator). Subtract two
/// readings to count a region's allocations.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_reads_without_installation() {
        // The test binary does not install the allocator; the counter must
        // simply be readable (and stable) rather than panic.
        let a = allocation_count();
        let _v: Vec<u8> = Vec::with_capacity(32);
        let b = allocation_count();
        assert!(b >= a);
    }
}
