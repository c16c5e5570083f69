//! Interned per-worker metric names.
//!
//! The global metrics registry keys metrics by `&'static str`, which a
//! fixed `const` table can only supply for a fixed worker count — the old
//! 8-slot tables silently aliased every worker past index 7 onto
//! `"…worker7.*"`, conflating their counts. Instead, names are formatted
//! once per worker index and leaked: the leak is bounded by the largest
//! worker index ever used in the process (a handful of short strings),
//! and every pool size gets distinct counters.

use std::sync::{Arc, Mutex, OnceLock};

use naming_telemetry::metrics::Counter;

/// Which serving runtime the worker belongs to; each family gets its own
/// metric namespace so a thread pool and a reactor running in the same
/// process never share counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Family {
    /// `ConcurrentService` thread-pool workers: `service.worker{i}.*`.
    Service,
    /// Pipelined-runtime reactor workers: `pipeline.worker{i}.*`.
    Pipeline,
}

/// Returns the interned `("{family}.worker{idx}.batches",
/// "{family}.worker{idx}.queries")` pair for any worker index.
fn batch_query_names(family: Family, idx: usize) -> (&'static str, &'static str) {
    static SERVICE: OnceLock<Mutex<Vec<(&'static str, &'static str)>>> = OnceLock::new();
    static PIPELINE: OnceLock<Mutex<Vec<(&'static str, &'static str)>>> = OnceLock::new();
    let (cell, prefix) = match family {
        Family::Service => (&SERVICE, "service"),
        Family::Pipeline => (&PIPELINE, "pipeline"),
    };
    let mut table = cell.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    while table.len() <= idx {
        let i = table.len();
        let batches: &'static str =
            Box::leak(format!("{prefix}.worker{i}.batches").into_boxed_str());
        let queries: &'static str =
            Box::leak(format!("{prefix}.worker{i}.queries").into_boxed_str());
        table.push((batches, queries));
    }
    table[idx]
}

/// The global registry's `(batches, queries)` counters for worker `idx` of
/// `family`. Takes a lock and a registry read: a worker resolves them once
/// and keeps the handles.
pub(crate) fn batch_query_counters(family: Family, idx: usize) -> (Arc<Counter>, Arc<Counter>) {
    let (batches, queries) = batch_query_names(family, idx);
    let reg = naming_telemetry::metrics::global();
    (reg.counter(batches), reg.counter(queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_at_any_index() {
        // Past the old 8-slot table: worker 9 and worker 23 must not alias.
        let (b9, q9) = batch_query_names(Family::Service, 9);
        let (b23, q23) = batch_query_names(Family::Service, 23);
        assert_eq!(b9, "service.worker9.batches");
        assert_eq!(q23, "service.worker23.queries");
        assert_ne!(b9, b23);
        assert_ne!(q9, q23);
        // Stable across calls (same leaked allocation).
        assert!(std::ptr::eq(b9, batch_query_names(Family::Service, 9).0));
        // Families do not share a namespace.
        assert_eq!(
            batch_query_names(Family::Pipeline, 9).0,
            "pipeline.worker9.batches"
        );
    }
}
