//! Every metric the benchmark reports: name, unit, direction and — where
//! one is fixed — the bound by which its median may worsen before a change
//! counts as a regression.
//!
//! [`END_TO_END`] is what `BENCHMARK.json` lists under `end_to_end`: the
//! metrics that are defined and never zero on all five workloads.
//! [`PER_LAYER`] is what it lists under `per_layer`: one group per module,
//! plus (prefix `e2e.`) the end-to-end metrics that only some workloads
//! define or that read zero in a healthy system. A metric a workload does
//! not define reads 0 there.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: Option<f64>,
    /// Repeats exactly per seed on the single-threaded workloads at a fixed
    /// repetition count: a count, not a clock reading.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact: true,
    }
}

/// A per-layer reading: diagnostic, no bound.
const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        exact: false,
    }
}

pub const END_TO_END: &[Metric] = &[
    wall("names_per_s", "names/s", true, 0.25),
    count("allocs_per_name", "allocs", 0.02),
    count("setup_heap_mb", "MB", 0.02),
    wall("setup_s", "s", false, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // End-to-end metrics not defined, or zero, on some workload.
    wall("e2e.publish_us_p50", "us", false, 0.25),
    count("e2e.virt_ticks_p50", "ticks", 0.01),
    count("e2e.virt_ticks_p99", "ticks", 0.02),
    count("e2e.msgs_per_name", "msgs", 0.01),
    count("e2e.wire_bytes_per_name", "B", 0.01),
    count("e2e.heap_growth_bytes_per_name", "B", 0.02),
    count("e2e.stale_frac", "ratio", 0.01),
    count("e2e.sync_bytes_per_publish", "B", 0.01),
    count("e2e.failed_frac", "ratio", 0.0),
    // core
    layer("core.context.lookup_ns", "ns", false),
    layer("core.resolve.walk_ns_per_name", "ns", false),
    layer("core.resolve.allocs_per_name", "allocs", false),
    layer("core.memo.hit_ns_per_name", "ns", false),
    layer("core.memo.hit_ratio", "ratio", true),
    layer("core.memo.evictions_per_kname", "count", false),
    layer("core.snapshot.memo_ns_per_name", "ns", false),
    layer("core.snapshot.hit_ratio", "ratio", true),
    layer("core.state.build_ns_per_context", "ns", false),
    layer("core.state.publish_us_p50", "us", false),
    // resolver::wire
    layer("resolver.wire.trie_build_ns_per_name", "ns", false),
    layer("resolver.wire.encode_ns_per_name", "ns", false),
    layer("resolver.wire.decode_ns_per_name", "ns", false),
    layer("resolver.wire.bytes_per_name", "B", false),
    // resolver::service
    layer("resolver.service.local_batch_ns_per_name", "ns", false),
    layer("resolver.service.lookups_saved_ratio", "ratio", true),
    // sim::world
    layer("sim.world.msg_ns", "ns", false),
    layer("sim.world.lost_per_kmsg", "count", false),
    // resolver::engine
    layer("resolver.engine.batch_ns_per_name", "ns", false),
    layer("resolver.engine.self_ns_per_name", "ns", false),
    layer("resolver.engine.rounds_per_batch", "count", false),
    layer("resolver.engine.coalesced_per_kname", "count", true),
    layer("resolver.engine.hops_saved_per_kname", "count", true),
    layer("resolver.engine.retransmissions_per_kname", "count", false),
    layer("resolver.engine.late_replies_per_kname", "count", false),
    layer("resolver.engine.exhausted", "count", false),
    // resolver::runtime
    layer("resolver.runtime.submit_ns_per_name", "ns", false),
    layer("resolver.runtime.drain_ns_per_name", "ns", false),
    layer("resolver.runtime.self_ns_per_name", "ns", false),
    layer("resolver.runtime.in_flight_hwm", "count", false),
    layer("resolver.runtime.backlog_hwm", "count", false),
    layer("resolver.runtime.queue_wait_ticks_p99", "ticks", false),
    layer("resolver.runtime.service_ticks_p50", "ticks", false),
    // resolver::concurrent
    layer("resolver.concurrent.submit_ns_per_batch", "ns", false),
    layer("resolver.concurrent.drain_ns_per_name", "ns", false),
    layer("resolver.concurrent.queue_wait_us_p50", "us", false),
    layer("resolver.concurrent.service_us_p50", "us", false),
    layer("resolver.concurrent.queue_depth_hwm", "count", false),
    layer("resolver.concurrent.worker_busy_frac", "ratio", true),
    // resolver::cache
    layer("resolver.cache.hit_ns_per_name", "ns", false),
    layer("resolver.cache.miss_ns_per_name", "ns", false),
    layer("resolver.cache.self_ns_per_name", "ns", false),
    layer("resolver.cache.hit_ratio", "ratio", true),
    layer("resolver.cache.evictions_per_kname", "count", false),
    layer("resolver.cache.invalidations_per_kname", "count", false),
    // resolver::referral
    layer("resolver.referral.hit_ratio", "ratio", true),
    layer("resolver.referral.invalidated_per_kname", "count", false),
    layer("resolver.referral.negative_hit_ratio", "ratio", true),
    // resolver::coherence
    layer("resolver.coherence.lease_hit_ratio", "ratio", true),
    layer("resolver.coherence.expired_per_kname", "count", false),
    layer(
        "resolver.coherence.serial_dropped_per_kname",
        "count",
        false,
    ),
    layer("resolver.coherence.sync_us_p50", "us", false),
    layer("resolver.coherence.sync_bytes_per_sync", "B", false),
    layer("resolver.coherence.full_transfer_ratio", "ratio", false),
    layer(
        "resolver.coherence.entries_dropped_per_sync",
        "count",
        false,
    ),
    layer("resolver.coherence.staleness_ticks_max", "ticks", false),
    // the harness itself
    layer("bench.trace_overhead_frac", "ratio", false),
    layer("bench.ladder_unexplained_frac", "ratio", false),
    layer("bench.batch_wall_us_p99", "us", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is hand-written; it must list exactly this catalog.
    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let section = |key: &str, until: &str| {
            let from = text.find(key).expect("section present");
            let to = text[from..].find(until).map_or(text.len(), |i| from + i);
            text[from..to].to_string()
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        let layers = section("\"per_layer\"", "\"no-such-key\"");
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.bound.expect("end-to-end metrics are bounded")
            );
            assert!(e2e.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(layers.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\":")));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.bound.is_none_or(|b| b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
