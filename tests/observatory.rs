//! The live observatory, end to end: deterministic flight-recorder
//! sampling through the real worker pool, windowed quantiles over a
//! service-shaped stream, and the coherence-SLO monitor grading the E20
//! chaos campaign — all reproducible run-to-run and across worker counts.

use naming_bench::experiments::e20_observatory;
use naming_core::prelude::*;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::wire::{BatchRequest, NameTrie};
use naming_telemetry::flight::{sample_key, FlightLog};
use naming_telemetry::metrics::MetricsSnapshot;
use naming_telemetry::window::{render_exposition, WindowedHistogram};

/// A small tree plus a deterministic path mix (live, dead, dotted).
fn build() -> (SystemState, ObjectId) {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    for d in 0..4 {
        let dir = s.add_context_object(format!("dir{d}"));
        s.bind(root, Name::new(&format!("dir{d}")), dir).unwrap();
        for f in 0..4 {
            let file = s.add_data_object(format!("dir{d}/file{f}"), vec![]);
            s.bind(dir, Name::new(&format!("file{f}")), file).unwrap();
        }
    }
    (s, root)
}

fn requests(root: ObjectId) -> Vec<BatchRequest> {
    (0..12u64)
        .map(|round| {
            let names: Vec<CompoundName> = (0..16u64)
                .map(|i| {
                    let d = (i * 7 + round) % 4;
                    let f = (i * 3 + round) % 5; // f == 4 misses
                    CompoundName::parse_path(&format!("/dir{d}/file{f}")).unwrap()
                })
                .collect();
            let (trie, _) = NameTrie::build(&names);
            BatchRequest {
                id: round,
                start: root,
                trie,
            }
        })
        .collect()
}

fn sampled_flight(workers: usize, every: u64) -> FlightLog {
    let (s, root) = build();
    let mut svc = ConcurrentService::with_sampling(s, workers, every);
    for req in requests(root) {
        svc.submit(req);
    }
    svc.drain();
    svc.shutdown().flight
}

#[test]
fn merged_flight_log_is_nonempty_and_identical_across_runs_and_worker_counts() {
    let reference = sampled_flight(1, 4);
    assert!(
        !reference.entries.is_empty(),
        "sampling must admit some of the 192 queries"
    );
    assert!(reference.sampled < reference.seen, "1-in-4 must also skip");
    for workers in [1, 2, 4, 8] {
        for _ in 0..2 {
            let log = sampled_flight(workers, 4);
            assert_eq!(
                log.entries, reference.entries,
                "{workers}-worker flight log diverges"
            );
            assert_eq!(log.seen, reference.seen);
            assert_eq!(log.sampled, reference.sampled);
        }
    }
}

#[test]
fn sampling_keys_are_pure_functions_of_request_and_name() {
    // The admission decision never consults worker id, time, or RNG:
    // the same (request, name) pair always produces the same key.
    for req in 0..8u64 {
        for name in ["/dir0/file1", "/dir3/file4", ""] {
            assert_eq!(sample_key(req, name), sample_key(req, name));
        }
    }
    // ...and distinct inputs spread: over many pairs both admitted and
    // skipped outcomes occur at every non-trivial rate.
    for every in [2u64, 4, 16] {
        let admitted = (0..256u64)
            .filter(|&req| sample_key(req, "/dir0/file0").is_multiple_of(every))
            .count();
        assert!(
            admitted > 0 && admitted < 256,
            "rate 1-in-{every} degenerate"
        );
    }
}

#[test]
fn windowed_quantiles_follow_a_service_phase_change() {
    // A latency regression two windows in must surface in the rolling
    // p99 once the horizon rotates past the healthy prefix.
    let mut w = WindowedHistogram::new(1_000, 4);
    for i in 0..500u64 {
        w.record(i * 2, 10); // healthy: ≤ 15-tick bucket
    }
    assert_eq!(w.p99(), 15);
    for i in 0..500u64 {
        w.record(2_000 + i * 2, 900); // regressed: ≤ 1023-tick bucket
    }
    assert_eq!(
        w.p99(),
        1_023,
        "regression visible while both phases retained"
    );
    // Rotate far enough that only regressed windows remain.
    w.advance(10_000);
    assert_eq!(w.retained(), 0, "idle scrape ages everything out");
    assert_eq!(w.p50(), 0);
    let empty = w.snapshot();
    assert_eq!(empty.quantile(0.999), 0, "empty horizon quantiles are 0");
}

#[test]
fn exposition_renders_merged_windowed_snapshot() {
    let mut w = WindowedHistogram::new(100, 8);
    w.record(0, 3);
    w.record(150, 300);
    let mut snap = MetricsSnapshot::default();
    snap.histograms
        .insert("slo.publish-latency".into(), w.snapshot());
    let text = render_exposition(&snap);
    assert!(text.contains("# TYPE slo_publish_latency histogram"));
    assert!(text.contains("slo_publish_latency_bucket{le=\"3\"} 1"));
    assert!(text.contains("slo_publish_latency_bucket{le=\"511\"} 2"));
    assert!(text.contains("slo_publish_latency_count 2"));
}

#[test]
fn observatory_grades_the_chaos_campaign_reproducibly() {
    let a = e20_observatory::run(7);
    let b = e20_observatory::run(7);
    assert_eq!(
        a.phases, b.phases,
        "campaign ledger must be seed-deterministic"
    );
    assert_eq!(a.report, b.report);
    // The SLO verdict itself: a correct protocol never reports false ⊥,
    // the deliberately delayed publication breaches the staleness
    // objective, and every window/publish is accounted for.
    assert_eq!(a.report.false_bottoms, 0);
    assert_eq!(a.report.staleness_windows, a.report.publishes);
    assert!(a.report.breaches > 0, "the delayed episode must breach");
    assert!(
        a.breaches_by_objective
            .iter()
            .any(|(o, n)| *o == "staleness" && *n > 0),
        "breach must be attributed to the staleness objective"
    );
}

#[test]
fn staleness_max_is_the_longest_window_not_a_bucket_bound() {
    use naming_resolver::observatory::{SloThresholds, StalenessObservatory};
    let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
    obs.note_staleness_window(1_000, 10_000);
    let rep = obs.report();
    assert_eq!(rep.staleness_max_ticks, 9_000);
    // The histogram's top quantile is only the bound of 9 000's
    // power-of-two bucket.
    assert_eq!(rep.staleness.quantile(1.0), 16_383);
}
