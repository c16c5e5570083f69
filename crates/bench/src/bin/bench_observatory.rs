//! Emits `BENCH_observatory.json`: the coherence-SLO observatory's
//! verdict on the E20 chaos campaign, tracked across PRs, plus a
//! wall-clock probe of the observatory instrumentation's overhead on a
//! resolution workload.
//!
//! ```text
//! bench_observatory [--out PATH] [--stdout] [--seed S] [--samples N]
//! bench_observatory --json [--seed S]
//! ```
//!
//! Two sections:
//!
//! * **slo** — deterministic: the phase ledger and SLO grade of the E20
//!   campaign (staleness windows, false-⊥ / Unreachable rates,
//!   publish-latency quantiles, breach counts), all in virtual time.
//!   Identical on every machine and every run; `--json` prints only this
//!   section so it can be diffed byte-for-byte.
//! * **overhead** — hardware-bound: the same resolution loop run bare and
//!   then with the observatory's batch-grain instrumentation (one clock
//!   read, one [`WindowedHistogram`] record, and one metrics-registry
//!   record per 64-name batch — what the concurrent service pays per
//!   job), reported as the median paired slowdown against the documented
//!   ≤2% budget.
//!
//! [`WindowedHistogram`]: naming_telemetry::window::WindowedHistogram

use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::experiments::e20_observatory::{run, E20Result};

/// Documented instrumentation budget (docs/observability.md): percent
/// slowdown the live observatory may add to a resolution workload.
const BUDGET_PCT: f64 = 2.0;

/// The deterministic section: phase ledger + observatory grade.
fn slo_doc(seed: u64, r: &E20Result) -> Doc {
    let phases = r.phases.iter().map(|p| {
        Doc::row()
            .str("phase", p.phase)
            .val("resolves", p.resolves)
            .val("defined", p.defined)
            .val("unreachable", p.unreachable)
            .val("false_bottoms", p.false_bottoms)
            .val("retransmissions", p.retransmissions)
            .val("failovers", p.failovers)
            .val("latency_p50_ticks", p.latency_p50)
            .val("latency_p99_ticks", p.latency_p99)
    });
    let breaches = r
        .breaches_by_objective
        .iter()
        .map(|(objective, n)| Doc::row().str("objective", objective).val("count", n));
    let thresholds = Doc::row()
        .val("staleness_ticks", r.thresholds.staleness_ticks)
        .val("false_bottom_rate", r.thresholds.false_bottom_rate)
        .val("unreachable_rate", r.thresholds.unreachable_rate)
        .val("publish_p99_ticks", r.thresholds.publish_p99_ticks);
    let rep = &r.report;
    let slo = Doc::block()
        .val("resolves", rep.resolves)
        .val("false_bottoms", rep.false_bottoms)
        .fix("false_bottom_rate", rep.false_bottom_rate, 4)
        .val("unreachables", rep.unreachables)
        .fix("unreachable_rate", rep.unreachable_rate, 4)
        .val("publishes", rep.publishes)
        .val(
            "publish_latency_p50_ticks",
            rep.publish_latency.quantile(0.50),
        )
        .val(
            "publish_latency_p99_ticks",
            rep.publish_latency.quantile(0.99),
        )
        .val("staleness_windows", rep.staleness_windows)
        .val("staleness_max_ticks", rep.staleness.quantile(1.0))
        .fix("publish_burn", rep.publish_burn, 4)
        .val("breaches", rep.breaches)
        .list("breaches_by_objective", breaches)
        .val("ok", rep.ok());
    Doc::block()
        .str("bench", "observatory")
        .val("seed", seed)
        .obj("thresholds", thresholds)
        .rows("phases", phases)
        .obj("slo", slo)
}

/// Wall-clock overhead probe: resolves every file of a 2000-object tree
/// in 64-name batches, bare vs with the live observatory's batch-grain
/// instrumentation — one chained clock read, one [`WindowedHistogram`]
/// record, and one metrics-registry record per batch, exactly what the
/// concurrent service pays per job. Both loops have identical shape so
/// the delta is the instrumentation alone; bare/instrumented passes run
/// in ABBA order and the reported percentage is the median paired ratio,
/// which cancels clock-speed drift and scheduler interference.
///
/// Returns (ops per pass, bare Mops, instrumented Mops, overhead %).
///
/// [`WindowedHistogram`]: naming_telemetry::window::WindowedHistogram
fn overhead_probe(samples: usize) -> (usize, f64, f64, f64) {
    use naming_bench::scenarios::wide_tree;
    use naming_core::resolve::Resolver;
    use naming_telemetry::window::WindowedHistogram;
    use std::hint::black_box;
    use std::time::Instant;

    const PASSES: usize = 100;
    const BATCH: usize = 64;
    let (state, root, manifest) = wide_tree(2_000, 42);
    let r = Resolver::new();
    let names: Vec<_> = manifest.files.iter().map(|(n, _)| n.clone()).collect();
    let per_pass = names.len() * PASSES;

    let mut window = WindowedHistogram::new(1 << 12, 8);
    let latency = naming_telemetry::metrics::global().histogram("observatory.probe_batch_ns");
    let mut now = 0u64;
    let bare_pass = |r: &Resolver| {
        let t = Instant::now();
        for _ in 0..PASSES {
            for batch in names.chunks(BATCH) {
                for n in batch {
                    black_box(r.resolve_entity(&state, root, black_box(n)));
                }
            }
        }
        t.elapsed().as_secs_f64()
    };
    let mut instr_pass = |r: &Resolver| {
        let t = Instant::now();
        let mut prev = t;
        for _ in 0..PASSES {
            for batch in names.chunks(BATCH) {
                for n in batch {
                    black_box(r.resolve_entity(&state, root, black_box(n)));
                }
                let end = Instant::now();
                let ns = end.duration_since(prev).as_nanos() as u64;
                prev = end;
                now += 1;
                window.record(now, ns);
                latency.record(ns);
            }
        }
        t.elapsed().as_secs_f64()
    };
    let mut bares = Vec::new();
    let mut instrs = Vec::new();
    let mut ratios = Vec::new();
    for s in 0..samples {
        let (b, i) = if s % 2 == 0 {
            let b = bare_pass(&r);
            (b, instr_pass(&r))
        } else {
            let i = instr_pass(&r);
            (bare_pass(&r), i)
        };
        bares.push(b);
        instrs.push(i);
        ratios.push(i / b);
    }
    black_box(window.snapshot());
    bares.sort_by(f64::total_cmp);
    instrs.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let mid = samples / 2;
    let ops = per_pass as f64;
    (
        per_pass,
        ops / bares[mid] / 1e6,
        ops / instrs[mid] / 1e6,
        (ratios[mid] - 1.0) * 100.0,
    )
}

fn overhead_doc(samples: usize) -> Doc {
    let (per_pass, bare, instr, pct) = overhead_probe(samples);
    Doc::row()
        .str("workload", "wide_tree_2000_batch64")
        .val("resolves_per_pass", per_pass)
        .fix("bare_mops", bare, 2)
        .fix("instrumented_mops", instr, 2)
        .fix("overhead_pct", pct, 2)
        .fix("budget_pct", BUDGET_PCT, 1)
        .val("within_budget", pct <= BUDGET_PCT)
}

const FLAGS: &[Flag] = &[
    Flag("--json", Switch, None),
    // The experiment suite's seed.
    Flag("--seed", Int, Some("19930601")),
    Flag("--samples", Count, Some("41")),
];

fn main() {
    let args = cli::parse("bench_observatory", &[cli::OUT, FLAGS]);
    let seed = args.int("--seed");
    let result = run(seed);
    let slo = slo_doc(seed, &result);
    if args.on("--json") {
        // Deterministic section only, diffable byte-for-byte.
        println!("{slo}");
        return;
    }
    let doc = slo.obj("overhead", overhead_doc(args.count("--samples")));
    let rep = &result.report;
    eprintln!(
        "slo: {} resolves, false-bottom rate {:.4}, unreachable rate {:.4}, \
         publish p99 {} ticks, {} staleness windows (max {} ticks), {} breaches",
        rep.resolves,
        rep.false_bottom_rate,
        rep.unreachable_rate,
        rep.publish_latency.quantile(0.99),
        rep.staleness_windows,
        rep.staleness.quantile(1.0),
        rep.breaches
    );
    args.emit(&doc, "BENCH_observatory.json");
}
