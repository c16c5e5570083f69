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

use naming_bench::experiments::e20_observatory::{run, E20Result};
use naming_core::report::json_string;

/// Documented instrumentation budget (docs/observability.md): percent
/// slowdown the live observatory may add to a resolution workload.
const BUDGET_PCT: f64 = 2.0;
const DEFAULT_SEED: u64 = 19930601; // matches the experiment suite
const DEFAULT_SAMPLES: u32 = 41;

/// The deterministic SLO section: phase ledger + observatory grade.
fn slo_json(seed: u64, r: &E20Result) -> String {
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"phase\": {}, \"resolves\": {}, \"defined\": {}, \
                 \"unreachable\": {}, \"false_bottoms\": {}, \
                 \"retransmissions\": {}, \"failovers\": {}, \
                 \"latency_p50_ticks\": {}, \"latency_p99_ticks\": {}}}",
                json_string(p.phase),
                p.resolves,
                p.defined,
                p.unreachable,
                p.false_bottoms,
                p.retransmissions,
                p.failovers,
                p.latency_p50,
                p.latency_p99
            )
        })
        .collect();
    let breaches: Vec<String> = r
        .breaches_by_objective
        .iter()
        .map(|(objective, n)| {
            format!(
                "{{\"objective\": {}, \"count\": {}}}",
                json_string(objective),
                n
            )
        })
        .collect();
    let rep = &r.report;
    format!(
        "  \"bench\": {},\n  \"seed\": {},\n  \"thresholds\": {{\
         \"staleness_ticks\": {}, \"false_bottom_rate\": {}, \
         \"unreachable_rate\": {}, \"publish_p99_ticks\": {}}},\n  \
         \"phases\": [\n{}\n  ],\n  \"slo\": {{\n    \
         \"resolves\": {},\n    \"false_bottoms\": {},\n    \
         \"false_bottom_rate\": {:.4},\n    \"unreachables\": {},\n    \
         \"unreachable_rate\": {:.4},\n    \"publishes\": {},\n    \
         \"publish_latency_p50_ticks\": {},\n    \
         \"publish_latency_p99_ticks\": {},\n    \
         \"staleness_windows\": {},\n    \"staleness_max_ticks\": {},\n    \
         \"publish_burn\": {:.4},\n    \"breaches\": {},\n    \
         \"breaches_by_objective\": [{}],\n    \"ok\": {}\n  }}",
        json_string("observatory"),
        seed,
        r.thresholds.staleness_ticks,
        r.thresholds.false_bottom_rate,
        r.thresholds.unreachable_rate,
        r.thresholds.publish_p99_ticks,
        phases.join(",\n"),
        rep.resolves,
        rep.false_bottoms,
        rep.false_bottom_rate,
        rep.unreachables,
        rep.unreachable_rate,
        rep.publishes,
        rep.publish_latency.quantile(0.50),
        rep.publish_latency.quantile(0.99),
        rep.staleness_windows,
        rep.staleness.quantile(1.0),
        rep.publish_burn,
        rep.breaches,
        breaches.join(", "),
        rep.ok()
    )
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
fn overhead_probe(samples: u32) -> (usize, f64, f64, f64) {
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
    let mid = samples as usize / 2;
    let ops = per_pass as f64;
    (
        per_pass,
        ops / bares[mid] / 1e6,
        ops / instrs[mid] / 1e6,
        (ratios[mid] - 1.0) * 100.0,
    )
}

fn overhead_json(samples: u32) -> String {
    let (per_pass, bare, instr, pct) = overhead_probe(samples);
    format!(
        "  \"overhead\": {{\"workload\": {}, \"resolves_per_pass\": {}, \
         \"bare_mops\": {:.2}, \"instrumented_mops\": {:.2}, \
         \"overhead_pct\": {:.2}, \"budget_pct\": {:.1}, \
         \"within_budget\": {}}}",
        json_string("wide_tree_2000_batch64"),
        per_pass,
        bare,
        instr,
        pct,
        BUDGET_PCT,
        pct <= BUDGET_PCT
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_observatory.json");
    let mut to_stdout = false;
    let mut json_only = false;
    let mut seed = DEFAULT_SEED;
    let mut samples = DEFAULT_SAMPLES;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = match args.get(i) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--out requires a path argument");
                        std::process::exit(2);
                    }
                };
            }
            "--stdout" => {
                to_stdout = true;
            }
            "--json" => {
                json_only = true;
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed requires an integer argument");
                        std::process::exit(2);
                    }
                };
            }
            "--samples" => {
                i += 1;
                samples = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--samples requires a positive integer argument");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_observatory [--out PATH] [--stdout] [--seed S] [--samples N]\n       \
                     bench_observatory --json [--seed S]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let result = run(seed);
    let slo = slo_json(seed, &result);
    if json_only {
        // Deterministic section only, diffable byte-for-byte.
        print!("{{\n{slo}\n}}\n");
        return;
    }
    let json = format!("{{\n{slo},\n{}\n}}\n", overhead_json(samples));
    if to_stdout {
        print!("{json}");
    } else {
        std::fs::write(&out, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
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
        eprintln!("wrote {out}");
    }
}
