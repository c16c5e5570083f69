//! What the live observatory's batch-grain instrumentation costs a
//! resolution workload, against the ≤ 2 % budget of
//! `docs/observability.md`.
//!
//! ```text
//! cargo bench -p naming-bench --bench observatory_overhead
//! ```
//!
//! Every file of a 2 000-object tree is resolved in 64-name batches, bare
//! and then instrumented: one chained clock read, one
//! [`WindowedHistogram`] record and one metrics-registry record per batch,
//! which is what the concurrent service pays per job. Both loops have the
//! same shape, so the difference is the instrumentation alone. The bare
//! and instrumented passes run in ABBA order and the overhead is the
//! median paired ratio of [`SAMPLES`] pairs, which cancels clock drift and
//! scheduler noise. It prints one line and takes no flags; the reading is
//! wall time on the machine it runs on.
//!
//! [`WindowedHistogram`]: naming_telemetry::window::WindowedHistogram

use naming_bench::scenarios::wide_tree;
use naming_core::resolve::Resolver;
use naming_telemetry::window::WindowedHistogram;
use std::hint::black_box;
use std::time::Instant;

/// The budget, in percent of the bare workload's time.
const BUDGET_PCT: f64 = 2.0;
/// Paired samples; odd, so the median is one pair.
const SAMPLES: usize = 41;
/// Passes over the tree in one timed sample.
const PASSES: usize = 100;
/// Names per batch, and per instrumentation record.
const BATCH: usize = 64;

fn main() {
    let (state, root, manifest) = wide_tree(2_000, 42);
    let r = Resolver::new();
    let names: Vec<_> = manifest.files.iter().map(|(n, _)| n.clone()).collect();
    let per_pass = names.len() * PASSES;

    let mut window = WindowedHistogram::new(1 << 12, 8);
    let latency = naming_telemetry::metrics::global().histogram("observatory.probe_batch_ns");
    let mut now = 0u64;
    let bare_pass = || {
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
    let mut instr_pass = || {
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
    let (mut bares, mut instrs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for s in 0..SAMPLES {
        let (b, i) = if s % 2 == 0 {
            let b = bare_pass();
            (b, instr_pass())
        } else {
            let i = instr_pass();
            (bare_pass(), i)
        };
        bares.push(b);
        instrs.push(i);
        ratios.push(i / b);
    }
    black_box(window.snapshot());
    for v in [&mut bares, &mut instrs, &mut ratios] {
        v.sort_by(f64::total_cmp);
    }
    let mid = SAMPLES / 2;
    let mops = |secs: f64| per_pass as f64 / secs / 1e6;
    println!(
        "observatory overhead: bare {:.2} Mops, instrumented {:.2} Mops, overhead {:.2} % \
         (budget {BUDGET_PCT:.1} %; wide_tree(2000), {BATCH}-name batches, median of {SAMPLES} ABBA pairs)",
        mops(bares[mid]),
        mops(instrs[mid]),
        (ratios[mid] - 1.0) * 100.0,
    );
}
