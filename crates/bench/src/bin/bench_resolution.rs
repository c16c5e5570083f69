//! Emits `BENCH_resolution.json`: a small machine-readable snapshot of
//! resolution throughput — naive re-walk vs generation-validated
//! memoization — so the perf trajectory is tracked across PRs without
//! parsing criterion output.
//!
//! ```text
//! bench_resolution [--out PATH] [--stdout] [--iters N] [--trace PATH]
//!                  [--metrics]
//! ```
//!
//! For each path depth the tool times `iters` naive resolutions and
//! `iters` memoized resolutions of the same compound name (memo warmed,
//! counters reset, so the steady-state hit rate is visible) and reports
//! ops/sec, the speedup ratio, and the memo hit rate.
//!
//! A separate `context_lookup` leg times single-component lookups against
//! a small context (≤ [`INLINE_CAP`] bindings) held in its inline sorted
//! array versus the same function force-spilled into the hash-indexed
//! tier, so the payoff of the two-tier representation is tracked
//! directly.
//!
//! `--trace PATH` runs a short traced pass *after* the timing loops — the
//! recorder is never installed while the clock is running — and writes
//! the spans as a Chrome `trace_event` file. `--metrics` prints the global
//! metrics-registry snapshot as JSON on stderr.

use std::time::Instant;

use naming_bench::cli::{self, Doc, Flag, Kind::Count};
use naming_bench::scenarios::deep_chain;
use naming_core::context::{Context, INLINE_CAP};
use naming_core::entity::{Entity, ObjectId};
use naming_core::memo::ResolutionMemo;
use naming_core::name::Name;
use naming_core::resolve::Resolver;

const DEPTHS: [usize; 3] = [4, 16, 64];
/// Binding count for the small-context lookup leg — a typical directory
/// fan-out, comfortably inside the inline tier.
const SMALL_CTX_BINDINGS: usize = 6;

struct DepthResult {
    depth: usize,
    naive_ops_per_sec: f64,
    memoized_ops_per_sec: f64,
    hit_rate: f64,
}

struct CtxLookupResult {
    bindings: usize,
    inline_ops_per_sec: f64,
    spilled_ops_per_sec: f64,
}

/// Times `lookup` against the same small function in both tiers: once on
/// a naturally-inline context and once on a `force_spill`ed twin. Each
/// timed op is one lookup; probes rotate through every bound name so the
/// inline scan is exercised at all positions, not just the best case.
fn measure_context_lookup(bindings: usize, iters: usize) -> CtxLookupResult {
    assert!(
        bindings <= INLINE_CAP,
        "leg must stay inside the inline tier"
    );
    let names: Vec<Name> = (0..bindings)
        .map(|i| Name::new(&format!("ctx-leg-{i:02}")))
        .collect();
    let mut inline = Context::new();
    for (i, &n) in names.iter().enumerate() {
        inline.bind(n, Entity::Object(ObjectId::from_index(i as u32)));
    }
    let mut spilled = inline.clone();
    spilled.force_spill();
    assert!(!inline.is_spilled() && spilled.is_spilled());

    let time = |ctx: &Context| {
        let t = Instant::now();
        for i in 0..iters {
            let n = names[i % bindings];
            std::hint::black_box(ctx.lookup(std::hint::black_box(n)));
        }
        iters as f64 / t.elapsed().as_secs_f64()
    };
    // Spilled first so any warm-up penalty lands on the tier we expect to
    // win anyway.
    let spilled_ops = time(&spilled);
    let inline_ops = time(&inline);
    CtxLookupResult {
        bindings,
        inline_ops_per_sec: inline_ops,
        spilled_ops_per_sec: spilled_ops,
    }
}

fn measure(depth: usize, iters: usize) -> DepthResult {
    let (state, root, name) = deep_chain(depth);
    let r = Resolver::new();

    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(r.resolve_entity(&state, root, std::hint::black_box(&name)));
    }
    let naive = iters as f64 / t.elapsed().as_secs_f64();

    let mut memo = ResolutionMemo::new();
    r.resolve_entity_memo(&state, root, &name, &mut memo);
    memo.reset_stats();
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(r.resolve_entity_memo(
            &state,
            root,
            std::hint::black_box(&name),
            &mut memo,
        ));
    }
    let memoized = iters as f64 / t.elapsed().as_secs_f64();

    DepthResult {
        depth,
        naive_ops_per_sec: naive,
        memoized_ops_per_sec: memoized,
        hit_rate: memo.stats().hit_rate(),
    }
}

fn render(iters: usize, results: &[DepthResult], ctx: &CtxLookupResult) -> Doc {
    let rows = results.iter().map(|r| {
        Doc::row()
            .val("depth", r.depth)
            .fix("naive_ops_per_sec", r.naive_ops_per_sec, 0)
            .fix("memoized_ops_per_sec", r.memoized_ops_per_sec, 0)
            .fix("speedup", r.memoized_ops_per_sec / r.naive_ops_per_sec, 2)
            .fix("memo_hit_rate", r.hit_rate, 4)
    });
    let ctx_row = Doc::row()
        .val("bindings", ctx.bindings)
        .fix("inline_ops_per_sec", ctx.inline_ops_per_sec, 0)
        .fix("spilled_ops_per_sec", ctx.spilled_ops_per_sec, 0)
        .fix(
            "inline_speedup",
            ctx.inline_ops_per_sec / ctx.spilled_ops_per_sec,
            2,
        );
    Doc::block()
        .str("bench", "resolution")
        .val("iters", iters)
        .rows("results", rows)
        .obj("context_lookup", ctx_row)
}

/// A short traced pass over the same scenarios: 100 plain + 100 memoized
/// resolutions per depth, one recorder track per depth, written as a
/// Chrome trace. Runs after the timing loops so tracing never skews them.
fn traced_pass() {
    use naming_telemetry::recorder;
    recorder::install();
    for (i, &depth) in DEPTHS.iter().enumerate() {
        let track = i as u64 + 1;
        recorder::set_track_name(track, format!("depth {depth}"));
        let (state, root, name) = deep_chain(depth);
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        for tick in 0..100u64 {
            recorder::set_clock(tick);
            std::hint::black_box(r.resolve_entity(&state, root, &name));
            std::hint::black_box(r.resolve_entity_memo(&state, root, &name, &mut memo));
        }
    }
}

const FLAGS: &[Flag] = &[Flag("--iters", Count, Some("200000"))];

fn main() {
    let args = cli::parse("bench_resolution", &[cli::OUT, cli::TELEMETRY, FLAGS]);
    let iters = args.count("--iters");
    let results: Vec<DepthResult> = DEPTHS.iter().map(|&d| measure(d, iters)).collect();
    let ctx = measure_context_lookup(SMALL_CTX_BINDINGS, iters);
    for r in &results {
        eprintln!(
            "depth {:2}: naive {:>12.0} ops/s, memoized {:>12.0} ops/s ({:.2}x, hit rate {:.1}%)",
            r.depth,
            r.naive_ops_per_sec,
            r.memoized_ops_per_sec,
            r.memoized_ops_per_sec / r.naive_ops_per_sec,
            100.0 * r.hit_rate
        );
    }
    eprintln!(
        "context lookup ({} bindings): inline {:>12.0} ops/s, spilled {:>12.0} ops/s ({:.2}x)",
        ctx.bindings,
        ctx.inline_ops_per_sec,
        ctx.spilled_ops_per_sec,
        ctx.inline_ops_per_sec / ctx.spilled_ops_per_sec
    );
    args.emit(&render(iters, &results, &ctx), "BENCH_resolution.json");

    if args.text("--trace").is_some() {
        traced_pass();
    }
    args.write_telemetry();
}
