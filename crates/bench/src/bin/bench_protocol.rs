//! Emits `BENCH_protocol.json`: a machine-readable snapshot of what the
//! batched, coalesced resolution protocol and the validated referral
//! cache save on the wire, so the perf trajectory is tracked across PRs
//! without parsing criterion output.
//!
//! ```text
//! bench_protocol [--out PATH] [--stdout] [--iters N]
//! ```
//!
//! Two workloads over the standard referral-chain world
//! (`scenarios::protocol_zones`), each measured in messages and virtual
//! latency *per resolution* — deterministic quantities — plus wall-clock
//! throughput over `iters` repetitions:
//!
//! * **batch**: 64 sibling names resolved one-at-a-time (iterative)
//!   vs as a single coalesced batch;
//! * **repeated lookup**: the same 64 names resolved sequentially with a
//!   cold engine vs through a [`CachingResolver`] whose referral cache
//!   lets every lookup after the first jump to the deepest server.
//!
//! The tool asserts the batched entities equal the iterative ones before
//! reporting anything: the protocol saves messages, never changes
//! answers.

use std::time::Instant;

use naming_bench::cli::{self, Doc, Flag, Kind::Count};
use naming_bench::scenarios::protocol_zones;
use naming_core::entity::Entity;
use naming_resolver::cache::CachingResolver;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::wire::Mode;

const HOPS: usize = 4;
const LEAVES: usize = 64;
const SEED: u64 = 1993;

struct WorkloadResult {
    workload: &'static str,
    names: usize,
    baseline_messages: u64,
    baseline_latency_ticks: u64,
    optimized_messages: u64,
    optimized_latency_ticks: u64,
    resolutions_per_sec: f64,
}

impl WorkloadResult {
    fn reduction(&self) -> f64 {
        self.baseline_messages as f64 / self.optimized_messages.max(1) as f64
    }
}

/// One-at-a-time iterative resolution of every name on a cold engine:
/// the baseline both optimizations are measured against.
fn iterative_baseline(seed: u64) -> (Vec<Entity>, u64, u64) {
    let (mut w, svc, _machines, client, start, names) = protocol_zones(HOPS, LEAVES, seed);
    let mut engine = ProtocolEngine::new(svc);
    let mut messages = 0u64;
    let mut latency = 0u64;
    let mut entities = Vec::with_capacity(names.len());
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        messages += s.messages;
        latency += s.latency.ticks();
        entities.push(s.entity);
    }
    (entities, messages, latency)
}

/// All names in one coalesced batch on a cold engine.
fn batched(seed: u64) -> (Vec<Entity>, u64, u64) {
    let (mut w, svc, _machines, client, start, names) = protocol_zones(HOPS, LEAVES, seed);
    let mut engine = ProtocolEngine::new(svc);
    let b = engine.resolve_batch(&mut w, client, start, &names);
    (b.entities.clone(), b.messages, b.latency.ticks())
}

/// Sequential lookups through the caching resolver: the first walk
/// records referrals, every later name jumps to the deepest server.
/// Distinct names miss the positive cache throughout — the saving is the
/// referral cache's alone.
fn referral_cached(seed: u64) -> (Vec<Entity>, u64, u64) {
    let (mut w, svc, _machines, client, start, names) = protocol_zones(HOPS, LEAVES, seed);
    let mut resolver = CachingResolver::new(ProtocolEngine::new(svc));
    let sent0 = w.trace().counter("sent");
    let t0 = w.now();
    let mut entities = Vec::with_capacity(names.len());
    for n in &names {
        let (e, _) = resolver.resolve(&mut w, client, start, n, Mode::Iterative);
        entities.push(e);
    }
    let messages = w.trace().counter("sent") - sent0;
    let latency = w.now().ticks() - t0.ticks();
    (entities, messages, latency)
}

fn measure(iters: usize) -> Vec<WorkloadResult> {
    let (base_entities, base_msgs, base_lat) = iterative_baseline(SEED);
    assert!(
        base_entities.iter().all(|e| e.is_defined()),
        "baseline workload must resolve"
    );

    let (batch_entities, batch_msgs, batch_lat) = batched(SEED);
    assert_eq!(
        batch_entities, base_entities,
        "batched answers must equal iterative answers"
    );
    let t = Instant::now();
    for i in 0..iters as u64 {
        std::hint::black_box(batched(SEED ^ i));
    }
    let batch_ops = (iters * LEAVES) as f64 / t.elapsed().as_secs_f64();

    let (cached_entities, cached_msgs, cached_lat) = referral_cached(SEED);
    assert_eq!(
        cached_entities, base_entities,
        "referral-cached answers must equal iterative answers"
    );
    let t = Instant::now();
    for i in 0..iters as u64 {
        std::hint::black_box(referral_cached(SEED ^ i));
    }
    let cached_ops = (iters * LEAVES) as f64 / t.elapsed().as_secs_f64();

    vec![
        WorkloadResult {
            workload: "batch64_vs_iterative",
            names: LEAVES,
            baseline_messages: base_msgs,
            baseline_latency_ticks: base_lat,
            optimized_messages: batch_msgs,
            optimized_latency_ticks: batch_lat,
            resolutions_per_sec: batch_ops,
        },
        WorkloadResult {
            workload: "repeated_lookup_referral_cache",
            names: LEAVES,
            baseline_messages: base_msgs,
            baseline_latency_ticks: base_lat,
            optimized_messages: cached_msgs,
            optimized_latency_ticks: cached_lat,
            resolutions_per_sec: cached_ops,
        },
    ]
}

fn render(iters: usize, results: &[WorkloadResult]) -> Doc {
    let rows = results.iter().map(|r| {
        Doc::row()
            .str("workload", r.workload)
            .val("names", r.names)
            .val("hops", HOPS)
            .val("iterative_messages", r.baseline_messages)
            .val("iterative_latency_ticks", r.baseline_latency_ticks)
            .val("optimized_messages", r.optimized_messages)
            .val("optimized_latency_ticks", r.optimized_latency_ticks)
            .fix("message_reduction", r.reduction(), 2)
            .fix("resolutions_per_sec", r.resolutions_per_sec, 0)
    });
    Doc::block()
        .str("bench", "protocol")
        .val("iters", iters)
        .rows("results", rows)
}

const FLAGS: &[Flag] = &[Flag("--iters", Count, Some("20"))];

fn main() {
    let args = cli::parse("bench_protocol", &[cli::OUT, FLAGS]);
    let iters = args.count("--iters");
    let results = measure(iters);
    for r in &results {
        eprintln!(
            "{:32} {:4} msgs -> {:4} msgs ({:5.1}x), {:6} -> {:6} ticks, {:>9.0} res/s",
            r.workload,
            r.baseline_messages,
            r.optimized_messages,
            r.reduction(),
            r.baseline_latency_ticks,
            r.optimized_latency_ticks,
            r.resolutions_per_sec
        );
    }
    args.emit(&render(iters, &results), "BENCH_protocol.json");
}
