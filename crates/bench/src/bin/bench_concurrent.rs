//! Emits `BENCH_concurrent.json`: worker-scaling numbers for the
//! snapshot-serving `ConcurrentService`, tracked across PRs.
//!
//! ```text
//! bench_concurrent [--out PATH] [--stdout] [--iters N]
//! bench_concurrent --json [--workers N]
//! ```
//!
//! The **batch64 workload**: a three-level directory tree, 64 batches of
//! 64 names each (shared-prefix compressed into [`NameTrie`]s), every
//! batch resolved from the root. Two measurements per worker count
//! (1/2/4/8):
//!
//! * **deterministic scaling** — the same batch sequence scheduled on a
//!   [`VirtualPool`], the simulator's model of a FIFO worker pool, with
//!   each batch costing its total component-lookup count in virtual
//!   ticks. Makespan, throughput-per-ktick, and speedup are identical on
//!   every machine, so CI can compare them byte-for-byte.
//! * **wall clock** — the real `ConcurrentService` pool serving the same
//!   batches (`--iters` repetitions), reported as ops/sec. This number
//!   is hardware-bound: on a single-core host the pool cannot beat the
//!   serial engine, which is exactly why the scaling table is measured
//!   in virtual time.
//!
//! Each wall-clock point also surfaces the pool's own service report: the
//! queue-depth high-water mark (deterministically the batch count, since
//! every batch is submitted before the drain — asserted and included in
//! the JSON) and merged per-worker queue-wait / service-time quantiles
//! (hardware-bound, so stderr only).
//!
//! Before reporting anything the tool asserts every concurrent answer
//! equals the serial engine's, and `--json` dumps the answers themselves
//! (serial when `--workers` is absent) so the CI determinism leg can
//! diff serial vs 4-worker output byte-for-byte.

use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::scenarios::Lcg;
use naming_core::entity::{Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_resolver::concurrent::{ConcurrentService, HistogramSnapshot};
use naming_resolver::wire::{BatchRequest, NameTrie};
use naming_sim::pool::VirtualPool;
use naming_sim::time::Duration;
use naming_telemetry::json::json_string;
use std::time::Instant;

const BATCHES: usize = 64;
const BATCH_SIZE: usize = 64;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The batch64 workload: a 3-level tree (8 dirs × 8 subdirs × 8 files)
/// and 64 batches of 64 root-relative paths, ~1 in 16 of them unbound.
struct Workload {
    state: SystemState,
    root: ObjectId,
    batches: Vec<Vec<CompoundName>>,
}

fn build_workload() -> Workload {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    for d in 0..8 {
        let dir = s.add_context_object(format!("d{d}"));
        s.bind(root, Name::new(&format!("d{d}")), dir).unwrap();
        for sd in 0..8 {
            let sub = s.add_context_object(format!("d{d}/s{sd}"));
            s.bind(dir, Name::new(&format!("s{sd}")), sub).unwrap();
            for f in 0..8 {
                let file = s.add_data_object(format!("d{d}/s{sd}/f{f}"), vec![]);
                s.bind(sub, Name::new(&format!("f{f}")), file).unwrap();
            }
        }
    }
    // Deterministic path mix: mostly live leaves, some misses.
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let mut step = || rng.draw();
    let batches = (0..BATCHES)
        .map(|_| {
            (0..BATCH_SIZE)
                .map(|_| {
                    let (d, sd, f, miss) = (step() % 8, step() % 8, step() % 8, step() % 16 == 0);
                    let path = if miss {
                        format!("/d{d}/s{sd}/missing")
                    } else {
                        format!("/d{d}/s{sd}/f{f}")
                    };
                    CompoundName::parse_path(&path).unwrap()
                })
                .collect()
        })
        .collect();
    Workload {
        state: s,
        root,
        batches,
    }
}

/// Builds the wire frames once: one [`BatchRequest`] per batch.
fn frames(w: &Workload) -> Vec<BatchRequest> {
    w.batches
        .iter()
        .enumerate()
        .map(|(id, names)| {
            let (trie, _) = NameTrie::build(names);
            BatchRequest {
                id: id as u64,
                start: w.root,
                trie,
            }
        })
        .collect()
}

/// Serial reference: every query of every batch through the plain
/// resolver, in frame order. This is the answer key all modes must match.
fn serial_answers(w: &Workload, reqs: &[BatchRequest]) -> Vec<Vec<Entity>> {
    let r = Resolver::new();
    reqs.iter()
        .map(|req| {
            req.trie
                .names()
                .iter()
                .map(|n| r.resolve_entity(&w.state, req.start, n))
                .collect()
        })
        .collect()
}

/// A batch's cost on a virtual worker: one tick per component of every
/// query (the per-query walk length bound) — deterministic by
/// construction.
fn batch_cost(req: &BatchRequest) -> Duration {
    let ticks: u64 = req.trie.names().iter().map(|n| n.len() as u64).sum();
    Duration::from_ticks(ticks)
}

struct ScalePoint {
    workers: usize,
    makespan_ticks: u64,
    per_ktick: f64,
    speedup: f64,
    utilization: f64,
    wall: WallRun,
}

/// What the real pool measured at one worker count.
struct WallRun {
    ops_per_sec: f64,
    /// Queue-depth high-water mark of the last round. All batches are
    /// submitted before the drain, so this is exactly the batch count —
    /// deterministic, asserted, and reported in the JSON.
    queue_depth_hwm: u64,
    /// Aggregated per-worker wall-latency quantiles from the last round
    /// (nanoseconds; observational — stderr only, never in the JSON).
    queue_wait_p50_ns: u64,
    queue_wait_p99_ns: u64,
    service_p50_ns: u64,
    service_p99_ns: u64,
}

fn measure(iters: usize) -> (usize, Vec<ScalePoint>) {
    let w = build_workload();
    let reqs = frames(&w);
    let answers = serial_answers(&w, &reqs);
    let queries: usize = answers.iter().map(Vec::len).sum();
    assert!(
        answers.iter().flatten().any(|e| e.is_defined())
            && answers.iter().flatten().any(|e| !e.is_defined()),
        "workload must mix hits and misses"
    );

    let costs: Vec<Duration> = reqs.iter().map(batch_cost).collect();
    let serial_span: u64 = costs.iter().map(|c| c.ticks()).sum();

    let points = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut pool = VirtualPool::new(workers);
            for &c in &costs {
                pool.assign(c);
            }
            let makespan = pool.makespan().ticks();
            ScalePoint {
                workers,
                makespan_ticks: makespan,
                per_ktick: queries as f64 * 1000.0 / makespan as f64,
                speedup: serial_span as f64 / makespan as f64,
                utilization: pool.utilization(),
                wall: wall_run(&w, &reqs, &answers, workers, queries, iters),
            }
        })
        .collect();
    (queries, points)
}

/// Sums per-worker histogram snapshots bucket-by-bucket (all workers share
/// the power-of-two bucket layout, so upper bounds line up exactly).
fn merge_histograms<'a>(parts: impl Iterator<Item = &'a HistogramSnapshot>) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    let mut buckets = std::collections::BTreeMap::new();
    for part in parts {
        merged.count += part.count;
        merged.sum += part.sum;
        for &(ub, n) in &part.buckets {
            *buckets.entry(ub).or_insert(0u64) += n;
        }
    }
    merged.buckets = buckets.into_iter().collect();
    merged
}

/// Serves every frame on a real pool `iters` times, asserting the answers
/// against the serial key each round, and measures ops/sec, the
/// queue-depth HWM, and the merged per-worker latency quantiles of the
/// last round.
fn wall_run(
    w: &Workload,
    reqs: &[BatchRequest],
    answers: &[Vec<Entity>],
    workers: usize,
    queries: usize,
    iters: usize,
) -> WallRun {
    let mut last_report = None;
    let t = Instant::now();
    for _ in 0..iters {
        let mut svc = ConcurrentService::new(w.state.clone(), workers);
        for req in reqs {
            svc.submit(req.clone());
        }
        let got = svc.drain();
        let report = svc.shutdown();
        for (a, key) in got.iter().zip(answers) {
            assert_eq!(&a.entities, key, "concurrent answers diverge from serial");
        }
        last_report = Some(report);
    }
    let ops_per_sec = (iters * queries) as f64 / t.elapsed().as_secs_f64();
    let report = last_report.expect("iters > 0 is enforced at argument parsing");
    assert_eq!(
        report.queue_depth_hwm, BATCHES as u64,
        "all batches are submitted before the drain, so the HWM is the batch count"
    );
    let wait = merge_histograms(report.workers.iter().map(|r| &r.queue_wait));
    let served = merge_histograms(report.workers.iter().map(|r| &r.service_time));
    WallRun {
        ops_per_sec,
        queue_depth_hwm: report.queue_depth_hwm,
        queue_wait_p50_ns: wait.quantile(0.50),
        queue_wait_p99_ns: wait.quantile(0.99),
        service_p50_ns: served.quantile(0.50),
        service_p99_ns: served.quantile(0.99),
    }
}

fn render(iters: usize, queries: usize, points: &[ScalePoint]) -> Doc {
    let rows = points.iter().map(|p| {
        Doc::row()
            .val("workers", p.workers)
            .val("virtual_makespan_ticks", p.makespan_ticks)
            .fix("throughput_per_ktick", p.per_ktick, 1)
            .fix("speedup_vs_1_worker", p.speedup, 2)
            .fix("utilization", p.utilization, 3)
            .val("queue_depth_hwm", p.wall.queue_depth_hwm)
            .fix("wall_ops_per_sec", p.wall.ops_per_sec, 0)
    });
    Doc::block()
        .str("bench", "concurrent")
        .str("workload", "batch64")
        .val("batches", BATCHES)
        .val("batch_size", BATCH_SIZE)
        .val("queries", queries)
        .val("iters", iters)
        .rows("results", rows)
}

/// `--json` mode: dump the answers themselves (deterministic; the CI leg
/// diffs serial vs 4-worker output byte-for-byte).
fn render_answers(answers: &[Vec<Entity>]) -> Doc {
    let rows = answers.iter().enumerate().map(|(id, es)| {
        Doc::row()
            .val("batch", id)
            .list("entities", es.iter().map(|e| json_string(&e.to_string())))
    });
    Doc::block()
        .str("bench", "concurrent")
        .str("workload", "batch64")
        .rows("answers", rows)
}

fn answers_via_workers(workers: usize) -> Vec<Vec<Entity>> {
    let w = build_workload();
    let reqs = frames(&w);
    if workers == 0 {
        return serial_answers(&w, &reqs);
    }
    let mut svc = ConcurrentService::new(w.state.clone(), workers);
    for req in &reqs {
        svc.submit(req.clone());
    }
    let got = svc.drain();
    svc.shutdown();
    got.into_iter().map(|a| a.entities).collect()
}

const FLAGS: &[Flag] = &[
    Flag("--iters", Count, Some("20")),
    Flag("--json", Switch, None),
    Flag("--workers", Int, Some("0")),
];

fn main() {
    let args = cli::parse("bench_concurrent", &[cli::OUT, FLAGS]);
    if args.on("--json") {
        let answers = answers_via_workers(args.count("--workers"));
        println!("{}", render_answers(&answers));
        return;
    }

    let iters = args.count("--iters");
    let (queries, points) = measure(iters);
    for p in &points {
        let wall = &p.wall;
        eprintln!(
            "{:2} workers: makespan {:>7} ticks, {:>8.1}/ktick, speedup {:>5.2}x, util {:.3}, \
             {:>10.0} ops/s",
            p.workers, p.makespan_ticks, p.per_ktick, p.speedup, p.utilization, wall.ops_per_sec
        );
        eprintln!(
            "           queue hwm {}, wait p50/p99 {}/{} us, service p50/p99 {}/{} us",
            wall.queue_depth_hwm,
            wall.queue_wait_p50_ns / 1_000,
            wall.queue_wait_p99_ns / 1_000,
            wall.service_p50_ns / 1_000,
            wall.service_p99_ns / 1_000,
        );
    }
    args.emit(&render(iters, queries, &points), "BENCH_concurrent.json");
}
