//! Emits `BENCH_pipeline.json`: the event-driven pipelined runtime
//! (`PipelinedService`) side by side with the blocked-thread-per-batch
//! pool model, tracked across PRs.
//!
//! ```text
//! bench_pipeline [--out PATH] [--stdout] [--batches N]
//! bench_pipeline --json [--workers N]
//! ```
//!
//! The **skew workload**: five machines in a referral chain, 16384
//! single-name batches — 90% cache-warm singletons answered by the first
//! server in one round, 10% hitting the full 4-hop referral chain — under
//! a 20% message drop rate with a generous retry budget. Per worker count
//! (1/2/4/8), two service models over identical virtual timelines:
//!
//! * **blocking pool** — each batch driven to completion by
//!   `ProtocolEngine::resolve_batch`, its latency measured on an
//!   otherwise idle timeline, and the latency sequence scheduled on a
//!   [`VirtualPool`]: one blocked worker per batch, head-of-line
//!   blocking included. Makespan is the pool's.
//! * **pipelined reactor** — the same batches submitted to a
//!   [`PipelinedService`] with the default 2048-per-worker admission
//!   limit; every admitted batch's rounds interleave on one timeline.
//!   Makespan is the last completion tick.
//!
//! Both are virtual-time numbers, byte-identical on every machine. The
//! JSON records throughput per kilotick for both models, the speedup,
//! the reactor's in-flight high-water marks, and the p99 admission queue
//! wait. At the default scale the tool asserts the reactor holds at
//! least 1024 in-flight resolutions per worker and at least 2× the
//! pool's throughput.
//!
//! `--json` dumps per-batch answers on a lossless run (drops off; the
//! timeline is then RNG-free, so admission capacity cannot reorder
//! sends): `--workers 0` drives every batch through the blocking
//! resolver, `--workers N` through an N-worker reactor. The CI
//! determinism leg diffs the two byte-for-byte at several worker counts.

use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::scenarios::Lcg;
use naming_core::entity::{Entity, ObjectId};
use naming_core::name::CompoundName;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_sim::pool::VirtualPool;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

/// The `--batches` default: the scale at which the reactor's in-flight and
/// throughput claims are asserted.
const DEFAULT_BATCHES: usize = 16384;
/// Every 10th batch walks the 4-hop chain; the rest are warm singletons.
const DEEP_EVERY: usize = 10;
const DROP_RATE: f64 = 0.2;
const PER_WORKER_LIMIT: usize = 2048;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 71;

/// Five machines: m0 hosts the root and the warm files, each chain hop's
/// subtree lives on the next machine, the deep leaves on m4.
fn build_world() -> (World, NameService, Vec<MachineId>, ObjectId) {
    let mut w = World::new(SEED);
    let net = w.add_network("n");
    let machines: Vec<MachineId> = (0..5)
        .map(|i| w.add_machine(format!("m{i}"), net))
        .collect();
    let root = w.machine_root(machines[0]);
    // Warm targets: files bound directly under m0's root (one round).
    for k in 0..8 {
        store::create_file(w.state_mut(), root, &format!("w{k}"), vec![]);
    }
    // The chain: root(m0) -> h1(m1) -> h2(m2) -> h3(m3) -> h4(m4) -> files.
    let mut hops = Vec::new();
    for (i, &m) in machines.iter().enumerate().skip(1) {
        let r = w.machine_root(m);
        hops.push(store::ensure_dir(w.state_mut(), r, &format!("self{i}")));
    }
    store::attach(w.state_mut(), root, "h1", hops[0], false);
    for i in 1..hops.len() {
        store::attach(
            w.state_mut(),
            hops[i - 1],
            &format!("h{}", i + 1),
            hops[i],
            false,
        );
    }
    for j in 0..8 {
        store::create_file(w.state_mut(), hops[3], &format!("f{j}"), vec![]);
    }
    let mut svc = NameService::install(&mut w, &machines);
    // Graft sources claim their objects first (first placement wins).
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    (w, svc, machines, root)
}

/// The skew workload: one name per batch, deterministic LCG mix.
fn build_batches(n: usize) -> Vec<CompoundName> {
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    (0..n)
        .map(|i| {
            let path = if i % DEEP_EVERY == 0 {
                format!("/h1/h2/h3/h4/f{}", rng.draw() % 8)
            } else {
                format!("/w{}", rng.draw() % 8)
            };
            CompoundName::parse_path(&path).unwrap()
        })
        .collect()
}

fn retrying_engine(svc: NameService) -> ProtocolEngine {
    let mut engine = ProtocolEngine::new(svc);
    // Generous deadline budget: at a 20% drop rate, exhaustion (a false
    // transport verdict) must be statistically impossible so both models
    // resolve every name.
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts: 64,
        ..RetryPolicy::default()
    }));
    engine
}

/// Blocking reference: each batch driven to completion alone, in order,
/// on one accumulating timeline — the thread-per-batch model's per-batch
/// latencies (and the answer key).
fn blocking_latencies(batches: &[CompoundName]) -> (Vec<u64>, Vec<Entity>) {
    let (mut w, svc, machines, root) = build_world();
    w.set_message_drop_rate(DROP_RATE);
    let client = w.spawn(machines[0], "client", None);
    let mut engine = retrying_engine(svc);
    let mut latencies = Vec::with_capacity(batches.len());
    let mut entities = Vec::with_capacity(batches.len());
    for name in batches {
        let stats = engine.resolve_batch(&mut w, client, root, std::slice::from_ref(name));
        latencies.push(stats.latency.ticks());
        entities.push(stats.entities[0]);
    }
    (latencies, entities)
}

struct PipelinedRun {
    makespan_ticks: u64,
    in_flight_hwm: usize,
    in_flight_queries_hwm: usize,
    backlog_hwm: usize,
    queue_wait_p99_ticks: u64,
    entities: Vec<Entity>,
    wall_ops_per_sec: f64,
}

/// The reactor: all batches submitted up front, drained to completion.
fn pipelined_run(batches: &[CompoundName], workers: usize) -> PipelinedRun {
    let (mut w, svc, machines, root) = build_world();
    w.set_message_drop_rate(DROP_RATE);
    let client = w.spawn(machines[0], "client", None);
    let mut svc = PipelinedService::with_limit(retrying_engine(svc), workers, PER_WORKER_LIMIT);
    let t = std::time::Instant::now();
    for name in batches {
        svc.submit(&mut w, client, root, std::slice::from_ref(name));
    }
    let answers = svc.drain(&mut w);
    let elapsed = t.elapsed().as_secs_f64();
    let makespan = answers
        .iter()
        .map(|a| a.completed_at.ticks())
        .max()
        .unwrap_or(0);
    let mut waits: Vec<u64> = answers.iter().map(|a| a.queue_wait().ticks()).collect();
    waits.sort_unstable();
    let p99 = waits[(waits.len() * 99)
        .div_ceil(100)
        .saturating_sub(1)
        .min(waits.len() - 1)];
    let entities = answers.iter().map(|a| a.entities[0]).collect();
    let report = svc.report();
    PipelinedRun {
        makespan_ticks: makespan,
        in_flight_hwm: report.in_flight_hwm,
        in_flight_queries_hwm: report.in_flight_queries_hwm,
        backlog_hwm: report.backlog_hwm,
        queue_wait_p99_ticks: p99,
        entities,
        wall_ops_per_sec: batches.len() as f64 / elapsed,
    }
}

/// One worker count: the blocking pool's makespan and the reactor's run.
struct Point {
    workers: usize,
    pool_makespan_ticks: u64,
    run: PipelinedRun,
}

impl Point {
    fn speedup_vs_pool(&self) -> f64 {
        self.pool_makespan_ticks as f64 / self.run.makespan_ticks as f64
    }
}

fn measure(n: usize) -> Vec<Point> {
    let batches = build_batches(n);
    let (latencies, key) = blocking_latencies(&batches);
    assert!(
        key.iter().all(|e| e.is_defined()),
        "every workload name is bound; a ⊥ means retries were exhausted"
    );
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut pool = VirtualPool::new(workers);
            for &l in &latencies {
                pool.assign(naming_sim::time::Duration::from_ticks(l));
            }
            let pool_makespan = pool.makespan().ticks();
            let run = pipelined_run(&batches, workers);
            assert_eq!(
                run.entities, key,
                "pipelined answers diverge from the blocking driver"
            );
            if n >= DEFAULT_BATCHES {
                assert!(
                    run.in_flight_queries_hwm >= 1024 * workers,
                    "reactor must sustain >= 1024 in-flight resolutions per worker \
                     (got {} at {workers} workers)",
                    run.in_flight_queries_hwm
                );
            }
            let point = Point {
                workers,
                pool_makespan_ticks: pool_makespan,
                run,
            };
            let speedup = point.speedup_vs_pool();
            if n >= DEFAULT_BATCHES {
                assert!(
                    speedup >= 2.0,
                    "pipelining must at least double pool throughput \
                     (got {speedup:.2}x at {workers} workers)"
                );
            }
            point
        })
        .collect()
}

fn render(n: usize, points: &[Point]) -> Doc {
    let per_ktick = |makespan: u64| n as f64 * 1000.0 / makespan as f64;
    let rows = points.iter().map(|p| {
        let run = &p.run;
        Doc::row()
            .val("workers", p.workers)
            .val("pool_makespan_ticks", p.pool_makespan_ticks)
            .fix("pool_per_ktick", per_ktick(p.pool_makespan_ticks), 1)
            .val("pipelined_makespan_ticks", run.makespan_ticks)
            .fix("pipelined_per_ktick", per_ktick(run.makespan_ticks), 1)
            .fix("speedup_vs_pool", p.speedup_vs_pool(), 2)
            .val("in_flight_hwm", run.in_flight_hwm)
            .val("in_flight_queries_hwm", run.in_flight_queries_hwm)
            .val("backlog_hwm", run.backlog_hwm)
            .val("queue_wait_p99_ticks", run.queue_wait_p99_ticks)
            .fix("wall_ops_per_sec", run.wall_ops_per_sec, 0)
    });
    Doc::block()
        .str("bench", "pipeline")
        .str("workload", "skew-chain")
        .val("batches", n)
        .val("deep_every", DEEP_EVERY)
        .val("drop_rate", DROP_RATE)
        .val("per_worker_limit", PER_WORKER_LIMIT)
        .rows("results", rows)
}

/// `--json` mode: per-batch answers on a lossless timeline (deterministic
/// at every worker count; the CI leg diffs reactor vs blocking output
/// byte-for-byte).
fn render_answers(n: usize, workers: usize) -> Doc {
    let batches = build_batches(n);
    let (mut w, svc, machines, root) = build_world();
    let client = w.spawn(machines[0], "client", None);
    let rows: Vec<Doc> = if workers == 0 {
        let mut engine = ProtocolEngine::new(svc);
        batches
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let stats = engine.resolve_batch(&mut w, client, root, std::slice::from_ref(name));
                answer_row(
                    i as u64,
                    stats.rounds,
                    stats.entities[0],
                    stats.unreachable[0],
                )
            })
            .collect()
    } else {
        let mut svc =
            PipelinedService::with_limit(ProtocolEngine::new(svc), workers, PER_WORKER_LIMIT);
        for name in &batches {
            svc.submit(&mut w, client, root, std::slice::from_ref(name));
        }
        svc.drain(&mut w)
            .iter()
            .map(|a| answer_row(a.seq, a.rounds, a.entities[0], a.unreachable[0]))
            .collect()
    };
    Doc::block()
        .str("bench", "pipeline")
        .str("workload", "skew-chain")
        .rows("answers", rows)
}

fn answer_row(batch: u64, rounds: u32, entity: Entity, unreachable: bool) -> Doc {
    Doc::row()
        .val("batch", batch)
        .val("rounds", rounds)
        .str("entity", &entity.to_string())
        .val("unreachable", unreachable)
}

const FLAGS: &[Flag] = &[
    Flag("--batches", Count, Some("16384")),
    Flag("--json", Switch, None),
    Flag("--workers", Int, Some("0")),
];

fn main() {
    let args = cli::parse("bench_pipeline", &[cli::OUT, FLAGS]);
    let batches = args.count("--batches");
    if args.on("--json") {
        println!("{}", render_answers(batches, args.count("--workers")));
        return;
    }

    let points = measure(batches);
    for p in &points {
        eprintln!(
            "{:2} workers: pool {:>9} ticks, pipelined {:>7} ticks ({:>5.2}x), \
             in-flight hwm {:>5}, queue-wait p99 {:>6} ticks, {:>9.0} ops/s wall",
            p.workers,
            p.pool_makespan_ticks,
            p.run.makespan_ticks,
            p.speedup_vs_pool(),
            p.run.in_flight_queries_hwm,
            p.run.queue_wait_p99_ticks,
            p.run.wall_ops_per_sec,
        );
    }
    args.emit(&render(batches, &points), "BENCH_pipeline.json");
}
