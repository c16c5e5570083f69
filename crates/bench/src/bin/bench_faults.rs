//! Emits `BENCH_faults.json`: the chaos sweep behind the fault-tolerance
//! layer — goodput, retries, failovers, and (critically) the false-⊥
//! count under message loss, which must be exactly 0: a lost message says
//! nothing about a binding, so it must never surface as "unbound".
//!
//! ```text
//! bench_faults [--out PATH] [--stdout] [--seed N] [--hops N] [--leaves N]
//!              [--watch N] [--metrics-out PATH]
//! ```
//!
//! `--watch N` rewrites the Prometheus-style metrics exposition every `N`
//! sweep rates; `--metrics-out PATH` says where (a final snapshot is always
//! flushed there at exit). Neither touches stdout or the JSON artifact.
//!
//! The sweep: drop rates 0.0–0.5 over the replicated chain world
//! (`scenarios::chaos_zones`), every bound name resolved with the retry
//! layer on. Each rate reports resolutions, honest give-ups, false ⊥s,
//! wire traffic, and the retry/failover counters. A crash phase then kills
//! the deepest zone's primary, resolves through the standby replica,
//! restarts the primary, and verifies the direct route returns. The binary
//! asserts `false_bottom == 0` before writing. (That the retry layer is
//! invisible on a lossless run is class (a) of `tests/config_matrix.rs`.)
//!
//! Everything reported is measured in virtual time and message counts —
//! deterministic per seed; no wall-clock quantities enter the file.

use naming_bench::cli::{self, Doc, Flag, Kind::*};
use naming_bench::scenarios::chaos_zones;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::wire::Mode;

/// The sweep's retry schedule: deadlines generous enough for the far
/// client (RTT ≈ 2 × 100 cross-network), attempts generous enough that a
/// bound name failing every one at drop ≤ 0.5 is a ~1e-8 event.
fn sweep_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout_ticks: 256,
        max_attempts: 64,
        backoff_cap: 6,
    }
}

struct RateResult {
    drop_rate: f64,
    resolved: usize,
    gave_up: usize,
    false_bottom: usize,
    messages: u64,
    latency_ticks: u64,
    retransmissions: u64,
    late_replies: u64,
    failovers: u64,
    exhausted: u64,
}

/// Resolves every scenario name once at `drop_rate`; classifies each
/// answer. All names are bound, so `Undefined` without the unreachable
/// flag is a false ⊥ — the bug class this PR exists to make impossible.
fn run_rate(hops: usize, leaves: usize, seed: u64, drop_rate: f64) -> RateResult {
    let (mut w, svc, _machines, client, start, names, _standby, _zones) =
        chaos_zones(hops, leaves, seed);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(sweep_policy()));
    w.set_message_drop_rate(drop_rate);
    let sent0 = w.trace().counter("sent");
    let t0 = w.now();
    let (mut resolved, mut gave_up, mut false_bottom) = (0usize, 0usize, 0usize);
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        if s.entity.is_defined() {
            resolved += 1;
        } else if s.unreachable {
            gave_up += 1;
        } else {
            false_bottom += 1;
        }
    }
    let c = engine.retry_counters();
    RateResult {
        drop_rate,
        resolved,
        gave_up,
        false_bottom,
        messages: w.trace().counter("sent") - sent0,
        latency_ticks: w.now().ticks() - t0.ticks(),
        retransmissions: c.retransmissions,
        late_replies: c.late_replies,
        failovers: c.failovers,
        exhausted: c.exhausted,
    }
}

struct CrashResult {
    resolved_during_outage: usize,
    failovers_during_outage: u64,
    republished: usize,
    resolved_after_restart: usize,
    failovers_after_restart: u64,
}

/// Kills the deepest zone's primary server, resolves everything through
/// the standby replica, restarts the primary, and resolves again.
fn run_crash(hops: usize, leaves: usize, seed: u64) -> CrashResult {
    let (mut w, svc, machines, client, start, names, _standby, _zones) =
        chaos_zones(hops, leaves, seed);
    let deepest = *machines.last().expect("hops >= 1");
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(sweep_policy()));
    let dead = engine.service().server_on(deepest);
    w.kill(dead);
    let mut resolved_during_outage = 0usize;
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        assert!(
            s.entity != naming_core::entity::Entity::Undefined || s.unreachable,
            "false ⊥ during outage for {n}"
        );
        if s.entity.is_defined() {
            resolved_during_outage += 1;
        }
    }
    let failovers_during_outage = engine.retry_counters().failovers;
    let republished = engine.restart_server(&mut w, deepest);
    engine.pump_idle(&mut w);
    let mut resolved_after_restart = 0usize;
    for n in &names {
        let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
        if s.entity.is_defined() {
            resolved_after_restart += 1;
        }
    }
    CrashResult {
        resolved_during_outage,
        failovers_during_outage,
        republished,
        resolved_after_restart,
        failovers_after_restart: engine.retry_counters().failovers - failovers_during_outage,
    }
}

fn render(hops: usize, leaves: usize, seed: u64, sweep: &[RateResult], crash: &CrashResult) -> Doc {
    let pol = sweep_policy();
    let rows = sweep.iter().map(|r| {
        Doc::row()
            .fix("drop_rate", r.drop_rate, 1)
            .val("resolved", r.resolved)
            .val("gave_up", r.gave_up)
            .val("false_bottom", r.false_bottom)
            .fix("goodput", r.resolved as f64 / leaves as f64, 4)
            .val("messages", r.messages)
            .val("latency_ticks", r.latency_ticks)
            .val("retransmissions", r.retransmissions)
            .val("late_replies", r.late_replies)
            .val("failovers", r.failovers)
            .val("exhausted", r.exhausted)
    });
    let retry = Doc::row()
        .val("base_timeout_ticks", pol.base_timeout_ticks)
        .val("max_attempts", pol.max_attempts)
        .val("backoff_cap", pol.backoff_cap);
    let crash = Doc::row()
        .val("resolved_during_outage", crash.resolved_during_outage)
        .val("failovers_during_outage", crash.failovers_during_outage)
        .val("republished", crash.republished)
        .val("resolved_after_restart", crash.resolved_after_restart)
        .val("failovers_after_restart", crash.failovers_after_restart);
    Doc::block()
        .str("bench", "faults")
        .val("seed", seed)
        .val("hops", hops)
        .val("leaves", leaves)
        .obj("retry", retry)
        .val(
            "false_bottom_total",
            sweep.iter().map(|r| r.false_bottom).sum::<usize>(),
        )
        .rows("sweep", rows)
        .obj("crash", crash)
}

const FLAGS: &[Flag] = &[
    Flag("--seed", Int, Some("1993")),
    Flag("--hops", Count, Some("4")),
    Flag("--leaves", Count, Some("24")),
];

fn main() {
    let args = cli::parse("bench_faults", &[cli::OUT, cli::WATCH, FLAGS]);
    let seed = args.int("--seed");
    let (hops, leaves) = (args.count("--hops"), args.count("--leaves"));
    let mut watch = args.watch();

    let sweep: Vec<RateResult> = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|&p| {
            let r = run_rate(hops, leaves, seed, p);
            watch.tick(&format!("drop {p:.1}"));
            r
        })
        .collect();
    let false_bottom_total: usize = sweep.iter().map(|r| r.false_bottom).sum();
    assert_eq!(
        false_bottom_total, 0,
        "a lost message surfaced as ⊥ — transport failure leaked into naming"
    );
    for r in &sweep {
        assert_eq!(
            r.resolved, leaves,
            "bound names must all resolve under drop={} with retries",
            r.drop_rate
        );
    }
    let crash = run_crash(hops, leaves, seed);
    watch.tick("crash");
    watch.finish();
    assert_eq!(crash.resolved_during_outage, leaves);
    assert_eq!(crash.resolved_after_restart, leaves);
    assert!(crash.failovers_during_outage > 0);

    for r in &sweep {
        eprintln!(
            "drop {:.1}: {:2}/{} resolved, {:3} retransmissions, {:2} late, \
             {:2} failovers, {:6} msgs, false-bottom {}",
            r.drop_rate,
            r.resolved,
            leaves,
            r.retransmissions,
            r.late_replies,
            r.failovers,
            r.messages,
            r.false_bottom
        );
    }
    eprintln!(
        "crash: {} via replica, {} failovers; restart republished {} zones",
        crash.resolved_during_outage, crash.failovers_during_outage, crash.republished
    );
    args.emit(
        &render(hops, leaves, seed, &sweep, &crash),
        "BENCH_faults.json",
    );
}
