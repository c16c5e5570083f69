//! Emits `BENCH_faults.json`: the chaos sweep behind the fault-tolerance
//! layer — goodput, retries, failovers, and (critically) the false-⊥
//! count under message loss, which must be exactly 0: a lost message says
//! nothing about a binding, so it must never surface as "unbound".
//!
//! ```text
//! bench_faults [--out PATH] [--stdout] [--json] [--seed N] [--drop F]
//!              [--no-retry] [--hops N] [--leaves N]
//!              [--watch N] [--metrics-out PATH]
//! ```
//!
//! `--watch N` rewrites the Prometheus-style metrics exposition every `N`
//! sweep rates; `--metrics-out PATH` says where (a final snapshot is always
//! flushed there at exit). Neither touches stdout or the JSON artifact.
//!
//! Two modes:
//!
//! * **Sweep** (default): drop rates 0.0–0.5 over the replicated chain
//!   world (`scenarios::chaos_zones`), every bound name resolved with the
//!   retry layer on. Each rate reports resolutions, honest give-ups,
//!   false ⊥s, wire traffic, and the retry/failover counters. A crash
//!   phase then kills the deepest zone's primary, resolves through the
//!   standby replica, restarts the primary, and verifies the direct route
//!   returns. The binary asserts `false_bottom == 0` before writing.
//! * **`--json`**: a single run at `--drop` (default 0) printing one
//!   deterministic record per name. CI compares this output byte-for-byte
//!   between `--json --drop 0` and `--json --drop 0 --no-retry`: on a
//!   lossless run the retry layer must be invisible.
//!
//! Everything reported is measured in virtual time and message counts —
//! deterministic per seed; no wall-clock quantities enter the file.

use naming_bench::scenarios::chaos_zones;
use naming_core::report::json_string;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::wire::Mode;

const DEFAULT_HOPS: usize = 4;
const DEFAULT_LEAVES: usize = 24;
const DEFAULT_SEED: u64 = 1993;

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

fn render(
    hops: usize,
    leaves: usize,
    seed: u64,
    sweep: &[RateResult],
    crash: &CrashResult,
) -> String {
    let pol = sweep_policy();
    let rows: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"drop_rate\": {:.1}, \"resolved\": {}, \"gave_up\": {}, \
                 \"false_bottom\": {}, \"goodput\": {:.4}, \"messages\": {}, \
                 \"latency_ticks\": {}, \"retransmissions\": {}, \"late_replies\": {}, \
                 \"failovers\": {}, \"exhausted\": {}}}",
                r.drop_rate,
                r.resolved,
                r.gave_up,
                r.false_bottom,
                r.resolved as f64 / leaves as f64,
                r.messages,
                r.latency_ticks,
                r.retransmissions,
                r.late_replies,
                r.failovers,
                r.exhausted
            )
        })
        .collect();
    let false_bottom_total: usize = sweep.iter().map(|r| r.false_bottom).sum();
    format!(
        "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"hops\": {},\n  \"leaves\": {},\n  \
         \"retry\": {{\"base_timeout_ticks\": {}, \"max_attempts\": {}, \"backoff_cap\": {}}},\n  \
         \"false_bottom_total\": {},\n  \"sweep\": [\n{}\n  ],\n  \
         \"crash\": {{\"resolved_during_outage\": {}, \"failovers_during_outage\": {}, \
         \"republished\": {}, \"resolved_after_restart\": {}, \
         \"failovers_after_restart\": {}}}\n}}\n",
        json_string("faults"),
        seed,
        hops,
        leaves,
        pol.base_timeout_ticks,
        pol.max_attempts,
        pol.backoff_cap,
        false_bottom_total,
        rows.join(",\n"),
        crash.resolved_during_outage,
        crash.failovers_during_outage,
        crash.republished,
        crash.resolved_after_restart,
        crash.failovers_after_restart
    )
}

/// `--json` mode: one deterministic record per name at a fixed drop rate.
/// At drop 0 this output must be byte-identical with and without the
/// retry layer — the CI cmp leg's contract.
fn render_single(hops: usize, leaves: usize, seed: u64, drop_rate: f64, retry: bool) -> String {
    let (mut w, svc, _machines, client, start, names, _standby, _zones) =
        chaos_zones(hops, leaves, seed);
    let mut engine = ProtocolEngine::new(svc);
    if retry {
        engine.set_retry_policy(Some(sweep_policy()));
    }
    w.set_message_drop_rate(drop_rate);
    let rows: Vec<String> = names
        .iter()
        .map(|n| {
            let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
            format!(
                "    {{\"name\": {}, \"entity\": {}, \"unreachable\": {}, \
                 \"messages\": {}, \"latency_ticks\": {}}}",
                json_string(&n.to_string()),
                json_string(&s.entity.to_string()),
                s.unreachable,
                s.messages,
                s.latency.ticks()
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"drop_rate\": {:.2},\n  \
         \"names\": [\n{}\n  ]\n}}\n",
        json_string("faults-single"),
        seed,
        drop_rate,
        rows.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_faults.json");
    let mut to_stdout = false;
    let mut json_single = false;
    let mut seed = DEFAULT_SEED;
    let mut drop_rate = 0.0f64;
    let mut retry = true;
    let mut hops = DEFAULT_HOPS;
    let mut leaves = DEFAULT_LEAVES;
    let mut watch_every: u64 = 0;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let numeric = |args: &[String], i: usize, flag: &str| -> f64 {
            match args.get(i).and_then(|s| s.parse().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("{flag} requires a numeric argument");
                    std::process::exit(2);
                }
            }
        };
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
            "--stdout" => to_stdout = true,
            "--json" => json_single = true,
            "--no-retry" => retry = false,
            "--seed" => {
                i += 1;
                seed = numeric(&args, i, "--seed") as u64;
            }
            "--drop" => {
                i += 1;
                drop_rate = numeric(&args, i, "--drop");
            }
            "--hops" => {
                i += 1;
                hops = numeric(&args, i, "--hops") as usize;
            }
            "--leaves" => {
                i += 1;
                leaves = numeric(&args, i, "--leaves") as usize;
            }
            "--watch" => {
                i += 1;
                watch_every = numeric(&args, i, "--watch") as u64;
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = match args.get(i) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--metrics-out requires a path argument");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_faults [--out PATH] [--stdout] [--json] [--seed N] \
                     [--drop F] [--no-retry] [--hops N] [--leaves N] \
                     [--watch N] [--metrics-out PATH]"
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

    let mut watch = naming_bench::watch::MetricsWatch::new(watch_every, metrics_out);

    if json_single {
        print!("{}", render_single(hops, leaves, seed, drop_rate, retry));
        watch.finish();
        return;
    }

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

    let json = render(hops, leaves, seed, &sweep, &crash);
    if to_stdout {
        print!("{json}");
    } else {
        std::fs::write(&out, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
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
        eprintln!("wrote {out}");
    }
}
