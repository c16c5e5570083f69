//! The repo's yardstick: five layer-separating workloads, measured from
//! outside through public functions only. See `benchmark/README.md`.
//!
//! ```text
//! yardstick [--seed S] [--reps N] [--trace] [--smoke] [--out DIR]
//! yardstick --workload W --seed S --seconds T --trace 0|1     (driver contract)
//! ```

mod alloc;
mod catalog;
mod env;
mod ladder;
mod oracle;
mod probe;
mod report;
mod rng;
mod stats;
mod workloads;
mod worlds;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use oracle::Tally;
use probe::Probe;
use workloads::{Sizes, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed every recorded baseline uses.
const DEFAULT_SEED: u64 = 19930601;
/// Timed repetitions per workload on a full run.
const DEFAULT_REPS: usize = 11;
/// A time-budgeted run never reports from fewer repetitions than this.
const MIN_REPS: usize = 7;
/// Set-up is executed this many times per workload; the median is reported.
const SETUPS: usize = 5;
/// Share of a traced run's time budget spent on its untraced repetitions.
const TRACED_UNTRACED_SHARE: f64 = 0.6;

/// How long the timed repetitions go on.
#[derive(Clone, Copy)]
enum Budget {
    Reps(usize),
    /// Wall seconds per workload, set-up excluded.
    Seconds(f64),
}

struct Config {
    workloads: Vec<&'static str>,
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
    /// Print the driver's one-line JSON result last.
    contract: bool,
    out_dir: String,
}

/// Everything measured for one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub ops_hash: u64,
    pub names_per_rep: u64,
    pub tally: Tally,
    /// Per timed, untraced repetition.
    pub names_per_s: Vec<f64>,
    pub allocs_per_name: Vec<f64>,
    /// Per set-up execution.
    pub setup_s: Vec<f64>,
    pub setup_heap_mb: f64,
    /// Per-layer readings by catalog name; a metric absent here reads 0.
    pub readings: BTreeMap<&'static str, f64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: yardstick [--seed S] [--reps N] [--trace] [--smoke] [--out DIR]\n       \
         yardstick --workload W --seed S --seconds T --trace 0|1\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Config> {
    let mut cfg = Config {
        workloads: workloads::NAMES.to_vec(),
        seed: DEFAULT_SEED,
        budget: Budget::Reps(DEFAULT_REPS),
        trace: false,
        smoke: false,
        contract: false,
        out_dir: "benchmark/out".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => {
                let name = workloads::NAMES
                    .iter()
                    .find(|&&w| Some(w) == value.map(String::as_str))?;
                cfg.workloads = vec![name];
                cfg.contract = true;
                i += 1;
            }
            "--seed" => {
                cfg.seed = value?.parse().ok()?;
                i += 1;
            }
            "--seconds" => {
                cfg.budget = Budget::Seconds(value?.parse().ok().filter(|&s: &f64| s > 0.0)?);
                i += 1;
            }
            "--reps" => {
                cfg.budget = Budget::Reps(value?.parse().ok().filter(|&n| n >= 1)?);
                i += 1;
            }
            // `--trace` alone asks for the traced run; the driver passes 0 or 1.
            "--trace" => match value.map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cfg.trace = true;
                    i += 1;
                }
                _ => cfg.trace = true,
            },
            "--smoke" => {
                cfg.smoke = true;
                cfg.budget = Budget::Reps(1);
            }
            "--out" => {
                cfg.out_dir = value?.clone();
                i += 1;
            }
            _ => return None,
        }
        i += 1;
    }
    Some(cfg)
}

/// One workload being measured.
struct Running {
    workload: Box<dyn Workload>,
    outcome: Outcome,
    /// Live heap bytes gained across the timed repetitions (signed).
    heap_growth: i64,
    timed_names: u64,
}

/// Sets a workload up [`SETUPS`] times — once on a smoke or traced run,
/// neither of which reports `setup_s` — and keeps the last instance for
/// measuring.
fn set_up(name: &'static str, cfg: &Config, sizes: &Sizes) -> Running {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..if cfg.smoke || cfg.trace { 1 } else { SETUPS } {
        drop(kept.take());
        let t = Instant::now();
        kept = workloads::setup(name, cfg.seed, sizes, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let workload = kept.expect("names come from workloads::NAMES");
    let outcome = Outcome {
        workload: name,
        ops_hash: workload.ops_hash(),
        names_per_rep: workload.names_per_rep(),
        tally,
        names_per_s: Vec::new(),
        allocs_per_name: Vec::new(),
        setup_s,
        setup_heap_mb: workload.setup_heap_bytes() as f64 / 1e6,
        readings: BTreeMap::new(),
    };
    Running {
        workload,
        outcome,
        heap_growth: 0,
        timed_names: 0,
    }
}

/// One timed repetition; returns its `names_per_s`.
fn timed_rep(run: &mut Running, probe: &mut Probe, record: bool) -> f64 {
    let names = run.outcome.names_per_rep;
    let h0 = alloc::live_bytes();
    probe.take();
    probe.open("rep");
    run.workload.rep(probe, &mut run.outcome.tally);
    probe.close();
    let (wall_ns, allocs) = probe.take();
    let rate = names as f64 / (wall_ns as f64 / 1e9);
    if record {
        run.heap_growth += alloc::live_bytes() as i64 - h0 as i64;
        run.timed_names += names;
        run.outcome.names_per_s.push(rate);
        run.outcome
            .allocs_per_name
            .push(allocs as f64 / names as f64);
    }
    rate
}

/// The untraced repetitions: round-robin across the workloads, so that a
/// slow phase of a shared machine lands on every workload and on at most a
/// couple of repetitions of each.
fn measure(runs: &mut [Running], budget: Budget) {
    let mut probe = Probe::new(false);
    let started = Instant::now();
    let mut rep = 0;
    loop {
        let go_on = match budget {
            Budget::Reps(n) => rep < n,
            Budget::Seconds(s) => {
                rep < MIN_REPS || started.elapsed() < Duration::from_secs_f64(s * runs.len() as f64)
            }
        };
        if !go_on {
            return;
        }
        for run in runs.iter_mut() {
            timed_rep(run, &mut probe, true);
        }
        rep += 1;
    }
}

/// The separate traced run of one workload: a traced repetition for the
/// tracing overhead, then the layer ladder. Spans go to `trace`.
fn trace_workload(run: &mut Running, cfg: &Config, sizes: &Sizes, trace: &mut impl std::io::Write) {
    let untraced = stats::median(&run.outcome.names_per_s);
    let mut probe = Probe::new(true);
    let traced = timed_rep(run, &mut probe, false);
    let e2e_ns_per_name = 1e9 / untraced;
    let ladder = run
        .workload
        .ladder(cfg.seed, sizes, &mut probe, e2e_ns_per_name);
    run.outcome.readings.extend(ladder);
    run.outcome
        .readings
        .insert("bench.trace_overhead_frac", 1.0 - traced / untraced);
    if let Err(e) = probe.write_jsonl(run.outcome.workload, trace) {
        eprintln!("cannot write the trace: {e}");
    }
}

/// Ends a workload and folds in the readings only the harness can take.
fn finish(run: Running) -> Outcome {
    let Running {
        workload,
        mut outcome,
        heap_growth,
        timed_names,
        ..
    } = run;
    // What the workload itself measured over the real run wins over the
    // ladder's reading of the same counter on a sample.
    outcome.readings.extend(workload.finish());
    let t = outcome.tally;
    let per_name = |n: f64| workloads::ratio(n, t.attempted as f64);
    outcome.readings.extend([
        (
            "e2e.heap_growth_bytes_per_name",
            workloads::ratio(heap_growth as f64, timed_names as f64),
        ),
        ("e2e.stale_frac", per_name(t.stale as f64)),
        ("e2e.failed_frac", per_name(t.failed as f64)),
        (
            "resolver.coherence.staleness_ticks_max",
            t.staleness_ticks_max as f64,
        ),
    ]);
    outcome
}

fn run(cfg: &Config) -> std::io::Result<Vec<Outcome>> {
    let sizes = if cfg.smoke { Sizes::SMOKE } else { Sizes::FULL };
    let mut runs: Vec<Running> = cfg
        .workloads
        .iter()
        .map(|name| set_up(name, cfg, &sizes))
        .collect();
    if !cfg.trace {
        measure(&mut runs, cfg.budget);
        return Ok(runs.into_iter().map(finish).collect());
    }
    // A traced run first takes its own untraced repetitions — fewer than a
    // full run's — so that the overhead is a ratio of like with like.
    let untraced = match cfg.budget {
        Budget::Reps(n) => Budget::Reps(n.div_ceil(2)),
        Budget::Seconds(s) => Budget::Seconds(s * TRACED_UNTRACED_SHARE),
    };
    measure(&mut runs, untraced);
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = format!("{}/trace.jsonl", cfg.out_dir);
    let mut trace = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for run in &mut runs {
        trace_workload(run, cfg, &sizes, &mut trace);
    }
    std::io::Write::flush(&mut trace)?;
    eprintln!("wrote {path}");
    Ok(runs.into_iter().map(finish).collect())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("yardstick refuses to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cfg) = parse(&args) else {
        return usage();
    };
    let outcomes = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("yardstick: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reps = match cfg.budget {
        Budget::Reps(n) => format!("{n} reps"),
        Budget::Seconds(s) => format!("{s} s"),
    };
    let stamp = env::Stamp::collect(cfg.seed, &reps, cfg.trace, cfg.smoke);
    if !cfg.contract {
        print!("{}", report::table(&stamp, &outcomes, cfg.trace));
        let written = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| {
            let file = if cfg.trace {
                "layers.json"
            } else {
                "results.json"
            };
            let path = format!("{}/{file}", cfg.out_dir);
            std::fs::write(&path, report::results_json(&stamp, &outcomes, cfg.trace))?;
            Ok(path)
        });
        match written {
            Ok(path) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("yardstick: cannot write results: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("{}", report::contract_line(&outcomes[0], cfg.trace));
    }
    let failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
    if failed > 0 {
        eprintln!("yardstick: {failed} answers failed the oracle");
        // The driver reads `correct: false` from the result line; a person
        // running the whole benchmark gets a failing exit code.
        if !cfg.contract {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
