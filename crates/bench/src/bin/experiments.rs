//! Regenerates every experiment table of the reproduction.
//!
//! ```text
//! experiments [--exp eN] [--seed S] [--list] [--csv | --json]
//!             [--trace PATH] [--metrics] [--metrics-out PATH] [--watch N]
//! ```
//!
//! `--csv` emits machine-readable CSV (one blank-line-separated block per
//! table, each prefixed by a `# <title>` comment line) instead of aligned
//! text. `--json` emits one JSON array of table objects
//! (`{"title", "headers", "rows", "notes"}`), for tracking results across
//! PRs.
//!
//! `--trace PATH` records every resolution, message, and coherence event
//! into a Chrome `trace_event` file loadable in Perfetto /
//! `about:tracing`, one track per experiment. The traced suite still runs
//! one worker thread per experiment: each worker installs its own recorder
//! and the traces are absorbed in catalog order, so ids and output are
//! byte-for-byte identical to a serial traced run. `--metrics` prints the
//! global metrics-registry snapshot as JSON on stderr after the run;
//! `--metrics-out PATH` writes the Prometheus-style text exposition to
//! `PATH` instead, and `--watch N` rewrites it every `N` experiments while
//! the suite runs (forcing the suite serial so there is a between-
//! experiments boundary to dump at). None of these flags touch stdout.
//!
//! Without `--exp`, the whole suite (E1–E20) runs in paper order.

use naming_bench::experiments::{run_all, run_experiment, CATALOG};
use naming_core::report::Table;
use naming_core::sweep::map_chunks;
use naming_telemetry::recorder;

/// Runs one experiment, assigning it a named recorder track when tracing.
fn run_one(id: &str, seed: u64) -> Option<Vec<Table>> {
    if recorder::is_active() {
        if let Some(pos) = CATALOG.iter().position(|info| info.id == id) {
            let track = pos as u64 + 1;
            recorder::set_track_name(
                track,
                format!("{} {}", CATALOG[pos].id, CATALOG[pos].artifact),
            );
        }
    }
    run_experiment(id, seed)
}

/// Runs the whole suite. When a recorder is installed each experiment
/// still gets its own worker thread: the worker installs a private
/// recorder (inheriting the main clock), names its catalog track, and
/// hands its trace back; the main thread absorbs the traces in catalog
/// order, so the merged timeline — ids included — is byte-for-byte what a
/// serial traced run produces.
fn run_suite(seed: u64) -> Vec<Table> {
    if !recorder::is_active() {
        return run_all(seed);
    }
    let clock = recorder::clock();
    let chunks = map_chunks(CATALOG, CATALOG.len(), |infos| {
        recorder::install();
        recorder::set_clock(clock);
        let tables: Vec<Table> = infos
            .iter()
            .flat_map(|info| run_one(info.id, seed).expect("catalog ids are valid"))
            .collect();
        (tables, recorder::take())
    });
    let mut tables = Vec::new();
    for (chunk_tables, data) in chunks {
        tables.extend(chunk_tables);
        if let Some(data) = data {
            recorder::absorb(data);
        }
    }
    tables
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<String> = None;
    let mut seed: u64 = 19930601; // ICDCS '93
    let mut csv = false;
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut metrics_out: Option<String> = None;
    let mut watch_every: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned();
                if exp.is_none() {
                    eprintln!("--exp requires an argument (e1..e11)");
                    std::process::exit(2);
                }
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
            "--csv" => {
                csv = true;
            }
            "--json" => {
                json = true;
            }
            "--trace" => {
                i += 1;
                trace_path = args.get(i).cloned();
                if trace_path.is_none() {
                    eprintln!("--trace requires a path argument");
                    std::process::exit(2);
                }
            }
            "--metrics" => {
                metrics = true;
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = args.get(i).cloned();
                if metrics_out.is_none() {
                    eprintln!("--metrics-out requires a path argument");
                    std::process::exit(2);
                }
            }
            "--watch" => {
                i += 1;
                watch_every = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--watch requires a positive integer argument");
                        std::process::exit(2);
                    }
                };
            }
            "--list" => {
                for info in CATALOG {
                    println!("{:4}  {}", info.id, info.artifact);
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp eN] [--seed S] [--list] [--csv | --json] \
                     [--trace PATH] [--metrics] [--metrics-out PATH] [--watch N]"
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

    if csv && json {
        eprintln!("--csv and --json are mutually exclusive");
        std::process::exit(2);
    }
    if trace_path.is_some() {
        recorder::install();
    }
    let mut watch = naming_bench::watch::MetricsWatch::new(watch_every, metrics_out.clone());
    let emit = |tables: Vec<naming_core::report::Table>| {
        if json {
            let objects: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
            println!("[");
            println!("{}", objects.join(",\n"));
            println!("]");
            return;
        }
        for t in tables {
            if csv {
                println!("# {}", t.title());
                print!("{}", t.to_csv());
                println!();
            } else {
                println!("{t}");
            }
        }
    };
    if !csv && !json {
        println!("Coherence in Naming — experiment suite (seed {seed})");
        println!();
    }
    match exp {
        Some(id) => match run_one(&id, seed) {
            Some(tables) => {
                watch.tick(&id);
                emit(tables);
            }
            None => {
                eprintln!("unknown experiment {id:?}; try --list");
                std::process::exit(2);
            }
        },
        None if watch.watching() => {
            // A periodic dump needs a between-experiments boundary, so run
            // the catalog serially, ticking after each experiment. Table
            // output is identical to the parallel run.
            let mut tables = Vec::new();
            for info in CATALOG {
                tables.extend(run_one(info.id, seed).expect("catalog ids are valid"));
                watch.tick(info.id);
            }
            emit(tables);
        }
        None => emit(run_suite(seed)),
    }

    watch.finish();
    if let Some(path) = &trace_path {
        if let Some(data) = recorder::take() {
            naming_telemetry::chrome::write(&data, std::path::Path::new(path)).unwrap_or_else(
                |e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                },
            );
            eprintln!(
                "wrote Chrome trace to {path} ({} resolutions, {} events, {} dropped)",
                data.resolutions.len(),
                data.events.len(),
                data.dropped
            );
        }
    }
    if metrics {
        eprintln!(
            "{}",
            naming_telemetry::metrics::global().snapshot().to_json()
        );
    }
}
