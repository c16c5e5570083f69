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

use naming_bench::cli::{self, Flag, Kind::*};
use naming_bench::experiments::{run_all, run_experiment, CATALOG, IDS};
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

const FLAGS: &[Flag] = &[
    Flag("--exp", Choice(&IDS), None),
    // ICDCS '93
    Flag("--seed", Int, Some("19930601")),
    Flag("--list", Switch, None),
    Flag("--csv", Switch, None),
    Flag("--json", Switch, None),
];

fn main() {
    let args = cli::parse("experiments", &[cli::WATCH, cli::TELEMETRY, FLAGS]);
    if args.on("--list") {
        for info in CATALOG {
            println!("{:4}  {}", info.id, info.artifact);
        }
        return;
    }
    let (csv, json) = (args.on("--csv"), args.on("--json"));
    if csv && json {
        cli::fail("--csv and --json are mutually exclusive");
    }
    let seed = args.int("--seed");
    if args.text("--trace").is_some() {
        recorder::install();
    }
    let mut watch = args.watch();
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
    match args.text("--exp") {
        Some(id) => {
            let tables = run_one(id, seed).expect("--exp is a catalog id");
            watch.tick(id);
            emit(tables);
        }
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
    args.write_telemetry();
}
