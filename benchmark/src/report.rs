//! Rendering: the table a person reads, the result file `--check`
//! compares, and the one-line JSON object the driver reads.

use std::fmt::Write;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::env::Stamp;
use crate::stats::{median, quartiles};
use crate::Outcome;

/// One reported number: the median, and the spread where there are
/// several samples behind it.
struct Value {
    median: f64,
    quartiles: Option<(f64, f64)>,
    samples: usize,
}

fn single(v: f64) -> Value {
    Value {
        median: v,
        quartiles: None,
        samples: 1,
    }
}

fn spread(samples: &[f64]) -> Value {
    Value {
        median: median(samples),
        quartiles: Some(quartiles(samples)),
        samples: samples.len(),
    }
}

fn end_to_end(o: &Outcome, m: &Metric) -> Value {
    match m.name {
        "names_per_s" => spread(&o.names_per_s),
        "allocs_per_name" => spread(&o.allocs_per_name),
        "setup_s" => spread(&o.setup_s),
        "setup_heap_mb" => single(o.setup_heap_mb),
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

fn per_layer(o: &Outcome, m: &Metric) -> Value {
    single(o.readings.get(m.name).copied().unwrap_or(0.0))
}

/// JSON has no NaN or infinity; a reading that is neither finite nor
/// meaningful is reported as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a run reports for one workload: on an untraced run every
/// end-to-end metric, then every per-layer metric the run took a reading of
/// (an untraced run knows the workload's own counts, not the ladder's).
fn rows(o: &Outcome, traced: bool) -> Vec<(&'static Metric, Value)> {
    let mut rows = Vec::new();
    if !traced {
        rows.extend(END_TO_END.iter().map(|m| (m, end_to_end(o, m))));
    }
    rows.extend(
        PER_LAYER
            .iter()
            .filter(|m| o.readings.contains_key(m.name))
            .map(|m| (m, per_layer(o, m))),
    );
    rows
}

pub fn table(stamp: &Stamp, outcomes: &[Outcome], traced: bool) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "yardstick {} run · seed {} · {} per workload · nproc {} · {} service worker(s)\n\
         {} · {} · git {} (dirty: {})\n{}",
        stamp.mode,
        stamp.seed,
        stamp.reps,
        stamp.nproc,
        stamp.service_workers,
        stamp.cpu_model,
        stamp.rustc,
        stamp.git_rev,
        stamp.git_dirty,
        stamp.features,
    )
    .expect("string write");
    for o in outcomes {
        writeln!(
            w,
            "\n== {} · {} names/rep · {} reps · ops_hash {:016x} · attempted {} · failed {}",
            o.workload,
            o.names_per_rep,
            o.names_per_s.len(),
            o.ops_hash,
            o.tally.attempted,
            o.tally.failed
        )
        .expect("string write");
        for (m, v) in rows(o, traced) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {}%", b * 100.0));
            let iqr = v.quartiles.map_or(String::new(), |(q1, q3)| {
                format!("  [q1 {q1:.6} q3 {q3:.6} n {}]", v.samples)
            });
            writeln!(
                w,
                "  {:<46} {:>18.6} {:<8}{iqr}{bound}",
                m.name, v.median, m.unit
            )
            .expect("string write");
        }
    }
    out
}

pub fn results_json(stamp: &Stamp, outcomes: &[Outcome], traced: bool) -> String {
    let mut out = String::new();
    let w = &mut out;
    write!(
        w,
        "{{\n  \"env\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"git_dirty\": {}, \"features\": {}, \"service_workers\": {}}},\n  \
         \"mode\": {}, \"seed\": {}, \"budget\": {},\n  \"workloads\": {{",
        stamp.nproc,
        json_str(&stamp.cpu_model),
        json_str(&stamp.rustc),
        json_str(&stamp.git_rev),
        json_str(&stamp.git_dirty),
        json_str(stamp.features),
        stamp.service_workers,
        json_str(stamp.mode),
        stamp.seed,
        json_str(&stamp.reps),
    )
    .expect("string write");
    for (i, o) in outcomes.iter().enumerate() {
        write!(
            w,
            "{}\n    {}: {{\"ops_hash\": \"{:016x}\", \"names_per_rep\": {}, \"reps\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            if i == 0 { "" } else { "," },
            json_str(o.workload),
            o.ops_hash,
            o.names_per_rep,
            o.names_per_s.len(),
            o.tally.attempted,
            o.tally.failed
        )
        .expect("string write");
        for (k, (m, v)) in rows(o, traced).into_iter().enumerate() {
            write!(
                w,
                "{}\n      {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"exact\": {}",
                if k == 0 { "" } else { "," },
                json_str(m.name),
                num(v.median),
                json_str(m.unit),
                json_str(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
                m.exact
            )
            .expect("string write");
            if let Some(b) = m.bound {
                write!(w, ", \"bound\": {b}").expect("string write");
            }
            if let Some((q1, q3)) = v.quartiles {
                write!(
                    w,
                    ", \"q1\": {}, \"q3\": {}, \"n\": {}",
                    num(q1),
                    num(q3),
                    v.samples
                )
                .expect("string write");
            }
            w.push('}');
        }
        w.push_str("\n    }}");
    }
    w.push_str("\n  }\n}\n");
    out
}

/// The driver's result: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn contract_line(o: &Outcome, traced: bool) -> String {
    // Every metric of the kind asked for, whether or not this workload
    // defines it: one it does not define reads 0.
    let entry = |m: &Metric, v: Value| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            num(v.median),
            json_str(m.unit)
        )
    };
    let body: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| entry(m, per_layer(o, m)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| entry(m, end_to_end(o, m)))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted,
        o.tally.failed,
        body.join(", ")
    )
}
