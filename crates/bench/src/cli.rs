//! The command line of the `experiments` binary (`figures` takes one
//! directory, and refuses anything else through [`fail`]).
//!
//! A binary declares its flags once, as a table of [`Flag`]s — name, kind
//! and default — and [`parse`] reads the process arguments against it.
//! `--help` prints the table. An unknown flag, or a missing, malformed or
//! out-of-range value, exits 2 with a message naming the flag: a count is
//! an integer ≥ 1, an integer fits a `u64`, a choice is one of its words.
//! A flag given twice keeps its last value.
//!
//! Two groups are declared apart from the binary's own table: [`WATCH`]
//! (`--watch N` / `--metrics-out PATH`, see [`Args::watch`]) and
//! [`TELEMETRY`] (`--trace PATH` / `--metrics`, see
//! [`Args::write_telemetry`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use naming_telemetry::{chrome, metrics, recorder};

use crate::watch::MetricsWatch;

/// What a flag takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No value: the flag is given or not.
    Switch,
    /// Any text: a file path.
    Path,
    /// An integer ≥ 1.
    Count,
    /// An integer ≥ 0 that fits a `u64`: a seed.
    Int,
    /// One of the listed words.
    Choice(&'static [&'static str]),
}

/// One declared flag: its name, its kind, and its value when it is not
/// given (`None`: absent).
#[derive(Clone, Copy, Debug)]
pub struct Flag(pub &'static str, pub Kind, pub Option<&'static str>);

/// `--watch N` / `--metrics-out PATH`: the metrics exposition
/// [`Args::watch`] writes while the binary runs.
pub const WATCH: &[Flag] = &[
    Flag("--watch", Kind::Count, None),
    Flag("--metrics-out", Kind::Path, None),
];

/// `--trace PATH` / `--metrics`: the recorded run as a Chrome trace, and
/// the metrics registry's snapshot on stderr, both written by
/// [`Args::write_telemetry`].
pub const TELEMETRY: &[Flag] = &[
    Flag("--trace", Kind::Path, None),
    Flag("--metrics", Kind::Switch, None),
];

#[derive(Clone, Debug, PartialEq)]
enum Value {
    On,
    Text(String),
    Int(u64),
}

/// Why a command line was not read into [`Args`]: help was asked for
/// (the text to print), or the input is refused (the message).
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    /// `--help` or `-h`: print this and exit 0.
    Help(String),
    /// Refused input: print this and exit 2.
    Bad(String),
}

/// A command line read against its flag table.
#[derive(Debug)]
pub struct Args {
    flags: Vec<Flag>,
    values: HashMap<&'static str, Value>,
}

/// Reads the process arguments against `groups` (one table, in parts),
/// printing help and exiting 0 on `--help`, exiting 2 on refused input.
pub fn parse(bin: &str, groups: &[&[Flag]]) -> Args {
    match Args::read(bin, groups, std::env::args().skip(1)) {
        Ok(args) => args,
        Err(Stop::Help(text)) => {
            print!("{text}");
            std::process::exit(0)
        }
        Err(Stop::Bad(msg)) => fail(&msg),
    }
}

/// Refuses the input: `msg` on stderr, exit 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// `text` as a value of `flag`, or the message refusing it.
fn value(flag: &Flag, text: &str) -> Result<Value, String> {
    let Flag(name, kind, _) = *flag;
    let refuse = |what: &str| Err(format!("{name} requires {what}, got {text:?}"));
    match kind {
        Kind::Switch => Ok(Value::On),
        Kind::Path => Ok(Value::Text(text.to_owned())),
        Kind::Count | Kind::Int => match text.parse::<u64>() {
            Ok(n) if n > 0 || kind == Kind::Int => Ok(Value::Int(n)),
            _ if kind == Kind::Count => refuse("an integer >= 1"),
            _ => refuse("an integer >= 0"),
        },
        Kind::Choice(words) if words.contains(&text) => Ok(Value::Text(text.to_owned())),
        Kind::Choice(words) => refuse(&format!("one of {}", words.join("|"))),
    }
}

/// The `--help` text: one line per flag, with its value and its default.
fn help(bin: &str, flags: &[Flag]) -> String {
    let mut text = format!("usage: {bin} [FLAG]...\n");
    for &Flag(name, kind, default) in flags {
        let arg = match kind {
            Kind::Switch => String::new(),
            Kind::Path => " PATH".into(),
            Kind::Count | Kind::Int => " N".into(),
            Kind::Choice(words) => format!(" {}", words.join("|")),
        };
        let default = default.map_or(String::new(), |d| format!(" (default {d})"));
        let _ = writeln!(text, "  {name}{arg}{default}");
    }
    text
}

impl Args {
    /// Reads `args` against `groups`; see [`Stop`] for what ends it early.
    fn read(
        bin: &str,
        groups: &[&[Flag]],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, Stop> {
        let flags: Vec<Flag> = groups.concat();
        let mut values = HashMap::new();
        for flag in &flags {
            if let Some(default) = flag.2 {
                let v = value(flag, default).expect("a declared default is a valid value");
                values.insert(flag.0, v);
            }
        }
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(help(bin, &flags)));
            }
            let Some(flag) = flags.iter().find(|f| f.0 == arg) else {
                return Err(Stop::Bad(format!("unknown argument {arg:?}; try --help")));
            };
            let v = if flag.1 == Kind::Switch {
                Value::On
            } else {
                let text = args
                    .next()
                    .ok_or_else(|| Stop::Bad(format!("{} requires a value", flag.0)))?;
                value(flag, &text).map_err(Stop::Bad)?
            };
            values.insert(flag.0, v);
        }
        Ok(Args { flags, values })
    }

    /// The value of a declared flag, if it has one.
    fn get(&self, name: &str) -> Option<&Value> {
        assert!(
            self.flags.iter().any(|f| f.0 == name),
            "{name} is not a declared flag"
        );
        self.values.get(name)
    }

    /// Whether a switch was given.
    pub fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A path's or a choice's value, if given or defaulted.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    /// A count's or an integer's value, if given or defaulted.
    pub fn opt_int(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// A count or an integer declared with a default.
    pub fn int(&self, name: &str) -> u64 {
        self.opt_int(name)
            .unwrap_or_else(|| panic!("{name} is a number declared with a default"))
    }

    /// The metrics watcher [`WATCH`] configures.
    pub fn watch(&self) -> MetricsWatch {
        MetricsWatch::new(
            self.opt_int("--watch").unwrap_or(0),
            self.text("--metrics-out").map(str::to_owned),
        )
    }

    /// Writes what the installed recorder holds to `--trace` as a Chrome
    /// trace (exit 1 if it cannot), then under `--metrics` the metrics
    /// registry's snapshot as JSON on stderr.
    pub fn write_telemetry(&self) {
        if let Some(path) = self.text("--trace") {
            let data = recorder::take().expect("a traced run installs a recorder");
            chrome::write(&data, Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "wrote Chrome trace to {path} ({} resolutions, {} events, {} dropped)",
                data.resolutions.len(),
                data.events.len(),
                data.dropped
            );
        }
        if self.on("--metrics") {
            eprintln!("{}", metrics::global().snapshot().to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Kind::*;
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag("--iters", Count, Some("20")),
        Flag("--seed", Int, Some("1993")),
        Flag("--mode", Choice(&["exact", "lease"]), Some("lease")),
        Flag("--json", Switch, None),
    ];

    fn read(args: &[&str]) -> Result<Args, Stop> {
        let args = args.iter().map(|a| a.to_string());
        Args::read("bench_test", &[WATCH, FLAGS], args)
    }

    /// The message a refused command line exits 2 with.
    fn refused(args: &[&str]) -> String {
        match read(args) {
            Err(Stop::Bad(msg)) => msg,
            other => panic!("{args:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        assert!(refused(&["--json", "--bogus"]).contains("\"--bogus\""));
        assert!(refused(&["-x"]).contains("\"-x\""));
    }

    #[test]
    fn a_missing_value_is_refused_naming_its_flag() {
        assert_eq!(refused(&["--iters"]), "--iters requires a value");
        assert_eq!(refused(&["--json", "--watch"]), "--watch requires a value");
    }

    #[test]
    fn a_count_is_an_integer_of_at_least_one() {
        for bad in ["0", "-3", "2.5", "", "1e3", "x"] {
            let msg = refused(&["--iters", bad]);
            assert!(msg.starts_with("--iters requires"), "{msg}");
            assert!(refused(&["--watch", bad]).starts_with("--watch requires"));
        }
        assert_eq!(read(&["--iters", "1"]).unwrap().int("--iters"), 1);
    }

    #[test]
    fn an_integer_is_a_u64() {
        for bad in ["-1", "1.9", "18446744073709551616"] {
            assert!(refused(&["--seed", bad]).starts_with("--seed requires"));
        }
        let args = read(&["--seed", "18446744073709551615"]).unwrap();
        assert_eq!(args.int("--seed"), u64::MAX);
        assert_eq!(read(&["--seed", "0"]).unwrap().int("--seed"), 0);
    }

    #[test]
    fn a_choice_is_one_of_its_words() {
        let msg = refused(&["--mode", "lax"]);
        assert_eq!(msg, "--mode requires one of exact|lease, got \"lax\"");
        let args = read(&["--mode", "exact"]).unwrap();
        assert_eq!(args.text("--mode"), Some("exact"));
    }

    #[test]
    fn defaults_apply_when_a_flag_is_absent_and_the_last_value_wins() {
        let args = read(&[]).unwrap();
        assert_eq!(args.int("--iters"), 20);
        assert_eq!(args.int("--seed"), 1993);
        assert_eq!(args.text("--mode"), Some("lease"));
        assert!(!args.on("--json"));
        assert_eq!(args.opt_int("--watch"), None);
        assert_eq!(args.text("--metrics-out"), None);
        let args = read(&["--iters", "5", "--json", "--iters", "7"]).unwrap();
        assert_eq!(args.int("--iters"), 7);
        assert!(args.on("--json"));
    }

    #[test]
    fn help_lists_every_declared_flag() {
        for ask in ["--help", "-h"] {
            let Err(Stop::Help(text)) = read(&[ask, "--iters", "0"]) else {
                panic!("{ask} printed no help");
            };
            assert!(text.starts_with("usage: bench_test"));
            for &Flag(name, _, default) in [WATCH, FLAGS].concat().iter() {
                let line = text
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name))
                    .unwrap_or_else(|| panic!("{name} missing from {text}"));
                if let Some(default) = default {
                    assert!(line.ends_with(&format!("(default {default})")), "{line}");
                }
            }
            assert!(text.contains("--mode exact|lease (default lease)"));
        }
    }
}
