//! The `--watch` / `--metrics-out` plumbing shared by the bench binaries.
//!
//! A [`MetricsWatch`] periodically renders the global metrics registry as
//! Prometheus-style text exposition
//! ([`naming_telemetry::window::render_exposition`]) — every `every` work
//! units to the metrics path (overwritten in place, like a live status
//! file an operator can `watch cat` or a scraper can poll) or to stderr
//! when no path was given. A final snapshot can be flushed at exit with
//! [`MetricsWatch::finish`], so `--metrics-out` alone (no `--watch`)
//! still produces a diffable, checked-in-able snapshot file.
//!
//! Nothing here touches stdout: the CI byte-identity legs compare stdout
//! with and without watching, and watching must never perturb that.

use std::path::PathBuf;

/// Periodic metrics-exposition dumper. See the module docs.
#[derive(Debug)]
pub struct MetricsWatch {
    every: u64,
    seen: u64,
    dumps: u64,
    out: Option<PathBuf>,
}

impl MetricsWatch {
    /// A watcher dumping every `every` ticks of [`MetricsWatch::tick`]
    /// (0 = only on [`MetricsWatch::finish`]) to `out` (stderr if `None`).
    pub fn new(every: u64, out: Option<String>) -> MetricsWatch {
        MetricsWatch {
            every,
            seen: 0,
            dumps: 0,
            out: out.map(PathBuf::from),
        }
    }

    /// Whether any periodic dumping is configured.
    pub fn watching(&self) -> bool {
        self.every > 0
    }

    /// Counts one unit of work (an experiment, a sweep rate, a scale
    /// tier); dumps the exposition when the `--watch` interval elapses.
    pub fn tick(&mut self, label: &str) {
        self.seen += 1;
        if self.every > 0 && self.seen.is_multiple_of(self.every) {
            self.dump(label);
        }
    }

    /// Writes one exposition snapshot now.
    pub fn dump(&mut self, label: &str) {
        self.dumps += 1;
        let text = naming_telemetry::window::render_exposition(
            &naming_telemetry::metrics::global().snapshot(),
        );
        match &self.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("[watch {}] {} -> {}", self.dumps, label, path.display());
            }
            None => {
                eprintln!("# [watch {}] {}", self.dumps, label);
                eprint!("{text}");
            }
        }
    }

    /// Flushes a final snapshot if a metrics path was configured (always)
    /// or if watching to stderr and at least one unit went unreported.
    pub fn finish(&mut self) {
        if self.out.is_some() || (self.every > 0 && !self.seen.is_multiple_of(self.every)) {
            self.dump("final");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_writes_exposition_to_path() {
        naming_telemetry::counter!("watch.test.units").bump();
        let dir = std::env::temp_dir().join(format!("watch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let mut w = MetricsWatch::new(2, Some(path.to_string_lossy().into_owned()));
        assert!(w.watching());
        w.tick("one"); // 1 % 2 != 0: no dump yet
        assert!(!path.exists());
        w.tick("two"); // 2 % 2 == 0: dump
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE watch_test_units counter"), "{text}");
        w.finish();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_without_watch_still_dumps_to_path() {
        let dir = std::env::temp_dir().join(format!("watch-test-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let mut w = MetricsWatch::new(0, Some(path.to_string_lossy().into_owned()));
        assert!(!w.watching());
        w.tick("unit");
        assert!(!path.exists(), "no periodic dumps when every=0");
        w.finish();
        assert!(path.exists(), "--metrics-out alone flushes at exit");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
