//! Timing of calls into the system, and — on a traced run only — a span per
//! call.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Probe::call`], which is the *only* place wall time and
//! allocations are charged: oracle comparison, pacing and bookkeeping sit
//! between calls and are never timed. Spans are recorded from here, outside
//! the program, and kept in memory until the run ends.

use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// Parent id of a span that has none (a rep or ladder-rung span).
const NO_PARENT: u32 = u32::MAX;

/// One recorded call: `name` is `layer.function`, `req` the batch index.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

pub struct Probe {
    epoch: Instant,
    /// `Some` on a traced run; `None` keeps span recording entirely off.
    spans: Option<Vec<Span>>,
    parent: u32,
    /// Wall nanoseconds inside timed calls since the last [`Probe::take`].
    wall_ns: u64,
    /// Allocations inside timed calls since the last [`Probe::take`].
    allocs: u64,
}

impl Probe {
    pub fn new(tracing: bool) -> Probe {
        Probe {
            epoch: Instant::now(),
            spans: tracing.then(Vec::new),
            parent: NO_PARENT,
            wall_ns: 0,
            allocs: 0,
        }
    }

    /// Times one call into the system and charges its wall time and
    /// allocations to the current repetition.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.allocs += alloc::allocations() - a0;
        self.wall_ns += (t1 - t0).as_nanos() as u64;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                end_ns: (t1 - self.epoch).as_nanos() as u64,
                parent: self.parent,
                req,
            });
        }
        out
    }

    /// Wall nanoseconds charged so far in this repetition.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Returns and resets `(wall_ns, allocs)` charged since the last take.
    pub fn take(&mut self) -> (u64, u64) {
        let out = (self.wall_ns, self.allocs);
        self.wall_ns = 0;
        self.allocs = 0;
        out
    }

    /// Opens a grouping span (a repetition or a ladder rung); calls made
    /// until [`Probe::close`] name it as their parent. No-op when untraced.
    pub fn open(&mut self, name: &'static str) {
        if let Some(spans) = &mut self.spans {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.parent = spans.len() as u32;
            spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                req: 0,
            });
        }
    }

    pub fn close(&mut self) {
        if let Some(spans) = &mut self.spans {
            if let Some(s) = spans.get_mut(self.parent as usize) {
                s.end_ns = self.epoch.elapsed().as_nanos() as u64;
            }
            self.parent = NO_PARENT;
        }
    }

    /// Appends the recorded spans to `out` as JSON lines.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().flatten().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}, \"workload\": \"{workload}\"}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_probe_charges_time_but_records_no_span() {
        let mut p = Probe::new(false);
        p.open("rep");
        let v = p.call("layer.f", 3, || std::hint::black_box(vec![1u8; 64]));
        p.close();
        assert_eq!(v.len(), 64);
        let (wall, allocs) = p.take();
        assert!(wall > 0 && allocs >= 1);
        assert_eq!(p.take(), (0, 0));
        let mut out = Vec::new();
        p.write_jsonl("w", &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn traced_probe_nests_calls_under_the_open_span() {
        let mut p = Probe::new(true);
        p.open("rep");
        p.call("layer.f", 7, || ());
        p.close();
        p.call("layer.g", 8, || ());
        let mut out = Vec::new();
        p.write_jsonl("hot_cache", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\": \"rep\"") && lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"req\": 7"));
        assert!(lines[2].contains("\"parent\": null") && lines[2].contains("hot_cache"));
    }
}
