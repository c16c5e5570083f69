//! A lock-free metrics registry: sharded counters and fixed-bucket
//! power-of-two histograms with snapshot/diff semantics.
//!
//! Increments are wait-free: a [`Counter`] is a cache-line-padded shard
//! array indexed by a per-thread slot (the vendored `crossbeam` stand-in
//! exposes only `scope`, so the padding is hand-rolled), and a
//! [`Histogram`] is a fixed array of atomics — recording never allocates
//! and never takes a lock. The registry's single `RwLock` is touched only
//! when a metric is first registered or a snapshot is taken; hot sites
//! cache their handle in a `static` via the [`counter!`][crate::counter]
//! / [`histogram!`][crate::histogram] macros.
//!
//! Metrics are process-global and purely observational: nothing in the
//! naming model reads them, so enabling them can never change experiment
//! output.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::json::json_string;

/// Number of shards per counter (power of two).
const SHARDS: usize = 16;

/// One cache line per shard so concurrent incrementers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedAtomic(AtomicU64);

/// Per-thread shard slot, assigned round-robin on first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
    }
    SLOT.with(|s| *s)
}

/// A sharded, wait-free monotone counter.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedAtomic; SHARDS],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: Default::default(),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable level with high-water-mark tracking: in-flight work,
/// queue depths, window occupancy. Unlike a [`Counter`] a gauge goes
/// down as well as up; the high-water mark records the largest level
/// ever set, which is what capacity reports (e.g. the pipelined
/// runtime's in-flight HWM) need after the level has drained back to
/// zero.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    hwm: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
            hwm: AtomicI64::new(0),
        }
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (negative to drain).
    pub fn add(&self, delta: i64) {
        let v = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Increments the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements the level by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The largest level observed so far.
    pub fn hwm(&self) -> i64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The level at snapshot time.
    pub value: i64,
    /// The largest level observed up to snapshot time.
    pub hwm: i64,
}

/// Number of histogram buckets: bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros. 64 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram (latency ticks, resolution
/// depths, message counts).
///
/// The observation count is not stored separately — it is the sum of the
/// bucket counts — so recording is two relaxed adds, a concern on hot
/// paths that record per resolution.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Inclusive upper bound of bucket `i`: 0, 1, 3, 7, … (`2^i - 1`).
fn upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A point-in-time copy of one histogram: only non-empty buckets, as
/// `(inclusive upper bound, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive bucket upper bound at or below which at least a
    /// `q` fraction (`0.0..=1.0`) of observations fall — the power-of-two
    /// analogue of a quantile. Returns 0 for an empty snapshot; `q >= 1`
    /// returns the last non-empty bucket's bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(ub, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return ub;
            }
        }
        self.buckets.last().map(|&(ub, _)| ub).unwrap_or(0)
    }

    fn diff(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let base: BTreeMap<u64, u64> = baseline.buckets.iter().copied().collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(ub, n)| {
                let d = n.saturating_sub(base.get(&ub).copied().unwrap_or(0));
                (d > 0).then_some((ub, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets,
        }
    }
}

/// The registry: named counters and histograms.
///
/// Use [`global`] for the process-wide instance the instrumentation
/// writes to; independent registries can be built for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| {
                    (
                        (*k).to_owned(),
                        GaugeSnapshot {
                            value: v.get(),
                            hwm: v.hwm(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry the instrumented crates write to.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels (and high-water marks) by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's snapshot (zeros when absent).
    pub fn gauge(&self, name: &str) -> GaugeSnapshot {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// The change from `baseline` to this snapshot: counters and
    /// histogram buckets are subtracted (saturating); metrics absent from
    /// the baseline appear whole.
    pub fn diff(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let empty = HistogramSnapshot::default();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.diff(baseline.histograms.get(k).unwrap_or(&empty)),
                )
            })
            .collect();
        // Gauges are levels, not monotone totals: a diff reports the
        // current level and HWM as-is rather than a meaningless delta.
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Renders the snapshot as a JSON object (hand-emitted; the workspace
    /// vendors no JSON serializer).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, g)| {
                format!(
                    "{}: {{\"value\": {}, \"hwm\": {}}}",
                    json_string(k),
                    g.value,
                    g.hwm
                )
            })
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(ub, n)| format!("[{ub}, {n}]"))
                    .collect();
                format!(
                    "{}: {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                    json_string(k),
                    h.count,
                    h.sum,
                    buckets.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

/// Caches a handle to a [`global`] counter in a per-call-site `static`,
/// so the steady-state cost of an increment is one atomic add.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().counter($name))
    }};
}

/// Caches a handle to a [`global`] gauge in a per-call-site `static`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().gauge($name))
    }};
}

/// Caches a handle to a [`global`] histogram in a per-call-site `static`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards_and_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.hits");
        // Hammer from scoped threads (the same vendored crossbeam scope the
        // threaded sweeps use).
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move |_| {
                    for _ in 0..10_000 {
                        c.bump();
                    }
                });
            }
        })
        .expect("scope");
        assert_eq!(c.get(), 80_000);
        // Same name, same counter.
        reg.counter("t.hits").add(5);
        assert_eq!(reg.snapshot().counter("t.hits"), 80_005);
    }

    #[test]
    fn histogram_buckets_are_pow2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(upper_bound(0), 0);
        assert_eq!(upper_bound(1), 1);
        assert_eq!(upper_bound(3), 7);
    }

    #[test]
    fn histogram_snapshot_and_mean() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.latency");
        for v in [0, 1, 2, 3, 10] {
            h.record(v);
        }
        let s = reg.snapshot();
        let hs = &s.histograms["t.latency"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 16);
        assert!((hs.mean() - 3.2).abs() < 1e-9);
        // Buckets: 0 → bucket 0; 1 → ub 1; 2,3 → ub 3; 10 → ub 15.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (3, 2), (15, 1)]);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn snapshot_diff_subtracts() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.histogram("h").record(4);
        let before = reg.snapshot();
        reg.counter("a").add(2);
        reg.counter("b").bump();
        reg.histogram("h").record(4);
        reg.histogram("h").record(100);
        let d = reg.snapshot().diff(&before);
        assert_eq!(d.counter("a"), 2);
        assert_eq!(d.counter("b"), 1);
        let hd = &d.histograms["h"];
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 104);
        assert_eq!(hd.buckets, vec![(7, 1), (127, 1)]);
    }

    #[test]
    fn snapshot_json_is_valid() {
        let reg = MetricsRegistry::new();
        reg.counter("x.y").add(7);
        reg.histogram("z").record(9);
        let json = reg.snapshot().to_json();
        crate::json::check(&json).expect("valid JSON");
        assert!(json.contains("\"x.y\": 7"));
    }

    #[test]
    fn global_registry_and_macros() {
        counter!("test.macro.counter").add(2);
        counter!("test.macro.counter").bump();
        histogram!("test.macro.histogram").record(8);
        gauge!("test.macro.gauge").set(4);
        gauge!("test.macro.gauge").dec();
        let s = global().snapshot();
        assert_eq!(s.counter("test.macro.counter"), 3);
        assert_eq!(s.histograms["test.macro.histogram"].count, 1);
        assert_eq!(s.gauge("test.macro.gauge").value, 3);
        assert_eq!(s.gauge("test.macro.gauge").hwm, 4);
    }

    #[test]
    fn gauge_tracks_level_and_high_water_mark() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("t.in_flight");
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.hwm(), 3);
        g.add(10);
        g.add(-12);
        assert_eq!(g.get(), 0);
        assert_eq!(g.hwm(), 12);
        // set() moves the level directly and still feeds the HWM.
        g.set(20);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.hwm(), 20);
        let s = reg.snapshot();
        assert_eq!(s.gauge("t.in_flight"), GaugeSnapshot { value: 5, hwm: 20 });
        assert_eq!(s.gauge("t.absent"), GaugeSnapshot::default());
        // A diff passes gauge levels through unchanged (levels, not totals).
        let d = reg.snapshot().diff(&s);
        assert_eq!(d.gauge("t.in_flight").hwm, 20);
        let json = s.to_json();
        crate::json::check(&json).expect("valid JSON");
        assert!(json.contains("\"t.in_flight\": {\"value\": 5, \"hwm\": 20}"));
    }
}
