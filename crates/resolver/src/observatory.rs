//! The coherence-SLO observatory: continuous measurement of staleness,
//! false-⊥, unreachability, and publish-latency burn against declared
//! service-level objectives.
//!
//! The paper's §5 weak-coherence argument is temporal — incoherence is
//! tolerable *because it is bounded in time* — but nothing in the stack
//! measured that bound while a system runs. A [`StalenessObservatory`]
//! rides the existing machinery ([`naming_core::monitor::CoherenceMonitor`]
//! for audited incoherence windows, [`crate::engine::ResolveStats`] for
//! transport-vs-naming verdicts, the publish pipeline for propagation
//! latency) and grades what it sees against [`SloThresholds`]:
//!
//! * **staleness** — how long participants were observed to disagree
//!   (the monitor's degraded windows, fed via
//!   [`StalenessObservatory::note_staleness_window`]);
//! * **false ⊥** — resolutions that answered "unbound" where the oracle
//!   says the name is bound: the §2 contract violated;
//! * **unreachable** — transport verdicts, which the SLO separates from
//!   ⊥ exactly as PR 5 separated them in the protocol;
//! * **publish burn** — publish latency quantiles against the declared
//!   budget, as a burn ratio (>1 = over budget).
//!
//! Every measured quantity lives on the VirtualTime axis in windowed
//! histograms, so the observatory is deterministic: the same workload
//! produces byte-identical [`SloReport`]s whether or not anyone watches.
//! Watching only adds side channels — `slo.*` counters/histograms in the
//! global registry and breach instants on the trace timeline of an
//! installed recorder.

use naming_telemetry::metrics::HistogramSnapshot;
use naming_telemetry::window::WindowedHistogram;

use crate::engine::ResolveStats;

/// Declared service-level objectives the observatory grades against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloThresholds {
    /// Longest tolerable observed staleness window, in ticks (§5's
    /// temporal bound on weak coherence).
    pub staleness_ticks: u64,
    /// Highest tolerable false-⊥ rate (fraction of resolves).
    pub false_bottom_rate: f64,
    /// Highest tolerable unreachable rate (fraction of resolves).
    pub unreachable_rate: f64,
    /// Publish-latency budget in ticks, graded at p99.
    pub publish_p99_ticks: u64,
}

impl Default for SloThresholds {
    fn default() -> SloThresholds {
        SloThresholds {
            staleness_ticks: 2_000,
            false_bottom_rate: 0.0,
            unreachable_rate: 0.01,
            publish_p99_ticks: 1_000,
        }
    }
}

/// One threshold violation, as seen at note time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloBreach {
    /// Tick at which the breach was observed.
    pub ticks: u64,
    /// Which objective was violated (`staleness`, `false-bottom`, …).
    pub objective: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// The observatory: see the module docs.
///
/// Construction declares the thresholds and the windowing of the rolling
/// histograms; `note_*` calls feed it as the system runs; [`Self::report`]
/// grades the accumulated evidence.
#[derive(Debug)]
pub struct StalenessObservatory {
    thresholds: SloThresholds,
    resolve_latency: WindowedHistogram,
    publish_latency: WindowedHistogram,
    staleness: WindowedHistogram,
    /// The longest staleness window seen, exact: the windowed histogram
    /// only keeps power-of-two bucket bounds, and forgets old windows.
    staleness_max: u64,
    resolves: u64,
    bottoms: u64,
    false_bottoms: u64,
    unreachables: u64,
    publishes: u64,
    staleness_windows: u64,
    breaches: Vec<SloBreach>,
}

impl StalenessObservatory {
    /// An observatory with rolling windows of `window_ticks` ×
    /// `max_windows` on every measured axis.
    pub fn new(thresholds: SloThresholds, window_ticks: u64, max_windows: usize) -> Self {
        StalenessObservatory {
            thresholds,
            resolve_latency: WindowedHistogram::new(window_ticks, max_windows),
            publish_latency: WindowedHistogram::new(window_ticks, max_windows),
            staleness: WindowedHistogram::new(window_ticks, max_windows),
            staleness_max: 0,
            resolves: 0,
            bottoms: 0,
            false_bottoms: 0,
            unreachables: 0,
            publishes: 0,
            staleness_windows: 0,
            breaches: Vec::new(),
        }
    }

    /// The declared thresholds.
    pub fn thresholds(&self) -> SloThresholds {
        self.thresholds
    }

    /// Feeds one protocol resolution. `expected_defined` is the oracle's
    /// verdict on whether the name is bound (from the workload's own
    /// bookkeeping); `Some(true)` + an authoritative ⊥ answer is a false
    /// ⊥ — the §2 contract violated — and breaches immediately when the
    /// threshold is zero.
    pub fn note_resolve(&mut self, now: u64, stats: &ResolveStats, expected_defined: Option<bool>) {
        self.resolves += 1;
        self.resolve_latency.record(now, stats.latency.ticks());
        naming_telemetry::counter!("slo.resolves").bump();
        naming_telemetry::histogram!("slo.resolve.latency").record(stats.latency.ticks());
        if stats.unreachable {
            self.unreachables += 1;
            naming_telemetry::counter!("slo.unreachable").bump();
            return;
        }
        if !stats.entity.is_defined() {
            self.bottoms += 1;
            if expected_defined == Some(true) {
                self.false_bottoms += 1;
                naming_telemetry::counter!("slo.false_bottom").bump();
                if self.false_bottom_rate() > self.thresholds.false_bottom_rate {
                    self.breach(
                        now,
                        "false-bottom",
                        format!(
                            "false-⊥ rate {:.4} exceeds {:.4}",
                            self.false_bottom_rate(),
                            self.thresholds.false_bottom_rate
                        ),
                    );
                }
            }
        }
    }

    /// Feeds one snapshot publish and its propagation latency.
    pub fn note_publish(&mut self, now: u64, latency_ticks: u64) {
        self.publishes += 1;
        self.publish_latency.record(now, latency_ticks);
        naming_telemetry::counter!("slo.publishes").bump();
        naming_telemetry::histogram!("slo.publish.latency").record(latency_ticks);
        let p99 = self.publish_latency.p99();
        if p99 > self.thresholds.publish_p99_ticks {
            self.breach(
                now,
                "publish-latency",
                format!(
                    "publish p99 {p99} ticks over budget {}",
                    self.thresholds.publish_p99_ticks
                ),
            );
        }
    }

    /// Feeds one observed staleness window `[start, end]` in ticks —
    /// typically from
    /// [`CoherenceMonitor::degraded_windows`][naming_core::monitor::CoherenceMonitor::degraded_windows].
    pub fn note_staleness_window(&mut self, start: u64, end: u64) {
        let span = end.saturating_sub(start);
        self.staleness_windows += 1;
        self.staleness_max = self.staleness_max.max(span);
        self.staleness.record(end, span);
        naming_telemetry::counter!("slo.staleness.windows").bump();
        naming_telemetry::histogram!("slo.staleness.window").record(span);
        if span > self.thresholds.staleness_ticks {
            self.breach(
                end,
                "staleness",
                format!(
                    "staleness window {span} ticks exceeds {}",
                    self.thresholds.staleness_ticks
                ),
            );
        }
    }

    fn breach(&mut self, ticks: u64, objective: &'static str, detail: String) {
        naming_telemetry::counter!("slo.breaches").bump();
        naming_telemetry::recorder::instant(
            "slo",
            format!("breach:{objective}"),
            vec![("detail".into(), detail.clone())],
        );
        self.breaches.push(SloBreach {
            ticks,
            objective,
            detail,
        });
    }

    /// Observed false-⊥ rate (fraction of all resolves so far).
    pub fn false_bottom_rate(&self) -> f64 {
        rate(self.false_bottoms, self.resolves)
    }

    /// Observed unreachable rate (fraction of all resolves so far).
    pub fn unreachable_rate(&self) -> f64 {
        rate(self.unreachables, self.resolves)
    }

    /// Every breach observed so far, in observation order.
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }

    /// Grades the evidence accumulated so far.
    pub fn report(&self) -> SloReport {
        let publish_p99 = self.publish_latency.p99();
        SloReport {
            thresholds: self.thresholds,
            resolves: self.resolves,
            bottoms: self.bottoms,
            false_bottoms: self.false_bottoms,
            unreachables: self.unreachables,
            publishes: self.publishes,
            false_bottom_rate: self.false_bottom_rate(),
            unreachable_rate: self.unreachable_rate(),
            resolve_latency: self.resolve_latency.snapshot(),
            publish_latency: self.publish_latency.snapshot(),
            staleness_windows: self.staleness_windows,
            staleness: self.staleness.snapshot(),
            staleness_max_ticks: self.staleness_max,
            publish_burn: if self.thresholds.publish_p99_ticks == 0 {
                0.0
            } else {
                publish_p99 as f64 / self.thresholds.publish_p99_ticks as f64
            },
            breaches: self.breaches.len() as u64,
        }
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A graded summary of everything the observatory saw. All quantities
/// derive from VirtualTime and deterministic counters, so reports are
/// byte-identical across runs, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// The thresholds the run was graded against.
    pub thresholds: SloThresholds,
    /// Resolutions observed.
    pub resolves: u64,
    /// Authoritative ⊥ answers observed.
    pub bottoms: u64,
    /// ⊥ answers contradicting the oracle.
    pub false_bottoms: u64,
    /// Transport (unreachable) verdicts observed.
    pub unreachables: u64,
    /// Publishes observed.
    pub publishes: u64,
    /// `false_bottoms / resolves`.
    pub false_bottom_rate: f64,
    /// `unreachables / resolves`.
    pub unreachable_rate: f64,
    /// Resolve-latency distribution over the retained horizon.
    pub resolve_latency: HistogramSnapshot,
    /// Publish-latency distribution over the retained horizon.
    pub publish_latency: HistogramSnapshot,
    /// Staleness windows observed.
    pub staleness_windows: u64,
    /// Staleness-window distribution (window lengths, ticks).
    pub staleness: HistogramSnapshot,
    /// The longest staleness window observed over the whole run, in ticks:
    /// exact, where `staleness`'s top quantile reads a bucket bound.
    pub staleness_max_ticks: u64,
    /// Publish p99 ÷ budget (>1 = over budget).
    pub publish_burn: f64,
    /// Total threshold violations.
    pub breaches: u64,
}

impl SloReport {
    /// True when every objective held over the whole run.
    pub fn ok(&self) -> bool {
        self.breaches == 0
            && self.false_bottom_rate <= self.thresholds.false_bottom_rate
            && self.unreachable_rate <= self.thresholds.unreachable_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::entity::Entity;
    use naming_sim::time::Duration;

    fn resolved(latency: u64) -> ResolveStats {
        ResolveStats {
            entity: Entity::Object(naming_core::prelude::ObjectId::from_index(1)),
            messages: 2,
            servers_touched: 1,
            latency: Duration::from_ticks(latency),
            unreachable: false,
        }
    }

    fn bottom(latency: u64, unreachable: bool) -> ResolveStats {
        ResolveStats {
            entity: Entity::Undefined,
            messages: 2,
            servers_touched: 1,
            latency: Duration::from_ticks(latency),
            unreachable,
        }
    }

    #[test]
    fn clean_run_reports_ok() {
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        for i in 0..100u64 {
            obs.note_resolve(i * 10, &resolved(40 + i % 7), Some(true));
        }
        obs.note_publish(500, 200);
        let r = obs.report();
        assert!(r.ok(), "{r:?}");
        assert_eq!(r.resolves, 100);
        assert_eq!(r.false_bottoms, 0);
        assert_eq!(r.publishes, 1);
        assert!(r.publish_burn <= 1.0);
        assert!(r.resolve_latency.quantile(0.99) >= 40);
    }

    #[test]
    fn false_bottom_breaches_a_zero_threshold() {
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        obs.note_resolve(10, &resolved(50), Some(true));
        // Authoritative ⊥ against a bound oracle: the §2 violation.
        obs.note_resolve(20, &bottom(50, false), Some(true));
        let r = obs.report();
        assert_eq!(r.false_bottoms, 1);
        assert!(!r.ok());
        assert_eq!(obs.breaches()[0].objective, "false-bottom");
        // An *expected* ⊥ (oracle agrees) is not a violation.
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        obs.note_resolve(10, &bottom(50, false), Some(false));
        obs.note_resolve(20, &bottom(50, false), None);
        assert!(obs.report().ok());
        assert_eq!(obs.report().bottoms, 2);
    }

    #[test]
    fn unreachable_is_rated_not_bottomed() {
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        for i in 0..99u64 {
            obs.note_resolve(i, &resolved(10), Some(true));
        }
        // One transport verdict against a bound name: counted as
        // unreachable, never as false ⊥.
        obs.note_resolve(99, &bottom(10, true), Some(true));
        let r = obs.report();
        assert_eq!(r.unreachables, 1);
        assert_eq!(r.false_bottoms, 0);
        assert!((r.unreachable_rate - 0.01).abs() < 1e-9);
        assert!(r.ok(), "1% is exactly at the default threshold");
    }

    #[test]
    fn staleness_windows_grade_against_threshold() {
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        obs.note_staleness_window(0, 500);
        assert!(obs.report().ok());
        obs.note_staleness_window(1_000, 4_000);
        let r = obs.report();
        assert_eq!(r.staleness_windows, 2);
        assert!(!r.ok());
        assert_eq!(obs.breaches()[0].objective, "staleness");
        assert!(r.staleness.quantile(1.0) >= 3_000);
    }

    #[test]
    fn publish_burn_over_budget_breaches() {
        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        obs.note_publish(100, 5_000);
        let r = obs.report();
        assert!(r.publish_burn > 1.0);
        assert_eq!(r.breaches, 1);
        assert_eq!(obs.breaches()[0].objective, "publish-latency");
    }

    #[test]
    fn absorbs_monitor_windows() {
        use naming_core::audit::AuditSpec;
        use naming_core::closure::{ContextRegistry, MetaContext, StandardRule};
        use naming_core::monitor::CoherenceMonitor;
        use naming_core::name::{CompoundName, Name};
        use naming_core::state::SystemState;

        // Two activities with diverging bindings for /x.
        let mut sys = SystemState::new();
        let mut reg = ContextRegistry::new();
        for i in 0..2 {
            let ctx = sys.add_context_object(format!("c{i}"));
            let f = sys.add_data_object(format!("f{i}"), vec![]);
            sys.bind(ctx, Name::new("x"), f).unwrap();
            let a = sys.add_activity(format!("a{i}"));
            reg.set_activity_context(a, ctx);
        }
        let metas: Vec<MetaContext> = sys.activities().map(MetaContext::internal).collect();
        let names = vec![CompoundName::atom(Name::new("x"))];
        let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));
        mon.observe_at(
            100,
            "t100",
            &sys,
            &reg,
            &StandardRule::OfResolver,
            None,
            None,
        );
        mon.observe_at(
            5_000,
            "t5000",
            &sys,
            &reg,
            &StandardRule::OfResolver,
            None,
            None,
        );

        let mut obs = StalenessObservatory::new(SloThresholds::default(), 1_000, 8);
        for (start, end) in mon.degraded_windows(0.99) {
            obs.note_staleness_window(start, end);
        }
        let r = obs.report();
        assert_eq!(r.staleness_windows, 1);
        assert!(!r.ok(), "4900-tick window over the 2000-tick objective");
    }
}
