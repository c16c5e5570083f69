//! Tracking the degree of coherence over time.
//!
//! The audits in [`crate::audit`] are snapshots; a [`CoherenceMonitor`]
//! strings snapshots into a time series so experiments can watch coherence
//! *drift* as a system churns — contexts mutate, bindings change, subtrees
//! move. Each observation records the audit statistics together with an
//! arbitrary step label supplied by the caller.

use serde::{Deserialize, Serialize};

use crate::audit::{run as audit_run, AuditSpec};
use crate::closure::{ContextRegistry, ResolutionRule};
use crate::coherence::CoherenceStats;
use crate::replica::ReplicaRegistry;
use crate::report::{pct, Table};
use crate::state::SystemState;

/// One observation in the series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Observation {
    /// Caller-supplied step label (e.g. churn count or virtual time).
    pub label: String,
    /// Virtual-time ticks at which the observation was taken (0 unless
    /// recorded via [`CoherenceMonitor::observe_at`]). Giving the series
    /// a time axis is what turns coherence *drift* into coherence
    /// *windows*: [`CoherenceMonitor::degraded_windows`] measures how
    /// long the system stayed below a rate threshold.
    pub ticks: u64,
    /// The audit statistics at this step.
    pub stats: CoherenceStats,
    /// Ids of the `naming-telemetry` resolution traces the audit
    /// recorded while producing `stats` — the *explanation* of any drift:
    /// each id names a full per-hop trace of one participant's
    /// resolution. Empty unless the caller passed a [`TraceHandle`] to
    /// [`CoherenceMonitor::observe`] and a recorder was active.
    pub trace_ids: Vec<u64>,
}

/// Opt-in marker asking [`CoherenceMonitor::observe`] to link the
/// observation to the resolution traces its audit records.
///
/// Without an installed recorder passing it is a no-op and
/// [`Observation::trace_ids`] stays empty.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceHandle;

/// A coherence time series over a fixed audit specification.
#[derive(Debug)]
pub struct CoherenceMonitor {
    spec: AuditSpec,
    series: Vec<Observation>,
}

impl CoherenceMonitor {
    /// Creates a monitor that audits `spec` at every observation.
    pub fn new(spec: AuditSpec) -> CoherenceMonitor {
        CoherenceMonitor {
            spec,
            series: Vec::new(),
        }
    }

    /// Takes one observation.
    ///
    /// Passing `Some(&TraceHandle)` links the observation to the
    /// resolution traces recorded during the audit (see
    /// [`Observation::trace_ids`]); `None` skips the linkage.
    pub fn observe(
        &mut self,
        label: impl Into<String>,
        state: &SystemState,
        registry: &ContextRegistry,
        rule: &(dyn ResolutionRule + Sync),
        replicas: Option<&ReplicaRegistry>,
        trace: Option<&TraceHandle>,
    ) -> &Observation {
        self.observe_at(0, label, state, registry, rule, replicas, trace)
    }

    /// Takes one observation stamped with a virtual-time tick, giving
    /// the series a time axis for [`Self::degraded_windows`].
    #[allow(clippy::too_many_arguments)]
    pub fn observe_at(
        &mut self,
        ticks: u64,
        label: impl Into<String>,
        state: &SystemState,
        registry: &ContextRegistry,
        rule: &(dyn ResolutionRule + Sync),
        replicas: Option<&ReplicaRegistry>,
        trace: Option<&TraceHandle>,
    ) -> &Observation {
        let mark = trace.map(|_| naming_telemetry::recorder::trace_count());
        let report = audit_run(state, registry, rule, &self.spec, replicas);
        let trace_ids = mark
            .map(naming_telemetry::recorder::trace_ids_since)
            .unwrap_or_default();
        self.series.push(Observation {
            label: label.into(),
            ticks,
            stats: report.stats,
            trace_ids,
        });
        self.series.last().expect("just pushed")
    }

    /// The observations so far.
    pub fn series(&self) -> &[Observation] {
        &self.series
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Change in coherence rate between the first and last observation
    /// (negative = decay). Zero when fewer than two observations.
    pub fn drift(&self) -> f64 {
        match (self.series.first(), self.series.last()) {
            (Some(a), Some(b)) if self.series.len() >= 2 => {
                b.stats.coherence_rate() - a.stats.coherence_rate()
            }
            _ => 0.0,
        }
    }

    /// The observed *incoherence windows*: maximal runs of consecutive
    /// observations whose coherence rate is below `threshold`, as
    /// `(start ticks, end ticks)` spans. A window closes at the tick of
    /// the first observation back at or above the threshold (the moment
    /// coherence was *seen* restored); a window still open at the end of
    /// the series closes at the last observation's tick. Vacuous-only
    /// observations (no audited pairs) never open a window.
    ///
    /// This is the paper's §5 staleness question made measurable: how
    /// long did participants disagree before updates propagated?
    pub fn degraded_windows(&self, threshold: f64) -> Vec<(u64, u64)> {
        let mut windows = Vec::new();
        let mut open: Option<u64> = None;
        let mut last_tick = 0;
        for o in &self.series {
            last_tick = o.ticks;
            let degraded = o.stats.total > o.stats.vacuous && o.stats.coherence_rate() < threshold;
            match (degraded, open) {
                (true, None) => open = Some(o.ticks),
                (false, Some(start)) => {
                    windows.push((start, o.ticks));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            windows.push((start, last_tick));
        }
        windows
    }

    /// Renders the series as a table.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let mut t = Table::new(
            title,
            &["step", "coherent", "weak", "incoherent", "vacuous", "rate"],
        );
        for o in &self.series {
            t.row(vec![
                o.label.clone(),
                o.stats.coherent.to_string(),
                o.stats.weakly_coherent.to_string(),
                o.stats.incoherent.to_string(),
                o.stats.vacuous.to_string(),
                pct(o.stats.coherence_rate()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NamespaceBuilder;
    use crate::closure::{MetaContext, StandardRule};
    use crate::entity::ActivityId;
    use crate::name::{CompoundName, Name};

    fn setup() -> (
        SystemState,
        ContextRegistry,
        Vec<ActivityId>,
        Vec<CompoundName>,
    ) {
        let mut sys = SystemState::new();
        let mut roots = Vec::new();
        for i in 0..2 {
            let mut b = NamespaceBuilder::rooted(&mut sys, &format!("m{i}"));
            b.dir("etc", |etc| {
                etc.file("passwd", vec![i as u8]);
            });
            roots.push(b.finish());
        }
        // Initially both roots share the same etc? No — distinct. Make one
        // name shared: bind "common" in both roots to the same object.
        let common = sys.add_data_object("common", vec![]);
        for &r in &roots {
            sys.bind(r, Name::new("common"), common).unwrap();
        }
        let mut reg = ContextRegistry::new();
        let pids: Vec<ActivityId> = roots
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let a = sys.add_activity(format!("p{i}"));
                reg.set_activity_context(a, r);
                a
            })
            .collect();
        let names = vec![
            CompoundName::parse_path("/etc/passwd").unwrap(),
            CompoundName::parse_path("/common").unwrap(),
        ];
        (sys, reg, pids, names)
    }

    #[test]
    fn series_tracks_mutations() {
        let (mut sys, reg, pids, names) = setup();
        let metas: Vec<MetaContext> = pids.iter().map(|&p| MetaContext::internal(p)).collect();
        let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));
        assert!(mon.is_empty());
        let o0 = mon
            .observe("0", &sys, &reg, &StandardRule::OfResolver, None, None)
            .stats
            .clone();
        assert_eq!(o0.coherent, 1); // /common
        assert_eq!(o0.incoherent, 1); // /etc/passwd
                                      // Repair: bind both roots' etc to the same directory.
        let shared_etc = sys.add_context_object("shared-etc");
        let pw = sys.add_data_object("pw", vec![]);
        sys.bind(shared_etc, Name::new("passwd"), pw).unwrap();
        for a in 0..2u32 {
            let ctx = reg
                .activity_context(crate::entity::ActivityId::from_index(a))
                .unwrap();
            sys.bind(ctx, Name::new("etc"), shared_etc).unwrap();
        }
        let o1 = mon
            .observe("1", &sys, &reg, &StandardRule::OfResolver, None, None)
            .stats
            .clone();
        assert_eq!(o1.coherent, 2);
        assert_eq!(mon.len(), 2);
        assert!(mon.drift() > 0.0, "coherence improved");
        let t = mon.to_table("demo");
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn degraded_windows_measure_staleness_spans() {
        let (mut sys, reg, pids, names) = setup();
        let metas: Vec<MetaContext> = pids.iter().map(|&p| MetaContext::internal(p)).collect();
        let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));
        // t=10, t=20: /etc/passwd diverges (rate 0.5) → window opens at 10.
        mon.observe_at(10, "t10", &sys, &reg, &StandardRule::OfResolver, None, None);
        mon.observe_at(20, "t20", &sys, &reg, &StandardRule::OfResolver, None, None);
        // Repair at t=25; the audit at t=30 sees coherence restored.
        let shared_etc = sys.add_context_object("shared-etc");
        let pw = sys.add_data_object("pw", vec![]);
        sys.bind(shared_etc, Name::new("passwd"), pw).unwrap();
        for a in 0..2u32 {
            let ctx = reg
                .activity_context(crate::entity::ActivityId::from_index(a))
                .unwrap();
            sys.bind(ctx, Name::new("etc"), shared_etc).unwrap();
        }
        mon.observe_at(30, "t30", &sys, &reg, &StandardRule::OfResolver, None, None);
        assert_eq!(mon.degraded_windows(0.9), vec![(10, 30)]);
        // A threshold below the degraded rate sees no window at all.
        assert!(mon.degraded_windows(0.4).is_empty());
        // Ticks are recorded on the series; plain observe stamps 0.
        assert_eq!(mon.series()[1].ticks, 20);
        mon.observe("untimed", &sys, &reg, &StandardRule::OfResolver, None, None);
        assert_eq!(mon.series()[3].ticks, 0);
    }

    #[test]
    fn degraded_window_still_open_closes_at_last_tick() {
        let (sys, reg, pids, names) = setup();
        let metas: Vec<MetaContext> = pids.iter().map(|&p| MetaContext::internal(p)).collect();
        let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));
        mon.observe_at(5, "t5", &sys, &reg, &StandardRule::OfResolver, None, None);
        mon.observe_at(15, "t15", &sys, &reg, &StandardRule::OfResolver, None, None);
        // Never repaired: the window spans the whole observed range.
        assert_eq!(mon.degraded_windows(0.9), vec![(5, 15)]);
        assert!(mon.degraded_windows(-1.0).is_empty());
    }

    #[test]
    fn drift_is_zero_with_few_observations() {
        let (sys, reg, pids, names) = setup();
        let metas: Vec<MetaContext> = pids.iter().map(|&p| MetaContext::internal(p)).collect();
        let mut mon = CoherenceMonitor::new(AuditSpec::exhaustive(names, metas));
        assert_eq!(mon.drift(), 0.0);
        mon.observe("only", &sys, &reg, &StandardRule::OfResolver, None, None);
        assert_eq!(mon.drift(), 0.0);
        assert_eq!(mon.series().len(), 1);
    }
}
