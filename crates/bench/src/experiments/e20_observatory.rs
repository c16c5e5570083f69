//! E20 (extension) — the coherence-SLO observatory under a chaos
//! campaign.
//!
//! §5's defense of weak coherence is temporal: staleness is tolerable
//! *because it is bounded in time*. This experiment runs the replicated
//! chain world (`scenarios::chaos_zones`) through a staged chaos campaign
//! — lossless baseline, heavy message loss with retries, binding churn
//! with delayed zone publication, a primary crash served by failover, and
//! an unprotected lossy phase — while a
//! [`StalenessObservatory`](naming_resolver::observatory::StalenessObservatory)
//! watches every resolution, publish, and staleness window and grades
//! them against declared [`SloThresholds`]. Everything is measured on the
//! VirtualTime axis, so the tables are byte-identical across runs, traced
//! or not; telemetry only adds `slo.*` metrics and breach instants on the
//! side.
//!
//! The campaign is built to demonstrate both verdicts: the false-⊥
//! objective holds everywhere (a lost message never surfaces as ⊥ —
//! PR 5's contract), while the deliberately delayed publication in the
//! churn phase breaches the staleness objective, and the unprotected
//! phase breaches the unreachable-rate objective.

use naming_core::report::{pct, yes_no, Table};
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::observatory::{SloReport, SloThresholds, StalenessObservatory};
use naming_resolver::wire::Mode;
use naming_sim::store;

const HOPS: usize = 4;
const LEAVES: usize = 12;
const CHURN_EPISODES: usize = 4;
/// Ticks per rolling window on every observatory axis.
const WINDOW_TICKS: u64 = 1 << 14;
const MAX_WINDOWS: usize = 16;

/// Outcome counters for one campaign phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseOutcome {
    /// Phase label.
    pub phase: &'static str,
    /// Resolutions attempted.
    pub resolves: u64,
    /// Defined answers.
    pub defined: u64,
    /// Honest transport give-ups.
    pub unreachable: u64,
    /// ⊥ answers contradicting the oracle (must stay 0).
    pub false_bottoms: u64,
    /// Retransmissions this phase caused.
    pub retransmissions: u64,
    /// Failovers this phase caused.
    pub failovers: u64,
    /// Phase-local resolve-latency median, in ticks.
    pub latency_p50: u64,
    /// Phase-local resolve-latency p99, in ticks.
    pub latency_p99: u64,
}

/// The E20 results: the per-phase ledger plus the observatory's grade.
#[derive(Clone, Debug)]
pub struct E20Result {
    /// The thresholds the campaign was graded against.
    pub thresholds: SloThresholds,
    /// One row per campaign phase, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// The observatory's graded summary of the whole campaign.
    pub report: SloReport,
    /// Breach counts by objective, in first-observation order.
    pub breaches_by_objective: Vec<(&'static str, u64)>,
}

fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The campaign's retry schedule (the one `tests/chaos.rs` runs under).
fn campaign_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout_ticks: 256,
        max_attempts: 64,
        backoff_cap: 6,
    }
}

/// Runs E20.
pub fn run(seed: u64) -> E20Result {
    let (mut w, svc, machines, client, start, names, _standby, zones) =
        crate::scenarios::chaos_zones(HOPS, LEAVES, seed, 1);
    let deep_zone = *zones.last().expect("hops >= 1");
    let deepest = *machines.last().expect("hops >= 1");
    let thresholds = SloThresholds::default();
    let mut obs = StalenessObservatory::new(thresholds, WINDOW_TICKS, MAX_WINDOWS);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(campaign_policy()));

    let mut phases = Vec::new();
    // Every scenario name is bound throughout the campaign (churn rebinds
    // existing leaves to fresh objects, never unbinds), so the oracle says
    // `Some(true)` for each resolve.
    let run_phase = |phase: &'static str,
                     w: &mut naming_sim::world::World,
                     engine: &mut ProtocolEngine,
                     obs: &mut StalenessObservatory,
                     rounds: usize| {
        let before = engine.retry_counters();
        let mut out = PhaseOutcome {
            phase,
            resolves: 0,
            defined: 0,
            unreachable: 0,
            false_bottoms: 0,
            retransmissions: 0,
            failovers: 0,
            latency_p50: 0,
            latency_p99: 0,
        };
        let mut latencies = Vec::with_capacity(rounds * names.len());
        for _ in 0..rounds {
            for n in &names {
                let s = engine.resolve(w, client, start, n, Mode::Iterative);
                obs.note_resolve(w.now().ticks(), &s, Some(true));
                out.resolves += 1;
                if s.entity.is_defined() {
                    out.defined += 1;
                } else if s.unreachable {
                    out.unreachable += 1;
                } else {
                    out.false_bottoms += 1;
                }
                latencies.push(s.latency.ticks());
            }
        }
        let after = engine.retry_counters();
        out.retransmissions = after.retransmissions - before.retransmissions;
        out.failovers = after.failovers - before.failovers;
        latencies.sort_unstable();
        out.latency_p50 = sorted_quantile(&latencies, 0.50);
        out.latency_p99 = sorted_quantile(&latencies, 0.99);
        out
    };

    // Phase 1 — lossless baseline: every name resolves on the primary
    // route; the observatory sees only clean latency.
    phases.push(run_phase("lossless", &mut w, &mut engine, &mut obs, 1));

    // Phase 2 — heavy loss, retry layer on: latency burns, answers hold.
    w.set_message_drop_rate(0.3);
    phases.push(run_phase(
        "drop 0.3 + retries",
        &mut w,
        &mut engine,
        &mut obs,
        1,
    ));
    w.set_message_drop_rate(0.0);

    // Phase 3 — binding churn with zone publication. Each episode rebinds
    // one deep leaf (primary view changes immediately; the standby's
    // replica is stale until the `ZoneUpdate` frame lands). The *last*
    // episode deliberately delays publication behind a full resolve pass,
    // stretching the staleness window past the objective — the breach
    // this experiment exists to catch.
    {
        let mut churn = PhaseOutcome {
            phase: "churn + publish",
            resolves: 0,
            defined: 0,
            unreachable: 0,
            false_bottoms: 0,
            retransmissions: 0,
            failovers: 0,
            latency_p50: 0,
            latency_p99: 0,
        };
        let before = engine.retry_counters();
        let mut latencies = Vec::new();
        for episode in 0..CHURN_EPISODES {
            let stale_from = w.now().ticks();
            store::create_file(w.state_mut(), deep_zone, "f0", vec![episode as u8 + 1]);
            let delayed = episode == CHURN_EPISODES - 1;
            if delayed {
                // Operator asleep: a full read pass happens against the
                // divergent replica group before anyone publishes.
                for n in &names {
                    let s = engine.resolve(&mut w, client, start, n, Mode::Iterative);
                    obs.note_resolve(w.now().ticks(), &s, Some(true));
                    churn.resolves += 1;
                    if s.entity.is_defined() {
                        churn.defined += 1;
                    } else if s.unreachable {
                        churn.unreachable += 1;
                    } else {
                        churn.false_bottoms += 1;
                    }
                    latencies.push(s.latency.ticks());
                }
            }
            let publish_from = w.now().ticks();
            engine.publish_zone(&mut w, deep_zone);
            engine.pump_idle(&mut w);
            let converged = w.now().ticks();
            obs.note_publish(converged, converged - publish_from);
            obs.note_staleness_window(stale_from, converged);
        }
        let after = engine.retry_counters();
        churn.retransmissions = after.retransmissions - before.retransmissions;
        churn.failovers = after.failovers - before.failovers;
        latencies.sort_unstable();
        churn.latency_p50 = sorted_quantile(&latencies, 0.50);
        churn.latency_p99 = sorted_quantile(&latencies, 0.99);
        phases.push(churn);
    }

    // Phase 4 — primary crash: the deepest zone's server dies; the retry
    // layer fails resolutions over to the standby replica. No ⊥, no
    // unreachable — just failovers and a latency spike.
    let dead = engine.service().server_on(deepest);
    w.kill(dead);
    phases.push(run_phase("primary crash", &mut w, &mut engine, &mut obs, 1));
    engine.restart_server(&mut w, deepest);
    engine.pump_idle(&mut w);

    // Phase 5 — unprotected loss: retries off under drops. Lost exchanges
    // surface as *unreachable* (the honest verdict), never as ⊥; the rate
    // blows the 1% objective, which is exactly what `ok()` must report.
    engine.set_retry_policy(None);
    w.set_message_drop_rate(0.4);
    phases.push(run_phase(
        "drop 0.4, no retries",
        &mut w,
        &mut engine,
        &mut obs,
        1,
    ));
    w.set_message_drop_rate(0.0);

    let mut breaches_by_objective: Vec<(&'static str, u64)> = Vec::new();
    for b in obs.breaches() {
        match breaches_by_objective
            .iter_mut()
            .find(|(o, _)| *o == b.objective)
        {
            Some((_, n)) => *n += 1,
            None => breaches_by_objective.push((b.objective, 1)),
        }
    }

    E20Result {
        thresholds,
        phases,
        report: obs.report(),
        breaches_by_objective,
    }
}

/// Renders the E20 tables: the phase ledger and the SLO grade.
pub fn tables(r: &E20Result) -> Vec<Table> {
    let mut phases = Table::new(
        "E20 (extension): chaos campaign under the staleness observatory",
        &[
            "phase",
            "resolves",
            "defined",
            "unreachable",
            "false ⊥",
            "retrans",
            "failovers",
            "lat p50",
            "lat p99",
        ],
    );
    for p in &r.phases {
        phases.row(vec![
            p.phase.to_string(),
            p.resolves.to_string(),
            p.defined.to_string(),
            p.unreachable.to_string(),
            p.false_bottoms.to_string(),
            p.retransmissions.to_string(),
            p.failovers.to_string(),
            p.latency_p50.to_string(),
            p.latency_p99.to_string(),
        ]);
    }
    phases.note(
        "false ⊥ stays 0 through loss, churn, and crash — transport failure \
         never leaks into naming; latency and failovers absorb the chaos",
    );

    let mut slo = Table::new(
        "E20: SLO grade (VirtualTime axis; identical with telemetry on or off)",
        &["objective", "observed", "threshold", "held"],
    );
    let rep = &r.report;
    slo.row(vec![
        "staleness window (max ticks)".into(),
        rep.staleness_max_ticks.to_string(),
        r.thresholds.staleness_ticks.to_string(),
        yes_no(rep.staleness_max_ticks <= r.thresholds.staleness_ticks),
    ]);
    slo.row(vec![
        "false-⊥ rate".into(),
        pct(rep.false_bottom_rate),
        pct(r.thresholds.false_bottom_rate),
        yes_no(rep.false_bottom_rate <= r.thresholds.false_bottom_rate),
    ]);
    slo.row(vec![
        "unreachable rate".into(),
        pct(rep.unreachable_rate),
        pct(r.thresholds.unreachable_rate),
        yes_no(rep.unreachable_rate <= r.thresholds.unreachable_rate),
    ]);
    slo.row(vec![
        "publish latency p99 (ticks)".into(),
        rep.publish_latency.quantile(0.99).to_string(),
        r.thresholds.publish_p99_ticks.to_string(),
        yes_no(rep.publish_burn <= 1.0),
    ]);
    slo.row(vec![
        "breaches (total)".into(),
        rep.breaches.to_string(),
        "0".into(),
        yes_no(rep.breaches == 0),
    ]);
    slo.note(format!(
        "campaign verdict: {} — {} resolves, {} publishes, {} staleness windows; \
         the delayed publication episode breaches the staleness objective by design, \
         and the unprotected phase blows the unreachable budget honestly",
        if rep.ok() { "ok" } else { "degraded" },
        rep.resolves,
        rep.publishes,
        rep.staleness_windows,
    ));
    vec![phases, slo]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_bottom_objective_holds_through_all_chaos() {
        let r = run(20);
        assert_eq!(r.report.false_bottoms, 0);
        for p in &r.phases {
            assert_eq!(p.false_bottoms, 0, "{}", p.phase);
        }
        assert!((r.report.false_bottom_rate - 0.0).abs() < 1e-12);
    }

    #[test]
    fn protected_phases_resolve_everything() {
        let r = run(20);
        for p in &r.phases {
            if p.phase != "drop 0.4, no retries" {
                assert_eq!(p.defined, p.resolves, "{}", p.phase);
                assert_eq!(p.unreachable, 0, "{}", p.phase);
            }
        }
    }

    #[test]
    fn crash_phase_fails_over_and_unprotected_phase_gives_up_honestly() {
        let r = run(20);
        let crash = r
            .phases
            .iter()
            .find(|p| p.phase == "primary crash")
            .unwrap();
        assert!(crash.failovers > 0, "{crash:?}");
        let wild = r
            .phases
            .iter()
            .find(|p| p.phase == "drop 0.4, no retries")
            .unwrap();
        assert!(wild.unreachable > 0, "{wild:?}");
        assert!(r.report.unreachable_rate > r.thresholds.unreachable_rate);
    }

    #[test]
    fn delayed_publication_breaches_staleness() {
        let r = run(20);
        assert_eq!(r.report.staleness_windows, CHURN_EPISODES as u64);
        assert_eq!(r.report.publishes, CHURN_EPISODES as u64);
        assert!(
            r.breaches_by_objective
                .iter()
                .any(|&(o, _)| o == "staleness"),
            "{:?}",
            r.breaches_by_objective
        );
        assert!(!r.report.ok());
        // Prompt publication stays within the objective: at least one
        // window (the undelayed episodes) is small.
        assert!(r.report.staleness.quantile(0.25) <= r.thresholds.staleness_ticks);
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let a = run(20);
        let b = run(20);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.report.breaches, b.report.breaches);
        assert_eq!(a.report.resolve_latency, b.report.resolve_latency);
        assert_eq!(a.report.publish_latency, b.report.publish_latency);
    }

    /// The campaign at the suite's seed, as the retired
    /// `BENCH_observatory.json` snapshot held it: the thresholds, the phase
    /// ledger, and every field of the SLO grade that virtual time decides.
    #[test]
    fn the_suite_seed_grades_as_pinned() {
        let r = run(19930601);
        let t = r.thresholds;
        assert_eq!((t.staleness_ticks, t.publish_p99_ticks), (2_000, 1_000));
        assert_eq!((t.false_bottom_rate, t.unreachable_rate), (0.0, 0.01));
        let ledger: Vec<_> = (r.phases.iter())
            .map(|p| {
                let counts = (p.resolves, p.defined, p.unreachable, p.false_bottoms);
                let cost = (p.retransmissions, p.failovers);
                (p.phase, counts, cost, (p.latency_p50, p.latency_p99))
            })
            .collect();
        assert_eq!(
            ledger,
            [
                ("lossless", (12, 12, 0, 0), (0, 0), (800, 800)),
                ("drop 0.3 + retries", (12, 12, 0, 0), (28, 15), (1592, 5126)),
                ("churn + publish", (12, 12, 0, 0), (0, 0), (800, 800)),
                ("primary crash", (12, 12, 0, 0), (12, 12), (1095, 1117)),
                ("drop 0.4, no retries", (12, 0, 12, 0), (0, 0), (0, 500)),
            ]
        );
        let rep = &r.report;
        assert_eq!(
            (rep.resolves, rep.false_bottoms, rep.unreachables),
            (60, 0, 12)
        );
        assert_eq!(rep.false_bottom_rate, 0.0);
        assert_eq!(format!("{:.4}", rep.unreachable_rate), "0.2000");
        assert_eq!(rep.publishes, 4);
        let publish = &rep.publish_latency;
        assert_eq!((publish.quantile(0.50), publish.quantile(0.99)), (15, 15));
        assert_eq!((rep.staleness_windows, rep.staleness_max_ticks), (4, 9_610));
        assert_eq!(format!("{:.4}", rep.publish_burn), "0.0150");
        assert_eq!(rep.breaches, 1);
        assert_eq!(r.breaches_by_objective, [("staleness", 1)]);
        assert!(!rep.ok());
    }

    #[test]
    fn tables_render() {
        let ts = tables(&run(20));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].row_count(), 5);
        assert_eq!(ts[1].row_count(), 5);
    }
}
