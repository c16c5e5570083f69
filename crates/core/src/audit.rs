//! The coherence audit engine: measures the *degree of coherence* of a
//! naming scheme (§5) over many names and participants.
//!
//! "The degree of coherence can be determined by comparing the contexts
//! R(a) associated with different activities a." The auditor does exactly
//! that, by resolution: for each name it resolves under the configured rule
//! for every participant and classifies the outcome, producing
//! [`CoherenceStats`] plus per-name verdicts.
//!
//! Two modes:
//!
//! * [`AuditMode::Exhaustive`] checks every (name × participant-set) pair;
//! * [`AuditMode::Sampled`] checks a deterministic seeded sample — for large
//!   namespaces where exhaustive checking is too slow. The ablation bench
//!   `audit` compares the two.
//!
//! Audits over many names are embarrassingly parallel; `run` shards names
//! across scoped threads ([`crate::sweep::map_chunks`]) when `threads > 1`.
//! Reports are byte-for-byte identical either way: workers produce chunks
//! that are stitched back in name order. A sharded audit run while the
//! calling thread is tracing installs a private recorder on every worker
//! (inheriting the parent's clock and track) and absorbs the captured
//! traces in chunk order after the join — parallel audits are fully
//! traced, and the merged trace is deterministic for a fixed thread count.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::closure::{ContextRegistry, MetaContext, ResolutionRule};
use crate::coherence::{check_coherence, CoherenceStats, CoherenceVerdict};
use crate::name::CompoundName;
use crate::replica::ReplicaRegistry;
use crate::state::SystemState;
use crate::sweep::map_chunks;

/// How much of the (name × participant) space the audit covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditMode {
    /// Check every name in the spec.
    Exhaustive,
    /// Check a deterministic random sample of `samples` names
    /// (without replacement; the whole set if fewer).
    Sampled {
        /// Number of names to sample.
        samples: usize,
        /// RNG seed, for reproducibility.
        seed: u64,
    },
}

/// Specification of an audit run.
#[derive(Clone, Debug)]
pub struct AuditSpec {
    /// The names whose coherence is in question.
    pub names: Vec<CompoundName>,
    /// The circumstances under which each name is resolved — one entry per
    /// participant. The same name is resolved once per participant.
    pub participants: Vec<MetaContext>,
    /// Coverage mode.
    pub mode: AuditMode,
    /// Worker threads (1 = run on the calling thread).
    pub threads: usize,
}

impl AuditSpec {
    /// Creates an exhaustive single-threaded audit spec.
    pub fn exhaustive(names: Vec<CompoundName>, participants: Vec<MetaContext>) -> AuditSpec {
        AuditSpec {
            names,
            participants,
            mode: AuditMode::Exhaustive,
            threads: 1,
        }
    }

    /// Switches to sampled mode.
    pub fn sampled(mut self, samples: usize, seed: u64) -> AuditSpec {
        self.mode = AuditMode::Sampled { samples, seed };
        self
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> AuditSpec {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Picks a thread count automatically from the workload size.
    ///
    /// Benchmarking (bench B2) shows per-name work is so small that thread
    /// spawn and memory traffic dominate below roughly 10⁵ resolutions
    /// (names × participants); below that threshold this stays serial, and
    /// above it it uses up to `available_parallelism`, one thread per
    /// ~10⁵ resolutions.
    pub fn with_auto_threads(mut self) -> AuditSpec {
        const RESOLUTIONS_PER_THREAD: usize = 100_000;
        let names = match self.mode {
            AuditMode::Exhaustive => self.names.len(),
            AuditMode::Sampled { samples, .. } => samples.min(self.names.len()),
        };
        let work = names.saturating_mul(self.participants.len());
        self.threads = (work / RESOLUTIONS_PER_THREAD).clamp(1, crate::sweep::available_threads());
        self
    }
}

/// One audited name and its verdict.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NameVerdict {
    /// The audited name.
    pub name: CompoundName,
    /// The coherence verdict across the participant set.
    pub verdict: CoherenceVerdict,
}

/// The result of an audit run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AuditReport {
    /// Aggregate statistics.
    pub stats: CoherenceStats,
    /// Per-name verdicts, in audited order (deterministic).
    pub verdicts: Vec<NameVerdict>,
}

impl AuditReport {
    /// The names found incoherent, in audited order.
    pub fn incoherent_names(&self) -> impl Iterator<Item = &CompoundName> {
        self.verdicts
            .iter()
            .filter(|v| v.verdict.is_incoherent())
            .map(|v| &v.name)
    }

    /// The names found coherent, in audited order.
    pub fn coherent_names(&self) -> impl Iterator<Item = &CompoundName> {
        self.verdicts
            .iter()
            .filter(|v| v.verdict.is_coherent())
            .map(|v| &v.name)
    }
}

/// Runs the audit described by `spec` against `state`.
///
/// Deterministic: the same inputs (including sampling seed) produce the same
/// report, regardless of thread count.
pub fn run(
    state: &SystemState,
    registry: &ContextRegistry,
    rule: &(dyn ResolutionRule + Sync),
    spec: &AuditSpec,
    replicas: Option<&ReplicaRegistry>,
) -> AuditReport {
    let names: Vec<CompoundName> = match spec.mode {
        AuditMode::Exhaustive => spec.names.clone(),
        AuditMode::Sampled { samples, seed } => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pool = spec.names.clone();
            pool.shuffle(&mut rng);
            pool.truncate(samples);
            pool
        }
    };

    let audit_one = |name: &CompoundName| -> NameVerdict {
        let verdict = check_coherence(state, registry, rule, &spec.participants, name, replicas);
        NameVerdict {
            name: name.clone(),
            verdict,
        }
    };

    let verdicts: Vec<NameVerdict> = if spec.threads <= 1 || names.len() < 2 {
        names.iter().map(audit_one).collect()
    } else {
        run_sharded(&names, spec.threads, &audit_one)
    };

    let mut stats = CoherenceStats::new();
    for v in &verdicts {
        stats.record_with_pairs(&v.verdict, spec.participants.len(), replicas);
    }
    AuditReport { stats, verdicts }
}

/// Shards `names` across scoped worker threads and stitches the verdict
/// chunks back in name order.
///
/// Under an active recorder every worker installs a private recorder
/// inheriting the calling thread's clock and track, and the captured
/// traces are absorbed in chunk order after the join — so the merged
/// trace stream does not depend on scheduling.
fn run_sharded(
    names: &[CompoundName],
    threads: usize,
    audit_one: &(dyn Fn(&CompoundName) -> NameVerdict + Sync),
) -> Vec<NameVerdict> {
    use naming_telemetry::recorder;

    let audit_chunk = |slice: &[CompoundName]| slice.iter().map(audit_one).collect::<Vec<_>>();
    if !recorder::is_active() {
        return map_chunks(names, threads, audit_chunk)
            .into_iter()
            .flatten()
            .collect();
    }
    let clock = recorder::clock();
    let track = recorder::track();
    let chunks = map_chunks(names, threads, |slice| {
        recorder::install();
        recorder::set_clock(clock);
        recorder::set_track(track);
        (audit_chunk(slice), recorder::take())
    });
    let mut verdicts = Vec::with_capacity(names.len());
    for (chunk_verdicts, data) in chunks {
        verdicts.extend(chunk_verdicts);
        if let Some(data) = data {
            recorder::absorb(data);
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::StandardRule;
    use crate::entity::ActivityId;
    use crate::name::Name;

    /// n activities; names "shared-*" bound identically everywhere, names
    /// "local-*" bound to per-activity files.
    fn build(n_act: usize, n_shared: usize, n_local: usize) -> (SystemState, ContextRegistry) {
        let mut sys = SystemState::new();
        let mut reg = ContextRegistry::new();
        let shared_objs: Vec<_> = (0..n_shared)
            .map(|i| sys.add_data_object(format!("s{i}"), vec![]))
            .collect();
        for a in 0..n_act {
            let ctx = sys.add_context_object(format!("ctx{a}"));
            for (i, &so) in shared_objs.iter().enumerate() {
                sys.bind(ctx, Name::new(&format!("shared-{i}")), so)
                    .unwrap();
            }
            for j in 0..n_local {
                let f = sys.add_data_object(format!("l{a}-{j}"), vec![]);
                sys.bind(ctx, Name::new(&format!("local-{j}")), f).unwrap();
            }
            let act = sys.add_activity(format!("a{a}"));
            reg.set_activity_context(act, ctx);
        }
        (sys, reg)
    }

    fn names(n_shared: usize, n_local: usize) -> Vec<CompoundName> {
        let mut v = Vec::new();
        for i in 0..n_shared {
            v.push(CompoundName::atom(Name::new(&format!("shared-{i}"))));
        }
        for j in 0..n_local {
            v.push(CompoundName::atom(Name::new(&format!("local-{j}"))));
        }
        v
    }

    fn metas(n: usize) -> Vec<MetaContext> {
        (0..n)
            .map(|i| MetaContext::internal(ActivityId::from_index(i as u32)))
            .collect()
    }

    #[test]
    fn exhaustive_audit_counts() {
        let (sys, reg) = build(4, 5, 3);
        let spec = AuditSpec::exhaustive(names(5, 3), metas(4));
        let report = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        assert_eq!(report.stats.total, 8);
        assert_eq!(report.stats.coherent, 5);
        assert_eq!(report.stats.incoherent, 3);
        assert_eq!(report.incoherent_names().count(), 3);
        assert_eq!(report.coherent_names().count(), 5);
    }

    #[test]
    fn sampled_audit_is_deterministic_subset() {
        let (sys, reg) = build(3, 10, 10);
        let spec = AuditSpec::exhaustive(names(10, 10), metas(3)).sampled(7, 42);
        let r1 = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        let r2 = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.verdicts, r2.verdicts);
        assert_eq!(r1.stats.total, 7);
    }

    #[test]
    fn sample_larger_than_pool_takes_all() {
        let (sys, reg) = build(2, 2, 1);
        let spec = AuditSpec::exhaustive(names(2, 1), metas(2)).sampled(100, 1);
        let r = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        assert_eq!(r.stats.total, 3);
    }

    #[test]
    fn parallel_matches_serial() {
        let (sys, reg) = build(5, 20, 20);
        let serial = AuditSpec::exhaustive(names(20, 20), metas(5));
        let parallel = AuditSpec::exhaustive(names(20, 20), metas(5)).with_threads(4);
        let r1 = run(&sys, &reg, &StandardRule::OfResolver, &serial, None);
        let r2 = run(&sys, &reg, &StandardRule::OfResolver, &parallel, None);
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.verdicts, r2.verdicts);
    }

    #[test]
    fn parallel_audit_is_traced_and_deterministic() {
        use naming_telemetry::recorder;

        let run_traced = |threads: usize| {
            // Recorder state is thread-local: isolate on a fresh thread.
            std::thread::spawn(move || {
                let (sys, reg) = build(3, 8, 8);
                let spec = AuditSpec::exhaustive(names(8, 8), metas(3)).with_threads(threads);
                recorder::install();
                recorder::set_clock(5);
                recorder::set_track(2);
                let report = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
                let data = recorder::take().expect("recorder installed");
                (report, data)
            })
            .join()
            .expect("traced audit thread")
        };

        let (serial_report, serial_data) = run_traced(1);
        let (par_report, par_data) = run_traced(4);
        let (par_report2, par_data2) = run_traced(4);

        assert_eq!(serial_report.verdicts, par_report.verdicts);
        // Workers are traced now: one trace per (name × participant)
        // resolution either way.
        assert!(!serial_data.resolutions.is_empty());
        assert_eq!(serial_data.resolutions, par_data.resolutions);
        // Absorption in worker-index order makes the parallel trace
        // stream fully reproducible.
        assert_eq!(par_data.resolutions, par_data2.resolutions);
        assert_eq!(par_report.verdicts, par_report2.verdicts);
        // Workers inherit the parent's clock and track.
        assert!(par_data.resolutions.iter().all(|t| t.ts == 5));
        assert!(par_data.resolutions.iter().all(|t| t.track == 2));
        // Ids were renumbered into one gap-free stream.
        let ids: Vec<u64> = par_data.resolutions.iter().map(|t| t.id).collect();
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn pairwise_grading() {
        // 3 activities; 2 agree on "local-0"? No — all local names differ.
        // Shared names agree on all 3 pairs each.
        let (sys, reg) = build(3, 1, 1);
        let spec = AuditSpec::exhaustive(names(1, 1), metas(3));
        let r = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        assert_eq!(r.stats.pairs_total, 6);
        assert_eq!(r.stats.pairs_agreeing, 3);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        let _ = AuditSpec::exhaustive(vec![], vec![]).with_threads(0);
    }

    #[test]
    fn auto_threads_stays_serial_for_small_workloads() {
        let spec = AuditSpec::exhaustive(names(10, 10), metas(4)).with_auto_threads();
        assert_eq!(spec.threads, 1, "20 names x 4 participants is tiny");
        // Sampling caps the effective name count.
        let spec = AuditSpec::exhaustive(names(10, 10), metas(4))
            .sampled(5, 1)
            .with_auto_threads();
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn auto_threads_scales_up_for_huge_workloads() {
        // 4000 names x 100 participants = 400k resolutions.
        let many_names: Vec<CompoundName> = (0..4000)
            .map(|i| CompoundName::atom(Name::new(&format!("n{i}"))))
            .collect();
        let spec = AuditSpec::exhaustive(many_names, metas(100)).with_auto_threads();
        assert!(
            spec.threads >= 2
                || std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    == 1
        );
        let cap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(spec.threads <= cap);
    }

    #[test]
    fn empty_names_empty_report() {
        let (sys, reg) = build(2, 1, 1);
        let spec = AuditSpec::exhaustive(vec![], metas(2));
        let r = run(&sys, &reg, &StandardRule::OfResolver, &spec, None);
        assert_eq!(r.stats.total, 0);
        assert_eq!(r.stats.coherence_rate(), 0.0);
    }
}
