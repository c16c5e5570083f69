//! Coherence in naming (§4–§5): the paper's central property, made
//! checkable.
//!
//! "There are circumstances where it is desirable for the entity denoted by
//! a name to be the same in different parts of the system. We call this
//! property *coherence in naming*."
//!
//! A name `n` is **coherent** across a set of resolution circumstances
//! (activity + name source pairs) under a resolution rule `R` when
//! `R(m1)(n) = R(m2)(n) ≠ ⊥` for all pairs of circumstances. It is **weakly
//! coherent** when the denoted entities are replicas of the same replicated
//! object (§5). We additionally distinguish the *vacuous* case where the
//! name denotes `⊥` everywhere — such a name gives no common reference but
//! also causes no confusion.
//!
//! The paper's three sources of names (Fig. 1) are captured by giving each
//! participant a [`MetaContext`]; per-source experiments build participant
//! sets whose sources differ.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::closure::{resolve_with_rule, ContextRegistry, MetaContext, ResolutionRule};
use crate::entity::{ActivityId, Entity};
use crate::name::CompoundName;
use crate::replica::{ReplicaGroupId, ReplicaRegistry};
use crate::state::SystemState;

/// The outcome of checking one name across a set of participants.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoherenceVerdict {
    /// Every participant resolves the name to the same defined entity.
    Coherent(Entity),
    /// Participants resolve the name to (distinct) replicas of the same
    /// replicated object — sufficient when the object is replicated (§5).
    WeaklyCoherent(ReplicaGroupId),
    /// Participants disagree (or some resolve while others cannot).
    Incoherent {
        /// Each participant's resolution, in participant order.
        resolutions: Vec<(ActivityId, Entity)>,
    },
    /// The name denotes `⊥` for every participant.
    Vacuous,
}

impl CoherenceVerdict {
    /// True for [`CoherenceVerdict::Coherent`].
    pub fn is_coherent(&self) -> bool {
        matches!(self, CoherenceVerdict::Coherent(_))
    }

    /// True for [`CoherenceVerdict::Coherent`] or
    /// [`CoherenceVerdict::WeaklyCoherent`].
    pub fn is_weakly_coherent(&self) -> bool {
        matches!(
            self,
            CoherenceVerdict::Coherent(_) | CoherenceVerdict::WeaklyCoherent(_)
        )
    }

    /// True for [`CoherenceVerdict::Incoherent`].
    pub fn is_incoherent(&self) -> bool {
        matches!(self, CoherenceVerdict::Incoherent { .. })
    }

    /// Short label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            CoherenceVerdict::Coherent(_) => "coherent",
            CoherenceVerdict::WeaklyCoherent(_) => "weak",
            CoherenceVerdict::Incoherent { .. } => "incoherent",
            CoherenceVerdict::Vacuous => "vacuous",
        }
    }
}

impl fmt::Display for CoherenceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())
    }
}

/// Checks coherence of `name` across `participants` under `rule`.
///
/// If `replicas` is provided, disagreeing resolutions that land in one
/// replica group are classified as weakly coherent.
///
/// # Examples
///
/// ```
/// use naming_core::prelude::*;
/// use naming_core::coherence::{check_coherence, CoherenceVerdict};
///
/// let mut sys = SystemState::new();
/// let shared = sys.add_context_object("shared");
/// let f = sys.add_data_object("f", vec![]);
/// sys.bind(shared, Name::new("f"), f).unwrap();
/// let a1 = sys.add_activity("a1");
/// let a2 = sys.add_activity("a2");
/// let mut reg = ContextRegistry::new();
/// reg.set_activity_context(a1, shared);
/// reg.set_activity_context(a2, shared);
///
/// let verdict = check_coherence(
///     &sys,
///     &reg,
///     &StandardRule::OfResolver,
///     &[MetaContext::internal(a1), MetaContext::internal(a2)],
///     &CompoundName::atom(Name::new("f")),
///     None,
/// );
/// assert!(verdict.is_coherent());
/// ```
pub fn check_coherence(
    state: &SystemState,
    registry: &ContextRegistry,
    rule: &(dyn ResolutionRule + Sync),
    participants: &[MetaContext],
    name: &CompoundName,
    replicas: Option<&ReplicaRegistry>,
) -> CoherenceVerdict {
    let resolutions = sweep_participants(state, registry, rule, participants, name);
    let verdict = classify(&resolutions, replicas);
    naming_telemetry::counter!("coherence.checks").bump();
    match &verdict {
        CoherenceVerdict::Incoherent { resolutions } => {
            naming_telemetry::counter!("coherence.incoherent").bump();
            if naming_telemetry::recorder::is_active() {
                let distinct: std::collections::BTreeSet<String> =
                    resolutions.iter().map(|(_, e)| e.to_string()).collect();
                naming_telemetry::recorder::instant(
                    "coherence",
                    format!("incoherent {name}"),
                    vec![
                        ("rule".to_string(), rule.rule_name().to_string()),
                        ("participants".to_string(), resolutions.len().to_string()),
                        (
                            "entities".to_string(),
                            distinct.into_iter().collect::<Vec<_>>().join(", "),
                        ),
                    ],
                );
            }
        }
        CoherenceVerdict::WeaklyCoherent(group) => {
            naming_telemetry::counter!("coherence.weak").bump();
            if naming_telemetry::recorder::is_active() {
                naming_telemetry::recorder::instant(
                    "coherence",
                    format!("weakly-coherent {name}"),
                    vec![
                        ("rule".to_string(), rule.rule_name().to_string()),
                        ("replica_group".to_string(), format!("{group:?}")),
                    ],
                );
            }
        }
        CoherenceVerdict::Coherent(_) | CoherenceVerdict::Vacuous => {}
    }
    verdict
}

/// Participant count above which the sweep in [`check_coherence`] shards
/// across threads. One resolution is far too small a work unit to pay a
/// thread for; below this bound a serial sweep wins outright.
pub const PARALLEL_SWEEP_THRESHOLD: usize = 512;

/// Resolves `name` once per participant, in participant order.
///
/// Sweeps over at least [`PARALLEL_SWEEP_THRESHOLD`] participants are
/// sharded across scoped threads by [`crate::sweep::map_chunks`], which
/// returns chunks in participant order, so the result — and every verdict
/// derived from it — is identical to the serial sweep.
fn sweep_participants(
    state: &SystemState,
    registry: &ContextRegistry,
    rule: &(dyn ResolutionRule + Sync),
    participants: &[MetaContext],
    name: &CompoundName,
) -> Vec<(ActivityId, Entity)> {
    let resolve_one = |m: &MetaContext| {
        (
            m.resolver,
            resolve_with_rule(state, registry, rule, m, name),
        )
    };
    if participants.len() < PARALLEL_SWEEP_THRESHOLD {
        return participants.iter().map(resolve_one).collect();
    }
    crate::sweep::map_chunks(participants, crate::sweep::available_threads(), |slice| {
        slice.iter().map(resolve_one).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Classifies a set of per-participant resolutions into a verdict.
///
/// Exposed separately so callers that already hold resolutions (e.g. the
/// audit engine, or schemes with bespoke resolution paths) can reuse the
/// classification logic.
pub fn classify(
    resolutions: &[(ActivityId, Entity)],
    replicas: Option<&ReplicaRegistry>,
) -> CoherenceVerdict {
    if resolutions.is_empty() {
        return CoherenceVerdict::Vacuous;
    }
    if resolutions.iter().all(|(_, e)| !e.is_defined()) {
        return CoherenceVerdict::Vacuous;
    }
    let first = resolutions[0].1;
    if resolutions.iter().all(|(_, e)| *e == first) && first.is_defined() {
        return CoherenceVerdict::Coherent(first);
    }
    if let Some(reps) = replicas {
        let all_equiv = resolutions
            .iter()
            .all(|(_, e)| reps.entities_equivalent(first, *e));
        if all_equiv && first.is_defined() {
            if let Entity::Object(o) = first {
                return CoherenceVerdict::WeaklyCoherent(reps.group_of(o));
            }
        }
    }
    CoherenceVerdict::Incoherent {
        resolutions: resolutions.to_vec(),
    }
}

/// Degree-of-coherence statistics over a set of names.
///
/// The paper speaks of "the degree of coherence in a naming scheme"; we
/// quantify it as the fraction of checked names that are (weakly) coherent
/// across the participant set. `pairwise` additionally counts coherence over
/// unordered participant pairs, which grades *partial* coherence — a name
/// coherent among 9 of 10 activities scores 36/45 pairs rather than 0.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoherenceStats {
    /// Names checked.
    pub total: usize,
    /// Names coherent across all participants.
    pub coherent: usize,
    /// Names weakly coherent (replica-equivalent) but not coherent.
    pub weakly_coherent: usize,
    /// Names with disagreeing resolutions.
    pub incoherent: usize,
    /// Names undefined for every participant.
    pub vacuous: usize,
    /// Unordered participant pairs agreeing, across all names.
    pub pairs_agreeing: usize,
    /// Total unordered participant pairs considered, across all names.
    pub pairs_total: usize,
}

impl CoherenceStats {
    /// Creates empty statistics.
    pub fn new() -> CoherenceStats {
        CoherenceStats::default()
    }

    /// Folds one verdict (plus its resolutions for pairwise counting) into
    /// the statistics.
    pub fn record(&mut self, verdict: &CoherenceVerdict) {
        self.total += 1;
        match verdict {
            CoherenceVerdict::Coherent(_) => self.coherent += 1,
            CoherenceVerdict::WeaklyCoherent(_) => self.weakly_coherent += 1,
            CoherenceVerdict::Incoherent { resolutions } => {
                self.incoherent += 1;
                self.record_pairs_from(resolutions, None);
            }
            CoherenceVerdict::Vacuous => self.vacuous += 1,
        }
        // Coherent / weak verdicts imply all pairs agree; count them too so
        // pairwise rates are comparable across verdict kinds. We cannot know
        // the participant count from the verdict alone for those cases, so
        // callers wanting exact pairwise numbers use `record_with_pairs`.
    }

    /// Folds one verdict with explicit pairwise accounting over
    /// `participant_count` participants.
    pub fn record_with_pairs(
        &mut self,
        verdict: &CoherenceVerdict,
        participant_count: usize,
        replicas: Option<&ReplicaRegistry>,
    ) {
        self.total += 1;
        let pairs = participant_count.saturating_mul(participant_count.saturating_sub(1)) / 2;
        match verdict {
            CoherenceVerdict::Coherent(_) => {
                self.coherent += 1;
                self.pairs_agreeing += pairs;
                self.pairs_total += pairs;
            }
            CoherenceVerdict::WeaklyCoherent(_) => {
                self.weakly_coherent += 1;
                self.pairs_agreeing += pairs;
                self.pairs_total += pairs;
            }
            CoherenceVerdict::Incoherent { resolutions } => {
                self.incoherent += 1;
                self.record_pairs_from(resolutions, replicas);
            }
            CoherenceVerdict::Vacuous => {
                self.vacuous += 1;
                // Vacuous names give no pairs: there is nothing to agree on.
            }
        }
    }

    fn record_pairs_from(
        &mut self,
        resolutions: &[(ActivityId, Entity)],
        replicas: Option<&ReplicaRegistry>,
    ) {
        for i in 0..resolutions.len() {
            for j in (i + 1)..resolutions.len() {
                let (a, b) = (resolutions[i].1, resolutions[j].1);
                self.pairs_total += 1;
                let agree = match replicas {
                    Some(r) => r.entities_equivalent(a, b) && a.is_defined(),
                    None => a == b && a.is_defined(),
                };
                if agree {
                    self.pairs_agreeing += 1;
                }
            }
        }
    }

    /// Fraction of names strictly coherent, in `[0, 1]`; 0 when no names.
    pub fn coherence_rate(&self) -> f64 {
        rate(self.coherent, self.total)
    }

    /// Fraction of names at least weakly coherent.
    pub fn weak_coherence_rate(&self) -> f64 {
        rate(self.coherent + self.weakly_coherent, self.total)
    }

    /// Fraction of names incoherent.
    pub fn incoherence_rate(&self) -> f64 {
        rate(self.incoherent, self.total)
    }

    /// Fraction of participant pairs agreeing.
    pub fn pairwise_rate(&self) -> f64 {
        rate(self.pairs_agreeing, self.pairs_total)
    }

    /// Merges another statistics value into this one.
    pub fn merge(&mut self, other: &CoherenceStats) {
        self.total += other.total;
        self.coherent += other.coherent;
        self.weakly_coherent += other.weakly_coherent;
        self.incoherent += other.incoherent;
        self.vacuous += other.vacuous;
        self.pairs_agreeing += other.pairs_agreeing;
        self.pairs_total += other.pairs_total;
    }
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for CoherenceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} coherent ({:.1}%), {} weak, {} incoherent, {} vacuous",
            self.coherent,
            self.total,
            100.0 * self.coherence_rate(),
            self.weakly_coherent,
            self.incoherent,
            self.vacuous
        )
    }
}

/// A *global name* (§4): one that denotes the same entity in the context of
/// every activity.
///
/// "Only a global name — a name that denotes the same entity in the context
/// of each activity — can be used as a common reference to a shared entity"
/// when the rule is `R(activity)`.
///
/// Checks the name across every activity registered in `registry` under
/// `R(activity)` with an internal source.
pub fn is_global_name(
    state: &SystemState,
    registry: &ContextRegistry,
    name: &CompoundName,
) -> bool {
    let metas: Vec<MetaContext> = registry
        .activity_contexts()
        .map(|(a, _)| MetaContext::internal(a))
        .collect();
    if metas.is_empty() {
        return false;
    }
    check_coherence(
        state,
        registry,
        &crate::closure::StandardRule::OfResolver,
        &metas,
        name,
        None,
    )
    .is_coherent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::StandardRule;
    use crate::entity::ObjectId;
    use crate::name::Name;

    struct Fix {
        sys: SystemState,
        reg: ContextRegistry,
        a1: ActivityId,
        a2: ActivityId,
        a3: ActivityId,
        f_shared: ObjectId,
        f1: ObjectId,
        f2: ObjectId,
    }

    /// a1, a2 share a binding for "shared"; "local" differs between them;
    /// a3 has an empty context.
    fn fix() -> Fix {
        let mut sys = SystemState::new();
        let c1 = sys.add_context_object("c1");
        let c2 = sys.add_context_object("c2");
        let c3 = sys.add_context_object("c3");
        let f_shared = sys.add_data_object("fs", vec![]);
        let f1 = sys.add_data_object("f1", vec![]);
        let f2 = sys.add_data_object("f2", vec![]);
        let shared = Name::new("shared");
        let local = Name::new("local");
        sys.bind(c1, shared, f_shared).unwrap();
        sys.bind(c2, shared, f_shared).unwrap();
        sys.bind(c3, shared, f_shared).unwrap();
        sys.bind(c1, local, f1).unwrap();
        sys.bind(c2, local, f2).unwrap();
        let a1 = sys.add_activity("a1");
        let a2 = sys.add_activity("a2");
        let a3 = sys.add_activity("a3");
        let mut reg = ContextRegistry::new();
        reg.set_activity_context(a1, c1);
        reg.set_activity_context(a2, c2);
        reg.set_activity_context(a3, c3);
        Fix {
            sys,
            reg,
            a1,
            a2,
            a3,
            f_shared,
            f1,
            f2,
        }
    }

    fn internal_metas(f: &Fix) -> Vec<MetaContext> {
        vec![
            MetaContext::internal(f.a1),
            MetaContext::internal(f.a2),
            MetaContext::internal(f.a3),
        ]
    }

    #[test]
    fn coherent_name() {
        let f = fix();
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &internal_metas(&f),
            &CompoundName::atom(Name::new("shared")),
            None,
        );
        assert_eq!(v, CoherenceVerdict::Coherent(Entity::Object(f.f_shared)));
        assert!(v.is_coherent() && v.is_weakly_coherent());
    }

    #[test]
    fn incoherent_name() {
        let f = fix();
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &internal_metas(&f),
            &CompoundName::atom(Name::new("local")),
            None,
        );
        assert!(v.is_incoherent());
        if let CoherenceVerdict::Incoherent { resolutions } = &v {
            assert_eq!(resolutions.len(), 3);
            assert_eq!(resolutions[0].1, Entity::Object(f.f1));
            assert_eq!(resolutions[1].1, Entity::Object(f.f2));
            assert_eq!(resolutions[2].1, Entity::Undefined);
        }
    }

    #[test]
    fn defined_vs_undefined_is_incoherent() {
        let f = fix();
        // a1 resolves "local", a3 cannot: that is incoherence, not vacuity.
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &[MetaContext::internal(f.a1), MetaContext::internal(f.a3)],
            &CompoundName::atom(Name::new("local")),
            None,
        );
        assert!(v.is_incoherent());
    }

    #[test]
    fn vacuous_name() {
        let f = fix();
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &internal_metas(&f),
            &CompoundName::atom(Name::new("nowhere")),
            None,
        );
        assert_eq!(v, CoherenceVerdict::Vacuous);
        assert!(!v.is_coherent() && !v.is_incoherent());
    }

    #[test]
    fn weak_coherence_with_replicas() {
        let mut f = fix();
        // Rebind "local" so a1 and a2 see different replicas of one binary.
        let mut reps = ReplicaRegistry::new();
        reps.declare_replicas(f.f1, f.f2);
        // a3 must also see a replica for weak coherence; bind it.
        let c3 = f.reg.activity_context(f.a3).unwrap();
        f.sys.bind(c3, Name::new("local"), f.f1).unwrap();
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &internal_metas(&f),
            &CompoundName::atom(Name::new("local")),
            Some(&reps),
        );
        assert!(matches!(v, CoherenceVerdict::WeaklyCoherent(_)));
        assert!(v.is_weakly_coherent() && !v.is_coherent());
    }

    #[test]
    fn replicas_do_not_mask_real_disagreement() {
        let f = fix();
        let mut reps = ReplicaRegistry::new();
        reps.declare_replicas(f.f1, f.f_shared); // unrelated group
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &internal_metas(&f),
            &CompoundName::atom(Name::new("local")),
            Some(&reps),
        );
        assert!(v.is_incoherent());
    }

    #[test]
    fn empty_participants_is_vacuous() {
        let f = fix();
        let v = check_coherence(
            &f.sys,
            &f.reg,
            &StandardRule::OfResolver,
            &[],
            &CompoundName::atom(Name::new("shared")),
            None,
        );
        assert_eq!(v, CoherenceVerdict::Vacuous);
    }

    #[test]
    fn stats_accumulate() {
        let f = fix();
        let mut stats = CoherenceStats::new();
        for name in ["shared", "local", "nowhere"] {
            let v = check_coherence(
                &f.sys,
                &f.reg,
                &StandardRule::OfResolver,
                &internal_metas(&f),
                &CompoundName::atom(Name::new(name)),
                None,
            );
            stats.record_with_pairs(&v, 3, None);
        }
        assert_eq!(stats.total, 3);
        assert_eq!(stats.coherent, 1);
        assert_eq!(stats.incoherent, 1);
        assert_eq!(stats.vacuous, 1);
        assert!((stats.coherence_rate() - 1.0 / 3.0).abs() < 1e-9);
        // Pairs: "shared" contributes 3 agreeing; "local" contributes 0 of 3
        // (f1 vs f2 disagree, f1 vs ⊥, f2 vs ⊥); vacuous contributes none.
        assert_eq!(stats.pairs_total, 6);
        assert_eq!(stats.pairs_agreeing, 3);
        assert!((stats.pairwise_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stats_merge() {
        let mut a = CoherenceStats::new();
        a.record(&CoherenceVerdict::Coherent(Entity::Undefined));
        let mut b = CoherenceStats::new();
        b.record(&CoherenceVerdict::Vacuous);
        a.merge(&b);
        assert_eq!(a.total, 2);
        assert_eq!(a.coherent, 1);
        assert_eq!(a.vacuous, 1);
    }

    #[test]
    fn global_name_detection() {
        let f = fix();
        assert!(is_global_name(
            &f.sys,
            &f.reg,
            &CompoundName::atom(Name::new("shared"))
        ));
        assert!(!is_global_name(
            &f.sys,
            &f.reg,
            &CompoundName::atom(Name::new("local"))
        ));
        assert!(!is_global_name(
            &f.sys,
            &f.reg,
            &CompoundName::atom(Name::new("nowhere"))
        ));
    }

    #[test]
    fn parallel_sweep_matches_serial_order_and_verdict() {
        // Enough participants to cross PARALLEL_SWEEP_THRESHOLD; half see
        // one file, half the other, so the verdict carries every
        // resolution and any ordering slip would be visible.
        let mut sys = SystemState::new();
        let mut reg = ContextRegistry::new();
        let fa = sys.add_data_object("fa", vec![]);
        let fb = sys.add_data_object("fb", vec![]);
        let n = Name::new("x");
        let mut metas = Vec::new();
        let mut expect = Vec::new();
        for i in 0..(PARALLEL_SWEEP_THRESHOLD + 13) {
            let ctx = sys.add_context_object(format!("c{i}"));
            let f = if i % 2 == 0 { fa } else { fb };
            sys.bind(ctx, n, f).unwrap();
            let a = sys.add_activity(format!("a{i}"));
            reg.set_activity_context(a, ctx);
            metas.push(MetaContext::internal(a));
            expect.push((a, Entity::Object(f)));
        }
        let v = check_coherence(
            &sys,
            &reg,
            &StandardRule::OfResolver,
            &metas,
            &CompoundName::atom(n),
            None,
        );
        match v {
            CoherenceVerdict::Incoherent { resolutions } => assert_eq!(resolutions, expect),
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn verdict_display() {
        assert_eq!(CoherenceVerdict::Vacuous.to_string(), "vacuous");
        assert_eq!(
            CoherenceVerdict::Coherent(Entity::Undefined).kind(),
            "coherent"
        );
    }
}
