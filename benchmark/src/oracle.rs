//! The correctness oracle and failure accounting.
//!
//! Truth is always the naive `Resolver::resolve_entity` over authoritative
//! state: pre-computed at set-up for the four static workloads, evaluated
//! at answer time (outside the timed calls) for `lease_churn`. Every answer
//! lands in exactly one class, and only [`Verdict::Failed`] counts against
//! the run.

use naming_core::entity::{Entity, ObjectId};
use naming_core::name::CompoundName;
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;

/// How one answer compares with authoritative state at answer time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The answer is what the authority would say now.
    Fresh,
    /// The answer is a value the authority replaced less than one TTL ago:
    /// the staleness a lease permits. Carries the staleness in ticks.
    StaleWithinLease(u64),
    /// A wrong entity outside any lease window, a false ⊥, an
    /// `Unreachable` verdict, or staleness at or beyond the TTL.
    Failed,
}

/// What a lease-mode answer may legitimately lag behind.
pub struct LeaseWindow<'a> {
    pub now: u64,
    pub ttl: u64,
    /// Values this name was bound to before, with the tick each was replaced.
    pub superseded: &'a [(Entity, u64)],
}

/// Classifies one answer. `unreachable` is the transport verdict the
/// serving layer reported for the slot (retries are expected to hide loss,
/// so any `Unreachable` is a failure).
pub fn classify(
    got: Entity,
    unreachable: bool,
    truth: Entity,
    lease: Option<&LeaseWindow<'_>>,
) -> Verdict {
    if unreachable {
        return Verdict::Failed;
    }
    if got == truth {
        return Verdict::Fresh;
    }
    // A ⊥ for a bound name is never a lagging value: it is a false ⊥.
    if let (Some(l), true) = (lease, got.is_defined()) {
        let lag = l
            .superseded
            .iter()
            .filter(|&&(e, _)| e == got)
            .map(|&(_, replaced_at)| l.now.saturating_sub(replaced_at))
            .min();
        if let Some(ticks) = lag.filter(|&t| t < l.ttl) {
            return Verdict::StaleWithinLease(ticks);
        }
    }
    Verdict::Failed
}

/// Running totals over every answer checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub stale: u64,
    pub staleness_ticks_max: u64,
}

impl Tally {
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Fresh => {}
            Verdict::StaleWithinLease(ticks) => {
                self.stale += 1;
                self.staleness_ticks_max = self.staleness_ticks_max.max(ticks);
            }
            Verdict::Failed => self.failed += 1,
        }
    }

    /// Checks a batch of answers against pre-computed truth. `unreachable`
    /// is per slot where the serving layer reports it, empty otherwise.
    pub fn check_static(&mut self, expected: &[Entity], got: &[Entity], unreachable: &[bool]) {
        // A short answer vector leaves slots unanswered: those fail too.
        for (i, &truth) in expected.iter().enumerate() {
            let verdict = match got.get(i) {
                Some(&e) => classify(e, unreachable.get(i).copied().unwrap_or(false), truth, None),
                None => Verdict::Failed,
            };
            self.record(verdict);
        }
    }

    /// A refused frame fails every name it carried.
    pub fn refuse(&mut self, names: u64) {
        self.attempted += names;
        self.failed += names;
    }
}

/// Pre-computes truth for a static op stream.
pub fn expected(state: &SystemState, start: ObjectId, names: &[CompoundName]) -> Vec<Entity> {
    let r = Resolver::new();
    names
        .iter()
        .map(|n| r.resolve_entity(state, start, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u32) -> Entity {
        Entity::Object(ObjectId::from_index(i))
    }

    #[test]
    fn wrong_entity_false_bottom_and_unreachable_all_fail() {
        let mut t = Tally::default();
        // Slot 0 right, slot 1 a deliberately wrong entity, slot 2 a false
        // ⊥, slot 3 right but reported unreachable.
        t.check_static(
            &[obj(1), obj(2), obj(3), obj(4)],
            &[obj(1), obj(9), Entity::Undefined, obj(4)],
            &[false, false, false, true],
        );
        assert_eq!((t.attempted, t.failed, t.stale), (4, 3, 0));
        // A true ⊥ is fresh; a missing answer slot fails.
        t.check_static(&[Entity::Undefined, obj(5)], &[Entity::Undefined], &[]);
        assert_eq!((t.attempted, t.failed), (6, 4));
        t.refuse(64);
        assert_eq!((t.attempted, t.failed), (70, 68));
    }

    #[test]
    fn lease_window_separates_permitted_staleness_from_failure() {
        let superseded = [(obj(1), 100), (obj(2), 900)];
        let lease = |now| LeaseWindow {
            now,
            ttl: 500,
            superseded: &superseded,
        };
        // The previous value, 50 ticks after it was replaced: permitted.
        assert_eq!(
            classify(obj(2), false, obj(3), Some(&lease(950))),
            Verdict::StaleWithinLease(50)
        );
        // The value before that is 850 ticks stale — past the TTL.
        assert_eq!(
            classify(obj(1), false, obj(3), Some(&lease(950))),
            Verdict::Failed
        );
        // Staleness exactly at the TTL is already a failure.
        assert_eq!(
            classify(obj(2), false, obj(3), Some(&lease(1400))),
            Verdict::Failed
        );
        // Never-bound entity, false ⊥, and unreachable fail inside a lease too.
        assert_eq!(
            classify(obj(7), false, obj(3), Some(&lease(950))),
            Verdict::Failed
        );
        assert_eq!(
            classify(Entity::Undefined, false, obj(3), Some(&lease(950))),
            Verdict::Failed
        );
        assert_eq!(
            classify(obj(3), true, obj(3), Some(&lease(950))),
            Verdict::Failed
        );
        let mut t = Tally::default();
        t.record(classify(obj(2), false, obj(3), Some(&lease(950))));
        assert_eq!((t.stale, t.failed, t.staleness_ticks_max), (1, 0, 50));
    }
}
