//! Telemetry glue: translates core types into the raw-id records of
//! `naming-telemetry`.
//!
//! Every helper begins with an [`recorder::is_active`] check (or is called
//! behind one), so with no recorder installed on the current thread the
//! hooks are a thread-local read and allocate nothing — resolution under
//! an inactive recorder costs one branch per resolution, not per hop.
//!
//! The memoized resolver's whole-name hits are recorded with
//! `Outcome::Resolved("⊥")` when the memoized entity is undefined: the
//! original ⊥-cause was not re-derived, and the trace's memo verdict
//! already tells that story.

use naming_telemetry::recorder;
pub(crate) use naming_telemetry::trace::MemoEvent;
use naming_telemetry::trace::{BottomCause, Outcome};

use crate::entity::{Entity, ObjectId};
use crate::name::{CompoundName, Name};
use crate::resolve::{ResolutionStep, ResolveError};
use crate::state::SystemState;

/// The generation shown for a hop: the context's version counter, or 0
/// when the object consulted is not a context.
pub(crate) fn generation(state: &SystemState, id: ObjectId) -> u64 {
    state.context(id).map_or(0, |c| c.version())
}

fn cause_of(err: &ResolveError) -> BottomCause {
    match err {
        ResolveError::Unbound { at, .. } => BottomCause::Unbound { at: *at },
        ResolveError::NotAContext { at, .. } => BottomCause::NotAContext { at: *at },
        ResolveError::DepthExceeded { limit } => BottomCause::DepthExceeded { limit: *limit },
    }
}

/// True when a trace recorder is installed on this thread. Hot paths that
/// have a cheaper untraced variant branch on this once per resolution.
#[inline]
pub(crate) fn active() -> bool {
    recorder::is_active()
}

/// Opens a resolution span. Returns false (and records nothing) when no
/// recorder is installed.
pub(crate) fn begin(start: ObjectId, name: &CompoundName) -> bool {
    recorder::is_active() && recorder::start_resolution(start.index() as u64, &name.to_string())
}

/// Records one walked hop.
pub(crate) fn hop(state: &SystemState, ctx: ObjectId, comp: Name, result: Entity, memo: MemoEvent) {
    recorder::hop(
        ctx.index() as u64,
        generation(state, ctx),
        comp.as_ref(),
        result.to_string(),
        memo,
    );
}

/// Records a mid-path memo hit: one hop covering the whole remaining
/// suffix.
pub(crate) fn suffix_hit(state: &SystemState, ctx: ObjectId, suffix: &[Name], entity: Entity) {
    let rendered: Vec<String> = suffix.iter().map(Name::to_string).collect();
    recorder::hop(
        ctx.index() as u64,
        generation(state, ctx),
        &rendered.join("/"),
        entity.to_string(),
        MemoEvent::Hit,
    );
}

/// The memo's verdict at a probe that found `hit`, after discarding a stale
/// entry if `invalidated`.
pub(crate) fn verdict(hit: Option<Entity>, invalidated: bool) -> MemoEvent {
    match (hit, invalidated) {
        (Some(_), _) => MemoEvent::Hit,
        (None, true) => MemoEvent::Invalidated,
        (None, false) => MemoEvent::Miss,
    }
}

/// Closes the open resolution with the walk's outcome: the entity it
/// settled on, or the ⊥-cause of its failure.
pub(crate) fn finish(out: &Result<Entity, ResolveError>) {
    recorder::finish_resolution(match out {
        Ok(entity) => Outcome::Resolved(entity.to_string()),
        Err(err) => Outcome::Bottom(cause_of(err)),
    });
}

/// Records a completed plain (unmemoized) resolution: the hops its walk
/// made, succeeded or not, then its outcome. Called after the walk so the
/// hot path carries no per-hop bookkeeping.
pub(crate) fn plain_resolution(
    state: &SystemState,
    start: ObjectId,
    name: &CompoundName,
    steps: &[ResolutionStep],
    out: &Result<Entity, ResolveError>,
) {
    if !begin(start, name) {
        return;
    }
    for step in steps {
        hop(
            state,
            step.context,
            step.component,
            step.result,
            MemoEvent::None,
        );
    }
    finish(out);
}

/// Records a resolution that produced ⊥ because the closure mechanism
/// selected no context (`R(m)` undefined).
pub(crate) fn no_context_selected(name: &CompoundName) {
    if recorder::is_active() {
        recorder::bottom_resolution(&name.to_string());
    }
}

/// Notes the closure-rule circumstances for the resolution about to run.
pub(crate) fn note_meta(rule: &str, resolver: crate::entity::ActivityId, source: &'static str) {
    if recorder::is_active() {
        recorder::note_meta(rule, resolver.index() as u64, source);
    }
}
