//! Compound-name resolution (§2).
//!
//! The paper defines resolution of a compound name `n = n1…nk` in a context
//! `c` recursively:
//!
//! ```text
//! c(n1…nk) = σ(c(n1))(n2…nk)   when σ(c(n1)) ∈ C
//!          = ⊥                  otherwise
//! ```
//!
//! "When a compound name of length k ≥ 2 is resolved, the result depends on
//! the state of the context objects along the resolution path."
//!
//! [`Resolver::resolve_entity`] implements the total-function semantics
//! exactly (unresolvable → [`Entity::Undefined`]); [`Resolver::resolve`]
//! additionally reports *why* and *where* resolution failed, and records the
//! full resolution path for tracing and for the naming-graph tooling.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::entity::{Entity, ObjectId};
use crate::memo::ResolutionMemo;
use crate::name::{CompoundName, Name};
use crate::obs::MemoEvent;
use crate::state::SystemState;

/// Default bound on resolution path length, preventing unbounded traversals
/// of cyclic naming graphs.
pub const DEFAULT_DEPTH_LIMIT: usize = 4096;

/// One step of a resolution: looking `component` up in `context` yielded
/// `result`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolutionStep {
    /// The context object consulted at this step.
    pub context: ObjectId,
    /// The name component looked up.
    pub component: Name,
    /// The entity the component was bound to (possibly `⊥`).
    pub result: Entity,
}

/// A successful resolution: the final entity plus the path taken.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resolution {
    /// The entity the compound name denotes.
    pub entity: Entity,
    /// Every step taken, in order. `steps.len() == name.len()`.
    pub steps: Vec<ResolutionStep>,
}

impl Resolution {
    /// The context objects traversed, in order (the directed path in the
    /// naming graph).
    pub fn path(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.steps.iter().map(|s| s.context)
    }
}

/// Why a resolution failed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolveError {
    /// A component was not bound in the context consulted (`c(ni) = ⊥`).
    Unbound {
        /// The context in which the component was unbound.
        context: ObjectId,
        /// The unbound component.
        component: Name,
        /// Index of the component within the compound name.
        at: usize,
    },
    /// An intermediate entity was not a context object (`σ(c(ni)) ∉ C`).
    NotAContext {
        /// The non-context entity encountered.
        entity: Entity,
        /// The component that resolved to it.
        component: Name,
        /// Index of the component within the compound name.
        at: usize,
    },
    /// The resolution exceeded the configured depth limit.
    DepthExceeded {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Unbound {
                context,
                component,
                at,
            } => write!(
                f,
                "name component {component:?} (index {at}) is unbound in context {context}"
            ),
            ResolveError::NotAContext {
                entity,
                component,
                at,
            } => write!(
                f,
                "component {component:?} (index {at}) denotes {entity}, which is not a context"
            ),
            ResolveError::DepthExceeded { limit } => {
                write!(f, "resolution exceeded depth limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolves compound names against a [`SystemState`].
///
/// A `Resolver` is a small configuration value (depth limit); it holds no
/// references and is freely copyable.
///
/// # Examples
///
/// ```
/// use naming_core::prelude::*;
///
/// let mut sys = SystemState::new();
/// let root = sys.add_context_object("root");
/// let etc = sys.add_context_object("etc");
/// let passwd = sys.add_data_object("passwd", vec![]);
/// sys.bind(root, Name::root(), root).unwrap();
/// sys.bind(root, Name::new("etc"), etc).unwrap();
/// sys.bind(etc, Name::new("passwd"), passwd).unwrap();
///
/// let r = Resolver::new();
/// let name = CompoundName::parse_path("/etc/passwd").unwrap();
/// assert_eq!(r.resolve_entity(&sys, root, &name), Entity::Object(passwd));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolver {
    depth_limit: usize,
}

impl Default for Resolver {
    fn default() -> Resolver {
        Resolver {
            depth_limit: DEFAULT_DEPTH_LIMIT,
        }
    }
}

impl Resolver {
    /// Creates a resolver with the default depth limit.
    pub fn new() -> Resolver {
        Resolver::default()
    }

    /// Creates a resolver with a custom depth limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_depth_limit(limit: usize) -> Resolver {
        assert!(limit > 0, "depth limit must be positive");
        Resolver { depth_limit: limit }
    }

    /// The configured depth limit.
    pub fn depth_limit(&self) -> usize {
        self.depth_limit
    }

    /// Resolves `name` starting in the context object `start`, recording the
    /// full path.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveError`] describing the failing step. Note that under
    /// the paper's total-function semantics every failure is simply `⊥`; use
    /// [`Resolver::resolve_entity`] for that view.
    pub fn resolve(
        &self,
        state: &SystemState,
        start: ObjectId,
        name: &CompoundName,
    ) -> Result<Resolution, ResolveError> {
        let mut steps = Vec::with_capacity(name.len());
        let out = self.walk(state, start, name.components(), &mut steps);
        crate::obs::plain_resolution(state, start, name, &steps, &out);
        // The histogram's count doubles as the plain-resolution
        // counter; no separate counter bump on this hot path.
        naming_telemetry::histogram!("resolve.depth").record(name.len() as u64);
        out.map(|entity| Resolution { entity, steps })
    }

    /// The one walk of §2's rule: looks `comps` up from `start` one
    /// component at a time, showing `hook` every position reached and every
    /// lookup made. A hook that answers for the rest of the name at some
    /// position ends the walk there with its answer.
    ///
    /// A position that is not a context is `⊥`: at the start, the first
    /// lookup in it yields `⊥` (`Unbound` at 0); mid-path, the component
    /// that led there denoted a non-context (`NotAContext`). Names longer
    /// than the depth limit are refused before the hook sees anything. An
    /// empty run of components consults nothing and denotes nothing.
    pub(crate) fn walk(
        &self,
        state: &SystemState,
        start: ObjectId,
        comps: &[Name],
        hook: &mut impl Hook,
    ) -> Result<Entity, ResolveError> {
        if comps.len() > self.depth_limit {
            return Err(ResolveError::DepthExceeded {
                limit: self.depth_limit,
            });
        }
        // The component at `at` denoted `entity`, which is not a context.
        let not_a_context = |entity, at: usize| ResolveError::NotAContext {
            entity,
            component: comps[at],
            at,
        };
        let mut ctx = start;
        for (at, &component) in comps.iter().enumerate() {
            if let Some(answer) = hook.reach(at, ctx, &comps[at..]) {
                return Ok(answer);
            }
            let c = state.context(ctx);
            if c.is_none() && at > 0 {
                return Err(not_a_context(Entity::Object(ctx), at - 1));
            }
            let result = c.map_or(Entity::Undefined, |c| c.lookup(component));
            hook.hop(ctx, c.map(|c| c.version()), component, result);
            match result {
                Entity::Undefined => {
                    return Err(ResolveError::Unbound {
                        context: ctx,
                        component,
                        at,
                    })
                }
                _ if at + 1 == comps.len() => return Ok(result),
                Entity::Object(o) => ctx = o,
                // Activities are not contexts; traversal dies here.
                Entity::Activity(_) => return Err(not_a_context(result, at)),
            }
        }
        Ok(Entity::Undefined)
    }

    /// Resolves `name` with the paper's exact total-function semantics:
    /// failures yield [`Entity::Undefined`].
    ///
    /// This is the hot path of the scale harness, so when nothing observes
    /// the walk it allocates nothing — no [`ResolutionStep`] vector. With a
    /// trace recorder active it routes through [`Resolver::resolve`] so
    /// traces are identical to the error-reporting path's.
    pub fn resolve_entity(
        &self,
        state: &SystemState,
        start: ObjectId,
        name: &CompoundName,
    ) -> Entity {
        if crate::obs::active() {
            return match self.resolve(state, start, name) {
                Ok(r) => r.entity,
                Err(_) => Entity::Undefined,
            };
        }
        let entity = self.walk(state, start, name.components(), &mut ());
        // Metrics parity with `resolve`: the depth histogram records every
        // plain resolution whether or not a recorder is tracing.
        naming_telemetry::histogram!("resolve.depth").record(name.len() as u64);
        entity.unwrap_or(Entity::Undefined)
    }

    /// Resolves `name` with the total-function semantics, consulting and
    /// populating a [`ResolutionMemo`].
    ///
    /// Equivalent to [`Resolver::resolve_entity`] for every state and name
    /// (the memo's generation checks guarantee stale entries are never
    /// served), but repeated resolutions over an unchanged — or mostly
    /// unchanged — state are answered from the memo. A miss walks the path
    /// once and seeds an entry for *every* suffix it traverses, so distinct
    /// names sharing a tail (`/usr/bin/cc`, `bin/cc` from `/usr`) reinforce
    /// each other.
    ///
    /// Depth-limit failures are returned as `⊥` but never memoized: the
    /// verdict depends on this resolver's limit, and the memo may be shared
    /// between resolvers configured differently.
    pub fn resolve_entity_memo(
        &self,
        state: &SystemState,
        start: ObjectId,
        name: &CompoundName,
        memo: &mut ResolutionMemo,
    ) -> Entity {
        let comps = name.components();
        let tracing = crate::obs::begin(start, name);
        // Hot path: the whole name is memoized and still current. A name
        // past the depth limit is not probed — the memo may be shared with
        // a resolver whose limit admits it — and the walk refuses it.
        if comps.len() <= self.depth_limit {
            let invalidations = memo.stats().invalidations;
            let hit = memo.probe(state, start, comps);
            if tracing {
                let invalidated = memo.stats().invalidations > invalidations;
                naming_telemetry::recorder::set_memo(crate::obs::verdict(hit, invalidated));
                hit.inspect(|&e| crate::obs::finish(&Ok(e)));
            }
            if let Some(e) = hit {
                return e;
            }
        }
        let mut walk = MemoWalk {
            state,
            memo,
            tracing,
            positions: Vec::with_capacity(comps.len()),
            deps: Vec::with_capacity(comps.len()),
            tail: Box::default(),
            verdict: MemoEvent::None,
        };
        let out = self.walk(state, start, comps, &mut walk);
        if walk.tracing {
            crate::obs::finish(&out);
        }
        let entity = out.unwrap_or(Entity::Undefined);
        // Resolution is suffix-compositional: every visited position j
        // resolves comps[j..] to the same final entity through the same
        // tail of the path, depending on the contexts from j onward. Every
        // suffix entry's footprint is a suffix of one shared buffer
        // `deps ++ tail`, built once instead of per entry.
        let MemoWalk {
            memo,
            positions,
            deps: mut full,
            tail,
            ..
        } = walk;
        let walked = full.len();
        full.extend_from_slice(&tail);
        for (j, &at) in positions.iter().enumerate() {
            memo.record(state, at, &comps[j..], entity, &full[j.min(walked)..]);
        }
        entity
    }

    /// Resolves the components `comps` (a name or a prefix of one, borrowed
    /// as the caches key it) with the total-function semantics and reports
    /// the generation footprint of the walk — `(context, version)` for every
    /// context consulted — *including when the result is `⊥`*.
    ///
    /// [`Resolver::resolve_entity_memo`] records this footprint for
    /// successful walks; this variant exists so a *negative* cache can
    /// record one for failures too: a later `bind` on any consulted
    /// context bumps that context's version and invalidates the cached
    /// `⊥` exactly. Failures that don't traverse a context (a
    /// non-context object mid-path, an exceeded depth limit) return the
    /// deps gathered so far; kind changes only happen through the
    /// epoch-bumping escape hatches, which an epoch-stamped cache entry
    /// already covers, and depth verdicts are resolver configuration, not
    /// context state — callers must not cache those (the footprint is
    /// empty and validates forever).
    pub fn resolve_entity_with_deps(
        &self,
        state: &SystemState,
        start: ObjectId,
        comps: &[Name],
    ) -> (Entity, Vec<(ObjectId, u64)>) {
        let mut deps = Vec::with_capacity(comps.len());
        let entity = self.resolve_entity_deps_into(state, start, comps, &mut deps);
        (entity, deps)
    }

    /// [`Resolver::resolve_entity_with_deps`] into a buffer the caller
    /// keeps: `deps` is cleared, then holds the walk's footprint.
    pub fn resolve_entity_deps_into(
        &self,
        state: &SystemState,
        start: ObjectId,
        comps: &[Name],
        deps: &mut Vec<(ObjectId, u64)>,
    ) -> Entity {
        deps.clear();
        self.walk(state, start, comps, deps)
            .unwrap_or(Entity::Undefined)
    }

    /// Resolves a whole batch of names in the same starting context.
    ///
    /// Returns one entity per input name, in order.
    pub fn resolve_all<'a, I>(&self, state: &SystemState, start: ObjectId, names: I) -> Vec<Entity>
    where
        I: IntoIterator<Item = &'a CompoundName>,
    {
        names
            .into_iter()
            .map(|n| self.resolve_entity(state, start, n))
            .collect()
    }
}

/// What a caller sees of [`Resolver::walk`]. Both methods default to
/// seeing nothing.
pub(crate) trait Hook {
    /// The walk stands at `ctx`, `at` components in, with `rest` still to
    /// resolve. Answering `Some(e)` ends the walk: `e` is what `rest`
    /// denotes from `ctx`.
    fn reach(&mut self, _at: usize, _ctx: ObjectId, _rest: &[Name]) -> Option<Entity> {
        None
    }

    /// Looking `component` up in `ctx` — a context of generation `gen`, or
    /// `None` for a non-context start — yielded `result`.
    fn hop(&mut self, _ctx: ObjectId, _gen: Option<u64>, _component: Name, _result: Entity) {}
}

/// The bare walk.
impl Hook for () {}

/// The path, as [`Resolution::steps`] and the trace record it.
impl Hook for Vec<ResolutionStep> {
    fn hop(&mut self, context: ObjectId, _: Option<u64>, component: Name, result: Entity) {
        self.push(ResolutionStep {
            context,
            component,
            result,
        });
    }
}

/// The generation footprint: `(context, version)` of every context read.
impl Hook for Vec<(ObjectId, u64)> {
    fn hop(&mut self, ctx: ObjectId, gen: Option<u64>, _: Name, _: Entity) {
        if let Some(g) = gen {
            self.push((ctx, g));
        }
    }
}

/// [`Resolver::resolve_entity_memo`]'s walk after a whole-name miss: the
/// memo is probed for each shorter suffix, and the walk notes each position
/// it goes on from, the generations it reads and, when tracing, each hop
/// with the memo's verdict at the position it was made from.
struct MemoWalk<'a> {
    state: &'a SystemState,
    memo: &'a mut ResolutionMemo,
    tracing: bool,
    positions: Vec<ObjectId>,
    deps: Vec<(ObjectId, u64)>,
    /// The footprint of a mid-walk hit.
    tail: Box<[(ObjectId, u64)]>,
    verdict: MemoEvent,
}

impl Hook for MemoWalk<'_> {
    fn reach(&mut self, at: usize, ctx: ObjectId, rest: &[Name]) -> Option<Entity> {
        if at > 0 {
            let invalidations = self.memo.stats().invalidations;
            if let Some((e, tail)) = self.memo.probe_with_deps(self.state, ctx, rest) {
                if self.tracing {
                    crate::obs::suffix_hit(self.state, ctx, rest, e);
                }
                self.tail = tail;
                return Some(e);
            }
            let invalidated = self.memo.stats().invalidations > invalidations;
            self.verdict = crate::obs::verdict(None, invalidated);
        }
        self.positions.push(ctx);
        None
    }

    fn hop(&mut self, ctx: ObjectId, gen: Option<u64>, component: Name, result: Entity) {
        self.deps.hop(ctx, gen, component, result);
        if self.tracing {
            crate::obs::hop(self.state, ctx, component, result, self.verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ObjectState;

    /// Builds the little tree  root -> etc -> passwd ; root -> "/"-selfbind.
    fn tree() -> (SystemState, ObjectId, ObjectId, ObjectId) {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        let passwd = s.add_data_object("passwd", b"root:x:0".to_vec());
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("etc"), etc).unwrap();
        s.bind(etc, Name::new("passwd"), passwd).unwrap();
        s.bind(etc, Name::parent(), root).unwrap();
        (s, root, etc, passwd)
    }

    #[test]
    fn single_component_resolution() {
        let (s, root, etc, _) = tree();
        let r = Resolver::new();
        let n = CompoundName::atom(Name::new("etc"));
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Object(etc));
    }

    #[test]
    fn multi_component_resolution() {
        let (s, root, _, passwd) = tree();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        let res = r.resolve(&s, root, &n).unwrap();
        assert_eq!(res.entity, Entity::Object(passwd));
        assert_eq!(res.steps.len(), 3);
        // "/" resolves to root itself, then etc, then passwd.
        assert_eq!(res.steps[0].result, Entity::Object(root));
        assert_eq!(res.steps[1].context, root);
    }

    #[test]
    fn dotdot_traversal() {
        let (s, root, etc, _) = tree();
        let r = Resolver::new();
        // From etc: ../etc/passwd
        let n = CompoundName::parse_path("../etc/passwd").unwrap();
        let res = r.resolve(&s, etc, &n).unwrap();
        assert!(res.entity.is_defined());
        assert_eq!(res.steps[0].result, Entity::Object(root));
    }

    #[test]
    fn unbound_component() {
        let (s, root, _, _) = tree();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/usr/bin").unwrap();
        match r.resolve(&s, root, &n) {
            Err(ResolveError::Unbound { component, at, .. }) => {
                assert_eq!(component, Name::new("usr"));
                assert_eq!(at, 1);
            }
            other => panic!("expected Unbound, got {other:?}"),
        }
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Undefined);
    }

    #[test]
    fn traversing_through_non_context_fails() {
        let (mut s, root, etc, passwd) = tree();
        let _ = etc;
        // passwd is data; /etc/passwd/x must fail with NotAContext.
        let r = Resolver::new();
        let n = CompoundName::parse_path("/etc/passwd/x").unwrap();
        match r.resolve(&s, root, &n) {
            Err(ResolveError::NotAContext { entity, at, .. }) => {
                assert_eq!(entity, Entity::Object(passwd));
                assert_eq!(at, 2);
            }
            other => panic!("expected NotAContext, got {other:?}"),
        }
        // Activities are likewise not contexts.
        let act = s.add_activity("proc");
        s.bind(root, Name::new("proc"), act).unwrap();
        let n2 = CompoundName::parse_path("/proc/x").unwrap();
        assert!(matches!(
            r.resolve(&s, root, &n2),
            Err(ResolveError::NotAContext { .. })
        ));
    }

    #[test]
    fn name_ending_at_activity_is_fine() {
        let (mut s, root, _, _) = tree();
        let act = s.add_activity("proc");
        s.bind(root, Name::new("proc"), act).unwrap();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/proc").unwrap();
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Activity(act));
    }

    #[test]
    fn depth_limit_enforced() {
        let (s, root, _, _) = tree();
        let r = Resolver::with_depth_limit(2);
        let n = CompoundName::parse_path("/etc/passwd").unwrap(); // length 3
        assert!(matches!(
            r.resolve(&s, root, &n),
            Err(ResolveError::DepthExceeded { limit: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "depth limit must be positive")]
    fn zero_depth_limit_panics() {
        let _ = Resolver::with_depth_limit(0);
    }

    #[test]
    fn cyclic_graph_with_finite_name_terminates() {
        // a -> b -> a cycles; resolution of a finite compound name still
        // terminates because each step consumes one component.
        let mut s = SystemState::new();
        let a = s.add_context_object("a");
        let b = s.add_context_object("b");
        s.bind(a, Name::new("b"), b).unwrap();
        s.bind(b, Name::new("a"), a).unwrap();
        let r = Resolver::new();
        let n = CompoundName::new(vec![
            Name::new("b"),
            Name::new("a"),
            Name::new("b"),
            Name::new("a"),
        ])
        .unwrap();
        assert_eq!(r.resolve_entity(&s, a, &n), Entity::Object(a));
    }

    #[test]
    fn resolution_depends_on_state_along_path() {
        // Rebinding an intermediate context changes the result: "the result
        // depends on the state of the context objects along the resolution
        // path."
        let (mut s, root, _, passwd) = tree();
        let other_etc = s.add_context_object("etc2");
        let shadow = s.add_data_object("passwd2", vec![]);
        s.bind(other_etc, Name::new("passwd"), shadow).unwrap();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        let r = Resolver::new();
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Object(passwd));
        s.bind(root, Name::new("etc"), other_etc).unwrap();
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Object(shadow));
    }

    #[test]
    fn resolve_all_batches() {
        let (s, root, etc, passwd) = tree();
        let names = vec![
            CompoundName::parse_path("/etc").unwrap(),
            CompoundName::parse_path("/etc/passwd").unwrap(),
            CompoundName::parse_path("/nope").unwrap(),
        ];
        let r = Resolver::new();
        let out = r.resolve_all(&s, root, &names);
        assert_eq!(
            out,
            vec![
                Entity::Object(etc),
                Entity::Object(passwd),
                Entity::Undefined
            ]
        );
    }

    #[test]
    fn with_deps_agrees_with_resolve_entity_and_reports_failure_footprints() {
        let (mut s, root, etc, passwd) = tree();
        let r = Resolver::new();
        for path in ["/etc/passwd", "/etc", "/nope", "/etc/passwd/x", "/etc/nope"] {
            let n = CompoundName::parse_path(path).unwrap();
            let (e, deps) = r.resolve_entity_with_deps(&s, root, n.components());
            assert_eq!(e, r.resolve_entity(&s, root, &n), "disagrees on {path}");
            // Every recorded generation is the context's current one.
            for (o, gen) in &deps {
                assert_eq!(s.context(*o).unwrap().version(), *gen);
            }
        }
        // A failed lookup still reports the contexts it consulted, so a
        // later bind there is a detectable invalidation.
        let n = CompoundName::parse_path("/etc/nope").unwrap();
        let (e, deps) = r.resolve_entity_with_deps(&s, root, n.components());
        assert_eq!(e, Entity::Undefined);
        assert!(deps.iter().any(|(o, _)| *o == etc), "footprint reaches etc");
        let before = deps.clone();
        s.bind(etc, Name::new("nope"), passwd).unwrap();
        let (e2, after) = r.resolve_entity_with_deps(&s, root, n.components());
        assert_eq!(e2, Entity::Object(passwd));
        assert_ne!(before, after, "etc's generation moved");
    }

    #[test]
    fn resolution_path_iterator() {
        let (s, root, etc, _) = tree();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        let res = r.resolve(&s, root, &n).unwrap();
        let path: Vec<ObjectId> = res.path().collect();
        assert_eq!(path, vec![root, root, etc]);
    }

    #[test]
    fn empty_context_object_resolves_nothing() {
        let mut s = SystemState::new();
        let d = s.add_object("d", ObjectState::Context(crate::context::Context::new()));
        let r = Resolver::new();
        let n = CompoundName::atom(Name::new("x"));
        assert_eq!(r.resolve_entity(&s, d, &n), Entity::Undefined);
    }

    #[test]
    fn a_shared_memo_neither_records_nor_serves_past_the_depth_limit() {
        let (s, root, _, passwd) = tree();
        let n = CompoundName::parse_path("/etc/passwd").unwrap(); // length 3
        let (shallow, deep) = (Resolver::with_depth_limit(2), Resolver::new());
        let mut memo = ResolutionMemo::new();
        // (resolver, answer, entries after): the deep walk seeds 3 suffixes.
        let runs = [
            (shallow, None, 0),
            (deep, Some(passwd), 3),
            (shallow, None, 3),
        ];
        for (r, want, entries) in runs {
            let want = want.map_or(Entity::Undefined, Entity::Object);
            assert_eq!(r.resolve_entity_memo(&s, root, &n, &mut memo), want);
            assert_eq!(memo.len(), entries);
        }
    }
}
