//! Closure mechanisms (§3): implicit rules that select a context for
//! resolving names.
//!
//! "An implicit context is needed whenever a name is resolved … Closure
//! mechanisms are the rules that select a context from the possibly many
//! contexts stored in the system."
//!
//! The paper models the dependence on circumstances with a *resolution
//! rule* `R : M → C`, where the *meta-context* `M` describes the
//! circumstances in which the name occurs: the activity resolving it, and
//! how the name was obtained (Fig. 1 — generated internally, received from
//! another activity in a message, or read from an object).
//!
//! Here:
//!
//! * [`NameSource`] and [`MetaContext`] encode `M`;
//! * [`ContextRegistry`] holds the system's association of contexts with
//!   activities (`R(a)`) and objects (`R(o)`);
//! * [`ResolutionRule`] is the trait for `R`; [`StandardRule`] provides the
//!   rules the paper analyzes: `R(activity)`/`R(receiver)`, `R(sender)`,
//!   and `R(object)`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::entity::{ActivityId, Entity, ObjectId};
use crate::name::CompoundName;
use crate::resolve::Resolver;
use crate::state::SystemState;

/// How a name came to be used by an activity (Fig. 1: the three sources of
/// names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NameSource {
    /// The activity generated the name internally (this includes names
    /// obtained from a human user, modelled as generation by the
    /// user-interface activity).
    Internal,
    /// The name arrived in a message from another activity.
    Message {
        /// The activity that sent the name.
        sender: ActivityId,
    },
    /// The name was read from (is embedded in) an object.
    Object {
        /// The object containing the name.
        source: ObjectId,
    },
}

impl NameSource {
    /// Short label used in reports: `internal` / `message` / `object`.
    pub fn kind(&self) -> &'static str {
        match self {
            NameSource::Internal => "internal",
            NameSource::Message { .. } => "message",
            NameSource::Object { .. } => "object",
        }
    }
}

/// The circumstances of a resolution: an element of the paper's meta
/// context `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MetaContext {
    /// The activity performing the resolution.
    pub resolver: ActivityId,
    /// How the activity obtained the name.
    pub source: NameSource,
}

impl MetaContext {
    /// Circumstances of an internally generated name.
    pub fn internal(resolver: ActivityId) -> MetaContext {
        MetaContext {
            resolver,
            source: NameSource::Internal,
        }
    }

    /// Circumstances of a name received in a message.
    pub fn from_message(resolver: ActivityId, sender: ActivityId) -> MetaContext {
        MetaContext {
            resolver,
            source: NameSource::Message { sender },
        }
    }

    /// Circumstances of a name read from an object.
    pub fn from_object(resolver: ActivityId, source: ObjectId) -> MetaContext {
        MetaContext {
            resolver,
            source: NameSource::Object { source },
        }
    }
}

/// The system's stored association of contexts with entities.
///
/// "Operating systems usually make the resolution of a name depend on the
/// activity a performing the resolution … Thus the system maintains a
/// context R(a) for each activity a." Likewise `R(o)` maintains "a context
/// R(o) for each object o".
///
/// Contexts are uniformly represented as *context objects* in the
/// [`SystemState`]; the registry maps activities and objects to the context
/// object that serves as their context. Sharing is expressed by mapping
/// several activities to the same context object — "in the extreme case of a
/// single global context only one context is stored, and is shared by all
/// activities".
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ContextRegistry {
    activity_ctx: std::collections::BTreeMap<ActivityId, ObjectId>,
    object_ctx: std::collections::BTreeMap<ObjectId, ObjectId>,
}

impl ContextRegistry {
    /// Creates an empty registry.
    pub fn new() -> ContextRegistry {
        ContextRegistry::default()
    }

    /// Associates activity `a` with context object `ctx` (defines `R(a)`).
    pub fn set_activity_context(&mut self, a: ActivityId, ctx: ObjectId) {
        self.activity_ctx.insert(a, ctx);
    }

    /// Associates object `o` with context object `ctx` (defines `R(o)`).
    pub fn set_object_context(&mut self, o: ObjectId, ctx: ObjectId) {
        self.object_ctx.insert(o, ctx);
    }

    /// The context of activity `a`, if registered.
    pub fn activity_context(&self, a: ActivityId) -> Option<ObjectId> {
        self.activity_ctx.get(&a).copied()
    }

    /// The context of object `o`, if registered.
    pub fn object_context(&self, o: ObjectId) -> Option<ObjectId> {
        self.object_ctx.get(&o).copied()
    }

    /// Removes the context association of activity `a`.
    pub fn clear_activity_context(&mut self, a: ActivityId) -> Option<ObjectId> {
        self.activity_ctx.remove(&a)
    }

    /// Iterates over `(activity, context)` associations in id order.
    pub fn activity_contexts(&self) -> impl Iterator<Item = (ActivityId, ObjectId)> + '_ {
        self.activity_ctx.iter().map(|(a, c)| (*a, *c))
    }

    /// Iterates over `(object, context)` associations in id order.
    pub fn object_contexts(&self) -> impl Iterator<Item = (ObjectId, ObjectId)> + '_ {
        self.object_ctx.iter().map(|(o, c)| (*o, *c))
    }

    /// Number of distinct context objects used as activity contexts.
    ///
    /// A single shared context shows up here as `1` regardless of how many
    /// activities share it.
    pub fn distinct_activity_contexts(&self) -> usize {
        let set: std::collections::BTreeSet<ObjectId> =
            self.activity_ctx.values().copied().collect();
        set.len()
    }
}

/// A resolution rule `R : M → C`: selects the context object in which a
/// name occurring under circumstances `m` is resolved.
///
/// Implementations return `None` when the rule cannot select a context
/// (e.g. the activity has no registered context); resolution then yields
/// `⊥` — the paper's "an implicit context cannot be avoided" made concrete.
pub trait ResolutionRule: fmt::Debug {
    /// Selects the context for circumstances `m`.
    fn select_context(&self, m: &MetaContext, registry: &ContextRegistry) -> Option<ObjectId>;

    /// Human-readable rule name for reports, e.g. `R(activity)`.
    fn rule_name(&self) -> &str;
}

/// The resolution rules analyzed in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StandardRule {
    /// `R(a)` / `R(receiver)`: resolve in the context of the activity
    /// performing the resolution, regardless of where the name came from.
    /// "A simple rule, commonly used in operating systems."
    OfResolver,
    /// `R(sender)`: for names received in messages, resolve in the sender's
    /// context. Falls back to the resolver's context for other sources
    /// (the rule only distinguishes exchanged names).
    OfSender,
    /// `R(object)`: for names obtained from an object, resolve in the
    /// context associated with that object. Falls back to the resolver's
    /// context for other sources.
    OfSourceObject,
}

impl ResolutionRule for StandardRule {
    fn select_context(&self, m: &MetaContext, registry: &ContextRegistry) -> Option<ObjectId> {
        match self {
            StandardRule::OfResolver => registry.activity_context(m.resolver),
            StandardRule::OfSender => match m.source {
                NameSource::Message { sender } => registry.activity_context(sender),
                _ => registry.activity_context(m.resolver),
            },
            StandardRule::OfSourceObject => match m.source {
                NameSource::Object { source } => registry.object_context(source),
                _ => registry.activity_context(m.resolver),
            },
        }
    }

    fn rule_name(&self) -> &str {
        match self {
            StandardRule::OfResolver => "R(activity)",
            StandardRule::OfSender => "R(sender)",
            StandardRule::OfSourceObject => "R(object)",
        }
    }
}

impl fmt::Display for StandardRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rule_name())
    }
}

/// A rule that dispatches per name-source: one sub-rule for each of the
/// three sources of Fig. 1.
///
/// This expresses complete naming-scheme designs such as the paper's §6
/// solutions, where exchanged names use `R(sender)`, embedded names use
/// `R(object)`, and internal names necessarily use `R(activity)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerSourceRule {
    /// Rule applied to internally generated names.
    pub internal: StandardRule,
    /// Rule applied to names received in messages.
    pub message: StandardRule,
    /// Rule applied to names read from objects.
    pub object: StandardRule,
}

impl PerSourceRule {
    /// The conventional operating-system design: `R(activity)` everywhere.
    pub fn conventional() -> PerSourceRule {
        PerSourceRule {
            internal: StandardRule::OfResolver,
            message: StandardRule::OfResolver,
            object: StandardRule::OfResolver,
        }
    }

    /// The paper's §6 recommendation: `R(sender)` for exchanged names,
    /// `R(object)` for embedded names.
    pub fn paper_solution() -> PerSourceRule {
        PerSourceRule {
            internal: StandardRule::OfResolver,
            message: StandardRule::OfSender,
            object: StandardRule::OfSourceObject,
        }
    }
}

impl ResolutionRule for PerSourceRule {
    fn select_context(&self, m: &MetaContext, registry: &ContextRegistry) -> Option<ObjectId> {
        let rule = match m.source {
            NameSource::Internal => self.internal,
            NameSource::Message { .. } => self.message,
            NameSource::Object { .. } => self.object,
        };
        rule.select_context(m, registry)
    }

    fn rule_name(&self) -> &str {
        "per-source"
    }
}

/// Resolves `name` under `rule` for circumstances `m`: selects the context
/// via the closure mechanism, then applies `R(arguments)(name)`.
///
/// Returns [`Entity::Undefined`] when no context can be selected or the
/// resolution fails — the total-function semantics of the model.
///
/// # Examples
///
/// ```
/// use naming_core::prelude::*;
///
/// let mut sys = SystemState::new();
/// let ctx = sys.add_context_object("ctx-of-a");
/// let file = sys.add_data_object("f", vec![]);
/// sys.bind(ctx, Name::new("f"), file).unwrap();
/// let a = sys.add_activity("a");
///
/// let mut reg = ContextRegistry::new();
/// reg.set_activity_context(a, ctx);
///
/// let got = resolve_with_rule(
///     &sys,
///     &reg,
///     &StandardRule::OfResolver,
///     &MetaContext::internal(a),
///     &CompoundName::atom(Name::new("f")),
/// );
/// assert_eq!(got, Entity::Object(file));
/// ```
pub fn resolve_with_rule(
    state: &SystemState,
    registry: &ContextRegistry,
    rule: &dyn ResolutionRule,
    m: &MetaContext,
    name: &CompoundName,
) -> Entity {
    crate::obs::note_meta(rule.rule_name(), m.resolver, m.source.kind());
    match rule.select_context(m, registry) {
        Some(ctx) => Resolver::new().resolve_entity(state, ctx, name),
        None => {
            crate::obs::no_context_selected(name);
            Entity::Undefined
        }
    }
}

/// [`resolve_with_rule`] backed by a [`ResolutionMemo`].
///
/// The closure mechanism still selects the starting context from the live
/// registry on every call — only the graph walk itself is memoized — so the
/// memo stays correct across `R(activity)`/`R(sender)`/`R(object)` and
/// across registry updates. Equivalent to [`resolve_with_rule`] for every
/// input; see [`Resolver::resolve_entity_memo`] for the invalidation
/// guarantees.
pub fn resolve_with_rule_memo(
    state: &SystemState,
    registry: &ContextRegistry,
    rule: &dyn ResolutionRule,
    m: &MetaContext,
    name: &CompoundName,
    memo: &mut crate::memo::ResolutionMemo,
) -> Entity {
    crate::obs::note_meta(rule.rule_name(), m.resolver, m.source.kind());
    match rule.select_context(m, registry) {
        Some(ctx) => Resolver::new().resolve_entity_memo(state, ctx, name, memo),
        None => {
            crate::obs::no_context_selected(name);
            Entity::Undefined
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;

    /// Two activities with distinct contexts binding the same name to
    /// different entities, plus an object with its own context.
    struct Fixture {
        sys: SystemState,
        reg: ContextRegistry,
        a1: ActivityId,
        a2: ActivityId,
        f1: ObjectId,
        f2: ObjectId,
        f3: ObjectId,
        doc: ObjectId,
    }

    fn fixture() -> Fixture {
        let mut sys = SystemState::new();
        let c1 = sys.add_context_object("ctx1");
        let c2 = sys.add_context_object("ctx2");
        let c3 = sys.add_context_object("ctx3");
        let f1 = sys.add_data_object("f1", vec![]);
        let f2 = sys.add_data_object("f2", vec![]);
        let f3 = sys.add_data_object("f3", vec![]);
        let x = Name::new("x");
        sys.bind(c1, x, f1).unwrap();
        sys.bind(c2, x, f2).unwrap();
        sys.bind(c3, x, f3).unwrap();
        let a1 = sys.add_activity("a1");
        let a2 = sys.add_activity("a2");
        let doc = sys.add_data_object("doc", vec![]);
        let mut reg = ContextRegistry::new();
        reg.set_activity_context(a1, c1);
        reg.set_activity_context(a2, c2);
        reg.set_object_context(doc, c3);
        Fixture {
            sys,
            reg,
            a1,
            a2,
            f1,
            f2,
            f3,
            doc,
        }
    }

    fn x() -> CompoundName {
        CompoundName::atom(Name::new("x"))
    }

    #[test]
    fn of_resolver_uses_receiver_context() {
        let f = fixture();
        // a2 received "x" from a1 but resolves in its own context.
        let m = MetaContext::from_message(f.a2, f.a1);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfResolver, &m, &x());
        assert_eq!(got, Entity::Object(f.f2));
    }

    #[test]
    fn of_sender_uses_sender_context() {
        let f = fixture();
        let m = MetaContext::from_message(f.a2, f.a1);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSender, &m, &x());
        // Same entity the sender meant: coherence for exchanged names.
        assert_eq!(got, Entity::Object(f.f1));
    }

    #[test]
    fn of_sender_falls_back_for_internal_names() {
        let f = fixture();
        let m = MetaContext::internal(f.a2);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSender, &m, &x());
        assert_eq!(got, Entity::Object(f.f2));
    }

    #[test]
    fn of_object_uses_object_context() {
        let f = fixture();
        let m = MetaContext::from_object(f.a1, f.doc);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSourceObject, &m, &x());
        assert_eq!(got, Entity::Object(f.f3));
        // Same for any resolver: coherence among all activities for
        // embedded names.
        let m2 = MetaContext::from_object(f.a2, f.doc);
        let got2 = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSourceObject, &m2, &x());
        assert_eq!(got2, got);
    }

    #[test]
    fn of_object_falls_back_without_object_source() {
        let f = fixture();
        let m = MetaContext::internal(f.a1);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSourceObject, &m, &x());
        assert_eq!(got, Entity::Object(f.f1));
    }

    #[test]
    fn unregistered_activity_yields_undefined() {
        let mut f = fixture();
        let stranger = f.sys.add_activity("stranger");
        let m = MetaContext::internal(stranger);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfResolver, &m, &x());
        assert_eq!(got, Entity::Undefined);
    }

    #[test]
    fn unregistered_object_yields_undefined_under_r_object() {
        let mut f = fixture();
        let orphan = f.sys.add_data_object("orphan", vec![]);
        let m = MetaContext::from_object(f.a1, orphan);
        let got = resolve_with_rule(&f.sys, &f.reg, &StandardRule::OfSourceObject, &m, &x());
        assert_eq!(got, Entity::Undefined);
    }

    #[test]
    fn per_source_rule_dispatches() {
        let f = fixture();
        let rule = PerSourceRule::paper_solution();
        // Message -> sender's context.
        let got = resolve_with_rule(
            &f.sys,
            &f.reg,
            &rule,
            &MetaContext::from_message(f.a2, f.a1),
            &x(),
        );
        assert_eq!(got, Entity::Object(f.f1));
        // Object -> object's context.
        let got = resolve_with_rule(
            &f.sys,
            &f.reg,
            &rule,
            &MetaContext::from_object(f.a2, f.doc),
            &x(),
        );
        assert_eq!(got, Entity::Object(f.f3));
        // Internal -> own context.
        let got = resolve_with_rule(&f.sys, &f.reg, &rule, &MetaContext::internal(f.a2), &x());
        assert_eq!(got, Entity::Object(f.f2));
    }

    #[test]
    fn conventional_rule_is_always_resolver() {
        let f = fixture();
        let rule = PerSourceRule::conventional();
        for m in [
            MetaContext::internal(f.a2),
            MetaContext::from_message(f.a2, f.a1),
            MetaContext::from_object(f.a2, f.doc),
        ] {
            let got = resolve_with_rule(&f.sys, &f.reg, &rule, &m, &x());
            assert_eq!(got, Entity::Object(f.f2));
        }
    }

    #[test]
    fn registry_queries() {
        let f = fixture();
        assert_eq!(f.reg.activity_contexts().count(), 2);
        assert_eq!(f.reg.object_contexts().count(), 1);
        assert_eq!(f.reg.distinct_activity_contexts(), 2);
        let mut reg = f.reg.clone();
        reg.set_activity_context(f.a2, reg.activity_context(f.a1).unwrap());
        assert_eq!(reg.distinct_activity_contexts(), 1);
        assert!(reg.clear_activity_context(f.a2).is_some());
        assert!(reg.activity_context(f.a2).is_none());
    }

    #[test]
    fn rule_names() {
        assert_eq!(StandardRule::OfResolver.rule_name(), "R(activity)");
        assert_eq!(StandardRule::OfSender.to_string(), "R(sender)");
        assert_eq!(StandardRule::OfSourceObject.rule_name(), "R(object)");
        assert_eq!(PerSourceRule::conventional().rule_name(), "per-source");
    }

    #[test]
    fn name_source_kinds() {
        assert_eq!(NameSource::Internal.kind(), "internal");
        assert_eq!(
            NameSource::Message {
                sender: ActivityId::from_index(0)
            }
            .kind(),
            "message"
        );
        assert_eq!(
            NameSource::Object {
                source: ObjectId::from_index(0)
            }
            .kind(),
            "object"
        );
    }
}
