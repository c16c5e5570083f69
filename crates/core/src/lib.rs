//! # naming-core
//!
//! A faithful implementation of the formal naming model, closure
//! mechanisms, and coherence theory of
//!
//! > Sanjay Radia and Jan Pachl, *Coherence in Naming in Distributed
//! > Computing Environments*, ICDCS 1993.
//!
//! Names are resolved in a *context* — a total function from names to
//! entities ([`context::Context`]). Objects whose state is a context
//! (directories) induce the *naming graph* ([`graph::NamingGraph`]);
//! compound names resolve by walking it ([`resolve::Resolver`]). Which
//! context a resolution starts in is chosen by a *closure mechanism*: a
//! resolution rule over the circumstances of the resolution
//! ([`closure::ResolutionRule`], [`closure::MetaContext`]). A name is
//! *coherent* across activities when it denotes the same entity for all of
//! them ([`coherence`]); the audit engine ([`audit`]) quantifies the degree
//! of coherence of whole naming schemes.
//!
//! ## Quick start
//!
//! ```
//! use naming_core::prelude::*;
//!
//! // Build a tiny system: one directory tree, two processes.
//! let mut sys = SystemState::new();
//! let root = sys.add_context_object("root");
//! let etc = sys.add_context_object("etc");
//! let passwd = sys.add_data_object("passwd", vec![]);
//! sys.bind(root, Name::root(), root).unwrap();
//! sys.bind(root, Name::new("etc"), etc).unwrap();
//! sys.bind(etc, Name::new("passwd"), passwd).unwrap();
//!
//! let p1 = sys.add_activity("p1");
//! let p2 = sys.add_activity("p2");
//!
//! // Both processes share the same per-activity context: R(p1) = R(p2).
//! let mut reg = ContextRegistry::new();
//! reg.set_activity_context(p1, root);
//! reg.set_activity_context(p2, root);
//!
//! // "/etc/passwd" is then coherent between them.
//! let name = CompoundName::parse_path("/etc/passwd").unwrap();
//! let verdict = naming_core::coherence::check_coherence(
//!     &sys,
//!     &reg,
//!     &StandardRule::OfResolver,
//!     &[MetaContext::internal(p1), MetaContext::internal(p2)],
//!     &name,
//!     None,
//! );
//! assert!(verdict.is_coherent());
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`name`] | §2 | atomic and compound names |
//! | [`entity`] | §2 | activities, objects, ⊥ |
//! | [`context`] | §2 | contexts as total functions |
//! | [`state`] | §2 | the global state function σ; documents with embedded names |
//! | [`graph`] | §2 | the naming graph; reachability; name synthesis |
//! | [`resolve`] | §2 | compound-name resolution |
//! | [`memo`] | §5 | generation-versioned resolution memoization |
//! | [`lease`] | §5 | zone serials and TTL leases for bounded staleness |
//! | [`slab_lru`] | — | the bounded hashed slab-LRU store under every `(start, suffix)` cache |
//! | [`snapshot`] | §5 | immutable copy-on-publish snapshots of σ |
//! | [`hash`] | — | deterministic hashing for internal indexes |
//! | [`closure`] | §3 | meta-context, resolution rules R(a), R(sender), R(object) |
//! | [`coherence`] | §4–5 | coherence, weak coherence, degree-of-coherence stats |
//! | [`replica`] | §5 | replica groups for weak coherence |
//! | [`audit`] | §5 | parallel coherence auditor |
//! | [`builder`] | — | fluent naming-graph construction |
//! | [`monitor`] | — | coherence time series over churn |
//! | [`report`] | — | table rendering for experiments |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod builder;
pub mod closure;
pub mod coherence;
pub mod context;
pub mod entity;
pub mod graph;
pub mod hash;
pub mod lease;
pub mod memo;
pub mod monitor;
pub mod name;
#[cfg(feature = "telemetry")]
mod obs;
pub mod replica;
pub mod report;
pub mod resolve;
pub mod slab_lru;
pub mod snapshot;
pub mod state;

/// Convenient re-exports of the types used in almost every program built on
/// this crate.
pub mod prelude {
    pub use crate::closure::{
        resolve_with_rule, resolve_with_rule_memo, ContextRegistry, MetaContext, NameSource,
        PerSourceRule, ResolutionRule, StandardRule,
    };
    pub use crate::coherence::{check_coherence, CoherenceStats, CoherenceVerdict};
    pub use crate::context::Context;
    pub use crate::entity::{ActivityId, Entity, ObjectId};
    pub use crate::lease::{Lease, ZoneSerial};
    pub use crate::memo::{MemoStats, ResolutionMemo};
    pub use crate::name::{CompoundName, Name};
    pub use crate::replica::ReplicaRegistry;
    pub use crate::resolve::{Resolution, ResolveError, Resolver};
    pub use crate::snapshot::{
        resolve_with_rule_snapshot, SnapshotMemo, SnapshotMemoStats, StateSnapshot,
    };
    pub use crate::state::{Document, ObjectState, Segment, SystemState};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let mut sys = SystemState::new();
        let _a: ActivityId = sys.add_activity("x");
        let _r = Resolver::new();
        let _c = Context::new();
        let _reg = ContextRegistry::new();
    }
}
