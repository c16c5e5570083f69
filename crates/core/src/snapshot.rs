//! Immutable, shareable snapshots of the global state function σ (§2, §5).
//!
//! The paper's resolution rule `c(n1…nk) = σ(c(n1))(n2…nk)` only *consults*
//! state — reads of σ are side-effect-free — so resolution is embarrassingly
//! parallel between mutations. [`StateSnapshot`] exploits that split: a
//! copy-on-publish, `Arc`-shared view of [`SystemState`]. Mutators keep
//! working on their own staging state and never block readers; readers
//! resolve against a snapshot that can never change underneath them.
//!
//! A frozen snapshot is a σ like any other, so it has no memo of its own:
//! a [`ResolutionMemo`] is exact against every state of one lineage, live
//! or frozen, older or newer (see [`crate::memo`]).

use std::sync::Arc;

use crate::entity::{Entity, ObjectId};
use crate::memo::{MemoStats, ResolutionMemo};
use crate::name::CompoundName;
use crate::resolve::Resolver;
use crate::state::SystemState;

/// An immutable, cheaply cloneable view of a [`SystemState`].
///
/// Cloning a snapshot clones an [`Arc`]; the underlying state is shared.
/// `StateSnapshot` is `Send + Sync`, so snapshots may be handed to worker
/// threads freely while a single writer keeps mutating its own staging
/// state and republishing.
///
/// # Examples
///
/// ```
/// use naming_core::prelude::*;
///
/// let mut sys = SystemState::new();
/// let root = sys.add_context_object("root");
/// let f = sys.add_data_object("f", vec![]);
/// sys.bind(root, Name::new("f"), f).unwrap();
///
/// let snap = StateSnapshot::capture(&sys);
/// // Mutating the original does not affect the snapshot.
/// sys.unbind(root, Name::new("f")).unwrap();
///
/// let r = Resolver::new();
/// let n = CompoundName::atom(Name::new("f"));
/// assert_eq!(r.resolve_entity(snap.state(), root, &n), Entity::Object(f));
/// assert_eq!(r.resolve_entity(&sys, root, &n), Entity::Undefined);
/// ```
#[derive(Clone, Debug)]
pub struct StateSnapshot(Arc<SystemState>);

impl StateSnapshot {
    /// Captures a snapshot by cloning `state`.
    ///
    /// This is *copy-on-publish*: the clone is O(shards) — it shares every
    /// shard's storage with `state` via `Arc` — and the staging state
    /// copies a shard only when the next write actually lands in it. The
    /// cost of publishing is therefore proportional to the shards written
    /// since the last capture, not to the namespace.
    pub fn capture(state: &SystemState) -> StateSnapshot {
        StateSnapshot(Arc::new(state.clone()))
    }

    /// The frozen state.
    pub fn state(&self) -> &SystemState {
        &self.0
    }

    /// The `(naming_version, epoch)` stamp identifying this snapshot's
    /// contents. Two snapshots of the same lineage with equal stamps hold
    /// identical naming state.
    pub fn stamp(&self) -> (u64, u64) {
        (self.0.naming_version(), self.0.epoch())
    }

    /// Whether `self` and `other` wrap the very same state allocation.
    pub fn ptr_eq(&self, other: &StateSnapshot) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The one memo, under the name the yardstick's `core.snapshot` rung
/// imports. Kept only for `benchmark/`, until the yardstick deletes the
/// rung and this name with it.
pub type SnapshotMemo = ResolutionMemo;

/// [`MemoStats`] under its old name, kept beside [`SnapshotMemo`] only
/// until the yardstick deletes its `core.snapshot` rung.
pub type SnapshotMemoStats = MemoStats;

impl Resolver {
    /// [`Resolver::resolve_entity_memo`] against a snapshot's state. Kept
    /// only for `benchmark/`'s `core.snapshot` rung, until the yardstick
    /// deletes the rung and this method with it.
    pub fn resolve_entity_snapshot_memo(
        &self,
        snap: &StateSnapshot,
        start: ObjectId,
        name: &CompoundName,
        memo: &mut ResolutionMemo,
    ) -> Entity {
        self.resolve_entity_memo(snap.state(), start, name, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;

    fn tree() -> (SystemState, ObjectId, ObjectId, ObjectId) {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        let passwd = s.add_data_object("passwd", vec![]);
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("etc"), etc).unwrap();
        s.bind(etc, Name::new("passwd"), passwd).unwrap();
        (s, root, etc, passwd)
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_sync_and_cheap_to_clone() {
        assert_send_sync::<StateSnapshot>();
        let (s, ..) = tree();
        let snap = StateSnapshot::capture(&s);
        let clone = snap.clone();
        assert!(snap.ptr_eq(&clone));
        assert_eq!(snap.stamp(), clone.stamp());
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let (mut s, root, etc, passwd) = tree();
        let snap = StateSnapshot::capture(&s);
        let stamp = snap.stamp();
        s.unbind(etc, Name::new("passwd")).unwrap();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        assert_eq!(
            r.resolve_entity(snap.state(), root, &n),
            Entity::Object(passwd)
        );
        assert_eq!(r.resolve_entity(&s, root, &n), Entity::Undefined);
        // The snapshot's stamp is fixed at capture time.
        assert_eq!(snap.stamp(), stamp);
        assert!(s.naming_version() > stamp.0);
    }

    #[test]
    fn snapshot_memo_agrees_with_unmemoized_resolution() {
        let (s, root, etc, _) = tree();
        let snap = StateSnapshot::capture(&s);
        let r = Resolver::new();
        let mut memo = SnapshotMemo::new();
        for path in ["/etc/passwd", "/etc", "/nope", "/etc/passwd/x", "/etc/nope"] {
            let n = CompoundName::parse_path(path).unwrap();
            let want = r.resolve_entity(snap.state(), root, &n);
            // Twice: once cold, once from the memo.
            assert_eq!(
                r.resolve_entity_snapshot_memo(&snap, root, &n, &mut memo),
                want
            );
            assert_eq!(
                r.resolve_entity_snapshot_memo(&snap, root, &n, &mut memo),
                want
            );
        }
        assert!(
            memo.stats().hits >= 5,
            "second passes hit: {:?}",
            memo.stats()
        );
        // Suffix seeding: "passwd" from etc was recorded by the walk of
        // "/etc/passwd" (components "/", "etc", "passwd").
        let suffix = CompoundName::atom(Name::new("passwd"));
        let before = memo.stats().hits;
        let _ = r.resolve_entity_snapshot_memo(&snap, etc, &suffix, &mut memo);
        assert_eq!(memo.stats().hits, before + 1);
    }

    #[test]
    fn snapshot_memo_resets_on_new_stamp() {
        let (mut s, root, etc, passwd) = tree();
        let r = Resolver::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        let mut memo = SnapshotMemo::new();

        let snap1 = StateSnapshot::capture(&s);
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap1, root, &n, &mut memo),
            Entity::Object(passwd)
        );
        assert!(!memo.is_empty());

        // Publish a new snapshot with the binding removed: the memo must
        // not serve the old answer.
        s.unbind(etc, Name::new("passwd")).unwrap();
        let snap2 = StateSnapshot::capture(&s);
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap2, root, &n, &mut memo),
            Entity::Undefined
        );
    }

    fn two_zone_state() -> (
        SystemState,
        ObjectId,
        ObjectId,
        ObjectId,
        ObjectId,
        ObjectId,
    ) {
        let mut s = SystemState::with_shards(2);
        let root = s.add_context_object_in(0, "root");
        let za = s.add_context_object_in(0, "za");
        let fa = s.add_data_object_in(0, "fa", vec![]);
        let zb = s.add_context_object_in(1, "zb");
        let fb = s.add_data_object_in(1, "fb", vec![]);
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("za"), za).unwrap();
        s.bind(za, Name::new("fa"), fa).unwrap();
        s.bind(root, Name::new("zb"), zb).unwrap();
        s.bind(zb, Name::new("fb"), fb).unwrap();
        (s, root, za, fa, zb, fb)
    }

    /// A write confined to zone B leaves a zone-A entry valid: the memo's
    /// shard tier answers it without a re-walk.
    #[test]
    fn rebase_keeps_entries_of_unwritten_shards() {
        let (mut s, root, _, fa, zb, _) = two_zone_state();
        let r = Resolver::new();
        let mut memo = SnapshotMemo::new();
        let na = CompoundName::parse_path("/za/fa").unwrap();
        let nb = CompoundName::parse_path("/zb/fb").unwrap();

        let snap1 = StateSnapshot::capture(&s);
        r.resolve_entity_snapshot_memo(&snap1, root, &na, &mut memo);
        r.resolve_entity_snapshot_memo(&snap1, root, &nb, &mut memo);

        // Publish after churn confined to shard 1 (zone B).
        let f = s.add_data_object_in(1, "new", vec![]);
        s.bind(zb, Name::new("new"), f).unwrap();
        let snap2 = StateSnapshot::capture(&s);

        let before = memo.stats();
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap2, root, &na, &mut memo),
            Entity::Object(fa)
        );
        let after = memo.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.invalidations, before.invalidations);
    }

    /// A write inside zone A: the zone-A answer is re-walked to its new
    /// value and the zone-B answer is still served.
    #[test]
    fn rebase_drops_entries_of_written_shards() {
        let (mut s, root, za, _, _, fb) = two_zone_state();
        let r = Resolver::new();
        let mut memo = SnapshotMemo::new();
        let na = CompoundName::parse_path("/za/fa").unwrap();
        let nb = CompoundName::parse_path("/zb/fb").unwrap();

        let snap1 = StateSnapshot::capture(&s);
        r.resolve_entity_snapshot_memo(&snap1, root, &na, &mut memo);
        r.resolve_entity_snapshot_memo(&snap1, root, &nb, &mut memo);

        // Rebind inside zone A, then publish: the /za/fa answer changes
        // and its entries must not be served.
        s.unbind(za, Name::new("fa")).unwrap();
        let snap2 = StateSnapshot::capture(&s);
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap2, root, &na, &mut memo),
            Entity::Undefined
        );
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap2, root, &nb, &mut memo),
            Entity::Object(fb)
        );
        assert!(memo.stats().invalidations > 0);
    }
}
