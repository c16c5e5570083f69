//! Immutable, shareable snapshots of the global state function σ (§2, §5).
//!
//! The paper's resolution rule `c(n1…nk) = σ(c(n1))(n2…nk)` only *consults*
//! state — reads of σ are side-effect-free — so resolution is embarrassingly
//! parallel between mutations. [`StateSnapshot`] exploits that split: a
//! copy-on-publish, `Arc`-shared view of [`SystemState`] stamped with the
//! generation counters of the moment it was taken. Mutators keep working on
//! their own staging state and never block readers; readers resolve against
//! a snapshot that can never change underneath them.
//!
//! Because a snapshot is immutable, memoization against it needs *no*
//! generation validation at all: [`SnapshotMemo`] entries are valid for as
//! long as the memo is used with the same snapshot stamp. When a new
//! snapshot is published (detected by the stamp, so callers cannot forget),
//! the memo compares the two snapshots' *per-shard* stamps and discards
//! exactly the entries whose resolution walk crossed a written shard —
//! zone-local churn leaves every other zone's entries hot. This keeps the
//! per-worker read path of a concurrent server completely lock- and
//! validation-free.

use std::sync::Arc;

use crate::entity::{Entity, ObjectId};
use crate::hash::FxHashMap;
use crate::name::{CompoundName, Name};
use crate::resolve::{Hook, Resolver};
use crate::state::SystemState;

/// An immutable, cheaply cloneable view of a [`SystemState`], stamped with
/// the generation counters at capture time.
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
/// assert_eq!(r.resolve_entity_snapshot(&snap, root, &n), Entity::Object(f));
/// assert_eq!(r.resolve_entity(&sys, root, &n), Entity::Undefined);
/// ```
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    state: Arc<SystemState>,
    naming_version: u64,
    epoch: u64,
    /// `(naming_version, epoch)` of every shard at capture time; shared so
    /// cloning the snapshot stays O(1).
    shard_stamps: Arc<[(u64, u64)]>,
}

impl StateSnapshot {
    /// Captures a snapshot by cloning `state`.
    ///
    /// This is *copy-on-publish*: the clone is O(shards) — it shares every
    /// shard's storage with `state` via `Arc` — and the staging state
    /// copies a shard only when the next write actually lands in it. The
    /// cost of publishing is therefore proportional to the shards written
    /// since the last capture, not to the namespace.
    pub fn capture(state: &SystemState) -> StateSnapshot {
        StateSnapshot::from_arc(Arc::new(state.clone()))
    }

    /// Wraps an already-shared state without copying. The caller must not
    /// retain any other means of mutating the `Arc`'s contents (which plain
    /// safe code cannot do anyway once the `Arc` is cloned).
    pub fn from_arc(state: Arc<SystemState>) -> StateSnapshot {
        let naming_version = state.naming_version();
        let epoch = state.epoch();
        let shard_stamps: Arc<[(u64, u64)]> = state.shard_stamps().into();
        StateSnapshot {
            state,
            naming_version,
            epoch,
            shard_stamps,
        }
    }

    /// The frozen state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// The naming generation at capture time.
    pub fn naming_version(&self) -> u64 {
        self.naming_version
    }

    /// The structural epoch at capture time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `(naming_version, epoch)` stamp identifying this snapshot's
    /// contents. Two snapshots of the same lineage with equal stamps hold
    /// identical naming state.
    pub fn stamp(&self) -> (u64, u64) {
        (self.naming_version, self.epoch)
    }

    /// Whether `other` shares this snapshot's stamp (and therefore, within
    /// one published lineage, its naming contents).
    pub fn same_stamp(&self, other: &StateSnapshot) -> bool {
        self.stamp() == other.stamp()
    }

    /// Per-shard `(naming_version, epoch)` stamps at capture time, in
    /// shard order.
    pub fn shard_stamps(&self) -> &[(u64, u64)] {
        &self.shard_stamps
    }

    /// Whether `self` and `other` wrap the very same state allocation.
    pub fn ptr_eq(&self, other: &StateSnapshot) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

/// Counters for a [`SnapshotMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotMemoStats {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Entries recorded.
    pub inserts: u64,
    /// Times a rebase onto a differently-stamped snapshot discarded
    /// entries (all of them or only those in written shards).
    pub resets: u64,
    /// The subset of `resets` where the per-shard stamps let some entries
    /// survive (only the written shards' entries were dropped).
    pub partial_resets: u64,
    /// Entries discarded by rebases, across all resets.
    pub invalidated: u64,
}

impl SnapshotMemoStats {
    /// Fraction of probes answered from the memo (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memoized answer: the resolved entity plus the shards its walk crossed.
type MemoEntry = (Entity, Box<[u32]>);

/// A validation-free resolution memo bound to one snapshot stamp.
///
/// Unlike [`crate::memo::ResolutionMemo`], entries are never individually
/// invalidated by probes: the backing snapshot is immutable, so an entry
/// recorded against it is correct forever. Consistency across publishes is
/// enforced at rebase time — every probe and record passes the snapshot,
/// and when its stamp differs from the one the memo was last used with,
/// the memo first drops the entries made stale by the publish
/// ([`rebase`]). Each entry carries the set of shards its resolution walk
/// crossed, so a rebase compares per-shard stamps and keeps every entry
/// whose shards were not written — zone-local churn does not cold-start
/// the other zones.
///
/// This is the per-worker memo shard of a concurrent server: each worker
/// owns one privately (no locks, no atomics) and it self-invalidates the
/// first time the worker observes a newly published snapshot.
///
/// A memo follows one snapshot lineage; rebasing it across snapshots of
/// unrelated `SystemState`s is not meaningful (stamps could coincide).
///
/// [`rebase`]: SnapshotMemo::rebase
#[derive(Debug, Default)]
pub struct SnapshotMemo {
    /// `start context → (name suffix → (entity, shards walked))`. Two-level
    /// so probes can use the borrowed `&[Name]` key without allocating.
    entries: FxHashMap<ObjectId, FxHashMap<Box<[Name]>, MemoEntry>>,
    /// Stamp of the snapshot the entries were recorded against.
    stamp: Option<(u64, u64)>,
    /// Per-shard stamps of that snapshot, for partial invalidation.
    shard_stamps: Vec<(u64, u64)>,
    stats: SnapshotMemoStats,
}

impl SnapshotMemo {
    /// Creates an empty memo, bound to no snapshot yet.
    pub fn new() -> SnapshotMemo {
        SnapshotMemo::default()
    }

    /// Ensures the memo is usable with `snap`: if it holds entries recorded
    /// against a differently-stamped snapshot, the entries whose resolution
    /// walks crossed a shard written since then are discarded; entries
    /// confined to unwritten shards survive. Called automatically by
    /// [`probe`](SnapshotMemo::probe) and [`record`](SnapshotMemo::record).
    pub fn rebase(&mut self, snap: &StateSnapshot) {
        if self.stamp == Some(snap.stamp()) {
            return;
        }
        let new_stamps = snap.shard_stamps();
        if self.stamp.is_some() && !self.entries.is_empty() {
            if self.shard_stamps.len() == new_stamps.len() {
                // Same shard layout: drop exactly the entries that
                // crossed a written shard.
                let changed: Vec<bool> = self
                    .shard_stamps
                    .iter()
                    .zip(new_stamps.iter())
                    .map(|(old, new)| old != new)
                    .collect();
                let before = self.len();
                for m in self.entries.values_mut() {
                    m.retain(|_, (_, shards)| shards.iter().all(|&s| !changed[s as usize]));
                }
                self.entries.retain(|_, m| !m.is_empty());
                let dropped = before - self.len();
                if dropped > 0 {
                    self.stats.resets += 1;
                    self.stats.invalidated += dropped as u64;
                    if !self.entries.is_empty() {
                        self.stats.partial_resets += 1;
                    }
                }
            } else {
                // Shard layout changed (different lineage): full clear.
                self.stats.resets += 1;
                self.stats.invalidated += self.len() as u64;
                self.entries.clear();
            }
        }
        self.stamp = Some(snap.stamp());
        self.shard_stamps.clear();
        self.shard_stamps.extend_from_slice(new_stamps);
    }

    /// Looks up the memoized result of resolving `comps` from `start`
    /// against `snap`. No validation: a present entry is correct by
    /// construction.
    pub fn probe(
        &mut self,
        snap: &StateSnapshot,
        start: ObjectId,
        comps: &[Name],
    ) -> Option<Entity> {
        self.rebase(snap);
        match self.entries.get(&start).and_then(|m| m.get(comps)) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.0)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Like [`SnapshotMemo::probe`] but also returns the entry's shard
    /// footprint, so a resolver hitting mid-walk can fold it into the
    /// entries it seeds for the outer suffixes.
    fn probe_entry(
        &mut self,
        snap: &StateSnapshot,
        start: ObjectId,
        comps: &[Name],
    ) -> Option<(Entity, Box<[u32]>)> {
        self.rebase(snap);
        match self.entries.get(&start).and_then(|m| m.get(comps)) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records that `comps` from `start` resolves to `entity` under `snap`.
    /// `shards` is the set of shards the resolution walk read (the shards
    /// of every context it stepped through); it governs which publishes
    /// invalidate the entry at [`rebase`](SnapshotMemo::rebase) time.
    pub fn record(
        &mut self,
        snap: &StateSnapshot,
        start: ObjectId,
        comps: &[Name],
        entity: Entity,
        shards: &[u32],
    ) {
        self.rebase(snap);
        self.entries
            .entry(start)
            .or_default()
            .insert(comps.into(), (entity, Box::from(shards)));
        self.stats.inserts += 1;
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(|m| m.len()).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.values().all(|m| m.is_empty())
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SnapshotMemoStats {
        self.stats
    }
}

impl Resolver {
    /// [`Resolver::resolve_entity`] against a [`StateSnapshot`].
    ///
    /// Semantically identical to resolving against the snapshot's frozen
    /// state; exists so concurrent read paths are typed against the
    /// immutable view.
    pub fn resolve_entity_snapshot(
        &self,
        snap: &StateSnapshot,
        start: ObjectId,
        name: &CompoundName,
    ) -> Entity {
        self.resolve_entity(snap.state(), start, name)
    }

    /// [`Resolver::resolve_entity_snapshot`] backed by a [`SnapshotMemo`].
    ///
    /// Equivalent to the unmemoized variant for every input. Like
    /// [`Resolver::resolve_entity_memo`], a miss walks the path once and
    /// seeds an entry for every suffix it traverses (resolution is
    /// suffix-compositional over a fixed σ). Depth-limit failures are
    /// returned as `⊥` but never memoized: the verdict depends on this
    /// resolver's limit and the memo may be shared between resolvers
    /// configured differently.
    pub fn resolve_entity_snapshot_memo(
        &self,
        snap: &StateSnapshot,
        start: ObjectId,
        name: &CompoundName,
        memo: &mut SnapshotMemo,
    ) -> Entity {
        let (state, comps) = (snap.state(), name.components());
        if comps.len() <= self.depth_limit() {
            if let Some(e) = memo.probe(snap, start, comps) {
                return e;
            }
        }
        let mut walk = SnapshotWalk {
            snap,
            memo,
            positions: Vec::with_capacity(comps.len()),
            tail_shards: Box::default(),
        };
        let entity = self
            .walk(state, start, comps, &mut walk)
            .unwrap_or(Entity::Undefined);
        let SnapshotWalk {
            memo,
            positions,
            tail_shards,
            ..
        } = walk;
        // Seed an entry per walked suffix. The entry at position j depends
        // on the contexts positions[j..] (plus whatever the mid-walk hit
        // already depended on), so accumulate shard footprints from the
        // innermost suffix outward.
        // `acc` is kept sorted by inserting each shard at its position, so
        // each entry records a view of the same buffer with no per-suffix
        // clone-and-sort. (Recorded footprints are sorted, so a tail from a
        // mid-walk hit already is; the sort is a cheap guarantee.)
        let mut acc: Vec<u32> = tail_shards.into_vec();
        acc.sort_unstable();
        for j in (0..positions.len()).rev() {
            let sh = state.shard_of(positions[j]) as u32;
            if let Err(pos) = acc.binary_search(&sh) {
                acc.insert(pos, sh);
            }
            memo.record(snap, positions[j], &comps[j..], entity, &acc);
        }
        entity
    }
}

/// [`Resolver::resolve_entity_snapshot_memo`]'s walk after a whole-name
/// miss: the memo is probed for each shorter suffix, and the walk notes each
/// position it goes on from.
struct SnapshotWalk<'a> {
    snap: &'a StateSnapshot,
    memo: &'a mut SnapshotMemo,
    positions: Vec<ObjectId>,
    /// The shard footprint of a mid-walk hit.
    tail_shards: Box<[u32]>,
}

impl Hook for SnapshotWalk<'_> {
    fn reach(&mut self, at: usize, ctx: ObjectId, rest: &[Name]) -> Option<Entity> {
        if at > 0 {
            if let Some((e, shards)) = self.memo.probe_entry(self.snap, ctx, rest) {
                self.tail_shards = shards;
                return Some(e);
            }
        }
        self.positions.push(ctx);
        None
    }
}

/// [`crate::closure::resolve_with_rule`] against a [`StateSnapshot`].
///
/// The closure mechanism still selects the starting context from the live
/// `registry` — closure is a property of the *resolution request*, not of
/// σ — while the graph walk itself runs against the frozen state.
pub fn resolve_with_rule_snapshot(
    snap: &StateSnapshot,
    registry: &crate::closure::ContextRegistry,
    rule: &dyn crate::closure::ResolutionRule,
    m: &crate::closure::MetaContext,
    name: &CompoundName,
) -> Entity {
    crate::obs::note_meta(rule.rule_name(), m.resolver, m.source.kind());
    match rule.select_context(m, registry) {
        Some(ctx) => Resolver::new().resolve_entity_snapshot(snap, ctx, name),
        None => {
            crate::obs::no_context_selected(name);
            Entity::Undefined
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{ContextRegistry, MetaContext, StandardRule};

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
        assert!(Arc::ptr_eq(&snap.state, &clone.state));
        assert!(snap.same_stamp(&clone));
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
            r.resolve_entity_snapshot(&snap, root, &n),
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
            let want = r.resolve_entity_snapshot(&snap, root, &n);
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
        assert_eq!(memo.stats().resets, 1);
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
        let entries_before = memo.len();

        // Publish after churn confined to shard 1 (zone B).
        let f = s.add_data_object_in(1, "new", vec![]);
        s.bind(zb, Name::new("new"), f).unwrap();
        let snap2 = StateSnapshot::capture(&s);

        // Suffix entries that never left zone A survive the rebase; the
        // root-anchored entries (root is in shard 0, but the /zb walks
        // crossed shard 1) are dropped selectively.
        memo.rebase(&snap2);
        assert!(memo.stats().partial_resets >= 1, "{:?}", memo.stats());
        assert!(memo.len() < entries_before);
        assert!(!memo.is_empty(), "zone-A entries must survive");

        // The surviving zone-A entry is served as a hit.
        let hits = memo.stats().hits;
        assert_eq!(
            r.resolve_entity_snapshot_memo(&snap2, root, &na, &mut memo),
            Entity::Object(fa)
        );
        assert_eq!(memo.stats().hits, hits + 1);
    }

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
        assert!(memo.stats().invalidated > 0);
    }

    #[test]
    fn depth_limit_failures_are_not_memoized() {
        let (s, root, ..) = tree();
        let snap = StateSnapshot::capture(&s);
        let n = CompoundName::parse_path("/etc/passwd").unwrap(); // length 3
        let mut memo = SnapshotMemo::new();
        let shallow = Resolver::with_depth_limit(2);
        assert_eq!(
            shallow.resolve_entity_snapshot_memo(&snap, root, &n, &mut memo),
            Entity::Undefined
        );
        assert!(memo.is_empty());
        // A deeper resolver sharing the memo still gets the real answer.
        let deep = Resolver::new();
        assert!(deep
            .resolve_entity_snapshot_memo(&snap, root, &n, &mut memo)
            .is_defined());
    }

    #[test]
    fn resolve_with_rule_snapshot_matches_live() {
        let (mut s, root, ..) = tree();
        let a = s.add_activity("a");
        let mut reg = ContextRegistry::new();
        reg.set_activity_context(a, root);
        let snap = StateSnapshot::capture(&s);
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        let m = MetaContext::internal(a);
        let live = crate::closure::resolve_with_rule(&s, &reg, &StandardRule::OfResolver, &m, &n);
        let frozen = resolve_with_rule_snapshot(&snap, &reg, &StandardRule::OfResolver, &m, &n);
        assert_eq!(live, frozen);
        // No context selected → ⊥, mirroring the live path.
        let stray = MetaContext::internal(s.add_activity("stray"));
        assert_eq!(
            resolve_with_rule_snapshot(&snap, &reg, &StandardRule::OfResolver, &stray, &n),
            Entity::Undefined
        );
    }
}
