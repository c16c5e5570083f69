//! Generation-versioned memoization of compound-name resolution.
//!
//! Resolution is a pure function of the traversed context objects'
//! states (§2: "the result depends on the state of the context objects
//! along the resolution path"). That makes its dependency footprint
//! exact and cheap to record: a resolution of `n1…nk` starting at `c`
//! touches at most `k` contexts. [`ResolutionMemo`] caches results keyed
//! on `(start context, name suffix)` and stamps every entry with the
//! *generation* (version counter) of each traversed context.
//!
//! Validation is then a version comparison, not a re-resolution:
//!
//! - **O(1) fast path** — every entry records the
//!   [`SystemState::naming_version`] at which it was last known valid.
//!   While the state's naming version is unchanged, the entry is valid
//!   with no further checks.
//! - **O(shards touched) middle path** — every entry also records the
//!   *shard generations* ([`SystemState::shard_version`]) of the shards
//!   its resolution path crossed. A write to one shard advances only that
//!   shard's generation, so after zone-local churn, entries whose paths
//!   stayed in other shards revalidate by comparing one integer per
//!   touched shard — without even reading the individual contexts.
//! - **O(path) slow path** — otherwise, a probed entry re-checks its
//!   recorded `(context, generation)` pairs. A bind or unbind bumps only
//!   the mutated context's generation, so exactly the entries whose
//!   resolution paths crossed that context fail the check; everything
//!   else revalidates by comparing a handful of integers.
//! - **Epoch flush** — raw escape hatches
//!   ([`SystemState::context_mut`], [`SystemState::object_state_mut`])
//!   may replace state wholesale and can rewind a context's own counter,
//!   so they advance the state *epoch*; entries from an older epoch are
//!   unconditionally stale.
//!
//! Because entries are keyed by suffix, one resolution of `/a/b/c` seeds
//! entries for `b/c` and `c` at the intermediate contexts, which later
//! resolutions of *different* names can reuse.
//!
//! The memo is bounded: inserts beyond capacity evict the least recently
//! used entry. Index, slab and recency list are [`crate::slab_lru::SlabLru`],
//! the store every `(start, suffix)` cache shares; this module adds only
//! the generation-validation rule and its counters.
//!
//! A memo is tied to the one [`SystemState`] it was populated against;
//! probing it with a different state is not meaningful (entries record
//! object ids and counters of the original).

use serde::{Deserialize, Serialize};

use crate::entity::{Entity, ObjectId};
use crate::name::Name;
use crate::slab_lru::{SlabLru, SlotId, Upsert};
use crate::state::SystemState;

/// Default bound on the number of memoized suffixes.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 16;

/// Counters describing how a [`ResolutionMemo`] has behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Probes answered from a (validated) entry.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Entries discarded because a recorded generation or the epoch no
    /// longer matched the state.
    pub invalidations: u64,
    /// Entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Entries inserted.
    pub inserts: u64,
}

impl MemoStats {
    /// Hit rate over all probes, in `[0, 1]`; `0` before any probe.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Probes between pushes of the local [`MemoStats`] into the global
/// metrics registry. Mirroring per batch rather than per operation keeps
/// the probe hot path free of atomics (a validated hit is ~15 ns; one
/// relaxed `fetch_add` would be a measurable fraction of that). The
/// remainder is flushed on [`Drop`], so registry totals are exact once
/// the memo is gone.
#[cfg(feature = "telemetry")]
const MIRROR_BATCH: u64 = 1024;

/// One recorded dependency: a traversed context and the generation its
/// version counter showed during the memoized resolution.
type Dep = (ObjectId, u64);

/// Refills `out` with the distinct shards holding the dep contexts, each
/// with the shard naming version currently observed. Sorted by shard for
/// determinism.
fn shard_footprint(state: &SystemState, deps: &[Dep], out: &mut Vec<(u32, u64)>) {
    out.clear();
    out.extend(deps.iter().map(|&(o, _)| (state.shard_of(o) as u32, 0)));
    out.sort_unstable();
    out.dedup();
    for (shard, version) in out.iter_mut() {
        *version = state.shard_version(*shard as usize);
    }
}

/// What the memo keeps per `(start, suffix)` key in its [`SlabLru`].
#[derive(Clone, Debug, Default)]
struct Entry {
    entity: Entity,
    /// `(context, generation)` for every context the resolution read.
    deps: Vec<Dep>,
    /// `(shard, shard naming version)` for every distinct shard holding a
    /// dep context — the coarse footprint checked before the per-context
    /// deps. Refreshed whenever the entry revalidates.
    shard_deps: Vec<(u32, u64)>,
    /// Epoch of the state when the entry was recorded.
    epoch: u64,
    /// Naming version at which the deps were last compared and found
    /// current; equality with the state's counter short-circuits
    /// validation entirely.
    validated_at: u64,
}

/// A bounded, generation-validated cache of resolution results.
///
/// See the module docs for the invalidation protocol. Use
/// [`crate::resolve::Resolver::resolve_entity_memo`] to drive it, or
/// [`ResolutionMemo::probe`]/[`ResolutionMemo::record`] directly when
/// implementing a resolver.
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
/// let mut memo = ResolutionMemo::new();
/// let name = CompoundName::parse_path("/etc/passwd").unwrap();
/// for _ in 0..3 {
///     assert_eq!(
///         r.resolve_entity_memo(&sys, root, &name, &mut memo),
///         Entity::Object(passwd)
///     );
/// }
/// assert_eq!(memo.stats().hits, 2);
///
/// // Rebinding /etc invalidates the affected entries; the memo heals.
/// let etc2 = sys.add_context_object("etc2");
/// sys.bind(root, Name::new("etc"), etc2).unwrap();
/// assert_eq!(
///     r.resolve_entity_memo(&sys, root, &name, &mut memo),
///     Entity::Undefined
/// );
/// assert!(memo.stats().invalidations > 0);
/// ```
#[derive(Clone, Debug)]
pub struct ResolutionMemo {
    store: SlabLru<Entry>,
    stats: MemoStats,
    /// Scratch for [`ResolutionMemo::record_walk`]'s footprint.
    deps: Vec<Dep>,
    /// The prefix of `stats` already pushed to the global metrics
    /// registry (see `mirror_stats`). Note that cloning a memo clones any
    /// not-yet-mirrored remainder with it, so both copies will eventually
    /// flush it — registry totals are aggregates, per-memo `stats()` is
    /// the exact record.
    #[cfg(feature = "telemetry")]
    mirrored: MemoStats,
}

impl Default for ResolutionMemo {
    fn default() -> ResolutionMemo {
        ResolutionMemo::with_capacity(DEFAULT_MEMO_CAPACITY)
    }
}

/// Flushes the not-yet-mirrored counter remainder, so registry totals
/// are exact once every memo has been dropped.
#[cfg(feature = "telemetry")]
impl Drop for ResolutionMemo {
    fn drop(&mut self) {
        self.mirror_stats();
    }
}

impl ResolutionMemo {
    /// A memo with the default capacity bound.
    pub fn new() -> ResolutionMemo {
        ResolutionMemo::default()
    }

    /// A memo holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> ResolutionMemo {
        ResolutionMemo {
            store: SlabLru::with_capacity(capacity),
            stats: MemoStats::default(),
            deps: Vec::new(),
            #[cfg(feature = "telemetry")]
            mirrored: MemoStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Behavior counters so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Resets the counters (entries are kept).
    pub fn reset_stats(&mut self) {
        #[cfg(feature = "telemetry")]
        self.mirror_stats();
        self.stats = MemoStats::default();
        #[cfg(feature = "telemetry")]
        {
            self.mirrored = MemoStats::default();
        }
    }

    /// Pushes the counter deltas since the last flush into the global
    /// metrics registry (`memo.*`), so memo behavior shows up in
    /// `--metrics` snapshots alongside the other subsystems.
    #[cfg(feature = "telemetry")]
    fn mirror_stats(&mut self) {
        macro_rules! push {
            ($field:ident, $name:literal) => {
                let d = self.stats.$field.saturating_sub(self.mirrored.$field);
                if d > 0 {
                    naming_telemetry::counter!($name).add(d);
                }
            };
        }
        push!(hits, "memo.hits");
        push!(misses, "memo.misses");
        push!(invalidations, "memo.invalidations");
        push!(evictions, "memo.evictions");
        push!(inserts, "memo.inserts");
        self.mirrored = self.stats;
    }

    /// Flushes to the registry every [`MIRROR_BATCH`] probes. Each probe
    /// bumps exactly one of `hits`/`misses`, so their sum counts probes.
    #[inline]
    fn maybe_mirror(&mut self) {
        #[cfg(feature = "telemetry")]
        if (self.stats.hits + self.stats.misses).is_multiple_of(MIRROR_BATCH) {
            self.mirror_stats();
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.store.clear();
    }

    /// Looks up `(start, suffix)` and validates the entry against
    /// `state`'s generation counters. Returns the memoized entity on a
    /// validated hit; removes the entry and returns `None` if it has
    /// been invalidated by a write.
    pub fn probe(
        &mut self,
        state: &SystemState,
        start: ObjectId,
        suffix: &[Name],
    ) -> Option<Entity> {
        let slot = self.probe_slot(state, start, suffix)?;
        Some(self.store.value(slot).entity)
    }

    /// Validating probe that also returns the entry's recorded dependency
    /// generations, so a resolver hitting mid-path can seed entries for the
    /// outer suffixes it walked to get there.
    pub(crate) fn probe_with_deps(
        &mut self,
        state: &SystemState,
        start: ObjectId,
        suffix: &[Name],
    ) -> Option<(Entity, Box<[Dep]>)> {
        let slot = self.probe_slot(state, start, suffix)?;
        let e = self.store.value(slot);
        Some((e.entity, Box::from(&e.deps[..])))
    }

    /// The validating probe proper: counts exactly one of `hits`/`misses`,
    /// makes a validated entry the most recently used, drops an
    /// invalidated one.
    fn probe_slot(
        &mut self,
        state: &SystemState,
        start: ObjectId,
        suffix: &[Name],
    ) -> Option<SlotId> {
        let found = self.store.find(start, suffix);
        let out = match found {
            Some(slot) if validate(state, self.store.value_mut(slot)) => {
                self.stats.hits += 1;
                self.store.touch(slot);
                Some(slot)
            }
            Some(slot) => {
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                self.store.remove(slot);
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        };
        self.maybe_mirror();
        out
    }

    /// Like [`ResolutionMemo::probe`] but *without* validation: returns
    /// whatever is stored, even if the state has moved on. This is the
    /// stale-serving mode used to measure cache incoherence (§5): a
    /// caching resolver that keeps answering from stale entries is
    /// exactly the paper's "cached name resolutions become incoherent
    /// with the authoritative contexts".
    ///
    /// Accounting matches the validating probes: every call bumps
    /// exactly one of `hits`/`misses` (absent → miss, present → hit),
    /// so [`MemoStats::hit_rate`] is comparable across probe variants.
    pub fn probe_stale(&mut self, start: ObjectId, suffix: &[Name]) -> Option<Entity> {
        let Some(slot) = self.store.find(start, suffix) else {
            self.stats.misses += 1;
            self.maybe_mirror();
            return None;
        };
        self.stats.hits += 1;
        self.maybe_mirror();
        self.store.touch(slot);
        Some(self.store.value(slot).entity)
    }

    /// True if the entry for `(start, suffix)` exists but no longer
    /// matches the state's generations (a *stale* entry). False when the
    /// entry is absent or still valid. Read-only: does not touch LRU
    /// order, counters, or the entry itself.
    pub fn is_stale(&self, state: &SystemState, start: ObjectId, suffix: &[Name]) -> bool {
        match self.store.find(start, suffix) {
            Some(slot) => !entry_current(state, self.store.value(slot)),
            None => false,
        }
    }

    /// Records a resolution result with its dependency generations.
    /// `deps` lists every context the resolution read, with the version
    /// counter observed. Refreshes the entry in place if the key is held
    /// (the previous entry may be stale); otherwise evicts the least
    /// recently used entry if the memo is full. A slot is refilled in place.
    pub fn record(
        &mut self,
        state: &SystemState,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        deps: &[Dep],
    ) {
        let (how, e) = self.store.upsert(start, suffix);
        e.entity = entity;
        e.deps.clear();
        e.deps.extend_from_slice(deps);
        shard_footprint(state, deps, &mut e.shard_deps);
        (e.epoch, e.validated_at) = (state.epoch(), state.naming_version());
        if let Upsert::Inserted { evicted } = how {
            self.stats.evictions += u64::from(evicted);
            self.stats.inserts += 1;
        }
    }

    /// Records what `walk` settles on (nothing for `None`) under the footprint
    /// it walked into the memo's own buffer; returns whether it recorded.
    pub fn record_walk(
        &mut self,
        state: &SystemState,
        start: ObjectId,
        suffix: &[Name],
        walk: impl FnOnce(&mut Vec<Dep>) -> Option<Entity>,
    ) -> bool {
        let mut deps = std::mem::take(&mut self.deps);
        let recorded = walk(&mut deps).map(|e| self.record(state, start, suffix, e, &deps));
        self.deps = deps;
        recorded.is_some()
    }

    /// Removes the entry for `(start, suffix)` regardless of validity,
    /// counting it as an invalidation. Returns whether an entry existed.
    pub fn remove(&mut self, start: ObjectId, suffix: &[Name]) -> bool {
        match self.store.find(start, suffix) {
            Some(slot) => {
                self.stats.invalidations += 1;
                self.store.remove(slot);
                true
            }
            None => false,
        }
    }

    /// Drops every entry, counting each as an invalidation (compare
    /// [`ResolutionMemo::clear`], which does not touch the counters).
    pub fn invalidate_all(&mut self) {
        self.stats.invalidations += self.store.len() as u64;
        self.clear();
    }

    /// Iterates over the cached entries as `(start, suffix, entity)`, in
    /// lexicographic `(start, suffix)` order (deterministic regardless of
    /// insertion history).
    pub fn entries(&self) -> impl Iterator<Item = (ObjectId, &[Name], Entity)> + '_ {
        let mut entries: Vec<_> = self
            .store
            .iter()
            .map(|(start, suffix, e)| (start, suffix, e.entity))
            .collect();
        entries.sort_unstable();
        entries.into_iter()
    }

    /// Sweeps the memo, removing every entry invalidated by writes since
    /// it was recorded. Returns how many entries were dropped. This is
    /// the "heal" operation of a caching resolver that has been serving
    /// stale entries.
    pub fn invalidate_stale(&mut self, state: &SystemState) -> usize {
        let dropped = self.store.retain(|e| entry_current(state, e));
        self.stats.invalidations += dropped as u64;
        dropped
    }
}

/// Validates an entry against the state, refreshing its fast-path stamp
/// on success. Three tiers: the O(1) naming-version stamp, the per-shard
/// generation footprint, then the exact per-context deps.
fn validate(state: &SystemState, e: &mut Entry) -> bool {
    let nv = state.naming_version();
    if e.validated_at == nv {
        return true;
    }
    if e.epoch != state.epoch() {
        return false;
    }
    // Shard tier: with the epoch unchanged, a dep context can only have
    // moved via bind/unbind, which bumps its shard's generation. All
    // touched shards unwritten ⇒ every dep unchanged.
    let unwritten = (e.shard_deps.iter()).all(|&(sh, v)| state.shard_version(sh as usize) == v);
    if !unwritten {
        if !entry_current(state, e) {
            return false;
        }
        for d in e.shard_deps.iter_mut() {
            d.1 = state.shard_version(d.0 as usize);
        }
    }
    e.validated_at = nv;
    true
}

/// The full generation check: same epoch, and every traversed context
/// still shows the recorded generation.
fn entry_current(state: &SystemState, e: &Entry) -> bool {
    e.epoch == state.epoch()
        && e.deps
            .iter()
            .all(|&(o, generation)| match state.context(o) {
                Some(c) => c.version() == generation,
                None => false,
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::CompoundName;
    use crate::resolve::Resolver;

    fn tree() -> (SystemState, ObjectId, ObjectId, ObjectId) {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        let passwd = s.add_data_object("passwd", b"x".to_vec());
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("etc"), etc).unwrap();
        s.bind(etc, Name::new("passwd"), passwd).unwrap();
        (s, root, etc, passwd)
    }

    #[test]
    fn repeated_resolves_hit() {
        let (s, root, _, passwd) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        for _ in 0..10 {
            assert_eq!(
                r.resolve_entity_memo(&s, root, &n, &mut memo),
                Entity::Object(passwd)
            );
        }
        assert_eq!(memo.stats().hits, 9);
        assert!(memo.stats().inserts >= 1);
    }

    #[test]
    fn suffix_entries_are_shared_across_names() {
        let (s, root, etc, passwd) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let long = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &long, &mut memo);
        // The suffix "passwd" at etc was seeded by the longer resolution.
        // (Not parse_path: relative paths get a leading "." component.)
        let short = CompoundName::atom(Name::new("passwd"));
        let before = memo.stats().hits;
        assert_eq!(
            r.resolve_entity_memo(&s, etc, &short, &mut memo),
            Entity::Object(passwd)
        );
        assert_eq!(memo.stats().hits, before + 1);
    }

    #[test]
    fn bind_invalidates_exactly_affected_entries() {
        let (mut s, root, etc, passwd) = tree();
        let usr = s.add_context_object("usr");
        let vi = s.add_data_object("vi", vec![]);
        s.bind(root, Name::new("usr"), usr).unwrap();
        s.bind(usr, Name::new("vi"), vi).unwrap();

        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n_etc = CompoundName::parse_path("/etc/passwd").unwrap();
        let n_usr = CompoundName::parse_path("/usr/vi").unwrap();
        r.resolve_entity_memo(&s, root, &n_etc, &mut memo);
        r.resolve_entity_memo(&s, root, &n_usr, &mut memo);

        // Mutating etc only: /usr/vi entries survive, /etc/passwd dies —
        // but both resolutions still read `root`, so only the pure-suffix
        // entry under etc distinguishes them. Mutate etc:
        s.bind(etc, Name::new("group"), passwd).unwrap();

        // The suffix entry (etc, "passwd") is stale (etc's generation
        // moved); the (usr, "vi") suffix entry is not.
        assert!(memo.is_stale(&s, etc, &[Name::new("passwd")]));
        assert!(!memo.is_stale(&s, usr, &[Name::new("vi")]));

        // Probing revalidates or removes; results stay correct.
        assert_eq!(
            r.resolve_entity_memo(&s, root, &n_usr, &mut memo),
            Entity::Object(vi)
        );
        assert_eq!(
            r.resolve_entity_memo(&s, root, &n_etc, &mut memo),
            Entity::Object(passwd)
        );
        assert!(memo.stats().invalidations > 0);
    }

    #[test]
    fn escape_hatch_epoch_invalidates_everything() {
        let (mut s, root, etc, _) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &n, &mut memo);

        // Replace etc's context wholesale through the escape hatch; its
        // own version counter rewinds, but the epoch catches it.
        *s.context_mut(etc).unwrap() = crate::context::Context::new();
        assert!(memo.is_stale(&s, root, n.components()));
        assert_eq!(
            r.resolve_entity_memo(&s, root, &n, &mut memo),
            Entity::Undefined
        );
    }

    #[test]
    fn context_to_data_replacement_is_caught() {
        let (mut s, root, etc, _) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &n, &mut memo);
        *s.object_state_mut(etc) = crate::state::ObjectState::Data(vec![]);
        assert_eq!(
            r.resolve_entity_memo(&s, root, &n, &mut memo),
            Entity::Undefined
        );
    }

    #[test]
    fn lru_eviction_respects_bound_and_recency() {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let mut files = Vec::new();
        for i in 0..8 {
            let f = s.add_data_object(format!("f{i}"), vec![]);
            s.bind(root, Name::new(&format!("f{i}")), f).unwrap();
            files.push(f);
        }
        let r = Resolver::new();
        let mut memo = ResolutionMemo::with_capacity(4);
        let names: Vec<CompoundName> = (0..8)
            .map(|i| CompoundName::parse_path(&format!("f{i}")).unwrap())
            .collect();
        for n in &names {
            r.resolve_entity_memo(&s, root, n, &mut memo);
        }
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.stats().evictions, 4);
        // The most recent four (f4..f7) survive; f0 was evicted.
        let before = memo.stats().hits;
        r.resolve_entity_memo(&s, root, &names[7], &mut memo);
        assert_eq!(memo.stats().hits, before + 1);
        let misses_before = memo.stats().misses;
        r.resolve_entity_memo(&s, root, &names[0], &mut memo);
        assert_eq!(memo.stats().misses, misses_before + 1);
    }

    #[test]
    fn stale_probe_serves_then_sweep_heals() {
        let (mut s, root, _, passwd) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &n, &mut memo);

        // Point /etc elsewhere; a stale probe still serves the old answer.
        let etc2 = s.add_context_object("etc2");
        s.bind(root, Name::new("etc"), etc2).unwrap();
        assert_eq!(
            memo.probe_stale(root, n.components()),
            Some(Entity::Object(passwd))
        );
        // The sweep drops stale entries; the stale probe now misses.
        assert!(memo.invalidate_stale(&s) > 0);
        assert_eq!(memo.probe_stale(root, n.components()), None);
    }

    #[test]
    fn every_probe_variant_bumps_exactly_one_of_hits_or_misses() {
        // `MemoStats::hit_rate` divides hits by hits+misses, so the sum
        // must count probes no matter which probe variant served them:
        // `probe`, `probe_with_deps`, and `probe_stale` each bump exactly
        // one of the two counters on every call (a validation failure
        // counts as a miss, never as "neither").
        let (mut s, root, _, passwd) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &n, &mut memo);

        let probes_before = memo.stats().hits + memo.stats().misses;
        let absent = CompoundName::parse_path("/no/such").unwrap();

        // Absent entry: all three variants must count a miss.
        let m0 = memo.stats().misses;
        assert_eq!(memo.probe_stale(root, absent.components()), None);
        assert_eq!(memo.stats().misses, m0 + 1);
        assert_eq!(memo.probe(&s, root, absent.components()), None);
        assert_eq!(memo.stats().misses, m0 + 2);
        assert_eq!(memo.probe_with_deps(&s, root, absent.components()), None);
        assert_eq!(memo.stats().misses, m0 + 3);

        // Present, current entry: all three variants must count a hit.
        let h0 = memo.stats().hits;
        assert_eq!(
            memo.probe_stale(root, n.components()),
            Some(Entity::Object(passwd))
        );
        assert_eq!(memo.stats().hits, h0 + 1);
        assert!(memo.probe(&s, root, n.components()).is_some());
        assert_eq!(memo.stats().hits, h0 + 2);
        assert!(memo.probe_with_deps(&s, root, n.components()).is_some());
        assert_eq!(memo.stats().hits, h0 + 3);

        // Present but invalidated entry: a validating probe counts a
        // miss (plus an invalidation), while the stale probe still
        // serves it as a hit — by design, but both count the probe.
        let etc2 = s.add_context_object("etc2");
        s.bind(root, Name::new("etc"), etc2).unwrap();
        let h1 = memo.stats().hits;
        assert!(memo.probe_stale(root, n.components()).is_some());
        assert_eq!(memo.stats().hits, h1 + 1);
        let m1 = memo.stats().misses;
        let inv = memo.stats().invalidations;
        assert_eq!(memo.probe(&s, root, n.components()), None);
        assert_eq!(memo.stats().misses, m1 + 1);
        assert_eq!(memo.stats().invalidations, inv + 1);

        // The invariant itself: eight probes, eight counts.
        let probes_after = memo.stats().hits + memo.stats().misses;
        assert_eq!(probes_after, probes_before + 8);
        let stats = memo.stats();
        let expected = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        assert!((stats.hit_rate() - expected).abs() < 1e-12);
    }

    #[test]
    fn cross_shard_write_leaves_entries_valid_without_dep_walk() {
        // Two zones in two shards; a write to zone B must not invalidate
        // the memoized resolution through zone A, and the entry must
        // revalidate via the shard tier (its deps untouched).
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

        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let na = CompoundName::parse_path("/za/fa").unwrap();
        r.resolve_entity_memo(&s, root, &na, &mut memo);

        // Churn confined to shard 1.
        let v0 = s.shard_version(0);
        for i in 0..5 {
            let f = s.add_data_object_in(1, format!("x{i}"), vec![]);
            s.bind(zb, Name::new(&format!("x{i}")), f).unwrap();
        }
        assert_eq!(s.shard_version(0), v0);

        // The zone-A entry is not stale and hits again.
        assert!(!memo.is_stale(&s, root, na.components()));
        let hits = memo.stats().hits;
        assert_eq!(
            r.resolve_entity_memo(&s, root, &na, &mut memo),
            Entity::Object(fa)
        );
        assert_eq!(memo.stats().hits, hits + 1);
        assert_eq!(memo.stats().invalidations, 0);
    }

    #[test]
    fn same_shard_write_still_invalidates() {
        let mut s = SystemState::with_shards(2);
        let root = s.add_context_object_in(0, "root");
        let za = s.add_context_object_in(0, "za");
        let fa = s.add_data_object_in(0, "fa", vec![]);
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("za"), za).unwrap();
        s.bind(za, Name::new("fa"), fa).unwrap();

        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let na = CompoundName::parse_path("/za/fa").unwrap();
        r.resolve_entity_memo(&s, root, &na, &mut memo);

        s.unbind(za, Name::new("fa")).unwrap();
        assert!(memo.is_stale(&s, za, &[Name::new("fa")]));
        assert_eq!(
            r.resolve_entity_memo(&s, root, &na, &mut memo),
            Entity::Undefined
        );
        assert!(memo.stats().invalidations > 0);
    }

    #[test]
    fn unaffected_entries_revalidate_after_unrelated_write() {
        let (mut s, root, _, passwd) = tree();
        let r = Resolver::new();
        let mut memo = ResolutionMemo::new();
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        r.resolve_entity_memo(&s, root, &n, &mut memo);

        // A bind in a context nowhere near the path: entry revalidates
        // (slow path) and still hits.
        let side = s.add_context_object("side");
        let f = s.add_data_object("f", vec![]);
        s.bind(side, Name::new("f"), f).unwrap();
        let hits = memo.stats().hits;
        assert_eq!(
            r.resolve_entity_memo(&s, root, &n, &mut memo),
            Entity::Object(passwd)
        );
        assert_eq!(memo.stats().hits, hits + 1);
        assert_eq!(memo.stats().invalidations, 0);
    }
}
