//! Referral and negative caches: routing knowledge and `⊥` verdicts a
//! client may keep — *validated* on every probe, so neither serves what
//! its policy's evidence refutes.
//!
//! DNS resolvers cache referrals (NS records) so repeat lookups skip the
//! root; SDSI's linked local namespaces make the same observation about
//! name-by-name delegation. The paper's §5 warning applies to both: a
//! cached referral is a claim about the bindings along a prefix, and the
//! contexts are free to falsify it. A refuted entry is therefore dropped
//! on sight and the client falls back toward the root — unlike
//! [`CachingResolver`](crate::cache::CachingResolver)'s positive cache,
//! which under the oracle policy serves unvalidated because its staleness
//! is the point.
//!
//! Both caches are thin layers over **one** store under a [`Validity`]
//! policy, which owns the hard parts: borrowed-key probes, O(1) LRU
//! bounding, and the validation rule. The oracle policy itself lives here
//! too — naming-core's [`ResolutionMemo`] validated against the authority's
//! σ; the lease policy, which may not read σ, in [`coherence`](crate::coherence).

use naming_core::entity::{Entity, ObjectId};
use naming_core::memo::ResolutionMemo;
use naming_core::name::Name;
use naming_core::resolve::Resolver;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::coherence::{Moved, Pass, Probe, Validity};
use crate::service::NameService;
use crate::wire::ZoneRead;

/// Default bound on cached referrals / negative entries.
pub const DEFAULT_REFERRAL_CAPACITY: usize = 1 << 10;

/// The oracle policy: entries carry the `(context, generation)` footprint
/// of an authoritative walk and are validated against σ itself — exact
/// coherence, affordable only where the authority's state is in reach (a
/// simulation).
impl Validity for ResolutionMemo {
    type Evidence<'a> = &'a World;

    fn with_capacity(capacity: usize) -> ResolutionMemo {
        ResolutionMemo::with_capacity(capacity)
    }

    fn len(&self) -> usize {
        ResolutionMemo::len(self)
    }

    fn probe(&mut self, world: &World, start: ObjectId, suffix: &[Name]) -> Probe {
        let held = ResolutionMemo::len(self);
        match ResolutionMemo::probe(self, world.state(), start, suffix) {
            Some(e) => Probe::Hit(e),
            // The memo drops a generation-invalid entry on sight.
            None if ResolutionMemo::len(self) < held => Probe::Stale,
            None => Probe::Miss,
        }
    }

    /// Served *without* validation: a client cache has no authoritative
    /// state to validate against — the §5 incoherence this cache measures.
    fn serve(&mut self, _: &World, start: ObjectId, suffix: &[Name]) -> Option<Entity> {
        self.probe_stale(start, suffix)
    }

    /// Re-walks `suffix` at the authority and records under the walk's
    /// generation footprint — non-empty even when the walk fails, so a
    /// later write along it lets `sweep` drop the entry. The entry is kept
    /// only if the walk agrees with `entity` modulo replica group: the network can answer for reasons that are not
    /// naming state — every message lost, a lagging replica, a binding
    /// changed in flight — and a cache that can't justify an entry must not
    /// keep it. An empty footprint (a depth verdict) would validate forever
    /// and is refused too. The walk goes into the memo's own buffer.
    fn record_read(
        &mut self,
        world: &World,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        _zones: &[usize],
        _reads: &[ZoneRead],
    ) -> bool {
        let state = world.state();
        self.record_walk(state, start, suffix, |deps| {
            let oracle = Resolver::new().resolve_entity_deps_into(state, start, suffix, deps);
            let agreed = match (oracle, entity) {
                (Entity::Object(o), Entity::Object(e)) => {
                    o == e || world.replicas().are_replicas(o, e)
                }
                (o, e) => o == e,
            };
            (agreed && !deps.is_empty()).then_some(entity)
        })
    }

    fn remove(&mut self, start: ObjectId, suffix: &[Name]) -> bool {
        ResolutionMemo::remove(self, start, suffix)
    }

    /// Each dropped entry counts as an invalidation.
    fn clear(&mut self) {
        self.invalidate_all();
    }

    /// Generation-based healing: a version comparison per entry, no
    /// re-resolution.
    fn sweep(&mut self, world: &World) -> usize {
        self.invalidate_stale(world.state())
    }
}

/// Counters for a validated cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidatedCacheStats {
    /// Probes answered by a still-valid entry.
    pub hits: u64,
    /// Probes that found nothing valid.
    pub misses: u64,
    /// Entries dropped because the policy's evidence refuted them (a
    /// generation or heard serial moved, a lease lapsed) or nobody serves
    /// their context any more.
    pub invalidated: u64,
    /// Entries recorded.
    pub recorded: u64,
}

/// A validated side cache: one store under the policy `P` and one counter
/// set. What is cached — referrals or `⊥` verdicts — decides only which
/// lookups exist ([`ReferralCache`], [`NegativeCache`]) and which registry
/// counters mirror the set.
#[derive(Debug)]
pub struct Validated<P, const NEGATIVE: bool> {
    store: P,
    stats: ValidatedCacheStats,
}

/// Maps resolved zone prefixes to the context object (and server) that
/// became authoritative there, so a repeat lookup skips straight to the
/// deepest known server instead of walking from the root.
///
/// [`ReferralCache::lookup_deepest`] re-validates on each probe and falls
/// back to the next-shallower prefix (ultimately the root) when an entry
/// is refuted. Under the oracle policy a jump is therefore always
/// equivalent to resolving the prefix afresh — referral caching changes
/// message counts, never answers; under leases it is equivalent within
/// the TTL bound.
pub type ReferralCache<P> = Validated<P, false>;

/// Caches `⊥` outcomes — "this name denotes nothing" — with the footprint
/// of the failed walk, so repeated misses stop hitting the network while
/// a `bind` along the consulted path invalidates the verdict: exactly
/// under the oracle policy, within the TTL bound under leases (a bind the
/// replica hasn't heard about yet leaves a false-⊥ window by design; the
/// bench measures it).
///
/// Under every policy negative entries are validated before being served:
/// serving a refuted "does not exist" would invent incoherence the
/// authoritative system never exhibited.
pub type NegativeCache<P> = Validated<P, true>;

impl<P: Validity, const NEGATIVE: bool> Validated<P, NEGATIVE> {
    /// An empty cache holding at most `capacity` entries (LRU-bounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Validated {
            store: P::with_capacity(capacity),
            stats: ValidatedCacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ValidatedCacheStats {
        self.stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Drops every entry the evidence already refutes
    /// ([`Validity::sweep`]); returns how many.
    pub fn sweep(&mut self, by: P::Evidence<'_>) -> usize {
        let n = self.store.sweep(by);
        self.dropped(n)
    }

    /// Drops, in one pass, every entry the zones a pull heard move may have
    /// changed, and re-stamps the rest ([`Validity::zones_moved`]) — a
    /// referral on any change of its last label.
    pub fn zones_moved(&mut self, moved: Moved<'_>) -> Pass {
        let moved = if NEGATIVE {
            moved
        } else {
            moved.of_referrals()
        };
        let pass = self.store.zones_moved(moved);
        self.dropped(pass.dropped);
        pass
    }

    /// Drops every entry (not counted as invalidations).
    pub fn clear(&mut self) {
        self.store.clear();
    }

    /// Whether the held entry for `(start, name)` may be renewed
    /// ([`Validity::vouched`]).
    pub(crate) fn vouched(&self, start: ObjectId, name: &[Name]) -> bool {
        self.store.vouched(start, name)
    }

    /// Records that `name` from `start` denotes `entity`, having crossed
    /// `zones` and read `reads` ([`Validity::record_read`]) — unless the
    /// verdict is `unreachable` ([`NegativeCache::record`]). Returns
    /// whether an entry was kept.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_read(
        &mut self,
        by: P::Evidence<'_>,
        start: ObjectId,
        name: &[Name],
        entity: Entity,
        zones: &[usize],
        reads: &[ZoneRead],
        unreachable: bool,
    ) -> bool {
        if unreachable {
            naming_telemetry::counter!("cache.unreachable_uncached").bump();
            return false;
        }
        let kept = self
            .store
            .record_read(by, start, name, entity, zones, reads);
        self.stats.recorded += u64::from(kept);
        if kept && NEGATIVE {
            naming_telemetry::counter!("negcache.recorded").bump();
        }
        kept
    }

    /// The one place `hits` and `misses` move, struct and registry together.
    fn looked_up(&mut self, hit: bool) -> bool {
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        match (NEGATIVE, hit) {
            (false, true) => naming_telemetry::counter!("referral.hits").bump(),
            (false, false) => naming_telemetry::counter!("referral.misses").bump(),
            (true, true) => naming_telemetry::counter!("negcache.hits").bump(),
            (true, false) => naming_telemetry::counter!("negcache.misses").bump(),
        }
        hit
    }

    /// The one place `invalidated` moves, likewise.
    fn dropped(&mut self, n: usize) -> usize {
        self.stats.invalidated += n as u64;
        if n > 0 && NEGATIVE {
            naming_telemetry::counter!("negcache.invalidated").add(n as u64);
        } else if n > 0 {
            naming_telemetry::counter!("referral.invalidated").add(n as u64);
        }
        n
    }
}

impl<P: Validity> ReferralCache<P> {
    /// Records that resolving `prefix` from `start` handed authority to
    /// the context object `ctx`, having crossed `zones` — if the policy
    /// can justify the entry ([`Validity::record`]). Returns whether it
    /// was kept.
    pub fn record(
        &mut self,
        by: P::Evidence<'_>,
        start: ObjectId,
        prefix: &[Name],
        ctx: ObjectId,
        zones: &[usize],
    ) -> bool {
        self.record_read(by, start, prefix, Entity::Object(ctx), zones, &[], false)
    }

    /// Finds the deepest cached, still-valid referral for a proper prefix
    /// of `comps` from `start`. Returns `(prefix length, context, machine,
    /// zones the entry depended on)`, the last so the caller can compose
    /// the jumped-over footprint into entries it records downstream.
    /// Refuted entries encountered on the way are dropped (counted in
    /// [`invalidated`](ValidatedCacheStats::invalidated)) and the search
    /// falls back toward the root.
    pub fn lookup_deepest(
        &mut self,
        by: P::Evidence<'_>,
        service: &NameService,
        start: ObjectId,
        comps: &[Name],
    ) -> Option<(usize, ObjectId, MachineId, &[usize])> {
        let mut found = None;
        for len in (1..comps.len()).rev() {
            let probed = self.store.probe(by, start, &comps[..len]);
            let Probe::Hit(Entity::Object(ctx)) = probed else {
                self.dropped(usize::from(probed.dropped()));
                continue;
            };
            // A referral is only useful if somebody still serves the
            // context; placement is service configuration, consulted live
            // under every policy — it is not naming state.
            if let Some(m) = service.machine_of_object(ctx) {
                found = Some((len, ctx, m));
                break;
            }
            self.store.remove(start, &comps[..len]);
            self.dropped(1);
        }
        self.looked_up(found.is_some());
        found.map(|(len, ctx, m)| (len, ctx, m, self.store.footprint(start, &comps[..len])))
    }
}

impl<P: Validity> NegativeCache<P> {
    /// True when `name` from `start` is a cached, still-valid `⊥`.
    pub fn probe(&mut self, by: P::Evidence<'_>, start: ObjectId, name: &[Name]) -> bool {
        let probed = self.store.probe(by, start, name);
        self.dropped(usize::from(probed.dropped()));
        self.looked_up(matches!(probed, Probe::Hit(Entity::Undefined)))
    }

    /// Records the protocol's `⊥` verdict for `name` from `start`, the
    /// failed walk having crossed `zones` — if the policy can justify it
    /// ([`Validity::record`]). Returns whether an entry was recorded.
    ///
    /// `unreachable` is the protocol's own classification of the ⊥: the
    /// verdict came from transport failure (lost messages, exhausted
    /// deadlines, unplaced authorities). That says nothing about the
    /// binding — the name may exist — so under every policy it is refused
    /// here, once, and the next lookup retries.
    pub fn record(
        &mut self,
        by: P::Evidence<'_>,
        start: ObjectId,
        name: &[Name],
        zones: &[usize],
        unreachable: bool,
    ) -> bool {
        let undefined = Entity::Undefined;
        self.record_read(by, start, name, undefined, zones, &[], unreachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::{Heard, LeasedCache, SerialTable};
    use naming_core::name::CompoundName;
    use naming_sim::store;

    type Referrals = ReferralCache<ResolutionMemo>;
    type Negatives = NegativeCache<ResolutionMemo>;

    fn referrals() -> Referrals {
        ReferralCache::with_capacity(DEFAULT_REFERRAL_CAPACITY)
    }

    fn negatives() -> Negatives {
        NegativeCache::with_capacity(DEFAULT_REFERRAL_CAPACITY)
    }

    fn heard(now: u64, ttl: Option<u64>, table: &SerialTable) -> Heard<'_> {
        Heard { now, ttl, table }
    }

    /// The components of an absolute path.
    fn path(p: &str) -> Vec<Name> {
        CompoundName::parse_path(p).unwrap().components().to_vec()
    }

    /// m1 hosts the root tree, m2 hosts /usr/remote.
    fn setup() -> (World, NameService, MachineId, MachineId, ObjectId, ObjectId) {
        let mut w = World::new(91);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let m2 = w.add_machine("m2", net);
        let root = w.machine_root(m1);
        let usr = store::ensure_dir(w.state_mut(), root, "usr");
        let root2 = w.machine_root(m2);
        let rem = store::ensure_dir(w.state_mut(), root2, "export");
        store::create_file(w.state_mut(), rem, "data", vec![]);
        store::attach(w.state_mut(), usr, "remote", rem, false);
        let mut svc = NameService::install(&mut w, &[m1, m2]);
        svc.place_subtree(&w, root2, m2);
        svc.place_subtree(&w, root, m1);
        (w, svc, m1, m2, root, rem)
    }

    #[test]
    fn referral_round_trips_and_jumps_deepest() {
        let (w, svc, _m1, m2, root, rem) = setup();
        let mut cache = referrals();
        let full = path("/usr/remote/data");
        let prefix = path("/usr/remote");
        cache.record(&w, root, &prefix, rem, &[]);
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup_deepest(&w, &svc, root, &full);
        assert_eq!(hit, Some((3, rem, m2, &[][..])));
        assert_eq!(cache.stats().hits, 1);
        // A name that IS the prefix has no proper-prefix referral to use.
        assert_eq!(cache.lookup_deepest(&w, &svc, root, &prefix), None);
    }

    #[test]
    fn wrong_generation_referral_falls_back_toward_root() {
        let (mut w, svc, _m1, m2, root, rem) = setup();
        let mut cache = referrals();
        let full = path("/usr/remote/data");
        let usr = match store::resolve_path(w.state(), root, "/usr") {
            Entity::Object(o) => o,
            other => panic!("usr missing: {other}"),
        };
        cache.record(&w, root, &path("/usr/remote"), rem, &[]);
        cache.record(&w, root, &path("/usr"), usr, &[]);
        // Rebind "remote" inside /usr: the deep referral's footprint
        // includes usr's generation, so it must die; the shallow "/usr"
        // referral only depends on the root and survives.
        let elsewhere = w.state_mut().add_context_object("elsewhere");
        w.state_mut()
            .bind(usr, Name::new("remote"), elsewhere)
            .unwrap();
        let hit = cache.lookup_deepest(&w, &svc, root, &full);
        assert_eq!(
            hit,
            Some((2, usr, _m1, &[][..])),
            "fell back to the /usr prefix"
        );
        assert!(cache.stats().invalidated >= 1);
        let _ = m2;
    }

    #[test]
    fn unjustified_referrals_are_not_recorded() {
        let (w, _svc, _m1, _m2, root, rem) = setup();
        let mut cache = referrals();
        // /usr does not resolve to `rem`; the record must be refused.
        cache.record(&w, root, &path("/usr"), rem, &[]);
        assert!(cache.is_empty());
        // A prefix that doesn't resolve at all is refused too.
        cache.record(&w, root, &path("/nope"), rem, &[]);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().recorded, 0);
    }

    #[test]
    fn replica_referral_is_justified() {
        let (mut w, mut svc, m1, _m2, root, rem) = setup();
        let copy = svc.replicate_zone(&mut w, rem, m1);
        let mut cache = referrals();
        let prefix = path("/usr/remote");
        // The protocol may refer to the replica copy; the oracle resolves
        // the primary — the replica registry justifies the entry.
        cache.record(&w, root, &prefix, copy, &[]);
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup_deepest(&w, &svc, root, &path("/usr/remote/data"));
        assert_eq!(hit, Some((3, copy, m1, &[][..])));
    }

    #[test]
    fn negative_cache_serves_then_invalidates_on_bind() {
        let (mut w, _svc, _m1, _m2, root, rem) = setup();
        let mut neg = negatives();
        let name = path("/usr/remote/nope");
        assert!(!neg.probe(&w, root, &name), "cold cache misses");
        assert!(neg.record(&w, root, &name, &[], false));
        assert!(neg.probe(&w, root, &name), "⊥ now served from cache");
        assert_eq!(neg.stats().hits, 1);
        // Binding the name bumps `rem`'s generation: the verdict dies.
        let f = w.state_mut().add_data_object("nope", vec![]);
        w.state_mut().bind(rem, Name::new("nope"), f).unwrap();
        assert!(!neg.probe(&w, root, &name), "stale ⊥ is never served");
        assert!(neg.stats().invalidated >= 1);
    }

    #[test]
    fn shard_a_write_never_invalidates_shard_b_cache_entries() {
        // Two machines, each zone confined to its own shard of σ. Churn
        // in zone B's shard must neither bump zone A's shard generation
        // nor invalidate referral / negative entries whose footprints
        // live in zone A.
        let mut w = World::with_shards(91, 2);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let root = w.machine_root(m1);
        let usr = store::ensure_dir(w.state_mut(), root, "usr");
        let sub = store::ensure_dir(w.state_mut(), usr, "sub");
        store::create_file(w.state_mut(), sub, "data", vec![]);

        w.state_mut().set_default_shard(1);
        let m2 = w.add_machine("m2", net);
        let root2 = w.machine_root(m2);
        let exp = store::ensure_dir(w.state_mut(), root2, "export");
        store::create_file(w.state_mut(), exp, "data", vec![]);

        let mut svc = NameService::install(&mut w, &[m1, m2]);
        svc.place_subtree(&w, root2, m2);
        svc.place_subtree(&w, root, m1);

        // Zone-A entries: a referral for /usr/sub and a ⊥ for /usr/nope.
        // Both footprints consult only shard-0 contexts.
        let mut cache = referrals();
        let mut neg = negatives();
        let prefix = path("/usr/sub");
        cache.record(&w, root, &prefix, sub, &[]);
        assert_eq!(cache.len(), 1);
        let miss = path("/usr/nope");
        assert!(neg.record(&w, root, &miss, &[], false));

        // Churn entirely inside shard 1 (zone B).
        let va = w.state().shard_version(0);
        for i in 0..8 {
            let f = w.state_mut().add_data_object_in(1, format!("b{i}"), vec![]);
            w.state_mut()
                .bind(exp, Name::new(&format!("b{i}")), f)
                .unwrap();
        }
        assert_eq!(
            w.state().shard_version(0),
            va,
            "shard-B writes must not bump shard A's generation"
        );

        // Both zone-A entries still serve, with zero invalidations.
        let full = path("/usr/sub/data");
        let hit = cache.lookup_deepest(&w, &svc, root, &full);
        assert_eq!(hit, Some((3, sub, m1, &[][..])));
        assert_eq!(cache.stats().invalidated, 0);
        assert!(neg.probe(&w, root, &miss));
        assert_eq!(neg.stats().invalidated, 0);

        // Control: a shard-A write still kills the affected entries.
        let f = w.state_mut().add_data_object_in(0, "nope", vec![]);
        w.state_mut().bind(usr, Name::new("nope"), f).unwrap();
        assert!(!neg.probe(&w, root, &miss));
        assert!(neg.stats().invalidated >= 1);
    }

    #[test]
    fn negative_cache_survives_renumber_but_dies_on_rename() {
        let (mut w, _svc, m1, _m2, root, rem) = setup();
        let mut neg = negatives();
        let name = path("/usr/remote/nope");
        assert!(neg.record(&w, root, &name, &[], false));

        // Renumbering a machine churns topology addresses only — σ is
        // untouched, so the verdict's generation footprint still matches
        // and the cached ⊥ keeps being served (and is still correct).
        w.renumber_machine(m1);
        assert!(neg.probe(&w, root, &name), "renumber must not kill ⊥");
        assert_eq!(neg.stats().invalidated, 0);

        // Renaming the intermediate context bumps `usr`'s generation.
        // The footprint recorded at ⊥-time consulted usr, so the verdict
        // dies even though the terminal context `rem` never changed.
        let usr = match store::resolve_path(w.state(), root, "/usr") {
            Entity::Object(o) => o,
            other => panic!("usr missing: {other}"),
        };
        w.state_mut().unbind(usr, Name::new("remote")).unwrap();
        w.state_mut().bind(usr, Name::new("remote2"), rem).unwrap();
        assert!(!neg.probe(&w, root, &name), "rename must kill cached ⊥");
        assert!(neg.stats().invalidated >= 1);

        // Rename back and re-record, then churn the name away and back
        // *without* probing in between. The bindings end up identical to
        // recording time, but usr's generation moved twice — a verdict
        // is tied to generations, not to binding contents, so the entry
        // (still present, never dropped on sight) must not be served.
        w.state_mut().unbind(usr, Name::new("remote2")).unwrap();
        w.state_mut().bind(usr, Name::new("remote"), rem).unwrap();
        assert!(
            neg.record(&w, root, &name, &[], false),
            "fresh verdict re-records"
        );
        let len_before = neg.len();
        w.state_mut().unbind(usr, Name::new("remote")).unwrap();
        w.state_mut().bind(usr, Name::new("remote2"), rem).unwrap();
        w.state_mut().unbind(usr, Name::new("remote2")).unwrap();
        w.state_mut().bind(usr, Name::new("remote"), rem).unwrap();
        assert_eq!(neg.len(), len_before, "entry untouched until probed");
        assert!(
            !neg.probe(&w, root, &name),
            "pre-churn ⊥ must not be served after rename round-trip"
        );
        assert!(neg.stats().invalidated >= 2);
    }

    #[test]
    fn invalidation_stats_count_each_dropped_entry_exactly_once() {
        // Satellite regression: `stats.invalidated` used to mix a
        // memo-delta with direct bumps, so an entry dropped on the
        // unplaced-machine path risked double counting. Pin the exact
        // correspondence: entries dropped == invalidated counter, across
        // both drop paths in one walk.
        let (mut w, svc, _m1, _m2, root, _rem) = setup();
        let usr = match store::resolve_path(w.state(), root, "/usr") {
            Entity::Object(o) => o,
            other => panic!("usr missing: {other}"),
        };
        // A context bound into the tree AFTER placement ran: resolvable
        // (so `record` accepts the referral) but served by no machine.
        let orphan = store::ensure_dir(w.state_mut(), usr, "orph");
        assert_eq!(svc.machine_of_object(orphan), None);

        let mut cache = referrals();
        let full = path("/usr/orph/data");
        cache.record(&w, root, &path("/usr/orph"), orphan, &[]);
        cache.record(&w, root, &path("/usr"), usr, &[]);
        assert_eq!(cache.len(), 2);

        // Path 1: the deep referral probes valid but nobody serves its
        // context — the walk removes it and falls back to /usr.
        let before = cache.stats().invalidated;
        let hit = cache.lookup_deepest(&w, &svc, root, &full);
        assert_eq!(hit.map(|(len, ..)| len), Some(2), "fell back to /usr");
        let dropped = 2 - cache.len() as u64;
        assert_eq!(
            cache.stats().invalidated - before,
            dropped,
            "each dropped entry counts exactly once (unplaced-machine path)"
        );
        assert_eq!(dropped, 1);

        // Path 2: generation churn — re-record the deep entry, then move
        // "orph" inside /usr so the probe itself drops it.
        cache.record(&w, root, &path("/usr/orph"), orphan, &[]);
        assert_eq!(cache.len(), 2);
        let elsewhere = w.state_mut().add_context_object("elsewhere");
        w.state_mut()
            .bind(usr, Name::new("orph"), elsewhere)
            .unwrap();
        let before = cache.stats().invalidated;
        let len_before = cache.len();
        let hit = cache.lookup_deepest(&w, &svc, root, &full);
        assert_eq!(hit.map(|(len, ..)| len), Some(2), "fell back to /usr");
        assert_eq!(
            cache.stats().invalidated - before,
            (len_before - cache.len()) as u64,
            "each dropped entry counts exactly once (generation path)"
        );
        // Sanity: every lookup is exactly one hit or one miss.
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 2);
    }

    #[test]
    fn leased_referral_round_trip_without_any_state_access() {
        let (_w, svc, _m1, m2, root, rem) = setup();
        let mut cache: ReferralCache<LeasedCache> = ReferralCache::with_capacity(16);
        let mut table = SerialTable::new();
        let full = path("/usr/remote/data");
        let prefix = path("/usr/remote");
        let shard = naming_core::state::SystemState::shard_of_id(root);
        cache.record(heard(10, Some(50), &table), root, &prefix, rem, &[shard]);
        // Valid while the lease holds and serials stand still.
        let hit = cache.lookup_deepest(heard(40, Some(50), &table), &svc, root, &full);
        assert_eq!(
            hit.as_ref().map(|&(len, ctx, m, _)| (len, ctx, m)),
            Some((3, rem, m2))
        );
        assert_eq!(hit.unwrap().3, vec![shard], "zone deps surface on a hit");
        // Expiry exactly at the boundary tick: gone.
        assert_eq!(
            cache.lookup_deepest(heard(60, Some(50), &table), &svc, root, &full),
            None
        );
        assert_eq!(cache.stats().invalidated, 1);
        // Re-record; a heard serial advance kills it before expiry.
        cache.record(heard(100, Some(50), &table), root, &prefix, rem, &[shard]);
        table.observe(shard, naming_core::lease::ZoneSerial::new(1));
        assert_eq!(
            cache.lookup_deepest(heard(101, Some(50), &table), &svc, root, &full),
            None
        );
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn leased_negative_verdicts_respect_ttl_and_refuse_unreachable() {
        let (w, _svc, _m1, _m2, root, _rem) = setup();
        let mut neg: NegativeCache<LeasedCache> = NegativeCache::with_capacity(16);
        let mut table = SerialTable::new();
        let name = path("/usr/remote/nope");
        let shard = naming_core::state::SystemState::shard_of_id(root);
        // An unreachable verdict is refused under either policy: the
        // authority may legitimately be out of reach, and that says
        // nothing about the binding.
        assert!(!negatives().record(&w, root, &name, &[], true));
        assert!(!neg.record(heard(5, Some(30), &table), root, &name, &[shard], true));
        assert!(neg.is_empty());
        // A genuine ⊥ verdict is recorded and served within its lease.
        assert!(neg.record(heard(5, Some(30), &table), root, &name, &[shard], false));
        assert!(neg.probe(heard(34, Some(30), &table), root, &name));
        assert!(
            !neg.probe(heard(35, Some(30), &table), root, &name),
            "lease lapsed"
        );
        // Serial movement also kills a live verdict.
        assert!(neg.record(heard(40, Some(30), &table), root, &name, &[shard], false));
        table.observe(shard, naming_core::lease::ZoneSerial::new(3));
        assert!(!neg.probe(heard(41, Some(30), &table), root, &name));
        assert!(neg.stats().invalidated >= 2);
    }

    #[test]
    fn negative_cache_refuses_protocol_only_failures() {
        let (w, _svc, _m1, _m2, root, _rem) = setup();
        let mut neg = negatives();
        // The oracle CAN resolve this — a network-layer ⊥ (lost messages)
        // must not be cached.
        let name = path("/usr/remote/data");
        assert!(!neg.record(&w, root, &name, &[], false));
        assert!(neg.is_empty());
    }
}
