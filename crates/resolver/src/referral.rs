//! Referral and negative caches: routing knowledge and `⊥` verdicts a
//! client may keep — *with* generation validation, so neither ever
//! returns a stale answer.
//!
//! DNS resolvers cache referrals (NS records) so repeat lookups skip the
//! root; SDSI's linked local namespaces make the same observation about
//! name-by-name delegation. The paper's §5 warning applies to both: a
//! cached referral is a claim about the bindings along a prefix, and the
//! contexts are free to falsify it. These caches therefore record the
//! full generation footprint of the prefix (PR-1 counters) and validate
//! it on every probe: a wrong-generation entry is dropped on sight and
//! the client falls back toward the root. That makes them *coherent*
//! caches — unlike [`CachingResolver`](crate::cache::CachingResolver)'s
//! deliberately incoherent positive cache, whose staleness is the point.
//!
//! Both caches are thin policies over naming-core's
//! [`ResolutionMemo`], which already owns the hard parts: borrowed-key
//! probes, O(1) LRU bounding, and epoch/generation validation.

use naming_core::entity::{Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::memo::ResolutionMemo;
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::coherence::{CoherenceMode, LeaseProbe, LeasedCache, SerialTable};
use crate::service::NameService;

/// Default bound on cached referrals / negative entries.
pub const DEFAULT_REFERRAL_CAPACITY: usize = 1 << 10;

/// Counters for a validated cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidatedCacheStats {
    /// Probes answered by a still-valid entry.
    pub hits: u64,
    /// Probes that found nothing valid.
    pub misses: u64,
    /// Entries dropped because their generation footprint no longer
    /// matched the authoritative state.
    pub invalidated: u64,
    /// Entries recorded.
    pub recorded: u64,
}

/// Maps resolved zone prefixes to the context object (and server) that
/// became authoritative there, so a repeat lookup skips straight to the
/// deepest known server instead of walking from the root.
///
/// Every entry carries the `(context, generation)` footprint of its
/// prefix; [`ReferralCache::lookup_deepest`] re-validates on each probe
/// and falls back to the next-shallower prefix (ultimately the root)
/// when a generation moved. A jump is therefore always equivalent to
/// resolving the prefix afresh — referral caching changes message
/// counts, never answers.
#[derive(Debug)]
pub struct ReferralCache {
    memo: ResolutionMemo,
    leased: LeasedCache,
    mode: CoherenceMode,
    stats: ValidatedCacheStats,
}

impl ReferralCache {
    /// An empty cache with the default bound, in exact mode.
    pub fn new() -> ReferralCache {
        ReferralCache::with_capacity(DEFAULT_REFERRAL_CAPACITY)
    }

    /// An empty exact-mode cache holding at most `capacity` referrals
    /// (LRU-bounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> ReferralCache {
        ReferralCache::with_mode(capacity, CoherenceMode::Exact)
    }

    /// An empty cache holding at most `capacity` referrals, validating
    /// per `mode`: exact entries live in the generation-versioned memo,
    /// leased entries in a [`LeasedCache`] that never reads σ.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_mode(capacity: usize, mode: CoherenceMode) -> ReferralCache {
        ReferralCache {
            memo: ResolutionMemo::with_capacity(capacity),
            leased: LeasedCache::with_capacity(capacity),
            mode,
            stats: ValidatedCacheStats::default(),
        }
    }

    /// The validation regime this cache runs under.
    pub fn mode(&self) -> CoherenceMode {
        self.mode
    }

    /// Counters so far.
    pub fn stats(&self) -> ValidatedCacheStats {
        self.stats
    }

    /// Number of cached referrals.
    pub fn len(&self) -> usize {
        self.memo.len() + self.leased.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty() && self.leased.is_empty()
    }

    /// Records that resolving `prefix` from `start` handed authority to
    /// the context object `ctx`.
    ///
    /// The entry's validity footprint is the generation of every context
    /// the prefix traverses *now*; if the oracle walk disagrees with the
    /// protocol's referral (a lagging replica answered, or the binding
    /// changed while the referral was in flight), nothing is recorded —
    /// a cache that can't justify an entry must not keep it.
    pub fn record(&mut self, world: &World, start: ObjectId, prefix: &CompoundName, ctx: ObjectId) {
        debug_assert!(
            self.mode.is_exact(),
            "ReferralCache::record reads authoritative state; lease mode must use record_leased"
        );
        let (oracle, deps) = Resolver::new().resolve_entity_with_deps(world.state(), start, prefix);
        let justified = match oracle {
            Entity::Object(o) => o == ctx || world.replicas().are_replicas(o, ctx),
            _ => false,
        };
        if !justified || deps.is_empty() {
            return;
        }
        self.memo.record(
            world.state(),
            start,
            prefix.components(),
            Entity::Object(ctx),
            &deps,
        );
        self.stats.recorded += 1;
    }

    /// Finds the deepest cached, still-valid referral for a proper prefix
    /// of `comps` from `start`. Returns `(prefix length, context,
    /// machine)`; generation-invalid entries encountered on the way are
    /// dropped (counted in
    /// [`invalidated`](ValidatedCacheStats::invalidated)) and the search
    /// falls back toward the root.
    pub fn lookup_deepest(
        &mut self,
        world: &World,
        service: &NameService,
        start: ObjectId,
        comps: &[Name],
    ) -> Option<(usize, ObjectId, MachineId)> {
        debug_assert!(
            self.mode.is_exact(),
            "ReferralCache::lookup_deepest validates against authoritative state; \
             lease mode must use lookup_deepest_leased"
        );
        // Every entry this walk drops — generation-invalid probes and
        // unplaced-machine removals alike — bumps the memo's own
        // invalidation counter exactly once, so one delta over the whole
        // walk is the single source of truth for `stats.invalidated`.
        // (Mixing the delta with direct bumps is how entries get counted
        // twice or zero times.)
        let invalidations0 = self.memo.stats().invalidations;
        let mut found = None;
        for len in (1..comps.len()).rev() {
            let probed = self.memo.probe(world.state(), start, &comps[..len]);
            let Some(Entity::Object(ctx)) = probed else {
                continue;
            };
            // A referral is only useful if somebody still serves the
            // context; placement is consulted live, never cached.
            match service.machine_of_object(ctx) {
                Some(m) => {
                    found = Some((len, ctx, m));
                    break;
                }
                None => {
                    self.memo.remove(start, &comps[..len]);
                }
            }
        }
        let dropped = self.memo.stats().invalidations - invalidations0;
        self.stats.invalidated += dropped;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("referral.invalidated").add(dropped);
        match found {
            Some(hit) => {
                self.stats.hits += 1;
                #[cfg(feature = "telemetry")]
                naming_telemetry::counter!("referral.hits").bump();
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                #[cfg(feature = "telemetry")]
                naming_telemetry::counter!("referral.misses").bump();
                None
            }
        }
    }

    /// Lease-mode [`ReferralCache::record`]: remembers that resolving
    /// `prefix` from `start` handed authority to `ctx`, justified by
    /// nothing but the protocol's own referral — stamped with a lease and
    /// the serials (from `table`) of `zones`, the shards the walk
    /// traversed. No oracle check: a lagging authority *may* plant a
    /// stale referral here, and the lease bounds how long it can mislead.
    pub fn record_leased(
        &mut self,
        now: u64,
        table: &SerialTable,
        start: ObjectId,
        prefix: &CompoundName,
        ctx: ObjectId,
        zones: impl IntoIterator<Item = usize>,
    ) {
        debug_assert!(
            self.mode.is_lease(),
            "record_leased grants leases; exact mode must use record"
        );
        self.leased.record(
            now,
            self.mode.lease_ttl(),
            start,
            prefix.components(),
            Entity::Object(ctx),
            zones,
            table,
        );
        self.stats.recorded += 1;
    }

    /// Lease-mode [`ReferralCache::lookup_deepest`]: finds the deepest
    /// cached referral whose lease holds at `now` and whose zone stamps
    /// match the serials heard in `table` — two replica-local checks,
    /// never a read of σ. Returns `(prefix length, context, machine,
    /// zones the entry depended on)` so the caller can compose the
    /// jumped-over footprint into entries it records downstream.
    pub fn lookup_deepest_leased(
        &mut self,
        now: u64,
        table: &SerialTable,
        service: &NameService,
        start: ObjectId,
        comps: &[Name],
    ) -> Option<(usize, ObjectId, MachineId, &[usize])> {
        debug_assert!(
            self.mode.is_lease(),
            "lookup_deepest_leased validates leases; exact mode must use lookup_deepest"
        );
        for len in (1..comps.len()).rev() {
            let probed = self.leased.probe(now, table, start, &comps[..len]);
            let LeaseProbe::Hit(Entity::Object(ctx)) = probed else {
                if matches!(probed, LeaseProbe::Expired | LeaseProbe::Stale) {
                    self.stats.invalidated += 1;
                    #[cfg(feature = "telemetry")]
                    naming_telemetry::counter!("referral.invalidated").bump();
                }
                continue;
            };
            // Placement is service configuration, consulted live in both
            // modes — it is not naming state.
            match service.machine_of_object(ctx) {
                Some(m) => {
                    self.stats.hits += 1;
                    #[cfg(feature = "telemetry")]
                    naming_telemetry::counter!("referral.hits").bump();
                    return Some((len, ctx, m, self.leased.zone_deps(start, &comps[..len])));
                }
                None => {
                    self.leased.remove(start, &comps[..len]);
                    self.stats.invalidated += 1;
                    #[cfg(feature = "telemetry")]
                    naming_telemetry::counter!("referral.invalidated").bump();
                }
            }
        }
        self.stats.misses += 1;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("referral.misses").bump();
        None
    }

    /// Drops every leased entry depending on `shard` with a stamp other
    /// than `serial` (anti-entropy observed movement). Returns how many.
    pub fn observe_zone(&mut self, shard: usize, serial: ZoneSerial) -> usize {
        let n = self.leased.invalidate_zone(shard, serial);
        self.stats.invalidated += n as u64;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("referral.invalidated").add(n as u64);
        n
    }

    /// Drops every leased entry whose lease lapsed at `now`; returns how
    /// many. Exact entries are untouched (they have no leases).
    pub fn sweep_expired(&mut self, now: u64) -> usize {
        let n = self.leased.sweep_expired(now);
        self.stats.invalidated += n as u64;
        n
    }

    /// Drops every entry (exact and leased alike).
    pub fn invalidate_all(&mut self) {
        self.memo.invalidate_all();
        self.leased.clear();
    }

    /// Drops exactly the entries whose generation footprint is stale.
    /// Returns how many were dropped. (Probes do this lazily anyway;
    /// sweeping just reclaims the space eagerly.)
    pub fn heal(&mut self, world: &World) -> usize {
        debug_assert!(
            self.mode.is_exact(),
            "ReferralCache::heal compares authoritative generations; \
             lease mode heals via observe_zone / sweep_expired"
        );
        let n = self.memo.invalidate_stale(world.state());
        self.stats.invalidated += n as u64;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("referral.invalidated").add(n as u64);
        n
    }
}

impl Default for ReferralCache {
    fn default() -> ReferralCache {
        ReferralCache::new()
    }
}

/// Caches `⊥` outcomes — "this name denotes nothing" — with the
/// generation footprint of the failed walk, so repeated misses stop
/// hitting the network while a `bind` anywhere along the consulted path
/// invalidates the verdict exactly.
///
/// Unlike the positive cache, negative entries are *always* validated
/// before being served: serving a stale "does not exist" would invent
/// incoherence the authoritative system never exhibited.
#[derive(Debug)]
pub struct NegativeCache {
    memo: ResolutionMemo,
    leased: LeasedCache,
    mode: CoherenceMode,
    stats: ValidatedCacheStats,
}

impl NegativeCache {
    /// An empty cache with the default bound, in exact mode.
    pub fn new() -> NegativeCache {
        NegativeCache::with_capacity(DEFAULT_REFERRAL_CAPACITY)
    }

    /// An empty exact-mode cache holding at most `capacity` verdicts
    /// (LRU-bounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> NegativeCache {
        NegativeCache::with_mode(capacity, CoherenceMode::Exact)
    }

    /// An empty cache holding at most `capacity` verdicts, validating
    /// per `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_mode(capacity: usize, mode: CoherenceMode) -> NegativeCache {
        NegativeCache {
            memo: ResolutionMemo::with_capacity(capacity),
            leased: LeasedCache::with_capacity(capacity),
            mode,
            stats: ValidatedCacheStats::default(),
        }
    }

    /// The validation regime this cache runs under.
    pub fn mode(&self) -> CoherenceMode {
        self.mode
    }

    /// Counters so far.
    pub fn stats(&self) -> ValidatedCacheStats {
        self.stats
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.memo.len() + self.leased.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty() && self.leased.is_empty()
    }

    /// True when `name` from `start` is a cached, still-valid `⊥`.
    pub fn probe(&mut self, world: &World, start: ObjectId, name: &CompoundName) -> bool {
        debug_assert!(
            self.mode.is_exact(),
            "NegativeCache::probe validates against authoritative state; \
             lease mode must use probe_leased"
        );
        let invalidations0 = self.memo.stats().invalidations;
        let hit = matches!(
            self.memo.probe(world.state(), start, name.components()),
            Some(Entity::Undefined)
        );
        self.stats.invalidated += self.memo.stats().invalidations - invalidations0;
        if hit {
            self.stats.hits += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.hits").bump();
        } else {
            self.stats.misses += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.misses").bump();
        }
        hit
    }

    /// Records a `⊥` verdict the *authoritative state* agrees with.
    ///
    /// The network can answer `⊥` for reasons that are not naming state
    /// at all — every message lost, an unplaced zone — and caching those
    /// would keep denying a name that exists. So the verdict is only
    /// recorded when the oracle walk also fails, and its generation
    /// footprint (from
    /// [`Resolver::resolve_entity_with_deps`]) is non-empty. Returns
    /// whether an entry was recorded.
    pub fn record(&mut self, world: &World, start: ObjectId, name: &CompoundName) -> bool {
        debug_assert!(
            self.mode.is_exact(),
            "NegativeCache::record consults the oracle; lease mode must use record_verdict_leased"
        );
        let (oracle, deps) = Resolver::new().resolve_entity_with_deps(world.state(), start, name);
        if oracle.is_defined() || deps.is_empty() {
            return false;
        }
        self.memo.record(
            world.state(),
            start,
            name.components(),
            Entity::Undefined,
            &deps,
        );
        self.stats.recorded += 1;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("negcache.recorded").bump();
        true
    }

    /// Like [`NegativeCache::record`], but carries the protocol's own
    /// classification of the ⊥: `unreachable` means the verdict came from
    /// transport failure (lost messages, exhausted deadlines, unplaced
    /// authorities), which must never become a negative entry — the
    /// binding may exist. Callers are expected to filter those out before
    /// getting here; the debug assertion keeps the invariant loud if a
    /// future call site forgets, and release builds still refuse to
    /// record.
    pub fn record_protocol_verdict(
        &mut self,
        world: &World,
        start: ObjectId,
        name: &CompoundName,
        unreachable: bool,
    ) -> bool {
        // Mode-gated assertion: under Exact coherence the caller had an
        // oracle to consult, so an Unreachable verdict reaching this
        // point is a caller bug. Under leases the authority may
        // legitimately be unreachable when the verdict is recorded — the
        // invariant that transport ⊥ is never cached still holds (the
        // early return below), it just isn't a programming error.
        debug_assert!(
            self.mode.is_lease() || !unreachable,
            "an Unreachable verdict for {name} must not reach the exact negative cache"
        );
        if unreachable {
            return false;
        }
        match self.mode {
            CoherenceMode::Exact => self.record(world, start, name),
            // Lease verdicts carry serial stamps the `World` cannot
            // provide; they are recorded through record_verdict_leased.
            CoherenceMode::Lease { .. } => false,
        }
    }

    /// Lease-mode `⊥` probe: true when a cached verdict's lease holds at
    /// `now` and its zone stamps match the serials heard in `table`. A
    /// false-⊥ window is possible by design — a bind the replica hasn't
    /// heard about yet — and bounded by the TTL; the bench measures it.
    pub fn probe_leased(
        &mut self,
        now: u64,
        table: &SerialTable,
        start: ObjectId,
        name: &CompoundName,
    ) -> bool {
        debug_assert!(
            self.mode.is_lease(),
            "probe_leased validates leases; exact mode must use probe"
        );
        let probed = self.leased.probe(now, table, start, name.components());
        if matches!(probed, LeaseProbe::Expired | LeaseProbe::Stale) {
            self.stats.invalidated += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.invalidated").bump();
        }
        let hit = matches!(probed, LeaseProbe::Hit(Entity::Undefined));
        if hit {
            self.stats.hits += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.hits").bump();
        } else {
            self.stats.misses += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.misses").bump();
        }
        hit
    }

    /// Lease-mode verdict recording: stores a `⊥` under a lease stamped
    /// with the serials (from `table`) of `zones`, the shards the failed
    /// walk traversed — no oracle agreement required or possible. An
    /// `unreachable` (transport) verdict is still refused in both modes:
    /// it says nothing about the binding. Returns whether an entry was
    /// recorded.
    pub fn record_verdict_leased(
        &mut self,
        now: u64,
        table: &SerialTable,
        start: ObjectId,
        name: &CompoundName,
        zones: impl IntoIterator<Item = usize>,
        unreachable: bool,
    ) -> bool {
        debug_assert!(
            self.mode.is_lease(),
            "record_verdict_leased grants leases; exact mode must use record_protocol_verdict"
        );
        if unreachable {
            return false;
        }
        let before = self.leased.stats().recorded;
        self.leased.record(
            now,
            self.mode.lease_ttl(),
            start,
            name.components(),
            Entity::Undefined,
            zones,
            table,
        );
        let recorded = self.leased.stats().recorded > before;
        if recorded {
            self.stats.recorded += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("negcache.recorded").bump();
        }
        recorded
    }

    /// Drops every leased verdict depending on `shard` with a stamp
    /// other than `serial` (anti-entropy observed movement). Returns how
    /// many.
    pub fn observe_zone(&mut self, shard: usize, serial: ZoneSerial) -> usize {
        let n = self.leased.invalidate_zone(shard, serial);
        self.stats.invalidated += n as u64;
        n
    }

    /// Drops every leased verdict whose lease lapsed at `now`; returns
    /// how many.
    pub fn sweep_expired(&mut self, now: u64) -> usize {
        let n = self.leased.sweep_expired(now);
        self.stats.invalidated += n as u64;
        n
    }

    /// Drops every entry (exact and leased alike).
    pub fn invalidate_all(&mut self) {
        self.memo.invalidate_all();
        self.leased.clear();
    }

    /// Drops exactly the stale entries; returns how many.
    pub fn heal(&mut self, world: &World) -> usize {
        debug_assert!(
            self.mode.is_exact(),
            "NegativeCache::heal compares authoritative generations; \
             lease mode heals via observe_zone / sweep_expired"
        );
        let n = self.memo.invalidate_stale(world.state());
        self.stats.invalidated += n as u64;
        n
    }
}

impl Default for NegativeCache {
    fn default() -> NegativeCache {
        NegativeCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::name::Name;
    use naming_sim::store;
    use naming_sim::topology::MachineId;

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
        let mut cache = ReferralCache::new();
        let full = CompoundName::parse_path("/usr/remote/data").unwrap();
        let prefix = CompoundName::parse_path("/usr/remote").unwrap();
        cache.record(&w, root, &prefix, rem);
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup_deepest(&w, &svc, root, full.components());
        assert_eq!(hit, Some((3, rem, m2)));
        assert_eq!(cache.stats().hits, 1);
        // A name that IS the prefix has no proper-prefix referral to use.
        assert_eq!(
            cache.lookup_deepest(&w, &svc, root, prefix.components()),
            None
        );
    }

    #[test]
    fn wrong_generation_referral_falls_back_toward_root() {
        let (mut w, svc, _m1, m2, root, rem) = setup();
        let mut cache = ReferralCache::new();
        let full = CompoundName::parse_path("/usr/remote/data").unwrap();
        cache.record(
            &w,
            root,
            &CompoundName::parse_path("/usr/remote").unwrap(),
            rem,
        );
        cache.record(&w, root, &CompoundName::parse_path("/usr").unwrap(), {
            let usr = match store::resolve_path(w.state(), root, "/usr") {
                Entity::Object(o) => o,
                other => panic!("usr missing: {other}"),
            };
            usr
        });
        // Rebind "remote" inside /usr: the deep referral's footprint
        // includes usr's generation, so it must die; the shallow "/usr"
        // referral only depends on the root and survives.
        let usr = match store::resolve_path(w.state(), root, "/usr") {
            Entity::Object(o) => o,
            other => panic!("usr missing: {other}"),
        };
        let elsewhere = w.state_mut().add_context_object("elsewhere");
        w.state_mut()
            .bind(usr, Name::new("remote"), elsewhere)
            .unwrap();
        let hit = cache.lookup_deepest(&w, &svc, root, full.components());
        assert_eq!(hit, Some((2, usr, _m1)), "fell back to the /usr prefix");
        assert!(cache.stats().invalidated >= 1);
        let _ = m2;
    }

    #[test]
    fn unjustified_referrals_are_not_recorded() {
        let (w, _svc, _m1, _m2, root, rem) = setup();
        let mut cache = ReferralCache::new();
        // /usr does not resolve to `rem`; the record must be refused.
        cache.record(&w, root, &CompoundName::parse_path("/usr").unwrap(), rem);
        assert!(cache.is_empty());
        // A prefix that doesn't resolve at all is refused too.
        cache.record(&w, root, &CompoundName::parse_path("/nope").unwrap(), rem);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().recorded, 0);
    }

    #[test]
    fn replica_referral_is_justified() {
        let (mut w, mut svc, m1, _m2, root, rem) = setup();
        let copy = svc.replicate_zone(&mut w, rem, m1);
        let mut cache = ReferralCache::new();
        let prefix = CompoundName::parse_path("/usr/remote").unwrap();
        // The protocol may refer to the replica copy; the oracle resolves
        // the primary — the replica registry justifies the entry.
        cache.record(&w, root, &prefix, copy);
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup_deepest(
            &w,
            &svc,
            root,
            CompoundName::parse_path("/usr/remote/data")
                .unwrap()
                .components(),
        );
        assert_eq!(hit, Some((3, copy, m1)));
    }

    #[test]
    fn negative_cache_serves_then_invalidates_on_bind() {
        let (mut w, _svc, _m1, _m2, root, rem) = setup();
        let mut neg = NegativeCache::new();
        let name = CompoundName::parse_path("/usr/remote/nope").unwrap();
        assert!(!neg.probe(&w, root, &name), "cold cache misses");
        assert!(neg.record(&w, root, &name));
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
        let mut cache = ReferralCache::new();
        let mut neg = NegativeCache::new();
        let prefix = CompoundName::parse_path("/usr/sub").unwrap();
        cache.record(&w, root, &prefix, sub);
        assert_eq!(cache.len(), 1);
        let miss = CompoundName::parse_path("/usr/nope").unwrap();
        assert!(neg.record(&w, root, &miss));

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
        let full = CompoundName::parse_path("/usr/sub/data").unwrap();
        let hit = cache.lookup_deepest(&w, &svc, root, full.components());
        assert_eq!(hit, Some((3, sub, m1)));
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
        let mut neg = NegativeCache::new();
        let name = CompoundName::parse_path("/usr/remote/nope").unwrap();
        assert!(neg.record(&w, root, &name));

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
        assert!(neg.record(&w, root, &name), "fresh verdict re-records");
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

        let mut cache = ReferralCache::new();
        let full = CompoundName::parse_path("/usr/orph/data").unwrap();
        cache.record(
            &w,
            root,
            &CompoundName::parse_path("/usr/orph").unwrap(),
            orphan,
        );
        cache.record(&w, root, &CompoundName::parse_path("/usr").unwrap(), usr);
        assert_eq!(cache.len(), 2);

        // Path 1: the deep referral probes valid but nobody serves its
        // context — the walk removes it and falls back to /usr.
        let before = cache.stats().invalidated;
        let hit = cache.lookup_deepest(&w, &svc, root, full.components());
        assert_eq!(hit.map(|(len, _, _)| len), Some(2), "fell back to /usr");
        let dropped = 2 - cache.len() as u64;
        assert_eq!(
            cache.stats().invalidated - before,
            dropped,
            "each dropped entry counts exactly once (unplaced-machine path)"
        );
        assert_eq!(dropped, 1);

        // Path 2: generation churn — re-record the deep entry, then move
        // "orph" inside /usr so the probe itself drops it.
        cache.record(
            &w,
            root,
            &CompoundName::parse_path("/usr/orph").unwrap(),
            orphan,
        );
        assert_eq!(cache.len(), 2);
        let elsewhere = w.state_mut().add_context_object("elsewhere");
        w.state_mut()
            .bind(usr, Name::new("orph"), elsewhere)
            .unwrap();
        let before = cache.stats().invalidated;
        let len_before = cache.len();
        let hit = cache.lookup_deepest(&w, &svc, root, full.components());
        assert_eq!(hit.map(|(len, _, _)| len), Some(2), "fell back to /usr");
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
        use crate::coherence::{CoherenceMode, SerialTable};
        let (_w, svc, _m1, m2, root, rem) = setup();
        let mut cache = ReferralCache::with_mode(16, CoherenceMode::Lease { ttl: Some(50) });
        let mut table = SerialTable::new();
        let full = CompoundName::parse_path("/usr/remote/data").unwrap();
        let prefix = CompoundName::parse_path("/usr/remote").unwrap();
        let shard = naming_core::state::SystemState::shard_of_id(root);
        cache.record_leased(10, &table, root, &prefix, rem, [shard]);
        // Valid while the lease holds and serials stand still.
        let hit = cache.lookup_deepest_leased(40, &table, &svc, root, full.components());
        assert_eq!(
            hit.as_ref().map(|&(len, ctx, m, _)| (len, ctx, m)),
            Some((3, rem, m2))
        );
        assert_eq!(hit.unwrap().3, vec![shard], "zone deps surface on a hit");
        // Expiry exactly at the boundary tick: gone.
        assert_eq!(
            cache.lookup_deepest_leased(60, &table, &svc, root, full.components()),
            None
        );
        assert_eq!(cache.stats().invalidated, 1);
        // Re-record; a heard serial advance kills it before expiry.
        cache.record_leased(100, &table, root, &prefix, rem, [shard]);
        table.observe(shard, naming_core::lease::ZoneSerial::new(1));
        assert_eq!(
            cache.lookup_deepest_leased(101, &table, &svc, root, full.components()),
            None
        );
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn leased_negative_verdicts_respect_ttl_and_refuse_unreachable() {
        use crate::coherence::{CoherenceMode, SerialTable};
        let (w, _svc, _m1, _m2, root, _rem) = setup();
        let mode = CoherenceMode::Lease { ttl: Some(30) };
        let mut neg = NegativeCache::with_mode(16, mode);
        let mut table = SerialTable::new();
        let name = CompoundName::parse_path("/usr/remote/nope").unwrap();
        let shard = naming_core::state::SystemState::shard_of_id(root);
        // The satellite fix: an unreachable verdict in lease mode is
        // refused but NOT a debug_assert violation (the authority may
        // legitimately be unreachable under leases).
        assert!(!neg.record_protocol_verdict(&w, root, &name, true));
        assert!(!neg.record_verdict_leased(5, &table, root, &name, [shard], true));
        assert!(neg.is_empty());
        // A genuine ⊥ verdict is recorded and served within its lease.
        assert!(neg.record_verdict_leased(5, &table, root, &name, [shard], false));
        assert!(neg.probe_leased(34, &table, root, &name));
        assert!(!neg.probe_leased(35, &table, root, &name), "lease lapsed");
        // Serial movement also kills a live verdict.
        assert!(neg.record_verdict_leased(40, &table, root, &name, [shard], false));
        table.observe(shard, naming_core::lease::ZoneSerial::new(3));
        assert!(!neg.probe_leased(41, &table, root, &name));
        assert!(neg.stats().invalidated >= 2);
    }

    #[test]
    fn negative_cache_refuses_protocol_only_failures() {
        let (w, _svc, _m1, _m2, root, _rem) = setup();
        let mut neg = NegativeCache::new();
        // The oracle CAN resolve this — a network-layer ⊥ (lost messages)
        // must not be cached.
        let name = CompoundName::parse_path("/usr/remote/data").unwrap();
        assert!(!neg.record(&w, root, &name));
        assert!(neg.is_empty());
    }
}
