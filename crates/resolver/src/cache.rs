//! Client-side resolution caching — and its *incoherence*.
//!
//! Caching resolutions is the classic optimization of distributed naming
//! (DNS, Grapevine, …), and it reintroduces exactly the paper's problem in
//! temporal form: a cached entry is a context binding frozen at lookup
//! time, so after the authoritative binding changes, the cache and the
//! authority give the *same name different meanings*. [`CachingResolver`]
//! measures that staleness instead of hiding it.
//!
//! Each of the resolver's three caches is one bounded store under a
//! [`Validity`] policy, and the path through them — probe, negative probe,
//! referral jump, fetch, record — is written once, generic over the policy.
//! Under the oracle policy (exact mode) the positive store is naming-core's
//! generation-versioned [`ResolutionMemo`]: every entry carries the
//! generations of the contexts an authoritative walk traverses. Lookups
//! deliberately serve entries *without* re-validating them — that is what
//! a distributed client cache does, and what makes its staleness
//! measurable — but the recorded generations make healing cheap:
//! [`CachingResolver::heal`] drops exactly the entries whose underlying
//! contexts have changed, by comparing version counters instead of
//! re-resolving every name. Under the lease policy every store validates
//! by lease expiry and heard zone serials alone.
//!
//! [`CachingResolver::resolve_batch`] lends its outcome until the next call
//! on the resolver, which refills it in place; `clone()` keeps it.

use std::ops::Range;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::memo::ResolutionMemo;
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_core::sweep;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::World;
use naming_telemetry::json::json_string;

use crate::coherence::{
    CoherenceMode, Heard, LeaseCacheStats, LeasedCache, Moved, MovedZone, Pass, SerialObservation,
    SerialTable, Validity,
};
use crate::engine::{ProtocolEngine, ReferralHop};
use crate::referral::{
    NegativeCache, ReferralCache, ValidatedCacheStats, DEFAULT_REFERRAL_CAPACITY,
};
use crate::service::NameService;
use crate::wire::{Mode, ZoneRead};

/// Default bound on the number of cached resolutions.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 12;

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the network.
    pub misses: u64,
    /// Cache entries explicitly invalidated (including generation-based
    /// healing).
    pub invalidations: u64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Renders the statistics — including the derived
    /// [`hit_rate`](CacheStats::hit_rate) — as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{{}: {}, {}: {}, {}: {}, {}: {}, {}: {:.6}}}",
            json_string("hits"),
            self.hits,
            json_string("misses"),
            self.misses,
            json_string("invalidations"),
            self.invalidations,
            json_string("evictions"),
            self.evictions,
            json_string("hit_rate"),
            self.hit_rate()
        )
    }
}

/// What one cached resolution answered ([`CachingResolver::resolve_outcome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedOutcome {
    /// The entity (possibly `⊥`).
    pub entity: Entity,
    /// Answered by a cache (positive or negative), no network.
    pub from_cache: bool,
    /// The `⊥` is a transport verdict — the exchange gave up — and says
    /// nothing of the binding.
    pub unreachable: bool,
}

/// What a cached batch resolution cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachedBatchOutcome {
    /// One entity per input name, in input order (possibly `⊥`).
    pub entities: Vec<Entity>,
    /// Per name: answered by a cache (positive or negative), no network.
    pub from_cache: Vec<bool>,
    /// The slots whose `⊥` is a transport verdict — their exchange gave up
    /// — in ascending order (empty, and unallocated, when none did).
    pub unreachable: Vec<usize>,
    /// Wire messages exchanged for the cache misses.
    pub messages: u64,
    /// Virtual time the misses' exchanges took, overlapped: they all go
    /// out together, so this is the batch's rounds of round trips.
    pub latency: Duration,
}

/// One plane of three stores under one [`Validity`] policy: the positive
/// cache and the two validated side caches that speed resolution up
/// without changing what the policy would answer —
///
/// * a [`ReferralCache`] of resolved zone prefixes, so repeat lookups
///   jump to the deepest known server instead of walking from the root;
/// * a [`NegativeCache`] of `⊥` verdicts, so repeated misses stop
///   costing network round-trips until a `bind` revives the name.
#[derive(Debug)]
struct Plane<P: Validity> {
    positives: P,
    referrals: ReferralCache<P>,
    negatives: NegativeCache<P>,
    /// Draws the policy's evidence at one moment of a resolution. The
    /// oracle reads the world as it stands then, so it judges an answer
    /// against the state its exchange left; a replica's [`Heard`] was fixed
    /// when the resolution started.
    evidence: Draw<P>,
    /// Scratch, kept between calls so a miss allocates nothing: per miss of
    /// the batch at hand, its slot, where its exchange starts (context,
    /// components consumed) and its [`Jumped`] footprint, whose range of
    /// `jump_zones` holds each miss's footprint up to there back to back —
    /// the start context's shard, what a cached-referral jump inherited,
    /// the target's shard.
    misses: Vec<(usize, ObjectId, usize, Jumped)>,
    jump_zones: Vec<usize>,
    /// Scratch: the whole footprint of the name at hand, rebuilt in place,
    /// and the zones its servers read — when they may renew it.
    zones: Vec<usize>,
    proof: Vec<ZoneRead>,
    /// Scratch: what the batch's replies read, by slot.
    reads: Vec<(usize, ZoneRead)>,
    /// Scratch: the referrals the batch at hand has filed, as `(context,
    /// slot, prefix length)` — a prefix is recorded once a batch.
    filed: Vec<(ObjectId, usize, usize)>,
}

type Draw<P> = for<'a> fn(&'a World, Heard<'a>) -> <P as Validity>::Evidence<'a>;

/// A miss's footprint up to where its exchange starts — a range of
/// `Plane::jump_zones` — and whether what it records may be renewed: not
/// after a jump through a referral that may not.
type Jumped = (Range<usize>, bool);

/// The plane chosen once in [`CachingResolver::with_mode`].
#[derive(Debug)]
enum Planes {
    Oracle(Plane<ResolutionMemo>),
    Lease(Plane<LeasedCache>),
}

/// Runs `$body` on whichever plane is in use.
macro_rules! on_plane {
    ($planes:expr, $p:ident => $body:expr) => {
        match $planes {
            Planes::Oracle($p) => $body,
            Planes::Lease($p) => $body,
        }
    };
}

impl<P: Validity> Plane<P> {
    fn new(capacity: usize, evidence: Draw<P>) -> Plane<P> {
        Plane {
            evidence,
            positives: P::with_capacity(capacity),
            referrals: ReferralCache::with_capacity(DEFAULT_REFERRAL_CAPACITY),
            negatives: NegativeCache::with_capacity(DEFAULT_REFERRAL_CAPACITY),
            misses: Vec::new(),
            jump_zones: Vec::new(),
            zones: Vec::new(),
            proof: Vec::new(),
            reads: Vec::new(),
            filed: Vec::new(),
        }
    }

    /// One name through the caches; see [`CachingResolver::resolve`].
    #[allow(clippy::too_many_arguments)]
    fn resolve_one(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        heard: Heard<'_>,
        client: ActivityId,
        start: ObjectId,
        name: &CompoundName,
        mode: Mode,
    ) -> CachedOutcome {
        let (by, comps) = ((self.evidence)(world, heard), name.components());
        let cached = |entity| CachedOutcome {
            entity,
            from_cache: true,
            unreachable: false,
        };
        if let Some(e) = self.positives.serve(by, start, comps) {
            mirror_probe_counts(1, 0);
            return cached(e);
        }
        mirror_probe_counts(0, 1);
        if self.negatives.probe(by, start, comps) {
            return cached(Entity::Undefined);
        }
        self.jump_zones.clear();
        // Referrals are only followed — and seen — by an iterative client.
        let service = (mode == Mode::Iterative).then(|| engine.service());
        let (from, offset, jumped) = self.miss(by, service, start, comps);
        let stats = engine.resolve_traced_from(world, client, (from, offset, comps), mode);
        self.filed.clear();
        let by = (self.evidence)(world, heard);
        let key = (start, std::slice::from_ref(name), 0);
        let hops = &engine.answer().referrals;
        let reads = if P::RENEWS { engine.reads() } else { &[] };
        let answer = (stats.entity, stats.unreachable);
        self.file(by, key, jumped, (hops, reads), answer);
        CachedOutcome {
            entity: stats.entity,
            from_cache: false,
            unreachable: stats.unreachable,
        }
    }

    /// Many names through the caches, into `out` and the vectors it holds;
    /// see [`CachingResolver::resolve_batch`].
    #[allow(clippy::too_many_arguments)]
    fn resolve_many(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        heard: Heard<'_>,
        client: ActivityId,
        start: ObjectId,
        names: &[CompoundName],
        out: &mut CachedBatchOutcome,
    ) {
        let by = (self.evidence)(world, heard);
        out.entities.clear();
        out.entities.resize(names.len(), Entity::Undefined);
        out.from_cache.clear();
        out.from_cache.resize(names.len(), false);
        out.unreachable.clear();
        (out.messages, out.latency) = (0, Duration::ZERO);
        let mut misses = std::mem::take(&mut self.misses);
        self.jump_zones.clear();
        let mut hits = 0u64;
        for (slot, name) in names.iter().enumerate() {
            let comps = name.components();
            if let Some(e) = self.positives.serve(by, start, comps) {
                hits += 1;
                out.entities[slot] = e;
                out.from_cache[slot] = true;
            } else if self.negatives.probe(by, start, comps) {
                out.from_cache[slot] = true;
            } else {
                let (from, plen, jumped) = self.miss(by, Some(engine.service()), start, comps);
                misses.push((slot, from, plen, jumped));
            }
        }
        mirror_probe_counts(hits, names.len() as u64 - hits);
        if !misses.is_empty() {
            let asked = misses.iter();
            let asked = asked.map(|&(slot, from, plen, _)| (from, plen, names[slot].components()));
            engine.resolve_from(world, client, asked);
            let batch = engine.answer();
            let by = (self.evidence)(world, heard);
            (out.messages, out.latency) = (batch.messages, batch.latency);
            self.filed.clear();
            let mut reads = std::mem::take(&mut self.reads);
            reads.clear();
            if P::RENEWS {
                reads.extend_from_slice(engine.reads());
                reads.sort_unstable_by_key(|&(slot, _)| slot);
            }
            // Referrals and reads come back by miss, in miss order.
            let (mut hops, mut read) = (&batch.referrals[..], &reads[..]);
            for (i, (slot, _, _, jumped)) in misses.drain(..).enumerate() {
                out.entities[slot] = batch.entities[i];
                let (own, own_reads);
                (own, hops) = hops.split_at(hops.partition_point(|hop| hop.slot == i));
                (own_reads, read) = read.split_at(read.partition_point(|&(s, _)| s == i));
                let answer = (batch.entities[i], batch.unreachable[i]);
                if answer.1 {
                    out.unreachable.push(slot);
                }
                self.file(by, (start, names, slot), jumped, (own, own_reads), answer);
            }
            self.reads = reads;
        }
        self.misses = misses;
    }

    /// Where the exchange for a missed name starts — the deepest cached,
    /// still-valid referral for a prefix of `comps` (when `service` is
    /// given to place it), else `start` — as `(context, components
    /// consumed to get there, footprint so far)`. Jumping changes message
    /// counts only.
    fn miss(
        &mut self,
        by: P::Evidence<'_>,
        service: Option<&NameService>,
        start: ObjectId,
        comps: &[Name],
    ) -> (ObjectId, usize, Jumped) {
        let lo = self.jump_zones.len();
        self.jump_zones.push(SystemState::shard_of_id(start));
        let jump = service.and_then(|s| self.referrals.lookup_deepest(by, s, start, comps));
        let (from, plen) = match jump {
            Some((plen, ctx, _machine, inherited)) => {
                self.jump_zones.extend_from_slice(inherited);
                self.jump_zones.push(SystemState::shard_of_id(ctx));
                (ctx, plen)
            }
            None => (start, 0),
        };
        let vouched = plen == 0 || (P::RENEWS && self.referrals.vouched(start, &comps[..plen]));
        (from, plen, (lo..self.jump_zones.len(), vouched))
    }

    /// Files what the exchanges for `names[slot]` brought back, its
    /// footprint so far being `jumped`: the referrals it followed (`hops`,
    /// each after a prefix of the whole name) and what the answering
    /// servers read (`reads`). Every zone read joins the footprint —
    /// silently walked ones too — and, unless the jump forbids it, the
    /// reads go with each entry as its proof for renewal. The referrals are
    /// remembered under the cumulative footprint of the zones crossed to
    /// reach them, each prefix once in `filed`. Then the answer: a binding
    /// enters the positive cache, a `⊥` the negative cache — whose recorder
    /// refuses it when the network alone failed us. Each keeps only what its
    /// policy can justify: not a lagging copy's answer.
    fn file(
        &mut self,
        by: P::Evidence<'_>,
        (start, names, slot): (ObjectId, &[CompoundName], usize),
        (jumped, vouched): Jumped,
        (hops, reads): (&[ReferralHop], &[(usize, ZoneRead)]),
        (entity, unreachable): (Entity, bool),
    ) {
        let comps = names[slot].components();
        self.zones.clear();
        self.zones.extend_from_slice(&self.jump_zones[jumped]);
        self.zones.extend(reads.iter().map(|&(_, (zone, _))| zone));
        self.proof.clear();
        if vouched {
            self.proof.extend(reads.iter().map(|&(_, read)| read));
        }
        // A hop consumed a proper prefix: the continuation follows no other.
        for &ReferralHop { consumed, ctx, .. } in hops {
            self.zones.push(SystemState::shard_of_id(ctx));
            let prefix = &comps[..consumed];
            let same = |&(c, s, len): &(ObjectId, usize, usize)| {
                (c, len) == (ctx, consumed) && names[s].components()[..len] == *prefix
            };
            if !self.filed.iter().any(same) {
                self.filed.push((ctx, slot, consumed));
                let (zones, proof, ctx) = (&self.zones, &self.proof, Entity::Object(ctx));
                self.referrals
                    .record_read(by, start, prefix, ctx, zones, proof, false);
            }
        }
        if let Entity::Object(o) = entity {
            self.zones.push(SystemState::shard_of_id(o));
        }
        let (zones, proof) = (&self.zones, &self.proof);
        if entity.is_defined() {
            self.positives
                .record_read(by, start, comps, entity, zones, proof);
        } else {
            let undefined = Entity::Undefined;
            self.negatives
                .record_read(by, start, comps, undefined, zones, proof, unreachable);
        }
    }

    /// Drops what the evidence already refutes; returns how many entries
    /// of the positive, referral and negative store went.
    fn sweep(&mut self, by: P::Evidence<'_>) -> [usize; 3] {
        let (referrals, negatives) = (self.referrals.sweep(by), self.negatives.sweep(by));
        [self.positives.sweep(by), referrals, negatives]
    }

    fn zones_moved(&mut self, moved: Moved<'_>) -> Pass {
        self.positives.zones_moved(moved)
            + self.referrals.zones_moved(moved)
            + self.negatives.zones_moved(moved)
    }

    fn clear(&mut self) {
        self.positives.clear();
        self.referrals.clear();
        self.negatives.clear();
    }
}

/// A resolution client with a bounded positive cache keyed on
/// `(start, name)` plus a referral and a negative cache, all three under
/// the [`Validity`] policy its [`CoherenceMode`] names.
///
/// In exact mode only the positive cache is deliberately incoherent
/// (served without validation — that staleness is what this type
/// measures); the side caches validate generation footprints on every
/// probe. In lease mode all three validate with replica-local facts only
/// — virtual-time lease expiry and the zone serials in
/// [`CachingResolver::serial_table`] — and entries are stamped with a
/// *protocol-visible* zone footprint: the start context's shard, every
/// referral target's shard (including the footprint inherited from a
/// cached-referral jump), every zone the answering servers read — the
/// contexts a server walks silently between referrals among them, as each
/// reply states — and the answer object's shard. A lease lapses after its
/// TTL unless the pulls since proved the entry still current
/// ([`crate::coherence`]): then it is renewed.
#[derive(Debug)]
pub struct CachingResolver {
    engine: ProtocolEngine,
    plane: Planes,
    mode: CoherenceMode,
    /// Zone serials this replica has heard through anti-entropy pulls —
    /// the *only* authority the lease plane ever validates against.
    table: SerialTable,
    /// A pull's serials asked from and moved zones; kept, so a pull
    /// allocates neither.
    since: Vec<(usize, ZoneSerial)>,
    moved: Vec<MovedZone>,
    /// The last batch's outcome, lent until the next batch refills it.
    batch: CachedBatchOutcome,
}

/// What one anti-entropy pull ([`CachingResolver::sync`]) accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Wire bytes the exchange cost (request + reply frames).
    pub bytes: u64,
    /// Shards answered with a full (AXFR-style) transfer.
    pub shards_full: usize,
    /// Shards answered incrementally (IXFR-style, possibly empty).
    pub shards_incremental: usize,
    /// Individual binding changes carried in the deltas.
    pub changes: usize,
    /// Shards whose authoritative serial moved *backwards* (authority
    /// restart); the heard serial is re-adopted either way.
    pub regressions: usize,
    /// Cached entries (positive, referral, negative) dropped because a
    /// zone they depend on moved past their stamped serial, and the move
    /// may have changed their answer.
    pub entries_dropped: u64,
    /// Cached entries kept under a moved zone, because its exact diff
    /// cannot reach their answer, and re-stamped to the serial heard.
    pub entries_restamped: u64,
}

impl CachingResolver {
    /// Wraps a protocol engine with the default cache bound.
    pub fn new(engine: ProtocolEngine) -> CachingResolver {
        CachingResolver::with_capacity(engine, DEFAULT_CACHE_CAPACITY)
    }

    /// Wraps a protocol engine with an explicit cache bound; inserts past
    /// the bound evict the least recently used entry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(engine: ProtocolEngine, capacity: usize) -> CachingResolver {
        CachingResolver::with_mode(engine, capacity, CoherenceMode::Exact)
    }

    /// Wraps a protocol engine with an explicit cache bound under the
    /// given coherence regime. Exact mode behaves identically to
    /// [`CachingResolver::with_capacity`]; lease mode serves every cache
    /// through TTL + zone-serial validation and cannot consult
    /// authoritative state on the resolution path: [`Heard`] has no σ in it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_mode(
        engine: ProtocolEngine,
        capacity: usize,
        mode: CoherenceMode,
    ) -> CachingResolver {
        CachingResolver {
            engine,
            plane: match mode {
                CoherenceMode::Exact => Planes::Oracle(Plane::new(capacity, |world, _| world)),
                CoherenceMode::Lease { .. } => {
                    Planes::Lease(Plane::new(capacity, |_, heard| heard))
                }
            },
            mode,
            table: SerialTable::new(),
            since: Vec::new(),
            moved: Vec::new(),
            batch: CachedBatchOutcome::default(),
        }
    }

    /// The zone serials this replica has heard so far.
    pub fn serial_table(&self) -> &SerialTable {
        &self.table
    }

    /// Mutable access to the heard-serial table. Experiment harnesses use
    /// this to stage serial regressions (a replica that synced against an
    /// authority which later restarted from an older snapshot); the
    /// resolver itself only ever writes through [`CachingResolver::sync`].
    pub fn serial_table_mut(&mut self) -> &mut SerialTable {
        &mut self.table
    }

    /// The underlying engine.
    pub fn engine(&self) -> &ProtocolEngine {
        &self.engine
    }

    /// Mutable engine access (placement changes).
    pub fn engine_mut(&mut self) -> &mut ProtocolEngine {
        &mut self.engine
    }

    /// Cache statistics so far: the positive store's counters, whichever
    /// policy keeps them.
    pub fn stats(&self) -> CacheStats {
        let (hits, misses, invalidations, evictions) = match &self.plane {
            Planes::Oracle(p) => {
                let m = p.positives.stats();
                (m.hits, m.misses, m.invalidations, m.evictions)
            }
            Planes::Lease(p) => {
                let l = p.positives.stats();
                (l.hits, l.misses, l.invalidated(), l.evictions)
            }
        };
        CacheStats {
            hits,
            misses,
            invalidations,
            evictions,
        }
    }

    /// The positive store's lease counters (all zero in exact mode).
    pub fn lease_stats(&self) -> LeaseCacheStats {
        match &self.plane {
            Planes::Oracle(_) => LeaseCacheStats::default(),
            Planes::Lease(p) => p.positives.stats(),
        }
    }

    /// Referral-cache statistics so far.
    pub fn referral_stats(&self) -> ValidatedCacheStats {
        on_plane!(&self.plane, p => p.referrals.stats())
    }

    /// Negative-cache statistics so far.
    pub fn negative_stats(&self) -> ValidatedCacheStats {
        on_plane!(&self.plane, p => p.negatives.stats())
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        on_plane!(&self.plane, p => p.positives.len())
    }

    /// The cache bound.
    pub fn capacity(&self) -> usize {
        on_plane!(&self.plane, p => p.positives.capacity())
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the lease plane knows at virtual time `now`.
    fn heard(mode: CoherenceMode, table: &SerialTable, now: u64) -> Heard<'_> {
        Heard {
            now,
            ttl: mode.lease_ttl(),
            table,
        }
    }

    /// Resolves through the cache: a hit answers instantly (zero virtual
    /// latency, zero messages); a miss goes to the network — resuming from
    /// the deepest cached referral in iterative mode — and populates the
    /// caches, except that a transport-failure `⊥` is cached nowhere and
    /// retried next time.
    ///
    /// In exact mode hits are served *without* validation — a client
    /// cache has no authoritative state to validate against, which is
    /// precisely the §5 incoherence this type exists to measure; use
    /// [`CachingResolver::heal`] to apply generation-based invalidation.
    /// In lease mode a hit is an entry whose lease, granted from the tick
    /// its resolution started or renewed from the last pull that proved
    /// it, holds and whose zones' heard serials have not moved.
    ///
    /// Returns the entity and whether a cache answered;
    /// [`CachingResolver::resolve_outcome`] also says whether a `⊥` is a
    /// transport verdict.
    pub fn resolve(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        name: &CompoundName,
        mode: Mode,
    ) -> (Entity, bool) {
        let out = self.resolve_outcome(world, client, start, name, mode);
        (out.entity, out.from_cache)
    }

    /// [`CachingResolver::resolve`], with the transport verdict.
    pub fn resolve_outcome(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        name: &CompoundName,
        mode: Mode,
    ) -> CachedOutcome {
        self.mirroring_renewals(|r| {
            let heard = Self::heard(r.mode, &r.table, world.now().ticks());
            let engine = &mut r.engine;
            on_plane!(&mut r.plane, p => p.resolve_one(engine, world, heard, client, start, name, mode))
        })
    }

    /// Resolves many names through the cache in one shot: cache (and
    /// negative-cache) hits answer locally, and the misses ride the
    /// batched wire protocol in one exchange set — each from the deepest
    /// valid cached referral for it, so every miss starts as close to its
    /// answer as possible, and misses that start from the same context
    /// share a round's exchange.
    ///
    /// Answers are identical to resolving each name via
    /// [`CachingResolver::resolve`] in iterative mode; batching and
    /// referral jumps change message counts, never entities.
    ///
    /// The outcome is lent until the next batch; `clone()` keeps it.
    pub fn resolve_batch(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        names: &[CompoundName],
    ) -> &CachedBatchOutcome {
        self.mirroring_renewals(|r| {
            let heard = Self::heard(r.mode, &r.table, world.now().ticks());
            let (engine, out) = (&mut r.engine, &mut r.batch);
            on_plane!(&mut r.plane, p => p.resolve_many(engine, world, heard, client, start, names, out))
        });
        &self.batch
    }

    /// Runs `f`, then mirrors the positive store's lease renewals it made
    /// into the `coherence.lease.renewed` registry counter, in one add like
    /// [`mirror_probe_counts`].
    fn mirroring_renewals<T>(&mut self, f: impl FnOnce(&mut CachingResolver) -> T) -> T {
        let before = self.lease_stats().renewed;
        let out = f(self);
        let renewed = self.lease_stats().renewed - before;
        if renewed > 0 {
            naming_telemetry::counter!("coherence.lease.renewed").add(renewed);
        }
        out
    }

    /// Drops one cache entry.
    pub fn invalidate(&mut self, start: ObjectId, name: &CompoundName) -> bool {
        on_plane!(&mut self.plane, p => p.positives.remove(start, name.components()))
    }

    /// Drops the whole cache — positive, referral, and negative alike.
    /// The serial table is kept: forgetting heard serials is a *restart*
    /// (see [`CachingResolver::restart_replica`]), not a cache flush.
    pub fn invalidate_all(&mut self) {
        on_plane!(&mut self.plane, p => p.clear())
    }

    /// Simulates a replica restart: every cache *and* the heard-serial
    /// table are wiped. The next [`CachingResolver::sync`] pulls from
    /// serial zero on every shard, which the authority answers with full
    /// transfers — a restarted replica cannot trust a diff.
    pub fn restart_replica(&mut self) {
        self.invalidate_all();
        self.table.reset();
    }

    /// Generation-based healing: drops every entry whose recorded context
    /// generations no longer match the authoritative state, by comparing
    /// version counters — no re-resolution. Returns how many *positive*
    /// entries were dropped; the referral and negative caches are swept
    /// too (their probes validate lazily anyway, this reclaims space).
    ///
    /// A no-op returning 0 in lease mode: there is no oracle store to
    /// heal; a lease plane learns of writes through [`CachingResolver::sync`].
    pub fn heal(&mut self, world: &World) -> usize {
        match &mut self.plane {
            Planes::Oracle(p) => p.sweep(world)[0],
            Planes::Lease(_) => 0,
        }
    }

    /// Anti-entropy pull: asks the authority on `machine` for zone deltas
    /// since the serials this replica last heard, adopts the answered
    /// serials, and drops every cached entry stamped under a serial its
    /// zone has moved past — unless the zone's slice is an exact diff
    /// from that serial whose changes cannot reach the entry's answer:
    /// that entry is re-stamped and kept ([`Validity::zones_moved`]).
    /// Returns `None` when the exchange was lost (the next periodic pull
    /// catches up).
    ///
    /// This is the lease plane's *only* source of invalidation evidence —
    /// it reads authoritative state exclusively through the wire.
    ///
    /// Cost: one walk of each store per pull, however many zones moved —
    /// the moved zones are collected first and judged in one pass.
    pub fn sync(
        &mut self,
        world: &mut World,
        client: ActivityId,
        machine: MachineId,
    ) -> Option<SyncReport> {
        let shards = world.state().shard_count();
        self.table.since_into(shards, &mut self.since);
        let sent = world.now().ticks();
        let (delta, bytes) = self
            .engine
            .pull_zone_deltas(world, client, machine, &self.since)?;
        let mut report = SyncReport {
            bytes,
            ..SyncReport::default()
        };
        self.moved.clear();
        for (at, slice) in delta.slices().enumerate() {
            report.shards_full += usize::from(slice.full);
            report.shards_incremental += usize::from(!slice.full);
            report.changes += slice.changes;
            if let Some((moved, seen)) = self.table.adopt(at, slice) {
                report.regressions += usize::from(seen == SerialObservation::Regressed);
                self.moved.push(moved);
            }
            // The reply proves the zone at the serial it states, as of no
            // earlier than the pull went out.
            self.table.vouch(slice.shard, sent);
        }
        // Entries stamped under a moved zone's old serial were justified by
        // history the zone no longer stands behind, unless its diff proves
        // that history left them alone. Judge them eagerly; probes would
        // drop them lazily.
        if !self.moved.is_empty() {
            let moved = Moved::kept(&self.moved, delta);
            let pass = on_plane!(&mut self.plane, p => p.zones_moved(moved));
            report.entries_dropped = pass.dropped as u64;
            report.entries_restamped = pass.restamped as u64;
        }
        mirror_sync_counts(&report);
        Some(report)
    }

    /// Audits the cache against the authoritative naming state: returns
    /// the entries whose cached entity no longer matches what the
    /// authority would answer — the *incoherent* (stale) entries. The
    /// audit is the observer: it reads σ even where the policy may not.
    ///
    /// The authoritative walks run through a scratch [`ResolutionMemo`],
    /// so entries sharing path prefixes (the common case — a cache fills
    /// up with siblings) are each walked once instead of once per entry,
    /// and audits of 64 entries or more shard across threads. Output is
    /// identical either way: same entries, same order.
    pub fn stale_entries(&self, world: &World) -> Vec<(ObjectId, CompoundName, Entity)> {
        let named = |(start, suffix, cached): (ObjectId, &[Name], Entity)| {
            let name = CompoundName::new(suffix.to_vec()).expect("cached names are nonempty");
            (start, name, cached)
        };
        let entries = on_plane!(&self.plane, p => p.positives.entries().map(named).collect());
        audit_against_authority(world.state(), entries)
    }

    /// Staleness rate: stale entries / cached entries (0 when empty).
    pub fn staleness(&self, world: &World) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.stale_entries(world).len() as f64 / self.len() as f64
    }
}

/// Mirrors one batch's positive-cache probe verdicts into the `cache.*`
/// registry counters: one add per batch instead of one per name (a counter
/// bump is a shard lookup plus a locked add — a quarter of a warm batch's
/// time when paid per name). Registry totals after the call are the same.
fn mirror_probe_counts(hits: u64, misses: u64) {
    // A counter that never moved stays unregistered, as before.
    if hits > 0 {
        naming_telemetry::counter!("cache.hits").add(hits);
    }
    if misses > 0 {
        naming_telemetry::counter!("cache.misses").add(misses);
    }
}

/// Mirrors one pull's report into the `coherence.sync.*` registry counters,
/// once per pull; a counter that never moved stays unregistered.
fn mirror_sync_counts(r: &SyncReport) {
    use naming_telemetry::counter;
    if r.entries_dropped > 0 {
        counter!("coherence.sync.entries_dropped").add(r.entries_dropped);
    }
    if r.entries_restamped > 0 {
        counter!("coherence.sync.entries_restamped").add(r.entries_restamped);
    }
    if r.shards_full > 0 {
        counter!("coherence.sync.shards_full").add(r.shards_full as u64);
    }
    if r.shards_incremental > 0 {
        counter!("coherence.sync.shards_incremental").add(r.shards_incremental as u64);
    }
    if r.regressions > 0 {
        counter!("coherence.sync.regressions").add(r.regressions as u64);
    }
}

/// Keeps exactly the entries whose cached entity disagrees with a fresh
/// authoritative resolution, preserving input order. Walks share a
/// memo per worker, which never changes answers — only work.
fn audit_against_authority(
    state: &SystemState,
    entries: Vec<(ObjectId, CompoundName, Entity)>,
) -> Vec<(ObjectId, CompoundName, Entity)> {
    let audit_chunk = |slice: &[(ObjectId, CompoundName, Entity)]| {
        let r = Resolver::new();
        let mut memo = ResolutionMemo::with_capacity(slice.len().max(16) * 4);
        slice
            .iter()
            .filter(|(start, name, cached)| {
                r.resolve_entity_memo(state, *start, name, &mut memo) != *cached
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    if entries.len() < 64 {
        return audit_chunk(&entries);
    }
    sweep::map_chunks(&entries, sweep::available_threads(), audit_chunk)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NameService;
    use naming_core::lease::ZoneSerial;
    use naming_core::name::Name;
    use naming_sim::store;
    use naming_sim::topology::MachineId;

    fn setup_mode(
        mode: CoherenceMode,
    ) -> (World, CachingResolver, ActivityId, ObjectId, MachineId) {
        let mut w = World::new(81);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let m2 = w.add_machine("m2", net);
        let root = w.machine_root(m1);
        let root2 = w.machine_root(m2);
        let sub = store::ensure_dir(w.state_mut(), root2, "export");
        store::create_file(w.state_mut(), sub, "data", vec![]);
        store::attach(w.state_mut(), root, "remote", sub, false);
        let mut svc = NameService::install(&mut w, &[m1, m2]);
        svc.place_subtree(&w, w.machine_root(m2), m2);
        svc.place_subtree(&w, root, m1);
        let client = w.spawn(m1, "client", None);
        let resolver =
            CachingResolver::with_mode(ProtocolEngine::new(svc), DEFAULT_CACHE_CAPACITY, mode);
        (w, resolver, client, root, m1)
    }

    fn setup() -> (World, CachingResolver, ActivityId, ObjectId) {
        let (w, resolver, client, root, _m1) = setup_mode(CoherenceMode::Exact);
        (w, resolver, client, root)
    }

    fn setup_lease(ttl: Option<u64>) -> (World, CachingResolver, ActivityId, ObjectId, MachineId) {
        setup_mode(CoherenceMode::Lease { ttl })
    }

    fn mid(_m: MachineId) {}

    #[test]
    fn hits_after_first_miss() {
        let (mut w, mut r, client, root) = setup();
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (e1, from_cache1) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(e1.is_defined());
        assert!(!from_cache1);
        let t_after_miss = w.now();
        let (e2, from_cache2) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(e1, e2);
        assert!(from_cache2);
        assert_eq!(w.now(), t_after_miss, "hits cost no virtual time");
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().misses, 1);
        assert!((r.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn stats_hit_rate_and_json() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let json = s.to_json();
        assert_eq!(
            json,
            "{\"hits\": 3, \"misses\": 1, \"invalidations\": 2, \
             \"evictions\": 0, \"hit_rate\": 0.750000}"
        );
    }

    #[test]
    fn failures_are_negatively_cached_until_a_bind_revives_the_name() {
        let (mut w, mut r, client, root) = setup();
        let name = CompoundName::parse_path("/remote/nope").unwrap();
        let (e, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!e.is_defined());
        assert!(!from_cache);
        assert!(r.is_empty(), "⊥ never enters the positive cache");
        assert_eq!(r.negative_stats().recorded, 1);
        // Second lookup: the validated negative cache answers, zero wire
        // traffic.
        let sent = w.trace().counter("sent");
        let (e2, from_cache2) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!e2.is_defined());
        assert!(from_cache2);
        assert_eq!(w.trace().counter("sent"), sent, "negative hits are free");
        // Binding the name bumps the consulted generation: the cached ⊥
        // dies and the next lookup finds the new file on the network.
        let sub = match store::resolve_path(w.state(), root, "/remote") {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("remote missing: {other}"),
        };
        let fresh = store::create_file(w.state_mut(), sub, "nope", vec![]);
        let (e3, from_cache3) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!from_cache3, "stale ⊥ is never served");
        assert_eq!(e3, naming_core::entity::Entity::Object(fresh));
        assert!(r.negative_stats().invalidated >= 1);
    }

    #[test]
    fn repeat_lookups_jump_through_the_referral_cache() {
        let (mut w, mut r, client, root) = setup();
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (e1, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(e1.is_defined());
        assert!(
            r.referral_stats().recorded >= 1,
            "the m1→m2 handoff was cached"
        );
        let full_walk = w.trace().counter("sent");
        // Drop the positive entry so the next lookup must use the wire —
        // but now it starts from the cached /remote referral on m2.
        assert!(r.invalidate(root, &name));
        let sent = w.trace().counter("sent");
        let (e2, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        let jumped = w.trace().counter("sent") - sent;
        assert_eq!(e2, e1);
        assert!(!from_cache);
        assert_eq!(r.referral_stats().hits, 1);
        assert!(
            jumped < full_walk,
            "referral jump used fewer messages ({jumped}) than the full walk ({full_walk})"
        );
        assert_eq!(jumped, 2, "one request/reply pair straight to m2");
    }

    #[test]
    fn invalidated_referral_falls_back_to_the_root_and_stays_correct() {
        let (mut w, mut r, client, root) = setup();
        let name = CompoundName::parse_path("/remote/data").unwrap();
        r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(r.referral_stats().recorded >= 1);
        // The authority moves "remote" to a different (local) subtree.
        // The cached referral's generation footprint includes the root
        // context, so it must die — and the lookup must fall back to the
        // root walk, answering what the authority now answers.
        let local = store::ensure_dir(w.state_mut(), root, "local");
        let fresh = store::create_file(w.state_mut(), local, "data", vec![]);
        store::attach(w.state_mut(), root, "remote", local, false);
        r.engine_mut()
            .service_mut()
            .place_subtree(&w, local, MachineId(0));
        r.invalidate(root, &name); // drop the (deliberately stale) positive entry
        let (e, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!from_cache);
        assert_eq!(
            e,
            naming_core::entity::Entity::Object(fresh),
            "wrong-generation referral was not used"
        );
        assert!(r.referral_stats().invalidated >= 1);
    }

    #[test]
    fn batch_resolution_matches_singles_and_uses_every_cache() {
        let (mut w, mut r, client, root) = setup();
        let names: Vec<CompoundName> = ["/remote/data", "/remote", "/remote/nope", "/remote/data"]
            .iter()
            .map(|p| CompoundName::parse_path(p).unwrap())
            .collect();
        let batch = r.resolve_batch(&mut w, client, root, &names).clone();
        // Same answers as one-at-a-time resolution (on a fresh resolver).
        let (mut w2, mut r2, client2, root2) = setup();
        for (i, name) in names.iter().enumerate() {
            let (e, _) = r2.resolve(&mut w2, client2, root2, name, Mode::Iterative);
            assert_eq!(batch.entities[i], e, "batch disagrees on {name}");
        }
        assert!(batch.entities[0].is_defined());
        assert!(!batch.entities[2].is_defined());
        assert_eq!(batch.entities[0], batch.entities[3]);
        assert_eq!(batch.from_cache, vec![false, false, false, false]);
        // Everything is now cached: the same batch again is free.
        let sent = w.trace().counter("sent");
        let again = r.resolve_batch(&mut w, client, root, &names);
        assert_eq!(again.entities, batch.entities);
        assert_eq!(again.from_cache, vec![true, true, true, true]);
        assert_eq!(again.messages, 0);
        assert_eq!(w.trace().counter("sent"), sent);
        // A fresh sibling lookup jumps through the referral recorded by
        // the batch instead of walking from the root.
        let sibling = [CompoundName::parse_path("/remote/other").unwrap()];
        let hits = r.referral_stats().hits;
        r.resolve_batch(&mut w, client, root, &sibling);
        assert_eq!(r.referral_stats().hits, hits + 1);
    }

    /// A chain under `mode`: `/local` is answered on the client's machine,
    /// `/a` is referred to a second machine (`g`, `h`), `/a/b` from there
    /// to a third (`x`, `y`, `z`). Returns the contexts of `/a` and `/a/b`.
    fn chain(mode: CoherenceMode) -> (World, CachingResolver, ActivityId, ObjectId, [ObjectId; 2]) {
        let mut w = World::new(83);
        let net = w.add_network("n");
        let ms: Vec<MachineId> = (0..3)
            .map(|i| w.add_machine(format!("m{i}"), net))
            .collect();
        let roots: Vec<ObjectId> = ms.iter().map(|&m| w.machine_root(m)).collect();
        store::create_file(w.state_mut(), roots[0], "local", vec![]);
        let a = store::ensure_dir(w.state_mut(), roots[1], "export");
        let b = store::ensure_dir(w.state_mut(), roots[2], "export");
        for (dir, files) in [(a, ["g", "h"].as_slice()), (b, &["x", "y", "z"])] {
            for f in files {
                store::create_file(w.state_mut(), dir, f, vec![]);
            }
        }
        store::attach(w.state_mut(), a, "b", b, false);
        store::attach(w.state_mut(), roots[0], "a", a, false);
        let mut svc = NameService::install(&mut w, &ms);
        for (&m, &root) in ms.iter().zip(&roots).rev() {
            svc.place_subtree(&w, root, m);
        }
        let client = w.spawn(ms[0], "client", None);
        let r = CachingResolver::with_mode(ProtocolEngine::new(svc), DEFAULT_CACHE_CAPACITY, mode);
        (w, r, client, roots[0], [a, b])
    }

    /// The deepest cached, valid referral for `name` from `start`, as
    /// `(prefix length, context)`.
    fn deepest(
        r: &mut CachingResolver,
        w: &World,
        start: ObjectId,
        name: &str,
    ) -> Option<(usize, ObjectId)> {
        let name = CompoundName::parse_path(name).unwrap();
        let heard = CachingResolver::heard(r.mode, &r.table, w.now().ticks());
        let service = r.engine.service();
        on_plane!(&mut r.plane, p => {
            let by = (p.evidence)(w, heard);
            let found = p.referrals.lookup_deepest(by, service, start, name.components());
            found.map(|(plen, ctx, ..)| (plen, ctx))
        })
    }

    #[test]
    fn one_exchange_set_files_referrals_at_prefixes_of_the_whole_name() {
        let paths = |ps: &[&str]| -> Vec<CompoundName> {
            ps.iter()
                .map(|p| CompoundName::parse_path(p).unwrap())
                .collect()
        };
        let warm = paths(&["/a/g"]);
        // A miss from the root, one answered where its jump lands, two
        // referred further from there (by one referral), a ⊥ past a jump.
        let batch = paths(&["/local", "/a/b/x", "/a/h", "/a/b/y", "/a/nope"]);
        for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
            let (mut w, mut r, client, root, [a, b]) = chain(mode);
            let (mut w2, mut r2, client2, root2, _) = chain(mode);
            r.resolve_batch(&mut w, client, root, &warm);
            r2.resolve(&mut w2, client2, root2, &warm[0], Mode::Iterative);
            assert_eq!(deepest(&mut r, &w, root, "/a/b/x"), Some((2, a)));
            let out = r.resolve_batch(&mut w, client, root, &batch);
            let singles: Vec<Entity> = (batch.iter())
                .map(|name| r2.resolve(&mut w2, client2, root2, name, Mode::Iterative).0)
                .collect();
            assert_eq!(out.entities, singles, "{mode:?}");
            assert_eq!(out.from_cache, vec![false; batch.len()]);
            assert!(out.entities[..4].iter().all(|e| e.is_defined()));
            assert_eq!(r.referral_stats().recorded, r2.referral_stats().recorded);
            assert_eq!(r.referral_stats().recorded, 2, "`/a`, then `/a/b` once");
            assert_eq!(r.negative_stats().recorded, 1);
            // The referral from `/a` on is keyed by the whole name's
            // prefix: the jump's two components are counted once.
            assert_eq!(deepest(&mut r, &w, root, "/a/b/z"), Some((3, b)));
            assert_eq!(deepest(&mut r, &w, root, "/a/g/z"), Some((2, a)));
            // A later sibling jumps as deep as one resolved on its own.
            let sibling = paths(&["/a/b/z"]);
            let (sent, sent2) = (w.trace().counter("sent"), w2.trace().counter("sent"));
            let out = r.resolve_batch(&mut w, client, root, &sibling);
            r2.resolve(&mut w2, client2, root2, &sibling[0], Mode::Iterative);
            assert!(out.entities[0].is_defined());
            assert_eq!(w.trace().counter("sent") - sent, 2, "straight to `/a/b`");
            assert_eq!(w2.trace().counter("sent") - sent2, 2);
        }
    }

    #[test]
    fn misses_across_many_zones_take_their_rounds_not_a_round_trip_each() {
        const ZONES: usize = 16;
        let mut w = World::new(85);
        let net = w.add_network("n");
        let hub = w.add_machine("hub", net);
        let root = w.machine_root(hub);
        let mut machines = vec![hub];
        for z in 0..ZONES {
            let m = w.add_machine(format!("z{z}"), net);
            let export = w.machine_root(m);
            let zone = store::ensure_dir(w.state_mut(), export, "export");
            for f in 0..5 {
                store::create_file(w.state_mut(), zone, &format!("f{f}"), vec![]);
            }
            store::attach(w.state_mut(), root, &format!("z{z}"), zone, false);
            machines.push(m);
        }
        let mut svc = NameService::install(&mut w, &machines);
        for &m in machines.iter().rev() {
            let export = w.machine_root(m);
            svc.place_subtree(&w, export, m);
        }
        let client = w.spawn(hub, "client", None);
        let mut r = CachingResolver::new(ProtocolEngine::new(svc));
        let name = |z: usize, f: usize| CompoundName::parse_path(&format!("/z{z}/f{f}")).unwrap();
        // Every zone but the last is referred to once: its misses jump.
        let warm: Vec<CompoundName> = (0..ZONES - 1).map(|z| name(z, 0)).collect();
        r.resolve_batch(&mut w, client, root, &warm);
        let misses: Vec<CompoundName> = (0..64).map(|k| name(k % ZONES, 1 + k / ZONES)).collect();
        let out = r.resolve_batch(&mut w, client, root, &misses);
        assert!(out.entities.iter().all(|e| e.is_defined()));
        assert_eq!(out.from_cache, vec![false; misses.len()]);
        // Round one asks fifteen zones and, for the last zone's misses, the
        // root; round two asks the last zone.
        assert_eq!(out.messages, 2 * (ZONES as u64 - 1 + 1 + 1));
        let round_trip = 2 * w.topology().latency_model().same_network;
        assert_eq!(
            out.latency.ticks(),
            2 * round_trip,
            "not one round trip a zone"
        );
    }

    #[test]
    fn zero_lookup_hit_rate_is_zero_not_nan() {
        // Satellite check: a fresh resolver has performed no lookups, and
        // every derived rate must be a number.
        let (_w, r, _client, _root) = setup();
        assert_eq!(r.stats().hits + r.stats().misses, 0);
        assert_eq!(r.stats().hit_rate(), 0.0);
        assert!(!r.stats().hit_rate().is_nan());
        assert!(!CacheStats::default().hit_rate().is_nan());
        let json = CacheStats::default().to_json();
        assert!(json.contains("\"hit_rate\": 0.000000"), "got {json}");
    }

    #[test]
    fn hits_plus_misses_equals_lookups_under_a_mixed_workload() {
        let (mut w, mut r, client, root) = setup();
        let mut lookups = 0u64;
        // Mixed workload: repeats (hits), fresh names (misses), failures
        // (negative-cache traffic), rebinds (staleness), every mode.
        for round in 0..3 {
            for p in ["/remote/data", "/remote", "/remote/nope", "/remote/data"] {
                let name = CompoundName::parse_path(p).unwrap();
                let mode = if round == 2 {
                    Mode::Recursive
                } else {
                    Mode::Iterative
                };
                r.resolve(&mut w, client, root, &name, mode);
                lookups += 1;
            }
            if round == 1 {
                let sub = match store::resolve_path(w.state(), root, "/remote") {
                    naming_core::entity::Entity::Object(o) => o,
                    other => panic!("remote missing: {other}"),
                };
                let fresh = w.state_mut().add_data_object("data-v2", vec![]);
                w.state_mut().bind(sub, Name::new("data"), fresh).unwrap();
                r.heal(&w);
            }
        }
        let s = r.stats();
        assert_eq!(
            s.hits + s.misses,
            lookups,
            "every lookup is exactly one hit or one miss"
        );
        assert!(s.hits > 0 && s.misses > 0, "the workload exercised both");
        assert!(!s.hit_rate().is_nan());
    }

    #[test]
    fn stale_audit_output_is_stable_under_memoization() {
        // The memoized audit, sharded across threads from 64 entries up,
        // must report exactly what the naive per-entry walk reports: over
        // a three-entry cache, and over a 96-entry one whose stale entries
        // fall in every chunk.
        fn naive_stale(w: &World, r: &CachingResolver) -> Vec<(ObjectId, CompoundName, Entity)> {
            let resolver = Resolver::new();
            let Planes::Oracle(plane) = &r.plane else {
                panic!("setup() builds an exact-mode resolver");
            };
            ResolutionMemo::entries(&plane.positives)
                .filter_map(|(start, suffix, cached)| {
                    let name = CompoundName::new(suffix.to_vec()).unwrap();
                    (resolver.resolve_entity(w.state(), start, &name) != cached)
                        .then_some((start, name, cached))
                })
                .collect()
        }
        for (files, rebind_every) in [(0, 1), (96, 7)] {
            let (mut w, mut r, client, root) = setup();
            let sub = match store::resolve_path(w.state(), root, "/remote") {
                naming_core::entity::Entity::Object(o) => o,
                other => panic!("remote missing: {other}"),
            };
            let mut leaves = vec!["data".to_string()];
            for i in 0..files {
                store::create_file(w.state_mut(), sub, &format!("f{i}"), vec![]);
                leaves.push(format!("f{i}"));
            }
            for p in ["/remote/data", "/remote", "/remote/data"] {
                let name = CompoundName::parse_path(p).unwrap();
                r.resolve(&mut w, client, root, &name, Mode::Iterative);
            }
            for leaf in &leaves[1..] {
                let name = CompoundName::parse_path(&format!("/remote/{leaf}")).unwrap();
                r.resolve(&mut w, client, root, &name, Mode::Iterative);
            }
            assert!(files == 0 || r.len() >= 64, "wide enough to shard");
            for leaf in leaves.iter().step_by(rebind_every) {
                let fresh = w.state_mut().add_data_object(format!("{leaf}-v2"), vec![]);
                w.state_mut().bind(sub, Name::new(leaf), fresh).unwrap();
            }
            let naive = naive_stale(&w, &r);
            assert_eq!(r.stale_entries(&w), naive);
            assert_eq!(naive.len(), leaves.len().div_ceil(rebind_every));
        }
    }

    #[test]
    fn rebinding_makes_cache_stale_and_invalidations_heal() {
        let (mut w, mut r, client, root) = setup();
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (old, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(r.staleness(&w), 0.0);
        // The authority rebinds "data" to a new object.
        let sub = match store::resolve_path(w.state(), root, "/remote") {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("remote missing: {other}"),
        };
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        w.state_mut().bind(sub, Name::new("data"), fresh).unwrap();
        // The cached answer is now incoherent with the authority.
        assert_eq!(r.stale_entries(&w).len(), 1);
        assert!((r.staleness(&w) - 1.0).abs() < 1e-9);
        let (still_old, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(from_cache);
        assert_eq!(still_old, old, "stale cache keeps serving the old entity");
        // Invalidate → next lookup fetches the new binding.
        assert!(r.invalidate(root, &name));
        let (new, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!from_cache);
        assert_eq!(new, naming_core::entity::Entity::Object(fresh));
        assert_eq!(r.staleness(&w), 0.0);
        assert_eq!(r.stats().invalidations, 1);
    }

    #[test]
    fn heal_drops_exactly_the_generation_stale_entries() {
        let (mut w, mut r, client, root) = setup();
        let touched = CompoundName::parse_path("/remote/data").unwrap();
        let untouched = CompoundName::parse_path("/remote").unwrap();
        r.resolve(&mut w, client, root, &touched, Mode::Iterative);
        r.resolve(&mut w, client, root, &untouched, Mode::Iterative);
        assert_eq!(r.len(), 2);
        // Nothing changed: healing is a no-op.
        assert_eq!(r.heal(&w), 0);
        // Rebind inside /remote. Both cached paths traversed the root
        // context, but only /remote/data read the mutated "remote"
        // context... in fact both read root only until the last step:
        // "/remote" never reads the remote context itself, so healing
        // keeps it and drops only the entry that read the mutated context.
        let sub = match store::resolve_path(w.state(), root, "/remote") {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("remote missing: {other}"),
        };
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        w.state_mut().bind(sub, Name::new("data"), fresh).unwrap();
        assert_eq!(r.heal(&w), 1);
        assert_eq!(r.len(), 1);
        // The healed cache is coherent again without a full flush.
        assert_eq!(r.staleness(&w), 0.0);
        let (e, from_cache) = r.resolve(&mut w, client, root, &touched, Mode::Iterative);
        assert!(!from_cache);
        assert_eq!(e, naming_core::entity::Entity::Object(fresh));
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let (mut w, mut r0, client, root) = setup();
        // Rebuild with a tiny cache over the same engine.
        let engine = std::mem::replace(
            r0.engine_mut(),
            ProtocolEngine::new(NameService::install(&mut w, &[])),
        );
        let mut r = CachingResolver::with_capacity(engine, 1);
        let a = CompoundName::parse_path("/remote/data").unwrap();
        let b = CompoundName::parse_path("/remote").unwrap();
        r.resolve(&mut w, client, root, &a, Mode::Iterative);
        r.resolve(&mut w, client, root, &b, Mode::Iterative);
        assert_eq!(r.len(), 1);
        assert_eq!(r.stats().evictions, 1);
        // `a` was evicted; resolving it again is a miss.
        let (_, from_cache) = r.resolve(&mut w, client, root, &a, Mode::Iterative);
        assert!(!from_cache);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let (mut w, mut r, client, root) = setup();
        for p in ["/remote/data", "/remote"] {
            let name = CompoundName::parse_path(p).unwrap();
            r.resolve(&mut w, client, root, &name, Mode::Iterative);
        }
        assert_eq!(r.len(), 2);
        r.invalidate_all();
        assert!(r.is_empty());
        assert_eq!(r.stats().invalidations, 2);
        mid(MachineId(0));
    }

    #[test]
    fn invalidating_absent_entry_is_false() {
        let (_w, mut r, _client, root) = setup();
        let name = CompoundName::parse_path("/never").unwrap();
        assert!(!r.invalidate(root, &name));
    }

    /// Pushes virtual time forward by `ticks` without any naming traffic.
    fn advance(w: &mut World, client: ActivityId, ticks: u64) {
        w.schedule_wake(client, Duration::from_ticks(ticks), u64::MAX);
        while w.step() {}
        w.drain_wakes(client);
    }

    #[test]
    fn leased_hits_are_free_and_expire_on_schedule() {
        let (mut w, mut r, client, root, _m) = setup_lease(Some(50));
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (e1, from_cache1) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(e1.is_defined());
        assert!(!from_cache1);
        let sent = w.trace().counter("sent");
        let (e2, from_cache2) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(e2, e1);
        assert!(from_cache2, "within the TTL the lease answers");
        assert_eq!(w.trace().counter("sent"), sent, "lease hits are free");
        // Past the TTL the lease lapses and the next lookup pays the wire.
        advance(&mut w, client, 60);
        let (e3, from_cache3) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(e3, e1);
        assert!(!from_cache3, "an expired lease must not answer");
        assert!(r.lease_stats().expired >= 1);
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn lease_resolution_never_reads_authoritative_state() {
        // The replica-local guarantee, demonstrated behaviorally: rebind
        // at the authority WITHOUT telling the replica, and the lease
        // keeps serving the old answer until it expires or a sync lands —
        // exact mode's validated caches would have noticed immediately.
        let (mut w, mut r, client, root, m1) = setup_lease(None);
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (old, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        let sub = match store::resolve_path(w.state(), root, "/remote") {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("remote missing: {other}"),
        };
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        r.engine_mut()
            .publish_binding(&mut w, sub, Name::new("data"), Some(Entity::Object(fresh)))
            .expect("publish commits");
        let (served, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(from_cache);
        assert_eq!(served, old, "unsynced replica still serves the lease");
        // The audit is the observer: it may compare the lease store with σ.
        assert_eq!(r.stale_entries(&w), vec![(root, name.clone(), old)]);
        assert_eq!(r.staleness(&w), 1.0);
        // An anti-entropy pull brings the serial movement home; the entry
        // drops and the next lookup fetches the new binding.
        let report = r.sync(&mut w, client, m1).expect("sync completes");
        assert!(
            report.entries_dropped >= 1,
            "serial movement drops the entry"
        );
        assert_eq!(r.staleness(&w), 0.0, "nothing stale is left to serve");
        let (now_fresh, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!from_cache);
        assert_eq!(now_fresh, Entity::Object(fresh));
        assert!(r.stale_entries(&w).is_empty());
    }

    #[test]
    fn first_sync_is_full_then_incremental() {
        let (mut w, mut r, client, root, m1) = setup_lease(None);
        // Never heard any shard: every populated shard answers full.
        let first = r.sync(&mut w, client, m1).expect("sync completes");
        assert!(first.shards_full >= 1, "cold replica gets full transfers");
        assert!(first.bytes > 0);
        // Nothing changed since: pure heartbeat, zero changes.
        let idle = r.sync(&mut w, client, m1).expect("sync completes");
        assert_eq!(idle.shards_full, 0);
        assert_eq!(idle.changes, 0);
        assert_eq!(idle.entries_dropped, 0);
        // One publish: the next sync carries exactly that delta.
        let sub = match store::resolve_path(w.state(), root, "/remote") {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("remote missing: {other}"),
        };
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        r.engine_mut()
            .publish_binding(&mut w, sub, Name::new("data"), Some(Entity::Object(fresh)))
            .expect("publish commits");
        let after = r.sync(&mut w, client, m1).expect("sync completes");
        assert_eq!(after.shards_full, 0, "journaled write travels as a diff");
        assert_eq!(after.changes, 1);
    }

    #[test]
    fn replica_restart_forces_full_transfers() {
        let (mut w, mut r, client, _root, m1) = setup_lease(None);
        r.sync(&mut w, client, m1).expect("warm-up sync");
        r.restart_replica();
        assert!(r.is_empty());
        let mut heard = Vec::new();
        r.serial_table()
            .since_into(w.state().shard_count(), &mut heard);
        assert!(heard.iter().all(|&(_, v)| v == ZoneSerial::ZERO));
        let cold = r.sync(&mut w, client, m1).expect("sync completes");
        assert!(
            cold.shards_full >= 1,
            "a restarted replica must not trust diffs"
        );
    }

    #[test]
    fn leased_batch_matches_singles() {
        let (mut w, mut r, client, root, _m) = setup_lease(None);
        let names: Vec<CompoundName> = ["/remote/data", "/remote", "/remote/nope", "/remote/data"]
            .iter()
            .map(|p| CompoundName::parse_path(p).unwrap())
            .collect();
        let batch = r.resolve_batch(&mut w, client, root, &names).clone();
        let (mut w2, mut r2, client2, root2, _m2) = setup_lease(None);
        for (i, name) in names.iter().enumerate() {
            let (e, _) = r2.resolve(&mut w2, client2, root2, name, Mode::Iterative);
            assert_eq!(batch.entities[i], e, "leased batch disagrees on {name}");
        }
        // Everything cached: the same batch again is free.
        let again = r.resolve_batch(&mut w, client, root, &names);
        assert_eq!(again.entities, batch.entities);
        assert_eq!(again.from_cache, vec![true, true, true, true]);
        assert_eq!(again.messages, 0);
    }

    #[test]
    fn zero_ttl_leases_are_never_served() {
        let (mut w, mut r, client, root, _m) = setup_lease(Some(0));
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (e1, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(e1.is_defined());
        assert!(r.is_empty(), "ttl 0 records nothing");
        let (_, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(!from_cache);
    }

    #[test]
    fn dropped_replies_never_seed_the_negative_cache() {
        // A bound name resolved while the network eats everything comes
        // back ⊥-with-unreachable; were that cached negatively, the name
        // would keep denying after the network heals. Under either policy.
        for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
            let (mut w, mut r, client, root, _m1) = setup_mode(mode);
            let name = CompoundName::parse_path("/remote/data").unwrap();
            w.set_message_drop_rate(1.0);
            let (e, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
            assert!(!e.is_defined());
            assert!(!from_cache);
            assert_eq!(
                r.negative_stats().recorded,
                0,
                "transport ⊥ must not be cached"
            );
            // Batch path under total loss: same invariant.
            let names = vec![name.clone()];
            let out = r.resolve_batch(&mut w, client, root, &names);
            assert!(!out.entities[0].is_defined());
            assert_eq!(r.negative_stats().recorded, 0);
            // Network heals: the same resolver answers correctly.
            w.set_message_drop_rate(0.0);
            let (healed, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
            assert!(healed.is_defined(), "no poisoned ⊥ survives the outage");
        }
    }

    #[test]
    fn a_transport_failure_is_reported_unreachable_not_bottom() {
        // Under total loss a cached resolve tells the caller the exchange
        // gave up — single and batch, under either policy — while a `⊥` a
        // cache or an authority stated is a verdict on the binding.
        for mode in [
            CoherenceMode::Exact,
            CoherenceMode::Lease { ttl: Some(1_000) },
        ] {
            let (mut w, mut r, client, root, _m1) = setup_mode(mode);
            let path = |p| CompoundName::parse_path(p).unwrap();
            let (bound, unbound) = (path("/remote/data"), path("/remote/nope"));
            let out = r.resolve_batch(&mut w, client, root, std::slice::from_ref(&unbound));
            assert_eq!(
                (out.entities.clone(), out.unreachable.clone()),
                (vec![Entity::Undefined], vec![])
            );
            w.set_message_drop_rate(1.0);
            let single = r.resolve_outcome(&mut w, client, root, &bound, Mode::Iterative);
            let gave_up = CachedOutcome {
                entity: Entity::Undefined,
                from_cache: false,
                unreachable: true,
            };
            assert_eq!(single, gave_up, "{mode:?}");
            let names = [unbound.clone(), bound.clone(), unbound, bound];
            let out = r.resolve_batch(&mut w, client, root, &names);
            assert_eq!(out.unreachable, [1, 3], "{mode:?}");
            assert_eq!(out.from_cache, [true, false, true, false]);
        }
    }

    #[test]
    fn a_lagging_replicas_answer_heals_on_the_next_write_to_its_zone() {
        // The zone is replicated onto the client's machine, the primary
        // unbinds, and the copy — not yet republished — still answers. The
        // authoritative walk refutes the answer, so no entry keeps it: kept
        // under the authority's footprint, no heal would drop it until the
        // zone's next write.
        for batch in [false, true] {
            let (mut w, mut r, client, root, m1) = setup_mode(CoherenceMode::Exact);
            let name = CompoundName::parse_path("/remote/data").unwrap();
            let Entity::Object(sub) = store::resolve_path(w.state(), root, "/remote") else {
                panic!("remote missing");
            };
            r.engine_mut().service_mut().replicate_zone(&mut w, sub, m1);
            w.state_mut().unbind(sub, Name::new("data")).unwrap();
            let answered = if batch {
                r.resolve_batch(&mut w, client, root, std::slice::from_ref(&name))
                    .entities[0]
            } else {
                r.resolve(&mut w, client, root, &name, Mode::Iterative).0
            };
            assert!(answered.is_defined(), "the lagging copy answered");
            assert_eq!(r.stale_entries(&w), [], "batch: {batch}");
            assert!(!r.resolve(&mut w, client, root, &name, Mode::Iterative).1);
            let other = w.state_mut().add_data_object("other", vec![]);
            w.state_mut().bind(sub, Name::new("other"), other).unwrap();
            assert_eq!(r.heal(&w), 0, "batch: {batch}");
            assert_eq!(r.staleness(&w), 0.0);
        }
    }

    #[test]
    fn healing_and_lease_sweeping_are_no_ops_on_the_other_plane() {
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let (mut w, mut leased, client, root, _m1) = setup_lease(Some(50));
        leased.resolve(&mut w, client, root, &name, Mode::Iterative);
        let Entity::Object(sub) = store::resolve_path(w.state(), root, "/remote") else {
            panic!("remote missing");
        };
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        w.state_mut().bind(sub, Name::new("data"), fresh).unwrap();
        assert_eq!(leased.heal(&w), 0, "a lease plane has no oracle store");
        assert_eq!(leased.len(), 1);
    }
}
