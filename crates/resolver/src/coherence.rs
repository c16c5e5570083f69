//! Lease coherence: the replica-local validation regime of §5, with
//! SOA-serial zones and IXFR-style incremental anti-entropy.
//!
//! A cached binding is a name resolved in an *earlier* context; the only
//! question a client cache ever answers is under what rule that binding
//! may still stand. [`Validity`] is that rule as a type. The oracle policy
//! (in [`referral`](crate::referral)) validates against authoritative
//! per-context generations read straight out of `world.state()` — which no
//! planet-scale deployment has. This module supplies the trait and the
//! deployable policy, [`LeasedCache`], modeled on DNS:
//!
//! * every zone (object-table shard) carries a [`ZoneSerial`] advanced on
//!   each committed naming write (`SystemState` bumps it in lockstep with
//!   the shard generation);
//! * cached bindings carry a [`Lease`]: an expiry on the virtual-time
//!   axis plus the serials of the zones the entry's resolution walked;
//! * replicas learn serial movement only through **anti-entropy pulls**:
//!   a [`ZoneDeltaRequest`](crate::wire::ZoneDeltaRequest) carrying the
//!   serials the puller already holds, answered by a
//!   [`ZoneDelta`](crate::wire::ZoneDelta) of per-zone slices that are
//!   either the exact diff since that serial (IXFR) or — when the
//!   authority's retained [`ZoneJournal`] window no longer covers it, or
//!   the serial regressed (replica restart) — a complete dump (AXFR).
//!
//! Validation under [`CoherenceMode::Lease`] is two replica-local checks:
//! lease not expired, and no *heard* serial newer than the stamped one.
//! Neither reads σ; staleness is therefore bounded by TTL plus
//! propagation delay instead of being zero — exactly the weak-coherence
//! window the paper analyzes, made measurable. With `ttl = ∞` and a pull
//! after every publish the two regimes coincide: serial invalidation
//! drops a superset of what generation healing drops, and every dropped
//! entry refetches to the identical authoritative answer (the CI cmp leg
//! pins this byte-for-byte).

use std::collections::{BTreeMap, VecDeque};

use naming_core::entity::{Entity, ObjectId};
use naming_core::lease::{Lease, ZoneSerial};
use naming_core::name::Name;
use naming_core::slab_lru::{SlabLru, Upsert};
use naming_core::state::MAX_SHARDS;

use crate::wire::{ShardDelta, ZoneChange};

/// How a cache decides whether an entry may still be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Validate against authoritative per-context generations (the
    /// oracle). Zero staleness, but requires reading σ on every probe —
    /// only a simulation can afford it.
    Exact,
    /// Validate against replica-local facts only: lease expiry on the
    /// virtual-time axis and zone serials heard through anti-entropy.
    /// Staleness is bounded by `ttl` + propagation delay.
    Lease {
        /// Lease duration in ticks; `None` = ∞ (entries die by serial
        /// movement or eviction only).
        ttl: Option<u64>,
    },
}

impl CoherenceMode {
    /// The lease TTL (`None` = ∞). Meaningful only in lease mode; exact
    /// mode answers `None` (it never grants leases at all).
    pub const fn lease_ttl(self) -> Option<u64> {
        match self {
            CoherenceMode::Exact => None,
            CoherenceMode::Lease { ttl } => ttl,
        }
    }
}

/// What a [`SerialTable::observe`] call learned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SerialObservation {
    /// The serial matches what was already known.
    Unchanged,
    /// The authority moved forward; entries stamped with the old serial
    /// are now suspect.
    Advanced,
    /// The authority answered with an *older* serial than previously
    /// heard — the replica-restart signature. The table adopts the
    /// authority's truth (it is the authority); callers must treat every
    /// entry depending on the zone as suspect.
    Regressed,
}

/// A replica's knowledge of zone serials: the newest serial *heard* per
/// shard, strictly via anti-entropy — never read from σ.
#[derive(Clone, Debug, Default)]
pub struct SerialTable {
    /// Indexed by shard, grown on demand; a shard past the end — like one
    /// explicitly at [`ZoneSerial::ZERO`] — was never heard from.
    heard: Vec<ZoneSerial>,
}

impl SerialTable {
    /// A table that has heard nothing (every zone at
    /// [`ZoneSerial::ZERO`]).
    pub fn new() -> SerialTable {
        SerialTable::default()
    }

    /// The newest serial heard for `shard`
    /// ([`ZoneSerial::ZERO`] when the zone was never heard from).
    #[inline]
    pub fn known(&self, shard: usize) -> ZoneSerial {
        self.heard.get(shard).copied().unwrap_or(ZoneSerial::ZERO)
    }

    /// Folds an authoritative serial into the table, reporting how it
    /// relates to what was known. The authority's value is adopted even
    /// on regression — it *is* the authority; the observation return lets
    /// the caller quarantine entries stamped under the lost history.
    ///
    /// An object id has no room for a shard index of [`MAX_SHARDS`] or
    /// more, so no entry can depend on such a zone: a frame naming one is
    /// ignored instead of sizing the table by it.
    pub fn observe(&mut self, shard: usize, serial: ZoneSerial) -> SerialObservation {
        let known = self.known(shard);
        if serial == known || shard >= MAX_SHARDS {
            return SerialObservation::Unchanged;
        }
        if shard >= self.heard.len() {
            self.heard.resize(shard + 1, ZoneSerial::ZERO);
        }
        self.heard[shard] = serial;
        if serial.is_newer_than(known) {
            SerialObservation::Advanced
        } else {
            SerialObservation::Regressed
        }
    }

    /// `(shard, serial)` pairs heard so far, for building a
    /// [`ZoneDeltaRequest`](crate::wire::ZoneDeltaRequest).
    pub fn snapshot(&self) -> Vec<(usize, ZoneSerial)> {
        let heard = self.heard.iter().copied().enumerate();
        heard.filter(|&(_, v)| v != ZoneSerial::ZERO).collect()
    }

    /// One `(shard, serial)` pair for *every* shard in `0..shards`,
    /// filling never-heard shards with [`ZoneSerial::ZERO`] — the request
    /// shape of a full anti-entropy pull, where silence about a shard
    /// would otherwise mean never learning it exists.
    pub fn snapshot_for(&self, shards: usize) -> Vec<(usize, ZoneSerial)> {
        (0..shards).map(|s| (s, self.known(s))).collect()
    }

    /// Forgets everything — a replica restart losing its warm state. The
    /// next pull asks from [`ZoneSerial::ZERO`] and gets full transfers.
    pub fn reset(&mut self) {
        self.heard.clear();
    }
}

/// Why a [`Validity::probe`] did or did not answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// A valid entry answered.
    Hit(Entity),
    /// An entry existed but its lease had lapsed; it was dropped.
    Expired,
    /// An entry existed but a zone serial or context generation it was
    /// recorded under has moved; it was dropped.
    Stale,
    /// No entry.
    Miss,
}

impl Probe {
    /// True when the probe found an entry and dropped it.
    pub fn dropped(self) -> bool {
        matches!(self, Probe::Expired | Probe::Stale)
    }
}

/// The rule under which a cached binding may still stand, and the bounded
/// `(start, suffix)` store that keeps bindings under it. Every client
/// cache is one such store; the code above it is generic over the policy.
///
/// The two policies differ in what the holder may *know* when it decides
/// ([`Validity::Evidence`]): the oracle reads the authority's generations,
/// so its answers are coherent (§4); a lease holder knows only its clock
/// and the zone serials it has heard, so its answers are weakly coherent,
/// stale for at most a TTL plus a propagation delay (§5).
pub trait Validity: Sized {
    /// What a holder consults to validate, record and sweep.
    type Evidence<'a>: Copy;

    /// An empty store holding at most `capacity` entries (least recently
    /// used evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    fn with_capacity(capacity: usize) -> Self;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// True when nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `(start, suffix)` up and validates what it finds: only
    /// [`Probe::Hit`] carries an answer; a refuted entry is dropped on sight.
    fn probe(&mut self, by: Self::Evidence<'_>, start: ObjectId, suffix: &[Name]) -> Probe;

    /// The positive cache's lookup. A policy serves what it validates —
    /// unless, like the oracle, it measures the incoherence of not doing so.
    fn serve(
        &mut self,
        by: Self::Evidence<'_>,
        start: ObjectId,
        suffix: &[Name],
    ) -> Option<Entity> {
        match self.probe(by, start, suffix) {
            Probe::Hit(e) => Some(e),
            _ => None,
        }
    }

    /// Records that `suffix` from `start` denotes `entity`; returns whether
    /// the entry was kept. `zones` is the protocol-visible footprint of the
    /// resolution: the shards of the start context, of every referral
    /// target and of the answer. A validated cache keeps only what the
    /// policy can justify; the positive cache records `on_trust` — the
    /// protocol's answer as given, the counterpart of [`Validity::serve`].
    fn record(
        &mut self,
        by: Self::Evidence<'_>,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        zones: &[usize],
        on_trust: bool,
    ) -> bool;

    /// The zones the held entry for `(start, suffix)` depends on (empty
    /// when nothing is held), which a caller that jumped through a cached
    /// referral composes into the entries it records downstream. A policy
    /// that keeps no zone stamps has nothing to compose —
    fn footprint(&self, _start: ObjectId, _suffix: &[Name]) -> &[usize] {
        &[]
    }

    /// — and nothing to drop when an anti-entropy pull hears `shard` move
    /// to `serial`; one that does drops every entry stamped under another
    /// serial of that zone. Returns how many.
    fn zone_moved(&mut self, _shard: usize, _serial: ZoneSerial) -> usize {
        0
    }

    /// Removes one entry; returns whether it existed.
    fn remove(&mut self, start: ObjectId, suffix: &[Name]) -> bool;

    /// Drops every entry.
    fn clear(&mut self);

    /// Drops every entry the evidence already refutes; returns how many.
    /// (Probes do this lazily; sweeping reclaims the space eagerly.)
    fn sweep(&mut self, by: Self::Evidence<'_>) -> usize;
}

/// Counters for a leased cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseCacheStats {
    /// Probes answered by a valid leased entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries dropped because their lease expired.
    pub expired: u64,
    /// Entries dropped because a depended-on zone's heard serial moved
    /// past the stamp (including regressions).
    pub serial_dropped: u64,
    /// Entries recorded.
    pub recorded: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl LeaseCacheStats {
    /// Entries dropped for any coherence reason (expiry or serial).
    pub fn invalidated(&self) -> u64 {
        self.expired + self.serial_dropped
    }
}

/// The lease policy's evidence: what a replica knows without asking the
/// authority. There is no σ in it, so nothing done under it can read σ.
#[derive(Clone, Copy, Debug)]
pub struct Heard<'a> {
    /// The replica's clock, in virtual ticks.
    pub now: u64,
    /// Duration of the leases granted now (`None` = ∞).
    pub ttl: Option<u64>,
    /// The zone serials heard through anti-entropy pulls.
    pub table: &'a SerialTable,
}

/// One leased binding: the entity plus the replica-local facts that
/// justify serving it.
#[derive(Clone, Debug, Default)]
struct LeasedEntry {
    entity: Entity,
    /// First tick at which the entry may no longer be served
    /// (half-open validity, see [`Lease`]).
    expires_at: u64,
    /// Every zone the resolution depended on, sorted and distinct.
    zones: Vec<usize>,
    /// Per zone in `zones`, the serial heard at record time.
    stamps: Vec<ZoneSerial>,
}

impl LeasedEntry {
    fn stamped(&self) -> impl Iterator<Item = (usize, ZoneSerial)> + '_ {
        self.zones.iter().copied().zip(self.stamps.iter().copied())
    }
}

/// A bounded cache of leased bindings, validated by the two
/// replica-local checks only: lease expiry and heard-serial movement
/// ([`Heard`]). Staleness beyond the checks is *possible by design* and
/// bounded by the TTL.
///
/// The entries live in the [`SlabLru`] the oracle policy's memo uses: a
/// probe is one hash and one slot read, a full cache evicts its least
/// recently *served or recorded* entry, and a slot freed by expiry, serial
/// movement or eviction is refilled in place by the next record.
#[derive(Clone, Debug)]
pub struct LeasedCache {
    store: SlabLru<LeasedEntry>,
    stats: LeaseCacheStats,
}

impl LeasedCache {
    /// Counters so far.
    pub fn stats(&self) -> LeaseCacheStats {
        self.stats
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Slots the backing slab has ever allocated (live plus reusable);
    /// bounded by the capacity however often entries lapse and return.
    pub fn slots(&self) -> usize {
        self.store.slots()
    }

    /// The cached entries as `(start, suffix, entity)`, in lexicographic
    /// order like the memo's — for audits, which observe the cache from
    /// outside and may compare it with σ where the policy may not.
    pub fn entries(&self) -> impl Iterator<Item = (ObjectId, &[Name], Entity)> + '_ {
        let entries = self
            .store
            .iter()
            .map(|(start, suffix, e)| (start, suffix, e.entity));
        let mut entries: Vec<_> = entries.collect();
        entries.sort_unstable();
        entries.into_iter()
    }
}

impl Validity for LeasedCache {
    type Evidence<'a> = Heard<'a>;

    fn with_capacity(capacity: usize) -> LeasedCache {
        LeasedCache {
            store: SlabLru::with_capacity(capacity),
            stats: LeaseCacheStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    /// Validates with the two replica-local checks.
    fn probe(&mut self, by: Heard<'_>, start: ObjectId, suffix: &[Name]) -> Probe {
        let Some(slot) = self.store.find(start, suffix) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        let entry = self.store.value(slot);
        let verdict = if by.now >= entry.expires_at {
            self.stats.expired += 1;
            Probe::Expired
        } else if entry.stamped().any(|(z, s)| by.table.known(z) != s) {
            // Any movement — forward or regressed — past the stamped
            // serial invalidates: the entry was justified under history
            // the zone no longer stands behind.
            self.stats.serial_dropped += 1;
            Probe::Stale
        } else {
            self.stats.hits += 1;
            let hit = Probe::Hit(entry.entity);
            self.store.touch(slot);
            return hit;
        };
        self.store.remove(slot);
        self.stats.misses += 1;
        verdict
    }

    /// Grants a lease at `by.now` for `by.ttl` ticks, stamping each of
    /// `zones` with the serial currently heard. Justified by the protocol's
    /// answer alone, trusted or not: a lagging authority *may* plant a stale
    /// entry, and the lease bounds how long it misleads. A `ttl` of 0 is
    /// never valid, so records nothing.
    fn record(
        &mut self,
        by: Heard<'_>,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        zones: &[usize],
        _on_trust: bool,
    ) -> bool {
        if by.ttl == Some(0) {
            return false;
        }
        let (how, e) = self.store.upsert(start, suffix);
        e.entity = entity;
        e.expires_at = Lease::grant(by.now, by.ttl, ZoneSerial::ZERO).expires_at;
        e.zones.clear();
        e.zones.extend_from_slice(zones);
        e.zones.sort_unstable();
        e.zones.dedup();
        e.stamps.clear();
        e.stamps.extend(e.zones.iter().map(|&z| by.table.known(z)));
        self.stats.recorded += 1;
        self.stats.evictions += u64::from(how == Upsert::Inserted { evicted: true });
        true
    }

    fn footprint(&self, start: ObjectId, suffix: &[Name]) -> &[usize] {
        match self.store.find(start, suffix) {
            Some(slot) => &self.store.value(slot).zones,
            None => &[],
        }
    }

    /// No invalidation is counted — that is the caller's policy.
    fn remove(&mut self, start: ObjectId, suffix: &[Name]) -> bool {
        let found = self.store.find(start, suffix);
        found.map(|slot| self.store.remove(slot)).is_some()
    }

    /// Not counted as invalidations.
    fn clear(&mut self) {
        self.store.clear();
    }

    /// Drops every entry whose lease has lapsed at `by.now`. (Serial
    /// movement is swept when it is heard: [`Validity::zone_moved`].)
    fn sweep(&mut self, by: Heard<'_>) -> usize {
        let n = self.store.retain(|e| by.now < e.expires_at);
        self.stats.expired += n as u64;
        n
    }

    fn zone_moved(&mut self, shard: usize, serial: ZoneSerial) -> usize {
        let moved = |e: &LeasedEntry| e.stamped().any(|(z, s)| z == shard && s != serial);
        let n = self.store.retain(|e| !moved(e));
        self.stats.serial_dropped += n as u64;
        n
    }
}

/// Default bound on retained changes per zone in a [`ZoneJournal`].
pub const DEFAULT_JOURNAL_WINDOW: usize = 64;

/// One zone's retained change log.
#[derive(Clone, Debug)]
struct ShardLog {
    /// The serial *before* the oldest retained change: a puller holding
    /// `base` (or newer) can be served incrementally; anyone older gets
    /// a full transfer.
    base: ZoneSerial,
    entries: VecDeque<(ZoneSerial, ZoneChange)>,
}

/// The authority-side delta log: a bounded window of recent changes per
/// zone, from which [`ZoneDeltaRequest`](crate::wire::ZoneDeltaRequest)s
/// are answered incrementally. A request older than the window — or one
/// the journal cannot prove contiguous coverage for — falls back to a
/// full transfer, never to a silently incomplete diff.
#[derive(Clone, Debug)]
pub struct ZoneJournal {
    logs: BTreeMap<usize, ShardLog>,
    window: usize,
}

impl ZoneJournal {
    /// A journal retaining at most `window` changes per zone.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> ZoneJournal {
        assert!(window > 0, "a zero-width journal can never serve a delta");
        ZoneJournal {
            logs: BTreeMap::new(),
            window,
        }
    }

    /// The retention bound per zone.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Changes currently retained for `shard`.
    pub fn retained(&self, shard: usize) -> usize {
        self.logs.get(&shard).map_or(0, |l| l.entries.len())
    }

    /// Appends the change committed at `serial` in `shard`. If the
    /// journal missed intermediate writes (a state mutation bypassed
    /// publication), the retained history is no longer contiguous and is
    /// discarded — older pullers then get full transfers, which is sound;
    /// serving a diff with silent gaps would not be.
    pub fn record(&mut self, shard: usize, serial: ZoneSerial, change: ZoneChange) {
        let prev = ZoneSerial::new(serial.get().wrapping_sub(1));
        let log = self.logs.entry(shard).or_insert_with(|| ShardLog {
            base: prev,
            entries: VecDeque::new(),
        });
        if let Some(&(last, _)) = log.entries.back() {
            if serial != last.bump() {
                log.entries.clear();
                log.base = prev;
            }
        } else if log.base != prev {
            log.base = prev;
        }
        log.entries.push_back((serial, change));
        while log.entries.len() > self.window {
            if let Some((s, _)) = log.entries.pop_front() {
                log.base = s;
            }
        }
    }

    /// The exact changes in `shard` after `since`, **iff** the retained
    /// window provably covers `(since, current]`. `None` means the caller
    /// must fall back to a full transfer: the window was evicted past
    /// `since`, the puller's serial regressed relative to the authority's
    /// (or vice versa), or unjournaled writes broke contiguity at the
    /// tail.
    pub fn delta_since(
        &self,
        shard: usize,
        since: ZoneSerial,
        current: ZoneSerial,
    ) -> Option<Vec<ZoneChange>> {
        if since == current {
            return Some(Vec::new());
        }
        // A puller "ahead" of the authority is the authority-restart
        // case: no diff can reconcile it.
        current.distance_from(since)?;
        let log = self.logs.get(&shard)?;
        // Coverage: the window must reach back to `since` …
        if log.base.is_newer_than(since) {
            return None;
        }
        // … and forward to `current` (a gap at the tail means σ moved
        // without the journal hearing about it).
        match log.entries.back() {
            Some(&(last, _)) if last == current => {}
            _ => return None,
        }
        Some(
            log.entries
                .iter()
                .filter(|&&(s, _)| s.is_newer_than(since))
                .map(|(_, c)| c.clone())
                .collect(),
        )
    }
}

impl Default for ZoneJournal {
    fn default() -> ZoneJournal {
        ZoneJournal::with_window(DEFAULT_JOURNAL_WINDOW)
    }
}

/// Counters for a [`ZoneMirror`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// Slices applied incrementally (IXFR).
    pub incremental: u64,
    /// Slices applied as full dumps (AXFR fallback).
    pub full: u64,
    /// Individual binding changes applied.
    pub changes_applied: u64,
    /// Slices whose serial regressed relative to what was heard before.
    pub regressions: u64,
}

/// A replica's materialized copy of zone bindings, maintained purely by
/// applying [`ShardDelta`] slices — the client end of anti-entropy. Used
/// to verify convergence (the mirror must equal the authority's zone
/// contents once serials match) and to exercise the full-transfer
/// fallback without touching σ.
#[derive(Clone, Debug, Default)]
pub struct ZoneMirror {
    table: SerialTable,
    bindings: BTreeMap<usize, BTreeMap<(ObjectId, Name), Entity>>,
    stats: MirrorStats,
}

impl ZoneMirror {
    /// An empty mirror that has heard nothing.
    pub fn new() -> ZoneMirror {
        ZoneMirror::default()
    }

    /// The serials heard so far.
    pub fn table(&self) -> &SerialTable {
        &self.table
    }

    /// Counters so far.
    pub fn stats(&self) -> MirrorStats {
        self.stats
    }

    /// Total bindings materialized across all zones.
    pub fn len(&self) -> usize {
        self.bindings.values().map(BTreeMap::len).sum()
    }

    /// True when no bindings are materialized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies one zone slice: a full dump replaces the zone's contents,
    /// an incremental diff applies change by change (⊥ unbinds). Adopts
    /// the slice's serial and reports how it related to prior knowledge.
    pub fn apply(&mut self, slice: &ShardDelta) -> SerialObservation {
        let obs = self.table.observe(slice.shard, slice.serial);
        if obs == SerialObservation::Regressed {
            self.stats.regressions += 1;
        }
        let zone = self.bindings.entry(slice.shard).or_default();
        if slice.full {
            zone.clear();
            self.stats.full += 1;
        } else {
            self.stats.incremental += 1;
        }
        for c in &slice.changes {
            self.stats.changes_applied += 1;
            if c.entity.is_defined() {
                zone.insert((c.ctx, c.name), c.entity);
            } else {
                zone.remove(&(c.ctx, c.name));
            }
        }
        obs
    }

    /// The mirrored binding of `name` in `ctx` (⊥ when not mirrored).
    pub fn lookup(&self, shard: usize, ctx: ObjectId, name: Name) -> Entity {
        self.bindings
            .get(&shard)
            .and_then(|z| z.get(&(ctx, name)).copied())
            .unwrap_or(Entity::Undefined)
    }

    /// The mirrored bindings of one zone, sorted, for convergence checks.
    pub fn zone_bindings(&self, shard: usize) -> Vec<(ObjectId, Name, Entity)> {
        self.bindings
            .get(&shard)
            .map(|z| z.iter().map(|(&(c, n), &e)| (c, n, e)).collect())
            .unwrap_or_default()
    }

    /// Replica restart: warm state is gone. The serial table and the
    /// materialized bindings are dropped (stats survive — they belong to
    /// the experimenter, not the replica); the next pull starts from
    /// [`ZoneSerial::ZERO`] and forces full transfers.
    pub fn restart(&mut self) {
        self.table.reset();
        self.bindings.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(raw: u32) -> ObjectId {
        ObjectId::from_index(raw)
    }

    fn at(now: u64, ttl: Option<u64>, table: &SerialTable) -> Heard<'_> {
        Heard { now, ttl, table }
    }

    fn change(ctx: u32, name: &str, bound: Option<u32>) -> ZoneChange {
        ZoneChange {
            ctx: oid(ctx),
            name: Name::new(name),
            entity: bound
                .map(|o| Entity::Object(oid(o)))
                .unwrap_or(Entity::Undefined),
        }
    }

    #[test]
    fn serial_table_observes_advance_and_regression() {
        let mut t = SerialTable::new();
        assert_eq!(t.known(3), ZoneSerial::ZERO);
        assert_eq!(
            t.observe(3, ZoneSerial::new(5)),
            SerialObservation::Advanced
        );
        assert_eq!(
            t.observe(3, ZoneSerial::new(5)),
            SerialObservation::Unchanged
        );
        assert_eq!(
            t.observe(3, ZoneSerial::new(9)),
            SerialObservation::Advanced
        );
        // Authority restart: older serial. Adopted, but flagged.
        assert_eq!(
            t.observe(3, ZoneSerial::new(2)),
            SerialObservation::Regressed
        );
        assert_eq!(t.known(3), ZoneSerial::new(2));
        t.reset();
        assert_eq!(t.known(3), ZoneSerial::ZERO);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn leased_cache_serves_until_expiry_or_serial_movement() {
        let mut table = SerialTable::new();
        table.observe(0, ZoneSerial::new(4));
        let mut c = LeasedCache::with_capacity(8);
        let suffix = [Name::new("a"), Name::new("b")];
        c.record(
            at(100, Some(20), &table),
            oid(1),
            &suffix,
            Entity::Object(oid(9)),
            &[0],
            false,
        );
        assert_eq!(
            c.probe(at(119, None, &table), oid(1), &suffix),
            Probe::Hit(Entity::Object(oid(9)))
        );
        // Expiry exactly at the tick: the half-open interval closes.
        c.record(
            at(100, Some(20), &table),
            oid(1),
            &suffix,
            Entity::Object(oid(9)),
            &[0],
            false,
        );
        assert_eq!(
            c.probe(at(120, None, &table), oid(1), &suffix),
            Probe::Expired
        );
        assert_eq!(c.probe(at(120, None, &table), oid(1), &suffix), Probe::Miss);
        // Serial movement kills an unexpired entry.
        c.record(
            at(100, Some(1000), &table),
            oid(1),
            &suffix,
            Entity::Object(oid(9)),
            &[0],
            false,
        );
        table.observe(0, ZoneSerial::new(5));
        assert_eq!(
            c.probe(at(101, None, &table), oid(1), &suffix),
            Probe::Stale
        );
        assert_eq!(c.stats().expired, 1);
        assert_eq!(c.stats().serial_dropped, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn zero_ttl_records_nothing_and_infinite_ttl_never_expires() {
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(8);
        let suffix = [Name::new("x")];
        c.record(
            at(7, Some(0), &table),
            oid(1),
            &suffix,
            Entity::Object(oid(2)),
            &[0],
            false,
        );
        assert!(c.is_empty(), "ttl 0 is never servable; do not store it");
        c.record(
            at(7, None, &table),
            oid(1),
            &suffix,
            Entity::Object(oid(2)),
            &[0],
            false,
        );
        assert_eq!(
            c.probe(at(u64::MAX - 1, None, &table), oid(1), &suffix),
            Probe::Hit(Entity::Object(oid(2)))
        );
    }

    #[test]
    fn leased_cache_bounds_by_fifo_eviction() {
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(2);
        for i in 0..4u32 {
            let suffix = [Name::new(&format!("n{i}"))];
            c.record(
                at(0, None, &table),
                oid(1),
                &suffix,
                Entity::Object(oid(i)),
                &[0],
                false,
            );
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 2);
        // The oldest two are gone, the newest two serve.
        assert_eq!(
            c.probe(at(1, None, &table), oid(1), &[Name::new("n0")]),
            Probe::Miss
        );
        assert_eq!(
            c.probe(at(1, None, &table), oid(1), &[Name::new("n3")]),
            Probe::Hit(Entity::Object(oid(3)))
        );
    }

    /// Records `(oid(1), [label])` under an infinite lease (or `ttl`).
    fn put(c: &mut LeasedCache, table: &SerialTable, now: u64, ttl: Option<u64>, label: &str) {
        let e = Entity::Object(oid(7));
        c.record(
            at(now, ttl, table),
            oid(1),
            &[Name::new(label)],
            e,
            &[0],
            false,
        );
    }

    #[test]
    fn re_recorded_entry_is_the_newest_not_the_next_victim() {
        // The FIFO this store replaced kept the key of a lapsed entry in
        // its eviction queue; re-recording the entry queued the key again,
        // and at capacity the stale front copy evicted the live, newest
        // entry in place of the oldest.
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(4);
        put(&mut c, &table, 0, Some(10), "a");
        assert_eq!(
            c.probe(at(10, None, &table), oid(1), &[Name::new("a")]),
            Probe::Expired
        );
        for label in ["b", "c", "d"] {
            put(&mut c, &table, 11, None, label);
        }
        put(&mut c, &table, 12, None, "a");
        assert_eq!((c.len(), c.stats().evictions), (4, 0));
        // Capacity + 1: exactly one entry goes, and it is the oldest.
        put(&mut c, &table, 13, None, "e");
        assert_eq!((c.len(), c.stats().evictions), (4, 1));
        let probe =
            |c: &mut LeasedCache, label| c.probe(at(14, None, &table), oid(1), &[Name::new(label)]);
        assert_eq!(probe(&mut c, "b"), Probe::Miss);
        for label in ["a", "c", "d", "e"] {
            assert_eq!(probe(&mut c, label), Probe::Hit(Entity::Object(oid(7))));
        }
    }

    #[test]
    fn lapse_and_return_cycles_leave_nothing_behind() {
        // 10⁵ record → expire cycles over 8 keys: the live set never passes
        // 8, so neither may the slab (the FIFO's queue grew by a key per
        // cycle, for good).
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(16);
        let labels: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        for cycle in 0..100_000u64 {
            let (label, now) = (&labels[(cycle % 8) as usize], cycle * 10);
            put(&mut c, &table, now, Some(5), label);
            if cycle % 3 == 0 {
                assert_eq!(c.sweep(at(now + 5, None, &table)), 1);
            } else {
                assert_eq!(
                    c.probe(at(now + 5, None, &table), oid(1), &[Name::new(label)]),
                    Probe::Expired
                );
            }
            assert!(c.len() <= 16 && c.slots() <= 16);
        }
        assert_eq!((c.len(), c.slots(), c.stats().evictions), (0, 1, 0));
        assert_eq!(c.stats().expired, 100_000);
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(2);
        put(&mut c, &table, 0, None, "old");
        put(&mut c, &table, 0, None, "new");
        assert!(matches!(
            c.probe(at(1, None, &table), oid(1), &[Name::new("old")]),
            Probe::Hit(_)
        ));
        put(&mut c, &table, 2, None, "newer");
        assert_eq!(
            c.probe(at(3, None, &table), oid(1), &[Name::new("new")]),
            Probe::Miss
        );
        assert!(matches!(
            c.probe(at(3, None, &table), oid(1), &[Name::new("old")]),
            Probe::Hit(_)
        ));
    }

    #[test]
    fn serial_table_ignores_shards_no_object_id_can_name() {
        let mut t = SerialTable::new();
        let serial = ZoneSerial::new(9);
        assert_eq!(t.observe(MAX_SHARDS, serial), SerialObservation::Unchanged);
        assert_eq!(t.observe(usize::MAX, serial), SerialObservation::Unchanged);
        assert_eq!(t.known(usize::MAX), ZoneSerial::ZERO);
        assert_eq!(
            t.observe(MAX_SHARDS - 1, serial),
            SerialObservation::Advanced
        );
        assert_eq!(t.snapshot(), vec![(MAX_SHARDS - 1, serial)]);
    }

    #[test]
    fn invalidate_zone_drops_exactly_the_dependents() {
        let mut table = SerialTable::new();
        table.observe(0, ZoneSerial::new(1));
        table.observe(1, ZoneSerial::new(1));
        let mut c = LeasedCache::with_capacity(8);
        c.record(
            at(0, None, &table),
            oid(1),
            &[Name::new("a")],
            Entity::Object(oid(5)),
            &[0],
            false,
        );
        c.record(
            at(0, None, &table),
            oid(2),
            &[Name::new("b")],
            Entity::Object(oid(6)),
            &[1],
            false,
        );
        c.record(
            at(0, None, &table),
            oid(3),
            &[Name::new("c")],
            Entity::Object(oid(7)),
            &[0, 1],
            false,
        );
        assert_eq!(c.zone_moved(0, ZoneSerial::new(2)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.probe(at(1, None, &table), oid(2), &[Name::new("b")]),
            Probe::Hit(Entity::Object(oid(6)))
        );
    }

    #[test]
    fn sweep_expired_reclaims_lapsed_leases() {
        let table = SerialTable::new();
        let mut c = LeasedCache::with_capacity(8);
        c.record(
            at(0, Some(10), &table),
            oid(1),
            &[Name::new("a")],
            Entity::Object(oid(5)),
            &[0],
            false,
        );
        c.record(
            at(0, Some(30), &table),
            oid(2),
            &[Name::new("b")],
            Entity::Object(oid(6)),
            &[0],
            false,
        );
        assert_eq!(c.sweep(at(10, None, &table)), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn journal_serves_incremental_within_window() {
        let mut j = ZoneJournal::with_window(16);
        for i in 1..=5u64 {
            j.record(
                0,
                ZoneSerial::new(i),
                change(10, &format!("n{i}"), Some(100 + i as u32)),
            );
        }
        let cur = ZoneSerial::new(5);
        assert_eq!(j.delta_since(0, cur, cur), Some(Vec::new()));
        let d = j.delta_since(0, ZoneSerial::new(3), cur).expect("covered");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name, Name::new("n4"));
        assert_eq!(d[1].name, Name::new("n5"));
        // From before any journaled history: full transfer.
        // (base is serial 0 here, so 0 is still coverable …)
        assert_eq!(
            j.delta_since(0, ZoneSerial::ZERO, cur).map(|d| d.len()),
            Some(5)
        );
    }

    #[test]
    fn journal_eviction_forces_full_transfer() {
        let mut j = ZoneJournal::with_window(4);
        for i in 1..=10u64 {
            j.record(0, ZoneSerial::new(i), change(10, "n", Some(i as u32)));
        }
        assert_eq!(j.retained(0), 4);
        let cur = ZoneSerial::new(10);
        // since=6 is the window base: still covered (changes 7..=10).
        assert_eq!(
            j.delta_since(0, ZoneSerial::new(6), cur).map(|d| d.len()),
            Some(4)
        );
        // since=5 fell off the window: full transfer required.
        assert_eq!(j.delta_since(0, ZoneSerial::new(5), cur), None);
        // An unknown shard has no journal at all.
        assert_eq!(j.delta_since(7, ZoneSerial::ZERO, ZoneSerial::new(1)), None);
    }

    #[test]
    fn journal_regression_and_gaps_refuse_diffs() {
        let mut j = ZoneJournal::with_window(8);
        j.record(0, ZoneSerial::new(1), change(10, "a", Some(1)));
        j.record(0, ZoneSerial::new(2), change(10, "b", Some(2)));
        // Puller ahead of the authority (authority restarted): no diff.
        assert_eq!(
            j.delta_since(0, ZoneSerial::new(9), ZoneSerial::new(2)),
            None
        );
        // A write bypassed the journal: σ says current=5, tail says 2.
        assert_eq!(
            j.delta_since(0, ZoneSerial::new(1), ZoneSerial::new(5)),
            None
        );
        // Recording resumes after the gap: history restarts at the gap.
        j.record(0, ZoneSerial::new(6), change(10, "c", Some(3)));
        assert_eq!(j.retained(0), 1, "non-contiguous history was discarded");
        assert_eq!(
            j.delta_since(0, ZoneSerial::new(1), ZoneSerial::new(6)),
            None
        );
        assert_eq!(
            j.delta_since(0, ZoneSerial::new(5), ZoneSerial::new(6))
                .map(|d| d.len()),
            Some(1)
        );
    }

    #[test]
    fn mirror_applies_incremental_and_full_and_flags_regression() {
        let mut m = ZoneMirror::new();
        // Incremental slice: two binds, then an unbind.
        let inc = ShardDelta {
            shard: 0,
            serial: ZoneSerial::new(3),
            full: false,
            changes: vec![
                change(10, "a", Some(1)),
                change(10, "b", Some(2)),
                change(10, "a", None),
            ],
        };
        assert_eq!(m.apply(&inc), SerialObservation::Advanced);
        assert_eq!(m.lookup(0, oid(10), Name::new("b")), Entity::Object(oid(2)));
        assert_eq!(m.lookup(0, oid(10), Name::new("a")), Entity::Undefined);
        assert_eq!(m.len(), 1);
        // Full slice replaces everything in the zone.
        let full = ShardDelta {
            shard: 0,
            serial: ZoneSerial::new(7),
            full: true,
            changes: vec![change(10, "c", Some(3))],
        };
        assert_eq!(m.apply(&full), SerialObservation::Advanced);
        assert_eq!(
            m.zone_bindings(0),
            vec![(oid(10), Name::new("c"), Entity::Object(oid(3)))]
        );
        // Authority regression is flagged and adopted.
        let back = ShardDelta {
            shard: 0,
            serial: ZoneSerial::new(2),
            full: true,
            changes: vec![],
        };
        assert_eq!(m.apply(&back), SerialObservation::Regressed);
        assert_eq!(m.stats().regressions, 1);
        assert!(m.is_empty());
        // Restart forgets serials and bindings; the next request starts
        // from ZERO (forcing a full transfer at the authority).
        m.restart();
        assert_eq!(m.table().known(0), ZoneSerial::ZERO);
    }
}
