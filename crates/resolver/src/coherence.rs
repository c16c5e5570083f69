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
//!   a request carrying the serials the puller already holds (wire tag 6),
//!   answered by per-zone slices (tag 7) that are either the exact diff
//!   since that serial (IXFR) or — when the authority's retained
//!   [`ZoneJournal`] window no longer covers it, or the serial regressed
//!   (replica restart) — a complete dump (AXFR).
//!
//! Each pull frame has one form, and a warm pull allocates nothing. The
//! replica asks from a serial list it keeps ([`SerialTable::since_into`]).
//! The authority reads the request into a list its engine keeps and writes
//! the answer from the journal and σ straight into a spare frame
//! (`ZoneJournal::answer_frame`); a full dump walks only its own zone's
//! objects. The replica reads the reply into slices it keeps
//! ([`KeptDelta`]): a full slice's changes are counted, never kept — its
//! zone is judged zone-wide, and the drop never reads them — so nothing of
//! a full transfer outlives the pull.
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
//!
//! A pull need not drop everything stamped under a zone that moved. Each
//! journaled change carries `was`, the binding it replaced, and an
//! incremental slice is the exact list of changes since the serial the
//! puller held. An entry stamped at that serial is dropped only when a
//! change can reach it: a changed label is one of its interior labels, or
//! its last label when the entry is a referral or the change's `was` is
//! the entry's entity. Everything else is re-stamped to the serial heard,
//! its lease untouched. This is §2's rule read
//! backwards: a walk consults σ only at the bindings it crosses, each by
//! one label of the name, and only the last binding is its answer — so a
//! change to `(ctx, n)` alters the answer only if `n` is an interior label
//! or the answer was `was`. A referral's target may be the nearest
//! replica's copy of the context bound, which no `was` names, so a change
//! of its last label always drops it. Full transfers, regressions and
//! slices from any other serial say nothing about which bindings moved and
//! keep the zone-wide drop.
//!
//! A pull also *renews* what it proves. Each reply says which zones its
//! walks read, at which serial ([`ZoneRead`]): a primary context's zone at
//! σ's current serial, a replica copy's at the primary's serial when the
//! copy was last refreshed. An entry whose every read serial is at or past
//! the serial heard for its zone when it was recorded is *renewable*; an
//! answer from a lagging copy never is. [`SerialTable`] keeps, per zone,
//! the tick the last pull that vouched for the heard serial was *sent*.
//! Every slice of a reply vouches for its zone — heartbeats, diffs, full
//! transfers and regressions alike: a slice states the serial σ held when
//! the pull was answered, and the zone-wide pass has dropped every entry
//! stamped under another serial. A probe or sweep that finds a renewable
//! entry's lease lapsed while all its stamps still read the heard serials
//! re-grants it until the earliest such tick over its zones plus the TTL.
//!
//! Why this is sound: the entry was read at a serial r at or past its
//! stamp, so every change after r lies in the diffs that re-stamped it —
//! and none of them could reach it. Its answer is therefore σ's answer at
//! the serial the pull proved, and σ held that serial no earlier than the
//! pull was sent: counting the lease from the send tick keeps staleness
//! under the TTL, and on a lossless network within one pull period (the
//! next pull drops what a change reached). An entry recorded with no read
//! proof — or through a cached referral that had none — dies by its TTL.

use std::collections::{BTreeMap, VecDeque};

use naming_core::entity::{Entity, ObjectId};
use naming_core::lease::{Lease, ZoneSerial};
use naming_core::name::Name;
use naming_core::slab_lru::{SlabLru, Upsert};
use naming_core::state::{SystemState, MAX_SHARDS};
use naming_sim::codec::{Layout, Sink, Writer};

use crate::wire::{DeltaSink, KeptDelta, SliceHead, ZoneChange, ZoneRead};

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
/// shard, strictly via anti-entropy — never read from σ — and when a pull
/// last vouched for it.
#[derive(Clone, Debug, Default)]
pub struct SerialTable {
    /// Indexed by shard, grown on demand: the serial heard, and the tick the
    /// last pull that proved the zone at it was sent (0: none did). A shard
    /// past the end — like one explicitly at [`ZoneSerial::ZERO`] — was
    /// never heard from.
    heard: Vec<(ZoneSerial, u64)>,
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
        self.heard
            .get(shard)
            .map_or(ZoneSerial::ZERO, |&(serial, _)| serial)
    }

    /// The tick the last pull that proved `shard` at its heard serial was
    /// sent (0 when none did).
    #[inline]
    pub fn proved_at(&self, shard: usize) -> u64 {
        self.heard.get(shard).map_or(0, |&(_, sent)| sent)
    }

    /// Records that a pull sent at `sent` proved `shard` at the serial now
    /// heard. Any slice does, once adopted ([`SerialTable::adopt`]) — a full
    /// transfer or a regression too: it states the serial σ held when the
    /// pull was answered, and the zone-wide pass over its moved zone drops
    /// every entry stamped under another serial.
    pub fn vouch(&mut self, shard: usize, sent: u64) {
        if shard < MAX_SHARDS {
            if shard >= self.heard.len() {
                self.heard.resize(shard + 1, (ZoneSerial::ZERO, 0));
            }
            self.heard[shard].1 = sent;
        }
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
            self.heard.resize(shard + 1, (ZoneSerial::ZERO, 0));
        }
        // Nothing has proved the new serial yet.
        self.heard[shard] = (serial, 0);
        if serial.is_newer_than(known) {
            SerialObservation::Advanced
        } else {
            SerialObservation::Regressed
        }
    }

    /// Folds slice `at` of a pull's reply into the table
    /// ([`SerialTable::observe`]) and says how its zone moved, as
    /// [`Validity::zones_moved`] takes it: by an exact diff from the serial
    /// heard before when the slice is incremental and moves the zone
    /// forward, zone-wide otherwise. `None` when the zone did not move.
    pub fn adopt(&mut self, at: usize, slice: SliceHead) -> Option<(MovedZone, SerialObservation)> {
        let since = self.known(slice.shard);
        let seen = self.observe(slice.shard, slice.serial);
        let diff = match seen {
            SerialObservation::Unchanged => return None,
            SerialObservation::Advanced => (!slice.full).then_some((since, at)),
            SerialObservation::Regressed => None,
        };
        let moved = MovedZone {
            shard: slice.shard,
            serial: slice.serial,
            diff,
        };
        Some((moved, seen))
    }

    /// One `(shard, serial)` pair for *every* shard in `0..shards` into
    /// `since`, which it replaces, filling never-heard shards with
    /// [`ZoneSerial::ZERO`] — the request shape of a full anti-entropy pull,
    /// where silence about a shard would otherwise mean never learning it
    /// exists. A puller that keeps the list asks in the same buffer every
    /// time.
    pub fn since_into(&self, shards: usize, since: &mut Vec<(usize, ZoneSerial)>) {
        since.clear();
        since.extend((0..shards).map(|s| (s, self.known(s))));
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
    /// target, of every zone a server read and of the answer. Every cache
    /// keeps only what the policy can justify, unless `on_trust`. The entry
    /// has no read proof, so it is never renewed.
    fn record(
        &mut self,
        by: Self::Evidence<'_>,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        zones: &[usize],
        on_trust: bool,
    ) -> bool {
        self.record_read(by, start, suffix, entity, zones, &[], on_trust)
    }

    /// [`Validity::record`] with what the answering walks read: a policy
    /// that renews leases keeps the entry renewable when every read serial
    /// is at or past the one heard for its zone (no read: never).
    #[allow(clippy::too_many_arguments)]
    fn record_read(
        &mut self,
        by: Self::Evidence<'_>,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        zones: &[usize],
        reads: &[ZoneRead],
        on_trust: bool,
    ) -> bool;

    /// Whether [`Validity::record_read`] reads its `reads` — a policy that
    /// renews what a pull proves.
    const RENEWS: bool = false;

    /// Whether the held entry for `(start, suffix)` may be renewed: a
    /// caller that jumped through a cached referral may renew what it
    /// records downstream only if so.
    fn vouched(&self, _start: ObjectId, _suffix: &[Name]) -> bool {
        false
    }

    /// The zones the held entry for `(start, suffix)` depends on (empty
    /// when nothing is held), which a caller that jumped through a cached
    /// referral composes into the entries it records downstream. A policy
    /// that keeps no zone stamps has nothing to compose —
    fn footprint(&self, _start: ObjectId, _suffix: &[Name]) -> &[usize] {
        &[]
    }

    /// — and nothing to drop when an anti-entropy pull hears zones move. One
    /// that does visits every entry once and, for each stamp `(z, s)` whose
    /// zone `moved` names, takes the zone's slices in reply order: a slice
    /// that leaves the zone at `s` changes nothing; an exact diff from `s`
    /// whose changes cannot reach the entry re-stamps it to the slice's
    /// serial; anything else — a full transfer, a regression, a diff from
    /// another serial, a change that can reach it — drops it. A change of
    /// `(ctx, n)` reaches an entry when `n` is one of its interior labels,
    /// or its last label and the entry is a referral or the change's `was`
    /// is the entry's entity. Sound by §2: the walk that answered the entry
    /// consulted σ only at the bindings it crossed, each by one of its
    /// labels, and its answer is the last one's value — so a change it does
    /// not reach left the answer as it was. A pass extends no lease; a probe
    /// renews what the pulls proved (module doc).
    fn zones_moved(&mut self, _moved: Moved<'_>) -> Pass {
        Pass::default()
    }

    /// Removes one entry; returns whether it existed.
    fn remove(&mut self, start: ObjectId, suffix: &[Name]) -> bool;

    /// Drops every entry.
    fn clear(&mut self);

    /// Drops every entry the evidence already refutes; returns how many.
    /// (Probes do this lazily; sweeping reclaims the space eagerly.)
    fn sweep(&mut self, by: Self::Evidence<'_>) -> usize;
}

/// One zone an anti-entropy pull heard move, as [`Validity::zones_moved`]
/// is given it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MovedZone {
    /// The zone (shard).
    pub shard: usize,
    /// The serial heard now.
    pub serial: ZoneSerial,
    /// When the slice is the exact diff from the serial heard before it:
    /// that serial, and the slice's index in the pull's reply. `None` for a
    /// full transfer or a regression, which say nothing about *which*
    /// bindings changed: the zone-wide drop.
    pub diff: Option<(ZoneSerial, usize)>,
}

impl MovedZone {
    /// A zone whose move is known only by its serial: every entry stamped
    /// under another serial of it goes.
    pub fn zone_wide(shard: usize, serial: ZoneSerial) -> MovedZone {
        MovedZone {
            shard,
            serial,
            diff: None,
        }
    }
}

/// What one anti-entropy pull heard: the zones that moved, in reply order
/// (a zone may move twice in one reply), and the reply's slices, whose
/// changes carry the `(label, was)` pairs the delta filter reads.
#[derive(Clone, Copy, Debug)]
pub struct Moved<'a> {
    zones: &'a [MovedZone],
    slices: &'a KeptDelta,
    /// The store holds referrals: their target may be a replica's copy of
    /// the context the name is bound to, which no `was` can recognise.
    referrals: bool,
}

impl<'a> Moved<'a> {
    /// The moves `zones`, whose diffs index the slices of `kept` (an empty
    /// one when every move is zone-wide).
    pub fn kept(zones: &'a [MovedZone], kept: &'a KeptDelta) -> Moved<'a> {
        Moved {
            zones,
            slices: kept,
            referrals: false,
        }
    }

    /// The same moves, as a store of referrals must judge them.
    pub fn of_referrals(self) -> Moved<'a> {
        Moved {
            referrals: true,
            ..self
        }
    }

    /// Bit `z % 64` of every moved zone `z`.
    fn mask(&self) -> u64 {
        self.zones.iter().fold(0, |m, z| m | 1 << (z.shard % 64))
    }

    /// Whether a change in slice `slice` may alter what a walk of `suffix`
    /// answered, `entity`. By §2 the walk consults σ only at the bindings
    /// it crosses, each by one label of `suffix`: a change of `(ctx, n)`
    /// matters only if `n` is an interior label — the walk may go on
    /// through it — or the last label, and then only if it replaced the
    /// answer (`was == entity`). A referral's answer may be a replica's
    /// copy, so any change of its last label reaches it. A slice the reply
    /// does not hold, or whose changes were not kept, reaches everything.
    fn reaches(&self, slice: usize, suffix: &[Name], entity: Entity) -> bool {
        let changes = self.slices.diff(slice);
        let (Some(changes), Some((last, interior))) = (changes, suffix.split_last()) else {
            return true;
        };
        changes.iter().any(|c| {
            interior.contains(&c.name) || (c.name == *last && (self.referrals || c.was == entity))
        })
    }
}

/// What one [`Validity::zones_moved`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pass {
    /// Entries dropped.
    pub dropped: usize,
    /// Entries kept under a moved zone and re-stamped to its new serial.
    pub restamped: usize,
}

impl std::ops::Add for Pass {
    type Output = Pass;

    fn add(self, other: Pass) -> Pass {
        Pass {
            dropped: self.dropped + other.dropped,
            restamped: self.restamped + other.restamped,
        }
    }
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
    /// Lapsed leases re-granted because the pulls since proved the entry.
    pub renewed: u64,
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
    /// Bit `z % 64` for each zone `z`: a pull whose moved zones miss the
    /// mask cannot refute the entry, and leaves the vectors unread.
    mask: u64,
    /// Every zone was read at or past the serial heard at record time.
    renewable: bool,
}

impl LeasedEntry {
    fn stamped(&self) -> impl Iterator<Item = (usize, ZoneSerial)> + '_ {
        self.zones.iter().copied().zip(self.stamps.iter().copied())
    }

    /// Re-grants a lapsed lease: a renewable entry whose stamps all read
    /// the heard serials runs until the earliest tick a pull proving one of
    /// its zones was sent, plus the TTL — if that is still ahead of now.
    fn renew(&mut self, by: Heard<'_>) -> bool {
        if !self.renewable || self.stamped().any(|(z, s)| by.table.known(z) != s) {
            return false;
        }
        let granted = self.zones.iter().map(|&z| by.table.proved_at(z)).min();
        let expires_at =
            granted.map_or(0, |t| Lease::grant(t, by.ttl, ZoneSerial::ZERO).expires_at);
        let renewed = by.now < expires_at;
        if renewed {
            self.expires_at = expires_at;
        }
        renewed
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

    /// Validates with the two replica-local checks, renewing a lapsed lease
    /// the pulls since have proved.
    fn probe(&mut self, by: Heard<'_>, start: ObjectId, suffix: &[Name]) -> Probe {
        let Some(slot) = self.store.find(start, suffix) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        let entry = self.store.value_mut(slot);
        let lapsed = by.now >= entry.expires_at;
        let renewed = lapsed && entry.renew(by);
        self.stats.renewed += u64::from(renewed);
        let verdict = if lapsed && !renewed {
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

    const RENEWS: bool = true;

    /// Grants a lease at `by.now` for `by.ttl` ticks, stamping each of
    /// `zones` with the serial currently heard. Justified by the protocol's
    /// answer alone — unless a read lags the serial heard for its zone: a
    /// lagging copy's answer, stamped with the serial heard, would outlive
    /// the next pull, so it is refused. A `ttl` of 0 is never valid, so
    /// records nothing.
    fn record_read(
        &mut self,
        by: Heard<'_>,
        start: ObjectId,
        suffix: &[Name],
        entity: Entity,
        zones: &[usize],
        reads: &[ZoneRead],
        _on_trust: bool,
    ) -> bool {
        let fresh = |&(z, read): &ZoneRead| read.distance_from(by.table.known(z)).is_some();
        if by.ttl == Some(0) || !reads.iter().all(fresh) {
            return false;
        }
        let (how, e) = self.store.upsert(start, suffix);
        e.entity = entity;
        e.expires_at = Lease::grant(by.now, by.ttl, ZoneSerial::ZERO).expires_at;
        // Each zone once: a slot's buffers grow to the most distinct zones
        // an entry of it had, not to the longest list it was handed.
        e.zones.clear();
        for &z in zones {
            if !e.zones.contains(&z) {
                e.zones.push(z);
            }
        }
        e.zones.sort_unstable();
        e.stamps.clear();
        e.stamps.extend(e.zones.iter().map(|&z| by.table.known(z)));
        e.mask = e.zones.iter().fold(0, |m, &z| m | 1 << (z % 64));
        e.renewable = !reads.is_empty();
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

    fn vouched(&self, start: ObjectId, suffix: &[Name]) -> bool {
        let found = self.store.find(start, suffix);
        found.is_some_and(|slot| self.store.value(slot).renewable)
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

    /// Drops every entry whose lease has lapsed at `by.now` and cannot be
    /// renewed. (Serial movement is swept when it is heard:
    /// [`Validity::zones_moved`].)
    fn sweep(&mut self, by: Heard<'_>) -> usize {
        let mut renewed = 0;
        let n = self.store.retain(|_, e| {
            if by.now < e.expires_at {
                return true;
            }
            let kept = e.renew(by);
            renewed += u64::from(kept);
            kept
        });
        self.stats.expired += n as u64;
        self.stats.renewed += renewed;
        n
    }

    /// The entry's zone mask is tested first: most entries depend on no
    /// moved zone, and their stamps are left unread.
    fn zones_moved(&mut self, moved: Moved<'_>) -> Pass {
        let mask = moved.mask();
        let mut restamped = 0;
        let dropped = self.store.retain(|suffix, e| {
            if e.mask & mask == 0 {
                return true;
            }
            let mut touched = false;
            for (&z, stamp) in e.zones.iter().zip(e.stamps.iter_mut()) {
                for m in moved.zones.iter().filter(|m| m.shard == z) {
                    if m.serial == *stamp {
                        continue;
                    }
                    match m.diff {
                        Some((since, slice))
                            if since == *stamp && !moved.reaches(slice, suffix, e.entity) =>
                        {
                            *stamp = m.serial;
                            touched = true;
                        }
                        _ => return false,
                    }
                }
            }
            restamped += usize::from(touched);
            true
        });
        self.stats.serial_dropped += dropped as u64;
        Pass { dropped, restamped }
    }
}

/// Default bound on retained changes per zone in a [`ZoneJournal`].
pub const DEFAULT_JOURNAL_WINDOW: usize = 64;

/// The most changes a zone's log is sized for up front: a longer window
/// grows past it as it fills.
const RESERVED_CHANGES: usize = 1024;

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
/// zone, from which anti-entropy pulls are answered incrementally. A
/// request older than the window — or one the journal cannot prove
/// contiguous coverage for — falls back to a full transfer, never to a
/// silently incomplete diff.
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
    ///
    /// A zone's log is sized to the window on its first change (up to
    /// 1 024 changes) and holds no more than the window, so a zone that
    /// keeps changing allocates once.
    pub fn record(&mut self, shard: usize, serial: ZoneSerial, change: ZoneChange) {
        let prev = ZoneSerial::new(serial.get().wrapping_sub(1));
        let reserved = self.window.min(RESERVED_CHANGES);
        let log = self.logs.entry(shard).or_insert_with(|| ShardLog {
            base: prev,
            entries: VecDeque::with_capacity(reserved),
        });
        if let Some(&(last, _)) = log.entries.back() {
            if serial != last.bump() {
                log.entries.clear();
                log.base = prev;
            }
        } else if log.base != prev {
            log.base = prev;
        }
        // The oldest change leaves before the newest joins.
        if log.entries.len() == self.window {
            if let Some((s, _)) = log.entries.pop_front() {
                log.base = s;
            }
        }
        log.entries.push_back((serial, change));
    }

    /// How many changes `shard` had after `since`, and the changes, **iff**
    /// the retained window provably covers `(since, current]`. `None` means
    /// the caller must fall back to a full transfer: the window was evicted
    /// past `since`, the puller's serial regressed relative to the
    /// authority's (or vice versa), or unjournaled writes broke contiguity
    /// at the tail.
    fn diff(
        &self,
        shard: usize,
        since: ZoneSerial,
        current: ZoneSerial,
    ) -> Option<(usize, impl Iterator<Item = &ZoneChange>)> {
        // A puller "ahead" of the authority is the authority-restart
        // case: no diff can reconcile it.
        let newer = usize::try_from(current.distance_from(since)?).ok()?;
        let tail = if newer == 0 {
            None
        } else {
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
            // The log holds consecutive serials: the changes after `since`
            // are its last `newer`.
            Some(log.entries.range(log.entries.len().checked_sub(newer)?..))
        };
        Some((newer, tail.into_iter().flatten().map(|(_, c)| c)))
    }

    /// The answer to anti-entropy pull `id` from `since` against σ =
    /// `state`, as the frame that carries it: written from the journal and σ
    /// as it goes out, with nothing collected first. Its slices come in
    /// request order, leaving out the zones σ does not have. Each states σ's
    /// serial and what changed since the puller's: nothing at equal serials
    /// (a heartbeat), the diff where the window covers it (IXFR), and
    /// otherwise — window evicted, authority restarted behind the puller,
    /// an unjournaled write — a full dump of the zone's live bindings
    /// (AXFR).
    pub(crate) fn answer_frame<'a>(
        &'a self,
        state: &'a SystemState,
        id: u64,
        since: &'a [(usize, ZoneSerial)],
    ) -> AnswerFrame<'a> {
        AnswerFrame {
            journal: self,
            state,
            id,
            since,
        }
    }
}

/// A pull's answer as it goes out ([`ZoneJournal::answer_frame`]).
pub(crate) struct AnswerFrame<'a> {
    journal: &'a ZoneJournal,
    state: &'a SystemState,
    id: u64,
    since: &'a [(usize, ZoneSerial)],
}

/// Written slice by slice; a full dump reads only its own zone's objects.
impl Layout for AnswerFrame<'_> {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        let AnswerFrame {
            journal,
            state,
            id,
            since,
        } = *self;
        let served = |&&(shard, _): &&(usize, ZoneSerial)| shard < state.shard_count();
        w.start(id, since.iter().filter(served).count());
        for &(shard, since) in since.iter().filter(served) {
            let serial = state.shard_serial(shard);
            let head = |full, changes| SliceHead {
                shard,
                serial,
                full,
                changes,
            };
            if let Some((newer, diff)) = journal.diff(shard, since, serial) {
                w.slice(head(false, newer));
                for c in diff {
                    w.change(c.ctx, c.name.as_str(), c.entity, c.was);
                }
                continue;
            }
            let contexts = || {
                let objects = state.shard_objects(shard);
                objects.filter_map(|o| state.context(o).map(|ctx| (o, ctx)))
            };
            let bindings = contexts().map(|(_, ctx)| ctx.len()).sum();
            w.slice(head(true, bindings));
            for (o, ctx) in contexts() {
                for (name, entity) in ctx.iter() {
                    w.change(o, name.as_str(), entity, Entity::Undefined);
                }
            }
        }
    }
}

impl Default for ZoneJournal {
    fn default() -> ZoneJournal {
        ZoneJournal::with_window(DEFAULT_JOURNAL_WINDOW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::{slice, Dump};
    use naming_sim::codec;

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
            was: Entity::Undefined,
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
        let mut since = vec![(9, ZoneSerial::new(9))];
        t.since_into(4, &mut since);
        assert_eq!(since, [0, 1, 2, 3].map(|s| (s, ZoneSerial::ZERO)));
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
        let mut heard = Vec::new();
        t.since_into(MAX_SHARDS, &mut heard);
        heard.retain(|&(_, v)| v != ZoneSerial::ZERO);
        assert_eq!(heard, vec![(MAX_SHARDS - 1, serial)]);
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
        // Zone 64 shares zone 0's mask bit; its stamp keeps the entry.
        c.record(
            at(0, None, &table),
            oid(4),
            &[Name::new("d")],
            Entity::Object(oid(8)),
            &[64],
            false,
        );
        let moved = [MovedZone::zone_wide(0, ZoneSerial::new(2))];
        let pass = c.zones_moved(Moved::kept(&moved, &KeptDelta::default()));
        assert_eq!((pass.dropped, pass.restamped), (2, 0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.footprint(oid(4), &[Name::new("d")]), [64]);
        assert_eq!(
            c.probe(at(1, None, &table), oid(2), &[Name::new("b")]),
            Probe::Hit(Entity::Object(oid(6)))
        );
    }

    /// Entries under `/a/b` (→ 5), `/a/c` (→ 6), `/d` (→ 7) and the
    /// unbound `/a/e`, all in zone 0 at serial 1, each kept for 100 ticks.
    fn filtered() -> (LeasedCache, SerialTable) {
        let mut table = SerialTable::new();
        table.observe(0, ZoneSerial::new(1));
        let mut c = LeasedCache::with_capacity(8);
        for (path, to) in [
            ("a/b", Some(5)),
            ("a/c", Some(6)),
            ("d", Some(7)),
            ("a/e", None),
        ] {
            let suffix: Vec<Name> = path.split('/').map(Name::new).collect();
            let e = to.map_or(Entity::Undefined, |o| Entity::Object(oid(o)));
            c.record(at(0, Some(100), &table), oid(1), &suffix, e, &[0], false);
        }
        (c, table)
    }

    /// One incremental slice of zone 0 from serial 1 to 2, as a replica
    /// keeps it.
    fn diff(changes: Vec<ZoneChange>) -> KeptDelta {
        let slices = vec![slice(0, ZoneSerial::new(2), false, changes)];
        let mut kept = KeptDelta::default();
        kept.read(&codec::encode(&Dump { id: 0, slices }));
        kept
    }

    fn rebind(name: &str, was: Option<u32>, to: Option<u32>) -> ZoneChange {
        let entity = |o: Option<u32>| o.map_or(Entity::Undefined, |o| Entity::Object(oid(o)));
        ZoneChange {
            ctx: oid(3),
            name: Name::new(name),
            entity: entity(to),
            was: entity(was),
        }
    }

    fn held(c: &mut LeasedCache, table: &SerialTable, now: u64) -> Vec<&'static str> {
        ["a/b", "a/c", "d", "a/e"]
            .into_iter()
            .filter(|path| {
                let suffix: Vec<Name> = path.split('/').map(Name::new).collect();
                matches!(
                    c.probe(at(now, None, table), oid(1), &suffix),
                    Probe::Hit(_)
                )
            })
            .collect()
    }

    #[test]
    fn a_diff_drops_only_the_entries_its_changes_reach() {
        let moved = [MovedZone {
            shard: 0,
            serial: ZoneSerial::new(2),
            diff: Some((ZoneSerial::new(1), 0)),
        }];
        // `b` rebound away from 5: the entry that answered 5 goes; `c`
        // rebound from something it did not answer leaves `/a/c`; `e`
        // bound where nothing was kills the ⊥ it cached.
        let slices = diff(vec![
            rebind("b", Some(5), Some(9)),
            rebind("c", Some(8), Some(9)),
            rebind("e", None, Some(9)),
        ]);
        let (mut c, mut table) = filtered();
        let pass = c.zones_moved(Moved::kept(&moved, &slices));
        assert_eq!((pass.dropped, pass.restamped), (2, 2));
        table.observe(0, ZoneSerial::new(2));
        assert_eq!(held(&mut c, &table, 99), ["a/c", "d"]);
        // The survivors were re-stamped, not re-leased.
        assert_eq!(held(&mut c, &table, 100), [] as [&str; 0]);

        // An interior label reaches everything below it.
        let slices = diff(vec![rebind("a", Some(2), Some(2))]);
        let (mut c, mut table) = filtered();
        let pass = c.zones_moved(Moved::kept(&moved, &slices));
        assert_eq!((pass.dropped, pass.restamped), (3, 1));
        table.observe(0, ZoneSerial::new(2));
        assert_eq!(held(&mut c, &table, 1), ["d"]);

        // As a referral store judges it, any change of a last label reaches.
        let slices = diff(vec![rebind("c", Some(8), Some(9))]);
        let (mut c, mut table) = filtered();
        let pass = c.zones_moved(Moved::kept(&moved, &slices).of_referrals());
        assert_eq!((pass.dropped, pass.restamped), (1, 3));
        table.observe(0, ZoneSerial::new(2));
        assert_eq!(held(&mut c, &table, 1), ["a/b", "d", "a/e"]);
    }

    #[test]
    fn only_an_exact_diff_from_the_stamp_keeps_anything() {
        let slices = diff(vec![rebind("zz", None, Some(9))]);
        // A full transfer, a regression and a diff from another serial
        // all fall back to the zone-wide drop.
        for m in [
            MovedZone::zone_wide(0, ZoneSerial::new(2)),
            MovedZone {
                shard: 0,
                serial: ZoneSerial::new(2),
                diff: Some((ZoneSerial::ZERO, 0)),
            },
            MovedZone {
                shard: 0,
                serial: ZoneSerial::new(2),
                diff: Some((ZoneSerial::new(1), 1)),
            },
        ] {
            let (mut c, _) = filtered();
            assert_eq!(c.zones_moved(Moved::kept(&[m], &slices)).dropped, 4);
            assert!(c.is_empty());
        }
        // A zone that moves there and back in one reply: the diff re-stamps,
        // the zone-wide step back refutes the new stamp.
        let there = MovedZone {
            shard: 0,
            serial: ZoneSerial::new(2),
            diff: Some((ZoneSerial::new(1), 0)),
        };
        let back = MovedZone::zone_wide(0, ZoneSerial::new(1));
        let (mut c, _) = filtered();
        assert_eq!(
            c.zones_moved(Moved::kept(&[there, back], &slices)).dropped,
            4
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

    /// The journal's diff of `shard` from `since` to `current`, collected.
    fn changes_since(
        j: &ZoneJournal,
        shard: usize,
        since: ZoneSerial,
        current: ZoneSerial,
    ) -> Option<Vec<ZoneChange>> {
        let (newer, diff) = j.diff(shard, since, current)?;
        let diff: Vec<_> = diff.copied().collect();
        assert_eq!(diff.len(), newer);
        Some(diff)
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
        assert_eq!(changes_since(&j, 0, cur, cur), Some(Vec::new()));
        let d = changes_since(&j, 0, ZoneSerial::new(3), cur).expect("covered");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name, Name::new("n4"));
        assert_eq!(d[1].name, Name::new("n5"));
        // From before any journaled history: full transfer.
        // (base is serial 0 here, so 0 is still coverable …)
        assert_eq!(
            changes_since(&j, 0, ZoneSerial::ZERO, cur).map(|d| d.len()),
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
            changes_since(&j, 0, ZoneSerial::new(6), cur).map(|d| d.len()),
            Some(4)
        );
        // since=5 fell off the window: full transfer required.
        assert_eq!(changes_since(&j, 0, ZoneSerial::new(5), cur), None);
        // An unknown shard has no journal at all.
        assert_eq!(
            changes_since(&j, 7, ZoneSerial::ZERO, ZoneSerial::new(1)),
            None
        );
    }

    #[test]
    fn the_journal_answers_a_pull_slice_by_slice() {
        let mut state = SystemState::with_shards(2);
        let ctx = state.add_context_object_in(1, "zone");
        let mut j = ZoneJournal::with_window(2);
        let before = state.shard_serial(1);
        let mut serials = Vec::new();
        for n in ["a", "b", "c"] {
            state.bind(ctx, Name::new(n), ctx).unwrap();
            let mut bound = change(0, n, None);
            (bound.ctx, bound.entity) = (ctx, Entity::Object(ctx));
            j.record(1, state.shard_serial(1), bound);
            serials.push(state.shard_serial(1));
        }
        let now = serials[2];
        let since = [(1, now), (1, serials[1]), (2, before), (1, before)];
        let delta = Dump::read(&codec::encode(&j.answer_frame(&state, 9, &since)));
        let delta = delta.expect("the answer reads");
        assert_eq!(delta.id, 9);
        // A heartbeat, a diff, then — shard 2 is none of σ's — a full dump:
        // `before` fell out of the two-change window.
        let got: Vec<_> = delta
            .slices
            .iter()
            .map(|(h, changes)| (h.shard, h.serial, h.full, changes.len()))
            .collect();
        assert_eq!(
            got,
            [(1, now, false, 0), (1, now, false, 1), (1, now, true, 3)]
        );
        assert_eq!(delta.slices[1].1[0].name, Name::new("c"));
        assert!(delta.slices[2].1.iter().all(|c| c.ctx == ctx));
    }

    /// The answer the authority writes straight into its frame is, slice by
    /// slice and byte for byte, the answer expected: a heartbeat, a diff, a
    /// window evicted past the puller, a puller ahead of σ (a regression),
    /// and a shard σ lacks, left out.
    #[test]
    fn the_journal_writes_its_answer_as_it_would_build_it() {
        let mut state = SystemState::with_shards(2);
        let ctx = state.add_context_object_in(1, "zone");
        let mut j = ZoneJournal::with_window(2);
        let before = state.shard_serial(1);
        let mut serials = Vec::new();
        for n in ["a", "b", "c"] {
            state.bind(ctx, Name::new(n), ctx).unwrap();
            let mut bound = change(0, n, None);
            (bound.ctx, bound.entity) = (ctx, Entity::Object(ctx));
            j.record(1, state.shard_serial(1), bound);
            serials.push(state.shard_serial(1));
        }
        let now = serials[2];
        let ahead = ZoneSerial::new(now.get() + 5);
        let since = [
            (1, now),
            (1, serials[1]),
            (1, before),
            (1, ahead),
            (2, before),
        ];
        let of = |full, names: &[&str]| {
            let changes = names.iter().map(|n| {
                let mut c = change(0, n, None);
                (c.ctx, c.entity) = (ctx, Entity::Object(ctx));
                c
            });
            slice(1, now, full, changes.collect())
        };
        let dump = of(true, &["a", "b", "c"]);
        let expected = Dump {
            id: 9,
            slices: vec![of(false, &[]), of(false, &["c"]), dump.clone(), dump],
        };
        let written = codec::encode(&j.answer_frame(&state, 9, &since));
        assert_eq!(written, codec::encode(&expected));
        assert_eq!(Dump::read(&written), Some(expected));
    }

    #[test]
    fn journal_regression_and_gaps_refuse_diffs() {
        let mut j = ZoneJournal::with_window(8);
        j.record(0, ZoneSerial::new(1), change(10, "a", Some(1)));
        j.record(0, ZoneSerial::new(2), change(10, "b", Some(2)));
        // Puller ahead of the authority (authority restarted): no diff.
        assert_eq!(
            changes_since(&j, 0, ZoneSerial::new(9), ZoneSerial::new(2)),
            None
        );
        // A write bypassed the journal: σ says current=5, tail says 2.
        assert_eq!(
            changes_since(&j, 0, ZoneSerial::new(1), ZoneSerial::new(5)),
            None
        );
        // Recording resumes after the gap: history restarts at the gap.
        j.record(0, ZoneSerial::new(6), change(10, "c", Some(3)));
        assert_eq!(j.retained(0), 1, "non-contiguous history was discarded");
        assert_eq!(
            changes_since(&j, 0, ZoneSerial::new(1), ZoneSerial::new(6)),
            None
        );
        assert_eq!(
            changes_since(&j, 0, ZoneSerial::new(5), ZoneSerial::new(6)).map(|d| d.len()),
            Some(1)
        );
    }
}
