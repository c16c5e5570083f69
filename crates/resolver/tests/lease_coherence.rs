//! End-to-end lease-coherence tests: TTL boundary semantics, serial
//! regressions across restarts, IXFR→AXFR fallback, and a property test
//! driving random publish/sync/clock schedules.
//!
//! Everything here runs the full stack — client cache over the wire
//! protocol over the simulated network — and checks the paper's §5
//! bounded-staleness contract from the outside: the oracle
//! ([`Resolver::resolve_entity`]) is the *experimenter's* instrument;
//! the lease-mode resolver under test never touches it. (That it cannot is
//! a fact of the types: the lease policy's evidence has no σ in it.) Run
//! under `debug_assertions`, as `cargo test` builds it, the stack runs with
//! the checks of the layers underneath live, so a broken recency-list
//! invariant in the store trips here too.

use std::collections::BTreeMap;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::{Lease, ZoneSerial};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::state::SystemState;
use naming_resolver::cache::{CachingResolver, DEFAULT_CACHE_CAPACITY};
use naming_resolver::coherence::{
    CoherenceMode, Heard, LeaseCacheStats, LeasedCache, Moved, MovedZone, Probe, SerialObservation,
    SerialTable, Validity,
};
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::referral::{NegativeCache, ReferralCache};
use naming_resolver::service::NameService;
use naming_resolver::wire::{KeptDelta, Mode};
use naming_sim::message::Payload;
use naming_sim::store;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::World;
use proptest::prelude::*;

/// Two machines, one exported directory, one file: `/remote/data` on m1
/// refers through to m2's store. Returns the directory so tests can
/// republish bindings under it.
fn setup(
    mode: CoherenceMode,
) -> (
    World,
    CachingResolver,
    ActivityId,
    ObjectId,
    ObjectId,
    MachineId,
) {
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
    (w, resolver, client, root, sub, m1)
}

/// Pushes virtual time forward by exactly `ticks` (cache hits cost no
/// virtual time, so expiry only ever arrives through explicit pacing).
fn advance(w: &mut World, client: ActivityId, ticks: u64) {
    w.schedule_wake(client, Duration::from_ticks(ticks), u64::MAX);
    while w.step() {}
    w.drain_wakes(client);
}

/// Rebinds `data` under `sub` to a brand-new object through the
/// journaled publish path; returns the new object.
fn republish(w: &mut World, r: &mut CachingResolver, sub: ObjectId, tag: &str) -> ObjectId {
    let fresh = w.state_mut().add_data_object(format!("data-{tag}"), vec![]);
    r.engine_mut()
        .publish_binding(w, sub, Name::new("data"), Some(Entity::Object(fresh)))
        .expect("publish commits");
    fresh
}

/// A lease's validity interval is half-open: `[granted, granted + ttl)`.
/// A resolve landing *exactly* on the expiry tick must refetch; one tick
/// earlier must still be served from cache.
#[test]
fn lease_expiring_exactly_at_the_resolve_tick_misses() {
    const TTL: u64 = 500;
    let (mut w, mut r, client, root, _sub, _m1) = setup(CoherenceMode::Lease { ttl: Some(TTL) });
    let name = CompoundName::parse_path("/remote/data").unwrap();

    // Leases are stamped at the tick the resolve *starts* (the answer is
    // at best that old), so the expiry boundary counts from here — not
    // from when the wire round-trip completes.
    let granted = w.now().ticks();
    let (e1, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert!(e1.is_defined());
    assert!(!from_cache);
    let rtt = w.now().ticks() - granted;
    assert!(
        rtt > 0 && rtt < TTL - 1,
        "fetch cost {rtt}t must fit inside the ttl"
    );

    // One tick *before* expiry: still a hit.
    advance(&mut w, client, TTL - 1 - rtt);
    let (e2, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert_eq!(e2, e1);
    assert!(from_cache, "now = granted + ttl - 1 is inside the lease");

    // The boundary tick itself: `now == expires_at` is outside the
    // half-open interval, so this resolve pays the wire again.
    advance(&mut w, client, 1);
    let before = r.lease_stats().expired;
    let (e3, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert_eq!(e3, e1);
    assert!(!from_cache, "now = granted + ttl is already expired");
    assert!(r.lease_stats().expired > before);
}

/// A replica restart wipes the heard-serial table, so the next
/// anti-entropy pull cannot ask for a diff — every zone comes back as a
/// full (AXFR-style) transfer and the caches start cold but correct.
#[test]
fn replica_restart_resyncs_with_full_transfers() {
    let (mut w, mut r, client, root, sub, m1) = setup(CoherenceMode::Lease { ttl: None });
    let name = CompoundName::parse_path("/remote/data").unwrap();
    r.resolve(&mut w, client, root, &name, Mode::Iterative);
    let first = r.sync(&mut w, client, m1).expect("cold sync completes");
    assert!(first.shards_full >= 1, "a cold table pulls full zones");

    // Steady state: the next pull after one publish is incremental.
    let fresh = republish(&mut w, &mut r, sub, "v2");
    let steady = r.sync(&mut w, client, m1).expect("steady sync completes");
    assert_eq!(steady.shards_full, 0);
    assert!(steady.shards_incremental >= 1);

    // Crash-and-restart the replica: caches emptied, serial table reset.
    r.restart_replica();
    assert_eq!(r.len(), 0);
    assert_eq!(r.serial_table().known(0), ZoneSerial::ZERO);
    let resync = r.sync(&mut w, client, m1).expect("resync completes");
    assert!(
        resync.shards_full >= 1,
        "restart forgets serials → full again"
    );
    let (got, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert!(!from_cache);
    assert_eq!(
        got,
        Entity::Object(fresh),
        "restart never resurrects staleness"
    );
}

/// A replica that synced against an authority which later restarted from
/// an older snapshot holds serials *ahead* of the authority. The next
/// pull observes the regression, counts it, falls back to a full
/// transfer, and re-adopts the authority's (lower) serial.
#[test]
fn authority_serial_regression_forces_full_transfer_and_readoption() {
    let (mut w, mut r, client, root, _sub, m1) = setup(CoherenceMode::Lease { ttl: None });
    let name = CompoundName::parse_path("/remote/data").unwrap();
    let (old, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert!(old.is_defined());
    r.sync(&mut w, client, m1).expect("first sync completes");
    let truth = w.state().shard_serial(0);
    assert_eq!(r.serial_table().known(0), truth);

    // Stage the regression: the experimenter plays the role of the
    // pre-restart authority and feeds the replica a serial from a future
    // the authority no longer remembers.
    let ahead = ZoneSerial::new(truth.get() + 64);
    r.serial_table_mut().observe(0, ahead);
    assert_eq!(r.serial_table().known(0), ahead);

    let report = r.sync(&mut w, client, m1).expect("sync completes");
    assert!(
        report.regressions >= 1,
        "serial moved backwards at the authority"
    );
    assert!(
        report.shards_full >= 1,
        "no diff exists across a regression"
    );
    assert_eq!(
        r.serial_table().known(0),
        truth,
        "the heard serial is re-adopted even when it regresses"
    );
    // The zone's cached entries were stamped under the old serial and
    // must have been dropped: the next resolve refetches and is correct.
    let (got, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert!(!from_cache, "regression drops the zone's leases");
    assert_eq!(got, old);
}

/// IXFR window eviction: when more publishes land than the journal
/// retains, its diff has a gap and the authority answers with a full
/// transfer instead — which still converges the replica.
#[test]
fn journal_window_eviction_falls_back_to_full_transfer() {
    let (mut w, mut r, client, root, sub, m1) = setup(CoherenceMode::Lease { ttl: None });
    r.engine_mut().set_journal_window(2);
    let name = CompoundName::parse_path("/remote/data").unwrap();
    r.resolve(&mut w, client, root, &name, Mode::Iterative);
    r.sync(&mut w, client, m1).expect("cold sync completes");

    // Five rebinds blow straight through a two-entry delta window.
    let mut latest = None;
    for k in 0..5 {
        latest = Some(republish(&mut w, &mut r, sub, &format!("v{k}")));
    }
    let report = r.sync(&mut w, client, m1).expect("sync completes");
    assert!(report.shards_full >= 1, "evicted window → AXFR fallback");
    let (got, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert_eq!(got, Entity::Object(latest.unwrap()));

    // One rebind fits the window: back to incremental service.
    let fresh = republish(&mut w, &mut r, sub, "v5");
    let report = r.sync(&mut w, client, m1).expect("sync completes");
    assert_eq!(report.shards_full, 0);
    assert!(report.shards_incremental >= 1);
    assert!(report.changes >= 1);
    let (got, _) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
    assert_eq!(got, Entity::Object(fresh));
}

/// One step of the random schedule the property test drives. Decoded
/// from a `(selector, amount)` pair: 0–3 resolve, 4 rebind, 5 unbind,
/// 6–7 sync, 8–10 advance the clock by `amount`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Resolve `/remote/data` and check the staleness contract.
    Resolve,
    /// Rebind `data` to a fresh object (or to ⊥ when `false`).
    Publish(bool),
    /// Anti-entropy pull from the authority.
    Sync,
    /// Advance the virtual clock.
    Advance(u64),
}

fn decode(selector: u8, amount: u64) -> Op {
    match selector {
        0..=3 => Op::Resolve,
        4 => Op::Publish(true),
        5 => Op::Publish(false),
        6..=7 => Op::Sync,
        _ => Op::Advance(amount),
    }
}

proptest! {
    /// Under any interleaving of publishes, syncs, clock advances, and
    /// resolutions on a lossless network, a lease-mode answer is either
    /// the current truth, or a *previous* truth replaced strictly less
    /// than one TTL ago — and never an entity that was never bound.
    /// Immediately after a sync with no intervening publish, answers are
    /// exactly current.
    #[test]
    fn random_schedules_respect_the_lease_bound(
        raw in prop::collection::vec((0u8..11, 1u64..80), 1..48),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(|(s, t)| decode(s, t)).collect();
        const TTL: u64 = 100;
        let (mut w, mut r, client, root, sub, m1) = setup(CoherenceMode::Lease { ttl: Some(TTL) });
        let name = CompoundName::parse_path("/remote/data").unwrap();
        let oracle = Resolver::new();
        // Truths this name has held, with the tick each stopped being
        // current. The initial binding is recorded implicitly: anything
        // served must match either the live truth or this graveyard.
        let mut graveyard: Vec<(Entity, u64)> = Vec::new();
        let mut version = 0u32;
        let mut clean_since_sync = false;
        for op in ops {
            match op {
                Op::Resolve => {
                    let now = w.now().ticks();
                    let (got, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
                    let truth = oracle.resolve_entity(w.state(), root, &name);
                    if got == truth {
                        // Current — always fine.
                    } else {
                        prop_assert!(from_cache, "a fresh fetch on a lossless net is current");
                        let excused = graveyard
                            .iter()
                            .any(|&(e, died)| e == got && now.saturating_sub(died) < TTL);
                        prop_assert!(
                            excused,
                            "served {got} at t{now} but truth is {truth} and no prior \
                             binding excuses it within ttl {TTL}: {graveyard:?}"
                        );
                        prop_assert!(!clean_since_sync, "a post-sync answer must be current");
                    }
                }
                Op::Publish(bind) => {
                    let now = w.now().ticks();
                    let old = oracle.resolve_entity(w.state(), root, &name);
                    graveyard.push((old, now));
                    let entity = if bind {
                        version += 1;
                        let fresh = w
                            .state_mut()
                            .add_data_object(format!("data-p{version}"), vec![]);
                        Some(Entity::Object(fresh))
                    } else {
                        None
                    };
                    r.engine_mut()
                        .publish_binding(&mut w, sub, Name::new("data"), entity)
                        .expect("publish commits");
                    clean_since_sync = false;
                }
                Op::Sync => {
                    r.sync(&mut w, client, m1).expect("lossless sync completes");
                    clean_since_sync = true;
                }
                Op::Advance(t) => advance(&mut w, client, t),
            }
        }
    }
}

// --- One drop pass per pull ---------------------------------------------
//
// A pull collects every zone whose heard serial moved, then walks each
// store once. What it drops must be exactly what one walk per moved zone,
// in reply order, drops: that per-zone loop, over a model store, is the
// reference below.

/// Zones an entry may be stamped with: more than 64, so that zones 64
/// apart (0 and 64, 1 and 65, …) share a bit of the entries' zone mask.
const POOL: [usize; 8] = [0, 1, 2, 7, 64, 65, 66, 71];

type Key = (ObjectId, Vec<Name>);

fn key(pick: u8) -> Key {
    let pick = u32::from(pick);
    let suffix = (0..=pick % 2)
        .map(|k| Name::new(&format!("k{}", pick / 2 + k)))
        .collect();
    (ObjectId::from_index(pick % 3), suffix)
}

/// One leased entry of the model.
#[derive(Clone, Debug)]
struct Held {
    key: Key,
    expires_at: u64,
    stamps: Vec<(usize, ZoneSerial)>,
}

/// The reference store: entries most recently used first, the lease
/// rule spelled out, and the pull's drop run once per moved zone.
#[derive(Debug)]
struct Model {
    held: Vec<Held>,
    capacity: usize,
    stats: LeaseCacheStats,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            held: Vec::new(),
            capacity,
            stats: LeaseCacheStats::default(),
        }
    }

    fn take(&mut self, key: &Key) -> Option<Held> {
        let at = self.held.iter().position(|h| h.key == *key)?;
        Some(self.held.remove(at))
    }

    fn record(&mut self, by: Heard<'_>, key: &Key, zones: &[usize]) {
        if self.take(key).is_none() && self.held.len() == self.capacity {
            self.held.pop();
            self.stats.evictions += 1;
        }
        let mut zones = zones.to_vec();
        zones.sort_unstable();
        zones.dedup();
        let stamps = zones.iter().map(|&z| (z, by.table.known(z))).collect();
        let expires_at = Lease::grant(by.now, by.ttl, ZoneSerial::ZERO).expires_at;
        let held = Held {
            key: key.clone(),
            expires_at,
            stamps,
        };
        self.held.insert(0, held);
        self.stats.recorded += 1;
    }

    /// Returns whether the probe dropped the entry it found.
    fn probe(&mut self, by: Heard<'_>, key: &Key) -> bool {
        let Some(h) = self.take(key) else {
            self.stats.misses += 1;
            return false;
        };
        if by.now >= h.expires_at {
            self.stats.expired += 1;
        } else if h.stamps.iter().any(|&(z, s)| by.table.known(z) != s) {
            self.stats.serial_dropped += 1;
        } else {
            self.stats.hits += 1;
            self.held.insert(0, h);
            return false;
        }
        self.stats.misses += 1;
        true
    }

    /// The per-zone drop: what one moved slice refutes.
    fn zone_moved(&mut self, shard: usize, serial: ZoneSerial) -> usize {
        let before = self.held.len();
        let moved = |h: &Held| h.stamps.iter().any(|&(z, s)| z == shard && s != serial);
        self.held.retain(|h| !moved(h));
        let n = before - self.held.len();
        self.stats.serial_dropped += n as u64;
        n
    }

    fn sweep(&mut self, now: u64) -> usize {
        let before = self.held.len();
        self.held.retain(|h| now < h.expires_at);
        let n = before - self.held.len();
        self.stats.expired += n as u64;
        n
    }

    fn keys_lru_first(&self) -> Vec<Key> {
        self.held.iter().rev().map(|h| h.key.clone()).collect()
    }
}

/// The cache's keys, least recently used first, read without looking
/// inside: a copy is topped up to its bound with fresh entries, then each
/// further fresh entry evicts the least recently used one, and the held
/// key that vanished is the next in line.
fn keys_lru_first(cache: &LeasedCache, held: &[Key]) -> Vec<Key> {
    let mut copy = cache.clone();
    let (table, mut fresh) = (SerialTable::new(), 0u32);
    let mut fill = |copy: &mut LeasedCache| {
        let suffix = [Name::new(&format!("fill{fresh}"))];
        let by = Heard {
            now: 0,
            ttl: None,
            table: &table,
        };
        copy.record(
            by,
            ObjectId::from_index(99),
            &suffix,
            Entity::Undefined,
            &[],
        );
        fresh += 1;
    };
    while copy.len() < copy.capacity() {
        fill(&mut copy);
    }
    let present = |copy: &LeasedCache, k: &Key| !copy.footprint(k.0, &k.1).is_empty();
    let mut left: Vec<Key> = held.iter().filter(|k| present(&copy, k)).cloned().collect();
    assert_eq!(left.len(), held.len(), "a held key is missing");
    let mut order = Vec::new();
    while !left.is_empty() {
        fill(&mut copy);
        let gone = left
            .iter()
            .position(|k| !present(&copy, k))
            .expect("one evicted");
        order.push(left.remove(gone));
    }
    order
}

/// One step of the equivalence schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Record a key in store 0 (positive), 1 (referral) or 2 (negative),
    /// stamped with some of [`POOL`]'s zones, under a 40-tick or an
    /// infinite lease.
    Record(Key, usize, Vec<usize>, Option<u64>),
    /// Probe a key in the positive (`true`) or the negative store.
    Probe(Key, bool),
    /// A pull whose reply names these `(zone, serial)` slices in order.
    Pull(Vec<(usize, ZoneSerial)>),
    /// A pull in which a zone moves one serial on and back again.
    Bounce(usize),
    /// A replica restart forgets every heard serial.
    Reset,
    /// Time passes, and lapsed leases are swept (`true`) or left for probes.
    Advance(u64, bool),
}

/// Decodes one step from `(selector, a, b, slices)`: 0–3 record, 4–5
/// probe, 6–7 pull, 8 bounce, 9 reset, 10 advance.
fn step(selector: u8, a: u8, b: u64, slices: &[(u8, u64)]) -> Step {
    let zone = |z: u8| POOL[usize::from(z)];
    match selector {
        0..=3 => {
            let zones = slices.iter().take(3).map(|&(z, _)| zone(z)).collect();
            Step::Record(
                key(a % 16),
                (b % 3) as usize,
                zones,
                (b & 4 != 0).then_some(40),
            )
        }
        4..=5 => Step::Probe(key(a % 16), b.is_multiple_of(2)),
        6..=7 => Step::Pull(
            slices
                .iter()
                .map(|&(z, s)| (zone(z), ZoneSerial::new(s)))
                .collect(),
        ),
        8 => Step::Bounce(zone(a % 8)),
        9 => Step::Reset,
        _ => Step::Advance(1 + b % 30, a & 1 == 1),
    }
}

proptest! {
    /// One drop pass per pull leaves what one pass per moved zone left:
    /// the same survivors in the same recency order, the same lease
    /// counters, the same side-cache invalidations and the same count of
    /// entries dropped by the pull.
    #[test]
    fn one_drop_pass_per_pull_equals_one_per_moved_zone(
        capacity in 1usize..10,
        raw in prop::collection::vec(
            (0u8..11, any::<u8>(), any::<u64>(), prop::collection::vec((0u8..8, 0u64..4), 1..6)),
            1..120,
        ),
    ) {
        let mut positives = LeasedCache::with_capacity(capacity);
        let mut referrals: ReferralCache<LeasedCache> = ReferralCache::with_capacity(capacity);
        let mut negatives: NegativeCache<LeasedCache> = NegativeCache::with_capacity(capacity);
        let mut models = [Model::new(capacity), Model::new(capacity), Model::new(capacity)];
        let mut side_invalidated = [0u64; 2];
        let mut table = SerialTable::new();
        let mut moved = Vec::new();
        let no_diff = KeptDelta::default();
        let mut now = 0u64;
        for (selector, a, b, slices) in raw {
            let reply = match step(selector, a, b, &slices) {
                Step::Record(k, store, zones, ttl) => {
                    let by = Heard { now, ttl, table: &table };
                    let target = ObjectId::from_index(7);
                    let kept = match store {
                        0 => positives.record(by, k.0, &k.1, Entity::Object(target), &zones),
                        1 => referrals.record(by, k.0, &k.1, target, &zones),
                        _ => negatives.record(by, k.0, &k.1, &zones, false),
                    };
                    prop_assert!(kept);
                    models[store].record(by, &k, &zones);
                    None
                }
                Step::Probe(k, positive) => {
                    let by = Heard { now, ttl: None, table: &table };
                    if positive {
                        positives.probe(by, k.0, &k.1);
                        models[0].probe(by, &k);
                    } else {
                        negatives.probe(by, k.0, &k.1);
                        side_invalidated[1] += u64::from(models[2].probe(by, &k));
                    }
                    None
                }
                Step::Pull(reply) => Some(reply),
                Step::Bounce(z) => {
                    let at = table.known(z);
                    Some(vec![(z, ZoneSerial::new(at.get() + 1)), (z, at)])
                }
                Step::Reset => {
                    table.reset();
                    None
                }
                Step::Advance(ticks, sweep) => {
                    now += ticks;
                    if sweep {
                        let by = Heard { now, ttl: None, table: &table };
                        prop_assert_eq!(positives.sweep(by), models[0].sweep(now));
                        let swept = [referrals.sweep(by), negatives.sweep(by)];
                        let expected = [models[1].sweep(now), models[2].sweep(now)];
                        prop_assert_eq!(swept, expected);
                        side_invalidated[0] += expected[0] as u64;
                        side_invalidated[1] += expected[1] as u64;
                    }
                    None
                }
            };
            if let Some(reply) = reply {
                // The reference: each slice that moves its zone is dropped by
                // its own walk of every store.
                let mut heard = table.clone();
                let mut expected = [0usize; 3];
                for &(z, s) in &reply {
                    if heard.observe(z, s) != SerialObservation::Unchanged {
                        for (m, e) in models.iter_mut().zip(&mut expected) {
                            *e += m.zone_moved(z, s);
                        }
                    }
                }
                // The pull: adopt every slice, then one pass per store. Every
                // slice is a full transfer or a regression: the zone-wide rule.
                moved.clear();
                for &(z, s) in &reply {
                    if table.observe(z, s) != SerialObservation::Unchanged {
                        moved.push(MovedZone::zone_wide(z, s));
                    }
                }
                let pull = Moved::kept(&moved, &no_diff);
                let dropped = [
                    positives.zones_moved(pull).dropped,
                    referrals.zones_moved(pull).dropped,
                    negatives.zones_moved(pull).dropped,
                ];
                prop_assert_eq!(dropped, expected);
                side_invalidated[0] += expected[1] as u64;
                side_invalidated[1] += expected[2] as u64;
                for z in POOL {
                    prop_assert_eq!(table.known(z), heard.known(z));
                }
            }
            prop_assert_eq!(positives.stats(), models[0].stats);
            prop_assert_eq!(positives.len(), models[0].held.len());
            prop_assert_eq!(referrals.len(), models[1].held.len());
            prop_assert_eq!(negatives.len(), models[2].held.len());
            prop_assert_eq!(referrals.stats().invalidated, side_invalidated[0]);
            prop_assert_eq!(negatives.stats().invalidated, side_invalidated[1]);
            let lru = models[0].keys_lru_first();
            prop_assert_eq!(keys_lru_first(&positives, &lru), lru);
        }
    }
}

/// Zones of the pulled world: past 64, so that two zones share each of
/// the first eight mask bits.
const WORLD_ZONES: usize = 72;

/// `/dZ/f0`, `/dZ/f1` and the unbound `/dZ/nope` for every zone `Z`; each
/// directory and its files live in zone `Z`, and odd zones are served by
/// a second machine, so their names cost a referral. Returns the
/// directories and the names.
fn zoned(
    capacity: usize,
) -> (
    World,
    CachingResolver,
    ActivityId,
    ObjectId,
    MachineId,
    Vec<ObjectId>,
    Vec<CompoundName>,
) {
    let mut w = World::with_shards(83, WORLD_ZONES);
    let net = w.add_network("n");
    let m0 = w.add_machine("m0", net);
    let m1 = w.add_machine("m1", net);
    let (root0, root1) = (w.machine_root(m0), w.machine_root(m1));
    let (mut dirs, mut names) = (Vec::new(), Vec::new());
    for z in 0..WORLD_ZONES {
        w.state_mut().set_default_shard(z);
        let label = format!("d{z}");
        let dir = if z % 2 == 0 {
            store::ensure_dir(w.state_mut(), root0, &label)
        } else {
            let dir = store::ensure_dir(w.state_mut(), root1, &label);
            store::attach(w.state_mut(), root0, &label, dir, false);
            dir
        };
        for leaf in ["f0", "f1", "nope"] {
            if leaf != "nope" {
                store::create_file(w.state_mut(), dir, leaf, vec![]);
            }
            names.push(CompoundName::parse_path(&format!("/{label}/{leaf}")).unwrap());
        }
        dirs.push(dir);
    }
    let mut svc = NameService::install(&mut w, &[m0, m1]);
    svc.place_subtree(&w, root1, m1);
    svc.place_subtree(&w, root0, m0);
    let client = w.spawn(m0, "client", None);
    let mode = CoherenceMode::Lease { ttl: None };
    let r = CachingResolver::with_mode(ProtocolEngine::new(svc), capacity, mode);
    (w, r, client, root0, m0, dirs, names)
}

/// Entries the three stores have dropped for coherence so far.
fn dropped_so_far(r: &CachingResolver) -> u64 {
    r.lease_stats().serial_dropped + r.referral_stats().invalidated + r.negative_stats().invalidated
}

proptest! {
    /// Random resolve/publish/pull schedules over 72 zones, a store that
    /// evicts, staged regressions and replica restarts: every pull's
    /// `entries_dropped` is exactly what its one pass took out of the
    /// three stores, and after a pull every answer is current and no
    /// probe finds an entry the pull should have dropped.
    #[test]
    fn a_pull_over_many_zones_reports_what_it_dropped(
        capacity in 24usize..96,
        raw in prop::collection::vec((0u8..10, any::<u16>()), 1..40),
    ) {
        let (mut w, mut r, client, root, m, dirs, names) = zoned(capacity);
        let oracle = Resolver::new();
        let mut clean_since_sync = false;
        let mut version = 0u32;
        for (selector, pick) in raw {
            let pick = usize::from(pick);
            match selector {
                0..=3 => {
                    let from = pick % names.len();
                    let batch: Vec<CompoundName> =
                        names.iter().cycle().skip(from).take(24).cloned().collect();
                    let before = dropped_so_far(&r);
                    let out = r.resolve_batch(&mut w, client, root, &batch);
                    if clean_since_sync {
                        for (name, got) in batch.iter().zip(&out.entities) {
                            let truth = oracle.resolve_entity(w.state(), root, name);
                            prop_assert_eq!(*got, truth, "{} after a pull", name);
                        }
                        // The pull dropped eagerly all that its serials
                        // refute: no probe finds more.
                        prop_assert_eq!(dropped_so_far(&r), before, "a pull left a refuted entry");
                    }
                }
                4..=5 => {
                    let z = pick % WORLD_ZONES;
                    version += 1;
                    w.state_mut().set_default_shard(z);
                    let fresh = w.state_mut().add_data_object(format!("v{version}"), vec![]);
                    r.engine_mut()
                        .publish_binding(&mut w, dirs[z], Name::new("f0"), Some(Entity::Object(fresh)))
                        .expect("publish commits");
                    clean_since_sync = false;
                }
                6..=7 => {
                    let before = dropped_so_far(&r);
                    let report = r.sync(&mut w, client, m).expect("lossless pull completes");
                    prop_assert_eq!(report.entries_dropped, dropped_so_far(&r) - before);
                    prop_assert_eq!(
                        report.shards_full + report.shards_incremental,
                        WORLD_ZONES
                    );
                    clean_since_sync = true;
                }
                8 => {
                    // A replica that heard a future the authority lost.
                    let z = pick % WORLD_ZONES;
                    let ahead = ZoneSerial::new(r.serial_table().known(z).get() + 64);
                    r.serial_table_mut().observe(z, ahead);
                    clean_since_sync = false;
                }
                _ => {
                    r.restart_replica();
                    clean_since_sync = false;
                }
            }
        }
    }
}

// --- The delta filter is sound ------------------------------------------
//
// A pull that hears an exact diff keeps every entry the diff's changes
// cannot reach, and re-stamps it. The reference is the zone-wide rule the
// filter refines: each pull is judged twice, by the stores and by copies of
// them told only which zones moved.

/// Shards of the filtered world: the root's, one per exported directory,
/// and the one the second machine's copy of `/d2` lives in.
const FILTER_SHARDS: usize = 4;

/// Per context a publish may land in (the root, `/d1`, `/d2`, `/d1/s`,
/// `/d2/s`), the labels it may bind, unbind or rebind there: interior ones
/// (`d1`, `d2`, `s`) and leaves, one of them (`nope`) unbound to begin with.
const FILTER_LABELS: [&[&str]; 5] = [
    &["d1", "d2", "nope"],
    &["s", "f0", "f1", "nope"],
    &["s", "f0", "f1", "nope"],
    &["g0", "nope"],
    &["g0", "nope"],
];

/// `/d1` and `/d2`, each in its own zone with the files `f0`, `f1` and the
/// directory `s` holding `g0`, all served by m0; `/d2` is replicated onto
/// m1. The engine journals at most three changes a zone, so a pull past
/// them is a full transfer.
struct Filtered {
    w: World,
    engine: ProtocolEngine,
    client: ActivityId,
    m0: MachineId,
    /// The root, `/d1`, `/d2`, `/d1/s`, `/d2/s`: where publishes land.
    contexts: Vec<ObjectId>,
    /// m1's copy of `/d2`.
    copy: ObjectId,
    /// Every name the schedule caches, and every proper prefix of it.
    names: Vec<CompoundName>,
}

fn filtered_world() -> Filtered {
    let mut w = World::with_shards(85, FILTER_SHARDS);
    let net = w.add_network("n");
    let m0 = w.add_machine("m0", net);
    let m1 = w.add_machine("m1", net);
    let root = w.machine_root(m0);
    let (mut contexts, mut subs) = (vec![root], Vec::new());
    for z in 1..=2 {
        w.state_mut().set_default_shard(z);
        let dir = store::ensure_dir(w.state_mut(), root, &format!("d{z}"));
        let sub = store::ensure_dir(w.state_mut(), dir, "s");
        for leaf in ["f0", "f1"] {
            store::create_file(w.state_mut(), dir, leaf, vec![]);
        }
        store::create_file(w.state_mut(), sub, "g0", vec![]);
        contexts.push(dir);
        subs.push(sub);
    }
    contexts.extend(subs);
    let mut svc = NameService::install(&mut w, &[m0, m1]);
    svc.place_subtree(&w, root, m0);
    w.state_mut().set_default_shard(3);
    let copy = svc.replicate_zone(&mut w, contexts[2], m1);
    w.state_mut().set_default_shard(0);
    let client = w.spawn(m0, "client", None);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_journal_window(3);
    let names = ["d1", "d2"]
        .into_iter()
        .flat_map(|d| {
            ["", "/f0", "/f1", "/nope", "/s", "/s/g0", "/s/nope"].map(|rest| format!("/{d}{rest}"))
        })
        .map(|p| CompoundName::parse_path(&p).unwrap())
        .collect();
    Filtered {
        w,
        engine,
        client,
        m0,
        contexts,
        copy,
        names,
    }
}

/// The naive walk of `suffix` from `root`: its answer, and the zones of
/// every context it consulted plus the answer's — the whole footprint, so
/// that no binding the walk crosses lies outside the entry's zones.
fn walked(state: &SystemState, root: ObjectId, suffix: &[Name]) -> (Entity, Vec<usize>) {
    let (mut at, mut zones) = (Entity::Object(root), Vec::new());
    for &label in suffix {
        match at {
            Entity::Object(ctx) if state.is_context_object(ctx) => {
                zones.push(SystemState::shard_of_id(ctx));
                at = state.lookup(ctx, label);
            }
            _ => return (Entity::Undefined, zones),
        }
    }
    if let Entity::Object(o) = at {
        zones.push(SystemState::shard_of_id(o));
    }
    (at, zones)
}

/// Whether `store` holds `suffix` from `root` (a held entry always has a zone).
fn holds(store: &LeasedCache, root: ObjectId, suffix: &[Name]) -> bool {
    !store.footprint(root, suffix).is_empty()
}

proptest! {
    /// Random bind, unbind and rebind schedules over leaf and interior
    /// labels — rebinds to the value already bound and binds of unbound
    /// names among them, `/d2`'s copy on the second machine refreshed now
    /// and then — with entries recorded as the truth of their moment and
    /// pulls that are exact diffs or, past the journal, full transfers.
    /// At every pull:
    /// - what the filter drops, the zone-wide rule drops too;
    /// - what the zone-wide rule drops and the filter keeps still resolves,
    ///   naively at the pull's read, to its cached entity (a referral to a
    ///   replica of it);
    /// - every survivor is stamped with the serials heard, and
    /// - expires exactly when it was granted to.
    #[test]
    fn a_diff_keeps_only_entries_its_changes_cannot_reach(
        raw in prop::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..96),
    ) {
        let Filtered { mut w, mut engine, client, m0, contexts, copy, names } = filtered_world();
        let root = contexts[0];
        let oracle = Resolver::new();
        // Positives, referrals, negatives; and what each key was last
        // recorded as: its entity and expiry.
        let mut stores = [0; 3].map(|_| LeasedCache::with_capacity(256));
        let mut granted: [BTreeMap<Vec<Name>, (Entity, u64)>; 3] = Default::default();
        let mut table = SerialTable::new();
        // What a zone-wide move is judged by: no slice's changes.
        let no_diff = KeptDelta::default();
        let (mut now, mut version) = (0u64, 0u32);
        for (selector, a, b) in raw {
            match selector {
                // Record a name's truth of the moment, and a referral for each
                // proper prefix that reaches a context — `/d2`'s sometimes to
                // its copy, as the nearest server would hand it out.
                0..=2 => {
                    let name = &names[usize::from(a) % names.len()];
                    let ttl = (b & 1 == 1).then_some(40);
                    let by = Heard { now, ttl, table: &table };
                    let comps = name.components();
                    for len in 2..=comps.len() {
                        let (entity, zones) = walked(w.state(), root, &comps[..len]);
                        let (store, entity) = match entity {
                            Entity::Object(o) if len < comps.len() => {
                                if !w.state().is_context_object(o) {
                                    continue;
                                }
                                let via_copy = o == contexts[2] && b & 2 != 0;
                                (1, Entity::Object(if via_copy { copy } else { o }))
                            }
                            _ if len < comps.len() => continue,
                            e if e.is_defined() => (0, e),
                            e => (2, e),
                        };
                        if len == comps.len() {
                            prop_assert_eq!(entity, oracle.resolve_entity(w.state(), root, name));
                        }
                        let mut zones = zones;
                        if let Entity::Object(o) = entity {
                            zones.push(SystemState::shard_of_id(o));
                        }
                        prop_assert!(stores[store].record(by, root, &comps[..len], entity, &zones));
                        let expires_at = Lease::grant(now, ttl, ZoneSerial::ZERO).expires_at;
                        granted[store].insert(comps[..len].to_vec(), (entity, expires_at));
                    }
                }
                // Bind, unbind or rebind a label in one of the contexts: to a
                // fresh object, to a directory, to what it holds already, or
                // to nothing.
                3..=5 => {
                    let at = usize::from(a) % contexts.len();
                    let labels = FILTER_LABELS[at];
                    let (ctx, label) = (contexts[at], Name::new(labels[usize::from(a / 8) % labels.len()]));
                    let entity = match b % 4 {
                        0 => {
                            version += 1;
                            w.state_mut().set_default_shard(SystemState::shard_of_id(ctx));
                            let fresh = w.state_mut().add_data_object(format!("v{version}"), vec![]);
                            Some(Entity::Object(fresh))
                        }
                        1 => Some(Entity::Object(contexts[1 + usize::from(b / 4) % 4])),
                        2 => Some(w.state().lookup(ctx, label)).filter(|e| e.is_defined()),
                        _ => None,
                    };
                    // Refused only when it would unbind what is not bound.
                    let _ = engine.publish_binding(&mut w, ctx, label, entity);
                }
                // The pull, judged twice.
                6..=7 => {
                    let mut since = Vec::new();
                    table.since_into(FILTER_SHARDS, &mut since);
                    let (delta, _) = engine
                        .pull_zone_deltas(&mut w, client, m0, &since)
                        .expect("lossless pull completes");
                    let mut moved = Vec::new();
                    for (at, slice) in delta.slices().enumerate() {
                        moved.extend(table.adopt(at, slice).map(|(m, _)| m));
                    }
                    let wide_moves: Vec<MovedZone> = moved
                        .iter()
                        .map(|m| MovedZone::zone_wide(m.shard, m.serial))
                        .collect();
                    let before = stores.clone();
                    let mut wide = stores.clone();
                    for (i, (store, wide)) in stores.iter_mut().zip(&mut wide).enumerate() {
                        let (filter, zone_wide) =
                            (Moved::kept(&moved, delta), Moved::kept(&wide_moves, &no_diff));
                        let (filter, zone_wide) = if i == 1 {
                            (filter.of_referrals(), zone_wide.of_referrals())
                        } else {
                            (filter, zone_wide)
                        };
                        let (pass, wide_pass) = (store.zones_moved(filter), wide.zones_moved(zone_wide));
                        prop_assert_eq!(store.len() + pass.dropped, wide.len() + wide_pass.dropped);
                        // What the zone-wide rule drops, the filter drops or re-stamps.
                        prop_assert_eq!(wide_pass.restamped, 0);
                        prop_assert_eq!(pass.restamped + pass.dropped, wide_pass.dropped);
                    }
                    for (i, granted) in granted.iter().enumerate() {
                        let (mut alive, mut lapsed) = (stores[i].clone(), stores[i].clone());
                        for (suffix, &(cached, expires_at)) in granted {
                            if !holds(&before[i], root, suffix) {
                                continue;
                            }
                            let (kept, wide_kept) =
                                (holds(&stores[i], root, suffix), holds(&wide[i], root, suffix));
                            prop_assert!(kept || !wide_kept, "the filter alone dropped {suffix:?}");
                            if !kept {
                                continue;
                            }
                            if !wide_kept {
                                let (truth, _) = walked(w.state(), root, suffix);
                                let same = match (truth, cached) {
                                    (Entity::Object(t), Entity::Object(c)) => {
                                        w.replicas().are_replicas(t, c)
                                    }
                                    (t, c) => t == c,
                                };
                                prop_assert!(same, "kept {suffix:?} → {cached}, but it reads {truth}");
                            }
                            // Stamped with what was heard: served up to the last
                            // tick of its lease, and not at it.
                            let at = |tick| Heard { now: tick, ttl: None, table: &table };
                            prop_assert_eq!(
                                alive.probe(at(expires_at - 1), root, suffix),
                                Probe::Hit(cached)
                            );
                            prop_assert_eq!(lapsed.probe(at(expires_at), root, suffix), Probe::Expired);
                        }
                    }
                }
                // `/d2`'s copy catches up with its primary: a write its
                // zone's journal never hears.
                8 => engine.service().sync_zone(&mut w, contexts[2]),
                _ => now += 1 + u64::from(b % 50),
            }
        }
    }
}

// --- A hostile delta ----------------------------------------------------

/// Lease of the mutation test's entries, in ticks.
const HOSTILE_TTL: u64 = 10_000;

/// A warm replica about to pull: a cold pull behind it, three names cached
/// at the returned tick under [`HOSTILE_TTL`], then two publishes — one
/// rebinding a cached leaf, one binding a label nothing cached reads.
fn warm_pull() -> (World, CachingResolver, ActivityId, ObjectId, MachineId, u64) {
    let mode = CoherenceMode::Lease {
        ttl: Some(HOSTILE_TTL),
    };
    let (mut w, mut r, client, root, sub, m1) = setup(mode);
    r.sync(&mut w, client, m1).expect("cold pull completes");
    let granted = w.now().ticks();
    r.resolve_batch(&mut w, client, root, &hostile_names());
    republish(&mut w, &mut r, sub, "hostile");
    r.engine_mut()
        .publish_binding(&mut w, sub, Name::new("beside"), Some(Entity::Object(sub)))
        .expect("publish commits");
    (w, r, client, root, m1, granted)
}

fn hostile_names() -> Vec<CompoundName> {
    ["/remote/data", "/remote/nope", "/remote"]
        .map(|p| CompoundName::parse_path(p).unwrap())
        .to_vec()
}

/// What a resolver shows of itself: its counters and heard serials, and
/// what it answers — and from where — for every name.
fn observed(
    w: &mut World,
    r: &mut CachingResolver,
    client: ActivityId,
    root: ObjectId,
) -> (String, Vec<(Entity, bool)>) {
    let mut heard = Vec::new();
    r.serial_table()
        .since_into(w.state().shard_count(), &mut heard);
    let counters = format!(
        "{:?} {:?} {:?} {:?} {heard:?}",
        r.stats(),
        r.lease_stats(),
        r.referral_stats(),
        r.negative_stats(),
    );
    let answers = hostile_names()
        .iter()
        .map(|name| r.resolve(w, client, root, name, Mode::Iterative))
        .collect();
    (counters, answers)
}

/// The authority's answer to pull `id` from `since`, asked for by hand as
/// a replica asks: a request frame (wire tag 6) of the id and the serials.
fn answered(
    w: &mut World,
    r: &mut CachingResolver,
    client: ActivityId,
    m1: MachineId,
    id: u64,
    since: &[(usize, ZoneSerial)],
) -> Vec<u8> {
    let mut request = vec![6];
    request.extend(id.to_be_bytes());
    request.extend((since.len() as u16).to_be_bytes());
    for &(shard, serial) in since {
        request.extend((shard as u16).to_be_bytes());
        request.extend(serial.get().to_be_bytes());
    }
    let server = r.engine().service().server_on(m1);
    w.send(client, server, Payload::bytes(request));
    r.engine_mut().pump_idle(w);
    let Some(Payload::Bytes(frame)) = w.receive(client).and_then(|m| m.parts.into_iter().next())
    else {
        panic!("the authority answered");
    };
    frame.to_vec()
}

/// Whether the slices of `delta` hold an incremental one with changes.
fn diffs(delta: &KeptDelta) -> bool {
    delta.slices().any(|s| !s.full && s.changes > 0)
}

/// Structure-aware mutation of a pull's answer: the authority's honest
/// answer to a warm pull, every byte overwritten four ways and the frame
/// cut at every length, forged as the first reply the replica hears.
/// Nothing panics. A frame that does not read, or does not bear the pull's
/// id, changes nothing: the honest answer behind it is the one heard. A
/// frame that does is heard instead — and may keep, or renew, entries it
/// should not, but none past the pull's send tick plus the TTL.
#[test]
fn a_mutated_delta_changes_nothing_or_keeps_nothing_past_its_lease() {
    // The honest answer, asked for by hand with the id the pull will use.
    let (mut w, mut r, client, _root, m1, _) = warm_pull();
    let id = r.engine().next_request_id();
    let mut since = Vec::new();
    r.serial_table()
        .since_into(w.state().shard_count(), &mut since);
    let honest = answered(&mut w, &mut r, client, m1, id, &since);
    let mut reply = KeptDelta::default();
    assert_eq!(reply.read(&honest), Some(id), "the honest answer reads");
    assert!(diffs(&reply));

    let run = |frame: Option<&[u8]>| {
        let (mut w, mut r, client, root, m1, _) = warm_pull();
        assert_eq!(r.engine().next_request_id(), id);
        if let Some(frame) = frame {
            let server = r.engine().service().server_on(m1);
            w.send(server, client, Payload::bytes(frame.to_vec()));
        }
        let sent = w.now().ticks();
        let report = r.sync(&mut w, client, m1).expect("lossless pull completes");
        (w, r, client, root, sent, report)
    };
    let clean = {
        let (mut w, mut r, client, root, _, report) = run(None);
        assert!(report.entries_dropped > 0 && report.entries_restamped > 0);
        (report, observed(&mut w, &mut r, client, root))
    };
    let (mut w, mut r, client, root, _, report) = run(Some(&honest));
    assert_eq!(
        (report, observed(&mut w, &mut r, client, root)),
        clean,
        "the honest frame"
    );

    let mut frames: Vec<Vec<u8>> = (0..honest.len())
        .map(|cut| honest[..cut].to_vec())
        .collect();
    for at in 0..honest.len() {
        for byte in [honest[at] ^ 1, honest[at] ^ 0x80, 0, 0xff] {
            let mut frame = honest.clone();
            frame[at] = byte;
            frames.push(frame);
        }
    }
    let (mut refused, mut heard) = (0, 0);
    for frame in &frames {
        let (mut w, mut r, client, root, sent, report) = run(Some(frame));
        if reply.read(frame) != Some(id) {
            let got = (report, observed(&mut w, &mut r, client, root));
            assert_eq!(got, clean, "an unheard frame changed the replica");
            refused += 1;
            continue;
        }
        heard += 1;
        // Whatever the frame made the replica keep or renew lapses a TTL
        // after the pull went out.
        let now = w.now().ticks();
        assert!(now < sent + HOSTILE_TTL);
        advance(&mut w, client, sent + HOSTILE_TTL - now);
        for name in hostile_names() {
            let (_, from_cache) = r.resolve(&mut w, client, root, &name, Mode::Iterative);
            assert!(!from_cache, "{name} served past its lease");
        }
    }
    assert!(
        refused > 100 && heard > 100,
        "{refused} refused, {heard} heard"
    );
}

/// `frame` cut at every length, and each of its bytes overwritten four
/// ways.
fn mutations(frame: &[u8]) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = (0..frame.len()).map(|cut| frame[..cut].to_vec()).collect();
    for at in 0..frame.len() {
        for byte in [frame[at] ^ 1, frame[at] ^ 0x80, 0, 0xff] {
            let mut mutated = frame.to_vec();
            mutated[at] = byte;
            frames.push(mutated);
        }
    }
    frames
}

/// Whether `kept` holds what `fresh` holds: every slice's head, and each
/// incremental slice's changes.
fn kept_holds(kept: &KeptDelta, fresh: &KeptDelta) -> bool {
    kept.slices().eq(fresh.slices())
        && (0..=fresh.slices().len()).all(|at| kept.diff(at) == fresh.diff(at))
}

/// The replica reads a pull's answer into slices it keeps from one frame
/// to the next. Kept or fresh, it is one reader: every mutation of the
/// authority's honest answers — to a warm pull, whose slices carry diffs,
/// and to a cold one, whose slices are full — is accepted by both or by
/// neither, and what is kept of an accepted frame, read over the frame
/// before, is what a fresh read holds.
#[test]
fn a_mutated_delta_reads_alike_kept_or_decoded() {
    let (mut w, mut r, client, _root, m1, _) = warm_pull();
    let shards = w.state().shard_count();
    let mut warm = Vec::new();
    r.serial_table().since_into(shards, &mut warm);
    let cold: Vec<_> = (0..shards).map(|s| (s, ZoneSerial::ZERO)).collect();
    let honest = [warm, cold].map(|since| answered(&mut w, &mut r, client, m1, 1, &since));
    let [warm, cold] = [0, 1].map(|i| {
        let mut fresh = KeptDelta::default();
        assert_eq!(fresh.read(&honest[i]), Some(1));
        fresh
    });
    assert!(diffs(&warm));
    assert!(cold.slices().all(|s| s.full) && cold.slices().any(|s| s.changes > 0));

    let mut kept = KeptDelta::default();
    let (mut accepted, mut refused) = (0, 0);
    for frame in honest.iter().flat_map(|frame| mutations(frame)) {
        let read = kept.read(&frame);
        let mut fresh = KeptDelta::default();
        match fresh.read(&frame) {
            Some(id) => {
                assert_eq!(read, Some(id));
                assert!(kept_holds(&kept, &fresh), "{fresh:?} kept as {kept:?}");
                accepted += 1;
            }
            None => {
                assert_eq!(read, None);
                refused += 1;
            }
        }
    }
    assert!(
        accepted > 100 && refused > 100,
        "{accepted} accepted, {refused} refused"
    );
}

// --- Renewal ------------------------------------------------------------

/// Lease of the renewal test's entries, in ticks: three client round trips.
const RENEW_TTL: u64 = 600;

/// Per context a publish may land in (`/d1`, `/d1/s`, `/d2`), the labels
/// it may bind, unbind or rebind there, `s` among them an interior one.
const RENEW_LABELS: [&[&str]; 3] = [
    &["f0", "f1", "s", "nope"],
    &["g0", "nope"],
    &["f0", "f1", "nope"],
];

/// `/d1` (zone 1, files `f0` and `f1`) and `/d2` (zone 2, likewise) under
/// m0's root; `/d1/s` in zone 3 holds `g0` of zone 1, so a walk to it reads
/// zone 3 without a referral or an answer there. `/d2` is replicated onto
/// m1, whose root binds it too: a name from there is answered by the copy
/// (zone 4), which lags its primary until it is refreshed. The client sits
/// on a network of its own, so a pull's reply lands a round trip after it
/// went out; the engine journals at most three changes a zone.
struct Renewal {
    w: World,
    r: CachingResolver,
    client: ActivityId,
    m0: MachineId,
    /// `/d1`, `/d1/s`, `/d2`: where publishes land.
    contexts: [ObjectId; 3],
    /// Every name the schedule resolves, with its start: m0's root or m1's.
    names: Vec<(ObjectId, CompoundName)>,
}

fn renewal_world() -> Renewal {
    let mut w = World::with_shards(87, 5);
    let net = w.add_network("servers");
    let (m0, m1) = (w.add_machine("m0", net), w.add_machine("m1", net));
    let (root0, root1) = (w.machine_root(m0), w.machine_root(m1));
    let dir = |w: &mut World, parent, name, shard, files: &[&str], file_shard| {
        w.state_mut().set_default_shard(shard);
        let dir = store::ensure_dir(w.state_mut(), parent, name);
        w.state_mut().set_default_shard(file_shard);
        for &file in files {
            store::create_file(w.state_mut(), dir, file, vec![]);
        }
        dir
    };
    let d1 = dir(&mut w, root0, "d1", 1, &["f0", "f1"], 1);
    let s = dir(&mut w, d1, "s", 3, &["g0"], 1);
    let d2 = dir(&mut w, root0, "d2", 2, &["f0", "f1"], 2);
    w.state_mut().set_default_shard(0);
    store::attach(w.state_mut(), root1, "d2", d2, false);
    let mut svc = NameService::install(&mut w, &[m0, m1]);
    svc.place_subtree(&w, root0, m0);
    svc.place_subtree(&w, root1, m1);
    w.state_mut().set_default_shard(4);
    svc.replicate_zone(&mut w, d2, m1);
    let far = w.add_network("client-net");
    let host = w.add_machine("client-host", far);
    let client = w.spawn(host, "client", None);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_journal_window(3);
    let mode = CoherenceMode::Lease {
        ttl: Some(RENEW_TTL),
    };
    let r = CachingResolver::with_mode(engine, DEFAULT_CACHE_CAPACITY, mode);
    let from = |root, paths: &[&str]| {
        let paths = paths.iter().map(|p| CompoundName::parse_path(p).unwrap());
        paths.map(move |name| (root, name)).collect::<Vec<_>>()
    };
    let mut names = from(
        root0,
        &[
            "/d1/f0",
            "/d1/f1",
            "/d1/nope",
            "/d1/s/g0",
            "/d1/s/nope",
            "/d2/f0",
        ],
    );
    names.extend(from(root1, &["/d2/f0", "/d2/f1", "/d2/nope"]));
    Renewal {
        w,
        r,
        client,
        m0,
        contexts: [d1, s, d2],
        names,
    }
}

proptest! {
    /// Random schedules of resolves, publishes, pulls — diffs, heartbeats,
    /// full transfers past the journal, and pulls the network loses —,
    /// refreshes of the lagging copy (direct or pushed over the wire) and
    /// clock advances, some landing just past a TTL after the last pull
    /// went out. Whatever a cache serves is σ's answer at a moment the
    /// replica heard less than one TTL ago: the start of the resolution
    /// that fetched it, or the sending of a pull — the entry was renewed
    /// by what the pull proved.
    #[test]
    fn a_renewed_lease_serves_only_what_a_pull_proved_within_its_ttl(
        raw in prop::collection::vec((0u8..16, any::<u8>(), any::<u16>()), 1..160),
    ) {
        let Renewal { mut w, mut r, client, m0, contexts, names } = renewal_world();
        let oracle = Resolver::new();
        let truths = |w: &World| -> Vec<Entity> {
            names.iter().map(|(start, name)| oracle.resolve_entity(w.state(), *start, name)).collect()
        };
        // When the replica heard what: per name, the resolutions that
        // fetched it; for every name, the truths at each pull's sending.
        let mut fetched: Vec<Vec<(u64, Entity)>> = vec![Vec::new(); names.len()];
        let mut pulled: Vec<(u64, Vec<Entity>)> = Vec::new();
        let mut version = 0u32;
        for (selector, a, b) in raw {
            let resolve = match selector {
                0..=4 => Some(usize::from(a)),
                5..=6 => {
                    let at = usize::from(a) % contexts.len();
                    let labels = RENEW_LABELS[at];
                    let label = Name::new(labels[usize::from(a / 4) % labels.len()]);
                    let ctx = contexts[at];
                    let entity = match b % 3 {
                        0 => {
                            version += 1;
                            w.state_mut().set_default_shard(SystemState::shard_of_id(ctx));
                            let fresh = w.state_mut().add_data_object(format!("v{version}"), vec![]);
                            Some(Entity::Object(fresh))
                        }
                        1 => Some(w.state().lookup(ctx, label)).filter(|e| e.is_defined()),
                        _ => None,
                    };
                    // Refused only when it would unbind what is not bound.
                    let _ = r.engine_mut().publish_binding(&mut w, ctx, label, entity);
                    None
                }
                7..=9 => {
                    let sent = w.now().ticks();
                    r.sync(&mut w, client, m0).expect("a lossless pull completes");
                    pulled.push((sent, truths(&w)));
                    None
                }
                10 => {
                    w.set_message_drop_rate(1.0);
                    assert!(r.sync(&mut w, client, m0).is_none(), "a lost pull proves nothing");
                    w.set_message_drop_rate(0.0);
                    None
                }
                11 => {
                    r.engine().service().sync_zone(&mut w, contexts[2]);
                    None
                }
                12 => {
                    r.engine_mut().publish_zone(&mut w, contexts[2]);
                    None
                }
                13..=14 => {
                    advance(&mut w, client, 1 + u64::from(b % 400));
                    None
                }
                _ => {
                    // Just past a TTL after the last pull went out: a lease
                    // renewed from its reply's arrival would still serve.
                    let edge = pulled.last().map_or(0, |&(sent, _)| sent + RENEW_TTL + u64::from(b % 200));
                    let now = w.now().ticks();
                    if edge > now {
                        advance(&mut w, client, edge - now);
                    }
                    Some(usize::from(a))
                }
            };
            let Some(i) = resolve.map(|a| a % names.len()) else {
                continue;
            };
            let (start, name) = &names[i];
            let now = w.now().ticks();
            let got = r.resolve_outcome(&mut w, client, *start, name, Mode::Iterative);
            prop_assert!(!got.unreachable);
            if !got.from_cache {
                fetched[i].push((now, got.entity));
                continue;
            }
            let recent = |&(at, e): &(u64, Entity)| e == got.entity && now - at < RENEW_TTL;
            let proved = pulled.iter().any(|(sent, truths)| recent(&(*sent, truths[i])));
            prop_assert!(
                fetched[i].iter().any(recent) || proved,
                "served {} for {} at t{} — fetched {:?}, pulled {:?}",
                got.entity, name, now, fetched[i],
                pulled.iter().map(|(sent, truths)| (*sent, truths[i])).collect::<Vec<_>>()
            );
        }
    }
}

/// A zone update pushed before a refresh can land after it, putting the
/// copy back a version while its primary moves on. The copy must not then
/// claim the refresh's serial: an answer from it would be renewable, and
/// every heartbeat would keep it alive past its TTL. Here `/d2/f0` is
/// pushed, rebound, refreshed onto the copy, and the old push lands during
/// the next pull; what the copy answers must die by its TTL however many
/// pulls go by.
#[test]
fn an_update_that_lands_after_a_refresh_proves_nothing() {
    let Renewal {
        mut w,
        mut r,
        client,
        m0,
        contexts,
        names,
    } = renewal_world();
    let d2 = contexts[2];
    let (root1, f0) = names
        .iter()
        .find(|(start, name)| *start != names[0].0 && name.to_string() == "/d2/f0")
        .cloned()
        .expect("/d2/f0 from m1's root");
    assert_eq!(r.engine_mut().publish_zone(&mut w, d2), 1);
    w.state_mut()
        .set_default_shard(SystemState::shard_of_id(d2));
    let fresh = w.state_mut().add_data_object("v1", vec![]);
    r.engine_mut()
        .publish_binding(&mut w, d2, Name::new("f0"), Some(Entity::Object(fresh)))
        .expect("publish commits");
    r.engine().service().sync_zone(&mut w, d2);
    r.sync(&mut w, client, m0)
        .expect("a lossless pull completes");
    let fetched_at = w.now().ticks();
    let got = r.resolve_outcome(&mut w, client, root1, &f0, Mode::Iterative);
    assert!(!got.from_cache && !got.unreachable);
    assert_ne!(
        got.entity,
        Entity::Object(fresh),
        "the old push landed on the copy after its refresh"
    );
    while w.now().ticks() < fetched_at + RENEW_TTL {
        advance(&mut w, client, RENEW_TTL / 4);
        r.sync(&mut w, client, m0)
            .expect("a lossless pull completes");
    }
    let again = r.resolve_outcome(&mut w, client, root1, &f0, Mode::Iterative);
    assert!(
        !again.from_cache,
        "a copy's answer was renewed past its TTL: {}",
        again.entity
    );
}
