//! The lease plane's steady state allocates nothing.
//!
//! A lease probe is one hash and one slot read in the store the
//! oracle policy's memo uses; a referral jump is a few such probes plus a
//! borrowed slice of zones; an entry that lapses and comes back refills
//! the slot — key, zones and stamps — it left behind. This binary counts
//! heap allocations with its own global allocator (per thread, so the
//! harness's other threads cannot leak into a measurement) and holds each
//! of those paths to exactly zero — and a warm anti-entropy pull too, its
//! exchange and its drop pass alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::{
    CoherenceMode, Heard, LeasedCache, Moved, MovedZone, Probe, SerialTable, Validity,
};
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::referral::ReferralCache;
use naming_resolver::service::NameService;
use naming_resolver::wire::KeptDelta;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which neither allocates
// (const-initialised, no destructor) nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn oid(raw: u32) -> ObjectId {
    ObjectId::from_index(raw)
}

fn heard(now: u64, ttl: Option<u64>, table: &SerialTable) -> Heard<'_> {
    Heard { now, ttl, table }
}

/// 64 keys of one to three components under two start contexts.
fn keys() -> Vec<(ObjectId, Vec<Name>)> {
    (0..64u32)
        .map(|i| {
            let suffix = (0..=i % 3)
                .map(|k| Name::new(&format!("c{}", i + k)))
                .collect();
            (oid(i % 2), suffix)
        })
        .collect()
}

#[test]
fn lease_hit_probes_allocate_nothing() {
    let mut table = SerialTable::new();
    table.observe(0, ZoneSerial::new(3));
    table.observe(2, ZoneSerial::new(1));
    let mut cache = LeasedCache::with_capacity(128);
    let keys = keys();
    for (i, (start, suffix)) in keys.iter().enumerate() {
        let e = Entity::Object(oid(i as u32));
        let lease = heard(0, Some(1_000_000), &table);
        cache.record(lease, *start, suffix, e, &[0, 2, 0], false);
    }
    let mut hits = 0u32;
    let allocated = allocations_in(|| {
        for i in 0..10_000usize {
            let (start, suffix) = &keys[(i * 7) % keys.len()];
            let probed = cache.probe(heard(i as u64, None, &table), *start, suffix);
            hits += u32::from(matches!(probed, Probe::Hit(_)));
            // The misses beside them are as cheap.
            let absent = cache.probe(heard(i as u64, None, &table), oid(9), suffix);
            assert_eq!(absent, Probe::Miss);
            assert_eq!(cache.footprint(*start, suffix), [0, 2]);
        }
    });
    assert_eq!(hits, 10_000);
    assert_eq!(allocated, 0, "a lease probe allocated");
}

#[test]
fn a_probe_that_renews_allocates_nothing() {
    // Every entry was read at the serials heard, under a 10-tick lease; a
    // pull proves both zones every 10 ticks, so each probe 5 ticks later
    // finds the lease lapsed and renews it in place.
    let mut table = SerialTable::new();
    table.observe(0, ZoneSerial::new(3));
    table.observe(2, ZoneSerial::new(1));
    let reads = [(0, ZoneSerial::new(3)), (2, ZoneSerial::new(1))];
    let mut cache = LeasedCache::with_capacity(128);
    let keys = keys();
    for (i, (start, suffix)) in keys.iter().enumerate() {
        let (by, e) = (heard(0, Some(10), &table), Entity::Object(oid(i as u32)));
        cache.record_read(by, *start, suffix, e, &[0, 2], &reads, false);
    }
    let allocated = allocations_in(|| {
        for round in 1..=100u64 {
            table.vouch(0, 10 * round);
            table.vouch(2, 10 * round);
            for (start, suffix) in &keys {
                let by = heard(10 * round + 5, Some(10), &table);
                assert!(matches!(cache.probe(by, *start, suffix), Probe::Hit(_)));
            }
        }
    });
    assert_eq!(cache.stats().renewed, 100 * keys.len() as u64);
    assert_eq!(allocated, 0, "a renewing probe allocated");
}

#[test]
fn leased_referral_jumps_allocate_nothing() {
    // m1 hosts the root tree, m2 hosts /usr/remote.
    let mut w = World::new(91);
    let net = w.add_network("n");
    let m1 = w.add_machine("m1", net);
    let m2 = w.add_machine("m2", net);
    let root = w.machine_root(m1);
    let usr = store::ensure_dir(w.state_mut(), root, "usr");
    let root2 = w.machine_root(m2);
    let rem = store::ensure_dir(w.state_mut(), root2, "export");
    store::attach(w.state_mut(), usr, "remote", rem, false);
    let mut svc = NameService::install(&mut w, &[m1, m2]);
    svc.place_subtree(&w, root2, m2);
    svc.place_subtree(&w, root, m1);

    let table = SerialTable::new();
    let mut cache: ReferralCache<LeasedCache> = ReferralCache::with_capacity(16);
    let full = CompoundName::parse_path("/usr/remote/data/deeper").unwrap();
    let prefix = CompoundName::parse_path("/usr/remote").unwrap();
    let shard = SystemState::shard_of_id(root);
    cache.record(
        heard(0, None, &table),
        root,
        prefix.components(),
        rem,
        &[shard],
    );
    // The first jump registers the telemetry counters it bumps; the steady
    // state starts after it.
    let jump = cache.lookup_deepest(heard(1, None, &table), &svc, root, full.components());
    assert_eq!(jump, Some((3, rem, m2, &[shard][..])));
    let allocated = allocations_in(|| {
        for now in 0..10_000u64 {
            // Probes the two deeper prefixes (misses), then jumps.
            let jump =
                cache.lookup_deepest(heard(now, None, &table), &svc, root, full.components());
            assert!(matches!(jump, Some((3, _, _, [_]))));
        }
    });
    assert_eq!(cache.stats().hits, 10_001);
    assert_eq!(allocated, 0, "a leased referral jump allocated");
}

#[test]
fn entries_that_lapse_and_return_reuse_their_slots() {
    let mut table = SerialTable::new();
    table.observe(1, ZoneSerial::new(1));
    let mut cache = LeasedCache::with_capacity(16);
    let keys = keys();
    let mut now = 0u64;
    // One turn of the cycle: eight entries recorded, then dropped — by a
    // probe at the expiry tick, by a sweep, or by their zone's serial
    // moving (what an anti-entropy pull does) — and recorded again.
    let no_diff = KeptDelta::default();
    let mut turn = |cache: &mut LeasedCache, table: &mut SerialTable, round: u64| {
        let window = &keys[(round as usize * 8) % 56..][..8];
        for (start, suffix) in window {
            let lease = heard(now, Some(10), table);
            cache.record(lease, *start, suffix, Entity::Undefined, &[1, 0], false);
        }
        match round % 3 {
            0 => {
                for (start, suffix) in window {
                    let probed = cache.probe(heard(now + 10, None, table), *start, suffix);
                    assert_eq!(probed, Probe::Expired);
                }
            }
            1 => assert_eq!(cache.sweep(heard(now + 10, None, table)), 8),
            _ => {
                let moved = [MovedZone::zone_wide(1, ZoneSerial::new(round))];
                table.observe(1, moved[0].serial);
                let pull = Moved::kept(&moved, &no_diff);
                assert_eq!(cache.zones_moved(pull).dropped, 8);
            }
        }
        assert!(cache.is_empty());
        now += 10;
    };
    // Warm-up: the slab grows to eight slots and every slot's buffers to
    // the longest key and footprint they will hold.
    for round in 0..16 {
        turn(&mut cache, &mut table, round);
    }
    let allocated = allocations_in(|| {
        for round in 16..1_266 {
            turn(&mut cache, &mut table, round);
        }
    });
    assert_eq!(cache.slots(), 8);
    assert_eq!(cache.stats().recorded, 1_266 * 8);
    assert_eq!(allocated, 0, "a steady-state record or drop allocated");
}

/// Allocations of one warm pull in which one zone moved by one change:
/// none. The request is written from the serial list the cache keeps into
/// a spare frame, the authority reads it into a list the engine keeps and
/// writes its answer from the journal straight into a spare, and the reply
/// is read into slices the engine keeps. The one pass over the caches,
/// which drops what the change reaches and re-stamps the rest, adds none.
const PULL_ALLOCATIONS: u64 = 0;

/// Eight zones, one directory in each holding 32 files, all bound under
/// the root of zone 0 on one machine; returns the directories and every
/// `/dK/fJ` name.
fn zoned() -> (
    World,
    CachingResolver,
    ActivityId,
    ObjectId,
    MachineId,
    Vec<ObjectId>,
    Vec<CompoundName>,
) {
    let mut w = World::with_shards(93, 8);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    let mut dirs = Vec::new();
    let mut names = Vec::new();
    for z in 0..8 {
        w.state_mut().set_default_shard(z);
        let dir = store::ensure_dir(w.state_mut(), root, &format!("d{z}"));
        for f in 0..32 {
            store::create_file(w.state_mut(), dir, &format!("f{f}"), vec![]);
            names.push(CompoundName::parse_path(&format!("/d{z}/f{f}")).unwrap());
        }
        dirs.push(dir);
    }
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let client = w.spawn(m, "client", None);
    let mode = CoherenceMode::Lease { ttl: None };
    let r = CachingResolver::with_mode(ProtocolEngine::new(svc), 1024, mode);
    (w, r, client, root, m, dirs, names)
}

#[test]
fn a_warm_pull_allocates_its_exchange_and_no_more() {
    let (mut w, mut r, client, root, m, dirs, names) = zoned();
    // Counters register and the pull's scratch grows on the first pulls:
    // a cold one drops what it finds, a warm one after a publish re-stamps
    // the names the publish cannot reach.
    r.resolve_batch(&mut w, client, root, &names);
    r.sync(&mut w, client, m).expect("cold pull completes");
    r.resolve_batch(&mut w, client, root, &names);
    r.engine_mut()
        .publish_binding(
            &mut w,
            dirs[0],
            Name::new("warm"),
            Some(Entity::Object(dirs[1])),
        )
        .expect("publish commits");
    let warm = r.sync(&mut w, client, m).expect("warm pull completes");
    assert!(warm.entries_restamped > 0);
    for (round, held) in [8usize, 64, 256, 256, 8, 64].into_iter().enumerate() {
        // Refill the cache with `held` names, then move one zone by one
        // change; neither is counted.
        for chunk in names[..held].chunks(64) {
            r.resolve_batch(&mut w, client, root, chunk);
        }
        let zone = round % 8;
        let fresh = w.state_mut().add_data_object(format!("v{round}"), vec![]);
        r.engine_mut()
            .publish_binding(
                &mut w,
                dirs[zone],
                Name::new("new"),
                Some(Entity::Object(fresh)),
            )
            .expect("publish commits");
        let mut report = None;
        let allocated = allocations_in(|| report = r.sync(&mut w, client, m));
        let report = report.expect("lossless pull completes");
        assert_eq!((report.shards_full, report.changes), (0, 1));
        assert_eq!(
            allocated, PULL_ALLOCATIONS,
            "a pull over {held} cached names allocated {allocated}"
        );
    }
}

/// Publishes a fresh binding `new{round}` into the directory of each zone
/// in `zones`.
fn publish_in(
    w: &mut World,
    r: &mut CachingResolver,
    dirs: &[ObjectId],
    zones: &[usize],
    round: usize,
) {
    for &zone in zones {
        let fresh = w
            .state_mut()
            .add_data_object(format!("v{round}.{zone}"), vec![]);
        let name = Name::new(&format!("new{round}"));
        r.engine_mut()
            .publish_binding(w, dirs[zone], name, Some(Entity::Object(fresh)))
            .expect("publish commits");
    }
}

/// A cold pull, then a warm one after publishes in four zones: every
/// buffer a pull keeps has met its size, and every counter a pull moves
/// is registered.
fn warmed() -> (
    World,
    CachingResolver,
    ActivityId,
    ObjectId,
    MachineId,
    Vec<ObjectId>,
    Vec<CompoundName>,
) {
    let (mut w, mut r, client, root, m, dirs, names) = zoned();
    r.resolve_batch(&mut w, client, root, &names);
    r.sync(&mut w, client, m).expect("cold pull completes");
    r.resolve_batch(&mut w, client, root, &names);
    publish_in(&mut w, &mut r, &dirs, &[0, 1, 2, 3], 0);
    let warm = r.sync(&mut w, client, m).expect("warm pull completes");
    assert_eq!((warm.shards_full, warm.changes), (0, 4));
    assert!(warm.entries_restamped > 0);
    (w, r, client, root, m, dirs, names)
}

#[test]
fn a_warm_heartbeat_pull_allocates_nothing() {
    let (mut w, mut r, client, root, m, _, names) = warmed();
    for held in [8usize, 64, 256] {
        for chunk in names[..held].chunks(64) {
            r.resolve_batch(&mut w, client, root, chunk);
        }
        let mut report = None;
        let allocated = allocations_in(|| report = r.sync(&mut w, client, m));
        let report = report.expect("lossless pull completes");
        assert_eq!((report.shards_full, report.changes), (0, 0));
        assert_eq!((report.shards_incremental, report.entries_dropped), (8, 0));
        assert_eq!(
            allocated, 0,
            "a heartbeat over {held} cached names allocated"
        );
    }
}

#[test]
fn a_warm_pull_after_publishes_in_four_zones_allocates_nothing() {
    let (mut w, mut r, client, root, m, dirs, names) = warmed();
    let moves: [[usize; 4]; 4] = [[4, 5, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7], [7, 0, 3, 4]];
    for (round, zones) in moves.iter().enumerate() {
        for chunk in names.chunks(64) {
            r.resolve_batch(&mut w, client, root, chunk);
        }
        publish_in(&mut w, &mut r, &dirs, zones, round + 1);
        let mut report = None;
        let allocated = allocations_in(|| report = r.sync(&mut w, client, m));
        let report = report.expect("lossless pull completes");
        assert_eq!((report.shards_full, report.changes), (0, 4));
        assert!(report.entries_restamped > 0);
        assert_eq!(
            allocated, 0,
            "a pull after publishes in {zones:?} allocated"
        );
    }
}
