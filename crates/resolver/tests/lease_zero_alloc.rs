//! The lease plane's steady state allocates nothing.
//!
//! A lease probe is one hash and one slot read in the store the
//! oracle policy's memo uses; a referral jump is a few such probes plus a
//! borrowed slice of zones; an entry that lapses and comes back refills
//! the slot — key, zones and stamps — it left behind. This binary counts
//! heap allocations with its own global allocator (per thread, so the
//! harness's other threads cannot leak into a measurement) and holds each
//! of those paths to exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use naming_core::entity::{Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_resolver::coherence::{Heard, LeasedCache, Probe, SerialTable, Validity};
use naming_resolver::referral::ReferralCache;
use naming_resolver::service::NameService;
use naming_sim::store;
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
    // The first jump registers the telemetry counters it bumps (when that
    // feature is compiled in); the steady state starts after it.
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
                let moved = ZoneSerial::new(round);
                table.observe(1, moved);
                assert_eq!(cache.zone_moved(1, moved), 8);
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
