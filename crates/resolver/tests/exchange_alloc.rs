//! A message in flight allocates nothing.
//!
//! A message in flight belongs to the simulator, but its one part is held
//! inline and its frame is a buffer that goes back to the sender's engine
//! when it has been read. Nothing else on the resolution path may grow with
//! the names in a batch — a continuation's vectors are reused, requests are
//! built in the engine's scratch, the server decodes, walks and answers in
//! it, the client folds a reply from it — and every driver lends its answer
//! until its next call, which starts in the same vectors, so once the
//! buffers circulate a batch costs nothing, whatever its size and however
//! many messages it took. A frame the network loses
//! comes back to its sender too; only one that reaches a dead server takes
//! its buffer with it, and one too large for the buffers that circulate
//! has, as every frame used to, a buffer of its own, made to measure: two
//! allocations, and the buffers that circulate are none the fewer. A client
//! cache's misses are one such batch, each name from its own jump, read
//! where the engine keeps it, its stores refill the slots they recycle and
//! its outcome is refilled in place, so a batch of misses costs nothing. This
//! binary counts with its own global allocator
//! (per thread, so the harness's other threads cannot leak into a
//! measurement), on a three-level star: the hub refers to a region, the
//! region to a zone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use naming_core::entity::{ActivityId, ObjectId};
use naming_core::name::CompoundName;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchReply, BatchRequest, KeptDelta, Mode, NameTrie, ZoneUpdate};
use naming_sim::message::Payload;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes handed out so far, and bytes handed out and not yet returned.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(allocations: u64, bytes: u64, live: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
    let _ = LIVE.try_with(|n| n.set(n.get() + live));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is thread-local counter bumps, which neither allocate
// (const-initialised, no destructor) nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        note(1, grown, new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread allocated while `f` ran: calls, bytes, and the bytes
/// still held when it returned (negative when it freed more).
fn allocations_in(f: impl FnOnce()) -> (u64, u64, i64) {
    let before = (
        ALLOCATIONS.with(Cell::get),
        BYTES.with(Cell::get),
        LIVE.with(Cell::get),
    );
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
        LIVE.with(Cell::get) - before.2,
    )
}

const REGIONS: usize = 4;
const ZONES: usize = 4;
const FILES: usize = 8;

struct Star {
    w: World,
    client: ActivityId,
    hub: ObjectId,
    /// Machine and export of zone `z` of region `r`, at `r * ZONES + z`.
    zones: Vec<(MachineId, ObjectId)>,
}

/// `/r{r}/z{z}/f{f}`: the hub's root grafts one export per region machine,
/// each of which grafts one export per zone machine, which holds the files.
fn star(seed: u64) -> (Star, NameService) {
    star_of(seed, REGIONS)
}

fn star_of(seed: u64, regions: usize) -> (Star, NameService) {
    let mut w = World::new(seed);
    let net = w.add_network("n");
    let hub_machine = w.add_machine("hub", net);
    let hub = w.machine_root(hub_machine);
    let mut machines = vec![hub_machine];
    let mut zones = Vec::new();
    for r in 0..regions {
        let rm = w.add_machine(format!("r{r}"), net);
        let rroot = w.machine_root(rm);
        let region = store::ensure_dir(w.state_mut(), rroot, "export");
        store::attach(w.state_mut(), hub, &format!("r{r}"), region, false);
        machines.push(rm);
        for z in 0..ZONES {
            let zm = w.add_machine(format!("r{r}z{z}"), net);
            let zroot = w.machine_root(zm);
            let zone = store::ensure_dir(w.state_mut(), zroot, "export");
            for f in 0..FILES {
                store::create_file(w.state_mut(), zone, &format!("f{f}"), vec![]);
            }
            store::attach(w.state_mut(), region, &format!("z{z}"), zone, false);
            machines.push(zm);
            zones.push((zm, zone));
        }
    }
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let root = w.machine_root(m);
        svc.place_subtree(&w, root, m);
    }
    let client = w.spawn(hub_machine, "client", None);
    let star = Star {
        w,
        client,
        hub,
        zones,
    };
    (star, svc)
}

/// Batch `b` of `n` names: spread over every zone, a missing file among
/// them, a duplicate when the batch is large enough to wrap around.
fn batch(b: usize, n: usize) -> Vec<CompoundName> {
    (0..n)
        .map(|k| {
            let i = b * 31 + k * 7;
            let (r, z, f) = (i % REGIONS, (i / REGIONS) % ZONES, (i / 16) % (FILES + 1));
            CompoundName::parse_path(&format!("/r{r}/z{z}/f{f}")).unwrap()
        })
        .collect()
}

fn sent(w: &World) -> u64 {
    w.trace().counter("sent")
}

/// The answer's three vectors — entities, verdicts, referral hops — are
/// lent to the caller and refilled by the next batch: a warm batch
/// allocates none of them.
const PER_BATCH: u64 = 0;

/// Allocations and messages of one blocking `resolve_batch`, and the bytes
/// it left allocated.
fn blocking(engine: &mut ProtocolEngine, s: &mut Star, names: &[CompoundName]) -> (u64, u64, i64) {
    let sent0 = sent(&s.w);
    let mut defined = 0;
    let (allocations, _, held) = allocations_in(|| {
        let stats = engine.resolve_batch(&mut s.w, s.client, s.hub, names);
        defined = stats.entities.iter().filter(|e| e.is_defined()).count();
        assert!(stats.unreachable.iter().all(|&u| !u));
    });
    assert!(defined > 0 || names.len() < 8, "nothing resolved");
    (allocations, sent(&s.w) - sent0, held)
}

/// A batch whose every frame fits the buffers that circulate (the hub's
/// reply is the largest: some twenty-five bytes a name).
const FITS: usize = 16;

/// What a frame too large for them costs: its own buffer, made to measure,
/// and the shared box it travels in.
const PER_LARGE_FRAME: u64 = 2;

/// The frames of an `n`-name batch that are too large: at 64 names the
/// hub's request (some 700 bytes) and its reply (some 1 200).
fn large_frames(n: usize) -> u64 {
    match n {
        0..=FITS => 0,
        64 => 2,
        _ => unreachable!("unmeasured"),
    }
}

#[test]
fn a_blocking_batch_allocates_only_its_large_frames_whatever_its_messages() {
    let (mut s, svc) = star(7);
    let mut engine = ProtocolEngine::new(svc);
    // The warm-up sizes the scratch and the recycled continuation for the
    // largest batch and leaves as many frame buffers as were in flight at
    // once; telemetry counters register on first use.
    blocking(&mut engine, &mut s, &batch(0, 64));
    for n in [8, FITS, 64] {
        for b in 1..20 {
            let (allocations, messages, held) = blocking(&mut engine, &mut s, &batch(b, n));
            // Three rounds: the hub, up to four regions, up to sixteen zones.
            assert!(messages >= 6 && messages % 2 == 0);
            assert_eq!(held, 0, "a batch left memory behind");
            assert_eq!(
                allocations,
                PER_BATCH + PER_LARGE_FRAME * large_frames(n),
                "{n} names, {messages} messages"
            );
        }
    }
}

#[test]
fn a_pipelined_wave_allocates_only_its_large_frames_whatever_its_messages() {
    const WAVE: usize = 32;
    let (mut s, svc) = star(11);
    let mut svc = PipelinedService::with_limit(ProtocolEngine::new(svc), 2, WAVE / 4);
    let mut wave = |s: &mut Star, first: usize, n: usize| {
        let batches: Vec<Vec<CompoundName>> = (first..first + WAVE).map(|b| batch(b, n)).collect();
        let sent0 = sent(&s.w);
        let (allocations, _, _) = allocations_in(|| {
            for names in &batches {
                svc.submit(&mut s.w, s.client, s.hub, names);
            }
            let answers = svc.drain(&mut s.w);
            assert_eq!(answers.len(), WAVE);
            assert!(answers.iter().all(|a| a.unreachable.iter().all(|&u| !u)));
        });
        (allocations, sent(&s.w) - sent0)
    };
    // Answers and continuations trade vectors: a few waves until every
    // one of them has met the largest batch.
    for _ in 0..4 {
        wave(&mut s, 0, 64);
    }
    for n in [8, FITS, 64] {
        let (allocations, messages) = wave(&mut s, 100, n);
        assert!(messages >= 6 * WAVE as u64);
        let large = PER_LARGE_FRAME * large_frames(n) * WAVE as u64;
        // The answers are lent in a buffer kept from wave to wave, and a
        // finished continuation takes the vectors of an answer lent before.
        assert_eq!(
            allocations,
            PER_BATCH * WAVE as u64 + large,
            "{n} names, {messages} messages"
        );
    }
}

/// A warm wave allocates nothing at all: the caller reads every answer
/// where the reactor lends it, and the next wave's continuations start in
/// the vectors of the answers it handed back.
#[test]
fn a_warm_pipelined_wave_allocates_nothing() {
    const WAVE: usize = 32;
    let (mut s, svc) = star(11);
    let mut svc = PipelinedService::with_limit(ProtocolEngine::new(svc), 2, WAVE / 4);
    let batches: Vec<Vec<CompoundName>> = (0..WAVE).map(|b| batch(b, 8)).collect();
    let mut wave = |s: &mut Star| {
        allocations_in(|| {
            for names in &batches {
                svc.submit(&mut s.w, s.client, s.hub, names);
            }
            let answers = svc.drain(&mut s.w);
            assert_eq!(answers.len(), WAVE);
            for (a, names) in answers.iter().zip(&batches) {
                assert_eq!(a.entities.len(), names.len());
                assert!(a.unreachable.iter().all(|&u| !u));
            }
        })
    };
    // Answers and continuations trade vectors: a few waves until every
    // one of them has met a batch.
    for _ in 0..4 {
        wave(&mut s);
    }
    for w in 0..20 {
        assert_eq!(wave(&mut s), (0, 0, 0), "wave {w}");
    }
}

#[test]
fn ten_thousand_batches_leave_every_pool_and_scratch_where_it_was() {
    let (mut s, svc) = star(13);
    let mut engine = ProtocolEngine::new(svc);
    for b in 0..64 {
        blocking(&mut engine, &mut s, &batch(b, 64));
    }
    let names: Vec<Vec<CompoundName>> = (0..64).map(|b| batch(b, 1 + b % 64)).collect();
    // The large frames of each batch, counted once: none while every frame
    // fits, the hub's two at 64 names, never more.
    let mut large = Vec::new();
    for names in &names {
        let (a, _, held) = blocking(&mut engine, &mut s, names);
        let own = a - PER_BATCH;
        assert_eq!((held, own % PER_LARGE_FRAME), (0, 0), "{}", names.len());
        let most = if names.len() <= FITS {
            0
        } else {
            large_frames(64)
        };
        assert!(own <= PER_LARGE_FRAME * most, "{} names", names.len());
        large.push(own / PER_LARGE_FRAME);
    }
    assert_eq!(large[63], large_frames(64));
    let (mut allocations, mut messages, mut expected) = (0, 0, 0);
    let (_, _, held) = allocations_in(|| {
        for i in 0..5_000 {
            let (a, m, _) = blocking(&mut engine, &mut s, &names[i % names.len()]);
            (allocations, messages) = (allocations + a, messages + m);
            expected += PER_BATCH + PER_LARGE_FRAME * large[i % names.len()];
        }
    });
    assert_eq!(held, 0, "the blocking driver's scratch grew");
    assert!(messages > 6 * 5_000);
    assert_eq!(allocations, expected);

    // The reactor over the same engine: waves of 16 batches, 8 in flight.
    let mut svc = PipelinedService::with_limit(engine, 2, 4);
    let mut wave = |s: &mut Star, w: usize| {
        for b in 0..16 {
            let names = &names[(w * 16 + b) % names.len()];
            svc.submit(&mut s.w, s.client, s.hub, names);
        }
        assert_eq!(svc.drain(&mut s.w).len(), 16);
    };
    // Each pooled continuation keeps the vectors of the largest batch it
    // has met: give every one of them time to meet it.
    for w in 0..200 {
        wave(&mut s, w);
    }
    let (_, _, held) = allocations_in(|| {
        for w in 200..200 + 5_000 / 16 {
            wave(&mut s, w);
        }
    });
    assert_eq!(held, 0, "the reactor's pools grew");
}

/// A cached batch of misses: nothing. The outcome's two vectors are lent
/// and refilled by the next batch, and the answer underneath is read where
/// the engine keeps it.
const PER_CACHED_BATCH: u64 = 0;

/// Cached batch `b` over `zones` zones, 64 names: two files of every zone,
/// except that every fourth batch asks for the second half's zones
/// themselves, one component shorter. Consecutive batches share no name,
/// so each misses a store that holds the batch before it.
fn cached_batch(b: usize, zones: usize) -> Vec<CompoundName> {
    (0..64)
        .map(|k| {
            let zone = k % zones;
            let dir = format!("/r{}/z{}", zone / ZONES, zone % ZONES);
            let second = k >= zones;
            if second && b % 4 == 3 {
                CompoundName::parse_path(&dir).unwrap()
            } else {
                let f = (2 * b + usize::from(second)) % FILES;
                CompoundName::parse_path(&format!("{dir}/f{f}")).unwrap()
            }
        })
        .collect()
}

#[test]
fn a_cached_batch_of_misses_allocates_nothing() {
    for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
        let (mut s, svc) = star_of(19, 2 * REGIONS);
        let zones = s.zones.len();
        let batches: Vec<Vec<CompoundName>> = (0..4).map(|b| cached_batch(b, zones)).collect();
        // A positive store as large as a batch: full from the first one on.
        let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 64, mode);
        let mut run = |s: &mut Star, b: usize| {
            let sent0 = sent(&s.w);
            let (allocations, _, held) = allocations_in(|| {
                let out = cache.resolve_batch(&mut s.w, s.client, s.hub, &batches[b % 4]);
                assert!(out.entities.iter().all(|e| e.is_defined()));
                assert!(out.from_cache.iter().all(|&c| !c), "every name misses");
            });
            (allocations, sent(&s.w) - sent0, held)
        };
        // The first batch walks from the root and leaves a referral to
        // every zone; the warm-up fills every slot of the store with the
        // longest footprint, circulates the spares and registers every
        // counter the stores mirror once per 1 024 probes.
        for b in 0..32 {
            run(&mut s, b);
        }
        // Every name jumps to its zone: one exchange per zone, one round.
        let (allocations, messages, held) = run(&mut s, 32);
        assert!(zones >= 32);
        assert_eq!(messages, 2 * zones as u64, "{mode:?}");
        assert_eq!((allocations, held), (PER_CACHED_BATCH, 0), "{mode:?}");
        // Shorter names refill slots that held longer ones: nothing grows.
        let mut allocations = 0;
        let (_, _, held) = allocations_in(|| {
            for b in 33..33 + 5_000 {
                allocations += run(&mut s, b).0;
            }
        });
        assert_eq!(held, 0, "{mode:?}: a store or a scratch grew");
        assert_eq!(allocations, 5_000 * PER_CACHED_BATCH, "{mode:?}");
    }
}

/// A warm cached batch allocates nothing, in either mode: its hits, its
/// negative hits and its misses fill the outcome the last batch was lent
/// in, a longer batch's or a shorter one's.
#[test]
fn a_warm_cached_batch_allocates_nothing() {
    for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
        let (mut s, svc) = star(23);
        // Every zone's files and a missing one: hits and negative hits once
        // the cache holds them; the misses a batch of them on its first
        // pass, with ten names too many for the positive store.
        let long: Vec<CompoundName> = (0..64).map(|k| batch(k, 1).remove(0)).collect();
        let short = batch(7, 3);
        let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 54, mode);
        let mut run = |s: &mut Star, names: &[CompoundName]| {
            allocations_in(|| {
                let out = cache.resolve_batch(&mut s.w, s.client, s.hub, names);
                assert_eq!(out.entities.len(), names.len());
                assert!(out.unreachable.is_empty(), "{mode:?}");
            })
        };
        for _ in 0..8 {
            run(&mut s, &long);
            run(&mut s, &short);
        }
        for round in 0..50 {
            assert_eq!(run(&mut s, &long), (0, 0, 0), "{mode:?}: round {round}");
            assert_eq!(run(&mut s, &short), (0, 0, 0), "{mode:?}: round {round}");
        }
    }
}

/// A recycled answer carries nothing over from the call before it: after a
/// lossy wave of long batches, a lossless wave of short ones; after a long
/// cached batch with hits and transport verdicts, a short one; after a
/// blocking batch with referrals, one without. Each answer equals, field for
/// field, what a fresh driver gives.
#[test]
fn recycled_answers_carry_nothing_over() {
    let paths = |paths: &[&str]| -> Vec<CompoundName> {
        paths
            .iter()
            .map(|p| CompoundName::parse_path(p).unwrap())
            .collect()
    };
    // The reactor: 32 lossy batches of 16 names, then 5 lossless of 3.
    let short: Vec<Vec<CompoundName>> = (0..5).map(|b| batch(40 + b, 3)).collect();
    let fresh = {
        let (mut s, svc) = star(29);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 2);
        for names in &short {
            svc.submit(&mut s.w, s.client, s.hub, names);
        }
        svc.drain(&mut s.w).to_vec()
    };
    let (mut s, svc) = star(29);
    let mut svc = PipelinedService::with_limit(ProtocolEngine::new(svc), 2, 4);
    s.w.set_message_drop_rate(0.3);
    for b in 0..32 {
        svc.submit(&mut s.w, s.client, s.hub, &batch(b, 16));
    }
    let lossy = svc.drain(&mut s.w);
    assert!(lossy.iter().any(|a| a.unreachable.contains(&true)));
    assert!(lossy.iter().any(|a| a.referrals.len() > 3));
    s.w.set_message_drop_rate(0.0);
    for names in &short {
        svc.submit(&mut s.w, s.client, s.hub, names);
    }
    let got = svc.drain(&mut s.w);
    assert_eq!(got.len(), fresh.len());
    for (i, (got, want)) in got.iter().zip(&fresh).enumerate() {
        assert_eq!(got.seq, 32 + want.seq, "batch {i}");
        assert_eq!(got.entities, want.entities, "batch {i}");
        assert_eq!(got.unreachable, want.unreachable, "batch {i}");
        assert_eq!(got.referrals, want.referrals, "batch {i}");
        let counts = |a: &naming_resolver::runtime::PipelinedAnswer| {
            (
                a.rounds,
                a.messages,
                a.servers_touched,
                a.coalesced,
                a.hops_saved,
            )
        };
        assert_eq!(counts(got), counts(want), "batch {i}");
    }

    // The cache: 64 names, lossy, twice (hits and transport verdicts), then
    // three lossless names it has not seen, a missing one among them.
    let long: Vec<CompoundName> = (0..64)
        .map(|k| {
            let (r, z, f) = (k % REGIONS, (k / REGIONS) % ZONES, k / 16);
            CompoundName::parse_path(&format!("/r{r}/z{z}/f{f}")).unwrap()
        })
        .collect();
    let short = paths(&["/r0/z0/f5", "/r1/z2/nope", "/r3/z3/f6"]);
    for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
        let fresh = {
            let (mut s, svc) = star(31);
            let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 256, mode);
            cache
                .resolve_batch(&mut s.w, s.client, s.hub, &short)
                .clone()
        };
        let (mut s, svc) = star(31);
        let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 256, mode);
        s.w.set_message_drop_rate(0.3);
        let flagged = (0..20).any(|_| {
            let out = cache.resolve_batch(&mut s.w, s.client, s.hub, &long);
            out.from_cache.contains(&true) && !out.unreachable.is_empty()
        });
        assert!(flagged, "{mode:?}: no batch both hit and lost");
        s.w.set_message_drop_rate(0.0);
        let got = cache.resolve_batch(&mut s.w, s.client, s.hub, &short);
        assert_eq!(got.entities.len(), short.len());
        assert_eq!(got.entities, fresh.entities, "{mode:?}");
        assert_eq!(got.from_cache, fresh.from_cache, "{mode:?}");
        assert_eq!(got.unreachable, fresh.unreachable, "{mode:?}");
    }

    // The blocking driver: names that follow two referrals each, then names
    // the hub answers.
    let shallow = paths(&["/r0", "/r2", "/nope"]);
    let fresh = {
        let (mut s, svc) = star(37);
        let mut engine = ProtocolEngine::new(svc);
        engine
            .resolve_batch(&mut s.w, s.client, s.hub, &shallow)
            .clone()
    };
    let (mut s, svc) = star(37);
    let mut engine = ProtocolEngine::new(svc);
    let deep = engine.resolve_batch(&mut s.w, s.client, s.hub, &batch(0, 16));
    assert!(deep.referrals.len() >= 2 * 16 - 2);
    let got = engine.resolve_batch(&mut s.w, s.client, s.hub, &shallow);
    assert!(got.referrals.is_empty());
    assert_eq!(got.entities, fresh.entities);
    assert_eq!(got.unreachable, fresh.unreachable);
    assert_eq!(got.referrals, fresh.referrals);
    assert_eq!(got.rounds, fresh.rounds);
}

/// An iterative resolve whose caller reads the answer and drops the hops
/// allocates nothing once warm: the engine keeps the answer, and the next
/// resolve starts in its vectors.
#[test]
fn a_warm_single_resolve_allocates_nothing() {
    let (mut s, svc) = star(7);
    let mut engine = ProtocolEngine::new(svc);
    let names: Vec<CompoundName> = batch(0, 16);
    for name in &names {
        engine.resolve(&mut s.w, s.client, s.hub, name, Mode::Iterative);
    }
    for name in names.iter().cycle().take(200) {
        let sent0 = sent(&s.w);
        let (allocations, _, held) = allocations_in(|| {
            let stats = engine.resolve(&mut s.w, s.client, s.hub, name, Mode::Iterative);
            assert!(!stats.unreachable);
        });
        // Three labels: the hub, the region, the zone.
        assert_eq!(sent(&s.w) - sent0, 6, "{name}");
        assert_eq!((allocations, held), (0, 0), "{name}");
    }
}

/// A cache miss on a single name reads the engine's answer where it lies:
/// nothing is allocated once warm, in either mode. The store holds half the
/// names asked in turn, so every name misses and refills the slot of one
/// recorded before it.
#[test]
fn a_warm_cached_single_miss_allocates_nothing() {
    for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
        let (mut s, svc) = star(19);
        let names: Vec<CompoundName> = (0..REGIONS * ZONES * FILES)
            .map(|i| {
                let (r, z, f) = (i % REGIONS, (i / REGIONS) % ZONES, i / (REGIONS * ZONES));
                CompoundName::parse_path(&format!("/r{r}/z{z}/f{f}")).unwrap()
            })
            .collect();
        let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), names.len() / 2, mode);
        let mut run = |s: &mut Star, name: &CompoundName| {
            allocations_in(|| {
                let out = cache.resolve_outcome(&mut s.w, s.client, s.hub, name, Mode::Iterative);
                assert!(out.entity.is_defined() && !out.unreachable);
                assert!(!out.from_cache, "{name} was served from the cache");
            })
        };
        // The first round walks from the root and leaves a referral to
        // every zone; the next fill every slot of the store and register
        // every counter the stores mirror once per 1 024 probes.
        for name in names.iter().cycle().take(8 * names.len()) {
            run(&mut s, name);
        }
        for name in names.iter().cycle().take(4 * names.len()) {
            let (allocations, _, held) = run(&mut s, name);
            assert_eq!((allocations, held), (0, 0), "{mode:?}: {name}");
        }
    }
}

/// A full transfer is read, counted and let go: it leaves nothing behind.
/// After a bootstrap pull over a zone of 12 000 bindings, the bytes the
/// cache, its engine and the world hold have grown by less than a quarter
/// of the bytes the exchange carried.
#[test]
fn a_full_transfer_leaves_nothing_behind() {
    let mut w = World::with_shards(97, 2);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    // A hundred files in each of 120 directories: one bind at a time checks
    // the whole context in a debug build, so no context is made large.
    w.state_mut().set_default_shard(1);
    for d in 0..120 {
        let dir = store::ensure_dir(w.state_mut(), root, &format!("d{d}"));
        for f in 0..100 {
            store::create_file(w.state_mut(), dir, &format!("f{f}"), vec![]);
        }
    }
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let client = w.spawn(m, "client", None);
    let mode = CoherenceMode::Lease { ttl: None };
    let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 1024, mode);
    let mut report = None;
    let (_, _, held) = allocations_in(|| report = cache.sync(&mut w, client, m));
    let report = report.expect("a lossless bootstrap completes");
    assert_eq!(report.shards_full, 2);
    assert!(report.changes >= 12_000, "{report:?}");
    assert!(
        held * 4 < report.bytes as i64,
        "a bootstrap of {} B left {held} B held",
        report.bytes
    );
}

/// What a recursive resolve costs per server that forwards it: the server
/// cuts the rest of the name out of the request in buffers of its own and
/// files the forward. Its own reads, which the relayed answer must list
/// too, wait in a list it reuses.
const PER_FORWARD: u64 = 3;

#[test]
fn a_forwarded_recursive_resolve_costs_the_same_per_hop_once_warm() {
    let (mut s, svc) = star(7);
    let mut engine = ProtocolEngine::new(svc);
    // A name answered by the hub, by a region, by a zone: 0, 1, 2 forwards.
    let names =
        ["/r0", "/r1/z2", "/r1/z2/f3", "/r3/z1/nope"].map(|p| CompoundName::parse_path(p).unwrap());
    for name in &names {
        engine.resolve(&mut s.w, s.client, s.hub, name, Mode::Recursive);
    }
    let alone = {
        let (allocations, _, _) = allocations_in(|| {
            engine.resolve(&mut s.w, s.client, s.hub, &names[0], Mode::Recursive);
        });
        allocations
    };
    for _ in 0..50 {
        for name in &names {
            let sent0 = sent(&s.w);
            let (allocations, _, held) = allocations_in(|| {
                engine.resolve(&mut s.w, s.client, s.hub, name, Mode::Recursive);
            });
            let forwards = (sent(&s.w) - sent0) / 2 - 1;
            assert_eq!(held, 0, "{name}: a forward left memory behind");
            assert_eq!(allocations, alone + PER_FORWARD * forwards, "{name}");
        }
    }
}

#[test]
fn loss_retransmission_and_failover_cost_only_the_frames_lost() {
    let (mut s, mut svc) = star(17);
    // Zone 0 of region 0 is replicated on a standby and its primary killed:
    // every name through it costs a deadline and a failover.
    let net = s.w.topology().machine_network(s.zones[0].0);
    let standby = s.w.add_machine("standby", net);
    svc.add_server(&mut s.w, standby);
    svc.replicate_zone(&mut s.w, s.zones[0].1, standby);
    let dead = svc.server_on(s.zones[0].0);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts: 64,
        ..RetryPolicy::default()
    }));
    s.w.kill(dead);
    s.w.set_message_drop_rate(0.1);
    let mut svc = PipelinedService::with_limit(engine, 2, 4);
    let wave = |svc: &mut PipelinedService, s: &mut Star, first: usize| {
        let batches: Vec<Vec<CompoundName>> = (first..first + 16).map(|b| batch(b, 16)).collect();
        // A frame the network loses comes back to its sender; one a dead
        // server never reads does not.
        let dropped = |w: &World| w.trace().counter("dropped");
        let dropped0 = dropped(&s.w);
        let (allocations, _, _) = allocations_in(|| {
            for names in &batches {
                svc.submit(&mut s.w, s.client, s.hub, names);
            }
            let answers = svc.drain(&mut s.w);
            assert!(answers.iter().all(|a| a.unreachable.iter().all(|&u| !u)));
        });
        (allocations, dropped(&s.w) - dropped0)
    };
    for w in 0..4 {
        wave(&mut svc, &mut s, w * 16);
    }
    let before = svc.engine().retry_counters();
    let lost0 = s.w.trace().counter("lost");
    let (mut allocations, mut dropped) = (0, 0);
    for w in 4..24 {
        let (a, d) = wave(&mut svc, &mut s, w * 16);
        (allocations, dropped) = (allocations + a, dropped + d);
    }
    let after = svc.engine().retry_counters();
    let lost = s.w.trace().counter("lost") - lost0;
    assert!(after.retransmissions > before.retransmissions + 100);
    assert!(after.failovers > before.failovers + 20);
    assert!(lost > 100, "{lost} frames lost");
    // A dropped frame's replacement is a buffer and the shared box it
    // travels in; a lost one costs nothing.
    assert!(
        allocations <= 2 * dropped + PER_BATCH * 20 * 16,
        "{allocations} allocations, {dropped} frames dropped, {lost} lost"
    );
}

/// A frame submitted to the worker pool costs the submitting thread its
/// answer, whether a pool thread or the drain serves it — the answer is made
/// at submit — and a drain one more, for the answers in submission order.
/// The frame is read into a trie that served an earlier one, the decode's
/// forest check runs in the service's scratch, and the job queue has room
/// for every job pending: none of them grows once warm, however far the
/// pool thread falls behind.
#[test]
fn a_pooled_frame_costs_its_submitter_the_same_whoever_serves_it() {
    const FRAMES: usize = 32;
    let (s, _) = star(13);
    let frames: Vec<Bytes> = (0..FRAMES)
        .map(|b| {
            let (trie, _) = NameTrie::build(&batch(b, 64));
            let id = b as u64;
            BatchRequest {
                id,
                start: s.hub,
                trie,
            }
            .encode()
        })
        .collect();
    let mut svc = ConcurrentService::new(s.w.state().clone(), 1);
    // Allocations of one wave, and how many frames the pool thread (0) and
    // the drain (1) served.
    let mut wave = || {
        let wave = frames.clone();
        let mut served = [0u64; 2];
        let (allocations, _, _) = allocations_in(|| {
            for frame in wave {
                assert!(svc.submit_frame(frame));
            }
            for answer in svc.drain() {
                served[answer.worker] += 1;
            }
        });
        (allocations, served)
    };
    // Warm up until both servers have walked a frame, over two waves at
    // least: the queues, the walks' scratch and the registry's counters are
    // then at full size. The tries go back in submission order and are
    // taken last first, so a frame alternates between two tries, and from
    // the third wave on each has held both frames it serves.
    let mut seen = [0u64; 2];
    for warm in 0.. {
        if warm >= 2 && !seen.contains(&0) {
            break;
        }
        let (_, served) = wave();
        seen = [seen[0] + served[0], seen[1] + served[1]];
    }
    seen = [0; 2];
    for round in 0.. {
        let (allocations, served) = wave();
        assert_eq!(allocations, FRAMES as u64 + 1, "served {served:?}");
        seen = [seen[0] + served[0], seen[1] + served[1]];
        if round >= 8 && !seen.contains(&0) {
            break;
        }
    }
}

/// Frames of every shape from one start: the widest first — 64 names over
/// eight directories of eight files — then eight names, one, and names that
/// stop short, go through a file, miss at the top or at a leaf.
fn shaped_frames(start: ObjectId) -> Vec<Bytes> {
    let widest: Vec<String> = (0..64).map(|i| format!("/d{}/f{}", i % 8, i / 8)).collect();
    let eight: Vec<String> = (0..8).map(|i| format!("/d{i}/f{i}")).collect();
    let odd = ["/d1", "/d1/f1/below", "/nope/x", "/d2/f9", "/"].map(String::from);
    let shapes = [&widest[..], &eight, &["/d3/f5".to_string()], &odd];
    (0..)
        .zip(shapes)
        .map(|(id, names)| {
            let names: Vec<CompoundName> = names
                .iter()
                .map(|n| CompoundName::parse_path(n).unwrap())
                .collect();
            let (trie, _) = NameTrie::build(&names);
            BatchRequest { id, start, trie }.encode()
        })
        .collect()
}

/// What a name server's request costs once the server has walked the
/// widest frame, whatever its shape: its reply's buffer, which a sender
/// with no engine never hands back, and the shared box it travels in.
const PER_REQUEST: u64 = 2;

/// The authority's walk keeps its buffers — the trie's, and the resolve
/// phase's queue and per-node table — from frame to frame: once a name
/// server, and each server of the pool, has walked the widest frame, a
/// request of any shape costs exactly what it did before the walk went one
/// depth at a time.
#[test]
fn a_warm_walk_costs_the_same_whatever_the_frame_shape() {
    let mut w = World::new(23);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    for d in 0..8 {
        let dir = store::ensure_dir(w.state_mut(), root, &format!("d{d}"));
        for f in 0..8 {
            store::create_file(w.state_mut(), dir, &format!("f{f}"), vec![]);
        }
    }
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let server = svc.server_on(m);
    let client = w.spawn(m, "client", None);
    let frames = shaped_frames(root);
    let mut pool = ConcurrentService::new(w.state().clone(), 1);
    let mut engine = ProtocolEngine::new(svc);

    // A name server's mailbox.
    let mut request = |w: &mut World, frame: &Bytes| {
        let frame = frame.clone();
        let (allocations, _, held) = allocations_in(|| {
            w.send(client, server, Payload::Bytes(frame));
            engine.pump_idle(w);
            assert!(w.receive(client).is_some(), "the request is answered");
        });
        (allocations, held)
    };
    request(&mut w, &frames[0]);
    for _ in 0..4 {
        let costs: Vec<(u64, i64)> = frames.iter().map(|f| request(&mut w, f)).collect();
        assert_eq!(costs, [(PER_REQUEST, 0); 4]);
    }

    // The pool: warm until both servers have walked the widest frame, then
    // waves of every shape.
    const FRAMES: usize = 32;
    let mut wave = |shapes: &[Bytes]| {
        let wave: Vec<Bytes> = shapes.iter().cycle().take(FRAMES).cloned().collect();
        let mut served = [0u64; 2];
        let (allocations, _, _) = allocations_in(|| {
            for frame in wave {
                assert!(pool.submit_frame(frame));
            }
            for answer in pool.drain() {
                served[answer.worker] += 1;
            }
        });
        (allocations, served)
    };
    let mut seen = [0u64; 2];
    for warm in 0.. {
        if warm >= 2 && !seen.contains(&0) {
            break;
        }
        let (_, served) = wave(&frames[..1]);
        seen = [seen[0] + served[0], seen[1] + served[1]];
    }
    seen = [0; 2];
    for round in 0.. {
        let (allocations, served) = wave(&frames);
        assert_eq!(allocations, FRAMES as u64 + 1, "served {served:?}");
        seen = [seen[0] + served[0], seen[1] + served[1]];
        if round >= 8 && !seen.contains(&0) {
            break;
        }
    }
}

/// A frame that claims 2³² (or 2¹⁶) elements and brings none: refused by
/// every reader — an authority's among them, which reads a pull's request
/// as it arrives — before the claim has sized anything.
#[test]
fn a_length_field_sizes_no_allocation_beyond_its_frame() {
    let lying = |tag: u8, header: usize, count: &[u8]| {
        let mut frame = vec![0u8; header];
        frame[0] = tag;
        frame.extend_from_slice(count);
        frame
    };
    let (max32, max16) = (&[0xff; 4][..], &[0xff; 2][..]);
    let mut frames = [
        lying(1, 1 + 8 + 4 + 4, max32),         // recursive request: nodes
        lying(3, 1 + 4, max32),                 // zone update: bindings
        lying(5, 1 + 8 + 4 + 4, max32),         // batch reply: outcomes
        lying(6, 1 + 8, max16),                 // zone delta request: shards
        lying(7, 1 + 8, max16),                 // zone delta: shards
        lying(7, 1 + 8 + 2 + 2 + 8 + 1, max32), // zone delta: a shard's changes
    ];
    // The last one claims its changes inside the one shard it announces.
    frames[5][1 + 8 + 1] = 1;
    let (mut s, svc) = star(11);
    let mut engine = ProtocolEngine::new(svc);
    let server = engine.service().server_on(s.zones[0].0);
    let mut serve = |w: &mut World, frame: Bytes| {
        w.send(s.client, server, Payload::Bytes(frame));
        engine.pump_idle(w);
    };
    // The network's queues grow on the first message.
    serve(&mut s.w, Bytes::from(frames[3].clone()));
    let mut kept = KeptDelta::default();
    for frame in frames.map(Bytes::from) {
        let (_, bytes, _) = allocations_in(|| {
            assert!(BatchRequest::decode(frame.clone()).is_none());
            assert!(ZoneUpdate::decode(frame.clone()).is_none());
            assert!(BatchReply::decode(frame.clone()).is_none());
            assert!(kept.read(&frame).is_none());
            serve(&mut s.w, frame);
        });
        assert!(bytes < 1024, "a reader sized {bytes} bytes by a claim");
    }
    assert!(
        s.w.receive(s.client).is_none(),
        "an authority answered a lie"
    );
}
