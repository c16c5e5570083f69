//! A message in flight allocates nothing.
//!
//! A message in flight belongs to the simulator, but its one part is held
//! inline and its frame is a buffer that goes back to the sender's engine
//! when it has been read. Nothing else on the resolution path may grow with
//! the names in a batch — a continuation's vectors are reused, requests are
//! built in the engine's scratch, the server decodes, walks and answers in
//! it, the client folds a reply from it — so once the buffers circulate a
//! batch costs the three vectors of its answer, whatever its size and
//! however many messages it took. Only a frame the network loses takes its
//! buffer with it, and one too large for the buffers that circulate has, as
//! every frame used to, a buffer of its own, made to measure: two
//! allocations, and the buffers that circulate are none the fewer. A client
//! cache's misses are one such batch, each name from its own jump, and its
//! stores refill the slots they recycle, so a batch of misses costs its
//! answer and its outcome. This binary counts with its own global allocator
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
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchReply, Frame, Request, ZoneDelta, ZoneDeltaRequest, ZoneUpdate};
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

/// The answer's three vectors — entities, verdicts, referral hops — are the
/// caller's to keep, so a batch allocates them whatever else is reused.
const PER_BATCH: u64 = 3;

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
fn a_blocking_batch_allocates_its_answer_whatever_its_messages() {
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
fn a_pipelined_wave_allocates_its_answers_whatever_its_messages() {
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
    wave(&mut s, 0, 64);
    for n in [8, FITS, 64] {
        let (allocations, messages) = wave(&mut s, 100, n);
        assert!(messages >= 6 * WAVE as u64);
        let large = PER_LARGE_FRAME * large_frames(n) * WAVE as u64;
        // Besides each answer's vectors: the completed map's nodes and the
        // vector the answers are returned in, a few allocations a wave.
        let per_batch = (allocations - large) as f64 / WAVE as f64;
        assert!(
            (PER_BATCH as f64..PER_BATCH as f64 + 1.0).contains(&per_batch),
            "{n} names: {allocations} allocations, {messages} messages"
        );
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

/// A cached batch of misses: its answer's three vectors and the two of the
/// outcome the cache hands back.
const PER_CACHED_BATCH: u64 = PER_BATCH + 2;

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
fn a_cached_batch_of_misses_allocates_its_answer_and_its_outcome() {
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
        // A frame the network loses, or a dead server never reads, does
        // not come back.
        let unread = |w: &World| w.trace().counter("lost") + w.trace().counter("dropped");
        let unread0 = unread(&s.w);
        let (allocations, _, _) = allocations_in(|| {
            for names in &batches {
                svc.submit(&mut s.w, s.client, s.hub, names);
            }
            let answers = svc.drain(&mut s.w);
            assert!(answers.iter().all(|a| a.unreachable.iter().all(|&u| !u)));
        });
        (allocations, unread(&s.w) - unread0)
    };
    for w in 0..4 {
        wave(&mut svc, &mut s, w * 16);
    }
    let before = svc.engine().retry_counters();
    let (mut allocations, mut unread) = (0, 0);
    for w in 4..24 {
        let (a, u) = wave(&mut svc, &mut s, w * 16);
        (allocations, unread) = (allocations + a, unread + u);
    }
    let after = svc.engine().retry_counters();
    assert!(after.retransmissions > before.retransmissions + 100);
    assert!(after.failovers > before.failovers + 20);
    // Its replacement is a buffer and the shared box it travels in.
    assert!(
        allocations <= 2 * unread + (PER_BATCH + 1) * 20 * 16,
        "{allocations} allocations, {unread} frames unread"
    );
}

/// A frame that claims 2³² (or 2¹⁶) elements and brings none: refused by
/// every decoder before the claim has sized anything.
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
        lying(1, 1 + 8 + 4 + 1, max16),         // scalar request: components
        lying(3, 1 + 4, max32),                 // zone update: bindings
        lying(5, 1 + 8 + 4 + 4, max32),         // batch reply: outcomes
        lying(6, 1 + 8, max16),                 // zone delta request: shards
        lying(7, 1 + 8, max16),                 // zone delta: shards
        lying(7, 1 + 8 + 2 + 2 + 8 + 1, max32), // zone delta: a shard's changes
    ];
    // The last one claims its changes inside the one shard it announces.
    frames[5][1 + 8 + 1] = 1;
    for frame in frames.map(Bytes::from) {
        let (_, bytes, _) = allocations_in(|| {
            assert!(Request::decode(frame.clone()).is_none());
            assert!(ZoneUpdate::decode(frame.clone()).is_none());
            assert!(BatchReply::decode(frame.clone()).is_none());
            assert!(ZoneDeltaRequest::decode(frame.clone()).is_none());
            assert!(ZoneDelta::decode(frame.clone()).is_none());
            assert!(Frame::decode(frame.clone()).is_none());
        });
        assert!(bytes < 1024, "a decoder sized {bytes} bytes by a claim");
    }
}
