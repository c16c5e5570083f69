//! The layer ladder: a sample of a workload's own op stream pushed through
//! each entry point in turn, outermost call last, so that the cost a layer
//! adds over the layers it calls can be read off as a difference.
//!
//! Rungs time calls from outside, through public functions only. Cheap
//! per-name calls (a context lookup, a serial walk, a memo probe) are timed
//! a whole pass at a time, because one clock read costs more than the call;
//! batch calls are timed one by one.

use std::collections::BTreeSet;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::memo::ResolutionMemo;
use naming_core::name::CompoundName;
use naming_core::resolve::Resolver;
use naming_core::snapshot::{SnapshotMemo, StateSnapshot};
use naming_core::state::SystemState;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::wire::{BatchReply, BatchRequest, NameTrie, Outcome};
use naming_sim::message::Payload;
use naming_sim::world::World;

use crate::probe::Probe;
use crate::stats::median;
use crate::workloads::authority_scan::republish;
use crate::workloads::{per_k, ratio, Readings, BATCH};
use crate::worlds::Star3;

/// Passes over the sample for the cheap rungs; the median pass is reported.
const PASSES: usize = 3;

/// Runs `pass` `passes` times under a rung span and returns the median
/// pass's `(ns, allocs)` per unit of work.
fn rung(
    probe: &mut Probe,
    name: &'static str,
    units: usize,
    passes: usize,
    mut pass: impl FnMut(&mut Probe),
) -> (f64, f64) {
    probe.open(name);
    let (mut ns, mut allocs) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        probe.take();
        pass(probe);
        let (wall, a) = probe.take();
        ns.push(wall as f64 / units as f64);
        allocs.push(a as f64 / units as f64);
    }
    probe.close();
    (median(&ns), median(&allocs))
}

/// `core::context`, `core::resolve`, `core::memo` and `core::snapshot`:
/// everything below the wire, on `state` directly.
pub fn core_rungs(
    state: &SystemState,
    start: ObjectId,
    names: &[CompoundName],
    probe: &mut Probe,
) -> Readings {
    let n = names.len();
    let resolver = Resolver::new();

    // One `SystemState::lookup` per path component, stopping at ⊥.
    let mut lookups = 0usize;
    let (pass_ns, _) = rung(probe, "core.context", 1, PASSES, |p| {
        lookups = p.call("core.context.lookup", 0, || {
            let mut done = 0;
            for name in names {
                let mut cur = start;
                for &c in name.components() {
                    done += 1;
                    match state.lookup(cur, c) {
                        Entity::Object(o) => cur = o,
                        _ => break,
                    }
                }
                std::hint::black_box(cur);
            }
            done
        });
    });
    let lookup_ns = ratio(pass_ns, lookups as f64);

    let (walk_ns, walk_allocs) = rung(probe, "core.resolve", n, PASSES, |p| {
        p.call("core.resolve.resolve_entity", 0, || {
            for name in names {
                std::hint::black_box(resolver.resolve_entity(state, start, name));
            }
        });
    });

    // Warm the memo with one untimed pass, then time probes against it.
    let mut memo = ResolutionMemo::new();
    for name in names {
        resolver.resolve_entity_memo(state, start, name, &mut memo);
    }
    let before = memo.stats();
    let (memo_ns, _) = rung(probe, "core.memo", n, PASSES, |p| {
        p.call("core.memo.resolve_entity_memo", 0, || {
            for name in names {
                std::hint::black_box(resolver.resolve_entity_memo(state, start, name, &mut memo));
            }
        });
    });
    let after = memo.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);

    let snap = StateSnapshot::capture(state);
    let mut snap_memo = SnapshotMemo::new();
    for name in names {
        resolver.resolve_entity_snapshot_memo(&snap, start, name, &mut snap_memo);
    }
    let (snap_ns, _) = rung(probe, "core.snapshot", n, PASSES, |p| {
        p.call("core.snapshot.resolve_entity_snapshot_memo", 0, || {
            for name in names {
                std::hint::black_box(resolver.resolve_entity_snapshot_memo(
                    &snap,
                    start,
                    name,
                    &mut snap_memo,
                ));
            }
        });
    });

    vec![
        ("core.context.lookup_ns", lookup_ns),
        ("core.resolve.walk_ns_per_name", walk_ns),
        ("core.resolve.allocs_per_name", walk_allocs),
        ("core.memo.hit_ns_per_name", memo_ns),
        (
            "core.memo.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "core.memo.evictions_per_kname",
            per_k(after.evictions - before.evictions, (PASSES * n) as u64),
        ),
        ("core.snapshot.memo_ns_per_name", snap_ns),
    ]
}

/// What the `resolver::wire` rungs measured.
pub struct WireRungs {
    pub readings: Readings,
    /// Trie build + both encodes + both decodes, per name per exchange.
    pub exchange_ns_per_name: f64,
    /// Request and reply frame sizes of a typical batch, for the
    /// `sim::world` rung's payloads.
    pub frame_bytes: (usize, usize),
}

/// `resolver::wire`: trie build, request/reply encode and decode, in
/// batches of [`BATCH`] names from `start`. Replies carry the outcome the
/// authority would give for the whole name.
pub fn wire_rungs(
    state: &SystemState,
    start: ObjectId,
    names: &[CompoundName],
    probe: &mut Probe,
) -> WireRungs {
    let n = names.len();
    let chunks: Vec<&[CompoundName]> = names.chunks(BATCH).collect();
    let (build_ns, _) = rung(probe, "resolver.wire.trie", n, PASSES, |p| {
        for (b, chunk) in chunks.iter().enumerate() {
            std::hint::black_box(p.call("resolver.wire.NameTrie.build", b as u32, || {
                NameTrie::build(chunk)
            }));
        }
    });

    let resolver = Resolver::new();
    let requests: Vec<BatchRequest> = chunks
        .iter()
        .enumerate()
        .map(|(b, chunk)| BatchRequest {
            id: b as u64,
            start,
            trie: NameTrie::build(chunk).0,
        })
        .collect();
    let replies: Vec<BatchReply> = requests
        .iter()
        .map(|req| BatchReply {
            id: req.id,
            outcomes: req
                .trie
                .names()
                .iter()
                .map(|name| match resolver.resolve_entity(state, start, name) {
                    Entity::Undefined => Outcome::NotFound,
                    e => Outcome::Resolved(e),
                })
                .collect(),
            servers_touched: 1,
            lookups_saved: 0,
        })
        .collect();

    let mut frames = Vec::with_capacity(requests.len() * 2);
    let (encode_ns, _) = rung(probe, "resolver.wire.encode", n, PASSES, |p| {
        frames.clear();
        for (b, (req, rep)) in requests.iter().zip(&replies).enumerate() {
            frames.push(p.call("resolver.wire.BatchRequest.encode", b as u32, || {
                req.encode()
            }));
            frames.push(p.call("resolver.wire.BatchReply.encode", b as u32, || rep.encode()));
        }
    });
    let bytes: usize = frames.iter().map(|f| f.len()).sum();
    let frame_bytes = (
        frames.first().map_or(0, |f| f.len()),
        frames.get(1).map_or(0, |f| f.len()),
    );

    let (decode_ns, _) = rung(probe, "resolver.wire.decode", n, PASSES, |p| {
        for (b, pair) in frames.chunks(2).enumerate() {
            let (req, rep) = (pair[0].clone(), pair[1].clone());
            std::hint::black_box(p.call("resolver.wire.BatchRequest.decode", b as u32, || {
                BatchRequest::decode(req)
            }));
            std::hint::black_box(p.call("resolver.wire.BatchReply.decode", b as u32, || {
                BatchReply::decode(rep)
            }));
        }
    });

    WireRungs {
        readings: vec![
            ("resolver.wire.trie_build_ns_per_name", build_ns),
            ("resolver.wire.encode_ns_per_name", encode_ns),
            ("resolver.wire.decode_ns_per_name", decode_ns),
            (
                "resolver.wire.bytes_per_name",
                ratio(bytes as f64, n as f64),
            ),
        ],
        exchange_ns_per_name: build_ns + encode_ns + decode_ns,
        frame_bytes,
    }
}

/// A workload's own entry point measured on the sample.
pub struct TopRung {
    pub readings: Readings,
    /// Every timed call of the rung, per name.
    pub ns_per_name: f64,
}

/// `resolver::concurrent` on a fresh pool over `state`: the sample's frames
/// submitted and drained in waves, republishing before each wave exactly as
/// `authority_scan` does.
pub fn concurrent_rung(
    state: &SystemState,
    start: ObjectId,
    names: &[CompoundName],
    workers: usize,
    wave_frames: usize,
    probe: &mut Probe,
) -> TopRung {
    let frames: Vec<bytes::Bytes> = names
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            BatchRequest {
                id: b as u64,
                start,
                trie: NameTrie::build(chunk).0,
            }
            .encode()
        })
        .collect();
    // Cloning a sharded state shares every shard by `Arc`.
    let mut svc = ConcurrentService::new(state.clone(), workers);
    let (mut submit_ns, mut drain_ns) = (Vec::new(), Vec::new());
    probe.open("resolver.concurrent");
    for _ in 0..PASSES {
        let (mut submit, mut drain) = (0u64, 0u64);
        for (w, wave) in frames.chunks(wave_frames).enumerate() {
            republish(&mut svc, start);
            probe.take();
            for (k, frame) in wave.iter().enumerate() {
                let frame = frame.clone();
                probe.call(
                    "resolver.concurrent.submit_frame",
                    (w * wave_frames + k) as u32,
                    || svc.submit_frame(frame),
                );
            }
            submit += probe.take().0;
            std::hint::black_box(probe.call("resolver.concurrent.drain", w as u32, || svc.drain()));
            drain += probe.take().0;
        }
        submit_ns.push(submit as f64 / frames.len() as f64);
        drain_ns.push(drain as f64 / names.len() as f64);
    }
    probe.close();
    svc.shutdown();
    let (submit, drain) = (median(&submit_ns), median(&drain_ns));
    TopRung {
        readings: vec![
            ("resolver.concurrent.submit_ns_per_batch", submit),
            ("resolver.concurrent.drain_ns_per_name", drain),
        ],
        ns_per_name: submit / BATCH as f64 + drain,
    }
}

/// How a star workload configures the protocol underneath it.
#[derive(Clone, Copy)]
pub struct StarConfig {
    pub latency: Option<naming_sim::topology::LatencyModel>,
    pub drop_rate: f64,
    pub retry: Option<RetryPolicy>,
    /// Names per `ProtocolEngine::resolve_batch` / `PipelinedService::submit`.
    pub batch: usize,
}

/// What the rungs under a star workload's own entry point measured.
pub struct StarRungs {
    pub readings: Readings,
    /// `ProtocolEngine::resolve_batch`, ns and messages per name on the sample.
    pub engine_ns_per_name: f64,
    pub engine_msgs_per_name: f64,
    /// The engine, its world and client, for the caller's own top rung.
    pub engine: ProtocolEngine,
    pub star: Star3,
}

/// `resolver::service`, `sim::world` and `resolver::engine` on a fresh
/// star world configured as the workload configures its own.
pub fn star_rungs(
    seed: u64,
    cfg: StarConfig,
    names: &[CompoundName],
    wire: &WireRungs,
    probe: &mut Probe,
) -> StarRungs {
    let n = names.len();
    let (mut star, svc) = Star3::build(seed, cfg.latency);
    let hub_machine = star.machines[0];

    // The hub's share of the walk: `/` and the region, then a referral.
    let tries: Vec<NameTrie> = names
        .chunks(BATCH)
        .map(|chunk| NameTrie::build(chunk).0)
        .collect();
    let components: usize = names.iter().map(CompoundName::len).sum();
    let mut saved = 0u64;
    let (local_ns, _) = rung(probe, "resolver.service", n, PASSES, |p| {
        saved = 0;
        for (b, trie) in tries.iter().enumerate() {
            let (outcomes, s) = p.call("resolver.service.local_resolve_batch", b as u32, || {
                svc.local_resolve_batch(&star.world, hub_machine, star.hub, trie)
            });
            saved += u64::from(s);
            std::hint::black_box(outcomes);
        }
    });

    star.world.set_message_drop_rate(cfg.drop_rate);
    let msg_ns = world_rung(
        &mut star.world,
        star.client,
        svc.server_on(hub_machine),
        wire,
        n,
        probe,
    );
    let lost0 = star.world.trace().counter("lost");
    let sent0 = star.world.trace().counter("sent");

    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(cfg.retry);
    let (mut msgs, mut rounds, mut coalesced, mut hops_saved, mut batches) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (engine_ns, _) = rung(probe, "resolver.engine", n, 1, |p| {
        for (b, chunk) in names.chunks(cfg.batch).enumerate() {
            let stats = p.call("resolver.engine.resolve_batch", b as u32, || {
                engine.resolve_batch(&mut star.world, star.client, star.hub, chunk)
            });
            msgs += stats.messages;
            rounds += u64::from(stats.rounds);
            coalesced += stats.coalesced;
            hops_saved += stats.hops_saved;
            batches += 1;
        }
    });
    let retry = engine.retry_counters();
    let sent = star.world.trace().counter("sent") - sent0;
    let lost = star.world.trace().counter("lost") - lost0;
    let msgs_per_name = ratio(msgs as f64, n as f64);
    let rounds_per_batch = ratio(rounds as f64, batches as f64);
    // Each name rides one exchange per round: it is encoded, decoded and
    // looked up locally `rounds` times, and its batch moves `msgs` messages.
    let below = rounds_per_batch * (wire.exchange_ns_per_name + local_ns) + msgs_per_name * msg_ns;

    StarRungs {
        readings: vec![
            ("resolver.service.local_batch_ns_per_name", local_ns),
            (
                "resolver.service.lookups_saved_ratio",
                ratio(saved as f64, components as f64),
            ),
            ("sim.world.msg_ns", msg_ns),
            ("sim.world.lost_per_kmsg", per_k(lost, sent)),
            ("resolver.engine.batch_ns_per_name", engine_ns),
            ("resolver.engine.self_ns_per_name", engine_ns - below),
            ("resolver.engine.rounds_per_batch", rounds_per_batch),
            (
                "resolver.engine.coalesced_per_kname",
                per_k(coalesced, n as u64),
            ),
            (
                "resolver.engine.hops_saved_per_kname",
                per_k(hops_saved, n as u64),
            ),
            (
                "resolver.engine.retransmissions_per_kname",
                per_k(retry.retransmissions, n as u64),
            ),
            (
                "resolver.engine.late_replies_per_kname",
                per_k(retry.late_replies, n as u64),
            ),
            ("resolver.engine.exhausted", retry.exhausted as f64),
        ],
        engine_ns_per_name: engine_ns,
        engine_msgs_per_name: msgs_per_name,
        engine,
        star,
    }
}

/// `sim::world`: frame-sized payloads sent, stepped and received with no
/// resolution at all — a request to the server, a reply back.
fn world_rung(
    world: &mut World,
    client: ActivityId,
    server: ActivityId,
    wire: &WireRungs,
    messages: usize,
    probe: &mut Probe,
) -> f64 {
    let request = bytes::Bytes::from(vec![0u8; wire.frame_bytes.0]);
    let reply = bytes::Bytes::from(vec![0u8; wire.frame_bytes.1]);
    let exchanges = messages / 2;
    let (msg_ns, _) = rung(probe, "sim.world", exchanges * 2, PASSES, |p| {
        for b in 0..exchanges.div_ceil(BATCH) {
            p.call("sim.world.send_step_receive", b as u32, || {
                for _ in 0..BATCH.min(exchanges - b * BATCH) {
                    for (from, to, body) in [(client, server, &request), (server, client, &reply)] {
                        world.send(from, to, vec![Payload::Bytes(body.clone())]);
                        // A lost message schedules nothing: no step, no receive.
                        if world.step() {
                            std::hint::black_box(world.receive(to));
                        }
                    }
                }
            });
        }
    });
    msg_ns
}

/// `resolver::runtime`: the sample submitted through a fresh
/// `PipelinedService` in waves and drained.
pub fn runtime_rung(
    rungs: StarRungs,
    names: &[CompoundName],
    batch: usize,
    wave_batches: usize,
    workers: usize,
    per_worker_limit: usize,
    probe: &mut Probe,
) -> TopRung {
    let n = names.len();
    let StarRungs {
        engine,
        mut star,
        engine_ns_per_name,
        ..
    } = rungs;
    let mut svc = PipelinedService::with_limit(engine, workers, per_worker_limit);
    let (mut submit, mut drain) = (0u64, 0u64);
    probe.open("resolver.runtime");
    probe.take();
    let batches: Vec<&[CompoundName]> = names.chunks(batch).collect();
    for (w, wave) in batches.chunks(wave_batches).enumerate() {
        for (b, chunk) in wave.iter().enumerate() {
            probe.call(
                "resolver.runtime.submit",
                (w * wave_batches + b) as u32,
                || svc.submit(&mut star.world, star.client, star.hub, chunk),
            );
        }
        submit += probe.take().0;
        std::hint::black_box(probe.call("resolver.runtime.drain", w as u32, || {
            svc.drain(&mut star.world)
        }));
        drain += probe.take().0;
    }
    probe.close();
    let (submit_ns, drain_ns) = (submit as f64 / n as f64, drain as f64 / n as f64);
    TopRung {
        readings: vec![
            ("resolver.runtime.submit_ns_per_name", submit_ns),
            ("resolver.runtime.drain_ns_per_name", drain_ns),
            (
                "resolver.runtime.self_ns_per_name",
                submit_ns + drain_ns - engine_ns_per_name,
            ),
        ],
        ns_per_name: submit_ns + drain_ns,
    }
}

/// What the `resolver::cache` rung measured.
pub struct CacheRung {
    pub readings: Readings,
    pub hit_ns_per_name: f64,
    pub miss_ns_per_name: f64,
}

impl CacheRung {
    /// The cost of a name when `local` of them are answered from the cache.
    pub fn blended_ns_per_name(&self, local: f64) -> f64 {
        local * self.hit_ns_per_name + (1.0 - local) * self.miss_ns_per_name
    }
}

/// `resolver::cache`: a `CachingResolver` big enough to hold the sample,
/// first cold over the sample's distinct names (every name a miss), then
/// warm over the whole sample (every name a hit), so the two sides separate
/// whatever the workload's own hit ratio is.
pub fn cache_rung(
    rungs: StarRungs,
    names: &[CompoundName],
    mode: CoherenceMode,
    probe: &mut Probe,
) -> CacheRung {
    let StarRungs {
        engine,
        mut star,
        engine_ns_per_name,
        engine_msgs_per_name,
        ..
    } = rungs;
    let mut seen = BTreeSet::new();
    let distinct: Vec<CompoundName> = names.iter().filter(|&n| seen.insert(n)).cloned().collect();
    let mut cache = CachingResolver::with_mode(engine, distinct.len().max(1), mode);
    fn pass(p: &mut Probe, cache: &mut CachingResolver, star: &mut Star3, names: &[CompoundName]) {
        for (b, chunk) in names.chunks(BATCH).enumerate() {
            std::hint::black_box(p.call("resolver.cache.resolve_batch", b as u32, || {
                cache.resolve_batch(&mut star.world, star.client, star.hub, chunk)
            }));
        }
    }
    let sent0 = star.world.trace().counter("sent");
    let (miss_ns, _) = rung(probe, "resolver.cache.cold", distinct.len(), 1, |p| {
        pass(p, &mut cache, &mut star, &distinct)
    });
    let cold_msgs = star.world.trace().counter("sent") - sent0;
    let (hit_ns, _) = rung(probe, "resolver.cache.warm", names.len(), PASSES, |p| {
        pass(p, &mut cache, &mut star, names)
    });
    // Referral jumps let a miss skip rounds the bare engine walks, so the
    // engine's share of a miss is scaled by the messages each actually moved.
    let engine_share = engine_ns_per_name
        * ratio(
            ratio(cold_msgs as f64, distinct.len() as f64),
            engine_msgs_per_name,
        );
    CacheRung {
        readings: vec![
            ("resolver.cache.hit_ns_per_name", hit_ns),
            ("resolver.cache.miss_ns_per_name", miss_ns),
            ("resolver.cache.self_ns_per_name", miss_ns - engine_share),
        ],
        hit_ns_per_name: hit_ns,
        miss_ns_per_name: miss_ns,
    }
}

/// The share of the workload's end-to-end ns/name that its top rung — and
/// so, telescoped, the whole ladder — does not account for.
pub fn unexplained(e2e_ns_per_name: f64, top_rung_ns_per_name: f64) -> (&'static str, f64) {
    (
        "bench.ladder_unexplained_frac",
        ratio(e2e_ns_per_name - top_rung_ns_per_name, e2e_ns_per_name),
    )
}
