//! One continuation, two drivers: the event-driven pipelined runtime
//! (`PipelinedService`) and the blocking batch driver
//! (`ProtocolEngine::resolve_batch`) run the same state machine, so
//! whether batches interleave or run one after another must change
//! nothing but their timing.
//!
//! * **Lossless runs are equal field for field, batch by batch** —
//!   entities, ⊥ verdicts, `Unreachable` flags, rounds, referral records
//!   and server/message accounting, at 1, 3 and 8 workers.
//! * **Head-of-line blocking is gone** — a batch stalled on a severed
//!   referral no longer delays an independent warm batch's virtual
//!   completion tick (the regression the reactor exists to fix).
//! * **A reply that says nothing is a transport verdict** — a short
//!   outcome list, or a referral whose count leaves no proper rest of what
//!   was asked, ends `Unreachable` through every entry point: never ⊥,
//!   never cached, never a referral hop the client did not ask for.
//!
//! These stay beside the fault harness (`tests/chaos.rs`) and the
//! configuration matrix (`tests/config_matrix.rs`). Head-of-line blocking
//! is a matter of timing, not of an answer. The short-reply, referral and
//! mutated-reply cases need forged frames, which neither builds. The
//! interleaved run submits many batches at once at 3 and 8 workers, where
//! the harness submits one at 2, and no revert has yet been shown that the
//! harness or class (a) catches in its place.

use naming_bench::scenarios::chaos_zones;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::CompoundName;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::{BatchResolveStats, ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::{PipelinedAnswer, PipelinedService};
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchReply, Mode, NameTrie, Outcome};
use naming_sim::message::Payload;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

const HOPS: usize = 4;
const LEAVES: usize = 12;
const SEED: u64 = 20260808;

/// Asserts every deterministic per-batch field matches between the two
/// models. Timing is excluded: once batches interleave, per-batch
/// latency legitimately differs from a serial timeline.
fn assert_batch_eq(got: &PipelinedAnswer, want: &BatchResolveStats, label: &str) {
    assert_eq!(got.entities, want.entities, "{label}: entities");
    assert_eq!(got.unreachable, want.unreachable, "{label}: verdicts");
    assert_eq!(got.rounds, want.rounds, "{label}: rounds");
    assert_eq!(got.referrals, want.referrals, "{label}: referrals");
    assert_eq!(
        got.servers_touched, want.servers_touched,
        "{label}: servers"
    );
    assert_eq!(got.coalesced, want.coalesced, "{label}: coalesced");
    assert_eq!(got.hops_saved, want.hops_saved, "{label}: hops saved");
    assert_eq!(got.messages, want.messages, "{label}: messages");
}

/// Many batches, lossless: submitting them all up front and letting the
/// reactor interleave their rounds changes nothing the blocking serial
/// driver can observe, at any worker count.
#[test]
fn interleaved_batches_match_serial_blocking_per_batch() {
    for workers in [1usize, 3, 8] {
        let (mut wa, svc_a, _m, client_a, start_a, names, _s, _z) =
            chaos_zones(HOPS, LEAVES, SEED, 1);
        let chunks: Vec<Vec<CompoundName>> = names.chunks(3).map(|c| c.to_vec()).collect();
        let mut blocking = ProtocolEngine::new(svc_a);
        let want: Vec<BatchResolveStats> = chunks
            .iter()
            .map(|c| {
                blocking
                    .resolve_batch(&mut wa, client_a, start_a, c)
                    .clone()
            })
            .collect();

        let (mut wb, svc_b, _m, client_b, start_b, _names, _s, _z) =
            chaos_zones(HOPS, LEAVES, SEED, 1);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc_b), workers);
        for c in &chunks {
            svc.submit(&mut wb, client_b, start_b, c);
        }
        let got = svc.drain(&mut wb);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_batch_eq(g, w, &format!("{workers} workers, chunk {i}"));
        }
    }
}

/// A skewed world for the head-of-line test: a warm file served by the
/// client's own machine, plus a 3-hop referral chain whose final hop is
/// severed so a deep batch stalls on retry deadlines.
fn skewed_world() -> (World, NameService, Vec<MachineId>, ObjectId) {
    let mut w = World::new(SEED);
    let net = w.add_network("n");
    let machines: Vec<MachineId> = (0..4)
        .map(|i| w.add_machine(format!("m{i}"), net))
        .collect();
    let root = w.machine_root(machines[0]);
    store::create_file(w.state_mut(), root, "warm", vec![]);
    let mut hops = Vec::new();
    for (i, &m) in machines.iter().enumerate().skip(1) {
        let r = w.machine_root(m);
        hops.push(store::ensure_dir(w.state_mut(), r, &format!("self{i}")));
    }
    store::attach(w.state_mut(), root, "h1", hops[0], false);
    for i in 1..hops.len() {
        store::attach(
            w.state_mut(),
            hops[i - 1],
            &format!("h{}", i + 1),
            hops[i],
            false,
        );
    }
    store::create_file(w.state_mut(), hops[2], "leaf", vec![]);
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    (w, svc, machines, root)
}

/// The head-of-line regression the reactor fixes: a batch stalled on a
/// severed referral (burning retry deadlines toward an unreachable
/// verdict) must not delay an independent warm batch's virtual
/// completion tick — on a single worker.
#[test]
fn stalled_referral_no_longer_delays_independent_batch() {
    let deep = CompoundName::parse_path("/h1/h2/h3/leaf").unwrap();
    let warm = CompoundName::parse_path("/warm").unwrap();

    // Baseline: the warm batch alone on the degraded world.
    let (mut w, svc, machines, root) = skewed_world();
    w.set_link_up(machines[0], machines[3], false);
    let client = w.spawn(machines[0], "client", None);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy::default()));
    let mut alone = PipelinedService::new(engine, 1);
    alone.submit(&mut w, client, root, std::slice::from_ref(&warm));
    let baseline = alone.drain(&mut w)[0].clone();
    assert!(!baseline.unreachable[0]);
    assert!(baseline.entities[0].is_defined());

    // The same warm batch admitted behind the stalled deep batch.
    let (mut w, svc, machines, root) = skewed_world();
    w.set_link_up(machines[0], machines[3], false);
    let client = w.spawn(machines[0], "client", None);
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy::default()));
    let mut svc = PipelinedService::new(engine, 1);
    svc.submit(&mut w, client, root, std::slice::from_ref(&deep));
    svc.submit(&mut w, client, root, std::slice::from_ref(&warm));
    let answers = svc.drain(&mut w);

    // The deep batch burned its retry budget into a transport verdict...
    assert!(answers[0].unreachable[0], "deep batch should stall out");
    // ...while the warm batch's completion tick is exactly its
    // standalone tick: the stall cost it nothing.
    assert_eq!(answers[1].entities, baseline.entities);
    assert_eq!(
        answers[1].completed_at, baseline.completed_at,
        "warm batch inherited the stalled batch's delay"
    );
    assert!(
        answers[1].completed_at < answers[0].completed_at,
        "warm batch must finish long before the stalled one"
    );

    // Contrast: the blocking thread-per-batch model serializes the two,
    // so the warm answer waits out the entire retry stall.
    let (mut w, svc, machines, root) = skewed_world();
    w.set_link_up(machines[0], machines[3], false);
    let client = w.spawn(machines[0], "client", None);
    let mut blocking = ProtocolEngine::new(svc);
    blocking.set_retry_policy(Some(RetryPolicy::default()));
    let a = blocking
        .resolve_batch(&mut w, client, root, std::slice::from_ref(&deep))
        .clone();
    let b = blocking.resolve_batch(&mut w, client, root, std::slice::from_ref(&warm));
    assert!(a.unreachable[0]);
    let blocking_warm_tick = a.latency.ticks() + b.latency.ticks();
    assert!(
        answers[1].completed_at.ticks() < blocking_warm_tick,
        "pipelined warm completion ({}) must beat the serialized pool's ({})",
        answers[1].completed_at.ticks(),
        blocking_warm_tick
    );
}

/// A fresh chaos world in which the answer to the first request a fresh
/// engine sends (it numbers requests from 1) is `outcomes`: the forged
/// reply is on its way before the request goes out, so it lands ahead of
/// the server's own answer, which then finds nothing waiting for it.
fn world_answering_first_request_with(
    outcomes: Vec<Outcome>,
) -> (
    World,
    ProtocolEngine,
    ActivityId,
    ObjectId,
    Vec<CompoundName>,
) {
    let (mut w, svc, machines, client, start, names, _s, _z) = chaos_zones(HOPS, LEAVES, SEED, 1);
    let forged = BatchReply {
        id: 1,
        outcomes,
        servers_touched: 1,
        lookups_saved: 0,
    };
    let server = svc.server_on(machines[0]);
    w.send(server, client, vec![Payload::Bytes(forged.encode())]);
    (w, ProtocolEngine::new(svc), client, start, names)
}

/// A reply with fewer outcomes than queries leaves the unanswered slots
/// with a transport verdict in both drivers, and a lease-mode cache on top
/// records nothing for them — the next resolve asks again and is answered.
#[test]
fn short_reply_is_a_transport_verdict_in_every_driver() {
    let two = |names: &[CompoundName]| names[..2].to_vec();

    let (mut w, mut engine, client, start, names) = world_answering_first_request_with(vec![]);
    let got = engine.resolve_batch(&mut w, client, start, &two(&names));
    assert_eq!(got.entities, vec![Entity::Undefined; 2]);
    assert_eq!(got.unreachable, vec![true, true], "blocking driver");

    let (mut w, engine, client, start, names) = world_answering_first_request_with(vec![]);
    let mut svc = PipelinedService::new(engine, 2);
    svc.submit(&mut w, client, start, &two(&names));
    let got = svc.drain(&mut w)[0].clone();
    assert_eq!(got.entities, vec![Entity::Undefined; 2]);
    assert_eq!(got.unreachable, vec![true, true], "pipelined driver");

    let (mut w, engine, client, start, names) = world_answering_first_request_with(vec![]);
    let lease = CoherenceMode::Lease { ttl: None };
    let mut cache = CachingResolver::with_mode(engine, 64, lease);
    let got = cache.resolve_batch(&mut w, client, start, &two(&names));
    assert_eq!(got.entities, vec![Entity::Undefined; 2]);
    assert_eq!(cache.negative_stats().recorded, 0, "cached a false ⊥");
    let again = cache.resolve_batch(&mut w, client, start, &two(&names));
    assert_eq!(again.from_cache, vec![false, false]);
    assert!(again.entities.iter().all(|e| e.is_defined()));
}

/// A referral may only leave a nonempty proper rest of the name that was
/// sent. One that leaves nothing (`remaining == 0`), everything or more
/// (`remaining ≥ asked`) names something the client never asked, and is
/// followed by no driver, like a reply with no outcome at all: the slot
/// ends `Unreachable` within the round bound, nothing panics, no referral
/// hop is reported, and a lease-mode cache on top records no ⊥.
#[test]
fn hostile_referrals_are_never_followed() {
    let (_w, _svc, machines, _c, _start, names, _s, zones) = chaos_zones(HOPS, LEAVES, SEED, 1);
    let name = names[0].clone();
    let asked = u16::try_from(name.len()).unwrap();
    let referral = |remaining| Outcome::Referral {
        next_machine: machines[1],
        next_ctx: zones[1],
        remaining,
    };
    let replies = [
        vec![referral(0)],
        vec![referral(asked)],
        vec![referral(asked + 1)],
        vec![referral(u16::MAX)],
        vec![],
    ];
    for outcomes in replies {
        let hostile = || world_answering_first_request_with(outcomes.clone());
        let bound = name.len() as u32 + 1;

        let (mut w, mut engine, client, start, _) = hostile();
        let got = engine.resolve_batch(&mut w, client, start, std::slice::from_ref(&name));
        assert_eq!(
            (got.entities[0], got.unreachable[0]),
            (Entity::Undefined, true)
        );
        assert!(got.rounds <= bound && got.referrals.is_empty());

        let (mut w, engine, client, start, _) = hostile();
        let mut svc = PipelinedService::new(engine, 1);
        svc.submit(&mut w, client, start, std::slice::from_ref(&name));
        let got = svc.drain(&mut w)[0].clone();
        assert_eq!(
            (got.entities[0], got.unreachable[0]),
            (Entity::Undefined, true)
        );
        assert!(got.rounds <= bound && got.referrals.is_empty());

        let (mut w, mut engine, client, start, _) = hostile();
        let (got, hops) = engine.resolve_traced(&mut w, client, start, &name, Mode::Iterative);
        assert_eq!((got.entity, got.unreachable), (Entity::Undefined, true));
        assert!(hops.is_empty());

        let (mut w, engine, client, start, _) = hostile();
        let lease = CoherenceMode::Lease { ttl: None };
        let mut cache = CachingResolver::with_mode(engine, 64, lease);
        let (got, cached) = cache.resolve(&mut w, client, start, &name, Mode::Iterative);
        assert_eq!((got, cached), (Entity::Undefined, false));
        assert_eq!(cache.negative_stats().recorded, 0, "cached a false ⊥");
        assert_eq!(
            cache.referral_stats().recorded,
            0,
            "remembered a hostile hop"
        );
        let (again, cached) = cache.resolve(&mut w, client, start, &name, Mode::Iterative);
        assert!(again.is_defined() && !cached, "the next resolve asks again");
    }
}

/// Structure-aware mutation of a valid reply: the hub's own answer to a
/// batch holding a resolved name, an unbound one, referred ones and a
/// duplicate, with every byte overwritten four ways and the frame cut at
/// every length, forged as the first reply the client hears. A frame that
/// no longer decodes, or no longer bears the request's id, changes
/// nothing. Otherwise every slot is exactly what the frame's own outcome
/// for its query says — that entity, that ⊥ — or, where the frame has no
/// outcome for it or a referral that leaves no proper rest of the name,
/// `Unreachable`: never a ⊥ the frame did not state, never a hop outside
/// the name, in either driver, and nothing panics.
#[test]
fn mutated_replies_fold_into_stated_answers_or_unreachable() {
    let (w, svc, machines, _c, start, leaves, _s, _z) = chaos_zones(HOPS, LEAVES, SEED, 1);
    let path = |p: &str| CompoundName::parse_path(p).unwrap();
    let names = vec![
        leaves[0].clone(),
        path("/zone"),
        path("/zone/no-such-leaf"),
        leaves[1].clone(),
        leaves[0].clone(),
    ];
    // The request as the continuation builds it: riders in suffix order.
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&slot| (names[slot].clone(), slot));
    let sorted: Vec<CompoundName> = order.iter().map(|&slot| names[slot].clone()).collect();
    let (trie, ids) = NameTrie::build(&sorted);
    let mut query = vec![0; names.len()];
    for (&slot, &q) in order.iter().zip(&ids) {
        query[slot] = q as usize;
    }
    let (outcomes, lookups_saved) = svc.local_resolve_batch(&w, machines[0], start, &trie);
    let kinds = |o: &Outcome| std::mem::discriminant(o);
    assert!(outcomes.iter().any(|o| matches!(o, Outcome::Resolved(_))));
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, Outcome::Referral { .. })));
    assert!(outcomes
        .iter()
        .any(|o| kinds(o) == kinds(&Outcome::NotFound)));
    let honest = BatchReply {
        id: 1,
        outcomes,
        servers_touched: 1,
        lookups_saved,
    }
    .encode();

    let run = |frame: Option<&[u8]>, pipelined: bool| {
        let (mut w, svc, machines, client, start, ..) = chaos_zones(HOPS, LEAVES, SEED, 1);
        if let Some(frame) = frame {
            let server = svc.server_on(machines[0]);
            w.send(server, client, vec![Payload::bytes(frame)]);
        }
        let engine = ProtocolEngine::new(svc);
        if pipelined {
            let mut svc = PipelinedService::new(engine, 1);
            svc.submit(&mut w, client, start, &names);
            let got = svc.drain(&mut w)[0].clone();
            (got.entities, got.unreachable, got.referrals, got.rounds)
        } else {
            let mut engine = engine;
            let got = engine.resolve_batch(&mut w, client, start, &names).clone();
            (got.entities, got.unreachable, got.referrals, got.rounds)
        }
    };
    let clean = run(None, false);
    assert_eq!(clean, run(None, true));
    assert_eq!(clean, run(Some(&honest), false), "the honest frame");

    let mut frames: Vec<Vec<u8>> = (0..honest.len())
        .map(|cut| honest[..cut].to_vec())
        .collect();
    for at in 0..honest.len() {
        for byte in [honest[at] ^ 1, honest[at] ^ 0x80, 0, 0xff] {
            let mut frame = honest.to_vec();
            frame[at] = byte;
            frames.push(frame);
        }
    }
    let (mut refused, mut folded) = (0, 0);
    for frame in &frames {
        let stated = BatchReply::decode(frame[..].into()).filter(|reply| reply.id == 1);
        for pipelined in [false, true] {
            let got = run(Some(frame), pipelined);
            let Some(stated) = &stated else {
                assert_eq!(got, clean, "an unreadable frame changed an answer");
                refused += 1;
                continue;
            };
            folded += 1;
            let (entities, unreachable, hops, rounds) = got;
            assert!(rounds <= names.iter().map(CompoundName::len).max().unwrap() as u32 + 1);
            for (slot, name) in names.iter().enumerate() {
                let answer = (entities[slot], unreachable[slot]);
                match stated.outcomes.get(query[slot]) {
                    Some(Outcome::Resolved(e)) => assert_eq!(answer, (*e, false)),
                    Some(Outcome::NotFound | Outcome::WrongServer) => {
                        assert_eq!(answer, (Entity::Undefined, false))
                    }
                    // Followed: what the next servers say is theirs to say.
                    Some(Outcome::Referral { remaining, .. })
                        if (1..name.len()).contains(&usize::from(*remaining)) => {}
                    _ => assert_eq!(answer, (Entity::Undefined, true), "slot {slot}"),
                }
            }
            for hop in &hops {
                assert!((1..names[hop.slot].len()).contains(&hop.consumed));
            }
        }
    }
    assert!(
        refused > 100 && folded > 100,
        "{refused} refused, {folded} folded"
    );
}
