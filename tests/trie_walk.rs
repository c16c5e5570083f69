//! One trie, one walk: every consumer of a [`NameTrie`] is a visitor of
//! `NameTrie::walk`, and each must agree with the per-name rule it batches.
//!
//! * the worker pool ≡ `Resolver::resolve_entity`, name by name, over
//!   random tries — duplicates, unbound leaves, paths through a data
//!   object and through an activity, a name deeper than the depth limit,
//!   the empty trie — at 1, 2 and 5 workers;
//! * the protocol — blocking iterative and recursive, `resolve_batch`,
//!   `PipelinedService` — answers a name past the depth limit `⊥` too, and
//!   so does a name server sent the request frame directly;
//! * `NameService::local_resolve_batch` ≡ `local_resolve`, name by name,
//!   on a world with a referral, a local replica, an unplaced zone and a
//!   file in mid-path, saving exactly the lookups it saved before the walk
//!   moved into the kernel; a reply lists the zones read in the order the
//!   depth-first walk entered them, and the pool makes exactly the lookups
//!   it made;
//! * a fixed request set — that world's names, the depth limit, labels
//!   never interned, 64 names across four zones of one server — gives the
//!   reply frames and pool entities the one-pass depth-first walk gave,
//!   now that the walk resolves a depth at a time before it reports;
//! * the flat trie encodes to the bytes the per-node-`Vec` trie did;
//! * a frame that lies about its counts — under either request tag, or a
//!   recursive one asking other than one name — is refused at every door:
//!   the decoder, `ConcurrentService::submit_frame`, a name server's
//!   mailbox, before anything sizes a vector by what it claims;
//! * labels that name nothing are answered `⊥` at the same doors, and past
//!   a referral a recursive request is forwarded across, and are never
//!   interned;
//! * what the wire's fields cannot carry — a label past 16 bits of length,
//!   a trie node with more children than a 16-bit count — is unreachable
//!   in every driver and every cache, never `⊥` and never cached, with no
//!   request sent; an authority sends no zone frame it cannot carry.
//!
//! Run with debug assertions and overflow checks live, as `cargo test`
//! builds it: a decode that sized anything by an unchecked count aborts.

use bytes::Bytes;
use naming_core::prelude::*;
use naming_core::resolve::DEFAULT_DEPTH_LIMIT;
use naming_resolver::cache::CachingResolver;
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchReply, BatchRequest, Mode, NameTrie, Outcome};
use naming_sim::message::Payload;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;
use proptest::prelude::*;

fn path(p: &str) -> CompoundName {
    CompoundName::parse_path(p).unwrap()
}

/// `/` → root; under it contexts `a` (holding `a`, `b`, `f`) and `b`, a
/// data object `f`, an activity `p`, and `loop` — a context bound to
/// itself, so a name can be made as deep as it likes — holding `x`.
fn pool_state() -> (SystemState, ObjectId) {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    let (a, aa, b, lp) = (
        s.add_context_object("a"),
        s.add_context_object("a/a"),
        s.add_context_object("b"),
        s.add_context_object("loop"),
    );
    let (f, x) = (
        s.add_data_object("f", vec![]),
        s.add_data_object("x", vec![]),
    );
    let p = s.add_activity("p");
    for (ctx, name, to) in [
        (root, "/", Entity::Object(root)),
        (root, "a", Entity::Object(a)),
        (root, "b", Entity::Object(b)),
        (root, "f", Entity::Object(f)),
        (root, "p", Entity::Activity(p)),
        (root, "loop", Entity::Object(lp)),
        (a, "a", Entity::Object(aa)),
        (a, "b", Entity::Object(b)),
        (a, "f", Entity::Object(f)),
        (aa, "x", Entity::Object(x)),
        (b, "p", Entity::Activity(p)),
        (lp, "loop", Entity::Object(lp)),
        (lp, "x", Entity::Object(x)),
    ] {
        s.bind(ctx, Name::new(name), to).unwrap();
    }
    (s, root)
}

/// `depth` components: `loop` all the way down, then `x`.
fn deep(depth: usize) -> CompoundName {
    let mut comps = vec![Name::new("loop"); depth - 1];
    comps.push(Name::new("x"));
    CompoundName::new(comps).unwrap()
}

fn pool_answers(state: &SystemState, start: ObjectId, names: &[CompoundName], workers: usize) {
    let oracle = Resolver::new();
    let (trie, mapping) = NameTrie::build(names);
    let mut svc = ConcurrentService::new(state.clone(), workers);
    // Through the wire both times, so the decoded trie is what is walked.
    for id in 0..3 {
        let frame = BatchRequest {
            id,
            start,
            trie: trie.clone(),
        }
        .encode();
        assert!(svc.submit_frame(frame));
    }
    for answer in svc.drain() {
        assert_eq!(answer.entities.len(), trie.query_count() as usize);
        for (name, &q) in names.iter().zip(&mapping) {
            let expected = oracle.resolve_entity(state, start, name);
            assert_eq!(answer.entities[q as usize], expected, "{name}");
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.queries(), 3 * u64::from(trie.query_count()));
}

#[test]
fn pool_honours_the_depth_limit_and_the_empty_trie() {
    let (state, root) = pool_state();
    let oracle = Resolver::new();
    let (at, over) = (deep(DEFAULT_DEPTH_LIMIT), deep(DEFAULT_DEPTH_LIMIT + 1));
    // The limit is on the name's length, not on where the walk stands: the
    // longest legal name resolves, one component more is ⊥, and a short
    // name sharing their prefix is untouched.
    assert!(oracle.resolve_entity(&state, root, &at).is_defined());
    assert!(!oracle.resolve_entity(&state, root, &over).is_defined());
    for workers in [1, 2, 5] {
        pool_answers(&state, root, &[at.clone(), over.clone(), deep(3)], workers);
        pool_answers(&state, root, &[], workers);
    }
}

/// The protocol answers the deep names as the pool does: the longest legal
/// name resolves, one component more is `⊥` — authoritative, not a lost
/// exchange — in every driver and both modes, on a one-machine world
/// whose `loop` is bound to itself.
#[test]
fn protocol_honours_the_depth_limit() {
    let mut w = World::new(7);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    let lp = store::ensure_dir(w.state_mut(), root, "loop");
    store::attach(w.state_mut(), lp, "loop", lp, false);
    store::create_file(w.state_mut(), lp, "x", vec![]);
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let client = w.spawn(m, "client", None);
    let mut engine = ProtocolEngine::new(svc);

    let names = [
        deep(DEFAULT_DEPTH_LIMIT),
        deep(DEFAULT_DEPTH_LIMIT + 1),
        deep(3),
    ];
    let oracle = Resolver::new();
    let expected: Vec<Entity> = names
        .iter()
        .map(|n| oracle.resolve_entity(w.state(), root, n))
        .collect();
    assert!(expected[0].is_defined() && expected[2].is_defined());
    assert_eq!(expected[1], Entity::Undefined);
    for mode in [Mode::Iterative, Mode::Recursive] {
        for (name, &want) in names.iter().zip(&expected) {
            let got = engine.resolve(&mut w, client, root, name, mode);
            assert_eq!((got.entity, got.unreachable), (want, false), "{mode:?}");
        }
    }
    let batch = engine.resolve_batch(&mut w, client, root, &names);
    assert_eq!(batch.entities, expected);
    assert_eq!(batch.unreachable, [false; 3]);
    let mut pipelined = PipelinedService::new(engine, 2);
    pipelined.submit(&mut w, client, root, &names);
    let answer = pipelined.drain(&mut w).last().unwrap().clone();
    assert_eq!(answer.entities, expected);
    assert_eq!(answer.unreachable, [false; 3]);
}

/// The limit holds at the server too: sent straight to a name server's
/// mailbox under either request tag, the name at the limit resolves and the
/// one a component past it is `NotFound`.
#[test]
fn name_servers_honour_the_depth_limit() {
    let mut w = World::new(7);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    let lp = store::ensure_dir(w.state_mut(), root, "loop");
    store::attach(w.state_mut(), lp, "loop", lp, false);
    store::create_file(w.state_mut(), lp, "x", vec![]);
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let server = svc.server_on(m);
    let stranger = w.spawn(m, "stranger", None);
    let mut engine = ProtocolEngine::new(svc);

    for (id, depth) in [(0, DEFAULT_DEPTH_LIMIT), (1, DEFAULT_DEPTH_LIMIT + 1)] {
        let labels = [&["loop"].repeat(depth - 1)[..], &["x"]].concat();
        for tag in [1, 4] {
            let frame = chain_frame(tag, id, root, &labels);
            w.send(stranger, server, vec![Payload::Bytes(frame)]);
        }
    }
    engine.pump_idle(&mut w);
    let mut answers = Vec::new();
    while let Some(msg) = w.receive(stranger) {
        let Payload::Bytes(b) = &msg.parts[0] else {
            panic!("a reply carries a frame");
        };
        let reply = BatchReply::decode(b.clone()).expect("a reply frame");
        answers.push((reply.id, reply.outcomes));
    }
    answers.sort_by_key(|&(id, _)| id);
    let [(0, at), (0, at_again), (1, over), (1, over_again)] = &answers[..] else {
        panic!("one reply per request: {answers:?}");
    };
    assert!(matches!(at[..], [Outcome::Resolved(e)] if e.is_defined()));
    assert_eq!(at, at_again);
    assert_eq!(over, &[Outcome::NotFound]);
    assert_eq!(over, over_again);
}

/// One machine holding `/d/f0`, served and placed there, an engine over it
/// and a client beside it.
fn wide_world() -> (World, ProtocolEngine, ActivityId, ObjectId) {
    let mut w = World::new(7);
    let net = w.add_network("n");
    let m = w.add_machine("m", net);
    let root = w.machine_root(m);
    let d = store::ensure_dir(w.state_mut(), root, "d");
    store::create_file(w.state_mut(), d, "f0", vec![]);
    let mut svc = NameService::install(&mut w, &[m]);
    svc.place_subtree(&w, root, m);
    let client = w.spawn(m, "client", None);
    (w, ProtocolEngine::new(svc), client, root)
}

/// `names`, resolved from `/` of a fresh `wide_world()` through every
/// driver — blocking, pipelined, and a cache in exact and in lease mode —
/// are each unreachable: ⊥ flagged as a transport verdict, no request sent,
/// nothing cached.
fn wider_than_the_wire_in_every_driver(names: &[CompoundName]) {
    let n = names.len();
    let (mut w, mut engine, client, root) = wide_world();
    let got = engine.resolve_batch(&mut w, client, root, names).clone();
    assert_eq!(got.entities, vec![Entity::Undefined; n]);
    assert_eq!(
        (got.unreachable, got.messages),
        (vec![true; n], 0),
        "blocking"
    );

    let (mut w, engine, client, root) = wide_world();
    let mut svc = PipelinedService::new(engine, 2);
    svc.submit(&mut w, client, root, names);
    let got = svc.drain(&mut w)[0].clone();
    assert_eq!(got.entities, vec![Entity::Undefined; n]);
    assert_eq!(
        (got.unreachable, got.messages),
        (vec![true; n], 0),
        "pipelined"
    );

    for mode in [CoherenceMode::Exact, CoherenceMode::Lease { ttl: None }] {
        let (mut w, engine, client, root) = wide_world();
        let mut cache = CachingResolver::with_mode(engine, 64, mode);
        let got = cache.resolve_batch(&mut w, client, root, names);
        assert_eq!(got.entities, vec![Entity::Undefined; n], "{mode:?}");
        assert_eq!((got.messages, cache.len()), (0, 0), "{mode:?}");
        assert_eq!(cache.negative_stats().recorded, 0, "{mode:?}: a false ⊥");
    }
}

/// `/d/f0 … /d/f69999` share one exchange whose trie node `d` has more
/// children than its 16-bit count can say: the exchange gives up its riders.
#[test]
fn a_trie_wider_than_the_wire_is_unreachable_in_every_driver() {
    let names: Vec<CompoundName> = (0..70_000).map(|i| path(&format!("/d/f{i}"))).collect();
    wider_than_the_wire_in_every_driver(&names);
    // As many as the count can say are carried, and answered.
    let (mut w, mut engine, client, root) = wide_world();
    let got = engine.resolve_batch(&mut w, client, root, &names[..usize::from(u16::MAX)]);
    assert!(got.entities[0].is_defined());
    assert!(!got.unreachable.contains(&true));
}

/// A label longer than its 16-bit length field is marked unreachable before
/// any request goes out, and the rest of its batch is resolved as usual.
#[test]
fn a_label_wider_than_the_wire_is_unreachable_in_every_driver() {
    let long = Name::new(&"x".repeat(70_000));
    let name = CompoundName::new([Name::root(), Name::new("d"), long]).unwrap();
    wider_than_the_wire_in_every_driver(std::slice::from_ref(&name));
    let (mut w, mut engine, client, root) = wide_world();
    let got = engine.resolve_batch(&mut w, client, root, &[name, path("/d/f0")]);
    assert_eq!(got.unreachable, [true, false]);
    assert!(got.entities[1].is_defined());
}

/// Binding a label no zone frame can carry leaves the authority unable to
/// publish or answer for the zone: it sends nothing, so `publish_zone`
/// counts no update and a lease-mode `sync` returns `None`, as for a lost
/// exchange.
#[test]
fn an_authority_sends_no_zone_frame_wider_than_the_wire() {
    let mut w = World::new(7);
    let net = w.add_network("n");
    let (m, m2) = (w.add_machine("m", net), w.add_machine("m2", net));
    let root = w.machine_root(m);
    let d = store::ensure_dir(w.state_mut(), root, "d");
    let mut svc = NameService::install(&mut w, &[m, m2]);
    svc.place_subtree(&w, root, m);
    svc.replicate_zone(&mut w, d, m2);
    let client = w.spawn(m, "client", None);
    let lease = CoherenceMode::Lease { ttl: None };
    let mut cache = CachingResolver::with_mode(ProtocolEngine::new(svc), 64, lease);
    assert!(cache.sync(&mut w, client, m).is_some());
    assert_eq!(cache.engine_mut().publish_zone(&mut w, d), 1);

    let long = Name::new(&"x".repeat(70_000));
    let engine = cache.engine_mut();
    let bound = engine.publish_binding(&mut w, d, long, Some(Entity::Object(root)));
    assert!(bound.is_some());
    let sent = w.trace().counter("sent");
    assert_eq!(engine.publish_zone(&mut w, d), 0);
    assert!(cache.sync(&mut w, client, m).is_none());
    assert_eq!(
        w.trace().counter("sent"),
        sent + 1,
        "only the pull went out"
    );
}

proptest! {
    #[test]
    fn pool_equals_resolve_entity_over_random_tries(
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..6),
            0..24,
        ),
        workers in 0usize..3,
    ) {
        const ALPHABET: [&str; 8] = ["/", "a", "b", "f", "p", "x", "loop", "nope"];
        let (state, root) = pool_state();
        let names: Vec<CompoundName> = raw
            .iter()
            .map(|ix| CompoundName::new(ix.iter().map(|&i| Name::new(ALPHABET[i]))).unwrap())
            .collect();
        pool_answers(&state, root, &names, [1, 2, 5][workers]);
    }
}

/// Zones `m1` holds besides its root's: `/z0`…`/z3`, each in a shard of
/// its own, each holding directories `d0`…`d3` of files `f0`…`f3`.
const ZONES: usize = 4;

/// `m1` serves `/usr`; `/usr/remote` is `m2`'s export (a referral),
/// `/usr/mirror` is `m3`'s export replicated onto `m1` (stays local),
/// `/orphan` is a context nobody was placed for, `/usr/motd` is a file,
/// `/loop` is bound to itself, and `/z0`…`/z3` are [`ZONES`] of `m1`'s
/// own. `m1`'s tree is shard 0, the exports shards 1 and 2, the zones
/// shards 3 on.
fn referral_world() -> (World, NameService, MachineId, ObjectId) {
    let mut w = World::with_shards(61, 3 + ZONES);
    let net = w.add_network("n");
    let [m1, m2, m3] = ["m1", "m2", "m3"].map(|m| w.add_machine(m, net));
    let root1 = w.machine_root(m1);
    let usr = store::ensure_dir(w.state_mut(), root1, "usr");
    store::create_file(w.state_mut(), usr, "motd", vec![]);
    let lp = store::ensure_dir(w.state_mut(), root1, "loop");
    store::attach(w.state_mut(), lp, "loop", lp, false);
    store::create_file(w.state_mut(), lp, "x", vec![]);
    let mut exports = Vec::new();
    for (shard, (m, graft)) in (1..).zip([(m2, "remote"), (m3, "mirror")]) {
        w.state_mut().set_default_shard(shard);
        let root = w.machine_root(m);
        let export = store::ensure_dir(w.state_mut(), root, "export");
        store::create_file(w.state_mut(), export, "data", vec![]);
        let sub = store::ensure_dir(w.state_mut(), export, "a");
        store::create_file(w.state_mut(), sub, "x", vec![]);
        store::attach(w.state_mut(), usr, graft, export, false);
        exports.push(export);
    }
    for z in 0..ZONES {
        w.state_mut().set_default_shard(3 + z);
        let zone = store::ensure_dir(w.state_mut(), root1, &format!("z{z}"));
        for d in 0..4 {
            let dir = store::ensure_dir(w.state_mut(), zone, &format!("d{d}"));
            for f in 0..4 {
                store::create_file(w.state_mut(), dir, &format!("f{f}"), vec![]);
            }
        }
    }
    w.state_mut().set_default_shard(0);
    let mut svc = NameService::install(&mut w, &[m1, m2, m3]);
    for m in [m3, m2, m1] {
        let root = w.machine_root(m);
        svc.place_subtree(&w, root, m);
    }
    svc.replicate_zone(&mut w, exports[1], m1);
    let orphan = w.state_mut().add_context_object("orphan");
    w.state_mut()
        .bind(root1, Name::new("orphan"), orphan)
        .unwrap();
    (w, svc, m1, root1)
}

/// Sends each frame to `server`'s mailbox in turn and returns the replies'
/// bytes, in order.
fn served_by(
    w: &mut World,
    engine: &mut ProtocolEngine,
    server: ActivityId,
    frames: &[Bytes],
) -> Vec<Bytes> {
    let stranger = w.spawn(w.machine_of(server), "stranger", None);
    frames
        .iter()
        .map(|frame| {
            w.send(stranger, server, vec![Payload::Bytes(frame.clone())]);
            engine.pump_idle(w);
            let reply = w.receive(stranger).expect("every request is answered");
            let Payload::Bytes(b) = &reply.parts[0] else {
                panic!("a reply carries a frame");
            };
            b.clone()
        })
        .collect()
}

/// The zones a reply frame states its walk read, in the order it states
/// them: what follows the outcomes, which the frame re-encoded with no
/// zones (a two-byte empty list) ends with.
fn zones_read(reply: &Bytes) -> Vec<(u16, u64)> {
    let bare = BatchReply::decode(reply.clone()).unwrap().encode();
    let mut tail = &reply[bare.len() - 2..];
    let mut take = |n: usize| {
        let (head, rest) = tail.split_at(n);
        tail = rest;
        head.iter().fold(0u64, |v, &b| v << 8 | u64::from(b))
    };
    let count = take(2);
    let reads = (0..count).map(|_| (take(2) as u16, take(8))).collect();
    assert!(tail.is_empty(), "the zones end the frame");
    reads
}

#[test]
fn batch_walk_equals_the_single_walk_and_saves_what_it_saved() {
    let (mut w, svc, m1, root1) = referral_world();
    let names: Vec<CompoundName> = [
        "/usr/motd",
        "/usr/motd/through-a-file",
        "/usr/remote/data",
        "/usr/remote/a/x",
        "/usr/remote/a/y/z",
        "/usr/remote/a",
        "/usr/remote",
        "/usr/mirror/data",
        "/usr/mirror/a/x",
        "/usr/mirror/nope/deeper",
        "/usr/motd", // duplicate
        "/orphan/x",
        "/orphan/y/z",
        "/orphan",
        "/missing",
        "/missing/below",
        "usr/motd", // a second root: relative, through `.`
    ]
    .map(path)
    .to_vec();
    let (trie, mapping) = NameTrie::build(&names);
    let (outcomes, saved) = svc.local_resolve_batch(&w, m1, root1, &trie);
    let mut kinds = [0; 4];
    for (name, &q) in names.iter().zip(&mapping) {
        let single = svc.local_resolve(&w, m1, root1, name);
        assert_eq!(outcomes[q as usize], single, "{name}");
        kinds[match single {
            Outcome::Resolved(_) => 0,
            Outcome::Referral { .. } => 1,
            Outcome::NotFound => 2,
            _ => 3,
        }] += 1;
    }
    assert_eq!(kinds, [5, 5, 5, 2], "resolved, referred, ⊥, unreachable");
    assert_eq!(saved, SAVED_AT_PARENT);

    // With two of `m1`'s own zones asked after them, the server states the
    // zones it read in the order its walk first entered them — depth first:
    // the mirror, entered three components down under `/usr`, before `/z2`
    // and `/z1`, entered two down — each once.
    let zoned = [
        &names[..],
        &["/z2/d1/f0", "/z1/d3/f3", "/z2/d0/f9"].map(path),
    ]
    .concat();
    let (trie, _) = NameTrie::build(&zoned);
    let frame = BatchRequest {
        id: 1,
        start: root1,
        trie: trie.clone(),
    }
    .encode();
    let mut pool = ConcurrentService::new(w.state().clone(), 1);
    let server = svc.server_on(m1);
    let mut engine = ProtocolEngine::new(svc);
    let reply = &served_by(&mut w, &mut engine, server, &[frame])[0];
    let shards: Vec<u16> = zones_read(reply).iter().map(|&(z, _)| z).collect();
    assert_eq!(shards, [0, 2, 3 + 2, 3 + 1]);
    // The pool goes on everywhere — past the referral, into the orphan —
    // and makes exactly the lookups it made before.
    pool.submit(BatchRequest {
        id: 2,
        start: root1,
        trie,
    });
    pool.drain();
    let report = pool.shutdown();
    let lookups = report.workers.iter().map(|r| (r.lookups, r.lookups_saved));
    let lookups = lookups.fold((0, 0), |(l, s), (a, b)| (l + a, s + b));
    assert_eq!(lookups, POOL_LOOKUPS_AT_PARENT);
}

/// The pool's lookups and lookups saved on the zoned batch above, as the
/// parent commit's one-pass depth-first walk made them.
const POOL_LOOKUPS_AT_PARENT: (u64, u64) = (26, 39);

/// A fixed request set — the batch above with names at and past the depth
/// limit; 64 names across `m1`'s zones, one in eight unbound; a name with a
/// label never interned; a frame of such labels — answered by `m1`'s name
/// server and by the worker pool: the FNV-1a of the server's reply frames
/// (outcomes, lookups saved and zones read, in order) and of the pool's
/// entities are what the parent commit's one-pass depth-first walk gave.
#[test]
fn a_fixed_request_set_is_answered_as_the_one_pass_walk_answered_it() {
    let (mut w, svc, m1, root1) = referral_world();
    let mut mixed: Vec<CompoundName> = [
        "/usr/motd",
        "/usr/motd/through-a-file",
        "/usr/remote/data",
        "/usr/remote/a/x",
        "/usr/remote/a/y/z",
        "/usr/mirror/data",
        "/usr/mirror/a/x",
        "/usr/mirror/nope/deeper",
        "/orphan/x",
        "/missing/below",
        "usr/motd",
        "/z3/d3",
    ]
    .map(path)
    .to_vec();
    mixed.extend([deep(DEFAULT_DEPTH_LIMIT), deep(DEFAULT_DEPTH_LIMIT + 1)]);
    let grid: Vec<CompoundName> = (0..64)
        .map(|i| {
            let f = if i % 8 == 7 { 9 } else { i * 7 % 4 };
            path(&format!("/z{}/d{}/f{f}", i * 3 % ZONES, i * 5 % 4))
        })
        .collect();
    let request = |id, names: &[CompoundName]| {
        let (trie, _) = NameTrie::build(names);
        BatchRequest {
            id,
            start: root1,
            trie,
        }
        .encode()
    };
    let garbage: Vec<String> = (0..5).map(|i| format!("pin-garbage-{i}")).collect();
    let frames = [
        request(0, &mixed),
        request(1, &grid),
        chain_frame(4, 2, root1, &["/", "z1", "pin-never-interned"]),
        garbage_frame(3, root1, &garbage),
    ];

    let mut pool = ConcurrentService::new(w.state().clone(), 2);
    let server = svc.server_on(m1);
    let mut engine = ProtocolEngine::new(svc);
    let replies = served_by(&mut w, &mut engine, server, &frames);
    assert_eq!(
        zones_read(&replies[1]).len(),
        1 + ZONES,
        "the root's and each zone"
    );
    for frame in frames {
        assert!(pool.submit_frame(frame));
    }
    let entities: Vec<Vec<Entity>> = pool.drain().iter().map(|a| a.entities.clone()).collect();
    pool.shutdown();
    let digests = (
        fnv(&replies.iter().flat_map(|r| r.to_vec()).collect::<Vec<u8>>()),
        fnv(format!("{entities:?}").as_bytes()),
    );
    assert_eq!(digests, WALK_DIGESTS_AT_PARENT);
    for label in garbage
        .iter()
        .map(String::as_str)
        .chain(["pin-never-interned"])
    {
        assert_eq!(Name::lookup(label), None, "{label} was interned");
    }
}

/// The digests above at the parent commit: (reply frames, pool entities).
const WALK_DIGESTS_AT_PARENT: (u64, u64) = (320_102_432_230_706_633, 1_273_612_216_881_134_302);

/// `lookups_saved` for the batch above, as the parent commit's hand-rolled
/// walk in `local_resolve_batch` reported it.
const SAVED_AT_PARENT: u32 = 33;

/// FNV-1a, to pin a frame too long to spell out.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn flat_trie_encodes_to_the_bytes_the_nested_trie_did() {
    let small = ["/usr/bin/cc", "/usr/bin/ld", "/etc", "/usr/bin/cc", "rel/é"].map(path);
    let (trie, mapping) = NameTrie::build(&small);
    assert_eq!(mapping, [0, 1, 2, 0, 3]);
    let frame = BatchRequest {
        id: 0x0102_0304_0506_0708,
        start: ObjectId::from_index(7),
        trie,
    }
    .encode();
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, SMALL_FRAME_AT_PARENT);
    // build → encode → decode → encode is a fixed point.
    let decoded = BatchRequest::decode(frame.clone()).unwrap();
    assert_eq!(
        decoded.trie.names(),
        [
            small[0].clone(),
            small[1].clone(),
            small[2].clone(),
            small[4].clone()
        ]
    );
    assert_eq!(decoded.encode(), frame);

    // A yardstick-sized frame: 64 names over a zones × dirs × files grid.
    let grid: Vec<CompoundName> = (0..64u32)
        .map(|i| path(&format!("/z{}/d{}/f{}", i * 7 % 5, i * 11 % 9, i * 13 % 16)))
        .collect();
    let (trie, _) = NameTrie::build(&grid);
    let frame = BatchRequest {
        id: 64,
        start: ObjectId::from_index(0),
        trie,
    }
    .encode();
    assert_eq!((frame.len(), fnv(&frame)), GRID_FRAME_AT_PARENT);
}

/// What the parent commit's `BatchRequest::encode` produced for the same
/// names: the whole small frame, and the grid frame's length and FNV-1a.
const SMALL_FRAME_AT_PARENT: &str = "04010203040506070800000007000000040000000900012f0000020000000100000005000375737200000100000002000362696e0000020000000300000004000263630100000000000000026c640100000001000000036574630100000002000000012e00000100000007000372656c000001000000080002c3a901000000030000000000020000000000000006";
const GRID_FRAME_AT_PARENT: (usize, u64) = (1569, 13_992_137_694_969_286_284);

/// A batch request claiming `query_count` queries and `node_count` nodes
/// with no body at all but an empty root list: 25 bytes.
fn lying_frame(query_count: u32, node_count: u32) -> Bytes {
    let mut frame = vec![4u8]; // the batch-request tag
    frame.extend(7u64.to_be_bytes());
    frame.extend(0u32.to_be_bytes());
    frame.extend(query_count.to_be_bytes());
    frame.extend(node_count.to_be_bytes());
    frame.extend(0u32.to_be_bytes());
    assert_eq!(frame.len(), 25);
    Bytes::from(frame)
}

/// `frame` under the recursive request's tag.
fn recursive(frame: &Bytes) -> Bytes {
    let mut f = frame.to_vec();
    f[0] = 1;
    Bytes::from(f)
}

#[test]
fn a_frame_that_lies_about_its_counts_is_refused_at_every_door() {
    // Had any of these been accepted, the next line of the server would
    // have been `vec![_; query_count]` — 100 GB for the first.
    let mut hostile = vec![
        lying_frame(u32::MAX, 0),
        lying_frame(u32::MAX, u32::MAX),
        lying_frame(1, 0),
        lying_frame(0, u32::MAX),
    ];
    hostile.extend(hostile.iter().map(recursive).collect::<Vec<_>>());
    assert!(BatchRequest::decode(lying_frame(0, 0)).is_some());
    let (state, root) = pool_state();
    // A hole in the query ids: two names, the second one's id erased, the
    // count left at two. Before, every later answer shifted down by one.
    let (trie, _) = NameTrie::build(&[path("/a"), path("/b")]);
    let good = BatchRequest {
        id: 1,
        start: root,
        trie,
    }
    .encode();
    let mut holed = good.to_vec();
    let flag_of_b = holed.len() - (1 + 4 + 2) - (4 + 4);
    assert_eq!(holed[flag_of_b..flag_of_b + 5], [1, 0, 0, 0, 1]);
    holed.drain(flag_of_b + 1..flag_of_b + 5);
    holed[flag_of_b] = 0;
    // And a recursive request chases exactly one name: none, or two, is a
    // lie too — though the same bodies are honest batches.
    let [none, two] = [lying_frame(0, 0), good.clone()].map(|f| recursive(&f));
    hostile.extend([Bytes::from(holed), none, two]);
    let mut pool = ConcurrentService::new(state, 2);
    for frame in &hostile {
        assert!(BatchRequest::decode(frame.clone()).is_none());
        assert!(!pool.submit_frame(frame.clone()));
    }
    assert!(pool.submit_frame(good));
    assert_eq!(pool.drain().len(), 1, "only the honest frame was queued");
    pool.shutdown();

    // A name server's mailbox: the frames are dropped like any other
    // undecodable mail — no reply, no panic, no allocation by their claims.
    // It is the only door a recursive request (`none`, `two`) has: an
    // honest one sent after them is the one answer.
    let (mut w, svc, m1, root1) = referral_world();
    let server = svc.server_on(m1);
    let stranger = w.spawn(m1, "stranger", None);
    for frame in hostile {
        w.send(stranger, server, vec![Payload::Bytes(frame)]);
    }
    let honest = chain_frame(1, 99, root1, &["/", "usr", "motd"]);
    w.send(stranger, server, Payload::Bytes(honest));
    let mut engine = ProtocolEngine::new(svc);
    engine.pump_idle(&mut w);
    assert_eq!(w.mailbox_len(server), 0, "the server read its mail");
    let answer = w.receive(stranger).expect("the honest request is answered");
    let Payload::Bytes(b) = &answer.parts[0] else {
        panic!("a reply carries a frame");
    };
    let reply = BatchReply::decode(b.clone()).expect("a reply frame");
    assert_eq!(reply.id, 99);
    assert!(matches!(reply.outcomes[..], [Outcome::Resolved(e)] if e.is_defined()));
    assert!(w.receive(stranger).is_none(), "and none of the rest");
}

/// A batch request as raw bytes, none of its labels ever passed to
/// `Name::new`: under `/`, one node per label of `garbage` (queries
/// `0..n`, the odd ones ending a level further down, at a known label
/// `usr`), then `usr` itself (query `n`).
fn garbage_frame(id: u64, start: ObjectId, garbage: &[String]) -> Bytes {
    let n = garbage.len() as u32;
    let put_label = |f: &mut Vec<u8>, s: &str| {
        f.extend((s.len() as u16).to_be_bytes());
        f.extend(s.as_bytes());
    };
    let mut f = vec![4u8];
    f.extend(id.to_be_bytes());
    f.extend((start.index() as u32).to_be_bytes());
    let deep = n / 2;
    f.extend((n + 1).to_be_bytes());
    f.extend((1 + n + 1 + deep).to_be_bytes());
    // Node 0: `/`, whose kids are the garbage nodes 1..=n and `usr` (n + 1).
    put_label(&mut f, "/");
    f.push(0);
    f.extend((n as u16 + 1).to_be_bytes());
    (1..=n + 1).for_each(|c| f.extend(c.to_be_bytes()));
    for (i, label) in garbage.iter().enumerate() {
        let i = i as u32;
        put_label(&mut f, label);
        if i % 2 == 1 {
            // No query here: the name goes on to node `n + 2 + i / 2`.
            f.push(0);
            f.extend(1u16.to_be_bytes());
            f.extend((n + 2 + i / 2).to_be_bytes());
        } else {
            f.push(1);
            f.extend(i.to_be_bytes());
            f.extend(0u16.to_be_bytes());
        }
    }
    put_label(&mut f, "usr");
    f.push(1);
    f.extend(n.to_be_bytes());
    f.extend(0u16.to_be_bytes());
    for k in 0..deep {
        put_label(&mut f, "usr");
        f.push(1);
        f.extend((2 * k + 1).to_be_bytes());
        f.extend(0u16.to_be_bytes());
    }
    f.extend(1u32.to_be_bytes());
    f.extend(0u32.to_be_bytes());
    Bytes::from(f)
}

/// A request for the one name `labels` as raw bytes under `tag`, none of
/// its labels passed to `Name::new`: a chain of nodes, the last ending
/// query 0.
fn chain_frame(tag: u8, id: u64, start: ObjectId, labels: &[&str]) -> Bytes {
    let n = labels.len() as u32;
    let mut f = vec![tag];
    f.extend(id.to_be_bytes());
    f.extend((start.index() as u32).to_be_bytes());
    f.extend(1u32.to_be_bytes());
    f.extend(n.to_be_bytes());
    for (i, label) in (1..).zip(labels) {
        f.extend((label.len() as u16).to_be_bytes());
        f.extend(label.as_bytes());
        if i == n {
            f.push(1);
            f.extend(0u32.to_be_bytes());
            f.extend(0u16.to_be_bytes());
        } else {
            f.push(0);
            f.extend(1u16.to_be_bytes());
            f.extend(i.to_be_bytes());
        }
    }
    f.extend(1u32.to_be_bytes());
    f.extend(0u32.to_be_bytes());
    Bytes::from(f)
}

/// A request frame must not grow the authority's interner: 10⁵ labels no
/// context binds, sent to a name server's mailbox (batch frames, and
/// recursive ones whose label the server forwards past a referral) and to
/// the worker pool, are answered `⊥` — the known name beside them
/// resolved — and none of them has been interned afterwards.
#[test]
fn labels_that_name_nothing_are_answered_bottom_and_never_interned() {
    const FRAMES: usize = 1000;
    const PER_FRAME: usize = 100;
    let label = |door: &str, f: usize, i: usize| format!("never-bound-{door}-{f}-{i}");
    let labels = |door: &str, f: usize| -> Vec<String> {
        (0..PER_FRAME).map(|i| label(door, f, i)).collect()
    };

    // A name server's mailbox, batch frames.
    let (mut w, svc, m1, root1) = referral_world();
    let server = svc.server_on(m1);
    let stranger = w.spawn(m1, "stranger", None);
    let mut engine = ProtocolEngine::new(svc);
    for f in 0..FRAMES {
        let frame = garbage_frame(f as u64, root1, &labels("mailbox", f));
        w.send(stranger, server, vec![Payload::Bytes(frame)]);
        // And a recursive request for `/usr/remote/<garbage>`: `m1` refers
        // it to `m2` at the garbage label and forwards that label on.
        let chased = ["/", "usr", "remote", &label("recursive", f, 0)];
        let frame = chain_frame(1, (FRAMES + f) as u64, root1, &chased);
        w.send(stranger, server, vec![Payload::Bytes(frame)]);
    }
    engine.pump_idle(&mut w);
    let (mut batch_replies, mut recursive_replies) = (0, 0);
    while let Some(msg) = w.receive(stranger) {
        let Payload::Bytes(b) = &msg.parts[0] else {
            panic!("a reply carries a frame");
        };
        let reply = BatchReply::decode(b.clone()).expect("a reply frame");
        if reply.id < FRAMES as u64 {
            batch_replies += 1;
            let (last, garbage) = reply.outcomes.split_last().unwrap();
            assert_eq!(garbage.len(), PER_FRAME);
            assert!(garbage.iter().all(|o| *o == Outcome::NotFound));
            assert!(matches!(last, Outcome::Resolved(e) if e.is_defined()));
        } else {
            recursive_replies += 1;
            assert_eq!(reply.outcomes, [Outcome::NotFound]);
            assert_eq!(reply.servers_touched, 2, "answered past the referral");
        }
    }
    assert_eq!((batch_replies, recursive_replies), (FRAMES, FRAMES));

    // The worker pool.
    let mut pool = ConcurrentService::new(w.state().clone(), 2);
    for f in 0..FRAMES {
        assert!(pool.submit_frame(garbage_frame(f as u64, root1, &labels("pool", f))));
    }
    for answer in pool.drain() {
        let (last, garbage) = answer.entities.split_last().unwrap();
        assert_eq!(garbage.len(), PER_FRAME);
        assert!(garbage.iter().all(|e| !e.is_defined()));
        assert!(last.is_defined());
    }
    pool.shutdown();

    for f in 0..FRAMES {
        assert_eq!(Name::lookup(&label("recursive", f, 0)), None);
        for door in ["mailbox", "pool"] {
            for l in labels(door, f) {
                assert_eq!(Name::lookup(&l), None, "{l} was interned");
            }
        }
    }
    assert!(Name::lookup("usr").is_some());
}
