//! One trie, one walk: every consumer of a [`NameTrie`] is a visitor of
//! `NameTrie::walk`, and each must agree with the per-name rule it batches.
//!
//! * the worker pool ≡ `Resolver::resolve_entity`, name by name, over
//!   random tries — duplicates, unbound leaves, paths through a data
//!   object and through an activity, a name deeper than the depth limit,
//!   the empty trie — at 1, 2 and 5 workers;
//! * `NameService::local_resolve_batch` ≡ `local_resolve`, name by name,
//!   on a world with a referral, a local replica, an unplaced zone and a
//!   file in mid-path, saving exactly the lookups it saved before the walk
//!   moved into the kernel;
//! * the flat trie encodes to the bytes the per-node-`Vec` trie did;
//! * a frame that lies about its counts is refused at every door — the
//!   decoder, `ConcurrentService::submit_frame`, a name server's mailbox —
//!   before anything sizes a vector by what it claims;
//! * labels that name nothing are answered `⊥` at the same doors and are
//!   never interned.

use bytes::Bytes;
use naming_core::prelude::*;
use naming_core::resolve::DEFAULT_DEPTH_LIMIT;
use naming_resolver::concurrent::ConcurrentService;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchRequest, Frame, NameTrie, Outcome};
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

/// `m1` serves `/usr`; `/usr/remote` is `m2`'s export (a referral),
/// `/usr/mirror` is `m3`'s export replicated onto `m1` (stays local),
/// `/orphan` is a context nobody was placed for, `/usr/motd` is a file.
fn referral_world() -> (World, NameService, MachineId, ObjectId) {
    let mut w = World::new(61);
    let net = w.add_network("n");
    let [m1, m2, m3] = ["m1", "m2", "m3"].map(|m| w.add_machine(m, net));
    let root1 = w.machine_root(m1);
    let usr = store::ensure_dir(w.state_mut(), root1, "usr");
    store::create_file(w.state_mut(), usr, "motd", vec![]);
    let mut exports = Vec::new();
    for (m, graft) in [(m2, "remote"), (m3, "mirror")] {
        let root = w.machine_root(m);
        let export = store::ensure_dir(w.state_mut(), root, "export");
        store::create_file(w.state_mut(), export, "data", vec![]);
        let sub = store::ensure_dir(w.state_mut(), export, "a");
        store::create_file(w.state_mut(), sub, "x", vec![]);
        store::attach(w.state_mut(), usr, graft, export, false);
        exports.push(export);
    }
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

#[test]
fn batch_walk_equals_the_single_walk_and_saves_what_it_saved() {
    let (w, svc, m1, root1) = referral_world();
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
}

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

#[test]
fn a_frame_that_lies_about_its_counts_is_refused_at_every_door() {
    // Had any of these been accepted, the next line of the server would
    // have been `vec![_; query_count]` — 100 GB for the first.
    let hostile = [
        lying_frame(u32::MAX, 0),
        lying_frame(u32::MAX, u32::MAX),
        lying_frame(1, 0),
        lying_frame(0, u32::MAX),
    ];
    assert!(BatchRequest::decode(lying_frame(0, 0)).is_some());
    let (state, root) = pool_state();
    let mut pool = ConcurrentService::new(state, 2);
    for frame in &hostile {
        assert!(BatchRequest::decode(frame.clone()).is_none());
        assert!(Frame::decode(frame.clone()).is_none());
        assert!(!pool.submit_frame(frame.clone()));
    }
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
    assert!(BatchRequest::decode(Bytes::from(holed.clone())).is_none());
    assert!(!pool.submit_frame(Bytes::from(holed.clone())));
    assert!(pool.submit_frame(good));
    assert_eq!(pool.drain().len(), 1, "only the honest frame was queued");
    pool.shutdown();

    // A name server's mailbox: the frames are dropped like any other
    // undecodable mail — no reply, no panic, no allocation by their claims.
    let (mut w, svc, m1, _) = referral_world();
    let server = svc.server_on(m1);
    let stranger = w.spawn(m1, "stranger", None);
    for frame in hostile.into_iter().chain([Bytes::from(holed)]) {
        w.send(stranger, server, vec![Payload::Bytes(frame)]);
    }
    let mut engine = ProtocolEngine::new(svc);
    engine.pump_idle(&mut w);
    assert_eq!(w.mailbox_len(server), 0, "the server read its mail");
    assert!(w.receive(stranger).is_none(), "and answered none of it");
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

/// A request frame must not grow the authority's interner: 10⁵ labels no
/// context binds, sent to a name server's mailbox (batch and scalar frames)
/// and to the worker pool, are answered `⊥` — the known name beside them
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
        // And a scalar request for `/<garbage>/usr`.
        let mut scalar = vec![1u8];
        scalar.extend((FRAMES as u64 + f as u64).to_be_bytes());
        scalar.extend((root1.index() as u32).to_be_bytes());
        scalar.push(0);
        scalar.extend(3u16.to_be_bytes());
        for s in ["/", &label("scalar", f, 0), "usr"] {
            scalar.extend((s.len() as u16).to_be_bytes());
            scalar.extend(s.as_bytes());
        }
        w.send(stranger, server, vec![Payload::Bytes(Bytes::from(scalar))]);
    }
    engine.pump_idle(&mut w);
    let (mut batch_replies, mut scalar_replies) = (0, 0);
    while let Some(msg) = w.receive(stranger) {
        let Payload::Bytes(b) = &msg.parts[0] else {
            panic!("a reply carries a frame");
        };
        match Frame::decode(b.clone()).expect("a reply frame") {
            Frame::BatchReply(reply) => {
                batch_replies += 1;
                let (last, garbage) = reply.outcomes.split_last().unwrap();
                assert_eq!(garbage.len(), PER_FRAME);
                assert!(garbage.iter().all(|o| *o == Outcome::NotFound));
                assert!(matches!(last, Outcome::Resolved(e) if e.is_defined()));
            }
            Frame::Reply(reply) => {
                scalar_replies += 1;
                assert_eq!(reply.outcome, Outcome::NotFound);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!((batch_replies, scalar_replies), (FRAMES, FRAMES));

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
        assert_eq!(Name::lookup(&label("scalar", f, 0)), None);
        for door in ["mailbox", "pool"] {
            for l in labels(door, f) {
                assert_eq!(Name::lookup(&l), None, "{l} was interned");
            }
        }
    }
    assert!(Name::lookup("usr").is_some());
}
