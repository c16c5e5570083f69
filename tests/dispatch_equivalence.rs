//! Event-directed dispatch: the drivers handle only the process each
//! simulator event names, and that must be invisible.
//!
//! * **Many servers, loss, retries** — on a star of 40 name servers with
//!   20% loss, the blocking and the pipelined driver still resolve every
//!   name to the oracle's answer, leave no mail in any server mailbox and
//!   no timer pending, and repeat exactly (answers, rounds, messages,
//!   latency / completion tick, retry counters) from the same seed. The
//!   field-for-field comparison against a driver that still sweeps every
//!   mailbox after every event lives next to the drivers
//!   (`runtime::tests::targeted_dispatch_equals_sweeping_every_mailbox`),
//!   where the test-only sweep switch is visible.
//! * **The entry sweep** — mail that the caller's own `world.run()`
//!   delivered before any entry point ran is still handled.
//! * **Remote exec** costs what it always did.
//! * **Replica routing order** — same network first, the primary breaks
//!   ties, failover lists the primary first — across the placement
//!   rewrite.
//!
//! The harness (`tests/chaos.rs`) runs five servers. The forty here, the
//! caller's own stepping before an entry point, remote exec and the replica
//! order are none of its configurations, so these stay beside it.
//!
//! Run under `debug_assertions`, as `cargo test` builds it: after handling
//! the one process an event names, the engine asserts that every other
//! server mailbox is empty, so each run here checks targeted handling
//! against the old sweep of every mailbox, event by event.

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_port::exec::ExecService;
use naming_port::wire::{ExecReply, ExecRequest};
use naming_resolver::engine::{ProtocolEngine, RetryPolicy};
use naming_resolver::runtime::PipelinedService;
use naming_resolver::service::NameService;
use naming_resolver::wire::{BatchReply, BatchRequest, Mode, NameTrie, Outcome};
use naming_sim::message::Payload;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

const ZONES: usize = 40;

struct Star {
    w: World,
    machines: Vec<MachineId>,
    client: ActivityId,
    root: ObjectId,
}

/// A hub whose root grafts one zone per machine: `/z{i}/leaf` costs a
/// referral from the hub to zone `i`'s server.
fn star(seed: u64) -> (Star, NameService) {
    let mut w = World::new(seed);
    let net = w.add_network("n");
    let hub = w.add_machine("hub", net);
    let root = w.machine_root(hub);
    let mut machines = vec![hub];
    for i in 0..ZONES {
        let m = w.add_machine(format!("zone{i}"), net);
        let zroot = w.machine_root(m);
        let zone = store::ensure_dir(w.state_mut(), zroot, "export");
        store::create_file(w.state_mut(), zone, "leaf", vec![]);
        store::attach(w.state_mut(), root, &format!("z{i}"), zone, false);
        machines.push(m);
    }
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    let client = w.spawn(hub, "client", None);
    (
        Star {
            w,
            machines,
            client,
            root,
        },
        svc,
    )
}

fn batches() -> Vec<Vec<CompoundName>> {
    (0..6)
        .map(|b| {
            (0..8)
                .map(|k| {
                    let z = (b * 7 + k * 5) % ZONES;
                    let leaf = if k % 4 == 3 { "missing" } else { "leaf" };
                    CompoundName::parse_path(&format!("/z{z}/{leaf}")).unwrap()
                })
                .collect()
        })
        .collect()
}

fn lossy_engine(svc: NameService) -> ProtocolEngine {
    let mut engine = ProtocolEngine::new(svc);
    engine.set_retry_policy(Some(RetryPolicy {
        max_attempts: 64,
        ..RetryPolicy::default()
    }));
    engine
}

fn assert_quiescent(s: &Star, engine: &ProtocolEngine) {
    for (_, server) in engine.service().servers() {
        assert_eq!(s.w.mailbox_len(server), 0, "mail left with a server");
    }
    assert_eq!(s.w.pending_timers(), 0, "timers left behind");
}

#[test]
fn many_servers_with_loss_resolve_to_the_oracle_and_repeat_exactly() {
    let run_blocking = || {
        let (mut s, svc) = star(97);
        s.w.set_message_drop_rate(0.2);
        let mut engine = lossy_engine(svc);
        let stats: Vec<_> = batches()
            .iter()
            .map(|b| engine.resolve_batch(&mut s.w, s.client, s.root, b).clone())
            .collect();
        for (b, st) in batches().iter().zip(&stats) {
            for (n, (&e, &unreachable)) in b.iter().zip(st.entities.iter().zip(&st.unreachable)) {
                assert_eq!(e, Resolver::new().resolve_entity(s.w.state(), s.root, n));
                assert!(!unreachable, "{n} given up");
            }
        }
        assert_quiescent(&s, &engine);
        (stats, engine.retry_counters(), s.w.now())
    };
    let run_pipelined = || {
        let (mut s, svc) = star(97);
        s.w.set_message_drop_rate(0.2);
        let mut svc = PipelinedService::with_limit(lossy_engine(svc), 2, 2);
        for b in &batches() {
            svc.submit(&mut s.w, s.client, s.root, b);
        }
        let answers = svc.drain(&mut s.w).to_vec();
        for (b, a) in batches().iter().zip(&answers) {
            for (n, (&e, &unreachable)) in b.iter().zip(a.entities.iter().zip(&a.unreachable)) {
                assert_eq!(e, Resolver::new().resolve_entity(s.w.state(), s.root, n));
                assert!(!unreachable, "{n} given up");
            }
        }
        assert_quiescent(&s, svc.engine());
        (answers, svc.engine().retry_counters(), s.w.now())
    };
    let blocking = run_blocking();
    assert!(blocking.1.retransmissions > 0, "the loss never bit");
    assert_eq!(blocking, run_blocking());
    let pipelined = run_pipelined();
    assert!(pipelined.1.retransmissions > 0, "the loss never bit");
    assert_eq!(pipelined, run_pipelined());
}

/// A stranger's request to zone 3's server, delivered by the caller's own
/// `world.run()` while no driver was pumping.
fn strand_a_request(s: &mut Star, svc: &NameService) -> ActivityId {
    let stranger = s.w.spawn(s.machines[0], "stranger", None);
    let zone = match store::resolve_path(s.w.state(), s.root, "/z3") {
        Entity::Object(o) => o,
        other => panic!("zone missing: {other}"),
    };
    let (trie, _) = NameTrie::build(&[CompoundName::atom(Name::new("leaf"))]);
    let req = BatchRequest {
        id: 0xfeed,
        start: zone,
        trie,
    };
    let server = svc.server_on(s.machines[4]);
    s.w.send(stranger, server, vec![Payload::Bytes(req.encode())]);
    s.w.run();
    assert_eq!(s.w.mailbox_len(server), 1, "the request should be waiting");
    stranger
}

fn assert_stranger_answered(s: &mut Star, stranger: ActivityId) {
    let msg =
        s.w.receive(stranger)
            .expect("the stranded request got no reply");
    let Payload::Bytes(b) = &msg.parts[0] else {
        panic!("reply carries no frame");
    };
    let rep = BatchReply::decode(b.clone()).expect("a batch reply");
    assert_eq!(rep.id, 0xfeed);
    assert!(matches!(rep.outcomes[..], [Outcome::Resolved(e)] if e.is_defined()));
}

#[test]
fn mail_delivered_before_an_entry_point_is_still_answered() {
    let warm = [CompoundName::parse_path("/z9/leaf").unwrap()];

    // Blocking batch resolve.
    let (mut s, svc) = star(5);
    let stranger = strand_a_request(&mut s, &svc);
    let mut engine = ProtocolEngine::new(svc);
    let stats = engine.resolve_batch(&mut s.w, s.client, s.root, &warm);
    assert!(stats.entities[0].is_defined());
    engine.pump_idle(&mut s.w);
    assert_stranger_answered(&mut s, stranger);

    // Blocking single resolve.
    let (mut s, svc) = star(5);
    let stranger = strand_a_request(&mut s, &svc);
    let mut engine = ProtocolEngine::new(svc);
    let stats = engine.resolve(&mut s.w, s.client, s.root, &warm[0], Mode::Iterative);
    assert!(stats.entity.is_defined());
    engine.pump_idle(&mut s.w);
    assert_stranger_answered(&mut s, stranger);

    // The idle pump alone.
    let (mut s, svc) = star(5);
    let stranger = strand_a_request(&mut s, &svc);
    let mut engine = ProtocolEngine::new(svc);
    engine.pump_idle(&mut s.w);
    assert_stranger_answered(&mut s, stranger);

    // The reactor — including a reply to one of its *own* requests that
    // the caller's stepping delivered before `drain` ran.
    let (mut s, svc) = star(5);
    let stranger = strand_a_request(&mut s, &svc);
    let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 1);
    svc.submit(&mut s.w, s.client, s.root, &warm);
    s.w.run();
    let answers = svc.drain(&mut s.w);
    assert!(answers[0].entities[0].is_defined());
    svc.engine_mut().pump_idle(&mut s.w);
    assert_stranger_answered(&mut s, stranger);
}

#[test]
fn remote_exec_costs_one_round_trip_among_many_servers() {
    let mut w = World::new(91);
    let net = w.add_network("port");
    let machines: Vec<MachineId> = (0..ZONES)
        .map(|i| w.add_machine(format!("m{i}"), net))
        .collect();
    let mut svc = ExecService::install(&mut w, &machines);
    let parent = svc.spawn_with_namespace(&mut w, machines[0], "parent");
    let arg = CompoundName::parse_path("/m0").unwrap();
    let meant = w.resolve_in_own_context(parent, &arg);
    assert!(meant.is_defined());

    // An exec request of a stranger's, stranded by the caller's own run.
    let stranger = w.spawn(machines[1], "stranger", None);
    let stranded = ExecRequest {
        id: 0xfeed,
        label: "stranded".into(),
        args: Vec::new(),
        namespace: Vec::new(),
    };
    let execd = svc.server_on(machines[7]);
    w.send(stranger, execd, vec![Payload::Bytes(stranded.encode())]);
    w.run();

    let sent0 = w.trace().counter("sent");
    let out = svc.remote_exec(
        &mut w,
        parent,
        machines[ZONES - 1],
        "job",
        std::slice::from_ref(&arg),
    );
    let child = out.child.expect("spawned");
    assert_eq!(w.machine_of(child), machines[ZONES - 1]);
    assert_eq!(out.resolved_args, vec![meant]);
    let hop = w.topology().latency_model().same_network;
    assert_eq!(out.latency.ticks(), 2 * hop, "one round trip");
    // Its own request and reply, plus the answer to the stranded request.
    assert_eq!(out.messages, 3);
    assert_eq!(w.trace().counter("sent") - sent0, 3);
    w.run();
    let msg = w.receive(stranger).expect("the stranded exec got no reply");
    let Payload::Bytes(b) = &msg.parts[0] else {
        panic!("reply carries no frame");
    };
    assert_eq!(
        ExecReply::decode(b.clone()).expect("an exec reply").id,
        0xfeed
    );
}

#[test]
fn replica_routing_order_survives_the_placement_rewrite() {
    // Three networks. The zone's primary sits on net B; copies on net A
    // (two of them) and net B. A server on net A refers to the first
    // same-network copy; one on net C, with nobody near, to the primary;
    // one on net B to the primary ahead of the same-network copy.
    let mut w = World::new(3);
    let (net_a, net_b, net_c) = (w.add_network("a"), w.add_network("b"), w.add_network("c"));
    let asker_a = w.add_machine("asker-a", net_a);
    let copy_a1 = w.add_machine("copy-a1", net_a);
    let copy_a2 = w.add_machine("copy-a2", net_a);
    let primary = w.add_machine("primary", net_b);
    let copy_b = w.add_machine("copy-b", net_b);
    let asker_b = w.add_machine("asker-b", net_b);
    let asker_c = w.add_machine("asker-c", net_c);
    let machines = [asker_a, copy_a1, copy_a2, primary, copy_b, asker_b, asker_c];
    let primary_root = w.machine_root(primary);
    let zone = store::ensure_dir(w.state_mut(), primary_root, "export");
    store::create_file(w.state_mut(), zone, "leaf", vec![]);
    for &asker in &[asker_a, asker_b, asker_c] {
        let root = w.machine_root(asker);
        store::attach(w.state_mut(), root, "zone", zone, false);
    }
    let mut svc = NameService::install(&mut w, &machines);
    // First placement wins: the primary claims its zone before the askers
    // that graft it.
    svc.place_subtree(&w, primary_root, primary);
    for &m in &machines {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    assert_eq!(svc.machine_of_object(zone), Some(primary));
    // Replicate out of machine order: the group is listed in it anyway.
    let on_b = svc.replicate_zone(&mut w, zone, copy_b);
    let on_a2 = svc.replicate_zone(&mut w, zone, copy_a2);
    let on_a1 = svc.replicate_zone(&mut w, zone, copy_a1);

    let group = vec![
        (primary, zone),
        (copy_a1, on_a1),
        (copy_a2, on_a2),
        (copy_b, on_b),
    ];
    assert_eq!(
        svc.zone_servers(zone),
        vec![primary, copy_a1, copy_a2, copy_b]
    );
    for ctx in [zone, on_a1, on_a2, on_b] {
        assert_eq!(svc.failover_targets(ctx), group, "asked via {ctx}");
    }

    let name = CompoundName::parse_path("/zone/leaf").unwrap();
    let referred = |from: MachineId| {
        let (trie, _) = NameTrie::build(std::slice::from_ref(&name));
        let single = svc.local_resolve(&w, from, w.machine_root(from), &name);
        let (batch, _) = svc.local_resolve_batch(&w, from, w.machine_root(from), &trie);
        assert_eq!(batch, vec![single], "batch and single walks agree");
        match single {
            Outcome::Referral {
                next_machine,
                next_ctx,
                ..
            } => (next_machine, next_ctx),
            other => panic!("expected a referral, got {other:?}"),
        }
    };
    assert_eq!(referred(asker_a), (copy_a1, on_a1));
    assert_eq!(referred(asker_b), (primary, zone));
    assert_eq!(referred(asker_c), (primary, zone));
    // A machine holding a copy answers from it instead of referring.
    let root = w.machine_root(copy_a2);
    store::attach(w.state_mut(), root, "zone", zone, false);
    assert!(matches!(
        svc.local_resolve(&w, copy_a2, root, &name),
        Outcome::Resolved(e) if e.is_defined()
    ));
}
