//! Determinism guarantees of the substrate: identical seeds reproduce
//! identical worlds, workloads, traces and audits; event ordering is
//! stable; property-based checks on the queue and RNG.

use naming_core::closure::{MetaContext, StandardRule};
use naming_core::name::CompoundName;
use naming_sim::event::EventQueue;
use naming_sim::message::Payload;
use naming_sim::rng::SimRng;
use naming_sim::time::VirtualTime;
use naming_sim::workload::{generate_uses, grow_tree, SourceMix, TreeSpec};
use naming_sim::world::World;
use proptest::prelude::*;

fn build_busy_world(seed: u64) -> World {
    let mut w = World::new(seed);
    let n1 = w.add_network("n1");
    let n2 = w.add_network("n2");
    let machines = vec![
        w.add_machine("a", n1),
        w.add_machine("b", n1),
        w.add_machine("c", n2),
    ];
    let mut pids = Vec::new();
    for &m in &machines {
        let root = w.machine_root(m);
        let mut rng = w.rng_mut().fork();
        grow_tree(w.state_mut(), root, TreeSpec::small(), "x", &mut rng);
        for i in 0..3 {
            pids.push(w.spawn(m, format!("p{i}"), None));
        }
    }
    // A burst of messages with names.
    let name = CompoundName::parse_path("/d0/f0.dat").unwrap();
    for (i, &from) in pids.iter().enumerate() {
        let to = pids[(i + 3) % pids.len()];
        w.send(
            from,
            to,
            vec![Payload::name(name.clone()), Payload::bytes(&b"x"[..])],
        );
    }
    w.run();
    w
}

#[test]
fn same_seed_same_world() {
    let w1 = build_busy_world(55);
    let w2 = build_busy_world(55);
    assert_eq!(w1.now(), w2.now());
    assert_eq!(w1.state().object_count(), w2.state().object_count());
    assert_eq!(w1.state().activity_count(), w2.state().activity_count());
    assert_eq!(
        w1.trace().counter("delivered"),
        w2.trace().counter("delivered")
    );
    // Mailbox contents identical.
    let mut w1 = w1;
    let mut w2 = w2;
    let pids: Vec<_> = w1.processes().collect();
    for pid in pids {
        loop {
            let m1 = w1.receive(pid);
            let m2 = w2.receive(pid);
            assert_eq!(m1, m2);
            if m1.is_none() {
                break;
            }
        }
    }
}

#[test]
fn audits_are_reproducible() {
    let w = build_busy_world(77);
    let pids: Vec<_> = w.processes().collect();
    let metas: Vec<MetaContext> = pids.iter().map(|&p| MetaContext::internal(p)).collect();
    let names = vec![
        CompoundName::parse_path("/d0/f0.dat").unwrap(),
        CompoundName::parse_path("/d1/f1.dat").unwrap(),
    ];
    let spec = naming_core::audit::AuditSpec::exhaustive(names, metas).with_threads(3);
    let r1 = naming_core::audit::run(
        w.state(),
        w.registry(),
        &StandardRule::OfResolver,
        &spec,
        None,
    );
    let r2 = naming_core::audit::run(
        w.state(),
        w.registry(),
        &StandardRule::OfResolver,
        &spec,
        None,
    );
    assert_eq!(r1.verdicts, r2.verdicts);
    assert_eq!(r1.stats, r2.stats);
}

#[test]
fn different_seeds_differ_somewhere() {
    let mut a = SimRng::seeded(1);
    let mut b = SimRng::seeded(2);
    let xs: Vec<usize> = (0..64).map(|_| a.below(1 << 20)).collect();
    let ys: Vec<usize> = (0..64).map(|_| b.below(1 << 20)).collect();
    assert_ne!(xs, ys);
}

#[test]
fn workloads_are_seed_deterministic() {
    let users: Vec<_> = (0..5)
        .map(naming_core::entity::ActivityId::from_index)
        .collect();
    let names = vec![CompoundName::parse_path("/a/b").unwrap()];
    let containers = vec![naming_core::entity::ObjectId::from_index(0)];
    let u1 = generate_uses(
        &users,
        &names,
        &containers,
        SourceMix::uniform(),
        100,
        &mut SimRng::seeded(9),
    );
    let u2 = generate_uses(
        &users,
        &names,
        &containers,
        SourceMix::uniform(),
        100,
        &mut SimRng::seeded(9),
    );
    assert_eq!(u1, u2);
}

proptest! {
    /// The event queue is a stable priority queue: output is sorted by
    /// time, and equal-time events preserve insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in proptest::collection::vec(0u64..20, 0..60)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_seq(VirtualTime::from_ticks(t), i as u64, (t, i));
        }
        let mut drained = Vec::new();
        while let Some((vt, (t, i))) = q.pop() {
            prop_assert_eq!(vt.ticks(), t);
            drained.push((t, i));
        }
        prop_assert_eq!(drained.len(), times.len());
        // Sorted by (time, insertion index).
        let mut expected = drained.clone();
        expected.sort();
        prop_assert_eq!(drained, expected);
    }

    /// Message latency composition: delivery time equals send time plus the
    /// topology latency for the machine pair, whatever the pair.
    #[test]
    fn delivery_time_is_latency(from in 0usize..3, to in 0usize..3) {
        let mut w = World::new(1);
        let n1 = w.add_network("n1");
        let n2 = w.add_network("n2");
        let machines = [
            w.add_machine("a", n1),
            w.add_machine("b", n1),
            w.add_machine("c", n2),
        ];
        let pa = w.spawn(machines[from], "pa", None);
        let pb = w.spawn(machines[to], "pb", None);
        let expected = w.topology().latency(machines[from], machines[to]);
        w.send(pa, pb, vec![]);
        w.run();
        prop_assert_eq!(w.now().ticks(), expected.ticks());
    }

    /// Spawning with a parent always reproduces the parent's context
    /// function at spawn time.
    #[test]
    fn inheritance_is_exact(extra_bindings in 0usize..6) {
        let mut w = World::new(2);
        let net = w.add_network("n");
        let m = w.add_machine("m", net);
        let parent = w.spawn(m, "parent", None);
        for i in 0..extra_bindings {
            let o = w.state_mut().add_context_object(format!("dir{i}"));
            w.bind_for(parent, naming_core::name::Name::new(&format!("b{i}")), o);
        }
        let child = w.spawn(m, "child", Some(parent));
        let pc = w.state().context(w.context_of(parent)).unwrap();
        let cc = w.state().context(w.context_of(child)).unwrap();
        prop_assert!(pc.same_function(cc));
    }
}
