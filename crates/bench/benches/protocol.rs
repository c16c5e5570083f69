//! B7 — resolution-protocol costs: wire encode/decode throughput, and
//! end-to-end resolve cost by referral depth and mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use naming_core::entity::ObjectId;
use naming_core::name::CompoundName;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::service::NameService;
use naming_resolver::wire::{Mode, Request};
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;
use std::hint::black_box;

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/wire");
    let req = Request {
        id: 77,
        start: ObjectId::from_index(3),
        name: CompoundName::parse_path("/org/dept/group/host/service/instance")
            .unwrap()
            .iter()
            .map(|&c| Some(c))
            .collect(),
        mode: Mode::Recursive,
    };
    group.bench_function("encode", |b| b.iter(|| black_box(req.encode())));
    let frame = req.encode();
    group.bench_function("decode", |b| {
        b.iter(|| black_box(Request::decode(black_box(frame.clone()))))
    });
    group.finish();
}

fn chain(hops: usize) -> (World, NameService, Vec<MachineId>, ObjectId, CompoundName) {
    let mut w = World::new(5);
    let net = w.add_network("n");
    let machines: Vec<MachineId> = (0..hops)
        .map(|i| w.add_machine(format!("s{i}"), net))
        .collect();
    let mut comps = vec![
        naming_core::name::Name::root(),
        naming_core::name::Name::new("zone"),
    ];
    let mut prev = None;
    for (i, &m) in machines.iter().enumerate() {
        let root = w.machine_root(m);
        let dir = store::ensure_dir(w.state_mut(), root, "zone");
        if let Some(p) = prev {
            store::attach(w.state_mut(), p, &format!("hop{i}"), dir, false);
            comps.push(naming_core::name::Name::new(&format!("hop{i}")));
        }
        prev = Some(dir);
    }
    store::create_file(w.state_mut(), prev.unwrap(), "leaf", vec![]);
    comps.push(naming_core::name::Name::new("leaf"));
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    let start = w.machine_root(machines[0]);
    (w, svc, machines, start, CompoundName::new(comps).unwrap())
}

fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/resolve");
    group.sample_size(30);
    for hops in [1usize, 3, 6] {
        for (label, mode) in [
            ("iterative", Mode::Iterative),
            ("recursive", Mode::Recursive),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, hops),
                &(hops, mode),
                |b, &(hops, mode)| {
                    b.iter_with_setup(
                        || {
                            let (mut w, svc, machines, start, name) = chain(hops);
                            let client = w.spawn(machines[0], "client", None);
                            (w, ProtocolEngine::new(svc), client, start, name)
                        },
                        |(mut w, mut engine, client, start, name)| {
                            black_box(engine.resolve(&mut w, client, start, &name, mode))
                        },
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wire, bench_resolve);
criterion_main!(benches);
