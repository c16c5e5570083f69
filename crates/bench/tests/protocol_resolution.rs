//! Batched and iterative resolution must be *observationally identical*
//! on every experiment workload: the batch protocol and the referral cache
//! save messages and rounds, never answers. Each case resolves a
//! workload's names one-at-a-time on one engine, then as a single batch
//! and through the caching resolver on fresh but identically-built
//! engines, and compares entities name-for-name.

use naming_bench::scenarios::protocol_zones;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_resolver::cache::CachingResolver;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::service::NameService;
use naming_resolver::wire::Mode;
use naming_sim::store;
use naming_sim::world::World;

/// Resolves `names` one at a time, iteratively, on a cold engine.
fn singles(
    w: &mut World,
    engine: &mut ProtocolEngine,
    client: ActivityId,
    start: ObjectId,
    names: &[CompoundName],
) -> Vec<Entity> {
    names
        .iter()
        .map(|n| engine.resolve(w, client, start, n, Mode::Iterative).entity)
        .collect()
}

/// Asserts a freshly-built workload answers the same way batched and
/// single, for every prefix subset and with duplicates mixed in.
fn assert_batch_matches<F>(mk: F)
where
    F: Fn() -> (World, NameService, ActivityId, ObjectId, Vec<CompoundName>),
{
    let (mut w, svc, client, start, names) = mk();
    let mut engine = ProtocolEngine::new(svc);
    let expect = singles(&mut w, &mut engine, client, start, &names);

    let (mut w, svc, client, start, names) = mk();
    let mut engine = ProtocolEngine::new(svc);
    let batch = engine.resolve_batch(&mut w, client, start, &names);
    assert_eq!(batch.entities, expect, "batch disagrees with singles");

    // Duplicates and reordering must not matter either.
    let mut shuffled: Vec<CompoundName> = names.iter().rev().cloned().collect();
    shuffled.extend(names.iter().take(2).cloned());
    let (mut w, svc, client, start, _names) = mk();
    let mut engine = ProtocolEngine::new(svc);
    let batch = engine.resolve_batch(&mut w, client, start, &shuffled);
    let expect_shuffled: Vec<Entity> = shuffled
        .iter()
        .map(|n| {
            let i = names.iter().position(|m| m == n).expect("known name");
            expect[i]
        })
        .collect();
    assert_eq!(batch.entities, expect_shuffled, "order/dup sensitivity");

    // And the caching resolver's batch front-end agrees too.
    let (mut w, svc, client, start, names) = mk();
    let mut resolver = CachingResolver::new(ProtocolEngine::new(svc));
    let cached = resolver.resolve_batch(&mut w, client, start, &names);
    assert_eq!(cached.entities, expect, "cached batch disagrees");

    // So do single lookups in a row, each after the first jumping to the
    // deepest server the referral cache has heard of.
    let (mut w, svc, client, start, names) = mk();
    let mut resolver = CachingResolver::new(ProtocolEngine::new(svc));
    let jumped: Vec<Entity> = names
        .iter()
        .map(|n| {
            resolver
                .resolve(&mut w, client, start, n, Mode::Iterative)
                .0
        })
        .collect();
    assert_eq!(jumped, expect, "referral-cached singles disagree");
}

#[test]
fn referral_chain_workloads_match() {
    for hops in [1usize, 2, 4, 6] {
        for leaves in [1usize, 8, 64] {
            assert_batch_matches(|| {
                let (w, svc, _machines, client, start, names) =
                    protocol_zones(hops, leaves, 14 + hops as u64);
                (w, svc, client, start, names)
            });
        }
    }
}

#[test]
fn churn_style_workload_with_failures_matches() {
    // The E14 churn world: two machines, an exported zone, plus names
    // that do not resolve (⊥ must round-trip through the batch protocol
    // identically).
    assert_batch_matches(|| {
        let mut w = World::new(77);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let m2 = w.add_machine("m2", net);
        let root = w.machine_root(m1);
        let root2 = w.machine_root(m2);
        let export = store::ensure_dir(w.state_mut(), root2, "export");
        let mut names = Vec::new();
        for i in 0..12 {
            store::create_file(w.state_mut(), export, &format!("e{i}"), vec![]);
            names.push(CompoundName::parse_path(&format!("/remote/e{i}")).unwrap());
        }
        store::attach(w.state_mut(), root, "remote", export, false);
        // Names that fail at different depths.
        names.push(CompoundName::parse_path("/remote/nope").unwrap());
        names.push(CompoundName::parse_path("/missing/entirely").unwrap());
        names.push(CompoundName::parse_path("/remote").unwrap());
        names.push(CompoundName::new(vec![Name::root()]).unwrap());
        let mut svc = NameService::install(&mut w, &[m1, m2]);
        svc.place_subtree(&w, root2, m2);
        svc.place_subtree(&w, root, m1);
        let client = w.spawn(m1, "client", None);
        (w, svc, client, root, names)
    });
}

#[test]
fn replicated_zone_workload_matches() {
    assert_batch_matches(|| {
        let (mut w, mut svc, machines, client, start, names) = protocol_zones(3, 6, 21);
        // Replicate the deepest zone onto the first machine: batch walks
        // continue through zone copies exactly like single walks.
        let deep = match store::resolve_path(w.state(), start, "/zone/hop1/hop2") {
            Entity::Object(o) => o,
            other => panic!("deep zone missing: {other}"),
        };
        svc.replicate_zone(&mut w, deep, machines[0]);
        (w, svc, client, start, names)
    });
}
