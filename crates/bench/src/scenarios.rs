//! Shared scenario builders for the criterion benchmarks.
//!
//! Benches need worlds of controllable size; these builders produce them
//! deterministically.

use naming_core::entity::{ActivityId, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_resolver::service::NameService;
use naming_sim::rng::SimRng;
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::workload::{grow_tree, TreeManifest, TreeSpec};
use naming_sim::world::World;

/// A deep chain `root/c0/c1/…/c{depth-1}/leaf` for resolution-depth
/// benches. Returns `(state, root, full path)`.
pub fn deep_chain(depth: usize) -> (SystemState, ObjectId, CompoundName) {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    let mut cur = root;
    let mut comps = vec![Name::root()];
    for i in 0..depth {
        let label = format!("c{i}");
        cur = store::ensure_dir(&mut s, cur, &label);
        comps.push(Name::new(&label));
    }
    store::create_file(&mut s, cur, "leaf", vec![]);
    comps.push(Name::new("leaf"));
    let name = CompoundName::new(comps).expect("nonempty");
    (s, root, name)
}

/// A wide random tree with approximately `target_nodes` objects. Returns
/// `(state, root, manifest)`.
pub fn wide_tree(target_nodes: usize, seed: u64) -> (SystemState, ObjectId, TreeManifest) {
    let mut s = SystemState::new();
    let root = s.add_context_object("root");
    s.bind(root, Name::root(), root).unwrap();
    // Pick fanout so that dirs^depth*files ≈ target.
    let spec = if target_nodes <= 200 {
        TreeSpec {
            depth: 3,
            dirs_per_level: 3,
            files_per_dir: 2,
        }
    } else if target_nodes <= 3_000 {
        TreeSpec {
            depth: 4,
            dirs_per_level: 5,
            files_per_dir: 3,
        }
    } else {
        TreeSpec {
            depth: 5,
            dirs_per_level: 7,
            files_per_dir: 3,
        }
    };
    let mut rng = SimRng::seeded(seed);
    let manifest = grow_tree(&mut s, root, spec, "bench", &mut rng);
    (s, root, manifest)
}

/// A multi-machine world with `machines` machines, `procs_per_machine`
/// processes each, shared and local trees — the standard audit/bench
/// population. Returns the world, all pids, and audit names (half shared,
/// half local).
pub fn audit_world(
    machines: usize,
    procs_per_machine: usize,
    names_per_class: usize,
    seed: u64,
) -> (World, Vec<ActivityId>, Vec<CompoundName>) {
    let mut w = World::new(seed);
    let net = w.add_network("bench-net");
    let shared = w.state_mut().add_context_object("shared");
    for i in 0..names_per_class {
        store::create_file(w.state_mut(), shared, &format!("s{i}"), vec![]);
    }
    let mut pids = Vec::new();
    for m in 0..machines {
        let machine = w.add_machine(format!("m{m}"), net);
        let root = w.machine_root(machine);
        store::attach(w.state_mut(), root, "shared", shared, false);
        let local = store::ensure_dir(w.state_mut(), root, "local");
        for i in 0..names_per_class {
            store::create_file(w.state_mut(), local, &format!("l{i}"), vec![]);
        }
        for p in 0..procs_per_machine {
            pids.push(w.spawn(machine, format!("p{m}-{p}"), None));
        }
    }
    let mut names = Vec::new();
    for i in 0..names_per_class {
        names.push(CompoundName::parse_path(&format!("/shared/s{i}")).unwrap());
        names.push(CompoundName::parse_path(&format!("/local/l{i}")).unwrap());
    }
    (w, pids, names)
}

/// A referral chain of `hops` server machines whose deepest zone holds
/// `leaves` files, plus a remote client — the standard batched-protocol
/// workload: every leaf name shares the full `/zone/hop1/…` prefix, so
/// batching collapses the walk and referral caching collapses repeats.
///
/// Returns `(world, service, machines, client, start, leaf names)`.
pub fn protocol_zones(hops: usize, leaves: usize, seed: u64) -> Chain {
    chain_zones(hops, leaves, World::new(seed))
}

/// What [`protocol_zones`] returns.
type Chain = (
    World,
    NameService,
    Vec<MachineId>,
    ActivityId,
    ObjectId,
    Vec<CompoundName>,
);

/// [`protocol_zones`] built in `w`, machine `i`'s objects in shard `i % n`
/// of its `n`.
fn chain_zones(hops: usize, leaves: usize, mut w: World) -> Chain {
    assert!(hops >= 1, "need at least one server");
    let shards = w.state().shard_count();
    let net = w.add_network("servers");
    let machines: Vec<MachineId> = (0..hops)
        .map(|i| {
            w.state_mut().set_default_shard(i % shards);
            w.add_machine(format!("s{i}"), net)
        })
        .collect();
    let mut prev: Option<ObjectId> = None;
    let mut comps = vec![Name::root(), Name::new("zone")];
    for (i, &m) in machines.iter().enumerate() {
        w.state_mut().set_default_shard(i % shards);
        let root = w.machine_root(m);
        let dir = store::ensure_dir(w.state_mut(), root, "zone");
        if let Some(p) = prev {
            store::attach(w.state_mut(), p, &format!("hop{i}"), dir, false);
            comps.push(Name::new(&format!("hop{i}")));
        }
        prev = Some(dir);
    }
    let deep = prev.expect("hops >= 1");
    let mut names = Vec::with_capacity(leaves);
    for j in 0..leaves {
        store::create_file(w.state_mut(), deep, &format!("f{j}"), vec![]);
        let mut c = comps.clone();
        c.push(Name::new(&format!("f{j}")));
        names.push(CompoundName::new(c).expect("nonempty"));
    }
    let mut svc = NameService::install(&mut w, &machines);
    for &m in machines.iter().rev() {
        let r = w.machine_root(m);
        svc.place_subtree(&w, r, m);
    }
    let far = w.add_network("client-net");
    let client_machine = w.add_machine("client-host", far);
    let client = w.spawn(client_machine, "client", None);
    let start = w.machine_root(machines[0]);
    (w, svc, machines, client, start, names)
}

/// [`protocol_zones`] hardened for chaos runs: every per-machine zone is
/// additionally replicated onto one standby machine (on the server
/// network, off every walk path), whose server can answer for any hop
/// when a primary times out or dies. Machine `i`'s objects live in shard
/// `i % shards`; one shard builds `protocol_zones`' world. Returns the
/// standby machine and the zone objects (chain order) on top of the
/// `protocol_zones` tuple.
#[allow(clippy::type_complexity)]
pub fn chaos_zones(
    hops: usize,
    leaves: usize,
    seed: u64,
    shards: usize,
) -> (
    World,
    NameService,
    Vec<MachineId>,
    ActivityId,
    ObjectId,
    Vec<CompoundName>,
    MachineId,
    Vec<ObjectId>,
) {
    let chain = chain_zones(hops, leaves, World::with_shards(seed, shards));
    let (mut w, mut svc, machines, client, start, names) = chain;
    let net = w.topology().machine_network(machines[0]);
    let standby = w.add_machine("standby", net);
    svc.add_server(&mut w, standby);
    let mut zones = Vec::with_capacity(machines.len());
    for &m in &machines {
        let root = w.machine_root(m);
        let zone = match w.state().lookup(root, Name::new("zone")) {
            naming_core::entity::Entity::Object(o) => o,
            other => panic!("zone dir missing on {m:?}: {other:?}"),
        };
        svc.replicate_zone(&mut w, zone, standby);
        zones.push(zone);
    }
    (w, svc, machines, client, start, names, standby, zones)
}

/// A *zone-aligned* star for the coherence sweeps: a hub machine holds
/// the start context, and each of `zones` leaf machines serves one
/// subtree that lives entirely in its own state shard (zone `z` occupies
/// shard `z + 1`; the hub uses whatever shard its root landed in). Every
/// context a two-component lookup `/zone{z}/f{j}` traverses is
/// protocol-visible — the start and one referral target — so a lease
/// entry's stamped footprint covers *exactly* the shards its answer
/// depends on, and zone-serial invalidation is as precise as the exact
/// oracle's generation checks.
///
/// Returns `(world, service, machines, client, start, zone dirs, names)`
/// with `names[z]` holding zone `z`'s leaf names in creation order.
#[allow(clippy::type_complexity)]
pub fn coherence_zones(
    zones: usize,
    leaves: usize,
    seed: u64,
) -> (
    World,
    NameService,
    Vec<MachineId>,
    ActivityId,
    ObjectId,
    Vec<ObjectId>,
    Vec<Vec<CompoundName>>,
) {
    assert!(zones >= 1, "need at least one zone");
    let mut w = World::with_shards(seed, zones + 1);
    let net = w.add_network("servers");
    let machines: Vec<MachineId> = (0..=zones)
        .map(|i| w.add_machine(format!("m{i}"), net))
        .collect();
    let hub = w.machine_root(machines[0]);
    let mut dirs = Vec::with_capacity(zones);
    let mut names = Vec::with_capacity(zones);
    for z in 0..zones {
        let shard = z + 1;
        let dir = w
            .state_mut()
            .add_context_object_in(shard, format!("zone{z}"));
        store::attach(w.state_mut(), hub, &format!("zone{z}"), dir, true);
        let mut zone_names = Vec::with_capacity(leaves);
        for j in 0..leaves {
            let f = w
                .state_mut()
                .add_data_object_in(shard, format!("zone{z}/f{j}"), vec![]);
            w.state_mut()
                .bind(dir, Name::new(&format!("f{j}")), f)
                .expect("zone dir is a directory");
            zone_names.push(
                CompoundName::new(vec![
                    Name::root(),
                    Name::new(&format!("zone{z}")),
                    Name::new(&format!("f{j}")),
                ])
                .expect("nonempty"),
            );
        }
        dirs.push(dir);
        names.push(zone_names);
    }
    let mut svc = NameService::install(&mut w, &machines);
    for (z, &dir) in dirs.iter().enumerate() {
        svc.place_subtree(&w, dir, machines[z + 1]);
    }
    svc.place_subtree(&w, hub, machines[0]);
    let far = w.add_network("client-net");
    let client_machine = w.add_machine("client-host", far);
    let client = w.spawn(client_machine, "client", None);
    (w, svc, machines, client, hub, dirs, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::entity::Entity;
    use naming_core::resolve::Resolver;

    #[test]
    fn deep_chain_resolves() {
        let (s, root, name) = deep_chain(16);
        assert_eq!(name.len(), 18); // "/", 16 dirs, leaf
        assert!(Resolver::new().resolve_entity(&s, root, &name).is_defined());
    }

    #[test]
    fn wide_tree_sizes() {
        let (s, _root, manifest) = wide_tree(2_000, 3);
        assert!(s.object_count() > 500, "got {}", s.object_count());
        assert!(!manifest.files.is_empty());
    }

    #[test]
    fn protocol_zones_resolve_end_to_end() {
        let (mut w, svc, _machines, client, start, names) = protocol_zones(3, 4, 11);
        assert_eq!(names.len(), 4);
        let mut engine = naming_resolver::engine::ProtocolEngine::new(svc);
        for n in &names {
            let s = engine.resolve(
                &mut w,
                client,
                start,
                n,
                naming_resolver::wire::Mode::Iterative,
            );
            assert!(s.entity.is_defined(), "{n} did not resolve");
        }
    }

    #[test]
    fn chaos_zones_standby_mirrors_every_zone() {
        let (mut w, svc, machines, client, start, names, standby, zones) = chaos_zones(3, 2, 13, 1);
        assert_eq!(zones.len(), machines.len());
        for &z in &zones {
            assert!(svc.zone_copy_on(z, standby).is_some());
            // Group = primary + standby, primary first.
            assert_eq!(svc.failover_targets(z).len(), 2);
        }
        // Lossless resolution still works and routes through primaries.
        let mut engine = naming_resolver::engine::ProtocolEngine::new(svc);
        for n in &names {
            let s = engine.resolve(
                &mut w,
                client,
                start,
                n,
                naming_resolver::wire::Mode::Iterative,
            );
            assert!(s.entity.is_defined(), "{n} did not resolve");
        }
        assert_eq!(engine.retry_counters().failovers, 0);
    }

    #[test]
    fn coherence_zones_are_shard_aligned_and_resolvable() {
        let (mut w, svc, machines, client, start, dirs, names) = coherence_zones(3, 2, 7);
        assert_eq!(machines.len(), 4);
        for (z, &d) in dirs.iter().enumerate() {
            assert_eq!(
                SystemState::shard_of_id(d),
                z + 1,
                "zone {z} dir landed outside its shard"
            );
        }
        let mut engine = naming_resolver::engine::ProtocolEngine::new(svc);
        for zone_names in &names {
            for n in zone_names {
                let s = engine.resolve(
                    &mut w,
                    client,
                    start,
                    n,
                    naming_resolver::wire::Mode::Iterative,
                );
                assert!(s.entity.is_defined(), "{n} did not resolve");
            }
        }
    }

    #[test]
    fn audit_world_shape() {
        let (w, pids, names) = audit_world(3, 2, 4, 9);
        assert_eq!(pids.len(), 6);
        assert_eq!(names.len(), 8);
        // Shared names coherent, local names not.
        let shared = &names[0];
        let e: Vec<Entity> = pids
            .iter()
            .map(|&p| w.resolve_in_own_context(p, shared))
            .collect();
        assert!(e.windows(2).all(|p| p[0] == p[1]));
    }
}
