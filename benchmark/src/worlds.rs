//! The two namespaces the workloads run over.
//!
//! * [`Grid`] — `bench_scale`'s 1e5 tier: 128 zones × 780 directories, zone
//!   *i* in shard *i*, no `World`. Only `authority_scan` uses it.
//! * [`Star3`] — a three-level star: a hub machine, 8 region machines, 64
//!   zone machines (zone *z* alone in shard *z*+1, as
//!   `scenarios::coherence_zones` lays zones out), a client on a far
//!   network. Every name `/r/z/d/f0` crosses two machine boundaries, so a
//!   cold resolution costs three protocol rounds.

use naming_core::entity::{ActivityId, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_resolver::service::NameService;
use naming_sim::topology::{LatencyModel, MachineId};
use naming_sim::world::World;

pub const GRID_ZONES: usize = 128;
pub const GRID_DIRS: usize = 780;

pub const STAR_REGIONS: usize = 8;
pub const STAR_ZONES: usize = 64;
pub const STAR_DIRS: usize = 1500;

/// `bench_coherence`'s flattened latency model: a cold miss costs tens of
/// ticks instead of hundreds, so a lease TTL can sit between the cost of a
/// warm round and a cold one.
pub const FLAT_LATENCY: LatencyModel = LatencyModel {
    local: 1,
    same_network: 2,
    cross_network: 5,
};

/// The zipf-grid namespace of `bench_scale`.
pub struct Grid {
    pub state: SystemState,
    pub root: ObjectId,
}

impl Grid {
    pub fn build() -> Grid {
        let mut s = SystemState::with_shards(GRID_ZONES);
        let root = s.add_context_object_in(0, "root");
        s.bind(root, Name::root(), root).expect("root is a context");
        for z in 0..GRID_ZONES {
            let zr = s.add_context_object_in(z, format!("z{z}"));
            s.bind(root, Name::new(&format!("z{z}")), zr)
                .expect("root is a context");
            for d in 0..GRID_DIRS {
                let dir = s.add_context_object_in(z, format!("z{z}/d{d}"));
                s.bind(zr, Name::new(&format!("d{d}")), dir)
                    .expect("zone root is a context");
                let leaf = s.add_data_object_in(z, format!("z{z}/d{d}/f0"), vec![]);
                s.bind(dir, Name::new("f0"), leaf)
                    .expect("dir is a context");
            }
        }
        Grid { state: s, root }
    }

    /// Contexts stood up (the global root not counted).
    pub fn contexts() -> usize {
        GRID_ZONES * (GRID_DIRS + 1)
    }

    /// `/z{z}/d{d}/f0`, or its unbound sibling `missing`.
    pub fn name(z: usize, d: usize, bound: bool) -> CompoundName {
        let leaf = if bound { "f0" } else { "missing" };
        CompoundName::parse_path(&format!("/z{z}/d{d}/{leaf}")).expect("well-formed path")
    }
}

/// The three-level star world, before a `NameService` consumer wraps it.
pub struct Star3 {
    pub world: World,
    pub client: ActivityId,
    /// The start context of every resolution: the hub machine's root.
    pub hub: ObjectId,
    /// Hub, then regions, then zones — every machine running a name server.
    pub machines: Vec<MachineId>,
    /// `dirs[z][d]`: the directory context holding `/r/z{z}/d{d}/f0`.
    pub dirs: Vec<Vec<ObjectId>>,
}

impl Star3 {
    /// Builds the world and installs one name server per machine. `seed`
    /// drives the world's fault-injection RNG only; the namespace itself is
    /// the same for every seed.
    pub fn build(seed: u64, latency: Option<LatencyModel>) -> (Star3, NameService) {
        let mut w = World::with_shards(seed, STAR_ZONES + 1);
        if let Some(model) = latency {
            w.topology_mut().set_latency_model(model);
        }
        let net = w.add_network("servers");
        let machines: Vec<MachineId> = (0..1 + STAR_REGIONS + STAR_ZONES)
            .map(|i| w.add_machine(format!("m{i}"), net))
            .collect();
        let hub = w.machine_root(machines[0]);
        let zones_per_region = STAR_ZONES / STAR_REGIONS;
        let mut region_ctx = Vec::with_capacity(STAR_REGIONS);
        for r in 0..STAR_REGIONS {
            let ctx = w.state_mut().add_context_object_in(0, format!("r{r}"));
            w.state_mut()
                .bind(hub, Name::new(&format!("r{r}")), ctx)
                .expect("hub root is a context");
            region_ctx.push(ctx);
        }
        let mut zone_ctx = Vec::with_capacity(STAR_ZONES);
        let mut dirs = Vec::with_capacity(STAR_ZONES);
        for z in 0..STAR_ZONES {
            let shard = z + 1;
            let s = w.state_mut();
            let zc = s.add_context_object_in(shard, format!("z{z}"));
            s.bind(
                region_ctx[z / zones_per_region],
                Name::new(&format!("z{z}")),
                zc,
            )
            .expect("region is a context");
            let mut zone_dirs = Vec::with_capacity(STAR_DIRS);
            for d in 0..STAR_DIRS {
                let dir = s.add_context_object_in(shard, format!("z{z}/d{d}"));
                s.bind(zc, Name::new(&format!("d{d}")), dir)
                    .expect("zone is a context");
                let leaf = s.add_data_object_in(shard, format!("z{z}/d{d}/f0"), vec![]);
                s.bind(dir, Name::new("f0"), leaf)
                    .expect("dir is a context");
                zone_dirs.push(dir);
            }
            zone_ctx.push(zc);
            dirs.push(zone_dirs);
        }
        let mut svc = NameService::install(&mut w, &machines);
        // First placement wins, so the deepest subtrees claim their objects
        // before the trees that graft them.
        for (z, &zc) in zone_ctx.iter().enumerate() {
            svc.place_subtree(&w, zc, machines[1 + STAR_REGIONS + z]);
        }
        for (r, &rc) in region_ctx.iter().enumerate() {
            svc.place_subtree(&w, rc, machines[1 + r]);
        }
        svc.place_subtree(&w, hub, machines[0]);
        let far = w.add_network("client-net");
        let client_machine = w.add_machine("client-host", far);
        let client = w.spawn(client_machine, "client", None);
        (
            Star3 {
                world: w,
                client,
                hub,
                machines,
                dirs,
            },
            svc,
        )
    }

    /// Contexts stood up: regions, zones and directories.
    pub fn contexts() -> usize {
        STAR_REGIONS + STAR_ZONES * (STAR_DIRS + 1)
    }

    /// `/r{z/8}/z{z}/d{d}/f0`, or its unbound sibling `missing`.
    pub fn name(z: usize, d: usize, bound: bool) -> CompoundName {
        let r = z / (STAR_ZONES / STAR_REGIONS);
        let leaf = if bound { "f0" } else { "missing" };
        CompoundName::parse_path(&format!("/r{r}/z{z}/d{d}/{leaf}")).expect("well-formed path")
    }

    /// Advances the virtual clock by `ticks` with no naming traffic: a wake
    /// nothing races against (the idiom of `bench_coherence::pace`).
    pub fn pace(&mut self, ticks: u64) {
        self.world.schedule_wake(
            self.client,
            naming_sim::time::Duration::from_ticks(ticks),
            u64::MAX,
        );
        while self.world.step() {}
        self.world.drain_wakes(self.client);
    }
}

/// FNV-1a over the rendered names: two runs that report the same hash
/// measured the same op stream.
pub fn ops_hash<'a>(names: impl Iterator<Item = &'a CompoundName>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in names {
        for c in n.components() {
            for b in c.as_str().bytes().chain(std::iter::once(b'/')) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::resolve::Resolver;

    #[test]
    fn star3_names_resolve_and_zones_sit_in_their_own_shards() {
        let (star, svc) = Star3::build(1, None);
        let r = Resolver::new();
        let bound = Star3::name(29, 1499, true);
        assert!(r
            .resolve_entity(star.world.state(), star.hub, &bound)
            .is_defined());
        let unbound = Star3::name(29, 1499, false);
        assert!(!r
            .resolve_entity(star.world.state(), star.hub, &unbound)
            .is_defined());
        for (z, zone_dirs) in star.dirs.iter().enumerate() {
            assert_eq!(SystemState::shard_of_id(zone_dirs[0]), z + 1);
            assert_eq!(
                svc.machine_of_object(zone_dirs[0]),
                Some(star.machines[1 + STAR_REGIONS + z])
            );
        }
    }

    #[test]
    fn ops_hash_tells_streams_apart() {
        let a = [Star3::name(0, 0, true), Star3::name(1, 2, false)];
        let b = [Star3::name(0, 0, true), Star3::name(1, 2, true)];
        assert_eq!(ops_hash(a.iter()), ops_hash(a.iter()));
        assert_ne!(ops_hash(a.iter()), ops_hash(b.iter()));
    }
}
