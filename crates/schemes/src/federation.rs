//! Cross-linked autonomous systems (§5.3, Fig. 5) and the prefix-mapping
//! closure humans apply at scope boundaries (§7).
//!
//! "Cross-links can be added to extend the naming graphs of the systems …
//! The context of each activity is still based on its local system, but has
//! been extended to allow access to the remote naming graph. There are no
//! global names between systems unless they happen to use the same prefix
//! name for a shared entity."
//!
//! And from §7: "When the first organization needs to refer to the home
//! directories of users in the second organization, it may have to attach
//! the home directories under the name /org2/users. In such situations, one
//! has to rely on humans to map names by adding the prefix /org2."
//!
//! [`Federation`] builds autonomous single-tree systems, adds cross-links,
//! and implements the prefix mapping. Experiment E7 counts how many names
//! need human mapping as cross-scope interaction grows.

use naming_core::entity::{ActivityId, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::scheme::InstalledScheme;

/// Identifier of an autonomous system within a federation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemId(pub usize);

#[derive(Debug)]
struct SystemRecord {
    name: String,
    root: ObjectId,
    machines: Vec<MachineId>,
    processes: Vec<ActivityId>,
}

/// A federation of autonomous naming systems.
#[derive(Debug)]
pub struct Federation {
    systems: Vec<SystemRecord>,
    /// `(from, to, link_name)` cross-links in creation order.
    links: Vec<(SystemId, SystemId, Name)>,
    audit_names: Vec<CompoundName>,
}

impl Federation {
    /// Creates an empty federation.
    pub fn new() -> Federation {
        Federation {
            systems: Vec::new(),
            links: Vec::new(),
            audit_names: Vec::new(),
        }
    }

    /// Adds an autonomous system: a fresh naming tree that becomes the root
    /// of every listed machine.
    pub fn add_system(
        &mut self,
        world: &mut World,
        name: impl Into<String>,
        machines: &[MachineId],
    ) -> SystemId {
        let name = name.into();
        let root = world.state_mut().add_context_object(format!("{name}:/"));
        world
            .state_mut()
            .bind(root, Name::root(), root)
            .expect("fresh root");
        for &m in machines {
            world.set_machine_root(m, root);
        }
        let id = SystemId(self.systems.len());
        self.systems.push(SystemRecord {
            name,
            root,
            machines: machines.to_vec(),
            processes: Vec::new(),
        });
        id
    }

    /// The system's naming-tree root.
    pub fn root(&self, sys: SystemId) -> ObjectId {
        self.systems[sys.0].root
    }

    /// The system's name.
    pub fn system_name(&self, sys: SystemId) -> &str {
        &self.systems[sys.0].name
    }

    /// The system's machines.
    pub fn machines(&self, sys: SystemId) -> &[MachineId] {
        &self.systems[sys.0].machines
    }

    /// Spawns a process inside a system (context rooted at the system
    /// tree).
    ///
    /// # Panics
    ///
    /// Panics if the system has no machines.
    pub fn spawn(&mut self, world: &mut World, sys: SystemId, label: &str) -> ActivityId {
        let machine = *self.systems[sys.0]
            .machines
            .first()
            .expect("system needs at least one machine");
        let pid = world.spawn(machine, label, None);
        self.systems[sys.0].processes.push(pid);
        pid
    }

    /// The processes of one system.
    pub fn processes(&self, sys: SystemId) -> &[ActivityId] {
        &self.systems[sys.0].processes
    }

    /// Adds a cross-link: `to`'s tree becomes visible inside `from` under
    /// `link_name` (e.g. `org2`). The link extends `from`'s naming graph
    /// without creating global names.
    pub fn cross_link(&mut self, world: &mut World, from: SystemId, to: SystemId, link_name: &str) {
        let from_root = self.systems[from.0].root;
        let to_root = self.systems[to.0].root;
        store::attach(world.state_mut(), from_root, link_name, to_root, false);
        self.links.push((from, to, Name::new(link_name)));
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::instant(
                "scheme",
                format!(
                    "federation cross-link sys{} -> sys{} as {link_name}",
                    from.0, to.0
                ),
                Vec::new(),
            );
        }
    }

    /// The link name under which `to` is attached in `from`, if linked.
    pub fn link_name(&self, from: SystemId, to: SystemId) -> Option<Name> {
        self.links
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, n)| *n)
    }

    /// The human prefix-mapping closure of §7: rewrites an absolute name
    /// meaningful in `to` (e.g. `/users/alice`) into the name a `from`
    /// activity must use (`/org2/users/alice`).
    ///
    /// Returns `None` when there is no link or the name is not absolute —
    /// then no human mapping can help.
    pub fn map_across(
        &self,
        from: SystemId,
        to: SystemId,
        name: &CompoundName,
    ) -> Option<CompoundName> {
        if from == to {
            return Some(name.clone());
        }
        let link = self.link_name(from, to)?;
        if !name.is_absolute() {
            return None;
        }
        let mut comps = vec![Name::root(), link];
        comps.extend(name.components()[1..].iter().copied());
        let mapped = CompoundName::new(comps).ok()?;
        naming_telemetry::counter!("scheme.federation.mapped").bump();
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::instant(
                "scheme",
                format!("federation map {name} -> {mapped}"),
                Vec::new(),
            );
        }
        Some(mapped)
    }

    /// Attaches a shared name space under the *same* name in every listed
    /// system — the §7 architecture: "such a shared name space should be
    /// attached by a common name to the contexts of activities in the
    /// scope." Names under the common prefix become coherent across the
    /// scope.
    pub fn attach_shared_space(
        &self,
        world: &mut World,
        systems: &[SystemId],
        common_name: &str,
        space_root: ObjectId,
    ) {
        for &sys in systems {
            store::attach(
                world.state_mut(),
                self.systems[sys.0].root,
                common_name,
                space_root,
                false,
            );
        }
    }

    /// Registers the names the coherence audit should check.
    pub fn set_audit_names(&mut self, names: Vec<CompoundName>) {
        self.audit_names = names;
    }

    /// Counts, for a batch of cross-scope references `(from, to, name)`,
    /// how many resolve as-is (coherent without help), how many need the
    /// human prefix mapping, and how many are unreachable even with it.
    pub fn mapping_burden(
        &self,
        world: &World,
        refs: &[(SystemId, SystemId, CompoundName)],
    ) -> MappingBurden {
        let mut burden = MappingBurden::default();
        for (from, to, name) in refs {
            // What the name means at home (in `to`).
            let meant =
                store::resolve_path(world.state(), self.systems[to.0].root, &name.to_string());
            let raw =
                store::resolve_path(world.state(), self.systems[from.0].root, &name.to_string());
            if meant.is_defined() && raw == meant {
                burden.coherent += 1;
                continue;
            }
            match self.map_across(*from, *to, name) {
                Some(mapped) => {
                    let via_map = store::resolve_path(
                        world.state(),
                        self.systems[from.0].root,
                        &mapped.to_string(),
                    );
                    if meant.is_defined() && via_map == meant {
                        burden.needs_mapping += 1;
                    } else {
                        burden.unreachable += 1;
                    }
                }
                None => burden.unreachable += 1,
            }
        }
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::instant(
                "scheme",
                format!(
                    "federation mapping burden: {} coherent, {} mapped, {} unreachable",
                    burden.coherent, burden.needs_mapping, burden.unreachable
                ),
                Vec::new(),
            );
        }
        burden
    }
}

impl Default for Federation {
    fn default() -> Federation {
        Federation::new()
    }
}

/// How cross-scope references fared (see [`Federation::mapping_burden`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappingBurden {
    /// References that resolved identically without mapping (accidentally
    /// shared prefixes, or intra-system references).
    pub coherent: usize,
    /// References a human had to rewrite with the link prefix.
    pub needs_mapping: usize,
    /// References no prefix mapping could fix (no link, relative names).
    pub unreachable: usize,
}

impl MappingBurden {
    /// Total references examined.
    pub fn total(&self) -> usize {
        self.coherent + self.needs_mapping + self.unreachable
    }
}

impl InstalledScheme for Federation {
    fn scheme_name(&self) -> &'static str {
        "federated-cross-links"
    }

    fn participants(&self, _world: &World) -> Vec<ActivityId> {
        self.systems
            .iter()
            .flat_map(|s| s.processes.clone())
            .collect()
    }

    fn audit_names(&self, _world: &World) -> Vec<CompoundName> {
        self.audit_names.clone()
    }
}

/// Builds the two-organization scenario of §7: `org1` and `org2`, each with
/// `/users/<user>/profile` homes, cross-linked both ways (`/org2` in org1,
/// `/org1` in org2), one process each.
pub fn two_orgs(world: &mut World) -> (Federation, SystemId, SystemId) {
    let net = world.add_network("inter-org");
    let m1 = world.add_machine("org1-host", net);
    let m2 = world.add_machine("org2-host", net);
    let mut fed = Federation::new();
    let org1 = fed.add_system(world, "org1", &[m1]);
    let org2 = fed.add_system(world, "org2", &[m2]);
    for (sys, users) in [(org1, ["alice", "ann"]), (org2, ["bob", "beth"])] {
        let root = fed.root(sys);
        let users_dir = store::ensure_dir(world.state_mut(), root, "users");
        for u in users {
            let home = store::ensure_dir(world.state_mut(), users_dir, u);
            store::create_file(world.state_mut(), home, "profile", u.as_bytes().to_vec());
        }
    }
    fed.cross_link(world, org1, org2, "org2");
    fed.cross_link(world, org2, org1, "org1");
    fed.spawn(world, org1, "p1");
    fed.spawn(world, org2, "p2");
    (fed, org1, org2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::audit_scheme;
    use naming_core::entity::Entity;

    #[test]
    fn systems_are_autonomous() {
        let mut w = World::new(21);
        let (fed, org1, org2) = two_orgs(&mut w);
        // "/users/alice/profile" means different things in the two systems.
        let p1 = fed.processes(org1)[0];
        let p2 = fed.processes(org2)[0];
        let alice = CompoundName::parse_path("/users/alice/profile").unwrap();
        let in1 = w.resolve_in_own_context(p1, &alice);
        let in2 = w.resolve_in_own_context(p2, &alice);
        assert!(in1.is_defined());
        assert_eq!(in2, Entity::Undefined, "org2 has no alice");
        assert_eq!(fed.system_name(org1), "org1");
        assert_eq!(fed.machines(org2).len(), 1);
    }

    #[test]
    fn cross_links_reach_remote_graphs() {
        let mut w = World::new(21);
        let (fed, org1, org2) = two_orgs(&mut w);
        let p1 = fed.processes(org1)[0];
        let via_link = CompoundName::parse_path("/org2/users/bob/profile").unwrap();
        let got = w.resolve_in_own_context(p1, &via_link);
        let bob_home = store::resolve_path(w.state(), fed.root(org2), "/users/bob/profile");
        assert_eq!(got, bob_home);
        assert!(got.is_defined());
    }

    #[test]
    fn prefix_mapping_is_the_human_closure() {
        let mut w = World::new(21);
        let (fed, org1, org2) = two_orgs(&mut w);
        let p1 = fed.processes(org1)[0];
        let bob = CompoundName::parse_path("/users/bob/profile").unwrap();
        // Unmapped, org1's process gets the wrong meaning (⊥ here).
        assert_eq!(w.resolve_in_own_context(p1, &bob), Entity::Undefined);
        // Mapped with the /org2 prefix, it reaches what org2 meant.
        let mapped = fed.map_across(org1, org2, &bob).unwrap();
        assert_eq!(mapped.to_string(), "/org2/users/bob/profile");
        let meant = store::resolve_path(w.state(), fed.root(org2), "/users/bob/profile");
        assert_eq!(w.resolve_in_own_context(p1, &mapped), meant);
        // Identity within a system; no mapping without a link or for
        // relative names.
        assert_eq!(fed.map_across(org1, org1, &bob).unwrap(), bob);
        assert!(fed
            .map_across(org1, org2, &CompoundName::parse_path("x").unwrap())
            .is_none());
    }

    #[test]
    fn audit_shows_incoherence_for_unshared_names() {
        let mut w = World::new(21);
        let (mut fed, _org1, _org2) = two_orgs(&mut w);
        fed.set_audit_names(vec![
            CompoundName::parse_path("/users/alice/profile").unwrap(),
            CompoundName::parse_path("/users/bob/profile").unwrap(),
        ]);
        let audit = audit_scheme(&w, &fed);
        assert_eq!(audit.stats.incoherent, 2);
        assert_eq!(audit.stats.coherent, 0);
    }

    #[test]
    fn shared_space_restores_coherence_under_common_name() {
        let mut w = World::new(21);
        let (mut fed, org1, org2) = two_orgs(&mut w);
        // A services name space attached as /services in both systems (§7).
        let services = w.state_mut().add_context_object("services:/");
        let printing = store::ensure_dir(w.state_mut(), services, "printing");
        store::create_file(w.state_mut(), printing, "queue", vec![]);
        fed.attach_shared_space(&mut w, &[org1, org2], "services", services);
        fed.set_audit_names(vec![
            CompoundName::parse_path("/services/printing/queue").unwrap()
        ]);
        let audit = audit_scheme(&w, &fed);
        assert_eq!(audit.stats.coherent, 1);
    }

    #[test]
    fn mapping_burden_classifies_references() {
        let mut w = World::new(21);
        let (fed, org1, org2) = two_orgs(&mut w);
        // A shared space gives some coherent-without-help names.
        let services = w.state_mut().add_context_object("services:/");
        store::create_file(w.state_mut(), services, "dns", vec![]);
        fed.attach_shared_space(&mut w, &[org1, org2], "services", services);
        let refs = vec![
            // Shared-space name: coherent as-is.
            (
                org1,
                org2,
                CompoundName::parse_path("/services/dns").unwrap(),
            ),
            // org2-local name: needs the /org2 prefix.
            (
                org1,
                org2,
                CompoundName::parse_path("/users/bob/profile").unwrap(),
            ),
            // Nonexistent name: unreachable either way.
            (
                org1,
                org2,
                CompoundName::parse_path("/users/zoe/profile").unwrap(),
            ),
        ];
        let burden = fed.mapping_burden(&w, &refs);
        assert_eq!(burden.coherent, 1);
        assert_eq!(burden.needs_mapping, 1);
        assert_eq!(burden.unreachable, 1);
        assert_eq!(burden.total(), 3);
    }
}
