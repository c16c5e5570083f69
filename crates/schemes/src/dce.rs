//! OSF DCE naming (§5.2): a global directory service at `/...` and
//! per-machine *cell* contexts at `/.:`.
//!
//! "In the OSF DCE environment, the shared naming tree (called the Global
//! Directory Service) is attached in the local naming tree under '/...'.
//! DCE allows an additional local context called a cell which is accessed
//! via the name '/.:'. … Incoherence arises for names that are relative to
//! the cell context. An organization can have several cells, but a machine
//! is allowed to know of only one local cell."
//!
//! Experiment E6 measures exactly that: `/...`-names are coherent
//! organization-wide; `/.:`-names are coherent only within a cell.

use naming_core::entity::{ActivityId, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_sim::store;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::scheme::InstalledScheme;

/// The global-directory attachment name, `...`.
pub const GLOBAL_POINT: &str = "...";
/// The cell-context attachment name, `.:`.
pub const CELL_POINT: &str = ".:";

/// A DCE cell: an organizational unit with its own directory tree.
#[derive(Debug)]
pub struct Cell {
    name: String,
    root: ObjectId,
    machines: Vec<MachineId>,
}

impl Cell {
    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's directory root.
    pub fn root(&self) -> ObjectId {
        self.root
    }

    /// The machines that know this cell as their local cell.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }
}

/// A DCE-style environment: one global directory, several cells.
#[derive(Debug)]
pub struct Dce {
    global_root: ObjectId,
    cells: Vec<Cell>,
    processes: Vec<ActivityId>,
    audit_names: Vec<CompoundName>,
}

impl Dce {
    /// Installs DCE naming: creates the Global Directory Service tree, one
    /// cell tree per entry of `cells` (name, machines), attaches `/...` on
    /// every machine and `/.:` to the machine's (single) local cell, and
    /// links each cell into the global tree under `/.../<cell>` so cells
    /// are *also* reachable by global names.
    pub fn install(world: &mut World, cells: &[(&str, Vec<MachineId>)]) -> Dce {
        let global_root = world.state_mut().add_context_object("gds:/");
        let mut cell_handles = Vec::new();
        for (cname, machines) in cells {
            let croot = world
                .state_mut()
                .add_context_object(format!("cell:{cname}"));
            store::attach(world.state_mut(), global_root, cname, croot, false);
            for &m in machines {
                let mroot = world.machine_root(m);
                store::attach(world.state_mut(), mroot, GLOBAL_POINT, global_root, false);
                store::attach(world.state_mut(), mroot, CELL_POINT, croot, false);
            }
            cell_handles.push(Cell {
                name: (*cname).to_owned(),
                root: croot,
                machines: machines.clone(),
            });
        }
        Dce {
            global_root,
            cells: cell_handles,
            processes: Vec::new(),
            audit_names: Vec::new(),
        }
    }

    /// The Global Directory Service root.
    pub fn global_root(&self) -> ObjectId {
        self.global_root
    }

    /// The installed cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Spawns a process on `machine`.
    pub fn spawn(&mut self, world: &mut World, machine: MachineId, label: &str) -> ActivityId {
        let pid = world.spawn(machine, label, None);
        self.processes.push(pid);
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::instant(
                "scheme",
                format!("dce spawn {}", world.state().activity_label(pid)),
                Vec::new(),
            );
        }
        pid
    }

    /// Converts a cell-relative name (`/.:/x/y`) into the equivalent global
    /// name (`/.../<cell>/x/y`) — the fix a user applies when a
    /// cell-relative name must cross cells.
    ///
    /// Returns `None` if `name` is not cell-relative.
    pub fn globalize(&self, cell: &Cell, name: &CompoundName) -> Option<CompoundName> {
        let rest = name.strip_prefix(&[Name::root(), Name::new(CELL_POINT)])?;
        let mut comps = vec![Name::root(), Name::new(GLOBAL_POINT), Name::new(&cell.name)];
        comps.extend(rest.components().iter().copied());
        let global = CompoundName::new(comps).ok()?;
        naming_telemetry::counter!("scheme.dce.globalized").bump();
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::instant(
                "scheme",
                format!("dce globalize {name} -> {global}"),
                Vec::new(),
            );
        }
        Some(global)
    }

    /// True if the name is global (`/...`-prefixed).
    pub fn is_global(&self, name: &CompoundName) -> bool {
        name.has_prefix(&[Name::root(), Name::new(GLOBAL_POINT)])
    }

    /// Registers the names the coherence audit should check.
    pub fn set_audit_names(&mut self, names: Vec<CompoundName>) {
        self.audit_names = names;
    }
}

impl InstalledScheme for Dce {
    fn scheme_name(&self) -> &'static str {
        "osf-dce"
    }

    fn participants(&self, _world: &World) -> Vec<ActivityId> {
        self.processes.clone()
    }

    fn audit_names(&self, _world: &World) -> Vec<CompoundName> {
        self.audit_names.clone()
    }
}

/// Builds a two-cell organization: cells `research` and `sales`, two
/// machines each, a service `printer` registered in *both* cells (distinct
/// objects), and one process per machine.
pub fn two_cell_org(world: &mut World) -> (Dce, Vec<ActivityId>) {
    let net = world.add_network("org-net");
    let research: Vec<MachineId> = (0..2)
        .map(|i| world.add_machine(format!("research{i}"), net))
        .collect();
    let sales: Vec<MachineId> = (0..2)
        .map(|i| world.add_machine(format!("sales{i}"), net))
        .collect();
    let mut dce = Dce::install(
        world,
        &[("research", research.clone()), ("sales", sales.clone())],
    );
    for idx in 0..dce.cells.len() {
        let croot = dce.cells[idx].root;
        let svc = store::ensure_dir(world.state_mut(), croot, "services");
        store::create_file(world.state_mut(), svc, "printer", vec![idx as u8]);
    }
    let mut pids = Vec::new();
    for &m in research.iter().chain(sales.iter()) {
        let label = format!("p-{}", world.topology().machine_name(m));
        pids.push(dce.spawn(world, m, &label));
    }
    (dce, pids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::audit_scheme;
    use naming_core::entity::Entity;

    #[test]
    fn global_names_are_coherent_org_wide() {
        let mut w = World::new(9);
        let (mut dce, pids) = two_cell_org(&mut w);
        let global = CompoundName::parse_path("/.../research/services/printer").unwrap();
        assert!(dce.is_global(&global));
        let es: Vec<Entity> = pids
            .iter()
            .map(|&p| w.resolve_in_own_context(p, &global))
            .collect();
        assert!(es[0].is_defined());
        assert!(es.windows(2).all(|w| w[0] == w[1]));
        dce.set_audit_names(vec![global]);
        assert_eq!(audit_scheme(&w, &dce).stats.coherent, 1);
    }

    #[test]
    fn cell_relative_names_are_incoherent_across_cells() {
        let mut w = World::new(9);
        let (mut dce, pids) = two_cell_org(&mut w);
        let cell_rel = CompoundName::parse_path("/.:/services/printer").unwrap();
        assert!(!dce.is_global(&cell_rel));
        // Within a cell (pids 0,1 are research): coherent.
        assert_eq!(
            w.resolve_in_own_context(pids[0], &cell_rel),
            w.resolve_in_own_context(pids[1], &cell_rel)
        );
        // Across cells (pid 2 is sales): different printer.
        assert_ne!(
            w.resolve_in_own_context(pids[0], &cell_rel),
            w.resolve_in_own_context(pids[2], &cell_rel)
        );
        dce.set_audit_names(vec![cell_rel]);
        assert_eq!(audit_scheme(&w, &dce).stats.incoherent, 1);
    }

    #[test]
    fn globalize_restores_coherence() {
        let mut w = World::new(9);
        let (dce, pids) = two_cell_org(&mut w);
        let cell_rel = CompoundName::parse_path("/.:/services/printer").unwrap();
        // What a research process means by the cell-relative name…
        let meant = w.resolve_in_own_context(pids[0], &cell_rel);
        // …is recovered by a sales process via the globalized form.
        let global = dce.globalize(&dce.cells()[0], &cell_rel).unwrap();
        assert_eq!(global.to_string(), "/.../research/services/printer");
        assert_eq!(w.resolve_in_own_context(pids[2], &global), meant);
        // Non-cell-relative names do not globalize.
        assert!(dce
            .globalize(
                &dce.cells()[0],
                &CompoundName::parse_path("/tmp/x").unwrap()
            )
            .is_none());
    }

    #[test]
    fn machines_know_exactly_one_cell() {
        let mut w = World::new(9);
        let (dce, _pids) = two_cell_org(&mut w);
        // A research machine's `/.:` is the research cell root, not sales.
        let m = dce.cells()[0].machines()[0];
        let got = naming_sim::store::resolve_path(w.state(), w.machine_root(m), "/.:");
        assert_eq!(got, Entity::Object(dce.cells()[0].root()));
        assert_eq!(dce.cells()[0].name(), "research");
    }
}
