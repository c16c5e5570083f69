//! The remote-execution service.
//!
//! One exec server per machine. A parent calls
//! [`ExecService::remote_exec`]: its namespace table (the attachments of
//! its private root) is encoded into an [`crate::wire::ExecRequest`] and
//! shipped to the target machine's server, which spawns the child, builds
//! it a private root from the shipped table, attaches the *local* machine
//! tree, resolves the argument names in the child's new context, and
//! replies with the resolutions — a receipt the parent can compare against
//! its own meanings.
//!
//! This is the paper's §6 II payoff made operational: "in spite of not
//! having global names, the approach allows us to provide coherence for
//! names passed as parameters from a parent process to its remote child",
//! and the child can still "access files on both its local and its
//! parent's machines".

use std::collections::BTreeMap;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_sim::codec;
use naming_sim::message::Payload;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::{Stepped, World};

use crate::wire::{ExecReply, ExecRequest};

/// The outcome of a remote execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The child process, if the exec succeeded.
    pub child: Option<ActivityId>,
    /// The child's resolution of each argument (in request order).
    pub resolved_args: Vec<Entity>,
    /// Virtual time from request to reply.
    pub latency: Duration,
    /// Wire messages exchanged.
    pub messages: u64,
}

/// A per-machine remote-execution service with per-process namespaces.
#[derive(Debug)]
pub struct ExecService {
    servers: BTreeMap<MachineId, ActivityId>,
    next_id: u64,
    max_steps: usize,
}

impl ExecService {
    /// Spawns an exec server (`execd`) on each machine.
    pub fn install(world: &mut World, machines: &[MachineId]) -> ExecService {
        let mut servers = BTreeMap::new();
        for &m in machines {
            let label = format!("execd@{}", world.topology().machine_name(m));
            servers.insert(m, world.spawn(m, label, None));
        }
        ExecService {
            servers,
            next_id: 1,
            max_steps: 100_000,
        }
    }

    /// The exec server on a machine.
    ///
    /// # Panics
    ///
    /// Panics if no server was installed on `machine`.
    pub fn server_on(&self, machine: MachineId) -> ActivityId {
        self.servers[&machine]
    }

    /// Spawns a process with a fresh private namespace on `machine`: the
    /// machine's tree is attached under the machine's name and `/` denotes
    /// the private root (the Plan 9 / Waterloo Port discipline).
    pub fn spawn_with_namespace(
        &self,
        world: &mut World,
        machine: MachineId,
        label: &str,
    ) -> ActivityId {
        let pid = world.spawn(machine, label, None);
        let private = world.state_mut().add_context_object(format!("ns:{label}"));
        world
            .state_mut()
            .bind(private, Name::root(), private)
            .expect("fresh private root");
        let mname = world.topology().machine_name(machine).to_owned();
        let mroot = world.machine_root(machine);
        world
            .state_mut()
            .bind(private, Name::new(&mname), mroot)
            .expect("private root is a context");
        world.bind_for(pid, Name::root(), private);
        world.bind_for(pid, Name::self_(), private);
        pid
    }

    /// The namespace table of a process: every attachment of its private
    /// root except the `/` self-binding.
    pub fn namespace_of(&self, world: &World, pid: ActivityId) -> Vec<(Name, ObjectId)> {
        let Entity::Object(private) = world.binding_of(pid, Name::root()) else {
            return Vec::new();
        };
        let Some(ctx) = world.state().context(private) else {
            return Vec::new();
        };
        ctx.iter()
            .filter(|(n, _)| !n.is_root())
            .filter_map(|(n, e)| e.as_object().map(|o| (n, o)))
            .collect()
    }

    /// Executes `label` on `target` on behalf of `parent`, over the wire.
    ///
    /// The parent's namespace table travels in the request; the reply
    /// carries the child pid and its resolutions of `args`.
    pub fn remote_exec(
        &mut self,
        world: &mut World,
        parent: ActivityId,
        target: MachineId,
        label: &str,
        args: &[CompoundName],
    ) -> ExecOutcome {
        let out = self.remote_exec_impl(world, parent, target, label, args);
        naming_telemetry::counter!("exec.requests").bump();
        if out.child.is_none() {
            naming_telemetry::counter!("exec.failures").bump();
        }
        naming_telemetry::histogram!("exec.latency_ticks").record(out.latency.ticks());
        naming_telemetry::histogram!("exec.messages").record(out.messages);
        if naming_telemetry::recorder::is_active() {
            naming_telemetry::recorder::span(
                "exec",
                format!("exec {label} @ {}", world.topology().machine_name(target)),
                world.now().ticks() - out.latency.ticks(),
                world.now().ticks(),
                vec![
                    (
                        "parent".into(),
                        world.state().activity_label(parent).to_string(),
                    ),
                    ("args".into(), args.len().to_string()),
                    ("spawned".into(), out.child.is_some().to_string()),
                    ("messages".into(), out.messages.to_string()),
                ],
            );
        }
        out
    }

    /// The exec round trip itself, free of observation hooks.
    fn remote_exec_impl(
        &mut self,
        world: &mut World,
        parent: ActivityId,
        target: MachineId,
        label: &str,
        args: &[CompoundName],
    ) -> ExecOutcome {
        let id = self.next_id;
        self.next_id += 1;
        let sent0 = world.trace().counter("sent");
        let t0 = world.now();
        let req = ExecRequest {
            id,
            label: label.to_owned(),
            args: args.to_vec(),
            namespace: self.namespace_of(world, parent),
        };
        let server = self.server_on(target);
        // One sweep for mail the caller's own stepping delivered; after
        // that each event names the one server to look at.
        let servers: Vec<(MachineId, ActivityId)> =
            self.servers.iter().map(|(m, p)| (*m, *p)).collect();
        for (m, pid) in servers {
            self.drain_server(world, m, pid);
        }
        // A request the wire cannot carry is not sent: the exec fails as if
        // it had been lost.
        if let Some(frame) = codec::try_encode(&req) {
            world.send(parent, server, Payload::Bytes(frame));
        }

        let mut steps = 0usize;
        let reply = loop {
            if let Some(r) = self.take_reply(world, parent, id) {
                break r;
            }
            let stepped = if steps < self.max_steps {
                world.step_event()
            } else {
                None
            };
            let Some(ev) = stepped else {
                return ExecOutcome {
                    child: None,
                    resolved_args: Vec::new(),
                    latency: world.now() - t0,
                    messages: world.trace().counter("sent") - sent0,
                };
            };
            steps += 1;
            if let Stepped::Delivered(pid) = ev {
                let machine = world.machine_of(pid);
                if self.servers.get(&machine) == Some(&pid) {
                    self.drain_server(world, machine, pid);
                }
            }
            debug_assert!(
                self.servers.values().all(|&s| world.mailbox_len(s) == 0),
                "mail in an exec server mailbox no event pointed at"
            );
        };
        ExecOutcome {
            child: reply.child,
            resolved_args: reply.resolved_args,
            latency: world.now() - t0,
            messages: world.trace().counter("sent") - sent0,
        }
    }

    fn take_reply(&mut self, world: &mut World, parent: ActivityId, id: u64) -> Option<ExecReply> {
        while let Some(msg) = world.receive(parent) {
            for part in msg.parts {
                if let Payload::Bytes(b) = part {
                    if let Some(r) = ExecReply::decode(b) {
                        if r.id == id {
                            return Some(r);
                        }
                    }
                }
            }
        }
        None
    }

    fn drain_server(&mut self, world: &mut World, machine: MachineId, server: ActivityId) {
        while let Some(msg) = world.receive(server) {
            let from = msg.from;
            for part in msg.parts {
                let Payload::Bytes(b) = part else { continue };
                if let Some(req) = ExecRequest::decode(b) {
                    self.handle_exec(world, machine, server, from, req);
                }
            }
        }
    }

    fn handle_exec(
        &mut self,
        world: &mut World,
        machine: MachineId,
        server: ActivityId,
        requester: ActivityId,
        req: ExecRequest,
    ) {
        // Build the child's private root: the shipped table, plus the
        // local machine tree (which may shadow a same-named entry —
        // execution-site access wins, as in our §6 II scheme).
        let child = world.spawn(machine, req.label.clone(), None);
        let private = world
            .state_mut()
            .add_context_object(format!("ns:{}", req.label));
        world
            .state_mut()
            .bind(private, Name::root(), private)
            .expect("fresh private root");
        for (n, o) in &req.namespace {
            world
                .state_mut()
                .bind(private, *n, *o)
                .expect("private root is a context");
        }
        let mname = world.topology().machine_name(machine).to_owned();
        let mroot = world.machine_root(machine);
        world
            .state_mut()
            .bind(private, Name::new(&mname), mroot)
            .expect("private root is a context");
        world.bind_for(child, Name::root(), private);
        world.bind_for(child, Name::self_(), private);

        // Resolve the arguments in the child's context — the receipt.
        let resolved_args = req
            .args
            .iter()
            .map(|a| world.resolve_in_own_context(child, a))
            .collect();
        let reply = ExecReply {
            id: req.id,
            child: Some(child),
            resolved_args,
        };
        if let Some(frame) = codec::try_encode(&reply) {
            world.send(server, requester, Payload::Bytes(frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_sim::store;

    fn setup() -> (World, ExecService, Vec<MachineId>, ActivityId, ObjectId) {
        let mut w = World::new(91);
        let net = w.add_network("port");
        let home = w.add_machine("home", net);
        let server = w.add_machine("server", net);
        for &m in &[home, server] {
            let root = w.machine_root(m);
            let data = store::ensure_dir(w.state_mut(), root, "data");
            let tag = w.topology().machine_name(m).to_owned();
            store::create_file(w.state_mut(), data, "input", tag.into_bytes());
        }
        let mut svc = ExecService::install(&mut w, &[home, server]);
        let parent = svc.spawn_with_namespace(&mut w, home, "parent");
        let input = match store::resolve_path(w.state(), w.machine_root(home), "/data/input") {
            Entity::Object(o) => o,
            other => panic!("input missing: {other}"),
        };
        let _ = &mut svc;
        (w, svc, vec![home, server], parent, input)
    }

    #[test]
    fn arguments_stay_coherent_across_the_wire() {
        let (mut w, mut svc, machines, parent, input) = setup();
        let arg = CompoundName::parse_path("/home/data/input").unwrap();
        let meant = w.resolve_in_own_context(parent, &arg);
        assert_eq!(meant, Entity::Object(input));
        let out = svc.remote_exec(
            &mut w,
            parent,
            machines[1],
            "job",
            std::slice::from_ref(&arg),
        );
        let child = out.child.expect("spawned");
        assert_eq!(w.machine_of(child), machines[1]);
        // The receipt matches the parent's meaning…
        assert_eq!(out.resolved_args, vec![meant]);
        // …and so does a later resolution by the live child.
        assert_eq!(w.resolve_in_own_context(child, &arg), meant);
        // The exec cost a round trip.
        assert_eq!(out.messages, 2);
        assert!(out.latency.ticks() > 0);
    }

    #[test]
    fn child_reaches_execution_site_files() {
        let (mut w, mut svc, machines, parent, _) = setup();
        let out = svc.remote_exec(&mut w, parent, machines[1], "job", &[]);
        let child = out.child.unwrap();
        let local = CompoundName::parse_path("/server/data/input").unwrap();
        assert!(w.resolve_in_own_context(child, &local).is_defined());
        // The parent cannot (it never attached the server tree).
        assert_eq!(w.resolve_in_own_context(parent, &local), Entity::Undefined);
    }

    #[test]
    fn unresolvable_arguments_come_back_bottom() {
        let (mut w, mut svc, machines, parent, _) = setup();
        let bogus = CompoundName::parse_path("/nowhere/at/all").unwrap();
        let out = svc.remote_exec(&mut w, parent, machines[1], "job", &[bogus]);
        assert_eq!(out.resolved_args, vec![Entity::Undefined]);
    }

    #[test]
    fn lost_requests_fail_cleanly() {
        let (mut w, mut svc, machines, parent, _) = setup();
        w.set_message_drop_rate(1.0);
        let out = svc.remote_exec(&mut w, parent, machines[1], "job", &[]);
        assert_eq!(out.child, None);
    }

    #[test]
    fn exec_chains_preserve_meaning_two_hops() {
        let (mut w, mut svc, machines, parent, input) = setup();
        let net = w.topology().machine_network(machines[0]);
        let third = w.add_machine("third", net);
        let label = format!("execd@{}", w.topology().machine_name(third));
        let pid = w.spawn(third, label, None);
        svc.servers.insert(third, pid);
        let arg = CompoundName::parse_path("/home/data/input").unwrap();
        let hop1 = svc
            .remote_exec(
                &mut w,
                parent,
                machines[1],
                "hop1",
                std::slice::from_ref(&arg),
            )
            .child
            .unwrap();
        let hop2 = svc
            .remote_exec(&mut w, hop1, third, "hop2", std::slice::from_ref(&arg))
            .child
            .unwrap();
        assert_eq!(w.resolve_in_own_context(hop2, &arg), Entity::Object(input));
        // hop2 reaches all three machines' trees.
        for m in ["home", "server", "third"] {
            let n = CompoundName::parse_path(&format!("/{m}")).unwrap();
            assert!(w.resolve_in_own_context(hop2, &n).is_defined(), "{m}");
        }
    }

    #[test]
    fn namespace_of_reports_attachments() {
        let (w, svc, _machines, parent, _) = setup();
        let table = svc.namespace_of(&w, parent);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].0, Name::new("home"));
    }
}
