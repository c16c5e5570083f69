//! The simulated distributed system: machines, processes, messages, and
//! the naming state they share.
//!
//! [`World`] owns a [`SystemState`] (the σ function), a [`ContextRegistry`]
//! (the `R(a)`/`R(o)` associations), a [`Topology`] (machines, networks,
//! addresses), the process table, and a deterministic event queue for
//! message delivery. Naming schemes (crate `naming-schemes`) configure the
//! world — build directory trees, assign per-process contexts — and
//! experiments drive it.

use std::collections::VecDeque;

use naming_core::closure::{ContextRegistry, MetaContext, NameSource, ResolutionRule};
use naming_core::context::Context;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::hash::FxHashMap;
use naming_core::name::{CompoundName, Name};
use naming_core::replica::ReplicaRegistry;
use naming_core::resolve::Resolver;
use naming_core::state::{ObjectState, SystemState};

use crate::event::EventQueue;
use crate::message::{Message, Parts, Payload};
use crate::rng::SimRng;
use crate::time::VirtualTime;
use crate::topology::{MachineId, NetworkId, Topology};
use crate::trace::{TraceEvent, TraceLog};

/// A process's stable address local to its machine (nonzero; `0` is the
/// PQID wildcard).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalAddr(u32);

impl LocalAddr {
    /// The raw value.
    pub fn value(self) -> u32 {
        self.0
    }
}

#[derive(Clone, Debug)]
struct ProcessInfo {
    machine: MachineId,
    parent: Option<ActivityId>,
    ctx: ObjectId,
    local_addr: LocalAddr,
    mailbox: VecDeque<Message>,
    /// Timer tokens whose wake events have fired, awaiting
    /// [`World::take_wake`].
    wakes: VecDeque<u64>,
    alive: bool,
}

#[derive(Clone, Debug)]
struct MachineState {
    root: ObjectId,
    next_local_addr: u32,
}

/// A deadline timer: at its scheduled time, `token` lands in `pid`'s wake
/// queue — if its sequence number is still the token's live arming.
#[derive(Clone, Copy, Debug)]
struct Timer {
    pid: ActivityId,
    token: u64,
}

/// What one [`World::step_event`] did, so a driver can handle exactly the
/// process the event touched instead of polling every mailbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stepped {
    /// A message reached this process: it is in the mailbox now, unless
    /// the process is dead (then it was dropped and counted).
    Delivered(ActivityId),
    /// A deadline timer fired: its token is in this process's wake queue.
    Woke(ActivityId),
}

/// Fault-injection configuration: lossy delivery and severed links.
///
/// The paper's schemes must keep names meaningful across an unreliable
/// substrate; fault injection lets tests exercise retry/re-registration
/// paths (e.g. the PQID registry test re-registering after loss).
#[derive(Clone, Debug, Default)]
struct FaultPlan {
    /// Probability that a message is lost in transit.
    drop_rate: f64,
    /// Severed machine pairs (stored with the smaller id first).
    down_links: std::collections::BTreeSet<(MachineId, MachineId)>,
}

impl FaultPlan {
    fn link_key(a: MachineId, b: MachineId) -> (MachineId, MachineId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// The simulated world.
///
/// # Examples
///
/// ```
/// use naming_sim::world::World;
///
/// let mut world = World::new(42);
/// let net = world.add_network("lab");
/// let host = world.add_machine("host-a", net);
/// let shell = world.spawn(host, "shell", None);
/// assert_eq!(world.machine_of(shell), host);
/// ```
#[derive(Clone, Debug)]
pub struct World {
    state: SystemState,
    registry: ContextRegistry,
    replicas: ReplicaRegistry,
    topology: Topology,
    machines: Vec<MachineState>,
    /// Indexed by `ActivityId::index()` (ids are dense, handed out by
    /// [`SystemState::add_activity`]); `None` for an activity that was
    /// never spawned as a process here.
    processes: Vec<Option<ProcessInfo>>,
    clock: VirtualTime,
    /// Messages in flight and, apart, the deadline timers — most die young,
    /// and the message heap would carry each to its deadline. One counter
    /// numbers both: [`World::step_event`] merges them by `(time, seq)`.
    queue: EventQueue<Message>,
    timers: EventQueue<Timer>,
    next_seq: u64,
    rng: SimRng,
    trace: TraceLog,
    faults: FaultPlan,
    /// Live timers: token → the arming (its event's sequence number) whose
    /// queued event may still fire. Cancelling removes the entry, firing
    /// removes it, re-arming replaces it — so the set holds exactly the
    /// timers that are pending and nothing accumulates. A queued timer
    /// that is no longer live is dead: dropped once the dead outnumber the
    /// live, or skipped *silently* when popped — no clock advance, no
    /// step — so timers that never fire leave the timeline byte-identical
    /// to a world that never scheduled them.
    live_timers: FxHashMap<u64, u64>,
    /// Messages scheduled for delivery and not yet delivered.
    in_flight: usize,
}

impl World {
    /// Creates an empty world with the given random seed (single-shard
    /// naming state).
    pub fn new(seed: u64) -> World {
        World::with_shards(seed, 1)
    }

    /// Creates an empty world whose naming state is split into `shards`
    /// independently versioned shards (see
    /// [`SystemState::with_shards`]). Use
    /// [`SystemState::set_default_shard`] via [`World::state_mut`] to
    /// route each zone's objects to its own shard.
    ///
    /// # Panics
    ///
    /// Panics like [`SystemState::with_shards`].
    pub fn with_shards(seed: u64, shards: usize) -> World {
        World {
            state: SystemState::with_shards(shards),
            registry: ContextRegistry::new(),
            replicas: ReplicaRegistry::new(),
            topology: Topology::new(),
            machines: Vec::new(),
            processes: Vec::new(),
            clock: VirtualTime::ZERO,
            queue: EventQueue::new(),
            timers: EventQueue::new(),
            next_seq: 0,
            rng: SimRng::seeded(seed),
            trace: TraceLog::counters_only(),
            faults: FaultPlan::default(),
            live_timers: FxHashMap::default(),
            in_flight: 0,
        }
    }

    fn process(&self, pid: ActivityId) -> Option<&ProcessInfo> {
        self.processes.get(pid.index())?.as_ref()
    }

    fn process_mut(&mut self, pid: ActivityId) -> Option<&mut ProcessInfo> {
        self.processes.get_mut(pid.index())?.as_mut()
    }

    fn spawned(&self, pid: ActivityId) -> &ProcessInfo {
        self.process(pid).expect("pid was spawned in this world")
    }

    /// The spawned processes with their ids, in pid order.
    fn process_table(&self) -> impl Iterator<Item = (ActivityId, &ProcessInfo)> {
        self.processes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((ActivityId::from_index(i as u32), p.as_ref()?)))
    }

    // --- telemetry ---------------------------------------------------------

    /// Keeps an installed recorder's virtual clock in step with the
    /// world's, so resolutions and simulator events land on one timeline.
    #[cfg(feature = "telemetry")]
    fn sync_clock(&self) {
        naming_telemetry::recorder::set_clock(self.clock.ticks());
    }

    /// Emits a `message` span covering the virtual-time transit of a
    /// delivered message.
    #[cfg(feature = "telemetry")]
    fn observe_delivery(&self, msg: &Message) {
        let fm = self.spawned(msg.from).machine;
        let tm = self.spawned(msg.to).machine;
        naming_telemetry::recorder::span(
            "message",
            format!(
                "{} -> {}",
                self.state.activity_label(msg.from),
                self.state.activity_label(msg.to)
            ),
            msg.sent_at.ticks(),
            self.clock.ticks(),
            vec![
                (
                    "from_machine".into(),
                    self.topology.machine_name(fm).to_string(),
                ),
                (
                    "to_machine".into(),
                    self.topology.machine_name(tm).to_string(),
                ),
                ("names".into(), msg.name_count().to_string()),
            ],
        );
    }

    /// Emits a `message` instant for a message that never reached its
    /// receiver (`why` is `"lost"`, `"unroutable"`, or `"dropped"`).
    #[cfg(feature = "telemetry")]
    fn observe_undelivered(&self, why: &str, from: ActivityId, to: ActivityId) {
        if naming_telemetry::recorder::is_active() {
            self.sync_clock();
            naming_telemetry::recorder::instant(
                "message",
                format!(
                    "{why}: {} -> {}",
                    self.state.activity_label(from),
                    self.state.activity_label(to)
                ),
                Vec::new(),
            );
        }
    }

    // --- fault injection ---------------------------------------------------

    /// Sets the probability that any message is lost in transit
    /// (clamped to `[0, 1]`; default 0). Losses bump the `lost` trace
    /// counter.
    ///
    /// `NaN` normalizes to 0: `f64::clamp` propagates NaN, and a NaN
    /// drop rate would silently disable fault injection (every
    /// `chance(NaN)` comparison is false) while *looking* configured.
    pub fn set_message_drop_rate(&mut self, p: f64) {
        self.faults.drop_rate = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    }

    /// Severs or restores the (symmetric) link between two machines.
    /// Messages sent while the link is down are counted as `unroutable`
    /// and never delivered. Intra-machine messages cannot be severed.
    pub fn set_link_up(&mut self, a: MachineId, b: MachineId, up: bool) {
        let key = FaultPlan::link_key(a, b);
        if up {
            self.faults.down_links.remove(&key);
        } else if a != b {
            self.faults.down_links.insert(key);
        }
    }

    /// True if the link between the two machines is currently usable.
    pub fn link_up(&self, a: MachineId, b: MachineId) -> bool {
        a == b || !self.faults.down_links.contains(&FaultPlan::link_key(a, b))
    }

    // --- raw access for schemes and experiments ---------------------------

    /// The naming state (σ).
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Mutable naming state.
    pub fn state_mut(&mut self) -> &mut SystemState {
        &mut self.state
    }

    /// The context registry (the stored `R(a)` / `R(o)` maps).
    pub fn registry(&self) -> &ContextRegistry {
        &self.registry
    }

    /// Mutable context registry.
    pub fn registry_mut(&mut self) -> &mut ContextRegistry {
        &mut self.registry
    }

    /// The replica registry for weak coherence.
    pub fn replicas(&self) -> &ReplicaRegistry {
        &self.replicas
    }

    /// Mutable replica registry.
    pub fn replicas_mut(&mut self) -> &mut ReplicaRegistry {
        &mut self.replicas
    }

    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology (renumbering experiments).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace log.
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The world's RNG.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    // --- topology ----------------------------------------------------------

    /// Adds a network.
    pub fn add_network(&mut self, name: impl Into<String>) -> NetworkId {
        self.topology.add_network(name)
    }

    /// Renumbers a machine to a fresh address (relocation /
    /// reconfiguration), tracing the event. Returns the new address.
    pub fn renumber_machine(&mut self, m: MachineId) -> crate::topology::MachineAddr {
        let fresh = self.topology.fresh_machine_addr();
        let old = self.topology.renumber_machine(m, fresh);
        let what = format!(
            "machine {} {} -> {}",
            self.topology.machine_name(m),
            old,
            fresh
        );
        #[cfg(feature = "telemetry")]
        if naming_telemetry::recorder::is_active() {
            self.sync_clock();
            naming_telemetry::recorder::instant("sim", format!("renumber {what}"), Vec::new());
        }
        self.trace
            .record(self.clock, TraceEvent::Renumbered { what });
        fresh
    }

    /// Renumbers a network to a fresh address, tracing the event. Returns
    /// the new address.
    pub fn renumber_network(&mut self, n: NetworkId) -> crate::topology::NetAddr {
        let fresh = self.topology.fresh_net_addr();
        let old = self.topology.renumber_network(n, fresh);
        let what = format!(
            "network {} {} -> {}",
            self.topology.network_name(n),
            old,
            fresh
        );
        #[cfg(feature = "telemetry")]
        if naming_telemetry::recorder::is_active() {
            self.sync_clock();
            naming_telemetry::recorder::instant("sim", format!("renumber {what}"), Vec::new());
        }
        self.trace
            .record(self.clock, TraceEvent::Renumbered { what });
        fresh
    }

    /// Adds a machine on `network`, creating its root directory (a context
    /// object with a self-binding for `/`).
    pub fn add_machine(&mut self, name: impl Into<String>, network: NetworkId) -> MachineId {
        let name = name.into();
        let id = self.topology.add_machine(name.clone(), network);
        let root = self.state.add_context_object(format!("{name}:/"));
        self.state
            .bind(root, Name::root(), root)
            .expect("fresh root is a context");
        self.machines.push(MachineState {
            root,
            next_local_addr: 0,
        });
        id
    }

    /// The root directory object of a machine.
    pub fn machine_root(&self, m: MachineId) -> ObjectId {
        self.machines[m.0].root
    }

    /// Replaces the root directory object of a machine (used by schemes
    /// that graft machine trees under a superroot).
    pub fn set_machine_root(&mut self, m: MachineId, root: ObjectId) {
        self.machines[m.0].root = root;
    }

    // --- processes ---------------------------------------------------------

    /// Spawns a process on `machine`.
    ///
    /// With a parent, the child *inherits a copy* of the parent's context —
    /// "a child inherits the context of its parent. A parent and a child
    /// have coherence for all names until one of them modifies its context"
    /// (§5.1). Without a parent, the context starts with `/` and `.` bound
    /// to the machine root.
    pub fn spawn(
        &mut self,
        machine: MachineId,
        label: impl Into<String>,
        parent: Option<ActivityId>,
    ) -> ActivityId {
        let pid = self.state.add_activity(label);
        let ctx_contents: Context = match parent {
            Some(p) => {
                let pctx = self.spawned(p).ctx;
                self.state
                    .context(pctx)
                    .expect("parent context object")
                    .inherit()
            }
            None => {
                let root = self.machines[machine.0].root;
                Context::from_bindings([
                    (Name::root(), Entity::Object(root)),
                    (Name::self_(), Entity::Object(root)),
                ])
            }
        };
        let ctx = self.state.add_object(
            format!("ctx:{}", self.state.activity_label(pid)),
            ObjectState::Context(ctx_contents),
        );
        self.registry.set_activity_context(pid, ctx);
        let m = &mut self.machines[machine.0];
        m.next_local_addr += 1;
        let local_addr = LocalAddr(m.next_local_addr);
        if self.processes.len() <= pid.index() {
            self.processes.resize_with(pid.index() + 1, || None);
        }
        self.processes[pid.index()] = Some(ProcessInfo {
            machine,
            parent,
            ctx,
            local_addr,
            mailbox: VecDeque::new(),
            wakes: VecDeque::new(),
            alive: true,
        });
        self.state.activity_state_mut(pid).tag = machine.0 as u64;
        self.trace
            .record(self.clock, TraceEvent::Spawned { pid, parent });
        #[cfg(feature = "telemetry")]
        if naming_telemetry::recorder::is_active() {
            self.sync_clock();
            naming_telemetry::recorder::instant(
                "sim",
                format!("spawn {}", self.state.activity_label(pid)),
                vec![(
                    "machine".into(),
                    self.topology.machine_name(machine).to_string(),
                )],
            );
        }
        pid
    }

    /// Terminates a process (it keeps its ids but stops receiving).
    pub fn kill(&mut self, pid: ActivityId) {
        if let Some(p) = self.process_mut(pid) {
            p.alive = false;
        }
        self.state.activity_state_mut(pid).alive = false;
    }

    /// Restarts a killed process: it receives messages again, with an
    /// empty mailbox and no pending wakes — a crash loses everything that
    /// was queued, exactly like a real restart. The process keeps its
    /// ids, context, and local address. Reviving a live process is a
    /// no-op.
    pub fn revive(&mut self, pid: ActivityId) {
        if let Some(p) = self.process_mut(pid).filter(|p| !p.alive) {
            p.alive = true;
            p.mailbox.clear();
            p.wakes.clear();
            self.shed_timers(Some(pid));
            self.state.activity_state_mut(pid).alive = true;
            self.trace.bump("revived");
        }
    }

    /// True if the process is alive.
    pub fn is_alive(&self, pid: ActivityId) -> bool {
        self.process(pid).map(|p| p.alive).unwrap_or(false)
    }

    /// The machine hosting a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn machine_of(&self, pid: ActivityId) -> MachineId {
        self.spawned(pid).machine
    }

    /// The parent of a process, if any.
    pub fn parent_of(&self, pid: ActivityId) -> Option<ActivityId> {
        self.spawned(pid).parent
    }

    /// The process's per-activity context object (`R(pid)`).
    pub fn context_of(&self, pid: ActivityId) -> ObjectId {
        self.spawned(pid).ctx
    }

    /// The process's stable machine-local address.
    pub fn local_addr(&self, pid: ActivityId) -> LocalAddr {
        self.spawned(pid).local_addr
    }

    /// Finds the live process with the given local address on a machine.
    pub fn find_process(&self, machine: MachineId, addr: LocalAddr) -> Option<ActivityId> {
        self.process_table()
            .find(|(_, p)| p.machine == machine && p.local_addr == addr && p.alive)
            .map(|(pid, _)| pid)
    }

    /// All processes ever spawned, in pid order.
    pub fn processes(&self) -> impl Iterator<Item = ActivityId> + '_ {
        self.process_table().map(|(pid, _)| pid)
    }

    /// The live processes on a machine, in pid order.
    pub fn processes_on(&self, machine: MachineId) -> Vec<ActivityId> {
        self.process_table()
            .filter(|(_, p)| p.machine == machine && p.alive)
            .map(|(pid, _)| pid)
            .collect()
    }

    /// Binds `name` in a process's per-activity context.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn bind_for(&mut self, pid: ActivityId, name: Name, entity: impl Into<Entity>) {
        let ctx = self.spawned(pid).ctx;
        self.state
            .bind(ctx, name, entity)
            .expect("process context is a context object");
    }

    /// Looks `name` up in a process's per-activity context (single step).
    pub fn binding_of(&self, pid: ActivityId, name: Name) -> Entity {
        self.state.lookup(self.spawned(pid).ctx, name)
    }

    // --- resolution --------------------------------------------------------

    /// Resolves a name for a process under a resolution rule, tracing the
    /// outcome.
    pub fn resolve_as(
        &mut self,
        pid: ActivityId,
        name: &CompoundName,
        source: NameSource,
        rule: &dyn ResolutionRule,
    ) -> Entity {
        let m = MetaContext {
            resolver: pid,
            source,
        };
        // Core traces the resolution itself; keep its timestamps on the
        // simulated timeline.
        #[cfg(feature = "telemetry")]
        self.sync_clock();
        let entity =
            naming_core::closure::resolve_with_rule(&self.state, &self.registry, rule, &m, name);
        self.trace.record(
            self.clock,
            TraceEvent::Resolved {
                pid,
                name: name.clone(),
                source,
                entity,
            },
        );
        entity
    }

    /// Resolves a name directly in a process's own context (the ubiquitous
    /// `R(activity)` special case), without rule indirection.
    pub fn resolve_in_own_context(&self, pid: ActivityId, name: &CompoundName) -> Entity {
        Resolver::new().resolve_entity(&self.state, self.spawned(pid).ctx, name)
    }

    // --- messaging ---------------------------------------------------------

    /// Sends a message; delivery is scheduled after the topology's latency
    /// for the machine pair.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint was not spawned in this world.
    pub fn send(&mut self, from: ActivityId, to: ActivityId, parts: impl Into<Parts>) {
        let mut msg = Message::new(from, to, parts);
        msg.sent_at = self.clock;
        let (fm, tm) = (self.spawned(from).machine, self.spawned(to).machine);
        self.trace.record(
            self.clock,
            TraceEvent::MessageSent {
                from,
                to,
                names: msg.name_count(),
            },
        );
        // Wire-size accounting: framed payload bytes attempted on the
        // wire (counted even when the link or fault plan eats the
        // message — the sender still paid for them).
        let frame_bytes: u64 = msg
            .parts
            .iter()
            .map(|p| match p {
                Payload::Bytes(b) => b.len() as u64,
                Payload::Name(_) => 0,
            })
            .sum();
        if frame_bytes > 0 {
            self.trace.add("wire_bytes", frame_bytes);
        }
        if !self.link_up(fm, tm) {
            self.trace.bump("unroutable");
            #[cfg(feature = "telemetry")]
            self.observe_undelivered("unroutable", from, to);
            return;
        }
        if self.faults.drop_rate > 0.0 && self.rng.chance(self.faults.drop_rate) {
            self.trace.bump("lost");
            #[cfg(feature = "telemetry")]
            self.observe_undelivered("lost", from, to);
            return;
        }
        let latency = self.topology.latency(fm, tm);
        self.in_flight += 1;
        self.queue
            .schedule_seq(self.clock + latency, self.next_seq, msg);
        self.next_seq += 1;
    }

    /// Messages sent and still travelling: not lost, not yet delivered to
    /// (or dropped at) their destination. While this is zero nothing can
    /// reach any mailbox until somebody sends again — timers only wake
    /// their owners.
    pub fn messages_in_flight(&self) -> usize {
        self.in_flight
    }

    /// Schedules a deadline timer: after `after` elapses, `token` becomes
    /// available from [`World::take_wake`] for `pid`. Cancelled or
    /// dead-process wakes are skipped silently (no clock advance), so a
    /// timer that never fires costs nothing on the timeline. Scheduling a
    /// token that is already pending re-arms it: only the latest deadline
    /// fires.
    pub fn schedule_wake(&mut self, pid: ActivityId, after: crate::time::Duration, token: u64) {
        self.live_timers.insert(token, self.next_seq);
        self.timers
            .schedule_seq(self.clock + after, self.next_seq, Timer { pid, token });
        self.next_seq += 1;
        self.shed_timers(None);
    }

    /// Cancels a scheduled wake by token. Idempotent; cancelling a token
    /// that was never scheduled (or already fired) does nothing.
    pub fn cancel_wake(&mut self, token: u64) {
        self.live_timers.remove(&token);
        self.shed_timers(None);
    }

    /// Drops the dead timers once they outnumber the live (a run whose replies
    /// come in time sifts none to the top), or at once with all of `crashed`'s.
    fn shed_timers(&mut self, crashed: Option<ActivityId>) {
        if crashed.is_none() && self.timers.len() <= 2 * self.live_timers.len() {
            return;
        }
        let live = &mut self.live_timers;
        self.timers.retain(|seq, t| {
            let lost = Some(t.pid) == crashed;
            let alive = live.get(&t.token) == Some(&seq);
            if alive && lost {
                live.remove(&t.token);
            }
            alive && !lost
        });
    }

    /// Number of timers scheduled and neither fired nor cancelled yet.
    pub fn pending_timers(&self) -> usize {
        self.live_timers.len()
    }

    /// Takes the next fired-but-unconsumed wake token for a process.
    pub fn take_wake(&mut self, pid: ActivityId) -> Option<u64> {
        self.process_mut(pid)?.wakes.pop_front()
    }

    /// Takes *every* fired-but-unconsumed wake token for a process, in
    /// firing order. A reactor multiplexing many suspended resolutions on
    /// one process needs all deadline firings delivered so far, not just
    /// the front one — popping them one at a time interleaved with other
    /// bookkeeping risks missing tokens queued behind the first.
    pub fn drain_wakes(&mut self, pid: ActivityId) -> VecDeque<u64> {
        self.process_mut(pid)
            .map(|p| std::mem::take(&mut p.wakes))
            .unwrap_or_default()
    }

    /// Runs the next pending event, advancing the clock. Returns `false`
    /// when the queue is empty. See [`World::step_event`].
    pub fn step(&mut self) -> bool {
        self.step_event().is_some()
    }

    /// Runs the next pending event, advancing the clock, and reports which
    /// process it touched; `None` when the queue is empty. Cancelled wake
    /// timers are skipped without advancing the clock or counting as a
    /// step, so a lossless run with timers (all cancelled by on-time
    /// replies) is byte-identical to one without them.
    pub fn step_event(&mut self) -> Option<Stepped> {
        loop {
            let (time, seq) = match (self.timers.peek_key(), self.queue.peek_key()) {
                (Some(timer), delivery) if delivery.is_none_or(|d| timer < d) => timer,
                _ => break,
            };
            let (_, Timer { pid, token }) = self.timers.pop().expect("just peeked");
            if self.live_timers.get(&token) != Some(&seq) {
                continue; // cancelled, or superseded by a re-arming
            }
            self.live_timers.remove(&token);
            let Some(p) = self.process_mut(pid).filter(|p| p.alive) else {
                continue;
            };
            p.wakes.push_back(token);
            self.clock = time;
            self.trace.bump("wake");
            return Some(Stepped::Woke(pid));
        }
        let (time, msg) = self.queue.pop()?;
        self.clock = time;
        self.in_flight -= 1;
        let (from, to) = (msg.from, msg.to);
        #[cfg(feature = "telemetry")]
        if naming_telemetry::recorder::is_active() {
            self.sync_clock();
            if self.process(to).is_some_and(|p| p.alive) {
                self.observe_delivery(&msg);
            }
        }
        match self.process_mut(to) {
            Some(p) if p.alive => {
                p.mailbox.push_back(msg);
                self.trace
                    .record(self.clock, TraceEvent::MessageDelivered { from, to });
            }
            Some(_) => {
                self.trace.bump("dropped");
                #[cfg(feature = "telemetry")]
                self.observe_undelivered("dropped", from, to);
            }
            None => {}
        }
        Some(Stepped::Delivered(to))
    }

    /// Runs until the event queue is drained.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Takes the next delivered message from a process's mailbox.
    pub fn receive(&mut self, pid: ActivityId) -> Option<Message> {
        self.process_mut(pid)?.mailbox.pop_front()
    }

    /// Number of messages waiting in a process's mailbox.
    pub fn mailbox_len(&self, pid: ActivityId) -> usize {
        self.process(pid).map(|p| p.mailbox.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::closure::StandardRule;

    fn two_machine_world() -> (World, MachineId, MachineId) {
        let mut w = World::new(1);
        let net = w.add_network("lab");
        let m1 = w.add_machine("alpha", net);
        let m2 = w.add_machine("beta", net);
        (w, m1, m2)
    }

    #[test]
    fn machine_roots_are_self_bound() {
        let (w, m1, _) = two_machine_world();
        let root = w.machine_root(m1);
        assert_eq!(w.state().lookup(root, Name::root()), Entity::Object(root));
    }

    #[test]
    fn spawn_root_process_context() {
        let (mut w, m1, _) = two_machine_world();
        let p = w.spawn(m1, "init", None);
        assert_eq!(
            w.binding_of(p, Name::root()),
            Entity::Object(w.machine_root(m1))
        );
        assert_eq!(
            w.binding_of(p, Name::self_()),
            Entity::Object(w.machine_root(m1))
        );
        assert!(w.is_alive(p));
        assert_eq!(w.parent_of(p), None);
        assert_eq!(w.trace().counter("spawned"), 1);
    }

    #[test]
    fn child_inherits_parent_context() {
        let (mut w, m1, _) = two_machine_world();
        let parent = w.spawn(m1, "sh", None);
        let dir = w.state_mut().add_context_object("work");
        w.bind_for(parent, Name::new("work"), dir);
        let child = w.spawn(m1, "child", Some(parent));
        assert_eq!(w.binding_of(child, Name::new("work")), Entity::Object(dir));
        assert_eq!(w.parent_of(child), Some(parent));
        // Divergence after inheritance: rebinding in parent does not affect
        // the child.
        let dir2 = w.state_mut().add_context_object("work2");
        w.bind_for(parent, Name::new("work"), dir2);
        assert_eq!(w.binding_of(child, Name::new("work")), Entity::Object(dir));
    }

    #[test]
    fn local_addrs_are_per_machine_and_stable() {
        let (mut w, m1, m2) = two_machine_world();
        let p1 = w.spawn(m1, "a", None);
        let p2 = w.spawn(m1, "b", None);
        let q1 = w.spawn(m2, "c", None);
        assert_ne!(w.local_addr(p1), w.local_addr(p2));
        assert_eq!(w.local_addr(p1).value(), 1);
        assert_eq!(w.local_addr(q1).value(), 1); // per-machine counter
        assert_eq!(w.find_process(m1, w.local_addr(p2)), Some(p2));
        assert_eq!(w.find_process(m2, w.local_addr(q1)), Some(q1));
    }

    #[test]
    fn dead_processes_are_not_found() {
        let (mut w, m1, _) = two_machine_world();
        let p = w.spawn(m1, "a", None);
        let addr = w.local_addr(p);
        w.kill(p);
        assert!(!w.is_alive(p));
        assert_eq!(w.find_process(m1, addr), None);
        assert!(w.processes_on(m1).is_empty());
    }

    #[test]
    fn message_roundtrip_with_latency() {
        let (mut w, m1, m2) = two_machine_world();
        let a = w.spawn(m1, "client", None);
        let b = w.spawn(m2, "server", None);
        w.send(a, b, vec![Payload::bytes(&b"ping"[..])]);
        assert_eq!(w.mailbox_len(b), 0);
        assert!(w.step());
        assert_eq!(w.mailbox_len(b), 1);
        // Same-network latency applied.
        assert_eq!(w.now().ticks(), w.topology().latency_model().same_network);
        let msg = w.receive(b).unwrap();
        assert_eq!(msg.from, a);
        assert!(w.receive(b).is_none());
    }

    #[test]
    fn messages_to_dead_processes_are_dropped() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        w.send(a, b, vec![]);
        w.kill(b);
        w.run();
        assert_eq!(w.mailbox_len(b), 0);
        assert_eq!(w.trace().counter("dropped"), 1);
        assert_eq!(w.trace().counter("delivered"), 0);
    }

    #[test]
    fn wire_bytes_counts_framed_payloads_even_when_lost() {
        let mut w = World::new(7);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let a = w.spawn(m1, "a", None);
        let b = w.spawn(m1, "b", None);
        w.send(a, b, vec![Payload::bytes(vec![0u8; 10])]);
        w.send(
            a,
            b,
            vec![
                Payload::bytes(vec![0u8; 3]),
                Payload::name(CompoundName::parse_path("/etc").unwrap()),
            ],
        );
        assert_eq!(w.trace().counter("wire_bytes"), 13, "names are not bytes");
        // The sender pays for frames the network then loses.
        w.set_message_drop_rate(1.0);
        w.send(a, b, vec![Payload::bytes(vec![0u8; 5])]);
        assert_eq!(w.trace().counter("wire_bytes"), 18);
        assert_eq!(w.trace().counter("lost"), 1);
    }

    #[test]
    fn resolve_as_traces() {
        let (mut w, m1, _) = two_machine_world();
        let p = w.spawn(m1, "init", None);
        let root = w.machine_root(m1);
        let etc = w.state_mut().add_context_object("etc");
        w.state_mut().bind(root, Name::new("etc"), etc).unwrap();
        let n = CompoundName::parse_path("/etc").unwrap();
        let e = w.resolve_as(p, &n, NameSource::Internal, &StandardRule::OfResolver);
        assert_eq!(e, Entity::Object(etc));
        assert_eq!(w.trace().counter("resolved"), 1);
        assert_eq!(w.resolve_in_own_context(p, &n), Entity::Object(etc));
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        w.set_message_drop_rate(1.0);
        for _ in 0..5 {
            w.send(a, b, vec![]);
        }
        w.run();
        assert_eq!(w.mailbox_len(b), 0);
        assert_eq!(w.trace().counter("lost"), 5);
        // Restoring reliability restores delivery.
        w.set_message_drop_rate(0.0);
        w.send(a, b, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 1);
    }

    #[test]
    fn partial_loss_is_deterministic() {
        let counts: Vec<u64> = (0..2)
            .map(|_| {
                let (mut w, m1, m2) = two_machine_world();
                let a = w.spawn(m1, "x", None);
                let b = w.spawn(m2, "y", None);
                w.set_message_drop_rate(0.5);
                for _ in 0..40 {
                    w.send(a, b, vec![]);
                }
                w.run();
                w.trace().counter("delivered")
            })
            .collect();
        assert_eq!(counts[0], counts[1], "same seed, same losses");
        assert!(
            counts[0] > 5 && counts[0] < 35,
            "roughly half: {}",
            counts[0]
        );
    }

    #[test]
    fn severed_links_make_messages_unroutable() {
        let (mut w, m1, m2) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m2, "y", None);
        let c = w.spawn(m1, "z", None);
        assert!(w.link_up(m1, m2));
        w.set_link_up(m1, m2, false);
        assert!(!w.link_up(m1, m2));
        assert!(!w.link_up(m2, m1), "links are symmetric");
        w.send(a, b, vec![]);
        // Intra-machine traffic is unaffected.
        w.send(a, c, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 0);
        assert_eq!(w.mailbox_len(c), 1);
        assert_eq!(w.trace().counter("unroutable"), 1);
        // Healing the partition restores routing.
        w.set_link_up(m1, m2, true);
        w.send(a, b, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 1);
    }

    #[test]
    fn intra_machine_links_cannot_be_severed() {
        let (mut w, m1, _) = two_machine_world();
        w.set_link_up(m1, m1, false);
        assert!(w.link_up(m1, m1));
    }

    #[test]
    fn traced_renumbering() {
        let (mut w, m1, _) = two_machine_world();
        let old = w.topology().machine_addr(m1);
        let new = w.renumber_machine(m1);
        assert_ne!(old, new);
        assert_eq!(w.topology().machine_addr(m1), new);
        let net = w.topology().machine_network(m1);
        let old_net = w.topology().net_addr(net);
        let new_net = w.renumber_network(net);
        assert_ne!(old_net, new_net);
        assert_eq!(w.trace().counter("renumbered"), 2);
    }

    #[test]
    fn cloned_worlds_branch_deterministically() {
        // A cloned world is an independent what-if branch: both branches
        // evolve identically under identical inputs, and divergent inputs
        // do not leak across.
        let (mut w, m1, m2) = two_machine_world();
        let a = w.spawn(m1, "a", None);
        let b = w.spawn(m2, "b", None);
        w.send(a, b, vec![Payload::bytes(&b"x"[..])]);
        let mut fork = w.clone();
        // Same inputs → same outcomes.
        w.run();
        fork.run();
        assert_eq!(w.now(), fork.now());
        assert_eq!(w.mailbox_len(b), fork.mailbox_len(b));
        // Divergence stays contained.
        let dir = w.state_mut().add_context_object("only-in-w");
        w.bind_for(a, Name::new("d"), dir);
        assert_eq!(w.binding_of(a, Name::new("d")), Entity::Object(dir));
        assert_eq!(fork.binding_of(a, Name::new("d")), Entity::Undefined);
        assert!(fork.state().object_count() < w.state().object_count());
    }

    #[test]
    fn run_drains_queue() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        for _ in 0..5 {
            w.send(a, b, vec![]);
        }
        w.run();
        assert_eq!(w.mailbox_len(b), 5);
        assert!(!w.step());
    }

    #[test]
    fn messages_in_flight_counts_what_can_still_be_delivered() {
        let (mut w, m1, m2) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m2, "y", None);
        w.send(a, b, vec![]);
        w.send(b, a, vec![]);
        // A pending timer is not a message.
        w.schedule_wake(a, crate::time::Duration::from_ticks(1_000), 1);
        assert_eq!(w.messages_in_flight(), 2);
        // Neither is one the link or the fault plan ate.
        w.set_message_drop_rate(1.0);
        w.send(a, b, vec![]);
        w.set_message_drop_rate(0.0);
        w.set_link_up(m1, m2, false);
        w.send(a, b, vec![]);
        assert_eq!(w.messages_in_flight(), 2);
        // Delivery to a dead process still ends the journey.
        w.kill(b);
        assert!(w.step() && w.step());
        assert_eq!((w.messages_in_flight(), w.pending_timers()), (0, 1));
        assert_eq!((w.mailbox_len(a), w.mailbox_len(b)), (1, 0));
    }

    #[test]
    fn nan_drop_rate_is_normalized_to_zero() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        // NaN would pass straight through f64::clamp and make every
        // chance() comparison false, silently disabling fault injection
        // *and* making p=NaN behave like p=0 while reading like "drop
        // everything is broken". Normalize to 0.
        w.set_message_drop_rate(f64::NAN);
        w.set_message_drop_rate(-0.5);
        w.send(a, b, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 1);
        w.set_message_drop_rate(2.0); // clamps to 1.0: everything drops
        w.send(a, b, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 1);
    }

    #[test]
    fn wake_fires_after_duration() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        w.schedule_wake(a, crate::time::Duration::from_ticks(40), 7);
        assert_eq!(w.take_wake(a), None);
        assert!(w.step());
        assert_eq!(w.now(), VirtualTime::from_ticks(40));
        assert_eq!(w.take_wake(a), Some(7));
        assert_eq!(w.take_wake(a), None);
        assert!(!w.step());
    }

    #[test]
    fn drain_wakes_returns_all_fired_tokens_in_order() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        // Two timers at the same instant, one later: after two steps both
        // early tokens are queued and drain together, in firing order.
        w.schedule_wake(a, crate::time::Duration::from_ticks(10), 3);
        w.schedule_wake(a, crate::time::Duration::from_ticks(10), 5);
        w.schedule_wake(a, crate::time::Duration::from_ticks(20), 9);
        assert!(w.step());
        assert!(w.step());
        assert_eq!(w.drain_wakes(a), vec![3, 5]);
        assert!(w.drain_wakes(a).is_empty());
        assert!(w.step());
        assert_eq!(w.drain_wakes(a), vec![9]);
    }

    #[test]
    fn cancelled_wake_is_invisible_on_the_timeline() {
        // A lossless run that arms a timer per message and cancels it when
        // the message lands must be step-for-step identical to a run that
        // never armed one: same events, same clock at every step, same
        // trace counters — and no timer state left behind.
        let (mut w, m1, m2) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m2, "y", None);
        let mut plain = w.clone();

        for token in 0..4 {
            w.send(a, b, vec![]);
            w.schedule_wake(a, crate::time::Duration::from_ticks(5000), token);
            plain.send(a, b, vec![]);
        }
        assert_eq!(w.pending_timers(), 4);
        for token in 0..4 {
            let ev = w.step_event();
            assert_eq!(ev, Some(Stepped::Delivered(b)));
            assert_eq!(ev, plain.step_event());
            assert_eq!(w.now(), plain.now());
            w.cancel_wake(token);
        }
        assert_eq!(w.step_event(), None);
        assert_eq!(plain.step_event(), None);
        assert_eq!(w.now(), plain.now());
        assert_eq!(w.trace().to_string(), plain.trace().to_string());
        assert_eq!(w.pending_timers(), 0);
    }

    #[test]
    fn cancelling_leaves_no_residue() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let ticks = crate::time::Duration::from_ticks;
        // A token that was never scheduled.
        w.cancel_wake(7);
        assert_eq!(w.pending_timers(), 0);
        // A token that already fired.
        w.schedule_wake(a, ticks(10), 8);
        assert_eq!(w.step_event(), Some(Stepped::Woke(a)));
        assert_eq!(w.pending_timers(), 0);
        w.cancel_wake(8);
        assert_eq!(w.pending_timers(), 0);
        assert_eq!(w.drain_wakes(a), vec![8]);
        // Cancel, then reschedule the same token while the cancelled event
        // is still queued: only the new deadline fires, once.
        w.schedule_wake(a, ticks(10), 9);
        w.cancel_wake(9);
        w.schedule_wake(a, ticks(30), 9);
        assert_eq!(w.pending_timers(), 1);
        assert!(w.step());
        assert_eq!(w.now(), VirtualTime::from_ticks(40));
        assert_eq!(w.drain_wakes(a), vec![9]);
        assert!(!w.step());
        assert_eq!(w.pending_timers(), 0);
        // Re-arming without a cancel replaces the deadline too.
        w.schedule_wake(a, ticks(50), 9);
        w.schedule_wake(a, ticks(20), 9);
        w.run();
        assert_eq!(w.now(), VirtualTime::from_ticks(60));
        assert_eq!(w.drain_wakes(a), vec![9]);
        assert_eq!(w.pending_timers(), 0);
    }

    #[test]
    fn wake_for_dead_process_is_skipped() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        w.schedule_wake(a, crate::time::Duration::from_ticks(10), 1);
        w.kill(a);
        assert!(!w.step());
        assert_eq!(w.now(), VirtualTime::ZERO);
        assert_eq!(w.pending_timers(), 0);
    }

    #[test]
    fn a_crash_loses_the_timers_armed_before_it() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        let ticks = crate::time::Duration::from_ticks;
        w.schedule_wake(a, ticks(10), 1);
        w.schedule_wake(a, ticks(20), 2);
        w.cancel_wake(2);
        w.schedule_wake(b, ticks(30), 3);
        w.kill(a);
        w.revive(a);
        // The restarted process has nothing pending; its neighbour's timer
        // is untouched.
        assert_eq!(w.pending_timers(), 1);
        assert_eq!(w.step_event(), Some(Stepped::Woke(b)));
        assert_eq!(w.now(), VirtualTime::from_ticks(30));
        assert_eq!(w.step_event(), None);
        assert_eq!(w.take_wake(a), None);
        // Its tokens are free to arm again.
        w.schedule_wake(a, ticks(5), 1);
        assert_eq!(w.step_event(), Some(Stepped::Woke(a)));
        assert_eq!((w.take_wake(a), w.pending_timers()), (Some(1), 0));
    }

    #[test]
    fn revive_restores_delivery_with_empty_mailbox() {
        let (mut w, m1, _) = two_machine_world();
        let a = w.spawn(m1, "x", None);
        let b = w.spawn(m1, "y", None);
        w.send(a, b, vec![]);
        w.kill(b);
        w.run(); // in-flight message dropped at the dead process
        assert_eq!(w.trace().counter("dropped"), 1);
        w.revive(b);
        assert_eq!(w.mailbox_len(b), 0);
        w.send(a, b, vec![]);
        w.run();
        assert_eq!(w.mailbox_len(b), 1);
        assert_eq!(w.trace().counter("revived"), 1);
    }
}
