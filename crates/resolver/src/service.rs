//! The name service: per-machine name servers and object placement.
//!
//! In the paper's model, compound-name resolution traverses context
//! objects; in a distributed system those objects live on different
//! machines, so resolution is a *protocol*. [`NameService`] records which
//! machine hosts (is authoritative for) each object and runs one server
//! process per machine. A server resolves components while the current
//! context object is local and answers with a referral as soon as the path
//! crosses machines — the classic iterative name-server discipline.
//!
//! `authority_walk` is that rule, written once over a trie of names: the
//! servers run it with "go on in the zones held here", the worker pool of
//! [`crate::concurrent`] with "go on everywhere".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use naming_core::context::Context;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::hash::FxHashMap;
use naming_core::lease::ZoneSerial;
use naming_core::name::CompoundName;
use naming_core::resolve::DEFAULT_DEPTH_LIMIT;
use naming_core::state::{SystemState, LOCAL_BITS, MAX_SHARD_OBJECTS};
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::wire::{Label, NameTrie, Outcome, WalkScratch, ZoneRead};

/// Which machine is authoritative for each object: one flat table per
/// state shard, indexed by the object's shard-local index. Object ids are
/// dense within a shard, so a probe — several per hop of every request —
/// is two array reads whatever the namespace size. (A hash map keyed by
/// the id is not a substitute: the shard sits in the id's high bits, which
/// the multiplicative hasher never folds into the bucket index, so every
/// shard's objects pile onto the same buckets.)
#[derive(Debug, Default)]
struct Placement {
    /// `shards[shard][local]` is the machine id plus one; zero = unplaced.
    shards: Vec<Vec<u32>>,
}

impl Placement {
    /// An object id as (shard, shard-local index).
    fn split(obj: ObjectId) -> (usize, usize) {
        (obj.index() >> LOCAL_BITS, obj.index() % MAX_SHARD_OBJECTS)
    }

    fn get(&self, obj: ObjectId) -> Option<MachineId> {
        let (shard, local) = Placement::split(obj);
        match *self.shards.get(shard)?.get(local)? {
            0 => None,
            m => Some(MachineId(m as usize - 1)),
        }
    }

    fn insert(&mut self, obj: ObjectId, machine: MachineId) {
        let (shard, local) = Placement::split(obj);
        if self.shards.len() <= shard {
            self.shards.resize_with(shard + 1, Vec::new);
        }
        let table = &mut self.shards[shard];
        if table.len() <= local {
            table.resize(local + 1, 0);
        }
        table[local] = u32::try_from(machine.0 + 1).expect("machine ids fit in 32 bits");
    }
}

/// Where an authority's walk goes on from a context a name reaches: here (at
/// it or a copy held here), at another machine (at the context it serves),
/// or nowhere (nobody is placed for it).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Onward {
    Here(ObjectId),
    There(MachineId, ObjectId),
    Nowhere,
}

/// Walk state at a trie node: still resolving locally, already past a
/// referral boundary (the last field: components of the node's path
/// consumed before it), past a dead binding (everything below is
/// `NotFound`), or past an unplaced context (everything below is
/// `Unreachable` — the bindings may exist but nobody can be asked).
#[derive(Clone, Copy, Debug)]
enum St {
    Live(ObjectId),
    Referred(MachineId, ObjectId, usize),
    Dead,
    Unreachable,
}

/// The buffers of [`authority_walk`], reusable from one trie to the next:
/// the report's walk, the subtree counts, the resolve phase's queue and its
/// table — by node, what it found and where the children start (`None`
/// where the node's context was no context).
#[derive(Debug, Default)]
pub(crate) struct AuthorityScratch {
    walk: WalkScratch<St>,
    sub: Vec<u32>,
    queue: Vec<(u32, ObjectId)>,
    table: Vec<Option<(Entity, St)>>,
}

/// The buffers of [`NameService::local_resolve_batch`], reusable from one
/// request to the next; `outcomes` holds the last trie's, by query id, and
/// `reads` the zones its walk read.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    walk: AuthorityScratch,
    pub(crate) outcomes: Vec<Outcome>,
    pub(crate) reads: Vec<ZoneRead>,
}

/// Adds `read` to `reads`, one entry a zone: where a zone was read at two
/// serials, the answers stand on the older.
pub(crate) fn note_read(reads: &mut Vec<ZoneRead>, (shard, serial): ZoneRead) {
    match reads.iter_mut().find(|(z, _)| *z == shard) {
        Some((_, at)) if at.is_newer_than(serial) => *at = serial,
        Some(_) => {}
        None => reads.push((shard, serial)),
    }
}

/// The authority's walk of §2's rule over a trie of names from `start`,
/// one lookup in `state` per distinct prefix. It resolves one depth at a
/// time, the depth's lookups back to back and then its context tests, so
/// that their cache misses overlap; `onward` (pure) says where it goes on
/// from each context a name reaches. It reports depth first: `entered`
/// hears each context it went on at here, `answer` each query it reached
/// and its outcome, in walk order; one it did not reach, or longer than
/// [`DEFAULT_DEPTH_LIMIT`], is `NotFound`. Returns the lookups made and
/// those shared prefixes saved against one walk per query.
pub(crate) fn authority_walk(
    state: &SystemState,
    start: ObjectId,
    trie: &NameTrie,
    scratch: &mut AuthorityScratch,
    onward: impl Fn(ObjectId) -> Onward,
    mut entered: impl FnMut(ObjectId),
    mut answer: impl FnMut(u32, &[Label], Outcome),
) -> (u32, u32) {
    let (sub, queue, table) = (&mut scratch.sub, &mut scratch.queue, &mut scratch.table);
    // What each query would cost if resolved alone: every query in a
    // node's subtree would have looked that node's component up.
    trie.subtree_query_counts(sub);
    let (mut lookups, mut naive) = (0u32, 0u32);
    table.clear();
    table.resize(sub.len(), None);
    // The live nodes, one depth after another; each is queued once.
    queue.clear();
    queue.reserve(sub.len());
    queue.extend(trie.roots().iter().map(|&r| (r, start)));
    let (mut at, mut len) = (0, 1);
    while at < queue.len() && len <= DEFAULT_DEPTH_LIMIT {
        let depth = at..queue.len();
        for &(ni, cur) in &queue[depth.clone()] {
            let (node, ni) = (trie.node(ni), ni as usize);
            if let Some(c) = state.context(cur) {
                (lookups, naive) = (lookups + 1, naive + sub[ni]);
                // A label this process never interned is bound nowhere.
                let e = node.component.map_or(Entity::Undefined, |l| c.lookup(l));
                table[ni] = Some((e, St::Dead));
            }
        }
        for i in depth.clone() {
            let (kids, ni) = (trie.kids_of(trie.node(queue[i].0)), queue[i].0 as usize);
            let Some((Entity::Object(o), below)) = &mut table[ni] else {
                continue;
            };
            if kids.is_empty() || !state.is_context_object(*o) {
                continue;
            }
            *below = match onward(*o) {
                Onward::Here(copy) => St::Live(copy),
                Onward::There(m, ctx) => St::Referred(m, ctx, len),
                Onward::Nowhere => St::Unreachable,
            };
            if let St::Live(copy) = *below {
                queue.extend(kids.iter().map(|&c| (c, copy)));
            }
        }
        (at, len) = (depth.end, len + 1);
    }
    trie.walk(&mut scratch.walk, St::Live(start), |ni, node, path, st| {
        // This node's verdict (`None` leaves `NotFound`) and the state its
        // children start from.
        let (outcome, below) = match (st, table[ni]) {
            _ if path.len() > DEFAULT_DEPTH_LIMIT => (None, St::Dead),
            (St::Live(_), None) | (St::Dead, _) => (None, St::Dead),
            (St::Unreachable, _) => (Some(Outcome::Unreachable { attempts: 0 }), st),
            (St::Referred(m, ctx, from), _) => (Some(referral(m, ctx, path.len() - from)), st),
            (St::Live(_), Some((e, below))) => {
                if let St::Live(at) = below {
                    entered(at);
                }
                let found = e.is_defined().then_some(Outcome::Resolved(e));
                (Some(found.unwrap_or(Outcome::NotFound)), below)
            }
        };
        if let (Some(outcome), Some(q)) = (outcome, node.query) {
            answer(q, path, outcome);
        }
        below
    });
    (lookups, naive.saturating_sub(lookups))
}

/// A referral for the last `remaining` components of what was asked. One
/// too deep for the wire's 16-bit count cannot be handed on: a transport
/// verdict.
fn referral(next_machine: MachineId, next_ctx: ObjectId, remaining: usize) -> Outcome {
    u16::try_from(remaining).map_or(Outcome::Unreachable { attempts: 0 }, |remaining| {
        Outcome::Referral {
            next_machine,
            next_ctx,
            remaining,
        }
    })
}

/// Per-machine name servers plus the authoritative placement map.
///
/// A context object may additionally be *replicated* onto secondary
/// machines ([`NameService::replicate_zone`]): a secondary holds a copy of
/// the zone's context object and serves it locally. Replication gives the
/// paper's **weak coherence** (§5) at the protocol level — and, when a
/// secondary's copy lags the primary, measurable incoherence
/// ([`NameService::replica_divergence`]).
#[derive(Debug, Default)]
pub struct NameService {
    /// Indexed by `MachineId`; `None` where no server runs.
    servers: Vec<Option<ActivityId>>,
    placement: Placement,
    /// zone object → (secondary machine → copy object).
    replicas: BTreeMap<ObjectId, BTreeMap<MachineId, ObjectId>>,
    /// copy object → its zone (`replicas` read backwards), and the serial
    /// of the zone's shard the copy was last refreshed at. `Relaxed` is
    /// enough: the serial publishes no other data — the copy's bindings
    /// are written under the world's exclusive borrow.
    zone_of_copy: FxHashMap<ObjectId, (ObjectId, AtomicU64)>,
}

impl NameService {
    /// Spawns a name-server process (`named`) on each machine.
    pub fn install(world: &mut World, machines: &[MachineId]) -> NameService {
        let mut svc = NameService::default();
        for &m in machines {
            svc.add_server(world, m);
        }
        svc
    }

    /// The server process on a machine.
    ///
    /// # Panics
    ///
    /// Panics if no server was installed on `machine`.
    pub fn server_on(&self, machine: MachineId) -> ActivityId {
        self.server_if_on(machine)
            .expect("a server was installed on the machine")
    }

    /// The server process on a machine, if one was installed there.
    pub fn server_if_on(&self, machine: MachineId) -> Option<ActivityId> {
        self.servers.get(machine.0).copied().flatten()
    }

    /// One past the highest machine id that runs a server.
    pub(crate) fn machine_span(&self) -> usize {
        self.servers.len()
    }

    /// All server processes, in machine order.
    pub fn servers(&self) -> impl Iterator<Item = (MachineId, ActivityId)> + '_ {
        self.servers
            .iter()
            .enumerate()
            .filter_map(|(m, p)| Some((MachineId(m), (*p)?)))
    }

    /// The machine `pid` is the name server of, if it is one.
    pub(crate) fn machine_served_by(&self, world: &World, pid: ActivityId) -> Option<MachineId> {
        let machine = world.machine_of(pid);
        (self.server_if_on(machine) == Some(pid)).then_some(machine)
    }

    /// Declares `machine` authoritative for `obj`.
    pub fn place(&mut self, obj: ObjectId, machine: MachineId) {
        self.placement.insert(obj, machine);
    }

    /// Places every object reachable from `root` (through context objects)
    /// on `machine`, without overriding existing placements — so placing
    /// machine subtrees in order gives each machine its own tree even when
    /// trees share objects.
    pub fn place_subtree(&mut self, world: &World, root: ObjectId, machine: MachineId) {
        let mut stack = vec![root];
        while let Some(o) = stack.pop() {
            if self.placement.get(o).is_some() {
                continue;
            }
            self.placement.insert(o, machine);
            if let Some(c) = world.state().context(o) {
                for (_, e) in c.iter() {
                    if let Entity::Object(t) = e {
                        if self.placement.get(t).is_none() {
                            stack.push(t);
                        }
                    }
                }
            }
        }
    }

    /// The machine authoritative for an object, if placed.
    pub fn machine_of_object(&self, obj: ObjectId) -> Option<MachineId> {
        self.placement.get(obj)
    }

    /// Replicates the zone (context object) `zone` onto `secondary`: a
    /// copy of the zone's current bindings is created there, registered in
    /// the world's replica registry, and served by the secondary's server.
    /// Returns the copy object.
    ///
    /// The copy is a *snapshot*: later changes to the primary do not
    /// propagate until [`NameService::sync_zone`] runs — precisely the
    /// window in which weak coherence degrades to incoherence.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is not a placed context object, or is already
    /// replicated on `secondary`.
    pub fn replicate_zone(
        &mut self,
        world: &mut World,
        zone: ObjectId,
        secondary: MachineId,
    ) -> ObjectId {
        assert!(
            self.placement.get(zone).is_some(),
            "zone must be placed before replication"
        );
        let ctx = world
            .state()
            .context(zone)
            .expect("zone must be a context object")
            .inherit();
        let label = format!(
            "{}~replica@{}",
            world.state().object_label(zone),
            world.topology().machine_name(secondary)
        );
        let copy = world
            .state_mut()
            .add_object(label, naming_core::state::ObjectState::Context(ctx));
        self.placement.insert(copy, secondary);
        world.replicas_mut().declare_replicas(zone, copy);
        let prev = self
            .replicas
            .entry(zone)
            .or_default()
            .insert(secondary, copy);
        assert!(prev.is_none(), "zone already replicated on that machine");
        let serial = world.state().shard_serial(SystemState::shard_of_id(zone));
        let refreshed = AtomicU64::new(serial.get());
        self.zone_of_copy.insert(copy, (zone, refreshed));
        copy
    }

    /// Makes `copy` of `zone` hold `bindings`, and records the serial its
    /// reads state from then on: the primary's current serial when the copy
    /// now equals the primary, [`ZoneSerial::ZERO`] otherwise. A pushed
    /// update carries no serial, and one pushed before the copy's last
    /// refresh may land after it; then no serial the copy held is known to
    /// cover what it holds, and `ZERO` is proved by no pull once the zone
    /// has been written. A copy may understate its freshness, never
    /// overstate it.
    pub(crate) fn install_copy(
        &self,
        world: &mut World,
        zone: ObjectId,
        copy: ObjectId,
        bindings: Context,
    ) {
        if let Some(ctx) = world.state_mut().context_mut(copy) {
            *ctx = bindings;
        }
        let state = world.state();
        let fresh = state
            .context(copy)
            .is_some_and(|c| state.context(zone) == Some(c));
        let serial = if fresh {
            state.shard_serial(SystemState::shard_of_id(zone))
        } else {
            ZoneSerial::ZERO
        };
        if let Some((_, at)) = self.zone_of_copy.get(&copy) {
            at.store(serial.get(), Ordering::Relaxed);
        }
    }

    /// What a walk reads at `ctx`: its zone at σ's current serial, or — for
    /// a replica copy — the primary's zone at the serial of the copy's last
    /// refresh.
    fn read_at(&self, world: &World, ctx: ObjectId) -> ZoneRead {
        match self.zone_of_copy.get(&ctx) {
            Some((zone, at)) => (
                SystemState::shard_of_id(*zone),
                ZoneSerial::new(at.load(Ordering::Relaxed)),
            ),
            None => {
                let shard = SystemState::shard_of_id(ctx);
                (shard, world.state().shard_serial(shard))
            }
        }
    }

    /// Copies the primary zone's current bindings onto every replica.
    pub fn sync_zone(&self, world: &mut World, zone: ObjectId) {
        let Some(secondaries) = self.replicas.get(&zone) else {
            return;
        };
        let primary = world
            .state()
            .context(zone)
            .expect("zone is a context")
            .inherit();
        for &copy in secondaries.values() {
            self.install_copy(world, zone, copy, primary.clone());
        }
    }

    /// The copy of `zone` served on `machine`, if any (the zone itself
    /// when `machine` is the primary).
    pub fn zone_copy_on(&self, zone: ObjectId, machine: MachineId) -> Option<ObjectId> {
        self.zone_group(zone)
            .find(|&(m, _)| m == machine)
            .map(|(_, copy)| copy)
    }

    /// Every server of `zone` paired with the context object it serves:
    /// the primary (if placed) first, then secondaries in machine order.
    fn zone_group(&self, zone: ObjectId) -> impl Iterator<Item = (MachineId, ObjectId)> + '_ {
        let primary = self.placement.get(zone).map(|m| (m, zone));
        let secondaries = self.replicas.get(&zone).into_iter().flatten();
        primary
            .into_iter()
            .chain(secondaries.map(|(&m, &copy)| (m, copy)))
    }

    /// The machines serving `zone` (primary first, then secondaries in
    /// machine order).
    pub fn zone_servers(&self, zone: ObjectId) -> Vec<MachineId> {
        self.zone_group(zone).map(|(m, _)| m).collect()
    }

    /// The servers able to answer for `ctx`, primary first: when `ctx`
    /// belongs to a replica group (as primary or copy), every machine of
    /// the group paired with the context object it serves; otherwise just
    /// `ctx`'s own placement. A machine that runs no name server answers
    /// nothing and is left out. This is the failover order the retry layer
    /// walks when a request's deadline expires.
    pub fn failover_targets(&self, ctx: ObjectId) -> Vec<(MachineId, ObjectId)> {
        self.failover_group(ctx).collect()
    }

    /// [`NameService::failover_targets`], uncollected.
    pub(crate) fn failover_group(
        &self,
        ctx: ObjectId,
    ) -> impl Iterator<Item = (MachineId, ObjectId)> + '_ {
        let zone = self.zone_of_copy.get(&ctx).map_or(ctx, |&(zone, _)| zone);
        let served = |&(m, _): &(MachineId, ObjectId)| self.server_if_on(m).is_some();
        self.zone_group(zone).filter(served)
    }

    /// The primary zone objects of every replica group `machine`
    /// participates in (as primary or secondary) — what must be
    /// re-published after the machine's server restarts.
    pub fn zones_on(&self, machine: MachineId) -> Vec<ObjectId> {
        self.replicas
            .iter()
            .filter(|(z, secs)| {
                self.placement.get(**z) == Some(machine) || secs.contains_key(&machine)
            })
            .map(|(&z, _)| z)
            .collect()
    }

    /// Spawns an additional name server on `machine` (a standby added
    /// after [`NameService::install`]). Returns the existing server if one
    /// is already there.
    pub fn add_server(&mut self, world: &mut World, machine: MachineId) -> ActivityId {
        if let Some(pid) = self.server_if_on(machine) {
            return pid;
        }
        if self.servers.len() <= machine.0 {
            self.servers.resize(machine.0 + 1, None);
        }
        let label = format!("named@{}", world.topology().machine_name(machine));
        let pid = world.spawn(machine, label, None);
        self.servers[machine.0] = Some(pid);
        pid
    }

    /// The names on which some replica of `zone` currently disagrees with
    /// the primary — the zone's divergence (empty right after a sync).
    pub fn replica_divergence(
        &self,
        world: &World,
        zone: ObjectId,
    ) -> Vec<naming_core::name::Name> {
        let Some(secondaries) = self.replicas.get(&zone) else {
            return Vec::new();
        };
        let Some(primary) = world.state().context(zone) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &copy in secondaries.values() {
            if let Some(replica) = world.state().context(copy) {
                for n in primary.disagreements(replica) {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Authoritative resolution step on `machine`, one name at a time — the
    /// per-name rule [`NameService::local_resolve_batch`] batches: resolves
    /// components of `name` starting at `start` while the current context
    /// object is hosted locally; crossing to a remotely-hosted context
    /// yields a referral to the *nearest* server of the next zone (a
    /// replica on the same machine or network wins over the primary). A
    /// name longer than [`DEFAULT_DEPTH_LIMIT`] is `NotFound`.
    pub fn local_resolve(
        &self,
        world: &World,
        machine: MachineId,
        start: ObjectId,
        name: &CompoundName,
    ) -> Outcome {
        if self.machine_of_object(start) != Some(machine) {
            return Outcome::WrongServer;
        }
        let comps = name.components();
        if comps.len() > DEFAULT_DEPTH_LIMIT {
            return Outcome::NotFound;
        }
        let mut cur = start;
        for (i, &comp) in comps.iter().enumerate() {
            let e = world.state().lookup(cur, comp);
            if !e.is_defined() {
                return Outcome::NotFound;
            }
            if i + 1 == comps.len() {
                return Outcome::Resolved(e);
            }
            match e {
                Entity::Object(o) if world.state().is_context_object(o) => {
                    match self.onward(world, machine, o) {
                        Onward::Here(local_copy) => cur = local_copy,
                        Onward::There(m, ctx) => return referral(m, ctx, comps.len() - (i + 1)),
                        // Unplaced context object: nobody is authoritative,
                        // so nothing can be said about the binding — a
                        // transport verdict, never ⊥.
                        Onward::Nowhere => return Outcome::Unreachable { attempts: 0 },
                    }
                }
                _ => return Outcome::NotFound,
            }
        }
        unreachable!("a compound name has at least one component")
    }

    /// Authoritative *batch* resolution step on `machine`: walks a
    /// shared-prefix trie of names from `start`, resolving each distinct
    /// prefix exactly once. Returns one outcome per query id (matching
    /// [`NameService::local_resolve`] on each name individually) and the
    /// number of lookups prefix sharing saved versus resolving every
    /// query independently.
    pub fn local_resolve_batch(
        &self,
        world: &World,
        machine: MachineId,
        start: ObjectId,
        trie: &NameTrie,
    ) -> (Vec<Outcome>, u32) {
        let mut scratch = BatchScratch::default();
        let saved = self.local_resolve_batch_in(world, machine, start, trie, &mut scratch);
        (scratch.outcomes, saved)
    }

    /// [`NameService::local_resolve_batch`] in the caller's buffers: returns
    /// the lookups saved. The zones the walk reads — its start and every
    /// context it goes on at here — are noted in the order the report phase
    /// of [`authority_walk`], which the worker pool shares, enters them.
    pub(crate) fn local_resolve_batch_in(
        &self,
        world: &World,
        machine: MachineId,
        start: ObjectId,
        trie: &NameTrie,
        scratch: &mut BatchScratch,
    ) -> u32 {
        let BatchScratch {
            walk,
            outcomes,
            reads,
        } = scratch;
        let n = trie.query_count() as usize;
        outcomes.clear();
        reads.clear();
        if self.machine_of_object(start) != Some(machine) {
            naming_telemetry::counter!("service.wrong_server").add(n as u64);
            outcomes.resize(n, Outcome::WrongServer);
            return 0;
        }
        outcomes.resize(n, Outcome::NotFound);
        reads.push(self.read_at(world, start));
        let (lookups, saved) = authority_walk(
            world.state(),
            start,
            trie,
            walk,
            |o| self.onward(world, machine, o),
            |at| note_read(reads, self.read_at(world, at)),
            |q, _, outcome| outcomes[q as usize] = outcome,
        );
        naming_telemetry::counter!("service.batch_queries").add(n as u64);
        naming_telemetry::counter!("service.batch_lookups").add(u64::from(lookups));
        naming_telemetry::counter!("service.batch_lookups_saved").add(u64::from(saved));
        saved
    }

    /// Where a walk on `from` goes on from zone `o`: to its nearest server —
    /// `from` itself when it serves the zone, else same network beats
    /// cross-network; the primary wins ties (`zone_group` lists it first and
    /// `min_by_key` keeps the first minimum) — at the context object (copy or
    /// primary) that server holds. One placement probe, nothing allocated.
    fn onward(&self, world: &World, from: MachineId, o: ObjectId) -> Onward {
        let from_net = world.topology().machine_network(from);
        let nearest = self
            .zone_group(o)
            .min_by_key(|&(m, _)| (m != from, world.topology().machine_network(m) != from_net));
        match nearest {
            Some((m, copy)) if m == from => Onward::Here(copy),
            Some((m, ctx)) => Onward::There(m, ctx),
            None => Onward::Nowhere,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naming_core::name::Name;
    use naming_sim::store;

    /// Two machines; m1 hosts /usr, m2 hosts /usr/remote (a grafted
    /// subtree).
    fn setup() -> (World, NameService, MachineId, MachineId, ObjectId, ObjectId) {
        let mut w = World::new(61);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let m2 = w.add_machine("m2", net);
        let root1 = w.machine_root(m1);
        let usr = store::ensure_dir(w.state_mut(), root1, "usr");
        store::create_file(w.state_mut(), usr, "motd", vec![]);
        let root2 = w.machine_root(m2);
        let rem = store::ensure_dir(w.state_mut(), root2, "export");
        store::create_file(w.state_mut(), rem, "data", vec![]);
        // Graft m2's export dir into m1's tree.
        store::attach(w.state_mut(), usr, "remote", rem, false);
        let mut svc = NameService::install(&mut w, &[m1, m2]);
        // Place m2's tree first so the shared subtree belongs to m2.
        svc.place_subtree(&w, root2, m2);
        svc.place_subtree(&w, root1, m1);
        (w, svc, m1, m2, root1, rem)
    }

    #[test]
    fn placement_respects_first_owner() {
        let (w, svc, m1, m2, root1, rem) = setup();
        assert_eq!(svc.machine_of_object(root1), Some(m1));
        assert_eq!(svc.machine_of_object(rem), Some(m2));
        // Below them, every object is placed with its tree's root.
        let placed = |ctx, label| {
            let obj = w.state().lookup(ctx, Name::new(label)).as_object();
            obj.and_then(|o| svc.machine_of_object(o))
        };
        let usr = w
            .state()
            .lookup(root1, Name::new("usr"))
            .as_object()
            .unwrap();
        assert_eq!([placed(root1, "usr"), placed(usr, "motd")], [Some(m1); 2]);
        assert_eq!(placed(rem, "data"), Some(m2));
        assert_eq!(svc.servers().count(), 2);
    }

    #[test]
    fn local_resolution_within_one_machine() {
        let (w, svc, m1, _, root1, _) = setup();
        let name = CompoundName::parse_path("/usr/motd").unwrap();
        match svc.local_resolve(&w, m1, root1, &name) {
            Outcome::Resolved(e) => assert!(e.is_defined()),
            other => panic!("expected Resolved, got {other:?}"),
        }
    }

    #[test]
    fn crossing_machines_yields_referral() {
        let (w, svc, m1, m2, root1, rem) = setup();
        let name = CompoundName::parse_path("/usr/remote/data").unwrap();
        match svc.local_resolve(&w, m1, root1, &name) {
            Outcome::Referral {
                next_machine,
                next_ctx,
                remaining,
            } => {
                assert_eq!(next_machine, m2);
                assert_eq!(next_ctx, rem);
                assert_eq!(remaining, 1, "`data` is left");
            }
            other => panic!("expected Referral, got {other:?}"),
        }
    }

    #[test]
    fn wrong_server_and_not_found() {
        let (w, svc, _m1, m2, root1, rem) = setup();
        let name = CompoundName::parse_path("/usr/motd").unwrap();
        assert_eq!(
            svc.local_resolve(&w, m2, root1, &name),
            Outcome::WrongServer
        );
        let bogus = CompoundName::parse_path("nope").unwrap();
        // `rem` is on m2; "nope" isn't bound there (strip the implicit dot
        // by using a direct component name).
        let direct = CompoundName::atom(Name::new("nope"));
        let _ = bogus;
        assert_eq!(svc.local_resolve(&w, m2, rem, &direct), Outcome::NotFound);
    }

    #[test]
    fn traversal_through_file_is_not_found() {
        let (mut w, mut svc, m1, _, root1, _) = setup();
        let f = store::create_file(w.state_mut(), root1, "plain", vec![]);
        svc.place(f, m1);
        let name = CompoundName::parse_path("/plain/x").unwrap();
        assert_eq!(svc.local_resolve(&w, m1, root1, &name), Outcome::NotFound);
    }

    #[test]
    fn replication_keeps_resolution_local() {
        let (mut w, mut svc, m1, m2, root1, rem) = setup();
        // Before replication: /usr/remote/data refers to m2.
        let name = CompoundName::parse_path("/usr/remote/data").unwrap();
        assert!(matches!(
            svc.local_resolve(&w, m1, root1, &name),
            Outcome::Referral { .. }
        ));
        // Replicate m2's export zone onto m1.
        let copy = svc.replicate_zone(&mut w, rem, m1);
        assert_eq!(svc.zone_copy_on(rem, m1), Some(copy));
        assert_eq!(svc.zone_servers(rem), vec![m2, m1]);
        // Now the whole walk completes on m1, answering from the replica.
        match svc.local_resolve(&w, m1, root1, &name) {
            Outcome::Resolved(e) => assert!(e.is_defined()),
            other => panic!("expected local Resolved, got {other:?}"),
        }
        // And the world-level replica registry knows they are replicas.
        assert!(w.replicas().are_replicas(rem, copy));
    }

    #[test]
    fn replica_divergence_and_sync() {
        let (mut w, mut svc, m1, _m2, _root1, rem) = setup();
        let _copy = svc.replicate_zone(&mut w, rem, m1);
        assert!(svc.replica_divergence(&w, rem).is_empty());
        // Primary gains a binding; replica lags.
        store::create_file(w.state_mut(), rem, "new-file", vec![]);
        let div = svc.replica_divergence(&w, rem);
        assert_eq!(div, vec![Name::new("new-file")]);
        // Weak coherence has degraded: the zone copies disagree — which the
        // world-level invariant check also sees.
        assert_eq!(w.replicas().violations(w.state()).len(), 1);
        // Sync repairs both views.
        svc.sync_zone(&mut w, rem);
        assert!(svc.replica_divergence(&w, rem).is_empty());
        assert!(w.replicas().violations(w.state()).is_empty());
    }

    #[test]
    fn stale_replica_answers_incoherently_until_sync() {
        let (mut w, mut svc, m1, m2, root1, rem) = setup();
        let _copy = svc.replicate_zone(&mut w, rem, m1);
        let name = CompoundName::parse_path("/usr/remote/data").unwrap();
        // Rebind `data` at the primary.
        let fresh = w.state_mut().add_data_object("data-v2", vec![]);
        w.state_mut().bind(rem, Name::new("data"), fresh).unwrap();
        // m1's replica-backed answer is the OLD object; m2's (primary) is
        // the new one: the same name, two meanings.
        let via_replica = svc.local_resolve(&w, m1, root1, &name);
        let via_primary = svc.local_resolve(&w, m2, rem, &CompoundName::atom(Name::new("data")));
        assert_ne!(via_replica, via_primary);
        assert_eq!(via_primary, Outcome::Resolved(Entity::Object(fresh)));
        svc.sync_zone(&mut w, rem);
        let healed = svc.local_resolve(&w, m1, root1, &name);
        assert_eq!(healed, Outcome::Resolved(Entity::Object(fresh)));
    }

    #[test]
    #[should_panic(expected = "already replicated")]
    fn double_replication_panics() {
        let (mut w, mut svc, m1, _m2, _root1, rem) = setup();
        svc.replicate_zone(&mut w, rem, m1);
        svc.replicate_zone(&mut w, rem, m1);
    }

    #[test]
    fn batch_walk_agrees_with_single_walk() {
        let (w, svc, m1, _, root1, _) = setup();
        let names: Vec<CompoundName> = [
            "/usr/motd",
            "/usr/remote/data",
            "/usr/remote/other",
            "/usr/missing",
            "/usr/motd", // duplicate
            "/usr",
            // Branching below a referral boundary: every branch must come
            // back with its own remaining path.
            "/usr/remote/a/b/c",
            "/usr/remote/a/x",
            "/usr/remote/a/b/d",
            "/usr/remote/a",
        ]
        .iter()
        .map(|p| CompoundName::parse_path(p).unwrap())
        .collect();
        let (trie, mapping) = NameTrie::build(&names);
        let (outcomes, saved) = svc.local_resolve_batch(&w, m1, root1, &trie);
        assert_eq!(outcomes.len(), trie.query_count() as usize);
        for (i, n) in names.iter().enumerate() {
            let single = svc.local_resolve(&w, m1, root1, n);
            assert_eq!(
                outcomes[mapping[i] as usize], single,
                "batch and single walks disagree on {n}"
            );
        }
        // The names share "/" and "/usr" prefixes; the batch walk
        // must have skipped repeated lookups.
        assert!(saved > 0, "shared prefixes should save lookups");
    }

    #[test]
    fn batch_walk_through_replica_stays_local() {
        let (mut w, mut svc, m1, _m2, root1, rem) = setup();
        svc.replicate_zone(&mut w, rem, m1);
        let names = vec![
            CompoundName::parse_path("/usr/remote/data").unwrap(),
            CompoundName::parse_path("/usr/remote/nope").unwrap(),
        ];
        let (trie, mapping) = NameTrie::build(&names);
        let (outcomes, _) = svc.local_resolve_batch(&w, m1, root1, &trie);
        for (i, n) in names.iter().enumerate() {
            assert_eq!(
                outcomes[mapping[i] as usize],
                svc.local_resolve(&w, m1, root1, n)
            );
        }
        assert!(matches!(
            outcomes[mapping[0] as usize],
            Outcome::Resolved(_)
        ));
    }

    #[test]
    fn batch_walk_wrong_server() {
        let (w, svc, _m1, m2, root1, _) = setup();
        let names = vec![CompoundName::parse_path("/usr/motd").unwrap()];
        let (trie, _) = NameTrie::build(&names);
        let (outcomes, saved) = svc.local_resolve_batch(&w, m2, root1, &trie);
        assert_eq!(outcomes, vec![Outcome::WrongServer]);
        assert_eq!(saved, 0);
    }

    #[test]
    fn unplaced_context_is_unreachable_not_bottom() {
        let (mut w, svc, m1, _, root1, _) = setup();
        // A directory nobody is authoritative for: the binding may well
        // exist there, so the verdict is "can't ask", never ⊥.
        let orphan = w.state_mut().add_context_object("orphan");
        w.state_mut()
            .bind(root1, Name::new("orphan"), orphan)
            .unwrap();
        let name = CompoundName::parse_path("/orphan/x").unwrap();
        assert_eq!(
            svc.local_resolve(&w, m1, root1, &name),
            Outcome::Unreachable { attempts: 0 }
        );
        // The batch walk agrees, and keeps NotFound distinct below the
        // same root.
        let names = vec![
            name,
            CompoundName::parse_path("/orphan/deeper/x").unwrap(),
            CompoundName::parse_path("/missing").unwrap(),
        ];
        let (trie, mapping) = NameTrie::build(&names);
        let (outcomes, _) = svc.local_resolve_batch(&w, m1, root1, &trie);
        assert_eq!(
            outcomes[mapping[0] as usize],
            Outcome::Unreachable { attempts: 0 }
        );
        assert_eq!(
            outcomes[mapping[1] as usize],
            Outcome::Unreachable { attempts: 0 }
        );
        assert_eq!(outcomes[mapping[2] as usize], Outcome::NotFound);
    }

    #[test]
    fn failover_targets_list_the_replica_group_primary_first() {
        let (mut w, mut svc, m1, m2, root1, rem) = setup();
        // Unreplicated context: just its own placement.
        assert_eq!(svc.failover_targets(root1), vec![(m1, root1)]);
        assert_eq!(svc.failover_targets(rem), vec![(m2, rem)]);
        let copy = svc.replicate_zone(&mut w, rem, m1);
        // Asking via the primary or via the copy yields the same group.
        assert_eq!(svc.failover_targets(rem), vec![(m2, rem), (m1, copy)]);
        assert_eq!(svc.failover_targets(copy), vec![(m2, rem), (m1, copy)]);
        // An unplaced object has no targets at all.
        let orphan = w.state_mut().add_context_object("orphan");
        assert!(svc.failover_targets(orphan).is_empty());
    }

    #[test]
    fn zones_on_reports_group_membership() {
        let (mut w, mut svc, m1, m2, _root1, rem) = setup();
        assert!(svc.zones_on(m1).is_empty());
        svc.replicate_zone(&mut w, rem, m1);
        assert_eq!(svc.zones_on(m1), vec![rem]); // secondary
        assert_eq!(svc.zones_on(m2), vec![rem]); // primary
    }

    #[test]
    fn add_server_is_idempotent() {
        let (mut w, mut svc, m1, _m2, _root1, _rem) = setup();
        let net = w.add_network("standby-net");
        let m3 = w.add_machine("m3", net);
        let s = svc.add_server(&mut w, m3);
        assert_eq!(svc.add_server(&mut w, m3), s);
        assert_eq!(svc.server_on(m3), s);
        assert_eq!(svc.add_server(&mut w, m1), svc.server_on(m1));
        assert_eq!(svc.servers().count(), 3);
    }
}
