//! The protocol engine: drives resolution requests through the simulated
//! network, with servers answering iteratively or chasing referrals
//! recursively.
//!
//! The simulator's processes are passive mailboxes; the engine supplies
//! the server logic, pumping the event queue and handling each delivered
//! frame. All scheduling remains deterministic.

use std::collections::{BTreeMap, HashSet};

use bytes::{Bytes, BytesMut};
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_sim::message::Payload;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::{Stepped, World};

use crate::coherence::ZoneJournal;
use crate::continuation::{Continuation, Dense, Route, Start};
use crate::service::{BatchScratch, NameService};
use crate::wire::{
    self, Frame, Mode, NameTrie, Outcome, Reply, Request, ShardDelta, ZoneChange, ZoneDelta,
    ZoneDeltaRequest, ZoneUpdate,
};

/// What a completed resolution cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolveStats {
    /// The final entity (possibly `⊥`).
    pub entity: Entity,
    /// Wire messages exchanged (requests + replies, client and servers).
    pub messages: u64,
    /// Distinct server answers involved (authoritative work units).
    pub servers_touched: u32,
    /// Virtual time from request to final answer.
    pub latency: Duration,
    /// True when the answer is a *transport* verdict, not a naming one:
    /// messages were lost, deadlines exhausted, or no authority could be
    /// addressed. The paper's ⊥ means "unbound in the context" (§2); an
    /// unreachable authority says nothing about the binding, so callers
    /// (in particular ⊥-caching layers) must treat the two differently.
    pub unreachable: bool,
}

/// Deterministic deadline/retransmission schedule for one logical request.
///
/// Timeouts live on the `VirtualTime` axis as sim wake events, so a retried
/// run is exactly as reproducible as a lossless one. The backoff doubles per
/// attempt up to `2^backoff_cap`, plus a jitter term derived by hashing
/// `(request id, attempt)` — seeded, consuming no RNG draws, so enabling the
/// retry layer cannot perturb fault injection decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-attempt deadline in ticks. The default (256) covers the
    /// stock latency model's worst round trip (2 × 100 cross-network)
    /// with headroom.
    pub base_timeout_ticks: u64,
    /// Total send attempts per hop before giving up with
    /// [`Outcome::Unreachable`].
    pub max_attempts: u32,
    /// Backoff stops doubling after this many attempts.
    pub backoff_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base_timeout_ticks: 256,
            max_attempts: 8,
            backoff_cap: 6,
        }
    }
}

impl RetryPolicy {
    /// Deadline for `attempt` (0-based) of request `id`, in ticks.
    pub fn timeout_ticks(&self, id: u64, attempt: u32) -> u64 {
        let backoff = self.base_timeout_ticks << attempt.min(self.backoff_cap);
        let span = (self.base_timeout_ticks / 4).max(1);
        backoff + jitter(id, attempt) % span
    }
}

/// Splitmix64-style hash of `(id, attempt)`: deterministic jitter that
/// never touches the world's RNG stream.
fn jitter(id: u64, attempt: u32) -> u64 {
    let mut z = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Running totals of the retry layer's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Requests re-sent after a deadline expired.
    pub retransmissions: u64,
    /// Replies that arrived for a superseded (timed-out) attempt. Counted,
    /// never acted on: the retransmitted attempt's answer wins.
    pub late_replies: u64,
    /// Attempts redirected to a replica of the addressed context.
    pub failovers: u64,
    /// Hops abandoned after `max_attempts` deadlines.
    pub exhausted: u64,
}

/// One referral a resolution followed, relative to the name the client
/// asked for: after `consumed` components of input name `slot`, authority
/// passed to `ctx` on `machine`. This is exactly what a referral cache can
/// store and later validate against `ctx`'s generation counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReferralHop {
    /// The input name that was referred (0 for a single resolve).
    pub slot: usize,
    /// Components of the whole name consumed before the handoff, jumps too.
    pub consumed: usize,
    /// The machine that became authoritative.
    pub machine: naming_sim::topology::MachineId,
    /// The context object resolution continued from.
    pub ctx: ObjectId,
}

/// What a completed *batch* resolution cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchResolveStats {
    /// One entity per input name, in input order (possibly `⊥`).
    pub entities: Vec<Entity>,
    /// Wire messages exchanged.
    pub messages: u64,
    /// Virtual time from first request to last answer.
    pub latency: Duration,
    /// Protocol rounds (referral depth reached).
    pub rounds: u32,
    /// Distinct server answers involved.
    pub servers_touched: u32,
    /// Duplicate in-flight `(context, suffix)` resolutions that rode a
    /// shared wire exchange instead of their own.
    pub coalesced: u64,
    /// Server lookups avoided by shared-prefix compression.
    pub hops_saved: u64,
    /// Every referral any of the names followed, sorted by slot, then by
    /// components consumed.
    pub referrals: Vec<ReferralHop>,
    /// Per input slot: true when the slot's ⊥ is a transport verdict
    /// (lost exchange, exhausted deadlines, unplaced authority) rather
    /// than an authoritative "unbound". Always false for defined entities.
    pub unreachable: Vec<bool>,
}

#[derive(Debug, Default)]
struct ServerState {
    /// Recursive requests forwarded on behalf of someone: id → (original
    /// requester, work units accumulated before forwarding).
    pending: BTreeMap<u64, (ActivityId, u32)>,
}

/// The buffers exchanges are built and read in, one after another: a
/// client building a request and a server answering one never overlap.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The request: its trie (as built, or as decoded), the builder's
    /// cells, its riders' query ids, the decoder's forest check.
    pub(crate) trie: NameTrie,
    pub(crate) cells: Vec<u32>,
    pub(crate) remap: Vec<u32>,
    seen: Vec<u64>,
    batch: BatchScratch,
    /// The reply being read.
    pub(crate) outcomes: Vec<Outcome>,
    /// Frame buffers between flights — a sender encodes into one, whoever
    /// reads the frame hands it back — so never more than flew at once.
    spares: Vec<BytesMut>,
}

/// What a spare holds: the yardstick's largest regular frame is some 400
/// bytes. A larger frame has, as every frame used to, a buffer of its own.
const FRAME_CAPACITY: usize = 512;

impl Scratch {
    /// An empty buffer for a frame of exactly `len` bytes.
    pub(crate) fn spare(&mut self, len: usize) -> BytesMut {
        let spare = (len <= FRAME_CAPACITY).then(|| self.spares.pop()).flatten();
        spare.unwrap_or_else(|| BytesMut::with_capacity(len.max(FRAME_CAPACITY)))
    }

    /// Takes back the buffer of a frame that has been read, unless another
    /// view still holds it or it is no spare: the spares are as many as flew
    /// at once and as large as they were made, whatever the traffic seen.
    fn recycle(&mut self, frame: Bytes) {
        let fits = frame.len() <= FRAME_CAPACITY;
        let spare = frame.try_into_mut().ok();
        if let Some(mut buf) = spare.filter(|b| fits && b.capacity() >= FRAME_CAPACITY) {
            buf.clear();
            self.spares.push(buf);
        }
    }
}

/// Safety bound on the events a driver pumps per in-flight batch.
pub(crate) const MAX_STEPS_PER_BATCH: usize = 100_000;

/// The key the blocking driver files its one continuation under. No
/// pipelined submission ticket reaches it.
const BLOCKING: u64 = u64::MAX;

/// Drives the resolution protocol over a [`World`].
#[derive(Debug)]
pub struct ProtocolEngine {
    service: NameService,
    server_state: BTreeMap<ActivityId, ServerState>,
    next_id: u64,
    /// Request id → the exchange awaiting its reply, for every driver on
    /// this engine. An id leaves when answered, superseded or given up.
    pub(crate) routes: Dense<Route>,
    /// Deadline/retransmission schedule; `None` (the default) keeps the
    /// fire-and-wait behavior where a lost message ends the walk.
    retry: Option<RetryPolicy>,
    /// Request ids whose deadline expired before an answer arrived. A
    /// reply bearing one of these ids is a *late* reply: counted, dropped.
    /// Emptied whenever a driver finds no message in flight (see
    /// `forget_unanswerable`), so ids whose late reply was itself lost do
    /// not pile up.
    superseded: HashSet<u64, naming_core::hash::DeterministicState>,
    counters: RetryCounters,
    /// Authority-side delta log: every write routed through
    /// [`ProtocolEngine::publish_binding`] is journaled at its zone
    /// serial, so anti-entropy pulls can be answered incrementally.
    journal: ZoneJournal,
    pub(crate) scratch: Scratch,
    /// Finished continuations, kept for their vectors: the most ever live.
    pub(crate) idle: Vec<Continuation>,
    /// Test reference: sweep every server mailbox after every event, as
    /// the engine did before events named their process.
    #[cfg(test)]
    pub(crate) sweep_every_event: bool,
}

impl ProtocolEngine {
    /// Wraps a name service.
    pub fn new(service: NameService) -> ProtocolEngine {
        ProtocolEngine {
            service,
            server_state: BTreeMap::new(),
            next_id: 1,
            routes: Dense::new(),
            retry: None,
            superseded: HashSet::default(),
            counters: RetryCounters::default(),
            journal: ZoneJournal::default(),
            scratch: Scratch::default(),
            idle: Vec::new(),
            #[cfg(test)]
            sweep_every_event: false,
        }
    }

    /// The authority-side delta journal.
    pub fn journal(&self) -> &ZoneJournal {
        &self.journal
    }

    /// Replaces the journal's retention window (changes per zone). A
    /// smaller window forces full transfers sooner — the IXFR→AXFR
    /// fallback the coherence bench measures. Retained history is reset.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_journal_window(&mut self, window: usize) {
        self.journal = ZoneJournal::with_window(window);
    }

    /// The underlying service.
    pub fn service(&self) -> &NameService {
        &self.service
    }

    /// Mutable access to the service (placement changes).
    pub fn service_mut(&mut self) -> &mut NameService {
        &mut self.service
    }

    /// Installs (or removes) the deadline/retransmission schedule.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// The active retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Retry-layer activity accumulated so far.
    pub fn retry_counters(&self) -> RetryCounters {
        self.counters
    }

    /// Allocates a fresh request id. Shared with the pipelined runtime so
    /// interleaved use of both drivers never collides correlation ids.
    pub(crate) fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Marks an in-flight attempt as superseded by a retransmission: a
    /// reply bearing this id is late, not an answer.
    pub(crate) fn supersede(&mut self, id: u64) {
        self.superseded.insert(id);
    }

    /// Forgets every superseded attempt when no message is in flight (so
    /// in particular whenever the event queue has run dry): no request is
    /// still on its way to a server and no reply on its way back, so none
    /// of them can be answered any more. Most attempts are superseded
    /// because their request or reply was *lost*; their ids would otherwise
    /// stay for good. Drivers call this right after polling the mailboxes
    /// of the clients they serve, so no late reply waits there uncounted.
    pub(crate) fn forget_unanswerable(&mut self, world: &World) {
        if world.messages_in_flight() == 0 {
            self.superseded.clear();
        }
    }

    /// Superseded attempts a late reply could still arrive for.
    #[cfg(test)]
    pub(crate) fn superseded_pending(&self) -> usize {
        self.superseded.len()
    }

    /// Counts a deadline-driven retransmission.
    pub(crate) fn note_retransmission(&mut self) {
        self.counters.retransmissions += 1;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("retry.retransmissions").bump();
    }

    /// Counts an attempt redirected to a replica.
    pub(crate) fn note_failover(&mut self) {
        self.counters.failovers += 1;
        #[cfg(feature = "telemetry")]
        naming_telemetry::counter!("failover.attempts").bump();
    }

    /// Counts a hop abandoned after `max_attempts` deadlines.
    pub(crate) fn note_exhausted(&mut self) {
        self.counters.exhausted += 1;
    }

    /// Restarts the name server on `machine` after a [`World::kill`]: the
    /// process is revived with a cleared mailbox, its in-flight forwarding
    /// state is discarded, and every replicated zone it participates in is
    /// re-published by its primary, so updates dropped while the server
    /// was down are replayed. Pump the queue to let the re-publications
    /// land. Returns the number of zone updates sent.
    pub fn restart_server(&mut self, world: &mut World, machine: MachineId) -> usize {
        let server = self.service.server_on(machine);
        world.revive(server);
        self.server_state.remove(&server);
        let mut published = 0;
        for zone in self.service.zones_on(machine) {
            published += self.publish_zone(world, zone);
        }
        published
    }

    /// Resolves `name` for `client`, starting at the context object
    /// `start`, using `mode`. Blocks (in virtual time) until the answer
    /// arrives.
    ///
    /// Unresolvable names (including protocol dead-ends such as unplaced
    /// objects or lost messages) yield `⊥` with the stats accumulated so
    /// far.
    pub fn resolve(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        name: &CompoundName,
        mode: Mode,
    ) -> ResolveStats {
        let (stats, _) = self.resolve_traced(world, client, start, name, mode);
        stats
    }

    /// Like [`ProtocolEngine::resolve`], but also reports every referral
    /// the walk followed — what a client-side referral cache records.
    /// Referrals are only observed by the client in iterative mode; a
    /// recursive resolve returns an empty hop list.
    ///
    /// An iterative resolve is a batch of one: same frames, same
    /// exchanges as [`ProtocolEngine::resolve_batch`].
    pub fn resolve_traced(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        name: &CompoundName,
        mode: Mode,
    ) -> (ResolveStats, Vec<ReferralHop>) {
        self.resolve_traced_from(world, client, (start, 0, name.components()), mode)
    }

    /// [`ProtocolEngine::resolve_traced`] for a name whose resolution
    /// starts past a prefix of it.
    pub(crate) fn resolve_traced_from(
        &mut self,
        world: &mut World,
        client: ActivityId,
        from: Start<'_>,
        mode: Mode,
    ) -> (ResolveStats, Vec<ReferralHop>) {
        let batch = self.run_to_completion(world, client, std::iter::once(from), mode);
        let stats = ResolveStats {
            entity: batch.entities[0],
            messages: batch.messages,
            servers_touched: batch.servers_touched,
            latency: batch.latency,
            unreachable: batch.unreachable[0],
        };
        let hops = batch.referrals;
        #[cfg(feature = "telemetry")]
        {
            naming_telemetry::counter!("protocol.resolves").bump();
            naming_telemetry::histogram!("protocol.latency_ticks").record(stats.latency.ticks());
            naming_telemetry::histogram!("protocol.messages").record(stats.messages);
            if naming_telemetry::recorder::is_active() {
                let asked = CompoundName::new(from.2[from.1..].to_vec()).expect("a rest is asked");
                naming_telemetry::recorder::span(
                    "protocol",
                    format!("{mode:?} {asked}"),
                    world.now().ticks() - stats.latency.ticks(),
                    world.now().ticks(),
                    vec![
                        (
                            "client".into(),
                            world.state().activity_label(client).to_string(),
                        ),
                        ("entity".into(), stats.entity.to_string()),
                        ("messages".into(), stats.messages.to_string()),
                        ("servers".into(), stats.servers_touched.to_string()),
                    ],
                );
            }
        }
        (stats, hops)
    }

    /// Resolves many names from one start context in coalesced, batched
    /// wire exchanges: per protocol round, all names still in flight that
    /// continue from the same context object share a single
    /// [`BatchRequest`] (shared-prefix compressed), and duplicate
    /// `(context, suffix)` pairs ride one exchange.
    pub fn resolve_batch(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        names: &[CompoundName],
    ) -> BatchResolveStats {
        let names = names.iter().map(|name| (start, 0, name.components()));
        self.resolve_from(world, client, names)
    }

    /// [`ProtocolEngine::resolve_batch`] for names that each start where
    /// they say: all of them in one exchange set, whatever their contexts.
    pub(crate) fn resolve_from<'n>(
        &mut self,
        world: &mut World,
        client: ActivityId,
        names: impl ExactSizeIterator<Item = Start<'n>>,
    ) -> BatchResolveStats {
        let stats = self.run_to_completion(world, client, names, Mode::Iterative);
        #[cfg(feature = "telemetry")]
        {
            naming_telemetry::counter!("protocol.batch_resolves").bump();
            naming_telemetry::counter!("protocol.hops_saved").add(stats.hops_saved);
            naming_telemetry::counter!("protocol.coalesced").add(stats.coalesced);
            naming_telemetry::histogram!("protocol.batch_size").record(stats.entities.len() as u64);
            naming_telemetry::histogram!("protocol.batch_messages").record(stats.messages);
        }
        stats
    }

    /// The blocking driver: one [`Continuation`], run to completion on
    /// `client`'s mailbox. `messages` and `latency` are what went over the
    /// wire and how much virtual time passed meanwhile — everything on
    /// the timeline, not only this batch's own traffic.
    fn run_to_completion<'n>(
        &mut self,
        world: &mut World,
        client: ActivityId,
        names: impl ExactSizeIterator<Item = Start<'n>>,
        mode: Mode,
    ) -> BatchResolveStats {
        let t0 = world.now();
        let sent0 = world.trace().counter("sent");
        let mut cont = Continuation::new(self, BLOCKING, client, names, mode);
        self.drain_servers(world);
        let mut steps = 0usize;
        while !cont.advance(self, world) {
            while cont.suspended() {
                self.poll_client(world, client, |engine, world, (owner, k), reply| {
                    if owner == BLOCKING {
                        cont.heard(engine, world, k, reply);
                    }
                });
                if cont.suspended() && !self.pump_one(world, &mut steps) {
                    cont.fail_unanswered(self);
                }
            }
        }
        BatchResolveStats {
            messages: world.trace().counter("sent") - sent0,
            latency: world.now() - t0,
            ..cont.finish(self)
        }
    }

    /// Hands `deliver` what `client` has heard since it was last polled,
    /// each with the route to the exchange it is about: first the replies
    /// waiting in its mailbox — servers touched and lookups saved, the
    /// outcomes in `scratch.outcomes` — then (`None`) the deadlines. A
    /// reply nothing awaits is late (counted) or stray; a deadline nothing
    /// awaits was answered on the step it expired, or already superseded.
    pub(crate) fn poll_client(
        &mut self,
        world: &mut World,
        client: ActivityId,
        mut deliver: impl FnMut(&mut ProtocolEngine, &mut World, Route, Option<(u32, u32)>),
    ) {
        while let Some(msg) = world.receive(client) {
            for part in msg.parts {
                let Payload::Bytes(bytes) = part else {
                    continue;
                };
                let read = wire::read_reply(&bytes, &mut self.scratch.outcomes);
                self.scratch.recycle(bytes);
                let Some((id, touched, saved)) = read else {
                    continue;
                };
                match self.routes.get_mut(id) {
                    Some(&mut route) => deliver(self, world, route, Some((touched, saved))),
                    None => self.note_stale_reply(id),
                }
            }
        }
        if self.retry.is_none() {
            return;
        }
        while let Some(token) = world.take_wake(client) {
            if let Some(&mut route) = self.routes.get_mut(token) {
                deliver(self, world, route, None);
            }
        }
    }

    /// Publishes a replicated zone's current bindings: the primary's
    /// server sends a [`ZoneUpdate`] frame to every secondary. The copies
    /// converge when the frames arrive (after network latency) — drive the
    /// queue with [`ProtocolEngine::pump_idle`] or any `resolve`.
    ///
    /// Returns the number of updates sent.
    pub fn publish_zone(&mut self, world: &mut World, zone: ObjectId) -> usize {
        let servers = self.service.zone_servers(zone);
        let Some((&primary, secondaries)) = servers.split_first() else {
            return 0;
        };
        let Some(ctx) = world.state().context(zone) else {
            return 0;
        };
        let update = ZoneUpdate {
            zone,
            bindings: ctx.iter().collect(),
        };
        let from = self.service.server_on(primary);
        let mut sent = 0;
        for &m in secondaries {
            let to = self.service.server_on(m);
            world.send(from, to, Payload::Bytes(update.encode()));
            sent += 1;
        }
        sent
    }

    /// Commits one naming write — `Some(entity)` binds, `None` unbinds —
    /// and journals it at the zone serial the write advanced to, so
    /// anti-entropy pulls can replay it incrementally. This is the
    /// publication path of lease coherence: writes that bypass it (raw
    /// `state_mut()` mutation) still advance the serial, but the journal
    /// detects the gap and falls back to full transfers rather than
    /// serving a diff with holes.
    ///
    /// Returns the zone serial after the write, or `None` when the write
    /// was refused (e.g. `ctx` is not a context).
    pub fn publish_binding(
        &mut self,
        world: &mut World,
        ctx: ObjectId,
        name: Name,
        entity: Option<Entity>,
    ) -> Option<ZoneSerial> {
        let shard = SystemState::shard_of_id(ctx);
        let committed = match entity {
            Some(e) => world.state_mut().bind(ctx, name, e).is_ok(),
            None => world.state_mut().unbind(ctx, name).is_ok(),
        };
        if !committed {
            return None;
        }
        let serial = world.state().shard_serial(shard);
        self.journal.record(
            shard,
            serial,
            ZoneChange {
                ctx,
                name,
                entity: entity.unwrap_or(Entity::Undefined),
            },
        );
        Some(serial)
    }

    /// Pulls zone deltas from the authority on `machine`: sends a
    /// [`ZoneDeltaRequest`] carrying `since` (the serials the caller
    /// already holds) and pumps the queue until the matching
    /// [`ZoneDelta`] arrives. Returns the delta plus the wire bytes the
    /// exchange cost (request + reply frames), or `None` when the
    /// exchange was lost (no retry: anti-entropy is periodic, the next
    /// pull catches up).
    pub fn pull_zone_deltas(
        &mut self,
        world: &mut World,
        client: ActivityId,
        machine: MachineId,
        since: Vec<(usize, ZoneSerial)>,
    ) -> Option<(ZoneDelta, u64)> {
        let id = self.alloc_id();
        let req = ZoneDeltaRequest { id, since };
        let req_bytes = req.wire_len() as u64;
        let server = self.service.server_on(machine);
        self.drain_servers(world);
        world.send(client, server, Payload::Bytes(req.encode()));
        let mut steps = 0usize;
        loop {
            while let Some(msg) = world.receive(client) {
                for part in msg.parts {
                    let Payload::Bytes(b) = part else { continue };
                    if let Some(rep) = ZoneDelta::decode(b) {
                        if rep.id == id {
                            let bytes = req_bytes + rep.wire_len() as u64;
                            return Some((rep, bytes));
                        }
                        self.note_stale_reply(rep.id);
                    }
                }
            }
            if !self.pump_one(world, &mut steps) {
                return None;
            }
        }
    }

    /// Drains the event queue, letting servers process whatever is in
    /// flight (replica updates, stray replies). Returns the number of
    /// events processed.
    pub fn pump_idle(&mut self, world: &mut World) -> usize {
        self.drain_servers(world);
        let mut n = 0;
        while let Some(ev) = world.step_event() {
            n += 1;
            self.serve(world, ev);
        }
        self.forget_unanswerable(world);
        n
    }

    /// Runs the next event, within the pump budget, and lets the server it
    /// reached handle its mail. False when the budget is spent or the
    /// event queue is dry.
    fn pump_one(&mut self, world: &mut World, steps: &mut usize) -> bool {
        if *steps >= MAX_STEPS_PER_BATCH {
            return false;
        }
        let Some(ev) = world.step_event() else {
            self.forget_unanswerable(world);
            return false;
        };
        *steps += 1;
        self.serve(world, ev);
        true
    }

    /// Records a reply that arrived after its attempt was superseded by a
    /// retransmission. Stale replies are counted — losing them silently
    /// would hide how often the deadline fired early — but never acted on.
    pub(crate) fn note_stale_reply(&mut self, id: u64) {
        if self.superseded.remove(&id) {
            self.counters.late_replies += 1;
            #[cfg(feature = "telemetry")]
            naming_telemetry::counter!("retry.late_reply").bump();
        }
    }

    /// Lets the process an event reached handle it: a name server drains
    /// its mailbox, anything else (a client, a wake) is its owner's to
    /// poll. Every *other* server mailbox was empty before the event —
    /// the entry points sweep once, and each event adds mail to one
    /// process only — so this is the whole sweep at the cost of one.
    pub(crate) fn serve(&mut self, world: &mut World, ev: Stepped) {
        #[cfg(test)]
        if self.sweep_every_event {
            return self.drain_servers(world);
        }
        if let Stepped::Delivered(pid) = ev {
            if let Some(machine) = self.service.machine_served_by(world, pid) {
                self.drain_server(world, machine, pid);
            }
        }
        debug_assert!(
            self.service
                .servers()
                .all(|(_, s)| world.mailbox_len(s) == 0),
            "mail in a server mailbox no event pointed at"
        );
    }

    /// Processes every message waiting in any server's mailbox: the entry
    /// points' sweep for mail that a caller's own `world.step()`/`run()`
    /// delivered while the engine was not pumping.
    pub(crate) fn drain_servers(&mut self, world: &mut World) {
        for machine in (0..self.service.machine_span()).map(MachineId) {
            if let Some(server) = self.service.server_if_on(machine) {
                self.drain_server(world, machine, server);
            }
        }
    }

    fn drain_server(&mut self, world: &mut World, machine: MachineId, server: ActivityId) {
        while let Some(msg) = world.receive(server) {
            let from = msg.from;
            for part in msg.parts {
                let Payload::Bytes(b) = part else { continue };
                // Every miss sends this frame: read into the scratch trie.
                if b.first() == Some(&wire::TAG_BATCH_REQUEST) {
                    self.handle_batch_request(world, machine, server, from, b);
                    continue;
                }
                match Frame::decode(b) {
                    Some(Frame::Request(req)) => {
                        self.handle_request(world, machine, server, from, req)
                    }
                    Some(Frame::Reply(rep)) => self.handle_forwarded_reply(world, server, rep),
                    Some(Frame::ZoneUpdate(update)) => {
                        self.handle_zone_update(world, machine, update)
                    }
                    Some(Frame::ZoneDeltaRequest(req)) => {
                        self.handle_zone_delta_request(world, server, from, req)
                    }
                    // Replies to clients have no business here; dropped
                    // like any undecodable frame.
                    Some(Frame::BatchRequest(_) | Frame::BatchReply(_) | Frame::ZoneDelta(_))
                    | None => {}
                }
            }
        }
    }

    fn handle_request(
        &mut self,
        world: &mut World,
        machine: naming_sim::topology::MachineId,
        server: ActivityId,
        requester: ActivityId,
        req: Request,
    ) {
        let outcome = self
            .service
            .local_resolve_labels(world, machine, req.start, &req.name);
        match (outcome, req.mode) {
            (
                Outcome::Referral {
                    next_machine,
                    next_ctx,
                    remaining,
                },
                Mode::Recursive,
            ) => {
                // Chase the referral on the requester's behalf: the rest
                // of the name it sent, from the next context.
                let next_server = self.service.server_on(next_machine);
                let fwd = Request {
                    id: req.id,
                    start: next_ctx,
                    name: req.name[req.name.len() - usize::from(remaining)..].to_vec(),
                    mode: Mode::Recursive,
                };
                self.server_state
                    .entry(server)
                    .or_default()
                    .pending
                    .insert(req.id, (requester, 1));
                world.send(server, next_server, Payload::Bytes(fwd.encode()));
            }
            _ => {
                let reply = Reply {
                    id: req.id,
                    outcome,
                    servers_touched: 1,
                };
                world.send(server, requester, Payload::Bytes(reply.encode()));
            }
        }
    }

    /// Answers a batch-request frame: decoded into the scratch trie, one
    /// walk, one batch reply encoded from the walk's outcomes. A malformed
    /// frame is dropped. Batches are always client-driven; there is no
    /// recursive variant to forward.
    fn handle_batch_request(
        &mut self,
        world: &mut World,
        machine: naming_sim::topology::MachineId,
        server: ActivityId,
        requester: ActivityId,
        frame: Bytes,
    ) {
        let (service, s) = (&self.service, &mut self.scratch);
        let read = wire::read_batch_request(&frame, &mut s.trie, &mut s.seen);
        s.recycle(frame);
        let Some((id, start)) = read else {
            return;
        };
        let saved = service.local_resolve_batch_in(world, machine, start, &s.trie, &mut s.batch);
        let mut reply = s.spare(wire::batch_reply_len(&s.batch.outcomes));
        wire::put_batch_reply(&mut reply, id, 1, saved, &s.batch.outcomes);
        world.send(server, requester, Payload::Bytes(reply.freeze()));
    }

    fn handle_zone_update(
        &mut self,
        world: &mut World,
        machine: naming_sim::topology::MachineId,
        update: ZoneUpdate,
    ) {
        let Some(copy) = self.service.zone_copy_on(update.zone, machine) else {
            return;
        };
        if copy == update.zone {
            return; // the primary ignores its own echo
        }
        if let Some(ctx) = world.state_mut().context_mut(copy) {
            let fresh: naming_core::context::Context = update.bindings.iter().copied().collect();
            *ctx = fresh;
        }
    }

    /// Answers an anti-entropy pull. Per requested shard: equal serials
    /// yield an empty incremental slice (a pure heartbeat), a journal
    /// window that still covers `since` yields the diff, and anything
    /// else — window evicted, authority restarted behind the puller, or
    /// an unjournaled-write gap — degrades to a full dump of the shard's
    /// live bindings (the AXFR fallback).
    fn handle_zone_delta_request(
        &mut self,
        world: &mut World,
        server: ActivityId,
        requester: ActivityId,
        req: ZoneDeltaRequest,
    ) {
        let mut shards = Vec::with_capacity(req.since.len());
        for &(shard, since) in &req.since {
            if shard >= world.state().shard_count() {
                continue;
            }
            let current = world.state().shard_serial(shard);
            let slice = if since == current {
                ShardDelta {
                    shard,
                    serial: current,
                    full: false,
                    changes: Vec::new(),
                }
            } else if let Some(changes) = self.journal.delta_since(shard, since, current) {
                ShardDelta {
                    shard,
                    serial: current,
                    full: false,
                    changes,
                }
            } else {
                let state = world.state();
                let changes = state
                    .objects()
                    .filter(|&o| SystemState::shard_of_id(o) == shard)
                    .filter_map(|o| state.context(o).map(|ctx| (o, ctx)))
                    .flat_map(|(o, ctx)| {
                        ctx.iter().map(move |(name, entity)| ZoneChange {
                            ctx: o,
                            name,
                            entity,
                        })
                    })
                    .collect();
                ShardDelta {
                    shard,
                    serial: current,
                    full: true,
                    changes,
                }
            };
            shards.push(slice);
        }
        let reply = ZoneDelta { id: req.id, shards };
        world.send(server, requester, Payload::Bytes(reply.encode()));
    }

    fn handle_forwarded_reply(&mut self, world: &mut World, server: ActivityId, rep: Reply) {
        let Some(state) = self.server_state.get_mut(&server) else {
            return;
        };
        let Some((requester, own_work)) = state.pending.remove(&rep.id) else {
            return;
        };
        let forwarded = Reply {
            id: rep.id,
            outcome: rep.outcome,
            servers_touched: rep.servers_touched + own_work,
        };
        world.send(server, requester, Payload::Bytes(forwarded.encode()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BatchReply;
    use naming_sim::store;
    use naming_sim::topology::MachineId;

    /// A chain of three machines: m0 hosts the root, each subsequent hop's
    /// subtree lives on the next machine. Resolving `/hop1/hop2/leaf`
    /// crosses all three.
    fn chain_world() -> (World, NameService, Vec<MachineId>, ObjectId, Entity) {
        let mut w = World::new(71);
        let net = w.add_network("n");
        let machines: Vec<MachineId> = (0..3)
            .map(|i| w.add_machine(format!("m{i}"), net))
            .collect();
        // Build: root(m0) -> hop1(m1) -> hop2(m2) -> leaf
        let root = w.machine_root(machines[0]);
        let root1 = w.machine_root(machines[1]);
        let root2 = w.machine_root(machines[2]);
        let hop1 = store::ensure_dir(w.state_mut(), root1, "self1");
        let hop2 = store::ensure_dir(w.state_mut(), root2, "self2");
        store::attach(w.state_mut(), root, "hop1", hop1, false);
        store::attach(w.state_mut(), hop1, "hop2", hop2, false);
        let leaf = store::create_file(w.state_mut(), hop2, "leaf", vec![]);
        let mut svc = NameService::install(&mut w, &machines);
        // Place each machine's own tree before any tree that grafts it:
        // first-placement-wins means graft sources must claim their objects
        // first.
        for &m in machines.iter().rev() {
            let r = w.machine_root(m);
            svc.place_subtree(&w, r, m);
        }
        // Placement sanity: hop1 on m1, hop2 on m2.
        assert_eq!(svc.machine_of_object(hop1), Some(machines[1]));
        assert_eq!(svc.machine_of_object(hop2), Some(machines[2]));
        (w, svc, machines, root, Entity::Object(leaf))
    }

    #[test]
    fn iterative_resolution_crosses_machines() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, leaf);
        assert_eq!(stats.servers_touched, 3);
        // Iterative: 3 request/reply pairs.
        assert_eq!(stats.messages, 6);
        assert!(stats.latency.ticks() > 0);
    }

    #[test]
    fn recursive_resolution_returns_one_answer() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Recursive);
        assert_eq!(stats.entity, leaf);
        assert_eq!(stats.servers_touched, 3);
        // Recursive: req m0->srv0->srv1->srv2, replies back up: 6 messages,
        // but only ONE client round-trip.
        assert_eq!(stats.messages, 6);
    }

    #[test]
    fn single_machine_resolution_is_one_round_trip() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert!(stats.entity.is_defined());
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.servers_touched, 1);
    }

    #[test]
    fn missing_names_resolve_to_bottom() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/nope").unwrap();
        for mode in [Mode::Iterative, Mode::Recursive] {
            let stats = engine.resolve(&mut w, client, root, &name, mode);
            assert_eq!(stats.entity, Entity::Undefined);
        }
    }

    #[test]
    fn unplaced_start_fails_cleanly() {
        let (mut w, svc, machines, _, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let orphan = w.state_mut().add_context_object("orphan");
        let name = CompoundName::parse_path("/x").unwrap();
        let stats = engine.resolve(&mut w, client, orphan, &name, Mode::Iterative);
        assert_eq!(stats.entity, Entity::Undefined);
        assert_eq!(stats.messages, 0);
        assert!(stats.unreachable, "no authority addressable ≠ unbound");
    }

    #[test]
    fn zone_delta_pull_round_trips_incrementally() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let shard = SystemState::shard_of_id(root);
        let before = w.state().shard_serial(shard);
        let tgt = Entity::Object(root);
        let s1 = engine
            .publish_binding(&mut w, root, Name::new("alpha"), Some(tgt))
            .expect("bind commits");
        let s2 = engine
            .publish_binding(&mut w, root, Name::new("alpha"), None)
            .expect("unbind commits");
        assert!(s2.is_newer_than(s1) && s1.is_newer_than(before));
        let (delta, bytes) = engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, before)])
            .expect("pull completes");
        assert!(bytes > 0);
        assert_eq!(delta.shards.len(), 1);
        let slice = &delta.shards[0];
        assert!(
            !slice.full,
            "journal window covers the gap — IXFR, not AXFR"
        );
        assert_eq!(slice.serial, s2);
        assert_eq!(slice.changes.len(), 2);
        assert_eq!(slice.changes[0].entity, tgt);
        assert_eq!(slice.changes[1].entity, Entity::Undefined);
    }

    #[test]
    fn zone_delta_equal_serials_are_a_heartbeat() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let shard = SystemState::shard_of_id(root);
        let current = w.state().shard_serial(shard);
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, current)])
            .expect("pull completes");
        assert_eq!(delta.shards.len(), 1);
        assert!(!delta.shards[0].full);
        assert!(delta.shards[0].changes.is_empty());
        assert_eq!(delta.shards[0].serial, current);
    }

    #[test]
    fn zone_delta_falls_back_to_full_when_window_evicted() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_journal_window(2);
        let shard = SystemState::shard_of_id(root);
        let before = w.state().shard_serial(shard);
        for i in 0..5 {
            engine
                .publish_binding(
                    &mut w,
                    root,
                    Name::new(&format!("k{i}")),
                    Some(Entity::Object(root)),
                )
                .expect("bind commits");
        }
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, before)])
            .expect("pull completes");
        let slice = &delta.shards[0];
        assert!(slice.full, "evicted window must force a full transfer");
        assert_eq!(slice.serial, w.state().shard_serial(shard));
        // The dump carries the live bindings, including the five new keys.
        for i in 0..5 {
            assert!(slice
                .changes
                .iter()
                .any(|c| c.ctx == root && c.name == Name::new(&format!("k{i}"))));
        }
        // A pull from within the retained window still gets an IXFR.
        let mid = slice.serial;
        engine
            .publish_binding(&mut w, root, Name::new("k0"), None)
            .expect("unbind commits");
        let (delta2, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, mid)])
            .expect("pull completes");
        assert!(!delta2.shards[0].full);
        assert_eq!(delta2.shards[0].changes.len(), 1);
    }

    #[test]
    fn zone_delta_pull_over_dead_links_returns_none() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let shard = SystemState::shard_of_id(root);
        let before = w.state().shard_serial(shard);
        w.set_message_drop_rate(1.0);
        assert!(engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, before)])
            .is_none());
    }

    #[test]
    fn unjournaled_writes_poison_the_diff_window() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let shard = SystemState::shard_of_id(root);
        let before = w.state().shard_serial(shard);
        engine
            .publish_binding(&mut w, root, Name::new("seen"), Some(Entity::Object(root)))
            .expect("bind commits");
        // A write that bypasses publish_binding advances the serial behind
        // the journal's back; the next journaled write detects the gap.
        w.state_mut()
            .bind(root, Name::new("ghost"), Entity::Object(root))
            .expect("raw bind commits");
        engine
            .publish_binding(&mut w, root, Name::new("after"), Some(Entity::Object(root)))
            .expect("bind commits");
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], vec![(shard, before)])
            .expect("pull completes");
        let slice = &delta.shards[0];
        assert!(slice.full, "a serial gap must not be served as a diff");
        assert!(slice.changes.iter().any(|c| c.name == Name::new("ghost")));
    }

    #[test]
    fn lost_messages_end_in_bottom_not_hang() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        w.set_message_drop_rate(1.0);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, Entity::Undefined);
        assert!(
            stats.unreachable,
            "a lost exchange is a transport verdict, not ⊥"
        );
    }

    #[test]
    fn authoritative_bottom_is_not_flagged_unreachable() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/nope").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, Entity::Undefined);
        assert!(!stats.unreachable, "the server answered: genuinely unbound");
    }

    #[test]
    fn empty_batch_reply_is_unreachable_not_bottom() {
        // A BatchReply frame with an empty outcome list carries no
        // verdict; it used to surface as NotFound (⊥).
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let server = svc.server_on(machines[0]);
        let mut engine = ProtocolEngine::new(svc);
        let empty = BatchReply {
            id: engine.next_id,
            outcomes: Vec::new(),
            servers_touched: 1,
            lookups_saved: 0,
        };
        // On its way before the request it answers is sent, so it lands
        // ahead of the server's real answer.
        w.send(server, client, Payload::Bytes(empty.encode()));
        let name = CompoundName::parse_path("/hop1").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, Entity::Undefined);
        assert!(stats.unreachable, "no verdict is not ⊥");
    }

    #[test]
    fn retries_recover_from_message_loss() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        }));
        w.set_message_drop_rate(0.3);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        // Resolve repeatedly: under p=0.3 with 64 attempts per hop the
        // probability of an Unreachable answer is negligible, and any ⊥
        // here would be a false ⊥.
        for _ in 0..20 {
            let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
            assert_eq!(stats.entity, leaf);
            assert!(!stats.unreachable);
        }
        w.set_message_drop_rate(0.0);
        // Batch path under the same loss.
        w.set_message_drop_rate(0.3);
        let names = vec![
            name.clone(),
            CompoundName::parse_path("/hop1/hop2").unwrap(),
            CompoundName::parse_path("/hop1/nope").unwrap(),
        ];
        for _ in 0..10 {
            let batch = engine.resolve_batch(&mut w, client, root, &names);
            assert_eq!(batch.entities[0], leaf);
            assert!(batch.entities[1].is_defined());
            assert_eq!(batch.entities[2], Entity::Undefined);
            assert!(!batch.unreachable[2], "authoritative ⊥ stays authoritative");
            // Retransmissions never consume referral-progress rounds.
            assert!(batch.rounds <= name.len() as u32 + 1);
        }
        assert!(
            engine.retry_counters().retransmissions > 0,
            "p=0.3 over many exchanges must have lost something"
        );
    }

    /// `retry.attempts` hears about every answered exchange of a batch —
    /// it used to be fed by single resolves only.
    #[cfg(feature = "telemetry")]
    #[test]
    fn batch_exchanges_record_their_attempts() {
        let attempts = naming_telemetry::metrics::global().histogram("retry.attempts");
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy::default()));
        let before = attempts.count();
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let batch = engine.resolve_batch(&mut w, client, root, &[name]);
        assert_eq!(batch.entities, vec![leaf]);
        // Other tests share the registry: at least this batch's exchanges.
        assert!(attempts.count() >= before + u64::from(batch.rounds));
    }

    #[test]
    fn exhausted_deadlines_end_unreachable() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        }));
        w.set_message_drop_rate(1.0);
        let name = CompoundName::parse_path("/hop1").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, Entity::Undefined);
        assert!(stats.unreachable);
        let c = engine.retry_counters();
        assert_eq!(c.retransmissions, 2, "attempts 2 and 3");
        assert_eq!(c.exhausted, 1);
        // Batch path gives up the same way and flags every slot.
        let batch = engine.resolve_batch(&mut w, client, root, std::slice::from_ref(&name));
        assert_eq!(batch.entities, vec![Entity::Undefined]);
        assert_eq!(batch.unreachable, vec![true]);
    }

    #[test]
    fn late_replies_are_counted_not_answered() {
        // A deadline far below the round-trip time forces every first
        // answer to arrive late; the retransmitted attempt's answer wins
        // and the stragglers are tallied.
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy {
            base_timeout_ticks: 10, // RTT on the chain is ≥ 20 ticks
            max_attempts: 16,
            backoff_cap: 6,
        }));
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, leaf, "late replies must not break the walk");
        let c = engine.retry_counters();
        assert!(c.retransmissions >= 1);
        assert!(
            c.late_replies >= 1,
            "superseded attempts answered eventually: {c:?}"
        );
    }

    #[test]
    fn lossless_runs_are_identical_with_and_without_retry() {
        // The retry layer must be invisible when nothing is lost: same
        // entities, same message counts, same virtual-time latency.
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let names = vec![
            name.clone(),
            CompoundName::parse_path("/hop1").unwrap(),
            CompoundName::parse_path("/hop1/nope").unwrap(),
        ];
        let run = |retry: bool| {
            let (mut w, svc, machines, root, _) = chain_world();
            let client = w.spawn(machines[0], "client", None);
            let mut engine = ProtocolEngine::new(svc);
            if retry {
                engine.set_retry_policy(Some(RetryPolicy::default()));
            }
            let single = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
            let batch = engine.resolve_batch(&mut w, client, root, &names);
            (single, batch.entities, batch.messages, batch.latency)
        };
        let plain = run(false);
        let retried = run(true);
        assert_eq!(plain, retried);
    }

    #[test]
    fn failover_answers_from_replica_when_primary_dies() {
        // Replicate hop2's zone onto a standby machine, kill the primary,
        // and watch a deadline redirect the walk to the replica.
        let (mut w, mut svc, machines, root, leaf) = chain_world();
        let net = w.topology().machine_network(machines[0]);
        let standby = w.add_machine("standby", net);
        svc.add_server(&mut w, standby);
        let lookup = |w: &World, ctx: ObjectId, n: &str| match w
            .state()
            .lookup(ctx, naming_core::name::Name::new(n))
        {
            Entity::Object(o) => o,
            other => panic!("{n} missing: {other:?}"),
        };
        let hop1 = lookup(&w, root, "hop1");
        let hop2 = lookup(&w, hop1, "hop2");
        svc.replicate_zone(&mut w, hop2, standby);
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy::default()));
        let dead = engine.service().server_on(machines[2]);
        w.kill(dead);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(
            stats.entity, leaf,
            "replica must answer for the dead primary"
        );
        assert!(engine.retry_counters().failovers >= 1);
        // Restart the primary and republish: the direct route works again.
        let republished = engine.restart_server(&mut w, machines[2]);
        assert!(republished >= 1);
        engine.pump_idle(&mut w);
        let again = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(again.entity, leaf);
    }

    #[test]
    fn zone_updates_propagate_with_latency() {
        use naming_core::name::Name;
        // Primary on m2 (owns `rem`), replica on m1.
        let mut w = World::new(72);
        let net = w.add_network("n");
        let m1 = w.add_machine("m1", net);
        let m2 = w.add_machine("m2", net);
        let root1 = w.machine_root(m1);
        let root2 = w.machine_root(m2);
        let zone = store::ensure_dir(w.state_mut(), root2, "zone");
        let _old = store::create_file(w.state_mut(), zone, "rec", vec![1]);
        store::attach(w.state_mut(), root1, "far", zone, false);
        let mut svc = NameService::install(&mut w, &[m1, m2]);
        svc.place_subtree(&w, root2, m2);
        svc.place_subtree(&w, root1, m1);
        let copy = svc.replicate_zone(&mut w, zone, m1);
        let mut engine = ProtocolEngine::new(svc);

        // Primary rebinding opens the window.
        let fresh = w.state_mut().add_data_object("rec-v2", vec![2]);
        w.state_mut().bind(zone, Name::new("rec"), fresh).unwrap();
        assert_eq!(
            engine.service().replica_divergence(&w, zone).len(),
            1,
            "window open"
        );
        // Publish; before pumping, the copy is still stale.
        let sent = engine.publish_zone(&mut w, zone);
        assert_eq!(sent, 1);
        assert!(!engine.service().replica_divergence(&w, zone).is_empty());
        let t0 = w.now();
        let events = engine.pump_idle(&mut w);
        assert!(events >= 1);
        // Window length equals the network latency between the servers.
        let window = (w.now() - t0).ticks();
        assert_eq!(window, w.topology().latency_model().same_network);
        assert!(engine.service().replica_divergence(&w, zone).is_empty());
        // And the copy answers the new binding.
        assert_eq!(
            w.state().lookup(copy, Name::new("rec")),
            naming_core::entity::Entity::Object(fresh)
        );
    }

    #[test]
    fn publish_without_replicas_is_a_no_op() {
        let (mut w, svc, machines, root, _) = chain_world();
        let mut engine = ProtocolEngine::new(svc);
        assert_eq!(engine.publish_zone(&mut w, root), 0);
        assert_eq!(engine.pump_idle(&mut w), 0);
        let _ = machines;
    }

    #[test]
    fn batch_resolution_matches_singles_with_fewer_messages() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let names: Vec<CompoundName> = [
            "/hop1/hop2/leaf",
            "/hop1/hop2",
            "/hop1",
            "/hop1/nope",
            "/hop1/hop2/leaf", // duplicate: coalesces
        ]
        .iter()
        .map(|p| CompoundName::parse_path(p).unwrap())
        .collect();

        // Ground truth: each name alone.
        let mut single_msgs = 0u64;
        let singles: Vec<Entity> = names
            .iter()
            .map(|n| {
                let s = engine.resolve(&mut w, client, root, n, Mode::Iterative);
                single_msgs += s.messages;
                s.entity
            })
            .collect();
        assert_eq!(singles[0], leaf);

        let batch = engine.resolve_batch(&mut w, client, root, &names);
        assert_eq!(batch.entities, singles, "batch must agree name-by-name");
        // Three rounds (one per machine crossed), two messages each.
        assert_eq!(batch.rounds, 3);
        assert_eq!(batch.messages, 6);
        assert!(
            batch.messages * 3 <= single_msgs,
            "batched {} vs singles {}",
            batch.messages,
            single_msgs
        );
        // The duplicate name coalesced in every one of the three rounds
        // (one avoided exchange per round).
        assert_eq!(batch.coalesced, 3);
        assert!(batch.hops_saved > 0, "shared prefixes saved server work");
        // The deepest referral the batch followed is recordable: the
        // prefix "/hop1/hop2" of the first name handed authority to
        // machine 2.
        assert!(batch
            .referrals
            .iter()
            .any(|hop| (hop.slot, hop.consumed, hop.machine) == (0, 3, machines[2])));
    }

    #[test]
    fn batch_of_one_matches_single_resolve() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let single = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        let batch = engine.resolve_batch(&mut w, client, root, std::slice::from_ref(&name));
        assert_eq!(batch.entities, vec![leaf]);
        assert_eq!(batch.messages, single.messages);
        assert_eq!(batch.latency, single.latency);
        assert_eq!(batch.servers_touched, single.servers_touched);
    }

    #[test]
    fn batch_with_lost_messages_ends_in_bottom_not_hang() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        w.set_message_drop_rate(1.0);
        let names = vec![
            CompoundName::parse_path("/hop1/hop2/leaf").unwrap(),
            CompoundName::parse_path("/hop1").unwrap(),
        ];
        let batch = engine.resolve_batch(&mut w, client, root, &names);
        assert_eq!(batch.entities, vec![Entity::Undefined, Entity::Undefined]);
        assert_eq!(
            batch.unreachable,
            vec![true, true],
            "lost batch exchanges are transport verdicts"
        );
    }

    #[test]
    fn batch_from_unplaced_start_is_all_bottom() {
        let (mut w, svc, machines, _, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let orphan = w.state_mut().add_context_object("orphan");
        let names = vec![CompoundName::parse_path("/x").unwrap()];
        let batch = engine.resolve_batch(&mut w, client, orphan, &names);
        assert_eq!(batch.entities, vec![Entity::Undefined]);
        assert_eq!(batch.messages, 0);
        assert_eq!(batch.unreachable, vec![true]);
    }

    #[test]
    fn traced_resolve_reports_the_referral_chain() {
        let (mut w, svc, machines, root, leaf) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let (stats, hops) = engine.resolve_traced(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!(stats.entity, leaf);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].consumed, 2); // "/", "hop1" consumed
        assert_eq!(hops[0].machine, machines[1]);
        assert_eq!(hops[1].consumed, 3);
        assert_eq!(hops[1].machine, machines[2]);
        // Recursive mode: the client never sees referrals.
        let (_, rhops) = engine.resolve_traced(&mut w, client, root, &name, Mode::Recursive);
        assert!(rhops.is_empty());
    }

    #[test]
    fn recursive_latency_beats_iterative_for_remote_clients() {
        // A client far from the chain benefits from recursion: referral
        // chasing pays the client<->server distance each hop.
        let (mut w, svc, machines, root, leaf) = chain_world();
        // Client on a separate network, far from everything.
        let far_net = w.add_network("far");
        let far_machine = w.add_machine("far-host", far_net);
        let client = w.spawn(far_machine, "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        let it = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        let rec = engine.resolve(&mut w, client, root, &name, Mode::Recursive);
        assert_eq!(it.entity, leaf);
        assert_eq!(rec.entity, leaf);
        assert!(
            rec.latency < it.latency,
            "recursive {:?} should beat iterative {:?}",
            rec.latency,
            it.latency
        );
        let _ = machines;
    }
}
