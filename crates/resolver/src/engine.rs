//! The protocol engine: drives resolution requests through the simulated
//! network, with servers answering iteratively or chasing referrals
//! recursively.
//!
//! The simulator's processes are passive mailboxes; the engine supplies
//! the server logic, pumping the event queue and handling each delivered
//! frame. All scheduling remains deterministic.
//!
//! The engine holds the one pump, `ProtocolEngine::pump`: every
//! continuation in flight, by ticket, and every client that launched one
//! or a pull. Each driver is a thin caller of it — a blocking `resolve*`
//! pumps until its ticket finishes, a pull until its answer comes,
//! the [`PipelinedService`](crate::runtime::PipelinedService) until any of
//! its batches finishes — and whoever pumps hands each reply and deadline
//! to the continuation that awaits it, so no driver drops another's mail.
//!
//! A blocking resolution's answer is lent until the next call on the engine
//! ([`ProtocolEngine::resolve_batch`], the hops of
//! [`ProtocolEngine::resolve_traced`]): the next resolution starts in its
//! vectors. `clone()` or `to_vec()` keeps it.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bytes::{Bytes, BytesMut};
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
use naming_core::state::SystemState;
use naming_sim::codec;
use naming_sim::message::{Parts, Payload};
use naming_sim::time::{Duration, VirtualTime};
use naming_sim::topology::MachineId;
use naming_sim::world::{Stepped, World};

use crate::coherence::ZoneJournal;
use crate::continuation::{Continuation, Dense, Route, Start};
use crate::service::{note_read, BatchScratch, NameService};
use crate::wire::{
    self, KeptDelta, Label, Mode, NameTrie, Outcome, PullFrame, ReplyFrame, RequestFrame,
    WalkScratch, ZoneChange, ZoneRead, ZoneUpdate,
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
    /// The reply being read: its outcomes and the zones it read.
    pub(crate) outcomes: Vec<Outcome>,
    pub(crate) reads: Vec<ZoneRead>,
    /// What the last blocking resolution's replies read, by input slot,
    /// and the ticket it runs under: no other continuation's go there.
    pub(crate) reads_by_slot: Vec<(usize, ZoneRead)>,
    pub(crate) reads_of: Option<u64>,
    pub(crate) spares: Spares,
    /// Read lists between forwards: a forwarding server's own reads wait in
    /// one until its answer is relayed, so never more than were forwarded
    /// at once.
    read_spares: Vec<Vec<ZoneRead>>,
    /// The pull being answered: the serials its puller holds.
    since: Vec<(usize, ZoneSerial)>,
    /// The last pull's answer, lent to its puller.
    delta: KeptDelta,
}

/// Frame buffers between flights — a sender encodes into one, whoever reads
/// the frame hands it back, and a frame the network does not carry comes
/// back to its sender — so never more than flew at once. Pull frames have
/// spares of their own, of their own size.
#[derive(Debug, Default)]
pub(crate) struct Spares {
    frames: Vec<BytesMut>,
    pulls: Vec<BytesMut>,
}

/// What a spare holds: the yardstick's largest regular frame is some 400
/// bytes. A larger frame has, as every frame used to, a buffer of its own.
const FRAME_CAPACITY: usize = 512;

/// What a pull frame's spare holds. A pull's request and its reply name
/// every zone, 10 and 15 bytes each, so 65 zones take some 1 KB; a reply's
/// changes add some 25 bytes each. A full transfer is larger, and has a
/// buffer of its own that goes when it has been read.
const PULL_CAPACITY: usize = 4096;

impl Spares {
    /// An empty buffer for a resolution frame of exactly `len` bytes.
    pub(crate) fn take(&mut self, len: usize) -> BytesMut {
        Self::take_from(&mut self.frames, FRAME_CAPACITY, len)
    }

    /// An empty buffer for a pull frame of exactly `len` bytes.
    fn take_pull(&mut self, len: usize) -> BytesMut {
        Self::take_from(&mut self.pulls, PULL_CAPACITY, len)
    }

    fn take_from(spares: &mut Vec<BytesMut>, capacity: usize, len: usize) -> BytesMut {
        let spare = (len <= capacity).then(|| spares.pop()).flatten();
        spare.unwrap_or_else(|| BytesMut::with_capacity(len.max(capacity)))
    }

    /// Takes back the buffer of a frame that has been read, unless another
    /// view still holds it or it is no spare: the spares are as many as flew
    /// at once and as large as they were made, whatever the traffic seen.
    fn recycle(&mut self, frame: Bytes) {
        let pull = matches!(
            frame.first(),
            Some(&(wire::TAG_ZONE_DELTA_REQUEST | wire::TAG_ZONE_DELTA))
        );
        let (spares, capacity) = if pull {
            (&mut self.pulls, PULL_CAPACITY)
        } else {
            (&mut self.frames, FRAME_CAPACITY)
        };
        let fits = frame.len() <= capacity;
        let spare = frame.try_into_mut().ok();
        if let Some(mut buf) = spare.filter(|b| fits && b.capacity() >= capacity) {
            buf.clear();
            spares.push(buf);
        }
    }

    /// Takes back the frames of a message [`World::send`] handed back
    /// unsent: lost, or unroutable.
    pub(crate) fn reclaim(&mut self, unsent: Option<Parts>) {
        for part in unsent.into_iter().flatten() {
            if let Payload::Bytes(frame) = part {
                self.recycle(frame);
            }
        }
    }
}

/// Hands a forward's read list back, emptied, for the next forward.
fn recycle_reads(spares: &mut Vec<Vec<ZoneRead>>, mut own: Vec<ZoneRead>) {
    own.clear();
    spares.push(own);
}

/// Safety bound on the events a driver pumps per in-flight batch.
pub(crate) const MAX_STEPS_PER_BATCH: usize = 100_000;

/// Drives the resolution protocol over a [`World`].
#[derive(Debug)]
pub struct ProtocolEngine {
    service: NameService,
    /// Recursive requests a server forwarded: (server, request id) → whom
    /// to relay the answer to, and the zones the server's own walk read.
    /// Forgotten with the superseded attempts (see `forget_unanswerable`)
    /// or when the server restarts.
    forwarding: BTreeMap<(ActivityId, u64), (ActivityId, Vec<ZoneRead>)>,
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
    /// The last blocking resolution, finished: its answer is lent to the
    /// caller until the next continuation starts on its vectors.
    pub(crate) answered: Option<Continuation>,
    /// Launched, unfinished continuations by ticket; the routes name them.
    conts: Dense<Continuation>,
    next_ticket: u64,
    /// Continuations whose round completed since they last advanced.
    ready: Vec<u64>,
    /// Finished continuations with their completion tick, until the
    /// driver that launched them takes them.
    finished: Vec<(u64, VirtualTime, Continuation)>,
    /// Every client that launched a continuation or a pull, and those an
    /// event named since their mail was last read.
    clients: BTreeSet<ActivityId>,
    touched: Vec<ActivityId>,
    /// The id of the pull awaiting its answer and, once the answer is read
    /// into `scratch.delta`, its frame's length.
    pull: Option<u64>,
    pulled: Option<u64>,
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
            forwarding: BTreeMap::new(),
            next_id: 1,
            routes: Dense::default(),
            retry: None,
            superseded: HashSet::default(),
            counters: RetryCounters::default(),
            journal: ZoneJournal::default(),
            scratch: Scratch::default(),
            idle: Vec::new(),
            answered: None,
            conts: Dense::default(),
            next_ticket: 0,
            ready: Vec::new(),
            finished: Vec::new(),
            clients: BTreeSet::new(),
            touched: Vec::new(),
            pull: None,
            pulled: None,
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

    /// The correlation id the next request will carry: ids are issued in
    /// order, one per request sent.
    pub fn next_request_id(&self) -> u64 {
        self.next_id
    }

    /// Allocates a fresh request id: one counter for every continuation's
    /// requests and every pull, so interleaved drivers never collide
    /// correlation ids.
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

    /// Forgets every superseded attempt and every forwarded recursive
    /// request when no message is in flight (so in particular whenever the
    /// event queue has run dry): no request is still on its way to a server
    /// and no reply on its way back, so none of them can be answered any
    /// more. Most are left because a request or reply was *lost*; they
    /// would otherwise stay for good. The pump calls this after each
    /// routing pass, when every known client's mail has been read, so no
    /// late reply waits there uncounted — and so does
    /// [`ProtocolEngine::pump_idle`], which reads no client's mail: a late
    /// reply waiting in a client's mailbox when it runs is forgotten
    /// uncounted.
    pub(crate) fn forget_unanswerable(&mut self, world: &World) {
        if world.messages_in_flight() == 0 {
            self.superseded.clear();
            let spares = &mut self.scratch.read_spares;
            while let Some((_, (_, own))) = self.forwarding.pop_first() {
                recycle_reads(spares, own);
            }
        }
    }

    /// Counts a deadline-driven retransmission.
    pub(crate) fn note_retransmission(&mut self) {
        self.counters.retransmissions += 1;
        naming_telemetry::counter!("retry.retransmissions").bump();
    }

    /// Counts an attempt redirected to a replica.
    pub(crate) fn note_failover(&mut self) {
        self.counters.failovers += 1;
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
        self.forwarding.retain(|&(by, _), _| by != server);
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
        self.resolve_traced_from(world, client, (start, 0, name.components()), mode)
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
    ) -> (ResolveStats, &[ReferralHop]) {
        let stats = self.resolve_traced_from(world, client, (start, 0, name.components()), mode);
        (stats, &self.answer().referrals)
    }

    /// [`ProtocolEngine::resolve`] for a name whose resolution starts past
    /// a prefix of it. The hops stay in the engine's [`answer`].
    ///
    /// [`answer`]: ProtocolEngine::answer
    pub(crate) fn resolve_traced_from(
        &mut self,
        world: &mut World,
        client: ActivityId,
        from: Start<'_>,
        mode: Mode,
    ) -> ResolveStats {
        self.block_on(world, client, std::iter::once(from), mode);
        let batch = self.answer();
        let stats = ResolveStats {
            entity: batch.entities[0],
            messages: batch.messages,
            servers_touched: batch.servers_touched,
            latency: batch.latency,
            unreachable: batch.unreachable[0],
        };
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
        stats
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
    ) -> &BatchResolveStats {
        let names = names.iter().map(|name| (start, 0, name.components()));
        self.resolve_from(world, client, names);
        self.answer()
    }

    /// [`ProtocolEngine::resolve_batch`] for names that each start where
    /// they say: all of them in one exchange set, whatever their contexts.
    /// The answer stays in the engine: see [`ProtocolEngine::answer`].
    pub(crate) fn resolve_from<'n>(
        &mut self,
        world: &mut World,
        client: ActivityId,
        names: impl ExactSizeIterator<Item = Start<'n>>,
    ) {
        self.block_on(world, client, names, Mode::Iterative);
        let stats = self.answer();
        naming_telemetry::counter!("protocol.batch_resolves").bump();
        naming_telemetry::counter!("protocol.hops_saved").add(stats.hops_saved);
        naming_telemetry::counter!("protocol.coalesced").add(stats.coalesced);
        naming_telemetry::histogram!("protocol.batch_size").record(stats.entities.len() as u64);
        naming_telemetry::histogram!("protocol.batch_messages").record(stats.messages);
    }

    /// The blocking driver: launches one [`Continuation`] and pumps until
    /// it finishes, then keeps it, answer and all, and lends the answer
    /// ([`ProtocolEngine::answer`]). `messages` and
    /// `latency` are what went over the wire and how much virtual time
    /// passed meanwhile — everything on the timeline, not only this batch's
    /// own traffic.
    fn block_on<'n>(
        &mut self,
        world: &mut World,
        client: ActivityId,
        names: impl ExactSizeIterator<Item = Start<'n>>,
        mode: Mode,
    ) {
        let t0 = world.now();
        let sent0 = world.trace().counter("sent");
        self.scratch.reads_by_slot.clear();
        let cont = Continuation::new(self, client, names, mode);
        self.drain_servers(world);
        let ticket = self.launch(world, cont);
        self.scratch.reads_of = Some(ticket);
        let mut budget = MAX_STEPS_PER_BATCH;
        let mut cont = loop {
            if let Some((_, cont)) = self.take_finished(ticket) {
                break cont;
            }
            self.pump(world, &mut budget);
        };
        cont.stats.messages = world.trace().counter("sent") - sent0;
        cont.stats.latency = world.now() - t0;
        self.answered = Some(cont);
    }

    /// The answer of the last blocking resolution, lent: the engine keeps
    /// its vectors for the next one.
    pub(crate) fn answer(&self) -> &BatchResolveStats {
        &self
            .answered
            .as_ref()
            .expect("a resolution has finished")
            .stats
    }

    /// Files `cont` under the next ticket and starts it: its first round
    /// goes out now, and its client's mail is read on the pump's next
    /// routing pass. One that finishes on the spot is parked as finished.
    pub(crate) fn launch(&mut self, world: &mut World, mut cont: Continuation) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        cont.ticket = ticket;
        self.clients.insert(cont.client);
        self.touched.push(cont.client);
        if cont.advance(self, world) {
            self.finished.push((ticket, world.now(), cont));
        } else {
            self.conts.insert(ticket, cont);
        }
        ticket
    }

    /// The continuation launched under `ticket` and the tick it finished
    /// at, once it has.
    pub(crate) fn take_finished(&mut self, ticket: u64) -> Option<(VirtualTime, Continuation)> {
        let at = self.finished.iter().position(|&(t, ..)| t == ticket)?;
        let (_, tick, cont) = self.finished.remove(at);
        Some((tick, cont))
    }

    /// The first finished continuation no driver has taken yet.
    pub(crate) fn parked(&self) -> Option<u64> {
        self.finished.first().map(|&(ticket, ..)| ticket)
    }

    /// Has the pump read every known client's mail on its next routing
    /// pass: the sweep for mail a caller's own stepping delivered.
    pub(crate) fn touch_clients(&mut self) {
        self.touched.clear();
        self.touched.extend(self.clients.iter().copied());
    }

    /// The one pump. Reads the mail of the clients an event named (or a
    /// launch or pull touched), hands each reply and deadline to the
    /// continuation that awaits it, advances those whose round completed
    /// in ticket order, and runs the next event — until a continuation
    /// finishes in this call: its ticket is returned and it is parked for
    /// its driver, and the rest of the ready list waits for the next call.
    /// `None`: the pull waited on is over, or nothing is in flight. On a
    /// dry queue or a spent `budget` (events left to run) the open
    /// exchanges get transport verdicts and a pull is given up.
    pub(crate) fn pump(&mut self, world: &mut World, budget: &mut usize) -> Option<u64> {
        let mut conts = std::mem::take(&mut self.conts);
        let pulling = self.pull.is_some();
        let finished = 'pump: loop {
            for i in 0..self.touched.len() {
                self.poll_client(world, self.touched[i], &mut conts);
            }
            self.touched.clear();
            if pulling && self.pull.is_none() {
                break None;
            }
            self.ready.sort_unstable_by(|a, b| b.cmp(a));
            self.ready.dedup();
            while let Some(ticket) = self.ready.pop() {
                let Some(cont) = conts.get_mut(ticket) else {
                    continue;
                };
                if cont.advance(self, world) {
                    let cont = conts.remove(ticket).expect("just advanced");
                    self.finished.push((ticket, world.now(), cont));
                    break 'pump Some(ticket);
                }
            }
            // Every known client's mail so far has been routed: a late
            // reply can now only come from a message still travelling.
            self.forget_unanswerable(world);
            if conts.is_empty() && !pulling {
                break None;
            }
            let stepped = if *budget > 0 {
                world.step_event()
            } else {
                None
            };
            let Some(ev) = stepped else {
                // Dead protocol, or out of budget: no event will arrive for
                // what is outstanding. Its slots get transport verdicts;
                // finishing those rounds may start new ones (referrals
                // already in hand), which re-arms the queue.
                for cont in conts.values_mut() {
                    cont.fail_unanswered(self);
                    self.ready.push(cont.ticket);
                }
                self.pull = None;
                continue;
            };
            *budget -= 1;
            self.serve(world, ev);
            let (Stepped::Delivered(pid) | Stepped::Woke(pid)) = ev;
            if self.clients.contains(&pid) {
                self.touched.push(pid);
            }
        };
        self.conts = conts;
        finished
    }

    /// The zones the replies of the last blocking resolution read, each as
    /// `(input slot, read)`, in the order they were heard: what a name's
    /// answer stands on.
    pub(crate) fn reads(&self) -> &[(usize, ZoneRead)] {
        &self.scratch.reads_by_slot
    }

    /// Reads `client`'s mailbox — the one place a client's mail is read —
    /// and hands the continuations in `conts` what it has heard since it was
    /// last polled: first the replies waiting there, then the deadlines.
    /// One whose round is complete goes on the ready list. A pull's answer
    /// (tag 7) answers the pull awaited. A reply nothing awaits is late
    /// (counted) or stray; a deadline nothing awaits was answered on the
    /// step it expired, or already superseded.
    fn poll_client(
        &mut self,
        world: &mut World,
        client: ActivityId,
        conts: &mut Dense<Continuation>,
    ) {
        while let Some(msg) = world.receive(client) {
            for part in msg.parts {
                let Payload::Bytes(bytes) = part else {
                    continue;
                };
                if bytes.first() == Some(&wire::TAG_ZONE_DELTA) {
                    self.hear_delta(&bytes);
                    self.scratch.spares.recycle(bytes);
                    continue;
                }
                let s = &mut self.scratch;
                let read = wire::read_reply(&bytes, &mut s.outcomes, &mut s.reads);
                s.spares.recycle(bytes);
                let Some((id, touched, saved)) = read else {
                    continue;
                };
                match self.routes.get_mut(id) {
                    Some(&mut route) => self.deliver(world, conts, route, Some((touched, saved))),
                    None => self.note_stale_reply(id),
                }
            }
        }
        if self.retry.is_some() {
            while let Some(token) = world.take_wake(client) {
                if let Some(&mut route) = self.routes.get_mut(token) {
                    self.deliver(world, conts, route, None);
                }
            }
        }
    }

    /// Reads a pull's answer frame a client heard into the kept delta when
    /// it bears the id of the pull awaited; one that does not read whole is
    /// no answer. Any other is dropped unread: a pull is never
    /// retransmitted, so no answer is late, and an id a superseded
    /// resolution attempt bore is for that attempt's reply to count.
    fn hear_delta(&mut self, frame: &[u8]) {
        if self
            .pull
            .is_some_and(|id| wire::delta_id(frame) == Some(id))
            && self.scratch.delta.read(frame).is_some()
        {
            self.pull = None;
            self.pulled = Some(frame.len() as u64);
        }
    }

    /// Hands exchange `k` of continuation `owner` what was heard of it.
    fn deliver(
        &mut self,
        world: &mut World,
        conts: &mut Dense<Continuation>,
        (owner, k): Route,
        reply: Option<(u32, u32)>,
    ) {
        let cont = conts
            .get_mut(owner)
            .expect("a route names a continuation in flight");
        cont.heard(self, world, k, reply);
        if !cont.suspended() {
            self.ready.push(owner);
        }
    }

    /// Publishes a replicated zone's current bindings: the primary's
    /// server sends a [`ZoneUpdate`] frame to every secondary. The copies
    /// converge when the frames arrive (after network latency) — drive the
    /// queue with [`ProtocolEngine::pump_idle`] or any `resolve`.
    ///
    /// Returns the number of updates sent: none when the wire cannot carry
    /// the zone.
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
        let Some(frame) = codec::try_encode(&update) else {
            return 0;
        };
        let from = self.service.server_on(primary);
        for &m in secondaries {
            let to = self.service.server_on(m);
            let unsent = world.send(from, to, Payload::Bytes(frame.clone()));
            self.scratch.spares.reclaim(unsent);
        }
        secondaries.len()
    }

    /// Commits one naming write — `Some(entity)` binds, `None` unbinds —
    /// and journals it, with the binding it replaced, at the zone serial
    /// the write advanced to, so anti-entropy pulls can replay it
    /// incrementally. This is the publication path of lease coherence:
    /// writes that bypass it (raw `state_mut()` mutation) still advance the
    /// serial, but the journal detects the gap and falls back to full
    /// transfers rather than serving a diff with holes.
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
        let was = world.state().lookup(ctx, name);
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
                was,
            },
        );
        Some(serial)
    }

    /// Pulls zone deltas from the authority on `machine`: sends a pull
    /// request (tag 6) carrying `since` (the serials the caller already
    /// holds) and pumps until the matching answer (tag 7) arrives; replies
    /// and deadlines heard meanwhile go to the continuations that await
    /// them. Returns the answer, read into a [`KeptDelta`] the engine keeps
    /// and lent until the next pull, plus the wire bytes the exchange cost
    /// (request + reply frames); `None` when the exchange was lost or the
    /// wire cannot carry one of its frames (no retry: anti-entropy is
    /// periodic, the next pull catches up). A warm pull allocates nothing.
    pub fn pull_zone_deltas(
        &mut self,
        world: &mut World,
        client: ActivityId,
        machine: MachineId,
        since: &[(usize, ZoneSerial)],
    ) -> Option<(&KeptDelta, u64)> {
        let id = self.alloc_id();
        let spares = &mut self.scratch.spares;
        let frame = codec::encode_with(&PullFrame(id, since), |len| spares.take_pull(len))?;
        let req_bytes = frame.len() as u64;
        let server = self.service.server_on(machine);
        self.drain_servers(world);
        let unsent = world.send(client, server, Payload::Bytes(frame));
        self.scratch.spares.reclaim(unsent);
        self.clients.insert(client);
        self.touched.push(client);
        self.pull = Some(id);
        let mut budget = MAX_STEPS_PER_BATCH;
        while self.pump(world, &mut budget).is_some() {}
        let rep_bytes = self.pulled.take()?;
        Some((&self.scratch.delta, req_bytes + rep_bytes))
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

    /// Records a reply that arrived after its attempt was superseded by a
    /// retransmission. Stale replies are counted — losing them silently
    /// would hide how often the deadline fired early — but never acted on.
    pub(crate) fn note_stale_reply(&mut self, id: u64) {
        if self.superseded.remove(&id) {
            self.counters.late_replies += 1;
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
                // Resolution frames are read in the scratch.
                match b.first() {
                    Some(&(wire::TAG_BATCH_REQUEST | wire::TAG_RECURSIVE)) => {
                        self.answer_request(world, machine, server, from, b)
                    }
                    Some(&wire::TAG_BATCH_REPLY) => self.relay_reply(world, server, b),
                    Some(&wire::TAG_ZONE_UPDATE) => {
                        if let Some(update) = ZoneUpdate::decode(b) {
                            self.handle_zone_update(world, machine, update);
                        }
                    }
                    Some(&wire::TAG_ZONE_DELTA_REQUEST) => self.answer_pull(world, server, from, b),
                    // Anything else is dropped like any undecodable frame.
                    _ => {}
                }
            }
        }
    }

    /// Answers a request frame, decoded into the scratch trie, with one
    /// walk: one reply encoded from the walk's outcomes — unless the request
    /// is recursive and the walk referred its one name onward. Then the rest
    /// of that name goes to the next server as a recursive request, from the
    /// next context under the same id, and its answer is relayed back
    /// ([`ProtocolEngine::relay_reply`]); if no name server runs there, the
    /// answer is `Unreachable`. A malformed frame is dropped.
    fn answer_request(
        &mut self,
        world: &mut World,
        machine: MachineId,
        server: ActivityId,
        requester: ActivityId,
        frame: Bytes,
    ) {
        let (service, s) = (&self.service, &mut self.scratch);
        let read = wire::read_request(&frame, &mut s.trie, &mut s.seen);
        s.spares.recycle(frame);
        let Some((mode, id, start)) = read else {
            return;
        };
        let saved = service.local_resolve_batch_in(world, machine, start, &s.trie, &mut s.batch);
        // A recursive request asks exactly one name.
        let referred = s.batch.outcomes.first().filter(|_| mode == Mode::Recursive);
        if let Some(&Outcome::Referral {
            next_machine,
            next_ctx,
            remaining,
        }) = referred
        {
            if let Some(next) = service.server_if_on(next_machine) {
                let (mut walk, mut rest) = (WalkScratch::default(), Vec::<Label>::new());
                s.trie.walk(&mut walk, (), |_, node, path, ()| {
                    if node.query.is_some() {
                        rest.extend_from_slice(&path[path.len() - usize::from(remaining)..]);
                    }
                });
                let (trie, cells, remap) = (&mut s.trie, &mut s.cells, &mut s.remap);
                remap.clear();
                trie.rebuild(std::iter::once(&rest[..]), true, cells, remap);
                let request = RequestFrame(Mode::Recursive, id, next_ctx, &s.trie);
                let frame = codec::encode_with(&request, |len| s.spares.take(len));
                if let Some(frame) = frame {
                    let mut own = s.read_spares.pop().unwrap_or_default();
                    own.extend_from_slice(&s.batch.reads);
                    self.forwarding.insert((server, id), (requester, own));
                    let unsent = world.send(server, next, Payload::Bytes(frame));
                    return s.spares.reclaim(unsent);
                }
            }
            // Nobody runs there, or the wire cannot carry what is left.
            s.batch.outcomes[0] = Outcome::Unreachable { attempts: 0 };
        }
        let reply = ReplyFrame(id, 1, saved, &s.batch.outcomes, &s.batch.reads);
        let reply = codec::encode_with(&reply, |len| s.spares.take(len));
        if let Some(reply) = reply {
            let unsent = world.send(server, requester, Payload::Bytes(reply));
            s.spares.reclaim(unsent);
        }
    }

    /// Answers a pull: its serials are read into the scratch, and the
    /// journal writes its answer straight into a spare. A malformed request
    /// is dropped; an answer the wire cannot carry is not sent, and the
    /// pull is lost.
    fn answer_pull(
        &mut self,
        world: &mut World,
        server: ActivityId,
        puller: ActivityId,
        frame: Bytes,
    ) {
        let s = &mut self.scratch;
        let read = wire::read_pull(&frame, &mut s.since);
        s.spares.recycle(frame);
        let Some(id) = read else {
            return;
        };
        let answer = self.journal.answer_frame(world.state(), id, &s.since);
        let frame = codec::encode_with(&answer, |len| s.spares.take_pull(len));
        if let Some(frame) = frame {
            let unsent = world.send(server, puller, Payload::Bytes(frame));
            s.spares.reclaim(unsent);
        }
    }

    /// Relays the answer to a recursive request `server` forwarded to whom
    /// it forwarded it for, counting `server` among the servers touched and
    /// adding the zones its own walk read. A reply nothing was forwarded for
    /// is dropped.
    fn relay_reply(&mut self, world: &mut World, server: ActivityId, frame: Bytes) {
        let s = &mut self.scratch;
        let read = wire::read_reply(&frame, &mut s.outcomes, &mut s.reads);
        s.spares.recycle(frame);
        let Some((id, touched, saved)) = read else {
            return;
        };
        let Some((requester, own)) = self.forwarding.remove(&(server, id)) else {
            return;
        };
        own.iter().for_each(|&read| note_read(&mut s.reads, read));
        recycle_reads(&mut s.read_spares, own);
        let touched = touched.saturating_add(1);
        let reply = ReplyFrame(id, touched, saved, &s.outcomes, &s.reads);
        let reply = codec::encode_with(&reply, |len| s.spares.take(len));
        if let Some(reply) = reply {
            let unsent = world.send(server, requester, Payload::Bytes(reply));
            s.spares.reclaim(unsent);
        }
    }

    /// Installs a pushed zone on `machine`'s copy of it. The primary
    /// ignores its own echo.
    fn handle_zone_update(&mut self, world: &mut World, machine: MachineId, update: ZoneUpdate) {
        let Some(copy) = self.service.zone_copy_on(update.zone, machine) else {
            return;
        };
        if copy != update.zone {
            let bindings = update.bindings.into_iter().collect();
            self.service
                .install_copy(world, update.zone, copy, bindings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::Dump;
    use crate::wire::{BatchReply, SliceHead};
    use naming_sim::store;
    use naming_sim::topology::MachineId;

    impl ProtocolEngine {
        /// Mutable access to the service (placement changes).
        pub(crate) fn service_mut(&mut self) -> &mut NameService {
            &mut self.service
        }

        /// Superseded attempts a late reply could still arrive for.
        pub(crate) fn superseded_pending(&self) -> usize {
            self.superseded.len()
        }
    }

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

    /// The answer the authority on `machine` sends `client` for a pull from
    /// `since`, read whole: a full dump's changes too.
    fn dumped(
        engine: &mut ProtocolEngine,
        w: &mut World,
        client: ActivityId,
        machine: MachineId,
        since: &[(usize, ZoneSerial)],
    ) -> Dump {
        let (id, server) = (engine.alloc_id(), engine.service().server_on(machine));
        w.send(
            client,
            server,
            Payload::Bytes(codec::encode(&PullFrame(id, since))),
        );
        engine.pump_idle(w);
        let answer = w.receive(client).and_then(|m| m.parts.into_iter().next());
        let Some(Payload::Bytes(frame)) = answer else {
            panic!("the authority answered");
        };
        Dump::read(&frame).expect("the answer reads")
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
            .pull_zone_deltas(&mut w, client, machines[0], &[(shard, before)])
            .expect("pull completes");
        assert!(bytes > 0);
        assert_eq!(delta.slices().len(), 1);
        let slice = delta.slices().next().unwrap();
        assert!(
            !slice.full,
            "journal window covers the gap — IXFR, not AXFR"
        );
        assert_eq!((slice.serial, slice.changes), (s2, 2));
        let changes = delta
            .diff(0)
            .expect("an incremental slice keeps its changes");
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].entity, tgt);
        assert_eq!(changes[1].entity, Entity::Undefined);
    }

    #[test]
    fn zone_delta_equal_serials_are_a_heartbeat() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let shard = SystemState::shard_of_id(root);
        let current = w.state().shard_serial(shard);
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], &[(shard, current)])
            .expect("pull completes");
        let heartbeat = SliceHead {
            shard,
            serial: current,
            full: false,
            changes: 0,
        };
        assert!(delta.slices().eq([heartbeat]));
        assert_eq!(delta.diff(0), Some(&[][..]));
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
        let since = [(shard, before)];
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], &since)
            .expect("pull completes");
        let slice = delta.slices().next().unwrap();
        assert!(slice.full, "evicted window must force a full transfer");
        assert_eq!(slice.serial, w.state().shard_serial(shard));
        // The dump carries the live bindings, including the five new keys.
        let dump = dumped(&mut engine, &mut w, client, machines[0], &since);
        assert_eq!(dump.slices[0].0, slice);
        for i in 0..5 {
            assert!(dump.slices[0]
                .1
                .iter()
                .any(|c| c.ctx == root && c.name == Name::new(&format!("k{i}"))));
        }
        // A pull from within the retained window still gets an IXFR.
        let mid = slice.serial;
        engine
            .publish_binding(&mut w, root, Name::new("k0"), None)
            .expect("unbind commits");
        let (delta2, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], &[(shard, mid)])
            .expect("pull completes");
        assert_eq!(delta2.diff(0).map(<[_]>::len), Some(1));
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
            .pull_zone_deltas(&mut w, client, machines[0], &[(shard, before)])
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
        let since = [(shard, before)];
        let (delta, _) = engine
            .pull_zone_deltas(&mut w, client, machines[0], &since)
            .expect("pull completes");
        let slice = delta.slices().next().unwrap();
        assert!(slice.full, "a serial gap must not be served as a diff");
        let dump = dumped(&mut engine, &mut w, client, machines[0], &since);
        assert_eq!(dump.slices[0].0, slice);
        assert!(dump.slices[0]
            .1
            .iter()
            .any(|c| c.name == Name::new("ghost")));
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

    /// The zone's primary is on a far network, its replica beside the
    /// client, and a deadline is far below the round trip to the primary.
    /// A resolve of `leaf` from the zone itself addresses the primary
    /// first; its deadline fails over to the replica, which answers long
    /// before the primary's reply lands. Returns the world, the engine, the
    /// client, the replica's and the primary's machines, the zone and
    /// `leaf`'s entity.
    fn far_primary() -> (
        World,
        ProtocolEngine,
        ActivityId,
        [MachineId; 2],
        ObjectId,
        Entity,
    ) {
        let mut w = World::new(73);
        let (near, far) = (w.add_network("near"), w.add_network("far"));
        let (home, standby) = (w.add_machine("home", near), w.add_machine("standby", near));
        let remote = w.add_machine("remote", far);
        let root = w.machine_root(remote);
        let zone = store::ensure_dir(w.state_mut(), root, "zone");
        let leaf = store::create_file(w.state_mut(), zone, "leaf", vec![]);
        let mut svc = NameService::install(&mut w, &[home, standby, remote]);
        svc.place_subtree(&w, root, remote);
        svc.replicate_zone(&mut w, zone, standby);
        let client = w.spawn(home, "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy {
            base_timeout_ticks: 30, // RTT to the primary is 200 ticks
            max_attempts: 8,
            backoff_cap: 0,
        }));
        (
            w,
            engine,
            client,
            [standby, remote],
            zone,
            Entity::Object(leaf),
        )
    }

    /// The late reply lands during the pull that follows the resolve, whose
    /// reading of the mailbox must count it.
    #[test]
    fn a_pull_counts_the_late_replies_it_reads() {
        let (mut w, mut engine, client, [_, remote], zone, leaf) = far_primary();
        let name = CompoundName::new([Name::new("leaf")]).unwrap();
        let shard = SystemState::shard_of_id(zone);
        for _ in 0..10 {
            let stats = engine.resolve(&mut w, client, zone, &name, Mode::Iterative);
            assert_eq!(stats.entity, leaf);
            let since = [(shard, w.state().shard_serial(shard))];
            let pulled = engine.pull_zone_deltas(&mut w, client, remote, &since);
            assert!(pulled.is_some(), "the pull completes");
        }
        let c = engine.retry_counters();
        assert!(c.failovers >= 1 && c.retransmissions >= 1, "{c:?}");
        // Every superseded attempt was answered while a pull read the mail.
        assert_eq!(c.late_replies, c.retransmissions, "{c:?}");
    }

    /// A pull's answer nothing awaits is dropped unread: one forged with the
    /// id of a superseded resolution attempt takes nothing from the count of
    /// that attempt's late reply.
    #[test]
    fn a_stray_pull_answer_takes_no_late_reply_count() {
        let (mut w, mut engine, client, [standby, remote], zone, leaf) = far_primary();
        let superseded = engine.next_request_id();
        let name = CompoundName::new([Name::new("leaf")]).unwrap();
        let stats = engine.resolve(&mut w, client, zone, &name, Mode::Iterative);
        assert_eq!(stats.entity, leaf);
        let c = engine.retry_counters();
        assert_eq!((c.retransmissions, c.late_replies), (1, 0), "{c:?}");
        let forged = Dump {
            id: superseded,
            slices: Vec::new(),
        };
        let near = engine.service().server_on(standby);
        w.send(near, client, Payload::Bytes(codec::encode(&forged)));
        // A pull from the replica hears the forgery, and is over before the
        // primary's reply lands.
        assert!(engine
            .pull_zone_deltas(&mut w, client, standby, &[])
            .is_some());
        assert_eq!(engine.retry_counters().late_replies, 0, "a forgery counted");
        // One from the primary outlasts it: the real late reply counts.
        assert!(engine
            .pull_zone_deltas(&mut w, client, remote, &[])
            .is_some());
        assert_eq!(engine.retry_counters().late_replies, 1);
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
            (
                single,
                batch.entities.clone(),
                batch.messages,
                batch.latency,
            )
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
    fn forwarding_entries_are_forgotten_at_quiescence() {
        let (mut w, svc, machines, root, _) = chain_world();
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy::default()));
        w.set_message_drop_rate(0.3);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        for _ in 0..200 {
            engine.resolve(&mut w, client, root, &name, Mode::Recursive);
        }
        engine.pump_idle(&mut w);
        assert_eq!(w.messages_in_flight(), 0);
        // A forwarded request or its answer was lost for many of them: none
        // can be relayed any more.
        assert!(engine.forwarding.is_empty(), "{:?}", engine.forwarding);
        assert_eq!(engine.superseded_pending(), 0);
    }

    #[test]
    fn a_zone_placed_where_no_server_runs_is_unreachable_never_bottom() {
        let (mut w, mut svc, machines, root, _) = chain_world();
        let net = w.topology().machine_network(machines[0]);
        let bare = w.add_machine("bare", net);
        let hop2 = store::resolve_path(w.state(), root, "/hop1/hop2");
        let hop2 = hop2.as_object().unwrap();
        svc.place(hop2, bare);
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        let name = CompoundName::parse_path("/hop1/hop2/leaf").unwrap();
        // Iterative: the client is referred to `bare` and addresses nobody;
        // recursive: the server that would forward there answers instead.
        for mode in [Mode::Iterative, Mode::Recursive] {
            let stats = engine.resolve(&mut w, client, root, &name, mode);
            assert_eq!((stats.entity, stats.unreachable), (Entity::Undefined, true));
        }
        let leaf = CompoundName::parse_path("leaf").unwrap();
        let stats = engine.resolve(&mut w, client, hop2, &leaf, Mode::Iterative);
        assert_eq!((stats.unreachable, stats.messages), (true, 0));
        // A replica on a machine with no server is no failover target.
        engine.service_mut().place(hop2, machines[2]);
        engine.service_mut().replicate_zone(&mut w, hop2, bare);
        assert_eq!(
            engine.service().failover_targets(hop2),
            [(machines[2], hop2)]
        );
        engine.set_retry_policy(Some(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        }));
        w.kill(engine.service().server_on(machines[2]));
        let stats = engine.resolve(&mut w, client, root, &name, Mode::Iterative);
        assert_eq!((stats.entity, stats.unreachable), (Entity::Undefined, true));
        assert_eq!(engine.retry_counters().failovers, 0);
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
