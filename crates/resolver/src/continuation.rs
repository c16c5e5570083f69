//! The client side of the resolution protocol, written once.
//!
//! The paper's compound-name rule `c(n1 n2…nk) = σ(c(n1))(n2…nk)` (§2) is
//! one piece of state per name: the context to continue from and how many
//! components are consumed. A [`Continuation`] holds that state for a
//! batch of names and owns every step that changes it. It never pumps the
//! event queue: the engine's one pump ([`ProtocolEngine::pump`]) does, and
//! hands each continuation in flight what its client heard of it, whichever
//! driver launched it — [`ProtocolEngine::resolve_batch`] one at a time,
//! [`PipelinedService`](crate::runtime::PipelinedService) many.
//!
//! An exchange allocates nothing: the frame the simulator must own in
//! flight is a buffer recycled through the engine's scratch — the reader
//! hands it back, or the simulator when it loses it —, vectors are
//! reused ([`ProtocolEngine::idle`]), requests built in the scratch,
//! replies folded where they lie. Nor does the answer below its caller:
//! a continuation starts in the answer vectors it holds, and the blocking
//! driver keeps the finished one ([`ProtocolEngine::answered`]) and lends
//! its answer to its caller until the next call, so the next resolution
//! starts in the same vectors; the reactor hands a finished continuation a
//! spent answer's vectors for the ones it lends.

use std::collections::VecDeque;
use std::ops::Range;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::Name;
use naming_core::resolve::DEFAULT_DEPTH_LIMIT;
use naming_sim::codec;
use naming_sim::message::Payload;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::engine::{BatchResolveStats, ProtocolEngine, ReferralHop};
use crate::wire::{Mode, Outcome, RequestFrame};

/// A table keyed by numbers handed out in increasing order (request ids,
/// launch tickets): slot `key − first`, with leading empty slots
/// dropped as they empty, so a lookup indexes and the table is as long as
/// the span of live keys.
#[derive(Debug)]
pub(crate) struct Dense<T> {
    first: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for Dense<T> {
    fn default() -> Dense<T> {
        Dense {
            first: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> Dense<T> {
    /// Files `value` under `key`, which must exceed every key filed so far.
    pub(crate) fn insert(&mut self, key: u64, value: T) {
        if self.slots.is_empty() {
            self.first = key;
        }
        let at = (key - self.first) as usize;
        assert!(at >= self.slots.len(), "keys are handed out in order");
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(value));
    }

    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let at = key.checked_sub(self.first)? as usize;
        self.slots.get_mut(at)?.as_mut()
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<T> {
        let at = key.checked_sub(self.first)? as usize;
        let value = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
        Some(value)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// Leading empty slots are dropped, so an empty table holds no slot.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Where a request id leads: `(owner, k)` — exchange `k` of the current
/// round of the continuation launched under ticket `owner`.
pub(crate) type Route = (u64, usize);

/// A name and where its resolution starts: `(context, components of the
/// name consumed to get there — a proper prefix —, the whole name)`.
pub(crate) type Start<'n> = (ObjectId, usize, &'n [Name]);

/// One name's unresolved rest: continue from `ctx` with the components of
/// input name `slot` from `consumed` on — always a suffix of the name held.
#[derive(Clone, Copy, Debug)]
struct Work {
    ctx: ObjectId,
    slot: usize,
    consumed: usize,
}

impl Work {
    /// The rest: name `slot` is `labels[ends[slot]..ends[slot + 1]]`.
    fn suffix<'a>(&self, labels: &'a [Name], ends: &[usize]) -> &'a [Name] {
        &labels[ends[self.slot] + self.consumed..ends[self.slot + 1]]
    }
}

/// One request/reply exchange of the current round: every rider that
/// continues from the same context shares it.
#[derive(Debug)]
struct Exchange {
    /// The live attempt's request id.
    id: u64,
    /// The authority addressed first, and the context it hosts.
    primary: (MachineId, ObjectId),
    /// Deadlines expired so far.
    attempt: u32,
    /// A range of the continuation's sorted round (and of `mapping`).
    riders: Range<usize>,
    /// Neither answered nor given up.
    open: bool,
}

/// A batch resolution between events: the names, what is known of each so
/// far, and the round in progress.
#[derive(Debug)]
pub(crate) struct Continuation {
    /// The ticket the pump files it under; its routes carry it as `owner`.
    pub(crate) ticket: u64,
    pub(crate) client: ActivityId,
    mode: Mode,
    /// The names, flat, and where each starts (one more entry than names).
    labels: Vec<Name>,
    ends: Vec<usize>,
    /// The answer so far. `messages` counts this batch's own requests and
    /// filed replies; `referrals` is sorted on completion.
    pub(crate) stats: BatchResolveStats,
    /// The next round's work; referral answers feed it.
    pending: Vec<Work>,
    /// The current round's work, sorted by context, then suffix, then
    /// slot; beside each rider, the query id its answer comes under.
    round: Vec<Work>,
    mapping: Vec<u32>,
    exchanges: Vec<Exchange>,
    /// Exchanges of the round neither answered nor given up.
    outstanding: usize,
}

impl Continuation {
    /// A continuation for `names`, each from its own start, on a finished
    /// one's vectors when the engine keeps any: the blocking driver's last,
    /// else an idle one, answer vectors included. A name longer than
    /// [`DEFAULT_DEPTH_LIMIT`] is answered `⊥` here, where the whole of it
    /// is known, as [`Resolver::resolve_entity`] answers it; one whose rest
    /// holds a label the wire cannot carry is unreachable — a transport
    /// verdict, since an authority may well bind that label. No request
    /// goes out for either.
    ///
    /// [`Resolver::resolve_entity`]: naming_core::resolve::Resolver::resolve_entity
    pub(crate) fn new<'n>(
        engine: &mut ProtocolEngine,
        client: ActivityId,
        names: impl ExactSizeIterator<Item = Start<'n>>,
        mode: Mode,
    ) -> Continuation {
        let reused = engine.answered.take().or_else(|| engine.idle.pop());
        let mut cont = reused.unwrap_or_else(|| Continuation {
            ticket: 0,
            client,
            mode,
            labels: Vec::new(),
            ends: Vec::new(),
            stats: BatchResolveStats::default(),
            pending: Vec::new(),
            round: Vec::new(),
            mapping: Vec::new(),
            exchanges: Vec::new(),
            outstanding: 0,
        });
        (cont.client, cont.mode) = (client, mode);
        let n = names.len();
        cont.labels.clear();
        cont.ends.clear();
        cont.ends.push(0);
        cont.pending.clear();
        // The answer starts in the vectors the last one left, if any.
        let BatchResolveStats {
            mut entities,
            mut unreachable,
            mut referrals,
            ..
        } = std::mem::take(&mut cont.stats);
        refill(&mut entities, n, Entity::Undefined);
        refill(&mut unreachable, n, false);
        for (slot, (ctx, consumed, name)) in names.enumerate() {
            cont.labels.extend_from_slice(name);
            cont.ends.push(cont.labels.len());
            if name.len() > DEFAULT_DEPTH_LIMIT {
                continue;
            }
            if !name[consumed..]
                .iter()
                .all(|c| codec::carries_label(c.as_str()))
            {
                unreachable[slot] = true;
                continue;
            }
            cont.pending.push(Work {
                ctx,
                slot,
                consumed,
            });
        }
        // Each hop consumes a component and the last is never handed on.
        referrals.clear();
        referrals.reserve_exact(cont.labels.len() - n);
        cont.stats = BatchResolveStats {
            entities,
            unreachable,
            referrals,
            ..BatchResolveStats::default()
        };
        cont
    }

    /// Whether the round in progress still waits for an answer.
    pub(crate) fn suspended(&self) -> bool {
        self.outstanding > 0
    }

    /// Runs the state machine as far as it goes without new input: start
    /// the next round, again while rounds finish on the spot (unplaced
    /// authorities). True when the batch is complete.
    /// Every accepted referral consumes at least one component, so the
    /// deepest name bounds the rounds.
    pub(crate) fn advance(&mut self, engine: &mut ProtocolEngine, world: &mut World) -> bool {
        loop {
            if self.suspended() {
                return false;
            }
            self.round.clear();
            self.mapping.clear();
            self.exchanges.clear();
            if self.pending.is_empty() {
                // Folded in arrival order, reported in slot order.
                self.stats.referrals.sort_unstable();
                return true;
            }
            self.start_round(engine, world);
        }
    }

    /// One request per continue-from context, in context order, all sent
    /// before any reply is awaited. Riders with the same suffix share a
    /// query (single flight); riders of one context share the exchange.
    fn start_round(&mut self, engine: &mut ProtocolEngine, world: &mut World) {
        self.stats.rounds += 1;
        std::mem::swap(&mut self.round, &mut self.pending);
        let (labels, ends) = (&self.labels[..], &self.ends[..]);
        self.round.sort_unstable_by(|a, b| {
            (a.ctx, a.suffix(labels, ends), a.slot).cmp(&(b.ctx, b.suffix(labels, ends), b.slot))
        });
        let mut lo = 0;
        while let Some(&Work { ctx, .. }) = self.round.get(lo) {
            let riders = lo..lo + self.round[lo..].partition_point(|w| w.ctx == ctx);
            lo = riders.end;
            let service = engine.service();
            let machine = service.machine_of_object(ctx);
            let Some(machine) = machine.filter(|&m| service.server_if_on(m).is_some()) else {
                // Nobody can be addressed — the zone is unplaced, or placed
                // where no name server runs: a transport verdict, not ⊥.
                self.mapping.resize(riders.end, 0);
                self.give_up(riders);
                continue;
            };
            let asked = riders.len();
            self.exchanges.push(Exchange {
                id: engine.alloc_id(),
                primary: (machine, ctx),
                attempt: 0,
                riders,
                open: true,
            });
            self.outstanding += 1;
            self.transmit(engine, world, self.exchanges.len() - 1, (machine, ctx));
            self.mapping.extend_from_slice(&engine.scratch.remap);
            let queries = engine.scratch.trie.query_count() as usize;
            self.stats.coalesced += (asked - queries) as u64;
        }
    }

    /// Builds exchange `k`'s request in the engine's scratch (again for a
    /// retransmission: frames kept would make what a continuation holds
    /// depend on the traffic it has seen) and sends it to `machine`, to
    /// resolve from `start`; arms its deadline under a retry policy, and
    /// routes its id back here. If the wire cannot carry the request, the
    /// exchange gives up its riders instead.
    fn transmit(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        k: usize,
        (machine, start): (MachineId, ObjectId),
    ) {
        let ex = &self.exchanges[k];
        let asked = self.round[ex.riders.clone()].iter();
        let asked = asked.map(|w| w.suffix(&self.labels, &self.ends));
        let s = &mut engine.scratch;
        s.remap.clear();
        // The round is sorted by suffix within a context.
        s.trie.rebuild(asked, true, &mut s.cells, &mut s.remap);
        debug_assert!(
            self.mode == Mode::Iterative || s.trie.query_count() == 1,
            "a recursive request chases one name"
        );
        // The simulator owns a message in flight: the buffer comes back when
        // the server has read it.
        let request = RequestFrame(self.mode, ex.id, start, &s.trie);
        let frame = codec::encode_with(&request, |len| s.spares.take(len));
        let Some(frame) = frame else {
            self.exchanges[k].open = false;
            self.outstanding -= 1;
            return self.give_up(self.exchanges[k].riders.clone());
        };
        let server = engine.service().server_on(machine);
        let unsent = world.send(self.client, server, Payload::Bytes(frame));
        engine.scratch.spares.reclaim(unsent);
        self.stats.messages += 1;
        if let Some(policy) = engine.retry_policy() {
            let after = Duration::from_ticks(policy.timeout_ticks(ex.id, ex.attempt));
            world.schedule_wake(self.client, after, ex.id);
        }
        engine.routes.insert(ex.id, (self.ticket, k));
    }

    /// What the client heard about exchange `k`: its answer (servers
    /// touched, lookups saved, the outcomes in the engine's scratch), or
    /// (`None`) that its deadline fired first. An answer is folded into the
    /// batch's on the spot — entities by slot, referrals into the next
    /// round's work, sums: nothing shows which exchange was heard first. On a
    /// deadline the outstanding attempt is superseded — its reply, if it
    /// ever lands, is a late reply, not an answer — and the request goes
    /// out again under a fresh id, to the next server in the failover
    /// order, until `max_attempts` deadlines have expired; then the
    /// exchange is given up. A retransmission repeats a round's exchange
    /// and never consumes a referral-progress round.
    pub(crate) fn heard(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        k: usize,
        reply: Option<(u32, u32)>,
    ) {
        let policy = engine.retry_policy();
        let ex = &mut self.exchanges[k];
        if let Some((servers_touched, lookups_saved)) = reply {
            engine.routes.remove(ex.id);
            world.cancel_wake(ex.id);
            if policy.is_some() {
                naming_telemetry::histogram!("retry.attempts").record(u64::from(ex.attempt) + 1);
            }
            ex.open = false;
            self.outstanding -= 1;
            self.stats.messages += 1;
            self.stats.servers_touched += servers_touched;
            self.stats.hops_saved += u64::from(lookups_saved);
            for i in ex.riders.clone() {
                let outcome = engine.scratch.outcomes.get(self.mapping[i] as usize);
                self.file(self.round[i], outcome.copied());
                // What each name's answer stands on, for the blocking
                // driver's caller: a cache that renews what it records.
                if engine.scratch.reads_of == Some(self.ticket) {
                    let (s, slot) = (&mut engine.scratch, self.round[i].slot);
                    let reads = s.reads.iter().map(|&read| (slot, read));
                    s.reads_by_slot.extend(reads);
                }
            }
            return;
        }
        let Some(policy) = policy else { return };
        engine.routes.remove(ex.id);
        engine.supersede(ex.id);
        ex.attempt += 1;
        if ex.attempt >= policy.max_attempts {
            engine.note_exhausted();
            ex.open = false;
            let riders = ex.riders.clone();
            self.give_up(riders);
            self.outstanding -= 1;
            return;
        }
        engine.note_retransmission();
        // The authority addressed first, then its group's other servers.
        let (first, ctx) = ex.primary;
        let others = || {
            engine
                .service()
                .failover_group(ctx)
                .filter(|&(m, _)| m != first)
        };
        let turn = ex.attempt as usize % (1 + others().count());
        let target = turn.checked_sub(1).and_then(|i| others().nth(i));
        let target = target.unwrap_or(ex.primary);
        if target.0 != first {
            engine.note_failover();
        }
        ex.id = engine.alloc_id();
        self.transmit(engine, world, k, target);
    }

    /// One rider's outcome into the answer. A referral is followed when it
    /// leaves a nonempty proper rest of what was asked: any other count
    /// names something the client never sent. That, a server that could
    /// not hand resolution onward and a reply with no outcome for the
    /// query flag the slot unreachable: none says anything of the binding.
    fn file(&mut self, work: Work, outcome: Option<Outcome>) {
        let Work { slot, consumed, .. } = work;
        let asked = self.ends[slot + 1] - self.ends[slot] - consumed;
        match outcome {
            Some(Outcome::Resolved(e)) => self.stats.entities[slot] = e,
            Some(Outcome::Referral {
                next_machine: machine,
                next_ctx: ctx,
                remaining,
            }) if (1..asked).contains(&usize::from(remaining)) => {
                let consumed = consumed + asked - usize::from(remaining);
                let hop = ReferralHop {
                    slot,
                    consumed,
                    machine,
                    ctx,
                };
                self.stats.referrals.push(hop);
                self.pending.push(Work {
                    ctx,
                    slot,
                    consumed,
                });
            }
            Some(Outcome::NotFound | Outcome::WrongServer) => {}
            _ => self.stats.unreachable[slot] = true,
        }
    }

    /// No event will arrive for what is still outstanding (dead protocol,
    /// or the pump's budget is spent): every unanswered exchange's
    /// slots get transport verdicts and the round completes without it.
    pub(crate) fn fail_unanswered(&mut self, engine: &mut ProtocolEngine) {
        for k in 0..self.exchanges.len() {
            if std::mem::take(&mut self.exchanges[k].open) {
                engine.routes.remove(self.exchanges[k].id);
                self.give_up(self.exchanges[k].riders.clone());
            }
        }
        self.outstanding = 0;
    }

    /// Transport verdicts for `riders` of the current round: unreachable,
    /// never ⊥.
    fn give_up(&mut self, riders: Range<usize>) {
        for work in &self.round[riders] {
            self.stats.unreachable[work.slot] = true;
        }
    }
}

/// `v` as `n` copies of `value`, in the buffer it has when that is large
/// enough, else in one made to measure: what a buffer reaches it keeps.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.reserve_exact(n);
    v.resize(n, value);
}
