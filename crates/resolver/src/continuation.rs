//! The client side of the resolution protocol, written once.
//!
//! The paper's compound-name rule `c(n1 n2…nk) = σ(c(n1))(n2…nk)` (§2) is
//! one piece of state per name: the context to continue from and the
//! suffix still to resolve. A [`Continuation`] holds that state for a
//! batch of names and owns every step that changes it. It never pumps the
//! event queue: a driver does, and hands it what the client heard. There
//! are two — [`ProtocolEngine::resolve_batch`] runs one continuation to
//! completion, [`PipelinedService`](crate::runtime::PipelinedService)
//! interleaves many.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_sim::message::Payload;
use naming_sim::time::Duration;
use naming_sim::topology::MachineId;
use naming_sim::world::World;

use crate::engine::{BatchResolveStats, ProtocolEngine};
use crate::wire::{BatchReply, BatchRequest, Mode, NameTrie, Outcome, Request};

/// A table keyed by numbers handed out in increasing order (request ids,
/// submission tickets): slot `key − first`, with leading empty slots
/// dropped as they empty, so a lookup indexes and the table is as long as
/// the span of live keys.
#[derive(Debug)]
pub(crate) struct Dense<T> {
    first: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Dense<T> {
    pub(crate) fn new() -> Dense<T> {
        Dense {
            first: 0,
            slots: VecDeque::new(),
        }
    }

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
}

/// Where a request id leads: `(owner, k)` — exchange `k` of the current
/// round of the continuation its driver knows as `owner`.
pub(crate) type Route = (u64, usize);

/// One name's unresolved rest: continue from `ctx` with the components of
/// input name `slot` from `consumed` on. A referral's remainder is always
/// a suffix of the name that was asked, so the suffix is never copied.
#[derive(Clone, Copy, Debug)]
struct Work {
    ctx: ObjectId,
    slot: usize,
    consumed: usize,
}

impl Work {
    fn suffix<'a>(&self, names: &'a [CompoundName]) -> &'a [Name] {
        &names[self.slot].components()[self.consumed..]
    }
}

/// One request/reply exchange of the current round: every rider that
/// continues from the same context shares it.
#[derive(Debug)]
struct Exchange {
    /// As last sent; its id is the live attempt's.
    request: BatchRequest,
    /// The authority addressed first, and the context it hosts.
    primary: (MachineId, ObjectId),
    /// Deadlines expired so far.
    attempt: u32,
    /// A range of the continuation's sorted round, and the query id each
    /// rider's answer is filed under.
    riders: Range<usize>,
    mapping: Vec<u32>,
    /// Still `None` when the round ends: given up, riders' slots flagged.
    reply: Option<BatchReply>,
}

/// A batch resolution between events: the names, what is known of each so
/// far, and the round in progress.
#[derive(Debug)]
pub(crate) struct Continuation<'n> {
    /// The key its driver files it under; its routes carry it as `owner`.
    pub(crate) seq: u64,
    client: ActivityId,
    mode: Mode,
    names: Cow<'n, [CompoundName]>,
    /// The answer so far. `messages` counts this batch's own requests and
    /// filed replies; `referrals` is sorted and deduplicated on completion.
    pub(crate) stats: BatchResolveStats,
    /// The next round's work; referral answers feed it.
    pending: Vec<Work>,
    /// The current round's work, sorted by context, then suffix, then slot.
    round: Vec<Work>,
    exchanges: Vec<Exchange>,
    /// Exchanges of the round neither answered nor given up.
    outstanding: usize,
}

impl<'n> Continuation<'n> {
    pub(crate) fn new(
        seq: u64,
        client: ActivityId,
        start: ObjectId,
        names: Cow<'n, [CompoundName]>,
        mode: Mode,
    ) -> Continuation<'n> {
        let work = |slot| Work {
            ctx: start,
            slot,
            consumed: 0,
        };
        let stats = BatchResolveStats {
            entities: vec![Entity::Undefined; names.len()],
            unreachable: vec![false; names.len()],
            ..BatchResolveStats::default()
        };
        Continuation {
            seq,
            client,
            mode,
            stats,
            pending: (0..names.len()).map(work).collect(),
            round: Vec::new(),
            exchanges: Vec::new(),
            outstanding: 0,
            names,
        }
    }

    /// Whether the round in progress still waits for an answer.
    pub(crate) fn suspended(&self) -> bool {
        self.outstanding > 0
    }

    /// Runs the state machine as far as it goes without new input: fold
    /// the finished round, start the next, again while rounds finish on
    /// the spot (unplaced authorities). True when the batch is complete.
    /// Every accepted referral consumes at least one component, so the
    /// deepest name bounds the rounds.
    pub(crate) fn advance(&mut self, engine: &mut ProtocolEngine, world: &mut World) -> bool {
        loop {
            if self.suspended() {
                return false;
            }
            self.finish_round();
            if self.pending.is_empty() {
                self.stats.referrals.sort();
                self.stats.referrals.dedup();
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
        let names = &*self.names;
        self.round.sort_unstable_by(|a, b| {
            (a.ctx, a.suffix(names), a.slot).cmp(&(b.ctx, b.suffix(names), b.slot))
        });
        let mut lo = 0;
        while let Some(&Work { ctx, .. }) = self.round.get(lo) {
            let riders = lo..lo + self.round[lo..].partition_point(|w| w.ctx == ctx);
            lo = riders.end;
            let Some(machine) = engine.service().machine_of_object(ctx) else {
                // Nobody can be addressed: a transport verdict, not ⊥.
                self.give_up(riders);
                continue;
            };
            let asked = self.round[riders.clone()].iter();
            let (trie, mapping) = NameTrie::build_from(asked.map(|w| w.suffix(&self.names)));
            self.stats.coalesced += (riders.len() - trie.query_count() as usize) as u64;
            let request = BatchRequest {
                id: engine.alloc_id(),
                start: ctx,
                trie,
            };
            self.exchanges.push(Exchange {
                request,
                primary: (machine, ctx),
                attempt: 0,
                riders,
                mapping,
                reply: None,
            });
            self.outstanding += 1;
            self.transmit(engine, world, self.exchanges.len() - 1, machine);
        }
    }

    /// Puts exchange `k`'s request on the wire to `machine`, arms its
    /// deadline when a retry policy is set, and routes its id back here.
    /// Batch frames carry every iterative resolve, a batch of one
    /// included; the scalar frame survives for [`Mode::Recursive`], which
    /// servers forward on the client's behalf.
    fn transmit(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        k: usize,
        machine: MachineId,
    ) {
        let ex = &self.exchanges[k];
        let BatchRequest { id, start, .. } = ex.request;
        let frame = match self.mode {
            Mode::Iterative => ex.request.encode(),
            Mode::Recursive => {
                let name = self.round[ex.riders.start].suffix(&self.names).to_vec();
                let name = CompoundName::new(name).expect("an unresolved rest is nonempty");
                let mode = Mode::Recursive;
                let request = Request {
                    id,
                    start,
                    name,
                    mode,
                };
                request.encode()
            }
        };
        let server = engine.service().server_on(machine);
        world.send(self.client, server, vec![Payload::Bytes(frame)]);
        self.stats.messages += 1;
        if let Some(policy) = engine.retry_policy() {
            let after = Duration::from_ticks(policy.timeout_ticks(id, ex.attempt));
            world.schedule_wake(self.client, after, id);
        }
        engine.routes.insert(id, (self.seq, k));
    }

    /// What the client heard about exchange `k`: its answer, or (`None`)
    /// that its deadline fired first. An answer is filed. On a deadline
    /// the outstanding attempt is superseded — its reply, if it ever
    /// lands, is a late reply, not an answer — and the request goes out
    /// again under a fresh id, rotating through the failover order (the
    /// authority addressed first, then every other replica of the
    /// context's group), until `max_attempts` deadlines have expired; then
    /// the exchange is given up. A retransmission repeats a round's
    /// exchange and never consumes a referral-progress round.
    pub(crate) fn heard(
        &mut self,
        engine: &mut ProtocolEngine,
        world: &mut World,
        k: usize,
        reply: Option<BatchReply>,
    ) {
        let policy = engine.retry_policy();
        let ex = &mut self.exchanges[k];
        if let Some(reply) = reply {
            engine.routes.remove(reply.id);
            world.cancel_wake(reply.id);
            #[cfg(feature = "telemetry")]
            if policy.is_some() {
                naming_telemetry::histogram!("retry.attempts").record(u64::from(ex.attempt) + 1);
            }
            self.stats.messages += 1;
            ex.reply = Some(reply);
            self.outstanding -= 1;
            return;
        }
        let Some(policy) = policy else { return };
        engine.routes.remove(ex.request.id);
        engine.supersede(ex.request.id);
        ex.attempt += 1;
        if ex.attempt >= policy.max_attempts {
            engine.note_exhausted();
            let riders = ex.riders.clone();
            self.give_up(riders);
            self.outstanding -= 1;
            return;
        }
        engine.note_retransmission();
        let (first, ctx) = ex.primary;
        let others = engine.service().failover_targets(ctx).into_iter();
        let order: Vec<_> = std::iter::once(ex.primary)
            .chain(others.filter(|&(m, _)| m != first))
            .collect();
        let (machine, start) = order[ex.attempt as usize % order.len()];
        if machine != first {
            engine.note_failover();
        }
        (ex.request.id, ex.request.start) = (engine.alloc_id(), start);
        self.transmit(engine, world, k, machine);
    }

    /// No event will ever arrive for what is still outstanding (dead
    /// protocol, or the pump budget is spent): every unanswered exchange's
    /// slots get transport verdicts and the round completes without it.
    pub(crate) fn fail_unanswered(&mut self, engine: &mut ProtocolEngine) {
        for k in 0..self.exchanges.len() {
            if self.exchanges[k].reply.is_none() {
                engine.routes.remove(self.exchanges[k].request.id);
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

    /// Folds the finished round into the answer: resolved entities fill
    /// their slots, referrals feed the next round, and whatever is not an
    /// authoritative verdict flags its slot unreachable.
    fn finish_round(&mut self) {
        let mut exchanges = std::mem::take(&mut self.exchanges);
        for ex in exchanges.drain(..) {
            let Some(reply) = ex.reply else { continue };
            self.stats.servers_touched += reply.servers_touched;
            self.stats.hops_saved += u64::from(reply.lookups_saved);
            for (work, &q) in self.round[ex.riders].iter().zip(&ex.mapping) {
                let name: &[Name] = self.names[work.slot].components();
                match reply.outcomes.get(q as usize) {
                    Some(Outcome::Resolved(e)) => self.stats.entities[work.slot] = *e,
                    // A referral must hand back a proper suffix of what
                    // was sent; then the prefix is one the client asked
                    // about and `consumed` stays inside the name.
                    Some(Outcome::Referral {
                        next_machine,
                        next_ctx,
                        remaining,
                    }) if remaining.len() < name.len() - work.consumed
                        && name.ends_with(remaining.components()) =>
                    {
                        let consumed = name.len() - remaining.len();
                        if let Ok(prefix) = CompoundName::new(name[..consumed].iter().copied()) {
                            let hop = (prefix, *next_machine, *next_ctx);
                            self.stats.referrals.push(hop);
                        }
                        self.pending.push(Work {
                            ctx: *next_ctx,
                            slot: work.slot,
                            consumed,
                        });
                    }
                    Some(Outcome::NotFound | Outcome::WrongServer) => {}
                    // The server could not hand resolution onward, the
                    // reply carries no outcome for this query, or its
                    // referral names something that was never asked: none
                    // of these says anything about the binding.
                    _ => self.stats.unreachable[work.slot] = true,
                }
            }
        }
        self.exchanges = exchanges;
        self.round.clear();
    }
}
