//! The event-driven pipelined service runtime: a reactor that multiplexes
//! many in-flight batch resolutions on one simulated timeline.
//!
//! [`ProtocolEngine::resolve_batch`] drives one continuation (the
//! crate's `continuation` module: the client side of the protocol) at a
//! time: it pumps the event queue until that batch is done, so a batch
//! stalled on a deep referral chain or a retry backoff holds up
//! everything queued behind it — head-of-line blocking, one blocked
//! "thread" per batch. The [`PipelinedService`] reactor drives many at
//! once: it admits them, hands each reply and deadline wake to the one
//! that awaits it, and advances every continuation whose round completed,
//! interleaved on the same timeline. Rounds, retries and verdicts are the
//! continuation's; nothing of the protocol is repeated here.
//!
//! # Determinism
//!
//! Workers are *logical*: a batch is assigned `seq % workers` purely for
//! metric attribution, and admission, sends, and completions happen in
//! submission order regardless of the worker count. Wake-ups ride the
//! existing [`World::schedule_wake`] axis. A run is therefore
//! byte-identical at any worker count — the CI leg diffs the bench output
//! across counts — and interleaving changes nothing a batch can observe
//! but its timing (the equivalence suite pins this over every workload,
//! including chaos sweeps).
//!
//! # Admission and backpressure
//!
//! At most `workers × per_worker_limit` batches are in flight;
//! submissions beyond the limit queue in FIFO order and are admitted as
//! completions free slots, at the virtual instant of the completion.
//! Queue wait (admission minus submission tick) is reported per batch.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::CompoundName;
use naming_sim::time::{Duration, VirtualTime};
use naming_sim::world::{Stepped, World};

use crate::continuation::{Continuation, Dense};
use crate::engine::{ProtocolEngine, ReferralHop, MAX_STEPS_PER_BATCH};
use crate::wire::Mode;

/// Default per-worker bound on in-flight batches. The reactor holds
/// thousands of suspended resolutions per worker; this is the admission
/// limit, not a preallocation.
pub const DEFAULT_PER_WORKER_LIMIT: usize = 2048;

/// A submitted batch: its continuation and when it queued and started.
#[derive(Debug)]
struct Batch {
    cont: Continuation,
    submitted_at: VirtualTime,
    admitted_at: VirtualTime,
}

/// A completed pipelined batch resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinedAnswer {
    /// Submission sequence number (the ticket [`PipelinedService::submit`]
    /// returned).
    pub seq: u64,
    /// One entity per input name, in input order (possibly `⊥`).
    pub entities: Vec<Entity>,
    /// Per input slot: true when the slot's ⊥ is a transport verdict.
    pub unreachable: Vec<bool>,
    /// Protocol rounds (referral depth reached).
    pub rounds: u32,
    /// Wire messages attributed to this batch: requests sent plus replies
    /// received. (The blocking driver counts a global sent delta, which
    /// cannot be attributed once batches interleave.)
    pub messages: u64,
    /// Distinct server answers involved.
    pub servers_touched: u32,
    /// Duplicate in-flight `(context, suffix)` resolutions that rode a
    /// shared exchange.
    pub coalesced: u64,
    /// Server lookups avoided by shared-prefix compression.
    pub hops_saved: u64,
    /// Every referral any of the names followed, sorted by slot, then by
    /// components consumed.
    pub referrals: Vec<ReferralHop>,
    /// When the batch was submitted.
    pub submitted_at: VirtualTime,
    /// When the batch was admitted (first requests sent). Admission minus
    /// submission is the batch's queue wait.
    pub admitted_at: VirtualTime,
    /// When the last answer landed.
    pub completed_at: VirtualTime,
    /// The logical reactor worker the batch was attributed to.
    pub worker: usize,
}

impl PipelinedAnswer {
    /// Virtual ticks spent waiting for admission.
    pub fn queue_wait(&self) -> Duration {
        self.admitted_at - self.submitted_at
    }

    /// Virtual ticks from admission to completion.
    pub fn service_time(&self) -> Duration {
        self.completed_at - self.admitted_at
    }
}

/// Aggregate activity of a [`PipelinedService`], deterministic by
/// construction (virtual-time bookkeeping only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Logical worker count.
    pub workers: usize,
    /// Admission limit (batches in flight at once).
    pub max_in_flight: usize,
    /// Batches submitted so far.
    pub submitted: u64,
    /// Batches completed so far.
    pub completed: u64,
    /// High-water mark of concurrently in-flight batches.
    pub in_flight_hwm: usize,
    /// High-water mark of concurrently in-flight *name resolutions*
    /// (slots of in-flight batches).
    pub in_flight_queries_hwm: usize,
    /// High-water mark of the admission backlog.
    pub backlog_hwm: usize,
}

/// The reactor: multiplexes many in-flight batch resolutions over one
/// [`ProtocolEngine`] and one [`World`] timeline.
#[derive(Debug)]
pub struct PipelinedService {
    engine: ProtocolEngine,
    backlog: VecDeque<Batch>,
    /// Admitted, unfinished batches by submission ticket; the engine's
    /// routes name them as owners.
    inflight: Dense<Batch>,
    /// Batches whose round completed since they last advanced.
    ready: Vec<u64>,
    /// Every client process that ever submitted; polled for replies.
    clients: BTreeSet<ActivityId>,
    done: BTreeMap<u64, PipelinedAnswer>,
    in_flight_queries: usize,
    report: PipelineReport,
}

impl PipelinedService {
    /// Wraps an engine with `workers` logical reactor workers and the
    /// default per-worker admission limit.
    pub fn new(engine: ProtocolEngine, workers: usize) -> PipelinedService {
        PipelinedService::with_limit(engine, workers, DEFAULT_PER_WORKER_LIMIT)
    }

    /// Wraps an engine with an explicit per-worker in-flight limit.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `per_worker_limit` is zero.
    pub fn with_limit(
        engine: ProtocolEngine,
        workers: usize,
        per_worker_limit: usize,
    ) -> PipelinedService {
        assert!(workers > 0, "reactor needs at least one worker");
        assert!(per_worker_limit > 0, "per-worker limit must be positive");
        let max_in_flight = workers * per_worker_limit;
        PipelinedService {
            engine,
            backlog: VecDeque::new(),
            inflight: Dense::new(),
            ready: Vec::new(),
            clients: BTreeSet::new(),
            done: BTreeMap::new(),
            in_flight_queries: 0,
            report: PipelineReport {
                workers,
                max_in_flight,
                ..PipelineReport::default()
            },
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &ProtocolEngine {
        &self.engine
    }

    /// Mutable access to the engine (placement changes, retry policy).
    pub fn engine_mut(&mut self) -> &mut ProtocolEngine {
        &mut self.engine
    }

    /// Unwraps the engine.
    pub fn into_engine(self) -> ProtocolEngine {
        self.engine
    }

    /// Aggregate activity so far.
    pub fn report(&self) -> PipelineReport {
        self.report
    }

    /// Batches currently in flight: submitted, neither queued nor done.
    pub fn in_flight(&self) -> usize {
        (self.report.submitted - self.report.completed) as usize - self.backlog.len()
    }

    /// Submits a batch: resolve `names` for `client` starting at the
    /// context object `start`. Returns the submission ticket. The batch
    /// is admitted immediately if a slot is free (its first requests go
    /// out now); otherwise it queues.
    pub fn submit(
        &mut self,
        world: &mut World,
        client: ActivityId,
        start: ObjectId,
        names: &[CompoundName],
    ) -> u64 {
        let seq = self.report.submitted;
        self.report.submitted += 1;
        self.clients.insert(client);
        let now = world.now();
        let names = names.iter().map(|name| (start, 0, name.components()));
        self.backlog.push_back(Batch {
            cont: Continuation::new(&mut self.engine, seq, client, names, Mode::Iterative),
            submitted_at: now,
            admitted_at: now,
        });
        self.admit(world);
        self.report.backlog_hwm = self.report.backlog_hwm.max(self.backlog.len());
        seq
    }

    /// Drives the reactor until every submitted batch has completed, then
    /// returns all completed answers in submission order.
    pub fn drain(&mut self, world: &mut World) -> Vec<PipelinedAnswer> {
        self.run(world);
        self.take_completed()
    }

    /// Completed answers collected so far, in submission order, without
    /// driving the reactor.
    pub fn take_completed(&mut self) -> Vec<PipelinedAnswer> {
        std::mem::take(&mut self.done).into_values().collect()
    }

    /// Pumps the event queue until every in-flight and queued batch has
    /// completed.
    pub fn run(&mut self, world: &mut World) {
        let budget = MAX_STEPS_PER_BATCH.saturating_mul(self.in_flight() + self.backlog.len() + 1);
        let mut steps = 0usize;
        // One sweep of every server and client for mail that a caller's
        // own stepping delivered while the reactor was not pumping; after
        // that each event names the one process to look at.
        self.engine.drain_servers(world);
        let mut touched: Vec<ActivityId> = self.clients.iter().copied().collect();
        loop {
            self.admit(world);
            self.dispatch(world, &touched);
            touched.clear();
            // Every client's mail so far has been routed: a late reply
            // can now only come from a message still travelling.
            self.engine.forget_unanswerable(world);
            if self.report.submitted == self.report.completed {
                return;
            }
            let stepped = if steps < budget {
                world.step_event()
            } else {
                None
            };
            let Some(ev) = stepped else {
                // Dead protocol: no event will ever arrive for the
                // outstanding requests. Their slots get transport
                // verdicts; finishing those rounds may start new ones
                // (referrals already in hand), which re-arms the queue.
                for batch in self.inflight.values_mut() {
                    batch.cont.fail_unanswered(&mut self.engine);
                    self.ready.push(batch.cont.seq);
                }
                if steps >= budget {
                    // Out of budget: also drop queued work as unreachable.
                    while let Some(mut batch) = self.backlog.pop_front() {
                        batch.cont.stats.unreachable.fill(true);
                        batch.admitted_at = world.now();
                        self.complete(world.now(), batch);
                    }
                }
                continue;
            };
            steps += 1;
            self.engine.serve(world, ev);
            let (Stepped::Delivered(pid) | Stepped::Woke(pid)) = ev;
            if self.clients.contains(&pid) {
                touched.push(pid);
            }
        }
    }

    /// Admits queued batches while slots are free, in submission order.
    fn admit(&mut self, world: &mut World) {
        while self.in_flight() < self.report.max_in_flight {
            let Some(mut batch) = self.backlog.pop_front() else {
                return;
            };
            batch.admitted_at = world.now();
            self.in_flight_queries += batch.cont.stats.entities.len();
            self.report.in_flight_queries_hwm = self
                .report
                .in_flight_queries_hwm
                .max(self.in_flight_queries);
            #[cfg(feature = "telemetry")]
            {
                naming_telemetry::gauge!("pipeline.in_flight").set(self.in_flight() as i64);
                naming_telemetry::gauge!("pipeline.in_flight_queries")
                    .set(self.in_flight_queries as i64);
                naming_telemetry::histogram!("pipeline.queue_wait_ticks")
                    .record((batch.admitted_at - batch.submitted_at).ticks());
            }
            if batch.cont.advance(&mut self.engine, world) {
                self.in_flight_queries -= batch.cont.stats.entities.len();
                self.complete(world.now(), batch);
            } else {
                self.report.in_flight_hwm = self.report.in_flight_hwm.max(self.in_flight());
                self.inflight.insert(batch.cont.seq, batch);
            }
        }
    }

    /// Hands the replies delivered to, and the deadline wakes fired for,
    /// `clients` to the continuations that await them, then advances
    /// every batch whose round completed.
    fn dispatch(&mut self, world: &mut World, clients: &[ActivityId]) {
        let PipelinedService {
            engine,
            inflight,
            ready,
            ..
        } = self;
        for &client in clients {
            engine.poll_client(world, client, |engine, world, (owner, k), reply| {
                let Some(batch) = inflight.get_mut(owner) else {
                    return;
                };
                batch.cont.heard(engine, world, k, reply);
                if !batch.cont.suspended() {
                    ready.push(owner);
                }
            });
        }
        // Completions free admission slots at once (same virtual instant).
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        ready.dedup();
        for seq in ready.drain(..) {
            let Some(batch) = self.inflight.get_mut(seq) else {
                continue;
            };
            if !batch.cont.advance(&mut self.engine, world) {
                continue;
            }
            if let Some(batch) = self.inflight.remove(seq) {
                self.in_flight_queries -= batch.cont.stats.entities.len();
                self.complete(world.now(), batch);
                self.admit(world);
            }
        }
        self.ready = ready;
    }

    /// Retires a finished batch into the completed set.
    fn complete(&mut self, now: VirtualTime, batch: Batch) {
        let seq = batch.cont.seq;
        let stats = batch.cont.finish(&mut self.engine);
        self.report.completed += 1;
        let worker = (seq % self.report.workers as u64) as usize;
        #[cfg(feature = "telemetry")]
        {
            naming_telemetry::gauge!("pipeline.in_flight").set(self.in_flight() as i64);
            naming_telemetry::gauge!("pipeline.in_flight_queries")
                .set(self.in_flight_queries as i64);
            naming_telemetry::histogram!("pipeline.continuation_depth")
                .record(u64::from(stats.rounds));
            let (batches, queries) = crate::worker_metrics::batch_query_names(
                crate::worker_metrics::Family::Pipeline,
                worker,
            );
            let reg = naming_telemetry::metrics::global();
            reg.counter(batches).bump();
            reg.counter(queries).add(stats.entities.len() as u64);
        }
        self.done.insert(
            seq,
            PipelinedAnswer {
                seq,
                entities: stats.entities,
                unreachable: stats.unreachable,
                rounds: stats.rounds,
                messages: stats.messages,
                servers_touched: stats.servers_touched,
                coalesced: stats.coalesced,
                hops_saved: stats.hops_saved,
                referrals: stats.referrals,
                submitted_at: batch.submitted_at,
                admitted_at: batch.admitted_at,
                completed_at: now,
                worker,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RetryCounters, RetryPolicy};
    use crate::service::NameService;
    use naming_sim::store;
    use naming_sim::topology::MachineId;

    /// Same shape as the engine tests' chain world: three machines, m0
    /// hosting the root, each hop's subtree on the next machine.
    fn chain_world(seed: u64) -> (World, NameService, Vec<MachineId>, ObjectId, Entity) {
        let mut w = World::new(seed);
        let net = w.add_network("n");
        let machines: Vec<MachineId> = (0..3)
            .map(|i| w.add_machine(format!("m{i}"), net))
            .collect();
        let root = w.machine_root(machines[0]);
        let root1 = w.machine_root(machines[1]);
        let root2 = w.machine_root(machines[2]);
        let hop1 = store::ensure_dir(w.state_mut(), root1, "self1");
        let hop2 = store::ensure_dir(w.state_mut(), root2, "self2");
        store::attach(w.state_mut(), root, "hop1", hop1, false);
        store::attach(w.state_mut(), hop1, "hop2", hop2, false);
        let leaf = store::create_file(w.state_mut(), hop2, "leaf", vec![]);
        let mut svc = NameService::install(&mut w, &machines);
        for &m in machines.iter().rev() {
            let r = w.machine_root(m);
            svc.place_subtree(&w, r, m);
        }
        (w, svc, machines, root, Entity::Object(leaf))
    }

    fn names(paths: &[&str]) -> Vec<CompoundName> {
        paths
            .iter()
            .map(|p| CompoundName::parse_path(p).unwrap())
            .collect()
    }

    /// Many batches multiplex on one timeline and all resolve; answers
    /// come back in submission order and the in-flight mark shows real
    /// overlap.
    #[test]
    fn multiplexed_batches_all_resolve() {
        let (mut w, svc, machines, root, leaf) = chain_world(71);
        let client = w.spawn(machines[0], "client", None);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 2);
        let deep = names(&["/hop1/hop2/leaf"]);
        let shallow = names(&["/hop1"]);
        for i in 0..6 {
            let batch = if i % 2 == 0 { &deep } else { &shallow };
            svc.submit(&mut w, client, root, batch);
        }
        let answers = svc.drain(&mut w);
        assert_eq!(answers.len(), 6);
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
            if i % 2 == 0 {
                assert_eq!(a.entities, vec![leaf]);
                assert_eq!(a.rounds, 3);
            } else {
                assert!(a.entities[0].is_defined());
                assert_eq!(a.rounds, 1);
            }
            assert_eq!(a.worker, i % 2);
        }
        let rep = svc.report();
        assert_eq!(rep.submitted, 6);
        assert_eq!(rep.completed, 6);
        assert!(rep.in_flight_hwm >= 2, "batches never overlapped");
    }

    /// An independent shallow batch must not wait for a deep batch
    /// submitted ahead of it: its completion tick matches what it gets
    /// on an otherwise idle timeline.
    #[test]
    fn no_head_of_line_blocking() {
        // Baseline: the shallow batch alone.
        let (mut w, svc, machines, root, _) = chain_world(71);
        let client = w.spawn(machines[0], "client", None);
        let mut alone = PipelinedService::new(ProtocolEngine::new(svc), 1);
        alone.submit(&mut w, client, root, &names(&["/hop1"]));
        let baseline = alone.drain(&mut w)[0].service_time();

        // Same shallow batch admitted behind a 3-round deep batch, one
        // logical worker: still completes in its standalone time.
        let (mut w, svc, machines, root, _) = chain_world(71);
        let client = w.spawn(machines[0], "client", None);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 1);
        svc.submit(&mut w, client, root, &names(&["/hop1/hop2/leaf"]));
        svc.submit(&mut w, client, root, &names(&["/hop1"]));
        let answers = svc.drain(&mut w);
        assert_eq!(answers[1].queue_wait().ticks(), 0, "admission stalled");
        assert_eq!(answers[1].service_time(), baseline);
        assert!(
            answers[1].completed_at < answers[0].completed_at,
            "shallow batch waited behind the deep one"
        );
    }

    /// Dropped messages are retried to the same answers (generous
    /// deadline budget), and the retry counters move.
    #[test]
    fn retries_recover_dropped_exchanges() {
        let (mut w, svc, machines, root, leaf) = chain_world(71);
        w.set_message_drop_rate(0.3);
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        }));
        let mut svc = PipelinedService::new(engine, 2);
        for _ in 0..4 {
            svc.submit(&mut w, client, root, &names(&["/hop1/hop2/leaf", "/hop1"]));
        }
        let answers = svc.drain(&mut w);
        assert_eq!(answers.len(), 4);
        for a in &answers {
            assert_eq!(a.entities[0], leaf);
            assert!(a.entities[1].is_defined());
            assert_eq!(a.unreachable, vec![false, false]);
        }
        assert!(svc.engine().retry_counters().retransmissions > 0);
    }

    /// Superseded attempts are forgotten once nothing is in flight: ids
    /// whose request or late reply was lost used to stay in the engine for
    /// good. Forgetting must not change what is counted — the totals are
    /// the ones this seed produced before the set was ever emptied.
    #[test]
    fn superseded_ids_do_not_outlive_the_messages_that_could_answer_them() {
        let (mut w, svc, machines, root, leaf) = chain_world(71);
        w.set_message_drop_rate(0.3);
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        // Deadlines below the chain's round trip: many fire early (late
        // replies, some of them lost), the rest because a message was lost.
        engine.set_retry_policy(Some(RetryPolicy {
            base_timeout_ticks: 12,
            max_attempts: 64,
            backoff_cap: 6,
        }));
        let mut svc = PipelinedService::new(engine, 2);
        for _wave in 0..8 {
            for _ in 0..4 {
                svc.submit(&mut w, client, root, &names(&["/hop1/hop2/leaf", "/hop1"]));
            }
            for a in svc.drain(&mut w) {
                assert_eq!(a.entities[0], leaf);
                assert_eq!(a.unreachable, vec![false, false]);
            }
        }
        // Let the stragglers land, then nothing is left to wait for.
        svc.engine_mut().pump_idle(&mut w);
        assert_eq!(w.messages_in_flight(), 0);
        assert_eq!(svc.engine().superseded_pending(), 0);
        let counted = RetryCounters {
            retransmissions: 178,
            late_replies: 35,
            ..RetryCounters::default()
        };
        assert_eq!(svc.engine().retry_counters(), counted);
    }

    /// Total loss: every slot gets a transport verdict (unreachable),
    /// never a false authoritative ⊥ — same contract as the blocking
    /// driver.
    #[test]
    fn total_loss_yields_unreachable_verdicts() {
        let (mut w, svc, machines, root, _) = chain_world(71);
        w.set_message_drop_rate(1.0);
        let client = w.spawn(machines[0], "client", None);
        let mut engine = ProtocolEngine::new(svc);
        engine.set_retry_policy(Some(RetryPolicy::default()));
        let mut svc = PipelinedService::new(engine, 1);
        svc.submit(&mut w, client, root, &names(&["/hop1/hop2/leaf", "/hop1"]));
        let answers = svc.drain(&mut w);
        assert_eq!(answers[0].entities, vec![Entity::Undefined; 2]);
        assert_eq!(answers[0].unreachable, vec![true, true]);
        assert!(svc.engine().retry_counters().exhausted > 0);
    }

    /// A start context nobody hosts is a transport verdict immediately.
    #[test]
    fn unplaced_context_is_unreachable() {
        let (mut w, svc, machines, root, _) = chain_world(71);
        // Created after placement: no machine claims it.
        let orphan = store::ensure_dir(w.state_mut(), root, "orphan");
        let client = w.spawn(machines[0], "client", None);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 1);
        svc.submit(&mut w, client, orphan, &names(&["/x"]));
        let answers = svc.drain(&mut w);
        assert_eq!(answers[0].entities, vec![Entity::Undefined]);
        assert_eq!(answers[0].unreachable, vec![true]);
    }

    /// An empty batch completes at its admission instant.
    #[test]
    fn empty_batch_completes_immediately() {
        let (mut w, svc, machines, root, _) = chain_world(71);
        let client = w.spawn(machines[0], "client", None);
        let mut svc = PipelinedService::new(ProtocolEngine::new(svc), 1);
        svc.submit(&mut w, client, root, &[]);
        let answers = svc.drain(&mut w);
        assert_eq!(answers.len(), 1);
        assert!(answers[0].entities.is_empty());
        assert_eq!(answers[0].rounds, 0);
        assert_eq!(answers[0].messages, 0);
    }

    /// Submissions past the in-flight limit queue, and queued batches are
    /// admitted at the virtual instant an earlier completion frees a
    /// slot — with a nonzero recorded queue wait.
    #[test]
    fn backpressure_queues_past_limit() {
        let (mut w, svc, machines, root, _) = chain_world(71);
        let client = w.spawn(machines[0], "client", None);
        let mut svc = PipelinedService::with_limit(ProtocolEngine::new(svc), 1, 1);
        let batch = names(&["/hop1/hop2/leaf"]);
        for _ in 0..3 {
            svc.submit(&mut w, client, root, &batch);
        }
        assert_eq!(svc.in_flight(), 1);
        let answers = svc.drain(&mut w);
        assert_eq!(answers.len(), 3);
        let rep = svc.report();
        assert_eq!(rep.in_flight_hwm, 1);
        assert_eq!(rep.backlog_hwm, 2);
        assert_eq!(answers[0].queue_wait().ticks(), 0);
        assert!(answers[1].queue_wait().ticks() > 0);
        assert_eq!(answers[1].admitted_at, answers[0].completed_at);
        assert!(answers[2].queue_wait().ticks() > answers[1].queue_wait().ticks());
        // Serialized through one slot: completions in submission order.
        assert!(answers[0].completed_at < answers[1].completed_at);
        assert!(answers[1].completed_at < answers[2].completed_at);
    }

    /// The reactor's interleaved timeline must not depend on the worker
    /// count: answers are identical at 1, 2, 4, and 9 workers.
    #[test]
    fn answers_are_identical_across_worker_counts() {
        let mut runs: Vec<Vec<PipelinedAnswer>> = Vec::new();
        for &workers in &[1usize, 2, 4, 9] {
            let (mut w, svc, machines, root, _) = chain_world(71);
            w.set_message_drop_rate(0.2);
            let client = w.spawn(machines[0], "client", None);
            let mut engine = ProtocolEngine::new(svc);
            engine.set_retry_policy(Some(RetryPolicy {
                max_attempts: 64,
                ..RetryPolicy::default()
            }));
            let mut svc = PipelinedService::new(engine, workers);
            for i in 0..8 {
                let batch = if i % 3 == 0 {
                    names(&["/hop1/hop2/leaf", "/hop1/hop2/missing"])
                } else {
                    names(&["/hop1"])
                };
                svc.submit(&mut w, client, root, &batch);
            }
            let mut answers = svc.drain(&mut w);
            // Worker attribution is the one field that may differ.
            for a in &mut answers {
                a.worker = 0;
            }
            runs.push(answers);
        }
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
    }

    /// A hub whose root grafts one zone per machine: `/z{i}/leaf` costs a
    /// referral from the hub to zone `i`'s server.
    fn star_world(seed: u64, zones: usize) -> (World, NameService, ActivityId, ObjectId) {
        let mut w = World::new(seed);
        let net = w.add_network("n");
        let hub = w.add_machine("hub", net);
        let root = w.machine_root(hub);
        let mut machines = vec![hub];
        for i in 0..zones {
            let m = w.add_machine(format!("zone{i}"), net);
            let zroot = w.machine_root(m);
            let zone = store::ensure_dir(w.state_mut(), zroot, "export");
            store::create_file(w.state_mut(), zone, "leaf", vec![]);
            store::attach(w.state_mut(), root, &format!("z{i}"), zone, false);
            machines.push(m);
        }
        let mut svc = NameService::install(&mut w, &machines);
        for &m in machines.iter().rev() {
            let r = w.machine_root(m);
            svc.place_subtree(&w, r, m);
        }
        let client = w.spawn(hub, "client", None);
        (w, svc, client, root)
    }

    /// Handling only the process an event names must be indistinguishable
    /// from sweeping every server mailbox after every event — answers,
    /// accounting, the clock, every trace counter — under loss and
    /// retries, for both drivers, with many more servers than any one
    /// event touches.
    #[test]
    fn targeted_dispatch_equals_sweeping_every_mailbox() {
        const ZONES: usize = 40;
        let batches: Vec<Vec<CompoundName>> = (0..6)
            .map(|b| {
                (0..8)
                    .map(|k| {
                        let z = (b * 7 + k * 5) % ZONES;
                        let leaf = if k % 4 == 3 { "missing" } else { "leaf" };
                        CompoundName::parse_path(&format!("/z{z}/{leaf}")).unwrap()
                    })
                    .collect()
            })
            .collect();
        let run = |sweep: bool, pipelined: bool| {
            let (mut w, svc, client, root) = star_world(97, ZONES);
            w.set_message_drop_rate(0.2);
            let mut engine = ProtocolEngine::new(svc);
            engine.sweep_every_event = sweep;
            engine.set_retry_policy(Some(RetryPolicy {
                max_attempts: 64,
                ..RetryPolicy::default()
            }));
            let answers = if pipelined {
                let mut svc = PipelinedService::with_limit(engine, 2, 2);
                for b in &batches {
                    svc.submit(&mut w, client, root, b);
                }
                let done = format!("{:?}", svc.drain(&mut w));
                engine = svc.into_engine();
                done
            } else {
                let stats: Vec<_> = batches
                    .iter()
                    .map(|b| engine.resolve_batch(&mut w, client, root, b))
                    .collect();
                format!("{stats:?}")
            };
            assert_eq!(w.pending_timers(), 0, "timers left behind");
            (
                answers,
                engine.retry_counters(),
                w.now(),
                w.trace().to_string(),
            )
        };
        for pipelined in [false, true] {
            let targeted = run(false, pipelined);
            assert!(targeted.1.retransmissions > 0, "the loss never bit");
            assert_eq!(targeted, run(true, pipelined), "pipelined: {pipelined}");
        }
    }
}
