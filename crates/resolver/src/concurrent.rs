//! Concurrent snapshot serving: a multi-worker resolution front end.
//!
//! The paper's resolution rule only *consults* σ, so serving reads is
//! embarrassingly parallel between mutations. [`ConcurrentService`] splits
//! the two roles explicitly:
//!
//! * **Readers** — a fixed pool of worker threads consuming
//!   [`BatchRequest`] frames from an MPMC channel (`crossbeam::channel`).
//!   Each worker drives the name server's walk over the frame's
//!   shared-prefix trie against the immutable [`StateSnapshot`] carried by
//!   the job, holding the whole namespace — one context lookup per distinct
//!   prefix, no locks, no atomics, no state kept between jobs.
//! * **The writer** — mutations apply to a private *staging* state
//!   ([`ConcurrentService::update`]); nothing a worker can observe changes
//!   until [`ConcurrentService::publish`] clones the staging state into a
//!   fresh `Arc`-shared snapshot and swaps it in (copy-on-publish).
//!
//! Answers are collected by submission order, so a drain is deterministic
//! regardless of worker count or scheduling — the property the
//! configuration matrix (`tests/config_matrix.rs`) asserts.
//!
//! The hand-off stays awake. Both waits — an idle worker's for a frame,
//! [`ConcurrentService::drain`]'s for an answer — go through the channel's
//! receiver, which probes for a bounded time before it parks, so a frame or
//! an answer that arrives within that time costs its sender no wake system
//! call; [`ServiceReport::worker_parks`] and [`ServiceReport::drain_parks`]
//! count the waits that did park. And a drain that finds no answer ready
//! while frames are still queued serves the next one itself, as one more
//! worker, instead of waiting for the pool to reach it. Wall-clock
//! scheduling only: no answer, order or counted figure depends on it.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};
use naming_core::entity::Entity;
use naming_core::memo::MemoStats;
use naming_core::name::{CompoundName, Name};
use naming_core::snapshot::StateSnapshot;
use naming_core::state::SystemState;
use naming_telemetry::metrics::{Histogram, MetricsRegistry};
// Re-exported so downstream crates can consume [`ServiceReport`] fields
// without depending on naming-telemetry themselves.
pub use naming_telemetry::flight::{FlightLog, FlightRecorder, SharedFlightRecorder};
pub use naming_telemetry::metrics::HistogramSnapshot;

use crate::service::{authority_walk, AuthorityScratch, Onward};
use crate::wire::{self, BatchRequest, Mode, NameTrie, Outcome};

/// A unit of work: one batch frame plus the snapshot it resolves against.
struct Job {
    seq: u64,
    req: BatchRequest,
    snap: StateSnapshot,
    /// The answer, one `⊥` per query until served: made by `submit` on the
    /// caller's thread, so a frame costs the caller the same whichever
    /// thread serves it.
    entities: Vec<Entity>,
    /// Wall-clock submission time, for queue-wait measurement. Purely
    /// observational — it feeds the worker's latency histograms and
    /// never touches an answer.
    submitted: Instant,
}

/// What a served job sends back: its sequence number, its answer, and the
/// trie it was read into, for the next frame to reuse.
type Served = (u64, BatchAnswer, NameTrie);

/// A completed batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAnswer {
    /// Echoes [`BatchRequest::id`].
    pub id: u64,
    /// One entity per query id, total-function semantics (`⊥` =
    /// [`Entity::Undefined`]).
    pub entities: Vec<Entity>,
    /// The worker that served the batch: a pool thread's index, or
    /// [`ConcurrentService::workers`] when `drain` served it itself
    /// (scheduling detail; varies run to run — everything else in the
    /// answer is deterministic).
    pub worker: usize,
}

/// What one worker — a pool thread, or `drain` serving queued frames
/// itself — did over its lifetime.
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Batches served.
    pub batches: u64,
    /// Individual queries answered.
    pub queries: u64,
    /// Context lookups performed: one per trie node the walk reached
    /// alive. A pure function of the frames and snapshots served.
    pub lookups: u64,
    /// Lookups shared prefixes spared against one walk per query, as
    /// [`crate::service::NameService::local_resolve_batch`] counts them.
    pub lookups_saved: u64,
    /// Always zero: workers keep no memo. Retained for report readers.
    pub memo: MemoStats,
    /// Wall-clock nanoseconds each batch waited in the queue before this
    /// worker dequeued it. Observational (wall clock, not VirtualTime):
    /// it varies run to run and never feeds an answer.
    pub queue_wait: HistogramSnapshot,
    /// Wall-clock nanoseconds this worker spent serving each batch
    /// (dequeue → answer sent). Same caveat as `queue_wait`.
    pub service_time: HistogramSnapshot,
}

/// Aggregated lifetime report, returned by [`ConcurrentService::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Per-worker reports, indexed by [`BatchAnswer::worker`]: one per pool
    /// thread, then one for the frames `drain` served itself.
    pub workers: Vec<WorkerReport>,
    /// Snapshots published.
    pub publishes: u64,
    /// Publish calls skipped because the staged delta was empty.
    pub noop_publishes: u64,
    /// Highest number of batches simultaneously in flight (queued or
    /// being served) over the service's lifetime.
    pub queue_depth_hwm: u64,
    /// The merged flight log (empty unless the service was built with
    /// [`ConcurrentService::with_sampling`]). Entries are ordered by
    /// `(request id, query index)` — identical for every worker count.
    pub flight: FlightLog,
    /// Times an idle worker parked waiting for a frame. Wall-clock
    /// scheduling: varies run to run and never feeds an answer.
    pub worker_parks: u64,
    /// Times [`ConcurrentService::drain`] parked waiting for an answer.
    /// Same caveat as `worker_parks`.
    pub drain_parks: u64,
}

impl ServiceReport {
    /// Total batches served across workers.
    pub fn batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches).sum()
    }

    /// Total queries answered across workers.
    pub fn queries(&self) -> u64 {
        self.workers.iter().map(|w| w.queries).sum()
    }
}

/// A multi-worker name service over immutable snapshots.
///
/// Single-writer, many-reader: `&mut self` serializes every mutation and
/// publish, while submitted batches resolve concurrently on the pool.
/// Workers always answer from the snapshot that was current at submission
/// time, so a client never observes a half-applied update.
///
/// # Examples
///
/// ```
/// use naming_core::prelude::*;
/// use naming_resolver::concurrent::ConcurrentService;
/// use naming_resolver::wire::{BatchRequest, NameTrie};
///
/// let mut sys = SystemState::new();
/// let root = sys.add_context_object("root");
/// let f = sys.add_data_object("f", vec![]);
/// sys.bind(root, Name::new("f"), f).unwrap();
///
/// let mut svc = ConcurrentService::new(sys, 4);
/// let (trie, _) = NameTrie::build(&[CompoundName::atom(Name::new("f"))]);
/// svc.submit(BatchRequest { id: 7, start: root, trie });
/// let answers = svc.drain();
/// assert_eq!(answers[0].entities, vec![Entity::Object(f)]);
/// svc.shutdown();
/// ```
#[derive(Debug)]
pub struct ConcurrentService {
    staging: SystemState,
    current: StateSnapshot,
    jobs: Option<Sender<Job>>,
    /// The job channel's receiving end for `drain`, which serves queued
    /// frames itself while no answer is ready. It also keeps the channel's
    /// park count in reach once `jobs` is dropped at shutdown.
    queued: Receiver<Job>,
    results: Receiver<Served>,
    workers: Vec<JoinHandle<WorkerReport>>,
    /// `drain`'s own server, made with the pool.
    drainer: Server,
    /// Forest-check scratch for [`ConcurrentService::submit_frame`]'s decode.
    seen: Vec<u64>,
    /// Tries that served a frame, for `submit_frame` to read the next ones
    /// into: back from `drain` in submission order, so which trie a frame
    /// reuses — and whether it must grow — never depends on which thread
    /// served first. No more than were ever pending at once.
    tries: Vec<NameTrie>,
    /// `drain`'s tries by submission order while answers come in.
    returned: Vec<Option<NameTrie>>,
    /// Per-worker flight recorders (worker-index order, `drain`'s last),
    /// shared with the pool; empty when the service was built without
    /// sampling.
    flights: Vec<SharedFlightRecorder>,
    next_seq: u64,
    pending: u64,
    queue_depth_hwm: u64,
    publishes: u64,
    /// Staging revision captured by the last publish; equality means the
    /// staged delta is empty and a publish can reuse the current snapshot.
    published_revision: u64,
    noop_publishes: u64,
}

impl ConcurrentService {
    /// Starts `workers` worker threads serving snapshots of `initial`
    /// (which is published immediately), with no flight sampling.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(initial: SystemState, workers: usize) -> ConcurrentService {
        ConcurrentService::with_sampling(initial, workers, 0)
    }

    /// Starts the pool with a per-worker flight recorder sampling one
    /// query in `sample_every` (0 disables sampling; 1 records every
    /// query). Admission is a hash of `(request id, name)` — never a
    /// clock or an RNG draw — so which queries get sampled, and the
    /// resulting [`FlightLog`], are identical across runs and worker
    /// counts. Answers are never affected.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_sampling(
        initial: SystemState,
        workers: usize,
        sample_every: u64,
    ) -> ConcurrentService {
        assert!(workers > 0, "worker pool must be nonempty");
        let (jobs_tx, jobs_rx) = channel::unbounded::<Job>();
        let (results_tx, results_rx) = channel::unbounded::<Served>();
        let flights: Vec<SharedFlightRecorder> = if sample_every == 0 {
            Vec::new()
        } else {
            (0..=workers)
                .map(|idx| FlightRecorder::new(idx as u32, sample_every).into_shared())
                .collect()
        };
        let handles = (0..workers)
            .map(|idx| {
                let rx = jobs_rx.clone();
                let tx = results_tx.clone();
                let flight = flights.get(idx).cloned();
                std::thread::spawn(move || worker_loop(Server::new(idx, flight), rx, tx))
            })
            .collect();
        let current = StateSnapshot::capture(&initial);
        let published_revision = initial.revision();
        ConcurrentService {
            staging: initial,
            current,
            jobs: Some(jobs_tx),
            queued: jobs_rx,
            results: results_rx,
            workers: handles,
            drainer: Server::new(workers, flights.get(workers).cloned()),
            seen: Vec::new(),
            tries: Vec::new(),
            returned: Vec::new(),
            flights,
            next_seq: 0,
            pending: 0,
            queue_depth_hwm: 0,
            publishes: 1,
            published_revision,
            noop_publishes: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The currently published snapshot (what submitted batches see).
    pub fn snapshot(&self) -> StateSnapshot {
        self.current.clone()
    }

    /// The staging state — mutations made here are invisible to workers
    /// until [`ConcurrentService::publish`].
    pub fn staging(&self) -> &SystemState {
        &self.staging
    }

    /// Applies a mutation to the staging state. Readers are unaffected;
    /// `&mut self` is the write serialization point.
    pub fn update<R>(&mut self, f: impl FnOnce(&mut SystemState) -> R) -> R {
        f(&mut self.staging)
    }

    /// Publishes the staging state: clones it into a fresh `Arc`-shared
    /// snapshot and swaps it in. Batches submitted from now on resolve
    /// against the new state; in-flight batches keep the snapshot they
    /// were submitted with. Returns the new snapshot's stamp.
    ///
    /// The clone is per-shard copy-on-publish — only shards written since
    /// the last publish are copied; untouched shards are `Arc`-shared
    /// between the snapshot and staging. If *nothing* was staged since the
    /// last publish, this is a complete no-op: the current snapshot (and
    /// its `Arc`) is reused, no clone happens, and the publish counter
    /// does not move.
    pub fn publish(&mut self) -> (u64, u64) {
        if self.staging.revision() == self.published_revision {
            self.noop_publishes += 1;
            return self.current.stamp();
        }
        self.current = StateSnapshot::capture(&self.staging);
        self.published_revision = self.staging.revision();
        self.publishes += 1;
        naming_telemetry::counter!("service.concurrent.publishes").bump();
        self.current.stamp()
    }

    /// How many [`ConcurrentService::publish`] calls found an empty staged
    /// delta and reused the current snapshot.
    pub fn noop_publishes(&self) -> u64 {
        self.noop_publishes
    }

    /// Queues a batch for resolution against the current snapshot.
    /// Answers are retrieved with [`ConcurrentService::drain`], in
    /// submission order.
    pub fn submit(&mut self, req: BatchRequest) {
        let jobs = self.jobs.as_ref().expect("service not shut down");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        if self.pending > self.queue_depth_hwm {
            self.queue_depth_hwm = self.pending;
            // No more jobs than are pending ever wait in the queue: room
            // for them all, made here, is room the queue never grows into
            // on this thread however far the pool falls behind.
            jobs.reserve(self.pending as usize);
        }
        let job = Job {
            seq,
            entities: vec![Entity::Undefined; req.trie.query_count() as usize],
            req,
            snap: self.current.clone(),
            submitted: Instant::now(),
        };
        jobs.send(job).expect("worker pool alive");
    }

    /// Decodes and queues an encoded [`BatchRequest`] frame, read into a
    /// trie that served an earlier frame. Returns `false` (submitting
    /// nothing) on a malformed frame.
    pub fn submit_frame(&mut self, frame: bytes::Bytes) -> bool {
        let mut trie = self.tries.pop().unwrap_or_default();
        match wire::read_request(&frame, &mut trie, &mut self.seen) {
            Some((Mode::Iterative, id, start)) => {
                self.submit(BatchRequest { id, start, trie });
                true
            }
            _ => {
                self.tries.push(trie);
                false
            }
        }
    }

    /// Blocks until every submitted batch has been answered and returns
    /// the answers **in submission order** — deterministic for any worker
    /// count.
    ///
    /// While no answer is ready and frames are still queued, the calling
    /// thread serves the next one itself, as worker
    /// [`ConcurrentService::workers`]: the tail of a backlog is walked on
    /// one more thread instead of waited for.
    pub fn drain(&mut self) -> Vec<BatchAnswer> {
        // Pending jobs hold the last `pending` sequence numbers, densely.
        let first = self.next_seq - self.pending;
        let mut by_seq: Vec<Option<BatchAnswer>> = vec![None; self.pending as usize];
        self.returned.resize_with(self.pending as usize, || None);
        while self.pending > 0 {
            let (seq, answer, trie) = match self.results.try_recv() {
                Ok(done) => done,
                Err(_) => match self.queued.try_recv() {
                    Ok(job) => self.drainer.serve(job),
                    Err(_) => self.results.recv().expect("workers alive while draining"),
                },
            };
            by_seq[(seq - first) as usize] = Some(answer);
            self.returned[(seq - first) as usize] = Some(trie);
            self.pending -= 1;
        }
        // A trie `submit` brought is kept too, while fewer are kept than
        // were ever pending.
        for trie in self.returned.drain(..).flatten() {
            if self.tries.len() < self.queue_depth_hwm as usize {
                self.tries.push(trie);
            }
        }
        by_seq
            .into_iter()
            .map(|a| a.expect("one answer per pending job"))
            .collect()
    }

    /// The merged flight log so far: every worker's sampled entries,
    /// ordered by `(request id, query index)`. Which entries appear is a
    /// pure function of the submitted workload and the sampling rate —
    /// identical across runs and worker counts. Empty unless the service
    /// was built with [`ConcurrentService::with_sampling`].
    ///
    /// Safe to call while workers are busy, but for a stable log drain
    /// first so no batch is mid-service.
    pub fn flight_log(&self) -> FlightLog {
        let guards: Vec<_> = self.flights.iter().map(|f| f.lock()).collect();
        FlightLog::merge(guards.iter().map(|g| &**g))
    }

    /// Stops the pool (after completing queued work) and returns the
    /// aggregated lifetime report.
    pub fn shutdown(mut self) -> ServiceReport {
        // Closing the job channel ends every worker's `iter()` loop.
        self.jobs = None;
        let mut workers: Vec<WorkerReport> = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        workers.push(self.drainer.finish());
        // No receiver parks on a closed channel: both counts are final.
        let worker_parks = self.queued.parks();
        let drain_parks = self.results.parks();
        naming_telemetry::counter!("service.concurrent.worker_parks").add(worker_parks);
        naming_telemetry::counter!("service.concurrent.drain_parks").add(drain_parks);
        // Merge after the join so queued-but-undrained work is included.
        let flight = self.flight_log();
        ServiceReport {
            workers,
            publishes: self.publishes,
            noop_publishes: self.noop_publishes,
            queue_depth_hwm: self.queue_depth_hwm,
            flight,
            worker_parks,
            drain_parks,
        }
    }
}

impl Drop for ConcurrentService {
    fn drop(&mut self) {
        self.jobs = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// What serves frames: a pool worker, or `drain` while it waits. Every
/// frame's trie goes through the name server's walk, [`authority_walk`],
/// against the job's snapshot — resolved a depth at a time, one lookup per
/// distinct prefix, going on everywhere, then reported depth first — and
/// each name's outcome is its entity: `Resolved(e)` is `e`, anything else
/// `⊥`, as [`Resolver::resolve_entity`](naming_core::resolve::Resolver::resolve_entity)
/// answers it.
#[derive(Debug)]
struct Server {
    idx: usize,
    report: WorkerReport,
    /// Private latency histograms (wall clock, observational only).
    queue_wait: Arc<Histogram>,
    service_time: Arc<Histogram>,
    scratch: AuthorityScratch,
    flight: Option<SharedFlightRecorder>,
}

impl Server {
    fn new(idx: usize, flight: Option<SharedFlightRecorder>) -> Server {
        // `Histogram` is only constructible through a registry, so keep a
        // local one rather than polluting the global namespace per worker.
        let local = MetricsRegistry::new();
        Server {
            idx,
            report: WorkerReport::default(),
            queue_wait: local.histogram("worker.queue_wait_ns"),
            service_time: local.histogram("worker.service_ns"),
            scratch: AuthorityScratch::default(),
            flight,
        }
    }

    /// Answers one job, returning its sequence number with the answer and
    /// the job's trie.
    fn serve(&mut self, job: Job) -> Served {
        let started = Instant::now();
        self.queue_wait
            .record(started.duration_since(job.submitted).as_nanos() as u64);
        let trie = &job.req.trie;
        let mut entities = job.entities;
        let flight = &self.flight;
        let (lookups, saved) = authority_walk(
            job.snap.state(),
            job.req.start,
            trie,
            &mut self.scratch,
            Onward::Here,
            |_| {},
            |query, path, outcome| {
                let entity = match outcome {
                    Outcome::Resolved(e) => e,
                    _ => Entity::Undefined,
                };
                entities[query as usize] = entity;
                if let Some(flight) = flight {
                    // Admission hashes (request id, name), so the merged log
                    // is the same for any worker count; the outcome string
                    // renders only for admitted entries.
                    let shown = path.iter().map(|c| c.unwrap_or_else(|| Name::new("?")));
                    let name = CompoundName::new(shown)
                        .expect("a trie path is non-empty")
                        .to_string();
                    flight
                        .lock()
                        .observe(job.req.id, query, &name, job.seq, || format!("{entity}"));
                }
            },
        );
        self.service_time
            .record(started.elapsed().as_nanos() as u64);
        let queries = entities.len() as u64;
        let report = &mut self.report;
        report.batches += 1;
        report.queries += queries;
        let (lookups, saved) = (u64::from(lookups), u64::from(saved));
        report.lookups += lookups;
        report.lookups_saved += saved;
        naming_telemetry::counter!("service.concurrent.batches").bump();
        naming_telemetry::counter!("service.concurrent.queries").add(queries);
        naming_telemetry::counter!("service.concurrent.lookups").add(lookups);
        naming_telemetry::counter!("service.concurrent.lookups_saved").add(saved);
        let answer = BatchAnswer {
            id: job.req.id,
            entities,
            worker: self.idx,
        };
        (job.seq, answer, job.req.trie)
    }

    fn finish(&mut self) -> WorkerReport {
        self.report.queue_wait = self.queue_wait.snapshot();
        self.report.service_time = self.service_time.snapshot();
        std::mem::take(&mut self.report)
    }
}

/// A pool thread: serves every job until the job channel closes.
fn worker_loop(mut server: Server, jobs: Receiver<Job>, results: Sender<Served>) -> WorkerReport {
    for job in jobs.iter() {
        if results.send(server.serve(job)).is_err() {
            // Service dropped mid-flight; nothing left to report to.
            break;
        }
    }
    server.finish()
}

// The tests hold the pool to the core resolver's answers.
#[cfg(test)]
use naming_core::resolve::Resolver;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NameTrie;
    use naming_core::name::{CompoundName, Name};
    use naming_core::prelude::ObjectId;

    /// root -> {etc -> passwd, usr -> bin -> cc}.
    fn tree() -> (SystemState, ObjectId) {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        let usr = s.add_context_object("usr");
        let bin = s.add_context_object("bin");
        let passwd = s.add_data_object("passwd", vec![]);
        let cc = s.add_data_object("cc", vec![]);
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("etc"), etc).unwrap();
        s.bind(root, Name::new("usr"), usr).unwrap();
        s.bind(etc, Name::new("passwd"), passwd).unwrap();
        s.bind(usr, Name::new("bin"), bin).unwrap();
        s.bind(bin, Name::new("cc"), cc).unwrap();
        (s, root)
    }

    fn batch(id: u64, start: ObjectId, paths: &[&str]) -> (BatchRequest, Vec<CompoundName>) {
        let names: Vec<CompoundName> = paths
            .iter()
            .map(|p| CompoundName::parse_path(p).unwrap())
            .collect();
        let (trie, _) = NameTrie::build(&names);
        (BatchRequest { id, start, trie }, names)
    }

    #[test]
    fn answers_match_serial_resolution_for_any_worker_count() {
        let (s, root) = tree();
        let paths = ["/etc/passwd", "/usr/bin/cc", "/nope", "/etc", "/usr/bin"];
        let serial: Vec<Entity> = {
            let r = Resolver::new();
            let (req, _) = batch(0, root, &paths);
            req.trie
                .names()
                .iter()
                .map(|n| r.resolve_entity(&s, root, n))
                .collect()
        };
        for workers in [1, 2, 4] {
            let mut svc = ConcurrentService::new(s.clone(), workers);
            let (req, _) = batch(42, root, &paths);
            svc.submit(req);
            let answers = svc.drain();
            assert_eq!(answers.len(), 1);
            assert_eq!(answers[0].id, 42);
            assert_eq!(answers[0].entities, serial, "{workers} workers");
            let report = svc.shutdown();
            assert_eq!(report.batches(), 1);
            assert_eq!(report.queries(), serial.len() as u64);
        }
    }

    #[test]
    fn drain_orders_by_submission_not_completion() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 4);
        for id in 0..32u64 {
            let (req, _) = batch(id, root, &["/etc/passwd", "/usr/bin/cc"]);
            svc.submit(req);
        }
        let answers = svc.drain();
        let ids: Vec<u64> = answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
        svc.shutdown();
    }

    #[test]
    fn staged_writes_invisible_until_publish() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        let n = ["/etc/shadow"];

        // Bind into staging; workers still see the published snapshot.
        let shadow = svc.update(|sys| {
            let etc = match sys.lookup(root, Name::new("etc")) {
                Entity::Object(o) => o,
                other => panic!("etc is {other:?}"),
            };
            let shadow = sys.add_data_object("shadow", vec![]);
            sys.bind(etc, Name::new("shadow"), shadow).unwrap();
            shadow
        });
        let (req, _) = batch(1, root, &n);
        svc.submit(req);
        assert_eq!(svc.drain()[0].entities, vec![Entity::Undefined]);

        // Publish; the same batch now resolves.
        let before = svc.snapshot().stamp();
        let after = svc.publish();
        assert_ne!(before, after);
        let (req, _) = batch(2, root, &n);
        svc.submit(req);
        assert_eq!(svc.drain()[0].entities, vec![Entity::Object(shadow)]);
        let report = svc.shutdown();
        assert_eq!(report.publishes, 2);
    }

    #[test]
    fn in_flight_batches_keep_their_snapshot() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 1);
        let (req, _) = batch(1, root, &["/etc/passwd"]);
        svc.submit(req);
        // Unbind and publish immediately after submission: the submitted
        // batch must still answer from the snapshot it was paired with.
        svc.update(|sys| {
            let etc = match sys.lookup(root, Name::new("etc")) {
                Entity::Object(o) => o,
                other => panic!("etc is {other:?}"),
            };
            sys.unbind(etc, Name::new("passwd")).unwrap();
        });
        svc.publish();
        let first = svc.drain();
        assert!(first[0].entities[0].is_defined());
        let (req, _) = batch(2, root, &["/etc/passwd"]);
        svc.submit(req);
        assert_eq!(svc.drain()[0].entities, vec![Entity::Undefined]);
        svc.shutdown();
    }

    #[test]
    fn submit_frame_round_trips_and_rejects_garbage() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        let (req, _) = batch(9, root, &["/usr/bin/cc"]);
        assert!(svc.submit_frame(req.encode()));
        assert!(!svc.submit_frame(bytes::Bytes::from_static(b"\xffgarbage")));
        let answers = svc.drain();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].id, 9);
        assert!(answers[0].entities[0].is_defined());
        svc.shutdown();
    }

    #[test]
    fn empty_delta_publish_is_a_noop_reusing_the_snapshot_arc() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        let before = svc.snapshot();

        // Nothing staged: publish must not clone, not bump the counter,
        // and hand back the very same snapshot allocation.
        let stamp = svc.publish();
        assert_eq!(stamp, before.stamp());
        assert!(svc.snapshot().ptr_eq(&before));
        assert_eq!(svc.noop_publishes(), 1);

        // Reads only (even through drain) still leave the delta empty.
        let (req, _) = batch(1, root, &["/etc/passwd"]);
        svc.submit(req);
        svc.drain();
        svc.publish();
        assert!(svc.snapshot().ptr_eq(&before));

        // A real write makes the next publish produce a fresh snapshot.
        svc.update(|sys| {
            sys.bind(root, Name::root(), root).unwrap();
        });
        svc.publish();
        assert!(!svc.snapshot().ptr_eq(&before));
        let report = svc.shutdown();
        assert_eq!(report.publishes, 2);
        assert_eq!(report.noop_publishes, 2);
    }

    #[test]
    fn publish_copies_only_written_shards() {
        // One zone per shard: a publish after writing zone A must keep
        // sharing every other zone's shard, with staging and with the
        // snapshot it replaces.
        for shards in [2, 8] {
            let mut s = SystemState::with_shards(shards);
            let root = s.add_context_object_in(0, "root");
            s.bind(root, Name::root(), root).unwrap();
            let zones: Vec<ObjectId> = (0..shards)
                .map(|z| {
                    let zone = s.add_context_object_in(z, format!("z{z}"));
                    s.bind(root, Name::new(&format!("z{z}")), zone).unwrap();
                    zone
                })
                .collect();
            let (za, sa) = (zones[shards - 1], shards - 1);

            let mut svc = ConcurrentService::new(s, 1);
            let shared =
                |svc: &ConcurrentService| svc.snapshot().state().shards_shared_with(svc.staging());
            assert_eq!(shared(&svc), shards);

            let prev = svc.snapshot();
            svc.update(|sys| {
                let f = sys.add_data_object_in(sa, "f", vec![]);
                sys.bind(za, Name::new("f"), f).unwrap();
            });
            svc.publish();
            // The fresh snapshot shares every shard with staging, and all
            // but the written one with the snapshot it replaced.
            assert_eq!(shared(&svc), shards);
            let kept = svc.snapshot().state().shards_shared_with(prev.state());
            assert_eq!(kept, shards - 1, "{shards} shards");
            svc.update(|sys| {
                let g = sys.add_data_object_in(sa, "g", vec![]);
                sys.bind(za, Name::new("g"), g).unwrap();
            });
            // After more zone-A staging, zone A's shard diverges but every
            // other shard is still physically shared with the snapshot.
            assert_eq!(shared(&svc), shards - 1);
            svc.shutdown();
        }
    }

    /// Runs the same 24-batch workload under sampling and returns the
    /// merged flight log.
    fn sampled_run(workers: usize, every: u64) -> (FlightLog, ServiceReport) {
        let (s, root) = tree();
        let mut svc = ConcurrentService::with_sampling(s, workers, every);
        for id in 0..24u64 {
            let (req, _) = batch(id, root, &["/etc/passwd", "/usr/bin/cc", "/nope"]);
            svc.submit(req);
        }
        svc.drain();
        let live = svc.flight_log();
        (live, svc.shutdown())
    }

    #[test]
    fn flight_log_is_deterministic_across_runs_and_worker_counts() {
        let (base_live, base) = sampled_run(1, 2);
        assert!(!base.flight.entries.is_empty(), "sampling admitted nothing");
        assert!(
            base.flight.sampled < base.flight.seen,
            "1-in-2 skipped none"
        );
        // The live (pre-shutdown) merge already equals the final one here
        // because the workload was drained first.
        assert_eq!(base_live.keys(), base.flight.keys());
        for workers in [1, 2, 4] {
            let (_, run) = sampled_run(workers, 2);
            assert_eq!(run.flight.entries, base.flight.entries, "{workers} workers");
            assert_eq!(run.flight.seen, base.flight.seen);
            assert_eq!(run.flight.sampled, base.flight.sampled);
        }
        // Entries arrive ordered by (request, query).
        let order: Vec<(u64, u32)> = base
            .flight
            .entries
            .iter()
            .map(|e| (e.request, e.query))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn sampling_never_changes_answers_and_default_service_logs_nothing() {
        let (s, root) = tree();
        let paths = ["/etc/passwd", "/usr/bin/cc", "/nope"];
        let mut plain = ConcurrentService::new(s.clone(), 2);
        let mut sampled = ConcurrentService::with_sampling(s, 2, 1);
        for id in 0..8u64 {
            let (req, _) = batch(id, root, &paths);
            plain.submit(req);
            let (req, _) = batch(id, root, &paths);
            sampled.submit(req);
        }
        let a: Vec<Vec<Entity>> = plain.drain().into_iter().map(|b| b.entities).collect();
        let b: Vec<Vec<Entity>> = sampled.drain().into_iter().map(|b| b.entities).collect();
        assert_eq!(a, b);
        let plain_report = plain.shutdown();
        let sampled_report = sampled.shutdown();
        assert!(plain_report.flight.entries.is_empty());
        assert_eq!(plain_report.flight.seen, 0);
        // every=1 admits every query.
        assert_eq!(sampled_report.flight.sampled, sampled_report.flight.seen);
        assert_eq!(sampled_report.flight.seen, 8 * paths.len() as u64);
    }

    #[test]
    fn report_tracks_queue_depth_hwm_and_latency_histograms() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        for id in 0..16u64 {
            let (req, _) = batch(id, root, &["/etc/passwd"]);
            svc.submit(req);
        }
        svc.drain();
        let report = svc.shutdown();
        // 16 batches were submitted before any drain; the high-water mark
        // saw at least the full backlog at some point (workers may have
        // started, so only a lower bound of 1 is exact — but submission
        // happens before any recv can be observed by `pending`, so the
        // mark is exactly 16 here).
        assert_eq!(report.queue_depth_hwm, 16);
        let served: u64 = report.workers.iter().map(|w| w.service_time.count).sum();
        let waited: u64 = report.workers.iter().map(|w| w.queue_wait.count).sum();
        assert_eq!(served, 16);
        assert_eq!(waited, 16);
        assert!(report
            .workers
            .iter()
            .all(|w| w.queue_wait.count == w.batches));
    }

    /// A drain that finds no answer ready serves queued frames itself. The
    /// pool's one worker is held inside its first frame (it waits on its
    /// flight recorder's lock), so every other frame is the drain's to
    /// serve; the answers, their order and the reports must not tell.
    #[test]
    fn drain_serves_queued_frames_while_the_pool_is_busy() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::with_sampling(s, 1, 1);
        let held = Arc::clone(&svc.flights[0]);
        let drainer = Arc::clone(&svc.flights[1]);
        let paths = ["/etc/passwd", "/nope"];
        let guard = held.lock();
        for id in 0..8u64 {
            let (req, _) = batch(id, root, &paths);
            svc.submit(req);
        }
        let draining = std::thread::spawn(move || {
            let answers = svc.drain();
            (answers, svc.shutdown())
        });
        // The worker holds at most one frame; the drain serves the others.
        while drainer.lock().seen() < 7 * paths.len() as u64 {
            std::thread::yield_now();
        }
        drop(guard);
        let (answers, report) = draining.join().unwrap();
        assert_eq!(
            answers.iter().map(|a| a.id).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert!(answers
            .iter()
            .all(|a| a.entities[0].is_defined() && !a.entities[1].is_defined()));
        assert_eq!(report.workers.len(), 2);
        assert!(report.workers[1].batches >= 7);
        assert_eq!(report.batches(), 8);
        let by_drain = answers.iter().filter(|a| a.worker == 1).count() as u64;
        assert_eq!(by_drain, report.workers[1].batches);
        assert_eq!(
            report.workers[1].queue_wait.count,
            report.workers[1].batches
        );
        assert_eq!(report.flight.seen, 8 * paths.len() as u64);
    }

    /// Park counts are reported at shutdown and added to the registry.
    #[test]
    fn shutdown_reports_parks_and_mirrors_them_into_the_registry() {
        let parks = |name| naming_telemetry::metrics::global().snapshot().counter(name);
        let before = (
            parks("service.concurrent.worker_parks"),
            parks("service.concurrent.drain_parks"),
        );
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        for id in 0..16u64 {
            let (req, _) = batch(id, root, &["/etc/passwd"]);
            svc.submit(req);
            svc.drain();
        }
        let report = svc.shutdown();
        assert!(parks("service.concurrent.worker_parks") >= before.0 + report.worker_parks);
        assert!(parks("service.concurrent.drain_parks") >= before.1 + report.drain_parks);
    }
}
