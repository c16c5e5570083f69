//! Concurrent snapshot serving: a multi-worker resolution front end.
//!
//! The paper's resolution rule only *consults* σ, so serving reads is
//! embarrassingly parallel between mutations. [`ConcurrentService`] splits
//! the two roles explicitly:
//!
//! * **Readers** — a fixed pool of worker threads consuming
//!   [`BatchRequest`] frames from an MPMC channel (`crossbeam::channel`).
//!   Each worker walks the frame's shared-prefix trie once against the
//!   immutable [`StateSnapshot`] carried by the job — one context lookup per
//!   distinct prefix, no locks, no atomics, no state kept between jobs.
//! * **The writer** — mutations apply to a private *staging* state
//!   ([`ConcurrentService::update`]); nothing a worker can observe changes
//!   until [`ConcurrentService::publish`] clones the staging state into a
//!   fresh `Arc`-shared snapshot and swaps it in (copy-on-publish).
//!
//! Answers are collected by submission order, so a drain is deterministic
//! regardless of worker count or scheduling — the property the CI
//! determinism leg and `bench_concurrent` assert byte-for-byte.

use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};
use naming_core::entity::Entity;
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_core::snapshot::{SnapshotMemoStats, StateSnapshot};
use naming_core::state::SystemState;
use naming_telemetry::metrics::MetricsRegistry;
// Re-exported so downstream crates can consume [`ServiceReport`] fields
// without depending on naming-telemetry themselves.
pub use naming_telemetry::flight::{FlightLog, FlightRecorder, SharedFlightRecorder};
pub use naming_telemetry::metrics::HistogramSnapshot;

use crate::wire::{BatchReply, BatchRequest, Outcome, WalkScratch};

/// A unit of work: one batch frame plus the snapshot it resolves against.
struct Job {
    seq: u64,
    req: BatchRequest,
    snap: StateSnapshot,
    /// Wall-clock submission time, for queue-wait measurement. Purely
    /// observational — it feeds the worker's latency histograms and
    /// never touches an answer.
    submitted: Instant,
}

/// A completed batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAnswer {
    /// Echoes [`BatchRequest::id`].
    pub id: u64,
    /// One entity per query id, total-function semantics (`⊥` =
    /// [`Entity::Undefined`]).
    pub entities: Vec<Entity>,
    /// The worker that served the batch (scheduling detail; varies run to
    /// run — everything else in the answer is deterministic).
    pub worker: usize,
}

impl BatchAnswer {
    /// The answer as wire outcomes: defined entities are
    /// [`Outcome::Resolved`], `⊥` is [`Outcome::NotFound`]. A snapshot
    /// worker resolves in-process against state it already holds — no
    /// transport is involved, so [`Outcome::Unreachable`] cannot arise
    /// here and every ⊥ is authoritative for the snapshot's generation.
    pub fn outcomes(&self) -> Vec<Outcome> {
        self.entities
            .iter()
            .map(|&e| {
                if e.is_defined() {
                    Outcome::Resolved(e)
                } else {
                    Outcome::NotFound
                }
            })
            .collect()
    }

    /// Packages the answer as the [`BatchReply`] frame a wire front end
    /// would send back for the originating [`BatchRequest`].
    pub fn to_reply(&self) -> BatchReply {
        BatchReply {
            id: self.id,
            outcomes: self.outcomes(),
            servers_touched: 1,
            lookups_saved: 0,
        }
    }
}

/// What one worker did over its lifetime.
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
    pub memo: SnapshotMemoStats,
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
    /// Per-worker reports, indexed by worker.
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
    results: Receiver<(u64, BatchAnswer)>,
    workers: Vec<JoinHandle<WorkerReport>>,
    /// Per-worker flight recorders (worker-index order), shared with the
    /// pool; empty when the service was built without sampling.
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
        let (results_tx, results_rx) = channel::unbounded::<(u64, BatchAnswer)>();
        let flights: Vec<SharedFlightRecorder> = if sample_every == 0 {
            Vec::new()
        } else {
            (0..workers)
                .map(|idx| FlightRecorder::new(idx as u32, sample_every).into_shared())
                .collect()
        };
        let handles = (0..workers)
            .map(|idx| {
                let rx = jobs_rx.clone();
                let tx = results_tx.clone();
                let flight = flights.get(idx).cloned();
                std::thread::spawn(move || worker_loop(idx, rx, tx, flight))
            })
            .collect();
        let current = StateSnapshot::capture(&initial);
        let published_revision = initial.revision();
        ConcurrentService {
            staging: initial,
            current,
            jobs: Some(jobs_tx),
            results: results_rx,
            workers: handles,
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
        #[cfg(feature = "telemetry")]
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.queue_depth_hwm = self.queue_depth_hwm.max(self.pending);
        let job = Job {
            seq,
            req,
            snap: self.current.clone(),
            submitted: Instant::now(),
        };
        self.jobs
            .as_ref()
            .expect("service not shut down")
            .send(job)
            .expect("worker pool alive");
    }

    /// Decodes and queues an encoded [`BatchRequest`] frame. Returns
    /// `false` (submitting nothing) on a malformed frame.
    pub fn submit_frame(&mut self, frame: bytes::Bytes) -> bool {
        BatchRequest::decode(frame)
            .map(|req| self.submit(req))
            .is_some()
    }

    /// Blocks until every submitted batch has been answered and returns
    /// the answers **in submission order** — deterministic for any worker
    /// count.
    pub fn drain(&mut self) -> Vec<BatchAnswer> {
        // Pending jobs hold the last `pending` sequence numbers, densely.
        let first = self.next_seq - self.pending;
        let mut by_seq: Vec<Option<BatchAnswer>> = vec![None; self.pending as usize];
        while self.pending > 0 {
            let (seq, answer) = self.results.recv().expect("workers alive while draining");
            by_seq[(seq - first) as usize] = Some(answer);
            self.pending -= 1;
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
        let workers = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        // Merge after the join so queued-but-undrained work is included.
        let flight = self.flight_log();
        ServiceReport {
            workers,
            publishes: self.publishes,
            noop_publishes: self.noop_publishes,
            queue_depth_hwm: self.queue_depth_hwm,
            flight,
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

/// The worker body: walk every received frame's trie once against the
/// job's snapshot — one lookup per distinct prefix, answers written where
/// names end — by the entity rule of [`Resolver::resolve_entity`].
fn worker_loop(
    idx: usize,
    jobs: Receiver<Job>,
    results: Sender<(u64, BatchAnswer)>,
    flight: Option<SharedFlightRecorder>,
) -> WorkerReport {
    let depth_limit = Resolver::new().depth_limit();
    let mut report = WorkerReport::default();
    // Worker-private latency histograms (wall clock, observational only).
    // `Histogram` is only constructible through a registry, so keep a
    // local one rather than polluting the global namespace per worker.
    let local = MetricsRegistry::new();
    let queue_wait = local.histogram("worker.queue_wait_ns");
    let service_time = local.histogram("worker.service_ns");
    // The `counter!` macro caches per call site, which would conflate
    // workers; resolve this worker's handles from the registry once. The
    // names come from the interner, so every worker index — not just the
    // first eight — gets its own counters.
    #[cfg(feature = "telemetry")]
    let (worker_batches, worker_queries) = {
        let (batches, queries) =
            crate::worker_metrics::batch_query_names(crate::worker_metrics::Family::Service, idx);
        let reg = naming_telemetry::metrics::global();
        (reg.counter(batches), reg.counter(queries))
    };
    let (mut walk, mut sub) = (WalkScratch::default(), Vec::new());
    for job in jobs.iter() {
        let started = Instant::now();
        queue_wait.record(started.duration_since(job.submitted).as_nanos() as u64);
        let (state, trie) = (job.snap.state(), &job.req.trie);
        trie.subtree_query_counts(&mut sub);
        let mut entities = vec![Entity::Undefined; trie.query_count() as usize];
        let (mut lookups, mut naive) = (0u64, 0u64);
        // The state below a node is the context its component denoted;
        // `None` once the path has died (⊥, an activity, a non-context
        // object) or outgrown the depth limit — every name below is ⊥.
        trie.walk(&mut walk, Some(job.req.start), |ni, node, path, ctx| {
            let ctx = state.context(ctx.filter(|_| path.len() <= depth_limit)?)?;
            lookups += 1;
            naive += u64::from(sub[ni]);
            // A label this process never interned is bound nowhere.
            let entity = (node.component).map_or(Entity::Undefined, |c| ctx.lookup(c));
            if let Some(query) = node.query {
                entities[query as usize] = entity;
                if let Some(flight) = &flight {
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
            }
            entity.as_object()
        });
        service_time.record(started.elapsed().as_nanos() as u64);
        let queries = entities.len() as u64;
        report.batches += 1;
        report.queries += queries;
        let saved = naive.saturating_sub(lookups);
        report.lookups += lookups;
        report.lookups_saved += saved;
        #[cfg(feature = "telemetry")]
        {
            worker_batches.bump();
            worker_queries.add(queries);
            naming_telemetry::counter!("service.concurrent.batches").bump();
            naming_telemetry::counter!("service.concurrent.queries").add(queries);
            naming_telemetry::counter!("service.concurrent.lookups").add(lookups);
            naming_telemetry::counter!("service.concurrent.lookups_saved").add(saved);
        }
        let answer = BatchAnswer {
            id: job.req.id,
            entities,
            worker: idx,
        };
        if results.send((job.seq, answer)).is_err() {
            // Service dropped mid-flight; nothing left to report to.
            break;
        }
    }
    report.queue_wait = queue_wait.snapshot();
    report.service_time = service_time.snapshot();
    report
}

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
        // Two zones, two shards: a publish after writing zone A must keep
        // sharing zone B's shard with staging.
        let mut s = SystemState::with_shards(2);
        let root = s.add_context_object_in(0, "root");
        let za = s.add_context_object_in(0, "za");
        let zb = s.add_context_object_in(1, "zb");
        s.bind(root, Name::root(), root).unwrap();
        s.bind(root, Name::new("za"), za).unwrap();
        s.bind(root, Name::new("zb"), zb).unwrap();

        let mut svc = ConcurrentService::new(s, 1);
        assert_eq!(svc.snapshot().state().shards_shared_with(svc.staging()), 2);

        svc.update(|sys| {
            let f = sys.add_data_object_in(0, "f", vec![]);
            sys.bind(za, Name::new("f"), f).unwrap();
        });
        svc.publish();
        // The fresh snapshot shares the untouched shard 1 with staging.
        assert_eq!(svc.snapshot().state().shards_shared_with(svc.staging()), 2);
        svc.update(|sys| {
            let g = sys.add_data_object_in(0, "g", vec![]);
            sys.bind(za, Name::new("g"), g).unwrap();
        });
        // After more zone-A staging, shard 0 diverges but shard 1 is
        // still physically shared with the published snapshot.
        assert_eq!(svc.snapshot().state().shards_shared_with(svc.staging()), 1);
        svc.shutdown();
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

    #[test]
    fn answers_convert_to_wire_replies_without_unreachable() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 2);
        let (req, _) = batch(9, root, &["/etc/passwd", "/nope"]);
        svc.submit(req);
        let answers = svc.drain();
        assert_eq!(answers.len(), 1);
        let reply = answers[0].to_reply();
        assert_eq!(reply.id, 9);
        assert_eq!(reply.outcomes.len(), 2);
        // Defined answers resolve; in-process ⊥ is authoritative NotFound,
        // never a transport verdict.
        assert!(matches!(reply.outcomes[0], Outcome::Resolved(_)));
        assert_eq!(reply.outcomes[1], Outcome::NotFound);
        assert!(!reply
            .outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Unreachable { .. })));
        // The frame round-trips through the wire codec.
        let decoded = BatchReply::decode(reply.encode()).unwrap();
        assert_eq!(decoded, reply);
        svc.shutdown();
    }

    /// Regression: the old fixed 8-slot name tables aliased every worker
    /// past index 7 onto `service.worker7.*`. A pool wider than eight
    /// workers must register a distinct counter pair per worker.
    #[cfg(feature = "telemetry")]
    #[test]
    fn wide_pool_registers_distinct_per_worker_counters() {
        let (s, root) = tree();
        let mut svc = ConcurrentService::new(s, 10);
        for id in 0..32u64 {
            let (req, _) = batch(id, root, &["/etc/passwd"]);
            svc.submit(req);
        }
        svc.drain();
        svc.shutdown();
        // Every worker resolves its handles at thread start, so all ten
        // names exist in the global registry regardless of job placement.
        let snap = naming_telemetry::metrics::global().snapshot();
        for i in 0..10 {
            for kind in ["batches", "queries"] {
                let name = format!("service.worker{i}.{kind}");
                assert!(
                    snap.counters.contains_key(&name),
                    "missing per-worker counter {name}"
                );
            }
        }
    }
}
