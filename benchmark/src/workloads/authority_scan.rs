//! `authority_scan` — authority-side work only.
//!
//! Pre-encoded `BatchRequest` frames are pushed through
//! `ConcurrentService::submit_frame` in waves and collected with `drain`,
//! over `bench_scale`'s 1e5 tier. No `World`, no client cache: the cost is
//! wire decode, the worker pool, the snapshot, and the walk with the memo
//! entries it seeds. The namespace is republished (untimed) before every
//! wave, so each wave meets cold worker memos: a worker's `SnapshotMemo` is
//! unbounded, and on a replayed stream it would otherwise hold the whole
//! namespace after one repetition and the walk would never run again.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use naming_core::entity::{Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_resolver::concurrent::{BatchAnswer, ConcurrentService, HistogramSnapshot};
use naming_resolver::wire::{BatchRequest, NameTrie};

use super::{ratio, Readings, Sizes, Workload, BATCH};
use crate::alloc::live_bytes;
use crate::ladder;
use crate::oracle::{self, Tally};
use crate::probe::Probe;
use crate::rng::{scatter, Rng, Zipf};
use crate::stats::Hist;
use crate::worlds::{ops_hash, Grid, GRID_DIRS, GRID_ZONES};

/// Frames submitted before each `drain`.
pub const WAVE_FRAMES: usize = 256;
/// Idle time granted to the workers at the end of a repetition.
const WORKER_SETTLE: Duration = Duration::from_millis(2);
/// Single-zone write-then-publish cycles timed after the last repetition.
const PUBLISHES: usize = 64;

/// Service workers: the generator thread plus the workers never exceed the
/// cores available (capped at 4 so results from bigger boxes stay comparable).
pub fn service_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.min(4).saturating_sub(1).max(1)
}

/// Zipf(s=1) over zones (scattered), uniform inside a zone, 1 in 16 unbound.
fn stream(rng: &mut Rng, n: usize) -> Vec<CompoundName> {
    let zones = Zipf::new(GRID_ZONES);
    (0..n)
        .map(|_| {
            let z = scatter(zones.draw(rng), GRID_ZONES);
            let d = rng.below(GRID_DIRS);
            Grid::name(z, d, rng.below(16) != 0)
        })
        .collect()
}

/// A write to the root's shard, published: every walk crosses that shard,
/// so each worker's `SnapshotMemo` — which is unbounded and would otherwise
/// end up holding the whole namespace — drops its entries on first contact
/// with the new snapshot. Never timed.
pub fn republish(svc: &mut ConcurrentService, root: ObjectId) {
    svc.update(|s| {
        s.bind(root, Name::new("epoch"), root)
            .expect("the root is a context");
    });
    svc.publish();
}

pub struct AuthorityScan {
    svc: ConcurrentService,
    root: ObjectId,
    workers: usize,
    names: Vec<CompoundName>,
    /// One encoded frame per [`BATCH`] names; frame `k` carries id `k`.
    frames: Vec<Bytes>,
    /// Per input name: the query id its answer is filed under in its frame.
    query_ids: Vec<u32>,
    expected: Vec<Entity>,
    /// Wall time of `Grid::build` at set-up.
    build_ns: u64,
    setup_heap: u64,
    counted: Counted,
    /// Timed wall since the service started (warm-up included), to set
    /// against the workers' lifetime service-time totals.
    lifetime_wall_ns: u64,
}

/// What the repetitions since set-up finished added up to.
#[derive(Default)]
struct Counted {
    names: u64,
    frame_bytes: u64,
    wave_wall_ns: Hist,
}

impl AuthorityScan {
    pub fn setup(seed: u64, sizes: &Sizes, tally: &mut Tally) -> AuthorityScan {
        let h0 = live_bytes();
        let t = Instant::now();
        let grid = Grid::build();
        let build_ns = t.elapsed().as_nanos() as u64;
        let root = grid.root;
        let workers = service_workers();
        let svc = ConcurrentService::new(grid.state, workers);
        let setup_heap = live_bytes() - h0;

        let names = stream(
            &mut Rng::new(seed, 1),
            sizes.authority_waves * WAVE_FRAMES * BATCH,
        );
        let expected = oracle::expected(svc.staging(), root, &names);
        let mut frames = Vec::with_capacity(names.len() / BATCH);
        let mut query_ids = Vec::with_capacity(names.len());
        for (id, chunk) in names.chunks(BATCH).enumerate() {
            let (trie, mapping) = NameTrie::build(chunk);
            query_ids.extend(mapping);
            frames.push(
                BatchRequest {
                    id: id as u64,
                    start: root,
                    trie,
                }
                .encode(),
            );
        }
        let mut w = AuthorityScan {
            svc,
            root,
            workers,
            names,
            frames,
            query_ids,
            expected,
            build_ns,
            setup_heap,
            counted: Counted::default(),
            lifetime_wall_ns: 0,
        };
        w.rep(&mut Probe::new(false), tally);
        w.counted = Counted::default();
        w
    }

    /// Checks one drained wave: answers arrive in submission order, each
    /// echoing its frame's id.
    fn check_wave(
        &self,
        first: usize,
        answers: &[BatchAnswer],
        refused: &[bool],
        tally: &mut Tally,
    ) {
        let mut answers = answers.iter();
        let mut got = [Entity::Undefined; BATCH];
        for (k, &was_refused) in refused.iter().enumerate() {
            let frame = first + k;
            if was_refused {
                tally.refuse(BATCH as u64);
                continue;
            }
            let lo = frame * BATCH;
            let Some(a) = answers.next().filter(|a| a.id == frame as u64) else {
                tally.refuse(BATCH as u64);
                continue;
            };
            for (slot, &q) in got.iter_mut().zip(&self.query_ids[lo..lo + BATCH]) {
                // An out-of-range query id reads as a false ⊥ and fails.
                *slot = a
                    .entities
                    .get(q as usize)
                    .copied()
                    .unwrap_or(Entity::Undefined);
            }
            tally.check_static(&self.expected[lo..lo + BATCH], &got, &[]);
        }
    }
}

impl Workload for AuthorityScan {
    fn names_per_rep(&self) -> u64 {
        self.names.len() as u64
    }

    fn ops_hash(&self) -> u64 {
        ops_hash(self.names.iter())
    }

    fn setup_heap_bytes(&self) -> u64 {
        self.setup_heap
    }

    fn rep(&mut self, probe: &mut Probe, tally: &mut Tally) {
        let mut refused = [false; WAVE_FRAMES];
        for (wave, first) in (0..self.frames.len()).step_by(WAVE_FRAMES).enumerate() {
            republish(&mut self.svc, self.root);
            let w0 = probe.wall_ns();
            for (k, refused) in refused.iter_mut().enumerate() {
                let frame = self.frames[first + k].clone();
                self.counted.frame_bytes += frame.len() as u64;
                let svc = &mut self.svc;
                let accepted = probe.call(
                    "resolver.concurrent.submit_frame",
                    (first + k) as u32,
                    || svc.submit_frame(frame),
                );
                *refused = !accepted;
            }
            let svc = &mut self.svc;
            let answers = probe.call("resolver.concurrent.drain", wave as u32, || svc.drain());
            let wall = probe.wall_ns() - w0;
            self.counted.wave_wall_ns.record(wall);
            self.lifetime_wall_ns += wall;
            self.check_wave(first, &answers, &refused, tally);
        }
        // A worker drops its last job after answering it. Let it, so that
        // those bytes are not freed inside the next workload's repetition
        // and booked against its heap growth.
        std::thread::sleep(WORKER_SETTLE);
        self.counted.names += self.names.len() as u64;
    }

    fn finish(self: Box<Self>) -> Readings {
        let AuthorityScan {
            mut svc,
            root,
            workers,
            build_ns,
            counted,
            lifetime_wall_ns,
            ..
        } = *self;

        // Copy-on-publish cost: bind one fresh leaf into one zone, publish.
        let mut publish_ns = Hist::default();
        for k in 0..PUBLISHES {
            let z = scatter(k, GRID_ZONES);
            let zone_root = svc
                .staging()
                .lookup(root, Name::new(&format!("z{z}")))
                .as_object()
                .expect("zone roots are bound under the root");
            let t = Instant::now();
            svc.update(|s| {
                let leaf = s.add_data_object_in(z, format!("z{z}/w{k}"), vec![]);
                s.bind(zone_root, Name::new(&format!("w{k}")), leaf)
                    .expect("zone root is a context");
            });
            svc.publish();
            publish_ns.record(t.elapsed().as_nanos() as u64);
        }

        let report = svc.shutdown();
        let (mut hits, mut misses, mut busy_ns) = (0u64, 0u64, 0u64);
        for w in &report.workers {
            hits += w.memo.hits;
            misses += w.memo.misses;
            busy_ns += w.service_time.sum;
        }
        let queue_wait = merged_median(report.workers.iter().map(|w| &w.queue_wait));
        let service = merged_median(report.workers.iter().map(|w| &w.service_time));
        vec![
            (
                "e2e.wire_bytes_per_name",
                ratio(counted.frame_bytes as f64, counted.names as f64),
            ),
            (
                "core.snapshot.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            (
                "core.state.build_ns_per_context",
                build_ns as f64 / Grid::contexts() as f64,
            ),
            (
                "core.state.publish_us_p50",
                publish_ns.percentile(0.5) as f64 / 1e3,
            ),
            (
                "resolver.concurrent.queue_wait_us_p50",
                queue_wait as f64 / 1e3,
            ),
            ("resolver.concurrent.service_us_p50", service as f64 / 1e3),
            (
                "resolver.concurrent.queue_depth_hwm",
                report.queue_depth_hwm as f64,
            ),
            (
                "resolver.concurrent.worker_busy_frac",
                ratio(busy_ns as f64, lifetime_wall_ns as f64 * workers as f64),
            ),
            (
                "bench.batch_wall_us_p99",
                counted.wave_wall_ns.percentile(0.99) as f64 / 1e3,
            ),
        ]
    }

    fn ladder(
        &self,
        _seed: u64,
        sizes: &Sizes,
        probe: &mut Probe,
        e2e_ns_per_name: f64,
    ) -> Readings {
        let sample = &self.names[..sizes.ladder_names.min(self.names.len())];
        let state = self.svc.staging();
        let mut out = ladder::core_rungs(state, self.root, sample, probe);
        let wire = ladder::wire_rungs(state, self.root, sample, probe);
        out.extend(wire.readings);
        let top =
            ladder::concurrent_rung(state, self.root, sample, self.workers, WAVE_FRAMES, probe);
        out.extend(top.readings);
        out.push(ladder::unexplained(e2e_ns_per_name, top.ns_per_name));
        out
    }
}

/// Median over every worker's power-of-two histogram: the upper bound of
/// the bucket holding the middle observation.
fn merged_median<'a>(snaps: impl Iterator<Item = &'a HistogramSnapshot>) -> u64 {
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for &(bound, n) in snaps.flat_map(|s| &s.buckets) {
        *merged.entry(bound).or_default() += n;
    }
    let total: u64 = merged.values().sum();
    let mut seen = 0;
    for (bound, n) in merged {
        seen += n;
        if seen * 2 >= total {
            return bound;
        }
    }
    0
}
