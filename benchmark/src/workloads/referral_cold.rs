//! `referral_cold` — protocol-bound, no client cache at all.
//!
//! Batches of 8 uniform names are submitted to a `PipelinedService` in
//! waves of 1024 and drained. Every name costs three rounds (hub → region →
//! zone) across runtime, engine, wire, simulator and service. A wave is
//! twice the admission cap, so admission queue wait shapes the virtual
//! tail, and 5 % message loss behind a retry policy adds retransmit
//! deadlines to it.

use naming_core::entity::Entity;
use naming_core::name::CompoundName;
use naming_resolver::engine::{ProtocolEngine, RetryCounters, RetryPolicy};
use naming_resolver::runtime::PipelinedService;

use super::{per_k, ratio, uniform_stream, Readings, Sizes, Workload};
use crate::alloc::live_bytes;
use crate::ladder::{self, StarConfig};
use crate::oracle::{self, Tally};
use crate::probe::Probe;
use crate::rng::Rng;
use crate::stats::Hist;
use crate::worlds::{ops_hash, Star3};

/// Names per submitted batch.
pub const BATCH_NAMES: usize = 8;
/// Batches submitted before each `drain`.
pub const WAVE_BATCHES: usize = 1024;
/// Logical reactor workers, and in-flight continuations allowed to each:
/// the admission cap is half a wave.
const WORKERS: usize = 2;
const PER_WORKER_LIMIT: usize = WAVE_BATCHES / 2 / WORKERS;
const DROP_RATE: f64 = 0.05;

/// `RetryPolicy::default()` with 12 attempts instead of 8. At 5 % loss an
/// exchange fails with probability ≈ 0.1, so 8 attempts exhaust about once
/// in 10⁸ exchanges — once every few dozen runs of this workload, which
/// would make a correct system report a failed name. 12 attempts push that
/// below once in 10¹².
pub const RETRY: RetryPolicy = RetryPolicy {
    base_timeout_ticks: 256,
    max_attempts: 12,
    backoff_cap: 6,
};

const STAR: StarConfig = StarConfig {
    latency: None,
    drop_rate: DROP_RATE,
    retry: Some(RETRY),
    batch: BATCH_NAMES,
};

pub struct ReferralCold {
    star: Star3,
    svc: PipelinedService,
    names: Vec<CompoundName>,
    expected: Vec<Entity>,
    /// Wall time of `Star3::build` at set-up.
    build_ns: u64,
    setup_heap: u64,
    counted: Counted,
    base: Base,
}

/// What the repetitions since set-up finished added up to.
#[derive(Default)]
struct Counted {
    names: u64,
    virt_ticks: Hist,
    queue_wait_ticks: Hist,
    service_ticks: Hist,
    wave_wall_ns: Hist,
}

/// World and engine counters as they stood when set-up finished.
#[derive(Clone, Copy, Default)]
struct Base {
    sent: u64,
    wire_bytes: u64,
    lost: u64,
    retry: RetryCounters,
}

impl ReferralCold {
    pub fn setup(seed: u64, sizes: &Sizes, tally: &mut Tally) -> ReferralCold {
        let h0 = live_bytes();
        let t = std::time::Instant::now();
        let (mut star, service) = Star3::build(seed, STAR.latency);
        let build_ns = t.elapsed().as_nanos() as u64;
        star.world.set_message_drop_rate(DROP_RATE);
        let mut engine = ProtocolEngine::new(service);
        engine.set_retry_policy(STAR.retry);
        let svc = PipelinedService::with_limit(engine, WORKERS, PER_WORKER_LIMIT);
        let setup_heap = live_bytes() - h0;

        let names = uniform_stream(
            &mut Rng::new(seed, 2),
            sizes.referral_waves * WAVE_BATCHES * BATCH_NAMES,
        );
        let expected = oracle::expected(star.world.state(), star.hub, &names);
        let mut w = ReferralCold {
            star,
            svc,
            names,
            expected,
            build_ns,
            setup_heap,
            counted: Counted::default(),
            base: Base::default(),
        };
        w.rep(&mut Probe::new(false), tally);
        w.counted = Counted::default();
        w.base = w.counters();
        w
    }

    fn counters(&self) -> Base {
        let trace = self.star.world.trace();
        Base {
            sent: trace.counter("sent"),
            wire_bytes: trace.counter("wire_bytes"),
            lost: trace.counter("lost"),
            retry: self.svc.engine().retry_counters(),
        }
    }
}

impl Workload for ReferralCold {
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
        let (svc, star) = (&mut self.svc, &mut self.star);
        let batches = self.names.len() / BATCH_NAMES;
        for (wave, first) in (0..batches).step_by(WAVE_BATCHES).enumerate() {
            let w0 = probe.wall_ns();
            let mut first_seq = None;
            for k in 0..WAVE_BATCHES {
                let lo = (first + k) * BATCH_NAMES;
                let chunk = &self.names[lo..lo + BATCH_NAMES];
                let seq = probe.call("resolver.runtime.submit", (first + k) as u32, || {
                    svc.submit(&mut star.world, star.client, star.hub, chunk)
                });
                first_seq.get_or_insert(seq);
            }
            let answers = probe.call("resolver.runtime.drain", wave as u32, || {
                svc.drain(&mut star.world)
            });
            self.counted.wave_wall_ns.record(probe.wall_ns() - w0);

            let first_seq = first_seq.expect("a wave submits at least one batch");
            // A batch the reactor never answered fails all its names.
            tally.refuse(((WAVE_BATCHES - answers.len().min(WAVE_BATCHES)) * BATCH_NAMES) as u64);
            for a in &answers {
                let lo = (first + (a.seq - first_seq) as usize) * BATCH_NAMES;
                tally.check_static(
                    &self.expected[lo..lo + BATCH_NAMES],
                    &a.entities,
                    &a.unreachable,
                );
                self.counted
                    .virt_ticks
                    .record((a.completed_at - a.submitted_at).ticks());
                self.counted.queue_wait_ticks.record(a.queue_wait().ticks());
                self.counted.service_ticks.record(a.service_time().ticks());
            }
        }
        self.counted.names += self.names.len() as u64;
    }

    fn finish(self: Box<Self>) -> Readings {
        let now = self.counters();
        let names = self.counted.names;
        let report = self.svc.report();
        let retry = now.retry;
        let base = self.base.retry;
        let sent = now.sent - self.base.sent;
        vec![
            (
                "core.state.build_ns_per_context",
                self.build_ns as f64 / Star3::contexts() as f64,
            ),
            (
                "e2e.virt_ticks_p50",
                self.counted.virt_ticks.percentile(0.5) as f64,
            ),
            (
                "e2e.virt_ticks_p99",
                self.counted.virt_ticks.percentile(0.99) as f64,
            ),
            ("e2e.msgs_per_name", ratio(sent as f64, names as f64)),
            (
                "e2e.wire_bytes_per_name",
                ratio((now.wire_bytes - self.base.wire_bytes) as f64, names as f64),
            ),
            (
                "sim.world.lost_per_kmsg",
                per_k(now.lost - self.base.lost, sent),
            ),
            (
                "resolver.engine.retransmissions_per_kname",
                per_k(retry.retransmissions - base.retransmissions, names),
            ),
            (
                "resolver.engine.late_replies_per_kname",
                per_k(retry.late_replies - base.late_replies, names),
            ),
            (
                "resolver.engine.exhausted",
                (retry.exhausted - base.exhausted) as f64,
            ),
            (
                "resolver.runtime.in_flight_hwm",
                report.in_flight_hwm as f64,
            ),
            ("resolver.runtime.backlog_hwm", report.backlog_hwm as f64),
            (
                "resolver.runtime.queue_wait_ticks_p99",
                self.counted.queue_wait_ticks.percentile(0.99) as f64,
            ),
            (
                "resolver.runtime.service_ticks_p50",
                self.counted.service_ticks.percentile(0.5) as f64,
            ),
            (
                "bench.batch_wall_us_p99",
                self.counted.wave_wall_ns.percentile(0.99) as f64 / 1e3,
            ),
        ]
    }

    fn ladder(
        &self,
        seed: u64,
        sizes: &Sizes,
        probe: &mut Probe,
        e2e_ns_per_name: f64,
    ) -> Readings {
        let sample = &self.names[..sizes.ladder_names.min(self.names.len())];
        let state = self.star.world.state();
        let mut out = ladder::core_rungs(state, self.star.hub, sample, probe);
        let wire = ladder::wire_rungs(state, self.star.hub, sample, probe);
        let mut star = ladder::star_rungs(seed, STAR, sample, &wire, probe);
        out.extend(wire.readings);
        out.append(&mut star.readings);
        let runtime = ladder::runtime_rung(
            star,
            sample,
            BATCH_NAMES,
            WAVE_BATCHES,
            WORKERS,
            PER_WORKER_LIMIT,
            probe,
        );
        out.extend(runtime.readings);
        out.push(ladder::unexplained(e2e_ns_per_name, runtime.ns_per_name));
        out
    }
}
