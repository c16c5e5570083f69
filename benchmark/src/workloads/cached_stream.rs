//! `cache_overflow` and `hot_cache` — the two sides of the client cache.
//!
//! Both push batches of 64 names through an exact-mode `CachingResolver`
//! with the default capacity (4096) over a lossless star. They differ only
//! in the op stream:
//!
//! * `cache_overflow` draws uniformly over all ~96 K leaves — 23× the
//!   capacity — so nearly every name is a miss: record, LRU evict, referral
//!   jump, and the blocking engine underneath.
//! * `hot_cache` draws Zipf-wise from a hot set of 2048 bound names plus
//!   their `missing` siblings, which fits; after warm-up the engine, wire
//!   and simulator are idle and the cost is the memo probe and the
//!   negative cache.

use naming_core::entity::Entity;
use naming_core::name::CompoundName;
use naming_resolver::cache::{CacheStats, CachingResolver};
use naming_resolver::coherence::CoherenceMode;
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::referral::ValidatedCacheStats;

use super::{
    hot_stream, per_k, ratio, side_hit_ratio, uniform_stream, Readings, Sizes, Workload, BATCH,
};
use crate::alloc::live_bytes;
use crate::ladder::{self, StarConfig};
use crate::oracle::{self, Tally};
use crate::probe::Probe;
use crate::rng::Rng;
use crate::stats::Hist;
use crate::worlds::{ops_hash, Star3};

/// Names in `hot_cache`'s stream; a repetition replays it several times.
const HOT_STREAM: usize = 1 << 17;

const STAR: StarConfig = StarConfig {
    latency: None,
    drop_rate: 0.0,
    retry: None,
    batch: BATCH,
};

pub struct CachedStream {
    star: Star3,
    cache: CachingResolver,
    names: Vec<CompoundName>,
    expected: Vec<Entity>,
    replays: usize,
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
    served_from_cache: u64,
    virt_ticks: Hist,
    batch_wall_ns: Hist,
}

/// World and cache counters as they stood when set-up finished.
#[derive(Clone, Copy, Default)]
struct Base {
    sent: u64,
    wire_bytes: u64,
    cache: CacheStats,
    referral: ValidatedCacheStats,
    negative: ValidatedCacheStats,
}

impl CachedStream {
    pub fn overflow(seed: u64, sizes: &Sizes, tally: &mut Tally) -> CachedStream {
        let names = |rng: &mut Rng| uniform_stream(rng, sizes.overflow_batches * BATCH);
        CachedStream::setup(Rng::new(seed, 3), names, 1, tally)
    }

    pub fn hot(seed: u64, sizes: &Sizes, tally: &mut Tally) -> CachedStream {
        let names = |rng: &mut Rng| hot_stream(rng, HOT_STREAM);
        CachedStream::setup(Rng::new(seed, 4), names, sizes.hot_replays, tally)
    }

    fn setup(
        mut rng: Rng,
        stream: impl FnOnce(&mut Rng) -> Vec<CompoundName>,
        replays: usize,
        tally: &mut Tally,
    ) -> CachedStream {
        let h0 = live_bytes();
        // Lossless, so the world's seed is never drawn from.
        let t = std::time::Instant::now();
        let (star, service) = Star3::build(0, STAR.latency);
        let build_ns = t.elapsed().as_nanos() as u64;
        let cache = CachingResolver::new(ProtocolEngine::new(service));
        let setup_heap = live_bytes() - h0;

        let names = stream(&mut rng);
        let expected = oracle::expected(star.world.state(), star.hub, &names);
        let mut w = CachedStream {
            star,
            cache,
            names,
            expected,
            replays,
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
            cache: self.cache.stats(),
            referral: self.cache.referral_stats(),
            negative: self.cache.negative_stats(),
        }
    }

    /// Share of names answered locally, by the positive or negative cache.
    fn served_from_cache_frac(&self) -> f64 {
        ratio(
            self.counted.served_from_cache as f64,
            self.counted.names as f64,
        )
    }
}

impl Workload for CachedStream {
    fn names_per_rep(&self) -> u64 {
        (self.names.len() * self.replays) as u64
    }

    fn ops_hash(&self) -> u64 {
        ops_hash(self.names.iter())
    }

    fn setup_heap_bytes(&self) -> u64 {
        self.setup_heap
    }

    fn rep(&mut self, probe: &mut Probe, tally: &mut Tally) {
        let (cache, star) = (&mut self.cache, &mut self.star);
        for _ in 0..self.replays {
            for (b, (chunk, truth)) in self
                .names
                .chunks(BATCH)
                .zip(self.expected.chunks(BATCH))
                .enumerate()
            {
                let w0 = probe.wall_ns();
                let out = probe.call("resolver.cache.resolve_batch", b as u32, || {
                    cache.resolve_batch(&mut star.world, star.client, star.hub, chunk)
                });
                self.counted.batch_wall_ns.record(probe.wall_ns() - w0);
                // A cached batch reports no transport verdicts: on this
                // lossless world an `Unreachable` would surface as a false ⊥.
                tally.check_static(truth, &out.entities, &[]);
                self.counted.virt_ticks.record(out.latency.ticks());
                self.counted.served_from_cache +=
                    out.from_cache.iter().filter(|&&c| c).count() as u64;
            }
        }
        self.counted.names += self.names_per_rep();
    }

    fn finish(self: Box<Self>) -> Readings {
        let (now, base, names) = (self.counters(), self.base, self.counted.names);
        let (hits, misses) = (
            now.cache.hits - base.cache.hits,
            now.cache.misses - base.cache.misses,
        );
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
            (
                "e2e.msgs_per_name",
                ratio((now.sent - base.sent) as f64, names as f64),
            ),
            (
                "e2e.wire_bytes_per_name",
                ratio((now.wire_bytes - base.wire_bytes) as f64, names as f64),
            ),
            (
                "resolver.cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            (
                "resolver.cache.evictions_per_kname",
                per_k(now.cache.evictions - base.cache.evictions, names),
            ),
            (
                "resolver.cache.invalidations_per_kname",
                per_k(now.cache.invalidations - base.cache.invalidations, names),
            ),
            (
                "resolver.referral.hit_ratio",
                side_hit_ratio(now.referral, base.referral),
            ),
            (
                "resolver.referral.invalidated_per_kname",
                per_k(now.referral.invalidated - base.referral.invalidated, names),
            ),
            (
                "resolver.referral.negative_hit_ratio",
                side_hit_ratio(now.negative, base.negative),
            ),
            (
                "bench.batch_wall_us_p99",
                self.counted.batch_wall_ns.percentile(0.99) as f64 / 1e3,
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
        let cache = ladder::cache_rung(star, sample, CoherenceMode::Exact, probe);
        let top = cache.blended_ns_per_name(self.served_from_cache_frac());
        out.extend(cache.readings);
        out.push(ladder::unexplained(e2e_ns_per_name, top));
        out
    }
}
