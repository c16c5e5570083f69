//! `lease_churn` — writes beside reads, through the lease plane.
//!
//! The same cache layer as `hot_cache`, used differently: a lease-mode
//! `CachingResolver` serves rounds of 64 hot-set names while bindings are
//! republished underneath it. Every round is paced 10 ticks; every 4th
//! round one hot leaf is rebound to a fresh object through
//! `ProtocolEngine::publish_binding`; every 16th round the replica pulls
//! zone deltas with `CachingResolver::sync`. The shape — bindings being
//! republished continuously while clients keep resolving — is the regime of
//! the non-anchored ad-hoc naming paper (PAPERS.md), where lease expiry,
//! zone-serial invalidation, refetch and anti-entropy all bite. A read-path
//! gain on `hot_cache` that is paid for on publish, invalidation or sync
//! shows here.

use naming_core::entity::Entity;
use naming_core::name::{CompoundName, Name};
use naming_core::resolve::Resolver;
use naming_resolver::cache::{CacheStats, CachingResolver, DEFAULT_CACHE_CAPACITY};
use naming_resolver::coherence::{CoherenceMode, LeaseCacheStats};
use naming_resolver::engine::ProtocolEngine;
use naming_resolver::referral::ValidatedCacheStats;

use super::{
    draw_hot, per_k, ratio, side_hit_ratio, Readings, Sizes, Workload, BATCH, HOT_DIRS, HOT_ZONES,
};
use crate::alloc::live_bytes;
use crate::ladder::{self, StarConfig};
use crate::oracle::{classify, LeaseWindow, Tally};
use crate::probe::Probe;
use crate::rng::{Rng, Zipf};
use crate::stats::Hist;
use crate::worlds::{ops_hash, Star3, FLAT_LATENCY};

/// Lease duration in ticks. Tuned once on the star so that the lease hit
/// ratio sits inside 0.5–0.9 with both expiry and serial drops at work,
/// then frozen.
pub const TTL: u64 = 20_000;
/// Virtual ticks between rounds: cache hits cost no virtual time, so
/// without pacing a warm round is instantaneous and no lease ever lapses.
const PACE: u64 = 10;
const PUBLISH_EVERY: u64 = 4;
const SYNC_EVERY: u64 = 16;
/// Superseded values remembered per hot leaf — far more than one TTL holds.
const HISTORY: usize = 4;
/// `slots` entry of a name that is unbound by construction.
const UNBOUND: u32 = u32::MAX;

const STAR: StarConfig = StarConfig {
    latency: Some(FLAT_LATENCY),
    drop_rate: 0.0,
    retry: None,
    batch: BATCH,
};

pub struct LeaseChurn {
    star: Star3,
    cache: CachingResolver,
    names: Vec<CompoundName>,
    /// Per stream name: its hot leaf (`zone * HOT_DIRS + dir`), or [`UNBOUND`].
    slots: Vec<u32>,
    /// Per hot leaf: the values it was bound to before, and when each was
    /// replaced — what a lease may legitimately still serve.
    history: Vec<[(Entity, u64); HISTORY]>,
    publish_rng: Rng,
    /// Rounds run since set-up began; the publish, sync and authority
    /// rotation schedules continue across repetitions.
    round: u64,
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
    publishes: u64,
    publish_ns: Hist,
    publish_total_ns: u64,
    syncs: u64,
    sync_ns: Hist,
    sync_total_ns: u64,
    sync_bytes: u64,
    shards_full: u64,
    shards_incremental: u64,
    entries_dropped: u64,
}

/// World and cache counters as they stood when set-up finished.
#[derive(Clone, Copy, Default)]
struct Base {
    sent: u64,
    wire_bytes: u64,
    cache: CacheStats,
    lease: LeaseCacheStats,
    referral: ValidatedCacheStats,
    negative: ValidatedCacheStats,
}

impl LeaseChurn {
    pub fn setup(seed: u64, sizes: &Sizes, tally: &mut Tally) -> LeaseChurn {
        let h0 = live_bytes();
        // Lossless, so the world's seed is never drawn from.
        let t = std::time::Instant::now();
        let (mut star, service) = Star3::build(0, STAR.latency);
        let build_ns = t.elapsed().as_nanos() as u64;
        let mut cache = CachingResolver::with_mode(
            ProtocolEngine::new(service),
            DEFAULT_CACHE_CAPACITY,
            CoherenceMode::Lease { ttl: Some(TTL) },
        );
        // Replica bootstrap: the first pull starts from serial zero and is
        // answered with a full transfer of every zone. It belongs to set-up.
        let bootstrap = cache.sync(&mut star.world, star.client, star.machines[0]);
        assert!(bootstrap.is_some(), "a lossless bootstrap pull completes");
        let setup_heap = live_bytes() - h0;

        let mut rng = Rng::new(seed, 5);
        let (zones, dirs) = (Zipf::new(HOT_ZONES), Zipf::new(HOT_DIRS));
        let n = sizes.churn_rounds * BATCH;
        let (mut names, mut slots) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (z, d, bound) = draw_hot(&mut rng, &zones, &dirs);
            names.push(Star3::name(z, d, bound));
            slots.push(if bound {
                (z * HOT_DIRS + d) as u32
            } else {
                UNBOUND
            });
        }
        let mut w = LeaseChurn {
            star,
            cache,
            names,
            slots,
            history: vec![[(Entity::Undefined, 0); HISTORY]; HOT_ZONES * HOT_DIRS],
            publish_rng: Rng::new(seed, 6),
            round: 0,
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
            lease: self.cache.lease_stats(),
            referral: self.cache.referral_stats(),
            negative: self.cache.negative_stats(),
        }
    }

    /// Rebinds one uniformly drawn hot leaf to a fresh object through the
    /// journaled publication path.
    fn publish(&mut self, probe: &mut Probe, tally: &mut Tally) {
        let (z, d) = (
            self.publish_rng.below(HOT_ZONES),
            self.publish_rng.below(HOT_DIRS),
        );
        let dir = self.star.dirs[z][d];
        let leaf = Name::new("f0");
        let world = &mut self.star.world;
        let fresh = world.state_mut().add_data_object_in(z + 1, "w", vec![]);
        let old = world.state().lookup(dir, leaf);
        let now = world.now().ticks();
        let engine = self.cache.engine_mut();
        let w0 = probe.wall_ns();
        let serial = probe.call("resolver.engine.publish_binding", self.round as u32, || {
            engine.publish_binding(world, dir, leaf, Some(Entity::Object(fresh)))
        });
        let wall = probe.wall_ns() - w0;
        self.counted.publish_ns.record(wall);
        self.counted.publish_total_ns += wall;
        self.counted.publishes += 1;
        if serial.is_none() {
            tally.refuse(1);
        }
        let past = &mut self.history[z * HOT_DIRS + d];
        past.rotate_right(1);
        past[0] = (old, now);
    }

    /// One anti-entropy pull. Any server answers for every zone, so one
    /// pull per sync round suffices; the authority asked rotates so that
    /// every machine's server is exercised in turn.
    fn sync(&mut self, probe: &mut Probe, tally: &mut Tally) {
        let turn = (self.round / SYNC_EVERY) as usize;
        let machine = self.star.machines[turn % self.star.machines.len()];
        let (cache, star) = (&mut self.cache, &mut self.star);
        let w0 = probe.wall_ns();
        let report = probe.call("resolver.cache.sync", self.round as u32, || {
            cache.sync(&mut star.world, star.client, machine)
        });
        let wall = probe.wall_ns() - w0;
        self.counted.sync_ns.record(wall);
        self.counted.sync_total_ns += wall;
        self.counted.syncs += 1;
        match report {
            Some(r) => {
                self.counted.sync_bytes += r.bytes;
                self.counted.shards_full += r.shards_full as u64;
                self.counted.shards_incremental += r.shards_incremental as u64;
                self.counted.entries_dropped += r.entries_dropped;
            }
            // Lossless: a pull that does not complete is a failure.
            None => tally.refuse(1),
        }
    }

    fn served_from_cache_frac(&self) -> f64 {
        ratio(
            self.counted.served_from_cache as f64,
            self.counted.names as f64,
        )
    }
}

impl Workload for LeaseChurn {
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
        let oracle = Resolver::new();
        for lo in (0..self.names.len()).step_by(BATCH) {
            let (cache, star) = (&mut self.cache, &mut self.star);
            let chunk = &self.names[lo..lo + BATCH];
            let w0 = probe.wall_ns();
            let out = probe.call("resolver.cache.resolve_batch", self.round as u32, || {
                cache.resolve_batch(&mut star.world, star.client, star.hub, chunk)
            });
            self.counted.batch_wall_ns.record(probe.wall_ns() - w0);
            self.counted.virt_ticks.record(out.latency.ticks());
            self.counted.served_from_cache += out.from_cache.iter().filter(|&&c| c).count() as u64;

            // Truth at answer time, outside the timed call.
            let now = star.world.now().ticks();
            for (i, name) in chunk.iter().enumerate() {
                let truth = oracle.resolve_entity(star.world.state(), star.hub, name);
                let got = out.entities.get(i).copied().unwrap_or(Entity::Undefined);
                let window =
                    self.slots
                        .get(lo + i)
                        .filter(|&&s| s != UNBOUND)
                        .map(|&s| LeaseWindow {
                            now,
                            ttl: TTL,
                            superseded: &self.history[s as usize],
                        });
                tally.record(classify(got, false, truth, window.as_ref()));
            }

            self.round += 1;
            if self.round.is_multiple_of(PUBLISH_EVERY) {
                self.publish(probe, tally);
            }
            self.star.pace(PACE);
            if self.round.is_multiple_of(SYNC_EVERY) {
                self.sync(probe, tally);
            }
        }
        self.counted.names += self.names.len() as u64;
    }

    fn finish(self: Box<Self>) -> Readings {
        let (now, base, c) = (self.counters(), self.base, &self.counted);
        let lease_hits = now.lease.hits - base.lease.hits;
        let lease_misses = now.lease.misses - base.lease.misses;
        vec![
            (
                "e2e.publish_us_p50",
                c.publish_ns.percentile(0.5) as f64 / 1e3,
            ),
            (
                "core.state.build_ns_per_context",
                self.build_ns as f64 / Star3::contexts() as f64,
            ),
            ("e2e.virt_ticks_p50", c.virt_ticks.percentile(0.5) as f64),
            ("e2e.virt_ticks_p99", c.virt_ticks.percentile(0.99) as f64),
            (
                "e2e.msgs_per_name",
                ratio((now.sent - base.sent) as f64, c.names as f64),
            ),
            (
                "e2e.wire_bytes_per_name",
                ratio((now.wire_bytes - base.wire_bytes) as f64, c.names as f64),
            ),
            (
                "e2e.sync_bytes_per_publish",
                ratio(c.sync_bytes as f64, c.publishes as f64),
            ),
            (
                "resolver.cache.hit_ratio",
                ratio(lease_hits as f64, (lease_hits + lease_misses) as f64),
            ),
            (
                "resolver.cache.evictions_per_kname",
                per_k(now.cache.evictions - base.cache.evictions, c.names),
            ),
            (
                "resolver.cache.invalidations_per_kname",
                per_k(now.cache.invalidations - base.cache.invalidations, c.names),
            ),
            (
                "resolver.referral.hit_ratio",
                side_hit_ratio(now.referral, base.referral),
            ),
            (
                "resolver.referral.invalidated_per_kname",
                per_k(
                    now.referral.invalidated - base.referral.invalidated,
                    c.names,
                ),
            ),
            (
                "resolver.referral.negative_hit_ratio",
                side_hit_ratio(now.negative, base.negative),
            ),
            (
                "resolver.coherence.lease_hit_ratio",
                ratio(lease_hits as f64, (lease_hits + lease_misses) as f64),
            ),
            (
                "resolver.coherence.expired_per_kname",
                per_k(now.lease.expired - base.lease.expired, c.names),
            ),
            (
                "resolver.coherence.serial_dropped_per_kname",
                per_k(
                    now.lease.serial_dropped - base.lease.serial_dropped,
                    c.names,
                ),
            ),
            (
                "resolver.coherence.sync_us_p50",
                c.sync_ns.percentile(0.5) as f64 / 1e3,
            ),
            (
                "resolver.coherence.sync_bytes_per_sync",
                ratio(c.sync_bytes as f64, c.syncs as f64),
            ),
            (
                "resolver.coherence.full_transfer_ratio",
                ratio(
                    c.shards_full as f64,
                    (c.shards_full + c.shards_incremental) as f64,
                ),
            ),
            (
                "resolver.coherence.entries_dropped_per_sync",
                ratio(c.entries_dropped as f64, c.syncs as f64),
            ),
            (
                "bench.batch_wall_us_p99",
                c.batch_wall_ns.percentile(0.99) as f64 / 1e3,
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
        // No expiry on the rung: the cold pass alone outlasts one TTL of
        // virtual time, and the warm pass must be all hits.
        let cache = ladder::cache_rung(star, sample, CoherenceMode::Lease { ttl: None }, probe);
        let local = self.served_from_cache_frac();
        let writes = ratio(
            (self.counted.publish_total_ns + self.counted.sync_total_ns) as f64,
            self.counted.names as f64,
        );
        let top = cache.blended_ns_per_name(local) + writes;
        out.extend(cache.readings);
        out.push(ladder::unexplained(e2e_ns_per_name, top));
        out
    }
}
