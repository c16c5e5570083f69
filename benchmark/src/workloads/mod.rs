//! The five workloads. Each drives one entry point of the system in a
//! closed loop from a single generator thread, with a fixed op count per
//! repetition so that counters repeat exactly per seed.

pub mod authority_scan;
pub mod cached_stream;
pub mod lease_churn;
pub mod referral_cold;

use naming_core::name::CompoundName;
use naming_resolver::referral::ValidatedCacheStats;

use crate::oracle::Tally;
use crate::probe::Probe;
use crate::rng::{scatter, Rng, Zipf};
use crate::worlds::{Star3, STAR_DIRS, STAR_ZONES};

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 5] = [
    "authority_scan",
    "referral_cold",
    "cache_overflow",
    "hot_cache",
    "lease_churn",
];

/// Names per `BatchRequest` frame and per `CachingResolver::resolve_batch`.
pub const BATCH: usize = 64;

/// Metric values a workload contributes, by catalog name.
pub type Readings = Vec<(&'static str, f64)>;

/// Op counts per repetition. Fixed in code, never time-based; a full
/// repetition is sized for roughly 0.3–0.5 s on the reference box (2 shared
/// cores), a smoke repetition for a fraction of that.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// `authority_scan`: waves of [`authority_scan::WAVE_FRAMES`] frames.
    pub authority_waves: usize,
    /// `referral_cold`: waves of [`referral_cold::WAVE_BATCHES`] batches.
    pub referral_waves: usize,
    /// `cache_overflow`: batches of [`BATCH`] names.
    pub overflow_batches: usize,
    /// `hot_cache`: replays of its 2¹⁷-name stream.
    pub hot_replays: usize,
    /// `lease_churn`: rounds of one batch each.
    pub churn_rounds: usize,
    /// Names pushed through each ladder rung.
    pub ladder_names: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        authority_waves: 12,
        referral_waves: 4,
        overflow_batches: 1536,
        hot_replays: 32,
        churn_rounds: 4096,
        ladder_names: 1 << 16,
    };
    pub const SMOKE: Sizes = Sizes {
        authority_waves: 2,
        referral_waves: 1,
        overflow_batches: 192,
        hot_replays: 1,
        churn_rounds: 256,
        ladder_names: 1 << 12,
    };
}

pub trait Workload {
    /// Names resolved by one repetition.
    fn names_per_rep(&self) -> u64;

    /// Hash of the generated op stream.
    fn ops_hash(&self) -> u64;

    /// Heap bytes the system under test holds once it is built — namespace,
    /// service, empty caches — and before the warm-up repetition, so the op
    /// stream and the oracle are excluded and the value does not depend on
    /// which side of a capacity doubling a growing container ends the
    /// warm-up.
    fn setup_heap_bytes(&self) -> u64;

    /// One repetition of the fixed op stream. Every call into the system
    /// goes through `probe`; every answer is checked into `tally`.
    fn rep(&mut self, probe: &mut Probe, tally: &mut Tally);

    /// Ends the run: readings from the system's public stats structs and
    /// from the workload's own counts, covering the repetitions since
    /// set-up finished.
    fn finish(self: Box<Self>) -> Readings;

    /// The layer ladder: a sample of this workload's own op stream pushed
    /// through each entry point in turn. `e2e_ns_per_name` is the untraced
    /// end-to-end cost the top rung is set against.
    fn ladder(&self, seed: u64, sizes: &Sizes, probe: &mut Probe, e2e_ns_per_name: f64)
        -> Readings;
}

/// Builds one workload, warm-up repetition included. `tally` receives the
/// warm-up's answers: they are checked like any others.
pub fn setup(name: &str, seed: u64, sizes: &Sizes, tally: &mut Tally) -> Option<Box<dyn Workload>> {
    Some(match name {
        "authority_scan" => Box::new(authority_scan::AuthorityScan::setup(seed, sizes, tally)),
        "referral_cold" => Box::new(referral_cold::ReferralCold::setup(seed, sizes, tally)),
        "cache_overflow" => Box::new(cached_stream::CachedStream::overflow(seed, sizes, tally)),
        "hot_cache" => Box::new(cached_stream::CachedStream::hot(seed, sizes, tally)),
        "lease_churn" => Box::new(lease_churn::LeaseChurn::setup(seed, sizes, tally)),
        _ => return None,
    })
}

/// Zones × directories of the hot set: 2048 bound names, which fit the
/// default cache capacity of 4096.
pub const HOT_ZONES: usize = STAR_ZONES;
pub const HOT_DIRS: usize = 32;

/// Directories per zone that also have a hot `missing` sibling: 512 unbound
/// names in all. `NegativeCache` holds 1024 entries whatever the positive
/// capacity is, so a `missing` sibling for every hot directory (2048) would
/// thrash it and put `hot_cache` back on the network.
pub const HOT_MISSING_DIRS: usize = 8;

/// One draw from the hot set: Zipf over zones (scattered) and over the
/// first [`HOT_DIRS`] directories of the zone; 1 name in 16 is unbound.
/// Returns `(zone, dir, bound)`.
pub fn draw_hot(rng: &mut Rng, zones: &Zipf, dirs: &Zipf) -> (usize, usize, bool) {
    let z = scatter(zones.draw(rng), HOT_ZONES);
    let d = dirs.draw(rng);
    if rng.below(16) == 0 {
        (z, d % HOT_MISSING_DIRS, false)
    } else {
        (z, d, true)
    }
}

/// A stream of `n` hot-set names.
pub fn hot_stream(rng: &mut Rng, n: usize) -> Vec<CompoundName> {
    let (zones, dirs) = (Zipf::new(HOT_ZONES), Zipf::new(HOT_DIRS));
    (0..n)
        .map(|_| {
            let (z, d, bound) = draw_hot(rng, &zones, &dirs);
            Star3::name(z, d, bound)
        })
        .collect()
}

/// A stream of `n` names uniform over every leaf of the star (~96 K), 1 in
/// 16 unbound.
pub fn uniform_stream(rng: &mut Rng, n: usize) -> Vec<CompoundName> {
    (0..n)
        .map(|_| {
            let (z, d) = (rng.below(STAR_ZONES), rng.below(STAR_DIRS));
            Star3::name(z, d, rng.below(16) != 0)
        })
        .collect()
}

/// Hit ratio of a validated side cache (referral or negative) since `base`.
pub fn side_hit_ratio(now: ValidatedCacheStats, base: ValidatedCacheStats) -> f64 {
    let (hits, misses) = (now.hits - base.hits, now.misses - base.misses);
    ratio(hits as f64, (hits + misses) as f64)
}

/// `part` per thousand `names`; 0 when nothing was resolved.
pub fn per_k(part: u64, names: u64) -> f64 {
    ratio(part as f64 * 1e3, names as f64)
}

/// `num / den`, 0 when `den` is 0 (a metric that was never exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::ops_hash;

    #[test]
    fn same_seed_gives_the_identical_op_stream() {
        let stream = |seed| hot_stream(&mut Rng::new(seed, 4), 512);
        assert_eq!(stream(19930601), stream(19930601));
        assert_ne!(
            ops_hash(stream(19930601).iter()),
            ops_hash(stream(19930602).iter())
        );
        let uni = |seed| uniform_stream(&mut Rng::new(seed, 3), 512);
        assert_eq!(uni(5), uni(5));
        assert_ne!(uni(5), uni(6));
    }
}
