//! The op-stream generator's randomness: SplitMix64 and a Zipf(s=1)
//! sampler. Everything the benchmark feeds the system derives from `--seed`
//! through these, so the same seed gives the same inputs.

/// SplitMix64 — small, seedable, and good enough for workload shaping.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s=1) over `n` ranks, drawn by binary search over cumulative weights.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cum = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        Zipf { cum }
    }

    /// A rank in `0..n`, rank 0 the most popular.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cum[self.cum.len() - 1];
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// Scatters ranks over `0..n` (`n` a power of two) with an odd multiplier,
/// so popular ranks do not cluster in low zone ids.
pub fn scatter(rank: usize, n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    rank.wrapping_mul(0x9E37_79B1) & (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(64);
        let mut rng = Rng::new(1, 1);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[7] && counts[7] > counts[63]);
    }

    #[test]
    fn scatter_is_a_bijection_on_powers_of_two() {
        let mut seen: Vec<usize> = (0..128).map(|r| scatter(r, 128)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..128).collect::<Vec<_>>());
    }
}
