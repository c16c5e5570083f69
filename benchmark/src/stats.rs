//! Order statistics: medians, nearest-rank percentiles, and quartiles
//! computed exactly as Python's `statistics.quantiles(values, n=4)` does,
//! so `--check` and an outside reader judge spreads by the same rule.

/// Sorts ascending; NaN never occurs in measured values.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are not NaN"));
    v
}

/// Median; 0 for an empty slice (a metric that was never sampled).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` by the exclusive method of `statistics.quantiles(n=4)`;
/// both equal the single value when fewer than two are given.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Values below this get a bucket each, so small counts (virtual ticks)
/// keep exact percentiles.
const EXACT: u64 = 1 << 13;
/// Sub-buckets per power of two above [`EXACT`]: under 1 % quantisation.
const SUB_BITS: u32 = 7;

/// A fixed-size histogram of `u64` samples, allocated once at set-up so
/// that recording a sample never allocates — the harness's own bookkeeping
/// must not show up in `heap_growth_bytes_per_name`.
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        let octaves = (64 - EXACT.trailing_zeros()) as usize;
        Hist {
            buckets: vec![0; EXACT as usize + (octaves << SUB_BITS)],
            count: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        EXACT as usize + (((e - EXACT.trailing_zeros()) as usize) << SUB_BITS) + sub as usize
    }

    /// The largest value that lands in bucket `i`.
    fn upper(i: usize) -> u64 {
        if i < EXACT as usize {
            return i as u64;
        }
        let k = i - EXACT as usize;
        let e = EXACT.trailing_zeros() + (k >> SUB_BITS) as u32;
        let sub = (k & ((1 << SUB_BITS) - 1)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        ((1u64 << e) + sub * width).saturating_add(width - 1)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Hist::index(v)] += 1;
        self.count += 1;
    }

    /// Nearest-rank percentile (`q` in `0..=1`): exact below 8192, the
    /// bucket's upper bound (< 1 % high) above; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Hist::upper(i);
            }
        }
        unreachable!("count equals the sum of the buckets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_is_exact_for_small_values_and_tight_for_large_ones() {
        let mut h = Hist::default();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(
            (h.percentile(0.50), h.percentile(0.99), h.percentile(1.0)),
            (50, 99, 100)
        );
        let mut big = Hist::default();
        for v in [10_000u64, 1_000_000, 123_456_789, u64::MAX] {
            big.record(v);
            let got = Hist::upper(Hist::index(v));
            assert!(
                got >= v && (got - v) as f64 <= v as f64 / 100.0,
                "{v} -> {got}"
            );
        }
        assert_eq!(Hist::upper(Hist::index(EXACT - 1)), EXACT - 1);
        assert_eq!(Hist::index(EXACT), EXACT as usize);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 32.0)
        );
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }
}
