//! Exact order statistics over stored per-request samples.
//!
//! Every timing the benchmark reports is taken from the full sample, not
//! from a bucketed histogram: a log-linear histogram's bucket error alone
//! would use up most of a 10% regression bound. A tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs at least 1000 samples.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of an ascending slice: the smallest
/// sample with at least `q·n` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q`-quantile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q`-quantile, only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    if beyond(sorted.len(), q) >= MIN_BEYOND {
        quantile(sorted, q)
    } else {
        None
    }
}

/// The highest quantile of `n` samples that still leaves
/// [`MIN_BEYOND`] samples beyond it, capped at 0.99. `None` below
/// `MIN_BEYOND + 1` samples.
pub fn supported_tail_q(n: usize) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    Some(((n - MIN_BEYOND) as f64 / n as f64).min(0.99))
}

/// Median, p99 (when supported), mean and count of one sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (0 when empty).
    pub p50: u64,
    /// The 99th percentile, when at least ten samples lie beyond it.
    pub p99: Option<u64>,
    /// The highest percentile the sample supports (see
    /// [`supported_tail_q`]): equal to `p99` from 1000 samples on.
    pub tail: Option<u64>,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (any order; sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return Summary::default();
        }
        let sum: u128 = samples.iter().map(|&v| v as u128).sum();
        Summary {
            n,
            p50: quantile(samples, 0.5).expect("non-empty"),
            p99: tail(samples, 0.99),
            tail: supported_tail_q(n).and_then(|q| quantile(samples, q)),
            mean: sum as f64 / n as f64,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        // No interpolation and no bucketing: the value is a sample.
        let w = [3, 1_000_003, 7];
        let mut s = w.to_vec();
        s.sort_unstable();
        assert_eq!(quantile(&s, 0.9), Some(1_000_003));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&short, 0.99), None);
        let long: Vec<u64> = (0..1000).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&long, 0.99), Some(989));
        let mut s = long.clone();
        let sum = Summary::of(&mut s);
        assert_eq!(
            (sum.n, sum.p50, sum.p99, sum.tail),
            (1000, 499, Some(989), Some(989))
        );
        let mut few: Vec<u64> = (0..40).rev().collect();
        let sum = Summary::of(&mut few);
        assert_eq!(sum.p99, None);
        // 40 samples support the 75th percentile: ten lie beyond it.
        assert_eq!(sum.tail, Some(29));
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(Summary::of(&mut []).n, 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
