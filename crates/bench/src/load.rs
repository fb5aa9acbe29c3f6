//! Workload sampling shared by the benchmark's traffic generator
//! (`perfbench/src/traffic.rs`): a deterministic Zipfian sampler for
//! template skew.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipfian sampler over `n` ranks with exponent `s` (rank 0 hottest).
///
/// Precomputes the CDF once; sampling is one uniform draw plus a binary
/// search, fully determined by the caller's RNG.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` with skew `s` (`0.0` = uniform;
    /// `0.99` is the classic YCSB default).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_skew_concentrates_on_head_ranks() {
        let zipf = Zipf::new(50, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        // Head heaviness: rank 0 alone should beat the entire tail half.
        let tail: u64 = counts[25..].iter().sum();
        assert!(counts[0] > tail / 2, "head {} vs tail {}", counts[0], tail);
    }
}
