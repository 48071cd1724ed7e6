//! Exact sample statistics and the seeded generator that picks workload
//! inputs.

use augem::obs::hash::splitmix64;

/// Quantile `q` of `samples`, computed exactly from the sorted samples by
/// linear interpolation between the two closest ranks (no histogram
/// buckets). `NaN` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, reading 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The workload generator: splitmix64 over a counter, so one seed always
/// yields the same request stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        Rng(augem::obs::hash::mix_str(splitmix64(seed), stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A dyadic value in `[-2, 2]` (a multiple of 1/8), so sums of
    /// products of such values are exact in `f64` in any order.
    pub fn dyadic(&mut self) -> f64 {
        (self.below(33) as f64 - 16.0) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn one_seed_one_stream() {
        let (mut a, mut b) = (Rng::new(7, "cold"), Rng::new(7, "cold"));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(
            Rng::new(7, "cold").next_u64(),
            Rng::new(8, "cold").next_u64()
        );
    }
}
