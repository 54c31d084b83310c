//! Raw-sample latency recorder.
//!
//! Every timed op contributes one nanosecond sample; percentiles are
//! read from the sorted samples, never from a bucketed histogram, so a
//! reported value is a latency some op really had (`loadgen`'s
//! `p50=1048us` is the upper bound of a log2 bucket — see the test at
//! the bottom).

/// Percentiles the report tries, lowest first.
const LADDER: [f64; 6] = [0.50, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// A percentile needs this many samples beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Sorted nanosecond samples of one op class.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Sort `ns` into a sample set.
    pub fn new(mut ns: Vec<u64>) -> Samples {
        ns.sort_unstable();
        Samples { ns }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// No samples?
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// 1-based nearest rank of quantile `q`: the smallest rank with at
    /// least `q` of the samples at or below it.
    fn rank(&self, q: f64) -> usize {
        ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len())
    }

    /// The sample at quantile `q`, in nanoseconds (`None` when empty).
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.ns.is_empty() {
            return None;
        }
        Some(self.ns[self.rank(q) - 1])
    }

    /// The sample at quantile `q`, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns as f64 / 1e6)
    }

    /// Quantile `q` only when at least ten samples lie beyond it — so
    /// p95 needs 200 samples and p99 needs 1000.
    pub fn supported_ms(&self, q: f64) -> Option<f64> {
        if self.ns.is_empty() || self.ns.len() - self.rank(q) < MIN_BEYOND {
            return None;
        }
        self.quantile_ms(q)
    }

    /// The highest percentile of the ladder with at least ten samples
    /// beyond it: `(quantile, rank, milliseconds)`.
    pub fn pmax(&self) -> Option<(f64, usize, f64)> {
        LADDER
            .iter()
            .rev()
            .find_map(|&q| self.supported_ms(q).map(|ms| (q, self.rank(q), ms)))
    }

    /// One line for the human-readable report.
    pub fn summary(&self, label: &str) -> String {
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |ms| format!("{ms:.4}"));
        let pmax = self.pmax().map_or("n/a".to_string(), |(q, rank, ms)| {
            format!("p{}={ms:.4} (rank {rank})", q * 100.0)
        });
        format!(
            "{label}: n={} p50_ms={} p95_ms={} pmax_ms: {pmax}",
            self.len(),
            fmt(self.quantile_ms(0.50)),
            fmt(self.supported_ms(0.95)),
        )
    }
}

/// Median of unsorted values (the mean of the two middle ones for an
/// even count); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the driver computes spreads
/// with. `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_samples_by_nearest_rank() {
        let s = Samples::new((1..=100).rev().map(|v| v * 1000).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile_ns(0.50), Some(50_000));
        assert_eq!(s.quantile_ns(0.95), Some(95_000));
        assert_eq!(s.quantile_ns(1.0), Some(100_000));
        assert_eq!(s.quantile_ns(0.0), Some(1_000));
        assert_eq!(Samples::default().quantile_ns(0.5), None);
    }

    #[test]
    fn p95_is_suppressed_under_200_samples() {
        let s = Samples::new((0..199).collect());
        assert!(s.supported_ms(0.95).is_none());
        assert!(s.supported_ms(0.90).is_some());
        let s = Samples::new((0..200).collect());
        assert_eq!(s.supported_ms(0.95), Some(189.0 / 1e6));
    }

    #[test]
    fn pmax_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990, ten beyond; p99.9 has none.
        let s = Samples::new((0..1000).collect());
        let (q, rank, _) = s.pmax().unwrap();
        assert_eq!((q, rank), (0.99, 990));
        // 150 samples: p90 has rank 135, fifteen beyond; p95 has seven.
        let (q, rank, _) = Samples::new((0..150).collect()).pmax().unwrap();
        assert_eq!((q, rank), (0.90, 135));
        // Under 20 samples not even the median qualifies.
        assert!(Samples::new((0..19).collect()).pmax().is_none());
    }

    #[test]
    fn log2_histogram_answer_differs_from_the_exact_one() {
        // 1000 ops of 700us..899us: the exact median is 799.x us; the
        // mct-obs histogram can only say "at most the bucket bound".
        let ns: Vec<u64> = (0..1000u64).map(|i| 700_000 + i * 200).collect();
        let h = mct_obs::Histogram::new();
        for &v in &ns {
            h.record(v);
        }
        let bucketed = h.snapshot().quantile_upper_bound(0.50);
        let exact = Samples::new(ns).quantile_ns(0.50).unwrap();
        assert_eq!(exact, 799_800);
        assert_ne!(bucketed, exact);
        // The bucketed answer is a power-of-two bound (what `loadgen`
        // prints as p50=1048us), off by a quarter here.
        assert_eq!(bucketed, (1 << 20) - 1);
        assert!(bucketed.abs_diff(exact) * 4 > exact);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
