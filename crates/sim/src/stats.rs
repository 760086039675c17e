//! Statistics accumulators used throughout the simulator.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Streaming mean / standard deviation via Welford's algorithm.
///
/// Used for the per-phase reconstruction-cycle statistics of the paper's
/// Table 8-1 (mean and standard deviation of read- and write-phase times)
/// and anywhere else a running moment is needed without storing samples.
///
/// # Examples
///
/// ```
/// use decluster_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator); zero with fewer than two
    /// samples.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Response-time distribution: mean/std plus percentiles over stored
/// samples, in milliseconds.
///
/// The paper reports average user response time; the OLTP rule of thumb it
/// cites ("90 % of transactions under two seconds") makes the 90th
/// percentile worth tracking too, so samples are retained for quantiles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResponseStats {
    samples_ms: Vec<f64>,
    moments: OnlineStats,
}

impl ResponseStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one response time.
    pub fn record(&mut self, response: SimTime) {
        let ms = response.as_ms_f64();
        self.samples_ms.push(ms);
        self.moments.push(ms);
    }

    /// Number of recorded responses.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Mean response time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.moments.mean()
    }

    /// Maximum response time in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.moments.max()
    }

    /// The `q`-quantile (nearest-rank) in milliseconds, `q` in `[0, 1]`;
    /// zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &ResponseStats) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
        self.moments.merge(&other.moments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn welford_matches_naive() {
        let data = [12.0, 19.5, 3.25, 8.0, 14.125, 2.0, 30.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 30.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &all {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &all[..20] {
            a.push(x);
        }
        for &x in &all[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn response_percentiles() {
        let mut r = ResponseStats::new();
        for ms in 1..=100u64 {
            r.record(SimTime::from_ms(ms));
        }
        assert_eq!(r.count(), 100);
        assert!((r.mean_ms() - 50.5).abs() < 1e-9);
        assert_eq!(r.percentile_ms(0.90), 90.0);
        assert_eq!(r.percentile_ms(0.50), 50.0);
        assert_eq!(r.percentile_ms(1.0), 100.0);
        assert_eq!(r.max_ms(), 100.0);
    }

    #[test]
    fn response_empty_percentile_is_zero() {
        let r = ResponseStats::new();
        assert_eq!(r.percentile_ms(0.9), 0.0);
        assert_eq!(r.mean_ms(), 0.0);
    }

    #[test]
    fn response_merge() {
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        a.record(SimTime::from_ms(10));
        b.record(SimTime::from_ms(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_quantile_panics() {
        ResponseStats::new().percentile_ms(1.5);
    }
}
