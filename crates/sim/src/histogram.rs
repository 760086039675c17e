//! Fixed-bucket log-scaled latency histograms.
//!
//! [`LatencyHistogram`] buckets integer microsecond latencies into a
//! fixed table of log-spaced bins (eight sub-buckets per power of two,
//! so every bucket is at most 12.5 % wide). All state is integral, which
//! makes [`merge`](LatencyHistogram::merge) exactly associative and
//! commutative: parallel sweep shards can be combined in any grouping
//! and produce byte-identical reports.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Sub-buckets per power-of-two octave (3 significant bits).
const SUB_BUCKETS: u64 = 8;
/// Bucket count covering the full `u64` microsecond range.
const NUM_BUCKETS: usize = 496;

/// A log-scaled latency histogram over integer microseconds.
///
/// Buckets have at most 12.5 % relative width, so any quantile read off
/// the histogram is within one bucket width of the exact value. The
/// exact maximum and sum are tracked alongside the buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u128,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

/// Index of the bucket holding `us`.
fn bucket_index(us: u64) -> usize {
    if us < 2 * SUB_BUCKETS {
        return us as usize;
    }
    let exp = 63 - u64::from(us.leading_zeros());
    let sub = (us >> (exp - 3)) & (SUB_BUCKETS - 1);
    ((exp - 3) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
}

/// Inclusive lower bound of bucket `index`, µs.
fn bucket_lower(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        return index;
    }
    let exp = index / SUB_BUCKETS + 2;
    let sub = index % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (exp - 3)
}

/// Width of bucket `index`, µs (at least 1).
fn bucket_width(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        return 1;
    }
    1 << (index / SUB_BUCKETS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: SimTime) {
        self.record_us(latency.as_us());
    }

    /// Records one latency observation given in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us += u128::from(us);
        self.max_us = self.max_us.max(us);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum latency observed, µs (0 when empty).
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Exact maximum latency observed, ms (0 when empty).
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1_000.0
    }

    /// Exact mean latency, ms (0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64 / 1_000.0
    }

    /// Nearest-rank quantile read off the buckets, µs.
    ///
    /// Returns the midpoint of the bucket holding the ranked
    /// observation, so the error is at most one bucket width (≤ 12.5 %
    /// of the value). Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q <= 1`.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i) + bucket_width(i) / 2;
            }
        }
        self.max_us
    }

    /// Folds `other` into `self`. Exactly associative and commutative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The half-open `[lower, upper)` span, in µs, of the bucket that
    /// holds `us`. Exposed so tests can bound quantile error.
    #[must_use]
    pub fn bucket_span_us(us: u64) -> (u64, u64) {
        let i = bucket_index(us);
        let lower = bucket_lower(i);
        (lower, lower.saturating_add(bucket_width(i)))
    }

    /// Non-empty buckets as `(lower_us, upper_us, count)` triples in
    /// ascending latency order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lower = bucket_lower(i);
                (lower, lower.saturating_add(bucket_width(i)), c)
            })
    }

    /// Compact deterministic JSON: exact count/sum/max plus the
    /// non-empty buckets as `[lower_us, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .map(|(lower, _, c)| format!("[{lower},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum_us,
            self.max_us,
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_axis() {
        // Every value maps to a bucket whose span contains it, and
        // bucket lower bounds are non-decreasing with the value.
        let mut prev_lower = 0;
        for shift in 0..60 {
            for base in [1u64, 3, 9, 13] {
                let us = base << shift;
                let (lower, upper) = LatencyHistogram::bucket_span_us(us);
                assert!(lower <= us && us < upper, "{us} outside [{lower},{upper})");
                assert!(lower >= prev_lower || lower <= us);
                prev_lower = prev_lower.max(lower);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for us in 0..16 {
            h.record_us(us);
        }
        for us in 0..16 {
            let (lower, upper) = LatencyHistogram::bucket_span_us(us);
            assert_eq!((lower, upper), (us, us + 1));
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max_us(), 15);
    }

    #[test]
    fn quantile_within_one_bucket() {
        let mut h = LatencyHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..1_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let us = x % 2_000_000;
            h.record_us(us);
            exact.push(us);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let (lower, upper) = LatencyHistogram::bucket_span_us(truth);
            let got = h.quantile_us(q);
            let width = upper - lower;
            assert!(
                got.abs_diff(truth) <= width,
                "q={q}: got {got}, exact {truth}, bucket width {width}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut parts: Vec<LatencyHistogram> = Vec::new();
        let mut x = 42u64;
        for _ in 0..3 {
            let mut h = LatencyHistogram::new();
            for _ in 0..100 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                h.record_us(x % 10_000_000);
            }
            parts.push(h);
        }
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        // (a + b) + c
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        // a + (b + c), folded in reverse order
        let mut bc = c.clone();
        bc.merge(b);
        let mut right = bc;
        right.merge(a);
        assert_eq!(left, right);
        assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
        let mut merged = h.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, h);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_quantile_panics() {
        let _ = LatencyHistogram::new().quantile_us(0.0);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        h.record_us(0);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.quantile_us(0.01), 0);
        assert!(h.quantile_us(1.0) > u64::MAX / 2);
    }
}
