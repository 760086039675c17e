//! Exact order statistics over raw samples.

/// The nearest-rank `q`-quantile of an ascending slice: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: the noise floor written next to a metric
/// that is the median of several windows.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        // The textbook example: p30 of five values is the second.
        let s = [15u32, 20, 35, 40, 50];
        assert_eq!(quantile(&s, 0.30), 20);
        assert_eq!(quantile(&s, 0.40), 20);
        assert_eq!(quantile(&s, 0.41), 35);
        assert_eq!(quantile(&s, 0.5), 35);
        assert_eq!(quantile(&[7u32], 0.99), 7);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
