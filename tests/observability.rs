//! Integration tests for the observability layer, driven through the
//! public facade: histogram merge algebra, parallel-sweep report
//! determinism, and the probe's observe-without-perturbing guarantee.

use decluster::array::{ArrayConfig, ArraySim};
use decluster::experiments::{csv, fig6, ExperimentScale, Runner};
use decluster::sim::{LatencyHistogram, Recorder, SimTime};
use decluster::workload::WorkloadSpec;

/// A deterministic latency stream for histogram tests.
fn lcg_samples(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x % modulus
        })
        .collect()
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &us in samples {
        h.record_us(us);
    }
    h
}

/// Sharding a latency stream and merging the shard histograms — in any
/// grouping and any order — must reproduce the single-histogram result
/// byte for byte. This is the algebraic fact the parallel sweep runner
/// leans on.
#[test]
fn sharded_merges_reproduce_the_sequential_histogram_exactly() {
    let samples = lcg_samples(97, 900, 5_000_000);
    let whole = hist_of(&samples);

    let shards: Vec<LatencyHistogram> = samples.chunks(250).map(hist_of).collect();

    // Left fold, right fold, and a reversed-order fold.
    let mut left = LatencyHistogram::new();
    for s in &shards {
        left.merge(s);
    }
    let mut right = LatencyHistogram::new();
    for s in shards.iter().rev() {
        right.merge(s);
    }
    let mut paired = {
        let mut a = shards[0].clone();
        a.merge(&shards[1]);
        let mut b = shards[2].clone();
        b.merge(&shards[3]);
        a.merge(&b);
        a
    };
    paired.merge(&LatencyHistogram::new()); // the empty histogram is the identity

    for merged in [&left, &right, &paired] {
        assert_eq!(merged, &whole);
        assert_eq!(merged.to_json(), whole.to_json());
    }
}

/// Histogram quantiles are nearest-rank reads off log-scaled buckets:
/// within one bucket width of the exact value, monotone in `q`, and
/// bounded by the exact maximum.
#[test]
fn quantiles_are_bucket_accurate_monotone_and_bounded() {
    let mut samples = lcg_samples(3, 1_200, 2_000_000);
    let h = hist_of(&samples);
    samples.sort_unstable();

    let mut prev = 0;
    for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let truth = samples[rank - 1];
        let (lower, upper) = LatencyHistogram::bucket_span_us(truth);
        let got = h.quantile_us(q);
        assert!(
            got.abs_diff(truth) <= upper - lower,
            "q={q}: read {got}, exact {truth}, bucket [{lower},{upper})"
        );
        assert!(got >= prev, "quantiles must be monotone in q");
        assert!(got <= h.max_us() + (upper - lower));
        prev = got;
    }

    let empty = LatencyHistogram::new();
    assert_eq!(empty.quantile_us(0.99), 0);
    assert_eq!(empty.max_us(), 0);
    assert_eq!(empty.mean_ms(), 0.0);
}

/// The same sweep dispatched on one worker and on four must render the
/// same CSV byte for byte: job results come back in submission order and
/// every statistic is integral underneath.
#[test]
fn fig6_sweep_csv_is_byte_identical_across_thread_counts() {
    let scale = ExperimentScale::tiny();
    let rates = [40.0];
    let run = |runner: &Runner| {
        let points = fig6::figure_6_1_on(runner, &scale, &rates)
            .transpose()
            .expect("tiny sweep points all simulate")
            .into_values();
        csv::fig6_csv(&points)
    };
    let sequential = run(&Runner::sequential());
    let parallel = run(&Runner::new(4));
    assert_eq!(sequential, parallel);
}

/// Attaching a recorder must observe the run without perturbing it: the
/// probed report matches the unprobed one in every shared field, and the
/// observations it adds are internally consistent (ordered quantiles,
/// utilizations in [0, 1], a timeline per disk).
#[test]
fn recorder_observes_without_perturbing_the_simulation() {
    let layout = decluster::experiments::paper_layout(4).unwrap();
    let cfg = ArrayConfig::scaled(30);
    let spec = WorkloadSpec::half_and_half(60.0);
    let (duration, warmup) = (SimTime::from_secs(20), SimTime::from_secs(2));

    let plain = ArraySim::new(layout.clone(), cfg, spec, 5)
        .unwrap()
        .run_for(duration, warmup);
    let probed = ArraySim::new_probed(layout, cfg, spec, 5, Recorder::new())
        .unwrap()
        .run_for(duration, warmup);

    assert_eq!(plain.ops, probed.ops);
    assert_eq!(plain.requests_measured, probed.requests_measured);
    assert_eq!(plain.events_processed, probed.events_processed);
    assert!(plain.observations.is_none());

    let obs = probed.observations.expect("recorder yields observations");
    assert_eq!(obs.timelines.len(), 21, "one timeline per disk");
    for timeline in &obs.timelines {
        assert!(!timeline.samples.is_empty());
        for s in &timeline.samples {
            assert!((0.0..=1.0).contains(&s.utilization));
        }
    }

    let p50 = probed.ops.p50_ms();
    let p95 = probed.ops.p95_ms();
    let p99 = probed.ops.p99_ms();
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
    assert!(p99 <= probed.ops.max_ms());
}
