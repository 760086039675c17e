//! Reproducibility: a simulation is a pure function of configuration and
//! seed, and seeds actually matter.

use decluster::array::{
    ArrayConfig, ArraySim, CrashPlan, ReconAlgorithm, ReconOptions, ScrubConfig,
};
use decluster::disk::MediaFaultConfig;
use decluster::experiments::paper_layout;
use decluster::sim::SimTime;
use decluster::workload::WorkloadSpec;

fn cfg() -> ArrayConfig {
    ArrayConfig::scaled(30)
}

#[test]
fn steady_state_runs_are_bit_identical() {
    let run = || {
        ArraySim::new(
            paper_layout(4).unwrap(),
            cfg(),
            WorkloadSpec::half_and_half(60.0),
            7,
        )
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn reconstruction_runs_are_bit_identical() {
    let run = || {
        let mut s = ArraySim::new(
            paper_layout(4).unwrap(),
            cfg(),
            WorkloadSpec::half_and_half(60.0),
            7,
        )
        .unwrap();
        s.fail_disk(5).expect("disk is healthy and in range");
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::RedirectPiggyback).processes(4))
            .expect("a disk failed and processes > 0");
        s.run_until_reconstructed(SimTime::from_secs(50_000))
    };
    let a = run();
    let b = run();
    assert_eq!(a.reconstruction_time, b.reconstruction_time);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.units_swept, b.units_swept);
    assert_eq!(a.units_by_users, b.units_by_users);
}

#[test]
fn different_seed_streams_differ() {
    let run = |stream| {
        ArraySim::new(
            paper_layout(4).unwrap(),
            cfg(),
            WorkloadSpec::half_and_half(60.0),
            stream,
        )
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2))
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.ops.all, b.ops.all,
        "different seed streams produced identical response distributions"
    );
}

#[test]
fn results_are_stable_across_seeds_in_aggregate() {
    // Different seeds change individual samples but the mean response time
    // of a long-enough run stays in a narrow band — the statistic the
    // figures report is robust.
    let mean = |stream| {
        ArraySim::new(
            paper_layout(4).unwrap(),
            cfg(),
            WorkloadSpec::all_reads(60.0),
            stream,
        )
        .unwrap()
        .run_for(SimTime::from_secs(30), SimTime::from_secs(3))
        .ops
        .all
        .mean_ms()
    };
    let samples: Vec<f64> = (1..=4).map(mean).collect();
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.25,
        "seed-to-seed spread too wide: {samples:?}"
    );
}

/// Pins the simulator's exact results, so a refactor of the event loop or
/// the op bookkeeping that changes any decision shows up as a changed
/// number here, not only as a run-to-run difference. The constants were
/// recorded before the simulator was split into `sim/{faults,recon,scrub}`
/// and must not move unless a change means to alter simulated behaviour.
#[test]
fn simulator_results_are_pinned() {
    let recon = |algorithm| {
        let mut s = ArraySim::new(
            paper_layout(4).unwrap(),
            cfg(),
            WorkloadSpec::half_and_half(60.0),
            7,
        )
        .unwrap();
        s.fail_disk(5).expect("disk is healthy and in range");
        s.start_reconstruction(ReconOptions::new(algorithm).processes(4))
            .expect("a disk failed and processes > 0");
        let r = s.run_until_reconstructed(SimTime::from_secs(50_000));
        (
            r.events_processed,
            r.reconstruction_time.map(SimTime::as_us),
            r.units_swept,
            r.units_by_users,
        )
    };
    // (events, reconstruction µs, swept, by users), in `ReconAlgorithm::ALL`
    // order: Baseline, UserWrites, Redirect, RedirectPiggyback.
    let expected = [
        (15434, Some(25_322_325), 2520, 0),
        (15351, Some(25_282_942), 2495, 25),
        (15378, Some(25_602_642), 2495, 25),
        (15444, Some(26_242_042), 2475, 45),
    ];
    for (&algorithm, want) in ReconAlgorithm::ALL.iter().zip(expected) {
        assert_eq!(recon(algorithm), want, "{algorithm:?}");
    }

    // A power cut mid-rebuild with the patrol scrubber on and latent
    // defects seeded: the cut classifies user, sweep, piggyback and scrub
    // ops in flight.
    let cfg = ArrayConfig::builder()
        .cylinders(30)
        .media_faults(MediaFaultConfig::none().with_latent_rate(2e-4))
        .scrub(ScrubConfig::on().with_interval_us(500))
        .build();
    let mut s = ArraySim::new(
        paper_layout(4).unwrap(),
        cfg,
        WorkloadSpec::half_and_half(60.0),
        7,
    )
    .unwrap();
    s.fail_disk(5).unwrap();
    s.inject_crash(&CrashPlan::at(SimTime::from_secs(7)))
        .unwrap();
    s.start_reconstruction(ReconOptions::new(ReconAlgorithm::RedirectPiggyback).processes(4))
        .unwrap();
    let report = s.run_until_reconstructed(SimTime::from_secs(50_000));
    let crash = report.crash.expect("planned crash must fire");
    assert_eq!(
        (crash.torn_stripes.len(), crash.dirty_stripes.len()),
        (2, 7)
    );
    assert_eq!(report.scrub.expect("scrub on").stripes_scanned, 29);
}
