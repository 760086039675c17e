//! Verifies the observability layer's zero-cost claim: the same
//! simulation run under the default `NoProbe` and under a full
//! `Recorder` must produce identical reports (the probe observes, never
//! perturbs), and the `NoProbe` run must not pay for the instrumentation
//! (its median wall clock over five runs, alternating with the probed
//! runs, stays within a tolerance of the probed median — on a shared
//! machine the guard is deliberately loose, but a probe accidentally
//! left in the hot path shows up as a multiple, not a fraction).

use decluster_array::{ArraySim, ReconAlgorithm, ReconOptions};
use decluster_bench::{cli_from_args, print_header};
use decluster_experiments::paper_layout;
use decluster_sim::{Recorder, SimTime};
use decluster_workload::WorkloadSpec;
use std::time::Instant;

fn main() {
    let cli = cli_from_args();
    print_header(
        "Probe overhead check (G = 4, 105 accesses/s rebuild)",
        &cli.scale,
    );

    let limit = SimTime::from_secs(cli.scale.recon_limit_secs);
    let build_plain = || {
        let mut sim = ArraySim::new(
            paper_layout(4).expect("G = 4 is a paper group size"),
            cli.scale.array_config(),
            WorkloadSpec::half_and_half(105.0),
            1,
        )
        .expect("paper layout fits");
        sim.fail_disk(0).expect("disk 0 exists");
        sim.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .expect("a disk failed");
        sim
    };
    let build_probed = || {
        let mut sim = ArraySim::new_probed(
            paper_layout(4).expect("G = 4 is a paper group size"),
            cli.scale.array_config(),
            WorkloadSpec::half_and_half(105.0),
            1,
            Recorder::new(),
        )
        .expect("paper layout fits");
        sim.fail_disk(0).expect("disk 0 exists");
        sim.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .expect("a disk failed");
        sim
    };

    // Warm both paths once, then time RUNS strictly alternating runs of
    // each: one run lasts tens of milliseconds, so a single pair is at
    // the mercy of host noise, while the median of several is not.
    const RUNS: usize = 5;
    let _ = build_plain().run_until_reconstructed(limit);
    let _ = build_probed().run_until_reconstructed(limit);
    let (mut plain_ms, mut probed_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for run in 0..RUNS {
        let start = Instant::now();
        let plain = build_plain().run_until_reconstructed(limit);
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let probed = build_probed().run_until_reconstructed(limit);
        probed_ms.push(start.elapsed().as_secs_f64() * 1e3);
        println!(
            "run {run}: unprobed {:>10.3} ms   probed {:>10.3} ms",
            plain_ms[run], probed_ms[run]
        );
        last = Some((plain, probed));
    }
    let (plain, probed) = last.expect("RUNS > 0");

    // The probe must observe without perturbing: identical simulation
    // results, field for field (observations aside).
    assert_eq!(plain.reconstruction_time, probed.reconstruction_time);
    assert_eq!(plain.ops, probed.ops);
    assert_eq!(plain.events_processed, probed.events_processed);
    assert_eq!(plain.units_swept, probed.units_swept);
    assert!(plain.observations.is_none());
    let obs = probed.observations.expect("Recorder always reports");
    assert!(!obs.timelines.is_empty());

    let (plain_med, probed_med) = (median(&mut plain_ms), median(&mut probed_ms));
    let ratio = plain_med / probed_med.max(1e-9);
    println!(
        "median of {RUNS}: unprobed {plain_med:>10.3} ms   probed {probed_med:>10.3} ms   ratio {ratio:.3}"
    );
    println!("reports identical: reconstruction, ops, events, units");

    // The zero-cost gate: a NoProbe build must not be slower than the
    // instrumented one beyond shared-machine noise.
    if ratio > 1.5 {
        eprintln!("error: NoProbe run is {ratio:.2}x the probed run — instrumentation is leaking into the hot path");
        std::process::exit(1);
    }
    println!("no-regression gate passed (NoProbe/Recorder median wall ratio {ratio:.3} <= 1.5)");
}

/// The median of `xs`.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}
