//! Ablations of the design choices DESIGN.md calls out: reconstruction
//! throttling (the paper's future-work knob), the FCFS-vs-CVSCAN
//! scheduler and user-priority effects on reconstruction, dedicated
//! against distributed sparing, and the head-scheduler comparison
//! (FCFS/SSTF/CVSCAN/SCAN) that justifies the paper's CVSCAN choice.
//!
//! Fixed configurations (21 disks, G = 4, 30- and 40-cylinder disks,
//! seeds 1 and 7); the simulator is deterministic, so every line is
//! reproducible exactly.

use decluster_array::{ArrayConfig, ArraySim, ReconAlgorithm, ReconOptions};
use decluster_core::layout::{LayoutSpec, ParityLayout};
use decluster_disk::{Disk, DiskRequest, Geometry, IoKind, SchedPolicy};
use decluster_sim::{SimRng, SimTime};
use decluster_workload::WorkloadSpec;
use std::sync::Arc;

fn layout() -> Arc<dyn ParityLayout> {
    "bibd:c21g4"
        .parse::<LayoutSpec>()
        .expect("a catalog spec")
        .build()
        .expect("the catalog design builds")
}

/// Fails disk 0 under 105 accesses/s and rebuilds it with one baseline
/// process, returning (reconstruction seconds, mean user ms).
fn rebuild(cfg: ArrayConfig) -> (f64, f64) {
    let mut sim =
        ArraySim::new(layout(), cfg, WorkloadSpec::half_and_half(105.0), 1).expect("layout fits");
    sim.fail_disk(0).expect("disk is healthy and in range");
    sim.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
        .expect("a disk failed and processes > 0");
    let r = sim.run_until_reconstructed(SimTime::from_secs(100_000));
    (
        r.reconstruction_secs().unwrap_or(f64::NAN),
        r.ops.all.mean_ms(),
    )
}

/// Reconstruction seconds with `processes` parallel rebuild processes,
/// into a dedicated spare or into spare slots on the survivors.
fn sparing(distributed: bool, processes: usize) -> f64 {
    let cfg = if distributed {
        ArrayConfig::builder()
            .cylinders(40)
            .distributed_spares(200)
            .build()
    } else {
        ArrayConfig::scaled(40)
    };
    let mut sim =
        ArraySim::new(layout(), cfg, WorkloadSpec::half_and_half(105.0), 1).expect("layout fits");
    sim.fail_disk(0).expect("disk is healthy and in range");
    let mut opts = ReconOptions::new(ReconAlgorithm::Baseline).processes(processes);
    if distributed {
        opts = opts.distributed();
    }
    sim.start_reconstruction(opts)
        .expect("a disk failed and processes > 0");
    sim.run_until_reconstructed(SimTime::from_secs(100_000))
        .reconstruction_secs()
        .unwrap_or(f64::NAN)
}

/// Drives a saturated IBM 0661 through 2,000 random 4 KB reads under
/// `policy`, returning the simulated completion time.
fn saturated_run(policy: SchedPolicy) -> SimTime {
    let g = Geometry::ibm0661();
    let units = g.total_sectors() / 8;
    let mut rng = SimRng::new(7);
    let mut disk = Disk::with_policy(g, 0, policy);
    let mut next = disk
        .submit(
            SimTime::ZERO,
            DiskRequest::new(0, rng.below(units) * 8, 8, IoKind::Read),
        )
        .expect("idle disk starts immediately");
    for i in 1..2_000 {
        disk.submit(
            SimTime::ZERO,
            DiskRequest::new(i, rng.below(units) * 8, 8, IoKind::Read),
        );
    }
    let mut last;
    loop {
        last = next.at;
        match disk.complete(next.at).1 {
            Some(c) => next = c,
            None => break,
        }
    }
    last
}

fn main() {
    for (name, us) in [("none", 0u64), ("50ms", 50_000)] {
        let cfg = ArrayConfig::builder()
            .cylinders(30)
            .recon_throttle_us(us)
            .build();
        let (t, ms) = rebuild(cfg);
        println!("# throttle {name}: recon {t:.0} s, user {ms:.1} ms");
    }
    for (name, policy) in [
        ("cvscan", SchedPolicy::cvscan()),
        ("fcfs", SchedPolicy::Fcfs),
    ] {
        let cfg = ArrayConfig::builder().cylinders(30).sched(policy).build();
        let (t, ms) = rebuild(cfg);
        println!("# scheduler {name}: recon {t:.0} s, user {ms:.1} ms");
    }
    for (name, on) in [("plain", false), ("user_priority", true)] {
        let cfg = ArrayConfig::builder()
            .cylinders(30)
            .recon_priority(on)
            .build();
        let (t, ms) = rebuild(cfg);
        println!("# priority {name}: recon {t:.0} s, user {ms:.1} ms");
    }
    for procs in [8usize, 16, 32] {
        println!(
            "# sparing at {procs}-way: dedicated {:.1} s, distributed {:.1} s",
            sparing(false, procs),
            sparing(true, procs)
        );
    }
    for (name, policy) in [
        ("fcfs", SchedPolicy::Fcfs),
        ("sstf", SchedPolicy::sstf()),
        ("cvscan", SchedPolicy::cvscan()),
        ("scan", SchedPolicy::scan()),
    ] {
        let t = saturated_run(policy);
        println!(
            "# ablation: {name} sustains {:.1} random 4 KB reads/s (simulated)",
            2_000.0 / t.as_secs_f64()
        );
    }
}
