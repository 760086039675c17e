//! The RAID striping driver: a disk-accurate simulation of a redundant
//! array in fault-free, degraded, and reconstructing modes.
//!
//! This crate is the middle layer of the `decluster` reproduction of
//! Holland & Gibson (ASPLOS 1992) — the role the Sprite striping driver
//! plays inside `raidSim`. It decomposes user accesses into disk accesses
//! under every operating mode the paper studies:
//!
//! * **fault-free** — reads are one access; writes are the four-access
//!   read-modify-write (or the three-access `G = 3` optimization the paper
//!   discusses for α = 0.1);
//! * **degraded** (disk failed, no replacement) — reads of lost data
//!   reconstruct on the fly from the stripe's survivors; writes of lost
//!   data fold into the parity unit; writes whose parity is lost skip the
//!   parity update entirely;
//! * **reconstructing** — one or more background processes sweep the
//!   replacement disk, each cycle reading the stripe's `G−1` surviving
//!   units and writing the rebuilt unit, under any of the paper's four
//!   algorithms ([`ReconAlgorithm`]): baseline, user-writes, redirection
//!   of reads, and redirection plus piggybacking.
//!
//! Timing comes from the positional disk model in `decluster-disk`; the
//! layout comes from `decluster-core`. A separate *data plane*
//! ([`data::DataArray`]) runs the same decomposition rules over real byte
//! buffers with XOR parity so reconstruction correctness is tested
//! independently of timing.
//!
//! # Where the simulator lives
//!
//! [`sim`] holds [`ArraySim`]'s event loop and the user op path: arrival,
//! planning through [`plan`] and [`extent`], issue and completion. Three
//! private submodules hold the rest of its `impl`:
//!
//! * `sim/faults.rs` — [`FaultPlan`] and [`CrashPlan`], mid-run disk
//!   failures and the retry of the ops they abort, unreadable sectors,
//!   and the power cut's torn/dirty stripe classification;
//! * `sim/recon.rs` — [`ReconOptions`], arming a rebuild, the sweep
//!   cycle, piggyback writes and the rebuilt-offset accounting;
//! * `sim/scrub.rs` — the patrol-read scrubber.
//!
//! # Examples
//!
//! ```
//! use decluster_array::{ArrayConfig, ArraySim, ReconAlgorithm, ReconOptions};
//! use decluster_core::design::BlockDesign;
//! use decluster_core::layout::DeclusteredLayout;
//! use decluster_sim::SimTime;
//! use decluster_workload::WorkloadSpec;
//! use std::sync::Arc;
//!
//! // A small declustered array under a light half-read workload.
//! let layout = Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, 4)?)?);
//! let cfg = ArrayConfig::builder().cylinders(40).build(); // mini-disks for a fast test
//! let mut sim = ArraySim::new(layout, cfg, WorkloadSpec::half_and_half(20.0), 1)?;
//! sim.fail_disk(0)?;
//! sim.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))?;
//! let report = sim.run_until_reconstructed(SimTime::from_secs(10_000));
//! assert!(report.reconstruction_time.is_some());
//! assert!(report.data_loss.is_empty()); // single failure: nothing lost
//! println!("mean user response {:.1} ms", report.ops.all.mean_ms());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod data;
pub mod extent;
pub mod gf;
pub mod loss;
pub mod plan;
pub mod recovery;
pub mod report;
pub mod sim;
pub mod slab;
pub mod spare;

pub use config::{ArrayConfig, ArrayConfigBuilder, ScrubConfig};
pub use decluster_core::recon::ReconAlgorithm;
pub use recovery::recover;
pub use report::{
    ConsistencyReport, CrashReport, DataLossReport, LossCause, LostStripe, OpStats, ReconReport,
    RecoveryPolicy, RunReport, ScrubReport,
};
pub use sim::{ArraySim, CrashPlan, FaultPlan, ReconOptions};
