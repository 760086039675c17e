//! Result types returned by array simulations.

use decluster_sim::{Observations, OnlineStats, ResponseStats, SimTime};
use serde::{Deserialize, Serialize};

/// User-visible response-time statistics, shared by [`RunReport`] and
/// [`ReconReport`]: each op class keeps the exact sample store
/// ([`ResponseStats`]), for exact means and nearest-rank percentiles.
/// An active [`decluster_sim::Probe`] keeps its own per-class
/// histograms.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Response times of user reads completed in the measurement window.
    pub reads: ResponseStats,
    /// Response times of user writes completed in the measurement window.
    pub writes: ResponseStats,
    /// All user responses combined.
    pub all: ResponseStats,
}

impl OpStats {
    /// Records one completed user read.
    pub fn record_read(&mut self, response: SimTime) {
        self.reads.record(response);
        self.all.record(response);
    }

    /// Records one completed user write.
    pub fn record_write(&mut self, response: SimTime) {
        self.writes.record(response);
        self.all.record(response);
    }

    /// Exact median response time over all user requests, ms.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_or_zero(0.5)
    }

    /// Exact 95th-percentile response time over all user requests, ms.
    pub fn p95_ms(&self) -> f64 {
        self.percentile_or_zero(0.95)
    }

    /// Exact 99th-percentile response time over all user requests, ms.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_or_zero(0.99)
    }

    /// Exact maximum response time over all user requests, ms.
    pub fn max_ms(&self) -> f64 {
        self.all.max_ms()
    }

    fn percentile_or_zero(&self, q: f64) -> f64 {
        if self.all.count() == 0 {
            0.0
        } else {
            self.all.percentile_ms(q)
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &OpStats) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.all.merge(&other.all);
    }
}

/// Why a stripe lost data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossCause {
    /// A second whole-disk failure made two of the stripe's units
    /// unavailable.
    SecondDiskFailure,
    /// An unreadable sector was discovered while the stripe was already
    /// missing a unit (degraded or not yet rebuilt).
    MediaError {
        /// The disk whose sector was unreadable.
        disk: u16,
    },
}

/// One parity stripe that lost data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostStripe {
    /// The stripe's id in the array mapping.
    pub stripe: u64,
    /// Unavailable data units in the stripe.
    pub data_units: u16,
    /// Unavailable parity units in the stripe (0 or 1).
    pub parity_units: u16,
    /// What made the stripe unrecoverable.
    pub cause: LossCause,
}

/// Accounting of data lost to faults beyond the array's single-failure
/// tolerance: which stripes became unrecoverable, split into data and
/// parity units, plus how far reconstruction had progressed when the
/// fatal fault landed.
///
/// An empty report (the [`Default`]) means the run lost nothing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataLossReport {
    /// Every stripe that lost data, in stripe-id order for whole-disk
    /// failures, discovery order for media errors.
    pub stripes: Vec<LostStripe>,
    /// The second whole-disk failure that ended the run, if one fired:
    /// `(disk, time)`.
    pub second_failure: Option<(u16, SimTime)>,
    /// Reconstruction progress when the second failure landed:
    /// `(units rebuilt, units total)`. `None` when no rebuild was active.
    pub rebuilt_before_loss: Option<(u64, u64)>,
}

impl DataLossReport {
    /// Whether the run lost any data.
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Unavailable data units summed over all lost stripes.
    pub fn lost_data_units(&self) -> u64 {
        self.stripes.iter().map(|s| s.data_units as u64).sum()
    }

    /// Unavailable parity units summed over all lost stripes.
    pub fn lost_parity_units(&self) -> u64 {
        self.stripes.iter().map(|s| s.parity_units as u64).sum()
    }

    /// Fraction of the dead disk rebuilt before the loss event, if a
    /// rebuild was running.
    pub fn rebuilt_fraction_before_loss(&self) -> Option<f64> {
        self.rebuilt_before_loss.map(|(done, total)| {
            if total == 0 {
                1.0
            } else {
                done as f64 / total as f64
            }
        })
    }
}

/// What the patrol-read scrubber did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Stripe verify cycles completed (a stripe re-verified on a later
    /// pass counts again).
    pub stripes_scanned: u64,
    /// Verify reads issued by scrub cycles.
    pub units_read: u64,
    /// Latent sector errors the patrol discovered.
    pub errors_found: u64,
    /// Discovered errors repaired from redundancy (rewritten). Errors on
    /// stripes already missing a unit are unrepairable and are recorded
    /// in the run's [`DataLossReport`] instead.
    pub errors_repaired: u64,
    /// Kicks that found user requests in flight and yielded instead of
    /// claiming a stripe — the throttle at work.
    pub backoffs: u64,
    /// Completed full passes over the stripe space.
    pub passes: u64,
}

/// The state a power loss left the array in: which parity updates were
/// torn mid-flight and which stripes the dirty-region log would have
/// listed. Produced when a [`crate::CrashPlan`] fires; consumed by
/// [`crate::recovery::recover`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrashReport {
    /// When the power cut landed.
    pub at: SimTime,
    /// Stripes with a write phase *partially* applied at the cut — some
    /// of the phase's writes had landed, some had not, so the stripe's
    /// parity no longer matches its data (the RAID-5 write hole).
    /// Sorted, deduplicated; always a subset of `dirty_stripes`.
    pub torn_stripes: Vec<u64>,
    /// Stripes any in-flight operation was going to write — what a
    /// dirty-region log flushed before issuing data writes would hold.
    /// Sorted, deduplicated.
    pub dirty_stripes: Vec<u64>,
    /// The failed disk at crash time, if the array was degraded or
    /// rebuilding: recovery must not try to read or rewrite its units.
    pub failed_disk: Option<u16>,
}

/// How restart recovery decides which stripes to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Verify every mapped stripe — correct with no logging at all, but
    /// the whole array must be read.
    FullResync,
    /// Verify only the stripes the dirty-region log named (writes in
    /// flight at the crash) — the same repairs at a fraction of the
    /// reads.
    DirtyRegionLog,
}

impl RecoveryPolicy {
    /// Stable lower-case name (JSON keys, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::FullResync => "full-resync",
            RecoveryPolicy::DirtyRegionLog => "dirty-region-log",
        }
    }
}

/// Exact accounting of one restart recovery: what was scanned, what was
/// torn, what was repaired, and how long the pass took on the simulated
/// disks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// The policy that ran.
    pub policy: RecoveryPolicy,
    /// Stripes read and verified.
    pub stripes_checked: u64,
    /// Torn stripes the scan encountered.
    pub torn_found: u64,
    /// Torn stripes repaired (parity rewritten from the surviving data,
    /// or moot because the parity unit sat on the failed disk).
    pub torn_repaired: u64,
    /// Stripe units read by the scan.
    pub resync_units_read: u64,
    /// Stripe units written by repairs.
    pub resync_units_written: u64,
    /// Wall time of the recovery pass, seconds: per-disk sequential
    /// pipelines running in parallel, so the slowest disk sets the time.
    pub recovery_secs: f64,
}

/// Results of a steady-state run (fault-free or degraded mode).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// User response-time statistics (reads, writes, combined).
    pub ops: OpStats,
    /// Simulated time covered by the run.
    pub elapsed: SimTime,
    /// User requests issued (including warmup).
    pub requests_issued: u64,
    /// User requests completed inside the measurement window.
    pub requests_measured: u64,
    /// Mean utilization across all (healthy) disks over the whole run.
    pub mean_disk_utilization: f64,
    /// Utilization of each disk over the whole run (a failed disk reads
    /// as ~0). Exposes the load imbalance that layout criterion 2 exists
    /// to prevent.
    pub per_disk_utilization: Vec<f64>,
    /// Simulation events processed by the event loop — the denominator for
    /// simulator throughput (events per wall-clock second) in benchmarks.
    pub events_processed: u64,
    /// Stripes that lost data (second failure, media errors). Empty on a
    /// clean run; a terminal second failure also truncates `elapsed`.
    pub data_loss: DataLossReport,
    /// Patrol-read scrubbing statistics, when the scrubber was enabled.
    pub scrub: Option<ScrubReport>,
    /// The write-hole state a [`crate::CrashPlan`] left behind, when one
    /// fired (the crash also truncates `elapsed`).
    pub crash: Option<CrashReport>,
    /// Unhealed latent defects on surviving disks' mapped sectors at the
    /// end of the run, when media faults were active. With a terminal
    /// second failure this is the exposure *at second-fault time* — the
    /// count scrubbing exists to shrink.
    pub exposed_defects: Option<u64>,
    /// Everything an active [`decluster_sim::Probe`] recorded: per-class
    /// histograms, per-disk timelines, the optional trace. `None` under
    /// the default [`decluster_sim::NoProbe`].
    pub observations: Option<Observations>,
}

/// Per-phase timing of reconstruction cycles (the paper's Table 8-1 rows).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Read-phase duration (collect + XOR the surviving units), ms.
    pub read_ms: OnlineStats,
    /// Write-phase duration (store the rebuilt unit), ms.
    pub write_ms: OnlineStats,
}

impl CycleStats {
    /// Mean full-cycle time, ms.
    pub fn cycle_ms(&self) -> f64 {
        self.read_ms.mean() + self.write_ms.mean()
    }
}

/// Results of a reconstruction run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconReport {
    /// Wall-clock reconstruction time, or `None` if the run hit its limit
    /// before the replacement was fully rebuilt.
    pub reconstruction_time: Option<SimTime>,
    /// User response-time statistics during reconstruction (`ops.all`
    /// is the paper's "user response time").
    pub ops: OpStats,
    /// Cycle statistics over the whole reconstruction.
    pub cycles: CycleStats,
    /// Cycle statistics over only the final cycles (the paper's Table 8-1
    /// averages the last 300 stripe units).
    pub last_cycles: CycleStats,
    /// Units rebuilt by the background sweep.
    pub units_swept: u64,
    /// Units rebuilt as a side effect of user activity (direct writes,
    /// piggybacked reads).
    pub units_by_users: u64,
    /// Units whose stripe proved unrecoverable (a survivor's sector was
    /// unreadable): accounted as resolved so the sweep terminates, and
    /// recorded in [`ReconReport::data_loss`].
    pub units_lost: u64,
    /// Units on the replacement disk that needed rebuilding.
    pub units_total: u64,
    /// Mean utilization of surviving disks over the run.
    pub survivor_utilization: f64,
    /// Utilization of the replacement disk over the run.
    pub replacement_utilization: f64,
    /// Rebuild trajectory: `(seconds, fraction rebuilt)` sampled at each
    /// whole percent of progress. Shows, e.g., the acceleration from
    /// user-driven "free" rebuilding under the piggybacking algorithms.
    pub progress: Vec<(f64, f64)>,
    /// Simulation events processed by the event loop — the denominator for
    /// simulator throughput (events per wall-clock second) in benchmarks.
    pub events_processed: u64,
    /// Stripes that lost data (second failure, unreadable sectors during
    /// rebuild). Empty when reconstruction ran to completion unscathed.
    pub data_loss: DataLossReport,
    /// Patrol-read scrubbing statistics, when the scrubber was enabled.
    pub scrub: Option<ScrubReport>,
    /// The write-hole state a [`crate::CrashPlan`] left behind, when one
    /// fired mid-rebuild (the crash ends the run).
    pub crash: Option<CrashReport>,
    /// Unhealed latent defects on surviving disks' mapped sectors at the
    /// end of the run, when media faults were active. With a terminal
    /// second failure this is the exposure *at second-fault time*.
    pub exposed_defects: Option<u64>,
    /// Everything an active [`decluster_sim::Probe`] recorded: per-class
    /// histograms, per-disk timelines, the optional trace. `None` under
    /// the default [`decluster_sim::NoProbe`].
    pub observations: Option<Observations>,
}

impl ReconReport {
    /// Reconstruction time in seconds, if it completed.
    pub fn reconstruction_secs(&self) -> Option<f64> {
        self.reconstruction_time.map(|t| t.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_records_into_class_and_combined() {
        let mut s = OpStats::default();
        s.record_read(SimTime::from_ms(10));
        s.record_write(SimTime::from_ms(30));
        assert_eq!(s.reads.count(), 1);
        assert_eq!(s.writes.count(), 1);
        assert_eq!(s.all.count(), 2);
        assert_eq!(s.max_ms(), 30.0);
        assert_eq!(s.p50_ms(), 10.0);
        assert_eq!(s.p99_ms(), 30.0);
    }

    #[test]
    fn empty_op_stats_percentiles_are_zero() {
        let s = OpStats::default();
        assert_eq!(s.p50_ms(), 0.0);
        assert_eq!(s.p95_ms(), 0.0);
        assert_eq!(s.p99_ms(), 0.0);
        assert_eq!(s.max_ms(), 0.0);
    }

    #[test]
    fn op_stats_merge_matches_sequential_recording() {
        let mut merged = OpStats::default();
        let mut sequential = OpStats::default();
        let mut shard = OpStats::default();
        for i in 1..=10u64 {
            let t = SimTime::from_ms(i);
            sequential.record_read(t);
            if i <= 5 {
                merged.record_read(t);
            } else {
                shard.record_read(t);
            }
        }
        merged.merge(&shard);
        assert_eq!(merged.all.count(), sequential.all.count());
        assert_eq!(merged.p95_ms(), sequential.p95_ms());
    }

    #[test]
    fn cycle_stats_sum() {
        let mut c = CycleStats::default();
        c.read_ms.push(88.0);
        c.write_ms.push(15.0);
        assert!((c.cycle_ms() - 103.0).abs() < 1e-12);
    }

    #[test]
    fn empty_loss_report_reads_as_clean() {
        let r = DataLossReport::default();
        assert!(r.is_empty());
        assert_eq!(r.lost_data_units(), 0);
        assert_eq!(r.lost_parity_units(), 0);
        assert_eq!(r.rebuilt_fraction_before_loss(), None);
    }

    #[test]
    fn loss_report_sums_units_and_fractions() {
        let r = DataLossReport {
            stripes: vec![
                LostStripe {
                    stripe: 3,
                    data_units: 2,
                    parity_units: 0,
                    cause: LossCause::SecondDiskFailure,
                },
                LostStripe {
                    stripe: 9,
                    data_units: 1,
                    parity_units: 1,
                    cause: LossCause::MediaError { disk: 4 },
                },
            ],
            second_failure: Some((4, SimTime::from_secs(10))),
            rebuilt_before_loss: Some((25, 100)),
        };
        assert!(!r.is_empty());
        assert_eq!(r.lost_data_units(), 3);
        assert_eq!(r.lost_parity_units(), 1);
        assert_eq!(r.rebuilt_fraction_before_loss(), Some(0.25));
    }

    #[test]
    fn recon_secs_is_none_until_complete() {
        let mut r = ReconReport::default();
        assert_eq!(r.reconstruction_secs(), None);
        r.reconstruction_time = Some(SimTime::from_secs(120));
        assert_eq!(r.reconstruction_secs(), Some(120.0));
    }
}
