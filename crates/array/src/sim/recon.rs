//! Reconstruction: arming a rebuild, the sweep cycle, piggyback writes,
//! and the accounting of every offset of the failed disk.

use super::{ArraySim, Event, Fault, Op, Role};
use crate::plan::PlannedIo;
use crate::report::CycleStats;
use crate::spare::SpareMap;
use decluster_core::error::Error;
use decluster_core::layout::UnitAddr;
use decluster_core::recon::ReconAlgorithm;
use decluster_disk::IoKind;
use decluster_sim::probe::{OpClass, Probe};
use decluster_sim::SimTime;
use std::collections::VecDeque;

/// Cycles kept for the "final cycles" statistics; the paper's Table 8-1
/// averages the reconstruction of the last 300 stripe units.
const LAST_CYCLE_WINDOW: usize = 300;

/// How a rebuilt offset got resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RebuildCredit {
    /// The background sweep reconstructed it.
    Sweep,
    /// User activity reconstructed it (direct write or piggyback).
    User,
    /// Its stripe proved unrecoverable; the offset is resolved so the
    /// sweep can terminate, and counted as lost.
    Lost,
}

/// Bookkeeping of one reconstruction sweep cycle.
#[derive(Debug)]
pub(super) struct ReconCycle {
    process: usize,
    started: SimTime,
    pub(super) read_done: Option<SimTime>,
    /// Set when a survivor read hit an unreadable sector: the stripe is
    /// unrecoverable, so the cycle skips its write and resolves the offset
    /// as lost instead of rebuilt.
    pub(super) lost: bool,
}

/// Reconstruction state.
#[derive(Debug)]
pub(super) struct Rebuild {
    pub(super) failed: u16,
    pub(super) algorithm: ReconAlgorithm,
    pub(super) rebuilt: Vec<bool>,
    pub(super) rebuilt_count: u64,
    pub(super) target: u64,
    pub(super) cursor: u64,
    pub(super) processes: usize,
    pub(super) finished: Option<SimTime>,
    pub(super) cycles: CycleStats,
    pub(super) recent: VecDeque<(f64, f64)>,
    pub(super) swept: u64,
    pub(super) by_users: u64,
    pub(super) units_lost: u64,
    pub(super) spares: Option<SpareMap>,
    pub(super) progress: Vec<(f64, f64)>,
}

/// Options for [`ArraySim::start_reconstruction`]: which algorithm runs,
/// how many parallel sweep processes it uses, and whether rebuilt units
/// land on distributed spare space instead of a replacement disk.
///
/// # Examples
///
/// ```
/// use decluster_array::ReconOptions;
/// use decluster_core::recon::ReconAlgorithm;
///
/// let opts = ReconOptions::new(ReconAlgorithm::Redirect)
///     .processes(4)
///     .distributed();
/// assert_eq!(opts.process_count(), 4);
/// assert!(opts.is_distributed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconOptions {
    algorithm: ReconAlgorithm,
    processes: usize,
    distributed: bool,
}

impl ReconOptions {
    /// Rebuild with `algorithm`, one sweep process, onto a replacement
    /// disk.
    pub fn new(algorithm: ReconAlgorithm) -> ReconOptions {
        ReconOptions {
            algorithm,
            processes: 1,
            distributed: false,
        }
    }

    /// Sets the number of parallel reconstruction processes.
    #[must_use]
    pub fn processes(mut self, processes: usize) -> ReconOptions {
        self.processes = processes;
        self
    }

    /// Rebuilds onto the array's reserved distributed spare space instead
    /// of a replacement disk (requires
    /// [`spare reservation`](crate::ArrayConfigBuilder::distributed_spares)).
    #[must_use]
    pub fn distributed(mut self) -> ReconOptions {
        self.distributed = true;
        self
    }

    /// The reconstruction algorithm.
    pub fn algorithm(&self) -> ReconAlgorithm {
        self.algorithm
    }

    /// Parallel sweep processes.
    pub fn process_count(&self) -> usize {
        self.processes
    }

    /// Whether rebuilt units land on distributed spare space.
    pub fn is_distributed(&self) -> bool {
        self.distributed
    }
}

impl<P: Probe> ArraySim<P> {
    /// Arms reconstruction of the failed disk per `opts`.
    ///
    /// Under the default (dedicated-replacement) options a fresh drive is
    /// swapped into the failed slot and `opts.process_count()` processes
    /// rebuild it running `opts.algorithm()`. With
    /// [`ReconOptions::distributed`] the failed disk stays dead and every
    /// lost unit is rebuilt into a reserved spare slot on a surviving disk
    /// (see [`crate::spare::SpareMap`]).
    ///
    /// # Errors
    ///
    /// Returns an error if no disk has failed, a run has already started,
    /// or `opts.process_count()` is zero. Distributed sparing additionally
    /// requires reserved spare space
    /// ([`ArrayConfigBuilder::distributed_spares`](crate::ArrayConfigBuilder::distributed_spares))
    /// that can absorb the failed disk (the [`SpareMap::build`] error is
    /// propagated).
    pub fn start_reconstruction(&mut self, opts: ReconOptions) -> Result<(), Error> {
        if opts.distributed && self.cfg.spare_units_per_disk == 0 {
            return Self::invalid("distributed sparing requires reserved spare space");
        }
        let failed = self.check_rebuild_preconditions(opts.processes)?;
        let spares = if opts.distributed {
            Some(SpareMap::build(
                &self.mapping,
                failed,
                self.cfg.spare_units_per_disk,
            )?)
        } else {
            // Physically swap in a new drive.
            self.disks[failed as usize] = Self::make_disk(&self.cfg, failed as usize);
            None
        };
        self.arm_rebuild(failed, opts.algorithm, opts.processes, spares);
        Ok(())
    }

    fn check_rebuild_preconditions(&self, processes: usize) -> Result<u16, Error> {
        if self.started {
            return Self::invalid("start_reconstruction must precede the run");
        }
        if processes == 0 {
            return Self::invalid("need at least one reconstruction process");
        }
        match self.fault {
            Fault::Degraded { failed } => Ok(failed),
            _ => Self::invalid("start_reconstruction requires a failed disk"),
        }
    }

    fn arm_rebuild(
        &mut self,
        failed: u16,
        algorithm: ReconAlgorithm,
        processes: usize,
        spares: Option<SpareMap>,
    ) {
        let units = self.mapping.units_per_disk();
        let target = (0..units)
            .filter(|&o| self.mapping.role_at(failed, o) != decluster_core::UnitRole::Unmapped)
            .count() as u64;
        self.fault = Fault::Rebuilding(Box::new(Rebuild {
            failed,
            algorithm,
            rebuilt: vec![false; units as usize],
            rebuilt_count: 0,
            target,
            cursor: 0,
            processes,
            finished: None,
            cycles: CycleStats::default(),
            recent: VecDeque::with_capacity(LAST_CYCLE_WINDOW + 1),
            swept: 0,
            by_users: 0,
            units_lost: 0,
            spares,
            progress: Vec::with_capacity(101),
        }));
    }

    /// Resolves a replacement-disk offset: rebuilt (by the sweep or by
    /// user activity) or lost (its stripe proved unrecoverable). Either
    /// way it counts toward termination, so the sweep always finishes.
    pub(super) fn mark_rebuilt(&mut self, offset: u64, now: SimTime, credit: RebuildCredit) {
        if let Fault::Rebuilding(r) = &mut self.fault {
            if !r.rebuilt[offset as usize] {
                r.rebuilt[offset as usize] = true;
                r.rebuilt_count += 1;
                match credit {
                    RebuildCredit::User => r.by_users += 1,
                    RebuildCredit::Sweep => r.swept += 1,
                    RebuildCredit::Lost => r.units_lost += 1,
                }
                // Sample the trajectory at each whole percent.
                let fraction = r.rebuilt_count as f64 / r.target as f64;
                let percent_now = (fraction * 100.0) as u32;
                let percent_prev = (r.progress.last().map_or(0.0, |&(_, f)| f) * 100.0) as u32;
                if r.progress.is_empty() || percent_now > percent_prev {
                    r.progress.push((now.as_secs_f64(), fraction));
                    if P::ACTIVE {
                        self.probe.recon_progress(now, r.rebuilt_count, r.target);
                    }
                }
                if r.rebuilt_count == r.target && r.finished.is_none() {
                    r.finished = Some(now);
                }
            }
        }
    }

    pub(super) fn spawn_piggyback_write(&mut self, offset: u64, now: SimTime) {
        let failed = match &self.fault {
            Fault::Rebuilding(r) if !r.rebuilt[offset as usize] => r.failed,
            _ => return, // already rebuilt meanwhile — skip the write
        };
        let io = self.rebuild_write(failed, offset);
        let op = Op::new(Role::Piggyback, None, Vec::new(), Some(offset), None);
        self.launch(op, &[io], now);
    }

    /// The write that lands the rebuilt unit at `offset` of the failed
    /// slot: on the replacement disk, or in its distributed spare slot.
    fn rebuild_write(&self, failed: u16, offset: u64) -> PlannedIo {
        let target = self.view().repair_location(UnitAddr::new(failed, offset));
        PlannedIo {
            disk: target.disk,
            offset: target.offset,
            kind: IoKind::Write,
        }
    }

    /// Claims the next unreconstructed offset and launches its cycle; the
    /// process goes idle when the sweep cursor reaches the end of the disk.
    pub(super) fn start_recon_cycle(&mut self, process: usize, now: SimTime) {
        let Fault::Rebuilding(r) = &mut self.fault else {
            return;
        };
        let (offset, stripe) = loop {
            if r.cursor >= r.rebuilt.len() as u64 {
                return; // sweep finished; stragglers arrive via user marks
            }
            let offset = r.cursor;
            r.cursor += 1;
            if r.rebuilt[offset as usize] {
                continue;
            }
            // Unmapped holes have no stripe and are skipped.
            if let Some(stripe) = self.mapping.role_at(r.failed, offset).stripe() {
                break (offset, stripe);
            }
        };
        let failed = r.failed;
        let mut units = std::mem::take(&mut self.scratch_units);
        let mut phase1 = std::mem::take(&mut self.scratch_ios);
        units.clear();
        phase1.clear();
        self.mapping.stripe_units_into(stripe, &mut units);
        phase1.extend(
            units
                .iter()
                .filter(|u| u.disk != failed)
                .map(|&u| PlannedIo {
                    disk: u.disk,
                    offset: u.offset,
                    kind: IoKind::Read,
                }),
        );
        let phase2 = vec![self.rebuild_write(failed, offset)];
        let cycle = ReconCycle {
            process,
            started: now,
            read_done: None,
            lost: false,
        };
        let op = Op::new(Role::Recon(cycle), None, phase2, Some(offset), None);
        self.launch(op, &phase1, now);
        units.clear();
        phase1.clear();
        self.scratch_units = units;
        self.scratch_ios = phase1;
    }

    pub(super) fn finish_recon_cycle(&mut self, rc: ReconCycle, now: SimTime) {
        let throttle = SimTime::from_us(self.cfg.recon_throttle_us);
        if P::ACTIVE {
            let read_done = rc.read_done.unwrap_or(now);
            self.probe
                .latency(now, OpClass::ReconRead, read_done - rc.started);
            self.probe
                .latency(now, OpClass::ReconWrite, now - read_done);
        }
        if let Fault::Rebuilding(r) = &mut self.fault {
            let read_done = rc.read_done.unwrap_or(now);
            let read_ms = (read_done - rc.started).as_ms_f64();
            let write_ms = (now - read_done).as_ms_f64();
            r.cycles.read_ms.push(read_ms);
            r.cycles.write_ms.push(write_ms);
            r.recent.push_back((read_ms, write_ms));
            if r.recent.len() > LAST_CYCLE_WINDOW {
                r.recent.pop_front();
            }
        }
        if throttle == SimTime::ZERO {
            self.start_recon_cycle(rc.process, now);
        } else {
            self.queue
                .schedule(now + throttle, Event::ReconKick(rc.process));
        }
    }
}
