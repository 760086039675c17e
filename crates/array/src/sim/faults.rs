//! Fault plans and their handlers: whole-disk failures (scheduled or
//! fatal), the retry of ops they abort, unreadable sectors, and power cuts.

use super::{op_of_io, ArraySim, Fault, Role};
use crate::loss::assess_second_failure;
use crate::plan::PlannedIo;
use crate::report::{CrashReport, DataLossReport, LossCause, LostStripe};
use decluster_core::error::Error;
use decluster_disk::IoKind;
use decluster_sim::probe::Probe;
use decluster_sim::SimTime;
use std::collections::HashSet;

/// A schedule of whole-disk failures to inject into a run, built before
/// the simulation starts and installed with [`ArraySim::inject_faults`].
///
/// A plan with more than one failure (or one failure on top of an array
/// already degraded or rebuilding) drives the array beyond its
/// single-failure tolerance: the run ends at the fatal failure and the
/// report's [`DataLossReport`] enumerates the stripes that became
/// unrecoverable.
///
/// # Examples
///
/// ```
/// use decluster_array::FaultPlan;
/// use decluster_sim::SimTime;
///
/// let plan = FaultPlan::new()
///     .fail_at(3, SimTime::from_secs(10))
///     .fail_at(7, SimTime::from_secs(25));
/// assert_eq!(plan.failures().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    failures: Vec<(u16, SimTime)>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a whole-disk failure of `disk` at simulated time `at`.
    pub fn fail_at(mut self, disk: u16, at: SimTime) -> FaultPlan {
        self.failures.push((disk, at));
        self
    }

    /// The scheduled failures, in insertion order.
    pub fn failures(&self) -> &[(u16, SimTime)] {
        &self.failures
    }
}

/// A scheduled power loss: at the planned instant the array stops dead —
/// every disk access still in flight is abandoned where it stood, so a
/// read-modify-write whose writes had partially landed leaves its stripe's
/// parity inconsistent with its data (the RAID-5 *write hole*).
///
/// The run ends at the cut; the report's [`CrashReport`] records exactly
/// which stripes were torn and which a dirty-region log would have named,
/// and [`crate::recovery::recover`] replays restart recovery from it.
///
/// # Examples
///
/// ```
/// use decluster_array::CrashPlan;
/// use decluster_sim::SimTime;
///
/// let plan = CrashPlan::at(SimTime::from_secs(5));
/// assert_eq!(plan.when(), SimTime::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    at: SimTime,
}

impl CrashPlan {
    /// Cuts power at simulated time `at`.
    pub fn at(at: SimTime) -> CrashPlan {
        CrashPlan { at }
    }

    /// The planned instant of the cut.
    pub fn when(&self) -> SimTime {
        self.at
    }
}

/// Accumulated data-loss state (second failures, unreadable sectors).
#[derive(Debug, Default)]
pub(super) struct LossLog {
    stripes: Vec<LostStripe>,
    /// Stripe ids already recorded, so a media error and a later second
    /// failure never double-count a stripe.
    seen: HashSet<u64>,
    second_failure: Option<(u16, SimTime)>,
    rebuilt_before_loss: Option<(u64, u64)>,
}

impl LossLog {
    fn record(&mut self, stripe: LostStripe) {
        if self.seen.insert(stripe.stripe) {
            self.stripes.push(stripe);
        }
    }

    pub(super) fn into_report(self) -> DataLossReport {
        DataLossReport {
            stripes: self.stripes,
            second_failure: self.second_failure,
            rebuilt_before_loss: self.rebuilt_before_loss,
        }
    }
}

impl<P: Probe> ArraySim<P> {
    /// Marks `disk` failed (degraded mode, no replacement yet).
    ///
    /// # Errors
    ///
    /// Returns an error if called after a run started, if the disk is out
    /// of range, if a disk already failed (at most one failure may exist
    /// before the run — further failures are *scheduled* with
    /// [`ArraySim::inject_faults`]), or if `disk` is already scheduled to
    /// fail.
    pub fn fail_disk(&mut self, disk: u16) -> Result<(), Error> {
        if self.started {
            return Self::invalid("fail_disk must precede the run");
        }
        if disk >= self.mapping.disks() {
            return Self::invalid(format!("disk {disk} out of range"));
        }
        if !matches!(self.fault, Fault::None) {
            return Self::invalid("a disk already failed before the run");
        }
        if self.scheduled_failures.iter().any(|&(d, _)| d == disk) {
            return Self::invalid(format!("disk {disk} is already scheduled to fail"));
        }
        self.fault = Fault::Degraded { failed: disk };
        Ok(())
    }

    /// Schedules `disk` to fail at `at`, mid-run: accesses in flight on it
    /// are lost and the operations that issued them retry under the
    /// degraded state — the continuous-operation transition the paper's
    /// steady-state experiments bracket from both sides.
    ///
    /// If the failure lands while the array is already degraded or
    /// rebuilding, it exceeds the single-failure tolerance: the run ends
    /// there and the report's [`DataLossReport`] lists the stripes lost.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started, `disk` is out of range, `disk`
    /// already failed, or `disk` is already scheduled to fail.
    pub fn fail_disk_at(&mut self, disk: u16, at: SimTime) -> Result<(), Error> {
        self.schedule_failure(disk, at)
    }

    /// Installs a whole [`FaultPlan`]: every failure in the plan is
    /// scheduled for injection when the run starts.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started, or if any planned failure is
    /// out of range, duplicates an already-failed disk, or duplicates
    /// another scheduled failure. Failures before the error were already
    /// installed; discard the simulator on error.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), Error> {
        for &(disk, at) in plan.failures() {
            self.schedule_failure(disk, at)?;
        }
        Ok(())
    }

    /// Installs a [`CrashPlan`]: power is cut at the planned time, tearing
    /// in-flight parity updates, and the run ends there with a
    /// [`CrashReport`] in the run's report.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started or a crash is already planned.
    pub fn inject_crash(&mut self, plan: &CrashPlan) -> Result<(), Error> {
        if self.started {
            return Self::invalid("crash injection must precede the run");
        }
        if self.crash_plan.is_some() {
            return Self::invalid("a crash is already planned");
        }
        self.crash_plan = Some(plan.when());
        Ok(())
    }

    fn schedule_failure(&mut self, disk: u16, at: SimTime) -> Result<(), Error> {
        if self.started {
            return Self::invalid("fault injection must precede the run");
        }
        if disk >= self.mapping.disks() {
            return Self::invalid(format!("disk {disk} out of range"));
        }
        // Note: under a dedicated replacement the failed disk's slot holds
        // a fresh drive once reconstruction is armed; re-failing that slot
        // is still rejected to keep failure identities unambiguous.
        if self.fault.failed() == Some(disk) {
            return Self::invalid(format!("disk {disk} already failed"));
        }
        if self.scheduled_failures.iter().any(|&(d, _)| d == disk) {
            return Self::invalid(format!("disk {disk} is already scheduled to fail"));
        }
        self.scheduled_failures.push((disk, at));
        Ok(())
    }

    pub(super) fn on_disk_fail(&mut self, disk: u16, now: SimTime) {
        if !matches!(self.fault, Fault::None) {
            self.on_fatal_failure(disk, now);
            return;
        }
        self.fault = Fault::Degraded { failed: disk };
        for io_id in self.disks[disk as usize].fail() {
            let op_id = op_of_io(io_id);
            let op = self.ops.get_mut(op_id).expect("lost io belongs to no op");
            debug_assert!(
                !matches!(op.role, Role::Recon(_)),
                "no reconstruction during steady state"
            );
            op.aborted = true;
            op.outstanding -= 1;
            if op.outstanding == 0 {
                self.retry_op(op_id, now);
            }
        }
        // An op whose in-flight ios all live on surviving disks is not in
        // the lost-io list above, yet its queued phase-2 writes may still
        // name the dead disk (the plan predates the failure; a completed
        // phase-1 read on the dying disk leaves no in-flight trace).
        // Abort those too, so they drain and replan under the degraded
        // view instead of submitting to a failed disk.
        let stale: Vec<u32> = self
            .ops
            .iter()
            .filter(|(_, op)| !op.aborted && op.phase2.iter().any(|io| io.disk == disk))
            .map(|(id, _)| id)
            .collect();
        for op_id in stale {
            let op = self.ops.get_mut(op_id).expect("stale op vanished");
            debug_assert!(op.outstanding > 0, "live op with no in-flight io");
            op.aborted = true;
        }
    }

    /// A whole-disk failure landed while the array was already degraded
    /// or rebuilding: assess which stripes are now unrecoverable, record
    /// the loss, and end the run (the caller's event loop observes
    /// `terminal_at`).
    fn on_fatal_failure(&mut self, disk: u16, now: SimTime) {
        let (first, rebuilt, spares, progress) = match &self.fault {
            Fault::Degraded { failed } => (Some(*failed), None, None, None),
            Fault::Rebuilding(r) => (
                Some(r.failed),
                Some(r.rebuilt.as_slice()),
                r.spares.as_ref(),
                Some((r.rebuilt_count, r.target)),
            ),
            Fault::None => unreachable!("fatal failure requires a prior fault"),
        };
        let lost = assess_second_failure(&self.mapping, first, disk, rebuilt, spares);
        for stripe in lost {
            self.loss.record(stripe);
        }
        self.loss.second_failure = Some((disk, now));
        self.loss.rebuilt_before_loss = progress;
        // The run is over: in-flight ios on the dead disk are dropped
        // without retry.
        self.disks[disk as usize].fail();
        self.terminal_at = Some(now);
    }

    /// Retries an aborted user operation under the current fault view; the
    /// original arrival time is preserved so the retry's latency counts.
    pub(super) fn retry_op(&mut self, op_id: u32, now: SimTime) {
        let op = self.ops.remove(op_id).expect("retrying unknown op");
        let Some((start, count)) = op.span else {
            // Background work: a piggyback write is simply dropped, but a
            // scrub cycle must release its in-flight slot or the patrol
            // stalls at its outstanding cap.
            if matches!(op.role, Role::Scrub { .. }) {
                self.finish_scrub_cycle();
            }
            return;
        };
        let kind = match op.role {
            Role::User(kind, _) => kind,
            Role::Sub(parent_id) => self.parents.get(parent_id).expect("parent alive").0,
            _ => unreachable!("user spans carry a kind"),
        };
        if count == 1 {
            let plan = self.plan_one(kind, start);
            self.launch_user(op.role, (start, count), plan, now);
        } else {
            let Role::Sub(parent_id) = op.role else {
                unreachable!("multi-unit spans have parents")
            };
            let extent = crate::extent::plan_extent(&self.mapping, kind, start, count, self.view());
            // The aborted sub-plan is replaced by possibly several plans.
            self.parents.get_mut(parent_id).expect("parent alive").2 +=
                extent.plans.len() as u32 - 1;
            for (plan, span) in extent.plans.into_iter().zip(extent.spans) {
                self.launch_user(Role::Sub(parent_id), span, plan, now);
            }
        }
    }

    /// A read exhausted its retries on an unreadable sector. The sector is
    /// remapped (healed) so follow-up accesses succeed; whether data was
    /// *lost* depends on the stripe: with full redundancy the unit is
    /// recoverable from the surviving units and the issuing op simply
    /// retries, but if the stripe was already missing a unit (failed disk,
    /// not yet rebuilt) the error makes it unrecoverable.
    pub(super) fn on_media_error(&mut self, op_id: u32, disk: u16, start_sector: u64) {
        self.disks[disk as usize].heal(start_sector, self.cfg.unit_sectors);
        let offset = start_sector / self.cfg.unit_sectors as u64;
        // Assess the stripe first: is it unrecoverable (this unit plus a
        // missing one elsewhere)? `None` for spare-region accesses (the
        // stripe is accounted via its home unit) and unmapped holes.
        let loss_info = if offset >= self.mapping.units_per_disk() {
            None
        } else {
            self.assess_media_error(disk, offset)
        };
        let unrecoverable = matches!(loss_info, Some((_, d, p)) if d + p >= 2);
        let op = self.ops.get_mut(op_id).expect("media error on unknown op");
        match &mut op.role {
            Role::Scrub { .. } => {
                // The patrol found a latent error. With full redundancy the
                // unit is recoverable from the units this cycle is already
                // reading: rewrite it (the heal above reallocated the
                // sector; the write models the repair I/O). On a stripe
                // already missing a unit there is nothing to rebuild from —
                // the loss is recorded below.
                let scrub = self.scrub.as_mut().expect("scrub op without scrubber");
                scrub.report.errors_found += 1;
                if !unrecoverable {
                    op.phase2.push(PlannedIo {
                        disk,
                        offset,
                        kind: IoKind::Write,
                    });
                    scrub.report.errors_repaired += 1;
                }
            }
            // A reconstruction cycle lost a survivor: the stripe under
            // rebuild is gone. The cycle resolves its offset as lost when
            // its remaining reads drain.
            Role::Recon(cycle) => cycle.lost = true,
            // User (or piggyback) work: drain and retry — the healed
            // sector reads clean, modelling recovery from redundancy
            // (or fabricated data if the stripe was already degraded;
            // the loss is recorded below either way).
            _ => op.aborted = true,
        }
        if let Some((stripe, data, parity)) = loss_info {
            if data + parity > self.mapping.parity_units_per_stripe() {
                self.loss.record(LostStripe {
                    stripe,
                    data_units: data,
                    parity_units: parity,
                    cause: LossCause::MediaError { disk },
                });
            }
        }
    }

    /// Counts how many of the stripe's units are unavailable given a media
    /// error at `(disk, offset)`: the erroring unit itself plus anything
    /// on the failed, not-yet-rebuilt disk. Returns
    /// `(stripe, data unavailable, parity unavailable)`, or `None` off the
    /// mapped space.
    fn assess_media_error(&mut self, disk: u16, offset: u64) -> Option<(u64, u16, u16)> {
        let stripe = self.mapping.role_at(disk, offset).stripe()?;
        let (first, rebuilt) = match &self.fault {
            Fault::None => (None, None),
            Fault::Degraded { failed } => (Some(*failed), None),
            Fault::Rebuilding(r) => (Some(r.failed), Some(r.rebuilt.as_slice())),
        };
        let mut units = std::mem::take(&mut self.scratch_units);
        units.clear();
        self.mapping.stripe_units_into(stripe, &mut units);
        // Parity units are ordered last; a stripe survives as long as
        // its unavailable units stay within that parity count.
        let first_parity = units.len() - self.mapping.parity_units_per_stripe() as usize;
        let mut data = 0u16;
        let mut parity = 0u16;
        for (i, &u) in units.iter().enumerate() {
            let gone = (u.disk == disk && u.offset == offset)
                || (Some(u.disk) == first
                    && match rebuilt {
                        Some(r) => !r[u.offset as usize],
                        None => true,
                    });
            if gone {
                if i >= first_parity {
                    parity += 1;
                } else {
                    data += 1;
                }
            }
        }
        self.scratch_units = units;
        Some((stripe, data, parity))
    }

    // --- Crash (write-hole) injection ------------------------------------

    /// Power is cut: classify every in-flight operation, record the torn
    /// and dirty stripe sets, and end the run.
    pub(super) fn on_crash(&mut self, now: SimTime) {
        let failed_disk = self.fault.failed();
        let mut torn: Vec<u64> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        for (_, op) in self.ops.iter() {
            // An op is *going to* write if a write phase is in flight now
            // or queued behind the current read phase; reconstruction and
            // piggyback ops write the rebuilt unit they carry.
            let writes = op.writing
                || op.phase2.iter().any(|io| io.kind == IoKind::Write)
                || op.mark_rebuilt.is_some();
            if !writes {
                continue;
            }
            // Torn: a write phase with some accesses landed and some not —
            // the stripe's parity update was half-applied. (An access
            // still in service at the cut did not land.)
            let landed = op.phase_size - op.outstanding;
            let is_torn = op.writing && landed > 0 && op.outstanding > 0;
            let mark = |list: &mut Vec<u64>| match (&op.role, op.mark_rebuilt, op.span) {
                (Role::Scrub { stripe, .. }, _, _) => list.push(*stripe),
                (_, Some(offset), _) => {
                    let failed = failed_disk.expect("rebuild writes imply a failed disk");
                    if let Some(stripe) = self.mapping.role_at(failed, offset).stripe() {
                        list.push(stripe);
                    }
                }
                (_, None, Some((start, count))) => {
                    for logical in start..start + count {
                        list.push(self.mapping.logical_to_stripe(logical).0);
                    }
                }
                (_, None, None) => {}
            };
            mark(&mut dirty);
            if is_torn {
                mark(&mut torn);
            }
        }
        torn.sort_unstable();
        torn.dedup();
        dirty.sort_unstable();
        dirty.dedup();
        self.crash = Some(CrashReport {
            at: now,
            torn_stripes: torn,
            dirty_stripes: dirty,
            failed_disk,
        });
        // Power is gone: every queued or in-service access is abandoned
        // where it stood. The run ends here.
        self.terminal_at = Some(now);
    }
}
