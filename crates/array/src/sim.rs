//! The event-driven array simulator.

use crate::config::ArrayConfig;
use crate::plan::{plan_user_access_with, FaultView, OpPlan, PlannedIo};
use crate::report::{CrashReport, CycleStats, OpStats, ReconReport, RunReport};
use crate::slab::Slab;
use decluster_core::error::Error;
use decluster_core::layout::{ArrayMapping, ParityLayout, UnitAddr};
use decluster_disk::{AccessOutcome, Disk, DiskRequest, IoKind, MediaFaultModel, Priority};
use decluster_sim::probe::{DiskSample, NoProbe, OpClass, Probe};
use decluster_sim::{EventQueue, SimTime};
use decluster_workload::{trace::Trace, AccessKind, UserRequest, Workload, WorkloadSpec};
use std::sync::Arc;

mod faults;
mod recon;
mod scrub;
#[cfg(test)]
mod tests;

use faults::LossLog;
pub use faults::{CrashPlan, FaultPlan};
pub use recon::ReconOptions;
use recon::{Rebuild, RebuildCredit, ReconCycle};
use scrub::Scrub;

/// Low half of an io id: the issuing op's slot in the ops slab.
fn op_of_io(io_id: u64) -> u32 {
    (io_id & u32::MAX as u64) as u32
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The pending user request arrives.
    Arrival,
    /// The access in service at a disk completes.
    DiskDone(u16),
    /// A throttled reconstruction process wakes for its next cycle.
    ReconKick(usize),
    /// A disk fails mid-run (scheduled failure injection).
    DiskFail(u16),
    /// The patrol-read scrubber wakes to (maybe) verify the next stripe.
    ScrubKick,
    /// Power is cut ([`CrashPlan`]): in-flight writes tear and the run
    /// ends with a [`CrashReport`].
    Crash,
}

/// Whose work an in-flight op is. The paper's reconstruction algorithms
/// differ chiefly in which roles write the replacement disk: a sweep cycle
/// (`Recon`), a user write that carries `mark_rebuilt` (`User`/`Sub`) or
/// a piggyback write (`Piggyback`). User work runs at user priority; every
/// other role runs in the background.
#[derive(Debug)]
enum Role {
    /// A single-unit user access: its kind and arrival time.
    User(AccessKind, SimTime),
    /// One sub-plan of a multi-unit user access: the parent request's slot
    /// in the parents slab.
    Sub(u32),
    /// A reconstruction sweep cycle.
    Recon(ReconCycle),
    /// A patrol-read verify cycle of `stripe`, stamped with its start time
    /// so its duration can be observed.
    Scrub { stripe: u64, started: SimTime },
    /// A background write of a unit that an on-the-fly reconstruction
    /// rebuilt.
    Piggyback,
}

/// One in-flight operation.
#[derive(Debug)]
struct Op {
    role: Role,
    /// Disk accesses still in flight in the current phase.
    outstanding: u32,
    /// Accesses to issue when the current phase drains.
    phase2: Vec<PlannedIo>,
    /// Replacement-disk offset marked rebuilt when the op completes.
    mark_rebuilt: Option<u64>,
    /// Replacement-disk offset to piggyback-write after completion.
    piggyback: Option<u64>,
    /// The logical span a user op covers, for retry after a mid-run disk
    /// failure aborts it.
    span: Option<(u64, u64)>,
    /// Set when a disk failure dropped one of this op's accesses: the op
    /// drains its surviving accesses and is then retried.
    aborted: bool,
    /// Whether the phase currently in flight issues writes (phases are
    /// homogeneous: reads then writes). With `phase_size` this classifies
    /// the op at a crash: a write phase with some-but-not-all accesses
    /// landed is *torn*.
    writing: bool,
    /// Accesses the current phase started with (`outstanding` counts how
    /// many have not yet landed).
    phase_size: u32,
}

impl Op {
    /// An op in `role` whose first phase is about to be issued.
    fn new(
        role: Role,
        span: Option<(u64, u64)>,
        phase2: Vec<PlannedIo>,
        mark_rebuilt: Option<u64>,
        piggyback: Option<u64>,
    ) -> Self {
        Self {
            role,
            outstanding: 0,
            phase2,
            mark_rebuilt,
            piggyback,
            span,
            aborted: false,
            writing: false,
            phase_size: 0,
        }
    }
}

/// Where user requests come from.
#[derive(Debug)]
enum RequestSource {
    /// The synthetic generator (the paper's workload).
    Synthetic(Workload),
    /// Replay of a recorded trace; arrivals stop when it runs out.
    Trace(std::vec::IntoIter<UserRequest>),
}

impl RequestSource {
    fn next_request(&mut self) -> Option<UserRequest> {
        match self {
            RequestSource::Synthetic(w) => Some(w.next_request()),
            RequestSource::Trace(iter) => iter.next(),
        }
    }
}

/// Fault state of the array.
#[derive(Debug)]
enum Fault {
    None,
    Degraded { failed: u16 },
    Rebuilding(Box<Rebuild>),
}

impl Fault {
    /// The failed disk (under a dedicated replacement, the slot being
    /// rebuilt), if any.
    fn failed(&self) -> Option<u16> {
        match self {
            Fault::None => None,
            Fault::Degraded { failed } => Some(*failed),
            Fault::Rebuilding(r) => Some(r.failed),
        }
    }
}

/// A complete simulated array: disks, striping driver, workload, and (when
/// active) reconstruction.
///
/// A simulator instance runs exactly one scenario: configure it
/// (optionally [`ArraySim::fail_disk`] and
/// [`ArraySim::start_reconstruction`]), then consume it with
/// [`ArraySim::run_for`] or [`ArraySim::run_until_reconstructed`].
///
/// See the crate docs for an end-to-end example.
///
/// The `P` type parameter is the instrumentation [`Probe`]. It defaults
/// to [`NoProbe`], whose hooks are empty and compile away entirely, so
/// uninstrumented simulations pay nothing. Pass a
/// [`Recorder`](decluster_sim::Recorder) via [`ArraySim::new_probed`] to
/// capture latency histograms, per-disk utilization timelines, and an
/// optional event trace in the report's
/// [`observations`](RunReport::observations).
#[derive(Debug)]
pub struct ArraySim<P: Probe = NoProbe> {
    cfg: ArrayConfig,
    mapping: ArrayMapping,
    disks: Vec<Disk>,
    queue: EventQueue<Event>,
    source: RequestSource,
    pending_arrival: Option<UserRequest>,
    arrival_cutoff: SimTime,
    /// In-flight operations. A disk io's id encodes its op's slot in its
    /// low 32 bits (see [`ArraySim::issue`]), so completions find their op
    /// with one indexed load — no id→op map at all.
    ops: Slab<Op>,
    /// Multi-unit user requests awaiting their sub-plans:
    /// `(kind, arrival, outstanding sub-plans)`.
    parents: Slab<(AccessKind, SimTime, u32)>,
    /// Distinguishes ios of successive ops reusing the same slot (upper 32
    /// bits of each io id).
    io_seq: u32,
    fault: Fault,
    scheduled_failures: Vec<(u16, SimTime)>,
    loss: LossLog,
    /// Set when a failure beyond the single-failure tolerance ends the
    /// run: the time the fatal failure landed.
    terminal_at: Option<SimTime>,
    /// Patrol-read scrubber, when enabled by the configuration.
    scrub: Option<Scrub>,
    /// User requests in flight (arrived, not yet fully responded): the
    /// scrubber's idle detector.
    user_inflight: u32,
    /// Scheduled power loss, consumed when its event fires.
    crash_plan: Option<SimTime>,
    /// The write-hole state captured when the crash fired.
    crash: Option<CrashReport>,
    /// Scratch for stripe unit addresses, reused across events.
    scratch_units: Vec<UnitAddr>,
    /// Scratch for planned ios (reconstruction cycles), reused across
    /// events.
    scratch_ios: Vec<PlannedIo>,
    events_processed: u64,
    // Measurement.
    measure_from: SimTime,
    stats: OpStats,
    requests_issued: u64,
    requests_measured: u64,
    started: bool,
    /// Instrumentation hooks; [`NoProbe`] by default, in which case every
    /// call below is guarded by `P::ACTIVE` and compiles to nothing.
    probe: P,
}

impl ArraySim {
    /// Builds a simulator for `layout` with the paper's disk model.
    ///
    /// `seed_stream` distinguishes replicated runs of the same
    /// configuration (it is folded into the workload seed).
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// (see [`ArrayMapping::new`]).
    pub fn new(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        spec: WorkloadSpec,
        seed_stream: u64,
    ) -> Result<ArraySim, Error> {
        ArraySim::new_probed(layout, cfg, spec, seed_stream, NoProbe)
    }

    /// Builds a simulator that replays a recorded [`Trace`] instead of the
    /// synthetic generator. Arrivals stop when the trace is exhausted.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// or a trace request addresses units beyond the array's capacity.
    pub fn with_trace(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        trace: Trace,
    ) -> Result<ArraySim, Error> {
        ArraySim::with_trace_probed(layout, cfg, trace, NoProbe)
    }
}

impl<P: Probe> ArraySim<P> {
    /// [`ArraySim::new`] with an instrumentation `probe` attached; the
    /// probe's findings come back in the report's `observations`.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// (see [`ArrayMapping::new`]).
    pub fn new_probed(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        spec: WorkloadSpec,
        seed_stream: u64,
        probe: P,
    ) -> Result<ArraySim<P>, Error> {
        let mapping = ArrayMapping::new(layout, cfg.data_units_per_disk())?;
        let workload = Workload::new(
            spec,
            mapping.data_units(),
            cfg.seed ^ seed_stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let source = RequestSource::Synthetic(workload);
        Ok(Self::with_source(cfg, mapping, source, probe))
    }

    /// [`ArraySim::with_trace`] with an instrumentation `probe` attached.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// or a trace request addresses units beyond the array's capacity.
    pub fn with_trace_probed(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        trace: Trace,
        probe: P,
    ) -> Result<ArraySim<P>, Error> {
        let mapping = ArrayMapping::new(layout, cfg.data_units_per_disk())?;
        for r in trace.iter() {
            if r.logical_unit + r.units > mapping.data_units() {
                return Err(Error::BadParameters {
                    reason: format!(
                        "trace request [{}, +{}) beyond array capacity {}",
                        r.logical_unit,
                        r.units,
                        mapping.data_units()
                    ),
                });
            }
        }
        let source = RequestSource::Trace(trace.requests().to_vec().into_iter());
        Ok(Self::with_source(cfg, mapping, source, probe))
    }

    fn with_source(
        cfg: ArrayConfig,
        mapping: ArrayMapping,
        source: RequestSource,
        probe: P,
    ) -> ArraySim<P> {
        let disks: Vec<Disk> = (0..mapping.disks())
            .map(|d| Self::make_disk(&cfg, d as usize))
            .collect();
        // In-flight events are bounded by the disk count (one completion
        // per disk in service) plus arrivals, recon kicks, failure
        // injections, and the scrubber's self-rescheduling kick; a couple
        // of events per disk plus slack covers the working set without
        // ever regrowing the heap. `prepare_run` reserves for the
        // run-specific sources (failure plan, crash, recon kicks) once the
        // scenario is known.
        let queue = EventQueue::with_capacity(disks.len() * 2 + 64);
        ArraySim {
            cfg,
            mapping,
            disks,
            queue,
            source,
            pending_arrival: None,
            arrival_cutoff: SimTime::MAX,
            ops: Slab::new(),
            parents: Slab::new(),
            io_seq: 0,
            fault: Fault::None,
            scheduled_failures: Vec::new(),
            loss: LossLog::default(),
            terminal_at: None,
            scrub: cfg.scrub.enabled.then(Scrub::default),
            user_inflight: 0,
            crash_plan: None,
            crash: None,
            scratch_units: Vec::new(),
            scratch_ios: Vec::new(),
            events_processed: 0,
            measure_from: SimTime::ZERO,
            stats: OpStats::default(),
            requests_issued: 0,
            requests_measured: 0,
            started: false,
            probe,
        }
    }

    /// The array mapping in use.
    pub fn mapping(&self) -> &ArrayMapping {
        &self.mapping
    }

    fn make_disk(cfg: &ArrayConfig, label: usize) -> Disk {
        let mut disk = if cfg.recon_priority {
            Disk::with_priority_scheduling(cfg.geometry, label, cfg.sched)
        } else {
            Disk::with_policy(cfg.geometry, label, cfg.sched)
        };
        if cfg.media_faults.is_active() {
            disk.set_fault_model(MediaFaultModel::new(cfg.media_faults, label));
        }
        disk
    }

    fn invalid<T>(reason: impl Into<String>) -> Result<T, Error> {
        Err(Error::InvalidState {
            reason: reason.into(),
        })
    }

    /// Marks the run started and schedules every pre-planned event source
    /// (failure injections, the crash, the scrubber's first kick, the
    /// first arrival), reserving queue head-room for all of them up front
    /// so the event heap never regrows mid-run — the scrubber's backoff
    /// re-arm used to push past the initial capacity.
    fn prepare_run(&mut self) {
        self.started = true;
        let recon_processes = match &self.fault {
            Fault::Rebuilding(r) => r.processes,
            _ => 0,
        };
        self.queue.reserve(
            self.scheduled_failures.len()
                + usize::from(self.crash_plan.is_some())
                + if self.scrub.is_some() { 2 } else { 0 }
                + recon_processes
                + 1,
        );
        for &(disk, at) in &self.scheduled_failures {
            self.queue.schedule(at, Event::DiskFail(disk));
        }
        if let Some(at) = self.crash_plan {
            self.queue.schedule(at, Event::Crash);
        }
        self.schedule_first_scrub_kick();
        self.schedule_next_arrival();
    }

    /// One probe sampling pass over the disks, run after each dispatched
    /// event when the probe is active and its sampling interval elapsed.
    fn probe_disks(&mut self, now: SimTime) {
        if !self.probe.sample_due(now) {
            return;
        }
        for d in &self.disks {
            self.probe.disk_sample(
                now,
                DiskSample {
                    disk: d.label() as u16,
                    busy_us: d.stats().busy_us,
                    queue_depth: d.queue_len() as u32 + u32::from(d.is_busy()),
                },
            );
        }
    }

    /// Runs a steady-state scenario (fault-free or degraded): user requests
    /// arrive until `duration`, responses of requests arriving after
    /// `warmup` are measured, and the run drains before reporting.
    ///
    /// A scheduled failure beyond the single-failure tolerance ends the
    /// run early: `elapsed` is truncated to the fatal failure's time and
    /// the report's [`RunReport::data_loss`] lists the stripes lost.
    ///
    /// # Panics
    ///
    /// Panics if reconstruction was armed (use
    /// [`ArraySim::run_until_reconstructed`]) or `warmup >= duration`.
    pub fn run_for(mut self, duration: SimTime, warmup: SimTime) -> RunReport {
        assert!(
            !matches!(self.fault, Fault::Rebuilding(_)),
            "run_for is for steady-state scenarios"
        );
        assert!(warmup < duration, "warmup must precede duration");
        self.measure_from = warmup;
        self.arrival_cutoff = duration;
        self.prepare_run();

        while let Some((now, event)) = self.queue.pop() {
            self.dispatch(now, event);
            if P::ACTIVE {
                self.probe_disks(now);
            }
            if self.terminal_at.is_some() {
                break;
            }
        }

        let elapsed = self.terminal_at.unwrap_or(duration);
        let first_failed = self.fault.failed();
        let healthy: Vec<&Disk> = self
            .disks
            .iter()
            .filter(|d| Some(d.label() as u16) != first_failed && !d.is_failed())
            .collect();
        let mean_util = healthy
            .iter()
            .map(|d| d.stats().utilization(elapsed))
            .sum::<f64>()
            / healthy.len() as f64;
        let per_disk = self
            .disks
            .iter()
            .map(|d| d.stats().utilization(elapsed))
            .collect();
        let exposed = self.exposed_defects(first_failed);
        let observations = if P::ACTIVE {
            self.probe.collect(elapsed)
        } else {
            None
        };
        RunReport {
            ops: self.stats,
            elapsed,
            requests_issued: self.requests_issued,
            requests_measured: self.requests_measured,
            mean_disk_utilization: mean_util,
            per_disk_utilization: per_disk,
            events_processed: self.events_processed,
            data_loss: self.loss.into_report(),
            scrub: self.scrub.map(|s| s.report),
            crash: self.crash,
            exposed_defects: exposed,
            observations,
        }
    }

    /// Runs the reconstruction scenario: user requests flow continuously
    /// while the armed processes rebuild the replacement disk. Stops when
    /// the last unit is rebuilt, or at `limit`.
    ///
    /// Scheduled failures ([`ArraySim::inject_faults`]) fire mid-rebuild:
    /// a second whole-disk failure ends the run at its injection time with
    /// the stripes lost recorded in [`ReconReport::data_loss`]. When the
    /// rebuild completes before any pending failure fires, the run keeps
    /// serving user requests until the failure lands, so a post-completion
    /// failure verifies the restored redundancy (zero loss under a
    /// dedicated replacement).
    ///
    /// # Panics
    ///
    /// Panics if reconstruction was not armed.
    pub fn run_until_reconstructed(mut self, limit: SimTime) -> ReconReport {
        let processes = match &self.fault {
            Fault::Rebuilding(r) => r.processes,
            _ => panic!("run_until_reconstructed requires start_reconstruction"),
        };
        self.measure_from = SimTime::ZERO;
        // Disruptions the run must wait for even after the rebuild
        // finishes: scheduled failures and the planned crash.
        let mut pending_disruptions =
            self.scheduled_failures.len() + usize::from(self.crash_plan.is_some());
        self.prepare_run();
        for p in 0..processes {
            self.start_recon_cycle(p, SimTime::ZERO);
        }

        let mut finish = None;
        while let Some((now, event)) = self.queue.pop() {
            if now > limit {
                break;
            }
            if matches!(event, Event::DiskFail(_) | Event::Crash) {
                pending_disruptions -= 1;
            }
            self.dispatch(now, event);
            if P::ACTIVE {
                self.probe_disks(now);
            }
            if self.terminal_at.is_some() {
                break;
            }
            if let Fault::Rebuilding(r) = &self.fault {
                if let Some(t) = r.finished {
                    finish = Some(t);
                    if pending_disruptions == 0 {
                        break;
                    }
                }
            }
        }

        let end = self.terminal_at.or(finish).unwrap_or(limit);
        let exposed = self.exposed_defects(self.fault.failed());
        let Fault::Rebuilding(r) = self.fault else {
            unreachable!("the fault state stays Rebuilding for the whole run")
        };
        let distributed = r.spares.is_some();
        let survivors: Vec<&Disk> = self
            .disks
            .iter()
            .filter(|d| d.label() as u16 != r.failed && !d.is_failed())
            .collect();
        let survivor_util = survivors
            .iter()
            .map(|d| d.stats().utilization(end))
            .sum::<f64>()
            / survivors.len() as f64;
        let mut last_cycles = CycleStats::default();
        for &(read, write) in &r.recent {
            last_cycles.read_ms.push(read);
            last_cycles.write_ms.push(write);
        }
        let observations = if P::ACTIVE {
            self.probe.collect(end)
        } else {
            None
        };
        ReconReport {
            reconstruction_time: finish,
            ops: self.stats,
            cycles: r.cycles,
            last_cycles,
            units_swept: r.swept,
            units_by_users: r.by_users,
            units_lost: r.units_lost,
            units_total: r.target,
            progress: r.progress,
            survivor_utilization: survivor_util,
            replacement_utilization: if distributed || self.disks[r.failed as usize].is_failed() {
                0.0 // no (live) replacement disk exists
            } else {
                self.disks[r.failed as usize].stats().utilization(end)
            },
            events_processed: self.events_processed,
            data_loss: self.loss.into_report(),
            scrub: self.scrub.map(|s| s.report),
            crash: self.crash,
            exposed_defects: exposed,
            observations,
        }
    }

    // --- Event handling --------------------------------------------------

    fn dispatch(&mut self, now: SimTime, event: Event) {
        self.events_processed += 1;
        match event {
            Event::Arrival => self.on_arrival(now),
            Event::DiskDone(disk) => self.on_disk_done(disk, now),
            Event::ReconKick(process) => self.start_recon_cycle(process, now),
            Event::DiskFail(disk) => self.on_disk_fail(disk, now),
            Event::ScrubKick => self.on_scrub_kick(now),
            Event::Crash => self.on_crash(now),
        }
    }

    /// Plans one single-unit user access with the reusable scratch buffer
    /// (taken out for the call because the planner also borrows the fault
    /// state).
    fn plan_one(&mut self, kind: AccessKind, logical: u64) -> OpPlan {
        let mut units = std::mem::take(&mut self.scratch_units);
        let plan = plan_user_access_with(&self.mapping, kind, logical, self.view(), &mut units);
        self.scratch_units = units;
        plan
    }

    fn schedule_next_arrival(&mut self) {
        let Some(req) = self.source.next_request() else {
            return; // trace exhausted
        };
        if req.arrival >= self.arrival_cutoff {
            return;
        }
        self.queue.schedule(req.arrival, Event::Arrival);
        self.pending_arrival = Some(req);
    }

    fn on_arrival(&mut self, now: SimTime) {
        let req = self
            .pending_arrival
            .take()
            .expect("Arrival event without a pending request");
        debug_assert_eq!(req.arrival, now);
        self.requests_issued += 1;
        self.user_inflight += 1;
        if req.units == 1 {
            let plan = self.plan_one(req.kind, req.logical_unit);
            let role = Role::User(req.kind, now);
            self.launch_user(role, (req.logical_unit, 1), plan, now);
        } else {
            // Multi-unit access: the extent planner may merge fully covered
            // stripes into single large writes (criterion 5); the request
            // completes when every sub-plan does.
            let extent = crate::extent::plan_extent(
                &self.mapping,
                req.kind,
                req.logical_unit,
                req.units,
                self.view(),
            );
            let parent_id = self
                .parents
                .insert((req.kind, now, extent.plans.len() as u32));
            for (plan, span) in extent.plans.into_iter().zip(extent.spans) {
                self.launch_user(Role::Sub(parent_id), span, plan, now);
            }
        }
        self.schedule_next_arrival();
    }

    fn on_disk_done(&mut self, disk: u16, now: SimTime) {
        if self.disks[disk as usize].is_failed() {
            return; // stale completion event from before the failure
        }
        let (done, next) = self.disks[disk as usize].complete(now);
        if let Some(c) = next {
            self.queue.schedule(c.at, Event::DiskDone(disk));
        }
        let op_id = op_of_io(done.id);
        if let AccessOutcome::MediaError { .. } = done.outcome {
            self.on_media_error(op_id, disk, done.start_sector);
        }
        self.advance_op(op_id, now);
    }

    fn advance_op(&mut self, op_id: u32, now: SimTime) {
        let op = self.ops.get_mut(op_id).expect("op vanished mid-flight");
        op.outstanding -= 1;
        if op.outstanding > 0 {
            return;
        }
        if op.aborted {
            self.retry_op(op_id, now);
            return;
        }
        // A sweep cycle whose stripe proved unrecoverable skips its rebuild
        // write and resolves the offset as lost, so the sweep still
        // terminates.
        let lost = matches!(&op.role, Role::Recon(rc) if rc.lost);
        if !lost && !op.phase2.is_empty() {
            // Phase 1 drained: note the read-phase boundary for cycles and
            // launch the writes.
            if let Role::Recon(rc) = &mut op.role {
                rc.read_done = Some(now);
            }
            let ios = std::mem::take(&mut op.phase2);
            self.issue(op_id, &ios, now);
            return;
        }
        let op = self.ops.remove(op_id).expect("op vanished at completion");
        if let Role::User(kind, arrival) = op.role {
            self.finish_user_request(kind, arrival, now);
        }
        if let Some(offset) = op.mark_rebuilt {
            let credit = match op.role {
                Role::Recon(_) if lost => RebuildCredit::Lost,
                Role::Recon(_) => RebuildCredit::Sweep,
                _ => RebuildCredit::User,
            };
            self.mark_rebuilt(offset, now, credit);
        }
        if let Some(offset) = op.piggyback {
            self.spawn_piggyback_write(offset, now);
        }
        match op.role {
            Role::Sub(parent_id) => {
                let entry = self
                    .parents
                    .get_mut(parent_id)
                    .expect("sub-plan without a parent");
                entry.2 -= 1;
                if entry.2 == 0 {
                    let (kind, arrival, _) =
                        self.parents.remove(parent_id).expect("parent vanished");
                    self.finish_user_request(kind, arrival, now);
                }
            }
            Role::Recon(rc) => self.finish_recon_cycle(rc, now),
            Role::Scrub { started, .. } => {
                self.finish_scrub_cycle();
                if P::ACTIVE {
                    self.probe.latency(now, OpClass::Scrub, now - started);
                }
            }
            Role::User(..) | Role::Piggyback => {}
        }
    }

    /// A user request completed: it leaves the scrubber's idle detector
    /// and, if it arrived after warm-up, its response is recorded into the
    /// always-on [`OpStats`] and, when instrumentation is active, into the
    /// probe's per-class histograms.
    fn finish_user_request(&mut self, kind: AccessKind, arrival: SimTime, now: SimTime) {
        self.user_inflight -= 1;
        if arrival < self.measure_from {
            return;
        }
        let response = now - arrival;
        match kind {
            AccessKind::Read => {
                self.stats.record_read(response);
                if P::ACTIVE {
                    self.probe.latency(now, OpClass::UserRead, response);
                }
            }
            AccessKind::Write => {
                self.stats.record_write(response);
                if P::ACTIVE {
                    self.probe.latency(now, OpClass::UserWrite, response);
                }
            }
        }
        self.requests_measured += 1;
    }

    /// Starts a user op (a single-unit access or one sub-plan of a
    /// multi-unit one) running `plan` over the logical `span`.
    fn launch_user(&mut self, role: Role, span: (u64, u64), plan: OpPlan, now: SimTime) {
        let op = Op::new(
            role,
            Some(span),
            plan.phase2,
            plan.mark_rebuilt,
            plan.piggyback,
        );
        self.launch(op, &plan.phase1, now);
    }

    /// Takes `op` in flight and issues its first phase, `phase1`.
    fn launch(&mut self, op: Op, phase1: &[PlannedIo], now: SimTime) {
        let op_id = self.ops.insert(op);
        self.issue(op_id, phase1, now);
    }

    fn issue(&mut self, op_id: u32, ios: &[PlannedIo], now: SimTime) {
        assert!(!ios.is_empty(), "op {op_id} issued an empty phase");
        let priority = {
            let op = self.ops.get_mut(op_id).expect("issuing for unknown op");
            op.outstanding = ios.len() as u32;
            op.phase_size = ios.len() as u32;
            op.writing = ios.iter().any(|io| io.kind == IoKind::Write);
            match op.role {
                Role::User(..) | Role::Sub(_) => Priority::User,
                _ => Priority::Background,
            }
        };
        for io in ios {
            if let Fault::Rebuilding(r) = &self.fault {
                debug_assert!(
                    r.spares.is_none() || io.disk != r.failed,
                    "distributed sparing issued io to the dead disk {}",
                    r.failed
                );
            }
            // An io id carries its op's slot in the low half and a
            // sequence number in the high half: completions decode the op
            // directly, and concurrent ios of slot-reusing ops still get
            // distinct disk-request ids.
            let io_id = ((self.io_seq as u64) << 32) | op_id as u64;
            self.io_seq = self.io_seq.wrapping_add(1);
            let request = DiskRequest::new(
                io_id,
                io.offset * self.cfg.unit_sectors as u64,
                self.cfg.unit_sectors,
                io.kind,
            )
            .with_priority(priority);
            if let Some(c) = self.disks[io.disk as usize].submit(now, request) {
                self.queue.schedule(c.at, Event::DiskDone(io.disk));
            }
        }
    }

    fn view(&self) -> FaultView<'_> {
        match &self.fault {
            Fault::None => FaultView::FaultFree,
            Fault::Degraded { failed } => FaultView::Degraded { failed: *failed },
            Fault::Rebuilding(r) => FaultView::Rebuilding {
                failed: r.failed,
                algorithm: r.algorithm,
                rebuilt: &r.rebuilt,
                spares: r.spares.as_ref(),
            },
        }
    }
}
