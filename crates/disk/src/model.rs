//! The simulated disk: queueing, head motion, rotation, and transfers.

use crate::fault::{AccessOutcome, MediaFaultModel};
use crate::geometry::Geometry;
use crate::sched::{direction_after, pick_next, ArmDirection, SchedPolicy};
use crate::seek::SeekModel;
use decluster_sim::{OnlineStats, SimTime};
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes the medium.
///
/// The timing model treats them identically (as the paper's drive does);
/// the distinction matters for statistics and for the array's data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Transfer from the medium.
    Read,
    /// Transfer to the medium.
    Write,
}

/// Scheduling class of an access.
///
/// With priority scheduling enabled (an extension implementing the
/// paper's future-work "flexible prioritization scheme"), [`Priority::
/// Background`] accesses are only dispatched when no [`Priority::User`]
/// access is queued; within a class the head scheduler decides as usual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Priority {
    /// Foreground user work (the default).
    #[default]
    User,
    /// Deferrable background work (e.g. reconstruction accesses).
    Background,
}

/// One disk access: a contiguous run of sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskRequest {
    /// Caller-assigned tag returned in the [`Completion`].
    pub id: u64,
    /// First logical sector.
    pub start_sector: u64,
    /// Number of sectors transferred.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
    /// Scheduling class (only meaningful on disks created with
    /// [`Disk::with_priority_scheduling`]).
    pub priority: Priority,
}

impl DiskRequest {
    /// Creates a user-priority request.
    pub fn new(id: u64, start_sector: u64, sectors: u32, kind: IoKind) -> DiskRequest {
        DiskRequest {
            id,
            start_sector,
            sectors,
            kind,
            priority: Priority::User,
        }
    }

    /// Returns a copy with the given scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> DiskRequest {
        self.priority = priority;
        self
    }
}

/// A promise that request `id` finishes at time `at`; the caller schedules
/// a simulation event for that instant and then calls [`Disk::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The tag from the finished [`DiskRequest`].
    pub id: u64,
    /// Absolute completion time.
    pub at: SimTime,
}

/// Lifetime counters for one disk.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Completed accesses.
    pub ios: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Sectors transferred.
    pub sectors: u64,
    /// Total time the mechanism was busy, µs.
    pub busy_us: u64,
    /// Per-access service time (seek + latency + transfer), ms.
    pub service_ms: OnlineStats,
    /// Per-access queueing delay before service began, ms.
    pub queue_wait_ms: OnlineStats,
    /// Transient failures retried internally (see [`crate::fault`]).
    pub transient_retries: u64,
    /// Accesses that finished with a hard [`AccessOutcome::MediaError`].
    pub media_errors: u64,
}

impl DiskStats {
    /// Mechanism utilization over `elapsed` of simulated time.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            0.0
        } else {
            self.busy_us as f64 / elapsed.as_us() as f64
        }
    }
}

/// An in-service access.
#[derive(Debug, Clone, Copy)]
struct ActiveIo {
    id: u64,
    finish: SimTime,
    kind: IoKind,
    start_sector: u64,
    sectors: u32,
    arrived: SimTime,
    started: SimTime,
    outcome: AccessOutcome,
}

/// A finished access, returned by [`Disk::complete`]: the request's
/// identity plus its typed [`AccessOutcome`], so callers cannot mistake a
/// failed access for a successful one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedIo {
    /// The tag from the finished [`DiskRequest`].
    pub id: u64,
    /// Read or write.
    pub kind: IoKind,
    /// First logical sector of the transfer.
    pub start_sector: u64,
    /// Sectors transferred.
    pub sectors: u32,
    /// How the access finished.
    pub outcome: AccessOutcome,
}

/// A single simulated disk drive.
///
/// The disk is passive with respect to time: the caller owns the event
/// queue. [`Disk::submit`] hands in work and returns a [`Completion`] when
/// the disk was idle; the caller schedules an event for that instant and
/// calls [`Disk::complete`] when it fires, which may start the next queued
/// request (selected by the head scheduler) and return its completion.
///
/// Service time is *positional*: seek from the current cylinder, rotation
/// from the platter's current angle to the target sector, then a transfer
/// that pays track skew on every track boundary it crosses. Consecutive
/// sequential accesses therefore stream at near media rate, while a single
/// interposed random access costs a seek plus most of a rotation — the
/// non-work-preserving behaviour central to the paper's Section 8 results.
///
/// # Examples
///
/// ```
/// use decluster_disk::{Disk, DiskRequest, Geometry, IoKind};
/// use decluster_sim::SimTime;
///
/// let mut disk = Disk::new(Geometry::ibm0661(), 0);
/// let c1 = disk.submit(SimTime::ZERO, DiskRequest::new(1, 0, 8, IoKind::Write)).unwrap();
/// // Disk busy: the second submission queues.
/// assert!(disk.submit(SimTime::ZERO, DiskRequest::new(2, 8, 8, IoKind::Write)).is_none());
/// let (done, next) = disk.complete(c1.at);
/// assert_eq!(done.id, 1);
/// assert!(!done.outcome.is_error()); // no fault model: always Ok
/// let c2 = next.unwrap();
/// // A sequential follow-on needs no seek and no rotational re-sync: it
/// // streams at media rate (~0.29 ms per sector).
/// assert!((c2.at - c1.at) <= SimTime::from_ms(3));
/// ```
#[derive(Debug)]
pub struct Disk {
    geometry: Geometry,
    seek: SeekModel,
    policy: SchedPolicy,
    label: usize,
    head_cylinder: u32,
    direction: ArmDirection,
    queue: Vec<(u64, SimTime, DiskRequest)>,
    next_seq: u64,
    active: Option<ActiveIo>,
    stats: DiskStats,
    priority_scheduling: bool,
    failed: bool,
    faults: Option<MediaFaultModel>,
}

impl Disk {
    /// Creates an idle disk with CVSCAN scheduling, its head at cylinder 0.
    ///
    /// `label` identifies the disk in diagnostics (the array indexes disks
    /// 0..C−1).
    pub fn new(geometry: Geometry, label: usize) -> Disk {
        Disk::with_policy(geometry, label, SchedPolicy::default())
    }

    /// Creates an idle disk with an explicit head-scheduling policy.
    pub fn with_policy(geometry: Geometry, label: usize, policy: SchedPolicy) -> Disk {
        Disk {
            seek: SeekModel::fit(&geometry),
            geometry,
            policy,
            label,
            head_cylinder: 0,
            direction: ArmDirection::Up,
            queue: Vec::new(),
            next_seq: 0,
            active: None,
            stats: DiskStats::default(),
            priority_scheduling: false,
            failed: false,
            faults: None,
        }
    }

    /// Creates a disk that strictly prefers [`Priority::User`] requests: a
    /// [`Priority::Background`] request is only dispatched when no user
    /// request is queued. (Dispatch is non-preemptive: an in-service
    /// background access still finishes.)
    pub fn with_priority_scheduling(geometry: Geometry, label: usize, policy: SchedPolicy) -> Disk {
        let mut disk = Disk::with_policy(geometry, label, policy);
        disk.priority_scheduling = true;
        disk
    }

    /// Installs a media fault process (latent sector errors, transient
    /// failures with retry/backoff). Without one, every access returns
    /// [`AccessOutcome::Ok`] with zero overhead.
    pub fn set_fault_model(&mut self, faults: MediaFaultModel) {
        self.faults = Some(faults);
    }

    /// Remaps (heals) every defective sector in the range — the array's
    /// scrub-on-error recovery: after reconstructing the lost data from
    /// redundancy it rewrites the unit, reallocating the bad sector.
    pub fn heal(&mut self, start_sector: u64, sectors: u32) {
        if let Some(f) = self.faults.as_mut() {
            f.heal(start_sector, sectors);
        }
    }

    /// Unhealed latent defects in the disk's first `sectors` sectors
    /// (zero without a fault model). See
    /// [`MediaFaultModel::count_defective`].
    pub fn count_defective(&self, sectors: u64) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.count_defective(sectors))
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The diagnostic label given at construction.
    pub fn label(&self) -> usize {
        self.label
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Number of requests waiting (not counting one in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether an access is currently in service.
    pub fn is_busy(&self) -> bool {
        self.active.is_some()
    }

    /// Whether the disk has failed (see [`Disk::fail`]).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Fails the disk: the in-service access (if any) and every queued
    /// access are lost. Returns the ids of all lost accesses so the caller
    /// can abort or retry the operations that issued them. Any completion
    /// event already scheduled for the in-service access must be ignored
    /// (check [`Disk::is_failed`]).
    pub fn fail(&mut self) -> Vec<u64> {
        self.failed = true;
        let mut lost: Vec<u64> = self.active.take().map(|a| a.id).into_iter().collect();
        lost.extend(self.queue.drain(..).map(|(_, _, r)| r.id));
        lost
    }

    /// Submits an access at time `now`.
    ///
    /// Returns the completion promise if the disk was idle and service
    /// began immediately, or `None` if the request joined the queue (its
    /// completion will surface from a later [`Disk::complete`] call).
    ///
    /// # Panics
    ///
    /// Panics if the request overruns the end of the disk or transfers zero
    /// sectors.
    pub fn submit(&mut self, now: SimTime, request: DiskRequest) -> Option<Completion> {
        assert!(!self.failed, "disk {} has failed", self.label);
        assert!(request.sectors > 0, "zero-length disk request");
        assert!(
            request.start_sector + request.sectors as u64 <= self.geometry.total_sectors(),
            "request [{}, +{}) overruns disk of {} sectors",
            request.start_sector,
            request.sectors,
            self.geometry.total_sectors()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.active.is_some() {
            self.queue.push((seq, now, request));
            None
        } else {
            Some(self.start_service(now, now, request))
        }
    }

    /// Acknowledges that the in-service access finished at `now` (which must
    /// be the promised completion time) and, if work is queued, starts the
    /// next access chosen by the head scheduler.
    ///
    /// Returns the finished access — with its typed [`AccessOutcome`] —
    /// and the next completion, if any.
    ///
    /// # Panics
    ///
    /// Panics if the disk is idle or `now` differs from the promised time.
    pub fn complete(&mut self, now: SimTime) -> (CompletedIo, Option<Completion>) {
        let active = self.active.take().expect("complete() on an idle disk");
        assert_eq!(
            active.finish, now,
            "disk {}: completion event at {now} but io {} finishes at {}",
            self.label, active.id, active.finish
        );
        self.stats.ios += 1;
        match active.kind {
            IoKind::Read => self.stats.reads += 1,
            IoKind::Write => self.stats.writes += 1,
        }
        self.stats.sectors += active.sectors as u64;
        if active.outcome.is_error() {
            self.stats.media_errors += 1;
        }
        self.stats
            .service_ms
            .push((active.finish - active.started).as_ms_f64());
        self.stats
            .queue_wait_ms
            .push((active.started - active.arrived).as_ms_f64());

        // With priority scheduling, background requests are invisible to
        // the head scheduler while any user request waits.
        let user_waiting = self.priority_scheduling
            && self
                .queue
                .iter()
                .any(|(_, _, r)| r.priority == Priority::User);
        let candidates: Vec<(usize, (u64, u32))> = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, (_, _, r))| !user_waiting || r.priority == Priority::User)
            .map(|(i, &(seq, _, r))| (i, (seq, self.geometry.locate(r.start_sector).0)))
            .collect();
        let keys: Vec<(u64, u32)> = candidates.iter().map(|&(_, key)| key).collect();
        let next = pick_next(
            self.policy,
            &keys,
            self.head_cylinder,
            self.direction,
            self.geometry.cylinders,
        )
        .map(|chosen| self.queue.swap_remove(candidates[chosen].0))
        .map(|(_, arrived, req)| self.start_service(now, arrived, req));

        let done = CompletedIo {
            id: active.id,
            kind: active.kind,
            start_sector: active.start_sector,
            sectors: active.sectors,
            outcome: active.outcome,
        };
        (done, next)
    }

    /// Computes the service interval for `request` beginning at `now` and
    /// records it as the active access.
    ///
    /// With a fault model installed the interval folds in transient
    /// retries (each failed attempt costs one extra revolution plus an
    /// exponentially-growing backoff), and the access's [`AccessOutcome`]
    /// is decided here: reads covering a latent-defective sector — or any
    /// access exhausting its retries — finish as a hard media error, while
    /// writes remap the defects they cover.
    fn start_service(
        &mut self,
        now: SimTime,
        arrived: SimTime,
        request: DiskRequest,
    ) -> Completion {
        let mut service_us = self.service_time_us(now, &request);
        let mut outcome = AccessOutcome::Ok { retries: 0 };
        if let Some(faults) = self.faults.as_mut() {
            let (retries, exhausted) = faults.draw_attempts();
            if retries > 0 {
                let revolution_us =
                    self.geometry.sectors_per_track as f64 * self.geometry.sector_time_us();
                service_us += retries as f64 * revolution_us + faults.backoff_us(retries);
                self.stats.transient_retries += retries as u64;
            }
            outcome = if exhausted {
                AccessOutcome::MediaError {
                    sector: request.start_sector,
                }
            } else {
                match request.kind {
                    IoKind::Read => {
                        match faults.first_bad_sector(request.start_sector, request.sectors) {
                            Some(sector) => AccessOutcome::MediaError { sector },
                            None => AccessOutcome::Ok { retries },
                        }
                    }
                    IoKind::Write => {
                        faults.heal(request.start_sector, request.sectors);
                        AccessOutcome::Ok { retries }
                    }
                }
            };
        }
        let finish = now + SimTime::from_us(service_us.round() as u64);
        // The head ends where the transfer ends.
        let last = request.start_sector + request.sectors as u64 - 1;
        let (end_cyl, _, _) = self.geometry.locate(last);
        self.direction = direction_after(self.head_cylinder, end_cyl, self.direction);
        self.head_cylinder = end_cyl;
        self.stats.busy_us += finish.saturating_sub(now).as_us();
        self.active = Some(ActiveIo {
            id: request.id,
            finish,
            kind: request.kind,
            start_sector: request.start_sector,
            sectors: request.sectors,
            arrived,
            started: now,
            outcome,
        });
        Completion {
            id: request.id,
            at: finish,
        }
    }

    /// Positional service time in microseconds: seek + rotational latency +
    /// transfer (with skew on track crossings).
    fn service_time_us(&self, now: SimTime, request: &DiskRequest) -> f64 {
        let g = &self.geometry;
        let (cyl, _, sector) = g.locate(request.start_sector);
        let distance = cyl.abs_diff(self.head_cylinder);
        let seek_us = self.seek.seek_us(distance);

        let arrive_us = now.as_us() as f64 + seek_us;
        let track = g.track_of(request.start_sector);
        let target_slot = g.physical_slot(track, sector);
        let current_slot = g.slot_at_time(arrive_us);
        let spt = g.sectors_per_track as f64;
        let mut rot_sectors = (target_slot - current_slot).rem_euclid(spt);
        // Completion times are rounded to whole microseconds, so a perfectly
        // sequential follow-on can appear a fraction of a slot *past* its
        // target and would otherwise be charged a phantom full rotation.
        // Anything within a hundredth of a slot of alignment is aligned.
        const SLOT_EPSILON: f64 = 0.01;
        if rot_sectors > spt - SLOT_EPSILON {
            rot_sectors = 0.0;
        }
        let rot_us = rot_sectors * g.sector_time_us();

        let last = request.start_sector + request.sectors as u64 - 1;
        let crossings = g.track_of(last) - track;
        let transfer_us = (request.sectors as f64 + crossings as f64 * g.track_skew_sectors as f64)
            * g.sector_time_us();

        seek_us + rot_us + transfer_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(Geometry::ibm0661(), 0)
    }

    fn read(id: u64, sector: u64) -> DiskRequest {
        DiskRequest::new(id, sector, 8, IoKind::Read)
    }

    #[test]
    fn idle_disk_services_immediately() {
        let mut d = disk();
        let c = d.submit(SimTime::ZERO, read(1, 0)).unwrap();
        assert!(d.is_busy());
        assert_eq!(c.id, 1);
        // Head at cyl 0, target cyl 0: no seek, no rotation (slot 0 at t=0),
        // just 8 sectors of transfer.
        let expect = 8.0 * Geometry::ibm0661().sector_time_us();
        assert_eq!(c.at.as_us(), expect.round() as u64);
    }

    #[test]
    fn busy_disk_queues() {
        let mut d = disk();
        let c1 = d.submit(SimTime::ZERO, read(1, 0)).unwrap();
        assert!(d.submit(SimTime::ZERO, read(2, 160)).is_none());
        assert_eq!(d.queue_len(), 1);
        let (done, next) = d.complete(c1.at);
        assert_eq!(done.id, 1);
        assert!(next.is_some());
        assert_eq!(d.queue_len(), 0);
    }

    #[test]
    fn sequential_run_streams_near_media_rate() {
        // Issue 12 back-to-back sequential 4 KB writes; after the first, each
        // should take ~1 sector-aligned transfer with no rotation slip.
        let mut d = disk();
        let st = Geometry::ibm0661().sector_time_us();
        let mut completions = Vec::new();
        let first = d
            .submit(SimTime::ZERO, DiskRequest::new(0, 0, 8, IoKind::Write))
            .unwrap();
        for i in 1..12u64 {
            assert!(d
                .submit(SimTime::ZERO, DiskRequest::new(i, i * 8, 8, IoKind::Write))
                .is_none());
        }
        let mut next = Some(first);
        while let Some(c) = next {
            completions.push(c.at);
            let (_, n) = d.complete(c.at);
            next = n;
        }
        assert_eq!(completions.len(), 12);
        for w in completions.windows(2) {
            let delta = (w[1] - w[0]).as_us() as f64;
            // Either a pure transfer (~8 sectors) or a transfer plus a track
            // skew (~12 sectors); never a full-rotation slip (~48+).
            assert!(
                delta <= 13.0 * st,
                "sequential step took {delta} us (> {} us)",
                13.0 * st
            );
        }
    }

    #[test]
    fn random_interloper_causes_rotation_slip() {
        // Sequential writes, but a random far-away access interposed: the
        // write stream afterwards pays seek + rotational re-sync.
        let g = Geometry::ibm0661();
        let st = g.sector_time_us();
        let mut d = disk();
        let c1 = d
            .submit(SimTime::ZERO, DiskRequest::new(0, 0, 8, IoKind::Write))
            .unwrap();
        d.submit(SimTime::ZERO, DiskRequest::new(1, 8, 8, IoKind::Write));
        // Far-away random read lands mid-stream (earlier seq → FCFS within
        // CVSCAN same-score ties doesn't matter; distance decides).
        d.submit(
            SimTime::ZERO,
            DiskRequest::new(2, g.total_sectors() - 8, 8, IoKind::Read),
        );
        d.submit(SimTime::ZERO, DiskRequest::new(3, 16, 8, IoKind::Write));
        let mut times = vec![];
        let mut next = Some(c1);
        while let Some(c) = next {
            let (done, n) = d.complete(c.at);
            times.push((done.id, c.at));
            next = n;
        }
        // CVSCAN services near requests (8, 16) before the far one (id 2).
        let order: Vec<u64> = times.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
        // The far access costs at least a near-max seek.
        let far_service = times[3].1 - times[2].1;
        assert!(far_service.as_ms_f64() > 20.0, "far access {far_service}");
        let _ = st;
    }

    #[test]
    fn cvscan_reorders_queue() {
        let g = Geometry::ibm0661();
        let spc = g.sectors_per_cylinder();
        let mut d = disk();
        let c = d.submit(SimTime::ZERO, read(0, 0)).unwrap();
        // Queue: far, near — CVSCAN should pick near first.
        d.submit(SimTime::ZERO, read(1, 900 * spc));
        d.submit(SimTime::ZERO, read(2, 10 * spc));
        let (_, next) = d.complete(c.at);
        assert_eq!(next.unwrap().id, 2);
    }

    #[test]
    fn fcfs_does_not_reorder() {
        let g = Geometry::ibm0661();
        let spc = g.sectors_per_cylinder();
        let mut d = Disk::with_policy(g, 0, SchedPolicy::Fcfs);
        let c = d.submit(SimTime::ZERO, read(0, 0)).unwrap();
        d.submit(SimTime::ZERO, read(1, 900 * spc));
        d.submit(SimTime::ZERO, read(2, 10 * spc));
        let (_, next) = d.complete(c.at);
        assert_eq!(next.unwrap().id, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        let c = d
            .submit(SimTime::ZERO, DiskRequest::new(1, 0, 8, IoKind::Write))
            .unwrap();
        d.submit(SimTime::ZERO, read(2, 4_000));
        let (_, next) = d.complete(c.at);
        let c2 = next.unwrap();
        d.complete(c2.at);
        let s = d.stats();
        assert_eq!(s.ios, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors, 16);
        assert!(s.busy_us > 0);
        assert_eq!(s.service_ms.count(), 2);
        // The queued request waited for the first one's service.
        assert!(s.queue_wait_ms.max() > 0.0);
        assert!(s.utilization(c2.at) > 0.9); // back-to-back: nearly always busy
    }

    #[test]
    fn average_random_service_matches_paper_rate() {
        // The paper says a disk does ~46 random 4 KB accesses/second flat
        // out: mean service ≈ 21.7 ms. Drive the disk saturated with
        // uniformly random requests and check the sustained rate.
        use decluster_sim::SimRng;
        let g = Geometry::ibm0661();
        let units = g.total_sectors() / 8;
        let mut rng = SimRng::new(7);
        let mut d = disk();
        let n = 4_000u64;
        let mut next = d
            .submit(SimTime::ZERO, read(0, rng.below(units) * 8))
            .unwrap();
        for i in 1..n {
            d.submit(SimTime::ZERO, read(i, rng.below(units) * 8));
        }
        let mut last;
        loop {
            last = next.at;
            let (_, nx) = d.complete(next.at);
            match nx {
                Some(c) => next = c,
                None => break,
            }
        }
        let rate = n as f64 / last.as_secs_f64();
        // CVSCAN over a deep queue beats single-request random service, so
        // the sustained rate lands above 46/s; the single-request average is
        // checked via the service-time mean below. With a 4000-deep queue
        // CVSCAN approaches SCAN-like efficiency.
        assert!(rate > 46.0, "saturated rate {rate}/s");
        assert!(rate < 260.0, "rate {rate}/s implausibly high");
    }

    #[test]
    fn single_random_access_near_217ms_mean() {
        // One-at-a-time random accesses (no queue to optimize): mean service
        // should be ≈ seek_avg + half rotation + transfer ≈ 21.7 ms, i.e.
        // ~46 accesses/s, the paper's figure.
        use decluster_sim::SimRng;
        let g = Geometry::ibm0661();
        let units = g.total_sectors() / 8;
        let mut rng = SimRng::new(11);
        let mut d = disk();
        let mut now = SimTime::ZERO;
        let n = 3_000u64;
        for i in 0..n {
            let c = d.submit(now, read(i, rng.below(units) * 8)).unwrap();
            now = c.at;
            d.complete(now);
        }
        let mean = d.stats().service_ms.mean();
        assert!(
            (mean - 21.7).abs() < 1.0,
            "mean random service {mean} ms, expected ~21.7"
        );
    }

    #[test]
    #[should_panic(expected = "overruns disk")]
    fn overrun_panics() {
        let g = Geometry::ibm0661();
        let mut d = disk();
        d.submit(SimTime::ZERO, read(0, g.total_sectors() - 4));
    }

    #[test]
    #[should_panic(expected = "idle disk")]
    fn complete_on_idle_panics() {
        disk().complete(SimTime::ZERO);
    }

    #[test]
    fn fail_drops_active_and_queued() {
        let mut d = disk();
        let c = d.submit(SimTime::ZERO, read(1, 0)).unwrap();
        d.submit(SimTime::ZERO, read(2, 160));
        d.submit(SimTime::ZERO, read(3, 320));
        let mut lost = d.fail();
        lost.sort_unstable();
        assert_eq!(lost, vec![1, 2, 3]);
        assert!(d.is_failed());
        assert!(!d.is_busy());
        assert_eq!(d.queue_len(), 0);
        let _ = c; // its completion event must now be ignored by the caller
    }

    #[test]
    #[should_panic(expected = "has failed")]
    fn submit_to_failed_disk_panics() {
        let mut d = disk();
        d.fail();
        d.submit(SimTime::ZERO, read(1, 0));
    }

    #[test]
    fn priority_scheduling_defers_background_work() {
        let g = Geometry::ibm0661();
        let spc = g.sectors_per_cylinder();
        let mut d = Disk::with_priority_scheduling(g, 0, SchedPolicy::cvscan());
        let c = d.submit(SimTime::ZERO, read(0, 0)).unwrap();
        // Background request much closer to the head than the user request.
        d.submit(
            SimTime::ZERO,
            DiskRequest::new(1, 2 * spc, 8, IoKind::Read).with_priority(Priority::Background),
        );
        d.submit(SimTime::ZERO, read(2, 800 * spc));
        let (_, next) = d.complete(c.at);
        // The far user request is served before the near background one.
        assert_eq!(next.unwrap().id, 2);
    }

    #[test]
    fn background_runs_when_no_user_waits() {
        let g = Geometry::ibm0661();
        let mut d = Disk::with_priority_scheduling(g, 0, SchedPolicy::cvscan());
        let c = d.submit(SimTime::ZERO, read(0, 0)).unwrap();
        d.submit(
            SimTime::ZERO,
            DiskRequest::new(1, 160, 8, IoKind::Read).with_priority(Priority::Background),
        );
        let (_, next) = d.complete(c.at);
        assert_eq!(next.unwrap().id, 1);
    }

    #[test]
    fn priority_ignored_without_flag() {
        let g = Geometry::ibm0661();
        let spc = g.sectors_per_cylinder();
        let mut d = disk(); // plain CVSCAN disk
        let c = d.submit(SimTime::ZERO, read(0, 0)).unwrap();
        d.submit(
            SimTime::ZERO,
            DiskRequest::new(1, 2 * spc, 8, IoKind::Read).with_priority(Priority::Background),
        );
        d.submit(SimTime::ZERO, read(2, 800 * spc));
        let (_, next) = d.complete(c.at);
        // Nearest wins regardless of class.
        assert_eq!(next.unwrap().id, 1);
    }

    #[test]
    fn read_over_defective_sector_surfaces_media_error() {
        use crate::fault::{AccessOutcome, MediaFaultConfig, MediaFaultModel};
        let cfg = MediaFaultConfig::none().with_latent_rate(0.02);
        let probe = MediaFaultModel::new(cfg, 0);
        let bad = (0..100_000).find(|&s| probe.latent_bad(s)).expect("defect");
        let mut d = disk();
        d.set_fault_model(MediaFaultModel::new(cfg, 0));
        let c = d.submit(SimTime::ZERO, read(1, bad)).unwrap();
        let (done, _) = d.complete(c.at);
        assert_eq!(done.outcome, AccessOutcome::MediaError { sector: bad });
        assert_eq!(d.stats().media_errors, 1);
    }

    #[test]
    fn write_heals_defective_sectors() {
        use crate::fault::{MediaFaultConfig, MediaFaultModel};
        let cfg = MediaFaultConfig::none().with_latent_rate(0.02);
        let probe = MediaFaultModel::new(cfg, 0);
        let bad = (0..100_000).find(|&s| probe.latent_bad(s)).expect("defect");
        let mut d = disk();
        d.set_fault_model(MediaFaultModel::new(cfg, 0));
        let c = d
            .submit(SimTime::ZERO, DiskRequest::new(1, bad, 8, IoKind::Write))
            .unwrap();
        let (done, _) = d.complete(c.at);
        assert!(!done.outcome.is_error(), "writes remap defects: {done:?}");
        // The same sector now reads clean.
        let c = d.submit(c.at, read(2, bad)).unwrap();
        let (done, _) = d.complete(c.at);
        assert!(!done.outcome.is_error());
        assert_eq!(d.stats().media_errors, 0);
    }

    #[test]
    fn transient_retries_add_latency_deterministically() {
        use crate::fault::{MediaFaultConfig, MediaFaultModel};
        let run = |rate: f64| {
            let mut d = disk();
            if rate > 0.0 {
                d.set_fault_model(MediaFaultModel::new(
                    MediaFaultConfig::none().with_transient_rate(rate),
                    0,
                ));
            }
            let mut now = SimTime::ZERO;
            for i in 0..500u64 {
                let c = d.submit(now, read(i, (i * 7919) % 100_000)).unwrap();
                now = c.at;
                d.complete(now);
            }
            (now, d.stats().transient_retries)
        };
        let (clean, r0) = run(0.0);
        assert_eq!(r0, 0);
        let (faulty_a, ra) = run(0.3);
        let (faulty_b, rb) = run(0.3);
        assert!(ra > 0, "30% transient rate over 500 ios must retry");
        assert!(faulty_a > clean, "retries must cost service time");
        assert_eq!((faulty_a, ra), (faulty_b, rb), "fault draws must replay");
    }

    #[test]
    fn zero_rate_model_is_byte_identical_to_none() {
        use crate::fault::{MediaFaultConfig, MediaFaultModel};
        let run = |with_model: bool| {
            let mut d = disk();
            if with_model {
                d.set_fault_model(MediaFaultModel::new(MediaFaultConfig::none(), 0));
            }
            let mut now = SimTime::ZERO;
            for i in 0..200u64 {
                let c = d.submit(now, read(i, (i * 977) % 50_000)).unwrap();
                now = c.at;
                d.complete(now);
            }
            now
        };
        assert_eq!(run(false), run(true));
    }
}
