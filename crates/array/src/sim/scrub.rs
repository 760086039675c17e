//! The patrol-read scrubber: idle-time verify cycles over every stripe.

use super::{ArraySim, Event, Op, Role};
use crate::plan::PlannedIo;
use crate::report::ScrubReport;
use decluster_disk::IoKind;
use decluster_sim::probe::Probe;
use decluster_sim::SimTime;

/// Patrol-read scrubber state (present only when
/// [`crate::ScrubConfig::enabled`]).
#[derive(Debug, Default)]
pub(super) struct Scrub {
    /// Next stripe (by mapping sequence index) to verify.
    pub(super) cursor: u64,
    /// Verify cycles currently in flight.
    pub(super) active: u32,
    /// Accumulated statistics, moved into the run report at the end.
    pub(super) report: ScrubReport,
}

impl<P: Probe> ArraySim<P> {
    // --- Patrol-read scrubbing -------------------------------------------

    /// Arms the scrub kick chain at run start (one self-perpetuating
    /// event; each kick schedules the next).
    pub(super) fn schedule_first_scrub_kick(&mut self) {
        if self.scrub.is_some() {
            self.queue.schedule(
                SimTime::from_us(self.cfg.scrub.interval_us),
                Event::ScrubKick,
            );
        }
    }

    /// One tick of the patrol: back off if users are in flight, otherwise
    /// claim the next stripe for verification (bounded by the in-flight
    /// cycle cap), and schedule the next tick.
    pub(super) fn on_scrub_kick(&mut self, now: SimTime) {
        if now >= self.arrival_cutoff {
            return; // run is draining: stop the kick chain so it can end
        }
        let Some(scrub) = &mut self.scrub else {
            return;
        };
        if self.user_inflight > 0 {
            // Not an idle window: yield to user traffic (the throttle that
            // bounds response-time degradation).
            scrub.report.backoffs += 1;
            self.queue.schedule(
                now + SimTime::from_us(self.cfg.scrub.backoff_us),
                Event::ScrubKick,
            );
            return;
        }
        let interval = SimTime::from_us(self.cfg.scrub.interval_us);
        self.queue.schedule(now + interval, Event::ScrubKick);
        if scrub.active >= self.cfg.scrub.max_outstanding {
            return; // at the outstanding-I/O cap: try again next tick
        }
        let stripes = self.mapping.stripes();
        if stripes == 0 {
            return;
        }
        let seq = scrub.cursor;
        scrub.cursor += 1;
        if scrub.cursor == stripes {
            scrub.cursor = 0;
            scrub.report.passes += 1;
        }
        let stripe = self.mapping.stripe_by_seq(seq);
        self.start_scrub_cycle(stripe, now);
    }

    /// Launches one verify cycle: background-priority reads of every
    /// available unit of `stripe`. Latent errors surface as media errors
    /// and are repaired in [`ArraySim::on_media_error`].
    fn start_scrub_cycle(&mut self, stripe: u64, now: SimTime) {
        // The failed slot is unreadable (degraded / distributed sparing)
        // or partially garbage (replacement mid-rebuild): the patrol
        // verifies survivors only.
        let skip = self.fault.failed();
        let mut units = std::mem::take(&mut self.scratch_units);
        let mut phase1 = std::mem::take(&mut self.scratch_ios);
        units.clear();
        phase1.clear();
        self.mapping.stripe_units_into(stripe, &mut units);
        phase1.extend(
            units
                .iter()
                .filter(|u| Some(u.disk) != skip)
                .map(|&u| PlannedIo {
                    disk: u.disk,
                    offset: u.offset,
                    kind: IoKind::Read,
                }),
        );
        if !phase1.is_empty() {
            let scrub = self.scrub.as_mut().expect("scrub cycle without scrubber");
            scrub.active += 1;
            scrub.report.units_read += phase1.len() as u64;
            let role = Role::Scrub {
                stripe,
                started: now,
            };
            self.launch(Op::new(role, None, Vec::new(), None, None), &phase1, now);
        }
        units.clear();
        phase1.clear();
        self.scratch_units = units;
        self.scratch_ios = phase1;
    }

    /// A verify cycle resolved (all reads landed, or the op was dropped by
    /// a mid-run disk failure): release its in-flight slot.
    pub(super) fn finish_scrub_cycle(&mut self) {
        if let Some(scrub) = &mut self.scrub {
            scrub.active -= 1;
            scrub.report.stripes_scanned += 1;
        }
    }

    /// Unhealed latent defects over the mapped sectors of every live disk
    /// except the (first) failed slot — `None` when media faults are off.
    /// Under a dedicated replacement the failed slot is excluded too: the
    /// swapped-in drive re-derives the same defect pattern from its label,
    /// which would double-count the dead disk's defects.
    pub(super) fn exposed_defects(&self, first_failed: Option<u16>) -> Option<u64> {
        if !self.cfg.media_faults.is_active() {
            return None;
        }
        let mapped_sectors = self.mapping.units_per_disk() * self.cfg.unit_sectors as u64;
        Some(
            self.disks
                .iter()
                .filter(|d| Some(d.label() as u16) != first_failed && !d.is_failed())
                .map(|d| d.count_defective(mapped_sectors))
                .sum(),
        )
    }
}
