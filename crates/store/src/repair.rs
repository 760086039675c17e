//! The survival machinery over the disk backends: verified unit reads
//! with bounded retry, parity read-repair, hedged degraded-reads for
//! limping disks, and the whole-array scrub.
//!
//! Every internal unit read of the store funnels through
//! [`BlockStore::read_unit_verified`]:
//!
//! 1. read the unit, verify its per-unit checksum;
//! 2. on an `EIO`-class failure, retry with backoff (transient faults
//!    resolve here); a checksum mismatch skips retry — the bytes came
//!    back "successfully" wrong and rereading cannot help;
//! 3. reconstruct the unit from the stripe's other members and write
//!    it back (read-repair: clears persistent bad sectors, refreshes
//!    the checksum slot);
//! 4. if the stripe's redundancy is already spent — a member lost or a
//!    peer faulty — escalate the original error
//!    as a typed [`StoreError::Media`]. Never wrong bytes.
//!
//! A multi-unit read's run `pread` ([`BlockStore::read_run_verified`])
//! climbs the same ladder: a failed call is one media detection, the
//! whole run is retried, and then its units are read one by one, each
//! failing unit read-repaired as in step 3 or escalated as in step 4.
//!
//! Each detection increments exactly one of the checksum/media
//! counters and resolves as exactly one retry-success, repair, or
//! escalation — the ledger the torture harness balances against the
//! fault plan's injection counters.

use crate::error::{MediaKind, Result, StoreError};
use crate::lock;
use crate::store::BlockStore;
use decluster_core::layout::UnitAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retries after an `EIO`-class read failure before read-repair.
const READ_RETRIES: usize = 2;
/// Backoff before each retry.
const RETRY_BACKOFF: [Duration; READ_RETRIES] =
    [Duration::from_micros(500), Duration::from_millis(1)];

/// What a scrub pass over the whole array found and did.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Stripe units scanned (data and parity).
    pub units_scanned: u64,
    /// Units whose read failed with a media (`EIO`/short-I/O) error.
    pub media_errors: u64,
    /// Units whose contents failed checksum verification.
    pub checksum_errors: u64,
    /// Faulty units corrected in place from parity.
    pub repaired: u64,
    /// Faulty units that could not be corrected.
    pub escalated: u64,
    /// `(disk, offset)` of faulty units: every one found when
    /// report-only, the uncorrectable ones when repairing.
    pub failures: Vec<(u16, u64)>,
}

impl ScrubReport {
    /// Total faults the pass detected.
    pub fn faults(&self) -> u64 {
        self.media_errors + self.checksum_errors
    }
}

/// Whether `err` is a checksum mismatch: the read "succeeded" with
/// wrong bytes, so retrying cannot help.
fn is_checksum(err: &StoreError) -> bool {
    matches!(
        err,
        StoreError::Media {
            kind: MediaKind::Checksum,
            ..
        }
    )
}

impl BlockStore {
    /// Charges one detected fault to `disk`: the checksum or media
    /// counter, and the disk's error budget.
    fn note_fault(&self, disk: u16, is_checksum: bool) {
        if is_checksum {
            self.health.note_checksum_error();
        } else {
            self.health.note_media_error();
        }
        self.health.record_fault(disk);
    }

    /// One backend read of the units contiguous from `offset` on
    /// `disk`, unverified. The call's whole latency is one sample of
    /// the disk's EWMA, however many units it covers: the latency a
    /// limping disk adds is per call, not per unit.
    fn timed_read(&self, disk: u16, offset: u64, out: &mut [u8]) -> Result<()> {
        let t = Instant::now();
        let res = self.disks[disk as usize].read_units(offset, out, self.unit_bytes);
        self.health
            .record_read_latency(disk, t.elapsed().as_secs_f64() * 1e6);
        res
    }

    /// One read attempt: raw read (latency sampled into the disk's
    /// EWMA), then checksum verification.
    fn timed_read_checked(&self, addr: UnitAddr, out: &mut [u8]) -> Result<()> {
        self.timed_read(addr.disk, addr.offset, out)?;
        self.disks[addr.disk as usize].check_sum(addr.offset, out)
    }

    /// The retry ladder shared by unit and run reads: `attempt` fills
    /// `out`; its first failure is one detection charged to `disk`. An
    /// `EIO`-class failure is retried with backoff, a success counting
    /// as one retry success; a checksum mismatch, or a failure that
    /// outlasts the retries, is handed to `resolve`.
    fn read_with_retry(
        &self,
        disk: u16,
        out: &mut [u8],
        mut attempt: impl FnMut(&mut [u8]) -> Result<()>,
        resolve: impl FnOnce(&mut [u8], StoreError) -> Result<()>,
    ) -> Result<()> {
        let Err(first) = attempt(out) else {
            return Ok(());
        };
        let is_checksum = is_checksum(&first);
        self.note_fault(disk, is_checksum);
        let mut last = first;
        if !is_checksum {
            // EIO-class: the medium may answer on a second try. A
            // checksum mismatch is not retried — the read "succeeded",
            // the bytes are wrong, and only parity can fix that.
            for delay in RETRY_BACKOFF {
                self.health.note_retry();
                std::thread::sleep(delay);
                match attempt(out) {
                    Ok(()) => {
                        self.health.note_retry_success();
                        return Ok(());
                    }
                    Err(e) => last = e,
                }
            }
        }
        resolve(out, last)
    }

    /// Reads the unit at `addr` with full fault handling: checksum
    /// verification, bounded retry on `EIO`, then parity read-repair.
    /// The caller holds the stripe lock.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError::Media`] when the fault could not be
    /// resolved (escalation) — never silently wrong bytes.
    pub(crate) fn read_unit_verified(&self, addr: UnitAddr, out: &mut [u8]) -> Result<()> {
        self.read_with_retry(
            addr.disk,
            out,
            |out| self.timed_read_checked(addr, out),
            |out, last| self.repair_unit(addr, out, last),
        )
    }

    /// Reads the run of units contiguous from `offset` on `disk` in one
    /// backend call, unverified: the caller checks each unit's checksum.
    /// A failed call is one media detection, resolved by the ladder of
    /// [`BlockStore::read_unit_verified`] applied to the run: retry the
    /// whole run, then read its units one by one and read-repair each
    /// one that fails. The caller holds the locks of every stripe the
    /// run touches.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::read_unit_verified`].
    pub(crate) fn read_run_verified(&self, disk: u16, offset: u64, out: &mut [u8]) -> Result<()> {
        self.read_with_retry(
            disk,
            out,
            |out| self.timed_read(disk, offset, out),
            |out, _| self.repair_run(disk, offset, out),
        )
    }

    /// The run ladder's last rung. The run's detection is charged to
    /// its first unit that fails on its own; each further failing unit
    /// is a detection of its own. Each is read-repaired. If every unit
    /// reads clean, the fault cleared between calls: one retry success.
    fn repair_run(&self, disk: u16, offset: u64, out: &mut [u8]) -> Result<()> {
        let mut charged = false;
        for (k, unit) in out.chunks_exact_mut(self.unit_bytes).enumerate() {
            let addr = UnitAddr::new(disk, offset + k as u64);
            let Err(e) = self.timed_read(disk, addr.offset, unit) else {
                continue;
            };
            if charged {
                self.note_fault(disk, false);
            }
            charged = true;
            self.repair_unit(addr, unit, e)?;
        }
        if !charged {
            self.health.note_retry_success();
        }
        Ok(())
    }

    /// Read-repair: reconstructs the unit at `addr` from the XOR of
    /// its stripe peers and writes it back (clearing a persistent bad
    /// sector, refreshing the checksum slot). Escalates `cause` when
    /// the stripe has no redundancy left to repair from.
    pub(crate) fn repair_unit(
        &self,
        addr: UnitAddr,
        out: &mut [u8],
        cause: StoreError,
    ) -> Result<()> {
        let Some(stripe) = self.mapping.role_at(addr.disk, addr.offset).stripe() else {
            self.health.note_escalated();
            return Err(cause);
        };
        let units = self.mapping.stripe_units(stripe);
        let Some(pos) = units.iter().position(|u| u.disk == addr.disk) else {
            self.health.note_escalated();
            return Err(cause);
        };
        let lost = self.lost_flags(&units);
        let erased = lost
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l && i != pos)
            .count();
        if erased + 1 > self.parity_units() as usize {
            // Beyond the stripe's fault budget: counting the bad unit,
            // more members are gone than the parity can recover.
            self.health.note_escalated();
            return Err(cause);
        }
        let peers_read = match self.reconstruct_unit(&units, &lost, pos, out, false) {
            Ok(reads) => reads,
            // A faulty peer while repairing: double fault.
            Err(_) => {
                self.health.note_escalated();
                return Err(cause);
            }
        };
        if let Err(e) = self.disks[addr.disk as usize].write_unit(addr.offset, out) {
            self.health.note_escalated();
            return Err(e);
        }
        self.health.note_repair(peers_read, 1);
        Ok(())
    }

    /// The hedged read for a limping disk: a detached thread reads the
    /// primary while this thread races it with parity reconstruction
    /// (the paper's redirection of reads, repurposed as a tail-latency
    /// defense). First clean result wins. The caller holds the stripe
    /// lock, so the stripe cannot change under either leg.
    pub(crate) fn read_unit_hedged(
        &self,
        stripe: u64,
        addr: UnitAddr,
        out: &mut [u8],
    ) -> Result<()> {
        self.health.note_hedged_read();
        let primary = Arc::clone(&self.disks[addr.disk as usize]);
        let (tx, rx) = mpsc::channel();
        let offset = addr.offset;
        let unit_bytes = self.unit_bytes;
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut buf = vec![0u8; unit_bytes];
            let res = primary.read_checked(offset, &mut buf).map(|()| buf);
            let _ = tx.send((res, started.elapsed()));
        });
        let reconstructed = (|| -> Result<()> {
            let units = self.mapping.stripe_units(stripe);
            let pos = units
                .iter()
                .position(|u| u.disk == addr.disk)
                .ok_or_else(|| StoreError::state("hedged unit not in its stripe".to_string()))?;
            let lost = vec![false; units.len()];
            self.reconstruct_unit(&units, &lost, pos, out, false)?;
            Ok(())
        })();
        match reconstructed {
            Ok(()) => match rx.try_recv() {
                // The primary finished first and clean: its bytes win,
                // and its (healthy) latency feeds the EWMA so a disk
                // that stops limping sheds the flag.
                Ok((Ok(buf), lat)) => {
                    self.health
                        .record_read_latency(addr.disk, lat.as_secs_f64() * 1e6);
                    out.copy_from_slice(&buf);
                    Ok(())
                }
                // The primary finished first but errored:
                // reconstruction stands.
                Ok((Err(_), lat)) => {
                    self.health
                        .record_read_latency(addr.disk, lat.as_secs_f64() * 1e6);
                    self.health.note_hedge_win();
                    Ok(())
                }
                // Reconstruction beat the limping primary — the hedge
                // paid off. The straggler's result is discarded when it
                // lands.
                Err(_) => {
                    self.health.note_hedge_win();
                    Ok(())
                }
            },
            // Reconstruction failed (a peer fault): wait out the
            // primary after all.
            Err(e) => match rx.recv() {
                Ok((Ok(buf), lat)) => {
                    self.health
                        .record_read_latency(addr.disk, lat.as_secs_f64() * 1e6);
                    out.copy_from_slice(&buf);
                    Ok(())
                }
                _ => Err(e),
            },
        }
    }

    /// Scans every unit of every mapped stripe, verifying media and
    /// checksums. With `repair` set, faulty units are corrected in
    /// place from parity and the checksum region persisted; without
    /// it, the pass only reports — neither the disks nor the fault
    /// counters are touched.
    ///
    /// # Errors
    ///
    /// Fails if persisting the checksum region fails. Per-unit faults
    /// land in the report, not the error.
    pub fn scrub(&self, repair: bool) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut buf = self.buffers.get();
        for seq in 0..self.mapping.stripes() {
            let stripe = self.mapping.stripe_by_seq(seq);
            let _guard = self.lock_stripe(stripe);
            let units = self.mapping.stripe_units(stripe);
            for u in &units {
                if self.is_degraded() && lock(&self.state).is_lost(*u) {
                    continue;
                }
                report.units_scanned += 1;
                let res = self.disks[u.disk as usize].read_checked(u.offset, &mut buf);
                let Err(err) = res else { continue };
                let is_checksum = is_checksum(&err);
                if is_checksum {
                    report.checksum_errors += 1;
                } else {
                    report.media_errors += 1;
                }
                if repair {
                    self.note_fault(u.disk, is_checksum);
                    match self.repair_unit(*u, &mut buf, err) {
                        Ok(()) => report.repaired += 1,
                        Err(_) => {
                            report.escalated += 1;
                            report.failures.push((u.disk, u.offset));
                        }
                    }
                } else {
                    report.failures.push((u.disk, u.offset));
                }
            }
        }
        if repair {
            self.persist_all_sums()?;
        }
        Ok(report)
    }
}
