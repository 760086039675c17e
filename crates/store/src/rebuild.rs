//! Failure and rebuild: error-budget demotion, `fail_disk`,
//! `replace_disk`, and the online rebuild whose per-disk read counters
//! measure the paper's α.

use crate::error::{Result, StoreError};
use crate::lock;
use crate::store::{BlockStore, FaultState};
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What an online rebuild did, with the per-disk I/O that proves the
/// declustering ratio.
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// The disks that were rebuilt, in failure order.
    pub failed_disks: Vec<u16>,
    /// Units reconstructed from surviving stripes.
    pub units_rebuilt: u64,
    /// Units skipped because degraded-mode writes had already placed
    /// them on the replacement.
    pub units_already_valid: u64,
    /// Unmapped holes skipped.
    pub units_unmapped: u64,
    /// Units read from each disk during the rebuild window.
    pub disk_reads: Vec<u64>,
    /// Units written to each disk during the rebuild window.
    pub disk_writes: Vec<u64>,
    /// Mapped (non-hole) units on each disk — the denominator of the
    /// per-disk read fraction.
    pub mapped_units_per_disk: Vec<u64>,
    /// The layout's declustering ratio α = (G−1)/(C−1): the predicted
    /// fraction of each surviving disk read by the rebuild.
    pub alpha: f64,
    /// Wall-clock time of the rebuild: the sweep plus the completion
    /// (the rebuilt disks' syncs and the superblock writes).
    pub wall_secs: f64,
    /// Wall-clock time of the sweep alone; `wall_secs − sweep_secs` is
    /// the completion.
    pub sweep_secs: f64,
}

impl RebuildReport {
    /// Fraction of `disk`'s mapped units the rebuild read — compare
    /// against [`RebuildReport::alpha`] for surviving disks.
    pub fn read_fraction(&self, disk: u16) -> f64 {
        let mapped = self.mapped_units_per_disk[disk as usize];
        if mapped == 0 {
            0.0
        } else {
            self.disk_reads[disk as usize] as f64 / mapped as f64
        }
    }
}

/// Per-worker tally of a rebuild range.
#[derive(Debug, Default, Clone, Copy)]
struct RebuildChunk {
    rebuilt: u64,
    already_valid: u64,
    unmapped: u64,
}

impl BlockStore {
    /// Applies a pending error-budget demotion, if one is flagged: the
    /// sick disk fails as through [`BlockStore::fail_disk`]. Called at
    /// operation boundaries.
    pub(crate) fn apply_pending_demotion(&self) -> Result<()> {
        if !self.health.pending_demotion() {
            return Ok(());
        }
        let Some(disk) = self.health.take_pending_demotion() else {
            return Ok(());
        };
        let _guards = self.lock_all_stripes();
        if !lock(&self.state).failed.is_empty() {
            // Already degraded (maybe by an operator fail_disk that
            // raced us): drop the flag rather than compound faults
            // automatically — a second failure is an operator call.
            return Ok(());
        }
        self.health.note_demotion();
        self.fail_locked(disk)
    }

    /// Fails a disk: the surviving superblocks record the degradation,
    /// then its medium (superblock included) is dropped. A P+Q array
    /// (`m = 2`) accepts a second failure while already degraded.
    ///
    /// # Errors
    ///
    /// Fails if `disk` is already failed, the array has already lost as
    /// many disks as its parity tolerates, `disk` is out of range, or a
    /// file operation fails.
    pub fn fail_disk(&self, disk: u16) -> Result<()> {
        if disk >= self.mapping.disks() {
            return Err(StoreError::state(format!("disk {disk} out of range")));
        }
        let _guards = self.lock_all_stripes();
        {
            let st = lock(&self.state);
            if st.slot(disk).is_some() {
                return Err(StoreError::state(format!("disk {disk} is already failed")));
            }
            let tolerated = self.parity_units() as usize;
            if st.failed.len() >= tolerated {
                return Err(StoreError::state(format!(
                    "array already degraded: {} of {tolerated} tolerated failures used",
                    st.failed.len()
                )));
            }
        }
        self.fail_locked(disk)
    }

    /// The failure transition, with every stripe lock held. The live
    /// disks sync before the superblocks: it is the last chance to make
    /// pre-failure writes durable with full redundancy, and recovery
    /// leaves a stripe with a failed member alone, so a torn write
    /// there would become a degraded write hole. Only once the
    /// superblocks record the failure is the medium truncated to
    /// nothing, so a read of it through a bug fails with EOF instead of
    /// returning stale bytes: truncated earlier, a crash would leave an
    /// unreadable superblock that no survivor marks failed, and `open`
    /// refuses that. The truncation is best effort and unsynced: the
    /// disk may be failing because its I/O errors, and `open` ignores a
    /// failed disk's file whatever it holds.
    fn fail_locked(&self, disk: u16) -> Result<()> {
        self.update_faults(|st| st.fail(disk));
        self.sync_live_disks()?;
        self.write_superblocks(false)?;
        let _ = self.disks[disk as usize].backend.set_len(0);
        Ok(())
    }

    /// Changes the fault state and sets the `degraded` mirror to match,
    /// with every stripe lock held.
    fn update_faults(&self, change: impl FnOnce(&mut FaultState)) {
        let mut st = lock(&self.state);
        change(&mut st);
        let degraded = !st.failed.is_empty();
        self.degraded.store(degraded, Ordering::Release);
    }

    /// Installs blank replacements for every failed disk that has none
    /// yet: each backing file is zeroed and given a fresh superblock;
    /// every mapped unit starts un-rebuilt.
    ///
    /// # Errors
    ///
    /// Fails if no disk is down, every failed disk already has a
    /// replacement, or a file operation fails.
    pub fn replace_disk(&self) -> Result<()> {
        let _guards = self.lock_all_stripes();
        let mut st = lock(&self.state);
        if st.failed.is_empty() {
            return Err(StoreError::state("no failed disk to replace".to_string()));
        }
        if st.failed.iter().all(|f| f.rebuilt.is_some()) {
            return Err(StoreError::state(
                "replacement already installed".to_string(),
            ));
        }
        let encoded = st.encoded();
        let units_per_disk = self.mapping.units_per_disk();
        let size = self.disks[0].data_start + units_per_disk * self.unit_bytes as u64;
        for f in st.failed.iter_mut().filter(|f| f.rebuilt.is_none()) {
            let d = &self.disks[f.disk as usize];
            d.backend
                .set_len(0)
                .and_then(|()| d.backend.set_len(size))
                .map_err(|e| StoreError::io("zero replacement disk", &d.path, e))?;
            d.sums.reset_zeroed(self.unit_bytes);
            d.write_superblock(&self.superblock(f.disk, encoded, false))?;
            d.persist_sums()?;
            f.rebuilt = Some(vec![false; units_per_disk as usize]);
        }
        Ok(())
    }

    /// Reconstructs every unit of the replacement disk online, fanned
    /// out over `threads` workers (`0` = one per core), while user I/O
    /// may proceed concurrently. Afterwards the array is fault-free.
    ///
    /// The report's per-disk read counters are the paper's claim made
    /// measurable: under a declustered layout each surviving disk is
    /// read for only α = (G−1)/(C−1) of its units.
    ///
    /// # Errors
    ///
    /// Fails if no replacement is installed or any disk I/O fails.
    pub fn rebuild(&self, threads: usize) -> Result<RebuildReport> {
        let failed: Vec<u16> = {
            let st = lock(&self.state);
            if st.failed.is_empty() {
                return Err(StoreError::state("no failed disk to rebuild".to_string()));
            }
            if st.failed.iter().any(|f| f.rebuilt.is_none()) {
                return Err(StoreError::state(
                    "install a replacement before rebuilding".to_string(),
                ));
            }
            st.failed.iter().map(|f| f.disk).collect()
        };
        let start = Instant::now();
        let before = self.io_counters();
        let workers = match threads {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            n => n,
        } as u64;
        let units = self.mapping.units_per_disk();
        let span = units.div_ceil(workers);
        // One contiguous offset range per worker; results come back in
        // range order, so the first error reported is the lowest range's.
        let chunks: Vec<Result<RebuildChunk>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * span;
                    let hi = units.min(lo + span);
                    let failed = &failed;
                    scope.spawn(move || self.rebuild_range(failed, lo, hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let sweep_secs = start.elapsed().as_secs_f64();
        let mut totals = RebuildChunk::default();
        for chunk in chunks {
            let chunk = chunk?;
            totals.rebuilt += chunk.rebuilt;
            totals.already_valid += chunk.already_valid;
            totals.unmapped += chunk.unmapped;
        }
        {
            let _guards = self.lock_all_stripes();
            self.update_faults(|st| st.failed.clear());
        }
        // Persist the rebuilt disks' checksum regions and data before
        // declaring the array fault-free: a crash between the two must
        // not leave a replacement's on-disk slots at their formatted
        // state. The survivors are not synced: every stripe is now
        // fault-free, and each unflushed user write on them is covered
        // by an intent bit made durable before it, so a crash resyncs
        // it with full redundancy.
        for &f in &failed {
            self.disks[f as usize].persist_sums()?;
            self.disks[f as usize].sync()?;
        }
        self.write_superblocks(false)?;
        // The rebuild returned the array to fault-free: the sick disks'
        // budgets (and any stale demotion flag) reset with it.
        self.health.reset_disk_faults();
        let _ = self.health.take_pending_demotion();
        let after = self.io_counters();
        let wall_secs = start.elapsed().as_secs_f64();
        Ok(RebuildReport {
            failed_disks: failed,
            units_rebuilt: totals.rebuilt,
            units_already_valid: totals.already_valid,
            units_unmapped: totals.unmapped,
            disk_reads: after
                .iter()
                .zip(&before)
                .map(|(a, b)| a.reads - b.reads)
                .collect(),
            disk_writes: after
                .iter()
                .zip(&before)
                .map(|(a, b)| a.writes - b.writes)
                .collect(),
            mapped_units_per_disk: self.mapped_units_per_disk(),
            alpha: self.spec.alpha(),
            wall_secs,
            sweep_secs,
        })
    }

    fn rebuild_range(&self, failed: &[u16], lo: u64, hi: u64) -> Result<RebuildChunk> {
        let mut chunk = RebuildChunk::default();
        let mut out = self.buffers.get();
        let m = self.parity_units() as usize;
        for offset in lo..hi {
            for &fd in failed {
                let Some(stripe) = self.mapping.role_at(fd, offset).stripe() else {
                    chunk.unmapped += 1;
                    continue;
                };
                let _guard = self.lock_stripe(stripe);
                {
                    let st = lock(&self.state);
                    // A degraded-mode write (or this stripe's earlier
                    // visit through its other failed member) may have
                    // landed this unit on the replacement already; a
                    // missing map means another path finished the
                    // rebuild.
                    let valid = st
                        .slot(fd)
                        .is_none_or(|f| f.rebuilt.as_ref().is_none_or(|r| r[offset as usize]));
                    if valid {
                        chunk.already_valid += 1;
                        continue;
                    }
                }
                // Decode the stripe once and install every still-lost
                // unit — on a P+Q stripe that lost two members, both are
                // recovered from one pass over the survivors. Survivor
                // reads are verified: a sick survivor would silently
                // corrupt the reconstruction, and with the stripe's
                // redundancy already spent a survivor fault escalates
                // as a typed error.
                let units = self.mapping.stripe_units(stripe);
                let lost = self.lost_flags(&units);
                let (data, _) = self.read_stripe_data(&units, &lost, true)?;
                let d = units.len() - m;
                for (pos, u) in units.iter().enumerate() {
                    if !lost[pos] {
                        continue;
                    }
                    if pos < d {
                        self.disks[u.disk as usize].write_unit(u.offset, &data[pos])?;
                    } else {
                        self.compute_parity_into((pos - d) as u16, &data, &mut out);
                        self.disks[u.disk as usize].write_unit(u.offset, &out)?;
                    }
                    if u.disk == fd {
                        chunk.rebuilt += 1;
                    }
                    lock(&self.state).mark_rebuilt(*u);
                }
            }
        }
        Ok(chunk)
    }
}
