//! Failure and rebuild: error-budget demotion, `fail_disk`,
//! `replace_disk`, and the online rebuild whose per-disk read counters
//! measure the paper's α.

use crate::error::{Result, StoreError};
use crate::io::{disk_runs, Decode};
use crate::lock;
use crate::store::{BlockStore, FaultState};
use decluster_core::layout::UnitAddr;
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
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

/// Offsets of each failed disk one rebuild window covers. A window
/// holds the lock buckets of at most this many stripes per failed disk
/// (of 1,024) for its reads, decodes and writes, so user I/O to those
/// stripes waits out one window's I/O; at 32 the user write p90 of a
/// loaded rebuild grew past its bound, at 8 the rebuild ran slower (see
/// DESIGN.md, "Rebuild and α").
const REBUILD_WINDOW: u64 = 16;

/// A rebuild worker's staging, reused across its windows: the survivor
/// images in run order, and the lost units' images in write order.
#[derive(Debug, Default)]
struct WindowBufs {
    survivors: Vec<u8>,
    lost: Vec<u8>,
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
        // A demotion that fails leaves the disk live; its next fault
        // flags it again, since its count stays over the budget.
        self.fail_locked(disk)?;
        self.health.note_demotion();
        Ok(())
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
    /// there would become a degraded write hole. An error before any
    /// superblock records the failure undoes it in memory, so the store
    /// serves as before and a retry can run; once one does, the disk
    /// stays failed, as a reopen would find it. Only once the
    /// superblocks record the failure is the medium truncated to
    /// nothing, so a read of it through a bug fails with EOF instead of
    /// returning stale bytes: truncated earlier, a crash would leave an
    /// unreadable superblock that no survivor marks failed, and `open`
    /// refuses that. The truncation is best effort and unsynced: the
    /// disk may be failing because its I/O errors, and `open` ignores a
    /// failed disk's file whatever it holds.
    fn fail_locked(&self, disk: u16) -> Result<()> {
        self.update_faults(|st| st.fail(disk));
        let recorded = match self.sync_live_disks() {
            Ok(()) => self.write_superblocks_counted(false),
            Err(e) => Err((0, e)),
        };
        match recorded {
            Ok(()) => {}
            Err((0, e)) => {
                self.update_faults(|st| st.failed.retain(|f| f.disk != disk));
                return Err(e);
            }
            Err((_, e)) => return Err(e),
        }
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

    /// Rebuilds the failed disks' offsets `lo..hi`, one window of
    /// [`REBUILD_WINDOW`] offsets at a time.
    fn rebuild_range(&self, failed: &[u16], lo: u64, hi: u64) -> Result<RebuildChunk> {
        let mut chunk = RebuildChunk::default();
        let mut bufs = WindowBufs::default();
        for start in (lo..hi).step_by(REBUILD_WINDOW as usize) {
            let end = hi.min(start + REBUILD_WINDOW);
            self.rebuild_window(failed, start, end, &mut bufs, &mut chunk)?;
        }
        Ok(chunk)
    }

    /// Rebuilds the failed disks' offsets `lo..hi` in five steps:
    /// 1. lock the window's stripe buckets in ascending order;
    /// 2. drop the units already valid, under one state-mutex hold;
    /// 3. read the survivors the decodes need, one backend call per
    ///    maximal run of adjacent offsets on one disk;
    /// 4. decode each stripe once, and write each replacement's
    ///    adjacent lost offsets in one call;
    /// 5. mark every written unit rebuilt, under one state-mutex hold.
    ///
    /// A P+Q stripe that lost two members installs both from its one
    /// decode, wherever the second one lies.
    fn rebuild_window(
        &self,
        failed: &[u16],
        lo: u64,
        hi: u64,
        bufs: &mut WindowBufs,
        chunk: &mut RebuildChunk,
    ) -> Result<()> {
        let ub = self.unit_bytes;
        let m = self.parity_units() as usize;
        let width = self.mapping.stripe_width() as usize;
        // Each mapped unit of the window, with the index of its stripe
        // among the window's distinct stripes.
        let mut visits: Vec<(UnitAddr, usize)> = Vec::new();
        let mut stripes: Vec<(u64, Vec<UnitAddr>)> = Vec::new();
        for offset in lo..hi {
            for &fd in failed {
                let Some(stripe) = self.mapping.role_at(fd, offset).stripe() else {
                    chunk.unmapped += 1;
                    continue;
                };
                let s = stripes
                    .iter()
                    .position(|&(id, _)| id == stripe)
                    .unwrap_or_else(|| {
                        stripes.push((stripe, self.mapping.stripe_units(stripe)));
                        stripes.len() - 1
                    });
                visits.push((UnitAddr::new(fd, offset), s));
            }
        }
        let mut buckets: Vec<usize> = stripes
            .iter()
            .map(|&(id, _)| self.lock_bucket(id))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        let _guards: Vec<MutexGuard<'_, ()>> =
            buckets.iter().map(|&b| lock(&self.locks[b])).collect();

        // The stripes to decode, with their erasures. A degraded-mode
        // write (or an earlier decode of a stripe that lost two members)
        // may have landed a unit on the replacement already; a missing
        // map means another path finished the rebuild.
        let mut todo: Vec<(Vec<UnitAddr>, Vec<bool>)> = Vec::new();
        {
            let st = lock(&self.state);
            let mut decode = vec![false; stripes.len()];
            for &(u, s) in &visits {
                let valid = st
                    .slot(u.disk)
                    .is_none_or(|f| f.rebuilt.as_ref().is_none_or(|r| r[u.offset as usize]));
                if valid {
                    chunk.already_valid += 1;
                } else {
                    chunk.rebuilt += 1;
                    decode[s] = true;
                }
            }
            for ((_, units), _) in stripes.into_iter().zip(decode).filter(|&(_, d)| d) {
                let lost = units.iter().map(|&u| st.is_lost(u)).collect();
                todo.push((units, lost));
            }
        }

        // Every unit to read or write, keyed by `slot = s * width + pos`
        // (stripe `s` of `todo`, stripe position `pos`). Survivor reads
        // are verified: a sick survivor would silently corrupt the
        // reconstruction, and with the stripe's redundancy spent a
        // survivor fault escalates as a typed error.
        let mut plans = Vec::with_capacity(todo.len());
        let mut reads: Vec<(u16, u64, usize)> = Vec::new();
        let mut writes: Vec<(u16, u64, usize)> = Vec::new();
        for (s, (units, lost)) in todo.iter().enumerate() {
            let plan = Decode::plan(lost, m)?;
            for pos in plan.survivors(lost, m) {
                reads.push((units[pos].disk, units[pos].offset, s * width + pos));
            }
            for pos in (0..width).filter(|&pos| lost[pos]) {
                writes.push((units[pos].disk, units[pos].offset, s * width + pos));
            }
            plans.push(plan);
        }
        // `place[slot]`: the unit's index in its staging buffer, which
        // holds the units in run order.
        let mut place = vec![usize::MAX; todo.len() * width];
        bufs.survivors.resize(reads.len() * ub, 0);
        let mut next = 0;
        for run in disk_runs(&mut reads) {
            let (disk, offset, _) = run[0];
            let stage = &mut bufs.survivors[next * ub..(next + run.len()) * ub];
            self.read_survivor_run(disk, offset, stage)?;
            for &(_, _, slot) in run {
                place[slot] = next;
                next += 1;
            }
        }
        for (k, &(_, _, slot)) in disk_runs(&mut writes).flatten().enumerate() {
            place[slot] = k;
        }

        // Decode each stripe in place: its survivors stay where their
        // runs landed, and its lost units are decoded or computed
        // straight into their places in the write staging.
        bufs.lost.resize(writes.len() * ub, 0);
        let mut survivors: Vec<&mut [u8]> = bufs.survivors.chunks_exact_mut(ub).collect();
        let mut outs: Vec<&mut [u8]> = bufs.lost.chunks_exact_mut(ub).collect();
        let d = width - m;
        for (s, ((_, lost), plan)) in todo.iter().zip(plans).enumerate() {
            let mut images: Vec<&mut [u8]> = (0..width)
                .map(|pos| match place[s * width + pos] {
                    usize::MAX => Default::default(),
                    k if lost[pos] => std::mem::take(&mut outs[k]),
                    k => std::mem::take(&mut survivors[k]),
                })
                .collect();
            plan.apply(lost, m, &mut images);
            let (data, parity) = images.split_at_mut(d);
            for (j, out) in parity.iter_mut().enumerate() {
                if lost[d + j] {
                    self.compute_parity_into(j as u16, data, out);
                }
            }
        }
        let mut next = 0;
        for run in disk_runs(&mut writes) {
            let (disk, offset, _) = run[0];
            let units = &bufs.lost[next * ub..(next + run.len()) * ub];
            self.disks[disk as usize].write_units(offset, units, ub)?;
            next += run.len();
        }

        let mut st = lock(&self.state);
        for &(disk, offset, _) in &writes {
            st.mark_rebuilt(UnitAddr::new(disk, offset));
        }
        Ok(())
    }

    /// Reads the survivor units contiguous from `offset` on `disk` into
    /// `out`, each one verified, with the ladder of the healthy run
    /// read: one backend call for a run (retried whole on `EIO`, then
    /// unit by unit), each unit's checksum checked, and a mismatch
    /// re-read alone through [`BlockStore::read_unit_verified`], which
    /// detects, charges and resolves it exactly once. A single unit is
    /// read verified directly. The caller holds the units' stripe locks.
    fn read_survivor_run(&self, disk: u16, offset: u64, out: &mut [u8]) -> Result<()> {
        let ub = self.unit_bytes;
        if out.len() == ub {
            return self.read_unit_verified(UnitAddr::new(disk, offset), out);
        }
        self.read_run_verified(disk, offset, out)?;
        for (k, unit) in out.chunks_exact_mut(ub).enumerate() {
            let at = offset + k as u64;
            if self.disks[disk as usize].check_sum(at, unit).is_err() {
                self.read_unit_verified(UnitAddr::new(disk, at), unit)?;
            }
        }
        Ok(())
    }
}
