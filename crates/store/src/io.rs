//! The user I/O path: the stripe decode engine (degraded reads through
//! P, Q or both) and block reads and writes.
//!
//! The hot path is built to be syscall- and memory-bandwidth-limited
//! (see DESIGN.md §11): a write extent covering all `G−1` data units of
//! a stripe takes the **full-stripe fast path** — parity computed
//! straight from the new data, exactly `G` positional writes, zero
//! reads — with the per-disk submissions of one batch sorted and
//! coalesced so units landing at adjacent offsets of one file go down
//! in a single `pwrite`. A healthy read of two or more whole units is
//! grouped the same way ([`disk_runs`]): one `pread` per maximal run
//! of adjacent offsets on one disk, each run under its own stripe
//! locks, every unit still checksum-verified and read-repaired exactly
//! as a single-unit read would be. Scratch units come from a per-store
//! [`BufferPool`](crate::buffer::BufferPool) instead of the allocator,
//! every parity computation runs through the kernels in
//! [`crate::parity`], and the write-intent log is staged per *request*
//! and group-committed across threads (one fdatasync covers every
//! stripe the request dirties, and concurrent requests share flushes;
//! see [`crate::bitmap`]).

use crate::buffer::PooledBuf;
use crate::error::{Result, StoreError};
use crate::lock;
use crate::parity;
use crate::store::BlockStore;
use crate::superblock::BLOCK_BYTES;
use decluster_core::layout::UnitAddr;
use std::ops::Deref;
use std::sync::MutexGuard;

/// Stripes handled per full-stripe batch: bounds the lock guards held
/// and the coalescing buffer (`FULL_STRIPE_BATCH × unit_bytes` per
/// disk run at most) while still amortizing submission sorting.
const FULL_STRIPE_BATCH: u64 = 32;

/// How a unit write's new contents are supplied.
enum NewData<'a> {
    /// Replace the whole unit.
    Full(&'a [u8]),
    /// Overwrite `bytes` at byte offset `at`, keeping the rest.
    Splice { at: usize, bytes: &'a [u8] },
}

/// Sorts `(disk, offset, payload)` unit ops by position and yields each
/// maximal run of them: one disk, offsets ascending by one. A run is
/// what one positional read or write can cover.
pub(crate) fn disk_runs<T>(ops: &mut [(u16, u64, T)]) -> impl Iterator<Item = &[(u16, u64, T)]> {
    ops.sort_unstable_by_key(|op| (op.0, op.1));
    ops.chunk_by(|a, b| a.0 == b.0 && b.1 == a.1 + 1)
}

/// How a stripe decode recovers its lost data units: the one match
/// over the erasure pattern, shared by the degraded user paths and the
/// rebuild. Positions are in layout order: data, then P, then Q.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Decode {
    /// No data unit is lost: the surviving data are the images.
    Intact,
    /// One data unit lost, P survives: plain XOR through P.
    ThroughP(usize),
    /// One data unit lost with P, Q survives: through Q over GF(256).
    ThroughQ(usize),
    /// Two data units lost, P and Q survive: the 2×2 Vandermonde solve.
    TwoData(usize, usize),
}

impl Decode {
    /// The decode for the erasures `lost` on a stripe with `m` parity
    /// units.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] when `lost` marks more units than
    /// the stripe's parity can recover.
    pub(crate) fn plan(lost: &[bool], m: usize) -> Result<Decode> {
        let d = lost.len() - m;
        let mut missing = (0..d).filter(|&i| lost[i]);
        match (missing.next(), missing.next(), missing.next()) {
            (None, ..) => Ok(Decode::Intact),
            (Some(a), None, _) if !lost[d] => Ok(Decode::ThroughP(a)),
            (Some(a), None, _) if m == 2 && !lost[d + 1] => Ok(Decode::ThroughQ(a)),
            (Some(a), Some(b), None) if m == 2 && !lost[d] && !lost[d + 1] => {
                Ok(Decode::TwoData(a, b))
            }
            _ => Err(StoreError::state(
                "stripe has more lost units than its parity can recover".to_string(),
            )),
        }
    }

    /// The stripe positions whose images [`Decode::apply`] needs: every
    /// surviving data unit, then the parities it folds through.
    pub(crate) fn survivors(self, lost: &[bool], m: usize) -> impl Iterator<Item = usize> + '_ {
        let d = lost.len() - m;
        let parities: &[usize] = match self {
            Decode::Intact => &[],
            Decode::ThroughP(_) => &[0],
            Decode::ThroughQ(_) => &[1],
            Decode::TwoData(..) => &[0, 1],
        };
        (0..d)
            .filter(|&i| !lost[i])
            .chain(parities.iter().map(move |j| d + j))
    }

    /// Decodes in place. `images` holds one image per stripe position;
    /// on entry every position [`Decode::survivors`] lists holds its
    /// unit's contents, and on return every data position does too.
    /// The survivors are left as they were.
    pub(crate) fn apply(self, lost: &[bool], m: usize, images: &mut [&mut [u8]]) {
        let d = lost.len() - m;
        // Takes parity `j` into `acc` and folds every surviving data
        // image into it, leaving only the erased units' share.
        let fold = |images: &[&mut [u8]], j: usize, acc: &mut [u8]| {
            acc.copy_from_slice(images[d + j]);
            for i in (0..d).filter(|&i| !lost[i]) {
                parity::fold_into(acc, j as u16, i as u16, images[i]);
            }
        };
        match self {
            Decode::Intact => {}
            Decode::ThroughP(a) => {
                // P survives: the erased unit is what P leaves over.
                let acc = std::mem::take(&mut images[a]);
                fold(images, 0, acc);
                images[a] = acc;
            }
            Decode::ThroughQ(a) => {
                // P is gone but Q survives: d_a = g^{-a}·(Q ⊕ Σ g^i·d_i).
                let acc = std::mem::take(&mut images[a]);
                fold(images, 1, acc);
                parity::gf_scale(acc, parity::gf_inv(parity::gf_pow2(a as u16)));
                images[a] = acc;
            }
            Decode::TwoData(a, b) => {
                // Two data erasures: fold the survivors into both parity
                // images, then solve the 2×2 system, which leaves d_b in
                // the P accumulator and d_a in the Q one.
                let (q, p) = (
                    std::mem::take(&mut images[a]),
                    std::mem::take(&mut images[b]),
                );
                fold(images, 0, p);
                fold(images, 1, q);
                parity::gf_solve_two_data(a as u16, b as u16, p, q);
                images[a] = q;
                images[b] = p;
            }
        }
    }
}

impl BlockStore {
    /// The current lost-unit flags for `units`, position-aligned.
    pub(crate) fn lost_flags(&self, units: &[UnitAddr]) -> Vec<bool> {
        if !self.is_degraded() {
            return vec![false; units.len()];
        }
        let st = lock(&self.state);
        units.iter().map(|u| st.is_lost(*u)).collect()
    }

    /// Reads one surviving unit. `verified` routes through the full
    /// retry/read-repair path; raw mode reads and checks the checksum
    /// only (the repair machinery itself uses raw to avoid recursion).
    pub(crate) fn read_survivor(&self, u: UnitAddr, out: &mut [u8], verified: bool) -> Result<()> {
        if verified {
            self.read_unit_verified(u, out)
        } else {
            self.disks[u.disk as usize].read_checked(u.offset, out)
        }
    }

    /// Reads the stripe's `G − m` data images in index order: each
    /// survivor the decode needs through [`BlockStore::read_survivor`],
    /// then the positions flagged in `lost` decoded from them (see
    /// [`Decode`]). Returns the images and the number of survivor units
    /// read.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] when `lost` marks more units than
    /// the stripe's parity can recover; otherwise any survivor read
    /// error.
    pub(crate) fn read_stripe_data(
        &self,
        units: &[UnitAddr],
        lost: &[bool],
        verified: bool,
    ) -> Result<(Vec<PooledBuf<'_>>, u64)> {
        let m = self.parity_units() as usize;
        let plan = Decode::plan(lost, m)?;
        let mut bufs: Vec<PooledBuf<'_>> = units.iter().map(|_| self.buffers.get()).collect();
        let mut reads = 0u64;
        for pos in plan.survivors(lost, m) {
            self.read_survivor(units[pos], &mut bufs[pos], verified)?;
            reads += 1;
        }
        let mut images: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
        plan.apply(lost, m, &mut images);
        bufs.truncate(units.len() - m);
        Ok((bufs, reads))
    }

    /// Computes the `j`-th parity unit (0 = P, 1 = Q) of a stripe from
    /// its data images into `out`.
    pub(crate) fn compute_parity_into<B: Deref<Target = [u8]>>(
        &self,
        j: u16,
        data: &[B],
        out: &mut [u8],
    ) {
        out.fill(0);
        for (i, b) in data.iter().enumerate() {
            parity::fold_into(out, j, i as u16, b);
        }
    }

    /// Reconstructs the single stripe unit at position `pos` (layout
    /// order: data units, then parity) from the rest of the stripe,
    /// under the erasures in `lost`. Returns the survivor units read.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::read_stripe_data`].
    pub(crate) fn reconstruct_unit(
        &self,
        units: &[UnitAddr],
        lost: &[bool],
        pos: usize,
        out: &mut [u8],
        verified: bool,
    ) -> Result<u64> {
        let m = self.parity_units() as usize;
        let d = units.len() - m;
        let mut lost = lost.to_vec();
        lost[pos] = true;
        let (data, reads) = self.read_stripe_data(units, &lost, verified)?;
        if pos < d {
            out.copy_from_slice(&data[pos]);
        } else {
            self.compute_parity_into((pos - d) as u16, &data, out);
        }
        Ok(reads)
    }

    /// Reads `buf.len()` bytes starting at logical block `block`,
    /// reconstructing degraded units on the fly.
    ///
    /// On a fault-free array, an extent holding two or more whole units
    /// reads them one run at a time: one positional read per maximal run
    /// of adjacent offsets on one disk, under that run's stripe locks
    /// only. Partial head and tail units, and every unit of a degraded
    /// array, are read one at a time.
    ///
    /// # Errors
    ///
    /// Fails if the extent is not whole blocks, overruns capacity, or
    /// any disk I/O fails.
    pub fn read_blocks(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.check_extent(block, buf.len())?;
        let bpu = self.blocks_per_unit;
        let head = ((bpu - block % bpu) % bpu * BLOCK_BYTES as u64) as usize;
        let head = head.min(buf.len());
        let whole = (buf.len() - head) / self.unit_bytes;
        if whole >= 2 && !self.is_degraded() {
            let (head_buf, rest) = buf.split_at_mut(head);
            let (mid, tail) = rest.split_at_mut(whole * self.unit_bytes);
            let first = block.div_ceil(bpu);
            if self.read_runs(first, mid)? {
                self.read_unit_by_unit(block, head_buf)?;
                return self.read_unit_by_unit((first + whole as u64) * bpu, tail);
            }
        }
        self.read_unit_by_unit(block, buf)
    }

    /// Reads the extent at `block` one unit at a time: whole units
    /// straight into `buf`, partial ones staged through a pooled unit.
    fn read_unit_by_unit(&self, mut block: u64, buf: &mut [u8]) -> Result<()> {
        let mut scratch = None;
        let mut filled = 0;
        while filled < buf.len() {
            let logical = block / self.blocks_per_unit;
            let at = (block % self.blocks_per_unit) as usize * BLOCK_BYTES as usize;
            let take = (self.unit_bytes - at).min(buf.len() - filled);
            if at == 0 && take == self.unit_bytes {
                self.read_unit(logical, &mut buf[filled..filled + take])?;
            } else {
                let s = scratch.get_or_insert_with(|| self.buffers.get());
                self.read_unit(logical, &mut s[..])?;
                buf[filled..filled + take].copy_from_slice(&s[at..at + take]);
            }
            filled += take;
            block += (take / BLOCK_BYTES as usize) as u64;
        }
        Ok(())
    }

    /// Reads the whole units from logical unit `first` into `out`, one
    /// backend read per maximal run of adjacent offsets on one disk.
    /// Each run is read under its own stripes' locks, taken in table
    /// order and released before the next run. Returns `false` if a
    /// disk failed while a run's locks were being taken; the caller
    /// then reads the extent one unit at a time.
    fn read_runs(&self, first: u64, out: &mut [u8]) -> Result<bool> {
        self.apply_pending_demotion()?;
        let ub = self.unit_bytes;
        let layout = self.mapping.layout();
        // (disk, offset, (stripe, unit index within `out`)) per unit.
        let mut ops: Vec<(u16, u64, (u64, usize))> = (0..out.len() / ub)
            .map(|i| {
                let (stripe, index) = self.mapping.logical_to_stripe(first + i as u64);
                let addr = layout.data_location(stripe, index);
                (addr.disk, addr.offset, (stripe, i))
            })
            .collect();
        let mut stage = Vec::new();
        let mut buckets = Vec::new();
        let mut guards: Vec<MutexGuard<'_, ()>> = Vec::new();
        for run in disk_runs(&mut ops) {
            buckets.clear();
            buckets.extend(
                run.iter()
                    .map(|&(_, _, (stripe, _))| self.lock_bucket(stripe)),
            );
            buckets.sort_unstable();
            buckets.dedup();
            guards.extend(buckets.iter().map(|&b| lock(&self.locks[b])));
            if self.is_degraded() {
                return Ok(false);
            }
            self.read_run(run, &mut stage, out)?;
            guards.clear();
        }
        Ok(true)
    }

    /// Reads one run (see [`disk_runs`]) into its units' slots of
    /// `out`, staging the run's bytes in `stage`. The caller holds the
    /// run's stripe locks.
    fn read_run(
        &self,
        run: &[(u16, u64, (u64, usize))],
        stage: &mut Vec<u8>,
        out: &mut [u8],
    ) -> Result<()> {
        let ub = self.unit_bytes;
        let (disk, offset, _) = run[0];
        if run.len() == 1 || self.health.limping(disk) {
            for &(disk, offset, (stripe, i)) in run {
                let addr = UnitAddr::new(disk, offset);
                self.read_live_unit(stripe, addr, &mut out[i * ub..(i + 1) * ub])?;
            }
            return Ok(());
        }
        if stage.len() < run.len() * ub {
            stage.resize(run.len() * ub, 0);
        }
        let stage = &mut stage[..run.len() * ub];
        self.read_run_verified(disk, offset, stage)?;
        for (&(disk, offset, (_, i)), unit) in run.iter().zip(stage.chunks_exact(ub)) {
            let dst = &mut out[i * ub..(i + 1) * ub];
            if self.disks[disk as usize].check_sum(offset, unit).is_ok() {
                dst.copy_from_slice(unit);
            } else {
                // Re-read alone: the verified read detects, charges and
                // repairs the mismatch exactly once.
                self.read_unit_verified(UnitAddr::new(disk, offset), dst)?;
            }
        }
        Ok(())
    }

    /// Writes `data` starting at logical block `block`, maintaining
    /// parity under the current fault state.
    ///
    /// The write-intent bits covering every touched stripe are staged
    /// and flushed **once** for the whole request (group-committed with
    /// concurrent requests) before any data or parity write is issued.
    /// Spans covering all `G−1` data units of a stripe take the
    /// full-stripe fast path (parity from the new data, `G` writes,
    /// zero reads); partial-unit extents read-splice-write the unit
    /// under its stripe lock.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::read_blocks`].
    pub fn write_blocks(&self, block: u64, data: &[u8]) -> Result<()> {
        self.apply_pending_demotion()?;
        self.check_extent(block, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let first = block / self.blocks_per_unit;
        let last = (block + (data.len() / BLOCK_BYTES as usize) as u64 - 1) / self.blocks_per_unit;
        let (seq_lo, seq_hi) = (
            first / self.data_per_stripe(),
            last / self.data_per_stripe(),
        );
        self.with_intent(seq_lo, seq_hi, || self.write_extent(block, data))
    }

    /// The intent bracket around a user write: stage the bits of stripe
    /// seqs `lo..=hi`, push their fdatasync, run `write`, release.
    fn with_intent(&self, lo: u64, hi: u64, write: impl FnOnce() -> Result<()>) -> Result<()> {
        if lock(&self.intent).stage_range(lo, hi)? {
            self.gate.sync()?;
        }
        let res = write();
        // The in-memory release is unconditional (refcounts must stay
        // balanced); after an I/O error the on-disk bit stays set, so a
        // crash-reopen still resyncs the possibly-torn stripes.
        lock(&self.intent).release_range(lo, hi)?;
        res
    }

    /// The extent engine behind [`BlockStore::write_blocks`]: intent
    /// bits already staged and synced by the caller.
    fn write_extent(&self, mut block: u64, data: &[u8]) -> Result<()> {
        let ub = self.unit_bytes;
        let bpu = self.blocks_per_unit;
        let dpu = self.data_per_stripe();
        let mut taken = 0;
        while taken < data.len() {
            let logical = block / bpu;
            let at = (block % bpu) as usize * BLOCK_BYTES as usize;
            // Full-stripe fast path: stripe-aligned and at least one
            // whole stripe of data remaining, on a fault-free array.
            if at == 0 && logical.is_multiple_of(dpu) && !self.is_degraded() {
                let stripes = ((data.len() - taken) / ub) as u64 / dpu;
                let stripes = stripes.min(FULL_STRIPE_BATCH);
                if stripes > 0 {
                    let span = (stripes * dpu) as usize * ub;
                    if self.write_full_stripes(
                        logical / dpu,
                        stripes,
                        &data[taken..taken + span],
                    )? {
                        taken += span;
                        block += stripes * dpu * bpu;
                        continue;
                    }
                }
            }
            let take = (ub - at).min(data.len() - taken);
            let chunk = &data[taken..taken + take];
            if at == 0 && take == ub {
                self.write_unit_premarked(logical, NewData::Full(chunk))?;
            } else {
                self.write_unit_premarked(logical, NewData::Splice { at, bytes: chunk })?;
            }
            taken += take;
            block += (take / BLOCK_BYTES as usize) as u64;
        }
        Ok(())
    }

    /// Writes `stripes` consecutive whole stripes starting at stripe
    /// seq `seq_lo`, parity computed from the new data alone: `G`
    /// writes and zero reads per stripe. Returns `false` (having
    /// written nothing) if a concurrent disk failure was detected once
    /// the locks were held — the caller falls back to the RMW path.
    fn write_full_stripes(&self, seq_lo: u64, stripes: u64, src: &[u8]) -> Result<bool> {
        let ub = self.unit_bytes;
        let dpu = self.data_per_stripe() as usize;
        let ids: Vec<u64> = (0..stripes)
            .map(|i| self.mapping.stripe_by_seq(seq_lo + i))
            .collect();
        // Lock buckets in table order — the same global order
        // `lock_all_stripes` uses — deduplicated so a bucket shared by
        // two stripes of the batch is taken once.
        let mut buckets: Vec<usize> = ids.iter().map(|&s| self.lock_bucket(s)).collect();
        buckets.sort_unstable();
        buckets.dedup();
        let _guards: Vec<MutexGuard<'_, ()>> =
            buckets.iter().map(|&i| lock(&self.locks[i])).collect();
        if self.is_degraded() {
            return Ok(false);
        }
        // Parity of each stripe, straight from the new data: m buffers
        // per stripe.
        let m = self.parity_units() as usize;
        let mut parity_bufs = Vec::with_capacity(stripes as usize * m);
        for stripe_src in src.chunks_exact(dpu * ub) {
            for j in 0..m {
                let mut p = self.buffers.get_zeroed();
                for (k, unit) in stripe_src.chunks_exact(ub).enumerate() {
                    parity::fold_into(&mut p, j as u16, k as u16, unit);
                }
                parity_bufs.push(p);
            }
        }
        // Gather every unit write of the batch, then submit per disk in
        // offset order, adjacent offsets coalesced into one pwrite.
        let mut units = Vec::new();
        let mut ops: Vec<(u16, u64, &[u8])> = Vec::with_capacity(stripes as usize * (dpu + m));
        for (i, &stripe) in ids.iter().enumerate() {
            units.clear();
            self.mapping.stripe_units_into(stripe, &mut units);
            let base = i * dpu * ub;
            for (k, u) in units[..dpu].iter().enumerate() {
                ops.push((u.disk, u.offset, &src[base + k * ub..base + (k + 1) * ub]));
            }
            for (j, u) in units[dpu..].iter().enumerate() {
                ops.push((u.disk, u.offset, &parity_bufs[i * m + j][..]));
            }
        }
        let mut stage: Vec<u8> = Vec::new();
        for run in disk_runs(&mut ops) {
            let (disk, offset, first) = run[0];
            let file = &self.disks[disk as usize];
            if run.len() == 1 {
                file.write_unit(offset, first)?;
            } else {
                stage.clear();
                for &(_, _, payload) in run {
                    stage.extend_from_slice(payload);
                }
                file.write_units(offset, &stage, ub)?;
            }
        }
        Ok(true)
    }

    /// Reads one whole logical unit into `out` (`unit_bytes` long),
    /// reconstructing from the stripe's survivors if its disk is down.
    ///
    /// # Errors
    ///
    /// Fails on a bad length, out-of-range unit, or disk I/O error.
    pub fn read_unit(&self, logical: u64, out: &mut [u8]) -> Result<()> {
        self.check_unit(logical, out.len())?;
        self.apply_pending_demotion()?;
        let (stripe, index) = self.mapping.logical_to_stripe(logical);
        let _guard = self.lock_stripe(stripe);
        if !self.is_degraded() {
            return self.read_live_unit(stripe, self.mapping.logical_to_addr(logical), out);
        }
        let units = self.mapping.stripe_units(stripe);
        let addr = units[index as usize];
        let lost = self.lost_flags(&units);
        if !lost[index as usize] {
            return self.read_unit_verified(addr, out);
        }
        self.reconstruct_unit(&units, &lost, index as usize, out, true)?;
        Ok(())
    }

    /// Reads the unit at `addr` of `stripe` on a fault-free array,
    /// hedged if its disk limps. The caller holds the stripe lock.
    fn read_live_unit(&self, stripe: u64, addr: UnitAddr, out: &mut [u8]) -> Result<()> {
        if self.health.limping(addr.disk) {
            return self.read_unit_hedged(stripe, addr, out);
        }
        self.read_unit_verified(addr, out)
    }

    /// Writes one whole logical unit.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::read_unit`].
    pub fn write_unit(&self, logical: u64, data: &[u8]) -> Result<()> {
        self.apply_pending_demotion()?;
        self.check_unit(logical, data.len())?;
        let seq = logical / self.data_per_stripe();
        self.with_intent(seq, seq, || {
            self.write_unit_premarked(logical, NewData::Full(data))
        })
    }

    /// Bounds of a whole-unit access: `len` bytes at logical unit
    /// `logical`.
    fn check_unit(&self, logical: u64, len: usize) -> Result<()> {
        if len != self.unit_bytes {
            return Err(StoreError::state(format!(
                "unit buffer is {len} bytes, unit is {}",
                self.unit_bytes
            )));
        }
        if logical >= self.data_units() {
            return Err(StoreError::state(format!(
                "logical unit {logical} beyond capacity {}",
                self.data_units()
            )));
        }
        Ok(())
    }

    fn check_extent(&self, block: u64, len: usize) -> Result<()> {
        if !len.is_multiple_of(BLOCK_BYTES as usize) {
            return Err(StoreError::state(format!(
                "extent of {len} bytes is not whole {BLOCK_BYTES}-byte blocks"
            )));
        }
        let nblocks = (len / BLOCK_BYTES as usize) as u64;
        let end = block.checked_add(nblocks);
        if end.is_none_or(|end| end > self.block_count()) {
            return Err(StoreError::state(format!(
                "extent [{block}, +{nblocks}) beyond capacity {} blocks",
                self.block_count()
            )));
        }
        Ok(())
    }

    /// The unit-write engine: same decomposition as `DataArray::write`,
    /// executed over files under the stripe lock. The caller has
    /// already bounds-checked `logical` and staged and synced the
    /// intent bit covering this stripe.
    ///
    /// With the target unit live, the write is a read-modify-write that
    /// delta-folds `old ⊕ new` into every *live* parity unit (`P ⊕=
    /// delta`, `Q ⊕= g^index·delta`); lost parities are simply skipped.
    /// With the target unit lost, the stripe's surviving data is decoded
    /// (through P, Q, or both), the new image overlaid, every live
    /// parity recomputed from the full data images, and — once a
    /// replacement is installed — the image also lands on the
    /// replacement directly.
    fn write_unit_premarked(&self, logical: u64, new: NewData<'_>) -> Result<()> {
        let (stripe, index) = self.mapping.logical_to_stripe(logical);
        let _guard = self.lock_stripe(stripe);
        let units = self.mapping.stripe_units(stripe);
        let addr = units[index as usize];
        let d = units.len() - self.parity_units() as usize;
        let lost = self.lost_flags(&units);

        if !lost[index as usize] {
            // Read-modify-write: every live parity gets the delta.
            // Old-image and parity reads are verified — a media error
            // or checksum mismatch is retried, then repaired, before
            // the cycle proceeds on trusted bytes.
            let mut old = self.buffers.get();
            self.read_unit_verified(addr, &mut old)?;
            let splice_buf;
            let image: &[u8] = match new {
                NewData::Full(bytes) => bytes,
                NewData::Splice { at, bytes } => {
                    let mut b = self.buffers.get();
                    b.copy_from_slice(&old);
                    b[at..at + bytes.len()].copy_from_slice(bytes);
                    splice_buf = b;
                    &splice_buf
                }
            };
            self.disks[addr.disk as usize].write_unit(addr.offset, image)?;
            let mut pbuf = self.buffers.get();
            for (j, pu) in units[d..].iter().enumerate() {
                if lost[d + j] {
                    // No value in updating lost parity.
                    continue;
                }
                self.read_unit_verified(*pu, &mut pbuf)?;
                if j == 0 {
                    parity::xor_delta(&mut pbuf, &old, image);
                } else {
                    let mut delta = self.buffers.get();
                    delta.copy_from_slice(&old);
                    parity::xor_into(&mut delta, image);
                    parity::fold_into(&mut pbuf, j as u16, index, &delta);
                }
                self.disks[pu.disk as usize].write_unit(pu.offset, &pbuf)?;
            }
            return Ok(());
        }

        // Target lost: decode the stripe's data (the old image of the
        // target included — a splice needs it), overlay the new bytes,
        // and recompute every live parity from the data images. A media
        // fault on a survivor here is one fault too many: the verified
        // read escalates it as a typed error rather than letting wrong
        // bytes into the stripe.
        let (mut data, _) = self.read_stripe_data(&units, &lost, true)?;
        match new {
            NewData::Full(bytes) => data[index as usize].copy_from_slice(bytes),
            NewData::Splice { at, bytes } => {
                data[index as usize][at..at + bytes.len()].copy_from_slice(bytes)
            }
        }
        let mut pbuf = self.buffers.get();
        for (j, pu) in units[d..].iter().enumerate() {
            if lost[d + j] {
                continue;
            }
            self.compute_parity_into(j as u16, &data, &mut pbuf);
            self.disks[pu.disk as usize].write_unit(pu.offset, &pbuf)?;
        }
        let has_replacement = lock(&self.state)
            .slot(addr.disk)
            .is_some_and(|f| f.rebuilt.is_some());
        if has_replacement {
            // The replacement is installed: also write the data
            // directly and mark the unit valid.
            self.disks[addr.disk as usize].write_unit(addr.offset, &data[index as usize])?;
            lock(&self.state).mark_rebuilt(addr);
        }
        Ok(())
    }
}
