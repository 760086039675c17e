//! The user I/O path: the stripe decode engine (degraded reads through
//! P, Q or both) and block reads and writes.
//!
//! The hot path is built to be syscall- and memory-bandwidth-limited
//! (see DESIGN.md §11): a write extent covering all `G−1` data units of
//! a stripe takes the **full-stripe fast path** — parity computed
//! straight from the new data, exactly `G` positional writes, zero
//! reads — with the per-disk submissions of one batch sorted and
//! coalesced so units landing at adjacent offsets of one file go down
//! in a single `pwrite`. Scratch units come from a per-store
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

    /// Reads the stripe's `G − m` data images in index order, decoding
    /// the positions flagged in `lost` from the surviving redundancy:
    /// one data erasure resolves through P (plain XOR) or, with P also
    /// gone on a P+Q stripe, through Q; two data erasures solve the
    /// 2×2 Vandermonde system over GF(256). Returns the images and the
    /// number of survivor units read.
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
        let d = units.len() - m;
        let mut reads = 0u64;
        let mut bufs = Vec::with_capacity(d);
        for i in 0..d {
            let mut b = self.buffers.get();
            if !lost[i] {
                self.read_survivor(units[i], &mut b, verified)?;
                reads += 1;
            }
            bufs.push(b);
        }
        // Reads parity `j` into `acc` and folds every surviving data
        // image into it, leaving only the erased units' share.
        let mut survivors_into = |j: usize, acc: &mut [u8]| -> Result<()> {
            self.read_survivor(units[d + j], acc, verified)?;
            reads += 1;
            for (i, b) in bufs.iter().enumerate().filter(|&(i, _)| !lost[i]) {
                parity::fold_into(acc, j as u16, i as u16, b);
            }
            Ok(())
        };
        let missing: Vec<usize> = (0..d).filter(|&i| lost[i]).collect();
        match missing.as_slice() {
            [] => {}
            &[a] if !lost[d] => {
                // P survives: the erased unit is what P leaves over.
                let mut acc = self.buffers.get();
                survivors_into(0, &mut acc)?;
                bufs[a].copy_from_slice(&acc);
            }
            &[a] if m == 2 && !lost[d + 1] => {
                // P is gone but Q survives: d_a = g^{-a}·(Q ⊕ Σ g^i·d_i).
                let mut acc = self.buffers.get();
                survivors_into(1, &mut acc)?;
                parity::gf_scale(&mut acc, parity::gf_inv(parity::gf_pow2(a as u16)));
                bufs[a].copy_from_slice(&acc);
            }
            &[a, b] if m == 2 && !lost[d] && !lost[d + 1] => {
                // Two data erasures: fold the survivors into both parity
                // images, then solve the 2×2 system.
                let (mut p, mut q) = (self.buffers.get(), self.buffers.get());
                survivors_into(0, &mut p)?;
                survivors_into(1, &mut q)?;
                parity::gf_solve_two_data(a as u16, b as u16, &mut p, &mut q);
                bufs[a].copy_from_slice(&q);
                bufs[b].copy_from_slice(&p);
            }
            _ => {
                return Err(StoreError::state(
                    "stripe has more lost units than its parity can recover".to_string(),
                ))
            }
        }
        Ok((bufs, reads))
    }

    /// Computes the `j`-th parity unit (0 = P, 1 = Q) of a stripe from
    /// its data images into `out`.
    pub(crate) fn compute_parity_into(&self, j: u16, data: &[PooledBuf<'_>], out: &mut [u8]) {
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
    /// reconstructing degraded units on the fly. Whole-unit spans are
    /// read straight into `buf`; only partial units stage through a
    /// pooled scratch unit.
    ///
    /// # Errors
    ///
    /// Fails if the extent is not whole blocks, overruns capacity, or
    /// any disk I/O fails.
    pub fn read_blocks(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.check_extent(block, buf.len())?;
        let mut scratch = None;
        let mut block = block;
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
        let mut buckets: Vec<usize> = ids
            .iter()
            .map(|s| (s % self.locks.len() as u64) as usize)
            .collect();
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
        ops.sort_unstable_by_key(|&(d, o, _)| (d, o));
        let mut run: Vec<u8> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let (disk, offset, first) = ops[i];
            let mut j = i + 1;
            while j < ops.len() && ops[j].0 == disk && ops[j].1 == offset + (j - i) as u64 {
                j += 1;
            }
            let file = &self.disks[disk as usize];
            if j == i + 1 {
                file.write_unit(offset, first)?;
            } else {
                run.clear();
                for &(_, _, payload) in &ops[i..j] {
                    run.extend_from_slice(payload);
                }
                file.write_units(offset, &run, ub)?;
            }
            i = j;
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
            let addr = self.mapping.logical_to_addr(logical);
            if self.health.limping(addr.disk) {
                return self.read_unit_hedged(stripe, addr, out);
            }
            return self.read_unit_verified(addr, out);
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
