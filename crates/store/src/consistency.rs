//! Parity consistency: the whole-array check and the crash-recovery
//! resync, both built on one per-stripe check.

use crate::error::{Result, StoreError};
use crate::lock;
use crate::parity;
use crate::store::BlockStore;
use decluster_array::{ConsistencyReport, RecoveryPolicy};
use decluster_core::layout::UnitAddr;
use std::time::Instant;

impl BlockStore {
    /// Verifies that every mapped stripe's parity matches its data: the
    /// P unit must equal the XOR of the data units, and on a P+Q layout
    /// the Q unit must equal the GF(256) weighted sum. Only meaningful
    /// when fault-free.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ParityMismatch`] naming the first
    /// inconsistent stripe, or an invalid-state error while degraded.
    pub fn verify_parity(&self) -> Result<()> {
        if !lock(&self.state).failed.is_empty() {
            return Err(StoreError::state(
                "parity check requires a fault-free store".to_string(),
            ));
        }
        for seq in 0..self.mapping.stripes() {
            let stripe = self.mapping.stripe_by_seq(seq);
            let _guard = self.lock_stripe(stripe);
            if !self.check_stripe(&self.mapping.stripe_units(stripe), None)? {
                return Err(StoreError::ParityMismatch { stripe });
            }
        }
        Ok(())
    }

    /// The crash-recovery resync: verify (and repair) the parity of the
    /// stripes `policy` selects. Runs before the store accepts user
    /// I/O, so no locks are needed. Under the dirty-region log the set
    /// is every stripe of every dirty region — a superset of the torn
    /// stripes, wider than the in-flight set by at most the region size
    /// per dirty bit.
    ///
    /// Stripes with a unit on the failed disk are counted but left
    /// alone: with a member missing, parity is the only copy of the
    /// lost data and must not be "repaired" from the survivors.
    pub(crate) fn recover(&self, policy: RecoveryPolicy) -> Result<ConsistencyReport> {
        let start = Instant::now();
        let seqs: Vec<u64> = match policy {
            RecoveryPolicy::DirtyRegionLog => lock(&self.intent).dirty_seqs(),
            RecoveryPolicy::FullResync => (0..self.mapping.stripes()).collect(),
        };
        let failed = self.failed_disks();
        let mut report = ConsistencyReport {
            policy,
            stripes_checked: 0,
            torn_found: 0,
            torn_repaired: 0,
            resync_units_read: 0,
            resync_units_written: 0,
            recovery_secs: 0.0,
        };
        let mut tmp = self.buffers.get();
        for seq in seqs {
            let stripe = self.mapping.stripe_by_seq(seq);
            report.stripes_checked += 1;
            let units = self.mapping.stripe_units(stripe);
            if units.iter().any(|u| failed.contains(&u.disk)) {
                // With a member missing, parity is the only copy of the
                // lost data and must not be "repaired" — but the
                // survivors' checksum slots may be stale (the crash
                // interrupted writes here), so heal those from the
                // bytes actually on disk.
                for u in units.iter().filter(|u| !failed.contains(&u.disk)) {
                    self.disks[u.disk as usize].read_unit(u.offset, &mut tmp)?;
                    self.disks[u.disk as usize].note_contents(u.offset, &tmp);
                    report.resync_units_read += 1;
                }
                continue;
            }
            if !self.check_stripe(&units, Some(&mut report))? {
                report.torn_found += 1;
                report.torn_repaired += 1;
            }
        }
        // Make the repairs and the healed tables durable before dropping
        // the dirty bits: a crash in between must re-run this heal, not
        // trust stale slots or half-written parity.
        self.flush()?;
        lock(&self.intent).clear_all()?;
        report.recovery_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// The one parity check of a fault-free stripe: reads its units
    /// raw, folds the data into each parity and compares. Returns
    /// whether every parity unit matched. Without a report it stops at
    /// the first stale parity unit. With one (crash resync) it also
    /// refreshes every unit's checksum slot from the bytes on disk,
    /// rewrites each stale parity unit, and counts that I/O.
    fn check_stripe(
        &self,
        units: &[UnitAddr],
        mut heal: Option<&mut ConsistencyReport>,
    ) -> Result<bool> {
        let d = units.len() - self.parity_units() as usize;
        let mut folds: Vec<_> = units[d..]
            .iter()
            .map(|_| self.buffers.get_zeroed())
            .collect();
        let mut tmp = self.buffers.get();
        let mut consistent = true;
        for (pos, u) in units.iter().enumerate() {
            let disk = &self.disks[u.disk as usize];
            disk.read_unit(u.offset, &mut tmp)?;
            if let Some(report) = heal.as_deref_mut() {
                // The slots of every unit in a dirty region may be
                // stale (in-memory tables died with the crash):
                // recompute them from the on-disk bytes.
                disk.note_contents(u.offset, &tmp);
                report.resync_units_read += 1;
            }
            if pos < d {
                for (j, fold) in folds.iter_mut().enumerate() {
                    parity::fold_into(fold, j as u16, pos as u16, &tmp);
                }
            } else if *folds[pos - d] != *tmp {
                consistent = false;
                let Some(report) = heal.as_deref_mut() else {
                    break;
                };
                disk.write_unit(u.offset, &folds[pos - d])?;
                report.resync_units_written += 1;
            }
        }
        Ok(consistent)
    }
}
