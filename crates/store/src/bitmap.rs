//! The file-backed write-intent log: one bit per *region* of
//! consecutive stripes, persisted before any write the bit covers.
//!
//! This is the store's dirty-region log, with the same semantics the
//! simulator's crash recovery assumes (`decluster_array::recovery`): a
//! stripe with writes in flight has a bit covering it set **on disk**
//! before any data or parity write lands, so after a crash the set bits
//! are a superset of the torn stripes — recovery under
//! [`decluster_array::RecoveryPolicy::DirtyRegionLog`] resyncs only the
//! stripes those regions span.
//!
//! Three decisions keep the log off the write hot path, at the price of
//! a (bounded) wider post-crash resync:
//!
//! * **Region granularity.** One bit covers `region`
//!   consecutive stripe sequence numbers (chosen at `mkfs` so the map
//!   has ~32 regions). The first write into a region pays one page
//!   write + fdatasync; every later write into it is free until the
//!   region is flushed clean. A crash costs at most `region` extra
//!   stripe resyncs per dirty bit.
//! * **Staged marks, group-committed syncs.** [`IntentBitmap::stage_range`]
//!   sets the bits and buffers the page write but does *not* sync; the
//!   caller pushes the fdatasync through a shared [`SyncGate`], so
//!   concurrent writers dirtying regions at the same time share one
//!   disk flush instead of serializing on one each.
//! * **Lazy clears.** Completions only decrement an in-memory
//!   refcount; the on-disk bit stays set until a clean close
//!   ([`IntentBitmap::clear_all`]). A stale set bit never costs
//!   correctness — only extra resync after a crash, bounded by the
//!   region count.

use crate::error::{Result, StoreError};
use crate::lock;
use crate::superblock::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

const MAGIC: &[u8; 8] = b"DCLBITM2";
/// Header: magic, stripe count, region size, padding, header checksum.
const HEADER_BYTES: u64 = 32;
/// Granularity of persistence: one page of bitmap bytes.
const PAGE_BYTES: usize = 4096;

/// The region size `mkfs` picks: about 32 regions over the store's
/// stripes, so first-touch syncs amortize quickly while a post-crash
/// dirty-region resync stays a small fraction of a full one.
pub(crate) fn default_region(stripes: u64) -> u32 {
    stripes.div_ceil(32).clamp(1, u32::MAX as u64) as u32
}

/// A persistent dirty-region map over the store's dense stripe
/// sequence numbers.
#[derive(Debug)]
pub(crate) struct IntentBitmap {
    path: PathBuf,
    file: File,
    stripes: u64,
    region: u32,
    /// Current in-memory image, one bit per region.
    bits: Vec<u8>,
    /// The on-disk image: the union of every bit staged since the last
    /// [`IntentBitmap::clear_all`]. Monotone — releases never touch it —
    /// so re-staging a region a release cleared in memory costs nothing.
    written: Vec<u8>,
    /// In-flight requests per region; a bit may clear in memory only
    /// when its count returns to zero.
    active: Vec<u32>,
}

impl IntentBitmap {
    /// Creates a zeroed map for `stripes` stripes at `path` with the
    /// given region size (stripes per bit), overwriting any existing
    /// file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on any syscall failure, or an
    /// invalid-state error for a zero region.
    pub fn create(path: &Path, stripes: u64, region: u32) -> Result<IntentBitmap> {
        if region == 0 {
            return Err(StoreError::state("intent region must be nonzero"));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io("create intent bitmap", path, e))?;
        let regions = stripes.div_ceil(region as u64);
        let bits = vec![0u8; regions.div_ceil(8) as usize];
        let mut header = [0u8; HEADER_BYTES as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&stripes.to_le_bytes());
        header[16..20].copy_from_slice(&region.to_le_bytes());
        let sum = fnv1a(&header[0..20]);
        header[20..28].copy_from_slice(&sum.to_le_bytes());
        file.write_all_at(&header, 0)
            .and_then(|()| file.write_all_at(&bits, HEADER_BYTES))
            .and_then(|()| file.sync_data())
            .map_err(|e| StoreError::io("initialize intent bitmap", path, e))?;
        Ok(IntentBitmap {
            path: path.to_path_buf(),
            file,
            stripes,
            region,
            active: vec![0; regions as usize],
            written: bits.clone(),
            bits,
        })
    }

    /// Opens an existing map, validating the header against the store's
    /// stripe count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on syscall failure or
    /// [`StoreError::Corrupt`] if the header disagrees.
    pub fn open(path: &Path, stripes: u64) -> Result<IntentBitmap> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io("open intent bitmap", path, e))?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|e| StoreError::io("read intent bitmap header", path, e))?;
        if &header[0..8] != MAGIC {
            return Err(StoreError::corrupt(path, "bad magic"));
        }
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&header[20..28]);
        if u64::from_le_bytes(sum) != fnv1a(&header[0..20]) {
            return Err(StoreError::corrupt(path, "header checksum mismatch"));
        }
        let mut count = [0u8; 8];
        count.copy_from_slice(&header[8..16]);
        let stored = u64::from_le_bytes(count);
        if stored != stripes {
            return Err(StoreError::corrupt(
                path,
                format!("bitmap covers {stored} stripes, store has {stripes}"),
            ));
        }
        let mut region = [0u8; 4];
        region.copy_from_slice(&header[16..20]);
        let region = u32::from_le_bytes(region);
        if region == 0 {
            return Err(StoreError::corrupt(path, "zero region size"));
        }
        let regions = stripes.div_ceil(region as u64);
        let mut bits = vec![0u8; regions.div_ceil(8) as usize];
        file.read_exact(&mut bits)
            .map_err(|e| StoreError::io("read intent bitmap", path, e))?;
        Ok(IntentBitmap {
            path: path.to_path_buf(),
            file,
            stripes,
            region,
            active: vec![0; regions as usize],
            written: bits.clone(),
            bits,
        })
    }

    /// Number of stripes covered.
    #[cfg(test)]
    pub fn stripes(&self) -> u64 {
        self.stripes
    }

    /// Stripes per dirty bit.
    #[cfg(test)]
    pub fn region(&self) -> u32 {
        self.region
    }

    /// A second handle onto the backing file, for syncing staged marks
    /// outside the lock serializing map updates (see [`SyncGate`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the descriptor cannot be cloned.
    pub fn try_clone_file(&self) -> Result<File> {
        self.file
            .try_clone()
            .map_err(|e| StoreError::io("clone intent bitmap handle", &self.path, e))
    }

    /// Marks every region covering stripe seqs `lo..=hi` as in flight,
    /// writing newly-set bits to the file (unsynced). Returns `true` if
    /// anything was written — the caller must then push an fdatasync
    /// (through the store's [`SyncGate`]) before issuing any data or
    /// parity write the marks cover.
    ///
    /// Every `stage_range` must be paired with one
    /// [`IntentBitmap::release_range`] of the same range.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if a page write fails, or an
    /// invalid-state error for an out-of-range seq.
    pub fn stage_range(&mut self, lo: u64, hi: u64) -> Result<bool> {
        self.check_range(lo, hi)?;
        let mut need_sync = false;
        for r in lo / self.region as u64..=hi / self.region as u64 {
            self.active[r as usize] += 1;
            let (byte, mask) = ((r / 8) as usize, 1u8 << (r % 8));
            self.bits[byte] |= mask;
            if self.written[byte] & mask == 0 {
                self.written[byte] |= mask;
                self.flush_page(byte / PAGE_BYTES)?;
                need_sync = true;
            }
        }
        Ok(need_sync)
    }

    /// Releases the regions covering `lo..=hi` after their writes have
    /// landed. Purely in-memory: the on-disk bit stays set (a stale bit
    /// only widens the post-crash resync) until [`IntentBitmap::clear_all`]
    /// persists the clean image.
    ///
    /// # Errors
    ///
    /// Returns an invalid-state error for an out-of-range seq.
    pub fn release_range(&mut self, lo: u64, hi: u64) -> Result<()> {
        self.check_range(lo, hi)?;
        for r in lo / self.region as u64..=hi / self.region as u64 {
            let active = &mut self.active[r as usize];
            debug_assert!(*active > 0, "release without a matching stage");
            *active = active.saturating_sub(1);
            if *active == 0 {
                self.bits[(r / 8) as usize] &= !(1u8 << (r % 8));
            }
        }
        Ok(())
    }

    fn check_range(&self, lo: u64, hi: u64) -> Result<()> {
        if lo > hi || hi >= self.stripes {
            return Err(StoreError::state(format!(
                "stripe seq range {lo}..={hi} beyond bitmap ({} stripes)",
                self.stripes
            )));
        }
        Ok(())
    }

    /// Whether a region covering stripe `seq` is dirty in memory.
    #[cfg(test)]
    pub fn is_dirty(&self, seq: u64) -> bool {
        if seq >= self.stripes {
            return false;
        }
        let r = seq / self.region as u64;
        self.bits[(r / 8) as usize] & (1 << (r % 8)) != 0
    }

    /// Every stripe seq covered by a dirty region, ascending — the
    /// post-crash resync set.
    pub fn dirty_seqs(&self) -> Vec<u64> {
        let mut seqs = Vec::new();
        let regions = self.stripes.div_ceil(self.region as u64);
        for r in 0..regions {
            if self.bits[(r / 8) as usize] & (1 << (r % 8)) != 0 {
                let lo = r * self.region as u64;
                let hi = (lo + self.region as u64).min(self.stripes);
                seqs.extend(lo..hi);
            }
        }
        seqs
    }

    /// Dirty regions in memory.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.bits.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// Clears every bit and persists the empty image (clean close).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on any syscall failure.
    pub fn clear_all(&mut self) -> Result<()> {
        self.bits.iter_mut().for_each(|b| *b = 0);
        self.active.iter_mut().for_each(|a| *a = 0);
        let pages = self.bits.len().div_ceil(PAGE_BYTES);
        for page in 0..pages {
            let start = page * PAGE_BYTES;
            let end = (start + PAGE_BYTES).min(self.bits.len());
            if self.written[start..end].iter().any(|&b| b != 0) {
                self.written[start..end].iter_mut().for_each(|b| *b = 0);
                self.flush_page(page)?;
            }
        }
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync intent bitmap", &self.path, e))
    }

    /// Writes one page of the on-disk (`written`) image back to the
    /// file, unsynced.
    fn flush_page(&mut self, page: usize) -> Result<()> {
        let start = page * PAGE_BYTES;
        let end = (start + PAGE_BYTES).min(self.written.len());
        self.file
            .write_all_at(&self.written[start..end], HEADER_BYTES + start as u64)
            .map_err(|e| StoreError::io("persist intent bitmap page", &self.path, e))
    }
}

/// A group-commit gate over one file's fdatasync.
///
/// Writers that staged intent bits call [`SyncGate::sync`]; whichever
/// arrives at an idle gate performs the fdatasync for every request
/// staged before it started, and concurrent arrivals wait for that
/// flush (or the next) instead of queueing one syscall each. With `k`
/// writers dirtying regions simultaneously this turns `k` serialized
/// fdatasyncs into one or two.
#[derive(Debug)]
pub(crate) struct SyncGate {
    file: File,
    path: PathBuf,
    state: Mutex<GateState>,
    arrived: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// Tickets issued to arriving writers.
    requested: u64,
    /// Highest ticket whose staged pages are known synced.
    completed: u64,
    /// A flush is in flight.
    syncing: bool,
}

impl SyncGate {
    pub fn new(file: File, path: PathBuf) -> SyncGate {
        SyncGate {
            file,
            path,
            state: Mutex::new(GateState::default()),
            arrived: Condvar::new(),
        }
    }

    /// Blocks until an fdatasync that started after the caller's staged
    /// page writes has completed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the flush this caller performed (or
    /// retried) fails; waiters retry the flush themselves rather than
    /// trusting a failed peer.
    pub fn sync(&self) -> Result<()> {
        let mut st = lock(&self.state);
        st.requested += 1;
        let ticket = st.requested;
        loop {
            if st.completed >= ticket {
                return Ok(());
            }
            if st.syncing {
                st = self
                    .arrived
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            st.syncing = true;
            let covers = st.requested;
            drop(st);
            let res = self.file.sync_data();
            st = lock(&self.state);
            st.syncing = false;
            if res.is_ok() {
                st.completed = st.completed.max(covers);
            }
            self.arrived.notify_all();
            res.map_err(|e| StoreError::io("sync intent bitmap", &self.path, e))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("decluster-store-bitmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn staged_marks_reach_the_file_releases_stay_lazy() {
        let path = tmp("persist.bitmap");
        let mut b = IntentBitmap::create(&path, 100, 1).unwrap();
        assert!(b.stage_range(3, 3).unwrap(), "first mark needs a sync");
        assert!(b.stage_range(97, 97).unwrap());
        assert!(b.is_dirty(3) && b.is_dirty(97));
        assert_eq!(b.count(), 2);
        assert!(
            !b.stage_range(3, 3).unwrap(),
            "already-written bits need no second sync"
        );
        b.release_range(3, 3).unwrap();

        // A fresh open sees both marks: page writes happen at stage
        // time, and release never touches the file.
        let reopened = IntentBitmap::open(&path, 100).unwrap();
        assert_eq!(reopened.dirty_seqs(), vec![3, 97]);

        // Releasing the last in-flight request clears only the memory
        // image.
        b.release_range(3, 3).unwrap();
        b.release_range(97, 97).unwrap();
        assert_eq!(b.count(), 0);
        let reopened = IntentBitmap::open(&path, 100).unwrap();
        assert_eq!(reopened.dirty_seqs(), vec![3, 97], "clears must be lazy");

        // clear_all persists the empty image.
        b.clear_all().unwrap();
        let reopened = IntentBitmap::open(&path, 100).unwrap();
        assert_eq!(reopened.count(), 0);
    }

    #[test]
    fn regions_cover_runs_of_stripes() {
        let path = tmp("regions.bitmap");
        let mut b = IntentBitmap::create(&path, 100, 16).unwrap();
        assert!(b.stage_range(17, 35).unwrap());
        // Seqs 17..=35 span regions 1 and 2 → stripes 16..48 dirty.
        assert_eq!(b.count(), 2);
        assert_eq!(b.dirty_seqs(), (16..48).collect::<Vec<_>>());
        assert!(b.is_dirty(16) && b.is_dirty(47) && !b.is_dirty(15));

        // A second overlapping request keeps the shared region dirty
        // until both release.
        b.stage_range(40, 40).unwrap();
        b.release_range(17, 35).unwrap();
        assert!(b.is_dirty(33), "region 2 still has a request in flight");
        b.release_range(40, 40).unwrap();
        assert!(!b.is_dirty(33));

        // The final partial region is clipped to the stripe count.
        b.stage_range(99, 99).unwrap();
        assert_eq!(b.dirty_seqs(), (96..100).collect::<Vec<_>>());
    }

    #[test]
    fn default_region_targets_about_32_regions() {
        assert_eq!(default_region(1), 1);
        assert_eq!(default_region(32), 1);
        assert_eq!(default_region(720), 23);
        let stripes = 1_000_000u64;
        let r = default_region(stripes) as u64;
        let regions = stripes.div_ceil(r);
        assert!((30..=33).contains(&regions), "{regions} regions");
    }

    #[test]
    fn open_validates_stripe_count_and_header() {
        let path = tmp("validate.bitmap");
        IntentBitmap::create(&path, 64, 4).unwrap();
        let reopened = IntentBitmap::open(&path, 64).unwrap();
        assert_eq!(reopened.region(), 4);
        assert_eq!(reopened.stripes(), 64);
        assert!(IntentBitmap::open(&path, 65).is_err());
        std::fs::write(&path, b"garbage").unwrap();
        assert!(IntentBitmap::open(&path, 64).is_err());
    }

    #[test]
    fn out_of_range_seq_is_rejected() {
        let path = tmp("range.bitmap");
        let mut b = IntentBitmap::create(&path, 8, 2).unwrap();
        assert!(b.stage_range(8, 8).is_err());
        assert!(b.stage_range(3, 2).is_err());
        assert!(b.release_range(0, 9).is_err());
        assert!(!b.is_dirty(8));
        assert!(IntentBitmap::create(&tmp("zero.bitmap"), 8, 0).is_err());
    }

    #[test]
    fn sync_gate_serves_concurrent_writers() {
        let path = tmp("gate.bitmap");
        let b = IntentBitmap::create(&path, 64, 1).unwrap();
        let gate = SyncGate::new(b.try_clone_file().unwrap(), path);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        gate.sync().unwrap();
                    }
                });
            }
        });
        let st = lock(&gate.state);
        assert_eq!(st.completed, st.requested);
        assert_eq!(st.requested, 400);
        assert!(!st.syncing);
    }
}
