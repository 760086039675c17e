//! The store's lifecycle: format (`create`), open with superblock
//! consensus and crash recovery, `flush`, clean `close`, and the
//! superblock and checksum-region writes they share.

use crate::backend::{DiskBackend, FileBackend};
use crate::bitmap::{default_region, IntentBitmap, SyncGate};
use crate::buffer::BufferPool;
use crate::checksum::{region_bytes, ChecksumTable};
use crate::error::{Result, StoreError};
use crate::health::HealthMonitor;
use crate::lock;
use crate::store::{BlockStore, DiskFile, FaultState, MAX_STRIPE_LOCKS};
use crate::superblock::{LayoutSpec, Superblock, BLOCK_BYTES, SUPERBLOCK_BYTES};
use decluster_array::{ConsistencyReport, RecoveryPolicy};
use decluster_core::layout::ArrayMapping;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

/// Builds the [`DiskBackend`] for disk `index` over its freshly opened
/// backing file — the seam where a test or torture harness slots a
/// [`crate::FaultyBackend`] under the store.
pub type BackendFactory<'a> = dyn Fn(u16, std::fs::File) -> Box<dyn DiskBackend> + Sync + 'a;

fn file_backend(_index: u16, file: std::fs::File) -> Box<dyn DiskBackend> {
    Box::new(FileBackend::new(file))
}

pub(crate) fn disk_path(dir: &Path, disk: u16) -> PathBuf {
    dir.join(format!("disk-{disk:03}.dat"))
}

fn bitmap_path(dir: &Path) -> PathBuf {
    dir.join("intent.bitmap")
}

impl BlockStore {
    /// Formats a new store in `dir` (`mkfs`): one zeroed backing file
    /// per disk, each stamped with a superblock carrying the layout
    /// identity and the shared `array_id`, plus an empty write-intent
    /// bitmap.
    ///
    /// The returned store is open (superblocks marked not-clean); call
    /// [`BlockStore::close`] for a clean shutdown.
    ///
    /// # Errors
    ///
    /// Fails if the geometry is invalid, a store already exists in
    /// `dir`, or any file operation fails.
    pub fn create(
        dir: &Path,
        spec: LayoutSpec,
        units_per_disk: u64,
        unit_bytes: u32,
        array_id: u64,
    ) -> Result<BlockStore> {
        Self::create_with_backend(
            dir,
            spec,
            units_per_disk,
            unit_bytes,
            array_id,
            &file_backend,
        )
    }

    /// As [`BlockStore::create`], but each disk's I/O goes through the
    /// backend `factory` builds for it — the fault-injection seam.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::create`].
    pub fn create_with_backend(
        dir: &Path,
        spec: LayoutSpec,
        units_per_disk: u64,
        unit_bytes: u32,
        array_id: u64,
        factory: &BackendFactory<'_>,
    ) -> Result<BlockStore> {
        if unit_bytes == 0 || !unit_bytes.is_multiple_of(BLOCK_BYTES) {
            return Err(StoreError::state(format!(
                "unit size {unit_bytes} is not a multiple of {BLOCK_BYTES}"
            )));
        }
        let mapping = ArrayMapping::new(spec.build()?, units_per_disk)?;
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create store dir", dir, e))?;
        if disk_path(dir, 0).exists() {
            return Err(StoreError::state(format!(
                "a store already exists in {}",
                dir.display()
            )));
        }
        let data_start = SUPERBLOCK_BYTES + region_bytes(units_per_disk);
        let size = data_start + units_per_disk * unit_bytes as u64;
        let mut disks = Vec::with_capacity(spec.disks() as usize);
        for i in 0..spec.disks() {
            let path = disk_path(dir, i);
            let backend = factory(i, DiskFile::open_file(&path, true)?);
            backend
                .set_len(size)
                .map_err(|e| StoreError::io("size backing file", &path, e))?;
            let sums = ChecksumTable::zeroed(units_per_disk, unit_bytes as usize);
            disks.push(Arc::new(DiskFile::new(i, path, backend, data_start, sums)));
        }
        let stripes = mapping.stripes();
        let intent = IntentBitmap::create(&bitmap_path(dir), stripes, default_region(stripes))?;
        let store = Self::assemble(
            dir,
            mapping,
            spec,
            array_id,
            unit_bytes,
            disks,
            intent,
            Vec::new(),
        )?;
        // The checksum regions are durable before the superblocks that
        // vouch for them: a superblock write syncs only itself.
        store.flush()?;
        store.write_superblocks(false)?;
        Ok(store)
    }

    /// Opens an existing store with the default crash-recovery policy
    /// ([`RecoveryPolicy::DirtyRegionLog`]).
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::open_with_recovery`].
    pub fn open(dir: &Path) -> Result<(BlockStore, Option<ConsistencyReport>)> {
        Self::open_with_recovery(dir, RecoveryPolicy::DirtyRegionLog)
    }

    /// Opens an existing store, validating every readable superblock
    /// against the others and, if the store was not cleanly closed,
    /// running a parity resync under `policy` before any user I/O.
    ///
    /// An unreadable superblock is tolerated only on the disk the
    /// surviving superblocks name as failed (its medium was lost). The
    /// returned report is `Some` exactly when recovery ran.
    ///
    /// # Errors
    ///
    /// Fails if no valid superblock exists, the files disagree about
    /// the array's identity, or any file operation fails.
    pub fn open_with_recovery(
        dir: &Path,
        policy: RecoveryPolicy,
    ) -> Result<(BlockStore, Option<ConsistencyReport>)> {
        Self::open_with_backend(dir, policy, &file_backend)
    }

    /// As [`BlockStore::open_with_recovery`], but each disk's I/O goes
    /// through the backend `factory` builds for it.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::open_with_recovery`].
    pub fn open_with_backend(
        dir: &Path,
        policy: RecoveryPolicy,
        factory: &BackendFactory<'_>,
    ) -> Result<(BlockStore, Option<ConsistencyReport>)> {
        // Collect every consecutive backing file and its decode result.
        // The superblock scan uses plain file I/O: backends (and their
        // injected faults) only come into play once the array's
        // identity is known.
        let mut decoded: Vec<(PathBuf, Result<Superblock>)> = Vec::new();
        loop {
            let path = disk_path(dir, decoded.len() as u16);
            if !path.exists() {
                break;
            }
            let mut buf = vec![0u8; SUPERBLOCK_BYTES as usize];
            let res = DiskFile::open_file(&path, false).and_then(|f| {
                f.read_exact_at(&mut buf, 0)
                    .map_err(|e| StoreError::io("read superblock", &path, e))?;
                Superblock::decode(&buf, &path)
            });
            decoded.push((path, res));
        }
        let Some(reference) = decoded.iter().find_map(|(_, r)| r.as_ref().ok()).copied() else {
            return Err(StoreError::corrupt(
                dir,
                "no backing file has a valid superblock",
            ));
        };
        if reference.spec.disks() as usize != decoded.len() {
            return Err(StoreError::Mismatch {
                reason: format!(
                    "superblock names {} disks but {} backing files exist",
                    reference.spec.disks(),
                    decoded.len()
                ),
            });
        }
        // Identity and failed-disk consensus across the valid superblocks.
        let mut failed: Vec<u16> = Vec::new();
        let mut clean = true;
        for (i, (path, res)) in decoded.iter().enumerate() {
            // Unreadable superblocks are judged below, once consensus is known.
            let Ok(sb) = res else { continue };
            if !sb.same_array(&reference) {
                return Err(StoreError::Mismatch {
                    reason: format!("{} belongs to a different array", path.display()),
                });
            }
            if sb.disk_index != i as u16 {
                return Err(StoreError::Mismatch {
                    reason: format!(
                        "{} claims disk index {}, expected {i}",
                        path.display(),
                        sb.disk_index
                    ),
                });
            }
            clean &= sb.clean;
            let sb_failed = sb.failed_disks();
            if !sb_failed.is_empty() {
                if !failed.is_empty() && failed != sb_failed {
                    return Err(StoreError::Mismatch {
                        reason: "superblocks disagree about which disks failed".into(),
                    });
                }
                failed = sb_failed;
            }
        }
        for (i, (_, res)) in decoded.iter().enumerate() {
            if let Err(e) = res {
                if !failed.contains(&(i as u16)) {
                    return Err(StoreError::corrupt(
                        &decoded[i].0,
                        format!("unreadable superblock on a disk not marked failed: {e}"),
                    ));
                }
            }
        }
        // Nothing is sized from the geometry until the files prove it: a
        // forged `units_per_disk` must fail here, not in an allocation.
        let size = reference.disk_bytes().ok_or_else(|| {
            StoreError::corrupt(dir, "superblock geometry overflows a 64-bit file size")
        })?;
        for (path, _) in decoded.iter().filter(|(_, res)| res.is_ok()) {
            let len = std::fs::metadata(path)
                .map_err(|e| StoreError::io("stat backing file", path, e))?
                .len();
            if len < size {
                return Err(StoreError::corrupt(
                    path,
                    format!("{len} bytes, but the superblock geometry needs {size}"),
                ));
            }
        }
        let mapping = ArrayMapping::new(reference.spec.build()?, reference.units_per_disk)?;
        if failed.len() > mapping.parity_units_per_stripe() as usize {
            return Err(StoreError::Mismatch {
                reason: format!(
                    "superblocks record {} failed disks but the layout tolerates {}",
                    failed.len(),
                    mapping.parity_units_per_stripe()
                ),
            });
        }
        let data_start = reference.data_start();
        let units = reference.units_per_disk;
        let disks = decoded
            .into_iter()
            .enumerate()
            .map(|(i, (path, _))| -> Result<Arc<DiskFile>> {
                let backend = factory(i as u16, DiskFile::open_file(&path, false)?);
                let sums = if failed.contains(&(i as u16)) {
                    // The failed disk's region is gone with its medium;
                    // nothing reads it until a replacement is installed
                    // (which resets the table to the zeroed state).
                    ChecksumTable::zeroed(units, reference.unit_bytes as usize)
                } else {
                    let mut region = vec![0u8; region_bytes(units) as usize];
                    backend
                        .read_at(&mut region, SUPERBLOCK_BYTES)
                        .map_err(|e| StoreError::io("read checksum region", &path, e))?;
                    ChecksumTable::decode(&region, units)
                };
                Ok(Arc::new(DiskFile::new(
                    i as u16, path, backend, data_start, sums,
                )))
            })
            .collect::<Result<Vec<_>>>()?;
        let intent = IntentBitmap::open(&bitmap_path(dir), mapping.stripes())?;
        let store = Self::assemble(
            dir,
            mapping,
            reference.spec,
            reference.array_id,
            reference.unit_bytes,
            disks,
            intent,
            failed,
        )?;
        let report = if clean {
            None
        } else {
            Some(store.recover(policy)?)
        };
        // Mark open: a crash from here on must trigger recovery again.
        store.write_superblocks(false)?;
        Ok((store, report))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: &Path,
        mapping: ArrayMapping,
        spec: LayoutSpec,
        array_id: u64,
        unit_bytes: u32,
        disks: Vec<Arc<DiskFile>>,
        intent: IntentBitmap,
        failed: Vec<u16>,
    ) -> Result<BlockStore> {
        let lock_count = mapping.stripes().clamp(1, MAX_STRIPE_LOCKS);
        let gate = SyncGate::new(intent.try_clone_file()?, bitmap_path(dir));
        let disk_count = disks.len() as u16;
        let degraded = !failed.is_empty();
        let mut state = FaultState::default();
        for disk in failed {
            state.fail(disk);
        }
        Ok(BlockStore {
            dir: dir.to_path_buf(),
            blocks_per_unit: (unit_bytes / BLOCK_BYTES) as u64,
            unit_bytes: unit_bytes as usize,
            buffers: BufferPool::new(unit_bytes as usize),
            mapping,
            spec,
            array_id,
            disks,
            locks: (0..lock_count).map(|_| Mutex::new(())).collect(),
            state: Mutex::new(state),
            degraded: AtomicBool::new(degraded),
            intent: Mutex::new(intent),
            gate,
            health: HealthMonitor::new(disk_count),
        })
    }

    /// Flushes everything and marks the superblocks clean, consuming
    /// the store. A reopen after `close` skips crash recovery.
    ///
    /// Rebuild progress is not persisted: closing mid-rebuild reverts
    /// the replacement to "installed but empty" on the next open.
    ///
    /// # Errors
    ///
    /// Returns the first flush or superblock write that fails.
    pub fn close(self) -> Result<()> {
        // The intent bits may clear only once everything they cover is
        // durable: a crash between the two must still find them set.
        self.flush()?;
        lock(&self.intent).clear_all()?;
        self.write_superblocks(true)
    }

    /// The disks whose media are present: every disk but the failed
    /// ones without a replacement, to which nothing is written.
    fn live_disks(&self) -> impl Iterator<Item = &Arc<DiskFile>> {
        let skip = lock(&self.state).unreplaced();
        self.disks.iter().filter(move |d| !skip.contains(&d.index))
    }

    /// Writes every live disk's in-memory checksum table back into its
    /// on-disk region.
    pub(crate) fn persist_all_sums(&self) -> Result<()> {
        self.live_disks().try_for_each(|d| d.persist_sums())
    }

    /// Syncs every live disk's backing file.
    pub(crate) fn sync_live_disks(&self) -> Result<()> {
        self.live_disks().try_for_each(|d| d.sync())
    }

    /// Flushes dirty state — checksum tables and backing files — while
    /// keeping the store open, unlike [`BlockStore::close`]. The
    /// superblocks stay marked not-clean, so a crash after `flush`
    /// still runs recovery, but every acknowledged write is durable
    /// once this returns.
    ///
    /// # Errors
    ///
    /// Returns the first checksum persist or file sync that fails.
    pub fn flush(&self) -> Result<()> {
        self.persist_all_sums()?;
        self.sync_live_disks()
    }

    /// Rewrites every live superblock with the current fault state and
    /// the given `clean` flag. The failed disk is skipped until a
    /// replacement is installed (its medium is gone). Each write makes
    /// its superblock durable and nothing else: a caller whose state
    /// change also needs data or checksum regions durable syncs them
    /// first.
    pub(crate) fn write_superblocks(&self, clean: bool) -> Result<()> {
        self.write_superblocks_counted(clean).map_err(|(_, e)| e)
    }

    /// As [`BlockStore::write_superblocks`]; a failure also says how
    /// many superblocks were written before it.
    pub(crate) fn write_superblocks_counted(
        &self,
        clean: bool,
    ) -> std::result::Result<(), (usize, StoreError)> {
        let (encoded, skip) = {
            let st = lock(&self.state);
            (st.encoded(), st.unreplaced())
        };
        let mut written = 0;
        for (i, d) in self.disks.iter().enumerate() {
            if skip.contains(&(i as u16)) {
                continue;
            }
            d.write_superblock(&self.superblock(i as u16, encoded, clean))
                .map_err(|e| (written, e))?;
            written += 1;
        }
        Ok(())
    }

    /// This store's superblock for disk `disk_index`, recording the
    /// failed disks `failed` and the `clean` flag.
    pub(crate) fn superblock(
        &self,
        disk_index: u16,
        failed: [Option<u16>; 2],
        clean: bool,
    ) -> Superblock {
        Superblock {
            spec: self.spec,
            unit_bytes: self.unit_bytes as u32,
            units_per_disk: self.mapping.units_per_disk(),
            disk_index,
            array_id: self.array_id,
            clean,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::fresh_dir;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A file backend that counts the syncs which make data durable
    /// only after the intent bitmap went clean on disk. A crash just
    /// before such a sync leaves checksum-region or stripe writes that
    /// no dirty bit covers, so the next open resyncs nothing.
    #[derive(Debug)]
    struct IntentOrderCheck {
        inner: FileBackend,
        bitmap: PathBuf,
        stripes: u64,
        unsynced: AtomicBool,
        violations: Arc<AtomicU64>,
    }

    impl DiskBackend for IntentOrderCheck {
        fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
            self.inner.read_at(buf, pos)
        }

        fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
            if pos >= SUPERBLOCK_BYTES {
                self.unsynced.store(true, Ordering::SeqCst);
            }
            self.inner.write_at(data, pos)
        }

        fn set_len(&self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }

        fn sync(&self) -> io::Result<()> {
            if self.unsynced.swap(false, Ordering::SeqCst) {
                let on_disk = IntentBitmap::open(&self.bitmap, self.stripes).unwrap();
                if on_disk.count() == 0 {
                    self.violations.fetch_add(1, Ordering::SeqCst);
                }
            }
            self.inner.sync()
        }
    }

    #[test]
    fn intent_bits_clear_only_after_the_data_is_durable() {
        let dir = fresh_dir("intent-order");
        let spec = LayoutSpec::Complete { disks: 5, group: 4 };
        let store = BlockStore::create(&dir, spec, 32, 512, 21).unwrap();
        for l in 0..store.data_units() {
            store.write_unit(l, &vec![l as u8; 512]).unwrap();
        }
        let stripes = store.mapping().stripes();
        // Crash: the superblocks still say not-clean, the bits are set.
        drop(store);

        let violations = Arc::new(AtomicU64::new(0));
        let factory = |_: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
            Box::new(IntentOrderCheck {
                inner: FileBackend::new(file),
                bitmap: bitmap_path(&dir),
                stripes,
                unsynced: AtomicBool::new(false),
                violations: Arc::clone(&violations),
            })
        };
        let (store, report) =
            BlockStore::open_with_backend(&dir, RecoveryPolicy::DirtyRegionLog, &factory).unwrap();
        assert!(report.is_some(), "the crash must trigger recovery");
        assert_eq!(violations.load(Ordering::SeqCst), 0, "recovery");
        // One user write, so close has unsynced data to order.
        store.write_unit(5, &[0xC3; 512]).unwrap();
        store.close().unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0, "close");
    }

    /// A file backend that tracks, for every disk, whether a write into
    /// its checksum region (`[SUPERBLOCK_BYTES, data_start)`) is still
    /// unsynced, and counts each superblock write that lands while any
    /// disk has one pending. A superblock write makes only itself
    /// durable, so a region the superblock vouches for must already be.
    #[derive(Debug)]
    struct RegionOrderCheck {
        inner: FileBackend,
        disk: usize,
        data_start: u64,
        pending: Arc<Mutex<Vec<bool>>>,
        region_writes: Arc<AtomicU64>,
        violations: Arc<AtomicU64>,
    }

    impl DiskBackend for RegionOrderCheck {
        fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
            self.inner.read_at(buf, pos)
        }

        fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
            if pos < self.data_start && pos + data.len() as u64 > SUPERBLOCK_BYTES {
                self.region_writes.fetch_add(1, Ordering::SeqCst);
                lock(&self.pending)[self.disk] = true;
            }
            self.inner.write_at(data, pos)
        }

        fn set_len(&self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }

        fn sync(&self) -> io::Result<()> {
            lock(&self.pending)[self.disk] = false;
            self.inner.sync()
        }

        fn write_durable_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
            if pos == 0 && lock(&self.pending).iter().any(|&p| p) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.write_durable_at(data, pos)
        }
    }

    #[test]
    fn checksum_regions_are_durable_before_any_superblock() {
        const UNITS: u64 = 32;
        let dir = fresh_dir("region-order");
        let spec = LayoutSpec::Complete { disks: 5, group: 4 };
        let pending = Arc::new(Mutex::new(vec![false; spec.disks() as usize]));
        let region_writes = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
            Box::new(RegionOrderCheck {
                inner: FileBackend::new(file),
                disk: i as usize,
                data_start: SUPERBLOCK_BYTES + region_bytes(UNITS),
                pending: Arc::clone(&pending),
                region_writes: Arc::clone(&region_writes),
                violations: Arc::clone(&violations),
            })
        };
        let check = |step: &str| {
            assert!(
                region_writes.load(Ordering::SeqCst) > 0,
                "{step}: no region written"
            );
            assert_eq!(violations.load(Ordering::SeqCst), 0, "{step}");
        };
        let store = BlockStore::create_with_backend(&dir, spec, UNITS, 512, 23, &factory).unwrap();
        check("create");
        let unit = |l: u64, g: u8| vec![(l as u8) ^ g; 512];
        for l in 0..store.data_units() {
            store.write_unit(l, &unit(l, 1)).unwrap();
        }
        store.fail_disk(2).unwrap();
        store.replace_disk().unwrap();
        check("replace_disk");
        for l in 0..store.data_units() {
            store.write_unit(l, &unit(l, 2)).unwrap();
        }
        // The replacement's formatted region is still unsynced here: the
        // rebuild must sync it before the healthy superblocks.
        assert!(
            lock(&pending)[2],
            "replace_disk left no region write to order"
        );
        store.rebuild(1).unwrap();
        check("rebuild");
        store.close().unwrap();
        check("close");
    }
}
