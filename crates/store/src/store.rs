//! The block store proper: one backing file per disk, the simulator's
//! layout math routing every access.
//!
//! [`BlockStore`] exposes a flat logical block address space
//! ([`BLOCK_BYTES`]-sized blocks) and maps it through
//! [`ArrayMapping`] exactly as the byte-accurate model
//! (`decluster_array::data::DataArray`) does, so the two are
//! byte-for-byte comparable: fault-free writes are read-modify-write
//! (`parity ^= old ^ new`), writes whose parity unit is lost store the
//! data alone, writes whose data unit is lost fold the new value into
//! parity (and go straight to the replacement once one is installed),
//! and degraded reads reconstruct on the fly from the XOR of the
//! stripe's survivors.
//!
//! The hot path is built to be syscall- and memory-bandwidth-limited
//! (see DESIGN.md §11): a write extent covering all `G−1` data units of
//! a stripe takes the **full-stripe fast path** — parity computed
//! straight from the new data, exactly `G` positional writes, zero
//! reads — with the per-disk submissions of one batch sorted and
//! coalesced so units landing at adjacent offsets of one file go down
//! in a single `pwrite`. Scratch units come from a per-store
//! [`BufferPool`] instead of the allocator, every XOR runs through the
//! wide kernels in [`crate::parity`], and the write-intent log is
//! staged per *request* and group-committed across threads (one
//! fdatasync covers every stripe the request dirties, and concurrent
//! requests share flushes; see [`crate::bitmap`]).
//!
//! Concurrency: a fixed table of stripe locks serializes the
//! read-modify-write cycles of colliding stripes while letting disjoint
//! stripes proceed in parallel (batches acquire their buckets in table
//! order, the same global order `lock_all_stripes` uses); admin
//! transitions (`fail_disk`, `replace_disk`, rebuild completion) take
//! every stripe lock, so they see no in-flight user I/O. Fault-free
//! requests never touch the fault-state mutex — a `degraded` atomic,
//! flipped only under the full lock table, gates the slow path.

use crate::backend::{DiskBackend, FileBackend};
use crate::bitmap::{default_region, IntentBitmap, SyncGate};
use crate::buffer::{BufferPool, PooledBuf};
use crate::checksum::{fingerprint64, region_bytes, ChecksumTable};
use crate::error::{Result, StoreError};
use crate::health::{FaultCounters, HealthMonitor};
use crate::parity;
use crate::pool::{lock, StorePool};
use crate::stats::StoreStats;
use crate::superblock::{
    LayoutSpec, Superblock, BLOCK_BYTES, SUPERBLOCK_BYTES, VERSION, VERSION_NO_CHECKSUMS,
    VERSION_TAGGED,
};
use decluster_array::{ConsistencyReport, RecoveryPolicy};
use decluster_core::layout::{ArrayMapping, UnitAddr, UnitRole};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Builds the [`DiskBackend`] for disk `index` over its freshly opened
/// backing file — the seam where a test or torture harness slots a
/// [`crate::FaultyBackend`] under the store.
pub type BackendFactory<'a> = dyn Fn(u16, std::fs::File) -> Box<dyn DiskBackend> + Sync + 'a;

fn file_backend(_index: u16, file: std::fs::File) -> Box<dyn DiskBackend> {
    Box::new(FileBackend::new(file))
}

/// Upper bound on the stripe-lock table; stripes hash onto it by id.
const MAX_STRIPE_LOCKS: u64 = 1024;

/// Stripes handled per full-stripe batch: bounds the lock guards held
/// and the coalescing buffer (`FULL_STRIPE_BATCH × unit_bytes` per
/// disk run at most) while still amortizing submission sorting.
const FULL_STRIPE_BATCH: u64 = 32;

/// One disk's backing store (behind its [`DiskBackend`]), with
/// cumulative unit-I/O counters — the observable that makes the
/// paper's α = (G−1)/(C−1) rebuild read fraction measurable on real
/// files — and the in-memory checksum table of its units.
#[derive(Debug)]
pub(crate) struct DiskFile {
    pub(crate) index: u16,
    path: PathBuf,
    backend: Box<dyn DiskBackend>,
    /// Byte offset of the data area: superblock, then (v2) the
    /// checksum region.
    data_start: u64,
    /// In-memory checksum table; `None` on v1 (pre-checksum) stores.
    sums: Option<ChecksumTable>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl DiskFile {
    fn open_file(path: &Path, create: bool) -> Result<std::fs::File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .truncate(create)
            .open(path)
            .map_err(|e| StoreError::io("open backing file", path, e))
    }

    /// Reads the stripe unit at `offset` (units, not bytes) into `buf`,
    /// **without** checksum verification. A backend failure surfaces as
    /// a sector-granular [`StoreError::Media`].
    pub(crate) fn read_unit(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let pos = self.data_start + offset * buf.len() as u64;
        self.backend
            .read_at(buf, pos)
            .map_err(|e| StoreError::media(self.index, offset, &e))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Verifies `data` (the unit at `offset`, as just read) against the
    /// checksum table. v1 stores have no table and always pass.
    pub(crate) fn check_sum(&self, offset: u64, data: &[u8]) -> Result<()> {
        if let Some(sums) = &self.sums {
            if sums.get(offset) != fingerprint64(data) {
                return Err(StoreError::Media {
                    disk: self.index,
                    offset,
                    kind: crate::error::MediaKind::Checksum,
                });
            }
        }
        Ok(())
    }

    /// Writes the stripe unit at `offset` and records its checksum.
    pub(crate) fn write_unit(&self, offset: u64, data: &[u8]) -> Result<()> {
        let pos = self.data_start + offset * data.len() as u64;
        self.backend
            .write_at(data, pos)
            .map_err(|e| StoreError::media(self.index, offset, &e))?;
        if let Some(sums) = &self.sums {
            sums.set(offset, fingerprint64(data));
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes `data.len() / unit_bytes` units contiguous from `offset`
    /// in one positional submission — the coalesced form the
    /// full-stripe batch uses for adjacent units on one disk.
    fn write_units(&self, offset: u64, data: &[u8], unit_bytes: usize) -> Result<()> {
        debug_assert!(data.len().is_multiple_of(unit_bytes));
        let pos = self.data_start + offset * unit_bytes as u64;
        self.backend
            .write_at(data, pos)
            .map_err(|e| StoreError::media(self.index, offset, &e))?;
        if let Some(sums) = &self.sums {
            for (i, unit) in data.chunks_exact(unit_bytes).enumerate() {
                sums.set(offset + i as u64, fingerprint64(unit));
            }
        }
        self.writes
            .fetch_add((data.len() / unit_bytes) as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Refreshes the checksum slot for `offset` from bytes known to be
    /// on disk — crash recovery healing possibly-stale slots.
    fn note_contents(&self, offset: u64, data: &[u8]) {
        if let Some(sums) = &self.sums {
            sums.set(offset, fingerprint64(data));
        }
    }

    /// Persists the in-memory checksum table into the on-disk region.
    fn persist_sums(&self) -> Result<()> {
        if let Some(sums) = &self.sums {
            self.backend
                .write_at(&sums.encode(), SUPERBLOCK_BYTES)
                .map_err(|e| StoreError::io("write checksum region", &self.path, e))?;
        }
        Ok(())
    }

    fn write_superblock(&self, sb: &Superblock) -> Result<()> {
        self.backend
            .write_at(&sb.encode(), 0)
            .and_then(|()| self.backend.sync())
            .map_err(|e| StoreError::io("write superblock", &self.path, e))
    }

    fn sync(&self) -> Result<()> {
        self.backend
            .sync()
            .map_err(|e| StoreError::io("sync backing file", &self.path, e))
    }
}

/// One failed disk: its index, and once a replacement is installed,
/// the per-offset rebuilt map.
#[derive(Debug)]
struct FailedDisk {
    disk: u16,
    rebuilt: Option<Vec<bool>>,
}

/// The fault state, mirroring `DataArray`: the failed disks in failure
/// order — at most one for single-parity layouts, up to two for P+Q.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    failed: Vec<FailedDisk>,
}

impl FaultState {
    /// Whether `addr` is currently unreadable (failed and not yet
    /// rebuilt).
    pub(crate) fn is_lost(&self, addr: UnitAddr) -> bool {
        self.failed.iter().any(|f| {
            f.disk == addr.disk && f.rebuilt.as_ref().is_none_or(|r| !r[addr.offset as usize])
        })
    }

    fn is_failed(&self, disk: u16) -> bool {
        self.failed.iter().any(|f| f.disk == disk)
    }

    fn slot(&self, disk: u16) -> Option<&FailedDisk> {
        self.failed.iter().find(|f| f.disk == disk)
    }

    fn slot_mut(&mut self, disk: u16) -> Option<&mut FailedDisk> {
        self.failed.iter_mut().find(|f| f.disk == disk)
    }

    /// The failed disks in the superblock's two-slot wire form.
    fn encoded(&self) -> [Option<u16>; 2] {
        let mut out = [None; 2];
        for (slot, f) in out.iter_mut().zip(&self.failed) {
            *slot = Some(f.disk);
        }
        out
    }

    /// Failed disks with no replacement installed yet — their media are
    /// gone, so superblock and checksum-region writes skip them.
    fn unreplaced(&self) -> Vec<u16> {
        self.failed
            .iter()
            .filter(|f| f.rebuilt.is_none())
            .map(|f| f.disk)
            .collect()
    }
}

/// Cumulative I/O counters of one backing file, in stripe units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Units read since open.
    pub reads: u64,
    /// Units written since open.
    pub writes: u64,
}

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
    /// Wall-clock time of the rebuild.
    pub wall_secs: f64,
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

/// How a unit write's new contents are supplied.
enum NewData<'a> {
    /// Replace the whole unit.
    Full(&'a [u8]),
    /// Overwrite `bytes` at byte offset `at`, keeping the rest.
    Splice { at: usize, bytes: &'a [u8] },
}

/// Per-worker tally of a rebuild range.
#[derive(Debug, Default, Clone, Copy)]
struct RebuildChunk {
    rebuilt: u64,
    already_valid: u64,
    unmapped: u64,
}

/// A file-backed declustered array.
///
/// All I/O methods take `&self`; the store is `Sync` and safe to drive
/// from many threads at once.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    pub(crate) mapping: ArrayMapping,
    spec: LayoutSpec,
    array_id: u64,
    /// On-disk format version of the opened array; v1 stores (no
    /// checksum region) are read-only.
    version: u32,
    pub(crate) unit_bytes: usize,
    blocks_per_unit: u64,
    pub(crate) disks: Vec<Arc<DiskFile>>,
    locks: Vec<Mutex<()>>,
    pub(crate) state: Mutex<FaultState>,
    /// Mirrors `state.failed.is_some()`; flipped only with every stripe
    /// lock held, so I/O paths can skip the state mutex when fault-free.
    degraded: AtomicBool,
    intent: Mutex<IntentBitmap>,
    gate: SyncGate,
    pub(crate) buffers: BufferPool,
    pub(crate) health: HealthMonitor,
}

fn disk_path(dir: &Path, disk: u16) -> PathBuf {
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
            let file = DiskFile::open_file(&path, true)?;
            let backend = factory(i, file);
            backend
                .set_len(size)
                .map_err(|e| StoreError::io("size backing file", &path, e))?;
            let d = DiskFile {
                index: i,
                path,
                backend,
                data_start,
                sums: Some(ChecksumTable::zeroed(units_per_disk, unit_bytes as usize)),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            };
            d.write_superblock(&Superblock {
                version: VERSION,
                spec,
                unit_bytes,
                units_per_disk,
                disk_index: i,
                array_id,
                clean: false,
                failed: [None; 2],
            })?;
            d.persist_sums()?;
            disks.push(Arc::new(d));
        }
        let stripes = mapping.stripes();
        let intent = IntentBitmap::create(&bitmap_path(dir), stripes, default_region(stripes))?;
        Self::assemble(
            dir,
            mapping,
            spec,
            array_id,
            VERSION,
            unit_bytes,
            disks,
            intent,
            Vec::new(),
        )
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
    /// A pre-checksum (v1) store opens **read-only**: reads work, every
    /// mutating operation returns [`StoreError::Mismatch`] naming the
    /// format gap, and crash recovery is skipped (it would have to
    /// write).
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
        let with_sums = reference.version >= VERSION_TAGGED;
        let units = reference.units_per_disk;
        let disks = decoded
            .into_iter()
            .enumerate()
            .map(|(i, (path, _))| -> Result<Arc<DiskFile>> {
                let file = DiskFile::open_file(&path, false)?;
                let backend = factory(i as u16, file);
                let sums = if !with_sums {
                    None
                } else if failed.contains(&(i as u16)) {
                    // The failed disk's region is gone with its medium;
                    // nothing reads it until a replacement is installed
                    // (which resets the table to the zeroed state).
                    Some(ChecksumTable::zeroed(units, reference.unit_bytes as usize))
                } else {
                    let mut region = vec![0u8; region_bytes(units) as usize];
                    backend
                        .read_at(&mut region, SUPERBLOCK_BYTES)
                        .map_err(|e| StoreError::io("read checksum region", &path, e))?;
                    Some(ChecksumTable::decode(&region, units))
                };
                Ok(Arc::new(DiskFile {
                    index: i as u16,
                    path,
                    backend,
                    data_start,
                    sums,
                    reads: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                }))
            })
            .collect::<Result<Vec<_>>>()?;
        let intent = IntentBitmap::open(&bitmap_path(dir), mapping.stripes())?;
        let store = Self::assemble(
            dir,
            mapping,
            reference.spec,
            reference.array_id,
            reference.version,
            reference.unit_bytes,
            disks,
            intent,
            failed,
        )?;
        let report = if clean || store.read_only() {
            None
        } else {
            Some(store.recover(policy)?)
        };
        if !store.read_only() {
            // Mark open: a crash from here on must trigger recovery again.
            store.write_superblocks(false)?;
        }
        Ok((store, report))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: &Path,
        mapping: ArrayMapping,
        spec: LayoutSpec,
        array_id: u64,
        version: u32,
        unit_bytes: u32,
        disks: Vec<Arc<DiskFile>>,
        intent: IntentBitmap,
        failed: Vec<u16>,
    ) -> Result<BlockStore> {
        let lock_count = mapping.stripes().clamp(1, MAX_STRIPE_LOCKS);
        let gate = SyncGate::new(intent.try_clone_file()?, bitmap_path(dir));
        let disk_count = disks.len() as u16;
        let degraded = !failed.is_empty();
        Ok(BlockStore {
            dir: dir.to_path_buf(),
            blocks_per_unit: (unit_bytes / BLOCK_BYTES) as u64,
            unit_bytes: unit_bytes as usize,
            buffers: BufferPool::new(unit_bytes as usize),
            mapping,
            spec,
            array_id,
            version,
            disks,
            locks: (0..lock_count).map(|_| Mutex::new(())).collect(),
            state: Mutex::new(FaultState {
                failed: failed
                    .into_iter()
                    .map(|disk| FailedDisk {
                        disk,
                        rebuilt: None,
                    })
                    .collect(),
            }),
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
        if self.read_only() {
            return Ok(());
        }
        self.persist_all_sums()?;
        lock(&self.intent).clear_all()?;
        for d in &self.disks {
            d.sync()?;
        }
        self.write_superblocks(true)
    }

    /// Writes every live disk's in-memory checksum table back into its
    /// on-disk region. Failed disks are skipped until a replacement is
    /// installed.
    pub(crate) fn persist_all_sums(&self) -> Result<()> {
        let skip = lock(&self.state).unreplaced();
        for d in &self.disks {
            if skip.contains(&d.index) {
                continue;
            }
            d.persist_sums()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Geometry accessors
    // ------------------------------------------------------------------

    /// The layout construction this store was formatted with.
    pub fn spec(&self) -> LayoutSpec {
        self.spec
    }

    /// The bound layout mapping (stripe math, capacities).
    pub fn mapping(&self) -> &ArrayMapping {
        &self.mapping
    }

    /// Bytes per stripe unit.
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// Logical data units addressable.
    pub fn data_units(&self) -> u64 {
        self.mapping.data_units()
    }

    /// Logical blocks addressable ([`BLOCK_BYTES`] each).
    pub fn block_count(&self) -> u64 {
        self.data_units() * self.blocks_per_unit
    }

    /// The directory holding the backing files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The first currently failed disk, if any.
    pub fn failed_disk(&self) -> Option<u16> {
        lock(&self.state).failed.first().map(|f| f.disk)
    }

    /// Every currently failed disk, in failure order (at most one for
    /// single-parity layouts, up to two for P+Q).
    pub fn failed_disks(&self) -> Vec<u16> {
        lock(&self.state).failed.iter().map(|f| f.disk).collect()
    }

    /// Whether the store is read-only (opened from the pre-checksum v1
    /// format).
    pub fn read_only(&self) -> bool {
        self.version == VERSION_NO_CHECKSUMS
    }

    /// Cumulative fault-handling counters: detections, retries,
    /// repairs, escalations, hedged reads, demotions.
    pub fn fault_counters(&self) -> FaultCounters {
        self.health.snapshot()
    }

    /// Faults (media errors and checksum mismatches) charged against
    /// `disk`'s error budget since the last rebuild reset.
    pub fn disk_faults(&self, disk: u16) -> u64 {
        self.health.disk_faults(disk)
    }

    /// The EWMA read-latency estimate for `disk`, in microseconds
    /// (zero until the disk has served a read).
    pub fn disk_read_ewma_us(&self, disk: u16) -> f64 {
        self.health.ewma_us(disk)
    }

    /// Whether the limping detector currently flags `disk` (its read
    /// EWMA sits above both the absolute floor and the peer-median
    /// multiple).
    pub fn disk_limping(&self, disk: u16) -> bool {
        self.health.limping(disk)
    }

    /// Collects a point-in-time [`StoreStats`] snapshot — geometry,
    /// degradation state, fault counters, and per-disk I/O/latency —
    /// without blocking in-flight I/O.
    pub fn stats_snapshot(&self) -> StoreStats {
        StoreStats::collect(self)
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
        if self.read_only() {
            return Ok(());
        }
        self.persist_all_sums()?;
        for d in &self.disks {
            d.sync()?;
        }
        Ok(())
    }

    /// Sets the per-disk error budget: once more than `budget` faults
    /// are charged to one disk, it is auto-demoted to failed at the
    /// next operation boundary (and an online rebuild can bring the
    /// array back). `u64::MAX` — the default — disables the policy.
    pub fn set_error_budget(&self, budget: u64) {
        self.health.set_budget(budget);
    }

    pub(crate) fn check_writable(&self) -> Result<()> {
        if self.read_only() {
            return Err(StoreError::Mismatch {
                reason: format!(
                    "store format v{VERSION_NO_CHECKSUMS} predates per-unit checksums \
                     (current is v{VERSION}); opened read-only — migrate by copying \
                     into a freshly created store"
                ),
            });
        }
        Ok(())
    }

    /// Applies a pending error-budget demotion, if one is flagged: the
    /// sick disk becomes the failed disk — its data is left in place
    /// but no longer trusted — and the surviving superblocks record the
    /// degradation. Called automatically at operation boundaries; safe
    /// to call directly. Returns the demoted disk.
    ///
    /// # Errors
    ///
    /// Fails if recording the degradation in the superblocks fails.
    pub fn apply_pending_demotion(&self) -> Result<Option<u16>> {
        if !self.health.pending_demotion() || self.read_only() {
            return Ok(None);
        }
        let Some(disk) = self.health.take_pending_demotion() else {
            return Ok(None);
        };
        let _guards = self.lock_all_stripes();
        {
            let mut st = lock(&self.state);
            if !st.failed.is_empty() {
                // Already degraded (maybe by an operator fail_disk that
                // raced us): drop the flag rather than compound faults
                // automatically — a second failure is an operator call.
                return Ok(None);
            }
            st.failed.push(FailedDisk {
                disk,
                rebuilt: None,
            });
            self.degraded.store(true, Ordering::Release);
        }
        self.health.note_demotion();
        self.write_superblocks(false)?;
        Ok(Some(disk))
    }

    /// Cumulative per-disk unit-I/O counters since open.
    pub fn io_counters(&self) -> Vec<DiskCounters> {
        self.disks
            .iter()
            .map(|d| DiskCounters {
                reads: d.reads.load(Ordering::Relaxed),
                writes: d.writes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Mapped (non-hole) units on each disk.
    pub fn mapped_units_per_disk(&self) -> Vec<u64> {
        (0..self.mapping.disks())
            .map(|d| {
                (0..self.mapping.units_per_disk())
                    .filter(|&o| self.mapping.role_at(d, o) != UnitRole::Unmapped)
                    .count() as u64
            })
            .collect()
    }

    /// Parity units per stripe, `m` (1 for single parity, 2 for P+Q).
    pub(crate) fn parity_units(&self) -> u16 {
        self.mapping.parity_units_per_stripe()
    }

    /// Data units per stripe (`G − m`).
    fn data_per_stripe(&self) -> u64 {
        (self.mapping.stripe_width() - self.parity_units()) as u64
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------
    // Stripe decode engine
    // ------------------------------------------------------------------

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
            let d = &self.disks[u.disk as usize];
            d.read_unit(u.offset, out)?;
            d.check_sum(u.offset, out)
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
    fn read_stripe_data(
        &self,
        units: &[UnitAddr],
        lost: &[bool],
        verified: bool,
    ) -> Result<(Vec<PooledBuf<'_>>, u64)> {
        let m = self.parity_units() as usize;
        let d = units.len() - m;
        let unrecoverable = || {
            StoreError::state("stripe has more lost units than its parity can recover".to_string())
        };
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
        let missing: Vec<usize> = (0..d).filter(|&i| lost[i]).collect();
        match missing.as_slice() {
            [] => {}
            &[a] if !lost[d] => {
                // P survives: the erased unit is the XOR of P and the
                // other data units.
                let mut acc = self.buffers.get();
                self.read_survivor(units[d], &mut acc, verified)?;
                reads += 1;
                for (i, b) in bufs.iter().enumerate() {
                    if i != a {
                        parity::xor_into(&mut acc, b);
                    }
                }
                bufs[a].copy_from_slice(&acc);
            }
            &[a] if m == 2 && !lost[d + 1] => {
                // P is gone but Q survives: d_a = g^{-a}·(Q ⊕ Σ g^i·d_i).
                let mut acc = self.buffers.get();
                self.read_survivor(units[d + 1], &mut acc, verified)?;
                reads += 1;
                for (i, b) in bufs.iter().enumerate() {
                    if i != a {
                        parity::gf_mul_into(&mut acc, b, parity::gf_pow2(i as u16));
                    }
                }
                parity::gf_scale(&mut acc, parity::gf_inv(parity::gf_pow2(a as u16)));
                bufs[a].copy_from_slice(&acc);
            }
            &[a, b_pos] if m == 2 && !lost[d] && !lost[d + 1] => {
                // Two data erasures: fold the survivors into both parity
                // images, then solve the 2×2 system.
                let mut p = self.buffers.get();
                let mut q = self.buffers.get();
                self.read_survivor(units[d], &mut p, verified)?;
                self.read_survivor(units[d + 1], &mut q, verified)?;
                reads += 2;
                for (i, b) in bufs.iter().enumerate() {
                    if i != a && i != b_pos {
                        parity::xor_into(&mut p, b);
                        parity::gf_mul_into(&mut q, b, parity::gf_pow2(i as u16));
                    }
                }
                parity::gf_solve_two_data(a as u16, b_pos as u16, &mut p, &mut q);
                bufs[a].copy_from_slice(&q);
                bufs[b_pos].copy_from_slice(&p);
            }
            _ => return Err(unrecoverable()),
        }
        Ok((bufs, reads))
    }

    /// Computes the `j`-th parity unit (0 = P, 1 = Q) of a stripe from
    /// its data images into `out`.
    fn compute_parity_into(&self, j: u16, data: &[PooledBuf<'_>], out: &mut [u8]) {
        out.fill(0);
        for (i, b) in data.iter().enumerate() {
            if j == 0 {
                parity::xor_into(out, b);
            } else {
                parity::gf_mul_into(out, b, parity::gf_pow2(i as u16));
            }
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

    // ------------------------------------------------------------------
    // Block I/O
    // ------------------------------------------------------------------

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
        self.check_writable()?;
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
        if lock(&self.intent).stage_range(seq_lo, seq_hi)? {
            self.gate.sync()?;
        }
        let res = self.write_extent(block, data);
        // The in-memory release is unconditional (refcounts must stay
        // balanced); after an I/O error the on-disk bit stays set, so a
        // crash-reopen still resyncs the possibly-torn stripes.
        lock(&self.intent).release_range(seq_lo, seq_hi)?;
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
        // per stripe (P is the plain XOR, Q the GF(256) weighted sum).
        let m = self.parity_units() as usize;
        let mut parity_bufs = Vec::with_capacity(stripes as usize * m);
        for i in 0..stripes as usize {
            let base = i * dpu * ub;
            for j in 0..m {
                let mut p = self.buffers.get_zeroed();
                for k in 0..dpu {
                    let unit = &src[base + k * ub..base + (k + 1) * ub];
                    if j == 0 {
                        parity::xor_into(&mut p, unit);
                    } else {
                        parity::gf_mul_into(&mut p, unit, parity::gf_pow2(k as u16));
                    }
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
        if out.len() != self.unit_bytes {
            return Err(StoreError::state(format!(
                "unit read buffer is {} bytes, unit is {}",
                out.len(),
                self.unit_bytes
            )));
        }
        if logical >= self.data_units() {
            return Err(StoreError::state(format!(
                "logical unit {logical} beyond capacity {}",
                self.data_units()
            )));
        }
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
        self.check_writable()?;
        self.apply_pending_demotion()?;
        if data.len() != self.unit_bytes {
            return Err(StoreError::state(format!(
                "unit write is {} bytes, unit is {}",
                data.len(),
                self.unit_bytes
            )));
        }
        if logical >= self.data_units() {
            return Err(StoreError::state(format!(
                "logical unit {logical} beyond capacity {}",
                self.data_units()
            )));
        }
        let seq = logical / self.data_per_stripe();
        if lock(&self.intent).stage_range(seq, seq)? {
            self.gate.sync()?;
        }
        let res = self.write_unit_premarked(logical, NewData::Full(data));
        lock(&self.intent).release_range(seq, seq)?;
        res
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

    pub(crate) fn lock_stripe(&self, stripe: u64) -> MutexGuard<'_, ()> {
        lock(&self.locks[(stripe % self.locks.len() as u64) as usize])
    }

    fn lock_all_stripes(&self) -> Vec<MutexGuard<'_, ()>> {
        self.locks.iter().map(lock).collect()
    }

    /// The unit-write engine: same decomposition as `DataArray::write`,
    /// executed over files under the stripe lock. The caller has
    /// already staged and synced the intent bit covering this stripe.
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
        if logical >= self.data_units() {
            return Err(StoreError::state(format!(
                "logical unit {logical} beyond capacity {}",
                self.data_units()
            )));
        }
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
                    parity::gf_mul_into(&mut pbuf, &delta, parity::gf_pow2(index));
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
            let mut st = lock(&self.state);
            if let Some(f) = st.slot_mut(addr.disk) {
                if let Some(rebuilt) = &mut f.rebuilt {
                    rebuilt[addr.offset as usize] = true;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault management
    // ------------------------------------------------------------------

    /// Fails a disk: its medium (superblock included) is scrambled and
    /// the surviving superblocks record the degradation. A P+Q array
    /// (`m = 2`) accepts a second failure while already degraded.
    ///
    /// # Errors
    ///
    /// Fails if `disk` is already failed, the array has already lost as
    /// many disks as its parity tolerates, `disk` is out of range, or a
    /// file operation fails.
    pub fn fail_disk(&self, disk: u16) -> Result<()> {
        self.check_writable()?;
        if disk >= self.mapping.disks() {
            return Err(StoreError::state(format!("disk {disk} out of range")));
        }
        let _guards = self.lock_all_stripes();
        {
            let mut st = lock(&self.state);
            if st.is_failed(disk) {
                return Err(StoreError::state(format!("disk {disk} is already failed")));
            }
            let tolerated = self.parity_units() as usize;
            if st.failed.len() >= tolerated {
                return Err(StoreError::state(format!(
                    "array already degraded: {} of {tolerated} tolerated failures used",
                    st.failed.len()
                )));
            }
            st.failed.push(FailedDisk {
                disk,
                rebuilt: None,
            });
            self.degraded.store(true, Ordering::Release);
        }
        // Losing the medium: scramble the whole file so nothing can
        // accidentally read stale data through a bug.
        let d = &self.disks[disk as usize];
        let size = self.disk_size();
        let chunk = vec![0xDBu8; (1 << 20).min(size) as usize];
        let mut pos = 0;
        while pos < size {
            let n = chunk.len().min((size - pos) as usize);
            d.backend
                .write_at(&chunk[..n], pos)
                .map_err(|e| StoreError::io("scramble failed disk", &d.path, e))?;
            pos += n as u64;
        }
        d.sync()?;
        self.write_superblocks(false)
    }

    /// Total bytes of one backing file: superblock, checksum region,
    /// data area.
    fn disk_size(&self) -> u64 {
        self.disks[0].data_start + self.mapping.units_per_disk() * self.unit_bytes as u64
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
        self.check_writable()?;
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
        let size = self.disk_size();
        let units_per_disk = self.mapping.units_per_disk();
        for f in st.failed.iter_mut().filter(|f| f.rebuilt.is_none()) {
            let d = &self.disks[f.disk as usize];
            d.backend
                .set_len(0)
                .and_then(|()| d.backend.set_len(size))
                .map_err(|e| StoreError::io("zero replacement disk", &d.path, e))?;
            if let Some(sums) = &d.sums {
                sums.reset_zeroed(self.unit_bytes);
            }
            d.write_superblock(&Superblock {
                version: self.version,
                spec: self.spec,
                unit_bytes: self.unit_bytes as u32,
                units_per_disk,
                disk_index: f.disk,
                array_id: self.array_id,
                clean: false,
                failed: encoded,
            })?;
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
        self.check_writable()?;
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
        let pool = StorePool::new(threads);
        let units = self.mapping.units_per_disk();
        let workers = pool.threads().max(1) as u64;
        let span = units.div_ceil(workers);
        let jobs: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * span;
                let hi = units.min(lo + span);
                let failed = failed.clone();
                move || self.rebuild_range(&failed, lo, hi)
            })
            .collect();
        let mut totals = RebuildChunk::default();
        for chunk in pool.run(jobs) {
            let chunk = chunk?;
            totals.rebuilt += chunk.rebuilt;
            totals.already_valid += chunk.already_valid;
            totals.unmapped += chunk.unmapped;
        }
        {
            let _guards = self.lock_all_stripes();
            let mut st = lock(&self.state);
            st.failed.clear();
            self.degraded.store(false, Ordering::Release);
        }
        // Persist the rebuilt disks' checksum regions before declaring
        // the array fault-free: a crash between the two must not leave
        // a replacement's on-disk slots at their formatted state.
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
            wall_secs: start.elapsed().as_secs_f64(),
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
                    let mut st = lock(&self.state);
                    if let Some(f) = st.slot_mut(u.disk) {
                        if let Some(rebuilt) = &mut f.rebuilt {
                            rebuilt[u.offset as usize] = true;
                        }
                    }
                }
            }
        }
        Ok(chunk)
    }

    // ------------------------------------------------------------------
    // Consistency
    // ------------------------------------------------------------------

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
        let m = self.parity_units() as usize;
        let mut accs: Vec<PooledBuf<'_>> = (0..m).map(|_| self.buffers.get()).collect();
        let mut tmp = self.buffers.get();
        for seq in 0..self.mapping.stripes() {
            let stripe = self.mapping.stripe_by_seq(seq);
            let _guard = self.lock_stripe(stripe);
            let units = self.mapping.stripe_units(stripe);
            let d = units.len() - m;
            for acc in accs.iter_mut() {
                acc.fill(0);
            }
            for (i, u) in units[..d].iter().enumerate() {
                self.disks[u.disk as usize].read_unit(u.offset, &mut tmp)?;
                parity::xor_into(&mut accs[0], &tmp);
                if m == 2 {
                    parity::gf_mul_into(&mut accs[1], &tmp, parity::gf_pow2(i as u16));
                }
            }
            for (j, u) in units[d..].iter().enumerate() {
                self.disks[u.disk as usize].read_unit(u.offset, &mut tmp)?;
                if *accs[j] != *tmp {
                    return Err(StoreError::ParityMismatch { stripe });
                }
            }
        }
        Ok(())
    }

    /// Corrupts a stripe's parity unit — the write-hole injection hook
    /// for crash-recovery tests and demos.
    ///
    /// # Errors
    ///
    /// Fails if the stripe is unmapped, its parity unit is lost, or the
    /// I/O fails.
    pub fn scramble_parity(&self, stripe: u64) -> Result<()> {
        self.check_writable()?;
        let parity = self.live_parity(stripe)?;
        let _guard = self.lock_stripe(stripe);
        let mut buf = self.buffers.get();
        self.disks[parity.disk as usize].read_unit(parity.offset, &mut buf)?;
        for b in buf.iter_mut() {
            *b = !*b;
        }
        self.disks[parity.disk as usize].write_unit(parity.offset, &buf)
    }

    /// Recomputes a stripe's live parity units from its data — the
    /// per-stripe repair a resync applies to a torn stripe.
    ///
    /// # Errors
    ///
    /// As for [`BlockStore::scramble_parity`], plus an invalid-state
    /// error if one of the stripe's data units is lost (parity is then
    /// the only copy and must not be overwritten).
    pub fn recompute_parity(&self, stripe: u64) -> Result<()> {
        self.check_writable()?;
        if !self.mapping.is_mapped(stripe) {
            return Err(StoreError::state(format!("stripe {stripe} is not mapped")));
        }
        let _guard = self.lock_stripe(stripe);
        let units = self.mapping.stripe_units(stripe);
        let m = self.parity_units() as usize;
        let d = units.len() - m;
        let lost = self.lost_flags(&units);
        if lost[..d].iter().any(|&l| l) {
            return Err(StoreError::state(format!(
                "stripe {stripe} has a lost data unit — parity is its only copy"
            )));
        }
        if lost[d..].iter().all(|&l| l) {
            return Err(StoreError::state(format!(
                "stripe {stripe} has no live parity unit"
            )));
        }
        let mut data = Vec::with_capacity(d);
        for u in &units[..d] {
            let mut b = self.buffers.get();
            self.disks[u.disk as usize].read_unit(u.offset, &mut b)?;
            data.push(b);
        }
        let mut out = self.buffers.get();
        for (j, u) in units[d..].iter().enumerate() {
            if lost[d + j] {
                continue;
            }
            self.compute_parity_into(j as u16, &data, &mut out);
            self.disks[u.disk as usize].write_unit(u.offset, &out)?;
        }
        Ok(())
    }

    /// The first live parity unit of `stripe`.
    fn live_parity(&self, stripe: u64) -> Result<UnitAddr> {
        if !self.mapping.is_mapped(stripe) {
            return Err(StoreError::state(format!("stripe {stripe} is not mapped")));
        }
        let units = self.mapping.stripe_units(stripe);
        let d = units.len() - self.parity_units() as usize;
        let st = lock(&self.state);
        units[d..]
            .iter()
            .find(|u| !st.is_lost(**u))
            .copied()
            .ok_or_else(|| StoreError::state(format!("stripe {stripe} has no live parity unit")))
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
    fn recover(&self, policy: RecoveryPolicy) -> Result<ConsistencyReport> {
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
        let m = self.parity_units() as usize;
        let mut accs: Vec<PooledBuf<'_>> = (0..m).map(|_| self.buffers.get()).collect();
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
            let d = units.len() - m;
            for acc in accs.iter_mut() {
                acc.fill(0);
            }
            for (i, u) in units[..d].iter().enumerate() {
                self.disks[u.disk as usize].read_unit(u.offset, &mut tmp)?;
                // The slots of every unit in a dirty region may be
                // stale (in-memory tables died with the crash):
                // recompute them from the on-disk bytes.
                self.disks[u.disk as usize].note_contents(u.offset, &tmp);
                parity::xor_into(&mut accs[0], &tmp);
                if m == 2 {
                    parity::gf_mul_into(&mut accs[1], &tmp, parity::gf_pow2(i as u16));
                }
                report.resync_units_read += 1;
            }
            let mut stripe_torn = false;
            for (j, u) in units[d..].iter().enumerate() {
                self.disks[u.disk as usize].read_unit(u.offset, &mut tmp)?;
                self.disks[u.disk as usize].note_contents(u.offset, &tmp);
                report.resync_units_read += 1;
                if *accs[j] != *tmp {
                    stripe_torn = true;
                    self.disks[u.disk as usize].write_unit(u.offset, &accs[j])?;
                    report.resync_units_written += 1;
                }
            }
            if stripe_torn {
                report.torn_found += 1;
                report.torn_repaired += 1;
            }
        }
        // Persist the healed tables before dropping the dirty bits: a
        // crash in between must re-run this heal, not trust stale slots.
        self.persist_all_sums()?;
        lock(&self.intent).clear_all()?;
        report.recovery_secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Rewrites every live superblock with the current fault state and
    /// the given `clean` flag. The failed disk is skipped until a
    /// replacement is installed (its medium is gone).
    fn write_superblocks(&self, clean: bool) -> Result<()> {
        let (encoded, skip) = {
            let st = lock(&self.state);
            (st.encoded(), st.unreplaced())
        };
        for (i, d) in self.disks.iter().enumerate() {
            if skip.contains(&(i as u16)) {
                continue;
            }
            d.write_superblock(&Superblock {
                version: self.version,
                spec: self.spec,
                unit_bytes: self.unit_bytes as u32,
                units_per_disk: self.mapping.units_per_disk(),
                disk_index: i as u16,
                array_id: self.array_id,
                clean,
                failed: encoded,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("decluster-store-unit-tests")
            .join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn small_spec() -> LayoutSpec {
        LayoutSpec::Complete { disks: 5, group: 4 }
    }

    #[test]
    fn create_write_read_round_trip_and_reopen() {
        let dir = fresh_dir("round-trip");
        let store = BlockStore::create(&dir, small_spec(), 32, 1024, 42).unwrap();
        let blocks = store.block_count();
        assert_eq!(blocks, store.data_units() * 2, "1024-byte units, 2 blocks");

        let pattern: Vec<u8> = (0..store.unit_bytes()).map(|i| (i % 251) as u8).collect();
        store.write_unit(7, &pattern).unwrap();
        // A sub-unit block write splices without touching the rest.
        let half = vec![0xA5u8; BLOCK_BYTES as usize];
        store.write_blocks(15, &half).unwrap();
        let mut back = vec![0u8; store.unit_bytes()];
        store.read_unit(7, &mut back).unwrap();
        assert_eq!(&back[..512], &pattern[..512]);
        assert_eq!(&back[512..], &half[..]);
        store.verify_parity().unwrap();
        store.close().unwrap();

        // A clean reopen runs no recovery and sees the same bytes.
        let (store, report) = BlockStore::open(&dir).unwrap();
        assert!(report.is_none(), "clean close must skip recovery");
        let mut back = vec![0u8; store.unit_bytes()];
        store.read_unit(7, &mut back).unwrap();
        assert_eq!(&back[..512], &pattern[..512]);
        store.close().unwrap();
    }

    #[test]
    fn unclean_open_recovers_torn_parity() {
        let dir = fresh_dir("torn");
        let store = BlockStore::create(&dir, small_spec(), 32, 512, 7).unwrap();
        for l in 0..store.data_units() {
            store.write_unit(l, &vec![l as u8; 512]).unwrap();
        }
        // Tear a stripe and drop the store without close: superblocks
        // still say not-clean, so the reopen must resync.
        let (stripe, _) = store.mapping().logical_to_stripe(3);
        let seq = store.mapping().seq_of_stripe(stripe).unwrap();
        let region = lock(&store.intent).region() as u64;
        store.scramble_parity(stripe).unwrap();
        lock(&store.intent).stage_range(seq, seq).unwrap();
        drop(store);

        let (store, report) =
            BlockStore::open_with_recovery(&dir, RecoveryPolicy::FullResync).unwrap();
        let report = report.expect("unclean store must recover");
        assert_eq!(report.torn_found, 1);
        assert_eq!(report.torn_repaired, 1);
        assert_eq!(report.stripes_checked, store.mapping().stripes());
        store.verify_parity().unwrap();

        // The dirty-region log checks only the marked region — the
        // stripes sharing the torn stripe's bit, not the whole store.
        let dirty_span = {
            let lo = seq / region * region;
            (lo + region).min(store.mapping().stripes()) - lo
        };
        assert!(dirty_span < store.mapping().stripes(), "region too coarse");
        store.scramble_parity(stripe).unwrap();
        lock(&store.intent).stage_range(seq, seq).unwrap();
        drop(store);
        let (store, report) =
            BlockStore::open_with_recovery(&dir, RecoveryPolicy::DirtyRegionLog).unwrap();
        let report = report.expect("still unclean");
        assert_eq!(
            report.stripes_checked, dirty_span,
            "DRL resyncs only the dirty region"
        );
        assert_eq!(report.torn_repaired, 1);
        store.verify_parity().unwrap();
        store.close().unwrap();
    }

    #[test]
    fn batched_multi_stripe_tear_recovers_every_covered_stripe() {
        let dir = fresh_dir("batched-torn");
        let store = BlockStore::create(&dir, small_spec(), 32, 512, 8).unwrap();
        for l in 0..store.data_units() {
            store.write_unit(l, &vec![(l as u8) ^ 0x33; 512]).unwrap();
        }
        // Flush the lazily-set fill bits (as an idle store would —
        // clearing intent bits implies the checksum region is persisted
        // first, as close and recover both do), then simulate a crash
        // inside one multi-stripe request: the range was staged once
        // (one persist), then two of its stripes tore.
        store.persist_all_sums().unwrap();
        lock(&store.intent).clear_all().unwrap();
        let (stripe_a, _) = store.mapping().logical_to_stripe(0);
        let (stripe_b, _) = store.mapping().logical_to_stripe(5);
        let seq_a = store.mapping().seq_of_stripe(stripe_a).unwrap();
        let seq_b = store.mapping().seq_of_stripe(stripe_b).unwrap();
        lock(&store.intent).stage_range(seq_a, seq_b).unwrap();
        store.scramble_parity(stripe_a).unwrap();
        store.scramble_parity(stripe_b).unwrap();
        drop(store);

        let (store, report) =
            BlockStore::open_with_recovery(&dir, RecoveryPolicy::DirtyRegionLog).unwrap();
        let report = report.expect("unclean store must recover");
        assert_eq!(report.torn_found, 2);
        assert_eq!(report.torn_repaired, 2);
        assert!(report.stripes_checked < store.mapping().stripes());
        store.verify_parity().unwrap();
        store.close().unwrap();
    }

    #[test]
    fn geometry_and_extent_errors_are_typed() {
        let dir = fresh_dir("errors");
        assert!(BlockStore::create(&dir, small_spec(), 32, 500, 1).is_err());
        let store = BlockStore::create(&dir, small_spec(), 32, 512, 1).unwrap();
        assert!(BlockStore::create(&dir, small_spec(), 32, 512, 1).is_err());
        assert!(store.read_blocks(0, &mut [0u8; 100]).is_err());
        let end = store.block_count();
        assert!(store.write_blocks(end, &[0u8; 512]).is_err());
        assert!(store.write_unit(store.data_units(), &[0u8; 512]).is_err());
        assert!(store.replace_disk().is_err(), "nothing failed yet");
        assert!(store.rebuild(1).is_err(), "nothing failed yet");
        assert!(store.fail_disk(99).is_err());
        store.close().unwrap();
    }

    #[test]
    fn mixed_array_files_refuse_to_open() {
        let a = fresh_dir("mix-a");
        let b = fresh_dir("mix-b");
        BlockStore::create(&a, small_spec(), 32, 512, 111)
            .unwrap()
            .close()
            .unwrap();
        BlockStore::create(&b, small_spec(), 32, 512, 222)
            .unwrap()
            .close()
            .unwrap();
        // Swap one backing file between the arrays.
        std::fs::copy(b.join("disk-002.dat"), a.join("disk-002.dat")).unwrap();
        let err = BlockStore::open(&a).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn fail_degraded_io_rebuild_cycle() {
        let dir = fresh_dir("cycle");
        let store = BlockStore::create(&dir, small_spec(), 32, 512, 9).unwrap();
        let unit = |l: u64| vec![(l as u8) ^ 0x5A; 512];
        for l in 0..store.data_units() {
            store.write_unit(l, &unit(l)).unwrap();
        }
        store.fail_disk(2).unwrap();
        assert_eq!(store.failed_disk(), Some(2));
        assert!(store.fail_disk(3).is_err(), "already degraded");
        assert!(store.verify_parity().is_err(), "degraded store");
        // Degraded reads reconstruct, degraded writes fold.
        let mut back = vec![0u8; 512];
        for l in 0..store.data_units() {
            store.read_unit(l, &mut back).unwrap();
            assert_eq!(back, unit(l), "degraded read of {l}");
        }
        for l in 0..store.data_units() {
            store.write_unit(l, &unit(l + 1)).unwrap();
        }
        store.replace_disk().unwrap();
        let report = store.rebuild(2).unwrap();
        assert_eq!(report.failed_disks, vec![2]);
        assert!(report.units_rebuilt > 0);
        assert_eq!(store.failed_disk(), None);
        store.verify_parity().unwrap();
        for l in 0..store.data_units() {
            store.read_unit(l, &mut back).unwrap();
            assert_eq!(back, unit(l + 1), "post-rebuild read of {l}");
        }
        store.close().unwrap();

        // Reopen: survivors' superblocks say fault-free again.
        let (store, _) = BlockStore::open(&dir).unwrap();
        assert_eq!(store.failed_disk(), None);
        store.verify_parity().unwrap();
        store.close().unwrap();
    }

    #[test]
    fn reopen_while_degraded_tolerates_scrambled_superblock() {
        let dir = fresh_dir("degraded-reopen");
        let store = BlockStore::create(&dir, small_spec(), 32, 512, 13).unwrap();
        for l in 0..store.data_units() {
            store.write_unit(l, &vec![l as u8; 512]).unwrap();
        }
        store.fail_disk(1).unwrap();
        store.close().unwrap();

        let (store, report) = BlockStore::open(&dir).unwrap();
        assert!(report.is_none(), "clean degraded close");
        assert_eq!(store.failed_disk(), Some(1));
        let mut back = vec![0u8; 512];
        for l in 0..store.data_units() {
            store.read_unit(l, &mut back).unwrap();
            assert_eq!(back, vec![l as u8; 512]);
        }
        store.replace_disk().unwrap();
        store.rebuild(1).unwrap();
        store.verify_parity().unwrap();
        store.close().unwrap();
    }
}
