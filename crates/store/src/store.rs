//! The block store proper: one backing file per disk, the simulator's
//! layout math routing every access.
//!
//! [`BlockStore`] exposes a flat logical block address space
//! ([`BLOCK_BYTES`](crate::BLOCK_BYTES)-sized blocks) and maps it through
//! [`ArrayMapping`] exactly as the byte-accurate model
//! (`decluster_array::data::DataArray`) does, so the two are
//! byte-for-byte comparable: fault-free writes are read-modify-write
//! (`parity ^= old ^ new`), writes whose parity unit is lost store the
//! data alone, writes whose data unit is lost fold the new value into
//! parity (and go straight to the replacement once one is installed),
//! and degraded reads reconstruct on the fly from the XOR of the
//! stripe's survivors.
//!
//! This file holds the [`BlockStore`] struct, its per-disk and fault
//! state, the accessors and the stripe locks. The rest of the `impl` is
//! split by concern: `lifecycle` (create, open, flush, close), `io`
//! (the stripe decode engine and block I/O), `rebuild` (failure,
//! replacement, online rebuild), `consistency` (parity check and crash
//! resync) and `repair` (verified reads, read-repair, scrub).
//!
//! Concurrency: a fixed table of stripe locks serializes the
//! read-modify-write cycles of colliding stripes while letting disjoint
//! stripes proceed in parallel (batches acquire their buckets in table
//! order, the same global order `lock_all_stripes` uses); admin
//! transitions (`fail_disk`, `replace_disk`, rebuild completion) take
//! every stripe lock, so they see no in-flight user I/O. Fault-free
//! requests never touch the fault-state mutex — a `degraded` atomic,
//! flipped only under the full lock table, gates the slow path.

use crate::backend::DiskBackend;
use crate::bitmap::{IntentBitmap, SyncGate};
use crate::buffer::BufferPool;
use crate::checksum::{fingerprint64, ChecksumTable};
use crate::error::{Result, StoreError};
use crate::health::{FaultCounters, HealthMonitor};
use crate::lock;
use crate::stats::StoreStats;
use crate::superblock::{LayoutSpec, Superblock, SUPERBLOCK_BYTES};
use decluster_core::layout::{ArrayMapping, UnitAddr, UnitRole};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Upper bound on the stripe-lock table; stripes hash onto it by id.
pub(crate) const MAX_STRIPE_LOCKS: u64 = 1024;

/// One disk's backing store (behind its [`DiskBackend`]), with
/// cumulative unit-I/O counters — the observable that makes the
/// paper's α = (G−1)/(C−1) rebuild read fraction measurable on real
/// files — and the in-memory checksum table of its units.
#[derive(Debug)]
pub(crate) struct DiskFile {
    pub(crate) index: u16,
    pub(crate) path: PathBuf,
    pub(crate) backend: Box<dyn DiskBackend>,
    /// Byte offset of the data area: superblock, then the checksum
    /// region.
    pub(crate) data_start: u64,
    /// In-memory checksum table.
    pub(crate) sums: ChecksumTable,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl DiskFile {
    /// Disk `index` over `backend`, its data area at `data_start` and
    /// `sums` as its checksum table; the I/O counters start at zero.
    pub(crate) fn new(
        index: u16,
        path: PathBuf,
        backend: Box<dyn DiskBackend>,
        data_start: u64,
        sums: ChecksumTable,
    ) -> DiskFile {
        DiskFile {
            index,
            path,
            backend,
            data_start,
            sums,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    pub(crate) fn open_file(path: &Path, create: bool) -> Result<std::fs::File> {
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
        self.read_units(offset, buf, buf.len())
    }

    /// Reads `buf.len() / unit_bytes` units contiguous from `offset` in
    /// one positional read, unverified — the coalesced form the healthy
    /// multi-unit read uses for adjacent units on one disk.
    pub(crate) fn read_units(&self, offset: u64, buf: &mut [u8], unit_bytes: usize) -> Result<()> {
        debug_assert!(buf.len().is_multiple_of(unit_bytes));
        let pos = self.data_start + offset * unit_bytes as u64;
        self.backend
            .read_at(buf, pos)
            .map_err(|e| StoreError::media(self.index, offset, &e))?;
        self.reads
            .fetch_add((buf.len() / unit_bytes) as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Verifies `data` (the unit at `offset`, as just read) against the
    /// checksum table.
    pub(crate) fn check_sum(&self, offset: u64, data: &[u8]) -> Result<()> {
        if self.sums.get(offset) != fingerprint64(data) {
            return Err(StoreError::Media {
                disk: self.index,
                offset,
                kind: crate::error::MediaKind::Checksum,
            });
        }
        Ok(())
    }

    /// Reads the unit at `offset` into `buf` and verifies it against
    /// the checksum table.
    pub(crate) fn read_checked(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_unit(offset, buf)?;
        self.check_sum(offset, buf)
    }

    /// Writes the stripe unit at `offset` and records its checksum.
    pub(crate) fn write_unit(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_units(offset, data, data.len())
    }

    /// Writes `data.len() / unit_bytes` units contiguous from `offset`
    /// in one positional submission — the coalesced form the
    /// full-stripe batch uses for adjacent units on one disk.
    pub(crate) fn write_units(&self, offset: u64, data: &[u8], unit_bytes: usize) -> Result<()> {
        debug_assert!(data.len().is_multiple_of(unit_bytes));
        let pos = self.data_start + offset * unit_bytes as u64;
        self.backend
            .write_at(data, pos)
            .map_err(|e| StoreError::media(self.index, offset, &e))?;
        for (i, unit) in data.chunks_exact(unit_bytes).enumerate() {
            self.sums.set(offset + i as u64, fingerprint64(unit));
        }
        self.writes
            .fetch_add((data.len() / unit_bytes) as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Refreshes the checksum slot for `offset` from bytes known to be
    /// on disk — crash recovery healing possibly-stale slots.
    pub(crate) fn note_contents(&self, offset: u64, data: &[u8]) {
        self.sums.set(offset, fingerprint64(data));
    }

    /// Persists the in-memory checksum table into the on-disk region.
    pub(crate) fn persist_sums(&self) -> Result<()> {
        self.backend
            .write_at(&self.sums.encode(), SUPERBLOCK_BYTES)
            .map_err(|e| StoreError::io("write checksum region", &self.path, e))
    }

    /// Writes `sb` and makes it durable — it alone: a caller that needs
    /// other bytes of this file durable first syncs them itself.
    pub(crate) fn write_superblock(&self, sb: &Superblock) -> Result<()> {
        self.backend
            .write_durable_at(&sb.encode(), 0)
            .map_err(|e| StoreError::io("write superblock", &self.path, e))
    }

    pub(crate) fn sync(&self) -> Result<()> {
        self.backend
            .sync()
            .map_err(|e| StoreError::io("sync backing file", &self.path, e))
    }
}

/// One failed disk: its index, and once a replacement is installed,
/// the per-offset rebuilt map.
#[derive(Debug)]
pub(crate) struct FailedDisk {
    pub(crate) disk: u16,
    pub(crate) rebuilt: Option<Vec<bool>>,
}

/// The fault state, mirroring `DataArray`: the failed disks in failure
/// order — at most one for single-parity layouts, up to two for P+Q.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) failed: Vec<FailedDisk>,
}

impl FaultState {
    /// Whether `addr` is currently unreadable (failed and not yet
    /// rebuilt).
    pub(crate) fn is_lost(&self, addr: UnitAddr) -> bool {
        self.failed.iter().any(|f| {
            f.disk == addr.disk && f.rebuilt.as_ref().is_none_or(|r| !r[addr.offset as usize])
        })
    }

    pub(crate) fn slot(&self, disk: u16) -> Option<&FailedDisk> {
        self.failed.iter().find(|f| f.disk == disk)
    }

    /// Records `disk` as failed, with no replacement installed.
    pub(crate) fn fail(&mut self, disk: u16) {
        self.failed.push(FailedDisk {
            disk,
            rebuilt: None,
        });
    }

    /// Marks `addr` valid on its disk's installed replacement, if any.
    pub(crate) fn mark_rebuilt(&mut self, addr: UnitAddr) {
        let slot = self.failed.iter_mut().find(|f| f.disk == addr.disk);
        if let Some(rebuilt) = slot.and_then(|f| f.rebuilt.as_mut()) {
            rebuilt[addr.offset as usize] = true;
        }
    }

    /// The failed disks in the superblock's two-slot wire form.
    pub(crate) fn encoded(&self) -> [Option<u16>; 2] {
        let mut out = [None; 2];
        for (slot, f) in out.iter_mut().zip(&self.failed) {
            *slot = Some(f.disk);
        }
        out
    }

    /// Failed disks with no replacement installed yet — their media are
    /// gone, so superblock and checksum-region writes skip them.
    pub(crate) fn unreplaced(&self) -> Vec<u16> {
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

/// A file-backed declustered array.
///
/// All I/O methods take `&self`; the store is `Sync` and safe to drive
/// from many threads at once.
#[derive(Debug)]
pub struct BlockStore {
    pub(crate) dir: PathBuf,
    pub(crate) mapping: ArrayMapping,
    pub(crate) spec: LayoutSpec,
    pub(crate) array_id: u64,
    pub(crate) unit_bytes: usize,
    pub(crate) blocks_per_unit: u64,
    pub(crate) disks: Vec<Arc<DiskFile>>,
    pub(crate) locks: Vec<Mutex<()>>,
    pub(crate) state: Mutex<FaultState>,
    /// Mirrors `!state.failed.is_empty()`; set only by `update_faults`,
    /// with every stripe lock held, so I/O paths can skip the state
    /// mutex when fault-free.
    pub(crate) degraded: AtomicBool,
    pub(crate) intent: Mutex<IntentBitmap>,
    pub(crate) gate: SyncGate,
    pub(crate) buffers: BufferPool,
    pub(crate) health: HealthMonitor,
}

impl BlockStore {
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

    /// Logical blocks addressable ([`BLOCK_BYTES`](crate::BLOCK_BYTES) each).
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

    /// Sets the per-disk error budget: once more than `budget` faults
    /// are charged to one disk, it is auto-demoted to failed at the
    /// next operation boundary (and an online rebuild can bring the
    /// array back). `u64::MAX` — the default — disables the policy.
    pub fn set_error_budget(&self, budget: u64) {
        self.health.set_budget(budget);
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
    pub(crate) fn data_per_stripe(&self) -> u64 {
        (self.mapping.stripe_width() - self.parity_units()) as u64
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The stripe-lock table slot `stripe` hashes onto.
    pub(crate) fn lock_bucket(&self, stripe: u64) -> usize {
        (stripe % self.locks.len() as u64) as usize
    }

    pub(crate) fn lock_stripe(&self, stripe: u64) -> MutexGuard<'_, ()> {
        lock(&self.locks[self.lock_bucket(stripe)])
    }

    pub(crate) fn lock_all_stripes(&self) -> Vec<MutexGuard<'_, ()>> {
        self.locks.iter().map(lock).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::FileBackend;
    use crate::lifecycle::disk_path;
    use crate::superblock::BLOCK_BYTES;
    use decluster_array::RecoveryPolicy;
    use std::os::unix::fs::FileExt;

    /// A scratch directory for one test, removed with everything in it
    /// when dropped, so no run leaves its backing files behind.
    #[derive(Debug)]
    pub(crate) struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// An empty scratch directory named for the test and this process.
    pub(crate) fn fresh_dir(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "decluster-store-unit-{name}-{}",
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        TempDir(dir)
    }

    fn small_spec() -> LayoutSpec {
        LayoutSpec::Complete { disks: 5, group: 4 }
    }

    impl BlockStore {
        /// Tears `stripe` the way an interrupted write would: every byte
        /// of its last parity unit (Q on a P+Q layout) flipped, straight
        /// through the unit's disk.
        fn scramble_parity(&self, stripe: u64) -> Result<()> {
            let parity = *self.mapping.stripe_units(stripe).last().unwrap();
            let disk = &self.disks[parity.disk as usize];
            let mut buf = self.buffers.get();
            disk.read_unit(parity.offset, &mut buf)?;
            for b in buf.iter_mut() {
                *b = !*b;
            }
            disk.write_unit(parity.offset, &buf)
        }
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
        // The torn unit is P on the single-parity layout and Q on P+Q,
        // where only the weighted fold can see it.
        let pq: LayoutSpec = "pq:c5g4".parse().unwrap();
        for (name, spec) in [("torn", small_spec()), ("torn-pq", pq)] {
            unclean_open_recovers_torn_parity_on(name, spec);
        }
    }

    fn unclean_open_recovers_torn_parity_on(name: &str, spec: LayoutSpec) {
        let dir = fresh_dir(name);
        let store = BlockStore::create(&dir, spec, 32, 512, 7).unwrap();
        for l in 0..store.data_units() {
            store.write_unit(l, &vec![l as u8; 512]).unwrap();
        }
        // Tear a stripe and drop the store without close: superblocks
        // still say not-clean, so the reopen must resync.
        let (stripe, _) = store.mapping().logical_to_stripe(3);
        let seq = store.mapping().seq_of_stripe(stripe).unwrap();
        let region = lock(&store.intent).region() as u64;
        store.scramble_parity(stripe).unwrap();
        let err = store.verify_parity().unwrap_err();
        assert!(
            matches!(err, StoreError::ParityMismatch { stripe: s } if s == stripe),
            "{spec}: {err}"
        );
        lock(&store.intent).stage_range(seq, seq).unwrap();
        drop(store);

        let (store, report) =
            BlockStore::open_with_recovery(&dir, RecoveryPolicy::FullResync).unwrap();
        let report = report.expect("unclean store must recover");
        assert_eq!(report.torn_found, 1, "{spec}");
        assert_eq!(report.torn_repaired, 1, "{spec}");
        assert_eq!(report.resync_units_written, 1, "{spec}");
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
    fn forged_geometry_is_refused_before_anything_is_sized() {
        let dir = fresh_dir("forged-geometry");
        BlockStore::create(&dir, small_spec(), 32, 512, 17)
            .unwrap()
            .close()
            .unwrap();
        // Rewrite every superblock consistently and with a valid
        // checksum, so only the geometry itself can give the lie away.
        for units in [u64::MAX, 1 << 61, 1 << 36] {
            for disk in 0..small_spec().disks() {
                let path = disk_path(&dir, disk);
                let file = DiskFile::open_file(&path, false).unwrap();
                let mut buf = vec![0u8; SUPERBLOCK_BYTES as usize];
                file.read_exact_at(&mut buf, 0).unwrap();
                let mut sb = Superblock::decode(&buf, &path).unwrap();
                sb.units_per_disk = units;
                file.write_all_at(&sb.encode(), 0).unwrap();
            }
            let err = BlockStore::open(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{units}: {err}");
        }
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
        assert!(report.sweep_secs > 0.0, "{report:?}");
        assert!(report.sweep_secs <= report.wall_secs, "{report:?}");
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

    /// `fail_disk` leaves the failed disk's file empty. The array must
    /// reopen from that after a clean close and after a crash (a drop
    /// without `close`) under either recovery policy, serve every unit
    /// as written, and rebuild.
    #[test]
    fn reopen_while_degraded_tolerates_truncated_failed_disk() {
        for (name, crash, policy) in [
            ("degraded-reopen", false, RecoveryPolicy::DirtyRegionLog),
            ("degraded-crash-drl", true, RecoveryPolicy::DirtyRegionLog),
            ("degraded-crash-full", true, RecoveryPolicy::FullResync),
        ] {
            let dir = fresh_dir(name);
            let store = BlockStore::create(&dir, small_spec(), 32, 512, 13).unwrap();
            // Unit `l` holds `l ^ tag`; even units are rewritten with a
            // new tag while degraded.
            let unit = |l: u64, tag: u8| vec![l as u8 ^ tag; 512];
            let tag = |l: u64| if l.is_multiple_of(2) { 0x5A } else { 0 };
            for l in 0..store.data_units() {
                store.write_unit(l, &unit(l, 0)).unwrap();
            }
            store.fail_disk(1).unwrap();
            assert_eq!(std::fs::metadata(disk_path(&dir, 1)).unwrap().len(), 0);
            for l in (0..store.data_units()).step_by(2) {
                store.write_unit(l, &unit(l, tag(l))).unwrap();
            }
            if crash {
                drop(store);
            } else {
                store.close().unwrap();
            }

            let (store, report) = BlockStore::open_with_recovery(&dir, policy).unwrap();
            assert_eq!(
                report.is_some(),
                crash,
                "{name}: recovery runs after a crash only"
            );
            assert_eq!(store.failed_disks(), vec![1], "{name}");
            let mut back = vec![0u8; 512];
            for l in 0..store.data_units() {
                store.read_unit(l, &mut back).unwrap();
                assert_eq!(back, unit(l, tag(l)), "{name}: unit {l}");
            }
            store.replace_disk().unwrap();
            store.rebuild(1).unwrap();
            store.verify_parity().unwrap();
            store.close().unwrap();
        }
    }

    /// A file backend whose syncs, durable writes, or `set_len` fail
    /// once armed: a stand-in for a crash at that call, since nothing
    /// after it in a transition runs.
    #[derive(Debug)]
    struct Refusing {
        inner: FileBackend,
        sync: bool,
        durable: bool,
        set_len: bool,
        armed: Arc<AtomicBool>,
    }

    impl Refusing {
        fn refuse(&self, call: bool) -> std::io::Result<()> {
            if call && self.armed.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("crash"));
            }
            Ok(())
        }
    }

    impl DiskBackend for Refusing {
        fn read_at(&self, buf: &mut [u8], pos: u64) -> std::io::Result<()> {
            self.inner.read_at(buf, pos)
        }

        fn write_at(&self, data: &[u8], pos: u64) -> std::io::Result<()> {
            self.inner.write_at(data, pos)
        }

        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.refuse(self.set_len)?;
            self.inner.set_len(len)
        }

        fn sync(&self) -> std::io::Result<()> {
            self.refuse(self.sync)?;
            self.inner.sync()
        }

        fn write_durable_at(&self, data: &[u8], pos: u64) -> std::io::Result<()> {
            self.refuse(self.durable)?;
            self.inner.write_durable_at(data, pos)
        }
    }

    /// A crash at any step of `fail_disk` leaves an array that opens
    /// under either recovery policy with every unit as written: the
    /// failed disk's file is dropped only once every superblock records
    /// the failure, so no crash leaves an unreadable superblock that
    /// the survivors do not mark failed. Dropping the file is best
    /// effort, so a disk that refuses even that still fails cleanly.
    ///
    /// Before the crash, the store must serve every unit. A transition
    /// that failed before any superblock recorded it is undone in
    /// memory, so the array is not degraded and a retry of `fail_disk`
    /// succeeds; such a case runs twice, crashing as it stands and
    /// after the retry. Once a superblock records the failure, the disk
    /// stays failed, as a reopen finds it.
    #[test]
    fn a_crash_inside_fail_disk_reopens() {
        const NONE: u16 = u16::MAX;
        // (case, disk refusing syncs, first disk refusing durable
        // writes, disk refusing set_len, whether fail_disk succeeds,
        // whether disk 1 stays failed in memory)
        let cases = [
            ("crash-in-live-sync", 0, NONE, NONE, false, false),
            ("crash-before-superblocks", NONE, 0, NONE, false, false),
            ("crash-between-superblocks", NONE, 2, NONE, false, true),
            ("crash-before-truncation", NONE, NONE, 1, true, true),
        ];
        for (case, sync_on, durable_from, set_len_on, ok, kept) in cases {
            let retries: &[bool] = if kept { &[false] } else { &[false, true] };
            for &retry in retries {
                for policy in [RecoveryPolicy::DirtyRegionLog, RecoveryPolicy::FullResync] {
                    let name = format!(
                        "{case}-{}-{policy:?}",
                        if retry { "retried" } else { "as-is" }
                    );
                    let dir = fresh_dir(&name);
                    let armed = Arc::new(AtomicBool::new(false));
                    let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
                        Box::new(Refusing {
                            inner: FileBackend::new(file),
                            sync: i == sync_on,
                            durable: i >= durable_from,
                            set_len: i == set_len_on,
                            armed: Arc::clone(&armed),
                        })
                    };
                    let store =
                        BlockStore::create_with_backend(&dir, small_spec(), 32, 512, 17, &factory)
                            .unwrap();
                    let unit = |l: u64| vec![l as u8 ^ 0x3C; 512];
                    for l in 0..store.data_units() {
                        store.write_unit(l, &unit(l)).unwrap();
                    }
                    armed.store(true, Ordering::SeqCst);
                    assert_eq!(store.fail_disk(1).is_ok(), ok, "{name}");
                    let in_memory: &[u16] = if kept { &[1] } else { &[] };
                    assert_eq!(store.failed_disks(), in_memory, "{name}: in memory");
                    assert_eq!(store.is_degraded(), kept, "{name}: degraded mirror");
                    let mut back = vec![0u8; 512];
                    for l in 0..store.data_units() {
                        store.read_unit(l, &mut back).unwrap();
                        assert_eq!(back, unit(l), "{name}: unit {l} before the crash");
                    }
                    if retry {
                        armed.store(false, Ordering::SeqCst);
                        store.fail_disk(1).unwrap();
                        assert_eq!(store.failed_disks(), vec![1], "{name}: after the retry");
                    }
                    drop(store);

                    let (store, report) = BlockStore::open_with_recovery(&dir, policy).unwrap();
                    // Disk 1's file was truncated only by a retry that
                    // completed.
                    let len = std::fs::metadata(disk_path(&dir, 1)).unwrap().len();
                    assert_eq!(len == 0, retry, "{name}: disk 1 is {len} bytes");
                    assert!(report.is_some(), "{name}: a crash runs recovery");
                    let failed = store.failed_disks();
                    assert_eq!(failed.is_empty(), !kept && !retry, "{name}: {failed:?}");
                    for l in 0..store.data_units() {
                        store.read_unit(l, &mut back).unwrap();
                        assert_eq!(back, unit(l), "{name}: unit {l}");
                    }
                    if !failed.is_empty() {
                        assert_eq!(failed, vec![1], "{name}");
                        store.replace_disk().unwrap();
                        store.rebuild(1).unwrap();
                    }
                    store.verify_parity().unwrap();
                    store.close().unwrap();
                }
            }
        }
    }
}
