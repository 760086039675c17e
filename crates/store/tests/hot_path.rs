//! Hot-path guarantees: the full-stripe fast path's I/O budget
//! (exactly G writes, zero reads), its byte-equivalence to the
//! unit-at-a-time RMW path, the multi-unit read's budget (one backend
//! read per maximal per-disk run), the rebuild's budget (one backend
//! call per survivor run and per replacement run of each window, one
//! decode per stripe), the exact syncs and durable writes of
//! `fail_disk` and of a loaded rebuild, and byte-correctness under
//! concurrent writers hammering overlapping stripes.

mod common;

use common::{content, fresh_dir, TempDir};
use decluster_array::data::DataArray;
use decluster_core::design::BlockDesign;
use decluster_core::layout::DeclusteredLayout;
use decluster_store::{BlockStore, DiskBackend, FileBackend, LayoutSpec, BLOCK_BYTES};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const UNITS_PER_DISK: u64 = 36;
const UNIT_BYTES: usize = 1024;
const DISKS: u16 = 5;
const GROUP: u16 = 4;
const DATA_PER_STRIPE: u64 = (GROUP - 1) as u64;

/// A fresh store, and the directory it lives in.
fn store(name: &str) -> (BlockStore, TempDir) {
    let dir = fresh_dir(name);
    let store = BlockStore::create(
        &dir,
        LayoutSpec::Complete {
            disks: DISKS,
            group: GROUP,
        },
        UNITS_PER_DISK,
        UNIT_BYTES as u32,
        0xFA57,
    )
    .unwrap();
    (store, dir)
}

fn oracle() -> DataArray {
    let layout =
        Arc::new(DeclusteredLayout::new(BlockDesign::complete(DISKS, GROUP).unwrap()).unwrap());
    DataArray::new(layout, UNITS_PER_DISK, UNIT_BYTES).unwrap()
}

/// The acceptance criterion verbatim: a write extent covering all G−1
/// data units of a stripe costs exactly G disk writes and zero reads.
#[test]
fn full_stripe_write_costs_g_writes_zero_reads() {
    let (store, _dir) = store("budget");
    let bpu = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
    // One whole stripe, aligned to a stripe boundary.
    let data: Vec<u8> = (0..DATA_PER_STRIPE)
        .flat_map(|u| content(u, 7, UNIT_BYTES))
        .collect();
    let before = store.io_counters();
    store.write_blocks(0, &data).unwrap();
    let after = store.io_counters();
    let reads: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.reads - b.reads)
        .sum();
    let writes: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.writes - b.writes)
        .sum();
    assert_eq!(reads, 0, "full-stripe write must read nothing");
    assert_eq!(writes, GROUP as u64, "exactly G unit writes");
    // And the write is correct: parity holds, data reads back.
    store.verify_parity().unwrap();
    let mut buf = vec![0u8; UNIT_BYTES];
    for u in 0..DATA_PER_STRIPE {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, content(u, 7, UNIT_BYTES));
    }

    // A multi-stripe aligned extent stays on budget: G writes per
    // stripe, still zero reads, with adjacent per-disk units coalesced.
    let stripes = 8u64;
    let big: Vec<u8> = (0..stripes * DATA_PER_STRIPE)
        .flat_map(|u| content(u, 8, UNIT_BYTES))
        .collect();
    let before = store.io_counters();
    store.write_blocks(0, &big).unwrap();
    let after = store.io_counters();
    let reads: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.reads - b.reads)
        .sum();
    let writes: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.writes - b.writes)
        .sum();
    assert_eq!(reads, 0);
    assert_eq!(writes, stripes * GROUP as u64);
    store.verify_parity().unwrap();

    // An unaligned extent must fall back to RMW and still be correct.
    let tail = content(1, 9, UNIT_BYTES);
    let before = store.io_counters();
    store.write_blocks(bpu, &tail).unwrap();
    let after = store.io_counters();
    let reads: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.reads - b.reads)
        .sum();
    assert!(reads > 0, "sub-stripe write takes the RMW path");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

/// The fast path and the unit-at-a-time path must leave byte-identical
/// backing files — superblocks, data, and parity placement included.
#[test]
fn fast_path_and_unit_path_disks_are_byte_identical() {
    let (fast, _fast_dir) = store("fast");
    let (slow, _slow_dir) = store("slow");
    let data_units = fast.data_units();
    // Whole-device write: the fast store takes one stripe-aligned
    // extent at a time, the slow store writes unit by unit.
    let whole: Vec<u8> = (0..data_units)
        .flat_map(|u| content(u, 42, UNIT_BYTES))
        .collect();
    fast.write_blocks(0, &whole).unwrap();
    for u in 0..data_units {
        slow.write_unit(u, &content(u, 42, UNIT_BYTES)).unwrap();
    }
    fast.verify_parity().unwrap();
    slow.verify_parity().unwrap();
    let (fast_dir, slow_dir) = (fast.dir().to_path_buf(), slow.dir().to_path_buf());
    fast.close().unwrap();
    slow.close().unwrap();
    for d in 0..DISKS {
        let name = format!("disk-{d:03}.dat");
        let a = std::fs::read(fast_dir.join(&name)).unwrap();
        let b = std::fs::read(slow_dir.join(&name)).unwrap();
        assert!(a == b, "disk {d} diverged between fast and unit paths");
    }
}

/// N writer threads hammer overlapping stripes (disjoint units, so the
/// outcome is order-independent); the result must match the oracle.
#[test]
fn concurrent_writers_match_oracle() {
    let (store, _dir) = store("concurrent");
    let mut oracle = oracle();
    let data_units = store.data_units();
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 4;
    // Unit u is owned by thread u % WRITERS: neighbours in one stripe
    // belong to different threads, so stripe RMW cycles collide hard.
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for u in (0..data_units).filter(|u| u % WRITERS == w) {
                        store.write_unit(u, &content(u, round, UNIT_BYTES)).unwrap();
                    }
                }
            });
        }
    });
    for u in 0..data_units {
        oracle.write(u, &content(u, ROUNDS - 1, UNIT_BYTES));
    }
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();
    let mut buf = vec![0u8; UNIT_BYTES];
    for u in 0..data_units {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, oracle.read(u), "unit {u} diverged after racing");
    }

    // Same discipline through the batched full-stripe path: threads own
    // disjoint stripe-aligned extents whose lock buckets interleave.
    let stripes = data_units / DATA_PER_STRIPE;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                let bpu = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
                for stripe in (0..stripes).filter(|s| s % WRITERS == w) {
                    let lo = stripe * DATA_PER_STRIPE;
                    let data: Vec<u8> = (0..DATA_PER_STRIPE)
                        .flat_map(|k| content(lo + k, 100 + stripe, UNIT_BYTES))
                        .collect();
                    store.write_blocks(lo * bpu, &data).unwrap();
                }
            });
        }
    });
    for stripe in 0..stripes {
        let lo = stripe * DATA_PER_STRIPE;
        for k in 0..DATA_PER_STRIPE {
            oracle.write(lo + k, &content(lo + k, 100 + stripe, UNIT_BYTES));
        }
    }
    store.verify_parity().unwrap();
    for u in 0..data_units {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, oracle.read(u), "unit {u} diverged after batch racing");
    }
    store.close().unwrap();
}

/// A call one disk's backend received that decides what a crash leaves
/// on that disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Durable {
    /// A whole-file `sync`.
    Sync(u16),
    /// A `write_durable_at`, which makes only its own bytes durable.
    Write(u16),
    /// A `set_len` to the given length.
    SetLen(u16, u64),
}

/// One disk's backend calls that are not logged as [`Durable`].
#[derive(Debug, Default)]
struct Calls {
    reads: AtomicU64,
    writes: AtomicU64,
}

/// A file backend that counts its `read_at` and `write_at` calls and
/// logs every durability and `set_len` call into one sequence shared
/// by all disks, so a test can count them per disk and check their
/// order across disks.
#[derive(Debug)]
struct CountingBackend {
    inner: FileBackend,
    disk: u16,
    calls: Arc<Calls>,
    durable: Arc<Mutex<Vec<Durable>>>,
}

impl DiskBackend for CountingBackend {
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
        self.calls.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(buf, pos)
    }

    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        self.calls.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_at(data, pos)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.durable
            .lock()
            .unwrap()
            .push(Durable::SetLen(self.disk, len));
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.durable.lock().unwrap().push(Durable::Sync(self.disk));
        self.inner.sync()
    }

    fn write_durable_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        self.durable.lock().unwrap().push(Durable::Write(self.disk));
        self.inner.write_durable_at(data, pos)
    }
}

/// Per-disk backend call counters, and the shared durability log.
struct Counted {
    calls: Vec<Arc<Calls>>,
    durable: Arc<Mutex<Vec<Durable>>>,
}

impl Counted {
    fn new(disks: u16) -> Counted {
        Counted {
            calls: (0..disks).map(|_| Arc::default()).collect(),
            durable: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn factory(&self) -> impl Fn(u16, std::fs::File) -> Box<dyn DiskBackend> + Sync + '_ {
        |i, file| {
            Box::new(CountingBackend {
                inner: FileBackend::new(file),
                disk: i,
                calls: Arc::clone(&self.calls[i as usize]),
                durable: Arc::clone(&self.durable),
            })
        }
    }

    /// Empties the durability log, returning what it held.
    fn take_durable(&self) -> Vec<Durable> {
        std::mem::take(&mut *self.durable.lock().unwrap())
    }
}

/// A healthy multi-unit read costs one backend read per maximal run of
/// adjacent offsets on one disk, and still counts every unit it reads
/// against that unit's disk.
#[test]
fn aligned_large_read_costs_one_backend_read_per_disk_run() {
    const UB: usize = 512;
    const UNITS: u64 = 192;
    let spec: LayoutSpec = "bibd:c10g4".parse().unwrap();
    let counted = Counted::new(spec.disks());
    let read_calls = || -> u64 {
        counted
            .calls
            .iter()
            .map(|c| c.reads.load(Ordering::Relaxed))
            .sum()
    };
    let dir = fresh_dir("run-reads");
    let store =
        BlockStore::create_with_backend(&dir, spec, 16_800, UB as u32, 0x5EAD, &counted.factory())
            .unwrap();
    let bpu = (UB / BLOCK_BYTES as usize) as u64;
    for first in [0u64, 3 * UNITS] {
        let data: Vec<u8> = (first..first + UNITS)
            .flat_map(|u| content(u, 3, UNIT_BYTES).into_iter().take(UB))
            .collect();
        store.write_blocks(first * bpu, &data).unwrap();

        // The runs, derived from the mapping alone.
        let mut addrs: Vec<(u16, u64)> = (first..first + UNITS)
            .map(|u| {
                let a = store.mapping().logical_to_addr(u);
                (a.disk, a.offset)
            })
            .collect();
        addrs.sort_unstable();
        let runs = 1 + addrs
            .windows(2)
            .filter(|w| w[1].0 != w[0].0 || w[1].1 != w[0].1 + 1)
            .count() as u64;
        assert!(
            runs < UNITS / 4,
            "{runs} runs: too few adjacent units to test coalescing"
        );
        let mut per_disk = vec![0u64; spec.disks() as usize];
        for &(disk, _) in &addrs {
            per_disk[disk as usize] += 1;
        }

        let calls_before = read_calls();
        let io_before = store.io_counters();
        let mut back = vec![0u8; data.len()];
        store.read_blocks(first * bpu, &mut back).unwrap();
        assert!(
            back == data,
            "large read at unit {first} returned wrong bytes"
        );
        let calls_after = read_calls();
        assert_eq!(
            calls_after - calls_before,
            runs,
            "read_at calls at unit {first}"
        );
        for (d, (a, b)) in store.io_counters().iter().zip(&io_before).enumerate() {
            assert_eq!(
                a.reads - b.reads,
                per_disk[d],
                "disk {d} unit reads at unit {first}"
            );
        }
    }
    store.close().unwrap();
}

/// How often `disk` appears in `log` as a sync and as a durable write.
fn durable_counts(log: &[Durable], disk: u16) -> (usize, usize) {
    let syncs = log.iter().filter(|&&e| e == Durable::Sync(disk)).count();
    let writes = log.iter().filter(|&&e| e == Durable::Write(disk)).count();
    (syncs, writes)
}

/// Each admin transition pays exactly the durability it needs.
/// `fail_disk` syncs every live disk once — the last moment pre-failure
/// writes can be made durable with full redundancy — before the
/// superblocks, and only after them drops the failed disk's medium with
/// one `set_len(0)`, no writes and no sync. A finished rebuild syncs only the replacement, before
/// any superblock names the array fault-free, and gives each survivor
/// one durable superblock write and no sync, however much a concurrent
/// writer dirtied it.
#[test]
fn admin_transitions_sync_exactly_what_they_rely_on() {
    const UB: usize = 512;
    const FAILED: u16 = 3;
    let spec: LayoutSpec = "bibd:c10g4".parse().unwrap();
    let counted = Counted::new(spec.disks());
    let dir = fresh_dir("durable-counts");
    let store =
        BlockStore::create_with_backend(&dir, spec, 336, UB as u32, 0xD5, &counted.factory())
            .unwrap();
    let data_units = store.data_units();
    let unit = |u: u64, g: u64| {
        content(u, g, UNIT_BYTES)
            .into_iter()
            .take(UB)
            .collect::<Vec<u8>>()
    };
    for u in 0..data_units {
        store.write_unit(u, &unit(u, 0)).unwrap();
    }
    counted.take_durable();
    let writes = |d: u16| counted.calls[d as usize].writes.load(Ordering::Relaxed);
    let writes_before = writes(FAILED);

    store.fail_disk(FAILED).unwrap();
    let log = counted.take_durable();
    assert_eq!(
        writes(FAILED),
        writes_before,
        "fail_disk wrote the failed disk"
    );
    let set_lens = log
        .iter()
        .filter(|e| matches!(e, Durable::SetLen(..)))
        .count();
    assert_eq!(set_lens, 1, "fail_disk set_len calls: {log:?}");
    // The medium goes only after every superblock records the failure.
    assert_eq!(
        log.last(),
        Some(&Durable::SetLen(FAILED, 0)),
        "fail_disk truncated early"
    );
    // The medium is gone: a raw read of the failed file hits EOF.
    let raw =
        FileBackend::new(std::fs::File::open(dir.join(format!("disk-{FAILED:03}.dat"))).unwrap());
    let err = raw.read_at(&mut [0u8; 1], 0).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    for d in 0..spec.disks() {
        let live = usize::from(d != FAILED);
        assert_eq!(
            durable_counts(&log, d),
            (live, live),
            "fail_disk: disk {d} (syncs, durable writes)"
        );
    }
    let first_write = log.iter().position(|e| matches!(e, Durable::Write(_)));
    let last_sync = log.iter().rposition(|e| matches!(e, Durable::Sync(_)));
    assert!(
        last_sync < first_write,
        "fail_disk synced after a superblock"
    );

    store.replace_disk().unwrap();
    counted.take_durable();
    let stop = AtomicBool::new(false);
    let written = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) || n < 64 {
                let u = n * 7 % data_units;
                store.write_unit(u, &unit(u, 1 + n)).unwrap();
                n += 1;
            }
            n
        });
        let report = store.rebuild(1).unwrap();
        stop.store(true, Ordering::Release);
        assert_eq!(report.failed_disks, vec![FAILED]);
        writer.join().unwrap()
    });
    assert!(written >= 64);
    let log = counted.take_durable();
    for d in (0..spec.disks()).filter(|&d| d != FAILED) {
        assert_eq!(
            durable_counts(&log, d),
            (0, 1),
            "rebuild: survivor {d} (syncs, durable writes)"
        );
    }
    assert_eq!(durable_counts(&log, FAILED), (1, 1), "rebuild: replacement");
    let sync = log.iter().position(|&e| e == Durable::Sync(FAILED));
    let first_healthy = log
        .iter()
        .position(|&e| matches!(e, Durable::Write(d) if d != FAILED));
    assert!(
        sync < first_healthy,
        "the replacement must be durable before a superblock declares it whole: {log:?}"
    );
    store.verify_parity().unwrap();
    store.close().unwrap();
}

/// A one-worker rebuild reads each window's survivors with one backend
/// call per maximal run of adjacent offsets on one disk, and writes
/// each window's lost units the same way, while every disk's unit
/// counters still count exactly the units a per-unit decode reads:
/// α of each survivor, and all of the replacement.
#[test]
fn rebuild_costs_one_backend_call_per_run() {
    const UB: usize = 512;
    const UNITS: u64 = 16_800;
    const FAILED: u16 = 3;
    let spec: LayoutSpec = "bibd:c10g4".parse().unwrap();
    let counted = Counted::new(spec.disks());
    let dir = fresh_dir("rebuild-runs");
    let store =
        BlockStore::create_with_backend(&dir, spec, UNITS, UB as u32, 0x4B1D, &counted.factory())
            .unwrap();
    let band: Vec<u8> = (0..UNITS)
        .flat_map(|u| content(u, 5, UNIT_BYTES).into_iter().take(UB))
        .collect();
    store.write_blocks(0, &band).unwrap();

    let (survivor_runs, replacement_runs) = common::rebuild_runs(store.mapping(), FAILED);
    assert_eq!(survivor_runs.len(), 14_750, "survivor runs");
    assert_eq!(replacement_runs.len(), 1_050, "replacement runs");
    let mut per_disk = vec![0u64; spec.disks() as usize];
    for u in survivor_runs.iter().flatten() {
        per_disk[u.disk as usize] += 1;
    }

    store.fail_disk(FAILED).unwrap();
    store.replace_disk().unwrap();
    let calls = |d: u16| {
        let c = &counted.calls[d as usize];
        (
            c.reads.load(Ordering::Relaxed),
            c.writes.load(Ordering::Relaxed),
        )
    };
    let before: Vec<(u64, u64)> = (0..spec.disks()).map(calls).collect();
    let report = store.rebuild(1).unwrap();
    let delta: Vec<(u64, u64)> = (0..spec.disks())
        .map(|d| {
            let (r, w) = calls(d);
            (r - before[d as usize].0, w - before[d as usize].1)
        })
        .collect();
    let survivor_reads: u64 = delta.iter().map(|&(r, _)| r).sum();
    assert_eq!(survivor_reads, survivor_runs.len() as u64, "read_at calls");
    // One more write: the replacement's checksum region.
    assert_eq!(
        delta[FAILED as usize],
        (0, replacement_runs.len() as u64 + 1),
        "replacement (read_at, write_at) calls"
    );
    for d in (0..spec.disks()).filter(|&d| d != FAILED) {
        assert_eq!(delta[d as usize].1, 0, "disk {d} write_at calls");
        assert_eq!(
            report.disk_reads[d as usize], per_disk[d as usize],
            "disk {d} unit reads"
        );
        assert_eq!(
            per_disk[d as usize],
            UNITS / 3,
            "disk {d}: α = 1/3 of its units"
        );
    }
    assert_eq!(report.disk_reads[FAILED as usize], 0);
    assert_eq!(report.disk_writes[FAILED as usize], UNITS);
    assert_eq!(report.units_rebuilt, UNITS);

    let mut back = vec![0u8; band.len()];
    store.read_blocks(0, &mut back).unwrap();
    assert!(back == band, "rebuilt array returned wrong bytes");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

/// A P+Q rebuild of two failed disks decodes each stripe once: a stripe
/// that lost a unit on each disk installs both from one pass over its
/// survivors. Every decode of a `pq:c10g5` stripe reads G − 2 = 3
/// units, whichever one or two members it lost, so the rebuild reads
/// exactly 3 units per distinct stripe it touches.
#[test]
fn pq_two_disk_rebuild_decodes_each_stripe_once() {
    const UB: usize = 512;
    const UNITS: u64 = 200;
    const FAILED: [u16; 2] = [2, 7];
    let spec: LayoutSpec = "pq:c10g5".parse().unwrap();
    let dir = fresh_dir("pq-two-disk-rebuild");
    let store = BlockStore::create(&dir, spec, UNITS, UB as u32, 0x9D).unwrap();
    let unit = |u: u64| -> Vec<u8> { content(u, 6, UNIT_BYTES).into_iter().take(UB).collect() };
    for u in 0..store.data_units() {
        store.write_unit(u, &unit(u)).unwrap();
    }
    let mapping = store.mapping();
    let mut stripes: Vec<u64> = FAILED
        .iter()
        .flat_map(|&d| (0..UNITS).filter_map(move |off| mapping.role_at(d, off).stripe()))
        .collect();
    let visits = stripes.len();
    stripes.sort_unstable();
    stripes.dedup();
    assert!(stripes.len() < visits, "no stripe lost two members");

    for d in FAILED {
        store.fail_disk(d).unwrap();
    }
    store.replace_disk().unwrap();
    let report = store.rebuild(1).unwrap();
    assert_eq!(report.failed_disks, FAILED);
    assert_eq!(
        report.disk_reads.iter().sum::<u64>(),
        3 * stripes.len() as u64,
        "survivor units read"
    );
    let mapped = store.mapped_units_per_disk();
    for d in FAILED {
        assert_eq!(report.disk_reads[d as usize], 0);
        assert_eq!(
            report.disk_writes[d as usize], mapped[d as usize],
            "disk {d}"
        );
    }
    let mut back = vec![0u8; UB];
    for u in 0..store.data_units() {
        store.read_unit(u, &mut back).unwrap();
        assert_eq!(back, unit(u), "unit {u}");
    }
    store.verify_parity().unwrap();
    store.close().unwrap();
}
