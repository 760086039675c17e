//! Fault operations racing live traffic: `fail_disk`, `replace_disk`,
//! and online `rebuild` fired by an admin thread while ≥8 I/O threads
//! keep reading and writing. Every read is verified in flight against
//! the writer's own generation ledger, and the final contents must be
//! byte-identical to the `DataArray` oracle.
//!
//! The healthy-array racing-writer test lives in `tests/hot_path.rs`;
//! this file is the degraded half the network server leans on: an
//! operator failing a disk mid-traffic must flip I/O onto the
//! degraded/rebuild paths without corrupting a single unit.

mod common;

use common::{content, fresh_dir, TempDir};
use decluster_array::data::DataArray;
use decluster_array::RecoveryPolicy;
use decluster_core::design::BlockDesign;
use decluster_core::layout::DeclusteredLayout;
use decluster_store::{
    BlockStore, DiskBackend, FaultPlan, FaultyBackend, FileBackend, LatencyProfile, LayoutSpec,
    BLOCK_BYTES,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const UNITS_PER_DISK: u64 = 36;
const UNIT_BYTES: usize = 1024;
const DISKS: u16 = 5;
const GROUP: u16 = 4;
const DATA_PER_STRIPE: u64 = (GROUP - 1) as u64;
const IO_THREADS: u64 = 8;
const FAULT_CYCLES: u16 = 3;

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
        0xFA11,
    )
    .unwrap();
    (store, dir)
}

fn oracle() -> DataArray {
    let layout =
        Arc::new(DeclusteredLayout::new(BlockDesign::complete(DISKS, GROUP).unwrap()).unwrap());
    DataArray::new(layout, UNITS_PER_DISK, UNIT_BYTES).unwrap()
}

/// Runs `FAULT_CYCLES` fail → replace → rebuild cycles on rotating
/// disks while the I/O threads are live, then signals them to wind
/// down. Panics (failing the test) on any admin-path error.
fn admin_cycles(store: &BlockStore, stop: &AtomicBool) {
    for cycle in 0..FAULT_CYCLES {
        let disk = (cycle * 2 + 1) % DISKS;
        std::thread::sleep(Duration::from_millis(20));
        store.fail_disk(disk).unwrap();
        // Let traffic hit the degraded read/write paths for a while.
        std::thread::sleep(Duration::from_millis(20));
        store.replace_disk().unwrap();
        let report = store.rebuild(2).unwrap();
        assert_eq!(report.failed_disks, vec![disk]);
    }
    stop.store(true, Ordering::Release);
}

/// 8 unit-granular writer/reader threads race three full
/// fail→replace→rebuild cycles. Each thread owns units `u % 8 == w`,
/// so it knows exactly what every read must return.
#[test]
fn fail_replace_rebuild_races_unit_io() {
    let (store, _dir) = store("unit-io");
    let mut oracle = oracle();
    let data_units = store.data_units();
    for u in 0..data_units {
        store.write_unit(u, &content(u, 0, UNIT_BYTES)).unwrap();
    }
    let stop = AtomicBool::new(false);
    let final_gens: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..IO_THREADS)
            .map(|w| {
                let store = &store;
                let stop = &stop;
                s.spawn(move || {
                    let owned: Vec<u64> = (0..data_units).filter(|u| u % IO_THREADS == w).collect();
                    let mut gens: HashMap<u64, u64> = owned.iter().map(|&u| (u, 0)).collect();
                    let mut buf = vec![0u8; UNIT_BYTES];
                    let mut round = 0u64;
                    // Keep traffic flowing until the admin finishes its
                    // cycles, with a floor so every thread exercises
                    // both paths even on a slow machine, and a ceiling
                    // so a wedged admin thread cannot hang the test.
                    while (!stop.load(Ordering::Acquire) || round < 2) && round < 4096 {
                        round += 1;
                        for &u in &owned {
                            store.read_unit(u, &mut buf).unwrap();
                            assert_eq!(
                                buf,
                                content(u, gens[&u], UNIT_BYTES),
                                "unit {u} read back a stale or torn generation"
                            );
                            store.write_unit(u, &content(u, round, UNIT_BYTES)).unwrap();
                            gens.insert(u, round);
                        }
                    }
                    gens
                })
            })
            .collect();
        admin_cycles(&store, &stop);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for gens in final_gens {
        for (u, g) in gens {
            oracle.write(u, &content(u, g, UNIT_BYTES));
        }
    }
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();
    assert_eq!(store.failed_disk(), None, "all cycles fully rebuilt");
    let mut buf = vec![0u8; UNIT_BYTES];
    for u in 0..data_units {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, oracle.read(u), "unit {u} diverged from the oracle");
    }
    let stats = store.stats_snapshot();
    assert!(!stats.degraded);
    assert_eq!(stats.failed_disk, None);
    store.close().unwrap();
}

/// Same race through the batched full-stripe write path: threads own
/// stripe-aligned extents, so mid-fail batches must either land whole
/// on the degraded path or RMW correctly around the dead disk.
#[test]
fn fail_replace_rebuild_races_full_stripe_writes() {
    let (store, _dir) = store("stripe-io");
    let mut oracle = oracle();
    let data_units = store.data_units();
    let stripes = data_units / DATA_PER_STRIPE;
    let bpu = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
    for u in 0..data_units {
        store.write_unit(u, &content(u, 0, UNIT_BYTES)).unwrap();
    }
    let stop = AtomicBool::new(false);
    let final_gens: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..IO_THREADS)
            .map(|w| {
                let store = &store;
                let stop = &stop;
                s.spawn(move || {
                    let owned: Vec<u64> = (0..stripes).filter(|s| s % IO_THREADS == w).collect();
                    let mut gens: HashMap<u64, u64> = owned.iter().map(|&s| (s, 0)).collect();
                    let mut buf = vec![0u8; UNIT_BYTES];
                    let mut round = 0u64;
                    while (!stop.load(Ordering::Acquire) || round < 2) && round < 4096 {
                        round += 1;
                        for &stripe in &owned {
                            let lo = stripe * DATA_PER_STRIPE;
                            store.read_unit(lo, &mut buf).unwrap();
                            assert_eq!(
                                buf,
                                content(lo, gens[&stripe], UNIT_BYTES),
                                "stripe {stripe} read back a stale generation"
                            );
                            let data: Vec<u8> = (0..DATA_PER_STRIPE)
                                .flat_map(|k| content(lo + k, round, UNIT_BYTES))
                                .collect();
                            store.write_blocks(lo * bpu, &data).unwrap();
                            gens.insert(stripe, round);
                        }
                    }
                    gens
                })
            })
            .collect();
        admin_cycles(&store, &stop);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for gens in final_gens {
        for (stripe, g) in gens {
            let lo = stripe * DATA_PER_STRIPE;
            for k in 0..DATA_PER_STRIPE {
                oracle.write(lo + k, &content(lo + k, g, UNIT_BYTES));
            }
        }
    }
    // Units past the last full stripe kept generation 0.
    for u in stripes * DATA_PER_STRIPE..data_units {
        oracle.write(u, &content(u, 0, UNIT_BYTES));
    }
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();
    let mut buf = vec![0u8; UNIT_BYTES];
    for u in 0..data_units {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, oracle.read(u), "unit {u} diverged from the oracle");
    }
    store.close().unwrap();
}

/// A unit image that names its own generation: bytes 0..8 hold it, the
/// rest is [`content`]'s, so a reader can check a unit it did not
/// write.
fn tagged(logical: u64, generation: u64, unit_bytes: usize) -> Vec<u8> {
    let mut unit = content(logical, generation, UNIT_BYTES);
    unit.resize(unit_bytes, 0);
    unit[..8].copy_from_slice(&generation.to_le_bytes());
    unit
}

/// Signals its channel when dropped — on return or on panic — so the
/// test can wait for its threads with a deadline.
struct Done(mpsc::Sender<()>);

impl Drop for Done {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// Two readers of 192-unit extents (run-coalesced while healthy) race
/// two full-stripe writers and one `fail_disk`, which lands once the
/// readers have finished some healthy reads; traffic stops once they
/// have finished as many more. Every unit a reader sees must be an
/// image some writer produced, and every thread must finish within the
/// deadline — a lock-order cycle between run reads, stripe batches and
/// the admin path would hang here.
#[test]
fn large_reads_race_full_stripe_writers_and_a_disk_failure() {
    const UB: usize = 512;
    const SPAN: u64 = 192;
    let dir = fresh_dir("large-reads");
    let store = Arc::new(
        BlockStore::create(&dir, "bibd:c10g4".parse().unwrap(), 336, UB as u32, 0xFA12).unwrap(),
    );
    let data_units = store.data_units();
    let stripes = data_units / DATA_PER_STRIPE;
    let bpu = (UB / BLOCK_BYTES as usize) as u64;
    let whole: Vec<u8> = (0..data_units).flat_map(|u| tagged(u, 0, UB)).collect();
    store.write_blocks(0, &whole).unwrap();
    // Generations handed out so far; a unit may show any of them.
    let issued = Arc::new(AtomicU64::new(1));
    let stop = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let (store, issued, stop, done) = (
            Arc::clone(&store),
            Arc::clone(&issued),
            Arc::clone(&stop),
            Done(tx.clone()),
        );
        handles.push(std::thread::spawn(move || {
            let _done = done;
            let mut stripe = w;
            while !stop.load(Ordering::Acquire) {
                let g = issued.fetch_add(1, Ordering::AcqRel);
                let lo = stripe % stripes * DATA_PER_STRIPE;
                let data: Vec<u8> = (lo..lo + DATA_PER_STRIPE)
                    .flat_map(|u| tagged(u, g, UB))
                    .collect();
                store.write_blocks(lo * bpu, &data).unwrap();
                stripe += 2;
            }
        }));
    }
    for r in 0..2u64 {
        let (store, issued, stop, reads_done, done) = (
            Arc::clone(&store),
            Arc::clone(&issued),
            Arc::clone(&stop),
            Arc::clone(&reads_done),
            Done(tx.clone()),
        );
        handles.push(std::thread::spawn(move || {
            let _done = done;
            let mut buf = vec![0u8; SPAN as usize * UB];
            let mut i = r;
            while !stop.load(Ordering::Acquire) {
                // Unit-aligned starts, stripe-aligned or not.
                let first = i * 37 % (data_units - SPAN);
                store.read_blocks(first * bpu, &mut buf).unwrap();
                let seen = issued.load(Ordering::Acquire);
                for (k, unit) in buf.chunks_exact(UB).enumerate() {
                    let u = first + k as u64;
                    let g = u64::from_le_bytes(unit[..8].try_into().unwrap());
                    assert!(g < seen, "unit {u} shows generation {g} never issued");
                    assert!(unit == tagged(u, g, UB), "unit {u} is torn");
                }
                reads_done.fetch_add(1, Ordering::AcqRel);
                i += 2;
            }
        }));
    }
    drop(tx);
    let deadline = Instant::now() + Duration::from_secs(5);
    let reads_reach = |n: u64| {
        while reads_done.load(Ordering::Acquire) < n {
            assert!(Instant::now() < deadline, "readers stalled: deadlock");
            std::thread::yield_now();
        }
    };
    reads_reach(8);
    store.fail_disk(4).unwrap();
    reads_reach(reads_done.load(Ordering::Acquire) + 8);
    stop.store(true, Ordering::Release);
    for _ in 0..handles.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        rx.recv_timeout(left)
            .expect("an I/O thread did not finish: deadlock");
    }
    for h in handles {
        h.join().unwrap();
    }
    store.replace_disk().unwrap();
    store.rebuild(2).unwrap();
    store.verify_parity().unwrap();
}

/// A rebuild that finishes under writes leaves a store that reopens
/// whole after a crash: the completion made only the superblocks and
/// the replacement durable, so every survivor write it did not sync
/// must be covered by the intent log. The store is dropped without
/// `close` right after the rebuild, then reopened under each recovery
/// policy; it must come back fault-free, parity-consistent and
/// byte-identical to the oracle.
#[test]
fn reopen_after_rebuild_under_writes_matches_oracle() {
    for policy in [RecoveryPolicy::DirtyRegionLog, RecoveryPolicy::FullResync] {
        let dir = fresh_dir(&format!("reopen-after-rebuild-{policy:?}"));
        let store = BlockStore::create(
            &dir,
            LayoutSpec::Complete {
                disks: DISKS,
                group: GROUP,
            },
            UNITS_PER_DISK,
            UNIT_BYTES as u32,
            0xFA13,
        )
        .unwrap();
        let data_units = store.data_units();
        for u in 0..data_units {
            store.write_unit(u, &content(u, 0, UNIT_BYTES)).unwrap();
        }
        store.flush().unwrap();
        let stop = AtomicBool::new(false);
        let final_gens: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..IO_THREADS)
                .map(|w| {
                    let (store, stop) = (&store, &stop);
                    s.spawn(move || {
                        let mut gens = HashMap::new();
                        let mut round = 0u64;
                        while (!stop.load(Ordering::Acquire) || round < 2) && round < 4096 {
                            round += 1;
                            for u in (0..data_units).filter(|u| u % IO_THREADS == w) {
                                store.write_unit(u, &content(u, round, UNIT_BYTES)).unwrap();
                                gens.insert(u, round);
                            }
                        }
                        gens
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            store.fail_disk(2).unwrap();
            std::thread::sleep(Duration::from_millis(10));
            store.replace_disk().unwrap();
            store.rebuild(2).unwrap();
            stop.store(true, Ordering::Release);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(store);

        let mut oracle = oracle();
        for (u, g) in final_gens.into_iter().flatten() {
            oracle.write(u, &content(u, g, UNIT_BYTES));
        }
        let (store, report) = BlockStore::open_with_recovery(&dir, policy).unwrap();
        assert!(report.is_some(), "{policy:?}: a dropped store must recover");
        assert!(
            store.failed_disks().is_empty(),
            "{policy:?}: still degraded"
        );
        store.verify_parity().unwrap();
        let mut buf = vec![0u8; UNIT_BYTES];
        for u in 0..data_units {
            store.read_unit(u, &mut buf).unwrap();
            assert_eq!(buf, oracle.read(u), "{policy:?}: unit {u} diverged");
        }
        store.close().unwrap();
    }
}

/// User writes to the units of the stripes that lose a member in a
/// rebuild's first four windows race `rebuild(1)`: whether a write lands
/// before its window (degraded, the window then decodes or skips it),
/// while the window holds its stripes, or after (on the rebuilt
/// stripe), the result must be byte-identical to the `DataArray`
/// oracle. A window that let go of its stripe locks before its reads
/// fails here with a parity mismatch.
#[test]
fn user_writes_race_the_first_rebuild_windows() {
    const UB: usize = 512;
    const UNITS: u64 = 336;
    const FAILED: u16 = 2;
    const WRITERS: usize = 4;
    let spec: LayoutSpec = "bibd:c10g4".parse().unwrap();
    let dir = fresh_dir("window-race");
    // The plans slow every read once the disk is replaced, so each
    // window's survivor reads take long enough for writes to meet them.
    let plans: Vec<Arc<FaultPlan>> = (0..spec.disks())
        .map(|i| FaultPlan::new(i as u64 + 1))
        .collect();
    let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
        Box::new(FaultyBackend::new(
            Box::new(FileBackend::new(file)),
            Arc::clone(&plans[i as usize]),
        ))
    };
    let store =
        BlockStore::create_with_backend(&dir, spec, UNITS, UB as u32, 0xFA14, &factory).unwrap();
    let data_units = store.data_units();
    let unit =
        |u: u64, g: u64| -> Vec<u8> { content(u, g, UNIT_BYTES).into_iter().take(UB).collect() };
    for u in 0..data_units {
        store.write_unit(u, &unit(u, 0)).unwrap();
    }
    // Every data unit of the stripes the first four windows rebuild:
    // the lost data units themselves, and the peers whose writes fold
    // into a lost parity.
    let mapping = store.mapping();
    let mut targets: Vec<u64> = (0..64)
        .filter_map(|off| mapping.role_at(FAILED, off).stripe())
        .flat_map(|stripe| mapping.stripe_units(stripe))
        .filter_map(|u| mapping.addr_to_logical(u))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    store.fail_disk(FAILED).unwrap();
    store.replace_disk().unwrap();
    for p in &plans {
        p.set_read_latency(LatencyProfile::limping(200, 100));
    }

    // The writers start with the rebuild, so the first windows meet
    // lost units that no user write has landed on the replacement yet.
    let stop = AtomicBool::new(false);
    let start = Barrier::new(WRITERS + 1);
    let final_gens: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, stop, start, targets) = (&store, &stop, &start, &targets);
                s.spawn(move || {
                    let mut gens = HashMap::new();
                    let owned: Vec<u64> =
                        targets.iter().copied().skip(w).step_by(WRITERS).collect();
                    start.wait();
                    for (round, u) in (1u64..4096).flat_map(|r| owned.iter().map(move |&u| (r, u)))
                    {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        store.write_unit(u, &unit(u, round)).unwrap();
                        gens.insert(u, round);
                    }
                    gens
                })
            })
            .collect();
        start.wait();
        let report = store.rebuild(1).unwrap();
        stop.store(true, Ordering::Release);
        assert_eq!(report.failed_disks, vec![FAILED]);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut oracle = DataArray::new(spec.build().unwrap(), UNITS, UB).unwrap();
    for u in 0..data_units {
        oracle.write(u, &unit(u, 0));
    }
    for (u, g) in final_gens.into_iter().flatten() {
        oracle.write(u, &unit(u, g));
    }
    assert!(store.failed_disks().is_empty());
    store.verify_parity().unwrap();
    let mut buf = vec![0u8; UB];
    for u in 0..data_units {
        store.read_unit(u, &mut buf).unwrap();
        assert_eq!(buf, oracle.read(u), "unit {u} diverged from the oracle");
    }
    store.close().unwrap();
}
