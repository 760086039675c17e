//! Hostile-disk survival: the store under a [`FaultyBackend`] must
//! detect every injected fault (checksum or `EIO`), resolve each one
//! as exactly one retry-success, read-repair, or typed escalation —
//! never wrong bytes — and auto-demote a disk whose error budget runs
//! out. Also covers the torn-checksum-region crash hazard.

mod common;

use common::{content, fresh_dir, TempDir};
use decluster_core::layout::UnitAddr;
use decluster_store::checksum::region_bytes;
use decluster_store::{
    BlockStore, DiskBackend, FaultPlan, FaultyBackend, FileBackend, LatencyProfile, LayoutSpec,
    MediaKind, StoreError, SUPERBLOCK_BYTES,
};
use std::sync::Arc;

const DISKS: u16 = 5;
const SPEC: LayoutSpec = LayoutSpec::Complete { disks: 5, group: 4 };

/// Byte position of the unit at `offset` within its backing file.
fn unit_pos(units_per_disk: u64, offset: u64, unit_bytes: usize) -> u64 {
    SUPERBLOCK_BYTES + region_bytes(units_per_disk) + offset * unit_bytes as u64
}

/// A store of layout `spec` whose every disk runs through a
/// [`FaultyBackend`], the per-disk plans steering them, and the
/// directory it lives in. Injection is scoped to the data area.
fn faulty_store(
    spec: LayoutSpec,
    name: &str,
    units_per_disk: u64,
    unit_bytes: usize,
    seed: u64,
) -> (BlockStore, Vec<Arc<FaultPlan>>, TempDir) {
    let dir = fresh_dir(name);
    let plans: Vec<Arc<FaultPlan>> = (0..spec.disks())
        .map(|i| FaultPlan::new(seed.wrapping_add(i as u64).wrapping_mul(0x0101)))
        .collect();
    let data_start = SUPERBLOCK_BYTES + region_bytes(units_per_disk);
    for p in &plans {
        p.set_protect_below(data_start);
    }
    let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
        Box::new(FaultyBackend::new(
            Box::new(FileBackend::new(file)),
            Arc::clone(&plans[i as usize]),
        ))
    };
    let store = BlockStore::create_with_backend(
        &dir,
        spec,
        units_per_disk,
        unit_bytes as u32,
        0xBAD,
        &factory,
    )
    .unwrap();
    (store, plans, dir)
}

fn fill(store: &BlockStore, unit_bytes: usize, tag: u64) {
    for logical in 0..store.data_units() {
        store
            .write_unit(logical, &content(logical, tag, unit_bytes))
            .unwrap();
    }
}

fn assert_contents(store: &BlockStore, unit_bytes: usize, tag: u64, label: &str) {
    let mut buf = vec![0u8; unit_bytes];
    for logical in 0..store.data_units() {
        store.read_unit(logical, &mut buf).unwrap();
        assert_eq!(
            buf,
            content(logical, tag, unit_bytes),
            "{label}: unit {logical} diverged"
        );
    }
}

#[test]
fn silent_corruption_is_detected_and_read_repaired() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "read-repair", UNITS, UB, 0xC0);
    fill(&store, UB, 0);

    // Arm a one-shot bit flip under the next write of logical unit 7,
    // then write it: the payload is mangled in flight, the checksum
    // table remembers the intended bytes.
    let addr = store.mapping().logical_to_addr(7);
    plans[addr.disk as usize].arm_corruption(unit_pos(UNITS, addr.offset, UB));
    let intended = content(7, 99, UB);
    store.write_unit(7, &intended).unwrap();
    assert_eq!(plans[addr.disk as usize].injected().corruptions, 1);

    // The read detects the mismatch, reconstructs from parity, writes
    // the corrected unit back, and returns the intended bytes.
    let mut buf = vec![0u8; UB];
    store.read_unit(7, &mut buf).unwrap();
    assert_eq!(buf, intended, "read-repair returned wrong bytes");
    let c = store.fault_counters();
    assert_eq!(c.checksum_errors, 1);
    assert_eq!(c.repaired, 1);
    assert_eq!(c.escalated, 0);
    assert!(
        c.repair_units_read >= 3,
        "repair should read the stripe peers"
    );

    // The repair wrote the fix back: a second read is clean.
    store.read_unit(7, &mut buf).unwrap();
    assert_eq!(buf, intended);
    assert_eq!(store.fault_counters().checksum_errors, 1);
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn transient_eio_accounting_balances_retries_against_injections() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "transient", UNITS, UB, 0x7E57);
    fill(&store, UB, 1);
    for p in &plans {
        p.set_transient_read_eio(0.05);
    }
    let mut buf = vec![0u8; UB];
    for pass in 0..3 {
        for logical in 0..store.data_units() {
            store.read_unit(logical, &mut buf).unwrap();
            assert_eq!(buf, content(logical, 1, UB), "pass {pass} unit {logical}");
        }
    }
    for p in &plans {
        p.quiesce();
    }
    let injected: u64 = plans.iter().map(|p| p.injected().transient_eio).sum();
    assert!(injected > 0, "campaign injected nothing; seed is useless");
    let c = store.fault_counters();
    // Every minted transient episode was detected exactly once and
    // resolved by the bounded retry — nothing leaked to repair.
    assert_eq!(c.media_errors, injected);
    assert_eq!(c.retry_successes, injected);
    assert_eq!(c.checksum_errors, 0);
    assert_eq!(c.repaired, 0);
    assert_eq!(c.escalated, 0);
    store.close().unwrap();
}

#[test]
fn degraded_survivor_media_error_escalates_typed_never_wrong_bytes() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "double-fault", UNITS, UB, 0xDF);
    fill(&store, UB, 2);

    // Stripe anatomy: lose the disk under one data unit, poison a
    // surviving data unit of the same stripe with a persistent bad
    // sector. The stripe is now past its redundancy.
    let stripe = store.mapping().stripe_by_seq(0);
    let data_units: Vec<_> = store
        .mapping()
        .stripe_units(stripe)
        .into_iter()
        .filter(|u| !store.mapping().role_at(u.disk, u.offset).is_parity())
        .collect();
    let lost = data_units[0];
    let poisoned = data_units[1];
    let lost_logical = store.mapping().addr_to_logical(lost).unwrap();
    let poisoned_logical = store.mapping().addr_to_logical(poisoned).unwrap();
    store.fail_disk(lost.disk).unwrap();
    plans[poisoned.disk as usize].add_bad_sector(unit_pos(UNITS, poisoned.offset, UB));

    // Writing the lost unit needs every survivor to fold the new
    // parity; the poisoned read must surface as a typed media error,
    // not as silently wrong parity.
    let err = store
        .write_unit(lost_logical, &content(lost_logical, 77, UB))
        .unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Media {
                kind: MediaKind::Eio,
                ..
            }
        ),
        "expected a typed media escalation, got: {err}"
    );

    // Reading the poisoned unit itself: retries fail, and repair is
    // impossible with a stripe member already lost — typed error.
    let mut buf = vec![0u8; UB];
    let err = store.read_unit(poisoned_logical, &mut buf).unwrap_err();
    assert!(matches!(err, StoreError::Media { .. }), "got: {err}");
    let c = store.fault_counters();
    assert!(c.escalated >= 2, "both double faults must escalate");
    assert_eq!(c.repaired, 0);

    // Units outside the damaged stripe still read clean, including
    // degraded reconstructions of the failed disk.
    for logical in 0..store.data_units() {
        if logical == lost_logical || logical == poisoned_logical {
            continue;
        }
        store.read_unit(logical, &mut buf).unwrap();
        assert_eq!(buf, content(logical, 2, UB), "unit {logical} diverged");
    }
}

#[test]
fn error_budget_demotes_the_sick_disk_and_rebuild_recovers() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "demotion", UNITS, UB, 0xB0D);
    fill(&store, UB, 3);
    store.set_error_budget(3);

    // Four persistent bad sectors on one disk: each read detects,
    // repairs in place, and charges the budget; the fourth crosses it.
    let sick: u16 = 2;
    let mapping = store.mapping();
    let victims: Vec<_> = (0..UNITS)
        .filter_map(|off| mapping.addr_to_logical(decluster_core::layout::UnitAddr::new(sick, off)))
        .take(4)
        .collect();
    assert_eq!(victims.len(), 4, "disk {sick} holds too few data units");
    for &logical in &victims {
        let addr = mapping.logical_to_addr(logical);
        plans[sick as usize].add_bad_sector(unit_pos(UNITS, addr.offset, UB));
    }
    let mut buf = vec![0u8; UB];
    for &logical in &victims {
        store.read_unit(logical, &mut buf).unwrap();
        assert_eq!(buf, content(logical, 3, UB), "repair of unit {logical}");
    }
    let c = store.fault_counters();
    assert_eq!(c.repaired, 4);
    assert_eq!(store.disk_faults(sick), 4);
    assert_eq!(store.failed_disk(), None, "demotion applies at the next op");

    // The next operation demotes the sick disk; the array runs
    // degraded and still serves the right bytes.
    store.read_unit(victims[0], &mut buf).unwrap();
    assert_eq!(store.failed_disk(), Some(sick), "budget breach must demote");
    assert_eq!(store.fault_counters().demotions, 1);
    // The demoted disk's medium is gone: a raw read of its file hits EOF.
    let path = store.dir().join(format!("disk-{sick:03}.dat"));
    let raw = FileBackend::new(std::fs::File::open(path).unwrap());
    let err = raw.read_at(&mut [0u8; 1], 0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_contents(&store, UB, 3, "degraded after demotion");

    // Replace and rebuild online; the array heals completely and the
    // budget ledger resets for the new medium.
    plans[sick as usize].quiesce();
    store.replace_disk().unwrap();
    let report = store.rebuild(2).unwrap();
    assert!(report.units_rebuilt > 0);
    assert_eq!(store.failed_disk(), None);
    assert_eq!(store.disk_faults(sick), 0);
    assert_contents(&store, UB, 3, "after rebuild");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn torn_checksum_region_write_does_not_brick_the_store() {
    const UNITS: u64 = 512; // big enough that the region's torn half holds live slots
    const UB: usize = 512;
    let name = "torn-region";
    let (store, plans, _dir) = faulty_store(SPEC, name, UNITS, UB, 0x70);
    let dir = store.dir().to_path_buf();
    fill(&store, UB, 4);

    // Let the fault plan at the checksum region itself: the close-time
    // persist of disk 1 tears in half, reporting success.
    let torn_disk = 1usize;
    plans[torn_disk].set_protect_below(SUPERBLOCK_BYTES);
    plans[torn_disk].arm_torn_write(SUPERBLOCK_BYTES);
    store.close().unwrap();
    assert_eq!(plans[torn_disk].injected().torn_writes, 1);

    // Reopen on clean file backends: the torn region means half of
    // disk 1's slots are stale, but the open must succeed and every
    // read must still produce the written bytes (read-repair heals the
    // stale slots from parity as they are touched).
    let (store, report) = BlockStore::open(&dir).unwrap();
    assert!(report.is_none(), "clean shutdown: no recovery expected");
    assert_contents(&store, UB, 4, "after torn checksum region");
    let c = store.fault_counters();
    assert!(
        c.checksum_errors > 0,
        "the tear should have staled live slots"
    );
    assert_eq!(c.repaired, c.checksum_errors);
    assert_eq!(c.escalated, 0);

    // A repairing scrub sweeps the slots reads never touched (parity
    // units), after which the array verifies clean end to end.
    let scrub = store.scrub(true).unwrap();
    assert_eq!(scrub.escalated, 0);
    store.verify_parity().unwrap();
    store.close().unwrap();

    // Third generation: everything was persisted healed.
    let (store, _) = BlockStore::open(&dir).unwrap();
    assert_contents(&store, UB, 4, "after healed reopen");
    assert_eq!(store.fault_counters().checksum_errors, 0);
    store.close().unwrap();
}

#[test]
fn limping_disk_trips_hedged_reads_that_still_return_right_bytes() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "limping", UNITS, UB, 0x11);
    fill(&store, UB, 5);

    // One disk starts answering reads 3 ms late. After enough samples
    // the EWMA flags it and reads of its units hedge: parity
    // reconstruction races the slow disk and wins.
    let limper: u16 = 3;
    let on_limper: Vec<u64> = (0..store.data_units())
        .filter(|&l| store.mapping().logical_to_addr(l).disk == limper)
        .collect();
    assert!(!on_limper.is_empty());
    plans[limper as usize].set_read_latency(LatencyProfile::limping(3000, 500));
    let mut buf = vec![0u8; UB];
    // Feed the monitor past its recheck interval.
    for _ in 0..10 {
        for &l in on_limper.iter().take(8) {
            store.read_unit(l, &mut buf).unwrap();
        }
    }
    assert!(
        store.disk_read_ewma_us(limper) > 1000.0,
        "EWMA should reflect the injected latency"
    );
    let before = store.fault_counters();
    assert!(before.hedged_reads > 0, "the limping disk never hedged");
    for &l in &on_limper {
        store.read_unit(l, &mut buf).unwrap();
        assert_eq!(buf, content(l, 5, UB), "hedged read of unit {l}");
    }
    let after = store.fault_counters();
    assert!(
        after.hedge_wins > before.hedge_wins,
        "reconstruction never won the race"
    );
    assert_eq!(after.escalated, 0);
    assert_eq!(after.media_errors, 0);
    store.close().unwrap();
}

/// The whole array in one `read_blocks` call.
fn read_all(store: &BlockStore) -> Vec<u8> {
    let mut buf = vec![0u8; store.data_units() as usize * store.unit_bytes()];
    store.read_blocks(0, &mut buf).unwrap();
    buf
}

/// Checks that `buf` holds the units from `first` on, as [`content`]
/// made them with `tag`.
fn assert_units(buf: &[u8], first: u64, unit_bytes: usize, tag: u64, label: &str) {
    for (logical, unit) in (first..).zip(buf.chunks_exact(unit_bytes)) {
        assert!(
            unit == content(logical, tag, unit_bytes),
            "{label}: unit {logical} diverged"
        );
    }
}

/// A logical unit strictly inside a run of adjacent offsets on one
/// disk, among the runs a whole-array read is split into.
fn mid_run_unit(store: &BlockStore) -> u64 {
    let mut addrs: Vec<(u16, u64, u64)> = (0..store.data_units())
        .map(|l| {
            let a = store.mapping().logical_to_addr(l);
            (a.disk, a.offset, l)
        })
        .collect();
    addrs.sort_unstable();
    addrs
        .windows(3)
        .find(|w| w[0].0 == w[2].0 && w[1].1 == w[0].1 + 1 && w[2].1 == w[1].1 + 1)
        .map(|w| w[1].2)
        .expect("no run of three adjacent units")
}

#[test]
fn transient_eio_inside_runs_resolves_by_retrying_the_run() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "transient-runs", UNITS, UB, 0x7E58);
    fill(&store, UB, 6);
    for p in &plans {
        p.set_transient_read_eio(0.05);
    }
    for pass in 0..20 {
        assert_units(&read_all(&store), 0, UB, 6, &format!("pass {pass}"));
    }
    for p in &plans {
        p.quiesce();
    }
    let injected: u64 = plans.iter().map(|p| p.injected().transient_eio).sum();
    assert!(injected > 0, "campaign injected nothing; seed is useless");
    let c = store.fault_counters();
    assert_eq!(c.media_errors, injected, "{c:?}");
    assert_eq!(c.retry_successes, injected, "{c:?}");
    assert_eq!(c.checksum_errors, 0, "{c:?}");
    assert_eq!(c.repaired, 0, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn persistent_bad_sector_inside_a_run_is_repaired_once() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "bad-sector-run", UNITS, UB, 0xBAD5);
    fill(&store, UB, 7);
    let victim = store.mapping().logical_to_addr(mid_run_unit(&store));
    plans[victim.disk as usize].add_bad_sector(unit_pos(UNITS, victim.offset, UB));

    assert_units(&read_all(&store), 0, UB, 7, "bad sector mid-run");
    let c = store.fault_counters();
    assert_eq!(c.media_errors, 1, "one detection for the run: {c:?}");
    assert_eq!(c.repaired, 1, "{c:?}");
    assert_eq!(c.retry_successes, 0, "{c:?}");
    assert_eq!(c.checksum_errors, 0, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    assert_eq!(plans[victim.disk as usize].bad_sectors_outstanding(), 0);
    // The repair rewrote the sector: a second pass is clean.
    assert_units(&read_all(&store), 0, UB, 7, "after repair");
    assert_eq!(store.fault_counters().media_errors, 1);

    // Two bad sectors under one run: the run's detection goes to the
    // first, the second is a detection of its own, both are repaired.
    let next = decluster_core::layout::UnitAddr::new(victim.disk, victim.offset + 1);
    for u in [victim, next] {
        plans[u.disk as usize].add_bad_sector(unit_pos(UNITS, u.offset, UB));
    }
    assert_units(&read_all(&store), 0, UB, 7, "two bad sectors in a run");
    let c = store.fault_counters();
    assert_eq!(c.media_errors, 3, "{c:?}");
    assert_eq!(c.repaired, 3, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn corruption_under_a_run_unit_is_read_repaired_once() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "corrupt-run", UNITS, UB, 0xC1);
    fill(&store, UB, 8);
    let logical = mid_run_unit(&store);
    let addr = store.mapping().logical_to_addr(logical);
    plans[addr.disk as usize].arm_corruption(unit_pos(UNITS, addr.offset, UB));
    store.write_unit(logical, &content(logical, 8, UB)).unwrap();
    assert_eq!(plans[addr.disk as usize].injected().corruptions, 1);

    assert_units(&read_all(&store), 0, UB, 8, "corruption mid-run");
    let c = store.fault_counters();
    assert_eq!(c.checksum_errors, 1, "{c:?}");
    assert_eq!(c.repaired, 1, "{c:?}");
    assert_eq!(c.media_errors, 0, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn limping_disk_read_only_through_large_reads_is_flagged_and_hedged() {
    const UNITS: u64 = 32;
    const UB: usize = 1024;
    let (store, plans, _dir) = faulty_store(SPEC, "limping-runs", UNITS, UB, 0x12);
    fill(&store, UB, 9);
    // Each run read on the limper is one 3 ms sample of its EWMA, not
    // 3 ms spread over the run's units.
    let limper: u16 = 3;
    plans[limper as usize].set_read_latency(LatencyProfile::limping(3000, 500));
    for pass in 0..20 {
        if store.disk_limping(limper) {
            break;
        }
        assert_units(&read_all(&store), 0, UB, 9, &format!("pass {pass}"));
    }
    assert!(
        store.disk_limping(limper),
        "large reads never flagged the limper"
    );
    assert!(store.disk_read_ewma_us(limper) > 1000.0);
    let before = store.fault_counters();
    assert_units(&read_all(&store), 0, UB, 9, "hedged pass");
    let after = store.fault_counters();
    assert!(
        after.hedged_reads > before.hedged_reads,
        "the limper's units never hedged"
    );
    assert_eq!(after.escalated, 0, "{after:?}");
    assert_eq!(after.media_errors, 0, "{after:?}");
    store.close().unwrap();
}

#[test]
fn fault_free_large_reads_flag_no_disk() {
    const UNITS: u64 = 64;
    const UB: usize = 1024;
    const SPAN: u64 = 192;
    let (store, _plans, _dir) = faulty_store(SPEC, "quiet-runs", UNITS, UB, 0x13);
    fill(&store, UB, 10);
    let image: Vec<u8> = (0..store.data_units())
        .flat_map(|l| content(l, 10, UB))
        .collect();
    let bpu = (UB / decluster_store::BLOCK_BYTES as usize) as u64;
    let mut buf = vec![0u8; SPAN as usize * UB];
    for i in 0..200 {
        let first = i * 3 % (store.data_units() - SPAN + 1);
        store.read_blocks(first * bpu, &mut buf).unwrap();
        let at = first as usize * UB;
        assert!(
            buf == image[at..at + buf.len()],
            "192-unit read at unit {first} diverged"
        );
    }
    for d in 0..DISKS {
        assert!(
            !store.disk_limping(d),
            "healthy disk {d} flagged as limping"
        );
    }
    let c = store.fault_counters();
    assert_eq!(c.hedged_reads, 0, "{c:?}");
    store.close().unwrap();
}

/// A data unit the rebuild of `failed` reads inside a survivor run of
/// two or more units.
fn survivor_inside_a_run(store: &BlockStore, failed: u16) -> UnitAddr {
    let (survivor_runs, _) = common::rebuild_runs(store.mapping(), failed);
    survivor_runs
        .iter()
        .filter(|run| run.len() > 1)
        .flatten()
        .copied()
        .find(|u| !store.mapping().role_at(u.disk, u.offset).is_parity())
        .expect("no data unit inside a survivor run")
}

/// Rewrites `victim`'s logical unit with the same contents, a bit of
/// it flipped on the way to the medium: the checksum table keeps the
/// intended bytes, the disk holds wrong ones.
fn corrupt_in_flight(
    store: &BlockStore,
    plans: &[Arc<FaultPlan>],
    victim: UnitAddr,
    units: u64,
    unit_bytes: usize,
    tag: u64,
) {
    let logical = store.mapping().addr_to_logical(victim).unwrap();
    plans[victim.disk as usize].arm_corruption(unit_pos(units, victim.offset, unit_bytes));
    store
        .write_unit(logical, &content(logical, tag, unit_bytes))
        .unwrap();
    assert_eq!(plans[victim.disk as usize].injected().corruptions, 1);
}

#[test]
fn transient_eio_inside_survivor_runs_resolves_by_retrying_the_run() {
    const UNITS: u64 = 64;
    const UB: usize = 1024;
    const FAILED: u16 = 1;
    let (store, plans, _dir) = faulty_store(SPEC, "transient-rebuild", UNITS, UB, 0x7E59);
    fill(&store, UB, 11);
    store.fail_disk(FAILED).unwrap();
    store.replace_disk().unwrap();
    let (survivor_runs, _) = common::rebuild_runs(store.mapping(), FAILED);
    assert!(survivor_runs.iter().any(|run| run.len() > 1));

    // Every first read of a position fails once: each survivor call is
    // one detection, and retrying that same call clears it.
    for p in &plans {
        p.set_transient_read_eio(1.0);
    }
    store.rebuild(1).unwrap();
    for p in &plans {
        p.quiesce();
    }
    let injected: u64 = plans.iter().map(|p| p.injected().transient_eio).sum();
    assert_eq!(injected, survivor_runs.len() as u64, "one episode per run");
    let c = store.fault_counters();
    assert_eq!(c.media_errors, injected, "{c:?}");
    assert_eq!(c.retry_successes, injected, "{c:?}");
    assert_eq!(c.checksum_errors, 0, "{c:?}");
    assert_eq!(c.repaired, 0, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    assert!(store.failed_disks().is_empty());
    assert_contents(&store, UB, 11, "after a rebuild under transient EIO");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn corrupt_survivor_inside_a_rebuild_run_is_repaired_once_on_pq() {
    const UNITS: u64 = 64;
    const UB: usize = 1024;
    const FAILED: u16 = 4;
    let spec: LayoutSpec = "pq:c10g5".parse().unwrap();
    let (store, plans, _dir) = faulty_store(spec, "corrupt-survivor-pq", UNITS, UB, 0xC2);
    fill(&store, UB, 12);
    let victim = survivor_inside_a_run(&store, FAILED);
    corrupt_in_flight(&store, &plans, victim, UNITS, UB, 12);
    store.fail_disk(FAILED).unwrap();
    store.replace_disk().unwrap();

    // Q still covers the victim's stripe: the mismatch is detected
    // once, repaired from its peers once, and the rebuild finishes.
    store.rebuild(1).unwrap();
    let c = store.fault_counters();
    assert_eq!(c.checksum_errors, 1, "{c:?}");
    assert_eq!(c.repaired, 1, "{c:?}");
    assert_eq!(c.media_errors, 0, "{c:?}");
    assert_eq!(c.escalated, 0, "{c:?}");
    assert!(store.failed_disks().is_empty());
    assert_contents(&store, UB, 12, "after repairing a survivor mid-rebuild");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

#[test]
fn corrupt_survivor_inside_a_rebuild_run_escalates_typed_on_single_parity() {
    const UNITS: u64 = 168;
    const UB: usize = 512;
    const FAILED: u16 = 4;
    let spec: LayoutSpec = "bibd:c10g4".parse().unwrap();
    let (store, plans, _dir) = faulty_store(spec, "corrupt-survivor-bibd", UNITS, UB, 0xC3);
    fill(&store, UB, 13);
    let victim = survivor_inside_a_run(&store, FAILED);
    corrupt_in_flight(&store, &plans, victim, UNITS, UB, 13);
    store.fail_disk(FAILED).unwrap();
    store.replace_disk().unwrap();

    // With the victim's stripe already short a member, nothing can
    // repair it: the rebuild stops with a typed error.
    let err = store.rebuild(1).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Media {
                kind: MediaKind::Checksum,
                ..
            }
        ),
        "expected a typed checksum escalation, got: {err}"
    );
    assert_eq!(store.failed_disks(), vec![FAILED]);
    // Every read answers the written bytes or a typed error, and the
    // victim's own read is an error.
    let mut buf = vec![0u8; UB];
    let victim_logical = store.mapping().addr_to_logical(victim).unwrap();
    for logical in 0..store.data_units() {
        match store.read_unit(logical, &mut buf) {
            Ok(()) => assert_eq!(buf, content(logical, 13, UB), "unit {logical}"),
            Err(e) => assert!(matches!(e, StoreError::Media { .. }), "unit {logical}: {e}"),
        }
    }
    assert!(store.read_unit(victim_logical, &mut buf).is_err());
    let c = store.fault_counters();
    assert_eq!(c.repaired, 0, "{c:?}");
    assert!(c.escalated >= 1, "{c:?}");
}
