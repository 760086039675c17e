//! The differential harness: one recorded workload replayed into both
//! the file-backed [`BlockStore`] and the in-memory byte oracle
//! (`DataArray`), demanding byte-identical contents afterwards — in
//! fault-free, degraded, and post-rebuild runs. The same trace also
//! drives the timing simulator (`ArraySim`) as a plausibility check
//! that the recorded stream is a valid array workload.

mod common;

use common::{content, fresh_dir, TempDir};
use decluster_array::data::DataArray;
use decluster_array::{ArrayConfig, ArraySim};
use decluster_core::design::BlockDesign;
use decluster_core::layout::DeclusteredLayout;
use decluster_sim::SimTime;
use decluster_store::{BlockStore, LayoutSpec, BLOCK_BYTES};
use decluster_workload::trace::Trace;
use decluster_workload::{AccessKind, UserRequest, Workload, WorkloadSpec};
use std::sync::Arc;

const UNITS_PER_DISK: u64 = 32;
const UNIT_BYTES: usize = 1024; // two blocks per unit, to exercise splices

fn oracle() -> DataArray {
    let layout = Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, 4).unwrap()).unwrap());
    DataArray::new(layout, UNITS_PER_DISK, UNIT_BYTES).unwrap()
}

/// A fresh store, and the directory it lives in.
fn store(name: &str) -> (BlockStore, TempDir) {
    let dir = fresh_dir(name);
    let store = BlockStore::create(
        &dir,
        LayoutSpec::Complete { disks: 5, group: 4 },
        UNITS_PER_DISK,
        UNIT_BYTES as u32,
        0xD1FF,
    )
    .unwrap();
    (store, dir)
}

fn record_trace(data_units: u64, seed: u64, secs: u64) -> Trace {
    let mut workload = Workload::new(WorkloadSpec::half_and_half(120.0), data_units, seed);
    Trace::record(&mut workload, SimTime::from_secs(secs))
}

/// Replays each request into both sides. Reads are the comparison:
/// every read's bytes must match the oracle's answer exactly. Writes
/// carry deterministic content derived from the request index.
fn replay(store: &BlockStore, oracle: &mut DataArray, requests: &[UserRequest], tag: u64) {
    let mut buf = vec![0u8; UNIT_BYTES];
    for (i, req) in requests.iter().enumerate() {
        for u in 0..req.units {
            let logical = req.logical_unit + u;
            match req.kind {
                AccessKind::Read => {
                    store.read_unit(logical, &mut buf).unwrap();
                    assert_eq!(
                        buf,
                        oracle.read(logical),
                        "request {i}: degraded-aware read of unit {logical} diverged"
                    );
                }
                AccessKind::Write => {
                    let data = content(logical, tag.wrapping_add(i as u64), UNIT_BYTES);
                    store.write_unit(logical, &data).unwrap();
                    oracle.write(logical, &data);
                }
            }
        }
    }
}

/// Full-surface comparison: every logical unit must read back the same
/// bytes from the files as from the oracle.
fn assert_identical(store: &BlockStore, oracle: &DataArray, label: &str) {
    let mut buf = vec![0u8; UNIT_BYTES];
    for logical in 0..store.data_units() {
        store.read_unit(logical, &mut buf).unwrap();
        assert_eq!(
            buf,
            oracle.read(logical),
            "{label}: unit {logical} diverged"
        );
    }
}

#[test]
fn fault_free_replay_is_byte_identical() {
    let (store, _dir) = store("fault-free");
    let mut oracle = oracle();
    assert_eq!(store.data_units(), oracle.data_units());
    let trace = record_trace(store.data_units(), 11, 30);
    assert!(trace.len() > 100, "trace too short to mean anything");

    // The same trace drives the timing simulator: the recorded stream
    // must be a valid workload for the simulated array too.
    let layout = Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, 4).unwrap()).unwrap());
    let sim = ArraySim::with_trace(layout, ArrayConfig::scaled(4), trace.clone()).unwrap();
    let report = sim.run_for(SimTime::from_secs(30), SimTime::ZERO);
    assert!(
        report.ops.all.count() > 0,
        "simulator completed no requests"
    );

    replay(&store, &mut oracle, trace.requests(), 0);
    assert_identical(&store, &oracle, "fault-free");
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();

    // Block-granular splices against the oracle's unit-level RMW: write
    // single 512-byte blocks and mirror them by read-splice-write.
    let mut buf = vec![0u8; UNIT_BYTES];
    for block in (0..store.block_count()).step_by(3) {
        let logical = block / 2;
        let at = (block % 2) as usize * BLOCK_BYTES as usize;
        let bytes = vec![(block % 255) as u8; BLOCK_BYTES as usize];
        store.write_blocks(block, &bytes).unwrap();
        let mut image = oracle.read(logical);
        image[at..at + bytes.len()].copy_from_slice(&bytes);
        oracle.write(logical, &image);
        store
            .read_blocks(block, &mut buf[..BLOCK_BYTES as usize])
            .unwrap();
        assert_eq!(&buf[..BLOCK_BYTES as usize], &bytes[..]);
    }
    assert_identical(&store, &oracle, "after block splices");
    store.verify_parity().unwrap();
    store.close().unwrap();
}

/// Multi-unit requests sized to whole stripes: the store takes the
/// full-stripe fast path (and, mid-request, the batched intent log),
/// the oracle writes unit by unit — the bytes must not know the
/// difference. The same requests are replayed again after a
/// fail/replace/rebuild cycle, where the store must fall back to RMW.
#[test]
fn full_stripe_requests_are_byte_identical() {
    const DATA_PER_STRIPE: u64 = 3; // G − 1 for Complete(5, 4)
    let (store, _dir) = store("full-stripe");
    let mut oracle = oracle();
    let bpu = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
    let spec = WorkloadSpec::half_and_half(120.0).with_access_units(2 * DATA_PER_STRIPE);
    let mut workload = Workload::new(spec, store.data_units(), 21);
    let trace = Trace::record(&mut workload, SimTime::from_secs(30));
    assert!(trace.len() > 100, "trace too short to mean anything");

    let replay_blocks = |store: &BlockStore, oracle: &mut DataArray, tag: u64| {
        let mut buf = vec![0u8; 2 * DATA_PER_STRIPE as usize * UNIT_BYTES];
        for (i, req) in trace.requests().iter().enumerate() {
            let span = req.units as usize * UNIT_BYTES;
            match req.kind {
                AccessKind::Read => {
                    store
                        .read_blocks(req.logical_unit * bpu, &mut buf[..span])
                        .unwrap();
                    for u in 0..req.units {
                        let at = u as usize * UNIT_BYTES;
                        assert_eq!(
                            &buf[at..at + UNIT_BYTES],
                            &oracle.read(req.logical_unit + u)[..],
                            "request {i}: unit {} diverged",
                            req.logical_unit + u
                        );
                    }
                }
                AccessKind::Write => {
                    let data: Vec<u8> = (0..req.units)
                        .flat_map(|u| {
                            content(req.logical_unit + u, tag.wrapping_add(i as u64), UNIT_BYTES)
                        })
                        .collect();
                    store.write_blocks(req.logical_unit * bpu, &data).unwrap();
                    for u in 0..req.units {
                        let at = u as usize * UNIT_BYTES;
                        oracle.write(req.logical_unit + u, &data[at..at + UNIT_BYTES]);
                    }
                }
            }
        }
    };

    replay_blocks(&store, &mut oracle, 6_000_000);
    assert_identical(&store, &oracle, "full-stripe fault-free");
    store.verify_parity().unwrap();

    store.fail_disk(1).unwrap();
    oracle.fail_disk(1).unwrap();
    replay_blocks(&store, &mut oracle, 7_000_000);
    assert_identical(&store, &oracle, "full-stripe degraded");

    store.replace_disk().unwrap();
    oracle.replace_disk().unwrap();
    store.rebuild(2).unwrap();
    oracle.reconstruct_all().unwrap();
    replay_blocks(&store, &mut oracle, 8_000_000);
    assert_identical(&store, &oracle, "full-stripe post-rebuild");
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();
    store.close().unwrap();
}

/// The P+Q store survives ANY simultaneous two-disk failure: for every
/// unordered disk pair, prefill, fail both disks, run degraded traffic
/// (reads decode through the surviving data plus P and Q; writes
/// read-modify-write whichever parities survive), then replace and
/// rebuild both disks — byte-identical to the `DataArray` oracle at
/// every step. The oracle's GF(256) lives in `decluster-array::gf`
/// (log/exp tables), the store's in `decluster-store::parity`
/// (bit-serial), so agreement here cross-checks two independent
/// implementations of the Reed–Solomon algebra.
#[test]
fn pq_two_disk_failure_replay_is_byte_identical() {
    let spec = LayoutSpec::Pq { disks: 5, group: 4 };
    for a in 0..5u16 {
        for b in (a + 1)..5u16 {
            let pair = (a * 5 + b) as u64;
            let dir = fresh_dir(&format!("pq-{a}-{b}"));
            let store =
                BlockStore::create(&dir, spec, UNITS_PER_DISK, UNIT_BYTES as u32, 0xD1FF ^ pair)
                    .unwrap();
            let mut oracle =
                DataArray::new(spec.build().unwrap(), UNITS_PER_DISK, UNIT_BYTES).unwrap();
            assert_eq!(store.data_units(), oracle.data_units());
            for logical in 0..store.data_units() {
                let data = content(logical, 9_000_000 + pair, UNIT_BYTES);
                store.write_unit(logical, &data).unwrap();
                oracle.write(logical, &data);
            }

            store.fail_disk(a).unwrap();
            oracle.fail_disk(a).unwrap();
            store.fail_disk(b).unwrap();
            oracle.fail_disk(b).unwrap();
            let churn = record_trace(store.data_units(), 40 + pair, 10);
            replay(&store, &mut oracle, churn.requests(), 10_000_000 + pair);
            assert_identical(&store, &oracle, &format!("pq degraded ({a},{b})"));

            store.replace_disk().unwrap();
            oracle.replace_disk().unwrap();
            let report = store.rebuild(2).unwrap();
            assert_eq!(report.failed_disks, vec![a, b]);
            oracle.reconstruct_all().unwrap();

            let after = record_trace(store.data_units(), 60 + pair, 10);
            replay(&store, &mut oracle, after.requests(), 11_000_000 + pair);
            assert_identical(&store, &oracle, &format!("pq post-rebuild ({a},{b})"));
            store.verify_parity().unwrap();
            oracle.verify_parity().unwrap();
            store.close().unwrap();
        }
    }
}

#[test]
fn degraded_replay_is_byte_identical() {
    let (store, _dir) = store("degraded");
    let mut oracle = oracle();
    // Prefill every unit, then lose a disk mid-history in both worlds.
    for logical in 0..store.data_units() {
        let data = content(logical, 1_000_000, UNIT_BYTES);
        store.write_unit(logical, &data).unwrap();
        oracle.write(logical, &data);
    }
    store.fail_disk(2).unwrap();
    oracle.fail_disk(2).unwrap();

    let trace = record_trace(store.data_units(), 12, 30);
    replay(&store, &mut oracle, trace.requests(), 2_000_000);
    assert_identical(&store, &oracle, "degraded");
    store.close().unwrap();
}

#[test]
fn post_rebuild_replay_is_byte_identical() {
    let (store, _dir) = store("post-rebuild");
    let mut oracle = oracle();
    for logical in 0..store.data_units() {
        let data = content(logical, 3_000_000, UNIT_BYTES);
        store.write_unit(logical, &data).unwrap();
        oracle.write(logical, &data);
    }
    store.fail_disk(4).unwrap();
    oracle.fail_disk(4).unwrap();
    // Degraded-mode churn before the replacement arrives.
    let churn = record_trace(store.data_units(), 13, 20);
    replay(&store, &mut oracle, churn.requests(), 4_000_000);

    store.replace_disk().unwrap();
    oracle.replace_disk().unwrap();
    let report = store.rebuild(2).unwrap();
    assert_eq!(
        report.units_rebuilt + report.units_already_valid + report.units_unmapped,
        UNITS_PER_DISK
    );
    oracle.reconstruct_all().unwrap();

    // More traffic after the rebuild, then the full-surface check.
    let after = record_trace(store.data_units(), 14, 20);
    replay(&store, &mut oracle, after.requests(), 5_000_000);
    assert_identical(&store, &oracle, "post-rebuild");
    store.verify_parity().unwrap();
    oracle.verify_parity().unwrap();
    store.close().unwrap();
}

/// Multi-unit block reads — whole-unit runs read one backend call per
/// disk run, partial head and tail units staged — against the oracle,
/// on a healthy array and again degraded, where the same spans are read
/// one unit at a time.
#[test]
fn multi_unit_block_reads_with_partial_ends_are_byte_identical() {
    let (store, _dir) = store("block-spans");
    let mut oracle = oracle();
    for logical in 0..store.data_units() {
        let data = content(logical, 3_000_000, UNIT_BYTES);
        store.write_unit(logical, &data).unwrap();
        oracle.write(logical, &data);
    }
    let blocks = store.block_count();
    // (first block, blocks): aligned, odd head, odd tail, both, the
    // whole array, and spans holding exactly two whole units.
    let spans = [
        (0, 24),
        (1, 24),
        (6, 25),
        (7, 40),
        (0, blocks),
        (1, blocks - 2),
        (10, 4),
        (11, 5),
        (blocks - 31, 31),
    ];
    let bpu = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
    let check = |oracle: &DataArray, label: &str| {
        for &(block, n) in &spans {
            let mut got = vec![0u8; (n * BLOCK_BYTES as u64) as usize];
            store.read_blocks(block, &mut got).unwrap();
            let units = block / bpu..(block + n).div_ceil(bpu);
            let skip = (block % bpu * BLOCK_BYTES as u64) as usize;
            let want: Vec<u8> = units
                .flat_map(|u| oracle.read(u))
                .skip(skip)
                .take(got.len())
                .collect();
            assert!(got == want, "{label}: blocks [{block}, +{n}) diverged");
        }
    };
    check(&oracle, "healthy");
    store.fail_disk(1).unwrap();
    oracle.fail_disk(1).unwrap();
    check(&oracle, "degraded");
    store.close().unwrap();
}
