//! The paper's headline claim measured on real files: rebuilding a
//! failed disk under a declustered layout reads only α = (G−1)/(C−1)
//! of each surviving disk.
//!
//! `catalog::find(10, 4)` resolves to the complete design C(10, 4)
//! (b = 210, table height 84), so 336 units per disk is exactly four
//! tables — no unmapped holes, and the per-disk rebuild read counts
//! come out at α of the disk exactly, not just asymptotically.

mod common;

use common::fresh_dir;
use decluster_store::{BlockStore, LayoutSpec};

#[test]
fn rebuild_reads_alpha_of_each_surviving_disk() {
    let spec = LayoutSpec::Bibd {
        disks: 10,
        group: 4,
    };
    let dir = fresh_dir("c10-g4");
    let store = BlockStore::create(&dir, spec, 336, 512, 77).unwrap();
    let alpha = spec.alpha();
    assert!((alpha - 1.0 / 3.0).abs() < 1e-12);

    for logical in 0..store.data_units() {
        store
            .write_unit(logical, &vec![(logical % 251) as u8; 512])
            .unwrap();
    }
    // Four workers, then `0` = one per core: the split must not bend α.
    for threads in [4, 0] {
        store.fail_disk(0).unwrap();
        store.replace_disk().unwrap();
        let report = store.rebuild(threads).unwrap();

        assert_eq!(report.units_unmapped, 0, "336 units = 4 whole tables");
        assert_eq!(report.units_rebuilt, 336);
        for disk in 1..10u16 {
            let mapped = report.mapped_units_per_disk[disk as usize];
            assert_eq!(mapped, 336);
            let fraction = report.read_fraction(disk);
            let relative_error = (fraction - alpha).abs() / alpha;
            assert!(
                relative_error <= 0.02,
                "threads {threads}, disk {disk}: read {}/{mapped} = {fraction:.4}, \
                 α = {alpha:.4} (relative error {relative_error:.4})",
                report.disk_reads[disk as usize]
            );
        }
        // The replacement itself is only written, never read.
        assert_eq!(report.disk_reads[0], 0);
        assert_eq!(report.disk_writes[0], 336);

        // And the rebuilt array is whole again.
        store.verify_parity().unwrap();
        let mut buf = vec![0u8; 512];
        for logical in 0..store.data_units() {
            store.read_unit(logical, &mut buf).unwrap();
            assert_eq!(buf, vec![(logical % 251) as u8; 512], "unit {logical}");
        }
    }
    store.close().unwrap();
}

#[test]
fn raid5_rebuild_reads_every_surviving_disk_fully() {
    // The contrast case the paper draws: RAID 5 (α = 1) reads all of
    // every surviving disk.
    let spec = LayoutSpec::Raid5 { disks: 5 };
    let dir = fresh_dir("raid5");
    let store = BlockStore::create(&dir, spec, 40, 512, 78).unwrap();
    assert!((spec.alpha() - 1.0).abs() < 1e-12);
    for logical in 0..store.data_units() {
        store
            .write_unit(logical, &vec![logical as u8; 512])
            .unwrap();
    }
    store.fail_disk(3).unwrap();
    store.replace_disk().unwrap();
    let report = store.rebuild(2).unwrap();
    for disk in [0u16, 1, 2, 4] {
        assert_eq!(
            report.disk_reads[disk as usize], 40,
            "RAID 5 rebuild must read disk {disk} in full"
        );
    }
    store.verify_parity().unwrap();
    store.close().unwrap();
}
