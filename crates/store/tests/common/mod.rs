//! Helpers shared by the store's integration tests. Each test binary
//! uses its own subset of them.
#![allow(dead_code)]

use decluster_core::layout::{ArrayMapping, UnitAddr};
use std::path::{Path, PathBuf};

/// Deterministic unit contents keyed by address and a generation tag, so
/// successive writes to one unit differ.
pub fn content(logical: u64, tag: u64, unit_bytes: usize) -> Vec<u8> {
    (0..unit_bytes)
        .map(|i| {
            (logical
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(i as u64)
                >> 7) as u8
        })
        .collect()
}

/// A scratch directory for one test, removed with everything in it
/// when dropped, so no run leaves its backing files behind. Keep it
/// alive for as long as the store that lives in it.
#[derive(Debug)]
pub struct TempDir(PathBuf);

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

/// An empty scratch directory named for the test binary, the test and
/// this process.
pub fn fresh_dir(name: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!(
        "decluster-{}-{name}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    TempDir(dir)
}

/// Offsets of each failed disk one rebuild window covers: the store's
/// private window size, restated so tests can derive a rebuild's I/O.
pub const REBUILD_WINDOW: u64 = 16;

/// The backend calls a one-worker rebuild of the single failed disk
/// `failed` makes, derived from the mapping alone. In each window of
/// [`REBUILD_WINDOW`] offsets, each lost unit's decode reads every other
/// data unit of its stripe, plus P when the lost unit holds data; the
/// window's survivors are read one call per maximal run of adjacent
/// offsets on one disk, and its lost units are written the same way.
/// Returns the survivor runs and the replacement runs, each as the
/// units it covers.
pub fn rebuild_runs(
    mapping: &ArrayMapping,
    failed: u16,
) -> (Vec<Vec<UnitAddr>>, Vec<Vec<UnitAddr>>) {
    let d = mapping.data_units_per_stripe() as usize;
    let units = mapping.units_per_disk();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for lo in (0..units).step_by(REBUILD_WINDOW as usize) {
        let (mut survivors, mut lost) = (Vec::new(), Vec::new());
        for offset in lo..units.min(lo + REBUILD_WINDOW) {
            let Some(stripe) = mapping.role_at(failed, offset).stripe() else {
                continue;
            };
            let stripe_units = mapping.stripe_units(stripe);
            let pos = stripe_units
                .iter()
                .position(|u| u.disk == failed)
                .expect("the failed disk holds a unit of the stripe");
            lost.push(stripe_units[pos]);
            survivors.extend(
                stripe_units
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos && (i < d || (i == d && pos < d)))
                    .map(|(_, u)| *u),
            );
        }
        reads.extend(runs(survivors));
        writes.extend(runs(lost));
    }
    (reads, writes)
}

/// `units` grouped into maximal runs of adjacent offsets on one disk.
fn runs(mut units: Vec<UnitAddr>) -> Vec<Vec<UnitAddr>> {
    units.sort_unstable_by_key(|u| (u.disk, u.offset));
    units
        .chunk_by(|a, b| a.disk == b.disk && b.offset == a.offset + 1)
        .map(<[UnitAddr]>::to_vec)
        .collect()
}
