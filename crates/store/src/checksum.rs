//! Per-unit data checksums and the on-disk checksum region.
//!
//! Every stripe unit carries a 64-bit folded checksum, stored in a
//! per-disk region between the superblock and the data (see
//! [`region_bytes`]). The store keeps the table **in memory**
//! (loaded at open, persisted at close / recovery / rebuild) so the
//! write hot path stays syscall-identical to a checksum-less store:
//! a unit write updates one atomic slot, a unit read verifies against
//! it, and no extra I/O is issued. A crash can only stale the slots of
//! units covered by a dirty intent region, and crash recovery
//! recomputes exactly those (see `BlockStore::recover`); any slot torn
//! on disk elsewhere self-heals through read-repair, because parity
//! reconstruction regenerates the on-disk bytes and the repair write
//! refreshes the slot.
//!
//! The checksum is a lane-folded multiply-rotate hash rather than a
//! table-driven CRC: it runs at memory bandwidth (the hot-path budget
//! of DESIGN.md §11 leaves no room for a bytewise CRC), while still
//! changing on any bit flip, byte swap, shift, or truncation — the
//! corruption classes a sick disk produces.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per checksum slot in the on-disk region.
pub const SLOT_BYTES: u64 = 8;

/// Bytes reserved for the checksum region of a disk with
/// `units_per_disk` stripe units: one [`SLOT_BYTES`] slot per unit,
/// rounded up to a whole 4 KiB page so the data area stays
/// page-aligned.
pub fn region_bytes(units_per_disk: u64) -> u64 {
    (units_per_disk * SLOT_BYTES).div_ceil(4096) * 4096
}

/// The 64-bit folded checksum of one unit's contents.
///
/// Four independent multiply-rotate lanes consume 32 bytes per step
/// (the same stride as the parity kernels in [`crate::parity`]), the
/// scalar tail folds remaining bytes, and a final avalanche mixes the
/// length in so truncations and extensions differ.
pub fn fingerprint64(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    const SEEDS: [u64; 4] = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut h = SEEDS;
    let split = data.len() - data.len() % 32;
    for chunk in data[..split].chunks_exact(32) {
        for (k, lane) in chunk.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(lane.try_into().expect("lane is 8 bytes"));
            h[k] = (h[k] ^ v).rotate_left(23).wrapping_mul(K);
        }
    }
    let mut acc = h[0]
        .wrapping_mul(3)
        .wrapping_add(h[1].rotate_left(17))
        .wrapping_add(h[2].rotate_left(31))
        .wrapping_add(h[3].rotate_left(47));
    for (i, &b) in data[split..].iter().enumerate() {
        acc = (acc ^ ((b as u64) << ((i % 8) * 8)))
            .rotate_left(11)
            .wrapping_mul(K);
    }
    acc ^= data.len() as u64;
    // xorshift-multiply avalanche.
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    acc ^ (acc >> 32)
}

/// One disk's in-memory checksum table: one atomic slot per unit
/// offset, shared by every I/O path (the stripe lock serializes
/// same-unit access, so relaxed atomics suffice).
#[derive(Debug)]
pub(crate) struct ChecksumTable {
    slots: Vec<AtomicU64>,
}

impl ChecksumTable {
    /// A fresh table for a zero-filled disk: every slot holds the
    /// checksum of an all-zero unit.
    pub fn zeroed(units_per_disk: u64, unit_bytes: usize) -> ChecksumTable {
        let zero = fingerprint64(&vec![0u8; unit_bytes]);
        ChecksumTable {
            slots: (0..units_per_disk).map(|_| AtomicU64::new(zero)).collect(),
        }
    }

    /// Decodes a table from the raw bytes of the on-disk region.
    pub fn decode(region: &[u8], units_per_disk: u64) -> ChecksumTable {
        ChecksumTable {
            slots: (0..units_per_disk as usize)
                .map(|i| {
                    let at = i * SLOT_BYTES as usize;
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&region[at..at + 8]);
                    AtomicU64::new(u64::from_le_bytes(b))
                })
                .collect(),
        }
    }

    /// Encodes the table into the on-disk region image (padded to
    /// [`region_bytes`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; region_bytes(self.slots.len() as u64) as usize];
        for (i, slot) in self.slots.iter().enumerate() {
            let at = i * SLOT_BYTES as usize;
            buf[at..at + 8].copy_from_slice(&slot.load(Ordering::Relaxed).to_le_bytes());
        }
        buf
    }

    /// Resets every slot to the checksum of an all-zero unit — the
    /// state of a freshly zeroed replacement disk.
    pub fn reset_zeroed(&self, unit_bytes: usize) {
        let zero = fingerprint64(&vec![0u8; unit_bytes]);
        for slot in &self.slots {
            slot.store(zero, Ordering::Relaxed);
        }
    }

    /// The stored checksum for the unit at `offset`.
    pub fn get(&self, offset: u64) -> u64 {
        self.slots[offset as usize].load(Ordering::Relaxed)
    }

    /// Records `sum` for the unit at `offset`.
    pub fn set(&self, offset: u64, sum: u64) {
        self.slots[offset as usize].store(sum, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_single_bit_flip_changes_the_fingerprint() {
        let base: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let sum = fingerprint64(&base);
        // Every byte position, one flipped bit each.
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1 << (i % 8);
            assert_ne!(fingerprint64(&flipped), sum, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn length_and_shift_sensitivity() {
        let data = vec![0xABu8; 512];
        assert_ne!(fingerprint64(&data), fingerprint64(&data[..511]));
        let mut shifted = data.clone();
        shifted.rotate_left(1);
        // A rotation of identical bytes is identical data; use varied data.
        let varied: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let mut rot = varied.clone();
        rot.rotate_left(8);
        assert_ne!(fingerprint64(&varied), fingerprint64(&rot));
        assert_eq!(fingerprint64(&shifted), fingerprint64(&data));
    }

    #[test]
    fn region_is_page_rounded() {
        assert_eq!(region_bytes(1), 4096);
        assert_eq!(region_bytes(512), 4096);
        assert_eq!(region_bytes(513), 8192);
        assert_eq!(region_bytes(336), 4096);
    }

    #[test]
    fn table_round_trips_through_the_region_image() {
        let t = ChecksumTable::zeroed(10, 512);
        t.set(3, 0xDEAD_BEEF_0BAD_CAFE);
        t.set(9, 42);
        let image = t.encode();
        assert_eq!(image.len() as u64, region_bytes(10));
        let back = ChecksumTable::decode(&image, 10);
        for i in 0..10 {
            assert_eq!(back.get(i), t.get(i), "slot {i}");
        }
    }

    #[test]
    fn zeroed_table_matches_a_zero_unit() {
        let t = ChecksumTable::zeroed(4, 1024);
        assert_eq!(t.get(0), fingerprint64(&[0u8; 1024]));
    }
}
