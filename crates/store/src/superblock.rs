//! The per-disk superblock: layout identity written at `mkfs`, validated
//! on every open.
//!
//! Each backing file begins with one [`SUPERBLOCK_BYTES`] header naming
//! the array (the [`LayoutSpec`] string, unit size, capacity), this disk's
//! index within it, a shared array id, and the store's run state (cleanly
//! closed? which disks are failed?). A store only opens when every
//! readable superblock tells the same story — mixing files from two
//! arrays, or reopening after a geometry change, fails loudly instead of
//! corrupting data. The checksum (FNV-1a over the encoded fields) catches
//! torn or scribbled headers.
//!
//! There is one wire form, [`VERSION`] 3: the layout persisted as its
//! spec string (`prime:c11g4`, `pq:c12g6`, …) so any registry family
//! round-trips, and **two** failed-disk slots for P+Q arrays. Any other
//! version is rejected as corrupt.

use crate::checksum::{region_bytes, SLOT_BYTES};
use crate::error::{Result, StoreError};
use std::path::Path;

pub use decluster_core::layout::LayoutSpec;

/// Bytes reserved at the head of each backing file for the superblock.
pub const SUPERBLOCK_BYTES: u64 = 4096;

/// Fixed granularity of the logical block address space, in bytes.
pub const BLOCK_BYTES: u32 = 512;

/// Sentinel for "no failed disk" in the encoded form.
const NO_FAILED_DISK: u16 = u16::MAX;

const MAGIC: &[u8; 8] = b"DCLSTOR1";
/// The on-disk format version: the layout spec string and two
/// failed-disk slots (P+Q arrays tolerate two simultaneous failures).
const VERSION: u32 = 3;
/// Bytes reserved for the spec string.
const SPEC_BYTES: usize = 64;
/// Bytes covered by the checksum.
const CHECKED_BYTES: usize = 44 + SPEC_BYTES;

/// One backing file's decoded superblock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Superblock {
    /// Layout construction and parameters.
    pub spec: LayoutSpec,
    /// Bytes per stripe unit (a multiple of [`BLOCK_BYTES`]).
    pub unit_bytes: u32,
    /// Stripe units per disk.
    pub units_per_disk: u64,
    /// This disk's index in `0..spec.disks()`.
    pub disk_index: u16,
    /// Shared id stamped at `mkfs` — all files of one array carry the
    /// same value.
    pub array_id: u64,
    /// Whether the store was cleanly closed (false while open; a reopen
    /// seeing false runs crash recovery).
    pub clean: bool,
    /// The failed disks, if the array is degraded: slot 0 fills first,
    /// slot 1 only when a P+Q array loses a second disk.
    pub failed: [Option<u16>; 2],
}

impl Superblock {
    /// The failed disks as a sorted list.
    pub fn failed_disks(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.failed.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }

    /// Encodes into a [`SUPERBLOCK_BYTES`] buffer with trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; SUPERBLOCK_BYTES as usize];
        buf[0..8].copy_from_slice(MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&BLOCK_BYTES.to_le_bytes());
        buf[16..20].copy_from_slice(&self.unit_bytes.to_le_bytes());
        buf[20..28].copy_from_slice(&self.units_per_disk.to_le_bytes());
        buf[28..30].copy_from_slice(&self.disk_index.to_le_bytes());
        buf[30..38].copy_from_slice(&self.array_id.to_le_bytes());
        buf[38] = self.clean as u8;
        let spec = self.spec.to_string();
        assert!(spec.len() <= SPEC_BYTES, "layout spec `{spec}` too long");
        buf[39] = spec.len() as u8;
        let f0 = self.failed[0].unwrap_or(NO_FAILED_DISK);
        let f1 = self.failed[1].unwrap_or(NO_FAILED_DISK);
        buf[40..42].copy_from_slice(&f0.to_le_bytes());
        buf[42..44].copy_from_slice(&f1.to_le_bytes());
        buf[44..44 + spec.len()].copy_from_slice(spec.as_bytes());
        let sum = fnv1a(&buf[..CHECKED_BYTES]);
        buf[CHECKED_BYTES..CHECKED_BYTES + 8].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes and validates a superblock read from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a bad magic, version, checksum,
    /// or any out-of-range field.
    pub fn decode(buf: &[u8], path: &Path) -> Result<Superblock> {
        let bad = |reason: String| StoreError::corrupt(path, reason);
        if buf.len() < SUPERBLOCK_BYTES as usize {
            return Err(bad(format!("short superblock: {} bytes", buf.len())));
        }
        if &buf[0..8] != MAGIC {
            return Err(bad("bad magic".into()));
        }
        let version = le_u32(buf, 8);
        if version != VERSION {
            return Err(bad(format!("unsupported version {version}")));
        }
        let stored = le_u64(buf, CHECKED_BYTES);
        let computed = fnv1a(&buf[..CHECKED_BYTES]);
        if stored != computed {
            return Err(bad(format!(
                "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            )));
        }
        let block_bytes = le_u32(buf, 12);
        if block_bytes != BLOCK_BYTES {
            return Err(bad(format!("unsupported block size {block_bytes}")));
        }
        let unit_bytes = le_u32(buf, 16);
        if unit_bytes == 0 || !unit_bytes.is_multiple_of(BLOCK_BYTES) {
            return Err(bad(format!("unit size {unit_bytes} not a block multiple")));
        }
        let spec_len = buf[39] as usize;
        if spec_len > SPEC_BYTES {
            return Err(bad(format!("layout spec length {spec_len} out of range")));
        }
        let text = std::str::from_utf8(&buf[44..44 + spec_len])
            .map_err(|_| bad("layout spec is not UTF-8".into()))?;
        let spec: LayoutSpec = text
            .parse()
            .map_err(|e| bad(format!("bad layout spec `{text}`: {e}")))?;
        let disk_index = le_u16(buf, 28);
        let disks = spec.disks();
        if disk_index >= disks {
            return Err(bad(format!("disk index {disk_index} out of {disks}")));
        }
        let failed_slot = |o| Some(le_u16(buf, o)).filter(|&f| f != NO_FAILED_DISK);
        Ok(Superblock {
            spec,
            unit_bytes,
            units_per_disk: le_u64(buf, 20),
            disk_index,
            array_id: le_u64(buf, 30),
            clean: buf[38] != 0,
            failed: [failed_slot(40), failed_slot(42)],
        })
    }

    /// Whether `other` describes the same array (everything but the
    /// per-disk index and run state).
    pub fn same_array(&self, other: &Superblock) -> bool {
        self.spec == other.spec
            && self.unit_bytes == other.unit_bytes
            && self.units_per_disk == other.units_per_disk
            && self.array_id == other.array_id
    }

    /// Byte offset where this disk's data area starts: the superblock,
    /// then the checksum region.
    pub fn data_start(&self) -> u64 {
        SUPERBLOCK_BYTES + region_bytes(self.units_per_disk)
    }

    /// Total bytes of one backing file — superblock, checksum region,
    /// data area — or `None` if the geometry overflows a 64-bit file
    /// size (only a forged superblock can claim one).
    pub fn disk_bytes(&self) -> Option<u64> {
        let region = self
            .units_per_disk
            .checked_mul(SLOT_BYTES)?
            .div_ceil(4096)
            .checked_mul(4096)?;
        let data = self.units_per_disk.checked_mul(self.unit_bytes as u64)?;
        SUPERBLOCK_BYTES.checked_add(region)?.checked_add(data)
    }
}

fn le_u16(b: &[u8], o: usize) -> u16 {
    u16::from_le_bytes([b[o], b[o + 1]])
}

fn le_u32(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

fn le_u64(b: &[u8], o: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[o..o + 8]);
    u64::from_le_bytes(a)
}

/// 64-bit FNV-1a over `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sb() -> Superblock {
        Superblock {
            spec: LayoutSpec::Bibd {
                disks: 10,
                group: 4,
            },
            unit_bytes: 4096,
            units_per_disk: 336,
            disk_index: 3,
            array_id: 0xfeed_beef,
            clean: true,
            failed: [None; 2],
        }
    }

    /// Rewrites the checksum of an encoded superblock after a mutation,
    /// so decoding reaches field validation.
    fn reseal(buf: &mut [u8]) {
        let sum = fnv1a(&buf[..CHECKED_BYTES]);
        buf[CHECKED_BYTES..CHECKED_BYTES + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = PathBuf::from("disk-003.dat");
        let original = sb();
        let decoded = Superblock::decode(&original.encode(), &p).unwrap();
        assert_eq!(decoded, original);
        assert_eq!(
            decoded.data_start(),
            SUPERBLOCK_BYTES + region_bytes(original.units_per_disk)
        );
        assert_eq!(
            decoded.disk_bytes(),
            Some(decoded.data_start() + 336 * 4096)
        );

        let mut degraded = sb();
        degraded.clean = false;
        degraded.failed = [Some(7), None];
        let decoded = Superblock::decode(&degraded.encode(), &p).unwrap();
        assert_eq!(decoded, degraded);
    }

    #[test]
    fn v3_round_trips_every_registry_family_and_two_failures() {
        let p = PathBuf::from("disk-000.dat");
        for family in decluster_core::layout::spec::registry() {
            for &example in family.examples {
                let mut s = sb();
                s.spec = example.parse().unwrap();
                s.disk_index = 0;
                if s.spec.parity_units() == 2 {
                    s.failed = [Some(1), Some(3)];
                }
                let decoded = Superblock::decode(&s.encode(), &p).unwrap();
                assert_eq!(decoded, s, "{example}");
                assert_eq!(decoded.spec.to_string(), example);
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let p = PathBuf::from("x");
        let mut buf = sb().encode();
        buf[20] ^= 1; // flip a bit inside the checked region
        let err = Superblock::decode(&buf, &p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        let mut buf = sb().encode();
        buf[0] = b'X';
        assert!(Superblock::decode(&buf, &p)
            .unwrap_err()
            .to_string()
            .contains("magic"));

        assert!(Superblock::decode(&[0u8; 10], &p)
            .unwrap_err()
            .to_string()
            .contains("short"));

        // One format: the retired v1/v2 and any future version are
        // refused, checksum valid or not.
        for version in [1u32, 2, 99] {
            let mut buf = sb().encode();
            buf[8..12].copy_from_slice(&version.to_le_bytes());
            reseal(&mut buf);
            let err = Superblock::decode(&buf, &p).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn decode_never_panics_on_any_resealed_byte_mutation() {
        let p = PathBuf::from("sweep");
        let mut base = sb();
        base.failed = [Some(2), None];
        let valid = base.encode();
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for at in 0..CHECKED_BYTES + 8 {
            for value in [0x00u8, 0x01, 0x7F, 0x80, 0xFF] {
                let mut buf = valid.clone();
                buf[at] = value;
                reseal(&mut buf);
                match Superblock::decode(&buf, &p) {
                    Ok(x) => {
                        accepted += 1;
                        let again = Superblock::decode(&x.encode(), &p).unwrap();
                        assert_eq!(again, x, "byte {at} = {value:#04x}");
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} ok, {rejected} err"
        );
    }

    #[test]
    fn layout_specs_build_and_alpha() {
        let d = LayoutSpec::Bibd {
            disks: 10,
            group: 4,
        };
        assert_eq!(d.group(), 4);
        assert!((d.alpha() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(d.build().unwrap().stripe_width(), 4);
        let r = LayoutSpec::Raid5 { disks: 5 };
        assert_eq!(r.group(), 5);
        assert_eq!(r.build().unwrap().disks(), 5);
        let c = LayoutSpec::Complete { disks: 5, group: 4 };
        assert_eq!(c.build().unwrap().stripe_width(), 4);
        assert_eq!(
            [d.family(), c.family(), r.family()],
            ["bibd", "complete", "raid5"]
        );
    }

    #[test]
    fn nonexistent_design_is_an_error() {
        // 41 disks, G = 5: the paper's own infeasible example.
        let spec = LayoutSpec::Bibd {
            disks: 41,
            group: 5,
        };
        assert!(spec.build().is_err());
    }
}
