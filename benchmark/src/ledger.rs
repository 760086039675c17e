//! The generation ledger: what every logical unit must hold.
//!
//! Each write stamps a pattern keyed by (seed, unit, generation) and
//! bumps the unit's generation; a read can be checked on the spot
//! because the pattern names its own unit and generation, and the final
//! read-back demands the exact generation the ledger recorded.

use std::sync::atomic::{AtomicU32, Ordering};

/// Bytes per stripe unit in every store workload.
pub const UNIT: usize = 4096;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key(seed: u64, unit: u64, gen: u32) -> u64 {
    mix(seed ^ mix(unit.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((gen as u64) << 40)))
}

/// Fills one unit with the pattern for (`seed`, `unit`, `gen`): the unit
/// number, the generation, then a keyed pseudo-random stream.
pub fn stamp(seed: u64, unit: u64, gen: u32, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), UNIT);
    let mut state = key(seed, unit, gen);
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        let w = match i {
            0 => unit,
            1 => gen as u64,
            _ => {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                mix(state)
            }
        };
        word.copy_from_slice(&w.to_le_bytes());
    }
}

fn word(buf: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// The constant-time check a measured read gets: the unit names itself
/// and its first stream word matches the generation it claims. A unit
/// another thread is rewriting may legitimately hold any generation, so
/// the exact one is only demanded by [`Ledger::verify`].
pub fn self_consistent(seed: u64, unit: u64, buf: &[u8]) -> bool {
    let gen = word(buf, 1);
    word(buf, 0) == unit
        && gen <= u32::MAX as u64
        && word(buf, 2) == mix(key(seed, unit, gen as u32).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// One generation counter per logical unit. Writers own disjoint units,
/// so relaxed atomics are enough: the counters publish nothing else.
#[derive(Debug)]
pub struct Ledger {
    seed: u64,
    gens: Vec<AtomicU32>,
}

impl Ledger {
    pub fn new(seed: u64, units: u64) -> Ledger {
        Ledger {
            seed,
            gens: (0..units).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn units(&self) -> u64 {
        self.gens.len() as u64
    }

    /// Stamps the next generation of `buf.len() / UNIT` units starting
    /// at `unit` into `buf`. Call [`Ledger::commit`] once the write is
    /// acknowledged.
    pub fn stamp_next(&self, unit: u64, buf: &mut [u8]) {
        for (i, chunk) in buf.chunks_exact_mut(UNIT).enumerate() {
            let u = unit + i as u64;
            let gen = self.gens[u as usize].load(Ordering::Relaxed) + 1;
            stamp(self.seed, u, gen, chunk);
        }
    }

    /// Records that the generations stamped by [`Ledger::stamp_next`]
    /// for `count` units from `unit` are now what the store holds.
    pub fn commit(&self, unit: u64, count: u64) {
        for u in unit..unit + count {
            self.gens[u as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Units written at least once since the initial fill.
    pub fn written_units(&self) -> u64 {
        self.gens
            .iter()
            .filter(|g| g.load(Ordering::Relaxed) > 0)
            .count() as u64
    }

    /// Compares `buf` (whole units starting at `unit`) against the
    /// ledger and returns how many units do not match exactly.
    pub fn verify(&self, unit: u64, buf: &[u8]) -> u64 {
        let mut want = [0u8; UNIT];
        let mut bad = 0;
        for (i, chunk) in buf.chunks_exact(UNIT).enumerate() {
            let u = unit + i as u64;
            stamp(
                self.seed,
                u,
                self.gens[u as usize].load(Ordering::Relaxed),
                &mut want,
            );
            if chunk != want {
                bad += 1;
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_a_corrupted_unit() {
        let ledger = Ledger::new(42, 8);
        let mut buf = vec![0u8; 8 * UNIT];
        for (u, chunk) in buf.chunks_exact_mut(UNIT).enumerate() {
            stamp(42, u as u64, 0, chunk);
        }
        assert_eq!(ledger.verify(0, &buf), 0);

        // A committed write must be read back at its new generation.
        let mut w = vec![0u8; 2 * UNIT];
        ledger.stamp_next(3, &mut w);
        assert_eq!(ledger.verify(0, &buf), 0, "uncommitted writes do not count");
        ledger.commit(3, 2);
        assert_eq!(ledger.verify(0, &buf), 2, "stale units 3 and 4");
        buf[3 * UNIT..5 * UNIT].copy_from_slice(&w);
        assert_eq!(ledger.verify(0, &buf), 0);
        assert_eq!(ledger.written_units(), 2);

        // One flipped bit anywhere in a unit is a mismatch.
        buf[6 * UNIT + 4000] ^= 0x10;
        assert_eq!(ledger.verify(0, &buf), 1);
        assert_eq!(ledger.verify(6, &buf[6 * UNIT..7 * UNIT]), 1);
        assert_eq!(ledger.verify(7, &buf[7 * UNIT..]), 0);
    }

    #[test]
    fn self_consistency_accepts_any_generation_but_not_foreign_data() {
        let mut buf = vec![0u8; UNIT];
        for gen in [0, 1, 77] {
            stamp(9, 5, gen, &mut buf);
            assert!(self_consistent(9, 5, &buf));
            assert!(!self_consistent(9, 6, &buf), "wrong unit");
            assert!(!self_consistent(10, 5, &buf), "wrong seed");
        }
        buf[16] ^= 1;
        assert!(!self_consistent(9, 5, &buf));
        assert!(!self_consistent(9, 5, &vec![0u8; UNIT]));
    }
}
