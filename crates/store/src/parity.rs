//! Parity kernels: wide XOR for P and GF(256) Reed–Solomon for Q.
//!
//! Every parity computation in the store — read-modify-write deltas,
//! degraded reconstruction, rebuild, resync, full-stripe parity — runs
//! through this module, so optimizing (or fixing) a kernel happens in
//! exactly one place. The XOR paths operate on eight-byte lanes, four
//! lanes per step (32 bytes), which LLVM turns into SIMD on every
//! target we build for; the scalar tail handles lengths that are not a
//! multiple of 32. The unit tests pin both kernels to a byte-at-a-time
//! reference at every tail length; `parity.xor_into_gbps` and
//! `parity.xor_delta_gbps` in the benchmark's traced run measure them.
//!
//! The GF(256) half implements the RAID-6 field (polynomial `0x11D`,
//! generator 2): `Q = Σ gᶦ·dᵢ` over the data units, with delta updates
//! (`Q ^= gᵃ·Δ`) and the closed-form two-erasure solve. Multiplication
//! by a fixed coefficient goes through a per-call 256-entry product
//! table, amortized across unit-sized buffers.

/// Bytes processed per wide step: four u64 lanes.
const WIDE: usize = 32;

#[inline]
fn lane(bytes: &[u8]) -> u64 {
    u64::from_ne_bytes(bytes.try_into().expect("lane is 8 bytes"))
}

/// `acc[i] ^= src[i]` over the whole slice.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "xor_into length mismatch");
    let split = acc.len() - acc.len() % WIDE;
    let (acc_wide, acc_tail) = acc.split_at_mut(split);
    let (src_wide, src_tail) = src.split_at(split);
    for (a, s) in acc_wide
        .chunks_exact_mut(WIDE)
        .zip(src_wide.chunks_exact(WIDE))
    {
        for k in 0..WIDE / 8 {
            let v = lane(&a[k * 8..k * 8 + 8]) ^ lane(&s[k * 8..k * 8 + 8]);
            a[k * 8..k * 8 + 8].copy_from_slice(&v.to_ne_bytes());
        }
    }
    for (a, s) in acc_tail.iter_mut().zip(src_tail) {
        *a ^= s;
    }
}

/// `acc[i] ^= old[i] ^ new[i]` over the whole slice — the
/// read-modify-write parity delta, fused so the old and new images are
/// each read once.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_delta(acc: &mut [u8], old: &[u8], new: &[u8]) {
    assert_eq!(acc.len(), old.len(), "xor_delta length mismatch (old)");
    assert_eq!(acc.len(), new.len(), "xor_delta length mismatch (new)");
    let split = acc.len() - acc.len() % WIDE;
    let (acc_wide, acc_tail) = acc.split_at_mut(split);
    let (old_wide, old_tail) = old.split_at(split);
    let (new_wide, new_tail) = new.split_at(split);
    for ((a, o), n) in acc_wide
        .chunks_exact_mut(WIDE)
        .zip(old_wide.chunks_exact(WIDE))
        .zip(new_wide.chunks_exact(WIDE))
    {
        for k in 0..WIDE / 8 {
            let at = k * 8..k * 8 + 8;
            let v = lane(&a[at.clone()]) ^ lane(&o[at.clone()]) ^ lane(&n[at.clone()]);
            a[at].copy_from_slice(&v.to_ne_bytes());
        }
    }
    for ((a, o), n) in acc_tail.iter_mut().zip(old_tail).zip(new_tail) {
        *a ^= o ^ n;
    }
}

/// The RAID-6 field polynomial: x⁸ + x⁴ + x³ + x² + 1.
const GF_POLY: u16 = 0x11D;

/// Log/antilog tables for GF(256) under generator 2, built at compile
/// time. `EXP` is doubled so products of logs index without a mod.
const GF_TABLES: ([u8; 512], [u8; 256]) = {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    (exp, log)
};

/// `gᶦ` for generator 2 — the Q coefficient of data index `i`.
#[inline]
pub fn gf_pow2(i: u16) -> u8 {
    GF_TABLES.0[(i % 255) as usize]
}

/// GF(256) product.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    GF_TABLES.0[GF_TABLES.1[a as usize] as usize + GF_TABLES.1[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on zero, which has no inverse.
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(256)");
    GF_TABLES.0[255 - GF_TABLES.1[a as usize] as usize]
}

/// A 256-entry product table for one coefficient, hoisting the log
/// lookups out of per-byte loops.
fn mul_table(coeff: u8) -> [u8; 256] {
    let mut t = [0u8; 256];
    if coeff == 0 {
        return t;
    }
    let lc = GF_TABLES.1[coeff as usize] as usize;
    let mut b = 1usize;
    while b < 256 {
        t[b] = GF_TABLES.0[lc + GF_TABLES.1[b] as usize];
        b += 1;
    }
    t
}

/// `acc[i] ^= coeff·src[i]` in GF(256) — the Q accumulation and delta
/// kernel (`coeff = gᵃ` folds data unit `a` into Q).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf_mul_into(acc: &mut [u8], src: &[u8], coeff: u8) {
    assert_eq!(acc.len(), src.len(), "gf_mul_into length mismatch");
    if coeff == 1 {
        return xor_into(acc, src);
    }
    let table = mul_table(coeff);
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= table[s as usize];
    }
}

/// Adds data unit `index`'s share of parity `j` to `acc`: P (`j = 0`)
/// is the plain XOR of the data units, Q (`j = 1`) their GF(256) sum
/// weighted by `gᶦ`. The one place that knows which unit gets which
/// coefficient; every stripe routine of the store folds through it.
pub fn fold_into(acc: &mut [u8], j: u16, index: u16, unit: &[u8]) {
    if j == 0 {
        xor_into(acc, unit);
    } else {
        gf_mul_into(acc, unit, gf_pow2(index));
    }
}

/// `buf[i] = coeff·buf[i]` in GF(256).
pub fn gf_scale(buf: &mut [u8], coeff: u8) {
    if coeff == 1 {
        return;
    }
    let table = mul_table(coeff);
    for b in buf.iter_mut() {
        *b = table[*b as usize];
    }
}

/// Solves the RAID-6 two-data-erasure case for data indices `a < b`.
///
/// On entry `p` must hold `P ^ Σ dᵢ` and `q` must hold `Q ^ Σ gᶦ·dᵢ`,
/// both sums over the *surviving* data units only. On return `q` holds
/// the recovered unit `a` and `p` holds the recovered unit `b`.
///
/// # Panics
///
/// Panics if `a >= b` or the slices differ in length.
pub fn gf_solve_two_data(a: u16, b: u16, p: &mut [u8], q: &mut [u8]) {
    assert!(a < b, "erased data indices must be ordered: {a} >= {b}");
    assert_eq!(p.len(), q.len(), "gf_solve_two_data length mismatch");
    // d_a = (g^{b−a}·Pxor ^ g^{−a}·Qxor) / (g^{b−a} ^ 1); d_b = Pxor ^ d_a.
    let g_ba = gf_pow2(b - a);
    let g_na = gf_inv(gf_pow2(a));
    let denom = gf_inv(g_ba ^ 1);
    let ta = mul_table(gf_mul(g_ba, denom));
    let tb = mul_table(gf_mul(g_na, denom));
    for (pb, qb) in p.iter_mut().zip(q.iter_mut()) {
        let da = ta[*pb as usize] ^ tb[*qb as usize];
        *qb = da;
        *pb ^= da;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Lengths around every lane and step boundary, plus unit-sized and
    /// larger buffers.
    const LENGTHS: [usize; 15] = [
        0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 511, 512, 4096, 4097, 65536,
    ];

    #[test]
    fn xor_into_matches_byte_reference_at_every_alignment() {
        for len in LENGTHS {
            let src = pattern(3 + len as u64, len);
            let mut wide = pattern(17 + len as u64, len);
            let mut scalar = wide.clone();
            xor_into(&mut wide, &src);
            for (a, s) in scalar.iter_mut().zip(&src) {
                *a ^= s;
            }
            assert_eq!(wide, scalar, "len {len}");
        }
    }

    #[test]
    fn xor_delta_matches_byte_reference_at_every_alignment() {
        for len in LENGTHS {
            let old = pattern(5 + len as u64, len);
            let new = pattern(11 + len as u64, len);
            let mut wide = pattern(23 + len as u64, len);
            let mut scalar = wide.clone();
            xor_delta(&mut wide, &old, &new);
            for i in 0..len {
                scalar[i] ^= old[i] ^ new[i];
            }
            assert_eq!(wide, scalar, "len {len}");
        }
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = pattern(1, 4096);
        let mut acc = pattern(2, 4096);
        let orig = acc.clone();
        xor_into(&mut acc, &a);
        xor_into(&mut acc, &a);
        assert_eq!(acc, orig);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        xor_into(&mut [0u8; 4], &[0u8; 5]);
    }

    /// Bit-serial reference multiplication (Russian peasant).
    fn gf_mul_ref(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let high = a & 0x80 != 0;
            a <<= 1;
            if high {
                a ^= (GF_POLY & 0xFF) as u8;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn gf_mul_matches_bit_serial_reference() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_ref(a, b), "{a}·{b}");
            }
        }
    }

    #[test]
    fn gf_inverse_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn gf_pow2_is_generator_powers() {
        assert_eq!(gf_pow2(0), 1);
        assert_eq!(gf_pow2(1), 2);
        let mut x = 1u8;
        for i in 0..255u16 {
            assert_eq!(gf_pow2(i), x, "i={i}");
            x = gf_mul_ref(x, 2);
        }
        // Exponents wrap at the group order.
        assert_eq!(gf_pow2(255), 1);
    }

    #[test]
    fn gf_mul_into_accumulates_scaled_source() {
        let src = pattern(7, 1000);
        for coeff in [0u8, 1, 2, 3, 0x80, 0xFF] {
            let mut acc = pattern(13, 1000);
            let expect: Vec<u8> = acc
                .iter()
                .zip(&src)
                .map(|(&a, &s)| a ^ gf_mul_ref(coeff, s))
                .collect();
            gf_mul_into(&mut acc, &src, coeff);
            assert_eq!(acc, expect, "coeff={coeff}");
        }
    }

    #[test]
    fn two_erasure_solve_recovers_any_data_pair() {
        // A 6-data-unit stripe: P and Q computed, every (a, b) pair of
        // data units erased and recovered exactly.
        let units: Vec<Vec<u8>> = (0..6).map(|i| pattern(100 + i, 512)).collect();
        let mut p = vec![0u8; 512];
        let mut q = vec![0u8; 512];
        for (i, u) in units.iter().enumerate() {
            xor_into(&mut p, u);
            gf_mul_into(&mut q, u, gf_pow2(i as u16));
        }
        for a in 0..6u16 {
            for b in a + 1..6 {
                let mut pxor = p.clone();
                let mut qxor = q.clone();
                for (i, u) in units.iter().enumerate() {
                    if i as u16 != a && i as u16 != b {
                        xor_into(&mut pxor, u);
                        gf_mul_into(&mut qxor, u, gf_pow2(i as u16));
                    }
                }
                gf_solve_two_data(a, b, &mut pxor, &mut qxor);
                assert_eq!(qxor, units[a as usize], "d{a} from erasure ({a},{b})");
                assert_eq!(pxor, units[b as usize], "d{b} from erasure ({a},{b})");
            }
        }
    }

    #[test]
    fn q_delta_update_equals_recompute() {
        // RMW on unit 3: Q ^= g³·(old ^ new) must equal recomputing Q.
        let mut units: Vec<Vec<u8>> = (0..5).map(|i| pattern(200 + i, 256)).collect();
        let mut q = vec![0u8; 256];
        for (i, u) in units.iter().enumerate() {
            gf_mul_into(&mut q, u, gf_pow2(i as u16));
        }
        let newdata = pattern(999, 256);
        let mut delta = units[3].clone();
        xor_into(&mut delta, &newdata);
        gf_mul_into(&mut q, &delta, gf_pow2(3));
        units[3] = newdata;
        let mut fresh = vec![0u8; 256];
        for (i, u) in units.iter().enumerate() {
            gf_mul_into(&mut fresh, u, gf_pow2(i as u16));
        }
        assert_eq!(q, fresh);
    }

    #[test]
    fn fold_into_is_the_p_and_q_definition() {
        // P = ⊕ dᵢ and Q = ⊕ gᶦ·dᵢ, byte by byte, with the bit-serial
        // multiply as the reference.
        let units: Vec<Vec<u8>> = (0..6).map(|i| pattern(40 + i, 97)).collect();
        for j in 0..2u16 {
            let mut acc = vec![0u8; 97];
            let mut expect = vec![0u8; 97];
            for (i, u) in units.iter().enumerate() {
                fold_into(&mut acc, j, i as u16, u);
                let coeff = if j == 0 { 1 } else { gf_pow2(i as u16) };
                for (e, &b) in expect.iter_mut().zip(u) {
                    *e ^= gf_mul_ref(coeff, b);
                }
            }
            assert_eq!(acc, expect, "parity {j}");
        }
    }
}
