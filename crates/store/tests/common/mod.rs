//! Helpers shared by the store's integration tests.

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
