//! Morton (Z-order) encoding and decoding in two and three dimensions.
//!
//! A depth-first traversal of an octree whose children are visited in
//! canonical (z-major) order enumerates leaves in ascending Morton order of
//! their lower corners expressed at the finest level. This equivalence is
//! what lets AMR frameworks derive a Z-order space-filling curve "for free"
//! from the octree (§V-A of the paper); [`crate::sfc`] builds on it.
//!
//! Bit-interleaving uses the classic parallel-prefix magic-number spreads, so
//! encode/decode are O(1) with no loops — these sit on the hot path of
//! neighbor lookups and SFC sorts for meshes with hundreds of thousands of
//! blocks.

/// Spread the low 21 bits of `v` so that each bit occupies every 3rd position.
///
/// 21 bits * 3 = 63 bits, fitting a `u64`.
#[inline]
pub(crate) fn spread3(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x1f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`spread3`]: compact every 3rd bit into the low 21 bits.
#[inline]
fn compact3(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x1f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Spread the low 32 bits of `v` so that each bit occupies every 2nd position.
#[inline]
pub(crate) fn spread2(v: u64) -> u64 {
    let mut x = v & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread2`].
#[inline]
fn compact2(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0xffff_ffff;
    x
}

/// Interleave `(x, y, z)` into a 3D Morton code. Each coordinate may use up
/// to 21 bits.
#[inline]
pub fn morton_encode3(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << 21) && y < (1 << 21) && z < (1 << 21));
    spread3(x as u64) | (spread3(y as u64) << 1) | (spread3(z as u64) << 2)
}

/// Decode a 3D Morton code back to `(x, y, z)`.
#[inline]
pub fn morton_decode3(m: u64) -> (u32, u32, u32) {
    (
        compact3(m) as u32,
        compact3(m >> 1) as u32,
        compact3(m >> 2) as u32,
    )
}

/// Interleave `(x, y)` into a 2D Morton code. Each coordinate may use up to
/// 31 bits.
#[inline]
pub fn morton_encode2(x: u32, y: u32) -> u64 {
    spread2(x as u64) | (spread2(y as u64) << 1)
}

/// Decode a 2D Morton code back to `(x, y)`.
#[inline]
pub fn morton_decode2(m: u64) -> (u32, u32) {
    (compact2(m) as u32, compact2(m >> 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode3_first_octants() {
        // The 8 children of the root in canonical order.
        assert_eq!(morton_encode3(0, 0, 0), 0);
        assert_eq!(morton_encode3(1, 0, 0), 1);
        assert_eq!(morton_encode3(0, 1, 0), 2);
        assert_eq!(morton_encode3(1, 1, 0), 3);
        assert_eq!(morton_encode3(0, 0, 1), 4);
        assert_eq!(morton_encode3(1, 0, 1), 5);
        assert_eq!(morton_encode3(0, 1, 1), 6);
        assert_eq!(morton_encode3(1, 1, 1), 7);
    }

    #[test]
    fn encode2_first_quadrants() {
        assert_eq!(morton_encode2(0, 0), 0);
        assert_eq!(morton_encode2(1, 0), 1);
        assert_eq!(morton_encode2(0, 1), 2);
        assert_eq!(morton_encode2(1, 1), 3);
    }

    #[test]
    fn roundtrip3_exhaustive_small() {
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    let m = morton_encode3(x, y, z);
                    assert_eq!(morton_decode3(m), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn roundtrip3_large_coords() {
        let cases = [
            (0x1f_ffff, 0, 0),
            (0, 0x1f_ffff, 0),
            (0, 0, 0x1f_ffff),
            (0x1f_ffff, 0x1f_ffff, 0x1f_ffff),
            (123_456, 654_321, 999_999),
        ];
        for &(x, y, z) in &cases {
            assert_eq!(morton_decode3(morton_encode3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn roundtrip2_large_coords() {
        let cases = [(u32::MAX, 0), (0, u32::MAX), (0xdead_beef, 0x1234_5678)];
        for &(x, y) in &cases {
            assert_eq!(morton_decode2(morton_encode2(x, y)), (x, y));
        }
    }

    #[test]
    fn morton_is_monotone_in_each_axis_at_fixed_others() {
        // Morton codes are not globally monotone, but along a single axis with
        // the other coordinates fixed at zero they are.
        let mut prev = 0u64;
        for x in 1..1000u32 {
            let m = morton_encode3(x, 0, 0);
            assert!(m > prev);
            prev = m;
        }
    }
}
