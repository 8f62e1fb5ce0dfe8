//! Mesh blocks: the unit of work and of placement.
//!
//! Every leaf octant carries one *mesh block* of `nx × ny × nz` cells —
//! the same cell count at every refinement level (§II-B), which is why
//! compute cost is not proportional to spatial area. Blocks are identified
//! by a dense [`BlockId`] assigned in SFC order.

use crate::geom::{Aabb, Dim};
use crate::octant::Octant;

/// Dense, SFC-ordered block identifier. `BlockId(i)` is the `i`-th leaf in
/// depth-first (Z-order) traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Static per-block parameters shared by all blocks of a mesh: cell counts,
/// ghost width, and number of physical field variables. These determine
/// boundary-exchange message sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Cells per axis inside a block (e.g. 16 for the paper's `16³` blocks).
    pub cells_per_axis: u32,
    /// Ghost-zone width in cells (typically 2 for second-order schemes).
    pub ghost_width: u32,
    /// Number of physical variables exchanged at boundaries (e.g. 5 for
    /// compressible hydro: density, 3×momentum, energy).
    pub num_vars: u32,
    /// Bytes per scalar value (8 for f64).
    pub bytes_per_value: u32,
}

impl Default for BlockSpec {
    fn default() -> Self {
        BlockSpec {
            cells_per_axis: 16,
            ghost_width: 2,
            num_vars: 5,
            bytes_per_value: 8,
        }
    }
}

impl BlockSpec {
    /// Total interior cells in a block.
    pub fn cells(&self, dim: Dim) -> u64 {
        (self.cells_per_axis as u64).pow(dim.rank() as u32)
    }

    /// Message payload in bytes for a boundary exchange across a shared
    /// surface of codimension `codim` (1 = face, 2 = edge, 3 = vertex).
    ///
    /// A face exchange ships `n^(d-1) * g` cells, an edge `n^(d-2) * g²`,
    /// a vertex `g³` — faces are proportionally larger (§VI-C: "face-neighbor
    /// exchanges are proportionally larger than edge or vertex ones").
    pub fn message_bytes(&self, dim: Dim, codim: u8) -> u64 {
        let n = self.cells_per_axis as u64;
        let g = self.ghost_width as u64;
        let d = dim.rank() as u32;
        debug_assert!(codim >= 1 && (codim as u32) <= d);
        let cells = n.pow(d - codim as u32) * g.pow(codim as u32);
        cells * self.num_vars as u64 * self.bytes_per_value as u64
    }
}

/// A mesh block: a leaf octant plus its dense ID and physical bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshBlock {
    pub id: BlockId,
    pub octant: Octant,
    pub bounds: Aabb,
}

impl MeshBlock {
    /// Refinement level of this block.
    #[inline]
    pub fn level(&self) -> u8 {
        self.octant.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_paper() {
        let s = BlockSpec::default();
        assert_eq!(s.cells_per_axis, 16);
        assert_eq!(s.cells(Dim::D3), 4096);
        assert_eq!(s.cells(Dim::D2), 256);
    }

    #[test]
    fn message_sizes_ordered_face_edge_vertex() {
        let s = BlockSpec::default();
        let face = s.message_bytes(Dim::D3, 1);
        let edge = s.message_bytes(Dim::D3, 2);
        let vert = s.message_bytes(Dim::D3, 3);
        assert!(face > edge && edge > vert);
        // face = 16^2 * 2 cells * 5 vars * 8 B = 20480 B
        assert_eq!(face, 16 * 16 * 2 * 5 * 8);
        assert_eq!(edge, 16 * 2 * 2 * 5 * 8);
        assert_eq!(vert, 2 * 2 * 2 * 5 * 8);
    }

    #[test]
    fn message_sizes_2d() {
        let s = BlockSpec::default();
        let face = s.message_bytes(Dim::D2, 1);
        let vert = s.message_bytes(Dim::D2, 2);
        assert_eq!(face, 16 * 2 * 5 * 8);
        assert_eq!(vert, 2 * 2 * 5 * 8);
    }

    #[test]
    fn block_id_display_and_order() {
        assert_eq!(BlockId(7).to_string(), "b7");
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(BlockId(3).index(), 3);
    }
}
