//! Space-filling-curve ordering of octants.
//!
//! Block IDs in block-based AMR codes are assigned by a depth-first traversal
//! of the octree (Fig. 5 of the paper). For leaves of a 2:1-balanced forest,
//! that traversal order equals ascending Morton order of each leaf's lower
//! corner normalized to the finest representable level: a leaf at level `l`
//! occupies the key range of all its potential descendants, and a DFS visits
//! it exactly where that range begins.

use crate::geom::Dim;
use crate::morton::{morton_encode2, morton_encode3, spread2, spread3};
use crate::octant::Octant;
use crate::tree::NORM_LEVEL;

/// Z-order key of an octant: the Morton code of its lower corner expressed on
/// the level-[`NORM_LEVEL`] lattice. Sorting leaves by this key yields the
/// depth-first (SFC) traversal order used for block-ID assignment.
#[inline]
pub fn sfc_key(o: &Octant, dim: Dim) -> u64 {
    debug_assert!(o.level <= NORM_LEVEL);
    let shift = (NORM_LEVEL - o.level) as u32;
    match dim {
        Dim::D2 => morton_encode2(o.x << shift, o.y << shift),
        Dim::D3 => morton_encode3(o.x << shift, o.y << shift, o.z << shift),
    }
}

/// The share of an [`sfc_key`] that one coordinate contributes: `coord` on
/// the level-`level` lattice of axis `axis` (0 = x), dilated and shifted into
/// its interleave slot. A key is the OR of its axes' parts, so a caller that
/// varies one coordinate at a time (the neighbor probe) dilates each
/// candidate once instead of re-encoding all three per cell.
#[inline]
pub(crate) fn sfc_key_part(coord: u32, level: u8, axis: usize, dim: Dim) -> u64 {
    debug_assert!(level <= NORM_LEVEL && axis < dim.rank());
    let v = (coord as u64) << (NORM_LEVEL - level);
    let dilated = match dim {
        Dim::D2 => spread2(v),
        Dim::D3 => spread3(v),
    };
    dilated << axis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Octree;

    #[test]
    fn children_sort_after_parent_position() {
        // A refined leaf's children occupy exactly the parent's slot in the
        // ordering: first child has the parent's key.
        let dim = Dim::D3;
        let parent = Octant::new(2, 1, 2, 3);
        let children = parent.children(dim);
        assert_eq!(sfc_key(&parent, dim), sfc_key(&children[0], dim));
        for w in children.windows(2) {
            assert!(sfc_key(&w[0], dim) < sfc_key(&w[1], dim));
        }
    }

    #[test]
    fn keys_unique_across_mixed_levels() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        t.refine(&Octant::new(0, 0, 0, 0));
        t.refine(&Octant::new(1, 0, 0, 0));
        let leaves = t.leaves_sorted();
        let mut keys: Vec<u64> = leaves.iter().map(|o| sfc_key(o, Dim::D3)).collect();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate SFC keys among leaves");
    }

    #[test]
    fn sfc_order_matches_dfs_order() {
        // Build a small refined tree and compare the sorted-key order with an
        // explicit depth-first traversal.
        let dim = Dim::D2;
        let mut t = Octree::uniform_roots(dim, (1, 1, 0));
        let root = Octant::new(0, 0, 0, 0);
        t.refine(&root);
        let c = root.children(dim)[2];
        t.refine(&c);

        fn dfs(t: &Octree, o: &Octant, out: &mut Vec<Octant>) {
            if t.is_leaf(o) {
                out.push(*o);
            } else {
                for ch in o.children(t.dim()) {
                    dfs(t, &ch, out);
                }
            }
        }
        let mut dfs_order = Vec::new();
        dfs(&t, &root, &mut dfs_order);
        assert_eq!(t.leaves_sorted(), dfs_order);
    }
}
