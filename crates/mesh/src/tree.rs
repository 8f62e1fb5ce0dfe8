//! The refinement tree: a forest of octrees over a root grid, stored as its
//! leaf set.
//!
//! Block-based AMR partitions the domain into uniformly sized blocks at each
//! refinement level, managed with octrees (§II-A). We store only the *leaf*
//! octants (the mesh blocks) in a hash set; parent/child relations are pure
//! lattice arithmetic on [`Octant`]s, so no explicit node structure is
//! needed. The set hashes with a fixed-key multiply-fold (`OctantHasher`),
//! not std's SipHash: octants are lattice coordinates this process computes,
//! never keys an outside party chooses (DESIGN §8). A *root grid* of
//! `rx × ry × rz` level-0 octants supports non-cubic domains such as the
//! paper's `128² × 256` Sedov configurations (Table I) where each root is one
//! initial block.
//!
//! The tree enforces **2:1 balance**: any two leaves that touch (even only
//! at a corner) differ by at most one refinement level. Production AMR codes
//! enforce this to bound interpolation stencils; here it also guarantees
//! that neighbor lookups only need to examine one level up or down.

use crate::geom::Dim;
use crate::octant::{Direction, Octant, MAX_LEVEL};
use std::collections::{BTreeSet, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Leaves are normalized to this level when computing SFC keys; it bounds the
/// deepest refinement level the tree supports.
pub const NORM_LEVEL: u8 = 16;

/// Maximum root-grid extent per axis (keeps normalized coordinates within
/// the 21-bit-per-axis Morton budget: `32 * 2^16 = 2^21`).
pub const MAX_ROOTS_PER_AXIS: u32 = 32;

/// Where a lattice cell sits relative to the leaf set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// The cell itself is a leaf.
    Leaf,
    /// The cell is interior to a coarser leaf (returned).
    CoveredBy(Octant),
    /// The cell is subdivided: its descendants are leaves.
    Subdivided,
    /// The cell is outside the domain lattice.
    Outside,
}

/// Hasher of the leaf set: one rotate-xor-multiply per packed word of an
/// [`Octant`] (`level:x`, then `y:z`), with a fixed key. A `refine` makes up
/// to ~80 set lookups and SipHash was half of each, buying collision
/// resistance against adversarial keys — which octants are not: they are
/// lattice cells derived from in-process meshes, not outside input.
///
/// The multiply carries every input bit into the high bits of the state;
/// `finish` rotates those down, so hashbrown's bucket index (low bits) and
/// control byte (top 7 bits) each depend on all of `(level, x, y, z)`.
/// Nothing observable depends on the set's iteration order (`leaves_sorted`
/// sorts; under `RandomState` the order differed per process).
#[derive(Debug, Clone, Copy, Default)]
struct OctantHasher(u64);

impl Hasher for OctantHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// `Octant` hashes through `write_u64` alone; any other key folds a word
    /// at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type LeafSet = HashSet<Octant, BuildHasherDefault<OctantHasher>>;

/// A 2:1-balanced forest of octrees, stored as its leaf set.
#[derive(Debug, Clone)]
pub struct Octree {
    dim: Dim,
    roots: (u32, u32, u32),
    leaves: LeafSet,
    periodic: bool,
}

impl Octree {
    /// Create a forest whose leaves are exactly the root grid (every root a
    /// level-0 leaf). This matches the paper's initial condition of one
    /// (unrefined) block per root.
    pub fn uniform_roots(dim: Dim, roots: (u32, u32, u32)) -> Self {
        let rz = match dim {
            Dim::D2 => 1,
            Dim::D3 => roots.2,
        };
        assert!(
            roots.0 >= 1
                && roots.1 >= 1
                && rz >= 1
                && roots.0 <= MAX_ROOTS_PER_AXIS
                && roots.1 <= MAX_ROOTS_PER_AXIS
                && rz <= MAX_ROOTS_PER_AXIS,
            "root grid {roots:?} out of supported range"
        );
        let mut leaves = LeafSet::with_capacity_and_hasher(
            (roots.0 * roots.1 * rz) as usize,
            Default::default(),
        );
        for z in 0..rz {
            for y in 0..roots.1 {
                for x in 0..roots.0 {
                    leaves.insert(Octant::new(0, x, y, z));
                }
            }
        }
        Octree {
            dim,
            roots: (roots.0, roots.1, rz),
            leaves,
            periodic: false,
        }
    }

    /// Like [`Octree::uniform_roots`], but with periodic domain boundaries:
    /// blocks on opposite faces are neighbors (turbulence-box topology).
    pub fn uniform_roots_periodic(dim: Dim, roots: (u32, u32, u32)) -> Self {
        let mut t = Octree::uniform_roots(dim, roots);
        t.periodic = true;
        t
    }

    /// Rebuild a tree from an explicit leaf set (e.g. a checkpoint),
    /// validating tiling and 2:1 balance.
    pub fn from_leaves(
        dim: Dim,
        roots: (u32, u32, u32),
        leaves: Vec<Octant>,
    ) -> Result<Octree, String> {
        let rz = match dim {
            Dim::D2 => 1,
            Dim::D3 => roots.2,
        };
        if roots.0 < 1
            || roots.1 < 1
            || rz < 1
            || roots.0 > MAX_ROOTS_PER_AXIS
            || roots.1 > MAX_ROOTS_PER_AXIS
            || rz > MAX_ROOTS_PER_AXIS
        {
            return Err(format!("root grid {roots:?} out of supported range"));
        }
        let n = leaves.len();
        let tree = Octree {
            dim,
            roots: (roots.0, roots.1, rz),
            leaves: leaves.into_iter().collect(),
            periodic: false,
        };
        if tree.leaves.len() != n {
            return Err("duplicate leaves in checkpoint".into());
        }
        for leaf in &tree.leaves {
            if leaf.level > NORM_LEVEL || !tree.in_lattice(leaf) {
                return Err(format!("leaf {leaf:?} outside lattice"));
            }
        }
        tree.check_invariants()?;
        Ok(tree)
    }

    /// Single-root tree uniformly refined to `level`.
    pub fn uniform(dim: Dim, level: u8) -> Self {
        let mut t = Octree::uniform_roots(dim, (1, 1, 1));
        for _ in 0..level {
            for leaf in t.leaves_sorted() {
                t.refine(&leaf);
            }
        }
        t
    }

    /// Dimensionality of the mesh.
    #[inline]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The root grid extents.
    #[inline]
    pub fn roots(&self) -> (u32, u32, u32) {
        self.roots
    }

    /// Are the domain boundaries periodic?
    #[inline]
    pub fn periodic(&self) -> bool {
        self.periodic
    }

    /// Mark the domain boundaries periodic (or not). Affects neighbor
    /// lookups, 2:1 balance and the neighbor graph.
    pub fn set_periodic(&mut self, periodic: bool) {
        self.periodic = periodic;
    }

    /// Same-level lattice neighbor under this tree's boundary semantics:
    /// `None` only at non-periodic domain faces.
    pub fn lattice_neighbor(&self, o: &Octant, dir: Direction) -> Option<Octant> {
        if self.periodic {
            Some(o.neighbor_periodic(dir, self.roots, self.dim))
        } else {
            o.neighbor(dir, self.roots, self.dim)
        }
    }

    /// Number of leaves (mesh blocks).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Is this octant currently a leaf?
    #[inline]
    pub fn is_leaf(&self, o: &Octant) -> bool {
        self.leaves.contains(o)
    }

    /// Iterate over leaves in arbitrary order.
    pub fn leaves(&self) -> impl Iterator<Item = &Octant> {
        self.leaves.iter()
    }

    /// Leaves sorted by SFC key (depth-first / Z-order traversal order).
    pub fn leaves_sorted(&self) -> Vec<Octant> {
        let mut v: Vec<Octant> = self.leaves.iter().copied().collect();
        v.sort_by_key(|o| crate::sfc::sfc_key(o, self.dim));
        v
    }

    /// Classify a lattice cell relative to the leaf set.
    pub fn coverage(&self, cell: &Octant) -> Coverage {
        if !self.in_lattice(cell) {
            return Coverage::Outside;
        }
        if self.leaves.contains(cell) {
            return Coverage::Leaf;
        }
        let mut cur = *cell;
        while let Some(p) = cur.parent() {
            if self.leaves.contains(&p) {
                return Coverage::CoveredBy(p);
            }
            cur = p;
        }
        Coverage::Subdivided
    }

    /// Is the cell's coordinate within the lattice at its level?
    fn in_lattice(&self, cell: &Octant) -> bool {
        let n = 1u64 << cell.level;
        let within =
            (cell.x as u64) < self.roots.0 as u64 * n && (cell.y as u64) < self.roots.1 as u64 * n;
        match self.dim {
            Dim::D2 => within && cell.z == 0,
            Dim::D3 => within && (cell.z as u64) < self.roots.2 as u64 * n,
        }
    }

    /// All leaves that are descendants of `cell` (or `cell` itself if it is a
    /// leaf). Empty if the cell is outside or covered by a coarser leaf.
    pub fn leaves_within(&self, cell: &Octant) -> Vec<Octant> {
        let mut out = Vec::new();
        self.collect_leaves_within(cell, &mut out);
        out
    }

    /// Append the leaves within `cell` to `out` in SFC (children-recursive
    /// Morton) order — the allocation-reusing core of
    /// [`Octree::leaves_within`], also used by the incremental block-index
    /// splice.
    pub(crate) fn collect_leaves_within(&self, cell: &Octant, out: &mut Vec<Octant>) {
        match self.coverage(cell) {
            Coverage::Leaf => out.push(*cell),
            Coverage::Subdivided => {
                for c in cell.children(self.dim) {
                    self.collect_leaves_within(&c, out);
                }
            }
            Coverage::CoveredBy(_) | Coverage::Outside => {}
        }
    }

    /// Refine a leaf into its `2^d` children, recursively refining coarser
    /// neighbors first to maintain 2:1 balance ("ripple" refinement).
    ///
    /// Returns the number of leaves refined (≥ 1), or 0 if `o` was not a leaf.
    pub fn refine(&mut self, o: &Octant) -> usize {
        if !self.leaves.contains(o) {
            return 0;
        }
        assert!(
            o.level < NORM_LEVEL,
            "refinement beyond NORM_LEVEL={NORM_LEVEL} unsupported"
        );
        let mut refined = 0;
        // Balance first: any neighbor covered by a coarser leaf must be
        // refined before `o`'s children (level o.level+1) appear.
        for &dir in Direction::all(self.dim) {
            if let Some(nb) = self.lattice_neighbor(o, dir) {
                if let Coverage::CoveredBy(coarse) = self.coverage(&nb) {
                    // 2:1 balance guarantees coarse.level == o.level - 1.
                    refined += self.refine(&coarse);
                }
            }
        }
        self.leaves.remove(o);
        for c in o.children(self.dim) {
            self.leaves.insert(c);
        }
        refined + 1
    }

    /// Can the `2^d` children of `parent` be merged back into `parent`
    /// without violating 2:1 balance?
    ///
    /// Requires all children to currently be leaves, and every leaf adjacent
    /// to `parent` to be at level ≤ `parent.level + 1`.
    pub fn can_coarsen(&self, parent: &Octant) -> bool {
        if parent.level >= MAX_LEVEL || !self.in_lattice(parent) {
            return false;
        }
        let children = parent.children(self.dim);
        if !children.iter().all(|c| self.leaves.contains(c)) {
            return false;
        }
        // After merging, `parent` is a level-l leaf; any adjacent leaf at
        // level > l+1 would break balance. Adjacent leaves are descendants of
        // the same-level neighbors of `parent`, restricted to the touching
        // boundary; checking all descendants of all 26 neighbors is a safe
        // superset only for those actually touching parent, so restrict to
        // leaves within neighbor cells that touch parent (all of them do, by
        // construction of the lattice neighbor).
        for &dir in Direction::all(self.dim) {
            if let Some(nb) = self.lattice_neighbor(parent, dir) {
                for leaf in self.touching_leaves_in(&nb, dir) {
                    if leaf.level > parent.level + 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Leaves inside cell `nb` that touch the face/edge/corner shared with
    /// the cell `nb.opposite(dir)` (i.e. the cell we came from).
    fn touching_leaves_in(&self, nb: &Octant, dir: Direction) -> Vec<Octant> {
        let mut out = Vec::new();
        self.collect_touching(nb, dir, &mut out);
        out
    }

    fn collect_touching(&self, cell: &Octant, dir: Direction, out: &mut Vec<Octant>) {
        match self.coverage(cell) {
            Coverage::Leaf => out.push(*cell),
            Coverage::CoveredBy(c) => out.push(c),
            Coverage::Subdivided => {
                for child in cell.children(self.dim) {
                    // The child touches the shared boundary iff, along each
                    // axis where dir is nonzero, it is on the near side.
                    let near_x = dir.dx == 0 || (dir.dx > 0) == (child.x & 1 == 0);
                    let near_y = dir.dy == 0 || (dir.dy > 0) == (child.y & 1 == 0);
                    let near_z = dir.dz == 0 || (dir.dz > 0) == (child.z & 1 == 0);
                    if near_x && near_y && near_z {
                        self.collect_touching(&child, dir, out);
                    }
                }
            }
            Coverage::Outside => {}
        }
    }

    /// Merge the children of `parent` back into `parent`. Returns `true` on
    /// success, `false` if [`Self::can_coarsen`] fails.
    pub fn coarsen(&mut self, parent: &Octant) -> bool {
        if !self.can_coarsen(parent) {
            return false;
        }
        for c in parent.children(self.dim) {
            self.leaves.remove(&c);
        }
        self.leaves.insert(*parent);
        true
    }

    /// Verify the structural invariants:
    /// 1. leaves tile the domain exactly (no gaps, no overlaps), and
    /// 2. 2:1 balance holds between all touching leaves.
    ///
    /// Intended for tests and debug assertions; O(n · 26 · depth).
    pub fn check_invariants(&self) -> Result<(), String> {
        // Tiling: total normalized volume must equal the domain volume.
        let norm = |o: &Octant| 1u128 << ((NORM_LEVEL - o.level) as u128 * self.dim.rank() as u128);
        let total: u128 = self.leaves.iter().map(norm).sum();
        let rz = match self.dim {
            Dim::D2 => 1u128,
            Dim::D3 => self.roots.2 as u128,
        };
        let domain_vol = self.roots.0 as u128
            * self.roots.1 as u128
            * rz
            * (1u128 << (NORM_LEVEL as u128 * self.dim.rank() as u128));
        if total != domain_vol {
            return Err(format!(
                "leaves do not tile domain: covered {total} of {domain_vol}"
            ));
        }
        // No leaf is an ancestor of another (overlap check).
        let sorted: BTreeSet<Octant> = self.leaves.iter().copied().collect();
        for leaf in &sorted {
            let mut cur = *leaf;
            while let Some(p) = cur.parent() {
                if self.leaves.contains(&p) {
                    return Err(format!("leaf {leaf:?} nested inside leaf {p:?}"));
                }
                cur = p;
            }
        }
        // 2:1 balance.
        for leaf in &self.leaves {
            for &dir in Direction::all(self.dim) {
                if let Some(nb) = self.lattice_neighbor(leaf, dir) {
                    match self.coverage(&nb) {
                        Coverage::CoveredBy(c) => {
                            if leaf.level > c.level + 1 {
                                return Err(format!("balance violation: {leaf:?} touches {c:?}"));
                            }
                        }
                        Coverage::Subdivided => {
                            for fine in self.touching_leaves_in(&nb, dir) {
                                if fine.level > leaf.level + 1 {
                                    return Err(format!(
                                        "balance violation: {leaf:?} touches {fine:?}"
                                    ));
                                }
                            }
                        }
                        Coverage::Leaf | Coverage::Outside => {}
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_roots_counts() {
        let t = Octree::uniform_roots(Dim::D3, (8, 8, 8));
        assert_eq!(t.num_leaves(), 512);
        t.check_invariants().unwrap();
        let t2 = Octree::uniform_roots(Dim::D2, (4, 4, 0));
        assert_eq!(t2.num_leaves(), 16);
        t2.check_invariants().unwrap();
    }

    #[test]
    fn uniform_level_counts() {
        let t = Octree::uniform(Dim::D3, 2);
        assert_eq!(t.num_leaves(), 64);
        let t = Octree::uniform(Dim::D2, 3);
        assert_eq!(t.num_leaves(), 64);
        t.check_invariants().unwrap();
    }

    #[test]
    fn refine_replaces_leaf_with_children() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let leaf = Octant::new(0, 0, 0, 0);
        assert_eq!(t.refine(&leaf), 1);
        assert_eq!(t.num_leaves(), 8 - 1 + 8);
        assert!(!t.is_leaf(&leaf));
        t.check_invariants().unwrap();
    }

    #[test]
    fn refine_non_leaf_is_noop() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        assert_eq!(t.refine(&Octant::new(3, 0, 0, 0)), 0);
        assert_eq!(t.num_leaves(), 8);
    }

    #[test]
    fn ripple_refinement_maintains_balance() {
        let mut t = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        // Descend into the corner of root (1,1,1) that touches the 7 other
        // roots around the interior vertex (0.25, 0.25, 0.25): every step
        // must ripple-refine the coarser neighbors.
        let mut target = Octant::new(0, 1, 1, 1);
        for _ in 0..4 {
            t.refine(&target);
            target = target.children(Dim::D3)[0];
            t.check_invariants().unwrap();
        }
        // Deep refinement forces neighbors to refine as well: strictly more
        // leaves than the 4 isolated (no-ripple) refinements would give.
        assert!(t.num_leaves() > 64 + 4 * 7, "leaves = {}", t.num_leaves());
    }

    #[test]
    fn coarsen_roundtrip() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let leaf = Octant::new(0, 1, 1, 1);
        t.refine(&leaf);
        assert!(t.can_coarsen(&leaf));
        assert!(t.coarsen(&leaf));
        assert_eq!(t.num_leaves(), 8);
        t.check_invariants().unwrap();
    }

    #[test]
    fn coarsen_rejected_when_balance_would_break() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let a = Octant::new(0, 0, 0, 0);
        t.refine(&a);
        // Refine the child adjacent to (1,0,0) root to level 2.
        let fine = Octant::new(1, 1, 0, 0);
        assert!(t.is_leaf(&fine));
        t.refine(&fine);
        t.check_invariants().unwrap();
        // Root (1,0,0) cannot exist as a level-0 leaf next to level-2 leaves,
        // so its children (if refined) could not be merged back; here check
        // that merging `a`'s children is rejected while level-2 leaves touch a.
        assert!(!t.can_coarsen(&a));
    }

    #[test]
    fn coverage_classification() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        let root = Octant::new(0, 0, 0, 0);
        assert_eq!(t.coverage(&root), Coverage::Leaf);
        let child = root.children(Dim::D3)[3];
        assert_eq!(t.coverage(&child), Coverage::CoveredBy(root));
        t.refine(&root);
        assert_eq!(t.coverage(&root), Coverage::Subdivided);
        assert_eq!(t.coverage(&child), Coverage::Leaf);
        assert_eq!(t.coverage(&Octant::new(0, 5, 0, 0)), Coverage::Outside);
    }

    #[test]
    fn leaves_within_collects_descendants() {
        let mut t = Octree::uniform_roots(Dim::D3, (1, 1, 1));
        let root = Octant::new(0, 0, 0, 0);
        t.refine(&root);
        let c0 = root.children(Dim::D3)[0];
        t.refine(&c0);
        let within = t.leaves_within(&root);
        assert_eq!(within.len(), 7 + 8);
        assert_eq!(t.leaves_within(&c0).len(), 8);
    }

    /// Every octant of the largest root grid at levels 0–2 (2.4 M octants;
    /// the benchmark's shapes live there) hashes to its own 64-bit value, and
    /// the two bit ranges hashbrown reads — the low bits (bucket index) and
    /// the top 7 (control byte) — each fill within 2× of uniform.
    #[test]
    fn octant_hash_is_injective_and_spreads_over_the_bits_hashbrown_reads() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<OctantHasher>::default();
        let mut hashes = Vec::new();
        let mut low = vec![0u32; 1 << 12];
        let mut top = vec![0u32; 1 << 7];
        for level in 0..=2u8 {
            let extent = MAX_ROOTS_PER_AXIS << level;
            for z in 0..extent {
                for y in 0..extent {
                    for x in 0..extent {
                        let h = build.hash_one(Octant::new(level, x, y, z));
                        low[(h & 0xFFF) as usize] += 1;
                        top[(h >> 57) as usize] += 1;
                        hashes.push(h);
                    }
                }
            }
        }
        let n = hashes.len();
        assert_eq!(n, 32 * 32 * 32 * (1 + 8 + 64));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "two octants share a hash");
        for (name, bins) in [("low 12 bits", &low), ("top 7 bits", &top)] {
            let uniform = n as f64 / bins.len() as f64;
            let (min, max) = (*bins.iter().min().unwrap(), *bins.iter().max().unwrap());
            assert!(
                min as f64 >= uniform / 2.0 && max as f64 <= uniform * 2.0,
                "{name}: bins hold {min}..={max} against a uniform {uniform:.0}"
            );
        }
    }

    #[test]
    fn leaves_sorted_is_deterministic_and_complete() {
        let mut t = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        t.refine(&Octant::new(0, 1, 0, 1));
        let a = t.leaves_sorted();
        let b = t.leaves_sorted();
        assert_eq!(a, b);
        assert_eq!(a.len(), t.num_leaves());
    }
}
