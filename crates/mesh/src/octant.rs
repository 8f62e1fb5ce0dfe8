//! Octants: the nodes of the refinement tree.
//!
//! An octant is identified by its refinement `level` and its integer
//! coordinates on the level-`level` lattice: at level `l` the domain is tiled
//! by `2^l` octants per axis (for a single-root tree; multi-root forests
//! scale these by the root grid, see [`crate::tree`]).

use crate::geom::{Aabb, Dim, Point};
use std::hash::{Hash, Hasher};

/// Maximum refinement level supported. 20 levels × up to 2 root bits keeps
/// normalized coordinates within Morton's 21-bit-per-axis budget.
pub const MAX_LEVEL: u8 = 20;

/// A direction towards a neighboring octant: each component is -1, 0 or +1,
/// not all zero. In 3D there are 26 such directions (6 faces, 12 edges,
/// 8 vertices); in 2D, 8 (4 faces a.k.a. edges-of-squares, 4 vertices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Direction {
    pub dx: i8,
    pub dy: i8,
    pub dz: i8,
}

impl Direction {
    /// Construct a direction; panics in debug builds if all components are 0
    /// or any is outside {-1, 0, 1}.
    #[inline]
    pub fn new(dx: i8, dy: i8, dz: i8) -> Self {
        debug_assert!(dx.abs() <= 1 && dy.abs() <= 1 && dz.abs() <= 1);
        debug_assert!(dx != 0 || dy != 0 || dz != 0);
        Direction { dx, dy, dz }
    }

    /// Number of nonzero components: 1 = face, 2 = edge, 3 = vertex.
    #[inline]
    pub const fn codim(&self) -> u8 {
        (self.dx != 0) as u8 + (self.dy != 0) as u8 + (self.dz != 0) as u8
    }

    /// The opposite direction.
    #[inline]
    pub fn opposite(&self) -> Direction {
        Direction {
            dx: -self.dx,
            dy: -self.dy,
            dz: -self.dz,
        }
    }

    /// All directions for the given dimensionality, faces first, then edges,
    /// then vertices (deterministic order): one static table per
    /// dimensionality, so graph builds, patches and tree edits borrow it
    /// instead of allocating and sorting a fresh list.
    pub fn all(dim: Dim) -> &'static [Direction] {
        const D2: [Direction; 8] = Direction::table(&[0]);
        const D3: [Direction; 26] = Direction::table(&[-1, 0, 1]);
        match dim {
            Dim::D2 => &D2,
            Dim::D3 => &D3,
        }
    }

    /// The `N` directions with `dz` drawn from `zs`, by ascending codimension
    /// and z-major / x-minor within one.
    const fn table<const N: usize>(zs: &[i8]) -> [Direction; N] {
        let mut out = [Direction {
            dx: 0,
            dy: 0,
            dz: 0,
        }; N];
        let (mut n, mut codim) = (0, 1);
        while codim <= 3 {
            let mut i = 0;
            while i < zs.len() * 9 {
                let d = Direction {
                    dx: (i % 3) as i8 - 1,
                    dy: (i / 3 % 3) as i8 - 1,
                    dz: zs[i / 9],
                };
                if d.codim() == codim {
                    out[n] = d;
                    n += 1;
                }
                i += 1;
            }
            codim += 1;
        }
        assert!(n == N, "direction table size");
        out
    }
}

/// A node of the refinement tree, identified by `(level, x, y, z)` where the
/// coordinates index the lattice of level-`level` octants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Octant {
    pub level: u8,
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

/// Hashes as two packed words, `level:x` and `y:z`, instead of the derive's
/// four field writes: every field still reaches any [`Hasher`], and the
/// octree's word-at-a-time hasher ([`crate::tree`]) takes two steps per
/// lookup. Equal octants pack to equal words, so `Hash` agrees with `Eq`.
impl Hash for Octant {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((self.level as u64) << 32 | self.x as u64);
        state.write_u64((self.y as u64) << 32 | self.z as u64);
    }
}

impl Octant {
    /// The root octant covering the whole (single-root) domain.
    pub const ROOT: Octant = Octant {
        level: 0,
        x: 0,
        y: 0,
        z: 0,
    };

    /// Construct an octant, checking lattice bounds in debug builds.
    #[inline]
    pub fn new(level: u8, x: u32, y: u32, z: u32) -> Self {
        debug_assert!(level <= MAX_LEVEL);
        Octant { level, x, y, z }
    }

    /// The parent octant (None for the root).
    #[inline]
    pub fn parent(&self) -> Option<Octant> {
        if self.level == 0 {
            None
        } else {
            Some(Octant {
                level: self.level - 1,
                x: self.x >> 1,
                y: self.y >> 1,
                z: self.z >> 1,
            })
        }
    }

    /// The `2^d` children in canonical (Morton) order.
    pub fn children(&self, dim: Dim) -> Vec<Octant> {
        debug_assert!(self.level < MAX_LEVEL);
        let l = self.level + 1;
        let (bx, by, bz) = (self.x << 1, self.y << 1, self.z << 1);
        match dim {
            Dim::D2 => vec![
                Octant::new(l, bx, by, 0),
                Octant::new(l, bx + 1, by, 0),
                Octant::new(l, bx, by + 1, 0),
                Octant::new(l, bx + 1, by + 1, 0),
            ],
            Dim::D3 => {
                let mut out = Vec::with_capacity(8);
                for cz in 0..2u32 {
                    for cy in 0..2u32 {
                        for cx in 0..2u32 {
                            out.push(Octant::new(l, bx + cx, by + cy, bz + cz));
                        }
                    }
                }
                out
            }
        }
    }

    /// The same-level lattice neighbor in direction `dir`, if it lies within
    /// a lattice of `roots_per_axis * 2^level` octants per axis.
    pub fn neighbor(&self, dir: Direction, roots: (u32, u32, u32), dim: Dim) -> Option<Octant> {
        let n = 1u64 << self.level;
        let (nx, ny, nz) = (
            roots.0 as u64 * n,
            roots.1 as u64 * n,
            match dim {
                Dim::D2 => 1,
                Dim::D3 => roots.2 as u64 * n,
            },
        );
        let x = self.x as i64 + dir.dx as i64;
        let y = self.y as i64 + dir.dy as i64;
        let z = self.z as i64 + dir.dz as i64;
        if x < 0 || y < 0 || z < 0 || x as u64 >= nx || y as u64 >= ny || z as u64 >= nz {
            return None;
        }
        Some(Octant {
            level: self.level,
            x: x as u32,
            y: y as u32,
            z: z as u32,
        })
    }

    /// The same-level lattice neighbor in direction `dir` with periodic
    /// wrap-around at the domain faces (always exists).
    pub fn neighbor_periodic(&self, dir: Direction, roots: (u32, u32, u32), dim: Dim) -> Octant {
        let n = 1i64 << self.level;
        let nx = roots.0 as i64 * n;
        let ny = roots.1 as i64 * n;
        let nz = match dim {
            Dim::D2 => 1,
            Dim::D3 => roots.2 as i64 * n,
        };
        Octant {
            level: self.level,
            x: (self.x as i64 + dir.dx as i64).rem_euclid(nx) as u32,
            y: (self.y as i64 + dir.dy as i64).rem_euclid(ny) as u32,
            z: (self.z as i64 + dir.dz as i64).rem_euclid(nz) as u32,
        }
    }

    /// Physical bounding box of this octant inside `domain`, assuming
    /// `roots` root octants per axis.
    pub fn bounds(&self, domain: &Aabb, roots: (u32, u32, u32), dim: Dim) -> Aabb {
        let n = (1u64 << self.level) as f64;
        let ext = domain.extent();
        let hx = ext.x / (roots.0 as f64 * n);
        let hy = ext.y / (roots.1 as f64 * n);
        let hz = match dim {
            Dim::D2 => ext.z.max(1.0),
            Dim::D3 => ext.z / (roots.2 as f64 * n),
        };
        let lo = Point {
            x: domain.lo.x + self.x as f64 * hx,
            y: domain.lo.y + self.y as f64 * hy,
            z: match dim {
                Dim::D2 => 0.0,
                Dim::D3 => domain.lo.z + self.z as f64 * hz,
            },
        };
        let hi = Point {
            x: lo.x + hx,
            y: lo.y + hy,
            z: match dim {
                Dim::D2 => hz,
                Dim::D3 => lo.z + hz,
            },
        };
        Aabb::new(lo, hi)
    }

    /// Center of this octant in physical coordinates.
    pub fn center(&self, domain: &Aabb, roots: (u32, u32, u32), dim: Dim) -> Point {
        self.bounds(domain, roots, dim).center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_counts() {
        assert_eq!(Direction::all(Dim::D3).len(), 26);
        assert_eq!(Direction::all(Dim::D2).len(), 8);
        let d3 = Direction::all(Dim::D3);
        let faces = d3.iter().filter(|d| d.codim() == 1).count();
        let edges = d3.iter().filter(|d| d.codim() == 2).count();
        let verts = d3.iter().filter(|d| d.codim() == 3).count();
        assert_eq!((faces, edges, verts), (6, 12, 8));
        // Faces are listed first for deterministic prioritization.
        assert!(d3[..6].iter().all(|d| d.codim() == 1));
        // The static table keeps the order of the list it replaced: a stable
        // sort by codimension of the z-major enumeration.
        let mut listed = Vec::new();
        for dz in [-1i8, 0, 1] {
            for dy in [-1i8, 0, 1] {
                for dx in [-1i8, 0, 1] {
                    if (dx, dy, dz) != (0, 0, 0) {
                        listed.push(Direction::new(dx, dy, dz));
                    }
                }
            }
        }
        listed.sort_by_key(|d| d.codim());
        assert_eq!(d3, &listed[..]);
        listed.retain(|d| d.dz == 0);
        assert_eq!(Direction::all(Dim::D2), &listed[..]);
    }

    #[test]
    fn direction_opposite() {
        for &d in Direction::all(Dim::D3) {
            let o = d.opposite();
            assert_eq!(o.opposite(), d);
            assert_eq!(d.codim(), o.codim());
        }
    }

    #[test]
    fn parent_child_roundtrip() {
        for dim in [Dim::D2, Dim::D3] {
            let parent = Octant::new(3, 5, 2, if dim == Dim::D3 { 7 } else { 0 });
            let children = parent.children(dim);
            assert_eq!(children.len(), dim.children_per_octant());
            for c in &children {
                assert_eq!(c.parent(), Some(parent));
            }
        }
    }

    #[test]
    fn neighbor_bounds_checking() {
        let o = Octant::new(1, 0, 0, 0);
        let left = o.neighbor(Direction::new(-1, 0, 0), (1, 1, 1), Dim::D3);
        assert!(left.is_none());
        let right = o.neighbor(Direction::new(1, 0, 0), (1, 1, 1), Dim::D3);
        assert_eq!(right, Some(Octant::new(1, 1, 0, 0)));
        // At level 1 a single root gives a 2^1 lattice; x=1 is the last cell.
        let o2 = Octant::new(1, 1, 0, 0);
        assert!(o2
            .neighbor(Direction::new(1, 0, 0), (1, 1, 1), Dim::D3)
            .is_none());
        // With 2 roots per axis the lattice is 4 wide, so x=2 exists.
        assert_eq!(
            o2.neighbor(Direction::new(1, 0, 0), (2, 2, 2), Dim::D3),
            Some(Octant::new(1, 2, 0, 0))
        );
    }

    #[test]
    fn bounds_tile_domain() {
        let domain = Aabb::unit();
        let o = Octant::new(2, 3, 0, 1);
        let b = o.bounds(&domain, (1, 1, 1), Dim::D3);
        assert!((b.lo.x - 0.75).abs() < 1e-12);
        assert!((b.hi.x - 1.0).abs() < 1e-12);
        assert!((b.lo.z - 0.25).abs() < 1e-12);
        let ext = b.extent();
        assert!((ext.x - 0.25).abs() < 1e-12);
        assert!((ext.y - 0.25).abs() < 1e-12);
        assert!((ext.z - 0.25).abs() < 1e-12);
    }

    #[test]
    fn children_cover_parent_bounds() {
        let domain = Aabb::unit();
        let parent = Octant::new(1, 1, 0, 1);
        let pb = parent.bounds(&domain, (1, 1, 1), Dim::D3);
        for c in parent.children(Dim::D3) {
            let cb = c.bounds(&domain, (1, 1, 1), Dim::D3);
            assert!(cb.lo.x >= pb.lo.x - 1e-12 && cb.hi.x <= pb.hi.x + 1e-12);
            assert!(cb.lo.y >= pb.lo.y - 1e-12 && cb.hi.y <= pb.hi.y + 1e-12);
            assert!(cb.lo.z >= pb.lo.z - 1e-12 && cb.hi.z <= pb.hi.z + 1e-12);
        }
    }
}
