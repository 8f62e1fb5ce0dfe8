//! Mesh checkpointing: serialize a mesh snapshot to a compact binary form
//! and restore it with full invariant validation.
//!
//! Production AMR frameworks restart week-long runs from checkpoint files
//! (§I: codes "often run for weeks"); a placement layer must be able to
//! round-trip the mesh structure it was computed against. The format is a
//! flat leaf list — the same representation [`crate::tree::Octree`] uses in
//! memory — so encoding is O(n) and restoring revalidates tiling and 2:1
//! balance before handing the mesh back.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "AMRM" | version u32 | dim u8 | roots (u32,u32,u32) | max_level u8 |
//! periodic u8 |
//! spec (cells u32, ghost u32, vars u32, bytes u32) |
//! domain (lo.x..hi.z: 6 × f64) | leaf_count u64 |
//! leaves: (level u8, x u32, y u32, z u32) × leaf_count
//! ```

use crate::block::BlockSpec;
use crate::geom::{Aabb, Dim, Point};
use crate::mesh::{AmrMesh, MeshConfig};
use crate::octant::Octant;
use crate::tree::{Octree, NORM_LEVEL};

/// Magic bytes of the checkpoint format.
pub const MAGIC: &[u8; 4] = b"AMRM";
/// Current version.
pub const VERSION: u32 = 1;

/// Errors restoring a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    BadMagic,
    BadVersion(u32),
    Truncated,
    /// The leaf set does not form a valid 2:1-balanced tiling.
    InvalidMesh(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "bad magic"),
            RestoreError::BadVersion(v) => write!(f, "unsupported version {v}"),
            RestoreError::Truncated => write!(f, "checkpoint truncated"),
            RestoreError::InvalidMesh(e) => write!(f, "invalid mesh: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Fixed-size header after magic + version: dim, roots, max_level, periodic,
/// spec, domain, leaf count.
const HEADER_BYTES: usize = 1 + 12 + 1 + 1 + 16 + 48 + 8;
/// One leaf: level, x, y, z.
const LEAF_BYTES: usize = 1 + 4 + 4 + 4;

/// Serialize a mesh snapshot.
pub fn save(mesh: &AmrMesh) -> Vec<u8> {
    let cfg = mesh.config();
    let n = mesh.num_blocks();
    let mut buf = Vec::with_capacity(8 + HEADER_BYTES + n * LEAF_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(match cfg.dim {
        Dim::D2 => 2,
        Dim::D3 => 3,
    });
    let spec = cfg.spec;
    for v in [cfg.roots.0, cfg.roots.1, cfg.roots.2] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.push(cfg.max_level);
    buf.push(cfg.periodic as u8);
    for v in [
        spec.cells_per_axis,
        spec.ghost_width,
        spec.num_vars,
        spec.bytes_per_value,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        cfg.domain.lo.x,
        cfg.domain.lo.y,
        cfg.domain.lo.z,
        cfg.domain.hi.x,
        cfg.domain.hi.y,
        cfg.domain.hi.z,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for b in mesh.blocks() {
        buf.push(b.octant.level);
        for v in [b.octant.x, b.octant.y, b.octant.z] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Little-endian cursor over the unread bytes. The caller checks lengths
/// before reading; a short buffer is a bug here and panics.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_first_chunk::<N>().expect("length checked");
        self.0 = rest;
        *head
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }
}

/// Restore a mesh snapshot, revalidating all structural invariants.
pub fn restore(buf: &[u8]) -> Result<AmrMesh, RestoreError> {
    let mut buf = Cursor(buf);
    if buf.0.len() < 4 + 4 {
        return Err(RestoreError::Truncated);
    }
    if &buf.take::<4>() != MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = buf.u32();
    if version != VERSION {
        return Err(RestoreError::BadVersion(version));
    }
    if buf.0.len() < HEADER_BYTES {
        return Err(RestoreError::Truncated);
    }
    let dim = match buf.u8() {
        2 => Dim::D2,
        3 => Dim::D3,
        d => return Err(RestoreError::InvalidMesh(format!("bad dim {d}"))),
    };
    let roots = (buf.u32(), buf.u32(), buf.u32());
    let max_level = buf.u8();
    let periodic = buf.u8() != 0;
    let spec = BlockSpec {
        cells_per_axis: buf.u32(),
        ghost_width: buf.u32(),
        num_vars: buf.u32(),
        bytes_per_value: buf.u32(),
    };
    let vals: [f64; 6] = std::array::from_fn(|_| f64::from_le_bytes(buf.take()));
    if !(0..3).all(|a| vals[a].is_finite() && vals[a + 3].is_finite() && vals[a] <= vals[a + 3]) {
        return Err(RestoreError::InvalidMesh(format!("bad domain {vals:?}")));
    }
    let domain = Aabb::new(
        Point::new(vals[0], vals[1], vals[2]),
        Point::new(vals[3], vals[4], vals[5]),
    );
    // The leaf count is unvalidated input: hold it to what the buffer
    // carries before sizing anything from it.
    let n = usize::try_from(u64::from_le_bytes(buf.take())).map_err(|_| RestoreError::Truncated)?;
    let need = n.checked_mul(LEAF_BYTES).ok_or(RestoreError::Truncated)?;
    if buf.0.len() < need {
        return Err(RestoreError::Truncated);
    }
    let leaves = (0..n)
        .map(|_| match buf.u8() {
            level if level <= NORM_LEVEL => Ok(Octant::new(level, buf.u32(), buf.u32(), buf.u32())),
            level => Err(RestoreError::InvalidMesh(format!(
                "leaf level {level} above {NORM_LEVEL}"
            ))),
        })
        .collect::<Result<_, _>>()?;
    let config = MeshConfig {
        dim,
        roots,
        domain,
        spec,
        max_level,
        periodic,
    };
    let tree = Octree::from_leaves(dim, roots, leaves).map_err(RestoreError::InvalidMesh)?;
    AmrMesh::from_parts(config, tree).map_err(RestoreError::InvalidMesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::RefineTag;

    fn refined_mesh() -> AmrMesh {
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
        m.adapt(|b| {
            if b.id.index() % 9 == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = refined_mesh();
        let bytes = save(&m);
        let back = restore(&bytes).unwrap();
        assert_eq!(back.num_blocks(), m.num_blocks());
        for (a, b) in m.blocks().iter().zip(back.blocks()) {
            assert_eq!(a.octant, b.octant);
            assert_eq!(a.id, b.id);
        }
        assert_eq!(back.config().spec, m.config().spec);
        back.check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_2d() {
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (64, 32, 0), 1));
        let back = restore(&save(&m)).unwrap();
        assert_eq!(back.num_blocks(), m.num_blocks());
        assert_eq!(back.config().dim, Dim::D2);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(restore(b"nope").unwrap_err(), RestoreError::Truncated);
        let mut bytes = save(&refined_mesh()).to_vec();
        bytes[0] = b'X';
        assert_eq!(restore(&bytes).unwrap_err(), RestoreError::BadMagic);
        let bytes = save(&refined_mesh());
        assert_eq!(
            restore(&bytes[..bytes.len() - 5]).unwrap_err(),
            RestoreError::Truncated
        );
    }

    #[test]
    fn rejects_corrupted_leaf_set() {
        let m = refined_mesh();
        let mut bytes = save(&m).to_vec();
        // Duplicate the first leaf record over the second.
        let header = 4 + 4 + 1 + 12 + 1 + 1 + 16 + 48 + 8;
        let (first, second) = (header, header + 13);
        let leaf: Vec<u8> = bytes[first..first + 13].to_vec();
        bytes[second..second + 13].copy_from_slice(&leaf);
        match restore(&bytes) {
            Err(RestoreError::InvalidMesh(_)) => {}
            other => panic!("expected InvalidMesh, got {other:?}"),
        }
    }

    #[test]
    fn rejects_leaf_level_beyond_the_lattice() {
        let mut bytes = save(&refined_mesh());
        let first_leaf = 8 + HEADER_BYTES;
        for level in [NORM_LEVEL + 1, 21, u8::MAX] {
            bytes[first_leaf] = level;
            match restore(&bytes) {
                Err(RestoreError::InvalidMesh(_)) => {}
                other => panic!("level {level}: expected InvalidMesh, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_non_finite_or_inverted_domain() {
        let domain_at = 8 + HEADER_BYTES - 8 - 48;
        for (axis, value) in [(0, f64::NAN), (4, f64::INFINITY), (2, 1e9), (5, -1.0)] {
            let mut bytes = save(&refined_mesh());
            let at = domain_at + 8 * axis;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            match restore(&bytes) {
                Err(RestoreError::InvalidMesh(_)) => {}
                other => panic!("bound {axis} = {value}: expected InvalidMesh, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_leaf_count_is_truncation_not_allocation() {
        let mut bytes = save(&refined_mesh());
        let count_at = 8 + HEADER_BYTES - 8;
        for n in [u64::MAX, u64::MAX / LEAF_BYTES as u64, 1 << 40] {
            bytes[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
            assert_eq!(restore(&bytes).unwrap_err(), RestoreError::Truncated);
        }
    }

    #[test]
    fn version_check() {
        let mut bytes = save(&refined_mesh()).to_vec();
        bytes[4] = 42;
        assert_eq!(restore(&bytes).unwrap_err(), RestoreError::BadVersion(42));
    }
}
