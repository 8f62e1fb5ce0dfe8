//! # amr-mesh — octree-based block-structured AMR mesh
//!
//! This crate implements the mesh-management substrate that block-structured
//! AMR frameworks such as Parthenon provide, and that placement policies
//! consume:
//!
//! * **Octrees** (and quadtrees in 2D) over a logically Cartesian domain.
//!   Leaf octants correspond to *mesh blocks*; every block holds the same
//!   number of cells regardless of refinement level (§II-B of the paper).
//! * **Z-order space-filling curves** (Morton codes). A depth-first traversal
//!   of the octree visits leaves in Morton order; sequential *block IDs* are
//!   assigned along this curve (§V-A, Fig. 5).
//! * **Neighbor topology**: each block communicates with up to 26 neighbors
//!   in 3D (6 faces, 12 edges, 8 vertices), including fine–coarse neighbors
//!   across one refinement level under the enforced 2:1 balance constraint.
//! * **Refinement/coarsening engine** with 2:1 balance enforcement, the
//!   driver for redistribution in AMR codes.
//!
//! The crate is deliberately framework-agnostic: placement policies in
//! `amr-core` consume `(blocks in SFC order, neighbor graph)`, exactly the
//! interface the paper's policies use inside Parthenon.

pub mod block;
pub mod checkpoint;
pub mod geom;
pub mod hilbert;
pub mod mesh;
pub mod morton;
pub mod neighbors;
pub mod octant;
pub mod pool;
pub mod sfc;
pub mod sharded;
pub mod tree;

pub use block::{BlockId, BlockSpec, MeshBlock};
pub use geom::{Aabb, Dim, Point};
pub use hilbert::{hilbert_index, hilbert_key};
pub use mesh::{AmrMesh, BlockFate, MeshConfig, RefineTag, RefinementDelta};
pub use morton::{morton_decode2, morton_decode3, morton_encode2, morton_encode3};
pub use neighbors::{MeshTopology, Neighbor, NeighborGraph, NeighborKind, PatchScratch};
pub use octant::{Direction, Octant, MAX_LEVEL};
pub use pool::{task_range, Disjoint, WorkerPool, MAX_POOL_THREADS};
pub use sfc::sfc_key;
pub use sharded::ShardedMesh;
pub use tree::Octree;
