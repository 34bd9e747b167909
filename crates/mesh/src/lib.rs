//! # quakeviz-mesh
//!
//! Spatial data structures for the quakeviz pipeline.
//!
//! The SC'04 earthquake pipeline is built around a single, static spatial
//! encoding of the simulation mesh: an **octree** whose leaves are the
//! hexahedral finite elements, generated once (the simulation mesh never
//! changes) and reused by every stage — partitioning, load balancing,
//! adaptive rendering, and adaptive fetching. This crate provides:
//!
//! * [`morton`] — level-tagged 3D/2D locational codes (the linear-octree key
//!   space used by the Etree-style mesh database the paper builds on).
//! * [`region`] — axis-aligned boxes and small vector math shared by the
//!   geometry code.
//! * [`octree`] — a linear octree with wavelength-adaptive refinement,
//!   level extraction (for adaptive rendering/fetching) and block
//!   decomposition (for distribution to rendering processors).
//! * [`hexmesh`] — the hexahedral element mesh derived from the octree
//!   leaves, with the *linear node array* layout that the on-disk time-step
//!   files use and that the input processors must gather from.
//! * [`field`] — node-centred scalar and vector fields over a mesh.
//! * [`quadtree`] — the 2D analogue used to organise ground-surface nodes
//!   for LIC vector-field resampling (paper §4.3).
//! * [`partition`] — workload-estimated assignment of octree blocks to
//!   rendering processors (paper §4, Figure 7).

#![forbid(unsafe_code)]

pub mod field;
pub mod hexmesh;
pub mod morton;
pub mod octree;
pub mod partition;
pub mod quadtree;
pub mod region;

pub use field::{NodeField, VectorField};
pub use hexmesh::{sorted_unique, HexCell, HexMesh, NodeId};
pub use morton::{Loc2, Loc3};
pub use octree::{BlockId, Octree, OctreeBlock, RefineOracle, UniformRefinement};
pub use partition::{lpt_place, Partition, WorkloadModel};
pub use quadtree::Quadtree;
pub use region::{Aabb, Vec3};
