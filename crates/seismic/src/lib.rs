//! # quakeviz-seismic
//!
//! The earthquake ground-motion substrate: a synthetic replacement for the
//! Quake project's Northridge simulation output that the paper visualizes.
//!
//! The paper's data is the 3D velocity/displacement history of the 1994
//! Northridge mainshock in the greater LA basin — 100M hexahedral cells,
//! ~400 MB per time step, terabytes in total. That dataset is not
//! available, so this crate *generates* a physically plausible stand-in at
//! laptop scale with the same structure:
//!
//! * a heterogeneous **basin material model** ([`material`]): layered
//!   halfspace stiffening with depth plus a soft sedimentary basin lens —
//!   the velocity contrast that makes the mesh octree-adaptive;
//! * an **elastic wave solver** ([`solver`]): Navier's equation integrated
//!   with an explicit central-difference scheme (the paper's simulation
//!   uses exactly this time discretization) on the finest-grid nodes, with
//!   a free surface at `z = 0` and absorbing sponge boundaries elsewhere;
//! * a **Ricker-wavelet point source** ([`source`]) at hypocentral depth;
//! * a **wavelength-adaptive refinement oracle** ([`oracle`]) reproducing
//!   the "mesh size tailored to the local wavelength" property (paper §3),
//!   which concentrates >20% of nodes near the surface;
//! * a **dataset writer/reader** ([`dataset`]) that lays every output step
//!   on the virtual parallel file system as a flat little-endian node
//!   array (plus one octree file), the exact layout the input processors
//!   gather from.
//!
//! The documented behavioural equivalences: time-varying, spatially
//! coherent wave fronts that sweep the domain (so temporal enhancement has
//! something to enhance), strong surface motion (so LIC has structure),
//! and a static octree shared by all steps (so adaptive fetching works).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod material;
pub mod oracle;
pub mod solver;
pub mod source;

pub use dataset::{Dataset, LiveSimulation, SimulationBuilder, SimulationSummary};
pub use material::{BasinModel, Material};
pub use oracle::WavelengthOracle;
pub use solver::WaveSolver;
pub use source::RickerSource;
