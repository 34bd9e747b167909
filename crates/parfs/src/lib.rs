//! # quakeviz-parfs
//!
//! A striped **virtual parallel file system** plus an **MPI-IO-shaped
//! layer**, substituting for the PSC parallel file systems and the MPI-2
//! I/O interface the paper uses (§5.3).
//!
//! Two things made the paper's reads interesting:
//!
//! 1. Each on-disk time step is a flat node array, but a rendering
//!    processor needs the nodes of *its* octree blocks — a noncontiguous
//!    gather. The paper implements this with derived datatypes
//!    (`MPI_TYPE_CREATE_INDEXED_BLOCK`), file views (`MPI_FILE_SET_VIEW`)
//!    and collective reads (`MPI_FILE_READ_ALL`), or alternatively with
//!    *independent contiguous reads* plus in-memory routing.
//! 2. The read cost depends on how many input processors share the file
//!    system concurrently — the quantity the 1DIP/2DIP analysis optimizes.
//!
//! This crate reproduces both: [`mpiio`] implements indexed-block
//! datatypes, data sieving and two reads over a [`Disk`] — independent
//! ([`PFile::lend`]) and two-phase collective ([`PFile::lend_all`]) —
//! that lend the stored bytes to a visitor instead of copying them out.
//! Every read returns its **simulated elapsed time** from a configurable
//! [`CostModel`] (seek latency, per-stripe latency, aggregate bandwidth
//! shared among concurrent streams), so the same I/O code feeds both the
//! real threaded pipeline and the discrete-event pipeline model.

#![forbid(unsafe_code)]

pub mod disk;
pub mod mpiio;
pub mod shard;

pub use disk::{Announcement, CostModel, Disk, ReadError};
pub use mpiio::{IndexedBlockType, PFile, ReadOutcome};
pub use shard::{OstStats, ShardModel, Shards};
