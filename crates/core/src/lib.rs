//! # quakeviz-core
//!
//! The SC'04 parallel visualization pipeline — the paper's primary
//! contribution.
//!
//! The pipeline partitions processors into three groups (Figure 2):
//! **input processors** fetch time steps from the parallel file system and
//! preprocess them (quantization, temporal enhancement, LIC texture
//! synthesis), **rendering processors** volume-render and composite, and an
//! **output processor** assembles and delivers frames. Because all three
//! groups run concurrently, I/O and preprocessing hide behind rendering —
//! the interframe delay collapses to the rendering time once enough input
//! processors are used.
//!
//! * [`model`] — the closed-form processor-count formulas of §5.1/§5.2:
//!   `m = (Tf+Tp)/Ts + 1` for 1DIP, `m ≥ Ts/Tr` and
//!   `n = (Tf'+Tp')/Ts' + 1` for 2DIP.
//! * [`des`] — a discrete-event simulator executing the exact 1DIP/2DIP
//!   schedules of Figures 5–6 over a parametric [`des::CostTable`];
//!   the LeMieux-calibrated table regenerates the paper's Figures 8–12
//!   at terascale, while small-scale tables are validated against the
//!   real pipeline.
//! * [`reader`] — the two §5.3 reading strategies implemented over the
//!   MPI-IO layer: the *independent contiguous read* every input rank of
//!   the pipeline makes (with renderer-side merge, Figure 7), the *single
//!   collective noncontiguous read* it is measured against
//!   (`tab_read_strategies`), plus adaptive fetching (§6).
//! * [`pipeline`] — the real threaded pipeline: spawns input/render/output
//!   ranks over [`quakeviz_rt`], runs every frame end-to-end (read →
//!   preprocess → distribute → render → SLIC-composite → deliver) and
//!   reports per-stage timings. The dataset may be finished or still
//!   being written ([`quakeviz_seismic::SimulationBuilder::run_live`]):
//!   simulation-time visualization is this same pipeline, its input
//!   ranks waiting on steps the solver has not published yet.
//! * `proto` — the message alphabet: one typed channel per message kind
//!   (tag, traffic class, payload, accounted size), block pieces and
//!   their checksums, the image codec.
//! * [`config`] — [`PipelineBuilder`] and friends.
//! * [`control`] — the closed-loop elastic control plane: an
//!   epoch-clocked controller on the output rank that rebalances blocks,
//!   resizes the render group, and reshapes the input width from live
//!   span measurements, committed to every rank via two-phase commit.
//! * [`membership`] — the one block-ownership function (committed epoch
//!   state + the fault plan's death window) and the one heartbeat round.
//! * [`validate`] — condenses a run's span-derived timings into the
//!   model's `Tf`/`Tp`/`Ts`/`Tr` and compares measured interframe delay
//!   against the §5 closed forms.

#![forbid(unsafe_code)]

pub mod balance;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod control;
pub mod des;
pub mod membership;
pub mod model;
pub mod pipeline;
mod proto;
pub mod reader;
pub mod validate;

pub use cache::{
    BlockCache, BlockKey, CacheConfig, CacheCounters, CacheTier, FrameCache, FrameKey,
};
pub use checkpoint::{CheckpointError, CheckpointManifest, CHECKPOINT_VERSION};
pub use config::{IoStrategy, PipelineBuilder, PipelineConfig, RetryPolicy};
pub use control::{ControlConfig, ControlPlan};
pub use des::{simulate, CostTable, DesResult};
pub use membership::FaultConfigError;
pub use model::{onedip_optimal_m, prefetch_delay, steady_delay, twodip_n, twodip_optimal_m};
pub use pipeline::{run_pipeline, Degradation, PipelineReport};
pub use proto::wire_checksum;
pub use validate::ModelValidation;
