//! Pipeline configuration and the builder API.

use crate::cache::CacheTier;
use crate::control::ControlConfig;
use quakeviz_render::{Camera, TransferFunction};
use quakeviz_rt::fault::FaultSpec;
use quakeviz_rt::wire::WireSpec;
use quakeviz_seismic::Dataset;
use std::sync::Arc;
use std::time::Duration;

/// Bounded-retry policy for failed or corrupt reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per read, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff before attempt 2; doubles per further attempt
    /// (exponential), capped at 64× the base.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, backoff_ms: 2 }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after failed attempt `attempt` (0-based), i.e.
    /// before attempt `attempt + 1`: `backoff_ms << attempt`, capped.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.backoff_ms.saturating_mul(1u64 << attempt.min(6)))
    }
}

/// The input-processor arrangement (paper §5.1–§5.2, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStrategy {
    /// Each input processor fetches complete time steps; `input_procs`
    /// steps are in flight concurrently.
    OneDip { input_procs: usize },
    /// `groups` groups of `per_group` input processors; each group shares
    /// one time step, cutting its delivery time by `per_group`.
    TwoDip { groups: usize, per_group: usize },
}

impl IoStrategy {
    /// The strategy as a grid of input ranks, `(groups, per_group)`:
    /// `groups` time steps in flight, each read by `per_group` ranks. 1DIP
    /// is the paper's n × 1 grid.
    pub fn shape(&self) -> (usize, usize) {
        match *self {
            IoStrategy::OneDip { input_procs } => (input_procs, 1),
            IoStrategy::TwoDip { groups, per_group } => (groups, per_group),
        }
    }

    /// Total input-processor ranks the strategy needs.
    pub fn total_input_procs(&self) -> usize {
        let (groups, per_group) = self.shape();
        groups * per_group
    }

    /// Checked [`IoStrategy::total_input_procs`]: rejects zero-sized
    /// strategies and 2DIP shapes whose rank count overflows, each with
    /// its own message. (The 2DIP rank count is *defined* as
    /// `groups * per_group`, so a mismatched total cannot be expressed;
    /// the failure modes are the degenerate shapes validated here.)
    pub fn validate(&self) -> Result<usize, String> {
        match *self {
            IoStrategy::OneDip { input_procs } => {
                if input_procs == 0 {
                    return Err("1DIP needs at least one input processor".into());
                }
                Ok(input_procs)
            }
            IoStrategy::TwoDip { groups, per_group } => {
                if groups == 0 {
                    return Err("2DIP needs at least one input group".into());
                }
                if per_group == 0 {
                    return Err("2DIP groups need at least one input processor".into());
                }
                groups.checked_mul(per_group).ok_or_else(|| {
                    format!("2DIP {groups}x{per_group} overflows the input rank count")
                })
            }
        }
    }
}

/// Full pipeline configuration. Construct through [`PipelineBuilder`].
///
/// Every input processor reads its share of a step independently: a 2DIP
/// member takes a contiguous `1/m` slice of the node array (paper §5.3.2)
/// and routes pieces to the renderers, which merge. The §5.3.1 collective
/// read is compared against it in `tab_read_strategies`, not run here.
#[derive(Clone)]
pub struct PipelineConfig {
    pub renderers: usize,
    pub io: IoStrategy,
    pub width: u32,
    pub height: u32,
    /// Octree level to render/fetch at; `None` lets the default
    /// [`quakeviz_render::AdaptivePolicy`] choose from the image size.
    pub level: Option<u8>,
    /// Fetch only the nodes of the selected level (paper §6).
    pub adaptive_fetch: bool,
    pub lighting: bool,
    pub enhancement: bool,
    pub lic: bool,
    /// Quantize node values to 8 bits on the input processors before
    /// distribution (paper §4: "quantization (from 32-bit to 8-bit)") —
    /// quarters the block-distribution traffic for a ≤1/255 value error.
    pub quantize: bool,
    /// Octree level at which blocks are cut for distribution.
    pub block_level: u8,
    /// Keep the rendered frames in the report (memory!).
    pub keep_frames: bool,
    /// Sleep `sim_seconds × scale` after each disk read, so the real
    /// threaded pipeline physically exhibits the simulated I/O cost
    /// (used by tests/examples to demonstrate I/O hiding live).
    pub io_delay_scale: Option<f64>,
    /// Camera; `None` uses the default three-quarter basin view.
    pub camera: Option<Camera>,
    pub transfer: TransferFunction,
    /// Render only the first `max_steps` steps of the dataset, if set.
    pub max_steps: Option<usize>,
    /// Overlapped prefetch runtime: the input step loop gains a read-ahead
    /// stage — a worker thread runs read+preprocess up to two owned steps
    /// ahead, while the rank thread synthesizes LIC, packs, and keeps at
    /// most two steps' non-blocking block sends in flight (backpressure
    /// via [`quakeviz_rt::SendHandle`]). Everything else about a step —
    /// membership, epoch ticks, slices, routing, delta state — is the same
    /// code either way, so it composes with every other feature. Frames
    /// are bit-identical to the run with this off (the default), which
    /// remains the reference oracle.
    pub prefetch: bool,
    /// Detailed observability: record runtime auto spans (blocking
    /// receives, barriers, MPI-IO reads, compositing rounds) in addition
    /// to the always-on pipeline stage spans. Also enabled by setting the
    /// `QUAKEVIZ_TRACE` environment variable (any non-empty value but
    /// `0`; a value with a `/` or a `.json` suffix additionally names a
    /// Chrome-trace output file).
    pub trace: bool,
    /// Kernel self-time profiling: turn on the `rt::obs::prof` tick
    /// registry for this run, so the raycast/LIC/SLIC hot loops publish
    /// their deterministic work counts (rays cast, volume samples,
    /// streamline steps, over-operator blends). Also enabled by setting
    /// `QUAKEVIZ_PROF=1`. Off by default: the counters cost one relaxed
    /// atomic load per kernel invocation when disabled.
    pub profile: bool,
    /// Deterministic fault-injection spec. `None` falls back to the
    /// `QUAKEVIZ_FAULTS` environment variable (unset/empty/`0` = the
    /// empty spec). Every run carries the plan of its spec and runs the
    /// same protocol — bounded retry, checksum verification, graceful
    /// degradation, failover; a plan that cannot inject anything never
    /// gives it cause to.
    pub faults: Option<FaultSpec>,
    /// Retry policy for failed/corrupt reads (a read fails transiently
    /// only when the plan injects it).
    pub retry: RetryPolicy,
    /// Per-step delivery deadline for renderers, milliseconds: block data
    /// not delivered by then is rendered degraded (coarser resident level
    /// / last-known-good values) instead of stalling the frame. Armed only
    /// when the plan can inject something ([`FaultSpec::can_inject`]);
    /// otherwise data can only be slow, and renderers block for it.
    pub deadline_ms: u64,
    /// Write a versioned, checksummed checkpoint through `parfs` every
    /// `K` steps (`Some(K)`, K ≥ 1): render ranks snapshot their resident
    /// fields, the output rank collects acknowledgements and commits the
    /// manifest last, so a torn checkpoint is never resumable. `None`
    /// (the default) disables checkpointing entirely — the zero-fault
    /// frame stream is bit-identical either way.
    pub checkpoint_every: Option<usize>,
    /// Directory (inside the dataset's simulated parallel file system)
    /// that holds the checkpoint manifest and field snapshots.
    pub checkpoint_path: String,
    /// Resume from the latest checkpoint under
    /// [`PipelineConfig::checkpoint_path`] instead of starting at step 0.
    /// The manifest's config fingerprint must match the current run; the
    /// resumed frame sequence is bit-identical to an uninterrupted run.
    pub resume: bool,
    /// Wire codecs + temporal block deltas for the payload-bearing sends
    /// (block distribution, LIC and volume images). `None` falls back to
    /// the `QUAKEVIZ_CODEC` environment variable (unset/empty/`0` = plain
    /// raw wire). Decoded payloads are bit-identical to the raw path, so
    /// the setting is excluded from the checkpoint config fingerprint —
    /// checkpoints written under one codec resume under any other.
    pub wire: Option<WireSpec>,
    /// Closed-loop elastic control plane: a controller on the output rank
    /// watches the live phase spans and periodically commits epoch-stamped
    /// rebalance plans (see [`crate::control`]). `None` (the default) keeps
    /// the controller from ever ticking: the run stays on the static
    /// partition (epoch 0). Excluded from the checkpoint fingerprint —
    /// elastic and static runs produce bit-identical frames, so their
    /// checkpoints are interchangeable.
    pub control: Option<ControlConfig>,
    /// The two-level cache tier (see [`crate::cache`]) to attach — the
    /// handle a cold run shares with the warm runs that follow it
    /// (benchmarks, interactive seeking). `None` falls back to a private
    /// tier sized by the `QUAKEVIZ_CACHE` environment variable
    /// (unset/empty/`0` = no caching). Cached data is checksum-verified
    /// before every serve, so cached runs are bit-identical to cache-off
    /// runs; the tier is excluded from the checkpoint config fingerprint,
    /// stamped with it instead and flushed on mismatch.
    pub cache_tier: Option<Arc<CacheTier>>,
    /// Spare render ranks parked beyond the active prefix: the world is
    /// sized `renderers + spare_renderers` but epoch 0 assigns work only
    /// to the first `renderers` ranks. A spare holds no state until a
    /// scripted `recover_rank` join admits it through the control plane's
    /// epoch commit (requires [`PipelineConfig::control`]).
    pub spare_renderers: usize,
    /// Heartbeat failure-detection threshold, milliseconds: a rank whose
    /// liveness beacon is not observed within this window is declared dead
    /// and failover engages. `None` (the default) reuses
    /// [`PipelineConfig::deadline_ms`]. A `slow_rank` delay strictly below
    /// this threshold must never trigger failover (property-tested).
    pub heartbeat_timeout_ms: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            renderers: 4,
            io: IoStrategy::OneDip { input_procs: 2 },
            width: 256,
            height: 256,
            level: None,
            adaptive_fetch: false,
            lighting: false,
            enhancement: false,
            lic: false,
            quantize: false,
            block_level: 2,
            keep_frames: true,
            io_delay_scale: None,
            camera: None,
            transfer: TransferFunction::seismic(),
            max_steps: None,
            prefetch: false,
            trace: false,
            profile: false,
            faults: None,
            retry: RetryPolicy::default(),
            deadline_ms: 1500,
            checkpoint_every: None,
            checkpoint_path: "ckpt".to_string(),
            resume: false,
            wire: None,
            control: None,
            cache_tier: None,
            spare_renderers: 0,
            heartbeat_timeout_ms: None,
        }
    }
}

/// Fluent builder over a dataset.
pub struct PipelineBuilder {
    dataset: Dataset,
    config: PipelineConfig,
}

impl PipelineBuilder {
    pub fn new(dataset: &Dataset) -> PipelineBuilder {
        PipelineBuilder { dataset: dataset.clone(), config: PipelineConfig::default() }
    }

    pub fn renderers(mut self, n: usize) -> Self {
        self.config.renderers = n;
        self
    }

    pub fn io_strategy(mut self, io: IoStrategy) -> Self {
        self.config.io = io;
        self
    }

    pub fn image_size(mut self, w: u32, h: u32) -> Self {
        self.config.width = w;
        self.config.height = h;
        self
    }

    /// Fix the octree rendering level (otherwise adaptive).
    pub fn level(mut self, level: u8) -> Self {
        self.config.level = Some(level);
        self
    }

    pub fn adaptive_fetch(mut self, on: bool) -> Self {
        self.config.adaptive_fetch = on;
        self
    }

    pub fn lighting(mut self, on: bool) -> Self {
        self.config.lighting = on;
        self
    }

    pub fn enhancement(mut self, on: bool) -> Self {
        self.config.enhancement = on;
        self
    }

    pub fn lic(mut self, on: bool) -> Self {
        self.config.lic = on;
        self
    }

    pub fn quantize(mut self, on: bool) -> Self {
        self.config.quantize = on;
        self
    }

    pub fn block_level(mut self, level: u8) -> Self {
        self.config.block_level = level;
        self
    }

    pub fn keep_frames(mut self, keep: bool) -> Self {
        self.config.keep_frames = keep;
        self
    }

    pub fn io_delay_scale(mut self, scale: f64) -> Self {
        self.config.io_delay_scale = Some(scale);
        self
    }

    pub fn camera(mut self, cam: Camera) -> Self {
        self.config.camera = Some(cam);
        self
    }

    pub fn max_steps(mut self, n: usize) -> Self {
        self.config.max_steps = Some(n);
        self
    }

    /// Overlap read+preprocess with sends (see
    /// [`PipelineConfig::prefetch`]).
    pub fn prefetch(mut self, on: bool) -> Self {
        self.config.prefetch = on;
        self
    }

    /// Record detailed runtime spans (see [`PipelineConfig::trace`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Enable kernel work-count profiling (see
    /// [`PipelineConfig::profile`]).
    pub fn profile(mut self, on: bool) -> Self {
        self.config.profile = on;
        self
    }

    /// Inject faults from a deterministic spec (see
    /// [`PipelineConfig::faults`]).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.config.faults = Some(spec);
        self
    }

    /// Bounded-retry policy for failed/corrupt reads.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Per-step delivery deadline before renderers degrade (see
    /// [`PipelineConfig::deadline_ms`]).
    pub fn delivery_deadline_ms(mut self, ms: u64) -> Self {
        self.config.deadline_ms = ms;
        self
    }

    /// Checkpoint every `k` steps (see
    /// [`PipelineConfig::checkpoint_every`]).
    pub fn checkpoint_every(mut self, k: usize) -> Self {
        self.config.checkpoint_every = Some(k);
        self
    }

    /// Checkpoint directory on the simulated parallel file system.
    pub fn checkpoint_path(mut self, path: &str) -> Self {
        self.config.checkpoint_path = path.to_string();
        self
    }

    /// Resume from the latest checkpoint (see
    /// [`PipelineConfig::resume`]).
    pub fn resume(mut self, on: bool) -> Self {
        self.config.resume = on;
        self
    }

    /// Full wire configuration (see [`PipelineConfig::wire`]).
    pub fn wire_spec(mut self, spec: WireSpec) -> Self {
        self.config.wire = Some(spec);
        self
    }

    /// Enable the elastic control plane, ticking every `every` steps
    /// (rebalancing only, resize/reshape off — see
    /// [`PipelineConfig::control`]).
    pub fn elastic(mut self, every: usize) -> Self {
        self.config.control = Some(ControlConfig::every(every));
        self
    }

    /// Let the controller grow/shrink the active render prefix (see
    /// [`ControlConfig::resize`]). Implies elastic mode with the current
    /// (or default 2-step) tick period.
    pub fn elastic_resize(mut self, on: bool) -> Self {
        self.config.control.get_or_insert_with(|| ControlConfig::every(2)).resize = on;
        self
    }

    /// Let the controller switch the effective 2DIP group width (see
    /// [`ControlConfig::reshape`]). Implies elastic mode with the current
    /// (or default 2-step) tick period.
    pub fn elastic_reshape(mut self, on: bool) -> Self {
        self.config.control.get_or_insert_with(|| ControlConfig::every(2)).reshape = on;
        self
    }

    /// Attach an existing cache tier (see [`PipelineConfig::cache_tier`]).
    pub fn cache_tier(mut self, tier: Arc<CacheTier>) -> Self {
        self.config.cache_tier = Some(tier);
        self
    }

    /// Park `k` spare render ranks beyond the active prefix (see
    /// [`PipelineConfig::spare_renderers`]).
    pub fn spare_renderers(mut self, k: usize) -> Self {
        self.config.spare_renderers = k;
        self
    }

    /// Heartbeat failure-detection threshold in milliseconds (see
    /// [`PipelineConfig::heartbeat_timeout_ms`]).
    pub fn heartbeat_timeout_ms(mut self, ms: u64) -> Self {
        self.config.heartbeat_timeout_ms = Some(ms);
        self
    }

    /// Run the real threaded pipeline end-to-end.
    pub fn run(self) -> Result<crate::pipeline::PipelineReport, String> {
        crate::pipeline::run_pipeline(&self.dataset, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_totals() {
        assert_eq!(IoStrategy::OneDip { input_procs: 5 }.total_input_procs(), 5);
        assert_eq!(IoStrategy::TwoDip { groups: 3, per_group: 4 }.total_input_procs(), 12);
    }

    #[test]
    fn strategy_validation() {
        assert_eq!(IoStrategy::OneDip { input_procs: 5 }.validate(), Ok(5));
        assert_eq!(IoStrategy::TwoDip { groups: 3, per_group: 4 }.validate(), Ok(12));
        assert!(IoStrategy::OneDip { input_procs: 0 }.validate().is_err());
        assert!(IoStrategy::TwoDip { groups: 0, per_group: 2 }.validate().is_err());
        assert!(IoStrategy::TwoDip { groups: 2, per_group: 0 }.validate().is_err());
        let huge = IoStrategy::TwoDip { groups: usize::MAX, per_group: 2 };
        assert!(huge.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn default_config_sane() {
        let c = PipelineConfig::default();
        assert!(c.renderers > 0);
        assert!(c.io.total_input_procs() > 0);
        assert!(c.width > 0 && c.height > 0);
    }
}
