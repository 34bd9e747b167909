//! The real threaded pipeline: input / rendering / output processors.
//!
//! This is Figure 2 of the paper, executed over [`quakeviz_rt`] thread
//! ranks: with `I` input processors, `R` rendering processors and one
//! output processor, world ranks are laid out `[inputs | renderers |
//! output]`. Every stage of every frame really happens — parallel reads
//! through the MPI-IO layer, preprocessing (magnitude, temporal
//! enhancement, LIC synthesis) on the input processors, block
//! distribution with per-step tags, brick resampling and ray casting on
//! the rendering processors, SLIC compositing across them, and final
//! assembly at the output processor.
//!
//! Because sends are buffered and each group runs its own loop, I/O and
//! preprocessing genuinely overlap rendering: with `io_delay_scale` set
//! (sleeping out the simulated disk time), the wall-clock behaviour of
//! the paper's Figures 8–9 can be reproduced *physically* at small scale.

use crate::cache::{BlockKey, CacheTier, FrameKey};
use crate::checkpoint::{self, CheckpointError, CheckpointManifest, CHECKPOINT_VERSION};
use crate::config::{PipelineConfig, RetryPolicy};
use crate::control::{ControlConfig, ControlPlan, Controller, EpochState, WindowMeasurement};
use crate::membership::{self, Presence, Role, Schedule, Tick, Watch, WorldShape};
pub use crate::proto::Degradation;
use crate::proto::{
    self, decode_image, encode_image, gather_values, ingest_piece, missing_piece, pack_piece,
    scatter_values, BlockBatch, DeltaMap, Ingest, StepAccount, CATCHUP, CKPT, CTL, DATA, KEYFRAME,
    LIC, VOL,
};
use crate::reader::{
    self, block_level_nodes, level_node_ids, member_node_range, FaultCtx, FetchPlan, ReadStats,
};
use quakeviz_composite::{slic, CompositeOptions, FrameInfo};
use quakeviz_lic::{colorize, compute_lic_with_max, white_noise, LicParams, SurfaceSampler};
use quakeviz_mesh::{Aabb, NodeField, NodeId, Partition, Quadtree, WorkloadModel};
use quakeviz_parfs::ReadError;
use quakeviz_render::{
    front_to_back_order, AdaptivePolicy, BrickPlan, Camera, Fragment, LightingParams, RenderParams,
    RgbaImage, TemporalEnhance, TransferFunction,
};
use quakeviz_rt::obs::{self, Obs, Phase, TraceData};
use quakeviz_rt::wire::{WireClassStats, WireLedger, WireSpec};
use quakeviz_rt::{
    wait_all, Comm, FaultEvent, FaultPlan, Fnv1a, RecoveryStats, SendHandle, TagClass, TrafficEdge,
    TrafficStats, World,
};
use quakeviz_seismic::Dataset;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flag a frame whose image envelope arrived corrupt and count it in the
/// plan's wire-reject tally — the degradation is never silent.
fn note_corrupt_image(run: &Run, why: &'static str, t: usize, deg: &mut Vec<Degradation>) {
    eprintln!("quakeviz: step {t}: corrupt image envelope ({why}); frame degraded");
    run.faults.note_wire_reject();
    deg.push(Degradation::CorruptImage);
}

/// Per-step timing recorded by an input processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputStepTiming {
    pub read: ReadStats,
    pub preprocess_s: f64,
    pub lic_s: f64,
    pub send_s: f64,
    /// Backpressure wait on the step's in-flight sends (prefetch runtime
    /// only; the synchronous path never waits).
    pub send_wait_s: f64,
}

/// Per-frame timing recorded by a rendering processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderFrameTiming {
    pub receive_s: f64,
    pub render_s: f64,
    pub composite_s: f64,
}

/// Where finished frames go — the one delivery tail, whoever assembled
/// the frame: the output processor, its cached replay, or the render root
/// that assumed assembly after the output processor died.
struct FrameSink {
    frames: Vec<RgbaImage>,
    /// Completion time of each frame, seconds since the start barrier.
    done_at: Vec<f64>,
    degraded: Vec<Vec<Degradation>>,
    /// Checkpoints committed by the rank holding this sink.
    checkpoints: u64,
    start: Instant,
    /// Whether delivered frames are kept for the report.
    keep_frames: bool,
}

impl FrameSink {
    fn open(run: &Run, keep_frames: bool, start: Instant) -> FrameSink {
        FrameSink {
            frames: Vec::new(),
            done_at: Vec::with_capacity(run.steps.len()),
            degraded: Vec::with_capacity(run.steps.len()),
            checkpoints: 0,
            keep_frames,
            start,
        }
    }

    /// Deliver the next frame with its degradation flags — sorted and
    /// deduplicated here, whoever raised them in whatever order: stamp it,
    /// keep it if the run keeps frames.
    fn deliver(&mut self, run: &Run, vol: RgbaImage, mut deg: Vec<Degradation>) {
        deg.sort_unstable();
        deg.dedup();
        if !deg.is_empty() {
            let blocks = deg.iter().filter(|d| d.block().is_some()).count();
            run.faults.note_degraded_frame(blocks as u64);
        }
        self.degraded.push(deg);
        self.done_at.push(self.start.elapsed().as_secs_f64());
        if self.keep_frames {
            self.frames.push(vol);
        }
    }
}

/// What one rank hands back at the end of the run.
enum RankResult {
    Input(Vec<InputStepTiming>),
    Render {
        timings: Vec<RenderFrameTiming>,
        /// Frames the supervising render root delivered after the output
        /// processor died, spliced into the report after the output's own.
        takeover: Option<FrameSink>,
    },
    Output {
        sink: FrameSink,
        /// Elastic plans committed by the hosted controller, in epoch
        /// order (empty without the control plane).
        plans: Vec<ControlPlan>,
        /// Plan-commit rounds the controller hosted.
        ticks: u64,
    },
}

/// The assembled outcome of a pipeline run.
pub struct PipelineReport {
    /// Rendered frames (empty unless `keep_frames`).
    pub frames: Vec<RgbaImage>,
    /// Completion time of each frame, seconds since the synchronized start.
    pub frame_done: Vec<f64>,
    /// Per-step input timings, pooled across input processors.
    pub input_steps: Vec<InputStepTiming>,
    /// Per-frame render timings, pooled across rendering processors.
    pub render_frames: Vec<RenderFrameTiming>,
    /// Echo of the configuration's processor counts.
    pub renderers: usize,
    pub input_procs: usize,
    /// Whether the overlapped prefetch runtime was used
    /// ([`PipelineConfig::prefetch`]).
    pub prefetch: bool,
    /// The octree level actually rendered at.
    pub level: u8,
    /// Total messages exchanged between ranks during the run.
    pub messages: u64,
    /// Total payload bytes exchanged between ranks during the run.
    pub bytes_sent: u64,
    /// Per-rendering-rank total *pure render* seconds (no compositing —
    /// compositing is collective and absorbs the wait for the slowest
    /// rank), in render-rank order. The load-balance ablation reads this.
    pub render_rank_seconds: Vec<f64>,
    /// The per-`(src, dst, tag-class)` traffic matrix of the run (exact:
    /// every send site charges its real wire size).
    pub traffic: Vec<TrafficEdge>,
    /// Every span recorded during the run — one track per rank — plus the
    /// run's metrics table. Stage spans are always present; runtime auto
    /// spans only when tracing was enabled ([`PipelineConfig::trace`] or
    /// `QUAKEVIZ_TRACE`).
    pub trace: TraceData,
    /// Per-frame degradation flags (sorted, deduplicated): which blocks
    /// rendered coarser or went missing, whether the LIC overlay was
    /// lost, and whether the frame was assembled by the output-failover
    /// supervisor. A frame's list is empty when it was assembled from
    /// complete, verified data. One entry per executed step.
    pub degraded: Vec<Vec<Degradation>>,
    /// The fault-injection log of the run, in injection order per kind
    /// (empty when nothing was injected).
    pub fault_events: Vec<FaultEvent>,
    /// Recovery counters (retries, backoff, checksum failures, degraded
    /// frames, failovers); `None` unless a fault spec was given.
    pub recovery: Option<RecoveryStats>,
    /// Checkpoints committed (manifest written) during the run.
    pub checkpoints: u64,
    /// The step the run resumed from, when
    /// [`PipelineConfig::resume`] restored a checkpoint.
    pub resumed_from: Option<usize>,
    /// Per-class raw-vs-wire accounting: raw payload bytes before
    /// codec+delta, wire bytes actually sent, encode/decode time, and the
    /// keyframe/delta piece split. Only classes with payload traffic
    /// appear; `wire_bytes ≤ raw_bytes` holds per class by the codecs'
    /// no-expansion guarantee.
    pub wire: Vec<WireClassStats>,
    /// Human description of the run's resolved wire configuration
    /// (`"raw"` when no codec or delta is configured).
    pub wire_spec: String,
    /// Elastic control-plane plans committed during the run, in epoch
    /// order — including plans replayed from a resumed checkpoint, so a
    /// resumed run's history prefix equals the manifest it loaded. Empty
    /// unless [`PipelineConfig::control`] is set (now, or when the resumed
    /// checkpoint was written).
    pub control_plans: Vec<ControlPlan>,
}

impl PipelineReport {
    /// Interframe delays (first frame counts from the start barrier).
    pub fn interframe(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.frame_done.len());
        let mut prev = 0.0;
        for &t in &self.frame_done {
            out.push(t - prev);
            prev = t;
        }
        out
    }

    /// Mean interframe delay.
    pub fn mean_interframe_delay(&self) -> f64 {
        let d = self.interframe();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Total wall-clock of the frame loop.
    pub fn total_seconds(&self) -> f64 {
        self.frame_done.last().copied().unwrap_or(0.0)
    }

    /// Mean per-step read wall-clock on one input processor (`Tf`-like,
    /// including any injected simulated delay).
    pub fn mean_read_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.read.real_seconds).sum::<f64>() / n as f64
    }

    /// Mean per-step preprocessing wall-clock (`Tp`-like).
    pub fn mean_preprocess_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.preprocess_s + s.lic_s).sum::<f64>() / n as f64
    }

    /// Mean per-frame render+composite wall-clock (`Tr`-like).
    pub fn mean_render_seconds(&self) -> f64 {
        let n = self.render_frames.len().max(1);
        self.render_frames.iter().map(|f| f.render_s + f.composite_s).sum::<f64>() / n as f64
    }

    /// Mean per-step backpressure wait on the input processors (exposed,
    /// un-hidden send time of the prefetch runtime; 0 when synchronous).
    pub fn mean_send_wait_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.send_wait_s).sum::<f64>() / n as f64
    }

    /// Number of frames assembled from incomplete data (flagged degraded).
    pub fn degraded_frame_count(&self) -> usize {
        self.degraded.iter().filter(|d| !d.is_empty()).count()
    }
}

/// What every role reads — the paper's one-time set-up as far as all three
/// processor groups need it. `run_pipeline` resolves the configuration
/// once into a `Run` plus one context per role ([`InputCtx`],
/// [`RenderCtx`], [`OutputCtx`]); no role reads the configuration itself.
struct Run {
    /// The dataset being rendered: its mesh, its parfs, and what its values
    /// are normalized by at step `t` ([`Dataset::norm_at`]) — asked at the
    /// quantize, dequantize, render and frame-key sites.
    dataset: Dataset,
    /// The steps to execute (from past 0 when resuming from a checkpoint).
    steps: Range<usize>,
    /// The run's spans and metrics, one track per rank.
    session: Arc<Obs>,
    /// The world's shape and who is what at every step — the one place a
    /// membership question is answered.
    sched: Schedule,
    /// The run's deterministic fault plan — every run has one; without a
    /// spec it is the empty plan, which never fires. It injects, and it is
    /// the one sink of the `recovery.*` counters.
    faults: Arc<FaultPlan>,
    /// Resolved wire configuration: per-class codecs + temporal deltas.
    wire: WireSpec,
    /// Raw-vs-wire byte and encode/decode-time accounting, shared by
    /// every rank thread.
    ledger: Arc<WireLedger>,
    /// The committed epoch state every rank starts from: epoch 0 — the
    /// static partition expressed as an assignment — with a resumed
    /// checkpoint's plan history already applied. Every run carries one;
    /// "control off" only means no tick ever commits a successor.
    elastic: EpochState,
    /// Per-block weights — the workload model the static partition, the
    /// controller's rebalance and the dead-rank overlay all balance over.
    block_weights: Vec<u64>,
    /// The run's two-level cache tier (`None` = caching off), stamped with
    /// the config fingerprint, so a mismatched reuse flushes before any
    /// serve.
    cache: Option<Arc<CacheTier>>,
    /// How long heartbeat waits (input groups, render peers, output
    /// supervision) block before declaring a silent rank dead.
    heartbeat: Duration,
    /// `None` when the run writes no checkpoints.
    checkpoints: Option<Checkpoints>,
}

/// Where and how often a run checkpoints.
struct Checkpoints {
    /// A checkpoint follows every `every`-th step.
    every: usize,
    /// Directory on the dataset's parfs.
    path: String,
    /// Fingerprint of every config field that shapes the frame stream;
    /// stamped into checkpoints and verified on resume.
    fingerprint: u64,
}

impl Run {
    /// The checkpoint settings, when a checkpoint is due after step `t`.
    fn checkpoint_due(&self, t: usize) -> Option<&Checkpoints> {
        self.checkpoints.as_ref().filter(|c| (t + 1).is_multiple_of(c.every))
    }
}

/// What an input rank reads besides the [`Run`]: how a step is fetched,
/// preprocessed and packed, and the LIC surface when the overlay is on.
struct InputCtx {
    /// Node ids of the whole mesh at the render level (no coarser than
    /// the blocks), when the read is pruned to them (adaptive fetch).
    level_ids: Option<Vec<NodeId>>,
    /// Node ids each block is sent — every node its brick plans read at
    /// the render level ([`block_level_nodes`]) — indexed by block id.
    ids_per_block: Vec<Arc<Vec<NodeId>>>,
    /// The rendered octree level, part of every block-cache key.
    level: u8,
    retry: RetryPolicy,
    /// Sleep out `sim_seconds × scale` after every disk read.
    io_delay_scale: Option<f64>,
    enhancement: bool,
    quantize: bool,
    /// Whether the read-ahead stage runs ([`PipelineConfig::prefetch`]).
    read_ahead: bool,
    lic: Option<LicSurface>,
}

/// What a step's LIC overlay is synthesized from.
struct LicSurface {
    /// The texel → node stencil; its nodes are what a step reads.
    sampler: SurfaceSampler,
    noise: Vec<f32>,
    transfer: TransferFunction,
    size: (u32, u32),
}

impl InputCtx {
    /// Sleep out a read's injected I/O delay, `sim_seconds × scale`, and
    /// charge it to the read: the delay stands in for real disk time.
    fn inject_io_delay(&self, stats: &mut ReadStats) {
        let delay = stats.sim_seconds * self.io_delay_scale.unwrap_or(0.0);
        if delay > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay));
            stats.real_seconds += delay;
        }
    }
}

/// What a render rank reads besides the [`Run`].
struct RenderCtx {
    /// Per block id, what rendering it costs besides the field: its
    /// resampling stencils and ray table under this run's level and camera.
    plans: Vec<BrickPlan>,
    camera: Camera,
    transfer: TransferFunction,
    params: RenderParams,
    /// Block ids front-to-back for the camera.
    order_ids: Vec<u32>,
    ids_per_block: Vec<Arc<Vec<NodeId>>>,
    /// Checkpointed last-known-good fields by render-group rank, loaded
    /// up-front on resume (empty otherwise).
    resume_fields: Vec<Option<Vec<f32>>>,
    /// How long a renderer waits for a step's data before it degrades the
    /// step; `None` blocks (see `run_pipeline`).
    deadline: Option<Duration>,
    size: (u32, u32),
    /// What the render root needs when it assumes frame assembly.
    keep_frames: bool,
    lic: bool,
}

/// What the output rank reads besides the [`Run`]: the hosted controller's
/// seed and the frame-cache identity of the run's frames — what their
/// pixels depend on besides step and normalization.
struct OutputCtx {
    /// With control off, a period of 0: a controller that never ticks.
    control: ControlConfig,
    /// Committed plans restored from the resumed checkpoint: the prefix of
    /// the controller's history.
    resume_plans: Vec<ControlPlan>,
    keep_frames: bool,
    size: (u32, u32),
    level: u8,
    camera_hash: u64,
    transfer: TransferFunction,
    quantize: bool,
    lighting: bool,
    /// Whether frames carry the LIC overlay.
    lic: bool,
}

impl OutputCtx {
    /// Frame-cache key of step `t`. Never waits: a step a live dataset has
    /// not published yet has no key, which every caller treats as a miss.
    fn frame_key(&self, dataset: &Dataset, t: usize) -> Option<FrameKey> {
        let norm = dataset.norm_if_published(t)?;
        let tf_hash =
            crate::cache::tf_hash(&self.transfer, self.quantize, self.lighting, self.lic, norm);
        Some(FrameKey { step: t as u32, level: self.level, camera_hash: self.camera_hash, tf_hash })
    }
}

/// Resolve the run's fault plan and membership schedule — every run has
/// both: from [`PipelineConfig::faults`] (its timeline validated hard, with
/// a typed [`membership::FaultConfigError`]), else from the empty spec,
/// whose plan never fires and whose schedule never changes.
fn resolve_faults(
    config: &PipelineConfig,
    steps: usize,
) -> Result<(Arc<FaultPlan>, Schedule), String> {
    let spec = config.faults.clone().unwrap_or_default();
    let (groups, per_group) = config.io.shape();
    let shape = WorldShape {
        groups,
        per_group,
        renderers: config.renderers,
        spares: config.spare_renderers,
    };
    let sched =
        Schedule::new(&spec.rank_timeline, spec.fail_controller, shape, config.control, steps)
            .map_err(|e| e.to_string())?;
    Ok((FaultPlan::new(spec), sched))
}

/// FNV-1a fingerprint of every configuration field that shapes the frame
/// stream (processor counts, octree levels, image geometry, preprocessing
/// flags, camera) and of the run's fault spec. `max_steps`, checkpoint settings and the prefetch flag are
/// deliberately excluded: a run killed early and a run resumed to the end
/// must agree with the uninterrupted run's checkpoint. The literal
/// `IndependentContiguous` is the read strategy every fingerprint has
/// always hashed: every run reads that way.
fn config_fingerprint(config: &PipelineConfig, level: u8, camera: &Camera) -> u64 {
    let desc = format!(
        "{}+{};{:?};IndependentContiguous;{}x{};lvl{};blk{};l{}e{}lic{}q{}af{};{:?};{:?};{};{:?}",
        config.renderers,
        config.spare_renderers,
        config.io,
        config.width,
        config.height,
        level,
        config.block_level,
        config.lighting as u8,
        config.enhancement as u8,
        config.lic as u8,
        config.quantize as u8,
        config.adaptive_fetch as u8,
        camera,
        config.retry,
        config.deadline_ms,
        config.faults,
    );
    Fnv1a::pipeline().bytes(desc.bytes()).finish()
}

/// Read and validate the latest checkpoint: the manifest (version,
/// checksum, fingerprint, shape) and every field snapshot it names.
/// Returns `(next_step, fields by render-group rank, committed elastic
/// plans)`.
#[allow(clippy::type_complexity)]
fn load_checkpoint(
    disk: &quakeviz_parfs::Disk,
    base: &str,
    fingerprint: u64,
    n_renderers: usize,
    node_count: usize,
    steps: usize,
) -> Result<(usize, Vec<Option<Vec<f32>>>, Vec<ControlPlan>), CheckpointError> {
    let manifest = checkpoint::load_manifest(disk, base, fingerprint)?;
    if manifest.block_map.len() != n_renderers {
        return Err(CheckpointError::ShapeMismatch {
            detail: format!(
                "checkpoint maps blocks over {} render ranks, this run has {}",
                manifest.block_map.len(),
                n_renderers
            ),
        });
    }
    if manifest.next_step > steps {
        return Err(CheckpointError::ShapeMismatch {
            detail: format!(
                "checkpoint resumes at step {} but the run has only {} steps",
                manifest.next_step, steps
            ),
        });
    }
    let mut fields: Vec<Option<Vec<f32>>> = vec![None; n_renderers];
    for &(rr, ck) in &manifest.fields {
        let slot = fields.get_mut(rr as usize).ok_or_else(|| CheckpointError::FieldInvalid {
            path: checkpoint::field_path(base, manifest.next_step, rr as usize),
        })?;
        *slot = Some(checkpoint::load_field(disk, base, manifest.next_step, rr, ck, node_count)?);
    }
    Ok((manifest.next_step, fields, manifest.plans))
}

/// Run the pipeline for `dataset` under `config`.
pub fn run_pipeline(dataset: &Dataset, config: PipelineConfig) -> Result<PipelineReport, String> {
    config.io.validate()?;
    if config.renderers == 0 {
        return Err("need at least one rendering processor".into());
    }
    let steps = config.max_steps.map_or(dataset.steps(), |m| m.min(dataset.steps()));
    if steps == 0 {
        return Err("dataset has no time steps".into());
    }
    if config.checkpoint_every == Some(0) {
        return Err("checkpoint interval must be at least one step".into());
    }
    let (_, per_group) = config.io.shape();
    let nodes = dataset.mesh().node_count();
    if per_group > nodes {
        return Err(format!(
            "2DIP group width {per_group} exceeds the mesh's {nodes} nodes — \
             members would own empty slices"
        ));
    }
    if let Some(ctl) = &config.control {
        if ctl.every == 0 {
            return Err("elastic control tick period must be at least one step".into());
        }
        if ctl.reshape && per_group < 2 {
            return Err("elastic reshape requires 2DIP groups of at least two members, so \
                 a narrowed input width still covers every node slice"
                .into());
        }
    }
    if config.spare_renderers > 0 && config.control.is_none() {
        return Err("spare rendering processors need the elastic control plane: a \
             parked spare only joins the run through an admit plan committed at a \
             controller tick"
            .into());
    }

    let mesh = dataset.mesh();
    let octree = mesh.octree();
    let max_level = octree.max_leaf_level();
    let level = config
        .level
        .unwrap_or_else(|| {
            AdaptivePolicy::default().choose_level(octree, config.width, config.height)
        })
        .min(max_level);
    let block_level = config.block_level.min(max_level);
    let blocks = octree.blocks(block_level);
    let extent = octree.extent();
    let camera = config.camera.clone().unwrap_or_else(|| {
        Camera::default_for(&Aabb::from_extent(extent), config.width, config.height)
    });

    let (faults, sched) = resolve_faults(&config, steps)?;
    let total_renderers = sched.n_renderers();
    // the wire spec and the cache tier are deliberately *not* part of the
    // fingerprint: decoded payloads and cached data are bit-identical to
    // the raw, cache-off path, so checkpoints stay interchangeable across
    // both
    let fingerprint = config_fingerprint(&config, level, &camera);
    let (start_step, resume_fields, resume_plans) = if config.resume {
        load_checkpoint(
            dataset.disk(),
            &config.checkpoint_path,
            fingerprint,
            total_renderers,
            mesh.node_count(),
            steps,
        )
        .map_err(|e| format!("cannot resume: {e}"))?
    } else {
        (0, Vec::new(), Vec::new())
    };

    let cache = config.cache_tier.clone();
    // a tier reused under a different fingerprint flushes both levels
    // first: checkpoint-resume under changed settings never sees stale
    // data, and the resolved fault schedule is part of the fingerprint, so
    // runs with different fault luck never share entries either
    if let Some(tier) = &cache {
        tier.stamp(fingerprint);
    }
    let ost_base = dataset.disk().ost_stats();
    let cache_base = cache.as_ref().map(|t| t.counters()).unwrap_or_default();

    // epoch 0 is the static partition — LPT over the cell-count workload
    // model, the same weights the controller's rebalance and the
    // dead-rank overlay balance over — expressed as an assignment over
    // the active prefix; spares sit past it with empty assignments until
    // an admit plan grows it. A resumed run starts from its checkpoint's
    // committed plan history instead.
    let block_weights: Vec<u64> =
        blocks.iter().map(|b| WorkloadModel::CellCount.weight(mesh, b)).collect();
    let partition = Partition::balanced_weighted(&blocks, &block_weights, config.renderers);
    let mut assignment: Vec<Vec<u32>> =
        (0..config.renderers).map(|r| partition.blocks_of(r).to_vec()).collect();
    assignment.resize(total_renderers, Vec::new());
    let mut elastic = EpochState::with_active(assignment, config.renderers, per_group);
    for plan in &resume_plans {
        elastic.apply(plan);
    }

    let checkpoints = config.checkpoint_every.map(|every| Checkpoints {
        every,
        path: config.checkpoint_path.clone(),
        fingerprint,
    });
    let run = Run {
        dataset: dataset.clone(),
        steps: start_step..steps,
        session: Obs::new(config.trace || Obs::detail_from_env()),
        sched: sched.resumed_at(start_step),
        faults,
        wire: config.wire.clone(),
        ledger: Arc::new(WireLedger::new()),
        elastic,
        block_weights,
        cache,
        heartbeat: Duration::from_millis(config.heartbeat_timeout_ms.unwrap_or(config.deadline_ms)),
        checkpoints,
    };
    let out = OutputCtx {
        control: config.control.unwrap_or(ControlConfig::every(0)),
        resume_plans,
        keep_frames: config.keep_frames,
        size: (config.width, config.height),
        level,
        camera_hash: crate::cache::camera_hash(&camera),
        transfer: config.transfer.clone(),
        quantize: config.quantize,
        lighting: config.lighting,
        lic: config.lic,
    };
    // all-or-nothing warm serving: frames come from the cache only when
    // *every* executed step is present (only clean frames are ever
    // cached), so a partially-warm run recomputes everything — with
    // block-cache help — instead of mixing cached and stale-state frames.
    // The probe leaves a cold run's counters alone; a warm one then takes
    // every frame, checksum-verified, and if one fails the run renders
    let key = |t| out.frame_key(&run.dataset, t);
    let warm = run.cache.as_ref().filter(|tier| {
        tier.frames.enabled()
            && run.steps.clone().all(|t| key(t).is_some_and(|key| tier.frames.contains(key)))
    });
    let warm = warm.and_then(|tier| {
        let frames = run.steps.clone().map(|t| key(t).and_then(|key| tier.frames.get(key)));
        frames.collect::<Option<Vec<_>>>()
    });

    let world = run.sched.world();
    if config.profile {
        // config wins over the QUAKEVIZ_PROF env default
        quakeviz_rt::obs::prof::set_enabled(true);
    }
    let stats = TrafficStats::with_matrix(world, proto::classify_tag);
    let (results, plan_bytes) = if let Some(frames) = warm {
        (vec![replay(&run, &out, frames)], 0)
    } else {
        // every block is sent the nodes its brick plans read at the
        // render level, whatever the disk read fetched: `adaptive_fetch`
        // prunes the read, not the routing
        let ids_per_block: Vec<Arc<Vec<NodeId>>> =
            blocks.iter().map(|b| Arc::new(block_level_nodes(mesh, b, Some(level)))).collect();
        let input = InputCtx {
            // a block is read no coarser than its root level: the whole
            // level's nodes there hold every routed list
            level_ids: config.adaptive_fetch.then(|| level_node_ids(mesh, level.max(block_level))),
            ids_per_block: ids_per_block.clone(),
            level,
            retry: config.retry,
            io_delay_scale: config.io_delay_scale,
            enhancement: config.enhancement,
            quantize: config.quantize,
            read_ahead: config.prefetch,
            lic: config.lic.then(|| {
                let (qt, _) = Quadtree::from_surface_nodes(mesh);
                LicSurface {
                    sampler: SurfaceSampler::new(mesh, &qt, config.width, config.height),
                    noise: white_noise(config.width, config.height, 0x5eed),
                    transfer: config.transfer.clone(),
                    size: (config.width, config.height),
                }
            }),
        };
        // the delivery deadline is armed iff the plan can inject anything.
        // Under a plan that cannot (`None`) data can only be slow, never
        // lost: the renderer blocks, under the comm layer's deadlock guard,
        // and a slow read never degrades a frame. When the plan kills a
        // member of a 2DIP input group, the survivors spend one heartbeat
        // deadline finding out before they can re-read its slice: that
        // step's data is late by that much by construction, so the wait
        // allows for it on top of the configured delivery time — else
        // whether the failover shows in the frame depends on how long the
        // renderers happened to be busy meanwhile.
        let deadline = run.faults.spec().can_inject().then(|| {
            let input_kill = run.sched.kill_role() == Some(Role::Input);
            let detection = if input_kill { run.heartbeat } else { Duration::ZERO };
            Duration::from_millis(config.deadline_ms) + detection
        });
        let order = front_to_back_order(&blocks, extent, camera.eye);
        let render = RenderCtx {
            // nothing a brick plan depends on changes within a run: elastic
            // plans and failover only change which rank reads a block's plan
            plans: blocks.iter().map(|b| BrickPlan::new(mesh, b, level, &camera)).collect(),
            camera,
            transfer: config.transfer.clone(),
            params: RenderParams {
                lighting: config.lighting.then(LightingParams::default),
                opacity_unit: Some(extent.max_component() / 64.0),
                ..Default::default()
            },
            order_ids: order.into_iter().map(|i| blocks[i].id).collect(),
            ids_per_block,
            resume_fields,
            deadline,
            size: (config.width, config.height),
            keep_frames: config.keep_frames,
            lic: config.lic,
        };
        let plan_bytes = render.plans.iter().map(BrickPlan::bytes).sum();
        let (run, roles) = (&run, (&input, &render, &out));
        let faults = Some(Arc::clone(&run.faults));
        let results = World::run_faulted(world, Arc::clone(&stats), faults, move |comm| {
            rank_main(comm, run, roles)
        });
        (results, plan_bytes)
    };

    // assemble
    let mut input_steps = Vec::new();
    let mut render_frames = Vec::new();
    let mut render_rank_seconds = Vec::new();
    let mut delivered = None;
    let mut control_plans = Vec::new();
    let mut control_ticks = 0;
    let mut takeover_tail = None;
    for r in results {
        match r {
            RankResult::Input(v) => input_steps.extend(v),
            RankResult::Render { timings: v, takeover } => {
                render_rank_seconds.push(v.iter().map(|f| f.render_s).sum::<f64>());
                render_frames.extend(v);
                takeover_tail = takeover_tail.or(takeover);
            }
            RankResult::Output { sink, plans, ticks } => {
                delivered = Some(sink);
                control_plans = plans;
                control_ticks = ticks;
            }
        }
    }
    let Some(FrameSink {
        mut frames, done_at: mut frame_done, mut degraded, mut checkpoints, ..
    }) = delivered
    else {
        return Err("the output processor returned no frames".into());
    };
    // splice the supervisor's output-failover frames after the dead
    // output rank's own: the stream continues without a gap
    if let Some(tk) = takeover_tail {
        frames.extend(tk.frames);
        frame_done.extend(tk.done_at);
        degraded.extend(tk.degraded);
        checkpoints += tk.checkpoints;
    }
    // the run's metrics: one table, built here once the ranks have joined,
    // from every counter table of the run, zero rows left out — injected
    // faults, recovery actions, per-class traffic and raw-vs-wire bytes,
    // and, as *this run's* deltas (a shared tier or disk accumulates
    // across runs), the cache tier and the per-OST counters of a sharded
    // disk — plus what the assembled report itself counts
    let rec = run.faults.recovery();
    let named = |(name, v): (&str, u64)| (name.to_string(), v);
    let n_frames = frame_done.len() as u64;
    let frame_bytes = n_frames * u64::from(config.width) * u64::from(config.height) * 16;
    let osts = dataset.disk().ost_stats();
    let rows = (run.faults.named_counts())
        .chain(rec.named().map(named))
        .chain(
            [
                ("checkpoint.commits", checkpoints),
                ("control.plans_committed", control_plans.len() as u64),
                ("control.ticks", control_ticks),
                ("pipeline.frames", n_frames),
                ("pipeline.frame_bytes", frame_bytes),
                ("render.plan_bytes", plan_bytes),
            ]
            .map(named),
        )
        .chain(stats.named())
        .chain(run.ledger.named())
        .chain(
            run.cache.iter().flat_map(|tier| tier.counters().named_since(&cache_base).map(named)),
        )
        .chain(
            osts.iter().enumerate().flat_map(|(i, st)| {
                st.named_since(i, &ost_base.get(i).copied().unwrap_or_default())
            }),
        );
    let mut metrics: BTreeMap<String, u64> = rows.filter(|&(_, v)| v > 0).collect();
    // the report's recovery section exists when a fault spec was given
    let (fault_events, recovery) = (run.faults.events(), config.faults.is_some().then_some(rec));
    // per-render-rank utilization: each rank's Render-phase busy time
    // against the per-step makespan (the slowest rank each step), in
    // permille so the counters stay integral. This is the number the
    // elastic control plane exists to move — rebalancing narrows the
    // spread between the busiest and idlest render rank.
    let busy = render_us(&run);
    let mut makespan: HashMap<u32, u64> = HashMap::new();
    for (&t, &us) in busy.iter().flatten() {
        let slowest = makespan.entry(t).or_insert(0);
        *slowest = us.max(*slowest);
    }
    let total: u64 = makespan.values().sum();
    // (no render spans recorded at all: nothing to publish)
    if total > 0 {
        let permille = busy.iter().map(|per_step| per_step.values().sum::<u64>() * 1000 / total);
        let mut sum = 0;
        for (rr, permille) in permille.enumerate() {
            metrics.insert(format!("pipeline.render_utilization.r{rr}"), permille);
            sum += permille;
        }
        let mean = sum / busy.len() as u64;
        metrics.insert("pipeline.render_utilization.mean".into(), mean);
    }
    let trace = TraceData { metrics, ..run.session.snapshot(Some(&stats)) };
    write_trace_if_requested(&trace);
    Ok(PipelineReport {
        frames,
        frame_done,
        input_steps,
        render_frames,
        renderers: run.sched.n_renderers(),
        input_procs: run.sched.n_inputs(),
        prefetch: config.prefetch,
        level,
        messages: stats.messages(),
        bytes_sent: stats.bytes(),
        render_rank_seconds,
        traffic: stats.edges(),
        trace,
        degraded,
        fault_events,
        recovery,
        checkpoints,
        resumed_from: config.resume.then_some(run.steps.start),
        wire: run.ledger.snapshot(),
        wire_spec: run.wire.describe(),
        control_plans,
    })
}

/// When `QUAKEVIZ_TRACE` names a file (contains `/` or ends in `.json`),
/// dump the Chrome trace there plus span/traffic CSVs next to it.
fn write_trace_if_requested(trace: &TraceData) {
    let Ok(path) = std::env::var("QUAKEVIZ_TRACE") else {
        return;
    };
    if !(path.contains('/') || path.ends_with(".json")) {
        return;
    }
    let stem = path.strip_suffix(".json").unwrap_or(&path);
    if let Err(e) = std::fs::write(&path, trace.chrome_trace_json()) {
        eprintln!("quakeviz: cannot write trace {path}: {e}");
        return;
    }
    let _ = std::fs::write(format!("{stem}.spans.csv"), trace.csv());
    let _ = std::fs::write(format!("{stem}.traffic.csv"), trace.traffic_csv());
}

fn rank_main(comm: Comm, run: &Run, roles: (&InputCtx, &RenderCtx, &OutputCtx)) -> RankResult {
    let (input, render, out) = roles;
    let me = comm.rank();
    let role = run.sched.role(me);
    let group = match role {
        Role::Input => "input",
        Role::Render => "render",
        Role::Output => "output",
    };
    let _rec = run.session.attach(me, group);
    comm.barrier();
    let start = Instant::now();
    match role {
        Role::Input => RankResult::Input(input_main(&comm, run, input)),
        Role::Render => render_main(&comm, run, render, start),
        Role::Output => output_main(&comm, run, out, start),
    }
}

/// A warm replay: every frame of the run was served, checksum-verified,
/// from the frame cache under this exact (camera, transfer, level)
/// identity, so no rank runs — nothing is read, rendered, injected,
/// checkpointed or ticked — and `frames` are delivered on the output
/// rank's track: the same delivery stamps and frame rows, no traffic.
fn replay(run: &Run, out: &OutputCtx, frames: Vec<RgbaImage>) -> RankResult {
    let _rec = run.session.attach(run.sched.output_rank(), "output");
    let mut sink = FrameSink::open(run, out.keep_frames, Instant::now());
    for (t, img) in run.steps.clone().zip(frames) {
        let _sp = obs::span(Phase::Assemble, t as u32);
        sink.deliver(run, img, Vec::new());
    }
    RankResult::Output { sink, plans: Vec::new(), ticks: 0 }
}

/// Seconds spent per `(phase, step)`, summed in one pass over this thread's
/// recorded spans — the pipeline's timing structs are *derived* from the
/// span stream instead of a second set of hand-rolled `Instant` timers.
fn phase_seconds() -> impl Fn(Phase, usize) -> f64 {
    let mut sums: HashMap<(Phase, u32), f64> = HashMap::new();
    for e in obs::current_events() {
        *sums.entry((e.phase, e.step)).or_default() += e.dur_us as f64 / 1e6;
    }
    move |phase, step| sums.get(&(phase, step as u32)).copied().unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// input processors
// ---------------------------------------------------------------------

/// Which steps an input rank owns and which ranks it reads them with —
/// fixed for the run. What it fetches of a step is the step's
/// [`SliceFetch`].
struct InputPlan {
    my_steps: Vec<usize>,
    /// World ranks of my read group: my 2DIP group, or just me under 1DIP.
    group: std::ops::Range<usize>,
    /// `(lane, lanes)`: which of the interleaved step streams this rank
    /// feeds — its rank under 1DIP, its group under 2DIP.
    lane: (usize, usize),
    /// Whether this lane's first prepare has happened.
    staggered: AtomicBool,
}

impl InputPlan {
    /// [`prepare_step`] under `sf`, staggering the lanes once. Every lane
    /// starts reading at once, so unless render back-pressure happens to
    /// spread them the lanes deliver their steps in bursts of `lanes` —
    /// invisible while rendering paces the run, a `lanes`-fold swing of
    /// the interframe delay once input does. So the lane's first step is
    /// held back `lane/lanes` of the time it took to prepare, *on the
    /// thread that prepared it* (the read-ahead worker when there is one):
    /// that shifts the lane's whole read schedule, and from then on the
    /// lanes interleave whole steps, as [`crate::model::prefetch_delay`]
    /// assumes.
    fn prepare(
        &self,
        run: &Run,
        input: &InputCtx,
        sf: &SliceFetch,
        t: usize,
    ) -> (Option<Vec<f32>>, ReadStats) {
        let t0 = Instant::now();
        let prepared = prepare_step(run, input, sf, t);
        let (lane, lanes) = self.lane;
        if !self.staggered.swap(true, Ordering::Relaxed) && lane > 0 {
            std::thread::sleep(t0.elapsed().mul_f64(lane as f64 / lanes as f64));
        }
        prepared
    }
}

fn input_plan(me: usize, run: &Run) -> InputPlan {
    // step ownership is keyed by the *absolute* step index, so a resumed
    // run assigns each remaining step to the same rank the uninterrupted
    // run would
    let WorldShape { groups, per_group, .. } = run.sched.shape();
    let g = me / per_group;
    let (lane, group) = ((g, groups), g * per_group..(g + 1) * per_group);
    let my_steps = run.steps.clone().filter(|t| t % lane.1 == lane.0).collect();
    InputPlan { my_steps, group, lane, staggered: AtomicBool::new(false) }
}

/// `(index, live width)`: this reader is the `index`-th of the `live
/// width` members of its group that share a step's read.
type Slice = (usize, usize);

/// What a reader fetches of every step under one [`Slice`], and which of
/// the fetched nodes it ships.
struct SliceFetch {
    slice: Slice,
    fetch: FetchPlan,
    /// `fetch`'s block-cache identity ([`fetch_identity`]), hashed once
    /// here when the run has a block cache.
    cache_id: Option<u32>,
    /// Value range of my node ids, for piece extraction; `None` means a
    /// solo reader holding every needed node (whole-block sends).
    span: Option<(NodeId, NodeId)>,
}

/// The one slice function (§5.3.2): the fetch set — the level's node ids
/// under adaptive fetch, else the whole node array — cut into `live`
/// contiguous parts, of which this reader takes the `idx`-th. The static
/// plan is the full group; a group shrunk by failover or narrowed by an
/// elastic reshape re-slices over its live members with the same
/// arithmetic, so it computes bit-identical values.
fn slice_fetch(run: &Run, input: &InputCtx, slice @ (idx, live): Slice) -> SliceFetch {
    let (fetch, span) = match &input.level_ids {
        _ if live == 1 => (FetchPlan { ids: input.level_ids.clone(), range: None }, None),
        Some(lvl) => {
            let (a, b) = member_node_range(lvl.len(), idx, live);
            let ids = lvl[a..b].to_vec();
            let span = match (ids.first(), ids.last()) {
                (Some(&lo), Some(&hi)) => (lo, hi + 1),
                _ => (0, 0),
            };
            (FetchPlan { ids: Some(ids), range: None }, Some(span))
        }
        None => {
            let (a, b) = member_node_range(run.dataset.mesh().node_count(), idx, live);
            (FetchPlan { ids: None, range: Some((a, b)) }, Some((a as NodeId, b as NodeId)))
        }
    };
    let cache_id =
        run.cache.as_ref().filter(|tier| tier.blocks.enabled()).map(|_| fetch_identity(&fetch));
    SliceFetch { slice, fetch, cache_id, span }
}

/// Block-cache identity of a fetch plan: a 32-bit FNV digest of exactly
/// which nodes it covers (explicit id list or contiguous range), so two
/// plans share a cache entry iff they fetch the same data.
fn fetch_identity(plan: &FetchPlan) -> u32 {
    let h = Fnv1a::pipeline();
    let h = match (&plan.ids, plan.range) {
        (Some(ids), _) => h.words([1, ids.len() as u64]).words(ids.iter().map(|&id| id as u64)),
        (None, Some((a, b))) => h.words([2, a as u64, b as u64]),
        (None, None) => h.words([3]),
    }
    .finish();
    (h as u32) ^ ((h >> 32) as u32)
}

/// Per-node velocity magnitudes of the step plus the stats of getting
/// them, reduced from the bytes the store lends
/// ([`FetchPlan::read_magnitudes`]). `Err` means the read failed for good
/// (retries exhausted under the fault plan, or a malformed step file);
/// nothing is charged to the step's stats.
fn fetch_step(
    run: &Run,
    input: &InputCtx,
    t: usize,
    sf: &SliceFetch,
) -> Result<(Vec<f32>, ReadStats), ReadError> {
    let cached = run.cache.as_ref().zip(sf.cache_id).map(|(tier, block)| {
        (&tier.blocks, BlockKey { step: t as u32, block, level: input.level })
    });
    if let Some((blocks, key)) = &cached {
        if let Some(mag) = blocks.get(*key) {
            // a checksum-verified hit skips the disk entirely: no
            // simulated cost, no fault roll (rolls are stateless per
            // site, so skipping one cannot shift another read's luck),
            // no injected delay
            return Ok((mag.as_ref().clone(), ReadStats::default()));
        }
    }
    let ctx = FaultCtx { plan: &run.faults, retry: input.retry, step: t as u32 };
    let (disk, mesh) = (run.dataset.disk(), run.dataset.mesh());
    let (mag, mut stats) = sf.fetch.read_magnitudes(disk, mesh, t, 1 << 16, Some(&ctx))?;
    input.inject_io_delay(&mut stats);
    // only fully successful fetches are cached — a hit can therefore
    // never mask the recovery path a cache-off run would have taken
    if let Some((blocks, key)) = cached {
        blocks.insert(key, Arc::new(mag.clone()));
    }
    Ok((mag, stats))
}

/// Read + preprocess one step into the enhanced magnitude field — the
/// same call on the rank thread and on the read-ahead worker, so both
/// compute bit-identical values. `None` means the step's data
/// could not be read (retries exhausted): the caller ships explicit
/// *missing* pieces instead of values and the frame degrades downstream.
fn prepare_step(
    run: &Run,
    input: &InputCtx,
    sf: &SliceFetch,
    t: usize,
) -> (Option<Vec<f32>>, ReadStats) {
    let mut sp = obs::span(Phase::Read, t as u32);
    let Ok((mut mag, mut stats)) = fetch_step(run, input, t, sf) else {
        return (None, ReadStats::default());
    };
    sp.add_bytes(stats.useful_bytes);
    drop(sp);

    // preprocessing: optional temporal enhancement (the magnitudes come
    // with the read; the previous step's re-fetch is disk time, so it gets
    // a Read span of its own rather than inflating Preprocess)
    if input.enhancement && t > 0 {
        let mut sp = obs::span(Phase::Read, t as u32);
        // enhancement needs the previous step too: if that read fails the
        // enhanced field cannot be computed and the whole step is missing
        let Ok((prev_mag, prev_stats)) = fetch_step(run, input, t - 1, sf) else {
            return (None, stats);
        };
        sp.add_bytes(prev_stats.useful_bytes);
        drop(sp);
        stats.accumulate(&prev_stats);
        let pp = obs::span(Phase::Preprocess, t as u32);
        mag = TemporalEnhance::default()
            .apply(&NodeField::new(mag), Some(&NodeField::new(prev_mag)), None)
            .values()
            .to_vec();
        drop(pp);
    }
    (Some(mag), stats)
}

/// Pack the per-renderer block batches for one prepared step: every
/// message is a batch of checksummed [`WirePiece`]s — whole blocks
/// (offset 0) for solo readers, slice intersections for 2DIP group
/// members. `mag = None` (the read failed for good) packs *missing*
/// pieces of the right lengths instead of values. Each piece goes through
/// the temporal-delta + codec layer of [`pack_piece`] against `delta`,
/// the sender's per-destination state. When the fault plan scripts wire
/// corruption for a message, one encoded-body bit is flipped *after* the
/// checksum was computed, so the receiver's verify catches it — for
/// every codec, since the checksum covers the encoded bytes. Returns
/// `(destination rank, batch, wire bytes)`.
#[allow(clippy::too_many_arguments)]
fn pack_batches(
    run: &Run,
    input: &InputCtx,
    state: &EpochState,
    my_span: Option<(NodeId, NodeId)>,
    mag: Option<&[f32]>,
    me: usize,
    t: usize,
    delta: &mut DeltaMap,
) -> Vec<(usize, BlockBatch, u64)> {
    // route by the step's ownership under the caller's committed epoch
    // state: a rank scripted dead at `t` receives nothing, its blocks go
    // to the live active ranks
    let routes = run.sched.owners(state, t, &run.block_weights);
    let scale = run.dataset.norm_at(t);
    let mut out = Vec::with_capacity(routes.len());
    for (r, blocks) in &routes {
        let dst = run.sched.render_rank(*r);
        // the lossy transport completes a dropped send locally, so the
        // sender knows this batch will never arrive: pack it without
        // advancing delta state, and the next real send deltas against
        // the last bytes the receiver actually holds — degradation stays
        // codec-invariant under message loss
        let delivered = !run.faults.send_will_drop(me, dst, DATA.tag(t));
        let t0 = Instant::now();
        let mut enc_sp = obs::auto_span(Phase::Encode, t as u32);
        let (mut raw_bytes, mut keyframes, mut deltas) = (0u64, 0u64, 0u64);
        let mut batch: BlockBatch = Vec::new();
        for &bid in blocks {
            let ids = &input.ids_per_block[bid as usize];
            let (a, b) = match my_span {
                None => (0, ids.len()),
                Some((lo, hi)) => {
                    (ids.partition_point(|&id| id < lo), ids.partition_point(|&id| id < hi))
                }
            };
            if a < b {
                let piece = match mag {
                    Some(mag) => {
                        let (kind, raw) = gather_values(mag, &ids[a..b], input.quantize, scale);
                        pack_piece(
                            &run.wire,
                            (dst, bid, a as u32),
                            kind,
                            raw,
                            t as u32,
                            delta,
                            delivered,
                        )
                    }
                    None => missing_piece(bid, a as u32, (b - a) as u32),
                };
                raw_bytes += piece.raw_len as u64;
                if piece.base_step == KEYFRAME {
                    keyframes += 1;
                } else {
                    deltas += 1;
                }
                batch.push(piece);
            }
        }
        if let Some(seed) = run.faults.wire_corrupt(me, dst, DATA.tag(t)) {
            corrupt_one_bit(&mut batch, seed);
        }
        let bytes: u64 = batch.iter().map(|p| p.body.len() as u64).sum();
        enc_sp.add_bytes(bytes);
        let ns = t0.elapsed().as_nanos() as u64;
        run.ledger.record_send(TagClass::BlockData, raw_bytes, bytes, ns);
        run.ledger.record_pieces(TagClass::BlockData, keyframes, deltas);
        out.push((dst, batch, bytes));
    }
    out
}

/// Flip one deterministically-chosen bit of a batch's encoded wire bodies
/// (the wire corruption model). Works uniformly for every codec and for
/// delta pieces, because the checksum guards the encoded bytes.
fn corrupt_one_bit(batch: &mut BlockBatch, seed: u64) {
    let total: usize = batch.iter().map(|p| p.body.len() * 8).sum();
    if total == 0 {
        return;
    }
    let mut k = (seed % total as u64) as usize;
    for piece in batch.iter_mut() {
        let bits = piece.body.len() * 8;
        if k < bits {
            piece.body[k / 8] ^= 1 << (k % 8);
            return;
        }
        k -= bits;
    }
}

/// LIC overlay for step `t`, synthesized and shipped by the step's lead
/// input processor. The surface read stays inside the Lic span (in detail
/// sessions the nested IoRead auto span shows it).
fn lic_step(comm: &Comm, run: &Run, input: &InputCtx, t: usize, read: &mut ReadStats) {
    let Some(lic) = &input.lic else {
        return;
    };
    // the overlay goes to whichever rank assembles this step's frame
    let output_rank = run.sched.frame_dst(t);
    let mut lic_sp = obs::span(Phase::Lic, t as u32);
    // surface vectors: read explicitly (they may not be in the adaptive
    // fetch set or my slice); when the read fails for good the overlay
    // degrades to a transparent image and the frame is flagged
    let ctx = FaultCtx { plan: &run.faults, retry: input.retry, step: t as u32 };
    let (disk, mesh) = (run.dataset.disk(), run.dataset.mesh());
    let ids = lic.sampler.nodes();
    let (img, missing) = match reader::read_node_vectors(disk, mesh, t, ids, 1 << 16, Some(&ctx)) {
        Err(_) => (RgbaImage::new(lic.size.0, lic.size.1), true),
        Ok((surface, mut surf_stats)) => {
            input.inject_io_delay(&mut surf_stats);
            read.accumulate(&surf_stats);
            let reg = lic.sampler.sample(&surface);
            // normalize by the surface maximum (surface motion is far
            // weaker than the 3D peak at the hypocentre)
            let max = reg.max_magnitude();
            let phase = (t as f64 * 0.08) % 1.0;
            let params = LicParams { phase: Some(phase), ..Default::default() };
            let gray = compute_lic_with_max(&reg, &lic.noise, &params, max);
            (colorize(&reg, &gray, &lic.transfer, max), false)
        }
    };
    let msg = encode_image(&run.wire, &run.ledger, TagClass::LicImage, t as u32, img);
    lic_sp.add_bytes(msg.wire_bytes());
    drop(lic_sp);
    LIC.send(comm, output_rank, t, (msg, missing));
}

/// A step the read-ahead worker prepared, stamped with the slice it was
/// prepared under.
struct Prepared {
    t: usize,
    slice: Slice,
    mag: Option<Vec<f32>>,
    stats: ReadStats,
}

/// How many owned steps past the current one the read-ahead worker is
/// asked for and, equally, how many steps' block sends may be in flight
/// before the rank thread waits for the oldest.
const PREFETCH_SLOTS: usize = 2;

/// The rank thread's end of the read-ahead stage — all `prefetch(true)`
/// adds to the input loop. Two unbounded queues, bounded by the asking:
/// `(step, slice)` requests out, [`Prepared`] steps back, both in step
/// order.
struct ReadAhead {
    ask: Sender<(usize, Arc<SliceFetch>)>,
    ready: Receiver<Prepared>,
    /// Index into `my_steps` of the first step not asked for yet.
    next: usize,
}

impl ReadAhead {
    /// Ask, under this step's slice, for every owned step up to
    /// [`PREFETCH_SLOTS`] past `my_steps[i]` that was not asked for yet —
    /// never one inside a scripted death window of this rank — and take
    /// step `my_steps[i]`. `None` sends the caller to the inline prepare:
    /// the worker is dead (scripted `fail_prefetch`, or a contained
    /// panic), or it prepared the step under a slice that a failover,
    /// rejoin or reshape has since replaced.
    fn take(
        &mut self,
        run: &Run,
        plan: &InputPlan,
        me: usize,
        i: usize,
        sf: &Arc<SliceFetch>,
    ) -> Option<Prepared> {
        self.next = self.next.max(i);
        while self.next < plan.my_steps.len() && self.next <= i + PREFETCH_SLOTS {
            let u = plan.my_steps[self.next];
            self.next += 1;
            if run.sched.presence(me, u).active() {
                // a dead worker shows on the `ready` side
                let _ = self.ask.send((u, Arc::clone(sf)));
            }
        }
        // results for steps this rank asked for and then sat out come first
        let p = self.ready.iter().find(|p| p.t >= plan.my_steps[i])?;
        (p.slice == sf.slice).then_some(p)
    }
}

/// The read-ahead worker: prepare each step asked for, in order, until
/// the rank thread hangs up or the fault plan scripts this worker dead.
fn read_ahead_worker(
    run: &Run,
    input: &InputCtx,
    plan: &InputPlan,
    asks: Receiver<(usize, Arc<SliceFetch>)>,
    ready: Sender<Prepared>,
) {
    for (t, sf) in asks {
        if run.faults.prefetch_failed(t) {
            return; // scripted worker death: go silent mid-run
        }
        let (mag, stats) = plan.prepare(run, input, &sf, t);
        if ready.send(Prepared { t, slice: sf.slice, mag, stats }).is_err() {
            return;
        }
    }
}

fn input_main(comm: &Comm, run: &Run, input: &InputCtx) -> Vec<InputStepTiming> {
    let plan = &input_plan(comm.rank(), run);
    let mut timings = if input.read_ahead {
        let (ask, asks) = channel();
        let (ready_tx, ready) = channel();
        let track = obs::current_attachment();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // the worker's Read/Preprocess spans go on this rank's track
                let _g = track.as_ref().map(|h| h.attach());
                // a worker panic must not abort the rank through the
                // scope: contain it, and let the closed queues carry the
                // news like a scripted death's
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    read_ahead_worker(run, input, plan, asks, ready_tx)
                }));
            });
            let ahead = ReadAhead { ask, ready, next: 0 };
            input_steps(comm, run, input, plan, Some(ahead))
        })
    } else {
        input_steps(comm, run, input, plan, None)
    };

    // derive the per-step timings from the span stream (which includes
    // the read-ahead worker's spans — it records onto the same rank track)
    let seconds = phase_seconds();
    for (timing, &t) in timings.iter_mut().zip(&plan.my_steps) {
        timing.preprocess_s = seconds(Phase::Preprocess, t);
        timing.lic_s = seconds(Phase::Lic, t);
        timing.send_s = seconds(Phase::Send, t);
        timing.send_wait_s = seconds(Phase::SendWait, t);
    }
    timings
}

/// One heartbeat round before step `t` among `alive` — the members of a
/// 2DIP input group, or of the render group, this rank still hears from —
/// run while the schedule kills one of them. Members that miss the deadline
/// leave `alive` (for good, unless a scripted recovery follows) and are
/// returned. `back`, a member whose scripted death window has closed, is
/// put back first: its peers read that from the schedule and wait for its
/// beacon in this round, and the joiner's own first round back (`joining`)
/// waits for all of theirs.
fn heartbeat_round(
    comm: &Comm,
    run: &Run,
    t: usize,
    alive: &mut Vec<usize>,
    back: Option<usize>,
    joining: bool,
) -> Vec<usize> {
    let _sp = obs::span(Phase::Heartbeat, t as u32);
    if let Some(j) = back.filter(|j| !alive.contains(j)) {
        alive.push(j);
        alive.sort_unstable();
    }
    let peers: Vec<usize> = alive.iter().copied().filter(|&r| r != comm.rank()).collect();
    let wait = |r| (!joining && Some(r) != back).then_some(run.heartbeat);
    let silent = membership::heartbeat(comm, t, &peers, &peers, wait);
    alive.retain(|r| !silent.contains(r));
    silent
}

/// The joiner's half of a scripted rejoin at step `t`, the same for an
/// input, render or spare rank: adopt the committed epoch state the output
/// rank pushes. Every plan it slept through advanced the epoch by one.
/// (A missed commit cleared the peers' delta lanes; what they send next is
/// a keyframe, which needs no base of the joiner's.)
fn rejoin(comm: &Comm, run: &Run, t: usize, state: &mut EpochState) {
    let committed = CATCHUP.recv(comm, run.sched.output_rank(), t);
    run.faults.note_rejoin();
    run.faults.note_catchup_plans(committed.epoch - state.epoch);
    *state = committed;
}

/// The participant's half of the plan commit at tick `t`, the same on
/// every rank: receive the controller's plan, if any, and apply it at this
/// step boundary. A committed plan clears the caller's delta lanes —
/// senders' and receivers' alike, so the next piece on every (possibly
/// reconfigured) route is a natural keyframe. The cache tier keeps every
/// entry: a block is keyed by the exact nodes it holds, which a reshape
/// changes and a rebalance does not, and a frame does not depend on the
/// partition that rendered it.
fn plan_commit(comm: &Comm, run: &Run, t: usize, state: &mut EpochState, delta: &mut DeltaMap) {
    let Some(plan) = CTL.recv(comm, run.sched.output_rank(), t) else {
        return;
    };
    state.apply(&plan);
    delta.clear();
}

/// The per-step input protocol — the only one. It walks every step of the
/// run, as the render and output ranks do: on each, the rank's presence
/// (its own scripted death window or rejoin) and the plan-commit round of
/// a tick. On an owned step `t` it then does the step's work: this step's
/// slice, from the group heartbeat and the committed input width → the
/// prepared field → LIC if lead → pack, on this thread, against this
/// thread's one [`DeltaMap`], under the committed [`EpochState`] → sends.
/// `ahead` adds the read-ahead stage: the field comes from a worker that
/// prepared it up to [`PREFETCH_SLOTS`] owned steps early, and at most
/// that many steps' sends stay in flight. Without it (the reference
/// runtime) every step is prepared inline — the code a dead worker or a
/// stale slice falls back to — and sends are fire-and-forget: a dropped
/// [`SendHandle`] is a buffered send.
///
/// The order within a step — ticks(t) → … → wait on handles older than
/// `t` → send `t` — is what keeps the ticks and the in-flight cap
/// deadlock-free together (DESIGN.md "Overlapped prefetch runtime").
fn input_steps(
    comm: &Comm,
    run: &Run,
    input: &InputCtx,
    plan: &InputPlan,
    mut ahead: Option<ReadAhead>,
) -> Vec<InputStepTiming> {
    let me = comm.rank();
    // the group members this rank still hears from
    let mut alive: Vec<usize> = plan.group.clone().collect();
    let mut delta = DeltaMap::new();
    // committed epoch state: advances at every committed tick
    let mut elastic = run.elastic.clone();
    // a rejoin on a step this rank does not own is carried to the
    // heartbeat of its next owned one
    let mut joined = false;
    let mut sf = Arc::new(slice_fetch(run, input, (me - plan.group.start, plan.group.len())));
    let mut inflight: VecDeque<(usize, Vec<SendHandle>)> = VecDeque::new();
    let await_sends = |(t0, handles): (usize, Vec<SendHandle>)| {
        let _sp = obs::span(Phase::SendWait, t0 as u32);
        wait_all(handles);
    };
    let mut timings = Vec::with_capacity(plan.my_steps.len());
    for t in run.steps.clone() {
        // one timing per owned step, so the next owned step is the one at
        // the timings' length
        let i = timings.len();
        let owned = plan.my_steps.get(i) == Some(&t);
        // a scripted death comes with no farewell — survivors must *detect*
        // it via heartbeat timeouts; a dormant rank still counts its owned
        // steps, so the zip alignment with the group survives the outage
        match run.sched.presence(me, t) {
            Presence::Gone => break,
            Presence::Dormant => {
                if owned {
                    timings.push(InputStepTiming::default());
                }
                continue;
            }
            Presence::Joining => {
                let _sp = obs::span(Phase::Heartbeat, t as u32);
                rejoin(comm, run, t, &mut elastic);
                joined = true;
            }
            Presence::Present => {}
        }
        if let Tick::Round { .. } = run.sched.tick(t) {
            let _sp = obs::span(Phase::Control, t as u32);
            plan_commit(comm, run, t, &mut elastic, &mut delta);
        }
        if !owned {
            continue;
        }
        // the first sends back from a death window are natural keyframes,
        // never deltas against pre-death receiver state
        let joining = std::mem::take(&mut joined);
        if joining {
            alive = plan.group.clone().collect();
            delta.clear();
        }
        // this step's slice: the group members inside the committed input
        // width (an elastic reshape narrows it) that the heartbeat still
        // holds alive share the read; everyone else sits the step out
        if let Watch::Group(group) = run.sched.watch(me) {
            let back = group.clone().find(|&r| !alive.contains(&r) && run.sched.is_back(r, t));
            for r in heartbeat_round(comm, run, t, &mut alive, back, joining) {
                run.faults.note_failover(r, t);
            }
        }
        let live: Vec<usize> =
            alive.iter().copied().filter(|&r| r < plan.group.start + elastic.input_width).collect();
        let Some(idx) = live.iter().position(|&r| r == me) else {
            timings.push(InputStepTiming::default());
            continue;
        };
        if sf.slice != (idx, live.len()) {
            sf = Arc::new(slice_fetch(run, input, (idx, live.len())));
        }
        let (mag, read) = match ahead.as_mut().and_then(|a| a.take(run, plan, me, i, &sf)) {
            Some(p) => (p.mag, p.stats),
            None => {
                if ahead.is_some() {
                    run.faults.note_prefetch_fallback();
                }
                plan.prepare(run, input, &sf, t)
            }
        };
        let mut timing = InputStepTiming { read, ..Default::default() };
        // LIC duty falls to the lowest live member of the group
        if idx == 0 {
            lic_step(comm, run, input, t, &mut timing.read);
        }
        // backpressure: at most PREFETCH_SLOTS steps' sends in flight,
        // this one included. An isend completes only when the renderer
        // *matches* it, so the wait throttles the rank to the render
        // group's consumption rate
        let excess = inflight.len().saturating_sub(PREFETCH_SLOTS - 1);
        inflight.drain(..excess).for_each(await_sends);
        let mut send_sp = obs::span(Phase::Send, t as u32);
        let handles: Vec<SendHandle> =
            pack_batches(run, input, &elastic, sf.span, mag.as_deref(), me, t, &mut delta)
                .into_iter()
                .map(|(dst, batch, bytes)| {
                    send_sp.add_bytes(bytes);
                    DATA.isend_lossy(comm, dst, t, batch)
                })
                .collect();
        drop(send_sp);
        if ahead.is_some() {
            inflight.push_back((t, handles));
        }
        timings.push(timing);
    }
    // drain the tail so the trace sees the full send lifetime
    inflight.into_iter().for_each(await_sends);
    timings
}

// ---------------------------------------------------------------------
// rendering processors
// ---------------------------------------------------------------------

/// A render rank's checkpoint boundary after step `t`, if one is due:
/// snapshot the resident field, then acknowledge `(rank, checksum)` to the
/// frame assembler — or, on the rank that assumed assembly, commit the
/// manifest itself after collecting the other survivors' acks.
fn checkpoint_ack(
    comm: &Comm,
    run: &Run,
    rr: usize,
    t: usize,
    field: &NodeField,
    state: &EpochState,
    takeover: Option<&mut FrameSink>,
) {
    let Some(ck) = run.checkpoint_due(t) else {
        return;
    };
    let _sp = obs::span(Phase::Checkpoint, t as u32);
    let bytes = checkpoint::encode_field(t + 1, field.values());
    let ack = (rr as u32, checkpoint::field_checksum(&bytes));
    run.dataset.disk().write_file(&checkpoint::field_path(&ck.path, t + 1, rr), bytes);
    let dst = run.sched.frame_dst(t);
    if dst != comm.rank() {
        CKPT.send(comm, dst, t, ack);
    } else {
        commit_checkpoint(comm, run, ck, t, Some(ack), state, &[]);
        if let Some(sink) = takeover {
            sink.checkpoints += 1;
        }
    }
}

/// Best-effort warm start for a rejoining render rank: its own field
/// snapshot from the latest committed checkpoint, if one exists and
/// verifies. Any failure — no checkpointing configured, no manifest yet,
/// checksum or shape mismatch — just means rendering resumes from zeros
/// until the next data receive refreshes the owned blocks.
fn catchup_field(run: &Run, rr: usize) -> Option<Vec<f32>> {
    let Checkpoints { path, fingerprint, .. } = run.checkpoints.as_ref()?;
    let (disk, nodes) = (run.dataset.disk(), run.dataset.mesh().node_count());
    let manifest = checkpoint::load_manifest(disk, path, *fingerprint).ok()?;
    let &(r, ck) = manifest.fields.iter().find(|&&(r, _)| r as usize == rr)?;
    checkpoint::load_field(disk, path, manifest.next_step, r, ck, nodes).ok()
}

/// Commit the checkpoint after step `t` at the frame assembler: collect
/// the acknowledgements of every render rank not scripted dead (each
/// sent only after its snapshot hit the file system), write the manifest
/// *last*, then prune every other step's snapshots. A crash before the
/// manifest write leaves the previous checkpoint fully intact and
/// resumable. The manifest snapshots the block map in force under the
/// committed `state` and the full plan `history`, so a resumed run starts
/// from the identical epoch before clocking any new ticks.
fn commit_checkpoint(
    comm: &Comm,
    run: &Run,
    ck: &Checkpoints,
    t: usize,
    local: Option<(u32, u64)>,
    state: &EpochState,
    history: &[ControlPlan],
) {
    let me = comm.rank();
    let next = t + 1;
    let dead = run.sched.dead_renderer(t);
    let mut fields: Vec<(u32, u64)> = local.into_iter().collect();
    let acking = (0..run.sched.n_renderers()).filter(|&r| Some(r) != dead);
    for src in acking.map(|r| run.sched.render_rank(r)).filter(|&src| src != me) {
        fields.push(CKPT.recv(comm, src, t));
    }
    fields.sort_unstable();
    let mut block_map = vec![Vec::new(); run.sched.n_renderers()];
    for (r, blocks) in run.sched.owners(state, t, &run.block_weights) {
        block_map[r] = blocks;
    }
    let manifest = CheckpointManifest {
        version: CHECKPOINT_VERSION,
        fingerprint: ck.fingerprint,
        next_step: next,
        block_map,
        fields,
        plans: history.to_vec(),
    };
    let (base, disk) = (&ck.path, run.dataset.disk());
    disk.write_file(&checkpoint::manifest_path(base), manifest.encode());
    let keep = format!("{base}/step{next}/");
    let stale = format!("{base}/step");
    for f in disk.list_files() {
        if f.starts_with(&stale) && !f.starts_with(&keep) {
            disk.remove_file(&f);
        }
    }
}

fn render_main(comm: &Comm, run: &Run, ren: &RenderCtx, start: Instant) -> RankResult {
    let me = comm.rank();
    let rr = me - run.sched.render_rank(0); // render-group rank
    let output_rank = run.sched.output_rank();
    let mut field = match ren.resume_fields.get(rr) {
        // resume: restore the checkpointed last-known-good field, so
        // degraded post-resume frames reuse the exact stale values an
        // uninterrupted run would
        Some(Some(values)) => NodeField::new(values.clone()),
        _ => NodeField::zeros(run.dataset.mesh()),
    };
    // detected membership: `alive` is who this rank still hears from —
    // heartbeats run only on the duty the schedule gives it — and
    // `members` who the compositing communicator `group` spans
    let watch = run.sched.watch(me);
    let mut alive: Vec<usize> = (run.sched.render_rank(0)..output_rank).collect();
    let mut members: Vec<usize> = Vec::new();
    let mut group: Option<Comm> = None;

    // output-failover state (render root only): the sink this rank
    // delivers into once it has declared the output processor dead
    let mut takeover: Option<FrameSink> = None;

    // receiver-side temporal-delta state, keyed (src, bid, offset); a
    // resumed run starts empty, matched by the senders' forced keyframes
    let mut rx_delta = DeltaMap::new();
    let ids_per_block = &ren.ids_per_block;

    // committed epoch state: advances at every committed tick
    let mut state = run.elastic.clone();

    for t in run.steps.clone() {
        // a scripted death comes with no farewell — see [`Presence`]
        let joining = match run.sched.presence(me, t) {
            Presence::Gone => break,
            Presence::Dormant => continue,
            presence => presence == Presence::Joining,
        };
        // a scripted rejoin — a recovered member's or a parked spare's —
        // is the end of an overlay, read from the schedule by joiner and
        // peers alike. The joiner adopts the committed epoch state, warm-starts
        // from the latest checkpointed field and forgets the communicator it
        // held before the window (its receive-delta lanes survive as the
        // senders' lanes to it do: nothing travelled on them meanwhile);
        // its peers put it back on their heartbeat list.
        if joining {
            let _sp = obs::span(Phase::Heartbeat, t as u32);
            rejoin(comm, run, t, &mut state);
            if let Some(values) = catchup_field(run, rr) {
                field = NodeField::new(values);
                run.faults.note_catchup_field();
            }
            members.clear();
        }
        match watch {
            // (a joiner under this duty is the render rank it lost)
            Watch::Group(_) => {
                for r in heartbeat_round(comm, run, t, &mut alive, run.sched.joiner(t), joining) {
                    run.faults.note_render_failover(r, t);
                }
            }
            // output supervision: the render root waits for the output
            // processor's heartbeat and assumes assembly on silence
            Watch::Listen(output) if takeover.is_none() => {
                let _sp = obs::span(Phase::Heartbeat, t as u32);
                let wait = |_| Some(run.heartbeat);
                if !membership::heartbeat(comm, t, &[], &[output], wait).is_empty() {
                    takeover = Some(FrameSink::open(run, ren.keep_frames, start));
                    run.faults.note_output_failover(output, t);
                }
            }
            _ => {}
        }
        // epoch clock: the controller's plan arrives before any of this
        // step's data. Apply-on-commit keeps every rank's epoch state in
        // lockstep, and the cleared receive-delta state matches the
        // senders' forced keyframes on the (possibly new) routes.
        if let Tick::Round { .. } = run.sched.tick(t) {
            let _sp = obs::span(Phase::Control, t as u32);
            plan_commit(comm, run, t, &mut state, &mut rx_delta);
        }
        // one compositing communicator, regrouped whenever the live part
        // of the active prefix changes. A communicator is a function of
        // its member list, so every rank that derives the same list — the
        // survivors at their own pace, a rejoiner after sleeping through
        // their regroups — holds the same one with no coordination.
        let live: Vec<usize> =
            alive.iter().copied().filter(|&r| r < run.sched.render_rank(state.active)).collect();
        if live != members {
            group = comm.group(&live);
            members = live;
        }
        let owners = run.sched.owners(&state, t, &run.block_weights);
        let mine = owners.iter().find(|&&(r, _)| r == rr);
        let (Some((_, my_blocks)), Some(active)) = (mine, group.as_ref()) else {
            // outside this epoch's active prefix (parked spare, or shrunk
            // out): no data arrives and no fragment is owed, but the rank
            // stays on the epoch clock and the checkpoint barrier
            checkpoint_ack(comm, run, rr, t, &field, &state, takeover.as_mut());
            continue;
        };

        let mut recv_sp = obs::span(Phase::Receive, t as u32);
        // the sender set is not knowable in general (drops, failures,
        // failover re-reads): drain until every value of my blocks has been
        // *accounted for* — delivered, reported missing, or rejected on
        // receive — or the delivery deadline, when one is armed, passes,
        // then degrade whatever is incomplete instead of stalling. Batches
        // write disjoint (block, offset) slices, so ingest order cannot
        // change the frame.
        let norm = (0.0f32, run.dataset.norm_at(t));
        let mut account = StepAccount::new(my_blocks, ids_per_block);
        let step_deadline = ren.deadline.map(|wait| Instant::now() + wait);
        loop {
            // while values are owed, wait — up to the deadline, when one is
            // armed; once none are, only take what is already here
            let wait = if account.owed() {
                step_deadline.map(|d| d.saturating_duration_since(Instant::now()))
            } else {
                Some(Duration::ZERO)
            };
            // data of this step — or of an earlier one: given up at its
            // deadline, or a batch that held none of my blocks' values.
            // Matching those completes their sender's handle, which would
            // otherwise hold an in-flight slot of that input rank for good
            let Some((src, step, batch)) = DATA.recv_any_for(comm, run.steps.start..=t, wait)
            else {
                break; // all accounted for — or the deadline: degrade, don't stall
            };
            if step < t {
                continue;
            }
            recv_sp.add_bytes(batch.iter().map(|p| p.body.len() as u64).sum());
            let t0 = Instant::now();
            let _dec_sp = obs::auto_span(Phase::Decode, t as u32);
            for piece in batch {
                let (bid, kind, n) = (piece.bid, piece.kind, piece.value_len());
                let outcome =
                    ingest_piece(&run.wire, piece, ids_per_block, src, t as u32, &mut rx_delta);
                match &outcome {
                    Ingest::Data(ids, raw) => scatter_values(&mut field, ids, kind, raw, norm.1),
                    Ingest::Missing(_) => {}
                    Ingest::Corrupt => run.faults.note_checksum_failure(),
                    // verified envelope but unusable contents (e.g. delta
                    // base lost to an earlier fault): treat like a drop and
                    // let degradation cover. Unlike a corrupt piece it has
                    // no entry in the fault log, so say why here
                    Ingest::Reject(why) => {
                        eprintln!("rank {me}: step {t}: block {bid} piece rejected ({why})");
                        run.faults.note_wire_reject();
                    }
                }
                account.take(bid, n, &outcome);
            }
            run.ledger.record_decode(TagClass::BlockData, t0.elapsed().as_nanos() as u64);
        }
        let (degraded, flags) = account.finish();
        drop(recv_sp);

        // render my blocks; degraded blocks (incomplete data this step)
        // drop one resident octree level — their stale nodes keep the
        // last-known-good values, and the coarser tiling reads only the
        // corner subset, shrinking the visual footprint of the gap
        let render_sp = obs::span(Phase::Render, t as u32);
        let render_t0 = Instant::now();
        let mut frags: Vec<Fragment> = Vec::new();
        for &bid in my_blocks {
            let coarser = degraded.binary_search(&bid).is_ok();
            let (plan, camera, transfer) = (&ren.plans[bid as usize], &ren.camera, &ren.transfer);
            frags.extend(plan.render(&field, norm, coarser, camera, transfer, &ren.params));
        }
        // scripted load skew: stretch this rank's render phase by the
        // plan's factor, inside the Render span, so the controller sees
        // real measured imbalance to rebalance away
        let slow = run.faults.slow_rank_factor(me);
        if slow > 1.0 {
            std::thread::sleep(render_t0.elapsed().mul_f64(slow - 1.0));
        }
        drop(render_sp);

        // composite across the (surviving) render group with SLIC: the
        // schedule is recomputed from this epoch's FrameInfo over the
        // active communicator, whose rank 0 — the lowest live renderer —
        // collects the frame
        let comp_sp = obs::span(Phase::Composite, t as u32);
        let (width, height) = ren.size;
        let info = FrameInfo::exchange(active, &frags, &ren.order_ids, width, height);
        let result = slic(active, &frags, &info, 0, CompositeOptions::default());
        drop(comp_sp);

        // pool the degradation flags at the active root — which also holds
        // the composited frame — for the frame's quality flag
        let merged = active.gather(0, flags).map(|lists| lists.concat());
        if let (Some(mut vol), Some(mut deg)) = (result.image, merged) {
            if run.sched.frame_dst(t) == output_rank {
                // the flags ride beside the image, charged to both of its
                // accountings
                let msg =
                    encode_image(&run.wire, &run.ledger, TagClass::VolumeImage, t as u32, vol);
                let flag_bytes = deg.len() as u64 * 8;
                run.ledger.record_send(TagClass::VolumeImage, flag_bytes, flag_bytes, 0);
                VOL.send(comm, output_rank, t, (msg, deg));
            } else if let Some(sink) = takeover.as_mut() {
                // output-failover epoch: the supervising render root assumes
                // frame assembly — frames continue, tagged migrated, never
                // skipped silently
                let mut sp = obs::span(Phase::Assemble, t as u32);
                sp.add_bytes(overlay_lic(comm, run, ren.lic, t, &mut vol, &mut deg));
                drop(sp);
                deg.push(Degradation::MigratedEpoch);
                run.faults.note_migrated_frame();
                sink.deliver(run, vol, deg);
            }
        }
        checkpoint_ack(comm, run, rr, t, &field, &state, takeover.as_mut());
    }

    // derive the per-frame timings from the span stream
    let seconds = phase_seconds();
    let timings = run
        .steps
        .clone()
        .map(|t| RenderFrameTiming {
            receive_s: seconds(Phase::Receive, t),
            render_s: seconds(Phase::Render, t),
            composite_s: seconds(Phase::Composite, t),
        })
        .collect();
    RankResult::Render { timings, takeover }
}

// ---------------------------------------------------------------------
// output processor
// ---------------------------------------------------------------------

/// Render-phase µs per `(render-group rank, step)`, folded from the
/// session's recorders — what both the controller's measurement window
/// and the report's utilization counters read.
fn render_us(run: &Run) -> Vec<HashMap<u32, u64>> {
    let mut busy = vec![HashMap::new(); run.sched.n_renderers()];
    for rec in run.session.recorders().iter().filter(|rec| rec.group() == "render") {
        let Some(rr) = run.sched.render_index(rec.rank()) else {
            continue;
        };
        for ev in rec.events().iter().filter(|ev| ev.phase == Phase::Render) {
            *busy[rr].entry(ev.step).or_insert(0) += ev.dur_us;
        }
    }
    busy
}

/// Condense the live span stream into the controller's view of steps
/// `[lo, hi)`: per-render-rank busy seconds in the Render phase, and the
/// input side's aggregate busy/send seconds. Complete by construction —
/// the controller measures at tick `hi` only after assembling frame
/// `hi - 1`, which every rank finishes (and drops its spans for) first.
/// Render busy time is [`crate::control::robust_busy`] of the rank's steps.
fn measure_window(run: &Run, lo: usize, hi: usize) -> WindowMeasurement {
    let seconds = |us: u64| us as f64 / 1e6;
    let render_busy = render_us(run).into_iter().map(|per_step| {
        let window = (lo..hi).map(|t| seconds(per_step.get(&(t as u32)).copied().unwrap_or(0)));
        crate::control::robust_busy(window.collect())
    });
    let mut m = WindowMeasurement {
        render_busy: render_busy.collect(),
        input_busy: 0.0,
        send_busy: 0.0,
        steps: hi.saturating_sub(lo),
    };
    for rec in run.session.recorders().iter().filter(|rec| rec.group() == "input") {
        for ev in rec.events().iter().filter(|ev| (lo..hi).contains(&(ev.step as usize))) {
            match ev.phase {
                Phase::Read | Phase::Preprocess | Phase::Lic => m.input_busy += seconds(ev.dur_us),
                Phase::Send => {
                    m.input_busy += seconds(ev.dur_us);
                    m.send_busy += seconds(ev.dur_us);
                }
                _ => {}
            }
        }
    }
    m
}

fn output_main(comm: &Comm, run: &Run, out: &OutputCtx, start: Instant) -> RankResult {
    let me = comm.rank();
    let mut sink = FrameSink::open(run, out.keep_frames, start);
    // the hosted controller (one that never ticks when control is off):
    // seeded from the committed state and, on resume, the checkpointed
    // plan history, so new ticks continue the epoch sequence
    let input_width = run.sched.shape().per_group;
    let mut ctl = Controller::new(out.control, run.elastic.clone(), input_width);
    ctl.history = out.resume_plans.clone();
    // a scripted death keeps a survivor inside whatever the plans shrink
    match run.sched.kill_role() {
        Some(Role::Input) => ctl.min_width = 2,
        Some(Role::Render) => ctl.min_active = 2,
        _ => {}
    }
    let (mut kill_noted, mut ticks) = (false, 0);
    for t in run.steps.clone() {
        if !run.sched.presence(me, t).active() {
            // scripted output-rank death: go silent; the supervising render
            // root takes over frame assembly from this step on
            break;
        }
        if let Watch::Beacon(supervisor) = run.sched.watch(me) {
            // so the render root can detect the scripted death by silence
            membership::heartbeat(comm, t, &[supervisor], &[], |_| None);
        }
        // a scripted rejoin: this rank holds the committed state, so it
        // pushes it to the joiner, which reads its step off the schedule
        if let Some(j) = run.sched.joiner(t) {
            let _sp = obs::span(Phase::Heartbeat, t as u32);
            CATCHUP.send(comm, j, t, ctl.state.clone());
        }
        // epoch clock: host the plan-commit round — unless the schedule
        // kills it, and then the frame cadence below never stalls
        let tick = run.sched.tick(t);
        if let Tick::Round { admit } = tick {
            let _sp = obs::span(Phase::Control, t as u32);
            let lo = t.saturating_sub(out.control.every).max(run.steps.start);
            let m = measure_window(run, lo, t);
            // a spare-pool join grows the active prefix: its admit
            // plan is forced; everything else is the free decision
            let plan = if admit {
                Some(ctl.admit_plan(&m, &run.block_weights, t as u32))
            } else {
                ctl.decide(&m, &run.block_weights, t as u32)
            };
            ticks += 1;
            // the plan commits here and with each participant as it
            // receives it: every rank applies it at this step boundary
            for p in run.sched.participants(t) {
                CTL.send(comm, p, t, plan.clone());
            }
            if let Some(plan) = plan {
                ctl.commit(&plan);
            }
        } else if tick == Tick::Killed && !kill_noted {
            kill_noted = true;
            run.faults.note_controller_kill(t);
        }
        let frame_src = run.sched.frame_source(&ctl.state, t, &run.block_weights);
        let mut sp = obs::span(Phase::Assemble, t as u32);
        let (vol_msg, mut deg) = VOL.recv(comm, frame_src, t);
        let decoded =
            decode_image(&run.wire, &run.ledger, TagClass::VolumeImage, t as u32, vol_msg);
        let mut vol = decoded.unwrap_or_else(|why| {
            // an undecodable frame body degrades this frame to blank
            // instead of aborting the whole run
            note_corrupt_image(run, why, t, &mut deg);
            RgbaImage::new(out.size.0, out.size.1)
        });
        sp.add_bytes((vol.width() * vol.height() * 16) as u64);
        sp.add_bytes(overlay_lic(comm, run, out.lic, t, &mut vol, &mut deg));
        drop(sp);
        // only pristine frames are cached: a degraded frame must be
        // recomputed next run, when the fault may not recur
        if let (true, Some(tier)) = (deg.is_empty(), &run.cache) {
            if let Some(key) = out.frame_key(&run.dataset, t) {
                tier.frames.insert(key, &vol);
            }
        }
        sink.deliver(run, vol, deg);
        if let Some(ck) = run.checkpoint_due(t) {
            let _sp = obs::span(Phase::Checkpoint, t as u32);
            commit_checkpoint(comm, run, ck, t, None, &ctl.state, &ctl.history);
            sink.checkpoints += 1;
        }
    }
    RankResult::Output { sink, plans: ctl.history, ticks }
}

/// Put step `t`'s LIC surface overlay behind the assembled volume frame —
/// the one overlay step, whichever rank assembles. An overlay the wire
/// garbled is left off and flagged rather than aborting the run; one the
/// input side could not read arrives transparent and flagged. Returns the
/// overlay bytes composited (0 when LIC is off).
fn overlay_lic(
    comm: &Comm,
    run: &Run,
    lic: bool,
    t: usize,
    vol: &mut RgbaImage,
    deg: &mut Vec<Degradation>,
) -> u64 {
    if !lic {
        return 0;
    }
    let (lic_msg, lic_missing) = LIC.recv(comm, run.sched.lic_source(t), t);
    if lic_missing {
        deg.push(Degradation::MissingLic);
    }
    match decode_image(&run.wire, &run.ledger, TagClass::LicImage, t as u32, lic_msg) {
        Ok(lic_img) => {
            // the volume rendering sits in front of the surface
            vol.over_inplace(&lic_img);
            (lic_img.width() * lic_img.height() * 16) as u64
        }
        Err(why) => {
            note_corrupt_image(run, why, t, deg);
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IoStrategy, PipelineBuilder};
    use quakeviz_rt::FaultSpec;
    use quakeviz_seismic::SimulationBuilder;

    fn dataset() -> Dataset {
        SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
    }

    /// The resume fingerprint must ignore run-length and checkpoint
    /// bookkeeping (a killed `max_steps=j` run's checkpoint resumes into
    /// the full run) but reject anything that reshapes the frames.
    #[test]
    fn config_fingerprint_excludes_run_length() {
        let base = PipelineConfig::default();
        let camera = Camera::default_for(
            &Aabb::from_extent(quakeviz_mesh::Vec3 { x: 1.0, y: 1.0, z: 1.0 }),
            base.width,
            base.height,
        );
        let fp = |c: &PipelineConfig| config_fingerprint(c, 3, &camera);
        let mut killed = base.clone();
        killed.max_steps = Some(2);
        killed.checkpoint_every = Some(2);
        killed.checkpoint_path = "elsewhere".into();
        killed.resume = true;
        assert_eq!(fp(&base), fp(&killed), "run length must not invalidate a checkpoint");
        let mut reshaped = base.clone();
        reshaped.width = 97;
        assert_ne!(fp(&base), fp(&reshaped), "image geometry must invalidate a checkpoint");
        // the fault schedule shapes frames: a spec is not no spec. The
        // no-spec digest has not moved since it was first pinned; a spec's
        // hashes `{:?}` of the `FaultSpec` and moved once, with the
        // `fail_rank` field (checkpoints live on one process's in-memory
        // parfs: no stored one can observe it)
        let mut faulted = base.clone();
        faulted.faults = Some(FaultSpec::parse("seed=1,read_transient=0.5").unwrap());
        assert_ne!(fp(&faulted), fp(&base), "a fault schedule is not no schedule");
        assert_eq!((fp(&base), fp(&faulted)), (0x8bed_c9b5_f887_c853, 0x61c2_4d79_5006_7687));
        // wire codecs shape bytes in flight, never decoded values: a
        // checkpoint written under one codec must resume under another
        let mut recoded = base.clone();
        recoded.wire = WireSpec::parse("rle,delta,keyframe=3").unwrap();
        assert_eq!(fp(&base), fp(&recoded), "wire codec must not invalidate a checkpoint");
        // a cache changes costs, never decoded values or frames
        let mut cached = base.clone();
        cached.cache_tier =
            Some(CacheTier::new(crate::cache::CacheConfig { blocks_mb: 8, frames: 8 }));
        assert_eq!(fp(&base), fp(&cached), "a cache tier must not invalidate a checkpoint");
    }

    #[test]
    fn quickstart_pipeline_produces_frames() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(96, 96)
            .run()
            .expect("pipeline");
        assert_eq!(report.frames.len(), 4);
        assert_eq!(report.frame_done.len(), 4);
        assert!(report.mean_interframe_delay() > 0.0);
        // frames must not all be empty: late steps carry waves
        let busy = report.frames.iter().any(|f| f.pixels().iter().any(|p| p[3] > 0.01));
        assert!(busy, "no frame shows any volume contribution");
    }

    /// The per-run brick plans cost a formula of the mesh, level, blocks
    /// and camera — 16 bytes per ray, 12 per run of rays, 4 per brick node
    /// at the level and one coarser, 48 per patched node — and nothing
    /// that grows with the run.
    #[test]
    fn plan_bytes_are_a_formula_independent_of_run_length() {
        use quakeviz_render::{Brick, RayTable};
        let ds = dataset();
        let plan_bytes = |steps: usize| {
            let report = PipelineBuilder::new(&ds)
                .renderers(2)
                .image_size(64, 64)
                .max_steps(steps)
                .run()
                .expect("pipeline");
            (report.trace.metrics["render.plan_bytes"], report.level)
        };
        let (bytes, level) = plan_bytes(2);
        assert_eq!(plan_bytes(4), (bytes, level), "twice the steps, the same plans");

        let mesh = ds.mesh();
        let extent = mesh.octree().extent();
        let camera = Camera::default_for(&Aabb::from_extent(extent), 64, 64);
        let mut want = 0;
        for block in &mesh.octree().blocks(PipelineConfig::default().block_level) {
            if let Some(rays) = RayTable::new(&block.root.bounds(extent), &camera) {
                want += 16 * rays.rays() + 12 * rays.runs();
            }
            for level in [level, level.saturating_sub(1)] {
                let stencil = Brick::stencil(mesh, block, level);
                let (nx, ny, nz) = stencil.dims();
                want += 4 * nx * ny * nz + 48 * stencil.patches();
            }
        }
        assert_eq!(bytes, want as u64);
    }

    #[test]
    fn onedip_and_twodip_render_identical_frames() {
        let ds = dataset();
        let run = |io: IoStrategy, renderers: usize| {
            PipelineBuilder::new(&ds)
                .renderers(renderers)
                .io_strategy(io)
                .image_size(64, 64)
                .run()
                .expect("pipeline")
        };
        let a = run(IoStrategy::OneDip { input_procs: 1 }, 2);
        let b = run(IoStrategy::OneDip { input_procs: 3 }, 4);
        let c = run(IoStrategy::TwoDip { groups: 2, per_group: 2 }, 3);
        for t in 0..ds.steps() {
            let d_ab = a.frames[t].rms_difference(&b.frames[t]);
            let d_ac = a.frames[t].rms_difference(&c.frames[t]);
            assert!(d_ab < 1e-6, "frame {t}: 1DIP configs differ (rms {d_ab})");
            assert!(d_ac < 1e-6, "frame {t}: 2DIP differs from 1DIP (rms {d_ac})");
        }
    }

    #[test]
    fn adaptive_fetch_close_to_full_at_coarse_level() {
        let ds = dataset();
        // one level coarser than the finest, and one coarser than the
        // blocks, where a block is read at its root level
        let max = ds.mesh().octree().max_leaf_level();
        assert!(1 < PipelineConfig::default().block_level);
        for level in [max - 1, 1] {
            let run = |fetch: bool| {
                PipelineBuilder::new(&ds)
                    .renderers(2)
                    .io_strategy(IoStrategy::OneDip { input_procs: 2 })
                    .image_size(64, 64)
                    .level(level)
                    .adaptive_fetch(fetch)
                    .max_steps(3)
                    .run()
                    .expect("pipeline")
            };
            let full = run(false);
            let adaptive = run(true);
            // identical bits: both route each block the same render-level
            // nodes, so only their disk reads differ
            let bits = |r: &PipelineReport| {
                let px = r.frames.iter().flat_map(|f| f.pixels().iter().flatten());
                px.map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(full.frames.len(), 3);
            assert!(bits(&full) == bits(&adaptive), "level {level}: adaptive fetch moved frames");
            let block_data = |r: &PipelineReport| {
                let edges = r.traffic.iter().filter(|e| e.class.as_str() == "block_data");
                edges.map(|e| e.bytes).sum::<u64>()
            };
            assert!(block_data(&full) > 0);
            assert_eq!(block_data(&full), block_data(&adaptive), "level {level}: block data");
            // and read strictly less
            let read = |r: &PipelineReport| -> u64 {
                r.input_steps.iter().map(|s| s.read.useful_bytes).sum()
            };
            let (full_bytes, adaptive_bytes) = (read(&full), read(&adaptive));
            assert!(
                adaptive_bytes < full_bytes,
                "level {level}: adaptive fetch must read fewer bytes \
                 ({adaptive_bytes} vs {full_bytes})"
            );
        }
    }

    #[test]
    fn enhancement_and_lighting_and_lic_run() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .enhancement(true)
            .lighting(true)
            .lic(true)
            .max_steps(3)
            .io_delay_scale(4.0)
            .run()
            .expect("pipeline");
        assert_eq!(report.frames.len(), 3);
        // LIC overlay gives every pixel some alpha on the surface rect
        let last = &report.frames[2];
        let covered = last.pixels().iter().filter(|p| p[3] > 0.0).count();
        assert!(covered > 0);
        // lic timing recorded on lead input processors
        assert!(report.input_steps.iter().any(|s| s.lic_s > 0.0));
        // every injected delay is charged to the read it stands in for —
        // the LIC surface read's included
        for (i, s) in report.input_steps.iter().enumerate() {
            let (real, sim) = (s.read.real_seconds, s.read.sim_seconds);
            assert!(real >= 4.0 * sim, "step record {i}: {real} s read for {sim} s simulated");
        }
    }

    #[test]
    fn io_hiding_more_input_procs_faster() {
        // inject simulated I/O delay so the real pipeline becomes
        // I/O-bound, then verify more input processors hide it (Fig 8)
        let ds = dataset();
        let run = |m: usize| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::OneDip { input_procs: m })
                .image_size(48, 48)
                .keep_frames(false)
                .io_delay_scale(50.0)
                .run()
                .expect("pipeline")
                .total_seconds()
        };
        let t1 = run(1);
        let t3 = run(3);
        assert!(t3 < t1 * 0.75, "3 input processors should hide I/O: {t3:.3}s vs {t1:.3}s with 1");
    }

    #[test]
    fn quantization_shrinks_traffic_with_tiny_image_error() {
        let ds = dataset();
        let run = |q: bool| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::OneDip { input_procs: 2 })
                .image_size(64, 64)
                .quantize(q)
                .run()
                .expect("pipeline")
        };
        let full = run(false);
        let quant = run(true);
        // value error ≤ 1/255 of the range: imperceptible in the frame
        for t in 0..ds.steps() {
            let d = full.frames[t].rms_difference(&quant.frames[t]);
            assert!(d < 0.01, "frame {t}: quantization error too visible (rms {d})");
        }
        // block-distribution traffic shrinks towards 1/4 (other traffic —
        // images, FrameInfo — is shared, so total is between 1/4 and 1)
        assert!(
            quant.bytes_sent < full.bytes_sent * 9 / 10,
            "quantization should cut traffic: {} vs {}",
            quant.bytes_sent,
            full.bytes_sent
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = dataset();
        let err = |b: PipelineBuilder| match b.run() {
            Err(e) => e,
            Ok(_) => panic!("config must be rejected"),
        };
        assert!(err(PipelineBuilder::new(&ds).renderers(0)).contains("rendering processor"));
        assert!(err(PipelineBuilder::new(&ds).io_strategy(IoStrategy::OneDip { input_procs: 0 }))
            .contains("input processor"));
        assert!(err(
            PipelineBuilder::new(&ds).io_strategy(IoStrategy::TwoDip { groups: 0, per_group: 2 })
        )
        .contains("input group"));
        assert!(err(
            PipelineBuilder::new(&ds).io_strategy(IoStrategy::TwoDip { groups: 2, per_group: 0 })
        )
        .contains("input processor"));
        assert!(err(PipelineBuilder::new(&ds)
            .io_strategy(IoStrategy::TwoDip { groups: usize::MAX, per_group: 2 }))
        .contains("overflows"));
        // group width wider than the mesh: members would own empty slices
        let nodes = ds.mesh().node_count();
        assert!(err(PipelineBuilder::new(&ds)
            .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: nodes + 1 }))
        .contains("exceeds the mesh"));
        assert!(err(PipelineBuilder::new(&ds).max_steps(0)).contains("step"));
        // elastic control-plane constraints
        assert!(err(PipelineBuilder::new(&ds).elastic(0)).contains("control tick period"));
        // read-ahead runs under the epoch clock like everything else
        let report = PipelineBuilder::new(&ds).elastic(2).prefetch(true).run();
        assert_eq!(report.expect("elastic + prefetch").frames.len(), ds.steps());
        // reshape needs a 2DIP group wide enough to narrow
        assert!(err(PipelineBuilder::new(&ds)
            .elastic(2)
            .elastic_reshape(true)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 }))
        .contains("reshape requires"));
    }

    #[test]
    fn prefetch_runtime_smoke() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .prefetch(true)
            .run()
            .expect("prefetch pipeline");
        assert!(report.prefetch);
        assert_eq!(report.frames.len(), 4);
        let busy = report.frames.iter().any(|f| f.pixels().iter().any(|p| p[3] > 0.01));
        assert!(busy, "no frame shows any volume contribution");
    }

    /// A warm replay that finds one cached frame corrupt renders the run
    /// instead of shipping a blank: every frame comes back undegraded and
    /// equal, bit for bit, to the cold run's.
    #[test]
    fn warm_replay_with_a_corrupt_cached_frame_renders_instead() {
        let ds = dataset();
        let tier = CacheTier::new(crate::cache::CacheConfig { blocks_mb: 8, frames: 8 });
        let run = || {
            let builder = PipelineBuilder::new(&ds).renderers(2).image_size(48, 48);
            builder.cache_tier(Arc::clone(&tier)).run().expect("pipeline")
        };
        let cold = run();
        assert_eq!(cold.degraded_frame_count(), 0);
        tier.frames.corrupt_step(2);
        let warm = run();
        assert_eq!(warm.degraded_frame_count(), 0, "{:?}", warm.degraded);
        assert!(warm.messages > 0, "the frames were replayed, not rendered");
        assert_eq!(warm.trace.metrics.get("cache.frame.rejects"), Some(&1));
        let bits = |r: &PipelineReport| -> Vec<Vec<[u32; 4]>> {
            r.frames
                .iter()
                .map(|f| f.pixels().iter().map(|p| p.map(f32::to_bits)).collect())
                .collect()
        };
        assert_eq!(bits(&warm), bits(&cold));
    }

    /// The output role alone, from literal contexts and no `run_pipeline`:
    /// in a world of one input, one renderer and the output rank, a fake
    /// render root sends a pristine frame, one with unsorted duplicate
    /// flags and one whose envelope is corrupt.
    #[test]
    fn output_role_flags_corrupt_frames_and_caches_only_pristine_ones() {
        let dataset = SimulationBuilder::new().resolution(8).steps(3).run_to_dataset().unwrap();
        let shape = WorldShape { groups: 1, per_group: 1, renderers: 1, spares: 0 };
        let tier = CacheTier::new(crate::cache::CacheConfig { blocks_mb: 0, frames: 8 });
        let run = Run {
            dataset: dataset.clone(),
            steps: 0..3,
            session: Obs::new(false),
            sched: Schedule::new(&[], None, shape, None, 3).unwrap(),
            faults: FaultPlan::new(FaultSpec::default()),
            wire: WireSpec::raw(),
            ledger: Arc::new(WireLedger::new()),
            elastic: EpochState::with_active(vec![vec![0]], 1, 1),
            block_weights: vec![1],
            cache: Some(Arc::clone(&tier)),
            heartbeat: Duration::from_secs(1),
            checkpoints: None,
        };
        let out = OutputCtx {
            control: ControlConfig::every(0),
            resume_plans: Vec::new(),
            keep_frames: true,
            size: (4, 4),
            level: 0,
            camera_hash: 7,
            transfer: TransferFunction::seismic(),
            quantize: false,
            lighting: false,
            lic: false,
        };
        let mut image = RgbaImage::new(4, 4);
        image.pixels_mut().fill([0.5; 4]);
        let (lic, coarser) = (Degradation::MissingLic, |block| Degradation::CoarserLevel { block });
        let results = World::run(3, |comm| match comm.rank() {
            1 => {
                let plain = || proto::WireImage::Plain(image.clone());
                VOL.send(&comm, 2, 0, (plain(), Vec::new()));
                VOL.send(&comm, 2, 1, (plain(), vec![lic, coarser(3), lic, coarser(1)]));
                let body = vec![0xff; 5];
                let corrupt = proto::WireImage::Coded { width: 4, height: 4, coded: true, body };
                VOL.send(&comm, 2, 2, (corrupt, Vec::new()));
                None
            }
            2 => Some(output_main(&comm, &run, &out, Instant::now())),
            _ => None,
        });
        let Some(RankResult::Output { sink, plans, .. }) = results.into_iter().flatten().next()
        else {
            panic!("the output rank returned no sink");
        };
        assert!(plans.is_empty());
        let flags = [vec![], vec![coarser(1), coarser(3), lic], vec![Degradation::CorruptImage]];
        assert_eq!(sink.degraded, flags);
        assert_eq!(sink.frames[1].pixels(), image.pixels());
        assert!(sink.frames[2].pixels().iter().all(|p| *p == [0.0; 4]), "a corrupt frame is blank");
        let key = |t| out.frame_key(&dataset, t).unwrap();
        assert!(tier.frames.contains(key(0)));
        assert_eq!(tier.frames.len(), 1, "only the pristine frame is cached");
        assert_eq!(run.faults.recovery().wire_rejects, 1);
    }
}
