//! Cache-coherence suite for the storage tier: a pipeline run with the
//! block/frame cache armed — cold or warm — must render bit-identical
//! frames to the cache-disabled oracle, in every regime the pipeline
//! supports: clean 1DIP and 2DIP, recovering faulted reads, a render-rank
//! failover, a checkpoint kill-and-resume, and a dataset that is still
//! being written. The warm leg must also
//! *prove* it used the cache (nonzero hit counters), or the identity
//! assertions would pass vacuously.

use quakeviz::pipeline::{
    CacheConfig, CacheTier, IoStrategy, PipelineBuilder, PipelineReport, RetryPolicy,
};
use quakeviz::rt::FaultSpec;
use quakeviz::seismic::{Dataset, SimulationBuilder};
use std::sync::Arc;

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
}

fn builder(ds: &Dataset) -> PipelineBuilder {
    PipelineBuilder::new(ds)
        .renderers(2)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(48, 48)
}

fn tier() -> Arc<CacheTier> {
    CacheTier::new(CacheConfig { blocks_mb: 64, frames: 64 })
}

/// A row of the run's metrics table (0 when never emitted).
fn counter(report: &PipelineReport, name: &str) -> u64 {
    report.trace.metrics.get(name).copied().unwrap_or(0)
}

fn assert_frames_identical(oracle: &PipelineReport, got: &PipelineReport, what: &str) {
    assert_eq!(oracle.frames.len(), got.frames.len(), "{what}: frame count differs");
    for (t, (a, b)) in oracle.frames.iter().zip(&got.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "{what}: frame {t} differs from the oracle");
    }
}

/// The core experiment, shared by every regime: run the identical
/// configuration cache-off (oracle), then cold and warm against one
/// shared tier. Both cached legs must match the oracle bit-for-bit and
/// the warm leg must show cache traffic.
fn assert_cold_warm_coherent(
    ds: &Dataset,
    make: impl Fn(&Dataset) -> PipelineBuilder,
    what: &str,
) -> (PipelineReport, PipelineReport) {
    let oracle = make(ds).run().expect("cache-disabled oracle");
    let t = tier();
    let cold = make(ds).cache_tier(Arc::clone(&t)).run().expect("cold cached run");
    let warm = make(ds).cache_tier(Arc::clone(&t)).run().expect("warm cached run");
    assert_frames_identical(&oracle, &cold, &format!("{what} (cold)"));
    assert_frames_identical(&oracle, &warm, &format!("{what} (warm)"));
    let hits = counter(&warm, "cache.frame.hits") + counter(&warm, "cache.block.hits");
    assert!(hits > 0, "{what}: warm leg never hit the cache — identity was vacuous");
    (cold, warm)
}

/// Clean 1DIP: the cold leg populates, the warm leg replays every frame
/// straight from the frame cache.
#[test]
fn clean_onedip_cold_and_warm_match_oracle() {
    let ds = dataset();
    let (cold, warm) = assert_cold_warm_coherent(&ds, builder, "clean 1dip");
    assert_eq!(counter(&cold, "cache.frame.hits"), 0, "cold leg cannot hit a fresh tier");
    assert!(counter(&cold, "cache.block.misses") > 0, "cold leg must populate through misses");
    assert_eq!(
        counter(&warm, "cache.frame.hits"),
        warm.frames.len() as u64,
        "a clean warm replay must serve every frame from the cache"
    );
    // a replay runs no ranks: it builds no brick plans and sends nothing
    assert!(counter(&cold, "render.plan_bytes") > 0);
    assert_eq!(counter(&warm, "render.plan_bytes"), 0, "a warm replay built brick plans");
    assert_eq!(warm.messages, 0, "a warm replay exchanged messages");
}

/// Clean 2DIP: the collective read path never consults the block cache
/// (the group read is lock-step), but the frame tier still replays.
#[test]
fn clean_twodip_cold_and_warm_match_oracle() {
    let ds = dataset();
    let make = |ds: &Dataset| {
        PipelineBuilder::new(ds)
            .renderers(3)
            .io_strategy(IoStrategy::TwoDip { groups: 2, per_group: 2 })
            .image_size(48, 48)
    };
    let (_, warm) = assert_cold_warm_coherent(&ds, make, "clean 2dip");
    assert_eq!(counter(&warm, "cache.frame.hits"), warm.frames.len() as u64);
}

/// Faulted reads with retries exhausted on some blocks: degraded frames
/// are never cached, so the warm leg recomputes them — hitting the block
/// cache for the blocks whose reads succeeded — and the stateless fault
/// schedule keeps every leg bit-identical to the faulted oracle.
#[test]
fn faulted_reads_stay_coherent() {
    let ds = dataset();
    let make = |ds: &Dataset| {
        builder(ds)
            .faults(FaultSpec::parse("seed=7,read_transient=0.45").unwrap())
            .retry(RetryPolicy { max_attempts: 2, backoff_ms: 1 })
            .delivery_deadline_ms(400)
    };
    let oracle = make(&ds).run().expect("faulted oracle");
    assert!(oracle.degraded_frame_count() > 0, "spec must actually degrade frames");
    let (cold, warm) = assert_cold_warm_coherent(&ds, make, "faulted 1dip");
    assert_eq!(oracle.degraded, cold.degraded, "cold leg must degrade the same frames");
    assert_eq!(oracle.degraded, warm.degraded, "warm leg must degrade the same frames");
    assert!(
        counter(&warm, "cache.block.hits") > 0,
        "recovered blocks were cached cold and must hit warm"
    );
}

/// Render-rank failover: the survivors' recomputed partition renders the
/// same pixels, so both cached legs match the failover oracle.
#[test]
fn render_failover_stays_coherent() {
    let ds = dataset();
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — kill renderer 3
    let make = |ds: &Dataset| {
        builder(ds)
            .renderers(3)
            .faults(FaultSpec::parse("seed=1,fail_rank=3@1").unwrap())
            .delivery_deadline_ms(500)
    };
    assert_cold_warm_coherent(&ds, make, "render failover");
}

/// An elastic plan commit invalidates nothing: a block entry is keyed by
/// the exact nodes it holds and a frame is partition-invariant. A
/// spare-pool join's admit plan commits at step 2 whatever the timings;
/// across it, the cold leg's re-read of each step's predecessor (temporal
/// enhancement) still hits the block level, and the warm leg serves every
/// frame — both legs equal to the cache-off run's frames.
#[test]
fn an_elastic_commit_keeps_every_cached_entry() {
    let ds = dataset();
    // world: [0 input | 1,2 renderers | 3 spare | 4 output] — the spare
    // joins at tick 2 through the forced admit plan; no rank dies, so a
    // far deadline only keeps a loaded host from degrading a frame
    let make = |ds: &Dataset| {
        PipelineBuilder::new(ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 1 })
            .image_size(48, 48)
            .enhancement(true)
            .spare_renderers(1)
            .elastic(2)
            .faults(FaultSpec::parse("seed=11,recover_rank=3@2").unwrap())
            .delivery_deadline_ms(60_000)
    };
    let (cold, warm) = assert_cold_warm_coherent(&ds, make, "elastic commit");
    let admit = cold.control_plans.iter().find(|p| p.apply_at == 2);
    assert_eq!(admit.map(|p| p.active), Some(3), "the join tick must commit the admit plan");
    assert_eq!(counter(&warm, "cache.frame.hits"), warm.frames.len() as u64);
    assert_eq!(
        counter(&cold, "cache.block.hits"),
        ds.steps() as u64 - 1,
        "every step's re-read of its predecessor must hit, the commit step's too"
    );
}

/// Checkpoint kill-and-resume with the tier alive across all three runs:
/// the killed half populates the cache, the resumed half rides it, and
/// the spliced frames stay bit-identical to the uninterrupted
/// cache-disabled run.
#[test]
fn kill_and_resume_stays_coherent() {
    let ds = dataset();
    let full = builder(&ds).run().expect("uninterrupted oracle");
    let t = tier();
    let killed = builder(&ds)
        .cache_tier(Arc::clone(&t))
        .max_steps(2)
        .checkpoint_every(2)
        .checkpoint_path("ckpt-cache")
        .run()
        .expect("killed cached run");
    assert_eq!(killed.checkpoints, 1);
    let resumed = builder(&ds)
        .cache_tier(Arc::clone(&t))
        .checkpoint_every(2)
        .checkpoint_path("ckpt-cache")
        .resume(true)
        .run()
        .expect("resumed cached run");
    assert_eq!(resumed.resumed_from, Some(2));
    assert_eq!(killed.frames.len() + resumed.frames.len(), full.frames.len());
    for (t, (f, g)) in
        full.frames.iter().zip(killed.frames.iter().chain(&resumed.frames)).enumerate()
    {
        assert_eq!(f.pixels(), g.pixels(), "frame {t} differs from the uninterrupted run");
    }
    // and a full warm pass over the now fully populated tier
    let warm = builder(&ds).cache_tier(Arc::clone(&t)).run().expect("warm after splice");
    assert_frames_identical(&full, &warm, "warm after kill-and-resume");
    assert_eq!(counter(&warm, "cache.frame.hits"), full.frames.len() as u64);
}

/// The tier is stamped with the run's config fingerprint: runs under a
/// different fault schedule (a different fingerprint) flush rather than
/// share entries, so a cached clean frame can never serve a faulted run.
#[test]
fn fingerprint_mismatch_flushes_instead_of_serving_stale() {
    let ds = dataset();
    let t = tier();
    let clean = builder(&ds).cache_tier(Arc::clone(&t)).run().expect("clean populate");
    assert_eq!(counter(&clean, "cache.frame.hits"), 0);
    let make_faulted = |ds: &Dataset| {
        builder(ds)
            .faults(FaultSpec::parse("seed=7,read_transient=0.45").unwrap())
            .retry(RetryPolicy { max_attempts: 2, backoff_ms: 1 })
            .delivery_deadline_ms(400)
    };
    let oracle = make_faulted(&ds).run().expect("faulted oracle");
    let faulted = make_faulted(&ds).cache_tier(Arc::clone(&t)).run().expect("faulted over tier");
    assert_frames_identical(&oracle, &faulted, "faulted run over a clean-stamped tier");
    assert_eq!(
        counter(&faulted, "cache.frame.hits"),
        0,
        "the clean run's frames must have been flushed, not served"
    );
    assert_eq!(oracle.degraded, faulted.degraded);
}

/// One tier shared by a live run, the replay of its completed dataset and
/// a post-hoc dataset of the same simulation. The first two normalize step
/// `t` by the running maximum, the third by the global one, and the norm is
/// part of the frame key: the replay is served the live run's frames, the
/// post-hoc run is served none of them — and nobody is served a frame that
/// was rendered under a norm other than its own.
#[test]
fn live_replay_and_posthoc_runs_share_a_tier_coherently() {
    let simulation = || SimulationBuilder::new().resolution(16).steps(4);
    // one deadline for every leg (it is part of the config fingerprint),
    // far enough out that a faulted leg never gives up on the solver
    let make = |ds: &Dataset| builder(ds).delivery_deadline_ms(60_000);
    let posthoc = simulation().run_to_dataset().unwrap();
    let (live_ds, solver) = simulation().run_live().unwrap();
    let t = tier();

    let live = make(&live_ds).cache_tier(Arc::clone(&t)).run().expect("live run");
    solver.join().expect("simulation");
    assert_eq!(counter(&live, "cache.frame.hits"), 0, "nothing to serve a live run from");
    let live_oracle = make(&live_ds).run().expect("replay, cache off");
    let posthoc_oracle = make(&posthoc).run().expect("post-hoc, cache off");
    assert_frames_identical(&live_oracle, &live, "live run over the tier");
    assert_ne!(
        live_oracle.frames[0].pixels(),
        posthoc_oracle.frames[0].pixels(),
        "running and global norms must differ early in the run, or the rest is vacuous"
    );

    let replay = make(&live_ds).cache_tier(Arc::clone(&t)).run().expect("replay over the tier");
    assert_frames_identical(&live_oracle, &replay, "replay over the tier");
    assert_eq!(counter(&replay, "cache.frame.hits"), replay.frames.len() as u64);

    let post = make(&posthoc).cache_tier(Arc::clone(&t)).run().expect("post-hoc over the tier");
    assert_frames_identical(&posthoc_oracle, &post, "post-hoc run over the live run's tier");
    assert_eq!(counter(&post, "cache.frame.hits"), 0, "no live frame may serve a post-hoc run");

    // and the post-hoc run's inserts displaced nothing the replay needs
    let again = make(&live_ds).cache_tier(Arc::clone(&t)).run().expect("replay after post-hoc");
    assert_frames_identical(&live_oracle, &again, "replay after the post-hoc run");
}

/// No tier and an attached zero-capacity tier both mean *off*: no cache
/// metrics are emitted.
#[test]
fn disabled_cache_emits_no_metrics() {
    let ds = dataset();
    let report = builder(&ds).run().expect("plain run");
    assert!(
        report.trace.metrics.keys().all(|name| !name.starts_with("cache.")),
        "a cache-off run must not emit cache metrics"
    );
    let tier = CacheTier::new(CacheConfig { blocks_mb: 0, frames: 0 });
    let zero = builder(&ds).cache_tier(tier).run().expect("zero-capacity tier run");
    assert!(zero.trace.metrics.keys().all(|name| !name.starts_with("cache.")));
}
