//! Differential oracle for the overlapped prefetch runtime: for every
//! input-processor arrangement the prefetch pipeline must produce frames
//! **bit-identical** to the synchronous reference path. The two paths
//! share the per-step prepare/pack code, the block partition, and the
//! compositing order, so any divergence (a reordered send, a dropped
//! batch, a step raced out of order) shows up as a pixel diff here.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
}

/// Run the feature-loaded pipeline (enhancement + LIC + quantization +
/// adaptive fetch — every input-side transform that could disturb the
/// prefetch hand-off) with or without the overlapped runtime.
fn run(ds: &Dataset, io: IoStrategy, renderers: usize, prefetch: bool) -> PipelineReport {
    PipelineBuilder::new(ds)
        .renderers(renderers)
        .io_strategy(io)
        .image_size(64, 64)
        .enhancement(true)
        .lic(true)
        .quantize(true)
        .adaptive_fetch(true)
        .prefetch(prefetch)
        .run()
        .expect("pipeline")
}

fn assert_identical_frames(ds: &Dataset, io: IoStrategy, renderers: usize) {
    let sync = run(ds, io, renderers, false);
    let pre = run(ds, io, renderers, true);
    assert!(!sync.prefetch && pre.prefetch);
    assert_eq!(sync.frames.len(), pre.frames.len(), "{io:?}: frame count differs");
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(
            a.pixels(),
            b.pixels(),
            "{io:?}: frame {t} not bit-identical between sync and prefetch"
        );
    }
}

#[test]
fn onedip_prefetch_frames_bit_identical() {
    let ds = dataset();
    for m in [1usize, 2, 4] {
        assert_identical_frames(&ds, IoStrategy::OneDip { input_procs: m }, 2);
    }
}

#[test]
fn twodip_prefetch_frames_bit_identical() {
    let ds = dataset();
    for (n, m) in [(2usize, 1usize), (2, 2), (1, 4)] {
        assert_identical_frames(&ds, IoStrategy::TwoDip { groups: n, per_group: m }, 3);
    }
}

/// An armed-but-silent fault plan (all probabilities zero) must not
/// perturb a single pixel: the checksum, deadline-drain and degradation
/// machinery only ever *observes* a clean run, never changes it.
#[test]
fn zero_probability_fault_plan_frames_bit_identical() {
    let ds = dataset();
    for io in
        [IoStrategy::OneDip { input_procs: 2 }, IoStrategy::TwoDip { groups: 2, per_group: 2 }]
    {
        let clean = run(&ds, io, 3, false);
        let armed = PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(io)
            .image_size(64, 64)
            .enhancement(true)
            .lic(true)
            .quantize(true)
            .adaptive_fetch(true)
            .faults(quakeviz::rt::FaultSpec::parse("seed=7").unwrap())
            .run()
            .expect("pipeline");
        let rec = armed.recovery.expect("fault plan active");
        assert_eq!(rec.read_retries + rec.checksum_failures + rec.degraded_frames, 0);
        assert_eq!(armed.degraded_frame_count(), 0);
        assert_eq!(clean.frames.len(), armed.frames.len());
        for (t, (a, b)) in clean.frames.iter().zip(&armed.frames).enumerate() {
            assert_eq!(
                a.pixels(),
                b.pixels(),
                "{io:?}: frame {t} differs under a zero-probability fault plan"
            );
        }
    }
}

#[test]
fn prefetch_backpressure_engages_with_more_steps_than_slots() {
    // 1 input processor owning 6 steps with a 2-slot queue: the consumer
    // must wait on in-flight sends; frames still match the sync path
    let ds = SimulationBuilder::new().resolution(16).steps(6).run_to_dataset().unwrap();
    let io = IoStrategy::OneDip { input_procs: 1 };
    let sync = run(&ds, io, 2, false);
    let pre = run(&ds, io, 2, true);
    assert_eq!(sync.frames.len(), 6);
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "frame {t} differs");
    }
    // more renderers than blocks: a renderer that is owed no values must
    // still match the (empty) batches sent to it, or the in-flight cap
    // waits on their handles until the deadlock guard fires
    let sparse = |prefetch: bool| {
        PipelineBuilder::new(&ds)
            .renderers(3)
            .block_level(0)
            .io_strategy(io)
            .image_size(64, 64)
            .prefetch(prefetch)
            .run()
            .expect("pipeline")
    };
    let (sync, pre) = (sparse(false), sparse(true));
    assert_eq!(pre.frames.len(), 6);
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "one block, three renderers: frame {t} differs");
    }
}
