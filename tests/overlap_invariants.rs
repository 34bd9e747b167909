//! Trace-level invariants of the overlapped prefetch runtime, on a
//! read-dominated configuration (high injected I/O delay, cheap frames):
//!
//! 1. the prefetch worker really reads ahead — each input rank's
//!    read/preprocess work for step `t+2` overlaps some renderer's
//!    render span for an earlier step,
//! 2. the interframe cadence beats the serial per-step cost — the mean
//!    delay is at most `mean_read + mean_preprocess + mean_render`
//!    (the synchronous path cannot go below the serial sum on one lane),
//! 3. span accounting stays sound: SendWait appears only under
//!    backpressure and never on the sync path.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::rt::obs::Phase;
use quakeviz::seismic::{Dataset, SimulationBuilder};

const STEPS: usize = 6;

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(STEPS).run_to_dataset().unwrap()
}

/// Read-dominated pipeline: the injected I/O delay dwarfs the render
/// cost, so prefetching is what keeps the renderers fed.
fn pipeline(ds: &Dataset, prefetch: bool) -> PipelineBuilder {
    PipelineBuilder::new(ds)
        .renderers(2)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(48, 48)
        .keep_frames(false)
        .io_delay_scale(40.0)
        .prefetch(prefetch)
        .trace(true)
}

fn run(ds: &Dataset, prefetch: bool) -> PipelineReport {
    pipeline(ds, prefetch).run().expect("pipeline")
}

#[test]
fn prefetch_reads_ahead_of_rendering() {
    let ds = dataset();
    // An input rank asks for its next read once it has sent the step in
    // hand, which is about when the renderers start on it: a 48² frame is
    // drawn in under a millisecond and can be over before the read begins.
    // Lit 192² frames take the renderers tens of milliseconds from step 1
    // on (still a small fraction of a read), so the overlap is there to see.
    let report = pipeline(&ds, true).image_size(192, 192).lighting(true).run().expect("pipeline");
    let tr = &report.trace;

    // global render intervals per step (µs since epoch)
    let mut render_by_step: Vec<Vec<(u64, u64)>> = vec![Vec::new(); STEPS];
    for track in tr.tracks.iter().filter(|t| t.group == "render") {
        for s in &track.spans {
            if s.phase == Phase::Render && (s.step as usize) < STEPS {
                render_by_step[s.step as usize].push((s.start_us, s.end_us()));
            }
        }
    }
    assert!(render_by_step.iter().all(|v| !v.is_empty()), "missing render spans");

    // with m=2 input processors, rank r owns steps r, r+2, r+4 … — while
    // the renderers draw step t, the owner of t+2 must already be reading
    let mut checked = 0;
    for track in tr.tracks.iter().filter(|t| t.group == "input") {
        for s in &track.spans {
            let ahead = s.step as usize;
            if !matches!(s.phase, Phase::Read | Phase::Preprocess) || ahead < 2 {
                continue;
            }
            let t = ahead - 2; // the frame the renderers work on meanwhile
            let overlaps =
                render_by_step[t].iter().any(|&(r0, r1)| s.start_us < r1 && r0 < s.end_us());
            if overlaps {
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 2,
        "no input rank's read/preprocess for step t+2 overlapped rendering of step t \
         ({checked} overlapping spans)"
    );
}

#[test]
fn prefetch_interframe_beats_the_serial_stage_sum() {
    let ds = dataset();
    let report = run(&ds, true);
    let serial = report.mean_read_seconds()
        + report.mean_preprocess_seconds()
        + report.mean_render_seconds();
    let mean = report.mean_interframe_delay();
    assert!(
        mean <= serial,
        "read-dominated prefetch run should pipeline below the serial stage sum: \
         interframe {mean:.4}s > read+preprocess+render {serial:.4}s"
    );
}

#[test]
fn prefetch_not_slower_than_sync_wall_clock() {
    // generous margin: scheduling noise must not hide a real regression
    let ds = dataset();
    let sync = run(&ds, false);
    let pre = run(&ds, true);
    let (ws, wp) = (sync.frame_done.last().unwrap(), pre.frame_done.last().unwrap());
    assert!(*wp <= *ws * 1.15, "prefetch run ({wp:.4}s) much slower than sync ({ws:.4}s)");
}

#[test]
fn send_wait_only_under_backpressure() {
    let ds = dataset();
    let sync = run(&ds, false);
    assert!(
        sync.input_steps.iter().all(|s| s.send_wait_s == 0.0),
        "sync path must never record SendWait"
    );
    for track in sync.trace.tracks.iter() {
        assert!(
            track.spans.iter().all(|s| s.phase != Phase::SendWait),
            "SendWait span on the sync path (rank {})",
            track.rank
        );
    }
    // prefetch with 1 input processor owning 6 steps and a 2-slot queue
    // must hit backpressure at least once
    let one = PipelineBuilder::new(&ds)
        .renderers(2)
        .io_strategy(IoStrategy::OneDip { input_procs: 1 })
        .image_size(48, 48)
        .keep_frames(false)
        .io_delay_scale(2.0)
        .prefetch(true)
        .trace(true)
        .run()
        .expect("pipeline");
    let waits = one
        .trace
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.phase == Phase::SendWait)
        .count();
    assert!(waits > 0, "expected SendWait spans once in-flight sends exceed the slots");
}

/// Largest interframe delay once the pipeline has filled (the first
/// `lanes` frames fill it).
fn worst_steady_gap(report: &PipelineReport, lanes: usize) -> f64 {
    report.interframe()[lanes..].iter().copied().fold(0.0, f64::max)
}

#[test]
fn input_bound_lanes_interleave_instead_of_bursting() {
    // three lanes, reads far slower than the tiny frames: the cadence is
    // set by the input side alone. All lanes start reading at t = 0, so
    // without the one-off stagger they deliver three frames at once and
    // then nothing for a whole read (largest gap ≈ 0.9 × read); staggered
    // they deliver one frame every read/3.
    let lanes = 3;
    let ds = SimulationBuilder::new().resolution(16).steps(9).run_to_dataset().unwrap();
    let run = |io_delay: f64, image: u32, prefetch: bool| {
        PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: lanes })
            .image_size(image, image)
            .keep_frames(false)
            .io_delay_scale(io_delay)
            .prefetch(prefetch)
            .run()
            .expect("pipeline")
    };
    let report = run(80.0, 24, true);
    let read = report.mean_read_seconds();
    let worst = worst_steady_gap(&report, lanes);
    assert!(
        worst < 0.6 * read,
        "input-bound cadence is bursty: largest steady gap {worst:.4}s of a {read:.4}s read \
         (interleaved lanes give a third)"
    );
    let sync = run(80.0, 24, false);
    let worst = worst_steady_gap(&sync, lanes);
    assert!(worst < 0.6 * read, "sync lanes burst: largest steady gap {worst:.4}s of {read:.4}s");

    // render-bound, the stagger must cost nothing: lane 0 is never held
    // back, so the first frame is as early as ever, and the steady delay
    // still pipelines below the serial stage sum
    let bound = run(1.0, 160, true);
    let serial =
        bound.mean_read_seconds() + bound.mean_preprocess_seconds() + bound.mean_render_seconds();
    assert!(bound.mean_interframe_delay() <= serial, "render-bound run lost its overlap");
    assert!(
        bound.frame_done[0] <= 2.0 * serial,
        "first frame at {:.4}s, one serial step is {serial:.4}s",
        bound.frame_done[0]
    );
}
