//! The LIC texel → node stencil is per-run state: `run_pipeline` builds one
//! `SurfaceSampler` at set-up and every input rank samples through it,
//! however many of them take turns leading a step. The tick counters are
//! process-wide, so this file holds a single test.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::rt::obs::{prof, Phase};
use quakeviz::seismic::SimulationBuilder;

const STEPS: usize = 4;
const SIZE: u32 = 64;

fn ticks(name: &str) -> u64 {
    prof::snapshot().into_iter().find(|(k, _)| k == name).map_or(0, |(_, n)| n)
}

#[test]
fn input_ranks_share_one_sampler_and_match_the_serial_oracle() {
    let ds = SimulationBuilder::new().resolution(16).steps(STEPS).run_to_dataset().unwrap();
    // on before the run: the stencil is built during set-up
    prof::set_enabled(true);
    let run = |input_procs: usize, renderers: usize| -> PipelineReport {
        PipelineBuilder::new(&ds)
            .renderers(renderers)
            .io_strategy(IoStrategy::OneDip { input_procs })
            .image_size(SIZE, SIZE)
            .lighting(true)
            .lic(true)
            .trace(true)
            .run()
            .expect("pipeline")
    };

    let parallel = run(2, 2);
    assert_eq!(ticks("lic.sampler_builds"), 1, "one stencil for the run, not one per rank or step");
    assert_eq!(ticks("lic.pixels"), STEPS as u64 * (SIZE * SIZE) as u64);
    // 1DIP: the two input ranks own alternate steps, so both convolved
    let lic_ranks = parallel
        .trace
        .tracks
        .iter()
        .filter(|t| t.group == "input" && t.spans.iter().any(|s| s.phase == Phase::Lic))
        .count();
    assert_eq!(lic_ranks, 2);

    let serial = run(1, 1);
    assert_eq!(ticks("lic.sampler_builds"), 2);
    assert_eq!(parallel.frames.len(), STEPS);
    for (t, (got, want)) in parallel.frames.iter().zip(&serial.frames).enumerate() {
        assert_eq!(got.pixels(), want.pixels(), "frame {t} differs from the serial run");
    }
    // the overlay is there: the ground rectangle is covered even where
    // the volume is empty
    let covered = parallel.frames[0].pixels().iter().filter(|p| p[3] > 0.0).count();
    assert!(covered * 4 > (SIZE * SIZE) as usize, "{covered} pixels covered in frame 0");
}
