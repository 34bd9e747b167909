//! Simulation-time visualization is `run_pipeline` over a dataset that is
//! still being written (`SimulationBuilder::run_live`), so its oracle is
//! the pipeline itself: once the simulation has finished, replaying the
//! completed dataset through the reference runtime must reproduce every
//! live frame bit for bit — both runs normalize step `t` by the running
//! maximum `Dataset::norm_at(t)`.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn simulation(steps: usize) -> SimulationBuilder {
    SimulationBuilder::new().resolution(16).steps(steps).frequency(0.3)
}

/// No fault plan, so no delivery deadline: a renderer waits for a step the
/// solver has not computed yet instead of giving it up.
fn builder(ds: &Dataset) -> PipelineBuilder {
    PipelineBuilder::new(ds).renderers(2).image_size(64, 64)
}

fn assert_bit_identical(live: &PipelineReport, replay: &PipelineReport, what: &str) {
    assert_eq!(live.frames.len(), replay.frames.len(), "{what}: frame count differs");
    for (t, (a, b)) in live.frames.iter().zip(&replay.frames).enumerate() {
        let same = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(same, "{what}: live frame {t} differs from the replay of the completed dataset");
    }
    assert_eq!(live.degraded, replay.degraded, "{what}: degradation flags differ");
}

/// Run `configure`d over a live simulation, then replay the completed
/// dataset through the reference runtime (sync 1DIP×1) with the same
/// rendering options.
fn assert_live_matches_replay(what: &str, configure: impl Fn(PipelineBuilder) -> PipelineBuilder) {
    let (ds, sim) = simulation(6).run_live().expect("set-up");
    let live = configure(builder(&ds)).run().expect("live run");
    sim.join().expect("simulation");
    let replay = configure(builder(&ds))
        .io_strategy(IoStrategy::OneDip { input_procs: 1 })
        .prefetch(false)
        .run()
        .expect("replay");
    assert_eq!(live.frames.len(), 6);
    assert_bit_identical(&live, &replay, what);
}

#[test]
fn live_frames_match_replay_of_the_completed_dataset() {
    assert_live_matches_replay("sync 1dip", |b| {
        b.io_strategy(IoStrategy::OneDip { input_procs: 1 })
    });
    assert_live_matches_replay("prefetch 1dip x2", |b| {
        b.io_strategy(IoStrategy::OneDip { input_procs: 2 }).prefetch(true)
    });
    assert_live_matches_replay("2dip 1x2", |b| {
        b.io_strategy(IoStrategy::TwoDip { groups: 1, per_group: 2 })
    });
    assert_live_matches_replay("lic", |b| b.lic(true));
}

/// The coupling is real: a frame is out while the simulation still has
/// steps to compute, and the whole run costs less than simulating and
/// rendering one after the other.
#[test]
fn frames_are_delivered_while_the_simulation_runs() {
    // one frame of a long simulation: the pipeline is done before the
    // solver is
    let (ds, sim) = simulation(48).run_live().expect("set-up");
    let first = builder(&ds).max_steps(1).run().expect("first frame");
    assert_eq!(first.frames.len(), 1);
    assert!(
        ds.norm_if_published(ds.steps() - 1).is_none(),
        "the first frame must be delivered before the simulation has finished"
    );
    sim.join().expect("simulation");

    // a full run: lit and large enough that rendering is real work, one
    // renderer and a solver slowed to about its pace, so that even two
    // cores can run the two side by side
    let (ds, sim) = simulation(8).substeps_per_output(100).run_live().expect("set-up");
    let report = builder(&ds)
        .renderers(1)
        .io_strategy(IoStrategy::OneDip { input_procs: 1 })
        .image_size(160, 160)
        .lighting(true)
        .run()
        .expect("live run");
    let sim = sim.join().expect("simulation");
    let render: f64 = report.render_frames.iter().map(|f| f.render_s).sum();
    let serial = sim.sim_seconds + render / report.renderers as f64;
    assert!(
        report.total_seconds() < serial,
        "in-situ total {:.3}s must beat simulate-then-render {serial:.3}s",
        report.total_seconds()
    );
}

#[test]
fn norm_history_is_monotone_and_is_what_frames_are_scaled_by() {
    let (ds, sim) = simulation(6).run_live().expect("set-up");
    let sim = sim.join().expect("simulation");
    assert_eq!(sim.norm_history.len(), ds.steps());
    for (t, norm) in sim.norm_history.iter().enumerate() {
        assert_eq!(ds.norm_at(t).to_bits(), norm.to_bits(), "step {t}");
        assert_eq!(ds.norm_if_published(t), Some(*norm));
    }
    assert!(sim.norm_history.windows(2).all(|w| w[0] <= w[1]), "{:?}", sim.norm_history);
    assert!(sim.norm_history[0] < sim.vmag_max, "the wave must still be growing at step 0");
    assert_eq!(ds.vmag_max().to_bits(), sim.vmag_max.to_bits());
}

#[test]
fn run_live_rejects_what_run_to_dataset_rejects() {
    for bad in [simulation(6).resolution(20), simulation(6).resolution(4), simulation(0)] {
        let live = bad.clone().run_live().err().expect("run_live must reject");
        let post = bad.run_to_dataset().err().expect("run_to_dataset must reject");
        assert_eq!(live, post);
    }
}
