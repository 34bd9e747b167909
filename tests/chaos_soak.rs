//! Chaos-soak harness: randomized-but-valid multi-fault schedules,
//! generated from pinned seeds, thrown at the full pipeline. The focused
//! fault suites prove each recovery mechanism alone; the soak proves
//! they *compose* — a dropped send during a death window, corruption
//! racing a rejoin, a slow rank underneath it all — and that every run
//! still terminates with a frame for every step. A failing seed shrinks
//! to a 1-minimal clause subset, which is the reproducer a bug report
//! carries instead of a 9-knob haystack.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder};
use quakeviz::rt::chaos::{chaos_clauses, compose, shrink, ChaosTopology};
use quakeviz::rt::FaultSpec;
use quakeviz::seismic::{Dataset, SimulationBuilder};

const STEPS: usize = 6;

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(STEPS).run_to_dataset().unwrap()
}

/// Soak world: `[0,1 inputs | 2,3 renderers | 4 output]` over a 2DIP
/// group of two — every membership fault the generator emits (render
/// windows, permanent render kills, input windows) is survivable here.
fn topo() -> ChaosTopology {
    ChaosTopology { n_inputs: 2, renderers: 2, steps: STEPS, input_kills: true }
}

fn soak_builder(ds: &Dataset) -> PipelineBuilder {
    PipelineBuilder::new(ds)
        .renderers(2)
        .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: 2 })
        .image_size(32, 32)
        .delivery_deadline_ms(250)
}

/// The soak proper: every pinned seed's generated schedule must complete
/// with a valid frame per step — degraded frames are legal (that is the
/// fault model working), missing frames, stalls, and panics are not.
#[test]
fn pinned_seed_schedules_all_terminate_with_full_frame_sequences() {
    let ds = dataset();
    // every seed soaks three times: inline prepares, with the read-ahead
    // stage, and under the elastic controller — whose ticks (steps 2 and
    // 4) the generated kill windows and rejoins land on and off freely
    for (seed, prefetch, elastic) in [2, 7, 11, 23, 42, 101]
        .into_iter()
        .flat_map(|s| [(s, false, false), (s, true, false), (s, false, true)])
    {
        let clauses = chaos_clauses(seed, &topo());
        let spec = FaultSpec::parse(&compose(&clauses))
            .unwrap_or_else(|e| panic!("seed {seed}: generated schedule must parse: {e}"));
        let b = soak_builder(&ds).faults(spec).prefetch(prefetch);
        let report = if elastic { b.elastic(2) } else { b }.run().unwrap_or_else(|e| {
            panic!("seed {seed} prefetch={prefetch} elastic={elastic} ({}): {e}", compose(&clauses))
        });
        assert_eq!(
            report.frames.len(),
            ds.steps(),
            "seed {seed} prefetch={prefetch} elastic={elastic} ({}): every step must deliver a frame",
            compose(&clauses)
        );
        for (t, frame) in report.frames.iter().enumerate() {
            assert_eq!(
                frame.pixels().len(),
                32 * 32,
                "seed {seed}: frame {t} has the wrong geometry"
            );
        }
        assert_eq!(
            report.degraded.len(),
            ds.steps(),
            "seed {seed}: degradation bookkeeping must cover every step"
        );
        for (t, flags) in report.degraded.iter().enumerate() {
            assert!(
                flags.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: frame {t} flags {flags:?} must be sorted with no duplicates"
            );
        }
    }
}

/// The same seed must soak identically twice: schedule, degradation
/// pattern, and pixels are all pure functions of the seed.
#[test]
fn soak_runs_replay_deterministically() {
    let ds = dataset();
    let seed = 11;
    let run = || {
        soak_builder(&ds)
            .faults(FaultSpec::parse(&compose(&chaos_clauses(seed, &topo()))).unwrap())
            .run()
            .expect("soak run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.degraded, b.degraded, "same seed must degrade the same frames");
    for (t, (fa, fb)) in a.frames.iter().zip(&b.frames).enumerate() {
        assert_eq!(fa.pixels(), fb.pixels(), "seed {seed}: frame {t} not reproducible");
    }
}

/// Shrinking against the real pipeline: a generated schedule is salted
/// with one clause the validator rejects, and the shrinker — using
/// "does `run()` fail?" as its oracle — reduces the haystack to exactly
/// that clause. This is the workflow a failing soak seed goes through,
/// demonstrated at validation speed instead of full-run speed.
#[test]
fn failing_schedules_shrink_to_a_minimal_reproducer() {
    let ds = dataset();
    let mut clauses = chaos_clauses(42, &topo());
    clauses.retain(|c| !c.starts_with("fail_rank") && !c.starts_with("recover_rank"));
    assert!(clauses.len() >= 3, "seed 42 must generate a non-trivial haystack: {clauses:?}");
    // the needle: a kill the world cannot absorb (output rank 4, and no
    // recovery is possible for it)
    clauses.push("fail_rank=4@2".to_string());
    clauses.push("recover_rank=4@4".to_string());
    let fails = |subset: &[String]| {
        let Ok(spec) = FaultSpec::parse(&compose(subset)) else {
            return false;
        };
        soak_builder(&ds).faults(spec).run().is_err()
    };
    assert!(fails(&clauses), "the salted schedule must fail");
    let minimal = shrink(&clauses, fails);
    // 1-minimality goes further than the planted pair: the recover alone
    // is already rejected (a bare recover is a spare-pool join this
    // world does not have), so the reproducer is a single clause
    assert_eq!(
        minimal,
        vec!["recover_rank=4@4".to_string()],
        "shrinking must isolate the impossible-rejoin clause"
    );
}
