//! End-to-end fault-injection suite: the pipeline must survive every
//! scripted fault schedule — recoverable faults leave frames
//! bit-identical to the clean run, unrecoverable ones degrade frames
//! (flagged, coarser level) instead of stalling or panicking, and the
//! whole schedule replays deterministically from its seed.

use quakeviz::pipeline::{Degradation, IoStrategy, PipelineBuilder, PipelineReport, RetryPolicy};
use quakeviz::rt::{FaultSpec, WireSpec};
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
}

fn builder(ds: &Dataset, io: IoStrategy) -> PipelineBuilder {
    PipelineBuilder::new(ds).renderers(2).io_strategy(io).image_size(48, 48)
}

fn assert_all_frames_identical(a: &PipelineReport, b: &PipelineReport, what: &str) {
    assert_eq!(a.frames.len(), b.frames.len(), "{what}: frame count differs");
    for (t, (fa, fb)) in a.frames.iter().zip(&b.frames).enumerate() {
        assert_eq!(fa.pixels(), fb.pixels(), "{what}: frame {t} not bit-identical");
    }
}

/// A step file one node short — a dataset bug, not an injected fault —
/// fails that step's reads with a typed error instead of panicking the
/// input rank: its frame is delivered within seconds, flagged for every
/// block and the overlay, and the frames around it are the clean run's.
#[test]
fn a_truncated_step_file_degrades_its_frame_not_the_run() {
    let ds = SimulationBuilder::new().resolution(16).steps(3).run_to_dataset().unwrap();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean = builder(&ds, io).lic(true).run().expect("clean pipeline");
    let path = Dataset::step_path(1);
    let (mut bytes, _) = ds.disk().read_full(&path).expect("step file");
    bytes.truncate(bytes.len() - 12);
    ds.disk().write_file(&path, bytes);
    let start = std::time::Instant::now();
    let report = builder(&ds, io).lic(true).run().expect("a malformed step must not fail the run");
    let took = start.elapsed();
    assert!(took.as_secs() < 10, "the malformed step stalled the run for {took:?}");
    assert_eq!(report.frames.len(), ds.steps());
    assert_eq!(report.degraded_frame_count(), 1, "{:?}", report.degraded);
    let flags = &report.degraded[1];
    assert!(flags.contains(&Degradation::MissingLic), "{flags:?}");
    assert!(flags.iter().any(|d| matches!(d, Degradation::MissingBlock { .. })), "{flags:?}");
    for t in [0, 2] {
        assert_eq!(report.frames[t].pixels(), clean.frames[t].pixels(), "frame {t}");
    }
}

/// Every frame's degradation flags are sorted with no duplicates, in
/// whatever order the ranks raised them.
fn assert_flags_sorted(report: &PipelineReport, what: &str) {
    for (t, flags) in report.degraded.iter().enumerate() {
        assert!(flags.windows(2).all(|w| w[0] < w[1]), "{what}: frame {t} flags {flags:?}");
    }
}

/// Transient read faults below the retry budget are invisible in the
/// output: every frame bit-identical to the clean run, with the recovery
/// counters proving the faults actually fired.
#[test]
fn recoverable_read_faults_leave_frames_bit_identical() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean = builder(&ds, io).run().expect("clean pipeline");
    let spec = FaultSpec::parse("seed=11,read_transient=0.2,read_corrupt=0.1").unwrap();
    let faulted = builder(&ds, io)
        .faults(spec)
        .retry(RetryPolicy { max_attempts: 8, backoff_ms: 1 })
        .run()
        .expect("faulted pipeline");
    let rec = faulted.recovery.expect("fault plan active");
    assert!(rec.read_retries > 0, "spec must actually inject read faults");
    assert_eq!(rec.exhausted_reads, 0, "retry budget must absorb every fault");
    assert_eq!(faulted.degraded_frame_count(), 0);
    assert_all_frames_identical(&clean, &faulted, "recoverable read faults");
}

/// With every read attempt failing, no step's data can ever be fetched:
/// all frames must still be delivered — flagged degraded — with zero
/// panics and zero stalls.
#[test]
fn unrecoverable_reads_degrade_every_frame() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let report = builder(&ds, io)
        .lic(true)
        .faults(FaultSpec::parse("seed=3,read_transient=1.0").unwrap())
        .retry(RetryPolicy { max_attempts: 2, backoff_ms: 1 })
        .delivery_deadline_ms(250)
        .run()
        .expect("pipeline must complete under total read failure");
    assert_eq!(report.frames.len(), ds.steps(), "every frame must still be delivered");
    assert_eq!(
        report.degraded_frame_count(),
        ds.steps(),
        "every frame must be flagged degraded: {:?}",
        report.degraded
    );
    // the LIC overlay could not be read either: its flag is present
    assert!(report.degraded.iter().all(|d| d.contains(&Degradation::MissingLic)));
    assert_flags_sorted(&report, "unrecoverable reads");
    let rec = report.recovery.expect("fault plan active");
    assert!(rec.exhausted_reads > 0);
    assert!(rec.degraded_blocks > 0);
}

/// Dropped block-data messages degrade exactly the affected frames; the
/// untouched frames stay bit-identical to the clean run.
#[test]
fn dropped_sends_degrade_only_affected_frames() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean = builder(&ds, io).run().expect("clean pipeline");
    let faulted = builder(&ds, io)
        .faults(FaultSpec::parse("seed=5,send_drop=0.4").unwrap())
        .delivery_deadline_ms(200)
        .run()
        .expect("pipeline must complete under message loss");
    assert_eq!(faulted.frames.len(), ds.steps());
    assert!(
        faulted.degraded_frame_count() > 0,
        "spec must actually drop messages: {:?}",
        faulted.fault_events
    );
    assert!(faulted.degraded_frame_count() < ds.steps(), "some frames must survive");
    assert_flags_sorted(&faulted, "dropped sends");
    for t in 0..ds.steps() {
        if faulted.degraded[t].is_empty() {
            assert_eq!(
                clean.frames[t].pixels(),
                faulted.frames[t].pixels(),
                "clean frame {t} must be bit-identical to the fault-free run"
            );
        }
    }
}

/// Corrupted wire payloads are caught by the per-piece checksum and never
/// ingested: affected frames degrade, and the checksum-failure counter
/// records each rejection.
#[test]
fn wire_corruption_is_caught_by_checksums() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let report = builder(&ds, io)
        .faults(FaultSpec::parse("seed=9,wire_corrupt=0.5").unwrap())
        .delivery_deadline_ms(200)
        .run()
        .expect("pipeline must complete under wire corruption");
    let rec = report.recovery.expect("fault plan active");
    assert!(rec.checksum_failures > 0, "spec must actually corrupt messages");
    assert!(report.degraded_frame_count() > 0);
    assert_eq!(report.frames.len(), ds.steps());
    assert_flags_sorted(&report, "wire corruption");
}

/// The corruption guarantee holds for every wire codec, with and without
/// temporal deltas: single-bit flips land in the *encoded* body, the
/// per-piece checksum rejects the piece before any codec decode runs,
/// and the run still delivers a full (degraded, never stalled) frame
/// sequence. The quantized variant exercises the stride-1 encode path.
#[test]
fn wire_corruption_is_caught_under_every_codec() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    for spec in ["raw", "rle", "shuffle", "rle,delta,keyframe=2", "shuffle,delta,keyframe=2"] {
        for quantize in [false, true] {
            let report = builder(&ds, io)
                .quantize(quantize)
                .wire_spec(WireSpec::parse(spec).unwrap())
                .faults(FaultSpec::parse("seed=9,wire_corrupt=0.5").unwrap())
                .delivery_deadline_ms(200)
                .run()
                .expect("pipeline must complete under wire corruption");
            let rec = report.recovery.expect("fault plan active");
            let what = format!("codec={spec} quantize={quantize}");
            assert!(rec.checksum_failures > 0, "{what}: spec must actually corrupt messages");
            assert!(report.degraded_frame_count() > 0, "{what}: corruption must degrade frames");
            assert_eq!(report.frames.len(), ds.steps(), "{what}: every frame must be delivered");
            assert_flags_sorted(&report, &what);
        }
    }
}

/// Data that arrives after the renderers gave its step up must not stall
/// the prefetch runtime: the in-flight cap waits for the renderers to
/// *match* a step's sends, so a straggler nobody matches would hold its
/// slot until the deadlock guard fires (regression: 60 s, then a panic).
/// The renderers match stragglers when they next receive.
#[test]
fn late_data_degrades_without_stalling_the_prefetch_cap() {
    let ds = SimulationBuilder::new().resolution(16).steps(8).run_to_dataset().unwrap();
    // one input lane, reads ~20 ms, every third or so 20x slower — far
    // past the 100 ms delivery deadline
    let started = std::time::Instant::now();
    let report = builder(&ds, IoStrategy::OneDip { input_procs: 1 })
        .io_delay_scale(2.0)
        .faults(FaultSpec::parse("seed=2,read_slow=0.3,slow_factor=20").unwrap())
        .delivery_deadline_ms(100)
        .prefetch(true)
        .run()
        .expect("pipeline must complete with late data");
    assert!(started.elapsed().as_secs() < 30, "a late step held the run up");
    assert_eq!(report.frames.len(), ds.steps(), "every frame must still be delivered");
    let late: Vec<usize> = (0..ds.steps()).filter(|&t| !report.degraded[t].is_empty()).collect();
    assert!(late.iter().any(|&t| t + 3 < ds.steps()), "no step was late mid-run: {late:?}");
    assert_flags_sorted(&report, "late data");

    // the same slept reads with nothing to inject: data can only be slow,
    // never lost, so the renderers wait for it however short the delivery
    // deadline is — a clean run never degrades because its input was late
    let clean = |b: PipelineBuilder| b.prefetch(true).run().expect("clean pipeline");
    let prompt = clean(builder(&ds, IoStrategy::OneDip { input_procs: 1 }));
    let slept = clean(
        builder(&ds, IoStrategy::OneDip { input_procs: 1 })
            .io_delay_scale(2.0)
            .delivery_deadline_ms(1),
    );
    assert!(slept.recovery.is_none(), "no spec, no recovery section");
    assert_eq!(slept.degraded_frame_count(), 0, "slow input degraded a clean run");
    assert_all_frames_identical(&prompt, &slept, "slept reads, 1 ms deadline, no fault spec");
}

/// A scripted input-rank death inside a 2DIP group: the survivors detect
/// the silence via heartbeat timeouts and reassign the dead rank's slice,
/// so every frame — including those after the failure — stays
/// bit-identical to the clean run.
#[test]
fn input_rank_failover_keeps_frames_bit_identical() {
    let ds = dataset();
    let io = IoStrategy::TwoDip { groups: 1, per_group: 3 };
    let clean = builder(&ds, io).run().expect("clean pipeline");
    for prefetch in [false, true] {
        let faulted = builder(&ds, io)
            .faults(FaultSpec::parse("seed=1,fail_rank=1@2").unwrap())
            .delivery_deadline_ms(400)
            .prefetch(prefetch)
            .run()
            .expect("pipeline must survive an input-rank failure");
        let rec = faulted.recovery.expect("fault plan active");
        assert!(rec.failover_events >= 1, "survivors must have detected the death");
        assert_eq!(faulted.degraded_frame_count(), 0, "failover is full recovery");
        assert_all_frames_identical(&clean, &faulted, "rank failover");
        // steps read ahead under the full group's slices are stale once
        // the survivors re-slice: they are prepared inline instead
        assert_eq!(rec.prefetch_fallbacks >= 1, prefetch, "stale-slice fallback: {rec:?}");
    }
}

/// The whole fault schedule is a pure function of the spec: two runs with
/// the same spec produce the same injection log and the same frames.
#[test]
fn identical_seeds_replay_identically() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let run = || {
        builder(&ds, io)
            .faults(
                FaultSpec::parse("seed=21,read_transient=0.2,send_drop=0.2,wire_corrupt=0.2")
                    .unwrap(),
            )
            .retry(RetryPolicy { max_attempts: 4, backoff_ms: 1 })
            .delivery_deadline_ms(200)
            .run()
            .expect("pipeline")
    };
    let a = run();
    let b = run();
    let mut ea = a.fault_events.clone();
    let mut eb = b.fault_events.clone();
    ea.sort();
    eb.sort();
    assert_eq!(ea, eb, "same seed must produce the same fault schedule");
    assert!(!ea.is_empty(), "spec must actually inject faults");
    assert_eq!(a.degraded, b.degraded, "same seed must degrade the same frames");
    assert_flags_sorted(&a, "deterministic replay");
    assert_all_frames_identical(&a, &b, "deterministic replay");
}

/// A scripted render-rank death: the surviving renderers detect the
/// silence via render-group heartbeats, deterministically re-partition
/// the dead rank's blocks, and recompute the SLIC schedule over the
/// survivor communicator. Pre-failover frames match the clean run with
/// all renderers; post-failover frames are bit-identical to a run
/// executed over the surviving renderer count from the start — and no
/// frame is degraded, because the inputs re-route block data at exactly
/// the failure step.
#[test]
fn render_rank_failover_keeps_frames_bit_identical() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean3 = builder(&ds, io).renderers(3).run().expect("clean 3-renderer pipeline");
    let clean2 = builder(&ds, io).renderers(2).run().expect("clean 2-renderer pipeline");
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — kill renderer 3 at step 2
    let faulted = builder(&ds, io)
        .renderers(3)
        .faults(FaultSpec::parse("seed=1,fail_rank=3@2").unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("pipeline must survive a render-rank failure");
    let rec = faulted.recovery.expect("fault plan active");
    assert!(rec.render_failovers >= 1, "survivors must have detected the death");
    assert_eq!(faulted.degraded_frame_count(), 0, "render failover is full recovery");
    assert_eq!(faulted.frames.len(), ds.steps(), "cadence must never stall");
    for t in 0..ds.steps() {
        let oracle = if t < 2 { &clean3 } else { &clean2 };
        assert_eq!(
            faulted.frames[t].pixels(),
            oracle.frames[t].pixels(),
            "frame {t} must be bit-identical to the clean run over the same live set"
        );
    }
}

/// A scripted output-rank death: the designated render-root supervisor
/// detects the silence, assumes frame assembly, and ships every frame of
/// the dead epoch tagged [`Degradation::MigratedEpoch`] — frames are
/// never silently skipped, and their pixels stay bit-identical to the
/// clean run (migration moves assembly, not data).
#[test]
fn output_rank_failover_migrates_frames() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean = builder(&ds, io).lic(true).run().expect("clean pipeline");
    // world: [0,1 inputs | 2,3 renderers | 4 output] — kill the output at step 2
    let faulted = builder(&ds, io)
        .lic(true)
        .faults(FaultSpec::parse("seed=1,fail_rank=4@2").unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("pipeline must survive the output-rank failure");
    let rec = faulted.recovery.expect("fault plan active");
    assert!(rec.output_failovers >= 1, "the supervisor must have detected the death");
    assert_eq!(rec.migrated_frames, 2, "steps 2..4 are assembled by the supervisor");
    assert_eq!(faulted.frames.len(), ds.steps(), "no frame may be skipped");
    for t in 0..ds.steps() {
        assert_eq!(
            faulted.frames[t].pixels(),
            clean.frames[t].pixels(),
            "frame {t}: migration must not change pixels"
        );
        let migrated = faulted.degraded[t].contains(&Degradation::MigratedEpoch);
        assert_eq!(migrated, t >= 2, "exactly the dead epoch's frames carry the tag");
    }
    assert_flags_sorted(&faulted, "output failover");
    // one delivery per frame, the migrated ones included, is
    // `observability::counter_table_rows_follow_the_report`'s
}

/// Pinned-seed render-kill cell (CI): a render-rank death layered over
/// transient read faults must complete with full recovery.
#[test]
fn pinned_seed_render_kill_404() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let report = builder(&ds, io)
        .renderers(3)
        .faults(FaultSpec::parse("seed=404,read_transient=0.2,fail_rank=3@1").unwrap())
        .retry(RetryPolicy { max_attempts: 8, backoff_ms: 1 })
        .delivery_deadline_ms(500)
        .run()
        .expect("pinned seed 404 must survive");
    let rec = report.recovery.expect("fault plan active");
    assert!(rec.render_failovers >= 1);
    assert_eq!(report.frames.len(), ds.steps());
    assert_eq!(report.degraded_frame_count(), 0, "retries + failover absorb everything");
}

/// Pinned-seed render-kill cell (CI): a render-rank death layered over
/// wire corruption under 2DIP — corrupt pieces degrade frames, the
/// failover itself stays lossless, and cadence never stalls.
#[test]
fn pinned_seed_render_kill_505() {
    let ds = dataset();
    let io = IoStrategy::TwoDip { groups: 1, per_group: 2 };
    // world: [0,1 inputs | 2,3 renderers | 4 output] — kill renderer 3 at step 2
    let report = builder(&ds, io)
        .faults(FaultSpec::parse("seed=505,wire_corrupt=0.3,fail_rank=3@2").unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("pinned seed 505 must survive");
    let rec = report.recovery.expect("fault plan active");
    assert!(rec.render_failovers >= 1);
    assert_eq!(report.frames.len(), ds.steps());
    assert_flags_sorted(&report, "pinned seed 505");
}

/// Rank rejoin through the output rank's `CATCHUP` push, twice over: a render
/// rank is killed, recovers, and is killed again. Inside each dormancy
/// window frames must match the survivor-set oracle; outside them —
/// including after the rejoin — frames must match the full-set oracle
/// bit-for-bit, with the rejoin counters proving both rejoins ran.
#[test]
fn render_rank_rejoin_and_rekill_keep_frames_bit_identical() {
    let ds = SimulationBuilder::new().resolution(16).steps(8).run_to_dataset().unwrap();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean3 = builder(&ds, io).renderers(3).run().expect("clean 3-renderer pipeline");
    let clean2 = builder(&ds, io).renderers(2).run().expect("clean 2-renderer pipeline");
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — renderer 3 is
    // dead over [2,4) and again over [6,8)
    let spec = "seed=1,fail_rank=3@2,recover_rank=3@4,fail_rank=3@6";
    let faulted = builder(&ds, io)
        .renderers(3)
        .faults(FaultSpec::parse(spec).unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("pipeline must survive kill, rejoin, and re-kill");
    let rec = faulted.recovery.expect("fault plan active");
    assert!(rec.render_failovers >= 2, "both kill windows must be detected");
    assert_eq!(rec.rejoins, 1, "exactly one rejoin must complete");
    assert_eq!(faulted.degraded_frame_count(), 0, "rejoin is full recovery");
    assert_eq!(faulted.frames.len(), ds.steps(), "cadence must never stall");
    for t in 0..ds.steps() {
        let dead = (2..4).contains(&t) || t >= 6;
        let oracle = if dead { &clean2 } else { &clean3 };
        assert_eq!(
            faulted.frames[t].pixels(),
            oracle.frames[t].pixels(),
            "frame {t} must be bit-identical to the clean run over the same live set"
        );
    }
}

/// Input-rank rejoin inside a 2DIP group, with the elastic control plane
/// off and on: the survivors carry the dead rank's slice through the
/// window, the joiner catches up at its scripted step and beacons on its
/// first owned one, and the peers — who read the rejoin from the plan —
/// fold it back in. Every frame stays bit-identical to the clean run,
/// before, during, and after.
#[test]
fn input_rank_rejoin_keeps_frames_bit_identical() {
    let ds = dataset();
    let io = IoStrategy::TwoDip { groups: 1, per_group: 3 };
    let clean = builder(&ds, io).run().expect("clean pipeline");
    for (prefetch, elastic) in [(false, false), (true, false), (false, true), (true, true)] {
        let b = if elastic { builder(&ds, io).elastic(2) } else { builder(&ds, io) };
        let faulted = b
            .faults(FaultSpec::parse("seed=1,fail_rank=1@1,recover_rank=1@3").unwrap())
            .delivery_deadline_ms(400)
            .prefetch(prefetch)
            .run()
            .expect("pipeline must survive an input-rank dormancy window");
        let rec = faulted.recovery.expect("fault plan active");
        assert!(rec.failover_events >= 1, "the group must have detected the death");
        assert_eq!(rec.rejoins, 1, "the joiner must announce exactly once");
        assert_eq!(
            faulted.degraded_frame_count(),
            0,
            "input rejoin is full recovery: {:?} rec={rec:?}",
            faulted.degraded
        );
        assert_all_frames_identical(&clean, &faulted, "input rank rejoin");
        // both the shrink and the rejoin outdate steps already read ahead
        assert_eq!(rec.prefetch_fallbacks >= 1, prefetch, "stale-slice fallback: {rec:?}");
    }
}

/// Property: a slow-but-alive rank under a generous
/// `heartbeat_timeout_ms` is never declared dead. Across a range of
/// scripted slowdowns on a surviving renderer — with a real kill on
/// another renderer to keep the detection machinery hot — every death
/// declaration names exactly the scripted rank, the failover counters
/// match the slowdown-free run, and the frames stay bit-identical.
#[test]
fn slow_ranks_below_heartbeat_deadline_never_false_positive() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — rank 3 dies at
    // step 2, rank 4 survives but runs slower each round
    let run = |spec: &str| {
        builder(&ds, io)
            .renderers(3)
            .faults(FaultSpec::parse(spec).unwrap())
            .delivery_deadline_ms(400)
            .heartbeat_timeout_ms(2000)
            .run()
            .expect("pipeline must survive the schedule")
    };
    let baseline = run("seed=1,fail_rank=3@2");
    let base_rec = baseline.recovery.expect("fault plan active");
    for factor in [2, 4, 8] {
        let slowed = run(&format!("seed=1,fail_rank=3@2,slow_rank=4@{factor}"));
        let rec = slowed.recovery.expect("fault plan active");
        assert_eq!(
            rec.render_failovers, base_rec.render_failovers,
            "slow factor {factor}: only the scripted death may be detected"
        );
        assert_eq!(rec.failover_events, base_rec.failover_events, "slow factor {factor}");
        for ev in slowed.fault_events.iter().filter(|e| e.site.contains("dead at step")) {
            assert!(
                ev.site.contains("rank 3 dead"),
                "slow factor {factor}: false-positive declaration: {}",
                ev.site
            );
        }
        assert_eq!(slowed.degraded_frame_count(), 0, "slow factor {factor}");
        assert_all_frames_identical(&baseline, &slowed, "slow rank below deadline");
    }
}

/// `recover_rank=R@S` schedules are validated against the world shape at
/// plan-build time, exactly like `fail_rank` — and only against that. A
/// rejoin is the end of an overlay under every controller and at every
/// step: the combinations validation used to turn away because two code
/// paths could not be reconciled now run, bit-identical to the oracle.
#[test]
fn recover_rank_validation_rejects_impossible_schedules() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let expect_err = |b: PipelineBuilder| match b.run() {
        Err(e) => e,
        Ok(_) => panic!("impossible recover_rank schedule must be rejected"),
    };
    // output-rank rejoin is unsupported: supervisor takeover is permanent
    let err = expect_err(
        builder(&ds, io).faults(FaultSpec::parse("seed=1,fail_rank=4@1,recover_rank=4@3").unwrap()),
    );
    assert!(err.contains("output-rank rejoin is not supported"), "unexpected error: {err}");
    // a bare recover_rank is a spare-pool join and needs a spare pool
    let err = expect_err(builder(&ds, io).faults(FaultSpec::parse("recover_rank=3@2").unwrap()));
    assert!(err.contains("spare-pool join"), "unexpected error: {err}");
    // a spare join must target the first parked rank
    let err = expect_err(
        builder(&ds, io)
            .spare_renderers(1)
            .elastic(2)
            .faults(FaultSpec::parse("recover_rank=3@2").unwrap()),
    );
    assert!(err.contains("first parked rank"), "unexpected error: {err}");

    let oracle = builder(&ds, io).run().expect("static oracle");
    let runs = |what: &str, b: PipelineBuilder, spec: &str| {
        let report = b
            .faults(FaultSpec::parse(spec).unwrap())
            .delivery_deadline_ms(500)
            .run()
            .unwrap_or_else(|e| panic!("{what} ({spec}): {e}"));
        assert_all_frames_identical(&oracle, &report, what);
        assert_eq!(report.degraded_frame_count(), 0, "{what}: {:?}", report.degraded);
        report.recovery.expect("fault plan active")
    };
    // worlds: [0,1 inputs | 2,3,4 renderers | 5 output], and with a pool
    // [0,1 inputs | 2,3 renderers | 4 spare | 5 output]
    let three = || builder(&ds, io).renderers(3).elastic(2);
    let pool = || builder(&ds, io).spare_renderers(1).elastic(2);
    // was ElasticRecoverOffTick: an elastic rejoin on a step that is no tick
    let rec = runs("rejoin off the tick", three(), "seed=1,fail_rank=3@1,recover_rank=3@3");
    assert_eq!(rec.rejoins, 1);
    // was ElasticKillNeedsRebalanceOnly: a kill window while the
    // controller may resize the render prefix and reshape the input width.
    // Slept-out reads make the run input-bound, so the tick at step 2
    // shrinks the prefix — to the two ranks a scripted kill leaves it,
    // one of them the dormant one — and the joiner has that to catch up on
    let resizing = three().elastic_resize(true).io_delay_scale(50.0);
    let rec = runs("kill window under resize", resizing, "seed=1,fail_rank=3@1,recover_rank=3@3");
    assert_eq!((rec.rejoins, rec.catchup_plans), (1, 1), "the shrink of tick 2, replayed");
    let reshaping = builder(&ds, IoStrategy::TwoDip { groups: 1, per_group: 2 })
        .renderers(3)
        .elastic(2)
        .elastic_resize(true)
        .elastic_reshape(true);
    runs("kill window under resize+reshape", reshaping, "seed=1,fail_rank=3@1,recover_rank=3@3");
    // was SpareJoinNotAlone: a kill window beside a parked spare …
    let rec = runs("kill window beside a spare", pool(), "seed=1,fail_rank=3@1,recover_rank=3@3");
    assert_eq!((rec.rejoins, rec.render_failovers >= 1), (1, true));
    // … and a spare that joins, dies and comes back
    let spec = "seed=1,recover_rank=4@1,fail_rank=4@2,recover_rank=4@3";
    assert_eq!(runs("spare join, then a window of its own", pool(), spec).rejoins, 2);
}

/// A rejoin scheduled on a tick the plan itself kills (`fail_controller`
/// at or before it) runs, every frame bit-identical: a rejoin needs no
/// tick, the output rank holds the committed state whether or not its
/// controller still ticks. (Regression: such a schedule once passed
/// validation, then panicked two render ranks in SLIC and deadlocked.)
/// Only a spare-pool join, whose admit plan a dead controller cannot
/// commit, is turned away.
#[test]
fn rejoin_under_a_dead_controller_runs_and_only_a_spare_join_is_rejected() {
    let ds = SimulationBuilder::new().resolution(16).steps(8).run_to_dataset().unwrap();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let oracle = builder(&ds, io).run().expect("static oracle");
    let spec = "seed=11,slow_rank=2@8,fail_rank=3@2,recover_rank=3@4,fail_controller=4";
    let rejoined = builder(&ds, io)
        .renderers(3)
        .elastic(2)
        .delivery_deadline_ms(500)
        .faults(FaultSpec::parse(spec).unwrap())
        .run()
        .expect("a rejoin under a dead controller");
    assert_all_frames_identical(&oracle, &rejoined, "rejoin under a dead controller");
    assert_eq!(rejoined.degraded_frame_count(), 0);
    let rec = rejoined.recovery.expect("fault plan active");
    assert_eq!((rec.rejoins, rec.controller_kills), (1, 1));
    let slept_through = rejoined.control_plans.iter().filter(|p| p.apply_at >= 2).count();
    assert_eq!(rec.catchup_plans, slept_through as u64, "the plans of tick 2, replayed");
    // world: [0,1 inputs | 2,3 renderers | 4 spare | 5 output]
    let err = builder(&ds, io)
        .spare_renderers(1)
        .elastic(2)
        .faults(FaultSpec::parse("recover_rank=4@2,fail_controller=2").unwrap())
        .run()
        .err()
        .expect("a spare join under a dead controller must be rejected");
    assert!(err.contains("not scripted dead by then"), "unexpected error: {err}");
}

/// `fail_rank=R@S` is validated against the actual world shape at
/// plan-build time: impossible schedules fail fast with a typed error
/// instead of silently never firing.
#[test]
fn fail_rank_validation_rejects_impossible_schedules() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let expect_err = |b: PipelineBuilder| match b.run() {
        Err(e) => e,
        Ok(_) => panic!("impossible fail_rank schedule must be rejected"),
    };
    // rank beyond the world [2 inputs | 2 renderers | 1 output] = 5 ranks
    let err =
        expect_err(builder(&ds, io).faults(FaultSpec::parse("seed=1,fail_rank=9@1").unwrap()));
    assert!(err.contains("outside the world"), "unexpected error: {err}");
    // step beyond the run
    let err =
        expect_err(builder(&ds, io).faults(FaultSpec::parse("seed=1,fail_rank=1@99").unwrap()));
    assert!(err.contains("beyond the run"), "unexpected error: {err}");
    // killing the only renderer leaves nobody to fail over to
    let err = expect_err(
        builder(&ds, io).renderers(1).faults(FaultSpec::parse("seed=1,fail_rank=2@1").unwrap()),
    );
    assert!(err.contains("at least 2 renderers"), "unexpected error: {err}");
    // killing an input under 1DIP is not survivable
    let err =
        expect_err(builder(&ds, io).faults(FaultSpec::parse("seed=1,fail_rank=0@1").unwrap()));
    assert!(err.contains("2DIP input group"), "unexpected error: {err}");
    // the output rank hosts the elastic controller: that has its own kill
    let err = expect_err(
        builder(&ds, io).elastic(2).faults(FaultSpec::parse("seed=1,fail_rank=4@1").unwrap()),
    );
    assert!(err.contains("fail_controller"), "unexpected error: {err}");
}
