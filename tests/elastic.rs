//! Elastic control-plane suite: the closed-loop controller generalizes
//! failover from "react to death" to "react to load". The invariant the
//! whole suite leans on: *frames are partition-invariant* — a block
//! renders to the same fragment on any rank and the SLIC order is fixed
//! by visibility, so every elastic run must be bit-identical to the
//! static oracle no matter what (wall-clock-driven) plans the controller
//! commits. On top of that:
//!
//! * a scripted load skew must make the controller commit at least one
//!   rebalance plan that sheds weight off the slow rank,
//! * killing the controller freezes the epoch without stalling the frame
//!   cadence,
//! * checkpoint/restart snapshots the plan history, so a resumed run
//!   replays the identical epoch prefix before clocking new ticks.

use quakeviz::pipeline::{ControlPlan, IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::rt::FaultSpec;
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(8).run_to_dataset().unwrap()
}

/// Base shape: world `[0,1 inputs | 2,3,4 renderers | 5 output]`.
fn builder(ds: &Dataset) -> PipelineBuilder {
    PipelineBuilder::new(ds)
        .renderers(3)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(48, 48)
}

/// World rank 2 — render rank 0 — scripted 8× slower per rendered step.
fn skew(b: PipelineBuilder) -> PipelineBuilder {
    b.faults(FaultSpec::parse("seed=11,slow_rank=2@8").unwrap())
}

fn assert_frames_identical(oracle: &PipelineReport, elastic: &PipelineReport) {
    assert_eq!(oracle.frames.len(), elastic.frames.len(), "frame counts differ");
    for (t, (a, b)) in oracle.frames.iter().zip(&elastic.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "frame {t} differs from the static oracle");
    }
}

/// Every committed plan must keep the world shape intact: each block
/// owned exactly once, the active prefix non-empty and within bounds.
fn assert_plans_wellformed(plans: &[ControlPlan], renderers: usize, max_width: usize) {
    for plan in plans {
        assert!(plan.active >= 1 && plan.active <= renderers, "bad active {}", plan.active);
        assert!(
            plan.input_width >= 1 && plan.input_width <= max_width,
            "bad input width {}",
            plan.input_width
        );
        assert_eq!(plan.assignment.len(), renderers, "assignment must span the render group");
        let mut owned: Vec<u32> = plan.assignment.iter().flatten().copied().collect();
        let total = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), total, "epoch {}: a block is owned twice", plan.epoch);
        for (r, blocks) in plan.assignment.iter().enumerate() {
            if r >= plan.active {
                assert!(blocks.is_empty(), "epoch {}: inactive rank {r} owns blocks", plan.epoch);
            }
        }
    }
    for (i, w) in plans.windows(2).map(|w| (w[0].epoch, w[1].epoch)).enumerate() {
        assert_eq!(w.1, w.0 + 1, "plan {i}: epochs must be consecutive");
    }
}

/// Headline: a scripted load skew makes the controller commit a
/// rebalance that sheds weight off the slow rank — and the rebalanced
/// frames stay bit-identical to the static, unfaulted oracle.
#[test]
fn skewed_load_triggers_rebalance_and_frames_stay_identical() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    // without and with the read-ahead stage — both sit behind the epoch
    // clock — and with its worker scripted dead from step 1, so every
    // later step is prepared inline across the commits that follow
    for (worker_kill, prefetch) in [("", false), ("", true), (",fail_prefetch=1", true)] {
        let spec = FaultSpec::parse(&format!("seed=11,slow_rank=2@8{worker_kill}")).unwrap();
        let elastic = builder(&ds)
            .faults(spec)
            .elastic(2)
            .prefetch(prefetch)
            .run()
            .expect("elastic pipeline");
        let rec = elastic.recovery.expect("fault plan must report recovery stats");
        let inline = if worker_kill.is_empty() { 0 } else { ds.steps() as u64 - 1 };
        assert_eq!(rec.prefetch_fallbacks, inline, "only step 0 is read ahead before the kill");
        assert_frames_identical(&oracle, &elastic);
        assert!(
            !elastic.control_plans.is_empty(),
            "an 8x render skew must produce at least one committed plan"
        );
        assert_plans_wellformed(&elastic.control_plans, 3, 1);
        let last = elastic.control_plans.last().unwrap();
        assert!(
            last.assignment[0].len() < last.assignment[1].len()
                && last.assignment[0].len() < last.assignment[2].len(),
            "slow render rank 0 must shed blocks: {:?}",
            last.assignment.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}

/// The control plane says each thing once: a tick is one `CTL` message to
/// each of the five participants (2 inputs + 3 renderers), whether it
/// carries a plan or none — a commit adds no ack and no verdict. Nothing
/// else of the recovery class travels in an unfaulted, uncheckpointed run.
#[test]
fn control_plane_traffic_is_one_message_per_participant_and_tick() {
    let ds = dataset();
    let report = skew(builder(&ds)).elastic(2).run().expect("elastic pipeline");
    let row = |name: &str| report.trace.metrics.get(name).copied().unwrap_or(0);
    assert!(!report.control_plans.is_empty(), "the skew must commit at least one plan");
    let ticks = row("control.ticks");
    assert!(ticks > 0, "an elastic(2) run over 8 steps ticks");
    assert_eq!(row("traffic.recovery.msgs"), ticks * 5, "one CTL per participant and tick");
}

/// Robustness headline: killing the controller mid-run freezes every
/// rank on the last committed epoch — the tick stops happening anywhere,
/// no commit dangles, and the frame cadence never stalls.
#[test]
fn controller_kill_degrades_to_static_without_stalling() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    let killed = builder(&ds)
        .faults(FaultSpec::parse("seed=11,slow_rank=2@8,fail_controller=4").unwrap())
        .elastic(2)
        .run()
        .expect("controller-kill pipeline");
    assert_frames_identical(&oracle, &killed);
    assert!(
        killed.control_plans.iter().all(|p| p.apply_at < 4),
        "no plan may commit at or after the kill step: {:?}",
        killed.control_plans.iter().map(|p| p.apply_at).collect::<Vec<_>>()
    );
    let rec = killed.recovery.expect("fault plan must report recovery stats");
    assert_eq!(rec.controller_kills, 1, "the kill must be detected and counted exactly once");
}

/// Checkpoint/restart across an epoch change: the manifest snapshots the
/// committed plan history, the resumed run replays it as its epoch
/// prefix, and the spliced frame sequence matches the static oracle
/// bit-for-bit.
#[test]
fn resume_across_epoch_change_replays_plan_history() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    let with_elastic =
        |b: PipelineBuilder| skew(b).elastic(2).checkpoint_every(4).checkpoint_path("ckpt-elastic");
    // the kill: steps 0..4 run, one tick at step 2, checkpoint after
    // step 3 — inside the rebalanced epoch
    let killed = with_elastic(builder(&ds)).max_steps(4).run().expect("killed elastic pipeline");
    assert_eq!(killed.checkpoints, 1);
    assert!(!killed.control_plans.is_empty(), "the skew must commit a plan before the kill");
    let resumed = with_elastic(builder(&ds)).resume(true).run().expect("resumed elastic pipeline");
    assert_eq!(resumed.resumed_from, Some(4));
    // the resumed run's history starts with the checkpointed prefix
    assert!(
        resumed.control_plans.len() >= killed.control_plans.len(),
        "replayed history lost plans"
    );
    assert_eq!(
        &resumed.control_plans[..killed.control_plans.len()],
        &killed.control_plans[..],
        "resumed run must replay the identical epoch prefix"
    );
    assert_plans_wellformed(&resumed.control_plans, 3, 1);
    // killed ++ resumed equals the uninterrupted static oracle
    assert_eq!(killed.frames.len() + resumed.frames.len(), oracle.frames.len());
    for (t, (f, g)) in
        oracle.frames.iter().zip(killed.frames.iter().chain(&resumed.frames)).enumerate()
    {
        assert_eq!(f.pixels(), g.pixels(), "frame {t} differs from the static oracle");
    }
}

/// A render rank dies mid-run and rejoins — on a controller tick or off
/// one, it is the end of an overlay either way. The output rank pushes the
/// joiner its committed state, and the joiner counts the plans committed
/// while it slept (the skewed schedules make the controller commit some)
/// as the epochs that state is ahead of its own; nothing is
/// forced to commit at the rejoin step; and every frame — before, during
/// and after the dormancy window — stays bit-identical to the static
/// oracle.
#[test]
fn windowed_rejoin_readmits_through_the_tick() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — renderer 3 is
    // dormant over [2,back); ticks run at steps 2, 4 and 6 (every=2)
    for (skew, back, prefetch) in
        [("", 4, false), ("", 4, true), ("slow_rank=2@8,", 4, false), ("slow_rank=2@8,", 5, true)]
    {
        let spec = format!("seed=11,{skew}fail_rank=3@2,recover_rank=3@{back}");
        let rejoined = builder(&ds)
            .elastic(2)
            .prefetch(prefetch)
            .faults(FaultSpec::parse(&spec).unwrap())
            .delivery_deadline_ms(500)
            .run()
            .expect("elastic rejoin pipeline");
        assert_frames_identical(&oracle, &rejoined);
        assert_eq!(rejoined.degraded_frame_count(), 0, "{spec}: a rejoin is full recovery");
        assert_plans_wellformed(&rejoined.control_plans, 3, 1);
        let rec = rejoined.recovery.expect("fault plan must report recovery stats");
        assert_eq!(rec.rejoins, 1, "{spec}: the joiner must announce exactly once");
        let slept_through =
            rejoined.control_plans.iter().filter(|p| (2..back).contains(&p.apply_at)).count();
        assert_eq!(rec.catchup_plans, slept_through as u64, "{spec}: the missed plans, replayed");
    }
}

/// A kill with no recovery is a dormancy window that never closes: the
/// survivors carry the dead rank's blocks as an overlay for the rest of
/// the run, the controller keeps ticking without it (dead ranks are not
/// commit participants), and every frame stays bit-identical to the
/// static oracle.
#[test]
fn permanent_kill_is_an_overlay_that_never_ends() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    // world: [0,1 inputs | 2,3,4 renderers | 5 output] — renderer 3 dies
    // at step 2 and never comes back; the second schedule adds a load
    // skew so plans really commit while it is gone
    for spec in ["seed=11,fail_rank=3@2", "seed=11,slow_rank=2@8,fail_rank=3@2"] {
        let killed = builder(&ds)
            .elastic(2)
            .faults(FaultSpec::parse(spec).unwrap())
            .delivery_deadline_ms(500)
            .run()
            .expect("elastic pipeline must survive a permanent render-rank kill");
        assert_eq!(killed.frames.len(), ds.steps(), "{spec}: a frame for every step");
        assert_frames_identical(&oracle, &killed);
        assert_plans_wellformed(&killed.control_plans, 3, 1);
        assert_eq!(killed.degraded_frame_count(), 0, "{spec}: the overlay is full recovery");
        let rec = killed.recovery.expect("fault plan must report recovery stats");
        assert!(rec.render_failovers >= 1, "{spec}: survivors must have detected the death");
        assert_eq!(rec.rejoins, 0);
    }
}

/// Spare-pool recovery: a parked spare renderer joins at a tick with no
/// preceding failure. The admit plan grows the active prefix by one,
/// blocks are re-balanced onto the grown set, and the frames stay
/// bit-identical to the static oracle without the spare.
#[test]
fn spare_pool_join_grows_the_active_prefix() {
    let ds = dataset();
    let base = |ds: &Dataset| {
        PipelineBuilder::new(ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(48, 48)
    };
    let oracle = base(&ds).run().expect("static oracle");
    // world: [0,1 inputs | 2,3 renderers | 4 spare | 5 output] — the
    // spare (world rank 4) joins at tick 4
    let grown = base(&ds)
        .spare_renderers(1)
        .elastic(2)
        .faults(FaultSpec::parse("seed=11,recover_rank=4@4").unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("spare-pool join pipeline");
    assert_frames_identical(&oracle, &grown);
    let rec = grown.recovery.expect("fault plan must report recovery stats");
    assert_eq!(rec.rejoins, 1, "the spare must announce exactly once");
    let admit = grown
        .control_plans
        .iter()
        .find(|p| p.apply_at == 4)
        .expect("the join tick must commit a growth plan");
    assert_eq!(admit.active, 3, "the admit plan must grow the active prefix by one");
    assert!(!admit.assignment[2].is_empty(), "the joined spare must own blocks");
    let last = grown.control_plans.last().unwrap();
    assert_eq!(last.active, 3, "the run must end on the grown active prefix");
}

/// Rejoin spliced across checkpoint/restart: the run is killed while the
/// rank is dormant, the resumed run re-detects the dormancy from its
/// heartbeats, and the rejoin lands at its scripted tick — the spliced
/// frame sequence stays bit-identical to the uninterrupted oracle.
#[test]
fn rejoin_across_checkpoint_resume_splices_bit_identical() {
    let ds = dataset();
    let oracle = builder(&ds).run().expect("static oracle");
    let with_rejoin = |b: PipelineBuilder| {
        b.elastic(2)
            .faults(FaultSpec::parse("seed=11,fail_rank=3@2,recover_rank=3@6").unwrap())
            .delivery_deadline_ms(500)
            .checkpoint_every(4)
            .checkpoint_path("ckpt-rejoin")
    };
    // the kill: steps 0..4 run — the dormancy window [2,6) is open when
    // the checkpoint after step 3 commits
    let killed = with_rejoin(builder(&ds)).max_steps(4).run().expect("killed pipeline");
    assert_eq!(killed.checkpoints, 1);
    let resumed = with_rejoin(builder(&ds)).resume(true).run().expect("resumed pipeline");
    assert_eq!(resumed.resumed_from, Some(4));
    let rec = resumed.recovery.expect("fault plan must report recovery stats");
    assert_eq!(rec.rejoins, 1, "the rejoin must land in the resumed run");
    assert_eq!(killed.frames.len() + resumed.frames.len(), oracle.frames.len());
    for (t, (f, g)) in
        oracle.frames.iter().zip(killed.frames.iter().chain(&resumed.frames)).enumerate()
    {
        assert_eq!(f.pixels(), g.pixels(), "frame {t} differs from the static oracle");
    }
}

/// Resize + reshape smoke over 2DIP: whatever the controller decides
/// from live measurements — shrinking the render prefix, narrowing the
/// input width, growing either back — the frames must stay bit-identical
/// to the static oracle and every plan must keep the world well-formed.
#[test]
fn resize_and_reshape_keep_frames_identical() {
    let ds = dataset();
    let io = IoStrategy::TwoDip { groups: 2, per_group: 2 };
    let base =
        |ds: &Dataset| PipelineBuilder::new(ds).renderers(3).io_strategy(io).image_size(48, 48);
    let oracle = base(&ds).run().expect("static 2DIP oracle");
    // under prefetch a narrowed width also exercises the stale-slice
    // fallback: steps read ahead under the old width are prepared inline
    for prefetch in [false, true] {
        let elastic = base(&ds)
            .elastic(2)
            .elastic_resize(true)
            .elastic_reshape(true)
            .prefetch(prefetch)
            .run()
            .expect("resize+reshape pipeline");
        assert_frames_identical(&oracle, &elastic);
        assert_plans_wellformed(&elastic.control_plans, 3, 2);
    }
}
