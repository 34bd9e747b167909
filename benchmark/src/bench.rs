//! One workload, start to finish, in this process: set-up, the oracle
//! check, the timed runs, the traced runs and the staged walk, reduced to
//! a [`WorkloadResult`].
//!
//! The load is a closed loop with one client: one pipeline run after
//! another over a dataset already on the virtual parfs, every step
//! available up front.

use crate::oracle;
use crate::report::{Metric, WorkloadResult};
use crate::span::Tracer;
use crate::spec::{self, Workload, CHECK_STEPS, DATASET_STEPS, FAILED_FRAME_SHARE, PER_LAYER};
use crate::stats::{mean, median, percentile, samples_beyond, sorted};
use crate::sys;
use crate::walk;
use quakeviz::pipeline::PipelineReport;
use quakeviz::render::Camera;
use quakeviz::seismic::Dataset;
use std::collections::BTreeMap;
use std::time::Instant;

/// How much of the benchmark one invocation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub seed: u64,
    /// One short run per workload, a two-step walk: finds out cheaply
    /// that the benchmark still builds and its outputs are still right.
    pub smoke: bool,
    /// Measure for this long instead of the workload's fixed run count.
    pub seconds: Option<f64>,
    pub end_to_end: bool,
    pub per_layer: bool,
}

impl Plan {
    fn steps(&self) -> usize {
        if self.smoke {
            CHECK_STEPS
        } else {
            DATASET_STEPS
        }
    }

    /// Fewest and most set-up repetitions. Set-up is repeated and its
    /// median reported because a later change is held to it; beyond the
    /// minimum it repeats while that is cheap ([`SETUP_SECONDS`]), since
    /// one hiccup of the host moves a half-second set-up by a third.
    fn setup_reps(&self) -> (usize, usize) {
        if self.smoke || !self.end_to_end {
            (1, 1)
        } else {
            (3, 6)
        }
    }

    fn traced_runs(&self) -> usize {
        if self.smoke || !self.per_layer {
            0
        } else {
            2
        }
    }

    fn walk_steps(&self) -> usize {
        if self.smoke {
            2
        } else {
            CHECK_STEPS
        }
    }
}

/// Beyond its minimum count, set-up repeats until this much was spent.
const SETUP_SECONDS: f64 = 4.0;

/// One pipeline run, reduced to what the statistics need.
struct RunStat {
    frames_per_s: f64,
    /// Steady-state interframe delays, milliseconds.
    delays_ms: Vec<f64>,
    cpu_s: f64,
    delivered: usize,
    degraded: usize,
    startup_ms: f64,
    layers: BTreeMap<&'static str, f64>,
}

fn reduce(w: &Workload, r: &PipelineReport, wall_s: f64, cpu_s: f64) -> RunStat {
    let done = &r.frame_done;
    let fill = w.fill.min(done.len().saturating_sub(2));
    let (frames_per_s, delays_ms) = if done.len() >= 2 {
        let origin = if fill == 0 { 0.0 } else { done[fill - 1] };
        let fps = (done.len() - fill) as f64 / (done[done.len() - 1] - origin);
        let mut prev = origin;
        let delays = done[fill..]
            .iter()
            .map(|&t| {
                let d = (t - prev) * 1e3;
                prev = t;
                d
            })
            .collect();
        (fps, delays)
    } else {
        (0.0, Vec::new())
    };

    let frames = done.len().max(1) as f64;
    let per_input = |f: &dyn Fn(&quakeviz::pipeline::pipeline::InputStepTiming) -> f64| {
        mean(&r.input_steps.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let per_render = |f: &dyn Fn(&quakeviz::pipeline::pipeline::RenderFrameTiming) -> f64| {
        mean(&r.render_frames.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    l.insert("pipeline.read_ms", per_input(&|s| s.read.real_seconds));
    l.insert("pipeline.preprocess_ms", per_input(&|s| s.preprocess_s));
    l.insert("pipeline.lic_ms", per_input(&|s| s.lic_s));
    l.insert("pipeline.send_ms", per_input(&|s| s.send_s));
    l.insert("pipeline.send_wait_ms", per_input(&|s| s.send_wait_s));
    l.insert("pipeline.recv_wait_ms", per_render(&|f| f.receive_s));
    l.insert("pipeline.render_ms", per_render(&|f| f.render_s));
    l.insert("pipeline.composite_ms", per_render(&|f| f.composite_s));
    let rank_s = &r.render_rank_seconds;
    let busiest = rank_s.iter().copied().fold(0.0, f64::max);
    l.insert(
        "pipeline.render_imbalance",
        if mean(rank_s) > 0.0 { busiest / mean(rank_s) } else { 0.0 },
    );
    l.insert("pipeline.first_frame_ms", done.first().map_or(0.0, |t| t * 1e3));
    l.insert("comm.msgs_per_frame", r.messages as f64 / frames);
    l.insert("comm.bytes_per_frame", r.bytes_sent as f64 / frames);
    let (raw, coded, keys, deltas) = r.wire.iter().fold((0u64, 0u64, 0u64, 0u64), |a, c| {
        (a.0 + c.raw_bytes, a.1 + c.wire_bytes, a.2 + c.keyframe_pieces, a.3 + c.delta_pieces)
    });
    // the ledger also counts the raw wire; these three describe a codec
    // and stay 0 where none is configured
    if r.wire_spec != "raw" {
        l.insert("wire.ratio", raw as f64 / coded.max(1) as f64);
        l.insert("wire.bytes_per_frame", coded as f64 / frames);
        l.insert("wire.keyframe_share", keys as f64 / (keys + deltas).max(1) as f64);
    }
    let reads: u64 = r.input_steps.iter().map(|s| s.read.requests).sum();
    let retries = r.recovery.map_or(0, |rec| rec.read_retries);
    l.insert("reader.retries", retries as f64);
    l.insert("reader.retry_share", retries as f64 / (reads + retries).max(1) as f64);
    l.insert("fault.injected", r.fault_events.len() as f64);
    l.insert("recovery.read_retries", retries as f64);
    l.insert(
        "recovery.checksum_failures",
        r.recovery.map_or(0, |rec| rec.checksum_failures) as f64,
    );
    l.insert("checkpoint.commits", r.checkpoints as f64);
    l.insert("control.plans_committed", r.control_plans.len() as f64);

    RunStat {
        frames_per_s,
        delays_ms,
        cpu_s,
        delivered: done.len(),
        degraded: r.degraded_frame_count(),
        startup_ms: (wall_s - r.total_seconds()) * 1e3,
        layers: l,
    }
}

/// Run one pipeline and reduce it; the report (and any frames in it) is
/// dropped before the next run starts.
fn timed(
    w: &Workload,
    ds: &Dataset,
    camera: &Camera,
    plan: &Plan,
    run: usize,
    traced: bool,
) -> Result<RunStat, String> {
    let mut b = w.pipeline(ds, camera, plan.seed, run).max_steps(plan.steps());
    if traced {
        b = b.trace(true).profile(true);
    }
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let report = b.run()?;
    let wall = t0.elapsed().as_secs_f64();
    let stat = reduce(w, &report, wall, sys::cpu_seconds() - cpu0);
    if traced {
        quakeviz::rt::obs::prof::set_enabled(false);
    }
    Ok(stat)
}

pub struct Outcome {
    pub result: WorkloadResult,
    /// Median self time per frame by layer, microseconds, largest first.
    pub layer_ranking: Vec<(String, f64)>,
    /// The walk's spans, for `out/trace-<workload>.json`.
    pub trace: Option<Tracer>,
}

pub fn run_workload(w: &Workload, plan: &Plan) -> Result<Outcome, String> {
    let started = Instant::now();
    let steps = plan.steps();
    let mut notes = Vec::new();

    // ---- set-up, repeated: generate the dataset, then a one-step run of
    // the workload's own configuration. setup = generation + everything
    // that run pays outside its frame loop.
    let mut setup_s = Vec::new();
    let mut simulate_s = Vec::new();
    let mut held: Option<(Dataset, Camera)> = None;
    let (fewest, most) = plan.setup_reps();
    let setting_up = Instant::now();
    while setup_s.len() < fewest
        || (setup_s.len() < most && setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(held.take()); // one dataset resident at a time
        let t0 = Instant::now();
        let ds = w.dataset(steps)?;
        let gen = t0.elapsed().as_secs_f64();
        let camera = w.camera(&ds, plan.seed);
        let t1 = Instant::now();
        let warm = w.pipeline(&ds, &camera, plan.seed, 0).max_steps(1).run()?;
        let startup = t1.elapsed().as_secs_f64() - warm.total_seconds();
        simulate_s.push(gen);
        setup_s.push(gen + startup);
        held = Some((ds, camera));
    }
    let (ds, camera) = held.expect("at least one set-up repetition");

    // ---- correctness: a short run of the workload's configuration
    // (the warm-up of the timed runs) against the serial oracle
    let check =
        w.pipeline(&ds, &camera, plan.seed, 0).keep_frames(true).max_steps(CHECK_STEPS).run()?;
    let want = w.oracle(&ds, &camera).max_steps(CHECK_STEPS).run()?;
    let verdict = oracle::compare(&check.frames, &want.frames);
    let check_degraded = check.degraded_frame_count();
    notes.extend(verdict.reasons.iter().map(|r| format!("oracle: {r}")));
    let mut attempted = want.frames.len() as u64;
    let mut failed = (verdict.failed().max(check_degraded)) as u64;
    if oracle::mostly_blank(&want.frames) {
        notes.push("oracle: most of the oracle's own frames are blank".into());
        failed = attempted;
    }
    drop(check);

    // ---- timed runs, tracing off
    let mut runs: Vec<RunStat> = Vec::new();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    loop {
        runs.push(timed(w, &ds, &camera, plan, runs.len(), false)?);
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = match plan.seconds {
            _ if plan.smoke => true,
            None => runs.len() >= w.runs,
            // stop at the run count nearest the box, never below two runs;
            // a run that only feeds per-layer means gets half the box
            Some(s) => {
                let budget = if plan.end_to_end { s } else { s / 2.0 };
                runs.len() >= 2 && elapsed + 0.5 * elapsed / runs.len() as f64 >= budget
            }
        };
        if enough {
            break;
        }
    }
    let timed_cpu_s = sys::cpu_seconds() - cpu0;
    let delivered: usize = runs.iter().map(|r| r.delivered).sum();
    let expected = runs.len() * steps;
    attempted += expected as u64;
    let not_clean =
        (expected - delivered.min(expected)) + runs.iter().map(|r| r.degraded).sum::<usize>();
    if not_clean > 0 {
        notes.push(format!("{not_clean} timed frames were not delivered or carried a degradation"));
    }
    failed += not_clean as u64;

    let pool = sorted(&runs.iter().flat_map(|r| r.delays_ms.iter().copied()).collect::<Vec<_>>());
    let per_run = |f: &dyn Fn(&RunStat) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let fps_runs = per_run(&|r| r.frames_per_s);
    // nearest-rank percentile of an ascending sample, 0 for an empty one
    let pct = |sample: &[f64], p: f64| if sample.is_empty() { 0.0 } else { percentile(sample, p) };
    let (p50, p90) = (pct(&pool, 50.0), pct(&pool, 90.0));
    let run_pct = |p: f64| per_run(&|r| pct(&sorted(&r.delays_ms), p));

    // before the traced runs and the walk, so that it reads the same
    // whether or not they follow
    let peak_rss_mb = sys::peak_rss_mb();

    let mut layers = None;
    if plan.per_layer {
        let mut l = report_means(&runs);
        l.insert("pipeline.hidden_share", {
            let tr = value_of(&l, "pipeline.render_ms") + value_of(&l, "pipeline.composite_ms");
            if p50 > 0.0 {
                tr / p50
            } else {
                0.0
            }
        });
        let mut traced_fps = Vec::new();
        for i in 0..plan.traced_runs() {
            traced_fps.push(timed(w, &ds, &camera, plan, i, true)?.frames_per_s);
        }
        if !traced_fps.is_empty() && median(&fps_runs) > 0.0 {
            let loss = 1.0 - median(&traced_fps) / median(&fps_runs);
            l.insert("obs.trace_overhead_pct", loss * 100.0);
        }
        // one checkpoint as it lies on the virtual disk after the last
        // run, times the commits of a run (computed, not timed)
        let disk = ds.disk();
        let one_checkpoint: u64 = disk
            .list_files()
            .iter()
            .filter(|f| f.starts_with("ckpt/"))
            .filter_map(|f| disk.file_len(f))
            .sum();
        l.insert(
            "checkpoint.bytes_written",
            one_checkpoint as f64 * value_of(&l, "checkpoint.commits"),
        );
        l.insert("oracle.exact_share", verdict.exact_share());
        l.insert("seismic.simulate_s", median(&simulate_s));
        l.insert("seismic.bytes_per_step", ds.bytes_per_step() as f64);
        l.insert("seismic.nodes", ds.mesh().node_count() as f64);

        let mut tracer = Tracer::new();
        let walked = walk::walk(w, &ds, &camera, plan.walk_steps(), &mut tracer);
        let walk_ms = value_of(&walked.metrics, "walk.frame_ms");
        l.insert("pipeline.parallel_speedup", if p50 > 0.0 { walk_ms / p50 } else { 0.0 });
        // the walk did the program's work if its frames are the oracle's
        let walk_verdict = oracle::compare(&walked.frames, &want.frames[..walked.frames.len()]);
        notes.extend(walk_verdict.reasons.iter().map(|r| format!("walk: {r}")));
        attempted += walked.frames.len() as u64;
        failed += walk_verdict.failed() as u64;
        let matched = walked.frames.len() - walk_verdict.failed();
        l.insert("walk.oracle_match_share", matched as f64 / walked.frames.len().max(1) as f64);
        let residual = value_of(&walked.metrics, "walk.residual_pct");
        if residual > 2.0 {
            notes.push(format!(
                "walk residual {residual:.2} % is above 2 %: the budget did not close"
            ));
        }
        l.extend(walked.metrics.iter());

        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, us) in &walked.self_us {
            *by_layer.entry(walk::layer_of(name)).or_default() += us;
        }
        let mut ranking: Vec<(String, f64)> =
            by_layer.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        layers = Some((l, ranking, tracer));
    }

    let frames = delivered.max(1) as f64;
    let e2e = |name: &str| spec::end_to_end(name).expect("a name of the END_TO_END table");
    let end_to_end = vec![
        Metric::new(e2e("frames_per_s"), median(&fps_runs), fps_runs.clone()),
        Metric::new(e2e("interframe_p50_ms"), p50, run_pct(50.0)),
        Metric::new(e2e("interframe_p90_ms"), p90, run_pct(90.0)),
        Metric::new(
            e2e("cpu_ms_per_frame"),
            timed_cpu_s * 1e3 / frames,
            per_run(&|r| r.cpu_s * 1e3 / r.delivered.max(1) as f64),
        ),
        Metric::new(e2e("peak_rss_mb"), peak_rss_mb, Vec::new()),
        Metric::new(e2e("setup_s"), median(&setup_s), setup_s.clone()),
        Metric::new(e2e(FAILED_FRAME_SHARE), failed as f64 / attempted.max(1) as f64, Vec::new()),
    ];
    let (per_layer, layer_ranking, trace) = match layers {
        Some((l, ranking, tracer)) => {
            debug_assert!(l.keys().all(|k| PER_LAYER.iter().any(|d| d.name == *k)), "{l:?}");
            let metrics =
                PER_LAYER.iter().map(|d| Metric::new(d, value_of(&l, d.name), Vec::new()));
            (metrics.collect(), ranking, Some(tracer))
        }
        None => (Vec::new(), Vec::new(), None),
    };

    Ok(Outcome {
        result: WorkloadResult {
            name: w.name.into(),
            correct: failed == 0,
            attempted,
            failed,
            timed_runs: runs.len(),
            interframe_samples: pool.len(),
            p90_samples_beyond: samples_beyond(pool.len(), 90.0),
            wall_s: started.elapsed().as_secs_f64(),
            end_to_end,
            per_layer,
            notes,
        },
        layer_ranking,
        trace,
    })
}

/// Means of the report-derived layer numbers over the timed runs: the
/// only place waiting is visible.
fn report_means(runs: &[RunStat]) -> BTreeMap<&'static str, f64> {
    let mean_of = |f: &dyn Fn(&RunStat) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    let mut l: BTreeMap<&'static str, f64> = runs[0]
        .layers
        .keys()
        .map(|&name| (name, mean_of(&|r| value_of(&r.layers, name))))
        .collect();
    l.insert("pipeline.startup_ms", mean_of(&|r| r.startup_ms));
    l
}

fn value_of(m: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cut-down `hiding`: small dataset, lit, no slept reads.
    fn lit() -> Workload {
        Workload {
            image: 48,
            prefetch: false,
            io_delay_scale: None,
            ..*spec::workload("hiding").unwrap()
        }
    }

    #[test]
    fn oracle_bites() {
        let w = lit();
        let ds = w.dataset(CHECK_STEPS).unwrap();
        let camera = w.camera(&ds, 2004);
        let run = |w: &Workload| w.pipeline(&ds, &camera, 2004, 0).keep_frames(true).run().unwrap();
        let got = run(&w);
        // the right oracle agrees bit for bit ...
        let right = w.oracle(&ds, &camera).run().unwrap();
        let v = oracle::compare(&got.frames, &right.frames);
        assert_eq!((v.failed(), v.exact_share()), (0, 1.0), "{:?}", v.reasons);
        assert!(!oracle::mostly_blank(&right.frames));
        // ... and a deliberately wrong one (lighting off) does not, once the
        // wavefront is strong enough to be shaded; one failed frame is what
        // makes `run` end with `correct: false` and a non-zero exit code
        let wrong = Workload { lighting: false, ..w }.oracle(&ds, &camera).run().unwrap();
        let v = oracle::compare(&got.frames, &wrong.frames);
        assert!(v.failed() >= 1 && v.reasons[0].contains("levels"), "{:?}", v.reasons);
    }

    #[test]
    fn smoke_plan_runs_a_workload_end_to_end() {
        let w = Workload { runs: 1, ..lit() };
        let plan = Plan { seed: 7, smoke: true, seconds: None, end_to_end: true, per_layer: true };
        let out = run_workload(&w, &plan).unwrap();
        let r = &out.result;
        assert!(r.correct, "{:?}", r.notes);
        assert_eq!((r.failed, r.timed_runs), (0, 1));
        assert_eq!(r.attempted as usize, CHECK_STEPS + CHECK_STEPS + plan.walk_steps());
        assert_eq!(r.end_to_end.len(), spec::END_TO_END.len());
        assert_eq!(r.per_layer.len(), PER_LAYER.len());
        let layer = |name: &str| r.per_layer.iter().find(|m| m.name == name).unwrap().value;
        assert!(layer("walk.frame_ms") > 0.0 && layer("render.rays") > 0.0);
        assert_eq!(layer("walk.oracle_match_share"), 1.0);
        assert_eq!(layer("wire.encode_ms"), 0.0, "raw wire: rt.wire does nothing");
        assert!(r.end_to_end.iter().all(|m| m.name == FAILED_FRAME_SHARE || m.value > 0.0));
        // the walk's self times add up to its frames: the budget closes
        let ranked: f64 = out.layer_ranking.iter().map(|(_, us)| us).sum();
        assert!((ranked / 1e3 - layer("walk.frame_ms")).abs() <= 0.25 * layer("walk.frame_ms"));
        assert!(out.trace.is_some());
    }
}
