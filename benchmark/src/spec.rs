//! The fixed vocabulary of the benchmark: the four workloads and every
//! metric name with its unit, direction and bound. `BENCHMARK.json` at the
//! repository root repeats these tables for the driver; a unit test holds
//! the two together.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, RetryPolicy};
use quakeviz::render::Camera;
use quakeviz::rt::fault::FaultSpec;
use quakeviz::rt::wire::WireSpec;
use quakeviz::seismic::{Dataset, SimulationBuilder};

/// One workload: a dataset size plus a pipeline configuration, as plain
/// data, so the timed runs, the serial oracle and the staged walk are all
/// derived from the same description.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// 64³ cells at 0.3 Hz (245 k nodes, 2.94 MB/step) instead of 32³ at
    /// 0.15 Hz (32 k nodes, 386 KB/step).
    pub big: bool,
    /// Timed runs of the full benchmark (a time-boxed run makes as many
    /// as fit instead).
    pub runs: usize,
    /// Frames at the head of each run that fill the pipeline and are left
    /// out of every steady-state statistic.
    pub fill: usize,
    pub io: IoStrategy,
    pub prefetch: bool,
    pub image: u32,
    pub enhancement: bool,
    pub lighting: bool,
    pub lic: bool,
    pub quantize: bool,
    pub io_delay_scale: Option<f64>,
    /// Wire spec in the `QUAKEVIZ_CODEC` grammar; empty = raw.
    pub wire: &'static str,
    /// Inject seeded transient and corrupt reads.
    pub read_faults: bool,
    pub checkpoint_every: Option<usize>,
    pub elastic_every: Option<usize>,
}

/// Rank counts are fixed per workload, not derived from the host, so the
/// numbers compare across hosts.
pub const RENDERERS: usize = 2;
pub const DATASET_STEPS: usize = 24;
/// Steps of the check run, the oracle run and the full staged walk.
pub const CHECK_STEPS: usize = 6;

const BASE: Workload = Workload {
    name: "",
    why: "",
    big: false,
    runs: 0,
    fill: 2,
    io: IoStrategy::OneDip { input_procs: 1 },
    prefetch: false,
    image: 64,
    enhancement: false,
    lighting: false,
    lic: false,
    quantize: false,
    io_delay_scale: None,
    wire: "",
    read_faults: false,
    checkpoint_every: None,
    elastic_every: None,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "movie",
        why: "Headline regime (northridge_movie on 2 cores): 256x256 lit volume + LIC; render, lic \
              and composite do >95% of the work, the data path almost none",
        runs: 5,
        image: 256,
        enhancement: true,
        lighting: true,
        lic: true,
        ..BASE
    },
    Workload {
        name: "ingest",
        why: "Data-movement bound: big steps, 64x64 unlit, raw f32 wire; read, route, send/recv and \
              block ingest are about half of each frame, so a saved copy shows and a faster \
              raycast barely does",
        big: true,
        runs: 60,
        ..BASE
    },
    Workload {
        name: "hiding",
        why: "Paper Fig. 8 through the prefetch runtime: 3 input ranks, slept reads (Tf+Tp)/3 < Tr, \
              so interframe delay must equal render time; lost overlap shows, faster reads must not",
        runs: 8,
        fill: 3,
        io: IoStrategy::OneDip { input_procs: 3 },
        prefetch: true,
        image: 192,
        lighting: true,
        io_delay_scale: Some(12.0),
        ..BASE
    },
    Workload {
        name: "resilient",
        why: "The ingest data path used differently: quantized, shuffle+delta coded and checksummed, \
              retried faulty reads, checkpoint writes, control-plane ticks; the gap to ingest is \
              what those layers cost",
        big: true,
        runs: 60,
        io: IoStrategy::TwoDip { groups: 1, per_group: 2 },
        image: 64,
        quantize: true,
        wire: "shuffle,delta,keyframe=8",
        read_faults: true,
        checkpoint_every: Some(8),
        elastic_every: Some(4),
        ..BASE
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the one generator every seeded input is drawn from.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Camera azimuth offset for a seed, degrees in `[-MAX_AZIMUTH_DEG, +MAX_AZIMUTH_DEG]`.
pub const MAX_AZIMUTH_DEG: f64 = 15.0;
pub fn azimuth_deg(seed: u64) -> f64 {
    let unit = (mix(seed) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    (unit * 2.0 - 1.0) * MAX_AZIMUTH_DEG
}

/// Fault-plan seed of timed run `run` (the check run is run 0): every
/// run draws its own plan, so a result summarises the fault rate rather
/// than the luck of one schedule.
pub fn fault_seed(seed: u64, run: usize) -> u64 {
    mix(seed ^ mix(run as u64))
}

impl Workload {
    pub fn width_of_input_group(&self) -> usize {
        match self.io {
            IoStrategy::OneDip { .. } => 1,
            IoStrategy::TwoDip { per_group, .. } => per_group,
        }
    }

    pub fn wire_spec(&self) -> WireSpec {
        WireSpec::parse(self.wire).expect("workload wire specs are literals in this file")
    }

    pub fn dataset(&self, steps: usize) -> Result<Dataset, String> {
        let sim = SimulationBuilder::new().steps(steps);
        if self.big {
            sim.resolution(64).frequency(0.3)
        } else {
            sim.resolution(32).frequency(0.15)
        }
        .run_to_dataset()
    }

    /// The default three-quarter view, turned about the vertical axis
    /// through its target by the seed's azimuth offset.
    pub fn camera(&self, ds: &Dataset, seed: u64) -> Camera {
        let bounds = quakeviz::mesh::Aabb::from_extent(ds.mesh().octree().extent());
        let base = Camera::default_for(&bounds, self.image, self.image);
        let (sin, cos) = azimuth_deg(seed).to_radians().sin_cos();
        let d = base.eye - base.target;
        let eye = base.target
            + quakeviz::mesh::Vec3::new(d.x * cos - d.y * sin, d.x * sin + d.y * cos, d.z);
        Camera::look_at(eye, base.target, base.up, base.fov_y, self.image, self.image)
    }

    fn features(&self, ds: &Dataset, camera: &Camera) -> PipelineBuilder {
        PipelineBuilder::new(ds)
            .image_size(self.image, self.image)
            .camera(camera.clone())
            .enhancement(self.enhancement)
            .lighting(self.lighting)
            .lic(self.lic)
            .quantize(self.quantize)
    }

    /// The workload's pipeline for timed run `run`.
    pub fn pipeline(
        &self,
        ds: &Dataset,
        camera: &Camera,
        seed: u64,
        run: usize,
    ) -> PipelineBuilder {
        let mut b = self
            .features(ds, camera)
            .renderers(RENDERERS)
            .io_strategy(self.io)
            .prefetch(self.prefetch)
            .keep_frames(false);
        if let Some(scale) = self.io_delay_scale {
            b = b.io_delay_scale(scale);
        }
        if !self.wire.is_empty() {
            b = b.wire_spec(self.wire_spec());
        }
        if self.read_faults {
            let spec =
                format!("seed={},read_transient=0.2,read_corrupt=0.1", fault_seed(seed, run));
            // twelve attempts put an unrecoverable read at 0.3^12 per
            // read, so no seed the driver picks degrades a frame; the
            // backoff base is halved to keep the rare deep retry short
            b = b
                .faults(FaultSpec::parse(&spec).expect("fault spec is a literal"))
                .retry(RetryPolicy { max_attempts: 12, backoff_ms: 1 });
        }
        if let Some(k) = self.checkpoint_every {
            b = b.checkpoint_every(k);
        }
        if let Some(k) = self.elastic_every {
            b = b.elastic(k);
        }
        b
    }

    /// The program's own serial configuration of the same picture: one
    /// renderer, one input rank, synchronous, raw wire, nothing injected.
    pub fn oracle(&self, ds: &Dataset, camera: &Camera) -> PipelineBuilder {
        self.features(ds, camera)
            .renderers(1)
            .io_strategy(IoStrategy::OneDip { input_procs: 1 })
            .keep_frames(true)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the baseline's median by which the
    /// metric may worsen before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// `failed_frame_share` is the seventh end-to-end metric of this
/// benchmark's own reports, with an absolute bound of zero. It is 0 on
/// every healthy run, so `BENCHMARK.json` carries it as the
/// `failed`/`attempted` counts of the result line instead of as a metric.
pub const FAILED_FRAME_SHARE: &str = "failed_frame_share";

/// The bounds are set from measurement on the 2-core host this was
/// written on: a fifth for the timings, a quarter for the tail, memory
/// and set-up. Each is about three times the widest interquartile spread
/// seen across ten 16-second invocations per workload, and twice the
/// drift of the host over an hour (see RESULTS.md), so that a bound is
/// crossed by a change and not by the host's mood.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("frames_per_s", "frames/s", Better::Higher, 0.2),
    e2e("interframe_p50_ms", "ms", Better::Lower, 0.2),
    e2e("interframe_p90_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_frame", "ms", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e(FAILED_FRAME_SHARE, "fraction", Better::Lower, 0.0),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Per-layer metrics, layer = module. Times are medians per frame from
/// the staged walk unless the name starts with `pipeline.` or the README
/// marks it as read from the `PipelineReport` of the timed runs.
pub const PER_LAYER: [MetricDef; 75] = [
    layer("seismic.simulate_s", "s", Lower),
    layer("seismic.bytes_per_step", "bytes", Lower),
    layer("seismic.nodes", "count", Lower),
    layer("mesh.partition_ms", "ms", Lower),
    layer("mesh.partition_imbalance", "ratio", Lower),
    layer("mesh.blocks", "count", Lower),
    layer("parfs.read_ms", "ms", Lower),
    layer("parfs.read_MBps", "MB/s", Higher),
    layer("parfs.sim_read_ms", "ms", Lower),
    layer("parfs.useful_byte_share", "fraction", Higher),
    layer("parfs.collective_read_ms", "ms", Lower),
    layer("parfs.write_ms", "ms", Lower),
    layer("reader.fetch_ms", "ms", Lower),
    layer("reader.route_ms", "ms", Lower),
    layer("reader.bytes_fetched", "bytes", Lower),
    layer("reader.retries", "count", Lower),
    layer("reader.retry_share", "fraction", Lower),
    layer("render.enhance_ms", "ms", Lower),
    layer("render.brick_build_ms", "ms", Lower),
    layer("render.raycast_ms", "ms", Lower),
    layer("render.rays", "count", Lower),
    layer("render.samples", "count", Lower),
    layer("render.samples_per_ray", "ratio", Lower),
    layer("render.Msamples_per_s", "Msamples/s", Higher),
    layer("render.early_term_share", "fraction", Higher),
    layer("render.lit_over_unlit", "ratio", Lower),
    layer("lic.field_ms", "ms", Lower),
    layer("lic.convolve_ms", "ms", Lower),
    layer("lic.colorize_ms", "ms", Lower),
    layer("lic.pixels", "count", Lower),
    layer("lic.streamline_steps", "count", Lower),
    layer("lic.Msteps_per_s", "Msteps/s", Higher),
    layer("composite.exchange_ms", "ms", Lower),
    layer("composite.slic_ms", "ms", Lower),
    layer("composite.msgs", "count", Lower),
    layer("composite.bytes", "bytes", Lower),
    layer("composite.over_px", "count", Lower),
    layer("wire.encode_ms", "ms", Lower),
    layer("wire.decode_ms", "ms", Lower),
    layer("wire.encode_MBps", "MB/s", Higher),
    layer("wire.decode_MBps", "MB/s", Higher),
    layer("wire.ratio", "ratio", Higher),
    layer("wire.bytes_per_frame", "bytes", Lower),
    layer("wire.keyframe_share", "fraction", Lower),
    layer("comm.sendrecv_ms", "ms", Lower),
    layer("comm.MBps", "MB/s", Higher),
    layer("comm.rtt_us", "us", Lower),
    layer("comm.msgs_per_frame", "count", Lower),
    layer("comm.bytes_per_frame", "bytes", Lower),
    layer("fault.injected", "count", Lower),
    layer("recovery.read_retries", "count", Lower),
    layer("recovery.checksum_failures", "count", Lower),
    layer("checkpoint.commits", "count", Lower),
    layer("checkpoint.bytes_written", "bytes", Lower),
    layer("control.plans_committed", "count", Lower),
    layer("pipeline.read_ms", "ms", Lower),
    layer("pipeline.preprocess_ms", "ms", Lower),
    layer("pipeline.lic_ms", "ms", Lower),
    layer("pipeline.send_ms", "ms", Lower),
    layer("pipeline.send_wait_ms", "ms", Lower),
    layer("pipeline.recv_wait_ms", "ms", Lower),
    layer("pipeline.render_ms", "ms", Lower),
    layer("pipeline.composite_ms", "ms", Lower),
    layer("pipeline.render_imbalance", "ratio", Lower),
    layer("pipeline.first_frame_ms", "ms", Lower),
    layer("pipeline.startup_ms", "ms", Lower),
    layer("pipeline.hidden_share", "fraction", Higher),
    layer("pipeline.parallel_speedup", "ratio", Higher),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("oracle.exact_share", "fraction", Higher),
    layer("walk.frame_ms", "ms", Lower),
    layer("walk.ingest_ms", "ms", Lower),
    layer("walk.assemble_ms", "ms", Lower),
    layer("walk.residual_pct", "%", Lower),
    layer("walk.oracle_match_share", "fraction", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64), "metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric name {:?} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
            assert!((0.0..=0.25).contains(&m.bound), "bound of {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {:?} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(w.fill < CHECK_STEPS && w.runs >= 5);
            w.wire_spec();
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let v = Value::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted_keys = keys.clone();
        sorted_keys.sort_unstable();
        assert_eq!(
            sorted_keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let field = |o: &Value, k: &str| o.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads = v.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.as_obj().unwrap().len(), 2);
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why.split_whitespace().collect::<Vec<_>>().join(" "));
        }

        let better = |b: Better| if b == Higher { "higher" } else { "lower" };
        // every end-to-end metric but the one that is 0 when healthy
        let ours: Vec<&MetricDef> =
            END_TO_END.iter().filter(|m| m.name != FAILED_FRAME_SHARE).collect();
        let theirs = v.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(theirs.len(), ours.len());
        for (j, m) in theirs.iter().zip(ours) {
            assert_eq!(j.as_obj().unwrap().len(), 4);
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), better(m.better));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
        }
        let theirs = v.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(theirs.len(), PER_LAYER.len());
        for (j, m) in theirs.iter().zip(&PER_LAYER) {
            assert_eq!(j.as_obj().unwrap().len(), 3);
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), better(m.better));
        }
        let secs = v.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn seeded_inputs_repeat_and_stay_in_range() {
        for seed in [0, 1, 1994, 2004, u64::MAX] {
            let a = azimuth_deg(seed);
            assert_eq!(a, azimuth_deg(seed));
            assert!(a.abs() <= MAX_AZIMUTH_DEG);
            assert_eq!(fault_seed(seed, 3), fault_seed(seed, 3));
            assert_ne!(fault_seed(seed, 3), fault_seed(seed, 4));
        }
        assert_ne!(azimuth_deg(2004), azimuth_deg(1994));
    }
}
