//! The exact-counter ledger: every deterministic count the pipeline
//! publishes — kernel work ticks, bytes and messages per traffic class,
//! codec piece mix, cache and OST traffic, recovery events — pinned to a
//! literal table and compared **two-sided**: a rise is a regression, a
//! drop is work silently skipped, both fail. Speed claims belong to
//! `benchmark/`; DESIGN.md "Measurement" says how to update the table.
//!
//! A counter is admitted only if it repeats bit for bit across runs, debug
//! and release, `QUAKEVIZ_TRACE` on and off. Not admitted, because they
//! read the wall clock: every `*_us`/`*_ns` timing (`parfs.sim_contig_us.*`
//! is cost-model time and stays), `pipeline.render_utilization.*` (a ratio
//! of span times), `parfs.ost*.peak_queue` (thread interleaving) and, under
//! the elastic controller, whose decisions follow measured span times,
//! everything but `frames`, `work.*`, `bytes.block_data` and
//! `bytes.volume_image` (`messages` read 68, 77, 78 on three runs).
//! `bytes.<class>` is the class's wire byte count: the edge matrix and the
//! codec ledger must agree on it, so it is listed once. The tick counters
//! are process-wide, so this file holds a single test.

use quakeviz::pipeline::{CacheConfig, CacheTier, IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::rt::obs::prof;
use quakeviz::rt::{FaultSpec, WireSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Ledger = BTreeMap<String, u64>;

/// `run: counter=value …`; a counter that is absent is pinned at zero.
const PINNED: &str = "
1dip_r3_i2: bytes.block_data=676352 bytes.collective=3892 bytes.composite=328960
  bytes.raw.block_data=676352 bytes.raw.volume_image=262144 bytes.total=1271348
  bytes.volume_image=262144 frames=4 messages=71 msgs.block_data=12 msgs.collective=34
  msgs.composite=21 msgs.volume_image=4 wire.keyframes.block_data=256
  work.raycast.bricks_skipped=183 work.raycast.rays=18109 work.raycast.samples=86478
  work.raycast.samples_culled=54163 work.slic.over_px=29948
2dip_g2x2_r3: bytes.block_data=676352 bytes.collective=3892 bytes.composite=328960
  bytes.raw.block_data=676352 bytes.raw.volume_image=262144 bytes.total=1271348
  bytes.volume_image=262144 frames=4 messages=87 msgs.block_data=24 msgs.collective=38
  msgs.composite=21 msgs.volume_image=4 wire.keyframes.block_data=348
  work.raycast.bricks_skipped=183 work.raycast.rays=18109 work.raycast.samples=86478
  work.raycast.samples_culled=54163 work.slic.over_px=29948
1dip_faulted_s11: bytes.block_data=676352 bytes.collective=3892 bytes.composite=328960
  bytes.raw.block_data=676352 bytes.raw.volume_image=262144 bytes.total=1271348
  bytes.volume_image=262144 fault_events=3 frames=4 messages=71 msgs.block_data=12
  msgs.collective=34 msgs.composite=21 msgs.volume_image=4 recovery.retries=3
  wire.keyframes.block_data=256 work.raycast.bricks_skipped=183 work.raycast.rays=18109
  work.raycast.samples=86478 work.raycast.samples_culled=54163 work.slic.over_px=29948
1dip_r3_elastic_t2: bytes.block_data=676352 bytes.volume_image=262144 frames=4
  work.raycast.bricks_skipped=183 work.raycast.rays=18109 work.raycast.samples=86478
  work.raycast.samples_culled=54163 work.slic.over_px=29948
1dip_rejoin_s1: bytes.block_data=676352 bytes.collective=3084 bytes.composite=285888
  bytes.raw.block_data=676352 bytes.raw.volume_image=262144 bytes.recovery=208 bytes.total=1227676
  bytes.volume_image=262144 fault_events=2 frames=4 messages=74 msgs.block_data=10
  msgs.collective=28 msgs.composite=13 msgs.recovery=19 msgs.volume_image=4 recovery.rejoins=1
  recovery.render_failovers=2 wire.keyframes.block_data=256 work.raycast.bricks_skipped=183
  work.raycast.rays=18109 work.raycast.samples=86478 work.raycast.samples_culled=54163
  work.slic.over_px=29948
raw: bytes.block_data=253632 bytes.collective=5488 bytes.composite=468880
  bytes.raw.block_data=253632 bytes.raw.volume_image=393216 bytes.total=1121216
  bytes.volume_image=393216 frames=6 messages=99 msgs.block_data=18 msgs.collective=46
  msgs.composite=29 msgs.volume_image=6 wire.keyframes.block_data=384
  work.raycast.bricks_skipped=286 work.raycast.early_terminated=5 work.raycast.rays=24261
  work.raycast.samples=115824 work.raycast.samples_culled=79727 work.slic.over_px=41747
rle: bytes.block_data=25350 bytes.collective=5488 bytes.composite=468880
  bytes.raw.block_data=253632 bytes.raw.volume_image=393216 bytes.total=582698
  bytes.volume_image=82980 frames=6 messages=99 msgs.block_data=18 msgs.collective=46
  msgs.composite=29 msgs.volume_image=6 wire.keyframes.block_data=384
  work.raycast.bricks_skipped=286 work.raycast.early_terminated=5 work.raycast.rays=24261
  work.raycast.samples=115824 work.raycast.samples_culled=79727 work.slic.over_px=41747
rle,delta,keyframe=4: bytes.block_data=25338 bytes.collective=5488 bytes.composite=468880
  bytes.raw.block_data=253632 bytes.raw.volume_image=393216 bytes.total=582686
  bytes.volume_image=82980 frames=6 messages=99 msgs.block_data=18 msgs.collective=46
  msgs.composite=29 msgs.volume_image=6 wire.deltas.block_data=192 wire.keyframes.block_data=192
  work.raycast.bricks_skipped=286 work.raycast.early_terminated=5 work.raycast.rays=24261
  work.raycast.samples=115824 work.raycast.samples_culled=79727 work.slic.over_px=41747
shuffle: bytes.block_data=21070 bytes.collective=5488 bytes.composite=468880
  bytes.raw.block_data=253632 bytes.raw.volume_image=393216 bytes.total=541489
  bytes.volume_image=46051 frames=6 messages=99 msgs.block_data=18 msgs.collective=46
  msgs.composite=29 msgs.volume_image=6 wire.keyframes.block_data=384
  work.raycast.bricks_skipped=286 work.raycast.early_terminated=5 work.raycast.rays=24261
  work.raycast.samples=115824 work.raycast.samples_culled=79727 work.slic.over_px=41747
shuffle,delta,keyframe=4: bytes.block_data=21070 bytes.collective=5488 bytes.composite=468880
  bytes.raw.block_data=253632 bytes.raw.volume_image=393216 bytes.total=541489
  bytes.volume_image=46051 frames=6 messages=99 msgs.block_data=18 msgs.collective=46
  msgs.composite=29 msgs.volume_image=6 wire.deltas.block_data=192 wire.keyframes.block_data=192
  work.raycast.bricks_skipped=286 work.raycast.early_terminated=5 work.raycast.rays=24261
  work.raycast.samples=115824 work.raycast.samples_culled=79727 work.slic.over_px=41747
cache_cold: bytes.block_data=676352 bytes.collective=3892 bytes.composite=328960
  bytes.raw.block_data=676352 bytes.raw.volume_image=262144 bytes.total=1271348
  bytes.volume_image=262144 cache.block.bytes=1543632 cache.block.misses=4 frames=4 messages=71
  msgs.block_data=12 msgs.collective=34 msgs.composite=21 msgs.volume_image=4
  parfs.ost0.bytes=1543632 parfs.ost0.reads=4 wire.keyframes.block_data=256
  work.raycast.bricks_skipped=183 work.raycast.rays=18109 work.raycast.samples=86478
  work.raycast.samples_culled=54163 work.slic.over_px=29948
cache_warm: cache.block.bytes=1543632 cache.frame.hits=4 frames=4
parfs_ost4: parfs.ost0.bytes=262144 parfs.ost0.reads=4 parfs.ost1.bytes=262144 parfs.ost1.reads=4
  parfs.ost2.bytes=262144 parfs.ost2.reads=4 parfs.ost3.bytes=262144 parfs.ost3.reads=4
  parfs.sim_contig_us.flat=65929 parfs.sim_contig_us.ost4=22107
kernels: work.lic.pixels=16384 work.lic.streamline_steps=384152 work.raycast.early_terminated=1264
  work.raycast.rays=4900 work.raycast.samples=69268 work.raycast.samples_culled=33772
";

fn parse(table: &'static str) -> Vec<(&'static str, Ledger)> {
    let mut rows: Vec<(&str, Ledger)> = Vec::new();
    for tok in table.split_whitespace() {
        if let Some(run) = tok.strip_suffix(':') {
            rows.push((run, Ledger::new()));
        } else {
            let (k, v) = tok.split_once('=').expect("counter=value");
            let row = &mut rows.last_mut().expect("a run name before its counters").1;
            row.insert(k.to_string(), v.parse().expect("integer counter"));
        }
    }
    rows
}

/// The inverse of [`parse`], wrapped for pasting over `PINNED`.
fn render(rows: &[(&str, Ledger)]) -> String {
    let mut out = String::new();
    for (run, row) in rows {
        let mut line = format!("{run}:");
        for (k, v) in row {
            let cell = format!(" {k}={v}");
            if line.len() + cell.len() > 99 {
                out += &format!("{line}\n");
                line = " ".into();
            }
            line += &cell;
        }
        out += &format!("{line}\n");
    }
    out
}

fn wall_clock_derived(name: &str) -> bool {
    let marks = ["_us", "_ns", "_ms", "utilization", "peak_queue", "interframe"];
    !name.starts_with("parfs.sim_") && marks.iter().any(|m| name.contains(m))
}

/// The variables of the CI env matrix. A run names the one its builder
/// call overrides (an explicit fault spec, an explicit wire spec, an
/// attached tier), or none.
const ENV_MATRIX: [&str; 3] = ["QUAKEVIZ_FAULTS", "QUAKEVIZ_CODEC", "QUAKEVIZ_CACHE"];

/// What holds whichever fault, codec or cache layer the environment arms:
/// they change who moves which bytes, never what is rendered.
fn env_invariant(name: &str, raw_wire: bool) -> bool {
    name == "frames" || name.starts_with("work.") || (raw_wire && name == "bytes.volume_image")
}

struct Book {
    pinned: Vec<(&'static str, Ledger)>,
    armed: Vec<&'static str>,
    now: Vec<(&'static str, Ledger)>,
    diffs: Vec<String>,
}

impl Book {
    /// Compare `now` with the pinned row of `run`, both ways, over the
    /// counters `keep` admits.
    fn check(&mut self, run: &'static str, mut now: Ledger, keep: impl Fn(&str) -> bool) {
        now.retain(|k, v| *v > 0 && keep(k));
        let none = Ledger::new();
        let pinned = self.pinned.iter().find(|(r, _)| *r == run).map_or(&none, |(_, l)| l);
        let names: BTreeSet<&String> =
            pinned.keys().filter(|k| keep(k)).chain(now.keys()).collect();
        for k in names {
            let (p, n) = (pinned.get(k).copied().unwrap_or(0), now.get(k).copied().unwrap_or(0));
            if p != n {
                self.diffs.push(format!("{run}/{k}: {p} → {n}"));
            }
        }
        self.now.push((run, now));
    }

    /// Run one configuration and check its full row — or, when an armed
    /// environment variable reaches it, the env-invariant subset. Returns
    /// the run's kernel work.
    fn pipeline(&mut self, run: &'static str, pins: &str, builder: PipelineBuilder) -> Ledger {
        assert!(pins.is_empty() || ENV_MATRIX.contains(&pins), "{run}: unknown pin {pins}");
        prof::reset();
        let report = builder.run().unwrap_or_else(|e| panic!("{run}: {e}"));
        let now = pipeline_ledger(run, &report);
        let work = now.iter().filter(|(k, _)| k.starts_with("work.")).map(|(k, v)| (k.clone(), *v));
        let work = work.collect();
        let raw_wire = report.wire_spec == "raw";
        let pinned_down = self.armed.iter().all(|a| *a == pins);
        if !pinned_down {
            println!("{run}: {:?} reaches this run, checking frames and work.* only", self.armed);
        }
        let stable = |k: &str| !run.contains("elastic") || k == "bytes.block_data";
        self.check(run, now, |k| env_invariant(k, raw_wire) || (pinned_down && stable(k)));
        work
    }
}

/// Every deterministic counter of one run, from public report fields and
/// the tick registry; asserts on the way that the independent accountings
/// of the same traffic agree.
fn pipeline_ledger(run: &str, report: &PipelineReport) -> Ledger {
    let mut l: Ledger =
        prof::snapshot().into_iter().map(|(k, v)| (format!("work.{k}"), v)).collect();
    let mut put = |k: &str, v: u64| l.insert(k.to_string(), v);
    put("frames", report.frame_done.len() as u64);
    put("messages", report.messages);
    put("bytes.total", report.bytes_sent);
    put("fault_events", report.fault_events.len() as u64);
    put("degraded_frames", report.degraded_frame_count() as u64);
    put("checkpoints", report.checkpoints);

    // accounting 1, the comm layer's edge matrix, against the run totals …
    let mut classes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in &report.traffic {
        let c = classes.entry(e.class.as_str()).or_default();
        *c = (c.0 + e.messages, c.1 + e.bytes);
    }
    let (msgs, bytes) = classes.values().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    assert_eq!((msgs, bytes), (report.messages, report.bytes_sent), "{run}: Σ traffic edges");
    for (class, (msgs, bytes)) in &classes {
        put(&format!("msgs.{class}"), *msgs);
        put(&format!("bytes.{class}"), *bytes);
    }
    // … and against accounting 2, the codec layer's own raw/wire ledger
    for w in &report.wire {
        let class = w.class.as_str();
        let edges = classes.get(class).map_or(0, |c| c.1);
        assert_eq!(edges, w.wire_bytes, "{run}: {class} edge bytes vs the wire ledger");
        put(&format!("bytes.raw.{class}"), w.raw_bytes);
        put(&format!("wire.keyframes.{class}"), w.keyframe_pieces);
        put(&format!("wire.deltas.{class}"), w.delta_pieces);
    }
    for (name, &v) in &report.trace.metrics {
        // `work.` is the tick registry's namespace: nothing span-derived
        assert!(!name.starts_with("work."), "{run}: metric {name} in work.*");
        let kept = ["cache.", "parfs.ost", "recovery."].iter().any(|p| name.starts_with(p));
        if kept && !wall_clock_derived(name) {
            put(name, v);
        }
    }
    l
}

/// The 4-OST sharded disk under 4 concurrent readers of disjoint
/// quarters, plus the cost model's flat-vs-sharded full-file read.
fn sharded_read_ledger() -> Ledger {
    use quakeviz::parfs::{CostModel, Disk, PFile};
    let len = 1u64 << 20;
    // a 64 KiB stripe, so the 1 MiB file crosses every OST four times
    let disk = Disk::new(CostModel { stripe_size: 1 << 16, ..CostModel::default() });
    disk.write_file("step", (0..len).map(|i| (i % 251) as u8).collect());
    let read = |disk: &Arc<Disk>, at: u64, n: u64| {
        PFile::open(Arc::clone(disk), "step").unwrap().read_contiguous(at, n).unwrap()
    };
    let sim_us = |disk: &Arc<Disk>| (read(disk, 0, len).sim_seconds * 1e6).round() as u64;
    let mut l = Ledger::from([("parfs.sim_contig_us.flat".to_string(), sim_us(&disk))]);
    disk.set_shards(4);
    l.insert("parfs.sim_contig_us.ost4".into(), sim_us(&disk));
    disk.set_shards(4); // zeroes the per-OST counters
    let shared = Arc::clone(&disk);
    quakeviz::rt::World::run(4, move |comm| {
        read(&shared, comm.rank() as u64 * (len / 4), len / 4).useful_bytes
    });
    for (i, st) in disk.ost_stats().iter().enumerate() {
        l.insert(format!("parfs.ost{i}.reads"), st.reads);
        l.insert(format!("parfs.ost{i}.bytes"), st.bytes);
    }
    l
}

/// One unlit ray-cast of a synthetic 16³-cell shell brick and one LIC of
/// a 128² vortex: the kernels' work counts with no pipeline around them.
fn kernel_ledger() -> Ledger {
    use quakeviz::lic::{compute_lic, white_noise, LicParams, RegularField2D};
    use quakeviz::mesh::{Aabb, Vec3};
    use quakeviz::render::{render_brick, Brick, Camera, RenderParams, TransferFunction};
    let n = 17usize; // grid points per axis, x fastest
    let c = |i: usize| (i % n) as f32 / (n - 1) as f32 - 0.5;
    let shell = |i: usize| {
        let r = (c(i) * c(i) + c(i / n) * c(i / n) + c(i / n / n) * c(i / n / n)).sqrt();
        (1.0 - (r - 0.3).abs() * 6.0).clamp(0.0, 1.0)
    };
    let brick = Brick::from_values(0, Aabb::UNIT, (n, n, n), (0..n * n * n).map(shell).collect());
    let (eye, at) = (Vec3::new(0.5, 0.5, -2.5), Vec3::new(0.5, 0.5, 0.5));
    let camera = Camera::look_at(eye, at, Vec3::new(0.0, 1.0, 0.0), 0.7, 128, 128);
    let field =
        RegularField2D::from_fn(128, 128, (1.0, 1.0), |x, y| (-(y - 0.5) as f32, (x - 0.5) as f32));
    prof::set_enabled(true);
    prof::reset();
    render_brick(&brick, &camera, &TransferFunction::seismic(), &RenderParams::default());
    compute_lic(&field, &white_noise(128, 128, 1), &LicParams::default());
    prof::snapshot().into_iter().map(|(k, v)| (format!("work.{k}"), v)).collect()
}

#[test]
fn deterministic_counters_match_the_pinned_table() {
    let on = |var: &&str| std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0");
    let armed = ENV_MATRIX.into_iter().filter(on).collect();
    let mut book = Book { pinned: parse(PINNED), armed, now: Vec::new(), diffs: Vec::new() };
    let timed = book.pinned.iter().flat_map(|(_, row)| row.keys()).find(|k| wall_clock_derived(k));
    assert_eq!(timed, None, "a pinned counter is wall-clock-derived: unpin it");

    let ds = quakeviz_bench::standard_dataset();
    let base = |steps: usize| {
        PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .profile(true)
            .max_steps(steps)
    };
    let faults = |spec: &str| FaultSpec::parse(spec).expect("fault spec");
    let twodip = IoStrategy::TwoDip { groups: 2, per_group: 2 };
    let read_faults = faults("seed=11,read_transient=0.2");
    let rejoin = faults("seed=1,fail_rank=3@1,recover_rank=3@3");
    let rejoin = base(4).faults(rejoin).delivery_deadline_ms(400);
    let same = |works: &[Ledger]| works.iter().all(|w| *w == works[0]);
    let works = [
        book.pipeline("1dip_r3_i2", "", base(4)),
        book.pipeline("2dip_g2x2_r3", "", base(4).io_strategy(twodip)),
        book.pipeline("1dip_faulted_s11", "QUAKEVIZ_FAULTS", base(4).faults(read_faults)),
        book.pipeline("1dip_r3_elastic_t2", "", base(4).elastic(2)),
        book.pipeline("1dip_rejoin_s1", "QUAKEVIZ_FAULTS", rejoin),
    ];
    assert!(same(&works), "faults, 2DIP, rejoin and elastic move bytes differently, not work");
    // every run has a fault plan, so one that only ever loses to retry
    // moves exactly the messages a clean run moves (full rows: no env armed)
    let row = |run: &str| {
        let (_, row) = book.now.iter().find(|(r, _)| *r == run).expect("run checked above");
        let mut row = row.clone();
        row.retain(|k, _| k != "fault_events" && !k.starts_with("recovery."));
        row
    };
    if book.armed.is_empty() {
        assert_eq!(row("1dip_r3_i2"), row("1dip_faulted_s11"), "retried reads moved traffic");
    }
    // the wire runs are named by their spec
    let works =
        ["raw", "rle", "rle,delta,keyframe=4", "shuffle", "shuffle,delta,keyframe=4"].map(|run| {
            let spec = WireSpec::parse(run).expect("wire spec");
            book.pipeline(run, "QUAKEVIZ_CODEC", base(6).quantize(true).wire_spec(spec))
        });
    assert!(same(&works), "a codec changes how bytes are coded, not kernel work");

    // last of the pipeline runs: sharding re-stripes the dataset's disk
    // for good. Cold fills the tier, warm replays every frame from it.
    ds.disk().set_shards(4);
    let tier = CacheTier::new(CacheConfig { blocks_mb: 64, frames: 64 });
    for run in ["cache_cold", "cache_warm"] {
        book.pipeline(run, "QUAKEVIZ_CACHE", base(4).cache_tier(Arc::clone(&tier)));
    }
    book.check("parfs_ost4", sharded_read_ledger(), |_| true);
    book.check("kernels", kernel_ledger(), |_| true);

    for (run, _) in &book.pinned {
        assert!(book.now.iter().any(|(r, _)| r == run), "pinned run {run} no longer runs");
    }
    let table = match book.armed.is_empty() {
        true => format!("if the change is intended, PINNED becomes:\n{}", render(&book.now)),
        false => format!("(unset {:?} to print a paste-ready table)", book.armed),
    };
    let diffs = book.diffs.join("\n  ");
    assert!(diffs.is_empty(), "counters moved, pinned → now:\n  {diffs}\n{table}");
}
