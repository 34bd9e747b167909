//! End-to-end observability tests: a traced pipeline run must export a
//! valid Chrome trace with one track per rank, disjoint stage spans, a
//! populated traffic matrix, and metrics; an untraced run must record
//! stage spans only (the auto instrumentation stays off); the metrics
//! table's derived rows must follow the assembled report; the JSON/CSV
//! exporters must round-trip the metrics table and the traffic
//! matrix, and the Chrome trace must keep timestamps non-decreasing
//! per tid (spans are recorded at drop time, so the exporter has to
//! reorder them).

use quakeviz::pipeline::membership::{Schedule, Tick, WorldShape};
use quakeviz::pipeline::{ControlConfig, IoStrategy, PipelineBuilder};
use quakeviz::rt::obs::{Obs, Phase};
use quakeviz::rt::{FaultSpec, TagClass, WireSpec};
use quakeviz::seismic::SimulationBuilder;
use quakeviz_bench::json::Json;
use std::collections::BTreeMap;

fn run(trace: bool) -> quakeviz::pipeline::PipelineReport {
    let ds = SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap();
    PipelineBuilder::new(&ds)
        .renderers(3)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(64, 64)
        .keep_frames(false)
        .trace(trace)
        .run()
        .expect("pipeline")
}

#[test]
fn traced_run_exports_valid_chrome_trace() {
    let report = run(true);
    let tr = &report.trace;

    // one track per rank, all three processor groups present
    assert_eq!(tr.tracks.len(), 2 + 3 + 1, "one track per rank");
    let groups: std::collections::BTreeSet<&str> =
        tr.tracks.iter().map(|t| t.group.as_str()).collect();
    assert_eq!(groups.into_iter().collect::<Vec<_>>(), ["input", "output", "render"]);
    for t in &tr.tracks {
        assert!(!t.spans.is_empty(), "rank {} recorded no spans", t.rank);
    }

    // detail run: runtime auto spans show up (blocking receives at least)
    assert!(
        tr.tracks.iter().flat_map(|t| &t.spans).any(|s| !s.phase.is_stage()),
        "traced run should contain auto spans"
    );

    // the Chrome export is syntactically valid JSON and names every track
    let json = tr.chrome_trace_json();
    Json::parse(&json).expect("chrome trace is valid JSON");
    for t in &tr.tracks {
        assert!(json.contains(&format!("rank{} ({})", t.rank, t.group)));
    }

    // traffic matrix populated with the pipeline's main classes
    assert!(!tr.edges.is_empty(), "traffic matrix empty");
    for class in [TagClass::BlockData, TagClass::VolumeImage, TagClass::Composite] {
        assert!(
            tr.edges.iter().any(|e| e.class == class && e.bytes > 0),
            "no {class:?} traffic recorded"
        );
    }

    // the codec ledger publishes both sides of every encoded class
    for w in &report.wire {
        let class = w.class.as_str();
        assert_eq!(tr.metrics.get(&format!("traffic.{class}.raw_bytes")), Some(&w.raw_bytes));
        assert_eq!(tr.metrics.get(&format!("traffic.{class}.wire_bytes")), Some(&w.wire_bytes));
    }

    // metrics: the table counts every delivered frame
    assert_eq!(tr.metrics.get("pipeline.frames"), Some(&(report.frame_done.len() as u64)));
}

/// The rows derived from the assembled report, whoever delivered the
/// frames: the output processor, or — after it died — the render root
/// that assumed assembly, whose migrated frames must count once each.
#[test]
fn counter_table_rows_follow_the_report() {
    let ds = SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap();
    let (io, (w, h)) = (IoStrategy::OneDip { input_procs: 2 }, (48u32, 40u32));
    let base = || PipelineBuilder::new(&ds).renderers(2).io_strategy(io).image_size(w, h);
    // world: [0,1 inputs | 2,3 renderers | 4 output] — the output dies at step 2
    let failover = base()
        .faults(FaultSpec::parse("seed=1,fail_rank=4@2").unwrap())
        .delivery_deadline_ms(500)
        .run()
        .expect("the run survives the output-rank failure");
    let elastic = base().elastic(2).run().expect("elastic pipeline");
    // the plan-commit rounds the membership schedule hands the controller
    let rounds = |control: Option<ControlConfig>| {
        let (groups, per_group) = io.shape();
        let shape = WorldShape { groups, per_group, renderers: 2, spares: 0 };
        let sched = Schedule::new(&[], None, shape, control, ds.steps()).unwrap();
        (0..ds.steps()).filter(|&t| matches!(sched.tick(t), Tick::Round { .. })).count() as u64
    };
    let runs = [
        ("output failover", &failover, 2, rounds(None)),
        ("elastic(2)", &elastic, 0, rounds(Some(ControlConfig::every(2)))),
    ];
    assert_eq!(runs[1].3, 1, "a 4-step run ticking every 2 steps has one round");
    for (what, report, migrated, ticks) in runs {
        let row = |name: &str| report.trace.metrics.get(name).copied().unwrap_or(0);
        let steps = ds.steps() as u64;
        assert_eq!(report.frame_done.len() as u64, steps, "{what}: one delivery per step");
        assert_eq!(row("pipeline.frames"), steps, "{what}: every frame counted once");
        assert_eq!(row("recovery.migrated_frames"), migrated, "{what}: migrated frames");
        assert_eq!(row("pipeline.frame_bytes"), steps * u64::from(w * h) * 16, "{what}");
        assert_eq!(row("control.ticks"), ticks, "{what}: controller rounds");
    }
}

#[test]
fn stage_spans_are_disjoint_per_rank() {
    let report = run(true);
    for t in &report.trace.tracks {
        let mut spans: Vec<_> = t.spans.iter().filter(|s| s.phase.is_stage()).collect();
        spans.sort_by_key(|s| s.start_us);
        for w in spans.windows(2) {
            // sub-µs timestamp skew between a drop and the next open is
            // possible; genuine nesting would overlap by the inner span
            let overlap = w[0].end_us().saturating_sub(w[1].start_us);
            assert!(
                overlap <= 200,
                "rank {}: stage spans overlap by {overlap}µs: {:?} then {:?}",
                t.rank,
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn untraced_run_records_stage_spans_only() {
    if Obs::detail_from_env() {
        return; // QUAKEVIZ_TRACE forces detail; nothing to check here
    }
    let report = run(false);
    let tr = &report.trace;
    // stage spans are always on — the timing structs derive from them
    assert!(tr.tracks.iter().any(|t| t.spans.iter().any(|s| s.phase == Phase::Read)));
    assert!(tr.tracks.iter().any(|t| t.spans.iter().any(|s| s.phase == Phase::Render)));
    // but no runtime auto instrumentation leaks in
    for t in &tr.tracks {
        for s in &t.spans {
            assert!(
                s.phase.is_stage(),
                "rank {}: auto span {:?} recorded without tracing",
                t.rank,
                s.phase
            );
        }
    }
    // the derived timings agree with the spans they came from
    let span_render: f64 = tr
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.phase == Phase::Render)
        .map(|s| s.dur_us as f64 / 1e6)
        .sum();
    let timing_render: f64 = report.render_frames.iter().map(|f| f.render_s).sum();
    assert!(
        (span_render - timing_render).abs() < 1e-6,
        "span-derived render time {span_render} != reported {timing_render}"
    );
}

#[test]
fn chrome_trace_ts_non_decreasing_per_tid() {
    let report = run(true);
    let doc = Json::parse(&report.trace.chrome_trace_json()).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    // spans are recorded at drop time (a nested auto span drops before
    // its parent), so ordered output proves the exporter re-sorts
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_events = 0usize;
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        span_events += 1;
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = ev.get("ts").and_then(Json::as_u64).expect("ts");
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(prev <= ts, "tid {tid}: ts went backwards ({prev} -> {ts})");
        }
        last_ts.insert(tid, ts);
    }
    let recorded: usize = report.trace.tracks.iter().map(|t| t.spans.len()).sum();
    assert_eq!(span_events, recorded, "every recorded span must be exported");
}

#[test]
fn traffic_matrix_round_trips_through_csv() {
    let report = run(true);
    let tr = &report.trace;
    let csv = tr.traffic_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("src,dst,class,messages,bytes"));
    let parsed: Vec<(usize, usize, String, u64, u64)> = lines
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            assert_eq!(f.len(), 5, "bad traffic row {l:?}");
            (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].to_string(),
                f[3].parse().unwrap(),
                f[4].parse().unwrap(),
            )
        })
        .collect();
    assert_eq!(parsed.len(), tr.edges.len(), "one row per traffic edge");
    for (edge, row) in tr.edges.iter().zip(&parsed) {
        assert_eq!(
            (edge.src, edge.dst, edge.class.as_str(), edge.messages, edge.bytes),
            (row.0, row.1, row.2.as_str(), row.3, row.4)
        );
    }
    // the Chrome export carries the same matrix as instant events
    let doc = Json::parse(&tr.chrome_trace_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let traffic: Vec<&Json> =
        events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some("traffic")).collect();
    assert_eq!(traffic.len(), tr.edges.len());
    for (edge, ev) in tr.edges.iter().zip(&traffic) {
        let args = ev.get("args").expect("traffic args");
        assert_eq!(args.get("src").and_then(Json::as_u64), Some(edge.src as u64));
        assert_eq!(args.get("dst").and_then(Json::as_u64), Some(edge.dst as u64));
        assert_eq!(args.get("class").and_then(Json::as_str), Some(edge.class.as_str()));
        assert_eq!(args.get("messages").and_then(Json::as_u64), Some(edge.messages));
        assert_eq!(args.get("bytes").and_then(Json::as_u64), Some(edge.bytes));
    }
}

#[test]
fn metrics_table_round_trips_through_chrome_export() {
    let report = run(true);
    let tr = &report.trace;
    assert!(!tr.metrics.is_empty());
    let doc = Json::parse(&tr.chrome_trace_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // every metric event is one row of the table, and every row is one
    // event carrying exactly its counter
    let exported: BTreeMap<&str, u64> = events
        .iter()
        .filter_map(|e| {
            let name = e.get("name").and_then(Json::as_str)?.strip_prefix("metric:")?;
            let args = e.get("args").expect("metric args");
            let v = args.get("counter").and_then(Json::as_u64).expect("a counter");
            let one = Json::Obj(vec![("counter".into(), Json::Num(v as f64))]);
            assert_eq!(args, &one, "{name}: a row exports its counter and nothing else");
            Some((name, v))
        })
        .collect();
    let table: BTreeMap<&str, u64> = tr.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(exported, table);
}

#[test]
fn span_csv_matches_recorded_tracks() {
    let report = run(true);
    let tr = &report.trace;
    let csv = tr.csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("rank,group,phase,step,start_us,dur_us,bytes"));
    let rows: Vec<Vec<String>> =
        lines.map(|l| l.split(',').map(str::to_string).collect()).collect();
    let recorded: usize = tr.tracks.iter().map(|t| t.spans.len()).sum();
    assert_eq!(rows.len(), recorded, "one CSV row per span");
    let mut iter = rows.iter();
    for t in &tr.tracks {
        for s in &t.spans {
            let row = iter.next().unwrap();
            assert_eq!(row[0], t.rank.to_string());
            assert_eq!(row[1], t.group);
            assert_eq!(row[2], s.phase.as_str());
            assert_eq!(row[4], s.start_us.to_string());
            assert_eq!(row[5], s.dur_us.to_string());
            assert_eq!(row[6], s.bytes.to_string());
        }
    }
}

/// Raw-vs-wire traffic invariants across codec configurations: the raw
/// side of the ledger is a property of the workload (identical whatever
/// codec runs), the wire side never exceeds it (the no-expansion
/// envelope stores raw on incompressible payloads), the plain raw codec
/// ships exactly its input, and a compressing codec over quantized block
/// data must actually shrink the wire.
#[test]
fn traffic_raw_vs_wire_invariants_hold_across_codecs() {
    let ds = SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap();
    let run_spec = |spec: &str| {
        PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .quantize(true)
            .keep_frames(false)
            .wire_spec(WireSpec::parse(spec).unwrap())
            .run()
            .expect("pipeline")
    };
    let baseline = run_spec("raw");
    assert!(!baseline.wire.is_empty(), "raw run must still populate the wire ledger");
    for w in &baseline.wire {
        assert_eq!(
            w.wire_bytes, w.raw_bytes,
            "{:?}: the raw codec must ship exactly its input",
            w.class
        );
    }
    for spec in ["rle", "shuffle", "rle,delta,keyframe=2"] {
        let report = run_spec(spec);
        assert_eq!(
            report.wire.len(),
            baseline.wire.len(),
            "{spec}: codec choice must not change which classes hit the wire"
        );
        for (w, base) in report.wire.iter().zip(&baseline.wire) {
            assert_eq!(w.class, base.class);
            assert_eq!(
                w.raw_bytes, base.raw_bytes,
                "{spec}/{:?}: raw bytes are a workload property, not a codec property",
                w.class
            );
            assert!(
                w.wire_bytes <= w.raw_bytes,
                "{spec}/{:?}: payload expanded on the wire ({} -> {})",
                w.class,
                w.raw_bytes,
                w.wire_bytes
            );
        }
        let block = report
            .wire
            .iter()
            .find(|w| w.class == TagClass::BlockData)
            .expect("block data on the wire");
        assert!(
            block.wire_bytes < block.raw_bytes,
            "{spec}: quantized block data must compress ({} -> {})",
            block.raw_bytes,
            block.wire_bytes
        );
    }
}
