//! Trace export and summarization: Chrome-trace JSON (Perfetto /
//! `chrome://tracing` loadable), CSV, per-rank utilization, and an ASCII
//! Gantt chart for terminal reports.

use crate::obs::{Phase, SpanEvent, NO_STEP};
use crate::stats::TrafficEdge;
use std::collections::BTreeMap;

/// All spans recorded by one rank, with its processor-group label.
#[derive(Debug, Clone)]
pub struct RankTrack {
    pub rank: usize,
    pub group: String,
    pub spans: Vec<SpanEvent>,
}

impl RankTrack {
    /// Stage spans only (the disjoint pipeline phases).
    pub fn stage_spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter().filter(|s| s.phase.is_stage())
    }
}

/// Utilization summary for one rank.
#[derive(Debug, Clone)]
pub struct RankUtilization {
    pub rank: usize,
    pub group: String,
    /// Seconds spent per stage phase, indexed like [`Phase::STAGES`].
    pub stage_seconds: [f64; Phase::STAGES.len()],
    /// Sum of stage span durations.
    pub busy_seconds: f64,
    /// Track wall time: last stage-span end minus first stage-span start.
    pub span_seconds: f64,
}

impl RankUtilization {
    /// busy / wall fraction in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.span_seconds > 0.0 {
            (self.busy_seconds / self.span_seconds).min(1.0)
        } else {
            0.0
        }
    }
}

/// One exportable trace: per-rank span tracks, the traffic matrix, and
/// the run's metrics.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    pub tracks: Vec<RankTrack>,
    pub edges: Vec<TrafficEdge>,
    /// Counter rows named by their source (`recovery.rejoins`,
    /// `traffic.block_data.bytes`, …), built once after the run; a row
    /// that is absent reads 0.
    pub metrics: BTreeMap<String, u64>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceData {
    /// Earliest span start across all tracks (µs).
    pub fn start_us(&self) -> u64 {
        self.tracks.iter().flat_map(|t| t.spans.iter().map(|s| s.start_us)).min().unwrap_or(0)
    }

    /// Latest span end across all tracks (µs).
    pub fn end_us(&self) -> u64 {
        self.tracks.iter().flat_map(|t| t.spans.iter().map(|s| s.end_us())).max().unwrap_or(0)
    }

    /// Chrome trace event format: one JSON document with `"X"` complete
    /// events (one track per rank, `tid` = rank), `"M"` metadata naming
    /// each track `rank<r> (<group>)`, and the traffic matrix / metrics
    /// attached to instant events. Load in Perfetto or `chrome://tracing`.
    ///
    /// Events within a track are emitted sorted by `ts`: spans are
    /// *recorded* at drop time, so a nested auto span lands before its
    /// enclosing stage span in recording order, and some consumers
    /// require non-decreasing timestamps per tid.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |ev: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&ev);
        };
        for t in &self.tracks {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"rank{} ({})\"}}}}",
                    t.rank,
                    t.rank,
                    json_escape(&t.group)
                ),
                &mut out,
            );
            let mut ordered: Vec<&SpanEvent> = t.spans.iter().collect();
            ordered.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
            for s in ordered {
                let step =
                    if s.step == NO_STEP { String::new() } else { format!(",\"step\":{}", s.step) };
                let bytes =
                    if s.bytes == 0 { String::new() } else { format!(",\"bytes\":{}", s.bytes) };
                push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                         \"ts\":{},\"dur\":{},\"args\":{{\"rank\":{}{}{}}}}}",
                        s.phase.as_str(),
                        if s.phase.is_stage() { "stage" } else { "auto" },
                        t.rank,
                        s.start_us,
                        s.dur_us,
                        t.rank,
                        step,
                        bytes
                    ),
                    &mut out,
                );
            }
        }
        for e in &self.edges {
            push(
                format!(
                    "{{\"name\":\"traffic\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{},\
                     \"ts\":{},\"args\":{{\"src\":{},\"dst\":{},\"class\":\"{}\",\
                     \"messages\":{},\"bytes\":{}}}}}",
                    e.src,
                    self.end_us(),
                    e.src,
                    e.dst,
                    e.class.as_str(),
                    e.messages,
                    e.bytes
                ),
                &mut out,
            );
        }
        for (name, v) in &self.metrics {
            push(
                format!(
                    "{{\"name\":\"metric:{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\
                     \"ts\":{},\"args\":{{\"counter\":{v}}}}}",
                    json_escape(name),
                    self.end_us(),
                ),
                &mut out,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Span CSV: `rank,group,phase,step,start_us,dur_us,bytes` rows.
    pub fn csv(&self) -> String {
        let mut out = String::from("rank,group,phase,step,start_us,dur_us,bytes\n");
        for t in &self.tracks {
            for s in &t.spans {
                let step = if s.step == NO_STEP { String::new() } else { s.step.to_string() };
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    t.rank,
                    t.group,
                    s.phase.as_str(),
                    step,
                    s.start_us,
                    s.dur_us,
                    s.bytes
                ));
            }
        }
        out
    }

    /// Traffic-matrix CSV: `src,dst,class,messages,bytes` rows.
    pub fn traffic_csv(&self) -> String {
        let mut out = String::from("src,dst,class,messages,bytes\n");
        for e in &self.edges {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.src,
                e.dst,
                e.class.as_str(),
                e.messages,
                e.bytes
            ));
        }
        out
    }

    /// Per-rank stage-phase utilization, ordered by rank.
    pub fn utilization(&self) -> Vec<RankUtilization> {
        self.tracks
            .iter()
            .map(|t| {
                let mut stage_seconds = [0.0f64; Phase::STAGES.len()];
                let mut busy = 0.0;
                let mut lo = u64::MAX;
                let mut hi = 0u64;
                for s in t.stage_spans() {
                    let idx = Phase::STAGES.iter().position(|&p| p == s.phase).unwrap();
                    let secs = s.dur_us as f64 / 1e6;
                    stage_seconds[idx] += secs;
                    busy += secs;
                    lo = lo.min(s.start_us);
                    hi = hi.max(s.end_us());
                }
                RankUtilization {
                    rank: t.rank,
                    group: t.group.clone(),
                    stage_seconds,
                    busy_seconds: busy,
                    span_seconds: if hi > lo { (hi - lo) as f64 / 1e6 } else { 0.0 },
                }
            })
            .collect()
    }

    /// Seconds during which *some* rank of `group_a` and *some* rank of
    /// `group_b` were both inside a stage span — e.g. how much input-group
    /// I/O+preprocess time was hidden behind rendering.
    pub fn group_overlap_seconds(&self, group_a: &str, group_b: &str) -> f64 {
        self.phase_overlap_seconds(group_a, &[], group_b, &[])
    }

    /// Like [`TraceData::group_overlap_seconds`] but restricted to the
    /// given stage phases on each side (an empty slice means all stage
    /// phases). The prefetch-overlap measure is
    /// `phase_overlap_seconds("input", &[Read, Preprocess], "render",
    /// &[Render, Composite])`: prefetch work hidden behind rendering.
    pub fn phase_overlap_seconds(
        &self,
        group_a: &str,
        phases_a: &[Phase],
        group_b: &str,
        phases_b: &[Phase],
    ) -> f64 {
        let union = |group: &str, phases: &[Phase]| -> Vec<(u64, u64)> {
            let mut iv: Vec<(u64, u64)> = self
                .tracks
                .iter()
                .filter(|t| t.group == group)
                .flat_map(|t| {
                    t.stage_spans()
                        .filter(|s| phases.is_empty() || phases.contains(&s.phase))
                        .map(|s| (s.start_us, s.end_us()))
                })
                .collect();
            iv.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (lo, hi) in iv {
                match merged.last_mut() {
                    Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
            merged
        };
        let a = union(group_a, phases_a);
        let b = union(group_b, phases_b);
        let mut overlap = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let lo = a[i].0.max(b[j].0);
            let hi = a[i].1.min(b[j].1);
            if hi > lo {
                overlap += hi - lo;
            }
            if a[i].1 < b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        overlap as f64 / 1e6
    }

    /// Total busy seconds of a group's stage spans (interval union, so
    /// concurrent ranks don't double-count wall time).
    pub fn group_busy_seconds(&self, group: &str) -> f64 {
        self.group_overlap_seconds(group, group)
    }

    /// Per-phase exclusive (self) time derived from the span tree —
    /// see [`crate::obs::prof::self_times`].
    pub fn self_times(&self) -> Vec<crate::obs::prof::SelfTime> {
        crate::obs::prof::self_times(self)
    }

    /// ASCII Gantt chart, one row per rank, `width` columns spanning the
    /// trace; each cell shows the phase that dominates its time slice
    /// (see [`Phase::gantt_char`]), `.` for idle.
    pub fn gantt_ascii(&self, width: usize) -> String {
        let (t0, t1) = (self.start_us(), self.end_us());
        if t1 <= t0 || width == 0 {
            return String::new();
        }
        let span = (t1 - t0) as f64;
        let mut out = String::new();
        for t in &self.tracks {
            let mut cells = vec![[0u64; Phase::COUNT]; width];
            for s in t.stage_spans() {
                let c0 = ((s.start_us - t0) as f64 / span * width as f64) as usize;
                let c1 =
                    (((s.end_us() - t0) as f64 / span * width as f64).ceil() as usize).min(width);
                for cell in cells.iter_mut().take(c1.max(c0 + 1).min(width)).skip(c0) {
                    cell[s.phase as usize] += 1;
                }
            }
            let row: String = cells
                .iter()
                .map(|c| {
                    c.iter()
                        .enumerate()
                        .max_by_key(|&(_, n)| *n)
                        .filter(|&(_, n)| *n > 0)
                        .map_or('.', |(i, _)| Phase::ALL[i].gantt_char())
                })
                .collect();
            out.push_str(&format!("rank{:>3} {:<7} |{}|\n", t.rank, t.group, row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Obs, Phase, SpanEvent, NO_STEP};
    use crate::stats::TagClass;

    fn span(phase: Phase, step: u32, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent { phase, step, start_us, dur_us, bytes: 0 }
    }

    fn sample_trace() -> TraceData {
        TraceData {
            tracks: vec![
                RankTrack {
                    rank: 0,
                    group: "input".into(),
                    spans: vec![
                        span(Phase::Read, 0, 0, 400),
                        span(Phase::Preprocess, 0, 400, 100),
                        span(Phase::Send, 0, 500, 100),
                    ],
                },
                RankTrack {
                    rank: 1,
                    group: "render".into(),
                    spans: vec![
                        span(Phase::Receive, 0, 550, 100),
                        span(Phase::Render, 0, 650, 300),
                        span(Phase::Composite, 0, 950, 50),
                    ],
                },
            ],
            edges: vec![TrafficEdge {
                src: 0,
                dst: 1,
                class: TagClass::BlockData,
                messages: 2,
                bytes: 4096,
            }],
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = sample_trace().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"rank0 (input)\""));
        assert!(json.contains("\"name\":\"rank1 (render)\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"traffic\""));
        assert!(json.contains("\"class\":\"block_data\""));
        // every X event carries ts and dur
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
    }

    #[test]
    fn csv_rows_match_spans() {
        let csv = sample_trace().csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0], "rank,group,phase,step,start_us,dur_us,bytes");
        assert_eq!(lines[1], "0,input,read,0,0,400,0");
    }

    #[test]
    fn utilization_and_overlap() {
        let tr = sample_trace();
        let util = tr.utilization();
        assert_eq!(util.len(), 2);
        assert!((util[0].busy_seconds - 600e-6).abs() < 1e-9);
        assert!((util[0].utilization() - 1.0).abs() < 1e-6);
        // input rank busy 0..600, render rank busy 550..1000 → overlap 50µs
        let ov = tr.group_overlap_seconds("input", "render");
        assert!((ov - 50e-6).abs() < 1e-9, "overlap {ov}");
        assert!((tr.group_busy_seconds("render") - 450e-6).abs() < 1e-9);
    }

    #[test]
    fn phase_overlap_filters_each_side() {
        let tr = sample_trace();
        // input send 500..600 vs render receive 550..650 → 50µs
        let ov = tr.phase_overlap_seconds("input", &[Phase::Send], "render", &[Phase::Receive]);
        assert!((ov - 50e-6).abs() < 1e-9, "overlap {ov}");
        // reads (0..400) never overlap rendering (650..950)
        let none = tr.phase_overlap_seconds("input", &[Phase::Read], "render", &[Phase::Render]);
        assert_eq!(none, 0.0);
        // empty filters degrade to the group measure
        let all = tr.phase_overlap_seconds("input", &[], "render", &[]);
        assert!((all - tr.group_overlap_seconds("input", "render")).abs() < 1e-12);
    }

    #[test]
    fn gantt_rows_per_rank() {
        let g = sample_trace().gantt_ascii(40);
        let lines: Vec<&str> = g.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('F'), "input row shows reads: {}", lines[0]);
        assert!(lines[1].contains('R'), "render row shows rendering: {}", lines[1]);
    }

    #[test]
    fn snapshot_roundtrip_from_session() {
        let obs = Obs::new(true);
        {
            let _g = obs.attach(0, "input");
            drop(crate::obs::span(Phase::Read, 1));
            drop(crate::obs::auto_span(Phase::IoRead, NO_STEP));
        }
        let stats = crate::TrafficStats::with_matrix_default(2);
        stats.record_edge(0, 1, 5, 10);
        let data = obs.snapshot(Some(&stats));
        assert_eq!(data.tracks.len(), 1);
        assert_eq!(data.tracks[0].spans.len(), 2);
        assert_eq!(data.edges.len(), 1);
        let json = data.chrome_trace_json();
        assert!(json.contains("io_read"));
    }
}
