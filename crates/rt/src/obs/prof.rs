//! Lightweight self-time profiling on top of the span layer.
//!
//! Two instruments, both cheap enough to leave compiled in:
//!
//! * **Per-phase exclusive time** ([`self_times`]): a span's *inclusive*
//!   duration counts everything that ran while it was open — a `Read`
//!   stage span swallows the `IoRead` auto spans and `Retry` backoffs
//!   nested inside it. For hot-path work the interesting number is the
//!   *exclusive* (self) time: inclusive minus the strictly-nested
//!   children on the same track. This module derives it from the
//!   recorded span tree after the run, no extra runtime cost.
//!
//! * **Tick counters** ([`ticks`]): opt-in counts of hot inner-loop work
//!   (rays cast, volume samples taken, streamline steps, over-operator
//!   blends) published by the raycast/LIC/SLIC kernels. Off by default —
//!   one relaxed atomic load per call site — and enabled with
//!   `QUAKEVIZ_PROF=1` (or [`set_enabled`]). Counts are deterministic
//!   for a fixed config, so `tests/ledger.rs` pins them exactly and a
//!   change in *work done* (e.g. a broken early-ray-termination) is
//!   caught even when wall-clock noise would hide it.
//!
//! ## Nesting caveat
//!
//! Exclusive time assumes spans on one track either nest or are
//! disjoint, which holds for same-thread RAII spans. The prefetch
//! runtime records its worker's `Read`/`Preprocess` spans on the *same
//! track* as the consumer lane, where they may partially overlap
//! `Send`/`SendWait`; partially-overlapping spans are treated as
//! siblings (no subtraction), so self-times on overlapped input tracks
//! are an upper bound for the lanes involved.

use crate::obs::{Phase, SpanEvent, TraceData};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// tick counters
// ---------------------------------------------------------------------

/// 0 = not yet resolved from the environment, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether hot-loop tick profiling is on (`QUAKEVIZ_PROF` set to a
/// non-empty value other than `0`, or [`set_enabled`] called).
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("QUAKEVIZ_PROF").is_ok_and(|v| !v.is_empty() && v != "0");
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        s => s == 2,
    }
}

/// Force tick profiling on or off (overrides the environment; what
/// `PipelineBuilder::profile(true)` calls).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Arc<AtomicU64>>> {
    static REG: OnceLock<Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Handle to one named tick counter. Kernels fetch it once per call
/// (outside the inner loop) and add accumulated local counts at the end,
/// so the loop itself stays atomics-free.
pub fn counter(name: &'static str) -> Arc<AtomicU64> {
    Arc::clone(registry().lock().unwrap().entry(name).or_default())
}

/// Add `n` ticks to `name` when profiling is enabled; a no-op (one
/// relaxed load) otherwise.
#[inline]
pub fn ticks(name: &'static str, n: u64) {
    if enabled() && n > 0 {
        counter(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Snapshot of every nonzero tick counter, sorted by name.
pub fn snapshot() -> Vec<(String, u64)> {
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(name, c)| {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                Some((name.to_string(), n))
            } else {
                None
            }
        })
        .collect()
}

/// Zero every tick counter (between bench cases).
pub fn reset() {
    for c in registry().lock().unwrap().values() {
        c.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// span-tree self time
// ---------------------------------------------------------------------

/// Exclusive-time samples for one phase, pooled across all tracks.
#[derive(Debug, Clone)]
pub struct SelfTime {
    pub phase: Phase,
    /// One exclusive duration (µs) per recorded span of this phase.
    pub samples_us: Vec<u64>,
}

/// Exact sample percentile of a **sorted** slice (nearest-rank).
pub fn pct_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

impl SelfTime {
    pub fn count(&self) -> usize {
        self.samples_us.len()
    }

    pub fn total_us(&self) -> u64 {
        self.samples_us.iter().sum()
    }

    pub fn median_us(&self) -> u64 {
        self.pct(0.5)
    }

    pub fn p95_us(&self) -> u64 {
        self.pct(0.95)
    }

    /// Exact nearest-rank percentile over the recorded spans.
    pub fn pct(&self, q: f64) -> u64 {
        let mut v = self.samples_us.clone();
        v.sort_unstable();
        pct_sorted(&v, q)
    }
}

/// Compute each span's exclusive time on one track: inclusive duration
/// minus the durations of its strictly-nested children. Returns
/// `(phase, exclusive_us)` per span.
fn track_self_times(spans: &[SpanEvent]) -> Vec<(Phase, u64)> {
    let mut ordered: Vec<&SpanEvent> = spans.iter().collect();
    // parents sort before their children: earlier start first, longer
    // span first on ties
    ordered.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
    // (index into `out`, end_us) of the currently-open ancestors
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let mut out: Vec<(Phase, u64)> = Vec::with_capacity(spans.len());
    for s in ordered {
        while stack.last().is_some_and(|&(_, end)| end <= s.start_us) {
            stack.pop();
        }
        if let Some(&(parent, end)) = stack.last() {
            if s.end_us() <= end {
                // strictly nested: charge the child's whole duration to
                // itself, not the parent
                out[parent].1 = out[parent].1.saturating_sub(s.dur_us);
            }
            // else: partial overlap (cross-thread shared track) — treat
            // as a sibling, no subtraction either way
        }
        out.push((s.phase, s.dur_us));
        stack.push((out.len() - 1, s.end_us()));
    }
    out
}

/// Per-phase exclusive (self) time across every track of `data`, sorted
/// by total self time, largest first. Phases with no spans are omitted.
pub fn self_times(data: &TraceData) -> Vec<SelfTime> {
    let mut by_phase: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for t in &data.tracks {
        for (phase, excl) in track_self_times(&t.spans) {
            by_phase.entry(phase as usize).or_default().push(excl);
        }
    }
    let mut out: Vec<SelfTime> = by_phase
        .into_iter()
        .map(|(idx, samples_us)| SelfTime { phase: Phase::ALL[idx], samples_us })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.total_us()));
    out
}

/// The "top self-time" table: one row per phase, largest total first.
pub fn top_table(times: &[SelfTime], limit: usize) -> String {
    let mut out = String::from("phase            total_s   count  median_us     p95_us\n");
    for st in times.iter().take(limit) {
        out.push_str(&format!(
            "{:<15} {:>8.3} {:>7} {:>10} {:>10}\n",
            st.phase.as_str(),
            st.total_us() as f64 / 1e6,
            st.count(),
            st.median_us(),
            st.p95_us(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{RankTrack, NO_STEP};

    fn ev(phase: Phase, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent { phase, step: NO_STEP, start_us, dur_us, bytes: 0 }
    }

    #[test]
    fn nested_children_subtract_from_parent() {
        // Read [0,1000) with IoRead [100,400) and Retry [500,600) inside
        let spans =
            vec![ev(Phase::IoRead, 100, 300), ev(Phase::Retry, 500, 100), ev(Phase::Read, 0, 1000)];
        let st = track_self_times(&spans);
        let read = st.iter().find(|(p, _)| *p == Phase::Read).unwrap();
        assert_eq!(read.1, 600, "read self = 1000 - 300 - 100");
        let io = st.iter().find(|(p, _)| *p == Phase::IoRead).unwrap();
        assert_eq!(io.1, 300, "leaf keeps its full duration");
    }

    #[test]
    fn grandchildren_charge_their_parent_not_the_root() {
        // Read [0,1000) > IoRead [0,800) > Retry [100,200)
        let spans =
            vec![ev(Phase::Read, 0, 1000), ev(Phase::IoRead, 0, 800), ev(Phase::Retry, 100, 100)];
        let st = track_self_times(&spans);
        assert_eq!(st.iter().find(|(p, _)| *p == Phase::Read).unwrap().1, 200);
        assert_eq!(st.iter().find(|(p, _)| *p == Phase::IoRead).unwrap().1, 700);
        assert_eq!(st.iter().find(|(p, _)| *p == Phase::Retry).unwrap().1, 100);
    }

    #[test]
    fn partial_overlap_is_not_subtracted() {
        // two-lane track: Send [0,500) overlapped by Read [300,900)
        let spans = vec![ev(Phase::Send, 0, 500), ev(Phase::Read, 300, 600)];
        let st = track_self_times(&spans);
        assert_eq!(st.iter().find(|(p, _)| *p == Phase::Send).unwrap().1, 500);
        assert_eq!(st.iter().find(|(p, _)| *p == Phase::Read).unwrap().1, 600);
    }

    #[test]
    fn disjoint_spans_keep_full_duration() {
        let spans = vec![ev(Phase::Render, 0, 100), ev(Phase::Composite, 100, 50)];
        let st = track_self_times(&spans);
        assert_eq!(st[0].1, 100);
        assert_eq!(st[1].1, 50);
    }

    #[test]
    fn self_times_pools_across_tracks_and_sorts() {
        let data = TraceData {
            tracks: vec![
                RankTrack {
                    rank: 0,
                    group: "input".into(),
                    spans: vec![ev(Phase::Read, 0, 1000), ev(Phase::IoRead, 0, 900)],
                },
                RankTrack {
                    rank: 1,
                    group: "render".into(),
                    spans: vec![ev(Phase::Render, 0, 400)],
                },
            ],
            ..TraceData::default()
        };
        let st = self_times(&data);
        assert_eq!(st[0].phase, Phase::IoRead, "largest total first: {st:?}");
        let read = st.iter().find(|s| s.phase == Phase::Read).unwrap();
        assert_eq!(read.samples_us, vec![100]);
        assert_eq!(read.median_us(), 100);
        let table = top_table(&st, 10);
        assert!(table.contains("io_read"));
        assert!(table.contains("render"));
    }

    // one test owns the global enable flag: parallel tests toggling it
    // would race
    #[test]
    fn ticks_and_counters() {
        set_enabled(false);
        ticks("prof.test.gated", 5);
        assert!(!snapshot().iter().any(|(n, _)| n == "prof.test.gated"));
        set_enabled(true);
        ticks("prof.test.gated", 5);
        ticks("prof.test.gated", 2);
        let snap = snapshot();
        let got = snap.iter().find(|(n, _)| n == "prof.test.gated").unwrap();
        assert_eq!(got.1, 7);
        let c = counter("prof.test.handle");
        c.fetch_add(10, Ordering::Relaxed);
        c.fetch_add(32, Ordering::Relaxed);
        assert_eq!(counter("prof.test.handle").load(Ordering::Relaxed), 42);
        set_enabled(false);
    }

    #[test]
    fn pct_sorted_nearest_rank() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(pct_sorted(&v, 0.5), 50);
        assert_eq!(pct_sorted(&v, 0.95), 100);
        assert_eq!(pct_sorted(&v, 0.0), 10);
        assert_eq!(pct_sorted(&[], 0.5), 0);
    }
}
