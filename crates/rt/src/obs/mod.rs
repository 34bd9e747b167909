//! Observability: per-rank phase span recording and trace export.
//!
//! The paper's §3 claims are about *where time goes* in the
//! input→render→output pipeline, so the runtime records it first-class:
//! each rank thread owns a [`RankRecorder`] it alone appends to (no
//! cross-rank locking on the hot path — the per-recorder mutex is only
//! ever contended when the main thread snapshots after the rank threads
//! have joined), and spans are RAII guards stamped against one shared
//! session epoch so tracks from different ranks line up on a common
//! timeline.
//!
//! Two kinds of spans:
//!
//! * **stage spans** ([`span`]) — the pipeline's own phases (read,
//!   preprocess, render, composite…). Recorded whenever a recorder is
//!   attached; these *derive* the pipeline's timing reports.
//! * **auto spans** ([`auto_span`]) — instrumentation inside the runtime
//!   and libraries (blocking receives, barriers, MPI-IO reads, SLIC
//!   rounds). Recorded only when the session was created with
//!   `detail = true` (`PipelineConfig::trace` / `QUAKEVIZ_TRACE`), so the
//!   default path stays a cheap no-op: one relaxed atomic load when no
//!   session is attached at all.
//!
//! Nothing here counts while a run is in progress: a run's metrics are
//! [`TraceData::metrics`], one table of `(name, value)` rows the pipeline
//! builds once, after the ranks have joined, from the counters it already
//! holds. [`prof`]'s process-wide kernel work ticks are the exception.

pub mod prof;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use trace::{RankTrack, TraceData};

enum_table! {
    /// Pipeline phase of a recorded span. Each row: the name spans are
    /// exported under, the ASCII Gantt glyph, and whether the phase is a
    /// stage — recorded by the pipeline itself, disjoint within a rank
    /// thread (the prefetch runtime's worker thread records its
    /// Read/Preprocess spans on the same rank *track*, where they overlap
    /// the consumer's Send/SendWait spans by design) — or a runtime auto
    /// phase, which may nest inside them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Phase {
        /// Input processor: fetch a step from the parallel file system (`Tf`).
        Read => "read", 'F', true;
        /// Input processor: magnitude/quantize/enhance (`Tp`).
        Preprocess => "preprocess", 'P', true;
        /// Input processor: LIC texture synthesis (part of `Tp`).
        Lic => "lic", 'L', true;
        /// Input processor: distribute block data to renderers (`Ts`).
        Send => "send", 'S', true;
        /// Input processor: backpressure wait on in-flight prefetch sends
        /// (exposed, un-hidden send time of the overlapped runtime).
        SendWait => "send_wait", 'W', true;
        /// Rendering processor: wait for + ingest block data.
        Receive => "receive", 'w', true;
        /// Rendering processor: ray-cast local blocks (`Tr` part 1).
        Render => "render", 'R', true;
        /// Rendering processor: SLIC compositing (`Tr` part 2).
        Composite => "composite", 'C', true;
        /// Output processor: assemble/overlay/deliver one frame.
        Assemble => "assemble", 'A', true;
        /// Input processor: liveness exchange within a 2DIP group before a
        /// step (failure detection for input-rank failover).
        Heartbeat => "heartbeat", 'H', true;
        /// Runtime: barrier wait.
        Barrier => "barrier", 'b', false;
        /// Runtime: blocking receive.
        CommRecv => "comm_recv", 'r', false;
        /// MPI-IO layer: a disk read on the calling rank.
        IoRead => "io_read", 'i', false;
        /// One communication phase inside a compositing algorithm.
        CompositeRound => "composite_round", 'c', false;
        /// Retry backoff after a failed/corrupt read (nests inside [`Phase::Read`],
        /// so it is an auto phase, not a stage).
        Retry => "retry", 'B', false;
        /// Checkpoint write/collect at a checkpoint boundary (render field
        /// snapshots, output manifest).
        Checkpoint => "checkpoint", 'K', true;
        /// Elastic control-plane tick: plan decision on the controller,
        /// propose/ack/commit exchange and plan application on every
        /// participant.
        Control => "control", 'X', true;
        /// Wire-codec compression of an outgoing payload (nests inside
        /// [`Phase::Send`]/[`Phase::Lic`], so it is an auto phase, not a stage).
        Encode => "encode", 'e', false;
        /// Wire-codec decompression of an incoming payload (nests inside
        /// [`Phase::Receive`]/[`Phase::Assemble`]; auto phase).
        Decode => "decode", 'd', false;
        /// Uncategorized.
        Other => "other", '?', false;
    }
}

/// `step` value for spans not tied to a time step.
pub const NO_STEP: u32 = u32::MAX;

/// One recorded span on one rank's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub phase: Phase,
    /// Time step / frame the span belongs to, or [`NO_STEP`].
    pub step: u32,
    /// Microseconds since the session epoch.
    pub start_us: u64,
    pub dur_us: u64,
    /// Payload bytes attributed to the span (0 when not applicable).
    pub bytes: u64,
}

impl SpanEvent {
    #[inline]
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Span storage for one rank. Only the owning rank thread appends; the
/// mutex is uncontended until the session snapshots after the run.
pub struct RankRecorder {
    rank: usize,
    group: Mutex<String>,
    spans: Mutex<Vec<SpanEvent>>,
}

impl RankRecorder {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Processor-group label ("input" / "render" / "output" / …).
    pub fn group(&self) -> String {
        self.group.lock().unwrap().clone()
    }

    #[inline]
    fn push(&self, ev: SpanEvent) {
        self.spans.lock().unwrap().push(ev);
    }

    /// Snapshot of the recorded spans, in recording order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.spans.lock().unwrap().clone()
    }
}

/// One observability session: the epoch and the per-rank recorders.
/// Created per pipeline run (or per test world).
pub struct Obs {
    detail: bool,
    epoch: Instant,
    ranks: Mutex<Vec<Arc<RankRecorder>>>,
}

/// Count of attached recorders across all sessions — the global fast
/// gate for library call sites.
static ATTACHED: AtomicUsize = AtomicUsize::new(0);

struct Tls {
    rec: Arc<RankRecorder>,
    epoch: Instant,
    detail: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

impl Obs {
    /// New session. `detail` turns on auto spans (runtime receive /
    /// barrier / I/O / compositing instrumentation); stage spans are
    /// always recorded on attached threads.
    pub fn new(detail: bool) -> Arc<Obs> {
        Arc::new(Obs { detail, epoch: Instant::now(), ranks: Mutex::new(Vec::new()) })
    }

    /// Whether `QUAKEVIZ_TRACE` asks for detailed tracing (any non-empty
    /// value other than `0`).
    pub fn detail_from_env() -> bool {
        std::env::var("QUAKEVIZ_TRACE").is_ok_and(|v| !v.is_empty() && v != "0")
    }

    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Register this thread as `rank` of group `group`. Returns a guard;
    /// recording stops (and the recorder stays readable in the session)
    /// when it drops.
    #[must_use]
    pub fn attach(self: &Arc<Obs>, rank: usize, group: &str) -> AttachGuard {
        let rec = Arc::new(RankRecorder {
            rank,
            group: Mutex::new(group.to_string()),
            spans: Mutex::new(Vec::new()),
        });
        self.ranks.lock().unwrap().push(Arc::clone(&rec));
        let prev = CURRENT
            .with(|c| c.borrow_mut().replace(Tls { rec, epoch: self.epoch, detail: self.detail }));
        ATTACHED.fetch_add(1, Ordering::Relaxed);
        AttachGuard { prev: Some(prev) }
    }

    /// All recorders attached so far, in attach order.
    pub fn recorders(&self) -> Vec<Arc<RankRecorder>> {
        self.ranks.lock().unwrap().clone()
    }

    /// Collect everything recorded so far into an exportable
    /// [`TraceData`], merging in the traffic matrix of `stats` when
    /// given. Tracks are ordered by rank; the metrics table is left empty
    /// for the caller to fill once its run has ended.
    pub fn snapshot(&self, stats: Option<&crate::TrafficStats>) -> TraceData {
        let mut tracks: Vec<RankTrack> = self
            .recorders()
            .iter()
            .map(|r| RankTrack { rank: r.rank(), group: r.group(), spans: r.events() })
            .collect();
        tracks.sort_by_key(|t| t.rank);
        TraceData {
            tracks,
            edges: stats.map_or_else(Vec::new, |s| s.edges()),
            metrics: BTreeMap::new(),
        }
    }
}

/// Guard returned by [`Obs::attach`]; restores the thread's previous
/// recorder (if any) on drop.
pub struct AttachGuard {
    prev: Option<Option<Tls>>,
}

/// A sendable handle to an existing rank attachment, for helper threads
/// that must record onto the *same* rank track (the prefetch runtime's
/// per-rank worker). Unlike [`Obs::attach`] this does not create a new
/// recorder, so the rank keeps a single track in the trace.
#[derive(Clone)]
pub struct AttachHandle {
    rec: Arc<RankRecorder>,
    epoch: Instant,
    detail: bool,
}

impl AttachHandle {
    /// Attach the calling thread to the shared track; recording on this
    /// thread stops when the guard drops.
    #[must_use]
    pub fn attach(&self) -> AttachGuard {
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(Tls {
                rec: Arc::clone(&self.rec),
                epoch: self.epoch,
                detail: self.detail,
            })
        });
        ATTACHED.fetch_add(1, Ordering::Relaxed);
        AttachGuard { prev: Some(prev) }
    }
}

/// Handle to the current thread's attachment (`None` when not attached).
/// Send it to a helper thread and call [`AttachHandle::attach`] there.
pub fn current_attachment() -> Option<AttachHandle> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|t| AttachHandle {
            rec: Arc::clone(&t.rec),
            epoch: t.epoch,
            detail: t.detail,
        })
    })
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
            ATTACHED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

struct SpanInner {
    rec: Arc<RankRecorder>,
    phase: Phase,
    step: u32,
    start: Instant,
    start_us: u64,
    bytes: u64,
}

/// RAII span: records a [`SpanEvent`] on the current rank's track when
/// dropped. Inactive (free) when the thread has no recorder attached.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    const NOOP: SpanGuard = SpanGuard { inner: None };

    /// Attribute payload bytes to the span.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(i) = &mut self.inner {
            i.bytes += n;
        }
    }

    /// Whether the span is actually recording.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            i.rec.push(SpanEvent {
                phase: i.phase,
                step: i.step,
                start_us: i.start_us,
                dur_us: i.start.elapsed().as_micros() as u64,
                bytes: i.bytes,
            });
        }
    }
}

#[inline]
fn open_span(phase: Phase, step: u32, auto: bool) -> SpanGuard {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return SpanGuard::NOOP;
    }
    CURRENT.with(|c| {
        let cur = c.borrow();
        match cur.as_ref() {
            Some(tls) if !auto || tls.detail => {
                let start = Instant::now();
                SpanGuard {
                    inner: Some(SpanInner {
                        rec: Arc::clone(&tls.rec),
                        phase,
                        step,
                        start,
                        // from the same clock read as `start`, so that
                        // ⌊start⌋ + ⌊dur⌋ never passes the next span's start
                        start_us: start.duration_since(tls.epoch).as_micros() as u64,
                        bytes: 0,
                    }),
                }
            }
            _ => SpanGuard::NOOP,
        }
    })
}

/// Open a pipeline stage span (recorded whenever attached).
#[inline]
pub fn span(phase: Phase, step: u32) -> SpanGuard {
    open_span(phase, step, false)
}

/// Open a runtime/library auto span (recorded only in detail sessions).
#[inline]
pub fn auto_span(phase: Phase, step: u32) -> SpanGuard {
    open_span(phase, step, true)
}

/// Whether this thread records auto spans (to skip argument computation
/// at instrumented call sites).
#[inline]
pub fn detail_active() -> bool {
    ATTACHED.load(Ordering::Relaxed) != 0
        && CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.detail))
}

/// Snapshot of the current thread's recorded spans (empty when not
/// attached). The pipeline uses this to derive its per-stage timing
/// structs from the spans it recorded.
pub fn current_events() -> Vec<SpanEvent> {
    if ATTACHED.load(Ordering::Relaxed) == 0 {
        return Vec::new();
    }
    CURRENT.with(|c| c.borrow().as_ref().map_or_else(Vec::new, |t| t.rec.events()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattached_span_records_nothing() {
        let sp = span(Phase::Render, 0);
        assert!(!sp.is_active());
        drop(sp);
        assert!(current_events().is_empty());
    }

    #[test]
    fn attached_stage_span_recorded() {
        let obs = Obs::new(false);
        {
            let _g = obs.attach(3, "render");
            let mut sp = span(Phase::Render, 7);
            assert!(sp.is_active());
            sp.add_bytes(128);
            drop(sp);
            // auto spans off in non-detail sessions
            let auto = auto_span(Phase::CommRecv, NO_STEP);
            assert!(!auto.is_active());
        }
        let recs = obs.recorders();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rank(), 3);
        assert_eq!(recs[0].group(), "render");
        let evs = recs[0].events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].phase, Phase::Render);
        assert_eq!(evs[0].step, 7);
        assert_eq!(evs[0].bytes, 128);
    }

    #[test]
    fn detail_session_records_auto_spans() {
        let obs = Obs::new(true);
        {
            let _g = obs.attach(0, "input");
            assert!(detail_active());
            let sp = auto_span(Phase::IoRead, 2);
            assert!(sp.is_active());
        }
        assert_eq!(obs.recorders()[0].events().len(), 1);
    }

    #[test]
    fn spans_are_timed_against_shared_epoch() {
        let obs = Obs::new(false);
        let _g = obs.attach(0, "x");
        {
            let _sp = span(Phase::Read, 0);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(span(Phase::Send, 0));
        let evs = current_events();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].dur_us >= 4000, "sleep span too short: {:?}", evs[0]);
        assert!(evs[1].start_us >= evs[0].end_us());
    }

    #[test]
    fn multithreaded_recorders_lose_nothing() {
        // 8 "ranks", each recording 500 spans concurrently
        let obs = Obs::new(true);
        std::thread::scope(|s| {
            for rank in 0..8 {
                let obs = Arc::clone(&obs);
                s.spawn(move || {
                    let _g = obs.attach(rank, if rank < 4 { "input" } else { "render" });
                    for i in 0..500u32 {
                        let mut sp = span(Phase::ALL[(i as usize) % Phase::COUNT], i);
                        sp.add_bytes(1);
                    }
                });
            }
        });
        let data = obs.snapshot(None);
        assert_eq!(data.tracks.len(), 8);
        for t in &data.tracks {
            assert_eq!(t.spans.len(), 500, "rank {} lost events", t.rank);
            assert_eq!(t.spans.iter().map(|s| s.bytes).sum::<u64>(), 500);
        }
    }

    #[test]
    fn attach_handle_shares_one_track_across_threads() {
        let obs = Obs::new(true);
        {
            let _g = obs.attach(2, "input");
            let handle = current_attachment().expect("attached");
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _wg = handle.attach();
                    assert!(detail_active());
                    drop(span(Phase::Read, 5));
                });
            });
            drop(span(Phase::Send, 5));
        }
        // both spans on the single rank-2 track, no extra recorder
        let recs = obs.recorders();
        assert_eq!(recs.len(), 1);
        let phases: Vec<Phase> = recs[0].events().iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::Read, Phase::Send]);
    }

    #[test]
    fn current_attachment_none_when_detached() {
        assert!(current_attachment().is_none());
    }

    #[test]
    fn attach_guard_restores_previous() {
        let outer = Obs::new(false);
        let inner = Obs::new(false);
        let _a = outer.attach(0, "outer");
        {
            let _b = inner.attach(1, "inner");
            drop(span(Phase::Other, 0));
        }
        drop(span(Phase::Read, 0));
        assert_eq!(inner.recorders()[0].events().len(), 1);
        let outer_evs = outer.recorders()[0].events();
        assert_eq!(outer_evs.len(), 1);
        assert_eq!(outer_evs[0].phase, Phase::Read);
    }
}
