//! Deterministic fault injection for the pipeline's robustness layer.
//!
//! A terascale run will see slow stripes, transient read errors, corrupted
//! payloads and stalled ranks; the pipeline must degrade instead of crash.
//! To *test* that machinery reproducibly, faults are injected from a
//! seeded, replayable [`FaultPlan`]: every decision is a pure function of
//! `(seed, site, attempt)` hashed through [`SplitMix64`], never of wall
//! clock or thread interleaving — two runs with the same spec inject the
//! same faults at the same sites and therefore produce the same frames.
//!
//! The spec is a compact `key=value` string ([`FaultSpec::parse`]), given
//! to a run by `PipelineBuilder::faults` or `pipeline-report --faults`:
//!
//! ```text
//! seed=42,read_transient=0.05,read_corrupt=0.02,read_slow=0.05,slow_factor=4,
//! send_drop=0.02,send_delay=0.05,delay_ms=10,wire_corrupt=0.01,fail_rank=1@2
//! ```
//!
//! Rank death need not be permanent: `recover_rank=R@S` is the dual of
//! `fail_rank` — the dead rank rejoins the run at step `S`. Repeated
//! `fail_rank`/`recover_rank` clauses for one rank form a *membership
//! timeline* (alternating fail/recover at strictly increasing steps), and
//! a `recover_rank` with no preceding `fail_rank` scripts a spare-pool
//! join: a rank that never held state announces itself at `S`.
//!
//! Injection happens at two layers: the virtual parallel file system
//! (`quakeviz-parfs`) consults [`FaultPlan::read_fault`] per read attempt,
//! and the communication runtime ([`crate::Comm`]) consults
//! [`FaultPlan::send_fault`] on lossy sends. The plan also keeps the
//! injected-fault log and the recovery counters (retries, backoff time,
//! degraded blocks, failover events) that `pipeline-report` surfaces.
//!
//! What a membership timeline *means* step by step is not decided here:
//! the spec carries the parsed, normalized events, and the pipeline's
//! membership schedule (`quakeviz-core`) is their one reader.

use crate::fnv::Fnv1a;
use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Parsed fault-injection specification. All probabilities are per-event
/// (per read attempt, per lossy send) in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Probability a read attempt fails with a transient I/O error.
    pub read_transient: f64,
    /// Probability a read attempt returns a corrupted stripe (detected by
    /// the file system's stripe checksum, surfaced as a retryable error).
    pub read_corrupt: f64,
    /// Probability a read is slowed by `slow_factor`.
    pub read_slow: f64,
    /// Simulated-time multiplier for slow reads (≥ 1).
    pub slow_factor: f64,
    /// Probability a lossy send is dropped on the wire.
    pub send_drop: f64,
    /// Probability a lossy send is delayed by `delay_ms`.
    pub send_delay: f64,
    /// Fixed sender-side delay for delayed sends, milliseconds.
    pub delay_ms: u64,
    /// Probability a lossy send's payload is corrupted in flight (one bit
    /// flip, caught by the receiver's per-piece checksum).
    pub wire_corrupt: f64,
    /// The scripted membership timeline of the run's single fail/recover
    /// target rank, sorted by step: alternating [`MembershipEvent::Fail`]
    /// (the rank stops participating and its group reassigns its work to
    /// survivors — for good, unless a recovery follows) and
    /// [`MembershipEvent::Recover`] entries at strictly increasing steps.
    /// Empty when no membership fault is scripted.
    pub rank_timeline: Vec<MembershipEvent>,
    /// Step at which the elastic controller (hosted on the output rank)
    /// permanently stops issuing rebalance plans. The schedule is shared
    /// state, so every rank mirrors the kill deterministically: control
    /// ticks at or after this step happen nowhere, and the pipeline keeps
    /// running on its last committed epoch with unchanged cadence.
    pub fail_controller: Option<usize>,
    /// `(rank, factor)`: world `rank` renders `factor`× slower (factor
    /// ≥ 1) — the deterministic load-skew knob the elastic controller is
    /// tested against. Only the render phase is inflated, so the skew is
    /// visible exactly where the controller measures.
    pub slow_rank: Option<(usize, f64)>,
    /// Step at which every input rank's read-ahead worker thread dies
    /// (scripted). The rank thread finds the queue closed and prepares
    /// the remaining steps inline, counted per step as
    /// `recovery.prefetch_fallbacks`; a no-op without prefetch.
    pub fail_prefetch: Option<usize>,
}

/// Parse a `rank@step` value for `key`.
fn rank_at_step(key: &str, value: &str) -> Result<(usize, usize), String> {
    let (r, t) = value
        .split_once('@')
        .ok_or_else(|| format!("fault spec {key}: want rank@step, got {value:?}"))?;
    let rank = r.parse().map_err(|_| format!("fault spec {key}: bad rank {r:?}"))?;
    let step = t.parse().map_err(|_| format!("fault spec {key}: bad step {t:?}"))?;
    Ok((rank, step))
}

/// One scripted membership event: the target rank leaves or rejoins the
/// run at a step boundary. Parsed from `fail_rank=R@S` / `recover_rank=R@S`
/// clauses; see [`FaultSpec::rank_timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Rank `rank` goes silent from step `step` on.
    Fail { rank: usize, step: usize },
    /// Rank `rank` rejoins at step `step` (a spare-pool join when no
    /// `Fail` precedes it).
    Recover { rank: usize, step: usize },
}

impl MembershipEvent {
    pub fn rank(self) -> usize {
        match self {
            MembershipEvent::Fail { rank, .. } | MembershipEvent::Recover { rank, .. } => rank,
        }
    }

    pub fn step(self) -> usize {
        match self {
            MembershipEvent::Fail { step, .. } | MembershipEvent::Recover { step, .. } => step,
        }
    }
}

impl FaultSpec {
    /// Parse a `key=value,key=value` spec string. An empty string is the
    /// all-zero (fault-free) spec.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec { slow_factor: 1.0, ..FaultSpec::default() };
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {part:?} is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 =
                    v.parse().map_err(|_| format!("fault spec {key}: bad number {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault spec {key}: probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    spec.seed =
                        value.parse().map_err(|_| format!("fault spec seed: bad u64 {value:?}"))?
                }
                "read_transient" => spec.read_transient = prob(value)?,
                "read_corrupt" => spec.read_corrupt = prob(value)?,
                "read_slow" => spec.read_slow = prob(value)?,
                "slow_factor" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("fault spec slow_factor: bad number {value:?}"))?;
                    if f < 1.0 {
                        return Err(format!("fault spec slow_factor: {f} must be ≥ 1"));
                    }
                    spec.slow_factor = f;
                }
                "send_drop" => spec.send_drop = prob(value)?,
                "send_delay" => spec.send_delay = prob(value)?,
                "delay_ms" => {
                    spec.delay_ms = value
                        .parse()
                        .map_err(|_| format!("fault spec delay_ms: bad u64 {value:?}"))?
                }
                "wire_corrupt" => spec.wire_corrupt = prob(value)?,
                "fail_rank" => {
                    let (rank, step) = rank_at_step("fail_rank", value)?;
                    spec.rank_timeline.push(MembershipEvent::Fail { rank, step });
                }
                "recover_rank" => {
                    let (rank, step) = rank_at_step("recover_rank", value)?;
                    spec.rank_timeline.push(MembershipEvent::Recover { rank, step });
                }
                "fail_controller" => {
                    let step = value
                        .parse()
                        .map_err(|_| format!("fault spec fail_controller: bad step {value:?}"))?;
                    spec.fail_controller = Some(step);
                }
                "slow_rank" => {
                    let (r, f) = value.split_once('@').ok_or_else(|| {
                        format!("fault spec slow_rank: want rank@factor, got {value:?}")
                    })?;
                    let rank =
                        r.parse().map_err(|_| format!("fault spec slow_rank: bad rank {r:?}"))?;
                    let factor: f64 =
                        f.parse().map_err(|_| format!("fault spec slow_rank: bad factor {f:?}"))?;
                    if factor < 1.0 {
                        return Err(format!("fault spec slow_rank: factor {factor} must be ≥ 1"));
                    }
                    spec.slow_rank = Some((rank, factor));
                }
                "fail_prefetch" => {
                    let step = value
                        .parse()
                        .map_err(|_| format!("fault spec fail_prefetch: bad step {value:?}"))?;
                    spec.fail_prefetch = Some(step);
                }
                _ => return Err(format!("fault spec: unknown key {key:?}")),
            }
        }
        spec.finish_timeline()?;
        Ok(spec)
    }

    /// Sort and validate the membership timeline: one target rank,
    /// strictly increasing steps, alternating fail/recover (a leading
    /// recover is a spare-pool join).
    fn finish_timeline(&mut self) -> Result<(), String> {
        self.rank_timeline.sort_by_key(|e| e.step());
        for pair in self.rank_timeline.windows(2) {
            let (prev, ev) = (pair[0], pair[1]);
            let (target, step) = (prev.rank(), ev.step());
            if ev.rank() != target {
                return Err(format!(
                    "fault spec: fail_rank/recover_rank timeline supports a single target \
                     rank (got ranks {target} and {})",
                    ev.rank()
                ));
            }
            if step <= prev.step() {
                return Err(format!(
                    "fault spec: membership events of rank {target} must have strictly \
                     increasing steps (step {step} repeats or regresses)"
                ));
            }
            match (prev, ev) {
                (MembershipEvent::Fail { .. }, MembershipEvent::Fail { .. }) => {
                    return Err(format!(
                        "fault spec: fail_rank={target}@{step} but the rank is already \
                         dead — insert a recover_rank first"
                    ));
                }
                (MembershipEvent::Recover { .. }, MembershipEvent::Recover { .. }) => {
                    return Err(format!(
                        "fault spec: recover_rank={target}@{step} but the rank is already alive"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether a plan built from this spec can ever fire: some probability
    /// is positive or some event is scripted. The empty spec cannot — the
    /// plan every run without a spec carries — and neither can a bare
    /// `seed=…`. Receivers arm their delivery deadline, and a send to an
    /// exited rank is survivable, exactly when this holds.
    pub fn can_inject(&self) -> bool {
        let rolls = [
            self.read_transient,
            self.read_corrupt,
            self.read_slow,
            self.send_drop,
            self.send_delay,
            self.wire_corrupt,
        ];
        rolls.iter().any(|&p| p > 0.0)
            || !self.rank_timeline.is_empty()
            || self.fail_controller.is_some()
            || self.slow_rank.is_some()
            || self.fail_prefetch.is_some()
    }
}

enum_table! {
    /// Kinds of injected faults, for the log and the per-kind counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum FaultKind {
        ReadTransient => "read_transient";
        ReadCorrupt => "read_corrupt";
        ReadSlow => "read_slow";
        SendDrop => "send_drop";
        SendDelay => "send_delay";
        WireCorrupt => "wire_corrupt";
        RankFail => "rank_fail";
    }
}

/// One injected fault, as recorded in the replayable log. Log *order*
/// depends on thread interleaving; the set does not — compare sorted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    pub kind: FaultKind,
    /// Human-readable site, e.g. `read steps/0003.bin@0+12000` or
    /// `send 0->3 tag 35184372088835`.
    pub site: String,
    /// Read attempt number the fault hit (0 for send faults).
    pub attempt: u32,
}

/// Outcome of a read-fault roll for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadFault {
    /// The attempt fails with a transient I/O error (retryable).
    Transient,
    /// The attempt returns a corrupted stripe; the file system's stripe
    /// checksum catches it and the read fails (retryable).
    Corrupt,
    /// The attempt succeeds but simulated disk time is multiplied.
    Slow { factor: f64 },
}

/// Outcome of a send-fault roll for one lossy send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// The message never arrives (the local send still completes, as a
    /// network-dropped MPI send would).
    Drop,
    /// The message is held back for the given duration before delivery.
    Delay(Duration),
}

/// Declares the recovery counters once: the public [`RecoveryStats`]
/// snapshot, the metric name each is published under, and the atomics the
/// live [`FaultPlan`] accumulates them in.
macro_rules! recovery_counters {
    ($($(#[$doc:meta])* $field:ident => $metric:literal,)*) => {
        /// Recovery-action counters accumulated during a faulted run.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct RecoveryStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl RecoveryStats {
            /// Every counter with the metric name it is published under.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($metric, self.$field)),*].into_iter()
            }
        }

        #[derive(Default)]
        struct RecoveryCounters {
            $($field: AtomicU64,)*
        }

        impl RecoveryCounters {
            fn snapshot(&self) -> RecoveryStats {
                RecoveryStats { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }
    };
}

recovery_counters! {
    /// Read attempts retried after a transient/corrupt fault.
    read_retries => "recovery.retries",
    /// Total backoff sleep, microseconds.
    backoff_us => "recovery.backoff_us",
    /// Reads that exhausted their retry budget.
    exhausted_reads => "recovery.exhausted_reads",
    /// Wire checksum mismatches detected on receive.
    checksum_failures => "recovery.checksum_failures",
    /// Pieces whose checksum verified but whose contents were unusable
    /// (undecodable codec body, or a temporal-delta base the receiver no
    /// longer holds after an upstream fault); dropped and degraded over.
    wire_rejects => "recovery.wire_rejects",
    /// Blocks rendered degraded (coarser level / stale data), summed over
    /// frames.
    degraded_blocks => "recovery.degraded_blocks",
    /// Frames flagged degraded.
    degraded_frames => "recovery.degraded_frames",
    /// Group members declared dead and failed over.
    failover_events => "recovery.failover_events",
    /// Render ranks declared dead by a surviving render peer (one count
    /// per surviving detector, like [`RecoveryStats::failover_events`]).
    render_failovers => "recovery.render_failovers",
    /// Output-rank deaths detected by the supervising render rank.
    output_failovers => "recovery.output_failovers",
    /// Frames assembled by the failover supervisor after the output rank
    /// died (shipped flagged, never silently skipped).
    migrated_frames => "recovery.migrated_frames",
    /// Steps an input rank with prefetch on prepared inline: its
    /// read-ahead worker had died, or had read the step under a slice a
    /// failover, rejoin or reshape since replaced (degraded overlap,
    /// never an abort).
    prefetch_fallbacks => "recovery.prefetch_fallbacks",
    /// Scripted elastic-controller kills observed (at most 1): the
    /// pipeline froze on its last committed epoch from that step on.
    controller_kills => "recovery.controller_kills",
    /// Ranks folded back into the run (recovered dead ranks and spare-pool
    /// joins alike), one count per joiner once it adopted the committed
    /// state the output rank pushed it.
    rejoins => "recovery.rejoins",
    /// Committed control plans a joiner slept through: the epochs between
    /// its own state and the committed state the output rank pushed it.
    catchup_plans => "recovery.catchup_plans",
    /// Checkpointed field snapshots a joiner restored from parfs on
    /// rejoin (warm-start; at most one per rejoin).
    catchup_fields => "recovery.catchup_fields",
}

// distinct salts per decision kind so e.g. transient and corrupt rolls at
// the same site are independent
const SALT_TRANSIENT: u64 = 0x7261_6e73_6965_6e74;
const SALT_CORRUPT: u64 = 0x636f_7272_7570_7431;
const SALT_SLOW: u64 = 0x736c_6f77_7265_6164;
const SALT_DROP: u64 = 0x6472_6f70_7365_6e64;
const SALT_DELAY: u64 = 0x6465_6c61_7973_6e64;
const SALT_WIRE: u64 = 0x7769_7265_666c_6970;
const SALT_BIT: u64 = 0x6269_7470_6963_6b31;

/// A live fault schedule: stateless seeded decisions plus the shared
/// injected-fault log and recovery counters. One plan is shared by all
/// ranks of a pipeline run.
pub struct FaultPlan {
    spec: FaultSpec,
    events: Mutex<Vec<FaultEvent>>,
    rec: RecoveryCounters,
}

impl FaultPlan {
    pub fn new(spec: FaultSpec) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            spec,
            events: Mutex::new(Vec::new()),
            rec: RecoveryCounters::default(),
        })
    }

    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// FNV-1a hash of a site description — the deterministic identity of
    /// an injection point.
    pub fn site_hash(parts: &[u64]) -> u64 {
        Fnv1a::standard().words(parts.iter().copied()).finish()
    }

    /// Site of a read: `(path, first byte offset, total bytes)`.
    pub fn read_site(path: &str, offset: u64, bytes: u64) -> u64 {
        let path = Fnv1a::standard().bytes(path.bytes()).finish();
        FaultPlan::site_hash(&[path, offset, bytes])
    }

    /// Uniform roll in `[0, 1)` for `(salt, site, attempt)` — pure, so
    /// replay is exact.
    fn roll(&self, salt: u64, site: u64, attempt: u32) -> f64 {
        let mut rng = SplitMix64::new(
            self.spec.seed.wrapping_mul(0x9e3779b97f4a7c15)
                ^ salt.rotate_left(17)
                ^ site.wrapping_mul(0xbf58476d1ce4e5b9)
                ^ (attempt as u64).wrapping_mul(0x94d049bb133111eb),
        );
        rng.next_f64()
    }

    fn log(&self, kind: FaultKind, site: String, attempt: u32) {
        self.events.lock().unwrap().push(FaultEvent { kind, site, attempt });
    }

    /// Roll the read faults for one attempt at `site` (precedence:
    /// transient, then corrupt, then slow). `describe` builds the log
    /// entry's site string lazily (faults are rare).
    pub fn read_fault(
        &self,
        site: u64,
        attempt: u32,
        describe: impl Fn() -> String,
    ) -> Option<ReadFault> {
        if self.spec.read_transient > 0.0
            && self.roll(SALT_TRANSIENT, site, attempt) < self.spec.read_transient
        {
            self.log(FaultKind::ReadTransient, describe(), attempt);
            return Some(ReadFault::Transient);
        }
        if self.spec.read_corrupt > 0.0
            && self.roll(SALT_CORRUPT, site, attempt) < self.spec.read_corrupt
        {
            self.log(FaultKind::ReadCorrupt, describe(), attempt);
            return Some(ReadFault::Corrupt);
        }
        if self.spec.read_slow > 0.0 && self.roll(SALT_SLOW, site, attempt) < self.spec.read_slow {
            self.log(FaultKind::ReadSlow, describe(), attempt);
            return Some(ReadFault::Slow { factor: self.spec.slow_factor });
        }
        None
    }

    /// Roll the comm faults for one lossy send `(src, dst, tag)` in world
    /// ranks (precedence: drop, then delay).
    pub fn send_fault(&self, src: usize, dst: usize, tag: u64) -> Option<SendFault> {
        let site = FaultPlan::site_hash(&[src as u64, dst as u64, tag]);
        if self.spec.send_drop > 0.0 && self.roll(SALT_DROP, site, 0) < self.spec.send_drop {
            self.log(FaultKind::SendDrop, format!("send {src}->{dst} tag {tag}"), 0);
            return Some(SendFault::Drop);
        }
        if self.spec.send_delay > 0.0 && self.roll(SALT_DELAY, site, 0) < self.spec.send_delay {
            self.log(FaultKind::SendDelay, format!("send {src}->{dst} tag {tag}"), 0);
            return Some(SendFault::Delay(Duration::from_millis(self.spec.delay_ms)));
        }
        None
    }

    /// Whether the lossy send `(src, dst, tag)` will be dropped: the same
    /// deterministic roll [`FaultPlan::send_fault`] makes at the send
    /// site, as a side-effect-free peek (no log entry — the send itself
    /// logs when it happens). This is the sender-local transmit-failure
    /// notification a real lossy transport delivers: layers that keep
    /// cross-step wire state (the temporal-delta codec) must not let a
    /// message the transport reported lost advance their idea of what
    /// the receiver holds.
    pub fn send_will_drop(&self, src: usize, dst: usize, tag: u64) -> bool {
        let site = FaultPlan::site_hash(&[src as u64, dst as u64, tag]);
        self.spec.send_drop > 0.0 && self.roll(SALT_DROP, site, 0) < self.spec.send_drop
    }

    /// Roll wire corruption for one lossy send; `Some(bits)` means the
    /// sender flips payload bit `bits % payload_bits` after checksumming,
    /// so the receiver's verify-on-receive catches it.
    pub fn wire_corrupt(&self, src: usize, dst: usize, tag: u64) -> Option<u64> {
        let site = FaultPlan::site_hash(&[src as u64, dst as u64, tag]);
        if self.spec.wire_corrupt > 0.0 && self.roll(SALT_WIRE, site, 0) < self.spec.wire_corrupt {
            self.log(FaultKind::WireCorrupt, format!("send {src}->{dst} tag {tag}"), 0);
            return Some(SplitMix64::new(self.spec.seed ^ SALT_BIT ^ site).next_u64());
        }
        None
    }

    /// Whether the prefetch worker is scripted dead at `step` (for good).
    pub fn prefetch_failed(&self, step: usize) -> bool {
        matches!(self.spec.fail_prefetch, Some(s) if step >= s)
    }

    /// The scripted render slowdown for world rank `rank` (1.0 = none).
    pub fn slow_rank_factor(&self, rank: usize) -> f64 {
        match self.spec.slow_rank {
            Some((r, f)) if r == rank => f,
            _ => 1.0,
        }
    }

    // --- recovery accounting -------------------------------------------

    pub fn note_retry(&self, backoff: Duration) {
        self.rec.read_retries.fetch_add(1, Ordering::Relaxed);
        self.rec.backoff_us.fetch_add(backoff.as_micros() as u64, Ordering::Relaxed);
    }

    pub fn note_exhausted(&self) {
        self.rec.exhausted_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_checksum_failure(&self) {
        self.rec.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_wire_reject(&self) {
        self.rec.wire_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_degraded_frame(&self, blocks: u64) {
        self.rec.degraded_frames.fetch_add(1, Ordering::Relaxed);
        self.rec.degraded_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Record that `rank` was declared dead by its group (logged once per
    /// surviving detector).
    pub fn note_failover(&self, rank: usize, step: usize) {
        self.rec.failover_events.fetch_add(1, Ordering::Relaxed);
        self.log(FaultKind::RankFail, format!("rank {rank} dead at step {step}"), 0);
    }

    /// Record that render-world rank `rank` was declared dead by a
    /// surviving render peer (logged once per surviving detector, like
    /// [`FaultPlan::note_failover`]).
    pub fn note_render_failover(&self, rank: usize, step: usize) {
        self.rec.render_failovers.fetch_add(1, Ordering::Relaxed);
        self.log(FaultKind::RankFail, format!("render rank {rank} dead at step {step}"), 0);
    }

    /// Record that the output rank was declared dead by the supervising
    /// render rank, which assumes frame assembly from `step` onwards.
    pub fn note_output_failover(&self, rank: usize, step: usize) {
        self.rec.output_failovers.fetch_add(1, Ordering::Relaxed);
        self.log(FaultKind::RankFail, format!("output rank {rank} dead at step {step}"), 0);
    }

    /// Record one frame assembled by the failover supervisor instead of
    /// the (dead) output rank.
    pub fn note_migrated_frame(&self) {
        self.rec.migrated_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one step prepared inline although prefetch is on.
    pub fn note_prefetch_fallback(&self) {
        self.rec.prefetch_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the scripted controller kill taking effect at `step`
    /// (logged once, by the rank that hosted the controller).
    pub fn note_controller_kill(&self, step: usize) {
        self.rec.controller_kills.fetch_add(1, Ordering::Relaxed);
        self.log(FaultKind::RankFail, format!("controller dead at step {step}"), 0);
    }

    /// Record a joiner folded back into the run (counted by the joiner,
    /// once it adopted the committed state).
    pub fn note_rejoin(&self) {
        self.rec.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` committed plans a joiner slept through.
    pub fn note_catchup_plans(&self, n: u64) {
        self.rec.catchup_plans.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one checkpointed field snapshot restored on rejoin.
    pub fn note_catchup_field(&self) {
        self.rec.catchup_fields.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the recovery counters.
    pub fn recovery(&self) -> RecoveryStats {
        self.rec.snapshot()
    }

    /// Injected faults per kind (zero rows included), folded from the
    /// log, under the metric names they are published as: `fault.<kind>`.
    pub fn named_counts(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let mut counts = [0u64; FaultKind::COUNT];
        for e in self.events.lock().unwrap().iter() {
            counts[e.kind as usize] += 1;
        }
        FaultKind::ALL.iter().map(move |&k| (format!("fault.{}", k.as_str()), counts[k as usize]))
    }

    /// Copy of the injected-fault log. Order is arrival order across
    /// threads; sort before comparing runs.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_of_every_key() {
        let spec = FaultSpec::parse(
            "seed=42,read_transient=0.05,read_corrupt=0.02,read_slow=0.5,slow_factor=4,\
             send_drop=0.1,send_delay=0.2,delay_ms=10,wire_corrupt=0.01,fail_rank=1@2,\
             fail_controller=4,slow_rank=3@2.5,fail_prefetch=2",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.read_transient, 0.05);
        assert_eq!(spec.read_corrupt, 0.02);
        assert_eq!(spec.read_slow, 0.5);
        assert_eq!(spec.slow_factor, 4.0);
        assert_eq!(spec.send_drop, 0.1);
        assert_eq!(spec.send_delay, 0.2);
        assert_eq!(spec.delay_ms, 10);
        assert_eq!(spec.wire_corrupt, 0.01);
        assert_eq!(spec.rank_timeline, [MembershipEvent::Fail { rank: 1, step: 2 }]);
        // clauses in any order come out as one timeline, ascending; a
        // leading recover (a spare-pool join) is kept as written
        let windows = FaultSpec::parse("fail_rank=2@9,recover_rank=2@6,fail_rank=2@3").unwrap();
        let steps: Vec<usize> = windows.rank_timeline.iter().map(|e| e.step()).collect();
        assert_eq!(steps, [3, 6, 9]);
        let spare = FaultSpec::parse("recover_rank=4@5").unwrap();
        assert_eq!(spare.rank_timeline, [MembershipEvent::Recover { rank: 4, step: 5 }]);
        assert_eq!(spec.fail_controller, Some(4));
        assert_eq!(spec.slow_rank, Some((3, 2.5)));
        assert_eq!(spec.fail_prefetch, Some(2));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("nonsense").is_err());
        assert!(FaultSpec::parse("unknown_key=1").is_err());
        assert!(FaultSpec::parse("read_transient=1.5").is_err());
        assert!(FaultSpec::parse("read_transient=-0.1").is_err());
        assert!(FaultSpec::parse("slow_factor=0.5").is_err());
        assert!(FaultSpec::parse("fail_rank=3").is_err());
        assert!(FaultSpec::parse("seed=abc").is_err());
        assert!(FaultSpec::parse("fail_controller=abc").is_err());
        assert!(FaultSpec::parse("slow_rank=3").is_err());
        assert!(FaultSpec::parse("slow_rank=1@0.5").is_err());
        assert!(FaultSpec::parse("fail_prefetch=abc").is_err());
    }

    #[test]
    fn empty_spec_is_fault_free() {
        let spec = FaultSpec::parse("").unwrap();
        assert!(!spec.can_inject() && !FaultSpec::default().can_inject());
        assert!(!FaultSpec::parse("seed=7,slow_factor=3,delay_ms=5").unwrap().can_inject());
        let armed = "read_slow=0.1 wire_corrupt=0.5 send_delay=1 fail_rank=1@2 recover_rank=3@2 \
                     fail_controller=4 slow_rank=2@8 fail_prefetch=1";
        for spec in armed.split(' ') {
            assert!(FaultSpec::parse(spec).unwrap().can_inject(), "{spec}");
        }
        let plan = FaultPlan::new(spec);
        for site in 0..1000u64 {
            assert_eq!(plan.read_fault(site, 0, String::new), None);
            assert_eq!(plan.send_fault(0, site as usize, site), None);
        }
        assert!(plan.events().is_empty());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let spec =
            FaultSpec::parse("seed=7,read_transient=0.3,read_corrupt=0.2,send_drop=0.25").unwrap();
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        let c = FaultPlan::new(
            FaultSpec::parse("seed=8,read_transient=0.3,read_corrupt=0.2,send_drop=0.25").unwrap(),
        );
        let mut differs = false;
        for site in 0..500u64 {
            for attempt in 0..3u32 {
                let fa = a.read_fault(site, attempt, String::new);
                let fb = b.read_fault(site, attempt, String::new);
                let fc = c.read_fault(site, attempt, String::new);
                assert_eq!(fa, fb, "site {site} attempt {attempt}");
                differs |= fa != fc;
            }
            assert_eq!(a.send_fault(0, 1, site), b.send_fault(0, 1, site));
        }
        assert!(differs, "different seeds must give a different schedule");
        // identical logs too (same injection order for a serial caller)
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn attempts_roll_independently() {
        // p = 0.5 transient: over many sites, some must fail attempt 0 and
        // pass attempt 1 (retry succeeds) — the retry loop depends on it
        let plan = FaultPlan::new(FaultSpec::parse("seed=1,read_transient=0.5").unwrap());
        let recovered = (0..200u64)
            .filter(|&site| {
                plan.read_fault(site, 0, String::new) == Some(ReadFault::Transient)
                    && plan.read_fault(site, 1, String::new).is_none()
            })
            .count();
        assert!(recovered > 20, "retries never recover ({recovered}/200)");
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let plan = FaultPlan::new(FaultSpec::parse("seed=3,read_transient=0.2").unwrap());
        let hits =
            (0..5000u64).filter(|&site| plan.read_fault(site, 0, String::new).is_some()).count();
        let rate = hits as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "injection rate {rate} far from 0.2");
    }

    #[test]
    fn timeline_validation_rejects_inconsistent_schedules() {
        // two kills with no recovery between
        assert!(FaultSpec::parse("fail_rank=2@3,fail_rank=2@5").is_err());
        // recover while alive (not a leading spare join)
        assert!(FaultSpec::parse("fail_rank=2@3,recover_rank=2@6,recover_rank=2@8").is_err());
        // two different target ranks
        assert!(FaultSpec::parse("fail_rank=2@3,recover_rank=3@6").is_err());
        // non-increasing steps
        assert!(FaultSpec::parse("fail_rank=2@3,recover_rank=2@3").is_err());
        // garbage values
        assert!(FaultSpec::parse("recover_rank=3").is_err());
        assert!(FaultSpec::parse("recover_rank=a@3").is_err());
    }

    #[test]
    fn prefetch_failure_is_permanent_from_its_step() {
        let plan = FaultPlan::new(FaultSpec::parse("fail_prefetch=2").unwrap());
        assert!(!plan.prefetch_failed(1));
        assert!(plan.prefetch_failed(2));
        assert!(plan.prefetch_failed(50));
        let clean = FaultPlan::new(FaultSpec::parse("").unwrap());
        assert!(!clean.prefetch_failed(50));
    }

    #[test]
    fn slow_rank_factor_targets_one_rank() {
        let plan = FaultPlan::new(FaultSpec::parse("slow_rank=4@3.5").unwrap());
        assert_eq!(plan.slow_rank_factor(4), 3.5);
        assert_eq!(plan.slow_rank_factor(3), 1.0);
        let clean = FaultPlan::new(FaultSpec::parse("").unwrap());
        assert_eq!(clean.slow_rank_factor(4), 1.0);
    }

    #[test]
    fn counters_and_log_track_injections() {
        let plan = FaultPlan::new(FaultSpec::parse("seed=5,read_transient=1").unwrap());
        for site in 0..10u64 {
            assert_eq!(
                plan.read_fault(site, 0, || format!("site {site}")),
                Some(ReadFault::Transient)
            );
        }
        assert_eq!(plan.named_counts().next(), Some(("fault.read_transient".to_string(), 10)));
        assert_eq!(plan.events().len(), 10);
        plan.note_retry(Duration::from_millis(2));
        plan.note_exhausted();
        plan.note_degraded_frame(3);
        let rec = plan.recovery();
        assert_eq!(rec.read_retries, 1);
        assert_eq!(rec.backoff_us, 2000);
        assert_eq!(rec.exhausted_reads, 1);
        assert_eq!(rec.degraded_frames, 1);
        assert_eq!(rec.degraded_blocks, 3);
    }

    #[test]
    fn slow_fault_carries_factor() {
        let plan = FaultPlan::new(FaultSpec::parse("seed=9,read_slow=1,slow_factor=4").unwrap());
        assert_eq!(plan.read_fault(1, 0, String::new), Some(ReadFault::Slow { factor: 4.0 }));
    }
}
