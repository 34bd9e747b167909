//! Closed-loop elastic control plane: epoch-clocked rebalancing that
//! generalizes failover from "react to death" to "react to load".
//!
//! The membership machinery (`crate::membership`: one block-ownership
//! function over the committed epoch state, one communicator regrouped
//! when the live active set changes) is already a mechanism for changing
//! who renders what at runtime; this module drives the *same* actuation
//! path from measured load instead of detected death. A controller
//! hosted on the output rank watches the live `rt::obs` phase spans and
//! periodically emits an epoch-stamped [`ControlPlan`]:
//!
//! * **rebalance** — shift octree blocks between render ranks using a
//!   capacity-aware variant of the LPT balancer (a rank measured 4× slower
//!   per unit of work gets ~¼ the weight),
//! * **resize** — grow/shrink the active render prefix to the §5 closed
//!   form [`crate::model::optimal_renderers`],
//! * **reshape** — switch the effective 2DIP group width when the measured
//!   `Ts/Tr` ratio crosses the [`crate::model::twodip_optimal_m`]
//!   crossover.
//!
//! **Epoch clock, one message per commit.** Plans are stamped with a
//! monotonically increasing epoch and an `apply_at` step. At a tick the
//! controller sends every participant the plan (or none) and commits it
//! locally; each participant applies it when it receives it, at the same
//! step boundary, so a reconfiguration is indistinguishable from the
//! failovers the test suite already proves bit-identical. A rank that
//! slept through commits adopts the controller's committed state when it
//! rejoins.
//!
//! **Determinism.** The *decisions* depend on wall-clock measurements and
//! are therefore not replay-stable, but the *frames* are: a block renders
//! to the same fragment on any rank (its field values ride with it), and
//! the SLIC composite order is fixed by block visibility order, not
//! ownership. Every elastic run is bit-identical to the static oracle —
//! the property `tests/elastic.rs` pins.
//!
//! The measurement→decision math lives here, pure and unit-tested; the
//! commit round lives in `core::pipeline`, over the `CTL` channel of
//! `core::proto`, and a rejoin's catch-up over `CATCHUP`.

use quakeviz_mesh::lpt_place;

/// Elastic control-plane configuration. Every run hosts a controller;
/// unless `PipelineConfig::control` is set its period is 0 and it never
/// ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlConfig {
    /// Tick period: the controller evaluates a plan before every step `S`
    /// with `S % every == 0` (S ≥ 1).
    pub every: usize,
    /// Grow/shrink the active render prefix to the §5 closed form.
    pub resize: bool,
    /// Switch the effective 2DIP group width at the Ts/Tr crossover.
    pub reshape: bool,
}

impl ControlConfig {
    /// Rebalance-only controller with the given tick period — the
    /// default elastic mode. Every controller rebalances on measured
    /// per-rank skew; `resize` and `reshape` add to that.
    pub fn every(every: usize) -> ControlConfig {
        ControlConfig { every, resize: false, reshape: false }
    }

    /// Steps `S` at which the controller ticks: every `every` steps,
    /// never at step 0 (there is no measurement window yet) — and never
    /// at all with a period of 0, which is how a control-off run hosts
    /// its controller.
    pub fn is_tick(&self, step: usize) -> bool {
        self.every > 0 && step > 0 && step.is_multiple_of(self.every)
    }
}

/// One epoch-stamped reconfiguration, as proposed and committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPlan {
    /// Lamport-style epoch: strictly increasing over committed plans,
    /// starting at 1 (epoch 0 is the static partition).
    pub epoch: u64,
    /// Step boundary every rank applies the plan at (the tick step).
    pub apply_at: u32,
    /// Active render ranks: the prefix `0..active` of the render group.
    pub active: usize,
    /// Block ids owned by each render rank index (sorted ascending;
    /// empty for inactive ranks). Indexed by render rank, `n_renderers`
    /// entries always — inactive tails stay, so the world shape is
    /// explicit in the plan.
    pub assignment: Vec<Vec<u32>>,
    /// Effective 2DIP group width: the first `input_width` members of
    /// each input group fetch+send; the rest idle that step. Always 1
    /// for 1DIP.
    pub input_width: usize,
}

/// The committed elastic state every rank tracks (epoch 0 = static).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochState {
    pub epoch: u64,
    pub active: usize,
    pub assignment: Vec<Vec<u32>>,
    pub input_width: usize,
}

impl EpochState {
    /// Epoch 0 — the static partition — with the first `active` ranks
    /// live: the parked tail (spare pool) owns nothing until an admit plan
    /// grows the prefix.
    pub fn with_active(assignment: Vec<Vec<u32>>, active: usize, input_width: usize) -> EpochState {
        debug_assert!(active <= assignment.len());
        debug_assert!(assignment[active..].iter().all(Vec::is_empty), "spares own no blocks");
        EpochState { epoch: 0, active, assignment, input_width }
    }

    /// Apply a committed plan.
    pub fn apply(&mut self, plan: &ControlPlan) {
        self.epoch = plan.epoch;
        self.active = plan.active;
        self.assignment = plan.assignment.clone();
        self.input_width = plan.input_width;
    }
}

/// One measurement window, condensed from the live span recorders by the
/// controller host (the output rank).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowMeasurement {
    /// Render-phase busy seconds per render rank index over the window
    /// ([`robust_busy`] of its steps).
    pub render_busy: Vec<f64>,
    /// Aggregate input-side busy seconds (read+preprocess+LIC+send) over
    /// the window, all input ranks pooled.
    pub input_busy: f64,
    /// Aggregate send-phase busy seconds over the window.
    pub send_busy: f64,
    /// Steps the window spans (≥ 1 for a usable measurement).
    pub steps: usize,
}

/// A rank's render busy seconds over a window, from its per-step times
/// (0 = did not render that step): the *median* step scaled to the steps
/// it rendered, not their sum. A slow rank is slow on every step; a
/// render thread preempted for one scheduler slice is not, and in a
/// window of a few milliseconds the sum cannot tell the two apart.
pub fn robust_busy(mut per_step: Vec<f64>) -> f64 {
    per_step.retain(|&d| d > 0.0);
    per_step.sort_by(f64::total_cmp);
    let n = per_step.len();
    if n == 0 {
        return 0.0;
    }
    (per_step[(n - 1) / 2] + per_step[n / 2]) / 2.0 * n as f64
}

/// Per-unit-weight slowness rates, quantized for hysteresis.
///
/// `busy[r] / weight[r]` measures how slowly rank `r` retires one unit
/// of block weight — a property of the *rank* (scripted slowdown,
/// noisy neighbor), not of its current assignment, so it survives the
/// rebalance it triggers. Rates are normalized to the fastest rank and
/// snapped to powers of two (capped at [`MAX_RATE`]): between re-ticks
/// the measured ratios wobble, but the quantized rates — and therefore
/// the recomputed assignment — stay fixed, which is what stops the
/// controller from churning plans every tick.
pub fn quantized_rates(busy: &[f64], weights: &[u64]) -> Vec<u64> {
    let raw: Vec<f64> = busy
        .iter()
        .zip(weights)
        .map(|(&b, &w)| if b > 0.0 && w > 0 { b / w as f64 } else { 0.0 })
        .collect();
    let min_pos = raw.iter().copied().filter(|&r| r > 0.0).fold(f64::INFINITY, f64::min);
    raw.iter()
        .map(|&r| {
            if r <= 0.0 || !min_pos.is_finite() {
                return 1;
            }
            let norm = (r / min_pos).max(1.0);
            // nearest power of two in log space, capped
            let exp = norm.log2().round().max(0.0) as u32;
            1u64 << exp.min(MAX_RATE_EXP)
        })
        .collect()
}

/// Cap on the quantized slowness rate (2^4 = 16×): beyond this the rank
/// is effectively excluded anyway, and an unbounded exponent would let
/// one stalled measurement blow up the integer load arithmetic.
pub const MAX_RATE_EXP: u32 = 4;
pub const MAX_RATE: u64 = 1 << MAX_RATE_EXP;

/// Share of the busiest rank's render time a rebalance must be projected
/// to save before it is proposed. The power-of-two snap puts a rank at
/// rate 2 from a measured ratio of √2, where the 1:2 split it leads to
/// saves 5 %; a commit restarts every delta stream on a keyframe, and a
/// ratio that sits near √2 (a wave front inside one rank's blocks does
/// that, now that empty bricks cost nothing) would otherwise flip runs
/// in and out of the split on scheduler noise.
pub const MIN_GAIN: f64 = 0.25;

/// Projected relative saving in the busiest rank's render time if
/// `assignment` replaced the one `busy` was measured under, each rank
/// keeping its measured (unquantized) cost per unit of weight.
pub fn projected_gain(
    busy: &[f64],
    weights: &[u64],
    assignment: &[Vec<u32>],
    block_weights: &[u64],
) -> f64 {
    let now = busy.iter().copied().fold(0.0, f64::max);
    let then = busy
        .iter()
        .zip(weights)
        .zip(assignment)
        .map(|((&b, &w), blocks)| {
            let new_w: u64 = blocks.iter().map(|&b| block_weights[b as usize]).sum();
            if w > 0 {
                b / w as f64 * new_w as f64
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max);
    if now > 0.0 {
        1.0 - then / now
    } else {
        0.0
    }
}

/// Capacity-aware LPT: assign `blocks` (id, weight) to `rates.len()`
/// ranks by [`lpt_place`], minimizing the projected completion time
/// `load × rate`. Per-rank outputs are sorted ascending like
/// `Partition::blocks_of`.
pub fn assign_capacity(blocks: &[(u32, u64)], rates: &[u64]) -> Vec<Vec<u32>> {
    assert!(!rates.is_empty(), "capacity assignment needs at least one rank");
    let mut out = vec![Vec::new(); rates.len()];
    lpt_place(blocks.to_vec(), &mut vec![0; rates.len()], rates, |id, r| out[r].push(id));
    for blocks in &mut out {
        blocks.sort_unstable();
    }
    out
}

/// The controller: committed state, plan history, and the decision
/// function. Lives on the output rank; every other rank tracks only the
/// [`EpochState`].
pub struct Controller {
    pub cfg: ControlConfig,
    pub state: EpochState,
    /// Committed plans in commit order (checkpointed; a resumed run
    /// seeds it with the manifest's history).
    pub history: Vec<ControlPlan>,
    /// Shortest active prefix a resize may shrink to, and narrowest input
    /// width a reshape may choose: 1, or 2 when the fault plan scripts a
    /// death among the render ranks, or the input ranks — the overlay
    /// needs a survivor inside (the floor validation asks of `renderers`).
    pub min_active: usize,
    pub min_width: usize,
    n_renderers: usize,
    per_group: usize,
}

impl Controller {
    /// `per_group` is the 2DIP group width (1 for 1DIP) — the reshape
    /// decision's upper bound.
    pub fn new(cfg: ControlConfig, initial: EpochState, per_group: usize) -> Controller {
        let n_renderers = initial.assignment.len();
        Controller {
            cfg,
            state: initial,
            history: Vec::new(),
            min_active: 1,
            min_width: 1,
            n_renderers,
            per_group,
        }
    }

    /// What the window says about each of the first `active` ranks: the
    /// block weight it renders now, its busy seconds (0 = no measurement)
    /// and its quantized slowness rate.
    fn measured(
        &self,
        m: &WindowMeasurement,
        block_weights: &[u64],
        active: usize,
    ) -> (Vec<u64>, Vec<f64>, Vec<u64>) {
        let weights: Vec<u64> = (0..active)
            .map(|r| {
                self.state
                    .assignment
                    .get(r)
                    .map_or(0, |blocks| blocks.iter().map(|&b| block_weights[b as usize]).sum())
            })
            .collect();
        let busy: Vec<f64> =
            (0..active).map(|r| m.render_busy.get(r).copied().unwrap_or(0.0)).collect();
        let rates = quantized_rates(&busy, &weights);
        (weights, busy, rates)
    }

    /// Every block placed over the first `rates.len()` ranks; the inactive
    /// tail stays in the assignment, empty.
    fn assign(&self, block_weights: &[u64], rates: &[u64]) -> Vec<Vec<u32>> {
        let blocks: Vec<(u32, u64)> =
            block_weights.iter().enumerate().map(|(b, &w)| (b as u32, w)).collect();
        let mut assignment = assign_capacity(&blocks, rates);
        assignment.resize(self.n_renderers, Vec::new());
        assignment
    }

    /// Evaluate the measurement window and propose a plan for the
    /// `apply_at` boundary, or `None` when the committed state is already
    /// the right one. Pure in its inputs — no wall clock, no randomness.
    pub fn decide(
        &self,
        m: &WindowMeasurement,
        block_weights: &[u64],
        apply_at: u32,
    ) -> Option<ControlPlan> {
        if m.steps == 0 {
            return None; // empty window (e.g. first tick after resume)
        }
        let steps = m.steps as f64;
        // -- resize: §5 optimal renderer count from measured costs ------
        let active = if self.cfg.resize {
            let r_total = m.render_busy.iter().sum::<f64>() / steps;
            let delivery = m.input_busy / steps;
            if r_total > 0.0 && delivery > 0.0 {
                crate::model::optimal_renderers(r_total, delivery)
                    .clamp(self.min_active, self.n_renderers)
            } else {
                self.state.active
            }
        } else {
            self.state.active
        };
        // -- reshape: 2DIP width at the measured Ts/Tr crossover --------
        let input_width = if self.cfg.reshape && self.per_group > 1 {
            let ts = m.send_busy / steps;
            let k = active.max(1) as f64;
            let tr = m.render_busy.iter().sum::<f64>() / steps / k;
            if ts > 0.0 && tr > 0.0 {
                crate::model::twodip_optimal_m(ts, tr).clamp(self.min_width, self.per_group)
            } else {
                self.state.input_width
            }
        } else {
            self.state.input_width
        };
        // -- rebalance: capacity-aware LPT over quantized skew ----------
        let resized = active != self.state.active;
        let (weights, busy, rates) = self.measured(m, block_weights, active);
        let skewed = rates.iter().any(|&r| r >= 2);
        let candidate = (skewed || resized).then(|| self.assign(block_weights, &rates));
        // a new prefix needs a new assignment; the same prefix only one
        // that pays for its commit
        let assignment = match candidate {
            Some(a)
                if resized || projected_gain(&busy, &weights, &a, block_weights) >= MIN_GAIN =>
            {
                a
            }
            _ => self.state.assignment.clone(),
        };
        if active == self.state.active
            && input_width == self.state.input_width
            && assignment == self.state.assignment
        {
            return None;
        }
        Some(ControlPlan { epoch: self.state.epoch + 1, apply_at, active, assignment, input_width })
    }

    /// Record a committed plan (sent to every participant).
    pub fn commit(&mut self, plan: &ControlPlan) {
        debug_assert_eq!(plan.epoch, self.state.epoch + 1, "epochs must be consecutive");
        self.state.apply(plan);
        self.history.push(plan.clone());
    }

    /// The admit plan for a spare-pool join at `apply_at`: grow the active
    /// prefix by one and rebalance every block over the grown rank set
    /// with the window's measured rates — ranks without a measurement (the
    /// joiner, which never ran) count as rate 1. Unlike
    /// [`Controller::decide`] this always returns a plan: a join really
    /// changes the active prefix.
    pub fn admit_plan(
        &self,
        m: &WindowMeasurement,
        block_weights: &[u64],
        apply_at: u32,
    ) -> ControlPlan {
        let active = (self.state.active + 1).min(self.n_renderers);
        let (_, _, rates) = self.measured(m, block_weights, active);
        ControlPlan {
            epoch: self.state.epoch + 1,
            apply_at,
            active,
            assignment: self.assign(block_weights, &rates),
            input_width: self.state.input_width,
        }
    }
}

/// The committed assignment with a scripted-dead rank's blocks spread
/// over the surviving active ranks: LPT on the dead rank's blocks
/// (heaviest first, id ascending on ties), survivors keep their own
/// blocks untouched. Called only through [`crate::membership::owners`],
/// which every rank — senders and receivers alike — evaluates on the same
/// committed state and the same shared fault schedule, so routing agrees
/// with zero traffic. The overlay never commits (the committed plan
/// still names the dead rank).
pub fn overlay_assignment(
    assignment: &[Vec<u32>],
    active: usize,
    dead: usize,
    weights: &[u64],
) -> Vec<Vec<u32>> {
    let mut out = assignment.to_vec();
    if dead >= out.len() {
        return out;
    }
    let orphans = std::mem::take(&mut out[dead]);
    let survivors: Vec<usize> = (0..active.min(out.len())).filter(|&r| r != dead).collect();
    if survivors.is_empty() {
        out[dead] = orphans; // nowhere to reroute: keep the plan as committed
        return out;
    }
    let mut load: Vec<u64> =
        survivors.iter().map(|&r| out[r].iter().map(|&b| weights[b as usize]).sum()).collect();
    let orphans: Vec<(u32, u64)> = orphans.iter().map(|&b| (b, weights[b as usize])).collect();
    lpt_place(orphans, &mut load, &vec![1; survivors.len()], |b, i| out[survivors[i]].push(b));
    for blocks in &mut out {
        blocks.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights8() -> Vec<u64> {
        vec![10, 10, 10, 10, 10, 10, 10, 10]
    }

    fn initial(n: usize, weights: &[u64]) -> EpochState {
        let blocks: Vec<(u32, u64)> =
            weights.iter().enumerate().map(|(b, &w)| (b as u32, w)).collect();
        EpochState::with_active(assign_capacity(&blocks, &vec![1; n]), n, 1)
    }

    #[test]
    fn tick_schedule_skips_step_zero() {
        let cfg = ControlConfig::every(2);
        assert!(!cfg.is_tick(0));
        assert!(!cfg.is_tick(1));
        assert!(cfg.is_tick(2));
        assert!(!cfg.is_tick(3));
        assert!(cfg.is_tick(4));
    }

    #[test]
    fn capacity_assignment_is_deterministic_and_complete() {
        let blocks: Vec<(u32, u64)> = (0..17u32).map(|b| (b, 1 + (b as u64 * 7) % 13)).collect();
        for rates in [vec![1, 1, 1], vec![1, 4, 1], vec![16, 1, 2]] {
            let a = assign_capacity(&blocks, &rates);
            let b = assign_capacity(&blocks, &rates);
            assert_eq!(a, b, "rates {rates:?}: not deterministic");
            let mut all: Vec<u32> = a.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..17u32).collect::<Vec<_>>(), "rates {rates:?}: blocks lost");
            for r in &a {
                assert!(r.windows(2).all(|w| w[0] < w[1]), "per-rank ids not sorted");
            }
        }
    }

    #[test]
    fn uniform_rates_balance_within_one_block() {
        let blocks: Vec<(u32, u64)> = (0..24u32).map(|b| (b, 5)).collect();
        let a = assign_capacity(&blocks, &[1, 1, 1, 1]);
        let loads: Vec<u64> = a.iter().map(|r| r.len() as u64 * 5).collect();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(max - min <= 5, "uniform LPT should balance within one block: {loads:?}");
    }

    #[test]
    fn slow_rank_gets_proportionally_less() {
        let blocks: Vec<(u32, u64)> = (0..32u32).map(|b| (b, 4)).collect();
        let a = assign_capacity(&blocks, &[1, 1, 4]);
        // completion-time balance: rank 2 is 4x slower, so it should end
        // with roughly a quarter of a fast rank's weight
        assert!(
            a[2].len() * 3 < a[0].len() + a[1].len(),
            "slow rank kept too much: {:?}",
            a.iter().map(Vec::len).collect::<Vec<_>>()
        );
        assert!(!a[2].is_empty(), "slow rank should still contribute");
    }

    #[test]
    fn quantized_rates_have_hysteresis() {
        // same per-unit slowness, wobbling ±20%: identical quantization
        let w = [40u64, 40, 40];
        let a = quantized_rates(&[1.0, 1.0, 4.0], &w);
        let b = quantized_rates(&[1.2, 0.95, 4.6], &w);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 1, 4]);
        // zero-measurement ranks are neutral, extreme skew is capped
        assert_eq!(quantized_rates(&[0.0, 1.0], &[10, 10]), vec![1, 1]);
        assert_eq!(quantized_rates(&[1.0, 1000.0], &[10, 10]), vec![1, MAX_RATE]);
    }

    #[test]
    fn decide_emits_plan_on_skew_then_settles() {
        let w = weights8();
        let ctl = Controller::new(ControlConfig::every(2), initial(2, &w), 1);
        // rank 1 is 4x slower per unit of weight
        let busy = |state: &EpochState| -> Vec<f64> {
            (0..2)
                .map(|r| {
                    let weight: u64 = state.assignment[r].iter().map(|&b| w[b as usize]).sum();
                    weight as f64 * if r == 1 { 4.0 } else { 1.0 }
                })
                .collect()
        };
        let m = WindowMeasurement {
            render_busy: busy(&ctl.state),
            input_busy: 1.0,
            send_busy: 0.2,
            steps: 2,
        };
        let plan = ctl.decide(&m, &w, 2).expect("skew must produce a plan");
        assert_eq!(plan.epoch, 1);
        assert_eq!(plan.apply_at, 2);
        assert_eq!(plan.active, 2);
        let w1: u64 = plan.assignment[1].iter().map(|&b| w[b as usize]).sum();
        let w0: u64 = plan.assignment[0].iter().map(|&b| w[b as usize]).sum();
        assert!(w1 < w0, "slow rank must shed weight: {w0} vs {w1}");
        // commit, re-measure under the same per-unit rates: stable
        let mut ctl = ctl;
        ctl.commit(&plan);
        let m2 = WindowMeasurement {
            render_busy: busy(&ctl.state),
            input_busy: 1.0,
            send_busy: 0.2,
            steps: 2,
        };
        assert_eq!(ctl.decide(&m2, &w, 4), None, "controller must settle after one plan");
    }

    #[test]
    fn one_preempted_step_is_not_a_slow_rank() {
        assert_eq!(robust_busy(vec![1.0, 1.0, 6.0, 1.0]), 4.0);
        assert_eq!(robust_busy(vec![8.0, 8.0, 8.0, 8.0]), 32.0);
        // steps the rank sat out do not dilute it
        assert_eq!(robust_busy(vec![0.0, 2.0, 0.0, 4.0]), 6.0);
        assert_eq!(robust_busy(vec![0.0; 4]), 0.0);
        assert_eq!(robust_busy(Vec::new()), 0.0);
    }

    #[test]
    fn decide_ignores_skew_that_would_save_little() {
        // 64 equal blocks on two ranks: a ratio of 1.5 snaps to rate 2,
        // but the 1:2 split it leads to saves an eighth — no plan; at a
        // ratio of 2.5 the same split saves well over a quarter
        let w = vec![10u64; 64];
        let ctl = Controller::new(ControlConfig::every(4), initial(2, &w), 1);
        let window = |slow: f64| WindowMeasurement {
            render_busy: vec![slow, 1.0],
            input_busy: 1.0,
            send_busy: 0.2,
            steps: 4,
        };
        assert_eq!(quantized_rates(&[1.5, 1.0], &[320, 320]), vec![2, 1]);
        assert_eq!(ctl.decide(&window(1.5), &w, 4), None);
        let plan = ctl.decide(&window(2.5), &w, 4).expect("a rank 2.5x slower sheds blocks");
        assert!(plan.assignment[0].len() < plan.assignment[1].len());
        let weights = |a: &[Vec<u32>]| -> Vec<u64> {
            a.iter().map(|blocks| blocks.iter().map(|&b| w[b as usize]).sum()).collect()
        };
        let gain =
            projected_gain(&[2.5, 1.0], &weights(&ctl.state.assignment), &plan.assignment, &w);
        assert!((MIN_GAIN..0.5).contains(&gain), "projected gain {gain}");
    }

    #[test]
    fn decide_is_quiet_without_skew() {
        let w = weights8();
        let ctl = Controller::new(ControlConfig::every(1), initial(4, &w), 1);
        let m = WindowMeasurement {
            render_busy: vec![1.0, 1.1, 0.9, 1.05],
            input_busy: 2.0,
            send_busy: 0.5,
            steps: 1,
        };
        assert_eq!(ctl.decide(&m, &w, 1), None);
        // an empty window never produces a plan
        assert_eq!(ctl.decide(&WindowMeasurement::default(), &w, 1), None);
    }

    #[test]
    fn resize_shrinks_to_the_model_optimum() {
        let w = weights8();
        let cfg = ControlConfig { every: 1, resize: true, reshape: false };
        let ctl = Controller::new(cfg, initial(4, &w), 1);
        // rendering is cheap (0.4 s/frame aggregate) against a 2 s
        // delivery cadence: one renderer suffices
        let m = WindowMeasurement {
            render_busy: vec![0.1, 0.1, 0.1, 0.1],
            input_busy: 2.0,
            send_busy: 0.1,
            steps: 1,
        };
        let plan = ctl.decide(&m, &w, 3).expect("resize must produce a plan");
        assert_eq!(plan.active, 1);
        // under a scripted render kill the prefix keeps a survivor
        let guarded = Controller { min_active: 2, ..Controller::new(cfg, initial(4, &w), 1) };
        assert_eq!(guarded.decide(&m, &w, 3).expect("still shrinks").active, 2);
        assert_eq!(plan.assignment.len(), 4, "inactive tail stays in the plan");
        assert!(plan.assignment[1].is_empty() && plan.assignment[3].is_empty());
        let all: usize = plan.assignment.iter().map(Vec::len).sum();
        assert_eq!(all, 8, "every block still owned");
    }

    #[test]
    fn reshape_follows_the_ts_tr_crossover() {
        let w = weights8();
        let cfg = ControlConfig { every: 1, resize: false, reshape: true };
        let ctl = Controller::new(cfg, initial(2, &w), 4);
        // Ts = 3 s vs Tr = 1 s per frame: the §5 crossover wants m = 3.
        // Both ranks retire their equal weight in equal time, so nothing
        // skews and the plan changes the width alone.
        let m = WindowMeasurement {
            render_busy: vec![1.0, 1.0],
            input_busy: 4.0,
            send_busy: 3.0,
            steps: 1,
        };
        let plan = ctl.decide(&m, &w, 2).expect("crossover must produce a plan");
        assert_eq!(plan.input_width, 3);
        assert_eq!(plan.assignment, ctl.state.assignment, "no skew, no block moves");
        // width is capped by the configured group size
        let m_huge = WindowMeasurement { send_busy: 100.0, ..m.clone() };
        assert_eq!(ctl.decide(&m_huge, &w, 2).unwrap().input_width, 4);
        // and, under a scripted input kill, floored so a live member reads
        let m_tiny = WindowMeasurement { send_busy: 0.01, ..m };
        let wide = EpochState { input_width: 3, ..initial(2, &w) };
        assert_eq!(
            Controller::new(cfg, wide.clone(), 4).decide(&m_tiny, &w, 2).unwrap().input_width,
            1
        );
        let guarded = Controller { min_width: 2, ..Controller::new(cfg, wide, 4) };
        assert_eq!(guarded.decide(&m_tiny, &w, 2).unwrap().input_width, 2);
    }

    #[test]
    fn admit_plan_grows_the_prefix_and_rebalances() {
        let w = weights8();
        // world of 3 render ranks with one parked spare: the epoch-0
        // assignment carries an empty tail entry and active = 2
        let spare_world = || {
            let mut a = initial(2, &w).assignment;
            a.push(Vec::new());
            EpochState::with_active(a, 2, 1)
        };
        let ctl = Controller::new(ControlConfig::every(2), spare_world(), 1);
        let m = WindowMeasurement {
            render_busy: vec![1.0, 1.0],
            input_busy: 1.0,
            send_busy: 0.1,
            steps: 2,
        };
        // spare join: active grows 2 → 3 and every rank owns work
        let plan = ctl.admit_plan(&m, &w, 4);
        assert_eq!(plan.epoch, 1);
        assert_eq!(plan.apply_at, 4);
        assert_eq!(plan.active, 3);
        assert!((0..3).all(|r| !plan.assignment[r].is_empty()), "{:?}", plan.assignment);
        let all: usize = plan.assignment.iter().map(Vec::len).sum();
        assert_eq!(all, 8, "every block still owned exactly once");
        // growth saturates at the world's renderer count
        let mut ctl2 = Controller::new(ControlConfig::every(2), spare_world(), 1);
        ctl2.commit(&plan);
        assert_eq!(ctl2.admit_plan(&m, &w, 6).active, 3, "cannot grow past the world");
    }

    #[test]
    fn overlay_reroutes_only_the_dead_ranks_blocks() {
        let w = weights8();
        let assignment = vec![vec![0u32, 1, 2], vec![3, 4, 5], vec![6, 7]];
        let over = overlay_assignment(&assignment, 3, 1, &w);
        assert!(over[1].is_empty(), "dead rank must own nothing: {over:?}");
        let mut all: Vec<u32> = over.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8u32).collect::<Vec<_>>(), "blocks lost: {over:?}");
        // survivors keep their committed blocks
        for &b in &assignment[0] {
            assert!(over[0].contains(&b));
        }
        for &b in &assignment[2] {
            assert!(over[2].contains(&b));
        }
        // deterministic
        assert_eq!(over, overlay_assignment(&assignment, 3, 1, &w));
        // out-of-range dead rank is a no-op
        assert_eq!(overlay_assignment(&assignment, 3, 9, &w), assignment);
    }

    #[test]
    fn commit_advances_state_and_history() {
        let w = weights8();
        let mut ctl = Controller::new(ControlConfig::every(2), initial(2, &w), 1);
        let plan = ControlPlan {
            epoch: 1,
            apply_at: 2,
            active: 2,
            assignment: vec![vec![0, 1, 2], vec![3, 4, 5, 6, 7]],
            input_width: 1,
        };
        ctl.commit(&plan);
        assert_eq!(ctl.state.epoch, 1);
        assert_eq!(ctl.state.assignment, plan.assignment);
        assert_eq!(ctl.history.len(), 1);
        assert!(ctl.state.assignment[1].contains(&4));
    }
}
