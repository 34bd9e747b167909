//! Membership: who is what at step `t`. One pure, validated [`Schedule`]
//! answers every membership question the role loops ask — is this rank
//! present, dormant, gone or rejoining; who watches whom for silence; is
//! there a plan-commit round; who owns which blocks; who sends and who
//! assembles the frame — beside the [`heartbeat`] round that *detects* a
//! rank going silent.
//!
//! The paper routes node data to renderers through one octree-block map
//! that every role consults instead of negotiating. So here: every rank
//! holds the same schedule and every answer is a function of `(rank,
//! step)` — no communicator, clock or lock — so senders and receivers agree
//! with zero traffic. Frames are partition-invariant (a block renders to
//! the same fragment on any rank, SLIC order is fixed by visibility), so
//! *which* survivor inherits a dead rank's blocks is a free choice;
//! [`owners`] makes it once.

use crate::control::{overlay_assignment, ControlConfig, EpochState};
use crate::proto::HB;
use quakeviz_rt::{Comm, MembershipEvent};
use std::ops::Range;
use std::time::Duration;

/// Block ownership at one step: `(render-group index, block ids)` for
/// every live rank of the active prefix, ascending. The committed
/// assignment stands unless a rank is scripted `dead` this step; then its
/// blocks are overlaid onto the live active ranks, who keep their own.
/// The overlay never commits — it ends the step the rank rejoins, or
/// never, for a kill with no recovery.
pub fn owners(state: &EpochState, dead: Option<usize>, weights: &[u64]) -> Vec<(usize, Vec<u32>)> {
    let assignment = match dead {
        Some(d) => overlay_assignment(&state.assignment, state.active, d, weights),
        None => state.assignment.clone(),
    };
    assignment
        .into_iter()
        .enumerate()
        .take(state.active)
        .filter(|&(r, _)| Some(r) != dead)
        .collect()
}

/// The world `[inputs (groups × per_group) | renderers + spares | output]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldShape {
    pub groups: usize,
    pub per_group: usize,
    /// Render ranks active from the start.
    pub renderers: usize,
    /// Parked render ranks past them (the spare pool).
    pub spares: usize,
}

/// Which of the paper's three processor groups a world rank belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Input,
    Render,
    Output,
}

/// What a rank is at a step, under the scripted timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Taking part (a parked spare too: it stays on the epoch clock).
    Present,
    /// Back this very step (`recover_rank`): it takes part, after asking
    /// the output rank what it missed.
    Joining,
    /// Scripted dead with a recovery to come: the rank stopped cold,
    /// mid-pipeline, and stays parked in its loop — silent, calling no
    /// collective — until then.
    Dormant,
    /// Scripted dead for good: the rank has left its loop.
    Gone,
}

impl Presence {
    /// Whether the rank takes part in the step at all.
    pub fn active(self) -> bool {
        matches!(self, Presence::Present | Presence::Joining)
    }
}

/// A rank's heartbeat duty. Heartbeats run only in the group the timeline
/// kills a member of: everyone else has nobody to lose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Watch {
    Nobody,
    /// Exchange beacons with the other ranks of this range: a 2DIP input
    /// group, or the render group.
    Group(Range<usize>),
    /// The render root: take over frame assembly when this rank (the
    /// output) falls silent.
    Listen(usize),
    /// The output rank: beacon this rank, its supervisor.
    Beacon(usize),
}

/// Whether a plan-commit round runs before a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    None,
    /// A round among [`Schedule::participants`]; `admit` when it is a
    /// spare join's, whose plan — growing the active prefix — is forced
    /// rather than decided.
    Round {
        admit: bool,
    },
    /// A scheduled tick at or after `fail_controller`: the round happens
    /// nowhere, every rank stays on its last committed epoch.
    Killed,
}

/// The run's membership schedule. [`Schedule::new`] is also the validation
/// of the scripted timeline: a `Schedule` that exists can be run.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Single target rank, alternating fail/recover, ascending steps.
    timeline: Vec<MembershipEvent>,
    fail_controller: Option<usize>,
    shape: WorldShape,
    /// Control off is a period of 0: it never ticks.
    control: ControlConfig,
    /// First executed step (past 0 on a resumed run).
    start: usize,
}

impl Schedule {
    /// Validate a scripted membership timeline (normalized by
    /// `FaultSpec::parse`) against the world shape and the control-plane
    /// mode, for a run of `steps` steps. `fail_controller` is the scripted
    /// controller kill, after which no plan commits. A rejoin needs
    /// nothing: it ends an overlay, at any step — even one past the
    /// run's end, where the window just stays open for a resumed run.
    pub fn new(
        timeline: &[MembershipEvent],
        fail_controller: Option<usize>,
        shape: WorldShape,
        control: Option<ControlConfig>,
        steps: usize,
    ) -> Result<Schedule, FaultConfigError> {
        let sched = Schedule {
            timeline: timeline.to_vec(),
            fail_controller,
            shape,
            control: control.unwrap_or(ControlConfig::every(0)),
            start: 0,
        };
        let (n_inputs, output_rank) = (sched.n_inputs(), sched.output_rank());
        // a leading recovery is a spare-pool join: the one membership event
        // that commits a plan, so the one that needs a live controller
        if let Some(&MembershipEvent::Recover { rank, step }) = timeline.first() {
            let committable =
                control.is_some() && shape.spares >= 1 && fail_controller.is_none_or(|k| step < k);
            if !committable {
                return Err(FaultConfigError::SpareJoinNeedsSparePool { rank, step });
            }
            let expected = n_inputs + shape.renderers;
            if rank != expected {
                return Err(FaultConfigError::SpareJoinWrongRank { rank, expected });
            }
            if step >= steps {
                return Err(FaultConfigError::StepOutOfRange { step, steps });
            }
        }
        // an input death is survivable inside a 2DIP group of two or more
        // (a survivor re-reads its slice), a render death beside a second
        // renderer, the output's always: its render-root supervisor assumes
        // frame assembly
        for ev in timeline {
            let (rank, step) = (ev.rank(), ev.step());
            return Err(match ev {
                MembershipEvent::Recover { .. } if rank == output_rank => {
                    FaultConfigError::OutputRankRejoin { rank, step }
                }
                MembershipEvent::Recover { .. } => continue,
                _ if rank > output_rank => {
                    FaultConfigError::RankOutOfRange { rank, world: output_rank + 1 }
                }
                _ if step >= steps => FaultConfigError::StepOutOfRange { step, steps },
                _ if rank < n_inputs && shape.per_group < 2 => {
                    FaultConfigError::InputNotSurvivable { rank, step }
                }
                _ if (n_inputs..output_rank).contains(&rank) && shape.renderers < 2 => {
                    FaultConfigError::RenderNotSurvivable { rank, step }
                }
                _ if rank == output_rank && control.is_some() => {
                    FaultConfigError::ElasticOutputKill { rank, step }
                }
                _ => continue,
            });
        }
        Ok(sched)
    }

    /// The same schedule for a run resumed at step `start` (known only
    /// after validation: the fingerprint that admits the checkpoint hashes
    /// the validated spec).
    pub fn resumed_at(mut self, start: usize) -> Schedule {
        self.start = start;
        self
    }

    pub fn shape(&self) -> WorldShape {
        self.shape
    }

    pub fn n_inputs(&self) -> usize {
        self.shape.groups * self.shape.per_group
    }

    /// Render ranks, parked spares included.
    pub fn n_renderers(&self) -> usize {
        self.shape.renderers + self.shape.spares
    }

    /// World rank of render-group index `rr`.
    pub fn render_rank(&self, rr: usize) -> usize {
        self.n_inputs() + rr
    }

    /// Render-group index of world rank `rank`, if it is a render rank.
    pub fn render_index(&self, rank: usize) -> Option<usize> {
        rank.checked_sub(self.n_inputs()).filter(|&rr| rr < self.n_renderers())
    }

    pub fn output_rank(&self) -> usize {
        self.n_inputs() + self.n_renderers()
    }

    /// Ranks in the world.
    pub fn world(&self) -> usize {
        self.output_rank() + 1
    }

    pub fn role(&self, rank: usize) -> Role {
        match rank {
            r if r < self.n_inputs() => Role::Input,
            r if r < self.output_rank() => Role::Render,
            _ => Role::Output,
        }
    }

    /// The latest scripted event of `rank` at or before step `t`.
    fn last_event(&self, rank: usize, t: usize) -> Option<MembershipEvent> {
        self.timeline.iter().rev().find(|ev| ev.rank() == rank && ev.step() <= t).copied()
    }

    pub fn presence(&self, rank: usize, t: usize) -> Presence {
        match self.last_event(rank, t) {
            // kills and recoveries alternate: whatever follows a kill ends it
            Some(MembershipEvent::Fail { .. }) => match self.timeline.last() {
                Some(later) if later.step() > t => Presence::Dormant,
                _ => Presence::Gone,
            },
            Some(MembershipEvent::Recover { step, .. }) if step == t => Presence::Joining,
            _ => Presence::Present,
        }
    }

    /// The rank the timeline is about (it scripts a single one).
    fn target(&self) -> Option<usize> {
        self.timeline.first().map(|ev| ev.rank())
    }

    /// The rank joining at step `t`, if any.
    pub fn joiner(&self, t: usize) -> Option<usize> {
        self.target().filter(|&r| self.presence(r, t) == Presence::Joining)
    }

    /// Whether `rank` is back from a scripted death by step `t` — what a
    /// peer that visits only some steps (an input rank) asks.
    pub fn is_back(&self, rank: usize, t: usize) -> bool {
        matches!(self.last_event(rank, t), Some(MembershipEvent::Recover { .. }))
    }

    /// The steps whose committed plans the rank joining at `t` slept
    /// through: since its kill (a spare join missed nothing), but not before
    /// this run's start — the checkpoint carried those.
    pub fn catchup_window(&self, t: usize) -> Range<usize> {
        let killed = self.timeline.iter().rev().find_map(|ev| match *ev {
            MembershipEvent::Fail { step, .. } if step < t => Some(step),
            _ => None,
        });
        killed.map_or(t, |k| k.max(self.start))..t
    }

    /// The group the timeline kills a member of, if any: it decides which
    /// heartbeat runs ([`Schedule::watch`]), whether renderers allow for a
    /// detection stall on top of the delivery deadline (an input kill), and
    /// what the controller must not shrink below two.
    pub fn kill_role(&self) -> Option<Role> {
        self.timeline.iter().find_map(|ev| match *ev {
            MembershipEvent::Fail { rank, .. } => Some(self.role(rank)),
            MembershipEvent::Recover { .. } => None,
        })
    }

    pub fn watch(&self, rank: usize) -> Watch {
        let (root, output) = (self.render_rank(0), self.output_rank());
        match (self.kill_role(), self.role(rank)) {
            (Some(Role::Input), Role::Input) => {
                let first = rank - rank % self.shape.per_group;
                Watch::Group(first..first + self.shape.per_group)
            }
            (Some(Role::Render), Role::Render) => Watch::Group(root..output),
            (Some(Role::Output), Role::Render) if rank == root => Watch::Listen(output),
            (Some(Role::Output), Role::Output) => Watch::Beacon(root),
            _ => Watch::Nobody,
        }
    }

    /// Whether a plan-commit round runs before step `t`: the control
    /// schedule — skipping the resume boundary (no measurement window
    /// within this run yet) — or a spare-pool join, whose admit plan
    /// commits at the join step itself; never at or after a scripted
    /// controller kill.
    pub fn tick(&self, t: usize) -> Tick {
        let scheduled = self.control.is_tick(t) && t > self.start;
        let admit = matches!(self.timeline.first(),
            Some(&MembershipEvent::Recover { step, .. }) if step == t);
        match self.fail_controller.is_some_and(|k| t >= k) {
            false if scheduled || admit => Tick::Round { admit },
            true if scheduled => Tick::Killed,
            _ => Tick::None,
        }
    }

    /// The ranks below the output taking part in a round at step `t`. A
    /// dormant rank neither acks nor applies — it catches up on rejoining.
    pub fn participants(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.output_rank()).filter(move |&p| self.presence(p, t).active())
    }

    /// The render-group index scripted dead at step `t`.
    pub fn dead_renderer(&self, t: usize) -> Option<usize> {
        self.target().filter(|&r| !self.presence(r, t).active()).and_then(|r| self.render_index(r))
    }

    /// [`owners`] at step `t` under the caller's committed `state`.
    pub fn owners(&self, state: &EpochState, t: usize, weights: &[u64]) -> Vec<(usize, Vec<u32>)> {
        owners(state, self.dead_renderer(t), weights)
    }

    /// World rank delivering the composited frame of step `t`: the lowest
    /// live active render rank — SLIC's collector.
    pub fn frame_source(&self, state: &EpochState, t: usize, weights: &[u64]) -> usize {
        self.render_rank(self.owners(state, t, weights).first().map_or(0, |&(r, _)| r))
    }

    /// World rank assembling the frame of step `t`: the output rank, or its
    /// render-root supervisor once it is scripted dead (for good).
    pub fn frame_dst(&self, t: usize) -> usize {
        if self.presence(self.output_rank(), t).active() {
            self.output_rank()
        } else {
            self.render_rank(0)
        }
    }

    /// Which input rank ships the LIC overlay of step `t`: the lowest
    /// member of the step's group not scripted dead.
    pub fn lic_source(&self, t: usize) -> usize {
        let base = (t % self.shape.groups) * self.shape.per_group;
        (base..base + self.shape.per_group).find(|&r| self.presence(r, t).active()).unwrap_or(base)
    }
}

/// Why a scripted membership timeline cannot run under this configuration
/// — surfaced by [`Schedule::new`] instead of silently never firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultConfigError {
    /// The rank does not exist in the world `[inputs | renderers |
    /// output]` this configuration spawns.
    RankOutOfRange { rank: usize, world: usize },
    /// The failure step is past the last executed step: the scripted
    /// death would never fire.
    StepOutOfRange { step: usize, steps: usize },
    /// An input-rank death is only survivable inside a 2DIP group of at
    /// least two, whose survivors re-read the dead rank's slice.
    InputNotSurvivable { rank: usize, step: usize },
    /// A render-rank death is only survivable with at least two
    /// rendering processors for the dead rank's blocks to be overlaid onto.
    RenderNotSurvivable { rank: usize, step: usize },
    /// `recover_rank` on the output processor: its supervisor takeover is
    /// permanent (frame routing cannot hand back mid-run).
    OutputRankRejoin { rank: usize, step: usize },
    /// A `recover_rank` with no preceding kill is a spare-pool join: it
    /// grows the active prefix, which only a committed admit plan can do.
    /// That needs a spare pool and the elastic controller alive at the
    /// join step — under none, or one `fail_controller` already stopped,
    /// nobody can commit the plan.
    SpareJoinNeedsSparePool { rank: usize, step: usize },
    /// A spare join must target the first parked rank — the admit plan
    /// grows the active prefix by one.
    SpareJoinWrongRank { rank: usize, expected: usize },
    /// Under the elastic control plane the output rank cannot be scripted
    /// dead: it hosts the controller and keeps the plan history, and its
    /// supervisor takes over frame assembly, not those (`fail_controller`
    /// is the scripted controller death).
    ElasticOutputKill { rank: usize, step: usize },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultConfigError::RankOutOfRange { rank, world } => write!(
                f,
                "fail_rank rank {rank} is outside the world: this configuration \
                 spawns only {world} ranks (inputs | renderers | output)"
            ),
            FaultConfigError::StepOutOfRange { step, steps } => write!(
                f,
                "fail_rank step {step} is beyond the run's {steps} steps — \
                 the scripted failure would never fire"
            ),
            FaultConfigError::InputNotSurvivable { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} needs a 2DIP input group of at least 2 \
                 so the dead rank's slice can fail over to a survivor"
            ),
            FaultConfigError::RenderNotSurvivable { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} kills a rendering processor: failover \
                 needs at least 2 renderers so the survivors can take over its \
                 blocks and recompute the SLIC schedule"
            ),
            FaultConfigError::OutputRankRejoin { rank, step } => write!(
                f,
                "recover_rank={rank}@{step} targets the output processor: its \
                 render-root supervisor takeover is permanent, output-rank \
                 rejoin is not supported"
            ),
            FaultConfigError::SpareJoinNeedsSparePool { rank, step } => write!(
                f,
                "recover_rank={rank}@{step} with no preceding fail_rank is a \
                 spare-pool join: it needs spare_renderers >= 1 and the elastic \
                 control plane (PipelineBuilder::elastic), not scripted dead by \
                 then, to commit its admit plan"
            ),
            FaultConfigError::SpareJoinWrongRank { rank, expected } => write!(
                f,
                "spare-pool join rank {rank} is not the first parked rank: the \
                 admit plan grows the active prefix, so the joiner must be \
                 world rank {expected}"
            ),
            FaultConfigError::ElasticOutputKill { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} kills the output processor under the \
                 elastic control plane: it hosts the controller and the plan \
                 history, which its supervisor does not take over — script the \
                 controller's death with fail_controller instead"
            ),
        }
    }
}

/// One heartbeat round before step `t`: beacon every rank in `to`, wait
/// for the beacon of every rank in `from`, and return the ones that stayed
/// silent past their `wait`. A peer whose wait is `None` is blocked on
/// instead of voted on — how a scripted rejoin is folded in, from both
/// sides: the joiner fast-forwarded past peers who may still be burning
/// detection timeouts, so it waits for all of them; and every peer reads
/// the rejoin step from the shared plan and waits for the joiner, who is
/// first asking the output rank what it missed.
pub fn heartbeat(
    comm: &Comm,
    t: usize,
    to: &[usize],
    from: &[usize],
    wait: impl Fn(usize) -> Option<Duration>,
) -> Vec<usize> {
    for &r in to {
        HB.send(comm, r, t, ());
    }
    from.iter()
        .copied()
        .filter(|&r| match wait(r) {
            Some(d) => HB.try_recv_for(comm, r, t, d).is_none(),
            None => {
                HB.recv(comm, r, t);
                false
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_rt::World;

    /// The same late beacon a timed round gives up on — rank 1 only
    /// beacons once rank 0's timed round has returned — is simply waited
    /// out by a blocking round, which reports nobody silent.
    #[test]
    fn blocking_round_never_reports_a_peer_silent() {
        let out = World::run(2, |comm| {
            let peer = [1 - comm.rank()];
            let mut timed = Vec::new();
            if comm.rank() == 0 {
                timed = heartbeat(&comm, 8, &[], &peer, |_| Some(Duration::ZERO));
                comm.send(1, 9, ());
            } else {
                let () = comm.recv(0, 9);
            }
            (heartbeat(&comm, 8, &peer, &peer, |_| None), timed)
        });
        assert!(out.iter().all(|(blocking, _)| blocking.is_empty()), "{out:?}");
        assert_eq!(out[0].1, vec![1], "the timed round must report the late peer");
    }

    use MembershipEvent::{Fail, Recover};

    /// `[0,1 inputs, one 2DIP group | 2,3,4 renderers | 5 output]`.
    const WIDE: WorldShape = WorldShape { groups: 1, per_group: 2, renderers: 3, spares: 0 };
    /// `[0,1 inputs, 1DIP | 2,3 renderers | 4 spare | 5 output]`.
    const POOL: WorldShape = WorldShape { groups: 2, per_group: 1, renderers: 2, spares: 1 };
    const STEPS: usize = 8;

    /// One membership shape: its timeline, and what the schedule must
    /// answer at every step of an 8-step run. Per-step strings hold one
    /// letter per step.
    struct Case {
        name: &'static str,
        shape: WorldShape,
        timeline: &'static [MembershipEvent],
        fail_controller: Option<usize>,
        /// Tick period of the control plane, if on.
        control: Option<usize>,
        /// The rank whose `presence` row is given: `P`resent, `J`oining,
        /// `D`ormant, `G`one. Every other rank is present throughout.
        rank: usize,
        presence: &'static str,
        /// `.` none, `R`ound, `A`dmit round, `K`illed.
        ticks: &'static str,
        /// Heartbeat duty of ranks 0 (an input), 2 (the render root), 3 and
        /// 5 (the output).
        watch: [Watch; 4],
        /// Catch-up window of every join step.
        catchup: &'static [(usize, Range<usize>)],
        frame_dst: [usize; STEPS],
        lic_source: [usize; STEPS],
    }

    fn cases() -> Vec<Case> {
        let quiet = [Watch::Nobody, Watch::Nobody, Watch::Nobody, Watch::Nobody];
        let renderers = || Watch::Group(2..5);
        vec![
            Case {
                name: "none",
                shape: WIDE,
                timeline: &[],
                fail_controller: None,
                control: Some(2),
                rank: 3,
                presence: "PPPPPPPP",
                ticks: "..R.R.R.",
                watch: quiet.clone(),
                catchup: &[],
                frame_dst: [5; STEPS],
                lic_source: [0; STEPS],
            },
            Case {
                name: "render kill",
                shape: WIDE,
                timeline: &[Fail { rank: 3, step: 3 }],
                fail_controller: None,
                control: None,
                rank: 3,
                presence: "PPPGGGGG",
                ticks: "........",
                watch: [Watch::Nobody, renderers(), renderers(), Watch::Nobody],
                catchup: &[],
                frame_dst: [5; STEPS],
                lic_source: [0; STEPS],
            },
            Case {
                name: "input kill",
                shape: WIDE,
                timeline: &[Fail { rank: 0, step: 2 }],
                fail_controller: None,
                control: None,
                rank: 0,
                presence: "PPGGGGGG",
                ticks: "........",
                watch: [Watch::Group(0..2), Watch::Nobody, Watch::Nobody, Watch::Nobody],
                catchup: &[],
                frame_dst: [5; STEPS],
                lic_source: [0, 0, 1, 1, 1, 1, 1, 1],
            },
            Case {
                name: "output kill",
                shape: WIDE,
                timeline: &[Fail { rank: 5, step: 4 }],
                fail_controller: None,
                control: None,
                rank: 5,
                presence: "PPPPGGGG",
                ticks: "........",
                watch: [Watch::Nobody, Watch::Listen(5), Watch::Nobody, Watch::Beacon(2)],
                catchup: &[],
                frame_dst: [5, 5, 5, 5, 2, 2, 2, 2],
                lic_source: [0; STEPS],
            },
            Case {
                name: "kill + rejoin, killed again, under a controller that dies",
                shape: WIDE,
                timeline: &[
                    Fail { rank: 3, step: 1 },
                    Recover { rank: 3, step: 3 },
                    Fail { rank: 3, step: 5 },
                ],
                fail_controller: Some(4),
                control: Some(2),
                rank: 3,
                presence: "PDDJPGGG",
                ticks: "..R.K.K.",
                watch: [Watch::Nobody, renderers(), renderers(), Watch::Nobody],
                catchup: &[(3, 1..3)],
                frame_dst: [5; STEPS],
                lic_source: [0; STEPS],
            },
            Case {
                name: "spare join, then a window of its own",
                shape: POOL,
                timeline: &[
                    Recover { rank: 4, step: 1 },
                    Fail { rank: 4, step: 3 },
                    Recover { rank: 4, step: 6 },
                ],
                fail_controller: None,
                control: Some(4),
                rank: 4,
                presence: "PJPDDDJP",
                ticks: ".A..R...",
                watch: [Watch::Nobody, Watch::Group(2..5), Watch::Group(2..5), Watch::Nobody],
                catchup: &[(1, 1..1), (6, 3..6)],
                frame_dst: [5; STEPS],
                lic_source: [0, 1, 0, 1, 0, 1, 0, 1],
            },
        ]
    }

    fn build(c: &Case) -> Schedule {
        let control = c.control.map(ControlConfig::every);
        Schedule::new(c.timeline, c.fail_controller, c.shape, control, STEPS)
            .unwrap_or_else(|e| panic!("{}: {e}", c.name))
    }

    #[test]
    fn every_membership_shape_answers_per_step() {
        for c in cases() {
            let s = build(&c);
            let letter = |p| match p {
                Presence::Present => 'P',
                Presence::Joining => 'J',
                Presence::Dormant => 'D',
                Presence::Gone => 'G',
            };
            let row = |rank| (0..STEPS).map(|t| letter(s.presence(rank, t))).collect::<String>();
            for rank in 0..s.world() {
                let want = if rank == c.rank { c.presence } else { "PPPPPPPP" };
                assert_eq!(row(rank), want, "{}: presence of rank {rank}", c.name);
            }
            // what a row's letters mean for everything derived from it
            for (t, p) in c.presence.chars().enumerate() {
                assert_eq!(s.joiner(t), (p == 'J').then_some(c.rank), "{}: joiner({t})", c.name);
                let out = matches!(p, 'D' | 'G');
                let sits_out = (out && c.rank < s.output_rank()) as usize;
                assert_eq!(s.participants(t).count(), 5 - sits_out, "{}: step {t}", c.name);
                let dead = s.render_index(c.rank).filter(|_| out);
                assert_eq!(s.dead_renderer(t), dead, "{}: dead_renderer({t})", c.name);
                assert_eq!(
                    s.is_back(c.rank, t),
                    p == 'J' || (p == 'P' && row(c.rank)[..t].contains('J'))
                );
            }
            let ticks: String = (0..STEPS)
                .map(|t| match s.tick(t) {
                    Tick::None => '.',
                    Tick::Round { admit: false } => 'R',
                    Tick::Round { admit: true } => 'A',
                    Tick::Killed => 'K',
                })
                .collect();
            assert_eq!(ticks, c.ticks, "{}: ticks", c.name);
            assert_eq!([0, 2, 3, 5].map(|r| s.watch(r)), c.watch, "{}: watch", c.name);
            for (t, window) in c.catchup {
                assert_eq!(s.catchup_window(*t), *window, "{}: catch-up at {t}", c.name);
            }
            assert_eq!([0, 1, 2, 3, 4, 5, 6, 7].map(|t| s.frame_dst(t)), c.frame_dst, "{}", c.name);
            assert_eq!(
                [0, 1, 2, 3, 4, 5, 6, 7].map(|t| s.lic_source(t)),
                c.lic_source,
                "{}",
                c.name
            );
        }
    }

    /// Asked past the run's end the answers keep their shape: a death
    /// without a recovery is permanent, a controller kill too, a spare
    /// that joined stays, and a resumed run neither ticks at its first
    /// step nor replays plans from before it.
    #[test]
    fn answers_hold_beyond_the_run_and_across_a_resume() {
        let all = cases();
        let killed = build(&all[1]);
        assert_eq!(killed.presence(3, 100), Presence::Gone);
        assert_eq!(killed.presence(2, 100), Presence::Present);
        assert_eq!(killed.kill_role(), Some(Role::Render));
        let rejoin = build(&all[4]);
        assert_eq!(rejoin.tick(100), Tick::Killed);
        assert_eq!(rejoin.tick(101), Tick::None);
        assert_eq!(rejoin.presence(3, 100), Presence::Gone, "the second window never closes");
        let resumed = rejoin.clone().resumed_at(2);
        assert_eq!(resumed.tick(2), Tick::None, "no measurement window within this run yet");
        assert_eq!(resumed.catchup_window(3), 2..3, "the checkpoint carried the earlier plans");
        let spare = build(&all[5]);
        assert_eq!(spare.presence(4, 100), Presence::Present);
        assert_eq!(spare.kill_role(), Some(Role::Render));
        assert_eq!(build(&all[0]).kill_role(), None);
        assert_eq!((spare.n_inputs(), spare.n_renderers(), spare.output_rank()), (2, 3, 5));
        assert_eq!([0, 1, 2, 4, 5].map(|r| spare.role(r)), {
            use Role::*;
            [Input, Input, Render, Render, Output]
        });
        // a frame comes from the lowest live owner under the committed state
        let state = EpochState::with_active(vec![vec![0], vec![1], vec![2]], 3, 2);
        let owners_at = |t| killed.owners(&state, t, &[1, 1, 1]);
        assert_eq!(owners_at(2).len(), 3);
        assert_eq!(owners_at(3).iter().map(|o| o.0).collect::<Vec<_>>(), [0, 2]);
        let first_dead = Schedule::new(&[Fail { rank: 2, step: 1 }], None, WIDE, None, STEPS);
        let first_dead = first_dead.unwrap();
        assert_eq!([0, 1].map(|t| first_dead.frame_source(&state, t, &[1, 1, 1])), [2, 3]);
    }

    /// Every schedule the chaos generator composes for the soak topologies
    /// is accepted, and obeys the laws the role loops lean on.
    #[test]
    fn generated_schedules_are_accepted_and_lawful() {
        use quakeviz_rt::chaos::{chaos_spec, ChaosTopology};
        let topologies = [
            (ChaosTopology { n_inputs: 2, renderers: 2, steps: 6, input_kills: true }, 1, 2),
            (ChaosTopology { n_inputs: 2, renderers: 3, steps: 8, input_kills: true }, 1, 2),
            (ChaosTopology { n_inputs: 1, renderers: 2, steps: 8, input_kills: false }, 1, 1),
        ];
        for (topo, groups, per_group) in topologies {
            let shape = WorldShape { groups, per_group, renderers: topo.renderers, spares: 0 };
            for seed in 0..256 {
                let spec = chaos_spec(seed, &topo);
                let timeline = &spec.rank_timeline;
                let s = Schedule::new(timeline, spec.fail_controller, shape, None, topo.steps)
                    .unwrap_or_else(|e| panic!("seed {seed} on {topo:?}: {e}"));
                for t in 0..topo.steps + 2 {
                    let absent: Vec<usize> =
                        (0..s.world()).filter(|&r| s.presence(r, t) != Presence::Present).collect();
                    assert!(absent.len() <= 1, "seed {seed} step {t}: {absent:?} all not present");
                    for rank in 0..s.world() {
                        let joins = timeline.contains(&Recover { rank, step: t });
                        let p = s.presence(rank, t);
                        assert_eq!(
                            p == Presence::Joining,
                            joins,
                            "seed {seed}: {rank}@{t} is {p:?}"
                        );
                        if p == Presence::Gone {
                            let next = s.presence(rank, t + 1);
                            assert_eq!(
                                next,
                                Presence::Gone,
                                "seed {seed}: {rank} left Gone at {t}"
                            );
                        }
                    }
                }
            }
        }
    }
}
