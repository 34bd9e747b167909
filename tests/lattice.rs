//! The configuration lattice: every structural configuration the pipeline
//! offers, crossed, each under the settings that must not change what it
//! renders.
//!
//! * **Structural axes** — I/O strategy (1DIP×1, 1DIP×2, 2DIP 1×2,
//!   2DIP 2×2), read-ahead off/on, LIC off/on, no controller or
//!   `elastic(2)`, a post-hoc run or a kill-and-resume from a checkpoint,
//!   and a membership event named by role: none, the lead input rank of
//!   the first read group killed, a renderer killed and rejoining, the
//!   output rank killed.
//! * **Transparent axes** — the wire (raw, `rle,delta`, `shuffle,delta`),
//!   the cache (off, or a fresh tier) and read faults (off, or seeded
//!   transient and corrupt reads that the retries absorb).
//!
//! Three assertions:
//! 1. in every structural cell, each transparent setting gives the frames
//!    (`to_bits`) and `degraded` flags of the cell's raw/off/off twin;
//! 2. every cell renders the frames of the serial oracle (1 renderer,
//!    1DIP×1, synchronous), and a cell without a membership event also
//!    raises no flag, as the oracle raises none;
//! 3. the cells `run_pipeline` refuses, and its messages, are exactly
//!    [`REFUSED`]: an exclusion added or removed is a diff of that table.
//!
//! A cell without a membership event runs every transparent value, each
//! alone, and all of them at once. A membership event costs a heartbeat
//! deadline per run, so those cells run the twin and the all-on setting
//! only, and only post hoc: kill-and-resume across a render failover and
//! across a rejoin have their own tests (`checkpoint_restart.rs`,
//! `elastic.rs`). Runs are spread over a few worker threads; a membership
//! run mostly waits on its heartbeat, which the others fill.

use quakeviz::pipeline::{
    CacheConfig, CacheTier, Degradation, IoStrategy, PipelineBuilder, PipelineReport,
};
use quakeviz::rt::{FaultSpec, WireSpec};
use quakeviz::seismic::{Dataset, SimulationBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const STEPS: usize = 4;
const RENDERERS: usize = 2;
const DEADLINE_MS: u64 = 300;
/// Seeded read faults the default retry budget absorbs.
const READ_FAULTS: &str = "seed=7,read_transient=0.1,read_corrupt=0.05";
const WORKERS: usize = 4;

/// Every refused cell as `(pattern, message)`; `*` matches any value of
/// an axis. A cell's name is `io/read-ahead/lic/control/run/membership`.
const REFUSED: [(&str, &str); 6] = [
    (
        "1dip1/*/*/*/posthoc/input-kill",
        "fail_rank=0@1 needs a 2DIP input group of at least 2 so the dead rank's slice can fail \
         over to a survivor",
    ),
    (
        "1dip2/*/*/*/posthoc/input-kill",
        "fail_rank=0@1 needs a 2DIP input group of at least 2 so the dead rank's slice can fail \
         over to a survivor",
    ),
    (
        "1dip1/*/*/elastic/posthoc/output-kill",
        "fail_rank=3@1 kills the output processor under the elastic control plane: it hosts the \
         controller and the plan history, which its supervisor does not take over — script the \
         controller's death with fail_controller instead",
    ),
    (
        "1dip2/*/*/elastic/posthoc/output-kill",
        "fail_rank=4@1 kills the output processor under the elastic control plane: it hosts the \
         controller and the plan history, which its supervisor does not take over — script the \
         controller's death with fail_controller instead",
    ),
    (
        "2dip1x2/*/*/elastic/posthoc/output-kill",
        "fail_rank=4@1 kills the output processor under the elastic control plane: it hosts the \
         controller and the plan history, which its supervisor does not take over — script the \
         controller's death with fail_controller instead",
    ),
    (
        "2dip2x2/*/*/elastic/posthoc/output-kill",
        "fail_rank=6@1 kills the output processor under the elastic control plane: it hosts the \
         controller and the plan history, which its supervisor does not take over — script the \
         controller's death with fail_controller instead",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Membership {
    None,
    InputKill,
    RenderRejoin,
    OutputKill,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    io: IoStrategy,
    read_ahead: bool,
    lic: bool,
    elastic: bool,
    resume: bool,
    membership: Membership,
}

impl Cell {
    fn name(&self) -> String {
        let io = match self.io {
            IoStrategy::OneDip { input_procs } => format!("1dip{input_procs}"),
            IoStrategy::TwoDip { groups, per_group } => format!("2dip{groups}x{per_group}"),
        };
        let axes = [
            if self.read_ahead { "ahead" } else { "sync" },
            if self.lic { "lic" } else { "nolic" },
            if self.elastic { "elastic" } else { "static" },
            if self.resume { "resume" } else { "posthoc" },
            match self.membership {
                Membership::None => "none",
                Membership::InputKill => "input-kill",
                Membership::RenderRejoin => "render-rejoin",
                Membership::OutputKill => "output-kill",
            },
        ];
        format!("{io}/{}", axes.join("/"))
    }

    /// The membership event's clauses, its ranks found by role in the
    /// world `[inputs | renderers | output]`.
    fn events(&self) -> Option<String> {
        let (groups, per_group) = self.io.shape();
        let output = groups * per_group + RENDERERS;
        match self.membership {
            Membership::None => None,
            // the group's lead, who also owes its LIC duty
            Membership::InputKill => Some("fail_rank=0@1".into()),
            // the last renderer, not the one that supervises the output
            Membership::RenderRejoin => {
                Some(format!("fail_rank={r}@1,recover_rank={r}@3", r = output - 1))
            }
            Membership::OutputKill => Some(format!("fail_rank={output}@1")),
        }
    }
}

fn lattice() -> Vec<Cell> {
    let strategies = [
        IoStrategy::OneDip { input_procs: 1 },
        IoStrategy::OneDip { input_procs: 2 },
        IoStrategy::TwoDip { groups: 1, per_group: 2 },
        IoStrategy::TwoDip { groups: 2, per_group: 2 },
    ];
    let memberships =
        [Membership::None, Membership::InputKill, Membership::RenderRejoin, Membership::OutputKill];
    let mut cells = Vec::new();
    for io in strategies {
        for read_ahead in [false, true] {
            for lic in [false, true] {
                for elastic in [false, true] {
                    for membership in memberships {
                        for resume in [false, true] {
                            if resume && membership != Membership::None {
                                continue;
                            }
                            cells.push(Cell { io, read_ahead, lic, elastic, resume, membership });
                        }
                    }
                }
            }
        }
    }
    cells
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Transparent {
    wire: &'static str,
    cache: bool,
    faults: bool,
}

/// The twin every other setting is compared with.
const TWIN: Transparent = Transparent { wire: "raw", cache: false, faults: false };
const ALL_ON: Transparent = Transparent { wire: "shuffle,delta", cache: true, faults: true };
/// Each transparent value alone, then all of them at once.
const SETTINGS: [Transparent; 6] = [
    TWIN,
    Transparent { wire: "rle,delta", cache: false, faults: false },
    Transparent { wire: "shuffle,delta", cache: false, faults: false },
    Transparent { wire: "raw", cache: true, faults: false },
    Transparent { wire: "raw", cache: false, faults: true },
    ALL_ON,
];

/// What a run renders: its frames' bits and their flags.
type Rendered = (Vec<Vec<u32>>, Vec<Vec<Degradation>>);

fn rendered(reports: &[PipelineReport]) -> Rendered {
    let frames = reports.iter().flat_map(|r| &r.frames);
    let bits = frames.map(|f| f.pixels().iter().flatten().map(|v| v.to_bits()).collect());
    (bits.collect(), reports.iter().flat_map(|r| r.degraded.iter().cloned()).collect())
}

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(STEPS).run_to_dataset().unwrap()
}

/// Run `cell` under `setting`; `job` names its checkpoint directory.
fn run(ds: &Dataset, cell: &Cell, setting: Transparent, job: usize) -> Result<Rendered, String> {
    let clauses: Vec<String> =
        setting.faults.then(|| READ_FAULTS.to_string()).into_iter().chain(cell.events()).collect();
    let tier = setting.cache.then(|| CacheTier::new(CacheConfig { blocks_mb: 8, frames: 8 }));
    let builder = || {
        let mut b = PipelineBuilder::new(ds)
            .renderers(RENDERERS)
            .io_strategy(cell.io)
            .image_size(24, 24)
            .prefetch(cell.read_ahead)
            .lic(cell.lic)
            .delivery_deadline_ms(DEADLINE_MS)
            .wire_spec(WireSpec::parse(setting.wire).expect("wire spec"));
        if cell.elastic {
            b = b.elastic(2);
        }
        if !clauses.is_empty() {
            b = b.faults(FaultSpec::parse(&clauses.join(",")).expect("fault spec"));
        }
        if let Some(tier) = &tier {
            b = b.cache_tier(Arc::clone(tier));
        }
        b
    };
    if !cell.resume {
        return Ok(rendered(&[builder().run()?]));
    }
    let path = format!("lattice-ckpt-{job}");
    let checkpointed = || builder().checkpoint_every(2).checkpoint_path(&path);
    let killed = checkpointed().max_steps(2).run()?;
    let resumed = checkpointed().resume(true).run()?;
    Ok(rendered(&[killed, resumed]))
}

/// Whether `name` matches `pattern` axis by axis.
fn matches(pattern: &str, name: &str) -> bool {
    let (p, n): (Vec<&str>, Vec<&str>) = (pattern.split('/').collect(), name.split('/').collect());
    p.len() == n.len() && p.iter().zip(&n).all(|(p, n)| *p == "*" || p == n)
}

#[test]
fn transparent_axes_never_change_a_frame_and_the_refusals_are_the_table() {
    let ds = dataset();
    let serial = |lic: bool| {
        let b = PipelineBuilder::new(&ds).renderers(1).image_size(24, 24).lic(lic);
        rendered(&[b.run().expect("serial oracle")])
    };
    let oracle = [serial(false), serial(true)];

    let cells = lattice();
    // membership runs first: they mostly wait, and the short runs fill in
    let mut jobs: Vec<(usize, Transparent)> = Vec::new();
    for pass in [true, false] {
        for (c, cell) in cells.iter().enumerate() {
            if (cell.membership != Membership::None) != pass {
                continue;
            }
            let settings: &[Transparent] = if pass { &[TWIN, ALL_ON] } else { &SETTINGS };
            jobs.extend(settings.iter().map(|&s| (c, s)));
        }
    }
    let results: Mutex<Vec<Option<Result<Rendered, String>>>> =
        Mutex::new(jobs.iter().map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(c, setting)) = jobs.get(j) else { break };
                let out = run(&ds, &cells[c], setting, j);
                results.lock().unwrap()[j] = Some(out);
            });
        }
    });
    let results: Vec<Result<Rendered, String>> =
        results.into_inner().unwrap().into_iter().map(|r| r.expect("every job ran")).collect();

    let mut faults = Vec::new();
    let mut refused = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let name = cell.name();
        let runs: Vec<(Transparent, &Result<Rendered, String>)> = jobs
            .iter()
            .zip(&results)
            .filter(|((jc, _), _)| *jc == c)
            .map(|((_, s), r)| (*s, r))
            .collect();
        let twin = match runs[0] {
            (s, Ok(twin)) if s == TWIN => twin,
            (_, Err(why)) => {
                // a refusal does not depend on a transparent setting
                for (s, r) in &runs[1..] {
                    if r.as_ref().err() != Some(why) {
                        faults.push(format!("{name} {s:?}: {r:?} where the twin was refused"));
                    }
                }
                refused.push((name, why.clone()));
                continue;
            }
            _ => unreachable!("the twin is a cell's first job"),
        };
        if twin.0.len() != STEPS {
            faults.push(format!("{name}: {} of {STEPS} frames", twin.0.len()));
        }
        let oracle = &oracle[cell.lic as usize];
        if twin.0 != oracle.0 {
            faults.push(format!("{name}: frames differ from the serial oracle's"));
        }
        if cell.membership == Membership::None && twin.1 != oracle.1 {
            faults.push(format!("{name}: flags {:?} without a membership event", twin.1));
        }
        for (s, r) in &runs[1..] {
            match r {
                Ok(r) if r.0 != twin.0 => faults.push(format!("{name} {s:?}: frames differ")),
                Ok(r) if r.1 != twin.1 => {
                    faults.push(format!("{name} {s:?}: flags {:?}, twin {:?}", r.1, twin.1))
                }
                Ok(_) => {}
                Err(e) => faults.push(format!("{name} {s:?}: refused ({e}), twin ran")),
            }
        }
    }

    // the refusals, both ways
    for (name, why) in &refused {
        match REFUSED.iter().find(|(pattern, _)| matches(pattern, name)) {
            Some((_, msg)) if msg == why => {}
            Some((pattern, msg)) => {
                faults.push(format!("{name}: refused with {why:?}, {pattern} says {msg:?}"))
            }
            None => faults.push(format!("{name}: refused with {why:?}, not in REFUSED")),
        }
    }
    for cell in &cells {
        let name = cell.name();
        let listed = REFUSED.iter().any(|(pattern, _)| matches(pattern, &name));
        if listed && !refused.iter().any(|(n, _)| *n == name) {
            faults.push(format!("{name}: listed in REFUSED, but it ran"));
        }
    }
    println!("{} cells, {} refused, {} runs", cells.len(), refused.len(), jobs.len());
    assert!(faults.is_empty(), "{} lattice faults:\n  {}", faults.len(), faults.join("\n  "));
}
