//! `quakeviz` CLI — drive the system without writing code:
//!
//!   quakeviz render --resolution 32 --steps 12 --lic --enhance
//!   quakeviz insitu --resolution 32 --steps 16
//!   quakeviz des --renderers 128 --twodip 2 --max-m 22   # Figure 9
//!
//! `render` generates a dataset with the built-in solver and runs the
//! real threaded pipeline (frames land in out/cli/); `insitu` runs the
//! same pipeline over the dataset *while* the solver is writing it
//! (frames land in out/insitu/); `des` replays
//! the 1DIP/2DIP schedules over the LeMieux-calibrated cost table.
//! `QUAKEVIZ_TRACE=out/trace.json` works on `render` like everywhere
//! else: Chrome trace + span/traffic CSVs.

use quakeviz::pipeline::des::{simulate, CostTable, FigureOptions};
use quakeviz::pipeline::{model, IoStrategy, PipelineBuilder};
use quakeviz::render::RgbaImage;
use quakeviz::seismic::SimulationBuilder;

struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    fn val(&mut self, what: &str) -> String {
        self.args.next().unwrap_or_else(|| fail(&format!("{what} needs a value")))
    }
    fn num<T: std::str::FromStr>(&mut self, what: &str) -> T {
        let v = self.val(what);
        v.parse().unwrap_or_else(|_| fail(&format!("{what}: bad value {v:?}")))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("quakeviz: {msg}");
    eprintln!("usage: quakeviz render|insitu|des [flags]  (see src/main.rs doc comment)");
    std::process::exit(2)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        fail("missing subcommand");
    }
    let cmd = argv.remove(0);
    let mut f = Flags { args: argv.into_iter() };
    match cmd.as_str() {
        "render" => render(&mut f),
        "insitu" => insitu(&mut f),
        "des" => des(&mut f),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}

fn write_frames(dir: &str, frames: &[RgbaImage], background: [f32; 3]) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("mkdir {dir}: {e}")));
    for (t, frame) in frames.iter().enumerate() {
        let path = format!("{dir}/frame_{t:04}.ppm");
        std::fs::write(&path, frame.to_ppm(background))
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    }
}

fn render(f: &mut Flags) {
    let (mut resolution, mut steps) = (32usize, 12usize);
    let (mut renderers, mut input_procs) = (4usize, 2usize);
    let (mut lic, mut enhance) = (false, false);
    while let Some(a) = f.args.next() {
        match a.as_str() {
            "--resolution" => resolution = f.num("--resolution"),
            "--steps" => steps = f.num("--steps"),
            "--renderers" => renderers = f.num("--renderers"),
            "--input-procs" => input_procs = f.num("--input-procs"),
            "--lic" => lic = true,
            "--enhance" => enhance = true,
            other => fail(&format!("render: unknown flag {other}")),
        }
    }
    eprintln!("solving {steps} steps at resolution {resolution}…");
    let dataset = SimulationBuilder::new()
        .resolution(resolution)
        .steps(steps)
        .run_to_dataset()
        .unwrap_or_else(|e| fail(&format!("solver: {e}")));
    let report = PipelineBuilder::new(&dataset)
        .renderers(renderers)
        .io_strategy(IoStrategy::OneDip { input_procs })
        .image_size(512, 512)
        .lic(lic)
        .enhancement(enhance)
        .run()
        .unwrap_or_else(|e| fail(&format!("pipeline: {e}")));
    write_frames("out/cli", &report.frames, [0.05, 0.05, 0.08]);
    println!(
        "{} frames -> out/cli/  mean interframe {:.3}s",
        report.frames.len(),
        report.mean_interframe_delay()
    );
}

fn insitu(f: &mut Flags) {
    let (mut resolution, mut steps, mut renderers) = (32usize, 16usize, 4usize);
    while let Some(a) = f.args.next() {
        match a.as_str() {
            "--resolution" => resolution = f.num("--resolution"),
            "--steps" => steps = f.num("--steps"),
            "--renderers" => renderers = f.num("--renderers"),
            other => fail(&format!("insitu: unknown flag {other}")),
        }
    }
    let (dataset, simulation) = SimulationBuilder::new()
        .resolution(resolution)
        .steps(steps)
        .run_live()
        .unwrap_or_else(|e| fail(&format!("insitu: {e}")));
    let report = PipelineBuilder::new(&dataset)
        .renderers(renderers)
        .io_strategy(IoStrategy::OneDip { input_procs: 1 })
        .run()
        .unwrap_or_else(|e| fail(&format!("insitu: {e}")));
    let sim = simulation.join().unwrap_or_else(|e| fail(&format!("solver: {e}")));
    write_frames("out/insitu", &report.frames, [0.02, 0.02, 0.04]);
    println!(
        "{} frames -> out/insitu/  solver {:.2}s, pipeline {:.2}s, mean interframe {:.3}s",
        report.frames.len(),
        sim.sim_seconds,
        report.total_seconds(),
        report.mean_interframe_delay()
    );
}

fn des(f: &mut Flags) {
    let (mut renderers, mut twodip_m, mut max_m) = (128usize, 2usize, 22usize);
    while let Some(a) = f.args.next() {
        match a.as_str() {
            "--renderers" => renderers = f.num("--renderers"),
            "--twodip" => twodip_m = f.num("--twodip"),
            "--max-m" => max_m = f.num("--max-m"),
            other => fail(&format!("des: unknown flag {other}")),
        }
    }
    let c = CostTable::lemieux(renderers, 512, 512, FigureOptions::default());
    println!(
        "cost table ({renderers} renderers): Tf={:.1}s Tp={:.1}s Ts={:.2}s Tr={:.2}s",
        c.tf, c.tp, c.ts, c.tr
    );
    println!("{:>8} {:>10} {:>10} {:>10}", "groups", "onedip_s", "twodip_s", "render_s");
    for x in 1..=max_m {
        let one = simulate(IoStrategy::OneDip { input_procs: x }, &c, 300).steady_interframe();
        let two = simulate(IoStrategy::TwoDip { groups: x, per_group: twodip_m }, &c, 300)
            .steady_interframe();
        println!("{x:>8} {one:>10.3} {two:>10.3} {:>10.3}", c.tr);
    }
    let n = model::twodip_n(c.tf, c.tp, c.ts, twodip_m);
    println!("analytic: 2DIP reaches Tr at n≈{n:.1}; 1DIP floors at Ts={:.2}s", c.ts);
}
