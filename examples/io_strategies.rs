//! The 1DIP / 2DIP input-processor strategies, live and at terascale.
//!
//! Part 1 injects the simulated parallel-file-system delay into the *real*
//! threaded pipeline and sweeps the input-processor count: wall-clock
//! total time falls onto the rendering floor exactly as in the paper's
//! Figure 8.
//!
//! Part 2 replays the same schedules in the discrete-event simulator with
//! the LeMieux-calibrated cost table (100M cells, 400 MB/step) and prints
//! the paper-scale Figure 8 and Figure 9 series.
//!
//! ```sh
//! cargo run --release --example io_strategies
//! ```

use quakeviz::pipeline::des::FigureOptions;
use quakeviz::pipeline::{simulate, CostTable, IoStrategy, PipelineBuilder};
use quakeviz::seismic::SimulationBuilder;

fn main() {
    // ----- part 1: the real pipeline, I/O-bound by injected delay -----
    println!("== live 1DIP sweep (real threaded pipeline, injected I/O delay) ==");
    let dataset = SimulationBuilder::new()
        .resolution(16)
        .steps(8)
        .run_to_dataset()
        .expect("simulation failed");
    println!("{:>12} {:>14} {:>16}", "input procs", "total (s)", "interframe (s)");
    for m in [1usize, 2, 3, 4] {
        let report = PipelineBuilder::new(&dataset)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: m })
            .image_size(64, 64)
            .keep_frames(false)
            .io_delay_scale(30.0)
            .run()
            .expect("pipeline failed");
        println!(
            "{m:>12} {:>14.3} {:>16.3}",
            report.total_seconds(),
            report.mean_interframe_delay()
        );
    }

    // ----- part 2: paper-scale DES (LeMieux cost table) -----
    println!("\n== Figure 8: 64 renderers, 512², 1DIP (terascale DES) ==");
    let c64 = CostTable::lemieux(64, 512, 512, FigureOptions::default());
    println!("{:>4} {:>14} {:>14}", "m", "total/frame", "render time");
    for m in 1..=16 {
        let r = simulate(IoStrategy::OneDip { input_procs: m }, &c64, 200);
        println!("{m:>4} {:>14.2} {:>14.2}", r.steady_interframe(), c64.tr);
    }

    println!("\n== Figure 9: 128 renderers, 512², 1DIP vs 2DIP(m=2) ==");
    let c128 = CostTable::lemieux(128, 512, 512, FigureOptions::default());
    println!("{:>6} {:>12} {:>12} {:>12}", "groups", "1DIP", "2DIP", "render");
    for x in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22] {
        let one = simulate(IoStrategy::OneDip { input_procs: x }, &c128, 300).steady_interframe();
        let two = simulate(IoStrategy::TwoDip { groups: x, per_group: 2 }, &c128, 300)
            .steady_interframe();
        println!("{x:>6} {one:>12.2} {two:>12.2} {:>12.2}", c128.tr);
    }
}
