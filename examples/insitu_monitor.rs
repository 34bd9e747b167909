//! Simulation-time visualization (the paper's §7 goal): start the
//! earthquake solver, hand the dataset it is *still writing* to the
//! ordinary rendering pipeline, and watch frames appear while the
//! simulation is computing. The two meet on the virtual parallel file
//! system — process memory — where a read of a step not yet computed
//! simply waits for it.
//!
//! ```sh
//! cargo run --release --example insitu_monitor
//! ```

use quakeviz::pipeline::{IoStrategy, PipelineBuilder};
use quakeviz::seismic::SimulationBuilder;

fn main() {
    println!("launching coupled simulation + visualization…");
    let (dataset, simulation) = SimulationBuilder::new()
        .resolution(32)
        .steps(16)
        .frequency(0.15)
        .run_live()
        .expect("simulation set-up failed");
    let report = PipelineBuilder::new(&dataset)
        .renderers(4)
        .io_strategy(IoStrategy::OneDip { input_procs: 1 })
        .image_size(512, 512)
        .run()
        .expect("in-situ run failed");
    let sim = simulation.join().expect("simulation failed");

    std::fs::create_dir_all("out/insitu").expect("mkdir");
    for (t, frame) in report.frames.iter().enumerate() {
        std::fs::write(format!("out/insitu/frame_{t:04}.ppm"), frame.to_ppm([0.02, 0.02, 0.04]))
            .expect("write frame");
    }
    println!("{} frames written to out/insitu/ while the solver ran", report.frames.len());
    println!(
        "solver compute: {:.2}s · pipeline total: {:.2}s · mean interframe {:.3}s",
        sim.sim_seconds,
        report.total_seconds(),
        report.mean_interframe_delay()
    );
    let render_total: f64 = report.render_frames.iter().map(|f| f.render_s).sum();
    println!(
        "render work: {:.2}s pooled across renderers — overlapped with the simulation",
        render_total
    );
    println!(
        "normalization max grew {:.3e} → {:.3e} over the run",
        sim.norm_history[0],
        sim.norm_history[sim.norm_history.len() - 1]
    );
}
