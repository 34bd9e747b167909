//! §5.1/§5.2 — validation of the analytic processor-count model three
//! ways:
//!
//! 1. analytic optimum `m` vs the knee of a DES sweep (terascale costs);
//! 2. analytic steady delay vs DES steady delay across `m`;
//! 3. the *real threaded pipeline* (with injected simulated I/O delay)
//!    vs the DES prediction built from its own measured stage costs.
//!
//! Columns (part 2): m, analytic_s, des_s, rel_err.

use quakeviz_bench::{header, row, s3, tiny_dataset};
use quakeviz_core::des::{simulate, CostTable, FigureOptions};
use quakeviz_core::{model, IoStrategy, PipelineBuilder};

fn main() {
    // part 1+2: terascale
    let c = CostTable::lemieux(64, 512, 512, FigureOptions::default());
    let m_analytic = model::onedip_optimal_m(c.tf, c.tp, c.ts, c.tr);
    let knee = (1..=24)
        .find(|&m| {
            let d = simulate(IoStrategy::OneDip { input_procs: m }, &c, 300).steady_interframe();
            (d - c.tr).abs() < 0.05
        })
        .unwrap_or(0);
    eprintln!("analytic optimal m = {m_analytic}, DES knee = {knee} (paper: 12)");

    header(&["m", "analytic_s", "des_s", "rel_err"]);
    for m in 1..=16 {
        let analytic = model::steady_delay(c.tf_effective(m), c.tp, c.ts, c.tr, (m, 1));
        let des = simulate(IoStrategy::OneDip { input_procs: m }, &c, 600).steady_interframe();
        row(&[
            m.to_string(),
            s3(analytic),
            s3(des),
            format!("{:.4}", (des - analytic).abs() / analytic),
        ]);
    }

    // part 3: real pipeline vs DES built from its measured costs
    eprintln!("\nreal-pipeline validation (injected I/O delay):");
    let ds = tiny_dataset();
    let run = |m: usize| {
        PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: m })
            .image_size(64, 64)
            .keep_frames(false)
            .io_delay_scale(40.0)
            .run()
            .expect("pipeline")
    };
    let r1 = run(1);
    let measured = CostTable {
        tf: r1.mean_read_seconds(),
        tp: r1.mean_preprocess_seconds(),
        ts: 0.001,
        tr: r1.mean_render_seconds(),
        saturation: 64,
    };
    eprintln!("measured: Tf={:.3}s Tp={:.3}s Tr={:.3}s", measured.tf, measured.tp, measured.tr);
    eprintln!("{:>3} {:>12} {:>12}", "m", "real_s", "des_s");
    for m in [1usize, 2, 3, 4] {
        let real = run(m).mean_interframe_delay();
        let des = simulate(IoStrategy::OneDip { input_procs: m }, &measured, ds.steps())
            .mean_interframe();
        eprintln!("{m:>3} {real:>12.3} {des:>12.3}");
    }
}
