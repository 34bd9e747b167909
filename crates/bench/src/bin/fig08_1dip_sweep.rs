//! Figure 8 — 1DIP input-processor sweep at terascale: 64 rendering
//! processors, 512×512 images, 100M-cell / 400 MB time steps on the
//! LeMieux-calibrated cost table. The paper: total time per frame falls
//! from ~22 s with one input processor to ≈ the 2 s rendering time at 12.
//!
//! `--adaptive` repeats the sweep with level-8 adaptive fetching (§6 in
//! text: only 4 input processors needed instead of 12).
//!
//! Columns: m, total time/frame (DES steady interframe), rendering time.

use quakeviz_bench::{header, row, s3};
use quakeviz_core::des::{simulate, CostTable, FigureOptions};
use quakeviz_core::{model, IoStrategy};

fn main() {
    let adaptive = std::env::args().any(|a| a == "--adaptive");
    let opts =
        FigureOptions { adaptive_fetch_fraction: adaptive.then_some(0.25), ..Default::default() };
    let c = CostTable::lemieux(64, 512, 512, opts);
    eprintln!(
        "cost table: Tf={:.1}s Tp={:.1}s Ts={:.2}s Tr={:.2}s (adaptive fetch: {adaptive})",
        c.tf, c.tp, c.ts, c.tr
    );
    let m_opt = model::onedip_optimal_m(c.tf, c.tp, c.ts, c.tr);
    header(&["m", "total_s", "render_s"]);
    for m in 1..=16 {
        let r = simulate(IoStrategy::OneDip { input_procs: m }, &c, 300);
        row(&[m.to_string(), s3(r.steady_interframe()), s3(c.tr)]);
    }
    eprintln!("analytic optimal m = {m_opt} (paper: 12 full-res, 4 with adaptive fetching)");
}
