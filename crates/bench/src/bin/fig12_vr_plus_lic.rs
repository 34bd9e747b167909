//! Figure 12 — simultaneous volume rendering + surface LIC with 64
//! rendering processors under 1DIP: "when 16 input processors are used,
//! computing the LIC images, other preprocessing, and I/O essentially
//! become free."
//!
//! Columns: m, total time/frame, render time (terascale DES with the LIC
//! preprocessing charged to the input processors).

use quakeviz_bench::{header, row, s3};
use quakeviz_core::des::{simulate, CostTable, FigureOptions};
use quakeviz_core::{model, IoStrategy};

fn main() {
    let c = CostTable::lemieux(64, 512, 512, FigureOptions { lic: true, ..Default::default() });
    eprintln!(
        "VR+LIC cost table: Tf={:.1}s Tp={:.1}s (incl. LIC) Ts={:.2}s Tr={:.2}s",
        c.tf, c.tp, c.ts, c.tr
    );
    header(&["m", "total_s", "render_s"]);
    for m in (2..=18).step_by(2) {
        let r = simulate(IoStrategy::OneDip { input_procs: m }, &c, 300);
        row(&[m.to_string(), s3(r.steady_interframe()), s3(c.tr)]);
    }
    let m_opt = model::onedip_optimal_m(c.tf, c.tp, c.ts, c.tr);
    eprintln!("analytic m = {m_opt} (paper: 16 input processors hide VR+LIC)");
}
