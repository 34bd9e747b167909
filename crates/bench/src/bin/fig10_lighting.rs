//! Figure 10 — rendering 256×256 images **with lighting** and adaptive
//! fetching, on 64 and 128 rendering processors. Lighting raises the
//! rendering cost so much that only 3 (64 PEs) / 4 (128 PEs) input
//! processors are needed to hide the (adaptively reduced) I/O.
//!
//! Columns: m, total@64, render@64, total@128, render@128.

use quakeviz_bench::{header, row, s3};
use quakeviz_core::des::{simulate, CostTable, FigureOptions};
use quakeviz_core::{model, IoStrategy};

fn main() {
    let opts =
        FigureOptions { lighting: true, adaptive_fetch_fraction: Some(0.25), ..Default::default() };
    let c64 = CostTable::lemieux(64, 256, 256, opts);
    let c128 = CostTable::lemieux(128, 256, 256, opts);
    eprintln!(
        "lighting + adaptive fetch: Tf={:.1}s Tp={:.1}s Ts={:.2}s Tr64={:.2}s Tr128={:.2}s",
        c64.tf, c64.tp, c64.ts, c64.tr, c128.tr
    );
    header(&["m", "total64_s", "render64_s", "total128_s", "render128_s"]);
    for m in 1..=6 {
        let r64 = simulate(IoStrategy::OneDip { input_procs: m }, &c64, 300);
        let r128 = simulate(IoStrategy::OneDip { input_procs: m }, &c128, 300);
        row(&[
            m.to_string(),
            s3(r64.steady_interframe()),
            s3(c64.tr),
            s3(r128.steady_interframe()),
            s3(c128.tr),
        ]);
    }
    let m64 = model::onedip_optimal_m(c64.tf, c64.tp, c64.ts, c64.tr);
    let m128 = model::onedip_optimal_m(c128.tf, c128.tp, c128.ts, c128.tr);
    eprintln!("analytic input processors: {m64} @64 PEs, {m128} @128 PEs (paper: 3 and 4)");
}
