//! Figure 9 — 1DIP vs 2DIP with 128 rendering processors at 512×512:
//! rendering time ≈ 1 s, but one full step takes Ts ≈ 1.2 s to deliver,
//! so 1DIP can never hide the I/O; 2DIP groups of two cut delivery to
//! 0.6 s and reach the rendering floor. ("In this case, overlapping
//! rendering and I/O is only possible with 2DIP.")
//!
//! Columns: groups, 1DIP total, 2DIP total, render time.

use quakeviz_bench::{header, row, s3};
use quakeviz_core::des::{simulate, CostTable, FigureOptions};
use quakeviz_core::{model, IoStrategy};

fn main() {
    let c = CostTable::lemieux(128, 512, 512, FigureOptions::default());
    let m = model::twodip_optimal_m(c.ts, c.tr);
    eprintln!(
        "cost table: Tf={:.1}s Tp={:.1}s Ts={:.2}s Tr={:.2}s; 2DIP group width m={m}",
        c.tf, c.tp, c.ts, c.tr
    );
    header(&["groups", "onedip_s", "twodip_s", "render_s"]);
    for x in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22] {
        let one = simulate(IoStrategy::OneDip { input_procs: x }, &c, 300).steady_interframe();
        let two =
            simulate(IoStrategy::TwoDip { groups: x, per_group: m }, &c, 300).steady_interframe();
        row(&[x.to_string(), s3(one), s3(two), s3(c.tr)]);
    }
    let n = model::twodip_n(c.tf, c.tp, c.ts, m);
    eprintln!("analytic: 2DIP reaches Tr at n≈{n}; 1DIP floors at Ts={:.2}s > Tr", c.ts);
}
