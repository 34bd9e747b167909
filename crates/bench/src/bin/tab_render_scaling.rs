//! Rendering scalability ablation — the premise behind the paper's
//! `Tr = 128/renderers` calibration (2 s at 64 PEs → 1 s at 128 PEs for
//! the same frame).
//!
//! Method: partition the blocks over `r` virtual renderers, render each
//! renderer's block set **sequentially on one thread** and take the
//! slowest renderer as the frame's wall-clock — what a machine with one
//! core per rank would measure; running the rank threads on a host with
//! fewer cores than ranks would only show timesharing. Each block's
//! [`BrickPlan`] is built before the timed loop, as a render rank builds
//! it once per run, so the loop times what a rank pays per frame. Reports
//! speedup and parallel efficiency, plus the load imbalance that bounds
//! them.
//!
//! Columns: renderers, render s/frame (max rank), speedup, efficiency,
//! imbalance.

use quakeviz_bench::{header, row, s3, standard_dataset};
use quakeviz_mesh::{Aabb, Partition, WorkloadModel};
use quakeviz_render::{BrickPlan, Camera, RenderParams, TransferFunction};
use std::time::Instant;

fn main() {
    let ds = standard_dataset();
    let mesh = ds.mesh();
    let blocks = mesh.octree().blocks(3);
    let extent = mesh.octree().extent();
    let camera = Camera::default_for(&Aabb::from_extent(extent), 512, 512);
    let tf = TransferFunction::seismic();
    let params =
        RenderParams { opacity_unit: Some(extent.max_component() / 64.0), ..Default::default() };
    // a busy time step
    let field = ds.load_step(ds.steps() * 2 / 3).magnitude();
    let level = mesh.octree().max_leaf_level();
    let norm = (0.0f32, ds.vmag_max());
    let plans: Vec<BrickPlan> =
        blocks.iter().map(|b| BrickPlan::new(mesh, b, level, &camera)).collect();

    header(&["renderers", "render_s", "speedup", "efficiency", "imbalance"]);
    let mut base = 0.0f64;
    for r in [1usize, 2, 4, 8, 16] {
        let partition = Partition::balanced(mesh, &blocks, r, WorkloadModel::CellCount);
        let mut rank_secs = Vec::with_capacity(r);
        for rank in 0..r {
            let t0 = Instant::now();
            for &bid in partition.blocks_of(rank) {
                let _ = plans[bid as usize].render(&field, norm, false, &camera, &tf, &params);
            }
            rank_secs.push(t0.elapsed().as_secs_f64());
        }
        let max = rank_secs.iter().copied().fold(0.0f64, f64::max);
        let mean = rank_secs.iter().sum::<f64>() / r as f64;
        if r == 1 {
            base = max;
        }
        let speedup = base / max;
        row(&[
            r.to_string(),
            s3(max),
            format!("{speedup:.2}"),
            format!("{:.2}", speedup / r as f64),
            format!("{:.2}", max / mean.max(1e-12)),
        ]);
    }
    eprintln!("paper context: Tr halves from 64 to 128 renderers for the same 512² frame");
}
