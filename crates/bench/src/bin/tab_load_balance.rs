//! §7 future-work ablation — static vs measured-feedback load balancing.
//!
//! "Presently, the input processors also handle load balancing
//! statically. We plan to investigate a fine-grain load redistribution
//! method." Under a zoomed-in camera most blocks project off screen, so
//! the static cell-count partition leaves renderers idle while a few
//! carry all the visible work; the measured partition reweighs blocks by
//! what the previous frame's render of each cost.
//!
//! Method: per-rank **sequential** render time of each renderer's block
//! set (timesharing rank threads on fewer cores than ranks would mask the
//! imbalance); frame wall-clock = slowest rank. Each camera's
//! [`BrickPlan`]s are built before anything is timed, as a render rank
//! builds them once per run.
//!
//! Columns: camera, partition, frame s (max rank), max/mean imbalance.

use quakeviz_bench::{header, row, s3, standard_dataset};
use quakeviz_core::balance::measured_balanced;
use quakeviz_mesh::{Aabb, Partition, Vec3, WorkloadModel};
use quakeviz_render::{BrickPlan, Camera, RenderParams, TransferFunction};
use std::time::Instant;

fn main() {
    let ds = standard_dataset();
    let mesh = ds.mesh();
    let blocks = mesh.octree().blocks(3);
    let extent = mesh.octree().extent();
    let overview = Camera::default_for(&Aabb::from_extent(extent), 384, 384);
    // close-up on the epicentral region
    let target = Vec3::new(extent.x * 0.3, extent.y * 0.35, extent.z * 0.1);
    let zoomed = Camera::look_at(
        target + Vec3::new(-0.12 * extent.x, -0.1 * extent.y, -0.2 * extent.z),
        target,
        Vec3::new(0.0, 0.0, -1.0),
        0.3,
        384,
        384,
    );
    let tf = TransferFunction::seismic();
    let params =
        RenderParams { opacity_unit: Some(extent.max_component() / 64.0), ..Default::default() };
    let field = ds.load_step(ds.steps() * 2 / 3).magnitude();
    let level = mesh.octree().max_leaf_level();
    let norm = (0.0f32, ds.vmag_max());
    const R: usize = 8;

    header(&["camera", "partition", "frame_s", "max_mean"]);
    for (cam_name, cam) in [("overview", &overview), ("zoomed", &zoomed)] {
        let plans: Vec<BrickPlan> =
            blocks.iter().map(|b| BrickPlan::new(mesh, b, level, cam)).collect();
        let render = |bid: usize| plans[bid].render(&field, norm, false, cam, &tf, &params);
        // measure per-block cost once (the previous frame's feedback)
        let block_secs: Vec<f64> = (0..blocks.len())
            .map(|bid| {
                let t0 = Instant::now();
                let _ = render(bid);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        for scheme in ["static", "measured"] {
            let partition = match scheme {
                "static" => Partition::balanced(mesh, &blocks, R, WorkloadModel::CellCount),
                _ => measured_balanced(&blocks, &block_secs, R),
            };
            let mut rank_secs = Vec::with_capacity(R);
            for rank in 0..R {
                let t0 = Instant::now();
                for &bid in partition.blocks_of(rank) {
                    let _ = render(bid as usize);
                }
                rank_secs.push(t0.elapsed().as_secs_f64());
            }
            let max = rank_secs.iter().copied().fold(0.0f64, f64::max);
            let mean = rank_secs.iter().sum::<f64>() / R as f64;
            row(&[
                cam_name.into(),
                scheme.into(),
                s3(max),
                format!("{:.2}", max / mean.max(1e-12)),
            ]);
        }
    }
    eprintln!("expect: measured-feedback redistribution (the paper's 'fine-grain load");
    eprintln!("redistribution') gives the lowest frame time and max/mean ratio");
}
