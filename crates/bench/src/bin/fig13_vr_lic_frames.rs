//! Figures 1 & 13 & 14 — image sequences: velocity-magnitude volume
//! rendering over the whole run (Fig 1), simultaneous VR + surface LIC
//! (Fig 13), and the standalone LIC surface texture (Fig 14).
//!
//! Writes `out/fig01_step*.ppm`, `out/fig13_step*.ppm`,
//! `out/fig14_lic.ppm` and prints per-frame timing rows.

use quakeviz_bench::{header, row, s3, standard_dataset, write_ppm};
use quakeviz_core::{IoStrategy, PipelineBuilder};
use quakeviz_lic::{colorize, compute_lic, white_noise, LicParams};
use quakeviz_mesh::Quadtree;

fn main() {
    let ds = standard_dataset();

    // Fig 1: plain velocity-magnitude volume rendering over time
    let plain = PipelineBuilder::new(&ds)
        .renderers(4)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(512, 512)
        .run()
        .expect("pipeline");
    for t in [2usize, 4, 6, 8, 10] {
        write_ppm(&format!("fig01_step{t:02}"), &plain.frames[t]);
    }

    // Fig 13: VR + LIC composited
    let vrlic = PipelineBuilder::new(&ds)
        .renderers(4)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(512, 512)
        .lic(true)
        .enhancement(true)
        .run()
        .expect("pipeline");
    for t in [2usize, 5, 8, 11] {
        write_ppm(&format!("fig13_step{t:02}"), &vrlic.frames[t]);
    }

    // Fig 14: the standalone LIC surface texture of a busy step, plus the
    // paper's "increasingly close-up views of the field"
    let t = ds.steps() * 2 / 3;
    let field = ds.load_step(t);
    let (qt, _) = Quadtree::from_surface_nodes(ds.mesh());
    let extent = ds.mesh().octree().extent();
    let noise = white_noise(768, 768, 0x5eed);
    // full view + two close-ups centred on the epicentral surface region:
    // the regular resampling grid simply covers a smaller window, so the
    // close-ups genuinely resolve finer flow structure (not a pixel zoom)
    let windows = [
        ("fig14_lic", 0.0, 0.0, 1.0),
        ("fig14_lic_zoom2x", 0.15, 0.2, 0.5),
        ("fig14_lic_zoom4x", 0.2, 0.25, 0.25),
    ];
    for (name, ox, oy, frac) in windows {
        let sub = quakeviz_lic::RegularField2D::from_fn(
            768,
            768,
            (extent.x * frac, extent.y * frac),
            |x, y| {
                let wx = extent.x * ox + x;
                let wy = extent.y * oy + y;
                let cell = (extent.x * frac / 768.0).max(extent.y * frac / 768.0);
                let [vx, vy] = qt.idw_sample(wx, wy, cell * 4.0, |id| {
                    let (vx, vy) = field.horizontal(id);
                    [vx as f64, vy as f64]
                });
                (vx as f32, vy as f32)
            },
        );
        let gray = compute_lic(&sub, &noise, &LicParams::default());
        let img = colorize(
            &sub,
            &gray,
            &quakeviz_render::TransferFunction::seismic(),
            sub.max_magnitude(),
        );
        write_ppm(name, &img);
    }

    header(&["variant", "interframe_s", "read_s", "preprocess_s", "render_s"]);
    for (name, r) in [("fig01_plain", &plain), ("fig13_vr_lic", &vrlic)] {
        row(&[
            name.into(),
            s3(r.mean_interframe_delay()),
            s3(r.mean_read_seconds()),
            s3(r.mean_preprocess_seconds()),
            s3(r.mean_render_seconds()),
        ]);
    }
}
