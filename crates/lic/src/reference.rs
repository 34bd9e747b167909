//! The LIC stage as it was before the setup-time stencil and the lockstep
//! kernel: one quadtree search per texel per step, one streamline at a
//! time, `usize` float conversions. It is the plain statement of what
//! [`crate::extract_surface_field`], [`crate::SurfaceSampler`] and
//! [`crate::compute_lic`] must produce; the tests in [`crate::equivalence`]
//! hold them to it bit for bit.

use crate::field2d::RegularField2D;
use crate::lic::LicParams;
use quakeviz_mesh::{HexMesh, Quadtree, VectorField};

/// Bilinear sample at *pixel* coordinates (continuous, clamped).
fn sample_px(field: &RegularField2D, px: f64, py: f64) -> (f32, f32) {
    let fx = (px - 0.5).clamp(0.0, (field.width - 1) as f64);
    let fy = (py - 0.5).clamp(0.0, (field.height - 1) as f64);
    let (i0, j0) = (fx as usize, fy as usize);
    let (i1, j1) =
        ((i0 + 1).min(field.width as usize - 1), (j0 + 1).min(field.height as usize - 1));
    let (u, v) = ((fx - i0 as f64) as f32, (fy - j0 as f64) as f32);
    let g = |i: usize, j: usize| field.vectors[j * field.width as usize + i];
    let lerp2 =
        |a: (f32, f32), b: (f32, f32), t: f32| (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t);
    let top = lerp2(g(i0, j0), g(i1, j0), u);
    let bot = lerp2(g(i0, j1), g(i1, j1), u);
    lerp2(top, bot, v)
}

/// Inverse-distance-weighted interpolation at `(x, y)`: the points within
/// `radius` (the single nearest one when there are none).
fn idw_sample(
    quadtree: &Quadtree,
    x: f64,
    y: f64,
    radius: f64,
    value: impl Fn(u32) -> [f64; 2],
) -> [f64; 2] {
    let mut wsum = 0.0;
    let mut vsum = [0.0; 2];
    let pts = quadtree.query_rect_points((x - radius, y - radius), (x + radius, y + radius));
    for (px, py, pl) in pts {
        let d2 = (px - x) * (px - x) + (py - y) * (py - y);
        if d2 > radius * radius {
            continue;
        }
        let w = 1.0 / (d2 + 1e-12);
        wsum += w;
        let v = value(pl);
        for c in 0..2 {
            vsum[c] += w * v[c];
        }
    }
    if wsum > 0.0 {
        vsum.map(|v| v / wsum)
    } else if let Some((pl, _)) = quadtree.nearest(x, y) {
        value(pl)
    } else {
        [0.0; 2]
    }
}

pub fn extract_surface_field(
    mesh: &HexMesh,
    field: &VectorField,
    quadtree: &Quadtree,
    width: u32,
    height: u32,
) -> RegularField2D {
    let e = mesh.octree().extent();
    let extent = (e.x, e.y);
    let cell = (extent.0 / width as f64).max(extent.1 / height as f64);
    let radius = cell * 2.0;
    let vectors = (0..height as usize * width as usize)
        .map(|idx| {
            let i = idx % width as usize;
            let j = idx / width as usize;
            let x = (i as f64 + 0.5) / width as f64 * extent.0;
            let y = (j as f64 + 0.5) / height as f64 * extent.1;
            let [vx, vy] = idw_sample(quadtree, x, y, radius, |id| {
                let (vx, vy) = field.horizontal(id);
                [vx as f64, vy as f64]
            });
            (vx as f32, vy as f32)
        })
        .collect();
    RegularField2D { width, height, extent, vectors }
}

/// The gray texture and the streamline steps taken for it.
pub fn compute_lic(field: &RegularField2D, noise: &[f32], params: &LicParams) -> (Vec<f32>, u64) {
    let (w, h) = (field.width as usize, field.height as usize);
    assert_eq!(noise.len(), w * h, "noise texture size mismatch");
    let mags: Vec<f32> = field.vectors.iter().map(|&(x, y)| (x * x + y * y).sqrt()).collect();
    let max_mag = mags.into_iter().fold(0.0, f32::max);
    let floor = max_mag * params.stagnation_eps;

    let kernel: Vec<f64> = (0..=2 * params.kernel_half)
        .map(|i| {
            let t = i as f64 / (2 * params.kernel_half) as f64; // 0..1
            match params.phase {
                None => 1.0,
                Some(phase) => {
                    // periodic Hanning window sliding with phase
                    let u = (t - phase).rem_euclid(1.0);
                    0.5 * (1.0 - (2.0 * std::f64::consts::PI * u).cos())
                }
            }
        })
        .collect();

    let mut steps = 0u64;
    let gray = (0..w * h)
        .map(|idx| {
            let x0 = (idx % w) as f64 + 0.5;
            let y0 = (idx / w) as f64 + 0.5;
            let (vx, vy) = sample_px(field, x0, y0);
            if (vx * vx + vy * vy).sqrt() <= floor {
                return noise[idx];
            }
            let sample_noise = |x: f64, y: f64| -> f64 {
                let i = (x as usize).min(w - 1);
                let j = (y as usize).min(h - 1);
                noise[j * w + i] as f64
            };
            let mut acc = kernel[params.kernel_half] * sample_noise(x0, y0);
            let mut wsum = kernel[params.kernel_half];
            // trace both directions
            for dir in [1.0f64, -1.0] {
                let (mut x, mut y) = (x0, y0);
                for s in 1..=params.kernel_half {
                    steps += 1;
                    // RK2 midpoint step
                    let (vx, vy) = sample_px(field, x, y);
                    let m = ((vx * vx + vy * vy) as f64).sqrt();
                    if m <= floor as f64 {
                        break;
                    }
                    let hx = x + dir * params.step_px * 0.5 * vx as f64 / m;
                    let hy = y + dir * params.step_px * 0.5 * vy as f64 / m;
                    let (wx, wy) = sample_px(field, hx, hy);
                    let wm = ((wx * wx + wy * wy) as f64).sqrt();
                    if wm <= floor as f64 {
                        break;
                    }
                    x += dir * params.step_px * wx as f64 / wm;
                    y += dir * params.step_px * wy as f64 / wm;
                    if x < 0.0 || y < 0.0 || x >= w as f64 || y >= h as f64 {
                        break;
                    }
                    let ki =
                        if dir > 0.0 { params.kernel_half + s } else { params.kernel_half - s };
                    acc += kernel[ki] * sample_noise(x, y);
                    wsum += kernel[ki];
                }
            }
            if wsum > 0.0 {
                (acc / wsum) as f32
            } else {
                noise[idx]
            }
        })
        .collect();
    (gray, steps)
}
