//! The ray caster in two earlier forms, which the tests in
//! [`super::equivalence`] hold the kernel to.
//!
//! [`render_brick`] is the plain way, before the index-space rewrite:
//! every sample goes through the world-space [`Brick::sample`], the
//! control-point search and `powf` of [`TransferFunction::sample`], and —
//! when lit — [`Brick::gradient`] and two `normalized()` calls. It is the
//! plain statement of the image [`super::render_brick`] must produce.
//!
//! [`cast`] is the index-space kernel as it was before ray tables and cell
//! culling: per pixel of the brick's rectangle one `camera.ray` and one
//! `ray_intersect`, and every sample interpolated and looked up. The
//! kernel must match it bit for bit.

use super::{split, Fragment, Grid, LightingParams, RenderParams, Work, OPACITY_GATE};
use crate::brick::Brick;
use crate::camera::Camera;
use crate::image::Rgba;
use crate::transfer::TransferFunction;
use quakeviz_mesh::Vec3;

pub fn render_brick(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    let mut work = Work::default();
    let Some(rect) = camera.project_aabb(&brick.bounds) else {
        return (None, work);
    };
    let w = rect.width() as usize;
    let ds = brick.min_spacing() * params.step_scale;
    let ds_ratio = (ds / params.opacity_unit.unwrap_or_else(|| brick.min_spacing())) as f32;
    let mut pixels = vec![[0.0f32; 4]; rect.area() as usize];
    let mut any = false;
    for y in rect.y0..rect.y1 {
        for x in rect.x0..rect.x1 {
            let (o, d) = camera.ray(x, y);
            let Some((t0, t1)) = brick.bounds.ray_intersect(o, d) else {
                continue;
            };
            work.rays += 1;
            let mut acc = [0.0f32; 4];
            let mut t = t0 + ds * 0.5;
            while t < t1 && acc[3] < params.early_termination {
                let p = o + d * t;
                let v = brick.sample(p);
                let mut s = tf.sample(v, ds_ratio);
                if s[3] > 1e-5 {
                    if let Some(lp) = &params.lighting {
                        shade(&mut s, brick, p, d, lp);
                    }
                    // front-to-back accumulation
                    let tr = 1.0 - acc[3];
                    acc[0] += s[0] * tr;
                    acc[1] += s[1] * tr;
                    acc[2] += s[2] * tr;
                    acc[3] += s[3] * tr;
                }
                work.samples += 1;
                t += ds;
            }
            if acc[3] >= params.early_termination {
                work.early_terminated += 1;
            }
            if acc[3] > 0.0 {
                any = true;
                pixels[(y - rect.y0) as usize * w + (x - rect.x0) as usize] = acc;
            }
        }
    }
    (any.then_some(Fragment { block: brick.block_id, rect, pixels }), work)
}

/// Shade a premultiplied sample in place.
fn shade(s: &mut Rgba, brick: &Brick, p: Vec3, view_dir: Vec3, lp: &LightingParams) {
    let g = brick.gradient(p);
    let gm = g.length();
    if gm < lp.gradient_floor {
        return;
    }
    let n = g * (1.0 / gm);
    let l = -lp.light_dir.normalized();
    let ndotl = n.dot(l).abs() as f32; // two-sided: volumes have no inside
    let half = (l - view_dir).normalized();
    let spec = (n.dot(half).abs() as f32).powf(lp.shininess) * lp.specular;
    let k = lp.ambient + lp.diffuse * ndotl;
    for c in 0..3 {
        s[c] = s[c] * k + spec * s[3];
    }
}

pub fn cast(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    let mut work = Work::default();
    let Some(rect) = camera.project_aabb(&brick.bounds) else {
        return (None, work);
    };
    let h = brick.min_spacing();
    let ds = h * params.step_scale;
    let ds_ratio = (ds / params.opacity_unit.unwrap_or(h)) as f32;
    let baked = tf.baked(ds_ratio);

    // interpolated values stay inside the stored range (to within the
    // rounding of the weights, which cannot show in an image)
    let (vmin, vmax) = brick.value_range();
    if !baked.opacity_exceeds(vmin, vmax, OPACITY_GATE) {
        work.bricks_skipped = 1;
        return (None, work);
    }

    // index space: axis a of world point p sits at (p − min)·s with
    // s = (n−1)/extent, so along a ray it is fo + fd·t — no divide per
    // sample, and every ray leaves from the eye, so fo is per brick
    let (nx, ny, nz) = brick.dims();
    let grid = Grid { values: brick.values(), nx, nxy: nx * ny };
    let top = [(nx - 1) as f64, (ny - 1) as f64, (nz - 1) as f64];
    let last = [nx - 2, ny - 2, nz - 2];
    let e = brick.bounds.extent();
    let s = Vec3::new(top[0] / e.x, top[1] / e.y, top[2] / e.z);
    let eye = camera.eye - brick.bounds.min;
    let fo = [eye.x * s.x, eye.y * s.y, eye.z * s.z];
    // the gradient taps' reach along each axis, in cells
    let reach = [h * s.x, h * s.y, h * s.z];
    let light = params.lighting.as_ref().map(|lp| (lp, -lp.light_dir.normalized()));

    let w = rect.width() as usize;
    let mut pixels = vec![[0.0f32; 4]; rect.area() as usize];
    let mut any = false;
    for py in rect.y0..rect.y1 {
        for px in rect.x0..rect.x1 {
            let (o, d) = camera.ray(px, py);
            let Some((t0, t1)) = brick.bounds.ray_intersect(o, d) else {
                continue;
            };
            work.rays += 1;
            let fd = [d.x * s.x, d.y * s.y, d.z * s.z];
            // Blinn-Phong half vector: fixed along a ray
            let lit = light.map(|(lp, l)| (lp, l, (l - d).normalized()));
            let mut acc = [0.0f32; 4];
            let mut t = t0 + ds * 0.5;
            while t < t1 && acc[3] < params.early_termination {
                let f = [fo[0] + fd[0] * t, fo[1] + fd[1] * t, fo[2] + fd[2] * t];
                let at = |a: usize, f: f64| split(f, top[a], last[a]);
                let (x, y, z) = (at(0, f[0]), at(1, f[1]), at(2, f[2]));
                let mut c = baked.sample(grid.trilinear(x, y, z));
                if c[3] > OPACITY_GATE {
                    if let Some((lp, l, half)) = lit {
                        // central differences at ±h: each tap moves along
                        // one axis and keeps the centre's cell and weight
                        // on the other two. Written out per axis on
                        // purpose: a loop that patches element `a` of an
                        // array of the three measured 3× slower lit.
                        let (xh, xl) = (at(0, f[0] + reach[0]), at(0, f[0] - reach[0]));
                        let (yh, yl) = (at(1, f[1] + reach[1]), at(1, f[1] - reach[1]));
                        let (zh, zl) = (at(2, f[2] + reach[2]), at(2, f[2] - reach[2]));
                        let g = Vec3::new(
                            (grid.trilinear(xh, y, z) - grid.trilinear(xl, y, z)) as f64,
                            (grid.trilinear(x, yh, z) - grid.trilinear(x, yl, z)) as f64,
                            (grid.trilinear(x, y, zh) - grid.trilinear(x, y, zl)) as f64,
                        ) * (0.5 / h);
                        super::shade(&mut c, g, l, half, lp);
                    }
                    // front-to-back accumulation
                    let tr = 1.0 - acc[3];
                    acc[0] += c[0] * tr;
                    acc[1] += c[1] * tr;
                    acc[2] += c[2] * tr;
                    acc[3] += c[3] * tr;
                }
                work.samples += 1;
                t += ds;
            }
            if acc[3] >= params.early_termination {
                work.early_terminated += 1;
            }
            if acc[3] > 0.0 {
                any = true;
                pixels[(py - rect.y0) as usize * w + (px - rect.x0) as usize] = acc;
            }
        }
    }
    (any.then_some(Fragment { block: brick.block_id, rect, pixels }), work)
}
