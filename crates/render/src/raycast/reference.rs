//! The ray caster as it was before the index-space rewrite: every sample
//! goes through the world-space [`Brick::sample`], the control-point
//! search and `powf` of [`TransferFunction::sample`], and — when lit —
//! [`Brick::gradient`] and two `normalized()` calls. It is the plain
//! statement of the image [`super::render_brick`] must produce; the tests
//! in [`super::equivalence`] compare the two.

use super::{Fragment, LightingParams, RenderParams, Work};
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
