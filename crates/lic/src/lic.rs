//! Line Integral Convolution (Cabral & Leedom 1993).
//!
//! For each output pixel, a streamline of the 2D field is traced forward
//! and backward with fixed-step RK2; the white-noise texture is convolved
//! along it. A periodic (Hanning-windowed, phase-shifted) kernel produces
//! animation frames that give the impression of flow direction (§2.5).

use crate::field2d::{Bilinear, RegularField2D};
use quakeviz_render::{RgbaImage, TransferFunction};
use quakeviz_rt::obs::prof;
use quakeviz_rt::par::par_chunks_mut;
use std::array::from_fn;
use std::sync::atomic::{AtomicU64, Ordering};

/// LIC parameters.
#[derive(Debug, Clone, Copy)]
pub struct LicParams {
    /// Half kernel length in pixels (streamline steps each direction).
    pub kernel_half: usize,
    /// Integration step in pixels.
    pub step_px: f64,
    /// Animation phase in `[0, 1)`; `None` uses a box filter (static LIC).
    pub phase: Option<f64>,
    /// Magnitudes below this fraction of the max are treated as stagnant
    /// (pixel keeps plain noise, avoiding division blow-ups).
    pub stagnation_eps: f32,
}

impl Default for LicParams {
    fn default() -> Self {
        LicParams { kernel_half: 12, step_px: 0.7, phase: None, stagnation_eps: 1e-6 }
    }
}

/// Compute the LIC gray texture of `field` over `noise` (a
/// `width × height` grid matching the field's grid). Returns per-pixel
/// gray values in `[0, 1]`.
pub fn compute_lic(field: &RegularField2D, noise: &[f32], params: &LicParams) -> Vec<f32> {
    compute_lic_with_max(field, noise, params, field.max_magnitude())
}

/// [`compute_lic`] for a caller that already holds the field's
/// [`RegularField2D::max_magnitude`].
pub fn compute_lic_with_max(
    field: &RegularField2D,
    noise: &[f32],
    params: &LicParams,
    max_mag: f32,
) -> Vec<f32> {
    let (gray, steps) = convolve(field, noise, params, max_mag);
    // streamline step count is deterministic for a fixed field; under
    // QUAKEVIZ_PROF it is a work metric `tests/ledger.rs` pins
    prof::ticks("lic.pixels", gray.len() as u64);
    prof::ticks("lic.streamline_steps", steps);
    gray
}

/// Streamlines traced side by side. A streamline step is one chain of
/// dependent operations (sample, square root, divide, sample, square root,
/// divide); a group of independent chains lets the core overlap them.
/// Consecutive pixels of a row, so the lanes also read neighbouring
/// texels. Every lane runs every phase of a step — no lane branches — and
/// a `live` mask decides whether it keeps the result, so each phase's
/// coordinate arithmetic, square roots and divides run as vector
/// instructions. 1 / 4 / 8 / 16 lanes measured 72 / 37 / 23 / 34 ms per
/// 256² frame of the movie workload on one thread (the per-lane-branch
/// kernel: 41–50 ms at 8).
const LANES: usize = 8;

/// Output rows per unit of parallel work.
const BAND_ROWS: usize = 8;

/// The gray texture and the streamline steps taken for it. Per pixel this
/// performs the floating-point operations of `reference::compute_lic` in
/// the same order — the tests hold the two bit-identical — only
/// interleaved across the [`LANES`] pixels of a group.
pub(crate) fn convolve(
    field: &RegularField2D,
    noise: &[f32],
    params: &LicParams,
    max_mag: f32,
) -> (Vec<f32>, u64) {
    let (w, h) = (field.width as usize, field.height as usize);
    assert_eq!(noise.len(), w * h, "noise texture size mismatch");
    let mut gray = vec![0.0f32; w * h];
    if gray.is_empty() {
        return (gray, 0);
    }
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
    let tracer = Tracer {
        field: Bilinear::new(field),
        noise,
        kernel: &kernel,
        half: params.kernel_half,
        step_px: params.step_px,
        floor: max_mag * params.stagnation_eps,
    };
    let steps = AtomicU64::new(0);
    par_chunks_mut(&mut gray, BAND_ROWS * w, |band, rows| {
        let mut taken = 0;
        for (r, row) in rows.chunks_mut(w).enumerate() {
            for (g, out) in row.chunks_mut(LANES).enumerate() {
                taken += tracer.trace(g * LANES, band * BAND_ROWS + r, out);
            }
        }
        steps.fetch_add(taken, Ordering::Relaxed);
    });
    (gray, steps.into_inner())
}

/// What every streamline of one texture shares.
struct Tracer<'a> {
    field: Bilinear<'a>,
    noise: &'a [f32],
    /// `2·half + 1` taps; the pixel itself is tap `half`.
    kernel: &'a [f64],
    half: usize,
    step_px: f64,
    /// Magnitudes at or below this are stagnant.
    floor: f32,
}

impl Tracer<'_> {
    /// Convolve the pixels `(i0.., j)` behind `out` (at most [`LANES`] of
    /// them) in lockstep; returns the streamline steps taken. Lanes past
    /// `out.len()` are dead from the start.
    fn trace(&self, i0: usize, j: usize, out: &mut [f32]) -> u64 {
        let (w, h) = (self.field.w, self.field.h);
        let (wf, hf) = (w as f64, h as f64);
        let floor = self.floor as f64;
        let (row, y0) = (j * w + i0, j as f64 + 0.5);
        let x0: [f64; LANES] = from_fn(|l| (i0 + l) as f64 + 0.5);

        // the field at the pixel: the stagnation test and the first step
        // of both directions
        let (sx, sy) = self.field.at(&x0, &[y0; LANES]);
        let stagnant = |l: usize| (sx[l] * sx[l] + sy[l] * sy[l]).sqrt() <= self.floor;
        let flowing: [bool; LANES] = from_fn(|l| l < out.len() && !stagnant(l));
        let mut acc = [0.0f64; LANES];
        for (acc, &noise) in acc.iter_mut().zip(&self.noise[row..row + out.len()]) {
            *acc = self.kernel[self.half] * noise as f64;
        }
        let mut wsum = [self.kernel[self.half]; LANES];

        let mut steps = 0;
        for dir in [1.0f64, -1.0] {
            let (full, mid) = (dir * self.step_px, dir * self.step_px * 0.5);
            let (mut x, mut y) = (x0, [y0; LANES]);
            let mut live = flowing;
            for s in 1..=self.half {
                if !live.contains(&true) {
                    break;
                }
                let tap = self.kernel[if dir > 0.0 { self.half + s } else { self.half - s }];
                // RK2 midpoint step, every lane; a lane keeps it unless
                // one of the reference's own stopping tests holds, so a
                // NaN magnitude or position, which fails every
                // comparison, goes on as it does there
                let (vx, vy) = if s == 1 { (sx, sy) } else { self.field.at(&x, &y) };
                let m: [f64; LANES] = from_fn(|l| ((vx[l] * vx[l] + vy[l] * vy[l]) as f64).sqrt());
                let hx: [f64; LANES] = from_fn(|l| x[l] + mid * vx[l] as f64 / m[l]);
                let hy: [f64; LANES] = from_fn(|l| y[l] + mid * vy[l] as f64 / m[l]);
                let (wx, wy) = self.field.at(&hx, &hy);
                let wm: [f64; LANES] = from_fn(|l| ((wx[l] * wx[l] + wy[l] * wy[l]) as f64).sqrt());
                let nx: [f64; LANES] = from_fn(|l| x[l] + full * wx[l] as f64 / wm[l]);
                let ny: [f64; LANES] = from_fn(|l| y[l] + full * wy[l] as f64 / wm[l]);
                for l in 0..LANES {
                    let outside = nx[l] < 0.0 || ny[l] < 0.0 || nx[l] >= wf || ny[l] >= hf;
                    let keep = live[l] & !((m[l] <= floor) | (wm[l] <= floor) | outside);
                    // clamped, so a dead lane's position reads a real texel
                    let texel =
                        (ny[l] as i32 as usize).min(h - 1) * w + (nx[l] as i32 as usize).min(w - 1);
                    let tapped = acc[l] + tap * self.noise[texel] as f64;
                    steps += live[l] as u64;
                    x[l] = if keep { nx[l] } else { x[l] };
                    y[l] = if keep { ny[l] } else { y[l] };
                    acc[l] = if keep { tapped } else { acc[l] };
                    wsum[l] = if keep { wsum[l] + tap } else { wsum[l] };
                    live[l] = keep;
                }
            }
        }
        for (l, out) in out.iter_mut().enumerate() {
            *out = if flowing[l] && wsum[l] > 0.0 {
                (acc[l] / wsum[l]) as f32
            } else {
                self.noise[row + l]
            };
        }
        steps
    }
}

/// Colorize a LIC gray texture by velocity magnitude: hue/opacity from the
/// transfer function, luminance modulated by the LIC streaks. This is the
/// image the output processors composite with the volume rendering.
pub fn colorize(
    field: &RegularField2D,
    gray: &[f32],
    tf: &TransferFunction,
    mag_scale: f32,
) -> RgbaImage {
    let (w, h) = (field.width, field.height);
    assert_eq!(gray.len(), (w * h) as usize);
    let mut img = RgbaImage::new(w, h);
    for j in 0..h {
        for i in 0..w {
            let idx = (j * w + i) as usize;
            let (vx, vy) = field.vectors[idx];
            let mag = (vx * vx + vy * vy).sqrt();
            let v = if mag_scale > 0.0 { (mag / mag_scale).min(1.0) } else { 0.0 };
            let c = tf.lookup(v);
            let g = gray[idx];
            // The LIC texture is a ground map: the streaks must stay
            // visible everywhere, tinted (not replaced) by the transfer
            // function's hue, with opacity growing with magnitude so the
            // volume rendering can sit in front of it.
            let a = (0.55 + 0.40 * v).clamp(0.0, 1.0);
            let tint = [(c[0] + 0.5) / 1.5, (c[1] + 0.5) / 1.5, (c[2] + 0.5) / 1.5];
            img.set(i, j, [g * tint[0] * a, g * tint[1] * a, g * tint[2] * a, a]);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::white_noise;

    /// Mean absolute difference between neighbouring texels along an axis.
    fn roughness(gray: &[f32], w: usize, h: usize, axis: usize) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u64;
        for j in 0..h - 1 {
            for i in 0..w - 1 {
                let a = gray[j * w + i];
                let b = if axis == 0 { gray[j * w + i + 1] } else { gray[(j + 1) * w + i] };
                acc += (a - b).abs() as f64;
                n += 1;
            }
        }
        acc / n as f64
    }

    #[test]
    fn horizontal_flow_makes_horizontal_streaks() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 0.0));
        let noise = white_noise(w as u32, w as u32, 42);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        // smooth along x (flow), rough along y (across flow)
        let rx = roughness(&gray, w, w, 0);
        let ry = roughness(&gray, w, w, 1);
        assert!(rx * 1.5 < ry, "streaks must be smooth along the flow: along {rx}, across {ry}");
    }

    #[test]
    fn vertical_flow_rotates_the_streaks() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (0.0, 1.0));
        let noise = white_noise(w as u32, w as u32, 42);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        let rx = roughness(&gray, w, w, 0);
        let ry = roughness(&gray, w, w, 1);
        assert!(ry * 1.5 < rx);
    }

    #[test]
    fn stagnant_region_keeps_noise() {
        let w = 32usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |x, _| {
            if x < 0.5 {
                (0.0, 0.0)
            } else {
                (1.0, 0.0)
            }
        });
        let noise = white_noise(w as u32, w as u32, 3);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        // stagnant pixels return the raw noise
        for j in 0..w {
            for i in 0..8 {
                assert_eq!(gray[j * w + i], noise[j * w + i]);
            }
        }
    }

    #[test]
    fn lic_smooths_variance() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 1.0));
        let noise = white_noise(w as u32, w as u32, 5);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&gray) < var(&noise) * 0.5, "convolution must damp variance");
    }

    #[test]
    fn phase_animation_changes_frames_smoothly() {
        let w = 32usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 0.0));
        let noise = white_noise(w as u32, w as u32, 9);
        let f = |phase: f64| {
            compute_lic(&field, &noise, &LicParams { phase: Some(phase), ..Default::default() })
        };
        let a = f(0.0);
        let b = f(0.25);
        let a2 = f(0.0);
        assert_eq!(a, a2, "deterministic per phase");
        assert_ne!(a, b, "different phases give different frames");
    }

    #[test]
    fn colorize_dimensions_and_opacity() {
        let field = RegularField2D::from_fn(8, 8, (1.0, 1.0), |x, _| (x as f32, 0.0));
        let gray = vec![0.5f32; 64];
        let tf = TransferFunction::seismic();
        let img = colorize(&field, &gray, &tf, field.max_magnitude());
        assert_eq!((img.width(), img.height()), (8, 8));
        // strong-flow side more opaque than stagnant side
        let left = img.get(0, 4)[3];
        let right = img.get(7, 4)[3];
        assert!(right > left, "opacity should grow with magnitude: {left} vs {right}");
    }
}
