//! Front-to-back ray casting of bricks into screen-space fragments.
//!
//! Each rendering processor ray-casts its own bricks; one brick yields one
//! [`Fragment`] — the premultiplied partial image over the brick's screen
//! rectangle. Fragments are what the sort-last compositing stage exchanges
//! (paper §4.4). A brick is convex, so compositing fragments in global
//! block visibility order reproduces the sequential single-processor image
//! exactly — the invariant the compositing property-tests check.

use crate::brick::{Brick, Stencil};
use crate::camera::Camera;
use crate::image::{over, Rgba, RgbaImage, ScreenRect};
use crate::transfer::{BakedTransfer, TransferFunction};
use quakeviz_mesh::{Aabb, HexMesh, NodeField, OctreeBlock, Vec3};
use quakeviz_rt::obs::prof;
use std::borrow::Borrow;

/// Blinn-Phong lighting parameters (paper §6: "lighting requires
/// calculations of gradient information to approximate local surface
/// orientation plus solving the lighting equation at each sample point").
#[derive(Debug, Clone)]
pub struct LightingParams {
    pub ambient: f32,
    pub diffuse: f32,
    pub specular: f32,
    pub shininess: f32,
    /// Directional light, world space (normalized at use).
    pub light_dir: Vec3,
    /// Gradient magnitude (in normalized-value-per-world-unit) below which
    /// shading is skipped (homogeneous regions have no surface).
    pub gradient_floor: f64,
}

impl Default for LightingParams {
    fn default() -> Self {
        LightingParams {
            ambient: 0.35,
            diffuse: 0.60,
            specular: 0.25,
            shininess: 24.0,
            light_dir: Vec3::new(-0.5, -0.3, -0.8),
            gradient_floor: 1e-4,
        }
    }
}

/// Renderer knobs.
#[derive(Debug, Clone)]
pub struct RenderParams {
    /// March step as a fraction of the brick's smallest cell edge.
    pub step_scale: f64,
    /// Optional gradient lighting.
    pub lighting: Option<LightingParams>,
    /// Stop a ray once accumulated opacity exceeds this.
    pub early_termination: f32,
    /// World length over which the transfer function's opacity applies
    /// once. `None` uses each brick's own cell size (resolution-dependent
    /// appearance); the pipeline sets the finest mesh spacing so opacity
    /// is consistent across bricks and across adaptive levels.
    pub opacity_unit: Option<f64>,
}

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            step_scale: 0.7,
            lighting: None,
            early_termination: 0.98,
            opacity_unit: None,
        }
    }
}

/// The partial image of one block over its screen rectangle
/// (premultiplied RGBA, row-major within `rect`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub block: u32,
    pub rect: ScreenRect,
    pub pixels: Vec<Rgba>,
}

impl Fragment {
    /// Payload bytes if shipped raw (16 B/pixel) — compositing accounting.
    pub fn byte_size(&self) -> u64 {
        self.rect.area() * 16
    }

    /// The pixel at absolute screen coordinates (must lie in `rect`).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgba {
        debug_assert!(self.rect.contains(x, y));
        let w = self.rect.width();
        self.pixels[((y - self.rect.y0) * w + (x - self.rect.x0)) as usize]
    }
}

/// A sample whose corrected opacity is at or below this adds nothing to
/// its ray; a brick none of whose values can exceed it is not marched, and
/// a cell none of whose interpolated values can is not sampled.
const OPACITY_GATE: f32 = 1e-5;

/// The rays of one block under one camera: the block's screen rectangle,
/// the runs of pixels in it whose centre ray crosses the block, and each
/// such ray's `[t0, t1]` ([`Aabb::ray_intersect`] of [`Camera::ray`]).
/// The direction is not kept: the march recomputes it, which is a few
/// multiply-adds and the same bits, so a ray costs 16 bytes here.
#[derive(Debug, Clone)]
pub struct RayTable {
    rect: ScreenRect,
    /// `(row, first, end)` pixel runs, row-major.
    runs: Vec<(u32, u32, u32)>,
    /// `(t0, t1)` of each ray, in run order.
    hits: Vec<(f64, f64)>,
}

impl RayTable {
    /// The rays through `bounds`, or `None` when it projects off screen.
    pub fn new(bounds: &Aabb, camera: &Camera) -> Option<RayTable> {
        Some(RayTable::within(camera.project_aabb(bounds)?, bounds, camera))
    }

    fn within(rect: ScreenRect, bounds: &Aabb, camera: &Camera) -> RayTable {
        let (mut runs, mut hits) = (Vec::<(u32, u32, u32)>::new(), Vec::new());
        for py in rect.y0..rect.y1 {
            for px in rect.x0..rect.x1 {
                let (o, d) = camera.ray(px, py);
                let Some(hit) = bounds.ray_intersect(o, d) else {
                    continue;
                };
                match runs.last_mut() {
                    Some((y, _, end)) if *y == py && *end == px => *end += 1,
                    _ => runs.push((py, px, px + 1)),
                }
                hits.push(hit);
            }
        }
        runs.shrink_to_fit();
        hits.shrink_to_fit();
        RayTable { rect, runs, hits }
    }

    /// Rays that cross the block.
    pub fn rays(&self) -> usize {
        self.hits.len()
    }

    /// Runs of adjacent such rays along a pixel row.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes held: 16 per ray, 12 per run.
    pub fn bytes(&self) -> u64 {
        (self.hits.len() * 16 + self.runs.len() * 12) as u64
    }
}

/// Everything about rendering one block that a run holds fixed — mesh,
/// block, octree level, camera: the brick's [`Stencil`] at the level and
/// one coarser (what a degraded block drops to), and the block's
/// [`RayTable`]. Built once per run, so a frame pays only for the field: a
/// gather and the march. A camera or level change needs a new plan.
#[derive(Debug, Clone)]
pub struct BrickPlan {
    /// At the level, and one coarser.
    stencils: [Stencil; 2],
    /// `None` when the block projects off screen.
    rays: Option<RayTable>,
}

impl BrickPlan {
    /// The plan of `block` at `level` under `camera`.
    pub fn new(mesh: &HexMesh, block: &OctreeBlock, level: u8, camera: &Camera) -> BrickPlan {
        let stencil = |level| Brick::stencil(mesh, block, level);
        BrickPlan {
            stencils: [stencil(level), stencil(level.saturating_sub(1))],
            rays: RayTable::new(&block.root.bounds(mesh.octree().extent()), camera),
        }
    }

    /// [`render_brick`] of [`Brick::from_field`] at the plan's level — or
    /// one coarser — under the plan's camera, with nothing built for a
    /// block off screen.
    pub fn render(
        &self,
        field: &NodeField,
        norm: (f32, f32),
        coarser: bool,
        camera: &Camera,
        tf: &TransferFunction,
        params: &RenderParams,
    ) -> Option<Fragment> {
        let rays = self.rays.as_ref()?;
        let brick = self.stencils[coarser as usize].brick(field, norm);
        publish(cast(&brick, || rays, camera, tf, params))
    }

    /// Heap bytes held by the stencils and the ray table.
    pub fn bytes(&self) -> u64 {
        let stencils: u64 = self.stencils.iter().map(Stencil::bytes).sum();
        stencils + self.rays.as_ref().map_or(0, RayTable::bytes)
    }
}

/// Ray-cast one brick. Returns `None` when the brick projects off screen
/// or contributes nothing (fully transparent).
///
/// The image it defines: along each pixel-centre ray that crosses the
/// brick over `[t0, t1]`, samples at `t0 + ds/2 + k·ds` (`ds` =
/// `step_scale` × the smallest cell edge); at each the clamped trilinear
/// interpolant of the brick ([`Brick::sample`]), mapped through the
/// transfer function with opacity correction `ds / opacity_unit`, shaded
/// (when lit) by the central-difference gradient at ± the smallest cell
/// edge ([`Brick::gradient`]), accumulated front to back while the ray's
/// opacity is below `early_termination`. The loop below computes that in
/// the brick's index space with every per-frame and per-ray constant
/// hoisted; `reference::render_brick` is the same definition written the
/// plain way, and the tests hold the two within one 8-bit level.
///
/// It builds the brick's [`RayTable`] and marches it; a [`BrickPlan`]
/// keeps the table across frames instead.
pub fn render_brick(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> Option<Fragment> {
    let rect = camera.project_aabb(&brick.bounds)?;
    publish(cast(brick, || RayTable::within(rect, &brick.bounds, camera), camera, tf, params))
}

/// Tick one brick's [`Work`] and pass its fragment on.
fn publish((fragment, work): (Option<Fragment>, Work)) -> Option<Fragment> {
    prof::ticks("raycast.rays", work.rays);
    prof::ticks("raycast.samples", work.samples);
    prof::ticks("raycast.samples_culled", work.samples_culled);
    prof::ticks("raycast.early_terminated", work.early_terminated);
    prof::ticks("raycast.bricks_skipped", work.bricks_skipped);
    prof::ticks("raycast.gradients", work.gradients);
    prof::ticks("raycast.gradients_skipped", work.gradients_skipped);
    fragment
}

/// What one brick's cast did — published as prof ticks when
/// QUAKEVIZ_PROF is on. The counts are deterministic for a fixed scene, so
/// `tests/ledger.rs` pins them and catches the work changes wall-clock
/// noise would hide. A skipped brick casts no ray and takes no sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Work {
    /// Rays that hit the brick.
    rays: u64,
    /// Volume samples taken.
    samples: u64,
    /// Of those, samples in a cell the transfer function cannot see: no
    /// interpolation, no table lookup.
    samples_culled: u64,
    /// Rays stopped by early termination.
    early_terminated: u64,
    /// 1 when the transfer function cannot see the brick's value range.
    bricks_skipped: u64,
    /// Lit samples over the gate whose six gradient taps were taken.
    gradients: u64,
    /// Lit samples over the gate in a [`Cell::Flat`] cell: no taps, no
    /// shading.
    gradients_skipped: u64,
}

/// March `brick` along its rays — built by `rays` only once the brick
/// is known to be visible.
fn cast<R: Borrow<RayTable>>(
    brick: &Brick,
    rays: impl FnOnce() -> R,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    let mut work = Work::default();
    let axes = Axes::of(brick);
    let h = axes.h;
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
    let rays = rays();
    let RayTable { rect, runs, hits } = rays.borrow();

    // index space: axis a of world point p sits at (p − min)·s with
    // s = (n−1)/extent, so along a ray it is fo + fd·t — no divide per
    // sample, and every ray leaves from the eye, so fo is per brick
    let (nx, ny, _) = brick.dims();
    let grid = Grid { values: brick.values(), nx, nxy: nx * ny };
    let s = axes.s;
    let eye = camera.eye - brick.bounds.min;
    let fo = [eye.x * s.x, eye.y * s.y, eye.z * s.z];
    let light = params.lighting.as_ref().map(|lp| (lp, -lp.light_dir.normalized()));
    let cells = classify_cells(brick, &baked, &axes, params.lighting.as_ref());

    let w = rect.width() as usize;
    let mut pixels = vec![[0.0f32; 4]; rect.area() as usize];
    let mut any = false;
    let mut hits = hits.iter();
    for &(py, x0, x1) in runs {
        for (px, &(t0, t1)) in (x0..x1).zip(hits.by_ref()) {
            let (_, d) = camera.ray(px, py);
            work.rays += 1;
            let fd = [d.x * s.x, d.y * s.y, d.z * s.z];
            // Blinn-Phong half vector: fixed along a ray
            let lit = light.map(|(lp, l)| (lp, l, (l - d).normalized()));
            let mut acc = [0.0f32; 4];
            let mut t = t0 + ds * 0.5;
            while t < t1 && acc[3] < params.early_termination {
                let f = [fo[0] + fd[0] * t, fo[1] + fd[1] * t, fo[2] + fd[2] * t];
                let xyz = (axes.split(0, f[0]), axes.split(1, f[1]), axes.split(2, f[2]));
                let (x, y, z) = xyz;
                work.samples += 1;
                t += ds;
                let cell = cells[grid.base(x.0, y.0, z.0)];
                if cell == Cell::Hidden {
                    work.samples_culled += 1;
                    continue;
                }
                let mut c = baked.sample(grid.trilinear(x, y, z));
                if c[3] > OPACITY_GATE {
                    if let Some((lp, l, half)) = lit {
                        // in a flat cell `shade` would return untouched
                        if cell == Cell::Flat {
                            work.gradients_skipped += 1;
                        } else {
                            work.gradients += 1;
                            shade(&mut c, axes.gradient(&grid, f, xyz), l, half, lp);
                        }
                    }
                    // front-to-back accumulation
                    let tr = 1.0 - acc[3];
                    acc[0] += c[0] * tr;
                    acc[1] += c[1] * tr;
                    acc[2] += c[2] * tr;
                    acc[3] += c[3] * tr;
                }
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
    (any.then_some(Fragment { block: brick.block_id, rect: *rect, pixels }), work)
}

/// What a sample needs in a cell, decided per brick and per frame from
/// the cell's corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// The transfer function cannot see the cell: no interpolation, no
    /// table lookup.
    Hidden,
    /// Seen; a lit sample in it takes its gradient.
    Seen,
    /// Seen, but no gradient its lit samples can take reaches the floor:
    /// `shade` would return at `gm < gradient_floor`, so the taps and the
    /// shading are skipped.
    Flat,
}

/// Head-room of the flat bound over the arithmetic it does not model:
/// the f32 rounding of a tap difference (2⁻²⁴ relative), the f64 scale
/// and `length()` (a few 2⁻⁵³).
const FLAT_MARGIN: f64 = 1e-6;

/// Per cell, at the index of its lowest corner, a [`Cell`].
///
/// *Hidden*: the trilinear interpolant of the cell's eight corners cannot
/// pass the gate. It stays inside their `[lo, hi]` up to the rounding of
/// a few lerps, which `pad` covers, and the table's opacity over a range
/// is decided exactly ([`BakedTransfer::opacity_exceeds`]) — so a culled
/// sample is one that would have added nothing.
///
/// *Flat* (lit casts only): a tap along axis `a` of a sample in the cell
/// keeps the sample's cell on the other two axes and lands in a cell at
/// most `c = ⌈reach_a⌉` away along `a` (one that rounds onto the node
/// `c + 1` cells up gives that node weight 1 and the next weight 0). So
/// both taps of the axis lie in the padded corner range of the cells
/// within `c` of it along `a`, of width `R_a + 2·pad`: that bounds their
/// difference, and the gradient's length by `√Σ(R_a + 2·pad)² · 0.5/h`.
/// With [`FLAT_MARGIN`] on top and still under the floor, no sample in
/// the cell is shaded.
///
/// A brick holding a non-finite value (whose interpolant can be NaN
/// anywhere it reaches) hides no cell and has no flat one.
fn classify_cells(
    brick: &Brick,
    baked: &BakedTransfer,
    axes: &Axes,
    lighting: Option<&LightingParams>,
) -> Vec<Cell> {
    let values = brick.values();
    let (vmin, vmax) = brick.value_range();
    if !(vmin.is_finite() && vmax.is_finite()) {
        return vec![Cell::Seen; values.len()];
    }
    let pad = cull_pad(vmin, vmax);
    let (nx, ny, nz) = brick.dims();
    let strides = [1, nx, nx * ny];
    // min and max over a cell's corners one axis at a time; entries that
    // are not a cell's lowest corner mix unrelated nodes and are never read
    let (mut lo, mut hi) = (values.to_vec(), values.to_vec());
    for stride in strides {
        for i in 0..values.len() - stride {
            lo[i] = lo[i].min(lo[i + stride]);
            hi[i] = hi[i].max(hi[i + stride]);
        }
    }
    let mut cells: Vec<Cell> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| match baked.opacity_exceeds(l - pad, h + pad, OPACITY_GATE) {
            true => Cell::Seen,
            false => Cell::Hidden,
        })
        .collect();
    let Some(lp) = lighting else {
        return cells;
    };
    let mut sum_sq = vec![0.0f64; values.len()];
    for (a, (stride, n)) in strides.into_iter().zip([nx, ny, nz]).enumerate() {
        let c = axes.reach[a].ceil() as usize;
        let (lo_a, hi_a) = (along(&lo, stride, n, c, f32::min), along(&hi, stride, n, c, f32::max));
        for ((sq, &l), &h) in sum_sq.iter_mut().zip(&lo_a).zip(&hi_a) {
            let r = (h as f64 - l as f64) + 2.0 * pad as f64;
            *sq += r * r;
        }
    }
    let scale = 0.5 / axes.h * (1.0 + FLAT_MARGIN);
    for (cell, sq) in cells.iter_mut().zip(sum_sq) {
        if *cell == Cell::Seen && sq.sqrt() * scale < lp.gradient_floor {
            *cell = Cell::Flat;
        }
    }
    cells
}

/// Per cell of a per-cell table `m`, `pick` over the cells within `c` of
/// it along one axis (of stride `stride` and `n` nodes), clamped to the
/// brick. Entries that are not a cell's lowest corner along that axis are
/// left as they were.
fn along(m: &[f32], stride: usize, n: usize, c: usize, pick: fn(f32, f32) -> f32) -> Vec<f32> {
    let mut out = m.to_vec();
    for plane in (0..m.len()).step_by(stride * n) {
        for a in 0..n - 1 {
            let near = a.saturating_sub(c)..=(a + c).min(n - 2);
            for k in plane..plane + stride {
                let at = |b: usize| m[k + b * stride];
                out[k + a * stride] = near.clone().map(at).fold(at(a), pick);
            }
        }
    }
    out
}

/// How far past its corners' `[lo, hi]` a cell's interpolant may round,
/// for a brick whose finite values lie in `[vmin, vmax]`: a few ulps of
/// the largest magnitude, generously.
fn cull_pad(vmin: f32, vmax: f32) -> f32 {
    1e-6 * vmin.abs().max(vmax.abs()).max(1.0)
}

/// A cell index along one axis and the weight of that cell's upper node.
type Axis = (usize, f32);

/// One axis of a sample position in index space: the cell it falls in
/// and the weight of that cell's upper node. Positions are clamped into
/// the brick, and the top face belongs to the last cell with weight 1, so
/// `i + 1` is always a node.
#[inline(always)]
fn split(f: f64, top: f64, last_cell: usize) -> Axis {
    let f = f.max(0.0).min(top);
    // through i32: `f` is inside `[0, top]`, and i32 converts to and from
    // f64 in one instruction where usize takes a sequence
    let i = (f as i32).min(last_cell as i32);
    (i as usize, (f - i as f64) as f32)
}

/// A brick's index space: where its nodes end along each axis, its
/// world-to-index scale, and how far its gradient taps reach.
struct Axes {
    /// The top node's index, `n − 1`.
    top: [f64; 3],
    /// The last cell's index, `n − 2`.
    last: [usize; 3],
    /// Index units per world unit, `(n − 1)/extent`.
    s: Vec3,
    /// The smallest cell edge, in world units: the taps are ± it.
    h: f64,
    /// The taps' reach, `h·s`, in cells.
    reach: [f64; 3],
}

impl Axes {
    fn of(brick: &Brick) -> Axes {
        let (nx, ny, nz) = brick.dims();
        let top = [(nx - 1) as f64, (ny - 1) as f64, (nz - 1) as f64];
        let e = brick.bounds.extent();
        let s = Vec3::new(top[0] / e.x, top[1] / e.y, top[2] / e.z);
        let h = brick.min_spacing();
        Axes { top, last: [nx - 2, ny - 2, nz - 2], s, h, reach: [h * s.x, h * s.y, h * s.z] }
    }

    /// [`split`] along axis `a`.
    #[inline(always)]
    fn split(&self, a: usize, f: f64) -> Axis {
        split(f, self.top[a], self.last[a])
    }

    /// The gradient at `f` (split as `(x, y, z)`): central differences
    /// at ±h. Each tap moves along one axis and keeps the centre's cell
    /// and weight on the other two. Written out per axis on purpose: a
    /// loop that patches element `a` of an array of the three measured
    /// 3× slower lit.
    #[inline(always)]
    fn gradient(&self, grid: &Grid, f: [f64; 3], (x, y, z): (Axis, Axis, Axis)) -> Vec3 {
        let r = self.reach;
        let (xh, xl) = (self.split(0, f[0] + r[0]), self.split(0, f[0] - r[0]));
        let (yh, yl) = (self.split(1, f[1] + r[1]), self.split(1, f[1] - r[1]));
        let (zh, zl) = (self.split(2, f[2] + r[2]), self.split(2, f[2] - r[2]));
        Vec3::new(
            (grid.trilinear(xh, y, z) - grid.trilinear(xl, y, z)) as f64,
            (grid.trilinear(x, yh, z) - grid.trilinear(x, yl, z)) as f64,
            (grid.trilinear(x, y, zh) - grid.trilinear(x, y, zl)) as f64,
        ) * (0.5 / self.h)
    }
}

/// The brick's samples with the strides the eight corners of a cell need.
struct Grid<'a> {
    values: &'a [f32],
    nx: usize,
    nxy: usize,
}

impl Grid<'_> {
    /// Index of the lowest corner of cell `(i, j, k)`.
    #[inline(always)]
    fn base(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.nx * j + self.nxy * k
    }

    /// Trilinear interpolation inside cell `(i, j, k)` with upper-node
    /// weights `(u, v, w)` — the arithmetic of [`Brick::sample`].
    #[inline(always)]
    fn trilinear(&self, (i, u): Axis, (j, v): Axis, (k, w): Axis) -> f32 {
        let base = self.base(i, j, k);
        // the four x-rows of the cell, two nodes each, out of one slice
        let cell = &self.values[base..base + self.nxy + self.nx + 2];
        let row = |at: usize| cell[at] * (1.0 - u) + cell[at + 1] * u;
        let c0 = row(0) * (1.0 - v) + row(self.nx) * v;
        let c1 = row(self.nxy) * (1.0 - v) + row(self.nxy + self.nx) * v;
        c0 * (1.0 - w) + c1 * w
    }
}

/// Shade a premultiplied sample in place, given the field gradient there,
/// the unit vector towards the light and the unit half vector.
#[inline(always)]
fn shade(s: &mut Rgba, g: Vec3, l: Vec3, half: Vec3, lp: &LightingParams) {
    let gm = g.length();
    if gm < lp.gradient_floor {
        return;
    }
    let n = g * (1.0 / gm);
    let ndotl = n.dot(l).abs() as f32; // two-sided: volumes have no inside
    let spec = (n.dot(half).abs() as f32).powf(lp.shininess) * lp.specular;
    let k = lp.ambient + lp.diffuse * ndotl;
    for c in 0..3 {
        s[c] = s[c] * k + spec * s[3];
    }
}

/// Composite fragments **given in front-to-back order** into a full image
/// — the sequential reference the parallel compositing algorithms must
/// reproduce.
pub fn composite_fragments(fragments: &[&Fragment], width: u32, height: u32) -> RgbaImage {
    let mut img = RgbaImage::new(width, height);
    for f in fragments {
        for y in f.rect.y0..f.rect.y1 {
            for x in f.rect.x0..f.rect.x1 {
                let i = (y * width + x) as usize;
                img.pixels_mut()[i] = over(img.pixels()[i], f.get(x, y));
            }
        }
    }
    img
}

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::Aabb;

    /// A constant-value brick.
    fn const_brick(v: f32) -> Brick {
        Brick::from_values(0, Aabb::UNIT, (2, 2, 2), vec![v; 8])
    }

    fn cam(size: u32) -> Camera {
        Camera::look_at(
            Vec3::new(0.5, 0.5, -3.0),
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(0.0, 1.0, 0.0),
            0.7,
            size,
            size,
        )
    }

    fn opaque_tf() -> TransferFunction {
        TransferFunction::new(vec![(0.0, [1.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 0.0, 0.0, 0.9])])
    }

    #[test]
    fn empty_brick_renders_none() {
        let b = const_brick(0.0);
        let got = render_brick(&b, &cam(32), &opaque_tf(), &RenderParams::default());
        assert!(got.is_none(), "transparent brick must contribute nothing");
    }

    #[test]
    fn solid_brick_renders_center() {
        let b = const_brick(1.0);
        let p = RenderParams { step_scale: 0.25, ..Default::default() };
        let f = render_brick(&b, &cam(32), &opaque_tf(), &p).unwrap();
        assert!(!f.rect.is_empty());
        // the center pixel passes through a full-unit chord; with the TF's
        // 0.9 opacity per unit length the accumulated alpha approaches 0.9
        let c = f.get(16, 16);
        assert!(c[3] > 0.8, "center alpha {}", c[3]);
        assert!(c[0] > 0.7 && c[1] < 0.05);
    }

    #[test]
    fn off_screen_brick_none() {
        let b = Brick::from_values(
            0,
            Aabb::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(101.0, 101.0, 1.0)),
            (2, 2, 2),
            vec![1.0; 8],
        );
        assert!(render_brick(&b, &cam(32), &opaque_tf(), &RenderParams::default()).is_none());
    }

    #[test]
    fn longer_chord_more_opacity() {
        // thin brick vs thick brick with same TF: thick accumulates more
        let thin = Brick::from_values(
            0,
            Aabb::new(Vec3::new(0.0, 0.0, 0.45), Vec3::new(1.0, 1.0, 0.55)),
            (2, 2, 2),
            vec![0.5; 8],
        );
        let thick = const_brick(0.5);
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.3]), (1.0, [1.0, 1.0, 1.0, 0.3])]);
        // a fixed opacity unit makes optical depth proportional to chord
        let p = RenderParams { step_scale: 0.2, opacity_unit: Some(0.5), ..Default::default() };
        let ft = render_brick(&thin, &cam(33), &tf, &p).unwrap();
        let fk = render_brick(&thick, &cam(33), &tf, &p).unwrap();
        assert!(fk.get(16, 16)[3] > ft.get(16, 16)[3]);
    }

    #[test]
    fn step_size_invariance_of_opacity() {
        // opacity correction: halving the step should barely change alpha
        let b = const_brick(0.6);
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.4]), (1.0, [1.0, 1.0, 1.0, 0.4])]);
        let p1 = RenderParams { step_scale: 0.5, ..Default::default() };
        let p2 = RenderParams { step_scale: 0.25, ..Default::default() };
        let f1 = render_brick(&b, &cam(33), &tf, &p1).unwrap();
        let f2 = render_brick(&b, &cam(33), &tf, &p2).unwrap();
        let a1 = f1.get(16, 16)[3];
        let a2 = f2.get(16, 16)[3];
        assert!((a1 - a2).abs() < 0.05, "step-size dependent opacity: {a1} vs {a2}");
    }

    #[test]
    fn lighting_changes_image_on_gradient_field() {
        // a brick with a strong internal gradient
        let mut vals = vec![0.0f32; 27];
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    vals[i + 3 * (j + 3 * k)] = i as f32 / 2.0;
                }
            }
        }
        let b = Brick::from_values(0, Aabb::UNIT, (3, 3, 3), vals);
        let tf = opaque_tf();
        let unlit = render_brick(&b, &cam(33), &tf, &RenderParams::default()).unwrap();
        let lit = render_brick(
            &b,
            &cam(33),
            &tf,
            &RenderParams { lighting: Some(LightingParams::default()), ..Default::default() },
        )
        .unwrap();
        assert_ne!(unlit.pixels, lit.pixels, "lighting must alter shading");
    }

    #[test]
    fn composite_fragments_order_matters() {
        let near = Fragment {
            block: 0,
            rect: ScreenRect::new(0, 0, 1, 1),
            pixels: vec![[0.8, 0.0, 0.0, 0.8]],
        };
        let far = Fragment {
            block: 1,
            rect: ScreenRect::new(0, 0, 1, 1),
            pixels: vec![[0.0, 0.8, 0.0, 0.8]],
        };
        let a = composite_fragments(&[&near, &far], 1, 1);
        let b = composite_fragments(&[&far, &near], 1, 1);
        assert!(a.get(0, 0)[0] > a.get(0, 0)[1], "near-first: red dominates");
        assert!(b.get(0, 0)[1] > b.get(0, 0)[0], "far-first: green dominates");
    }

    #[test]
    fn fragment_byte_size() {
        let f =
            Fragment { block: 0, rect: ScreenRect::new(2, 3, 10, 8), pixels: vec![[0.0; 4]; 40] };
        assert_eq!(f.byte_size(), 40 * 16);
    }
}
