//! Explicit elastic wave solver on the finest-grid nodes.
//!
//! Integrates Navier's equation of linear elastodynamics,
//! `ρ ü = μ ∇²u + (λ+μ) ∇(∇·u) + f`, with the same time discretization as
//! the paper's simulation code: an explicit central-difference scheme
//! (§3). Space is discretized with second-order central differences on the
//! regular grid underlying the octree's finest level — every hexahedral
//! mesh node coincides with a solver grid point, so writing a time step is
//! a pure gather.
//!
//! Nothing is stored below the subnormal horizon `2⁸ · f32::MIN_POSITIVE ·
//! max h²`: a displacement component whose magnitude falls under it is
//! stored as 0, so the far field, which decays smoothly towards zero, never
//! drags the arithmetic through subnormal `f32`s, which the hardware
//! completes only slowly (or, on the paper's Alpha processors, in
//! software).
//!
//! Boundaries: mirror (Neumann) condition at the free surface `z = 0` —
//! waves reflect off the surface, producing the strong surface motion the
//! LIC stage visualizes — and Cerjan sponge layers on the other five faces
//! to absorb outgoing energy. Heterogeneity enters through per-node `ρ`,
//! `μ`, `λ` (modulus gradients are neglected, adequate for the smooth
//! basin model).

use crate::material::BasinModel;
use crate::source::RickerSource;
use quakeviz_mesh::Vec3;
use quakeviz_rt::obs::prof;
use quakeviz_rt::par::par_chunks_mut;
use std::sync::atomic::{AtomicU64, Ordering};

/// Courant number for the CFL limit `dt = cfl · h_min / vp_max`.
const CFL: f64 = 0.4;
/// Sponge width in grid nodes.
const SPONGE_WIDTH: usize = 8;
/// Cerjan damping strength.
const SPONGE_ALPHA: f64 = 0.10;
/// How far the horizon divided by `h²` stays above the smallest normal
/// `f32`: 2⁸, eight binades ([`horizon`]).
const HORIZON_HEADROOM: f64 = 256.0;

/// The explicit finite-difference wave solver.
pub struct WaveSolver {
    /// Nodes per axis.
    dims: (usize, usize, usize),
    /// Grid spacing per axis, metres.
    spacing: (f64, f64, f64),
    dt: f64,
    step: u64,
    /// Magnitudes below this are stored as 0 ([`horizon`]).
    horizon: f32,
    /// Displacement at the previous, current and next step, component-major:
    /// component `c` of node `i` at `c·n + i`.
    u_prev: Vec<f32>,
    u_curr: Vec<f32>,
    u_next: Vec<f32>,
    div: Vec<f32>,
    /// Per-node 1/ρ.
    rho_inv: Vec<f32>,
    /// Per-node μ.
    mu: Vec<f32>,
    /// Per-node λ+μ.
    lam_mu: Vec<f32>,
    /// Per-node sponge factor (1 in the interior).
    sponge: Vec<f32>,
    source: RickerSource,
    /// Precomputed (node index, spatial weight) pairs of the source ball.
    source_nodes: Vec<(usize, f32)>,
}

impl WaveSolver {
    /// Build a solver over `[0, extent]` with `cells` grid cells per axis
    /// (so `cells + 1` nodes per axis).
    pub fn new(basin: &BasinModel, cells: usize, source: RickerSource) -> WaveSolver {
        assert!(cells >= 4, "grid too small");
        let extent = basin.extent;
        let dims = (cells + 1, cells + 1, cells + 1);
        let spacing = (extent.x / cells as f64, extent.y / cells as f64, extent.z / cells as f64);
        let n = dims.0 * dims.1 * dims.2;
        let h_min = spacing.0.min(spacing.1).min(spacing.2);
        let dt = CFL * h_min / basin.vp_max();

        let mut rho_inv = vec![0.0f32; n];
        let mut mu = vec![0.0f32; n];
        let mut lam_mu = vec![0.0f32; n];
        let mut sponge = vec![1.0f32; n];
        let idx = |x: usize, y: usize, z: usize| x + dims.0 * (y + dims.1 * z);
        for z in 0..dims.2 {
            for y in 0..dims.1 {
                for x in 0..dims.0 {
                    let p =
                        Vec3::new(x as f64 * spacing.0, y as f64 * spacing.1, z as f64 * spacing.2);
                    let m = basin.material_at(p);
                    let i = idx(x, y, z);
                    rho_inv[i] = (1.0 / m.rho) as f32;
                    mu[i] = m.mu() as f32;
                    lam_mu[i] = (m.lambda() + m.mu()) as f32;
                    // distance (in nodes) to the five absorbing faces
                    let d = [
                        x,
                        dims.0 - 1 - x,
                        y,
                        dims.1 - 1 - y,
                        dims.2 - 1 - z, // bottom face; z=0 stays free
                    ]
                    .into_iter()
                    .min()
                    .unwrap();
                    if d < SPONGE_WIDTH {
                        let s = SPONGE_ALPHA * (SPONGE_WIDTH - d) as f64;
                        sponge[i] = (-s * s).exp() as f32;
                    }
                }
            }
        }

        // source ball
        let mut source_nodes = Vec::new();
        for z in 0..dims.2 {
            for y in 0..dims.1 {
                for x in 0..dims.0 {
                    let p =
                        Vec3::new(x as f64 * spacing.0, y as f64 * spacing.1, z as f64 * spacing.2);
                    let w = source.spatial_weight((p - source.position).length_sq());
                    if w > 1e-4 {
                        source_nodes.push((idx(x, y, z), w as f32));
                    }
                }
            }
        }
        assert!(
            !source_nodes.is_empty(),
            "source ball misses every grid node; increase its radius (≥ grid spacing)"
        );

        WaveSolver {
            dims,
            spacing,
            dt,
            step: 0,
            horizon: horizon(spacing),
            u_prev: vec![0.0; 3 * n],
            u_curr: vec![0.0; 3 * n],
            u_next: vec![0.0; 3 * n],
            div: vec![0.0; n],
            rho_inv,
            mu,
            lam_mu,
            sponge,
            source,
            source_nodes,
        }
    }

    /// Node counts per axis.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Stable time step, seconds.
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Simulated time, seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.step as f64 * self.dt
    }

    /// Flat index of grid node `(x, y, z)`.
    #[inline]
    pub fn node_index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.0 && y < self.dims.1 && z < self.dims.2);
        x + self.dims.0 * (y + self.dims.1 * z)
    }

    /// Advance one time step.
    ///
    /// Both passes, divergence and update, go row by row. The two edge
    /// nodes of an x-row take their mirrored neighbours one at a time; the
    /// interior is one branch-free loop over equal-length slices (`x ± 1`
    /// within the row, the `y ± 1` rows, the `z ± 1` planes), which the
    /// compiler vectorizes across nodes. Every node runs the same
    /// operations in the same order wherever it sits, so the result is the
    /// node-at-a-time scheme's bit for bit. Every new value then passes one
    /// select against the subnormal horizon, after the source
    /// is injected too; while the profiler is on, the nonzero values it
    /// zeroes tick `seismic.flushed`.
    pub fn step(&mut self) {
        let (nx, ny, nz) = self.dims;
        let rows = Rows { nx, ny, nz };
        let n = nx * ny * nz;
        let plane = nx * ny;
        let h2 = [
            (self.spacing.0 * self.spacing.0) as f32,
            (self.spacing.1 * self.spacing.1) as f32,
            (self.spacing.2 * self.spacing.2) as f32,
        ];
        let ih = [
            (0.5 / self.spacing.0) as f32,
            (0.5 / self.spacing.1) as f32,
            (0.5 / self.spacing.2) as f32,
        ];
        let u = &self.u_curr;

        // pass 1: divergence of u at every node
        par_chunks_mut(&mut self.div, plane, |z, dplane| {
            for (y, drow) in dplane.chunks_exact_mut(nx).enumerate() {
                let t = [0, 1, 2].map(|a| rows.taps(&u[a * n..][..n], y, z, a));
                for x in [0, nx - 1] {
                    drow[x] = divergence(t.map(|t| t.at(x)), ih);
                }
                let out = &mut drow[1..nx - 1];
                let k = out.len();
                // x ± 1 of interior node j + 1 off the one row base
                let ux = &t[0].p[..k + 2];
                let [(yp, ym), (zp, zm)] = [t[1], t[2]].map(|t| t.interior(k));
                for j in 0..k {
                    out[j] = divergence([(ux[j + 2], ux[j]), (yp[j], ym[j]), (zp[j], zm[j])], ih);
                }
            }
        });

        // source term for this step
        let dt = self.dt as f32;
        let dt2 = dt * dt;
        let stf = (self.source.amplitude * self.source.time_function(self.time())) as f32;
        let dir = [
            self.source.direction.x as f32,
            self.source.direction.y as f32,
            self.source.direction.z as f32,
        ];

        // pass 2: update, one component of one plane per chunk
        let pass = Update {
            rows,
            u,
            u_prev: &self.u_prev,
            div: &self.div,
            material: [&self.rho_inv, &self.mu, &self.lam_mu, &self.sponge],
            h2,
            ih,
            dt2,
            eps: self.horizon,
        };
        let counting = prof::enabled();
        let flushed = AtomicU64::new(0);
        par_chunks_mut(&mut self.u_next, plane, |cz, nplane| {
            let dropped = if counting {
                pass.plane::<true>(cz, nplane)
            } else {
                pass.plane::<false>(cz, nplane)
            };
            flushed.fetch_add(dropped.into(), Ordering::Relaxed);
        });
        let mut flushed = flushed.into_inner();

        // inject the source ball
        if stf != 0.0 {
            for &(i, w) in &self.source_nodes {
                let f = stf * w * dt2 * self.rho_inv[i];
                for c in 0..3 {
                    let (v, d) = flush(self.u_next[c * n + i] + f * dir[c], self.horizon);
                    self.u_next[c * n + i] = v;
                    flushed += d as u64;
                }
            }
        }
        prof::ticks("seismic.flushed", flushed);

        // rotate buffers: prev <- curr <- next <- (old prev, overwritten)
        std::mem::swap(&mut self.u_prev, &mut self.u_curr);
        std::mem::swap(&mut self.u_curr, &mut self.u_next);
        self.step += 1;
    }

    /// Particle velocity at node `i`, from the last two displacement
    /// states: `v = (u_curr − u_prev) / dt`.
    #[inline]
    pub fn velocity(&self, i: usize) -> [f32; 3] {
        let (n, dt) = (self.rho_inv.len(), self.dt as f32);
        [0, 1, 2].map(|c| (self.u_curr[c * n + i] - self.u_prev[c * n + i]) / dt)
    }

    /// Displacement at node `i`.
    #[inline]
    pub fn displacement(&self, i: usize) -> [f32; 3] {
        let n = self.rho_inv.len();
        [0, 1, 2].map(|c| self.u_curr[c * n + i])
    }

    /// The stored displacement state: the previous and the current level.
    #[cfg(test)]
    pub(crate) fn state(&self) -> [&[f32]; 2] {
        [&self.u_prev, &self.u_curr]
    }

    /// Squared velocity magnitude of every node, in node order.
    fn speeds_sq(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.rho_inv.len()).map(|i| {
            let v = self.velocity(i);
            (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) as f64
        })
    }

    /// Largest velocity magnitude over the grid (diagnostics and tests).
    pub fn max_velocity(&self) -> f64 {
        self.speeds_sq().fold(0.0, f64::max).sqrt()
    }

    /// Sum of squared velocities — a kinetic-energy proxy for decay tests.
    pub fn kinetic_proxy(&self) -> f64 {
        self.speeds_sq().sum()
    }
}

/// The subnormal horizon of a grid with per-axis spacing `spacing`: the
/// solver stores 0 for every displacement component whose magnitude is
/// below it. It is `2⁸ · f32::MIN_POSITIVE · max h²` (≈ 1.2·10⁻³⁰ at 64³
/// over the default basin). A stored value at the horizon, divided by `h²` in the Laplacian, lands eight
/// binades above the subnormal range, and six through the divergence's
/// gradient (`1/2h` twice), so neither the stored state nor, short of
/// cancellation, the terms built from it pass through subnormals. The
/// flush moves the output only within the budget `solver::equivalence`
/// holds it to.
fn horizon(spacing: (f64, f64, f64)) -> f32 {
    let h2 = (spacing.0 * spacing.0).max(spacing.1 * spacing.1).max(spacing.2 * spacing.2);
    (HORIZON_HEADROOM * f32::MIN_POSITIVE as f64 * h2) as f32
}

/// `v`, or 0 when its magnitude is below the horizon `eps` — a select, not
/// a branch, so the interior loop stays vectorized — and whether a nonzero
/// value was dropped. A NaN passes through.
#[inline(always)]
fn flush(v: f32, eps: f32) -> (f32, bool) {
    let below = v.abs() < eps;
    (if below { 0.0 } else { v }, below & (v != 0.0))
}

/// Mirrored neighbour index along one axis: interior uses ±1, boundaries
/// reflect (free surface at z=0 and a cheap symmetric treatment
/// elsewhere — the sponge handles actual absorption).
#[inline(always)]
fn mirror(i: usize, n: usize, up: bool) -> usize {
    if up {
        if i + 1 < n {
            i + 1
        } else {
            i - 1
        }
    } else if i > 0 {
        i - 1
    } else {
        1
    }
}

/// The grid's x-rows: a component-major field holds one per `(y, z)`.
#[derive(Clone, Copy)]
struct Rows {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Rows {
    /// Row `(y, z)` of the one-component field `f`.
    #[inline(always)]
    fn row(self, f: &[f32], y: usize, z: usize) -> &[f32] {
        &f[self.nx * (y + self.ny * z)..][..self.nx]
    }

    /// The neighbours along axis `axis` of row `(y, z)`'s nodes in `f`.
    #[inline(always)]
    fn taps(self, f: &[f32], y: usize, z: usize, axis: usize) -> Taps<'_> {
        let across = |(yp, zp), (ym, zm)| Taps {
            p: self.row(f, yp, zp),
            m: self.row(f, ym, zm),
            along_x: false,
        };
        match axis {
            0 => {
                let row = self.row(f, y, z);
                Taps { p: row, m: row, along_x: true }
            }
            1 => across((mirror(y, self.ny, true), z), (mirror(y, self.ny, false), z)),
            _ => across((y, mirror(z, self.nz, true)), (y, mirror(z, self.nz, false))),
        }
    }
}

/// The `+` and `−` neighbours of one row's nodes along one axis. Along x
/// both are the row itself, one node over and mirrored at its two ends;
/// along y or z they are the matching nodes of the two neighbouring rows,
/// mirrored once when the rows were picked.
#[derive(Clone, Copy)]
struct Taps<'a> {
    p: &'a [f32],
    m: &'a [f32],
    along_x: bool,
}

impl<'a> Taps<'a> {
    /// The `(+, −)` pair of node `x` — for the two edge nodes of the row.
    #[inline(always)]
    fn at(self, x: usize) -> (f32, f32) {
        if self.along_x {
            let n = self.p.len();
            (self.p[mirror(x, n, true)], self.m[mirror(x, n, false)])
        } else {
            (self.p[x], self.m[x])
        }
    }

    /// The `+` and `−` neighbours of the `k` interior nodes `1..=k`, as two
    /// slices of length `k`.
    #[inline(always)]
    fn interior(self, k: usize) -> (&'a [f32], &'a [f32]) {
        if self.along_x {
            (&self.p[2..][..k], &self.m[..k])
        } else {
            (&self.p[1..][..k], &self.m[1..][..k])
        }
    }
}

/// `∇·u` at one node from its `(+, −)` neighbours' x, y and z components.
#[inline(always)]
fn divergence(t: [(f32, f32); 3], ih: [f32; 3]) -> f32 {
    (t[0].0 - t[0].1) * ih[0] + (t[1].0 - t[1].1) * ih[1] + (t[2].0 - t[2].1) * ih[2]
}

/// What pass 2 of a step reads: one chunk updates one component of one
/// plane.
struct Update<'a> {
    rows: Rows,
    /// The current and previous displacement, component-major, and `∇·u`.
    u: &'a [f32],
    u_prev: &'a [f32],
    div: &'a [f32],
    /// Per node `[1/ρ, μ, λ+μ, sponge]`.
    material: [&'a [f32]; 4],
    h2: [f32; 3],
    ih: [f32; 3],
    dt2: f32,
    /// The horizon ([`horizon`]).
    eps: f32,
}

impl Update<'_> {
    /// Write component `cz / nz` of plane `cz % nz` of the next step into
    /// `nplane`. With `COUNT`, return how many nonzero values the flush
    /// zeroed; without, 0 — the count costs the interior loop ≈ 8 %, so
    /// only a profiled run pays it.
    fn plane<const COUNT: bool>(&self, cz: usize, nplane: &mut [f32]) -> u32 {
        let Rows { nx, ny, nz } = self.rows;
        let (rows, n, eps) = (self.rows, nx * ny * nz, self.eps);
        let (c, z) = (cz / nz, cz % nz);
        let node = Node { h2: self.h2, ih: self.ih[c], dt2: self.dt2 };
        let (uc, prev) = (&self.u[c * n..][..n], &self.u_prev[c * n..][..n]);
        let mut dropped = 0u32;
        for (y, nrow) in nplane.chunks_exact_mut(nx).enumerate() {
            let t = [0, 1, 2].map(|a| rows.taps(uc, y, z, a));
            let g = rows.taps(self.div, y, z, c);
            let (uc, prev) = (rows.row(uc, y, z), rows.row(prev, y, z));
            let m = self.material.map(|f| rows.row(f, y, z));
            for x in [0, nx - 1] {
                let v = node.update(uc[x], prev[x], t.map(|t| t.at(x)), g.at(x), m.map(|f| f[x]));
                let (v, d) = flush(v, eps);
                nrow[x] = v;
                dropped += (COUNT & d) as u32;
            }
            let out = &mut nrow[1..nx - 1];
            let k = out.len();
            let [(yp, ym), (zp, zm)] = [t[1], t[2]].map(|t| t.interior(k));
            let (gp, gm) = g.interior(k);
            // interior node j + 1 and its x ± 1 off the one row base: three
            // slices of one row would cost the loop three of its registers
            let (uc, prev) = (&uc[..k + 2], &prev[1..][..k]);
            let [rho_inv, mu, lam_mu, sponge] = m.map(|f| &f[1..][..k]);
            for j in 0..k {
                let v = node.update(
                    uc[j + 1],
                    prev[j],
                    [(uc[j + 2], uc[j]), (yp[j], ym[j]), (zp[j], zm[j])],
                    (gp[j], gm[j]),
                    [rho_inv[j], mu[j], lam_mu[j], sponge[j]],
                );
                let (v, d) = flush(v, eps);
                out[j] = v;
                dropped += (COUNT & d) as u32;
            }
        }
        dropped
    }
}

/// The update of one displacement component.
#[derive(Clone, Copy)]
struct Node {
    /// Squared spacing per axis.
    h2: [f32; 3],
    /// `1 / 2h` along the component's own axis (its gradient of `∇·u`).
    ih: f32,
    dt2: f32,
}

impl Node {
    /// The new value of one component from its current and previous value,
    /// its `(+, −)` neighbours along x, y and z, the divergence's `(+, −)`
    /// neighbours along its own axis, and the node's `[1/ρ, μ, λ+μ,
    /// sponge]`.
    #[inline(always)]
    fn update(self, uc: f32, prev: f32, t: [(f32, f32); 3], g: (f32, f32), m: [f32; 4]) -> f32 {
        let [rho_inv, mu, lam_mu, sponge] = m;
        let gd = (g.0 - g.1) * self.ih;
        let lap = (t[0].0 + t[0].1 - 2.0 * uc) / self.h2[0]
            + (t[1].0 + t[1].1 - 2.0 * uc) / self.h2[1]
            + (t[2].0 + t[2].1 - 2.0 * uc) / self.h2[2];
        let accel = rho_inv * (mu * lap + lam_mu * gd);
        // the sponge damps the new value (Cerjan)
        (2.0 * uc - prev + self.dt2 * accel) * sponge
    }
}

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup(cells: usize) -> (BasinModel, RickerSource) {
        let extent = Vec3::new(4000.0, 4000.0, 4000.0);
        let basin = BasinModel::homogeneous(extent, 1000.0);
        let h = extent.x / cells as f64;
        let src = RickerSource::new(Vec3::new(2000.0, 2000.0, 2000.0), 1.5, 1e9, h * 1.5);
        (basin, src)
    }

    #[test]
    fn dt_respects_cfl() {
        let (basin, src) = small_setup(16);
        let s = WaveSolver::new(&basin, 16, src);
        let h = 4000.0 / 16.0;
        assert!(s.dt() <= 0.5 * h / basin.vp_max());
        assert!(s.dt() > 0.0);
    }

    #[test]
    fn stays_finite_and_bounded() {
        let (basin, src) = small_setup(16);
        let mut s = WaveSolver::new(&basin, 16, src);
        for _ in 0..300 {
            s.step();
        }
        let m = s.max_velocity();
        assert!(m.is_finite(), "solver blew up");
        assert!(m < 1e12, "unphysically large velocity {m}");
    }

    #[test]
    fn wave_radiates_from_source() {
        let (basin, src) = small_setup(20);
        let mut s = WaveSolver::new(&basin, 20, src.clone());
        // step until just past the wavelet peak
        while s.time() < src.delay() * 1.2 {
            s.step();
        }
        // near the source: strong motion; far corner: still quiet-ish
        let near = s.node_index(10, 10, 10);
        let v_near = (0..3).map(|c| (s.velocity(near)[c] as f64).powi(2)).sum::<f64>().sqrt();
        assert!(v_near > 0.0, "no motion at the source after the wavelet peak");
        // P-wave front position: vp * (t - delay/2)-ish; the corner at
        // distance ~3464 m should see much less than the source region
        let corner = s.node_index(1, 1, 1);
        let v_corner = (0..3).map(|c| (s.velocity(corner)[c] as f64).powi(2)).sum::<f64>().sqrt();
        assert!(
            v_corner < v_near,
            "corner ({v_corner}) should be quieter than source region ({v_near})"
        );
    }

    #[test]
    fn arrival_time_matches_p_speed() {
        let extent = Vec3::new(4000.0, 4000.0, 4000.0);
        let basin = BasinModel::homogeneous(extent, 1000.0);
        let cells = 32;
        let h = extent.x / cells as f64;
        let src = RickerSource::new(Vec3::new(2000.0, 2000.0, 2000.0), 2.0, 1e9, h * 1.5);
        let vp = basin.material_at(Vec3::new(2000.0, 2000.0, 2000.0)).vp;
        let mut s = WaveSolver::new(&basin, cells, src.clone());
        // observe a node 1000 m away along +x
        let obs = s.node_index(24, 16, 16);
        let dist = 1000.0;
        let expect_arrival = src.delay() + dist / vp;
        // record the magnitude time series, then define arrival as the
        // first crossing of 20% of the peak (robust to wavelet onset)
        let mut series: Vec<(f64, f64)> = Vec::new();
        while s.time() < expect_arrival * 2.0 {
            s.step();
            let v = s.velocity(obs);
            let mag = ((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) as f64).sqrt();
            series.push((s.time(), mag));
        }
        let peak = series.iter().map(|&(_, m)| m).fold(0.0, f64::max);
        assert!(peak > 0.0, "wave never arrived");
        let t = series.iter().find(|&&(_, m)| m > 0.2 * peak).map(|&(t, _)| t).unwrap();
        // generous tolerance: wavelet has finite width, source has delay
        assert!(
            (t - expect_arrival).abs() < 0.5 * expect_arrival,
            "arrival {t:.3}s vs expected {expect_arrival:.3}s"
        );
    }

    #[test]
    fn sponge_decays_energy_after_source_stops() {
        let (basin, src) = small_setup(16);
        let active = src.active_until();
        let mut s = WaveSolver::new(&basin, 16, src);
        while s.time() < active {
            s.step();
        }
        // let the field spread and start draining
        let steps_per_window = (0.5 / s.dt()) as usize;
        for _ in 0..steps_per_window * 2 {
            s.step();
        }
        let early = s.kinetic_proxy();
        for _ in 0..steps_per_window * 4 {
            s.step();
        }
        let late = s.kinetic_proxy();
        assert!(late < early, "sponge should drain energy: early {early}, late {late}");
    }

    #[test]
    fn surface_motion_present() {
        // free surface must move (Neumann mirror, not clamped)
        let extent = Vec3::new(4000.0, 4000.0, 4000.0);
        let basin = BasinModel::homogeneous(extent, 1000.0);
        let h = extent.x / 20.0;
        let src = RickerSource::new(Vec3::new(2000.0, 2000.0, 1000.0), 1.5, 1e9, h * 1.5);
        let mut s = WaveSolver::new(&basin, 20, src.clone());
        let surf = s.node_index(10, 10, 0);
        let mut max_surf = 0.0f64;
        while s.time() < src.delay() + 4000.0 / 1000.0 {
            s.step();
            let v = s.velocity(surf);
            let m = ((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) as f64).sqrt();
            max_surf = max_surf.max(m);
        }
        assert!(max_surf > 1e-4, "surface never moved (max {max_surf})");
    }

    #[test]
    #[should_panic(expected = "source ball misses")]
    fn tiny_source_radius_panics() {
        let extent = Vec3::new(4000.0, 4000.0, 4000.0);
        let basin = BasinModel::homogeneous(extent, 1000.0);
        // radius far below grid spacing and offset from any node
        let src = RickerSource::new(Vec3::new(2010.0, 2010.0, 2010.0), 1.5, 1.0, 1e-3);
        let _ = WaveSolver::new(&basin, 8, src);
    }
}
