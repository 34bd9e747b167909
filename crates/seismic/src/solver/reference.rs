//! The solver's step as it was before the component-major rewrite, which
//! the tests in [`super::equivalence`] hold [`super::WaveSolver::step`] to.
//!
//! State is array-of-structs (`[f32; 3]` per node) and every neighbour goes
//! through [`mirror`] inside the loop, so the loop cannot be vectorized
//! across nodes; it is the plain statement of the arithmetic the kernel
//! must reproduce bit for bit. It flushes below the solver's horizon at the
//! same two points the kernel does ([`AosSolver::new`]), or nowhere
//! ([`AosSolver::unflushed`]), the form the flush's budget is measured
//! against.

use super::{flush, mirror, WaveSolver};
use quakeviz_rt::par::par_chunks_mut;

/// A copy of a [`WaveSolver`]'s set-up with its own array-of-structs state.
pub struct AosSolver<'a> {
    s: &'a WaveSolver,
    /// Magnitudes below this are stored as 0; 0 flushes nothing.
    horizon: f32,
    step: u64,
    u_prev: Vec<[f32; 3]>,
    u_curr: Vec<[f32; 3]>,
    u_next: Vec<[f32; 3]>,
    div: Vec<f32>,
}

impl<'a> AosSolver<'a> {
    /// Start from `s`'s material, sponge, source and horizon at rest; `s`
    /// itself must not have stepped.
    pub fn new(s: &'a WaveSolver) -> AosSolver<'a> {
        AosSolver::with_horizon(s, s.horizon)
    }

    /// [`AosSolver::new`] storing every value it computes, subnormal or not.
    pub fn unflushed(s: &'a WaveSolver) -> AosSolver<'a> {
        AosSolver::with_horizon(s, 0.0)
    }

    fn with_horizon(s: &'a WaveSolver, horizon: f32) -> AosSolver<'a> {
        assert_eq!(s.step, 0, "the reference starts from a solver at rest");
        let n = s.rho_inv.len();
        AosSolver {
            s,
            horizon,
            step: 0,
            u_prev: vec![[0.0; 3]; n],
            u_curr: vec![[0.0; 3]; n],
            u_next: vec![[0.0; 3]; n],
            div: vec![0.0; n],
        }
    }

    pub fn step(&mut self) {
        let s = self.s;
        let (nx, ny, nz) = s.dims;
        let plane = nx * ny;
        let (hx2, hy2, hz2) = (
            (s.spacing.0 * s.spacing.0) as f32,
            (s.spacing.1 * s.spacing.1) as f32,
            (s.spacing.2 * s.spacing.2) as f32,
        );
        let (ihx, ihy, ihz) =
            ((0.5 / s.spacing.0) as f32, (0.5 / s.spacing.1) as f32, (0.5 / s.spacing.2) as f32);
        let u = &self.u_curr;

        // pass 1: divergence of u at every node
        par_chunks_mut(&mut self.div, plane, |z, dplane| {
            for y in 0..ny {
                for x in 0..nx {
                    let i = x + nx * y;
                    let g = |xx: usize, yy: usize, zz: usize| u[xx + nx * (yy + ny * zz)];
                    let dux =
                        (g(mirror(x, nx, true), y, z)[0] - g(mirror(x, nx, false), y, z)[0]) * ihx;
                    let duy =
                        (g(x, mirror(y, ny, true), z)[1] - g(x, mirror(y, ny, false), z)[1]) * ihy;
                    let duz =
                        (g(x, y, mirror(z, nz, true))[2] - g(x, y, mirror(z, nz, false))[2]) * ihz;
                    dplane[i] = dux + duy + duz;
                }
            }
        });

        // source term for this step
        let dt = s.dt as f32;
        let dt2 = dt * dt;
        let time = self.step as f64 * s.dt;
        let stf = (s.source.amplitude * s.source.time_function(time)) as f32;
        let dir =
            [s.source.direction.x as f32, s.source.direction.y as f32, s.source.direction.z as f32];

        // pass 2: update
        let div = &self.div;
        let u_prev = &self.u_prev;
        let (mu, lam_mu, rho_inv, sponge) = (&s.mu, &s.lam_mu, &s.rho_inv, &s.sponge);
        let eps = self.horizon;
        par_chunks_mut(&mut self.u_next, plane, |z, nplane| {
            for y in 0..ny {
                for x in 0..nx {
                    let li = x + nx * y;
                    let i = li + plane * z;
                    let g = |xx: usize, yy: usize, zz: usize| u[xx + nx * (yy + ny * zz)];
                    let d = |xx: usize, yy: usize, zz: usize| div[xx + nx * (yy + ny * zz)];
                    let uc = u[i];
                    let xm = g(mirror(x, nx, false), y, z);
                    let xp = g(mirror(x, nx, true), y, z);
                    let ym = g(x, mirror(y, ny, false), z);
                    let yp = g(x, mirror(y, ny, true), z);
                    let zm = g(x, y, mirror(z, nz, false));
                    let zp = g(x, y, mirror(z, nz, true));
                    let gd = [
                        (d(mirror(x, nx, true), y, z) - d(mirror(x, nx, false), y, z)) * ihx,
                        (d(x, mirror(y, ny, true), z) - d(x, mirror(y, ny, false), z)) * ihy,
                        (d(x, y, mirror(z, nz, true)) - d(x, y, mirror(z, nz, false))) * ihz,
                    ];
                    let mut next = [0.0f32; 3];
                    for c in 0..3 {
                        let lap = (xp[c] + xm[c] - 2.0 * uc[c]) / hx2
                            + (yp[c] + ym[c] - 2.0 * uc[c]) / hy2
                            + (zp[c] + zm[c] - 2.0 * uc[c]) / hz2;
                        let accel = rho_inv[i] * (mu[i] * lap + lam_mu[i] * gd[c]);
                        next[c] = 2.0 * uc[c] - u_prev[i][c] + dt2 * accel;
                    }
                    // sponge damps the new value (Cerjan)
                    let s = sponge[i];
                    for c in &mut next {
                        *c = flush(*c * s, eps).0;
                    }
                    nplane[li] = next;
                }
            }
        });

        // inject the source ball
        if stf != 0.0 {
            for &(i, w) in &s.source_nodes {
                let f = stf * w * dt2 * s.rho_inv[i];
                for c in 0..3 {
                    self.u_next[i][c] = flush(self.u_next[i][c] + f * dir[c], eps).0;
                }
            }
        }

        std::mem::swap(&mut self.u_prev, &mut self.u_curr);
        std::mem::swap(&mut self.u_curr, &mut self.u_next);
        self.step += 1;
    }

    pub fn velocity(&self, i: usize) -> [f32; 3] {
        let dt = self.s.dt as f32;
        [
            (self.u_curr[i][0] - self.u_prev[i][0]) / dt,
            (self.u_curr[i][1] - self.u_prev[i][1]) / dt,
            (self.u_curr[i][2] - self.u_prev[i][2]) / dt,
        ]
    }

    pub fn displacement(&self, i: usize) -> [f32; 3] {
        self.u_curr[i]
    }
}
