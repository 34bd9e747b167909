//! The component-major step against [`super::reference`]: every node's
//! velocity and displacement `to_bits`-equal at every substep to the
//! reference flushing at the same horizon, and within [`BUDGET`] of the
//! reference that flushes nothing.

use super::reference::AosSolver;
use super::WaveSolver;
use crate::material::BasinModel;
use crate::source::RickerSource;
use quakeviz_mesh::Vec3;

const SUBSTEPS: usize = 60;
/// What the flush may move: at every substep, no node's displacement or
/// velocity further from the unflushed reference's than this share of the
/// reference's largest magnitude at that substep. Five times the largest
/// f32 rounding noise the flush was seen to stir up over a whole
/// generation (1.9·10⁻⁵ of a step's peak, 64³ × 24).
const BUDGET: f64 = 1e-4;

/// A solver over `basin` whose wavelet peaks around substep 20, from a
/// source ball wider than the coarsest spacing, off-centre so no symmetry
/// hides an index slip.
fn solver(basin: &BasinModel, cells: usize) -> WaveSolver {
    let e = basin.extent;
    let h = (e.x.max(e.y).max(e.z)) / cells as f64;
    let at = Vec3::new(e.x * 0.40, e.y * 0.55, e.z * 0.45);
    let dt = WaveSolver::new(basin, cells, RickerSource::new(at, 1.0, 1e9, h * 1.5)).dt();
    // the wavelet peaks 1.5/f after the start
    let frequency = 1.5 / (20.0 * dt);
    WaveSolver::new(basin, cells, RickerSource::new(at, frequency, 1e9, h * 1.5))
}

fn assert_steps_equal(basin: &BasinModel, cells: usize) {
    let mut s = solver(basin, cells);
    let setup = solver(basin, cells);
    let mut r = AosSolver::new(&setup);
    let (nx, ny, nz) = s.dims();
    let n = nx * ny * nz;
    assert!(setup.sponge.iter().any(|&w| w < 1.0), "the sponge must be active");
    let mut moved = false;
    for step in 1..=SUBSTEPS {
        s.step();
        r.step();
        for i in 0..n {
            let (v, want_v) = (s.velocity(i), r.velocity(i));
            let (u, want_u) = (s.displacement(i), r.displacement(i));
            assert_eq!(
                (v.map(f32::to_bits), u.map(f32::to_bits)),
                (want_v.map(f32::to_bits), want_u.map(f32::to_bits)),
                "cells {cells}, substep {step}, node {i}: velocity {v:?} displacement {u:?}, \
                 reference {want_v:?} {want_u:?}"
            );
            moved |= v.iter().any(|&c| c != 0.0);
        }
    }
    assert!(moved, "cells {cells}: the source never moved a node");
}

/// The largest magnitude of `f` over the nodes, and the largest distance
/// between `f` and `g` at one node.
fn peak_and_gap(
    n: usize,
    f: impl Fn(usize) -> [f32; 3],
    g: impl Fn(usize) -> [f32; 3],
) -> (f64, f64) {
    let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    (0..n).fold((0.0, 0.0), |(peak, gap), i| {
        let (a, b) = (f(i).map(f64::from), g(i).map(f64::from));
        (peak.max(norm(a)), gap.max(norm([0, 1, 2].map(|c| a[c] - b[c]))))
    })
}

/// Steps `s`, flushing, beside the reference that flushes nothing on the
/// same set-up for `substeps` substeps and holds every substep to
/// [`BUDGET`]; the largest share of the peak the two were ever apart.
fn within_budget(mut s: WaveSolver, setup: &WaveSolver, substeps: usize) -> f64 {
    let mut r = AosSolver::unflushed(setup);
    let (nx, ny, nz) = s.dims();
    let n = nx * ny * nz;
    let mut worst = 0.0f64;
    for step in 1..=substeps {
        s.step();
        r.step();
        let u = peak_and_gap(n, |i| r.displacement(i), |i| s.displacement(i));
        let v = peak_and_gap(n, |i| r.velocity(i), |i| s.velocity(i));
        for (what, (peak, gap)) in [("displacement", u), ("velocity", v)] {
            assert!(
                gap <= BUDGET * peak,
                "substep {step}: {what} moved {gap:e}, over {BUDGET} of the peak {peak:e}"
            );
            worst = worst.max(gap / peak);
        }
    }
    worst
}

#[test]
fn component_major_step_matches_the_reference_bit_for_bit() {
    let cube = Vec3::new(4000.0, 4000.0, 4000.0);
    for cells in [4, 8, 16] {
        assert_steps_equal(&BasinModel::homogeneous(cube, 1000.0), cells);
        assert_steps_equal(&BasinModel::la_like(cube), cells);
    }
}

#[test]
fn component_major_step_matches_the_reference_on_a_non_cubic_extent() {
    // spacing differs per axis, so a swapped h² or 1/2h shows
    let extent = Vec3::new(40_000.0, 30_000.0, 20_000.0);
    assert_steps_equal(&BasinModel::la_like(extent), 8);
    assert_steps_equal(&BasinModel::homogeneous(extent, 1500.0), 16);
    // the generated datasets' own basin, whose far field is flushed
    assert_steps_equal(&BasinModel::la_like(Vec3::new(40_000.0, 40_000.0, 20_000.0)), 16);
}

#[test]
fn the_flush_moves_the_output_within_its_budget() {
    // the standard 32³ dataset's set-up (`SimulationBuilder`'s basin,
    // hypocentre and source at 0.15 Hz) for 300 substeps, about eight of
    // its outputs: by then the wavefield has crossed the grid, the far
    // field has decayed through the horizon, and the flush's rounding
    // noise has grown to its plateau (≈ 1.1·10⁻⁵ of the peak)
    let e = Vec3::new(40_000.0, 40_000.0, 20_000.0);
    let basin = BasinModel::la_like(e);
    let cells = 32;
    let at = Vec3::new(e.x * 0.30, e.y * 0.35, e.z * 0.45);
    let source = RickerSource::new(at, 0.15, 1e9, e.x / cells as f64 * 1.6);
    let solver = || WaveSolver::new(&basin, cells, source.clone());
    let worst = within_budget(solver(), &solver(), 300);
    assert!(worst > 0.0, "nothing was flushed: the budget is untested");
}
