//! The component-major step against [`super::reference`]: every node's
//! velocity and displacement `to_bits`-equal at every substep.

use super::reference::AosSolver;
use super::WaveSolver;
use crate::material::BasinModel;
use crate::source::RickerSource;
use quakeviz_mesh::Vec3;

const SUBSTEPS: usize = 60;

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
}
