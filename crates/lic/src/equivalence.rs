//! The lockstep kernel and the setup-time stencil against
//! [`crate::reference`], bit for bit.

use crate::field2d::{extract_surface_field, RegularField2D, SurfaceSampler};
use crate::lic::{compute_lic, convolve, LicParams};
use crate::noise::white_noise;
use crate::reference;
use quakeviz_mesh::{HexMesh, Octree, Quadtree, UniformRefinement, Vec3, VectorField};
use quakeviz_rt::rng::SplitMix64;
use quakeviz_seismic::{BasinModel, WavelengthOracle};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn vector_bits(f: &RegularField2D) -> Vec<(u32, u32)> {
    f.vectors.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect()
}

/// A `w × h` field of one of six kinds, in grid coordinates.
fn random_field(rng: &mut SplitMix64, kind: u64, w: u32, h: u32) -> RegularField2D {
    let unit = |rng: &mut SplitMix64| rng.next_f64() * 2.0 - 1.0;
    let (cx, cy) = (rng.next_f64(), rng.next_f64());
    let waves: Vec<[f64; 5]> = (0..3)
        .map(|_| [unit(rng), unit(rng), unit(rng) * 9.0, unit(rng) * 9.0, unit(rng) * 3.0])
        .collect();
    let edge = rng.next_f64();
    let scale = 10f64.powf(unit(rng) * 3.0);
    RegularField2D::from_fn(w, h, (1.0, 1.0), |x, y| {
        let (vx, vy) = match kind {
            // smooth: a few plane waves
            0 => waves.iter().fold((0.0, 0.0), |(vx, vy), [a, b, kx, ky, p]| {
                let s = (kx * x + ky * y + p).sin();
                (vx + a * s, vy + b * s)
            }),
            // vortex about (cx, cy), stagnant at its eye
            1 => (-(y - cy), x - cx),
            // source
            2 => (x - cx, y - cy),
            // sink
            3 => (cx - x, cy - y),
            // flow that stops dead at an edge
            4 if x < edge => (0.0, 0.0),
            4 => (0.3 + y, cx - 0.5),
            // nothing moves
            _ => (0.0, 0.0),
        };
        ((vx * scale) as f32, (vy * scale) as f32)
    })
}

#[test]
fn lockstep_kernel_matches_the_reference() {
    let mut rng = SplitMix64::new(0x11c_2004);
    // one row, one column, one pixel, narrower than a lane group, ragged
    // last group, several row bands
    let shapes = [(1, 1), (1, 17), (23, 1), (5, 3), (8, 8), (19, 37), (64, 48), (41, 96), (96, 80)];
    let (mut cases, mut flowing_cases, mut stagnant_pixels, mut short_lines) = (0, 0, 0u64, 0);
    for round in 0..4 {
        for (k, &(w, h)) in shapes.iter().enumerate() {
            for kind in 0..6 {
                let field = random_field(&mut rng, kind, w, h);
                let noise = white_noise(w, h, rng.next_u64());
                let params = LicParams {
                    kernel_half: [0, 1, 12, 5][(round + k + kind as usize) % 4],
                    step_px: 0.3 + 1.2 * rng.next_f64(),
                    // None and the eight phases k/8; 4/8 zeroes the centre tap
                    phase: match rng.next_below(9) {
                        8 => None,
                        p => Some(p as f64 / 8.0),
                    },
                    // now and then a floor high enough to stop lines midway
                    stagnation_eps: if rng.next_below(3) == 0 { 0.4 } else { 1e-6 },
                };
                let max_mag = field.max_magnitude();
                let (got, steps) = convolve(&field, &noise, &params, max_mag);
                let (want, ref_steps) = reference::compute_lic(&field, &noise, &params);
                let what = format!("{w}×{h} kind {kind} {params:?}");
                assert_eq!(bits(&got), bits(&want), "{what}");
                assert_eq!(steps, ref_steps, "streamline steps, {what}");
                if round == 0 {
                    // the public entry point finds the same maximum itself
                    assert_eq!(bits(&compute_lic(&field, &noise, &params)), bits(&want), "{what}");
                }
                cases += 1;
                flowing_cases += (steps > 0) as u32;
                stagnant_pixels +=
                    got.iter().zip(&noise).filter(|(g, n)| g.to_bits() == n.to_bits()).count()
                        as u64;
                // a line that ran its full length both ways took 2·half steps
                short_lines +=
                    (steps < (w * h) as u64 * 2 * params.kernel_half as u64 && steps > 0) as u32;
            }
        }
    }
    assert!(cases >= 200, "{cases} cases");
    assert!(flowing_cases * 2 > cases, "{flowing_cases} of {cases} cases traced anything");
    assert!(stagnant_pixels > 0 && short_lines > 0);
}

/// Components a field can hold that a smooth flow never does: NaN, the
/// infinities, magnitudes whose square overflows `f32`, and subnormals.
const NON_FINITE: [f32; 9] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e30,
    -1e30,
    f32::MIN_POSITIVE / 4.0,
    -f32::MIN_POSITIVE / 4.0,
    f32::from_bits(1),
    f32::from_bits(0x007f_ffff),
];

#[test]
fn lockstep_kernel_matches_the_reference_on_non_finite_fields() {
    let mut rng = SplitMix64::new(0x11c_0bad);
    let shapes = [(1, 1), (5, 3), (8, 8), (19, 37), (64, 48)];
    // cases by the stagnation floor they end up with
    let (mut finite_floor, mut infinite_floor, mut nan_floor, mut flowing_cases) = (0, 0, 0, 0);
    for round in 0..12 {
        for (k, &(w, h)) in shapes.iter().enumerate() {
            let kind = rng.next_below(6);
            let mut field = random_field(&mut rng, kind, w, h);
            // some cases plant only what leaves the maximum finite
            let palette = if rng.next_below(2) == 0 { &NON_FINITE[..] } else { &NON_FINITE[5..] };
            let palette = if round % 3 == 0 { &NON_FINITE[..1] } else { palette };
            for _ in 0..1 + rng.next_below(1 + (w * h) as u64 / 8) {
                let texel = &mut field.vectors[rng.next_below((w * h) as u64) as usize];
                let value = palette[rng.next_below(palette.len() as u64) as usize];
                match rng.next_below(3) {
                    0 => texel.0 = value,
                    1 => texel.1 = value,
                    _ => *texel = (value, palette[rng.next_below(palette.len() as u64) as usize]),
                }
            }
            let noise = white_noise(w, h, rng.next_u64());
            let params = LicParams {
                kernel_half: [1, 12, 5][(round + k) % 3],
                step_px: 0.3 + 1.2 * rng.next_f64(),
                phase: match rng.next_below(9) {
                    8 => None,
                    p => Some(p as f64 / 8.0),
                },
                // a zero floor times an infinite maximum is a NaN floor
                stagnation_eps: [1e-6, 0.4, 0.0][rng.next_below(3) as usize],
            };
            let max_mag = field.max_magnitude();
            let (got, steps) = convolve(&field, &noise, &params, max_mag);
            let (want, ref_steps) = reference::compute_lic(&field, &noise, &params);
            let what = format!("{w}×{h} kind {kind} round {round} {params:?}");
            assert_eq!(bits(&got), bits(&want), "{what}");
            assert_eq!(steps, ref_steps, "streamline steps, {what}");
            let floor = max_mag * params.stagnation_eps;
            if floor.is_nan() {
                nan_floor += 1;
            } else if floor.is_infinite() {
                infinite_floor += 1;
            } else {
                finite_floor += 1;
            }
            flowing_cases += (steps > 0) as u32;
        }
    }
    assert!(
        finite_floor > 10 && infinite_floor > 0 && nan_floor > 0 && flowing_cases > 10,
        "floors finite / infinite / NaN: {finite_floor} / {infinite_floor} / {nan_floor}, \
         {flowing_cases} cases traced anything"
    );
}

/// A surface velocity field with structure at every scale of the mesh.
fn surface_field(mesh: &HexMesh, seed: u64) -> VectorField {
    let mut rng = SplitMix64::new(seed);
    let e = mesh.octree().extent();
    VectorField::new(
        (0..mesh.node_count() as u32)
            .map(|id| {
                let p = mesh.node_position(id);
                let (x, y) = (p.x / e.x, p.y / e.y);
                let jitter = rng.next_f32() - 0.5;
                [
                    (7.0 * x + 3.0 * y).sin() as f32 * 2.5 + jitter,
                    (5.0 * y - 2.0 * x).cos() as f32 * 0.7 - jitter,
                    rng.next_f32(),
                ]
            })
            .collect(),
    )
}

#[test]
fn stencil_sampler_matches_the_reference_extraction() {
    let uniform = Octree::build(Vec3::new(100.0, 100.0, 50.0), &UniformRefinement(4));
    let extent = Vec3::new(40_000.0, 40_000.0, 20_000.0);
    let refined =
        Octree::build(extent, &WavelengthOracle::new(BasinModel::la_like(extent), 0.15, 6));
    // texels by the number of surface nodes within their radius
    let (mut none, mut one, mut many) = (0, 0, 0);
    for octree in [uniform, refined] {
        let mesh = HexMesh::from_octree(octree);
        let (qt, surface) = Quadtree::from_surface_nodes(&mesh);
        let e = mesh.octree().extent();
        for (w, h) in [(16, 16), (64, 64), (256, 128)] {
            let sampler = SurfaceSampler::new(&mesh, &qt, w, h);
            // a node lies within half a texel diagonal of some texel
            // centre, well inside the two-texel radius: every one is read
            assert_eq!(sampler.nodes(), surface, "sampled nodes at {w}×{h}");
            for seed in [1, 2] {
                let field = surface_field(&mesh, seed);
                let want = vector_bits(&reference::extract_surface_field(&mesh, &field, &qt, w, h));
                let what = format!("{} surface nodes at {w}×{h}", surface.len());
                // one sampler serves every step of a run
                let nodes: Vec<_> = sampler.nodes().iter().map(|&id| field.get(id)).collect();
                assert_eq!(vector_bits(&sampler.sample(&nodes)), want, "sampler, {what}");
                let once = extract_surface_field(&mesh, &field, &qt, w, h);
                assert_eq!(vector_bits(&once), want, "extract_surface_field, {what}");
                assert_eq!((once.width, once.height, once.extent), (w, h, (e.x, e.y)));
            }
            let radius = (e.x / w as f64).max(e.y / h as f64) * 2.0;
            for j in 0..h {
                for i in 0..w {
                    let x = (i as f64 + 0.5) / w as f64 * e.x;
                    let y = (j as f64 + 0.5) / h as f64 * e.y;
                    let mut taps = 0;
                    qt.idw_weights(x, y, radius, |_, _| taps += 1);
                    match taps {
                        0 => none += 1,
                        1 => one += 1,
                        _ => many += 1,
                    }
                }
            }
        }
    }
    assert!(
        none > 0 && one > 0 && many > 0,
        "texels with 0 / 1 / more taps: {none} / {one} / {many}"
    );
}

#[test]
fn a_surface_without_nodes_samples_to_zero() {
    let mesh = HexMesh::from_octree(Octree::build(Vec3::new(1.0, 1.0, 1.0), &UniformRefinement(1)));
    let empty = Quadtree::new((0.0, 0.0), (1.0, 1.0));
    let field = surface_field(&mesh, 3);
    let sampler = SurfaceSampler::new(&mesh, &empty, 4, 4);
    assert!(sampler.nodes().is_empty());
    let got = sampler.sample(&[]);
    assert_eq!(got, reference::extract_surface_field(&mesh, &field, &empty, 4, 4));
    assert!(got.vectors.iter().all(|&v| v == (0.0, 0.0)));
}
