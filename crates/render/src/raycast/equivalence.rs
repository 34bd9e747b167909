//! The kernel against [`super::reference`]: bit for bit against the
//! per-pixel form, within the image contract against the plain way; and
//! the brick skip and cell cull rules at their edges.

use super::{
    cast, classify_cells, composite_fragments, cull_pad, reference, split, Axes, Cell, Fragment,
    Grid, LightingParams, RayTable, RenderParams, Work,
};
use crate::brick::Brick;
use crate::camera::Camera;
use crate::transfer::TransferFunction;
use crate::visibility::front_to_back_order;
use quakeviz_mesh::{Aabb, HexMesh, NodeField, Octree, UniformRefinement, Vec3};
use quakeviz_rt::rng::SplitMix64;

/// 8-bit channels the way the frame writers and the benchmark oracle
/// quantize them.
fn rgba8(p: [f32; 4]) -> [u8; 4] {
    p.map(|c| (c.clamp(0.0, 1.0) * 255.0 + 0.5) as u8)
}

/// Three to six control points at random values; the lowest few are
/// fully transparent so some bricks fall under the skip rule.
fn random_tf(rng: &mut SplitMix64) -> TransferFunction {
    let n = 3 + rng.next_below(4) as usize;
    let clear_below = rng.next_f32() * 0.4;
    let points = (0..n)
        .map(|i| {
            let v = match i {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_f32(),
            };
            let a = if v <= clear_below { 0.0 } else { rng.next_f32() * 0.9 };
            (v, [rng.next_f32(), rng.next_f32(), rng.next_f32(), a])
        })
        .collect();
    TransferFunction::new(points)
}

/// The kernel as a render rank runs it: the brick's ray table built
/// once, then marched.
fn planned(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    match RayTable::new(&brick.bounds, camera) {
        Some(rays) => cast(brick, || &rays, camera, tf, params),
        None => (None, Work::default()),
    }
}

/// Hold a cast to the per-pixel kernel: the same fragment — rect and every
/// pixel — to the bit, and the same work, of which the culled samples
/// are a part; the kernel's gradient counts, which the per-pixel form does
/// not keep, split the lit samples over the gate. Returns the work.
fn assert_bit_identical(got: (Option<Fragment>, Work), want: (Option<Fragment>, Work)) -> Work {
    let ((got, work), (want, old)) = (got, want);
    let bits = |f: &Option<Fragment>| {
        f.as_ref().map(|f| {
            (f.block, f.rect, f.pixels.iter().map(|p| p.map(f32::to_bits)).collect::<Vec<_>>())
        })
    };
    let at = got.as_ref().or(want.as_ref()).map(|f| f.block);
    assert!(
        bits(&got) == bits(&want),
        "fragment of block {at:?} differs from the per-pixel kernel's"
    );
    assert!(work.samples_culled <= work.samples, "{work:?}");
    let lit = work.gradients + work.gradients_skipped;
    assert!(lit <= work.samples - work.samples_culled, "{work:?}");
    let unshared = Work { samples_culled: 0, gradients: 0, gradients_skipped: 0, ..work };
    assert_eq!(unshared, old, "work of block {at:?}");
    work
}

/// [`planned`], held to the per-pixel kernel on the way.
fn checked(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    let got = planned(brick, camera, tf, params);
    assert_bit_identical(got.clone(), reference::cast(brick, camera, tf, params));
    got
}

/// Cast `bricks` (given front to back) with both kernels and hold the
/// contract between them: per brick the same fragment rect, the same ray
/// count and samples within one per ray — or, for a skipped brick, no
/// work at all and nothing from the reference either; per composited
/// frame at most one 8-bit level on at most 0.1 % of the pixels. Returns
/// `(rays marched, bricks skipped, pixels drawn)`.
fn assert_frame_matches<'a>(
    bricks: impl Iterator<Item = &'a Brick>,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> (u64, u64, usize) {
    let (mut new, mut old) = (Vec::new(), Vec::new());
    let (mut marched, mut skipped) = (0, 0);
    for brick in bricks {
        let (got, work) = checked(brick, camera, tf, params);
        let (want, ref_work) = reference::render_brick(brick, camera, tf, params);
        assert_eq!(
            got.as_ref().map(|f| f.rect),
            want.as_ref().map(|f| f.rect),
            "fragment rect of block {}",
            brick.block_id
        );
        if work.bricks_skipped == 1 {
            assert_eq!(work, Work { bricks_skipped: 1, ..Work::default() });
            skipped += 1;
        } else {
            assert_eq!(work.rays, ref_work.rays);
            assert!(
                work.samples.abs_diff(ref_work.samples) <= work.rays,
                "samples {} vs {} over {} rays",
                work.samples,
                ref_work.samples,
                work.rays
            );
            marched += work.rays;
        }
        new.extend(got);
        old.extend(want);
    }
    let (w, h) = (camera.width, camera.height);
    let frame = |frags: &[Fragment]| composite_fragments(&frags.iter().collect::<Vec<_>>(), w, h);
    let (a, b) = (frame(&new), frame(&old));
    let mut differing = 0;
    for (p, q) in a.pixels().iter().zip(b.pixels()) {
        let (p, q) = (rgba8(*p), rgba8(*q));
        let worst = (0..4).map(|c| p[c].abs_diff(q[c])).max().unwrap();
        assert!(worst <= 1, "{w}×{h}: a channel differs by {worst} levels");
        differing += (worst > 0) as usize;
    }
    assert!(
        differing * 1000 <= (w * h) as usize,
        "{w}×{h}: {differing} pixels differ ({marched} rays, {skipped} bricks skipped)"
    );
    (marched, skipped, a.pixels().iter().filter(|p| rgba8(**p)[3] > 0).count())
}

#[test]
fn index_space_kernel_matches_the_reference() {
    // cells of 1/8 × 1/8 × 1/16: the smallest edge is z's, so the x and y
    // gradient taps land half a cell from the sample
    let extent = Vec3::new(2.0, 2.0, 1.0);
    let mesh = HexMesh::from_octree(Octree::build(extent, &UniformRefinement(4)));
    let blocks = mesh.octree().blocks(1);
    let finest = mesh.octree().max_leaf_level();
    let mut rng = SplitMix64::new(0x51ce_2004);

    let mut wave = NodeField::zeros(&mesh);
    let mut noise = NodeField::zeros(&mesh);
    for id in 0..mesh.node_count() as u32 {
        let p = mesh.node_position(id);
        let r = ((p.x - 0.4).powi(2) + (p.y - 0.4).powi(2) + (p.z - 0.2).powi(2)).sqrt();
        // spherical wave fronts that have not reached the far blocks yet
        // (exact zeros there)
        wave.set(id, if r > 0.55 { 0.0 } else { (0.5 + 0.5 * (20.0 * r).cos()) as f32 });
        noise.set(id, rng.next_f32());
    }

    let size = 56;
    let centre = extent * 0.5;
    let up = Vec3::new(0.0, 0.0, -1.0);
    let mut cameras = vec![
        Camera::default_for(&Aabb::from_extent(extent), size, size),
        // inside the volume: bricks pierce the camera plane
        Camera::look_at(Vec3::new(0.9, 1.2, 0.4), Vec3::new(2.0, 0.1, 0.9), up, 0.9, size, size),
    ];
    for _ in 0..2 {
        let dir = Vec3::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5, -rng.next_f64() - 0.1);
        let eye = centre + dir.normalized() * (2.0 + 2.0 * rng.next_f64());
        cameras.push(Camera::look_at(eye, centre, up, 0.5 + 0.4 * rng.next_f64(), size, size));
    }

    let (mut frames, mut skipped, mut marched) = (0, 0u64, 0u64);
    for field in [&wave, &noise] {
        for level in [finest, finest - 1] {
            let bricks: Vec<Brick> = blocks
                .iter()
                .map(|b| Brick::from_field(&mesh, field, b, level, (0.0, 1.0)))
                .collect();
            for camera in &cameras {
                for lit in [false, true] {
                    let tf = random_tf(&mut rng);
                    let params = RenderParams {
                        lighting: lit.then(LightingParams::default),
                        // the pipeline's setting, and each brick's own cell
                        opacity_unit: (rng.next_below(2) == 0).then_some(1.0 / 16.0),
                        ..Default::default()
                    };
                    let order = front_to_back_order(&blocks, extent, camera.eye);
                    let in_order = order.iter().map(|&b| &bricks[b]);
                    let (rays, none, _) = assert_frame_matches(in_order, camera, &tf, &params);
                    marched += rays;
                    skipped += none;
                    frames += 1;
                }
            }
        }
    }
    assert_eq!(frames, 32);
    assert!(skipped > 0 && marched > 10_000, "{skipped} bricks skipped, {marched} rays marched");
}

/// The benchmark's `movie`, `hiding` and `ingest` frames in miniature:
/// the `movie` dataset, 64 blocks at the finest level, the default camera,
/// the seismic map at the pipeline's opacity unit; 256² and 192² lit with
/// temporal enhancement, 64² unlit without. At every one of the 24 steps,
/// through a stencil and ray table built once as a render rank does, the
/// kernel matches the per-pixel form bit for bit; at the last step it also
/// holds the image contract against the plain way.
#[test]
fn workload_shaped_frames_match_the_per_pixel_kernel_at_every_step() {
    use crate::TemporalEnhance;
    use quakeviz_seismic::SimulationBuilder;
    let steps = 24;
    let ds = SimulationBuilder::new()
        .resolution(32)
        .frequency(0.15)
        .steps(steps)
        .run_to_dataset()
        .expect("dataset");
    let mesh = ds.mesh();
    let extent = mesh.octree().extent();
    let blocks = mesh.octree().blocks(2);
    let level = mesh.octree().max_leaf_level();
    let stencils: Vec<_> = blocks.iter().map(|b| Brick::stencil(mesh, b, level)).collect();
    let tf = TransferFunction::seismic();
    let scenes: Vec<_> = [(256, true), (192, true), (64, false)]
        .into_iter()
        .map(|(size, lit)| {
            let camera = Camera::default_for(&Aabb::from_extent(extent), size, size);
            let params = RenderParams {
                lighting: lit.then(LightingParams::default),
                opacity_unit: Some(extent.max_component() / 64.0),
                ..Default::default()
            };
            let order = front_to_back_order(&blocks, extent, camera.eye);
            let rays: Vec<_> =
                blocks.iter().map(|b| RayTable::new(&b.root.bounds(extent), &camera)).collect();
            (size, lit, camera, params, order, rays)
        })
        .collect();

    // one step's frames, on two threads: the steps are independent
    let check = |t: usize| {
        let now = ds.load_step(t).magnitude();
        let before = (t > 0).then(|| ds.load_step(t - 1).magnitude());
        let enhanced = TemporalEnhance::default().apply(&now, before.as_ref(), None);
        let norm = (0.0, ds.norm_at(t));
        let mut sum = Work::default();
        for (size, lit, camera, params, order, rays) in &scenes {
            let field = if *lit { &enhanced } else { &now };
            let mut bricks = Vec::new();
            for &b in order {
                let Some(rays) = &rays[b] else { continue };
                let brick = stencils[b].brick(field, norm);
                let got = cast(&brick, || rays, camera, &tf, params);
                let work = assert_bit_identical(got, reference::cast(&brick, camera, &tf, params));
                sum.samples += work.samples;
                sum.samples_culled += work.samples_culled;
                sum.gradients += work.gradients;
                sum.gradients_skipped += work.gradients_skipped;
                bricks.push(brick);
            }
            if t == steps - 1 {
                let (_, _, shown) = assert_frame_matches(bricks.iter(), camera, &tf, params);
                assert!(shown * 10 > (size * size) as usize, "{size}²: only {shown} pixels drawn");
            }
        }
        sum
    };
    let sum = std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|h| scope.spawn(move || (h..steps).step_by(2).map(check).collect::<Vec<_>>()))
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("a step's check panicked")).fold(
            Work::default(),
            |s, w| Work {
                samples: s.samples + w.samples,
                samples_culled: s.samples_culled + w.samples_culled,
                gradients: s.gradients + w.gradients,
                gradients_skipped: s.gradients_skipped + w.gradients_skipped,
                ..s
            },
        )
    });
    // the quiet region ahead of the wave front is most of what is marched
    let Work { samples, samples_culled: culled, gradients, gradients_skipped: flat, .. } = sum;
    assert!(culled * 4 > samples, "{culled} of {samples} samples culled");
    // and most lit samples over the gate sit where no gradient can light
    let lit = flat + gradients;
    assert!(flat * 2 > lit, "{flat} of {lit} lit samples skipped their gradient taps");
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

fn const_brick(v: f32) -> Brick {
    Brick::from_values(0, Aabb::UNIT, (3, 3, 3), vec![v; 27])
}

/// Opacity rises linearly from 0 at value 0.
fn ramp_tf() -> TransferFunction {
    TransferFunction::new(vec![(0.0, [1.0, 0.5, 0.0, 0.0]), (1.0, [1.0, 0.5, 0.0, 0.9])])
}

#[test]
fn bricks_under_the_gate_are_skipped_and_cost_nothing() {
    let params = RenderParams::default();
    let tf = ramp_tf();
    let skipped = Work { bricks_skipped: 1, ..Work::default() };
    assert_eq!(checked(&const_brick(0.0), &cam(24), &tf, &params), (None, skipped));

    // the largest value whose corrected opacity stays at or under 1e-5
    let baked = tf.baked(params.step_scale as f32);
    let mut under = 0.0f32;
    while baked.sample(f32::from_bits(under.to_bits() + 64))[3] <= 1e-5 {
        under = f32::from_bits(under.to_bits() + 64);
    }
    assert!(under > 0.0 && under < 1e-3, "gate crossing at {under}");
    assert_eq!(checked(&const_brick(under), &cam(24), &tf, &params), (None, skipped));
    // (the reference rounds `1 − a` to f32 before its powf, which at this
    // opacity is ±0.4 %: it may put a few such samples over the gate)
    if let (Some(f), _) = reference::render_brick(&const_brick(under), &cam(24), &tf, &params) {
        assert!(f.pixels.iter().all(|p| rgba8(*p) == [0; 4]), "skipped a brick that shows");
    }

    // one table cell further up the brick is marched, and drawn
    let over = const_brick(under + 1.0 / 4095.0);
    let (got, work) = checked(&over, &cam(24), &tf, &params);
    let (want, ref_work) = reference::render_brick(&over, &cam(24), &tf, &params);
    assert_eq!(work.bricks_skipped, 0);
    assert_eq!((work.rays, work.samples), (ref_work.rays, ref_work.samples));
    assert!(got.is_some() && want.is_some());

    // one value over the gate among values under it is enough
    let mut values = vec![0.0f32; 27];
    values[13] = 0.5;
    let (got, work) =
        checked(&Brick::from_values(0, Aabb::UNIT, (3, 3, 3), values), &cam(24), &tf, &params);
    assert!(got.is_some() && work.bricks_skipped == 0);
}

#[test]
fn nan_renders_as_the_first_control_point() {
    // only the first control point is visible
    let tf = TransferFunction::new(vec![
        (0.0, [0.0, 1.0, 0.0, 0.6]),
        (0.1, [1.0, 0.0, 0.0, 0.0]),
        (1.0, [1.0, 0.0, 0.0, 0.0]),
    ]);
    let params = RenderParams::default();
    let brick = const_brick(f32::NAN);
    assert_eq!(brick.value_range().0, f32::NEG_INFINITY);
    let (got, work) = checked(&brick, &cam(24), &tf, &params);
    let (want, _) = reference::render_brick(&brick, &cam(24), &tf, &params);
    assert_eq!(work.bricks_skipped, 0);
    let (got, want) = (got.unwrap(), want.unwrap());
    let c = got.get(12, 12);
    assert!(c[1] > 0.3 && c[0] == 0.0, "centre pixel {c:?} is not the first control point's green");
    for (p, q) in got.pixels.iter().zip(&want.pixels) {
        assert!((0..4).all(|c| rgba8(*p)[c].abs_diff(rgba8(*q)[c]) <= 1));
    }
}

#[test]
fn upper_face_belongs_to_the_last_cell() {
    // on the face: cell n−2, weight 1 — never cell n−1, which has no
    // upper node
    assert_eq!(split(4.0, 4.0, 3), (3, 1.0));
    assert_eq!(split(7.5, 4.0, 3), (3, 1.0));
    assert_eq!(split(3.25, 4.0, 3), (3, 0.25));
    assert_eq!(split(-0.5, 4.0, 3), (0, 0.0));
    assert_eq!(split(1.0, 1.0, 0), (0, 1.0));
    // the i32 route gives what the usize conversions gave, NaN included
    let mut rng = SplitMix64::new(15);
    for _ in 0..10_000 {
        let n = 2 + rng.next_below(300) as usize;
        let (top, last) = ((n - 1) as f64, n - 2);
        let spread = [1.0, 1e-3, 1e9][rng.next_below(3) as usize];
        let f = match rng.next_below(20) {
            0 => f64::NAN,
            1 => rng.next_below(n as u64) as f64,
            _ => top * 0.5 + (rng.next_f64() - 0.5) * top * 1.2 * spread,
        };
        let g = f.max(0.0).min(top);
        let i = (g as usize).min(last);
        let (got, want) = (split(f, top, last), (i, (g - i as f64) as f32));
        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()), "f = {f}, n = {n}");
    }
    // and the interpolant there is the face value, as in Brick::sample
    let mut values = vec![0.25f32; 27];
    for j in 0..3 {
        for k in 0..3 {
            values[2 + 3 * (j + 3 * k)] = 0.75;
        }
    }
    let brick = Brick::from_values(0, Aabb::UNIT, (3, 3, 3), values);
    let grid = super::Grid { values: brick.values(), nx: 3, nxy: 9 };
    let on_face = grid.trilinear(split(2.0, 2.0, 1), split(0.7, 2.0, 1), split(1.3, 2.0, 1));
    assert_eq!(on_face, 0.75);
    assert_eq!(brick.sample(Vec3::new(1.0, 0.35, 0.65)), 0.75);
}

#[test]
fn a_cells_interpolant_stays_inside_its_padded_corner_range() {
    // corners in [0, 1] as the pipeline's bricks hold them, then at
    // magnitudes from 1e-3 to 1e6, near-equal corners, and opposite signs
    let mut rng = SplitMix64::new(0x0c_e115);
    for round in 0..200_000 {
        let scale = [1.0f32, 1.0, 1e-3, 37.5, 1e6][round % 5];
        let base = rng.next_f32();
        let corners: Vec<f32> = (0..8)
            .map(|_| match round % 4 {
                0 => base + rng.next_f32() * 1e-6,
                1 => (rng.next_f32() - 0.5) * scale,
                _ => rng.next_f32() * scale,
            })
            .collect();
        let (lo, hi) = corners
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let pad = cull_pad(lo, hi);
        let grid = Grid { values: &corners, nx: 2, nxy: 4 };
        for _ in 0..4 {
            // positions as the march splits them, faces and corners included
            let mut f = || match rng.next_below(8) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_f64(),
            };
            let (x, y, z) = (split(f(), 1.0, 0), split(f(), 1.0, 0), split(f(), 1.0, 0));
            let v = grid.trilinear(x, y, z);
            assert!(
                lo - pad <= v && v <= hi + pad,
                "{v} outside [{lo}, {hi}] ± {pad} at {x:?} {y:?} {z:?} from {corners:?}"
            );
        }
    }
}

/// A flat cell's lit samples stay under the gradient floor. Seeded bricks
/// are scaled to the floor so that their gradients straddle it: noise
/// whose amplitude sweeps across it, ramps, a kink where a ramp starts,
/// and constants away from zero, where the lerps' rounding is all a tap
/// difference holds. Cells are cubic (reach 1 on every axis), 2:2:1
/// (reach ½ on x and y) or, with unequal node counts per axis, of any
/// aspect; floors run from 1e-8 to 1e-2. In every flat
/// cell, positions at its corners, on its faces, a hair inside them and
/// anywhere in it are split as the march splits them; where one lands in
/// a flat cell its six taps are taken as `cast` takes them, and the
/// gradient's length is under the floor.
#[test]
fn a_flat_cells_lit_samples_stay_under_the_gradient_floor() {
    let tf = TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.5]), (1.0, [1.0, 1.0, 1.0, 0.5])]);
    let baked = tf.baked(0.7);
    let mut rng = SplitMix64::new(0xf1a7_ce11);
    let (mut flat_cells, mut under, mut over) = (0, 0, 0);
    for round in 0..600 {
        let extent = [Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 2.0, 1.0)][round % 2];
        let d = 3 + rng.next_below(6) as usize;
        let dims =
            [0; 3].map(|_| if round / 8 % 2 == 0 { d } else { 3 + rng.next_below(6) as usize });
        let n = dims[0] * dims[1] * dims[2];
        let floor = 10f64.powf(-8.0 + 6.0 * rng.next_f64());
        let lighting = LightingParams { gradient_floor: floor, ..LightingParams::default() };
        let bounds = Aabb::from_extent(extent);
        let edges = [extent.x, extent.y, extent.z].into_iter().zip(dims);
        let h = edges.map(|(e, d)| e / (d - 1) as f64).fold(f64::INFINITY, f64::min);
        // a value step per cell at which the gradient is about the floor
        let step = (floor * h * 10f64.powf(rng.next_f64() * 2.0 - 1.0)) as f32;
        let base = [0.0f32, 0.5, -3.0][rng.next_below(3) as usize];
        let cut = rng.next_below(dims[0] as u64) as f32;
        let slope = [0; 3].map(|_| rng.next_f32() * 2.0 - 1.0);
        let ijk = |v: usize| [v % dims[0], v / dims[0] % dims[1], v / dims[0] / dims[1]];
        let values: Vec<f32> = (0..n)
            .map(|v| {
                let [i, j, k] = ijk(v).map(|c| c as f32);
                base + step
                    * match round / 2 % 4 {
                        // amplitude rising from 1/10 to 10 steps along x
                        0 => 10f32.powf(2.0 * i / dims[0] as f32 - 1.0) * (rng.next_f32() - 0.5),
                        1 => slope[0] * i + slope[1] * j + slope[2] * k,
                        2 => (i - cut).max(0.0) * 4.0,
                        _ => 0.0,
                    }
            })
            .collect();
        let brick = Brick::from_values(0, bounds, (dims[0], dims[1], dims[2]), values);
        let axes = Axes::of(&brick);
        let cells = classify_cells(&brick, &baked, &axes, Some(&lighting));
        let grid = Grid { values: brick.values(), nx: dims[0], nxy: dims[0] * dims[1] };
        for v in (0..n).filter(|&v| ijk(v).iter().zip(&dims).all(|(&c, &d)| c + 1 < d)) {
            if cells[v] == Cell::Flat {
                flat_cells += 1;
            }
            for _ in 0..6 {
                let f = ijk(v).map(|c| {
                    let c = c as f64;
                    match rng.next_below(8) {
                        0 => c,
                        1 => c + 1.0,
                        2 => f64::from_bits((c + 1.0).to_bits() - 1),
                        3 => c - 1e-12,
                        4 => c + 1.0 + 1e-12,
                        _ => c + rng.next_f64(),
                    }
                });
                let xyz = (axes.split(0, f[0]), axes.split(1, f[1]), axes.split(2, f[2]));
                let cell = cells[grid.base(xyz.0 .0, xyz.1 .0, xyz.2 .0)];
                let gm = axes.gradient(&grid, f, xyz).length();
                match cell {
                    Cell::Flat => {
                        assert!(
                            gm < floor,
                            "|∇| {gm:e} ≥ floor {floor:e} in a flat cell at {f:?} of a {dims:?} \
                             brick, round {round}"
                        );
                        under += 1;
                    }
                    _ => over += (gm >= floor) as u64,
                }
            }
        }
        // a non-finite value anywhere: no cell is flat, none hidden
        let mut values = brick.values().to_vec();
        values[rng.next_below(n as u64) as usize] =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][round % 3];
        let brick = Brick::from_values(0, bounds, (dims[0], dims[1], dims[2]), values);
        let cells = classify_cells(&brick, &baked, &axes, Some(&lighting));
        assert!(cells.iter().all(|&c| c == Cell::Seen), "round {round}: a non-finite brick");
    }
    assert!(flat_cells > 5_000 && under > 20_000 && over > 20_000, "{flat_cells} {under} {over}");
}
