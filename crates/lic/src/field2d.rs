//! Regular 2D vector fields and their extraction from the mesh surface.
//!
//! Paper §4.3: "for each time step, the 2D vector field on the surface is
//! extracted from the raw 3D vector fields. Since the extracted vector
//! field is on an irregular grid, to simplify the later LIC calculations a
//! 2D regular-grid vector field is derived using the underlying quadtree.
//! … The resolution of the 2D regular-grid vector field is determined by
//! the image size and the adaptive levels selected by the user."

use quakeviz_mesh::{sorted_unique, HexMesh, NodeId, Quadtree, VectorField};
use quakeviz_rt::obs::prof;
use quakeviz_rt::par::par_chunks_mut;
use std::array::from_fn;
use std::ops::Range;

/// A regular grid of 2D vectors over the ground rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct RegularField2D {
    pub width: u32,
    pub height: u32,
    /// Physical extent of the surface (x, y).
    pub extent: (f64, f64),
    /// Row-major `(vx, vy)` samples.
    pub vectors: Vec<(f32, f32)>,
}

impl RegularField2D {
    pub fn new(width: u32, height: u32, extent: (f64, f64), vectors: Vec<(f32, f32)>) -> Self {
        assert_eq!(vectors.len(), (width * height) as usize);
        RegularField2D { width, height, extent, vectors }
    }

    /// Build from an analytic function of grid coordinates (tests).
    pub fn from_fn(
        width: u32,
        height: u32,
        extent: (f64, f64),
        f: impl Fn(f64, f64) -> (f32, f32),
    ) -> Self {
        let mut vectors = Vec::with_capacity((width * height) as usize);
        for j in 0..height {
            for i in 0..width {
                let x = (i as f64 + 0.5) / width as f64 * extent.0;
                let y = (j as f64 + 0.5) / height as f64 * extent.1;
                vectors.push(f(x, y));
            }
        }
        RegularField2D { width, height, extent, vectors }
    }

    /// Bilinear sample at *pixel* coordinates (continuous, clamped).
    #[inline]
    pub fn sample_px(&self, px: f64, py: f64) -> (f32, f32) {
        let ([vx], [vy]) = Bilinear::new(self).at(&[px], &[py]);
        (vx, vy)
    }

    /// Largest magnitude (normalization).
    pub fn max_magnitude(&self) -> f32 {
        self.vectors.iter().map(|&(x, y)| (x * x + y * y).sqrt()).fold(0.0, f32::max)
    }
}

/// The bilinear sampler of one field with its size and clamp limits
/// resolved once, so a loop that samples many points pays for them once.
pub(crate) struct Bilinear<'a> {
    vectors: &'a [(f32, f32)],
    pub(crate) w: usize,
    pub(crate) h: usize,
    /// The largest texel coordinates, `w − 1` and `h − 1`.
    xmax: f64,
    ymax: f64,
}

impl<'a> Bilinear<'a> {
    pub(crate) fn new(field: &'a RegularField2D) -> Self {
        let (w, h) = (field.width as usize, field.height as usize);
        Bilinear { vectors: &field.vectors, w, h, xmax: (w - 1) as f64, ymax: (h - 1) as f64 }
    }

    /// The field at `N` points in *pixel* coordinates (continuous,
    /// clamped), as their x and their y components. Phase by phase over the
    /// points, so the coordinate and lerp arithmetic runs as vector
    /// instructions and only the texel loads go one point at a time. A NaN
    /// coordinate survives the clamp and reads texel 0 with a NaN weight.
    #[inline(always)]
    pub(crate) fn at<const N: usize>(&self, px: &[f64; N], py: &[f64; N]) -> ([f32; N], [f32; N]) {
        let fx: [f64; N] = from_fn(|l| (px[l] - 0.5).clamp(0.0, self.xmax));
        let fy: [f64; N] = from_fn(|l| (py[l] - 0.5).clamp(0.0, self.ymax));
        // split through i32, which converts to and from f64 in one
        // instruction where usize takes a sequence; the clamp keeps both
        // inside it for any grid that fits in memory
        let i0: [i32; N] = from_fn(|l| fx[l] as i32);
        let j0: [i32; N] = from_fn(|l| fy[l] as i32);
        let u: [f32; N] = from_fn(|l| (fx[l] - i0[l] as f64) as f32);
        let v: [f32; N] = from_fn(|l| (fy[l] - j0[l] as f64) as f32);
        let corners: [[(f32, f32); 4]; N] = from_fn(|l| {
            let (i0, j0) = (i0[l] as usize, j0[l] as usize);
            let (i1, j1) = ((i0 + 1).min(self.w - 1), (j0 + 1).min(self.h - 1));
            let g = |i: usize, j: usize| self.vectors[j * self.w + i];
            [g(i0, j0), g(i1, j0), g(i0, j1), g(i1, j1)]
        });
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let vx = from_fn(|l| {
            let [c00, c10, c01, c11] = corners[l];
            lerp(lerp(c00.0, c10.0, u[l]), lerp(c01.0, c11.0, u[l]), v[l])
        });
        let vy = from_fn(|l| {
            let [c00, c10, c01, c11] = corners[l];
            lerp(lerp(c00.1, c10.1, u[l]), lerp(c01.1, c11.1, u[l]), v[l])
        });
        (vx, vy)
    }
}

/// What one texel of a [`SurfaceSampler`] reads. Nodes are named by their
/// position in [`SurfaceSampler::nodes`].
#[derive(Debug, Clone)]
enum Texel {
    /// Surface nodes lie within the radius: this range of its row's
    /// `taps`, whose weights sum to `wsum`.
    Weighted { taps: Range<u32>, wsum: f64 },
    /// None does: the value of the nearest node, as it is.
    Nearest(u32),
    /// The surface has no node at all.
    Empty,
}

/// One row of texels and the `(node position, weight)` runs of its
/// weighted ones, each in the order [`Quadtree::idw_weights`] visits them.
#[derive(Debug, Clone, Default)]
struct Row {
    texels: Vec<Texel>,
    taps: Vec<(u32, f64)>,
}

/// The scattered-data interpolation of [`extract_surface_field`] with
/// everything that depends on geometry alone done once: which surface
/// nodes each texel of the regular grid averages and with what weights.
/// The mesh is static, so a run builds one and every step only redoes the
/// sums over that step's node values — of [`SurfaceSampler::nodes`] alone,
/// which the taps index by position.
#[derive(Debug, Clone)]
pub struct SurfaceSampler {
    width: u32,
    extent: (f64, f64),
    rows: Vec<Row>,
    /// The nodes the taps read, sorted.
    nodes: Vec<NodeId>,
}

impl SurfaceSampler {
    /// Searches `quadtree` (the surface nodes of `mesh`) once per texel of
    /// a `width × height` grid: inverse-distance weights within a radius of
    /// two output cells, nearest-point fallback.
    pub fn new(mesh: &HexMesh, quadtree: &Quadtree, width: u32, height: u32) -> Self {
        let e = mesh.octree().extent();
        let extent = (e.x, e.y);
        let cell = (extent.0 / width as f64).max(extent.1 / height as f64);
        let radius = cell * 2.0;
        // taps and nearest nodes by node id first, by position below
        let mut rows = vec![Row::default(); height as usize];
        par_chunks_mut(&mut rows, 1, |j, row| {
            let Row { texels, taps } = &mut row[0];
            let y = (j as f64 + 0.5) / height as f64 * extent.1;
            for i in 0..width {
                let x = (i as f64 + 0.5) / width as f64 * extent.0;
                let at = |taps: &Vec<_>| u32::try_from(taps.len()).expect("a row's taps fit u32");
                let start = at(taps);
                let mut wsum = 0.0;
                quadtree.idw_weights(x, y, radius, |id, w| {
                    wsum += w;
                    taps.push((id, w));
                });
                texels.push(if wsum > 0.0 {
                    Texel::Weighted { taps: start..at(taps), wsum }
                } else if let Some((id, _)) = quadtree.nearest(x, y) {
                    Texel::Nearest(id)
                } else {
                    Texel::Empty
                });
            }
        });
        let nearest = |t: &Texel| match *t {
            Texel::Nearest(id) => Some(id),
            _ => None,
        };
        let nodes = sorted_unique(rows.iter().flat_map(|row| {
            let taps = row.taps.iter().map(|&(id, _)| id);
            taps.chain(row.texels.iter().filter_map(nearest))
        }));
        let position =
            |id: NodeId| nodes.binary_search(&id).expect("a tap's node is listed") as u32;
        for row in &mut rows {
            for (tap, _) in &mut row.taps {
                *tap = position(*tap);
            }
            for texel in &mut row.texels {
                if let Texel::Nearest(id) = texel {
                    *id = position(*id);
                }
            }
        }
        prof::ticks("lic.sampler_builds", 1);
        SurfaceSampler { width, extent, rows, nodes }
    }

    /// The surface nodes the sampler reads, sorted: what
    /// [`SurfaceSampler::sample`] takes the vectors of.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The horizontal surface velocity on the regular grid of a field
    /// given at [`SurfaceSampler::nodes`] alone (`surface[i]` is node
    /// `nodes()[i]`'s vector) — per texel the arithmetic of
    /// [`Quadtree::idw_sample`] over the recorded weights.
    pub fn sample(&self, surface: &[[f32; 3]]) -> RegularField2D {
        assert_eq!(surface.len(), self.nodes.len(), "one vector per sampled node");
        let value = |at: u32| {
            let [vx, vy, _] = surface[at as usize];
            [vx as f64, vy as f64]
        };
        let mut vectors = Vec::with_capacity(self.width as usize * self.rows.len());
        for row in &self.rows {
            vectors.extend(row.texels.iter().map(|texel| {
                let [vx, vy] = match texel {
                    Texel::Weighted { taps, wsum } => {
                        let mut vsum = [0.0; 2];
                        for &(at, w) in &row.taps[taps.start as usize..taps.end as usize] {
                            let v = value(at);
                            vsum[0] += w * v[0];
                            vsum[1] += w * v[1];
                        }
                        vsum.map(|v| v / wsum)
                    }
                    Texel::Nearest(at) => value(*at),
                    Texel::Empty => [0.0; 2],
                };
                (vx as f32, vy as f32)
            }));
        }
        let height = self.rows.len() as u32;
        RegularField2D { width: self.width, height, extent: self.extent, vectors }
    }
}

/// Extract the horizontal surface velocity field onto a `width × height`
/// regular grid, using a quadtree over the surface nodes for the
/// scattered-data interpolation (inverse-distance within a radius of two
/// output cells, nearest-point fallback). One-off form of
/// [`SurfaceSampler`]: it pays the neighbour searches on every call.
pub fn extract_surface_field(
    mesh: &HexMesh,
    field: &VectorField,
    quadtree: &Quadtree,
    width: u32,
    height: u32,
) -> RegularField2D {
    let sampler = SurfaceSampler::new(mesh, quadtree, width, height);
    let surface: Vec<_> = sampler.nodes().iter().map(|&id| field.get(id)).collect();
    sampler.sample(&surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{HexMesh, Octree, UniformRefinement, Vec3};

    #[test]
    fn from_fn_and_sample() {
        let f = RegularField2D::from_fn(8, 8, (1.0, 1.0), |x, _| (x as f32, 0.0));
        // sampling mid-grid reproduces the linear ramp: halfway between
        // texel 3 (x=0.4375) and texel 4 (x=0.5625) -> 0.5
        let (vx, vy) = f.sample_px(4.0, 4.0);
        assert!((vx - 0.5).abs() < 1e-6, "got {vx}");
        assert_eq!(vy, 0.0);
    }

    #[test]
    fn sample_clamps_at_edges() {
        let f = RegularField2D::from_fn(4, 4, (1.0, 1.0), |x, y| (x as f32, y as f32));
        let inside = f.sample_px(0.5, 0.5);
        let outside = f.sample_px(-10.0, -10.0);
        assert_eq!(inside, outside);
    }

    #[test]
    fn max_magnitude_is_the_largest_length() {
        let f = RegularField2D::new(3, 1, (1.0, 1.0), vec![(0.6, 0.8), (3.0, 4.0), (0.0, 0.0)]);
        assert_eq!(f.max_magnitude(), 5.0);
    }

    #[test]
    fn extraction_reproduces_uniform_surface_flow() {
        let mesh = HexMesh::from_octree(Octree::build(
            Vec3::new(100.0, 100.0, 50.0),
            &UniformRefinement(3),
        ));
        // 3D field: horizontal (2, -1) everywhere at the surface, noise below
        let mut vals = vec![[0.0f32; 3]; mesh.node_count()];
        for id in 0..mesh.node_count() as NodeId {
            let (_, _, z) = mesh.node_grid_coords(id);
            vals[id as usize] = if z == 0 { [2.0, -1.0, 0.3] } else { [9.0, 9.0, 9.0] };
        }
        let field = VectorField::new(vals);
        let (qt, _) = Quadtree::from_surface_nodes(&mesh);
        let reg = extract_surface_field(&mesh, &field, &qt, 16, 16);
        for &(vx, vy) in &reg.vectors {
            assert!((vx - 2.0).abs() < 1e-3, "vx {vx}");
            assert!((vy + 1.0).abs() < 1e-3, "vy {vy}");
        }
    }

    #[test]
    fn extraction_interpolates_gradient() {
        let mesh = HexMesh::from_octree(Octree::build(
            Vec3::new(100.0, 100.0, 50.0),
            &UniformRefinement(3),
        ));
        // surface vx = x coordinate, vy = half the y coordinate
        let mut vals = vec![[0.0f32; 3]; mesh.node_count()];
        for id in 0..mesh.node_count() as NodeId {
            let p = mesh.node_position(id);
            if mesh.node_grid_coords(id).2 == 0 {
                vals[id as usize] = [p.x as f32, (0.5 * p.y) as f32, 0.0];
            }
        }
        let field = VectorField::new(vals);
        let (qt, _) = Quadtree::from_surface_nodes(&mesh);
        let reg = extract_surface_field(&mesh, &field, &qt, 32, 32);
        // the one neighbour search per texel gives each component exactly
        // what a search of its own would
        let radius = 100.0 / 32.0 * 2.0;
        for (i, j) in [(0usize, 0usize), (4, 16), (27, 16), (31, 31)] {
            let (x, y) = ((i as f64 + 0.5) / 32.0 * 100.0, (j as f64 + 0.5) / 32.0 * 100.0);
            let [vx] = qt.idw_sample(x, y, radius, |id| [field.horizontal(id).0 as f64]);
            let [vy] = qt.idw_sample(x, y, radius, |id| [field.horizontal(id).1 as f64]);
            assert_eq!(reg.vectors[j * 32 + i], (vx as f32, vy as f32));
        }
        // left third should be clearly smaller than right third
        let left = reg.vectors[16 * 32 + 4].0;
        let right = reg.vectors[16 * 32 + 27].0;
        assert!(left < right - 20.0, "left {left} right {right}");
    }
}
