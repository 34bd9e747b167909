//! Regular 2D vector fields and their extraction from the mesh surface.
//!
//! Paper §4.3: "for each time step, the 2D vector field on the surface is
//! extracted from the raw 3D vector fields. Since the extracted vector
//! field is on an irregular grid, to simplify the later LIC calculations a
//! 2D regular-grid vector field is derived using the underlying quadtree.
//! … The resolution of the 2D regular-grid vector field is determined by
//! the image size and the adaptive levels selected by the user."

use quakeviz_mesh::{HexMesh, Quadtree, VectorField};
use quakeviz_rt::par::par_map;

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
    pub fn sample_px(&self, px: f64, py: f64) -> (f32, f32) {
        let fx = (px - 0.5).clamp(0.0, (self.width - 1) as f64);
        let fy = (py - 0.5).clamp(0.0, (self.height - 1) as f64);
        let (i0, j0) = (fx as usize, fy as usize);
        let (i1, j1) =
            ((i0 + 1).min(self.width as usize - 1), (j0 + 1).min(self.height as usize - 1));
        let (u, v) = ((fx - i0 as f64) as f32, (fy - j0 as f64) as f32);
        let g = |i: usize, j: usize| self.vectors[j * self.width as usize + i];
        let lerp2 =
            |a: (f32, f32), b: (f32, f32), t: f32| (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t);
        let top = lerp2(g(i0, j0), g(i1, j0), u);
        let bot = lerp2(g(i0, j1), g(i1, j1), u);
        lerp2(top, bot, v)
    }

    /// Per-pixel magnitude grid.
    pub fn magnitude(&self) -> Vec<f32> {
        self.vectors.iter().map(|&(x, y)| (x * x + y * y).sqrt()).collect()
    }

    /// Largest magnitude (normalization).
    pub fn max_magnitude(&self) -> f32 {
        self.magnitude().into_iter().fold(0.0, f32::max)
    }
}

/// Extract the horizontal surface velocity field onto a `width × height`
/// regular grid, using a quadtree over the surface nodes for the
/// scattered-data interpolation (inverse-distance within a radius of two
/// output cells, nearest-point fallback).
pub fn extract_surface_field(
    mesh: &HexMesh,
    field: &VectorField,
    quadtree: &Quadtree,
    width: u32,
    height: u32,
) -> RegularField2D {
    let e = mesh.octree().extent();
    let extent = (e.x, e.y);
    let cell = (extent.0 / width as f64).max(extent.1 / height as f64);
    let radius = cell * 2.0;
    let vectors: Vec<(f32, f32)> = par_map(height as usize * width as usize, |idx| {
        let i = idx % width as usize;
        let j = idx / width as usize;
        let x = (i as f64 + 0.5) / width as f64 * extent.0;
        let y = (j as f64 + 0.5) / height as f64 * extent.1;
        let [vx, vy] = quadtree.idw_sample(x, y, radius, |id| {
            let (vx, vy) = field.horizontal(id);
            [vx as f64, vy as f64]
        });
        (vx as f32, vy as f32)
    });
    RegularField2D { width, height, extent, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{HexMesh, NodeId, Octree, UniformRefinement, Vec3};

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
    fn magnitude_grid() {
        let f = RegularField2D::new(2, 1, (1.0, 1.0), vec![(3.0, 4.0), (0.0, 0.0)]);
        assert_eq!(f.magnitude(), vec![5.0, 0.0]);
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
