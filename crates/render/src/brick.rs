//! Regular resampling of octree blocks ("bricks").
//!
//! A rendering processor receives octree blocks (subtrees) plus the node
//! data for their cells. For ray casting, each block is resampled onto a
//! small regular grid at the *selected octree level* — the knob adaptive
//! rendering turns (§4.1): level `max_leaf_level` reproduces the mesh
//! exactly where it is finest; coarser levels sample fewer points and the
//! brick (and its marching cost) shrinks by 8× per level.

use quakeviz_mesh::{Aabb, HexMesh, NodeField, OctreeBlock, Vec3};

/// A regular scalar grid over one octree block's bounds, values normalized
/// to `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Brick {
    /// Id of the source block.
    pub block_id: u32,
    /// World bounds of the block.
    pub bounds: Aabb,
    /// Node counts per axis (≥ 2).
    dims: (usize, usize, usize),
    values: Vec<f32>,
    /// Smallest and largest stored value (see [`Brick::value_range`]).
    range: (f32, f32),
}

impl Brick {
    /// Resample `block` from `field` at octree `level` (clamped to the
    /// block's root level and the mesh's finest level), normalizing by
    /// `(lo, hi)`.
    pub fn from_field(
        mesh: &HexMesh,
        field: &NodeField,
        block: &OctreeBlock,
        level: u8,
        norm: (f32, f32),
    ) -> Brick {
        let max = mesh.octree().max_leaf_level();
        let level = level.clamp(block.root.level, max);
        let n = 1usize << (level - block.root.level); // cells per axis
        let dims = (n + 1, n + 1, n + 1);
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let step = 1u32 << (max - level);
        let bounds = block.root.bounds(mesh.octree().extent());
        let scale = if norm.1 > norm.0 { 1.0 / (norm.1 - norm.0) } else { 0.0 };

        let mut values = Vec::with_capacity(dims.0 * dims.1 * dims.2);
        for k in 0..dims.2 as u32 {
            for j in 0..dims.1 as u32 {
                for i in 0..dims.0 as u32 {
                    let (gx, gy, gz) = (ax + i * step, ay + j * step, az + k * step);
                    let raw = match mesh.node_at(gx, gy, gz) {
                        Some(id) => field.get(id),
                        None => {
                            // grid point interior to a coarser cell: sample
                            let e = mesh.octree().extent();
                            let nfine = (1u64 << max) as f64;
                            let p = Vec3::new(
                                gx as f64 / nfine * e.x,
                                gy as f64 / nfine * e.y,
                                gz as f64 / nfine * e.z,
                            );
                            // nudge boundary points inward so leaf lookup hits
                            let eps = 1e-9;
                            let q = Vec3::new(
                                p.x.min(e.x * (1.0 - eps)),
                                p.y.min(e.y * (1.0 - eps)),
                                p.z.min(e.z * (1.0 - eps)),
                            );
                            field.sample(mesh, q).unwrap_or(0.0)
                        }
                    };
                    values.push(((raw - norm.0) * scale).clamp(0.0, 1.0));
                }
            }
        }
        Brick::from_values(block.id, bounds, dims, values)
    }

    /// Build directly from raw normalized values (tests, synthetic data).
    pub fn from_values(
        block_id: u32,
        bounds: Aabb,
        dims: (usize, usize, usize),
        values: Vec<f32>,
    ) -> Brick {
        assert!(dims.0 >= 2 && dims.1 >= 2 && dims.2 >= 2, "brick needs ≥2 nodes per axis");
        assert_eq!(values.len(), dims.0 * dims.1 * dims.2);
        let range = values.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            // a NaN sample renders as the transfer function's first
            // control point: it counts as the lowest value there is
            (lo.min(if v.is_nan() { f32::NEG_INFINITY } else { v }), hi.max(v))
        });
        Brick { block_id, bounds, dims, values, range }
    }

    /// Node counts per axis.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Total stored samples.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.values.len()
    }

    /// The stored samples, x fastest (`i + nx·(j + ny·k)`).
    #[inline]
    pub(crate) fn values(&self) -> &[f32] {
        &self.values
    }

    /// `(min, max)` of the stored samples — and so, up to rounding, of
    /// every interpolated value. The ray caster skips a brick whose range
    /// the transfer function cannot see.
    #[inline]
    pub fn value_range(&self) -> (f32, f32) {
        self.range
    }

    /// Smallest cell edge in world units (ray-march step base).
    pub fn min_spacing(&self) -> f64 {
        let e = self.bounds.extent();
        (e.x / (self.dims.0 - 1) as f64)
            .min(e.y / (self.dims.1 - 1) as f64)
            .min(e.z / (self.dims.2 - 1) as f64)
    }

    #[inline]
    fn at(&self, i: usize, j: usize, k: usize) -> f32 {
        self.values[i + self.dims.0 * (j + self.dims.1 * k)]
    }

    /// Trilinear sample at world point `p` (clamped into the brick).
    pub fn sample(&self, p: Vec3) -> f32 {
        let e = self.bounds.extent();
        let fx = (((p.x - self.bounds.min.x) / e.x).clamp(0.0, 1.0)) * (self.dims.0 - 1) as f64;
        let fy = (((p.y - self.bounds.min.y) / e.y).clamp(0.0, 1.0)) * (self.dims.1 - 1) as f64;
        let fz = (((p.z - self.bounds.min.z) / e.z).clamp(0.0, 1.0)) * (self.dims.2 - 1) as f64;
        let (i0, j0, k0) = (fx as usize, fy as usize, fz as usize);
        let (i1, j1, k1) = (
            (i0 + 1).min(self.dims.0 - 1),
            (j0 + 1).min(self.dims.1 - 1),
            (k0 + 1).min(self.dims.2 - 1),
        );
        let (u, v, w) = ((fx - i0 as f64) as f32, (fy - j0 as f64) as f32, (fz - k0 as f64) as f32);
        let c00 = self.at(i0, j0, k0) * (1.0 - u) + self.at(i1, j0, k0) * u;
        let c10 = self.at(i0, j1, k0) * (1.0 - u) + self.at(i1, j1, k0) * u;
        let c01 = self.at(i0, j0, k1) * (1.0 - u) + self.at(i1, j0, k1) * u;
        let c11 = self.at(i0, j1, k1) * (1.0 - u) + self.at(i1, j1, k1) * u;
        let c0 = c00 * (1.0 - v) + c10 * v;
        let c1 = c01 * (1.0 - v) + c11 * v;
        c0 * (1.0 - w) + c1 * w
    }

    /// Central-difference gradient at `p` (world units), for lighting.
    pub fn gradient(&self, p: Vec3) -> Vec3 {
        let h = self.min_spacing();
        let gx = (self.sample(p + Vec3::new(h, 0.0, 0.0)) - self.sample(p - Vec3::new(h, 0.0, 0.0)))
            as f64;
        let gy = (self.sample(p + Vec3::new(0.0, h, 0.0)) - self.sample(p - Vec3::new(0.0, h, 0.0)))
            as f64;
        let gz = (self.sample(p + Vec3::new(0.0, 0.0, h)) - self.sample(p - Vec3::new(0.0, 0.0, h)))
            as f64;
        Vec3::new(gx, gy, gz) * (0.5 / h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{HexMesh, NodeField, Octree, UniformRefinement};

    fn mesh() -> HexMesh {
        HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(3)))
    }

    fn x_field(m: &HexMesh) -> NodeField {
        let mut f = NodeField::zeros(m);
        for id in 0..m.node_count() as u32 {
            f.set(id, m.node_position(id).x as f32);
        }
        f
    }

    #[test]
    fn brick_dims_follow_level() {
        let m = mesh();
        let f = x_field(&m);
        let blocks = m.octree().blocks(1);
        let b3 = Brick::from_field(&m, &f, &blocks[0], 3, (0.0, 1.0));
        assert_eq!(b3.dims(), (5, 5, 5)); // 2^(3-1)+1
        let b1 = Brick::from_field(&m, &f, &blocks[0], 1, (0.0, 1.0));
        assert_eq!(b1.dims(), (2, 2, 2));
        // requesting deeper than the mesh clamps
        let b9 = Brick::from_field(&m, &f, &blocks[0], 9, (0.0, 1.0));
        assert_eq!(b9.dims(), (5, 5, 5));
    }

    #[test]
    fn brick_reproduces_linear_field() {
        let m = mesh();
        let f = x_field(&m);
        let blocks = m.octree().blocks(1);
        for block in &blocks[..2] {
            let brick = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
            for p in [brick.bounds.center(), brick.bounds.min + brick.bounds.extent() * 0.25] {
                let got = brick.sample(p);
                assert!((got - p.x as f32).abs() < 1e-5, "at {p:?}: {got} vs {}", p.x);
            }
        }
    }

    #[test]
    fn normalization_clamps() {
        let m = mesh();
        let f = x_field(&m); // values 0..1
        let block = &m.octree().blocks(0)[0];
        let b = Brick::from_field(&m, &f, block, 2, (0.25, 0.75));
        // raw 0.0 -> clamped 0; raw 1.0 -> clamped 1
        assert_eq!(b.sample(Vec3::new(0.0, 0.5, 0.5)), 0.0);
        assert_eq!(b.sample(Vec3::new(0.9999, 0.5, 0.5)), 1.0);
        let mid = b.sample(Vec3::new(0.5, 0.5, 0.5));
        assert!((mid - 0.5).abs() < 1e-5);
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let m = mesh();
        let f = x_field(&m);
        let block = &m.octree().blocks(0)[0];
        let b = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
        let g = b.gradient(Vec3::new(0.5, 0.5, 0.5));
        assert!((g.x - 1.0).abs() < 1e-3, "ddx should be 1, got {}", g.x);
        assert!(g.y.abs() < 1e-3 && g.z.abs() < 1e-3);
    }

    #[test]
    fn min_spacing_scales_with_level() {
        let m = mesh();
        let f = x_field(&m);
        let block = &m.octree().blocks(1)[0];
        let fine = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
        let coarse = Brick::from_field(&m, &f, block, 2, (0.0, 1.0));
        assert!((coarse.min_spacing() - 2.0 * fine.min_spacing()).abs() < 1e-12);
        assert!(coarse.sample_count() < fine.sample_count());
    }

    #[test]
    fn sample_clamps_outside_bounds() {
        let b = Brick::from_values(
            0,
            Aabb::UNIT,
            (2, 2, 2),
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        );
        assert_eq!(b.sample(Vec3::new(-5.0, 0.0, 0.0)), 0.0);
        assert_eq!(b.sample(Vec3::new(5.0, 0.0, 0.0)), 1.0);
    }
}
