//! Regular resampling of octree blocks ("bricks").
//!
//! A rendering processor receives octree blocks (subtrees) plus the node
//! data for their cells. For ray casting, each block is resampled onto a
//! small regular grid at the *selected octree level* — the knob adaptive
//! rendering turns (§4.1): level `max_leaf_level` reproduces the mesh
//! exactly where it is finest; coarser levels sample fewer points and the
//! brick (and its marching cost) shrinks by 8× per level.

use quakeviz_mesh::{Aabb, HexMesh, NodeField, NodeId, OctreeBlock, Vec3};

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

/// The field-independent half of resampling one block at one level: which
/// mesh node each brick node reads — or, for the rare brick node inside a
/// coarser leaf, which eight nodes with which weights. It depends on the
/// mesh, the block and the level alone, so a run builds it once and every
/// frame's [`Stencil::brick`] is a gather.
#[derive(Debug, Clone)]
pub struct Stencil {
    block_id: u32,
    bounds: Aabb,
    dims: (usize, usize, usize),
    /// Mesh node per brick node, x fastest; [`NO_NODE`] where a patch
    /// supplies the value, or where the point lies outside the domain
    /// (a constant 0).
    ids: Vec<NodeId>,
    patches: Vec<Patch>,
}

/// A brick node inside a coarser leaf: the leaf's corners and the node's
/// weights in it, as [`NodeField::sample_in_cell`] computes them.
#[derive(Debug, Clone)]
struct Patch {
    at: u32,
    corners: [NodeId; 8],
    uvw: [f32; 3],
}

const NO_NODE: NodeId = NodeId::MAX;

impl Stencil {
    /// Node counts per axis of the bricks it builds.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Brick nodes that blend eight mesh nodes instead of reading one.
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// The mesh nodes its bricks read with nonzero weight: every direct
    /// read, then every patch corner whose trilinear weight in
    /// [`NodeField::blend`] is nonzero. What a block must be sent.
    pub fn reads(&self) -> impl Iterator<Item = NodeId> + '_ {
        let direct = self.ids.iter().copied().filter(|&id| id != NO_NODE);
        let corners = self.patches.iter().flat_map(|p| {
            // corner k takes u (or 1 − u) by bit 0, v by bit 1, w by bit 2
            let weighs = move |k: usize| {
                (0..3).all(|a| if k >> a & 1 == 1 { p.uvw[a] } else { 1.0 - p.uvw[a] } != 0.0)
            };
            (0..8).filter(move |&k| weighs(k)).map(move |k| p.corners[k])
        });
        direct.chain(corners)
    }

    /// Heap bytes held: 4 per brick node, 48 per patch.
    pub fn bytes(&self) -> u64 {
        (self.ids.len() * 4 + self.patches.len() * std::mem::size_of::<Patch>()) as u64
    }

    /// The brick of `field`, normalized by `(lo, hi)`: the values
    /// [`Brick::from_field`] has always produced, bit for bit.
    pub fn brick(&self, field: &NodeField, norm: (f32, f32)) -> Brick {
        let scale = if norm.1 > norm.0 { 1.0 / (norm.1 - norm.0) } else { 0.0 };
        let normalize = |raw: f32| ((raw - norm.0) * scale).clamp(0.0, 1.0);
        let mut values: Vec<f32> = (self.ids.iter())
            .map(|&id| normalize(if id == NO_NODE { 0.0 } else { field.get(id) }))
            .collect();
        for p in &self.patches {
            values[p.at as usize] = normalize(field.blend(&p.corners, p.uvw));
        }
        Brick::from_values(self.block_id, self.bounds, self.dims, values)
    }
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
        Brick::stencil(mesh, block, level).brick(field, norm)
    }

    /// Where each node of `block`'s brick at `level` (clamped as in
    /// [`Brick::from_field`]) reads the field.
    pub fn stencil(mesh: &HexMesh, block: &OctreeBlock, level: u8) -> Stencil {
        let max = mesh.octree().max_leaf_level();
        let level = level.clamp(block.root.level, max);
        let n = 1usize << (level - block.root.level); // cells per axis
        let dims = (n + 1, n + 1, n + 1);
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let step = 1u32 << (max - level);
        let e = mesh.octree().extent();
        let nfine = (1u64 << max) as f64;

        let mut ids = Vec::with_capacity(dims.0 * dims.1 * dims.2);
        let mut patches = Vec::new();
        for k in 0..dims.2 as u32 {
            for j in 0..dims.1 as u32 {
                for i in 0..dims.0 as u32 {
                    let (gx, gy, gz) = (ax + i * step, ay + j * step, az + k * step);
                    if let Some(id) = mesh.node_at(gx, gy, gz) {
                        ids.push(id);
                        continue;
                    }
                    // grid point interior to a coarser cell: sample, with
                    // boundary points nudged inward so the leaf lookup hits
                    let eps = 1e-9;
                    let q = Vec3::new(
                        (gx as f64 / nfine * e.x).min(e.x * (1.0 - eps)),
                        (gy as f64 / nfine * e.y).min(e.y * (1.0 - eps)),
                        (gz as f64 / nfine * e.z).min(e.z * (1.0 - eps)),
                    );
                    if let Some(cell) = mesh.cell_at(q) {
                        let (corners, uvw) = mesh.cell_weights(cell, q);
                        patches.push(Patch { at: ids.len() as u32, corners, uvw });
                    }
                    ids.push(NO_NODE);
                }
            }
        }
        Stencil { block_id: block.id, bounds: block.root.bounds(e), dims, ids, patches }
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

    /// `Brick::from_field` as it was before the stencil: one hash lookup
    /// per brick node, a leaf search per node inside a coarser leaf.
    fn from_field_by_lookup(
        mesh: &HexMesh,
        field: &NodeField,
        block: &OctreeBlock,
        level: u8,
        norm: (f32, f32),
    ) -> Vec<f32> {
        let max = mesh.octree().max_leaf_level();
        let level = level.clamp(block.root.level, max);
        let n = 1u32 << (level - block.root.level);
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let step = 1u32 << (max - level);
        let scale = if norm.1 > norm.0 { 1.0 / (norm.1 - norm.0) } else { 0.0 };
        let mut values = Vec::new();
        for k in 0..=n {
            for j in 0..=n {
                for i in 0..=n {
                    let (gx, gy, gz) = (ax + i * step, ay + j * step, az + k * step);
                    let raw = match mesh.node_at(gx, gy, gz) {
                        Some(id) => field.get(id),
                        None => {
                            let e = mesh.octree().extent();
                            let nfine = (1u64 << max) as f64;
                            let p = Vec3::new(
                                gx as f64 / nfine * e.x,
                                gy as f64 / nfine * e.y,
                                gz as f64 / nfine * e.z,
                            );
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
        values
    }

    /// Fine near the surface, coarse below: most deep brick nodes at the
    /// finest level fall inside coarser leaves.
    struct TopHeavy;
    impl quakeviz_mesh::RefineOracle for TopHeavy {
        fn refine(&self, loc: &quakeviz_mesh::Loc3, bounds: &Aabb) -> bool {
            loc.level < if bounds.min.z < 0.3 { 4 } else { 2 }
        }
        fn max_level(&self) -> u8 {
            4
        }
        fn min_level(&self) -> u8 {
            1
        }
    }

    #[test]
    fn stencil_gathers_the_values_the_lookup_computed() {
        let m = HexMesh::from_octree(Octree::build(Vec3::new(2.0, 2.0, 1.0), &TopHeavy));
        let mut rng = quakeviz_rt::rng::SplitMix64::new(26);
        let mut f = NodeField::zeros(&m);
        for id in 0..m.node_count() as u32 {
            f.set(id, rng.next_f32() * 3.0 - 0.5);
        }
        f.set(7, f32::NAN);
        let (mut patched, mut bricks) = (0, 0);
        for block_level in [0, 1, 2] {
            for block in &m.octree().blocks(block_level) {
                for level in 0..=5 {
                    let stencil = Brick::stencil(&m, block, level);
                    patched += stencil.patches();
                    for norm in [(0.0, 1.0), (0.25, 2.0), (1.0, 1.0)] {
                        let got = stencil.brick(&f, norm);
                        let want = from_field_by_lookup(&m, &f, block, level, norm);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(got.values()),
                            bits(&want),
                            "block {} level {level}",
                            block.id
                        );
                        let (nx, ny, nz) = got.dims();
                        assert_eq!(
                            stencil.bytes(),
                            4 * (nx * ny * nz) as u64 + 48 * stencil.patches() as u64
                        );
                        bricks += 1;
                    }
                }
            }
        }
        assert!(patched > 1000 && bricks > 100, "{patched} patched nodes over {bricks} bricks");
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
