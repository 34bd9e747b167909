//! Node-centred fields over a hexahedral mesh.
//!
//! A [`NodeField`] is one scalar per mesh node — exactly one on-disk time
//! step of one variable. A [`VectorField`] is one 3-vector per node (the
//! displacement or velocity field). Both expose the raw little-endian byte
//! layout used by the simulation writer and the parallel readers.

use crate::hexmesh::{HexMesh, NodeId};
use crate::region::Vec3;

/// One scalar value per mesh node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeField {
    values: Vec<f32>,
}

impl NodeField {
    /// Wrap a per-node value vector (length must equal the mesh node count
    /// when used with a mesh).
    pub fn new(values: Vec<f32>) -> Self {
        NodeField { values }
    }

    /// A zero field with one entry per mesh node.
    pub fn zeros(mesh: &HexMesh) -> Self {
        NodeField { values: vec![0.0; mesh.node_count()] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    #[inline]
    pub fn get(&self, id: NodeId) -> f32 {
        self.values[id as usize]
    }

    #[inline]
    pub fn set(&mut self, id: NodeId, v: f32) {
        self.values[id as usize] = v;
    }

    /// `(min, max)` over all nodes; `(0, 0)` for an empty field.
    pub fn range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Quantize to 8 bits over `[lo, hi]` — the input-processor
    /// preprocessing step the paper lists ("quantization from 32-bit to
    /// 8-bit", §4). Values outside the range clamp.
    pub fn quantize(&self, lo: f32, hi: f32) -> Vec<u8> {
        let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
        self.values.iter().map(|&v| (((v - lo) * scale).clamp(0.0, 255.0)) as u8).collect()
    }

    /// Trilinear sample inside leaf cell `cell_index` at point `p` (which
    /// should lie inside the cell; coordinates are clamped to it).
    pub fn sample_in_cell(&self, mesh: &HexMesh, cell_index: usize, p: Vec3) -> f32 {
        let (nodes, uvw) = mesh.cell_weights(cell_index, p);
        self.blend(&nodes, uvw)
    }

    /// Trilinear blend of the values at eight cell corners (bit order x,
    /// y, z) with upper-corner weights `(u, v, w)` — the arithmetic of
    /// [`NodeField::sample_in_cell`], for callers that located the cell
    /// once ([`HexMesh::cell_weights`]).
    pub fn blend(&self, nodes: &[NodeId; 8], [u, v, w]: [f32; 3]) -> f32 {
        let f = |i: usize| self.values[nodes[i] as usize];
        let c00 = f(0) * (1.0 - u) + f(1) * u;
        let c10 = f(2) * (1.0 - u) + f(3) * u;
        let c01 = f(4) * (1.0 - u) + f(5) * u;
        let c11 = f(6) * (1.0 - u) + f(7) * u;
        let c0 = c00 * (1.0 - v) + c10 * v;
        let c1 = c01 * (1.0 - v) + c11 * v;
        c0 * (1.0 - w) + c1 * w
    }

    /// Sample anywhere in the domain (locates the leaf first).
    /// Returns `None` outside the domain.
    pub fn sample(&self, mesh: &HexMesh, p: Vec3) -> Option<f32> {
        Some(self.sample_in_cell(mesh, mesh.cell_at(p)?, p))
    }

    /// Raw little-endian `f32` bytes — the on-disk layout of one time step.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.values.len() * 4);
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parse the on-disk layout back into a field.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len() % 4, 0, "field byte length not a multiple of 4");
        let values =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        NodeField { values }
    }
}

/// One 3-vector per mesh node (velocity or displacement).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    values: Vec<[f32; 3]>,
}

impl VectorField {
    pub fn new(values: Vec<[f32; 3]>) -> Self {
        VectorField { values }
    }

    pub fn zeros(mesh: &HexMesh) -> Self {
        VectorField { values: vec![[0.0; 3]; mesh.node_count()] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    pub fn get(&self, id: NodeId) -> [f32; 3] {
        self.values[id as usize]
    }

    #[inline]
    pub fn set(&mut self, id: NodeId, v: [f32; 3]) {
        self.values[id as usize] = v;
    }

    #[inline]
    pub fn values(&self) -> &[[f32; 3]] {
        &self.values
    }

    /// Per-node Euclidean magnitude — the scalar the paper's Figure 1
    /// renders ("velocity magnitude").
    pub fn magnitude(&self) -> NodeField {
        NodeField::new(
            self.values.iter().map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()).collect(),
        )
    }

    /// Extract one component as a scalar field.
    pub fn component(&self, c: usize) -> NodeField {
        assert!(c < 3);
        NodeField::new(self.values.iter().map(|v| v[c]).collect())
    }

    /// The horizontal (x, y) part at a node — the 2D surface vector the LIC
    /// stage visualizes.
    #[inline]
    pub fn horizontal(&self, id: NodeId) -> (f32, f32) {
        let v = self.values[id as usize];
        (v[0], v[1])
    }

    /// Raw little-endian interleaved `xyzxyz…` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.values.len() * 12);
        for v in &self.values {
            for c in v {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len() % 12, 0, "vector field byte length not a multiple of 12");
        let values = bytes
            .chunks_exact(12)
            .map(|c| {
                [
                    f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    f32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                ]
            })
            .collect();
        VectorField { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{Octree, UniformRefinement};

    fn mesh() -> HexMesh {
        HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)))
    }

    /// Field equal to the x coordinate of each node.
    fn x_field(mesh: &HexMesh) -> NodeField {
        let mut f = NodeField::zeros(mesh);
        for id in 0..mesh.node_count() as NodeId {
            f.set(id, mesh.node_position(id).x as f32);
        }
        f
    }

    #[test]
    fn range_and_quantize() {
        let f = NodeField::new(vec![-1.0, 0.0, 3.0]);
        assert_eq!(f.range(), (-1.0, 3.0));
        let q = f.quantize(-1.0, 3.0);
        assert_eq!(q, vec![0, 63, 255]);
        // clamping
        let q2 = f.quantize(0.0, 1.0);
        assert_eq!(q2, vec![0, 0, 255]);
    }

    #[test]
    fn empty_range_is_zero() {
        assert_eq!(NodeField::new(vec![]).range(), (0.0, 0.0));
    }

    #[test]
    fn trilinear_reproduces_linear_function() {
        let m = mesh();
        let f = x_field(&m);
        // A linear function must be reproduced exactly by trilinear interp.
        for p in
            [Vec3::new(0.13, 0.41, 0.87), Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.99, 0.01, 0.33)]
        {
            let s = f.sample(&m, p).unwrap();
            assert!((s - p.x as f32).abs() < 1e-5, "sample {s} != {}", p.x);
        }
    }

    #[test]
    fn sample_outside_domain_is_none() {
        let m = mesh();
        let f = x_field(&m);
        assert!(f.sample(&m, Vec3::new(1.5, 0.5, 0.5)).is_none());
    }

    #[test]
    fn node_field_bytes_roundtrip() {
        let f = NodeField::new(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE]);
        assert_eq!(NodeField::from_bytes(&f.to_bytes()), f);
    }

    #[test]
    fn vector_field_bytes_roundtrip() {
        let f = VectorField::new(vec![[1.0, 2.0, 3.0], [-0.5, 0.25, 1e-7]]);
        assert_eq!(VectorField::from_bytes(&f.to_bytes()), f);
    }

    #[test]
    fn magnitude_and_component() {
        let f = VectorField::new(vec![[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]);
        let mag = f.magnitude();
        assert_eq!(mag.values(), &[5.0, 2.0]);
        assert_eq!(f.component(1).values(), &[4.0, 0.0]);
        assert_eq!(f.horizontal(0), (3.0, 4.0));
    }
}
