//! Point-region quadtree over the ground surface.
//!
//! Paper §4.3: *"a quadtree is first constructed to organize all nodes on
//! the top surface"*; the per-step irregular surface vector field is then
//! resampled onto a regular grid "using the underlying quadtree" before the
//! LIC computation. This module provides that structure: surface nodes are
//! inserted once (the mesh is static), and per-frame resampling uses
//! nearest/region queries against it.

use crate::region::Vec3;

/// Maximum points a leaf holds before it splits.
const LEAF_CAPACITY: usize = 8;
/// Hard depth cap (duplicated points stop splitting here).
const MAX_DEPTH: u8 = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<(f64, f64, u32)>),
    /// Children in quadrant order: (-x,-y), (+x,-y), (-x,+y), (+x,+y).
    Internal(Box<[Node; 4]>),
}

/// A quadtree of `(x, y)` points carrying a `u32` payload (a node id).
#[derive(Debug, Clone)]
pub struct Quadtree {
    min: (f64, f64),
    max: (f64, f64),
    root: Node,
    len: usize,
}

impl Quadtree {
    /// An empty quadtree over the rectangle `[min, max]`.
    pub fn new(min: (f64, f64), max: (f64, f64)) -> Self {
        assert!(max.0 > min.0 && max.1 > min.1, "degenerate quadtree bounds");
        Quadtree { min, max, root: Node::Leaf(Vec::new()), len: 0 }
    }

    /// Build from the surface nodes of a mesh: every node with `z == 0`,
    /// keyed by its ground position.
    pub fn from_surface_nodes(
        mesh: &crate::hexmesh::HexMesh,
    ) -> (Quadtree, Vec<crate::hexmesh::NodeId>) {
        let e = mesh.octree().extent();
        let mut qt = Quadtree::new((0.0, 0.0), (e.x, e.y));
        let surface = mesh.surface_nodes();
        for &id in &surface {
            let p: Vec3 = mesh.node_position(id);
            qt.insert(p.x, p.y, id);
        }
        (qt, surface)
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a point. Points outside the bounds are clamped onto them.
    pub fn insert(&mut self, x: f64, y: f64, payload: u32) {
        let x = x.clamp(self.min.0, self.max.0);
        let y = y.clamp(self.min.1, self.max.1);
        Self::insert_rec(&mut self.root, self.min, self.max, x, y, payload, 0);
        self.len += 1;
    }

    fn insert_rec(
        node: &mut Node,
        min: (f64, f64),
        max: (f64, f64),
        x: f64,
        y: f64,
        payload: u32,
        depth: u8,
    ) {
        match node {
            Node::Leaf(points) => {
                if points.len() < LEAF_CAPACITY || depth >= MAX_DEPTH {
                    points.push((x, y, payload));
                    return;
                }
                // split
                let old = std::mem::take(points);
                *node = Node::Internal(Box::new([
                    Node::Leaf(Vec::new()),
                    Node::Leaf(Vec::new()),
                    Node::Leaf(Vec::new()),
                    Node::Leaf(Vec::new()),
                ]));
                for (px, py, pl) in old {
                    Self::insert_rec(node, min, max, px, py, pl, depth);
                }
                Self::insert_rec(node, min, max, x, y, payload, depth);
            }
            Node::Internal(children) => {
                let cx = (min.0 + max.0) * 0.5;
                let cy = (min.1 + max.1) * 0.5;
                let qi = (x >= cx) as usize | (((y >= cy) as usize) << 1);
                let (cmin, cmax) = Self::quadrant_bounds(min, max, qi);
                Self::insert_rec(&mut children[qi], cmin, cmax, x, y, payload, depth + 1);
            }
        }
    }

    fn quadrant_bounds(min: (f64, f64), max: (f64, f64), qi: usize) -> ((f64, f64), (f64, f64)) {
        let cx = (min.0 + max.0) * 0.5;
        let cy = (min.1 + max.1) * 0.5;
        let (x0, x1) = if qi & 1 == 0 { (min.0, cx) } else { (cx, max.0) };
        let (y0, y1) = if qi & 2 == 0 { (min.1, cy) } else { (cy, max.1) };
        ((x0, y0), (x1, y1))
    }

    /// Nearest stored point to `(x, y)`: returns `(payload, distance)`.
    pub fn nearest(&self, x: f64, y: f64) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        Self::nearest_rec(&self.root, self.min, self.max, x, y, &mut best);
        best.map(|(p, d2)| (p, d2.sqrt()))
    }

    fn nearest_rec(
        node: &Node,
        min: (f64, f64),
        max: (f64, f64),
        x: f64,
        y: f64,
        best: &mut Option<(u32, f64)>,
    ) {
        // prune: squared distance from query to this rectangle
        let dx = (min.0 - x).max(0.0).max(x - max.0);
        let dy = (min.1 - y).max(0.0).max(y - max.1);
        let rect_d2 = dx * dx + dy * dy;
        if let Some((_, bd2)) = best {
            if rect_d2 > *bd2 {
                return;
            }
        }
        match node {
            Node::Leaf(points) => {
                for &(px, py, pl) in points {
                    let d2 = (px - x) * (px - x) + (py - y) * (py - y);
                    if best.is_none_or(|(_, bd2)| d2 < bd2) {
                        *best = Some((pl, d2));
                    }
                }
            }
            Node::Internal(children) => {
                // visit the quadrant containing the query first
                let cx = (min.0 + max.0) * 0.5;
                let cy = (min.1 + max.1) * 0.5;
                let first = (x >= cx) as usize | (((y >= cy) as usize) << 1);
                let order = [first, first ^ 1, first ^ 2, first ^ 3];
                for qi in order {
                    let (cmin, cmax) = Self::quadrant_bounds(min, max, qi);
                    Self::nearest_rec(&children[qi], cmin, cmax, x, y, best);
                }
            }
        }
    }

    /// All payloads whose points fall inside `[lo, hi]` (inclusive).
    pub fn query_rect(&self, lo: (f64, f64), hi: (f64, f64)) -> Vec<u32> {
        let mut out = Vec::new();
        Self::visit_rect(&self.root, self.min, self.max, lo, hi, &mut |_, _, pl| out.push(pl));
        out
    }

    /// Calls `f(x, y, payload)` for every point inside `[lo, hi]`
    /// (inclusive), children in quadrant order, leaves in insertion order.
    fn visit_rect(
        node: &Node,
        min: (f64, f64),
        max: (f64, f64),
        lo: (f64, f64),
        hi: (f64, f64),
        f: &mut impl FnMut(f64, f64, u32),
    ) {
        if max.0 < lo.0 || min.0 > hi.0 || max.1 < lo.1 || min.1 > hi.1 {
            return;
        }
        match node {
            Node::Leaf(points) => {
                for &(px, py, pl) in points {
                    if px >= lo.0 && px <= hi.0 && py >= lo.1 && py <= hi.1 {
                        f(px, py, pl);
                    }
                }
            }
            Node::Internal(children) => {
                for qi in 0..4 {
                    let (cmin, cmax) = Self::quadrant_bounds(min, max, qi);
                    Self::visit_rect(&children[qi], cmin, cmax, lo, hi, f);
                }
            }
        }
    }

    /// Inverse-distance-weighted interpolation of per-payload values at
    /// `(x, y)`: the [`Quadtree::idw_weights`] average of `value(payload)`,
    /// component by component — one neighbour search serves every
    /// component of a vector quantity — falling back to the single
    /// nearest point when none is within `radius`.
    pub fn idw_sample<const N: usize>(
        &self,
        x: f64,
        y: f64,
        radius: f64,
        value: impl Fn(u32) -> [f64; N],
    ) -> [f64; N] {
        let mut wsum = 0.0;
        let mut vsum = [0.0; N];
        self.idw_weights(x, y, radius, |pl, w| {
            wsum += w;
            let v = value(pl);
            for c in 0..N {
                vsum[c] += w * v[c];
            }
        });
        if wsum > 0.0 {
            vsum.map(|v| v / wsum)
        } else if let Some((pl, _)) = self.nearest(x, y) {
            value(pl)
        } else {
            [0.0; N]
        }
    }

    /// Calls `f(payload, weight)` for every point within `radius` of
    /// `(x, y)`, in the tree's traversal order, with the inverse-square-
    /// distance weight [`Quadtree::idw_sample`] gives it. Points and
    /// weights depend on the geometry alone, so a caller that samples many
    /// fields at one place can record them once and redo only the sums.
    pub fn idw_weights(&self, x: f64, y: f64, radius: f64, mut f: impl FnMut(u32, f64)) {
        let (lo, hi) = ((x - radius, y - radius), (x + radius, y + radius));
        Self::visit_rect(&self.root, self.min, self.max, lo, hi, &mut |px, py, pl| {
            let d2 = (px - x) * (px - x) + (py - y) * (py - y);
            if d2 > radius * radius {
                return;
            }
            f(pl, 1.0 / (d2 + 1e-12));
        });
    }

    /// Like [`Quadtree::query_rect`] but returns positions too.
    pub fn query_rect_points(&self, lo: (f64, f64), hi: (f64, f64)) -> Vec<(f64, f64, u32)> {
        let mut out = Vec::new();
        Self::visit_rect(&self.root, self.min, self.max, lo, hi, &mut |px, py, pl| {
            out.push((px, py, pl))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hexmesh::HexMesh;
    use crate::octree::{Octree, UniformRefinement};

    #[test]
    fn insert_and_count() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        for i in 0..100 {
            let t = i as f64 / 100.0;
            qt.insert(t, (t * 7.0) % 1.0, i);
        }
        assert_eq!(qt.len(), 100);
    }

    #[test]
    fn nearest_exact_hit() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        qt.insert(0.25, 0.25, 1);
        qt.insert(0.75, 0.75, 2);
        let (id, d) = qt.nearest(0.26, 0.25).unwrap();
        assert_eq!(id, 1);
        assert!((d - 0.01).abs() < 1e-12);
        assert_eq!(qt.nearest(0.8, 0.8).unwrap().0, 2);
    }

    #[test]
    fn nearest_matches_bruteforce() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        let mut pts = Vec::new();
        // deterministic pseudo-random scatter
        let mut s = 12345u64;
        let mut rng = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..500u32 {
            let (x, y) = (rng(), rng());
            qt.insert(x, y, i);
            pts.push((x, y, i));
        }
        for _ in 0..50 {
            let (qx, qy) = (rng(), rng());
            let (got, gd) = qt.nearest(qx, qy).unwrap();
            let (bx, by, want) = *pts
                .iter()
                .min_by(|a, b| {
                    let da = (a.0 - qx).powi(2) + (a.1 - qy).powi(2);
                    let db = (b.0 - qx).powi(2) + (b.1 - qy).powi(2);
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            let wd = ((bx - qx).powi(2) + (by - qy).powi(2)).sqrt();
            assert!((gd - wd).abs() < 1e-12, "distance mismatch");
            // ids may differ only on exact ties
            if (gd - wd).abs() > 1e-15 {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn query_rect_filters() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        for i in 0..10 {
            qt.insert(i as f64 / 10.0, 0.5, i);
        }
        let mut hits = qt.query_rect((0.25, 0.0), (0.55, 1.0));
        hits.sort();
        assert_eq!(hits, vec![3, 4, 5]);
    }

    #[test]
    fn empty_tree_queries() {
        let qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        assert!(qt.nearest(0.5, 0.5).is_none());
        assert!(qt.query_rect((0.0, 0.0), (1.0, 1.0)).is_empty());
        assert_eq!(qt.idw_sample(0.5, 0.5, 0.1, |_| [1.0]), [0.0]);
    }

    #[test]
    fn idw_interpolates_between_points() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        qt.insert(0.0, 0.5, 0); // value 0
        qt.insert(1.0, 0.5, 1); // value 10
                                // both components share one set of weights
        let [v, neg] = qt.idw_sample(0.5, 0.5, 1.0, |id| [id as f64 * 10.0, id as f64 * -10.0]);
        assert!((v - 5.0).abs() < 1e-9, "midpoint should average, got {v}");
        assert_eq!(neg, -v);
        // close to the left point, value near 0
        let [v] = qt.idw_sample(0.01, 0.5, 1.5, |id| [id as f64 * 10.0]);
        assert!(v < 1.0);
    }

    #[test]
    fn idw_sample_is_the_rect_query_filtered_and_weighted_in_order() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        let mut s = 77u64;
        let mut rng = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..400u32 {
            qt.insert(rng(), rng(), i);
        }
        let value = |id: u32| [id as f64 * 0.37 - 50.0, (id as f64).sin()];
        for _ in 0..200 {
            let (x, y, radius) = (rng(), rng(), rng() * 0.1);
            let (mut wsum, mut vsum) = (0.0, [0.0; 2]);
            for (px, py, pl) in
                qt.query_rect_points((x - radius, y - radius), (x + radius, y + radius))
            {
                let d2 = (px - x) * (px - x) + (py - y) * (py - y);
                if d2 > radius * radius {
                    continue;
                }
                let w = 1.0 / (d2 + 1e-12);
                wsum += w;
                let v = value(pl);
                vsum[0] += w * v[0];
                vsum[1] += w * v[1];
            }
            let want = if wsum > 0.0 {
                vsum.map(|v| v / wsum)
            } else {
                value(qt.nearest(x, y).unwrap().0)
            };
            assert_eq!(
                qt.idw_sample(x, y, radius, value).map(f64::to_bits),
                want.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn idw_falls_back_to_nearest_outside_radius() {
        let mut qt = Quadtree::new((0.0, 0.0), (1.0, 1.0));
        qt.insert(0.9, 0.9, 7);
        let v = qt.idw_sample(0.1, 0.1, 0.05, |id| [id as f64]);
        assert_eq!(v, [7.0]);
    }

    #[test]
    fn from_surface_nodes_covers_surface() {
        let mesh =
            HexMesh::from_octree(Octree::build(crate::region::Vec3::ONE, &UniformRefinement(2)));
        let (qt, surface) = Quadtree::from_surface_nodes(&mesh);
        assert_eq!(qt.len(), surface.len());
        assert_eq!(surface.len(), 25);
        // nearest to a corner is the corner node
        let (id, d) = qt.nearest(0.0, 0.0).unwrap();
        assert!(d < 1e-12);
        let p = mesh.node_position(id);
        assert_eq!((p.x, p.y, p.z), (0.0, 0.0, 0.0));
    }
}
