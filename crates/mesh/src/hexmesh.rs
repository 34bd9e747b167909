//! The hexahedral element mesh derived from octree leaves, with the
//! *linear node array* layout used on disk.
//!
//! The simulation writes one value (or one 3-vector) per mesh **node** per
//! time step, as a flat array ordered by node id. The input processors must
//! reconstruct per-**cell** data for each octree block from this array
//! (paper §5.3), which is what makes the reads noncontiguous: the nodes of
//! one block occupy scattered index ranges.
//!
//! Node ids are assigned in Morton order of the node's finest-grid
//! coordinates. This is deterministic, spatially coherent (so block reads
//! are *mostly* clustered, as with a real octree database), and shared
//! between the simulation writer and the visualization readers.

use crate::morton::{morton3, Loc3};
use crate::octree::{Octree, OctreeBlock};
use crate::region::Vec3;
use std::collections::HashMap;

/// Index into the global node array.
pub type NodeId = u32;

/// `ids` sorted ascending with duplicates removed — what `sort_unstable`
/// then `dedup` gives, without a comparison sort.
///
/// One pass takes the span `[min, max]`, a second sets one bit per id in a
/// `u64` bitmap over it, and the set bits are emitted in order: O(ids +
/// range/64) time and range/8 bytes. Meant for dense sets such as a mesh's
/// node ids, whose range is bounded by the node count.
pub fn sorted_unique<I>(ids: I) -> Vec<NodeId>
where
    I: IntoIterator<Item = NodeId>,
    I::IntoIter: Clone,
{
    let ids = ids.into_iter();
    let (min, max) = ids.clone().fold((NodeId::MAX, 0), |(lo, hi), id| (lo.min(id), hi.max(id)));
    if min > max {
        return Vec::new();
    }
    let mut bits = vec![0u64; (max - min) as usize / 64 + 1];
    for id in ids {
        let off = (id - min) as usize;
        bits[off / 64] |= 1 << (off % 64);
    }
    let mut out = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (w, mut word) in bits.into_iter().enumerate() {
        while word != 0 {
            out.push(min + (w * 64) as NodeId + word.trailing_zeros());
            word &= word - 1;
        }
    }
    out
}

/// One hexahedral element: the octree leaf cell plus its eight corner
/// nodes in VTK hexahedron order restricted to an axis-aligned cell:
/// `(x,y,z)` bit order — corner `i` has offsets `(i&1, (i>>1)&1, (i>>2)&1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexCell {
    pub loc: Loc3,
    pub nodes: [NodeId; 8],
}

/// A hexahedral mesh: octree + global node array + per-leaf corner nodes.
#[derive(Debug, Clone)]
pub struct HexMesh {
    octree: Octree,
    /// Finest-grid integer coordinates of each node, indexed by `NodeId`.
    node_coords: Vec<(u32, u32, u32)>,
    /// Morton key of finest-grid coords -> node id.
    node_index: HashMap<u64, NodeId>,
    /// Corner nodes of each octree leaf, aligned with `octree.leaves()`.
    cells: Vec<[NodeId; 8]>,
}

impl HexMesh {
    /// Derive the element mesh from an octree: enumerate every distinct
    /// leaf corner on the finest grid and wire cells to corner node ids.
    pub fn from_octree(octree: Octree) -> HexMesh {
        let max = octree.max_leaf_level();
        // Collect all corner coordinates (with duplicates), then sort by
        // Morton code and dedup to assign ids.
        let mut corner_keys: Vec<u64> = Vec::with_capacity(octree.cell_count() * 8);
        for leaf in octree.leaves() {
            let (ax, ay, az) = leaf.anchor_at_level(max);
            let size = 1u32 << (max - leaf.level);
            for i in 0..8u32 {
                let cx = ax + (i & 1) * size;
                let cy = ay + ((i >> 1) & 1) * size;
                let cz = az + ((i >> 2) & 1) * size;
                corner_keys.push(morton3(cx, cy, cz));
            }
        }
        corner_keys.sort_unstable();
        corner_keys.dedup();
        let mut node_index = HashMap::with_capacity(corner_keys.len());
        let mut node_coords = Vec::with_capacity(corner_keys.len());
        for (id, &key) in corner_keys.iter().enumerate() {
            node_index.insert(key, id as NodeId);
            let (x, y, z) = crate::morton::demorton3(key);
            node_coords.push((x, y, z));
        }
        let cells: Vec<[NodeId; 8]> = octree
            .leaves()
            .iter()
            .map(|leaf| {
                let (ax, ay, az) = leaf.anchor_at_level(max);
                let size = 1u32 << (max - leaf.level);
                let mut ns = [0 as NodeId; 8];
                for (i, slot) in ns.iter_mut().enumerate() {
                    let i = i as u32;
                    let key = morton3(
                        ax + (i & 1) * size,
                        ay + ((i >> 1) & 1) * size,
                        az + ((i >> 2) & 1) * size,
                    );
                    *slot = node_index[&key];
                }
                ns
            })
            .collect();
        HexMesh { octree, node_coords, node_index, cells }
    }

    /// The underlying octree.
    #[inline]
    pub fn octree(&self) -> &Octree {
        &self.octree
    }

    /// Total number of mesh nodes (length of the on-disk array per step).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_coords.len()
    }

    /// Total number of hexahedral cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Bytes of one on-disk time step with `components` f32s per node.
    #[inline]
    pub fn bytes_per_step(&self, components: usize) -> u64 {
        self.node_count() as u64 * components as u64 * 4
    }

    /// The cell (leaf + corner nodes) at leaf index `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> HexCell {
        HexCell { loc: self.octree.leaves()[i], nodes: self.cells[i] }
    }

    /// Corner node ids of leaf `i` (bit order: x, y, z).
    #[inline]
    pub fn cell_nodes(&self, i: usize) -> &[NodeId; 8] {
        &self.cells[i]
    }

    /// Index of the leaf cell containing `p`, or `None` outside the domain.
    pub fn cell_at(&self, p: Vec3) -> Option<usize> {
        let leaf = self.octree.leaf_at(p)?;
        let idx = self.octree.leaves().binary_search(leaf);
        Some(idx.expect("leaf_at returned a leaf not in the octree"))
    }

    /// Corner nodes of cell `i` and the upper-corner weights `(u, v, w)`
    /// of point `p` inside it (clamped to the cell): what trilinear
    /// sampling there blends ([`crate::NodeField::blend`]).
    pub fn cell_weights(&self, i: usize, p: Vec3) -> ([NodeId; 8], [f32; 3]) {
        let b = self.octree.leaves()[i].bounds(self.octree.extent());
        let e = b.extent();
        let u = (((p.x - b.min.x) / e.x).clamp(0.0, 1.0)) as f32;
        let v = (((p.y - b.min.y) / e.y).clamp(0.0, 1.0)) as f32;
        let w = (((p.z - b.min.z) / e.z).clamp(0.0, 1.0)) as f32;
        (self.cells[i], [u, v, w])
    }

    /// Physical position of a node in the domain `[0, extent]`.
    pub fn node_position(&self, id: NodeId) -> Vec3 {
        let (x, y, z) = self.node_coords[id as usize];
        let n = (1u64 << self.octree.max_leaf_level()) as f64;
        let e = self.octree.extent();
        Vec3::new(x as f64 / n * e.x, y as f64 / n * e.y, z as f64 / n * e.z)
    }

    /// Finest-grid coordinates of a node.
    #[inline]
    pub fn node_grid_coords(&self, id: NodeId) -> (u32, u32, u32) {
        self.node_coords[id as usize]
    }

    /// Node id at exact finest-grid coordinates, if a node exists there.
    pub fn node_at(&self, x: u32, y: u32, z: u32) -> Option<NodeId> {
        self.node_index.get(&morton3(x, y, z)).copied()
    }

    /// Sorted unique node ids referenced by the cells of `block`.
    ///
    /// This is the noncontiguous read pattern for one block: the offsets an
    /// input processor must gather from the linear node array (paper
    /// §5.3.1, `MPI_TYPE_CREATE_INDEXED_BLOCK`). Built by [`sorted_unique`]'s
    /// bitmap over the block's id span, O(ids + range/64) — no sort.
    pub fn block_nodes(&self, block: &OctreeBlock) -> Vec<NodeId> {
        sorted_unique(self.cells[block.leaf_start..block.leaf_end].as_flattened().iter().copied())
    }

    /// Sorted unique node ids for several blocks merged together
    /// ("to avoid duplicating node data, octree data are merged for each
    /// rendering processor" — paper §5.3.1). Built by [`sorted_unique`]'s
    /// bitmap over the blocks' id span, O(ids + range/64) — no sort.
    pub fn merged_block_nodes(&self, blocks: &[&OctreeBlock]) -> Vec<NodeId> {
        sorted_unique(
            blocks
                .iter()
                .flat_map(|b| self.cells[b.leaf_start..b.leaf_end].as_flattened())
                .copied(),
        )
    }

    /// Node ids lying on the ground surface (z = 0), in id order.
    ///
    /// The earthquake mesh is densest near the surface; the paper reports
    /// more than 20% of mesh points near the surface region, and the LIC
    /// stage (paper §4.3) operates on exactly these nodes.
    pub fn surface_nodes(&self) -> Vec<NodeId> {
        (0..self.node_count() as NodeId)
            .filter(|&id| self.node_coords[id as usize].2 == 0)
            .collect()
    }

    /// Fraction of nodes within the `depth_frac` top fraction of the domain.
    pub fn near_surface_fraction(&self, depth_frac: f64) -> f64 {
        let n = (1u64 << self.octree.max_leaf_level()) as f64;
        let cutoff = (n * depth_frac) as u32;
        let near = self.node_coords.iter().filter(|&&(_, _, z)| z <= cutoff).count();
        near as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{RefineOracle, UniformRefinement};
    use crate::region::Aabb;

    struct TopHeavy;
    impl RefineOracle for TopHeavy {
        fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool {
            let want = if bounds.min.z < 0.25 { 4 } else { 2 };
            loc.level < want
        }
        fn max_level(&self) -> u8 {
            4
        }
        fn min_level(&self) -> u8 {
            2
        }
    }

    #[test]
    fn uniform_mesh_node_count() {
        // A 4x4x4 uniform grid has 5^3 nodes.
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)));
        assert_eq!(mesh.cell_count(), 64);
        assert_eq!(mesh.node_count(), 125);
        assert_eq!(mesh.bytes_per_step(1), 125 * 4);
        assert_eq!(mesh.bytes_per_step(3), 125 * 12);
    }

    #[test]
    fn cells_reference_their_own_corners() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        let max = mesh.octree().max_leaf_level();
        for i in 0..mesh.cell_count() {
            let cell = mesh.cell(i);
            let (ax, ay, az) = cell.loc.anchor_at_level(max);
            let size = 1u32 << (max - cell.loc.level);
            for (k, &nid) in cell.nodes.iter().enumerate() {
                let k = k as u32;
                let expect =
                    (ax + (k & 1) * size, ay + ((k >> 1) & 1) * size, az + ((k >> 2) & 1) * size);
                assert_eq!(mesh.node_grid_coords(nid), expect);
            }
        }
    }

    #[test]
    fn node_positions_scale_with_extent() {
        let extent = Vec3::new(100.0, 100.0, 50.0);
        let mesh = HexMesh::from_octree(Octree::build(extent, &UniformRefinement(1)));
        // nodes at 0, 50, 100 in x/y and 0, 25, 50 in z
        let corner = mesh.node_at(2, 2, 2).unwrap();
        assert_eq!(mesh.node_position(corner), Vec3::new(100.0, 100.0, 50.0));
        let mid = mesh.node_at(1, 1, 1).unwrap();
        assert_eq!(mesh.node_position(mid), Vec3::new(50.0, 50.0, 25.0));
    }

    #[test]
    fn shared_corners_deduplicated() {
        // Two adjacent cells share 4 nodes; uniform level-1 mesh: 27 nodes.
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(1)));
        assert_eq!(mesh.cell_count(), 8);
        assert_eq!(mesh.node_count(), 27);
    }

    #[test]
    fn block_nodes_sorted_unique_and_complete() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        let blocks = mesh.octree().blocks(2);
        for b in &blocks {
            let ids = mesh.block_nodes(b);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
            // every cell corner of the block appears
            for i in b.leaf_start..b.leaf_end {
                for nid in mesh.cell_nodes(i) {
                    assert!(ids.binary_search(nid).is_ok());
                }
            }
        }
    }

    #[test]
    fn merged_block_nodes_dedups_across_blocks() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)));
        let blocks = mesh.octree().blocks(1);
        let all: Vec<&OctreeBlock> = blocks.iter().collect();
        let merged = mesh.merged_block_nodes(&all);
        // merging every block must give exactly the full node set
        assert_eq!(merged.len(), mesh.node_count());
        let sum: usize = blocks.iter().map(|b| mesh.block_nodes(b).len()).sum();
        assert!(sum > merged.len(), "shared boundary nodes should be duplicated before merge");
    }

    #[test]
    fn surface_nodes_on_z0() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)));
        let surf = mesh.surface_nodes();
        assert_eq!(surf.len(), 25); // 5x5 grid
        for id in surf {
            assert_eq!(mesh.node_grid_coords(id).2, 0);
        }
    }

    #[test]
    fn near_surface_fraction_reflects_refinement() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        // the top quarter holds most nodes because it is refined two levels
        // deeper — mirrors the paper's ">20% of points near the surface"
        let frac = mesh.near_surface_fraction(0.3);
        assert!(frac > 0.5, "top-heavy mesh should concentrate nodes near surface, got {frac}");
    }

    #[test]
    fn node_at_miss_returns_none() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(1)));
        assert!(mesh.node_at(3, 0, 0).is_none()); // grid only spans 0..=2
    }

    /// The definition `sorted_unique` replaces, kept as the oracle.
    fn sort_dedup(mut ids: Vec<NodeId>) -> Vec<NodeId> {
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn check_sorted_unique(ids: Vec<NodeId>) {
        assert_eq!(sorted_unique(ids.iter().copied()), sort_dedup(ids.clone()), "input {ids:?}");
    }

    #[test]
    fn sorted_unique_equals_sort_dedup() {
        check_sorted_unique(vec![]);
        check_sorted_unique(vec![42]);
        check_sorted_unique(vec![7; 100]);
        check_sorted_unique(vec![0, 0, 3, 1, 0, 2]);
        check_sorted_unique(vec![NodeId::MAX, NodeId::MAX - 5, NodeId::MAX, NodeId::MAX - 64]);
        // spans ending at bit 63, 64 and 65 of a word
        for (base, span) in [(0, 63), (0, 64), (0, 65), (1000, 63), (1000, 64), (1000, 65)] {
            check_sorted_unique(vec![base + span, base, base + span / 2, base + span]);
        }
        let mut rng = quakeviz_rt::rng::SplitMix64::new(0x50_47_ed);
        for _ in 0..200 {
            let len = rng.next_below(10_001) as usize;
            let range = 1 + rng.next_below(4 * len as u64 + 64);
            let base = rng.next_below(NodeId::MAX as u64 - range) as NodeId;
            check_sorted_unique((0..len).map(|_| base + rng.next_below(range) as NodeId).collect());
        }
    }

    #[test]
    fn node_lists_equal_sort_dedup_on_top_heavy() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        let corners = |b: &OctreeBlock| {
            (b.leaf_start..b.leaf_end).flat_map(|i| *mesh.cell_nodes(i)).collect::<Vec<_>>()
        };
        assert!(mesh.merged_block_nodes(&[]).is_empty());
        let mut rng = quakeviz_rt::rng::SplitMix64::new(31);
        for block_level in 0..=mesh.octree().max_leaf_level() {
            let blocks = mesh.octree().blocks(block_level);
            for b in &blocks {
                assert_eq!(mesh.block_nodes(b), sort_dedup(corners(b)), "block {}", b.id);
            }
            for _ in 0..16 {
                let subset: Vec<&OctreeBlock> =
                    blocks.iter().filter(|_| rng.next_below(3) == 0).collect();
                let want = sort_dedup(subset.iter().flat_map(|b| corners(b)).collect());
                assert_eq!(mesh.merged_block_nodes(&subset), want);
            }
        }
    }

    #[test]
    fn cell_count_at_level_equals_extracted_len_on_top_heavy() {
        let tree = Octree::build(Vec3::ONE, &TopHeavy);
        let counts = tree.cell_counts_by_level();
        for level in 0..=tree.max_leaf_level() {
            assert_eq!(tree.cell_count_at_level(level), tree.extract_level(level).len());
            assert_eq!(counts[level as usize], tree.extract_level(level).len());
        }
    }
}
