//! Workload-estimated assignment of octree blocks to rendering processors.
//!
//! Paper §4: *"The input processors use this octree along with a workload
//! estimation method to distribute blocks of hexahedral elements among the
//! rendering processors"* — and §5.3/Figure 7: each rendering processor
//! receives **multiple** octree blocks spread across the spatial domain,
//! which balances view-dependent load at the price of noncontiguous reads.
//!
//! Blocks are weighed by a [`WorkloadModel`] and packed onto renderers with
//! the greedy longest-processing-time heuristic (sort by weight, assign to
//! the least-loaded renderer), which guarantees a makespan within 4/3 of
//! optimal. A round-robin assignment is kept as the ablation baseline.

use crate::hexmesh::HexMesh;
use crate::octree::{BlockId, OctreeBlock};

/// How to estimate the rendering cost of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadModel {
    /// Cost proportional to the number of hexahedral cells.
    CellCount,
    /// Cost proportional to the number of distinct mesh nodes (captures the
    /// data volume that must be transferred to the renderer).
    NodeCount,
}

impl WorkloadModel {
    /// Estimated cost of `block` under this model.
    pub fn weight(&self, mesh: &HexMesh, block: &OctreeBlock) -> u64 {
        match self {
            WorkloadModel::CellCount => block.cell_count() as u64,
            WorkloadModel::NodeCount => mesh.block_nodes(block).len() as u64,
        }
    }
}

/// The greedy longest-processing-time placement every block assignment is
/// made by. `items` (id, weight) are taken heaviest first (id ascending on
/// ties) and each goes to the bin whose projected completion time
/// `(load + w) · rate` is smallest, lowest index on ties — a bin with rate
/// 4 is charged 4× for every unit of weight it accepts. `loads` holds the
/// bins' starting loads and ends as their final ones; `place(id, bin)` is
/// called once per item, in placement order.
pub fn lpt_place(
    mut items: Vec<(BlockId, u64)>,
    loads: &mut [u64],
    rates: &[u64],
    mut place: impl FnMut(BlockId, usize),
) {
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (id, w) in items {
        let bin = (0..loads.len())
            .min_by_key(|&r| ((loads[r] + w).saturating_mul(rates[r]), r))
            .expect("placement needs at least one bin");
        loads[bin] += w;
        place(id, bin);
    }
}

/// An assignment of blocks to `renderers` rendering processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[r]` lists the block ids owned by renderer `r`.
    assignment: Vec<Vec<BlockId>>,
    /// Estimated load per renderer, same order.
    loads: Vec<u64>,
    /// Renderer owning each block, indexed by block id.
    owner: Vec<u32>,
}

impl Partition {
    /// Greedy LPT partition of `blocks` over `renderers` processors using
    /// `model` for cost estimation.
    ///
    /// Panics if `renderers == 0`.
    pub fn balanced(
        mesh: &HexMesh,
        blocks: &[OctreeBlock],
        renderers: usize,
        model: WorkloadModel,
    ) -> Partition {
        let weights: Vec<u64> = blocks.iter().map(|b| model.weight(mesh, b)).collect();
        Partition::balanced_weighted(blocks, &weights, renderers)
    }

    /// Greedy LPT partition with caller-supplied per-block weights
    /// (indexed like `blocks`). This is the hook for *view-dependent*
    /// workload estimation (the paper's future-work "fine-grain load
    /// redistribution"): weights change per camera, the partition is
    /// recomputed, the data distribution follows.
    pub fn balanced_weighted(
        blocks: &[OctreeBlock],
        weights: &[u64],
        renderers: usize,
    ) -> Partition {
        assert!(renderers > 0, "need at least one rendering processor");
        assert_eq!(blocks.len(), weights.len(), "one weight per block");
        debug_assert!(blocks.iter().enumerate().all(|(i, b)| b.id as usize == i));
        let weighted: Vec<(BlockId, u64)> =
            blocks.iter().map(|b| (b.id, weights[b.id as usize])).collect();
        let mut assignment = vec![Vec::new(); renderers];
        let mut loads = vec![0u64; renderers];
        let mut owner = vec![0u32; blocks.len()];
        lpt_place(weighted, &mut loads, &vec![1; renderers], |id, r| {
            assignment[r].push(id);
            owner[id as usize] = r as u32;
        });
        // Keep each renderer's blocks in SFC order (ids are SFC-ordered).
        for a in &mut assignment {
            a.sort_unstable();
        }
        Partition { assignment, loads, owner }
    }

    /// Round-robin assignment in SFC order — the static baseline.
    pub fn round_robin(
        mesh: &HexMesh,
        blocks: &[OctreeBlock],
        renderers: usize,
        model: WorkloadModel,
    ) -> Partition {
        assert!(renderers > 0, "need at least one rendering processor");
        let mut assignment = vec![Vec::new(); renderers];
        let mut loads = vec![0u64; renderers];
        let mut owner = vec![0u32; blocks.len()];
        for (i, b) in blocks.iter().enumerate() {
            let r = i % renderers;
            assignment[r].push(b.id);
            loads[r] += model.weight(mesh, b);
            owner[b.id as usize] = r as u32;
        }
        Partition { assignment, loads, owner }
    }

    /// Number of rendering processors.
    #[inline]
    pub fn renderers(&self) -> usize {
        self.assignment.len()
    }

    /// Block ids assigned to renderer `r`, in SFC order.
    #[inline]
    pub fn blocks_of(&self, r: usize) -> &[BlockId] {
        &self.assignment[r]
    }

    /// The renderer owning block `id`.
    #[inline]
    pub fn owner_of(&self, id: BlockId) -> u32 {
        self.owner[id as usize]
    }

    /// Estimated load of renderer `r`.
    #[inline]
    pub fn load(&self, r: usize) -> u64 {
        self.loads[r]
    }

    /// `max load / mean load` — 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let max = *self.loads.iter().max().unwrap_or(&0);
        let total: u64 = self.loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.loads.len() as f64;
        max as f64 / mean
    }

    /// Total number of assigned blocks (sanity: equals the block count).
    pub fn assigned_blocks(&self) -> usize {
        self.assignment.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::Loc3;
    use crate::octree::{Octree, RefineOracle, UniformRefinement};
    use crate::region::{Aabb, Vec3};

    struct Lopsided;
    impl RefineOracle for Lopsided {
        fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool {
            // one octant refined three levels deeper than the rest
            let want =
                if bounds.min.x < 0.5 && bounds.min.y < 0.5 && bounds.min.z < 0.5 { 6 } else { 3 };
            loc.level < want
        }
        fn max_level(&self) -> u8 {
            6
        }
        fn min_level(&self) -> u8 {
            2
        }
    }

    fn lopsided_mesh() -> HexMesh {
        HexMesh::from_octree(Octree::build(Vec3::ONE, &Lopsided))
    }

    #[test]
    fn every_block_assigned_exactly_once() {
        let mesh = lopsided_mesh();
        let blocks = mesh.octree().blocks(2);
        for renderers in [1, 3, 8, 17] {
            let p = Partition::balanced(&mesh, &blocks, renderers, WorkloadModel::CellCount);
            assert_eq!(p.assigned_blocks(), blocks.len());
            let mut seen = vec![false; blocks.len()];
            for r in 0..renderers {
                for &b in p.blocks_of(r) {
                    assert!(!seen[b as usize], "block {b} assigned twice");
                    seen[b as usize] = true;
                    assert_eq!(p.owner_of(b), r as u32);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn balanced_beats_round_robin_on_skewed_mesh() {
        let mesh = lopsided_mesh();
        let blocks = mesh.octree().blocks(1);
        // level-1 blocks: one octant is hugely heavier; sanity-check skew
        let w: Vec<u64> =
            blocks.iter().map(|b| WorkloadModel::CellCount.weight(&mesh, b)).collect();
        assert!(w.iter().max().unwrap() > &(w.iter().min().unwrap() * 8));
        let blocks2 = mesh.octree().blocks(3);
        let bal = Partition::balanced(&mesh, &blocks2, 4, WorkloadModel::CellCount);
        let rr = Partition::round_robin(&mesh, &blocks2, 4, WorkloadModel::CellCount);
        assert!(
            bal.imbalance() <= rr.imbalance() + 1e-9,
            "balanced {} vs round-robin {}",
            bal.imbalance(),
            rr.imbalance()
        );
        assert!(bal.imbalance() < 1.2, "LPT should balance well, got {}", bal.imbalance());
    }

    #[test]
    fn imbalance_perfect_on_uniform_mesh() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(3)));
        let blocks = mesh.octree().blocks(2); // 64 equal blocks
        let p = Partition::balanced(&mesh, &blocks, 8, WorkloadModel::CellCount);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
        for r in 0..8 {
            assert_eq!(p.blocks_of(r).len(), 8);
        }
    }

    #[test]
    fn more_renderers_than_blocks_leaves_some_idle() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)));
        let blocks = mesh.octree().blocks(1); // 8 blocks
        let p = Partition::balanced(&mesh, &blocks, 12, WorkloadModel::CellCount);
        assert_eq!(p.assigned_blocks(), 8);
        let idle = (0..12).filter(|&r| p.blocks_of(r).is_empty()).count();
        assert_eq!(idle, 4);
    }

    #[test]
    fn node_count_model_differs_from_cell_count() {
        let mesh = lopsided_mesh();
        let blocks = mesh.octree().blocks(1);
        let wc: Vec<u64> =
            blocks.iter().map(|b| WorkloadModel::CellCount.weight(&mesh, b)).collect();
        let wn: Vec<u64> =
            blocks.iter().map(|b| WorkloadModel::NodeCount.weight(&mesh, b)).collect();
        // node weights always exceed cell weights for nontrivial blocks
        for (c, n) in wc.iter().zip(&wn) {
            assert!(n > c);
        }
    }

    #[test]
    fn deterministic_partitions() {
        let mesh = lopsided_mesh();
        let blocks = mesh.octree().blocks(2);
        let a = Partition::balanced(&mesh, &blocks, 5, WorkloadModel::CellCount);
        let b = Partition::balanced(&mesh, &blocks, 5, WorkloadModel::CellCount);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_partition_balances_custom_weights() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(3)));
        let blocks = mesh.octree().blocks(1); // 8 equal blocks
                                              // skew: one block is 7x the others
        let weights: Vec<u64> = (0..8).map(|i| if i == 0 { 7 } else { 1 }).collect();
        let p = Partition::balanced_weighted(&blocks, &weights, 2);
        // LPT: heavy block alone on one renderer, the rest on the other
        let heavy_owner = p.owner_of(0);
        assert_eq!(p.load(heavy_owner as usize), 7);
        assert_eq!(p.load(1 - heavy_owner as usize), 7);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one weight per block")]
    fn weight_count_mismatch_panics() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(2)));
        let blocks = mesh.octree().blocks(1);
        let _ = Partition::balanced_weighted(&blocks, &[1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "at least one rendering processor")]
    fn zero_renderers_panics() {
        let mesh = lopsided_mesh();
        let blocks = mesh.octree().blocks(2);
        let _ = Partition::balanced(&mesh, &blocks, 0, WorkloadModel::CellCount);
    }
}
