//! Linear octrees: the one-time spatial encoding shared by every pipeline
//! stage.
//!
//! The earthquake mesh is octree-based (Tu et al.'s Etree mesher): cells are
//! small where the local seismic wavelength is short (soft, shallow basin
//! soil) and large elsewhere. Because the mesh never changes during the
//! simulation, the pipeline builds this octree **once** and reuses it to
//!
//! * partition elements into *blocks* (subtrees) for the rendering
//!   processors (paper §4),
//! * choose a coarser level for *adaptive rendering* (paper §4.1), and
//! * fetch only the cells of the selected level for *adaptive fetching*
//!   (paper §6).
//!
//! The octree is stored linearly: a vector of leaf locational codes sorted
//! in space-filling-curve order, so every subtree is a contiguous run of
//! leaves and block decomposition is just range slicing.

use crate::morton::Loc3;
use crate::region::{Aabb, Vec3};

/// Decides whether an octree cell should be subdivided during construction.
///
/// Implementations see the cell's locational code and its physical bounds.
/// The builder always respects `max_level` regardless of what the oracle
/// answers.
pub trait RefineOracle {
    /// Should this cell be split into its eight children?
    fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool;
    /// Hard refinement ceiling.
    fn max_level(&self) -> u8;
    /// Every cell shallower than this is always refined (default 0).
    fn min_level(&self) -> u8 {
        0
    }
}

/// Refine every cell down to a fixed uniform level (a regular grid).
#[derive(Debug, Clone, Copy)]
pub struct UniformRefinement(pub u8);

impl RefineOracle for UniformRefinement {
    fn refine(&self, loc: &Loc3, _bounds: &Aabb) -> bool {
        loc.level < self.0
    }
    fn max_level(&self) -> u8 {
        self.0
    }
    fn min_level(&self) -> u8 {
        self.0
    }
}

/// Identifier of an octree block (a subtree assigned to one renderer).
pub type BlockId = u32;

/// One block: a subtree of the global octree, i.e. a contiguous run of
/// leaves in SFC order, all descending from `root`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OctreeBlock {
    pub id: BlockId,
    /// Root cell of the subtree.
    pub root: Loc3,
    /// Index range into [`Octree::leaves`].
    pub leaf_start: usize,
    pub leaf_end: usize,
}

impl OctreeBlock {
    /// Number of hexahedral cells (octree leaves) in the block.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.leaf_end - self.leaf_start
    }
}

/// A linear octree over the domain `[0, extent]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Octree {
    extent: Vec3,
    /// Leaf cells in space-filling-curve order. Together they tile the
    /// domain exactly.
    leaves: Vec<Loc3>,
    /// Deepest leaf level present.
    max_leaf_level: u8,
}

impl Octree {
    /// Build an octree by recursive subdivision from the root, splitting
    /// wherever the oracle asks (subject to its `min`/`max` levels).
    pub fn build<O: RefineOracle>(extent: Vec3, oracle: &O) -> Octree {
        let mut leaves = Vec::new();
        let mut max_leaf_level = 0;
        // Explicit stack; push children in reverse Morton order so leaves
        // come out in SFC order without a final sort.
        let mut stack = vec![Loc3::ROOT];
        while let Some(loc) = stack.pop() {
            let bounds = loc.bounds(extent);
            let split = loc.level < oracle.max_level()
                && (loc.level < oracle.min_level() || oracle.refine(&loc, &bounds));
            if split {
                let children = loc.children();
                // Reverse so the Morton-first child is popped first.
                for c in children.iter().rev() {
                    stack.push(*c);
                }
            } else {
                max_leaf_level = max_leaf_level.max(loc.level);
                leaves.push(loc);
            }
        }
        debug_assert!(leaves.windows(2).all(|w| w[0] < w[1]), "leaves not in SFC order");
        Octree { extent, leaves, max_leaf_level }
    }

    /// Reassemble an octree from leaf keys (e.g. read back from disk).
    /// Leaves are sorted into SFC order; panics if they do not tile the
    /// domain (checked by total volume in debug builds).
    pub fn from_leaf_keys(extent: Vec3, keys: &[u64]) -> Octree {
        let mut leaves: Vec<Loc3> = keys.iter().map(|&k| Loc3::from_key(k)).collect();
        leaves.sort();
        let max_leaf_level = leaves.iter().map(|l| l.level).max().unwrap_or(0);
        #[cfg(debug_assertions)]
        {
            let vol: f64 = leaves.iter().map(|l| l.unit_size().powi(3)).sum();
            debug_assert!((vol - 1.0).abs() < 1e-9, "leaves do not tile the unit domain: {vol}");
        }
        Octree { extent, leaves, max_leaf_level }
    }

    /// The leaf keys in SFC order (the on-disk octree representation).
    pub fn leaf_keys(&self) -> Vec<u64> {
        self.leaves.iter().map(|l| l.key()).collect()
    }

    /// Physical extent of the domain.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.extent
    }

    /// Leaves in space-filling-curve order.
    #[inline]
    pub fn leaves(&self) -> &[Loc3] {
        &self.leaves
    }

    /// Number of leaf cells (= hexahedral elements).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.leaves.len()
    }

    /// Deepest level at which a leaf exists.
    #[inline]
    pub fn max_leaf_level(&self) -> u8 {
        self.max_leaf_level
    }

    /// Per-level leaf histogram, indexed by level.
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_leaf_level as usize + 1];
        for l in &self.leaves {
            h[l.level as usize] += 1;
        }
        h
    }

    /// The leaf containing a point, or `None` outside the domain.
    pub fn leaf_at(&self, p: Vec3) -> Option<&Loc3> {
        let domain = Aabb::from_extent(self.extent);
        if !domain.contains(p) {
            return None;
        }
        // Locate by binary search on the SFC key of the finest-level cell
        // containing p: the owning leaf is the last leaf with sfc_key <= it.
        let n = 1u64 << crate::morton::MAX_LEVEL;
        let gx = ((p.x / self.extent.x) * n as f64) as u64;
        let gy = ((p.y / self.extent.y) * n as f64) as u64;
        let gz = ((p.z / self.extent.z) * n as f64) as u64;
        let probe = Loc3::new(
            crate::morton::MAX_LEVEL,
            gx.min(n - 1) as u32,
            gy.min(n - 1) as u32,
            gz.min(n - 1) as u32,
        );
        let idx = match self.leaves.binary_search_by(|l| l.cmp(&probe)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let leaf = &self.leaves[idx];
        leaf.contains(&probe).then_some(leaf)
    }

    /// Coarsen to `level`: every leaf deeper than `level` is replaced by its
    /// ancestor at `level` (deduplicated); shallower leaves are kept as-is.
    ///
    /// This is the cell set that *adaptive rendering* draws and *adaptive
    /// fetching* reads: the result still tiles the domain exactly.
    pub fn extract_level(&self, level: u8) -> Vec<Loc3> {
        let mut out: Vec<Loc3> = Vec::with_capacity(self.leaves.len());
        for leaf in &self.leaves {
            let cell = if leaf.level > level { leaf.ancestor_at(level) } else { *leaf };
            if out.last() != Some(&cell) {
                out.push(cell);
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        out
    }

    /// Number of cells that adaptive fetching at `level` touches. Used by
    /// the I/O cost model: bytes fetched scale with this count.
    ///
    /// One pass over the leaves, no allocation: each level-`level` cell is
    /// counted at the one leaf that starts it ([`Loc3::start_level`]).
    pub fn cell_count_at_level(&self, level: u8) -> usize {
        self.leaves.iter().filter(|leaf| leaf.start_level() <= level).count()
    }

    /// [`Octree::cell_count_at_level`] for every level `0..=max_leaf_level`
    /// at once, indexed by level: one pass over the leaves.
    pub fn cell_counts_by_level(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.max_leaf_level as usize + 1];
        for leaf in &self.leaves {
            counts[leaf.start_level() as usize] += 1;
        }
        for level in 1..counts.len() {
            counts[level] += counts[level - 1];
        }
        counts
    }

    /// Decompose the octree into blocks: subtrees rooted at cells of level
    /// `block_level` (or at shallower leaves, which become singleton
    /// blocks). Blocks are contiguous leaf ranges in SFC order and together
    /// cover every leaf exactly once.
    pub fn blocks(&self, block_level: u8) -> Vec<OctreeBlock> {
        let mut blocks: Vec<OctreeBlock> = Vec::new();
        let mut i = 0usize;
        while i < self.leaves.len() {
            let leaf = self.leaves[i];
            let root = if leaf.level > block_level { leaf.ancestor_at(block_level) } else { leaf };
            let start = i;
            while i < self.leaves.len() && root.contains(&self.leaves[i]) {
                i += 1;
            }
            blocks.push(OctreeBlock {
                id: blocks.len() as BlockId,
                root,
                leaf_start: start,
                leaf_end: i,
            });
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Refine near the ground surface (z = 0), like the earthquake mesh.
    struct SurfaceRefinement {
        max: u8,
    }

    impl RefineOracle for SurfaceRefinement {
        fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool {
            // refine cells touching the surface one level deeper per
            // proximity band
            let depth_frac = bounds.min.z / 1.0;
            let want = if depth_frac < 0.25 {
                self.max
            } else if depth_frac < 0.5 {
                self.max - 1
            } else {
                self.max - 2
            };
            loc.level < want
        }
        fn max_level(&self) -> u8 {
            self.max
        }
        fn min_level(&self) -> u8 {
            2
        }
    }

    fn volume(leaves: &[Loc3]) -> f64 {
        leaves.iter().map(|l| l.unit_size().powi(3)).sum()
    }

    #[test]
    fn uniform_octree_counts() {
        let t = Octree::build(Vec3::ONE, &UniformRefinement(3));
        assert_eq!(t.cell_count(), 512);
        assert_eq!(t.max_leaf_level(), 3);
        assert!((volume(t.leaves()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_octree_tiles_domain() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 5 });
        assert!((volume(t.leaves()) - 1.0).abs() < 1e-12);
        // surface cells finer than deep cells
        let hist = t.level_histogram();
        assert!(hist[5] > 0 && hist[3] > 0);
        // leaves strictly SFC-sorted
        assert!(t.leaves().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn leaves_disjoint() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 4 });
        for w in t.leaves().windows(2) {
            assert!(!w[0].contains(&w[1]) && !w[1].contains(&w[0]));
        }
    }

    #[test]
    fn leaf_at_finds_owner() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 5 });
        for p in [
            Vec3::new(0.1, 0.2, 0.05),
            Vec3::new(0.9, 0.9, 0.9),
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::ZERO,
        ] {
            let leaf = t.leaf_at(p).expect("point inside domain");
            assert!(leaf.bounds(Vec3::ONE).contains(p));
        }
        assert!(t.leaf_at(Vec3::new(1.5, 0.0, 0.0)).is_none());
        assert!(t.leaf_at(Vec3::new(-0.1, 0.5, 0.5)).is_none());
    }

    #[test]
    fn extract_level_tiles_domain() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 5 });
        for level in 0..=5u8 {
            let cells = t.extract_level(level);
            assert!((volume(&cells) - 1.0).abs() < 1e-12, "level {level} does not tile");
            assert!(cells.iter().all(|c| c.level <= level.max(t.leaves()[0].level)));
            // No cell deeper than `level`.
            assert!(cells.iter().all(|c| c.level <= level));
        }
        // Coarser level => no more cells.
        assert!(t.cell_count_at_level(3) <= t.cell_count_at_level(5));
        assert_eq!(t.cell_count_at_level(5), t.cell_count());
    }

    #[test]
    fn cell_count_at_level_equals_extracted_len() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 5 });
        let counts = t.cell_counts_by_level();
        assert_eq!(counts.len(), t.max_leaf_level() as usize + 1);
        for level in 0..=t.max_leaf_level() {
            assert_eq!(t.cell_count_at_level(level), t.extract_level(level).len());
            assert_eq!(counts[level as usize], t.extract_level(level).len());
        }
    }

    #[test]
    fn blocks_cover_all_leaves_once() {
        let t = Octree::build(Vec3::ONE, &SurfaceRefinement { max: 5 });
        for block_level in [0u8, 1, 2, 3] {
            let blocks = t.blocks(block_level);
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for b in &blocks {
                assert_eq!(b.leaf_start, prev_end, "blocks must be contiguous");
                assert!(b.cell_count() > 0);
                for l in &t.leaves()[b.leaf_start..b.leaf_end] {
                    assert!(b.root.contains(l));
                }
                covered += b.cell_count();
                prev_end = b.leaf_end;
            }
            assert_eq!(covered, t.cell_count());
        }
    }

    #[test]
    fn block_count_grows_with_level() {
        let t = Octree::build(Vec3::ONE, &UniformRefinement(4));
        assert_eq!(t.blocks(0).len(), 1);
        assert_eq!(t.blocks(1).len(), 8);
        assert_eq!(t.blocks(2).len(), 64);
    }

    #[test]
    fn leaf_keys_roundtrip() {
        let t = Octree::build(Vec3::new(2.0, 1.0, 1.0), &SurfaceRefinement { max: 4 });
        let keys = t.leaf_keys();
        let t2 = Octree::from_leaf_keys(t.extent(), &keys);
        assert_eq!(t, t2);
    }
}
