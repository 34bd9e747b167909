//! Adaptive octree level selection (paper §4.1, Figure 3).
//!
//! "Rendering cost can be cut significantly by moving up the octree and
//! rendering at coarser-level blocks instead. … Presently the appropriate
//! level to use is computed based on the image resolution, data
//! resolution, and a user-specified limit to the number of elements that
//! project to the same pixel."
//!
//! We implement exactly that rule: for candidate level `ℓ`, the expected
//! number of elements landing on one pixel is
//! `cells(ℓ) / (image pixels covered by the data)`; the policy picks the
//! **finest** level whose per-pixel element count stays within the budget
//! (rendering finer than that adds cost without adding visible detail).

use quakeviz_mesh::Octree;

/// The adaptive-rendering policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Maximum elements that may project onto a single pixel.
    pub max_cells_per_pixel: f64,
    /// Fraction of the image the projected data covers (≈ 0.5 for the
    /// paper's framing; used to convert image size to covered pixels).
    pub coverage: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy { max_cells_per_pixel: 4.0, coverage: 0.5 }
    }
}

impl AdaptivePolicy {
    /// Expected elements per covered pixel at `level`.
    pub fn cells_per_pixel(&self, octree: &Octree, level: u8, width: u32, height: u32) -> f64 {
        octree.cell_count_at_level(level) as f64 / self.covered_pixels(width, height)
    }

    fn covered_pixels(&self, width: u32, height: u32) -> f64 {
        (width as f64 * height as f64 * self.coverage).max(1.0)
    }

    /// Choose the rendering level for an image of `width`×`height`.
    ///
    /// Returns the finest level not exceeding the per-pixel budget; if even
    /// the coarsest level exceeds it (a tiny image), returns level 0's
    /// nearest usable level. The result never exceeds the data resolution
    /// (`max_leaf_level`) — rendering finer than the data adds nothing.
    /// Every level's cell count comes from one pass over the leaves.
    pub fn choose_level(&self, octree: &Octree, width: u32, height: u32) -> u8 {
        let pixels = self.covered_pixels(width, height);
        let within = octree
            .cell_counts_by_level()
            .iter()
            .take_while(|&&cells| cells as f64 / pixels <= self.max_cells_per_pixel)
            .count();
        within.saturating_sub(1) as u8
    }

    /// Predicted render-cost ratio of full resolution vs the adaptive
    /// level (the "3–4 times faster" of Figure 3): cost scales with the
    /// number of cells marched.
    pub fn predicted_speedup(&self, octree: &Octree, width: u32, height: u32) -> f64 {
        let level = self.choose_level(octree, width, height);
        octree.cell_count() as f64 / octree.cell_count_at_level(level).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{Octree, UniformRefinement, Vec3};

    fn tree(level: u8) -> Octree {
        Octree::build(Vec3::ONE, &UniformRefinement(level))
    }

    #[test]
    fn big_image_gets_full_resolution() {
        let t = tree(4); // 4096 cells
        let p = AdaptivePolicy::default();
        // 1024x1024: far more pixels than cells -> render at full depth
        assert_eq!(p.choose_level(&t, 1024, 1024), 4);
    }

    #[test]
    fn small_image_coarsens() {
        let t = tree(6); // 262144 cells
        let p = AdaptivePolicy::default();
        let small = p.choose_level(&t, 64, 64);
        let large = p.choose_level(&t, 2048, 2048);
        assert!(small < large, "small image must use a coarser level: {small} vs {large}");
    }

    #[test]
    fn level_monotone_in_image_size() {
        let t = tree(6);
        let p = AdaptivePolicy::default();
        let mut prev = 0;
        for s in [32u32, 64, 128, 256, 512, 1024, 2048] {
            let l = p.choose_level(&t, s, s);
            assert!(l >= prev, "level must not decrease with image size");
            prev = l;
        }
    }

    #[test]
    fn budget_respected() {
        let t = tree(6);
        let p = AdaptivePolicy { max_cells_per_pixel: 2.0, coverage: 1.0 };
        let l = p.choose_level(&t, 128, 128);
        assert!(p.cells_per_pixel(&t, l, 128, 128) <= 2.0);
        // the next level (if any) would blow the budget
        if l < t.max_leaf_level() {
            assert!(p.cells_per_pixel(&t, l + 1, 128, 128) > 2.0);
        }
    }

    #[test]
    fn tighter_budget_coarser_level() {
        let t = tree(6);
        let loose = AdaptivePolicy { max_cells_per_pixel: 16.0, coverage: 0.5 };
        let tight = AdaptivePolicy { max_cells_per_pixel: 0.5, coverage: 0.5 };
        assert!(tight.choose_level(&t, 256, 256) <= loose.choose_level(&t, 256, 256));
    }

    #[test]
    fn predicted_speedup_at_least_one() {
        let t = tree(5);
        let p = AdaptivePolicy::default();
        assert!(p.predicted_speedup(&t, 64, 64) >= 1.0);
        // a small image should predict a large speedup (Figure 3: 3-4x)
        assert!(p.predicted_speedup(&t, 32, 32) > 3.0);
    }
}
