//! Measured-feedback load redistribution.
//!
//! The paper's §7: *"Presently, the input processors also handle load
//! balancing statically. We plan to investigate a fine-grain load
//! redistribution method."* The static partition weighs a block by its
//! cell count; this module reweighs it by what it was *measured* to cost.
//! (A camera-only estimate — projected area × march depth — was tried and
//! lost to the static partition; EXPERIMENTS.md keeps the numbers.)

use quakeviz_mesh::{OctreeBlock, Partition};

/// Feedback-driven redistribution: rebalance from *measured* per-block
/// render seconds of a previous frame. Time-varying rendering re-draws
/// the same static blocks every frame, so last frame's measurements are
/// an excellent predictor for the next — this is the sharpest form of
/// the paper's "fine-grain load redistribution", limited only by block
/// granularity.
pub fn measured_balanced(
    blocks: &[OctreeBlock],
    seconds_per_block: &[f64],
    renderers: usize,
) -> Partition {
    assert_eq!(blocks.len(), seconds_per_block.len());
    // microsecond-resolution integer weights; floor of 1 keeps free
    // blocks spread instead of piling on one rank
    let weights: Vec<u64> = seconds_per_block.iter().map(|&s| ((s * 1e6) as u64).max(1)).collect();
    Partition::balanced_weighted(blocks, &weights, renderers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{HexMesh, Octree, UniformRefinement, Vec3};

    #[test]
    fn measured_rebalance_tracks_observations() {
        let m = HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(4)));
        let blocks = m.octree().blocks(1); // 8 blocks
                                           // pretend block 3 took 10x longer than the rest
        let secs: Vec<f64> = (0..8).map(|i| if i == 3 { 1.0 } else { 0.1 }).collect();
        let p = measured_balanced(&blocks, &secs, 2);
        // the hot block's rank gets only it (plus possibly tiny ones)
        let hot = p.owner_of(3) as usize;
        let hot_load: f64 = p.blocks_of(hot).iter().map(|&b| secs[b as usize]).sum();
        let cold_load: f64 = p.blocks_of(1 - hot).iter().map(|&b| secs[b as usize]).sum();
        assert!((hot_load - cold_load).abs() < 0.35, "{hot_load} vs {cold_load}");
    }
}
