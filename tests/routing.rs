//! What a block is sent, and what its renderer draws from it.
//!
//! * Every node a brick stencil reads with nonzero weight — directly, or as
//!   a patch corner, at the render level and one coarser — is in the
//!   block's routed set, `block_level_nodes(mesh, b, Some(level))`, at
//!   every level. The pipeline sends each block only that set, so this is
//!   what keeps its frames independent of which rank holds which block,
//!   and equal to a full-block send's, by construction. (At the finest
//!   level of the 64³ × 0.15 Hz mesh a brick reads hanging nodes of a
//!   finer neighbour on its boundary, which no cell of the block has.)
//! * Two coarse-level runs (64² on the 32³ standard dataset: level 4 of 5)
//!   hold a pinned digest of their frames' bits. `scripts/frame_digest.sh`
//!   renders at the finest level, so it cannot see these frames move.

use quakeviz::mesh::{HexMesh, Octree, Vec3};
use quakeviz::pipeline::reader::block_level_nodes;
use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineConfig, PipelineReport};
use quakeviz::render::Brick;
use quakeviz::rt::{FaultSpec, Fnv1a, WireSpec};
use quakeviz::seismic::{BasinModel, WavelengthOracle};

#[test]
fn the_routed_set_covers_every_stencil_read() {
    let extent = Vec3::new(40_000.0, 40_000.0, 20_000.0);
    // the meshes `SimulationBuilder` generates (default extent): the 16³
    // test generation, the 32³ standard dataset and both 64³ ones (the
    // deep dataset, the benchmark's `ingest` and `resilient`)
    let (mut reads, mut patches, mut hanging) = (0u64, 0usize, Vec::new());
    for (cells, frequency) in [(16u32, 0.3), (32, 0.15), (64, 0.15), (64, 0.3)] {
        let max = cells.trailing_zeros() as u8;
        let oracle = WavelengthOracle::new(BasinModel::la_like(extent), frequency, max);
        let mesh = HexMesh::from_octree(Octree::build(extent, &oracle));
        assert_eq!(mesh.octree().max_leaf_level(), max);
        let block_level = PipelineConfig::default().block_level.min(max);
        hanging.push(0);
        for b in &mesh.octree().blocks(block_level) {
            // at the finest level: the block's cell nodes, and the hanging
            // nodes a finer neighbour puts on its boundary
            let (finest, cell_nodes) =
                (block_level_nodes(&mesh, b, Some(max)), block_level_nodes(&mesh, b, None));
            assert!(cell_nodes.iter().all(|id| finest.binary_search(id).is_ok()));
            *hanging.last_mut().expect("pushed") += finest.len() - cell_nodes.len();
            // below its root level a block's stencils and list clamp
            for level in 0..=max {
                let routed = block_level_nodes(&mesh, b, Some(level));
                // a `BrickPlan` at `level` holds these two stencils
                for at in [level, level.saturating_sub(1)] {
                    let stencil = Brick::stencil(&mesh, b, at);
                    patches += stencil.patches();
                    for id in stencil.reads() {
                        reads += 1;
                        assert!(
                            routed.binary_search(&id).is_ok(),
                            "{cells}³ at {frequency} Hz: block {} at level {level} reads node {id} \
                             (stencil level {at}), which is not routed to it",
                            b.id
                        );
                    }
                }
            }
        }
    }
    assert!(reads > 0 && patches > 0, "{reads} reads, {patches} patches: both kinds checked");
    // only the deep dataset's mesh has any: elsewhere a full-resolution
    // block is sent exactly its cell nodes
    assert_eq!(hanging, [0, 0, 58, 0], "hanging nodes per generation");
}

/// FNV digest of every channel's `to_bits` of every frame, in step order.
fn frame_digest(report: &PipelineReport) -> u64 {
    let bits = report.frames.iter().flat_map(|f| f.pixels().iter().flatten());
    Fnv1a::pipeline().words(bits.map(|v| v.to_bits() as u64)).finish()
}

#[test]
fn coarse_level_frames_hold_their_pinned_digest() {
    let ds = quakeviz_bench::standard_dataset();
    let base = || PipelineBuilder::new(&ds).renderers(3).image_size(64, 64).max_steps(6);
    let raw = base().io_strategy(IoStrategy::OneDip { input_procs: 2 }).run().expect("1DIP run");
    let coded = base()
        .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: 2 })
        .quantize(true)
        .wire_spec(WireSpec::parse("shuffle,delta,keyframe=4").expect("wire spec"))
        .faults(FaultSpec::parse("seed=11,read_transient=0.2").expect("fault spec"))
        // retried reads lose nothing: a slow debug build must not degrade
        .delivery_deadline_ms(30_000)
        .run()
        .expect("2DIP run");
    let max = ds.mesh().octree().max_leaf_level();
    for (name, report) in [("1dip_raw", &raw), ("2dip_coded", &coded)] {
        assert_eq!((report.level, max), (4, 5), "{name}: the pin is below the finest level");
        assert_eq!(report.frames.len(), 6, "{name}: frames");
        assert_eq!(report.degraded_frame_count(), 0, "{name}: retried reads degrade nothing");
    }
    assert!(!coded.fault_events.is_empty(), "the coded run retries faulted reads");
    // recorded when every block was still sent all its nodes
    let pinned = [0x8e06_a557_c38c_9569, 0x7d8b_58b0_20e5_70e5];
    assert_eq!([frame_digest(&raw), frame_digest(&coded)], pinned, "coarse-level frames moved");
}
