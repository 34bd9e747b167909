//! The §5.3 reading strategies and adaptive fetching (§6).
//!
//! A time step on disk is a flat `3 × f32` node array. Every input
//! processor of the pipeline reads its share independently, through one
//! [`FetchPlan`]:
//!
//! * **full step** — 1DIP's "each processor reading … a complete, single
//!   time step";
//! * **contiguous slice** — §5.3.2's independent contiguous read (each of
//!   `m` group members takes `1/m` of the node array);
//! * **indexed pattern** — a derived-datatype read of an id list (with
//!   data sieving), what adaptive fetch issues;
//! * **adaptive fetch** — §6: "only data cells at the selected level are
//!   fetched from the disk": the node set shrinks to the corners of the
//!   level-ℓ cell tiling, cutting fetch bytes by the same factor as the
//!   rendering work.
//!
//! §5.3.1's collective read of the same pattern (two-phase `read_all`),
//! [`read_step_ids_collective`], is what the independent read is measured
//! against: `tab_read_strategies` and the benchmark walk's
//! `parfs.collective_read_ms` call it, the pipeline does not.

use crate::config::RetryPolicy;
use quakeviz_mesh::{sorted_unique, HexMesh, NodeId, OctreeBlock};
use quakeviz_parfs::{Disk, IndexedBlockType, PFile, ReadError, ReadOutcome};
use quakeviz_rt::obs::{self, Phase};
use quakeviz_rt::Comm;
use quakeviz_rt::FaultPlan;
use quakeviz_seismic::Dataset;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Fault-injection context for one input rank's reads: the shared plan,
/// the retry policy, and the step being fetched (for retry spans).
#[derive(Clone, Copy)]
pub struct FaultCtx<'a> {
    pub plan: &'a FaultPlan,
    pub retry: RetryPolicy,
    pub step: u32,
}

/// Run one read under bounded retry with exponential backoff. Transient
/// failures (injected I/O errors, detected stripe corruption) are retried
/// up to `retry.max_attempts` times; each backoff is recorded as a
/// [`Phase::Retry`] span and in the plan's recovery counters. Without a
/// context the closure runs exactly once with no plan (the zero-fault
/// path is byte- and cost-identical to the pre-fault code).
fn with_retry(
    ctx: Option<&FaultCtx>,
    mut read: impl FnMut(Option<&FaultPlan>, u32) -> Result<ReadOutcome, ReadError>,
) -> Result<ReadOutcome, ReadError> {
    let Some(ctx) = ctx else { return read(None, 0) };
    let mut attempt = 0u32;
    loop {
        match read(Some(ctx.plan), attempt) {
            Ok(out) => return Ok(out),
            Err(e) if e.is_transient() && attempt + 1 < ctx.retry.max_attempts => {
                let backoff = ctx.retry.backoff_after(attempt);
                ctx.plan.note_retry(backoff);
                // auto span: retries nest inside the Read stage span, so
                // they must not pollute the stage-only track
                let _sp = obs::auto_span(Phase::Retry, ctx.step);
                std::thread::sleep(backoff);
                attempt += 1;
            }
            Err(e) => {
                if e.is_transient() {
                    ctx.plan.note_exhausted();
                }
                return Err(e);
            }
        }
    }
}

/// Accounting for one read operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReadStats {
    /// Simulated parallel-file-system seconds (from the disk cost model).
    pub sim_seconds: f64,
    /// Bytes pulled off disk (including sieving waste).
    pub disk_bytes: u64,
    /// Bytes the caller asked for.
    pub useful_bytes: u64,
    /// Disk requests issued.
    pub requests: u64,
    /// Real wall-clock seconds spent in the read call.
    pub real_seconds: f64,
}

impl ReadStats {
    pub fn accumulate(&mut self, o: &ReadStats) {
        self.sim_seconds += o.sim_seconds;
        self.disk_bytes += o.disk_bytes;
        self.useful_bytes += o.useful_bytes;
        self.requests += o.requests;
        self.real_seconds += o.real_seconds;
    }
}

/// The mesh nodes at the eight corners of each level-`level` tiling cell
/// over the leaves `leaves`, sorted and unique. A leaf at or above `level`
/// is its own tiling cell: its corners are read from the mesh's cell table.
/// Deeper leaves share a coarsened ancestor, whose corners — each one a
/// mesh node, the corner of the leaf inside it there — are looked up once,
/// at the leaf that starts it (or the first of `leaves`). Sorted and
/// deduplicated by [`sorted_unique`]'s bitmap, O(ids + range/64) — no sort.
fn corner_nodes(mesh: &HexMesh, leaves: Range<usize>, level: u8) -> Vec<NodeId> {
    let max = mesh.octree().max_leaf_level();
    let mut ids = Vec::with_capacity(8 * leaves.len());
    let first = leaves.start;
    for i in leaves {
        let leaf = mesh.octree().leaves()[i];
        if leaf.level <= level {
            ids.extend_from_slice(mesh.cell_nodes(i));
            continue;
        }
        // a block finer than `level` begins inside an ancestor started
        // before it
        if leaf.start_level() > level && i != first {
            continue;
        }
        let cell = leaf.ancestor_at(level);
        let (ax, ay, az) = cell.anchor_at_level(max);
        let size = 1u32 << (max - cell.level);
        for k in 0..8u32 {
            let (gx, gy, gz) =
                (ax + (k & 1) * size, ay + ((k >> 1) & 1) * size, az + ((k >> 2) & 1) * size);
            ids.push(mesh.node_at(gx, gy, gz).expect("level tiling corner must be a mesh node"));
        }
    }
    sorted_unique(ids.iter().copied())
}

/// Sorted unique node ids needed to render the whole mesh at `level`: the
/// corners of every cell in the level-ℓ tiling.
pub fn level_node_ids(mesh: &HexMesh, level: u8) -> Vec<NodeId> {
    corner_nodes(mesh, 0..mesh.cell_count(), level)
}

/// Sorted unique node ids a renderer needs for `block` when fetching /
/// rendering at `level` (`None` = full resolution: every block node).
pub fn block_level_nodes(mesh: &HexMesh, block: &OctreeBlock, level: Option<u8>) -> Vec<NodeId> {
    match level {
        None => mesh.block_nodes(block),
        Some(level) => corner_nodes(mesh, block.leaf_start..block.leaf_end, level),
    }
}

/// Which dense slots the vectors of a read land in, in file order.
#[derive(Clone, Copy)]
enum Slots<'a> {
    Ids(&'a [NodeId]),
    /// Nodes `[a, b)`.
    Range(usize, usize),
}

fn parse_vectors_into(dense: &mut [[f32; 3]], slots: Slots, bytes: &[u8]) {
    assert_eq!(bytes.len() % 12, 0);
    let n = bytes.len() / 12;
    let word = |w: &[u8]| f32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let vectors = bytes.chunks_exact(12).map(|v| [word(&v[0..4]), word(&v[4..8]), word(&v[8..12])]);
    match slots {
        Slots::Range(a, b) => {
            assert_eq!(n, b - a);
            dense[a..b].iter_mut().zip(vectors).for_each(|(slot, v)| *slot = v);
        }
        Slots::Ids(ids) => {
            assert_eq!(n, ids.len());
            ids.iter().zip(vectors).for_each(|(&id, v)| dense[id as usize] = v);
        }
    }
}

/// The one read body: open step `t`, run `read` on it, scatter what came
/// back into a fresh dense per-node buffer (unfetched nodes stay zero).
fn read_dense(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    slots: Slots,
    read: impl FnOnce(&PFile) -> Result<ReadOutcome, ReadError>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    let start = Instant::now();
    let f = PFile::open(Arc::clone(disk), Dataset::step_path(t))?;
    let out = read(&f)?;
    let mut dense = vec![[0.0f32; 3]; mesh.node_count()];
    parse_vectors_into(&mut dense, slots, &out.data);
    let stats = ReadStats {
        sim_seconds: out.sim_seconds,
        disk_bytes: out.disk_bytes,
        useful_bytes: out.useful_bytes,
        requests: out.requests,
        real_seconds: start.elapsed().as_secs_f64(),
    };
    Ok((dense, stats))
}

/// Read the complete step `t` into a dense per-node vector buffer.
pub fn read_step_full(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ctx: Option<&FaultCtx>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    read_dense(disk, mesh, t, Slots::Range(0, mesh.node_count()), |f| {
        with_retry(ctx, |plan, attempt| f.read_contiguous_with(0, f.len(), plan, attempt))
    })
}

/// Independent indexed read of the given node ids of step `t`.
pub fn read_step_ids(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ids: &[NodeId],
    sieve_window: u64,
    ctx: Option<&FaultCtx>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    read_dense(disk, mesh, t, Slots::Ids(ids), |f| {
        let dt = IndexedBlockType::from_node_ids(ids, 12);
        with_retry(ctx, |plan, attempt| f.read_indexed_with(&dt, sieve_window, plan, attempt))
    })
}

/// Collective two-phase read of the given node ids over `comm`
/// (paper §5.3.1). All ranks of `comm` must call it with their own ids.
pub fn read_step_ids_collective(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ids: &[NodeId],
    comm: &Comm,
    sieve_window: u64,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    read_dense(disk, mesh, t, Slots::Ids(ids), |f| {
        let dt = IndexedBlockType::new(12, 1, ids.iter().map(|&i| i as u64).collect());
        f.read_all(comm, &dt, sieve_window)
    })
}

/// Contiguous node-range read (paper §5.3.2): nodes `[range.0, range.1)`.
pub fn read_step_range(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    (a, b): (usize, usize),
    ctx: Option<&FaultCtx>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    read_dense(disk, mesh, t, Slots::Range(a, b), |f| {
        with_retry(ctx, |plan, attempt| {
            f.read_contiguous_with(a as u64 * 12, (b - a) as u64 * 12, plan, attempt)
        })
    })
}

/// The contiguous node range of group member `j` of `m` (node-aligned).
pub fn member_node_range(node_count: usize, j: usize, m: usize) -> (usize, usize) {
    let a = j * node_count / m;
    let b = (j + 1) * node_count / m;
    (a, b)
}

/// One input rank's per-step fetch pattern under its current slice of
/// the group's read (constant across steps until a failover, rejoin or
/// elastic reshape re-slices): the rank thread and the read-ahead worker
/// issue byte-identical reads from this single description.
#[derive(Debug, Clone, Default)]
pub struct FetchPlan {
    /// Indexed fetch: the sorted node ids to pull (adaptive fetch: the
    /// level's nodes, or a 2DIP member's slice of them).
    pub ids: Option<Vec<NodeId>>,
    /// Contiguous fetch: nodes `[a, b)` (a 2DIP member's slice).
    pub range: Option<(usize, usize)>,
}

impl FetchPlan {
    /// A whole-step plan (1DIP full resolution).
    pub fn full() -> FetchPlan {
        FetchPlan::default()
    }

    /// Read step `t` under this plan.
    pub fn read(
        &self,
        disk: &Arc<Disk>,
        mesh: &HexMesh,
        t: usize,
        sieve_window: u64,
        ctx: Option<&FaultCtx>,
    ) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
        match (&self.ids, self.range) {
            (Some(ids), _) => read_step_ids(disk, mesh, t, ids, sieve_window, ctx),
            (None, Some(range)) => read_step_range(disk, mesh, t, range, ctx),
            (None, None) => read_step_full(disk, mesh, t, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{Aabb, Loc3, Octree, RefineOracle, Vec3};
    use quakeviz_rt::World;
    use quakeviz_seismic::SimulationBuilder;

    fn dataset() -> Dataset {
        SimulationBuilder::new().resolution(16).steps(3).run_to_dataset().unwrap()
    }

    #[test]
    fn full_read_matches_dataset() {
        let ds = dataset();
        let (dense, stats) = read_step_full(ds.disk(), ds.mesh(), 1, None).unwrap();
        let want = ds.load_step(1);
        assert_eq!(dense.len(), want.len());
        for (a, b) in dense.iter().zip(want.values()) {
            assert_eq!(a, b);
        }
        assert_eq!(stats.useful_bytes, ds.bytes_per_step());
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn level_ids_subset_and_monotone() {
        let ds = dataset();
        let mesh = ds.mesh();
        let max = mesh.octree().max_leaf_level();
        let mut prev = 0usize;
        for level in 0..=max {
            let ids = level_node_ids(mesh, level);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(ids.len() >= prev, "coarser level cannot have more nodes");
            prev = ids.len();
        }
        assert_eq!(level_node_ids(mesh, max).len(), mesh.node_count());
    }

    #[test]
    fn indexed_read_scatters_correctly() {
        let ds = dataset();
        let mesh = ds.mesh();
        let level = mesh.octree().max_leaf_level().saturating_sub(1);
        let ids = level_node_ids(mesh, level);
        let (dense, stats) = read_step_ids(ds.disk(), mesh, 2, &ids, 256, None).unwrap();
        let want = ds.load_step(2);
        for &id in &ids {
            assert_eq!(dense[id as usize], want.get(id));
        }
        assert!(stats.useful_bytes < ds.bytes_per_step(), "adaptive fetch must read less");
        assert_eq!(stats.useful_bytes, ids.len() as u64 * 12);
    }

    #[test]
    fn range_read_covers_exactly_range() {
        let ds = dataset();
        let mesh = ds.mesh();
        let n = mesh.node_count();
        let (a, b) = member_node_range(n, 1, 3);
        let (dense, _) = read_step_range(ds.disk(), mesh, 0, (a, b), None).unwrap();
        let want = ds.load_step(0);
        for id in a..b {
            assert_eq!(dense[id], want.get(id as NodeId));
        }
        // outside the range: zeros
        if a > 0 {
            assert_eq!(dense[0], [0.0; 3]);
        }
    }

    #[test]
    fn member_ranges_tile_node_array() {
        for (n, m) in [(100usize, 3usize), (17, 4), (64, 64), (5, 8)] {
            let mut covered = 0;
            for j in 0..m {
                let (a, b) = member_node_range(n, j, m);
                assert_eq!(a, covered);
                covered = b;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn collective_read_agrees_with_independent() {
        let ds = dataset();
        let mesh = Arc::clone(ds.mesh());
        let disk = Arc::clone(ds.disk());
        let results = World::run(3, |comm| {
            let n = mesh.node_count();
            let (a, b) = member_node_range(n, comm.rank(), comm.size());
            let ids: Vec<NodeId> = (a as NodeId..b as NodeId).collect();
            let (dense, stats) =
                read_step_ids_collective(&disk, &mesh, 1, &ids, &comm, 1 << 16).unwrap();
            (dense, stats, (a, b))
        });
        let want = ds.load_step(1);
        for (dense, stats, (a, b)) in results {
            for id in a..b {
                assert_eq!(dense[id], want.get(id as NodeId));
            }
            assert!(stats.sim_seconds > 0.0);
        }
    }

    #[test]
    fn fetch_plan_dispatches_to_matching_reader() {
        let ds = dataset();
        let mesh = ds.mesh();
        let n = mesh.node_count();
        let full = FetchPlan::full().read(ds.disk(), mesh, 1, 1 << 16, None).unwrap();
        assert_eq!(full.0, read_step_full(ds.disk(), mesh, 1, None).unwrap().0);

        let (a, b) = member_node_range(n, 1, 2);
        let plan = FetchPlan { ids: None, range: Some((a, b)) };
        assert_eq!(
            plan.read(ds.disk(), mesh, 1, 1 << 16, None).unwrap().0,
            read_step_range(ds.disk(), mesh, 1, (a, b), None).unwrap().0
        );

        let level = mesh.octree().max_leaf_level().saturating_sub(1);
        let ids = level_node_ids(mesh, level);
        let plan = FetchPlan { ids: Some(ids.clone()), range: None };
        assert_eq!(
            plan.read(ds.disk(), mesh, 1, 256, None).unwrap().0,
            read_step_ids(ds.disk(), mesh, 1, &ids, 256, None).unwrap().0
        );
    }

    #[test]
    fn retry_exhausts_on_persistent_transient_faults() {
        let ds = dataset();
        let plan =
            FaultPlan::new(quakeviz_rt::FaultSpec::parse("seed=7,read_transient=1.0").unwrap());
        let retry = RetryPolicy { max_attempts: 3, backoff_ms: 0 };
        let ctx = FaultCtx { plan: &plan, retry, step: 0 };
        let err = read_step_full(ds.disk(), ds.mesh(), 1, Some(&ctx)).unwrap_err();
        assert!(err.is_transient(), "exhaustion must surface the transient error: {err}");
        let rec = plan.recovery();
        assert_eq!(rec.read_retries, 2, "max_attempts=3 means two backoffs");
        assert_eq!(rec.exhausted_reads, 1);
    }

    #[test]
    fn retry_recovers_and_matches_clean_read() {
        let ds = dataset();
        let clean = read_step_full(ds.disk(), ds.mesh(), 1, None).unwrap().0;
        let retry = RetryPolicy { max_attempts: 5, backoff_ms: 0 };
        // Scan seeds for one whose first attempt faults but a later
        // attempt succeeds (p = 0.5 makes these common); the chosen seed
        // is then fully deterministic.
        for seed in 0..64u64 {
            let spec =
                quakeviz_rt::FaultSpec::parse(&format!("seed={seed},read_transient=0.5")).unwrap();
            let plan = FaultPlan::new(spec);
            let ctx = FaultCtx { plan: &plan, retry, step: 0 };
            let Ok((dense, _)) = read_step_full(ds.disk(), ds.mesh(), 1, Some(&ctx)) else {
                continue;
            };
            if plan.recovery().read_retries == 0 {
                continue;
            }
            assert_eq!(dense, clean, "recovered read must be bit-identical (seed {seed})");
            return;
        }
        panic!("no seed in 0..64 produced a fault-then-recover read");
    }

    #[test]
    fn block_level_nodes_subset_of_block_nodes() {
        let ds = dataset();
        let mesh = ds.mesh();
        let blocks = mesh.octree().blocks(2);
        let max = mesh.octree().max_leaf_level();
        for b in &blocks {
            let full = block_level_nodes(mesh, b, None);
            assert_eq!(full, mesh.block_nodes(b));
            for level in 0..=max {
                let sub = block_level_nodes(mesh, b, Some(level));
                assert!(sub.windows(2).all(|w| w[0] < w[1]));
                assert!(sub.len() <= full.len());
                // level == max gives the full set
                if level == max {
                    assert_eq!(sub, full);
                }
            }
        }
    }

    /// Refined two levels deeper in the top quarter: leaves at levels 2
    /// and 4, so coarsened ancestors and kept leaves mix at every level.
    struct TopHeavy;
    impl RefineOracle for TopHeavy {
        fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool {
            loc.level < if bounds.min.z < 0.25 { 4 } else { 2 }
        }
        fn max_level(&self) -> u8 {
            4
        }
        fn min_level(&self) -> u8 {
            2
        }
    }

    /// The definition `corner_nodes` replaces, kept as the oracle: every
    /// corner of every coarsened cell through `node_at`, sorted, deduped.
    fn corner_nodes_by_sort(mesh: &HexMesh, leaves: &[Loc3], level: u8) -> Vec<NodeId> {
        let max = mesh.octree().max_leaf_level();
        let mut ids = Vec::new();
        for leaf in leaves {
            let cell = if leaf.level > level { leaf.ancestor_at(level) } else { *leaf };
            let (ax, ay, az) = cell.anchor_at_level(max);
            let size = 1u32 << (max - cell.level);
            for k in 0..8u32 {
                let (x, y, z) =
                    (ax + (k & 1) * size, ay + ((k >> 1) & 1) * size, az + ((k >> 2) & 1) * size);
                ids.push(mesh.node_at(x, y, z).unwrap());
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn level_node_lists_equal_sort_dedup_on_top_heavy() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        let leaves = mesh.octree().leaves();
        let max = mesh.octree().max_leaf_level();
        for level in 0..=max {
            assert_eq!(level_node_ids(&mesh, level), corner_nodes_by_sort(&mesh, leaves, level));
        }
        for b in (0..=max).flat_map(|block_level| mesh.octree().blocks(block_level)) {
            let own = &leaves[b.leaf_start..b.leaf_end];
            // at the deepest level every leaf is its own tiling cell
            assert_eq!(block_level_nodes(&mesh, &b, None), corner_nodes_by_sort(&mesh, own, max));
            for level in 0..=max {
                let want = corner_nodes_by_sort(&mesh, own, level);
                assert_eq!(block_level_nodes(&mesh, &b, Some(level)), want, "block {}", b.id);
            }
        }
    }
}
