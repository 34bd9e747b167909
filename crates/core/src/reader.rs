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
//! §5.3.1's collective read of the same pattern (two-phase `lend_all`),
//! [`read_step_ids_collective`], is what the independent read is measured
//! against: `tab_read_strategies` and the benchmark walk's
//! `parfs.collective_read_ms` call it, the pipeline does not.
//!
//! Every read runs through one core: parfs *lends* the stored bytes of the
//! plan's extents — the whole step and a contiguous slice are one extent
//! each, an id list its datatype's extents — to a visitor (no copy), and a
//! sink reduces them in place. The pipeline's sink is
//! [`FetchPlan::read_magnitudes`], which
//! turns each node's 12 bytes straight into its velocity magnitude; the
//! dense sink behind [`FetchPlan::read`], [`read_step_ids`] and
//! [`read_step_ids_collective`] builds the per-node vector field for the
//! benchmark walk, and the compact sink [`read_node_vectors`] the vectors
//! of an id list alone, in its order (the LIC surface). A
//! step file that is not one vector per mesh node fails every read with
//! [`ReadError::WrongLength`].

use crate::config::RetryPolicy;
use quakeviz_mesh::{sorted_unique, HexMesh, Loc3, NodeId, OctreeBlock};
use quakeviz_parfs::{Disk, IndexedBlockType, PFile, ReadError, ReadOutcome};
use quakeviz_rt::obs::{self, prof, Phase};
use quakeviz_rt::Comm;
use quakeviz_rt::FaultPlan;
use quakeviz_seismic::Dataset;
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

/// Sorted unique ids of every mesh node at a level-`level` grid point of
/// `cell`'s closed bounds (`level` ≥ the cell's): the corners of the cells
/// of the level-ℓ tiling inside it — a tiling cell's closed bounds hold
/// no other grid point — plus any node a finer neighbour puts on its
/// boundary there. `node_at` at each of the (2^(ℓ − cell level) + 1)³
/// grid points, the loop `Brick::stencil` runs, deduplicated by
/// [`sorted_unique`]'s bitmap — no sort.
fn grid_nodes(mesh: &HexMesh, cell: Loc3, level: u8) -> Vec<NodeId> {
    let max = mesh.octree().max_leaf_level();
    let (ax, ay, az) = cell.anchor_at_level(max);
    let (step, n) = (1u32 << (max - level), 1u32 << (level - cell.level));
    let mut ids = Vec::with_capacity(((n + 1) * (n + 1) * (n + 1)) as usize);
    for k in 0..=n {
        for j in 0..=n {
            for i in 0..=n {
                ids.extend(mesh.node_at(ax + i * step, ay + j * step, az + k * step));
            }
        }
    }
    sorted_unique(ids)
}

/// Sorted unique node ids needed to render the whole mesh at `level`: the
/// corners of every cell in the level-ℓ tiling, which are every node at a
/// level-ℓ grid point.
pub fn level_node_ids(mesh: &HexMesh, level: u8) -> Vec<NodeId> {
    grid_nodes(mesh, Loc3::ROOT, level.min(mesh.octree().max_leaf_level()))
}

/// Sorted unique node ids a renderer reads for `block` at `level` — what
/// the pipeline routes it: every mesh node at a level-ℓ grid point of the
/// block's closed bounds, with `level` clamped to the block's root level
/// and the finest level as `Brick::stencil` clamps it. These are the
/// corners of the block's level-ℓ tiling cells, and the hanging nodes a
/// finer neighbour puts on its boundary, which a brick reads directly all
/// the same. `None` = every node of the block's cells.
pub fn block_level_nodes(mesh: &HexMesh, block: &OctreeBlock, level: Option<u8>) -> Vec<NodeId> {
    match level {
        None => mesh.block_nodes(block),
        Some(level) => {
            let max = mesh.octree().max_leaf_level();
            grid_nodes(mesh, block.root, level.clamp(block.root.level, max))
        }
    }
}

/// Bytes of one node's vector in a step file: three little-endian `f32`s.
const NODE_BYTES: u64 = 12;

/// The stored vectors of lent bytes, as fixed-size arrays: a visitor that
/// walks them indexes no slice, so its loop vectorizes (the magnitude pass
/// over a 245 181-node step: 0.19 ms on one core, against 1.14 ms over
/// `chunks_exact(12)`, whose per-byte bounds checks keep it scalar). Lent
/// extents are whole vectors, so nothing is left over.
#[inline]
fn vectors(bytes: &[u8]) -> &[[u8; 12]] {
    bytes.as_chunks::<12>().0
}

/// One node's vector out of its 12 stored bytes.
#[inline]
fn vector(v: &[u8; 12]) -> [f32; 3] {
    let word = |i: usize| f32::from_le_bytes([v[i], v[i + 1], v[i + 2], v[i + 3]]);
    [word(0), word(4), word(8)]
}

/// The velocity magnitude of one node straight from its 12 stored bytes —
/// the scalar every renderer draws, in the arithmetic of
/// `VectorField::magnitude`, so the two agree bit for bit.
#[inline]
fn magnitude(v: &[u8; 12]) -> f32 {
    let [x, y, z] = vector(v);
    (x * x + y * y + z * z).sqrt()
}

/// The one read body: open step `t`, check that it holds one vector per
/// mesh node, and run `read` on it. `read` lends what it fetched to
/// `visit` as `(first node, bytes)`, where `bytes` are whole vectors of
/// consecutive nodes in place in the store (or, for a collective read, in
/// its assembled buffer). A file of any other length is a typed
/// [`ReadError::WrongLength`], raised before anything is read.
fn read_lent(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    read: impl FnOnce(&PFile, &mut dyn FnMut(u64, &[u8])) -> Result<ReadOutcome, ReadError>,
    mut visit: impl FnMut(usize, &[u8]),
) -> Result<ReadStats, ReadError> {
    let start = Instant::now();
    let f = PFile::open(Arc::clone(disk), Dataset::step_path(t))?;
    let (file_len, expected) = (f.len(), mesh.node_count() as u64 * NODE_BYTES);
    if file_len != expected {
        return Err(ReadError::WrongLength { path: f.path().to_string(), file_len, expected });
    }
    let out = read(&f, &mut |off, bytes| visit((off / NODE_BYTES) as usize, bytes))?;
    prof::ticks("reader.bytes_lent", out.useful_bytes);
    Ok(ReadStats {
        sim_seconds: out.sim_seconds,
        disk_bytes: out.disk_bytes,
        useful_bytes: out.useful_bytes,
        requests: out.requests,
        real_seconds: start.elapsed().as_secs_f64(),
    })
}

/// The byte extents of a sorted unique id list: its indexed datatype's.
fn id_extents(ids: &[NodeId]) -> Vec<(u64, u64)> {
    IndexedBlockType::from_node_ids(ids, NODE_BYTES as usize).extents()
}

/// Lend the bytes of `extents` of step `t` to `visit` ([`read_lent`]): one
/// independent read with data sieving, each attempt under the fault plan
/// of `ctx` with bounded retry.
fn lend_step(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    extents: &[(u64, u64)],
    sieve_window: u64,
    ctx: Option<&FaultCtx>,
    visit: impl FnMut(usize, &[u8]),
) -> Result<ReadStats, ReadError> {
    let read = |f: &PFile, lend: &mut dyn FnMut(u64, &[u8])| {
        with_retry(ctx, |plan, attempt| f.lend(extents, sieve_window, plan, attempt, &mut *lend))
    };
    read_lent(disk, mesh, t, read, visit)
}

/// The dense sink: scatter the lent vectors into a fresh per-node buffer
/// (unfetched nodes stay zero). It materialises 12 bytes per mesh node,
/// ticked as `reader.bytes_copied`; the pipeline's own reads reduce the
/// lent bytes to magnitudes instead ([`FetchPlan::read_magnitudes`]).
fn read_dense(
    mesh: &HexMesh,
    lend: impl FnOnce(&mut dyn FnMut(usize, &[u8])) -> Result<ReadStats, ReadError>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    let mut dense = vec![[0.0f32; 3]; mesh.node_count()];
    let stats = lend(&mut |node, bytes| {
        for (slot, v) in dense[node..].iter_mut().zip(vectors(bytes)) {
            *slot = vector(v);
        }
    })?;
    prof::ticks("reader.bytes_copied", dense.len() as u64 * NODE_BYTES);
    Ok((dense, stats))
}

/// Independent indexed read of the given node ids of step `t` into a
/// dense per-node vector buffer.
pub fn read_step_ids(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ids: &[NodeId],
    sieve_window: u64,
    ctx: Option<&FaultCtx>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    let extents = id_extents(ids);
    read_dense(mesh, |visit| lend_step(disk, mesh, t, &extents, sieve_window, ctx, visit))
}

/// Independent indexed read of the given node ids of step `t` (sorted,
/// unique) into their vectors, in `ids` order: the compact sink, which
/// materialises 12 bytes per id (ticked as `reader.bytes_copied`) and none
/// for the rest of the mesh. The LIC surface reads through it.
pub fn read_node_vectors(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ids: &[NodeId],
    sieve_window: u64,
    ctx: Option<&FaultCtx>,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    let mut out = vec![[0.0f32; 3]; ids.len()];
    let extents = id_extents(ids);
    // a lent run is consecutive nodes, all of them wanted
    let stats = lend_step(disk, mesh, t, &extents, sieve_window, ctx, |node, bytes| {
        let at = ids.partition_point(|&id| (id as usize) < node);
        for (slot, v) in out[at..].iter_mut().zip(vectors(bytes)) {
            *slot = vector(v);
        }
    })?;
    prof::ticks("reader.bytes_copied", out.len() as u64 * NODE_BYTES);
    Ok((out, stats))
}

/// Collective two-phase read of the given node ids over `comm`
/// (paper §5.3.1) into a dense per-node vector buffer. All ranks of
/// `comm` must call it with their own ids.
pub fn read_step_ids_collective(
    disk: &Arc<Disk>,
    mesh: &HexMesh,
    t: usize,
    ids: &[NodeId],
    comm: &Comm,
    sieve_window: u64,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    read_dense(mesh, |visit| {
        let read = |f: &PFile, lend: &mut dyn FnMut(u64, &[u8])| {
            let dt = IndexedBlockType::from_node_ids(ids, NODE_BYTES as usize);
            f.lend_all(comm, &dt, sieve_window, lend)
        };
        read_lent(disk, mesh, t, read, visit)
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

    /// The byte extents this plan reads of a step file of `mesh`: the
    /// whole file or the slice, as one extent, or the ids' extents.
    fn extents(&self, mesh: &HexMesh) -> Vec<(u64, u64)> {
        match (&self.ids, self.range) {
            (Some(ids), _) => id_extents(ids),
            (None, Some((a, b))) => vec![(a as u64 * NODE_BYTES, (b - a) as u64 * NODE_BYTES)],
            (None, None) => vec![(0, mesh.node_count() as u64 * NODE_BYTES)],
        }
    }

    /// Read step `t` under this plan into a dense per-node vector buffer
    /// (unfetched nodes stay zero).
    pub fn read(
        &self,
        disk: &Arc<Disk>,
        mesh: &HexMesh,
        t: usize,
        sieve_window: u64,
        ctx: Option<&FaultCtx>,
    ) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
        let extents = self.extents(mesh);
        read_dense(mesh, |visit| lend_step(disk, mesh, t, &extents, sieve_window, ctx, visit))
    }

    /// Read step `t` under this plan straight into its per-node velocity
    /// magnitudes (unfetched nodes stay zero): each fetched vector is
    /// reduced where the store lends it, so no copy of the step and no
    /// vector field is ever built. Bit for bit the magnitudes of
    /// [`FetchPlan::read`]'s field, with the same [`ReadStats`].
    pub fn read_magnitudes(
        &self,
        disk: &Arc<Disk>,
        mesh: &HexMesh,
        t: usize,
        sieve_window: u64,
        ctx: Option<&FaultCtx>,
    ) -> Result<(Vec<f32>, ReadStats), ReadError> {
        let mut mag = vec![0.0f32; mesh.node_count()];
        let extents = self.extents(mesh);
        let stats = lend_step(disk, mesh, t, &extents, sieve_window, ctx, |node, bytes| {
            for (m, v) in mag[node..].iter_mut().zip(vectors(bytes)) {
                *m = magnitude(v);
            }
        })?;
        Ok((mag, stats))
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
        let (dense, stats) = FetchPlan::full().read(ds.disk(), ds.mesh(), 1, 0, None).unwrap();
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
        let plan = FetchPlan { ids: None, range: Some((a, b)) };
        let (dense, _) = plan.read(ds.disk(), mesh, 0, 0, None).unwrap();
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
        let (disk, mesh) = (ds.disk(), ds.mesh());
        let (stored, _) = disk.read_full(&Dataset::step_path(1)).unwrap();
        for plan in plan_kinds(mesh) {
            let want = copied_read(disk, &stored, mesh, 1, &plan, 256, None).unwrap().0;
            let (dense, _) = plan.read(disk, mesh, 1, 256, None).unwrap();
            assert_eq!(magnitudes(&dense), want, "{plan:?}");
        }
    }

    #[test]
    fn retry_exhausts_on_persistent_transient_faults() {
        let ds = dataset();
        let plan =
            FaultPlan::new(quakeviz_rt::FaultSpec::parse("seed=7,read_transient=1.0").unwrap());
        let retry = RetryPolicy { max_attempts: 3, backoff_ms: 0 };
        let ctx = FaultCtx { plan: &plan, retry, step: 0 };
        let err = FetchPlan::full().read(ds.disk(), ds.mesh(), 1, 0, Some(&ctx)).unwrap_err();
        assert!(err.is_transient(), "exhaustion must surface the transient error: {err}");
        let rec = plan.recovery();
        assert_eq!(rec.read_retries, 2, "max_attempts=3 means two backoffs");
        assert_eq!(rec.exhausted_reads, 1);
    }

    #[test]
    fn retry_recovers_and_matches_clean_read() {
        let ds = dataset();
        let full = FetchPlan::full();
        let clean = full.read(ds.disk(), ds.mesh(), 1, 0, None).unwrap().0;
        let retry = RetryPolicy { max_attempts: 5, backoff_ms: 0 };
        // Scan seeds for one whose first attempt faults but a later
        // attempt succeeds (p = 0.5 makes these common); the chosen seed
        // is then fully deterministic.
        for seed in 0..64u64 {
            let spec =
                quakeviz_rt::FaultSpec::parse(&format!("seed={seed},read_transient=0.5")).unwrap();
            let plan = FaultPlan::new(spec);
            let ctx = FaultCtx { plan: &plan, retry, step: 0 };
            let Ok((dense, _)) = full.read(ds.disk(), ds.mesh(), 1, 0, Some(&ctx)) else {
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

    fn magnitudes(dense: &[[f32; 3]]) -> Vec<f32> {
        dense.iter().map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()).collect()
    }

    /// The read as it was before reads were lent, kept as the oracle: the
    /// plan's extents lent under the same retry loop (so the fault draws
    /// are the same) and collected into one buffer — which must be those
    /// extents of `stored`, the step file as [`Disk::read_full`] returns
    /// it — then parsed into a dense field slot by slot and reduced to
    /// magnitudes in a second pass.
    fn copied_read(
        disk: &Arc<Disk>,
        stored: &[u8],
        mesh: &HexMesh,
        t: usize,
        plan: &FetchPlan,
        sieve_window: u64,
        ctx: Option<&FaultCtx>,
    ) -> Result<(Vec<f32>, ReadStats), ReadError> {
        let f = PFile::open(Arc::clone(disk), Dataset::step_path(t))?;
        let n = mesh.node_count();
        let (extents, slots): (_, Vec<usize>) = match (&plan.ids, plan.range) {
            (Some(ids), _) => (
                IndexedBlockType::from_node_ids(ids, 12).extents(),
                ids.iter().map(|&id| id as usize).collect(),
            ),
            (None, Some((a, b))) => (vec![(a as u64 * 12, (b - a) as u64 * 12)], (a..b).collect()),
            (None, None) => (vec![(0, f.len())], (0..n).collect()),
        };
        let mut data = Vec::new();
        let out = with_retry(ctx, |p, attempt| {
            f.lend(&extents, sieve_window, p, attempt, |_, bytes| data.extend_from_slice(bytes))
        })?;
        let want = extents.iter().flat_map(|&(o, l)| &stored[o as usize..(o + l) as usize]);
        assert!(data.iter().eq(want), "collected bytes differ from the stored file");
        assert_eq!(data.len(), slots.len() * 12);
        let mut dense = vec![[0.0f32; 3]; n];
        for (&slot, v) in slots.iter().zip(data.chunks_exact(12)) {
            let word = |i: usize| f32::from_le_bytes(v[i..i + 4].try_into().unwrap());
            dense[slot] = [word(0), word(4), word(8)];
        }
        let stats = ReadStats {
            sim_seconds: out.sim_seconds,
            disk_bytes: out.disk_bytes,
            useful_bytes: out.useful_bytes,
            requests: out.requests,
            real_seconds: 0.0,
        };
        Ok((magnitudes(&dense), stats))
    }

    /// Every plan kind the pipeline issues: the whole step, uneven 2DIP
    /// range slices, the adaptive level's ids and an uneven 2DIP slice of
    /// them.
    fn plan_kinds(mesh: &HexMesh) -> Vec<FetchPlan> {
        let n = mesh.node_count();
        let mut plans = vec![FetchPlan::full()];
        for (j, m) in [(0, 3), (1, 3), (2, 3), (4, 7)] {
            plans.push(FetchPlan { ids: None, range: Some(member_node_range(n, j, m)) });
        }
        let level = level_node_ids(mesh, mesh.octree().max_leaf_level().saturating_sub(1));
        let (a, b) = member_node_range(level.len(), 1, 3);
        plans.push(FetchPlan { ids: Some(level[a..b].to_vec()), range: None });
        plans.push(FetchPlan { ids: Some(level), range: None });
        plans
    }

    /// Every counted field of two reads' stats (`real_seconds` is the
    /// wall clock), the simulated seconds by bits.
    fn counted(s: &ReadStats) -> (u64, u64, u64, u64) {
        (s.sim_seconds.to_bits(), s.disk_bytes, s.useful_bytes, s.requests)
    }

    /// The dataset's steps on a disk striped at 4 KiB across four OSTs, so
    /// one step's read spans every target; step 1 carries NaN, ±∞, −0,
    /// a square that overflows `f32` and a subnormal among its components.
    fn sharded_copy(ds: &Dataset) -> Arc<Disk> {
        use quakeviz_parfs::CostModel;
        let disk = Disk::new(CostModel { stripe_size: 4096, ..CostModel::default() });
        for t in 0..ds.steps() {
            let path = Dataset::step_path(t);
            let (mut bytes, _) = ds.disk().read_full(&path).unwrap();
            if t == 1 {
                let odd = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 3e30, 1e-40];
                for (k, w) in bytes.chunks_exact_mut(4).step_by(37).enumerate() {
                    w.copy_from_slice(&odd[k % odd.len()].to_le_bytes());
                }
            }
            disk.write_file(&path, bytes);
        }
        disk.set_shards(4);
        disk
    }

    /// The lent read — magnitudes straight from the store, and the dense
    /// and (for id lists) compact sinks over the same visitor — against
    /// the copying read, for every
    /// plan kind, sieve window 0 and 64 KiB, flat and sharded disks, clean
    /// and under seeded transient and corrupt reads: magnitudes equal to
    /// the bit, stats equal field by field, the same retries and fault
    /// log, the same per-OST reads and bytes.
    #[test]
    fn lent_magnitudes_equal_the_copied_read_bit_for_bit() {
        let ds = dataset();
        let mesh = ds.mesh();
        let retry = RetryPolicy { max_attempts: 12, backoff_ms: 0 };
        let spec = quakeviz_rt::FaultSpec::parse("seed=5,read_transient=0.3,read_corrupt=0.2");
        let spec = spec.unwrap();
        let (mut faulted, mut odd, mut osts) = (0, 0, 0);
        for disk in [Arc::clone(ds.disk()), sharded_copy(&ds)] {
            for plan in plan_kinds(mesh) {
                for (t, sieve) in (0..ds.steps()).flat_map(|t| [(t, 0), (t, 1 << 16)]) {
                    // read before the reads under test count their OST reads
                    let (stored, _) = disk.read_full(&Dataset::step_path(t)).unwrap();
                    for seeded in [false, true] {
                        let mut logs = Vec::new();
                        let mut run = |kind: u8| {
                            let faults = FaultPlan::new(spec.clone());
                            let ctx = FaultCtx { plan: &faults, retry, step: t as u32 };
                            let ctx = seeded.then_some(&ctx);
                            let before = disk.ost_stats();
                            let got = match kind {
                                0 => copied_read(&disk, &stored, mesh, t, &plan, sieve, ctx),
                                1 => plan.read_magnitudes(&disk, mesh, t, sieve, ctx),
                                3 => {
                                    let ids = plan.ids.as_deref().unwrap_or_default();
                                    read_node_vectors(&disk, mesh, t, ids, sieve, ctx).map(
                                        |(vectors, stats)| {
                                            let mut dense = vec![[0.0f32; 3]; mesh.node_count()];
                                            for (&id, v) in ids.iter().zip(vectors) {
                                                dense[id as usize] = v;
                                            }
                                            (magnitudes(&dense), stats)
                                        },
                                    )
                                }
                                _ => plan
                                    .read(&disk, mesh, t, sieve, ctx)
                                    .map(|(dense, stats)| (magnitudes(&dense), stats)),
                            };
                            let ost: Vec<_> = (disk.ost_stats().iter().zip(&before))
                                .map(|(now, was)| (now.reads - was.reads, now.bytes - was.bytes))
                                .collect();
                            let recovery: Vec<_> = faults.recovery().named().collect();
                            logs.push((recovery, faults.events().len(), ost));
                            let (mag, stats) = got.unwrap();
                            (mag.iter().map(|m| m.to_bits()).collect::<Vec<_>>(), counted(&stats))
                        };
                        let want = run(0);
                        let what = format!("{plan:?} step {t} sieve {sieve} seeded {seeded}");
                        assert_eq!(run(1), want, "lent magnitudes: {what}");
                        assert_eq!(run(2), want, "dense sink: {what}");
                        if plan.ids.is_some() {
                            assert_eq!(run(3), want, "compact sink: {what}");
                        }
                        assert!(logs.iter().all(|l| *l == logs[0]), "{what}: {logs:?}");
                        faulted += usize::from(logs[0].1 > 0);
                        osts = osts.max(logs[0].2.iter().filter(|&&(reads, _)| reads > 0).count());
                        let nonfinite = want.0.iter().filter(|&&b| !f32::from_bits(b).is_finite());
                        odd += nonfinite.count();
                    }
                }
            }
        }
        assert!(faulted > 20, "the seeded plan must fault some reads ({faulted})");
        assert!(odd > 0, "the planted NaN/∞ components must reach some magnitudes");
        assert_eq!(osts, 4, "a whole-step read of the sharded copy spans every OST");
    }

    /// A step file that is not one vector per node fails every read of it
    /// with a typed error — before anything is read, never a panic.
    #[test]
    fn a_step_file_of_the_wrong_length_fails_every_read() {
        let ds = dataset();
        let (disk, mesh) = (ds.disk(), ds.mesh());
        let expected = mesh.node_count() as u64 * 12;
        let (bytes, _) = disk.read_full(&Dataset::step_path(1)).unwrap();
        for file_len in [expected - 12, expected - 5, expected + 12] {
            let mut wrong = bytes.clone();
            wrong.resize(file_len as usize, 0);
            disk.write_file(&Dataset::step_path(1), wrong);
            let want = ReadError::WrongLength { path: Dataset::step_path(1), file_len, expected };
            for plan in plan_kinds(mesh) {
                assert_eq!(plan.read_magnitudes(disk, mesh, 1, 0, None).unwrap_err(), want);
                assert_eq!(plan.read(disk, mesh, 1, 0, None).unwrap_err(), want);
            }
            assert!(!want.is_transient(), "a malformed file is not retried");
        }
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

    /// The oracle of a level's corner set: every corner of every
    /// coarsened cell through `node_at`, sorted, deduped.
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

    /// Every mesh node at a level-`level` grid point of `block`'s closed
    /// bounds, found by filtering all nodes on their grid coordinates.
    fn grid_nodes_by_filter(mesh: &HexMesh, block: &OctreeBlock, level: u8) -> Vec<NodeId> {
        let max = mesh.octree().max_leaf_level();
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let (step, span) = (1u32 << (max - level), 1u32 << (max - block.root.level));
        let on_grid = |c: u32, lo: u32| (lo..=lo + span).contains(&c) && c.is_multiple_of(step);
        let ids = 0..mesh.node_count() as NodeId;
        ids.filter(|&id| {
            let (x, y, z) = mesh.node_grid_coords(id);
            on_grid(x, ax) && on_grid(y, ay) && on_grid(z, az)
        })
        .collect()
    }

    #[test]
    fn level_node_lists_equal_sort_dedup_on_top_heavy() {
        let mesh = HexMesh::from_octree(Octree::build(Vec3::ONE, &TopHeavy));
        let leaves = mesh.octree().leaves();
        let max = mesh.octree().max_leaf_level();
        for level in 0..=max {
            assert_eq!(level_node_ids(&mesh, level), corner_nodes_by_sort(&mesh, leaves, level));
        }
        let mut hanging = 0;
        for b in (0..=max).flat_map(|block_level| mesh.octree().blocks(block_level)) {
            let own = &leaves[b.leaf_start..b.leaf_end];
            // at the deepest level every leaf is its own tiling cell
            assert_eq!(block_level_nodes(&mesh, &b, None), corner_nodes_by_sort(&mesh, own, max));
            for level in 0..=max {
                // below its root level a block is read at its root level
                let at = level.max(b.root.level);
                let got = block_level_nodes(&mesh, &b, Some(level));
                let want = grid_nodes_by_filter(&mesh, &b, at);
                assert_eq!(got, want, "block {} at level {level}", b.id);
                // its tiling corners, and the hanging nodes of finer
                // neighbours on its boundary
                let corners = corner_nodes_by_sort(&mesh, own, at);
                assert!(corners.iter().all(|id| got.binary_search(id).is_ok()));
                hanging += got.len() - corners.len();
            }
        }
        assert!(hanging > 0, "the coarse blocks border finer ones");
    }
}
