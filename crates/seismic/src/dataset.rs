//! Dataset generation and the on-disk layout the pipeline consumes.
//!
//! A dataset on the virtual parallel file system consists of
//!
//! * `mesh.oct` — the one-time octree encoding (extent + leaf keys). The
//!   mesh never changes during the simulation, so the pipeline reads this
//!   once at startup (paper §4).
//! * `step_NNNN.vel` — one file per output time step: the node velocity
//!   vectors as a flat little-endian `3 × f32` array in node-id order.
//!   This is the "linear array on the disk" of paper §5.3 that the input
//!   processors gather noncontiguously.
//! * `step_NNNN.norm` — the running maximum velocity magnitude through
//!   step `N` (one little-endian `f32`), written *before* the step's data:
//!   what a frame is normalized by while the simulation is still running
//!   and the global maximum is not known yet.
//! * `meta.txt` — scalar metadata (`key=value` lines): step count,
//!   components, global magnitude range (for transfer-function scaling),
//!   output cadence. Written last.

use crate::material::BasinModel;
use crate::oracle::WavelengthOracle;
use crate::solver::WaveSolver;
use crate::source::RickerSource;
use quakeviz_mesh::{HexMesh, NodeId, Octree, Vec3, VectorField};
use quakeviz_parfs::{CostModel, Disk};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const MESH_FILE: &str = "mesh.oct";
const META_FILE: &str = "meta.txt";
const MESH_MAGIC: &[u8; 6] = b"QVOCT1";
/// Byte offset of the leaf-key table in `mesh.oct`: magic, extent, count.
const MESH_KEYS_AT: usize = 6 + 24 + 8;
/// Floor of the running normalization maximum: the first outputs of a run
/// can precede any motion, and a zero scale would divide by zero.
const NORM_FLOOR: f32 = 1e-12;
/// 2⁻⁶³, the smallest magnitude whose square is a normal `f32`: a step
/// file stores a smaller velocity component as 0, so no consumer squaring
/// it (`vmag_max` here, the pipeline's magnitudes, the LIC tracer) passes
/// through subnormals.
const VELOCITY_FLOOR: f32 = 1.0 / (1u64 << 63) as f32;

/// A generated (or reopened) time-varying earthquake dataset — finished,
/// or still being written by a running simulation
/// ([`SimulationBuilder::run_live`]).
#[derive(Clone)]
pub struct Dataset {
    disk: Arc<Disk>,
    mesh: Arc<HexMesh>,
    steps: usize,
    components: usize,
    norm: Norm,
    /// Simulated seconds between output steps.
    output_dt: f64,
}

/// Which maximum scales a step's values ([`Dataset::norm_at`]).
#[derive(Clone, Copy)]
enum Norm {
    /// A finished simulation: the largest velocity magnitude over all steps.
    Global(f32),
    /// A simulation that may still be running: the largest magnitude up to
    /// and including the step, read from the step's norm file.
    Running,
}

impl Dataset {
    /// File name of output step `t`.
    pub fn step_path(t: usize) -> String {
        format!("step_{t:04}.vel")
    }

    /// File holding the running normalization maximum after step `t`.
    fn norm_path(t: usize) -> String {
        format!("step_{t:04}.norm")
    }

    /// The virtual disk holding the files.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The shared element mesh.
    pub fn mesh(&self) -> &Arc<HexMesh> {
        &self.mesh
    }

    /// Number of output time steps (written or announced).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// f32 components per node (3 = vector).
    pub fn components(&self) -> usize {
        self.components
    }

    /// Global maximum velocity magnitude (transfer-function scale). A live
    /// dataset knows it only once its last step is out, and waits for that.
    pub fn vmag_max(&self) -> f32 {
        self.norm_at(self.steps.saturating_sub(1))
    }

    /// The magnitude that maps to the top of the transfer function at step
    /// `t` — the one normalization decision of a run. A finished dataset
    /// answers its global maximum for every step; a live one the running
    /// maximum through `t`, waiting until the simulation has published it
    /// (it does so *before* the step's data, so whoever holds the data never
    /// waits). If the simulation ended early, the last norm it published.
    pub fn norm_at(&self, t: usize) -> f32 {
        match self.norm {
            Norm::Global(max) => max,
            Norm::Running => (0..=t).rev().find_map(|u| self.running_norm(u)).unwrap_or(NORM_FLOOR),
        }
    }

    /// [`Dataset::norm_at`] without the wait: `None` while a live dataset
    /// has not published step `t` yet.
    pub fn norm_if_published(&self, t: usize) -> Option<f32> {
        match self.norm {
            Norm::Global(max) => Some(max),
            Norm::Running => {
                self.disk.file_len(&Self::norm_path(t)).and_then(|_| self.running_norm(t))
            }
        }
    }

    fn running_norm(&self, t: usize) -> Option<f32> {
        let (bytes, _) = self.disk.read_full(&Self::norm_path(t)).ok()?;
        Some(f32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Simulated seconds between outputs.
    pub fn output_dt(&self) -> f64 {
        self.output_dt
    }

    /// Bytes of one on-disk step.
    pub fn bytes_per_step(&self) -> u64 {
        self.mesh.bytes_per_step(self.components)
    }

    /// Convenience full read of one step (tests, examples). The pipeline
    /// itself reads through the MPI-IO layer instead.
    pub fn load_step(&self, t: usize) -> VectorField {
        assert!(t < self.steps, "step {t} out of range ({} steps)", self.steps);
        let (bytes, _) =
            self.disk.read_full(&Self::step_path(t)).expect("dataset step file readable");
        VectorField::from_bytes(&bytes)
    }

    /// Reopen a dataset previously written to `disk`.
    pub fn open(disk: Arc<Disk>) -> Result<Dataset, String> {
        let (meshbytes, _) =
            disk.read_full(MESH_FILE).map_err(|_| format!("{MESH_FILE} missing"))?;
        if meshbytes.len() < MESH_KEYS_AT || &meshbytes[0..6] != MESH_MAGIC {
            return Err("bad mesh.oct header".into());
        }
        // after the magic the file is little-endian 8-byte words: extent
        // x, y, z, the leaf-key count, the keys
        let words: Vec<u64> = meshbytes[6..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(std::array::from_fn(|i| c[i])))
            .collect();
        let extent =
            Vec3::new(f64::from_bits(words[0]), f64::from_bits(words[1]), f64::from_bits(words[2]));
        let count = words[3] as usize;
        let keys = words[4..].get(..count).ok_or_else(|| {
            format!(
                "{MESH_FILE} truncated: header promises {count} leaf keys, file holds {}",
                words.len() - 4
            )
        })?;
        let mesh = Arc::new(HexMesh::from_octree(Octree::from_leaf_keys(extent, keys)));

        let (metabytes, _) =
            disk.read_full(META_FILE).map_err(|_| format!("{META_FILE} missing"))?;
        let meta = String::from_utf8(metabytes).map_err(|e| e.to_string())?;
        let mut steps = None;
        let mut components = None;
        let mut vmag_max = None;
        let mut output_dt = None;
        for line in meta.lines() {
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            match k {
                "steps" => steps = v.parse::<usize>().ok(),
                "components" => components = v.parse::<usize>().ok(),
                "vmag_max" => vmag_max = v.parse::<f32>().ok(),
                "output_dt" => output_dt = v.parse::<f64>().ok(),
                _ => {}
            }
        }
        let components = components.ok_or("meta missing components")?;
        if components != 3 {
            return Err(format!("meta components={components}: a step holds 3 per node"));
        }
        let vmag_max = vmag_max.ok_or("meta missing vmag_max")?;
        if !(vmag_max.is_finite() && vmag_max > 0.0) {
            return Err(format!(
                "meta vmag_max={vmag_max}: frames are normalised by it, so it must be finite \
                 and > 0"
            ));
        }
        Ok(Dataset {
            disk,
            mesh,
            steps: steps.ok_or("meta missing steps")?,
            components,
            norm: Norm::Global(vmag_max),
            output_dt: output_dt.ok_or("meta missing output_dt")?,
        })
    }
}

/// Configures and runs a small earthquake simulation, producing a
/// [`Dataset`] on a virtual disk.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    extent: Vec3,
    cells: usize,
    steps: usize,
    frequency: f64,
    substeps: Option<usize>,
    cost_model: CostModel,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The solver set up and ready to step: what [`SimulationBuilder::produce`]
/// runs, to completion or on a thread of its own.
struct Producer {
    mesh: Arc<HexMesh>,
    solver: WaveSolver,
    /// Mesh node id → solver grid index.
    node_map: Vec<usize>,
    substeps: usize,
    output_dt: f64,
}

/// What a simulation reports once it has produced its last step.
#[derive(Debug, Clone)]
pub struct SimulationSummary {
    /// Wall-clock spent inside the solver.
    pub sim_seconds: f64,
    /// The running normalization maximum after each output step
    /// (`norm_at(t)` of the live dataset).
    pub norm_history: Vec<f32>,
    /// Largest velocity magnitude over the whole run.
    pub vmag_max: f32,
}

/// The solver thread behind a live dataset. Dropping it without
/// [`LiveSimulation::join`] lets the simulation run on detached.
pub struct LiveSimulation {
    solver: JoinHandle<Result<SimulationSummary, String>>,
}

impl LiveSimulation {
    /// Wait for the simulation to end and take its summary (or its error).
    pub fn join(self) -> Result<SimulationSummary, String> {
        self.solver.join().map_err(|_| "the solver thread panicked".to_string())?
    }
}

impl SimulationBuilder {
    pub fn new() -> SimulationBuilder {
        SimulationBuilder {
            extent: Vec3::new(40_000.0, 40_000.0, 20_000.0),
            cells: 32,
            steps: 16,
            frequency: 0.15,
            substeps: None,
            cost_model: CostModel::default(),
        }
    }

    /// Physical domain size in metres (default 40 km × 40 km × 20 km —
    /// basin scale, like the paper's greater-LA volume).
    pub fn extent(mut self, extent: Vec3) -> Self {
        self.extent = extent;
        self
    }

    /// Finest-grid cells per axis; must be a power of two (default 32).
    pub fn resolution(mut self, cells: usize) -> Self {
        self.cells = cells;
        self
    }

    /// Number of output time steps (default 16).
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Source centre frequency in Hz (default 0.15 — scaled-down analogue
    /// of the paper's 1 Hz Northridge runs).
    pub fn frequency(mut self, f: f64) -> Self {
        self.frequency = f;
        self
    }

    /// Solver sub-steps between outputs (default: chosen so one output
    /// interval is a quarter of the source period).
    pub fn substeps_per_output(mut self, k: usize) -> Self {
        self.substeps = Some(k.max(1));
        self
    }

    /// Cost model for the virtual disk the dataset is written to.
    pub fn cost_model(mut self, cm: CostModel) -> Self {
        self.cost_model = cm;
        self
    }

    /// Validate the configuration and set the solver up: basin, refinement
    /// oracle, mesh, source, node map, output cadence.
    fn producer(&self) -> Result<Producer, String> {
        if !self.cells.is_power_of_two() || self.cells < 8 {
            return Err(format!("resolution must be a power of two ≥ 8, got {}", self.cells));
        }
        if self.steps == 0 {
            return Err("a simulation needs at least one output step".into());
        }
        let max_level = self.cells.trailing_zeros() as u8;
        let basin = BasinModel::la_like(self.extent);
        let oracle = WavelengthOracle::new(basin.clone(), self.frequency, max_level);
        let octree = Octree::build(self.extent, &oracle);
        let mesh = Arc::new(HexMesh::from_octree(octree));

        // hypocentre: off-centre, mid-depth — Northridge-like geometry
        let h = self.extent.x / self.cells as f64;
        let source = RickerSource::new(
            Vec3::new(self.extent.x * 0.30, self.extent.y * 0.35, self.extent.z * 0.45),
            self.frequency,
            1e9,
            h * 1.6,
        );
        let solver = WaveSolver::new(&basin, self.cells, source);

        let substeps = self.substeps.unwrap_or_else(|| {
            let want_dt = 0.25 / self.frequency;
            ((want_dt / solver.dt()).round() as usize).max(1)
        });
        let output_dt = substeps as f64 * solver.dt();

        // precompute mesh-node -> solver-grid index map
        let scale = self.cells >> max_level; // == 1 by construction
        debug_assert_eq!(scale, 1);
        let node_map: Vec<usize> = (0..mesh.node_count() as NodeId)
            .map(|id| {
                let (x, y, z) = mesh.node_grid_coords(id);
                solver.node_index(x as usize, y as usize, z as usize)
            })
            .collect();
        Ok(Producer { mesh, solver, node_map, substeps, output_dt })
    }

    /// The producer loop: write `mesh.oct`, then step the solver through
    /// every output — publishing the running norm and then the step's data,
    /// in that order — then `meta.txt`.
    fn produce(&self, p: Producer, disk: &Disk) -> Result<SimulationSummary, String> {
        let Producer { mesh, mut solver, node_map, substeps, output_dt } = p;
        let keys = mesh.octree().leaf_keys();
        let mut mb = Vec::with_capacity(MESH_KEYS_AT + keys.len() * 8);
        mb.extend_from_slice(MESH_MAGIC);
        for c in [self.extent.x, self.extent.y, self.extent.z] {
            mb.extend_from_slice(&c.to_le_bytes());
        }
        mb.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in &keys {
            mb.extend_from_slice(&k.to_le_bytes());
        }
        drop(keys);
        disk.write_file(MESH_FILE, mb);

        let mut sim_seconds = 0.0f64;
        let mut vmag_max = 0.0f32;
        let mut norm_history = Vec::with_capacity(self.steps);
        for t in 0..self.steps {
            let t0 = Instant::now();
            for _ in 0..substeps {
                solver.step();
            }
            sim_seconds += t0.elapsed().as_secs_f64();
            let floor = |c: f32| if c.abs() < VELOCITY_FLOOR { 0.0 } else { c };
            let values: Vec<[f32; 3]> =
                node_map.iter().map(|&i| solver.velocity(i).map(floor)).collect();
            for v in &values {
                let m = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                if !m.is_finite() {
                    return Err(format!(
                        "solver produced a non-finite velocity at output step {t}"
                    ));
                }
                vmag_max = vmag_max.max(m);
            }
            let norm = vmag_max.max(NORM_FLOOR);
            norm_history.push(norm);
            disk.write_file(&Dataset::norm_path(t), norm.to_le_bytes().to_vec());
            disk.write_file(&Dataset::step_path(t), VectorField::new(values).to_bytes());
        }
        if vmag_max == 0.0 {
            return Err("simulation produced no motion — check source placement".into());
        }

        let meta = format!(
            "steps={}\ncomponents=3\nvmag_max={}\noutput_dt={}\nfrequency={}\ncells={}\n",
            self.steps, vmag_max, output_dt, self.frequency, self.cells
        );
        disk.write_file(META_FILE, meta.into_bytes());
        Ok(SimulationSummary { sim_seconds, norm_history, vmag_max })
    }

    /// Run the simulation to completion and write the dataset; its frames
    /// are normalized by the global maximum.
    pub fn run_to_dataset(self) -> Result<Dataset, String> {
        let p = self.producer()?;
        let (mesh, output_dt) = (Arc::clone(&p.mesh), p.output_dt);
        let disk = Disk::new(self.cost_model);
        let norm = Norm::Global(self.produce(p, &disk)?.vmag_max);
        Ok(Dataset { disk, mesh, steps: self.steps, components: 3, norm, output_dt })
    }

    /// Start the simulation on a thread of its own and return at once with
    /// the dataset it is writing. Every step is announced on the dataset's
    /// disk, so a read of one not yet computed waits for it — a pipeline run
    /// over the dataset visualizes the simulation while it runs, with the
    /// disk (process memory) as the staging area between the two. Frames
    /// are normalized by the running maximum ([`Dataset::norm_at`]), then
    /// and on every later run over the same dataset.
    pub fn run_live(self) -> Result<(Dataset, LiveSimulation), String> {
        let p = self.producer()?;
        let disk = Disk::new(self.cost_model);
        let dataset = Dataset {
            disk: Arc::clone(&disk),
            mesh: Arc::clone(&p.mesh),
            steps: self.steps,
            components: 3,
            norm: Norm::Running,
            output_dt: p.output_dt,
        };
        let promise = disk
            .announce((0..self.steps).flat_map(|t| [Dataset::norm_path(t), Dataset::step_path(t)]));
        let solver = std::thread::spawn(move || {
            // withdrawn when the thread ends, however it ends: readers of a
            // step that will never come get an error, not a hang
            let _promise = promise;
            self.produce(p, &disk)
        });
        Ok((dataset, LiveSimulation { solver }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_rt::FnvLanes;

    fn tiny_builder() -> SimulationBuilder {
        SimulationBuilder::new().resolution(16).steps(6).frequency(0.3)
    }

    fn tiny() -> Dataset {
        tiny_builder().run_to_dataset().expect("simulation")
    }

    /// `tiny()`'s meta with the `key` line's value replaced by `value`.
    fn open_with_meta(key: &str, value: &str) -> Result<Dataset, String> {
        let ds = tiny();
        let (meta, _) = ds.disk().read_full(META_FILE).unwrap();
        let meta = String::from_utf8(meta).unwrap();
        let meta: String = meta
            .lines()
            .map(|l| match l.split_once('=') {
                Some((k, _)) if k == key => format!("{k}={value}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        ds.disk().write_file(META_FILE, meta.into_bytes());
        Dataset::open(Arc::clone(ds.disk()))
    }

    #[test]
    fn dataset_files_exist_with_right_sizes() {
        let ds = tiny();
        assert_eq!(ds.steps(), 6);
        assert_eq!(ds.components(), 3);
        for t in 0..6 {
            assert_eq!(
                ds.disk().file_len(&Dataset::step_path(t)),
                Some(ds.bytes_per_step()),
                "step {t} size"
            );
        }
        assert!(ds.vmag_max() > 0.0);
        assert!(ds.output_dt() > 0.0);
    }

    #[test]
    fn step_files_hash_to_the_pinned_digest() {
        // the solver's output bytes, pinned: a solver change that moves one
        // bit of one step (an operation reordered, a reciprocal taken)
        // fails here before it shows in a frame. Re-pinned once, on purpose,
        // when the solver began flushing below its subnormal horizon and
        // the step files below the velocity floor: the solver answers to a
        // budget since (DESIGN.md, quakeviz-seismic).
        let ds = tiny();
        let digest = (0..ds.steps()).fold(FnvLanes::new(), |h, t| {
            let (bytes, _) = ds.disk().read_full(&Dataset::step_path(t)).expect("step file");
            h.slice(&bytes)
        });
        assert_eq!(digest.finish(), 0xde74_925d_09c2_841b, "dataset digest moved");
    }

    #[test]
    fn the_solver_state_holds_no_subnormal_after_any_substep() {
        let p = tiny_builder().producer().expect("producer");
        let (mut solver, substeps) = (p.solver, p.substeps);
        for step in 1..=substeps * 6 {
            solver.step();
            for (level, u) in solver.state().into_iter().enumerate() {
                let sub = u.iter().position(|v| v.is_subnormal());
                assert_eq!(sub, None, "substep {step}, time level {level}: a subnormal stored");
            }
        }
    }

    /// The flush itself, pinned. `tiny()`'s digest cannot see it: a
    /// non-flushing `WaveSolver::step` writes the same step bytes from
    /// 16³ × 6 up to 16³ × 192, every dropped value far below the 2⁻⁶³
    /// velocity floor and half an ulp of what it feeds. At 32³ the
    /// flush's rounding reaches the step files from the first output step
    /// on, so one step of the 32³ generation is the smallest dataset whose
    /// bytes pin the flushing solver.
    #[test]
    fn the_flush_reaches_the_pinned_32_cubed_step_file() {
        let ds = SimulationBuilder::new().resolution(32).steps(1).frequency(0.3);
        let ds = ds.run_to_dataset().expect("simulation");
        let (bytes, _) = ds.disk().read_full(&Dataset::step_path(0)).expect("step file");
        let digest = FnvLanes::new().slice(&bytes).finish();
        assert_eq!(digest, 0xf48b_afe6_3676_336f, "32³ step digest moved");
    }

    #[test]
    fn step_files_hold_no_component_below_the_velocity_floor() {
        let ds = tiny();
        for t in 0..ds.steps() {
            for c in ds.load_step(t).values().iter().flatten() {
                assert!(*c == 0.0 || c.abs() >= VELOCITY_FLOOR, "step {t}: component {c:e}");
            }
        }
    }

    #[test]
    fn open_rejects_a_vmag_max_it_cannot_normalise_by() {
        for bad in ["NaN", "inf", "-inf", "0", "-1"] {
            let err = open_with_meta("vmag_max", bad).err().expect(bad);
            assert!(err.contains("vmag_max=") && err.contains("finite and > 0"), "{bad}: {err}");
        }
        assert!(open_with_meta("vmag_max", "1e-3").is_ok());
    }

    #[test]
    fn open_rejects_components_other_than_three() {
        for bad in ["0", "1", "4"] {
            let err = open_with_meta("components", bad).err().expect(bad);
            assert!(err.contains(&format!("components={bad}")), "{bad}: {err}");
        }
        assert!(open_with_meta("components", "3").is_ok());
    }

    #[test]
    fn load_step_roundtrips_node_count() {
        let ds = tiny();
        let f = ds.load_step(0);
        assert_eq!(f.len(), ds.mesh().node_count());
    }

    #[test]
    fn motion_grows_from_quiet_start() {
        let ds = tiny();
        let first = ds.load_step(0).magnitude();
        let later = ds.load_step(4).magnitude();
        let max0 = first.range().1;
        let max4 = later.range().1;
        assert!(
            max4 > max0,
            "wavefield should grow as the wavelet arrives: step0 {max0}, step4 {max4}"
        );
    }

    #[test]
    fn vmag_max_is_global_max() {
        let ds = tiny();
        let mut m = 0.0f32;
        for t in 0..ds.steps() {
            m = m.max(ds.load_step(t).magnitude().range().1);
        }
        assert!((m - ds.vmag_max()).abs() <= f32::EPSILON * m.max(1.0));
    }

    #[test]
    fn open_reconstructs_dataset() {
        let ds = tiny();
        let reopened = Dataset::open(Arc::clone(ds.disk())).expect("open");
        assert_eq!(reopened.steps(), ds.steps());
        assert_eq!(reopened.mesh().node_count(), ds.mesh().node_count());
        assert_eq!(reopened.mesh().cell_count(), ds.mesh().cell_count());
        assert_eq!(reopened.bytes_per_step(), ds.bytes_per_step());
        assert_eq!(reopened.vmag_max(), ds.vmag_max());
        // data still loads
        let f = reopened.load_step(1);
        assert_eq!(f.len(), reopened.mesh().node_count());
    }

    #[test]
    fn finished_dataset_normalizes_every_step_by_the_global_max() {
        let ds = tiny();
        for t in 0..ds.steps() {
            assert_eq!(ds.norm_at(t).to_bits(), ds.vmag_max().to_bits(), "step {t}");
            assert_eq!(ds.norm_if_published(t), Some(ds.vmag_max()));
        }
    }

    #[test]
    fn open_rejects_a_key_table_cut_mid_key() {
        let ds = tiny();
        let (mut mesh, _) = ds.disk().read_full(MESH_FILE).unwrap();
        mesh.truncate(MESH_KEYS_AT + 8 * 3 + 5);
        ds.disk().write_file(MESH_FILE, mesh);
        let err = Dataset::open(Arc::clone(ds.disk())).err().expect("truncated mesh.oct");
        assert!(err.contains("truncated") && err.contains("holds 3"), "{err}");
    }

    #[test]
    fn open_missing_files_errors() {
        let disk = Disk::new(CostModel::free());
        assert!(Dataset::open(disk).is_err());
    }

    #[test]
    fn bad_resolution_rejected() {
        assert!(SimulationBuilder::new().resolution(20).run_to_dataset().is_err());
        assert!(SimulationBuilder::new().resolution(4).run_to_dataset().is_err());
    }
}
