//! The virtual striped disk and its timing model.
//!
//! Files live in memory (the datasets quakeviz generates are laptop-scale),
//! but every read is *charged* according to a parametric cost model of a
//! striped parallel file system: a per-request seek latency, a per-stripe
//! touch latency, and an aggregate bandwidth that is **shared** among the
//! streams reading concurrently. The concurrency term is what the paper's
//! input-processor analysis exploits: `m` input processors reading
//! concurrently each see roughly `1/m` of the aggregate bandwidth *until*
//! the file system saturates, after which adding readers stops helping —
//! exactly the knee visible in the paper's Figure 8.
//!
//! A file may also be *announced* before it is written
//! ([`Disk::announce`]): a live producer — a simulation still running —
//! promises it, and a read of it waits for the write instead of failing.
//! That wait is the whole coupling between a simulation and a pipeline
//! that visualizes it while it runs.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// A failed read on the virtual parallel file system.
///
/// The first three variants are genuine caller bugs or dataset mismatches
/// (the readers compute their patterns from the same mesh that wrote the
/// file); the last two are *injected* transient conditions from a
/// [`quakeviz_rt::fault::FaultPlan`] and are retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The file does not exist on the virtual disk.
    NoSuchFile { path: String },
    /// An extent reaches past end-of-file.
    OutOfRange { path: String, offset: u64, len: u64, file_len: u64 },
    /// The file's length is not the one its layout requires (a truncated
    /// or padded step file): nothing is read.
    WrongLength { path: String, file_len: u64, expected: u64 },
    /// Injected transient I/O failure (nothing was transferred).
    TransientIo { path: String, attempt: u32 },
    /// Injected corrupted stripe: the transfer happened but the stripe
    /// checksum did not match, so no data is delivered.
    CorruptStripe { path: String, attempt: u32 },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NoSuchFile { path } => {
                write!(f, "no such file on virtual disk: {path}")
            }
            ReadError::OutOfRange { path, offset, len, file_len } => {
                write!(f, "read [{offset}, {}) past EOF of {path} (len {file_len})", offset + len)
            }
            ReadError::WrongLength { path, file_len, expected } => {
                write!(f, "{path} is {file_len} bytes, its layout needs {expected}")
            }
            ReadError::TransientIo { path, attempt } => {
                write!(f, "transient I/O error reading {path} (attempt {attempt})")
            }
            ReadError::CorruptStripe { path, attempt } => {
                write!(f, "corrupted stripe reading {path} (attempt {attempt})")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl ReadError {
    /// Whether a retry can plausibly succeed (injected transient
    /// conditions, as opposed to structural pattern/dataset mismatches).
    pub fn is_transient(&self) -> bool {
        matches!(self, ReadError::TransientIo { .. } | ReadError::CorruptStripe { .. })
    }
}

/// Timing parameters of the virtual parallel file system.
///
/// Defaults are calibrated in EXPERIMENTS.md to reproduce the paper's
/// terascale numbers: one ~400 MB time step read by a single input
/// processor costs ~20 s (paper §6: "about 22 seconds" including
/// preprocessing), i.e. an effective per-stream bandwidth of ~20 MB/s with
/// an aggregate far higher, so concurrent readers scale until saturation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost charged once per read call (request setup / seek), seconds.
    pub seek_latency: f64,
    /// Cost charged per noncontiguous extent in a call (each extent is a
    /// separate I/O operation on the file system), seconds.
    pub extent_latency: f64,
    /// Cost charged per distinct stripe touched, seconds.
    pub stripe_latency: f64,
    /// Stripe width in bytes.
    pub stripe_size: u64,
    /// Bandwidth one stream can sustain by itself, bytes/second.
    pub stream_bandwidth: f64,
    /// Saturation point: aggregate bandwidth of the whole file system,
    /// bytes/second. `k` concurrent streams each get
    /// `min(stream_bandwidth, aggregate_bandwidth / k)`.
    pub aggregate_bandwidth: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // LeMieux-era parallel file system scale.
        CostModel {
            seek_latency: 5e-3,
            extent_latency: 0.5e-3,
            stripe_latency: 0.5e-3,
            stripe_size: 1 << 20,
            stream_bandwidth: 20e6,
            aggregate_bandwidth: 320e6,
        }
    }
}

impl CostModel {
    /// An instantaneous-cost model for unit tests (no simulated time).
    pub fn free() -> CostModel {
        CostModel {
            seek_latency: 0.0,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 1 << 20,
            stream_bandwidth: f64::INFINITY,
            aggregate_bandwidth: f64::INFINITY,
        }
    }

    /// Number of distinct stripes touched by a set of byte extents.
    pub fn stripes_touched(&self, extents: &[(u64, u64)]) -> u64 {
        let mut stripes: Vec<(u64, u64)> = extents
            .iter()
            .filter(|&&(_, len)| len > 0)
            .map(|&(off, len)| (off / self.stripe_size, (off + len - 1) / self.stripe_size))
            .collect();
        stripes.sort_unstable();
        let mut count = 0u64;
        let mut last: Option<u64> = None;
        for (s0, s1) in stripes {
            let start = match last {
                Some(l) if l >= s0 => {
                    if l >= s1 {
                        continue;
                    }
                    l + 1
                }
                _ => s0,
            };
            count += s1 - start + 1;
            last = Some(s1);
        }
        count
    }

    /// Per-stream bandwidth when `concurrent` streams are active.
    #[inline]
    pub fn effective_bandwidth(&self, concurrent: usize) -> f64 {
        let k = concurrent.max(1) as f64;
        self.stream_bandwidth.min(self.aggregate_bandwidth / k)
    }

    /// Simulated seconds to read `extents` while `concurrent` streams
    /// share the file system.
    pub fn read_cost(&self, extents: &[(u64, u64)], concurrent: usize) -> f64 {
        let bytes: u64 = extents.iter().map(|&(_, l)| l).sum();
        if bytes == 0 {
            return 0.0;
        }
        let bw = self.effective_bandwidth(concurrent);
        let transfer = if bw.is_finite() { bytes as f64 / bw } else { 0.0 };
        let nonempty = extents.iter().filter(|&&(_, l)| l > 0).count() as f64;
        self.seek_latency
            + nonempty * self.extent_latency
            + self.stripes_touched(extents) as f64 * self.stripe_latency
            + transfer
    }
}

/// A virtual striped disk holding named immutable-ish files.
#[derive(Debug)]
pub struct Disk {
    files: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    /// Paths a live producer has announced and not yet written.
    announced: Mutex<HashSet<String>>,
    /// Signalled whenever `announced` shrinks: a write or a withdrawal.
    published: Condvar,
    cost: CostModel,
    /// Streams currently inside a read call (for concurrency charging).
    active_readers: AtomicUsize,
    /// Optional OST sharding: when set, reads are charged per object
    /// storage target instead of against the flat aggregate model.
    shards: RwLock<Option<Arc<crate::shard::Shards>>>,
}

impl Disk {
    pub fn new(cost: CostModel) -> Arc<Disk> {
        Arc::new(Disk {
            files: RwLock::new(HashMap::new()),
            announced: Mutex::new(HashSet::new()),
            published: Condvar::new(),
            cost,
            active_readers: AtomicUsize::new(0),
            shards: RwLock::new(None),
        })
    }

    /// The disk's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Shard the disk across `n` simulated OSTs (`0` restores the flat
    /// model): stripes map round-robin to targets, each with its own seek
    /// and `aggregate_bandwidth / n` of bandwidth, contended per OST (see
    /// [`crate::shard`]). Counters reset on every call.
    pub fn set_shards(&self, n: usize) {
        *self.shards.write().unwrap() = if n == 0 {
            None
        } else {
            Some(Arc::new(crate::shard::Shards::new(crate::shard::ShardModel::split(
                &self.cost, n,
            ))))
        };
    }

    /// The active shard state, if the disk is sharded.
    pub fn shards(&self) -> Option<Arc<crate::shard::Shards>> {
        self.shards.read().unwrap().clone()
    }

    /// Per-OST counters (empty when unsharded).
    pub fn ost_stats(&self) -> Vec<crate::shard::OstStats> {
        self.shards().map_or_else(Vec::new, |s| s.stats())
    }

    /// The request-setup cost one (re-issued) read pays: the per-OST seek
    /// when sharded, the flat per-call seek otherwise.
    pub fn seek_latency(&self) -> f64 {
        self.shards().map_or(self.cost.seek_latency, |s| s.model().ost_seek)
    }

    /// Create or replace a file with the given contents. Writing an
    /// announced file publishes it: readers blocked on it wake.
    pub fn write_file(&self, path: &str, data: Vec<u8>) {
        self.files.write().unwrap().insert(path.to_string(), Arc::new(data));
        if self.announced.lock().expect("announce set poisoned").remove(path) {
            self.published.notify_all();
        }
    }

    /// Promise that `paths` will be written: until the returned
    /// [`Announcement`] is dropped, a read of one of them that finds no
    /// file waits for [`Disk::write_file`] instead of failing.
    pub fn announce(self: &Arc<Self>, paths: impl IntoIterator<Item = String>) -> Announcement {
        let paths: Vec<String> = paths.into_iter().collect();
        self.announced.lock().expect("announce set poisoned").extend(paths.iter().cloned());
        Announcement { disk: Arc::clone(self), paths }
    }

    /// Size of a file in bytes, if it exists (never waits: an announced
    /// file does not exist yet).
    pub fn file_len(&self, path: &str) -> Option<u64> {
        self.files.read().unwrap().get(path).map(|d| d.len() as u64)
    }

    /// List of file names (sorted) — for dataset discovery.
    pub fn list_files(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a file; returns whether it existed.
    pub fn remove_file(&self, path: &str) -> bool {
        self.files.write().unwrap().remove(path).is_some()
    }

    /// The file's contents, waiting out an announcement: a path that is
    /// announced but not yet written blocks until it is, and fails with
    /// [`ReadError::NoSuchFile`] once the producer withdraws the promise.
    fn file(&self, path: &str) -> Result<Arc<Vec<u8>>, ReadError> {
        let lookup = || self.files.read().unwrap().get(path).cloned();
        if let Some(data) = lookup() {
            return Ok(data);
        }
        // publication inserts the file *before* it takes this lock to clear
        // the announcement, so a miss under the lock on a still-announced
        // path cannot lose the wakeup
        let mut pending = self.announced.lock().expect("announce set poisoned");
        loop {
            if let Some(data) = lookup() {
                return Ok(data);
            }
            if !pending.contains(path) {
                return Err(ReadError::NoSuchFile { path: path.to_string() });
            }
            pending = self.published.wait(pending).expect("announce set poisoned");
        }
    }

    /// Size of a file in bytes, waiting out an announcement like a read.
    pub(crate) fn published_len(&self, path: &str) -> Result<u64, ReadError> {
        self.file(path).map(|d| d.len() as u64)
    }

    /// Lend the bytes of `extents` of `path` to `visit`, one call per
    /// extent in extent order with the extent's file offset, and return
    /// the simulated elapsed seconds. Nothing is copied: `visit` reads the
    /// stored bytes in place.
    ///
    /// `visit` runs inside the read's `active_readers` bracket: a stream
    /// is reading while it consumes. The cost is charged at the
    /// concurrency the read entered with, or per OST when the disk is
    /// sharded, whose counters it advances.
    ///
    /// Extents past end-of-file are a typed [`ReadError::OutOfRange`],
    /// raised before any byte is lent: the readers compute their patterns
    /// from the same mesh that wrote the file, so a mismatch is a dataset
    /// bug, but it must surface as an error the pipeline can degrade on,
    /// not a panic.
    pub fn lend_extents(
        &self,
        path: &str,
        extents: &[(u64, u64)],
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<f64, ReadError> {
        let data = self.file(path)?;
        for &(off, len) in extents {
            if off + len > data.len() as u64 {
                return Err(ReadError::OutOfRange {
                    path: path.to_string(),
                    offset: off,
                    len,
                    file_len: data.len() as u64,
                });
            }
        }
        let shards = self.shards();
        let reading = Reading::enter(&self.active_readers);
        for &(off, len) in extents {
            visit(off, &data[off as usize..(off + len) as usize]);
        }
        Ok(match &shards {
            Some(sh) => sh.read_cost(&self.cost, extents),
            None => self.cost.read_cost(extents, reading.concurrent),
        })
    }

    /// Read a whole file into a copy of its bytes, charged as one lent
    /// extent. The one copying read: a dataset's mesh, metadata, norms and
    /// whole-step loads, and checkpoints, go through it.
    pub fn read_full(&self, path: &str) -> Result<(Vec<u8>, f64), ReadError> {
        let len = self.published_len(path)?;
        let mut out = Vec::with_capacity(len as usize);
        let cost = self.lend_extents(path, &[(0, len)], |_, bytes| out.extend_from_slice(bytes))?;
        Ok((out, cost))
    }
}

/// One stream inside a read call: counted into `active_readers` on entry
/// and out again on drop, so a visitor that panics cannot leave the disk
/// charging every later read for a reader that is gone.
struct Reading<'a> {
    active: &'a AtomicUsize,
    /// Streams reading, this one included, when it entered.
    concurrent: usize,
}

impl<'a> Reading<'a> {
    fn enter(active: &'a AtomicUsize) -> Reading<'a> {
        Reading { active, concurrent: active.fetch_add(1, Ordering::SeqCst) + 1 }
    }
}

impl Drop for Reading<'_> {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A producer's outstanding promise to write a set of files
/// ([`Disk::announce`]). Dropping it — the producer finished, failed or
/// panicked — withdraws whatever was not written, so readers waiting on
/// those paths wake with [`ReadError::NoSuchFile`] rather than hang.
#[derive(Debug)]
pub struct Announcement {
    disk: Arc<Disk>,
    paths: Vec<String>,
}

impl Drop for Announcement {
    fn drop(&mut self) {
        // never panic in drop: the set stays valid across a poisoning
        let mut pending = self.disk.announced.lock().unwrap_or_else(PoisonError::into_inner);
        for p in &self.paths {
            pending.remove(p);
        }
        drop(pending);
        self.disk.published.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> CostModel {
        CostModel {
            seek_latency: 0.01,
            extent_latency: 0.0,
            stripe_latency: 0.001,
            stripe_size: 100,
            stream_bandwidth: 1000.0,
            aggregate_bandwidth: 4000.0,
        }
    }

    /// The bytes `lend_extents` lends, concatenated in extent order, beside
    /// its cost.
    fn copied(
        disk: &Disk,
        path: &str,
        extents: &[(u64, u64)],
    ) -> Result<(Vec<u8>, f64), ReadError> {
        let mut out = Vec::new();
        let cost = disk.lend_extents(path, extents, |_, bytes| out.extend_from_slice(bytes))?;
        Ok((out, cost))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let disk = Disk::new(CostModel::free());
        let data: Vec<u8> = (0..=255).collect();
        disk.write_file("a.bin", data.clone());
        let (got, cost) = disk.read_full("a.bin").unwrap();
        assert_eq!(got, data);
        assert_eq!(cost, 0.0);
        assert_eq!(disk.file_len("a.bin"), Some(256));
    }

    #[test]
    fn read_extents_concatenates_in_order() {
        let disk = Disk::new(CostModel::free());
        disk.write_file("b", (0..100u8).collect());
        let (got, _) = copied(&disk, "b", &[(90, 5), (0, 3)]).unwrap();
        assert_eq!(got, vec![90, 91, 92, 93, 94, 0, 1, 2]);
    }

    #[test]
    fn lent_extents_are_the_copied_bytes_in_place() {
        let disk = Disk::new(small_model());
        disk.write_file("l", (0..250u8).collect());
        let extents = [(90, 5), (0, 3), (120, 130)];
        let (file, _) = disk.read_full("l").unwrap();
        let stored = disk.file("l").unwrap();
        let mut lent = Vec::new();
        let cost = disk.lend_extents("l", &extents, |off, bytes| {
            // the stored bytes themselves, not a copy of them
            assert_eq!(bytes.as_ptr(), stored[off as usize..].as_ptr());
            lent.push((off, bytes.to_vec()));
        });
        assert_eq!(cost.unwrap().to_bits(), small_model().read_cost(&extents, 1).to_bits());
        assert_eq!(lent.iter().map(|(off, b)| (*off, b.len() as u64)).collect::<Vec<_>>(), extents);
        for (off, bytes) in lent {
            assert_eq!(bytes, file[off as usize..off as usize + bytes.len()]);
        }
        // nothing is lent from a read that fails its range check
        let mut called = false;
        assert!(disk.lend_extents("l", &[(0, 1), (249, 2)], |_, _| called = true).is_err());
        assert!(!called);
    }

    #[test]
    fn a_panicking_visitor_leaves_no_reader_behind() {
        let disk = Disk::new(small_model());
        disk.write_file("p", vec![0u8; 100]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            disk.lend_extents("p", &[(0, 10)], |_, _| panic!("visitor fails"))
        }));
        assert!(panicked.is_err());
        assert_eq!(disk.active_readers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn read_past_eof_is_typed_error() {
        let disk = Disk::new(CostModel::free());
        disk.write_file("c", vec![0u8; 10]);
        let err = copied(&disk, "c", &[(5, 10)]).unwrap_err();
        assert_eq!(
            err,
            ReadError::OutOfRange { path: "c".to_string(), offset: 5, len: 10, file_len: 10 }
        );
        assert!(!err.is_transient());
        assert!(err.to_string().contains("past EOF"));
    }

    #[test]
    fn missing_file_is_typed_error() {
        let disk = Disk::new(CostModel::free());
        let err = copied(&disk, "nope", &[(0, 1)]).unwrap_err();
        assert_eq!(err, ReadError::NoSuchFile { path: "nope".to_string() });
        assert!(err.to_string().contains("no such file"));
        assert!(disk.read_full("nope").is_err());
    }

    #[test]
    fn announced_file_blocks_until_written_or_withdrawn() {
        let disk = Disk::new(CostModel::free());
        let promise = disk.announce(["live".to_string(), "never".to_string()]);
        assert_eq!(disk.file_len("live"), None, "an announced file does not exist yet");
        std::thread::scope(|s| {
            let (entered, at_read) = std::sync::mpsc::channel();
            let readers: Vec<_> = ["live", "never"]
                .into_iter()
                .map(|path| {
                    let (disk, entered) = (Arc::clone(&disk), entered.clone());
                    s.spawn(move || {
                        entered.send(()).unwrap();
                        disk.read_full(path).map(|(data, _)| data)
                    })
                })
                .collect();
            // both readers are at (or inside) their read; whichever side of
            // the wait they are on, the outcome below is the same
            at_read.recv().unwrap();
            at_read.recv().unwrap();
            disk.write_file("live", vec![7, 8, 9]);
            drop(promise); // the producer ends without writing "never"
            let got: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            assert_eq!(got[0], Ok(vec![7, 8, 9]));
            assert_eq!(got[1], Err(ReadError::NoSuchFile { path: "never".to_string() }));
        });
        // a withdrawn path is an ordinary missing file again
        assert!(disk.published_len("never").is_err());
    }

    #[test]
    fn stripes_touched_counts_unique_stripes() {
        let m = small_model(); // stripe 100 bytes
        assert_eq!(m.stripes_touched(&[(0, 50)]), 1);
        assert_eq!(m.stripes_touched(&[(0, 150)]), 2);
        assert_eq!(m.stripes_touched(&[(0, 50), (60, 30)]), 1); // same stripe
        assert_eq!(m.stripes_touched(&[(0, 50), (250, 10)]), 2);
        assert_eq!(m.stripes_touched(&[(99, 2)]), 2); // straddles boundary
        assert_eq!(m.stripes_touched(&[]), 0);
        assert_eq!(m.stripes_touched(&[(10, 0)]), 0);
    }

    #[test]
    fn cost_scales_with_bytes_and_stripes() {
        let m = small_model();
        // 100 bytes, 1 stripe, alone: 0.01 + 0.001 + 100/1000
        let c = m.read_cost(&[(0, 100)], 1);
        assert!((c - 0.111).abs() < 1e-12, "got {c}");
        // two separated stripes add one stripe latency
        let c2 = m.read_cost(&[(0, 50), (200, 50)], 1);
        assert!((c2 - (0.01 + 0.002 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_shared_after_saturation() {
        let m = small_model(); // stream 1000, aggregate 4000 -> 4 streams
        assert_eq!(m.effective_bandwidth(1), 1000.0);
        assert_eq!(m.effective_bandwidth(4), 1000.0);
        assert_eq!(m.effective_bandwidth(8), 500.0);
        // cost of the same read doubles at 8 concurrent streams
        let alone = m.read_cost(&[(0, 1000)], 1);
        let crowded = m.read_cost(&[(0, 1000)], 8);
        assert!(crowded > alone);
        assert!((crowded - alone - 1.0).abs() < 1e-9); // extra 1000B/500Bps - 1000/1000
    }

    #[test]
    fn zero_byte_read_is_free() {
        let m = small_model();
        assert_eq!(m.read_cost(&[], 1), 0.0);
        assert_eq!(m.read_cost(&[(50, 0)], 3), 0.0);
    }

    #[test]
    fn concurrent_reads_all_succeed() {
        let disk = Disk::new(small_model());
        disk.write_file("shared", (0..200u8).collect());
        std::thread::scope(|s| {
            for t in 0..8 {
                let disk = Arc::clone(&disk);
                s.spawn(move || {
                    for _ in 0..100 {
                        let (got, cost) = copied(&disk, "shared", &[(t * 10, 10)]).unwrap();
                        assert_eq!(got[0], (t * 10) as u8);
                        assert!(cost > 0.0);
                    }
                });
            }
        });
    }

    #[test]
    fn list_and_remove() {
        let disk = Disk::new(CostModel::free());
        disk.write_file("z", vec![1]);
        disk.write_file("a", vec![2]);
        assert_eq!(disk.list_files(), vec!["a".to_string(), "z".to_string()]);
        assert!(disk.remove_file("a"));
        assert!(!disk.remove_file("a"));
        assert_eq!(disk.list_files(), vec!["z".to_string()]);
    }

    #[test]
    fn sharded_disk_charges_per_ost_and_counts() {
        let disk = Disk::new(small_model()); // stripe 100 B, aggregate 4000 B/s
        disk.write_file("s", (0..200).cycle().take(800).collect());
        let flat = copied(&disk, "s", &[(0, 400)]).unwrap();
        assert_eq!(flat.0, disk.read_full("s").unwrap().0[..400]);
        disk.set_shards(4); // each OST: seek 0.01, 1000 B/s
        assert_eq!(disk.seek_latency(), 0.01);
        let (data, cost) = copied(&disk, "s", &[(0, 400)]).unwrap();
        assert_eq!(data, flat.0, "sharding must not change the bytes");
        // 4 stripes land on 4 OSTs: each moves 100 B at min(1000, 1000)
        // plus its own seek and one stripe latency
        assert!((cost - (0.01 + 0.001 + 0.1)).abs() < 1e-12, "got {cost}");
        let stats = disk.ost_stats();
        assert_eq!(stats.len(), 4);
        for (o, s) in stats.iter().enumerate() {
            assert_eq!(s.reads, 1, "OST {o}");
            assert_eq!(s.bytes, 100, "OST {o}");
        }
        disk.set_shards(0);
        assert!(disk.ost_stats().is_empty());
        let again = copied(&disk, "s", &[(0, 400)]).unwrap();
        assert_eq!(again.1, flat.1, "unsharding restores the flat cost");
    }

    #[test]
    fn default_model_matches_paper_scale() {
        // One 400 MB time step via a single stream ≈ 20 s (paper: ~22 s
        // including preprocessing on one input processor).
        let m = CostModel::default();
        let c = m.read_cost(&[(0, 400_000_000)], 1);
        assert!(c > 15.0 && c < 25.0, "400MB single-stream read should take ~20s, got {c}");
        // With 16 concurrent readers the aggregate (320 MB/s) is the limit.
        assert_eq!(m.effective_bandwidth(16), 20e6);
    }
}
