//! MPI-IO-shaped reading: derived datatypes, data sieving, independent and
//! collective (two-phase) reads — all of them *lent*: the stored bytes go
//! to the caller's visitor in place ([`Disk::lend_extents`]).
//!
//! Mirrors the calls the paper names in §5.3.1:
//!
//! * `MPI_TYPE_CREATE_INDEXED_BLOCK` → [`IndexedBlockType`] — "an array of
//!   node data derived from the octree data; the derived type describes one
//!   reading pattern";
//! * `MPI_FILE_SET_VIEW` → the datatype's byte extents
//!   ([`IndexedBlockType::extents`]), passed to a read;
//! * `MPI_FILE_READ_ALL` → [`PFile::lend_all`] — a two-phase collective
//!   read in which ranks act as aggregators for contiguous file domains,
//!   read their domain with data sieving, and redistribute the pieces.
//!
//! The *independent contiguous read* strategy of §5.3.2 is
//! [`PFile::lend`] over one extent; the routing of node data to octree
//! blocks lives in the pipeline crate.

use crate::disk::{Disk, ReadError};
use quakeviz_rt::fault::{FaultPlan, ReadFault};
use quakeviz_rt::{obs, Comm};
use std::sync::Arc;

/// Tag of the piece-redistribution messages inside [`PFile::lend_all`]
/// (exported so traffic-matrix classifiers can map it to
/// [`quakeviz_rt::TagClass::IoPieces`]).
pub const PIECES_TAG: u64 = 0x7f17_c011;

/// A derived datatype: `count` blocks of `block_elems` elements of
/// `elem_size` bytes at the given element displacements — the read pattern
/// for gathering the node data of a set of octree blocks out of the linear
/// node array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedBlockType {
    elem_size: usize,
    block_elems: usize,
    /// Element displacements, strictly increasing, non-overlapping blocks.
    displacements: Vec<u64>,
}

impl IndexedBlockType {
    /// Build a datatype; displacements are sorted and must describe
    /// non-overlapping blocks.
    pub fn new(elem_size: usize, block_elems: usize, mut displacements: Vec<u64>) -> Self {
        assert!(elem_size > 0 && block_elems > 0);
        displacements.sort_unstable();
        for w in displacements.windows(2) {
            assert!(w[0] + block_elems as u64 <= w[1], "overlapping blocks in indexed datatype");
        }
        IndexedBlockType { elem_size, block_elems, displacements }
    }

    /// The pattern for a sorted set of node ids (one element per node) —
    /// the common case: nodes of an octree block within a `f32` (or
    /// 3×`f32`) node array.
    pub fn from_node_ids(node_ids: &[u32], elem_size: usize) -> Self {
        let displacements = node_ids.iter().map(|&id| id as u64).collect();
        IndexedBlockType::new(elem_size, 1, displacements)
    }

    #[inline]
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }

    /// Number of blocks in the pattern.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.displacements.len()
    }

    /// Useful bytes this pattern selects.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        (self.displacements.len() * self.block_elems * self.elem_size) as u64
    }

    /// Byte extents `(offset, len)`, adjacent blocks merged. Sorted and
    /// disjoint.
    pub fn extents(&self) -> Vec<(u64, u64)> {
        let bl = (self.block_elems * self.elem_size) as u64;
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &d in &self.displacements {
            let off = d * self.elem_size as u64;
            match out.last_mut() {
                Some((o, l)) if *o + *l == off => *l += bl,
                _ => out.push((off, bl)),
            }
        }
        out
    }
}

/// Coalesce sorted disjoint extents, merging gaps of at most `window`
/// bytes (data sieving: read a little extra to cut request count).
pub fn sieve_extents(extents: &[(u64, u64)], window: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &(off, len) in extents {
        match out.last_mut() {
            Some((o, l)) if off <= *o + *l + window => {
                let end = (*o + *l).max(off + len);
                *l = end - *o;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// The accounting of one read; its bytes went to the read's visitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Simulated elapsed seconds of disk activity on the calling rank's
    /// critical path.
    pub sim_seconds: f64,
    /// Bytes actually transferred from disk (≥ useful bytes under sieving).
    pub disk_bytes: u64,
    /// Useful bytes delivered to the caller.
    pub useful_bytes: u64,
    /// Number of disk read calls issued by this rank.
    pub requests: u64,
    /// Bytes exchanged between ranks during a collective read (0 for
    /// independent reads).
    pub bytes_exchanged: u64,
}

/// A handle to one file on the virtual parallel file system.
#[derive(Debug, Clone)]
pub struct PFile {
    disk: Arc<Disk>,
    path: String,
    len: u64,
}

impl PFile {
    pub fn open(disk: Arc<Disk>, path: impl Into<String>) -> Result<PFile, ReadError> {
        let path = path.into();
        // waits out a live producer's announcement of the file
        let len = disk.published_len(&path)?;
        Ok(PFile { disk, path, len })
    }

    /// The file's length when it was opened.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// Consult a fault plan for one read attempt over `extents`. `Err` is
    /// an injected failure (nothing delivered); `Ok(factor)` multiplies
    /// the simulated read time (1.0 = no fault). The injection site is a
    /// pure function of `(path, first offset, total bytes)`, so replays
    /// with the same plan hit the same reads.
    fn check_fault(
        &self,
        plan: Option<&FaultPlan>,
        attempt: u32,
        extents: &[(u64, u64)],
    ) -> Result<f64, ReadError> {
        let Some(plan) = plan else { return Ok(1.0) };
        let offset = extents.first().map_or(0, |&(o, _)| o);
        let bytes: u64 = extents.iter().map(|&(_, l)| l).sum();
        let site = FaultPlan::read_site(&self.path, offset, bytes);
        match plan.read_fault(site, attempt, || format!("read {}@{offset}+{bytes}", self.path)) {
            Some(ReadFault::Transient) => {
                Err(ReadError::TransientIo { path: self.path.clone(), attempt })
            }
            Some(ReadFault::Corrupt) => {
                Err(ReadError::CorruptStripe { path: self.path.clone(), attempt })
            }
            Some(ReadFault::Slow { factor }) => Ok(factor),
            None => Ok(1.0),
        }
    }

    /// Seek charge for the failed attempts preceding attempt `attempt`:
    /// an injected [`ReadError`] aborts the request *before* the disk
    /// charges anything, so each re-issued request must re-pay its own
    /// request setup or faulted timings under-report recovery cost.
    #[inline]
    fn retry_seek_cost(&self, attempt: u32) -> f64 {
        attempt as f64 * self.disk.seek_latency()
    }

    /// Independent read of sorted, disjoint byte `extents`, lent in place:
    /// `visit` gets `(offset, bytes)` of every extent, in extent order. An
    /// indexed datatype passes its [`IndexedBlockType::extents`]; §5.3.2's
    /// contiguous read (a slice, a whole step) is one extent.
    ///
    /// Data sieving reads gaps up to `sieve_window` bytes and skips them
    /// (fewer requests, more bytes; the waste is never copied); `0`
    /// disables it, and a single extent is never sieved. `attempt` numbers
    /// the caller's retry loop so each attempt rolls the fault plan
    /// independently; the roll comes first, so a failed attempt lends
    /// nothing.
    pub fn lend(
        &self,
        extents: &[(u64, u64)],
        sieve_window: u64,
        plan: Option<&FaultPlan>,
        attempt: u32,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<ReadOutcome, ReadError> {
        let mut sp = obs::auto_span(obs::Phase::IoRead, obs::NO_STEP);
        let merged = sieve_extents(extents, sieve_window);
        let disk_bytes: u64 = merged.iter().map(|&(_, l)| l).sum();
        sp.add_bytes(disk_bytes);
        let slow = self.check_fault(plan, attempt, &merged)?;
        // sieving merges whole extents, so each wanted extent lies inside
        // exactly one merged one, and both lists are sorted
        let mut next = 0usize;
        let cost = self.disk.lend_extents(&self.path, &merged, |moff, buf| {
            let mend = moff + buf.len() as u64;
            while let Some(&(off, len)) = extents.get(next).filter(|&&(o, l)| o + l <= mend) {
                debug_assert!(off >= moff, "wanted extent outside its merged extent");
                let p = (off - moff) as usize;
                visit(off, &buf[p..p + len as usize]);
                next += 1;
            }
        })?;
        Ok(ReadOutcome {
            sim_seconds: cost * slow + self.retry_seek_cost(attempt),
            disk_bytes,
            useful_bytes: extents.iter().map(|&(_, l)| l).sum(),
            requests: merged.len() as u64,
            bytes_exchanged: 0,
        })
    }

    /// Collective noncontiguous read (paper §5.3.1): all ranks of `comm`
    /// call this with their own datatype; requests are merged two-phase:
    /// the file span is cut into one contiguous *domain* per rank, each
    /// rank reads the needed parts of its domain (with sieving) and ships
    /// the pieces, cut from the lent bytes, to the requesting ranks.
    ///
    /// Pieces are cut at domain boundaries, which split elements, so each
    /// rank assembles its extents from them and lends the assembled buffer
    /// to `visit` as `(offset, bytes)` per extent, in extent order.
    /// `sim_seconds` is the maximum aggregator disk time across the
    /// communicator (the phase is synchronous), so every rank reports the
    /// same simulated elapsed read time.
    pub fn lend_all(
        &self,
        comm: &Comm,
        dt: &IndexedBlockType,
        sieve_window: u64,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<ReadOutcome, ReadError> {
        let mut sp = obs::auto_span(obs::Phase::IoRead, obs::NO_STEP);
        let my_extents = dt.extents();
        let extents_bytes = (my_extents.len() * std::mem::size_of::<(u64, u64)>()) as u64;
        let all_extents: Vec<Vec<(u64, u64)>> =
            comm.allgather_with_size(my_extents.clone(), extents_bytes);

        // Validate every rank's pattern AFTER the allgather, so all ranks
        // reach the same verdict and nobody blocks in a half-entered
        // collective when one rank's pattern is bad.
        for exts in &all_extents {
            for &(o, l) in exts {
                if o + l > self.len {
                    return Err(ReadError::OutOfRange {
                        path: self.path.clone(),
                        offset: o,
                        len: l,
                        file_len: self.len,
                    });
                }
            }
        }

        // File domain split: cover the union span of all requests.
        let lo = all_extents.iter().flatten().map(|&(o, _)| o).min().unwrap_or(0);
        let hi = all_extents.iter().flatten().map(|&(o, l)| o + l).max().unwrap_or(0);
        let n = comm.size() as u64;
        let span = hi.saturating_sub(lo);
        let chunk = span.div_ceil(n).max(1);
        let my_dom =
            (lo + comm.rank() as u64 * chunk, (lo + (comm.rank() as u64 + 1) * chunk).min(hi));

        // Phase 1: every rank's requests clipped to my domain (each list
        // sorted), read merged and sieved.
        let wanted: Vec<Vec<(u64, u64)>> = all_extents
            .iter()
            .map(|exts| {
                let clip = |&(o, l): &(u64, u64)| (o.max(my_dom.0), (o + l).min(my_dom.1));
                exts.iter().map(clip).filter(|(s, e)| s < e).map(|(s, e)| (s, e - s)).collect()
            })
            .collect();
        let mut dom_requests = wanted.concat();
        dom_requests.sort_unstable();
        let merged = sieve_extents(&dom_requests, sieve_window);
        let my_disk_bytes: u64 = merged.iter().map(|&(_, l)| l).sum();
        let my_requests = merged.len() as u64;
        sp.add_bytes(my_disk_bytes);

        // Phase 2: cut each requester's pieces out of the lent extents —
        // every piece lies inside one merged extent — and ship them.
        let mut pieces: Vec<Vec<(u64, Vec<u8>)>> =
            wanted.iter().map(|w| Vec::with_capacity(w.len())).collect();
        let my_cost = if merged.is_empty() {
            0.0
        } else {
            let cut = |moff: u64, buf: &[u8]| {
                let mend = moff + buf.len() as u64;
                // a requester's pieces are sorted and cut in order, so the
                // next one to cut is at `out.len()`
                for (want, out) in wanted.iter().zip(&mut pieces) {
                    while let Some(&(off, len)) =
                        want.get(out.len()).filter(|&&(o, l)| o + l <= mend)
                    {
                        let p = (off - moff) as usize;
                        out.push((off, buf[p..p + len as usize].to_vec()));
                    }
                }
            };
            self.disk
                .lend_extents(&self.path, &merged, cut)
                .expect("extents validated against file length")
        };
        let mut my_exchanged = 0u64;
        for (r, pieces) in pieces.into_iter().enumerate() {
            let bytes: u64 = pieces.iter().map(|(_, d)| d.len() as u64).sum();
            if r != comm.rank() {
                my_exchanged += bytes;
            }
            comm.send_with_size(r, PIECES_TAG, pieces, bytes);
        }

        // Reassemble my data from all aggregators (including myself).
        let mut data = vec![0u8; dt.total_bytes() as usize];
        // extent start -> position of that extent in `data`
        let mut ext_pos = Vec::with_capacity(my_extents.len());
        let mut acc = 0u64;
        for &(_, l) in &my_extents {
            ext_pos.push(acc);
            acc += l;
        }
        for _ in 0..comm.size() {
            let (_, pieces): (usize, Vec<(u64, Vec<u8>)>) = comm.recv_any(PIECES_TAG);
            for (off, bytes) in pieces {
                let ei = my_extents.partition_point(|&(o, l)| o + l <= off);
                let (eo, el) = my_extents[ei];
                assert!(off >= eo && off + bytes.len() as u64 <= eo + el);
                let p = (ext_pos[ei] + (off - eo)) as usize;
                data[p..p + bytes.len()].copy_from_slice(&bytes);
            }
        }

        // The phase is collective: elapsed disk time = slowest aggregator.
        let sim_seconds = comm.allreduce(my_cost, f64::max);
        let disk_bytes = comm.allreduce(my_disk_bytes, u64::wrapping_add);
        let requests = comm.allreduce(my_requests, u64::wrapping_add);
        let bytes_exchanged = comm.allreduce(my_exchanged, u64::wrapping_add);
        for (&(off, len), &p) in my_extents.iter().zip(&ext_pos) {
            visit(off, &data[p as usize..(p + len) as usize]);
        }
        Ok(ReadOutcome {
            sim_seconds,
            disk_bytes,
            useful_bytes: dt.total_bytes(),
            requests,
            bytes_exchanged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::CostModel;
    use quakeviz_rt::World;

    fn disk_with(path: &str, data: Vec<u8>) -> Arc<Disk> {
        let disk = Disk::new(CostModel::free());
        disk.write_file(path, data);
        disk
    }

    fn seq_bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    type Collected = Result<(Vec<u8>, ReadOutcome), ReadError>;

    /// The bytes a lent read hands its visitor, concatenated in extent
    /// order, beside the read's accounting.
    fn gather(
        lend: impl FnOnce(&mut dyn FnMut(u64, &[u8])) -> Result<ReadOutcome, ReadError>,
    ) -> Collected {
        let mut data = Vec::new();
        let out = lend(&mut |_, bytes| data.extend_from_slice(bytes))?;
        Ok((data, out))
    }

    /// §5.3.2's contiguous read: one extent through the independent lend.
    fn contiguous(
        f: &PFile,
        offset: u64,
        len: u64,
        plan: Option<&FaultPlan>,
        attempt: u32,
    ) -> Collected {
        gather(|visit| f.lend(&[(offset, len)], 0, plan, attempt, visit))
    }

    /// A datatype's read: its extents through the independent lend.
    fn indexed(
        f: &PFile,
        dt: &IndexedBlockType,
        window: u64,
        plan: Option<&FaultPlan>,
        attempt: u32,
    ) -> Collected {
        gather(|visit| f.lend(&dt.extents(), window, plan, attempt, visit))
    }

    fn collective(f: &PFile, comm: &Comm, dt: &IndexedBlockType, window: u64) -> Collected {
        gather(|visit| f.lend_all(comm, dt, window, visit))
    }

    #[test]
    fn indexed_type_extents_merge_adjacent() {
        // elements of 4 bytes at displacements 0,1,2, 10, 11
        let dt = IndexedBlockType::new(4, 1, vec![0, 1, 2, 10, 11]);
        assert_eq!(dt.extents(), vec![(0, 12), (40, 8)]);
        assert_eq!(dt.total_bytes(), 20);
        assert_eq!(dt.block_count(), 5);
    }

    #[test]
    fn indexed_type_sorts_displacements() {
        let dt = IndexedBlockType::new(1, 2, vec![10, 0, 4]);
        assert_eq!(dt.extents(), vec![(0, 2), (4, 2), (10, 2)]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_blocks_panic() {
        IndexedBlockType::new(1, 4, vec![0, 2]);
    }

    #[test]
    fn sieve_merges_within_window() {
        let exts = vec![(0u64, 10u64), (15, 5), (100, 10)];
        assert_eq!(sieve_extents(&exts, 0), exts);
        assert_eq!(sieve_extents(&exts, 5), vec![(0, 20), (100, 10)]);
        assert_eq!(sieve_extents(&exts, 1000), vec![(0, 110)]);
    }

    #[test]
    fn read_contiguous_roundtrip() {
        let disk = disk_with("f", seq_bytes(1000));
        let f = PFile::open(disk, "f").unwrap();
        let (data, out) = contiguous(&f, 100, 50, None, 0).unwrap();
        assert_eq!(data, seq_bytes(1000)[100..150].to_vec());
        assert_eq!(out.useful_bytes, 50);
        assert_eq!(out.requests, 1);
    }

    #[test]
    fn read_indexed_matches_pattern() {
        let data = seq_bytes(4000);
        let disk = disk_with("f", data.clone());
        let f = PFile::open(disk, "f").unwrap();
        let ids: Vec<u32> = vec![3, 4, 5, 100, 250, 251, 999];
        let dt = IndexedBlockType::from_node_ids(&ids, 4);
        for window in [0u64, 16, 1 << 20] {
            let (got, out) = indexed(&f, &dt, window, None, 0).unwrap();
            let mut want = Vec::new();
            for &id in &ids {
                want.extend_from_slice(&data[id as usize * 4..id as usize * 4 + 4]);
            }
            assert_eq!(got, want, "window={window}");
            assert_eq!(out.useful_bytes, 28);
            assert!(out.disk_bytes >= out.useful_bytes);
        }
    }

    #[test]
    fn sieving_trades_requests_for_bytes() {
        let disk = disk_with("f", seq_bytes(100_000));
        let f = PFile::open(disk, "f").unwrap();
        // widely spaced single-element reads
        let ids: Vec<u32> = (0..100).map(|i| i * 200).collect();
        let dt = IndexedBlockType::from_node_ids(&ids, 4);
        let (tight_data, tight) = indexed(&f, &dt, 0, None, 0).unwrap();
        let (sieved_data, sieved) = indexed(&f, &dt, 4096, None, 0).unwrap();
        assert_eq!(tight_data, sieved_data);
        assert!(sieved.requests < tight.requests);
        assert!(sieved.disk_bytes > tight.disk_bytes);
        assert_eq!(tight.requests, 100);
        assert_eq!(sieved.requests, 1);
    }

    #[test]
    fn collective_read_delivers_each_ranks_pattern() {
        let data = seq_bytes(16_000);
        let disk = disk_with("f", data.clone());
        let results = World::run(4, |comm| {
            let f = PFile::open(Arc::clone(&disk), "f").unwrap();
            // rank r wants elements r, r+4, r+8, ... (strided, interleaved)
            let ids: Vec<u32> = (0..100).map(|i| (i * 4 + comm.rank()) as u32).collect();
            let dt = IndexedBlockType::from_node_ids(&ids, 4);
            let (got, out) = collective(&f, &comm, &dt, 64).unwrap();
            (comm.rank(), ids, got, out)
        });
        for (rank, ids, got, out) in results {
            let mut want = Vec::new();
            for &id in &ids {
                want.extend_from_slice(&data[id as usize * 4..id as usize * 4 + 4]);
            }
            assert_eq!(got, want, "rank {rank} data mismatch");
            assert_eq!(out.useful_bytes, 400);
            assert!(out.bytes_exchanged > 0, "interleaved pattern must exchange pieces");
        }
    }

    #[test]
    fn collective_read_single_rank() {
        let data = seq_bytes(1000);
        let disk = disk_with("f", data.clone());
        let results = World::run(1, |comm| {
            let f = PFile::open(Arc::clone(&disk), "f").unwrap();
            let dt = IndexedBlockType::from_node_ids(&[1, 50, 200], 4);
            collective(&f, &comm, &dt, 0).unwrap()
        });
        let (got, out) = &results[0];
        let mut want = Vec::new();
        for id in [1usize, 50, 200] {
            want.extend_from_slice(&data[id * 4..id * 4 + 4]);
        }
        assert_eq!(*got, want);
        assert_eq!(out.bytes_exchanged, 0);
    }

    #[test]
    fn collective_read_empty_pattern_on_some_ranks() {
        let data = seq_bytes(1000);
        let disk = disk_with("f", data.clone());
        let results = World::run(3, |comm| {
            let f = PFile::open(Arc::clone(&disk), "f").unwrap();
            let ids: Vec<u32> = if comm.rank() == 1 { vec![10, 20] } else { vec![] };
            // an empty indexed block type is not constructible from ids —
            // handle via an empty displacement list
            let dt = IndexedBlockType::new(4, 1, ids.iter().map(|&i| i as u64).collect());
            collective(&f, &comm, &dt, 0).unwrap().0
        });
        assert!(results[0].is_empty());
        assert_eq!(results[1].len(), 8);
        assert_eq!(&results[1][0..4], &data[40..44]);
        assert!(results[2].is_empty());
    }

    #[test]
    fn collective_sim_time_is_uniform() {
        let cost = CostModel {
            seek_latency: 0.01,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 1 << 20,
            stream_bandwidth: 1e6,
            aggregate_bandwidth: 4e6,
        };
        let disk = Disk::new(cost);
        disk.write_file("f", seq_bytes(40_000));
        let results = World::run(4, |comm| {
            let f = PFile::open(Arc::clone(&disk), "f").unwrap();
            let ids: Vec<u32> = (0..1000).map(|i| (i * 10 + comm.rank()) as u32).collect();
            let dt = IndexedBlockType::from_node_ids(&ids, 4);
            collective(&f, &comm, &dt, 1 << 16).unwrap().1.sim_seconds
        });
        for w in results.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12, "collective sim time must agree");
        }
        assert!(results[0] > 0.0);
    }

    #[test]
    fn open_missing_file_is_error() {
        let disk = Disk::new(CostModel::free());
        let err = PFile::open(disk, "nope").unwrap_err();
        assert_eq!(err, ReadError::NoSuchFile { path: "nope".to_string() });
    }

    #[test]
    fn collective_read_rejects_bad_pattern_on_all_ranks() {
        // one rank's pattern reaches past EOF: every rank must get the
        // same typed error (nobody may block in a half-entered collective)
        let disk = disk_with("f", seq_bytes(100));
        let results = World::run(3, |comm| {
            let f = PFile::open(Arc::clone(&disk), "f").unwrap();
            let ids: Vec<u32> = if comm.rank() == 1 { vec![1000] } else { vec![0] };
            let dt = IndexedBlockType::from_node_ids(&ids, 4);
            collective(&f, &comm, &dt, 0)
        });
        for (rank, r) in results.iter().enumerate() {
            match r {
                Err(ReadError::OutOfRange { offset, .. }) => assert_eq!(*offset, 4000),
                other => panic!("rank {rank}: expected OutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_transient_and_corrupt_fail_the_attempt() {
        use quakeviz_rt::fault::FaultSpec;
        let disk = disk_with("f", seq_bytes(1000));
        let f = PFile::open(disk, "f").unwrap();
        let transient = FaultPlan::new(FaultSpec::parse("seed=1,read_transient=1").unwrap());
        assert_eq!(
            contiguous(&f, 0, 100, Some(&transient), 0).unwrap_err(),
            ReadError::TransientIo { path: "f".to_string(), attempt: 0 }
        );
        let corrupt = FaultPlan::new(FaultSpec::parse("seed=1,read_corrupt=1").unwrap());
        let dt = IndexedBlockType::from_node_ids(&[1, 5, 9], 4);
        let err = indexed(&f, &dt, 0, Some(&corrupt), 2).unwrap_err();
        assert_eq!(err, ReadError::CorruptStripe { path: "f".to_string(), attempt: 2 });
        assert!(err.is_transient());
        // both plans logged exactly one injection
        assert_eq!(transient.events().len(), 1);
        assert_eq!(corrupt.events().len(), 1);
    }

    #[test]
    fn injected_slow_read_multiplies_cost_only() {
        use quakeviz_rt::fault::FaultSpec;
        let disk = Disk::new(CostModel {
            seek_latency: 0.01,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 1 << 20,
            stream_bandwidth: 1e6,
            aggregate_bandwidth: 1e6,
        });
        disk.write_file("f", seq_bytes(1000));
        let f = PFile::open(disk, "f").unwrap();
        let clean = contiguous(&f, 0, 1000, None, 0).unwrap();
        let plan = FaultPlan::new(FaultSpec::parse("seed=1,read_slow=1,slow_factor=4").unwrap());
        let slow = contiguous(&f, 0, 1000, Some(&plan), 0).unwrap();
        assert_eq!(slow.0, clean.0, "slow read must deliver identical data");
        assert!((slow.1.sim_seconds - clean.1.sim_seconds * 4.0).abs() < 1e-12);
    }

    #[test]
    fn retries_recharge_seek_latency() {
        // a read re-issued after CorruptStripe/TransientIo failures must
        // pay the request setup once per attempt, not once per call
        let cost = CostModel {
            seek_latency: 0.25,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 1 << 20,
            stream_bandwidth: 1e6,
            aggregate_bandwidth: 1e6,
        };
        let disk = Disk::new(cost);
        disk.write_file("f", seq_bytes(4000));
        let f = PFile::open(Arc::clone(&disk), "f").unwrap();
        let (first_data, first) = contiguous(&f, 0, 1000, None, 0).unwrap();
        let (third_data, third) = contiguous(&f, 0, 1000, None, 2).unwrap();
        assert_eq!(first_data, third_data);
        assert!(
            (third.sim_seconds - first.sim_seconds - 2.0 * 0.25).abs() < 1e-12,
            "two failed attempts must add two seeks: {} vs {}",
            first.sim_seconds,
            third.sim_seconds
        );
        let dt = IndexedBlockType::from_node_ids(&[1, 50, 200], 4);
        let (a0_data, a0) = indexed(&f, &dt, 0, None, 0).unwrap();
        let (a1_data, a1) = indexed(&f, &dt, 0, None, 1).unwrap();
        assert_eq!(a0_data, a1_data);
        assert!((a1.sim_seconds - a0.sim_seconds - 0.25).abs() < 1e-12);
        // sharded disks re-charge the per-OST seek
        disk.set_shards(4);
        let s0 = contiguous(&f, 0, 1000, None, 0).unwrap().1;
        let s2 = contiguous(&f, 0, 1000, None, 2).unwrap().1;
        assert!((s2.sim_seconds - s0.sim_seconds - 2.0 * disk.seek_latency()).abs() < 1e-12);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use quakeviz_rt::fault::FaultSpec;
        let disk = disk_with("f", seq_bytes(1000));
        let f = PFile::open(disk, "f").unwrap();
        let plan = FaultPlan::new(FaultSpec::parse("seed=99").unwrap());
        let with = contiguous(&f, 0, 500, Some(&plan), 0).unwrap();
        let without = contiguous(&f, 0, 500, None, 0).unwrap();
        assert_eq!(with, without);
        assert!(plan.events().is_empty());
    }
}
