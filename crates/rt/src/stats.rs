//! Traffic accounting for a rank world.
//!
//! The compositing experiments (paper §4.4) compare algorithms by the
//! number of messages and bytes exchanged, and the observability layer
//! (`crate::obs`) wants to know *who* talks to *whom* with *what*. So the
//! runtime keeps, besides the two global counters, an optional
//! per-`(src, dst, tag-class)` **traffic matrix**: a flat array of atomics
//! sized at world creation, updated lock-free on every send.
//!
//! Byte counts are exact wherever the senders use
//! [`crate::Comm::send_with_size`] (all pipeline/compositing data paths
//! do) and estimated via `std::mem::size_of` for plain typed sends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

enum_table! {
    /// Coarse classification of a message by its tag, for the traffic matrix.
    /// The mapping from raw tags to classes is application-defined (see
    /// [`TrafficStats::with_matrix`]); collective-internal traffic is always
    /// classified by the runtime itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TagClass {
        /// Block value distribution: input → rendering processors.
        BlockData => "block_data";
        /// LIC surface textures: input → output processor.
        LicImage => "lic_image";
        /// Composited frames: rendering root → output processor.
        VolumeImage => "volume_image";
        /// Compositing spans/strips between rendering processors.
        Composite => "composite";
        /// Piece redistribution inside a collective read (MPI-IO layer).
        IoPieces => "io_pieces";
        /// Runtime-internal collective traffic (barriers, bcast, gather…).
        Collective => "collective";
        /// Recovery control traffic: heartbeats and degraded-block reports.
        Recovery => "recovery";
        /// Anything else.
        Other => "other";
    }
}

/// One nonzero traffic-matrix entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEdge {
    /// Sending world rank.
    pub src: usize,
    /// Receiving world rank.
    pub dst: usize,
    pub class: TagClass,
    pub messages: u64,
    pub bytes: u64,
}

struct Matrix {
    ranks: usize,
    classify: fn(u64) -> TagClass,
    /// `[(src * ranks + dst) * COUNT + class] -> (messages, bytes)`,
    /// interleaved as two atomics per cell.
    cells: Vec<AtomicU64>,
}

impl Matrix {
    #[inline]
    fn cell(&self, src: usize, dst: usize, class: usize) -> usize {
        2 * (((src * self.ranks) + dst) * TagClass::COUNT + class)
    }
}

/// Message/byte counters shared by all ranks of one [`crate::World`] run.
#[derive(Default)]
pub struct TrafficStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    matrix: Option<Matrix>,
}

impl std::fmt::Debug for TrafficStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficStats")
            .field("messages", &self.messages())
            .field("bytes", &self.bytes())
            .field("matrix_ranks", &self.matrix.as_ref().map(|m| m.ranks))
            .finish()
    }
}

/// Default tag classifier: only the runtime-internal collective bit is
/// known at this layer.
fn classify_default(tag: u64) -> TagClass {
    if tag & (1 << 63) != 0 {
        TagClass::Collective
    } else {
        TagClass::Other
    }
}

impl TrafficStats {
    /// Global counters only (no matrix) — zero setup cost.
    pub fn new() -> Arc<TrafficStats> {
        Arc::new(TrafficStats::default())
    }

    /// Counters plus a `ranks × ranks × TagClass::COUNT` traffic matrix.
    /// `classify` maps *user* tags to classes; the runtime overrides it
    /// for its own collective traffic.
    pub fn with_matrix(ranks: usize, classify: fn(u64) -> TagClass) -> Arc<TrafficStats> {
        let cells = (0..2 * ranks * ranks * TagClass::COUNT).map(|_| AtomicU64::new(0)).collect();
        Arc::new(TrafficStats {
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            matrix: Some(Matrix { ranks, classify, cells }),
        })
    }

    /// Like [`TrafficStats::with_matrix`] with the default classifier
    /// (collective vs everything else).
    pub fn with_matrix_default(ranks: usize) -> Arc<TrafficStats> {
        TrafficStats::with_matrix(ranks, classify_default)
    }

    /// Record one message of `bytes` payload bytes (no matrix update).
    #[inline]
    pub fn record(&self, bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one message on the `(src, dst)` edge with its tag. Updates
    /// the global counters and, when present, the traffic matrix. Called
    /// by the runtime on every send; lock-free.
    #[inline]
    pub fn record_edge(&self, src: usize, dst: usize, tag: u64, bytes: u64) {
        self.record(bytes);
        if let Some(m) = &self.matrix {
            if src < m.ranks && dst < m.ranks {
                let class =
                    if tag & (1 << 63) != 0 { TagClass::Collective } else { (m.classify)(tag) };
                let cell = m.cell(src, dst, class as usize);
                m.cells[cell].fetch_add(1, Ordering::Relaxed);
                m.cells[cell + 1].fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Total messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// One matrix entry; `(0, 0)` when no matrix is attached.
    pub fn edge(&self, src: usize, dst: usize, class: TagClass) -> (u64, u64) {
        match &self.matrix {
            Some(m) if src < m.ranks && dst < m.ranks => {
                let cell = m.cell(src, dst, class as usize);
                (m.cells[cell].load(Ordering::Relaxed), m.cells[cell + 1].load(Ordering::Relaxed))
            }
            _ => (0, 0),
        }
    }

    /// All nonzero matrix entries, ordered by `(src, dst, class)`.
    pub fn edges(&self) -> Vec<TrafficEdge> {
        let Some(m) = &self.matrix else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for src in 0..m.ranks {
            for dst in 0..m.ranks {
                for class in TagClass::ALL {
                    let cell = m.cell(src, dst, class as usize);
                    let messages = m.cells[cell].load(Ordering::Relaxed);
                    let bytes = m.cells[cell + 1].load(Ordering::Relaxed);
                    if messages > 0 {
                        out.push(TrafficEdge { src, dst, class, messages, bytes });
                    }
                }
            }
        }
        out
    }

    /// Totals per class (messages, bytes), zero rows included.
    pub fn class_totals(&self) -> Vec<(TagClass, u64, u64)> {
        let mut totals = [(0u64, 0u64); TagClass::COUNT];
        for e in self.edges() {
            totals[e.class as usize].0 += e.messages;
            totals[e.class as usize].1 += e.bytes;
        }
        TagClass::ALL.iter().map(|&c| (c, totals[c as usize].0, totals[c as usize].1)).collect()
    }

    /// [`TrafficStats::class_totals`] under the metric names they are
    /// published as: `traffic.<class>.msgs` and `traffic.<class>.bytes`.
    pub fn named(&self) -> impl Iterator<Item = (String, u64)> {
        self.class_totals().into_iter().flat_map(|(class, msgs, bytes)| {
            let name = |what| format!("traffic.{}.{what}", class.as_str());
            [(name("msgs"), msgs), (name("bytes"), bytes)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let s = TrafficStats::new();
        s.record(100);
        s.record(28);
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 128);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let s = TrafficStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record(3);
                    }
                });
            }
        });
        assert_eq!(s.messages(), 8000);
        assert_eq!(s.bytes(), 24000);
    }

    #[test]
    fn matrix_tracks_edges_exactly() {
        fn classify(tag: u64) -> TagClass {
            if tag == 7 {
                TagClass::BlockData
            } else {
                TagClass::Other
            }
        }
        let s = TrafficStats::with_matrix(3, classify);
        s.record_edge(0, 1, 7, 100);
        s.record_edge(0, 1, 7, 50);
        s.record_edge(0, 2, 9, 10);
        s.record_edge(2, 0, 1 << 63, 4);
        assert_eq!(s.edge(0, 1, TagClass::BlockData), (2, 150));
        assert_eq!(s.edge(0, 2, TagClass::Other), (1, 10));
        assert_eq!(s.edge(2, 0, TagClass::Collective), (1, 4));
        assert_eq!(s.edge(1, 0, TagClass::BlockData), (0, 0));
        assert_eq!(s.messages(), 4);
        assert_eq!(s.bytes(), 164);
        let edges = s.edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(
            edges[0],
            TrafficEdge { src: 0, dst: 1, class: TagClass::BlockData, messages: 2, bytes: 150 }
        );
    }

    #[test]
    fn matrix_concurrent_edges_lock_free() {
        let s = TrafficStats::with_matrix_default(8);
        std::thread::scope(|scope| {
            for src in 0..8usize {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.record_edge(src, (src + 1) % 8, i % 3, 2);
                    }
                });
            }
        });
        for src in 0..8 {
            assert_eq!(s.edge(src, (src + 1) % 8, TagClass::Other), (1000, 2000));
        }
        assert_eq!(s.messages(), 8000);
    }

    #[test]
    fn class_totals_sum_matrix() {
        let s = TrafficStats::with_matrix_default(2);
        s.record_edge(0, 1, 5, 10);
        s.record_edge(1, 0, 5, 20);
        let totals = s.class_totals();
        let other = totals.iter().find(|(c, _, _)| *c == TagClass::Other).unwrap();
        assert_eq!((other.1, other.2), (2, 30));
    }
}
