//! Sharded object-storage-target (OST) model for the virtual parfs.
//!
//! The paper reads each ~400 MB time step through LeMieux's Lustre-style
//! parallel file system, whose files are striped round-robin across 64
//! object storage targets (§6). The flat [`CostModel`](crate::CostModel)
//! captures only the *aggregate* knee of that system; this module models
//! the topology underneath it: each stripe of a file lives on exactly one
//! OST, every OST has its own request-setup latency and bandwidth, and
//! concurrent readers contend per OST — two streams hammering the same
//! target halve each other, while streams on disjoint targets don't
//! interact at all. A read that touches several OSTs proceeds on all of
//! them in parallel, so its simulated time is the *slowest* OST's time —
//! exactly why striping helps large sequential reads and why hot-spotted
//! small reads don't scale.
//!
//! Sharding is opt-in per [`Disk`](crate::Disk) (`Disk::set_shards`); the
//! default flat model is unchanged so existing calibrated baselines keep
//! their meaning.

use crate::disk::CostModel;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Topology/timing parameters of a sharded file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardModel {
    /// Number of object storage targets the file set is striped across.
    pub n_osts: usize,
    /// Request-setup / seek cost charged once per OST a read touches,
    /// seconds.
    pub ost_seek: f64,
    /// Bandwidth of a single OST, bytes/second, shared among the streams
    /// concurrently reading from that OST.
    pub ost_bandwidth: f64,
}

impl ShardModel {
    /// Split a flat cost model across `n` OSTs: the aggregate bandwidth
    /// divides evenly among the targets and the per-request seek becomes
    /// per-OST (each target performs its own request setup).
    pub fn split(cost: &CostModel, n: usize) -> ShardModel {
        assert!(n > 0, "a sharded file system needs at least one OST");
        ShardModel {
            n_osts: n,
            ost_seek: cost.seek_latency,
            ost_bandwidth: cost.aggregate_bandwidth / n as f64,
        }
    }

    /// The OST holding a stripe: round-robin layout, stripe `s` lives on
    /// target `s mod n_osts`.
    #[inline]
    pub fn ost_of_stripe(&self, stripe: u64) -> usize {
        (stripe % self.n_osts as u64) as usize
    }

    /// The OST holding byte `offset` of a file striped at `stripe_size`.
    #[inline]
    pub fn ost_of_offset(&self, offset: u64, stripe_size: u64) -> usize {
        self.ost_of_stripe(offset / stripe_size)
    }

    /// Partition byte extents across OSTs at stripe granularity: every
    /// byte of every input extent lands in exactly one output extent of
    /// exactly one OST (`result[o]` holds OST `o`'s sub-extents, sorted).
    pub fn split_extents(&self, extents: &[(u64, u64)], stripe_size: u64) -> Vec<Vec<(u64, u64)>> {
        let mut per_ost: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.n_osts];
        for &(off, len) in extents {
            if len == 0 {
                continue;
            }
            let end = off + len;
            let mut cur = off;
            while cur < end {
                let stripe = cur / stripe_size;
                let stripe_end = (stripe + 1) * stripe_size;
                let piece_end = stripe_end.min(end);
                per_ost[self.ost_of_stripe(stripe)].push((cur, piece_end - cur));
                cur = piece_end;
            }
        }
        for exts in &mut per_ost {
            exts.sort_unstable();
        }
        per_ost
    }
}

/// Live per-OST counters of one sharded disk: cumulative totals plus the
/// concurrency high-water mark (the contention the queues absorbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OstStats {
    /// Read operations that touched this OST.
    pub reads: u64,
    /// Bytes this OST delivered.
    pub bytes: u64,
    /// Highest number of streams simultaneously queued on this OST.
    pub peak_queue: u64,
}

impl OstStats {
    /// OST `i`'s counters since `base` (the peak is a high-water mark, so
    /// it stands) under the metric names they are published as.
    pub fn named_since(&self, i: usize, base: &OstStats) -> [(String, u64); 3] {
        [
            (format!("parfs.ost{i}.reads"), self.reads - base.reads),
            (format!("parfs.ost{i}.bytes"), self.bytes - base.bytes),
            (format!("parfs.ost{i}.peak_queue"), self.peak_queue),
        ]
    }
}

/// Runtime state of a sharded disk: the model plus per-OST contention
/// queues and counters. Shared by every concurrent reader of the disk.
#[derive(Debug)]
pub struct Shards {
    model: ShardModel,
    /// Streams currently inside a read touching each OST.
    active: Vec<AtomicUsize>,
    reads: Vec<AtomicU64>,
    bytes: Vec<AtomicU64>,
    peak: Vec<AtomicU64>,
}

impl Shards {
    pub fn new(model: ShardModel) -> Shards {
        let n = model.n_osts;
        Shards {
            model,
            active: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            reads: (0..n).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            peak: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn model(&self) -> &ShardModel {
        &self.model
    }

    /// Simulated seconds for one read of `extents`, charged per OST: each
    /// touched target performs its own seek, per-extent and per-stripe
    /// latencies, and transfers its share at a bandwidth divided by the
    /// streams concurrently queued on it. The targets run in parallel, so
    /// the read costs the slowest OST's time.
    pub fn read_cost(&self, base: &CostModel, extents: &[(u64, u64)]) -> f64 {
        let per_ost = self.model.split_extents(extents, base.stripe_size);
        // enter every touched OST's queue before costing any of them, so
        // concurrent readers see each other symmetrically
        let touched: Vec<usize> = (0..per_ost.len()).filter(|&o| !per_ost[o].is_empty()).collect();
        let mut queued = Vec::with_capacity(touched.len());
        for &o in &touched {
            let k = self.active[o].fetch_add(1, Ordering::SeqCst) + 1;
            self.peak[o].fetch_max(k as u64, Ordering::SeqCst);
            queued.push(k);
        }
        let mut worst = 0.0f64;
        for (&o, &k) in touched.iter().zip(&queued) {
            let exts = &per_ost[o];
            let ost_bytes: u64 = exts.iter().map(|&(_, l)| l).sum();
            let bw = base.stream_bandwidth.min(self.model.ost_bandwidth / k as f64);
            let transfer = if bw.is_finite() { ost_bytes as f64 / bw } else { 0.0 };
            let cost = self.model.ost_seek
                + exts.len() as f64 * base.extent_latency
                + base.stripes_touched(exts) as f64 * base.stripe_latency
                + transfer;
            worst = worst.max(cost);
            self.reads[o].fetch_add(1, Ordering::SeqCst);
            self.bytes[o].fetch_add(ost_bytes, Ordering::SeqCst);
        }
        for &o in &touched {
            self.active[o].fetch_sub(1, Ordering::SeqCst);
        }
        worst
    }

    /// Snapshot of every OST's counters.
    pub fn stats(&self) -> Vec<OstStats> {
        (0..self.model.n_osts)
            .map(|o| OstStats {
                reads: self.reads[o].load(Ordering::SeqCst),
                bytes: self.bytes[o].load(Ordering::SeqCst),
                peak_queue: self.peak[o].load(Ordering::SeqCst),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model4() -> ShardModel {
        ShardModel { n_osts: 4, ost_seek: 0.01, ost_bandwidth: 1000.0 }
    }

    #[test]
    fn split_divides_aggregate_bandwidth() {
        let m = ShardModel::split(&CostModel::default(), 64);
        assert_eq!(m.n_osts, 64);
        assert!((m.ost_bandwidth - 320e6 / 64.0).abs() < 1e-6);
        assert_eq!(m.ost_seek, CostModel::default().seek_latency);
    }

    #[test]
    fn stripes_map_round_robin() {
        let m = model4();
        for s in 0..16u64 {
            assert_eq!(m.ost_of_stripe(s), (s % 4) as usize);
        }
        assert_eq!(m.ost_of_offset(0, 100), 0);
        assert_eq!(m.ost_of_offset(99, 100), 0);
        assert_eq!(m.ost_of_offset(100, 100), 1);
        assert_eq!(m.ost_of_offset(450, 100), 0);
    }

    #[test]
    fn split_extents_covers_every_byte_once() {
        let m = model4();
        // an extent spanning 6 stripes of 100 bytes, plus a short one
        let exts = vec![(50u64, 560u64), (700, 10)];
        let per_ost = m.split_extents(&exts, 100);
        let mut covered = vec![0u32; 1000];
        for (o, sub) in per_ost.iter().enumerate() {
            for &(off, len) in sub {
                for b in off..off + len {
                    covered[b as usize] += 1;
                    assert_eq!(m.ost_of_offset(b, 100), o, "byte {b} on the wrong OST");
                }
            }
        }
        for b in 0..1000u64 {
            let want = exts.iter().any(|&(o, l)| b >= o && b < o + l) as u32;
            assert_eq!(covered[b as usize], want, "byte {b} covered {} times", covered[b as usize]);
        }
    }

    #[test]
    fn parallel_osts_beat_one_ost() {
        // 400 bytes striped over 4 OSTs at 100 B/stripe: each target moves
        // 100 B in parallel, so the read is ~4x faster than one OST alone
        let m = model4();
        let base = CostModel {
            seek_latency: 0.01,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 100,
            stream_bandwidth: f64::INFINITY,
            aggregate_bandwidth: 4000.0,
        };
        let sh = Shards::new(m);
        let wide = sh.read_cost(&base, &[(0, 400)]);
        assert!((wide - (0.01 + 0.1)).abs() < 1e-12, "got {wide}");
        let narrow = sh.read_cost(&base, &[(0, 100)]);
        assert!((narrow - (0.01 + 0.1)).abs() < 1e-12, "one stripe costs one OST's time");
    }

    #[test]
    fn contention_is_per_ost() {
        let m = model4();
        let base = CostModel {
            seek_latency: 0.0,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 100,
            stream_bandwidth: f64::INFINITY,
            aggregate_bandwidth: 4000.0,
        };
        let sh = std::sync::Arc::new(Shards::new(m));
        // saturate OST 0 from many threads; OST 1 stays uncontended
        std::thread::scope(|s| {
            for _ in 0..8 {
                let sh = std::sync::Arc::clone(&sh);
                s.spawn(move || {
                    for _ in 0..200 {
                        let c = sh.read_cost(&base, &[(0, 100)]);
                        assert!(c >= 0.1 - 1e-12, "OST cost below the uncontended floor");
                    }
                });
            }
        });
        let stats = sh.stats();
        assert_eq!(stats[0].reads, 1600);
        assert_eq!(stats[0].bytes, 160_000);
        assert!(stats[0].peak_queue >= 1);
        assert_eq!(stats[1], OstStats::default(), "OST 1 was never touched");
        // uncontended read on OST 1 still sees full per-OST bandwidth
        assert!((sh.read_cost(&base, &[(100, 100)]) - (0.01 + 0.1)).abs() < 1e-12);
        assert_eq!(sh.stats()[1].reads, 1);
    }

    #[test]
    fn per_ost_queue_halves_bandwidth() {
        let m = ShardModel { n_osts: 2, ost_seek: 0.0, ost_bandwidth: 1000.0 };
        let base = CostModel {
            seek_latency: 0.0,
            extent_latency: 0.0,
            stripe_latency: 0.0,
            stripe_size: 100,
            stream_bandwidth: f64::INFINITY,
            aggregate_bandwidth: 2000.0,
        };
        let sh = Shards::new(m);
        // simulate a second reader already queued on OST 0
        sh.active[0].fetch_add(1, Ordering::SeqCst);
        let crowded = sh.read_cost(&base, &[(0, 100)]);
        sh.active[0].fetch_sub(1, Ordering::SeqCst);
        let alone = sh.read_cost(&base, &[(0, 100)]);
        assert!((alone - 0.1).abs() < 1e-12);
        assert!((crowded - 0.2).abs() < 1e-12, "two streams on one OST halve its bandwidth");
        assert!(sh.stats()[0].peak_queue >= 2);
    }
}
