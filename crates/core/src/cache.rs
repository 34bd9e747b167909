//! The two-level cache tier between the sharded parfs and the viewer.
//!
//! The network-data-cache architecture of Bethel et al. (PAPERS.md), cut
//! to this pipeline's two repeat-consumers:
//!
//! * a **block cache** — an LRU over the per-node velocity magnitudes an
//!   input rank's fetch reduced (4 bytes a node, what the read path
//!   consumes — no vector field is kept) keyed by
//!   `(step, block, level)`, capacity-bounded in bytes, sitting between
//!   the input ranks and the parallel file system. A hit skips the disk
//!   read (and its simulated cost) entirely; temporal enhancement's
//!   re-read of step `t-1` and any rerun/seek over the same steps hit it.
//! * a **frame cache** — rendered frames keyed by
//!   `(step, camera, transfer function + the step's norm, level)`,
//!   consulted by the output stage before the pipeline renders anything.
//!   A run whose every frame is cached is *served* instead of computed
//!   (the `cache_cold` / `cache_warm` rows of `tests/ledger.rs`: 63
//!   messages and every kernel tick cold, 10 messages and none warm).
//!
//! Coherence rules (DESIGN.md "Storage tier"):
//!
//! * every entry stores a checksum of its payload at insert — the
//!   word-parallel FNV digest, [`field_checksum`] — and is re-verified on
//!   every get: a mismatch is counted, the entry dropped, and the caller
//!   falls through to the authoritative source;
//! * the tier is stamped with the run's config fingerprint; a run whose
//!   fingerprint differs (e.g. a checkpoint-resume under a different
//!   config) flushes both levels before starting;
//! * elastic rebalance commits flush the block tier and every frame at or
//!   after the commit step;
//! * only clean frames (no degradation flags) are ever cached, and
//!   frame-serving is all-or-nothing per run, so degraded rendering's
//!   last-known-good state never diverges between cold and warm runs.

use quakeviz_render::{Camera, RgbaImage, TransferFunction};
use quakeviz_rt::{Fnv1a, FnvLanes};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default block-cache capacity when a cache spec enables the tier
/// without sizing it.
pub const DEFAULT_BLOCKS_MB: usize = 64;
/// Default frame-cache capacity (frames) under the same condition.
pub const DEFAULT_FRAMES: usize = 64;

/// Cache-tier sizing. `blocks_mb == 0` disables the block level,
/// `frames == 0` the frame level; both zero means the tier is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Block-cache capacity, mebibytes of fetched magnitudes.
    pub blocks_mb: usize,
    /// Frame-cache capacity, number of rendered frames.
    pub frames: usize,
}

impl CacheConfig {
    /// A disabled tier.
    pub fn off() -> CacheConfig {
        CacheConfig { blocks_mb: 0, frames: 0 }
    }

    /// Whether any level is active.
    pub fn enabled(&self) -> bool {
        self.blocks_mb > 0 || self.frames > 0
    }

    /// Parse a cache spec (`pipeline-report --cache`): empty or `0` disables, `1` enables
    /// both levels at the defaults, otherwise a `key=value` list over
    /// `blocks_mb` and `frames` (unnamed levels default on), e.g.
    /// `blocks_mb=32,frames=16` or `frames=0`.
    pub fn parse(spec: &str) -> Result<CacheConfig, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" {
            return Ok(CacheConfig::off());
        }
        let mut cfg = CacheConfig { blocks_mb: DEFAULT_BLOCKS_MB, frames: DEFAULT_FRAMES };
        if spec == "1" {
            return Ok(cfg);
        }
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("cache spec: expected key=value, got {part:?}"))?;
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("cache spec: {key}={value:?} is not a number"))?;
            match key.trim() {
                "blocks_mb" => cfg.blocks_mb = value,
                "frames" => cfg.frames = value,
                other => return Err(format!("cache spec: unknown key {other:?}")),
            }
        }
        Ok(cfg)
    }
}

/// Key of one fetch's magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    pub step: u32,
    /// Block / fetch-span identity within the step.
    pub block: u32,
    /// Octree level the data was fetched at (`u8::MAX` = full resolution).
    pub level: u8,
}

/// Checksum of a buffer of `f32` values (magnitudes, pixel channels):
/// the word-parallel digest ([`FnvLanes`]) over their little-endian bytes,
/// staged 64 values at a time.
pub fn field_checksum(data: &[f32]) -> u64 {
    let mut h = FnvLanes::new();
    for chunk in data.chunks(64) {
        let mut bytes = [[0u8; 4]; 64];
        for (b, v) in bytes.iter_mut().zip(chunk) {
            *b = v.to_le_bytes();
        }
        h = h.slice(bytes[..chunk.len()].as_flattened());
    }
    h.finish()
}

/// One checksummed entry of the [`Lru`].
struct Entry<V> {
    value: V,
    checksum: u64,
    cost: u64,
    last_used: u64,
}

struct LruInner<K, V> {
    capacity: u64,
    cost: u64,
    tick: u64,
    map: HashMap<K, Entry<V>>,
}

/// The one cache both levels are faces of: a capacity-bounded LRU whose
/// entries carry the checksum they were inserted with and are re-verified
/// on every get.
struct Lru<K, V> {
    inner: Mutex<LruInner<K, V>>,
    checksum: fn(&V) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejects: AtomicU64,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(capacity: u64, checksum: fn(&V) -> u64) -> Self {
        Lru {
            inner: Mutex::new(LruInner { capacity, cost: 0, tick: 0, map: HashMap::new() }),
            checksum,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruInner<K, V>> {
        self.inner.lock().unwrap()
    }

    /// Look up a value; the stored checksum is re-verified before it is
    /// served — a mismatch drops the entry and counts as a reject+miss.
    fn get(&self, key: K) -> Option<V> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(e) = inner.map.get_mut(&key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if (self.checksum)(&e.value) != e.checksum {
            let cost = e.cost;
            inner.map.remove(&key);
            inner.cost -= cost;
            self.rejects.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        e.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(e.value.clone())
    }

    /// Insert a value of the given cost and return the keys evicted, least
    /// recently used first. A value costlier than the capacity is not stored.
    fn insert(&self, key: K, value: V, cost: u64) -> Vec<K> {
        let checksum = (self.checksum)(&value);
        let mut inner = self.lock();
        if cost > inner.capacity {
            return Vec::new();
        }
        inner.tick += 1;
        let entry = Entry { value, checksum, cost, last_used: inner.tick };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.cost -= old.cost;
        }
        inner.cost += cost;
        let mut evicted = Vec::new();
        while inner.cost > inner.capacity {
            let lru = *inner
                .map
                .iter()
                .filter(|&(k, _)| *k != key)
                .min_by_key(|&(_, e)| e.last_used)
                .expect("over capacity implies an older entry exists")
                .0;
            let e = inner.map.remove(&lru).unwrap();
            inner.cost -= e.cost;
            evicted.push(lru);
        }
        self.evictions.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted
    }

    /// Drop every entry.
    fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.cost = 0;
    }
}

/// The per-input-rank block level: byte-bounded LRU over fetched
/// per-node magnitudes.
pub struct BlockCache(Lru<BlockKey, Arc<Vec<f32>>>);

impl BlockCache {
    pub fn new(capacity_bytes: u64) -> BlockCache {
        BlockCache(Lru::new(capacity_bytes, |data| field_checksum(data)))
    }

    /// Whether the level holds anything at all (capacity 0 = disabled).
    pub fn enabled(&self) -> bool {
        self.0.lock().capacity > 0
    }

    /// Look up a block, checksum-verified: a mismatch is a reject+miss.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        self.0.get(key)
    }

    /// Insert a block and return the keys evicted to restore the capacity
    /// bound, in eviction order (the recency certificate the property tests
    /// check). An entry larger than the whole capacity is not stored.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<f32>>) -> Vec<BlockKey> {
        let bytes = (data.len() * 4) as u64;
        self.0.insert(key, data, bytes)
    }

    /// Drop every entry (a fingerprint mismatch).
    pub fn clear(&self) {
        self.0.clear();
    }

    /// Resident bytes.
    pub fn bytes(&self) -> u64 {
        self.0.lock().cost
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.0.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key of one rendered frame: full equality over step, level and the two
/// content hashes — a stale frame cannot be served for a different
/// camera/transfer function unless FNV-1a collides on *both* hashes
/// simultaneously (the fuzz battery in `tests/` drives 4000 perturbations
/// against this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    pub step: u32,
    pub level: u8,
    pub camera_hash: u64,
    pub tf_hash: u64,
}

/// Hash every view parameter that affects pixels: eye/target/up vectors,
/// field of view and the image dimensions, over exact f64 bit patterns.
pub fn camera_hash(cam: &Camera) -> u64 {
    Fnv1a::pipeline()
        .words([
            cam.eye.x.to_bits(),
            cam.eye.y.to_bits(),
            cam.eye.z.to_bits(),
            cam.target.x.to_bits(),
            cam.target.y.to_bits(),
            cam.target.z.to_bits(),
            cam.up.x.to_bits(),
            cam.up.y.to_bits(),
            cam.up.z.to_bits(),
            cam.fov_y.to_bits(),
            cam.width as u64,
            cam.height as u64,
        ])
        .finish()
}

/// Hash everything else that affects a frame's pixels besides step, level
/// and camera: the transfer-function control points, the render mode flags
/// (quantization, lighting, LIC) and `norm`, the magnitude the step's
/// values are normalized by — a live dataset's grows from step to step, so
/// its frames never share a key with a finished dataset's.
pub fn tf_hash(tf: &TransferFunction, quantize: bool, lighting: bool, lic: bool, norm: f32) -> u64 {
    let mut h = Fnv1a::pipeline().words([
        quantize as u64,
        lighting as u64 | (lic as u64) << 1,
        norm.to_bits() as u64,
        tf.points().len() as u64,
    ]);
    for &(v, rgba) in tf.points() {
        h = h.words([v.to_bits() as u64]).words(rgba.iter().map(|c| c.to_bits() as u64));
    }
    h.finish()
}

/// The rendered-frame level: count-bounded LRU over final frames.
pub struct FrameCache(Lru<FrameKey, RgbaImage>);

impl FrameCache {
    pub fn new(capacity_frames: usize) -> FrameCache {
        FrameCache(Lru::new(capacity_frames as u64, |img| {
            field_checksum(img.pixels().as_flattened())
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.lock().capacity > 0
    }

    /// Whether a frame is present, without touching recency or counters
    /// (the output stage's pre-run warm probe).
    pub fn contains(&self, key: FrameKey) -> bool {
        self.0.lock().map.contains_key(&key)
    }

    /// Serve a frame, checksum-verified like [`BlockCache::get`].
    pub fn get(&self, key: FrameKey) -> Option<RgbaImage> {
        self.0.get(key)
    }

    /// Cache a frame, evicting the least-recently-used past capacity.
    pub fn insert(&self, key: FrameKey, img: &RgbaImage) {
        if self.enabled() {
            self.0.insert(key, img.clone(), 1);
        }
    }

    pub fn clear(&self) {
        self.0.clear();
    }

    pub fn len(&self) -> usize {
        self.0.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Counter snapshot of one tier (cumulative since creation; the pipeline
/// emits per-run deltas by differencing two snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub block_hits: u64,
    pub block_misses: u64,
    pub block_evictions: u64,
    pub block_rejects: u64,
    pub block_bytes: u64,
    pub frame_hits: u64,
    pub frame_misses: u64,
    pub frame_evictions: u64,
    pub frame_rejects: u64,
}

impl CacheCounters {
    /// One run's share of a tier that accumulates across the runs sharing
    /// it — every counter since `base`, plus the resident-bytes gauge —
    /// under the metric names they are published as.
    pub fn named_since(&self, base: &CacheCounters) -> [(&'static str, u64); 9] {
        [
            ("cache.block.hits", self.block_hits - base.block_hits),
            ("cache.block.misses", self.block_misses - base.block_misses),
            ("cache.block.evictions", self.block_evictions - base.block_evictions),
            ("cache.block.rejects", self.block_rejects - base.block_rejects),
            ("cache.block.bytes", self.block_bytes),
            ("cache.frame.hits", self.frame_hits - base.frame_hits),
            ("cache.frame.misses", self.frame_misses - base.frame_misses),
            ("cache.frame.evictions", self.frame_evictions - base.frame_evictions),
            ("cache.frame.rejects", self.frame_rejects - base.frame_rejects),
        ]
    }
}

/// Both cache levels plus the fingerprint stamp — the handle shared
/// between a cold run and the warm runs that follow it.
pub struct CacheTier {
    pub blocks: BlockCache,
    pub frames: FrameCache,
    stamp: Mutex<Option<u64>>,
}

impl CacheTier {
    pub fn new(cfg: CacheConfig) -> Arc<CacheTier> {
        Arc::new(CacheTier {
            blocks: BlockCache::new(cfg.blocks_mb as u64 * (1 << 20)),
            frames: FrameCache::new(cfg.frames),
            stamp: Mutex::new(None),
        })
    }

    /// Stamp the tier with a run's config fingerprint. A differing stamp
    /// (resume under a changed config, reuse across configs) flushes both
    /// levels first; returns whether a flush happened.
    pub fn stamp(&self, fingerprint: u64) -> bool {
        let mut stamp = self.stamp.lock().unwrap();
        let flush = stamp.is_some_and(|s| s != fingerprint);
        if flush {
            self.blocks.clear();
            self.frames.clear();
        }
        *stamp = Some(fingerprint);
        flush
    }

    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            block_hits: self.blocks.0.hits.load(Ordering::Relaxed),
            block_misses: self.blocks.0.misses.load(Ordering::Relaxed),
            block_evictions: self.blocks.0.evictions.load(Ordering::Relaxed),
            block_rejects: self.blocks.0.rejects.load(Ordering::Relaxed),
            block_bytes: self.blocks.bytes(),
            frame_hits: self.frames.0.hits.load(Ordering::Relaxed),
            frame_misses: self.frames.0.misses.load(Ordering::Relaxed),
            frame_evictions: self.frames.0.evictions.load(Ordering::Relaxed),
            frame_rejects: self.frames.0.rejects.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for CacheTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheTier")
            .field("blocks", &self.blocks.len())
            .field("block_bytes", &self.blocks.bytes())
            .field("frames", &self.frames.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FrameCache {
        /// Flip a bit of the first pixel of every cached frame of `step`,
        /// as drift in the stored payload would: its next `get` rejects it.
        pub(crate) fn corrupt_step(&self, step: u32) {
            for (_, e) in self.0.lock().map.iter_mut().filter(|(k, _)| k.step == step) {
                let px = &mut e.value.pixels_mut()[0][0];
                *px = f32::from_bits(px.to_bits() ^ 1);
            }
        }
    }

    fn field(n: usize, seed: f32) -> Arc<Vec<f32>> {
        Arc::new((0..n).map(|i| seed + i as f32).collect())
    }

    #[test]
    fn parse_cache_specs() {
        assert_eq!(CacheConfig::parse("").unwrap(), CacheConfig::off());
        assert_eq!(CacheConfig::parse("0").unwrap(), CacheConfig::off());
        assert_eq!(
            CacheConfig::parse("1").unwrap(),
            CacheConfig { blocks_mb: DEFAULT_BLOCKS_MB, frames: DEFAULT_FRAMES }
        );
        assert_eq!(
            CacheConfig::parse("blocks_mb=8,frames=3").unwrap(),
            CacheConfig { blocks_mb: 8, frames: 3 }
        );
        assert_eq!(
            CacheConfig::parse("frames=0").unwrap(),
            CacheConfig { blocks_mb: DEFAULT_BLOCKS_MB, frames: 0 }
        );
        assert!(CacheConfig::parse("nope=1").unwrap_err().contains("unknown key"));
        assert!(CacheConfig::parse("frames=abc").unwrap_err().contains("not a number"));
        assert!(CacheConfig::parse("frames").unwrap_err().contains("key=value"));
        assert!(!CacheConfig::off().enabled());
        assert!(CacheConfig { blocks_mb: 0, frames: 1 }.enabled());
    }

    #[test]
    fn block_cache_round_trips_and_counts() {
        let c = BlockCache::new(1 << 20);
        let k = BlockKey { step: 3, block: 7, level: 2 };
        assert!(c.get(k).is_none());
        let data = field(100, 1.0);
        c.insert(k, Arc::clone(&data));
        assert_eq!(c.get(k).unwrap(), data);
        assert_eq!(c.bytes(), 400);
        let c2 = c.0.lock().map.len();
        assert_eq!(c2, 1);
        assert_eq!(c.0.hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.0.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn block_cache_evicts_lru_within_capacity() {
        // capacity for exactly two 400-byte entries
        let c = BlockCache::new(800);
        let keys: Vec<BlockKey> =
            (0..3).map(|i| BlockKey { step: i, block: i, level: 0 }).collect();
        assert!(c.insert(keys[0], field(100, 0.0)).is_empty());
        assert!(c.insert(keys[1], field(100, 1.0)).is_empty());
        // touch key 0 so key 1 is the LRU
        assert!(c.get(keys[0]).is_some());
        let evicted = c.insert(keys[2], field(100, 2.0));
        assert_eq!(evicted, vec![keys[1]]);
        assert!(c.get(keys[0]).is_some() && c.get(keys[2]).is_some());
        assert!(c.bytes() <= 800);
        // an entry bigger than the whole capacity is refused, not stored
        assert!(c.insert(BlockKey { step: 9, block: 9, level: 9 }, field(300, 9.0)).is_empty());
        assert!(c.get(BlockKey { step: 9, block: 9, level: 9 }).is_none());
    }

    #[test]
    fn corrupted_block_is_rejected_not_served() {
        let c = BlockCache::new(1 << 20);
        let k = BlockKey { step: 0, block: 0, level: 0 };
        c.insert(k, field(10, 1.0));
        // corrupt the stored checksum to simulate payload drift
        c.0.lock().map.get_mut(&k).unwrap().checksum ^= 1;
        assert!(c.get(k).is_none(), "a checksum mismatch must never serve");
        assert_eq!(c.0.rejects.load(Ordering::Relaxed), 1);
        assert!(c.is_empty(), "the poisoned entry must be dropped");
    }

    /// The entry checksum is the word-parallel digest of the values'
    /// little-endian bytes across whole and partial 64-value stages, and
    /// every single-bit flip of any value changes it.
    #[test]
    fn field_checksum_covers_every_bit_of_every_value() {
        let data = field(70, 0.5);
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let clean = field_checksum(&data);
        assert_eq!(clean, FnvLanes::new().slice(&bytes).finish());
        for (i, bit) in (0..70).flat_map(|i| (0..32).map(move |bit| (i, bit))) {
            let mut flipped = data.as_ref().clone();
            let v = &mut flipped[i];
            *v = f32::from_bits(v.to_bits() ^ 1 << bit);
            assert_ne!(field_checksum(&flipped), clean, "value {i} bit {bit}");
        }
    }

    #[test]
    fn frame_cache_serves_exact_key_only() {
        let fc = FrameCache::new(4);
        let mut img = RgbaImage::new(2, 2);
        img.set(1, 1, [0.5, 0.25, 0.125, 1.0]);
        let k = FrameKey { step: 0, level: 2, camera_hash: 11, tf_hash: 22 };
        fc.insert(k, &img);
        assert!(fc.contains(k));
        assert_eq!(fc.get(k).unwrap(), img);
        for other in [
            FrameKey { step: 1, ..k },
            FrameKey { level: 3, ..k },
            FrameKey { camera_hash: 12, ..k },
            FrameKey { tf_hash: 23, ..k },
        ] {
            assert!(fc.get(other).is_none(), "{other:?} must not serve {k:?}");
        }
    }

    #[test]
    fn frame_cache_capacity_bound() {
        let fc = FrameCache::new(2);
        let img = RgbaImage::new(1, 1);
        for step in 0..5u32 {
            fc.insert(FrameKey { step, level: 0, camera_hash: 0, tf_hash: 0 }, &img);
        }
        assert_eq!(fc.len(), 2);
        assert_eq!(fc.0.evictions.load(Ordering::Relaxed), 3);
        // most recent entries survive
        assert!(fc.contains(FrameKey { step: 4, level: 0, camera_hash: 0, tf_hash: 0 }));
        assert!(fc.contains(FrameKey { step: 3, level: 0, camera_hash: 0, tf_hash: 0 }));
    }

    #[test]
    fn tier_stamp_flushes_on_fingerprint_change() {
        let tier = CacheTier::new(CacheConfig { blocks_mb: 1, frames: 4 });
        tier.blocks.insert(BlockKey { step: 0, block: 0, level: 0 }, field(10, 0.0));
        tier.frames.insert(
            FrameKey { step: 0, level: 0, camera_hash: 0, tf_hash: 0 },
            &RgbaImage::new(1, 1),
        );
        assert!(!tier.stamp(42), "first stamp must not flush");
        assert!(!tier.stamp(42), "matching stamp must not flush");
        assert_eq!(tier.blocks.len(), 1);
        assert!(tier.stamp(43), "fingerprint change must flush");
        assert!(tier.blocks.is_empty() && tier.frames.is_empty());
    }

    #[test]
    fn hashes_depend_on_every_input() {
        let tf = TransferFunction::seismic();
        let h = tf_hash(&tf, false, false, false, 1.0);
        assert_ne!(h, tf_hash(&tf, true, false, false, 1.0));
        assert_ne!(h, tf_hash(&tf, false, true, false, 1.0));
        assert_ne!(h, tf_hash(&tf, false, false, true, 1.0));
        assert_ne!(h, tf_hash(&tf, false, false, false, 2.0));
        assert_ne!(h, tf_hash(&TransferFunction::grayscale(), false, false, false, 1.0));
        assert_eq!(h, tf_hash(&TransferFunction::seismic(), false, false, false, 1.0));
    }
}
