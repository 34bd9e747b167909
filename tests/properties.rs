//! Randomized property tests over the pipeline's data-plane invariants,
//! driven by the in-repo [`SplitMix64`] generator (offline-build policy:
//! no proptest). Each property runs many seeded trials so failures print
//! the reproducing seed.
//!
//! * RLE pixel coding is a lossless roundtrip for any span,
//! * SLIC compositing equals the sequential over-operator reference bit
//!   for bit for any fragment layout, with the message and byte counts
//!   its schedule predicts,
//! * octree block decomposition tiles the leaf array exactly at every
//!   level,
//! * block ownership (`membership::owners`) covers every block exactly
//!   once on live active ranks for any assignment and dead rank.

use quakeviz::composite::{
    rle_decode, rle_encode, sequential_reference, slic, CompositeOptions, FrameInfo,
};
use quakeviz::mesh::{Aabb, Loc3, Octree, RefineOracle, Vec3};
use quakeviz::render::raycast::Fragment;
use quakeviz::render::{Rgba, RgbaImage, ScreenRect};
use quakeviz::rt::rng::SplitMix64;
use quakeviz::rt::{TrafficStats, World};

// --- RLE roundtrip ------------------------------------------------------

/// Random premultiplied span with run structure: runs of random length,
/// some transparent, some constant, some noise.
fn random_span(rng: &mut SplitMix64, max_len: usize) -> Vec<Rgba> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let run = 1 + rng.next_below(16) as usize;
        let px: Rgba = match rng.next_below(3) {
            0 => [0.0; 4], // transparent gap
            1 => {
                let a = rng.next_f32();
                [rng.next_f32() * a, rng.next_f32() * a, rng.next_f32() * a, a]
            }
            // bit patterns that stress exact f32 equality (subnormals,
            // negative zero never appears in renderer output, but tiny
            // and huge magnitudes do after compositing)
            _ => [f32::MIN_POSITIVE, 1e30, rng.next_f32(), 1.0],
        };
        for _ in 0..run.min(len - out.len()) {
            out.push(px);
        }
    }
    out
}

#[test]
fn rle_roundtrip_is_lossless() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
        let span = random_span(&mut rng, 400);
        let coded = rle_encode(&span);
        assert_eq!(coded.len() % 20, 0, "seed {seed}: stream not 20 B/run");
        let back = rle_decode(&coded);
        assert_eq!(back.len(), span.len(), "seed {seed}: length changed");
        // bit-exact: compare the raw bits, not float equality
        for (i, (a, b)) in span.iter().zip(&back).enumerate() {
            for c in 0..4 {
                assert_eq!(
                    a[c].to_bits(),
                    b[c].to_bits(),
                    "seed {seed}: pixel {i} channel {c} not bit-identical"
                );
            }
        }
    }
}

#[test]
fn rle_compresses_constant_spans() {
    let span = vec![[0.0f32; 4]; 10_000];
    let coded = rle_encode(&span);
    assert_eq!(coded.len(), 20, "one run must code in one record");
}

// --- SLIC vs the sequential over-operator -------------------------------

const W: u32 = 32;
const H: u32 = 24;

fn random_fragment(rng: &mut SplitMix64, block: u32) -> Fragment {
    let x0 = rng.next_below(W as u64 - 1) as u32;
    let y0 = rng.next_below(H as u64 - 1) as u32;
    let x1 = x0 + 1 + rng.next_below((W - x0 - 1).max(1) as u64) as u32;
    let y1 = y0 + 1 + rng.next_below((H - y0 - 1).max(1) as u64) as u32;
    let rect = ScreenRect::new(x0, y0, x1, y1);
    let pixels = (0..rect.area())
        .map(|_| {
            let a = rng.next_f32();
            [rng.next_f32() * a, rng.next_f32() * a, rng.next_f32() * a, a]
        })
        .collect();
    Fragment { block, rect, pixels }
}

/// A frame's worth of fragments: each with its owner rank, plus the
/// visibility order (block ids, front to back).
struct Panel {
    frags: Vec<(u32, Fragment)>,
    order: Vec<u32>,
    width: u32,
    height: u32,
}

impl Panel {
    /// The shared frame description every rank derives from the panel.
    fn info(&self) -> FrameInfo {
        let pos = |b: u32| self.order.iter().position(|&o| o == b).unwrap();
        let mut frags: Vec<(u32, ScreenRect, u32)> =
            self.frags.iter().map(|(owner, f)| (f.block, f.rect, *owner)).collect();
        frags.sort_by_key(|&(b, _, _)| pos(b));
        FrameInfo::from_sorted(frags, self.width, self.height)
    }

    fn local(&self, rank: usize) -> Vec<Fragment> {
        self.frags.iter().filter(|(o, _)| *o as usize == rank).map(|(_, f)| f.clone()).collect()
    }

    fn fragment(&self, block: u32) -> &Fragment {
        &self.frags.iter().find(|(_, f)| f.block == block).unwrap().1
    }
}

/// Small random rects on a 32 × 24 frame, in block-id order.
fn random_panel(rng: &mut SplitMix64, n: usize, per_rank: usize) -> Panel {
    let frags = panel_fragments(rng, n, per_rank);
    let order = (0..(n * per_rank) as u32).collect();
    Panel { frags, order, width: W, height: H }
}

/// Shaped like a rendered 64² frame: 64 projected-box fragments, each
/// large enough that covered pixels sit under ≥ 8 layers on average,
/// mostly transparent `[0; 4]`, dealt to ranks round-robin and seen in a
/// shuffled visibility order.
fn frame_shaped_panel(rng: &mut SplitMix64, n: usize) -> Panel {
    const S: u32 = 64;
    let mut frags = Vec::new();
    for b in 0..64u32 {
        let (w, h) = (24 + rng.next_below(25) as u32, 24 + rng.next_below(25) as u32);
        let (x0, y0) =
            (rng.next_below((S - w + 1) as u64) as u32, rng.next_below((S - h + 1) as u64) as u32);
        let rect = ScreenRect::new(x0, y0, x0 + w, y0 + h);
        let mut pixels = Vec::with_capacity(rect.area() as usize);
        while pixels.len() < rect.area() as usize {
            let len = (1 + rng.next_below(24) as usize).min(rect.area() as usize - pixels.len());
            if rng.next_below(3) == 0 {
                let a = rng.next_f32() * 0.3;
                pixels.extend(
                    (0..len)
                        .map(|_| [rng.next_f32() * a, rng.next_f32() * a, rng.next_f32() * a, a]),
                );
            } else {
                pixels.extend(std::iter::repeat_n([0.0f32; 4], len));
            }
        }
        frags.push((b % n as u32, Fragment { block: b, rect, pixels }));
    }
    let mut order: Vec<u32> = (0..64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    Panel { frags, order, width: S, height: S }
}

/// The bytes SLIC must charge for `info`'s schedule: every layer shipped
/// to a compositor and every finished run shipped to the collector — 16
/// per pixel raw, or each span's own RLE length. A finished run's pixels
/// are the reference frame's, which SLIC matches bit for bit.
fn predicted_bytes(
    panel: &Panel,
    info: &FrameInfo,
    want: &RgbaImage,
    collector: u32,
    compress: bool,
) -> u64 {
    let span_bytes = |px: Vec<Rgba>| {
        if compress {
            rle_encode(&px).len() as u64
        } else {
            16 * px.len() as u64
        }
    };
    let sched = info.runs();
    let mut bytes = 0;
    for (run, layers) in sched.iter() {
        let comp = info.compositor_of(layers);
        for &fi in &layers[1..] {
            let (block, _, owner) = info.frags[fi as usize];
            if owner != comp {
                let f = panel.fragment(block);
                bytes += span_bytes(
                    (run.y0..run.y1)
                        .flat_map(|y| (run.x0..run.x1).map(move |x| f.get(x, y)))
                        .collect(),
                );
            }
        }
        if comp != collector {
            bytes += span_bytes(
                (run.y0..run.y1)
                    .flat_map(|y| (run.x0..run.x1).map(move |x| want.get(x, y)))
                    .collect(),
            );
        }
    }
    bytes
}

#[test]
fn slic_matches_sequential_over_for_random_layouts() {
    for trial in 0..32u64 {
        let n = 1 + (trial % 4) as usize; // 1..=4 ranks
        let compress = trial / 4 % 2 == 0;
        let mut rng = SplitMix64::new(0x5EED ^ trial << 8);
        let panel = if trial < 16 {
            random_panel(&mut rng, n, 1 + (trial / 8 % 2) as usize * 2)
        } else {
            frame_shaped_panel(&mut rng, n)
        };
        let info = panel.info();
        let collector = (trial / 8 % n as u64) as u32;
        let all: Vec<Fragment> = panel.frags.iter().map(|(_, f)| f.clone()).collect();
        let want = sequential_reference(&all, &panel.order, panel.width, panel.height);
        if trial >= 16 {
            let sched = info.runs();
            let covered: usize = sched.runs().iter().map(|r| r.len()).sum();
            let layered: usize = sched.iter().map(|(r, l)| r.len() * l.len()).sum();
            assert!(layered >= 8 * covered, "trial {trial}: only {layered}/{covered} layers");
        }
        let stats = TrafficStats::new();
        let images = World::run_traced(n, stats.clone(), |comm| {
            let local = panel.local(comm.rank());
            let got = slic(&comm, &local, &info, collector as usize, CompositeOptions { compress });
            assert_eq!(got.image.is_some(), comm.rank() == collector as usize, "trial {trial}");
            got.image
        });
        let img = images[collector as usize].as_ref().expect("collector image");
        for (i, (a, b)) in img.pixels().iter().zip(want.pixels()).enumerate() {
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "trial {trial}: pixel {i}");
        }
        assert_eq!(stats.messages(), info.slic_message_count(n, collector), "trial {trial}");
        assert_eq!(
            stats.bytes(),
            predicted_bytes(&panel, &info, &want, collector, compress),
            "trial {trial} (compress {compress})"
        );
    }
}

/// All fragments of an `n`-rank panel, owner `r` producing `per_rank`
/// fragments with globally unique block ids (total visibility order).
fn panel_fragments(rng: &mut SplitMix64, n: usize, per_rank: usize) -> Vec<(u32, Fragment)> {
    (0..n)
        .flat_map(|r| {
            (0..per_rank)
                .map(|i| (r as u32, random_fragment(rng, (r * per_rank + i) as u32)))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Render-rank failover invariant, schedule level: for panels of 2..6
/// ranks, restricting the SLIC schedule to **every** proper surviving
/// subset still covers each fragment-covered pixel exactly once, owners
/// renumber into the compact survivor indexing, and each run's
/// compositor owns its front-most fragment.
#[test]
fn slic_schedule_over_every_surviving_subset_partitions_the_frame() {
    for n in 2..=6usize {
        let mut rng = SplitMix64::new(0xFA11 ^ (n as u64) << 4);
        let per_rank = 2;
        let all = panel_fragments(&mut rng, n, per_rank);
        let frags: Vec<(u32, ScreenRect, u32)> =
            all.iter().map(|(owner, f)| (f.block, f.rect, *owner)).collect();
        let info = FrameInfo::from_sorted(frags, W, H);
        for mask in 1..(1u32 << n) - 1 {
            let live: Vec<u32> = (0..n as u32).filter(|r| mask & (1 << r) != 0).collect();
            let sub = info.restrict_to(&live);
            assert!(
                sub.frags.iter().all(|&(_, _, o)| (o as usize) < live.len()),
                "n={n} mask={mask:b}: owner not renumbered into the survivor indexing"
            );
            // survivors' fragments survive verbatim, dead ranks' vanish
            assert_eq!(sub.frags.len(), live.len() * per_rank, "n={n} mask={mask:b}");
            // paint every run: each covered pixel lands in exactly one run
            let mut painted = vec![0u32; (W * H) as usize];
            for (run, layers) in sub.runs().iter() {
                assert!(!layers.is_empty(), "n={n} mask={mask:b}: empty run emitted");
                let comp = sub.compositor_of(layers);
                assert_eq!(
                    comp, sub.frags[layers[0] as usize].2,
                    "n={n} mask={mask:b}: compositor is not the front-most owner"
                );
                for y in run.y0..run.y1 {
                    for x in run.x0..run.x1 {
                        painted[(y * W + x) as usize] += 1;
                    }
                }
            }
            for y in 0..H {
                for x in 0..W {
                    let covered = sub
                        .frags
                        .iter()
                        .any(|&(_, r, _)| x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1);
                    assert_eq!(
                        painted[(y * W + x) as usize],
                        covered as u32,
                        "n={n} mask={mask:b}: pixel ({x},{y}) not covered exactly once"
                    );
                }
            }
        }
    }
}

/// Render-rank failover invariant, end to end: compositing any surviving
/// subset's fragments over a world of exactly the survivors matches the
/// sequential over-operator reference — the property that makes
/// post-failover frames bit-identical to a clean run over the survivors.
#[test]
fn slic_over_surviving_subsets_matches_sequential_reference() {
    for n in 3..=6usize {
        let mut rng = SplitMix64::new(0xDEAD ^ (n as u64) << 4);
        let per_rank = 2;
        let seed = 0x5EED ^ (n as u64) << 16;
        let drop_rank = rng.next_below(n as u64) as u32;
        // drop one rank, and independently keep only the odd ranks
        let subsets: Vec<Vec<u32>> = vec![
            (0..n as u32).filter(|&r| r != drop_rank).collect(),
            (0..n as u32).filter(|&r| r % 2 == 1).collect(),
        ];
        for live in subsets.into_iter().filter(|l| l.len() >= 2) {
            let order: Vec<u32> = (0..(n * per_rank) as u32).collect();
            let k = live.len();
            let live_ref = &live;
            let order_ref = &order;
            World::run(k, move |comm| {
                // every rank regenerates the full panel deterministically,
                // then takes over the fragments of one survivor
                let mut rng = SplitMix64::new(seed);
                let all = panel_fragments(&mut rng, n, per_rank);
                let mine = live_ref[comm.rank()];
                let local: Vec<Fragment> =
                    all.iter().filter(|(o, _)| *o == mine).map(|(_, f)| f.clone()).collect();
                let subset: Vec<Fragment> = all
                    .iter()
                    .filter(|(o, _)| live_ref.contains(o))
                    .map(|(_, f)| f.clone())
                    .collect();
                let info = FrameInfo::exchange(&comm, &local, order_ref, W, H);
                let got = slic(&comm, &local, &info, 0, CompositeOptions::default());
                if comm.rank() == 0 {
                    let want = sequential_reference(&subset, order_ref, W, H);
                    let img = got.image.expect("collector image");
                    for (a, b) in img.pixels().iter().zip(want.pixels()) {
                        assert_eq!(
                            a.map(f32::to_bits),
                            b.map(f32::to_bits),
                            "n={n} live={live_ref:?}: subset SLIC differs from reference"
                        );
                    }
                } else {
                    assert!(got.image.is_none());
                }
            });
        }
    }
}

// --- Octree block decomposition -----------------------------------------

/// Deterministic pseudo-random refinement: split based on a hash of the
/// cell key, so the tree shape is irregular but reproducible.
struct RandomRefinement {
    seed: u64,
    max: u8,
}

impl RefineOracle for RandomRefinement {
    fn refine(&self, loc: &Loc3, _bounds: &Aabb) -> bool {
        let mut h = SplitMix64::new(self.seed ^ loc.key());
        h.next_below(100) < 60
    }
    fn max_level(&self) -> u8 {
        self.max
    }
}

#[test]
fn octree_blocks_tile_the_leaves_at_every_level() {
    for seed in 0..8u64 {
        let oracle = RandomRefinement { seed: 0xB10C ^ seed, max: 4 };
        let tree = Octree::build(Vec3 { x: 1.0, y: 1.0, z: 1.0 }, &oracle);
        let leaves = tree.leaves();
        assert!(!leaves.is_empty());
        for level in 0..=tree.max_leaf_level() {
            let blocks = tree.blocks(level);
            // sequential ids
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(b.id as usize, i, "seed {seed} level {level}: ids not sequential");
            }
            // contiguous, disjoint, complete coverage of the leaf array
            let mut cursor = 0usize;
            for b in &blocks {
                assert_eq!(
                    b.leaf_start, cursor,
                    "seed {seed} level {level}: gap or overlap at block {}",
                    b.id
                );
                assert!(b.leaf_end > b.leaf_start, "empty block {}", b.id);
                // every leaf in range descends from the block root
                for leaf in &leaves[b.leaf_start..b.leaf_end] {
                    assert!(
                        b.root.contains(leaf),
                        "seed {seed} level {level}: leaf outside block {} subtree",
                        b.id
                    );
                }
                assert!(b.root.level <= level, "block root deeper than the cut level");
                cursor = b.leaf_end;
            }
            assert_eq!(cursor, leaves.len(), "seed {seed} level {level}: leaves uncovered");
            // block roots are pairwise disjoint subtrees
            for w in blocks.windows(2) {
                assert!(
                    !w[0].root.contains(&w[1].root) && !w[1].root.contains(&w[0].root),
                    "seed {seed} level {level}: adjacent block roots nest"
                );
            }
        }
    }
}

// --- wire checksum ------------------------------------------------------

/// The block-piece wire checksum detects **every** single-bit flip: the
/// word-parallel FNV digest applies an injective mix per word within its
/// lane (and per byte of the tail), so two streams differing in one word
/// can never re-converge. Flip every bit of random payloads whose lengths
/// cross the 32-byte block boundaries (one word per lane) and demand a
/// different digest each time.
#[test]
fn wire_checksum_detects_every_single_bit_flip() {
    use quakeviz::pipeline::wire_checksum;
    for seed in 0..20u64 {
        let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
        let len = 1 + rng.next_below(130) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let bid = rng.next_below(1 << 20) as u32;
        let offset = rng.next_below(1 << 16) as u32;
        let kind = rng.next_below(3) as u8;
        let clean = wire_checksum(bid, offset, kind, bytes.iter().copied());
        for bit in 0..len * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                clean,
                wire_checksum(bid, offset, kind, flipped.into_iter()),
                "seed {seed}: flip of bit {bit} not detected"
            );
        }
        // the header is covered too
        assert_ne!(clean, wire_checksum(bid ^ 1, offset, kind, bytes.iter().copied()));
        assert_ne!(clean, wire_checksum(bid, offset ^ 1, kind, bytes.iter().copied()));
        assert_ne!(clean, wire_checksum(bid, offset, kind ^ 1, bytes.iter().copied()));
    }
}

// --- fault plan determinism ---------------------------------------------

/// A fault plan's schedule is a pure function of its spec: two plans built
/// from the same spec answer every (site, attempt) and (src, dst, tag)
/// query identically, and a different seed produces a different schedule.
#[test]
fn fault_plan_schedule_is_deterministic_in_its_seed() {
    use quakeviz::rt::{FaultPlan, FaultSpec};
    let spec = |seed: u64| {
        FaultSpec::parse(&format!(
            "seed={seed},read_transient=0.3,read_corrupt=0.2,read_slow=0.2,slow_factor=2,\
             send_drop=0.3,send_delay=0.2,delay_ms=1,wire_corrupt=0.3"
        ))
        .unwrap()
    };
    for seed in 0..8u64 {
        let a = FaultPlan::new(spec(seed));
        let b = FaultPlan::new(spec(seed));
        let c = FaultPlan::new(spec(seed + 1));
        let mut differs = false;
        for site in 0..200u64 {
            for attempt in 0..3u32 {
                let fa = a.read_fault(site, attempt, String::new);
                let fb = b.read_fault(site, attempt, String::new);
                assert_eq!(fa, fb, "seed {seed}: read decision diverged at {site}/{attempt}");
                differs |= fa != c.read_fault(site, attempt, String::new);
            }
            let (src, dst, tag) = (site as usize % 7, site as usize % 5, site * 31);
            let sa = a.send_fault(src, dst, tag);
            assert_eq!(sa, b.send_fault(src, dst, tag), "seed {seed}: send decision diverged");
            assert_eq!(
                a.wire_corrupt(src, dst, tag),
                b.wire_corrupt(src, dst, tag),
                "seed {seed}: corruption decision diverged"
            );
            differs |= sa != c.send_fault(src, dst, tag);
        }
        assert!(differs, "seed {seed} and {} produced identical schedules", seed + 1);
    }
}

// --- elastic partitioning -----------------------------------------------

/// The elastic control plane's core determinism claim: partitioning the
/// same blocks over the same processor count is a pure function — no
/// wall-clock, no iteration order — so every rank recomputing a plan's
/// routing arrives at the identical answer. And LPT's balance guarantee
/// holds for every survivor-group size: no renderer's load exceeds the
/// perfect split by more than one block's weight.
#[test]
fn partition_over_survivor_subsets_is_deterministic_and_balanced() {
    use quakeviz::mesh::Partition;
    use quakeviz::pipeline::control::assign_capacity;
    for seed in 0..16u64 {
        let oracle = RandomRefinement { seed: 0xE1A5 ^ seed, max: 4 };
        let tree = Octree::build(Vec3 { x: 1.0, y: 1.0, z: 1.0 }, &oracle);
        let blocks = tree.blocks(2);
        let mut rng = SplitMix64::new(0x5EED ^ seed);
        let weights: Vec<u64> = blocks.iter().map(|_| 1 + rng.next_below(64)).collect();
        let total: u64 = weights.iter().sum();
        let wmax = *weights.iter().max().unwrap();
        for survivors in 1..=6usize.min(blocks.len()) {
            let a = Partition::balanced_weighted(&blocks, &weights, survivors);
            let b = Partition::balanced_weighted(&blocks, &weights, survivors);
            assert_eq!(a, b, "seed {seed}, {survivors} survivors: partition not deterministic");
            // one placement kernel: the controller's capacity-aware
            // assignment at uniform rates is this partition
            let items: Vec<(u32, u64)> =
                weights.iter().enumerate().map(|(b, &w)| (b as u32, w)).collect();
            let by_rank: Vec<Vec<u32>> = (0..survivors).map(|r| a.blocks_of(r).to_vec()).collect();
            assert_eq!(
                assign_capacity(&items, &vec![1; survivors]),
                by_rank,
                "seed {seed}, {survivors} survivors: all rates 1 must equal balanced_weighted"
            );
            // exhaustive, disjoint, SFC-sorted coverage
            let mut owned: Vec<u32> = Vec::new();
            for r in 0..survivors {
                assert!(a.blocks_of(r).windows(2).all(|w| w[0] < w[1]), "not SFC-sorted");
                owned.extend_from_slice(a.blocks_of(r));
            }
            owned.sort_unstable();
            assert_eq!(
                owned,
                (0..blocks.len() as u32).collect::<Vec<_>>(),
                "seed {seed}, {survivors} survivors: blocks lost or duplicated"
            );
            // list-scheduling balance: load_r <= total/n + wmax
            for r in 0..survivors {
                let load: u64 = a.blocks_of(r).iter().map(|&b| weights[b as usize]).sum();
                assert!(
                    load <= total / survivors as u64 + wmax,
                    "seed {seed}, {survivors} survivors: rank {r} load {load} \
                     breaks the LPT bound (total {total}, wmax {wmax})"
                );
            }
        }
    }
}

/// Capacity-aware assignment (the controller's rebalance step) shares the
/// determinism/coverage contract and satisfies the greedy optimality
/// certificate: each rank's projected completion `load x rate` is justified
/// by its *last-placed* block — moving that block to any other rank could
/// not have looked cheaper at placement time. Rates themselves must be
/// powers of two within the hysteresis cap, with unmeasured ranks at 1.
#[test]
fn capacity_assignment_is_deterministic_exhaustive_and_greedy_stable() {
    use quakeviz::pipeline::control::{assign_capacity, quantized_rates, MAX_RATE};
    // the scripted-skew shape: one rank 8x slower per unit of weight
    assert_eq!(quantized_rates(&[8.0, 1.0, 1.0], &[1, 1, 1]), vec![8, 1, 1]);
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(0xCA9A ^ seed);
        let n_blocks = 1 + rng.next_below(96) as usize;
        let n_ranks = 1 + rng.next_below(8) as usize;
        let blocks: Vec<(u32, u64)> =
            (0..n_blocks).map(|i| (i as u32, 1 + rng.next_below(64))).collect();
        let busy: Vec<f64> = (0..n_ranks)
            .map(|_| if rng.next_below(5) == 0 { 0.0 } else { 1.0 + rng.next_below(31) as f64 })
            .collect();
        let unit: Vec<u64> = (0..n_ranks).map(|_| 1 + rng.next_below(16)).collect();
        let rates = quantized_rates(&busy, &unit);
        for (r, &rate) in rates.iter().enumerate() {
            assert!(
                rate.is_power_of_two() && rate <= MAX_RATE,
                "seed {seed}: rate {rate} out of the quantized range"
            );
            if busy[r] == 0.0 {
                assert_eq!(rate, 1, "seed {seed}: unmeasured rank {r} must default to rate 1");
            }
        }
        let a = assign_capacity(&blocks, &rates);
        assert_eq!(a, assign_capacity(&blocks, &rates), "seed {seed}: not deterministic");
        let mut owned: Vec<u32> = a.iter().flatten().copied().collect();
        owned.sort_unstable();
        assert_eq!(
            owned,
            (0..n_blocks as u32).collect::<Vec<_>>(),
            "seed {seed}: blocks lost or duplicated"
        );
        for ranks in &a {
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "seed {seed}: output not sorted");
        }
        // greedy certificate: blocks are placed heaviest-first, so the
        // last block placed on rank r is its lightest; when it was
        // placed, r's projected completion was minimal over all ranks,
        // whose loads could only have grown since:
        //   load_r * rate_r <= (load_q + wlast_r) * rate_q   for all q
        let load: Vec<u64> =
            a.iter().map(|ids| ids.iter().map(|&b| blocks[b as usize].1).sum()).collect();
        for r in 0..n_ranks {
            let Some(wlast) = a[r].iter().map(|&b| blocks[b as usize].1).min() else {
                continue;
            };
            for q in 0..n_ranks {
                assert!(
                    load[r] * rates[r] <= (load[q] + wlast) * rates[q],
                    "seed {seed}: rank {r} completion {} not justified vs rank {q} \
                     (loads {load:?}, rates {rates:?})",
                    load[r] * rates[r]
                );
            }
        }
    }
}

/// Block ownership has one authority, `membership::owners`: for any
/// committed assignment, active prefix, scripted-dead rank and weights,
/// every block is owned exactly once, only by a live rank inside the
/// active prefix; survivors keep every block the committed plan gave
/// them; and the answer depends on nothing but those inputs, so every
/// call site (packer, renderer, checkpoint committer, frame assembler)
/// gets the same one.
#[test]
fn ownership_is_exact_live_only_and_call_site_independent() {
    use quakeviz::pipeline::control::{assign_capacity, EpochState};
    use quakeviz::pipeline::membership::owners;
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(0x0B0E ^ seed);
        let n_blocks = 1 + rng.next_below(96) as usize;
        let n_ranks = 2 + rng.next_below(7) as usize;
        let active = 2 + rng.next_below(n_ranks as u64 - 1) as usize;
        let weights: Vec<u64> = (0..n_blocks).map(|_| 1 + rng.next_below(64)).collect();
        let blocks: Vec<(u32, u64)> =
            weights.iter().enumerate().map(|(b, &w)| (b as u32, w)).collect();
        let rates: Vec<u64> = (0..active).map(|_| 1 << rng.next_below(5)).collect();
        let mut committed = assign_capacity(&blocks, &rates);
        committed.resize(n_ranks, Vec::new());
        // any rank of the world may be scripted dead — also a parked one
        let dead = (rng.next_below(4) > 0).then(|| rng.next_below(n_ranks as u64) as usize);
        let state = EpochState::with_active(committed.clone(), active, 1);
        let got = owners(&state, dead, &weights);

        let ranks: Vec<usize> = got.iter().map(|&(r, _)| r).collect();
        let live: Vec<usize> = (0..active).filter(|&r| Some(r) != dead).collect();
        assert_eq!(ranks, live, "seed {seed}: owners must be exactly the live active ranks");
        let mut owned: Vec<u32> = got.iter().flat_map(|(_, b)| b.iter().copied()).collect();
        owned.sort_unstable();
        assert_eq!(
            owned,
            (0..n_blocks as u32).collect::<Vec<_>>(),
            "seed {seed}: blocks lost or owned twice (dead {dead:?})"
        );
        let rerouted = dead.is_some_and(|d| !committed[d].is_empty());
        for (r, mine) in &got {
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "seed {seed}: rank {r} not sorted");
            assert!(
                committed[*r].iter().all(|b| mine.binary_search(b).is_ok()),
                "seed {seed}: survivor {r} lost a committed block"
            );
            if !rerouted {
                assert_eq!(
                    mine, &committed[*r],
                    "seed {seed}: nothing to reroute, rank {r} changed"
                );
            }
        }
        // a second caller, whose state differs only in what ownership
        // must not read, gets the identical answer
        let other = EpochState { epoch: 7 + seed, input_width: 3, ..state.clone() };
        assert_eq!(got, owners(&other, dead, &weights), "seed {seed}: call-site dependent");
    }
}

// --- block-cache LRU ----------------------------------------------------

/// The block cache against a shadow model: for any interleaving of
/// inserts and lookups, the resident byte total never exceeds capacity,
/// hits and misses match the shadow exactly (served data bit-identical),
/// and every eviction carries its recency certificate — the victims the
/// cache reports are precisely the shadow's least-recently-used entries,
/// in LRU order.
#[test]
fn block_cache_lru_matches_shadow_model() {
    use quakeviz::pipeline::{BlockCache, BlockKey};
    use std::sync::Arc;

    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(0xCAC4E ^ seed);
        let capacity = (1 + rng.next_below(40)) * 96; // bytes; blocks are 12 B/node
        let cache = BlockCache::new(capacity);
        // shadow: recency-ordered (key, bytes), front = least recent
        let mut shadow: Vec<(BlockKey, u64)> = Vec::new();
        let blocks: Vec<Arc<Vec<[f32; 3]>>> = (0..12)
            .map(|_| {
                let n = 1 + rng.next_below(24) as usize;
                Arc::new((0..n).map(|_| [rng.next_f32(), rng.next_f32(), rng.next_f32()]).collect())
            })
            .collect();
        let key_of = |i: u64| BlockKey { step: (i % 6) as u32, block: (i / 6) as u32, level: 0 };
        for op in 0..400u64 {
            let i = rng.next_below(12);
            let key = key_of(i);
            if rng.next_below(2) == 0 {
                // lookup: hit iff the shadow holds the key; a hit renews
                // recency and returns the exact bytes inserted
                let got = cache.get(key);
                match shadow.iter().position(|&(k, _)| k == key) {
                    Some(pos) => {
                        let data = got.unwrap_or_else(|| {
                            panic!("seed {seed} op {op}: shadow-resident key missed")
                        });
                        assert_eq!(*data, *blocks[i as usize], "seed {seed} op {op}: data mutated");
                        let e = shadow.remove(pos);
                        shadow.push(e);
                    }
                    None => assert!(got.is_none(), "seed {seed} op {op}: phantom hit"),
                }
            } else {
                let data = Arc::clone(&blocks[i as usize]);
                let bytes = (data.len() * 12) as u64;
                let evicted = cache.insert(key, data);
                if bytes > capacity {
                    assert!(evicted.is_empty(), "seed {seed} op {op}: oversized entry evicted");
                } else {
                    if let Some(pos) = shadow.iter().position(|&(k, _)| k == key) {
                        shadow.remove(pos);
                    }
                    shadow.push((key, bytes));
                    let mut want = Vec::new();
                    while shadow.iter().map(|&(_, b)| b).sum::<u64>() > capacity {
                        want.push(shadow.remove(0).0);
                    }
                    assert_eq!(
                        evicted, want,
                        "seed {seed} op {op}: eviction order breaks the recency certificate"
                    );
                }
            }
            assert!(cache.bytes() <= capacity, "seed {seed} op {op}: capacity bound violated");
            assert_eq!(cache.len(), shadow.len(), "seed {seed} op {op}: entry count diverged");
            assert_eq!(
                cache.bytes(),
                shadow.iter().map(|&(_, b)| b).sum::<u64>(),
                "seed {seed} op {op}: byte accounting diverged"
            );
        }
    }
}

// --- stripe -> OST mapping ----------------------------------------------

/// The sharded-parfs layout invariants for random extents over random
/// topologies: `split_extents` assigns every requested byte to exactly
/// one OST (no loss, no duplication, each byte on the OST its stripe
/// round-robins to), and a contiguous whole-file read balances round-
/// robin — per-OST stripe counts differ by at most one.
#[test]
fn stripe_to_ost_mapping_is_exact_and_round_robin_balanced() {
    use quakeviz::parfs::ShardModel;

    for seed in 0..60u64 {
        let mut rng = SplitMix64::new(0x0057 ^ seed);
        let n_osts = 1 + rng.next_below(8) as usize;
        let stripe = 16 + rng.next_below(240);
        let m = ShardModel { n_osts, ost_seek: 0.0, ost_bandwidth: 1e6 };
        let file_len = stripe * (1 + rng.next_below(40));
        let extents: Vec<(u64, u64)> = (0..1 + rng.next_below(6))
            .map(|_| {
                let off = rng.next_below(file_len);
                (off, 1 + rng.next_below(file_len - off))
            })
            .collect();
        let per_ost = m.split_extents(&extents, stripe);
        assert_eq!(per_ost.len(), n_osts, "seed {seed}: one bucket per OST");
        let mut covered: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (o, sub) in per_ost.iter().enumerate() {
            for &(off, len) in sub {
                assert!(len > 0, "seed {seed}: empty sub-extent emitted");
                assert_eq!(
                    off / stripe,
                    (off + len - 1) / stripe,
                    "seed {seed}: sub-extent crosses a stripe boundary"
                );
                for b in off..off + len {
                    *covered.entry(b).or_default() += 1;
                    assert_eq!(
                        m.ost_of_offset(b, stripe),
                        o,
                        "seed {seed}: byte {b} landed on the wrong OST"
                    );
                }
            }
        }
        for &(off, len) in &extents {
            for b in off..off + len {
                assert!(
                    covered.get(&b).copied().unwrap_or(0) >= 1,
                    "seed {seed}: byte {b} lost by the split"
                );
            }
        }
        for (&b, &n) in &covered {
            let requested = extents.iter().filter(|&&(o, l)| b >= o && b < o + l).count() as u32;
            assert_eq!(n, requested, "seed {seed}: byte {b} covered {n}x, requested {requested}x");
        }
        // whole-file balance: stripes per OST differ by at most one
        let stripes = file_len / stripe;
        let whole = m.split_extents(&[(0, stripes * stripe)], stripe);
        let counts: Vec<usize> = whole.iter().map(Vec::len).collect();
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "seed {seed}: round-robin imbalance {counts:?} over {stripes} stripes"
        );
    }
}

// --- frame-cache key fuzz -----------------------------------------------

/// 4000 random camera/transfer-function perturbations against one frame
/// cache: identical inputs always rehash to the same key and hit their
/// own frame; inputs differing in any pixel-relevant parameter never
/// collide into serving another input's (stale) frame.
#[test]
fn frame_key_fuzz_never_serves_stale_and_always_hits_identical() {
    use quakeviz::pipeline::cache::{camera_hash, tf_hash};
    use quakeviz::pipeline::{FrameCache, FrameKey};
    use quakeviz::render::{Camera, RgbaImage, TransferFunction};
    use std::collections::HashMap;

    #[derive(Clone, PartialEq, Debug)]
    struct Inputs {
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        fov: f64,
        w: u32,
        h: u32,
        quantize: bool,
        lighting: bool,
        lic: bool,
        vmag: f32,
        points: Vec<(f32, [f32; 4])>,
    }
    impl Inputs {
        fn base() -> Inputs {
            Inputs {
                eye: Vec3 { x: 0.5, y: 0.6, z: -2.5 },
                target: Vec3 { x: 0.5, y: 0.5, z: 0.5 },
                up: Vec3 { x: 0.0, y: 1.0, z: 0.0 },
                fov: 0.7,
                w: 64,
                h: 64,
                quantize: false,
                lighting: false,
                lic: false,
                vmag: 1.0,
                points: TransferFunction::seismic().points().to_vec(),
            }
        }
        fn key(&self, step: u32) -> FrameKey {
            let cam = Camera::look_at(self.eye, self.target, self.up, self.fov, self.w, self.h);
            let tf = TransferFunction::new(self.points.clone());
            FrameKey {
                step,
                level: 0,
                camera_hash: camera_hash(&cam),
                tf_hash: tf_hash(&tf, self.quantize, self.lighting, self.lic, self.vmag),
            }
        }
    }
    /// Perturb one pixel-relevant parameter by a random amount (possibly
    /// tiny — a single ulp-scale nudge must change the key too).
    fn perturb(rng: &mut SplitMix64, p: &mut Inputs) {
        let tiny = 1e-9 * (1.0 + rng.next_f64());
        match rng.next_below(12) {
            0 => p.eye.x += tiny,
            1 => p.eye.y -= tiny,
            2 => p.target.z += tiny,
            3 => p.up.x += tiny * 1e-3, // stays far from parallel
            4 => p.fov += tiny,
            5 => p.w += 1 + rng.next_below(64) as u32,
            6 => p.h += 1 + rng.next_below(64) as u32,
            7 => p.quantize = !p.quantize,
            8 => p.lighting = !p.lighting,
            9 => p.lic = !p.lic,
            10 => p.vmag += tiny as f32 + f32::EPSILON,
            _ => {
                let i = rng.next_below(p.points.len() as u64) as usize;
                p.points[i].1[3] = (p.points[i].1[3] + 1e-6).min(1.0);
            }
        }
    }

    let mut rng = SplitMix64::new(0xF4A3E);
    let cache = FrameCache::new(8192);
    // every distinct key maps to the inputs that produced it and the id
    // of the frame stored under it
    let mut by_key: HashMap<FrameKey, (Inputs, u32)> = HashMap::new();
    let mut history: Vec<Inputs> = vec![Inputs::base()];
    for trial in 0..4000u32 {
        let inputs = if rng.next_below(8) == 0 {
            // identical-input leg: replay an earlier draw verbatim
            history[rng.next_below(history.len() as u64) as usize].clone()
        } else {
            // random walk: perturb 1..=3 parameters off a previous draw
            let mut p = history[rng.next_below(history.len() as u64) as usize].clone();
            for _ in 0..1 + rng.next_below(3) {
                perturb(&mut rng, &mut p);
            }
            p
        };
        let key = inputs.key(trial % 7);
        assert_eq!(key, inputs.key(trial % 7), "trial {trial}: hashing not deterministic");
        match by_key.get(&key) {
            Some((prior, id)) => {
                // key collision: only legal for byte-identical inputs —
                // anything else would serve a stale frame
                assert_eq!(
                    prior, &inputs,
                    "trial {trial}: distinct inputs collided onto one frame key"
                );
                let img = cache.get(key).expect("trial {trial}: identical inputs must hit");
                assert_eq!(
                    img.pixels()[0][0].to_bits(),
                    f32::from_bits(*id).to_bits(),
                    "trial {trial}: served a different input's frame"
                );
            }
            None => {
                assert!(cache.get(key).is_none(), "trial {trial}: hit before any insert");
                // frame content tagged with the trial id, so a stale
                // serve is detectable in the pixels
                let mut img = RgbaImage::new(4, 4);
                img.pixels_mut()[0][0] = f32::from_bits(trial);
                cache.insert(key, &img);
                by_key.insert(key, (inputs.clone(), trial));
            }
        }
        history.push(inputs);
    }
    assert!(by_key.len() > 3000, "fuzz degenerated: only {} distinct keys", by_key.len());
}
