//! The view-dependent compositing schedule (SLIC's core idea).
//!
//! Before compositing, every rank learns the screen rectangle, owner and
//! visibility rank of **every** fragment in the frame (one small
//! allgather — the paper reports the schedule precompute at "generally
//! under 10 milliseconds"). From that shared knowledge each rank derives,
//! without further communication, the full schedule:
//!
//! * the scanlines are cut into elementary [`Run`]s wherever the set of
//!   covering fragments changes;
//! * a run covered by a single fragment needs **no compositing** — its
//!   owner ships it straight to the collector;
//! * a run covered by `k > 1` fragments is assigned to one *compositor*
//!   (the owner of the front-most fragment), so exactly `k − 1` pixel
//!   spans cross the network for it;
//! * all spans travelling between one (source, destination) pair are
//!   batched into a single message.

use quakeviz_render::{Fragment, ScreenRect};
use quakeviz_rt::Comm;

/// Globally shared description of one frame's fragments.
#[derive(Debug, Clone)]
pub struct FrameInfo {
    /// `(block id, screen rect, owner rank)` for every fragment produced
    /// this frame, sorted front-to-back.
    pub frags: Vec<(u32, ScreenRect, u32)>,
    pub width: u32,
    pub height: u32,
}

/// An elementary rectangular run: a screen rect over which the set of
/// covering fragments is constant. A y-band between consecutive fragment
/// top/bottom edges shares one line structure, so each run spans its
/// whole band, which shrinks the schedule and the per-span bookkeeping by
/// roughly the rect height. Its layers live in the [`Schedule`]'s flat
/// list: read them with [`Schedule::layers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub y0: u32,
    pub y1: u32,
    pub x0: u32,
    pub x1: u32,
    /// `[first, end)` of the run's entries in [`Schedule`]'s layer list.
    first: u32,
    end: u32,
}

impl Run {
    /// Pixel count of the run.
    #[inline]
    pub fn len(&self) -> usize {
        ((self.x1 - self.x0) * (self.y1 - self.y0)) as usize
    }

    #[inline]
    pub fn width(&self) -> usize {
        (self.x1 - self.x0) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }
}

/// A frame's runs in schedule order — band by band from the top, left to
/// right within a band — with every run's layers (indices into
/// [`FrameInfo::frags`], front to back) in one flat list.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    runs: Vec<Run>,
    layers: Vec<u32>,
}

impl Schedule {
    /// The runs, in schedule order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// `run`'s covering fragments, front to back (never empty).
    #[inline]
    pub fn layers(&self, run: &Run) -> &[u32] {
        &self.layers[run.first as usize..run.end as usize]
    }

    /// Each run with its layers, in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = (&Run, &[u32])> + '_ {
        self.runs.iter().map(|run| (run, self.layers(run)))
    }
}

impl FrameInfo {
    /// Collective: allgather the local fragments' rectangles and order
    /// them by `order` (front-to-back block ids).
    pub fn exchange(
        comm: &Comm,
        local: &[Fragment],
        order: &[u32],
        width: u32,
        height: u32,
    ) -> FrameInfo {
        let mine: Vec<(u32, ScreenRect)> = local.iter().map(|f| (f.block, f.rect)).collect();
        // exact wire size: Vec payloads are invisible to size_of, so charge
        // the entry count explicitly
        let mine_bytes = (mine.len() * std::mem::size_of::<(u32, ScreenRect)>()) as u64;
        let all: Vec<Vec<(u32, ScreenRect)>> = comm.allgather_with_size(mine, mine_bytes);
        let mut frags: Vec<(u32, ScreenRect, u32)> = all
            .into_iter()
            .enumerate()
            .flat_map(|(rank, v)| v.into_iter().map(move |(b, r)| (b, r, rank as u32)))
            .collect();
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        frags.sort_by_key(|&(b, _, _)| pos.get(&b).copied().unwrap_or(usize::MAX));
        FrameInfo { frags, width, height }
    }

    /// Build directly (tests, sequential harnesses).
    pub fn from_sorted(frags: Vec<(u32, ScreenRect, u32)>, width: u32, height: u32) -> FrameInfo {
        FrameInfo { frags, width, height }
    }

    /// Index of the fragment with block id `b`.
    pub fn index_of(&self, b: u32) -> Option<usize> {
        self.frags.iter().position(|&(fb, _, _)| fb == b)
    }

    /// The frame's schedule: every run with its layers.
    ///
    /// Coverage only changes at fragment-rect top/bottom edges, so whole
    /// y-bands share one line structure. Each band is one x-sweep over
    /// the sorted x-edges of its live fragments: a fragment's bit flips
    /// at both its edges, the set bits — read in ascending fragment
    /// index, which is front to back — are the layers of the gap up to
    /// the next edge, and a gap with none is not covered. A fragment of
    /// zero width still cuts the line. Cost O(bands · (F + E log E) +
    /// Σ layers) for F fragments and E live edges per band.
    pub fn runs(&self) -> Schedule {
        let mut ys: Vec<u32> = self.frags.iter().flat_map(|&(_, r, _)| [r.y0, r.y1]).collect();
        ys.push(self.height);
        ys.sort_unstable();
        ys.dedup();
        let mut sched = Schedule::default();
        // (x, fragment index whose bit flips there, or CUT)
        const CUT: u32 = u32::MAX;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut active = vec![0u64; self.frags.len().div_ceil(64)];
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1].min(self.height));
            if y1 <= y0 {
                continue;
            }
            edges.clear();
            for (i, &(_, r, _)) in self.frags.iter().enumerate() {
                if y0 < r.y0 || y0 >= r.y1 {
                    continue;
                }
                let flip = if r.x0 < r.x1 { i as u32 } else { CUT };
                edges.extend([(r.x0, flip), (r.x1, flip)]);
            }
            edges.sort_unstable_by_key(|&(x, _)| x);
            let mut depth = 0usize;
            let mut k = 0;
            while k < edges.len() {
                let x0 = edges[k].0;
                while k < edges.len() && edges[k].0 == x0 {
                    let i = edges[k].1;
                    if i != CUT {
                        let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
                        active[word] ^= bit;
                        if active[word] & bit != 0 {
                            depth += 1;
                        } else {
                            depth -= 1;
                        }
                    }
                    k += 1;
                }
                // a live fragment's right edge is still ahead, so an
                // open gap always has a next edge
                if depth == 0 {
                    continue;
                }
                let first = sched.layers.len() as u32;
                for (wi, &bits) in active.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        sched.layers.push((wi * 64) as u32 + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
                let end = sched.layers.len() as u32;
                sched.runs.push(Run { y0, y1, x0, x1: edges[k].0, first, end });
            }
        }
        sched
    }

    /// The compositor rank of a run with `layers`: owner of its
    /// front-most fragment.
    pub fn compositor_of(&self, layers: &[u32]) -> u32 {
        self.frags[layers[0] as usize].2
    }

    /// Project the schedule onto a surviving subset of ranks (render-side
    /// failover): fragments owned by dead ranks are dropped and the
    /// owners of the rest are renumbered to the compact `live` indexing —
    /// exactly the [`FrameInfo`] a re-formed communicator of the
    /// survivors would derive from its own allgather. Because the
    /// schedule is a pure function of this structure, recomputing it over
    /// any surviving subset needs no communication.
    ///
    /// `live` lists the surviving original rank ids in ascending order.
    pub fn restrict_to(&self, live: &[u32]) -> FrameInfo {
        let frags = self
            .frags
            .iter()
            .filter_map(|&(b, r, owner)| {
                live.iter().position(|&l| l == owner).map(|i| (b, r, i as u32))
            })
            .collect();
        FrameInfo { frags, width: self.width, height: self.height }
    }

    /// The pixels each (source → destination) pair carries in each of
    /// SLIC's two rounds, over `ranks` ranks; a pair with traffic sends
    /// one message in that round. A run's finisher — its compositor, or
    /// a singleton's owner — owns its front layer.
    pub(crate) fn slic_traffic(
        &self,
        sched: &Schedule,
        ranks: usize,
        collector: usize,
    ) -> SlicTraffic {
        let owner = |fi: u32| self.frags[fi as usize].2 as usize;
        let mut t =
            SlicTraffic { to_comp: vec![vec![0; ranks]; ranks], to_collector: vec![0; ranks] };
        for (run, layers) in sched.iter() {
            let comp = owner(layers[0]);
            for &fi in &layers[1..] {
                if owner(fi) != comp {
                    t.to_comp[owner(fi)][comp] += run.len();
                }
            }
            if comp != collector {
                t.to_collector[comp] += run.len();
            }
        }
        t
    }

    /// Predicted message count for SLIC with `collector`: one per
    /// (source → destination) pair with traffic in each round, so a rank
    /// that feeds the collector's compositing and also ships it finished
    /// runs sends two.
    pub fn slic_message_count(&self, ranks: usize, collector: u32) -> u64 {
        let t = self.slic_traffic(&self.runs(), ranks, collector as usize);
        t.to_comp.iter().flatten().chain(&t.to_collector).filter(|&&px| px > 0).count() as u64
    }
}

/// The pixels shipped per (source → destination) pair in SLIC's two
/// message rounds.
pub(crate) struct SlicTraffic {
    /// `to_comp[src][dst]`: layer pixels `src` ships to compositor `dst`.
    pub to_comp: Vec<Vec<usize>>,
    /// `to_collector[src]`: finished-run pixels `src` ships to the
    /// collector.
    pub to_collector: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_rt::rng::SplitMix64;

    fn fi(frags: Vec<(u32, ScreenRect, u32)>) -> FrameInfo {
        FrameInfo::from_sorted(frags, 16, 4)
    }

    /// `(y0, y1, x0, x1, layers)` of every run, in schedule order.
    type Flat = Vec<(u32, u32, u32, u32, Vec<u32>)>;

    fn flat(s: &Schedule) -> Flat {
        s.iter().map(|(r, l)| (r.y0, r.y1, r.x0, r.x1, l.to_vec())).collect()
    }

    /// The per-window construction the sweep replaced: for each band,
    /// cut its first line at every live x-edge and re-filter the live
    /// fragments for each window. Kept as the sweep's reference.
    fn reference_runs(info: &FrameInfo) -> Flat {
        let mut ys: Vec<u32> = info.frags.iter().flat_map(|&(_, r, _)| [r.y0, r.y1]).collect();
        ys.push(info.height);
        ys.sort_unstable();
        ys.dedup();
        let mut out = Vec::new();
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1].min(info.height));
            if y1 <= y0 {
                continue;
            }
            out.extend(
                reference_runs_of_line(info, y0).into_iter().map(|(x0, x1, c)| (y0, y1, x0, x1, c)),
            );
        }
        out
    }

    /// `(x0, x1, layers)` of scanline `y`'s runs.
    fn reference_runs_of_line(info: &FrameInfo, y: u32) -> Vec<(u32, u32, Vec<u32>)> {
        let live: Vec<usize> = (0..info.frags.len())
            .filter(|&i| y >= info.frags[i].1.y0 && y < info.frags[i].1.y1)
            .collect();
        let mut xs: Vec<u32> =
            live.iter().flat_map(|&i| [info.frags[i].1.x0, info.frags[i].1.x1]).collect();
        xs.sort_unstable();
        xs.dedup();
        let mut runs = Vec::new();
        for w in xs.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            let cover: Vec<u32> = live
                .iter()
                .filter(|&&i| x0 >= info.frags[i].1.x0 && x1 <= info.frags[i].1.x1)
                .map(|&i| i as u32)
                .collect();
            if !cover.is_empty() {
                runs.push((x0, x1, cover));
            }
        }
        runs
    }

    /// A random rect on a `w × h` frame: sometimes zero-width,
    /// zero-height or reaching past the frame edge.
    fn random_rect(rng: &mut SplitMix64, w: u32, h: u32) -> ScreenRect {
        let x0 = rng.next_below(w as u64) as u32;
        let y0 = rng.next_below(h as u64) as u32;
        let (mut x1, mut y1) = (
            x0 + 1 + rng.next_below((w - x0) as u64) as u32,
            y0 + 1 + rng.next_below((h - y0) as u64) as u32,
        );
        match rng.next_below(10) {
            0 => x1 = x0,
            1 => y1 = y0,
            2 => x1 += 1 + rng.next_below(8) as u32,
            3 => y1 += 1 + rng.next_below(8) as u32,
            _ => {}
        }
        ScreenRect::new(x0, y0, x1, y1)
    }

    #[test]
    fn sweep_equals_the_per_window_reference() {
        let mut max_depth = 0;
        for trial in 0..3000u64 {
            let mut rng = SplitMix64::new(0x51C ^ trial << 12);
            let (w, h) = (1 + rng.next_below(64) as u32, 1 + rng.next_below(64) as u32);
            let n = match trial % 6 {
                0 => 0,
                1 => 1,
                2 => 64,
                _ => rng.next_below(65) as usize,
            };
            let mut frags: Vec<(u32, ScreenRect, u32)> = Vec::with_capacity(n);
            for b in 0..n as u32 {
                let rect = match rng.next_below(8) {
                    // identical to an earlier fragment
                    0 if !frags.is_empty() => frags[rng.next_below(frags.len() as u64) as usize].1,
                    // the whole frame: layouts pile up 16 deep and more
                    1 => ScreenRect::new(0, 0, w, h),
                    _ => random_rect(&mut rng, w, h),
                };
                frags.push((b, rect, rng.next_below(4) as u32));
            }
            let info = FrameInfo::from_sorted(frags, w, h);
            let got = flat(&info.runs());
            assert_eq!(got, reference_runs(&info), "trial {trial}");
            max_depth = got.iter().map(|r| r.4.len()).max().unwrap_or(0).max(max_depth);
        }
        assert!(max_depth >= 16, "layouts only reached depth {max_depth}");
    }

    #[test]
    fn no_fragments_no_runs() {
        let f = fi(vec![]);
        assert!(f.runs().runs().is_empty());
    }

    #[test]
    fn single_fragment_merges_to_one_rect_run() {
        let f = fi(vec![(7, ScreenRect::new(2, 1, 10, 3), 0)]);
        let s = f.runs();
        assert_eq!(s.runs().len(), 1); // lines 1 and 2 share one band
        assert_eq!(flat(&s), vec![(1, 3, 2, 10, vec![0])]);
        assert_eq!(s.runs()[0].len(), 16);
    }

    #[test]
    fn overlap_splits_into_three_runs() {
        // two fragments overlapping in the middle of line 0
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (1, ScreenRect::new(4, 0, 12, 1), 1)]);
        assert_eq!(
            flat(&f.runs()),
            vec![(0, 1, 0, 4, vec![0]), (0, 1, 4, 8, vec![0, 1]), (0, 1, 8, 12, vec![1])]
        );
    }

    #[test]
    fn zero_width_fragment_cuts_the_line() {
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (1, ScreenRect::new(3, 0, 3, 1), 1)]);
        assert_eq!(flat(&f.runs()), vec![(0, 1, 0, 3, vec![0]), (0, 1, 3, 8, vec![0])]);
    }

    #[test]
    fn vertical_merge_respects_fragment_edges() {
        // two stacked fragments: runs must break at the horizontal seam
        let f = fi(vec![(0, ScreenRect::new(0, 0, 4, 2), 0), (1, ScreenRect::new(0, 2, 4, 4), 1)]);
        assert_eq!(flat(&f.runs()), vec![(0, 2, 0, 4, vec![0]), (2, 4, 0, 4, vec![1])]);
    }

    #[test]
    fn compositor_is_front_owner() {
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 3), (1, ScreenRect::new(0, 0, 8, 1), 5)]);
        let s = f.runs();
        assert_eq!(s.runs().len(), 1);
        assert_eq!(f.compositor_of(s.layers(&s.runs()[0])), 3);
    }

    #[test]
    fn order_respected_in_runs() {
        // deliberately list back fragment first in input: from_sorted
        // trusts caller order, so front-to-back must be the given order
        let f = fi(vec![(9, ScreenRect::new(0, 0, 4, 1), 1), (2, ScreenRect::new(0, 0, 4, 1), 0)]);
        let s = f.runs();
        let layers = s.layers(&s.runs()[0]);
        assert_eq!(layers, [0, 1]);
        assert_eq!(f.frags[layers[0] as usize].0, 9);
    }

    #[test]
    fn slic_message_count_zero_when_alone() {
        // one rank owns everything and is the collector
        let f = fi(vec![(0, ScreenRect::new(0, 0, 4, 2), 0), (1, ScreenRect::new(2, 0, 6, 2), 0)]);
        assert_eq!(f.slic_message_count(1, 0), 0);
    }

    #[test]
    fn slic_message_count_pairs() {
        // rank1's fragment overlaps rank0's; rank0 is front, collector 0:
        // rank1 -> rank0 (composite traffic) is the only pair
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (1, ScreenRect::new(0, 0, 8, 1), 1)]);
        assert_eq!(f.slic_message_count(2, 0), 1);
        // with collector 1 instead: rank1->rank0 and rank0->rank1
        assert_eq!(f.slic_message_count(2, 1), 2);
    }

    #[test]
    fn slic_message_count_is_per_round() {
        // rank 1 feeds rank 0's compositing of x∈[0,4) and ships its own
        // singleton [4,8) to collector 0: one message in each round
        let f = fi(vec![(0, ScreenRect::new(0, 0, 4, 1), 0), (1, ScreenRect::new(0, 0, 8, 1), 1)]);
        assert_eq!(f.slic_message_count(2, 0), 2);
    }

    #[test]
    fn restrict_to_drops_dead_owners_and_renumbers() {
        let f = fi(vec![
            (0, ScreenRect::new(0, 0, 8, 1), 0),
            (1, ScreenRect::new(4, 0, 12, 1), 1),
            (2, ScreenRect::new(0, 1, 8, 2), 2),
        ]);
        // rank 1 died: its fragment disappears, rank 2 becomes live idx 1
        let g = f.restrict_to(&[0, 2]);
        assert_eq!(
            g.frags,
            vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (2, ScreenRect::new(0, 1, 8, 2), 1),]
        );
        assert_eq!((g.width, g.height), (f.width, f.height));
        // full subset is the identity
        assert_eq!(f.restrict_to(&[0, 1, 2]).frags, f.frags);
    }

    #[test]
    fn runs_cover_exactly_fragment_pixels() {
        let rects = vec![
            (0u32, ScreenRect::new(0, 0, 5, 3), 0u32),
            (1, ScreenRect::new(3, 1, 9, 4), 1),
            (2, ScreenRect::new(8, 0, 12, 2), 0),
        ];
        let f = fi(rects.clone());
        // total run pixels == area of union (each pixel in exactly 1 run)
        let mut covered = std::collections::HashSet::new();
        for r in &rects {
            for y in r.1.y0..r.1.y1 {
                for x in r.1.x0..r.1.x1 {
                    covered.insert((x, y));
                }
            }
        }
        let run_pixels: usize = f.runs().runs().iter().map(|r| r.len()).sum();
        assert_eq!(run_pixels, covered.len());
    }
}
