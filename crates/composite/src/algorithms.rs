//! The three sort-last compositing algorithms.
//!
//! All are collective over a communicator of rendering processors; every
//! rank passes its local fragments plus the globally agreed [`FrameInfo`]
//! (same on all ranks), and the `collector` rank receives the finished
//! frame. Identical final images across algorithms — and against the
//! sequential reference — is the correctness contract.

use crate::rle::{rle_decode, rle_decode_span, rle_encode, rle_encode_rows};
use crate::schedule::{FrameInfo, Run};
use quakeviz_render::image::over;
use quakeviz_render::{Fragment, Rgba, RgbaImage};
use quakeviz_rt::{obs, Comm};

const TAG_DS_SPANS: u64 = 0xc0de_0001;
const TAG_DS_STRIP: u64 = 0xc0de_0002;
const TAG_SLIC_COMP: u64 = 0xc0de_0003;
const TAG_SLIC_OUT: u64 = 0xc0de_0004;
const TAG_BSWAP: u64 = 0xc0de_0005;
const TAG_BSWAP_GATHER: u64 = 0xc0de_0006;

/// Options shared by the algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompositeOptions {
    /// RLE-compress pixel spans before sending (§7's ~50% saving).
    pub compress: bool,
}

/// Result at each rank; `image` is `Some` only at the collector.
#[derive(Debug, Clone)]
pub struct CompositeResult {
    pub image: Option<RgbaImage>,
}

/// A direct-send pixel span annotated with its source fragment (for
/// ordering).
#[derive(Debug, Clone)]
struct Span {
    /// Index into `FrameInfo::frags`.
    frag: u32,
    y: u32,
    x0: u32,
    data: SpanData,
}

#[derive(Debug, Clone)]
enum SpanData {
    Raw(Vec<Rgba>),
    Rle(Vec<u8>),
}

impl SpanData {
    fn encode(pixels: Vec<Rgba>, compress: bool) -> SpanData {
        if compress {
            SpanData::Rle(rle_encode(&pixels))
        } else {
            SpanData::Raw(pixels)
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            SpanData::Raw(p) => p.len() as u64 * 16,
            SpanData::Rle(b) => b.len() as u64,
        }
    }

    fn decode(self) -> Vec<Rgba> {
        match self {
            SpanData::Raw(p) => p,
            SpanData::Rle(b) => rle_decode(&b),
        }
    }
}

/// Sequential over-operator oracle: composite `frags` into a fresh
/// `width × height` frame in the visibility order given by `order`
/// (block ids, front to back). This is the single-processor reference
/// every parallel algorithm — including SLIC rescheduled over a
/// surviving rank subset — must match bit-for-bit.
pub fn sequential_reference(
    frags: &[Fragment],
    order: &[u32],
    width: u32,
    height: u32,
) -> RgbaImage {
    let pos = |b: u32| order.iter().position(|&o| o == b).unwrap_or(usize::MAX);
    let mut sorted: Vec<&Fragment> = frags.iter().collect();
    sorted.sort_by_key(|f| pos(f.block));
    quakeviz_render::composite_fragments(&sorted, width, height)
}

/// Slice `[x0, x1)` of row `y` out of a fragment.
fn frag_span(f: &Fragment, y: u32, x0: u32, x1: u32) -> Vec<Rgba> {
    debug_assert!(y >= f.rect.y0 && y < f.rect.y1);
    debug_assert!(x0 >= f.rect.x0 && x1 <= f.rect.x1);
    let w = f.rect.width() as usize;
    let row = (y - f.rect.y0) as usize * w;
    let a = row + (x0 - f.rect.x0) as usize;
    let b = row + (x1 - f.rect.x0) as usize;
    f.pixels[a..b].to_vec()
}

fn send_batch(comm: &Comm, dst: usize, tag: u64, batch: Vec<Span>) {
    let bytes: u64 = batch.iter().map(|s| s.data.bytes()).sum();
    comm.send_with_size(dst, tag, batch, bytes);
}

// ---------------------------------------------------------------------
// direct send
// ---------------------------------------------------------------------

/// Classic direct-send compositing: the image is split into one row-strip
/// per rank; every fragment piece is shipped to the strip owner, which
/// composites its strip in visibility order and forwards it to the
/// collector. Worst case `n(n−1)` span messages (paper §4.4).
pub fn direct_send(
    comm: &Comm,
    local: &[Fragment],
    info: &FrameInfo,
    collector: usize,
    opts: CompositeOptions,
) -> CompositeResult {
    let n = comm.size();
    let me = comm.rank();
    let h = info.height;
    let strip_of = |y: u32| ((y as usize * n) / h as usize).min(n - 1);
    let strip_rows = |r: usize| {
        let y0 = (r * h as usize / n) as u32;
        let y1 = ((r + 1) * h as usize / n) as u32;
        (y0, y1)
    };

    // which (src, strip) pairs carry traffic — identical on all ranks
    let mut pair_has_traffic = vec![vec![false; n]; n];
    for &(_, rect, owner) in &info.frags {
        let s0 = strip_of(rect.y0);
        let s1 = strip_of(rect.y1.saturating_sub(1).max(rect.y0));
        for s in s0..=s1 {
            pair_has_traffic[owner as usize][s] = true;
        }
    }

    // outgoing spans, batched per destination strip owner
    let mut outgoing: Vec<Vec<Span>> = vec![Vec::new(); n];
    for f in local {
        let fi = info.index_of(f.block).expect("fragment missing from FrameInfo") as u32;
        for y in f.rect.y0..f.rect.y1 {
            let s = strip_of(y);
            outgoing[s].push(Span {
                frag: fi,
                y,
                x0: f.rect.x0,
                data: SpanData::encode(frag_span(f, y, f.rect.x0, f.rect.x1), opts.compress),
            });
        }
    }
    for (dst, batch) in outgoing.into_iter().enumerate() {
        if dst == me {
            continue; // local spans handled below without messaging
        }
        if pair_has_traffic[me][dst] {
            send_batch(comm, dst, TAG_DS_SPANS, batch);
        }
    }

    // receive spans for my strip from every rank the schedule names
    let mut spans: Vec<Span> = Vec::new();
    for f in local {
        let fi = info.index_of(f.block).unwrap() as u32;
        for y in f.rect.y0..f.rect.y1 {
            if strip_of(y) == me {
                spans.push(Span {
                    frag: fi,
                    y,
                    x0: f.rect.x0,
                    data: SpanData::Raw(frag_span(f, y, f.rect.x0, f.rect.x1)),
                });
            }
        }
    }
    let expected = (0..n).filter(|&src| src != me && pair_has_traffic[src][me]).count();
    for _ in 0..expected {
        let (_, batch): (usize, Vec<Span>) = comm.recv_any(TAG_DS_SPANS);
        spans.extend(batch);
    }

    // composite my strip in visibility order
    spans.sort_by_key(|s| (s.y, s.frag));
    let (y0, y1) = strip_rows(me);
    let strip_h = y1.saturating_sub(y0);
    let mut strip = RgbaImage::new(info.width, strip_h.max(1));
    for s in spans {
        let pixels = s.data.decode();
        let ry = s.y - y0;
        for (i, &p) in pixels.iter().enumerate() {
            let x = s.x0 + i as u32;
            let cur = strip.get(x, ry);
            strip.set(x, ry, over(cur, p));
        }
    }

    // deliver strips to the collector
    let my_strip_busy = (0..n).any(|src| pair_has_traffic[src][me]);
    if me != collector {
        if my_strip_busy && strip_h > 0 {
            let bytes = strip.pixels().len() as u64 * 16;
            comm.send_with_size(collector, TAG_DS_STRIP, (y0, strip), bytes);
        }
        return CompositeResult { image: None };
    }
    let mut img = RgbaImage::new(info.width, info.height);
    if my_strip_busy {
        for ry in 0..strip_h {
            for x in 0..info.width {
                img.set(x, y0 + ry, strip.get(x, ry));
            }
        }
    }
    let senders = (0..n)
        .filter(|&r| r != collector)
        .filter(|&r| {
            let (sy0, sy1) = strip_rows(r);
            sy1 > sy0 && (0..n).any(|src| pair_has_traffic[src][r])
        })
        .count();
    for _ in 0..senders {
        let (_, (sy0, s)): (usize, (u32, RgbaImage)) = comm.recv_any(TAG_DS_STRIP);
        for ry in 0..s.height() {
            for x in 0..info.width {
                img.set(x, sy0 + ry, s.get(x, ry));
            }
        }
    }
    CompositeResult { image: Some(img) }
}

// ---------------------------------------------------------------------
// SLIC
// ---------------------------------------------------------------------

/// The pixels one rank sends another in one SLIC round: spans packed
/// back to back in schedule order — raw, or each span RLE-coded on its
/// own, so no record crosses a span. No keys travel: the receiver walks
/// the same schedule and reads each span back by its pixel count.
enum Batch {
    Raw(Vec<Rgba>),
    Rle(Vec<u8>),
}

impl Batch {
    /// An empty batch for `pixels` pixels of spans.
    fn new(compress: bool, pixels: usize) -> Batch {
        if compress {
            Batch::Rle(Vec::new())
        } else {
            Batch::Raw(Vec::with_capacity(pixels))
        }
    }

    /// Append one span, given as its rows.
    fn push_span<'a>(&mut self, rows: impl Iterator<Item = &'a [Rgba]>) {
        match self {
            Batch::Raw(px) => rows.for_each(|row| px.extend_from_slice(row)),
            Batch::Rle(bytes) => rle_encode_rows(bytes, rows),
        }
    }

    /// Bytes charged on the wire: 16 per raw pixel, the coded length
    /// under RLE.
    fn bytes(&self) -> u64 {
        match self {
            Batch::Raw(px) => px.len() as u64 * 16,
            Batch::Rle(bytes) => bytes.len() as u64,
        }
    }

    fn send(self, comm: &Comm, dst: usize, tag: u64) {
        let bytes = self.bytes();
        comm.send_with_size(dst, tag, self, bytes);
    }
}

/// A received [`Batch`] and the read position in it.
struct Cursor {
    batch: Batch,
    at: usize,
    /// The decoded span of an RLE batch; a raw span is read in place.
    decoded: Vec<Rgba>,
}

impl Cursor {
    /// The next `len`-pixel span, row-major.
    fn next_span(&mut self, len: usize) -> &[Rgba] {
        match &self.batch {
            Batch::Raw(px) => {
                self.at += len;
                &px[self.at - len..self.at]
            }
            Batch::Rle(bytes) => {
                self.decoded.clear();
                self.at = rle_decode_span(bytes, self.at, len, &mut self.decoded);
                &self.decoded
            }
        }
    }
}

/// Receive the `tag` batches of `senders` ranks: a cursor per source.
fn receive(comm: &Comm, tag: u64, senders: usize) -> Vec<Option<Cursor>> {
    let mut from: Vec<Option<Cursor>> = (0..comm.size()).map(|_| None).collect();
    for _ in 0..senders {
        let (src, batch): (usize, Batch) = comm.recv_any(tag);
        from[src] = Some(Cursor { batch, at: 0, decoded: Vec::new() });
    }
    from
}

/// `run`'s rows out of a fragment that covers it.
fn rows<'a>(f: &'a Fragment, run: &Run) -> impl Iterator<Item = &'a [Rgba]> {
    let w = f.rect.width() as usize;
    let a = (run.y0 - f.rect.y0) as usize * w + (run.x0 - f.rect.x0) as usize;
    let rw = run.width();
    f.pixels[a..].chunks(w).take((run.y1 - run.y0) as usize).map(move |row| &row[..rw])
}

/// Blend a finished run's rows into the frame, `over(frame, ·)`.
fn paint<'a>(img: &mut RgbaImage, run: &Run, rows: impl Iterator<Item = &'a [Rgba]>) {
    let w = img.width() as usize;
    let px = img.pixels_mut();
    for (y, row) in (run.y0..run.y1).zip(rows) {
        let a = y as usize * w + run.x0 as usize;
        for (f, p) in px[a..a + row.len()].iter_mut().zip(row) {
            *f = over(*f, *p);
        }
    }
}

/// SLIC compositing (Stompel et al. 2003): scanline runs, one compositor
/// per overlapped run, single-fragment runs bypass compositing, all spans
/// between a rank pair batched into one message.
pub fn slic(
    comm: &Comm,
    local: &[Fragment],
    info: &FrameInfo,
    collector: usize,
    opts: CompositeOptions,
) -> CompositeResult {
    let n = comm.size();
    let me = comm.rank();
    let sched = info.runs();
    let owner = |fi: u32| info.frags[fi as usize].2 as usize;
    // my fragments by their index in `info.frags`
    let mut mine: Vec<Option<&Fragment>> = vec![None; info.frags.len()];
    for f in local {
        mine[info.index_of(f.block).expect("fragment missing from FrameInfo")] = Some(f);
    }
    let my = |fi: u32| mine[fi as usize].expect("scheduled layer is not mine");

    // schedule-derived traffic matrix (identical on all ranks)
    let traffic = info.slic_traffic(&sched, n, collector);

    // phase 1: ship my layers of overlapped runs to their compositors,
    // one span per (run, layer) in schedule order
    let sp = obs::auto_span(obs::Phase::CompositeRound, 1);
    let mut to_comp: Vec<Batch> =
        traffic.to_comp[me].iter().map(|&px| Batch::new(opts.compress, px)).collect();
    for (run, layers) in sched.iter() {
        let comp = owner(layers[0]);
        if comp == me {
            continue;
        }
        for &fi in &layers[1..] {
            if owner(fi) == me {
                to_comp[comp].push_span(rows(my(fi), run));
            }
        }
    }
    for (dst, batch) in to_comp.into_iter().enumerate() {
        if traffic.to_comp[me][dst] > 0 {
            batch.send(comm, dst, TAG_SLIC_COMP);
        }
    }
    drop(sp);

    // phase 2: receive the layers of the runs I composite, one batch per
    // source
    let sp = obs::auto_span(obs::Phase::CompositeRound, 2);
    let senders = (0..n).filter(|&src| traffic.to_comp[src][me] > 0).count();
    let mut from = receive(comm, TAG_SLIC_COMP, senders);
    drop(sp);

    // phase 3: finish my runs — fold each overlapped one front to back —
    // and paint them (collector) or batch them for the collector
    let sp = obs::auto_span(obs::Phase::CompositeRound, 3);
    let mut frame = (me == collector).then(|| RgbaImage::new(info.width, info.height));
    let mut to_collector = Batch::new(opts.compress, traffic.to_collector[me]);
    let mut acc: Vec<Rgba> = Vec::new();
    // over-operator pixel blends performed by this rank (QUAKEVIZ_PROF
    // work metric — deterministic for a fixed fragment layout)
    let mut over_px = 0u64;
    for (run, layers) in sched.iter() {
        if owner(layers[0]) != me {
            continue;
        }
        if let [only] = *layers {
            // singleton: the owner ships it straight to the collector
            match &mut frame {
                Some(img) => paint(img, run, rows(my(only), run)),
                None => to_collector.push_span(rows(my(only), run)),
            }
            continue;
        }
        acc.clear();
        acc.resize(run.len(), [0.0; 4]);
        for &fi in layers {
            if owner(fi) == me {
                for (acc_row, row) in acc.chunks_exact_mut(run.width()).zip(rows(my(fi), run)) {
                    for (a, p) in acc_row.iter_mut().zip(row) {
                        *a = over(*a, *p);
                    }
                }
            } else {
                let span = from[owner(fi)].as_mut().expect("scheduled span never arrived");
                for (a, p) in acc.iter_mut().zip(span.next_span(run.len())) {
                    *a = over(*a, *p);
                }
            }
            over_px += run.len() as u64;
        }
        match &mut frame {
            Some(img) => paint(img, run, acc.chunks_exact(run.width())),
            None => to_collector.push_span(acc.chunks_exact(run.width())),
        }
    }
    quakeviz_rt::obs::prof::ticks("slic.over_px", over_px);
    if traffic.to_collector[me] > 0 {
        to_collector.send(comm, collector, TAG_SLIC_OUT);
    }
    drop(sp);

    // phase 4: the collector paints every other rank's finished runs
    let Some(mut img) = frame else {
        return CompositeResult { image: None };
    };
    let _sp = obs::auto_span(obs::Phase::CompositeRound, 4);
    let senders = traffic.to_collector.iter().filter(|&&px| px > 0).count();
    let mut from = receive(comm, TAG_SLIC_OUT, senders);
    for (run, layers) in sched.iter() {
        let src = owner(layers[0]);
        if src != collector {
            let span = from[src].as_mut().expect("finished run never arrived");
            paint(&mut img, run, span.next_span(run.len()).chunks_exact(run.width()));
        }
    }
    CompositeResult { image: Some(img) }
}

// ---------------------------------------------------------------------
// binary swap
// ---------------------------------------------------------------------

/// Binary-swap compositing over full-frame per-rank layers.
///
/// Each rank pre-composites its fragments into a full image carrying a
/// per-pixel *visibility key* (the order index of its front-most local
/// contribution); `log2(n)` exchange rounds then halve each rank's region.
/// Exact whenever, per pixel, one rank's contributions do not interleave
/// with another's in depth (always true for non-overlapping fragments and
/// for convex per-rank regions — the classic binary-swap setting).
/// Requires a power-of-two communicator.
pub fn binary_swap(
    comm: &Comm,
    local: &[Fragment],
    info: &FrameInfo,
    collector: usize,
    _opts: CompositeOptions,
) -> CompositeResult {
    let n = comm.size();
    assert!(n.is_power_of_two(), "binary swap needs a power-of-two rank count");
    let me = comm.rank();
    let (w, h) = (info.width, info.height);

    // layer + keys
    let mut layer = RgbaImage::new(w, h);
    let mut keys = vec![u32::MAX; (w * h) as usize];
    // local fragments in front-to-back order
    let mut mine: Vec<(usize, &Fragment)> =
        local.iter().map(|f| (info.index_of(f.block).expect("fragment missing"), f)).collect();
    mine.sort_by_key(|&(i, _)| i);
    for (oi, f) in mine {
        for y in f.rect.y0..f.rect.y1 {
            for x in f.rect.x0..f.rect.x1 {
                let i = (y * w + x) as usize;
                let cur = layer.get(x, y);
                layer.set(x, y, over(cur, f.get(x, y)));
                if keys[i] == u32::MAX {
                    keys[i] = oi as u32;
                }
            }
        }
    }

    // rounds: region is a row range [lo, hi)
    let (mut lo, mut hi) = (0u32, h);
    let rounds = n.trailing_zeros();
    for k in 0..rounds {
        let partner = me ^ (1usize << k);
        let mid = lo + (hi - lo) / 2;
        let (keep, send) =
            if me & (1 << k) == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
        // extract the half to send
        let rows = (send.1 - send.0) as usize;
        let mut px = Vec::with_capacity(rows * w as usize);
        let mut ks = Vec::with_capacity(rows * w as usize);
        for y in send.0..send.1 {
            for x in 0..w {
                px.push(layer.get(x, y));
                ks.push(keys[(y * w + x) as usize]);
            }
        }
        let bytes = px.len() as u64 * 20;
        comm.send_with_size(partner, TAG_BSWAP, (send.0, px, ks), bytes);
        let (ry0, rpx, rks): (u32, Vec<Rgba>, Vec<u32>) = comm.recv(partner, TAG_BSWAP);
        debug_assert_eq!(ry0, keep.0);
        // merge partner's half into my kept region by key order
        let mut i = 0usize;
        for y in keep.0..keep.1 {
            for x in 0..w {
                let gi = (y * w + x) as usize;
                let (mp, mk) = (layer.get(x, y), keys[gi]);
                let (tp, tk) = (rpx[i], rks[i]);
                let (front, back, key) = if tk < mk { (tp, mp, tk) } else { (mp, tp, mk) };
                layer.set(x, y, over(front, back));
                keys[gi] = key;
                i += 1;
            }
        }
        lo = keep.0;
        hi = keep.1;
    }

    // gather the final pieces at the collector
    if me != collector {
        let rows = (hi - lo) as usize;
        let mut px = Vec::with_capacity(rows * w as usize);
        for y in lo..hi {
            for x in 0..w {
                px.push(layer.get(x, y));
            }
        }
        let bytes = px.len() as u64 * 16;
        comm.send_with_size(collector, TAG_BSWAP_GATHER, (lo, px), bytes);
        return CompositeResult { image: None };
    }
    let mut img = RgbaImage::new(w, h);
    for y in lo..hi {
        for x in 0..w {
            img.set(x, y, layer.get(x, y));
        }
    }
    for _ in 0..n - 1 {
        let (_, (ry0, px)): (usize, (u32, Vec<Rgba>)) = comm.recv_any(TAG_BSWAP_GATHER);
        for (i, &p) in px.iter().enumerate() {
            let x = i as u32 % w;
            let y = ry0 + i as u32 / w;
            img.set(x, y, p);
        }
    }
    CompositeResult { image: Some(img) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_render::composite_fragments;
    use quakeviz_render::ScreenRect;
    use quakeviz_rt::{TrafficStats, World};
    use std::sync::Arc;

    /// Deterministic pseudo-random premultiplied pixel.
    fn px(seed: u64) -> Rgba {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u32 << 24) as f32
        };
        let a = next().clamp(0.0, 1.0);
        [next() * a, next() * a, next() * a, a]
    }

    fn synth_fragment(block: u32, rect: ScreenRect) -> Fragment {
        let pixels = (0..rect.area()).map(|i| px(block as u64 * 100_000 + i)).collect();
        Fragment { block, rect, pixels }
    }

    /// Overlapping layout: rank r owns blocks r and r+n with staggered,
    /// overlapping rects.
    fn overlapping_frags(rank: usize, n: usize) -> Vec<Fragment> {
        let b0 = rank as u32;
        let b1 = (rank + n) as u32;
        vec![
            synth_fragment(b0, ScreenRect::new((rank * 4) as u32, 0, (rank * 4 + 12) as u32, 12)),
            synth_fragment(b1, ScreenRect::new(2, (rank * 3) as u32, 14, (rank * 3 + 8) as u32)),
        ]
    }

    /// Disjoint layout: rank r owns one tile of a horizontal strip.
    fn disjoint_frags(rank: usize, _n: usize) -> Vec<Fragment> {
        let x0 = (rank * 8) as u32;
        vec![synth_fragment(rank as u32, ScreenRect::new(x0, 2, x0 + 8, 14))]
    }

    const W: u32 = 32;
    const H: u32 = 24;

    /// Reference: gather all fragments to rank 0, composite sequentially.
    fn reference(comm: &Comm, local: &[Fragment], order: &[u32]) -> Option<RgbaImage> {
        let all = comm.gather(0, local.to_vec())?;
        let mut flat: Vec<Fragment> = all.into_iter().flatten().collect();
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        flat.sort_by_key(|f| pos[&f.block]);
        let refs: Vec<&Fragment> = flat.iter().collect();
        Some(composite_fragments(&refs, W, H))
    }

    fn assert_images_close(a: &RgbaImage, b: &RgbaImage, tol: f64) {
        let d = a.rms_difference(b);
        assert!(d <= tol, "images differ: rms {d}");
    }

    #[test]
    fn direct_send_matches_reference() {
        let n = 4;
        let order: Vec<u32> = (0..2 * n as u32).collect();
        World::run(n, |comm| {
            let local = overlapping_frags(comm.rank(), n);
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order);
            let got = direct_send(&comm, &local, &info, 0, CompositeOptions::default());
            if comm.rank() == 0 {
                assert_images_close(&got.image.unwrap(), &want.unwrap(), 1e-6);
            } else {
                assert!(got.image.is_none());
            }
        });
    }

    #[test]
    fn slic_matches_reference() {
        let n = 4;
        let order: Vec<u32> = (0..2 * n as u32).collect();
        World::run(n, |comm| {
            let local = overlapping_frags(comm.rank(), n);
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order);
            let got = slic(&comm, &local, &info, 0, CompositeOptions::default());
            if comm.rank() == 0 {
                assert_images_close(&got.image.unwrap(), &want.unwrap(), 1e-6);
            }
        });
    }

    #[test]
    fn slic_nonzero_collector() {
        let n = 3;
        let order: Vec<u32> = (0..2 * n as u32).collect();
        World::run(n, |comm| {
            let local = overlapping_frags(comm.rank(), n);
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order);
            let want0 = comm.bcast(0, want.map(|i| i.pixels().to_vec()));
            let got = slic(&comm, &local, &info, 2, CompositeOptions::default());
            if comm.rank() == 2 {
                let img = got.image.unwrap();
                let wpix = want0.unwrap();
                for (a, b) in img.pixels().iter().zip(&wpix) {
                    for c in 0..4 {
                        assert!((a[c] - b[c]).abs() < 1e-5);
                    }
                }
            }
        });
    }

    #[test]
    fn binary_swap_matches_reference_disjoint() {
        let n = 4;
        let order: Vec<u32> = (0..n as u32).collect();
        World::run(n, |comm| {
            let local = disjoint_frags(comm.rank(), n);
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order);
            let got = binary_swap(&comm, &local, &info, 0, CompositeOptions::default());
            if comm.rank() == 0 {
                assert_images_close(&got.image.unwrap(), &want.unwrap(), 1e-6);
            }
        });
    }

    #[test]
    fn compression_preserves_result_and_saves_bytes() {
        let n = 4;
        let order: Vec<u32> = (0..2 * n as u32).collect();
        let stats_raw = TrafficStats::new();
        let raw_pixels = {
            let s = Arc::clone(&stats_raw);
            World::run_traced(n, s, |comm| {
                // mostly-transparent fragments compress well
                let mut local = overlapping_frags(comm.rank(), n);
                for f in &mut local {
                    for p in &mut f.pixels {
                        if !((p[3] * 10.0) as u32).is_multiple_of(3) {
                            *p = [0.0; 4];
                        }
                    }
                }
                let info = FrameInfo::exchange(&comm, &local, &order, W, H);
                let r = slic(&comm, &local, &info, 0, CompositeOptions { compress: false });
                r.image.map(|i| i.pixels().to_vec())
            })
        };
        let stats_rle = TrafficStats::new();
        let rle_pixels = {
            let s = Arc::clone(&stats_rle);
            World::run_traced(n, s, |comm| {
                let mut local = overlapping_frags(comm.rank(), n);
                for f in &mut local {
                    for p in &mut f.pixels {
                        if !((p[3] * 10.0) as u32).is_multiple_of(3) {
                            *p = [0.0; 4];
                        }
                    }
                }
                let info = FrameInfo::exchange(&comm, &local, &order, W, H);
                let r = slic(&comm, &local, &info, 0, CompositeOptions { compress: true });
                r.image.map(|i| i.pixels().to_vec())
            })
        };
        let a = raw_pixels[0].as_ref().unwrap();
        let b = rle_pixels[0].as_ref().unwrap();
        for (pa, pb) in a.iter().zip(b) {
            for c in 0..4 {
                assert!((pa[c] - pb[c]).abs() < 1e-6);
            }
        }
        assert!(
            stats_rle.bytes() < stats_raw.bytes(),
            "RLE should reduce bytes: {} vs {}",
            stats_rle.bytes(),
            stats_raw.bytes()
        );
    }

    #[test]
    fn slic_fewer_bytes_than_direct_send() {
        let n = 4;
        let order: Vec<u32> = (0..2 * n as u32).collect();
        let run = |use_slic: bool| {
            let stats = TrafficStats::new();
            let s = Arc::clone(&stats);
            World::run_traced(n, s, |comm| {
                let local = overlapping_frags(comm.rank(), n);
                let info = FrameInfo::exchange(&comm, &local, &order, W, H);
                // both runs carry the identical FrameInfo-exchange
                // overhead, so whole-run totals compare fairly
                let r = if use_slic {
                    slic(&comm, &local, &info, 0, CompositeOptions::default())
                } else {
                    direct_send(&comm, &local, &info, 0, CompositeOptions::default())
                };
                r.image.map(|i| i.pixels().to_vec())
            });
            stats
        };
        let ds = run(false);
        let sl = run(true);
        assert!(
            sl.bytes() < ds.bytes(),
            "SLIC bytes {} should undercut direct-send {}",
            sl.bytes(),
            ds.bytes()
        );
        // batched direct-send is already message-frugal at 4 ranks; SLIC
        // must stay in the same ballpark (its win is bytes + scheduling)
        assert!(
            sl.messages() <= ds.messages() + 4,
            "SLIC messages {} vs direct-send {}",
            sl.messages(),
            ds.messages()
        );
    }

    #[test]
    fn single_rank_all_algorithms() {
        let order: Vec<u32> = vec![0, 1];
        World::run(1, |comm| {
            let local = overlapping_frags(0, 1);
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order).unwrap();
            for img in [
                direct_send(&comm, &local, &info, 0, CompositeOptions::default()).image.unwrap(),
                slic(&comm, &local, &info, 0, CompositeOptions::default()).image.unwrap(),
                binary_swap(&comm, &local, &info, 0, CompositeOptions::default()).image.unwrap(),
            ] {
                assert_images_close(&img, &want, 1e-6);
            }
        });
    }

    #[test]
    fn ranks_without_fragments_participate() {
        let n = 4;
        let order: Vec<u32> = vec![0];
        World::run(n, |comm| {
            let local = if comm.rank() == 1 {
                vec![synth_fragment(0, ScreenRect::new(0, 0, W, H))]
            } else {
                vec![]
            };
            let info = FrameInfo::exchange(&comm, &local, &order, W, H);
            let want = reference(&comm, &local, &order);
            for (i, img) in [
                direct_send(&comm, &local, &info, 0, CompositeOptions::default()).image,
                slic(&comm, &local, &info, 0, CompositeOptions::default()).image,
            ]
            .into_iter()
            .enumerate()
            {
                if comm.rank() == 0 {
                    assert_images_close(&img.unwrap(), want.as_ref().unwrap(), 1e-6);
                } else {
                    assert!(img.is_none(), "algorithm {i}");
                }
            }
        });
    }
}
