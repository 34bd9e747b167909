//! Piecewise-linear RGBA transfer functions.
//!
//! Input scalars are normalized to `[0, 1]` (the dataset carries its global
//! magnitude range). The seismic preset follows the paper's figures: quiet
//! regions transparent blue, moderate shaking cyan→green→yellow, strong
//! shaking opaque red.

use crate::image::Rgba;
use std::sync::{Arc, Mutex};

/// A transfer function defined by sorted `(value, straight RGBA)` control
/// points; lookup interpolates linearly and returns **premultiplied** RGBA
/// scaled by the caller's opacity correction.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    /// Control points: (normalized value, [r, g, b, a]) with straight alpha.
    points: Vec<(f32, [f32; 4])>,
    /// Baked tables by `ds_ratio` bits, most recent last. Clones share
    /// it: the control points never change after construction.
    baked: Arc<Mutex<Vec<(u32, Arc<BakedTransfer>)>>>,
}

/// Cells in a [`BakedTransfer`] (it has one more node than cells).
const BAKED_CELLS: usize = 4095;

/// Distinct `ds_ratio`s a transfer function keeps tables for: a run uses
/// one per resident octree level, so a handful; the cap only bounds what a
/// caller sweeping `step_scale` can make it hold.
const BAKED_KEPT: usize = 8;

/// [`TransferFunction::sample`] for one fixed `ds_ratio`, tabulated at
/// `BAKED_CELLS + 1` equally spaced nodes between the first and last
/// control point and linearly interpolated in between — what the ray
/// caster evaluates per sample instead of a search and a `powf`.
///
/// It is exact at the nodes. Inside a cell of width `h = (hi − lo) / 4095`
/// it is off by at most `h²/8 · max|f″|` where the corrected function is
/// smooth, and by at most `h/4 · |Δ slope|` in the (at most one per
/// control point) cells that hold a kink — about `1e-4` in opacity for
/// the seismic map, well under one 8-bit level after accumulation. A step
/// (two control points at one value) is smeared over one cell.
#[derive(Debug)]
pub(crate) struct BakedTransfer {
    lo: f32,
    /// Cells per unit value; 0 when every control point has one value.
    scale: f32,
    /// The last node is stored twice so `i + 1` needs no clamp.
    nodes: Box<[Rgba; BAKED_CELLS + 2]>,
}

impl BakedTransfer {
    /// Position of `v` in cell units, clamped into the table. Monotone in
    /// `v`; `NaN` lands on node 0, the first control point, as it does in
    /// [`TransferFunction::lookup`].
    #[inline(always)]
    fn pos(&self, v: f32) -> f32 {
        ((v - self.lo) * self.scale).max(0.0).min(BAKED_CELLS as f32)
    }

    /// Premultiplied, opacity-corrected RGBA at `v`.
    #[inline(always)]
    pub(crate) fn sample(&self, v: f32) -> Rgba {
        let x = self.pos(v);
        // (`pos` already bounds it; said again so the indexing needs no check)
        let i = (x as usize).min(BAKED_CELLS);
        let fr = x - i as f32;
        let (a, b) = (self.nodes[i], self.nodes[i + 1]);
        [
            a[0] + (b[0] - a[0]) * fr,
            a[1] + (b[1] - a[1]) * fr,
            a[2] + (b[2] - a[2]) * fr,
            a[3] + (b[3] - a[3]) * fr,
        ]
    }

    /// Whether [`BakedTransfer::sample`] returns an opacity above `gate`
    /// for some value in `[lo, hi]`. The table is piecewise linear, so
    /// its largest opacity over the range sits at one of the two ends or
    /// at a node between them. `NaN` bounds report `true`.
    pub(crate) fn opacity_exceeds(&self, lo: f32, hi: f32, gate: f32) -> bool {
        let over = |a: f32| a > gate || a.is_nan();
        if lo.is_nan() || hi.is_nan() || over(self.sample(lo)[3]) || over(self.sample(hi)[3]) {
            return true;
        }
        let (first, last) = (self.pos(lo).ceil() as usize, self.pos(hi) as usize);
        // opacity usually grows with the value: look from the top
        first <= last && self.nodes[first..=last].iter().rev().any(|n| over(n[3]))
    }
}

impl TransferFunction {
    /// Build from control points (sorted by value at construction).
    pub fn new(mut points: Vec<(f32, [f32; 4])>) -> TransferFunction {
        assert!(points.len() >= 2, "need at least two control points");
        assert!(points.iter().all(|p| !p.0.is_nan()), "control point value is NaN");
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        TransferFunction { points, baked: Arc::default() }
    }

    /// The control points (sorted by value) — the function's full
    /// identity, e.g. for cache keying.
    pub fn points(&self) -> &[(f32, [f32; 4])] {
        &self.points
    }

    /// The paper-style seismic map: transparent where quiet, warm and
    /// opaque where shaking is strong.
    pub fn seismic() -> TransferFunction {
        TransferFunction::new(vec![
            (0.00, [0.02, 0.03, 0.15, 0.000]),
            (0.05, [0.05, 0.10, 0.45, 0.010]),
            (0.20, [0.00, 0.55, 0.75, 0.060]),
            (0.40, [0.10, 0.80, 0.25, 0.150]),
            (0.60, [0.95, 0.90, 0.10, 0.350]),
            (0.80, [0.95, 0.45, 0.05, 0.650]),
            (1.00, [0.90, 0.05, 0.05, 0.900]),
        ])
    }

    /// A grayscale ramp (testing / LIC underlays).
    pub fn grayscale() -> TransferFunction {
        TransferFunction::new(vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 1.0])])
    }

    /// Straight (non-premultiplied) RGBA at normalized value `v`
    /// (clamped).
    pub fn lookup(&self, v: f32) -> [f32; 4] {
        let v = v.clamp(self.points[0].0, self.points.last().unwrap().0);
        let i = self.points.partition_point(|&(x, _)| x <= v).min(self.points.len() - 1);
        if i == 0 {
            return self.points[0].1;
        }
        let (x0, c0) = self.points[i - 1];
        let (x1, c1) = self.points[i];
        if x1 <= x0 {
            return c1;
        }
        let t = ((v - x0) / (x1 - x0)).clamp(0.0, 1.0);
        let mut out = [0.0f32; 4];
        for c in 0..4 {
            out[c] = c0[c] + (c1[c] - c0[c]) * t;
        }
        out
    }

    /// Premultiplied sample contribution for a ray segment of length
    /// `ds` relative to the reference step `ds_ref` (opacity correction
    /// `a' = 1 − (1 − a)^(ds/ds_ref)`).
    pub fn sample(&self, v: f32, ds_ratio: f32) -> Rgba {
        let c = self.lookup(v);
        let a = 1.0 - (1.0 - c[3]).powf(ds_ratio.max(1e-6));
        [c[0] * a, c[1] * a, c[2] * a, a]
    }

    /// The table of [`TransferFunction::sample`] at this `ds_ratio`,
    /// built on first use and kept: the ray caster asks once per brick.
    pub(crate) fn baked(&self, ds_ratio: f32) -> Arc<BakedTransfer> {
        let key = ds_ratio.to_bits();
        let mut kept = self.baked.lock().expect("a baking thread panicked");
        if let Some((_, table)) = kept.iter().find(|(k, _)| *k == key) {
            return table.clone();
        }
        let (lo, hi) = (self.points[0].0, self.points.last().unwrap().0);
        let mut nodes = Box::new([[0.0f32; 4]; BAKED_CELLS + 2]);
        for k in 0..=BAKED_CELLS {
            // (`sample` clamps, so rounding past `hi` at the top is harmless)
            nodes[k] = self.sample(lo + (hi - lo) * (k as f32 / BAKED_CELLS as f32), ds_ratio);
        }
        nodes[BAKED_CELLS + 1] = nodes[BAKED_CELLS];
        let scale = if hi > lo { BAKED_CELLS as f32 / (hi - lo) } else { 0.0 };
        let table = Arc::new(BakedTransfer { lo, scale, nodes });
        if kept.len() == BAKED_KEPT {
            kept.remove(0);
        }
        kept.push((key, table.clone()));
        table
    }

    /// Largest opacity anywhere (sanity checks / early-termination limits).
    pub fn max_opacity(&self) -> f32 {
        self.points.iter().map(|p| p.1[3]).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_interpolates_linearly() {
        let tf =
            TransferFunction::new(vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 0.5, 0.0, 1.0])]);
        let c = tf.lookup(0.5);
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 0.25).abs() < 1e-6);
        assert!((c[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lookup_clamps_out_of_range() {
        let tf = TransferFunction::grayscale();
        assert_eq!(tf.lookup(-5.0), tf.lookup(0.0));
        assert_eq!(tf.lookup(5.0), tf.lookup(1.0));
    }

    #[test]
    fn lookup_exact_control_points() {
        let tf = TransferFunction::seismic();
        let c = tf.lookup(1.0);
        assert!((c[3] - 0.9).abs() < 1e-6);
        let c0 = tf.lookup(0.0);
        assert_eq!(c0[3], 0.0);
    }

    #[test]
    fn unsorted_points_sorted_at_build() {
        let tf =
            TransferFunction::new(vec![(1.0, [1.0, 1.0, 1.0, 1.0]), (0.0, [0.0, 0.0, 0.0, 0.0])]);
        assert!((tf.lookup(0.25)[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_control_point_is_rejected() {
        TransferFunction::new(vec![(0.0, [0.0; 4]), (f32::NAN, [1.0; 4]), (1.0, [1.0; 4])]);
    }

    #[test]
    fn baked_table_tracks_sample() {
        let tf = TransferFunction::seismic();
        for ds_ratio in [0.35f32, 0.7, 1.4] {
            let baked = tf.baked(ds_ratio);
            let mut worst = 0.0f32;
            for i in 0..=20_000 {
                let v = i as f32 / 20_000.0;
                let (got, want) = (baked.sample(v), tf.sample(v, ds_ratio));
                for c in 0..4 {
                    worst = worst.max((got[c] - want[c]).abs());
                }
            }
            // the bound in BakedTransfer's docs: kinks cost h/4·|Δ slope|
            assert!(worst < 2e-4, "ds_ratio {ds_ratio}: off by {worst}");
            // out of range clamps like lookup; NaN is the first control point
            assert_eq!(baked.sample(-3.0), tf.sample(0.0, ds_ratio));
            assert_eq!(baked.sample(7.0), tf.sample(1.0, ds_ratio));
            assert_eq!(baked.sample(f32::NAN), tf.sample(0.0, ds_ratio));
        }
    }

    #[test]
    fn baked_tables_are_memoised_and_bounded() {
        let tf = TransferFunction::seismic();
        let a = tf.baked(0.7);
        assert!(Arc::ptr_eq(&a, &tf.baked(0.7)), "same ds_ratio, same table");
        assert!(Arc::ptr_eq(&a, &tf.clone().baked(0.7)), "clones share the memo");
        assert!(!Arc::ptr_eq(&a, &tf.baked(1.4)));
        for k in 0..20 {
            tf.baked(2.0 + k as f32);
        }
        assert_eq!(tf.baked.lock().unwrap().len(), BAKED_KEPT);
    }

    #[test]
    fn opacity_over_a_range_is_decided_at_ends_and_nodes() {
        // visible only in a narrow band around 0.5
        let tf = TransferFunction::new(vec![
            (0.0, [1.0, 1.0, 1.0, 0.0]),
            (0.49, [1.0, 1.0, 1.0, 0.0]),
            (0.5, [1.0, 1.0, 1.0, 0.8]),
            (0.51, [1.0, 1.0, 1.0, 0.0]),
            (1.0, [1.0, 1.0, 1.0, 0.0]),
        ]);
        let baked = tf.baked(1.0);
        assert!(!baked.opacity_exceeds(0.0, 0.48, 1e-5));
        assert!(!baked.opacity_exceeds(0.52, 1.0, 1e-5));
        assert!(baked.opacity_exceeds(0.0, 1.0, 1e-5), "the band lies between the ends");
        assert!(baked.opacity_exceeds(0.495, 0.4951, 1e-5), "inside one cell");
        assert!(baked.opacity_exceeds(f32::NEG_INFINITY, f32::INFINITY, 1e-5));
        assert!(!baked.opacity_exceeds(f32::NEG_INFINITY, 0.2, 1e-5));
        assert!(baked.opacity_exceeds(f32::NAN, 0.2, 1e-5), "an unknown range is never skipped");
    }

    #[test]
    fn sample_is_premultiplied() {
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 0.5])]);
        let s = tf.sample(1.0, 1.0);
        assert!((s[3] - 0.5).abs() < 1e-6);
        assert!((s[0] - 0.5).abs() < 1e-6, "rgb must be scaled by alpha");
    }

    #[test]
    fn opacity_correction_composes() {
        // two half-steps must equal one full step in accumulated opacity
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.4]), (1.0, [1.0, 1.0, 1.0, 0.4])]);
        let full = tf.sample(0.5, 1.0)[3];
        let half = tf.sample(0.5, 0.5)[3];
        let two_halves = half + half * (1.0 - half);
        assert!((two_halves - full).abs() < 1e-5, "{two_halves} vs {full}");
    }

    #[test]
    fn seismic_is_monotone_in_opacity() {
        let tf = TransferFunction::seismic();
        let mut prev = -1.0f32;
        for i in 0..=100 {
            let a = tf.lookup(i as f32 / 100.0)[3];
            assert!(a >= prev - 1e-6, "opacity must not decrease");
            prev = a;
        }
        assert!(tf.max_opacity() > 0.8);
    }
}
