//! The analytic processor-count model (paper §5.1–§5.2).
//!
//! Notation, per *full time step*:
//!
//! * `Tf` — time for one input processor to fetch the step from disk,
//! * `Tp` — time to preprocess it,
//! * `Ts` — time to deliver it into the rendering group,
//! * `Tr` — time for the rendering group to render one frame.
//!
//! **1DIP** (each input processor owns whole time steps): the renderers
//! never starve when `Tf + Tp = Ts (m − 1)`, i.e. `m = (Tf+Tp)/Ts + 1`.
//! When `Ts < Tr` (the usual case) delivery is not the bottleneck and
//! `m = (Tf+Tp)/Tr + 1` suffices. Either way the interframe delay floor
//! is `max(Ts, Tr)` — 1DIP cannot beat the serial delivery time.
//!
//! **2DIP** (`n` groups of `m` input processors share each step): the
//! per-step delivery time becomes `Ts' = Ts/m`, so `m ≥ Ts/Tr` makes
//! delivery beat rendering, and `n = (Tf'+Tp')/Ts' + 1` groups keep the
//! pipe full (which algebraically equals the 1DIP count,
//! `(Tf+Tp)/Ts + 1`). The floor drops to `max(Ts/m, Tr)` — with enough
//! input processors, **interframe delay is completely determined by the
//! rendering cost**, the paper's headline claim.

/// Steady-state interframe delay with the **overlapped prefetch runtime**
/// (two-slot bounded send queue, read+preprocess on a worker thread), for
/// `(groups, per_group)` = [`crate::IoStrategy::shape`] — 1DIP is the
/// `n × 1` grid. Per step each input processor runs two lanes
/// concurrently, each member's share shrinking to `1/m` of a step's
/// fetch/preprocess/send (LIC stays whole — only the group lead
/// synthesizes it):
///
/// * worker lane: `(Tf + (Tp − Tlic))/m` (fetch + preprocess, LIC excluded),
/// * consumer lane: `Tlic + Ts/m` (LIC synthesis + send issuance).
///
/// The slower lane paces the rank, `n` groups interleave whole steps, and
/// the renderers still serialize on `max(Ts/m, Tr)` — so the delay is
/// `max(max(worker, consumer)/n, Ts/m, Tr)` instead of the synchronous
/// [`steady_delay`]. `tp` here **excludes** LIC; pass the LIC cost as
/// `lic`.
pub fn prefetch_delay(
    tf: f64,
    tp: f64,
    lic: f64,
    ts: f64,
    tr: f64,
    (groups, per_group): (usize, usize),
) -> f64 {
    let (n, m) = (groups.max(1) as f64, per_group.max(1) as f64);
    let worker = (tf + tp) / m;
    let consumer = lic + ts / m;
    (worker.max(consumer) / n).max(ts / m).max(tr)
}

/// `m = (Tf+Tp)/Tx + 1` rounded to the nearest whole processor (at least
/// 1), where `Tx` is the stage that must hide the fetch+preprocess time:
/// `Ts` in the strict §5.1 form, `Tr` in the relaxed form used when
/// `Ts < Tr`.
fn pipeline_depth(tf_plus_tp: f64, tx: f64) -> usize {
    assert!(tx > 0.0, "stage time must be positive");
    ((tf_plus_tp / tx) + 1.0).round().max(1.0) as usize
}

/// Optimal 1DIP input-processor count. Uses the relaxed `Tr` form when
/// `Ts < Tr` ("which allows us to use fewer input processors but still
/// keep the rendering processors busy"), the strict `Ts` form otherwise.
pub fn onedip_optimal_m(tf: f64, tp: f64, ts: f64, tr: f64) -> usize {
    pipeline_depth(tf + tp, ts.max(tr))
}

/// 2DIP group width: the smallest `m` with `Ts/m ≤ Tr`.
pub fn twodip_optimal_m(ts: f64, tr: f64) -> usize {
    assert!(tr > 0.0);
    (ts / tr).ceil().max(1.0) as usize
}

/// 2DIP group count for a given group width `m`:
/// `n = (Tf' + Tp')/Ts' + 1` with `Tf' = Tf/m` etc., which reduces to the
/// 1DIP expression `(Tf+Tp)/Ts + 1`.
pub fn twodip_n(tf: f64, tp: f64, ts: f64, m: usize) -> usize {
    let m = m.max(1) as f64;
    pipeline_depth(tf / m + tp / m, ts / m)
}

/// Steady-state interframe delay with `groups` groups of `per_group`
/// input processors — `(n, 1)` for 1DIP, where `x / 1.0 == x` makes this
/// `max((Tf+Tp+Ts)/n, Ts, Tr)` exactly.
pub fn steady_delay(
    tf: f64,
    tp: f64,
    ts: f64,
    tr: f64,
    (groups, per_group): (usize, usize),
) -> f64 {
    let (n, m) = (groups.max(1) as f64, per_group.max(1) as f64);
    ((tf / m + tp / m + ts / m) / n).max(ts / m).max(tr)
}

/// Fewest render processors that keep rendering off the critical path:
/// the input side delivers a step every `delivery` seconds, the render
/// group costs `r_total` aggregate render seconds per frame, so `k`
/// renderers suffice once `r_total / k ≤ delivery` — i.e.
/// `k = ceil(r_total / delivery)` (≥ 1). The elastic controller's resize
/// decision evaluates this with *measured* per-window costs.
pub fn optimal_renderers(r_total: f64, delivery: f64) -> usize {
    assert!(delivery > 0.0, "delivery time must be positive");
    (r_total / delivery).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    // the paper-scale anchor costs (see des::CostTable::lemieux)
    const TF: f64 = 20.0;
    const TP: f64 = 2.0;
    const TS: f64 = 1.2;
    const TR64: f64 = 2.0; // 64 renderers, 512x512
    const TR128: f64 = 1.0;

    #[test]
    fn paper_figure8_twelve_input_processors() {
        // Fig 8: 64 renderers, 512²: 12 input processors hide I/O
        assert_eq!(onedip_optimal_m(TF, TP, TS, TR64), 12);
    }

    #[test]
    fn strict_form_when_ts_dominates() {
        // if Ts > Tr the strict §5.1 form applies
        let m = onedip_optimal_m(10.0, 2.0, 3.0, 1.0);
        assert_eq!(m, 5); // 12/3 + 1
    }

    #[test]
    fn onedip_floor_is_max_ts_tr() {
        // with many input processors the delay floors at max(Ts, Tr)
        let d = steady_delay(TF, TP, TS, TR128, (100, 1));
        assert!((d - TS).abs() < 1e-12, "floor should be Ts=1.2, got {d}");
        let d64 = steady_delay(TF, TP, TS, TR64, (100, 1));
        assert!((d64 - TR64).abs() < 1e-12);
    }

    #[test]
    fn onedip_delay_decreases_with_m() {
        let mut prev = f64::INFINITY;
        for m in 1..=16 {
            let d = steady_delay(TF, TP, TS, TR64, (m, 1));
            assert!(d <= prev + 1e-12);
            prev = d;
        }
        // single input processor: the full serial chain
        assert!((steady_delay(TF, TP, TS, TR64, (1, 1)) - 23.2).abs() < 1e-9);
    }

    #[test]
    fn paper_figure9_twodip_reaches_render_floor() {
        // 128 renderers: Ts=1.2 > Tr=1.0 — 1DIP can never reach Tr
        let m1 = 22; // arbitrarily many 1DIP input processors
        assert!(steady_delay(TF, TP, TS, TR128, (m1, 1)) > TR128);
        // 2DIP with m=2: floor Ts/2=0.6 < Tr -> delay reaches Tr
        let m = twodip_optimal_m(TS, TR128);
        assert_eq!(m, 2);
        let n = twodip_n(TF, TP, TS, m);
        let d = steady_delay(TF, TP, TS, TR128, (n + 2, m));
        assert!((d - TR128).abs() < 1e-9, "2DIP should reach Tr, got {d}");
    }

    #[test]
    fn twodip_n_equals_onedip_expression() {
        // n = (Tf'+Tp')/Ts' + 1 == (Tf+Tp)/Ts + 1 for any m
        for m in 1..=8 {
            assert_eq!(twodip_n(TF, TP, TS, m), pipeline_depth(TF + TP, TS));
        }
    }

    #[test]
    fn adaptive_fetch_cuts_required_input_processors() {
        // §6: adaptive fetching at level 8 needs only 4 input processors
        // instead of 12 — the fetch (and delivery) shrink to ~25%
        let frac = 0.25;
        let m = onedip_optimal_m(TF * frac, TP * frac, TS * frac, TR64);
        assert_eq!(m, 4, "adaptive fetching should need ~4 input processors");
    }

    #[test]
    fn figure10_lighting_needs_three_and_four() {
        // 256² + lighting (×7 render cost) + adaptive fetching (×0.25):
        // m = 3 at 64 renderers, 4 at 128 (paper Figure 10)
        let quarter = 256.0 * 256.0 / (512.0 * 512.0);
        let tr64 = TR64 * quarter * 7.0;
        let tr128 = TR128 * quarter * 7.0;
        let (tf, tp, ts) = (TF * 0.25, TP * 0.25, TS * 0.25);
        assert_eq!(onedip_optimal_m(tf, tp, ts, tr64), 3);
        assert_eq!(onedip_optimal_m(tf, tp, ts, tr128), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stage_time_panics() {
        onedip_optimal_m(1.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn prefetch_never_slower_than_sync() {
        let lic = 0.5;
        for (n, m) in (1..=20).flat_map(|n| (1..=20).map(move |m| (n, m))) {
            let sync = steady_delay(TF, TP, TS, TR64, (n, m));
            let pre = prefetch_delay(TF, TP - lic, lic, TS, TR64, (n, m));
            assert!(pre <= sync + 1e-12, "{n}x{m}: prefetch {pre} > sync {sync}");
        }
    }

    #[test]
    fn prefetch_floor_is_max_ts_tr() {
        // with deep pipelines the prefetch delay floors at max(Ts, Tr) —
        // the §5 prediction the overlapped runtime is validated against
        let d = prefetch_delay(TF, TP, 0.0, TS, TR64, (100, 1));
        assert!((d - TR64).abs() < 1e-12, "floor should be Tr, got {d}");
        let d = prefetch_delay(TF, TP, 0.0, TS, TR128, (100, 2));
        assert!((d - TR128).abs() < 1e-12);
        // Ts-bound variant: huge sends, cheap rendering
        let d = prefetch_delay(TF, TP, 0.0, 5.0, 0.1, (100, 1));
        assert!((d - 5.0).abs() < 1e-12, "floor should be Ts, got {d}");
    }

    #[test]
    fn prefetch_read_bound_regime_hides_send() {
        // read-dominated, shallow pipe: the worker lane (Tf+Tp)/m paces
        // the rank and the send cost vanishes from the delay entirely
        let (tf, tp, ts, tr) = (10.0, 1.0, 2.0, 0.5);
        let m = 2;
        let pre = prefetch_delay(tf, tp, 0.0, ts, tr, (m, 1));
        assert!((pre - (tf + tp) / m as f64).abs() < 1e-12);
        let sync = steady_delay(tf, tp, ts, tr, (m, 1));
        assert!((sync - (tf + tp + ts) / m as f64).abs() < 1e-12);
        assert!(pre < sync, "overlap should strictly beat sync here");
    }

    #[test]
    fn prefetch_consumer_lane_can_pace() {
        // LIC + sends slower than the worker lane: the consumer paces
        let (tf, tp, lic, ts, tr) = (1.0, 0.5, 4.0, 2.0, 0.1);
        let pre = prefetch_delay(tf, tp, lic, ts, tr, (3, 1));
        assert!((pre - (lic + ts) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_renderers_tracks_the_delivery_ratio() {
        // 6 s of aggregate render work against a 2 s delivery cadence
        // needs 3 renderers; faster delivery demands more
        assert_eq!(optimal_renderers(6.0, 2.0), 3);
        assert_eq!(optimal_renderers(6.0, 1.0), 6);
        assert_eq!(optimal_renderers(6.0, 2.5), 3); // ceil(2.4)
                                                    // cheap rendering never goes below one renderer
        assert_eq!(optimal_renderers(0.1, 10.0), 1);
        assert_eq!(optimal_renderers(0.0, 1.0), 1);
    }
}
