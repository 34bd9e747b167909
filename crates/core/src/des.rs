//! Discrete-event simulation of the pipeline schedules (Figures 5–6).
//!
//! The figure-level experiments of the paper ran on 100M-cell data and a
//! 3000-processor AlphaServer; their *shapes* are determined by the
//! schedule and the cost ratios, not the absolute machine speed. This
//! module replays the exact 1DIP/2DIP schedules over a [`CostTable`]:
//!
//! * with [`CostTable::lemieux`], calibrated against the paper's anchor
//!   numbers (400 MB steps, ~20 s single-stream fetch, 2 s/1 s render
//!   times at 64/128 renderers), the simulator regenerates Figures 8–12;
//! * with a table measured from a real small-scale run (see
//!   [`crate::pipeline`]), it validates that the same schedule code
//!   predicts the real pipeline's behaviour.
//!
//! The schedule model: every input processor (or input group) cycles
//! fetch → preprocess → send; the rendering group receives at most one
//! step at a time (sends serialize at the renderers, giving the `Ts`
//! floor of §5.2); rendering of step `t` overlaps the delivery of step
//! `t+1`; the frame is done when rendering (incl. compositing) ends.

use crate::config::IoStrategy;

/// Per-time-step costs, in seconds, for a chosen renderer count and image
/// size. `Tr` must include the compositing cost (the paper folds it into
/// the rendering time; SLIC keeps it roughly constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTable {
    /// Fetch one full step from disk, single stream.
    pub tf: f64,
    /// Preprocess one full step on one input processor.
    pub tp: f64,
    /// Deliver one full step into the rendering group (serial).
    pub ts: f64,
    /// Render + composite one frame on the whole rendering group.
    pub tr: f64,
    /// Concurrent fetch streams the file system sustains before
    /// per-stream bandwidth degrades.
    pub saturation: usize,
}

/// Options modifying a LeMieux cost table for the figure variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct FigureOptions {
    /// Gradient lighting (≈7× render cost in 2004-era software rendering;
    /// calibrated against Figure 10's 3-and-4 input-processor anchors).
    pub lighting: bool,
    /// Adaptive fetching at octree level 8: fetch/preprocess/send shrink
    /// to this fraction of the full-resolution step (§6 anchor: 4 input
    /// processors instead of 12 ⇒ ≈ 0.25).
    pub adaptive_fetch_fraction: Option<f64>,
    /// Surface-LIC synthesis on the input processors (Figure 12 anchor:
    /// 16 input processors hide VR+LIC ⇒ ≈ 8 s extra preprocessing).
    pub lic: bool,
}

impl CostTable {
    /// The LeMieux-calibrated table for the 100M-cell Northridge data.
    ///
    /// Anchors (documented in EXPERIMENTS.md):
    /// * `Tf = 20 s` — 400 MB per step at ~20 MB/s effective per-stream
    ///   parallel-file-system bandwidth (Fig 8: 22 s total I/O+preproc on
    ///   one input processor);
    /// * `Tp = 2 s` — partitioning, load balancing, quantization;
    /// * `Ts = 1.2 s` — one step into the render group (Fig 9: the 1DIP
    ///   floor sits visibly above the 1 s render time of 128 renderers);
    /// * `Tr = 128/renderers × (pixels/512²) s` — Fig 8/9: 2 s at 64
    ///   renderers, 1 s at 128 for 512×512;
    /// * saturation 48 streams (~1 GB/s aggregate — PSC ran *several*
    ///   parallel file systems, §5; Fig 9 sweeps 22 groups × 2 readers
    ///   without hitting a bandwidth wall).
    pub fn lemieux(renderers: usize, width: u32, height: u32, opts: FigureOptions) -> CostTable {
        assert!(renderers > 0);
        let pixel_scale = (width as f64 * height as f64) / (512.0 * 512.0);
        let mut tr = 128.0 / renderers as f64 * pixel_scale;
        if opts.lighting {
            tr *= 7.0;
        }
        let mut tf = 20.0;
        let mut tp = 2.0;
        let mut ts = 1.2;
        if let Some(frac) = opts.adaptive_fetch_fraction {
            tf *= frac;
            tp *= frac;
            ts *= frac;
        }
        if opts.lic {
            tp += 8.0;
        }
        CostTable { tf, tp, ts, tr, saturation: 48 }
    }

    /// Effective fetch time when `streams` read concurrently.
    pub fn tf_effective(&self, streams: usize) -> f64 {
        let k = streams.max(1) as f64;
        let s = self.saturation.max(1) as f64;
        self.tf * (k / s).max(1.0)
    }
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Completion time of each frame (seconds from start).
    pub frame_done: Vec<f64>,
    /// Interframe delays (`frame_done` diffs; first frame measured from 0).
    pub interframe: Vec<f64>,
}

impl DesResult {
    /// Steady-state interframe delay: mean over the last half of the
    /// frames (the pipeline fills during the first `m`-ish frames, and
    /// partially-filled pipelines deliver frames in bursts, so the mean —
    /// the reciprocal throughput — is the meaningful steady metric).
    pub fn steady_interframe(&self) -> f64 {
        let n = self.interframe.len();
        assert!(n > 0);
        let tail = &self.interframe[n / 2..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Mean interframe delay over all frames (what a user watching the
    /// animation experiences, startup included).
    pub fn mean_interframe(&self) -> f64 {
        self.interframe.iter().sum::<f64>() / self.interframe.len() as f64
    }

    /// Total wall-clock of the run.
    pub fn total(&self) -> f64 {
        *self.frame_done.last().unwrap()
    }
}

/// Run the schedule of `strategy` — its [`IoStrategy::shape`], `groups`
/// steps in flight, each shared by `per_group` readers — for `steps` time
/// steps.
pub fn simulate(strategy: IoStrategy, cost: &CostTable, steps: usize) -> DesResult {
    assert!(steps > 0);
    let (groups, per_group) = strategy.shape();
    let (n_groups, m_per_group) = (groups.max(1), per_group.max(1));
    // effective per-group costs
    let streams = n_groups * m_per_group;
    let m = m_per_group as f64;
    let tf = cost.tf_effective(streams) / m;
    let tp = cost.tp / m;
    let ts = cost.ts / m;

    let mut group_free = vec![0.0f64; n_groups];
    let mut delivery_free = 0.0f64;
    let mut render_free = 0.0f64;
    let mut frame_done = Vec::with_capacity(steps);
    for t in 0..steps {
        let g = t % n_groups;
        let fetch_start = group_free[g];
        let ready = fetch_start + tf + tp;
        // sends serialize into the render group, in step order
        let send_start = ready.max(delivery_free);
        let send_end = send_start + ts;
        group_free[g] = send_end;
        delivery_free = send_end;
        // rendering consumes steps in order, overlapping later deliveries
        let render_start = send_end.max(render_free);
        let render_end = render_start + cost.tr;
        render_free = render_end;
        frame_done.push(render_end);
    }
    let mut interframe = Vec::with_capacity(steps);
    let mut prev = 0.0;
    for &t in &frame_done {
        interframe.push(t - prev);
        prev = t;
    }
    DesResult { frame_done, interframe }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;

    fn lemieux64() -> CostTable {
        CostTable::lemieux(64, 512, 512, FigureOptions::default())
    }

    fn lemieux128() -> CostTable {
        CostTable::lemieux(128, 512, 512, FigureOptions::default())
    }

    #[test]
    fn single_ip_serial_chain() {
        let c = lemieux64();
        let r = simulate(IoStrategy::OneDip { input_procs: 1 }, &c, 10);
        // steady interframe = Tf+Tp+Ts (render hides inside the next fetch)
        let expect = c.tf + c.tp + c.ts;
        assert!(
            (r.steady_interframe() - expect).abs() < 1e-9,
            "got {}, want {expect}",
            r.steady_interframe()
        );
    }

    /// The schedule and the closed form agree over the whole n × m grid —
    /// 1DIP is its m = 1 column — on both LeMieux tables.
    #[test]
    fn des_matches_analytic_steady_state() {
        for c in [lemieux64(), lemieux128()] {
            for (n, m) in (1..=16).flat_map(|n| [1, 2, 3].map(|m| (n, m))) {
                let io = match m {
                    1 => IoStrategy::OneDip { input_procs: n },
                    _ => IoStrategy::TwoDip { groups: n, per_group: m },
                };
                let des = simulate(io, &c, 600).steady_interframe();
                let analytic =
                    model::steady_delay(c.tf_effective(n * m), c.tp, c.ts, c.tr, io.shape());
                let rel = (des - analytic).abs() / analytic;
                assert!(rel < 0.03, "Tr={} {n}x{m}: des {des} vs analytic {analytic}", c.tr);
            }
        }
    }

    #[test]
    fn figure8_shape_total_falls_to_render_floor() {
        // 64 renderers, 512²: interframe falls from ~23 s at m=1 to the
        // 2 s render time at m=12 (the paper's Figure 8 knee)
        let c = lemieux64();
        let at = |m| simulate(IoStrategy::OneDip { input_procs: m }, &c, 60).steady_interframe();
        assert!(at(1) > 20.0);
        let m_opt = model::onedip_optimal_m(c.tf, c.tp, c.ts, c.tr);
        assert_eq!(m_opt, 12);
        assert!(
            (at(m_opt) - c.tr).abs() < 0.05,
            "at the predicted m the delay should equal Tr: {}",
            at(m_opt)
        );
        // and adding more input processors does not help further
        assert!((at(16) - c.tr).abs() < 1e-9);
        // monotone decreasing up to the knee
        let mut prev = f64::INFINITY;
        for m in 1..=16 {
            let d = at(m);
            assert!(d <= prev + 1e-9, "delay must not increase with m");
            prev = d;
        }
    }

    #[test]
    fn figure9_shape_onedip_stuck_twodip_reaches_tr() {
        // 128 renderers: Ts (1.2) > Tr (1.0)
        let c = lemieux128();
        let one = |m| simulate(IoStrategy::OneDip { input_procs: m }, &c, 80).steady_interframe();
        let two = |n| {
            simulate(IoStrategy::TwoDip { groups: n, per_group: 2 }, &c, 80).steady_interframe()
        };
        // 1DIP floors at Ts, above the render time
        assert!((one(22) - c.ts).abs() < 1e-9);
        assert!(one(22) > c.tr + 0.1);
        // 2DIP reaches the render time
        let n = model::twodip_n(c.tf, c.tp, c.ts, 2);
        assert!((two(n + 2) - c.tr).abs() < 1e-9, "2DIP delay {}", two(n + 2));
        // and 2DIP is at least as good as 1DIP at equal group counts
        for x in 1..=22 {
            assert!(two(x) <= one(x) + 1e-9, "x={x}: {} vs {}", two(x), one(x));
        }
    }

    #[test]
    fn adaptive_fetching_needs_fewer_input_processors() {
        // §6: level-8 fetching reaches best pipelining with 4 instead of 12
        let full = lemieux64();
        let adaptive = CostTable::lemieux(
            64,
            512,
            512,
            FigureOptions { adaptive_fetch_fraction: Some(0.25), ..Default::default() },
        );
        let knee = |c: &CostTable| {
            (1..=20)
                .find(|&m| {
                    let d =
                        simulate(IoStrategy::OneDip { input_procs: m }, c, 60).steady_interframe();
                    (d - c.tr).abs() < 0.05
                })
                .unwrap()
        };
        let k_full = knee(&full);
        let k_adaptive = knee(&adaptive);
        assert_eq!(k_full, 12);
        assert!(k_adaptive <= 4, "adaptive knee at {k_adaptive}");
    }

    #[test]
    fn figure12_lic_hidden_at_sixteen() {
        // VR + LIC, 64 renderers, 1DIP: cost fully hidden at 16 IPs
        let c = CostTable::lemieux(64, 512, 512, FigureOptions { lic: true, ..Default::default() });
        let at = |m| simulate(IoStrategy::OneDip { input_procs: m }, &c, 60).steady_interframe();
        assert!((at(16) - c.tr).abs() < 0.05, "LIC should be hidden at 16 IPs: {}", at(16));
        assert!(at(4) > c.tr + 1.0, "4 IPs cannot hide VR+LIC: {}", at(4));
    }

    #[test]
    fn saturation_caps_concurrent_fetch_benefit() {
        let c = CostTable { tf: 10.0, tp: 0.0, ts: 0.1, tr: 0.1, saturation: 4 };
        // beyond 4 streams the per-stream fetch time grows proportionally
        assert_eq!(c.tf_effective(1), 10.0);
        assert_eq!(c.tf_effective(4), 10.0);
        assert_eq!(c.tf_effective(8), 20.0);
        // so the delay stops improving once fetch saturates: beyond the
        // saturation point it converges to tf/saturation
        let d8 = simulate(IoStrategy::OneDip { input_procs: 8 }, &c, 200).steady_interframe();
        let d16 = simulate(IoStrategy::OneDip { input_procs: 16 }, &c, 200).steady_interframe();
        assert!((d16 - d8).abs() < 0.1, "saturated fetch cannot keep improving: {d8} vs {d16}");
        assert!((d8 - 10.0 / 4.0).abs() < 0.2, "converges to tf/saturation, got {d8}");
    }

    #[test]
    fn frame_times_monotone() {
        let c = lemieux64();
        for strat in
            [IoStrategy::OneDip { input_procs: 5 }, IoStrategy::TwoDip { groups: 3, per_group: 2 }]
        {
            let r = simulate(strat, &c, 40);
            for w in r.frame_done.windows(2) {
                assert!(w[1] > w[0], "frames must complete in order");
            }
            assert_eq!(r.interframe.len(), 40);
            assert!(r.total() >= r.steady_interframe() * 20.0);
        }
    }
}
