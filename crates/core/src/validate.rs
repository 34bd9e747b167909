//! Measured-vs-predicted validation of the §5 analytic model.
//!
//! A [`PipelineReport`] carries span-derived per-stage timings; this
//! module condenses them into the model's four stage costs (`Tf`, `Tp`,
//! `Ts`, `Tr` — all expressed per *full* time step) and compares the
//! measured steady-state interframe delay against [`model::steady_delay`]
//! (or [`model::prefetch_delay`] for the overlapped runtime). The
//! `pipeline-report` binary prints the resulting table; tests use it to
//! check the real threaded pipeline tracks the closed form.

use crate::config::IoStrategy;
use crate::model;
use crate::pipeline::PipelineReport;
use std::fmt;

/// Measured stage costs and the model comparison for one pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct ModelValidation {
    /// Mean fetch seconds per full step (`Tf`). For 2DIP the per-member
    /// measurement is scaled back up by the group width, recovering the
    /// one-processor full-step cost the model is parameterized with.
    pub tf: f64,
    /// Mean preprocess seconds per full step, LIC included (`Tp`).
    pub tp: f64,
    /// Mean LIC-synthesis seconds per full step (part of `tp`). The
    /// prefetch model needs it split out: LIC runs on the consumer lane
    /// while the worker lane reads ahead.
    pub lic: f64,
    /// Mean block-distribution seconds per full step (`Ts`).
    pub ts: f64,
    /// Mean render + composite seconds per frame (`Tr`).
    pub tr: f64,
    /// Pipeline depth: 1DIP input-processor count or 2DIP group count.
    pub depth: usize,
    /// 2DIP group width (1 for 1DIP).
    pub width: usize,
    /// Median measured interframe delay — the steady-state estimate
    /// (robust against the pipeline-fill burst at the start of the run).
    pub measured_delay: f64,
    /// Mean measured interframe delay over all frames.
    pub mean_delay: f64,
    /// The analytic steady-state delay for the measured stage costs —
    /// from the synchronous §5 forms (`(Tf+Tp+Ts)/depth` numerator) or,
    /// when the run used the overlapped runtime, from the prefetch forms
    /// whose delay approaches the `max(Ts', Tr)` floor.
    pub predicted_delay: f64,
    /// Whether the run used the overlapped prefetch runtime (echoed from
    /// [`PipelineReport::prefetch`]; selects the prediction formula).
    pub prefetch: bool,
    /// Measured block-distribution compression (raw/wire bytes, ≥ 1).
    /// `Ts` is measured from live sends, so the wire codec's smaller
    /// payloads are already inside it — this records how much smaller;
    /// `ts * wire_ratio` estimates the raw-codec send cost.
    pub wire_ratio: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl ModelValidation {
    /// Condense `report` (run under `io`) into the model comparison.
    pub fn from_report(report: &PipelineReport, io: IoStrategy) -> ModelValidation {
        let (depth, width) = io.shape();
        let n = report.input_steps.len().max(1) as f64;
        let scale = width as f64;
        let tf = report.mean_read_seconds() * scale;
        let tp = report.mean_preprocess_seconds() * scale;
        let lic = report.input_steps.iter().map(|s| s.lic_s).sum::<f64>() / n * scale;
        let ts = report.input_steps.iter().map(|s| s.send_s).sum::<f64>() / n * scale;
        let tr = report.mean_render_seconds();
        let predicted_delay = if report.prefetch {
            // the prefetch form takes the LIC-free preprocess cost on the
            // worker lane and LIC on the consumer lane
            model::prefetch_delay(tf, tp - lic, lic, ts, tr, (depth, width))
        } else {
            model::steady_delay(tf, tp, ts, tr, (depth, width))
        };
        ModelValidation {
            tf,
            tp,
            lic,
            ts,
            tr,
            depth,
            width,
            measured_delay: median(report.interframe()),
            mean_delay: report.mean_interframe_delay(),
            predicted_delay,
            prefetch: report.prefetch,
            wire_ratio: report
                .wire
                .iter()
                .find(|w| w.class == quakeviz_rt::TagClass::BlockData)
                .map_or(1.0, |w| w.ratio()),
        }
    }

    /// Signed relative error of the measured steady delay vs the model
    /// (`0.1` = measured 10% slower than predicted).
    pub fn relative_error(&self) -> f64 {
        if self.predicted_delay > 0.0 {
            (self.measured_delay - self.predicted_delay) / self.predicted_delay
        } else {
            0.0
        }
    }
}

impl fmt::Display for ModelValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = if self.prefetch { ", prefetch" } else { "" };
        if self.width == 1 {
            writeln!(f, "model validation (1DIP, m={}{mode}):", self.depth)?;
        } else {
            writeln!(f, "model validation (2DIP, n={} x m={}{mode}):", self.depth, self.width)?;
        }
        writeln!(f, "  Tf fetch              {:>9.4} s/step", self.tf)?;
        writeln!(f, "  Tp preprocess         {:>9.4} s/step", self.tp)?;
        if self.lic > 0.0 {
            writeln!(f, "    of which LIC        {:>9.4} s/step", self.lic)?;
        }
        writeln!(f, "  Ts send               {:>9.4} s/step", self.ts)?;
        if self.wire_ratio > 1.001 {
            writeln!(
                f,
                "    wire ratio          {:>8.2}x (block data raw/wire; raw-codec Ts ≈ {:.4} s)",
                self.wire_ratio,
                self.ts * self.wire_ratio
            )?;
        }
        writeln!(f, "  Tr render+composite   {:>9.4} s/frame", self.tr)?;
        writeln!(
            f,
            "  interframe measured   {:>9.4} s (median; mean {:.4} s)",
            self.measured_delay, self.mean_delay
        )?;
        writeln!(
            f,
            "  interframe predicted  {:>9.4} s (rel err {:+.1}%)",
            self.predicted_delay,
            self.relative_error() * 100.0
        )?;
        if self.prefetch {
            let floor = (self.ts / self.width as f64).max(self.tr);
            writeln!(f, "  delay floor max(Ts', Tr) {:>6.4} s (overlapped runtime)", floor)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{InputStepTiming, RenderFrameTiming};
    use crate::reader::ReadStats;
    use quakeviz_rt::obs::TraceData;

    fn report(
        input_steps: Vec<InputStepTiming>,
        render_frames: Vec<RenderFrameTiming>,
        frame_done: Vec<f64>,
    ) -> PipelineReport {
        PipelineReport {
            frames: Vec::new(),
            frame_done,
            input_steps,
            render_frames,
            renderers: 2,
            input_procs: 2,
            level: 3,
            messages: 0,
            bytes_sent: 0,
            render_rank_seconds: Vec::new(),
            traffic: Vec::new(),
            prefetch: false,
            trace: TraceData::default(),
            degraded: Vec::new(),
            fault_events: Vec::new(),
            recovery: None,
            checkpoints: 0,
            resumed_from: None,
            wire: Vec::new(),
            wire_spec: String::new(),
            control_plans: Vec::new(),
        }
    }

    fn step(read_s: f64, pp_s: f64, send_s: f64) -> InputStepTiming {
        InputStepTiming {
            read: ReadStats { real_seconds: read_s, ..Default::default() },
            preprocess_s: pp_s,
            lic_s: 0.0,
            send_s,
            send_wait_s: 0.0,
        }
    }

    #[test]
    fn onedip_measured_stage_costs() {
        let r = report(
            vec![step(2.0, 0.5, 0.1), step(2.0, 0.5, 0.1)],
            vec![RenderFrameTiming { receive_s: 0.0, render_s: 0.8, composite_s: 0.2 }],
            vec![1.0, 2.0, 3.0, 4.5],
        );
        let v = ModelValidation::from_report(&r, IoStrategy::OneDip { input_procs: 3 });
        assert!((v.tf - 2.0).abs() < 1e-12);
        assert!((v.tp - 0.5).abs() < 1e-12);
        assert!((v.ts - 0.1).abs() < 1e-12);
        assert!((v.tr - 1.0).abs() < 1e-12);
        // onedip: max((2.0+0.5+0.1)/3, 0.1, 1.0) = 1.0
        assert!((v.predicted_delay - 1.0).abs() < 1e-12);
        // interframe deltas: 1.0, 1.0, 1.0, 1.5 -> median 1.0
        assert!((v.measured_delay - 1.0).abs() < 1e-12);
        assert!(v.relative_error().abs() < 1e-9);
    }

    #[test]
    fn twodip_scales_member_times_to_full_step() {
        // 2 groups of 2: each member measures half a step's fetch
        let r = report(
            vec![step(1.0, 0.25, 0.05); 4],
            vec![RenderFrameTiming { receive_s: 0.0, render_s: 0.3, composite_s: 0.0 }],
            vec![1.0, 2.0],
        );
        let v = ModelValidation::from_report(&r, IoStrategy::TwoDip { groups: 2, per_group: 2 });
        assert!((v.tf - 2.0).abs() < 1e-12, "full-step Tf should be 2x member time");
        assert!((v.ts - 0.1).abs() < 1e-12);
        let expect = model::steady_delay(2.0, 0.5, 0.1, 0.3, (2, 2));
        assert!((v.predicted_delay - expect).abs() < 1e-12);
    }

    #[test]
    fn prefetch_report_selects_the_overlap_model() {
        // read-dominated: sync predicts (Tf+Tp+Ts)/m, prefetch (Tf+Tp)/m
        let steps = vec![step(2.0, 0.5, 0.4), step(2.0, 0.5, 0.4)];
        let frames = vec![RenderFrameTiming { receive_s: 0.0, render_s: 0.1, composite_s: 0.0 }];
        let sync = report(steps.clone(), frames.clone(), vec![1.0, 2.0]);
        let mut pre = report(steps, frames, vec![1.0, 2.0]);
        pre.prefetch = true;
        let io = IoStrategy::OneDip { input_procs: 2 };
        let vs = ModelValidation::from_report(&sync, io);
        let vp = ModelValidation::from_report(&pre, io);
        assert!(vp.prefetch && !vs.prefetch);
        assert!((vs.predicted_delay - 2.9 / 2.0).abs() < 1e-12);
        assert!((vp.predicted_delay - 2.5 / 2.0).abs() < 1e-12);
        assert!(vp.predicted_delay < vs.predicted_delay);
        let text = vp.to_string();
        assert!(text.contains("prefetch"), "mode tag missing:\n{text}");
        assert!(text.contains("delay floor"), "floor row missing:\n{text}");
    }

    #[test]
    fn display_contains_the_table_rows() {
        let r = report(
            vec![step(1.0, 0.1, 0.05)],
            vec![RenderFrameTiming { receive_s: 0.0, render_s: 0.2, composite_s: 0.1 }],
            vec![0.5, 1.0],
        );
        let v = ModelValidation::from_report(&r, IoStrategy::OneDip { input_procs: 2 });
        let text = v.to_string();
        for needle in ["Tf fetch", "Tp preprocess", "Ts send", "Tr render", "measured", "predicted"]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
