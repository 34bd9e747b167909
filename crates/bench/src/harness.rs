//! A minimal benchmark harness (offline-build policy — no `criterion`
//! crate; see the workspace `Cargo.toml`): [`measure`] is what
//! `bench::baseline` times every stat with.
//!
//! Semantics: [`measure`] warms up once, then times individual
//! iterations of the body until a wall-clock budget or a sample-count
//! cap, whichever comes first, with a hard floor of [`MIN_SAMPLES`]
//! timed iterations so no result ever rests on fewer than three
//! samples. Every per-iteration wall time is recorded, so results carry
//! a full sample vector (median / p95 / min / max), and a run reports
//! whether the *budget* — not the sample cap — terminated sampling.
//! That is enough to compare algorithm variants and catch
//! order-of-magnitude regressions; it makes no claim to criterion's
//! statistical rigor, and the per-iteration `Instant` reads put a
//! ~20-40 ns floor under nanosecond-scale bodies.

use std::time::{Duration, Instant};

/// Hard floor on timed iterations: a benchmark result never rests on
/// fewer than this many samples, even when the body blows the budget.
pub const MIN_SAMPLES: usize = 3;

/// Opaque value barrier: prevents the optimizer from deleting a benchmark
/// body whose result is unused.
#[inline]
pub fn black_box<T>(v: T) -> T {
    std::hint::black_box(v)
}

/// One benchmark's recorded outcome: the full per-iteration sample
/// vector plus how sampling ended. This is the stable machine-readable
/// result type the bench baselines build on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Stable identifier, `group/function[/param]`.
    pub id: String,
    /// Wall time of each timed iteration, nanoseconds, in run order.
    pub samples_ns: Vec<u64>,
    /// True when the wall-clock budget (not the sample-count cap)
    /// terminated sampling — slow bodies under a tight budget.
    pub budget_limited: bool,
}

impl BenchResult {
    pub fn iters(&self) -> u64 {
        self.samples_ns.len() as u64
    }

    pub fn min_ns(&self) -> u64 {
        self.samples_ns.iter().copied().min().unwrap_or(0)
    }

    pub fn max_ns(&self) -> u64 {
        self.samples_ns.iter().copied().max().unwrap_or(0)
    }

    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().map(|&n| n as f64).sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Nearest-rank quantile over the recorded samples (exact, not
    /// bucketed — the full vector is kept).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }
}

/// Time `sample`d iterations of `f` under `budget`, recording each
/// iteration. The entry point the bench baselines use.
pub fn measure<O, F: FnMut() -> O>(
    id: &str,
    sample_cap: usize,
    budget: Duration,
    mut f: F,
) -> BenchResult {
    black_box(f()); // warmup / first-touch
    let cap = sample_cap.max(MIN_SAMPLES);
    let mut samples_ns = Vec::with_capacity(cap.min(4096));
    let mut budget_limited = false;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        black_box(f());
        samples_ns.push(t.elapsed().as_nanos() as u64);
        let n = samples_ns.len();
        if n >= cap {
            break;
        }
        if start.elapsed() >= budget && n >= MIN_SAMPLES {
            budget_limited = true;
            break;
        }
    }
    BenchResult { id: id.to_string(), samples_ns, budget_limited }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_three_samples_even_over_budget() {
        // a body slower than the whole budget must still be sampled
        // MIN_SAMPLES times, and the result must say the budget — not
        // the sample cap — ended sampling.
        let r = measure("slow", 1000, Duration::from_millis(1), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(r.iters(), MIN_SAMPLES as u64);
        assert!(r.budget_limited, "budget termination must be reported");
    }

    #[test]
    fn sample_cap_not_flagged_as_budget() {
        let r = measure("fast", 5, Duration::from_secs(10), || black_box(1 + 1));
        assert_eq!(r.iters(), 5);
        assert!(!r.budget_limited);
    }

    #[test]
    fn quantiles_exact_on_known_vector() {
        let r = BenchResult {
            id: "x".into(),
            samples_ns: vec![50, 10, 30, 20, 40],
            budget_limited: false,
        };
        assert_eq!(r.min_ns(), 10);
        assert_eq!(r.max_ns(), 50);
        assert_eq!(r.median_ns(), 30);
        assert_eq!(r.quantile_ns(1.0), 50);
        assert!((r.mean_ns() - 30.0).abs() < 1e-9);
    }
}
