//! Result records: what one workload's process hands back, the result
//! file of a whole benchmark, the human tables, and `compare`.

use crate::json::Value;
use crate::spec::{self, Better, MetricDef, FAILED_FRAME_SHARE};
use crate::stats::{highest_resolved_percentile, quartiles, relative_spread};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The per-run (or per-repetition) values `value` summarises, where
    /// the metric has them; `compare` takes its spread from these.
    pub runs: Vec<f64>,
}

impl Metric {
    pub fn new(def: &MetricDef, value: f64, runs: Vec<f64>) -> Metric {
        // adding 0.0 turns the -0.0 an empty float sum yields into 0.0
        Metric { name: def.name.into(), unit: def.unit.into(), value: value + 0.0, runs }
    }

    fn to_json(&self) -> Value {
        let mut fields =
            vec![("value", Value::Num(self.value)), ("unit", Value::Str(self.unit.clone()))];
        if !self.runs.is_empty() {
            fields.push(("runs", Value::nums(&self.runs)));
        }
        Value::obj(fields)
    }
}

fn metrics_to_json(metrics: &[Metric]) -> Value {
    Value::Obj(metrics.iter().map(|m| (m.name.clone(), m.to_json())).collect())
}

fn metrics_from_json(v: Option<&Value>) -> Result<Vec<Metric>, String> {
    let fields = v.and_then(Value::as_obj).ok_or("metrics object missing")?;
    fields
        .iter()
        .map(|(name, m)| {
            Ok(Metric {
                name: name.clone(),
                unit: m.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
                value: m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name} has no value"))?,
                runs: m
                    .get("runs")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default(),
            })
        })
        .collect()
}

/// Everything one workload's process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub timed_runs: usize,
    pub interframe_samples: usize,
    /// Samples beyond the p90 of the pooled delays; below ten the tail
    /// percentile is not resolved and the table says so.
    pub p90_samples_beyond: usize,
    pub wall_s: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("timed_runs", Value::Num(self.timed_runs as f64)),
            ("interframe_samples", Value::Num(self.interframe_samples as f64)),
            ("p90_samples_beyond", Value::Num(self.p90_samples_beyond as f64)),
            ("wall_s", Value::Num(self.wall_s)),
            ("end_to_end", metrics_to_json(&self.end_to_end)),
            ("per_layer", metrics_to_json(&self.per_layer)),
            ("notes", Value::Arr(self.notes.iter().cloned().map(Value::Str).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<WorkloadResult, String> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("{k} missing"));
        Ok(WorkloadResult {
            name: v.get("name").and_then(Value::as_str).ok_or("name missing")?.to_string(),
            correct: v.get("correct").and_then(Value::as_bool).ok_or("correct missing")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            timed_runs: num("timed_runs")? as usize,
            interframe_samples: num("interframe_samples")? as usize,
            p90_samples_beyond: num("p90_samples_beyond")? as usize,
            wall_s: num("wall_s")?,
            end_to_end: metrics_from_json(v.get("end_to_end"))?,
            per_layer: metrics_from_json(v.get("per_layer")).unwrap_or_default(),
            notes: v
                .get("notes")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_str).map(str::to_string).collect())
                .unwrap_or_default(),
        })
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. `failed_frame_share` is those two counts, not a
    /// metric of the line (a metric there may never be 0).
    pub fn result_line(&self, end_to_end: bool, per_layer: bool) -> String {
        let mut metrics = Vec::new();
        if end_to_end {
            metrics.extend(self.end_to_end.iter().filter(|m| m.name != FAILED_FRAME_SHARE));
        }
        if per_layer {
            metrics.extend(self.per_layer.iter());
        }
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    metrics
                        .into_iter()
                        .map(|m| {
                            let fields = [
                                ("value", Value::Num(m.value)),
                                ("unit", Value::Str(m.unit.clone())),
                            ];
                            (m.name.clone(), Value::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }

    pub fn print_tables(&self, why: &str, layer_ranking: &[(String, f64)]) {
        println!("\n== {} — {}", self.name, why);
        println!(
            "   {} timed runs, {} steady interframe samples ({} beyond p90; highest percentile with ten \
             beyond it: {}), {} of {} frames failed, {:.1} s",
            self.timed_runs,
            self.interframe_samples,
            self.p90_samples_beyond,
            highest_resolved_percentile(self.interframe_samples)
                .map_or("none".to_string(), |p| format!("p{p}")),
            self.failed,
            self.attempted,
            self.wall_s,
        );
        println!(
            "   {:<22} {:>12}  {:<9} {:>4}  {:<25} bound",
            "end-to-end", "value", "unit", "n", "q1 .. q3"
        );
        for m in &self.end_to_end {
            let def = spec::end_to_end(&m.name);
            let bound = match def {
                Some(d) if m.name == FAILED_FRAME_SHARE => format!("+{} (absolute)", d.bound),
                Some(d) if d.better == Better::Higher => format!("-{:.0} %", d.bound * 100.0),
                Some(d) => format!("+{:.0} %", d.bound * 100.0),
                None => String::new(),
            };
            let quart = quartiles(&m.runs)
                .map_or(String::new(), |(q1, q3)| format!("{} .. {}", short(q1), short(q3)));
            println!(
                "   {:<22} {:>12}  {:<9} {:>4}  {:<25} {}",
                m.name,
                short(m.value),
                m.unit,
                m.runs.len(),
                quart,
                bound
            );
        }
        if !self.per_layer.is_empty() {
            println!("   per-layer");
            for pair in self.per_layer.chunks(2) {
                let cell =
                    |m: &Metric| format!("{:<28} {:>12} {:<10}", m.name, short(m.value), m.unit);
                println!("   {}  {}", cell(&pair[0]), pair.get(1).map_or(String::new(), cell));
            }
        }
        if !layer_ranking.is_empty() {
            let total: f64 = layer_ranking.iter().map(|(_, us)| us).sum();
            println!(
                "   layer ranking (staged walk, self time per frame, {:.3} ms in all)",
                total / 1e3
            );
            for (layer, us) in layer_ranking {
                println!(
                    "   {:<22} {:>10.3} ms {:>6.1} %",
                    layer,
                    us / 1e3,
                    us / total.max(1e-9) * 100.0
                );
            }
        }
        for note in &self.notes {
            println!("   note: {note}");
        }
    }
}

/// A number for a table: four significant digits, no exponent games.
pub fn short(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

pub fn results_to_json(hygiene: Value, wall_s: f64, workloads: &[WorkloadResult]) -> Value {
    Value::obj([
        ("schema", Value::Num(1.0)),
        ("hygiene", hygiene),
        ("wall_s", Value::Num(wall_s)),
        ("workloads", Value::Arr(workloads.iter().map(WorkloadResult::to_json).collect())),
    ])
}

pub fn results_from_json(v: &Value) -> Result<Vec<WorkloadResult>, String> {
    v.get("workloads")
        .and_then(Value::as_arr)
        .ok_or("workloads missing")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative = better); absolute for `failed_frame_share`.
    pub worse_by: f64,
    pub bound: f64,
    pub spread: f64,
    pub class: Class,
}

/// Classify one metric of one workload. `worse_by` beyond the bound is a
/// regression, beyond it the other way an improvement; where the wider
/// of the two run-to-run spreads exceeds the bound and the two sets of
/// runs overlap, the verdict is `Unresolved` whatever the medians say.
pub fn classify(def: &MetricDef, base: &Metric, new: &Metric) -> Comparison {
    let absolute = def.name == FAILED_FRAME_SHARE;
    let sign = if def.better == Better::Higher { -1.0 } else { 1.0 };
    let worse_by = if absolute {
        new.value - base.value
    } else if base.value != 0.0 {
        sign * (new.value - base.value) / base.value.abs()
    } else {
        0.0
    };
    let spread = relative_spread(&base.runs).max(relative_spread(&new.runs));
    let (blo, bhi) = range(base);
    let (nlo, nhi) = range(new);
    let overlap = !base.runs.is_empty() && !new.runs.is_empty() && blo <= nhi && nlo <= bhi;
    let class = if !absolute && spread > def.bound && overlap {
        Class::Unresolved
    } else if worse_by > def.bound {
        Class::Regressed
    } else if worse_by < -def.bound {
        Class::Improved
    } else {
        Class::Unchanged
    };
    Comparison {
        workload: String::new(),
        metric: def.name.into(),
        base: base.value,
        new: new.value,
        worse_by,
        bound: def.bound,
        spread,
        class,
    }
}

fn range(m: &Metric) -> (f64, f64) {
    m.runs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Every (workload, end-to-end metric) pairing present in both files.
pub fn compare(base: &[WorkloadResult], new: &[WorkloadResult]) -> Vec<Comparison> {
    let mut out = Vec::new();
    for b in base {
        let Some(n) = new.iter().find(|n| n.name == b.name) else { continue };
        for def in &spec::END_TO_END {
            let find =
                |r: &WorkloadResult| r.end_to_end.iter().find(|m| m.name == def.name).cloned();
            if let (Some(bm), Some(nm)) = (find(b), find(n)) {
                out.push(Comparison { workload: b.name.clone(), ..classify(def, &bm, &nm) });
            }
        }
    }
    out
}

pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<10} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound", "spread"
    );
    for r in rows {
        let pct = |v: f64| format!("{:+.1} %", v * 100.0);
        let (worse, bound) = if r.metric == FAILED_FRAME_SHARE {
            (format!("{:+.4}", r.worse_by), "0 abs".to_string())
        } else {
            (pct(r.worse_by), format!("{:.0} %", r.bound * 100.0))
        };
        println!(
            "{:<10} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8}  {}",
            r.workload,
            r.metric,
            short(r.base),
            short(r.new),
            worse,
            bound,
            format!("{:.1} %", r.spread * 100.0),
            match r.class {
                Class::Improved => "improved",
                Class::Unchanged => "unchanged",
                Class::Regressed => "REGRESSED",
                Class::Unresolved => "unresolved",
            }
        );
    }
    let count = |c: Class| rows.iter().filter(|r| r.class == c).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved; every share is of its base value",
        count(Class::Improved),
        count(Class::Unchanged),
        count(Class::Regressed),
        count(Class::Unresolved),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, runs: &[f64]) -> Metric {
        Metric { name: name.into(), unit: "ms".into(), value, runs: runs.to_vec() }
    }

    #[test]
    fn classify_applies_bound_direction_and_spread() {
        // the table's directions with a bound of this test's own
        let with_bound = |name: &str| MetricDef { bound: 0.07, ..*spec::end_to_end(name).unwrap() };
        let p50 = &with_bound("interframe_p50_ms"); // lower is better
        let tight = |v: f64| metric(p50.name, v, &[v * 0.99, v, v * 1.01, v * 1.005, v * 0.995]);
        assert_eq!(classify(p50, &tight(100.0), &tight(103.0)).class, Class::Unchanged);
        assert_eq!(classify(p50, &tight(100.0), &tight(110.0)).class, Class::Regressed);
        assert_eq!(classify(p50, &tight(100.0), &tight(90.0)).class, Class::Improved);
        let c = classify(p50, &tight(100.0), &tight(110.0));
        assert!((c.worse_by - 0.10).abs() < 1e-12 && c.base == 100.0);

        let fps = &with_bound("frames_per_s"); // higher is better
        assert_eq!(classify(fps, &tight(100.0), &tight(90.0)).class, Class::Regressed);
        assert_eq!(classify(fps, &tight(100.0), &tight(110.0)).class, Class::Improved);

        // spread wider than the bound and runs overlapping: unresolved,
        // even though the medians differ by more than the bound
        let wide = |v: f64| metric(p50.name, v, &[v * 0.8, v * 0.9, v, v * 1.1, v * 1.2]);
        assert_eq!(classify(p50, &wide(100.0), &wide(110.0)).class, Class::Unresolved);
        // ... unless every run of one side beats every run of the other
        assert_eq!(classify(p50, &wide(100.0), &wide(200.0)).class, Class::Regressed);
    }

    #[test]
    fn failed_frame_share_is_absolute() {
        let def = spec::end_to_end(FAILED_FRAME_SHARE).unwrap();
        let m = |v: f64| metric(def.name, v, &[]);
        assert_eq!(classify(def, &m(0.0), &m(0.0)).class, Class::Unchanged);
        assert_eq!(classify(def, &m(0.0), &m(0.001)).class, Class::Regressed);
        assert_eq!(classify(def, &m(0.01), &m(0.0)).class, Class::Improved);
    }

    #[test]
    fn result_round_trips_and_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            name: "movie".into(),
            correct: true,
            attempted: 126,
            failed: 0,
            timed_runs: 5,
            interframe_samples: 110,
            p90_samples_beyond: 11,
            wall_s: 54.25,
            end_to_end: vec![
                metric("frames_per_s", 3.9312, &[3.83, 3.93, 4.05]),
                metric(FAILED_FRAME_SHARE, 0.0, &[]),
            ],
            per_layer: vec![metric("walk.frame_ms", 412.5, &[])],
            notes: vec!["a note".into()],
        };
        let file = results_to_json(
            Value::obj([("seed", Value::Num(2004.0))]),
            60.0,
            std::slice::from_ref(&r),
        );
        let back = results_from_json(&Value::parse(&file.to_pretty()).unwrap()).unwrap();
        assert_eq!(back, vec![r.clone()]);

        let line = Value::parse(&r.result_line(true, false)).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), 1, "failed_frame_share is carried by the counts");
        assert_eq!(metrics[0].0, "frames_per_s");
        assert_eq!(metrics[0].1.as_obj().unwrap().len(), 2);
        let layers = Value::parse(&r.result_line(false, true)).unwrap();
        assert_eq!(layers.get("metrics").unwrap().as_obj().unwrap()[0].0, "walk.frame_ms");
    }

    #[test]
    fn compare_pairs_workloads_by_name() {
        let mk = |name: &str, fps: f64| WorkloadResult {
            name: name.into(),
            correct: true,
            attempted: 1,
            failed: 0,
            timed_runs: 1,
            interframe_samples: 1,
            p90_samples_beyond: 0,
            wall_s: 1.0,
            end_to_end: vec![metric("frames_per_s", fps, &[])],
            per_layer: vec![],
            notes: vec![],
        };
        let rows = compare(&[mk("movie", 4.0), mk("ingest", 100.0)], &[mk("ingest", 70.0)]);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].workload.as_str(), rows[0].class), ("ingest", Class::Regressed));
    }
}
