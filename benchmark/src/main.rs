//! The repository benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! quakeviz-benchmark run [--seed N] [--smoke]            every workload, one child process each
//! quakeviz-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                                                          one workload in this process (the driver's form)
//! quakeviz-benchmark compare BASE.json NEW.json          apply the bounds to two result files
//! quakeviz-benchmark selfcheck [--seed N] [--smoke]      two sets of the same build must agree
//! ```

mod bench;
mod json;
mod oracle;
mod report;
mod span;
mod spec;
mod stats;
mod sys;
mod walk;

use bench::Plan;
use json::Value;
use report::{Class, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const DEFAULT_SEED: u64 = 2004;

const USAGE: &str = "usage: quakeviz-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       quakeviz-benchmark compare BASE.json NEW.json\n       \
                     quakeviz-benchmark selfcheck [--seed N] [--smoke]";

/// Result files and walk traces go under the package, wherever the
/// command was started from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[derive(Debug, Default, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--workload" => {
                let name = value()?;
                if spec::workload(name).is_none() {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {}", known.join(", ")));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                out.seed =
                    Some(v.parse().map_err(|_| format!("--seed: {v:?} is not a whole number"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds: {s} is outside (0, 120]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is neither 0 nor 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// One workload in this process. Prints its tables, writes its result and
/// trace files, and ends standard output with the driver's result line.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let w = spec::workload(name).expect("validated while parsing");
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let plan = Plan {
        seed,
        smoke: args.smoke,
        seconds: args.seconds,
        // without --trace (a child of the full run) both halves are measured
        end_to_end: args.trace != Some(true),
        per_layer: args.trace != Some(false),
    };
    let out = bench::run_workload(w, &plan)?;
    out.result.print_tables(w.why, &out.layer_ranking);
    if let Some(tracer) = &out.trace {
        write_out(&format!("trace-{name}.json"), &tracer.to_json().to_pretty())?;
    }
    write_out(&format!("workload-{name}-{seed}.json"), &out.result.to_json().to_pretty())?;
    println!("{}", out.result.result_line(plan.end_to_end, plan.per_layer));
    Ok(out.result.correct)
}

/// Every workload, each in a child process of its own so that peak
/// memory is per workload; then the result file and the summary.
fn run_all(args: &RunArgs) -> Result<(bool, PathBuf), String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let started = Instant::now();
    let hygiene = sys::hygiene(seed, if args.smoke { "smoke" } else { "full" });
    println!("quakeviz benchmark: {}", hygiene.to_line());
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name, "--seed", &seed.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // the child inherits the terminal and is waited for here; exit
        // code 1 means it ran to the end and some frame failed
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        if !matches!(status.code(), Some(0 | 1)) {
            eprintln!("workload {}: child ended with {status}", w.name);
            continue;
        }
        let path = out_dir().join(format!("workload-{}-{seed}.json", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        results.push(WorkloadResult::from_json(&Value::parse(&text)?)?);
    }
    let wall = started.elapsed().as_secs_f64();
    let file = report::results_to_json(hygiene, wall, &results);
    let name = if args.smoke {
        format!("results-{seed}-smoke.json")
    } else {
        format!("results-{seed}.json")
    };
    let path = write_out(&name, &file.to_pretty())?;

    println!("\n== summary (seed {seed}, {wall:.1} s)");
    print!("   {:<22}", "end-to-end");
    for r in &results {
        print!(" {:>12}", r.name);
    }
    println!();
    for def in &spec::END_TO_END {
        print!("   {:<22}", format!("{} [{}]", def.name, def.unit));
        for r in &results {
            let v = r.end_to_end.iter().find(|m| m.name == def.name).map_or(f64::NAN, |m| m.value);
            print!(" {:>12}", report::short(v));
        }
        println!();
    }
    println!("   result file: {}", path.display());
    Ok((ok && results.len() == spec::WORKLOADS.len() && results.iter().all(|r| r.correct), path))
}

fn load_results(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
    report::results_from_json(&Value::parse(&text).map_err(at)?).map_err(at)
}

/// Apply the bounds to two result files; false if anything regressed.
fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let rows = report::compare(&load_results(base)?, &load_results(new)?);
    report::print_comparison(&rows);
    Ok(!rows.is_empty() && rows.iter().all(|r| r.class != Class::Regressed))
}

/// Two full sets of the same build, back to back: any end-to-end metric
/// that moved by more than its bound, either way, means the ruler is not
/// steady.
fn selfcheck(args: &RunArgs) -> Result<bool, String> {
    let (first_ok, first) = run_all(args)?;
    let kept = first.with_extension("first.json");
    std::fs::rename(&first, &kept).map_err(|e| format!("rename {}: {e}", first.display()))?;
    let (second_ok, second) = run_all(args)?;
    let rows = report::compare(&load_results(&kept)?, &load_results(&second)?);
    println!("\n== selfcheck: second set against the first");
    report::print_comparison(&rows);
    let moved: Vec<_> = rows.iter().filter(|r| r.worse_by.abs() > r.bound).collect();
    for r in &moved {
        eprintln!(
            "selfcheck: {} on {} moved by {:+.1} %",
            r.metric,
            r.workload,
            r.worse_by * 100.0
        );
    }
    Ok(first_ok && second_ok && !rows.is_empty() && moved.is_empty())
}

fn main() -> ExitCode {
    // the pipeline reads QUAKEVIZ_* defaults from the environment; the
    // benchmark's inputs are its own, so none may leak in. Nothing else
    // runs yet, so changing the environment here is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("QUAKEVIZ_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => parse_run_args(rest).and_then(|a| match a.workload.clone() {
            Some(name) => run_one(&name, &a),
            None if a.seconds.is_some() || a.trace.is_some() => {
                Err("--seconds and --trace go with --workload".into())
            }
            None => run_all(&a).map(|(ok, _)| ok),
        }),
        Some(("compare", [base, new])) => compare_files(Path::new(base), Path::new(new)),
        Some(("selfcheck", rest)) => parse_run_args(rest).and_then(|a| {
            if a.workload.is_some() || a.seconds.is_some() || a.trace.is_some() {
                return Err("selfcheck takes only --seed and --smoke".into());
            }
            selfcheck(&a)
        }),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("quakeviz-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_run_args(&args(&[
            "--workload",
            "ingest",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: Some("ingest".into()),
                seed: Some(7),
                seconds: Some(12.0),
                trace: Some(true),
                smoke: false
            }
        );
        assert_eq!(parse_run_args(&[]).unwrap(), RunArgs::default());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "1e9"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
