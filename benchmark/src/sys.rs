//! What the benchmark reads from the host: process CPU time and peak
//! resident memory from `/proc`, and the run hygiene recorded in every
//! result file.

use crate::json::Value;
use std::process::Command;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`: `USER_HZ`, which is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including
/// threads that have already exited. 0 where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // the command name (field 2) may hold spaces; fields count from the
    // closing parenthesis: state is field 3, utime 14, stime 15
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn load_average_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Conditions of the run, taken at its start.
pub fn hygiene(seed: u64, mode: &str) -> Value {
    let load = load_average_1m();
    if load > nproc() as f64 / 2.0 {
        eprintln!(
            "warning: 1-minute load average {load:.2} is above nproc/2 = {:.1}; timings will be noisy",
            nproc() as f64 / 2.0
        );
    }
    Value::obj([
        // of the tree this was built from, wherever it is run from; a
        // source tree that is not a git repository has no commit
        (
            "git_commit",
            Value::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("nproc", Value::Num(nproc() as f64)),
        ("load_average_1m", Value::Num(load)),
        ("seed", Value::Num(seed as f64)),
        ("mode", Value::Str(mode.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.05 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
