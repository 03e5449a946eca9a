//! What the benchmark reads from the operating system: its own CPU time
//! and peak memory (Linux `/proc`), and the provenance of the build.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds consumed so far by the threads of this process that are
/// alive now: the sum of the on-CPU nanoseconds in each
/// `/proc/self/task/*/schedstat`. Differences are exact over a window in
/// which no thread exits — the timed loops start and stop no thread.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit the package directory is checked out at, or `"unknown"`
/// outside a git work tree.
pub fn git_commit() -> String {
    first_line_of(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
}
