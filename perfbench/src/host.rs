//! Readers for process resources and host facts, from `/proc` and the
//! checkout. Every result line carries the host facts, because a number is
//! only comparable with numbers taken on the same host.

use pp_engine::json::Json;
use std::path::Path;

/// CPU seconds (user + system, all threads, finished threads included)
/// this process has used so far, from `/proc/self/stat`.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is missing or malformed (non-Linux host).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let field = |i: usize| -> u64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    // utime and stime are fields 14 and 15 of the full line, so 11 and 12
    // after the state field that starts `rest`.
    (field(11) + field(12)) as f64 / clock_ticks_per_second()
}

/// `AT_CLKTCK` from the auxiliary vector: the unit of `utime`/`stime`.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, ticks)| ticks as f64)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line (non-Linux host).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// Logical CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` where the tree is not a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts for a result: `nproc`, the workload's thread count, CPU
/// model and git revision of the working directory.
#[must_use]
pub fn facts(threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("threads", Json::from(threads as u64)),
        ("cpu_model", Json::from(cpu_model())),
        ("git_rev", Json::from(git_rev(Path::new(".")))),
    ])
}
