//! What every result is stamped with, and the process's own memory.

use std::path::Path;
use std::process::Command;

/// Hardware threads the process may use.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `release` or `debug`.
#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// First line of a command's standard output, or `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V`.
#[must_use]
pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("-V"))
}

/// The commit checked out in the working directory, or `unknown` when it
/// is not a git repository. The search stops at the working directory,
/// so an enclosing repository is never reported.
#[must_use]
pub fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mountinfo`.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process has used, all threads, seconds (`/proc/self/stat`
/// utime + stime, in USER_HZ = 100 ticks per second). CPU time the host
/// steals is not charged to the process.
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(") ")?.1;
            let f: Vec<&str> = rest.split(' ').collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let v: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect();
            Some((v.get(7).copied().unwrap_or(0), v.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}
