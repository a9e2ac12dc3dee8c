//! What the benchmark reads from `/proc`, and CPU pinning.
//!
//! Server CPU and memory are read from the child's `/proc/<pid>` entries, so the generator's
//! own work never pollutes them.

use std::fs;

/// CPU time a process has consumed so far, in nanoseconds.
///
/// Prefers `/proc/<pid>/task/*/schedstat` (nanosecond run time per thread); falls back to
/// `utime + stime` of `/proc/<pid>/stat` in clock ticks where the kernel has no schedstat.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let tasks = fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0u64;
    let mut seen = false;
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("schedstat")) {
            total += parse_schedstat(&text)?;
            seen = true;
        }
    }
    if seen {
        return Some(total);
    }
    parse_stat_ticks(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
        .map(|ticks| ticks * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat` on every Linux ABI.
const CLOCK_TICKS_PER_S: u64 = 100;

/// The first field of a `schedstat` line: time spent on a CPU, in nanoseconds.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` of a `/proc/<pid>/stat` line.  The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of a process (`VmHWM`), in kilobytes.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    parse_status_kb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?, "VmHWM:")
}

/// The kilobyte value of one `/proc/<pid>/status` line.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins process `pid` (0 = the caller) to one CPU; returns whether the kernel allowed it.
pub fn pin_to_cpu(pid: u32, cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a valid 8-byte CPU set that outlives the call, and the size passed
    // is its size; the call reads it and writes nothing.
    unsafe { sched_setaffinity(pid as i32, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The first line of a command's output, or `unknown` (the checkout the driver runs in is
/// not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where a result was measured: commit, CPU count, kernel and compiler.
pub fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    vec![
        ("commit", first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ("nproc", nproc.to_string()),
        (
            "kernel",
            fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        ),
        ("rustc", first_line_of("rustc", &["--version"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_reads_the_run_time() {
        assert_eq!(parse_schedstat("4933070 120 2\n"), Some(4_933_070));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn stat_survives_spaces_and_parentheses_in_the_command_name() {
        let line = "1234 (mpn bench) (x)) S 1 1234 1234 0 -1 4194560 100 0 0 0 \
                    250 70 0 0 20 0 2 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(320));
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_finds_the_peak_rss() {
        let text = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t   1536 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM:"), Some(1536));
        assert_eq!(parse_status_kb(text, "VmSwap:"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        let before = cpu_ns(pid).expect("own CPU time");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns(pid).expect("own CPU time") >= before);
        assert!(peak_rss_kb(pid).expect("own peak RSS") > 0);
    }
}
