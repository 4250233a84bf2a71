//! Std-only readers for the kernel's per-process accounting files.

use std::fs;

/// Clock ticks per second of the time fields in `/proc/[pid]/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
pub const USER_HZ: f64 = 100.0;

/// Bytes per unit of the `*_mb` memory metrics (MiB).
pub const MIB: f64 = 1024.0 * 1024.0;

/// User + system CPU seconds of the whole process (every thread, running
/// or already joined) from the text of `/proc/self/stat`.
pub fn cpu_seconds(stat: &str) -> Option<f64> {
    // Field 2 (`comm`) is parenthesised and may hold spaces or `)`:
    // count fields from the last `)`, where field 3 (`state`) starts.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // utime and stime are fields 14 and 15, i.e. the 12th and 13th after `)`.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmRSS`, …) in MiB.
pub fn status_mib(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: u64 = value.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb as f64 * 1024.0 / MIB)
    })
}

/// CPU seconds this process has used so far.
pub fn self_cpu_seconds() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_seconds(&text).expect("utime/stime fields in /proc/self/stat")
}

/// `key` of `/proc/self/status` in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current resident set).
pub fn self_status_mib(key: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_mib(&text, key).unwrap_or_else(|| panic!("{key} line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) R 1 4242 4242 0 -1 4194304 \
                        5021 0 0 0 1234 56 0 0 20 0 3 0 987654 123456789 4567 \
                        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tperfbench\nUmask:\t0022\nState:\tR (running)\n\
                          VmPeak:\t  900000 kB\nVmSize:\t  800000 kB\n\
                          VmHWM:\t  524288 kB\nVmRSS:\t  262144 kB\nThreads:\t3\n";

    #[test]
    fn stat_cpu_is_utime_plus_stime_in_user_hz() {
        // utime 1234 + stime 56 ticks, with a `comm` holding spaces and `)`.
        assert_eq!(cpu_seconds(STAT), Some(12.9));
    }

    #[test]
    fn stat_parser_rejects_truncated_text() {
        assert_eq!(cpu_seconds("17 (sh) S 1 2 3"), None);
        assert_eq!(cpu_seconds("no parenthesis at all"), None);
    }

    #[test]
    fn status_lines_convert_kb_to_mib() {
        assert_eq!(status_mib(STATUS, "VmHWM"), Some(512.0));
        assert_eq!(status_mib(STATUS, "VmRSS"), Some(256.0));
        // `VmHWM` must not match a longer key that merely starts with it.
        assert_eq!(status_mib("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(status_mib(STATUS, "VmSwap"), None);
    }

    #[test]
    fn live_process_files_parse() {
        assert!(self_cpu_seconds() >= 0.0);
        assert!(self_status_mib("VmHWM") > 0.0);
        assert!(self_status_mib("VmRSS") > 0.0);
    }
}
