//! What the harness reads from the operating system: process CPU time,
//! peak resident memory, core count, compiler version.

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture this runs on; reading
/// it properly needs `sysconf`, which needs a libc binding.
const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU time of this process (all threads) so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user: Duration,
    pub sys: Duration,
}

impl CpuTime {
    pub fn total(self) -> Duration {
        self.user + self.sys
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name in field 2 may contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let after = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user: Duration::from_secs_f64(utime / TICKS_PER_SECOND),
        sys: Duration::from_secs_f64(stime / TICKS_PER_SECOND),
    })
}

/// Process CPU time from `/proc/self/stat`; zero where there is no procfs.
pub fn cpu_time() -> CpuTime {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Cores the load generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `rustc --version`, or "unknown" when the compiler is not on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_command_name() {
        let line = "4242 (hdm bench) x) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0 100 200 300";
        let cpu = parse_stat_cpu(line).unwrap();
        assert_eq!(cpu.user, Duration::from_millis(2500));
        assert_eq!(cpu.sys, Duration::from_millis(750));
        assert_eq!(cpu.total(), Duration::from_millis(3250));
        assert!(parse_stat_cpu("garbage").is_none());
    }

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let a = cpu_time();
        assert!(cpu_time().since(a).total() < Duration::from_secs(5));
    }
}
