//! Readers for the server process's `/proc` files and for host facts.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes the
/// user-visible `USER_HZ` at 100 on every architecture it supports.
pub const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set size, kB) from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut tokens = rest.split_whitespace();
        let value = tokens.next()?.parse().ok()?;
        (tokens.next() == Some("kB")).then_some(value)
    })
}

/// `(utime, stime)` in clock ticks from a `/proc/<pid>/stat` text. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime is field 14, stime 15.
    let utime = fields.get(11)?.parse().ok()?;
    let stime = fields.get(12)?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set size of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds `pid` has consumed so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|(u, s)| (u + s) as f64 / USER_HZ)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?;
            let kind = f.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tasap-server\nVmPeak:\t  912340 kB\nVmHWM:\t   48212 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(48212));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (asap (server) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    1234 567 0 0 20 0 5 0 999 123456 789 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some((1234, 567)));
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
    }
}
