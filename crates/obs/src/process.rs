//! Process-level resource metrics.
//!
//! The streaming pipeline's whole point is a flat memory profile, so the
//! proof has to be observable: `process_peak_rss_bytes` exposes the
//! high-water-mark resident set (Linux `VmHWM`) on `/metrics`, and the
//! CI streaming pass asserts a ceiling on it. On platforms without
//! `/proc` the reading is simply absent — a no-op, never an error.

use crate::registry::Registry;

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`). `None` where `/proc` does not exist
/// (non-Linux) or the field is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            // Format: "VmHWM:     123456 kB".
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Unix time (seconds) this process started, from `/proc/self/stat`
/// field 22 (`starttime`, USER_HZ ticks since boot) plus `/proc/stat`'s
/// `btime`. USER_HZ is 100 on every Linux ABI this workspace targets —
/// the kernel fixed it there when it decoupled the internal tick rate.
/// `None` where `/proc` does not exist or either field is missing.
pub fn start_time_seconds() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field (2) is an arbitrary string in parens; everything
    // numeric starts after the *last* ')'.
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3; starttime is field 22.
    let start_ticks: u64 = after.split_whitespace().nth(19)?.parse().ok()?;
    let boot = std::fs::read_to_string("/proc/stat").ok()?;
    let btime: u64 = boot
        .lines()
        .find_map(|l| l.strip_prefix("btime "))?
        .trim()
        .parse()
        .ok()?;
    Some(btime + start_ticks / 100)
}

/// Number of open file descriptors, by counting `/proc/self/fd`
/// entries (includes the descriptor reading the directory, matching
/// the Prometheus `process_open_fds` convention). `None` where `/proc`
/// does not exist.
pub fn open_fds() -> Option<u64> {
    let entries = std::fs::read_dir("/proc/self/fd").ok()?;
    Some(entries.filter(|e| e.is_ok()).count() as u64)
}

/// Refresh the `process_peak_rss_bytes` gauge on `registry`. Call before
/// serving a scrape or printing a metrics table; no-op where the reading
/// is unavailable.
pub(crate) fn record_peak_rss(registry: &Registry) {
    if let Some(bytes) = peak_rss_bytes() {
        registry.gauge("process_peak_rss_bytes").set(bytes as f64);
    }
}

/// Refresh every process gauge: `process_peak_rss_bytes`,
/// `process_start_time_seconds`, `process_open_fds`. Each is skipped
/// individually where its `/proc` source is unavailable.
pub fn record_process(registry: &Registry) {
    record_peak_rss(registry);
    if let Some(secs) = start_time_seconds() {
        registry
            .gauge("process_start_time_seconds")
            .set(secs as f64);
    }
    if let Some(fds) = open_fds() {
        registry.gauge("process_open_fds").set(fds as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_plausible_value() {
        let bytes = peak_rss_bytes().expect("linux exposes VmHWM");
        // More than a page, less than a terabyte.
        assert!(bytes > 4096, "peak rss {bytes}");
        assert!(bytes < 1 << 40, "peak rss {bytes}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn start_time_and_fds_read_plausible_values() {
        let start = start_time_seconds().expect("linux exposes starttime");
        // After 2001-09-09 (1e9) and not in the future by more than a
        // leap-smear's worth.
        assert!(start > 1_000_000_000, "start {start}");
        let fds = open_fds().expect("linux exposes /proc/self/fd");
        // At least stdin/stdout/stderr plus the readdir fd.
        assert!(fds >= 3, "fds {fds}");
        assert!(fds < 1_000_000, "fds {fds}");
    }

    #[test]
    fn record_process_sets_all_available_gauges() {
        let r = Registry::new();
        record_process(&r);
        let snap = r.snapshot();
        if start_time_seconds().is_some() {
            assert!(snap.get("process_start_time_seconds", &[]).is_some());
        }
        if open_fds().is_some() {
            assert!(snap.get("process_open_fds", &[]).is_some());
        }
    }

    #[test]
    fn record_peak_rss_sets_the_gauge_on_linux_only() {
        let r = Registry::new();
        record_peak_rss(&r);
        let snap = r.snapshot();
        match peak_rss_bytes() {
            Some(bytes) => {
                let got = match snap.get("process_peak_rss_bytes", &[]) {
                    Some(crate::registry::SampleValue::Gauge(v)) => *v,
                    other => panic!("expected gauge, got {other:?}"),
                };
                // The gauge may lag a subsequent allocation, never lead it.
                assert!(got as u64 <= bytes);
                assert!(got > 0.0);
            }
            None => assert!(snap.get("process_peak_rss_bytes", &[]).is_none()),
        }
    }
}
