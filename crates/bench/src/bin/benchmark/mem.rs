//! Resident-memory readings from `/proc/self/status` (Linux only).
//!
//! Anywhere else every reading is `None` and the memory metrics are left
//! out of the result rather than printed as zeros.

/// Current resident set size (`VmRSS`) in KiB.
pub fn rss_kb() -> Option<f64> {
    status_kb("VmRSS:")
}

/// Peak resident set size of the process so far (`VmHWM`) in KiB.
pub fn rss_peak_kb() -> Option<f64> {
    status_kb("VmHWM:")
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, key)
}

fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status = "Name:\tbenchmark\nVmHWM:\t  123456 kB\nVmRSS:\t   98765 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(98765.0));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(123456.0));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_is_at_least_current() {
        let (rss, peak) = (rss_kb().unwrap(), rss_peak_kb().unwrap());
        assert!(rss > 0.0 && peak > 0.0);
    }
}
