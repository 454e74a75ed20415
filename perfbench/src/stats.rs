//! Percentiles, per-window figures and process accounting from
//! `/proc`.

use std::fs;

/// Nearest-rank quantile of `samples` (sorted in place), or 0 when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median of `values` (sorted in place), or 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Record `setup_s` from `times` (seconds, sorted in place), repeats
/// of one identical start: the median of their fastest quarter, the
/// rule [`Windows`] applies. `what` names the starts.
pub fn record_setup(report: &mut crate::Report, times: &mut [f64], what: &str) {
    let (n, all) = (times.len(), median(times));
    let kept = &mut times[..n.div_ceil(4)];
    let med = median(kept);
    if n > 0 {
        report.note(format!(
            "setup: median of the fastest {} of {n} {what}: {:.2} ms (all: median {:.2} ms)",
            kept.len(),
            med * 1e3,
            all * 1e3
        ));
    }
    report.set("setup_s", med);
}

/// One window of a run: work items done, the time they took, the CPU
/// they cost, and the latency of each timed call (ns).
pub struct Window {
    pub ops: u64,
    pub ns: u64,
    pub cpu_s: f64,
    pub lat: Vec<u64>,
}

/// A run cut into windows, each the same work from the same state, so
/// that windows differ only by the host's interference: on a shared
/// 2-vCPU host, much of it slows this machine's CPUs for seconds at a
/// time without showing as steal in `/proc/stat`. The figures come from
/// the quarter of the windows with the least time per item: throughput
/// and CPU per item are medians of their values, and the latency
/// percentiles pool their samples.
#[derive(Default)]
pub struct Windows {
    list: Vec<Window>,
}

impl Windows {
    pub fn push(&mut self, w: Window) {
        if w.ops > 0 && w.ns > 0 && !w.lat.is_empty() {
            self.list.push(w);
        }
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Record `ops_per_s`, `p50_us`, `p99_us` and `cpu_us_per_op`, and
    /// note the median rate over all windows; returns the number of
    /// windows kept and the latency samples they hold.
    pub fn report(mut self, report: &mut crate::Report) -> (usize, usize) {
        let rate = |w: &Window| w.ops as f64 * 1e9 / w.ns as f64;
        let mut rates: Vec<f64> = self.list.iter().map(rate).collect();
        report.note(format!(
            "median rate over all {} windows: {:.1} items/s",
            rates.len(),
            median(&mut rates)
        ));
        self.list.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        self.list.truncate(self.list.len().div_ceil(4));
        let mut rates: Vec<f64> = self.list.iter().map(rate).collect();
        let mut cpu: Vec<f64> = self
            .list
            .iter()
            .map(|w| w.cpu_s * 1e6 / w.ops as f64)
            .collect();
        let kept = self.list.len();
        let mut pool: Vec<u64> = self.list.into_iter().flat_map(|w| w.lat).collect();
        report.set("ops_per_s", median(&mut rates));
        report.set("cpu_us_per_op", median(&mut cpu));
        report.set("p50_us", quantile(&mut pool, 0.50) / 1e3);
        report.set("p99_us", quantile(&mut pool, 0.99) / 1e3);
        (kept, pool.len())
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this
/// one), all threads included; 0 if the process is gone.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// `(steal, total)` clock ticks of all CPUs from `/proc/stat`: time the
/// hypervisor gave this virtual machine's CPUs to other guests, and all
/// time; `(0, 0)` if unreadable.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time stolen between two [`steal_ticks`]
/// readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.0.saturating_sub(from.0) as f64 / to.1.saturating_sub(from.1).max(1) as f64
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; 0 if unknown.
pub fn vm_hwm_mib(pid: &str) -> f64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    fn windows(slow: &[u64]) -> Windows {
        let mut w = Windows::default();
        for &slow in slow {
            w.push(Window {
                ops: 10,
                ns: 10 * slow,
                cpu_s: slow as f64 * 1e-6,
                lat: vec![slow * 100; 10],
            });
        }
        w
    }

    /// The fastest quarter of the windows is kept, rounded up.
    #[test]
    fn windows_keep_the_fastest_quarter() {
        let mut r = crate::Report::default();
        assert_eq!(windows(&[4, 1, 3, 2]).report(&mut r), (1, 10));
        assert_eq!(r.get("ops_per_s"), 1e9);
        assert_eq!(r.get("cpu_us_per_op"), 0.1);
        assert_eq!(r.get("p99_us"), 0.1);

        assert_eq!(windows(&[4, 1, 3, 2, 5, 1, 6, 7]).report(&mut r), (2, 20));
        assert_eq!(r.get("p50_us"), 0.1);
        assert_eq!(windows(&[3, 2, 5, 1, 6]).report(&mut r), (2, 20));
        assert_eq!(r.get("ops_per_s"), 0.75e9);
        assert_eq!(r.get("p99_us"), 0.2);
    }

    #[test]
    fn setup_is_the_median_of_the_fastest_quarter() {
        let mut r = crate::Report::default();
        record_setup(&mut r, &mut [9.0, 2.0, 8.0, 1.0, 7.0, 6.0, 5.0], "starts");
        assert_eq!(r.get("setup_s"), 1.5);
    }

    #[test]
    fn own_process_accounting_is_readable() {
        assert!(vm_hwm_mib("self") > 0.0);
        assert!(cpu_seconds("self") >= 0.0);
    }
}
