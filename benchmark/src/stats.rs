//! Order statistics and the `/proc` readers behind the CPU and memory
//! metrics.

use std::fs;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread this program prints is the spread the driver computes.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// On-CPU nanoseconds from one `/proc/<pid>/task/<tid>/schedstat` line
/// (`<run ns> <wait ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Seconds the hypervisor ran someone else while a vCPU of this guest was
/// runnable, summed over all vCPUs: the `steal` column of the first line of
/// `/proc/stat` text (`cpu user nice system idle iowait irq softirq steal
/// ...`, in 10 ms ticks).
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Steal time of this guest so far, 0 when `/proc/stat` is unreadable.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_steal_s(&s)).unwrap_or(0.0)
}

/// On-CPU time of this process's threads, split the way the per-layer
/// ledger needs it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSnapshot {
    /// All live threads.
    pub total_ns: u64,
    /// The `seg6-worker-*` shard threads.
    pub worker_ns: u64,
}

impl CpuSnapshot {
    /// Reads every live thread's `schedstat`. Threads that have exited are
    /// not listed any more, so take both ends of an interval while the same
    /// threads are alive.
    pub fn read() -> CpuSnapshot {
        let mut snap = CpuSnapshot::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return snap;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Some(ns) = fs::read_to_string(dir.join("schedstat")).ok().and_then(|t| parse_schedstat(&t))
            else {
                continue;
            };
            snap.total_ns += ns;
            let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.starts_with("seg6-worker-") {
                snap.worker_ns += ns;
            }
        }
        snap
    }

    /// CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuSnapshot) -> CpuSnapshot {
        CpuSnapshot {
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            worker_ns: self.worker_ns.saturating_sub(earlier.worker_ns),
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when `/proc` is
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), [15.0, 40.0, 120.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn schedstat_and_vm_hwm_parsers() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "cpu  620834 3208 82397 1256546 2961 0 21074 218 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_s(stat), Some(2.18));
        assert_eq!(parse_steal_s("intr 1 2 3\n"), None);
    }

    #[test]
    fn cpu_snapshot_reads_this_process() {
        let first = CpuSnapshot::read();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let second = CpuSnapshot::read();
        assert!(second.total_ns >= first.total_ns);
        assert!(peak_rss_mb() > 0.0);
    }
}
