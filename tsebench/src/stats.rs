//! Order statistics and machine facts shared by the workloads.

use std::path::Path;

/// Median of `values` (mean of the two middle values for an even
/// count); NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly above percentile `p`.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|v| **v > cut).count()
}

/// One line describing a timing: sample count, median and the highest
/// percentile that still has at least ten samples beyond it (the
/// maximum when there are too few samples for any).
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let n = values.len();
    let tail = if n > 10 {
        let p = (100.0 * (n - 10) as f64 / n as f64).floor();
        format!("p{p} {:.4}", percentile(values, p))
    } else {
        let max = values.iter().copied().fold(f64::NAN, f64::max);
        format!("max {max:.4}")
    };
    format!(
        "{name}: n {n}, median {:.4} {unit}, {tail} {unit}",
        median(values)
    )
}

/// Peak resident memory of process `pid` in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets process `pid`'s peak-RSS watermark to its current RSS, so the
/// next [`peak_rss_mb`] covers only what runs after the reset. Returns
/// false where the kernel does not support the reset.
pub fn reset_peak_rss(pid: u32) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// The host facts every result records.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Git commit of the measured tree, or a digest of its sources when
    /// the tree is not a git checkout.
    pub commit: String,
}

impl Machine {
    /// Probes the host. `TSEBENCH_RUSTC` / `TSEBENCH_COMMIT` (set by
    /// `run.py`) take precedence over probing.
    pub fn probe() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::env::var("TSEBENCH_RUSTC").unwrap_or_else(|_| {
            std::process::Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        });
        let commit = std::env::var("TSEBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
        Machine {
            nproc,
            cpu,
            rustc,
            commit,
        }
    }
}

/// The host-speed probe's levels as (table entries, dependent steps).
/// The chase runs over the first 16 KiB, 256 KiB, 4 MiB and 16 MiB of
/// one table of `u32`, so it passes through each level of the memory
/// hierarchy in turn; each level takes about 5 ms on the reference
/// host.
const PROBE_LEVELS: [(usize, usize); 4] = [
    (1 << 12, 1 << 20),
    (1 << 16, 1 << 19),
    (1 << 20, 1 << 17),
    (1 << 22, 1 << 15),
];

/// A fixed piece of work that times how fast the host runs right now.
///
/// On a shared host, other tenants slow this one by up to 2x for
/// seconds at a time, in its cores and in the caches and memory they
/// share. Timing this probe next to an operation and dividing it out
/// leaves the operation's own cost. The probe is the benchmark's own
/// code, so no change to the simulator moves it.
pub struct HostProbe {
    table: Vec<u32>,
}

impl HostProbe {
    /// Fills the probe's table from a fixed generator.
    pub fn new() -> HostProbe {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let entries = PROBE_LEVELS.iter().map(|l| l.0).max().unwrap_or(1);
        let table = (0..entries)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        HostProbe { table }
    }

    /// Seconds one pass of the probe takes: at each level, a chain of
    /// dependent table loads with hashing and a data-dependent branch
    /// at each step.
    pub fn seconds(&self) -> f64 {
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for (entries, steps) in PROBE_LEVELS {
            let mut i = 0usize;
            for _ in 0..steps {
                let v = u64::from(self.table[i]);
                acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(v);
                if acc & 0x10 != 0 {
                    acc ^= acc >> 29;
                }
                i = ((v ^ acc) as usize) & (entries - 1);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

/// Size of a file in bytes (0 if it cannot be read).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(&v, 90.0), 10);
    }

    #[test]
    fn this_process_reports_its_peak_rss() {
        let mb = peak_rss_mb(std::process::id()).expect("linux reports VmHWM");
        assert!(mb > 0.0);
    }
}
