//! Sample statistics, digests, host facts and the report printer.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples
/// above it, with its nearest-rank value: `(percentile, value)`.
/// With fewer than eleven samples no such percentile exists and the
/// maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100, v.last().copied().unwrap_or(0.0));
    }
    // Nearest rank k = ceil(p/100 * n) must leave n - k >= 10 samples
    // beyond it.
    let mut p = 99u32;
    while p > 0 && (u64::from(p) * n as u64).div_ceil(100) as usize + 10 > n {
        p -= 1;
    }
    let k = ((u64::from(p) * n as u64).div_ceil(100) as usize).max(1);
    (p, v[k - 1])
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Where the host facts of a report come from.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl Host {
    /// Host facts; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(root),
        }
    }
}

/// The checked-out commit when the working directory is a git
/// repository, followed by a content hash of the simulator sources, so
/// a report from an exported tree still names the code it measured.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|h| {
            let h = h.trim();
            match h.strip_prefix("ref: ") {
                None => Some(h.to_string()),
                Some(r) => std::fs::read_to_string(git.join(r))
                    .ok()
                    .map(|s| s.trim().to_string())
                    .or_else(|| {
                        std::fs::read_to_string(git.join("packed-refs"))
                            .ok()
                            .and_then(|p| {
                                p.lines()
                                    .find(|l| l.ends_with(r))
                                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
                            })
                    }),
            }
        });
    let tree = source_hash(root);
    match head {
        Some(h) => format!("{h} (src {tree:016x})"),
        None => format!("src {tree:016x}"),
    }
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `crates/` and
/// `src/`, in sorted path order.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut h = FNV_BASIS;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        h = fnv(h, rel.to_string_lossy().as_bytes());
        h = fnv(h, &std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// One named metric of the final report.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value on the human-readable line.
    pub note: String,
}

/// Everything a run prints: human-readable lines, then one JSON object
/// as the last line of stdout.
#[derive(Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub guard_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric_note(name, value, unit, String::new());
    }

    pub fn metric_note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        // JSON has no NaN or infinity; an undefined ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Check a workload-shape guard; a failed guard makes the run
    /// incorrect.
    pub fn guard(&mut self, ok: bool, what: String) {
        self.line(format!(
            "guard {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.guard_failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guard_failures.is_empty() && self.attempted > 0
    }

    /// Print the report; the JSON object is the last line.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "metric {:<32} {:>16} {}{note}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A finite number in a form JSON accepts, with all its digits.
fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (50, 10.0));
        assert_eq!(tail(&[3.0, 1.0]), (100, 3.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
