//! The machine record every report carries: a number without the box it
//! was measured on cannot be compared with anything.

use std::process::Command;

/// Where and how a run was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Build profile of `sketchd` and of the in-process walk.
    pub profile: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

impl Env {
    /// Read the record off this machine.
    pub fn capture() -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel,
            rustc: first_line(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_string()),
            profile: "release (lto=thin, codegen-units=1)",
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(crate::proc::repo_root()),
            )
            .unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Jiffies of the aggregate `cpu` line of `/proc/stat`: `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Measures the share of CPU time the hypervisor gave to someone else
/// between [`start`](StealMeter::start) and [`pct`](StealMeter::pct).
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    at_start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Start measuring.
    pub fn start() -> Self {
        StealMeter {
            at_start: cpu_jiffies(),
        }
    }

    /// Steal since the start, as a percentage of all CPU time.
    pub fn pct(&self) -> f64 {
        match (self.at_start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}
