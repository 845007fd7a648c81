//! The system under test as a child process: build it, spawn it, read its
//! CPU time and memory from `/proc`, kill it.

use std::ffi::{c_int, c_ulong};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use crate::gen::WINDOW;

/// The repo root: the directory holding `benchmark/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repo")
        .to_path_buf()
}

/// Scratch directory for WAL data, traces and reports; inside the
/// benchmark's own directory and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build `sketchd` from the repo's sources with the repo's release profile
/// (a no-op when it is fresh) and return the binary's path. Honors
/// `CARGO_TARGET_DIR` the way cargo does: relative to the current
/// directory. `SKETCHBENCH_SKETCHD=<path>` skips the build and measures
/// that binary instead — how a parent commit's server and a change's are
/// alternated under one benchmark binary.
pub fn build_sketchd() -> Result<PathBuf, String> {
    if let Some(bin) = std::env::var_os("SKETCHBENCH_SKETCHD") {
        return Ok(PathBuf::from(bin));
    }
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "server"])
        .args(["--bin", "sketchd", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sketchd failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("sketchd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo succeeded but {} is missing", bin.display()))
    }
}

/// How one `sketchd` is configured. Everything not named here stays at the
/// shipped default, so a change of a default is measured.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The binary from [`build_sketchd`].
    pub bin: PathBuf,
    /// `Some(dir)` turns durability on with its WAL and checkpoints there.
    pub data_dir: Option<PathBuf>,
}

extern "C" {
    /// `prctl(2)` from the C library the standard library already links.
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

/// A running `sketchd`. Dropping it kills the process and waits for it, so
/// no exit path of the benchmark leaves a server behind.
#[derive(Debug)]
pub struct Sketchd {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Sketchd {
    /// Exec `sketchd` on an ephemeral loopback port and wait for its
    /// "listening" line.
    pub fn spawn(spec: &ServerSpec) -> Result<Sketchd, String> {
        let mut cmd = Command::new(&spec.bin);
        cmd.env("SKETCHD_ADDR", "127.0.0.1:0")
            .env("SKETCHD_SHARDS", "2")
            .env("SKETCHD_WINDOW", WINDOW.to_string())
            .env("SKETCHD_SEED", "7")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(dir) = &spec.data_dir {
            cmd.env("SKETCHD_SNAPSHOT_DIR", dir)
                .env("SKETCHD_DURABILITY", "1");
        }
        // If the benchmark itself is killed (a driver's timeout), `Drop`
        // never runs; a server left behind would load the host for every
        // later measurement. Ask the kernel to kill it with its parent.
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call with constant arguments.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot exec {}: {e}", spec.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // "sketchd listening on 127.0.0.1:PORT (2 shards…)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|tok| tok.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Sketchd { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "sketchd did not announce its port: {read:?} {line:?}"
                ))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system) the process has used so far, summed over
    /// its live threads from `schedstat` (nanosecond resolution), or from
    /// the 10 ms ticks of `stat` where the kernel has no `schedstat`.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds_of(self.pid())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// `SIGKILL` and reap — what dropping does, by name.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Sketchd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// See [`Sketchd::cpu_seconds`]; `pid` may be this process.
pub fn cpu_seconds_of(pid: u32) -> f64 {
    let mut nanos: u64 = 0;
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let on_cpu = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            if let Some(ns) = on_cpu {
                nanos += ns;
                seen = true;
            }
        }
    }
    if seen {
        return nanos as f64 / 1e9;
    }
    // Fields 14 and 15 of /proc/<pid>/stat, counted after the ")" that
    // closes the command name (which may itself contain spaces).
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
