//! The frozen benchmark (`benchmark/`, a workspace of its own) builds these
//! crates the way a downstream user does. Running its self-test here means
//! a change that breaks a name `sketchbench` imports, or a server it can no
//! longer drive, fails the workspace's own `cargo test`.
//!
//! The nested run measures the release `sketchd` that `cargo build
//! --release` left beside this test binary (through `SKETCHBENCH_SKETCHD`)
//! and builds into `benchmark/target`: it never asks for the lock on the
//! build directory the outer `cargo test` holds.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The target directory this test binary was built into
/// (`<target>/<profile>/deps/<binary>`).
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.ancestors()
        .nth(3)
        .expect("test binaries live in <target>/<profile>/deps")
        .to_path_buf()
}

#[test]
fn the_frozen_benchmark_builds_and_passes_its_self_test() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sketchd = target_dir().join("release").join("sketchd");
    assert!(
        sketchd.is_file(),
        "{} is missing: run `cargo build --release` before `cargo test`",
        sketchd.display()
    );
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["test", "--release", "--offline", "--manifest-path"])
        .arg(root.join("benchmark").join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", root.join("benchmark").join("target"))
        .env("SKETCHBENCH_SKETCHD", &sketchd)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "benchmark self-test failed: {}\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
