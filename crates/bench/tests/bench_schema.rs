//! Schema and floors of the checked-in `BENCH_kernels.json`, the one bench
//! file of the workspace (`benches/kernels.rs` writes it; the served system
//! is priced by `sketchbench`, see `docs/BENCHMARKS.md`). Runs with the
//! ordinary test suite, so a renamed field, a missing row, a hand-edited
//! ratio or a re-recorded file whose fast path lost its edge fails the
//! build. The parser is deliberately minimal — the file is machine-written
//! with a fixed field order.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load() -> String {
    let path = root().join("BENCH_kernels.json");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("BENCH_kernels.json must be checked in at {path:?}: {e}"))
}

/// The text after the top-level `"name": ` of the machine-written file.
fn section<'a>(text: &'a str, name: &str) -> &'a str {
    text.split(&format!("\n  \"{name}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("missing section {name:?}"))
}

/// Extract the number following `"key": ` (flat, machine-written JSON).
fn field_f64(text: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("missing field {key:?}"));
    let rest = &text[at + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("field {key:?} is not a number: {e}"))
}

/// `recorded` must be the ratio the recorded rates imply, within `slack`.
fn assert_consistent(what: &str, recorded: f64, implied: f64, slack: f64) {
    assert!(
        (recorded - implied).abs() <= slack * implied,
        "{what} {recorded} inconsistent with the recorded rates ({implied:.3})"
    );
}

#[test]
fn the_file_has_every_section_a_machine_record_and_a_real_workload() {
    let text = load();
    assert_eq!(field_f64(&text, "schema_version") as u64, 1);
    assert!(text.contains("\"bench\": \"kernels\""));
    for name in ["workload", "ingest", "memory", "snapshot", "wal", "top_k"] {
        section(&text, name);
    }
    // The six keys a `sketchbench` report carries, none of them empty.
    let env = section(&text, "env").lines().next().expect("env line");
    assert!(field_f64(env, "nproc") >= 1.0);
    for key in ["cpu_model", "kernel", "rustc", "profile", "commit"] {
        let value = env
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .unwrap_or_else(|| panic!("env has no {key:?}"));
        assert!(!value.starts_with('"'), "env {key:?} is empty");
    }
    let workload = section(&text, "workload");
    assert!(
        field_f64(workload, "events") >= 1_000.0,
        "workload too small"
    );
    assert!(field_f64(workload, "trace_events") >= 1_000.0);
    assert!(field_f64(workload, "runs") >= 1.0);
    assert!(
        field_f64(workload, "mean_run_weight") > 1.0,
        "ingest trace not bursty"
    );
}

#[test]
fn batched_ingest_keeps_its_edge_on_every_backend() {
    let text = load();
    let ingest = section(&text, "ingest");
    let ingest = &ingest[..ingest.find(']').expect("ingest rows close")];
    let row = |backend: &str| {
        let chunk = ingest
            .split(&format!("\"backend\": \"{backend}\""))
            .nth(1)
            .unwrap_or_else(|| panic!("missing backend {backend}"));
        let speedup = field_f64(chunk, "speedup");
        let per_event = field_f64(chunk, "per_event_meps");
        let batched = field_f64(chunk, "batched_meps");
        assert!(speedup > 0.0 && per_event > 0.0 && batched > 0.0);
        assert_consistent("speedup", speedup, batched / per_event, 0.15);
        (speedup, batched)
    };
    row("ecm-dw");
    row("ecm-exact");
    // The paper-default ECM-EH ingests ≥ 5× faster through the batched
    // path on the bursty Zipf trace, and the slab grid keeps absolute
    // batched throughput above 100 Meps.
    let (eh, eh_meps) = row("ecm-eh");
    assert!(eh >= 5.0, "ECM-EH batched speedup regressed: {eh}x < 5x");
    assert!(
        eh_meps >= 100.0,
        "ECM-EH batched throughput regressed: {eh_meps} Meps < 100"
    );
    // The id-hash-bound randomized wave: the hoisted burst kernel plus the
    // shared-sampling grid must keep its batched edge above the 1.52× it
    // shipped with.
    let (rw, _) = row("ecm-rw");
    assert!(rw >= 1.6, "ECM-RW batched speedup regressed: {rw}x < 1.6x");
}

#[test]
fn the_slab_saves_at_least_30_percent_of_the_per_cell_layout() {
    let text = load();
    let memory = section(&text, "memory");
    assert!(memory.starts_with("{\"backend\": \"ecm-eh\""));
    let slab = field_f64(memory, "slab_bytes");
    let per_cell = field_f64(memory, "per_cell_bytes");
    let ratio = field_f64(memory, "ratio");
    assert!(slab > 0.0 && per_cell > slab);
    assert_consistent("ratio", ratio, slab / per_cell, 0.05);
    assert!(
        ratio <= 0.70,
        "slab memory saving regressed: ratio {ratio} > 0.70"
    );
}

#[test]
fn checkpoint_and_restore_meet_the_floors_at_both_fleet_sizes() {
    let text = load();
    let snapshot = section(&text, "snapshot");
    let snapshot = &snapshot[..snapshot.find(']').expect("snapshot rows close")];
    for keys in [10_000u64, 100_000] {
        let chunk = snapshot
            .split(&format!("\"keys\": {keys},"))
            .nth(1)
            .unwrap_or_else(|| panic!("missing {keys}-key row"));
        let resident = field_f64(chunk, "resident");
        let snapshot_bytes = field_f64(chunk, "snapshot_bytes");
        let full_ms = field_f64(chunk, "full_ms");
        let full_rate = field_f64(chunk, "full_keys_per_s");
        let restore_ms = field_f64(chunk, "restore_ms");
        let restore_rate = field_f64(chunk, "restore_keys_per_s");
        assert!(resident >= 1_000.0, "fleet too small to be meaningful");
        assert!(snapshot_bytes > 0.0 && full_ms > 0.0 && restore_ms > 0.0);
        assert_consistent("full rate", full_rate, resident / (full_ms / 1e3), 0.15);
        assert_consistent(
            "restore rate",
            restore_rate,
            resident / (restore_ms / 1e3),
            0.15,
        );
        // Measured ~300k / ~100k keys/s; an order of magnitude of headroom
        // against machine variance.
        assert!(
            full_rate >= 10_000.0,
            "full checkpoint throughput regressed: {full_rate} keys/s < 10k"
        );
        assert!(
            restore_rate >= 2_000.0,
            "restore latency regressed: {restore_rate} keys/s < 2k"
        );
    }
    assert_eq!(snapshot.matches("\"keys\": ").count(), 2, "two fleet sizes");
}

#[test]
fn the_log_costs_at_most_half_the_engines_ingest_rate() {
    let text = load();
    let wal = section(&text, "wal").lines().next().expect("wal line");
    let off = field_f64(wal, "off_meps");
    let on = field_f64(wal, "on_meps");
    let ratio = field_f64(wal, "on_over_off");
    assert!(off > 0.0 && on > 0.0 && field_f64(wal, "fsync_meps") > 0.0);
    assert_consistent("on_over_off", ratio, on / off, 0.05);
    // Ack-after-append is a buffered page-cache write on the shard's own
    // thread; it may not cost more than half the enqueue-is-ack rate.
    assert!(
        ratio >= 0.5,
        "durability tax regressed: on is {ratio}x of off (< 0.5)"
    );
}

#[test]
fn top_k_prunes_the_scan() {
    let text = load();
    let top_k = section(&text, "top_k");
    assert_eq!(field_f64(top_k, "resident_keys") as u64, 10_000);
    assert_eq!(field_f64(top_k, "k") as u64, 10);
    let pruned = field_f64(top_k, "pruned_us");
    let scan = field_f64(top_k, "scan_us");
    assert!(pruned > 0.0 && scan > 0.0);
    // The ranking reads one arrivals bound per key and scores the few
    // that can place; at 10 000 skewed keys that is orders of magnitude
    // under a scan. Below 5x, sketches are being scored wholesale again.
    assert!(
        scan >= 5.0 * pruned,
        "top_k at 10 000 keys: pruned {pruned} us vs scan {scan} us is under 5x"
    );
}

/// One instrument per question: a second bench file at the workspace root,
/// or a benchmark doc naming a file or bench target that is gone, is how
/// the parallel bench system this file replaced grew.
#[test]
fn there_is_one_bench_file_and_the_doc_names_only_what_exists() {
    let bench_files: Vec<String> = std::fs::read_dir(root())
        .expect("workspace root")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    assert_eq!(bench_files, ["BENCH_kernels.json"]);

    let doc = std::fs::read_to_string(root().join("docs/BENCHMARKS.md")).expect("the doc");
    let mut words = doc
        .split(|c: char| c.is_whitespace() || "`[]()\",;".contains(c))
        .map(|w| w.trim_end_matches('.'))
        .filter(|w| !w.is_empty());
    while let Some(word) = words.next() {
        // `Engine::start`-style and `file.rs:12`-style suffixes name the
        // file before the colon; globs and placeholders name no one file.
        let path = word.split(':').next().unwrap_or(word);
        let names_a_file = ["crates/", "benchmark/", "docs/", "tests/", ".github/"]
            .iter()
            .any(|dir| path.starts_with(dir))
            || (path.starts_with("BENCH") && path.ends_with(".json"));
        if names_a_file && !path.contains(['*', '<', '{']) {
            assert!(
                root().join(path).exists(),
                "the doc names {path}: no such file"
            );
        }
        if word == "--bench" {
            let target = words.next().expect("a target after --bench");
            assert!(
                root()
                    .join(format!("crates/bench/benches/{target}.rs"))
                    .exists(),
                "the doc names bench target {target}: no such target"
            );
        }
    }
}
