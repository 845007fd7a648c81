//! `sketchd` — the sketch server daemon.
//!
//! Zero-flag binary: everything is configured through `SKETCHD_*`
//! environment variables (defaults in parentheses):
//!
//! | Variable | Meaning |
//! |---|---|
//! | `SKETCHD_ADDR` | listen address (`127.0.0.1:7070`; port 0 = ephemeral) |
//! | `SKETCHD_SHARDS` | shard workers (4) |
//! | `SKETCHD_MAILBOX` | per-shard mailbox depth (128) |
//! | `SKETCHD_MAX_CONNS` | connection cap (64) |
//! | `SKETCHD_WINDOW` | sliding-window span in ticks (1 000 000) |
//! | `SKETCHD_CLOCK` | `time` or `count` window semantics (`time`) |
//! | `SKETCHD_EPSILON` | relative error ε (spec default) |
//! | `SKETCHD_DELTA` | failure probability δ (spec default) |
//! | `SKETCHD_SEED` | hash seed (spec default) |
//! | `SKETCHD_HIERARCHY_BITS` | stack a dyadic hierarchy of this width (off) |
//! | `SKETCHD_SNAPSHOT_DIR` | restore on start, final checkpoint on `SHUTDOWN` (off) |
//! | `SKETCHD_DURABILITY` | `1`/`true`: per-shard WAL, ack-after-append (off) |
//! | `SKETCHD_WAL_SEGMENT_BYTES` | WAL segment rotation threshold (4 MiB) |
//! | `SKETCHD_WAL_COMPACT_BYTES` | WAL compaction threshold (16 MiB) |
//! | `SKETCHD_WAL_FSYNC` | `1`/`true`: fsync every WAL append (off) |
//! | `SKETCHD_ADMISSION_TIMEOUT_MS` | how long a full mailbox blocks admission before shedding (5 000) |
//! | `SKETCHD_REQUEST_TIMEOUT_MS` | mailbox-request reply deadline (30 000) |
//! | `SKETCHD_HEALTH_DEADLINE_MS` | busy-this-long marks a shard wedged (2 000) |
//! | `SKETCHD_FAULTS` | deterministic fault plan (debug/`fault-injection` builds only; see README) |
//!
//! The process serves until a client sends `SHUTDOWN`.

use std::process::exit;
use std::time::Duration;

use sketch_server::{Server, ServerConfig, SketchSpec};

fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    env_var(name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("sketchd: {name}={v:?} does not parse");
            exit(2);
        })
    })
}

fn env_flag(name: &str) -> Option<bool> {
    env_var(name).map(|v| match v.as_str() {
        "1" | "true" | "on" | "yes" => true,
        "0" | "false" | "off" | "no" => false,
        other => {
            eprintln!("sketchd: {name}={other:?} must be a boolean (1/0/true/false)");
            exit(2);
        }
    })
}

fn spec_from_env() -> SketchSpec {
    let window: u64 = env_parse("SKETCHD_WINDOW").unwrap_or(1_000_000);
    let mut spec = match env_var("SKETCHD_CLOCK").as_deref() {
        None | Some("time") => SketchSpec::time(window),
        Some("count") => SketchSpec::count(window),
        Some(other) => {
            eprintln!("sketchd: SKETCHD_CLOCK={other:?} must be \"time\" or \"count\"");
            exit(2);
        }
    };
    if let Some(eps) = env_parse::<f64>("SKETCHD_EPSILON") {
        spec = spec.epsilon(eps);
    }
    if let Some(delta) = env_parse::<f64>("SKETCHD_DELTA") {
        spec = spec.delta(delta);
    }
    if let Some(seed) = env_parse::<u64>("SKETCHD_SEED") {
        spec = spec.seed(seed);
    }
    if let Some(bits) = env_parse::<u32>("SKETCHD_HIERARCHY_BITS") {
        spec = spec.hierarchy(bits);
    }
    spec
}

fn main() {
    let mut cfg = ServerConfig::new(spec_from_env())
        .addr(env_var("SKETCHD_ADDR").unwrap_or_else(|| "127.0.0.1:7070".to_string()));
    if let Some(shards) = env_parse("SKETCHD_SHARDS") {
        cfg = cfg.shards(shards);
    }
    if let Some(depth) = env_parse("SKETCHD_MAILBOX") {
        cfg = cfg.mailbox_depth(depth);
    }
    if let Some(conns) = env_parse("SKETCHD_MAX_CONNS") {
        cfg = cfg.max_connections(conns);
    }
    if let Some(dir) = env_var("SKETCHD_SNAPSHOT_DIR") {
        cfg = cfg.snapshot_dir(dir);
    }
    if let Some(on) = env_flag("SKETCHD_DURABILITY") {
        cfg = cfg.durability(on);
    }
    if let Some(bytes) = env_parse("SKETCHD_WAL_SEGMENT_BYTES") {
        cfg = cfg.wal_segment_bytes(bytes);
    }
    if let Some(bytes) = env_parse("SKETCHD_WAL_COMPACT_BYTES") {
        cfg = cfg.wal_compact_bytes(bytes);
    }
    if let Some(on) = env_flag("SKETCHD_WAL_FSYNC") {
        cfg = cfg.wal_fsync(on);
    }
    if let Some(ms) = env_parse::<u64>("SKETCHD_ADMISSION_TIMEOUT_MS") {
        cfg = cfg.admission_timeout(Duration::from_millis(ms));
    }
    if let Some(ms) = env_parse::<u64>("SKETCHD_REQUEST_TIMEOUT_MS") {
        cfg = cfg.request_timeout(Duration::from_millis(ms));
    }
    if let Some(ms) = env_parse::<u64>("SKETCHD_HEALTH_DEADLINE_MS") {
        cfg = cfg.health_deadline(Duration::from_millis(ms));
    }
    // Fault plans exist only in debug / `fault-injection` builds; gating the
    // lookup too keeps the knob's very name out of release binaries.
    #[cfg(any(debug_assertions, feature = "fault-injection"))]
    if let Some(plan) = env_var("SKETCHD_FAULTS") {
        cfg = cfg.fault_plan(plan);
    }
    let shards = cfg.shards;
    let snapshot = cfg.snapshot_dir.clone();
    let durable = cfg.durability;
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("sketchd: {e}");
        exit(1);
    });
    println!(
        "sketchd listening on {} ({shards} shards{}{})",
        server.local_addr(),
        match &snapshot {
            Some(dir) => format!(", snapshots in {}", dir.display()),
            None => String::new(),
        },
        if durable { ", wal on" } else { "" }
    );
    server.join();
    println!("sketchd stopped");
}
