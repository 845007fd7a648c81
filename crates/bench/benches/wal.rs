//! **Write-ahead-log cost and recovery speed.**
//!
//! Prices the durability tentpole twice over:
//!
//! 1. **Ingest tax** — the same keyed trace through the sharded engine
//!    with durability off (enqueue-is-ack) and on (ack-after-append):
//!    the on/off throughput ratio is the price of never losing an acked
//!    event. Both runs end after a `stats()` round-trip, which drains the
//!    FIFO shard mailboxes, so the two numbers compare *applied* work.
//! 2. **Replay speed** — crash recovery is latest snapshot + WAL replay;
//!    its cost grows with the log, so the bench replays logs of several
//!    lengths into a fresh fleet and reports events/second each.
//!
//! 3. **A weighted trace** — lines that stand for 8 occurrences on average,
//!    as `sketchd` logs them (one runs record per batch): log bytes per
//!    occurrence, and how far a replay's memory rises above the store it
//!    builds, as a share of the log (it holds one decoded record, so the
//!    share falls as the log grows).
//!
//! Results print as a table and land in `BENCH_wal.json` at the workspace
//! root (`BENCH_WAL_OUT` overrides the path); the schema and floors are
//! validated by `crates/bench/tests/bench_schema.rs`. Scale with
//! `ECM_EVENTS` (default 200 000).

use std::time::Instant;

use ecm::wal::{
    encode_checkpoint, encode_ingest, encode_runs, encode_segment_header, WalSegment,
    WalSegmentHeader,
};
use ecm::{SketchSpec, SketchStore, StreamEvent};
use ecm_bench::alloc::{peak_above_result, Counting};
use ecm_bench::event_budget;
use sketch_server::{Engine, ServerConfig};
use stream_gen::{SeededRng, ZipfSampler};

/// Counts what the replay of the weighted row holds; a thread-local
/// increment per allocation, which the timed rows do not notice.
#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WINDOW: u64 = 1_000_000;
const ZIPF_SKEW: f64 = 1.05;
const SITES: u64 = 1_000;
const BATCH: usize = 1_024;
const SHARDS: usize = 4;
const EPS: f64 = 0.3;
const DELTA: f64 = 0.25;
const SEED: u64 = 31;

fn spec() -> SketchSpec {
    SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(DELTA)
        .seed(SEED)
}

/// Zipf-keyed trace in the engine's wire shape: (tenant, event, count).
fn engine_trace(events: usize, seed: u64) -> Vec<(String, StreamEvent, u64)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let tenants = ZipfSampler::new(SITES, ZIPF_SKEW);
    let mut ts = 1u64;
    (0..events)
        .map(|_| {
            ts += rng.gen_range(0..2u64);
            let tenant = tenants.sample(&mut rng);
            let item = rng.gen_range(0..64u64);
            (format!("site-{tenant}"), StreamEvent::new(item, ts), 1u64)
        })
        .collect()
}

/// A scratch dir under the system temp root, wiped before use.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecm-bench-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Push the whole trace through one engine and return applied Meps: the
/// clock stops only after `stats()` has round-tripped every mailbox.
fn measure_engine(cfg: &ServerConfig, trace: &[(String, StreamEvent, u64)]) -> f64 {
    let engine = Engine::start(cfg).expect("engine starts");
    let start = Instant::now();
    for chunk in trace.chunks(BATCH) {
        engine.ingest(chunk).expect("ingest acked");
    }
    let stats = engine.stats().expect("stats");
    let secs = start.elapsed().as_secs_f64();
    let applied: u64 = stats
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(|s| s.ingested)
        .sum();
    assert_eq!(applied, trace.len() as u64, "events lost in flight");
    engine.shutdown().expect("shutdown");
    trace.len() as f64 / secs / 1e6
}

struct ReplayRow {
    wal_events: usize,
    wal_bytes: usize,
    replay_ms: f64,
    replay_meps: f64,
}

/// Encode `events` as one genesis segment and measure a cold replay into a
/// fresh fleet (best of two; the first run warms allocators).
fn measure_replay(events: &[(u64, StreamEvent)]) -> ReplayRow {
    let mut log = encode_segment_header(&WalSegmentHeader {
        shard: 0,
        segment: 1,
        base_record_seq: 0,
        base_checkpoint_seq: 0,
    });
    encode_checkpoint(1, 0, &mut log);
    for (seq0, chunk) in events.chunks(BATCH).enumerate() {
        encode_ingest(2 + seq0 as u64, chunk, &mut log);
    }

    let mut secs = f64::INFINITY;
    let mut applied = 0;
    for _ in 0..2 {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).expect("valid spec");
        let start = Instant::now();
        let report = ecm::wal::replay(
            &mut store,
            0,
            &[WalSegment {
                index: 1,
                bytes: &log,
            }],
        )
        .expect("log replays");
        secs = secs.min(start.elapsed().as_secs_f64());
        applied = report.applied_events;
    }
    assert_eq!(applied, events.len() as u64, "replay lost events");
    ReplayRow {
        wal_events: events.len(),
        wal_bytes: log.len(),
        replay_ms: secs * 1e3,
        replay_meps: events.len() as f64 / secs / 1e6,
    }
}

struct WeightedRow {
    mean_weight: f64,
    log_bytes: usize,
    bytes_per_occurrence: f64,
    replay_peak_bytes: usize,
}

/// `occurrences` arrivals as string-keyed runs of weight 1..=15, logged a
/// batch per runs record and replayed into a fresh fleet.
fn measure_weighted(occurrences: usize) -> WeightedRow {
    let mut runs = engine_trace(occurrences / 8, 23);
    let mut rng = SeededRng::seed_from_u64(29);
    for run in &mut runs {
        run.2 = rng.gen_range(1..16u64);
    }
    let total: u64 = runs.iter().map(|r| r.2).sum();
    let mut log = encode_segment_header(&WalSegmentHeader {
        shard: 0,
        segment: 1,
        base_record_seq: 0,
        base_checkpoint_seq: 0,
    });
    encode_checkpoint(1, 0, &mut log);
    let mut body = Vec::new();
    for (seq, chunk) in (2..).zip(runs.chunks(BATCH)) {
        encode_runs(seq, chunk, &mut body, &mut log);
    }
    let mut store: SketchStore<String> = SketchStore::new(spec()).expect("valid spec");
    let segment = [WalSegment {
        index: 1,
        bytes: &log,
    }];
    let (replay_peak_bytes, report) =
        peak_above_result(|| ecm::wal::replay(&mut store, 0, &segment));
    assert_eq!(report.expect("log replays").applied_events, total);
    WeightedRow {
        mean_weight: total as f64 / runs.len() as f64,
        log_bytes: log.len(),
        bytes_per_occurrence: log.len() as f64 / total as f64,
        replay_peak_bytes,
    }
}

fn render_json(
    events: usize,
    off_meps: f64,
    on_meps: f64,
    fsync_meps: f64,
    rows: &[ReplayRow],
    weighted: &WeightedRow,
) -> String {
    let mut replay = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            replay.push_str(",\n");
        }
        replay.push_str(&format!(
            "    {{\"wal_events\": {}, \"wal_bytes\": {}, \"replay_ms\": {:.3}, \
             \"replay_meps\": {:.4}}}",
            r.wal_events, r.wal_bytes, r.replay_ms, r.replay_meps
        ));
    }
    format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"wal\",\n  \"workload\": {{\n    \
         \"events\": {events},\n    \"batch\": {BATCH},\n    \"shards\": {SHARDS},\n    \
         \"sites\": {SITES},\n    \"zipf_skew\": {ZIPF_SKEW},\n    \"epsilon\": {EPS},\n    \
         \"delta\": {DELTA},\n    \"window\": {WINDOW}\n  }},\n  \"ingest\": {{\n    \
         \"off_meps\": {off_meps:.4},\n    \"on_meps\": {on_meps:.4},\n    \
         \"on_over_off\": {:.4},\n    \"fsync_meps\": {fsync_meps:.4}\n  }},\n  \
         \"replay\": [\n{replay}\n  ],\n  \"weighted\": {{\"mean_weight\": {:.2}, \
         \"log_bytes\": {}, \"bytes_per_occurrence\": {:.3}, \"replay_peak_bytes\": {}, \
         \"replay_peak_bytes_over_log_bytes\": {:.3}}}\n}}\n",
        on_meps / off_meps,
        weighted.mean_weight,
        weighted.log_bytes,
        weighted.bytes_per_occurrence,
        weighted.replay_peak_bytes,
        weighted.replay_peak_bytes as f64 / weighted.log_bytes as f64
    )
}

fn main() {
    let n_events = event_budget();
    let trace = engine_trace(n_events, 42);
    println!("wal durability tax & recovery: {n_events} events, {SHARDS} shards");

    let base = ServerConfig::new(spec()).shards(SHARDS);
    let off_meps = measure_engine(&base, &trace);

    let dir = scratch("on");
    let on_meps = measure_engine(
        &ServerConfig::new(spec())
            .shards(SHARDS)
            .snapshot_dir(dir.clone())
            .durability(true),
        &trace,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("fsync");
    let fsync_meps = measure_engine(
        &ServerConfig::new(spec())
            .shards(SHARDS)
            .snapshot_dir(dir.clone())
            .durability(true)
            .wal_fsync(true),
        &trace,
    );
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{:>22} {:>10.3} Meps\n{:>22} {:>10.3} Meps ({:.2}x of off)\n{:>22} {:>10.3} Meps",
        "durability off",
        off_meps,
        "durability on",
        on_meps,
        on_meps / off_meps,
        "durability on+fsync",
        fsync_meps
    );

    // Recovery time as a function of log length: quarter, half, full
    // budget (a crash right after a compaction vs a crash after a long
    // uncheckpointed stretch).
    let mut rng = SeededRng::seed_from_u64(7);
    let tenants = ZipfSampler::new(SITES, ZIPF_SKEW);
    let mut ts = 1u64;
    let full: Vec<(u64, StreamEvent)> = (0..n_events)
        .map(|_| {
            ts += rng.gen_range(0..2u64);
            (
                tenants.sample(&mut rng),
                StreamEvent::new(rng.gen_range(0..64u64), ts),
            )
        })
        .collect();
    println!(
        "{:>12} {:>12} {:>10} {:>12}",
        "wal_events", "wal_bytes", "replay_ms", "replay_Meps"
    );
    let mut rows = Vec::new();
    for fraction in [4, 2, 1] {
        let row = measure_replay(&full[..full.len() / fraction]);
        println!(
            "{:>12} {:>12} {:>10.2} {:>12.3}",
            row.wal_events, row.wal_bytes, row.replay_ms, row.replay_meps
        );
        rows.push(row);
    }

    let weighted = measure_weighted(n_events);
    println!(
        "weighted (mean {:.1}): {:.2} log B/occurrence, replay peaks {} B above the store \
         ({:.2}x of the {} B log)",
        weighted.mean_weight,
        weighted.bytes_per_occurrence,
        weighted.replay_peak_bytes,
        weighted.replay_peak_bytes as f64 / weighted.log_bytes as f64,
        weighted.log_bytes
    );

    let json = render_json(n_events, off_meps, on_meps, fsync_meps, &rows, &weighted);
    let out = std::env::var("BENCH_WAL_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json").to_string()
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");
}
