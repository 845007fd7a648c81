//! Durability acceptance: a real `sketchd` process killed with SIGKILL
//! mid-life must come back serving answers **bit-identical** to an
//! in-process mirror of everything it acked — the write-ahead log, not
//! luck, carries the tail since the last checkpoint. Also pins the
//! compaction contract (the log stays bounded across checkpoint cycles)
//! and the config surface (durability without a snapshot dir is refused,
//! typed).

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ecm::wal::{encode_checkpoint, encode_ingest, encode_segment_header, WalSegmentHeader};
use ecm::{Query, SketchStore};
use sketch_server::engine::route;
use sketch_server::protocol::response;
use sketch_server::{Client, Server, ServerConfig, SketchSpec, StreamEvent, WindowSpec};
use stream_gen::SeededRng;

const WINDOW: u64 = 100_000;
const SHARDS: usize = 4;

fn spec() -> SketchSpec {
    SketchSpec::time(WINDOW)
        .epsilon(0.1)
        .delta(0.1)
        .seed(11)
        .hierarchy(8)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A seeded keyed trace over 8 tenants, items in the 2^8 hierarchy
/// universe, globally non-decreasing ticks.
fn trace(events: usize, seed: u64, base_ts: u64) -> Vec<(String, StreamEvent)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut ts = base_ts;
    (0..events)
        .map(|_| {
            ts += rng.next_u64() % 3;
            let tenant = rng.next_u64() % 8;
            let item = rng.next_u64() % 256;
            (format!("user-{tenant}"), StreamEvent::new(item, ts))
        })
        .collect()
}

fn connect<A: ToSocketAddrs>(addr: A) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// BATCH the whole trace; every frame must come back acked.
fn ingest_acked(client: &mut Client, events: &[(String, StreamEvent)]) {
    let lines: Vec<String> = events
        .iter()
        .map(|(key, e)| format!("{key} {} {} 1", e.ts, e.item))
        .collect();
    for chunk in lines.chunks(512) {
        let resp = client.batch(chunk).expect("BATCH");
        assert!(response::is_ok(&resp), "batch rejected: {resp}");
    }
}

/// Spawn the real `sketchd` binary, durability on, and parse the
/// ephemeral listen address off its first stdout line.
fn spawn_sketchd(dir: &Path, extra: &[(&str, String)]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sketchd"));
    cmd.env("SKETCHD_ADDR", "127.0.0.1:0")
        .env("SKETCHD_SHARDS", SHARDS.to_string())
        .env("SKETCHD_WINDOW", WINDOW.to_string())
        .env("SKETCHD_EPSILON", "0.1")
        .env("SKETCHD_DELTA", "0.1")
        .env("SKETCHD_SEED", "11")
        .env("SKETCHD_HIERARCHY_BITS", "8")
        .env("SKETCHD_SNAPSHOT_DIR", dir.display().to_string())
        .env("SKETCHD_DURABILITY", "1")
        .stdout(Stdio::piped());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn sketchd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    // "sketchd listening on 127.0.0.1:PORT (4 shards, ...)"
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    assert!(line.contains("wal on"), "durability not armed: {line:?}");
    (child, addr)
}

/// The durable config an in-process life uses (so the test can also drive
/// graceful shutdown cheaply).
fn restart_config(dir: &Path) -> ServerConfig {
    ServerConfig::new(spec())
        .shards(SHARDS)
        .read_timeout(Duration::from_secs(10))
        .snapshot_dir(dir.to_path_buf())
        .durability(true)
}

/// Strip the trailing `"now"` consistency-point field off a served QUERY
/// response (the un-sharded mirror has no per-shard write clock to
/// render).
fn strip_now(served: &str) -> String {
    let Some(at) = served.rfind(",\"now\":") else {
        return served.to_string();
    };
    let digits = &served[at + ",\"now\":".len()..served.len() - 1];
    if served.ends_with('}') && !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        format!("{}}}", &served[..at])
    } else {
        served.to_string()
    }
}

/// Served answers for every tenant must render byte-identically to the
/// mirror's answers through the same JSON path, across a spread of query
/// classes.
fn assert_bit_identical(client: &mut Client, store: &SketchStore<String>, now: u64) {
    let probes: Vec<(String, &'static str, Query<'static>)> = vec![
        (
            format!("total time {now} {WINDOW}"),
            "total",
            Query::total_arrivals(),
        ),
        (
            format!("self_join time {now} {WINDOW}"),
            "self_join",
            Query::self_join(),
        ),
        (
            format!("point 3 time {now} {WINDOW}"),
            "point",
            Query::point(3),
        ),
        (
            format!("point 200 time {now} {WINDOW}"),
            "point",
            Query::point(200),
        ),
        (
            format!("range 0 63 time {now} {WINDOW}"),
            "range",
            Query::range_sum(0, 63),
        ),
        (
            format!("heavy_hitters rel:0.05 time {now} {WINDOW}"),
            "heavy_hitters",
            Query::heavy_hitters(ecm::Threshold::Relative(0.05)),
        ),
        (
            format!("quantile 0.5 time {now} {WINDOW}"),
            "quantile",
            Query::quantile(0.5),
        ),
    ];
    for key in store.keys() {
        for (wire, name, query) in &probes {
            let served = client
                .call(&format!("QUERY {key} {wire}"))
                .expect("query round-trip");
            let expected = match store
                .query(&key, query, WindowSpec::time(now, WINDOW))
                .unwrap()
            {
                Ok(answer) => response::answer(name, &answer),
                Err(e) => response::query_error(&e),
            };
            assert_eq!(strip_now(&served), expected, "QUERY {key} {wire}");
        }
    }
}

#[test]
fn sigkill_mid_ingest_loses_no_acked_event() {
    let dir = scratch("kill9");
    let phase1 = trace(12_000, 0x4B39, 1);
    let now1 = phase1.last().unwrap().1.ts;

    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    mirror.ingest(&phase1);

    // First life: the real binary, durability on. Every batch is acked,
    // which with the WAL means "on disk" — then the process dies with
    // SIGKILL, no drain, no checkpoint, no destructors.
    let (mut child, addr) = spawn_sketchd(&dir, &[]);
    let mut client = connect(addr.as_str());
    ingest_acked(&mut client, &phase1);
    child.kill().expect("SIGKILL sketchd");
    child.wait().expect("reap");

    // Second life: recovery = snapshot (none yet) + WAL replay. Every
    // acked event present, none duplicated — bit-identical to the mirror.
    // It keeps accepting durable writes, then dies hard again to prove
    // replay-then-append chains correctly.
    let (mut child, addr) = spawn_sketchd(&dir, &[]);
    let mut client = connect(addr.as_str());
    assert_bit_identical(&mut client, &mirror, now1);
    let phase2 = trace(4_000, 0xB0B, now1);
    let now2 = phase2.last().unwrap().1.ts;
    mirror.ingest(&phase2);
    ingest_acked(&mut client, &phase2);
    child.kill().expect("SIGKILL sketchd again");
    child.wait().expect("reap");

    // Third life: in-process, same directory — both phases present.
    let server = Server::start(restart_config(&dir)).expect("durable restart");
    let mut client = connect(server.local_addr());
    assert_bit_identical(&mut client, &mirror, now2);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`trace`] with a weight on every line: 1..=15, mean 8.
fn weighted_trace(lines: usize, seed: u64, base_ts: u64) -> Vec<(String, StreamEvent, u64)> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x5EED);
    trace(lines, seed, base_ts)
        .into_iter()
        .map(|(key, e)| (key, e, 1 + rng.next_u64() % 15))
        .collect()
}

/// BATCH the weighted lines; every frame must ack the occurrences it
/// carried.
fn ingest_runs_acked(client: &mut Client, runs: &[(String, StreamEvent, u64)]) {
    for chunk in runs.chunks(512) {
        let lines: Vec<String> = chunk
            .iter()
            .map(|(key, e, n)| format!("{key} {} {} {n}", e.ts, e.item))
            .collect();
        let resp = client.batch(&lines).expect("BATCH");
        let carried: u64 = chunk.iter().map(|(_, _, n)| n).sum();
        assert_eq!(resp, response::ingested(carried), "batch not acked in full");
    }
}

#[test]
fn sigkill_mid_weighted_ingest_loses_no_acked_occurrence() {
    let dir = scratch("kill9-runs");
    let phase1 = weighted_trace(6_000, 0x4B39, 1);
    let now1 = phase1.last().unwrap().1.ts;
    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    mirror.ingest_runs(&phase1);

    // First life: weighted lines, each acked — on the log as one run
    // each — then SIGKILL.
    let (mut child, addr) = spawn_sketchd(&dir, &[]);
    let mut client = connect(addr.as_str());
    ingest_runs_acked(&mut client, &phase1);
    let stats = client.call("STATS").expect("stats");
    let acked: u64 = phase1.iter().map(|(_, _, n)| n).sum();
    assert_eq!(stat(&stats, "ingested"), acked);
    assert_eq!(stat(&stats, "ingest_runs"), phase1.len() as u64);
    assert!(
        stat(&stats, "wal_bytes") < 3 * acked,
        "the log grew per occurrence: {stats}"
    );
    child.kill().expect("SIGKILL sketchd");
    child.wait().expect("reap");

    // Second life replays the runs, takes more, dies hard again; the
    // third finds both phases, every occurrence once.
    let (mut child, addr) = spawn_sketchd(&dir, &[]);
    let mut client = connect(addr.as_str());
    assert_bit_identical(&mut client, &mirror, now1);
    let phase2 = weighted_trace(2_000, 0xB0B, now1);
    let now2 = phase2.last().unwrap().1.ts;
    mirror.ingest_runs(&phase2);
    ingest_runs_acked(&mut client, &phase2);
    child.kill().expect("SIGKILL sketchd again");
    child.wait().expect("reap");

    let server = Server::start(restart_config(&dir)).expect("durable restart");
    let mut client = connect(server.local_addr());
    assert_bit_identical(&mut client, &mirror, now2);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment header as a version-1 `sketchd` wrote it: the same fields
/// under the older version byte, with its own FNV-1a checksum.
fn version_1_header(h: &WalSegmentHeader) -> Vec<u8> {
    let mut bytes = encode_segment_header(h);
    let covered = bytes.len() - 8;
    bytes[2] = 1;
    let sum = ecm::frame::fnv1a(&bytes[..covered]);
    bytes[covered..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn a_log_from_before_runs_records_is_replayed_and_continued() {
    // What a previous release left behind after a crash: per shard one
    // version-1 segment holding the genesis marker and events records —
    // one entry per occurrence — and no checkpoint yet.
    let dir = scratch("old-log");
    let phase1 = weighted_trace(4_000, 0x01D, 1);
    let now1 = phase1.last().unwrap().1.ts;
    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    mirror.ingest_runs(&phase1);
    for shard in 0..SHARDS {
        let mut log = version_1_header(&WalSegmentHeader {
            shard: shard as u64,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut log);
        let mut seq = 1;
        for chunk in phase1.chunks(500) {
            let events: Vec<(String, StreamEvent)> = chunk
                .iter()
                .filter(|(key, _, _)| route(key, SHARDS) == shard)
                .flat_map(|(key, e, n)| (0..*n).map(move |_| (key.clone(), *e)))
                .collect();
            if !events.is_empty() {
                seq += 1;
                encode_ingest(seq, &events, &mut log);
            }
        }
        std::fs::write(dir.join(format!("shard-{shard}.wal-000001")), log).expect("write log");
    }

    // This release replays it to the same answers, seals the old segment
    // rather than append to it, and logs what comes next as runs.
    let (mut child, addr) = spawn_sketchd(&dir, &[]);
    let mut client = connect(addr.as_str());
    assert_bit_identical(&mut client, &mirror, now1);
    let stats = client.call("STATS").expect("stats");
    assert_eq!(
        stats.matches("\"wal_segments\":2").count(),
        SHARDS,
        "every shard moves on to a segment of its own version: {stats}"
    );
    let phase2 = weighted_trace(2_000, 0x2E3, now1);
    let now2 = phase2.last().unwrap().1.ts;
    mirror.ingest_runs(&phase2);
    ingest_runs_acked(&mut client, &phase2);
    child.kill().expect("SIGKILL sketchd");
    child.wait().expect("reap");

    // Both formats in one chain, replayed in one go.
    let server = Server::start(restart_config(&dir)).expect("restart over a mixed log");
    let mut client = connect(server.local_addr());
    assert_bit_identical(&mut client, &mirror, now2);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pull the first (top-level, fleet-wide) `"name":<u64>` field out of a
/// STATS response line.
fn stat(resp: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\":");
    let at = resp
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} in {resp}"));
    resp[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric stat")
}

#[test]
fn compaction_bounds_the_log_across_checkpoint_cycles() {
    let dir = scratch("compact");
    // Tiny thresholds so a modest trace forces many rotations and at
    // least three full compaction cycles per shard.
    let (mut child, addr) = spawn_sketchd(
        &dir,
        &[
            ("SKETCHD_WAL_SEGMENT_BYTES", (4u64 << 10).to_string()),
            ("SKETCHD_WAL_COMPACT_BYTES", (16u64 << 10).to_string()),
        ],
    );
    let mut client = connect(addr.as_str());

    let events = trace(30_000, 0xC0DE, 1);
    let now = events.last().unwrap().1.ts;
    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    mirror.ingest(&events);
    ingest_acked(&mut client, &events);

    let stats = client.call("STATS").expect("stats");
    assert!(response::is_ok(&stats), "stats failed: {stats}");
    let compactions = stat(&stats, "compactions");
    let wal_bytes = stat(&stats, "wal_bytes");
    assert!(
        compactions >= 3,
        "expected >= 3 compaction cycles, saw {compactions}: {stats}"
    );
    // The log is bounded: compaction keeps each shard's log near one
    // active segment, nowhere near the bytes the raw trace appended.
    assert!(
        wal_bytes <= SHARDS as u64 * 2 * (16 << 10),
        "log unbounded: {wal_bytes} bytes after {compactions} compactions"
    );

    // The compacted state (checkpoint + truncated log, not the full
    // history) still recovers bit-identically after a SIGKILL.
    child.kill().expect("SIGKILL sketchd");
    child.wait().expect("reap");
    let server = Server::start(restart_config(&dir)).expect("restart after compaction");
    let mut client = connect(server.local_addr());
    let mut per_key: HashMap<String, u64> = HashMap::new();
    for (key, _) in &events {
        *per_key.entry(key.clone()).or_default() += 1;
    }
    for key in per_key.keys() {
        let served = client
            .call(&format!("QUERY {key} total time {now} {WINDOW}"))
            .expect("total");
        let local = mirror
            .query(key, &Query::total_arrivals(), WindowSpec::time(now, WINDOW))
            .unwrap()
            .unwrap();
        assert_eq!(
            strip_now(&served),
            response::answer("total", &local),
            "{key}"
        );
    }
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_without_a_snapshot_dir_is_refused_typed() {
    let err = Server::start(ServerConfig::new(spec()).durability(true))
        .expect_err("durability without snapshot_dir must refuse");
    assert!(
        err.to_string().contains("snapshot_dir"),
        "unexpected error: {err}"
    );

    let dir = scratch("zero");
    let err = Server::start(
        ServerConfig::new(spec())
            .snapshot_dir(dir.clone())
            .durability(true)
            .wal_segment_bytes(0),
    )
    .expect_err("zero segment size must refuse");
    assert!(
        err.to_string().contains("wal_segment_bytes"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One-shard config over `dir`, so the shard's checkpoint file is the
/// whole store and compares byte for byte with an un-sharded mirror's.
fn one_shard_config(dir: &Path, durable: bool) -> ServerConfig {
    ServerConfig::new(spec())
        .shards(1)
        .read_timeout(Duration::from_secs(10))
        .snapshot_dir(dir.to_path_buf())
        .durability(durable)
}

/// `SNAPSHOT <dir> <mode>` over the wire, acked.
fn snapshot_acked(client: &mut Client, dir: &Path, mode: &str) {
    let resp = client
        .call(&format!("SNAPSHOT {} {mode}", dir.display()))
        .expect("SNAPSHOT");
    assert!(response::is_ok(&resp), "snapshot refused: {resp}");
}

/// What a SIGKILL would leave of `dir`: every acked byte is already in its
/// file (ack-after-append), so a copy taken between requests is the crash
/// image — without the final checkpoint a graceful stop would write.
fn crash_image(dir: &Path, tag: &str) -> PathBuf {
    let image = scratch(tag);
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        std::fs::copy(entry.path(), image.join(entry.file_name())).expect("copy");
    }
    image
}

/// Feed the mirror in the frames [`ingest_acked`] sends: the store's
/// write stamps count batches, and the snapshot bytes carry them.
fn mirror_acked(mirror: &mut SketchStore<String>, events: &[(String, StreamEvent)]) {
    for chunk in events.chunks(512) {
        mirror.ingest(chunk);
    }
}

fn three_fulls_then_restart(durable: bool) {
    let tag = if durable { "fulls-on" } else { "fulls-off" };
    let dir = scratch(tag);
    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    let server = Server::start(one_shard_config(&dir, durable)).expect("start");
    let mut client = connect(server.local_addr());

    // Three full checkpoints with writes in between; the mirror cuts the
    // same checkpoints so its sequence numbers line up with the shard's.
    let mut now = 1;
    for round in 0..3u64 {
        let events = trace(1_500, 0xC4A1 + round, now);
        now = events.last().unwrap().1.ts;
        mirror_acked(&mut mirror, &events);
        ingest_acked(&mut client, &events);
        snapshot_acked(&mut client, &dir, "full");
        mirror.write_snapshot().unwrap();
    }
    assert!(dir.join("shard-0.full").exists(), "no checkpoint on disk");
    // With a log, what is acked after the last checkpoint survives too.
    if durable {
        let tail = trace(700, 0x7A11, now);
        mirror_acked(&mut mirror, &tail);
        ingest_acked(&mut client, &tail);
    }
    let image = crash_image(&dir, &format!("{tag}-image"));
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    // The restart loads the last full (and replays the log tail), and its
    // next full checkpoint is the mirror's, byte for byte.
    let server = Server::start(one_shard_config(&image, durable)).expect("restart");
    let mut client = connect(server.local_addr());
    let export = scratch(&format!("{tag}-export"));
    snapshot_acked(&mut client, &export, "full");
    let restored = std::fs::read(export.join("shard-0.full")).expect("exported checkpoint");
    assert!(
        restored == mirror.write_snapshot().unwrap(),
        "restored store differs from the mirror (durability {durable})"
    );
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    for dir in [dir, image, export] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn three_full_checkpoints_restart_to_the_mirror_store_byte_for_byte() {
    three_fulls_then_restart(false);
    three_fulls_then_restart(true);
}

#[test]
fn a_delta_older_than_the_full_checkpoint_is_skipped_and_a_gap_above_it_still_fails() {
    let dir = scratch("stale-delta");
    let mut mirror: SketchStore<String> = SketchStore::new(spec()).unwrap();
    let server = Server::start(one_shard_config(&dir, false)).expect("start");
    let mut client = connect(server.local_addr());
    let mut now = 1;
    for round in 0..2u64 {
        let events = trace(1_000, 0x57A1 + round, now);
        now = events.last().unwrap().1.ts;
        mirror.ingest(&events);
        ingest_acked(&mut client, &events);
        snapshot_acked(&mut client, &dir, "full");
    }
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    // An older release's incremental checkpoints left delta files beside
    // the full. The name alone decides, so the bytes are never read. Delta
    // 2 was cut before the full of the graceful stop (checkpoint 3): it is
    // superseded, and the restart ignores it.
    let below = dir.join("shard-0.delta-000002");
    std::fs::write(&below, b"a superseded delta").expect("plant delta 2");
    let server = Server::start(one_shard_config(&dir, false)).expect("restart over a stale delta");
    let mut client = connect(server.local_addr());
    assert_bit_identical(&mut client, &mirror, now);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    // A delta *above* the full (checkpoint 4 now) holds acked writes the
    // full lacks: without a log, ignoring it would lose them, so the
    // restart refuses and names the file.
    let above = dir.join("shard-0.delta-000005");
    std::fs::write(&above, b"a newer delta").expect("plant delta 5");
    let err = Server::start(one_shard_config(&dir, false)).expect_err("a newer delta must refuse");
    let err = err.to_string();
    assert!(
        err.contains("shard-0.delta-000005") && err.contains("incremental checkpoints are retired"),
        "unexpected error: {err}"
    );
    assert!(above.exists(), "a delta above the full is never removed");
    let _ = std::fs::remove_dir_all(&dir);
}
