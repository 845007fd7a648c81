//! The server's stale-tick policy: a run whose tick precedes its key's
//! write clock is refused by the owning shard *before* the write-ahead log
//! sees it, typed (`stale_timestamp` for a `STORE`, a `"stale":k` count in
//! a `BATCH` ack), and the rest of the batch is applied.
//!
//! Two connections interleave ticks on one key against a durable `sketchd`
//! process — the multi-writer pattern that used to reorder a key's
//! synopsis. No shard worker may die (a debug build used to panic on the
//! out-of-order tick), and the served answers must equal an in-process
//! mirror fed exactly the accepted subsequence, both live and after a
//! SIGKILL + restart. A `FLUSH` sits in the trace on purpose: it is not
//! logged, so a policy applied at replay instead of before the append would
//! accept a run the live server refused.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ecm::{Query, SketchStore};
use sketch_server::protocol::response;
use sketch_server::{Client, SketchSpec, WindowSpec};
use stream_gen::SeededRng;

const WINDOW: u64 = 100_000;
const SHARDS: usize = 2;
const KEYS: [&str; 2] = ["shared", "other"];

fn spec() -> SketchSpec {
    SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(5)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-stale-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A spawned `sketchd`, SIGKILLed when dropped — also when an assertion
/// unwinds, so a failing run leaves no server behind.
struct Sketchd(Child);

impl Drop for Sketchd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn the real `sketchd` binary with durability on and parse its
/// ephemeral address off the banner line.
fn spawn_sketchd(dir: &Path) -> (Sketchd, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sketchd"))
        .env("SKETCHD_ADDR", "127.0.0.1:0")
        .env("SKETCHD_SHARDS", SHARDS.to_string())
        .env("SKETCHD_WINDOW", WINDOW.to_string())
        .env("SKETCHD_EPSILON", "0.1")
        .env("SKETCHD_DELTA", "0.1")
        .env("SKETCHD_SEED", "5")
        .env("SKETCHD_SNAPSHOT_DIR", dir.display().to_string())
        .env("SKETCHD_DURABILITY", "1")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sketchd");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read banner");
    assert!(line.contains("wal on"), "durability not armed: {line:?}");
    let addr = line.split_whitespace().nth(3).expect("banner address");
    (Sketchd(child), addr.to_string())
}

fn connect(addr: &str) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// What the test expects the server to do, one key clock at a time: the
/// same rule as `WriteError::check_tick`, written out independently.
#[derive(Default)]
struct Oracle {
    clocks: HashMap<String, u64>,
    mirror: Option<SketchStore<String>>,
    refused: u64,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            mirror: Some(SketchStore::new(spec()).expect("valid spec")),
            ..Oracle::default()
        }
    }

    fn mirror(&mut self) -> &mut SketchStore<String> {
        self.mirror.as_mut().expect("mirror")
    }

    /// Offer one run; apply it to the mirror and return `true` when the
    /// server must accept it.
    fn offer(&mut self, key: &str, ts: u64, item: u64, n: u64) -> bool {
        let clock = self.clocks.get(key).copied().unwrap_or(0);
        if ts < clock {
            self.refused += 1;
            return false;
        }
        self.clocks.insert(key.to_string(), ts);
        self.mirror().insert_weighted(key.to_string(), ts, item, n);
        true
    }

    /// `FLUSH ts` advances every key the server holds.
    fn flush(&mut self, ts: u64) {
        for clock in self.clocks.values_mut() {
            *clock = (*clock).max(ts);
        }
    }
}

/// Strip the trailing `"now"` field: it carries the shard's write clock,
/// which a `FLUSH` moves live but a restart (which does not replay
/// `FLUSH`) does not.
fn strip_now(served: &str) -> &str {
    served.rfind(",\"now\":").map_or(served, |at| &served[..at])
}

fn assert_matches_mirror(client: &mut Client, mirror: &SketchStore<String>, now: u64) {
    let w = WindowSpec::time(now, WINDOW);
    for key in KEYS {
        for (wire, name, query) in [
            (
                format!("total time {now} {WINDOW}"),
                "total",
                Query::total_arrivals(),
            ),
            (
                format!("point 3 time {now} {WINDOW}"),
                "point",
                Query::point(3),
            ),
            (format!("point 9 time {now} 500"), "point", Query::point(9)),
            (
                format!("self_join time {now} {WINDOW}"),
                "self_join",
                Query::self_join(),
            ),
        ] {
            let served = client.call(&format!("QUERY {key} {wire}")).expect("query");
            let window = if wire.ends_with(" 500") {
                WindowSpec::time(now, 500)
            } else {
                w
            };
            let expected = match mirror.query(&key.to_string(), &query, window) {
                Some(Ok(answer)) => response::answer(name, &answer),
                other => panic!("mirror has no answer for {key}: {other:?}"),
            };
            let expected = &expected[..expected.len() - 1];
            assert_eq!(strip_now(&served), expected, "QUERY {key} {wire}");
        }
    }
}

/// The sum of every `"<name>":` counter in a `STATS` reply (one per
/// shard row).
fn counter_sum(stats: &str, name: &str) -> u64 {
    stats
        .match_indices(&format!("\"{name}\":"))
        .map(|(at, tag)| {
            let digits: String = stats[at + tag.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("counter value")
        })
        .sum()
}

/// The sum of every `"stale":` counter in a `STATS` reply, and whether
/// every shard reports `"restarts":0`.
fn stale_and_clean(stats: &str) -> (u64, bool) {
    let stale = counter_sum(stats, "stale");
    let restarts = stats.matches("\"restarts\":").count();
    (
        stale,
        restarts == SHARDS && stats.matches("\"restarts\":0").count() == SHARDS,
    )
}

#[test]
fn interleaved_writers_on_one_key_are_refused_typed_and_survive_sigkill() {
    let dir = scratch("interleave");
    let (sketchd, addr) = spawn_sketchd(&dir);
    let mut writers = [connect(&addr), connect(&addr)];
    let mut oracle = Oracle::new();
    let mut rng = SeededRng::seed_from_u64(0x57A1E);
    // Each writer has its own wall clock; they drift apart, so whichever
    // writes second with an older tick loses.
    let mut clocks = [1u64, 1u64];
    let mut now = 1u64;
    for step in 0..400u64 {
        let side = (rng.next_u64() % 2) as usize;
        clocks[side] += rng.next_u64() % 7;
        let ts = clocks[side];
        now = now.max(ts);
        let item = rng.next_u64() % 16;
        let client = &mut writers[side];
        match step % 10 {
            // A BATCH mixing the shared key (one in-batch regression
            // included) with a key only this test's oracle orders.
            0 => {
                let lines = [
                    ("shared", ts, item, 2),
                    ("shared", ts.saturating_sub(3), item, 1),
                    ("other", ts, item, 1),
                ];
                let accepted: Vec<bool> = lines
                    .iter()
                    .map(|&(key, ts, item, n)| oracle.offer(key, ts, item, n))
                    .collect();
                let frame: Vec<String> = lines
                    .iter()
                    .map(|(key, ts, item, n)| format!("{key} {ts} {item} {n}"))
                    .collect();
                let ack = client.batch(&frame).expect("BATCH");
                let ingested: u64 = lines
                    .iter()
                    .zip(&accepted)
                    .filter(|(_, ok)| **ok)
                    .map(|(line, _)| line.3)
                    .sum();
                let stale = accepted.iter().filter(|ok| !**ok).count() as u64;
                let expected = if stale == 0 {
                    response::ingested(ingested)
                } else {
                    format!("{{\"ok\":true,\"ingested\":{ingested},\"stale\":{stale}}}")
                };
                assert_eq!(ack, expected, "step {step}");
            }
            // A FLUSH past both writers: every later write below it is
            // stale live — and it is not in the log.
            5 => {
                let to = now + 4;
                assert!(response::is_ok(
                    &client.call(&format!("FLUSH {to}")).expect("FLUSH")
                ));
                oracle.flush(to);
                now = to;
            }
            _ => {
                let reply = client
                    .call(&format!("STORE shared {ts} {item}"))
                    .expect("STORE");
                if oracle.offer("shared", ts, item, 1) {
                    assert_eq!(reply, response::ingested(1), "step {step}");
                } else {
                    assert!(
                        reply.starts_with("{\"ok\":false,\"error\":\"stale_timestamp\""),
                        "step {step}: {reply}"
                    );
                }
            }
        }
    }
    assert!(oracle.refused > 20, "the trace must exercise the policy");
    let stats = writers[0].call("STATS").expect("STATS");
    let (stale, clean) = stale_and_clean(&stats);
    assert_eq!(stale, oracle.refused, "STATS stale counters: {stats}");
    assert!(clean, "a shard worker restarted: {stats}");
    let mirror = oracle.mirror.take().expect("mirror");
    assert_matches_mirror(&mut writers[0], &mirror, now);

    // SIGKILL: no drain, no checkpoint. Recovery is log replay, and the
    // log holds exactly the accepted runs.
    drop(sketchd);
    let (_sketchd, addr) = spawn_sketchd(&dir);
    let mut client = connect(&addr);
    assert_matches_mirror(&mut client, &mirror, now);

    // `behind_clock` counts a time query whose `now` precedes its key's
    // write clock, and not one asked at the clock. The answer is served
    // either way.
    let tick = now + 100;
    let stored = client
        .call(&format!("STORE probe {tick} 1"))
        .expect("STORE");
    assert_eq!(stored, response::ingested(1));
    let behind = |c: &mut Client| counter_sum(&c.call("STATS").expect("STATS"), "behind_clock");
    for (at, counted) in [(tick - 1, 1), (tick, 0)] {
        let before = behind(&mut client);
        let served = client
            .call(&format!("QUERY probe total time {at} {WINDOW}"))
            .expect("query");
        assert!(response::is_ok(&served), "QUERY at {at}: {served}");
        assert_eq!(behind(&mut client) - before, counted, "QUERY at {at}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
