//! End-to-end acceptance: a real `sketchd` over TCP (ephemeral port, 4
//! shards) serves answers **bit-identical** — same estimate, same (ε, δ)
//! guarantee, same JSON bytes — to an in-process [`SketchStore`] fed the
//! same seeded bursty-Zipf stream, across point/range/heavy-hitter
//! queries, snapshot → kill → restore, and graceful shutdown.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use ecm::{Query, SketchStore};
use sketch_server::protocol::response;
use sketch_server::{Client, Server, ServerConfig, SketchSpec, StreamEvent, WindowSpec};
use stream_gen::SeededRng;

const WINDOW: u64 = 100_000;
const SHARDS: usize = 4;
const HIER_BITS: u32 = 8; // items in 0..256, range/HH/quantile enabled

fn spec() -> SketchSpec {
    SketchSpec::time(WINDOW)
        .epsilon(0.1)
        .delta(0.1)
        .seed(11)
        .hierarchy(HIER_BITS)
}

/// A fresh scratch dir under the system temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A seeded keyed trace: 10 tenants with engineered, clearly distinct
/// volumes (no top-k ties), Zipf-ish item skew inside the 2^8 hierarchy
/// universe, globally non-decreasing ticks, and occasional weighted
/// events. Returns `(key, event, count)` triples in arrival order.
fn trace(events: usize, seed: u64) -> Vec<(String, StreamEvent, u64)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(events);
    let mut ts = 1u64;
    while out.len() < events {
        ts += rng.next_u64() % 3;
        // Tenant volumes decay geometrically: tenant 0 ≈ 2× tenant 1 ≈ …
        let mut tenant = 0usize;
        while tenant < 9 && rng.gen_bool(0.5) {
            tenant += 1;
        }
        // Item skew: small items are hot.
        let item = match rng.next_u64() % 4 {
            0 => rng.next_u64() % 4,
            1 => rng.next_u64() % 16,
            _ => rng.next_u64() % (1 << HIER_BITS),
        };
        let count = if rng.gen_bool(0.1) {
            1 + rng.next_u64() % 4
        } else {
            1
        };
        out.push((format!("user-{tenant}"), StreamEvent::new(item, ts), count));
    }
    out
}

/// The in-process ground truth: the same spec, the same per-key event
/// sequence (counts expanded exactly as the engine expands them).
fn mirror(triples: &[(String, StreamEvent, u64)]) -> SketchStore<String> {
    let mut store = SketchStore::new(spec()).expect("valid spec");
    let mut expanded: Vec<(String, StreamEvent)> = Vec::new();
    for (key, event, count) in triples {
        for _ in 0..*count {
            expanded.push((key.clone(), *event));
        }
    }
    store.ingest(&expanded);
    store
}

fn start_server(snapshot_dir: Option<&PathBuf>) -> Server {
    let mut cfg = ServerConfig::new(spec())
        .shards(SHARDS)
        .read_timeout(Duration::from_secs(10));
    if let Some(dir) = snapshot_dir {
        cfg = cfg.snapshot_dir(dir.clone());
    }
    Server::start(cfg).expect("server starts")
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// Ingest the trace over the wire: mostly `BATCH` frames, with the first
/// few events as bare `STORE`s so both paths are exercised.
fn ingest_over_wire(client: &mut Client, triples: &[(String, StreamEvent, u64)]) {
    let mut acked = 0u64;
    for (key, event, count) in triples.iter().take(5) {
        let resp = client
            .call(&format!("STORE {key} {} {} {count}", event.ts, event.item))
            .expect("STORE");
        assert_eq!(resp, response::ingested(*count), "STORE ack");
        acked += count;
    }
    let lines: Vec<String> = triples
        .iter()
        .skip(5)
        .map(|(key, e, count)| format!("{key} {} {} {count}", e.ts, e.item))
        .collect();
    for chunk in lines.chunks(500) {
        let resp = client.batch(chunk).expect("BATCH");
        assert!(response::is_ok(&resp), "batch rejected: {resp}");
    }
    let _ = acked;
}

/// Every query command this protocol can express against one key, over
/// two windows.
fn query_matrix(now: u64) -> Vec<(String, Query<'static>, WindowSpec)> {
    let mut out = Vec::new();
    for (wire, w) in [
        (
            format!("time {now} {WINDOW}"),
            WindowSpec::time(now, WINDOW),
        ),
        (format!("time {now} 5000"), WindowSpec::time(now, 5_000)),
    ] {
        for item in [0u64, 1, 7, 100, 255] {
            out.push((format!("point {item} {wire}"), Query::point(item), w));
        }
        out.push((format!("self_join {wire}"), Query::self_join(), w));
        out.push((format!("total {wire}"), Query::total_arrivals(), w));
        out.push((format!("range 0 15 {wire}"), Query::range_sum(0, 15), w));
        out.push((format!("range 16 255 {wire}"), Query::range_sum(16, 255), w));
        out.push((
            format!("heavy_hitters abs:200 {wire}"),
            Query::heavy_hitters(ecm::Threshold::Absolute(200.0)),
            w,
        ));
        out.push((
            format!("heavy_hitters rel:0.05 {wire}"),
            Query::heavy_hitters(ecm::Threshold::Relative(0.05)),
            w,
        ));
        out.push((format!("quantile 0.5 {wire}"), Query::quantile(0.5), w));
    }
    out
}

/// Strip the trailing `"now"` consistency-point field off a served QUERY
/// response, so the answer body can be compared byte-for-byte against the
/// mirror's rendering (the mirror is one un-sharded store and has no
/// per-shard write clock to render).
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

/// Assert that every served answer for every tenant is byte-identical to
/// the mirror's answer rendered through the same JSON path.
fn assert_bit_identical(client: &mut Client, store: &SketchStore<String>, now: u64) {
    for tenant in 0..10 {
        assert_key_bit_identical(client, store, &format!("user-{tenant}"), now);
    }
}

/// One tenant's row of [`assert_bit_identical`]: the whole query matrix,
/// each command sent exactly once.
fn assert_key_bit_identical(
    client: &mut Client,
    store: &SketchStore<String>,
    key: &String,
    now: u64,
) {
    for (wire, query, window) in &query_matrix(now) {
        let served = client
            .call(&format!("QUERY {key} {wire}"))
            .expect("query round-trip");
        let local = store
            .query(key, query, *window)
            .unwrap_or_else(|| panic!("mirror lost key {key}"));
        let expected = match local {
            Ok(answer) => {
                // Successful answers carry the consistency point.
                assert!(
                    sketch_server::answer_now(&served).is_some(),
                    "no \"now\" field: {served}"
                );
                response::answer(query_name(query), &answer)
            }
            Err(e) => response::query_error(&e),
        };
        assert_eq!(strip_now(&served), expected, "QUERY {key} {wire}");
    }
}

fn query_name(q: &Query<'_>) -> &'static str {
    match q {
        Query::Point { .. } => "point",
        Query::SelfJoin => "self_join",
        Query::RangeSum { .. } => "range",
        Query::HeavyHitters { .. } => "heavy_hitters",
        Query::Quantile { .. } => "quantile",
        Query::TotalArrivals => "total",
        _ => unreachable!("not expressible on the wire"),
    }
}

#[test]
fn served_answers_are_bit_identical_to_in_process_store() {
    let triples = trace(20_000, 0xE2E);
    let now = triples.last().expect("non-empty").1.ts;
    let store = mirror(&triples);

    let server = start_server(None);
    let mut client = connect(&server);
    assert_eq!(client.call("PING").expect("ping"), response::pong());
    ingest_over_wire(&mut client, &triples);

    assert_bit_identical(&mut client, &store, now);

    // TOPK merges across shards exactly like one un-sharded ranking.
    let served = client
        .call(&format!("TOPK 5 time {now} {WINDOW}"))
        .expect("topk");
    let expected = store.top_k(5, &Query::total_arrivals(), WindowSpec::time(now, WINDOW));
    assert_eq!(served, response::topk(&expected), "TOPK");
    // Any `k >= 1` parses, so nothing on the way may be sized by it: a `k`
    // past the fleet, up to the largest the parser takes, ranks every key.
    let everyone = store.top_k(
        usize::MAX,
        &Query::total_arrivals(),
        WindowSpec::time(now, WINDOW),
    );
    assert_eq!(everyone.len(), store.len());
    for k in [(store.len() + 5) as u64, u64::MAX] {
        let served = client
            .call(&format!("TOPK {k} time {now} {WINDOW}"))
            .expect("topk");
        assert_eq!(served, response::topk(&everyone), "TOPK {k}");
    }

    // STATS sums to the fleet the mirror holds, without locking shards.
    let stats = client.call("STATS").expect("stats");
    assert!(response::is_ok(&stats), "stats failed: {stats}");
    assert!(
        stats.contains(&format!("\"keys\":{}", store.len())),
        "stats reports {} keys: {stats}",
        store.len()
    );
    let expanded: u64 = triples.iter().map(|(_, _, c)| c).sum();
    assert!(
        stats.contains(&format!("\"ingested\":{expanded}")),
        "stats must count {expanded} occurrences: {stats}"
    );
    assert_eq!(stats.matches("\"shard\":").count(), SHARDS);
    // Every shard carries a health block; a healthy fleet has no restarts
    // and shed nothing.
    assert_eq!(stats.matches("\"health\":").count(), SHARDS);
    assert_eq!(stats.matches("\"state\":\"up\"").count(), SHARDS);
    assert_eq!(stats.matches("\"restarts\":0").count(), SHARDS);
    assert_eq!(stats.matches("\"shed_requests\":0").count(), SHARDS);

    // Typed refusals, not panics or silence.
    let unknown = client
        .call(&format!("QUERY nobody total time {now} 100"))
        .expect("unknown key");
    assert!(unknown.starts_with("{\"ok\":false,\"error\":\"unknown_key\""));
    let out_of_universe = client.call("STORE user-0 999999999 256").expect("bad item");
    assert!(
        out_of_universe.starts_with("{\"ok\":false,\"error\":\"item_out_of_universe\""),
        "hierarchy universe guard: {out_of_universe}"
    );

    let bye = client.call("SHUTDOWN").expect("shutdown");
    assert_eq!(bye, response::shutdown());
    server.join();
}

/// Read-your-writes over the wire: on each of 4 connections writing its
/// own tenant, the `QUERY`s that follow a `BATCH` ack already answer like
/// a mirror of everything that connection got acked — no retry, no wait.
#[test]
fn a_batch_ack_is_readable_at_once_on_every_connection() {
    let server = start_server(None);
    std::thread::scope(|scope| {
        for conn in 0..4u64 {
            let server = &server;
            scope.spawn(move || {
                let mut client = connect(server);
                let mut store = SketchStore::new(spec()).expect("valid spec");
                let mut rng = SeededRng::seed_from_u64(0xAC4 + conn);
                let key = format!("conn-{conn}");
                let mut ts = 1u64;
                for _ in 0..8 {
                    let events: Vec<(String, StreamEvent)> = (0..50)
                        .map(|_| {
                            ts += rng.next_u64() % 3;
                            let item = rng.next_u64() % (1 << HIER_BITS);
                            (key.clone(), StreamEvent::new(item, ts))
                        })
                        .collect();
                    let lines: Vec<String> = events
                        .iter()
                        .map(|(key, e)| format!("{key} {} {}", e.ts, e.item))
                        .collect();
                    let resp = client.batch(&lines).expect("BATCH");
                    assert!(response::is_ok(&resp), "batch rejected: {resp}");
                    store.ingest(&events);
                    assert_key_bit_identical(&mut client, &store, &key, ts);
                    // The consistency point has reached the acked tick.
                    let served = client
                        .call(&format!("QUERY {key} total time {ts} {WINDOW}"))
                        .expect("query round-trip");
                    assert!(
                        sketch_server::answer_now(&served) >= Some(ts),
                        "stale consistency point after the ack of tick {ts}: {served}"
                    );
                }
            });
        }
    });
    let mut client = connect(&server);
    assert_eq!(
        client.call("SHUTDOWN").expect("shutdown"),
        response::shutdown()
    );
    server.join();
}

#[test]
fn snapshot_restart_serves_identical_answers() {
    let dir = scratch("snap");
    let triples = trace(12_000, 0x5A9);
    let now = triples.last().expect("non-empty").1.ts;
    let store = mirror(&triples);

    // First life: ingest, snapshot explicitly, shut down WITHOUT a
    // configured snapshot dir (the explicit SNAPSHOT must carry the state
    // alone).
    let server = start_server(None);
    let mut client = connect(&server);
    ingest_over_wire(&mut client, &triples);
    let resp = client
        .call(&format!("SNAPSHOT {}", dir.display()))
        .expect("snapshot");
    assert!(response::is_ok(&resp), "snapshot failed: {resp}");
    assert!(resp.contains(&format!("\"shards\":{SHARDS}")));
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    // Second life: restore from the directory, serve the same answers.
    let server = start_server(Some(&dir));
    let mut client = connect(&server);
    assert_bit_identical(&mut client, &store, now);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful-shutdown contract: every event the server *acked* before
/// `SHUTDOWN` survives the restart — the gate closes, the mailboxes
/// drain, the final checkpoint lands, nothing acked is lost.
#[test]
fn no_acked_event_is_lost_across_shutdown_and_restart() {
    let dir = scratch("drain");
    let triples = trace(8_000, 0xACED);
    let now = triples.last().expect("non-empty").1.ts;
    let store = mirror(&triples);

    let server = start_server(Some(&dir));
    let mut client = connect(&server);
    ingest_over_wire(&mut client, &triples);
    // SHUTDOWN immediately after the last ack: the final checkpoint must
    // still include every acked event (FIFO mailboxes drain first).
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    let server = start_server(Some(&dir));
    let mut client = connect(&server);
    // Exact per-tenant totals; any dropped event would shrink one.
    let mut per_key: HashMap<String, u64> = HashMap::new();
    for (key, _, count) in &triples {
        *per_key.entry(key.clone()).or_default() += count;
    }
    for (key, _) in per_key.iter() {
        let served = client
            .call(&format!("QUERY {key} total time {now} {WINDOW}"))
            .expect("total");
        let local = store
            .query(key, &Query::total_arrivals(), WindowSpec::time(now, WINDOW))
            .expect("mirror has key")
            .expect("in-window");
        assert_eq!(
            strip_now(&served),
            response::answer("total", &local),
            "{key}"
        );
    }
    // And the full bit-identity matrix for good measure.
    assert_bit_identical(&mut client, &store, now);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Post-shutdown connections are refused at the engine level with a typed
/// error, and a second server on the same snapshot dir with a different
/// shard count is refused at startup.
#[test]
fn shard_count_mismatch_is_refused_on_restore() {
    let dir = scratch("mismatch");
    let triples = trace(500, 7);
    let server = start_server(Some(&dir));
    let mut client = connect(&server);
    ingest_over_wire(&mut client, &triples);
    client.call("SHUTDOWN").expect("shutdown");
    server.join();

    let cfg = ServerConfig::new(spec())
        .shards(SHARDS + 1)
        .snapshot_dir(dir.clone());
    let err = Server::start(cfg).expect_err("mismatched shard count must refuse");
    assert!(
        err.to_string().contains("shards"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
