//! Differential suite for the wait-free read path, with an in-process
//! mirror [`SketchStore`] as the reference: the moment `ingest` returns
//! `Ok`, an answer served from the shard's published epoch must render
//! **byte-identically** to the mirror fed the same acked events — no
//! retry, no polling — across every backend the spec language can build,
//! with and without durability, under concurrent writers, through a
//! mid-run checkpoint, and after a crash-shaped shard restart replays the
//! WAL and re-publishes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ecm::{
    Clock, Query, ScalarQuery, SketchStore, StandingQuery, StreamEvent, Threshold, ViewAnswer,
    ViewDef, ViewWindow, WindowSpec,
};
use sketch_server::engine::{route, Engine};
use sketch_server::protocol::{response, OwnedQuery};
use sketch_server::{ServerConfig, SketchSpec};
use stream_gen::SeededRng;

/// The full query vocabulary — including kinds some backends refuse, so
/// the *error* rendering is proven identical too.
fn probes() -> Vec<OwnedQuery> {
    vec![
        OwnedQuery::Total,
        OwnedQuery::SelfJoin,
        OwnedQuery::Point { item: 3 },
        OwnedQuery::Point { item: 200 },
        OwnedQuery::Range { lo: 0, hi: 15 },
        OwnedQuery::HeavyHitters {
            threshold: Threshold::Relative(0.05),
        },
        OwnedQuery::Quantile { phi: 0.5 },
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Render a query outcome through the exact wire path responses use.
fn render(q: &OwnedQuery, answer: &Option<Result<ecm::Answer, ecm::QueryError>>) -> String {
    match answer {
        None => "<unknown key>".to_string(),
        Some(Ok(a)) => response::answer(q.name(), a),
        Some(Err(e)) => response::query_error(e),
    }
}

/// Every probe on `key`, served once — no retry — against the mirror.
fn assert_key_matches_mirror(
    engine: &Engine,
    store: &SketchStore<String>,
    key: &String,
    window: WindowSpec,
    ctx: &str,
) -> u64 {
    let mut clock = 0;
    for q in probes() {
        let served = engine
            .query_served(key, &q, window)
            .unwrap_or_else(|e| panic!("{ctx}: query_served({key}): {e}"));
        assert_eq!(
            render(&q, &served.answer),
            render(&q, &store.query(key, &q.to_query(), window)),
            "{ctx}: {key} {} diverged from mirror",
            q.name()
        );
        clock = served.clock;
    }
    clock
}

/// Read-your-writes without a gate: 4 writer threads over disjoint
/// tenants, each against a non-durable and a durable engine, on all eight
/// backend shapes. Every `ingest` → `Ok` is followed at once by reads of
/// the key just written, which must already equal the thread's mirror of
/// its own acked events (per-key sketches are independent, so a mirror of
/// one thread's tenants is exact whatever the other threads do).
#[test]
fn acked_writes_are_served_at_once_on_every_backend() {
    for (i, (_, spec)) in SketchSpec::matrix(1_000).into_iter().enumerate() {
        for durable in [false, true] {
            let dir = scratch(&format!("ryw-{i}-{durable}"));
            let mut cfg = ServerConfig::new(spec.clone()).shards(2);
            if durable {
                cfg = cfg.snapshot_dir(&dir).durability(true);
            }
            let engine = Engine::start(&cfg).expect("engine start");
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (engine, spec) = (&engine, &spec);
                    scope.spawn(move || {
                        let ctx = format!("spec {i} durable={durable} writer {t}");
                        let mut store = SketchStore::new(spec.clone()).expect("mirror spec");
                        let mut rng = SeededRng::seed_from_u64(0xD1FF + i as u64 * 4 + t);
                        let mut ts = 0u64;
                        for _ in 0..10 {
                            let batch: Vec<(String, StreamEvent)> = (0..20)
                                .map(|_| {
                                    ts += rng.next_u64() % 3;
                                    let tenant = rng.next_u64() % 3;
                                    let item = rng.next_u64() % 16;
                                    (format!("user-{t}-{tenant}"), StreamEvent::new(item, ts))
                                })
                                .collect();
                            let weighted: Vec<_> =
                                batch.iter().map(|(k, e)| (k.clone(), *e, 1)).collect();
                            engine.ingest(&weighted).expect("ingest");
                            store.ingest(&batch);
                            let window = match spec.clock() {
                                Clock::Time => WindowSpec::time(ts, 1_000),
                                Clock::Count => WindowSpec::last(200),
                            };
                            let key = &batch.last().expect("non-empty batch").0;
                            let clock =
                                assert_key_matches_mirror(engine, &store, key, window, &ctx);
                            assert!(clock >= ts, "{ctx}: clock {clock} behind acked tick {ts}");
                        }
                    });
                }
            });
            engine.shutdown().expect("shutdown");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// An un-sharded mirror of the whole trace — per-key sketches are
/// identical to the engine's, whatever shard owns them.
fn mirror(spec: &SketchSpec, events: &[(String, StreamEvent)]) -> SketchStore<String> {
    let mut store = SketchStore::new(spec.clone()).expect("mirror spec");
    store.ingest(events);
    store
}

fn assert_matches_mirror(
    engine: &Engine,
    store: &SketchStore<String>,
    window: WindowSpec,
    ctx: &str,
) {
    for key in store.keys() {
        assert_key_matches_mirror(engine, store, &key, window, ctx);
    }
}

/// A checkpoint cut while concurrent writers keep the mailboxes busy
/// restores to a state bit-identical to a mirror of every acked event —
/// straight after the last ack, in the first answers served after a
/// crash-shaped per-shard restart (WAL tail replay), and after a graceful
/// restart from disk.
#[test]
fn mid_run_snapshot_restores_and_republishes_after_wal_replay() {
    let dir = scratch("midpub");
    let spec = SketchSpec::time(10_000)
        .epsilon(0.2)
        .delta(0.2)
        .seed(7)
        .hierarchy(8);
    let cfg = ServerConfig::new(spec.clone())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Arc::new(Engine::start(&cfg).expect("engine start"));

    // Two writers over disjoint tenants (cross-thread interleaving can't
    // reorder any single key's events), each acking small batches.
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut rng = SeededRng::seed_from_u64(0xA11CE + t);
                let mut ts = 1u64;
                let mut events = Vec::new();
                for _ in 0..40 {
                    let batch: Vec<_> = (0..25)
                        .map(|_| {
                            ts += rng.next_u64() % 3;
                            let tenant = t * 4 + rng.next_u64() % 4;
                            (
                                format!("user-{tenant}"),
                                StreamEvent::new(rng.next_u64() % 256, ts),
                                1u64,
                            )
                        })
                        .collect();
                    engine.ingest(&batch).expect("writer ingest");
                    events.extend(batch);
                }
                events
            })
        })
        .collect();

    // Mid-run: cut a full checkpoint while writes are in flight.
    std::thread::sleep(Duration::from_millis(30));
    engine.snapshot(&dir).expect("mid-run checkpoint");

    let mut all: Vec<(String, StreamEvent)> = Vec::new();
    for w in writers {
        all.extend(
            w.join()
                .expect("writer panicked")
                .into_iter()
                .map(|(k, e, _)| (k, e)),
        );
    }
    let now = all.iter().map(|(_, e)| e.ts).max().expect("events");
    let store = mirror(&spec, &all);
    let window = WindowSpec::time(now, 10_000);
    assert_matches_mirror(&engine, &store, window, "after the last ack");

    // Crash-shaped restart of both shards: rebuild = mid-run checkpoint +
    // WAL tail replay, then an immediate re-publication — the first
    // answers served must be bit-identical to the mirror of all acked
    // events.
    for shard in 0..engine.shards() {
        engine.restart_shard(shard).expect("restart");
    }
    // `restart_shard` only enqueues the kill; the supervisor notices and
    // respawns asynchronously. Wait until every shard reports itself
    // restarted and back up, so the shutdown below cannot race a worker
    // that is still dying or still quarantined.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match engine.stats() {
            Ok(rows)
                if rows
                    .iter()
                    .all(|r| r.health.state == "up" && r.health.restarts >= 1) =>
            {
                break
            }
            Ok(_) => {}
            Err(e) if e.is_retryable() => {}
            Err(e) => panic!("stats during restart: {e}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shards never came back up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_matches_mirror(&engine, &store, window, "after crash restart");
    engine.shutdown().expect("shutdown");

    // Graceful restart from the same directory: restore re-publishes
    // before the engine accepts its first query.
    let engine = Engine::start(
        &ServerConfig::new(spec)
            .shards(2)
            .snapshot_dir(&dir)
            .durability(true),
    )
    .expect("restart from disk");
    assert_matches_mirror(&engine, &store, window, "after graceful restart");
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Block until every shard reports itself back up after at least one
/// restart.
fn await_restarted(engine: &Engine) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match engine.stats() {
            Ok(rows)
                if rows
                    .iter()
                    .all(|r| r.health.state == "up" && r.health.restarts >= 1) =>
            {
                return
            }
            Ok(_) => {}
            Err(e) if e.is_retryable() => {}
            Err(e) => panic!("stats during restart: {e}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shards never came back up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fleet top-k view reads like `TOPK`: every shard's published epoch,
/// ranked over the view's window at the fleet clock (the largest shard
/// clock). A shard whose keys went quiet long ago must not rank them at
/// its own, older clock: `k1`'s 20 arrivals at tick 500 are outside
/// `time 5000 100`, so `k0`'s 5 at tick 5 000 win. The readout's `seq`
/// never goes backwards, across a respawn of every shard included.
#[test]
fn fleet_views_rank_the_published_epochs_at_the_fleet_clock() {
    let dir = scratch("fleetview");
    let spec = SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(7);
    let cfg = ServerConfig::new(spec.clone())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine start");
    assert_ne!(
        route("k0", 2),
        route("k1", 2),
        "the probe spans both shards"
    );
    engine
        .view_create(ViewDef {
            name: "top".to_string(),
            key: None,
            query: StandingQuery::TopK { k: 1 },
            window: ViewWindow::Time { range: 100 },
        })
        .expect("fleet view");
    let mut events = Vec::new();
    for (key, ts, n) in [("k1", 500, 20), ("k0", 5_000, 5)] {
        let event = StreamEvent::new(1, ts);
        engine
            .ingest(&[(key.to_string(), event, n)])
            .expect("ingest");
        events.extend(std::iter::repeat_n((key.to_string(), event), n as usize));
    }
    let store = mirror(&spec, &events);

    let readout = engine.view_read("top").expect("view read");
    assert_eq!(readout.now, 5_000);
    let window = WindowSpec::time(readout.now, 100);
    let ViewAnswer::Ranking(rows) = &readout.answer else {
        panic!("a topk view answers a ranking: {readout:?}");
    };
    assert_eq!(rows, &engine.top_k(1, window).expect("top_k"));
    assert_eq!(rows, &store.top_k(1, &Query::total_arrivals(), window));
    assert_eq!(rows[0].0, "k0");

    for shard in 0..engine.shards() {
        engine.restart_shard(shard).expect("restart");
    }
    await_restarted(&engine);
    let after = engine.view_read("top").expect("view read after restart");
    assert_eq!(after.answer, readout.answer);
    assert!(
        after.seq > readout.seq,
        "seq went from {} to {} across a respawn",
        readout.seq,
        after.seq
    );
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keyed view reads like `QUERY`: its owning shard's published epoch,
/// evaluated at the key's write clock, stamped with that epoch's `seq`.
/// A push and a read of one publication carry one `seq`, and the `seq`
/// rises across a respawn of the shard, as the epochs' sequence does.
#[test]
fn keyed_view_seq_is_the_published_epoch_seq() {
    let dir = scratch("keyedseq");
    let spec = SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(7);
    let cfg = ServerConfig::new(spec.clone())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine start");
    let def = ViewDef {
        name: "alarm".to_string(),
        key: Some("k0".to_string()),
        query: StandingQuery::Threshold {
            query: ScalarQuery::Total,
            limit: 4.0,
        },
        window: ViewWindow::Time { range: 100 },
    };
    engine.view_create(def).expect("keyed view");
    let (id, pushes) = engine.hub().subscribe("alarm");
    let event = StreamEvent::new(1, 50);
    engine
        .ingest(&[("k0".to_string(), event, 5)])
        .expect("ingest");

    let push = pushes
        .recv_timeout(Duration::from_secs(10))
        .expect("a crossing push");
    assert!(push.contains("\"above\":true"), "got: {push}");
    let pushed_seq: u64 = push
        .split("\"seq\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("push without a seq: {push}"));
    let readout = engine.view_read("alarm").expect("view read");
    assert_eq!(readout.seq, pushed_seq, "push and read of one publication");
    let store = mirror(&spec, &vec![("k0".to_string(), event); 5]);
    let window = WindowSpec::time(readout.now, 100);
    let Some(Ok(ecm::Answer::Value(estimate))) =
        store.query(&"k0".to_string(), &Query::total_arrivals(), window)
    else {
        panic!("a total answers a value");
    };
    assert_eq!(
        readout.answer,
        ViewAnswer::Scalar {
            estimate,
            above: true
        }
    );

    for shard in 0..engine.shards() {
        engine.restart_shard(shard).expect("restart");
    }
    await_restarted(&engine);
    let after = engine.view_read("alarm").expect("view read after restart");
    assert_eq!((&after.answer, after.now), (&readout.answer, readout.now));
    assert!(
        after.seq > readout.seq,
        "seq went from {} to {} across a respawn",
        readout.seq,
        after.seq
    );
    engine.hub().unsubscribe(id);
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
