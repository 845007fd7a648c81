//! Engine-level tests below the TCP layer: routing determinism, the
//! ingest gate, typed refusals, and backpressure-safe shutdown.

use ecm::frame::fnv1a;
use ecm::StreamEvent;
use sketch_server::engine::{route, Engine, EngineError};
use sketch_server::protocol::OwnedQuery;
use sketch_server::{ServerConfig, SketchSpec, WindowSpec};

fn spec() -> SketchSpec {
    SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(3)
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    // Published FNV-1a 64-bit test vectors: the one hash behind every
    // on-disk seal and the shard router.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    assert_eq!(route("foobar", 7), (0x85944171f73967e8u64 % 7) as usize);
}

#[test]
fn routing_is_deterministic_and_covers_all_shards() {
    let n = 8;
    for key in ["alice", "bob", "user-123", ""] {
        assert_eq!(route(key, n), route(key, n), "stable for {key:?}");
        assert!(route(key, n) < n);
    }
    // 1000 distinct keys must not all collapse onto a few shards.
    let mut hit = vec![false; n];
    for i in 0..1000 {
        hit[route(&format!("key-{i}"), n)] = true;
    }
    assert!(hit.iter().all(|&h| h), "every shard owns some keys");
}

#[test]
fn config_domain_errors_are_typed() {
    let err = Engine::start(&ServerConfig::new(spec()).shards(0)).expect_err("0 shards");
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    let err = Engine::start(&ServerConfig::new(spec()).mailbox_depth(0)).expect_err("0 depth");
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    let bad_spec = SketchSpec::time(10_000).epsilon(0.0);
    let err = Engine::start(&ServerConfig::new(bad_spec)).expect_err("bad spec");
    assert!(matches!(err, EngineError::Spec(_)));
}

#[test]
fn hierarchy_universe_guard_rejects_the_whole_batch() {
    let cfg = ServerConfig::new(spec().hierarchy(4)).shards(2);
    let engine = Engine::start(&cfg).expect("engine");
    // Item 16 is outside the 2^4 universe: reject, and apply nothing.
    let batch = vec![
        ("a".to_string(), StreamEvent::new(3, 1), 1),
        ("b".to_string(), StreamEvent::new(16, 1), 1),
    ];
    let err = engine.ingest(&batch).expect_err("out of universe");
    assert!(matches!(
        err,
        EngineError::ItemOutOfUniverse { item: 16, bits: 4 }
    ));
    let stats = engine.stats().expect("stats");
    let ingested: u64 = stats.iter().map(|s| &s.stats).map(|s| s.ingested).sum();
    assert_eq!(ingested, 0);
    engine.shutdown().expect("shutdown");
}

#[test]
fn oversized_weighted_batches_are_refused() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(1)).expect("engine");
    let heavy: Vec<_> = (0..8)
        .map(|i| (format!("k{i}"), StreamEvent::new(1, 1), 1 << 20))
        .collect();
    let err = engine.ingest(&heavy).expect_err("too heavy");
    assert!(matches!(err, EngineError::IngestTooHeavy { .. }));
    engine.shutdown().expect("shutdown");
}

#[test]
fn shutdown_is_idempotent_and_closes_the_gate() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    engine
        .ingest(&[("k".to_string(), StreamEvent::new(1, 5), 2)])
        .expect("ingest");
    engine.shutdown().expect("first shutdown");
    engine.shutdown().expect("second shutdown is a no-op");
    assert!(engine.is_down());

    let w = WindowSpec::time(10, 10);
    assert!(matches!(
        engine.ingest(&[("k".to_string(), StreamEvent::new(1, 6), 1)]),
        Err(EngineError::ShuttingDown)
    ));
    assert!(matches!(
        engine.query_served("k", &OwnedQuery::Total, w),
        Err(EngineError::ShuttingDown)
    ));
    assert!(matches!(engine.stats(), Err(EngineError::ShuttingDown)));
    assert!(matches!(engine.flush(10), Err(EngineError::ShuttingDown)));
}

#[test]
fn tiny_mailboxes_still_drain_everything() {
    // Depth-1 mailboxes: every send blocks until the worker drains —
    // pure backpressure, zero loss.
    let cfg = ServerConfig::new(spec()).shards(2).mailbox_depth(1);
    let engine = Engine::start(&cfg).expect("engine");
    for i in 0..200u64 {
        engine
            .ingest(&[(format!("k{}", i % 7), StreamEvent::new(i % 8, 1 + i), 1)])
            .expect("ingest under backpressure");
    }
    let stats = engine.stats().expect("stats");
    let rows: Vec<_> = stats.iter().map(|s| &s.stats).collect();
    assert_eq!(rows.len(), stats.len(), "all shards answered");
    assert_eq!(rows.iter().map(|s| s.ingested).sum::<u64>(), 200);
    assert_eq!(rows.iter().map(|s| s.keys).sum::<usize>(), 7);
    assert!(rows.iter().all(|s| s.memory_bytes > 0 || s.keys == 0));
    engine.shutdown().expect("shutdown");
}

#[test]
fn broadcast_top_k_merges_like_one_store() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(4)).expect("engine");
    // Distinct volumes: k0 gets 50, k1 gets 40, ... k4 gets 10.
    let mut batch = Vec::new();
    for (i, n) in [(0u64, 50u64), (1, 40), (2, 30), (3, 20), (4, 10)] {
        batch.push((format!("k{i}"), StreamEvent::new(1, 100), n));
    }
    engine.ingest(&batch).expect("ingest");
    let top = engine
        .top_k(3, WindowSpec::time(100, 10_000))
        .expect("top_k");
    let names: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["k0", "k1", "k2"]);
    assert!(top[0].1 > top[1].1 && top[1].1 > top[2].1);
    engine.shutdown().expect("shutdown");
}

/// `TOPK` over a skewed fleet scores a few sketches, not the fleet: each
/// shard reads every resident sketch's arrivals bound and scores only
/// those that can still reach the k-th score, and `STATS` shows how many
/// that was (`ranked_sketches`) — the number an operator watches for
/// pruning that has degraded. The answer is the mirror store's scan.
#[test]
fn top_k_scores_far_fewer_sketches_than_the_fleet_holds() {
    const KEYS: usize = 400;
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    let mut mirror: ecm::SketchStore<String> = ecm::SketchStore::new(spec()).expect("spec");
    // Tenant r writes ~ 600·r^-0.7 arrivals, spread over 8 items and ticks.
    for first in (0..KEYS).step_by(50) {
        let mut batch = Vec::new();
        for r in first..first + 50 {
            let share = (75.0 * ((r + 1) as f64).powf(-0.7)).ceil() as u64;
            for step in 0..8u64 {
                let event = StreamEvent::new((r as u64 + step) % 32, 100 + step);
                batch.push((format!("k{r:03}"), event, share));
            }
        }
        for (key, event, n) in &batch {
            mirror.insert_weighted(key.clone(), event.ts, event.item, *n);
        }
        engine.ingest(&batch).expect("ingest");
    }
    let window = WindowSpec::time(107, 10_000);
    let top = engine.top_k(10, window).expect("top_k");
    assert_eq!(top, mirror.top_k(10, &ecm::Query::total_arrivals(), window));
    assert_eq!(top[0].0, "k000");

    let rows = engine.stats().expect("stats");
    let resident: usize = rows.iter().map(|r| r.stats.keys).sum();
    assert_eq!(resident, KEYS);
    let ranked: u64 = rows.iter().map(|r| r.health.ranked_sketches).sum();
    assert!(
        (10..=KEYS as u64 / 8).contains(&ranked),
        "one TOPK 10 over {KEYS} keys scored {ranked} sketches"
    );
    engine.shutdown().expect("shutdown");
}

/// Retry an engine call through restart blips: retryable errors mean "not
/// applied, try again"; anything else is a real failure.
fn retry_until_ok<T>(mut call: impl FnMut() -> Result<T, EngineError>, what: &str) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match call() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{what}: still retrying after 10s: {e}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("{what}: non-retryable: {e}"),
        }
    }
}

#[test]
fn restart_shard_respawns_from_wal_without_losing_siblings() {
    // Durable engine: a crash-shaped restart must replay the WAL tail, so
    // every *acked* write survives. (Without durability there is no log
    // to replay — a crash may legitimately drop what it acked.)
    let dir = std::env::temp_dir().join(format!("sketchd-engine-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = ServerConfig::new(spec())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    // "a" routes to one shard, "b" to the other (checked below) — killing
    // a's shard must leave b's untouched.
    let (sa, sb) = (route("a", 2), route("b", 2));
    assert_ne!(sa, sb, "the test needs the keys on different shards");
    engine
        .ingest(&[
            ("a".to_string(), StreamEvent::new(1, 10), 3),
            ("b".to_string(), StreamEvent::new(1, 10), 5),
        ])
        .expect("ingest");

    engine.restart_shard(sa).expect("restart");
    // The sibling keeps answering throughout.
    let w = WindowSpec::time(10, 10_000);
    let b = engine
        .query_served("b", &OwnedQuery::Total, w)
        .expect("reads never touch the mailbox")
        .answer
        .expect("b exists")
        .expect("answers")
        .value()
        .expect("scalar");
    assert_eq!(b.round() as u64, 5);

    // The killed shard comes back with the acked history replayed, and
    // keeps serving new writes.
    retry_until_ok(
        || engine.ingest(&[("a".to_string(), StreamEvent::new(2, 10), 7)]),
        "ingest a after restart",
    );
    let a = engine
        .query_served("a", &OwnedQuery::Total, w)
        .expect("query a")
        .answer
        .expect("a exists")
        .expect("answers")
        .value()
        .expect("scalar");
    assert_eq!(
        a.round() as u64,
        3 + 7,
        "WAL tail replayed, new write applied"
    );

    let stats = engine.stats().expect("stats");
    assert_eq!(stats[sa].health.restarts, 1);
    assert_eq!(stats[sb].health.restarts, 0);
    assert_eq!(stats[sa].health.state, "up");
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_count_occurrences_and_the_log_stores_runs() {
    // A weighted trace (weights 1..=15, mean 8) through a durable engine:
    // `ingested` keeps meaning occurrences — it adds up to the acks —
    // `ingest_runs` counts the lines they arrived as, and the log holds
    // one entry per line, not per occurrence.
    let dir = std::env::temp_dir().join(format!("sketchd-engine-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = ServerConfig::new(spec())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    let (mut acked, mut lines) = (0u64, 0u64);
    for j in 0..20u64 {
        let batch: Vec<_> = (0..512u64)
            .map(|i| {
                let key = format!("t{:04}", (i * 7 + j) % 256);
                let event = StreamEvent::new((i * i + j) % 50_000, 100_000 + 100 * j + i / 6);
                (key, event, 1 + (i * 11 + j) % 15)
            })
            .collect();
        lines += batch.len() as u64;
        acked += engine.ingest(&batch).expect("ingest").ingested;
    }
    // A zero-weight line is no occurrence: acked as 0, logged nowhere.
    let before = engine.stats().expect("stats");
    assert_eq!(
        engine
            .ingest(&[("ghost".to_string(), StreamEvent::new(1, 200_000), 0)])
            .expect("empty ingest")
            .ingested,
        0
    );
    let stats = engine.stats().expect("stats");
    assert_eq!(stats, before, "a zero-weight line reached a shard");
    let rows = || stats.iter().map(|s| &s.stats);
    let ingested: u64 = rows().map(|s| s.ingested).sum();
    let runs: u64 = rows().map(|s| s.ingest_runs).sum();
    let wal_bytes: u64 = rows().map(|s| s.wal_bytes).sum();
    assert_eq!(ingested, acked, "ingested must sum the weights");
    assert_eq!(runs, lines);
    assert!((7.5..8.5).contains(&(ingested as f64 / runs as f64)));
    assert_eq!(rows().map(|s| s.keys).sum::<usize>(), 256, "no ghost key");
    let per_occurrence = wal_bytes as f64 / ingested as f64;
    assert!(
        per_occurrence <= 2.5,
        "{per_occurrence:.2} log bytes per occurrence ({wal_bytes} B for {ingested})"
    );
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_restart_is_a_typed_refusal() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    assert!(matches!(
        engine.restart_shard(2),
        Err(EngineError::InvalidConfig(_))
    ));
    engine.shutdown().expect("shutdown");
}

#[test]
fn malformed_fault_plan_is_a_typed_start_error() {
    let cfg = ServerConfig::new(spec()).fault_plan("bogus:explode@now");
    assert!(matches!(
        Engine::start(&cfg),
        Err(EngineError::FaultPlan(_))
    ));
}

#[cfg(any(debug_assertions, feature = "fault-injection"))]
#[test]
fn wedged_shard_sheds_typed_overloaded_then_recovers() {
    // The 3rd message stalls its worker for 1.5 s; with a 200 ms health
    // deadline the supervisor quarantines the shard as wedged (no respawn:
    // the thread is alive), and admission sheds instead of blocking.
    let cfg = ServerConfig::new(spec())
        .shards(1)
        .mailbox_depth(1)
        .health_deadline(std::time::Duration::from_millis(200))
        .admission_timeout(std::time::Duration::from_millis(100))
        .fault_plan("shard:delay=1500ms@seq=3");
    let engine = Engine::start(&cfg).expect("engine");
    let event = |i: u64| vec![("k".to_string(), StreamEvent::new(1, i), 1)];
    engine.ingest(&event(1)).expect("ingest 1");
    engine.ingest(&event(2)).expect("ingest 2");
    // Message 3 stalls the worker. An ingest returns only once its ack
    // arrives, so it takes two helper threads to set the scene: one whose
    // message the worker is stalled inside, one whose message fills the
    // depth-1 mailbox behind it (both replies wait out the stall). Then
    // shed against the full mailbox here.
    std::thread::scope(|scope| {
        // The helpers compete with each other (and, late, with the probing
        // loop below) for the mailbox, so they may get shed too — they
        // retry through it.
        let stalled = scope.spawn(|| retry_until_ok(|| engine.ingest(&event(3)), "stalled ingest"));
        let queued = scope.spawn(|| retry_until_ok(|| engine.ingest(&event(3)), "queued ingest"));
        // Head start: let the helpers occupy the worker and the mailbox.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let shed = loop {
            // Same timestamp as the helpers' events: any sender may win
            // the depth-1 mailbox slot (and become the stalled seq-3
            // message), and equal timestamps keep the worker's per-key
            // non-decreasing ordering valid in every interleaving.
            match engine.ingest(&event(3)) {
                Err(e @ EngineError::Overloaded { .. }) => break e,
                Err(e) if e.is_retryable() => {}
                Ok(_) => {} // admitted before the stall bit — keep probing
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(std::time::Instant::now() < deadline, "never shed");
        };
        assert!(shed.is_retryable());
        assert!(shed.to_string().contains("retry"), "hint in: {shed}");

        // The stall passes, the supervisor flips the shard back to up, and
        // the queue drains — the stalled send eventually lands.
        stalled.join().expect("stalled sender");
        queued.join().expect("queued sender");
    });
    retry_until_ok(|| engine.ingest(&event(9)), "ingest after recovery");
    let stats = retry_until_ok(|| engine.stats(), "stats");
    assert_eq!(stats[0].health.state, "up");
    assert_eq!(stats[0].health.restarts, 0, "wedged is not dead");
    assert!(stats[0].health.shed_requests >= 1, "{:?}", stats[0].health);
    engine.shutdown().expect("shutdown");
}

/// `STATS` is a read: it enqueues nothing, so it answers at once while
/// the shard's worker is stalled inside a message, and its row is
/// complete — the published keys and the counters the worker recorded
/// before it stalled.
#[test]
#[cfg(any(debug_assertions, feature = "fault-injection"))]
fn stats_is_complete_while_a_shard_is_wedged_or_dead() {
    let cfg = ServerConfig::new(spec())
        .shards(1)
        .health_deadline(std::time::Duration::from_millis(200))
        .fault_plan("shard:delay=1500ms@seq=3");
    let engine = Engine::start(&cfg).expect("engine");
    let event = |i: u64| vec![("k".to_string(), StreamEvent::new(1, i), 1)];
    engine.ingest(&event(1)).expect("ingest 1");
    engine.ingest(&event(2)).expect("ingest 2");
    std::thread::scope(|scope| {
        let stalled = scope.spawn(|| engine.ingest(&event(3)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let row = loop {
            let asked = std::time::Instant::now();
            let rows = engine.stats().expect("stats");
            let took = asked.elapsed();
            assert!(
                took < std::time::Duration::from_millis(100),
                "STATS took {took:?}"
            );
            if rows[0].health.state == "wedged" {
                break rows[0];
            }
            assert!(std::time::Instant::now() < deadline, "never wedged");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(row.stats.keys, 1);
        assert_eq!(
            row.stats.ingested, 2,
            "the stalled batch is not applied yet"
        );
        stalled
            .join()
            .expect("stalled sender")
            .expect("acked after the stall");
    });
    engine.shutdown().expect("shutdown");

    // An idle engine: `STATS` leaves every mailbox untouched.
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    for _ in 0..100 {
        engine.stats().expect("stats");
    }
    let rows = engine.stats().expect("stats");
    assert!(rows.iter().all(|r| r.health.mailbox_hwm == 0), "{rows:?}");
    engine.shutdown().expect("shutdown");
}

#[test]
#[cfg(any(debug_assertions, feature = "fault-injection"))]
fn a_worker_that_dies_holding_a_batch_never_acks_it() {
    // No durability: the worker panics on receipt of its 2nd message,
    // before applying it. The batch is applied nowhere, so the caller must
    // see the retryable error — not an `Ok` for having reached a mailbox.
    let cfg = ServerConfig::new(spec())
        .shards(1)
        .fault_plan("shard:panic@seq=2");
    let engine = Engine::start(&cfg).expect("engine");
    engine
        .ingest(&[("k".to_string(), StreamEvent::new(1, 10), 1)])
        .expect("ingest 1");
    let doomed = [("k".to_string(), StreamEvent::new(2, 11), 4)];
    let err = engine
        .ingest(&doomed)
        .expect_err("the worker died holding the batch");
    assert_eq!(err, EngineError::ShardRestarting { shard: 0 });
    assert!(err.is_retryable());

    // The retry lands on the respawned worker exactly once.
    retry_until_ok(|| engine.ingest(&doomed), "retry after respawn");
    let count = engine
        .query_served(
            "k",
            &OwnedQuery::Point { item: 2 },
            WindowSpec::time(11, 10_000),
        )
        .expect("query")
        .answer
        .expect("k exists")
        .expect("answers")
        .value()
        .expect("scalar");
    assert_eq!(count.round() as u64, 4);
    engine.shutdown().expect("shutdown");
}

#[test]
#[cfg(any(debug_assertions, feature = "fault-injection"))]
fn a_batch_refused_by_a_failed_rotation_is_not_on_the_log() {
    // A one-byte segment threshold makes every append rotate first, and
    // the first rotation fails. The caller is told "not applied", so a
    // restart must not replay the batch: a retry would count it twice.
    let dir = std::env::temp_dir().join(format!("sketchd-engine-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::new(spec())
        .shards(1)
        .snapshot_dir(&dir)
        .durability(true)
        .wal_segment_bytes(1)
        .fault_plan("wal_rotate:err@seq=1");
    let engine = Engine::start(&cfg).expect("engine");
    let err = engine
        .ingest(&[("a".to_string(), StreamEvent::new(1, 10), 3)])
        .expect_err("the rotation fails");
    assert!(matches!(err, EngineError::Wal(_)), "{err}");

    engine.restart_shard(0).expect("restart");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let row = &retry_until_ok(|| engine.stats(), "stats")[0];
        if row.health.restarts == 1 && row.health.state == "up" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never came back"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let total = engine
        .query_served("a", &OwnedQuery::Total, WindowSpec::time(10, 10_000))
        .expect("query")
        .answer
        .map_or(0.0, |r| r.expect("answers").value().expect("scalar"));
    assert_eq!(total, 0.0, "the refused batch was replayed");
    // The respawned worker's fresh hook fails its first rotation too: the
    // one shutdown's final compaction makes.
    let _ = engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broadcast_errors_name_the_shard_that_failed() {
    // Kill shard 1 of 2 for good: its respawn finds a corrupt checkpoint.
    let dir = std::env::temp_dir().join(format!("sketchd-engine-dead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::new(spec()).shards(2).snapshot_dir(&dir);
    let engine = Engine::start(&cfg).expect("engine");
    engine
        .view_create(ecm::ViewDef {
            name: "top".to_string(),
            key: None,
            query: ecm::StandingQuery::TopK { k: 3 },
            window: ecm::ViewWindow::Time { range: 10_000 },
        })
        .expect("fleet view");
    // A keyed view on a key the doomed shard owns.
    let key = ["a", "b"]
        .into_iter()
        .find(|k| route(k, 2) == 1)
        .expect("one of the two keys routes to shard 1");
    let total = OwnedQuery::Total;
    engine
        .view_create(ecm::ViewDef {
            name: "alarm".to_string(),
            key: Some(key.to_string()),
            query: ecm::StandingQuery::Threshold {
                query: ecm::ScalarQuery::Total,
                limit: 2.0,
            },
            window: ecm::ViewWindow::Time { range: 10_000 },
        })
        .expect("keyed view");
    engine
        .ingest(&[
            ("a".to_string(), StreamEvent::new(1, 10), 3),
            ("b".to_string(), StreamEvent::new(1, 10), 5),
        ])
        .expect("ingest");
    engine.snapshot(&dir).expect("snapshot");
    std::fs::write(dir.join("shard-1.full"), b"not a checkpoint").expect("corrupt");
    engine.restart_shard(1).expect("restart");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats().expect("stats")[1].health.state != "dead" {
        assert!(std::time::Instant::now() < deadline, "shard 1 never died");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // `STATS` still reports what the dead shard last published and its
    // worker last recorded.
    let owned: Vec<u64> = [("a", 3), ("b", 5)]
        .into_iter()
        .filter(|(k, _)| route(k, 2) == 1)
        .map(|(_, n)| n)
        .collect();
    let row = engine.stats().expect("stats")[1];
    assert_eq!(row.stats.keys, owned.len());
    assert_eq!(row.stats.ingested, owned.iter().sum::<u64>());

    let died = EngineError::ShardDied { shard: 1 };
    assert_eq!(engine.flush(20).expect_err("flush"), died);
    assert_eq!(engine.snapshot(&dir).expect_err("snapshot"), died);
    // A fleet view is no broadcast: like `TOPK`, it still answers from
    // every shard's published epoch, the dead shard's last one included.
    let readout = engine.view_read("top").expect("view read");
    let window = WindowSpec::time(readout.now, 10_000);
    assert_eq!(
        readout.answer,
        ecm::ViewAnswer::Ranking(engine.top_k(3, window).expect("top_k"))
    );
    // So is a keyed view: it is evaluated on the owner's published epoch,
    // with no mailbox round trip to the dead worker.
    let readout = engine.view_read("alarm").expect("keyed view read");
    let served = engine
        .query_served(key, &total, WindowSpec::time(readout.now, 10_000))
        .expect("query");
    let Some(Ok(ecm::Answer::Value(estimate))) = served.answer else {
        panic!("a total answers a value: {served:?}");
    };
    assert_eq!(
        readout.answer,
        ecm::ViewAnswer::Scalar {
            estimate,
            above: true
        }
    );
    // Shards hold no views, so a drop needs no shard: it succeeds with the
    // key's owner dead, and the view is gone.
    engine.view_drop("alarm").expect("view drop");
    assert!(
        !engine.view_list().iter().any(|d| d.name == "alarm"),
        "a dropped view must leave the registry"
    );
    let _ = engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sketches scored by fleet rankings so far, summed over the shards.
fn ranked_sketches(engine: &Engine) -> u64 {
    let rows = engine.stats().expect("stats");
    rows.iter().map(|r| r.health.ranked_sketches).sum()
}

/// Wait until every shard reports itself restarted and back up.
fn await_restarts(engine: &Engine) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
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
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// A fleet ranking is computed once per publication: a second identical
/// `TOPK` with nothing published in between returns the same rows from
/// the memo and scores no sketch. Every publication — an ingest, a
/// `FLUSH`, a shard's respawn — makes the next call rank again, and that
/// ranking is the un-sharded mirror's.
#[test]
fn top_k_ranks_once_per_publication() {
    let dir = std::env::temp_dir().join(format!("sketchd-engine-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = ServerConfig::new(spec())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    let mut mirror: ecm::SketchStore<String> = ecm::SketchStore::new(spec()).expect("spec");
    let mut ingest = |from: u64, to: u64| {
        let batch: Vec<(String, StreamEvent, u64)> = (from..to)
            .map(|t| {
                (
                    format!("k{}", t % 23),
                    StreamEvent::new(t % 5, t),
                    1 + t % 7,
                )
            })
            .collect();
        for (key, event, n) in &batch {
            mirror.insert_weighted(key.clone(), event.ts, event.item, *n);
        }
        engine.ingest(&batch).expect("ingest");
    };
    ingest(1, 400);
    let window = WindowSpec::time(1_000, 5_000);
    let first = engine.top_k(5, window).expect("top_k");
    let (ranked, memo) = (ranked_sketches(&engine), engine.rank_memo_stats());
    assert_eq!(engine.top_k(5, window).expect("top_k"), first);
    assert_eq!(ranked_sketches(&engine), ranked, "a hit scores nothing");
    let after = engine.rank_memo_stats();
    assert_eq!((after.hits, after.misses), (memo.hits + 1, memo.misses));

    let q = ecm::Query::total_arrivals();
    let rerank = |what: &str, mirror: &ecm::SketchStore<String>| {
        let before = engine.rank_memo_stats().misses;
        assert_eq!(
            engine.top_k(5, window).expect("top_k"),
            mirror.top_k(5, &q, window),
            "{what}"
        );
        assert_eq!(engine.rank_memo_stats().misses, before + 1, "{what}");
    };
    ingest(400, 600);
    rerank("after an ingest", &mirror);
    engine.flush(700).expect("flush");
    mirror.advance_to(700);
    rerank("after a flush", &mirror);
    for shard in 0..engine.shards() {
        engine.restart_shard(shard).expect("restart");
    }
    await_restarts(&engine);
    rerank("after every shard restarted", &mirror);
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet top-k view and a `TOPK` of the same `k` and resolved window
/// over the same publications are one ranking: whichever reads second
/// hits the entry the first left.
#[test]
fn a_fleet_view_read_and_top_k_share_one_memo_entry() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    let batch: Vec<(String, StreamEvent, u64)> = (0..30u64)
        .map(|i| (format!("t{i}"), StreamEvent::new(i % 4, 50 + i), 1 + i % 9))
        .collect();
    engine.ingest(&batch).expect("ingest");
    engine
        .view_create(ecm::ViewDef {
            name: "leaders".to_string(),
            key: None,
            query: ecm::StandingQuery::TopK { k: 4 },
            window: ecm::ViewWindow::Time { range: 2_000 },
        })
        .expect("fleet view");
    let readout = engine.view_read("leaders").expect("view read");
    let (ranked, memo) = (ranked_sketches(&engine), engine.rank_memo_stats());
    let rows = engine
        .top_k(4, WindowSpec::time(readout.now, 2_000))
        .expect("top_k");
    assert_eq!(readout.answer, ecm::ViewAnswer::Ranking(rows));
    let after = engine.rank_memo_stats();
    assert_eq!((after.hits, after.misses), (memo.hits + 1, memo.misses));
    assert_eq!(ranked_sketches(&engine), ranked, "the TOPK ranked nothing");
    engine.shutdown().expect("shutdown");
}

/// Keys silent for longer than the window bound to 0 and score 0, so a
/// ranking that already keeps `k` of them prunes the rest on their keys:
/// one `TOPK 10` over 2 000 silent keys scores at most 10 per shard.
#[test]
fn silent_keys_end_a_ranking_once_k_are_kept() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    let mut mirror: ecm::SketchStore<String> = ecm::SketchStore::new(spec()).expect("spec");
    let batch: Vec<(String, StreamEvent, u64)> = (0..2_000u64)
        .map(|i| (format!("k{i}"), StreamEvent::new(i % 7, 1 + i), 1 + i % 3))
        .collect();
    engine.ingest(&batch).expect("ingest");
    mirror.ingest_runs(&batch);
    let window = WindowSpec::time(50_000, 10_000);
    let before = ranked_sketches(&engine);
    let rows = engine.top_k(10, window).expect("top_k");
    let scored = ranked_sketches(&engine) - before;
    assert!(scored <= 2 * 10, "scored {scored} sketches for TOPK 10");
    assert_eq!(
        rows,
        mirror.top_k(10, &ecm::Query::total_arrivals(), window)
    );
    engine.shutdown().expect("shutdown");
}

/// Shards hold no views, so creating and dropping one needs no shard:
/// both succeed while the key's owner is dead, and the manifest they
/// wrote restores exactly the listed views.
#[test]
fn view_admin_needs_no_shard_and_the_manifest_follows_it() {
    let dir = std::env::temp_dir().join(format!("sketchd-engine-admin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::new(spec())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    let key = ["a", "b", "c"]
        .into_iter()
        .find(|k| route(k, 2) == 1)
        .expect("a key routes to shard 1");
    let alarm = |name: &str| ecm::ViewDef {
        name: name.to_string(),
        key: Some(key.to_string()),
        query: ecm::StandingQuery::Threshold {
            query: ecm::ScalarQuery::Total,
            limit: 2.0,
        },
        window: ecm::ViewWindow::Time { range: 10_000 },
    };
    engine.view_create(alarm("doomed")).expect("create");
    engine
        .ingest(&[(key.to_string(), StreamEvent::new(1, 10), 3)])
        .expect("ingest");
    engine.snapshot(&dir).expect("snapshot");
    let checkpoint = dir.join("shard-1.full");
    let good = std::fs::read(&checkpoint).expect("checkpoint");
    std::fs::write(&checkpoint, b"not a checkpoint").expect("corrupt");
    engine.restart_shard(1).expect("restart");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats().expect("stats")[1].health.state != "dead" {
        assert!(std::time::Instant::now() < deadline, "shard 1 never died");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    engine
        .view_create(alarm("late"))
        .expect("create on a dead shard");
    engine.view_drop("doomed").expect("drop on a dead shard");
    let listed = engine.view_list();
    assert_eq!(listed, vec![alarm("late")]);
    let _ = engine.shutdown();
    drop(engine);

    std::fs::write(&checkpoint, good).expect("repair");
    let engine = Engine::start(&cfg).expect("restart");
    assert_eq!(engine.view_list(), listed);
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Engine::subscribe` checks the registry and registers under one lock:
/// an unknown view is refused, and a drop ends every stream it admitted.
#[test]
fn subscribe_refuses_unknown_views_and_a_drop_ends_the_stream() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    assert_eq!(
        engine.subscribe("nope").expect_err("unknown view"),
        EngineError::View(ecm::ViewError::Unknown {
            name: "nope".to_string()
        })
    );
    engine
        .view_create(ecm::ViewDef {
            name: "top".to_string(),
            key: None,
            query: ecm::StandingQuery::TopK { k: 2 },
            window: ecm::ViewWindow::Time { range: 1_000 },
        })
        .expect("create");
    let (_, rx) = engine.subscribe("top").expect("subscribe");
    engine.view_drop("top").expect("drop");
    assert!(
        rx.recv_timeout(std::time::Duration::from_secs(10)).is_err(),
        "a dropped view's stream ends"
    );
    assert_eq!(engine.views_summary().subscribers, 0);
    engine.shutdown().expect("shutdown");
}
