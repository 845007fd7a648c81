//! `SUBSCRIBE` pushes come from one notifier over published epochs: every
//! keyed push is the event a library [`ViewSet`] emits over an un-sharded
//! mirror at the same write, and a fleet top-k view pushes its ranking
//! changes.

use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use ecm::{
    ScalarQuery, SketchStore, StandingQuery, StreamEvent, Threshold, ViewDef, ViewSet, ViewWindow,
};
use sketch_server::engine::Engine;
use sketch_server::protocol::response::{self, is_ok};
use sketch_server::{Client, Server, ServerConfig, SketchSpec};
use stream_gen::SeededRng;

/// `line` without its `"seq":N` field: a push carries its epoch's `seq`,
/// the mirror's event its own round count.
fn without_seq(line: &str) -> String {
    let at = line.find(",\"seq\":").expect("a push has a seq");
    let digits = line[at + 7..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("the seq is followed by the closing brace");
    format!("{}{}", &line[..at], &line[at + 7 + digits..])
}

fn keyed(name: &str, key: &str, query: StandingQuery) -> ViewDef<String> {
    ViewDef {
        name: name.to_string(),
        key: Some(key.to_string()),
        query,
        window: ViewWindow::Time { range: 400 },
    }
}

/// Hub subscribers on keyed threshold and heavy-hitter views of a 2-shard
/// engine, under random `ingest` and `flush`. After each write a library
/// `ViewSet` over an un-sharded mirror store is maintained (or refreshed);
/// every line each subscriber received must equal, `seq` apart, the
/// events the mirror emitted for its view, in order. The windows are short
/// against the clock's steps, so answers cross back and forth: a
/// publication the notifier skipped would lose or merge a push.
#[test]
fn pushes_are_the_library_events_of_every_publication() {
    let spec = SketchSpec::time(400).epsilon(0.2).hierarchy(4).seed(17);
    let cfg = ServerConfig::new(spec.clone())
        .shards(2)
        .subscriber_outbox(1 << 14);
    let engine = Engine::start(&cfg).expect("engine");
    let total = |limit| StandingQuery::Threshold {
        query: ScalarQuery::Total,
        limit,
    };
    let hh = |abs| StandingQuery::HeavyHitters {
        threshold: Threshold::Absolute(abs),
    };
    let defs = vec![
        keyed("a-total", "a", total(12.0)),
        keyed("b-total", "b", total(30.0)),
        keyed("c-total", "c", total(5.0)),
        keyed(
            "d-point",
            "d",
            StandingQuery::Threshold {
                query: ScalarQuery::Point { item: 3 },
                limit: 4.0,
            },
        ),
        keyed("a-hh", "a", hh(6.0)),
        keyed("d-hh", "d", hh(4.0)),
        keyed("never", "zz", total(1.0)),
    ];
    let mut mirror: SketchStore<String> = SketchStore::new(spec).expect("spec");
    let mut views: ViewSet<String> = ViewSet::new();
    let mut outboxes: BTreeMap<String, Receiver<String>> = BTreeMap::new();
    for def in &defs {
        engine.view_create(def.clone()).expect("create");
        views.create(def.clone()).expect("mirror create");
        // Read once so the mirror view is pending, as a freshly
        // subscribed view is to the notifier.
        assert!(views.read(&def.name, &mirror).is_err());
        let (_, rx) = engine.subscribe(&def.name).expect("subscribe");
        outboxes.insert(def.name.clone(), rx);
    }

    let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut rng = SeededRng::seed_from_u64(42);
    let mut now = 1u64;
    for _ in 0..300 {
        let events = if rng.gen_bool(0.15) {
            now += rng.gen_range(100..700u64);
            engine.flush(now).expect("flush");
            mirror.advance_to(now);
            views.refresh(&mirror)
        } else {
            let runs: Vec<(String, StreamEvent, u64)> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    now += rng.gen_range(0..40u64);
                    let key = ["a", "b", "c", "d"][rng.gen_range(0..4usize)];
                    let event = StreamEvent::new(rng.gen_range(0..6u64), now);
                    (key.to_string(), event, rng.gen_range(1..5u64))
                })
                .collect();
            let ack = engine.ingest(&runs).expect("ingest");
            assert_eq!(ack.stale, 0, "ticks never go back");
            mirror.ingest_runs(&runs);
            views.maintain(&mirror)
        };
        for event in &events {
            expected
                .entry(event.view().to_string())
                .or_default()
                .push(without_seq(&response::view_event(event)));
        }
    }
    // Shutdown drains the notifier, so every push is in its outbox.
    engine.shutdown().expect("shutdown");

    let mut pushes = 0;
    for (name, rx) in &outboxes {
        let got: Vec<String> = rx.try_iter().map(|line| without_seq(&line)).collect();
        let want = expected.remove(name).unwrap_or_default();
        assert_eq!(got, want, "pushes of view {name}");
        pushes += got.len();
    }
    assert!(pushes >= 40, "the walk should cross often: {pushes} pushes");
}

/// Wait for a push satisfying `pred`, skipping heartbeats.
fn await_push(sub: &mut Client, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "timed out waiting for a push");
        match sub.recv() {
            Ok(line) if pred(&line) => return line,
            Ok(_) | Err(sketch_server::ClientError::TimedOut) => continue,
            Err(e) => panic!("subscriber connection died: {e}"),
        }
    }
}

/// A `SUBSCRIBE` to a fleet top-k view receives the ranking when it first
/// has one, and again when its keys change order.
#[test]
fn a_fleet_topk_subscriber_receives_ranking_changes() {
    let spec = SketchSpec::time(10_000).epsilon(0.2).seed(29);
    let server = Server::start(ServerConfig::new(spec).shards(2)).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ack = client.call("VIEW CREATE leaders topk 2 time 5000").unwrap();
    assert!(is_ok(&ack), "create rejected: {ack}");
    let mut sub = Client::connect(server.local_addr()).expect("connect subscriber");
    sub.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let sub_ack = sub.subscribe("leaders").unwrap();
    assert!(is_ok(&sub_ack), "subscribe rejected: {sub_ack}");

    let feed = |client: &mut Client, key: &str, t0: u64, n: u64| {
        let lines: Vec<String> = (0..n).map(|i| format!("{key} {} 1", t0 + i)).collect();
        let ack = client.batch(&lines).expect("batch");
        assert!(is_ok(&ack), "ingest rejected: {ack}");
    };
    let topk = |line: &str| line.contains("\"notify\":\"topk\"");
    feed(&mut client, "user-1", 1, 30);
    feed(&mut client, "user-2", 31, 10);
    let first = await_push(&mut sub, |l| topk(l) && l.contains("user-2"));
    assert!(first.contains("\"view\":\"leaders\""), "got: {first}");
    assert!(
        first.find("user-1") < first.find("user-2"),
        "user-1 leads: {first}"
    );
    // user-2 overtakes: the order changes, and the change is pushed.
    feed(&mut client, "user-2", 41, 40);
    let second = await_push(&mut sub, |l| topk(l) && l.find("user-2") < l.find("user-1"));
    assert!(
        second.contains("\"topk\":[{\"key\":\"user-2\""),
        "got: {second}"
    );
    drop(server);
}
