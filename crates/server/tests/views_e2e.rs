//! End-to-end standing views over a real TCP `sketchd`: the `VIEW`
//! verbs round-trip, `SUBSCRIBE` pushes maintenance notifications as they
//! happen, a slow subscriber loses lines to a typed drop marker instead of
//! blocking shard workers, and registered views survive
//! snapshot → kill → restore with their materialized answers intact.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sketch_server::protocol::response::is_ok;
use sketch_server::{Client, Server, ServerConfig, SketchSpec};

const WINDOW: u64 = 10_000;

fn spec() -> SketchSpec {
    // A hierarchy so heavy-hitter views are answerable.
    SketchSpec::time(WINDOW).epsilon(0.2).hierarchy(8).seed(23)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-views-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start(cfg: ServerConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("start server");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

/// `STORE` a run of `n` events for `key`, all item `item`, at ticks
/// `t0..t0+n`.
fn feed(client: &mut Client, key: &str, item: u64, t0: u64, n: u64) {
    let lines: Vec<String> = (0..n).map(|i| format!("{key} {} {item}", t0 + i)).collect();
    let ack = client.batch(&lines).expect("batch");
    assert!(is_ok(&ack), "ingest rejected: {ack}");
}

/// Wait for a notification line satisfying `pred`, skipping heartbeats,
/// with a wall-clock deadline (maintenance runs after the ingest ack, so
/// pushes race the test without one).
fn await_notification(sub: &mut Client, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "timed out waiting for a push");
        match sub.recv() {
            Ok(line) if pred(&line) => return line,
            Ok(_) => continue, // heartbeat or an unrelated change
            Err(sketch_server::ClientError::TimedOut) => continue,
            Err(e) => panic!("subscriber connection died: {e}"),
        }
    }
}

#[test]
fn view_verbs_round_trip() {
    let (server, mut client) = start(ServerConfig::new(spec()).shards(2));

    let ack = client
        .call("VIEW CREATE hot threshold user-1 total 5 time 1000")
        .unwrap();
    assert!(is_ok(&ack), "create rejected: {ack}");
    // Duplicate names are refused.
    let dup = client
        .call("VIEW CREATE hot threshold user-1 total 5 time 1000")
        .unwrap();
    assert!(dup.contains("duplicate_view"), "got: {dup}");
    // The definition round-trips through LIST (floats in shortest
    // round-trip form).
    let list = client.call("VIEW LIST").unwrap();
    assert!(
        list.contains("hot threshold user-1 total 5.0 time 1000"),
        "got: {list}"
    );

    // Reading before any ingest is a typed no-data error, not a crash.
    let empty = client.call("VIEW READ hot").unwrap();
    assert!(empty.contains("view_no_data"), "got: {empty}");

    feed(&mut client, "user-1", 3, 1, 10);
    let read = client.call("VIEW READ hot").unwrap();
    assert!(is_ok(&read), "read rejected: {read}");
    assert!(read.contains("\"above\":true"), "got: {read}");
    // The readout names its consistency point.
    assert!(
        read.contains("\"now\":10") && read.contains("\"seq\":"),
        "got: {read}"
    );

    // STATS reports the registry and maintenance counters.
    let stats = client.call("STATS").unwrap();
    assert!(stats.contains("\"registered\":1"), "got: {stats}");

    let dropped = client.call("VIEW DROP hot").unwrap();
    assert!(is_ok(&dropped), "drop rejected: {dropped}");
    let gone = client.call("VIEW READ hot").unwrap();
    assert!(gone.contains("unknown_view"), "got: {gone}");

    drop(server);
}

#[test]
fn subscriber_sees_threshold_crossing_push() {
    let (server, mut client) = start(ServerConfig::new(spec()).shards(2));
    let ack = client
        .call("VIEW CREATE alarm threshold user-7 total 50 time 5000")
        .unwrap();
    assert!(is_ok(&ack), "create rejected: {ack}");

    let mut sub = Client::connect(server.local_addr()).expect("connect subscriber");
    sub.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let sub_ack = sub.subscribe("alarm").unwrap();
    assert!(is_ok(&sub_ack), "subscribe rejected: {sub_ack}");

    // Below the limit: no crossing yet.
    feed(&mut client, "user-7", 1, 1, 10);
    // Past the limit: the maintenance pass must push a crossing.
    feed(&mut client, "user-7", 1, 11, 60);
    let line = await_notification(&mut sub, |l| l.contains("\"notify\":\"threshold\""));
    assert!(line.contains("\"view\":\"alarm\""), "got: {line}");
    assert!(line.contains("\"above\":true"), "got: {line}");
    // The pushed estimate is the same JSON shape a VIEW READ returns.
    assert!(
        line.contains("\"value\":") && line.contains("\"guarantee\":"),
        "got: {line}"
    );

    // Subscribing to a view that does not exist is a typed error and the
    // connection stays usable.
    let mut other = Client::connect(server.local_addr()).expect("connect");
    let bad = other.subscribe("nope").unwrap();
    assert!(bad.contains("unknown_view"), "got: {bad}");
    let pong = other.call("PING").unwrap();
    assert!(is_ok(&pong), "connection unusable after failed subscribe");

    drop(server);
}

#[test]
fn slow_subscriber_gets_drop_marker_not_backpressure() {
    // The TCP subscribe loop drains its outbox into the socket as fast as
    // notifications arrive, so a genuinely slow consumer is one that does
    // not drain: subscribe on the hub directly and let the bounded outbox
    // (depth 2 here) fill while real ingest drives maintenance.
    let (server, mut client) = start(ServerConfig::new(spec()).shards(1).subscriber_outbox(2));
    let ack = client
        .call("VIEW CREATE churn hh user-2 abs:5 time 10000")
        .unwrap();
    assert!(is_ok(&ack), "create rejected: {ack}");

    let hub = server.engine().hub().clone();
    let (id, rx) = hub.subscribe("churn");
    // The view was materialized at create; with no data yet it is pending.
    let warm = client.call("VIEW READ churn").unwrap();
    assert!(warm.contains("view_no_data"), "got: {warm}");

    // Each burst promotes a new item into the hitter set → one
    // HittersChanged per burst. The outbox holds two lines: bursts 2..6
    // become pending drops while no shard worker ever blocks.
    for i in 0..6u64 {
        feed(&mut client, "user-2", i, 1 + i * 10, 10);
    }
    // Ingest acks land before maintenance publishes; poll the fleet-wide
    // dropped counter instead of sleeping blind.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.call("STATS").unwrap();
        let dropped = stats
            .split("\"dropped_notifications\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or(0);
        if dropped >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "drops not recorded: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Drain the two delivered lines, then trigger one more change: the hub
    // owes 4 lines and must deliver the typed marker *before* the next
    // successful line.
    let recv = |rx: &std::sync::mpsc::Receiver<String>| {
        rx.recv_timeout(Duration::from_secs(10)).expect("push line")
    };
    let first = recv(&rx);
    assert!(
        first.contains("\"notify\":\"heavy_hitters\""),
        "got: {first}"
    );
    let second = recv(&rx);
    assert!(
        second.contains("\"notify\":\"heavy_hitters\""),
        "got: {second}"
    );
    feed(&mut client, "user-2", 100, 100, 10);
    let marker = recv(&rx);
    assert!(marker.contains("\"notify\":\"dropped\""), "got: {marker}");
    assert!(marker.contains("\"view\":\"churn\""), "got: {marker}");
    assert!(marker.contains("\"count\":4"), "got: {marker}");
    let after = recv(&rx);
    assert!(
        after.contains("\"notify\":\"heavy_hitters\""),
        "got: {after}"
    );
    assert!(after.contains("\"hitters\":"), "got: {after}");

    hub.unsubscribe(id);
    drop(server);
}

#[test]
fn views_survive_shard_restart_mid_subscribe() {
    // A supervised shard restart must re-register the standing views on
    // the fresh worker, and live subscribers must learn about the blip:
    // the typed `{"notify":"restarted"}` marker arrives *before* the next
    // real publication from the reborn shard.
    let dir = scratch("shard-restart");
    let (server, mut client) = start(
        ServerConfig::new(spec())
            .shards(2)
            .snapshot_dir(&dir)
            .durability(true),
    );
    let ack = client
        .call("VIEW CREATE alarm threshold user-7 total 50 time 5000")
        .unwrap();
    assert!(is_ok(&ack), "create rejected: {ack}");

    let mut sub = Client::connect(server.local_addr()).expect("connect subscriber");
    sub.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let sub_ack = sub.subscribe("alarm").unwrap();
    assert!(is_ok(&sub_ack), "subscribe rejected: {sub_ack}");

    // Pre-restart state below the threshold, then kill the shard that owns
    // the view's key and wait for the supervisor to bring it back.
    feed(&mut client, "user-7", 1, 1, 10);
    server.engine().restart_shard(0).expect("restart shard 0");
    server.engine().restart_shard(1).expect("restart shard 1");

    // Post-restart ingest crosses the threshold. The WAL replay restored
    // the pre-restart counts, so 10 + 60 > 50 crosses exactly as it would
    // have without the blip. Retry while the mailbox is quarantined.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let lines: Vec<String> = (0..60).map(|i| format!("user-7 {} 1", 11 + i)).collect();
        let ack = client.batch_retry(&lines).expect("batch after restart");
        if is_ok(&ack) {
            break;
        }
        assert!(Instant::now() < deadline, "ingest never re-admitted: {ack}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The subscriber sees the restart marker first, then the crossing —
    // strictly in that order on the one notification stream.
    let marker = await_notification(&mut sub, |l| {
        l.contains("\"notify\":\"restarted\"") || l.contains("\"notify\":\"threshold\"")
    });
    assert!(
        marker.contains("\"notify\":\"restarted\""),
        "crossing arrived before the restart marker: {marker}"
    );
    assert!(marker.contains("\"view\":\"alarm\""), "got: {marker}");
    let crossing = await_notification(&mut sub, |l| l.contains("\"notify\":\"threshold\""));
    assert!(crossing.contains("\"above\":true"), "got: {crossing}");

    // The re-registered view answers reads with the merged history.
    let read = client.call("VIEW READ alarm").unwrap();
    assert!(is_ok(&read), "read after restart: {read}");
    assert!(read.contains("\"above\":true"), "got: {read}");

    // STATS records the restarts in the health block.
    let stats = client.call("STATS").unwrap();
    assert!(stats.contains("\"restarts\":1"), "got: {stats}");

    let _ = std::fs::remove_dir_all(&dir);
    drop(server);
}

#[test]
fn views_survive_snapshot_kill_restore() {
    let dir = scratch("restore");
    let cfg = || {
        ServerConfig::new(spec())
            .shards(2)
            .snapshot_dir(&dir)
            .durability(true)
    };
    let (server, mut client) = start(cfg());
    for (def, ok) in [
        ("hot threshold user-1 total 5 time 1000", true),
        ("top topk 3 time 5000", true),
        ("heavy hh user-1 abs:3 time 5000", true),
    ] {
        let ack = client.call(&format!("VIEW CREATE {def}")).unwrap();
        assert_eq!(is_ok(&ack), ok, "create {def}: {ack}");
    }
    feed(&mut client, "user-1", 3, 1, 40);
    feed(&mut client, "user-2", 5, 1, 20);

    let reads: Vec<String> = ["hot", "top", "heavy"]
        .iter()
        .map(|name| {
            let r = client.call(&format!("VIEW READ {name}")).unwrap();
            assert!(is_ok(&r), "read {name}: {r}");
            r
        })
        .collect();

    let ack = client.call("SHUTDOWN").unwrap();
    assert!(is_ok(&ack), "shutdown rejected: {ack}");
    server.join();

    // Restart from the same directory: the manifest carries the view
    // definitions, the checkpoints carry the sketches.
    let (server, mut client) = start(cfg());
    let list = client.call("VIEW LIST").unwrap();
    for name in ["hot", "top", "heavy"] {
        assert!(
            list.contains(&format!("\"name\":\"{name}\"")),
            "got: {list}"
        );
    }
    for (name, before) in ["hot", "top", "heavy"].iter().zip(&reads) {
        let after = client.call(&format!("VIEW READ {name}")).unwrap();
        assert!(is_ok(&after), "read {name} after restore: {after}");
        // The maintenance sequence number restarts with the process; the
        // answer and its consistency tick must not.
        let strip = |s: &str| s[..s.find(",\"seq\":").expect("seq field")].to_string();
        assert_eq!(strip(&after), strip(before), "view {name} diverged");
    }

    // And restored views keep maintaining: new ingest moves the readout.
    feed(&mut client, "user-1", 3, 2_000, 10);
    let moved = client.call("VIEW READ hot").unwrap();
    assert!(moved.contains("\"now\":2009"), "got: {moved}");

    let _ = std::fs::remove_dir_all(&dir);
    drop(server);
}
