//! Satellite regression for the poisoned-mutex crash cascade: a
//! connection handler that panics used to poison the shared registries,
//! and every later `.expect("handlers")` / `.expect("conns")` turned one
//! bad connection into a dead server. This file (its own process, so the
//! `SKETCHD_TEST_PANIC` arming cannot leak into other suites) injects a
//! panic **while the handler holds the connection registry** and proves
//! the server keeps serving, keeps accepting new connections (no
//! connection-slot leak), and still shuts down gracefully.
//!
//! The `__PANIC__` hook is compiled out of plain release builds, so the
//! file runs where the hook exists: debug builds, or release with the
//! `fault-injection` feature.

#![cfg(any(debug_assertions, feature = "fault-injection"))]

use std::time::Duration;

use sketch_server::protocol::response;
use sketch_server::{Client, Server, ServerConfig, SketchSpec};

const MAX_CONNS: usize = 3;

fn start() -> Server {
    let cfg = ServerConfig::new(SketchSpec::time(10_000).epsilon(0.2).seed(5))
        .shards(2)
        .max_connections(MAX_CONNS)
        .read_timeout(Duration::from_secs(5));
    Server::start(cfg).expect("server starts")
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    client
}

/// Crash one handler: the connection dies (EOF or read error), the server
/// must not.
fn crash_a_handler(server: &Server) {
    let mut victim = connect(server);
    victim.send("__PANIC__").expect("send");
    match victim.recv() {
        Err(_) => {}
        Ok(line) => assert!(line.is_empty(), "panicked handler answered: {line:?}"),
    }
}

#[test]
fn a_panicking_handler_leaves_the_server_serving() {
    // Arm the fault hook for this whole process; every connection of this
    // test runs under it.
    std::env::set_var("SKETCHD_TEST_PANIC", "1");
    let server = start();

    // A healthy connection opened BEFORE the crash keeps working after it
    // (the registries recover from the poison instead of cascading).
    let mut before = connect(&server);
    assert_eq!(before.call("PING").expect("ping"), response::pong());
    crash_a_handler(&server);
    assert_eq!(
        before.call("STORE user-1 10 42 1").expect("store"),
        response::ingested(1),
        "pre-crash connection must survive a sibling's panic"
    );
    drop(before);

    // New connections are accepted and served after the poison.
    let mut after = connect(&server);
    assert_eq!(after.call("PING").expect("ping"), response::pong());
    assert_eq!(
        after.call("STORE user-1 11 42 1").expect("store"),
        response::ingested(1)
    );
    drop(after);

    // The panicked handlers' slots were released: with a cap of 3, far
    // more than 3 sequential lives — including more crashes — all get
    // served. A leaked slot would turn these into typed refusals.
    for round in 0..3 * MAX_CONNS {
        crash_a_handler(&server);
        let mut probe = connect(&server);
        let resp = probe.call("PING").expect("ping after crash");
        assert_eq!(resp, response::pong(), "round {round}: {resp}");
    }

    // Graceful shutdown still works: the listener wakes, the handler
    // registry (poisoned many times over) is drained, join returns.
    let mut last = connect(&server);
    assert_eq!(
        last.call("SHUTDOWN").expect("shutdown"),
        response::shutdown()
    );
    server.join();
}
