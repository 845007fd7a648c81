//! Parser robustness: an exhaustive accept/reject table over the command
//! grammar, plus a fuzz-style random-bytes loop proving the parser is
//! total (typed error or typed command, never a panic) — the same posture
//! `crates/ecm/tests/codec_robustness.rs` takes for the snapshot codec.

use sketch_server::protocol::{
    parse_command, parse_data_line, CmdError, Command, OwnedQuery, MAX_BATCH, MAX_LINE,
};
use stream_gen::SeededRng;

fn parse(line: &str) -> Result<Command, CmdError> {
    parse_command(line.as_bytes())
}

fn code(line: &str) -> &'static str {
    parse(line)
        .expect_err(&format!("{line:?} must be rejected"))
        .code()
}

#[test]
fn accepts_every_documented_command_shape() {
    let table: &[(&str, Command)] = &[
        ("PING", Command::Ping),
        (
            "STORE alice 10 7",
            Command::Store {
                key: "alice".into(),
                ts: 10,
                item: 7,
                count: 1,
            },
        ),
        (
            "STORE alice 10 7 42",
            Command::Store {
                key: "alice".into(),
                ts: 10,
                item: 7,
                count: 42,
            },
        ),
        ("BATCH 3", Command::Batch { n: 3 }),
        (
            "QUERY alice point 7 time 100 50",
            Command::Query {
                key: "alice".into(),
                query: OwnedQuery::Point { item: 7 },
                window: sketch_server::WindowSpec::time(100, 50),
            },
        ),
        (
            "QUERY alice self_join last 64",
            Command::Query {
                key: "alice".into(),
                query: OwnedQuery::SelfJoin,
                window: sketch_server::WindowSpec::last(64),
            },
        ),
        (
            "QUERY alice range 16 31 time 100 50",
            Command::Query {
                key: "alice".into(),
                query: OwnedQuery::Range { lo: 16, hi: 31 },
                window: sketch_server::WindowSpec::time(100, 50),
            },
        ),
        (
            "QUERY alice quantile 0.5 time 100 50",
            Command::Query {
                key: "alice".into(),
                query: OwnedQuery::Quantile { phi: 0.5 },
                window: sketch_server::WindowSpec::time(100, 50),
            },
        ),
        (
            "QUERY alice total time 100 50",
            Command::Query {
                key: "alice".into(),
                query: OwnedQuery::Total,
                window: sketch_server::WindowSpec::time(100, 50),
            },
        ),
        (
            "TOPK 5 time 100 50",
            Command::TopK {
                k: 5,
                window: sketch_server::WindowSpec::time(100, 50),
            },
        ),
        ("STATS", Command::Stats),
        ("FLUSH 123", Command::Flush { ts: 123 }),
        (
            "SNAPSHOT /tmp/snap",
            Command::Snapshot {
                dir: "/tmp/snap".into(),
            },
        ),
        (
            "SNAPSHOT /tmp/snap full",
            Command::Snapshot {
                dir: "/tmp/snap".into(),
            },
        ),
        ("SHUTDOWN", Command::Shutdown),
    ];
    for (line, want) in table {
        assert_eq!(&parse(line).expect(line), want, "{line:?}");
    }
    // Heavy hitters carry a float threshold (no PartialEq shortcut above).
    match parse("QUERY alice heavy_hitters rel:0.01 time 100 50").expect("rel threshold") {
        Command::Query {
            query: OwnedQuery::HeavyHitters { .. },
            ..
        } => {}
        other => panic!("unexpected parse: {other:?}"),
    }
    match parse("QUERY alice heavy_hitters abs:100 time 100 50").expect("abs threshold") {
        Command::Query {
            query: OwnedQuery::HeavyHitters { .. },
            ..
        } => {}
        other => panic!("unexpected parse: {other:?}"),
    }
    // CRLF clients are tolerated.
    assert_eq!(parse("PING\r").expect("CRLF"), Command::Ping);
    // Whitespace runs collapse.
    assert!(parse("  STORE   alice  1   2  ").is_ok());
}

#[test]
fn rejects_malformed_lines_with_the_right_code() {
    // (line, expected error code)
    let table: &[(&str, &str)] = &[
        ("", "empty"),
        ("   ", "empty"),
        ("NOPE", "unknown_verb"),
        ("ping", "unknown_verb"), // verbs are case-sensitive
        ("PING extra", "wrong_arity"),
        ("STORE", "wrong_arity"),
        ("STORE alice", "wrong_arity"),
        ("STORE alice 1", "wrong_arity"),
        ("STORE alice 1 2 3 4", "wrong_arity"),
        ("STORE alice ts 2", "bad_number"),
        ("STORE alice 1 item", "bad_number"),
        ("STORE alice 1 2 -1", "bad_number"),
        ("STORE alice 1 2 0", "bad_number"),       // zero count
        ("STORE alice 1 2 9999999", "bad_number"), // count above MAX_COUNT
        ("BATCH", "wrong_arity"),
        ("BATCH x", "bad_number"),
        ("BATCH 0", "empty_batch"),
        (&format!("BATCH {}", MAX_BATCH + 1), "batch_too_large"),
        ("QUERY", "wrong_arity"),
        ("QUERY alice", "wrong_arity"),
        ("QUERY alice warp time 1 1", "unknown_verb"),
        ("QUERY alice point time 1 1", "bad_number"), // item missing, "time" eaten
        ("QUERY alice point 7", "bad_window"),
        ("QUERY alice point 7 time 1", "bad_window"),
        ("QUERY alice point 7 sometimes 1 1", "bad_window"),
        ("QUERY alice range 1 time 1 1", "bad_number"),
        ("QUERY alice heavy_hitters 0.1 time 1 1", "bad_threshold"),
        ("QUERY alice heavy_hitters rel:0 time 1 1", "bad_threshold"),
        ("QUERY alice heavy_hitters rel:1 time 1 1", "bad_threshold"),
        (
            "QUERY alice heavy_hitters rel:nope time 1 1",
            "bad_threshold",
        ),
        ("QUERY alice heavy_hitters abs:-3 time 1 1", "bad_threshold"),
        ("QUERY alice quantile phi time 1 1", "bad_number"),
        ("TOPK", "wrong_arity"),
        ("TOPK 0 time 1 1", "bad_number"),
        ("TOPK k time 1 1", "bad_number"),
        ("STATS now", "wrong_arity"),
        ("FLUSH", "wrong_arity"),
        ("FLUSH soon", "bad_number"),
        ("SNAPSHOT", "wrong_arity"),
        ("SNAPSHOT /tmp/x sideways", "wrong_arity"),
        ("SNAPSHOT /tmp/x full now", "wrong_arity"),
        ("SNAPSHOT /tmp/x incr", "bad_request"),
        ("SHUTDOWN now", "wrong_arity"),
    ];
    for (line, want) in table {
        assert_eq!(&code(line), want, "{line:?}");
    }
    // The retired option is named, not reported as a shape error.
    let retired = parse("SNAPSHOT /tmp/x incr").expect_err("incr is retired");
    assert!(
        retired.to_string().contains("`incr` is retired"),
        "{retired}"
    );
}

#[test]
fn rejects_oversize_keys_lines_and_non_utf8() {
    let long_key = "k".repeat(200);
    assert_eq!(code(&format!("STORE {long_key} 1 2")), "bad_key");
    assert_eq!(code(&format!("QUERY {long_key} total time 1 1")), "bad_key");

    let long_line = format!("STORE alice 1 2 {}", " ".repeat(MAX_LINE));
    assert_eq!(code(&long_line), "line_too_long");

    let bad_utf8: &[u8] = b"STORE ali\xffce 1 2";
    assert_eq!(
        parse_command(bad_utf8).expect_err("non-UTF8").code(),
        "not_utf8"
    );
}

#[test]
fn data_lines_accept_and_reject_like_store() {
    let (key, event, count) = parse_data_line(b"alice 10 7").expect("bare data line");
    assert_eq!(
        (key.as_str(), event.ts, event.item, count),
        ("alice", 10, 7, 1)
    );
    let (_, _, count) = parse_data_line(b"alice 10 7 5").expect("weighted data line");
    assert_eq!(count, 5);

    assert_eq!(parse_data_line(b"").expect_err("empty").code(), "empty");
    assert_eq!(
        parse_data_line(b"alice 10").expect_err("short").code(),
        "wrong_arity"
    );
    assert_eq!(
        parse_data_line(b"alice ten 7").expect_err("bad ts").code(),
        "bad_number"
    );
    assert_eq!(
        parse_data_line(b"alice 10 7 0")
            .expect_err("zero count")
            .code(),
        "bad_number"
    );
}

/// The parser is total: random bytes — raw, and mutations of valid
/// commands — always yield `Ok` or a typed error, never a panic. Mirrors
/// the random-bytes posture of `codec_robustness.rs`.
#[test]
fn fuzz_random_bytes_never_panic() {
    let mut rng = SeededRng::seed_from_u64(0xF0CC);
    let seeds: &[&str] = &[
        "PING",
        "STORE alice 10 7 42",
        "BATCH 100",
        "QUERY alice heavy_hitters rel:0.01 time 100 50",
        "QUERY alice range 16 31 last 64",
        "TOPK 5 time 100 50",
        "SNAPSHOT /tmp/snap full",
        "FLUSH 123",
    ];
    for round in 0..5_000 {
        let line: Vec<u8> = if round % 2 == 0 {
            // Pure noise, length 0..300.
            let len = (rng.next_u64() % 300) as usize;
            (0..len).map(|_| (rng.next_u64() % 256) as u8).collect()
        } else {
            // A valid command with a handful of byte mutations.
            let mut line = seeds[(rng.next_u64() % seeds.len() as u64) as usize]
                .as_bytes()
                .to_vec();
            for _ in 0..=(rng.next_u64() % 4) {
                if line.is_empty() {
                    break;
                }
                let at = (rng.next_u64() % line.len() as u64) as usize;
                line[at] = (rng.next_u64() % 256) as u8;
            }
            line
        };
        let _ = parse_command(&line);
        let _ = parse_data_line(&line);
    }
}

/// Over-long inputs are rejected up front, including ones whose length is
/// adversarially close to the bound.
#[test]
fn fuzz_line_length_boundary() {
    for len in [MAX_LINE - 1, MAX_LINE, MAX_LINE + 1, MAX_LINE * 2] {
        let line = vec![b'A'; len];
        let out = parse_command(&line);
        if len > MAX_LINE {
            assert_eq!(out.expect_err("over-long").code(), "line_too_long");
        } else {
            assert_eq!(out.expect_err("unknown verb").code(), "unknown_verb");
        }
    }
}
