//! The socket's line framing, driven over real TCP: however the bytes of
//! a request stream are cut into `write`s and lines, the server answers
//! every request once, in order, with the bytes the same requests get one
//! at a time — and an over-long line costs one typed error, not the
//! connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use sketch_server::protocol::MAX_LINE;
use sketch_server::{Server, ServerConfig, SketchSpec};

fn server() -> Server {
    let spec = SketchSpec::time(100_000).epsilon(0.2).delta(0.2).seed(9);
    Server::start(ServerConfig::new(spec).shards(2)).expect("server")
}

/// A raw connection: the tests choose every byte and every write boundary.
struct Raw {
    stream: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Raw {
    fn connect(server: &Server) -> Raw {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let replies = BufReader::new(stream.try_clone().expect("clone"));
        Raw { stream, replies }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// The next reply line, without its newline.
    fn reply(&mut self) -> String {
        let mut line = String::new();
        let n = self.replies.read_line(&mut line).expect("reply");
        assert!(n > 0, "server closed the connection");
        line.trim_end_matches('\n').to_string()
    }

    /// Half-close, then every line the server still sends before it
    /// closes its side.
    fn finish(mut self) -> Vec<String> {
        self.stream.shutdown(Shutdown::Write).expect("half-close");
        let mut rest = Vec::new();
        loop {
            let mut line = String::new();
            if self.replies.read_line(&mut line).expect("drain") == 0 {
                return rest;
            }
            rest.push(line.trim_end_matches('\n').to_string());
        }
    }
}

fn total(key: &str) -> String {
    format!("QUERY {key} total time 2000 100000\n")
}

#[test]
fn a_batch_body_may_arrive_one_byte_at_a_time() {
    let server = server();
    let mut conn = Raw::connect(&server);
    let frame = b"BATCH 3\nalice 10 1 4\nbob 11 2\nalice 12 1 2\nPING\n";
    for byte in frame {
        conn.send(std::slice::from_ref(byte));
    }
    assert_eq!(conn.reply(), r#"{"ok":true,"ingested":7}"#);
    assert_eq!(conn.reply(), r#"{"ok":true,"pong":true}"#);
    conn.send(total("alice").as_bytes());
    assert!(conn.reply().contains("\"value\":6"), "alice holds 4 + 2");
    server.stop().expect("stop");
}

#[test]
fn crlf_lines_and_blank_lines_do_not_shift_the_replies() {
    let server = server();
    let mut conn = Raw::connect(&server);
    conn.send(
        b"\r\nPING\r\n\n   \nBATCH 2\r\ncarol 5 9 3\r\ncarol 6 9\r\n\r\n\nSTORE carol 7 9 2\r\nPING\n",
    );
    assert_eq!(conn.reply(), r#"{"ok":true,"pong":true}"#);
    assert_eq!(conn.reply(), r#"{"ok":true,"ingested":4}"#);
    assert_eq!(conn.reply(), r#"{"ok":true,"ingested":2}"#);
    assert_eq!(conn.reply(), r#"{"ok":true,"pong":true}"#);
    conn.send(total("carol").as_bytes());
    assert!(conn.reply().contains("\"value\":6"));
    assert!(conn.finish().is_empty(), "blank lines are never answered");
    server.stop().expect("stop");
}

#[test]
fn an_over_long_line_costs_one_typed_error_and_the_stream_resynchronizes() {
    let server = server();
    let mut conn = Raw::connect(&server);
    // Outside a batch, at the bound and one past it, in one write and cut
    // mid-line; the longest legal line is a parse error, not a framing one.
    let mut exact = vec![b'x'; MAX_LINE];
    exact.push(b'\n');
    conn.send(&exact);
    assert!(conn.reply().contains("\"error\":\"unknown_verb\""));
    let mut long = vec![b'x'; MAX_LINE + 1];
    long.push(b'\n');
    conn.send(&long);
    assert!(conn.reply().contains("\"error\":\"line_too_long\""));
    let huge = vec![b'y'; 5 * MAX_LINE + 17];
    for chunk in huge.chunks(1000) {
        conn.send(chunk);
    }
    conn.send(b"\nPING\n");
    assert!(conn.reply().contains("\"error\":\"line_too_long\""));
    assert_eq!(conn.reply(), r#"{"ok":true,"pong":true}"#);

    // Inside a batch body: the frame is still read to its end, rejected
    // whole with the offending line named, and the next command answers.
    conn.send(b"BATCH 3\ndave 1 1\n");
    conn.send(&long);
    conn.send(b"dave 2 1\nPING\n");
    let rejected = conn.reply();
    assert!(
        rejected.contains("\"error\":\"line_too_long\""),
        "{rejected}"
    );
    assert!(rejected.contains("batch line 1"), "{rejected}");
    assert_eq!(conn.reply(), r#"{"ok":true,"pong":true}"#);
    conn.send(total("dave").as_bytes());
    assert!(
        conn.reply().contains("\"error\":\"unknown_key\""),
        "a rejected batch applies nothing"
    );
    server.stop().expect("stop");
}

#[test]
fn a_final_line_without_a_newline_is_still_a_request() {
    let server = server();
    let mut conn = Raw::connect(&server);
    conn.send(b"STORE erin 3 8 5\nPING");
    assert_eq!(conn.reply(), r#"{"ok":true,"ingested":5}"#);
    assert_eq!(conn.finish(), [r#"{"ok":true,"pong":true}"#]);

    // But a batch body the peer abandons half-way is nobody's request.
    let mut conn = Raw::connect(&server);
    conn.send(b"BATCH 2\nerin 4 8 1\n");
    assert!(conn.finish().is_empty());
    let mut conn = Raw::connect(&server);
    conn.send(total("erin").as_bytes());
    assert!(
        conn.reply().contains("\"value\":5"),
        "the half batch is gone"
    );
    server.stop().expect("stop");
}

#[test]
fn a_thousand_pipelined_requests_answer_as_they_do_one_at_a_time() {
    // Two servers take the same 1 000 requests — single stores, weighted
    // batches, reads of what was just written, blank lines, parse errors,
    // one over-long line — one of them a request at a time, the other as
    // one burst cut into writes that respect no line.
    let requests: Vec<Vec<u8>> = (0..1000u64)
        .map(|i| {
            let key = format!("k{}", i % 7);
            match i % 10 {
                0 => format!("BATCH 2\n{key} {i} {} 3\n{key} {i} 4\n", i % 5).into_bytes(),
                1 | 2 => format!("STORE {key} {i} {} {}\n", i % 5, 1 + i % 4).into_bytes(),
                3 => format!("QUERY {key} point {} time {i} 100000\r\n", i % 5).into_bytes(),
                4 => b"\nPING\n".to_vec(),
                5 => format!("QUERY {key} self_join time {i} 100000\n").into_bytes(),
                6 => format!("TOPK 3 time {i} 100000\n").into_bytes(),
                7 => format!("STORE {key} {i}\n").into_bytes(),
                8 if i == 508 => {
                    let mut long = vec![b'z'; MAX_LINE + 100];
                    long.push(b'\n');
                    long
                }
                8 => format!("QUERY nobody total time {i} 100000\n").into_bytes(),
                _ => format!("QUERY {key} total time {i} 100000\n").into_bytes(),
            }
        })
        .collect();

    let one_at_a_time = server();
    let mut conn = Raw::connect(&one_at_a_time);
    let expected: Vec<String> = requests
        .iter()
        .map(|request| {
            conn.send(request);
            conn.reply()
        })
        .collect();
    assert!(conn.finish().is_empty());
    one_at_a_time.stop().expect("stop");

    let pipelined = server();
    let mut conn = Raw::connect(&pipelined);
    let burst: Vec<u8> = requests.concat();
    let writer = {
        let mut stream = conn.stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            for chunk in burst.chunks(997) {
                stream.write_all(chunk).expect("write");
            }
        })
    };
    let got: Vec<String> = (0..requests.len()).map(|_| conn.reply()).collect();
    writer.join().expect("writer");
    assert!(conn.finish().is_empty(), "one reply per request");
    pipelined.stop().expect("stop");
    for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, expected, "request {i}");
    }
    assert!(expected[508].contains("line_too_long"));
    // Two requests in ten are malformed on purpose; the rest succeed.
    assert!(
        expected
            .iter()
            .filter(|r| r.contains("\"ok\":true"))
            .count()
            > 750
    );
}

/// A server holding two keys and a fleet top-k view, prepared the same
/// way every time so two of them answer the same requests alike.
fn prepared() -> Server {
    let server = server();
    let mut conn = Raw::connect(&server);
    conn.send(
        b"BATCH 3\nann 100 1 5\nben 200 2 3\nann 300 2\nVIEW CREATE top topk 2 time 100000\n",
    );
    assert_eq!(conn.reply(), r#"{"ok":true,"ingested":9}"#);
    assert!(conn.reply().contains("\"created\":true"));
    assert!(conn.finish().is_empty());
    server
}

/// One of every kind of reply, and lines that get none: each entry is a
/// request's bytes and the number of replies it gets.
fn mixed_burst() -> Vec<(Vec<u8>, usize)> {
    let mut long = vec![b'q'; MAX_LINE + 1];
    long.push(b'\n');
    let lines: [&[u8]; 13] = [
        b"PING\n",
        b"QUERY ann point 1 time 400 100000\n",
        b"QUERY nobody total time 400 100000\n",
        // A window longer than the sketch's: a query error, not a parse one.
        b"QUERY ann total time 400 999999999\n",
        b"TOPK 2 time 400 100000\n",
        b"VIEW READ top\n",
        b"STORE ann 50 1\n",
        b"BATCH 2\nben 400 2 4\ncal 410 3\n",
        b"BATCH 3\ncal 420 3\ncal 4x0 3\ncal 430 3\n",
        b"FROB 1 2\n",
        &long,
        b"\n  \r\n",
        b"QUERY cal total time 500 100000\n",
    ];
    lines
        .iter()
        .map(|line| {
            let blank = line.iter().all(u8::is_ascii_whitespace);
            (line.to_vec(), usize::from(!blank))
        })
        .collect()
}

#[test]
fn a_mixed_burst_gets_the_replies_its_lines_get_one_at_a_time() {
    let burst = mixed_burst();
    let reference = prepared();
    let mut conn = Raw::connect(&reference);
    let mut expected = Vec::new();
    for (request, replies) in &burst {
        conn.send(request);
        expected.extend((0..*replies).map(|_| conn.reply()));
    }
    assert!(conn.finish().is_empty());
    reference.stop().expect("stop");
    for (code, at) in [
        ("unknown_key", 2),
        ("\"error\":\"query\"", 3),
        ("stale_timestamp", 6),
        ("bad_number", 8),
        ("unknown_verb", 9),
        ("line_too_long", 10),
    ] {
        assert!(expected[at].contains(code), "reply {at}: {}", expected[at]);
    }
    let together: Vec<u8> = burst.iter().flat_map(|(bytes, _)| bytes.clone()).collect();

    // Half-closed straight after the burst: every reply still arrives.
    let server = prepared();
    let mut conn = Raw::connect(&server);
    conn.send(&together);
    assert_eq!(conn.finish(), expected);
    server.stop().expect("stop");

    // Ending in SHUTDOWN: every earlier reply, then the ack.
    let server = prepared();
    let mut conn = Raw::connect(&server);
    conn.send(&[&together[..], b"SHUTDOWN\n"].concat());
    let mut got: Vec<String> = (0..expected.len()).map(|_| conn.reply()).collect();
    got.push(conn.reply());
    assert_eq!(got[..expected.len()], expected[..]);
    assert_eq!(got[expected.len()], r#"{"ok":true,"shutdown":true}"#);
    server.join();

    // Ending in SUBSCRIBE: every earlier reply, then the subscription ack.
    let server = prepared();
    let mut conn = Raw::connect(&server);
    conn.send(&[&together[..], b"SUBSCRIBE top\n"].concat());
    let got: Vec<String> = (0..expected.len()).map(|_| conn.reply()).collect();
    assert_eq!(got, expected);
    assert_eq!(conn.reply(), r#"{"ok":true,"subscribed":"top"}"#);
    server.stop().expect("stop");
}
