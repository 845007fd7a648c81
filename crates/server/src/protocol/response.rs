//! JSON response rendering — one object per line, hand-rolled (the
//! container has no JSON dependency).
//!
//! Numbers are rendered with Rust's shortest-round-trip `f64` formatting,
//! so a response is **bit-identical** to the in-process estimate it
//! reports: the end-to-end test renders the same [`Answer`] through the
//! same functions on both sides and compares strings. Non-finite values
//! (which no correct backend produces) render as `null` rather than
//! emitting invalid JSON.
//!
//! The replies a connection sends at request rate — answers, rankings,
//! ingest acks, errors and view reads — have `write_*` forms that append
//! the line (without its newline) to the caller's buffer, the
//! connection's pending output. Where a caller wants a line of its own,
//! the `String` form is a wrapper over the same writer.

use std::fmt::Write;

use ecm::{Answer, Estimate, QueryError, ViewAnswer, ViewEvent, ViewReadout};

use super::json::escape;
use crate::engine::{IngestAck, RankMemoStats, ShardStatus, SnapshotReport, ViewsSummary};

// `write!` into a `String` cannot fail, so its `fmt::Result` is dropped
// with `let _` throughout.

/// A line rendered by a writer, as a `String` of its own.
fn render(f: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    f(&mut out);
    out
}

/// Shortest-round-trip rendering of a finite `f64`; `null` otherwise.
fn float(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn estimate(out: &mut String, e: &Estimate) {
    out.push_str("\"value\":");
    float(out, e.value);
    out.push_str(",\"guarantee\":");
    match e.guarantee {
        Some(g) => {
            out.push_str("{\"epsilon\":");
            float(out, g.epsilon);
            out.push_str(",\"delta\":");
            float(out, g.delta);
            out.push('}');
        }
        None => out.push_str("null"),
    }
}

/// An error line up to its closing brace.
fn error_fields(out: &mut String, code: &str, detail: &str) {
    out.push_str("{\"ok\":false,\"error\":\"");
    escape(out, code);
    out.push_str("\",\"detail\":\"");
    escape(out, detail);
    out.push('"');
}

/// `{"ok":false,...}` with a machine-readable code and a human detail.
pub fn write_error(out: &mut String, code: &str, detail: &str) {
    error_fields(out, code, detail);
    out.push('}');
}

/// A [`QueryError`] as a response line.
pub fn write_query_error(out: &mut String, e: &QueryError) {
    write_error(out, "query", &e.to_string());
}

/// [`write_query_error`] as a line of its own.
pub fn query_error(e: &QueryError) -> String {
    render(|out| write_query_error(out, e))
}

/// `{"ok":false,...}` for a transient failure the client may retry:
/// carries `"retryable":true` and a suggested backoff so a generic
/// client needs no per-code table.
pub fn write_retry_error(out: &mut String, code: &str, detail: &str, retry_after_ms: u64) {
    error_fields(out, code, detail);
    let _ = write!(
        out,
        ",\"retryable\":true,\"retry_after_ms\":{retry_after_ms}}}"
    );
}

/// Reply to `PING`.
pub fn pong() -> String {
    "{\"ok\":true,\"pong\":true}".to_string()
}

/// Ack for `STORE` / `BATCH`: the event occurrences accepted, with a
/// trailing `"stale":k` when `k > 0` runs were refused.
pub fn write_ingest_ack(out: &mut String, ack: &IngestAck) {
    let _ = write!(out, "{{\"ok\":true,\"ingested\":{}", ack.ingested);
    if ack.stale > 0 {
        let _ = write!(out, ",\"stale\":{}", ack.stale);
    }
    out.push('}');
}

/// The ack of `n` occurrences with none refused, as a line of its own.
pub fn ingested(n: u64) -> String {
    render(|out| {
        write_ingest_ack(
            out,
            &IngestAck {
                ingested: n,
                stale: 0,
            },
        )
    })
}

/// Ack for `FLUSH`.
pub fn flushed(ts: u64) -> String {
    format!("{{\"ok\":true,\"advanced_to\":{ts}}}")
}

/// Ack for `SHUTDOWN` (sent before the socket closes).
pub fn shutdown() -> String {
    "{\"ok\":true,\"shutdown\":true}".to_string()
}

/// An answer line up to its closing brace; `query` is the wire verb.
fn answer_fields(out: &mut String, query: &str, a: &Answer) {
    out.push_str("{\"ok\":true,\"query\":\"");
    escape(out, query);
    out.push_str("\",");
    match a {
        Answer::Value(e) => estimate(out, e),
        Answer::HeavyHitters(hits) => {
            out.push_str("\"hitters\":[");
            hitter_rows(out, hits);
            out.push(']');
        }
        Answer::Quantile(Some(k)) => {
            let _ = write!(out, "\"key\":{k}");
        }
        Answer::Quantile(None) => out.push_str("\"key\":null"),
    }
}

/// A query [`Answer`] as a response line; `query` is the wire verb.
pub fn answer(query: &str, a: &Answer) -> String {
    render(|out| {
        answer_fields(out, query, a);
        out.push('}');
    })
}

/// A query [`Answer`] with its consistency point: [`answer`] plus a
/// trailing `"now"` field carrying the owning shard's write clock (the
/// maximum applied tick) at the moment the answer was computed. The
/// clock is a pure function of the acked event multiset, so two servers
/// that acked the same events render byte-identical responses — which is
/// what lets the differential and chaos suites keep comparing whole
/// strings.
pub fn write_answer_at(out: &mut String, query: &str, a: &Answer, now: u64) {
    answer_fields(out, query, a);
    let _ = write!(out, ",\"now\":{now}}}");
}

/// [`write_answer_at`] as a line of its own.
pub fn answer_at(query: &str, a: &Answer, now: u64) -> String {
    render(|out| write_answer_at(out, query, a, now))
}

/// A merged `TOPK` ranking as a response line.
pub fn write_topk(out: &mut String, rows: &[(String, f64)]) {
    out.push_str("{\"ok\":true,\"topk\":[");
    ranking_rows(out, rows);
    out.push_str("]}");
}

/// [`write_topk`] as a line of its own.
pub fn topk(rows: &[(String, f64)]) -> String {
    render(|out| write_topk(out, rows))
}

/// Per-shard `STATS` as a response line, plus fleet-wide totals, the
/// fleet ranking memo's hits and misses, and the standing-view counters.
/// Every shard row is complete: its supervision `health` block, then its
/// published store's size and its worker's last recorded counters, a
/// down shard's included. The fleet totals sum every row.
pub fn stats(rows: &[ShardStatus], memo: &RankMemoStats, views: &ViewsSummary) -> String {
    let keys: usize = rows.iter().map(|r| r.stats.keys).sum();
    let memory: usize = rows.iter().map(|r| r.stats.memory_bytes).sum();
    let ingested: u64 = rows.iter().map(|r| r.stats.ingested).sum();
    let ingest_runs: u64 = rows.iter().map(|r| r.stats.ingest_runs).sum();
    let wal_bytes: u64 = rows.iter().map(|r| r.stats.wal_bytes).sum();
    let compactions: u64 = rows.iter().map(|r| r.stats.compactions).sum();
    let shards: Vec<String> = rows
        .iter()
        .map(|r| {
            let (h, s) = (&r.health, &r.stats);
            format!(
                "{{\"shard\":{},\"health\":{{\"state\":\"{}\",\"restarts\":{},\
                 \"last_restart_ms\":{},\"mailbox_hwm\":{},\"shed_requests\":{},\
                 \"published_reads\":{},\"behind_clock\":{},\"ranked_sketches\":{}}},\
                 \"keys\":{},\"memory_bytes\":{},\"ingested\":{},\"ingest_runs\":{},\
                 \"stale\":{},\"checkpoint_seq\":{},\"wal_bytes\":{},\"wal_segments\":{},\
                 \"compactions\":{}}}",
                r.shard,
                h.state,
                h.restarts,
                h.last_restart_ms,
                h.mailbox_hwm,
                h.shed_requests,
                h.published_reads,
                h.behind_clock,
                h.ranked_sketches,
                s.keys,
                s.memory_bytes,
                s.ingested,
                s.ingest_runs,
                s.stale,
                s.checkpoint_seq,
                s.wal_bytes,
                s.wal_segments,
                s.compactions
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"keys\":{keys},\"memory_bytes\":{memory},\"ingested\":{ingested},\
         \"ingest_runs\":{ingest_runs},\"wal_bytes\":{wal_bytes},\"compactions\":{compactions},\
         \"rank_memo_hits\":{},\"rank_memo_misses\":{},\
         \"views\":{{\"registered\":{},\"maintenance\":{},\"subscribers\":{},\
         \"dropped_notifications\":{}}},\"shards\":[{}]}}",
        memo.hits,
        memo.misses,
        views.registered,
        views.maintenance,
        views.subscribers,
        views.dropped,
        shards.join(",")
    )
}

/// A completed `SNAPSHOT` as a response line.
pub fn snapshot(r: &SnapshotReport) -> String {
    render(|out| {
        out.push_str("{\"ok\":true,\"snapshot\":\"full\",\"dir\":\"");
        escape(out, &r.dir);
        let _ = write!(out, "\",\"shards\":{},\"bytes\":{}}}", r.shards, r.bytes);
    })
}

/// Heavy-hitter rows — the same rendering [`answer`] uses, so a view
/// readout's hitters are string-identical to the on-demand query's.
fn hitter_rows(out: &mut String, hits: &[(u64, Estimate)]) {
    for (i, (k, e)) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"key\":{k},");
        estimate(out, e);
        out.push('}');
    }
}

/// Ranking rows, as [`topk`], a top-k view read and a ranking push
/// render them.
fn ranking_rows(out: &mut String, rows: &[(String, f64)]) {
    for (i, (k, v)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":\"");
        escape(out, k);
        out.push_str("\",\"value\":");
        float(out, *v);
        out.push('}');
    }
}

/// `{"ok":true,"view":"<name>"` and then `rest`: the view acks.
fn view_ack(name: &str, rest: &str) -> String {
    render(|out| {
        out.push_str("{\"ok\":true,\"view\":\"");
        escape(out, name);
        out.push_str(rest);
    })
}

/// Ack for `VIEW CREATE`.
pub fn view_created(name: &str) -> String {
    view_ack(name, "\",\"created\":true}")
}

/// Ack for `VIEW DROP`.
pub fn view_dropped(name: &str) -> String {
    view_ack(name, "\",\"dropped\":true}")
}

/// `VIEW LIST` as a response line: `(name, kind, wire definition)` rows.
pub fn view_list(rows: &[(String, &'static str, String)]) -> String {
    render(|out| {
        out.push_str("{\"ok\":true,\"views\":[");
        for (i, (name, kind, def)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape(out, name);
            let _ = write!(out, "\",\"kind\":\"{kind}\",\"def\":\"");
            escape(out, def);
            out.push_str("\"}");
        }
        out.push_str("]}");
    })
}

/// A `VIEW READ` readout as a response line. The answer body uses the
/// same estimate / row rendering as the on-demand [`answer`] and
/// [`topk`] responses — the differential suite compares the substrings.
pub fn write_view_read(out: &mut String, name: &str, r: &ViewReadout<String>) {
    out.push_str("{\"ok\":true,\"view\":\"");
    escape(out, name);
    let _ = write!(out, "\",\"kind\":\"{}\",", r.answer.kind());
    match &r.answer {
        ViewAnswer::Scalar { estimate: e, above } => {
            estimate(out, e);
            let _ = write!(out, ",\"above\":{above}");
        }
        ViewAnswer::Hitters(hits) => {
            out.push_str("\"hitters\":[");
            hitter_rows(out, hits);
            out.push(']');
        }
        ViewAnswer::Ranking(rows) => {
            out.push_str("\"topk\":[");
            ranking_rows(out, rows);
            out.push(']');
        }
    }
    let _ = write!(out, ",\"now\":{},\"seq\":{}}}", r.now, r.seq);
}

/// Ack for `SUBSCRIBE` (sent before the connection turns push-only).
pub fn subscribed(view: &str) -> String {
    render(|out| {
        out.push_str("{\"ok\":true,\"subscribed\":\"");
        escape(out, view);
        out.push_str("\"}");
    })
}

/// `{"ok":true,"notify":"<kind>","view":"<name>"`: a push line's head.
fn notify_head(out: &mut String, kind: &str, view: &str) {
    let _ = write!(out, "{{\"ok\":true,\"notify\":\"{kind}\",\"view\":\"");
    escape(out, view);
    out.push('"');
}

/// A view's change notification as a push line.
pub fn view_event(e: &ViewEvent<String>) -> String {
    render(|out| match e {
        ViewEvent::ThresholdCrossed {
            name,
            above,
            estimate: est,
            now,
            seq,
        } => {
            notify_head(out, "threshold", name);
            let _ = write!(out, ",\"above\":{above},");
            estimate(out, est);
            let _ = write!(out, ",\"now\":{now},\"seq\":{seq}}}");
        }
        ViewEvent::HittersChanged {
            name,
            entered,
            left,
            hitters,
            now,
            seq,
        } => {
            let keys = |ks: &[u64]| ks.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            notify_head(out, "heavy_hitters", name);
            let _ = write!(
                out,
                ",\"entered\":[{}],\"left\":[{}],\"hitters\":[",
                keys(entered),
                keys(left)
            );
            hitter_rows(out, hitters);
            let _ = write!(out, "],\"now\":{now},\"seq\":{seq}}}");
        }
        ViewEvent::RankingChanged {
            name,
            ranking,
            now,
            seq,
        } => {
            notify_head(out, "topk", name);
            out.push_str(",\"topk\":[");
            ranking_rows(out, ranking);
            let _ = write!(out, "],\"now\":{now},\"seq\":{seq}}}");
        }
    })
}

/// The marker a subscriber of a keyed view sees when the shard owning its
/// key died and was rebuilt: publications between the crash and the
/// restart are gone (the shard's state is restored, the pushes it would
/// have caused are not), so the notifier publishes the marker *before*
/// any push from the replacement worker's publications.
pub fn restarted(view: &str, shard: usize) -> String {
    render(|out| {
        notify_head(out, "restarted", view);
        let _ = write!(out, ",\"shard\":{shard}}}");
    })
}

/// The typed gap record a slow subscriber sees in place of the `count`
/// notifications its full outbox lost.
pub fn drop_marker(count: u64, view: &str) -> String {
    render(|out| {
        notify_head(out, "dropped", view);
        let _ = write!(out, ",\"count\":{count}}}");
    })
}

/// The idle keep-alive line on a subscription stream (lets the server
/// detect a dead peer by write failure).
pub fn heartbeat() -> String {
    "{\"ok\":true,\"notify\":\"ping\"}".to_string()
}

/// Whether a response line reports success (cheap client-side check that
/// avoids a JSON parser).
pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

#[cfg(test)]
mod tests {
    use ecm::Guarantee;

    use super::*;

    fn est(value: f64, guarantee: Option<(f64, f64)>) -> Estimate {
        Estimate {
            value,
            guarantee: guarantee.map(|(epsilon, delta)| Guarantee { epsilon, delta }),
        }
    }

    /// Every line below is the parent renderer's output, byte for byte: the
    /// end-to-end suites compare the server against this same renderer, so
    /// only literals catch a format change both sides share.
    #[test]
    fn rendered_lines_are_pinned() {
        let g = Some((0.05, 0.01));
        let cases: Vec<(String, &str)> = vec![
            (
                answer_at("point", &Answer::Value(est(12.5, g)), 2000),
                r#"{"ok":true,"query":"point","value":12.5,"guarantee":{"epsilon":0.05,"delta":0.01},"now":2000}"#,
            ),
            (
                answer_at("total", &Answer::Value(est(3.0, None)), 7),
                r#"{"ok":true,"query":"total","value":3.0,"guarantee":null,"now":7}"#,
            ),
            (
                answer_at(
                    "self_join",
                    &Answer::Value(est(f64::NAN, Some((f64::INFINITY, 0.25)))),
                    1,
                ),
                r#"{"ok":true,"query":"self_join","value":null,"guarantee":{"epsilon":null,"delta":0.25},"now":1}"#,
            ),
            (
                answer_at("heavy_hitters", &Answer::HeavyHitters(vec![]), 5),
                r#"{"ok":true,"query":"heavy_hitters","hitters":[],"now":5}"#,
            ),
            (
                answer_at(
                    "heavy_hitters",
                    &Answer::HeavyHitters(vec![(3, est(4.0, g)), (9, est(1e20, None))]),
                    6,
                ),
                r#"{"ok":true,"query":"heavy_hitters","hitters":[{"key":3,"value":4.0,"guarantee":{"epsilon":0.05,"delta":0.01}},{"key":9,"value":1e20,"guarantee":null}],"now":6}"#,
            ),
            (
                answer_at("quantile", &Answer::Quantile(None), 0),
                r#"{"ok":true,"query":"quantile","key":null,"now":0}"#,
            ),
            (
                answer_at("quantile", &Answer::Quantile(Some(42)), 9),
                r#"{"ok":true,"query":"quantile","key":42,"now":9}"#,
            ),
            (
                answer("total", &Answer::Value(est(0.5, None))),
                r#"{"ok":true,"query":"total","value":0.5,"guarantee":null}"#,
            ),
            (topk(&[]), r#"{"ok":true,"topk":[]}"#),
            (
                topk(&[
                    ("a\"b".to_string(), 2.5),
                    ("c\\d\n".to_string(), 1.0),
                    ("\u{1}é\t".to_string(), -0.0),
                ]),
                r#"{"ok":true,"topk":[{"key":"a\"b","value":2.5},{"key":"c\\d\n","value":1.0},{"key":"\u0001é\t","value":-0.0}]}"#,
            ),
            (
                render(|out| write_error(out, "bad_request", "say \"hi\"\tnow\r\n\u{7}")),
                r#"{"ok":false,"error":"bad_request","detail":"say \"hi\"\tnow\r\n\u0007"}"#,
            ),
            (
                query_error(&QueryError::InvalidParameter {
                    detail: "phi \"2\" ∉ (0, 1]".to_string(),
                }),
                r#"{"ok":false,"error":"query","detail":"invalid query parameter: phi \"2\" ∉ (0, 1]"}"#,
            ),
            (
                render(|out| {
                    write_retry_error(out, "shard_restarting", "shard 1 \"down\"\u{1f}", 50)
                }),
                r#"{"ok":false,"error":"shard_restarting","detail":"shard 1 \"down\"\u001f","retryable":true,"retry_after_ms":50}"#,
            ),
            (
                render(|out| {
                    write_ingest_ack(
                        out,
                        &IngestAck {
                            ingested: 7,
                            stale: 2,
                        },
                    )
                }),
                r#"{"ok":true,"ingested":7,"stale":2}"#,
            ),
            (
                render(|out| {
                    write_ingest_ack(
                        out,
                        &IngestAck {
                            ingested: 7,
                            stale: 0,
                        },
                    )
                }),
                r#"{"ok":true,"ingested":7}"#,
            ),
            (
                render(|out| {
                    write_view_read(
                        out,
                        "hot\"v",
                        &ViewReadout {
                            answer: ViewAnswer::Scalar {
                                estimate: est(8.0, g),
                                above: true,
                            },
                            now: 10,
                            seq: 3,
                        },
                    )
                }),
                r#"{"ok":true,"view":"hot\"v","kind":"threshold","value":8.0,"guarantee":{"epsilon":0.05,"delta":0.01},"above":true,"now":10,"seq":3}"#,
            ),
            (
                render(|out| {
                    write_view_read(
                        out,
                        "hh",
                        &ViewReadout {
                            answer: ViewAnswer::Hitters(vec![(1, est(2.0, None))]),
                            now: 11,
                            seq: 4,
                        },
                    )
                }),
                r#"{"ok":true,"view":"hh","kind":"heavy_hitters","hitters":[{"key":1,"value":2.0,"guarantee":null}],"now":11,"seq":4}"#,
            ),
            (
                render(|out| {
                    write_view_read(
                        out,
                        "top",
                        &ViewReadout {
                            answer: ViewAnswer::Ranking(vec![
                                ("k\\1".to_string(), 3.0),
                                ("k2".to_string(), f64::INFINITY),
                            ]),
                            now: 12,
                            seq: 5,
                        },
                    )
                }),
                r#"{"ok":true,"view":"top","kind":"topk","topk":[{"key":"k\\1","value":3.0},{"key":"k2","value":null}],"now":12,"seq":5}"#,
            ),
        ];
        for (got, pinned) in cases {
            assert_eq!(got, pinned);
        }
    }

    /// The acks and pushes, pinned the same way.
    #[test]
    fn ack_and_push_lines_are_pinned() {
        let g = Some((0.05, 0.01));
        let cases: Vec<(String, &str)> = vec![
            (pong(), r#"{"ok":true,"pong":true}"#),
            (ingested(12), r#"{"ok":true,"ingested":12}"#),
            (flushed(300), r#"{"ok":true,"advanced_to":300}"#),
            (shutdown(), r#"{"ok":true,"shutdown":true}"#),
            (heartbeat(), r#"{"ok":true,"notify":"ping"}"#),
            (
                view_created("v\"1"),
                r#"{"ok":true,"view":"v\"1","created":true}"#,
            ),
            (
                view_dropped("v\\2"),
                r#"{"ok":true,"view":"v\\2","dropped":true}"#,
            ),
            (subscribed("s\n"), r#"{"ok":true,"subscribed":"s\n"}"#),
            (
                view_list(&[
                    ("a\"".to_string(), "topk", "topk 3 time 100".to_string()),
                    ("b".to_string(), "threshold", "t \"q\"".to_string()),
                ]),
                r#"{"ok":true,"views":[{"name":"a\"","kind":"topk","def":"topk 3 time 100"},{"name":"b","kind":"threshold","def":"t \"q\""}]}"#,
            ),
            (view_list(&[]), r#"{"ok":true,"views":[]}"#),
            (
                snapshot(&SnapshotReport {
                    dir: "/tmp/x\"y".to_string(),
                    shards: 2,
                    bytes: 4096,
                }),
                r#"{"ok":true,"snapshot":"full","dir":"/tmp/x\"y","shards":2,"bytes":4096}"#,
            ),
            (
                view_event(&ViewEvent::ThresholdCrossed {
                    name: "t\"".to_string(),
                    above: false,
                    estimate: est(2.5, g),
                    now: 4,
                    seq: 5,
                }),
                r#"{"ok":true,"notify":"threshold","view":"t\"","above":false,"value":2.5,"guarantee":{"epsilon":0.05,"delta":0.01},"now":4,"seq":5}"#,
            ),
            (
                view_event(&ViewEvent::HittersChanged {
                    name: "h".to_string(),
                    entered: vec![1, 2],
                    left: vec![],
                    hitters: vec![(1, est(3.0, None)), (2, est(f64::NAN, g))],
                    now: 6,
                    seq: 7,
                }),
                r#"{"ok":true,"notify":"heavy_hitters","view":"h","entered":[1,2],"left":[],"hitters":[{"key":1,"value":3.0,"guarantee":null},{"key":2,"value":null,"guarantee":{"epsilon":0.05,"delta":0.01}}],"now":6,"seq":7}"#,
            ),
            (
                view_event(&ViewEvent::HittersChanged {
                    name: "h".to_string(),
                    entered: vec![],
                    left: vec![9],
                    hitters: vec![],
                    now: 8,
                    seq: 9,
                }),
                r#"{"ok":true,"notify":"heavy_hitters","view":"h","entered":[],"left":[9],"hitters":[],"now":8,"seq":9}"#,
            ),
            (
                view_event(&ViewEvent::RankingChanged {
                    name: "r\t".to_string(),
                    ranking: vec![("k\"".to_string(), 1.5), ("z".to_string(), 0.0)],
                    now: 10,
                    seq: 11,
                }),
                r#"{"ok":true,"notify":"topk","view":"r\t","topk":[{"key":"k\"","value":1.5},{"key":"z","value":0.0}],"now":10,"seq":11}"#,
            ),
            (
                restarted("v\u{2}", 1),
                r#"{"ok":true,"notify":"restarted","view":"v\u0002","shard":1}"#,
            ),
            (
                drop_marker(3, "d\\"),
                r#"{"ok":true,"notify":"dropped","view":"d\\","count":3}"#,
            ),
        ];
        for (got, pinned) in cases {
            assert_eq!(got, pinned);
        }
    }
}
