//! JSON response rendering — one object per line, hand-rolled (the
//! container has no JSON dependency).
//!
//! Numbers are rendered with Rust's shortest-round-trip `f64` formatting,
//! so a response is **bit-identical** to the in-process estimate it
//! reports: the end-to-end test renders the same [`Answer`] through the
//! same functions on both sides and compares strings. Non-finite values
//! (which no correct backend produces) render as `null` rather than
//! emitting invalid JSON.

use ecm::{Answer, Estimate, QueryError, ViewAnswer, ViewEvent, ViewReadout};

use super::json::escape;
use crate::engine::{IngestAck, RankMemoStats, ShardStatus, SnapshotReport, ViewsSummary};

/// Shortest-round-trip rendering of a finite `f64`; `null` otherwise.
fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn estimate(e: &Estimate) -> String {
    let guarantee = match e.guarantee {
        Some(g) => format!(
            "{{\"epsilon\":{},\"delta\":{}}}",
            float(g.epsilon),
            float(g.delta)
        ),
        None => "null".to_string(),
    };
    format!("\"value\":{},\"guarantee\":{}", float(e.value), guarantee)
}

/// `{"ok":false,...}` with a machine-readable code and a human detail.
pub fn error(code: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape(code),
        escape(detail)
    )
}

/// A [`QueryError`] as a response line.
pub fn query_error(e: &QueryError) -> String {
    error("query", &e.to_string())
}

/// `{"ok":false,...}` for a transient failure the client may retry:
/// carries `"retryable":true` and a suggested backoff so a generic
/// client needs no per-code table.
pub fn retry_error(code: &str, detail: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\",\"retryable\":true,\
         \"retry_after_ms\":{retry_after_ms}}}",
        escape(code),
        escape(detail)
    )
}

/// Reply to `PING`.
pub fn pong() -> String {
    "{\"ok\":true,\"pong\":true}".to_string()
}

/// Ack for `STORE` / `BATCH`: `n` event occurrences accepted.
pub fn ingested(n: u64) -> String {
    format!("{{\"ok\":true,\"ingested\":{n}}}")
}

/// [`ingested`] for an [`IngestAck`]: byte-identical when no run was
/// refused, with a trailing `"stale":k` when `k > 0` were.
pub fn ingest_ack(ack: &IngestAck) -> String {
    match ack.stale {
        0 => ingested(ack.ingested),
        k => format!(
            "{{\"ok\":true,\"ingested\":{},\"stale\":{k}}}",
            ack.ingested
        ),
    }
}

/// Ack for `FLUSH`.
pub fn flushed(ts: u64) -> String {
    format!("{{\"ok\":true,\"advanced_to\":{ts}}}")
}

/// Ack for `SHUTDOWN` (sent before the socket closes).
pub fn shutdown() -> String {
    "{\"ok\":true,\"shutdown\":true}".to_string()
}

/// A query [`Answer`] as a response line; `query` is the wire verb.
pub fn answer(query: &str, a: &Answer) -> String {
    match a {
        Answer::Value(e) => format!(
            "{{\"ok\":true,\"query\":\"{}\",{}}}",
            escape(query),
            estimate(e)
        ),
        Answer::HeavyHitters(hits) => {
            let rows: Vec<String> = hits
                .iter()
                .map(|(k, e)| format!("{{\"key\":{k},{}}}", estimate(e)))
                .collect();
            format!(
                "{{\"ok\":true,\"query\":\"{}\",\"hitters\":[{}]}}",
                escape(query),
                rows.join(",")
            )
        }
        Answer::Quantile(k) => {
            let key = match k {
                Some(k) => k.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"ok\":true,\"query\":\"{}\",\"key\":{key}}}",
                escape(query)
            )
        }
    }
}

/// A query [`Answer`] with its consistency point: [`answer`] plus a
/// trailing `"now"` field carrying the owning shard's write clock (the
/// maximum applied tick) at the moment the answer was computed. The
/// clock is a pure function of the acked event multiset, so two servers
/// that acked the same events render byte-identical responses — which is
/// what lets the differential and chaos suites keep comparing whole
/// strings.
pub fn answer_at(query: &str, a: &Answer, now: u64) -> String {
    let base = answer(query, a);
    debug_assert!(base.ends_with('}'));
    format!("{},\"now\":{now}}}", &base[..base.len() - 1])
}

/// A merged `TOPK` ranking as a response line.
pub fn topk(rows: &[(String, f64)]) -> String {
    format!("{{\"ok\":true,\"topk\":[{}]}}", ranking_rows(rows))
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
    format!(
        "{{\"ok\":true,\"snapshot\":\"full\",\"dir\":\"{}\",\"shards\":{},\"bytes\":{}}}",
        escape(&r.dir),
        r.shards,
        r.bytes
    )
}

/// Heavy-hitter rows — the same rendering [`answer`] uses, so a view
/// readout's hitters are string-identical to the on-demand query's.
fn hitter_rows(hits: &[(u64, Estimate)]) -> String {
    let rows: Vec<String> = hits
        .iter()
        .map(|(k, e)| format!("{{\"key\":{k},{}}}", estimate(e)))
        .collect();
    rows.join(",")
}

/// Ranking rows, as [`topk`], a top-k [`view_read`] and a ranking push
/// render them.
fn ranking_rows(rows: &[(String, f64)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("{{\"key\":\"{}\",\"value\":{}}}", escape(k), float(*v)))
        .collect();
    rows.join(",")
}

/// Ack for `VIEW CREATE`.
pub fn view_created(name: &str) -> String {
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"created\":true}}",
        escape(name)
    )
}

/// Ack for `VIEW DROP`.
pub fn view_dropped(name: &str) -> String {
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"dropped\":true}}",
        escape(name)
    )
}

/// `VIEW LIST` as a response line: `(name, kind, wire definition)` rows.
pub fn view_list(rows: &[(String, &'static str, String)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(name, kind, def)| {
            format!(
                "{{\"name\":\"{}\",\"kind\":\"{kind}\",\"def\":\"{}\"}}",
                escape(name),
                escape(def)
            )
        })
        .collect();
    format!("{{\"ok\":true,\"views\":[{}]}}", rows.join(","))
}

/// A `VIEW READ` readout as a response line. The answer body uses the
/// same estimate / row rendering as the on-demand [`answer`] and
/// [`topk`] responses — the differential suite compares the substrings.
pub fn view_read(name: &str, r: &ViewReadout<String>) -> String {
    let body = match &r.answer {
        ViewAnswer::Scalar { estimate: e, above } => format!("{},\"above\":{above}", estimate(e)),
        ViewAnswer::Hitters(hits) => format!("\"hitters\":[{}]", hitter_rows(hits)),
        ViewAnswer::Ranking(rows) => format!("\"topk\":[{}]", ranking_rows(rows)),
    };
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"kind\":\"{}\",{body},\"now\":{},\"seq\":{}}}",
        escape(name),
        r.answer.kind(),
        r.now,
        r.seq
    )
}

/// Ack for `SUBSCRIBE` (sent before the connection turns push-only).
pub fn subscribed(view: &str) -> String {
    format!("{{\"ok\":true,\"subscribed\":\"{}\"}}", escape(view))
}

/// A view's change notification as a push line.
pub fn view_event(e: &ViewEvent<String>) -> String {
    match e {
        ViewEvent::ThresholdCrossed {
            name,
            above,
            estimate: est,
            now,
            seq,
        } => format!(
            "{{\"ok\":true,\"notify\":\"threshold\",\"view\":\"{}\",\"above\":{above},{},\
             \"now\":{now},\"seq\":{seq}}}",
            escape(name),
            estimate(est)
        ),
        ViewEvent::HittersChanged {
            name,
            entered,
            left,
            hitters,
            now,
            seq,
        } => {
            let entered: Vec<String> = entered.iter().map(u64::to_string).collect();
            let left: Vec<String> = left.iter().map(u64::to_string).collect();
            format!(
                "{{\"ok\":true,\"notify\":\"heavy_hitters\",\"view\":\"{}\",\
                 \"entered\":[{}],\"left\":[{}],\"hitters\":[{}],\"now\":{now},\"seq\":{seq}}}",
                escape(name),
                entered.join(","),
                left.join(","),
                hitter_rows(hitters)
            )
        }
        ViewEvent::RankingChanged {
            name,
            ranking,
            now,
            seq,
        } => format!(
            "{{\"ok\":true,\"notify\":\"topk\",\"view\":\"{}\",\"topk\":[{}],\
             \"now\":{now},\"seq\":{seq}}}",
            escape(name),
            ranking_rows(ranking)
        ),
    }
}

/// The marker a subscriber of a keyed view sees when the shard owning its
/// key died and was rebuilt: publications between the crash and the
/// restart are gone (the shard's state is restored, the pushes it would
/// have caused are not), so the notifier publishes the marker *before*
/// any push from the replacement worker's publications.
pub fn restarted(view: &str, shard: usize) -> String {
    format!(
        "{{\"ok\":true,\"notify\":\"restarted\",\"view\":\"{}\",\"shard\":{shard}}}",
        escape(view)
    )
}

/// The typed gap record a slow subscriber sees in place of the `count`
/// notifications its full outbox lost.
pub fn drop_marker(count: u64, view: &str) -> String {
    format!(
        "{{\"ok\":true,\"notify\":\"dropped\",\"view\":\"{}\",\"count\":{count}}}",
        escape(view)
    )
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
