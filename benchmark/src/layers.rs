//! The in-process layer walk: the same batches and queries the server
//! sees, pushed through each layer's public functions with a span around
//! every call.
//!
//! A layer's price is its spans' **self time** (duration minus the part
//! its child spans cover; the median span, times their number), divided by
//! the events or calls they carried.
//! Where a callee is sub-microsecond the span covers one batch (1 024
//! calls) or one block of [`QUERY_BLOCK`] calls, so that the two clock
//! reads around it stay below a percent of what they time.
//!
//! The walk first applies `warm` logical batches per lane unmeasured (one
//! full window, so every structure is at its steady size) and then
//! measures the next `measured` per lane, lanes alternating — the state
//! the server is in during its measured rounds.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ecm::wal::{
    encode_checkpoint, encode_ingest, encode_segment_header, replay, WalSegment, WalSegmentHeader,
};
use ecm::{
    Epoch, LeftRight, Query, ScalarQuery, SketchStore, StandingQuery, StreamEvent, ViewDef,
    ViewSet, ViewWindow, WindowSpec,
};
use sketch_server::engine::route;
use sketch_server::protocol::{parse_command, parse_data_line, response, Command};
use sketch_server::{Engine, ServerConfig};

use crate::check::server_spec;
use crate::gen::{Generator, LANES, LINES_PER_BATCH, WINDOW};
use crate::proc::cpu_seconds_of;
use crate::run::sample_keys;
use crate::trace::{SpanId, Spans};
use crate::workload::Workload;

/// Calls one span covers when the callee is a sub-microsecond read.
pub const QUERY_BLOCK: usize = 100;
/// `TOPK 10` calls per layer.
const TOPK_CALLS: usize = 20;
/// Views in the views pass (the `read-mix` set: half threshold, half
/// fleet top-k).
const WALK_VIEWS: usize = 8;
/// Occurrences per run in the kernel's weighted pass.
const KERNEL_RUN: u64 = 8;
/// Shards of the walk's engine — the server's.
const SHARDS: usize = 2;

/// How much the walk covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPlan {
    /// Unmeasured logical batches per lane.
    pub warm: u64,
    /// Measured logical batches per lane.
    pub measured: u64,
    /// Point queries per read layer.
    pub queries: usize,
}

impl WalkPlan {
    /// One window warm, one window (200 batches over both lanes) measured,
    /// 2 000 queries.
    pub const FULL: WalkPlan = WalkPlan {
        warm: 100,
        measured: 100,
        queries: 2000,
    };
    /// A tenth of [`FULL`](Self::FULL), for `--quick`.
    pub const QUICK: WalkPlan = WalkPlan {
        warm: 10,
        measured: 10,
        queries: 200,
    };
}

/// What the walk found.
#[derive(Debug)]
pub struct Walk {
    /// Per-layer metrics by `BENCHMARK.json` name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// CPU the in-process engine used per event (router, mailboxes, shard
    /// workers, store, publication) — what the server spends below its
    /// front-end.
    pub engine_cpu_us_per_event: f64,
    /// The engine's rendered replies to the walk's point queries followed
    /// by its `TOPK 10` reply, for comparison with the wire.
    pub answers: Vec<String>,
    /// Occurrences in the measured batches.
    pub events: u64,
    /// Measured logical batches (both lanes).
    pub batches: u64,
}

type Triples = Vec<(String, StreamEvent, u64)>;

/// One logical batch, as bytes and as the parser sees it.
struct WalkBatch {
    lines: Vec<u8>,
    occurrences: u64,
}

fn batches(gen: &Generator, from: u64, to: u64) -> Vec<WalkBatch> {
    let mut out = Vec::new();
    for j in from..to {
        for lane in 0..LANES {
            let mut lines = Vec::with_capacity(LINES_PER_BATCH * 24);
            let occurrences = gen.lines(lane, j, &mut lines, &mut Vec::new());
            out.push(WalkBatch { lines, occurrences });
        }
    }
    out
}

fn parse_batch(batch: &WalkBatch) -> Triples {
    batch
        .lines
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| parse_data_line(l).expect("generated lines parse"))
        .collect()
}

/// The engine's un-batching, reproduced for the layers below it.
fn unbatch(triples: &Triples) -> Vec<(String, StreamEvent)> {
    let mut out = Vec::new();
    for (key, event, n) in triples {
        for _ in 0..*n {
            out.push((key.clone(), *event));
        }
    }
    out
}

/// Run `f` inside a span.
fn timed<T>(
    spans: &mut Spans,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = f();
    spans.push(name, started, Instant::now(), parent, 0);
    out
}

/// The read-mix view set over `keys`.
fn view_defs(keys: &[String]) -> Vec<ViewDef<String>> {
    (0..WALK_VIEWS)
        .map(|i| {
            let (key, query) = if i % 2 == 0 {
                let query = StandingQuery::Threshold {
                    query: ScalarQuery::Total,
                    limit: 1000.0,
                };
                (Some(keys[i % keys.len()].clone()), query)
            } else {
                (None, StandingQuery::TopK { k: 10 })
            };
            ViewDef {
                name: format!("v{i}"),
                key,
                query,
                window: ViewWindow::Time { range: WINDOW },
            }
        })
        .collect()
}

/// Walk `w`'s trace at `seed` through every layer. Spans go to `spans`
/// (which must be recording).
pub fn walk(w: &Workload, seed: u64, plan: WalkPlan, spans: &mut Spans) -> Result<Walk, String> {
    assert!(spans.on(), "the walk's prices are its spans");
    let gen = Generator::new(seed, w.shape, &[]);
    let warm = batches(&gen, 0, plan.warm);
    let measured = batches(&gen, plan.warm, plan.warm + plan.measured);
    let events: u64 = measured.iter().map(|b| b.occurrences).sum();
    let lines = (measured.len() * LINES_PER_BATCH) as f64;
    let now = Generator::clock(plan.warm + plan.measured);
    let window = WindowSpec::time(now, WINDOW);
    let queries: Vec<Vec<u8>> = (1..=plan.queries as u64)
        .map(|i| {
            let mut line = gen.point_query(i, now);
            line.pop(); // the parser takes a line without its newline
            line
        })
        .collect();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    // protocol: parse.
    let pass = spans.open("walk.protocol", Instant::now(), 0);
    let warm_triples: Vec<Triples> = warm.iter().map(parse_batch).collect();
    let triples: Vec<Triples> = measured
        .iter()
        .map(|b| timed(spans, "protocol.parse_data_line", pass, || parse_batch(b)))
        .collect();
    let mut commands = Vec::with_capacity(queries.len());
    for block in queries.chunks(QUERY_BLOCK) {
        timed(spans, "protocol.parse_command", pass, || {
            for line in block {
                commands.push(parse_command(line).expect("generated queries parse"));
            }
        });
    }
    spans.close(pass, Instant::now());

    // engine: route, drain, served reads; and render on the way out.
    let engine = Engine::start(
        &ServerConfig::new(server_spec())
            .shards(SHARDS)
            // Deep enough that `ingest` never waits for a worker: its span
            // is then the router's own time.
            .mailbox_depth(4 * (warm.len() + measured.len())),
    )
    .map_err(|e| format!("in-process engine: {e}"))?;
    let fail = |e: sketch_server::EngineError| format!("in-process engine: {e}");
    for batch in &warm_triples {
        engine.ingest(batch).map_err(fail)?;
    }
    engine.flush(Generator::clock(plan.warm)).map_err(fail)?;
    let keys: Vec<String> = sample_keys(w)
        .iter()
        .map(|&k| gen.key_name(k).to_string())
        .collect();
    if w.views > 0 {
        // The workload's standing views, warmed: the engine's CPU below
        // then includes their maintenance, as the server's does.
        for def in view_defs(&keys) {
            let name = def.name.clone();
            engine.view_create(def).map_err(fail)?;
            engine.view_read(&name).map_err(fail)?;
        }
    }
    let pass = spans.open("walk.engine", Instant::now(), 0);
    let cpu0 = cpu_seconds_of(std::process::id());
    let drain = Instant::now();
    for batch in &triples {
        timed(spans, "engine.ingest", pass, || engine.ingest(batch)).map_err(fail)?;
    }
    engine.flush(now).map_err(fail)?;
    let drain_ns = drain.elapsed().as_nanos() as f64;
    let engine_cpu_us_per_event = (cpu_seconds_of(std::process::id()) - cpu0) * 1e6 / events as f64;
    let mut answers = Vec::with_capacity(commands.len() + 1);
    for block in commands.chunks(QUERY_BLOCK) {
        let mut served = Vec::with_capacity(block.len());
        timed(spans, "engine.query_served", pass, || {
            for command in block {
                let Command::Query { key, query, window } = command else {
                    unreachable!("the walk only parses QUERY lines");
                };
                served.push((query, engine.query_served(key, query, *window)));
            }
        });
        timed(spans, "protocol.render_answer", pass, || {
            for (query, outcome) in served {
                answers.push(match outcome.map(|s| (s.answer, s.clock)) {
                    Ok((Some(Ok(answer)), clock)) => {
                        response::answer_at(query.name(), &answer, clock)
                    }
                    other => format!("engine could not answer: {other:?}"),
                });
            }
        });
    }
    let mut topk_reply = String::new();
    for _ in 0..TOPK_CALLS {
        let rows = timed(spans, "engine.top_k", pass, || engine.top_k(10, window)).map_err(fail)?;
        topk_reply = timed(spans, "protocol.render_topk", pass, || {
            response::topk(&rows)
        });
    }
    answers.push(topk_reply);
    spans.close(pass, Instant::now());
    engine.shutdown().map_err(fail)?;

    // store (+ views): what a shard worker does per batch, on one store
    // holding both shards' keys — its clone is the two shards' clones.
    let mut store: SketchStore<String> =
        SketchStore::new(server_spec()).map_err(|e| format!("store: {e}"))?;
    for batch in &warm_triples {
        store.ingest(&unbatch(batch));
    }
    let mut views: ViewSet<String> = ViewSet::new();
    for def in view_defs(&keys) {
        let name = def.name.clone();
        views.create(def).map_err(|e| format!("view: {e}"))?;
        views
            .read(&name, &store)
            .map_err(|e| format!("view: {e}"))?;
    }
    let pass = spans.open("walk.store", Instant::now(), 0);
    let per_shard: Vec<Vec<Vec<(String, StreamEvent)>>> = triples
        .iter()
        .map(|batch| {
            let mut parts = vec![Vec::new(); SHARDS];
            for pair in unbatch(batch) {
                parts[route(&pair.0, SHARDS)].push(pair);
            }
            parts
        })
        .collect();
    for parts in &per_shard {
        for part in parts {
            timed(spans, "store.ingest", pass, || store.ingest(part));
        }
        timed(spans, "store.clone", pass, || {
            drop(black_box(store.clone()))
        });
        timed(spans, "views.maintain", pass, || {
            black_box(views.maintain(&store));
        });
    }
    store.advance_to(now);
    for block in commands.chunks(QUERY_BLOCK) {
        timed(spans, "store.query", pass, || {
            for command in block {
                if let Command::Query { key, query, window } = command {
                    black_box(store.query(key, &query.to_query(), *window));
                }
            }
        });
    }
    for _ in 0..TOPK_CALLS {
        timed(spans, "store.top_k", pass, || {
            black_box(store.top_k(10, &Query::total_arrivals(), window));
        });
    }
    for _ in 0..plan.queries.div_ceil(QUERY_BLOCK) {
        timed(spans, "views.read", pass, || {
            for i in 0..QUERY_BLOCK {
                black_box(views.read(&format!("v{}", i % WALK_VIEWS), &store).is_ok());
            }
        });
    }
    metrics.insert(
        "store.bytes_per_key",
        store.memory_bytes() as f64 / store.key_count().max(1) as f64,
    );
    let snapshot = timed(spans, "store.write_snapshot", pass, || {
        store.write_snapshot()
    });
    snapshot.map_err(|e| format!("snapshot: {e}"))?;
    spans.close(pass, Instant::now());
    drop(store);

    // wal: only where the server keeps one.
    let (mut wal_bytes, mut replay_meps) = (0usize, 0.0);
    if w.durable {
        let pass = spans.open("walk.wal", Instant::now(), 0);
        let mut log = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut log);
        let head = log.len();
        // Record 1 is the genesis marker above.
        for (seq, part) in (2..).zip(per_shard.iter().flatten()) {
            timed(spans, "wal.encode_ingest", pass, || {
                encode_ingest(seq, part, &mut log)
            });
        }
        wal_bytes = log.len() - head;
        let mut restored: SketchStore<String> =
            SketchStore::new(server_spec()).map_err(|e| format!("store: {e}"))?;
        let segment = [WalSegment {
            index: 1,
            bytes: &log,
        }];
        let started = Instant::now();
        let report = timed(spans, "wal.replay", pass, || {
            replay(&mut restored, 0, &segment)
        })
        .map_err(|e| format!("wal replay: {e}"))?;
        replay_meps = report.applied_events as f64 / started.elapsed().as_secs_f64() / 1e6;
        spans.close(pass, Instant::now());
    }

    // publish: the swap and the pin, without the clone.
    let pass = spans.open("walk.publish", Instant::now(), 0);
    let lr = LeftRight::new(Epoch::initial(0u64, 0, 0));
    for block in 0..plan.queries.div_ceil(QUERY_BLOCK) as u64 {
        timed(spans, "publish.publish", pass, || {
            for i in 0..QUERY_BLOCK as u64 {
                lr.publish(Epoch::initial(block * QUERY_BLOCK as u64 + i, 0, 0));
            }
        });
        timed(spans, "publish.pin", pass, || {
            for _ in 0..QUERY_BLOCK {
                black_box(lr.pin());
            }
        });
    }
    spans.close(pass, Instant::now());

    // kernel: one sketch absorbing lane 0's stream (one lane, because a
    // single sketch needs non-decreasing ticks).
    let pass = spans.open("walk.kernel", Instant::now(), 0);
    let spec = server_spec();
    let mut single = spec.build().map_err(|e| format!("sketch: {e}"))?;
    let mut weighted = spec.build().map_err(|e| format!("sketch: {e}"))?;
    for (_, e, _) in warm_triples.iter().step_by(LANES).flatten() {
        single.insert(e.ts, e.item);
        weighted.insert_weighted(e.ts, e.item, KERNEL_RUN);
    }
    for batch in triples.iter().step_by(LANES) {
        timed(spans, "kernel.insert", pass, || {
            for (_, e, _) in batch {
                single.insert(e.ts, e.item);
            }
        });
        timed(spans, "kernel.insert_weighted", pass, || {
            for (_, e, _) in batch {
                weighted.insert_weighted(e.ts, e.item, KERNEL_RUN);
            }
        });
    }
    for block in commands.chunks(QUERY_BLOCK) {
        timed(spans, "kernel.point_query", pass, || {
            for command in block {
                if let Command::Query { query, window, .. } = command {
                    black_box(single.query(&query.to_query(), *window).is_ok());
                }
            }
        });
    }
    metrics.insert("kernel.bytes_per_sketch", single.memory_bytes() as f64);
    spans.close(pass, Instant::now());

    // Prices: self time by span name over what the spans carried. A name's
    // total is its median span times the number of its spans: the walk is
    // one pass, and one span that met a host stall must not own a price.
    let self_ns: BTreeMap<&'static str, (f64, f64)> = spans
        .self_times()
        .into_iter()
        .map(|(name, times)| {
            let times: Vec<f64> = times.iter().map(|&ns| ns as f64).collect();
            (name, (crate::stats::median(&times), times.len() as f64))
        })
        .collect();
    let per_call = |name: &str| self_ns.get(name).map_or(0.0, |&(median, _)| median);
    let total = |name: &str| self_ns.get(name).map_or(0.0, |&(median, n)| median * n);
    let queries_n = plan.queries.max(1) as f64;
    let per_batch = measured.len().max(1) as f64;
    metrics.insert(
        "protocol.parse_ns_per_line",
        total("protocol.parse_data_line") / lines,
    );
    metrics.insert(
        "protocol.parse_ns_per_query",
        total("protocol.parse_command") / queries_n,
    );
    metrics.insert(
        "protocol.render_ns_per_answer",
        total("protocol.render_answer") / queries_n,
    );
    metrics.insert(
        "protocol.render_us_per_topk",
        per_call("protocol.render_topk") / 1e3,
    );
    metrics.insert(
        "engine.route_ns_per_event",
        total("engine.ingest") / events as f64,
    );
    metrics.insert("engine.drain_ns_per_event", drain_ns / events as f64);
    metrics.insert("engine.query_ns", total("engine.query_served") / queries_n);
    metrics.insert("engine.topk_us", per_call("engine.top_k") / 1e3);
    metrics.insert(
        "wal.encode_ns_per_event",
        total("wal.encode_ingest") / events as f64,
    );
    metrics.insert("wal.bytes_per_event", wal_bytes as f64 / events as f64);
    metrics.insert("wal.replay_meps", replay_meps);
    metrics.insert(
        "store.ingest_ns_per_event",
        total("store.ingest") / events as f64,
    );
    metrics.insert("store.query_ns", total("store.query") / queries_n);
    metrics.insert("store.topk_us", per_call("store.top_k") / 1e3);
    metrics.insert("store.clone_us", total("store.clone") / per_batch / 1e3);
    metrics.insert("store.snapshot_ms", total("store.write_snapshot") / 1e6);
    let blocks = plan.queries.div_ceil(QUERY_BLOCK).max(1) as f64 * QUERY_BLOCK as f64;
    metrics.insert("publish.publish_ns", total("publish.publish") / blocks);
    metrics.insert("publish.pin_ns", total("publish.pin") / blocks);
    metrics.insert(
        "views.maintain_us",
        total("views.maintain") / per_batch / 1e3,
    );
    metrics.insert("views.read_ns", total("views.read") / blocks);
    let lane0_lines = lines / LANES as f64;
    metrics.insert(
        "kernel.insert_ns_per_event",
        total("kernel.insert") / lane0_lines,
    );
    metrics.insert(
        "kernel.insert_weighted_ns_per_run",
        total("kernel.insert_weighted") / lane0_lines,
    );
    metrics.insert(
        "kernel.point_query_ns",
        total("kernel.point_query") / queries_n,
    );
    Ok(Walk {
        metrics,
        engine_cpu_us_per_event,
        answers,
        events,
        batches: measured.len() as u64,
    })
}
