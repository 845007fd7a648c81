//! **Query latency over warm sketches: point / self-join / heavy hitters.**
//!
//! The ingest bench prices the write path; this one prices the read path
//! the serving layer actually runs — typed [`Query`]s through the
//! [`SketchReader`] surface against sketches warmed with a bursty Zipf
//! trace. Three query classes over three backends:
//!
//! * `point` — row-min frequency estimates (EH / DW / exact cells), the
//!   per-key lookup of a monitoring dashboard;
//! * `self_join` — the F₂ scan touching every cell, the worst-case read;
//! * `heavy_hitters` — dyadic group testing over an 8-bit hierarchy
//!   (ECM-EH only), the top-talker report.
//!
//! A fourth section prices the *server's* read path while writes keep
//! flowing: `read_scaling` runs 1/2/4 reader threads through the
//! wait-free published-epoch path (`Engine::query_served`) and reports
//! queries/sec for each cell; it must not collapse as readers are added.
//! A fifth prices what feeds that path: `publish` times one publication
//! (clone the store, swap the epoch, retire the old one) at 1 000 and
//! 10 000 resident keys with 32 keys written in between — the store's
//! entries are copy-on-write, so the cost must stay a pointer copy per
//! resident key, not a sketch copy. A sixth prices the fleet ranking:
//! `top_k` times `SketchStore::top_k(10, total)` over 10 000 resident
//! keys of Zipf(0.7) volumes against the scan it replaced (every key
//! queried, sorted, cut) — the pruned ranking reads one arrivals bound per
//! key and scores only the few that can place. `bench_schema.rs` holds
//! the floors.
//!
//! Results are printed and written as JSON to `BENCH_query.json` at the
//! workspace root (`BENCH_QUERY_OUT` overrides the path); the schema is
//! validated by `crates/bench/tests/bench_schema.rs`. Scale with
//! `ECM_EVENTS` (default 200 000).

use ecm::{
    EcmBuilder, EcmHierarchy, EcmSketch, Epoch, LeftRight, Query, SketchReader, SketchStore,
    Threshold, WindowSpec,
};
use ecm_bench::{bursty_zipf_trace, event_budget};
use sketch_server::engine::Engine;
use sketch_server::protocol::OwnedQuery;
use sketch_server::{ServerConfig, SketchSpec, StreamEvent};
use sliding_window::traits::WindowCounter;
use sliding_window::ExponentialHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream_gen::{SeededRng, ZipfSampler};

const WINDOW: u64 = 1_000_000;
const ZIPF_SKEW: f64 = 1.2;
const KEY_DOMAIN: u64 = 10_000;
/// Hierarchy keys live in an 8-bit universe.
const HIER_BITS: u32 = 8;

struct Row {
    backend: &'static str,
    query: &'static str,
    ops: usize,
    ns_per_op: f64,
}

/// Best-of-three timing of `ops` repetitions of `f`, in ns per op.
fn time_ns<F: FnMut() -> f64>(ops: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..ops {
            sink += f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    best * 1e9 / ops as f64
}

fn point_rows<W: WindowCounter + 'static>(
    backend: &'static str,
    sk: &EcmSketch<W>,
    now: u64,
    keys: &[u64],
    rows: &mut Vec<Row>,
) {
    let w = WindowSpec::time(now, WINDOW);
    let ops = 2_000.max(keys.len());
    let mut i = 0usize;
    let ns = time_ns(ops, || {
        let key = keys[i % keys.len()];
        i += 1;
        sk.query(&Query::point(key), w)
            .expect("in-window point query")
            .into_value()
            .value
    });
    rows.push(Row {
        backend,
        query: "point",
        ops,
        ns_per_op: ns,
    });
    let ops = 50;
    let ns = time_ns(ops, || {
        sk.query(&Query::self_join(), w)
            .expect("in-window self-join")
            .into_value()
            .value
    });
    rows.push(Row {
        backend,
        query: "self_join",
        ops,
        ns_per_op: ns,
    });
}

struct ScaleRow {
    readers: usize,
    queries_per_sec: f64,
}

/// Throughput of `readers` concurrent threads hammering point queries
/// down the read path for a fixed wall-clock slice, while a background
/// writer keeps acked batches flowing (so the published copies are
/// genuinely republished throughout, not frozen).
fn read_scaling_cell(engine: &Arc<Engine>, keys: &[String], now: u64, readers: usize) -> ScaleRow {
    const MEASURE: Duration = Duration::from_millis(250);
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let engine = Arc::clone(engine);
            let keys = keys.to_vec();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let w = WindowSpec::time(now, WINDOW);
                let mut done = 0u64;
                let mut i = r; // stagger the key walk per thread
                while !stop.load(Ordering::Relaxed) {
                    let key = &keys[i % keys.len()];
                    let q = OwnedQuery::Point {
                        item: (i % 256) as u64,
                    };
                    i += 1;
                    if engine
                        .query_served(key, &q, w)
                        .is_ok_and(|served| served.answer.is_some())
                    {
                        done += 1;
                    }
                }
                done
            })
        })
        .collect();
    let start = Instant::now();
    std::thread::sleep(MEASURE);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    ScaleRow {
        readers,
        queries_per_sec: total as f64 / elapsed,
    }
}

/// Keys written between two timed publications.
const DIRTY_KEYS: usize = 32;

struct PublishRow {
    resident_keys: usize,
    publishes: usize,
    publish_us: f64,
}

/// Mean cost of one publication of a `resident_keys`-tenant store, the
/// way a shard worker runs it: `DIRTY_KEYS` tenants are written (untimed
/// — that is the write path, and where their sketches get copied), then
/// the store is cloned into a fresh epoch, which also retires the epoch
/// published two rounds earlier (timed).
fn publish_cell(resident_keys: usize) -> PublishRow {
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(7);
    let mut store: SketchStore<String> = SketchStore::new(spec).expect("valid spec");
    let keys: Vec<String> = (0..resident_keys).map(|t| format!("tenant-{t}")).collect();
    for (t, key) in keys.iter().enumerate() {
        store.insert(key.clone(), 1, t as u64 % 256);
    }
    let lr = LeftRight::new(Epoch::initial(store.clone(), 1, 0));
    let publishes = 200;
    let mut spent = Duration::ZERO;
    for round in 0..publishes {
        let ts = 2 + round as u64;
        for d in 0..DIRTY_KEYS {
            let key = &keys[(round * DIRTY_KEYS + d) % resident_keys];
            store.insert(key.clone(), ts, d as u64);
        }
        let start = Instant::now();
        lr.publish(Epoch::initial(store.clone(), ts, store.version()));
        spent += start.elapsed();
    }
    PublishRow {
        resident_keys,
        publishes,
        publish_us: spent.as_secs_f64() * 1e6 / publishes as f64,
    }
}

struct TopKRow {
    resident_keys: usize,
    k: usize,
    pruned_us: f64,
    scan_us: f64,
}

/// `SketchStore::top_k` against the scan it replaced, over a fleet of
/// `resident_keys` EH tenants whose window volumes follow Zipf(0.7).
fn top_k_cell(resident_keys: usize) -> TopKRow {
    const K: usize = 10;
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(7);
    let mut store: SketchStore<String> = SketchStore::new(spec).expect("valid spec");
    for r in 0..resident_keys {
        let volume = (2_000.0 * ((r + 1) as f64).powf(-0.7)).ceil() as u64;
        for step in 0..4u64 {
            let item = (r as u64 * 31 + step * 7) % 256;
            store.insert_weighted(format!("tenant-{r}"), 1 + step, item, volume.div_ceil(4));
        }
    }
    let q = Query::total_arrivals();
    let w = WindowSpec::time(4, WINDOW);
    let scan = |store: &SketchStore<String>| {
        let mut rows: Vec<(String, f64)> = store
            .query_all(&q, w)
            .into_iter()
            .filter_map(|(key, answer)| Some((key, answer.ok()?.value()?)))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        rows.truncate(K);
        rows
    };
    assert_eq!(store.top_k(K, &q, w), scan(&store), "pruned != scan");
    let pruned_ns = time_ns(50, || store.top_k(K, &q, w)[0].1);
    let scan_ns = time_ns(5, || scan(&store)[0].1);
    TopKRow {
        resident_keys,
        k: K,
        pruned_us: pruned_ns / 1e3,
        scan_us: scan_ns / 1e3,
    }
}

fn json(
    rows: &[Row],
    scaling: &[ScaleRow],
    publish: &[PublishRow],
    top_k: &TopKRow,
    events: usize,
    eh_bytes: usize,
) -> String {
    let mut results = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            results.push_str(",\n");
        }
        results.push_str(&format!(
            "    {{\"backend\": \"{}\", \"query\": \"{}\", \"ops\": {}, \"ns_per_op\": {:.1}}}",
            r.backend, r.query, r.ops, r.ns_per_op
        ));
    }
    let mut scale = String::new();
    for (i, s) in scaling.iter().enumerate() {
        if i > 0 {
            scale.push_str(",\n");
        }
        scale.push_str(&format!(
            "    {{\"path\": \"published\", \"readers\": {}, \"queries_per_sec\": {:.1}}}",
            s.readers, s.queries_per_sec
        ));
    }
    let mut publishes = String::new();
    for (i, p) in publish.iter().enumerate() {
        if i > 0 {
            publishes.push_str(",\n");
        }
        publishes.push_str(&format!(
            "    {{\"resident_keys\": {}, \"dirty_keys\": {DIRTY_KEYS}, \"publishes\": {}, \
             \"publish_us\": {:.1}}}",
            p.resident_keys, p.publishes, p.publish_us
        ));
    }
    format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"query\",\n  \"workload\": {{\n    \
         \"events\": {events},\n    \"zipf_skew\": {ZIPF_SKEW},\n    \"key_domain\": {KEY_DOMAIN},\n    \
         \"window\": {WINDOW},\n    \"hierarchy_bits\": {HIER_BITS}\n  }},\n  \
         \"warm_eh_memory_bytes\": {eh_bytes},\n  \"results\": [\n{results}\n  ],\n  \
         \"read_scaling\": [\n{scale}\n  ],\n  \"publish\": [\n{publishes}\n  ],\n  \
         \"top_k\": [\n    {{\"resident_keys\": {}, \"k\": {}, \"pruned_us\": {:.1}, \
         \"scan_us\": {:.1}}}\n  ]\n}}\n",
        top_k.resident_keys, top_k.k, top_k.pruned_us, top_k.scan_us
    )
}

fn main() {
    let n_events = event_budget();
    let events = bursty_zipf_trace(n_events, 42, KEY_DOMAIN, ZIPF_SKEW);
    let now = events.last().expect("non-empty trace").ts;
    println!("query latency over {} warm events", events.len());

    let builder = EcmBuilder::new(0.1, 0.1, WINDOW).seed(7);
    let dw_builder = EcmBuilder::new(0.1, 0.1, WINDOW)
        .max_arrivals(events.len() as u64)
        .seed(7);

    let mut eh = EcmSketch::new(&builder.eh_config());
    let mut dw = EcmSketch::new(&dw_builder.dw_config());
    let mut exact = EcmSketch::new(&builder.exact_config());
    for e in &events {
        eh.insert(e.item, e.ts);
        dw.insert(e.item, e.ts);
        exact.insert(e.item, e.ts);
    }
    // Probe keys: a Zipf draw, so the mix of hot and cold keys matches the
    // write side.
    let mut rng = SeededRng::seed_from_u64(9);
    let zipf = ZipfSampler::new(KEY_DOMAIN, ZIPF_SKEW);
    let keys: Vec<u64> = (0..512).map(|_| zipf.sample(&mut rng)).collect();

    let mut rows = Vec::new();
    point_rows("ecm-eh", &eh, now, &keys, &mut rows);
    point_rows("ecm-dw", &dw, now, &keys, &mut rows);
    point_rows("ecm-exact", &exact, now, &keys, &mut rows);

    // Heavy hitters over a narrow-universe hierarchy (the trace's keys are
    // folded into it; group testing cost is what is being priced).
    let hier_events = bursty_zipf_trace(n_events.min(100_000), 43, 1 << HIER_BITS, ZIPF_SKEW);
    let mut hier: EcmHierarchy<ExponentialHistogram> =
        EcmHierarchy::new(HIER_BITS, &builder.eh_config());
    for e in &hier_events {
        hier.insert(e.item, e.ts);
    }
    let hier_now = hier_events.last().expect("non-empty trace").ts;
    let w = WindowSpec::time(hier_now, WINDOW);
    let ops = 200;
    let ns = time_ns(ops, || {
        hier.query(&Query::heavy_hitters(Threshold::Relative(0.05)), w)
            .expect("heavy hitters over the hierarchy")
            .into_heavy_hitters()
            .len() as f64
    });
    rows.push(Row {
        backend: "ecm-eh-hierarchy",
        query: "heavy_hitters",
        ops,
        ns_per_op: ns,
    });

    println!(
        "{:<18} {:>14} {:>8} {:>12}",
        "backend", "query", "ops", "ns_per_op"
    );
    for r in &rows {
        println!(
            "{:<18} {:>14} {:>8} {:>12.1}",
            r.backend, r.query, r.ops, r.ns_per_op
        );
    }

    let eh_bytes = SketchReader::memory_bytes(&eh);
    println!("warm ECM-EH memory_bytes: {eh_bytes}");

    // Read scaling: the server's wait-free published-epoch path, 1/2/4
    // reader threads, writes flowing.
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(7);
    let engine = Arc::new(Engine::start(&ServerConfig::new(spec).shards(2)).expect("engine start"));
    let keys: Vec<String> = (0..64).map(|t| format!("tenant-{t}")).collect();
    let mut rng = SeededRng::seed_from_u64(21);
    let mut ts = 0u64;
    let mut warm = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        ts += rng.next_u64() % 3;
        warm.push((
            keys[(rng.next_u64() % 64) as usize].clone(),
            StreamEvent::new(rng.next_u64() % 256, ts),
            1u64,
        ));
    }
    for chunk in warm.chunks(512) {
        engine.ingest(chunk).expect("warm ingest");
    }
    let served_now = ts;
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = Arc::clone(&engine);
        let keys = keys.clone();
        let stop = Arc::clone(&stop_writer);
        std::thread::spawn(move || {
            let mut rng = SeededRng::seed_from_u64(22);
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<_> = (0..16)
                    .map(|_| {
                        ts += 1;
                        (
                            keys[(rng.next_u64() % 64) as usize].clone(),
                            StreamEvent::new(rng.next_u64() % 256, ts),
                            1u64,
                        )
                    })
                    .collect();
                let _ = engine.ingest(&batch);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let scaling: Vec<ScaleRow> = [1usize, 2, 4]
        .into_iter()
        .map(|readers| read_scaling_cell(&engine, &keys, served_now, readers))
        .collect();
    stop_writer.store(true, Ordering::Relaxed);
    writer.join().expect("background writer");
    engine.shutdown().expect("engine shutdown");

    println!("\n{:>8} {:>16}", "readers", "queries_per_sec");
    for s in &scaling {
        println!("{:>8} {:>16.1}", s.readers, s.queries_per_sec);
    }

    let publish: Vec<PublishRow> = [1_000, 10_000].into_iter().map(publish_cell).collect();
    println!(
        "\n{:>14} {:>10} {:>12} {:>14}",
        "resident_keys", "publishes", "publish_us", "ns_per_key"
    );
    for p in &publish {
        println!(
            "{:>14} {:>10} {:>12.1} {:>14.1}",
            p.resident_keys,
            p.publishes,
            p.publish_us,
            p.publish_us * 1e3 / p.resident_keys as f64
        );
    }

    let top_k = top_k_cell(10_000);
    println!(
        "\ntop_k({}) over {} keys: pruned {:.1} us, scan {:.1} us ({:.1}x)",
        top_k.k,
        top_k.resident_keys,
        top_k.pruned_us,
        top_k.scan_us,
        top_k.scan_us / top_k.pruned_us
    );

    let out = json(&rows, &scaling, &publish, &top_k, events.len(), eh_bytes);
    let path = std::env::var("BENCH_QUERY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json").to_string()
    });
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {path}");
}
