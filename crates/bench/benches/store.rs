//! **Keyed ingest throughput: spec-built `SketchStore` vs a hand-rolled
//! `HashMap` of concrete sketches.**
//!
//! The multi-tenant story of the typed write API costs one extra layer —
//! `SketchSpec`-built `Box<dyn Sketch>` handles behind a keyed store with
//! grouped batch dispatch — and this bench prices that layer against the
//! baseline everyone writes by hand: `HashMap<u64, EcmEh>` with per-event
//! inserts. Both sides build the *same* sketches (same spec-derived config,
//! same seed), verified by bit-identical spot queries on every run.
//!
//! Two fleet sizes (10k and 100k tenant keys) over one Zipf-keyed trace.
//! A third row prices keeping runs intact: a weighted trace (mean weight
//! 8, what one `sketchd` line carries) through `ingest_runs` as it
//! arrives, against the older shape of the same path — every run written
//! out per occurrence, then `ingest` regrouping the copies.
//! Results are printed and written as JSON to `BENCH_store.json` at the
//! workspace root (`BENCH_STORE_OUT` overrides the path); the schema is
//! validated by `crates/bench/tests/bench_schema.rs`. Scale with
//! `ECM_EVENTS` (default 200 000).

use ecm::{
    EcmConfig, EcmSketch, Query, SketchReader, SketchSpec, SketchStore, StreamEvent, WindowSpec,
};
use ecm_bench::event_budget;
use sliding_window::ExponentialHistogram;
use std::collections::HashMap;
use std::time::Instant;
use stream_gen::{SeededRng, ZipfSampler};

const WINDOW: u64 = 1_000_000;
const ZIPF_SKEW: f64 = 1.05;
const BATCH: usize = 4_096;
/// Coarse cells keep the 100k-key fleet's footprint in check; the store
/// layer being priced is independent of cell width.
const EPS: f64 = 0.3;
const DELTA: f64 = 0.25;
const SEED: u64 = 17;

/// A keyed trace: tenant popularity is Zipf-skewed, ticks advance slowly,
/// and consecutive same-tenant requests exist (the shape grouped dispatch
/// exploits).
fn keyed_trace(target_events: usize, keys: u64, seed: u64) -> Vec<(u64, StreamEvent)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let tenants = ZipfSampler::new(keys, ZIPF_SKEW);
    let mut out = Vec::with_capacity(target_events + 8);
    let mut ts = 1u64;
    while out.len() < target_events {
        ts += rng.gen_range(0..2u64);
        let tenant = tenants.sample(&mut rng);
        // Small same-tenant runs (a client sending a few requests back to
        // back) — mean ≈ 2.
        let run = if rng.gen_bool(0.3) {
            rng.gen_range(2..6u64)
        } else {
            1
        };
        for _ in 0..run {
            let item = rng.gen_range(0..64u64);
            out.push((tenant, StreamEvent::new(item, ts)));
        }
    }
    out.truncate(target_events);
    out
}

struct Row {
    keys: u64,
    store_meps: f64,
    hashmap_meps: f64,
    relative: f64,
}

fn measure(keys: u64, events: &[(u64, StreamEvent)], spec: &SketchSpec) -> Row {
    let cfg: EcmConfig<ExponentialHistogram> = spec.ecm_config().expect("spec validated by caller");
    let now = events.last().expect("non-empty trace").1.ts;
    let n = events.len() as f64;

    // Spec-built store, batched keyed ingest (best of two passes).
    let mut store_secs = f64::INFINITY;
    let mut store = SketchStore::new(spec.clone()).expect("valid spec");
    for _ in 0..2 {
        let start = Instant::now();
        let mut s: SketchStore<u64> = SketchStore::new(spec.clone()).expect("valid spec");
        for chunk in events.chunks(BATCH) {
            s.ingest(chunk);
        }
        store_secs = store_secs.min(start.elapsed().as_secs_f64());
        store = s;
    }

    // Hand-rolled baseline: concrete sketches, per-event inserts.
    let mut map_secs = f64::INFINITY;
    let mut map: HashMap<u64, EcmSketch<ExponentialHistogram>> = HashMap::new();
    for _ in 0..2 {
        let start = Instant::now();
        let mut m: HashMap<u64, EcmSketch<ExponentialHistogram>> = HashMap::new();
        for &(tenant, e) in events {
            m.entry(tenant)
                .or_insert_with(|| EcmSketch::new(&cfg))
                .insert(e.item, e.ts);
        }
        map_secs = map_secs.min(start.elapsed().as_secs_f64());
        map = m;
    }

    // The two fleets must be the same sketches: bit-identical spot queries.
    assert_eq!(store.len(), map.len(), "{keys} keys: fleet sizes diverged");
    let w = WindowSpec::time(now, WINDOW);
    for probe in (1..=keys).step_by((keys / 37).max(1) as usize) {
        let (Some(a), Some(b)) = (store.get(&probe), map.get(&probe)) else {
            continue;
        };
        for item in [0u64, 7, 63] {
            let ea = a.query(&Query::point(item), w).expect("in-window");
            let eb = b.query(&Query::point(item), w).expect("in-window");
            let (va, vb) = (
                ea.into_value().value.to_bits(),
                eb.into_value().value.to_bits(),
            );
            assert_eq!(va, vb, "{keys} keys: tenant {probe} item {item} diverged");
        }
    }

    let store_meps = n / store_secs / 1e6;
    let hashmap_meps = n / map_secs / 1e6;
    Row {
        keys,
        store_meps,
        hashmap_meps,
        relative: store_meps / hashmap_meps,
    }
}

/// Tenants of the weighted row: a fleet the size one `sketchd` shard holds,
/// under string keys as it holds them.
const RUN_TENANTS: u64 = 256;

struct RunsRow {
    mean_weight: f64,
    runs_meps: f64,
    unbatched_meps: f64,
    speedup: f64,
}

/// The weighted row: `occurrences` arrivals as runs of weight 1..=15, fed
/// as runs and fed written out (the writing-out is timed: it is what a
/// layer that cannot carry a weight has to do). Best of two passes each;
/// both stores must end byte-identical.
fn measure_runs(occurrences: usize, spec: &SketchSpec) -> RunsRow {
    let mut rng = SeededRng::seed_from_u64(99);
    let tenants = ZipfSampler::new(RUN_TENANTS, ZIPF_SKEW);
    let mut runs: Vec<(String, StreamEvent, u64)> = Vec::new();
    let (mut ts, mut total) = (1u64, 0usize);
    while total < occurrences {
        ts += rng.gen_range(0..2u64);
        let weight = rng.gen_range(1..16u64);
        let event = StreamEvent::new(rng.gen_range(0..50_000u64), ts);
        runs.push((format!("t{:04}", tenants.sample(&mut rng)), event, weight));
        total += weight as usize;
    }
    let mut secs = [f64::INFINITY; 2];
    let mut stores = Vec::new();
    for _ in 0..2 {
        let start = Instant::now();
        let mut kept: SketchStore<String> = SketchStore::new(spec.clone()).expect("valid spec");
        for chunk in runs.chunks(BATCH / 8) {
            kept.ingest_runs(chunk);
        }
        secs[0] = secs[0].min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut regrouped: SketchStore<String> =
            SketchStore::new(spec.clone()).expect("valid spec");
        for chunk in runs.chunks(BATCH / 8) {
            let unbatched: Vec<(String, StreamEvent)> = chunk
                .iter()
                .flat_map(|(key, e, n)| (0..*n).map(move |_| (key.clone(), *e)))
                .collect();
            regrouped.ingest(&unbatched);
        }
        secs[1] = secs[1].min(start.elapsed().as_secs_f64());
        stores = vec![kept, regrouped];
    }
    let bytes: Vec<Vec<u8>> = stores
        .iter_mut()
        .map(|s| s.write_snapshot().expect("encode"))
        .collect();
    assert!(
        bytes[0] == bytes[1],
        "runs and their copies built different stores"
    );
    let [runs_meps, unbatched_meps] = secs.map(|s| total as f64 / s / 1e6);
    RunsRow {
        mean_weight: total as f64 / runs.len() as f64,
        runs_meps,
        unbatched_meps,
        speedup: runs_meps / unbatched_meps,
    }
}

fn render_json(rows: &[Row], runs: &RunsRow, events: usize) -> String {
    let mut results = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            results.push_str(",\n");
        }
        results.push_str(&format!(
            "    {{\"keys\": {}, \"store_meps\": {:.3}, \"hashmap_meps\": {:.3}, \"relative\": {:.3}}}",
            r.keys, r.store_meps, r.hashmap_meps, r.relative
        ));
    }
    format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"store\",\n  \"workload\": {{\n    \
         \"events\": {events},\n    \"batch\": {BATCH},\n    \"zipf_skew\": {ZIPF_SKEW},\n    \
         \"epsilon\": {EPS},\n    \"delta\": {DELTA},\n    \"window\": {WINDOW}\n  }},\n  \
         \"results\": [\n{results}\n  ],\n  \"weighted\": {{\"tenants\": {RUN_TENANTS}, \
         \"mean_weight\": {:.2}, \"runs_meps\": {:.3}, \"unbatched_meps\": {:.3}, \
         \"runs_over_unbatched\": {:.3}}}\n}}\n",
        runs.mean_weight, runs.runs_meps, runs.unbatched_meps, runs.speedup
    )
}

fn main() {
    let n_events = event_budget();
    let spec = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(DELTA)
        .seed(SEED);
    println!(
        "keyed ingest: {n_events} events per fleet size, batch {BATCH}, \
         Zipf({ZIPF_SKEW}) tenants"
    );
    println!(
        "{:>8} {:>12} {:>14} {:>9}",
        "keys", "store_Mev/s", "hashmap_Mev/s", "relative"
    );

    let mut rows = Vec::new();
    for keys in [10_000u64, 100_000] {
        let events = keyed_trace(n_events, keys, 42 + keys);
        let row = measure(keys, &events, &spec);
        println!(
            "{:>8} {:>12.3} {:>14.3} {:>8.2}x",
            row.keys, row.store_meps, row.hashmap_meps, row.relative
        );
        rows.push(row);
    }

    let runs = measure_runs(n_events, &spec);
    println!(
        "weighted (mean {:.1}): runs {:.3} Mev/s, written out {:.3} Mev/s, {:.2}x",
        runs.mean_weight, runs.runs_meps, runs.unbatched_meps, runs.speedup
    );

    let json = render_json(&rows, &runs, n_events);
    let out = std::env::var("BENCH_STORE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json").to_string()
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");
}
