//! **The kernel rows `sketchbench` cannot price from outside the process.**
//!
//! The served system is priced by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`; see `docs/BENCHMARKS.md`). What is left here are four
//! comparisons that need two implementations, or a failure-free disk, side
//! by side in one process:
//!
//! * `ingest` — the per-event `insert` loop against `ingest_batch` on a
//!   bursty Zipf trace, for the four counter backends (the two builds are
//!   checked **bit-identical** on the trace being timed), and `memory`, the
//!   warm ECM-EH slab against the per-cell layout it replaced;
//! * `snapshot` — full checkpoint and restore rates of a
//!   `SketchStore` fleet at 10 k and 100 k tenant keys, the restored store
//!   spot-checked for bit-identical answers;
//! * `wal` — one keyed trace through the in-process engine with the
//!   write-ahead log off, on, and on with fsync (the clock stops after a
//!   `stats()` round-trip, so the three compare *applied* work);
//! * `top_k` — `SketchStore::top_k` over 10 000 keys of Zipf(0.7) volumes
//!   against the scan it replaced.
//!
//! Results print as tables and land, with the machine they were measured
//! on, in `BENCH_kernels.json` at the workspace root (`BENCH_KERNELS_OUT`
//! overrides the path); `crates/bench/tests/bench_schema.rs` holds the
//! schema and the floors. Scale with `ECM_EVENTS` (default 200 000).

use count_min::HashFamily;
use ecm::{
    Backend, EcmConfig, EcmSketch, Query, SketchSpec, SketchStore, SketchWriter, SpecBackend,
    StreamEvent, WindowSpec,
};
use ecm_bench::json::{env_block, num, object, rows, text};
use ecm_bench::{event_budget, WINDOW};
use sketch_server::{Engine, ServerConfig};
use sliding_window::traits::WindowCounter;
use sliding_window::{DeterministicWave, ExactWindow, ExponentialHistogram, RandomizedWave};
use std::time::Instant;
use stream_gen::{SeededRng, ZipfSampler};

// ---------------------------------------------------------------- traces

const INGEST_SKEW: f64 = 1.2;
const INGEST_KEY_DOMAIN: u64 = 10_000;

/// The ingest trace: ticks advance by small random gaps and each tick
/// carries a run of one Zipf-drawn item whose length is heavy-tailed (~30 %
/// singletons, occasionally 1000+ — the flash-crowd shape of
/// the paper's network-monitoring workloads).
fn bursty_zipf_trace(target_events: usize, seed: u64) -> Vec<StreamEvent> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(INGEST_KEY_DOMAIN, INGEST_SKEW);
    let mut out = Vec::with_capacity(target_events + 512);
    let mut ts = 1u64;
    while out.len() < target_events {
        ts += rng.gen_range(0..4u64);
        let item = zipf.sample(&mut rng);
        let weight = if rng.gen_bool(0.3) {
            1
        } else {
            let u = rng.gen_f64();
            (1.0 / (1.0 - u * 0.99)).powf(2.0).min(1024.0) as u64
        };
        for _ in 0..weight.max(1) {
            out.push(StreamEvent::new(item, ts));
        }
    }
    out
}

const FLEET_SKEW: f64 = 1.05;
const FLEET_EPS: f64 = 0.3;
const FLEET_DELTA: f64 = 0.25;

/// The fleet trace of the `snapshot` and `wal` rows: Zipf-drawn tenants,
/// slowly advancing ticks, 30 % of arrivals in short same-tick runs.
fn keyed_trace(target_events: usize, keys: u64, seed: u64) -> Vec<(u64, StreamEvent)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let tenants = ZipfSampler::new(keys, FLEET_SKEW);
    let mut out = Vec::with_capacity(target_events + 8);
    let mut ts = 1u64;
    while out.len() < target_events {
        ts += rng.gen_range(0..2u64);
        let tenant = tenants.sample(&mut rng);
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

fn fleet_spec(seed: u64) -> SketchSpec {
    SketchSpec::time(WINDOW)
        .epsilon(FLEET_EPS)
        .delta(FLEET_DELTA)
        .seed(seed)
}

// ----------------------------------------------------------------- ingest

/// Seconds of the fastest of `passes` runs of `work`, and what the last run
/// returned: scheduler noise inflates a pass far more than it deflates one,
/// and the first pass warms the allocator.
fn best_of<T>(passes: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..passes {
        let start = Instant::now();
        out = Some(work());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("at least one pass"))
}

/// The typed config `spec` describes.
fn typed<W: SpecBackend>(spec: SketchSpec) -> EcmConfig<W> {
    spec.ecm_config().expect("valid spec")
}

/// Time both ingest paths for one backend and verify the two builds agree
/// byte for byte.
fn ingest_row<W: WindowCounter>(
    backend: &'static str,
    cfg: &EcmConfig<W>,
    events: &[StreamEvent],
) -> String {
    // Warmup pass keeps allocator effects out of the measured runs.
    let mut warm = EcmSketch::new(cfg);
    warm.ingest_batch(&events[..events.len().min(10_000)]);

    let (per_event_secs, per_event) = best_of(3, || {
        let mut sk = EcmSketch::new(cfg);
        for e in events {
            sk.insert(e.ts, e.item);
        }
        sk
    });
    let (batched_secs, batched) = best_of(3, || {
        let mut sk = EcmSketch::new(cfg);
        sk.ingest_batch(events);
        sk
    });
    let (mut a, mut b) = (Vec::new(), Vec::new());
    per_event.encode(&mut a);
    batched.encode(&mut b);
    assert_eq!(a, b, "{backend}: batched build diverged from per-event");

    let n = events.len() as f64;
    let (per_event_meps, batched_meps) = (n / per_event_secs / 1e6, n / batched_secs / 1e6);
    println!(
        "{backend:<10} {per_event_meps:>16.3} {batched_meps:>14.3} {:>8.2}x",
        per_event_secs / batched_secs
    );
    object(&[
        ("backend", text(backend)),
        ("per_event_meps", num(per_event_meps, 3)),
        ("batched_meps", num(batched_meps, 3)),
        ("speedup", num(per_event_secs / batched_secs, 2)),
    ])
}

/// Memory of a warm ECM-EH sketch under the slab grid against the per-cell
/// layout it replaced: the slab number comes from the sketch itself, the
/// per-cell number from a replica grid of standalone `ExponentialHistogram`
/// values fed through the same hash routing on the same trace.
fn memory_row(cfg: &EcmConfig<ExponentialHistogram>, events: &[StreamEvent]) -> String {
    let mut sketch = EcmSketch::new(cfg);
    sketch.ingest_batch(events);
    let hashes = HashFamily::from_seed(cfg.seed, cfg.depth);
    let mut cells: Vec<ExponentialHistogram> = (0..cfg.width * cfg.depth)
        .map(|_| ExponentialHistogram::new(&cfg.cell))
        .collect();
    for (e, n) in ecm::grouped_runs(events) {
        for j in 0..cfg.depth {
            let idx = j * cfg.width + hashes.bucket(j, e.item, cfg.width);
            cells[idx].insert_ones(e.ts, n);
        }
    }
    let slab = sketch.memory_bytes();
    let per_cell = std::mem::size_of::<EcmSketch<ExponentialHistogram>>()
        + cells.iter().map(WindowCounter::memory_bytes).sum::<usize>();
    println!(
        "ecm-eh warm memory: slab {slab} B vs per-cell {per_cell} B ({:.1}% saved)",
        100.0 * (1.0 - slab as f64 / per_cell as f64)
    );
    object(&[
        ("backend", text("ecm-eh")),
        ("slab_bytes", slab.to_string()),
        ("per_cell_bytes", per_cell.to_string()),
        ("ratio", num(slab as f64 / per_cell as f64, 3)),
    ])
}

// --------------------------------------------------------------- snapshot

const SNAPSHOT_BATCH: usize = 4_096;

fn snapshot_row(keys: u64, events: usize) -> String {
    let spec = fleet_spec(23);
    let trace = keyed_trace(events, keys, 42 + keys);
    let now = trace.last().expect("non-empty trace").1.ts;
    let mut store: SketchStore<u64> = SketchStore::new(spec.clone()).expect("valid spec");
    for chunk in trace.chunks(SNAPSHOT_BATCH) {
        store.ingest(chunk);
    }
    let resident = store.len();

    let (full_secs, snapshot) = best_of(2, || store.write_snapshot().expect("fleet snapshots"));

    // Restore, then prove the round trip with bit-identical spot queries.
    let (restore_secs, restored) = best_of(2, || {
        SketchStore::<u64>::load_snapshot(&snapshot).expect("snapshot restores")
    });
    let w = WindowSpec::time(now, WINDOW);
    for probe in (1..=keys).step_by((keys / 37).max(1) as usize) {
        let (Some(a), Some(b)) = (store.get(&probe), restored.get(&probe)) else {
            continue;
        };
        for item in [0u64, 7, 63] {
            let ea = a.query(&Query::point(item), w).expect("in-window");
            let eb = b.query(&Query::point(item), w).expect("in-window");
            assert_eq!(
                ea.into_value().value.to_bits(),
                eb.into_value().value.to_bits(),
                "{keys} keys: tenant {probe} item {item} diverged after restore"
            );
        }
    }

    println!(
        "{keys:>8} {resident:>9} {:>11.2} {:>9.2} {:>12.0} {:>11.2} {:>12.0}",
        snapshot.len() as f64 / 1e6,
        full_secs * 1e3,
        resident as f64 / full_secs,
        restore_secs * 1e3,
        resident as f64 / restore_secs
    );
    object(&[
        ("keys", keys.to_string()),
        ("resident", resident.to_string()),
        ("snapshot_bytes", snapshot.len().to_string()),
        ("full_ms", num(full_secs * 1e3, 3)),
        ("full_keys_per_s", num(resident as f64 / full_secs, 0)),
        ("restore_ms", num(restore_secs * 1e3, 3)),
        ("restore_keys_per_s", num(resident as f64 / restore_secs, 0)),
    ])
}

// -------------------------------------------------------------------- wal

const WAL_SITES: u64 = 1_000;
const WAL_BATCH: usize = 1_024;
const WAL_SHARDS: usize = 4;

/// Push the whole trace through one engine and return applied Meps: the
/// clock stops at the last ingest ack, and a shard acks only once its
/// partition is applied and published, so every event is in by then.
fn engine_meps(cfg: &ServerConfig, trace: &[(String, StreamEvent, u64)]) -> f64 {
    let engine = Engine::start(cfg).expect("engine starts");
    let start = Instant::now();
    for chunk in trace.chunks(WAL_BATCH) {
        engine.ingest(chunk).expect("ingest acked");
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = engine.stats().expect("stats");
    let applied: u64 = stats.iter().map(|s| s.stats.ingested).sum();
    assert_eq!(applied, trace.len() as u64, "events lost in flight");
    engine.shutdown().expect("shutdown");
    trace.len() as f64 / secs / 1e6
}

fn wal_section(events: usize) -> String {
    let trace: Vec<(String, StreamEvent, u64)> = keyed_trace(events, WAL_SITES, 42)
        .into_iter()
        .map(|(site, e)| (format!("site-{site}"), e, 1))
        .collect();
    let base = || ServerConfig::new(fleet_spec(31)).shards(WAL_SHARDS);
    let durable = |tag: &str, fsync: bool| {
        let dir = std::env::temp_dir().join(format!("ecm-kernels-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = base()
            .snapshot_dir(dir.clone())
            .durability(true)
            .wal_fsync(fsync);
        let meps = engine_meps(&cfg, &trace);
        let _ = std::fs::remove_dir_all(&dir);
        meps
    };
    let off = engine_meps(&base(), &trace);
    let on = durable("on", false);
    let fsync = durable("fsync", true);
    println!(
        "{:>22} {off:>10.3} Meps\n{:>22} {on:>10.3} Meps ({:.2}x of off)\n{:>22} {fsync:>10.3} Meps",
        "durability off",
        "durability on",
        on / off,
        "durability on+fsync"
    );
    object(&[
        ("off_meps", num(off, 4)),
        ("on_meps", num(on, 4)),
        ("on_over_off", num(on / off, 4)),
        ("fsync_meps", num(fsync, 4)),
    ])
}

// ------------------------------------------------------------------ top_k

/// Best-of-three timing of `ops` repetitions of `f`, in ns per op.
fn time_ns(ops: usize, mut f: impl FnMut() -> f64) -> f64 {
    let (secs, sink) = best_of(3, || (0..ops).map(|_| f()).sum::<f64>());
    std::hint::black_box(sink);
    secs * 1e9 / ops as f64
}

/// `SketchStore::top_k` against the scan it replaced, over a fleet of
/// `resident_keys` EH tenants whose window volumes follow Zipf(0.7).
fn top_k_section(resident_keys: usize) -> String {
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
    let pruned_us = time_ns(50, || store.top_k(K, &q, w)[0].1) / 1e3;
    let scan_us = time_ns(5, || scan(&store)[0].1) / 1e3;
    println!(
        "top_k({K}) over {resident_keys} keys: pruned {pruned_us:.1} us, scan {scan_us:.1} us \
         ({:.1}x)",
        scan_us / pruned_us
    );
    object(&[
        ("resident_keys", resident_keys.to_string()),
        ("k", K.to_string()),
        ("pruned_us", num(pruned_us, 1)),
        ("scan_us", num(scan_us, 1)),
    ])
}

fn main() {
    let n_events = event_budget();

    let events = bursty_zipf_trace(n_events, 42);
    let runs = ecm::grouped_runs(&events).count();
    println!(
        "bursty Zipf ingest: {} events in {runs} runs (mean weight {:.1})",
        events.len(),
        events.len() as f64 / runs as f64
    );
    println!(
        "{:<10} {:>16} {:>14} {:>9}",
        "backend", "per_event_Mev/s", "batched_Mev/s", "speedup"
    );
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(7);
    let waves = spec.clone().max_arrivals(events.len() as u64);
    let eh = spec.ecm_config().expect("valid spec");
    let ingest = [
        ingest_row("ecm-eh", &eh, &events),
        ingest_row(
            "ecm-dw",
            &typed::<DeterministicWave>(waves.clone().backend(Backend::Dw)),
            &events,
        ),
        ingest_row(
            "ecm-exact",
            &typed::<ExactWindow>(spec.backend(Backend::Exact)),
            &events,
        ),
        ingest_row(
            "ecm-rw",
            &typed::<RandomizedWave>(waves.backend(Backend::Rw).epsilon(0.25).delta(0.2)),
            &events,
        ),
    ];
    let memory = memory_row(&eh, &events);

    println!("\nfleet checkpoint/restore: {n_events} events per fleet size");
    println!(
        "{:>8} {:>9} {:>11} {:>9} {:>12} {:>11} {:>12}",
        "keys", "resident", "snap_MB", "full_ms", "full_keys/s", "restore_ms", "rest_keys/s"
    );
    let snapshot = [10_000u64, 100_000].map(|keys| snapshot_row(keys, n_events));

    println!("\nwal durability tax: {n_events} events, {WAL_SHARDS} shards");
    let wal = wal_section(n_events);

    println!();
    let top_k = top_k_section(10_000);

    let workload = object(&[
        ("events", n_events.to_string()),
        ("window", WINDOW.to_string()),
        (
            "ingest_trace",
            object(&[
                ("trace_events", events.len().to_string()),
                ("runs", runs.to_string()),
                ("mean_run_weight", num(events.len() as f64 / runs as f64, 2)),
                ("zipf_skew", INGEST_SKEW.to_string()),
                ("key_domain", INGEST_KEY_DOMAIN.to_string()),
            ]),
        ),
        (
            "fleet_trace",
            object(&[
                ("zipf_skew", FLEET_SKEW.to_string()),
                ("epsilon", FLEET_EPS.to_string()),
                ("delta", FLEET_DELTA.to_string()),
                ("snapshot_batch", SNAPSHOT_BATCH.to_string()),
                ("wal_batch", WAL_BATCH.to_string()),
                ("wal_shards", WAL_SHARDS.to_string()),
                ("wal_sites", WAL_SITES.to_string()),
            ]),
        ),
    ]);
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"kernels\",\n  \"env\": {},\n  \
         \"workload\": {workload},\n  \"ingest\": {},\n  \"memory\": {memory},\n  \
         \"snapshot\": {},\n  \"wal\": {wal},\n  \"top_k\": {top_k}\n}}\n",
        env_block(),
        rows(&ingest),
        rows(&snapshot),
    );
    let out = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");
}
