//! The ingest path's allocation budget, as tests: what a batch allocates
//! must depend on its *lines* (and the keys it creates), never on the
//! occurrences the lines stand for, and recovery must hold one log record
//! at a time, not the log.
//!
//! The binary installs the bench harness's counting allocator
//! (`ecm_bench::alloc`), whose counters are per thread.

use ecm_bench::alloc::{allocations, peak_above_result, Counting};
use ecm_suite::ecm::wal::{
    encode_checkpoint, encode_ingest, encode_runs, encode_segment_header, replay, WalSegment,
    WalSegmentHeader,
};
use ecm_suite::ecm::{SketchSpec, SketchStore, StreamEvent};
use sketch_server::engine::Engine;
use sketch_server::protocol::parse_data_line;
use sketch_server::ServerConfig;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn key(i: usize) -> String {
    format!("t{i:04}")
}

/// Logical batch `j`: 1 024 lines over 64 tenants and 100 ticks, tenants
/// and items interleaved, every line carrying `weight(line)` occurrences.
fn batch(j: u64, weight: impl Fn(usize) -> u64) -> Vec<(String, StreamEvent, u64)> {
    (0..1024usize)
        .map(|i| {
            let tenant = (i * 7 + i / 64) % 64;
            let item = ((i * i + j as usize) % 97) as u64;
            let ts = 1_000 + 100 * j + (100 * i / 1024) as u64;
            (key(tenant), StreamEvent::new(item, ts), weight(i))
        })
        .collect()
}

fn spec() -> SketchSpec {
    SketchSpec::time(1_000).epsilon(0.2).delta(0.2).seed(5)
}

/// The two containers `ingest_runs` builds per batch (they borrow the
/// batch's keys, so the store cannot keep them) and nothing else.
const PER_BATCH: u64 = 2;

#[test]
fn a_warm_store_allocates_per_batch_not_per_line_or_occurrence() {
    let measured = |weight: u64| {
        let mut store: SketchStore<String> = SketchStore::new(spec()).unwrap();
        // Three windows of traffic: every tenant resident, every sketch
        // grown to the size this rate needs, the scratch at capacity.
        for j in 0..30 {
            store.ingest_runs(&batch(j, |_| weight));
        }
        let next = batch(30, |_| weight);
        allocations(|| store.ingest_runs(&next)).0
    };
    let (ones, heavy) = (measured(1), measured(32));
    assert_eq!(ones, heavy, "allocations moved with the weights");
    assert!(
        ones <= PER_BATCH,
        "{ones} allocations for a batch that creates no key"
    );
}

#[test]
fn grouping_a_batch_that_creates_keys_adds_only_the_per_batch_containers() {
    // Two stores built alike (not one cloned: a clone shares its sketches
    // and pays for a copy on first write).
    let warm = || {
        let mut store: SketchStore<String> = SketchStore::new(spec()).unwrap();
        store.ingest_runs(&batch(0, |_| 3));
        store
    };
    let (mut store, mut twin) = (warm(), warm());
    // The same 64 tenants again, and 16 new ones first seen mid-batch.
    let mut next = batch(1, |_| 3);
    for (i, line) in next.iter_mut().enumerate().filter(|(i, _)| i % 64 == 9) {
        line.0 = key(64 + i / 64);
    }
    // The twin is fed by hand what grouping must amount to: tenants in
    // first-appearance order, each created on first touch (one key clone)
    // and handed its own runs. A new sketch allocates as it fills, which
    // is why the budget is this feed and not a constant.
    let mut by_tenant: Vec<(&String, Vec<(StreamEvent, u64)>)> = Vec::new();
    for (key, event, n) in &next {
        match by_tenant.iter_mut().find(|(k, _)| *k == key) {
            Some((_, runs)) => runs.push((*event, *n)),
            None => by_tenant.push((key, vec![(*event, *n)])),
        }
    }
    let (by_hand, ()) = allocations(|| {
        for (key, runs) in &by_tenant {
            let sketch = twin.sketch_mut(key);
            for (event, n) in runs {
                sketch.insert_weighted(event.ts, event.item, *n);
            }
        }
    });
    let (grouped, _) = allocations(|| store.ingest_runs(&next));
    assert_eq!(store.key_count(), 80);
    assert!(by_hand >= 16, "creation allocates: {by_hand}");
    // The containers are sized for the resident tenants; 16 more make
    // each of them grow once.
    assert_eq!(grouped, by_hand + 2 * PER_BATCH);
    assert!(store.write_snapshot().unwrap() == twin.write_snapshot().unwrap());
}

#[test]
fn a_data_line_allocates_its_key_and_nothing_else() {
    for line in [
        "t0042 100017 31337 8",
        "t0042 100017 31337",
        "  t0042\t100017  31337   8 \r",
    ] {
        let (count, parsed) = allocations(|| parse_data_line(line.as_bytes()));
        let (key, event, n) = parsed.expect("well-formed");
        assert_eq!(
            (key.as_str(), event.item, event.ts),
            ("t0042", 31337, 100017)
        );
        assert!(n == 8 || n == 1);
        assert_eq!(count, 1, "{line:?}");
    }
}

#[test]
fn the_router_allocates_per_line_whatever_the_lines_weigh() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    engine.ingest(&batch(0, |_| 1)).expect("warm-up");
    for weight in [1u64, 32] {
        let next = batch(weight, |_| weight);
        let (count, acked) = allocations(|| engine.ingest(&next));
        assert_eq!(acked.expect("ingest").ingested, 1024 * weight);
        // One key clone a line; then two partitions growing by doubling,
        // two reply channels and two mailbox sends.
        assert!(
            (1024..1024 + 64).contains(&count),
            "weight {weight}: {count} allocations for 1 024 lines"
        );
    }
    engine.shutdown().expect("shutdown");
}

#[test]
fn replay_holds_one_record_at_a_time() {
    // 140 batches of 1 024 lines, mean weight 8: 9 MiB as events records.
    let weight = |i: usize| 1 + (i as u64 * 11) % 15;
    let batches: Vec<_> = (0..140).map(|j| batch(j, weight)).collect();
    let header = encode_segment_header(&WalSegmentHeader {
        shard: 0,
        segment: 1,
        base_record_seq: 0,
        base_checkpoint_seq: 0,
    });
    let mut events_log = header.clone();
    encode_checkpoint(1, 0, &mut events_log);
    let mut runs_log = events_log.clone();
    let mut body = Vec::new();
    let mut heaviest = 0usize;
    for (seq, runs) in (2..).zip(&batches) {
        let events: Vec<(String, StreamEvent)> = runs
            .iter()
            .flat_map(|(key, e, n)| (0..*n).map(move |_| (key.clone(), *e)))
            .collect();
        heaviest = heaviest.max(events.len());
        encode_ingest(seq, &events, &mut events_log);
        encode_runs(seq, runs, &mut body, &mut runs_log);
    }
    assert!(events_log.len() >= 8 << 20, "{} bytes", events_log.len());
    drop(batches);

    // A record in memory is one `(key, event, weight)` per entry, each key
    // a string of its own.
    let entry = std::mem::size_of::<(String, StreamEvent, u64)>() + key(0).len();
    for (kind, log, record) in [
        ("events", &events_log, heaviest * entry),
        ("runs", &runs_log, 1024 * entry),
    ] {
        let mut store: SketchStore<String> = SketchStore::new(spec()).unwrap();
        let segment = [WalSegment {
            index: 1,
            bytes: log,
        }];
        let (above_the_store, report) = peak_above_result(|| replay(&mut store, 0, &segment));
        assert_eq!(report.expect("replay").applied_records, 140, "{kind}");
        assert!(
            above_the_store < 2 * record,
            "{kind}: replay peaked {above_the_store} B above the finished store; \
             one decoded record is {record} B, the log {} B",
            log.len()
        );
        assert!(above_the_store < log.len() / 4, "{kind}: {above_the_store}");
    }
}
