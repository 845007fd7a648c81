//! Differential suite for the write-ahead log: for **every** backend a
//! `SketchSpec` can build, latest-snapshot + WAL replay must reproduce a
//! store that never crashed — bit-identical answers, byte-identical
//! re-encoded snapshots, and identical continued ingest. Torn tails and
//! corrupted bytes must come back as clean prefixes or typed
//! `SnapshotError`s, never panics — the log is fuzzed by truncating and
//! bit-flipping at every offset, in the same spirit as
//! `tests/snapshot_recovery.rs`.

use ecm_suite::ecm::wal::{
    encode_checkpoint, encode_ingest, encode_runs, encode_segment_header, replay, WalSegment,
    WalSegmentHeader,
};
use ecm_suite::ecm::{Query, SketchSpec, SketchStore, StreamEvent, WindowSpec};
use ecm_suite::stream_gen::SeededRng;

const WINDOW: u64 = 2_000;

/// Deterministic keyed batches with globally non-decreasing timestamps
/// (which implies the per-key monotonicity ingest requires) over an 8-bit
/// item universe (hierarchies reject anything wider).
fn batches(seed: u64, count: usize, base_ts: u64) -> Vec<Vec<(u64, StreamEvent)>> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut ts = base_ts;
    (0..count)
        .map(|_| {
            (0..48)
                .map(|_| {
                    ts += rng.gen_range(0..2u64);
                    let key = rng.gen_range(0..5u64);
                    let item = rng.gen_range(0..200u64);
                    (key, StreamEvent::new(item, ts))
                })
                .collect()
        })
        .collect()
}

fn fresh_header() -> Vec<u8> {
    encode_segment_header(&WalSegmentHeader {
        shard: 0,
        segment: 1,
        base_record_seq: 0,
        base_checkpoint_seq: 0,
    })
}

fn window_for(spec: &SketchSpec, now: u64) -> WindowSpec {
    match spec.clock() {
        ecm_suite::ecm::Clock::Time => WindowSpec::time(now, WINDOW),
        ecm_suite::ecm::Clock::Count => WindowSpec::last(WINDOW),
    }
}

/// Compare two fleets over point / self-join / total-arrival queries on
/// every key, bit for bit.
fn assert_fleets_bit_identical(
    label: &str,
    a: &SketchStore<u64>,
    b: &SketchStore<u64>,
    w: WindowSpec,
) {
    assert_eq!(a.keys(), b.keys(), "{label}: resident key sets diverged");
    let mut queries: Vec<Query<'_>> = (0..200).step_by(13).map(Query::point).collect();
    queries.push(Query::self_join());
    queries.push(Query::total_arrivals());
    for key in a.keys() {
        for q in &queries {
            let ra = a.query(&key, q, w).unwrap();
            let rb = b.query(&key, q, w).unwrap();
            match (ra, rb) {
                (Ok(va), Ok(vb)) => {
                    let (va, vb) = (va.into_value(), vb.into_value());
                    assert_eq!(
                        va.value.to_bits(),
                        vb.value.to_bits(),
                        "{label}: key {key} diverged on {q:?}"
                    );
                }
                (Err(_), Err(_)) => {} // both reject it the same way
                (ra, rb) => panic!("{label}: answers diverged structurally: {ra:?} vs {rb:?}"),
            }
        }
    }
}

#[test]
fn snapshot_plus_replay_is_bit_identical_for_every_backend() {
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let bs = batches(42, 30, 1);
        let mut live = SketchStore::<u64>::new(spec.clone()).unwrap();
        let mut log = fresh_header();
        encode_checkpoint(1, 0, &mut log);
        let mut seq = 1u64;
        let mut snap: Option<Vec<u8>> = None;
        for (i, b) in bs.iter().enumerate() {
            if i == 18 {
                // Mid-stream checkpoint, in the crash-safe order the server
                // uses: marker into the log first, then the snapshot lands.
                seq += 1;
                encode_checkpoint(seq, live.checkpoint_seq() + 1, &mut log);
                snap = Some(live.write_snapshot().unwrap());
            }
            seq += 1;
            encode_ingest(seq, b, &mut log);
            live.ingest(b);
        }
        let now = bs.last().unwrap().last().unwrap().1.ts;

        let mut restored = SketchStore::<u64>::load_snapshot(&snap.unwrap())
            .unwrap_or_else(|e| panic!("{label}: load: {e}"));
        let report = replay(
            &mut restored,
            0,
            &[WalSegment {
                index: 1,
                bytes: &log,
            }],
        )
        .unwrap_or_else(|e| panic!("{label}: replay: {e}"));
        assert_eq!(report.applied_records, 12, "{label}: records after marker");
        assert!(!report.torn_tail, "{label}");

        assert_fleets_bit_identical(label, &live, &restored, window_for(&spec, now));

        // The strongest form of "never crashed": both fleets re-encode to
        // the very same checkpoint bytes...
        assert_eq!(
            live.write_snapshot().unwrap(),
            restored.write_snapshot().unwrap(),
            "{label}: re-encoded snapshots diverged"
        );
        // ...and keep ingesting identically (clock and arrival-id sequence
        // survive the crash).
        for b in batches(7, 3, now) {
            live.ingest(&b);
            restored.ingest(&b);
        }
        assert_eq!(
            live.write_snapshot().unwrap(),
            restored.write_snapshot().unwrap(),
            "{label}: post-recovery ingest diverged"
        );
    }
}

#[test]
fn replay_spans_rotated_segments_bit_identically() {
    // The same records split across three rotated segments must replay to
    // the same fleet a single segment produces.
    let spec = SketchSpec::time(WINDOW).epsilon(0.25).seed(11);
    let bs = batches(5, 9, 1);
    let mut single = fresh_header();
    encode_checkpoint(1, 0, &mut single);
    let mut segments: Vec<Vec<u8>> = vec![fresh_header()];
    encode_checkpoint(1, 0, segments.last_mut().unwrap());
    let mut seq = 1u64;
    for (i, b) in bs.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            segments.push(encode_segment_header(&WalSegmentHeader {
                shard: 0,
                segment: segments.len() as u64 + 1,
                base_record_seq: seq,
                base_checkpoint_seq: 0,
            }));
        }
        seq += 1;
        encode_ingest(seq, b, &mut single);
        encode_ingest(seq, b, segments.last_mut().unwrap());
    }

    let mut a = SketchStore::<u64>::new(spec.clone()).unwrap();
    replay(
        &mut a,
        0,
        &[WalSegment {
            index: 1,
            bytes: &single,
        }],
    )
    .unwrap();
    let mut b = SketchStore::<u64>::new(spec).unwrap();
    let segs: Vec<WalSegment<'_>> = segments
        .iter()
        .enumerate()
        .map(|(i, bytes)| WalSegment {
            index: i as u64 + 1,
            bytes,
        })
        .collect();
    let report = replay(&mut b, 0, &segs).unwrap();
    assert_eq!(report.segments, 3);
    assert_eq!(report.applied_records, 9);
    assert_eq!(a.write_snapshot().unwrap(), b.write_snapshot().unwrap());
}

#[test]
fn truncation_at_every_offset_is_a_clean_prefix() {
    let spec = SketchSpec::time(WINDOW).epsilon(0.25).seed(7);
    let bs = batches(9, 4, 1);
    let mut log = fresh_header();
    encode_checkpoint(1, 0, &mut log);
    for (i, b) in bs.iter().enumerate() {
        encode_ingest(2 + i as u64, b, &mut log);
    }
    let total: u64 = bs.iter().map(|b| b.len() as u64).sum();

    let mut applied_so_far = 0u64;
    for cut in 0..=log.len() {
        let mut store = SketchStore::<u64>::new(spec.clone()).unwrap();
        let r = replay(
            &mut store,
            0,
            &[WalSegment {
                index: 1,
                bytes: &log[..cut],
            }],
        )
        .unwrap_or_else(|e| panic!("cut at {cut} must be survivable: {e}"));
        assert!(r.applied_events <= total, "cut {cut}");
        assert!(r.last_segment_valid_len <= cut, "cut {cut}");
        // Longer prefixes never recover fewer events.
        assert!(r.applied_events >= applied_so_far, "cut {cut}");
        applied_so_far = r.applied_events;

        // Truncating the file to the reported valid prefix (what the
        // server does before appending again) yields a clean log with the
        // same recovered events.
        let mut store2 = SketchStore::<u64>::new(spec.clone()).unwrap();
        let r2 = replay(
            &mut store2,
            0,
            &[WalSegment {
                index: 1,
                bytes: &log[..r.last_segment_valid_len],
            }],
        )
        .unwrap();
        assert_eq!(r2.applied_events, r.applied_events, "cut {cut}");
        // An empty valid prefix is a header-torn file — the owner replaces
        // it; any other prefix must scan clean.
        assert!(
            !r2.torn_tail || r.last_segment_valid_len == 0,
            "cut {cut}: truncation to the valid prefix must be clean"
        );
    }
    assert_eq!(applied_so_far, total, "the full log recovers everything");
}

#[test]
fn bit_flips_at_every_offset_fail_typed_or_drop_the_tail() {
    let spec = SketchSpec::time(WINDOW).epsilon(0.25).seed(7);
    let bs = batches(13, 3, 1);
    let mut log = fresh_header();
    encode_checkpoint(1, 0, &mut log);
    for (i, b) in bs.iter().enumerate() {
        encode_ingest(2 + i as u64, b, &mut log);
    }
    let total: u64 = bs.iter().map(|b| b.len() as u64).sum();

    for at in 0..log.len() {
        for bit in [0u32, 3, 7] {
            let mut bad = log.clone();
            bad[at] ^= 1 << bit;
            let mut store = SketchStore::<u64>::new(spec.clone()).unwrap();
            // A typed rejection is the expected outcome; when the flip
            // lands in a length field it can only shorten the decodable
            // log (checksums cover everything else), so whatever replays
            // is a clean prefix, never corrupted state.
            if let Ok(r) = replay(
                &mut store,
                0,
                &[WalSegment {
                    index: 1,
                    bytes: &bad,
                }],
            ) {
                assert!(r.applied_events <= total, "flip at {at} bit {bit}");
            }
        }
    }
}

/// Keyed batches of weighted runs (weights 1..=32, mean about 8), with the
/// same clock and universe as [`batches`].
fn run_batches(seed: u64, count: usize, base_ts: u64) -> Vec<Vec<(u64, StreamEvent, u64)>> {
    let mut rng = SeededRng::seed_from_u64(seed);
    batches(seed ^ 0xA5, count, base_ts)
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|(key, e)| {
                    let weight = 1 + rng.gen_range(0..4u64) * rng.gen_range(0..9u64);
                    (key, e, weight.min(32))
                })
                .collect()
        })
        .collect()
}

/// A batch of runs written out one entry per occurrence: what a server
/// from before runs records put on its log.
fn per_occurrence(runs: &[(u64, StreamEvent, u64)]) -> Vec<(u64, StreamEvent)> {
    runs.iter()
        .flat_map(|&(key, e, n)| (0..n).map(move |_| (key, e)))
        .collect()
}

/// A segment header as a version-1 writer produced it: same fields, the
/// older version byte, its own checksum (FNV-1a over everything before
/// it).
fn version_1_header(h: &WalSegmentHeader) -> Vec<u8> {
    let mut bytes = encode_segment_header(h);
    let covered = bytes.len() - 8;
    bytes[2] = 1;
    let sum = ecm::frame::fnv1a(&bytes[..covered]);
    bytes[covered..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn an_old_log_continued_with_runs_records_replays_to_the_unbatched_oracle() {
    // Segment 1 as the previous format wrote it — version 1, one entry
    // per occurrence — sealed by an upgrade; segment 2 in today's format,
    // runs records, with a mid-stream checkpoint. Replay must land where a
    // store fed every occurrence separately landed, for every backend.
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let bs = run_batches(17, 16, 1);
        let mut oracle = SketchStore::<u64>::new(spec.clone()).unwrap();
        let mut uncut = SketchStore::<u64>::new(spec.clone()).unwrap();
        let mut old = version_1_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut old);
        let mut seq = 1u64;
        for b in &bs[..8] {
            seq += 1;
            let events = per_occurrence(b);
            encode_ingest(seq, &events, &mut old);
            oracle.ingest(&events);
            uncut.ingest(&events);
        }
        let mut new = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 2,
            base_record_seq: seq,
            base_checkpoint_seq: 0,
        });
        let mut body = Vec::new();
        let mut snap: Option<Vec<u8>> = None;
        for (i, b) in bs[8..].iter().enumerate() {
            if i == 3 {
                seq += 1;
                encode_checkpoint(seq, oracle.checkpoint_seq() + 1, &mut new);
                snap = Some(oracle.write_snapshot().unwrap());
            }
            seq += 1;
            encode_runs(seq, b, &mut body, &mut new);
            oracle.ingest(&per_occurrence(b));
            uncut.ingest(&per_occurrence(b));
        }
        let segments = [
            WalSegment {
                index: 1,
                bytes: &old,
            },
            WalSegment {
                index: 2,
                bytes: &new,
            },
        ];

        // From nothing: all sixteen records, both kinds.
        let mut from_empty = SketchStore::<u64>::new(spec.clone()).unwrap();
        let report = replay(&mut from_empty, 0, &segments)
            .unwrap_or_else(|e| panic!("{label}: replay from empty: {e}"));
        assert_eq!(report.applied_records, 16, "{label}");
        let occurrences: u64 = bs.iter().flatten().map(|(_, _, n)| n).sum();
        assert_eq!(report.applied_events, occurrences, "{label}");
        assert_eq!(report.last_seq, seq, "{label}");
        // From the checkpoint: the five runs records after its marker.
        let mut from_snap = SketchStore::<u64>::load_snapshot(&snap.unwrap()).unwrap();
        let report = replay(&mut from_snap, 0, &segments)
            .unwrap_or_else(|e| panic!("{label}: replay from checkpoint: {e}"));
        assert_eq!(report.applied_records, 5, "{label}");

        // Byte for byte: the store that replayed everything against the
        // oracle that never cut a checkpoint, the one restored from the
        // checkpoint against the oracle that cut it.
        assert!(
            uncut.write_snapshot().unwrap() == from_empty.write_snapshot().unwrap(),
            "{label}: events + runs replay left the oracle"
        );
        assert!(
            oracle.write_snapshot().unwrap() == from_snap.write_snapshot().unwrap(),
            "{label}: checkpoint + runs replay left the oracle"
        );
    }
}

#[test]
fn a_tail_torn_inside_a_runs_record_truncates_like_a_torn_events_record() {
    // The same four batches logged both ways. Wherever either log is cut,
    // replay keeps exactly the records that are whole — the store equals
    // the oracle after that many batches, byte for byte — and reports the
    // last whole record's end as the valid prefix.
    let spec = SketchSpec::time(WINDOW).epsilon(0.25).seed(7);
    let bs = run_batches(9, 4, 1);
    let mut oracle = SketchStore::<u64>::new(spec.clone()).unwrap();
    let mut after: Vec<Vec<u8>> = vec![oracle.clone().write_snapshot().unwrap()];
    for b in &bs {
        oracle.ingest_runs(b);
        after.push(oracle.clone().write_snapshot().unwrap());
    }
    let mut events_log = fresh_header();
    encode_checkpoint(1, 0, &mut events_log);
    let mut runs_log = events_log.clone();
    // Where each whole record ends, marker included.
    let mut events_ends = vec![events_log.len()];
    let mut runs_ends = events_ends.clone();
    let mut body = Vec::new();
    for (i, b) in bs.iter().enumerate() {
        encode_ingest(2 + i as u64, &per_occurrence(b), &mut events_log);
        events_ends.push(events_log.len());
        encode_runs(2 + i as u64, b, &mut body, &mut runs_log);
        runs_ends.push(runs_log.len());
    }
    assert!(
        runs_log.len() * 4 < events_log.len(),
        "a runs record is a fraction of the events record it replaces"
    );
    for (kind, log, ends) in [
        ("events", &events_log, &events_ends),
        ("runs", &runs_log, &runs_ends),
    ] {
        for cut in 0..=log.len() {
            let mut store = SketchStore::<u64>::new(spec.clone()).unwrap();
            let r = replay(
                &mut store,
                0,
                &[WalSegment {
                    index: 1,
                    bytes: &log[..cut],
                }],
            )
            .unwrap_or_else(|e| panic!("{kind} log cut at {cut} must be survivable: {e}"));
            // Whole records, marker first; none at all inside the header.
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            let batches_kept = whole.saturating_sub(1);
            assert_eq!(r.applied_records, batches_kept as u64, "{kind} cut {cut}");
            let header = fresh_header().len();
            let valid = match whole {
                0 if cut < header => 0,
                0 => header,
                n => ends[n - 1],
            };
            assert_eq!(r.last_segment_valid_len, valid, "{kind} cut {cut}");
            assert_eq!(
                r.torn_tail,
                valid != cut || cut < header,
                "{kind} cut {cut}"
            );
            assert!(
                store.write_snapshot().unwrap() == after[batches_kept],
                "{kind} cut {cut}: not the oracle after {batches_kept} batches"
            );
        }
    }
}
