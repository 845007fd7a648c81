//! Differential suite for the snapshot & recovery subsystem: for **every**
//! backend a `SketchSpec` can build, a snapshot → restore round trip must
//! produce a sketch that (a) answers every supported query bit-identically,
//! (b) re-encodes to byte-identical snapshot bytes, and (c) keeps ingesting
//! exactly like the original (the write clock and arrival-id sequence are
//! part of the snapshot). Truncated, corrupted and version-bumped bytes
//! must come back as typed `SnapshotError`s, never panics — fuzzed in the
//! same spirit as `crates/sliding-window/tests/codec_robustness.rs`.

use ecm_suite::ecm::snapshot::{restore_any, SnapshotError, SNAPSHOT_VERSION};
use ecm_suite::ecm::{
    Answer, Clock, Query, SketchSpec, SketchStore, StreamEvent, Threshold, WindowSpec,
};
use ecm_suite::stream_gen::SeededRng;

const WINDOW: u64 = 2_000;
const EVENTS: u64 = 3_000;

/// Deterministic bursty stream over an 8-bit key universe (hierarchies
/// panic outside it), exercising single, weighted and batched ingest.
fn feed(sketch: &mut dyn ecm_suite::ecm::Sketch, seed: u64) -> u64 {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut ts = 1u64;
    let mut batch = Vec::new();
    // Contiguous segments per ingest mode keep timestamps monotone across
    // the mode switches (batches are flushed before direct inserts resume).
    for i in 0..EVENTS {
        ts += rng.gen_range(0..2u64);
        let item = rng.gen_range(0..200u64);
        match (i / 128) % 3 {
            2 => {
                batch.push(StreamEvent::new(item, ts));
                if batch.len() == 64 {
                    sketch.ingest_batch(&batch);
                    batch.clear();
                }
            }
            mode => {
                if !batch.is_empty() {
                    sketch.ingest_batch(&batch);
                    batch.clear();
                }
                if mode == 0 {
                    sketch.insert(ts, item);
                } else {
                    sketch.insert_weighted(ts, item, 1 + rng.gen_range(0..4u64));
                }
            }
        }
    }
    if !batch.is_empty() {
        sketch.ingest_batch(&batch);
    }
    ts
}

fn window_for(spec: &SketchSpec, now: u64) -> WindowSpec {
    match spec.clock() {
        Clock::Time => WindowSpec::time(now, WINDOW),
        Clock::Count => WindowSpec::last(WINDOW),
    }
}

/// Compare two sketches over every query class the backend supports,
/// bit for bit.
fn assert_answers_bit_identical(
    label: &str,
    a: &dyn ecm_suite::ecm::Sketch,
    b: &dyn ecm_suite::ecm::Sketch,
    w: WindowSpec,
) {
    let queries = [
        Query::self_join(),
        Query::total_arrivals(),
        Query::range_sum(0, 100),
        Query::heavy_hitters(Threshold::Relative(0.05)),
        Query::quantile(0.5),
    ];
    let points: Vec<Query<'_>> = (0..200).step_by(7).map(Query::point).collect();
    for q in points.iter().chain(queries.iter()) {
        let ra = a.query(q, w);
        let rb = b.query(q, w);
        match (ra, rb) {
            (Ok(Answer::Value(ea)), Ok(Answer::Value(eb))) => {
                assert_eq!(
                    ea.value.to_bits(),
                    eb.value.to_bits(),
                    "{label}: scalar answers diverged"
                );
            }
            (Ok(Answer::HeavyHitters(ha)), Ok(Answer::HeavyHitters(hb))) => {
                assert_eq!(ha.len(), hb.len(), "{label}: heavy-hitter sets diverged");
                for ((ka, ea), (kb, eb)) in ha.iter().zip(hb.iter()) {
                    assert_eq!(ka, kb, "{label}");
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "{label}");
                }
            }
            (Ok(Answer::Quantile(qa)), Ok(Answer::Quantile(qb))) => {
                assert_eq!(qa, qb, "{label}: quantiles diverged");
            }
            (Err(_), Err(_)) => {} // both reject it the same way
            (ra, rb) => panic!("{label}: answers diverged structurally: {ra:?} vs {rb:?}"),
        }
    }
}

#[test]
fn every_backend_round_trips_bit_identically() {
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let mut sketch = spec.build().unwrap_or_else(|e| panic!("{label}: {e}"));
        let now = feed(&mut *sketch, 42);

        let bytes = spec
            .snapshot(&*sketch)
            .unwrap_or_else(|e| panic!("{label}: snapshot: {e}"));
        let restored = spec
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("{label}: restore: {e}"));

        assert_eq!(
            restored.write_clock(),
            sketch.write_clock(),
            "{label}: write clock"
        );
        // Memory accounting counts Vec *capacity*, which is allocation-
        // history dependent: a restored sketch allocates exactly, a grown
        // one amortizes. Restoring must never cost more than the original.
        let (rm, lm) = (restored.memory_bytes(), sketch.memory_bytes());
        assert!(
            rm > 0 && rm <= lm,
            "{label}: restored memory {rm} vs live {lm}"
        );
        assert_answers_bit_identical(label, &*sketch, &*restored, window_for(&spec, now));

        // Re-encoding the restored sketch reproduces the snapshot byte for
        // byte — nothing was lost or renormalized.
        let re = spec.snapshot(&*restored).unwrap();
        assert_eq!(re, bytes, "{label}: re-encode must be byte-identical");

        // And restore_any recovers the spec with zero prior knowledge.
        let (embedded, _) = restore_any(&bytes).unwrap();
        assert_eq!(embedded, spec, "{label}: self-description");
    }
}

#[test]
fn restored_sketches_continue_ingesting_identically() {
    // The clock and arrival-id sequence are state: after restore, feeding
    // the same suffix must produce the same snapshot a never-restored
    // sketch produces. (Count-based clocks included.)
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let mut live = spec.build().unwrap();
        let now = feed(&mut *live, 7);
        let checkpoint = spec.snapshot(&*live).unwrap();
        let mut restored = spec.restore(&checkpoint).unwrap();

        for t in 0..500u64 {
            live.insert(now + 1 + t / 4, t % 200);
            restored.insert(now + 1 + t / 4, t % 200);
        }
        let a = spec.snapshot(&*live).unwrap();
        let b = spec.snapshot(&*restored).unwrap();
        assert_eq!(a, b, "{label}: post-restore ingest diverged");
    }
}

#[test]
fn corrupted_snapshots_fail_typed_for_every_backend() {
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let mut sketch = spec.build().unwrap();
        feed(&mut *sketch, 11);
        let bytes = spec.snapshot(&*sketch).unwrap();

        // Every truncation point errors; none panics.
        for cut in (0..bytes.len()).step_by(17) {
            assert!(spec.restore(&bytes[..cut]).is_err(), "{label}: cut {cut}");
        }
        // Version bumps are refused before anything else is parsed.
        let mut bad = bytes.clone();
        bad[2] = SNAPSHOT_VERSION + 1;
        assert!(
            matches!(
                spec.restore(&bad),
                Err(SnapshotError::UnsupportedVersion { .. })
            ),
            "{label}"
        );
        // Bit flips anywhere are caught (checksum or structural error).
        let mut rng = SeededRng::seed_from_u64(5);
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let at = rng.gen_range(0..bad.len() as u64) as usize;
            bad[at] ^= 1 << rng.gen_range(0..8u64);
            assert!(spec.restore(&bad).is_err(), "{label}: flip at {at}");
        }
    }
}

#[test]
fn garbage_bytes_never_panic_the_snapshot_decoders() {
    // Deterministic pseudo-random byte soup through the self-describing
    // entry point (the most exposed surface: it parses the spec header from
    // the wire too).
    let mut state = 0x8badf00du64;
    for round in 0..400usize {
        let len = (round * 13) % 160;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert!(restore_any(&bytes).is_err());
        // Dress the soup in valid magic + version so parsing goes deeper.
        let mut dressed = vec![b'E', b'S', SNAPSHOT_VERSION];
        dressed.extend_from_slice(&bytes);
        assert!(restore_any(&dressed).is_err());
        // Same for the store format.
        let mut dressed = vec![b'E', b'F', SNAPSHOT_VERSION];
        dressed.extend_from_slice(&bytes);
        assert!(SketchStore::<u64>::load_snapshot(&dressed).is_err());
    }
}

#[test]
fn fleet_snapshot_round_trips_across_backends() {
    // The store path over a non-default backend: a keyed fleet of
    // hierarchies (the heaviest per-key payload) survives a checkpoint
    // taken after more writes landed on top of an earlier one.
    let spec = SketchSpec::time(WINDOW).epsilon(0.25).hierarchy(8).seed(9);
    let mut store: SketchStore<u64> = SketchStore::new(spec).unwrap();
    for t in 1..=1_000u64 {
        store.insert(t % 7, t, t % 200);
    }
    store.write_snapshot().unwrap();
    for t in 1_001..=1_200u64 {
        store.insert(t % 3, t, t % 200);
    }
    let full = store.write_snapshot().unwrap();

    let restored = SketchStore::<u64>::load_snapshot(&full).unwrap();

    let w = WindowSpec::time(1_200, WINDOW);
    assert_eq!(restored.keys(), store.keys());
    for key in store.keys() {
        for q in [
            Query::point(5),
            Query::range_sum(0, 63),
            Query::total_arrivals(),
        ] {
            let a = store.query(&key, &q, w).unwrap().unwrap();
            let b = restored.query(&key, &q, w).unwrap().unwrap();
            match (a, b) {
                (Answer::Value(ea), Answer::Value(eb)) => {
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "key {key}")
                }
                _ => panic!("unexpected answer shape"),
            }
        }
    }
}
