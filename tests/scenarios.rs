//! Cross-crate checks of an ECM-sketch against the scenario generators:
//! poll bursts surface as per-site keys, and a stream delivered with
//! bounded delay, once repaired by a watermark buffer, builds the same
//! sketch as the in-order stream. (Flash crowds: `tests/ddos_detection.rs`.)

use ecm_suite::ecm::{EcmConfig, EcmEh, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use ecm_suite::sliding_window::ExponentialHistogram;
use ecm_suite::stream_gen::{bounded_delay_shuffle, inject_poll_bursts, uniform_sites, PollBursts};
use std::collections::BTreeMap;

const WINDOW: u64 = 300_000;

/// Route a point query through the unified typed API.
fn point(sk: &EcmEh, key: u64, now: u64, range: u64) -> f64 {
    sk.query(&Query::point(key), WindowSpec::time(now, range))
        .expect("in-window query must succeed")
        .into_value()
        .value
}

/// A plain sketch fed `(key, ts)` pairs in order.
fn sketch_of(cfg: &EcmConfig<ExponentialHistogram>, pairs: &[(u64, u64)]) -> EcmEh {
    let mut sk = EcmEh::new(cfg);
    for &(key, ts) in pairs {
        sk.insert(ts, key);
    }
    sk
}

#[test]
fn poll_bursts_show_up_as_per_site_keys() {
    let polls = PollBursts {
        interval: 50_000,
        per_site: 40,
        sites: 5,
        key_base: 9_000_000,
        start: 0,
        end: 2_599_999,
    };
    let events = inject_poll_bursts(&uniform_sites(10_000, 5, 8), &polls);
    let cfg = SketchSpec::time(WINDOW)
        .delta(0.05)
        .seed(4)
        .ecm_config()
        .unwrap();
    let pairs: Vec<(u64, u64)> = events.iter().map(|e| (e.key, e.ts)).collect();
    let sk = sketch_of(&cfg, &pairs);

    let now = events.last().unwrap().ts;
    // Each site's poll key fires per interval: WINDOW/interval rounds of
    // per_site events each are inside the window.
    let rounds_in_window = WINDOW / polls.interval;
    let expected = (rounds_in_window * polls.per_site as u64) as f64;
    for s in 0..5u64 {
        let est = point(&sk, 9_000_000 + s, now, WINDOW);
        assert!(
            est >= expected * 0.6 && est <= expected * 1.8 + 100.0,
            "site {s}: est={est} expected≈{expected}"
        );
    }
}

#[test]
fn reorder_buffer_repairs_bounded_delay_bit_identically() {
    let base = uniform_sites(20_000, 2, 5);
    let max_delay = 5_000u64;
    let (delivered, max_inv) = bounded_delay_shuffle(&base, max_delay, 13);
    assert!(max_inv > 0, "shuffle must produce disorder");

    // Repair the delivery order with a watermark buffer (the event-stream
    // analogue of `sliding_window::ReorderBuffer`, which wraps a single
    // counter): hold events until the watermark passes their tick by the
    // delay bound, then release in tick order.
    let mut pending: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut watermark = 0u64;
    let mut peak_buffered = 0usize;
    let mut buffered = 0usize;
    let mut repaired: Vec<(u64, u64)> = Vec::with_capacity(delivered.len());
    for e in &delivered {
        watermark = watermark.max(e.ts);
        pending.entry(e.ts).or_default().push(e.key);
        buffered += 1;
        peak_buffered = peak_buffered.max(buffered);
        let horizon = watermark.saturating_sub(max_delay);
        while let Some((&ts, _)) = pending.first_key_value() {
            if ts >= horizon {
                break;
            }
            let (ts, keys) = pending.pop_first().unwrap();
            buffered -= keys.len();
            repaired.extend(keys.into_iter().map(|k| (k, ts)));
        }
    }
    while let Some((ts, keys)) = pending.pop_first() {
        repaired.extend(keys.into_iter().map(|k| (k, ts)));
    }
    assert_eq!(repaired.len(), base.len(), "no events may be dropped");
    // Bounded-delay repair needs only bounded memory: never more events
    // buffered than can arrive within one delay horizon.
    let max_density = base.len() as u64 * 2 * max_delay / 2_600_000 + 50;
    assert!(
        (peak_buffered as u64) <= max_density,
        "peak buffer {peak_buffered} exceeds horizon density {max_density}"
    );
    assert!(
        repaired.windows(2).all(|w| w[0].1 <= w[1].1),
        "repaired stream must be tick-ordered"
    );

    let eps = 0.1;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(21)
        .ecm_config()
        .unwrap();
    let sk = sketch_of(&cfg, &repaired);

    // The sketch must equal one of the original in-order stream exactly:
    // the repaired stream is a permutation restoring tick order, and ties
    // within one tick do not affect any window counter.
    let in_order: Vec<(u64, u64)> = base.iter().map(|e| (e.key, e.ts)).collect();
    let reference = sketch_of(&cfg, &in_order);
    let now = base.last().unwrap().ts;
    for key in (0..2_000u64).step_by(29) {
        assert_eq!(
            point(&sk, key, now, WINDOW).to_bits(),
            point(&reference, key, now, WINDOW).to_bits(),
            "key={key}"
        );
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sk.encode(&mut a);
    reference.encode(&mut b);
    assert_eq!(
        a, b,
        "repaired and in-order sketches must encode identically"
    );
}
