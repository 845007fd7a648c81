// These unit tests exercise the crate-private positional core on purpose:
// they pin down the computation the typed query layer delegates to. New
// query-surface coverage lives in ecm::query and tests/query_api.rs.
use crate::api::{Clock, SketchSpec, SketchWriter};
use crate::config::{dw_config, eh_config, exact_config, rw_config, QueryKind};
use crate::sketch::{EcmDw, EcmEh, EcmExact, EcmRw, EcmSketch};
use proptest::prelude::*;
use sliding_window::grid::CellStorage;
use sliding_window::MergeError;
use std::collections::HashMap;

/// Exact per-key frequency of arrivals in `(now - range, now]`.
fn exact_freqs(events: &[(u64, u64)], now: u64, range: u64) -> HashMap<u64, u64> {
    let cutoff = now.saturating_sub(range);
    let mut m = HashMap::new();
    for &(item, ts) in events {
        if ts > cutoff && ts <= now {
            *m.entry(item).or_insert(0) += 1;
        }
    }
    m
}

fn exact_self_join(freqs: &HashMap<u64, u64>) -> f64 {
    freqs.values().map(|&v| (v * v) as f64).sum()
}

/// Simple deterministic skewed stream: key `i % 64` with quadratic bias.
fn skewed_stream(n: u64) -> Vec<(u64, u64)> {
    (1..=n)
        .map(|i| {
            let r = (i.wrapping_mul(2_654_435_761)) % 100;
            let key = if r < 50 { r % 8 } else { r % 64 };
            (key, i)
        })
        .collect()
}

#[test]
fn point_queries_respect_theorem1_bound() {
    let eps = 0.1;
    let window = 1 << 20;
    let cfg = eh_config(&SketchSpec::time(window).epsilon(eps).delta(0.05).seed(9));
    let mut sk = EcmEh::new(&cfg);
    let events = skewed_stream(30_000);
    for &(item, ts) in &events {
        sk.insert(ts, item);
    }
    let now = 30_000u64;
    for range in [1_000u64, 10_000, 30_000] {
        let truth = exact_freqs(&events, now, range);
        let norm: u64 = truth.values().sum();
        for key in 0..64u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            let est = sk.point_query(key, now, range);
            assert!(
                (est - exact).abs() <= eps * norm as f64 + 1.0,
                "key={key} range={range} est={est} exact={exact} norm={norm}"
            );
        }
    }
}

#[test]
fn self_join_respects_theorem2_bound() {
    let eps = 0.1;
    let cfg = eh_config(
        &SketchSpec::time(1 << 20)
            .epsilon(eps)
            .delta(0.05)
            .query_kind(QueryKind::InnerProduct)
            .seed(4),
    );
    let mut sk = EcmEh::new(&cfg);
    let events = skewed_stream(20_000);
    for &(item, ts) in &events {
        sk.insert(ts, item);
    }
    let now = 20_000u64;
    for range in [2_000u64, 20_000] {
        let truth = exact_freqs(&events, now, range);
        let norm: u64 = truth.values().sum();
        let exact = exact_self_join(&truth);
        let est = sk.self_join(now, range);
        let budget = eps * (norm as f64) * (norm as f64);
        assert!(
            (est - exact).abs() <= budget + 4.0,
            "range={range} est={est} exact={exact} budget={budget}"
        );
    }
}

#[test]
fn inner_product_between_streams() {
    let eps = 0.15;
    let cfg = eh_config(
        &SketchSpec::time(1 << 20)
            .epsilon(eps)
            .delta(0.05)
            .query_kind(QueryKind::InnerProduct)
            .seed(12),
    );
    let mut a = EcmEh::new(&cfg);
    let mut b = EcmEh::new(&cfg);
    let ev_a: Vec<(u64, u64)> = (1..=8000u64).map(|i| (i % 40, i)).collect();
    let ev_b: Vec<(u64, u64)> = (1..=8000u64).map(|i| (i % 25, i)).collect();
    for &(k, t) in &ev_a {
        a.insert(t, k);
    }
    for &(k, t) in &ev_b {
        b.insert(t, k);
    }
    let now = 8000u64;
    let range = 5000u64;
    let fa = exact_freqs(&ev_a, now, range);
    let fb = exact_freqs(&ev_b, now, range);
    let exact: f64 = fa
        .iter()
        .map(|(k, &va)| va as f64 * *fb.get(k).unwrap_or(&0) as f64)
        .sum();
    let na: u64 = fa.values().sum();
    let nb: u64 = fb.values().sum();
    let est = a.inner_product(&b, now, range).unwrap();
    let budget = eps * na as f64 * nb as f64;
    assert!(
        (est - exact).abs() <= budget,
        "est={est} exact={exact} budget={budget}"
    );
}

#[test]
fn incompatible_sketches_rejected() {
    let cfg1 = eh_config(&SketchSpec::time(100).seed(1));
    let cfg2 = eh_config(&SketchSpec::time(100).seed(2));
    let a = EcmEh::new(&cfg1);
    let b = EcmEh::new(&cfg2);
    assert!(matches!(
        a.inner_product(&b, 10, 10),
        Err(MergeError::IncompatibleConfig { .. })
    ));
    assert!(matches!(
        EcmSketch::merge(&[&a, &b], &cfg1.cell),
        Err(MergeError::IncompatibleConfig { .. })
    ));
    let empty: [&EcmEh; 0] = [];
    assert!(matches!(
        EcmSketch::merge(&empty, &cfg1.cell),
        Err(MergeError::Empty)
    ));
}

/// An empty EH sketch on the count clock over a window of `n` arrivals.
fn counting(n: u64) -> EcmEh {
    EcmEh::new(&eh_config(&SketchSpec::time(n).seed(13))).on_clock(Clock::Count)
}

#[test]
fn window_is_counted_in_arrivals_not_time() {
    let mut sk = counting(100);
    assert_eq!(sk.point_query(1, 0, 100), 0.0);
    // 500 arrivals of key 1, then 100 of key 2, all at tick 0: the last 100
    // arrivals are all key 2 whatever the caller's ticks say.
    sk.insert_weighted(0, 1, 500);
    for _ in 0..100 {
        sk.insert(0, 2);
    }
    assert_eq!(sk.last_tick(), 600, "the write clock is the arrival count");
    assert!(sk.point_query(1, 600, 100) <= 0.1 * 100.0 + 1.0);
    assert!((sk.point_query(2, 600, 100) - 100.0).abs() <= 0.1 * 100.0);
    // Only arrivals move the clock.
    sk.advance_to(10_000);
    assert_eq!((sk.last_tick(), sk.lifetime_arrivals()), (600, 600));
    // Memory is bounded by the window, not the stream.
    let early = sk.memory_bytes();
    sk.insert_weighted(0, 3, 50_000);
    assert!(
        sk.memory_bytes() < 2 * early,
        "{early} → {}",
        sk.memory_bytes()
    );
}

#[test]
fn inner_product_between_count_based_streams() {
    let (mut a, mut b) = (counting(400), counting(400));
    for i in 0..1_000u64 {
        a.insert(0, i % 4);
    }
    for i in 0..600u64 {
        b.insert(0, i % 8);
    }
    // Each operand is read at its own arrival clock: the last 400 of a hold
    // 100 per key in 0..4, the last 400 of b 50 per key in 0..8, so the
    // overlap on keys 0..4 is 4·100·50 = 20 000.
    let ip = a.inner_product(&b, a.last_tick(), 400).unwrap();
    assert!((ip - 20_000.0).abs() <= 0.3 * 20_000.0, "ip={ip}");
    // A time-clock operand of the same shape pairs with neither side, and
    // count-based windows do not merge (paper Fig. 2).
    let time = EcmEh::new(&eh_config(&SketchSpec::time(400).seed(13)));
    assert!(a.inner_product(&time, 1_000, 400).is_err());
    assert!(matches!(
        EcmSketch::merge(&[&a, &b], a.cell_config()),
        Err(MergeError::Unsupported { .. })
    ));
}

#[test]
fn merge_of_eh_sketches_matches_union_stream() {
    let eps = 0.1;
    let window = 1 << 20;
    let cfg = eh_config(&SketchSpec::time(window).epsilon(eps).delta(0.05).seed(33));
    let mut a = EcmEh::new(&cfg);
    let mut b = EcmEh::new(&cfg);
    a.set_id_namespace(1);
    b.set_id_namespace(2);
    let events = skewed_stream(24_000);
    for (i, &(item, ts)) in events.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(ts, item);
        } else {
            b.insert(ts, item);
        }
    }
    let merged = EcmSketch::merge(&[&a, &b], &cfg.cell).unwrap();
    assert_eq!(merged.lifetime_arrivals(), 24_000);

    let now = 24_000u64;
    for range in [3_000u64, 24_000] {
        let truth = exact_freqs(&events, now, range);
        let norm: u64 = truth.values().sum();
        // Theorem 4 + Theorem 1 envelope: (ε_sw + ε′_sw + ε_swε′_sw) in the
        // window dimension plus ε_cm hashing error ≈ 2ε overall.
        let envelope = 2.0 * eps;
        for key in 0..64u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            let est = merged.point_query(key, now, range);
            assert!(
                (est - exact).abs() <= envelope * norm as f64 + 2.0,
                "key={key} range={range} est={est} exact={exact}"
            );
        }
    }
}

#[test]
fn merge_of_rw_sketches_is_lossless() {
    let cfg = rw_config(
        &SketchSpec::time(1 << 20)
            .epsilon(0.2)
            .max_arrivals(40_000)
            .seed(77),
    );
    let mut whole = EcmRw::new(&cfg);
    let mut a = EcmRw::new(&cfg);
    let mut b = EcmRw::new(&cfg);
    let events = skewed_stream(16_000);
    for (i, &(item, ts)) in events.iter().enumerate() {
        // Shared explicit ids reproduce the union wave exactly.
        let id = (i as u64) + 1;
        whole.insert_with_id(ts, item, id).unwrap();
        if i % 3 == 0 {
            a.insert_with_id(ts, item, id).unwrap();
        } else {
            b.insert_with_id(ts, item, id).unwrap();
        }
    }
    let merged = EcmSketch::merge(&[&a, &b], &cfg.cell).unwrap();
    let now = 16_000u64;
    for range in [1_000u64, 16_000] {
        for key in 0..64u64 {
            assert_eq!(
                merged.point_query(key, now, range),
                whole.point_query(key, now, range),
                "key={key} range={range}"
            );
        }
    }
}

#[test]
fn dw_variant_answers_point_queries() {
    let eps = 0.15;
    let cfg = dw_config(
        &SketchSpec::time(1 << 20)
            .epsilon(eps)
            .delta(0.05)
            .max_arrivals(20_000)
            .seed(3),
    );
    let mut sk = EcmDw::new(&cfg);
    let events = skewed_stream(12_000);
    for &(item, ts) in &events {
        sk.insert(ts, item);
    }
    let now = 12_000u64;
    let range = 6_000u64;
    let truth = exact_freqs(&events, now, range);
    let norm: u64 = truth.values().sum();
    for key in 0..64u64 {
        let exact = *truth.get(&key).unwrap_or(&0) as f64;
        let est = sk.point_query(key, now, range);
        assert!(
            (est - exact).abs() <= eps * norm as f64 + 1.0,
            "key={key} est={est} exact={exact}"
        );
    }
}

#[test]
fn exact_variant_matches_cm_semantics() {
    // With exact window counters the only error is hash collisions, which
    // can only overestimate — the classic CM property, per range.
    let cfg = exact_config(&SketchSpec::time(1 << 20).epsilon(0.05).delta(0.01).seed(8));
    let mut sk = EcmExact::new(&cfg);
    let events = skewed_stream(10_000);
    for &(item, ts) in &events {
        sk.insert(ts, item);
    }
    let now = 10_000u64;
    for range in [500u64, 10_000] {
        let truth = exact_freqs(&events, now, range);
        for key in 0..64u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            let est = sk.point_query(key, now, range);
            assert!(est >= exact, "no underestimation: key={key}");
        }
    }
}

#[test]
fn total_arrivals_one_row_estimator() {
    let cfg = eh_config(&SketchSpec::time(1 << 20).delta(0.05).seed(21));
    let mut sk = EcmEh::new(&cfg);
    let events = skewed_stream(20_000);
    for &(item, ts) in &events {
        sk.insert(ts, item);
    }
    let now = 20_000u64;
    for range in [2_000u64, 20_000] {
        let exact: u64 = exact_freqs(&events, now, range).values().sum();
        let est = sk.total_arrivals(now, range);
        assert!(
            (est - exact as f64).abs() <= 0.1 * exact as f64 + 2.0,
            "range={range} est={est} exact={exact}"
        );
    }
}

#[test]
fn estimate_vector_has_sketch_shape() {
    let cfg = eh_config(&SketchSpec::time(1000).epsilon(0.2).delta(0.2).seed(5));
    let mut sk = EcmEh::new(&cfg);
    for t in 1..=100u64 {
        sk.insert(t, t % 10);
    }
    let v = sk.estimate_vector(100, 1000);
    assert_eq!(v.len(), sk.width() * sk.depth());
    // Every row's cell estimates sum to ~100 (each arrival hits one cell
    // per row).
    for j in 0..sk.depth() {
        let row_sum: f64 = v[j * sk.width()..(j + 1) * sk.width()].iter().sum();
        assert!((row_sum - 100.0).abs() <= 10.0, "row {j} sums to {row_sum}");
    }
    assert_eq!(
        sk.cell_estimate(0, 0, 100, 1000),
        v[0],
        "cell_estimate must agree with estimate_vector"
    );
}

#[test]
#[should_panic(expected = "before insertions")]
fn namespace_after_insert_rejected() {
    let cfg = eh_config(&SketchSpec::time(100).epsilon(0.2).delta(0.2));
    let mut sk = EcmEh::new(&cfg);
    sk.insert(1, 1);
    sk.set_id_namespace(3);
}

#[test]
fn codec_round_trips_eh() {
    let cfg = eh_config(&SketchSpec::time(10_000).epsilon(0.15).seed(6));
    let mut sk = EcmEh::new(&cfg);
    for &(item, ts) in &skewed_stream(5_000) {
        sk.insert(ts, item);
    }
    let mut buf = Vec::new();
    sk.encode(&mut buf);
    assert_eq!(buf.len(), sk.encoded_len());
    let mut slice = buf.as_slice();
    let back = EcmEh::decode(&cfg, &mut slice).unwrap();
    assert!(slice.is_empty());
    for key in [0u64, 3, 17, 60] {
        assert_eq!(
            back.point_query(key, 5_000, 2_000),
            sk.point_query(key, 5_000, 2_000)
        );
    }
    assert_eq!(back.lifetime_arrivals(), sk.lifetime_arrivals());
    // Wrong config shape must be rejected.
    let other = eh_config(&SketchSpec::time(10_000).epsilon(0.3).seed(6));
    let mut slice = buf.as_slice();
    assert!(EcmEh::decode(&other, &mut slice).is_err());
}

#[test]
fn weighted_insert_counts_multiply() {
    let cfg = eh_config(&SketchSpec::time(1000).seed(2));
    let mut sk = EcmEh::new(&cfg);
    sk.insert_weighted(10, 42, 7);
    let est = sk.point_query(42, 10, 1000);
    assert!((est - 7.0).abs() < 1e-9, "est={est}");
    assert_eq!(sk.lifetime_arrivals(), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ECM-EH point queries satisfy the Theorem-1 envelope on random
    /// streams and random ranges.
    #[test]
    fn prop_point_query_envelope(
        keys in proptest::collection::vec(0u64..32, 500..3000),
        seed in any::<u64>(),
        range_frac in 0.1f64..1.0,
    ) {
        let eps = 0.15;
        let cfg = eh_config(&SketchSpec::time(1 << 20).epsilon(eps).delta(0.05).seed(seed));
        let mut sk = EcmEh::new(&cfg);
        let events: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i + 1) as u64))
            .collect();
        for &(k, t) in &events {
            sk.insert(t, k);
        }
        let now = events.len() as u64;
        let range = ((now as f64 * range_frac) as u64).max(1);
        let truth = exact_freqs(&events, now, range);
        let norm: u64 = truth.values().sum();
        let mut over = 0usize;
        for key in 0..32u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            let est = sk.point_query(key, now, range);
            if (est - exact).abs() > eps * norm as f64 + 1.0 {
                over += 1;
            }
        }
        // δ = 5% per query over 32 keys: allow a small number of excursions.
        prop_assert!(over <= 3, "envelope violations: {}", over);
    }

    /// Merging with explicit shared ids is deterministic and bounded.
    #[test]
    fn prop_merge_point_envelope(
        n in 1000u64..4000,
        split in 2u64..5,
    ) {
        let eps = 0.2;
        let window = 1u64 << 20;
        let cfg = eh_config(&SketchSpec::time(window).epsilon(eps).seed(13));
        let mut parts: Vec<EcmEh> = (0..split).map(|_| EcmEh::new(&cfg)).collect();
        let events: Vec<(u64, u64)> = (1..=n).map(|i| (i % 16, i)).collect();
        for (i, &(k, t)) in events.iter().enumerate() {
            parts[i % split as usize].insert(t, k);
        }
        let refs: Vec<&EcmEh> = parts.iter().collect();
        let merged = EcmSketch::merge(&refs, &cfg.cell).unwrap();
        let truth = exact_freqs(&events, n, n);
        let norm: u64 = truth.values().sum();
        for key in 0..16u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            let est = merged.point_query(key, n, n);
            prop_assert!(
                (est - exact).abs() <= 2.0 * eps * norm as f64 + 2.0,
                "key={} est={} exact={}", key, est, exact
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The row-level twin of the slab's `prop_held_bounds_every_estimate`,
    /// on both clocks. After every step of an arbitrary interleaving of
    /// inserts, weighted inserts, clock advances, gaps past the window,
    /// encode → decode and (time clock) a merge, every row's cell
    /// estimates sum to at most that row's held count, for any `now` —
    /// behind the last tick included — and any `range`, beyond the window
    /// included. Row 0's pair is `total_arrivals` ≤ `arrivals_bound`.
    #[test]
    fn prop_row_held_bounds_every_row_sum(
        ops in proptest::collection::vec((0u64..6, (0u64..3_000, 1u64..300, 0u64..64)), 1..60),
        window in 1u64..5_000,
        count in any::<bool>(),
    ) {
        let clock = if count { Clock::Count } else { Clock::Time };
        let cfg = eh_config(&SketchSpec::time(window).epsilon(0.2).seed(17));
        let fresh = || EcmEh::new(&cfg).on_clock(clock);
        let mut sk = fresh();
        let mut ts = 1u64;
        for (step, &(op, (gap, n, item))) in ops.iter().enumerate() {
            ts += gap;
            match op {
                0 | 1 => sk.insert(ts, item),
                2 => sk.insert_weighted(ts, item, n),
                3 => sk.advance_to(ts),
                4 => {
                    let mut wire = Vec::new();
                    sk.encode(&mut wire);
                    sk = EcmEh::decode(&cfg, &mut wire.as_slice())
                        .expect("own encoding decodes")
                        .on_clock(clock);
                }
                _ if count => sk.insert_weighted(ts, item, n),
                _ => {
                    let mut other = fresh();
                    other.insert_weighted(ts, item, n);
                    sk = EcmSketch::merge(&[&sk, &other], &cfg.cell).expect("same config merges");
                }
            }
            let last = sk.last_tick();
            for j in 0..sk.depth() {
                let cells = j * sk.width()..(j + 1) * sk.width();
                let held = sk.cells.held_ones_in(cells).expect("the slab counts") as f64;
                for now in [0, last / 2, last, ts, ts + 2 * window, u64::MAX] {
                    for range in [0, 1, gap, window / 2, window, 3 * window, u64::MAX] {
                        let sum: f64 = (0..sk.width()).map(|i| sk.cell_estimate(j, i, now, range)).sum();
                        prop_assert!(
                            sum <= held,
                            "step {} op {} row {}: sum({}, {}) = {} > held {}",
                            step, op, j, now, range, sum, held
                        );
                        if j == 0 {
                            prop_assert_eq!(sk.total_arrivals(now, range), sum);
                            prop_assert_eq!(sk.arrivals_bound(), Some(held));
                        }
                    }
                }
            }
        }
    }
}
