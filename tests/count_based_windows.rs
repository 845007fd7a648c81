//! Count-based sliding windows (paper §4.2.1) and the impossibility of
//! their order-preserving aggregation (paper Fig. 2).

use ecm::{EcmEh, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use sliding_window::traits::WindowCounter;
use sliding_window::{EhConfig, ExponentialHistogram};
use std::collections::HashMap;

/// Count-based ECM: ticks are the global arrival index; a window of N
/// covers the last N arrivals.
#[test]
fn count_based_point_queries() {
    let window = 5_000u64; // last 5000 arrivals
    let eps = 0.1;
    let cfg = SketchSpec::time(window)
        .epsilon(eps)
        .seed(4)
        .ecm_config()
        .unwrap();
    let mut sk = EcmEh::new(&cfg);
    let mut log: Vec<u64> = Vec::new();
    for i in 1..=20_000u64 {
        let key = i % 37;
        sk.insert(i, key); // tick = arrival index
        log.push(key);
    }
    let now = 20_000u64;
    for range in [500u64, 5_000] {
        let recent = &log[log.len() - range as usize..];
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in recent {
            *truth.entry(k).or_insert(0) += 1;
        }
        for key in 0..37u64 {
            let exact = *truth.get(&key).unwrap_or(&0) as f64;
            // The counters are clock-agnostic: with arrival-index ticks a
            // "time" window of N is exactly the last N arrivals.
            let est = sk
                .query(&Query::point(key), WindowSpec::time(now, range))
                .unwrap()
                .into_value()
                .value;
            assert!(
                (est - exact).abs() <= eps * range as f64 + 1.0,
                "key={key} range={range} est={est} exact={exact}"
            );
        }
    }
}

/// Paper Fig. 2: local count-based summaries cannot be composed in an
/// order-preserving way — we exhibit two *different* global interleavings
/// that produce byte-identical local summaries but different true answers
/// to "how many of stream A's arrivals are among the last K global
/// arrivals?", so no merge function can be correct for both.
#[test]
fn count_based_merge_is_information_theoretically_impossible() {
    // Stream A arrives at local positions 1..=10 (its own count-based
    // clock); stream B likewise. Local summaries see ONLY local positions.
    let build_local = |n: u64| {
        let mut eh = ExponentialHistogram::new(&EhConfig::new(0.1, 1_000));
        for i in 1..=n {
            eh.insert_one(i);
        }
        let mut buf = Vec::new();
        eh.encode(&mut buf);
        buf
    };
    let a_summary = build_local(10);
    let b_summary = build_local(90);

    // Interleaving 1: all of A first, then all of B.
    // Interleaving 2: all of B first, then all of A.
    // Per-stream local orders are identical, so the local summaries are
    // byte-identical in both worlds:
    assert_eq!(a_summary, build_local(10));
    assert_eq!(b_summary, build_local(90));

    // Ground truth for "A-arrivals among the last 50 global arrivals":
    let truth = |interleaved: &[char], k: usize| -> usize {
        interleaved[interleaved.len() - k..]
            .iter()
            .filter(|&&c| c == 'a')
            .count()
    };
    let world1: Vec<char> = "a"
        .repeat(10)
        .chars()
        .chain("b".repeat(90).chars())
        .collect();
    let world2: Vec<char> = "b"
        .repeat(90)
        .chars()
        .chain("a".repeat(10).chars())
        .collect();
    let t1 = truth(&world1, 50);
    let t2 = truth(&world2, 50);
    assert_eq!(t1, 0, "world 1: A's arrivals are ancient");
    assert_eq!(t2, 10, "world 2: A's arrivals are the most recent");
    // Identical inputs, different required outputs ⇒ no correct merge
    // exists. (Time-based windows dodge this: wall-clock timestamps encode
    // the interleaving.)
    assert_ne!(t1, t2);
}

/// The same ECM-sketch code serves count-based windows by feeding the
/// arrival index as the tick — check window expiry semantics directly.
#[test]
fn count_based_window_expires_by_arrival_count() {
    let window = 100u64;
    let cfg = EhConfig::new(0.1, window);
    let mut eh = ExponentialHistogram::new(&cfg);
    for i in 1..=1_000u64 {
        eh.insert_one(i);
    }
    // Exactly the last 100 arrivals are in the window.
    let est = eh.query(1_000, window);
    assert!((est - 100.0).abs() <= 0.1 * 100.0, "est={est}, want ≈ 100");
    // A longer range cannot see beyond the window.
    assert_eq!(eh.query(1_000, 10_000), est);
}
