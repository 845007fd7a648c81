//! Derived sliding-window queries over generated traces (paper §6.1):
//! heavy hitters (Theorem 5 semantics), range sums and quantiles, scored
//! against the exact oracle — all through the unified `SketchReader::query`
//! surface.

use ecm::{EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec};
use sliding_window::ExponentialHistogram;
use stream_gen::{worldcup_like, WindowOracle};

const WINDOW: u64 = 1_000_000;
const BITS: u32 = 16; // generator keys fit in 16 bits (50k domain)

fn build_hierarchy(
    events: &[stream_gen::Event],
    eps: f64,
    seed: u64,
) -> EcmHierarchy<ExponentialHistogram> {
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(seed)
        .ecm_config()
        .unwrap();
    let mut h = EcmHierarchy::new(BITS, &cfg);
    for e in events {
        h.insert(e.ts, e.key);
    }
    h
}

/// Heavy-hitter keys through the typed query API.
fn heavy_keys(h: &EcmHierarchy<ExponentialHistogram>, t: Threshold, w: WindowSpec) -> Vec<u64> {
    h.query(&Query::heavy_hitters(t), w)
        .expect("heavy-hitter query must succeed")
        .into_heavy_hitters()
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

#[test]
fn heavy_hitters_have_full_recall_and_bounded_false_positives() {
    let events = worldcup_like(50_000, 17);
    let oracle = WindowOracle::from_events(&events);
    let h = build_hierarchy(&events, 0.02, 3);
    let now = oracle.last_tick();

    for range in [100_000u64, WINDOW] {
        let norm = oracle.total(now, range);
        if norm < 1_000 {
            continue;
        }
        let phi = 0.01;
        let threshold = (phi * norm as f64) as u64;
        let exact: Vec<u64> = oracle
            .heavy_hitters(threshold, now, range)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let found = heavy_keys(&h, Threshold::Relative(phi), WindowSpec::time(now, range));

        // Theorem 5: every truly heavy key must be reported (estimates never
        // undershoot by more than the window error, which ε=0.02 covers).
        for k in &exact {
            assert!(
                found.contains(k),
                "range {range}: missed heavy key {k} (exact set {exact:?})"
            );
        }
        // False positives only from the (φ − ε, φ) gray zone.
        let fp_floor = ((phi - 0.021) * norm as f64).max(0.0) as u64;
        for k in &found {
            let f = oracle.frequency(*k, now, range);
            assert!(
                f >= fp_floor,
                "range {range}: spurious key {k} with frequency {f} \
                 (threshold {threshold})"
            );
        }
    }
}

#[test]
fn heavy_hitter_estimates_carry_point_guarantees() {
    let events = worldcup_like(30_000, 23);
    let oracle = WindowOracle::from_events(&events);
    let h = build_hierarchy(&events, 0.02, 7);
    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;

    let hits = h
        .query(
            &Query::heavy_hitters(Threshold::Relative(0.01)),
            WindowSpec::time(now, WINDOW),
        )
        .unwrap()
        .into_heavy_hitters();
    assert!(!hits.is_empty(), "trace must contain heavy keys");
    for (key, est) in hits {
        let g = est.guarantee.expect("EH estimates carry guarantees");
        assert!(g.epsilon <= 0.02 + 1e-9, "per-key ε={}", g.epsilon);
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        assert!(
            (est.value - exact).abs() <= g.epsilon * norm + 2.0,
            "key {key}: est {} exact {exact} ε {}",
            est.value,
            g.epsilon
        );
    }
}

#[test]
fn range_sums_over_key_intervals() {
    let events = worldcup_like(40_000, 29);
    let oracle = WindowOracle::from_events(&events);
    let h = build_hierarchy(&events, 0.02, 5);
    let now = oracle.last_tick();
    let range = WINDOW;
    let norm = oracle.total(now, range) as f64;
    let w = WindowSpec::time(now, range);

    for &(lo, hi) in &[(0u64, 99u64), (100, 999), (0, 65_535), (500, 501)] {
        let exact: u64 = (lo..=hi.min(49_999))
            .map(|k| oracle.frequency(k, now, range))
            .sum();
        let est = h
            .query(&Query::range_sum(lo, hi), w)
            .unwrap()
            .into_value()
            .value;
        // Dyadic cover ≤ 2·BITS components, each ε-bounded.
        let budget = 2.0 * f64::from(BITS) * 0.02 * norm;
        assert!(
            (est - exact as f64).abs() <= budget + 4.0,
            "[{lo},{hi}]: est {est} exact {exact} budget {budget}"
        );
    }
}

#[test]
fn quantiles_match_oracle_within_rank_tolerance() {
    let events = worldcup_like(40_000, 31);
    let oracle = WindowOracle::from_events(&events);
    let h = build_hierarchy(&events, 0.01, 9);
    let now = oracle.last_tick();
    let range = WINDOW;
    let total = oracle.total(now, range);
    assert!(total > 1_000);
    let w = WindowSpec::time(now, range);

    for &q in &[0.1f64, 0.25, 0.5, 0.75, 0.9] {
        let est_key = h
            .query(&Query::quantile(q), w)
            .unwrap()
            .into_quantile()
            .expect("window is non-empty");
        // Score by *rank error*: the exact rank of the returned key must be
        // within ε·2·bits of the requested rank, plus the anchor slack of
        // the estimated total the φ-quantile derives its target rank from —
        // bounded by the total-arrivals estimator's window error ε_sw
        // (the builder's ε = 0.01 splits as ε_sw = √1.01 − 1).
        let rank = (q * total as f64).ceil() as u64;
        let exact_rank: u64 = (0..=est_key).map(|k| oracle.frequency(k, now, range)).sum();
        let esw = 1.01f64.sqrt() - 1.0;
        let anchor_slack = (esw * total as f64).ceil() as u64;
        let tolerance = (0.01 * 2.0 * f64::from(BITS) * total as f64) as u64 + anchor_slack + 2;
        assert!(
            exact_rank + tolerance >= rank && exact_rank <= rank + tolerance,
            "q={q}: returned key {est_key} has rank {exact_rank}, want {rank}±{tolerance}"
        );
    }

    // φ outside (0, 1] is a typed error, not a panic.
    assert!(h.query(&Query::quantile(0.0), w).is_err());
    assert!(h.query(&Query::quantile(1.5), w).is_err());
}

#[test]
fn heavy_hitters_follow_the_window_as_it_slides() {
    // A key that is heavy only in the first half of the trace must drop out
    // of the heavy-hitter set for recent ranges.
    let mut events = worldcup_like(30_000, 41);
    let now_base = events.last().unwrap().ts;
    // Inject a burst on key 42 inside the window (last 10⁶ ticks) but
    // strictly before the recent range (last 6·10⁵ ticks).
    let burst_lo = now_base - 900_000;
    let burst_hi = now_base - 700_000;
    let burst: Vec<stream_gen::Event> = (0..3_000u64)
        .map(|i| stream_gen::Event {
            ts: burst_lo + i * ((burst_hi - burst_lo) / 3_000),
            key: 42,
            site: 0,
        })
        .collect();
    events.extend(burst);
    events.sort_by_key(|e| e.ts);

    let oracle = WindowOracle::from_events(&events);
    let h = build_hierarchy(&events, 0.02, 13);
    let now = oracle.last_tick();

    // Over the full window the burst key is prominent.
    let full = heavy_keys(
        &h,
        Threshold::Absolute(2_000.0),
        WindowSpec::time(now, WINDOW),
    );
    // Over a recent range that excludes the burst it must vanish.
    let recent_range = 600_000u64;
    let recent = heavy_keys(
        &h,
        Threshold::Absolute(500.0),
        WindowSpec::time(now, recent_range),
    );
    assert!(
        oracle.frequency(42, now, recent_range) < 100,
        "precondition: burst is outside the recent range"
    );
    assert!(
        full.contains(&42),
        "burst key heavy over full window: {full:?}"
    );
    assert!(
        !recent.contains(&42),
        "burst key must age out of recent heavy hitters: {recent:?}"
    );
}
