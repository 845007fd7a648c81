//! Sliding-window range queries: the dyadic ECM hierarchy (paper §6.1)
//! against the exact oracle and against the hybrid-histogram baseline the
//! related-work section dismisses (§2). All hierarchy queries go through
//! the unified `SketchReader::query` surface.

use ecm_bench::baselines::{HybridConfig, HybridHistogram};
use ecm_suite::ecm::{EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use ecm_suite::stream_gen::{worldcup_like, WindowOracle};
use sliding_window::ExponentialHistogram;

const WINDOW: u64 = 1_000_000;
const KEY_BITS: u32 = 16;

fn build_inputs(events: usize, seed: u64) -> (Vec<ecm_suite::stream_gen::Event>, WindowOracle) {
    let events = worldcup_like(events, seed);
    let oracle = WindowOracle::from_events(&events);
    (events, oracle)
}

/// Route one scalar query through the typed API and unwrap its value.
fn value(reader: &dyn SketchReader, q: &Query<'_>, w: WindowSpec) -> f64 {
    reader
        .query(q, w)
        .expect("in-window query must succeed")
        .into_value()
        .value
}

#[test]
fn hierarchy_range_sums_meet_dyadic_envelope() {
    let (events, oracle) = build_inputs(30_000, 3);
    let eps = 0.1;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(5)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(KEY_BITS, &cfg);
    for e in &events {
        h.insert(e.ts, e.key);
    }
    let now = oracle.last_tick();

    for range in [10_000u64, 100_000, WINDOW] {
        let w = WindowSpec::time(now, range);
        let norm = oracle.total(now, range) as f64;
        if norm < 100.0 {
            continue;
        }
        // Any [lo, hi] decomposes into ≤ 2·KEY_BITS dyadic ranges, each with
        // its own ε‖a_r‖₁ envelope (paper §6.1 range-sum analysis).
        let envelope = 2.0 * f64::from(KEY_BITS) * eps * norm;
        for (lo, hi) in [
            (0u64, (1 << KEY_BITS) - 1), // whole domain
            (0, 999),
            (10_000, 20_000),
            (123, 456),
            (40_000, 49_999),
        ] {
            let exact = oracle.range_sum(lo, hi, now, range) as f64;
            let answer = h.query(&Query::range_sum(lo, hi), w).unwrap().into_value();
            let est = answer.value;
            assert!(
                (est - exact).abs() <= envelope + 2.0,
                "range=({lo},{hi}) window={range} est={est} exact={exact} envelope={envelope}"
            );
            // The reported guarantee is exactly the dyadic-cover inflation
            // the envelope above hand-computes (the derived ε is tighter
            // than the builder's target, never looser).
            let g = answer.guarantee.expect("EH hierarchies carry a guarantee");
            assert!(
                g.epsilon <= 2.0 * f64::from(KEY_BITS) * eps,
                "reported ε={} exceeds the analytical budget",
                g.epsilon
            );
            assert!((est - exact).abs() <= g.epsilon * norm + 2.0);
        }
    }
}

#[test]
fn whole_domain_range_equals_total_arrivals_estimate() {
    let (events, oracle) = build_inputs(10_000, 9);
    let cfg = SketchSpec::time(WINDOW)
        .seed(2)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(KEY_BITS, &cfg);
    for e in &events {
        h.insert(e.ts, e.key);
    }
    let now = oracle.last_tick();
    let exact = oracle.total(now, WINDOW) as f64;
    let w = WindowSpec::time(now, WINDOW);
    let est = value(&h, &Query::range_sum(0, (1 << KEY_BITS) - 1), w);
    assert!(
        (est - exact).abs() <= 0.2 * exact + 2.0,
        "est={est} exact={exact}"
    );
    // The same window through Query::total_arrivals agrees with the
    // whole-domain range sum.
    let total = value(&h, &Query::total_arrivals(), w);
    assert!(
        (total - exact).abs() <= 0.2 * exact + 2.0,
        "total={total} exact={exact}"
    );
}

#[test]
fn hybrid_baseline_fails_where_hierarchy_holds() {
    // Skewed mass inside one value bin: the hybrid histogram has no handle
    // on the value dimension, the hierarchy does. This is the paper's §2
    // criticism as an executable statement.
    let eps = 0.1;
    let domain = 1u64 << KEY_BITS;
    let hcfg = HybridConfig::new(eps, WINDOW, domain, 256); // bins of 256 keys
    let mut hybrid = HybridHistogram::new(&hcfg);
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(5)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut hierarchy = EcmHierarchy::new(KEY_BITS, &cfg);

    // All mass on key 1000 (bin 3: keys 768..1023).
    let n = 20_000u64;
    for t in 1..=n {
        hybrid.insert(t, 1_000);
        hierarchy.insert(t, 1_000);
    }
    // Query a sibling key range in the same bin, truly empty.
    let (lo, hi) = (800u64, 900u64);
    let hybrid_est = hybrid.range_query(n, WINDOW, lo, hi);
    let hier_est = value(
        &hierarchy,
        &Query::range_sum(lo, hi),
        WindowSpec::time(n, WINDOW),
    );
    assert!(
        hybrid_est > 0.3 * n as f64 * (101.0 / 256.0),
        "hybrid proration should misattribute mass, got {hybrid_est}"
    );
    assert!(
        hier_est <= 0.25 * n as f64,
        "hierarchy must keep its guarantee, got {hier_est}"
    );
    assert!(
        hier_est < hybrid_est / 2.0,
        "hierarchy ({hier_est}) must beat hybrid ({hybrid_est}) on skew"
    );
}

#[test]
fn range_queries_respect_the_time_dimension() {
    let eps = 0.1;
    let cfg = SketchSpec::time(1_000)
        .epsilon(eps)
        .delta(0.05)
        .seed(8)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(8, &cfg);
    // Two epochs: keys 0..16 early, keys 64..80 late.
    for t in 1..=1_000u64 {
        h.insert(t, t % 16);
    }
    for t in 1_001..=2_000u64 {
        h.insert(t, 64 + t % 16);
    }
    // Recent window: early keys aged out.
    let w = WindowSpec::time(2_000, 900);
    let early = value(&h, &Query::range_sum(0, 15), w);
    let late = value(&h, &Query::range_sum(64, 79), w);
    assert!(early <= 150.0, "stale range must have aged out: {early}");
    assert!(
        (late - 900.0).abs() <= 250.0,
        "recent range must be present: {late}"
    );
}

#[test]
fn over_long_ranges_error_instead_of_clamping() {
    let cfg = SketchSpec::time(1_000)
        .delta(0.05)
        .seed(8)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(8, &cfg);
    for t in 1..=500u64 {
        h.insert(t, t % 16);
    }
    // The legacy API silently clamped ranges beyond the configured window;
    // the typed API reports them.
    let err = h
        .query(&Query::range_sum(0, 15), WindowSpec::time(500, 5_000))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ecm_suite::ecm::QueryError::WindowTooLong {
                requested: 5_000,
                configured: 1_000
            }
        ),
        "unexpected error: {err:?}"
    );
}
