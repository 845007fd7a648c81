//! Contract tests for the unified typed query API (`ecm::query`):
//!
//! * the *same* `Query` value yields consistent answers (within the summed
//!   ε envelopes) from a local sketch, a dyadic hierarchy, and a
//!   tree-aggregated distributed root;
//! * `Estimate` guarantees are honored against exact ground truth,
//!   including through the `EcmExact` same-API harness;
//! * `WindowSpec` validation turns the legacy silent clamps into typed
//!   errors on every backend;
//! * all backends dispatch through `&dyn SketchReader` trait objects.

use ecm_suite::distributed::aggregate_tree;
use ecm_suite::ecm::{
    Answer, Backend, Clock, EcmEh, EcmExact, EcmHierarchy, Query, QueryError, SketchReader,
    SketchSpec, SketchWriter, Threshold, WindowSpec,
};
use ecm_suite::sliding_window::ExponentialHistogram;
use ecm_suite::stream_gen::{worldcup_like, WindowOracle};

const WINDOW: u64 = 1_000_000;
const EVENTS: usize = 30_000;
const EPS: f64 = 0.1;
const BITS: u32 = 16;

fn value(reader: &dyn SketchReader, q: &Query<'_>, w: WindowSpec) -> f64 {
    reader
        .query(q, w)
        .expect("in-window query must succeed")
        .into_value()
        .value
}

/// Build the three time-based backends over the identical event stream.
fn build_backends(
    events: &[ecm_suite::stream_gen::Event],
) -> (
    EcmEh,
    EcmHierarchy<ExponentialHistogram>,
    ecm_suite::distributed::AggregationOutcome<ExponentialHistogram>,
) {
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(0.05)
        .seed(9)
        .ecm_config()
        .unwrap();

    let mut local = EcmEh::new(&cfg);
    for e in events {
        local.insert(e.ts, e.key);
    }

    let mut hierarchy = EcmHierarchy::new(BITS, &cfg);
    for e in events {
        hierarchy.insert(e.ts, e.key);
    }

    let sites = 8usize;
    let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); sites];
    for e in events {
        parts[(e.site as usize) % sites].push((e.key, e.ts));
    }
    let aggregated = aggregate_tree(
        sites,
        |i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for &(k, t) in &parts[i] {
                sk.insert(t, k);
            }
            sk
        },
        &cfg.cell,
    )
    .expect("homogeneous merge");

    (local, hierarchy, aggregated)
}

#[test]
fn same_query_consistent_across_backends() {
    let events = worldcup_like(EVENTS, 51);
    let oracle = WindowOracle::from_events(&events);
    let (local, hierarchy, aggregated) = build_backends(&events);
    let now = oracle.last_tick();

    for range in [100_000u64, WINDOW] {
        let w = WindowSpec::time(now, range);
        let norm = oracle.total(now, range) as f64;
        if norm < 500.0 {
            continue;
        }
        let mut checked = 0u32;
        for key in (0..3_000u64).step_by(7) {
            let exact = oracle.frequency(key, now, range) as f64;
            if exact == 0.0 {
                continue;
            }
            checked += 1;
            let q = Query::point(key);
            let answers = [
                ("local", local.query(&q, w).unwrap().into_value()),
                ("hierarchy", hierarchy.query(&q, w).unwrap().into_value()),
                ("aggregated", aggregated.query(&q, w).unwrap().into_value()),
            ];
            // Each backend's observed error is covered by the guarantee it
            // itself reports (the aggregated backend's is widened by the
            // tree's Theorem-4 merge inflation).
            for (name, est) in answers {
                let g = est.guarantee.expect("EH backends carry guarantees");
                assert!(
                    (est.value - exact).abs() <= g.epsilon * norm + 2.0,
                    "{name}: key={key} range={range} est={} exact={exact} ε={}",
                    est.value,
                    g.epsilon
                );
            }
            // Any two backends agree within the sum of envelopes.
            for (na, ea) in answers {
                for (nb, eb) in answers {
                    assert!(
                        (ea.value - eb.value).abs() <= 4.0 * EPS * norm + 4.0,
                        "{na} vs {nb} disagree at key {key}: {} vs {}",
                        ea.value,
                        eb.value
                    );
                }
            }
            // The merged backend must report a strictly wider contract than
            // the local sketch it was merged from.
            assert!(
                answers[2].1.guarantee.unwrap().epsilon > answers[0].1.guarantee.unwrap().epsilon,
                "aggregation must widen the guarantee"
            );
        }
        assert!(checked > 20, "workload too sparse at range {range}");
    }

    // Scalar aggregates answer consistently too.
    let w = WindowSpec::time(now, WINDOW);
    let norm = oracle.total(now, WINDOW) as f64;
    let totals = [
        value(&local, &Query::total_arrivals(), w),
        value(&hierarchy, &Query::total_arrivals(), w),
        value(&aggregated, &Query::total_arrivals(), w),
    ];
    for t in totals {
        assert!((t - norm).abs() <= 0.15 * norm, "total {t} vs norm {norm}");
    }
}

#[test]
fn estimates_honor_their_guarantees_against_exact_ground_truth() {
    let events = worldcup_like(EVENTS, 77);
    let oracle = WindowOracle::from_events(&events);
    let now = oracle.last_tick();

    // The EcmExact harness answers the same typed API with exact window
    // counters — its guarantee collapses to hashing error only.
    let b = SketchSpec::time(WINDOW).epsilon(EPS).delta(0.05).seed(4);
    let mut exact_backend = EcmExact::new(&b.clone().backend(Backend::Exact).ecm_config().unwrap());
    let mut eh_backend = EcmEh::new(&b.clone().ecm_config().unwrap());
    for e in &events {
        exact_backend.insert(e.ts, e.key);
        eh_backend.insert(e.ts, e.key);
    }

    for range in [300_000u64, WINDOW] {
        let w = WindowSpec::time(now, range);
        let norm = oracle.total(now, range) as f64;
        if norm < 500.0 {
            continue;
        }
        let mut violations_eh = 0u32;
        let mut violations_exact = 0u32;
        let mut n = 0u32;
        for key in (0..3_000u64).step_by(7) {
            let truth = oracle.frequency(key, now, range) as f64;
            if truth == 0.0 {
                continue;
            }
            n += 1;

            let est = eh_backend
                .query(&Query::point(key), w)
                .unwrap()
                .into_value();
            let g = est.guarantee.expect("EH carries a guarantee");
            // Derived ε must not exceed the configured budget.
            assert!(g.epsilon <= EPS + 1e-9);
            if (est.value - truth).abs() > est.absolute_bound(norm).unwrap() + 2.0 {
                violations_eh += 1;
            }

            let est = exact_backend
                .query(&Query::point(key), w)
                .unwrap()
                .into_value();
            let g = est.guarantee.expect("exact harness carries a guarantee");
            // Exact counters: window ε = 0, so the bound is pure hashing.
            assert!(g.epsilon <= EPS + 1e-9);
            // Count-Min is one-sided: never underestimates exact counts.
            assert!(est.value >= truth - 1e-9);
            if (est.value - truth).abs() > est.absolute_bound(norm).unwrap() + 2.0 {
                violations_exact += 1;
            }
        }
        assert!(n > 30, "workload too sparse");
        // The guarantee holds with probability ≥ 1 − δ per query; allow δ
        // (5%) plus sampling slack.
        assert!(
            violations_eh * 10 <= n,
            "range {range}: {violations_eh}/{n} EH guarantee violations"
        );
        assert!(
            violations_exact * 10 <= n,
            "range {range}: {violations_exact}/{n} exact-harness violations"
        );
    }
}

#[test]
fn window_validation_rejects_out_of_contract_queries_on_every_backend() {
    let events = worldcup_like(2_000, 5);
    let (local, hierarchy, aggregated) = build_backends(&events);
    let now = events.last().unwrap().ts;

    let too_long = WindowSpec::time(now, WINDOW + 1);
    let count_w = WindowSpec::last(100);
    let q = Query::point(1);

    for (name, backend) in [
        ("local", &local as &dyn SketchReader),
        ("hierarchy", &hierarchy),
        ("aggregated", &aggregated),
    ] {
        assert!(
            matches!(
                backend.query(&q, too_long),
                Err(QueryError::WindowTooLong {
                    requested,
                    configured: WINDOW
                }) if requested == WINDOW + 1
            ),
            "{name} must reject over-long windows"
        );
        assert!(
            matches!(
                backend.query(&q, count_w),
                Err(QueryError::ClockMismatch { .. })
            ),
            "{name} must reject count-based windows"
        );
    }

    // Count-clock sketches mirror the validation on their own clock.
    let mut cb = SketchSpec::count(1_000)
        .epsilon(EPS)
        .seed(2)
        .build()
        .unwrap();
    for i in 0..500u64 {
        cb.insert(0, i % 10);
    }
    assert!(matches!(
        cb.query(&q, WindowSpec::last(1_001)),
        Err(QueryError::WindowTooLong {
            requested: 1_001,
            configured: 1_000
        })
    ));
    assert!(matches!(
        cb.query(&q, WindowSpec::time(500, 100)),
        Err(QueryError::ClockMismatch { .. })
    ));
}

#[test]
fn trait_object_dispatch_over_all_backends() {
    let events = worldcup_like(5_000, 33);
    let now = events.last().unwrap().ts;
    // Count-clock twins over the same key sequence.
    let count = SketchSpec::count(WINDOW).epsilon(EPS).seed(9);
    let mut cb_sketch = count.build().unwrap();
    let mut cb_hierarchy = count.hierarchy(BITS).build().unwrap();
    for e in &events {
        cb_sketch.insert(0, e.key);
        cb_hierarchy.insert(0, e.key);
    }

    let (local, hierarchy, aggregated) = build_backends(&events);

    // One heterogeneous registry, as a serving layer would hold it; each
    // entry carries the window vocabulary it speaks.
    let time_w = WindowSpec::time(now, WINDOW);
    let count_w = WindowSpec::last(events.len() as u64);
    let registry: Vec<(&'static str, Box<dyn SketchReader>, WindowSpec)> = vec![
        ("EcmSketch", Box::new(local), time_w),
        ("EcmHierarchy", Box::new(hierarchy), time_w),
        ("AggregationOutcome", Box::new(aggregated), time_w),
        ("EcmSketch", cb_sketch, count_w),
        ("EcmHierarchy", cb_hierarchy, count_w),
    ];

    let probe = events[0].key;
    let cutoff = now.saturating_sub(WINDOW);
    // Time windows cover only the trailing WINDOW ticks; count windows
    // cover the whole trace. Score each registry entry on its own slice.
    let exact_in = |time_based: bool| -> (f64, f64) {
        let in_slice = |e: &&ecm_suite::stream_gen::Event| !time_based || e.ts > cutoff;
        (
            events
                .iter()
                .filter(in_slice)
                .filter(|e| e.key == probe)
                .count() as f64,
            events.iter().filter(in_slice).count() as f64,
        )
    };
    for (name, backend, w) in &registry {
        assert_eq!(backend.backend(), *name, "backend self-identification");
        let (exact, slice_total) = exact_in(matches!(w, WindowSpec::Time { .. }));
        // Point queries dispatch everywhere and stay in the envelope.
        let est = backend
            .query(&Query::point(probe), *w)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .into_value();
        assert!(
            (est.value - exact).abs() <= EPS * slice_total + 2.0,
            "{name}: est {} exact {exact}",
            est.value
        );

        // Total arrivals dispatches everywhere.
        let total = backend
            .query(&Query::total_arrivals(), *w)
            .unwrap()
            .into_value();
        assert!(
            (total.value - slice_total).abs() <= 0.2 * slice_total,
            "{name}: total {} vs {slice_total}",
            total.value
        );

        // Key-structured queries answer on hierarchies and return typed
        // Unsupported elsewhere.
        match backend.query(&Query::quantile(0.5), *w) {
            Ok(Answer::Quantile(Some(_))) => {
                assert!(
                    name.contains("Hierarchy"),
                    "{name} unexpectedly answered a quantile"
                );
            }
            Err(QueryError::Unsupported { backend: b, .. }) => {
                assert_eq!(b, *name);
            }
            other => panic!("{name}: unexpected quantile outcome {other:?}"),
        }
    }
}

#[test]
fn heavy_hitters_agree_between_hierarchy_clocks() {
    // The same logical stream addressed by tick and by arrival index gives
    // the same heavy-hitter set when the windows coincide.
    let spec = SketchSpec::time(10_000).epsilon(0.05).delta(0.05).seed(3);
    let mut time_h: EcmHierarchy<ExponentialHistogram> =
        EcmHierarchy::new(10, &spec.ecm_config().unwrap());
    let count = SketchSpec::count(10_000).epsilon(0.05).delta(0.05).seed(3);
    let mut count_h = count.hierarchy(10).build().unwrap();
    for i in 1..=10_000u64 {
        let key = if i % 4 == 0 { 77 } else { i % 512 };
        time_h.insert(i, key); // tick = arrival index
        count_h.insert(0, key);
    }
    let q = Query::heavy_hitters(Threshold::Relative(0.2));
    let from_time = time_h
        .query(&q, WindowSpec::time(10_000, 10_000))
        .unwrap()
        .into_heavy_hitters();
    let from_count = count_h
        .query(&q, WindowSpec::last(10_000))
        .unwrap()
        .into_heavy_hitters();
    let keys_t: Vec<u64> = from_time.iter().map(|&(k, _)| k).collect();
    let keys_c: Vec<u64> = from_count.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys_t, keys_c);
    assert!(keys_t.contains(&77));
}

#[test]
fn inner_product_pairs_compatible_backends_only() {
    let cfg = SketchSpec::time(10_000).seed(6).ecm_config().unwrap();
    let mut a = EcmEh::new(&cfg);
    let mut b = EcmEh::new(&cfg);
    for t in 1..=4_000u64 {
        a.insert(t, t % 8);
        b.insert(t, t % 16);
    }
    let w = WindowSpec::time(4_000, 10_000);
    // a: 500 per key on 0..8; b: 250 per key on 0..16; overlap 8·500·250.
    let ip = a.query(&Query::inner_product(&b), w).unwrap().into_value();
    let exact = 8.0 * 500.0 * 250.0;
    assert!(
        (ip.value - exact).abs() <= 0.4 * exact,
        "ip={} exact={exact}",
        ip.value
    );
    // Inner products are symmetric operands.
    let ip_rev = b.query(&Query::inner_product(&a), w).unwrap().into_value();
    assert!((ip.value - ip_rev.value).abs() <= 1e-6 * exact);

    // An operand of another backend (a hierarchy) cannot pair with a
    // plain sketch.
    let h = EcmHierarchy::<ExponentialHistogram>::new(4, &cfg);
    let err = a.query(&Query::inner_product(&h), w).unwrap_err();
    assert!(matches!(err, QueryError::IncompatibleOperand { .. }));

    // Neither is a sketch hashed with another seed, on either clock.
    for base in [SketchSpec::time(1_000), SketchSpec::count(1_000)] {
        let [mut x, mut y] = [1, 2].map(|seed| base.clone().seed(seed).build().unwrap());
        for t in 1..=1_000u64 {
            x.insert(t, t % 4);
            y.insert(t, t % 4);
        }
        let w = match base.clock() {
            Clock::Time => WindowSpec::time(1_000, 1_000),
            Clock::Count => WindowSpec::last(1_000),
        };
        let err = x.query(&Query::inner_product(&*y), w);
        assert!(
            matches!(err, Err(QueryError::IncompatibleOperand { .. })),
            "{:?} clock: {err:?}",
            base.clock()
        );
    }

    // An aggregation outcome pairs with another outcome or a plain sketch
    // of the same counter type; anything else is rejected with the
    // outcome — not its inner root — named in the error.
    let out = aggregate_tree(2, |i| if i == 0 { a.clone() } else { b.clone() }, &cfg.cell).unwrap();
    let paired = out
        .query(&Query::inner_product(&a), w)
        .unwrap()
        .into_value();
    assert!(paired.value > 0.0);
    let err = out.query(&Query::inner_product(&h), w).unwrap_err();
    match err {
        QueryError::IncompatibleOperand { detail } => {
            assert!(detail.contains("AggregationOutcome"), "detail: {detail}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn spec_built_backends_agree_with_hand_constructed_ones() {
    // The legacy positional shims are gone; the compatibility claim that
    // replaces them is construction-side: a `SketchSpec`-built trait object
    // answers byte-identically to the hand-built sketch it describes (the
    // full per-backend matrix lives in tests/dyn_sketch.rs).
    use ecm_suite::ecm::{Backend, SketchSpec};
    let events = worldcup_like(8_000, 21);
    let now = events.last().unwrap().ts;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(0.05)
        .seed(9)
        .ecm_config()
        .unwrap();
    let mut sk = EcmEh::new(&cfg);
    let mut dyn_sk = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(0.05)
        .seed(9)
        .backend(Backend::Eh)
        .build()
        .expect("valid spec");
    for e in &events {
        sk.insert(e.ts, e.key);
        dyn_sk.insert(e.ts, e.key);
    }
    let w = WindowSpec::time(now, WINDOW);
    for key in (0..500u64).step_by(11) {
        assert_eq!(
            value(&sk, &Query::point(key), w),
            value(&*dyn_sk, &Query::point(key), w)
        );
    }
    assert_eq!(
        value(&sk, &Query::self_join(), w),
        value(&*dyn_sk, &Query::self_join(), w)
    );
}
