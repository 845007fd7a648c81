//! Differential suite for the unified write API: a `SketchSpec`-built
//! `Box<dyn Sketch>` fed through the object-safe `SketchWriter` surface
//! must be **byte-identical** in its answers to the concrete backend built
//! from the same spec's typed config and fed through the same trait by
//! static dispatch — for every backend, every ingest path (single,
//! weighted, batched), and every query the backend supports. Plus the
//! `SketchSpec` validation-error matrix and the write precondition: a
//! refused write is a typed error that leaves the sketch's bytes alone, in
//! release builds too.
//!
//! This is the write-side analogue of `tests/batched_ingest.rs`: f64
//! results are compared by bit pattern, not tolerance.

use ecm_suite::ecm::{
    grouped_runs, Answer, Backend, Clock, EcmEh, EcmHierarchy, Query, QueryError, Sketch,
    SketchReader, SketchSpec, SketchStore, SpecBackend, SpecError, StreamEvent, Threshold,
    WindowSpec, WriteError,
};
use ecm_suite::ecm::{EcmSketch, SketchWriter};
use ecm_suite::sliding_window::ExponentialHistogram;
use ecm_suite::stream_gen::{SeededRng, ZipfSampler};
use proptest::prelude::*;
use sliding_window::{DeterministicWave, ExactWindow, RandomizedWave};

const WINDOW: u64 = 10_000;
const EVENTS: usize = 6_000;

/// A bursty Zipf trace (runs of equal events included, so the batched path
/// has something to group).
fn trace(seed: u64) -> Vec<StreamEvent> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(512, 1.1);
    let mut out = Vec::with_capacity(EVENTS);
    let mut ts = 1u64;
    while out.len() < EVENTS {
        ts += rng.gen_range(0..3u64);
        let key = zipf.sample(&mut rng);
        let run = if rng.gen_bool(0.25) {
            rng.gen_range(1..20u64)
        } else {
            1
        };
        for _ in 0..run {
            out.push(StreamEvent::new(key, ts));
        }
    }
    out
}

/// Assert two readers give bit-identical scalar answers for a query set.
fn assert_scalar_parity(
    concrete: &dyn SketchReader,
    boxed: &dyn SketchReader,
    queries: &[Query<'_>],
    w: WindowSpec,
    label: &str,
) {
    for q in queries {
        let a = concrete.query(q, w);
        let b = boxed.query(q, w);
        match (a, b) {
            (Ok(Answer::Value(ea)), Ok(Answer::Value(eb))) => {
                assert_eq!(
                    ea.value.to_bits(),
                    eb.value.to_bits(),
                    "{label}: {q:?} diverged ({} vs {})",
                    ea.value,
                    eb.value
                );
                assert_eq!(ea.guarantee, eb.guarantee, "{label}: {q:?} guarantee");
            }
            (a, b) => panic!("{label}: {q:?} gave {a:?} vs {b:?}"),
        }
    }
}

/// Split the trace into the three ingest spellings: per-event, weighted
/// runs, batched. Both sides of every parity test use the same split.
fn thirds(events: &[StreamEvent]) -> (&[StreamEvent], &[StreamEvent], &[StreamEvent]) {
    let third = events.len() / 3;
    (
        &events[..third],
        &events[third..2 * third],
        &events[2 * third..],
    )
}

/// Feed a sketch through the three spellings — the concrete side by static
/// dispatch, the spec-built `Box<dyn Sketch>` through the vtable.
fn feed<S: SketchWriter + ?Sized>(sk: &mut S, events: &[StreamEvent]) {
    let (single, weighted, batched) = thirds(events);
    for e in single {
        sk.insert(e.ts, e.item);
    }
    for (run, n) in grouped_runs(weighted) {
        sk.insert_weighted(run.ts, run.item, n);
    }
    sk.ingest_batch(batched);
}

const EPS: f64 = 0.15;
const DELTA: f64 = 0.1;
const SEED: u64 = 31;

fn spec(backend: Backend) -> SketchSpec {
    SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(DELTA)
        .seed(SEED)
        .backend(backend)
}

fn scalar_queries<'a>() -> Vec<Query<'a>> {
    vec![
        Query::point(1),
        Query::point(7),
        Query::self_join(),
        Query::total_arrivals(),
    ]
}

/// Typed-vs-dyn parity for one plain counter type: build the concrete
/// sketch from the spec's typed config and the trait object from the spec
/// itself, feed both the same trace, then compare answers bit for bit.
fn check_plain_backend<W>(label: &str, spec: &SketchSpec)
where
    W: SpecBackend + std::fmt::Debug + 'static,
    W::Config: 'static,
{
    let events = trace(1);
    let now = events.last().unwrap().ts;
    let mut concrete = EcmSketch::<W>::new(&spec.ecm_config().unwrap());
    let mut boxed = spec.build().unwrap();
    feed(&mut concrete, &events);
    feed(&mut *boxed, &events);
    for w in [
        WindowSpec::time(now, WINDOW),
        WindowSpec::time(now, WINDOW / 7),
    ] {
        assert_scalar_parity(&concrete, &*boxed, &scalar_queries(), w, label);
    }
}

#[test]
fn plain_sketch_backends_dispatch_identically() {
    let waves = |backend| spec(backend).max_arrivals(EVENTS as u64 * 2);
    check_plain_backend::<ExponentialHistogram>("eh", &spec(Backend::Eh));
    check_plain_backend::<DeterministicWave>("dw", &waves(Backend::Dw));
    check_plain_backend::<RandomizedWave>("rw", &waves(Backend::Rw).epsilon(0.3));
    check_plain_backend::<ExactWindow>("exact", &spec(Backend::Exact));
}

#[test]
fn hierarchy_backends_dispatch_identically_including_key_queries() {
    let events = trace(2);
    let now = events.last().unwrap().ts;
    let w = WindowSpec::time(now, WINDOW);

    let mut concrete: EcmHierarchy<ExponentialHistogram> =
        EcmHierarchy::new(10, &spec(Backend::Eh).ecm_config().unwrap());
    let mut boxed = spec(Backend::Eh).hierarchy(10).build().unwrap();
    feed(&mut concrete, &events);
    feed(&mut *boxed, &events);

    assert_scalar_parity(&concrete, &*boxed, &scalar_queries(), w, "hierarchy");
    assert_scalar_parity(
        &concrete,
        &*boxed,
        &[Query::range_sum(3, 200), Query::range_sum(0, 1_023)],
        w,
        "hierarchy",
    );
    for q in [
        Query::heavy_hitters(Threshold::Relative(0.02)),
        Query::heavy_hitters(Threshold::Absolute(40.0)),
    ] {
        let a = concrete.query(&q, w).unwrap().into_heavy_hitters();
        let b = boxed.query(&q, w).unwrap().into_heavy_hitters();
        assert_eq!(a.len(), b.len(), "{q:?}");
        for ((ka, ea), (kb, eb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(ea.value.to_bits(), eb.value.to_bits());
        }
    }
    for phi in [0.1, 0.5, 0.99] {
        assert_eq!(
            concrete.query(&Query::quantile(phi), w).unwrap(),
            boxed.query(&Query::quantile(phi), w).unwrap(),
            "phi={phi}"
        );
    }
}

/// The count clock is the time clock over arrival-index ticks (paper
/// §4.2.1): a count-clock sketch fed through every ingest spelling answers
/// bit-identically to a time-clock sketch fed each arrival at its index.
#[test]
fn count_based_backends_dispatch_identically() {
    let events = trace(4);
    let n = events.len() as u64;
    for bits in [None, Some(10)] {
        let build = |s: SketchSpec| match bits {
            None => s.build().unwrap(),
            Some(b) => s.hierarchy(b).build().unwrap(),
        };
        let mut by_count = build(
            SketchSpec::count(WINDOW)
                .epsilon(EPS)
                .delta(DELTA)
                .seed(SEED),
        );
        let mut by_tick = build(spec(Backend::Eh));
        feed(&mut *by_count, &events);
        for (i, e) in (1..).zip(&events) {
            by_tick.insert(i, e.item);
        }
        let mut queries = scalar_queries();
        if bits.is_some() {
            queries.extend([Query::range_sum(0, 255), Query::quantile(0.5)]);
        }
        // A sub-window, and the whole window: more than the history.
        for (q, range) in queries.iter().flat_map(|q| [(q, WINDOW / 2), (q, WINDOW)]) {
            assert_eq!(
                by_count.query(q, WindowSpec::last(range)),
                by_tick.query(q, WindowSpec::time(n, range)),
                "{bits:?} {q:?} over {range}"
            );
        }
    }
}

#[test]
fn inner_product_works_through_trait_objects() {
    let events = trace(6);
    let now = events.last().unwrap().ts;
    let w = WindowSpec::time(now, WINDOW);

    let mut a = spec(Backend::Eh).build().unwrap();
    let mut b = spec(Backend::Eh).build().unwrap();
    let mut ca = EcmEh::new(&spec(Backend::Eh).ecm_config().unwrap());
    let mut cb = EcmEh::new(&spec(Backend::Eh).ecm_config().unwrap());
    for e in &events {
        a.insert(e.ts, e.item);
        ca.insert(e.ts, e.item);
        b.insert(e.ts, e.item % 37);
        cb.insert(e.ts, e.item % 37);
    }
    // The dyn-built operand must downcast inside the query layer exactly
    // like the concrete one.
    let concrete_ip = ca
        .query(&Query::inner_product(&cb), w)
        .unwrap()
        .into_value();
    let boxed_ip = a.query(&Query::inner_product(&*b), w).unwrap().into_value();
    assert_eq!(concrete_ip.value.to_bits(), boxed_ip.value.to_bits());

    // Mismatched trait objects are rejected with both backend names.
    let h = spec(Backend::Eh).hierarchy(10).build().unwrap();
    let err = a.query(&Query::inner_product(&*h), w).unwrap_err();
    match err {
        QueryError::IncompatibleOperand { detail } => {
            assert!(detail.contains("EcmSketch") && detail.contains("EcmHierarchy"));
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn a_heterogeneous_registry_of_dyn_sketches_is_usable() {
    // The point of `Box<dyn Sketch>`: one collection, many backend shapes,
    // driven through the same two traits.
    let mut registry: Vec<(&str, Box<dyn Sketch>)> = vec![
        ("eh", spec(Backend::Eh).build().unwrap()),
        ("exact", spec(Backend::Exact).build().unwrap()),
        ("hier", spec(Backend::Eh).hierarchy(10).build().unwrap()),
    ];
    let events = trace(7);
    let now = events.last().unwrap().ts;
    for (_, sk) in &mut registry {
        sk.ingest_batch(&events);
        sk.advance_to(now);
    }
    let w = WindowSpec::time(now, WINDOW);
    for (name, sk) in &registry {
        let est = sk
            .query(&Query::point(1), w)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .into_value();
        assert!(est.value >= 0.0, "{name}");
        assert!(!sk.backend().is_empty(), "{name}");
    }
}

#[test]
fn spec_validation_error_matrix() {
    let cases: Vec<(SketchSpec, &str)> = vec![
        (SketchSpec::time(0), "zero window"),
        (SketchSpec::time(10).epsilon(0.0), "zero epsilon"),
        (SketchSpec::time(10).epsilon(1.0), "epsilon at 1"),
        (SketchSpec::time(10).epsilon(-0.5), "negative epsilon"),
        (SketchSpec::time(10).delta(0.0), "zero delta"),
        (SketchSpec::time(10).delta(1.5), "delta above 1"),
        (SketchSpec::time(10).hierarchy(0), "zero bits"),
        (SketchSpec::time(10).hierarchy(64), "too many bits"),
        (SketchSpec::time(10).max_arrivals(0), "zero max_arrivals"),
    ];
    for (bad, label) in cases {
        let validate_err = bad.validate().expect_err(label);
        let build_err = bad.build().map(|_| ()).expect_err(label);
        assert_eq!(validate_err, build_err, "{label}: validate/build disagree");
        assert!(!validate_err.to_string().is_empty(), "{label}");
    }

    // The error *kinds* are typed, not stringly.
    assert!(matches!(
        SketchSpec::time(0).validate(),
        Err(SpecError::ZeroWindow)
    ));
    assert!(matches!(
        SketchSpec::time(10).epsilon(7.0).validate(),
        Err(SpecError::InvalidEpsilon { got }) if got == 7.0
    ));
}

#[test]
fn spec_accessors_reflect_the_description() {
    let s = SketchSpec::count(500).backend(Backend::Exact);
    assert_eq!(s.clock(), Clock::Count);
    assert_eq!(s.window(), 500);
    assert_eq!(s.declared_backend(), Backend::Exact);
    assert_eq!(Backend::Exact.name(), "exact");
}

/// The spec matrix every differential suite shares, over this suite's
/// 1 000-tick window.
fn matrix_specs() -> impl Iterator<Item = SketchSpec> {
    SketchSpec::matrix(1_000).into_iter().map(|(_, spec)| spec)
}

/// The write precondition, checked in every build profile: after
/// `advance_to`, a time-clock sketch refuses an earlier tick with a typed
/// `StaleTimestamp` and its snapshot bytes do not move; a count-clock
/// sketch owns its clock and never reports stale; a hierarchy refuses an
/// item outside its universe with `OutOfUniverse` instead of panicking.
/// Every spec the library builds answers with its (ε, δ) guarantee.
#[test]
fn refused_writes_are_typed_and_leave_the_sketch_untouched() {
    for (label, spec) in SketchSpec::matrix(1_000) {
        let mut sk = spec.build().unwrap();
        for t in 1..=200u64 {
            sk.insert(t, t % 16);
        }
        let w = match spec.clock() {
            Clock::Time => WindowSpec::time(200, 1_000),
            Clock::Count => WindowSpec::last(1_000),
        };
        let point = sk.query(&Query::point(3), w).unwrap().into_value();
        assert!(point.guarantee.is_some(), "{label}: no guarantee");
        sk.advance_to(500);
        let before = spec.snapshot(&*sk).unwrap();
        let stale = sk.try_insert_weighted(499, 3, 2);
        match spec.clock() {
            Clock::Time => {
                assert_eq!(
                    stale,
                    Err(WriteError::StaleTimestamp {
                        ts: 499,
                        clock: 500
                    }),
                    "{label}"
                );
                assert!(
                    spec.snapshot(&*sk).unwrap() == before,
                    "{label}: state moved"
                );
                // The clock's own tick is not stale.
                assert_eq!(sk.try_insert_weighted(500, 3, 1), Ok(()), "{label}");
            }
            Clock::Count => assert_eq!(stale, Ok(()), "{label}: count clocks are never stale"),
        }
        if let Some(bits) = spec.hierarchy_bits() {
            let before = spec.snapshot(&*sk).unwrap();
            assert_eq!(
                sk.try_insert_weighted(600, 1 << bits, 1),
                Err(WriteError::OutOfUniverse {
                    item: 1 << bits,
                    bits
                }),
                "{label}"
            );
            assert!(
                spec.snapshot(&*sk).unwrap() == before,
                "{label}: state moved"
            );
        }
    }
}

/// Everything a store can be asked, rendered so that f64s compare by bit
/// pattern (`{:?}` prints the shortest string that round-trips).
fn observe(store: &SketchStore<u64>, spec: &SketchSpec, now: u64) -> String {
    let w = match spec.clock() {
        Clock::Time => WindowSpec::time(now, 1_000),
        Clock::Count => WindowSpec::last(200),
    };
    let mut out = format!("keys={:?}", store.keys());
    for q in [
        Query::total_arrivals(),
        Query::self_join(),
        Query::point(0),
        Query::point(3),
        Query::range_sum(0, 7),
    ] {
        out.push_str(&format!("\n{q:?} -> {:?}", store.query_all(&q, w)));
    }
    out.push_str(&format!(
        "\ntop={:?}",
        store.top_k(3, &Query::total_arrivals(), w)
    ));
    out
}

/// What `SketchStore::top_k` must return, built the long way round: every
/// key's answer, scalars only, sorted by (score descending, key
/// ascending), cut at `k`. Scores are rendered as bit patterns.
fn top_k_by_scan(
    store: &SketchStore<u64>,
    k: usize,
    q: &Query<'_>,
    w: WindowSpec,
) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, f64)> = store
        .query_all(q, w)
        .into_iter()
        .filter_map(|(key, answer)| Some((key, answer.ok()?.value()?)))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
    rows.truncate(k);
    rows.into_iter()
        .map(|(key, v)| (key, v.to_bits()))
        .collect()
}

/// `top_k` against [`top_k_by_scan`] on one store: every `k` that is
/// special (1, a few, exactly all, more than all, `usize::MAX`) and two
/// random ones, total and non-total queries, and random windows — `now` behind, at and far past
/// the write clock, `range` up to and beyond the configured window (the
/// latter an error on every key: both sides rank nothing).
fn assert_top_k_matches_scan(
    store: &SketchStore<u64>,
    spec: &SketchSpec,
    rng: &mut SeededRng,
    clock: u64,
    label: &str,
) {
    let len = store.len();
    for round in 0..4 {
        let w = match spec.clock() {
            Clock::Time => WindowSpec::time(
                rng.gen_range(0..clock + 2_500),
                if round == 0 {
                    1_000
                } else {
                    rng.gen_range(0..1_200u64)
                },
            ),
            Clock::Count => WindowSpec::last(rng.gen_range(0..1_200u64)),
        };
        for q in [
            Query::total_arrivals(),
            Query::point(rng.gen_range(0..8u64)),
            Query::self_join(),
        ] {
            let ks = [
                1,
                3,
                len,
                len + 5,
                usize::MAX,
                rng.gen_range(1..len + 1),
                rng.gen_range(1..len + 1),
            ];
            for k in ks {
                let got: Vec<(u64, u64)> = store
                    .top_k(k, &q, w)
                    .into_iter()
                    .map(|(key, v)| (key, v.to_bits()))
                    .collect();
                assert_eq!(
                    got,
                    top_k_by_scan(store, k, &q, w),
                    "{label}: top_k({k}, {q:?}, {w:?}) over {len} keys"
                );
            }
        }
    }
}

/// A true deep copy: through the bytes of a full snapshot.
fn deep_copy(store: &mut SketchStore<u64>) -> SketchStore<u64> {
    SketchStore::load_snapshot(&store.write_snapshot().expect("encode")).expect("decode")
}

/// The heaviest run one protocol line can carry (`MAX_COUNT` of `sketchd`).
const HEAVIEST_RUN: u64 = 1 << 20;

/// Six batches of weighted runs over five tenants: keys interleave, a line
/// is repeated verbatim right after itself and again after another key's
/// line (adjacent duplicates before and after grouping), and every batch
/// opens on a tenant the previous one did not end on — so a store of three
/// slots creates a key mid-batch while full, every batch.
fn run_batches(weight: impl Fn(usize) -> u64) -> Vec<Vec<(u64, StreamEvent, u64)>> {
    let mut ts = 1u64;
    let mut line = 0usize;
    (0..6u64)
        .map(|b| {
            let mut batch = Vec::new();
            for i in 0..12u64 {
                ts += i % 2;
                let key = (b + i * i) % 5;
                let run = (key, StreamEvent::new((i + b) % 8, ts), weight(line));
                line += 1;
                batch.push(run);
                if i % 4 == 1 {
                    batch.push(run);
                }
                if i % 4 == 2 {
                    batch.push(((key + 1) % 5, StreamEvent::new(7, ts), 1));
                    batch.push(run);
                }
            }
            batch
        })
        .collect()
}

/// Feed `batch` the way the store documents a batch: tenants in order of
/// first appearance, each absorbing its own lines in arrival order — one
/// `insert` per occurrence. (The heaviest runs go through
/// `insert_weighted`; that it equals the loop is `batched_ingest.rs`.)
fn feed_per_occurrence(store: &mut SketchStore<u64>, batch: &[(u64, StreamEvent, u64)]) {
    let mut order: Vec<u64> = Vec::new();
    for (key, _, _) in batch {
        if !order.contains(key) {
            order.push(*key);
        }
    }
    for key in order {
        let sketch = store.sketch_mut(&key);
        for (_, e, n) in batch.iter().filter(|(k, _, _)| *k == key) {
            if *n >= HEAVIEST_RUN {
                sketch.insert_weighted(e.ts, e.item, *n);
            } else {
                for _ in 0..*n {
                    sketch.insert(e.ts, e.item);
                }
            }
        }
    }
}

/// `ingest_runs(batch)` ≡ `ingest(batch written out per occurrence)` ≡ one
/// `insert` per occurrence, down to the bytes: two full snapshots and the
/// resident keys — on all eight backend specs, for weights all 1 and mixed;
/// and for lines at the protocol's cap next to light ones.
#[test]
fn runs_unbatched_events_and_single_inserts_build_the_same_store() {
    type Weights = (&'static str, fn(usize, u64) -> u64);
    let weightings: [Weights; 3] = [
        ("ones", |_, _| 1),
        ("mixed", |line, _| 1 + (line as u64 * 7) % 32),
        ("heaviest", |line, cap| [cap, 3][line % 3 / 2]),
    ];
    for (i, spec) in matrix_specs().enumerate() {
        // A count-based window ticks once per occurrence, so a run at the
        // cap is a million ticks through a 1 000-tick window, by design
        // O(weight) a line: those two specs get a lighter "heaviest".
        let cap = match spec.clock() {
            Clock::Time => HEAVIEST_RUN,
            Clock::Count => 1 << 12,
        };
        for (name, weight) in weightings {
            let mut batches = run_batches(|line| weight(line, cap));
            if name == "heaviest" {
                // Three lines a batch, two batches: written out per
                // occurrence that is four million events.
                for batch in &mut batches {
                    batch.truncate(3);
                }
                batches.truncate(2);
            }
            let fresh = || SketchStore::<u64>::new(spec.clone()).expect("valid spec");
            let label = format!("spec {i}, weights {name}");
            let (mut runs, mut events, mut singles) = (fresh(), fresh(), fresh());
            for (b, batch) in batches.iter().enumerate() {
                runs.ingest_runs(batch);
                let unbatched: Vec<(u64, StreamEvent)> = batch
                    .iter()
                    .flat_map(|&(key, e, n)| (0..n).map(move |_| (key, e)))
                    .collect();
                events.ingest(&unbatched);
                drop(unbatched);
                feed_per_occurrence(&mut singles, batch);
                assert_eq!(runs.keys(), singles.keys(), "{label}: residents, batch {b}");
                if b != batches.len() / 2 && b + 1 != batches.len() {
                    continue;
                }
                let bytes = [&mut runs, &mut events, &mut singles].map(|s| s.write_snapshot());
                let [runs, events, singles] = bytes.map(|b| b.expect("encode"));
                assert!(runs == events, "{label}: runs vs events, batch {b}");
                assert!(runs == singles, "{label}: runs vs inserts, batch {b}");
            }
            assert!(
                runs.write_snapshot().unwrap() == singles.write_snapshot().unwrap(),
                "{label}: final snapshot"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The pruned ranking is the scan, on all eight backend specs — those
    /// with an arrivals bound (EH plain, hierarchy) and those
    /// without. The fleet is built so that a bound even slightly too low
    /// drops a winner: 24 tenants in 8 rate classes of three, so scores
    /// near-tie around every rank, and one tenant of each class falls
    /// silent for more than a window before the first check (its sketch
    /// still holds its last arrivals: a high bound over a score of zero).
    /// Checked on the live store; on both sides of a `clone` after each
    /// side took different writes (copy-on-write must not share a bound);
    /// and on a store restored
    /// from snapshot bytes, where the bound is recomputed on decode.
    #[test]
    fn prop_top_k_is_the_scan_on_every_backend(seed in 0u64..10_000) {
        for (i, spec) in matrix_specs().enumerate() {
            let mut rng = SeededRng::seed_from_u64(seed ^ (i as u64) << 32);
            let mut store = SketchStore::<u64>::new(spec.clone()).expect("valid spec");
            // Per tick, a tenant of class `key / 3` writes with
            // probability 1/(1 + class); tenants 2, 5, 8, … stop at tick
            // 400 of 2 200.
            let feed = |store: &mut SketchStore<u64>, ticks: std::ops::Range<u64>, rng: &mut SeededRng| {
                for ts in ticks {
                    for key in 0..24u64 {
                        if key % 3 == 2 && ts > 400 {
                            continue;
                        }
                        if rng.gen_bool(1.0 / (1.0 + (key / 3) as f64)) {
                            let weight = 1 + rng.next_u64() % 3;
                            store.insert_weighted(key, ts, rng.next_u64() % 8, weight);
                        }
                    }
                }
            };
            feed(&mut store, 1..2_200, &mut rng);
            let label = format!("spec {i}");
            assert_top_k_matches_scan(&store, &spec, &mut rng, 2_200, &label);

            let mut copy = store.clone();
            feed(&mut store, 2_200..2_300, &mut rng);
            for ts in 2_200..2_260u64 {
                // The copy's ranking moves the other way: its tail tenant
                // becomes its heaviest.
                copy.insert_weighted(22, ts, 1, 40);
            }
            assert_top_k_matches_scan(&store, &spec, &mut rng, 2_300, &format!("{label} (original after clone)"));
            assert_top_k_matches_scan(&copy, &spec, &mut rng, 2_260, &format!("{label} (clone)"));

            let restored = deep_copy(&mut store);
            assert_top_k_matches_scan(&restored, &spec, &mut rng, 2_300, &format!("{label} (restored)"));
            let w = match spec.clock() {
                Clock::Time => WindowSpec::time(2_300, 1_000),
                Clock::Count => WindowSpec::last(500),
            };
            prop_assert_eq!(
                restored.top_k(5, &Query::total_arrivals(), w),
                store.top_k(5, &Query::total_arrivals(), w),
                "spec {}: restore changed the ranking", i
            );
        }
    }

    /// `SketchStore::clone` shares sketches until one side writes them,
    /// yet must stay observably a deep copy. Two stores related by
    /// `clone` (in either direction, repeatedly) are driven through
    /// random weighted inserts, batched ingests and clock advances, next
    /// to two references that are only ever
    /// copied through snapshot bytes and therefore never share a sketch:
    /// after every step each store answers bit-identically to its
    /// reference, so no write ever leaks across a clone.
    #[test]
    fn prop_store_clone_is_observably_a_deep_copy(seed in 0u64..10_000, steps in 20usize..50) {
        for (i, spec) in matrix_specs().enumerate() {
            let mut rng = SeededRng::seed_from_u64(seed ^ (i as u64) << 32);
            let fresh = || SketchStore::<u64>::new(spec.clone()).expect("valid spec");
            let mut stores = [fresh(), fresh()];
            let mut refs = [fresh(), fresh()];
            let mut ts = 1u64;
            for step in 0..steps {
                let side = (rng.next_u64() % 2) as usize;
                let op = rng.next_u64() % 5;
                match op {
                    0 => {
                        stores[1 - side] = stores[side].clone();
                        refs[1 - side] = deep_copy(&mut refs[side]);
                    }
                    1 => {
                        let (key, item) = (rng.next_u64() % 8, rng.next_u64() % 8);
                        let weight = 1 + rng.next_u64() % 5;
                        ts += rng.next_u64() % 3;
                        stores[side].insert_weighted(key, ts, item, weight);
                        refs[side].insert_weighted(key, ts, item, weight);
                    }
                    2 | 3 => {
                        let batch: Vec<(u64, StreamEvent)> = (0..10)
                            .map(|_| {
                                ts += rng.next_u64() % 2;
                                (rng.next_u64() % 8, StreamEvent::new(rng.next_u64() % 8, ts))
                            })
                            .collect();
                        stores[side].ingest(&batch);
                        refs[side].ingest(&batch);
                    }
                    _ => {
                        ts += rng.next_u64() % 50;
                        stores[side].advance_to(ts);
                        refs[side].advance_to(ts);
                    }
                }
                for s in 0..2 {
                    prop_assert_eq!(
                        observe(&stores[s], &spec, ts),
                        observe(&refs[s], &spec, ts),
                        "spec {} step {} op {} on side {}: store {} left its reference",
                        i, step, op, side, s
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `score_bound` bounds every answer it speaks for, on all seven
    /// matrix rows: over arbitrary time windows — behind the write clock,
    /// past it, and over-long ones — and count windows, no scalar answer
    /// of any query exceeds the bound the same sketch gives for it. A time
    /// window that starts at or after the write clock (ticks declared by
    /// `advance_to` included) is bounded by 0 on every backend, so this
    /// also proves that every estimate there is exactly 0.
    #[test]
    fn prop_score_bound_bounds_every_answer(
        seed in 0u64..10_000,
        windows in proptest::collection::vec((0u64..5_000, 0u64..1_500), 8..16),
    ) {
        let queries = [
            Query::total_arrivals(),
            Query::point(3),
            Query::self_join(),
            Query::range_sum(0, 31),
        ];
        for (label, spec) in SketchSpec::matrix(1_000) {
            let mut rng = SeededRng::seed_from_u64(seed);
            let mut sketch = spec.build().expect("valid spec");
            let mut ts = 1u64;
            for _ in 0..rng.gen_range(0..400u64) {
                ts += rng.gen_range(0..6u64);
                if rng.gen_bool(0.05) {
                    ts += rng.gen_range(0..2_000u64);
                    sketch.advance_to(ts);
                }
                sketch.insert_weighted(ts, rng.next_u64() % 64, 1 + rng.next_u64() % 4);
            }
            let clock = sketch.write_clock();
            if spec.clock() == Clock::Time {
                // The window just after the clock: silent on every backend.
                let past = WindowSpec::time(clock + 500, 500);
                for q in &queries {
                    prop_assert_eq!(sketch.score_bound(q, past), Some(0.0), "{}: {}", label, q.name());
                }
            }
            // Windows that start at the clock and one tick before it (the
            // last write was an arrival at the clock), then drawn ones.
            let edges = [1, 10, 500, 1_000].into_iter().flat_map(|range| {
                [WindowSpec::time(clock + range, range), WindowSpec::time(clock + range - 1, range)]
            });
            let drawn = windows.iter().flat_map(|&(offset, range)| {
                let now = clock.saturating_sub(2_000) + offset;
                [WindowSpec::time(now, range), WindowSpec::last(range)]
            });
            for w in edges.chain(drawn) {
                for q in &queries {
                    let Some(bound) = sketch.score_bound(q, w) else {
                        continue;
                    };
                    if let Some(value) = sketch.query(q, w).ok().and_then(|a| a.value()) {
                        prop_assert!(
                            value <= bound,
                            "{}: {} over {:?} = {} > bound {} (clock {})",
                            label, q.name(), w, value, bound, clock
                        );
                    }
                }
            }
        }
    }
}
