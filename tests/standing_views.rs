//! Differential suite for standing views (`ecm::views`): at **every**
//! publication point, a maintained view's cached answer must be
//! bit-identical to the equivalent on-demand query evaluated at the
//! readout's own `now` — for every backend the spec matrix can build,
//! through cold-key first-read materialization, and across a
//! snapshot → restore of the backing store (post-restore maintenance
//! included).

use ecm_suite::ecm::{
    Answer, Clock, Estimate, Query, ScalarQuery, SketchSpec, SketchStore, StandingQuery,
    StreamEvent, Threshold, ViewAnswer, ViewDef, ViewError, ViewSet, ViewWindow,
};
use ecm_suite::stream_gen::SeededRng;

const WINDOW: u64 = 2_000;
const EVENTS: usize = 1_500;
const BATCH: usize = 100;

fn view_window(spec: &SketchSpec) -> ViewWindow {
    match spec.clock() {
        Clock::Time => ViewWindow::Time { range: WINDOW },
        Clock::Count => ViewWindow::Last { n: WINDOW },
    }
}

/// A deterministic two-tenant batch: bursty items in the 8-bit universe
/// (hierarchies demand it), non-decreasing ticks.
fn batches(seed: u64) -> Vec<Vec<(String, StreamEvent)>> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut ts = 1u64;
    let mut out = Vec::new();
    for _ in 0..EVENTS.div_ceil(BATCH) {
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            ts += rng.gen_range(0..2u64);
            let key = if rng.gen_bool(0.6) { "a" } else { "b" };
            let item = rng.gen_range(0..200u64);
            batch.push((key.to_string(), StreamEvent::new(item, ts)));
        }
        out.push(batch);
    }
    out
}

/// The standing views a backend can actually answer: threshold-total and
/// point for everyone, self-join where the backend supports it, heavy
/// hitters on hierarchies, and a fleet-wide top-k.
fn views_for(label: &str, spec: &SketchSpec, probe: &SketchStore<String>) -> Vec<ViewDef<String>> {
    let w = view_window(spec);
    let mut defs = vec![
        ViewDef {
            name: "total-a".to_string(),
            key: Some("a".to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::Total,
                limit: 100.0,
            },
            window: w,
        },
        ViewDef {
            name: "point-b".to_string(),
            key: Some("b".to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::Point { item: 7 },
                limit: 3.0,
            },
            window: w,
        },
        ViewDef {
            name: "top".to_string(),
            key: None,
            query: StandingQuery::TopK { k: 2 },
            window: w,
        },
    ];
    // Probe once on a warmed store: a backend that rejects a query class
    // on demand would reject it inside the view identically — nothing to
    // compare.
    let a = "a".to_string();
    let now = probe.get(&a).expect("warmed").write_clock();
    if probe
        .query(&a, &Query::self_join(), w.resolve(now))
        .expect("key resident")
        .is_ok()
    {
        defs.push(ViewDef {
            name: "sj-a".to_string(),
            key: Some("a".to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::SelfJoin,
                limit: 1_000.0,
            },
            window: w,
        });
    }
    if probe
        .query(
            &a,
            &Query::heavy_hitters(Threshold::Relative(0.05)),
            w.resolve(now),
        )
        .expect("key resident")
        .is_ok()
    {
        defs.push(ViewDef {
            name: "hh-a".to_string(),
            key: Some("a".to_string()),
            query: StandingQuery::HeavyHitters {
                threshold: Threshold::Relative(0.05),
            },
            window: w,
        });
    }
    assert!(
        !label.contains("hierarchy") || defs.len() == 5,
        "{label}: hierarchy specs must exercise the heavy-hitter view"
    );
    defs
}

fn assert_estimates_eq(label: &str, a: &Estimate, b: &Estimate) {
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "{label}: estimate diverged"
    );
    assert_eq!(a.guarantee, b.guarantee, "{label}: guarantee diverged");
}

/// Read every registered view and check it bit-identical to the on-demand
/// answer evaluated at the readout's `now`.
fn assert_views_match_on_demand(
    label: &str,
    views: &mut ViewSet<String>,
    store: &SketchStore<String>,
    defs: &[ViewDef<String>],
) {
    for def in defs {
        let readout = match views.read(&def.name, store) {
            Ok(r) => r,
            Err(ViewError::NoData { .. }) => {
                let key = def.key.as_ref().expect("only keyed views lack data");
                assert!(store.get(key).is_none(), "{label}: spurious no-data");
                continue;
            }
            Err(e) => panic!("{label}/{}: {e}", def.name),
        };
        let w = def.window.resolve(readout.now);
        match (&def.query, &readout.answer) {
            (StandingQuery::Threshold { query, limit }, ViewAnswer::Scalar { estimate, above }) => {
                let key = def.key.as_ref().expect("keyed");
                let on_demand = store
                    .query(key, &query.to_query(), w)
                    .expect("key resident")
                    .expect("probed as supported");
                let Answer::Value(expect) = on_demand else {
                    panic!("{label}/{}: unexpected answer shape", def.name);
                };
                assert_estimates_eq(&format!("{label}/{}", def.name), estimate, &expect);
                assert_eq!(*above, expect.value > *limit, "{label}/{}", def.name);
            }
            (StandingQuery::HeavyHitters { threshold }, ViewAnswer::Hitters(rows)) => {
                let key = def.key.as_ref().expect("keyed");
                let on_demand = store
                    .query(key, &Query::heavy_hitters(*threshold), w)
                    .expect("key resident")
                    .expect("probed as supported");
                let Answer::HeavyHitters(expect) = on_demand else {
                    panic!("{label}/{}: unexpected answer shape", def.name);
                };
                assert_eq!(rows.len(), expect.len(), "{label}/{}", def.name);
                for ((ia, ea), (ib, eb)) in rows.iter().zip(expect.iter()) {
                    assert_eq!(ia, ib, "{label}/{}", def.name);
                    assert_estimates_eq(&format!("{label}/{}", def.name), ea, eb);
                }
            }
            (StandingQuery::TopK { k }, ViewAnswer::Ranking(rows)) => {
                let expect = store.top_k(*k, &Query::total_arrivals(), w);
                assert_eq!(rows.len(), expect.len(), "{label}/{}", def.name);
                for ((ka, va), (kb, vb)) in rows.iter().zip(expect.iter()) {
                    assert_eq!(ka, kb, "{label}/{}", def.name);
                    assert_eq!(va.to_bits(), vb.to_bits(), "{label}/{}", def.name);
                }
            }
            _ => panic!("{label}/{}: answer shape does not match its def", def.name),
        }
    }
}

#[test]
fn view_reads_match_on_demand_queries_at_every_publication_point() {
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        // Warm a probe store with the first batch to discover which query
        // classes this backend answers.
        let all = batches(42);
        let mut store: SketchStore<String> = SketchStore::new(spec.clone()).unwrap();
        store.ingest(&all[0]);
        let defs = views_for(label, &spec, &store);

        let mut views: ViewSet<String> = ViewSet::new();
        for def in &defs {
            views.create(def.clone()).unwrap();
        }
        // The first read materializes (cold → hot); maintain keeps it
        // fresh from then on. Check the match at every publication point.
        views.maintain(&store);
        assert_views_match_on_demand(label, &mut views, &store, &defs);
        for (i, batch) in all[1..].iter().enumerate() {
            store.ingest(batch);
            views.maintain(&store);
            assert_eq!(views.seq(), (i + 2) as u64, "{label}: seq drifted");
            assert_views_match_on_demand(label, &mut views, &store, &defs);
        }
    }
}

#[test]
fn cold_and_pending_views_materialize_correctly() {
    let spec = SketchSpec::time(WINDOW).epsilon(0.2).hierarchy(8).seed(3);
    let mut store: SketchStore<String> = SketchStore::new(spec.clone()).unwrap();
    let mut views: ViewSet<String> = ViewSet::new();
    let w = view_window(&spec);
    views
        .create(ViewDef {
            name: "ghost".to_string(),
            key: Some("z".to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::Total,
                limit: 5.0,
            },
            window: w,
        })
        .unwrap();

    // No data at all: reading is a typed error, and the failed read parks
    // the view as pending rather than hot.
    assert!(matches!(
        views.read("ghost", &store),
        Err(ViewError::NoData { .. })
    ));

    // Ingest to *other* keys: the pending view's key is untouched, so
    // maintenance must not materialize it (and reads keep saying no-data).
    store.ingest(&[("other".to_string(), StreamEvent::new(1, 1))]);
    views.maintain(&store);
    assert!(matches!(
        views.read("ghost", &store),
        Err(ViewError::NoData { .. })
    ));

    // The key's first write materializes the pending view in the same
    // maintenance pass — and the answer matches on-demand, bit for bit.
    let zs: Vec<(String, StreamEvent)> = (0..10)
        .map(|i| ("z".to_string(), StreamEvent::new(3, 5 + i)))
        .collect();
    store.ingest(&zs);
    let events = views.maintain(&store);
    assert!(
        events.iter().any(|e| e.view() == "ghost"),
        "materializing past the limit must notify"
    );
    let readout = views.read("ghost", &store).unwrap();
    let ViewAnswer::Scalar { estimate, above } = &readout.answer else {
        panic!("threshold views read scalars");
    };
    assert!(*above, "10 arrivals are past the limit of 5");
    let Answer::Value(expect) = store
        .query(
            &"z".to_string(),
            &Query::total_arrivals(),
            w.resolve(readout.now),
        )
        .unwrap()
        .unwrap()
    else {
        panic!("unexpected shape");
    };
    assert_estimates_eq("ghost", estimate, &expect);

    // A view registered *after* the data exists starts cold: maintenance
    // skips it (cold views cost nothing on the write path) until the first
    // read computes it.
    views
        .create(ViewDef {
            name: "late".to_string(),
            key: Some("z".to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::Total,
                limit: 5.0,
            },
            window: w,
        })
        .unwrap();
    let maintenance_before = views.stats().maintenance;
    store.ingest(&[("z".to_string(), StreamEvent::new(3, 40))]);
    views.maintain(&store);
    // Only "ghost" (hot) was recomputed for the touched key — not "late".
    assert_eq!(views.stats().maintenance, maintenance_before + 1);
    let late = views.read("late", &store).unwrap();
    let fresh = store
        .query(
            &"z".to_string(),
            &Query::total_arrivals(),
            w.resolve(late.now),
        )
        .unwrap()
        .unwrap();
    let (ViewAnswer::Scalar { estimate, .. }, Answer::Value(expect)) = (&late.answer, fresh) else {
        panic!("unexpected shapes");
    };
    assert_estimates_eq("late", estimate, &expect);
}

#[test]
fn restored_stores_rebuild_views_bit_identically_and_keep_maintaining() {
    for (label, spec) in SketchSpec::matrix(WINDOW) {
        let all = batches(7);
        let mut store: SketchStore<String> = SketchStore::new(spec.clone()).unwrap();
        store.ingest(&all[0]);
        let defs = views_for(label, &spec, &store);
        let mut views: ViewSet<String> = ViewSet::new();
        for def in &defs {
            views.create(def.clone()).unwrap();
        }
        views.maintain(&store);
        for batch in &all[1..8] {
            store.ingest(batch);
            views.maintain(&store);
        }

        // Snapshot the store, restore it, and rebuild a fresh ViewSet from
        // the same definitions — as the server does after a restart.
        let bytes = store
            .write_snapshot()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let restored: SketchStore<String> =
            SketchStore::load_snapshot(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut rebuilt: ViewSet<String> = ViewSet::new();
        for def in &defs {
            rebuilt.create(def.clone()).unwrap();
        }
        rebuilt.rebuild(&restored);

        // The rebuilt views answer exactly like the originals...
        for def in &defs {
            let a = views.read(&def.name, &store).unwrap();
            let b = rebuilt.read(&def.name, &restored).unwrap();
            assert_eq!(a.now, b.now, "{label}/{}: now diverged", def.name);
            match (&a.answer, &b.answer) {
                (
                    ViewAnswer::Scalar {
                        estimate: ea,
                        above: aa,
                    },
                    ViewAnswer::Scalar {
                        estimate: eb,
                        above: ab,
                    },
                ) => {
                    assert_estimates_eq(&format!("{label}/{}", def.name), ea, eb);
                    assert_eq!(aa, ab, "{label}/{}", def.name);
                }
                (ViewAnswer::Hitters(ra), ViewAnswer::Hitters(rb)) => {
                    assert_eq!(ra.len(), rb.len(), "{label}/{}", def.name);
                    for ((ia, ea), (ib, eb)) in ra.iter().zip(rb.iter()) {
                        assert_eq!(ia, ib, "{label}/{}", def.name);
                        assert_estimates_eq(&format!("{label}/{}", def.name), ea, eb);
                    }
                }
                (ViewAnswer::Ranking(ra), ViewAnswer::Ranking(rb)) => {
                    assert_eq!(ra.len(), rb.len(), "{label}/{}", def.name);
                    for ((ka, va), (kb, vb)) in ra.iter().zip(rb.iter()) {
                        assert_eq!(ka, kb, "{label}/{}", def.name);
                        assert_eq!(va.to_bits(), vb.to_bits(), "{label}/{}", def.name);
                    }
                }
                _ => panic!("{label}/{}: answer shapes diverged", def.name),
            }
        }

        // ...and keep maintaining identically on the suffix: feed the same
        // batches to both stores and hold the rebuilt set to the on-demand
        // bit-identity bar at every publication point.
        let mut restored = restored;
        for batch in &all[8..] {
            store.ingest(batch);
            views.maintain(&store);
            restored.ingest(batch);
            rebuilt.maintain(&restored);
            assert_views_match_on_demand(label, &mut rebuilt, &restored, &defs);
        }
        for def in &defs {
            let a = views.read(&def.name, &store).unwrap();
            let b = rebuilt.read(&def.name, &restored).unwrap();
            assert_eq!(
                a.now, b.now,
                "{label}/{}: post-restore now diverged",
                def.name
            );
            assert_eq!(
                format!("{:?}", a.answer),
                format!("{:?}", b.answer),
                "{label}/{}: post-restore answers diverged",
                def.name
            );
        }
    }
}
