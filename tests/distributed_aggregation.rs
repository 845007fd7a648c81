//! Cross-crate distributed pipeline: per-site sketches, wire round-trips,
//! tree aggregation, and root accuracy against the oracle (papers §5, §7.3).

use distributed::aggregate_tree;
use ecm::{
    Backend, EcmEh, EcmRw, EcmSketch, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec,
};

/// Route a point query through the unified typed API (works identically
/// for a plain sketch and for a whole aggregation outcome).
fn point(reader: &dyn SketchReader, key: u64, now: u64, range: u64) -> f64 {
    reader
        .query(&Query::point(key), WindowSpec::time(now, range))
        .expect("in-window query must succeed")
        .into_value()
        .value
}
use stream_gen::{partition_by_site, uniform_sites, worldcup_like, WindowOracle};

const WINDOW: u64 = 1_000_000;

#[test]
fn tree_root_tracks_oracle_at_33_sites() {
    let events = worldcup_like(60_000, 42);
    let oracle = WindowOracle::from_events(&events);
    let eps = 0.1;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .seed(3)
        .ecm_config()
        .unwrap();
    let parts = partition_by_site(&events, 33);

    let out = aggregate_tree(
        33,
        |i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        },
        &cfg.cell,
    )
    .unwrap();

    assert_eq!(out.stats.levels, 6);
    assert_eq!(out.root.lifetime_arrivals(), events.len() as u64);

    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;
    // Multi-level worst case at h = 6 is large; the paper observes (and we
    // assert) errors below even the single-level ε.
    let mut avg_err = 0.0;
    let mut n = 0;
    for key in oracle.keys().take(400) {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        let est = point(&out, key, now, WINDOW);
        avg_err += (est - exact).abs() / norm;
        n += 1;
    }
    avg_err /= f64::from(n);
    assert!(
        avg_err < eps,
        "avg distributed error {avg_err} should sit below ε = {eps}"
    );
}

#[test]
fn aggregation_through_the_wire_round_trips() {
    // Simulate the real protocol: children *encode* their sketches, the
    // parent decodes and merges — estimates must match in-memory merging.
    let events = worldcup_like(20_000, 5);
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(0.15)
        .seed(11)
        .ecm_config()
        .unwrap();
    // Fold the trace's 33 sites onto 4 aggregating gateways.
    let mut parts: Vec<Vec<&stream_gen::Event>> = vec![Vec::new(); 4];
    for e in &events {
        parts[(e.site % 4) as usize].push(e);
    }

    let sketches: Vec<EcmEh> = (0..4)
        .map(|i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        })
        .collect();

    // Ship through the codec.
    let decoded: Vec<EcmEh> = sketches
        .iter()
        .map(|sk| {
            let mut buf = Vec::new();
            sk.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = EcmEh::decode(&cfg, &mut slice).unwrap();
            assert!(slice.is_empty());
            back
        })
        .collect();

    let direct = EcmSketch::merge(&sketches.iter().collect::<Vec<_>>(), &cfg.cell).unwrap();
    let wired = EcmSketch::merge(&decoded.iter().collect::<Vec<_>>(), &cfg.cell).unwrap();

    let now = events.last().unwrap().ts;
    for key in [0u64, 1, 5, 100, 1000, 40_000] {
        for range in [10_000u64, WINDOW] {
            assert_eq!(
                point(&direct, key, now, range),
                point(&wired, key, now, range),
                "key={key} range={range}"
            );
        }
    }
}

#[test]
fn rw_tree_equals_centralized_sketch_exactly() {
    // Lossless composition across a whole tree (paper §5.2): the root of a
    // 16-leaf ECM-RW aggregation must answer *identically* to a sketch that
    // saw the union stream, when ids are globally unique and shared.
    let n_sites = 16u32;
    let events = uniform_sites(12_000, n_sites, 33);
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(0.25)
        .max_arrivals(events.len() as u64)
        .seed(21)
        .backend(Backend::Rw)
        .ecm_config()
        .unwrap();

    let mut central = EcmRw::new(&cfg);
    for (i, e) in events.iter().enumerate() {
        central.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
    }
    let mut per_site: Vec<EcmRw> = (0..n_sites).map(|_| EcmRw::new(&cfg)).collect();
    for (i, e) in events.iter().enumerate() {
        per_site[e.site as usize]
            .insert_with_id(e.ts, e.key, i as u64 + 1)
            .unwrap();
    }

    let out = aggregate_tree(n_sites as usize, |i| per_site[i].clone(), &cfg.cell).unwrap();
    let now = events.last().unwrap().ts;
    for key in (0..50_000u64).step_by(997) {
        for range in [50_000u64, WINDOW] {
            assert_eq!(
                point(&out, key, now, range),
                point(&central, key, now, range),
                "key={key} range={range}"
            );
        }
    }
}

#[test]
fn transfer_volume_shape_eh_vs_rw() {
    // Figs. 5–6 headline: RW aggregation costs an order of magnitude more
    // network than EH at matched ε.
    let n_sites = 8u32;
    let events = uniform_sites(30_000, n_sites, 7);
    let b = SketchSpec::time(WINDOW)
        .epsilon(0.1)
        .delta(0.1)
        .max_arrivals(events.len() as u64)
        .seed(13);
    let cfg_eh = b.clone().ecm_config().unwrap();
    let cfg_rw = b.clone().backend(Backend::Rw).ecm_config().unwrap();

    let mut per_site_events: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n_sites as usize];
    for (i, e) in events.iter().enumerate() {
        per_site_events[e.site as usize].push((e.key, e.ts, i as u64 + 1));
    }

    let out_eh = aggregate_tree(
        n_sites as usize,
        |i| {
            let mut sk = EcmEh::new(&cfg_eh);
            for &(k, t, id) in &per_site_events[i] {
                sk.insert_with_id(t, k, id).unwrap();
            }
            sk
        },
        &cfg_eh.cell,
    )
    .unwrap();
    let out_rw = aggregate_tree(
        n_sites as usize,
        |i| {
            let mut sk = EcmRw::new(&cfg_rw);
            for &(k, t, id) in &per_site_events[i] {
                sk.insert_with_id(t, k, id).unwrap();
            }
            sk
        },
        &cfg_rw.cell,
    )
    .unwrap();

    assert!(
        out_rw.stats.bytes > 5 * out_eh.stats.bytes,
        "RW transfer {} should dwarf EH transfer {}",
        out_rw.stats.bytes,
        out_eh.stats.bytes
    );
}

#[test]
fn multilevel_epsilon_budgeting_keeps_root_on_target() {
    // §5.1 multi-level planning: initialize sites with the ε that makes an
    // h-level hierarchy land at the target error.
    use sliding_window::exponential_histogram::multilevel_epsilon;
    let events = uniform_sites(30_000, 8, 55);
    let oracle = WindowOracle::from_events(&events);
    let target = 0.1;
    let h = 3; // 8 leaves → 3 aggregation levels
    let site_eps = multilevel_epsilon(target, h);
    assert!(site_eps < target);

    let cfg = SketchSpec::time(WINDOW)
        .epsilon(site_eps)
        .seed(17)
        .ecm_config()
        .unwrap();
    let parts = partition_by_site(&events, 8);
    let out = aggregate_tree(
        8,
        |i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        },
        &cfg.cell,
    )
    .unwrap();

    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;
    for key in oracle.keys().take(300) {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        let est = point(&out, key, now, WINDOW);
        assert!(
            (est - exact).abs() <= target * norm + 1.0,
            "key={key}: est {est} exact {exact} target {target}"
        );
    }
}
