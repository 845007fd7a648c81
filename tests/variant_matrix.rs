//! The full variant matrix in one place: every window-counter instantiation
//! of the ECM-sketch (EH, DW, RW, exact baseline) runs
//! through the same centralized pipeline — insert, query, serialize,
//! deserialize — and the mergeable ones also through tree aggregation. One
//! test per contract the paper states, parameterized over the variants.

use ecm_suite::distributed::aggregate_tree;
use ecm_suite::ecm::{Backend, EcmConfig, EcmSketch, Query, SketchReader, SketchSpec, WindowSpec};
use ecm_suite::sliding_window::traits::{MergeableCounter, WindowCounter};
use ecm_suite::stream_gen::{worldcup_like, WindowOracle};
use sliding_window::{DeterministicWave, ExactWindow, ExponentialHistogram, RandomizedWave};

const WINDOW: u64 = 1_000_000;
const EVENTS: usize = 12_000;
const EPS: f64 = 0.15;

/// Route a point query through the unified typed API.
fn point<W>(sk: &EcmSketch<W>, key: u64, now: u64, range: u64) -> f64
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    sk.query(&Query::point(key), WindowSpec::time(now, range))
        .expect("in-window query must succeed")
        .into_value()
        .value
}

/// Insert the trace with globally unique ids, query the hottest keys, and
/// assert the Theorem 1 envelope; then round-trip the codec and require
/// identical answers.
fn centralized_contract<W>(cfg: &EcmConfig<W>, label: &str)
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    let events = worldcup_like(EVENTS, 77);
    let oracle = WindowOracle::from_events(&events);
    let mut sk = EcmSketch::new(cfg);
    for (i, e) in events.iter().enumerate() {
        sk.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
    }
    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;

    for key in 0..300u64 {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        if exact == 0.0 {
            continue;
        }
        let est = point(&sk, key, now, WINDOW);
        assert!(
            (est - exact).abs() <= EPS * norm + 2.0,
            "{label}: key={key} est={est} exact={exact}"
        );
    }

    let mut buf = Vec::new();
    sk.encode(&mut buf);
    let back = EcmSketch::decode(cfg, &mut buf.as_slice()).expect("codec");
    for key in (0..300u64).step_by(17) {
        assert_eq!(
            point(&sk, key, now, WINDOW),
            point(&back, key, now, WINDOW),
            "{label}: codec must preserve answers for key {key}"
        );
    }

    // Truncated wire bytes must never decode successfully.
    for cut in [0usize, 1, buf.len() / 2, buf.len() - 1] {
        assert!(
            EcmSketch::decode(cfg, &mut &buf[..cut]).is_err(),
            "{label}: truncation at {cut} must fail"
        );
    }
}

/// Tree-aggregate per-site sketches and assert the multi-level envelope.
fn distributed_contract<W>(cfg: &EcmConfig<W>, label: &str, envelope: f64)
where
    W: MergeableCounter + 'static,
    W::Config: 'static,
{
    let sites = 8u32;
    let events = worldcup_like(EVENTS, 99);
    let oracle = WindowOracle::from_events(&events);
    // The wc98-like trace has 33 sites; fold them onto the 8-leaf tree.
    let mut site_events: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); sites as usize];
    for (i, e) in events.iter().enumerate() {
        site_events[(e.site % sites) as usize].push((e.key, e.ts, i as u64 + 1));
    }
    let out = aggregate_tree(
        sites as usize,
        |i| {
            let mut sk = EcmSketch::new(cfg);
            for &(k, t, id) in &site_events[i] {
                sk.insert_with_id(t, k, id).unwrap();
            }
            sk
        },
        &cfg.cell,
    )
    .expect("homogeneous merge");
    assert_eq!(out.root.lifetime_arrivals(), EVENTS as u64);
    assert!(out.stats.bytes > 0);

    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;
    let mut checked = 0u32;
    for key in 0..400u64 {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        if exact == 0.0 {
            continue;
        }
        checked += 1;
        let est = point(&out.root, key, now, WINDOW);
        assert!(
            (est - exact).abs() <= envelope * norm + 2.0,
            "{label}: key={key} est={est} exact={exact}"
        );
    }
    assert!(checked > 100, "{label}: workload too sparse");
}

#[test]
fn eh_centralized_and_distributed() {
    let b = SketchSpec::time(WINDOW).epsilon(EPS).delta(0.05).seed(3);
    centralized_contract(
        &b.clone().ecm_config::<ExponentialHistogram>().unwrap(),
        "ECM-EH",
    );
    // 3 merge levels: h·ε_sw(1+ε_sw) + ε_sw + ε_cm.
    distributed_contract(
        &b.clone().ecm_config::<ExponentialHistogram>().unwrap(),
        "ECM-EH",
        4.0 * EPS,
    );
}

#[test]
fn dw_centralized_and_distributed() {
    let b = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(0.05)
        .max_arrivals(EVENTS as u64)
        .seed(4);
    centralized_contract(
        &b.clone()
            .backend(Backend::Dw)
            .ecm_config::<DeterministicWave>()
            .unwrap(),
        "ECM-DW",
    );
    distributed_contract(
        &b.clone()
            .backend(Backend::Dw)
            .ecm_config::<DeterministicWave>()
            .unwrap(),
        "ECM-DW",
        4.0 * EPS,
    );
}

#[test]
fn rw_centralized_and_distributed() {
    let b = SketchSpec::time(WINDOW)
        .epsilon(EPS)
        .delta(0.1)
        .max_arrivals(EVENTS as u64)
        .seed(5);
    centralized_contract(
        &b.clone()
            .backend(Backend::Rw)
            .ecm_config::<RandomizedWave>()
            .unwrap(),
        "ECM-RW",
    );
    // Lossless composition: the centralized envelope suffices.
    distributed_contract(
        &b.clone()
            .backend(Backend::Rw)
            .ecm_config::<RandomizedWave>()
            .unwrap(),
        "ECM-RW",
        EPS,
    );
}

#[test]
fn exact_variant_is_a_pure_count_min() {
    let b = SketchSpec::time(WINDOW).epsilon(EPS).delta(0.05).seed(6);
    centralized_contract(
        &b.clone()
            .backend(Backend::Exact)
            .ecm_config::<ExactWindow>()
            .unwrap(),
        "ECM-exact",
    );
}

#[test]
fn variants_agree_on_empty_sketches() {
    let b = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(8);
    assert_eq!(
        point(
            &EcmSketch::new(&b.clone().ecm_config::<ExponentialHistogram>().unwrap()),
            5,
            100,
            1_000
        ),
        0.0
    );
    assert_eq!(
        point(
            &EcmSketch::new(
                &b.clone()
                    .backend(Backend::Dw)
                    .ecm_config::<DeterministicWave>()
                    .unwrap()
            ),
            5,
            100,
            1_000
        ),
        0.0
    );
    assert_eq!(
        point(
            &EcmSketch::new(
                &b.clone()
                    .backend(Backend::Rw)
                    .ecm_config::<RandomizedWave>()
                    .unwrap()
            ),
            5,
            100,
            1_000
        ),
        0.0
    );
    assert_eq!(
        point(
            &EcmSketch::new(
                &b.clone()
                    .backend(Backend::Exact)
                    .ecm_config::<ExactWindow>()
                    .unwrap()
            ),
            5,
            100,
            1_000
        ),
        0.0
    );
}
