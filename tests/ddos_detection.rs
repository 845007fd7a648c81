//! End-to-end reproduction of the paper's motivating scenario (§1): a
//! distributed network monitor detecting a DDoS-style flash crowd.
//!
//! Sites summarize their local traffic with ECM-sketches; sketches are
//! aggregated up a tree (paper §5); the coordinator runs sliding-window
//! heavy-hitter detection on the aggregate (paper §6.1). A flash crowd
//! injected by the scenario generator must surface as a heavy hitter during
//! the attack window and age out of the report afterwards.
//!
//! Sliding-window synopses only answer queries about the *present* window,
//! so each test replays the trace and queries at checkpoints: mid-attack and
//! well after the attack.

use ecm_suite::ecm::{
    EcmEh, EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec,
};
use ecm_suite::stream_gen::{inject_flash_crowd, uniform_sites, Event, FlashCrowd, WindowOracle};
use sliding_window::ExponentialHistogram;

const WINDOW: u64 = 200_000;
const SITES: u32 = 8;
const TARGET: u64 = 4242;

/// Trace with an injected flash crowd; returns (events, mid_attack, after).
fn attacked_trace(n_base: usize) -> (Vec<Event>, u64, u64) {
    let base = uniform_sites(n_base, SITES, 17);
    let start = 1_500_000u64;
    let duration = WINDOW / 2;
    let events = inject_flash_crowd(
        &base,
        &FlashCrowd {
            target_key: TARGET,
            start,
            duration,
            volume: n_base / 4,
            sources: SITES,
            seed: 7,
        },
    );
    (events, start + duration, start + duration + 2 * WINDOW)
}

#[test]
fn aggregated_sketch_sees_the_attack() {
    let (events, mid_attack, after) = attacked_trace(40_000);
    let oracle = WindowOracle::from_events(&events);
    let eps = 0.1;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(3)
        .ecm_config()
        .unwrap();

    let mut sites: Vec<EcmEh> = (0..SITES)
        .map(|i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(u64::from(i) + 1);
            sk
        })
        .collect();
    let h = 3.0; // ⌈log₂ 8⌉ aggregation levels
    let check = |sites: &[EcmEh], now: u64, expect_attack: bool| {
        let refs: Vec<&EcmEh> = sites.iter().collect();
        let root = EcmEh::merge(&refs, &cfg.cell).unwrap();
        let exact = oracle.frequency(TARGET, now, WINDOW) as f64;
        let est = root
            .query(&Query::point(TARGET), WindowSpec::time(now, WINDOW))
            .unwrap()
            .into_value()
            .value;
        let norm = oracle.total(now, WINDOW) as f64;
        let envelope = (h * eps * (1.0 + eps) + eps + 0.05) * norm;
        assert!(
            (est - exact).abs() <= envelope,
            "now={now} est={est} exact={exact} envelope={envelope}"
        );
        if expect_attack {
            assert!(exact > 5_000.0, "attack volume missing from the oracle");
            assert!(est > 5_000.0 - envelope, "attack invisible at the root");
        } else {
            assert!(exact < 100.0, "oracle sanity: burst must have aged");
        }
    };

    let mut it = events.iter().peekable();
    while let Some(e) = it.peek() {
        if e.ts > mid_attack {
            break;
        }
        let e = it.next().unwrap();
        sites[e.site as usize].insert(e.ts, e.key);
    }
    check(&sites, mid_attack, true);
    for e in it {
        if e.ts > after {
            break;
        }
        sites[e.site as usize].insert(e.ts, e.key);
    }
    check(&sites, after, false);
}

#[test]
fn hierarchy_flags_the_target_as_heavy_hitter_only_during_attack() {
    let (events, mid_attack, after) = attacked_trace(30_000);
    let eps = 0.05;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(11)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let mut h = EcmHierarchy::new(16, &cfg);

    let mut it = events.iter().peekable();
    while let Some(e) = it.peek() {
        if e.ts > mid_attack {
            break;
        }
        let e = it.next().unwrap();
        h.insert(e.ts, e.key);
    }

    // φ = 5% of window arrivals: far above any organic key (50k keys,
    // near-uniform background), far below the burst.
    let hh = h
        .query(
            &Query::heavy_hitters(Threshold::Relative(0.05)),
            WindowSpec::time(mid_attack, WINDOW),
        )
        .unwrap()
        .into_heavy_hitters();
    assert!(
        hh.iter().any(|&(k, _)| k == TARGET),
        "attack target missing from heavy hitters: {hh:?}"
    );
    // Theorem 5 semantics: with a uniform background, only the target (and
    // possibly a collision artifact or two) can clear the threshold.
    assert!(
        hh.len() <= 3,
        "background keys misreported as heavy: {hh:?}"
    );

    for e in it {
        if e.ts > after {
            break;
        }
        h.insert(e.ts, e.key);
    }
    let hh_after = h
        .query(
            &Query::heavy_hitters(Threshold::Relative(0.05)),
            WindowSpec::time(after, WINDOW),
        )
        .unwrap()
        .into_heavy_hitters();
    assert!(
        hh_after.iter().all(|&(k, _)| k != TARGET),
        "aged-out attack still reported: {hh_after:?}"
    );
}

#[test]
fn per_site_thresholds_fire_at_attacking_sites() {
    // The Jain et al. scheme the paper cites: each node tracks per-target
    // sliding-window counts and triggers when a count exceeds its share.
    let (events, mid_attack, _) = attacked_trace(24_000);
    let cfg = SketchSpec::time(WINDOW).seed(23).ecm_config().unwrap();

    let mut sites: Vec<EcmEh> = (0..SITES).map(|_| EcmEh::new(&cfg)).collect();
    for e in &events {
        if e.ts > mid_attack {
            break;
        }
        sites[e.site as usize].insert(e.ts, e.key);
    }

    // Per-site share of the attack ≈ volume / SITES ≈ 750; organic per-key
    // mass per site is ≈ 0.1. A threshold between the two must fire at
    // every attacked site and at none for an innocent key.
    let mut firing = 0u32;
    let mut innocent_firing = 0u32;
    for sk in &sites {
        let w = WindowSpec::time(mid_attack, WINDOW);
        if sk
            .query(&Query::point(TARGET), w)
            .unwrap()
            .into_value()
            .value
            > 200.0
        {
            firing += 1;
        }
        if sk
            .query(&Query::point(TARGET + 1), w)
            .unwrap()
            .into_value()
            .value
            > 200.0
        {
            innocent_firing += 1;
        }
    }
    assert_eq!(firing, SITES, "every attacked site must trip its trigger");
    assert_eq!(innocent_firing, 0, "innocent keys must stay quiet");
}
