//! End-to-end centralized accuracy: every ECM variant built over generated
//! traces must meet its configured error envelope against the exact oracle
//! (the property behind paper Fig. 4).

use ecm::{
    Backend, EcmDw, EcmEh, EcmRw, EcmSketch, Query, QueryKind, SketchReader, SketchSpec, WindowSpec,
};
use sliding_window::traits::WindowCounter;
use sliding_window::{ExponentialHistogram, RandomizedWave};
use stream_gen::{snmp_like, worldcup_like, WindowOracle};

const WINDOW: u64 = 1_000_000;

fn build<W: WindowCounter>(cfg: &ecm::EcmConfig<W>, events: &[stream_gen::Event]) -> EcmSketch<W> {
    let mut sk = EcmSketch::new(cfg);
    for (i, e) in events.iter().enumerate() {
        sk.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
    }
    sk
}

/// Fraction of point queries violating the ε envelope must stay within the
/// configured δ (plus sampling slack).
fn check_point_envelope<W: WindowCounter + 'static>(
    sk: &EcmSketch<W>,
    oracle: &WindowOracle,
    eps: f64,
    label: &str,
) {
    let now = oracle.last_tick();
    for range in [10_000u64, 100_000, WINDOW] {
        let norm = oracle.total(now, range) as f64;
        if norm < 100.0 {
            continue;
        }
        let mut queries = 0usize;
        let mut violations = 0usize;
        for key in oracle.keys().take(500) {
            let exact = oracle.frequency(key, now, range) as f64;
            let est = sk
                .query(&Query::point(key), WindowSpec::time(now, range))
                .unwrap()
                .into_value()
                .value;
            queries += 1;
            if (est - exact).abs() > eps * norm + 1.0 {
                violations += 1;
            }
        }
        assert!(
            violations * 5 <= queries, // ≤ 20% ≫ δ = 10%, generous slack
            "{label}: {violations}/{queries} envelope violations at range {range}"
        );
    }
}

#[test]
fn all_variants_meet_point_envelope_wc98() {
    let events = worldcup_like(60_000, 11);
    let oracle = WindowOracle::from_events(&events);
    let eps = 0.1;
    let b = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.1)
        .max_arrivals(events.len() as u64)
        .seed(5);

    let eh: EcmEh = build(&b.clone().ecm_config().unwrap(), &events);
    check_point_envelope(&eh, &oracle, eps, "ECM-EH");
    let dw: EcmDw = build(
        &b.clone().backend(Backend::Dw).ecm_config().unwrap(),
        &events,
    );
    check_point_envelope(&dw, &oracle, eps, "ECM-DW");
    let rw: EcmRw = build(
        &b.clone().backend(Backend::Rw).ecm_config().unwrap(),
        &events,
    );
    check_point_envelope(&rw, &oracle, eps, "ECM-RW");
}

#[test]
fn all_variants_meet_point_envelope_snmp() {
    let events = snmp_like(60_000, 23);
    let oracle = WindowOracle::from_events(&events);
    let eps = 0.15;
    let b = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.1)
        .max_arrivals(events.len() as u64)
        .seed(6);

    let eh: EcmEh = build(&b.clone().ecm_config().unwrap(), &events);
    check_point_envelope(&eh, &oracle, eps, "ECM-EH");
    let dw: EcmDw = build(
        &b.clone().backend(Backend::Dw).ecm_config().unwrap(),
        &events,
    );
    check_point_envelope(&dw, &oracle, eps, "ECM-DW");
    let rw: EcmRw = build(
        &b.clone().backend(Backend::Rw).ecm_config().unwrap(),
        &events,
    );
    check_point_envelope(&rw, &oracle, eps, "ECM-RW");
}

#[test]
fn self_join_envelope_on_both_datasets() {
    for (events, label) in [
        (worldcup_like(50_000, 3), "wc98"),
        (snmp_like(50_000, 4), "snmp"),
    ] {
        let oracle = WindowOracle::from_events(&events);
        let eps = 0.1;
        let cfg = SketchSpec::time(WINDOW)
            .epsilon(eps)
            .query_kind(QueryKind::InnerProduct)
            .seed(7)
            .ecm_config()
            .unwrap();
        let sk: EcmEh = build(&cfg, &events);
        let now = oracle.last_tick();
        for range in [100_000u64, WINDOW] {
            let norm = oracle.total(now, range) as f64;
            if norm < 100.0 {
                continue;
            }
            let exact = oracle.self_join(now, range);
            let est = sk
                .query(&Query::self_join(), WindowSpec::time(now, range))
                .unwrap()
                .into_value()
                .value;
            assert!(
                (est - exact).abs() <= eps * norm * norm,
                "{label}: self-join est {est} exact {exact} norm {norm}"
            );
        }
    }
}

#[test]
fn memory_ordering_matches_paper() {
    // Fig. 4 shape: memory(EH) < memory(DW) ≪ memory(RW) at equal ε.
    let events = worldcup_like(40_000, 9);
    let b = SketchSpec::time(WINDOW)
        .epsilon(0.1)
        .delta(0.1)
        .max_arrivals(events.len() as u64)
        .seed(8);
    let eh: EcmEh = build(&b.clone().ecm_config().unwrap(), &events);
    let dw: EcmDw = build(
        &b.clone().backend(Backend::Dw).ecm_config().unwrap(),
        &events,
    );
    let rw: EcmRw = build(
        &b.clone().backend(Backend::Rw).ecm_config().unwrap(),
        &events,
    );
    let (m_eh, m_dw, m_rw) = (eh.memory_bytes(), dw.memory_bytes(), rw.memory_bytes());
    assert!(
        m_eh < m_dw,
        "EH ({m_eh}) should be smaller than DW ({m_dw})"
    );
    assert!(
        m_rw > 10 * m_eh,
        "RW ({m_rw}) should be ≥ 10x EH ({m_eh}) — the paper's headline gap"
    );
}

#[test]
fn update_rate_ordering_matches_paper() {
    // Table 3 shape: EH at least as fast as DW, both faster than RW.
    use std::time::Instant;
    let events = worldcup_like(80_000, 10);
    let b = SketchSpec::time(WINDOW)
        .epsilon(0.1)
        .delta(0.1)
        .max_arrivals(events.len() as u64)
        .seed(9);

    fn rate<W: WindowCounter>(cfg: &ecm::EcmConfig<W>, events: &[stream_gen::Event]) -> f64 {
        let mut sk = EcmSketch::new(cfg);
        let t0 = Instant::now();
        for (i, e) in events.iter().enumerate() {
            sk.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
        }
        events.len() as f64 / t0.elapsed().as_secs_f64()
    }

    let r_eh = rate(
        &b.clone().ecm_config::<ExponentialHistogram>().unwrap(),
        &events,
    );
    let r_rw = rate(
        &b.clone()
            .backend(Backend::Rw)
            .ecm_config::<RandomizedWave>()
            .unwrap(),
        &events,
    );
    // Timing is only meaningful with optimizations; debug builds skew the
    // relative costs and CI noise dominates, so assert in release only.
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping rate-ordering assertion ({r_eh:.0} vs {r_rw:.0})");
        return;
    }
    assert!(
        r_eh > r_rw,
        "EH ({r_eh:.0}/s) should out-rate RW ({r_rw:.0}/s)"
    );
}
