//! Distributed derived queries (paper §6.1 meets §5): per-site dyadic ECM
//! hierarchies are serialized, shipped to a coordinator, decoded, merged
//! order-preservingly, and then queried for sliding-window heavy hitters,
//! range sums and quantiles — the full pipeline of the paper's
//! network-monitoring application with byte-accurate wire hops.

use ecm_suite::ecm::{
    EcmConfig, EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec,
};
use ecm_suite::sliding_window::ExponentialHistogram;
use ecm_suite::stream_gen::{partition_by_site, uniform_sites, WindowOracle};

const WINDOW: u64 = 1_000_000;
const SITES: u32 = 6;
const BITS: u32 = 12;

fn build_site_hierarchies(
    cfg: &EcmConfig<ExponentialHistogram>,
    events: &[ecm_suite::stream_gen::Event],
) -> Vec<EcmHierarchy<ExponentialHistogram>> {
    let parts = partition_by_site(events, SITES);
    parts
        .iter()
        .map(|part| {
            let mut h = EcmHierarchy::new(BITS, cfg);
            for e in part {
                h.insert(e.ts, e.key % (1 << BITS));
            }
            h
        })
        .collect()
}

#[test]
fn coordinator_pipeline_over_the_wire() {
    let mut events = uniform_sites(40_000, SITES, 19);
    // Clamp keys into the hierarchy universe, mirroring what the sites do.
    for e in &mut events {
        e.key %= 1 << BITS;
    }
    // One hot key so heavy hitters are non-trivial.
    for e in events.iter_mut().step_by(10) {
        e.key = 321;
    }
    let oracle = WindowOracle::from_events(&events);
    let eps = 0.05;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(8)
        .ecm_config()
        .unwrap();
    let hierarchies = build_site_hierarchies(&cfg, &events);

    // Wire hop: every site encodes; the coordinator decodes.
    let mut transfer_bytes = 0u64;
    let decoded: Vec<EcmHierarchy<ExponentialHistogram>> = hierarchies
        .iter()
        .map(|h| {
            let mut buf = Vec::new();
            h.encode(&mut buf);
            transfer_bytes += buf.len() as u64;
            let mut input = buf.as_slice();
            let back = EcmHierarchy::decode(BITS, &cfg, &mut input).expect("wire decode");
            assert!(input.is_empty());
            back
        })
        .collect();
    assert!(transfer_bytes > 0);

    // Coordinator merge + queries.
    let refs: Vec<&EcmHierarchy<ExponentialHistogram>> = decoded.iter().collect();
    let global = EcmHierarchy::merge(&refs, &cfg.cell).unwrap();
    let now = oracle.last_tick();

    // Heavy hitters: key 321 holds 10% of the window; φ = 5%.
    let w = WindowSpec::time(now, WINDOW);
    let hh = global
        .query(&Query::heavy_hitters(Threshold::Relative(0.05)), w)
        .unwrap()
        .into_heavy_hitters();
    assert!(hh.iter().any(|&(k, _)| k == 321), "hot key missing: {hh:?}");
    assert!(hh.len() <= 3, "spurious heavy hitters: {hh:?}");

    // Range sums within the merged-error envelope (Theorem 4 inflation on
    // top of the dyadic budget).
    let norm = oracle.total(now, WINDOW) as f64;
    let h = 3.0; // ⌈log₂ 6⌉ merge levels... single merge call: 1 level
    let envelope = 2.0 * f64::from(BITS) * (eps * (1.0 + h)) * norm;
    for (lo, hi) in [(0u64, 4_095u64), (100, 400), (321, 321)] {
        let exact = oracle.range_sum(lo, hi, now, WINDOW) as f64;
        let est = global
            .query(&Query::range_sum(lo, hi), w)
            .unwrap()
            .into_value()
            .value;
        assert!(
            (est - exact).abs() <= envelope + 2.0,
            "[{lo},{hi}] est={est} exact={exact}"
        );
    }

    // Quantiles: the median key of the merged stream tracks the oracle's.
    let med = global
        .query(&Query::quantile(0.5), w)
        .unwrap()
        .into_quantile()
        .unwrap();
    let exact_med = oracle
        .quantile_by_rank(oracle.total(now, WINDOW) / 2, now, WINDOW)
        .unwrap();
    let med_mass = oracle.range_sum(0, med, now, WINDOW) as f64;
    let exact_mass = oracle.range_sum(0, exact_med, now, WINDOW) as f64;
    assert!(
        (med_mass - exact_mass).abs() <= 0.2 * norm,
        "median mass drift: est key {med} ({med_mass}), exact key {exact_med} ({exact_mass})"
    );
}

#[test]
fn wire_format_rejects_cross_config_decode() {
    let cfg_a = SketchSpec::time(WINDOW)
        .seed(1)
        .ecm_config::<ExponentialHistogram>()
        .unwrap();
    let cfg_b = SketchSpec::time(WINDOW)
        .seed(2)
        .ecm_config::<ExponentialHistogram>()
        .unwrap(); // different seed
    let mut h = EcmHierarchy::new(BITS, &cfg_a);
    for i in 1..=500u64 {
        h.insert(i, i % 100);
    }
    let mut buf = Vec::new();
    h.encode(&mut buf);
    let err = EcmHierarchy::<ExponentialHistogram>::decode(BITS, &cfg_b, &mut buf.as_slice());
    assert!(err.is_err(), "decoding with a mismatched seed must fail");
}
