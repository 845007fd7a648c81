//! Cross-crate validation of the geometric-method monitor (paper §6.2):
//! the no-missed-crossing guarantee on generated workloads, and the
//! communication advantage over ship-every-update.

use distributed::{GeometricMonitor, MonitorEvent, PointFn, SelfJoinFn};
use ecm::{EcmEh, QueryKind, SketchSpec, SketchWriter};
use stream_gen::{uniform_sites, Event};

const WINDOW: u64 = 50_000;

fn nodes(n: usize, cfg: &ecm::EcmConfig<sliding_window::ExponentialHistogram>) -> Vec<EcmEh> {
    (0..n)
        .map(|i| {
            let mut sk = EcmEh::new(cfg);
            sk.set_id_namespace(i as u64 + 1);
            sk
        })
        .collect()
}

#[test]
fn self_join_monitoring_never_misses_a_crossing() {
    let cfg = SketchSpec::time(WINDOW)
        .query_kind(QueryKind::InnerProduct)
        .seed(71)
        .ecm_config()
        .unwrap();
    let func = SelfJoinFn {
        width: cfg.width,
        depth: cfg.depth,
    };
    let n_sites = 4usize;
    // The 50k-tick window holds ~170 of the trace's events; the burst
    // drives F2(avg) from ~10 to ~1800, so 300 separates the regimes.
    let threshold = 300.0;
    let mut m = GeometricMonitor::new(nodes(n_sites, &cfg), func, threshold, WINDOW, 0);

    // Generated trace with a skew burst injected in the middle third.
    let base = uniform_sites(9_000, n_sites as u32, 3);
    let mut last_side = m.above();
    for (i, e) in base.iter().enumerate() {
        let ev = if i > base.len() / 3 && i < 2 * base.len() / 3 {
            Event { key: 7, ..*e } // burst: all traffic to one key
        } else {
            *e
        };
        match m.observe(ev) {
            MonitorEvent::Synced { above, .. } => last_side = above,
            MonitorEvent::LocalOk | MonitorEvent::Balanced { .. } => {
                let truth_above = m.true_global_value(ev.ts) > threshold;
                assert_eq!(
                    truth_above, last_side,
                    "missed crossing at event {i} (t={})",
                    ev.ts
                );
            }
        }
    }
    let s = m.stats();
    assert!(s.syncs >= 2, "the burst must force at least one re-sync");
    assert!(s.checks > 0);
}

#[test]
fn point_frequency_monitoring_tracks_one_item() {
    // Monitor the frequency estimate of a single item across sites.
    let cfg = SketchSpec::time(WINDOW).seed(5).ecm_config().unwrap();
    // Derive the item's column in each row from a scratch sketch (all sites
    // share the hash family): insert the item once and find the touched
    // cells.
    let item = 1234u64;
    let columns: Vec<usize> = {
        let mut sk = EcmEh::new(&cfg);
        sk.insert(1, item);
        let v = sk.estimate_vector(1, WINDOW);
        (0..cfg.depth)
            .map(|j| {
                let row = &v[j * cfg.width..(j + 1) * cfg.width];
                row.iter().position(|&x| x > 0.0).expect("one touched cell")
            })
            .collect()
    };
    let func = PointFn {
        width: cfg.width,
        columns,
    };

    let n_sites = 3usize;
    // Threshold on the average vector: item frequency / n_sites.
    let threshold = 100.0;
    let mut m = GeometricMonitor::new(nodes(n_sites, &cfg), func, threshold, WINDOW, 0);
    let mut last_side = m.above();
    let mut crossed_up = false;
    for t in 1..=4_000u64 {
        // Steady background plus the monitored item arriving from t=1500.
        let key = if t >= 1_500 && t % 2 == 0 {
            item
        } else {
            t % 900
        };
        let ev = Event {
            ts: t,
            key,
            site: (t % n_sites as u64) as u32,
        };
        match m.observe(ev) {
            MonitorEvent::Synced { above, .. } => {
                if above && !last_side {
                    crossed_up = true;
                }
                last_side = above;
            }
            MonitorEvent::LocalOk | MonitorEvent::Balanced { .. } => {
                let truth_above = m.true_global_value(t) > threshold;
                assert_eq!(truth_above, last_side, "missed point crossing at t={t}");
            }
        }
    }
    assert!(crossed_up, "monitored item's frequency must cross upward");
}

#[test]
fn inner_product_fn_tracks_the_exact_inner_join() {
    // §6.2 "inner joins": each site holds one sketch per stream; the
    // statistics vector is the concatenation. The function value on the
    // *sum* of site vectors (n × the average) estimates a ⊙ b.
    use distributed::{InnerProductFn, MonitoredFunction};
    use stream_gen::WindowOracle;

    let cfg = SketchSpec::time(WINDOW)
        .delta(0.05)
        .query_kind(QueryKind::InnerProduct)
        .seed(13)
        .ecm_config()
        .unwrap();
    let n_sites = 3usize;
    let mut a_sketches = nodes(n_sites, &cfg);
    let mut b_sketches = nodes(n_sites, &cfg);

    // Stream a: keys 0..100 round-robin; stream b: keys 0..200, so the
    // overlap is keys 0..100 at half b's rate.
    let mut a_events = Vec::new();
    let mut b_events = Vec::new();
    for t in 1..=6_000u64 {
        let site = (t % n_sites as u64) as usize;
        a_sketches[site].insert(t, t % 100);
        a_events.push(Event {
            ts: t,
            key: t % 100,
            site: site as u32,
        });
        b_sketches[site].insert(t, t % 200);
        b_events.push(Event {
            ts: t,
            key: t % 200,
            site: site as u32,
        });
    }
    let now = 6_000u64;
    let oracle_a = WindowOracle::from_events(&a_events);
    let oracle_b = WindowOracle::from_events(&b_events);
    let exact = oracle_a.inner_product(&oracle_b, now, WINDOW);

    // Sum the per-site concatenated vectors (the coordinator's "n × avg").
    let wd = cfg.width * cfg.depth;
    let mut summed = vec![0.0f64; 2 * wd];
    for site in 0..n_sites {
        let va = a_sketches[site].estimate_vector(now, WINDOW);
        let vb = b_sketches[site].estimate_vector(now, WINDOW);
        for (s, &x) in summed[..wd].iter_mut().zip(&va) {
            *s += x;
        }
        for (s, &x) in summed[wd..].iter_mut().zip(&vb) {
            *s += x;
        }
    }
    let f = InnerProductFn {
        width: cfg.width,
        depth: cfg.depth,
    };
    let est = f.value(&summed);
    let norm_a = oracle_a.total(now, WINDOW) as f64;
    let norm_b = oracle_b.total(now, WINDOW) as f64;
    // Theorem 2 envelope (generous: summing site vectors adds EH noise).
    assert!(
        (est - exact).abs() <= 0.1 * norm_a * norm_b,
        "est={est} exact={exact}"
    );
    assert!(est >= 0.5 * exact, "est={est} exact={exact}");
}

#[test]
fn communication_scales_with_volatility_not_stream_size() {
    let cfg = SketchSpec::time(WINDOW)
        .query_kind(QueryKind::InnerProduct)
        .seed(91)
        .ecm_config()
        .unwrap();
    let func = SelfJoinFn {
        width: cfg.width,
        depth: cfg.depth,
    };
    // Far-from-threshold workload: syncs should stay near the initial one
    // regardless of how many events stream through.
    let mut m = GeometricMonitor::new(nodes(4, &cfg), func, 1e12, WINDOW, 0);
    for t in 1..=20_000u64 {
        let ev = Event {
            ts: t,
            key: t % 2_000,
            site: (t % 4) as u32,
        };
        m.observe(ev);
    }
    let s = m.stats();
    assert!(
        s.syncs <= 3,
        "quiet workload must not re-sync ({} syncs)",
        s.syncs
    );
    let naive_bytes = 20_000 * m.sync_bytes() / 4;
    assert!(
        s.bytes * 50 < naive_bytes,
        "geometric method should save ≥ 50x on quiet streams \
         ({} vs naive {})",
        s.bytes,
        naive_bytes
    );
}
