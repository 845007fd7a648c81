//! Out-of-order arrivals end to end: network-delayed events at distributed
//! sites are restored by the bounded-delay reorder buffer before entering
//! the per-site sketches, preserving the ECM error guarantees (the
//! asynchronous-streams concern of paper §2, handled the practical way).

use ecm::{EcmEh, EcmSketch, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use sliding_window::{ExponentialHistogram, ReorderBuffer, ReorderConfig};
use std::collections::HashMap;
use stream_gen::SeededRng;

const WINDOW: u64 = 100_000;

/// A site that buffers late arrivals, then bulk-feeds its sketch.
struct Site {
    buffer: ReorderBuffer<ExponentialHistogram>,
    /// (ts, key) pairs released in order, applied to the sketch lazily.
    sketch: EcmEh,
    staged: Vec<(u64, u64)>,
}

impl Site {
    fn new(cfg: &ecm::EcmConfig<ExponentialHistogram>, delay: u64, ns: u64) -> Self {
        let mut sketch = EcmEh::new(cfg);
        sketch.set_id_namespace(ns);
        Site {
            buffer: ReorderBuffer::new(&cfg.cell, ReorderConfig::new(delay)),
            sketch,
            staged: Vec::new(),
        }
    }

    fn offer(&mut self, ts: u64, key: u64) -> bool {
        // The reorder buffer validates/clamps ordering; we mirror accepted
        // events into a staging log keyed by their true tick.
        let ok = self.buffer.offer(ts, key);
        if ok {
            self.staged.push((ts, key));
        }
        ok
    }

    fn finish(mut self) -> EcmEh {
        self.staged.sort_by_key(|&(ts, _)| ts);
        for (ts, key) in self.staged {
            self.sketch.insert(ts, key);
        }
        self.sketch
    }
}

#[test]
fn delayed_arrivals_do_not_break_accuracy() {
    let eps = 0.1;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .seed(3)
        .ecm_config()
        .unwrap();
    let delay_bound = 50u64;
    let mut rng = SeededRng::seed_from_u64(9);

    let mut sites: Vec<Site> = (0..4)
        .map(|i| Site::new(&cfg, delay_bound, i as u64 + 1))
        .collect();
    let mut truth: Vec<(u64, u64)> = Vec::new();
    let mut dropped = 0u64;
    for i in 1..=40_000u64 {
        let true_ts = i;
        let key = i % 50;
        // Random bounded network delay shuffles delivery order.
        let jitter = rng.gen_range(0..=delay_bound / 2);
        let deliver_ts = true_ts.saturating_sub(jitter).max(1);
        let site = (i % 4) as usize;
        if sites[site].offer(deliver_ts, key) {
            truth.push((deliver_ts, key));
        } else {
            dropped += 1;
        }
    }
    assert_eq!(dropped, 0, "jitter stays inside the delay bound");

    let sketches: Vec<EcmEh> = sites.into_iter().map(Site::finish).collect();
    let refs: Vec<&EcmEh> = sketches.iter().collect();
    let merged = EcmSketch::merge(&refs, &cfg.cell).unwrap();

    let now = truth.iter().map(|&(t, _)| t).max().unwrap();
    for range in [5_000u64, 40_000] {
        let cutoff = now.saturating_sub(range);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &(t, k) in &truth {
            if t > cutoff && t <= now {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        let norm: u64 = counts.values().sum();
        for key in 0..50u64 {
            let exact = *counts.get(&key).unwrap_or(&0) as f64;
            let est = merged
                .query(&Query::point(key), WindowSpec::time(now, range))
                .unwrap()
                .into_value()
                .value;
            assert!(
                (est - exact).abs() <= 2.0 * eps * norm as f64 + 2.0,
                "key={key} range={range} est={est} exact={exact}"
            );
        }
    }
}

#[test]
fn excessively_late_events_are_dropped_not_misfiled() {
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(0.2)
        .seed(5)
        .ecm_config()
        .unwrap();
    let mut site = Site::new(&cfg, 10, 1);
    assert!(site.offer(1_000, 7));
    assert!(site.offer(995, 7)); // 5 late: fine
    assert!(!site.offer(900, 7)); // 100 late: refused
    assert_eq!(site.buffer.dropped(), 1);
    let sk = site.finish();
    // Exactly the two accepted arrivals are counted.
    let est = sk
        .query(&Query::point(7), WindowSpec::time(1_000, WINDOW))
        .unwrap()
        .into_value()
        .value;
    assert!((est - 2.0).abs() < 1e-9, "est={est}");
}

#[test]
fn reorder_buffer_wraps_any_counter_generically() {
    // The wrapper is generic over WindowCounter: drive it with the
    // randomized wave as well.
    use sliding_window::{RandomizedWave, RwConfig};
    let cfg = RwConfig::new(0.3, 0.1, 10_000, 5_000, 11);
    let mut buf: ReorderBuffer<RandomizedWave> = ReorderBuffer::new(&cfg, ReorderConfig::new(4));
    for i in (1..=1_000u64).rev().step_by(1) {
        // Deliver in blocks with local disorder: 4,3,2,1, 8,7,6,5, ...
        let block = (1_000 - i) / 4;
        let within = (1_000 - i) % 4;
        let ts = block * 4 + (4 - within);
        buf.offer(ts, i);
    }
    buf.flush_all();
    assert_eq!(buf.inner().lifetime_ones(), 1_000);
    assert_eq!(buf.dropped(), 0);
}
