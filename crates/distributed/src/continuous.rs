//! Continuous-monitoring protocol comparison (paper §6.2).
//!
//! The paper's pitch for combining ECM-sketches with the geometric method is
//! communication: local drift-ball checks are free, and synchronizations are
//! rare when the monitored function sits far from its threshold. This module
//! makes that claim measurable by running *the same stream* through three
//! coordinator protocols that all track whether a function of the average
//! statistics vector is above a threshold:
//!
//! * geometric — the paper's §6.2 scheme ([`GeometricMonitor`], which
//!   implements [`MonitoringProtocol`] directly) — communicates only on
//!   local constraint violations.
//! * [`PeriodicPushProtocol`] — every site ships its statistics vector every
//!   `period` ticks; the coordinator recomputes the function. Detection
//!   delay is bounded by the period; communication is constant-rate.
//! * [`ForwardAllProtocol`] — every event is forwarded to the coordinator,
//!   which maintains the only sketch. Exact w.r.t. the sketch, maximal
//!   communication — the "centralize all the data" strawman of the paper's
//!   introduction.
//!
//! [`run_protocol`] feeds a stream through any of them, tracking the true
//! (sketch-level) global value in parallel to charge *wrong-side ticks* —
//! events during which the protocol's reported side of the threshold
//! disagrees with the truth — and the maximum detection delay.
//! `ecm_bench::repro::monitoring` records the comparison (the `monitoring`
//! rows and `s6_2.*` claims of `REPRODUCTION.json`).

use ecm::{EcmSketch, SketchWriter};
use sliding_window::traits::WindowCounter;
use stream_gen::Event;

use crate::geometric::{GeometricMonitor, MonitorStats, MonitoredFunction};

/// A continuous distributed threshold-monitoring protocol.
pub trait MonitoringProtocol {
    /// Feed one event (insert at its site, run the protocol's checks).
    fn observe(&mut self, e: Event);

    /// The side of the threshold the coordinator currently believes.
    fn reported_above(&self) -> bool;

    /// The function value on the true current average statistics vector —
    /// the quantity all protocols are trying to track.
    fn true_global_value(&self, now: u64) -> f64;

    /// Communication accounting so far.
    fn stats(&self) -> MonitorStats;

    /// Protocol name for reports.
    fn name(&self) -> &'static str;
}

impl<W: WindowCounter, F: MonitoredFunction> MonitoringProtocol for GeometricMonitor<W, F> {
    fn observe(&mut self, e: Event) {
        let _ = GeometricMonitor::observe(self, e);
    }

    fn reported_above(&self) -> bool {
        self.above()
    }

    fn true_global_value(&self, now: u64) -> f64 {
        GeometricMonitor::true_global_value(self, now)
    }

    fn stats(&self) -> MonitorStats {
        GeometricMonitor::stats(self)
    }

    fn name(&self) -> &'static str {
        "geometric"
    }
}

/// Fixed-period push: all sites ship their statistics vectors every `period`
/// ticks and the coordinator recomputes the function on the average.
#[derive(Debug, Clone)]
pub struct PeriodicPushProtocol<W: WindowCounter, F: MonitoredFunction> {
    nodes: Vec<EcmSketch<W>>,
    func: F,
    threshold: f64,
    range: u64,
    period: u64,
    last_push: u64,
    above: bool,
    stats: MonitorStats,
    vec_len: usize,
}

impl<W: WindowCounter, F: MonitoredFunction> PeriodicPushProtocol<W, F> {
    /// Initialize with per-site sketches; runs the first push at tick `now`.
    ///
    /// # Panics
    /// If `nodes` is empty, shapes differ, or `period == 0`.
    pub fn new(
        nodes: Vec<EcmSketch<W>>,
        func: F,
        threshold: f64,
        range: u64,
        period: u64,
        now: u64,
    ) -> Self {
        assert!(!nodes.is_empty(), "protocol needs at least one site");
        assert!(period > 0, "period must be positive");
        let vec_len = nodes[0].width() * nodes[0].depth();
        for n in &nodes {
            assert_eq!(
                n.width() * n.depth(),
                vec_len,
                "all sites must share the sketch shape"
            );
        }
        let mut p = PeriodicPushProtocol {
            nodes,
            func,
            threshold,
            range,
            period,
            last_push: now,
            above: false,
            stats: MonitorStats::default(),
            vec_len,
        };
        p.push(now);
        p
    }

    fn average_vector(&self, now: u64) -> Vec<f64> {
        let n = self.nodes.len();
        let mut avg = vec![0.0; self.vec_len];
        for sk in &self.nodes {
            let v = sk.estimate_vector(now, self.range);
            for (a, x) in avg.iter_mut().zip(v) {
                *a += x;
            }
        }
        for a in &mut avg {
            *a /= n as f64;
        }
        avg
    }

    /// One push round: all sites ship vectors (no estimate broadcast needed;
    /// sites hold no state that depends on the global value).
    fn push(&mut self, now: u64) {
        let avg = self.average_vector(now);
        self.above = self.func.value(&avg) > self.threshold;
        self.last_push = now;
        self.stats.syncs += 1;
        self.stats.messages += self.nodes.len() as u64;
        self.stats.bytes += (self.nodes.len() * self.vec_len * 8) as u64;
    }

    /// Advance the protocol clock, pushing as many whole periods as have
    /// elapsed (one coordinator recomputation per period boundary).
    pub fn tick(&mut self, now: u64) {
        while now >= self.last_push + self.period {
            let at = self.last_push + self.period;
            self.push(at);
        }
    }
}

impl<W: WindowCounter, F: MonitoredFunction> MonitoringProtocol for PeriodicPushProtocol<W, F> {
    fn observe(&mut self, e: Event) {
        let site = e.site as usize;
        assert!(site < self.nodes.len(), "site {site} out of range");
        self.nodes[site].insert(e.ts, e.key);
        self.tick(e.ts);
        self.stats.checks += 1;
    }

    fn reported_above(&self) -> bool {
        self.above
    }

    fn true_global_value(&self, now: u64) -> f64 {
        self.func.value(&self.average_vector(now))
    }

    fn stats(&self) -> MonitorStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "periodic-push"
    }
}

/// Forward-every-event centralization: sites hold nothing; the coordinator
/// maintains per-site sketches and re-evaluates after every arrival.
///
/// Message accounting charges one fixed-size event record per arrival
/// (16 bytes: key + timestamp), which is the paper's "naive solution that
/// centralizes all the data".
#[derive(Debug, Clone)]
pub struct ForwardAllProtocol<W: WindowCounter, F: MonitoredFunction> {
    nodes: Vec<EcmSketch<W>>,
    func: F,
    threshold: f64,
    range: u64,
    above: bool,
    stats: MonitorStats,
    vec_len: usize,
}

/// Bytes charged per forwarded event record (key + timestamp).
pub const EVENT_RECORD_BYTES: u64 = 16;

impl<W: WindowCounter, F: MonitoredFunction> ForwardAllProtocol<W, F> {
    /// Initialize with per-site sketches held at the coordinator.
    ///
    /// # Panics
    /// If `nodes` is empty or shapes differ.
    pub fn new(nodes: Vec<EcmSketch<W>>, func: F, threshold: f64, range: u64) -> Self {
        assert!(!nodes.is_empty(), "protocol needs at least one site");
        let vec_len = nodes[0].width() * nodes[0].depth();
        for n in &nodes {
            assert_eq!(
                n.width() * n.depth(),
                vec_len,
                "all sites must share the sketch shape"
            );
        }
        ForwardAllProtocol {
            nodes,
            func,
            threshold,
            range,
            above: false,
            stats: MonitorStats::default(),
            vec_len,
        }
    }

    fn average_vector(&self, now: u64) -> Vec<f64> {
        let n = self.nodes.len();
        let mut avg = vec![0.0; self.vec_len];
        for sk in &self.nodes {
            let v = sk.estimate_vector(now, self.range);
            for (a, x) in avg.iter_mut().zip(v) {
                *a += x;
            }
        }
        for a in &mut avg {
            *a /= n as f64;
        }
        avg
    }
}

impl<W: WindowCounter, F: MonitoredFunction> MonitoringProtocol for ForwardAllProtocol<W, F> {
    fn observe(&mut self, e: Event) {
        let site = e.site as usize;
        assert!(site < self.nodes.len(), "site {site} out of range");
        self.nodes[site].insert(e.ts, e.key);
        self.stats.messages += 1;
        self.stats.bytes += EVENT_RECORD_BYTES;
        self.stats.checks += 1;
        let v = self.average_vector(e.ts);
        self.above = self.func.value(&v) > self.threshold;
    }

    fn reported_above(&self) -> bool {
        self.above
    }

    fn true_global_value(&self, now: u64) -> f64 {
        self.func.value(&self.average_vector(now))
    }

    fn stats(&self) -> MonitorStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "forward-all"
    }
}

/// Outcome of one monitored run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Events fed.
    pub events: u64,
    /// Events at which the reported side disagreed with the true side.
    pub wrong_side_events: u64,
    /// Longest run of consecutive wrong-side events (detection delay in
    /// events; 0 for a protocol that never lags).
    pub max_delay_events: u64,
    /// Number of true side changes in the run.
    pub true_crossings: u64,
    /// Final communication accounting.
    pub stats: MonitorStats,
}

/// Feed `events` (timestamp-ordered) through a protocol against `threshold`,
/// scoring the reported side against the sketch-level truth after every
/// event.
pub fn run_protocol<P: MonitoringProtocol>(
    protocol: &mut P,
    events: &[Event],
    threshold: f64,
) -> RunReport {
    let mut wrong = 0u64;
    let mut delay = 0u64;
    let mut max_delay = 0u64;
    let mut crossings = 0u64;
    let mut last_truth: Option<bool> = None;
    for &e in events {
        protocol.observe(e);
        let truth = protocol.true_global_value(e.ts) > threshold;
        if let Some(prev) = last_truth {
            if prev != truth {
                crossings += 1;
            }
        }
        last_truth = Some(truth);
        if protocol.reported_above() != truth {
            wrong += 1;
            delay += 1;
            max_delay = max_delay.max(delay);
        } else {
            delay = 0;
        }
    }
    RunReport {
        events: events.len() as u64,
        wrong_side_events: wrong,
        max_delay_events: max_delay,
        true_crossings: crossings,
        stats: protocol.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::SelfJoinFn;
    use ecm::{EcmEh, QueryKind, SketchSpec};

    fn sketch_nodes(n: usize, window: u64) -> (Vec<EcmEh>, SelfJoinFn) {
        let cfg = SketchSpec::time(window)
            .query_kind(QueryKind::InnerProduct)
            .seed(41)
            .ecm_config()
            .unwrap();
        let nodes: Vec<EcmEh> = (0..n)
            .map(|i| {
                let mut sk = EcmEh::new(&cfg);
                sk.set_id_namespace(i as u64 + 1);
                sk
            })
            .collect();
        let func = SelfJoinFn {
            width: cfg.width,
            depth: cfg.depth,
        };
        (nodes, func)
    }

    fn flood_events(n_events: u64, n_sites: u32) -> Vec<Event> {
        (1..=n_events)
            .map(|t| Event {
                ts: t,
                key: 7, // one key floods: self-join grows quadratically
                site: (t % u64::from(n_sites)) as u32,
            })
            .collect()
    }

    #[test]
    fn geometric_never_reports_the_wrong_side() {
        let (nodes, func) = sketch_nodes(3, 1 << 20);
        let threshold = 40.0;
        let mut p = GeometricMonitor::new(nodes, func, threshold, 1 << 20, 0);
        let events = flood_events(500, 3);
        let report = run_protocol(&mut p, &events, threshold);
        assert_eq!(report.wrong_side_events, 0, "{report:?}");
        assert!(report.true_crossings >= 1, "flood must cross");
    }

    #[test]
    fn periodic_push_delay_is_bounded_by_period() {
        let (nodes, func) = sketch_nodes(3, 1 << 20);
        let threshold = 40.0;
        let period = 50u64;
        let mut p = PeriodicPushProtocol::new(nodes, func, threshold, 1 << 20, period, 0);
        // One event per tick → delay in events == delay in ticks.
        let events = flood_events(600, 3);
        let report = run_protocol(&mut p, &events, threshold);
        assert!(report.true_crossings >= 1);
        assert!(
            report.max_delay_events <= period,
            "delay {} must be within one period {period}",
            report.max_delay_events
        );
        // And it genuinely lags: a crossing mid-period goes unnoticed.
        assert!(report.wrong_side_events > 0);
    }

    #[test]
    fn forward_all_is_exact_but_expensive() {
        let (nodes, func) = sketch_nodes(2, 1 << 20);
        let threshold = 25.0;
        let mut p = ForwardAllProtocol::new(nodes, func, threshold, 1 << 20);
        let events = flood_events(300, 2);
        let report = run_protocol(&mut p, &events, threshold);
        assert_eq!(report.wrong_side_events, 0);
        assert_eq!(report.stats.messages, 300);
        assert_eq!(report.stats.bytes, 300 * EVENT_RECORD_BYTES);
    }

    #[test]
    fn geometric_beats_periodic_on_quiet_streams() {
        // Far below the threshold, geometric should communicate (almost)
        // nothing while periodic push keeps paying its constant rate.
        let threshold = 1e12;
        let events: Vec<Event> = (1..=4_000u64)
            .map(|t| Event {
                ts: t,
                key: t % 800,
                site: (t % 4) as u32,
            })
            .collect();

        let (nodes, func) = sketch_nodes(4, 1 << 20);
        let mut geo = GeometricMonitor::new(nodes, func, threshold, 1 << 20, 0);
        let geo_report = run_protocol(&mut geo, &events, threshold);

        let (nodes, func) = sketch_nodes(4, 1 << 20);
        let mut per = PeriodicPushProtocol::new(nodes, func, threshold, 1 << 20, 100, 0);
        let per_report = run_protocol(&mut per, &events, threshold);

        assert_eq!(geo_report.wrong_side_events, 0);
        assert!(
            geo_report.stats.bytes * 4 < per_report.stats.bytes,
            "geometric {} bytes vs periodic {} bytes",
            geo_report.stats.bytes,
            per_report.stats.bytes
        );
    }

    #[test]
    fn periodic_push_catches_up_on_multi_period_gaps() {
        let (nodes, func) = sketch_nodes(2, 1000);
        let mut p = PeriodicPushProtocol::new(nodes, func, 10.0, 1000, 10, 0);
        // A burst, then a long silent gap spanning many periods.
        for t in 1..=20u64 {
            p.observe(Event {
                ts: t,
                key: 1,
                site: 0,
            });
        }
        let syncs_before = p.stats().syncs;
        p.observe(Event {
            ts: 500,
            key: 1,
            site: 1,
        });
        // 480 ticks of gap → 48 catch-up pushes.
        assert!(p.stats().syncs >= syncs_before + 48);
    }

    #[test]
    fn point_frequency_monitoring_tracks_a_single_key() {
        // The intro's distributed trigger: monitor one target key's average
        // per-site windowed frequency against a threshold via PointFn.
        use crate::geometric::PointFn;
        let cfg = SketchSpec::time(1 << 16).seed(33).ecm_config().unwrap();
        let nodes: Vec<EcmEh> = (0..3)
            .map(|i| {
                let mut sk = EcmEh::new(&cfg);
                sk.set_id_namespace(i as u64 + 1);
                sk
            })
            .collect();
        let target = 99u64;
        let columns = {
            // PointFn columns must match the shared hash family: insert the
            // key once into a scratch sketch and find the touched cells.
            let mut probe = EcmEh::new(&cfg);
            probe.insert(1, target);
            let v = probe.estimate_vector(1, 1 << 16);
            (0..cfg.depth)
                .map(|j| {
                    (0..cfg.width)
                        .position(|i| v[j * cfg.width + i] > 0.0)
                        .expect("probe key must touch one cell per row")
                })
                .collect::<Vec<_>>()
        };
        let func = PointFn {
            width: cfg.width,
            columns,
        };
        let threshold = 50.0;
        let mut mon = GeometricMonitor::new(nodes, func, threshold, 1 << 16, 0);
        // Background noise, then a burst on the target key.
        let mut events = Vec::new();
        for t in 1..=400u64 {
            events.push(Event {
                ts: t,
                key: t % 60,
                site: (t % 3) as u32,
            });
        }
        for t in 401..=800u64 {
            events.push(Event {
                ts: t,
                key: target,
                site: (t % 3) as u32,
            });
        }
        let report = run_protocol(&mut mon, &events, threshold);
        assert_eq!(report.wrong_side_events, 0, "{report:?}");
        assert!(mon.above(), "the burst must leave the monitor above");
        // Quiet phase produced (almost) no syncs: the sync count is a small
        // fraction of the event count.
        assert!(
            report.stats.syncs < 40,
            "too much communication: {}",
            report.stats.syncs
        );
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let (nodes, func) = sketch_nodes(1, 100);
        let _ = PeriodicPushProtocol::new(nodes, func, 1.0, 100, 0, 0);
    }
}
