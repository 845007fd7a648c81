//! The distributed threshold monitor: local drift-ball constraint checks,
//! synchronization on violation, and message/byte accounting (paper §6.2).

use super::functions::MonitoredFunction;
use ecm::{EcmSketch, SketchWriter};
use sliding_window::traits::WindowCounter;
use stream_gen::Event;

/// Communication accounting of a monitoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Synchronization rounds (including the initial one).
    pub syncs: u64,
    /// Violations resolved by peer balancing instead of a full sync.
    pub balances: u64,
    /// Point-to-point messages exchanged.
    pub messages: u64,
    /// Bytes shipped (vectors are `8 · w · d` bytes each).
    pub bytes: u64,
    /// Local constraint checks performed (these are free of communication).
    pub checks: u64,
}

/// Outcome of feeding one event to the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MonitorEvent {
    /// All local constraints held; no communication.
    LocalOk,
    /// A local violation was resolved by balancing the violator against a
    /// subset of peers — no full synchronization was needed.
    Balanced {
        /// Number of nodes drawn into the balancing set (≥ 2).
        group: usize,
    },
    /// A local ball crossed the threshold; a synchronization ran.
    Synced {
        /// The function value on the fresh global estimate vector.
        value: f64,
        /// Whether the global value sits above the threshold after syncing.
        above: bool,
    },
}

/// Continuous threshold monitor over `n` sites holding ECM-sketches.
///
/// Created with the per-site sketches (typically empty), a monitored
/// function, a threshold, and the query range to extract statistics vectors
/// for. Feed events with [`observe`](Self::observe); the monitor inserts
/// into the observing site's sketch, re-checks every site's drift ball
/// (sliding windows drift with time even without arrivals), and
/// synchronizes when any ball straddles the threshold.
#[derive(Debug, Clone)]
pub struct GeometricMonitor<W: WindowCounter, F: MonitoredFunction> {
    nodes: Vec<EcmSketch<W>>,
    func: F,
    threshold: f64,
    range: u64,
    /// Global estimate vector `e` from the last synchronization.
    estimate: Vec<f64>,
    /// Per-site statistics vectors at the last synchronization.
    snapshot: Vec<Vec<f64>>,
    /// Per-site slack vectors from balancing (Sharfman et al. §Balancing):
    /// added to the drift vectors; they always sum to zero across sites, so
    /// the convex-hull covering argument is unaffected.
    slacks: Vec<Vec<f64>>,
    /// Whether local violations first try peer balancing before a full sync.
    balancing: bool,
    /// Side of the threshold at the last synchronization.
    above: bool,
    stats: MonitorStats,
    vec_len: usize,
}

impl<W: WindowCounter, F: MonitoredFunction> GeometricMonitor<W, F> {
    /// Initialize the monitor: runs the first synchronization at tick `now`.
    ///
    /// # Panics
    /// If `nodes` is empty or sketch shapes differ.
    pub fn new(nodes: Vec<EcmSketch<W>>, func: F, threshold: f64, range: u64, now: u64) -> Self {
        assert!(!nodes.is_empty(), "monitor needs at least one site");
        let vec_len = nodes[0].width() * nodes[0].depth();
        for n in &nodes {
            assert_eq!(
                n.width() * n.depth(),
                vec_len,
                "all sites must share the sketch shape"
            );
        }
        let n = nodes.len();
        let mut m = GeometricMonitor {
            nodes,
            func,
            threshold,
            range,
            estimate: vec![0.0; vec_len],
            snapshot: Vec::new(),
            slacks: vec![vec![0.0; vec_len]; n],
            balancing: false,
            above: false,
            stats: MonitorStats::default(),
            vec_len,
        };
        m.synchronize(now);
        m
    }

    /// Enable or disable local-violation balancing (Sharfman et al.): a
    /// violating node is first averaged against a growing set of peers; a
    /// full synchronization runs only when even the all-node balance fails.
    /// Off by default.
    pub fn set_balancing(&mut self, on: bool) {
        self.balancing = on;
    }

    /// The communication statistics so far.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Threshold side as of the last synchronization.
    pub fn above(&self) -> bool {
        self.above
    }

    /// The last global estimate vector.
    pub fn estimate_vector(&self) -> &[f64] {
        &self.estimate
    }

    /// Bytes one full synchronization costs: every site ships its vector to
    /// the coordinator and receives the new estimate.
    pub fn sync_bytes(&self) -> u64 {
        (2 * self.nodes.len() * self.vec_len * 8) as u64
    }

    /// Feed one event: insert at the observing site, then check every
    /// site's local constraint at the event's tick.
    pub fn observe(&mut self, e: Event) -> MonitorEvent {
        let site = e.site as usize;
        assert!(site < self.nodes.len(), "site {site} out of range");
        self.nodes[site].insert(e.ts, e.key);
        self.tick(e.ts)
    }

    /// Re-check all local constraints at tick `now` (windows drift with
    /// time even without arrivals); on violation, balance if enabled, else
    /// synchronize.
    pub fn tick(&mut self, now: u64) -> MonitorEvent {
        let mut violator = None;
        for i in 0..self.nodes.len() {
            self.stats.checks += 1;
            if self.ball_violates(i, now) {
                violator = Some(i);
                break;
            }
        }
        let Some(i) = violator else {
            return MonitorEvent::LocalOk;
        };
        if self.balancing && self.nodes.len() > 1 {
            if let Some(group) = self.try_balance(i, now) {
                return MonitorEvent::Balanced { group };
            }
        }
        let value = self.synchronize(now);
        MonitorEvent::Synced {
            value,
            above: value > self.threshold,
        }
    }

    /// Drift vector of site `i` at tick `now`:
    /// `u_i = e + (v_i(now) − v_i(sync)) + δ_i`.
    fn drift_vector(&self, i: usize, now: u64) -> Vec<f64> {
        let v_now = self.nodes[i].estimate_vector(now, self.range);
        self.estimate
            .iter()
            .zip(&v_now)
            .zip(&self.snapshot[i])
            .zip(&self.slacks[i])
            .map(|(((&e, &now_k), &snap_k), &slack)| e + (now_k - snap_k) + slack)
            .collect()
    }

    /// Whether the ball with diameter `[e, u]` crosses to the other side of
    /// the threshold.
    fn ball_dirty(&self, u: &[f64]) -> bool {
        let mut center = Vec::with_capacity(self.vec_len);
        let mut radius_sq = 0.0;
        for (&e, &uk) in self.estimate.iter().zip(u) {
            center.push((e + uk) / 2.0);
            let half = (e - uk) / 2.0;
            radius_sq += half * half;
        }
        let bounds = self.func.bounds_on_ball(&center, radius_sq.sqrt());
        if self.above {
            // Currently above: a crossing needs some point of the ball to
            // dip to or below the threshold.
            bounds.min <= self.threshold
        } else {
            bounds.max > self.threshold
        }
    }

    /// Drift-ball constraint of site `i` at tick `now`.
    fn ball_violates(&self, i: usize, now: u64) -> bool {
        self.ball_dirty(&self.drift_vector(i, now))
    }

    /// Balancing (Sharfman et al.): grow a set `P` around the violator; if
    /// the averaged drift vector `b = avg_{j∈P} u_j` yields a clean ball,
    /// set each member's slack so its drift becomes `b` (slacks cancel, so
    /// `Σ u_i / n` is untouched). Returns the group size on success.
    fn try_balance(&mut self, violator: usize, now: u64) -> Option<usize> {
        let n = self.nodes.len();
        let mut sum = self.drift_vector(violator, now);
        let mut members = vec![violator];
        // The violator's vector travels to the coordinator.
        self.stats.messages += 1;
        self.stats.bytes += (self.vec_len * 8) as u64;
        for step in 1..n {
            let peer = (violator + step) % n;
            let u = self.drift_vector(peer, now);
            self.stats.messages += 1;
            self.stats.bytes += (self.vec_len * 8) as u64;
            for (s, &x) in sum.iter_mut().zip(&u) {
                *s += x;
            }
            members.push(peer);
            let m = members.len() as f64;
            let b: Vec<f64> = sum.iter().map(|&s| s / m).collect();
            if !self.ball_dirty(&b) {
                // Assign slacks so every member's drift equals b.
                for &j in &members {
                    let u_j = self.drift_vector(j, now);
                    for ((slack, &bk), &uk) in self.slacks[j].iter_mut().zip(&b).zip(&u_j) {
                        *slack += bk - uk;
                    }
                }
                // Each member receives its slack adjustment.
                self.stats.messages += members.len() as u64;
                self.stats.bytes += (members.len() * self.vec_len * 8) as u64;
                self.stats.balances += 1;
                return Some(members.len());
            }
        }
        None
    }

    /// Full synchronization: collect all vectors, average into the new
    /// estimate, snapshot, and charge the communication.
    fn synchronize(&mut self, now: u64) -> f64 {
        let n = self.nodes.len();
        self.snapshot = self
            .nodes
            .iter()
            .map(|sk| sk.estimate_vector(now, self.range))
            .collect();
        let mut avg = vec![0.0; self.vec_len];
        for v in &self.snapshot {
            for (a, &x) in avg.iter_mut().zip(v) {
                *a += x;
            }
        }
        for a in &mut avg {
            *a /= n as f64;
        }
        self.estimate = avg;
        // A full sync zeroes every slack: the fresh snapshot is the new
        // reference and the Σδ = 0 invariant restarts trivially.
        for s in &mut self.slacks {
            s.iter_mut().for_each(|x| *x = 0.0);
        }
        let value = self.func.value(&self.estimate);
        self.above = value > self.threshold;
        self.stats.syncs += 1;
        self.stats.messages += 2 * n as u64;
        self.stats.bytes += self.sync_bytes();
        value
    }

    /// The function value on the *true* current average vector — the
    /// quantity the geometric method promises to keep on the known side of
    /// the threshold between synchronizations. Exposed for validation.
    pub fn true_global_value(&self, now: u64) -> f64 {
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
        self.func.value(&avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::functions::SelfJoinFn;
    use ecm::{EcmEh, QueryKind, SketchSpec};

    use stream_gen::Event;

    fn make_monitor(
        n_sites: usize,
        threshold: f64,
    ) -> GeometricMonitor<sliding_window::ExponentialHistogram, SelfJoinFn> {
        let cfg = SketchSpec::time(1 << 20)
            .query_kind(QueryKind::InnerProduct)
            .seed(17)
            .ecm_config()
            .unwrap();
        let nodes: Vec<EcmEh> = (0..n_sites)
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
        GeometricMonitor::new(nodes, func, threshold, 1 << 20, 0)
    }

    #[test]
    fn initial_sync_charges_communication() {
        let m = make_monitor(4, 100.0);
        let s = m.stats();
        assert_eq!(s.syncs, 1);
        assert_eq!(s.messages, 8);
        assert_eq!(s.bytes, m.sync_bytes());
        assert!(!m.above());
    }

    #[test]
    fn crossing_is_never_missed() {
        // Self-join of the average vector grows as one key floods the
        // stream; the monitor must sync at or before the true crossing.
        let threshold = 30.0;
        let mut m = make_monitor(3, threshold);
        let mut last_known_side = m.above();
        for t in 1..=600u64 {
            let ev = Event {
                ts: t,
                key: 5,
                site: (t % 3) as u32,
            };
            let outcome = m.observe(ev);
            let truth_above = m.true_global_value(t) > threshold;
            match outcome {
                MonitorEvent::Synced { above, .. } => last_known_side = above,
                // Balancing is off in this monitor; LocalOk is the only
                // other outcome.
                MonitorEvent::LocalOk | MonitorEvent::Balanced { .. } => {
                    // Core geometric-method guarantee: between syncs the true
                    // global value stays on the last known side.
                    assert_eq!(truth_above, last_known_side, "missed crossing at t={t}");
                }
            }
        }
        assert!(
            last_known_side,
            "flooding one key must eventually cross the threshold"
        );
        assert!(m.stats().syncs >= 2, "at least one re-sync expected");
    }

    #[test]
    fn quiet_streams_avoid_synchronization() {
        // Uniform arrivals spread over many keys keep the self-join small;
        // after the initial syncs the monitor should mostly stay local.
        let mut m = make_monitor(4, 1e9);
        for t in 1..=2000u64 {
            let ev = Event {
                ts: t,
                key: t % 500,
                site: (t % 4) as u32,
            };
            m.observe(ev);
        }
        let s = m.stats();
        assert!(
            s.syncs <= 5,
            "far-from-threshold stream should not thrash: {} syncs",
            s.syncs
        );
        // Communication is far below the ship-every-update baseline.
        let naive = 2000 * m.sync_bytes() / 4;
        assert!(s.bytes * 10 < naive, "bytes={} naive={}", s.bytes, naive);
    }

    #[test]
    fn downward_crossings_are_caught_too() {
        // Push above the threshold, then let the window age the mass out.
        let threshold = 25.0;
        let cfg = SketchSpec::time(100)
            .query_kind(QueryKind::InnerProduct)
            .seed(23)
            .ecm_config()
            .unwrap();
        let nodes: Vec<EcmEh> = (0..2).map(|_| EcmEh::new(&cfg)).collect();
        let func = SelfJoinFn {
            width: cfg.width,
            depth: cfg.depth,
        };
        let mut m = GeometricMonitor::new(nodes, func, threshold, 100, 0);
        let mut last_side = m.above();
        for t in 1..=60u64 {
            let ev = Event {
                ts: t,
                key: 9,
                site: (t % 2) as u32,
            };
            if let MonitorEvent::Synced { above, .. } = m.observe(ev) {
                last_side = above;
            }
        }
        assert!(last_side, "should be above after the burst");
        // No arrivals for a full window; drive time forward with ticks.
        for t in 61..=400u64 {
            if let MonitorEvent::Synced { above, .. } = m.tick(t) {
                last_side = above;
            }
            let truth_above = m.true_global_value(t) > threshold;
            if matches!(m.tick(t), MonitorEvent::LocalOk) {
                assert_eq!(truth_above, last_side, "missed downward crossing at t={t}");
            }
        }
        assert!(!last_side, "mass aged out; must be below again");
    }

    #[test]
    fn balancing_preserves_the_no_missed_crossing_guarantee() {
        // Same scenario as `crossing_is_never_missed`, with balancing on:
        // slacks sum to zero, so the covering argument — and therefore the
        // guarantee — is intact.
        let threshold = 30.0;
        let mut m = make_monitor(3, threshold);
        m.set_balancing(true);
        let mut last_known_side = m.above();
        let mut balanced = 0u64;
        for t in 1..=600u64 {
            let ev = Event {
                ts: t,
                key: 5,
                site: (t % 3) as u32,
            };
            let outcome = m.observe(ev);
            let truth_above = m.true_global_value(t) > threshold;
            match outcome {
                MonitorEvent::Synced { above, .. } => last_known_side = above,
                MonitorEvent::Balanced { group } => {
                    assert!(group >= 2);
                    balanced += 1;
                    assert_eq!(truth_above, last_known_side, "missed at t={t}");
                }
                MonitorEvent::LocalOk => {
                    assert_eq!(truth_above, last_known_side, "missed at t={t}");
                }
            }
        }
        assert!(last_known_side, "the flood must cross");
        assert_eq!(m.stats().balances, balanced);
    }

    #[test]
    fn balancing_reduces_full_synchronizations() {
        // A skewed load: one site receives a key burst the others do not
        // see. Its local ball violates early, but the *average* stays far
        // from the threshold, which is exactly when balancing pays.
        let threshold = 1_000.0;
        let feed = |m: &mut GeometricMonitor<sliding_window::ExponentialHistogram, SelfJoinFn>| {
            for t in 1..=1_500u64 {
                let (key, site) = if t % 3 == 0 {
                    (9, 0) // site 0 hammers one key
                } else {
                    (t % 700, 1 + (t % 3) as u32)
                };
                m.observe(Event { ts: t, key, site });
            }
        };

        let mut plain = make_monitor(4, threshold);
        feed(&mut plain);
        let mut balanced = make_monitor(4, threshold);
        balanced.set_balancing(true);
        feed(&mut balanced);

        let p = plain.stats();
        let b = balanced.stats();
        assert!(
            b.syncs < p.syncs,
            "balancing must avoid full syncs: {} vs {}",
            b.syncs,
            p.syncs
        );
        assert!(b.balances > 0, "balancing must actually trigger");
        // And both report the same (correct) side throughout — checked by
        // the guarantee test above; here we just confirm final agreement.
        assert_eq!(plain.above(), balanced.above());
    }

    #[test]
    fn slacks_always_sum_to_zero() {
        let mut m = make_monitor(3, 25.0);
        m.set_balancing(true);
        for t in 1..=400u64 {
            let ev = Event {
                ts: t,
                key: 3,
                site: (t % 3) as u32,
            };
            m.observe(ev);
            // Invariant: Σ_i δ_i = 0 coordinate-wise.
            for k in 0..m.vec_len {
                let s: f64 = m.slacks.iter().map(|v| v[k]).sum();
                assert!(s.abs() < 1e-6, "slack sum {s} at t={t} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_monitor_rejected() {
        let _: GeometricMonitor<sliding_window::ExponentialHistogram, SelfJoinFn> =
            GeometricMonitor::new(Vec::new(), SelfJoinFn { width: 1, depth: 1 }, 1.0, 10, 0);
    }
}
