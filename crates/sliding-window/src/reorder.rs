//! Bounded-delay reordering for out-of-order arrivals.
//!
//! The deterministic synopses in this crate require non-decreasing ticks.
//! Real distributed streams deliver late (e.g. network-delayed) events; a
//! whole line of related work (Xu et al., Cormode–Tirthapura–Xu, Busch &
//! Tirthapura — paper §2) designs synopses tolerating this natively, at a
//! `1/ε²` space premium. [`ReorderBuffer`] is the practical alternative the
//! paper's deterministic structures pair with: buffer arrivals inside a
//! bounded-delay horizon `D`, release them in tick order, and *reject* (and
//! count) anything later than `D` — preserving the inner counter's ε
//! guarantee over the reordered stream.

use crate::traits::WindowCounter;
use std::collections::BTreeMap;

/// Configuration of a [`ReorderBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Maximum tolerated lateness in ticks: an arrival with
    /// `ts < watermark − delay_bound` is dropped (and counted).
    pub delay_bound: u64,
}

impl ReorderConfig {
    /// Build a config; a `delay_bound` of 0 accepts only in-order input.
    pub fn new(delay_bound: u64) -> Self {
        ReorderConfig { delay_bound }
    }
}

/// Wraps any [`WindowCounter`], accepting arrivals up to `delay_bound`
/// ticks late and feeding the inner counter in tick order.
///
/// The watermark is the maximum tick observed; events older than
/// `watermark − delay_bound` are flushed into the inner counter (their
/// order among themselves is fully restored), so queries lag the newest
/// arrivals by at most the delay bound unless [`flush_all`](Self::flush_all)
/// is called first.
///
/// ```
/// use sliding_window::{EhConfig, ExponentialHistogram};
/// use sliding_window::{ReorderBuffer, ReorderConfig};
///
/// let mut buf: ReorderBuffer<ExponentialHistogram> =
///     ReorderBuffer::new(&EhConfig::new(0.1, 1000), ReorderConfig::new(5));
/// assert!(buf.offer(10, 1));
/// assert!(buf.offer(8, 2));   // 2 ticks late: reordered
/// assert!(!buf.offer(2, 3));  // 8 ticks late: dropped
/// buf.flush_all();
/// assert_eq!(buf.inner().stored_ones(), 2);
/// assert_eq!(buf.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer<W: WindowCounter> {
    inner: W,
    cfg: ReorderConfig,
    /// Pending arrivals: tick → arrival ids at that tick.
    pending: BTreeMap<u64, Vec<u64>>,
    pending_count: usize,
    watermark: u64,
    /// Arrivals rejected for exceeding the delay bound.
    dropped: u64,
}

impl<W: WindowCounter> ReorderBuffer<W> {
    /// Wrap a fresh inner counter.
    pub fn new(inner_cfg: &W::Config, cfg: ReorderConfig) -> Self {
        ReorderBuffer {
            inner: W::new(inner_cfg),
            cfg,
            pending: BTreeMap::new(),
            pending_count: 0,
            watermark: 0,
            dropped: 0,
        }
    }

    /// Offer an arrival, possibly out of order. Returns `false` (and counts
    /// the drop) if it is older than the delay horizon.
    pub fn offer(&mut self, ts: u64, id: u64) -> bool {
        // The horizon `drain_ripe` uses, saturating: a bound near `u64::MAX`
        // ("never drop") must not overflow `ts + delay_bound`.
        if ts < self.watermark.saturating_sub(self.cfg.delay_bound) {
            self.dropped += 1;
            return false;
        }
        self.watermark = self.watermark.max(ts);
        self.pending.entry(ts).or_default().push(id);
        self.pending_count += 1;
        self.drain_ripe();
        true
    }

    fn drain_ripe(&mut self) {
        let horizon = self.watermark.saturating_sub(self.cfg.delay_bound);
        // Ticks strictly below the horizon can no longer be preceded by any
        // acceptable future arrival.
        while let Some((&ts, _)) = self.pending.first_key_value() {
            if ts >= horizon {
                break;
            }
            let (ts, ids) = self.pending.pop_first().expect("nonempty");
            self.pending_count -= ids.len();
            for id in ids {
                self.inner.insert(ts, id);
            }
        }
    }

    /// Flush every pending arrival into the inner counter (e.g. before a
    /// query that must reflect the newest events, or at stream end).
    pub fn flush_all(&mut self) {
        while let Some((ts, ids)) = self.pending.pop_first() {
            self.pending_count -= ids.len();
            for id in ids {
                self.inner.insert(ts, id);
            }
        }
    }

    /// Arrivals currently buffered.
    pub fn pending(&self) -> usize {
        self.pending_count
    }

    /// Arrivals rejected as too late.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The max tick observed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Read access to the inner counter (reflects flushed arrivals only).
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Consume the wrapper, flushing pending arrivals first.
    pub fn into_inner(mut self) -> W {
        self.flush_all();
        self.inner
    }

    /// Query the inner counter. Arrivals still in the buffer are *not*
    /// included; call [`flush_all`](Self::flush_all) first when the query
    /// must see everything.
    pub fn query(&self, now: u64, range: u64) -> f64 {
        self.inner.query(now, range)
    }

    /// Memory of wrapper + inner counter.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.pending_count * std::mem::size_of::<(u64, u64)>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential_histogram::{EhConfig, ExponentialHistogram};
    use proptest::prelude::*;

    type Reh = ReorderBuffer<ExponentialHistogram>;

    fn make(delay: u64) -> Reh {
        ReorderBuffer::new(&EhConfig::new(0.1, 1_000_000), ReorderConfig::new(delay))
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = make(0);
        for t in 1..=100u64 {
            assert!(r.offer(t, t));
        }
        r.flush_all();
        assert_eq!(r.inner().stored_ones(), 100);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn bounded_lateness_is_restored() {
        let mut r = make(10);
        // Offer a shuffled-within-10 stream: t, t-3, t+1, ...
        let mut offered = Vec::new();
        for base in (1..=500u64).step_by(5) {
            for &dt in &[4u64, 0, 3, 1, 2] {
                let ts = base + dt;
                assert!(r.offer(ts, ts), "ts={ts} rejected");
                offered.push(ts);
            }
        }
        r.flush_all();
        assert_eq!(r.inner().stored_ones(), offered.len() as u64);
        // Count over a sub-range matches the exact count despite disorder.
        offered.sort_unstable();
        let now = *offered.last().unwrap();
        let exact = offered.iter().filter(|&&t| t > now - 100).count() as f64;
        let est = r.query(now, 100);
        assert!(
            (est - exact).abs() <= 0.1 * exact + 1.0,
            "est={est} exact={exact}"
        );
    }

    #[test]
    fn too_late_arrivals_are_dropped_and_counted() {
        let mut r = make(5);
        assert!(r.offer(100, 1));
        assert!(r.offer(96, 2)); // 4 late: accepted
        assert!(!r.offer(90, 3)); // 10 late: dropped
        assert_eq!(r.dropped(), 1);
        r.flush_all();
        assert_eq!(r.inner().stored_ones(), 2);
    }

    #[test]
    fn an_unbounded_delay_never_drops() {
        let mut r = make(u64::MAX);
        let mut offered = 0u64;
        for t in [5u64, 9, 9, 12, 3, 1, 12, 100, 0, 50] {
            // In order, a duplicate tick, then arrivals far behind the
            // watermark: all of them are inside an unbounded horizon.
            assert!(r.offer(t, offered), "ts={t} rejected");
            offered += 1;
        }
        assert_eq!(r.dropped(), 0);
        r.flush_all();
        assert_eq!(r.inner().stored_ones(), offered);
    }

    #[test]
    fn ripe_events_drain_automatically() {
        let mut r = make(10);
        r.offer(1, 1);
        r.offer(2, 2);
        assert_eq!(r.pending(), 2);
        // Advancing the watermark past 12 makes ticks 1 and 2 ripe.
        r.offer(13, 3);
        assert!(r.pending() <= 1 + 1, "old ticks must have drained");
        assert_eq!(r.inner().stored_ones() + r.pending() as u64, 3);
    }

    #[test]
    fn into_inner_flushes() {
        let mut r = make(50);
        r.offer(10, 1);
        r.offer(5, 2);
        let eh = r.into_inner();
        assert_eq!(eh.stored_ones(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any stream with bounded disorder is counted exactly (no loss, no
        /// duplication), and sub-range estimates stay within the inner ε.
        #[test]
        fn prop_bounded_disorder_preserves_counts(
            jitters in proptest::collection::vec(0u64..8, 50..400),
        ) {
            let mut r = make(8);
            let mut ticks = Vec::new();
            for (i, &j) in jitters.iter().enumerate() {
                // Monotone base with bounded backward jitter.
                let base = (i as u64 + 1) * 2 + 8;
                let ts = base - j;
                prop_assert!(r.offer(ts, i as u64), "ts {} rejected", ts);
                ticks.push(ts);
            }
            r.flush_all();
            prop_assert_eq!(r.inner().stored_ones(), ticks.len() as u64);
            prop_assert_eq!(r.dropped(), 0);
            ticks.sort_unstable();
            let now = *ticks.last().unwrap();
            let range = now / 2 + 1;
            let exact = ticks.iter().filter(|&&t| t > now - range).count() as f64;
            let est = r.query(now, range);
            prop_assert!(
                (est - exact).abs() <= 0.1 * exact + 1.0,
                "est={} exact={}", est, exact
            );
        }
    }
}
