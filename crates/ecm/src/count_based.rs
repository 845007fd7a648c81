//! Count-based sliding windows made ergonomic (paper §4.2.1).
//!
//! A count-based window covers the last `N` *arrivals* rather than the last
//! `N` ticks. The underlying machinery is identical — the counter's clock is
//! the global arrival index — so [`CountBasedEcm`] simply owns that clock:
//! callers insert items without timestamps and query by arrival ranges.
//!
//! Count-based sketches deliberately expose **no merge operation**: the
//! order-preserving aggregation of count-based windows is information-
//! theoretically impossible (paper Fig. 2; demonstrated in
//! `tests/count_based_windows.rs`).

use crate::config::EcmConfig;
use crate::hierarchy::{EcmHierarchy, Threshold};
use crate::sketch::EcmSketch;
use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::traits::WindowCounter;
use sliding_window::{CodecError, ExponentialHistogram};

const CODEC_VERSION: u8 = 1;

/// ECM-sketch over a count-based window of the last `N` arrivals.
///
/// ```
/// use ecm::{Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
///
/// // Frequencies over the last 1000 arrivals, ε = 0.1.
/// let mut sk = SketchSpec::count(1000).seed(1).build().unwrap();
/// for i in 0..5000u64 {
///     sk.insert(i, i % 10); // the arrival index is the clock; `ts` is ignored
/// }
/// // Each key holds ~100 of the last 1000 arrivals.
/// let est = sk
///     .query(&Query::point(3), WindowSpec::last(1000))
///     .unwrap()
///     .into_value();
/// assert!((est.value - 100.0).abs() <= 0.1 * 1000.0 + 1.0);
/// // Count-based backends answer count-based windows only.
/// assert!(sk.query(&Query::point(3), WindowSpec::time(5000, 1000)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CountBasedEcm<W: WindowCounter = ExponentialHistogram> {
    inner: EcmSketch<W>,
    /// Global arrival index — the count-based clock.
    arrivals: u64,
}

impl<W: WindowCounter> CountBasedEcm<W> {
    /// Create an empty sketch; `cfg.cell`'s window length is interpreted as
    /// a number of arrivals.
    pub fn new(cfg: &EcmConfig<W>) -> Self {
        CountBasedEcm {
            inner: EcmSketch::new(cfg),
            arrivals: 0,
        }
    }

    /// The write kernel: `n` occurrences of `item`; the count-based clock
    /// advances by `n`, so — unlike the same-tick bursts of time-based
    /// sketches — the occurrences land on `n` **consecutive** ticks, each
    /// carrying its tick as its id. The `d` bucket indices are hashed once
    /// per run.
    pub(crate) fn record(&mut self, item: u64, n: u64) {
        if n == 0 {
            return;
        }
        let first = self.arrivals + 1;
        self.arrivals += n;
        self.inner.insert_ticking_run(first, item, first, n);
    }

    /// Estimated frequency of `item` among the last `last_n` arrivals;
    /// core of the typed [`Query::point`](crate::query::Query::point) path.
    pub(crate) fn point_query(&self, item: u64, last_n: u64) -> f64 {
        self.inner.point_query(item, self.arrivals, last_n)
    }

    /// Self-join size estimate over the last `last_n` arrivals.
    pub(crate) fn self_join(&self, last_n: u64) -> f64 {
        self.inner.self_join(self.arrivals, last_n)
    }

    /// Inner product against another count-based sketch over each one's
    /// last `last_n` arrivals.
    ///
    /// Note: the two sketches' windows are aligned by *their own* arrival
    /// clocks — there is no global ordering between two count-based
    /// streams (paper Fig. 2).
    ///
    /// # Errors
    /// Propagates shape/seed mismatches.
    pub(crate) fn inner_product(
        &self,
        other: &CountBasedEcm<W>,
        last_n: u64,
    ) -> Result<f64, sliding_window::MergeError> {
        // Evaluate each side at its own clock by exploiting that
        // `inner_product` only reads cell estimates: compute via vectors.
        let va = self.inner.estimate_vector(self.arrivals, last_n);
        let vb = other.inner.estimate_vector(other.arrivals, last_n);
        if va.len() != vb.len()
            || self.inner.width() != other.inner.width()
            || self.inner.depth() != other.inner.depth()
        {
            return Err(sliding_window::MergeError::IncompatibleConfig {
                detail: "count-based inner product needs matching shapes".into(),
            });
        }
        let w = self.inner.width();
        let d = self.inner.depth();
        let mut best = f64::INFINITY;
        for j in 0..d {
            let dot: f64 = (0..w).map(|i| va[j * w + i] * vb[j * w + i]).sum();
            best = best.min(dot);
        }
        Ok(best)
    }

    /// Total arrivals observed so far (the clock).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Estimated arrivals among the last `last_n` (≈ `min(last_n, arrivals)`;
    /// useful as a sanity probe of the row-average estimator).
    pub(crate) fn total_arrivals(&self, last_n: u64) -> f64 {
        self.inner.total_arrivals(self.arrivals, last_n)
    }

    /// The wrapped tick-addressed sketch.
    pub fn as_inner(&self) -> &EcmSketch<W> {
        &self.inner
    }

    /// Memory held.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    /// Append the compact wire encoding: the arrival clock, then the
    /// wrapped tick-addressed sketch.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.arrivals);
        self.inner.encode(buf);
    }

    /// Decode a sketch previously produced by [`encode`](Self::encode);
    /// `cfg` must match the encoder's configuration.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, corruption, an unsupported version, or
    /// an arrival clock that disagrees with the inner sketch's.
    pub fn decode(cfg: &EcmConfig<W>, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "count-based version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let arrivals = get_varint(input, "count-based arrivals")?;
        let inner = EcmSketch::decode(cfg, input)?;
        // The count-based clock *is* the inner sketch's tick clock (one
        // tick per arrival); a snapshot where they diverge is corrupt.
        if inner.last_tick() != arrivals {
            return Err(CodecError::Corrupt {
                context: "count-based clock",
            });
        }
        Ok(CountBasedEcm { inner, arrivals })
    }
}

/// Dyadic hierarchy over a count-based window: sliding-window heavy
/// hitters, range sums and quantiles over the last `N` **arrivals** (the
/// "last 10 000 visits" flavor of the paper's e-shop motivation, §1).
///
/// Same machinery as [`EcmHierarchy`] with the arrival index as the clock;
/// like [`CountBasedEcm`], it deliberately exposes no merge (paper Fig. 2).
///
/// ```
/// use ecm::{Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec};
///
/// let mut h = SketchSpec::count(1_000)
///     .epsilon(0.05)
///     .delta(0.05)
///     .seed(2)
///     .hierarchy(8)
///     .build()
///     .unwrap();
/// for i in 0..5_000u64 {
///     // Key 42 takes a third of the recent traffic.
///     h.insert(i, if i % 3 == 0 { 42 } else { i % 200 });
/// }
/// let hot = h
///     .query(
///         &Query::heavy_hitters(Threshold::Relative(0.2)),
///         WindowSpec::last(1_000),
///     )
///     .unwrap()
///     .into_heavy_hitters();
/// assert!(hot.iter().any(|&(k, _)| k == 42));
/// ```
#[derive(Debug, Clone)]
pub struct CountBasedHierarchy<W: WindowCounter = ExponentialHistogram> {
    inner: EcmHierarchy<W>,
    arrivals: u64,
}

impl<W: WindowCounter> CountBasedHierarchy<W> {
    /// Create a hierarchy over a `bits`-bit key universe; `cfg.cell`'s
    /// window length is interpreted as a number of arrivals.
    pub fn new(bits: u32, cfg: &EcmConfig<W>) -> Self {
        CountBasedHierarchy {
            inner: EcmHierarchy::new(bits, cfg),
            arrivals: 0,
        }
    }

    /// Key-universe size exponent.
    pub fn bits(&self) -> u32 {
        self.inner.bits()
    }

    /// Total arrivals observed (the clock).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// The write kernel: `n` occurrences of key `x` on `n` consecutive
    /// clock ticks — one hashed run per level. The caller checks `x`
    /// against the universe.
    pub(crate) fn record(&mut self, x: u64, n: u64) {
        if n == 0 {
            return;
        }
        let first = self.arrivals + 1;
        self.arrivals += n;
        self.inner.insert_ticking_run(first, x, n);
    }

    /// Heavy hitters among the last `last_n` arrivals.
    pub(crate) fn heavy_hitters(&self, threshold: Threshold, last_n: u64) -> Vec<(u64, f64)> {
        self.inner.heavy_hitters(threshold, self.arrivals, last_n)
    }

    /// Estimated number of the last `last_n` arrivals with key in `[lo, hi]`.
    pub(crate) fn range_sum(&self, lo: u64, hi: u64, last_n: u64) -> f64 {
        self.inner.range_sum(lo, hi, self.arrivals, last_n)
    }

    /// The φ-quantile key of the last `last_n` arrivals.
    ///
    /// # Panics
    /// If `phi ∉ (0, 1]`.
    pub(crate) fn quantile(&self, phi: f64, last_n: u64) -> Option<u64> {
        self.inner.quantile(phi, self.arrivals, last_n)
    }

    /// Estimated arrivals among the last `last_n`
    /// (≈ `min(last_n, arrivals)`).
    pub(crate) fn total_arrivals(&self, last_n: u64) -> f64 {
        self.inner.total_arrivals(self.arrivals, last_n)
    }

    /// The wrapped tick-addressed hierarchy.
    pub fn as_inner(&self) -> &EcmHierarchy<W> {
        &self.inner
    }

    /// Memory held.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    /// Append the compact wire encoding: the arrival clock, then the
    /// wrapped tick-addressed hierarchy.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.arrivals);
        self.inner.encode(buf);
    }

    /// Decode a hierarchy previously produced by [`encode`](Self::encode);
    /// `bits` and `cfg` must match the encoder's construction parameters.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, corruption, an unsupported version, or
    /// an arrival clock that disagrees with the inner hierarchy's.
    pub fn decode(bits: u32, cfg: &EcmConfig<W>, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "count-based hierarchy version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let arrivals = get_varint(input, "count-based hierarchy arrivals")?;
        let inner = EcmHierarchy::decode(bits, cfg, input)?;
        if inner.last_tick() != arrivals {
            return Err(CodecError::Corrupt {
                context: "count-based hierarchy clock",
            });
        }
        Ok(CountBasedHierarchy { inner, arrivals })
    }
}

#[cfg(test)]
mod tests {
    // These tests exercise the crate-private positional core on purpose:
    // they pin down the computation the typed query layer delegates to.
    // Query-surface coverage lives in the query module's own tests.
    use super::*;
    use crate::api::{SketchSpec, SketchWriter};
    use crate::config::eh_config;
    use std::collections::HashMap;

    fn cfg(n: u64) -> EcmConfig<ExponentialHistogram> {
        eh_config(&SketchSpec::time(n).seed(13))
    }

    #[test]
    fn window_is_counted_in_arrivals_not_time() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(100));
        // 500 arrivals of key 1, then 100 of key 2: the last 100 arrivals
        // are all key 2 regardless of any wall-clock notion.
        for _ in 0..500 {
            sk.insert(0, 1);
        }
        for _ in 0..100 {
            sk.insert(0, 2);
        }
        let est1 = sk.point_query(1, 100);
        let est2 = sk.point_query(2, 100);
        assert!(
            est1 <= 0.1 * 100.0 + 1.0,
            "key 1 must have aged out: {est1}"
        );
        assert!((est2 - 100.0).abs() <= 0.1 * 100.0, "est2={est2}");
        assert_eq!(sk.arrivals(), 600);
    }

    #[test]
    fn sub_window_queries_follow_the_clock() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(1_000));
        let mut log = Vec::new();
        for i in 0..3_000u64 {
            let key = (i / 10) % 7;
            sk.insert(0, key);
            log.push(key);
        }
        for last_n in [50u64, 300, 1_000] {
            let recent = &log[log.len() - last_n as usize..];
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for &k in recent {
                *truth.entry(k).or_insert(0) += 1;
            }
            for key in 0..7u64 {
                let exact = *truth.get(&key).unwrap_or(&0) as f64;
                let est = sk.point_query(key, last_n);
                assert!(
                    (est - exact).abs() <= 0.1 * last_n as f64 + 1.0,
                    "key={key} last_n={last_n} est={est} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn self_join_and_totals() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(500));
        for i in 0..2_000u64 {
            sk.insert(0, i % 5);
        }
        // Last 500 arrivals: 100 each of 5 keys → F2 = 5·100² = 50 000.
        let sj = sk.self_join(500);
        assert!((sj - 50_000.0).abs() <= 0.25 * 50_000.0, "sj={sj}");
        let total = sk.total_arrivals(500);
        assert!((total - 500.0).abs() <= 60.0, "total={total}");
    }

    #[test]
    fn empty_sketch_answers_zero() {
        let sk: CountBasedEcm = CountBasedEcm::new(&cfg(100));
        assert_eq!(sk.arrivals(), 0);
        assert_eq!(sk.point_query(1, 100), 0.0);
        assert_eq!(sk.self_join(100), 0.0);
        assert_eq!(sk.total_arrivals(100), 0.0);
    }

    #[test]
    fn query_wider_than_history_clamps() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(1_000));
        for _ in 0..50 {
            sk.insert(0, 9);
        }
        // Asking for the last 1000 arrivals when only 50 happened.
        let est = sk.point_query(9, 1_000);
        assert!((est - 50.0).abs() <= 6.0, "est={est}");
    }

    #[test]
    fn weighted_bursts_stay_within_envelope() {
        // Many arrivals of one key at the same logical instant (a burst)
        // still advance the count-based clock one per arrival.
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(200));
        for _ in 0..100 {
            sk.insert(0, 1);
        }
        for _ in 0..100 {
            sk.insert(0, 2);
        }
        for _ in 0..100 {
            sk.insert(0, 3);
        }
        // Last 200: keys 2 and 3 only.
        assert!(sk.point_query(1, 200) <= 0.1 * 200.0 + 1.0);
        assert!((sk.point_query(2, 200) - 100.0).abs() <= 21.0);
        assert!((sk.point_query(3, 200) - 100.0).abs() <= 21.0);
    }

    #[test]
    fn clock_advances_monotonically_per_insert() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(64));
        for i in 1..=300u64 {
            sk.insert(0, i % 3);
            assert_eq!(sk.arrivals(), i);
        }
        assert_eq!(sk.as_inner().lifetime_arrivals(), 300);
        assert_eq!(sk.as_inner().last_tick(), 300);
    }

    #[test]
    fn memory_is_bounded_by_window_not_stream() {
        let mut sk: CountBasedEcm = CountBasedEcm::new(&cfg(256));
        for i in 0..1_000u64 {
            sk.insert(0, i % 50);
        }
        let early = sk.memory_bytes();
        for i in 0..50_000u64 {
            sk.insert(0, i % 50);
        }
        let late = sk.memory_bytes();
        // Polylog growth with the arrival count, never linear.
        assert!(
            late < early * 4,
            "memory must stay near-flat: {early} → {late}"
        );
    }

    #[test]
    fn count_based_hierarchy_heavy_hitters_follow_the_clock() {
        let cfg = eh_config(&SketchSpec::time(2_000).epsilon(0.05).delta(0.05).seed(21));
        let mut h: CountBasedHierarchy = CountBasedHierarchy::new(8, &cfg);
        // First 4000 arrivals: key 9 dominates; last 2000: key 200 does.
        for i in 0..4_000u64 {
            h.insert(0, if i % 2 == 0 { 9 } else { i % 128 });
        }
        for i in 0..2_000u64 {
            h.insert(0, if i % 2 == 0 { 200 } else { i % 128 });
        }
        let hot = h.heavy_hitters(Threshold::Relative(0.3), 2_000);
        let keys: Vec<u64> = hot.iter().map(|&(k, _)| k).collect();
        assert!(keys.contains(&200), "keys={keys:?}");
        assert!(!keys.contains(&9), "aged-out key reported: {keys:?}");
        assert_eq!(h.arrivals(), 6_000);
    }

    #[test]
    fn count_based_hierarchy_quantiles_and_ranges() {
        let cfg = eh_config(&SketchSpec::time(1_000).epsilon(0.05).delta(0.05).seed(8));
        let mut h: CountBasedHierarchy = CountBasedHierarchy::new(10, &cfg);
        for i in 0..10_000u64 {
            h.insert(0, i % 1000);
        }
        // The last 1000 arrivals hold each key exactly once.
        let med = h.quantile(0.5, 1_000).unwrap();
        assert!((420..=580).contains(&med), "median={med}");
        let half = h.range_sum(0, 499, 1_000);
        assert!((half - 500.0).abs() <= 150.0, "half={half}");
        let total = h.total_arrivals(1_000);
        assert!((total - 1_000.0).abs() <= 120.0, "total={total}");
    }

    #[test]
    fn inner_product_between_count_based_streams() {
        let c = cfg(400);
        let mut a: CountBasedEcm = CountBasedEcm::new(&c);
        let mut b: CountBasedEcm = CountBasedEcm::new(&c);
        for i in 0..1_000u64 {
            a.insert(0, i % 4);
            b.insert(0, i % 8);
        }
        // Last 400 of each: a has 100 per key in 0..4; b has 50 per key in
        // 0..8. Overlap keys 0..4 → 4·100·50 = 20 000.
        let ip = a.inner_product(&b, 400).unwrap();
        assert!((ip - 20_000.0).abs() <= 0.3 * 20_000.0, "ip={ip}");

        let other = CountBasedEcm::<ExponentialHistogram>::new(&cfg(100));
        // Different shape (same builder settings, different window → same
        // shape actually; force a different width via epsilon).
        let wide_cfg = eh_config(&SketchSpec::time(400).epsilon(0.05).seed(13));
        let wide: CountBasedEcm = CountBasedEcm::new(&wide_cfg);
        assert!(a.inner_product(&wide, 100).is_err());
        let _ = other;
    }
}
