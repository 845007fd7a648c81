//! Hybrid histogram — the sliding-window *range query* baseline of Qiao,
//! Agrawal and El Abbadi (SSDBM 2003) that the paper's related-work section
//! contrasts the dyadic ECM hierarchy against (§2).
//!
//! The structure marries the two simplest tools for each dimension: time is
//! tracked by an exponential histogram (buckets of exponentially growing
//! sizes, invariant 1, half-the-oldest-bucket queries), and *within each time
//! bucket* the value domain is cut into a fixed number of equi-width bins.
//! A range query `(value ∈ [lo, hi], last r ticks)` sums the matching bins of
//! the in-range time buckets, prorating partial bin overlaps uniformly.
//!
//! The paper's criticism is reproduced faithfully: the time dimension keeps
//! its ε guarantee, but the value dimension has none — a value range narrower
//! than one bin inherits whatever fraction of the bin's mass the uniformity
//! assumption assigns it, which can be arbitrarily wrong on skewed data.
//! `ecm_bench::repro::baseline_hybrid` measures this failure mode against
//! the dyadic ECM hierarchy, which answers the same queries with a
//! guaranteed error (the `s2.hybrid_unbounded` claim of
//! `REPRODUCTION.json`).
//!
//! Composition is also absent (the paper: "cannot be composed in a
//! distributed setting"): merging two hybrid histograms would need the
//! stream-reconstruction argument of §5.1 *per value bin*, which the bucket
//! bins do not retain enough information for. No `MergeableCounter` impl is
//! provided, deliberately.

use std::collections::VecDeque;

/// Construction parameters for a [`HybridHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Target relative error ε of the *time* dimension (exponential
    /// histogram invariant). The value dimension has no error parameter —
    /// that is the point of this baseline.
    pub epsilon: f64,
    /// Window length in ticks.
    pub window: u64,
    /// Value universe: values are `0 .. domain`.
    pub domain: u64,
    /// Number of equi-width value bins per time bucket.
    pub bins: usize,
}

impl HybridConfig {
    /// Build a config, validating parameter ranges.
    ///
    /// # Panics
    /// If `epsilon ∉ (0, 1]`, `window == 0`, `domain == 0`, `bins == 0`, or
    /// `bins` exceeds `domain` (bins must span at least one value).
    pub fn new(epsilon: f64, window: u64, domain: u64, bins: usize) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0,1], got {epsilon}"
        );
        assert!(window > 0, "window must be positive");
        assert!(domain > 0, "domain must be positive");
        assert!(bins > 0, "need at least one bin");
        assert!(
            bins as u64 <= domain,
            "bins ({bins}) must not exceed domain ({domain})"
        );
        HybridConfig {
            epsilon,
            window,
            domain,
            bins,
        }
    }

    /// Width of one value bin: `⌈domain / bins⌉`.
    pub fn bin_width(&self) -> u64 {
        self.domain.div_ceil(self.bins as u64)
    }

    /// Maximum buckets per size class (same rule as the exponential
    /// histogram: `⌈k/2⌉ + 2` for `k = ⌈1/ε⌉`).
    pub fn level_capacity(&self) -> usize {
        let k = (1.0 / self.epsilon).ceil() as usize;
        k.div_ceil(2) + 2
    }
}

/// One time bucket: its end tick, its total arrival count (a power of two),
/// and the per-bin split of that count over the value domain.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HybridBucket {
    end: u64,
    bins: Vec<u64>,
}

impl HybridBucket {
    fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// Sliding-window range-query histogram (baseline; ε guarantee on the time
/// dimension only — the value dimension prorates uniformly, with no bound).
///
/// ```
/// use ecm_bench::baselines::{HybridConfig, HybridHistogram};
///
/// // Last 1000 ticks, values 0..100 in 10 bins, time error 10%.
/// let cfg = HybridConfig::new(0.1, 1000, 100, 10);
/// let mut h = HybridHistogram::new(&cfg);
/// for t in 1..=2000u64 {
///     h.insert(t, t % 100);
/// }
/// // Every value appears ~10 times in the last 1000 ticks, so the range
/// // [0, 49] holds ~500 arrivals.
/// let est = h.range_query(2000, 1000, 0, 49);
/// assert!((est - 500.0).abs() < 150.0, "est={est}");
/// ```
#[derive(Debug, Clone)]
pub struct HybridHistogram {
    cfg: HybridConfig,
    cap: usize,
    bin_width: u64,
    /// `levels[i]`: size-`2^i` buckets, **front = newest**.
    levels: Vec<VecDeque<HybridBucket>>,
    /// Arrivals currently held (unexpired buckets).
    total: u64,
    last_ts: u64,
    first_ts: Option<u64>,
    /// End tick of the most recently expired bucket.
    dropped_end: Option<u64>,
    lifetime: u64,
}

impl HybridHistogram {
    /// Create an empty histogram.
    pub fn new(cfg: &HybridConfig) -> Self {
        HybridHistogram {
            cap: cfg.level_capacity(),
            bin_width: cfg.bin_width(),
            cfg: cfg.clone(),
            levels: Vec::new(),
            total: 0,
            last_ts: 0,
            first_ts: None,
            dropped_end: None,
            lifetime: 0,
        }
    }

    /// The configuration this histogram was built with.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Record the arrival of `value` at tick `ts` (non-decreasing ticks).
    ///
    /// # Panics
    /// Debug-panics on decreasing ticks or `value >= domain`.
    pub fn insert(&mut self, ts: u64, value: u64) {
        debug_assert!(
            self.first_ts.is_none() || ts >= self.last_ts,
            "timestamps must be non-decreasing: {ts} after {}",
            self.last_ts
        );
        debug_assert!(
            value < self.cfg.domain,
            "value {value} outside domain {}",
            self.cfg.domain
        );
        if self.first_ts.is_none() {
            self.first_ts = Some(ts);
        }
        self.last_ts = ts;
        self.expire(ts);
        let mut bins = vec![0u64; self.cfg.bins];
        bins[(value / self.bin_width) as usize] = 1;
        if self.levels.is_empty() {
            self.levels.push(VecDeque::with_capacity(self.cap + 1));
        }
        self.levels[0].push_front(HybridBucket { end: ts, bins });
        self.total += 1;
        self.lifetime += 1;
        // Cascade merges exactly like the exponential histogram; merging two
        // time buckets adds their value bins element-wise.
        let mut i = 0;
        while self.levels[i].len() > self.cap {
            let older = self.levels[i].pop_back().expect("level over capacity");
            let newer = self.levels[i].pop_back().expect("level over capacity");
            let mut bins = newer.bins;
            for (b, o) in bins.iter_mut().zip(&older.bins) {
                *b += o;
            }
            if self.levels.len() == i + 1 {
                self.levels.push(VecDeque::with_capacity(self.cap + 1));
            }
            self.levels[i + 1].push_front(HybridBucket {
                end: newer.end,
                bins,
            });
            i += 1;
        }
    }

    /// Drop buckets that no longer overlap the window ending at `now`.
    pub fn expire(&mut self, now: u64) {
        let cutoff = now.saturating_sub(self.cfg.window);
        if cutoff == 0 {
            return;
        }
        for i in (0..self.levels.len()).rev() {
            let mut survivor = false;
            while let Some(b) = self.levels[i].back() {
                if b.end <= cutoff {
                    let b = self.levels[i].pop_back().expect("non-empty");
                    self.total -= b.total();
                    self.dropped_end = Some(match self.dropped_end {
                        Some(d) => d.max(b.end),
                        None => b.end,
                    });
                } else {
                    survivor = true;
                    break;
                }
            }
            if survivor {
                break;
            }
        }
        while matches!(self.levels.last(), Some(l) if l.is_empty()) {
            self.levels.pop();
        }
    }

    /// Fraction of one bucket's mass that falls in the value range
    /// `[lo, hi]`, prorating partial bin overlaps uniformly.
    fn value_mass(&self, bins: &[u64], lo: u64, hi: u64) -> f64 {
        let mut sum = 0.0;
        let first = (lo / self.bin_width) as usize;
        let last = ((hi / self.bin_width) as usize).min(bins.len() - 1);
        for (i, &count) in bins.iter().enumerate().take(last + 1).skip(first) {
            if count == 0 {
                continue;
            }
            let bin_lo = i as u64 * self.bin_width;
            let bin_hi = (bin_lo + self.bin_width - 1).min(self.cfg.domain - 1);
            let ov_lo = bin_lo.max(lo);
            let ov_hi = bin_hi.min(hi);
            if ov_lo > ov_hi {
                continue;
            }
            let width = (bin_hi - bin_lo + 1) as f64;
            let frac = (ov_hi - ov_lo + 1) as f64 / width;
            sum += count as f64 * frac;
        }
        sum
    }

    /// Estimated number of arrivals with value in `[value_lo, value_hi]` and
    /// tick in `(now − range, now]`.
    ///
    /// Time straddling is handled the exponential-histogram way (half the
    /// oldest overlapping bucket); value straddling is prorated uniformly —
    /// no guarantee, by design.
    pub fn range_query(&self, now: u64, range: u64, value_lo: u64, value_hi: u64) -> f64 {
        let range = range.min(self.cfg.window);
        let (lo, hi) = if value_lo <= value_hi {
            (value_lo, value_hi)
        } else {
            (value_hi, value_lo)
        };
        let value_hi = hi.min(self.cfg.domain - 1);
        let value_lo = lo.min(value_hi);
        let cutoff = now.saturating_sub(range);
        let mut sum = 0.0;
        let mut oldest: Option<(&HybridBucket, Option<u64>)> = None;
        for level in self.levels.iter().rev() {
            let mut in_range = 0usize;
            for b in level {
                if b.end > cutoff {
                    in_range += 1;
                } else {
                    break;
                }
            }
            // Deques are front = newest, so in-range entries are a prefix.
            for b in level.iter().take(in_range) {
                sum += self.value_mass(&b.bins, value_lo, value_hi);
            }
            if oldest.is_none() && in_range > 0 {
                let b = &level[in_range - 1];
                let prev_end = level.get(in_range).map(|p| p.end).or(self.dropped_end);
                oldest = Some((b, prev_end));
            }
        }
        if let Some((b, prev_end)) = oldest {
            let start = prev_end.or(self.first_ts);
            let straddles = b.total() > 1
                && match start {
                    Some(s) => s <= cutoff,
                    None => false,
                };
            if straddles {
                sum -= self.value_mass(&b.bins, value_lo, value_hi) / 2.0;
            }
        }
        sum
    }

    /// Estimated arrivals of any value in `(now − range, now]` — the plain
    /// exponential-histogram count.
    pub fn count(&self, now: u64, range: u64) -> f64 {
        self.range_query(now, range, 0, self.cfg.domain - 1)
    }

    /// Estimated frequency of a single `value` in `(now − range, now]` —
    /// a width-1 range query, where the lack of a value-dimension guarantee
    /// bites hardest.
    pub fn point_query(&self, value: u64, now: u64, range: u64) -> f64 {
        self.range_query(now, range, value, value)
    }

    /// Arrivals currently held (unexpired buckets, no halving).
    pub fn stored(&self) -> u64 {
        self.total
    }

    /// Lifetime arrivals.
    pub fn lifetime_arrivals(&self) -> u64 {
        self.lifetime
    }

    /// Number of time buckets currently held.
    pub fn bucket_count(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Bytes of heap + inline memory currently held. Each bucket carries a
    /// full `bins`-wide counter vector — the structural cost the paper's
    /// comparison highlights.
    pub fn memory_bytes(&self) -> usize {
        let bucket =
            std::mem::size_of::<HybridBucket>() + self.cfg.bins * std::mem::size_of::<u64>();
        std::mem::size_of::<Self>()
            + self.levels.capacity() * std::mem::size_of::<VecDeque<HybridBucket>>()
            + self
                .levels
                .iter()
                .map(|l| l.capacity() * bucket)
                .sum::<usize>()
    }

    /// Validate structural invariants (level capacities, timestamp ordering,
    /// power-of-two bucket totals, cached total).
    pub fn validate(&self) -> Result<(), String> {
        let mut sum = 0u64;
        for (i, level) in self.levels.iter().enumerate() {
            if level.len() > self.cap {
                return Err(format!("level {i} over capacity"));
            }
            for w in 0..level.len().saturating_sub(1) {
                if level[w].end < level[w + 1].end {
                    return Err(format!("level {i} out of order at {w}"));
                }
            }
            for b in level {
                if b.total() != 1u64 << i {
                    return Err(format!(
                        "level {i} bucket holds {} arrivals, expected {}",
                        b.total(),
                        1u64 << i
                    ));
                }
                sum += b.total();
            }
        }
        if sum != self.total {
            return Err(format!("cached total {} != bucket sum {sum}", self.total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(cfg: &HybridConfig, n: u64) -> HybridHistogram {
        let mut h = HybridHistogram::new(cfg);
        for t in 1..=n {
            h.insert(t, t % cfg.domain);
        }
        h
    }

    #[test]
    fn whole_window_count_matches_eh_guarantee() {
        let cfg = HybridConfig::new(0.1, 1_000, 64, 8);
        let h = uniform(&cfg, 5_000);
        let est = h.count(5_000, 1_000);
        assert!((est - 1_000.0).abs() <= 100.0, "est={est}");
        h.validate().unwrap();
    }

    #[test]
    fn wide_value_ranges_are_accurate_on_uniform_data() {
        let cfg = HybridConfig::new(0.05, 2_000, 100, 10);
        let h = uniform(&cfg, 10_000);
        // Values 0..49 are half the uniform mass.
        let est = h.range_query(10_000, 2_000, 0, 49);
        assert!((est - 1_000.0).abs() <= 200.0, "est={est}");
    }

    #[test]
    fn narrow_ranges_have_no_guarantee_on_skewed_data() {
        // All arrivals share one value at the START of each bin's range;
        // querying a different value in the same bin charges the full
        // prorated share — unbounded relative error, the paper's point.
        let cfg = HybridConfig::new(0.1, 1_000, 100, 10);
        let mut h = HybridHistogram::new(&cfg);
        for t in 1..=1_000u64 {
            h.insert(t, 40); // all mass at value 40 (bin 4: values 40..49)
        }
        // True frequency of value 45 is 0, but the bin prorates ~1/10 of
        // ~1000 arrivals onto it.
        let est = h.point_query(45, 1_000, 1_000);
        assert!(est > 50.0, "proration must misattribute mass, est={est}");
        // And the true heavy value is underestimated by the same mechanism.
        let est_heavy = h.point_query(40, 1_000, 1_000);
        assert!(est_heavy < 200.0, "est_heavy={est_heavy}");
    }

    #[test]
    fn expiry_drops_old_mass() {
        let cfg = HybridConfig::new(0.1, 100, 16, 4);
        let mut h = HybridHistogram::new(&cfg);
        for t in 1..=10_000u64 {
            h.insert(t, t % 16);
        }
        let est = h.count(10_000, 100);
        assert!((est - 100.0).abs() <= 15.0, "est={est}");
        // Memory stays bounded: O(log(window)/eps) buckets.
        assert!(h.bucket_count() < 200, "{} buckets", h.bucket_count());
        h.validate().unwrap();
    }

    #[test]
    fn value_bounds_are_clamped() {
        let cfg = HybridConfig::new(0.1, 1_000, 50, 5);
        let h = uniform(&cfg, 2_000);
        // hi beyond the domain clamps; inverted bounds swap.
        let a = h.range_query(2_000, 1_000, 0, 10_000);
        let b = h.count(2_000, 1_000);
        assert_eq!(a, b);
        let c = h.range_query(2_000, 1_000, 30, 10);
        let d = h.range_query(2_000, 1_000, 10, 30);
        assert_eq!(c, d);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let cfg = HybridConfig::new(0.1, 100, 10, 2);
        let h = HybridHistogram::new(&cfg);
        assert_eq!(h.count(50, 100), 0.0);
        assert_eq!(h.point_query(3, 50, 100), 0.0);
        h.validate().unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// The *time* dimension keeps the exponential-histogram ε
            /// guarantee: whole-domain counts over random streams and
            /// random ranges stay within ε of the truth.
            #[test]
            fn prop_time_dimension_keeps_eh_guarantee(
                gaps in proptest::collection::vec(0u64..5, 100..600),
                values in proptest::collection::vec(0u64..64, 100..600),
                range_frac in 0.05f64..1.0,
            ) {
                let cfg = HybridConfig::new(0.1, 10_000, 64, 8);
                let mut h = HybridHistogram::new(&cfg);
                let mut ticks = Vec::new();
                let mut now = 1u64;
                for (g, v) in gaps.iter().zip(&values) {
                    now += g;
                    h.insert(now, *v);
                    ticks.push(now);
                }
                h.validate().map_err(TestCaseError::fail)?;
                let range = ((now as f64 * range_frac) as u64)
                    .clamp(1, cfg.window);
                let cutoff = now.saturating_sub(range);
                let exact = ticks.iter().filter(|&&t| t > cutoff).count() as f64;
                let est = h.count(now, range);
                prop_assert!(
                    (est - exact).abs() <= 0.1 * exact + 1.0,
                    "est={} exact={} range={}", est, exact, range
                );
            }

            /// Range queries are monotone in the value range: widening the
            /// range never decreases the estimate.
            #[test]
            fn prop_range_monotone_in_value_bounds(
                n in 50usize..300,
                lo in 0u64..100,
                width_a in 0u64..50,
                width_b in 0u64..50,
            ) {
                let cfg = HybridConfig::new(0.1, 5_000, 128, 16);
                let mut h = HybridHistogram::new(&cfg);
                for i in 1..=n as u64 {
                    h.insert(i, (i * 17) % 128);
                }
                let now = n as u64;
                let narrow = h.range_query(now, 5_000, lo, lo + width_a.min(width_b));
                let wide = h.range_query(now, 5_000, lo, lo + width_a.max(width_b));
                prop_assert!(
                    wide >= narrow - 1e-9,
                    "wide={} < narrow={}", wide, narrow
                );
            }
        }
    }

    #[test]
    fn memory_scales_with_bins() {
        let narrow = uniform(&HybridConfig::new(0.1, 1_000, 1_000, 10), 3_000);
        let wide = uniform(&HybridConfig::new(0.1, 1_000, 1_000, 500), 3_000);
        assert!(
            wide.memory_bytes() > 5 * narrow.memory_bytes(),
            "bins must dominate memory: {} vs {}",
            wide.memory_bytes(),
            narrow.memory_bytes()
        );
    }
}
