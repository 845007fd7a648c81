//! Dyadic hierarchy of ECM-sketches: sliding-window heavy hitters, range
//! sums and quantiles (paper §6.1).
//!
//! `sketches[ℓ]` summarizes the stream of level-ℓ prefixes `x >> ℓ`. Heavy
//! hitters are found by group testing from the root; a frequency threshold
//! may be **absolute** (a count) or **relative** (a fraction φ of the
//! arrivals in the query range, estimated from one row of the level-0
//! sketch — paper §6.1's "better alternative that does not require
//! additional memory").

use crate::api::{Clock, WriteError};
use crate::config::EcmConfig;
use crate::sketch::EcmSketch;
use count_min::dyadic::{dyadic_cover, DyadicRange};
use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::traits::{MergeableCounter, WindowCounter};
use sliding_window::{CodecError, MergeError};

const CODEC_VERSION: u8 = 2;

/// Frequency threshold for heavy-hitter queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Minimum estimated number of occurrences in the query range.
    Absolute(f64),
    /// Minimum fraction φ of the total arrivals in the query range.
    Relative(f64),
}

/// A stack of `bits` ECM-sketches over dyadic prefixes of the key universe.
#[derive(Debug, Clone)]
pub struct EcmHierarchy<W: WindowCounter> {
    bits: u32,
    sketches: Vec<EcmSketch<W>>,
}

impl<W: WindowCounter> EcmHierarchy<W> {
    /// Create a hierarchy over a `bits`-bit key universe. Level sketches
    /// share the window configuration but use independent (deterministically
    /// derived) hash seeds.
    ///
    /// # Panics
    /// If `bits == 0` or `bits > 63`.
    pub fn new(bits: u32, cfg: &EcmConfig<W>) -> Self {
        assert!(bits > 0 && bits <= 63, "bits must be in [1, 63]");
        let sketches = (0..bits)
            .map(|l| {
                let mut level_cfg = cfg.clone();
                level_cfg.seed = cfg.seed.wrapping_add((u64::from(l) << 32) | 0xd1ad);
                EcmSketch::new(&level_cfg)
            })
            .collect();
        EcmHierarchy { bits, sketches }
    }

    /// Key-universe size exponent.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The per-level sketches (level 0 first).
    pub fn levels(&self) -> &[EcmSketch<W>] {
        &self.sketches
    }

    /// Tick of the most recent insertion or clock advance (0 if empty).
    /// Every level sketch observes the same stream, so level 0 speaks for
    /// all of them.
    pub fn last_tick(&self) -> u64 {
        self.sketches[0].last_tick()
    }

    /// The clock every level's window rides on.
    pub fn clock(&self) -> Clock {
        self.sketches[0].clock()
    }

    /// This hierarchy, fresh or just decoded, on `clock` (every level).
    pub(crate) fn on_clock(mut self, clock: Clock) -> Self {
        self.sketches = self
            .sketches
            .into_iter()
            .map(|sk| sk.on_clock(clock))
            .collect();
        self
    }

    /// The hierarchy's item precondition: `x` must lie inside the
    /// `2^bits` key universe.
    pub(crate) fn check(&self, x: u64) -> Result<(), WriteError> {
        if self.bits == 63 || x < (1u64 << self.bits) {
            Ok(())
        } else {
            Err(WriteError::OutOfUniverse {
                item: x,
                bits: self.bits,
            })
        }
    }

    /// The unchecked write kernel: `n` occurrences of key `x` at tick `ts`,
    /// one weighted update per level (each level sketch advances its
    /// sequence by `n`).
    pub(crate) fn record(&mut self, ts: u64, x: u64, n: u64) {
        for (l, sk) in self.sketches.iter_mut().enumerate() {
            sk.record(ts, x >> l, n);
        }
    }

    /// The count-clock write kernel: `n` occurrences of `x` on the next
    /// `n` ticks of the arrival clock, one hashed run per level, each level
    /// numbering them in its auto sequence. Unchecked, like
    /// [`record`](Self::record).
    pub(crate) fn record_arrivals(&mut self, x: u64, n: u64) {
        let first_ts = self.last_tick() + 1;
        for (l, sk) in self.sketches.iter_mut().enumerate() {
            sk.insert_ticking_run_auto(first_ts, x >> l, n);
        }
    }

    /// Move every level's write clock to `ts` with no arrivals.
    pub(crate) fn advance_clock(&mut self, ts: u64) {
        for sk in &mut self.sketches {
            sk.advance_clock(ts);
        }
    }

    /// Estimated weight of one dyadic range within `(now − range, now]`.
    pub fn range_point(&self, r: DyadicRange, now: u64, range: u64) -> f64 {
        if r.level >= self.bits {
            self.total_arrivals(now, range)
        } else {
            self.sketches[r.level as usize].point_query(r.prefix, now, range)
        }
    }

    /// Estimated number of arrivals with key in `[lo, hi]` and tick in
    /// `(now − range, now]` (sliding-window range query, paper §6.1); core
    /// of the typed [`Query::range_sum`](crate::query::Query::range_sum)
    /// path.
    pub(crate) fn range_sum(&self, lo: u64, hi: u64, now: u64, range: u64) -> f64 {
        dyadic_cover(lo, hi, self.bits)
            .into_iter()
            .map(|r| self.range_point(r, now, range))
            .sum()
    }

    /// Estimated total arrivals in the query range: the level-0 sketch's
    /// one-row sum (paper §6.1).
    pub(crate) fn total_arrivals(&self, now: u64, range: u64) -> f64 {
        self.sketches[0].total_arrivals(now, range)
    }

    /// Sliding-window heavy hitters by group testing (paper §6.1): returns
    /// `(key, estimate)` for every key whose estimated in-range frequency
    /// meets the threshold, in increasing key order.
    ///
    /// Guarantees (Theorem 5 semantics): every key with true frequency
    /// ≥ (φ + ε)·‖a_r‖₁ is reported; keys with frequency < φ·‖a_r‖₁ are
    /// reported only with probability δ each. Core of the typed
    /// [`Query::heavy_hitters`](crate::query::Query::heavy_hitters) path.
    pub(crate) fn heavy_hitters(
        &self,
        threshold: Threshold,
        now: u64,
        range: u64,
    ) -> Vec<(u64, f64)> {
        let thresh = match threshold {
            Threshold::Absolute(t) => t,
            Threshold::Relative(phi) => {
                assert!((0.0..=1.0).contains(&phi), "φ must be in [0,1]");
                phi * self.total_arrivals(now, range)
            }
        };
        if thresh <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut stack = vec![DyadicRange {
            level: self.bits,
            prefix: 0,
        }];
        while let Some(r) = stack.pop() {
            let est = self.range_point(r, now, range);
            if est < thresh {
                continue;
            }
            match r.children() {
                None => out.push((r.prefix, est)),
                Some((a, b)) => {
                    stack.push(b);
                    stack.push(a);
                }
            }
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The φ-quantile of the keys in the query range: the smallest key `x`
    /// such that at least a φ fraction of the in-range arrivals have key
    /// ≤ `x` (paper §6.1 lists quantiles among the problems the dyadic
    /// stack addresses). `None` on an empty range. Core of the typed
    /// [`Query::quantile`](crate::query::Query::quantile) path.
    ///
    /// # Panics
    /// If `phi ∉ (0, 1]`.
    pub(crate) fn quantile(&self, phi: f64, now: u64, range: u64) -> Option<u64> {
        assert!(phi > 0.0 && phi <= 1.0, "φ must be in (0,1], got {phi}");
        let total = self.total_arrivals(now, range);
        if total < 0.5 {
            return None;
        }
        self.quantile_by_rank((phi * total).max(1.0), now, range)
    }

    /// Smallest key whose cumulative in-range weight reaches `rank` by
    /// bitwise descent; `None` if the range holds less weight than `rank`.
    /// The φ-quantile of the window is `quantile_by_rank(φ·‖a_r‖₁, ..)`.
    pub fn quantile_by_rank(&self, rank: f64, now: u64, range: u64) -> Option<u64> {
        if rank <= 0.0 || rank > self.total_arrivals(now, range) + 0.5 {
            return None;
        }
        let mut acc = 0.0;
        let mut node = DyadicRange {
            level: self.bits,
            prefix: 0,
        };
        while let Some((left, right)) = node.children() {
            let left_w = self.range_point(left, now, range);
            if acc + left_w >= rank {
                node = left;
            } else {
                acc += left_w;
                node = right;
            }
        }
        Some(node.prefix)
    }

    /// Append the compact wire encoding (every level sketch in order) —
    /// what a site ships when the *coordinator* runs the heavy-hitter or
    /// quantile group testing over aggregated hierarchies.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, u64::from(self.bits));
        for sk in &self.sketches {
            sk.encode(buf);
        }
    }

    /// Size of the wire encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Decode a hierarchy previously produced by [`encode`](Self::encode);
    /// `cfg` must match the encoder's construction config (the per-level
    /// seed derivation is re-applied).
    pub fn decode(bits: u32, cfg: &EcmConfig<W>, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "hierarchy version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let wire_bits = get_varint(input, "hierarchy bits")? as u32;
        if wire_bits != bits || bits == 0 || bits > 63 {
            return Err(CodecError::Corrupt {
                context: "hierarchy bits",
            });
        }
        let mut sketches = Vec::with_capacity(bits as usize);
        for l in 0..bits {
            let mut level_cfg = cfg.clone();
            level_cfg.seed = cfg.seed.wrapping_add((u64::from(l) << 32) | 0xd1ad);
            sketches.push(EcmSketch::decode(&level_cfg, input)?);
        }
        Ok(EcmHierarchy { bits, sketches })
    }

    /// Total memory across all level sketches.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .sketches
                .iter()
                .map(EcmSketch::memory_bytes)
                .sum::<usize>()
    }
}

impl<W: MergeableCounter> EcmHierarchy<W> {
    /// Order-preserving aggregation of hierarchies: level-wise
    /// [`EcmSketch::merge`].
    ///
    /// # Errors
    /// Propagates shape/seed mismatches from the per-level merges and
    /// rejects universe-size mismatches.
    pub fn merge(
        parts: &[&EcmHierarchy<W>],
        out_cell_cfg: &W::Config,
    ) -> Result<EcmHierarchy<W>, MergeError> {
        let first = parts.first().ok_or(MergeError::Empty)?;
        for p in &parts[1..] {
            if p.bits != first.bits {
                return Err(MergeError::IncompatibleConfig {
                    detail: format!("universe bits {} vs {}", p.bits, first.bits),
                });
            }
        }
        let mut sketches = Vec::with_capacity(first.sketches.len());
        for l in 0..first.sketches.len() {
            let level_parts: Vec<&EcmSketch<W>> = parts.iter().map(|p| &p.sketches[l]).collect();
            sketches.push(EcmSketch::merge(&level_parts, out_cell_cfg)?);
        }
        Ok(EcmHierarchy {
            bits: first.bits,
            sketches,
        })
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
    use sliding_window::ExponentialHistogram;
    use std::collections::HashMap;

    type EhHierarchy = EcmHierarchy<ExponentialHistogram>;

    fn hierarchy(bits: u32, eps: f64) -> EhHierarchy {
        let cfg = eh_config(&SketchSpec::time(1 << 20).epsilon(eps).delta(0.02).seed(31));
        EcmHierarchy::new(bits, &cfg)
    }

    fn exact_in_range(events: &[(u64, u64)], now: u64, range: u64) -> HashMap<u64, u64> {
        let cutoff = now.saturating_sub(range);
        let mut m = HashMap::new();
        for &(k, t) in events {
            if t > cutoff && t <= now {
                *m.entry(k).or_insert(0) += 1;
            }
        }
        m
    }

    /// Stream with three persistent heavy keys over light uniform noise;
    /// heavies stop early so sliding windows see them age out.
    fn hh_stream(n: u64) -> Vec<(u64, u64)> {
        let mut ev = Vec::new();
        for i in 1..=n {
            if i % 4 == 0 && i <= n / 2 {
                ev.push((7, i));
            } else if i % 5 == 0 {
                ev.push((200, i));
            } else {
                ev.push((i % 256, i));
            }
        }
        ev
    }

    #[test]
    fn range_sum_tracks_truth() {
        let mut h = hierarchy(8, 0.05);
        let events: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i % 256, i)).collect();
        for &(k, t) in &events {
            h.insert(t, k);
        }
        let now = 20_000;
        for &(lo, hi, range) in &[
            (0u64, 255u64, 20_000u64),
            (10, 20, 4_000),
            (128, 255, 10_000),
        ] {
            let truth = exact_in_range(&events, now, range);
            let exact: u64 = truth
                .iter()
                .filter(|&(&k, _)| k >= lo && k <= hi)
                .map(|(_, &v)| v)
                .sum();
            let norm: u64 = truth.values().sum();
            let est = h.range_sum(lo, hi, now, range);
            // Up to 2·bits dyadic components, each ε-bounded.
            let budget = 2.0 * 8.0 * 0.05 * norm as f64;
            assert!(
                (est - exact as f64).abs() <= budget + 4.0,
                "[{lo},{hi}] range={range} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn heavy_hitters_absolute_threshold() {
        let mut h = hierarchy(8, 0.02);
        let events = hh_stream(40_000);
        for &(k, t) in &events {
            h.insert(t, k);
        }
        let now = 40_000;
        // Whole-window: key 7 (5000 hits in first half) and key 200
        // (8000 hits) dominate the ~27k noise spread over 256 keys.
        let hh = h.heavy_hitters(Threshold::Absolute(2_000.0), now, 40_000);
        let keys: Vec<u64> = hh.iter().map(|&(k, _)| k).collect();
        assert!(keys.contains(&7), "keys={keys:?}");
        assert!(keys.contains(&200), "keys={keys:?}");
        assert!(keys.len() <= 4, "spurious heavy hitters: {keys:?}");
    }

    #[test]
    fn heavy_hitters_respect_sliding_window() {
        let mut h = hierarchy(8, 0.02);
        let events = hh_stream(40_000);
        for &(k, t) in &events {
            h.insert(t, k);
        }
        let now = 40_000;
        // Key 7 stopped arriving at t = 20_000; in the last quarter it must
        // not be reported, while key 200 still is.
        let hh = h.heavy_hitters(Threshold::Absolute(1_500.0), now, 10_000);
        let keys: Vec<u64> = hh.iter().map(|&(k, _)| k).collect();
        assert!(!keys.contains(&7), "aged-out key reported: {keys:?}");
        assert!(keys.contains(&200), "keys={keys:?}");
    }

    #[test]
    fn heavy_hitters_relative_threshold() {
        let mut h = hierarchy(8, 0.02);
        let events = hh_stream(40_000);
        for &(k, t) in &events {
            h.insert(t, k);
        }
        let hh = h.heavy_hitters(Threshold::Relative(0.15), 40_000, 10_000);
        let keys: Vec<u64> = hh.iter().map(|&(k, _)| k).collect();
        // Key 200 receives 20% of arrivals in the recent window.
        assert_eq!(keys, vec![200]);
    }

    #[test]
    fn relative_threshold_validates_phi() {
        let h = hierarchy(4, 0.1);
        let r = std::panic::catch_unwind(|| h.heavy_hitters(Threshold::Relative(1.5), 10, 10));
        assert!(r.is_err(), "φ > 1 must panic");
    }

    #[test]
    fn phi_quantile_convenience() {
        let mut h = hierarchy(10, 0.02);
        for i in 1..=5_000u64 {
            h.insert(i, i % 1000);
        }
        let med = h.quantile(0.5, 5_000, 5_000).unwrap();
        assert!((450..=550).contains(&med), "median={med}");
        let p99 = h.quantile(0.99, 5_000, 5_000).unwrap();
        assert!(p99 >= 950, "p99={p99}");
        // Empty range and bad phi.
        let empty = hierarchy(4, 0.2);
        assert_eq!(empty.quantile(0.5, 10, 10), None);
        assert!(std::panic::catch_unwind(|| empty.quantile(0.0, 10, 10)).is_err());
        assert!(std::panic::catch_unwind(|| empty.quantile(1.5, 10, 10)).is_err());
    }

    #[test]
    fn quantiles_over_sliding_window() {
        let mut h = hierarchy(10, 0.02);
        // Keys 0..1000 arriving uniformly; then keys 0..100 arriving in the
        // recent window only.
        let mut events: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i % 1000, i)).collect();
        events.extend((10_001..=14_000u64).map(|i| (i % 100, i)));
        for &(k, t) in &events {
            h.insert(t, k);
        }
        let now = 14_000;
        // Recent window only: all mass on 0..99, median ≈ 50.
        let total = h.total_arrivals(now, 4_000);
        let med = h.quantile_by_rank(total / 2.0, now, 4_000).unwrap();
        assert!((40..=60).contains(&med), "median={med}");
        // Full-history window: keys 0..99 hold 50 arrivals each (5000 of
        // 14000); the remaining 2000 to the median spread 10-per-key over
        // keys 100..999, putting the true median at ≈ 299.
        let total_all = h.total_arrivals(now, 14_000);
        let med_all = h.quantile_by_rank(total_all / 2.0, now, 14_000).unwrap();
        assert!((250..=350).contains(&med_all), "median={med_all}");
        assert_eq!(h.quantile_by_rank(0.0, now, 100), None);
        assert_eq!(h.quantile_by_rank(1e12, now, 100), None);
    }

    #[test]
    fn merge_hierarchies_preserves_heavy_hitters() {
        let cfg = eh_config(&SketchSpec::time(1 << 20).epsilon(0.05).delta(0.02).seed(77));
        let mut a = EcmHierarchy::new(8, &cfg);
        let mut b = EcmHierarchy::new(8, &cfg);
        let events = hh_stream(30_000);
        for (i, &(k, t)) in events.iter().enumerate() {
            if i % 2 == 0 {
                a.insert(t, k);
            } else {
                b.insert(t, k);
            }
        }
        let merged = EcmHierarchy::merge(&[&a, &b], &cfg.cell).unwrap();
        let hh = merged.heavy_hitters(Threshold::Absolute(1_500.0), 30_000, 30_000);
        let keys: Vec<u64> = hh.iter().map(|&(k, _)| k).collect();
        assert!(keys.contains(&7) && keys.contains(&200), "keys={keys:?}");

        let other = EcmHierarchy::new(9, &cfg);
        assert!(EcmHierarchy::merge(&[&merged, &other], &cfg.cell).is_err());
    }

    #[test]
    #[should_panic(expected = "item 16 outside the 4-bit hierarchy universe")]
    fn key_outside_universe_rejected() {
        let mut h = hierarchy(4, 0.1);
        h.insert(1, 16);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Arbitrary range sums stay within the dyadic error budget for
            /// random streams, keys and ranges.
            #[test]
            fn prop_range_sums_meet_dyadic_budget(
                keys in proptest::collection::vec(0u64..256, 200..1_200),
                lo in 0u64..256,
                width in 0u64..256,
            ) {
                let eps = 0.1;
                let mut h = hierarchy(8, eps);
                for (i, &k) in keys.iter().enumerate() {
                    h.insert(i as u64 + 1, k);
                }
                let now = keys.len() as u64;
                let hi = (lo + width).min(255);
                let exact = keys
                    .iter()
                    .filter(|&&k| k >= lo && k <= hi)
                    .count() as f64;
                let est = h.range_sum(lo, hi, now, now);
                let budget = 2.0 * 8.0 * eps * keys.len() as f64;
                prop_assert!(
                    (est - exact).abs() <= budget + 4.0,
                    "[{},{}] est={} exact={}", lo, hi, est, exact
                );
            }

            /// Heavy hitters (absolute threshold) include every key above
            /// the threshold plus Theorem 5 slack, and nothing far below.
            #[test]
            fn prop_heavy_hitters_theorem5_semantics(
                hot in 0u64..128,
                hot_share in 3u64..6,
            ) {
                let eps = 0.02;
                let mut h = hierarchy(7, eps);
                let n = 8_000u64;
                let mut hot_count = 0u64;
                for i in 1..=n {
                    let k = if i % hot_share == 0 {
                        hot_count += 1;
                        hot
                    } else {
                        i % 128
                    };
                    h.insert(i, k);
                }
                let norm = n as f64;
                let thresh = hot_count as f64 * 0.8;
                let found = h.heavy_hitters(Threshold::Absolute(thresh), n, n);
                prop_assert!(
                    found.iter().any(|&(k, _)| k == hot),
                    "hot key {} missing from {:?}", hot, found
                );
                // No reported key may have a true frequency below
                // thresh − ε·‖a‖₁ (one-sided CM error + window slack).
                for &(k, _) in &found {
                    let truth = (1..=n)
                        .filter(|&i| {
                            let kk = if i % hot_share == 0 { hot } else { i % 128 };
                            kk == k
                        })
                        .count() as f64;
                    prop_assert!(
                        truth >= thresh - 2.0 * eps * norm - 2.0,
                        "key {} (truth {}) below threshold {}", k, truth, thresh
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchy_codec_round_trips() {
        let cfg = eh_config(&SketchSpec::time(1 << 16).seed(19));
        let mut h = EcmHierarchy::new(8, &cfg);
        for i in 1..=5_000u64 {
            h.insert(i, i % 200);
        }
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), h.encoded_len());
        let mut input = buf.as_slice();
        let back = EcmHierarchy::decode(8, &cfg, &mut input).unwrap();
        assert!(input.is_empty(), "decoder must consume exactly its bytes");
        // All query types agree.
        let now = 5_000;
        for range in [100u64, 5_000] {
            assert_eq!(
                h.range_sum(10, 60, now, range),
                back.range_sum(10, 60, now, range)
            );
            assert_eq!(
                h.quantile_by_rank(50.0, now, range),
                back.quantile_by_rank(50.0, now, range)
            );
        }
        assert_eq!(
            h.heavy_hitters(Threshold::Absolute(20.0), now, 5_000),
            back.heavy_hitters(Threshold::Absolute(20.0), now, 5_000)
        );
    }

    #[test]
    fn hierarchy_codec_rejects_mismatch_and_truncation() {
        let cfg = eh_config(&SketchSpec::time(1 << 10).epsilon(0.2).seed(4));
        let mut h = EcmHierarchy::new(6, &cfg);
        for i in 1..=200u64 {
            h.insert(i, i % 64);
        }
        let mut buf = Vec::new();
        h.encode(&mut buf);
        // Wrong expected bits.
        assert!(
            EcmHierarchy::<ExponentialHistogram>::decode(7, &cfg, &mut buf.as_slice()).is_err()
        );
        // Wrong version byte.
        let mut bad = buf.clone();
        bad[0] = 99;
        assert!(
            EcmHierarchy::<ExponentialHistogram>::decode(6, &cfg, &mut bad.as_slice()).is_err()
        );
        // Truncations.
        for cut in [0usize, 1, buf.len() / 3, buf.len() - 1] {
            let mut input = &buf[..cut];
            assert!(
                EcmHierarchy::<ExponentialHistogram>::decode(6, &cfg, &mut input).is_err(),
                "cut {cut}"
            );
        }
    }
}
