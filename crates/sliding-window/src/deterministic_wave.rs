//! Deterministic waves (Gibbons & Tirthapura, SPAA 2002): a sliding-window
//! counter with the same `O(log²(N)/ε)` space as exponential histograms and a
//! flatter per-update cost profile (paper §4.2.2).
//!
//! Level `i` of the wave remembers the positions (ticks) of the most recent
//! `⌈1/ε⌉ + 1` arrivals whose *rank* (1-based arrival index) is divisible by
//! `2^i`. A query for cutoff `c` picks the finest level that still covers `c`
//! (its oldest remembered position is at or before `c`, or it never evicted),
//! locates the first remembered rank after the cutoff and interpolates: the
//! rank uncertainty is at most one level stride, which the capacity ties to
//! an ε fraction of the true answer.
//!
//! # Implementation note
//!
//! We append an arrival of rank `n` to every level `0..=tz(n)` (`tz` =
//! trailing zeros), which is O(1) amortized but O(log u) worst-case, versus
//! the O(1) worst-case of the original paper (achievable with linked level
//! splicing). The ECM paper's measured Table 3 — where waves update *slower*
//! than exponential histograms in practice — is unaffected; the measured
//! rates, and whether they reproduce the paper's ordering, are the
//! `table3.*` claims of `REPRODUCTION.json`.

use std::collections::VecDeque;

use crate::codec::{get_u8, get_varint, put_u8, put_varint};
use crate::error::{CodecError, MergeError};
use crate::traits::{MergeableCounter, WindowCounter, WindowGuarantee};

const CODEC_VERSION: u8 = 2;

/// Construction parameters for a [`DeterministicWave`].
#[derive(Debug, Clone, PartialEq)]
pub struct DwConfig {
    /// Target relative error ε ∈ (0, 1].
    pub epsilon: f64,
    /// Window length in ticks.
    pub window: u64,
    /// Upper bound `u(N, S)` on arrivals within one window. Required at
    /// construction time to size the level pyramid (paper §4.2.2); an
    /// overestimate costs only `O(log)` extra space.
    pub max_arrivals: u64,
}

impl DwConfig {
    /// Build a config, validating ranges.
    ///
    /// # Panics
    /// If `epsilon ∉ (0,1]`, `window == 0`, or `max_arrivals == 0`.
    pub fn new(epsilon: f64, window: u64, max_arrivals: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0,1], got {epsilon}"
        );
        assert!(window > 0, "window must be positive");
        assert!(max_arrivals > 0, "max_arrivals must be positive");
        DwConfig {
            epsilon,
            window,
            max_arrivals,
        }
    }

    /// Remembered positions per level: `⌈1/ε⌉ + 1`.
    pub fn level_capacity(&self) -> usize {
        (1.0 / self.epsilon).ceil() as usize + 1
    }

    /// Number of levels: enough that the coarsest level never evicts within
    /// the arrival bound (`capacity · 2^(l-1) ≥ max_arrivals`).
    pub fn level_count(&self) -> usize {
        let cap = self.level_capacity() as u64;
        let mut l = 1usize;
        while cap.saturating_mul(1u64 << (l - 1)) < self.max_arrivals && l < 63 {
            l += 1;
        }
        l
    }
}

/// A remembered arrival: its 1-based rank and its tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    rank: u64,
    pos: u64,
}

/// Deterministic ε-approximate sliding-window counter with per-level
/// position queues. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DeterministicWave {
    cfg: DwConfig,
    cap: usize,
    /// `queues[i]`: entries of rank divisible by `2^i`, oldest at the front.
    queues: Vec<VecDeque<Entry>>,
    /// Whether level `i` has ever evicted (if not, it holds *every* multiple
    /// of `2^i` seen so far and covers any cutoff).
    evicted: Vec<bool>,
    /// Lifetime arrival count = rank of the latest arrival.
    count: u64,
    last_ts: u64,
}

impl DeterministicWave {
    /// Create an empty wave.
    pub fn new(cfg: &DwConfig) -> Self {
        let levels = cfg.level_count();
        DeterministicWave {
            cap: cfg.level_capacity(),
            cfg: cfg.clone(),
            queues: vec![VecDeque::new(); levels],
            evicted: vec![false; levels],
            count: 0,
            last_ts: 0,
        }
    }

    /// The configuration this wave was built with.
    pub fn config(&self) -> &DwConfig {
        &self.cfg
    }

    /// Record one arrival at tick `ts` (non-decreasing).
    pub fn insert_one(&mut self, ts: u64) {
        debug_assert!(
            self.count == 0 || ts >= self.last_ts,
            "timestamps must be non-decreasing"
        );
        self.last_ts = ts;
        self.count += 1;
        let rank = self.count;
        let tz = (rank.trailing_zeros() as usize).min(self.queues.len() - 1);
        for i in 0..=tz {
            self.queues[i].push_back(Entry { rank, pos: ts });
            if self.queues[i].len() > self.cap {
                self.queues[i].pop_front();
                self.evicted[i] = true;
            }
        }
    }

    /// Record `n` arrivals, all at tick `ts`.
    ///
    /// Cost is `O(levels · capacity)` independent of `n` — the new ranks
    /// divisible by each level's stride are enumerated directly, and ranks
    /// that a sequential build would push and then evict are never
    /// materialized. The resulting state is **bit-identical** to `n`
    /// successive [`insert_one`](Self::insert_one) calls.
    pub fn insert_ones(&mut self, ts: u64, n: u64) {
        if n == 0 {
            return;
        }
        if n == 1 {
            self.insert_one(ts);
            return;
        }
        debug_assert!(
            self.count == 0 || ts >= self.last_ts,
            "timestamps must be non-decreasing"
        );
        self.last_ts = ts;
        let start = self.count;
        self.count += n;
        let cap = self.cap as u64;
        for i in 0..self.queues.len() {
            // Level i remembers the ranks divisible by 2^i; the burst
            // contributes the multiples in (start, start + n].
            let stride = 1u64 << i;
            let hi = self.count / stride;
            let num_new = hi - start / stride;
            if num_new == 0 {
                // Multiples of 2^(i+1) are a subset of multiples of 2^i:
                // every higher level is empty too.
                break;
            }
            // Entries a sequential build would push and evict again within
            // this burst are skipped outright; skipping one is an eviction.
            let skip = num_new.saturating_sub(cap);
            if skip > 0 {
                self.evicted[i] = true;
            }
            for m in (hi - (num_new - skip) + 1)..=hi {
                self.queues[i].push_back(Entry {
                    rank: m * stride,
                    pos: ts,
                });
                if self.queues[i].len() > self.cap {
                    self.queues[i].pop_front();
                    self.evicted[i] = true;
                }
            }
        }
    }

    /// Lifetime arrival count.
    pub fn lifetime_ones(&self) -> u64 {
        self.count
    }

    /// Tick of the latest arrival (0 if empty).
    pub fn last_tick(&self) -> u64 {
        self.last_ts
    }

    /// Estimated number of arrivals with tick in `(now - range, now]`.
    pub fn estimate(&self, now: u64, range: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let range = range.min(self.cfg.window);
        let cutoff = now.saturating_sub(range);
        // Finest covering level: never evicted, or oldest entry at/before
        // the cutoff.
        for (i, q) in self.queues.iter().enumerate() {
            let covers = !self.evicted[i] || q.front().is_some_and(|e| e.pos <= cutoff);
            if !covers {
                continue;
            }
            return self.estimate_at_level(i, cutoff);
        }
        // Unreachable with a correctly sized pyramid (the top level never
        // evicts while the arrival bound holds); degrade gracefully.
        self.estimate_at_level(self.queues.len() - 1, cutoff)
    }

    fn estimate_at_level(&self, i: usize, cutoff: u64) -> f64 {
        let q = &self.queues[i];
        let stride = 1u64 << i;
        // Entries are rank- and pos-ordered; find the first strictly inside
        // the query range.
        let (a, b) = q.as_slices();
        let ia = a.partition_point(|e| e.pos <= cutoff);
        let first_inside = if ia < a.len() {
            Some(a[ia])
        } else {
            let ib = b.partition_point(|e| e.pos <= cutoff);
            b.get(ib).copied()
        };
        match first_inside {
            Some(e) => {
                // True boundary rank r* (last rank at/before cutoff) lies in
                // [e.rank - stride, e.rank - 1]; exact at level 0.
                let r_star = if i == 0 {
                    (e.rank - 1) as f64
                } else {
                    e.rank as f64 - (stride as f64 / 2.0)
                };
                // If nothing was ever evicted *and* no stored entry precedes
                // the cutoff, the stream may have started inside the range:
                // ranks before e.rank with no stored position. Level 0 keeps
                // every rank while unevicted, so e.rank-1 of them precede.
                (self.count as f64 - r_star).max(0.0)
            }
            None => {
                // Every stored position is at or before the cutoff; only the
                // ranks after the newest stored multiple can be inside.
                let back = q.back().map_or(0, |e| e.rank);
                debug_assert!(self.count >= back);
                (self.count - back) as f64 / 2.0
            }
        }
    }

    /// Reconstruct the stream as (tick, weight) events for aggregation:
    /// consecutive remembered ranks bound how many arrivals fell between two
    /// ticks; half are replayed at each boundary (mirroring the exponential-
    /// histogram replay of paper §5.1).
    pub fn replay_events(&self) -> Vec<(u64, u64)> {
        let mut entries: Vec<Entry> = self.queues.iter().flat_map(|q| q.iter().copied()).collect();
        entries.sort_unstable_by_key(|e| e.rank);
        entries.dedup_by_key(|e| e.rank);
        let mut events = Vec::with_capacity(entries.len() * 2 + 1);
        let mut prev: Option<Entry> = None;
        for e in entries {
            match prev {
                None => {
                    // Ranks 1..=e.rank arrived at ticks ≤ e.pos.
                    events.push((e.pos, e.rank));
                }
                Some(p) => {
                    let d = e.rank - p.rank;
                    if d > 0 {
                        let half = d / 2;
                        if half > 0 {
                            events.push((p.pos, half));
                        }
                        events.push((e.pos, d - half));
                    }
                }
            }
            prev = Some(e);
        }
        // Trailing ranks after the newest remembered multiple.
        if let Some(p) = prev {
            let d = self.count - p.rank;
            if d > 0 {
                let half = d / 2;
                if half > 0 {
                    events.push((p.pos, half));
                }
                events.push((self.last_ts, d - half));
            }
        } else if self.count > 0 {
            events.push((self.last_ts, self.count));
        }
        events
    }
}

impl WindowCounter for DeterministicWave {
    type Config = DwConfig;
    type GridStorage = crate::grid::VecCells<Self>;

    fn new(cfg: &Self::Config) -> Self {
        DeterministicWave::new(cfg)
    }

    fn insert(&mut self, ts: u64, _id: u64) {
        self.insert_one(ts);
    }

    fn insert_weighted(&mut self, ts: u64, _first_id: u64, n: u64) {
        self.insert_ones(ts, n);
    }

    fn query(&self, now: u64, range: u64) -> f64 {
        self.estimate(now, range)
    }

    fn window_len(&self) -> u64 {
        self.cfg.window
    }

    fn guarantee(cfg: &Self::Config) -> Option<WindowGuarantee> {
        Some(WindowGuarantee::deterministic(cfg.epsilon))
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.queues.capacity() * std::mem::size_of::<VecDeque<Entry>>()
            + self
                .queues
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<Entry>())
                .sum::<usize>()
            + self.evicted.capacity()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.queues.len() as u64);
        for (i, q) in self.queues.iter().enumerate() {
            put_u8(buf, u8::from(self.evicted[i]));
            put_varint(buf, q.len() as u64);
            let mut prev = Entry { rank: 0, pos: 0 };
            for &e in q {
                put_varint(buf, e.rank - prev.rank);
                put_varint(buf, e.pos - prev.pos);
                prev = e;
            }
        }
        put_varint(buf, self.count);
        put_varint(buf, self.last_ts);
    }

    fn decode(cfg: &Self::Config, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "dw version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let n_levels = get_varint(input, "dw levels")? as usize;
        if n_levels != cfg.level_count() {
            return Err(CodecError::Corrupt {
                context: "dw levels",
            });
        }
        let cap = cfg.level_capacity();
        let mut queues = Vec::with_capacity(n_levels);
        let mut evicted = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            evicted.push(get_u8(input, "dw evicted")? != 0);
            let n = get_varint(input, "dw queue len")? as usize;
            if n > cap {
                return Err(CodecError::Corrupt {
                    context: "dw queue len",
                });
            }
            let mut q = VecDeque::with_capacity(n);
            let mut prev = Entry { rank: 0, pos: 0 };
            for _ in 0..n {
                let dr = get_varint(input, "dw rank")?;
                let dp = get_varint(input, "dw pos")?;
                let e = Entry {
                    rank: prev
                        .rank
                        .checked_add(dr)
                        .ok_or(CodecError::Corrupt { context: "dw rank" })?,
                    pos: prev
                        .pos
                        .checked_add(dp)
                        .ok_or(CodecError::Corrupt { context: "dw pos" })?,
                };
                q.push_back(e);
                prev = e;
            }
            queues.push(q);
        }
        let count = get_varint(input, "dw count")?;
        let last_ts = get_varint(input, "dw last_ts")?;
        // Semantic validation: every remembered rank must be a positive
        // multiple of its level stride and no larger than the total count.
        for (i, q) in queues.iter().enumerate() {
            let stride = 1u64 << i.min(63);
            for e in q {
                if e.rank == 0 || e.rank % stride != 0 || e.rank > count {
                    return Err(CodecError::Corrupt { context: "dw rank" });
                }
            }
        }
        Ok(DeterministicWave {
            cap,
            cfg: cfg.clone(),
            queues,
            evicted,
            count,
            last_ts,
        })
    }
}

impl MergeableCounter for DeterministicWave {
    const LOSSLESS_MERGE: bool = false;

    /// Order-preserving aggregation via stream replay (paper §5.1 extends
    /// the exponential-histogram scheme to waves).
    fn merge(parts: &[&Self], out_cfg: &Self::Config) -> Result<Self, MergeError> {
        if parts.is_empty() {
            return Err(MergeError::Empty);
        }
        for (i, p) in parts.iter().enumerate() {
            if p.cfg.window != out_cfg.window {
                return Err(MergeError::IncompatibleConfig {
                    detail: format!(
                        "window mismatch at part {i}: {} vs {}",
                        p.cfg.window, out_cfg.window
                    ),
                });
            }
        }
        let mut events: Vec<(u64, u64)> = parts.iter().flat_map(|p| p.replay_events()).collect();
        events.sort_unstable_by_key(|&(ts, _)| ts);
        let mut out = DeterministicWave::new(out_cfg);
        for (ts, n) in events {
            out.insert_ones(ts, n);
        }
        let now = parts.iter().map(|p| p.last_ts).max().unwrap_or(0);
        out.last_ts = out.last_ts.max(now);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_count(ticks: &[u64], now: u64, range: u64) -> u64 {
        let cutoff = now.saturating_sub(range);
        ticks.iter().filter(|&&t| t > cutoff && t <= now).count() as u64
    }

    fn build(eps: f64, window: u64, u: u64, ticks: &[u64]) -> DeterministicWave {
        let mut w = DeterministicWave::new(&DwConfig::new(eps, window, u));
        for &t in ticks {
            w.insert_one(t);
        }
        w
    }

    #[test]
    fn empty_wave_reports_zero() {
        let w = DeterministicWave::new(&DwConfig::new(0.1, 100, 1000));
        assert_eq!(w.estimate(50, 100), 0.0);
        assert_eq!(w.lifetime_ones(), 0);
    }

    #[test]
    fn level_geometry() {
        let cfg = DwConfig::new(0.1, 100, 10_000);
        assert_eq!(cfg.level_capacity(), 11);
        // cap * 2^(l-1) >= 10_000 → 11 * 1024 ≥ 10_000 at l = 11.
        assert_eq!(cfg.level_count(), 11);
        let tight = DwConfig::new(0.5, 100, 3);
        assert_eq!(tight.level_capacity(), 3);
        assert_eq!(tight.level_count(), 1);
    }

    #[test]
    #[should_panic(expected = "max_arrivals")]
    fn zero_bound_rejected() {
        let _ = DwConfig::new(0.1, 10, 0);
    }

    #[test]
    fn small_stream_exact_at_level_zero() {
        let w = build(0.1, 1000, 1000, &[1, 3, 5, 7, 9]);
        assert_eq!(w.estimate(9, 1000), 5.0);
        assert_eq!(w.estimate(9, 4), 2.0); // ticks 7, 9
        assert_eq!(w.estimate(9, 2), 1.0); // tick 9 only (cutoff 7 excluded)
    }

    #[test]
    fn full_window_error_within_eps() {
        let n = 50_000u64;
        let ticks: Vec<u64> = (1..=n).collect();
        for &eps in &[0.05f64, 0.1, 0.2] {
            let window = 10_000u64;
            let w = build(eps, window, n, &ticks);
            let est = w.estimate(n, window);
            let exact = window as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel <= eps + 1e-9, "eps={eps} rel={rel} est={est}");
        }
    }

    #[test]
    fn covers_every_range_within_eps() {
        let n = 20_000u64;
        let ticks: Vec<u64> = (1..=n).collect();
        let eps = 0.1;
        let w = build(eps, n, n, &ticks);
        for range in [10u64, 100, 1000, 5000, 19_999] {
            let est = w.estimate(n, range);
            let exact = exact_count(&ticks, n, range) as f64;
            assert!(
                (est - exact).abs() <= eps * exact + 1.0,
                "range={range} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn codec_round_trips() {
        let cfg = DwConfig::new(0.1, 10_000, 5_000);
        let mut w = DeterministicWave::new(&cfg);
        for t in 1..=3000u64 {
            // Irregular but non-decreasing tick sequence.
            w.insert_one(t * 7 + (t % 7));
        }
        let mut buf = Vec::new();
        w.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = DeterministicWave::decode(&cfg, &mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back.lifetime_ones(), w.lifetime_ones());
        for range in [13u64, 500, 9999] {
            assert_eq!(back.estimate(21_010, range), w.estimate(21_010, range));
        }
        // Truncated prefixes must either fail to decode or decode to a
        // structure that visibly differs (a prefix of a valid stream can be
        // another well-formed, shorter structure).
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            if let Ok(partial) = DeterministicWave::decode(&cfg, &mut s) {
                let mut re = Vec::new();
                partial.encode(&mut re);
                assert_ne!(re, buf, "cut={cut} decoded to an identical wave");
            }
        }
    }

    #[test]
    fn merge_approximates_union() {
        let window = 1_000_000u64;
        let eps = 0.1;
        let a_ticks: Vec<u64> = (1..=3000).map(|i| i * 2).collect();
        let b_ticks: Vec<u64> = (1..=3000).map(|i| i * 2 + 1).collect();
        let a = build(eps, window, 10_000, &a_ticks);
        let b = build(eps, window, 10_000, &b_ticks);
        let out_cfg = DwConfig::new(eps, window, 20_000);
        let merged = DeterministicWave::merge(&[&a, &b], &out_cfg).unwrap();
        let mut union: Vec<u64> = a_ticks.iter().chain(&b_ticks).copied().collect();
        union.sort_unstable();
        let now = *union.last().unwrap();
        let envelope = 2.0 * eps + eps * eps;
        for range in [400u64, 1500, 5999] {
            let est = merged.estimate(now, range);
            let exact = exact_count(&union, now, range) as f64;
            assert!(
                (est - exact).abs() <= envelope * exact + 2.0,
                "range={range} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_rejects_bad_inputs() {
        let cfg = DwConfig::new(0.1, 100, 100);
        assert!(matches!(
            DeterministicWave::merge(&[], &cfg),
            Err(MergeError::Empty)
        ));
        let other = DeterministicWave::new(&DwConfig::new(0.1, 200, 100));
        assert!(matches!(
            DeterministicWave::merge(&[&other], &cfg),
            Err(MergeError::IncompatibleConfig { .. })
        ));
    }

    #[test]
    fn replay_preserves_total_count() {
        let ticks: Vec<u64> = (1..=5000u64).collect();
        let w = build(0.1, 1_000_000, 5000, &ticks);
        let total: u64 = w.replay_events().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_estimate_within_eps_plus_slack(
            gaps in proptest::collection::vec(1u64..10, 100..1500),
            eps in 0.05f64..0.4,
            range_frac in 0.05f64..1.0,
        ) {
            let mut ticks = Vec::with_capacity(gaps.len());
            let mut t = 0u64;
            for g in gaps { t += g; ticks.push(t); }
            let now = *ticks.last().unwrap();
            let w = build(eps, now + 1, ticks.len() as u64, &ticks);
            let range = ((now as f64 * range_frac) as u64).max(1);
            let est = w.estimate(now, range);
            let exact = exact_count(&ticks, now, range) as f64;
            prop_assert!(
                (est - exact).abs() <= eps * exact + 1.0,
                "est={} exact={} eps={}", est, exact, eps
            );
        }

        #[test]
        fn prop_codec_roundtrip(
            n in 1u64..2000,
            eps in 0.05f64..0.5,
        ) {
            let cfg = DwConfig::new(eps, 100_000, 4000);
            let mut w = DeterministicWave::new(&cfg);
            for t in 1..=n { w.insert_one(t * 3); }
            let mut buf = Vec::new();
            w.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = DeterministicWave::decode(&cfg, &mut slice).unwrap();
            prop_assert!(slice.is_empty());
            prop_assert_eq!(back.estimate(n * 3, 50_000), w.estimate(n * 3, 50_000));
        }
    }
}
