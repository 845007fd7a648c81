//! Equi-width sub-window counter — the baseline design of Hung & Ting
//! (LATIN 2008) and Dimitropoulos et al. (Computer Networks 2008) that the
//! paper's related-work section contrasts ECM-sketches against (§2): the
//! window is cut into a fixed number of equal sub-windows, each holding one
//! plain count.
//!
//! Simple and fast, but the paper's criticism is structural and this
//! implementation reproduces it faithfully: the only error control is the
//! sub-window width, so a query whose range is comparable to (or smaller
//! than) one sub-window can be off by an entire bucket's mass — there is
//! **no multiplicative error guarantee**, especially for small query
//! ranges. `ecm_bench::repro::baseline_equiwidth` measures exactly this
//! failure mode against the exponential histogram (the `s2.*` claims of
//! `REPRODUCTION.json`).

use std::collections::VecDeque;

use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::traits::{WindowCounter, WindowGuarantee};
use sliding_window::CodecError;

const CODEC_VERSION: u8 = 4;

/// Construction parameters for an [`EquiWidthWindow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiWidthConfig {
    /// Window length in ticks.
    pub window: u64,
    /// Number of equal sub-windows the window is cut into.
    pub buckets: usize,
}

impl EquiWidthConfig {
    /// Build a config.
    ///
    /// # Panics
    /// If `window == 0`, `buckets == 0`, or `buckets > window` (sub-windows
    /// must span at least one tick).
    pub fn new(window: u64, buckets: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(buckets > 0, "need at least one bucket");
        assert!(
            buckets as u64 <= window,
            "buckets ({buckets}) must not exceed window ticks ({window})"
        );
        EquiWidthConfig { window, buckets }
    }

    /// Width of one sub-window in ticks.
    pub fn bucket_width(&self) -> u64 {
        self.window.div_ceil(self.buckets as u64)
    }
}

/// One retained sub-window: its slot index on the absolute tick grid and
/// its arrival count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Absolute slot index: `tick / bucket_width`.
    index: u64,
    count: u64,
}

/// Fixed equi-width sub-window counter (baseline; no ε guarantee).
///
/// Sub-windows are aligned to the absolute tick grid (`tick / width`), which
/// makes counters built over disjoint streams trivially mergeable — the one
/// advantage this baseline has — at the price of unbounded relative error
/// on narrow ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiWidthWindow {
    window: u64,
    width: u64,
    max_slots: usize,
    /// Retained slots, oldest at the front; indexes strictly increasing.
    slots: VecDeque<Slot>,
    last_ts: u64,
    lifetime: u64,
}

impl EquiWidthWindow {
    /// Create an empty counter.
    pub fn new(cfg: &EquiWidthConfig) -> Self {
        EquiWidthWindow {
            window: cfg.window,
            width: cfg.bucket_width(),
            // One extra slot so a window can straddle slot boundaries.
            max_slots: cfg.buckets + 1,
            slots: VecDeque::new(),
            last_ts: 0,
            lifetime: 0,
        }
    }

    /// Record `n` arrivals at tick `ts` (non-decreasing).
    pub fn insert_ones(&mut self, ts: u64, n: u64) {
        debug_assert!(
            self.lifetime == 0 || ts >= self.last_ts,
            "timestamps must be non-decreasing"
        );
        if n == 0 {
            return;
        }
        self.last_ts = ts;
        self.lifetime += n;
        let index = ts / self.width;
        match self.slots.back_mut() {
            Some(s) if s.index == index => s.count += n,
            _ => self.slots.push_back(Slot { index, count: n }),
        }
        while self.slots.len() > self.max_slots {
            self.slots.pop_front();
        }
    }

    /// Estimate arrivals in `(now − range, now]`: full slots plus a
    /// *prorated* share of the two straddling slots (uniformity assumption —
    /// the source of the unbounded error).
    pub fn estimate(&self, now: u64, range: u64) -> f64 {
        let range = range.min(self.window);
        let cutoff = now.saturating_sub(range);
        let mut sum = 0.0;
        for s in &self.slots {
            let slot_lo = s.index * self.width;
            let slot_hi = slot_lo + self.width - 1;
            if slot_hi <= cutoff || slot_lo > now {
                continue;
            }
            // Overlap of (cutoff, now] with [slot_lo, slot_hi].
            let lo = slot_lo.max(cutoff + 1);
            let hi = slot_hi.min(now);
            if lo > hi {
                continue;
            }
            let frac = (hi - lo + 1) as f64 / self.width as f64;
            sum += s.count as f64 * frac.min(1.0);
        }
        sum
    }

    /// Lifetime arrivals.
    pub fn lifetime_ones(&self) -> u64 {
        self.lifetime
    }
}

impl WindowCounter for EquiWidthWindow {
    type Config = EquiWidthConfig;
    type GridStorage = sliding_window::VecCells<Self>;

    fn new(cfg: &Self::Config) -> Self {
        EquiWidthWindow::new(cfg)
    }

    fn insert(&mut self, ts: u64, _id: u64) {
        self.insert_ones(ts, 1);
    }

    fn insert_weighted(&mut self, ts: u64, _first_id: u64, n: u64) {
        self.insert_ones(ts, n);
    }

    fn query(&self, now: u64, range: u64) -> f64 {
        self.estimate(now, range)
    }

    fn window_len(&self) -> u64 {
        self.window
    }

    fn guarantee(_cfg: &Self::Config) -> Option<WindowGuarantee> {
        None
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.slots.len() as u64);
        let mut prev = 0u64;
        for s in &self.slots {
            put_varint(buf, s.index - prev);
            put_varint(buf, s.count);
            prev = s.index;
        }
        put_varint(buf, self.last_ts);
        put_varint(buf, self.lifetime);
    }

    fn decode(cfg: &Self::Config, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "ew version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let n = get_varint(input, "ew slots")? as usize;
        if n > cfg.buckets + 1 {
            return Err(CodecError::Corrupt {
                context: "ew slots",
            });
        }
        let mut slots = VecDeque::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            let di = get_varint(input, "ew index")?;
            let count = get_varint(input, "ew count")?;
            if count == 0 || (i > 0 && di == 0) {
                return Err(CodecError::Corrupt { context: "ew slot" });
            }
            prev = prev.checked_add(di).ok_or(CodecError::Corrupt {
                context: "ew index",
            })?;
            slots.push_back(Slot { index: prev, count });
        }
        let last_ts = get_varint(input, "ew last_ts")?;
        let lifetime = get_varint(input, "ew lifetime")?;
        Ok(EquiWidthWindow {
            window: cfg.window,
            width: cfg.bucket_width(),
            max_slots: cfg.buckets + 1,
            slots,
            last_ts,
            lifetime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(window: u64, buckets: usize, ticks: &[u64]) -> EquiWidthWindow {
        let mut w = EquiWidthWindow::new(&EquiWidthConfig::new(window, buckets));
        for &t in ticks {
            w.insert_ones(t, 1);
        }
        w
    }

    #[test]
    fn whole_window_counts_are_close() {
        let ticks: Vec<u64> = (1..=1000u64).collect();
        let w = build(1000, 10, &ticks);
        let est = w.estimate(1000, 1000);
        assert!((est - 1000.0).abs() <= 100.0, "est={est}");
    }

    #[test]
    fn small_ranges_have_unbounded_relative_error() {
        // All mass arrives at the START of each 100-tick slot; a query for
        // the last 10 ticks truly holds 0 arrivals, but proration charges
        // 10% of the straddling slot — the paper's criticism in one test.
        let mut w = EquiWidthWindow::new(&EquiWidthConfig::new(1000, 10));
        for slot in 0..10u64 {
            w.insert_ones(slot * 100 + 1, 100); // burst at slot start
        }
        let now = 999u64;
        let est = w.estimate(now, 10);
        // True count in (989, 999] is 0; estimate is ~10.
        assert!(est > 5.0, "proration must misattribute mass, est={est}");
    }

    #[test]
    fn codec_round_trips() {
        let cfg = EquiWidthConfig::new(5_000, 25);
        let ticks: Vec<u64> = (1..=3_000u64).step_by(3).collect();
        let mut w = EquiWidthWindow::new(&cfg);
        for &t in &ticks {
            w.insert_ones(t, 2);
        }
        let mut buf = Vec::new();
        w.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = EquiWidthWindow::decode(&cfg, &mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back, w);
        for cut in 0..buf.len().min(40) {
            let mut s = &buf[..cut];
            if let Ok(partial) = EquiWidthWindow::decode(&cfg, &mut s) {
                assert_ne!(partial, w);
            }
        }
    }

    #[test]
    fn slot_expiry_bounds_memory() {
        let cfg = EquiWidthConfig::new(100, 4);
        let mut w = EquiWidthWindow::new(&cfg);
        for t in 1..=10_000u64 {
            w.insert_ones(t, 1);
        }
        assert!(w.slots.len() <= 5);
        // Recent window count stays near 100.
        let est = w.estimate(10_000, 100);
        assert!((est - 100.0).abs() <= 26.0, "est={est}");
    }

    #[test]
    #[should_panic(expected = "buckets")]
    fn too_many_buckets_rejected() {
        let _ = EquiWidthConfig::new(5, 10);
    }
}
