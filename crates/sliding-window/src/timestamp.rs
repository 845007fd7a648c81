//! Compact timestamp accounting (paper §4.2.1).
//!
//! Time-based exponential histograms identify every bucket by its arrival
//! tick. Stored naively, that is a full 64-bit word per bucket. The paper
//! observes that ticks only ever need to be compared *within one window*:
//! "to reduce memory, arrival times are stored in wraparound counters of
//! `O(log N)` bits, where `N` is the length of the sliding window". A
//! synopsis never retains a timestamp older than one window plus one
//! bucket, so live ticks span at most `2N` and a residue modulo the
//! smallest power of two above `2N` recovers every one of them.
//!
//! The synopsis structs keep plain `u64` ticks for speed; [`compact_eh_bits`]
//! is the paper's bits-per-bucket memory accounting, which the distributed
//! budget planner uses to predict what a histogram would cost on the wire.

/// Paper-faithful compact size of an exponential histogram, in bits:
/// `buckets` bucket end-ticks at `O(log N)` bits apiece (the smallest
/// wraparound width whose modulus exceeds `2 * window`) plus a per-bucket
/// size exponent at `log₂ log₂ (max count)` bits (§4.2.1's `log log u(N, S)`
/// term) plus one full-width reference tick.
///
/// # Panics
/// Panics if `window == 0` or `2 * window` overflows `u64`.
pub fn compact_eh_bits(buckets: usize, window: u64, max_count: u64) -> u64 {
    assert!(window > 0, "window must be positive");
    let span = window.checked_mul(2).expect("window span overflows u64");
    let ts_bits = u64::from(64 - span.leading_zeros()); // smallest b with 2^b > span
    let exp_bits = 64 - max_count.max(2).leading_zeros() as u64; // log2(u)
    let size_bits = 64 - exp_bits.max(2).leading_zeros() as u64; // log2 log2(u)
    buckets as u64 * (ts_bits + size_bits) + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_bits_tracks_window_and_count() {
        // Bigger windows need more timestamp bits; bigger counts more size bits.
        let small = compact_eh_bits(100, 1_000, 1_000);
        let wide = compact_eh_bits(100, 1_000_000, 1_000);
        let tall = compact_eh_bits(100, 1_000, u64::MAX);
        assert!(wide > small);
        assert!(tall > small);
        // 100 buckets over a 1000-tick window: 11 ts bits + small size field.
        assert!(small < 100 * 20 + 64);
    }

    /// The sizes the wraparound-clock implementation produced, unchanged.
    #[test]
    fn compact_bits_are_pinned() {
        for (buckets, window, max_count, bits) in [
            (100, 1_000, 1_000, 1_564),
            (100, 1_000_000, 1_000, 2_564),
            (100, 1_000, u64::MAX, 1_864),
            (0, 1, 0, 64),
            (37, 1 << 20, 5_000, 1_026),
        ] {
            assert_eq!(compact_eh_bits(buckets, window, max_count), bits);
        }
    }

    #[test]
    fn live_bucket_ends_fit_the_charged_width() {
        // Every bucket end a live histogram retains is younger than the
        // modulus of the width `compact_eh_bits` charges, so a residue of
        // that width recovers it.
        use crate::{EhConfig, ExponentialHistogram};
        let cfg = EhConfig::new(0.1, 1_000);
        let mut eh = ExponentialHistogram::new(&cfg);
        let mut now = 0u64;
        for i in 0..20_000u64 {
            now = i * 3 + i / 7;
            eh.insert_one(now);
        }
        let per_bucket = compact_eh_bits(1, cfg.window, 2) - compact_eh_bits(0, cfg.window, 2);
        let ts_bits = per_bucket - 2; // two size bits at max count 2
        for b in eh.buckets() {
            assert!(now - b.end < 1 << ts_bits, "bucket end {} at {now}", b.end);
        }
    }
}
