//! Order statistics: the round-median estimator and latency percentiles.

/// A metric's value over the rounds of one run: the median is the reported
/// value, the quartiles are its spread. Interference on a shared host is
/// bursty; the median of interleaved rounds keeps one burst from owning
/// one metric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q25: f64,
    /// Third quartile.
    pub q75: f64,
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the driver's), so a spread printed here is the spread it will compute.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Summary::default(),
        1 => Summary {
            median: v[0],
            q25: v[0],
            q75: v[0],
        },
        len => {
            let cut = |i: usize| {
                let pos = i * (len + 1);
                let j = (pos / 4).clamp(1, len - 1);
                // Past the clamp this extrapolates, as the Python rule does.
                let delta = pos as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                median: cut(2),
                q25: cut(1),
                q75: cut(3),
            }
        }
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile `p` (0–100) of unsorted nanosecond samples, in
/// microseconds; 0 for an empty sample.
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q25, s.median, s.q75), (2.0, 4.0, 6.0));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q25, s.median, s.q75), (1.25, 2.5, 3.75));
        assert_eq!(median(&[3.0, 9.0]), 6.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q25, s.median, s.q75), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut ns = vec![5_000, 1_000, 3_000, 2_000, 4_000];
        assert_eq!(percentile_us(&mut ns, 50.0), 3.0);
        assert_eq!(percentile_us(&mut ns, 99.0), 5.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
    }
}
