//! Synthetic trace generators standing in for the paper's WorldCup'98 and
//! CRAWDAD SNMP datasets, which cannot be redistributed. Every quantity the
//! evaluation measures depends on the key skew, the arrival density over
//! the window and the partitioning across sites, not on the identity of the
//! keys, so the substitutes reproduce those three from a seed: Zipfian key
//! popularity, diurnally modulated arrivals and skewed site load, at the
//! site counts of the real traces.

use crate::event::Event;
use crate::rng::SeededRng;
use crate::zipf::ZipfSampler;

/// Parameters of a synthetic trace.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of events to generate.
    pub events: usize,
    /// Key-domain size (distinct URLs / MACs).
    pub keys: u64,
    /// Number of observing sites.
    pub sites: u32,
    /// Zipf skew of key popularity.
    pub key_skew: f64,
    /// Zipf skew of site load (0 = uniform load).
    pub site_skew: f64,
    /// Trace duration in ticks (seconds).
    pub duration: u64,
    /// Diurnal modulation amplitude in [0, 1): 0 = homogeneous arrivals.
    pub diurnal_amplitude: f64,
    /// Number of day cycles across the duration.
    pub day_cycles: u32,
    /// RNG seed; identical specs + seeds give identical traces.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Generate the trace: events in non-decreasing tick order, keys
    /// Zipf-distributed, sites drawn per event, arrival density modulated
    /// by a sinusoidal day/night cycle.
    pub fn generate(&self) -> Vec<Event> {
        assert!(self.events > 0, "need at least one event");
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "amplitude must be in [0,1)"
        );
        assert!(self.duration > 0, "duration must be positive");
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let keys = ZipfSampler::new(self.keys, self.key_skew);
        let sites = ZipfSampler::new(u64::from(self.sites), self.site_skew);

        let n = self.events;
        let k = f64::from(self.day_cycles.max(1));
        let a = self.diurnal_amplitude;
        let two_pi_k = std::f64::consts::TAU * k;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            // Jittered stratified phases keep ticks sorted without a sort.
            let u = (i as f64 + rng.gen_f64()) / n as f64;
            // Monotone warp with derivative 1 − a·cos(2πk·u): arrival
            // density peaks once per simulated day.
            let warped = u - a * (two_pi_k * u).sin() / two_pi_k;
            let ts = 1 + (warped * (self.duration - 1) as f64) as u64;
            out.push(Event {
                ts,
                key: keys.sample(&mut rng),
                site: sites.sample(&mut rng) as u32,
            });
        }
        out
    }
}

/// WorldCup'98-like trace: 33 servers, Zipf(0.85) URL popularity, mildly
/// skewed server load, ~30 simulated days of diurnal traffic. The paper's
/// sliding window of 10⁶ s (11.5 days) covers roughly half the trace.
pub fn worldcup_like(events: usize, seed: u64) -> Vec<Event> {
    WorkloadSpec {
        events,
        keys: 50_000,
        sites: 33,
        key_skew: 0.85,
        site_skew: 0.4,
        duration: 2_600_000, // ~30 days in seconds
        diurnal_amplitude: 0.6,
        day_cycles: 30,
        seed,
    }
    .generate()
}

/// SNMP-like trace: 535 access points, Zipf(1.1) client-MAC popularity,
/// stronger site skew (a few busy APs), ~30 simulated days.
pub fn snmp_like(events: usize, seed: u64) -> Vec<Event> {
    WorkloadSpec {
        events,
        keys: 15_000,
        sites: 535,
        key_skew: 1.1,
        site_skew: 0.7,
        duration: 2_600_000,
        diurnal_amplitude: 0.5,
        day_cycles: 30,
        seed,
    }
    .generate()
}

/// Uniform trace across `sites` sites (the artificial network of paper
/// Fig. 6: requests divided uniformly across 1..256 nodes).
pub fn uniform_sites(events: usize, sites: u32, seed: u64) -> Vec<Event> {
    WorkloadSpec {
        events,
        keys: 50_000,
        sites,
        key_skew: 0.85,
        site_skew: 0.0,
        duration: 2_600_000,
        diurnal_amplitude: 0.6,
        day_cycles: 30,
        seed,
    }
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let a = worldcup_like(5_000, 42);
        let b = worldcup_like(5_000, 42);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].ts <= w[1].ts, "ticks must be non-decreasing");
        }
        let c = worldcup_like(5_000, 43);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn keys_are_zipf_skewed() {
        let events = worldcup_like(50_000, 7);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for e in &events {
            *counts.entry(e.key).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Top key should far exceed the median key.
        assert!(freqs[0] > 50, "top key too light: {}", freqs[0]);
        let distinct = freqs.len();
        assert!(distinct > 5_000, "too few distinct keys: {distinct}");
    }

    #[test]
    fn sites_cover_the_configured_range() {
        let events = snmp_like(30_000, 3);
        let max_site = events.iter().map(|e| e.site).max().unwrap();
        assert!(max_site < 535);
        let distinct: std::collections::HashSet<u32> = events.iter().map(|e| e.site).collect();
        assert!(distinct.len() > 300, "site coverage {}", distinct.len());
    }

    #[test]
    fn uniform_sites_balance_load() {
        let events = uniform_sites(64_000, 8, 5);
        let mut per_site = [0u32; 8];
        for e in &events {
            per_site[e.site as usize] += 1;
        }
        for (s, &c) in per_site.iter().enumerate() {
            let dev = (f64::from(c) - 8_000.0).abs() / 8_000.0;
            assert!(dev < 0.1, "site {s} holds {c} events");
        }
    }

    #[test]
    fn diurnal_modulation_shapes_density() {
        let spec = WorkloadSpec {
            events: 100_000,
            keys: 100,
            sites: 1,
            key_skew: 0.0,
            site_skew: 0.0,
            duration: 86_400, // one day
            diurnal_amplitude: 0.8,
            day_cycles: 1,
            seed: 11,
        };
        let events = spec.generate();
        // Peak density lands mid-day (warp derivative max at u = 0.5);
        // quarter-day bins must differ strongly.
        let mut bins = [0u32; 4];
        for e in &events {
            bins[((e.ts - 1) * 4 / 86_400).min(3) as usize] += 1;
        }
        let max = *bins.iter().max().unwrap() as f64;
        let min = *bins.iter().min().unwrap() as f64;
        assert!(max / min > 2.0, "bins={bins:?}");
    }

    #[test]
    fn ticks_start_at_one_and_fit_duration() {
        let events = worldcup_like(2_000, 1);
        assert!(events.first().unwrap().ts >= 1);
        assert!(events.last().unwrap().ts <= 2_600_000);
    }
}
