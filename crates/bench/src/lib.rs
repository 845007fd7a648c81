//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§7). Each `src/bin/*.rs` binary prints the rows/series of one
//! table or figure; this library holds the common plumbing: workload
//! selection, sketch construction, error scoring against the exact oracle,
//! and output formatting.
//!
//! Scale control: every binary reads `ECM_EVENTS` (default 200 000) so the
//! full suite runs in minutes on a laptop; raise it to approach paper-scale
//! runs.

pub mod alloc;

use ecm::{
    Backend, EcmSketch, Query, QueryKind, SketchReader, SketchSpec, SpecBackend, WindowSpec,
};
use sliding_window::traits::{MergeableCounter, WindowCounter};
use stream_gen::{partition_by_site, snmp_like, worldcup_like, Event, WindowOracle};

/// The paper's sliding window: 10⁶ seconds (≈ 11.5 days).
pub const WINDOW: u64 = 1_000_000;

/// Number of events to generate (env `ECM_EVENTS`, default 200 000).
pub fn event_budget() -> usize {
    std::env::var("ECM_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

/// The two evaluation datasets (synthetic substitutes; DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// WorldCup'98-like: 33 sites, Zipf(0.85) keys.
    Wc98,
    /// SNMP-like: 535 sites, Zipf(1.1) keys.
    Snmp,
}

impl Dataset {
    /// Short label used in table rows.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Wc98 => "wc98-syn",
            Dataset::Snmp => "snmp-syn",
        }
    }

    /// Number of observing sites in the trace.
    pub fn sites(self) -> u32 {
        match self {
            Dataset::Wc98 => 33,
            Dataset::Snmp => 535,
        }
    }

    /// Generate the trace.
    pub fn generate(self, events: usize, seed: u64) -> Vec<Event> {
        match self {
            Dataset::Wc98 => worldcup_like(events, seed),
            Dataset::Snmp => snmp_like(events, seed),
        }
    }
}

/// Query ranges of the paper (§7.1): exponentially increasing,
/// `q_i = (t − 10^i, t]`, clamped to the window.
pub fn query_ranges() -> Vec<u64> {
    (2..=6).map(|i| 10u64.pow(i).min(WINDOW)).collect()
}

/// Observed-error summary of one sketch against the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorSummary {
    /// Mean |est − exact| / ‖a_r‖₁ over all scored queries.
    pub avg: f64,
    /// Maximum of the same.
    pub max: f64,
    /// Number of scored queries.
    pub queries: usize,
}

/// Score point queries over every distinct in-range key for each query
/// range (paper §7.1: one point query per distinct item in the range),
/// capped at `max_keys` per range for tractability.
pub fn score_point_queries<W: WindowCounter + 'static>(
    sk: &EcmSketch<W>,
    oracle: &WindowOracle,
    now: u64,
    max_keys: usize,
) -> ErrorSummary {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for range in query_ranges() {
        let norm = oracle.total(now, range) as f64;
        // Skip near-empty ranges: at paper scale (10⁹ events) every range
        // holds thousands of arrivals; at laptop scale a range with a
        // handful of arrivals turns one hash collision into a meaningless
        // 30%+ "relative" error.
        if norm < 30.0 {
            continue;
        }
        let mut keys: Vec<u64> = oracle.keys().collect();
        keys.sort_unstable();
        for key in keys.into_iter().take(max_keys) {
            let exact = oracle.frequency(key, now, range) as f64;
            let est = sk
                .query(&Query::point(key), WindowSpec::time(now, range))
                .expect("query ranges never exceed the configured window")
                .into_value()
                .value;
            let err = (est - exact).abs() / norm;
            sum += err;
            max = max.max(err);
            n += 1;
        }
    }
    ErrorSummary {
        avg: if n == 0 { 0.0 } else { sum / n as f64 },
        max,
        queries: n,
    }
}

/// Score self-join queries for each query range:
/// `err = |est − exact| / ‖a_r‖₁²` (paper §7.2).
pub fn score_self_join<W: WindowCounter + 'static>(
    sk: &EcmSketch<W>,
    oracle: &WindowOracle,
    now: u64,
) -> ErrorSummary {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for range in query_ranges() {
        let norm = oracle.total(now, range) as f64;
        if norm < 30.0 {
            continue;
        }
        let exact = oracle.self_join(now, range);
        let est = sk
            .query(&Query::self_join(), WindowSpec::time(now, range))
            .expect("query ranges never exceed the configured window")
            .into_value()
            .value;
        let err = (est - exact).abs() / (norm * norm);
        sum += err;
        max = max.max(err);
        n += 1;
    }
    ErrorSummary {
        avg: if n == 0 { 0.0 } else { sum / n as f64 },
        max,
        queries: n,
    }
}

/// Build a centralized sketch of `events` with the given inserter.
pub fn build_sketch<W: WindowCounter>(cfg: &ecm::EcmConfig<W>, events: &[Event]) -> EcmSketch<W> {
    let mut sk = EcmSketch::new(cfg);
    for (i, e) in events.iter().enumerate() {
        sk.insert_with_id(e.ts, e.key, i as u64 + 1)
            .expect("trace ticks are non-decreasing");
    }
    sk
}

/// Build a centralized sketch through the **batched ingest fast path**:
/// runs of consecutive equal `(key, ts)` events collapse into one weighted
/// update carrying the same global arrival ids `build_sketch` assigns, so
/// the result is bit-identical — just faster on bursty traces.
pub fn build_sketch_batched<W: WindowCounter>(
    cfg: &ecm::EcmConfig<W>,
    events: &[Event],
) -> EcmSketch<W> {
    let mut sk = EcmSketch::new(cfg);
    let mut next_id = 1u64;
    for (e, n) in ecm::grouped_runs(events) {
        sk.insert_weighted_with_id(e.ts, e.key, next_id, n)
            .expect("trace ticks are non-decreasing");
        next_id += n;
    }
    sk
}

/// Build per-site sketches and aggregate them up a balanced binary tree,
/// returning the root sketch and the transfer stats.
pub fn build_distributed<W: MergeableCounter>(
    cfg: &ecm::EcmConfig<W>,
    events: &[Event],
    n_sites: u32,
) -> (EcmSketch<W>, distributed::TransferStats) {
    let parts = partition_by_site(events, n_sites);
    // Globally unique arrival ids (consistent with the centralized build).
    let mut site_events: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n_sites as usize];
    for (i, e) in events.iter().enumerate() {
        site_events[e.site as usize].push((e.key, e.ts, i as u64 + 1));
    }
    let _ = parts;
    let out = distributed::aggregate_tree(
        n_sites as usize,
        |i| {
            let mut sk = EcmSketch::new(cfg);
            for &(key, ts, id) in &site_events[i] {
                sk.insert_with_id(ts, key, id)
                    .expect("trace ticks are non-decreasing");
            }
            sk
        },
        &cfg.cell,
    )
    .expect("homogeneous sketches always merge");
    (out.root, out.stats)
}

/// Sketch-variant constructors sharing one accuracy target.
pub struct VariantConfigs {
    /// ε used to build the configs.
    pub epsilon: f64,
    spec: SketchSpec,
}

impl VariantConfigs {
    /// Point-query-optimized configs at (ε, δ) over the paper window.
    pub fn point(epsilon: f64, delta: f64, max_arrivals: u64, seed: u64) -> Self {
        VariantConfigs {
            epsilon,
            spec: SketchSpec::time(WINDOW)
                .epsilon(epsilon)
                .delta(delta)
                .query_kind(QueryKind::Point)
                .max_arrivals(max_arrivals)
                .seed(seed),
        }
    }

    /// Self-join-optimized configs.
    pub fn inner_product(epsilon: f64, delta: f64, max_arrivals: u64, seed: u64) -> Self {
        VariantConfigs {
            epsilon,
            spec: SketchSpec::time(WINDOW)
                .epsilon(epsilon)
                .delta(delta)
                .query_kind(QueryKind::InnerProduct)
                .max_arrivals(max_arrivals)
                .seed(seed),
        }
    }

    /// The typed config of `backend` at this accuracy target.
    fn config<W: SpecBackend>(&self, backend: Backend) -> ecm::EcmConfig<W> {
        self.spec
            .clone()
            .backend(backend)
            .ecm_config()
            .expect("the variant specs are valid")
    }

    /// ECM-EH config.
    pub fn eh(&self) -> ecm::EcmConfig<sliding_window::ExponentialHistogram> {
        self.config(Backend::Eh)
    }

    /// ECM-DW config.
    pub fn dw(&self) -> ecm::EcmConfig<sliding_window::DeterministicWave> {
        self.config(Backend::Dw)
    }

    /// ECM-RW config.
    pub fn rw(&self) -> ecm::EcmConfig<sliding_window::RandomizedWave> {
        self.config(Backend::Rw)
    }
}

/// Megabytes, for table formatting.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Print a table header followed by an underline.
pub fn header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(100)));
}

/// Convenience alias exports for the binaries.
pub use ecm::{EcmDw as Dw, EcmEh as Eh, EcmRw as Rw};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ranges_are_exponential_and_clamped() {
        let r = query_ranges();
        assert_eq!(r, vec![100, 1_000, 10_000, 100_000, 1_000_000]);
    }

    #[test]
    fn scoring_pipeline_runs_end_to_end() {
        let events = Dataset::Wc98.generate(5_000, 3);
        let oracle = WindowOracle::from_events(&events);
        let cfgs = VariantConfigs::point(0.2, 0.1, 10_000, 1);
        let sk = build_sketch(&cfgs.eh(), &events);
        let now = oracle.last_tick();
        let s = score_point_queries(&sk, &oracle, now, 100);
        assert!(s.queries > 0);
        assert!(s.avg <= s.max);
        assert!(s.max <= 0.2 + 0.05, "max observed error {}", s.max);
        let sj = score_self_join(&sk, &oracle, now);
        assert!(sj.queries > 0);
    }

    #[test]
    fn distributed_build_accounts_transfers() {
        let events = Dataset::Wc98.generate(4_000, 5);
        let cfgs = VariantConfigs::point(0.2, 0.1, 10_000, 2);
        let (root, stats) = build_distributed(&cfgs.eh(), &events, 33);
        assert_eq!(root.lifetime_arrivals(), 4_000);
        assert_eq!(stats.messages, 64);
        assert!(stats.bytes > 0);
    }
}
