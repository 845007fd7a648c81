//! Harness regenerating every table and figure of the paper's evaluation
//! (§7). [`repro`] holds the experiments, each returning rows and checked
//! claims, which `src/bin/repro.rs` writes to `REPRODUCTION.json`; this
//! module holds their plumbing: workload selection, sketch construction and
//! error scoring against the exact oracle. [`json`] is the one JSON writer
//! (and reader) of the crate's two result files.
//!
//! Scale control: `ECM_EVENTS` (default 200 000) sizes the traces, so the
//! whole suite runs in about a minute in release; raise it to approach
//! paper-scale runs.

pub mod alloc;
pub mod baselines;
pub mod json;
pub mod repro;

use ecm::{Backend, EcmConfig, EcmSketch, Query, QueryKind, SketchReader, SketchSpec};
use ecm::{SpecBackend, WindowSpec};
use sliding_window::traits::{MergeableCounter, WindowCounter};
use stream_gen::{snmp_like, worldcup_like, Event, WindowOracle};

/// The paper's sliding window: 10⁶ seconds (≈ 11.5 days).
pub const WINDOW: u64 = 1_000_000;

/// Number of events to generate (env `ECM_EVENTS`, default 200 000).
pub fn event_budget() -> usize {
    std::env::var("ECM_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

/// The two evaluation datasets: the synthetic substitutes of
/// [`stream_gen::workloads`] for the paper's WorldCup'98 and SNMP traces.
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

impl FromIterator<f64> for ErrorSummary {
    fn from_iter<I: IntoIterator<Item = f64>>(errors: I) -> Self {
        let (mut sum, mut s) = (0.0, ErrorSummary::default());
        for err in errors {
            (sum, s.max, s.queries) = (sum + err, s.max.max(err), s.queries + 1);
        }
        s.avg = sum / s.queries.max(1) as f64;
        s
    }
}

/// The query ranges worth scoring at `now`, with their ‖a_r‖₁. Near-empty
/// ranges are skipped: at paper scale (10⁹ events) every range holds
/// thousands of arrivals; at laptop scale a range with a handful of
/// arrivals turns one hash collision into a meaningless 30%+ "relative"
/// error.
fn scored_ranges(oracle: &WindowOracle, now: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
    let ranges = query_ranges().into_iter();
    ranges
        .map(move |r| (r, oracle.total(now, r) as f64))
        .filter(|&(_, norm)| norm >= 30.0)
}

/// `sk`'s estimate of `query` over `(now - range, now]`.
fn estimate<W: WindowCounter + 'static>(sk: &EcmSketch<W>, q: &Query, now: u64, range: u64) -> f64 {
    let answer = sk.query(q, WindowSpec::time(now, range));
    let answer = answer.expect("query ranges never exceed the configured window");
    answer.into_value().value
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
    let mut keys: Vec<u64> = oracle.keys().collect();
    keys.sort_unstable();
    let keys = &keys[..keys.len().min(max_keys)];
    let per_range = |(range, norm): (u64, f64)| {
        keys.iter().map(move |&key| {
            let exact = oracle.frequency(key, now, range) as f64;
            (estimate(sk, &Query::point(key), now, range) - exact).abs() / norm
        })
    };
    scored_ranges(oracle, now).flat_map(per_range).collect()
}

/// Score self-join queries for each query range:
/// `err = |est − exact| / ‖a_r‖₁²` (paper §7.2).
pub fn score_self_join<W: WindowCounter + 'static>(
    sk: &EcmSketch<W>,
    oracle: &WindowOracle,
    now: u64,
) -> ErrorSummary {
    let err = |(range, norm): (u64, f64)| {
        let est = estimate(sk, &Query::self_join(), now, range);
        (est - oracle.self_join(now, range)).abs() / (norm * norm)
    };
    scored_ranges(oracle, now).map(err).collect()
}

/// Build a centralized sketch of `events`, arrival ids `1..=n` in trace
/// order. Runs of consecutive equal events go in as one weighted update
/// carrying the same ids, which is bit-identical to the per-event loop and
/// faster on bursty traces.
pub fn build_sketch<W: WindowCounter>(cfg: &EcmConfig<W>, events: &[Event]) -> EcmSketch<W> {
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
    cfg: &EcmConfig<W>,
    events: &[Event],
    n_sites: u32,
) -> (EcmSketch<W>, distributed::TransferStats) {
    // Globally unique arrival ids (consistent with the centralized build).
    let mut site_events: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n_sites as usize];
    for (i, e) in events.iter().enumerate() {
        site_events[e.site as usize].push((e.key, e.ts, i as u64 + 1));
    }
    let site = |i: usize| {
        let mut sk = EcmSketch::new(cfg);
        for &(key, ts, id) in &site_events[i] {
            let inserted = sk.insert_with_id(ts, key, id);
            inserted.expect("trace ticks are non-decreasing");
        }
        sk
    };
    let out = distributed::aggregate_tree(n_sites as usize, site, &cfg.cell);
    let out = out.expect("homogeneous sketches always merge");
    (out.root, out.stats)
}

/// Sketch-variant configs sharing one accuracy target over the paper
/// window.
pub struct VariantConfigs {
    spec: SketchSpec,
}

impl VariantConfigs {
    /// Configs optimized for `kind` queries at (ε, δ).
    pub fn new(kind: QueryKind, epsilon: f64, delta: f64, max_arrivals: u64, seed: u64) -> Self {
        let spec = SketchSpec::time(WINDOW).epsilon(epsilon).delta(delta);
        let spec = spec.query_kind(kind).max_arrivals(max_arrivals).seed(seed);
        VariantConfigs { spec }
    }

    /// Point-query-optimized configs.
    pub fn point(epsilon: f64, delta: f64, max_arrivals: u64, seed: u64) -> Self {
        Self::new(QueryKind::Point, epsilon, delta, max_arrivals, seed)
    }

    /// Self-join-optimized configs.
    pub fn inner_product(epsilon: f64, delta: f64, max_arrivals: u64, seed: u64) -> Self {
        Self::new(QueryKind::InnerProduct, epsilon, delta, max_arrivals, seed)
    }

    /// The typed config of `backend` at this accuracy target.
    fn config<W: SpecBackend>(&self, backend: Backend) -> EcmConfig<W> {
        let spec = self.spec.clone().backend(backend);
        spec.ecm_config().expect("the variant specs are valid")
    }

    /// ECM-EH config.
    pub fn eh(&self) -> EcmConfig<sliding_window::ExponentialHistogram> {
        self.config(Backend::Eh)
    }

    /// ECM-DW config.
    pub fn dw(&self) -> EcmConfig<sliding_window::DeterministicWave> {
        self.config(Backend::Dw)
    }

    /// ECM-RW config.
    pub fn rw(&self) -> EcmConfig<sliding_window::RandomizedWave> {
        self.config(Backend::Rw)
    }
}

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
