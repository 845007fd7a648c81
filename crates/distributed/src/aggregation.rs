//! Order-preserving aggregation of per-site ECM-sketches up a balanced
//! binary tree, with byte-accurate transfer accounting (paper §5.3, §7.3).
//!
//! Children serialize their sketches and ship them to the parent, which
//! decodes, `⊕`-merges and forwards; the *transfer volume* of one full
//! aggregation is the sum of the serialized sizes of every shipped sketch —
//! exactly what the paper plots on the X axis of Figs. 5 and 6.

use crate::topology::{BinaryTree, KaryTree};
use ecm::query::{Answer, Estimate, Guarantee, Query, QueryError, SketchReader, WindowSpec};
use ecm::{EcmConfig, EcmSketch, SketchSpec, SketchWriter, SpecBackend, SpecError};
use sliding_window::traits::{MergeableCounter, WindowCounter};
use sliding_window::MergeError;
use stream_gen::Event;

/// Network accounting for one aggregation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Total bytes shipped over tree edges.
    pub bytes: u64,
    /// Number of sketch transfers (tree edges used).
    pub messages: u64,
    /// Aggregation rounds = tree height.
    pub levels: u32,
}

/// Result of aggregating a tree of sketches.
#[derive(Debug, Clone)]
pub struct AggregationOutcome<W: MergeableCounter> {
    /// The root sketch summarizing the interleaved union of all streams.
    pub root: EcmSketch<W>,
    /// Network accounting.
    pub stats: TransferStats,
}

impl<W> SketchReader for AggregationOutcome<W>
where
    W: MergeableCounter + 'static,
    W::Config: 'static,
{
    /// The coordinator path of the unified query API: the same typed
    /// [`Query`] answered by a local sketch can be routed at the root of a
    /// distributed aggregation.
    ///
    /// For lossy-merge counters (exponential histograms, deterministic
    /// waves), every one of the tree's `stats.levels` merge rounds inflates
    /// the window error by Theorem 4, which the root sketch's own cell
    /// configuration cannot know about. Estimate guarantees are therefore
    /// widened here by the multi-level forward recursion `h·ε(1+ε)` of
    /// paper §5.1 (see [`crate::budget`]); lossless-merge counters
    /// (randomized waves, the exact baseline) pass through unchanged.
    fn query(&self, q: &Query<'_>, w: WindowSpec) -> Result<Answer, QueryError> {
        // Binary queries accept another aggregation outcome (roots are
        // paired) or a plain sketch of the same counter type; anything else
        // is rejected here so the error names this backend, not the root.
        let result = if let Query::InnerProduct { other } = q {
            let operand_any = other.as_any();
            let peer: &EcmSketch<W> =
                if let Some(outcome) = operand_any.downcast_ref::<AggregationOutcome<W>>() {
                    &outcome.root
                } else if let Some(sketch) = operand_any.downcast_ref::<EcmSketch<W>>() {
                    sketch
                } else {
                    return Err(QueryError::IncompatibleOperand {
                        detail: format!(
                            "{} cannot be paired with {}",
                            self.backend(),
                            other.backend()
                        ),
                    });
                };
            self.root.query(&Query::inner_product(peer), w)
        } else {
            self.root.query(q, w)
        };
        // Errors that name a backend must name this one, not the inner
        // root the call was delegated to.
        let result = result.map_err(|e| match e {
            QueryError::Unsupported { query, hint, .. } => QueryError::Unsupported {
                backend: self.backend(),
                query,
                hint,
            },
            QueryError::ClockMismatch { expected, got, .. } => QueryError::ClockMismatch {
                backend: self.backend(),
                expected,
                got,
            },
            other => other,
        });
        result.map(|answer| self.widen_guarantees(answer))
    }

    fn backend(&self) -> &'static str {
        "AggregationOutcome"
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<TransferStats>() + self.root.memory_bytes()
    }

    fn write_clock(&self) -> u64 {
        self.root.last_tick()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl<W> AggregationOutcome<W>
where
    W: MergeableCounter + 'static,
    W::Config: 'static,
{
    /// Widen an answer's guarantees by the multi-level merge inflation the
    /// root's local contract does not account for: `h` lossy merge rounds
    /// add `h·ε_sw(1+ε_sw)` window error (paper §5.1 forward recursion),
    /// scaled by `(1 + ε_cm)` for the hashing composition of Theorem 1.
    fn widen_guarantees(&self, answer: Answer) -> Answer {
        if W::LOSSLESS_MERGE || self.stats.levels == 0 {
            return answer;
        }
        let Some(cell) = W::guarantee(self.root.cell_config()) else {
            // No analytical contract on the cells — nothing to widen.
            return answer;
        };
        let esw = cell.epsilon;
        let ecm = std::f64::consts::E / self.root.width() as f64;
        let extra = f64::from(self.stats.levels) * esw * (1.0 + esw) * (1.0 + ecm);
        let widen = |est: Estimate| Estimate {
            guarantee: est.guarantee.map(|g| Guarantee {
                epsilon: g.epsilon + extra,
                delta: g.delta,
            }),
            ..est
        };
        match answer {
            Answer::Value(est) => Answer::Value(widen(est)),
            Answer::HeavyHitters(hits) => {
                Answer::HeavyHitters(hits.into_iter().map(|(k, est)| (k, widen(est))).collect())
            }
            quantile @ Answer::Quantile(_) => quantile,
        }
    }
}

/// Build one site's sketch from its timestamp-ordered event slice through
/// the **batched ingest fast path**: runs of consecutive equal `(key, ts)`
/// arrivals — the shape bursty site streams have — collapse into one
/// weighted update each. The site's arrival ids live in their own
/// `namespace`, and the result is bit-identical to per-event insertion, so
/// sketches built this way merge exactly like conventionally built ones
/// (including lossless randomized-wave composition across sites with
/// distinct namespaces).
///
/// This is the leaf constructor to hand to [`aggregate_tree`] /
/// [`aggregate_kary_tree`] when sites ingest at high rate.
///
/// # Panics
/// If `namespace` does not fit the id-namespace contract of
/// [`EcmSketch::set_id_namespace`] (must be `< 2²⁴`).
pub fn site_sketch_batched<W: WindowCounter>(
    cfg: &EcmConfig<W>,
    namespace: u64,
    events: &[Event],
) -> EcmSketch<W> {
    let mut sk = EcmSketch::new(cfg);
    sk.set_id_namespace(namespace);
    // Group directly over the borrowed slice — no O(n) staging copy on the
    // hot ingest path.
    for (e, n) in ecm::grouped_runs(events) {
        sk.insert_weighted(e.ts, e.key, n);
    }
    sk
}

/// Build one site's sketch from a validated [`SketchSpec`] — the
/// distributed entry point of the unified construction API. The *same*
/// declarative spec that [`build`](SketchSpec::build)s local
/// `Box<dyn Sketch>` handles materializes the typed, mergeable site
/// sketches an aggregation tree needs, so a deployment cannot drift into
/// sites and coordinator describing different sketches.
///
/// ```
/// use distributed::{aggregate_tree, site_sketch_from_spec};
/// use ecm::{Backend, Query, SketchReader, SketchSpec, WindowSpec};
/// use sliding_window::ExponentialHistogram;
/// use stream_gen::Event;
///
/// let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(7);
/// let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
/// let site_events: Vec<Vec<Event>> = (0..4u64)
///     .map(|s| {
///         (1..=100u64)
///             .map(|t| Event { ts: t, key: s, site: s as u32 })
///             .collect()
///     })
///     .collect();
/// let out = aggregate_tree(
///     4,
///     |i| {
///         site_sketch_from_spec::<ExponentialHistogram>(&spec, i as u64 + 1, &site_events[i])
///             .expect("spec validated above")
///     },
///     &cfg.cell,
/// )
/// .unwrap();
/// let est = out
///     .query(&Query::point(2), WindowSpec::time(100, 1_000))
///     .unwrap()
///     .into_value();
/// assert!((est.value - 100.0).abs() <= 0.3 * 400.0);
/// ```
///
/// # Errors
/// Any [`SpecError`] from validation, including
/// [`BackendMismatch`](SpecError::BackendMismatch) when `W` disagrees with
/// the spec's declared [`Backend`](ecm::Backend).
pub fn site_sketch_from_spec<W: SpecBackend>(
    spec: &SketchSpec,
    namespace: u64,
    events: &[Event],
) -> Result<EcmSketch<W>, SpecError> {
    let cfg = spec.ecm_config::<W>()?;
    Ok(site_sketch_batched(&cfg, namespace, events))
}

/// Aggregate `n_sites` per-site sketches up a balanced binary tree.
///
/// `leaf` builds (or hands over) the sketch of site `i`; leaves are
/// materialized on demand during a depth-first walk, so at most
/// `O(log n)` sketches are alive at once — which is what makes the
/// memory-hungry randomized-wave experiments feasible.
///
/// `out_cell_cfg` configures the merged cells at every internal node
/// (for ECM-EH it carries ε′ of Theorem 4; for ECM-RW it must equal the
/// leaf cell config and the aggregation is lossless).
///
/// ```
/// use distributed::aggregate_tree;
/// use ecm::{EcmEh, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
///
/// let cfg = SketchSpec::time(1000).seed(7).ecm_config().unwrap();
/// let out = aggregate_tree(
///     4,
///     |site| {
///         let mut sk = EcmEh::new(&cfg);
///         sk.set_id_namespace(site as u64 + 1);
///         for t in 1..=100u64 {
///             sk.insert(/*tick=*/ t, /*item=*/ site as u64);
///         }
///         sk
///     },
///     &cfg.cell,
/// )
/// .unwrap();
/// assert_eq!(out.stats.levels, 2);
/// assert_eq!(out.root.lifetime_arrivals(), 400);
/// assert!(out.stats.bytes > 0); // children shipped their sketches
/// // The outcome is itself a query backend (the coordinator path).
/// let est = out
///     .query(&Query::point(2), WindowSpec::time(100, 1000))
///     .unwrap()
///     .into_value();
/// assert!((est.value - 100.0).abs() <= 0.2 * 400.0);
/// ```
///
/// # Errors
/// Propagates [`MergeError`] from incompatible sketches.
pub fn aggregate_tree<W, F>(
    n_sites: usize,
    mut leaf: F,
    out_cell_cfg: &W::Config,
) -> Result<AggregationOutcome<W>, MergeError>
where
    W: MergeableCounter,
    F: FnMut(usize) -> EcmSketch<W>,
{
    assert!(n_sites > 0, "need at least one site");
    let tree = BinaryTree::new(n_sites);
    let mut stats = TransferStats {
        bytes: 0,
        messages: 0,
        levels: tree.height(),
    };
    let root = aggregate_range(0, n_sites, &mut leaf, out_cell_cfg, &mut stats)?;
    Ok(AggregationOutcome { root, stats })
}

fn aggregate_range<W, F>(
    lo: usize,
    hi: usize,
    leaf: &mut F,
    out_cell_cfg: &W::Config,
    stats: &mut TransferStats,
) -> Result<EcmSketch<W>, MergeError>
where
    W: MergeableCounter,
    F: FnMut(usize) -> EcmSketch<W>,
{
    match BinaryTree::split(lo, hi) {
        None => Ok(leaf(lo)),
        Some(((a, b), (c, d))) => {
            let left = aggregate_range(a, b, leaf, out_cell_cfg, stats)?;
            let right = aggregate_range(c, d, leaf, out_cell_cfg, stats)?;
            // Both children ship their sketches to the parent.
            stats.bytes += left.encoded_len() as u64 + right.encoded_len() as u64;
            stats.messages += 2;
            EcmSketch::merge(&[&left, &right], out_cell_cfg)
        }
    }
}

/// Aggregate `n_sites` per-site sketches up a balanced k-ary tree
/// (paper §5.1's topology-controlled height: fanout `k` flattens the tree to
/// `⌈log_k n⌉` levels, shrinking the multi-level error inflation at the cost
/// of `k`-way merges at each internal node).
///
/// Same contract as [`aggregate_tree`], which is the `fanout = 2` special
/// case (up to the shape of intermediate merges).
///
/// # Errors
/// Propagates [`MergeError`] from incompatible sketches.
pub fn aggregate_kary_tree<W, F>(
    n_sites: usize,
    fanout: usize,
    mut leaf: F,
    out_cell_cfg: &W::Config,
) -> Result<AggregationOutcome<W>, MergeError>
where
    W: MergeableCounter,
    F: FnMut(usize) -> EcmSketch<W>,
{
    assert!(n_sites > 0, "need at least one site");
    let tree = KaryTree::new(n_sites, fanout);
    let mut stats = TransferStats {
        bytes: 0,
        messages: 0,
        levels: tree.height(),
    };
    let root = aggregate_kary_range(&tree, 0, n_sites, &mut leaf, out_cell_cfg, &mut stats)?;
    Ok(AggregationOutcome { root, stats })
}

fn aggregate_kary_range<W, F>(
    tree: &KaryTree,
    lo: usize,
    hi: usize,
    leaf: &mut F,
    out_cell_cfg: &W::Config,
    stats: &mut TransferStats,
) -> Result<EcmSketch<W>, MergeError>
where
    W: MergeableCounter,
    F: FnMut(usize) -> EcmSketch<W>,
{
    let children = tree.split(lo, hi);
    if children.is_empty() {
        return Ok(leaf(lo));
    }
    let mut parts = Vec::with_capacity(children.len());
    for (a, b) in children {
        let child = aggregate_kary_range(tree, a, b, leaf, out_cell_cfg, stats)?;
        stats.bytes += child.encoded_len() as u64;
        stats.messages += 1;
        parts.push(child);
    }
    let refs: Vec<&EcmSketch<W>> = parts.iter().collect();
    EcmSketch::merge(&refs, out_cell_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecm::{Backend, EcmEh, EcmRw, SketchSpec};

    /// Typed point query on any reader (sketches and roots alike).
    fn point(r: &dyn SketchReader, key: u64, now: u64, range: u64) -> f64 {
        r.query(&Query::point(key), WindowSpec::time(now, range))
            .expect("in-window point query")
            .into_value()
            .value
    }
    use stream_gen::{partition_by_site, uniform_sites, WindowOracle};

    #[test]
    fn single_site_tree_is_a_passthrough() {
        let cfg = SketchSpec::time(1000).seed(1).ecm_config().unwrap();
        let mut sk = EcmEh::new(&cfg);
        sk.insert(10, 5);
        let out = aggregate_tree(1, |_| sk.clone(), &cfg.cell).unwrap();
        assert_eq!(out.stats.bytes, 0);
        assert_eq!(out.stats.messages, 0);
        assert_eq!(out.stats.levels, 0);
        assert_eq!(point(&out.root, 5, 10, 1000), 1.0);
    }

    #[test]
    fn tree_aggregation_tracks_oracle() {
        let n_sites = 8u32;
        let events = uniform_sites(20_000, n_sites, 42);
        let oracle = WindowOracle::from_events(&events);
        let window = 2_600_000u64;
        let eps = 0.1;
        let cfg = SketchSpec::time(window)
            .epsilon(eps)
            .delta(0.05)
            .seed(3)
            .ecm_config()
            .unwrap();
        let parts = partition_by_site(&events, n_sites);

        let out = aggregate_tree(
            n_sites as usize,
            |i| {
                let mut sk = EcmEh::new(&cfg);
                sk.set_id_namespace(i as u64 + 1);
                for e in &parts[i] {
                    sk.insert(e.ts, e.key);
                }
                sk
            },
            &cfg.cell,
        )
        .unwrap();

        assert_eq!(out.stats.levels, 3);
        assert_eq!(out.stats.messages, 2 * 7); // 7 internal nodes
        assert!(out.stats.bytes > 0);
        assert_eq!(out.root.lifetime_arrivals(), 20_000);

        let now = oracle.last_tick();
        let norm = oracle.total(now, window) as f64;
        // Multi-level envelope: h·ε(1+ε) + ε plus hashing ε_cm ≈ 0.5 at
        // h = 3, ε = 0.1; observed error is far lower (paper Table 4).
        let envelope = 3.0 * eps * (1.0 + eps) + eps + 0.05;
        let mut checked = 0;
        for key in 0..200u64 {
            let exact = oracle.frequency(key, now, window) as f64;
            if exact == 0.0 {
                continue;
            }
            checked += 1;
            let est = point(&out.root, key, now, window);
            assert!(
                (est - exact).abs() <= envelope * norm + 2.0,
                "key={key} est={est} exact={exact}"
            );
        }
        assert!(checked > 50, "workload too sparse to be meaningful");
    }

    #[test]
    fn rw_tree_aggregation_is_lossless() {
        let n_sites = 4u32;
        let events = uniform_sites(6_000, n_sites, 9);
        let window = 2_600_000u64;
        let cfg = SketchSpec::time(window)
            .epsilon(0.25)
            .max_arrivals(10_000)
            .seed(7)
            .backend(Backend::Rw)
            .ecm_config()
            .unwrap();
        let parts = partition_by_site(&events, n_sites);

        // Union sketch built centrally with globally unique ids.
        let mut central = EcmRw::new(&cfg);
        for (i, e) in events.iter().enumerate() {
            central.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
        }
        // Distributed: same ids, routed to the observing site.
        let mut site_sketches: Vec<EcmRw> = (0..n_sites).map(|_| EcmRw::new(&cfg)).collect();
        {
            let mut cursors = vec![0usize; n_sites as usize];
            for (next_id, e) in (1u64..).zip(events.iter()) {
                let s = e.site as usize;
                site_sketches[s]
                    .insert_with_id(e.ts, e.key, next_id)
                    .unwrap();
                cursors[s] += 1;
            }
            assert_eq!(
                cursors.iter().sum::<usize>(),
                events.len(),
                "routing covered all events"
            );
            let _ = &parts; // parts kept for readability of the setup
        }

        let out =
            aggregate_tree(n_sites as usize, |i| site_sketches[i].clone(), &cfg.cell).unwrap();
        let now = events.last().unwrap().ts;
        for key in [0u64, 1, 7, 100, 999] {
            assert_eq!(
                point(&out.root, key, now, window),
                point(&central, key, now, window),
                "key={key}"
            );
        }
    }

    #[test]
    fn kary_aggregation_matches_binary_results() {
        let n_sites = 9u32; // forces uneven k-ary splits
        let events = uniform_sites(9_000, n_sites, 33);
        let window = 2_600_000u64;
        let cfg = SketchSpec::time(window).seed(13).ecm_config().unwrap();
        let parts = partition_by_site(&events, n_sites);
        let now = events.last().unwrap().ts;

        let leaf = |i: usize| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        };

        let binary = aggregate_tree(n_sites as usize, leaf, &cfg.cell).unwrap();
        for fanout in [2usize, 3, 9] {
            let kary = aggregate_kary_tree(n_sites as usize, fanout, leaf, &cfg.cell).unwrap();
            assert_eq!(
                kary.stats.levels,
                KaryTree::new(9, fanout).height(),
                "fanout={fanout}"
            );
            assert_eq!(kary.root.lifetime_arrivals(), 9_000);
            // Same information reaches the root: estimates agree within the
            // (small) merge-shape noise.
            for key in [0u64, 3, 17, 100] {
                let a = point(&binary.root, key, now, window);
                let b = point(&kary.root, key, now, window);
                assert!(
                    (a - b).abs() <= 0.2 * a.max(b) + 2.0,
                    "fanout={fanout} key={key}: binary={a} kary={b}"
                );
            }
        }
        // A flat star (fanout = n) performs one merge round: each site ships
        // once, and the error inflation is a single Theorem-4 application.
        let star = aggregate_kary_tree(9, 9, leaf, &cfg.cell).unwrap();
        assert_eq!(star.stats.levels, 1);
        assert_eq!(star.stats.messages, 9);
    }

    #[test]
    fn flatter_trees_ship_fewer_intermediate_bytes() {
        let n_sites = 16u32;
        let events = uniform_sites(8_000, n_sites, 3);
        let cfg = SketchSpec::time(2_600_000)
            .epsilon(0.2)
            .seed(2)
            .ecm_config()
            .unwrap();
        let parts = partition_by_site(&events, n_sites);
        let leaf = |i: usize| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        };
        let deep = aggregate_kary_tree(16, 2, leaf, &cfg.cell).unwrap();
        let flat = aggregate_kary_tree(16, 16, leaf, &cfg.cell).unwrap();
        // The binary tree ships 30 sketches (2 per internal node), the star
        // ships 16: fewer transfers, fewer aggregation levels.
        assert_eq!(deep.stats.messages, 30);
        assert_eq!(flat.stats.messages, 16);
        assert!(flat.stats.bytes < deep.stats.bytes);
        assert!(flat.stats.levels < deep.stats.levels);
    }

    #[test]
    fn kary_rw_aggregation_is_lossless_at_any_fanout() {
        // Randomized waves compose losslessly regardless of merge shape:
        // star, ternary and binary trees must agree exactly.
        let n_sites = 6u32;
        let events = uniform_sites(3_000, n_sites, 4);
        let window = 2_600_000u64;
        let cfg = SketchSpec::time(window)
            .epsilon(0.25)
            .max_arrivals(5_000)
            .seed(2)
            .backend(Backend::Rw)
            .ecm_config()
            .unwrap();
        let mut site_sketches: Vec<EcmRw> = (0..n_sites).map(|_| EcmRw::new(&cfg)).collect();
        for (id, e) in (1u64..).zip(events.iter()) {
            site_sketches[e.site as usize]
                .insert_with_id(e.ts, e.key, id)
                .unwrap();
        }
        let leaf = |i: usize| site_sketches[i].clone();
        let now = events.last().unwrap().ts;

        let binary = aggregate_kary_tree(6, 2, leaf, &cfg.cell).unwrap();
        let ternary = aggregate_kary_tree(6, 3, leaf, &cfg.cell).unwrap();
        let star = aggregate_kary_tree(6, 6, leaf, &cfg.cell).unwrap();
        for key in [0u64, 5, 42, 1_000] {
            let b = point(&binary.root, key, now, window);
            assert_eq!(b, point(&ternary.root, key, now, window), "key={key}");
            assert_eq!(b, point(&star.root, key, now, window), "key={key}");
        }
    }

    #[test]
    fn batched_site_ingest_is_bit_identical_to_per_event() {
        // Site streams with heavy same-(key, ts) bursts: the batched leaf
        // constructor must reproduce the per-event sketch byte for byte,
        // and the aggregated roots must therefore agree exactly.
        let window = 100_000u64;
        let cfg = SketchSpec::time(window)
            .epsilon(0.15)
            .seed(19)
            .ecm_config()
            .unwrap();
        let n_sites = 5u32;
        let mut events = Vec::new();
        for t in 1..=400u64 {
            let burst = 1 + (t % 7);
            for _ in 0..burst {
                events.push(stream_gen::Event {
                    ts: t * 3,
                    key: t % 23,
                    site: (t % u64::from(n_sites)) as u32,
                });
            }
        }
        let parts = partition_by_site(&events, n_sites);

        let per_event_leaf = |i: usize| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        };
        for (i, part) in parts.iter().enumerate() {
            let batched = site_sketch_batched(&cfg, i as u64 + 1, part);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            per_event_leaf(i).encode(&mut a);
            batched.encode(&mut b);
            assert_eq!(a, b, "site {i}: batched leaf must be bit-identical");
        }

        let from_batched = aggregate_tree(
            n_sites as usize,
            |i| site_sketch_batched(&cfg, i as u64 + 1, &parts[i]),
            &cfg.cell,
        )
        .unwrap();
        let from_events = aggregate_tree(n_sites as usize, per_event_leaf, &cfg.cell).unwrap();
        assert_eq!(from_batched.stats, from_events.stats);
        let now = events.last().unwrap().ts;
        for key in 0..23u64 {
            assert_eq!(
                point(&from_batched.root, key, now, window),
                point(&from_events.root, key, now, window),
                "key={key}"
            );
        }
    }

    #[test]
    fn transfer_volume_grows_with_sites() {
        let window = 2_600_000u64;
        let cfg = SketchSpec::time(window)
            .epsilon(0.2)
            .seed(5)
            .ecm_config()
            .unwrap();
        let mut volumes = Vec::new();
        for &n in &[2usize, 8, 32] {
            let events = uniform_sites(8_000, n as u32, 77);
            let parts = partition_by_site(&events, n as u32);
            let out = aggregate_tree(
                n,
                |i| {
                    let mut sk = EcmEh::new(&cfg);
                    for e in &parts[i] {
                        sk.insert(e.ts, e.key);
                    }
                    sk
                },
                &cfg.cell,
            )
            .unwrap();
            volumes.push(out.stats.bytes);
        }
        assert!(
            volumes[0] < volumes[1] && volumes[1] < volumes[2],
            "transfer volume must grow with the tree: {volumes:?}"
        );
    }
}
