//! Standing queries: incrementally maintained materialized views over a
//! [`SketchStore`].
//!
//! Instead of recomputing a heavy-hitters / threshold / top-k query on
//! every read, a caller registers a [`ViewDef`] once and the ingest path
//! keeps the answer fresh: after each batch, [`ViewSet::maintain`]
//! recomputes exactly the views whose inputs changed — dirty keys are
//! detected through the store's per-key write stamps, via
//! [`SketchStore::written_since`] — and publishes a new sequence number.
//! Reads ([`ViewSet::read`]) return the cached answer at memory speed.
//!
//! # Partial state (cold keys)
//!
//! Borrowing Noria's partially-stateful views, a registered view costs
//! nothing on the write path until someone asks for it: views start
//! **cold** (never requested), the first read computes and caches the
//! answer (**hot**), and only hot views are maintained. A read that finds
//! no data yet (the key has no sketch) leaves the view **pending**:
//! maintenance materializes it the moment its key is first written, which
//! is what lets a subscriber register interest before the data exists.
//!
//! # Consistency contract
//!
//! Maintenance is a single-writer affair: the owner of the store calls
//! [`maintain`](ViewSet::maintain) after every applied ingest batch (and
//! [`refresh`](ViewSet::refresh) after every clock advance), which bumps
//! the published sequence number. A [`ViewReadout`] carries the sequence
//! current at read time: the answer reflects **all** ingest applied up to
//! that publication and nothing after it. Views are eventually
//! consistent with the stream — never ahead of it, and never more than
//! one unmaintained batch behind the store they read from.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::hash::Hash;

use crate::hierarchy::Threshold;
use crate::query::{Answer, Estimate, Query, QueryError, WindowSpec};
use crate::store::SketchStore;

/// The sliding slice a standing query re-evaluates at every publication:
/// unlike an on-demand [`WindowSpec`], it has no fixed `now` — the view
/// pins `now` to the target sketch's write clock at maintenance time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewWindow {
    /// The last `range` ticks before the sketch's current write clock.
    Time {
        /// Window length in ticks.
        range: u64,
    },
    /// The last `n` arrivals (count-based backends).
    Last {
        /// Window length in arrivals.
        n: u64,
    },
}

impl ViewWindow {
    /// The concrete window at evaluation clock `now`.
    pub fn resolve(&self, now: u64) -> WindowSpec {
        match *self {
            ViewWindow::Time { range } => WindowSpec::time(now, range),
            ViewWindow::Last { n } => WindowSpec::last(n),
        }
    }
}

/// The scalar estimate a threshold view watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarQuery {
    /// Frequency of one item.
    Point {
        /// The watched item.
        item: u64,
    },
    /// Self-join size (F₂) of the window.
    SelfJoin,
    /// Total arrivals in the window.
    Total,
}

impl ScalarQuery {
    /// The equivalent on-demand [`Query`].
    pub fn to_query(&self) -> Query<'static> {
        match *self {
            ScalarQuery::Point { item } => Query::point(item),
            ScalarQuery::SelfJoin => Query::self_join(),
            ScalarQuery::Total => Query::total_arrivals(),
        }
    }

    /// The wire verb (matches the `QUERY` protocol kinds).
    pub fn name(&self) -> &'static str {
        match self {
            ScalarQuery::Point { .. } => "point",
            ScalarQuery::SelfJoin => "self_join",
            ScalarQuery::Total => "total",
        }
    }
}

/// What a standing query computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StandingQuery {
    /// The heavy-hitter set of one key's window (hierarchy specs only).
    HeavyHitters {
        /// The frequency threshold.
        threshold: Threshold,
    },
    /// A scalar estimate watched against a crossing limit.
    Threshold {
        /// The watched estimate.
        query: ScalarQuery,
        /// The crossing limit (`above` flips when the estimate crosses
        /// it).
        limit: f64,
    },
    /// The `k` keys with the most window arrivals across the fleet.
    TopK {
        /// How many keys.
        k: usize,
    },
}

/// A registered standing query: what to compute, against which key (or
/// the whole fleet), over which sliding window.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef<K> {
    /// Registry name (unique per [`ViewSet`]).
    pub name: String,
    /// The target key; `None` for fleet-wide queries ([`StandingQuery::TopK`]).
    pub key: Option<K>,
    /// What to compute.
    pub query: StandingQuery,
    /// The sliding slice to compute it over.
    pub window: ViewWindow,
}

impl<K> ViewDef<K> {
    /// Structural validation: keyed queries need a key, fleet queries must
    /// not have one, and numeric parameters must be in domain.
    ///
    /// # Errors
    /// [`ViewError::Invalid`] naming the violated rule.
    pub fn validate(&self) -> Result<(), ViewError> {
        if self.name.is_empty() {
            return Err(ViewError::Invalid {
                detail: "view name must be non-empty",
            });
        }
        match &self.query {
            StandingQuery::TopK { k } => {
                if self.key.is_some() {
                    return Err(ViewError::Invalid {
                        detail: "topk views are fleet-wide and take no key",
                    });
                }
                if *k == 0 {
                    return Err(ViewError::Invalid {
                        detail: "topk k must be >= 1",
                    });
                }
            }
            StandingQuery::HeavyHitters { .. } | StandingQuery::Threshold { .. } => {
                if self.key.is_none() {
                    return Err(ViewError::Invalid {
                        detail: "keyed views require a key",
                    });
                }
                if let StandingQuery::Threshold { limit, .. } = &self.query {
                    if !limit.is_finite() {
                        return Err(ViewError::Invalid {
                            detail: "threshold limit must be finite",
                        });
                    }
                }
            }
        }
        match self.window {
            ViewWindow::Time { range: 0 } => Err(ViewError::Invalid {
                detail: "time window range must be >= 1",
            }),
            ViewWindow::Last { n: 0 } => Err(ViewError::Invalid {
                detail: "count window length must be >= 1",
            }),
            _ => Ok(()),
        }
    }

    /// The readout/notification kind string for this definition.
    pub fn kind(&self) -> &'static str {
        match self.query {
            StandingQuery::HeavyHitters { .. } => "heavy_hitters",
            StandingQuery::Threshold { .. } => "threshold",
            StandingQuery::TopK { .. } => "topk",
        }
    }

    /// Evaluate this definition on `store` now: the answer and its clock
    /// (the target sketch's write clock; for top-k, the store's largest),
    /// or `None` while the key has no sketch (the store is empty). The one
    /// evaluator: [`ViewSet`] calls it, and a server calls it on a
    /// published snapshot to answer a read wait-free.
    ///
    /// # Errors
    /// [`ViewError::Query`] when the backend rejects the standing query.
    #[allow(clippy::type_complexity)]
    pub fn evaluate(
        &self,
        store: &SketchStore<K>,
    ) -> Result<Option<(ViewAnswer<K>, u64)>, ViewError>
    where
        K: Eq + Hash + Ord + Clone,
    {
        let (query, limit) = match self.query {
            StandingQuery::TopK { k } => {
                let Some(now) = store.iter().map(|(_, s)| s.write_clock()).max() else {
                    return Ok(None);
                };
                let ranking = store.top_k(k, &Query::total_arrivals(), self.window.resolve(now));
                return Ok(Some((ViewAnswer::Ranking(ranking), now)));
            }
            StandingQuery::HeavyHitters { threshold } => (Query::heavy_hitters(threshold), None),
            StandingQuery::Threshold { query, limit } => (query.to_query(), Some(limit)),
        };
        let key = self.key.as_ref().expect("keyed views have a key");
        let Some(sketch) = store.get(key) else {
            return Ok(None);
        };
        let now = sketch.write_clock();
        let answer = sketch
            .query(&query, self.window.resolve(now))
            .map_err(ViewError::Query)?;
        let answer = match (answer, limit) {
            (Answer::HeavyHitters(rows), None) => ViewAnswer::Hitters(rows),
            (Answer::Value(estimate), Some(limit)) => ViewAnswer::Scalar {
                estimate,
                above: estimate.value > limit,
            },
            _ => {
                return Err(ViewError::Invalid {
                    detail: "standing query answer had an unexpected shape",
                })
            }
        };
        Ok(Some((answer, now)))
    }
}

/// Why a view operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// No view of that name is registered.
    Unknown {
        /// The requested name.
        name: String,
    },
    /// A view of that name already exists.
    Duplicate {
        /// The conflicting name.
        name: String,
    },
    /// The definition is structurally invalid.
    Invalid {
        /// The violated rule.
        detail: &'static str,
    },
    /// The view's key has no sketch yet; the view is pending and will
    /// materialize on the key's first write.
    NoData {
        /// The view name.
        name: String,
    },
    /// The backend rejected the standing query (e.g. heavy hitters
    /// without a hierarchy).
    Query(QueryError),
}

impl ViewError {
    /// Short machine-readable code for the JSON `error` field.
    pub fn code(&self) -> &'static str {
        match self {
            ViewError::Unknown { .. } => "unknown_view",
            ViewError::Duplicate { .. } => "duplicate_view",
            ViewError::Invalid { .. } => "bad_view",
            ViewError::NoData { .. } => "view_no_data",
            ViewError::Query(_) => "query",
        }
    }
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Unknown { name } => write!(f, "no view named {name:?}"),
            ViewError::Duplicate { name } => write!(f, "view {name:?} already exists"),
            ViewError::Invalid { detail } => write!(f, "invalid view: {detail}"),
            ViewError::NoData { name } => write!(
                f,
                "view {name:?} has no data yet (its key has never been written)"
            ),
            ViewError::Query(e) => write!(f, "standing query failed: {e}"),
        }
    }
}

impl std::error::Error for ViewError {}

/// A materialized view answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewAnswer<K> {
    /// Heavy-hitter rows, exactly as the on-demand query returns them.
    Hitters(Vec<(u64, Estimate)>),
    /// The watched scalar and which side of the limit it is on.
    Scalar {
        /// The current estimate.
        estimate: Estimate,
        /// Whether the estimate is strictly above the limit.
        above: bool,
    },
    /// The fleet ranking, best first.
    Ranking(Vec<(K, f64)>),
}

impl<K> ViewAnswer<K> {
    /// The readout kind string (mirrors [`ViewDef::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            ViewAnswer::Hitters(_) => "heavy_hitters",
            ViewAnswer::Scalar { .. } => "threshold",
            ViewAnswer::Ranking(_) => "topk",
        }
    }
}

/// One view read: the cached answer, the evaluation clock it was computed
/// at, and the publication sequence it reflects.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewReadout<K> {
    /// The materialized answer.
    pub answer: ViewAnswer<K>,
    /// The sketch write clock the answer was evaluated at — feed it back
    /// into an on-demand query (`time <now> <range>`) to reproduce the
    /// answer bit-for-bit.
    pub now: u64,
    /// Publication sequence: the answer reflects every ingest batch
    /// maintained up to (and including) this sequence number.
    pub seq: u64,
}

/// A notification emitted when a view's answer changed in a way a
/// subscriber cares about ([`ViewEvent::between`] decides which).
#[derive(Debug, Clone, PartialEq)]
pub enum ViewEvent<K> {
    /// A threshold view's estimate crossed its limit (or first
    /// materialized above it).
    ThresholdCrossed {
        /// The view name.
        name: String,
        /// Which side of the limit the estimate is on now.
        above: bool,
        /// The estimate that crossed.
        estimate: Estimate,
        /// Evaluation clock.
        now: u64,
        /// Publication sequence.
        seq: u64,
    },
    /// A heavy-hitters view's set changed.
    HittersChanged {
        /// The view name.
        name: String,
        /// Items that entered the set.
        entered: Vec<u64>,
        /// Items that left the set.
        left: Vec<u64>,
        /// The full new set.
        hitters: Vec<(u64, Estimate)>,
        /// Evaluation clock.
        now: u64,
        /// Publication sequence.
        seq: u64,
    },
    /// A top-k view's membership or order changed.
    RankingChanged {
        /// The view name.
        name: String,
        /// The full new ranking, best first.
        ranking: Vec<(K, f64)>,
        /// Evaluation clock.
        now: u64,
        /// Publication sequence.
        seq: u64,
    },
}

impl<K: Clone + PartialEq> ViewEvent<K> {
    /// The one diff rule: what a subscriber of view `name` hears when its
    /// answer goes from `old` to `new`, evaluated at `now` in publication
    /// `seq`. A threshold view notifies on crossings, a heavy-hitters view
    /// when its item set changes, and a top-k view when its keys or their
    /// order change (a score drift on a stable ranking is noise). `old` is
    /// `None` while the view is pending (never answered), which counts as
    /// below the limit, an empty set or an empty ranking: a first answer
    /// notifies only when it is above the limit or non-empty.
    pub fn between(
        name: &str,
        old: Option<&ViewAnswer<K>>,
        new: &ViewAnswer<K>,
        now: u64,
        seq: u64,
    ) -> Option<ViewEvent<K>> {
        let name = name.to_string();
        match new {
            ViewAnswer::Scalar { estimate, above } => {
                let was = matches!(old, Some(ViewAnswer::Scalar { above: true, .. }));
                (was != *above).then(|| ViewEvent::ThresholdCrossed {
                    name,
                    above: *above,
                    estimate: *estimate,
                    now,
                    seq,
                })
            }
            ViewAnswer::Hitters(hitters) => {
                let items = |rows: &[(u64, Estimate)]| -> BTreeSet<u64> {
                    rows.iter().map(|&(item, _)| item).collect()
                };
                let was = match old {
                    Some(ViewAnswer::Hitters(old)) => items(old),
                    _ => BTreeSet::new(),
                };
                let is = items(hitters);
                (was != is).then(|| ViewEvent::HittersChanged {
                    name,
                    entered: is.difference(&was).copied().collect(),
                    left: was.difference(&is).copied().collect(),
                    hitters: hitters.clone(),
                    now,
                    seq,
                })
            }
            ViewAnswer::Ranking(ranking) => {
                let was: &[(K, f64)] = match old {
                    Some(ViewAnswer::Ranking(old)) => old,
                    _ => &[],
                };
                let same =
                    was.len() == ranking.len() && was.iter().zip(ranking).all(|(a, b)| a.0 == b.0);
                (!same).then(|| ViewEvent::RankingChanged {
                    name,
                    ranking: ranking.clone(),
                    now,
                    seq,
                })
            }
        }
    }

    /// The view this event belongs to.
    pub fn view(&self) -> &str {
        match self {
            ViewEvent::ThresholdCrossed { name, .. }
            | ViewEvent::HittersChanged { name, .. }
            | ViewEvent::RankingChanged { name, .. } => name,
        }
    }
}

/// Materialization state of one view — the partial-state ladder.
#[derive(Debug)]
enum State<K> {
    /// Never requested: maintenance skips it entirely.
    Cold,
    /// Requested but the key had no sketch yet: maintenance materializes
    /// it on the key's first write.
    Pending,
    /// Materialized and maintained.
    Hot { answer: ViewAnswer<K>, now: u64 },
}

#[derive(Debug)]
struct View<K> {
    def: ViewDef<K>,
    state: State<K>,
}

/// A [`ViewSet`]'s maintenance counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewSetStats {
    /// Per-view recomputations performed on the maintenance path since
    /// startup (the incremental-maintenance cost).
    pub maintenance: u64,
}

/// The standing-query registry and maintainer for one [`SketchStore`].
///
/// Single-writer: the store's owner interleaves `maintain`/`refresh`
/// (write path) and `read` (read path); the publication sequence orders
/// them.
#[derive(Debug)]
pub struct ViewSet<K> {
    views: BTreeMap<String, View<K>>,
    /// Publication sequence: bumped by every maintenance round.
    seq: u64,
    /// Store write-stamp watermark already folded into the hot answers.
    watermark: u64,
    /// Cumulative per-view recomputations on the maintenance path.
    maintenance: u64,
}

impl<K> Default for ViewSet<K> {
    fn default() -> Self {
        ViewSet {
            views: BTreeMap::new(),
            seq: 0,
            watermark: 0,
            maintenance: 0,
        }
    }
}

impl<K: Eq + Hash + Ord + Clone> ViewSet<K> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current publication sequence.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The maintenance counter.
    pub fn stats(&self) -> ViewSetStats {
        ViewSetStats {
            maintenance: self.maintenance,
        }
    }

    /// Register a view (cold: it costs nothing until first read).
    ///
    /// # Errors
    /// [`ViewError::Invalid`] or [`ViewError::Duplicate`].
    pub fn create(&mut self, def: ViewDef<K>) -> Result<(), ViewError> {
        def.validate()?;
        if self.views.contains_key(&def.name) {
            return Err(ViewError::Duplicate {
                name: def.name.clone(),
            });
        }
        self.views.insert(
            def.name.clone(),
            View {
                def,
                state: State::Cold,
            },
        );
        Ok(())
    }

    /// Read a view's answer. A cold or pending view is computed here
    /// (first-read materialization) and maintained from then on.
    ///
    /// # Errors
    /// [`ViewError::Unknown`], [`ViewError::NoData`] (the view stays
    /// pending), or [`ViewError::Query`].
    pub fn read(
        &mut self,
        name: &str,
        store: &SketchStore<K>,
    ) -> Result<ViewReadout<K>, ViewError> {
        let seq = self.seq;
        let view = self.views.get_mut(name).ok_or_else(|| ViewError::Unknown {
            name: name.to_string(),
        })?;
        if let State::Hot { answer, now } = &view.state {
            let (answer, now) = (answer.clone(), *now);
            return Ok(ViewReadout { answer, now, seq });
        }
        let Some((answer, now)) = view.def.evaluate(store)? else {
            view.state = State::Pending;
            return Err(ViewError::NoData {
                name: name.to_string(),
            });
        };
        view.state = State::Hot {
            answer: answer.clone(),
            now,
        };
        Ok(ViewReadout { answer, now, seq })
    }

    /// Maintenance round after an applied ingest batch: publish a new
    /// sequence, recompute exactly the hot/pending views whose inputs
    /// changed — keys written since the previous round, read from the
    /// store's write stamps — and report the
    /// changes subscribers should hear about.
    pub fn maintain(&mut self, store: &SketchStore<K>) -> Vec<ViewEvent<K>> {
        self.seq += 1;
        let since = self.watermark;
        self.watermark = store.version();
        if self.views.is_empty() {
            return Vec::new();
        }
        let touched: BTreeSet<&K> = store.written_since(since).into_iter().collect();
        if touched.is_empty() {
            return Vec::new();
        }
        let affected = |def: &ViewDef<K>| match &def.key {
            Some(k) => touched.contains(k),
            None => true,
        };
        self.update_views(store, affected)
    }

    /// Maintenance round after a clock advance (`advance_to`): every hot
    /// and pending view re-evaluates, because window contents slide even
    /// for keys that saw no arrivals.
    pub fn refresh(&mut self, store: &SketchStore<K>) -> Vec<ViewEvent<K>> {
        self.seq += 1;
        self.watermark = store.version();
        self.update_views(store, |_| true)
    }

    /// Eagerly materialize every view that has data (used after a restore:
    /// the answers are rebuilt from the restored sketches rather than
    /// persisted). Views whose key is absent become pending. Emits no
    /// events and publishes no sequence — this is state reconstruction,
    /// not stream progress.
    pub fn rebuild(&mut self, store: &SketchStore<K>) {
        self.watermark = store.version();
        for view in self.views.values_mut() {
            view.state = match view.def.evaluate(store) {
                Ok(Some((answer, now))) => State::Hot { answer, now },
                _ => State::Pending,
            };
        }
    }

    /// Recompute every non-cold view selected by `affected`, diffing old
    /// against new answers into events ([`ViewEvent::between`]).
    fn update_views(
        &mut self,
        store: &SketchStore<K>,
        affected: impl Fn(&ViewDef<K>) -> bool,
    ) -> Vec<ViewEvent<K>> {
        let seq = self.seq;
        let mut events = Vec::new();
        let mut recomputes = 0u64;
        for view in self.views.values_mut() {
            if matches!(view.state, State::Cold) || !affected(&view.def) {
                continue;
            }
            recomputes += 1;
            let Ok(Some((answer, now))) = view.def.evaluate(store) else {
                // Key not resident or the backend rejected the query: fall back
                // to pending and let a later write re-materialize it.
                view.state = State::Pending;
                continue;
            };
            let old = match &view.state {
                State::Hot { answer, .. } => Some(answer),
                _ => None,
            };
            events.extend(ViewEvent::between(&view.def.name, old, &answer, now, seq));
            view.state = State::Hot { answer, now };
        }
        self.maintenance += recomputes;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SketchSpec;
    use crate::sketch::StreamEvent;

    fn store() -> SketchStore<String> {
        SketchStore::new(SketchSpec::time(1_000).epsilon(0.2).seed(7)).unwrap()
    }

    fn batch(key: &str, ts0: u64, items: &[u64]) -> Vec<(String, StreamEvent)> {
        items
            .iter()
            .enumerate()
            .map(|(i, &item)| (key.to_string(), StreamEvent::new(item, ts0 + i as u64)))
            .collect()
    }

    fn threshold_def(name: &str, key: &str, item: u64, limit: f64) -> ViewDef<String> {
        ViewDef {
            name: name.to_string(),
            key: Some(key.to_string()),
            query: StandingQuery::Threshold {
                query: ScalarQuery::Point { item },
                limit,
            },
            window: ViewWindow::Time { range: 1_000 },
        }
    }

    #[test]
    fn cold_views_cost_nothing_until_read() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("t", "a", 1, 2.5)).unwrap();
        store.ingest(&batch("a", 1, &[1, 1, 1]));
        assert!(views.maintain(&store).is_empty());
        assert_eq!(
            views.stats().maintenance,
            0,
            "cold views must not recompute"
        );
        // First read materializes; the answer reflects all prior ingest.
        let readout = views.read("t", &store).unwrap();
        assert!(matches!(
            readout.answer,
            ViewAnswer::Scalar { above: true, .. }
        ));
        assert_eq!(readout.now, 3);
    }

    #[test]
    fn read_is_bit_identical_to_on_demand_at_every_publication() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("t", "a", 7, 4.0)).unwrap();
        let _ = views.read("t", &store); // pending: key not written yet
        for round in 0..5u64 {
            store.ingest(&batch("a", 1 + round * 10, &[7, 7, 3]));
            views.maintain(&store);
            let readout = views.read("t", &store).unwrap();
            let on_demand = store
                .query(
                    &"a".to_string(),
                    &Query::point(7),
                    WindowSpec::time(readout.now, 1_000),
                )
                .unwrap()
                .unwrap();
            let ViewAnswer::Scalar { estimate, .. } = readout.answer else {
                panic!("threshold views answer scalars");
            };
            assert_eq!(Answer::Value(estimate), on_demand);
        }
    }

    #[test]
    fn pending_view_materializes_on_first_write_and_notifies() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("t", "a", 1, 1.5)).unwrap();
        assert!(matches!(
            views.read("t", &store),
            Err(ViewError::NoData { .. })
        ));
        // An unrelated key's write must not materialize it.
        store.ingest(&batch("b", 1, &[1, 1]));
        assert!(views.maintain(&store).is_empty());
        // Its own key's first write does, and the above-limit state
        // notifies immediately.
        store.ingest(&batch("a", 10, &[1, 1, 1]));
        let events = views.maintain(&store);
        assert!(matches!(
            events.as_slice(),
            [ViewEvent::ThresholdCrossed { above: true, .. }]
        ));
    }

    #[test]
    fn threshold_events_fire_only_on_crossings() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("t", "a", 1, 2.5)).unwrap();
        store.ingest(&batch("a", 1, &[1])); // below
        let _ = views.read("t", &store);
        store.ingest(&batch("a", 5, &[1])); // still below
        assert!(views.maintain(&store).is_empty());
        store.ingest(&batch("a", 8, &[1, 1])); // crosses above
        assert_eq!(views.maintain(&store).len(), 1);
        store.ingest(&batch("a", 9, &[1])); // stays above: no event
        assert!(views.maintain(&store).is_empty());
        // The window slides past the old arrivals: refresh sees the drop.
        store.advance_to(2_000);
        let events = views.refresh(&store);
        assert!(matches!(
            events.as_slice(),
            [ViewEvent::ThresholdCrossed { above: false, .. }]
        ));
    }

    #[test]
    fn maintenance_skips_views_of_untouched_keys() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("ta", "a", 1, 0.5)).unwrap();
        views.create(threshold_def("tb", "b", 1, 0.5)).unwrap();
        store.ingest(&batch("a", 1, &[1]));
        views.maintain(&store);
        store.ingest(&batch("b", 1, &[1]));
        views.maintain(&store);
        let _ = views.read("ta", &store);
        let _ = views.read("tb", &store);
        let before = views.stats().maintenance;
        store.ingest(&batch("a", 5, &[1]));
        views.maintain(&store);
        assert_eq!(
            views.stats().maintenance - before,
            1,
            "only the touched key's view recomputes"
        );
    }

    #[test]
    fn rebuild_rematerializes_from_the_store() {
        let mut store = store();
        let mut views = ViewSet::new();
        views.create(threshold_def("t", "a", 1, 0.5)).unwrap();
        store.ingest(&batch("a", 1, &[1, 1]));
        views.rebuild(&store);
        let readout = views.read("t", &store).unwrap();
        assert!(matches!(
            readout.answer,
            ViewAnswer::Scalar { above: true, .. }
        ));
        assert_eq!(
            views.stats().maintenance,
            0,
            "rebuild is reconstruction, not maintenance"
        );
    }

    #[test]
    fn topk_views_span_the_fleet() {
        let mut store = store();
        let mut views = ViewSet::new();
        views
            .create(ViewDef {
                name: "rank".to_string(),
                key: None,
                query: StandingQuery::TopK { k: 2 },
                window: ViewWindow::Time { range: 1_000 },
            })
            .unwrap();
        store.ingest(&batch("a", 1, &[1, 1, 1]));
        store.ingest(&batch("b", 1, &[1]));
        store.ingest(&batch("c", 1, &[1, 1]));
        let readout = views.read("rank", &store).unwrap();
        let ViewAnswer::Ranking(rows) = &readout.answer else {
            panic!("topk views answer rankings");
        };
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "c"]);
        let on_demand = store.top_k(
            2,
            &Query::total_arrivals(),
            WindowSpec::time(readout.now, 1_000),
        );
        assert_eq!(rows, &on_demand);
    }

    #[test]
    fn validation_rejects_malformed_defs() {
        let mut views: ViewSet<String> = ViewSet::new();
        let bad = ViewDef {
            name: "x".to_string(),
            key: Some("k".to_string()),
            query: StandingQuery::TopK { k: 3 },
            window: ViewWindow::Time { range: 100 },
        };
        assert!(matches!(views.create(bad), Err(ViewError::Invalid { .. })));
        let dup = threshold_def("d", "a", 1, 1.0);
        views.create(dup.clone()).unwrap();
        assert!(matches!(
            views.create(dup),
            Err(ViewError::Duplicate { .. })
        ));
    }
}
