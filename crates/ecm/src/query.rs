//! The unified typed query surface for every sketch backend in the
//! workspace.
//!
//! The paper promises one family of ε-approximate sliding-window queries
//! (point, self-join, inner-product, range-sum, heavy hitters, quantiles —
//! §4 and §6) answerable from a local sketch, a dyadic hierarchy, or a
//! merged distributed sketch. This module turns that promise into one
//! contract:
//!
//! * [`WindowSpec`] — *which part of the stream*: a time-based
//!   `(now, range)` pair or a count-based "last N arrivals" horizon.
//! * [`Query`] — *what to compute*, as a typed value with constructor
//!   shorthands ([`Query::point`], [`Query::heavy_hitters`], ...).
//! * [`Estimate`] — *the result*, carrying the point estimate **and** the
//!   (ε, δ) [`Guarantee`] derived from the backend's configuration.
//! * [`SketchReader`] — *who answers*: implemented by
//!   [`crate::EcmSketch`] and [`crate::EcmHierarchy`] on either clock and
//!   (in the `distributed` crate) the tree-aggregation root, so callers
//!   can route the *same* [`Query`] value over interchangeable backends —
//!   the property that makes serving and caching layers composable.
//!
//! Conditions the legacy positional-argument methods silently clamped or
//! panicked on — a query range longer than the configured window, a
//! count-based window asked of a time-based backend, a φ outside its domain
//! — are [`QueryError`]s here.
//!
//! # Example
//!
//! ```
//! use ecm::query::{Query, SketchReader, WindowSpec};
//! use ecm::{SketchSpec, SketchWriter};
//!
//! let mut sk = SketchSpec::time(1_000).seed(1).build().unwrap();
//! for t in 1..=600u64 {
//!     sk.insert(t, t % 3);
//! }
//! let est = sk
//!     .query(&Query::point(2), WindowSpec::time(600, 1_000))
//!     .unwrap()
//!     .into_value();
//! assert!((est.value - 200.0).abs() <= est.guarantee.unwrap().epsilon * 600.0);
//!
//! // Windows wider than the sketch's configuration are errors, not clamps.
//! assert!(sk
//!     .query(&Query::point(2), WindowSpec::time(600, 2_000))
//!     .is_err());
//! ```

use std::any::Any;
use std::fmt;

use crate::api::Clock;
use crate::hierarchy::{EcmHierarchy, Threshold};
use crate::sketch::EcmSketch;
use sliding_window::traits::{WindowCounter, WindowGuarantee};

/// The stream slice a query ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Arrivals with tick in `(now − range, now]` — a time-based window.
    Time {
        /// The query-time "now" tick.
        now: u64,
        /// How far back the query reaches, in ticks.
        range: u64,
    },
    /// The most recent `last_n` arrivals — a count-based window.
    Count {
        /// Number of trailing arrivals.
        last_n: u64,
    },
}

impl WindowSpec {
    /// Time-based window: arrivals with tick in `(now − range, now]`.
    pub fn time(now: u64, range: u64) -> Self {
        WindowSpec::Time { now, range }
    }

    /// Count-based window over the most recent `last_n` arrivals.
    pub fn last(last_n: u64) -> Self {
        WindowSpec::Count { last_n }
    }

    /// Short label used in error messages.
    pub fn clock_name(&self) -> &'static str {
        match self {
            WindowSpec::Time { .. } => "time-based",
            WindowSpec::Count { .. } => "count-based",
        }
    }

    /// Resolve against a backend on `clock`, configured for a `window`
    /// of ticks or arrivals, whose write clock is `write_clock`: yields the
    /// `(now, range)` pair its counters consume. A count window ends at the
    /// write clock, the arrivals so far.
    fn resolve(
        self,
        backend: &'static str,
        clock: Clock,
        window: u64,
        write_clock: u64,
    ) -> Result<(u64, u64), QueryError> {
        let (now, range) = match (self, clock) {
            (WindowSpec::Time { now, range }, Clock::Time) => (now, range),
            (WindowSpec::Count { last_n }, Clock::Count) => (write_clock, last_n),
            _ => {
                return Err(QueryError::ClockMismatch {
                    backend,
                    expected: match clock {
                        Clock::Time => "time-based",
                        Clock::Count => "count-based",
                    },
                    got: self.clock_name(),
                })
            }
        };
        if range > window {
            return Err(QueryError::WindowTooLong {
                requested: range,
                configured: window,
            });
        }
        Ok((now, range))
    }
}

/// A typed sliding-window query.
///
/// Construct via the shorthand constructors; the same value can be routed
/// to any [`SketchReader`] backend. The lifetime parameter only matters for
/// [`Query::inner_product`], which borrows its second operand.
#[derive(Clone, Copy)]
pub enum Query<'a> {
    /// Estimated frequency of one item (paper §4.1, Theorem 1).
    Point {
        /// The queried item.
        item: u64,
    },
    /// Self-join size (second frequency moment F₂) of the window
    /// (paper §4.1, Theorem 2 with `b = a`).
    SelfJoin,
    /// Inner product against another sketch over the same window
    /// (paper §4.1, Theorem 2). The operand must be the same backend type
    /// with a compatible configuration.
    InnerProduct {
        /// The second operand.
        other: &'a dyn SketchReader,
    },
    /// Estimated number of arrivals with key in `[lo, hi]` (paper §6.1;
    /// requires a dyadic hierarchy backend).
    RangeSum {
        /// Lowest key, inclusive.
        lo: u64,
        /// Highest key, inclusive.
        hi: u64,
    },
    /// All keys meeting a frequency threshold, with their estimates
    /// (paper §6.1, Theorem 5 semantics; requires a hierarchy backend).
    HeavyHitters {
        /// Absolute count or relative fraction of the window's arrivals.
        threshold: Threshold,
    },
    /// The smallest key at or above the φ-fraction rank of the window's
    /// arrivals (paper §6.1; requires a hierarchy backend).
    Quantile {
        /// Rank fraction in `(0, 1]`.
        phi: f64,
    },
    /// Estimated total arrivals in the window (paper §6.1: one Count-Min
    /// row's sum).
    TotalArrivals,
}

impl<'a> Query<'a> {
    /// Frequency of `item` in the window.
    pub fn point(item: u64) -> Self {
        Query::Point { item }
    }

    /// Self-join size (F₂) of the window.
    pub fn self_join() -> Self {
        Query::SelfJoin
    }

    /// Inner product against `other` over the same window.
    pub fn inner_product(other: &'a dyn SketchReader) -> Self {
        Query::InnerProduct { other }
    }

    /// Number of arrivals with key in `[lo, hi]`.
    pub fn range_sum(lo: u64, hi: u64) -> Self {
        Query::RangeSum { lo, hi }
    }

    /// Keys meeting `threshold`, with estimates.
    pub fn heavy_hitters(threshold: Threshold) -> Self {
        Query::HeavyHitters { threshold }
    }

    /// The φ-quantile key of the window.
    pub fn quantile(phi: f64) -> Self {
        Query::Quantile { phi }
    }

    /// Total arrivals in the window.
    pub fn total_arrivals() -> Self {
        Query::TotalArrivals
    }

    /// The query's name, used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Query::Point { .. } => "point",
            Query::SelfJoin => "self-join",
            Query::InnerProduct { .. } => "inner-product",
            Query::RangeSum { .. } => "range-sum",
            Query::HeavyHitters { .. } => "heavy-hitters",
            Query::Quantile { .. } => "quantile",
            Query::TotalArrivals => "total-arrivals",
        }
    }
}

impl fmt::Debug for Query<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Point { item } => write!(f, "Point {{ item: {item} }}"),
            Query::SelfJoin => write!(f, "SelfJoin"),
            Query::InnerProduct { other } => {
                write!(f, "InnerProduct {{ other: {} }}", other.backend())
            }
            Query::RangeSum { lo, hi } => write!(f, "RangeSum {{ lo: {lo}, hi: {hi} }}"),
            Query::HeavyHitters { threshold } => {
                write!(f, "HeavyHitters {{ threshold: {threshold:?} }}")
            }
            Query::Quantile { phi } => write!(f, "Quantile {{ phi: {phi} }}"),
            Query::TotalArrivals => write!(f, "TotalArrivals"),
        }
    }
}

/// The accuracy contract attached to an [`Estimate`]: the absolute error is
/// at most `epsilon · N` with probability at least `1 − delta`, where `N`
/// is the number of in-window arrivals (`N²` for self-join / inner-product
/// queries, whose error theorem is quadratic in the stream norm).
///
/// Derived from the backend's construction parameters (Count-Min shape and
/// per-cell window error) via the composition rules of Theorems 1–3, so a
/// *measured* error above `epsilon · N` on a correct implementation is a
/// δ-probability event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    /// Error bound as a fraction of the window's stream norm.
    pub epsilon: f64,
    /// Failure probability of the bound.
    pub delta: f64,
}

/// A point estimate plus its error contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated quantity.
    pub value: f64,
    /// The (ε, δ) contract, or `None` for a sketch whose cell type has no
    /// analytical window guarantee (no spec builds one).
    pub guarantee: Option<Guarantee>,
}

impl Estimate {
    fn new(value: f64, guarantee: Option<Guarantee>) -> Self {
        Estimate { value, guarantee }
    }

    /// The absolute error bound at stream norm `norm` (`ε · norm`), if this
    /// estimate carries a guarantee.
    pub fn absolute_bound(&self, norm: f64) -> Option<f64> {
        self.guarantee.map(|g| g.epsilon * norm)
    }
}

/// Result of a [`SketchReader::query`] call; the variant is determined by
/// the [`Query`] variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Scalar estimate: point, self-join, inner-product, range-sum and
    /// total-arrivals queries.
    Value(Estimate),
    /// Heavy hitters in increasing key order, each with its estimate.
    HeavyHitters(Vec<(u64, Estimate)>),
    /// The quantile key, or `None` when the window is empty.
    Quantile(Option<u64>),
}

impl Answer {
    /// The scalar estimate, if this is a [`Answer::Value`].
    pub fn value(&self) -> Option<f64> {
        match self {
            Answer::Value(e) => Some(e.value),
            _ => None,
        }
    }

    /// The scalar estimate with its guarantee, if this is a value answer.
    pub fn estimate(&self) -> Option<Estimate> {
        match self {
            Answer::Value(e) => Some(*e),
            _ => None,
        }
    }

    /// The heavy-hitter set, if this is a heavy-hitters answer.
    pub fn heavy_hitters(&self) -> Option<&[(u64, Estimate)]> {
        match self {
            Answer::HeavyHitters(v) => Some(v),
            _ => None,
        }
    }

    /// The quantile key, if this is a quantile answer (`None` inside the
    /// option means the window was empty).
    pub fn quantile(&self) -> Option<Option<u64>> {
        match self {
            Answer::Quantile(k) => Some(*k),
            _ => None,
        }
    }

    /// Unwrap a scalar answer.
    ///
    /// # Panics
    /// If this is not a [`Answer::Value`].
    pub fn into_value(self) -> Estimate {
        match self {
            Answer::Value(e) => e,
            other => panic!("expected a scalar answer, got {other:?}"),
        }
    }

    /// Unwrap a heavy-hitters answer.
    ///
    /// # Panics
    /// If this is not a [`Answer::HeavyHitters`].
    pub fn into_heavy_hitters(self) -> Vec<(u64, Estimate)> {
        match self {
            Answer::HeavyHitters(v) => v,
            other => panic!("expected a heavy-hitters answer, got {other:?}"),
        }
    }

    /// Unwrap a quantile answer.
    ///
    /// # Panics
    /// If this is not a [`Answer::Quantile`].
    pub fn into_quantile(self) -> Option<u64> {
        match self {
            Answer::Quantile(k) => k,
            other => panic!("expected a quantile answer, got {other:?}"),
        }
    }
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The window reaches further back than the backend was configured for
    /// — the legacy API silently clamped this.
    WindowTooLong {
        /// Ticks (or arrivals) requested.
        requested: u64,
        /// Ticks (or arrivals) the backend covers.
        configured: u64,
    },
    /// A time-based window was asked of a count-based backend or vice versa.
    ClockMismatch {
        /// The answering backend.
        backend: &'static str,
        /// The clock the backend runs on.
        expected: &'static str,
        /// The clock the window specified.
        got: &'static str,
    },
    /// The backend cannot answer this query type at all (e.g. a range sum
    /// without a dyadic hierarchy).
    Unsupported {
        /// The answering backend.
        backend: &'static str,
        /// The query's [`Query::name`].
        query: &'static str,
        /// What to use instead.
        hint: &'static str,
    },
    /// A binary query's second operand is not a compatible sketch.
    IncompatibleOperand {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A query parameter is outside its domain (e.g. φ ∉ (0, 1]).
    InvalidParameter {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::WindowTooLong {
                requested,
                configured,
            } => write!(
                f,
                "query window of {requested} exceeds the configured window of {configured}"
            ),
            QueryError::ClockMismatch {
                backend,
                expected,
                got,
            } => write!(
                f,
                "{backend} answers {expected} windows, got a {got} window"
            ),
            QueryError::Unsupported {
                backend,
                query,
                hint,
            } => write!(f, "{backend} cannot answer {query} queries; {hint}"),
            QueryError::IncompatibleOperand { detail } => {
                write!(f, "incompatible inner-product operand: {detail}")
            }
            QueryError::InvalidParameter { detail } => {
                write!(f, "invalid query parameter: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A backend that answers typed sliding-window [`Query`]s.
///
/// All implementations answer the *same* query vocabulary with the same
/// [`Answer`] shapes, so callers can hold `&dyn SketchReader` (or a
/// `Box<dyn SketchReader>`) and swap a local sketch for a hierarchy, a
/// count-based sketch, or a distributed aggregate without touching query
/// code.
pub trait SketchReader {
    /// Answer `q` over the stream slice `w`.
    ///
    /// # Errors
    /// [`QueryError`] when the window exceeds the configured length, rides
    /// the wrong clock, or the backend does not support the query type.
    fn query(&self, q: &Query<'_>, w: WindowSpec) -> Result<Answer, QueryError>;

    /// Short backend name used in error messages.
    fn backend(&self) -> &'static str;

    /// Bytes of memory the backend currently holds (cells and hierarchy
    /// levels included) — the sizing signal capacity planners and the
    /// keyed store's [`memory_report`](crate::store::SketchStore::memory_report)
    /// aggregate.
    fn memory_bytes(&self) -> usize;

    /// The backend's write clock: the last tick written (or declared via
    /// `advance_to`) for time-based backends, the total arrivals observed
    /// for count-based ones. 0 when nothing has been written. Snapshot
    /// headers record this so recovery managers can order checkpoints
    /// without decoding payloads.
    fn write_clock(&self) -> u64;

    /// Downcast support for binary queries ([`Query::InnerProduct`]).
    fn as_any(&self) -> &dyn Any;

    /// An upper bound on the scalar [`query`](SketchReader::query) would
    /// answer for `q` over `w`, read without a window estimate — or `None`
    /// when the backend has none, which costs a ranking nothing but speed:
    /// [`SketchStore::top_k`](crate::store::SketchStore::top_k) skips a
    /// sketch only when its bound is below the k-th score so far.
    ///
    /// The ECM-sketch ([`EcmSketch`] on every counter type, and
    /// [`EcmHierarchy`] through its level 0) bounds two cases; every other
    /// backend has none:
    /// - on the time clock, every query over a window `(now − range, now]`
    ///   that starts at or after the write clock, by 0: every arrival it
    ///   holds has a tick at or before the window's start — the bound of a
    ///   key silent for longer than the window. The condition implies
    ///   `now ≥` the clock, so it never reads a window behind the clock;
    /// - [`Query::TotalArrivals`] over exponential histograms, on either
    ///   clock, by one row's held count: every arrival lands in a row once,
    ///   and a window estimate sums a subset of what the cells still hold.
    fn score_bound(&self, _q: &Query<'_>, _w: WindowSpec) -> Option<f64> {
        None
    }
}

/// e / width — the Count-Min hashing error the array's actual width
/// delivers (width was built as ⌈e/ε_cm⌉, so this is at least as tight as
/// the requested ε_cm).
fn cm_epsilon(width: usize) -> f64 {
    std::f64::consts::E / width as f64
}

/// e^{−depth} — the Count-Min failure probability the actual depth
/// delivers.
fn cm_delta(depth: usize) -> f64 {
    (-(depth as f64)).exp()
}

/// Theorem 1 composition: end-to-end ε of a point query from the window
/// error ε_sw and hashing error ε_cm.
fn point_epsilon(esw: f64, ecm: f64) -> f64 {
    esw + ecm + esw * ecm
}

/// Theorem 2 composition: end-to-end ε of self-join / inner-product
/// queries (error measured against the *squared* stream norm).
fn product_epsilon(esw: f64, ecm: f64) -> f64 {
    esw * esw + 2.0 * esw + ecm * (1.0 + esw) * (1.0 + esw)
}

/// The (ε, δ) contracts an ECM-sketch of the given shape and cell
/// configuration delivers, per query class.
#[derive(Debug, Clone, Copy)]
struct SketchGuarantees {
    point: Option<Guarantee>,
    product: Option<Guarantee>,
    total: Option<Guarantee>,
}

impl SketchGuarantees {
    fn derive<W: WindowCounter>(width: usize, depth: usize, cell: &W::Config) -> Self {
        let Some(WindowGuarantee {
            epsilon: esw,
            delta: dsw,
        }) = W::guarantee(cell)
        else {
            return SketchGuarantees {
                point: None,
                product: None,
                total: None,
            };
        };
        let ecm = cm_epsilon(width);
        let dcm = cm_delta(depth);
        // The row-min point estimator reads `depth` cells; its bound needs
        // every one of them to hold, so the per-cell window delta is
        // union-bounded over the rows (only randomized waves have
        // dsw > 0; Theorem 3's δ/2 split already budgets for this).
        let point_delta = (dcm + depth as f64 * dsw).min(1.0);
        // Self-join / inner-product row dots read every cell, so their
        // union bound spans the whole array — vacuous (δ = 1) for
        // randomized waves, which matches the paper: Theorem 2 gives no RW
        // product guarantee (§7.2).
        let product_delta = (dcm + (width * depth) as f64 * dsw).min(1.0);
        SketchGuarantees {
            point: Some(Guarantee {
                epsilon: point_epsilon(esw, ecm),
                delta: point_delta,
            }),
            product: Some(Guarantee {
                epsilon: product_epsilon(esw, ecm),
                delta: product_delta,
            }),
            // Every arrival lands exactly once per row, so one row's sum
            // carries only the window error (paper §6.1). The δ is
            // union-bounded over all w·d cells, which covers the w cells
            // the estimator reads (vacuous for randomized waves; exact
            // for the deterministic counters, whose dsw = 0).
            total: Some(Guarantee {
                epsilon: esw,
                delta: ((width * depth) as f64 * dsw).min(1.0),
            }),
        }
    }

    /// Inflate a point-query contract to a dyadic cover of at most
    /// `2 · bits` components (range sums; paper §6.1).
    fn range_sum(&self, bits: u32) -> Option<Guarantee> {
        self.point.map(|g| Guarantee {
            epsilon: 2.0 * f64::from(bits) * g.epsilon,
            delta: (2.0 * f64::from(bits) * g.delta).min(1.0),
        })
    }
}

fn validate_phi_threshold(threshold: &Threshold) -> Result<(), QueryError> {
    if let Threshold::Relative(phi) = threshold {
        if !(0.0..=1.0).contains(phi) {
            return Err(QueryError::InvalidParameter {
                detail: format!("relative heavy-hitter threshold φ must be in [0,1], got {phi}"),
            });
        }
    }
    Ok(())
}

fn validate_quantile_phi(phi: f64) -> Result<(), QueryError> {
    if !(phi > 0.0 && phi <= 1.0) {
        return Err(QueryError::InvalidParameter {
            detail: format!("quantile φ must be in (0,1], got {phi}"),
        });
    }
    Ok(())
}

fn unsupported(backend: &'static str, q: &Query<'_>, hint: &'static str) -> QueryError {
    QueryError::Unsupported {
        backend,
        query: q.name(),
        hint,
    }
}

/// Resolve a binary query's operand to the backend's own concrete type, or
/// report the mismatch naming both sides.
fn downcast_operand<'a, T: 'static>(
    other: &'a dyn SketchReader,
    backend: &'static str,
) -> Result<&'a T, QueryError> {
    other
        .as_any()
        .downcast_ref::<T>()
        .ok_or_else(|| QueryError::IncompatibleOperand {
            detail: format!("{backend} cannot be paired with {}", other.backend()),
        })
}

impl<W> SketchReader for EcmSketch<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn query(&self, q: &Query<'_>, w: WindowSpec) -> Result<Answer, QueryError> {
        let (now, range) = w.resolve(
            self.backend(),
            self.clock(),
            self.window_len(),
            self.last_tick(),
        )?;
        let g = SketchGuarantees::derive::<W>(self.width(), self.depth(), self.cell_config());
        match *q {
            Query::Point { item } => Ok(Answer::Value(Estimate::new(
                self.point_query(item, now, range),
                g.point,
            ))),
            Query::SelfJoin => Ok(Answer::Value(Estimate::new(
                self.self_join(now, range),
                g.product,
            ))),
            Query::InnerProduct { other } => {
                let other = downcast_operand::<EcmSketch<W>>(other, self.backend())?;
                let value = self.inner_product(other, now, range).map_err(|e| {
                    QueryError::IncompatibleOperand {
                        detail: e.to_string(),
                    }
                })?;
                Ok(Answer::Value(Estimate::new(value, g.product)))
            }
            Query::TotalArrivals => Ok(Answer::Value(Estimate::new(
                self.total_arrivals(now, range),
                g.total,
            ))),
            Query::RangeSum { .. } | Query::HeavyHitters { .. } | Query::Quantile { .. } => {
                Err(unsupported(
                    self.backend(),
                    q,
                    "use an EcmHierarchy over the same stream",
                ))
            }
        }
    }

    fn backend(&self) -> &'static str {
        "EcmSketch"
    }

    fn score_bound(&self, q: &Query<'_>, w: WindowSpec) -> Option<f64> {
        if let (Clock::Time, WindowSpec::Time { now, range }) = (self.clock(), w) {
            if now
                .checked_sub(range)
                .is_some_and(|start| self.last_tick() <= start)
            {
                return Some(0.0);
            }
        }
        match q {
            Query::TotalArrivals => self.arrivals_bound(),
            _ => None,
        }
    }

    fn memory_bytes(&self) -> usize {
        EcmSketch::memory_bytes(self)
    }

    fn write_clock(&self) -> u64 {
        self.last_tick()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl<W> SketchReader for EcmHierarchy<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn query(&self, q: &Query<'_>, w: WindowSpec) -> Result<Answer, QueryError> {
        let level0 = &self.levels()[0];
        let (now, range) = w.resolve(
            self.backend(),
            self.clock(),
            level0.window_len(),
            self.last_tick(),
        )?;
        let g = SketchGuarantees::derive::<W>(level0.width(), level0.depth(), level0.cell_config());
        match *q {
            Query::Point { item } => Ok(Answer::Value(Estimate::new(
                level0.point_query(item, now, range),
                g.point,
            ))),
            Query::SelfJoin => Ok(Answer::Value(Estimate::new(
                level0.self_join(now, range),
                g.product,
            ))),
            Query::InnerProduct { other } => {
                let other = downcast_operand::<EcmHierarchy<W>>(other, self.backend())?;
                let value = level0
                    .inner_product(&other.levels()[0], now, range)
                    .map_err(|e| QueryError::IncompatibleOperand {
                        detail: e.to_string(),
                    })?;
                Ok(Answer::Value(Estimate::new(value, g.product)))
            }
            Query::RangeSum { lo, hi } => {
                if lo > hi {
                    return Err(QueryError::InvalidParameter {
                        detail: format!("range-sum bounds are inverted: [{lo}, {hi}]"),
                    });
                }
                Ok(Answer::Value(Estimate::new(
                    self.range_sum(lo, hi, now, range),
                    g.range_sum(self.bits()),
                )))
            }
            Query::HeavyHitters { threshold } => {
                validate_phi_threshold(&threshold)?;
                let hits = self
                    .heavy_hitters(threshold, now, range)
                    .into_iter()
                    .map(|(k, est)| (k, Estimate::new(est, g.point)))
                    .collect();
                Ok(Answer::HeavyHitters(hits))
            }
            Query::Quantile { phi } => {
                validate_quantile_phi(phi)?;
                Ok(Answer::Quantile(self.quantile(phi, now, range)))
            }
            Query::TotalArrivals => Ok(Answer::Value(Estimate::new(
                self.total_arrivals(now, range),
                g.total,
            ))),
        }
    }

    fn backend(&self) -> &'static str {
        "EcmHierarchy"
    }

    /// Level 0's: the hierarchy's clock, write clock and totals are level
    /// 0's, and no level holds an arrival after that write clock.
    fn score_bound(&self, q: &Query<'_>, w: WindowSpec) -> Option<f64> {
        self.levels()[0].score_bound(q, w)
    }

    fn memory_bytes(&self) -> usize {
        EcmHierarchy::memory_bytes(self)
    }

    fn write_clock(&self) -> u64 {
        self.last_tick()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{SketchSpec, SketchWriter};
    use crate::config::{eh_config, exact_config};
    use crate::sketch::{EcmEh, EcmExact};

    use sliding_window::ExponentialHistogram;

    fn filled_sketch() -> EcmEh {
        let cfg = eh_config(&SketchSpec::time(1_000).seed(3));
        let mut sk = EcmEh::new(&cfg);
        for t in 1..=900u64 {
            sk.insert(t, t % 5);
        }
        sk
    }

    #[test]
    fn window_too_long_is_an_error_not_a_clamp() {
        let sk = filled_sketch();
        let err = sk
            .query(&Query::point(1), WindowSpec::time(900, 1_001))
            .unwrap_err();
        assert_eq!(
            err,
            QueryError::WindowTooLong {
                requested: 1_001,
                configured: 1_000
            }
        );
        assert!(err.to_string().contains("1001"));
        // At exactly the configured window the query succeeds.
        assert!(sk
            .query(&Query::point(1), WindowSpec::time(900, 1_000))
            .is_ok());
    }

    #[test]
    fn clock_mismatch_is_reported_both_ways() {
        let sk = filled_sketch();
        let err = sk
            .query(&Query::point(1), WindowSpec::last(100))
            .unwrap_err();
        assert!(matches!(err, QueryError::ClockMismatch { .. }));

        let cb = SketchSpec::count(100).seed(1).build().unwrap();
        let err = cb
            .query(&Query::point(1), WindowSpec::time(10, 10))
            .unwrap_err();
        assert!(matches!(err, QueryError::ClockMismatch { .. }));
        // A time window past a count clock is an error, not an answer of 0,
        // so it gets no bound of 0 either.
        assert_eq!(
            cb.score_bound(&Query::point(1), WindowSpec::time(10, 10)),
            None
        );
    }

    #[test]
    fn point_estimate_carries_theorem1_guarantee() {
        let sk = filled_sketch();
        let est = sk
            .query(&Query::point(2), WindowSpec::time(900, 1_000))
            .unwrap()
            .into_value();
        let g = est.guarantee.expect("EH sketches have a guarantee");
        // The end-to-end ε must not exceed the builder's target (the
        // actual array is at least as wide as the split demands).
        assert!(g.epsilon <= 0.1 + 1e-9, "epsilon={}", g.epsilon);
        assert!(g.epsilon > 0.0 && g.delta > 0.0 && g.delta < 1.0);
        // And the estimate honors it against the exact count (180).
        assert!((est.value - 180.0).abs() <= g.epsilon * 900.0 + 1.0);
        assert_eq!(est.absolute_bound(900.0), Some(g.epsilon * 900.0));
    }

    #[test]
    fn exact_backend_guarantee_is_hashing_only() {
        let cfg = exact_config(&SketchSpec::time(1_000).seed(3));
        let mut sk = EcmExact::new(&cfg);
        for t in 1..=600u64 {
            sk.insert(t, t % 4);
        }
        let est = sk
            .query(&Query::point(1), WindowSpec::time(600, 500))
            .unwrap()
            .into_value();
        let g = est.guarantee.unwrap();
        // ε_sw = 0: the whole budget is Count-Min hashing error.
        assert!(g.epsilon <= 0.1 + 1e-9);
        // Total arrivals over exact counters is exact.
        let total = sk
            .query(&Query::total_arrivals(), WindowSpec::time(600, 600))
            .unwrap()
            .into_value();
        assert_eq!(total.guarantee.unwrap().epsilon, 0.0);
        assert!((total.value - 600.0).abs() < 1e-9);
    }

    #[test]
    fn unsupported_queries_name_the_alternative() {
        let sk = filled_sketch();
        let err = sk
            .query(&Query::range_sum(0, 10), WindowSpec::time(900, 100))
            .unwrap_err();
        match err {
            QueryError::Unsupported {
                backend,
                query,
                hint,
            } => {
                assert_eq!(backend, "EcmSketch");
                assert_eq!(query, "range-sum");
                assert!(hint.contains("EcmHierarchy"));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn inner_product_downcasts_or_rejects() {
        let a = filled_sketch();
        let b = filled_sketch();
        let w = WindowSpec::time(900, 1_000);
        let ip = a.query(&Query::inner_product(&b), w).unwrap().into_value();
        assert!(ip.value > 0.0);

        // A hierarchy is not a valid operand for a plain sketch.
        let cfg = eh_config(&SketchSpec::time(1_000).seed(3));
        let h: EcmHierarchy<ExponentialHistogram> = EcmHierarchy::new(8, &cfg);
        let err = a.query(&Query::inner_product(&h), w).unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleOperand { .. }));

        // Same type, different seed: the legacy MergeError surfaces as an
        // operand error.
        let cfg2 = eh_config(&SketchSpec::time(1_000).seed(4));
        let mut c = EcmEh::new(&cfg2);
        c.insert(1, 1);
        let err = a.query(&Query::inner_product(&c), w).unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleOperand { .. }));
    }

    #[test]
    fn invalid_parameters_are_errors_not_panics() {
        let cfg = eh_config(&SketchSpec::time(1_000).seed(5));
        let mut h: EcmHierarchy<ExponentialHistogram> = EcmHierarchy::new(8, &cfg);
        for t in 1..=100u64 {
            h.insert(t, t % 16);
        }
        let w = WindowSpec::time(100, 100);
        for bad in [
            Query::quantile(0.0),
            Query::quantile(1.5),
            Query::heavy_hitters(Threshold::Relative(1.5)),
            Query::range_sum(10, 2),
        ] {
            let err = h.query(&bad, w).unwrap_err();
            assert!(
                matches!(err, QueryError::InvalidParameter { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn query_debug_and_names_are_stable() {
        let sk = filled_sketch();
        let q = Query::inner_product(&sk);
        assert_eq!(q.name(), "inner-product");
        assert!(format!("{q:?}").contains("EcmSketch"));
        assert_eq!(Query::point(1).name(), "point");
        assert_eq!(Query::total_arrivals().name(), "total-arrivals");
        assert_eq!(WindowSpec::last(5).clock_name(), "count-based");
    }

    #[test]
    fn guarantees_tighten_with_more_memory() {
        let loose = eh_config(&SketchSpec::time(1_000).epsilon(0.2).seed(1));
        let tight = eh_config(&SketchSpec::time(1_000).epsilon(0.02).seed(1));
        let gl =
            SketchGuarantees::derive::<ExponentialHistogram>(loose.width, loose.depth, &loose.cell);
        let gt =
            SketchGuarantees::derive::<ExponentialHistogram>(tight.width, tight.depth, &tight.cell);
        assert!(gt.point.unwrap().epsilon < gl.point.unwrap().epsilon);
        assert!(gt.product.unwrap().epsilon < gl.product.unwrap().epsilon);
        assert!(gt.point.unwrap().epsilon <= 0.02 + 1e-9);
    }
}
