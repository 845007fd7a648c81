//! The unified typed *write* surface — the construction/ingest counterpart
//! of [`crate::query`].
//!
//! The query module gives every backend one read vocabulary
//! ([`Query`](crate::query::Query) / [`SketchReader`]); this module closes
//! the loop on the other side:
//!
//! * [`SketchWriter`] — one object-safe ingest vocabulary (`insert`,
//!   `insert_weighted`, `ingest_batch`, `advance_to`) implemented by every
//!   backend, so writers no longer need to know which of three per-backend
//!   ingest spellings a type happens to expose.
//! * [`Sketch`] — the combined `SketchReader + SketchWriter` supertrait:
//!   `Box<dyn Sketch>` is a first-class handle that both ingests and
//!   answers queries, which is what registries, serving layers and the
//!   keyed [`SketchStore`](crate::store::SketchStore) hold.
//! * [`SketchSpec`] — a validating builder that replaces per-backend
//!   constructor knowledge (`EcmConfig` flavors) with one declarative
//!   description — clock, window, accuracy, [`Backend`], optional dyadic
//!   hierarchy — and [`build`](SketchSpec::build)s any backend as
//!   `Box<dyn Sketch>`. Every clock × backend × hierarchy combination is
//!   buildable; out-of-domain parameters are [`SpecError`]s, not panics.
//! * [`SpecBackend`] — the typed escape hatch: when code needs a *concrete*
//!   `EcmConfig<W>` (e.g. the `distributed` crate's mergeable site
//!   sketches), the same validated spec materializes it without giving up
//!   static types.
//!
//! # Example
//!
//! ```
//! use ecm::api::{Backend, SketchSpec, SketchWriter};
//! use ecm::query::{Query, SketchReader, WindowSpec};
//!
//! // 0.1-approximate point queries over a 1000-tick window, any backend.
//! let mut sketch = SketchSpec::time(1_000)
//!     .epsilon(0.1)
//!     .delta(0.1)
//!     .seed(7)
//!     .backend(Backend::Eh)
//!     .build()
//!     .unwrap();
//! for t in 1..=600u64 {
//!     sketch.insert(t, t % 3); // timestamp first on the write surface
//! }
//! let est = sketch
//!     .query(&Query::point(2), WindowSpec::time(600, 1_000))
//!     .unwrap()
//!     .into_value();
//! assert!((est.value - 200.0).abs() <= est.guarantee.unwrap().epsilon * 600.0);
//!
//! // Descriptions that cannot be built are errors, not panics.
//! assert!(SketchSpec::time(0).build().is_err());
//! assert!(SketchSpec::count(100).backend(Backend::Ew { buckets: 0 }).build().is_err());
//! ```

use std::fmt;

use crate::config::{EcmBuilder, EcmConfig, QueryKind};
use crate::count_based::{CountBasedEcm, CountBasedHierarchy};
use crate::hierarchy::EcmHierarchy;
use crate::query::SketchReader;
use crate::sketch::{grouped_runs, EcmSketch, StreamEvent};
use sliding_window::traits::WindowCounter;
use sliding_window::{
    DeterministicWave, EquiWidthWindow, ExactWindow, ExponentialHistogram, RandomizedWave,
};

/// The object-safe ingest surface every sketch backend shares.
///
/// Mirrors [`SketchReader`] on the write side: callers hold
/// `&mut dyn SketchWriter` (or a [`Box<dyn Sketch>`](Sketch)) and feed any
/// backend the same way.
///
/// **Argument order:** the write surface is timestamp-first —
/// `insert(ts, item)` — matching the cell-level
/// [`WindowCounter::insert(ts, id)`](sliding_window::traits::WindowCounter::insert)
/// convention. (The concrete backends' inherent methods predate this trait
/// and take `(item, ts)`; the differential suite in `tests/dyn_sketch.rs`
/// pins the two paths to byte-identical results.)
///
/// **Clocks.** Time-based backends interpret `ts` as a tick and require it
/// non-decreasing. Count-based backends own their clock (the arrival
/// index): they ignore `ts` and advance one tick per occurrence, as their
/// inherent `insert(item)` does.
///
/// # Panics
///
/// Write preconditions are the backends' own, and trait dispatch does not
/// soften them: hierarchy backends (built with
/// [`SketchSpec::hierarchy`]) panic on items outside their `2^bits` key
/// universe, and time-based backends debug-assert timestamp monotonicity.
/// Feeding untrusted items into a hierarchy requires masking or validating
/// them upstream.
pub trait SketchWriter {
    /// Record one occurrence of `item` at tick `ts` (ignored by
    /// count-based backends, whose clock is the arrival index).
    fn insert(&mut self, ts: u64, item: u64);

    /// Record `weight` occurrences of `item` at tick `ts`, through the
    /// backend's weighted fast path. Bit-identical to `weight` single
    /// [`insert`](SketchWriter::insert)s (count-based backends advance
    /// their clock by `weight`).
    fn insert_weighted(&mut self, ts: u64, item: u64, weight: u64);

    /// Batched ingest of a timestamp-ordered event slice; runs of adjacent
    /// equal events collapse into weighted updates. Bit-identical to
    /// per-event insertion.
    fn ingest_batch(&mut self, events: &[StreamEvent]);

    /// Declare that the stream clock has reached `ts` with no arrivals:
    /// later inserts must not precede it. A no-op on count-based backends
    /// (their clock only moves on arrivals).
    fn advance_to(&mut self, ts: u64);
}

/// A full-duplex sketch handle: one object that both ingests
/// ([`SketchWriter`]) and answers typed queries ([`SketchReader`]).
///
/// Blanket-implemented, so every type with both halves (plus [`fmt::Debug`]
/// — every backend derives it, and `Result<Box<dyn Sketch>, _>` combinators
/// like `unwrap_err` need it — [`Send`] + [`Sync`], so a sketch or a whole
/// [`SketchStore`](crate::store::SketchStore) can move onto a shard worker
/// thread and a *published* copy of it can be read from many threads at
/// once (see [`crate::publish`]) — and [`CloneSketch`], so a sketch
/// shared with a published snapshot can be copied on write) is a
/// [`Sketch`]; `Box<dyn Sketch>` is the currency of [`SketchSpec::build`]
/// and the keyed store.
pub trait Sketch: SketchReader + SketchWriter + CloneSketch + fmt::Debug + Send + Sync {}

impl<T: SketchReader + SketchWriter + CloneSketch + fmt::Debug + Send + Sync + ?Sized> Sketch
    for T
{
}

/// Object-safe cloning for type-erased sketches: what lets a
/// [`SketchStore`](crate::store::SketchStore) copy a sketch it shares
/// with one of its clones before writing it, so a published clone
/// ([`crate::publish`]) stays immutable. Blanket-implemented for every
/// `Clone` backend; the slab-backed grids (PR 4) make the copy one
/// contiguous `memcpy` per row, not a pointer chase.
pub trait CloneSketch {
    /// A deep copy of this sketch behind a fresh box.
    fn clone_box(&self) -> Box<dyn Sketch>;
}

impl<T> CloneSketch for T
where
    T: SketchReader + SketchWriter + Clone + fmt::Debug + Send + Sync + 'static,
{
    fn clone_box(&self) -> Box<dyn Sketch> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Sketch> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl<W> SketchWriter for EcmSketch<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn insert(&mut self, ts: u64, item: u64) {
        EcmSketch::insert(self, item, ts);
    }

    fn insert_weighted(&mut self, ts: u64, item: u64, weight: u64) {
        EcmSketch::insert_weighted(self, item, ts, weight);
    }

    fn ingest_batch(&mut self, events: &[StreamEvent]) {
        EcmSketch::ingest_batch(self, events);
    }

    fn advance_to(&mut self, ts: u64) {
        EcmSketch::advance_to(self, ts);
    }
}

impl<W> SketchWriter for EcmHierarchy<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn insert(&mut self, ts: u64, item: u64) {
        EcmHierarchy::insert(self, item, ts);
    }

    fn insert_weighted(&mut self, ts: u64, item: u64, weight: u64) {
        EcmHierarchy::insert_weighted(self, item, ts, weight);
    }

    fn ingest_batch(&mut self, events: &[StreamEvent]) {
        EcmHierarchy::ingest_batch(self, events);
    }

    fn advance_to(&mut self, ts: u64) {
        EcmHierarchy::advance_to(self, ts);
    }
}

impl<W> SketchWriter for CountBasedEcm<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn insert(&mut self, _ts: u64, item: u64) {
        CountBasedEcm::insert(self, item);
    }

    fn insert_weighted(&mut self, _ts: u64, item: u64, weight: u64) {
        CountBasedEcm::insert_many(self, item, weight);
    }

    fn ingest_batch(&mut self, events: &[StreamEvent]) {
        // The count-based clock advances per occurrence regardless of the
        // events' timestamps, so grouping by the full (item, ts) pair is
        // still bit-identical to per-event insertion.
        for (e, n) in grouped_runs(events) {
            CountBasedEcm::insert_many(self, e.item, n);
        }
    }

    fn advance_to(&mut self, _ts: u64) {}
}

impl<W> SketchWriter for CountBasedHierarchy<W>
where
    W: WindowCounter + 'static,
    W::Config: 'static,
{
    fn insert(&mut self, _ts: u64, item: u64) {
        CountBasedHierarchy::insert(self, item);
    }

    fn insert_weighted(&mut self, _ts: u64, item: u64, weight: u64) {
        CountBasedHierarchy::insert_many(self, item, weight);
    }

    fn ingest_batch(&mut self, events: &[StreamEvent]) {
        for (e, n) in grouped_runs(events) {
            CountBasedHierarchy::insert_many(self, e.item, n);
        }
    }

    fn advance_to(&mut self, _ts: u64) {}
}

/// Which synopsis fills the sketch's cells — the backend axis of a
/// [`SketchSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Exponential histograms — the paper's default (ECM-EH).
    Eh,
    /// Deterministic waves (ECM-DW).
    Dw,
    /// Randomized waves (ECM-RW) — losslessly mergeable.
    Rw,
    /// Exact window counters — zero window error, same API.
    Exact,
    /// Equi-width sub-window baseline — **no window-error guarantee**; the
    /// window is cut into `buckets` equal sub-windows per cell.
    Ew {
        /// Sub-windows per cell.
        buckets: usize,
    },
}

impl Backend {
    /// Short label used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Eh => "eh",
            Backend::Dw => "dw",
            Backend::Rw => "rw",
            Backend::Exact => "exact",
            Backend::Ew { .. } => "equi-width",
        }
    }
}

/// Which clock the sketch's window rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Tick-addressed: the window covers the last `window` ticks.
    Time,
    /// Arrival-addressed: the window covers the last `window` arrivals.
    Count,
}

/// Why a [`SketchSpec`] could not be validated or built.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The window must cover at least one tick/arrival.
    ZeroWindow,
    /// ε must lie in (0, 1).
    InvalidEpsilon {
        /// The rejected value.
        got: f64,
    },
    /// δ must lie in (0, 1).
    InvalidDelta {
        /// The rejected value.
        got: f64,
    },
    /// Hierarchy bits must lie in [1, 63].
    InvalidBits {
        /// The rejected value.
        got: u32,
    },
    /// A numeric parameter is outside its domain.
    InvalidParameter {
        /// What was wrong.
        detail: String,
    },
    /// A typed-config request ([`SketchSpec::ecm_config`]) does not match
    /// the spec's declared backend.
    BackendMismatch {
        /// The backend the spec declares.
        spec: &'static str,
        /// The counter type the caller asked for.
        requested: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroWindow => write!(f, "window must cover at least one tick or arrival"),
            SpecError::InvalidEpsilon { got } => {
                write!(f, "epsilon must be in (0,1), got {got}")
            }
            SpecError::InvalidDelta { got } => write!(f, "delta must be in (0,1), got {got}"),
            SpecError::InvalidBits { got } => {
                write!(f, "hierarchy bits must be in [1,63], got {got}")
            }
            SpecError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            SpecError::BackendMismatch { spec, requested } => write!(
                f,
                "spec declares the {spec} backend but a {requested} config was requested"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative, validating description of a sketch: clock, window,
/// accuracy targets, [`Backend`], and an optional dyadic hierarchy. One
/// spec [`build`](SketchSpec::build)s any backend as a
/// [`Box<dyn Sketch>`](Sketch) — the write-side analogue of routing one
/// [`Query`](crate::query::Query) value over interchangeable readers.
///
/// ```
/// use ecm::api::{Backend, SketchSpec};
/// use ecm::query::{Query, SketchReader, WindowSpec};
/// use ecm::api::SketchWriter;
///
/// // Heavy hitters over the last 2000 *arrivals*: a count-based clock
/// // under an 8-bit dyadic hierarchy.
/// let mut hot = SketchSpec::count(2_000)
///     .epsilon(0.05)
///     .delta(0.05)
///     .hierarchy(8)
///     .build()
///     .unwrap();
/// for i in 0..6_000u64 {
///     hot.insert(i, if i % 3 == 0 { 42 } else { i % 200 });
/// }
/// let hits = hot
///     .query(
///         &Query::heavy_hitters(ecm::Threshold::Relative(0.2)),
///         WindowSpec::last(2_000),
///     )
///     .unwrap()
///     .into_heavy_hitters();
/// assert!(hits.iter().any(|&(k, _)| k == 42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSpec {
    // Fields are crate-visible so the snapshot codec (`crate::snapshot`)
    // can serialize a spec header without widening the public surface.
    pub(crate) clock: Clock,
    pub(crate) window: u64,
    pub(crate) epsilon: f64,
    pub(crate) delta: f64,
    pub(crate) backend: Backend,
    pub(crate) query_kind: QueryKind,
    pub(crate) seed: u64,
    pub(crate) max_arrivals: Option<u64>,
    pub(crate) hierarchy_bits: Option<u32>,
}

impl SketchSpec {
    fn new(clock: Clock, window: u64) -> Self {
        SketchSpec {
            clock,
            window,
            epsilon: 0.1,
            delta: 0.1,
            backend: Backend::Eh,
            query_kind: QueryKind::Point,
            seed: 0,
            max_arrivals: None,
            hierarchy_bits: None,
        }
    }

    /// A time-based window of `window` ticks (ε = δ = 0.1, ECM-EH backend,
    /// seed 0 until overridden).
    pub fn time(window: u64) -> Self {
        SketchSpec::new(Clock::Time, window)
    }

    /// A count-based window of the last `window` arrivals.
    pub fn count(window: u64) -> Self {
        SketchSpec::new(Clock::Count, window)
    }

    /// Target end-to-end relative error (default 0.1).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Failure probability of the error bound (default 0.1).
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Which synopsis fills the cells (default [`Backend::Eh`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Which query class the ε-split optimizes for (default point queries).
    pub fn query_kind(mut self, q: QueryKind) -> Self {
        self.query_kind = q;
        self
    }

    /// Hash seed (default 0). Sketches merge/pair only when seeds match.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Upper bound on arrivals per window, sizing the wave variants' level
    /// pyramids (default: the window length).
    pub fn max_arrivals(mut self, u: u64) -> Self {
        self.max_arrivals = Some(u);
        self
    }

    /// Stack the sketch into a dyadic hierarchy over a `bits`-bit key
    /// universe, unlocking range-sum / heavy-hitter / quantile queries.
    /// Hierarchy writes **panic** on items outside the universe (see the
    /// [`SketchWriter`] panics section); mask or validate untrusted items
    /// upstream.
    pub fn hierarchy(mut self, bits: u32) -> Self {
        self.hierarchy_bits = Some(bits);
        self
    }

    /// The spec's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The spec's window length (ticks or arrivals).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The spec's declared backend.
    pub fn declared_backend(&self) -> Backend {
        self.backend
    }

    /// The dyadic-hierarchy width in bits, if the spec stacks one. Serving
    /// layers use this to validate untrusted items *before* ingest — a
    /// hierarchy write panics on items outside its `2^bits` universe.
    pub fn hierarchy_bits(&self) -> Option<u32> {
        self.hierarchy_bits
    }

    /// Check every parameter's domain without building anything. Every
    /// clock × backend × hierarchy combination is valid, so this is the
    /// only way a spec can fail to build.
    ///
    /// # Errors
    /// The first out-of-domain parameter's [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.window == 0 {
            return Err(SpecError::ZeroWindow);
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SpecError::InvalidEpsilon { got: self.epsilon });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(SpecError::InvalidDelta { got: self.delta });
        }
        if let Some(bits) = self.hierarchy_bits {
            if bits == 0 || bits > 63 {
                return Err(SpecError::InvalidBits { got: bits });
            }
        }
        if self.max_arrivals == Some(0) {
            return Err(SpecError::InvalidParameter {
                detail: "max_arrivals must be positive".into(),
            });
        }
        if let Backend::Ew { buckets } = self.backend {
            if buckets == 0 {
                return Err(SpecError::InvalidParameter {
                    detail: "equi-width backend needs at least one bucket".into(),
                });
            }
        }
        Ok(())
    }

    /// The `EcmBuilder` this spec's accuracy targets resolve to.
    fn ecm_builder(&self) -> EcmBuilder {
        let mut b = EcmBuilder::new(self.epsilon, self.delta, self.window)
            .query_kind(self.query_kind)
            .seed(self.seed);
        if let Some(u) = self.max_arrivals {
            b = b.max_arrivals(u);
        }
        b
    }

    /// Materialize the concrete [`EcmConfig`] for counter type `W`, for
    /// callers that need static types (mergeable site sketches in the
    /// `distributed` crate, hand-rolled baselines in benches). The spec is
    /// validated first, and `W` must agree with the declared backend so one
    /// spec cannot silently describe two different sketches.
    ///
    /// # Errors
    /// Any validation error, or [`SpecError::BackendMismatch`].
    pub fn ecm_config<W: SpecBackend>(&self) -> Result<EcmConfig<W>, SpecError> {
        self.validate()?;
        W::ecm_config(self)
    }

    /// Build the described sketch as a [`Box<dyn Sketch>`](Sketch).
    ///
    /// # Errors
    /// Any [`validate`](Self::validate) error.
    pub fn build(&self) -> Result<Box<dyn Sketch>, SpecError> {
        self.validate()?;
        match self.backend {
            Backend::Eh => self.assemble(self.ecm_builder().eh_config()),
            Backend::Dw => self.assemble(self.ecm_builder().dw_config()),
            Backend::Rw => self.assemble(self.ecm_builder().rw_config()),
            Backend::Exact => self.assemble(self.ecm_builder().exact_config()),
            Backend::Ew { buckets } => self.assemble(self.ecm_builder().ew_config(buckets)),
        }
    }

    /// Dispatch a validated, typed config over the structural axes
    /// (clock × hierarchy).
    fn assemble<W>(&self, cfg: EcmConfig<W>) -> Result<Box<dyn Sketch>, SpecError>
    where
        W: WindowCounter + fmt::Debug + 'static,
        W::Config: 'static,
    {
        Ok(match (self.clock, self.hierarchy_bits) {
            (Clock::Time, None) => Box::new(EcmSketch::new(&cfg)),
            (Clock::Time, Some(bits)) => Box::new(EcmHierarchy::new(bits, &cfg)),
            (Clock::Count, None) => Box::new(CountBasedEcm::new(&cfg)),
            (Clock::Count, Some(bits)) => Box::new(CountBasedHierarchy::new(bits, &cfg)),
        })
    }
}

/// Counter types a [`SketchSpec`] can materialize a typed
/// [`EcmConfig`] for — the bridge between the runtime [`Backend`] value and
/// compile-time `EcmSketch<W>` construction (used by the `distributed`
/// crate's merge paths, which need concrete types).
pub trait SpecBackend: WindowCounter + Sized {
    /// The [`Backend`] label this counter type corresponds to.
    const NAME: &'static str;

    /// Derive the typed config from an already-validated spec.
    ///
    /// # Errors
    /// [`SpecError::BackendMismatch`] when the spec declares a different
    /// backend.
    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError>;
}

fn check_backend(
    spec: &SketchSpec,
    expected: Backend,
    name: &'static str,
) -> Result<(), SpecError> {
    // Ew carries a parameter; compare discriminants only for it.
    let matches = match (spec.backend, expected) {
        (Backend::Ew { .. }, Backend::Ew { .. }) => true,
        (a, b) => a == b,
    };
    if matches {
        Ok(())
    } else {
        Err(SpecError::BackendMismatch {
            spec: spec.backend.name(),
            requested: name,
        })
    }
}

impl SpecBackend for ExponentialHistogram {
    const NAME: &'static str = "eh";

    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError> {
        check_backend(spec, Backend::Eh, Self::NAME)?;
        Ok(spec.ecm_builder().eh_config())
    }
}

impl SpecBackend for DeterministicWave {
    const NAME: &'static str = "dw";

    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError> {
        check_backend(spec, Backend::Dw, Self::NAME)?;
        Ok(spec.ecm_builder().dw_config())
    }
}

impl SpecBackend for RandomizedWave {
    const NAME: &'static str = "rw";

    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError> {
        check_backend(spec, Backend::Rw, Self::NAME)?;
        Ok(spec.ecm_builder().rw_config())
    }
}

impl SpecBackend for ExactWindow {
    const NAME: &'static str = "exact";

    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError> {
        check_backend(spec, Backend::Exact, Self::NAME)?;
        Ok(spec.ecm_builder().exact_config())
    }
}

impl SpecBackend for EquiWidthWindow {
    const NAME: &'static str = "equi-width";

    fn ecm_config(spec: &SketchSpec) -> Result<EcmConfig<Self>, SpecError> {
        check_backend(spec, Backend::Ew { buckets: 1 }, Self::NAME)?;
        let Backend::Ew { buckets } = spec.backend else {
            unreachable!("check_backend matched Ew");
        };
        Ok(spec.ecm_builder().ew_config(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, WindowSpec};

    #[test]
    fn every_backend_builds_and_round_trips_a_point_query() {
        let specs = [
            SketchSpec::time(1_000).backend(Backend::Eh),
            SketchSpec::time(1_000).backend(Backend::Dw),
            SketchSpec::time(1_000)
                .backend(Backend::Rw)
                .epsilon(0.25)
                .max_arrivals(5_000),
            SketchSpec::time(1_000).backend(Backend::Exact),
            SketchSpec::time(1_000).backend(Backend::Ew { buckets: 10 }),
            SketchSpec::time(1_000).hierarchy(8),
            SketchSpec::count(1_000),
            SketchSpec::count(1_000).hierarchy(8),
        ];
        for (i, spec) in specs.iter().enumerate() {
            let mut sk = spec.build().unwrap_or_else(|e| panic!("spec {i}: {e}"));
            for t in 1..=300u64 {
                sk.insert(t, t % 16);
            }
            let w = match spec.clock() {
                Clock::Time => WindowSpec::time(300, 1_000),
                Clock::Count => WindowSpec::last(300),
            };
            let est = sk
                .query(&Query::point(3), w)
                .unwrap_or_else(|e| panic!("spec {i}: {e}"))
                .into_value();
            assert!(est.value > 0.0, "spec {i}: estimate must see key 3");
        }
    }

    #[test]
    fn validation_rejects_domain_errors() {
        assert_eq!(
            SketchSpec::time(0).validate().unwrap_err(),
            SpecError::ZeroWindow
        );
        assert!(matches!(
            SketchSpec::time(10).epsilon(1.0).validate().unwrap_err(),
            SpecError::InvalidEpsilon { .. }
        ));
        assert!(matches!(
            SketchSpec::time(10).delta(0.0).validate().unwrap_err(),
            SpecError::InvalidDelta { .. }
        ));
        assert!(matches!(
            SketchSpec::time(10).hierarchy(0).validate().unwrap_err(),
            SpecError::InvalidBits { got: 0 }
        ));
        assert!(matches!(
            SketchSpec::time(10).hierarchy(64).validate().unwrap_err(),
            SpecError::InvalidBits { got: 64 }
        ));
        assert!(matches!(
            SketchSpec::time(10)
                .backend(Backend::Ew { buckets: 0 })
                .validate()
                .unwrap_err(),
            SpecError::InvalidParameter { .. }
        ));
        assert!(matches!(
            SketchSpec::time(10).max_arrivals(0).validate().unwrap_err(),
            SpecError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn every_clock_backend_hierarchy_combination_builds_and_round_trips() {
        let backends = [
            Backend::Eh,
            Backend::Dw,
            Backend::Rw,
            Backend::Exact,
            Backend::Ew { buckets: 4 },
        ];
        let mut built = 0;
        for base in [SketchSpec::time(1_000), SketchSpec::count(1_000)] {
            for backend in backends {
                for bits in [None, Some(8)] {
                    let mut spec = base.clone().epsilon(0.25).max_arrivals(5_000);
                    spec.backend = backend;
                    spec.hierarchy_bits = bits;
                    let label = format!("{:?} {} {bits:?}", spec.clock, backend.name());
                    spec.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
                    let mut sk = spec.build().unwrap_or_else(|e| panic!("{label}: {e}"));
                    for t in 1..=300u64 {
                        sk.insert(t, t % 16);
                    }
                    let bytes = spec.snapshot(&*sk).unwrap();
                    let restored = spec.restore(&bytes).unwrap();
                    let w = match spec.clock {
                        Clock::Time => WindowSpec::time(300, 1_000),
                        Clock::Count => WindowSpec::last(300),
                    };
                    let [a, b] = [&*sk, &*restored]
                        .map(|s| s.query(&Query::point(3), w).unwrap().into_value().value);
                    assert!(a > 0.0, "{label}: estimate must see key 3");
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: restored");
                    built += 1;
                }
            }
        }
        assert_eq!(built, 20);
    }

    #[test]
    fn typed_configs_match_the_builder_and_check_the_backend() {
        let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(5);
        let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
        let direct = EcmBuilder::new(0.1, 0.1, 1_000).seed(5).eh_config();
        assert_eq!(cfg.width, direct.width);
        assert_eq!(cfg.depth, direct.depth);
        assert_eq!(cfg.seed, direct.seed);

        let err = spec.ecm_config::<DeterministicWave>().unwrap_err();
        assert!(matches!(err, SpecError::BackendMismatch { .. }));
        assert!(err.to_string().contains("dw"));
    }

    #[test]
    fn spec_errors_display_their_cause() {
        let msgs = [
            SpecError::ZeroWindow.to_string(),
            SpecError::InvalidEpsilon { got: 2.0 }.to_string(),
            SpecError::InvalidBits { got: 99 }.to_string(),
        ];
        assert!(msgs[0].contains("window"));
        assert!(msgs[1].contains("2"));
        assert!(msgs[2].contains("99"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn insert_before_an_advanced_clock_is_rejected() {
        let mut sk = crate::EcmEh::new(&EcmBuilder::new(0.1, 0.1, 100).eh_config());
        sk.advance_to(50);
        // The advance is binding: an earlier tick is a contract violation,
        // not a silent clock rewind.
        sk.insert(5, 1);
    }

    #[test]
    fn advance_to_moves_the_write_clock_without_arrivals() {
        let mut sk = SketchSpec::time(100).build().unwrap();
        sk.insert(10, 1);
        sk.advance_to(50);
        sk.insert(50, 1); // same tick as the advance: still monotone
        let est = sk
            .query(&Query::point(1), WindowSpec::time(50, 100))
            .unwrap()
            .into_value();
        assert!(est.value >= 2.0);
    }
}
