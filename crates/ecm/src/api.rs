//! The unified typed *write* surface — the construction/ingest counterpart
//! of [`crate::query`].
//!
//! The query module gives every backend one read vocabulary
//! ([`Query`](crate::query::Query) / [`SketchReader`]); this module closes
//! the loop on the other side:
//!
//! * [`SketchWriter`] — the one object-safe ingest vocabulary, implemented
//!   by every backend: a single checked entry
//!   ([`try_insert_weighted`](SketchWriter::try_insert_weighted), refusing
//!   a write with a typed [`WriteError`] and leaving the sketch untouched)
//!   plus `advance_to`; `insert`, `insert_weighted` and `ingest_batch` are
//!   provided on top of the entry, so every write crosses the same check.
//! * [`Sketch`] — the combined `SketchReader + SketchWriter` supertrait:
//!   `Box<dyn Sketch>` is a first-class handle that both ingests and
//!   answers queries, which is what registries, serving layers and the
//!   keyed [`SketchStore`](crate::store::SketchStore) hold.
//! * [`SketchSpec`] — the one constructor: a validating, declarative
//!   description — clock, window, accuracy, [`Backend`], optional dyadic
//!   hierarchy — that [`build`](SketchSpec::build)s any backend as
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
//! assert!(SketchSpec::count(100).max_arrivals(0).build().is_err());
//! ```

use std::fmt;

use crate::config::{self, EcmConfig, QueryKind};
use crate::hierarchy::EcmHierarchy;
use crate::query::SketchReader;
use crate::sketch::{grouped_runs, EcmSketch, StreamEvent};
use sliding_window::traits::WindowCounter;
use sliding_window::{DeterministicWave, ExactWindow, ExponentialHistogram, RandomizedWave};

/// Why a write was refused. A refused write leaves the sketch exactly as it
/// was: no cell, clock or arrival counter moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The tick precedes the sketch's write clock (the last tick written or
    /// declared through [`SketchWriter::advance_to`]). A time-based cell
    /// synopsis must see its ticks in order for its error bound to hold.
    StaleTimestamp {
        /// The refused tick.
        ts: u64,
        /// The write clock it precedes.
        clock: u64,
    },
    /// The item lies outside a dyadic hierarchy's `2^bits` key universe.
    OutOfUniverse {
        /// The refused item.
        item: u64,
        /// The universe width in bits.
        bits: u32,
    },
}

impl WriteError {
    /// The timestamp precondition of every time-based write, in one place:
    /// `ts` may equal the write clock but not precede it
    /// ([`WriteError::StaleTimestamp`] otherwise).
    #[inline]
    pub fn check_tick(ts: u64, clock: u64) -> Result<(), WriteError> {
        if ts < clock {
            Err(WriteError::StaleTimestamp { ts, clock })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::StaleTimestamp { ts, clock } => write!(
                f,
                "tick {ts} precedes the write clock {clock} (ticks must be non-decreasing)"
            ),
            WriteError::OutOfUniverse { item, bits } => {
                write!(f, "item {item} outside the {bits}-bit hierarchy universe")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// The object-safe ingest surface every sketch backend shares, and the only
/// write vocabulary the library has: callers hold `&mut dyn SketchWriter`
/// (or a [`Box<dyn Sketch>`](Sketch)) and feed any backend the same way,
/// timestamp first (`insert(ts, item)`), as the cell-level
/// [`WindowCounter::insert(ts, id)`](sliding_window::traits::WindowCounter::insert).
/// A backend implements the one checked entry
/// [`try_insert_weighted`](Self::try_insert_weighted) and
/// [`advance_to`](Self::advance_to); the other writes are provided on the
/// entry, so every write crosses the same precondition check.
///
/// **Clocks.** A sketch on the time clock interprets `ts` as a tick and
/// refuses one that precedes its write clock
/// ([`WriteError::StaleTimestamp`], checked in release builds too). A
/// sketch on the count clock owns its clock (the arrival index): it ignores
/// `ts`, advances one tick per occurrence and never reports a stale write.
///
/// # Panics
///
/// [`insert`](Self::insert), [`insert_weighted`](Self::insert_weighted) and
/// [`ingest_batch`](Self::ingest_batch) panic on a write the entry refuses:
/// a tick before the write clock, or (for hierarchy backends built with
/// [`SketchSpec::hierarchy`]) an item outside the `2^bits` key universe.
/// Callers feeding untrusted ticks or items use
/// [`try_insert_weighted`](Self::try_insert_weighted) instead.
pub trait SketchWriter {
    /// Record `weight` occurrences of `item` at tick `ts` through the
    /// backend's weighted fast path — bit-identical to `weight` single
    /// occurrences (a count clock advances by `weight`).
    /// A zero weight records nothing.
    ///
    /// # Errors
    /// [`WriteError`] when the write breaks the backend's precondition; the
    /// sketch is then unchanged.
    fn try_insert_weighted(&mut self, ts: u64, item: u64, weight: u64) -> Result<(), WriteError>;

    /// Declare that the stream clock has reached `ts` with no arrivals:
    /// later writes must not precede it. A no-op on the count clock, which
    /// only arrivals move.
    fn advance_to(&mut self, ts: u64);

    /// Record one occurrence of `item` at tick `ts`; panics on a
    /// [`WriteError`] (see the [trait docs](SketchWriter#panics)).
    fn insert(&mut self, ts: u64, item: u64) {
        self.insert_weighted(ts, item, 1);
    }

    /// [`try_insert_weighted`](Self::try_insert_weighted) for trusted ticks
    /// and items; panics on a [`WriteError`].
    fn insert_weighted(&mut self, ts: u64, item: u64, weight: u64) {
        if let Err(e) = self.try_insert_weighted(ts, item, weight) {
            panic!("{e}");
        }
    }

    /// Batched ingest of a timestamp-ordered event slice; runs of adjacent
    /// equal events collapse into weighted updates, bit-identical to
    /// per-event insertion. Panics on a [`WriteError`].
    fn ingest_batch(&mut self, events: &[StreamEvent]) {
        for (e, n) in grouped_runs(events) {
            self.insert_weighted(e.ts, e.item, n);
        }
    }
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

impl<W: WindowCounter> SketchWriter for EcmSketch<W> {
    fn try_insert_weighted(&mut self, ts: u64, item: u64, weight: u64) -> Result<(), WriteError> {
        match self.clock() {
            Clock::Time => {
                self.check(ts)?;
                self.record(ts, item, weight);
            }
            Clock::Count => self.record_arrivals(item, weight),
        }
        Ok(())
    }

    fn advance_to(&mut self, ts: u64) {
        self.advance_clock(ts);
    }
}

impl<W: WindowCounter> SketchWriter for EcmHierarchy<W> {
    fn try_insert_weighted(&mut self, ts: u64, item: u64, weight: u64) -> Result<(), WriteError> {
        self.check(item)?;
        match self.clock() {
            Clock::Time => {
                // Every level sees the same stream, so level 0's clock is
                // theirs.
                self.levels()[0].check(ts)?;
                self.record(ts, item, weight);
            }
            Clock::Count => self.record_arrivals(item, weight),
        }
        Ok(())
    }

    fn advance_to(&mut self, ts: u64) {
        self.advance_clock(ts);
    }
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
}

impl Backend {
    /// Short label used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Eh => "eh",
            Backend::Dw => "dw",
            Backend::Rw => "rw",
            Backend::Exact => "exact",
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
    /// Hierarchy writes refuse items outside the universe with
    /// [`WriteError::OutOfUniverse`] (and the panicking writes panic on
    /// them; see the [`SketchWriter`] panics section).
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
    /// hierarchy refuses items outside its `2^bits` universe.
    pub fn hierarchy_bits(&self) -> Option<u32> {
        self.hierarchy_bits
    }

    /// The differential suites' spec matrix: one labelled row per
    /// clock × backend × hierarchy shape the library builds, all over a
    /// `window` of the caller's choosing. Test support, not API: the rows'
    /// accuracy targets are picked to keep the suites fast.
    #[doc(hidden)]
    pub fn matrix(window: u64) -> [(&'static str, SketchSpec); 7] {
        let time = SketchSpec::time(window).epsilon(0.2).seed(3);
        let count = SketchSpec::count(window).epsilon(0.2).seed(3);
        let rw = time
            .clone()
            .backend(Backend::Rw)
            .epsilon(0.3)
            .delta(0.2)
            .max_arrivals(10 * window);
        [
            ("eh", time.clone()),
            ("dw", time.clone().backend(Backend::Dw)),
            ("rw", rw),
            ("exact", time.clone().backend(Backend::Exact)),
            ("hierarchy", time.hierarchy(8)),
            ("count", count.clone()),
            ("count-hierarchy", count.hierarchy(8)),
        ]
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
        Ok(())
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
        W::derive(self).ok_or(SpecError::BackendMismatch {
            spec: self.backend.name(),
            requested: W::NAME,
        })
    }

    /// Build the described sketch as a [`Box<dyn Sketch>`](Sketch).
    ///
    /// # Errors
    /// Any [`validate`](Self::validate) error.
    pub fn build(&self) -> Result<Box<dyn Sketch>, SpecError> {
        self.validate()?;
        match self.backend {
            Backend::Eh => self.assemble(config::eh_config(self)),
            Backend::Dw => self.assemble(config::dw_config(self)),
            Backend::Rw => self.assemble(config::rw_config(self)),
            Backend::Exact => self.assemble(config::exact_config(self)),
        }
    }

    /// Build a validated, typed config as a plain sketch or a hierarchy on
    /// the spec's clock.
    fn assemble<W>(&self, cfg: EcmConfig<W>) -> Result<Box<dyn Sketch>, SpecError>
    where
        W: WindowCounter + fmt::Debug + 'static,
        W::Config: 'static,
    {
        Ok(match self.hierarchy_bits {
            None => Box::new(EcmSketch::new(&cfg).on_clock(self.clock)),
            Some(bits) => Box::new(EcmHierarchy::new(bits, &cfg).on_clock(self.clock)),
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

    /// The typed config of an already-validated spec, or `None` when the
    /// spec declares another backend.
    fn derive(spec: &SketchSpec) -> Option<EcmConfig<Self>>;
}

impl SpecBackend for ExponentialHistogram {
    const NAME: &'static str = "eh";

    fn derive(spec: &SketchSpec) -> Option<EcmConfig<Self>> {
        (spec.backend == Backend::Eh).then(|| config::eh_config(spec))
    }
}

impl SpecBackend for DeterministicWave {
    const NAME: &'static str = "dw";

    fn derive(spec: &SketchSpec) -> Option<EcmConfig<Self>> {
        (spec.backend == Backend::Dw).then(|| config::dw_config(spec))
    }
}

impl SpecBackend for RandomizedWave {
    const NAME: &'static str = "rw";

    fn derive(spec: &SketchSpec) -> Option<EcmConfig<Self>> {
        (spec.backend == Backend::Rw).then(|| config::rw_config(spec))
    }
}

impl SpecBackend for ExactWindow {
    const NAME: &'static str = "exact";

    fn derive(spec: &SketchSpec) -> Option<EcmConfig<Self>> {
        (spec.backend == Backend::Exact).then(|| config::exact_config(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, WindowSpec};

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
            SketchSpec::time(10).max_arrivals(0).validate().unwrap_err(),
            SpecError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn every_clock_backend_hierarchy_combination_builds_and_round_trips() {
        let backends = [Backend::Eh, Backend::Dw, Backend::Rw, Backend::Exact];
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
        assert_eq!(built, 16);
    }

    #[test]
    fn typed_configs_match_the_builder_and_check_the_backend() {
        let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(5);
        let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
        let direct = config::eh_config(&spec);
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
    #[should_panic(expected = "non-decreasing")]
    fn insert_before_an_advanced_clock_is_rejected() {
        let mut sk = SketchSpec::time(100).build().unwrap();
        sk.advance_to(50);
        // The advance is binding: an earlier tick is a contract violation,
        // not a silent clock rewind — in release builds too.
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
