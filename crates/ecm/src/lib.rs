//! ECM-sketches: Count-Min sketches over sliding windows, with
//! order-preserving distributed aggregation.
//!
//! This crate is the primary contribution of *Papapetrou, Garofalakis,
//! Deligiannakis — "Sketch-based Querying of Distributed Sliding-Window Data
//! Streams", VLDB 2012*. An [`EcmSketch`] is a `w × d` Count-Min array whose
//! integer counters are replaced by sliding-window synopses (exponential
//! histograms by default), yielding ε-approximate point, inner-product and
//! self-join queries over any sub-range of a time- or count-based sliding
//! window (paper §4), plus:
//!
//! * **ε-split optimization** ([`config`]): how to divide an end-to-end error
//!   budget between the Count-Min dimension and the per-counter window error
//!   so that memory is minimized (paper §4.1).
//! * **Order-preserving aggregation** ([`EcmSketch::merge`], paper §5):
//!   compose per-site sketches into one sketch of the interleaved union
//!   stream, with Theorem-4 error inflation for deterministic counters and
//!   lossless composition for randomized waves.
//! * **Derived queries** ([`hierarchy`], paper §6.1): sliding-window heavy
//!   hitters, range sums and quantiles through a dyadic stack of sketches.
//! * **Typed construction & write API** ([`api`], [`store`]): the
//!   object-safe [`SketchWriter`] / [`Sketch`] traits mirroring
//!   [`query::SketchReader`] on the ingest side, the validating
//!   [`SketchSpec`] builder that constructs *any* backend as a
//!   `Box<dyn Sketch>`, and the keyed multi-tenant [`SketchStore`].
//!
//! # Quick start
//!
//! Every backend answers the same typed [`query::Query`] vocabulary through
//! [`query::SketchReader`], and every estimate carries its (ε, δ)
//! guarantee:
//!
//! ```
//! use ecm::{Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
//!
//! // 0.1-approximate point queries over a 1-hour (3600-tick) window.
//! let mut sketch = SketchSpec::time(3_600)
//!     .epsilon(0.1)
//!     .delta(0.1)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! for t in 1..=1000u64 {
//!     sketch.insert(t, t % 50); // tick, item
//! }
//! let freq = sketch
//!     .query(&Query::point(7), WindowSpec::time(1000, 3_600))
//!     .unwrap()
//!     .into_value();
//! let eps = freq.guarantee.unwrap().epsilon; // ≤ the configured 0.1
//! assert!(freq.value >= 20.0 * (1.0 - eps) && freq.value <= 20.0 + eps * 1000.0);
//! // A tick before the write clock is refused, and the sketch is untouched.
//! assert!(sketch.try_insert_weighted(999, 7, 1).is_err());
//! ```

pub mod api;
pub mod config;
pub mod frame;
pub mod hierarchy;
pub mod publish;
pub mod query;
pub mod sketch;
pub mod snapshot;
pub mod store;
pub mod views;
pub mod wal;

pub use api::{
    Backend, Clock, CloneSketch, Sketch, SketchSpec, SketchWriter, SpecBackend, SpecError,
    WriteError,
};
pub use config::{
    split_inner_product, split_point_query, split_point_query_randomized, EcmConfig, QueryKind,
};
pub use hierarchy::{EcmHierarchy, Threshold};
pub use publish::{Epoch, LeftRight};
pub use query::{Answer, Estimate, Guarantee, Query, QueryError, SketchReader, WindowSpec};
pub use sketch::{grouped_runs, EcmDw, EcmEh, EcmExact, EcmRw, EcmSketch, StreamEvent};
pub use snapshot::{
    restore_any, restore_sketch, snapshot_sketch, SnapshotError, SnapshotKey, SNAPSHOT_VERSION,
};
pub use store::{MemoryReport, Ranking, SketchStore};
pub use views::{
    ScalarQuery, StandingQuery, ViewAnswer, ViewDef, ViewError, ViewEvent, ViewReadout, ViewSet,
    ViewSetStats, ViewWindow,
};
pub use wal::{ReplayReport, WalSegment, WalSegmentHeader, WAL_VERSION};
