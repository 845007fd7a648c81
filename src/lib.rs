//! Facade crate for the ECM-sketch reproduction workspace.
//!
//! Beyond re-exporting every workspace crate ([`count_min`],
//! [`sliding_window`], [`ecm`], [`stream_gen`], [`distributed`]), this
//! crate fronts the **typed sketch API** directly: describe a sketch with
//! [`SketchSpec`], build it as a [`Box<dyn Sketch>`](Sketch), feed it
//! through [`SketchWriter`], query it through [`SketchReader`] — or manage
//! a whole keyed fleet with [`SketchStore`]. One `use ecm_suite::prelude::*;`
//! pulls in the working vocabulary.
//!
//! ```
//! use ecm_suite::prelude::*;
//!
//! let mut store: SketchStore<u64> =
//!     SketchStore::new(SketchSpec::time(1_000).epsilon(0.1).delta(0.1)).unwrap();
//! for t in 1..=500u64 {
//!     store.insert(t % 3, t, 42); // tenant, tick, item
//! }
//! let hot = store.top_k(1, &Query::point(42), WindowSpec::time(500, 1_000));
//! assert_eq!(hot.len(), 1);
//! ```
//!
//! Library users should depend on the individual crates directly; the
//! runnable examples under `examples/` and the cross-crate integration
//! tests under `tests/` use this root.

pub use count_min;
pub use distributed;
pub use ecm;
pub use sliding_window;
pub use stream_gen;

// The typed construction / write / read surface, fronted at the root so the
// facade is usable without spelunking into sub-crates.
pub use ecm::{
    restore_any, Answer, Backend, Clock, Estimate, Guarantee, MemoryReport, Query, QueryError,
    QueryKind, Sketch, SketchReader, SketchSpec, SketchStore, SketchWriter, SnapshotError,
    SpecBackend, SpecError, StreamEvent, Threshold, WindowSpec, WriteError,
};

/// The working vocabulary in one import: spec-driven construction
/// ([`SketchSpec`], [`Backend`]), the write/read traits, the keyed
/// [`SketchStore`], and the distributed aggregation entry points.
pub mod prelude {
    pub use distributed::{
        aggregate_kary_tree, aggregate_tree, resume_site, site_sketch_batched,
        site_sketch_from_spec, AggregationOutcome,
    };
    pub use ecm::{
        restore_any, Answer, Backend, Clock, Estimate, Guarantee, MemoryReport, Query, QueryError,
        QueryKind, Sketch, SketchReader, SketchSpec, SketchStore, SketchWriter, SnapshotError,
        SpecBackend, SpecError, StreamEvent, Threshold, WindowSpec, WriteError,
    };
}
