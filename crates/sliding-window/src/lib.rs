//! Sliding-window counters for data-stream processing.
//!
//! This crate implements the three sliding-window "basic counting" synopses that
//! the ECM-sketch paper (Papapetrou, Garofalakis, Deligiannakis, VLDB 2012)
//! builds on, plus an exact baseline:
//!
//! * [`ExponentialHistogram`] — the deterministic synopsis of Datar, Gionis,
//!   Indyk and Motwani (SIAM J. Comput. 2002). `O(log²(N)/ε)` space,
//!   ε-relative-error counts, **order-preserving aggregation** (paper §5.1).
//! * [`DeterministicWave`] — Gibbons & Tirthapura (SPAA 2002). Same space as
//!   exponential histograms, flatter worst-case update cost.
//! * [`RandomizedWave`] — Gibbons & Tirthapura. `O(log(1/δ)/ε²)` space,
//!   (ε,δ)-approximation, **lossless aggregation** (paper §5.2).
//! * [`ExactWindow`] — exact counting in `O(arrivals)` space; the ground-truth
//!   baseline used throughout the test and benchmark suites.
//!
//! All four implement the [`WindowCounter`] trait, which is what the `ecm`
//! crate instantiates its Count-Min counters with.
//!
//! # Clock model
//!
//! Counters are clock-agnostic: a timestamp is a non-decreasing `u64` *tick*.
//! Feeding wall-clock time gives **time-based** windows; feeding the global
//! arrival index gives **count-based** windows (paper §4.2.1). The only place
//! the distinction matters is order-preserving aggregation, which is only
//! sound for time-based windows (paper Fig. 2); see
//! [`exponential_histogram::merge_exponential_histograms`].

pub mod codec;
pub mod deterministic_wave;
pub mod eh_slab;
pub mod error;
pub mod exact;
pub mod exponential_histogram;
pub mod grid;
pub mod randomized_wave;
pub mod reorder;
pub mod timestamp;
pub mod traits;

pub use deterministic_wave::{DeterministicWave, DwConfig};
pub use eh_slab::{EhCellMut, EhCellRef, EhGrid};
pub use error::{CodecError, MergeError};
pub use exact::{ExactWindow, ExactWindowConfig};
pub use exponential_histogram::{
    merge_exponential_histograms, BucketView, EhConfig, ExponentialHistogram,
};
pub use grid::{CellStorage, VecCells};
pub use randomized_wave::{merge_randomized_waves, RandomizedWave, RwConfig, RwGrid};
pub use reorder::{ReorderBuffer, ReorderConfig};
pub use timestamp::compact_eh_bits;
pub use traits::{MergeableCounter, WindowCounter, WindowGuarantee};
