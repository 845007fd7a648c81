//! The §2 straw men: the related-work structures the paper contrasts
//! ECM-sketches against, kept only to measure their failure modes (the
//! `s2.*` rows and claims of `REPRODUCTION.json`). Neither carries an error
//! guarantee on the queries the paper cares about, so neither is a
//! library backend.

pub mod equi_width;
pub mod hybrid_histogram;

pub use equi_width::{EquiWidthConfig, EquiWidthWindow};
pub use hybrid_histogram::{HybridConfig, HybridHistogram};
