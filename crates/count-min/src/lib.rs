//! The hashing and range machinery the ECM-sketch's Count-Min layer is
//! built on (Cormode & Muthukrishnan, J. Algorithms 2005): a seeded
//! pairwise-independent hash family, one hash per Count-Min row, and the
//! dyadic-range decomposition behind the `ecm` crate's hierarchies (paper
//! §6.1). Codec helpers and error types are shared with the
//! `sliding-window` crate so every synopsis in the workspace speaks the same
//! wire vocabulary.

pub mod dyadic;
pub mod hash;

pub use dyadic::{dyadic_cover, DyadicRange};
pub use hash::{HashFamily, PairwiseHash};
