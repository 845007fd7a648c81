//! `sketchbench` — the repo benchmark.
//!
//! Drives a **separately spawned** `sketchd` over loopback from one process
//! with two threads and two connections, measures six end-to-end metrics
//! on four workloads, and — in a traced run — prices every layer from
//! outside by timing calls into its public functions. See `README.md` in
//! this directory for the metric tables and how to read the output.

pub mod check;
pub mod env;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
