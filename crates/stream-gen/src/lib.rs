//! Synthetic workload generators and exact ground-truth oracles for the
//! ECM-sketch evaluation.
//!
//! The paper evaluates on two real traces we cannot redistribute:
//! WorldCup'98 HTTP requests (1.089 B requests, 33 servers, URL keys) and
//! the CRAWDAD Dartmouth SNMP trace (134 M records, 535 APs, MAC keys).
//! The generators of [`workloads`] are the documented substitutes: they
//! preserve the properties every measured quantity depends on — Zipfian key
//! skew, diurnally modulated arrival density, site partitioning — while
//! being deterministic from a seed and scalable to laptop sizes.

pub mod event;
pub mod oracle;
pub mod rng;
pub mod scenarios;
pub mod trace_io;
pub mod workloads;
pub mod zipf;

pub use event::{partition_by_site, Event};
pub use oracle::WindowOracle;
pub use rng::SeededRng;
pub use scenarios::{
    bounded_delay_shuffle, inject_flash_crowd, inject_poll_bursts, FlashCrowd, PollBursts,
};
pub use trace_io::{read_binary, read_csv, write_binary, write_csv, TraceError};
pub use workloads::{snmp_like, uniform_sites, worldcup_like, WorkloadSpec};
pub use zipf::ZipfSampler;
