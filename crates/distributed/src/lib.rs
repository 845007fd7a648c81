//! Distributed simulation for ECM-sketches (paper §5, §6.2, §7.3):
//!
//! * [`topology`] — balanced binary and k-ary aggregation trees over `n`
//!   sites, the layouts of the paper's distributed experiments (§7.3) and
//!   its topology-controls-height observation (§5.1).
//! * [`aggregation`] — order-preserving aggregation of per-site sketches up
//!   the tree, with byte-accurate network-transfer accounting (the
//!   "transfer volume" axis of Figs. 5 and 6).
//! * [`budget`] — multi-level error budgeting (§5.1): the `hε(1+ε)+ε`
//!   forward recursion, its inverse for per-site ε planning, and
//!   [`HierarchyPlan`] deployment predictions.
//! * [`geometric`] — the geometric method of Sharfman et al. (SIGMOD 2006)
//!   for continuously monitoring threshold crossings of non-linear functions
//!   (self-join sizes, point frequencies) over the *average* of distributed
//!   statistics vectors extracted from ECM-sketches (paper §6.2).
//! * [`continuous`] — protocol harness comparing the geometric method
//!   against periodic-push and forward-every-event baselines on tracking
//!   quality and communication.
//! * [`propagation`] — drift-triggered shipping of local exponential
//!   histograms to a coordinator (Chan et al., §2's related-work line on
//!   continuous distributed sliding-window monitoring).
//! * [`recovery`] — site crash recovery: versioned sketch checkpoints,
//!   bit-exact restore + backlog replay, so a site rejoins its aggregation
//!   tree with guarantees unchanged.

pub mod aggregation;
pub mod budget;
pub mod continuous;
pub mod geometric;
pub mod propagation;
pub mod recovery;
pub mod topology;

pub use aggregation::{
    aggregate_kary_tree, aggregate_tree, site_sketch_batched, site_sketch_from_spec,
    AggregationOutcome, TransferStats,
};
pub use budget::{
    achieved_epsilon, multilevel_epsilon, naive_compounded_epsilon, per_level_errors, HierarchyPlan,
};
pub use continuous::{
    run_protocol, ForwardAllProtocol, MonitoringProtocol, PeriodicPushProtocol, RunReport,
};
pub use geometric::{
    BallBounds, GeometricMonitor, InnerProductFn, MonitorEvent, MonitorStats, MonitoredFunction,
    PointFn, SelfJoinFn,
};
pub use propagation::{DriftPropagation, PropagationStats};
pub use recovery::resume_site;
pub use topology::{BinaryTree, KaryTree};
