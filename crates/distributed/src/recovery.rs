//! Site crash recovery for the continuous-monitoring setting.
//!
//! The paper's deployment runs for weeks: a site that loses its
//! exponential-histogram state on a crash would have to observe a full
//! window (10⁶ ticks in the evaluation) before its estimates are trustworthy
//! again. This module closes that gap with the `ecm::snapshot` format:
//!
//! 1. [`ecm::snapshot::snapshot_sketch`] serializes a site's typed,
//!    mergeable sketch as a versioned, checksummed record.
//! 2. After a crash, [`ecm::snapshot::restore_sketch`] rebuilds the sketch —
//!    including its arrival-id namespace and sequence counter, so the ids it
//!    assigns next continue exactly where the checkpoint left off.
//! 3. [`resume_site`] additionally replays the post-checkpoint event
//!    backlog through the batched fast path; the result is **bit-identical**
//!    to a site that never crashed, so it rejoins the aggregation tree with
//!    every Theorem 1–5 guarantee unchanged (including lossless
//!    randomized-wave composition, which depends on those very ids).
//!
//! `tests/failure_injection.rs` exercises the kill → restore → re-aggregate
//! path end to end; `tests/snapshot_recovery.rs` fuzzes the byte format.
//!
//! ```
//! use distributed::{aggregate_tree, recovery, site_sketch_from_spec};
//! use ecm::{snapshot_sketch, Query, SketchReader, SketchSpec, WindowSpec};
//! use sliding_window::ExponentialHistogram;
//! use stream_gen::Event;
//!
//! let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(7);
//! let events: Vec<Event> = (1..=100u64)
//!     .map(|t| Event { ts: t, key: t % 5, site: 0 })
//!     .collect();
//! // Site 1 checkpoints halfway through its stream, then "crashes".
//! let half = site_sketch_from_spec::<ExponentialHistogram>(&spec, 1, &events[..50]).unwrap();
//! let checkpoint = snapshot_sketch(&spec, &half).unwrap();
//!
//! // Recovery: restore and replay the backlog; the site is whole again.
//! let recovered =
//!     recovery::resume_site::<ExponentialHistogram>(&spec, &checkpoint, &events[50..]).unwrap();
//! let never_crashed =
//!     site_sketch_from_spec::<ExponentialHistogram>(&spec, 1, &events).unwrap();
//! let (mut a, mut b) = (Vec::new(), Vec::new());
//! recovered.encode(&mut a);
//! never_crashed.encode(&mut b);
//! assert_eq!(a, b, "recovery is bit-exact");
//!
//! // ...so it slots straight back into an aggregation.
//! let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
//! let out = aggregate_tree(2, |i| if i == 0 { recovered.clone() } else { never_crashed.clone() },
//!     &cfg.cell).unwrap();
//! let est = out
//!     .query(&Query::point(2), WindowSpec::time(100, 1_000))
//!     .unwrap()
//!     .into_value();
//! assert!(est.value > 0.0);
//! ```

use std::fmt;

use ecm::snapshot::restore_sketch;
use ecm::{EcmSketch, SketchSpec, SketchWriter, SnapshotError, SpecBackend};
use stream_gen::Event;

/// Restore a site from a [`snapshot_sketch`](ecm::snapshot::snapshot_sketch)
/// record and replay its post-checkpoint backlog through the batched
/// ingest fast path — the full crash-recovery cycle. Bit-identical
/// to a site that ingested the whole stream uninterrupted (proven in
/// `tests/failure_injection.rs`), so the site rejoins its aggregation tree
/// with guarantees unchanged.
///
/// # Errors
/// Any [`SnapshotError`] from the restore; replay itself cannot fail.
pub fn resume_site<W>(
    spec: &SketchSpec,
    bytes: &[u8],
    backlog: &[Event],
) -> Result<EcmSketch<W>, SnapshotError>
where
    W: SpecBackend + fmt::Debug + 'static,
    W::Config: 'static,
{
    let mut sketch = restore_sketch::<W>(spec, bytes)?;
    for (e, n) in ecm::grouped_runs(backlog) {
        sketch.insert_weighted(e.ts, e.key, n);
    }
    Ok(sketch)
}
