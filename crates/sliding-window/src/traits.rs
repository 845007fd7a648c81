//! The [`WindowCounter`] abstraction that lets the ECM-sketch swap its
//! per-cell sliding-window algorithm (paper §4.2.2).

use crate::error::{CodecError, MergeError};

/// The accuracy contract a window counter's configuration promises: the
/// estimate of any in-window range count is within `epsilon` relative error
/// with probability at least `1 − delta`.
///
/// Deterministic synopses have `delta = 0`; the exact baseline has
/// `epsilon = 0` as well. A counter with no analytical guarantee (the §2
/// equi-width baseline the `bench` crate keeps) returns `None` from
/// [`WindowCounter::guarantee`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowGuarantee {
    /// Relative error bound.
    pub epsilon: f64,
    /// Failure probability of the bound.
    pub delta: f64,
}

impl WindowGuarantee {
    /// An exact counter: zero error, zero failure probability.
    pub const EXACT: WindowGuarantee = WindowGuarantee {
        epsilon: 0.0,
        delta: 0.0,
    };

    /// A deterministic ε-bound (`delta = 0`).
    pub fn deterministic(epsilon: f64) -> Self {
        WindowGuarantee {
            epsilon,
            delta: 0.0,
        }
    }
}

/// A sliding-window "basic counting" synopsis: it summarizes a stream of
/// timestamped unit arrivals (*1-bits*) and answers *"how many arrivals fell
/// in the last `r` ticks?"* with bounded relative error.
///
/// # Contract
///
/// * Timestamps passed to [`insert`](WindowCounter::insert) must be
///   non-decreasing; implementations may debug-assert this.
/// * `id` is a stream-unique identifier of the arrival (the ECM-sketch uses
///   the global arrival sequence number). Deterministic synopses ignore it;
///   the [`RandomizedWave`](crate::RandomizedWave) hashes it to pick sample
///   levels, which is what makes independently built waves losslessly
///   mergeable.
/// * [`query`](WindowCounter::query) never sees a range larger than
///   [`window_len`](WindowCounter::window_len); callers clamp.
///
/// # Grid storage
///
/// Sketches hold `width × depth` counters as a *grid*. The
/// [`GridStorage`](WindowCounter::GridStorage) associated type selects the
/// memory layout of that grid: the generic per-cell
/// [`VecCells`](crate::grid::VecCells) for dynamically-sized counters, or a
/// dense specialization like the exponential histogram's contiguous
/// [`EhGrid`](crate::eh_slab::EhGrid) slab. Whatever the layout, every
/// grid operation must be bit-identical to the same operation on
/// standalone counter values — see [`crate::grid::CellStorage`].
///
/// # Arrival-id semantics of weighted inserts
///
/// [`insert_weighted`](WindowCounter::insert_weighted) records a *burst*:
/// `n` distinct arrivals that share one tick. It is **not** an
/// increment-by-`n` of a single arrival — each of the `n` occurrences keeps
/// its own stream-unique identity, namely the consecutive ids
/// `first_id, first_id + 1, …, first_id + n − 1`. Callers that assign ids
/// from a sequence counter must therefore advance the counter by `n`, not
/// by 1. This is what lets the randomized wave sample a burst exactly as if
/// the occurrences had arrived one at a time (and keeps independently built
/// waves losslessly mergeable); deterministic synopses ignore the ids and
/// only count the `n` bits.
pub trait WindowCounter: Clone + std::fmt::Debug + Send + Sync {
    /// Constructor parameters (window length, error targets, seeds, ...).
    /// `Send + Sync` (like the counter and its grid) so whole sketches can
    /// move onto worker threads — the serving layer shards its store per
    /// thread — and so a *published* snapshot of a sketch can be queried
    /// from many reader threads at once (the left-right read path in
    /// `ecm::publish`). Counters are plain data with no interior
    /// mutability, so the bound costs implementations nothing.
    type Config: Clone + std::fmt::Debug + Send + Sync;

    /// Memory layout used when this counter fills a grid of sketch cells
    /// (see the [trait docs](WindowCounter#grid-storage)).
    type GridStorage: crate::grid::CellStorage<Self> + Send + Sync;

    /// Create an empty counter.
    fn new(cfg: &Self::Config) -> Self;

    /// Record one arrival with stream-unique `id` at tick `ts`.
    fn insert(&mut self, ts: u64, id: u64);

    /// Record `n` arrivals, all at tick `ts`, carrying the consecutive
    /// stream-unique ids `first_id .. first_id + n` (see the trait docs for
    /// the arrival-id semantics). Equivalent to — and required to produce
    /// exactly the same state as — `n` calls of
    /// [`insert`](WindowCounter::insert) with incrementing ids, but
    /// implementations override it with sub-linear fast paths (the
    /// exponential histogram carries all `n` bits up its level cascade in
    /// `O(levels · capacity)` regardless of `n`).
    fn insert_weighted(&mut self, ts: u64, first_id: u64, n: u64) {
        for k in 0..n {
            self.insert(ts, first_id + k);
        }
    }

    /// Estimated number of arrivals with tick in `(now - range, now]`.
    ///
    /// Fractional results are meaningful: the exponential histogram counts
    /// half of its oldest, partially overlapping bucket.
    fn query(&self, now: u64, range: u64) -> f64;

    /// Estimated number of arrivals in the whole window ending at `now`.
    fn query_window(&self, now: u64) -> f64 {
        self.query(now, self.window_len())
    }

    /// Configured window length in ticks.
    fn window_len(&self) -> u64;

    /// The (ε, δ) accuracy contract `cfg` promises for in-window range
    /// estimates, or `None` for a synopsis without an analytical guarantee
    /// (no counter of this crate). Consumed by the `ecm` crate's query layer
    /// to annotate every estimate with its end-to-end error bound.
    fn guarantee(cfg: &Self::Config) -> Option<WindowGuarantee>;

    /// Bytes of heap + inline memory currently held.
    fn memory_bytes(&self) -> usize;

    /// Append the compact wire encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode a counter previously produced by [`encode`](WindowCounter::encode),
    /// advancing `input` past the consumed bytes. `cfg` must match the encoder's.
    fn decode(cfg: &Self::Config, input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Size of the wire encoding, in bytes.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Synopses supporting the order-preserving aggregation operator `⊕`
/// (paper §5): combining per-site counters into one counter for the
/// interleaved union stream.
pub trait MergeableCounter: WindowCounter {
    /// Whether `⊕`-merging preserves the inputs' accuracy exactly.
    ///
    /// `true` for randomized waves (lossless composition, paper §5.2) and
    /// the exact baseline; `false`
    /// for the deterministic synopses, whose every merge level inflates the
    /// window error by Theorem 4. Consumers (e.g. the `ecm` query layer's
    /// distributed backend) use this to decide whether merged estimates
    /// need their guarantees widened.
    const LOSSLESS_MERGE: bool;

    /// Merge `parts` into a fresh counter configured by `out_cfg`.
    ///
    /// For exponential histograms the output error parameter ε′ may differ
    /// from the inputs' ε — Theorem 4 bounds the combined error by
    /// `ε + ε′ + ε·ε′`. For randomized waves the merge is lossless and
    /// `out_cfg` must equal the inputs' config (same seed).
    fn merge(parts: &[&Self], out_cfg: &Self::Config) -> Result<Self, MergeError>;
}
