//! Pluggable storage for *grids* of window counters — the cell layer the
//! `ecm` crate's Count-Min array is built on.
//!
//! A sketch owns `width × depth` sliding-window counters that are updated
//! and queried by flat cell index. How those cells are laid out in memory is
//! an implementation decision per counter type, captured by the sealed
//! [`CellStorage`] trait and selected through
//! [`WindowCounter::GridStorage`]:
//!
//! * [`VecCells<W>`] — one heap value per cell (`Vec<W>`), the generic
//!   layout used by the wave and exact counters, whose state is
//!   dynamically sized.
//! * [`EhGrid`](crate::eh_slab::EhGrid) — the slab specialization for
//!   exponential histograms: every cell owns one run of **one contiguous
//!   slab allocation** for the whole grid, holding just the buckets it has
//!   and their level counts (see [`crate::eh_slab`]).
//!
//! The trait is sealed: the grid contract (bit-identical updates, wire
//! compatibility with the per-cell codec) is pinned down by differential
//! tests in this workspace, and outside implementations could not be held
//! to it.

use crate::error::CodecError;
use crate::traits::WindowCounter;
use std::ops::Range;

pub(crate) mod sealed {
    /// Seals [`super::CellStorage`]: only layouts defined in this crate can
    /// implement it.
    pub trait Sealed {}
}

/// Storage of a fixed-size grid of [`WindowCounter`] cells, addressed by
/// flat index in `0..n_cells`.
///
/// Every method that touches one cell must behave exactly like the same
/// operation on a standalone counter value: `insert`/`insert_weighted`
/// mirror the [`WindowCounter`] contract per cell, [`encode_cell`] must
/// produce the byte-identical wire encoding of
/// [`WindowCounter::encode`], and [`decode_grid`] must accept what a
/// per-cell decoder would. This equivalence is what lets layouts be swapped
/// without touching the sketch codec or merge logic, and it is pinned down
/// by the slab differential suites.
///
/// [`encode_cell`]: CellStorage::encode_cell
/// [`decode_grid`]: CellStorage::decode_grid
pub trait CellStorage<W: WindowCounter>: Clone + std::fmt::Debug + sealed::Sealed {
    /// A grid of `n_cells` empty counters configured by `cfg`.
    fn new_grid(cfg: &W::Config, n_cells: usize) -> Self;

    /// Number of cells in the grid.
    fn n_cells(&self) -> usize;

    /// Record one arrival with stream-unique `id` at tick `ts` in cell
    /// `idx` (see [`WindowCounter::insert`]).
    fn insert(&mut self, idx: usize, ts: u64, id: u64);

    /// Record `n` arrivals at tick `ts` carrying consecutive ids starting
    /// at `first_id` in cell `idx` (see [`WindowCounter::insert_weighted`]).
    fn insert_weighted(&mut self, idx: usize, ts: u64, first_id: u64, n: u64);

    /// Record `n` arrivals at the **consecutive** ticks
    /// `first_ts .. first_ts + n`, carrying the consecutive ids
    /// `first_id .. first_id + n` — the burst shape of count-based windows.
    fn insert_run(&mut self, idx: usize, first_ts: u64, first_id: u64, n: u64) {
        for k in 0..n {
            self.insert(idx, first_ts + k, first_id + k);
        }
    }

    /// Record the same burst in several cells at once — one per sketch
    /// row, which is how a Count-Min update touches the grid. Equivalent
    /// to [`insert_weighted`](CellStorage::insert_weighted) per index;
    /// layouts whose per-cell work repeats a per-occurrence computation
    /// (the randomized wave's id-level sampling is identical in every
    /// row) override this to share it across the rows.
    fn insert_weighted_rows(&mut self, idxs: &[usize], ts: u64, first_id: u64, n: u64) {
        for &idx in idxs {
            self.insert_weighted(idx, ts, first_id, n);
        }
    }

    /// Cell `idx`'s estimate of the arrivals with tick in
    /// `(now − range, now]` (see [`WindowCounter::query`]).
    fn query(&self, idx: usize, now: u64, range: u64) -> f64;

    /// The configured window length shared by every cell (0 for an empty
    /// grid).
    fn window_len(&self) -> u64;

    /// Bytes of **heap** memory currently held by the whole grid, beyond
    /// its inline struct size (the grid value lives inline in its sketch,
    /// whose own `memory_bytes` counts that).
    fn memory_bytes(&self) -> usize;

    /// Append cell `idx`'s wire encoding — **byte-identical** to
    /// [`WindowCounter::encode`] on an equal standalone counter.
    fn encode_cell(&self, idx: usize, buf: &mut Vec<u8>);

    /// Decode `n_cells` consecutive per-cell encodings (the format
    /// [`encode_cell`](CellStorage::encode_cell) and the standalone
    /// [`WindowCounter::encode`] share) into a grid.
    ///
    /// # Errors
    /// [`CodecError`] exactly where the per-cell decoder would fail.
    fn decode_grid(cfg: &W::Config, n_cells: usize, input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Borrow cell `idx` as a standalone counter value, for layouts that
    /// store cells as such; `None` for packed layouts (the slab), whose
    /// cells must be [`materialize`](CellStorage::materialize)d. Lets the
    /// merge paths stay zero-copy wherever the layout allows.
    fn cell_ref(&self, idx: usize) -> Option<&W>;

    /// Materialize cell `idx` as a standalone counter value (used by the
    /// merge paths, which operate on counter values).
    fn materialize(&self, idx: usize) -> W;

    /// Build a grid holding exactly `counters` (used to store merge
    /// results); `cfg` must be the configuration the counters were built
    /// with.
    fn from_counters(cfg: &W::Config, counters: Vec<W>) -> Self;

    /// An upper bound on the sum of **all** cells'
    /// [`query`](CellStorage::query) estimates, valid for every `now` and
    /// `range`: [`held_ones_in`](CellStorage::held_ones_in) over the whole
    /// grid.
    fn held_ones(&self) -> Option<u64> {
        self.held_ones_in(0..self.n_cells())
    }

    /// An upper bound on the sum of the estimates of the cells in `cells`,
    /// valid for every `now` and `range`, at one read per cell: the
    /// arrivals those cells still hold, expired or not. A Count-Min row is
    /// such a range, and every arrival lands in it exactly once, so this
    /// bounds one row's estimate of the window's total. `None` for layouts
    /// that keep no per-cell count — callers must then query the cells.
    /// The slab keeps one (see [`crate::eh_slab`]).
    fn held_ones_in(&self, _cells: Range<usize>) -> Option<u64> {
        None
    }
}

/// The generic one-heap-value-per-cell layout: a plain `Vec<W>`.
///
/// This is the right storage for counters whose state is inherently
/// dynamically sized (wave sample queues, exact arrival logs); the
/// fixed-capacity exponential histogram uses the slab-backed
/// [`EhGrid`](crate::eh_slab::EhGrid) instead.
#[derive(Debug, Clone)]
pub struct VecCells<W> {
    cells: Vec<W>,
}

impl<W> VecCells<W> {
    /// The cells as a mutable slice — crate-internal so specialized grids
    /// (the randomized wave's shared-sampling [`RwGrid`]) can wrap a
    /// `VecCells` for all generic plumbing and reach in only for their
    /// custom update kernel.
    ///
    /// [`RwGrid`]: crate::randomized_wave::RwGrid
    pub(crate) fn cells_mut(&mut self) -> &mut [W] {
        &mut self.cells
    }
}

impl<W> sealed::Sealed for VecCells<W> {}

impl<W: WindowCounter> CellStorage<W> for VecCells<W> {
    fn new_grid(cfg: &W::Config, n_cells: usize) -> Self {
        VecCells {
            cells: (0..n_cells).map(|_| W::new(cfg)).collect(),
        }
    }

    fn n_cells(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn insert(&mut self, idx: usize, ts: u64, id: u64) {
        self.cells[idx].insert(ts, id);
    }

    #[inline]
    fn insert_weighted(&mut self, idx: usize, ts: u64, first_id: u64, n: u64) {
        self.cells[idx].insert_weighted(ts, first_id, n);
    }

    #[inline]
    fn query(&self, idx: usize, now: u64, range: u64) -> f64 {
        self.cells[idx].query(now, range)
    }

    fn window_len(&self) -> u64 {
        self.cells.first().map(W::window_len).unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        // Occupied buffer slots are covered by the per-cell inline sizes
        // inside `W::memory_bytes`; spare capacity is counted explicitly.
        (self.cells.capacity() - self.cells.len()) * std::mem::size_of::<W>()
            + self.cells.iter().map(W::memory_bytes).sum::<usize>()
    }

    fn encode_cell(&self, idx: usize, buf: &mut Vec<u8>) {
        self.cells[idx].encode(buf);
    }

    fn decode_grid(cfg: &W::Config, n_cells: usize, input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            cells.push(W::decode(cfg, input)?);
        }
        Ok(VecCells { cells })
    }

    fn cell_ref(&self, idx: usize) -> Option<&W> {
        Some(&self.cells[idx])
    }

    fn materialize(&self, idx: usize) -> W {
        self.cells[idx].clone()
    }

    fn from_counters(_cfg: &W::Config, counters: Vec<W>) -> Self {
        VecCells { cells: counters }
    }
}
