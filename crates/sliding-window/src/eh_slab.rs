//! Slab-backed grids of exponential histograms — the compact EH core
//! behind `EcmSketch<ExponentialHistogram>`.
//!
//! A standalone [`ExponentialHistogram`] keeps each bucket level in its own
//! `VecDeque<u64>`: flexible, but a `width × depth` grid of them fragments
//! into thousands of small allocations, most of them nearly empty.
//! [`EhGrid`] keeps the whole grid in **one slab** in which every cell owns
//! one contiguous *run*, the runs laid end to end in cell order. A run holds
//! the cell's buckets as one sequence, oldest first — the top level's
//! buckets, then the next level's, down to level 0's newest — and, from the
//! run's far end inward, the bucket count of every level below the top
//! (the top level holds the rest of the sequence). Between the two lie the
//! run's free slots:
//!
//! ```text
//! slab:  ┌─────── cell 0's run ───────┬──── cell 1 ────┬┬─── cell 3 ──── ...
//!        │ b b b b b b b b · · n₁ n₀  │ b b b · · · n₀ ││ b b b b · ·
//!        └────────────────────────────┴────────────────┴┴───────────────
//!          buckets, oldest → newest; free slots; counts of levels 1, 0
//!                                              (cell 2 holds nothing)
//! cells: one 56-byte `CellMeta` per cell, in grid order — where its run
//!        starts (it ends where the next one starts), its bucket and level
//!        counts, and the standalone histogram's scalars.
//! ```
//!
//! An insert appends level 0's newest bucket. A cascade merges the two
//! oldest buckets of a full level, adjacent in the sequence: the older is
//! dropped, and the newer, which moves down into its slot, becomes the
//! next level's newest. Expiry pops from the sequence's front. The `d`
//! cells one item touches are the only runs an insert reads.
//!
//! What that costs: dropping a bucket moves what follows it. A cascade
//! moves the rest of each merging level down one slot, and an expiry moves
//! the whole sequence, so a single-event insert moves about
//! `level_capacity` ≈ 1/(2ε) slots on average, where per-level rings
//! would move two cursors. At ε = 0.1 that is a few slots; at ε = 0.001 a
//! kernel probe ingested about five times slower than with rings.
//!
//! A cell whose run is full takes free slots from the nearest run that can
//! spare them all, moving only the runs in between. Only when no nearby
//! run can is the slab rebuilt, every run sized to twice what its cell
//! holds then, plus one slot: like a `Vec`'s doubling, a grid rebuilds
//! `O(log)` times as it fills, and free slots stay spread over the runs,
//! where later growth finds them. A grid is a handful of `Vec`s, so a
//! clone is a couple of `memcpy`s, and the clone inherits the runs' free
//! slots, so a write after a copy-on-write clone seldom allocates.
//!
//! Two further layout savings over the per-cell representation:
//!
//! * **Offset compression** — bucket end-ticks of one cell always span less
//!   than one window (`expire` runs on every insert), so for windows below
//!   `2³²` ticks they are stored as `u32` offsets from a per-cell base that
//!   is rebased (rarely) as the stream advances. Wider windows fall back to
//!   a `u64` slab.
//! * **No per-level containers** — a level below the top costs one count
//!   slot, and the levels a cell does not have cost nothing.
//!
//! Cell state transitions are an exact mirror of the standalone
//! histogram's insert/cascade/expire/estimate logic — same bucket
//! sequences, same estimates bit for bit, and byte-identical wire
//! encodings (the differential suites in this module and in
//! `tests/slab_layout.rs` pin this down).

use crate::codec::{put_u8, put_varint};
use crate::error::CodecError;
use crate::exponential_histogram::{EhConfig, ExponentialHistogram, CODEC_VERSION};
use crate::grid::{sealed, CellStorage};
use crate::traits::WindowCounter;
use std::collections::VecDeque;
use std::ops::Range;

/// Slab element: a bucket end-tick stored as an offset from its cell's
/// base tick, or a level's bucket count.
trait SlabWord: Copy + Default + std::fmt::Debug {
    /// Largest storable offset.
    const MAX_OFFSET: u64;
    fn from_offset(v: u64) -> Self;
    fn to_offset(self) -> u64;

    /// The word read as a level's bucket count.
    #[inline]
    fn count(self) -> usize {
        self.to_offset() as usize
    }
}

impl SlabWord for u32 {
    const MAX_OFFSET: u64 = u32::MAX as u64;
    #[inline]
    fn from_offset(v: u64) -> Self {
        debug_assert!(v <= Self::MAX_OFFSET, "offset {v} exceeds u32 slab word");
        v as u32
    }
    #[inline]
    fn to_offset(self) -> u64 {
        u64::from(self)
    }
}

impl SlabWord for u64 {
    const MAX_OFFSET: u64 = u64::MAX;
    #[inline]
    fn from_offset(v: u64) -> Self {
        v
    }
    #[inline]
    fn to_offset(self) -> u64 {
        self
    }
}

/// `CellMeta::shape` layout: bucket count in the low bits, then the level
/// count, then the flags.
const LEN_BITS: u32 = 22;
const LEVELS_SHIFT: u32 = LEN_BITS;
const FLAGS_SHIFT: u32 = LEVELS_SHIFT + 7;
/// Flag: `first_ts` holds a tick.
const HAS_FIRST: u32 = 1;
/// Flag: `dropped_end` holds a tick.
const HAS_DROPPED: u32 = 2;
/// Flag: the top level may hold no bucket. Only a decoded cell starts out
/// that way; the next `expire` trims it, as the standalone's does, and
/// clears the flag.
const TOP_MAYBE_EMPTY: u32 = 4;

/// Per-cell state: where the cell's run starts, the shape of what it
/// holds, the standalone histogram's scalar fields, and the offset base.
#[derive(Debug, Clone, Copy, Default)]
struct CellMeta {
    /// Base tick the cell's slab offsets are relative to.
    base: u64,
    /// Unexpired 1-bits currently held.
    total: u64,
    /// Tick of the most recent insertion.
    last_ts: u64,
    /// Tick of the first insertion ever, under `HAS_FIRST`.
    first_ts: u64,
    /// End-tick of the most recently expired bucket, under `HAS_DROPPED`.
    dropped_end: u64,
    /// Lifetime 1-bits inserted.
    lifetime: u64,
    /// Slab index of the run's first slot; the run ends where the next
    /// cell's starts (the last one's at the slab's end).
    start: u32,
    /// Buckets held (the run's first slots), active levels (trailing empty
    /// levels trimmed, mirroring the standalone `levels.len()`), and
    /// flags, packed as `len | levels << 22 | flags << 29`.
    shape: u32,
}

impl CellMeta {
    #[inline]
    fn len(&self) -> usize {
        (self.shape & ((1 << LEN_BITS) - 1)) as usize
    }

    #[inline]
    fn levels(&self) -> usize {
        ((self.shape >> LEVELS_SHIFT) & 0x7f) as usize
    }

    #[inline]
    fn flags(&self) -> u32 {
        self.shape >> FLAGS_SHIFT
    }

    #[inline]
    fn set_shape(&mut self, len: usize, levels: usize, flags: u32) {
        debug_assert!(len < 1 << LEN_BITS && levels <= 64 && flags < 8);
        self.shape = len as u32 | (levels as u32) << LEVELS_SHIFT | flags << FLAGS_SHIFT;
    }

    #[inline]
    fn set_len(&mut self, len: usize) {
        self.set_shape(len, self.levels(), self.flags());
    }

    fn first_ts(&self) -> Option<u64> {
        (self.flags() & HAS_FIRST != 0).then_some(self.first_ts)
    }

    fn dropped_end(&self) -> Option<u64> {
        (self.flags() & HAS_DROPPED != 0).then_some(self.dropped_end)
    }

    /// Slots the cell's buckets and counts take up.
    #[inline]
    fn used(&self) -> usize {
        run_slots(self.len(), self.levels())
    }
}

/// Slots a run needs for `len` buckets over `levels` levels: one per
/// bucket and one count per level below the top.
#[inline]
fn run_slots(len: usize, levels: usize) -> usize {
    len + levels.saturating_sub(1)
}

/// How many runs either side of a full one are searched for free slots
/// before the slab is rebuilt instead. On the served `wide-fleet` and
/// `hot-tenants` traces, narrower searches held up to 12 % more bytes (and
/// at one run a warm store allocated on its writes), while wider ones held
/// at most 1–4 % fewer and ingested no faster; the runs a trade moves grow
/// with the distance.
const NEAR_RUNS: usize = 32;

/// The slab proper, generic over the stored word.
#[derive(Debug, Clone)]
struct SlabCore<T> {
    cfg: EhConfig,
    /// Max buckets a level holds at rest (`EhConfig::level_capacity()`).
    cap: usize,
    /// Every cell's run, end to end in cell order.
    slab: Vec<T>,
    cells: Vec<CellMeta>,
    /// Reusable buffers for the bulk cascade — carries in, carries out,
    /// and the rebuilt newest part of the run — kept here so a warm grid's
    /// cascades allocate nothing.
    scratch_a: Vec<T>,
    scratch_b: Vec<T>,
    scratch_tail: Vec<T>,
}

impl<T: SlabWord> SlabCore<T> {
    fn new(cfg: &EhConfig, n_cells: usize) -> Self {
        let cap = cfg.level_capacity();
        assert!(cap >= 2, "level capacity must hold a merge pair");
        // 64 levels of `cap + 1` buckets fit the 22-bit bucket count.
        assert!(
            64 * (cap + 1) < 1 << LEN_BITS,
            "level capacity {cap} exceeds a cell's bucket count"
        );
        SlabCore {
            cfg: cfg.clone(),
            cap,
            slab: Vec::new(),
            cells: vec![CellMeta::default(); n_cells],
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            scratch_tail: Vec::new(),
        }
    }

    /// One past the last slot of the cell's run.
    #[inline]
    fn run_end(&self, cell: usize) -> usize {
        match self.cells.get(cell + 1) {
            Some(next) => next.start as usize,
            None => self.slab.len(),
        }
    }

    /// The run's slots nobody uses.
    #[inline]
    fn free(&self, cell: usize) -> usize {
        self.run_end(cell) - self.cells[cell].start as usize - self.cells[cell].used()
    }

    /// A cell's run split into its buckets (oldest first) and its level
    /// counts (level `levels − 2` first, level 0 last).
    #[inline]
    fn parts(&self, cell: usize) -> (&[T], &[T]) {
        let m = &self.cells[cell];
        let run = &self.slab[m.start as usize..self.run_end(cell)];
        let below = m.levels().saturating_sub(1);
        (&run[..m.len()], &run[run.len() - below..])
    }

    /// Each level's buckets (oldest first), from the top level down: the
    /// order the run stores them in.
    fn levels_top_down(&self, cell: usize) -> impl Iterator<Item = (usize, &[T])> + '_ {
        let (seq, counts) = self.parts(cell);
        let levels = self.cells[cell].levels();
        let lower: usize = counts.iter().map(|c| c.count()).sum();
        let mut pos = 0;
        std::iter::once(seq.len() - lower)
            .chain(counts.iter().map(|c| c.count()))
            .take(levels)
            .enumerate()
            .map(move |(k, n)| {
                let seg = &seq[pos..pos + n];
                pos += n;
                (levels - 1 - k, seg)
            })
    }

    /// Each level's buckets (oldest first), from level 0 up.
    fn levels_bottom_up(&self, cell: usize) -> impl Iterator<Item = &[T]> + '_ {
        let (seq, counts) = self.parts(cell);
        let levels = self.cells[cell].levels();
        let mut end = seq.len();
        (0..levels).map(move |i| {
            let n = if i + 1 < levels {
                counts[levels - 2 - i].count()
            } else {
                end
            };
            let seg = &seq[end - n..end];
            end -= n;
            seg
        })
    }

    /// Grow `cell`'s run to at least `need` slots, keeping its buckets and
    /// counts: with free slots from the nearest run within `NEAR_RUNS` of
    /// it that can spare them all, searching the runs after it first, or,
    /// when none can, by rebuilding the slab.
    #[cold]
    fn make_room(&mut self, cell: usize, need: usize) {
        let want = need - (self.run_end(cell) - self.cells[cell].start as usize);
        let right = cell + 1..(cell + 1 + NEAR_RUNS).min(self.cells.len());
        if let Some(d) = right.into_iter().find(|&d| self.free(d) >= want) {
            self.take_from_right(cell, d, want);
        } else if let Some(d) = (cell.saturating_sub(NEAR_RUNS)..cell)
            .rev()
            .find(|&d| self.free(d) >= want)
        {
            self.take_from_left(cell, d, want);
        } else {
            self.rebuild(cell, need);
        }
    }

    /// Move `want` free slots from run `d > cell` to the end of `cell`'s
    /// run: the runs in between, and `d`'s buckets, move up.
    fn take_from_right(&mut self, cell: usize, d: usize, want: usize) {
        let from = self.run_end(cell);
        let to = self.cells[d].start as usize + self.cells[d].len();
        self.slab.copy_within(from..to, from + want);
        for m in &mut self.cells[cell + 1..=d] {
            m.start += want as u32;
        }
        // The counts keep to the run's far end.
        let below = self.cells[cell].levels().saturating_sub(1);
        self.slab
            .copy_within(from - below..from, from + want - below);
    }

    /// Move `want` free slots from run `d < cell` to the front of `cell`'s
    /// run: `d`'s counts, the runs in between and `cell`'s buckets move
    /// down.
    fn take_from_left(&mut self, cell: usize, d: usize, want: usize) {
        let below = self.cells[d].levels().saturating_sub(1);
        let from = self.run_end(d) - below;
        let m = &self.cells[cell];
        let to = m.start as usize + m.len();
        self.slab.copy_within(from..to, from - want);
        for m in &mut self.cells[d + 1..=cell] {
            m.start -= want as u32;
        }
    }

    /// Lay every run out afresh in a new slab of exactly their size, each
    /// sized to twice what its cell holds plus one slot (`grown` to twice
    /// `need` plus one); a cell that holds nothing gets no slot.
    #[cold]
    fn rebuild(&mut self, grown: usize, need: usize) {
        let room = |c: usize, m: &CellMeta| {
            let used = if c == grown { need } else { m.used() };
            if used == 0 {
                0
            } else {
                2 * used + 1
            }
        };
        let total: usize = self.cells.iter().enumerate().map(|(c, m)| room(c, m)).sum();
        assert!(
            total <= u32::MAX as usize,
            "slab exceeds its u32 run offsets"
        );
        let mut slab = Vec::with_capacity(total);
        for c in 0..self.cells.len() {
            let (seq, counts) = self.parts(c);
            let start = slab.len();
            slab.extend_from_slice(seq);
            slab.resize(start + room(c, &self.cells[c]) - counts.len(), T::default());
            slab.extend_from_slice(counts);
            self.cells[c].start = start as u32;
        }
        // The cells' starts now index `slab`; `parts` would misread the old
        // slab from here on, so it is swapped in before anything else.
        self.slab = slab;
    }

    /// One bit through the cascade. Appending to level 0 is the
    /// overwhelmingly common case; a full level 0 (or a full run) cascades.
    #[inline]
    fn push_bit(&mut self, cell: usize, ts_off: T) {
        let m = &self.cells[cell];
        let (start, len, levels) = (m.start as usize, m.len(), m.levels());
        let end = self.run_end(cell);
        if levels > 0 && start + len + levels <= end {
            let n0 = if levels == 1 {
                len
            } else {
                self.slab[end - 1].count()
            };
            if n0 < self.cap {
                self.slab[start + len] = ts_off;
                if levels > 1 {
                    self.slab[end - 1] = T::from_offset(n0 as u64 + 1);
                }
                self.cells[cell].set_len(len + 1);
                return;
            }
        }
        self.cascade(cell, ts_off);
    }

    /// The standalone cascade, in place: `v` joins level 0, and every
    /// level it overfills drops its oldest bucket and hands the next one
    /// up as the level above's newest — a bucket that is already where it
    /// belongs, next to the level boundary. So the sequence loses one
    /// bucket per merging level and gains `v` at its end.
    fn cascade(&mut self, cell: usize, v: T) {
        let cap = self.cap;
        let (len, levels) = (self.cells[cell].len(), self.cells[cell].levels());
        // Levels `0..merged` are full and merge a pair each; level `merged`
        // takes the last carry. `oldest` ends as the oldest merging
        // level's first position, `top` as the top level's bucket count.
        let (mut merged, mut oldest, mut top) = (0, len, 0);
        let end = self.run_end(cell);
        while merged < levels {
            let n = if merged + 1 < levels {
                self.slab[end - 1 - merged].count()
            } else {
                top = oldest;
                oldest
            };
            if n < cap {
                break;
            }
            oldest -= n;
            merged += 1;
        }
        let new_len = len + 1 - merged;
        let new_levels = levels.max(merged + 1);
        let start = self.cells[cell].start as usize;
        if start + run_slots(new_len, new_levels) > end {
            self.make_room(cell, run_slots(new_len, new_levels));
        }
        let (start, end) = (self.cells[cell].start as usize, self.run_end(cell));
        let slots = &mut self.slab[start..end];
        let last = slots.len() - 1;
        let count = |slots: &[T], i: usize| {
            if i + 1 < levels {
                slots[last - i].count()
            } else {
                top
            }
        };
        // Oldest merging level first: each drops its first bucket, and the
        // rest of it moves down past every bucket dropped so far.
        let mut dropped = 0;
        for i in (0..merged).rev() {
            let n = count(slots, i);
            dropped += 1;
            slots.copy_within(oldest + 1..oldest + n, oldest + 1 - dropped);
            oldest += n;
        }
        // Each merging level took one bucket and lost two. A merging top
        // level gains a count slot, as the level above it is new; that
        // slot may have held a bucket until the moves above.
        for i in 0..merged {
            let n = count(slots, i);
            slots[last - i] = T::from_offset(n as u64 - 1);
        }
        if merged + 1 < levels {
            let n = slots[last - merged].count();
            slots[last - merged] = T::from_offset(n as u64 + 1);
        }
        slots[new_len - 1] = v;
        let m = &mut self.cells[cell];
        m.set_shape(new_len, new_levels, m.flags());
    }

    /// `n` same-tick bits with one pass per level: the slab form of the
    /// standalone `push_bits_bulk`.
    ///
    /// The per-level update is fully closed-form. The level's arrivals are
    /// `e` explicit carry ends (each newer than everything stored, older
    /// than `ts`) followed by `run` buckets ending at `ts`; pops always
    /// take the two oldest present entries and keep the newer, so over the
    /// *virtual arrival sequence* — stored buckets oldest-first, then the
    /// explicit ends, then the `ts`-run — exactly the first `2q` positions
    /// are consumed and the carries out are positions `2, 4, …, 2q`, where
    /// `q` follows from the overflow count alone. That turns the standalone
    /// path's per-carry replay loop into: read ≤ `q` carry values, skip a
    /// consumed prefix, and keep the surviving stored buckets, explicit
    /// ends and `ts` buckets.
    ///
    /// Walking up from level 0, each level's new buckets are gathered
    /// newest first into a scratch tail; the levels the carries never
    /// reach keep their place at the front of the sequence, and the tail
    /// is written back behind them in one pass.
    ///
    /// Bit-identity with the standalone cascade is pinned down by the
    /// differential suites in this module and `tests/slab_layout.rs`.
    fn push_bits_bulk(&mut self, cell: usize, ts_off: T, n: u64) {
        let cap64 = self.cap as u64;
        let mut explicit = std::mem::take(&mut self.scratch_a);
        let mut out_explicit = std::mem::take(&mut self.scratch_b);
        let mut tail = std::mem::take(&mut self.scratch_tail);
        // New bucket counts of the levels the carries reach (a level-i
        // bucket holds 2^i bits, so at most 64 levels exist).
        let mut counts = [0u32; 64];
        let levels = self.cells[cell].levels();
        let (seq, below) = self.parts(cell);
        // Level i's stored buckets are `seq[end − nᵢ .. end]`.
        let mut end = seq.len();
        let mut run: u64 = n;
        let mut i = 0usize;
        while !explicit.is_empty() || run > 0 {
            let n_i = match i {
                i if i + 1 < levels => below[levels - 2 - i].count(),
                i if i + 1 == levels => end,
                _ => 0,
            };
            let stored = &seq[end - n_i..end];
            end -= n_i;
            let len = n_i as u64;
            let e = explicit.len() as u64;
            // Overflow pairs: the level tops up after `cap − len` pushes,
            // then every second push merges the two oldest entries.
            let free = cap64.saturating_sub(len);
            let arrivals = e + run;
            let q = if arrivals <= free {
                0
            } else {
                1 + (arrivals - free - 1) / 2
            };
            let two_q = 2 * q;
            // Carries out: virtual positions 2, 4, …, 2q (oldest-first
            // numbering over stored ∥ explicit ∥ ts-run). Stored positions
            // first, then explicit ones; every even position past `len + e`
            // is a ts bucket, counted below.
            out_explicit.clear();
            let mut p = 2u64;
            while p <= two_q.min(len) {
                out_explicit.push(stored[(p - 1) as usize]);
                p += 2;
            }
            while p <= two_q.min(len + e) {
                out_explicit.push(explicit[(p - len - 1) as usize]);
                p += 2;
            }
            let ts_carries = q - out_explicit.len() as u64;
            let stored_kept = &stored[two_q.min(len) as usize..];
            let explicit_kept =
                &explicit[(two_q.saturating_sub(len) as usize).min(explicit.len())..];
            let ts_kept = run - two_q.saturating_sub(len + e);
            // The level's buckets, newest first: the ts-run, the surviving
            // carries (in arrival order, so the last one is the newest),
            // then the surviving stored buckets.
            let before = tail.len();
            tail.extend(std::iter::repeat_n(ts_off, ts_kept as usize));
            tail.extend(explicit_kept.iter().rev());
            tail.extend(stored_kept.iter().rev());
            debug_assert!((tail.len() - before) as u64 <= cap64);
            counts[i] = (tail.len() - before) as u32;
            std::mem::swap(&mut explicit, &mut out_explicit);
            run = ts_carries;
            i += 1;
        }
        let touched = i;
        let new_levels = levels.max(touched);
        let new_len = end + tail.len();
        let need = run_slots(new_len, new_levels);
        if self.cells[cell].start as usize + need > self.run_end(cell) {
            self.make_room(cell, need);
        }
        let (start, run_end) = (self.cells[cell].start as usize, self.run_end(cell));
        let slots = &mut self.slab[start..run_end];
        for (slot, &v) in slots[end..new_len].iter_mut().zip(tail.iter().rev()) {
            *slot = v;
        }
        // Counts of the levels below the new top; those above `touched`
        // did not change.
        let last = slots.len() - 1;
        for (level, &c) in counts[..touched.min(new_levels - 1)].iter().enumerate() {
            slots[last - level] = T::from_offset(u64::from(c));
        }
        let m = &mut self.cells[cell];
        m.set_shape(new_len, new_levels, m.flags());
        explicit.clear();
        tail.clear();
        self.scratch_a = explicit;
        self.scratch_b = out_explicit;
        self.scratch_tail = tail;
    }

    /// Drop buckets that no longer overlap the window ending at `now`
    /// (sequence form of the standalone `expire`, which pops the top
    /// level's oldest bucket first — the sequence's front).
    fn expire(&mut self, cell: usize, now: u64) {
        let cutoff = now.saturating_sub(self.cfg.window);
        let m = &self.cells[cell];
        if cutoff == 0 || m.levels() == 0 {
            return;
        }
        // Fast path: the oldest bucket still overlaps the window and the
        // top level is not empty — nothing expires, nothing is trimmed.
        if m.flags() & TOP_MAYBE_EMPTY == 0
            && m.len() > 0
            && m.base + self.slab[m.start as usize].to_offset() > cutoff
        {
            return;
        }
        let m = *m;
        let (seq, _) = self.parts(cell);
        let popped = seq
            .iter()
            .take_while(|e| m.base + e.to_offset() <= cutoff)
            .count();
        let dropped_end = seq[..popped].iter().map(|e| m.base + e.to_offset()).max();
        // Pops empty the top level first; the levels they empty, and any
        // empty level right below them, are trimmed.
        let mut left = popped;
        let mut dropped_bits = 0u64;
        let mut levels = 0;
        for (level, seg) in self.levels_top_down(cell) {
            let take = left.min(seg.len());
            dropped_bits += (take as u64) << level;
            left -= take;
            if take < seg.len() {
                levels = level + 1;
                break;
            }
        }
        let start = m.start as usize;
        self.slab
            .copy_within(start + popped..start + m.len(), start);
        let m = &mut self.cells[cell];
        let mut flags = m.flags() & !TOP_MAYBE_EMPTY;
        m.total -= dropped_bits;
        if let Some(end) = dropped_end {
            m.dropped_end = match m.dropped_end() {
                Some(d) => d.max(end),
                None => end,
            };
            flags |= HAS_DROPPED;
        }
        m.set_shape(m.len() - popped, levels, flags);
    }

    /// Shift the cell's offset base forward to `new_base` (all retained
    /// ends must exceed it — guaranteed after `expire`).
    #[cold]
    fn rebase(&mut self, cell: usize, new_base: u64) {
        let m = self.cells[cell];
        debug_assert!(new_base >= m.base);
        let delta = new_base - m.base;
        let start = m.start as usize;
        for slot in &mut self.slab[start..start + m.len()] {
            let off = slot.to_offset();
            debug_assert!(off >= delta, "retained end older than the new base");
            *slot = T::from_offset(off - delta);
        }
        self.cells[cell].base = new_base;
    }

    /// Record `n` 1-bits at tick `ts` in `cell` — the slab mirror of the
    /// standalone `insert_ones`, including its small-burst/bulk threshold.
    fn insert_ones(&mut self, cell: usize, ts: u64, n: u64) {
        if n == 0 {
            return;
        }
        {
            let meta = &mut self.cells[cell];
            debug_assert!(
                meta.first_ts().is_none() || ts >= meta.last_ts,
                "timestamps must be non-decreasing: {ts} after {}",
                meta.last_ts
            );
            if meta.flags() & HAS_FIRST == 0 {
                meta.first_ts = ts;
                meta.set_shape(meta.len(), meta.levels(), meta.flags() | HAS_FIRST);
            }
            meta.last_ts = ts;
            meta.total += n;
            meta.lifetime += n;
        }
        self.expire(cell, ts);
        let mut base = self.cells[cell].base;
        if ts - base > T::MAX_OFFSET {
            // All retained ends exceed ts − window after the expiry above,
            // so the window start is always a safe new base.
            base = ts.saturating_sub(self.cfg.window);
            self.rebase(cell, base);
        }
        let ts_off = T::from_offset(ts - base);
        // Lower bulk threshold than the standalone path: the closed-form
        // level update is cheap enough here that per-bit cascades only win
        // for bursts well under one level capacity. (Both paths produce
        // bit-identical states, so the threshold is purely a cost choice.)
        if n < self.cap as u64 / 2 {
            for _ in 0..n {
                self.push_bit(cell, ts_off);
            }
        } else {
            self.push_bits_bulk(cell, ts_off, n);
        }
    }

    /// Estimated 1-bits with tick in `(now − range, now]` — bit-identical
    /// to the standalone `estimate`.
    fn estimate(&self, cell: usize, now: u64, range: u64) -> f64 {
        let meta = &self.cells[cell];
        let range = range.min(self.cfg.window);
        let cutoff = now.saturating_sub(range);
        let mut sum: f64 = 0.0;
        let mut oldest: Option<(u64, Option<u64>)> = None;
        for (i, seg) in self.levels_top_down(cell) {
            let len = seg.len();
            if len == 0 {
                continue;
            }
            // Entries strictly newer than `cutoff` (offsets ascend, like
            // the sequence's end-ticks).
            let in_range = match cutoff.checked_sub(meta.base) {
                None => len,
                Some(cut) => len - seg.partition_point(|e| e.to_offset() <= cut),
            };
            if in_range == 0 {
                continue;
            }
            sum += ((in_range as u64) << i) as f64;
            if oldest.is_none() {
                let prev_end = if in_range < len {
                    Some(meta.base + seg[len - 1 - in_range].to_offset())
                } else {
                    meta.dropped_end()
                };
                oldest = Some((1u64 << i, prev_end));
            }
        }
        if let Some((size, prev_end)) = oldest {
            let start = prev_end.or(meta.first_ts());
            let straddles = size > 1
                && match start {
                    Some(s) => s <= cutoff,
                    None => false,
                };
            if straddles {
                sum -= size as f64 / 2.0;
            }
        }
        sum
    }

    /// Byte-identical wire encoding of one cell (the standalone
    /// `WindowCounter::encode` format), produced straight from the run.
    fn encode_cell(&self, cell: usize, buf: &mut Vec<u8>) {
        let meta = &self.cells[cell];
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, meta.levels() as u64);
        for seg in self.levels_bottom_up(cell) {
            put_varint(buf, seg.len() as u64);
            let mut prev: Option<u64> = None;
            for e in seg.iter().rev() {
                let end = meta.base + e.to_offset();
                match prev {
                    None => put_varint(buf, end),
                    Some(p) => put_varint(buf, p - end),
                }
                prev = Some(end);
            }
        }
        put_varint(buf, meta.total);
        put_varint(buf, meta.last_ts);
        put_varint(buf, meta.lifetime);
        for tick in [meta.first_ts(), meta.dropped_end()] {
            match tick {
                Some(t) => {
                    put_u8(buf, 1);
                    put_varint(buf, t);
                }
                None => put_u8(buf, 0),
            }
        }
    }

    /// Materialize cell `cell` as a standalone histogram (per-cell deque
    /// layout, as the merge paths and differential tests consume).
    fn materialize(&self, cell: usize) -> ExponentialHistogram {
        let meta = &self.cells[cell];
        let levels = self
            .levels_bottom_up(cell)
            .map(|seg| {
                let mut deque = VecDeque::with_capacity(self.cap + 1);
                deque.extend(seg.iter().rev().map(|e| meta.base + e.to_offset()));
                deque
            })
            .collect();
        ExponentialHistogram::from_raw_parts(
            &self.cfg,
            levels,
            meta.total,
            meta.last_ts,
            meta.first_ts(),
            meta.dropped_end(),
            meta.lifetime,
        )
    }

    /// Σ `CellMeta::total` over `cells`: every 1-bit those cells still
    /// hold. A cell's `estimate` sums a subset of its held buckets (less
    /// half of one), so for every `now` and `range` their estimates sum to
    /// at most this. Saturating: decoded totals are each checked against
    /// their buckets, but a crafted grid of huge ones must not overflow
    /// their sum.
    fn held_in(&self, cells: Range<usize>) -> u64 {
        self.cells[cells]
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.total))
    }

    /// What `memory_bytes` reads for the same cells packed run against
    /// run, with no free slot and no scratch: the headers plus every cell's
    /// buckets and level counts.
    fn packed_bytes(&self) -> usize {
        let used: usize = self.cells.iter().map(CellMeta::used).sum();
        used * std::mem::size_of::<T>() + self.cells.len() * std::mem::size_of::<CellMeta>()
    }

    fn memory_bytes(&self) -> usize {
        let scratch =
            self.scratch_a.capacity() + self.scratch_b.capacity() + self.scratch_tail.capacity();
        (self.slab.capacity() + scratch) * std::mem::size_of::<T>()
            + self.cells.capacity() * std::mem::size_of::<CellMeta>()
    }

    /// Structural invariants (the slab analogue of the standalone
    /// `validate`), plus run sanity.
    fn validate(&self, cell: usize) -> Result<(), String> {
        let meta = &self.cells[cell];
        let end = self.run_end(cell);
        if (meta.start as usize) > end || meta.start as usize + meta.used() > end {
            return Err(format!("cell {cell}: buckets and counts overflow its run"));
        }
        let (seq, counts) = self.parts(cell);
        if counts.iter().map(|c| c.count()).sum::<usize>() > seq.len() {
            return Err(format!("cell {cell}: level counts exceed its buckets"));
        }
        let segs: Vec<&[T]> = self.levels_bottom_up(cell).collect();
        let mut sum = 0u64;
        for (level, seg) in segs.iter().enumerate() {
            if seg.len() > self.cap {
                return Err(format!(
                    "cell {cell} level {level} holds {} > {}",
                    seg.len(),
                    self.cap
                ));
            }
            if let Some(i) = seg
                .windows(2)
                .position(|w| w[0].to_offset() > w[1].to_offset())
            {
                return Err(format!("cell {cell} level {level} out of order at {i}"));
            }
            sum += (seg.len() as u64) << level;
        }
        for (level, pair) in segs.windows(2).enumerate() {
            if let (Some(oldest_lo), Some(newest_hi)) = (pair[0].first(), pair[1].last()) {
                if newest_hi.to_offset() > oldest_lo.to_offset() {
                    return Err(format!(
                        "cell {cell}: level {} bucket newer than level {level} bucket",
                        level + 1
                    ));
                }
            }
        }
        if sum != meta.total {
            return Err(format!(
                "cell {cell}: cached total {} != bucket sum {sum}",
                meta.total
            ));
        }
        Ok(())
    }
}

/// Build a slab holding already-decoded histograms, one exactly-sized run
/// each in cell order (shared by `from_counters` and `decode_grid`).
fn import_all<T: SlabWord>(cfg: &EhConfig, counters: &[ExponentialHistogram]) -> SlabCore<T> {
    let mut core = SlabCore::<T>::new(cfg, counters.len());
    let total: usize = counters
        .iter()
        .map(|c| run_slots(c.bucket_count(), c.raw_levels().len()))
        .sum();
    assert!(
        total <= u32::MAX as usize,
        "slab exceeds its u32 run offsets"
    );
    core.slab.reserve_exact(total);
    for (meta, eh) in core.cells.iter_mut().zip(counters) {
        let levels = eh.raw_levels();
        let (total, last_ts, first_ts, dropped_end, lifetime) = eh.raw_meta();
        let base = levels
            .iter()
            .flat_map(|l| l.iter().copied())
            .min()
            .unwrap_or(0);
        let start = core.slab.len();
        // Buckets oldest first: the top level's oldest down to level 0's
        // newest (a deque's front is its newest).
        for level in levels.iter().rev() {
            core.slab
                .extend(level.iter().rev().map(|&end| T::from_offset(end - base)));
        }
        let len = core.slab.len() - start;
        let below = levels.len().saturating_sub(1);
        core.slab.extend(
            levels[..below]
                .iter()
                .rev()
                .map(|l| T::from_offset(l.len() as u64)),
        );
        let mut flags = 0;
        if first_ts.is_some() {
            flags |= HAS_FIRST;
        }
        if dropped_end.is_some() {
            flags |= HAS_DROPPED;
        }
        if levels.last().is_some_and(VecDeque::is_empty) {
            flags |= TOP_MAYBE_EMPTY;
        }
        *meta = CellMeta {
            base,
            total,
            last_ts,
            first_ts: first_ts.unwrap_or(0),
            dropped_end: dropped_end.unwrap_or(0),
            lifetime,
            start: start as u32,
            shape: 0,
        };
        meta.set_shape(len, levels.len(), flags);
    }
    core
}

/// A grid of exponential-histogram cells backed by one contiguous slab —
/// the `CellStorage` the `ecm` crate's `EcmSketch<ExponentialHistogram>`
/// selects. See the [module docs](self) for the layout.
///
/// Windows shorter than `2³²` ticks store bucket end-ticks as `u32`
/// offsets (half the slab bytes); wider windows use a `u64` slab with the
/// same logic.
#[derive(Debug, Clone)]
pub struct EhGrid(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Narrow(SlabCore<u32>),
    Wide(SlabCore<u64>),
}

macro_rules! on_core {
    ($self:expr, $core:ident => $body:expr) => {
        match &$self.0 {
            Repr::Narrow($core) => $body,
            Repr::Wide($core) => $body,
        }
    };
}

macro_rules! on_core_mut {
    ($self:expr, $core:ident => $body:expr) => {
        match &mut $self.0 {
            Repr::Narrow($core) => $body,
            Repr::Wide($core) => $body,
        }
    };
}

impl EhGrid {
    /// A grid of `n_cells` empty histograms configured by `cfg`.
    pub fn new(cfg: &EhConfig, n_cells: usize) -> Self {
        if cfg.window < (1u64 << 32) {
            EhGrid(Repr::Narrow(SlabCore::new(cfg, n_cells)))
        } else {
            EhGrid(Repr::Wide(SlabCore::new(cfg, n_cells)))
        }
    }

    fn from_histograms(cfg: &EhConfig, counters: &[ExponentialHistogram]) -> Self {
        // Anything our own encoder produced spans less than one window per
        // cell, but the defensive per-cell decoder accepts wider states —
        // keep those addressable by falling back to the u64 slab.
        let narrow = cfg.window < (1u64 << 32)
            && counters.iter().all(|c| {
                let ends = || c.raw_levels().iter().flat_map(|l| l.iter().copied());
                match (ends().min(), ends().max()) {
                    (Some(lo), Some(hi)) => hi - lo <= u32::MAX as u64,
                    _ => true,
                }
            });
        if narrow {
            EhGrid(Repr::Narrow(import_all(cfg, counters)))
        } else {
            EhGrid(Repr::Wide(import_all(cfg, counters)))
        }
    }

    /// The shared cell configuration.
    pub fn config(&self) -> &EhConfig {
        on_core!(self, c => &c.cfg)
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        on_core!(self, c => c.cells.len())
    }

    /// The bytes the grid's cells need packed run against run: their
    /// headers plus the slots of the buckets and level counts they hold. A
    /// decoded grid takes exactly this; a live one also keeps the free
    /// slots its runs grew into.
    pub fn packed_bytes(&self) -> usize {
        on_core!(self, c => c.packed_bytes())
    }

    /// Read-only view of one cell.
    ///
    /// # Panics
    /// If `idx` is out of bounds.
    pub fn cell(&self, idx: usize) -> EhCellRef<'_> {
        assert!(idx < self.n_cells(), "cell {idx} out of bounds");
        EhCellRef { grid: self, idx }
    }

    /// Mutable view of one cell.
    ///
    /// # Panics
    /// If `idx` is out of bounds.
    pub fn cell_mut(&mut self, idx: usize) -> EhCellMut<'_> {
        assert!(idx < self.n_cells(), "cell {idx} out of bounds");
        EhCellMut { grid: self, idx }
    }
}

/// Read-only view of one slab cell, mirroring the standalone histogram's
/// query surface.
#[derive(Debug, Clone, Copy)]
pub struct EhCellRef<'a> {
    grid: &'a EhGrid,
    idx: usize,
}

impl EhCellRef<'_> {
    /// Estimated 1-bits with tick in `(now − range, now]`.
    pub fn estimate(&self, now: u64, range: u64) -> f64 {
        on_core!(self.grid, c => c.estimate(self.idx, now, range))
    }

    /// Unexpired 1-bits currently held.
    pub fn stored_ones(&self) -> u64 {
        on_core!(self.grid, c => c.cells[self.idx].total)
    }

    /// Lifetime 1-bits inserted.
    pub fn lifetime_ones(&self) -> u64 {
        on_core!(self.grid, c => c.cells[self.idx].lifetime)
    }

    /// Tick of the most recent insertion (0 if empty).
    pub fn last_tick(&self) -> u64 {
        on_core!(self.grid, c => c.cells[self.idx].last_ts)
    }

    /// Buckets currently held.
    pub fn bucket_count(&self) -> usize {
        on_core!(self.grid, c => c.cells[self.idx].len())
    }

    /// Copy the cell out as a standalone histogram.
    pub fn to_histogram(&self) -> ExponentialHistogram {
        on_core!(self.grid, c => c.materialize(self.idx))
    }

    /// Check the cell's structural invariants.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        on_core!(self.grid, c => c.validate(self.idx))
    }
}

/// Mutable view of one slab cell, mirroring the standalone histogram's
/// insert/expire surface (the cascade runs in place in the cell's run).
#[derive(Debug)]
pub struct EhCellMut<'a> {
    grid: &'a mut EhGrid,
    idx: usize,
}

impl EhCellMut<'_> {
    /// Record one 1-bit at tick `ts` (non-decreasing per cell).
    pub fn insert_one(&mut self, ts: u64) {
        self.insert_ones(ts, 1);
    }

    /// Record `n` 1-bits, all at tick `ts` — bit-identical to `n`
    /// [`insert_one`](Self::insert_one) calls.
    pub fn insert_ones(&mut self, ts: u64, n: u64) {
        on_core_mut!(self.grid, c => c.insert_ones(self.idx, ts, n));
    }

    /// Drop buckets that no longer overlap the window ending at `now`.
    pub fn expire(&mut self, now: u64) {
        on_core_mut!(self.grid, c => c.expire(self.idx, now));
    }

    /// Downgrade to a read-only view.
    pub fn as_ref(&self) -> EhCellRef<'_> {
        EhCellRef {
            grid: self.grid,
            idx: self.idx,
        }
    }
}

impl sealed::Sealed for EhGrid {}

impl CellStorage<ExponentialHistogram> for EhGrid {
    fn new_grid(cfg: &EhConfig, n_cells: usize) -> Self {
        EhGrid::new(cfg, n_cells)
    }

    fn n_cells(&self) -> usize {
        EhGrid::n_cells(self)
    }

    #[inline]
    fn insert(&mut self, idx: usize, ts: u64, _id: u64) {
        on_core_mut!(self, c => c.insert_ones(idx, ts, 1));
    }

    #[inline]
    fn insert_weighted(&mut self, idx: usize, ts: u64, _first_id: u64, n: u64) {
        on_core_mut!(self, c => c.insert_ones(idx, ts, n));
    }

    fn insert_run(&mut self, idx: usize, first_ts: u64, _first_id: u64, n: u64) {
        on_core_mut!(self, c => {
            for k in 0..n {
                c.insert_ones(idx, first_ts + k, 1);
            }
        });
    }

    #[inline]
    fn query(&self, idx: usize, now: u64, range: u64) -> f64 {
        on_core!(self, c => c.estimate(idx, now, range))
    }

    fn window_len(&self) -> u64 {
        self.config().window
    }

    fn memory_bytes(&self) -> usize {
        on_core!(self, c => c.memory_bytes())
    }

    fn encode_cell(&self, idx: usize, buf: &mut Vec<u8>) {
        on_core!(self, c => c.encode_cell(idx, buf));
    }

    fn decode_grid(cfg: &EhConfig, n_cells: usize, input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut counters = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            counters.push(ExponentialHistogram::decode(cfg, input)?);
        }
        Ok(EhGrid::from_histograms(cfg, &counters))
    }

    fn cell_ref(&self, idx: usize) -> Option<&ExponentialHistogram> {
        // Slab cells have no standalone representation to borrow.
        let _ = idx;
        None
    }

    fn materialize(&self, idx: usize) -> ExponentialHistogram {
        on_core!(self, c => c.materialize(idx))
    }

    fn from_counters(cfg: &EhConfig, counters: Vec<ExponentialHistogram>) -> Self {
        EhGrid::from_histograms(cfg, &counters)
    }

    fn held_ones_in(&self, cells: Range<usize>) -> Option<u64> {
        Some(on_core!(self, c => c.held_in(cells)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::WindowCounter;
    use proptest::prelude::*;

    /// Mirror of a grid cell as a standalone histogram, fed identically.
    fn encode_eh(eh: &ExponentialHistogram) -> Vec<u8> {
        let mut buf = Vec::new();
        eh.encode(&mut buf);
        buf
    }

    fn encode_cell(grid: &EhGrid, idx: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        CellStorage::encode_cell(grid, idx, &mut buf);
        buf
    }

    /// Drive one grid cell and one standalone histogram through the same
    /// op sequence, checking estimates and encodings at every step.
    fn differential(cfg: &EhConfig, ops: &[(u64, u64)]) {
        let mut grid = EhGrid::new(cfg, 1);
        let mut eh = ExponentialHistogram::new(cfg);
        for &(ts, n) in ops {
            grid.cell_mut(0).insert_ones(ts, n);
            eh.insert_ones(ts, n);
        }
        grid.cell(0).validate().expect("slab invariants");
        eh.validate().expect("deque invariants");
        let now = ops.last().map(|&(ts, _)| ts).unwrap_or(0);
        for range in [0, 1, 3, cfg.window / 7 + 1, cfg.window / 2, cfg.window] {
            assert_eq!(
                grid.cell(0).estimate(now, range).to_bits(),
                eh.estimate(now, range).to_bits(),
                "range {range}"
            );
        }
        assert_eq!(grid.cell(0).stored_ones(), eh.stored_ones());
        assert_eq!(grid.cell(0).bucket_count(), eh.bucket_count());
        assert_eq!(encode_cell(&grid, 0), encode_eh(&eh), "wire bytes differ");
        // Materialized cells are the histogram, byte for byte.
        assert_eq!(encode_eh(&grid.cell(0).to_histogram()), encode_eh(&eh));
    }

    #[test]
    fn matches_per_cell_histogram_on_dense_stream() {
        let cfg = EhConfig::new(0.1, 1_000);
        let ops: Vec<(u64, u64)> = (1..=5_000u64).map(|t| (t, 1)).collect();
        differential(&cfg, &ops);
    }

    #[test]
    fn matches_per_cell_histogram_on_bursts() {
        let cfg = EhConfig::new(0.05, 10_000);
        let mut ops = Vec::new();
        let mut ts = 1u64;
        for i in 0..600u64 {
            ts += i % 37;
            // Mix sub-threshold and bulk-path burst sizes.
            ops.push((ts, 1 + (i * i) % 513));
        }
        differential(&cfg, &ops);
    }

    #[test]
    fn matches_per_cell_histogram_across_gaps_and_expiry() {
        let cfg = EhConfig::new(0.2, 100);
        let ops = [
            (1, 5),
            (2, 1),
            (90, 300),
            (150, 2),
            (151, 1),
            (4_000, 7),
            (4_001, 1_000),
            (100_000, 1),
        ];
        differential(&cfg, &ops);
    }

    #[test]
    fn u32_offsets_rebase_across_the_word_boundary() {
        // Window fits u32, but ticks march far past it: the narrow slab
        // must rebase and stay bit-identical.
        let cfg = EhConfig::new(0.1, 1_000);
        assert!(matches!(EhGrid::new(&cfg, 1).0, Repr::Narrow(_)));
        let mut ops = Vec::new();
        let mut ts = 1u64;
        for i in 0..40u64 {
            ts += (1u64 << 30) + i; // crosses u32::MAX repeatedly
            ops.push((ts, 1 + i % 80));
        }
        differential(&cfg, &ops);
    }

    #[test]
    fn wide_windows_use_the_u64_slab() {
        let cfg = EhConfig::new(0.25, 1u64 << 33);
        let grid = EhGrid::new(&cfg, 2);
        assert!(matches!(grid.0, Repr::Wide(_)));
        let ops: Vec<(u64, u64)> = (1..300u64).map(|i| (i * (1 << 22), 1 + i % 9)).collect();
        differential(&cfg, &ops);
    }

    #[test]
    fn grid_cells_are_independent() {
        let cfg = EhConfig::new(0.1, 500);
        let mut grid = EhGrid::new(&cfg, 3);
        let mut mirrors: Vec<ExponentialHistogram> =
            (0..3).map(|_| ExponentialHistogram::new(&cfg)).collect();
        for t in 1..=2_000u64 {
            let cell = (t % 3) as usize;
            grid.cell_mut(cell).insert_ones(t, 1 + t % 4);
            mirrors[cell].insert_ones(t, 1 + t % 4);
        }
        for (i, eh) in mirrors.iter().enumerate() {
            assert_eq!(encode_cell(&grid, i), encode_eh(eh), "cell {i}");
            grid.cell(i).validate().unwrap();
        }
    }

    #[test]
    fn decode_grid_round_trips_and_matches_per_cell_decoder() {
        let cfg = EhConfig::new(0.1, 1_000);
        let mut grid = EhGrid::new(&cfg, 4);
        for t in 1..=3_000u64 {
            grid.cell_mut((t % 4) as usize).insert_ones(t, 1 + t % 3);
        }
        let mut wire = Vec::new();
        for i in 0..4 {
            CellStorage::encode_cell(&grid, i, &mut wire);
        }
        let mut input = wire.as_slice();
        let back = <EhGrid as CellStorage<ExponentialHistogram>>::decode_grid(&cfg, 4, &mut input)
            .expect("round trip");
        assert!(input.is_empty());
        for i in 0..4 {
            assert_eq!(encode_cell(&back, i), encode_cell(&grid, i), "cell {i}");
            assert_eq!(
                back.cell(i).estimate(3_000, 500).to_bits(),
                grid.cell(i).estimate(3_000, 500).to_bits()
            );
        }
        // Truncated inputs fail exactly like the per-cell decoder.
        for cut in [0, 1, wire.len() / 2, wire.len() - 1] {
            let mut input = &wire[..cut];
            assert!(
                <EhGrid as CellStorage<ExponentialHistogram>>::decode_grid(&cfg, 4, &mut input)
                    .is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn slab_is_denser_than_per_cell_layout() {
        let cfg = EhConfig::new(0.05, 1 << 20);
        let n = 64usize;
        let mut grid = EhGrid::new(&cfg, n);
        let mut cells: Vec<ExponentialHistogram> =
            (0..n).map(|_| ExponentialHistogram::new(&cfg)).collect();
        for t in 1..=200_000u64 {
            let cell = (t % n as u64) as usize;
            grid.cell_mut(cell).insert_ones(t, 1);
            cells[cell].insert_ones(t, 1);
        }
        let slab = CellStorage::<ExponentialHistogram>::memory_bytes(&grid);
        let per_cell: usize = cells.iter().map(WindowCounter::memory_bytes).sum();
        assert!(
            (slab as f64) <= 0.7 * per_cell as f64,
            "slab {slab} must undercut per-cell {per_cell} by ≥30%"
        );
    }

    /// Ticks of a sparse stream over `n` cells whose popularity follows
    /// Zipf(1): a few busy cells, a long tail of nearly idle ones.
    fn sparse_zipf_stream(n: usize, events: usize, seed: u64) -> Vec<(usize, u64)> {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let sum: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / sum;
            cdf.push(acc);
        }
        let mut x = seed | 1;
        let mut next = move || {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ts = 1u64;
        (0..events)
            .map(|_| {
                ts += (next() * 40.0) as u64;
                let u = next();
                let cell = cdf.partition_point(|&c| c < u).min(n - 1);
                // Scatter the ranks over the grid, as hashing does.
                ((cell * 37) % n, ts)
            })
            .collect()
    }

    #[test]
    fn a_grid_holds_its_metadata_and_about_the_buckets_its_cells_held() {
        // The compact metadata: six u64 scalars, the run start and the
        // packed bucket/level/flag word.
        assert_eq!(std::mem::size_of::<CellMeta>(), 56);
        let cfg = EhConfig::new(0.05, 2_000);
        let n = 168;
        let mut grid = EhGrid::new(&cfg, n);
        let mut most_used = vec![0usize; n];
        for (cell, ts) in sparse_zipf_stream(n, 40_000, 7) {
            grid.cell_mut(cell).insert_one(ts);
            if let Repr::Narrow(core) = &grid.0 {
                most_used[cell] = most_used[cell].max(core.cells[cell].used());
            }
        }
        let held: usize = most_used.iter().sum();
        let touched = most_used.iter().filter(|&&u| u > 0).count();
        // A rebuild gives every run twice what its cell holds plus one
        // slot, and runs only trade free slots between rebuilds: the slab
        // stays within twice the cells' lifetime-max slots plus one per
        // cell that ever held a bucket.
        let bound =
            n * std::mem::size_of::<CellMeta>() + (2 * held + touched) * std::mem::size_of::<u32>();
        let bytes = CellStorage::<ExponentialHistogram>::memory_bytes(&grid);
        assert!(
            bytes <= bound,
            "{bytes} B > {bound} B for {held} slots held at most"
        );
        // The fixed per-level layout this replaced spent a 72-byte header
        // and, per level, a full level's slots and an 8-byte cursor on
        // every cell: even at one level, well over half as much again.
        let one_level_each = n * (72 + cfg.level_capacity() * 4 + 8);
        assert!(
            10 * bytes <= 6 * one_level_each,
            "{bytes} B vs {one_level_each} B"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random op sequences: gaps, bursts across the bulk threshold,
        /// long silences — the slab cell and the standalone histogram
        /// never diverge.
        #[test]
        fn prop_slab_matches_per_cell(
            seed_ops in proptest::collection::vec((0u64..5_000, 1u64..400), 1..120),
            narrow_window in 1u64..10_000,
            wide in 0u32..4,
            eps in 0.02f64..0.9,
        ) {
            // One case in four runs on the u64 (wide-window) slab.
            let window = if wide == 0 { 1u64 << 33 } else { narrow_window };
            let cfg = EhConfig::new(eps, window);
            let mut ts = 0u64;
            let ops: Vec<(u64, u64)> = seed_ops
                .into_iter()
                .map(|(gap, n)| {
                    ts += gap;
                    (ts.max(1), n)
                })
                .collect();
            differential(&cfg, &ops);
        }

        /// Cells that outgrow their runs, expire to nothing and grow again,
        /// side by side in one grid so their runs trade free slots and the
        /// slab is rebuilt under them: every cell stays bit-identical to a
        /// standalone histogram fed the same ops — estimates over a spread
        /// of ranges, and wire bytes — on both slab widths.
        #[test]
        fn prop_cells_grow_expire_and_regrow_like_standalone_histograms(
            ops in proptest::collection::vec(((0usize..5, 0u32..12), (0u64..40, 1u64..300)), 1..150),
            narrow_window in 50u64..2_000,
            wide in 0u32..3,
            eps in 0.05f64..0.5,
        ) {
            let window = if wide == 0 { 1u64 << 33 } else { narrow_window };
            let cfg = EhConfig::new(eps, window);
            let mut grid = EhGrid::new(&cfg, 5);
            let mut mirrors: Vec<ExponentialHistogram> =
                (0..5).map(|_| ExponentialHistogram::new(&cfg)).collect();
            let mut ts = 1u64;
            for &((cell, phase), (gap, n)) in &ops {
                // One op in twelve jumps past the window: the cell it
                // lands on expires to nothing before it grows again.
                ts += if phase == 0 { window + gap } else { gap };
                grid.cell_mut(cell).insert_ones(ts, n);
                mirrors[cell].insert_ones(ts, n);
                for (i, eh) in mirrors.iter().enumerate() {
                    let c = grid.cell(i);
                    prop_assert!(c.validate().is_ok(), "cell {}: {:?}", i, c.validate());
                    for range in [1, 2, window / 9 + 1, window / 2, window] {
                        prop_assert_eq!(
                            c.estimate(ts, range).to_bits(),
                            eh.estimate(ts, range).to_bits(),
                            "cell {} range {}", i, range
                        );
                    }
                    prop_assert_eq!(encode_cell(&grid, i), encode_eh(eh), "cell {}", i);
                }
            }
        }

        /// The bound rankings prune with, and the lemma under it. After
        /// every step of an arbitrary interleaving of the write surface
        /// (`insert`, `insert_weighted`, `insert_run`, `expire`, gaps wide
        /// enough to rebase the `u32` slab, encode → decode, and a merge
        /// stored back through `from_counters`), on both slab widths:
        /// `held_ones` is the sum of the cells' `stored_ones` (and
        /// `validate` agrees), and no cell's `estimate` exceeds its
        /// `stored_ones` — for any `now`, behind the last tick included,
        /// and any `range`, beyond the window included.
        #[test]
        fn prop_held_bounds_every_estimate(
            ops in proptest::collection::vec(((0u64..8, 0usize..3), (0u64..5_000, 1u64..400)), 1..80),
            narrow_window in 1u64..10_000,
            wide in 0u32..3,
            eps in 0.02f64..0.9,
        ) {
            use crate::traits::MergeableCounter;
            type Grid = EhGrid;
            let window = if wide == 0 { 1u64 << 33 } else { narrow_window };
            let cfg = EhConfig::new(eps, window);
            let mut grid = Grid::new(&cfg, 3);
            let mut ts = 1u64;
            for (step, &((op, cell), (gap, n))) in ops.iter().enumerate() {
                ts += gap;
                match op {
                    0 | 1 => CellStorage::insert(&mut grid, cell, ts, 0),
                    2 => CellStorage::insert_weighted(&mut grid, cell, ts, 0, n),
                    3 => {
                        CellStorage::insert_run(&mut grid, cell, ts, 0, n);
                        ts += n - 1;
                    }
                    4 => grid.cell_mut(cell).expire(ts),
                    5 => {
                        ts += 1u64 << 32;
                        CellStorage::insert_weighted(&mut grid, cell, ts, 0, n);
                    }
                    6 => {
                        let mut wire = Vec::new();
                        for i in 0..3 {
                            CellStorage::encode_cell(&grid, i, &mut wire);
                        }
                        let mut input = wire.as_slice();
                        grid = <Grid as CellStorage<ExponentialHistogram>>::decode_grid(
                            &cfg, 3, &mut input,
                        )
                        .expect("own encoding decodes");
                    }
                    _ => {
                        let cells: Vec<ExponentialHistogram> =
                            (0..3).map(|i| grid.cell(i).to_histogram()).collect();
                        let other = (cell + 1) % 3;
                        let merged =
                            ExponentialHistogram::merge(&[&cells[cell], &cells[other]], &cfg)
                                .expect("same config merges");
                        let mut next = cells.clone();
                        next[cell] = merged;
                        grid = <Grid as CellStorage<ExponentialHistogram>>::from_counters(
                            &cfg, next,
                        );
                    }
                }
                let stored: u64 = (0..3).map(|i| grid.cell(i).stored_ones()).sum();
                prop_assert_eq!(
                    CellStorage::<ExponentialHistogram>::held_ones(&grid),
                    Some(stored),
                    "step {} op {}", step, op
                );
                for i in 0..3 {
                    let c = grid.cell(i);
                    prop_assert!(c.validate().is_ok(), "step {} op {}: {:?}", step, op, c.validate());
                    let held = c.stored_ones() as f64;
                    for now in [0, c.last_tick() / 2, c.last_tick(), ts, ts + 2 * window, u64::MAX] {
                        for range in [0, 1, gap, window / 2, window, 3 * window, u64::MAX] {
                            prop_assert!(
                                c.estimate(now, range) <= held,
                                "step {} cell {}: estimate({}, {}) = {} > held {}",
                                step, i, now, range, c.estimate(now, range), held
                            );
                        }
                    }
                }
            }
        }
    }
}
