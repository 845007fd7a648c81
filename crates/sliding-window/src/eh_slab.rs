//! Slab-backed grids of exponential histograms — the contiguous
//! fixed-capacity EH core behind `EcmSketch<ExponentialHistogram>`.
//!
//! A standalone [`ExponentialHistogram`] keeps each bucket level in its own
//! `VecDeque<u64>`: flexible, but a `width × depth` grid of them fragments
//! into thousands of small allocations that inserts and queries chase
//! across the heap. The key observation is that the EH level capacity is
//! **fixed at construction** (`EhConfig::level_capacity()`), so a level
//! never needs a growable container: [`EhGrid`] carves every level of every
//! cell out of **one contiguous slab** for the whole grid, as a
//! fixed-capacity ring addressed by a `(head, len)` cursor:
//!
//! ```text
//! slab: ┌─────────── cell 0 ──────────┬─────────── cell 1 ──────────┬─ ...
//!       │ lvl0 ring │ lvl1 ring │ ... │ lvl0 ring │ lvl1 ring │ ... │
//!       └───────────┴───────────┴─────┴───────────┴───────────┴─────┘
//!        each ring: `cap` slots; cursors (head, len) live in a parallel
//!        array; cells are laid out row-major in grid order, so the d
//!        cells one item touches are the only cache misses per insert.
//! ```
//!
//! Two further layout savings over the per-cell representation:
//!
//! * **Offset compression** — bucket end-ticks of one cell always span less
//!   than one window (`expire` runs on every insert), so for windows below
//!   `2³²` ticks they are stored as `u32` offsets from a per-cell base that
//!   is rebased (rarely) as the stream advances. Wider windows fall back to
//!   a `u64` slab.
//! * **No per-level containers** — a level costs `cap` slots plus one 4-byte
//!   cursor instead of a 32-byte `VecDeque` header plus its own allocation.
//!
//! Cell state transitions are an exact mirror of the standalone
//! histogram's insert/cascade/expire/estimate logic — same bucket
//! sequences, same estimates bit for bit, and byte-identical wire
//! encodings (the differential suites in this module and in
//! `tests/slab_layout.rs` pin this down). The only reordering is inside the
//! cascade: where the deque pushes then pops on overflow, the ring pops the
//! two oldest buckets *before* pushing, which never needs more than `cap`
//! slots and provably yields the same bucket sequence.
//!
//! The number of levels grows with the stream (one level per doubling of
//! the in-window count); the grid grows all cells' level allocation
//! together, re-laying out the slab — a handful of `O(slab)` copies over a
//! sketch's lifetime.

use crate::codec::{put_u8, put_varint};
use crate::error::CodecError;
use crate::exponential_histogram::{EhConfig, ExponentialHistogram, CODEC_VERSION};
use crate::grid::{sealed, CellStorage};
use crate::traits::WindowCounter;
use std::collections::VecDeque;
use std::ops::Range;

/// Slab element: a bucket end-tick stored as an offset from its cell's
/// base tick.
trait SlabWord: Copy + Default + std::fmt::Debug {
    /// Largest storable offset.
    const MAX_OFFSET: u64;
    fn from_offset(v: u64) -> Self;
    fn to_offset(self) -> u64;
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

/// `(head, len)` cursor of one level's ring. `head` indexes the newest
/// bucket; logical position `i` (newest-first) lives at slot
/// `(head + i) mod slots`.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u32,
    len: u32,
}

/// Per-cell metadata: the standalone histogram's scalar fields plus the
/// offset base.
#[derive(Debug, Clone, Copy, Default)]
struct CellMeta {
    /// Active level count (trailing empty levels trimmed), mirroring the
    /// standalone `levels.len()`.
    levels: u16,
    /// Base tick the cell's slab offsets are relative to.
    base: u64,
    /// Unexpired 1-bits currently held.
    total: u64,
    /// Tick of the most recent insertion.
    last_ts: u64,
    /// Tick of the first insertion ever, if any.
    first_ts: Option<u64>,
    /// End-tick of the most recently expired bucket.
    dropped_end: Option<u64>,
    /// Lifetime 1-bits inserted.
    lifetime: u64,
}

/// Push `v` as the newest entry of a level ring (the slice is the level's
/// full slot range; capacity checks are the caller's cascade logic).
#[inline]
fn rpush_front<T: Copy>(ring: &mut Ring, slab: &mut [T], v: T) {
    debug_assert!((ring.len as usize) < slab.len(), "ring over capacity");
    let head = if ring.head == 0 {
        (slab.len() - 1) as u32
    } else {
        ring.head - 1
    };
    ring.head = head;
    ring.len += 1;
    slab[head as usize] = v;
}

/// Pop and return the oldest entry of a level ring.
#[inline]
fn rpop_back<T: Copy>(ring: &mut Ring, slab: &[T]) -> T {
    debug_assert!(ring.len > 0, "pop from empty ring");
    ring.len -= 1;
    let mut pos = (ring.head as usize) + (ring.len as usize);
    if pos >= slab.len() {
        pos -= slab.len();
    }
    slab[pos]
}

/// The slab proper, generic over the stored word.
#[derive(Debug, Clone)]
struct SlabCore<T> {
    cfg: EhConfig,
    /// Max buckets a level holds at rest (`EhConfig::level_capacity()`).
    cap: usize,
    /// Ring slots per level (`cap`, or one more after decoding a
    /// defensively-tolerated over-full level).
    slots: usize,
    /// Levels currently allocated per cell (uniform across the grid).
    levels_alloc: usize,
    /// `n_cells × levels_alloc × slots` bucket end-offsets.
    slab: Vec<T>,
    /// `n_cells × levels_alloc` ring cursors.
    rings: Vec<Ring>,
    cells: Vec<CellMeta>,
    /// Reusable carry buffers for the bulk cascade (≤ `cap` entries each);
    /// keeping them here removes the two heap allocations the standalone
    /// bulk path pays per insert.
    scratch_a: Vec<T>,
    scratch_b: Vec<T>,
}

impl<T: SlabWord> SlabCore<T> {
    fn new(cfg: &EhConfig, n_cells: usize) -> Self {
        let cap = cfg.level_capacity();
        assert!(cap >= 2, "level capacity must hold a merge pair");
        assert!(
            cap + 1 < u32::MAX as usize,
            "level capacity exceeds ring cursor range"
        );
        SlabCore {
            cfg: cfg.clone(),
            cap,
            slots: cap,
            levels_alloc: 0,
            slab: Vec::new(),
            rings: Vec::new(),
            cells: vec![CellMeta::default(); n_cells],
            scratch_a: Vec::with_capacity(cap),
            scratch_b: Vec::with_capacity(cap),
        }
    }

    /// Grow the per-cell level allocation to `need`, re-laying out the slab
    /// (exact-size allocations keep `memory_bytes` equal to what is used).
    #[cold]
    fn grow_levels(&mut self, need: usize) {
        debug_assert!(need > self.levels_alloc);
        let n_cells = self.cells.len();
        let old_alloc = self.levels_alloc;
        let mut slab = vec![T::default(); n_cells * need * self.slots];
        let mut rings = vec![Ring::default(); n_cells * need];
        for cell in 0..n_cells {
            let old_base = cell * old_alloc;
            let new_base = cell * need;
            slab[new_base * self.slots..(new_base + old_alloc) * self.slots].copy_from_slice(
                &self.slab[old_base * self.slots..(old_base + old_alloc) * self.slots],
            );
            rings[new_base..new_base + old_alloc]
                .copy_from_slice(&self.rings[old_base..old_base + old_alloc]);
        }
        self.slab = slab;
        self.rings = rings;
        self.levels_alloc = need;
    }

    /// Mark level `level` active for `cell`, allocating grid-wide if this is
    /// the first cell to reach it. Mirrors the standalone
    /// `levels.push(VecDeque::new())`.
    #[inline]
    fn activate_level(&mut self, cell: usize, level: usize) {
        debug_assert_eq!((self.cells[cell].levels as usize), level);
        if level >= self.levels_alloc {
            self.grow_levels(level + 1);
        }
        self.cells[cell].levels = (level + 1) as u16;
    }

    #[inline]
    fn ring_index(&self, cell: usize, level: usize) -> usize {
        cell * self.levels_alloc + level
    }

    #[inline]
    fn len_of(&self, cell: usize, level: usize) -> usize {
        self.rings[self.ring_index(cell, level)].len as usize
    }

    /// Slab slot of logical position `i` (0 = newest) of a level's ring.
    #[inline]
    fn slot_of(&self, cell: usize, level: usize, i: usize) -> usize {
        let ring = self.rings[self.ring_index(cell, level)];
        debug_assert!(i < (ring.len as usize));
        let mut pos = (ring.head as usize) + i;
        if pos >= self.slots {
            pos -= self.slots;
        }
        self.ring_index(cell, level) * self.slots + pos
    }

    /// Reconstructed end-tick at logical position `i` (0 = newest).
    #[inline]
    fn end_at(&self, cell: usize, level: usize, i: usize) -> u64 {
        self.cells[cell].base + self.slab[self.slot_of(cell, level, i)].to_offset()
    }

    /// Ring cursor and slab slice of one level, borrowed together for the
    /// hot loops (one bounds check per level instead of one per bucket op).
    #[inline]
    fn level_parts(&mut self, cell: usize, level: usize) -> (&mut Ring, &mut [T]) {
        let ri = cell * self.levels_alloc + level;
        let slots = self.slots;
        (
            &mut self.rings[ri],
            &mut self.slab[ri * slots..(ri + 1) * slots],
        )
    }

    /// One bit through the cascade: the ring form of the standalone
    /// `push_bit`, popping the merge pair *before* pushing so `cap` slots
    /// always suffice. Produces the identical bucket sequence.
    fn push_bit(&mut self, cell: usize, ts_off: T) {
        let cap = self.cap;
        if self.cells[cell].levels == 0 {
            self.activate_level(cell, 0);
        }
        // Fast path: level 0 has room — the overwhelmingly common case.
        let (ring, slab) = self.level_parts(cell, 0);
        if (ring.len as usize) < cap {
            rpush_front(ring, slab, ts_off);
            return;
        }
        let mut v = ts_off;
        let mut i = 0usize;
        loop {
            let (ring, slab) = self.level_parts(cell, i);
            let carry = if (ring.len as usize) >= cap {
                let _older = rpop_back(ring, slab);
                Some(rpop_back(ring, slab))
            } else {
                None
            };
            rpush_front(ring, slab, v);
            match carry {
                None => return,
                Some(newer) => {
                    // The merged bucket enters the next level newest-first,
                    // exactly like the standalone cascade.
                    v = newer;
                    i += 1;
                    if (self.cells[cell].levels as usize) == i {
                        self.activate_level(cell, i);
                    }
                }
            }
        }
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
    /// path's per-carry replay loop into: read ≤ `q` carry values, drop a
    /// prefix by cursor arithmetic, push the surviving explicit ends, and
    /// block-fill the surviving `ts` buckets. (The carry buffers are
    /// scratch fields, reused across calls instead of allocated per call.)
    ///
    /// Bit-identity with the standalone cascade is pinned down by the
    /// differential suites in this module and `tests/slab_layout.rs`.
    fn push_bits_bulk(&mut self, cell: usize, ts_off: T, n: u64) {
        let cap64 = self.cap as u64;
        let mut explicit = std::mem::take(&mut self.scratch_a);
        let mut out_explicit = std::mem::take(&mut self.scratch_b);
        explicit.clear();
        let mut run: u64 = n;
        let mut i = 0usize;
        let mut active = self.cells[cell].levels as usize;
        while !explicit.is_empty() || run > 0 {
            if i == active {
                if i >= self.levels_alloc {
                    self.grow_levels(i + 1);
                }
                active = i + 1;
            }
            let slots = self.slots;
            let (ring, slab) = self.level_parts(cell, i);
            // Cursors as locals for the whole level; written back once.
            let mut head = ring.head as usize;
            let mut len_l = ring.len as usize;
            let len = len_l as u64;
            let e = explicit.len() as u64;
            let arrivals = e + run;
            // Overflow pairs: the level tops up after `cap − len` pushes,
            // then every second push merges the two oldest entries.
            let free = cap64.saturating_sub(len);
            let q = if arrivals <= free {
                0
            } else {
                1 + (arrivals - free - 1) / 2
            };
            out_explicit.clear();
            if q > 0 {
                // Carries out: virtual positions 2, 4, …, 2q (oldest-first
                // numbering over stored ∥ explicit ∥ ts-run). Stored
                // positions first …
                let two_q = 2 * q;
                let mut p = 2u64;
                let stored_last = two_q.min(len);
                while p <= stored_last {
                    let mut pos = head + (len - p) as usize;
                    if pos >= slots {
                        pos -= slots;
                    }
                    out_explicit.push(slab[pos]);
                    p += 2;
                }
                // … then explicit positions; every even position past
                // `len + e` is a ts bucket, counted below.
                let explicit_last = two_q.min(len + e);
                while p <= explicit_last {
                    out_explicit.push(explicit[(p - len - 1) as usize]);
                    p += 2;
                }
                // Drop the consumed oldest prefix by cursor arithmetic.
                len_l -= two_q.min(len) as usize;
            }
            let ts_carries = q - out_explicit.len() as u64;
            // Surviving explicit ends enter newest-first, in arrival order.
            let e_consumed = ((2 * q).saturating_sub(len) as usize).min(explicit.len());
            for &end in &explicit[e_consumed..] {
                head = if head == 0 { slots - 1 } else { head - 1 };
                slab[head] = end;
                len_l += 1;
            }
            // Surviving ts buckets all hold the same offset: fill the front
            // slots as a block (wrapping at most once; `ts_kept` never
            // exceeds the slot count, so wraparound is compares, not a
            // division).
            let ts_kept = (run - (2 * q).saturating_sub(len + e)) as usize;
            if ts_kept > 0 {
                let mut new_head = head + slots - ts_kept;
                if new_head >= slots {
                    new_head -= slots;
                }
                if new_head < head {
                    slab[new_head..head].fill(ts_off);
                } else {
                    slab[new_head..].fill(ts_off);
                    slab[..head].fill(ts_off);
                }
                head = new_head;
                len_l += ts_kept;
            }
            debug_assert!(len_l as u64 <= cap64);
            ring.head = head as u32;
            ring.len = len_l as u32;
            std::mem::swap(&mut explicit, &mut out_explicit);
            run = ts_carries;
            i += 1;
        }
        self.cells[cell].levels = active as u16;
        self.scratch_a = explicit;
        self.scratch_b = out_explicit;
    }

    /// Drop buckets that no longer overlap the window ending at `now`
    /// (ring form of the standalone `expire`).
    fn expire(&mut self, cell: usize, now: u64) {
        let cutoff = now.saturating_sub(self.cfg.window);
        if cutoff == 0 {
            return;
        }
        let base = self.cells[cell].base;
        let levels = self.cells[cell].levels as usize;
        if levels == 0 {
            return;
        }
        // Fast path: the oldest retained bucket (back of the top level)
        // still overlaps the window — nothing expires.
        {
            let (a, b) = self.level_slices(cell, levels - 1);
            if let Some(oldest) = b.last().or(a.last()) {
                if base + oldest.to_offset() > cutoff {
                    return;
                }
            }
        }
        let mut dropped_bits = 0u64;
        let mut dropped_end: Option<u64> = None;
        'levels: for i in (0..levels).rev() {
            let size = 1u64 << i;
            let (ring, slab) = self.level_parts(cell, i);
            while ring.len > 0 {
                let slots = slab.len();
                let mut pos = (ring.head as usize) + (ring.len as usize) - 1;
                if pos >= slots {
                    pos -= slots;
                }
                let end = base + slab[pos].to_offset();
                if end > cutoff {
                    break 'levels;
                }
                ring.len -= 1;
                dropped_bits += size;
                // Pops proceed oldest-first, so ends only grow: the last
                // one popped is the max, matching the per-pop max fold of
                // the standalone path.
                dropped_end = Some(end);
            }
        }
        if dropped_bits > 0 {
            let meta = &mut self.cells[cell];
            meta.total -= dropped_bits;
            if let Some(end) = dropped_end {
                meta.dropped_end = Some(match meta.dropped_end {
                    Some(d) => d.max(end),
                    None => end,
                });
            }
        }
        let mut active = self.cells[cell].levels as usize;
        while active > 0 && self.len_of(cell, active - 1) == 0 {
            active -= 1;
        }
        self.cells[cell].levels = active as u16;
    }

    /// Shift the cell's offset base forward to `new_base` (all retained
    /// ends must exceed it — guaranteed after `expire`).
    #[cold]
    fn rebase(&mut self, cell: usize, new_base: u64) {
        let old_base = self.cells[cell].base;
        debug_assert!(new_base >= old_base);
        let delta = new_base - old_base;
        for level in 0..(self.cells[cell].levels as usize) {
            for i in 0..self.len_of(cell, level) {
                let slot = self.slot_of(cell, level, i);
                let off = self.slab[slot].to_offset();
                debug_assert!(off >= delta, "retained end older than the new base");
                self.slab[slot] = T::from_offset(off - delta);
            }
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
                meta.first_ts.is_none() || ts >= meta.last_ts,
                "timestamps must be non-decreasing: {ts} after {}",
                meta.last_ts
            );
            if meta.first_ts.is_none() {
                meta.first_ts = Some(ts);
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

    /// A level's occupied slots as two newest-first slices (the ring
    /// analogue of `VecDeque::as_slices`).
    #[inline]
    fn level_slices(&self, cell: usize, level: usize) -> (&[T], &[T]) {
        let ri = cell * self.levels_alloc + level;
        let slots = self.slots;
        let slab = &self.slab[ri * slots..(ri + 1) * slots];
        let ring = self.rings[ri];
        let head = ring.head as usize;
        let len = ring.len as usize;
        if head + len <= slots {
            (&slab[head..head + len], &[])
        } else {
            (&slab[head..], &slab[..head + len - slots])
        }
    }

    /// Number of leading (newest-side) entries of a level strictly newer
    /// than `cutoff` — the ring form of the standalone `partition_desc`.
    fn count_newer(&self, cell: usize, level: usize, cutoff: u64) -> usize {
        let base = self.cells[cell].base;
        if cutoff < base {
            return self.len_of(cell, level);
        }
        let cut_off = cutoff - base;
        let (a, b) = self.level_slices(cell, level);
        // Offsets descend front → back, like the deque's end-ticks.
        let pa = a.partition_point(|e| e.to_offset() > cut_off);
        if pa < a.len() {
            pa
        } else {
            a.len() + b.partition_point(|e| e.to_offset() > cut_off)
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
        for i in (0..(meta.levels as usize)).rev() {
            let len = self.len_of(cell, i);
            if len == 0 {
                continue;
            }
            let in_range = self.count_newer(cell, i, cutoff);
            if in_range == 0 {
                continue;
            }
            sum += ((in_range as u64) << i) as f64;
            if oldest.is_none() {
                let prev_end = if in_range < len {
                    Some(self.end_at(cell, i, in_range))
                } else {
                    meta.dropped_end
                };
                oldest = Some((1u64 << i, prev_end));
            }
        }
        if let Some((size, prev_end)) = oldest {
            let start = prev_end.or(meta.first_ts);
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
    /// `WindowCounter::encode` format), produced straight from the ring
    /// cursors.
    fn encode_cell(&self, cell: usize, buf: &mut Vec<u8>) {
        let meta = &self.cells[cell];
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, u64::from(meta.levels));
        for level in 0..(meta.levels as usize) {
            let len = self.len_of(cell, level);
            put_varint(buf, len as u64);
            let mut prev: Option<u64> = None;
            for i in 0..len {
                let end = self.end_at(cell, level, i);
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
        match meta.first_ts {
            Some(t) => {
                put_u8(buf, 1);
                put_varint(buf, t);
            }
            None => put_u8(buf, 0),
        }
        match meta.dropped_end {
            Some(t) => {
                put_u8(buf, 1);
                put_varint(buf, t);
            }
            None => put_u8(buf, 0),
        }
    }

    /// Import one standalone histogram into cell `cell` (grid must have
    /// room: `levels_alloc`/`slots` sized by the caller).
    fn import_cell(&mut self, cell: usize, eh: &ExponentialHistogram) {
        let levels = eh.raw_levels();
        let (total, last_ts, first_ts, dropped_end, lifetime) = eh.raw_meta();
        let base = levels
            .iter()
            .flat_map(|l| l.iter().copied())
            .min()
            .unwrap_or(0);
        let meta = CellMeta {
            levels: levels.len() as u16,
            base,
            total,
            last_ts,
            first_ts,
            dropped_end,
            lifetime,
        };
        self.cells[cell] = meta;
        for (level, deque) in levels.iter().enumerate() {
            let ri = self.ring_index(cell, level);
            self.rings[ri] = Ring {
                head: 0,
                len: deque.len() as u32,
            };
            for (i, &end) in deque.iter().enumerate() {
                self.slab[ri * self.slots + i] = T::from_offset(end - base);
            }
        }
    }

    /// Materialize cell `cell` as a standalone histogram (per-cell deque
    /// layout, as the merge paths and differential tests consume).
    fn materialize(&self, cell: usize) -> ExponentialHistogram {
        let meta = &self.cells[cell];
        let mut levels = Vec::with_capacity(meta.levels as usize);
        for level in 0..(meta.levels as usize) {
            let len = self.len_of(cell, level);
            let mut deque = VecDeque::with_capacity(self.cap + 1);
            for i in 0..len {
                deque.push_back(self.end_at(cell, level, i));
            }
            levels.push(deque);
        }
        ExponentialHistogram::from_raw_parts(
            &self.cfg,
            levels,
            meta.total,
            meta.last_ts,
            meta.first_ts,
            meta.dropped_end,
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

    fn memory_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<T>()
            + self.rings.capacity() * std::mem::size_of::<Ring>()
            + self.cells.capacity() * std::mem::size_of::<CellMeta>()
            + (self.scratch_a.capacity() + self.scratch_b.capacity()) * std::mem::size_of::<T>()
    }

    /// Structural invariants (the slab analogue of the standalone
    /// `validate`), plus cursor sanity.
    fn validate(&self, cell: usize) -> Result<(), String> {
        let meta = &self.cells[cell];
        let mut sum = 0u64;
        for level in 0..(meta.levels as usize) {
            let len = self.len_of(cell, level);
            if len > self.cap {
                return Err(format!(
                    "cell {cell} level {level} holds {len} > {}",
                    self.cap
                ));
            }
            for i in 0..len.saturating_sub(1) {
                if self.end_at(cell, level, i) < self.end_at(cell, level, i + 1) {
                    return Err(format!("cell {cell} level {level} out of order at {i}"));
                }
            }
            sum += (len as u64) << level;
        }
        for level in 0..(meta.levels as usize).saturating_sub(1) {
            let lo_len = self.len_of(cell, level);
            let hi_len = self.len_of(cell, level + 1);
            if lo_len > 0 && hi_len > 0 {
                let oldest_lo = self.end_at(cell, level, lo_len - 1);
                let newest_hi = self.end_at(cell, level + 1, 0);
                if newest_hi > oldest_lo {
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

/// Build a slab and import already-decoded histograms (shared by
/// `from_counters` and `decode_grid`).
fn import_all<T: SlabWord>(cfg: &EhConfig, counters: &[ExponentialHistogram]) -> SlabCore<T> {
    let mut core = SlabCore::<T>::new(cfg, counters.len());
    // The per-cell decoder defensively tolerates one bucket over capacity;
    // size the rings for whatever actually arrived.
    let max_len = counters
        .iter()
        .flat_map(|c| c.raw_levels().iter().map(VecDeque::len))
        .max()
        .unwrap_or(0);
    core.slots = core.slots.max(max_len);
    let max_levels = counters
        .iter()
        .map(|c| c.raw_levels().len())
        .max()
        .unwrap_or(0);
    if max_levels > 0 {
        core.grow_levels(max_levels);
    }
    for (cell, eh) in counters.iter().enumerate() {
        core.import_cell(cell, eh);
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
        on_core!(self.grid, c => (0..usize::from(c.cells[self.idx].levels))
            .map(|l| c.len_of(self.idx, l))
            .sum())
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
/// insert/expire surface (the cascade runs over `(head, len)` cursors into
/// the shared slab).
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
