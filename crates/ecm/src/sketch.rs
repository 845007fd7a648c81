//! The ECM-sketch itself (paper §4): a Count-Min array whose counters are
//! sliding-window synopses, generic over the counter type.

use crate::api::{Clock, WriteError};
use crate::config::EcmConfig;
use count_min::HashFamily;
use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::grid::CellStorage;
use sliding_window::traits::{MergeableCounter, WindowCounter};
use sliding_window::{
    CodecError, DeterministicWave, ExactWindow, ExponentialHistogram, MergeError, RandomizedWave,
};

const CODEC_VERSION: u8 = 1;

/// One `(item, tick)` stream arrival — the unit of the batched ingest path
/// ([`SketchWriter::ingest_batch`](crate::api::SketchWriter::ingest_batch)
/// and the batch entry points layered on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Stream item (the key being counted).
    pub item: u64,
    /// Arrival tick; non-decreasing within a batch and across batches.
    pub ts: u64,
}

impl StreamEvent {
    /// Build an event.
    pub fn new(item: u64, ts: u64) -> Self {
        StreamEvent { item, ts }
    }
}

/// Group a slice into runs of **adjacent** equal elements, yielding each
/// run's first element and its length. This is the one grouping rule every
/// batched ingest surface shares: only adjacency may be exploited, because
/// reordering occurrences would permute the arrival ids the randomized
/// wave samples by.
pub fn grouped_runs<T: PartialEq + Copy>(items: &[T]) -> impl Iterator<Item = (T, u64)> + '_ {
    let mut rest = items;
    std::iter::from_fn(move || {
        let (&head, tail) = rest.split_first()?;
        // Iterator-based scan: the bounds check lives in the slice split,
        // not in every comparison of the (hot) run-length loop.
        let n = 1 + tail.iter().take_while(|&&e| e == head).count();
        rest = &rest[n..];
        Some((head, n as u64))
    })
}

/// ECM-sketch over exponential histograms — the paper's default (ECM-EH).
pub type EcmEh = EcmSketch<ExponentialHistogram>;
/// ECM-sketch over deterministic waves (ECM-DW).
pub type EcmDw = EcmSketch<DeterministicWave>;
/// ECM-sketch over randomized waves (ECM-RW) — losslessly mergeable.
pub type EcmRw = EcmSketch<RandomizedWave>;
/// ECM-sketch over exact window counters — zero window error, used as a
/// same-API harness in tests and benchmarks.
pub type EcmExact = EcmSketch<ExactWindow>;

/// Count-Min sketch over sliding windows (paper §4).
///
/// Each of the `w × d` cells is a [`WindowCounter`]. Inserting item `x` at
/// tick `ts` registers the arrival in the `d` cells `CM[h_j(x), j]`; point
/// queries take the row minimum of per-cell window estimates, inner products
/// the row minimum of per-cell estimate products (paper §4.1).
///
/// The sketch runs on a [`Clock`]. On the time clock a write's tick is the
/// caller's; on the count clock (paper §4.2.1) the arrival index is the
/// tick, so a window covers the last `N` arrivals and the write clock is
/// the number of arrivals so far.
#[derive(Debug, Clone)]
pub struct EcmSketch<W: WindowCounter> {
    width: usize,
    /// The depth `d` is `hashes.depth()`: one hash function per row.
    hashes: HashFamily,
    clock: Clock,
    /// Row-major `depth × width` counter cells, in the memory layout the
    /// counter type selects ([`WindowCounter::GridStorage`]): a plain
    /// `Vec` of counters for the wave and exact backends, the
    /// contiguous [`EhGrid`](sliding_window::EhGrid) slab for exponential
    /// histograms.
    cells: W::GridStorage,
    cell_cfg: W::Config,
    /// Arrival-identity namespace: auto-assigned ids are
    /// `(namespace << 40) + seq`, keeping ids from distinct sites disjoint
    /// (required for lossless randomized-wave composition).
    id_namespace: u64,
    /// Local arrival sequence number.
    seq: u64,
    /// Tick of the most recent insertion (on the count clock: the
    /// arrivals so far).
    last_ts: u64,
    /// Lifetime arrivals inserted.
    lifetime: u64,
}

impl<W: WindowCounter> EcmSketch<W> {
    /// Create an empty sketch on the time clock.
    pub fn new(cfg: &EcmConfig<W>) -> Self {
        assert!(
            cfg.width > 0 && cfg.depth > 0,
            "dimensions must be positive"
        );
        let cells = W::GridStorage::new_grid(&cfg.cell, cfg.width * cfg.depth);
        EcmSketch {
            width: cfg.width,
            hashes: HashFamily::from_seed(cfg.seed, cfg.depth),
            clock: Clock::Time,
            cells,
            cell_cfg: cfg.cell.clone(),
            id_namespace: 0,
            seq: 0,
            last_ts: 0,
            lifetime: 0,
        }
    }

    /// Sketch width `w`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth `d`.
    pub fn depth(&self) -> usize {
        self.hashes.depth()
    }

    /// The clock the sketch's window rides on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// This sketch, fresh or just decoded, on `clock`: how a spec builds
    /// and restores its count-clock sketches.
    pub(crate) fn on_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The per-cell window configuration.
    pub fn cell_config(&self) -> &W::Config {
        &self.cell_cfg
    }

    /// Window length in ticks.
    pub fn window_len(&self) -> u64 {
        self.cells.window_len()
    }

    /// Lifetime arrivals inserted into this sketch.
    pub fn lifetime_arrivals(&self) -> u64 {
        self.lifetime
    }

    /// Tick of the most recent insertion (0 if empty).
    pub fn last_tick(&self) -> u64 {
        self.last_ts
    }

    /// Set the arrival-identity namespace (e.g. a site id) so that the
    /// auto-generated ids of different sites never collide. Must be set
    /// before the first insertion.
    ///
    /// # Panics
    /// If arrivals were already inserted, or `namespace ≥ 2²⁴`.
    pub fn set_id_namespace(&mut self, namespace: u64) {
        assert_eq!(self.seq, 0, "namespace must be set before insertions");
        assert!(namespace < (1 << 24), "namespace must fit in 24 bits");
        self.id_namespace = namespace;
    }

    /// The write precondition: `ts` must not precede the write clock. The
    /// one compare every time-based write of this sketch (and of a
    /// hierarchy's levels) crosses before any state moves.
    #[inline]
    pub(crate) fn check(&self, ts: u64) -> Result<(), WriteError> {
        WriteError::check_tick(ts, self.last_ts)
    }

    /// Insert one occurrence of `item` at tick `ts` with an explicit
    /// stream-unique arrival id (drives randomized-wave sampling; ignored by
    /// deterministic counters). Does not advance the local sequence counter
    /// — callers own the id space.
    ///
    /// # Errors
    /// [`WriteError::StaleTimestamp`] when `ts` precedes the write clock;
    /// the sketch is then unchanged.
    pub fn insert_with_id(&mut self, ts: u64, item: u64, id: u64) -> Result<(), WriteError> {
        self.insert_weighted_with_id(ts, item, id, 1)
    }

    /// Insert `weight` occurrences of `item` at tick `ts` with an explicit
    /// **first** arrival id; the occurrences carry the consecutive ids
    /// `first_id .. first_id + weight`. Like
    /// [`insert_with_id`](Self::insert_with_id), this does not advance the
    /// local sequence counter.
    ///
    /// # Errors
    /// [`WriteError::StaleTimestamp`] when `ts` precedes the write clock;
    /// the sketch is then unchanged.
    pub fn insert_weighted_with_id(
        &mut self,
        ts: u64,
        item: u64,
        first_id: u64,
        weight: u64,
    ) -> Result<(), WriteError> {
        self.check(ts)?;
        self.record_weighted_with_id(ts, item, first_id, weight);
        Ok(())
    }

    /// The unchecked write kernel behind
    /// [`SketchWriter::try_insert_weighted`](crate::api::SketchWriter::try_insert_weighted):
    /// `weight` occurrences of `item` at tick `ts` carrying auto-assigned
    /// ids. **Arrival-id semantics:** the burst is `weight` distinct
    /// arrivals — the local sequence number advances by `weight` and the
    /// occurrences carry the consecutive (namespaced) ids
    /// `seq+1 ..= seq+weight`, exactly as `weight` single writes would. The
    /// state is bit-identical to that loop for every counter type,
    /// including the id-sampled randomized wave.
    pub(crate) fn record(&mut self, ts: u64, item: u64, weight: u64) {
        let first_id = (self.id_namespace << 40) + self.seq + 1;
        self.seq += weight;
        self.record_weighted_with_id(ts, item, first_id, weight);
    }

    /// `weight` occurrences with consecutive ids from `first_id`,
    /// unchecked. The `d` bucket indices are hashed once and each touched
    /// cell absorbs the whole burst through its weighted fast path, so the
    /// cost is `O(d · cell_burst_cost)` instead of `O(weight · d)`.
    fn record_weighted_with_id(&mut self, ts: u64, item: u64, first_id: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.last_ts = self.last_ts.max(ts);
        self.lifetime += weight;
        // Hand all d row cells to the storage at once: layouts that share
        // per-occurrence work across the rows (the randomized wave's id
        // sampling) exploit it; the rest fall back to a per-cell loop.
        let mut idx_buf = [0usize; 64];
        let depth = self.depth();
        if depth <= idx_buf.len() {
            for (j, slot) in idx_buf[..depth].iter_mut().enumerate() {
                *slot = j * self.width + self.hashes.bucket(j, item, self.width);
            }
            self.cells
                .insert_weighted_rows(&idx_buf[..depth], ts, first_id, weight);
        } else {
            for j in 0..depth {
                let idx = j * self.width + self.hashes.bucket(j, item, self.width);
                self.cells.insert_weighted(idx, ts, first_id, weight);
            }
        }
    }

    /// Count-clock kernel: `n` occurrences of `item` at the **consecutive**
    /// ticks `first_ts .. first_ts + n`, carrying ids equal to their ticks'
    /// offsets from `first_id`. This is the burst shape of count-based
    /// windows, where the clock itself is the arrival index (one tick per
    /// occurrence); the win over a plain loop is hashing the `d` bucket
    /// indices once per run. Unchecked: the arrival clock is monotone by
    /// construction.
    pub(crate) fn insert_ticking_run(&mut self, first_ts: u64, item: u64, first_id: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.last_ts = self.last_ts.max(first_ts + (n - 1));
        self.lifetime += n;
        for j in 0..self.depth() {
            let idx = j * self.width + self.hashes.bucket(j, item, self.width);
            self.cells.insert_run(idx, first_ts, first_id, n);
        }
    }

    /// The count-clock write kernel: `n` occurrences of `item` on the next
    /// `n` ticks of the arrival clock, each carrying its tick as its id
    /// (the local sequence stays 0).
    pub(crate) fn record_arrivals(&mut self, item: u64, n: u64) {
        let first = self.last_ts + 1;
        self.insert_ticking_run(first, item, first, n);
    }

    /// Like [`insert_ticking_run`](Self::insert_ticking_run) with
    /// auto-assigned ids: advances the local sequence by `n` and derives the
    /// id range from it (namespaced), mirroring `n` single writes at
    /// consecutive ticks.
    pub(crate) fn insert_ticking_run_auto(&mut self, first_ts: u64, item: u64, n: u64) {
        if n == 0 {
            return;
        }
        let first_id = (self.id_namespace << 40) + self.seq + 1;
        self.seq += n;
        self.insert_ticking_run(first_ts, item, first_id, n);
    }

    /// Move the write clock to `ts` with no arrivals (never backwards).
    /// Window counters are queried with an explicit `now`, so this only
    /// moves the bookkeeping clock later writes are checked against. A
    /// no-op on the count clock, which only arrivals move.
    pub(crate) fn advance_clock(&mut self, ts: u64) {
        if self.clock == Clock::Time {
            self.last_ts = self.last_ts.max(ts);
        }
    }

    /// Point query (paper §4.1, Theorem 1): estimated frequency of `item`
    /// among arrivals with tick in `(now − range, now]`.
    ///
    /// Computational core of the typed query layer (and of the in-crate
    /// tests that pin it down); external callers go through
    /// [`SketchReader::query`](crate::query::SketchReader) with
    /// [`Query::point`](crate::query::Query::point).
    pub(crate) fn point_query(&self, item: u64, now: u64, range: u64) -> f64 {
        (0..self.depth())
            .map(|j| {
                let idx = j * self.width + self.hashes.bucket(j, item, self.width);
                self.cells.query(idx, now, range)
            })
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    /// Self-join size (second frequency moment `F₂`) estimate over the
    /// query range (paper §4.1, Theorem 2 with `b = a`); core of the typed
    /// [`Query::self_join`](crate::query::Query::self_join) path.
    pub(crate) fn self_join(&self, now: u64, range: u64) -> f64 {
        (0..self.depth())
            .map(|j| self.row_dot(self, j, [now; 2], range))
            .fold(f64::INFINITY, f64::min)
    }

    /// Inner-product estimate `â_r ⊙ b_r` against another sketch over the
    /// same query range (paper §4.1, Theorem 2); core of the typed
    /// [`Query::inner_product`](crate::query::Query::inner_product) path.
    /// A count window ends at each operand's own arrival clock: two
    /// count-based streams share no global order (paper Fig. 2).
    ///
    /// # Errors
    /// [`MergeError::IncompatibleConfig`] if shapes, hash seeds or clocks
    /// differ.
    pub(crate) fn inner_product(
        &self,
        other: &EcmSketch<W>,
        now: u64,
        range: u64,
    ) -> Result<f64, MergeError> {
        self.check_compatible(other)?;
        let other_now = match self.clock {
            Clock::Time => now,
            Clock::Count => other.last_ts,
        };
        Ok((0..self.depth())
            .map(|j| self.row_dot(other, j, [now, other_now], range))
            .fold(f64::INFINITY, f64::min))
    }

    /// Row `j`'s dot product of the two sketches' cell estimates, each side
    /// read at its own `now`.
    fn row_dot(
        &self,
        other: &EcmSketch<W>,
        j: usize,
        [now, other_now]: [u64; 2],
        range: u64,
    ) -> f64 {
        let row = j * self.width;
        (0..self.width)
            .map(|i| {
                self.cells.query(row + i, now, range) * other.cells.query(row + i, other_now, range)
            })
            .sum()
    }

    /// Estimate of the total number of arrivals in the query range: the sum
    /// of row 0's cell estimates (paper §6.1). Every arrival lands in
    /// exactly one cell of every row, so one row's sum already counts each
    /// arrival once and carries only the window counters' error ε_sw — no
    /// hashing error; the other d − 1 rows would repeat that count, so
    /// reading one row costs 1/d of a full pass and loses no guarantee.
    /// Core of the typed
    /// [`Query::total_arrivals`](crate::query::Query::total_arrivals) path.
    pub(crate) fn total_arrivals(&self, now: u64, range: u64) -> f64 {
        (0..self.width)
            .map(|i| self.cells.query(i, now, range))
            .sum()
    }

    /// An upper bound on [`total_arrivals`](Self::total_arrivals) for
    /// **every** `now` and `range`, at one read per row-0 cell: the
    /// arrivals row 0's cells still hold
    /// ([`CellStorage::held_ones_in`]). `None` where the cell layout keeps
    /// no such count (everything but the EH slab).
    ///
    /// The comparison is exact, not merely up to rounding, while a row
    /// holds fewer than 2⁵² arrivals: a cell estimate sums a subset of
    /// its held buckets in multiples of ½, so the row's running sum is
    /// exact and at most the row's held count.
    pub(crate) fn arrivals_bound(&self) -> Option<f64> {
        let held = self.cells.held_ones_in(0..self.width)?;
        Some(held as f64)
    }

    /// Direct access to a cell's window estimate (used by the geometric-
    /// method monitor to extract statistics vectors, paper §6.2).
    pub fn cell_estimate(&self, row: usize, col: usize, now: u64, range: u64) -> f64 {
        assert!(row < self.depth() && col < self.width, "cell out of bounds");
        self.cells.query(row * self.width + col, now, range)
    }

    /// Extract the whole `d × w` estimate matrix for a query range as a flat
    /// row-major vector — the "statistics vector" of the geometric method.
    pub fn estimate_vector(&self, now: u64, range: u64) -> Vec<f64> {
        (0..self.cells.n_cells())
            .map(|idx| self.cells.query(idx, now, range))
            .collect()
    }

    fn check_compatible(&self, other: &EcmSketch<W>) -> Result<(), MergeError> {
        if self.width != other.width || self.hashes != other.hashes || self.clock != other.clock {
            return Err(MergeError::IncompatibleConfig {
                detail: format!(
                    "shape {}x{} seed {} {:?} clock vs {}x{} seed {} {:?} clock",
                    self.width,
                    self.depth(),
                    self.hashes.seed(),
                    self.clock,
                    other.width,
                    other.depth(),
                    other.hashes.seed(),
                    other.clock,
                ),
            });
        }
        Ok(())
    }

    /// The counter grid.
    #[cfg(test)]
    pub(crate) fn grid(&self) -> &W::GridStorage {
        &self.cells
    }

    /// Bytes of memory currently held (dominated by the cells).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.memory_bytes()
    }

    /// Append the compact wire encoding (what a site ships to its
    /// aggregation parent; the distributed experiments charge network cost
    /// by this length).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.width as u64);
        put_varint(buf, self.depth() as u64);
        self.hashes.encode(buf);
        for idx in 0..self.cells.n_cells() {
            self.cells.encode_cell(idx, buf);
        }
        put_varint(buf, self.id_namespace);
        put_varint(buf, self.seq);
        put_varint(buf, self.last_ts);
        put_varint(buf, self.lifetime);
    }

    /// Size of the wire encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Decode a sketch previously produced by [`encode`](Self::encode);
    /// `cfg` must match the encoder's configuration. The sketch runs on
    /// the time clock.
    pub fn decode(cfg: &EcmConfig<W>, input: &mut &[u8]) -> Result<Self, CodecError> {
        let version = get_u8(input, "ecm version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let width = get_varint(input, "ecm width")? as usize;
        let depth = get_varint(input, "ecm depth")? as usize;
        if width != cfg.width || depth != cfg.depth {
            return Err(CodecError::Corrupt {
                context: "ecm shape",
            });
        }
        let hashes = HashFamily::decode(input)?;
        if hashes.depth() != depth || hashes.seed() != cfg.seed {
            return Err(CodecError::Corrupt {
                context: "ecm hashes",
            });
        }
        let cells = W::GridStorage::decode_grid(&cfg.cell, width * depth, input)?;
        let id_namespace = get_varint(input, "ecm namespace")?;
        let seq = get_varint(input, "ecm seq")?;
        let last_ts = get_varint(input, "ecm last_ts")?;
        let lifetime = get_varint(input, "ecm lifetime")?;
        Ok(EcmSketch {
            width,
            hashes,
            clock: Clock::Time,
            cells,
            cell_cfg: cfg.cell.clone(),
            id_namespace,
            seq,
            last_ts,
            lifetime,
        })
    }
}

impl<W: MergeableCounter> EcmSketch<W> {
    /// Order-preserving aggregation `⊕` of per-site sketches (paper §5.3):
    /// every cell of the result is the `⊕`-merge of the corresponding cells.
    /// All inputs must share shape and hash seed; `out_cell_cfg` configures
    /// the merged cells (for exponential histograms this carries ε′ of
    /// Theorem 4; for randomized waves it must equal the inputs' config and
    /// the merge is lossless).
    ///
    /// # Errors
    /// [`MergeError::Empty`] on no inputs,
    /// [`MergeError::IncompatibleConfig`] on shape/seed mismatch, or
    /// [`MergeError::Unsupported`] on the count clock: count-based windows
    /// admit no order-preserving aggregation (paper Fig. 2).
    pub fn merge(
        parts: &[&EcmSketch<W>],
        out_cell_cfg: &W::Config,
    ) -> Result<EcmSketch<W>, MergeError> {
        let first = parts.first().ok_or(MergeError::Empty)?;
        if first.clock == Clock::Count {
            return Err(MergeError::Unsupported {
                detail: "count-based windows do not merge (paper Fig. 2)".into(),
            });
        }
        for p in &parts[1..] {
            first.check_compatible(p)?;
        }
        let n_cells = first.cells.n_cells();
        let mut merged = Vec::with_capacity(n_cells);
        for idx in 0..n_cells {
            // Borrow cells where the layout stores them as counter values
            // (every part shares one storage type); only packed layouts
            // (the EH slab) pay a materialization copy.
            let cell = if first.cells.cell_ref(idx).is_some() {
                let refs: Vec<&W> = parts
                    .iter()
                    .map(|p| p.cells.cell_ref(idx).expect("parts share one layout"))
                    .collect();
                W::merge(&refs, out_cell_cfg)?
            } else {
                let owned: Vec<W> = parts.iter().map(|p| p.cells.materialize(idx)).collect();
                let refs: Vec<&W> = owned.iter().collect();
                W::merge(&refs, out_cell_cfg)?
            };
            merged.push(cell);
        }
        let cells = W::GridStorage::from_counters(out_cell_cfg, merged);
        Ok(EcmSketch {
            width: first.width,
            hashes: first.hashes.clone(),
            clock: Clock::Time,
            cells,
            cell_cfg: out_cell_cfg.clone(),
            id_namespace: 0,
            seq: parts.iter().map(|p| p.seq).sum(),
            last_ts: parts.iter().map(|p| p.last_ts).max().unwrap_or(0),
            lifetime: parts.iter().map(|p| p.lifetime).sum(),
        })
    }
}

#[cfg(test)]
mod tests;
