//! A keyed, multi-tenant facade over the typed sketch API: one
//! [`SketchSpec`] describes every tenant's sketch, and the store creates,
//! feeds and queries them per key.
//!
//! This is the scenario layer the paper's setting implies but a single
//! sketch cannot express: *many* distributed streams (one per user, tenant,
//! interface, …), each summarized by the same kind of window synopsis and
//! queried uniformly. The store owns:
//!
//! * **Lazy creation** — sketches materialize on first write to a key, all
//!   from the one validated spec.
//! * **Batched keyed ingest** — [`ingest`](SketchStore::ingest) and
//!   [`ingest_runs`](SketchStore::ingest_runs) group a mixed-key batch into
//!   per-key runs first, so each tenant's sketch sees its share as
//!   [weighted updates](crate::api::SketchWriter::insert_weighted) (one per
//!   run of equal events) instead of interleaved single inserts.
//! * **Cross-key queries** — per-key routing
//!   ([`query`](SketchStore::query)), full scans
//!   ([`query_all`](SketchStore::query_all)), and top-k selection over any
//!   scalar query ([`top_k`](SketchStore::top_k)).
//! * **Fleet snapshots** — one full `"EF"` record: a sealed header, then one
//!   sealed record per key, framed by the shared rules of [`frame`]. What
//!   follows a checkpoint is the write-ahead log's ([`crate::wal`]), so a
//!   store is recovered as one snapshot plus the log replayed on top.
//!
//! The store never discards a key: an evicted key would answer 0, an
//! undercount the sketch's contract forbids. A caller that must bound
//! memory refuses new keys instead ([`memory_bytes`](SketchStore::memory_bytes)
//! is the bookkeeping to check).
//!
//! # Example
//!
//! ```
//! use ecm::api::{Backend, SketchSpec};
//! use ecm::query::{Query, WindowSpec};
//! use ecm::store::SketchStore;
//!
//! let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(9);
//! let mut store: SketchStore<&'static str> = SketchStore::new(spec).unwrap();
//! for t in 1..=600u64 {
//!     store.insert("alice", t, t % 3);
//!     store.insert("bob", t, 7);
//! }
//! let w = WindowSpec::time(600, 1_000);
//! let bob = store
//!     .query(&"bob", &Query::point(7), w)
//!     .expect("bob exists")
//!     .unwrap()
//!     .into_value();
//! assert!((bob.value - 600.0).abs() <= bob.guarantee.unwrap().epsilon * 600.0);
//! // Rank tenants by how much of key 0 they carry.
//! let top = store.top_k(1, &Query::total_arrivals(), w);
//! assert_eq!(top.len(), 1);
//! ```

use std::borrow::Borrow;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use crate::api::{Clock, Sketch, SketchSpec, SpecError, WriteError};
use crate::frame::{self, corrupt};
use crate::query::{Answer, Query, QueryError, WindowSpec};
use crate::sketch::StreamEvent;
use crate::snapshot::{
    decode_payload, decode_spec, encode_payload, encode_spec, format_bounds, get_opt, put_opt,
    SnapshotError, SnapshotKey, SNAPSHOT_VERSION,
};
use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};

/// One tenant slot: the sketch plus `last_written`, the store clock's stamp
/// of the key's most recent write. The sketch is shared with every clone
/// of the store until one side writes it ([`unshared`]).
#[derive(Clone)]
struct Entry {
    sketch: Arc<dyn Sketch>,
    last_written: u64,
}

/// Write access to a sketch a store clone may still point at: the first
/// write after a clone copies the sketch, so no write is ever visible on
/// the other side.
fn unshared(sketch: &mut Arc<dyn Sketch>) -> &mut dyn Sketch {
    if Arc::get_mut(sketch).is_none() {
        *sketch = Arc::from(sketch.clone_box());
    }
    Arc::get_mut(sketch).expect("sole owner after the copy")
}

/// One row of a [`Ranking`]. Rows order as rankings list them — score
/// descending, ties by key ascending — so the *greatest* row is the worst
/// one. This is the only place that order is spelled.
struct Row<T> {
    key: T,
    score: f64,
}

impl<T: Ord> Ord for Row<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl<T: Ord> PartialOrd for Row<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> PartialEq for Row<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord> Eq for Row<T> {}

/// A running top-`k`: offer `(key, score)` rows in any order, from any
/// number of sources, and read back the `k` best — score descending, ties
/// by key ascending. [`SketchStore::rank_into`] feeds one from a store and
/// consults its [`prunes`](Ranking::prunes) to skip sketches that cannot
/// place; a serving layer threads one ranking through all its shards, so
/// each shard starts from the floor its predecessors set.
///
/// `k` is only ever compared against: memory grows with the rows kept, so
/// a `k` of `usize::MAX` ranks everything offered.
pub struct Ranking<T> {
    k: usize,
    /// Max-heap under the row order: the worst kept row on top.
    rows: BinaryHeap<Row<T>>,
}

impl<T: Ord> Ranking<T> {
    /// An empty ranking that keeps the best `k` rows.
    pub fn new(k: usize) -> Self {
        Ranking {
            k,
            rows: BinaryHeap::new(),
        }
    }

    /// Offer one row; it is kept if fewer than `k` are, or if it ranks
    /// before the worst kept row (which it then replaces).
    pub fn offer(&mut self, key: T, score: f64) {
        let row = Row { key, score };
        if self.rows.len() < self.k {
            self.rows.push(row);
        } else if let Some(mut worst) = self.rows.peek_mut() {
            if row < *worst {
                *worst = row;
            }
        }
    }

    /// Whether no row for `key` scoring at most `bound` can enter any
    /// more: `k` rows are kept and the row `(key, bound)` does not rank
    /// before the worst of them (a tie on the score loses on the key).
    pub fn prunes(&self, key: T, bound: f64) -> bool {
        let row = Row { key, score: bound };
        self.rows.len() >= self.k && self.rows.peek().is_none_or(|worst| row >= *worst)
    }

    /// The kept rows, best first.
    pub fn into_sorted(self) -> Vec<(T, f64)> {
        self.rows
            .into_sorted_vec()
            .into_iter()
            .map(|row| (row.key, row.score))
            .collect()
    }
}

impl<K: Ord + Clone> Ranking<&K> {
    /// [`into_sorted`](Ranking::into_sorted) over borrowed keys, cloning
    /// only the winners'.
    pub fn into_owned(self) -> Vec<(K, f64)> {
        self.into_sorted()
            .into_iter()
            .map(|(key, score)| (key.clone(), score))
            .collect()
    }
}

/// Grouping buffers of [`SketchStore::ingest_grouped`], kept between
/// batches for their capacity and empty at rest (so cloning a store copies
/// nothing of them).
#[derive(Clone, Default)]
struct GroupScratch {
    /// Every run of the batch in arrival order: event, weight, and the
    /// index of the same key's next run (`usize::MAX` ends a chain).
    runs: Vec<(StreamEvent, u64, usize)>,
    /// Per key of the batch, in first-appearance order: the first and the
    /// last index of its chain in `runs`.
    chains: Vec<(usize, usize)>,
}

/// A keyed collection of identically-specified sketches with lazy creation,
/// grouped batched ingest and cross-key queries. See the [module
/// docs](self) for the full tour.
///
/// The store is `Clone`, and a clone is observably a deep, bit-identical
/// copy (clock and write stamps included): queries against it answer
/// exactly what the original would have answered at the moment of the
/// copy, whatever either side is fed afterwards. It costs a map of
/// pointers, not a copy of every sketch — entries are copy-on-write, so a
/// sketch is duplicated (through [`crate::api::CloneSketch`]) only when one
/// side next writes its key. That is what lets a serving layer publish a
/// clone per write batch ([`crate::publish`]).
#[derive(Clone)]
pub struct SketchStore<K> {
    spec: SketchSpec,
    entries: HashMap<K, Entry>,
    /// Monotone stamp source for `last_written`: one tick per write.
    clock: u64,
    /// Sequence number of the last checkpoint written or restored (0 =
    /// none yet); the write-ahead log's markers name it.
    checkpoint_seq: u64,
    scratch: GroupScratch,
}

impl<K: Eq + Hash + Ord + Clone> SketchStore<K> {
    /// An empty store; the spec is validated eagerly so a bad description
    /// fails here, not on the first write.
    ///
    /// # Errors
    /// Any [`SketchSpec::validate`] error.
    pub fn new(spec: SketchSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(SketchStore {
            spec,
            entries: HashMap::new(),
            clock: 0,
            checkpoint_seq: 0,
            scratch: GroupScratch::default(),
        })
    }

    /// The spec every sketch is built from.
    pub fn spec(&self) -> &SketchSpec {
        &self.spec
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of resident keys — an O(1) alias of [`len`](Self::len) named
    /// for serving layers, where per-shard stores report fleet size
    /// (`STATS`) without locking or scanning siblings.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resident keys, in sorted order (the map iteration order is not
    /// deterministic; scans and tests want one).
    pub fn keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self.entries.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Read access to one key's sketch, if resident. Looks up any borrowed
    /// form of the key (a `&str` for a `String` key), as a `HashMap` does.
    pub fn get<Q>(&self, key: &Q) -> Option<&dyn Sketch>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|e| &*e.sketch)
    }

    /// Write access to one key's sketch, creating it from the spec on first
    /// touch and stamping the key written. Prefer [`insert`](Self::insert)
    /// / [`ingest`](Self::ingest) unless you need trait methods not
    /// surfaced here.
    pub fn sketch_mut(&mut self, key: &K) -> &mut dyn Sketch {
        self.clock += 1;
        if !self.entries.contains_key(key) {
            let sketch = self
                .spec
                .build()
                .expect("spec was validated at store construction");
            let entry = Entry {
                sketch: Arc::from(sketch),
                last_written: 0,
            };
            self.entries.insert(key.clone(), entry);
        }
        let entry = self.entries.get_mut(key).expect("resident or just created");
        entry.last_written = self.clock;
        unshared(&mut entry.sketch)
    }

    /// Record one occurrence of `item` at tick `ts` on `key`'s stream.
    ///
    /// # Panics
    /// On a write the key's sketch refuses (see
    /// [`SketchWriter`](crate::api::SketchWriter#panics)).
    pub fn insert(&mut self, key: K, ts: u64, item: u64) {
        self.sketch_mut(&key).insert(ts, item);
    }

    /// Record `weight` occurrences of `item` at tick `ts` on `key`'s
    /// stream, through the backend's weighted fast path.
    ///
    /// # Panics
    /// On a write the key's sketch refuses (see
    /// [`SketchWriter`](crate::api::SketchWriter#panics)).
    pub fn insert_weighted(&mut self, key: K, ts: u64, item: u64, weight: u64) {
        self.sketch_mut(&key).insert_weighted(ts, item, weight);
    }

    /// Batched keyed ingest: the mixed-key batch is grouped into per-key
    /// event runs first (preserving each key's arrival order), then each
    /// resident-or-created sketch absorbs its runs as weighted updates.
    /// Keys are dispatched in order of first appearance, so within one
    /// batch the write stamps follow that order, not the raw event
    /// interleaving.
    ///
    /// A run its sketch refuses ([`WriteError`]: a tick before the key's
    /// write clock, an item outside a hierarchy's universe) is skipped and
    /// leaves the sketch untouched; the rest of the batch is applied.
    /// [`retain_fresh`](Self::retain_fresh) tells a caller beforehand which
    /// runs those are.
    pub fn ingest(&mut self, batch: &[(K, StreamEvent)]) {
        self.ingest_grouped(batch.iter().map(|(key, event)| (key, *event, 1)))
    }

    /// [`ingest`](Self::ingest) for a batch that arrives as weighted runs:
    /// each `(key, event, n)` stands for `n` adjacent occurrences of
    /// `event` on `key`'s stream and is applied as one weighted update,
    /// never expanded. Bit-identical to `ingest` of the expanded batch
    /// (and to one `insert` per occurrence); a run of weight 0 is no
    /// occurrence at all and does not create its key.
    pub fn ingest_runs(&mut self, batch: &[(K, StreamEvent, u64)]) {
        self.ingest_grouped(batch.iter().map(|(key, event, n)| (key, *event, *n)))
    }

    /// Remove from `runs` every run whose tick precedes its key's write
    /// clock — the resident sketch's, advanced by the runs before it in the
    /// batch — and return how many were removed. What remains is exactly
    /// what [`ingest_runs`](Self::ingest_runs) applies, checked by the same
    /// [`WriteError::check_tick`] the sketches run. A serving layer calls
    /// this *before* logging a batch, so its log holds only what was
    /// applied and replays without a policy.
    pub fn retain_fresh(&self, runs: &mut Vec<(K, StreamEvent, u64)>) -> u64 {
        if self.spec.clock() == Clock::Count {
            return 0; // a count-based clock is the arrival index itself
        }
        // Sized like the grouping map of `ingest_grouped`: a batch's keys.
        let mut clocks: HashMap<&K, u64> =
            HashMap::with_capacity(runs.len().min(self.entries.len().max(16)));
        let fresh: Vec<bool> = runs
            .iter()
            .map(|(key, event, n)| {
                let clock = clocks.entry(key).or_insert_with(|| {
                    let entry = self.entries.get(key);
                    entry.map_or(0, |entry| entry.sketch.write_clock())
                });
                let fresh = WriteError::check_tick(event.ts, *clock).is_ok();
                if fresh && *n > 0 {
                    *clock = event.ts;
                }
                fresh || *n == 0
            })
            .collect();
        let stale = fresh.iter().filter(|&&f| !f).count();
        if stale > 0 {
            let mut keep = fresh.iter();
            runs.retain(|_| *keep.next().expect("one flag per run"));
        }
        stale as u64
    }

    /// The one grouping routine behind both batch entry points. Pass 1
    /// threads each key's runs into a chain through the store's scratch
    /// (reused across batches; no key is cloned); pass 2 walks the keys in
    /// first-appearance order — [`sketch_mut`](Self::sketch_mut) creates
    /// and stamps exactly as one write per key would — and feeds
    /// each chain to its sketch, folding adjacent equal events into one
    /// weighted update.
    fn ingest_grouped<'a>(&mut self, batch: impl Iterator<Item = (&'a K, StreamEvent, u64)>)
    where
        K: 'a,
    {
        const END: usize = usize::MAX;
        let mut scratch = std::mem::take(&mut self.scratch);
        let lines = batch.size_hint().0;
        // The keys of this batch borrow from it, so these two are the only
        // per-batch allocations.
        let mut keys: Vec<&K> = Vec::with_capacity(lines.min(self.entries.len().max(16)));
        let mut group_of: HashMap<&K, usize> = HashMap::with_capacity(keys.capacity());
        // Adjacent lines mostly share a key: hash once per key change.
        let mut current: Option<(&K, usize)> = None;
        for (key, event, weight) in batch.filter(|&(_, _, weight)| weight > 0) {
            let group = match current {
                Some((k, group)) if k == key => {
                    // An un-batched run arrives as adjacent copies: count
                    // them here instead of chaining each.
                    let last = scratch.runs.last_mut().expect("current key has a run");
                    if last.0 == event {
                        last.1 += weight;
                        continue;
                    }
                    group
                }
                _ => *group_of.entry(key).or_insert_with(|| {
                    keys.push(key);
                    scratch.chains.push((END, END));
                    keys.len() - 1
                }),
            };
            current = Some((key, group));
            let at = scratch.runs.len();
            scratch.runs.push((event, weight, END));
            let (head, tail) = &mut scratch.chains[group];
            match *tail {
                END => *head = at,
                prev => scratch.runs[prev].2 = at,
            }
            *tail = at;
        }
        for (key, &(head, _)) in keys.into_iter().zip(&scratch.chains) {
            let sketch = self.sketch_mut(key);
            let (mut event, mut weight, mut next) = scratch.runs[head];
            while next != END {
                let (e, n, after) = scratch.runs[next];
                if e == event {
                    weight += n;
                } else {
                    let _ = sketch.try_insert_weighted(event.ts, event.item, weight);
                    (event, weight) = (e, n);
                }
                next = after;
            }
            let _ = sketch.try_insert_weighted(event.ts, event.item, weight);
        }
        scratch.runs.clear();
        scratch.chains.clear();
        self.scratch = scratch;
    }

    /// Declare that every resident sketch's stream clock has reached `ts`
    /// with no arrivals. Does not stamp any key written. Keys already at or
    /// past `ts` (and every key of a count-based store, whose clock only
    /// moves on arrivals) are provably unchanged, so they stay shared with
    /// any clone of the store.
    pub fn advance_to(&mut self, ts: u64) {
        if self.spec.clock() == Clock::Count {
            return;
        }
        for entry in self.entries.values_mut() {
            if entry.sketch.write_clock() < ts {
                unshared(&mut entry.sketch).advance_to(ts);
            }
        }
    }

    /// Answer `q` over `w` from `key`'s sketch; `None` when the key is not
    /// resident (distinct from a resident sketch's [`QueryError`]). Takes
    /// any borrowed form of the key, like [`get`](Self::get).
    pub fn query<Q>(
        &self,
        key: &Q,
        q: &Query<'_>,
        w: WindowSpec,
    ) -> Option<Result<Answer, QueryError>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|e| e.sketch.query(q, w))
    }

    /// Answer `q` over `w` from every resident sketch, in sorted key order.
    pub fn query_all(&self, q: &Query<'_>, w: WindowSpec) -> Vec<(K, Result<Answer, QueryError>)> {
        let mut out: Vec<(K, Result<Answer, QueryError>)> = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.sketch.query(q, w)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The `k` keys with the largest scalar answers to `q` over `w`,
    /// descending (ties broken by key). Keys whose backend rejects the
    /// query or returns a non-scalar answer are skipped — this is a
    /// ranking, not a validator. Costs one O(1) bound read per key plus a
    /// full estimate for the few that can place, where the backend has a
    /// [`score_bound`](crate::query::SketchReader::score_bound); a full
    /// estimate per key where it has none. See
    /// [`rank_into`](Self::rank_into).
    pub fn top_k(&self, k: usize, q: &Query<'_>, w: WindowSpec) -> Vec<(K, f64)> {
        let mut ranking = Ranking::new(k);
        self.rank_into(&mut ranking, q, w);
        ranking.into_owned()
    }

    /// Offer this store's keys to a running `ranking` by the threshold
    /// algorithm, and return how many sketches had to be scored.
    ///
    /// Every sketch's [`score_bound`](crate::query::SketchReader::score_bound)
    /// is read first (no bound counts as `+∞`); sketches are then scored
    /// with [`query`](crate::query::SketchReader::query) in row order of
    /// `(key, bound)` — bound descending, ties by key — until the ranking
    /// [`prunes`](Ranking::prunes) the best row left. Every sketch behind
    /// it has a row no better, scores at most its bound, and could not
    /// have placed. The rows kept are therefore exactly those a scan of
    /// every sketch would keep; only the work differs. Keys silent for
    /// longer than the window bound to 0, so once `k` rows are kept they
    /// end the scan. It degrades gracefully: a backend without bounds is
    /// scanned, and bounds gone stale (keys silent for windows still hold
    /// their last arrivals) prune less.
    pub fn rank_into<'a>(
        &'a self,
        ranking: &mut Ranking<&'a K>,
        q: &Query<'_>,
        w: WindowSpec,
    ) -> usize {
        // Candidates are rows `(key, bound)`; reversed, the max-heap pops
        // the best first.
        let mut candidates: BinaryHeap<Reverse<Row<&'a K>>> = self
            .entries
            .iter()
            .map(|(key, e)| {
                let score = e.sketch.score_bound(q, w).unwrap_or(f64::INFINITY);
                Reverse(Row { key, score })
            })
            // The floor an earlier store left in the ranking.
            .filter(|Reverse(c)| !ranking.prunes(c.key, c.score))
            .collect();
        let mut scored = 0;
        while let Some(Reverse(c)) = candidates.pop() {
            if ranking.prunes(c.key, c.score) {
                break;
            }
            scored += 1;
            let answer = self.entries[c.key].sketch.query(q, w);
            if let Some(score) = answer.ok().and_then(|a| a.value()) {
                ranking.offer(c.key, score);
            }
        }
        scored
    }

    /// Iterate resident `(key, sketch)` pairs in arbitrary order (use
    /// [`keys`](Self::keys) + [`get`](Self::get) when order matters).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &dyn Sketch)> {
        self.entries.iter().map(|(k, e)| (k, &*e.sketch))
    }

    /// Total bytes held by all resident sketches (store bookkeeping
    /// excluded; it is dwarfed by the sketches).
    pub fn memory_bytes(&self) -> usize {
        self.entries.values().map(|e| e.sketch.memory_bytes()).sum()
    }

    /// Per-key memory breakdown plus the total — the fleet-sizing view of
    /// [`SketchReader::memory_bytes`](crate::query::SketchReader::memory_bytes).
    pub fn memory_report(&self) -> MemoryReport<K> {
        let mut per_key: Vec<(K, usize)> = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.sketch.memory_bytes()))
            .collect();
        // Largest first; ties in key order so reports are deterministic.
        per_key.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = per_key.iter().map(|&(_, b)| b).sum();
        MemoryReport { per_key, total }
    }

    /// Sequence number of the last checkpoint written or restored (0 when
    /// none); a write-ahead log's markers name it.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The store's current write-stamp clock: a monotone version that
    /// advances once per write. A reader that remembers a version and
    /// later asks [`written_since`](Self::written_since) sees exactly the
    /// keys written in between — the standing-view maintainer's dirty-key
    /// feed.
    pub fn version(&self) -> u64 {
        self.clock
    }

    /// The resident keys written strictly after write-stamp `version`, in
    /// sorted order. Note that [`advance_to`](Self::advance_to) moves
    /// window clocks without refreshing write stamps, so a pure clock
    /// advance is invisible here — callers tracking window slides must
    /// re-evaluate on advance, not wait for a write.
    pub fn written_since(&self, version: u64) -> Vec<&K> {
        let mut keys: Vec<&K> = self
            .entries
            .iter()
            .filter(|(_, e)| e.last_written > version)
            .map(|(k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Leading magic of a fleet (store) snapshot — distinct from the
/// single-sketch record magic so the two formats cannot be confused.
const STORE_MAGIC: [u8; 2] = *b"EF";

/// The header's kind byte. Kind 1, an incremental delta, is retired.
const KIND_FULL: u8 = 0;

/// Fleet persistence: one snapshot holds the spec, the write stamps (the
/// store clock and each key's `last_written`) and every resident sketch's
/// full payload, so [`load_snapshot`](SketchStore::load_snapshot) rebuilds a
/// store that is observationally identical — queries, memory accounting and
/// [`written_since`](SketchStore::written_since) included.
///
/// Format v1 keeps the fields of the retired bounded store and incremental
/// delta, each written with the one value an unbounded full snapshot always
/// had: kind 0, no capacity, eviction policy 0, no evictions, no tombstones,
/// and an order stamp equal to each record's write stamp. Any other value is
/// a [`Retired`](SnapshotError::Retired) error, so a loaded store re-encodes
/// to the bytes it was loaded from.
impl<K: Eq + Hash + Ord + Clone + SnapshotKey> SketchStore<K> {
    /// Serialize the whole fleet as a checkpoint and advance the checkpoint
    /// sequence.
    ///
    /// **Durability contract:** the sequence advances when the bytes are
    /// rendered, not when they reach disk — the caller owns persistence.
    /// If persisting fails, retry with the *same returned bytes* (they
    /// remain the checkpoint for this sequence number).
    ///
    /// # Errors
    /// [`SnapshotError::SpecMismatch`] if a resident sketch does not match
    /// the spec (impossible through this API, possible through downcasting
    /// games).
    pub fn write_snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        format_bounds(&self.spec)?;
        let seq = self.checkpoint_seq + 1;
        let mut buf = frame::begin(STORE_MAGIC, SNAPSHOT_VERSION);
        put_u8(&mut buf, KIND_FULL);
        encode_spec(&self.spec, &mut buf);
        put_varint(&mut buf, seq);
        put_opt(&mut buf, None); // capacity
        put_u8(&mut buf, 0); // eviction policy
        put_varint(&mut buf, self.clock);
        put_varint(&mut buf, 0); // evictions
        put_varint(&mut buf, 0); // tombstones
        put_varint(&mut buf, self.entries.len() as u64);
        frame::seal(&mut buf, 0);
        let mut entries: Vec<(&K, &Entry)> = self.entries.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut payload = Vec::new();
        for (key, entry) in entries {
            let start = buf.len();
            key.encode_key(&mut buf);
            // The order stamp, then the write stamp.
            put_varint(&mut buf, entry.last_written);
            put_varint(&mut buf, entry.last_written);
            payload.clear();
            encode_payload(&self.spec, &*entry.sketch, &mut payload)?;
            frame::put_bytes(&mut buf, &payload);
            frame::seal(&mut buf, start);
        }
        self.checkpoint_seq = seq;
        Ok(buf)
    }

    /// Rebuild a store from a snapshot: spec, write stamps and every
    /// sketch, observationally identical to the store that wrote it, at
    /// the snapshot's [`checkpoint_seq`](Self::checkpoint_seq).
    ///
    /// # Errors
    /// Any [`SnapshotError`]; a field holding a value only a retired writer
    /// produced is [`Retired`](SnapshotError::Retired).
    pub fn load_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let retired = |field| Err(SnapshotError::Retired { field });
        let mut input = bytes;
        let versions = SNAPSHOT_VERSION..=SNAPSHOT_VERSION;
        frame::open(&mut input, STORE_MAGIC, versions, "store snapshot header")?;
        // A delta's header is laid out differently from here on.
        match get_u8(&mut input, "store snapshot kind")? {
            KIND_FULL => {}
            1 => return retired("store snapshot kind (an incremental delta)"),
            _ => return Err(corrupt("store snapshot kind")),
        }
        let mut store = SketchStore::new(decode_spec(&mut input)?)?;
        store.checkpoint_seq = get_varint(&mut input, "store snapshot seq")?;
        let capacity = get_opt(&mut input, "store capacity")?;
        let policy = get_u8(&mut input, "store eviction policy")?;
        store.clock = get_varint(&mut input, "store clock")?;
        let evictions = get_varint(&mut input, "store evictions")?;
        // Tombstone keys would follow the count.
        if get_varint(&mut input, "store tombstone count")? != 0 {
            return retired("store tombstones");
        }
        let n_records = get_varint(&mut input, "store record count")?;
        // Header integrity (everything parsed so far) before any field is
        // trusted; each record then carries its own seal, so every byte is
        // verified exactly once.
        frame::check_seal(bytes, &mut input, "store snapshot header")?;
        if capacity.is_some() {
            return retired("store capacity");
        }
        if policy != 0 {
            return retired("store eviction policy");
        }
        if evictions != 0 {
            return retired("store evictions");
        }
        for _ in 0..n_records {
            let start = input;
            let key = K::decode_key(&mut input)?;
            let order_stamp = get_varint(&mut input, "store order stamp")?;
            let last_written = get_varint(&mut input, "store write stamp")?;
            let payload = frame::take_bytes(&mut input, "store payload")?;
            frame::check_seal(start, &mut input, "store key record")?;
            if last_written == 0 || last_written > store.clock {
                return Err(corrupt("store write stamp"));
            }
            if order_stamp != last_written {
                return retired("store order stamp");
            }
            let sketch = Arc::from(decode_payload(&store.spec, payload)?);
            let entry = Entry {
                sketch,
                last_written,
            };
            if store.entries.insert(key, entry).is_some() {
                return Err(corrupt("store duplicate key"));
            }
        }
        if !input.is_empty() {
            return Err(SnapshotError::TrailingBytes { count: input.len() });
        }
        Ok(store)
    }
}

/// Per-key and total memory held by a [`SketchStore`]'s resident sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport<K> {
    /// `(key, bytes)` pairs, largest consumer first (ties by key).
    pub per_key: Vec<(K, usize)>,
    /// Sum over all resident keys.
    pub total: usize,
}

impl<K> std::fmt::Debug for SketchStore<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchStore")
            .field("spec", &self.spec)
            .field("keys", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Backend;
    use crate::sketch::EcmSketch;
    use crate::snapshot::tests::{replace_zero, reseal};
    use sliding_window::{CodecError, ExponentialHistogram};

    fn spec() -> SketchSpec {
        SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(3)
    }

    #[test]
    fn lazy_creation_and_per_key_isolation() {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        assert!(store.is_empty());
        for t in 1..=500u64 {
            store.insert(t % 4, t, 7);
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.keys(), vec![0, 1, 2, 3]);
        let w = WindowSpec::time(500, 1_000);
        for key in 0..4u64 {
            let est = store
                .query(&key, &Query::point(7), w)
                .unwrap()
                .unwrap()
                .into_value();
            assert!((est.value - 125.0).abs() <= 0.1 * 125.0 + 1.0, "{est:?}");
        }
        assert!(store.query(&99, &Query::point(7), w).is_none());
        assert!(store.get(&0).is_some() && store.get(&99).is_none());
    }

    #[test]
    fn grouped_ingest_matches_per_event_inserts() {
        let mut grouped: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        let mut single: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        let mut batch = Vec::new();
        for t in 1..=2_000u64 {
            let key = t % 5;
            let item = t % 17;
            batch.push((key, StreamEvent::new(item, t)));
            single.insert(key, t, item);
        }
        grouped.ingest(&batch);
        let w = WindowSpec::time(2_000, 1_000);
        for key in 0..5u64 {
            for item in 0..17u64 {
                let a = grouped
                    .query(&key, &Query::point(item), w)
                    .unwrap()
                    .unwrap()
                    .into_value()
                    .value;
                let b = single
                    .query(&key, &Query::point(item), w)
                    .unwrap()
                    .unwrap()
                    .into_value()
                    .value;
                assert_eq!(a.to_bits(), b.to_bits(), "key={key} item={item}");
            }
        }
    }

    #[test]
    fn top_k_ranks_tenants_and_skips_unsupported() {
        let mut store: SketchStore<&'static str> = SketchStore::new(spec()).unwrap();
        for t in 1..=300u64 {
            store.insert("heavy", t, 1);
            if t % 3 == 0 {
                store.insert("mid", t, 1);
            }
            if t % 30 == 0 {
                store.insert("light", t, 1);
            }
        }
        let w = WindowSpec::time(300, 1_000);
        let top = store.top_k(2, &Query::total_arrivals(), w);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "heavy");
        assert_eq!(top[1].0, "mid");
        assert!(top[0].1 > top[1].1);
        // A query no plain-sketch backend supports ranks nothing.
        assert!(store.top_k(2, &Query::range_sum(0, 10), w).is_empty());
        // query_all surfaces the per-key errors instead.
        let all = store.query_all(&Query::range_sum(0, 10), w);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(_, r)| r.is_err()));
    }

    /// 500 tenants at Zipf(0.7) rates over three windows of stationary
    /// traffic (tenant `r` writes `4·r^-0.7` events per tick).
    fn zipf_fleet(backend: Backend) -> SketchStore<u64> {
        let mut store: SketchStore<u64> = SketchStore::new(spec().backend(backend)).unwrap();
        let mut rng = stream_gen::SeededRng::seed_from_u64(11);
        let rates: Vec<f64> = (1..=500u64).map(|r| 4.0 * (r as f64).powf(-0.7)).collect();
        let mut owed = vec![0.0f64; rates.len()];
        for t in 1..=3_000u64 {
            for (key, rate) in rates.iter().enumerate() {
                owed[key] += rate;
                while owed[key] >= 1.0 {
                    owed[key] -= 1.0;
                    store.insert(key as u64, t, rng.next_u64() % 512);
                }
            }
        }
        store
    }

    #[test]
    fn ranking_scores_a_few_sketches_where_bounds_exist_and_all_where_not() {
        let w = WindowSpec::time(3_000, 1_000);
        let q = Query::total_arrivals();
        let by_scan = |store: &SketchStore<u64>| {
            let mut rows: Vec<(u64, f64)> = store
                .query_all(&q, w)
                .into_iter()
                .map(|(key, answer)| (key, answer.unwrap().into_value().value))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(10);
            rows
        };

        let eh = zipf_fleet(Backend::Eh);
        let mut ranking = Ranking::new(10);
        let scored = eh.rank_into(&mut ranking, &q, w);
        assert_eq!(ranking.into_owned(), by_scan(&eh));
        assert!(
            scored <= eh.len() / 10,
            "top-10 of {} EH sketches scored {scored}",
            eh.len()
        );

        // No bound, no pruning: the same routine is a scan.
        let dw = zipf_fleet(Backend::Dw);
        let mut ranking = Ranking::new(10);
        assert_eq!(dw.rank_into(&mut ranking, &q, w), dw.len());
        assert_eq!(ranking.into_owned(), by_scan(&dw));
    }

    /// Keys silent for longer than the window bound to 0 on every
    /// backend, so a ranking over 20 active and 500 silent keys scores
    /// at most the active ones — with no arrivals bound (DW) as with one
    /// (EH, whose silent cells still hold their last arrivals).
    #[test]
    fn ranking_skips_keys_silent_for_longer_than_the_window() {
        let w = WindowSpec::time(3_000, 1_000);
        let q = Query::total_arrivals();
        for backend in [Backend::Eh, Backend::Dw] {
            let mut store: SketchStore<u64> = SketchStore::new(spec().backend(backend)).unwrap();
            for key in 0..520u64 {
                let last = if key < 20 { 3_000 } else { 1_500 };
                for t in (key % 7 + 1..=last).step_by(7) {
                    store.insert(key, t, key % 64);
                }
            }
            let mut ranking = Ranking::new(10);
            let scored = store.rank_into(&mut ranking, &q, w);
            assert!(scored <= 20, "{backend:?}: scored {scored} of 520");
            let top = ranking.into_owned();
            assert_eq!(top.len(), 10);
            assert!(top.iter().all(|(key, _)| *key < 20), "{backend:?}: {top:?}");
        }
    }

    #[test]
    fn grouped_ingest_eviction_follows_first_appearance_order() {
        let mut store: SketchStore<&'static str> = SketchStore::new(spec()).unwrap();
        // Raw interleaving writes "a" last, but grouped dispatch stamps
        // keys by first appearance: a, b, c.
        store.ingest(&[
            ("a", StreamEvent::new(1, 1)),
            ("b", StreamEvent::new(1, 1)),
            ("a", StreamEvent::new(2, 2)),
            ("c", StreamEvent::new(1, 3)),
        ]);
        assert_eq!(store.version(), 3);
        assert_eq!(store.written_since(1), vec![&"b", &"c"]);
    }

    #[test]
    fn construction_validates_spec_and_capacity() {
        assert!(SketchStore::<u64>::new(SketchSpec::time(0)).is_err());
    }

    #[test]
    fn store_works_over_count_based_specs() {
        let mut counts: SketchStore<u64> =
            SketchStore::new(SketchSpec::count(100).seed(1)).unwrap();
        for i in 0..400u64 {
            counts.insert(i % 2, i, 5);
        }
        let est = counts
            .query(&0, &Query::point(5), WindowSpec::last(100))
            .unwrap()
            .unwrap()
            .into_value();
        assert!((est.value - 100.0).abs() <= 11.0);
    }

    #[test]
    fn advance_to_reaches_every_resident_sketch() {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        store.insert(1, 5, 0);
        store.insert(2, 5, 0);
        store.advance_to(50);
        // Later writes at the advanced tick are monotone for every key.
        store.insert(1, 50, 0);
        store.insert(2, 50, 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn memory_report_totals_and_ranks_tenants() {
        let mut store: SketchStore<&'static str> = SketchStore::new(spec()).unwrap();
        for t in 1..=2_000u64 {
            store.insert("busy", t, t % 64);
            if t % 50 == 0 {
                store.insert("idle", t, 1);
            }
        }
        let report = store.memory_report();
        assert_eq!(report.per_key.len(), 2);
        assert_eq!(report.total, store.memory_bytes());
        assert_eq!(
            report.total,
            report.per_key.iter().map(|&(_, b)| b).sum::<usize>()
        );
        // The busy tenant holds more buckets, so it leads the report; the
        // per-key numbers agree with the trait-object accessor.
        assert_eq!(report.per_key[0].0, "busy");
        assert!(report.per_key[0].1 >= report.per_key[1].1);
        for (key, bytes) in &report.per_key {
            assert_eq!(*bytes, store.get(key).unwrap().memory_bytes());
            assert!(*bytes > 0);
        }
    }

    #[test]
    fn debug_formatting_is_stable() {
        let store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        let dbg = format!("{store:?}");
        assert!(dbg.contains("SketchStore") && dbg.contains("keys"));
    }

    /// Bit-identical point answers across two stores for every resident key.
    fn assert_stores_agree(a: &SketchStore<u64>, b: &SketchStore<u64>, w: WindowSpec) {
        assert_eq!(a.keys(), b.keys());
        for key in a.keys() {
            for item in 0..8u64 {
                let va = a
                    .query(&key, &Query::point(item), w)
                    .unwrap()
                    .unwrap()
                    .into_value()
                    .value;
                let vb = b
                    .query(&key, &Query::point(item), w)
                    .unwrap()
                    .unwrap()
                    .into_value()
                    .value;
                assert_eq!(va.to_bits(), vb.to_bits(), "key {key} item {item}");
            }
        }
    }

    #[test]
    fn full_snapshot_round_trips_fleet_and_eviction_state() {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        for t in 1..=800u64 {
            store.insert(t % 6, t, t % 8);
        }
        let bytes = store.write_snapshot().unwrap();
        assert_eq!(store.checkpoint_seq(), 1);

        let restored = SketchStore::<u64>::load_snapshot(&bytes).unwrap();
        assert_eq!(restored.checkpoint_seq(), 1);
        // A restored grid holds exactly its buckets: every sketch is its
        // header plus its grid's cells packed run against run. The live one
        // also keeps the free slots its runs grew into.
        let packed: usize = (0..6u64)
            .map(|key| {
                let sketch = restored.get(&key).unwrap().as_any();
                let sketch = sketch
                    .downcast_ref::<EcmSketch<ExponentialHistogram>>()
                    .unwrap();
                std::mem::size_of_val(sketch) + sketch.grid().packed_bytes()
            })
            .sum();
        assert_eq!(restored.key_count(), 6);
        assert_eq!(restored.memory_bytes(), packed);
        assert!(restored.memory_bytes() <= store.memory_bytes());
        // Restoring is a fixed point: the restored store, snapshotted and
        // restored again, takes the same bytes.
        let again = SketchStore::<u64>::load_snapshot(&restored.clone().write_snapshot().unwrap());
        assert_eq!(again.unwrap().memory_bytes(), restored.memory_bytes());
        assert_stores_agree(&store, &restored, WindowSpec::time(800, 1_000));

        // The write stamps survived: the same keys read as written since
        // any version, and the next write stamps the same version.
        assert_eq!(restored.version(), store.version());
        assert_eq!(restored.written_since(797), store.written_since(797));
        let mut live = store;
        let mut back = restored;
        live.insert(99, 801, 0);
        back.insert(99, 801, 0);
        assert_eq!(live.written_since(800), back.written_since(800));
        // Re-encoded at the sequence it was written at, a loaded store is
        // the loaded bytes, byte for byte.
        let mut again = SketchStore::<u64>::load_snapshot(&bytes).unwrap();
        again.checkpoint_seq = 0;
        assert!(again.write_snapshot().unwrap() == bytes);
    }

    #[test]
    fn store_snapshot_rejects_corruption_and_misuse() {
        use crate::snapshot::SnapshotError;
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        for t in 1..=100u64 {
            store.insert(t % 3, t, 1);
        }
        let full = store.write_snapshot().unwrap();
        // Bad magic, version bump, bit rot and truncation are the
        // robustness suite's (`tests/frame_robustness.rs`); retired header
        // values are `retired_values_are_typed_errors_naming_the_field`'s.
        // A single-sketch record is not a fleet.
        let record = spec().snapshot(store.get(&1).unwrap()).unwrap();
        assert!(matches!(
            SketchStore::<u64>::load_snapshot(&record),
            Err(SnapshotError::BadMagic)
        ));
        // Nothing may follow the last record.
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(matches!(
            SketchStore::<u64>::load_snapshot(&trailing),
            Err(SnapshotError::TrailingBytes { count: 1 })
        ));
        // A one-key fleet re-sealed with its record repeated: every checksum
        // is valid, so it fails only when the second copy meets the first.
        let mut one: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        one.insert(1, 1, 1);
        let bytes = one.write_snapshot().unwrap();
        let (header, record) = split_header(&bytes);
        let mut count = header.to_vec();
        assert_eq!(count[header.len() - 9], 1, "the record count");
        count[header.len() - 9] = 2;
        let mut doubled = reseal(count);
        doubled.extend_from_slice(record);
        doubled.extend_from_slice(record);
        assert!(matches!(
            SketchStore::<u64>::load_snapshot(&doubled),
            Err(SnapshotError::Codec(CodecError::Corrupt {
                context: "store duplicate key"
            }))
        ));
    }

    /// `bytes` split after the header seal: the sealed header, then the
    /// key records.
    fn split_header(bytes: &[u8]) -> (&[u8], &[u8]) {
        let end = (1..bytes.len() - 8)
            .find(|&h| bytes[h..].starts_with(&frame::fnv1a(&bytes[..h]).to_le_bytes()))
            .expect("the header seal");
        bytes.split_at(end + 8)
    }

    #[test]
    fn retired_values_are_typed_errors_naming_the_field() {
        use crate::snapshot::SnapshotError;
        // One key written twice: clock 2, and the key's stamps 2 and 2.
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        store.insert(7, 1, 1);
        store.insert(7, 2, 1);
        let bytes = store.write_snapshot().unwrap();
        let (header, record) = split_header(&bytes);
        // The header closes with seq 1, no capacity, policy 0, clock 2, no
        // evictions, no tombstones and 1 record, then its 8-byte seal.
        let fields = header.len() - 8 - 7;
        assert_eq!(header[fields..header.len() - 8], [1, 0, 0, 2, 0, 0, 1]);
        let mut capacity = Vec::new();
        put_opt(&mut capacity, Some(3));
        let mut tombstone = vec![1];
        9u64.encode_key(&mut tombstone);
        // The one record after the key: order stamp 2 → 1.
        let mut stale_order = record.to_vec();
        assert_eq!(stale_order[1..3], [2, 2], "the record's stamps");
        stale_order[1] = 1;

        let header_with = |at: usize, with: &[u8]| {
            let mut bad = reseal(replace_zero(header, at, with));
            bad.extend_from_slice(record);
            bad
        };
        let retired = [
            ("kind", header_with(3, &[1])),
            ("capacity", header_with(fields + 1, &capacity)),
            ("policy", header_with(fields + 2, &[1])),
            ("evictions", header_with(fields + 4, &[1])),
            ("tombstones", header_with(fields + 5, &tombstone)),
            ("order stamp", [header, &reseal(stale_order)].concat()),
        ];
        for (name, bad) in retired {
            match SketchStore::<u64>::load_snapshot(&bad) {
                Err(SnapshotError::Retired { field }) => {
                    assert!(field.contains(name), "{name}: {field}")
                }
                other => panic!("{name}: {other:?}"),
            }
        }
        // The unedited bytes still load.
        assert!(SketchStore::<u64>::load_snapshot(&bytes).is_ok());
    }

    #[test]
    fn store_full_bytes_are_pinned() {
        let spec = SketchSpec::time(100)
            .epsilon(0.5)
            .delta(0.5)
            .seed(7)
            .backend(Backend::Exact);
        let mut store: SketchStore<u64> = SketchStore::new(spec).unwrap();
        store.insert(2, 5, 9);
        store.insert(1, 6, 3);
        store.insert(2, 7, 9);
        let bytes = store.write_snapshot().unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        // An unbounded two-key fleet as format v1 lays it out: magic,
        // version, kind, spec, seq, capacity, policy, clock, evictions,
        // tombstones, record count, header seal, then one sealed record per
        // key in key order. A change here moves every fleet already on disk.
        assert_eq!(
            hex,
            concat!(
                // Header: EF v1, kind 0, the spec, seq 1, no capacity,
                // policy 0, clock 3, 0 evictions, 0 tombstones, 2 records.
                "454601000064000000000000e03f000000000000e03f03000700000000000000",
                "00000001000003000002e11e3ca2d49e5b30",
                // Key 1: stamps 2 and 2, a 35-byte payload, its seal.
                "0102022301060107010101060106010100000001000000010000000100000001",
                "000000000106019c3831608daa45a1",
                // Key 2: stamps 3 and 3, a 37-byte payload, its seal.
                "0203032501060107010100000001000000010000000100000001000000010205",
                "01020107020002070227d41e3e6ccf7d46",
            )
        );
    }

    #[test]
    fn string_keyed_stores_snapshot_too() {
        let mut store: SketchStore<String> = SketchStore::new(spec()).unwrap();
        for t in 1..=200u64 {
            store.insert(format!("tenant-{}", t % 4), t, t % 8);
        }
        let bytes = store.write_snapshot().unwrap();
        let restored = SketchStore::<String>::load_snapshot(&bytes).unwrap();
        assert_eq!(restored.keys(), store.keys());
        let w = WindowSpec::time(200, 1_000);
        for key in store.keys() {
            let a = store
                .query(&key, &Query::point(3), w)
                .unwrap()
                .unwrap()
                .into_value()
                .value;
            let b = restored
                .query(&key, &Query::point(3), w)
                .unwrap()
                .unwrap()
                .into_value()
                .value;
            assert_eq!(a.to_bits(), b.to_bits(), "key {key}");
        }
    }
}
