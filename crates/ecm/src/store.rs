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
//! * **Capacity control** — an optional key cap with LRU or FIFO eviction,
//!   so unbounded key universes (attack traffic, ephemeral sessions) cannot
//!   exhaust memory.
//! * **Fleet snapshots** — full and incremental `"EF"` records: a sealed
//!   header, then one sealed record per key, framed by the shared rules of
//!   [`frame`].
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

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
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

/// Which resident key a full [`SketchStore`] discards for a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Discard the least recently *written* key (queries do not refresh
    /// recency; reads are cheap and should not pin attack keys in).
    Lru,
    /// Discard the earliest-created key.
    Fifo,
}

/// One tenant slot: the sketch plus its two clock stamps — `order_stamp`
/// is the key's current position in [`SketchStore::order`] (refreshed per
/// write under LRU, the creation stamp under FIFO), `last_written` the
/// stamp of the most recent write. The sketch is shared with every clone
/// of the store until one side writes it ([`unshared`]).
#[derive(Clone)]
struct Entry {
    sketch: Arc<dyn Sketch>,
    order_stamp: u64,
    last_written: u64,
    /// Written (or created) since the last checkpoint — the working set an
    /// incremental snapshot rewrites.
    dirty: bool,
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

    /// Whether no row scoring at most `bound` can enter any more: `k` rows
    /// are kept and `bound` is **strictly** below the worst of them (a row
    /// that ties the worst score may still win on its key).
    pub fn prunes(&self, bound: f64) -> bool {
        self.rows.len() >= self.k && self.rows.peek().is_none_or(|worst| bound < worst.score)
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

/// A sketch awaiting its turn in [`SketchStore::rank_into`], ordered by
/// its score bound.
struct Candidate<'a, K> {
    bound: f64,
    key: &'a K,
    sketch: &'a dyn Sketch,
}

impl<K> Ord for Candidate<'_, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound.total_cmp(&other.bound)
    }
}

impl<K> PartialOrd for Candidate<'_, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> PartialEq for Candidate<'_, K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for Candidate<'_, K> {}

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
/// grouped batched ingest, cross-key queries and bounded capacity. See the
/// [module docs](self) for the full tour.
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
    /// Eviction index: policy stamp → key, ordered oldest-first. For LRU
    /// the stamp is the key's `last_written`, for FIFO the stamp it was
    /// created with; stamps are unique (one clock tick per write), so the
    /// map's first entry is always the current victim and eviction is
    /// O(log n). Kept only by bounded stores: an unbounded one never
    /// evicts, and without the index neither a write nor a `clone` copies
    /// the key a second time.
    order: BTreeMap<u64, K>,
    capacity: Option<usize>,
    eviction: Eviction,
    /// Monotone stamp source for `created` / `last_written`.
    clock: u64,
    evictions: u64,
    /// Sequence number of the last checkpoint written or restored (0 =
    /// none yet); incremental snapshots chain on it.
    checkpoint_seq: u64,
    /// Keys evicted since the last checkpoint — shipped as tombstones so an
    /// incremental restore drops them too.
    dropped: BTreeSet<K>,
    scratch: GroupScratch,
}

impl<K: Eq + Hash + Ord + Clone> SketchStore<K> {
    /// An unbounded store; the spec is validated eagerly so a bad
    /// description fails here, not on the first write.
    ///
    /// # Errors
    /// Any [`SketchSpec::validate`] error.
    pub fn new(spec: SketchSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(SketchStore {
            spec,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            capacity: None,
            eviction: Eviction::Lru,
            clock: 0,
            evictions: 0,
            checkpoint_seq: 0,
            dropped: BTreeSet::new(),
            scratch: GroupScratch::default(),
        })
    }

    /// A store holding at most `capacity` keys, discarding per `eviction`
    /// when a new key arrives at the cap.
    ///
    /// # Errors
    /// Any spec validation error, or an
    /// [`InvalidParameter`](SpecError::InvalidParameter) for a zero
    /// capacity.
    pub fn with_capacity(
        spec: SketchSpec,
        capacity: usize,
        eviction: Eviction,
    ) -> Result<Self, SpecError> {
        if capacity == 0 {
            return Err(SpecError::InvalidParameter {
                detail: "store capacity must be positive".into(),
            });
        }
        let mut store = SketchStore::new(spec)?;
        store.capacity = Some(capacity);
        store.eviction = eviction;
        Ok(store)
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

    /// Keys discarded by the capacity policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The resident keys, in sorted order (the map iteration order is not
    /// deterministic; scans and tests want one).
    pub fn keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self.entries.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Read access to one key's sketch, if resident.
    pub fn get(&self, key: &K) -> Option<&dyn Sketch> {
        self.entries.get(key).map(|e| &*e.sketch)
    }

    /// Write access to one key's sketch, creating it from the spec on first
    /// touch (evicting per policy if at capacity). Direct access marks the
    /// key written; prefer [`insert`](Self::insert) /
    /// [`ingest`](Self::ingest) unless you need trait methods not surfaced
    /// here.
    pub fn sketch_mut(&mut self, key: &K) -> &mut dyn Sketch {
        self.clock += 1;
        let stamp = self.clock;
        if !self.entries.contains_key(key) {
            if let Some(cap) = self.capacity {
                if self.entries.len() >= cap {
                    self.evict_one();
                }
            }
            let sketch = self
                .spec
                .build()
                .expect("spec was validated at store construction");
            self.entries.insert(
                key.clone(),
                Entry {
                    sketch: Arc::from(sketch),
                    order_stamp: stamp,
                    last_written: stamp,
                    dirty: true,
                },
            );
            if self.capacity.is_some() {
                self.order.insert(stamp, key.clone());
            }
            let entry = self.entries.get_mut(key).expect("just inserted");
            return unshared(&mut entry.sketch);
        }
        let entry = self.entries.get_mut(key).expect("presence checked");
        if self.eviction == Eviction::Lru {
            // Refresh the key's position in the eviction order.
            if self.capacity.is_some() {
                self.order.remove(&entry.order_stamp);
                self.order.insert(stamp, key.clone());
            }
            entry.order_stamp = stamp;
        }
        entry.last_written = stamp;
        entry.dirty = true;
        unshared(&mut entry.sketch)
    }

    /// Discard the policy's victim: the oldest stamp in the eviction
    /// index, O(log n) even under sustained new-key churn at capacity.
    fn evict_one(&mut self) {
        if let Some((_, victim)) = self.order.pop_first() {
            self.entries.remove(&victim);
            self.evictions += 1;
            // The victim becomes a tombstone; should it be recreated
            // later, a fresh dirty record will shadow the tombstone
            // (tombstones apply first).
            self.dropped.insert(victim);
        }
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
    /// Keys are dispatched in order of first appearance, which makes
    /// capacity eviction deterministic for a given batch — note that
    /// within one batch, write recency (and so the LRU order) follows that
    /// first-appearance order, not the raw event interleaving.
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
    /// first-appearance order — [`sketch_mut`](Self::sketch_mut) creates,
    /// stamps and evicts exactly as one write per key would — and feeds
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
    /// with no arrivals. Does not refresh write recency. Keys whose write
    /// clock actually moves are marked dirty — the clock is sketch state an
    /// incremental snapshot must carry — while keys already at or past `ts`
    /// (and every key of a count-based store, whose clock only moves on
    /// arrivals) are provably unchanged: they stay out of the next delta
    /// and stay shared with any clone of the store.
    pub fn advance_to(&mut self, ts: u64) {
        if self.spec.clock() == Clock::Count {
            return;
        }
        for entry in self.entries.values_mut() {
            if entry.sketch.write_clock() < ts {
                unshared(&mut entry.sketch).advance_to(ts);
                entry.dirty = true;
            }
        }
    }

    /// Answer `q` over `w` from `key`'s sketch; `None` when the key is not
    /// resident (distinct from a resident sketch's [`QueryError`]).
    pub fn query(
        &self,
        key: &K,
        q: &Query<'_>,
        w: WindowSpec,
    ) -> Option<Result<Answer, QueryError>> {
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
    /// with [`query`](crate::query::SketchReader::query) in descending
    /// bound order until the ranking [`prunes`](Ranking::prunes) the
    /// largest bound left — every sketch behind it scores at most its
    /// bound, strictly below the k-th score, and could not have placed.
    /// The rows kept are therefore exactly those a scan of every sketch
    /// would keep; only the work differs. It degrades gracefully: a
    /// backend without bounds is scanned, and bounds gone stale (keys
    /// silent for windows still hold their last arrivals) prune less.
    pub fn rank_into<'a>(
        &'a self,
        ranking: &mut Ranking<&'a K>,
        q: &Query<'_>,
        w: WindowSpec,
    ) -> usize {
        let mut candidates: BinaryHeap<Candidate<'a, K>> = self
            .entries
            .iter()
            .map(|(key, e)| Candidate {
                bound: e.sketch.score_bound(q, w).unwrap_or(f64::INFINITY),
                key,
                sketch: &*e.sketch,
            })
            // The floor an earlier store left in the ranking.
            .filter(|c| !ranking.prunes(c.bound))
            .collect::<Vec<_>>()
            .into();
        let mut scored = 0;
        while let Some(c) = candidates.pop() {
            if ranking.prunes(c.bound) {
                break;
            }
            scored += 1;
            if let Some(score) = c.sketch.query(q, w).ok().and_then(|a| a.value()) {
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
    /// none); incremental snapshots chain on it.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Number of resident keys an incremental snapshot would rewrite
    /// (written or created since the last checkpoint).
    pub fn dirty_len(&self) -> usize {
        self.entries.values().filter(|e| e.dirty).count()
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

const KIND_FULL: u8 = 0;
const KIND_INCREMENTAL: u8 = 1;

/// A parsed-and-verified store snapshot, ready to materialize.
struct ParsedStore<K> {
    kind: u8,
    spec: SketchSpec,
    seq: u64,
    /// Checkpoint the delta applies on top of (incremental only).
    base: u64,
    capacity: Option<usize>,
    eviction: Eviction,
    clock: u64,
    evictions: u64,
    /// `(key, order_stamp, last_written, sketch)` in writer order.
    records: Vec<(K, u64, u64, Box<dyn Sketch>)>,
    tombstones: Vec<K>,
}

/// Fleet persistence: one snapshot holds the spec, the eviction state
/// (stamps, clock, counters) and every resident sketch's full payload, so
/// [`load_snapshot`](SketchStore::load_snapshot) rebuilds a store that is
/// observationally identical — queries, memory accounting, and *future
/// eviction decisions* included. [`write_incremental`](SketchStore::write_incremental)
/// rewrites only keys dirtied since the last checkpoint (plus tombstones
/// for evicted keys), chained by sequence number.
impl<K: Eq + Hash + Ord + Clone + SnapshotKey> SketchStore<K> {
    /// Serialize the whole fleet as a **full** checkpoint. Advances the
    /// checkpoint sequence and resets the dirty set, so a subsequent
    /// [`write_incremental`](Self::write_incremental) captures exactly the
    /// writes from here on.
    ///
    /// **Durability contract:** the sequence advances when the bytes are
    /// rendered, not when they reach disk — the caller owns persistence.
    /// If persisting fails, retry with the *same returned bytes* (they
    /// remain the checkpoint for this sequence number); discarding them and
    /// writing the next checkpoint instead leaves a gap the restore side
    /// reports as [`SequenceMismatch`](SnapshotError::SequenceMismatch).
    ///
    /// # Errors
    /// [`SnapshotError::SpecMismatch`] if a resident sketch does not match
    /// the spec (impossible through this API, possible through downcasting
    /// games).
    pub fn write_snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let keys: Vec<K> = self.keys();
        let bytes = self.render(KIND_FULL, &keys)?;
        self.checkpointed(self.checkpoint_seq + 1);
        Ok(bytes)
    }

    /// Serialize only the keys dirtied since the last checkpoint, plus
    /// tombstones for keys evicted since — the delta to chain onto the
    /// snapshot (full or incremental) with the current
    /// [`checkpoint_seq`](Self::checkpoint_seq). Advances the sequence and
    /// resets the dirty set. The durability contract of
    /// [`write_snapshot`](Self::write_snapshot) applies: on a failed
    /// persist, retry with the same returned bytes.
    ///
    /// # Errors
    /// As [`write_snapshot`](Self::write_snapshot).
    pub fn write_incremental(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let mut keys: Vec<K> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        let bytes = self.render(KIND_INCREMENTAL, &keys)?;
        self.checkpointed(self.checkpoint_seq + 1);
        Ok(bytes)
    }

    /// The store now equals checkpoint `seq`: the working set is empty.
    fn checkpointed(&mut self, seq: u64) {
        self.checkpoint_seq = seq;
        for entry in self.entries.values_mut() {
            entry.dirty = false;
        }
        self.dropped.clear();
    }

    fn render(&self, kind: u8, keys: &[K]) -> Result<Vec<u8>, SnapshotError> {
        format_bounds(&self.spec)?;
        let mut buf = frame::begin(STORE_MAGIC, SNAPSHOT_VERSION);
        put_u8(&mut buf, kind);
        encode_spec(&self.spec, &mut buf);
        put_varint(&mut buf, self.checkpoint_seq + 1);
        if kind == KIND_INCREMENTAL {
            put_varint(&mut buf, self.checkpoint_seq);
        }
        put_opt(&mut buf, self.capacity.map(|c| c as u64));
        put_u8(
            &mut buf,
            match self.eviction {
                Eviction::Lru => 0,
                Eviction::Fifo => 1,
            },
        );
        put_varint(&mut buf, self.clock);
        put_varint(&mut buf, self.evictions);
        // Tombstones live in the header segment so that one header checksum
        // and the per-record checksums together cover every byte exactly
        // once — no redundant whole-file hashing pass on multi-MB fleets.
        if kind == KIND_INCREMENTAL {
            put_varint(&mut buf, self.dropped.len() as u64);
            for key in &self.dropped {
                key.encode_key(&mut buf);
            }
        } else {
            put_varint(&mut buf, 0);
        }
        put_varint(&mut buf, keys.len() as u64);
        frame::seal(&mut buf, 0);
        let mut payload = Vec::new();
        for key in keys {
            let entry = self.entries.get(key).expect("caller passes resident keys");
            let start = buf.len();
            key.encode_key(&mut buf);
            put_varint(&mut buf, entry.order_stamp);
            put_varint(&mut buf, entry.last_written);
            payload.clear();
            encode_payload(&self.spec, &*entry.sketch, &mut payload)?;
            frame::put_bytes(&mut buf, &payload);
            frame::seal(&mut buf, start);
        }
        Ok(buf)
    }

    /// The one decode path of an `"EF"` snapshot, full or incremental.
    fn parse(bytes: &[u8]) -> Result<ParsedStore<K>, SnapshotError> {
        let mut input = bytes;
        let versions = SNAPSHOT_VERSION..=SNAPSHOT_VERSION;
        frame::open(&mut input, STORE_MAGIC, versions, "store snapshot header")?;
        let kind = get_u8(&mut input, "store snapshot kind")?;
        if kind != KIND_FULL && kind != KIND_INCREMENTAL {
            return Err(corrupt("store snapshot kind"));
        }
        let spec = decode_spec(&mut input)?;
        let seq = get_varint(&mut input, "store snapshot seq")?;
        let base = if kind == KIND_INCREMENTAL {
            get_varint(&mut input, "store snapshot base seq")?
        } else {
            0
        };
        let capacity = match get_opt(&mut input, "store capacity")? {
            Some(0) => return Err(corrupt("store capacity")),
            c => c.map(|c| c as usize),
        };
        let eviction = match get_u8(&mut input, "store eviction policy")? {
            0 => Eviction::Lru,
            1 => Eviction::Fifo,
            _ => return Err(corrupt("store eviction policy")),
        };
        let clock = get_varint(&mut input, "store clock")?;
        let evictions = get_varint(&mut input, "store evictions")?;
        let n_tombstones = get_varint(&mut input, "store tombstone count")? as usize;
        if kind == KIND_FULL && n_tombstones != 0 {
            return Err(corrupt("store tombstones"));
        }
        let mut tombstones = Vec::with_capacity(n_tombstones.min(1024));
        for _ in 0..n_tombstones {
            tombstones.push(K::decode_key(&mut input)?);
        }
        let n_records = get_varint(&mut input, "store record count")? as usize;
        // Header integrity (everything parsed so far) before the records
        // are decoded; each record then carries its own seal, so every
        // byte is verified exactly once.
        frame::check_seal(bytes, &mut input, "store snapshot header")?;
        let mut records = Vec::new();
        for _ in 0..n_records {
            let start = input;
            let key = K::decode_key(&mut input)?;
            let order_stamp = get_varint(&mut input, "store order stamp")?;
            let last_written = get_varint(&mut input, "store write stamp")?;
            if order_stamp == 0 || order_stamp > clock || last_written > clock {
                return Err(corrupt("store stamps"));
            }
            let payload = frame::take_bytes(&mut input, "store payload")?;
            frame::check_seal(start, &mut input, "store key record")?;
            let sketch = decode_payload(&spec, payload)?;
            records.push((key, order_stamp, last_written, sketch));
        }
        if !input.is_empty() {
            return Err(SnapshotError::TrailingBytes { count: input.len() });
        }
        Ok(ParsedStore {
            kind,
            spec,
            seq,
            base,
            capacity,
            eviction,
            clock,
            evictions,
            records,
            tombstones,
        })
    }

    /// Rebuild a store from a **full** snapshot: spec, capacity policy,
    /// eviction stamps and every sketch, observationally identical to the
    /// store that wrote it. The restored store starts with a clean dirty
    /// set at the snapshot's [`checkpoint_seq`](Self::checkpoint_seq),
    /// ready for [`apply_incremental`](Self::apply_incremental) deltas.
    ///
    /// # Errors
    /// Any [`SnapshotError`]; applying an incremental snapshot here is a
    /// [`SpecMismatch`](SnapshotError::SpecMismatch).
    pub fn load_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let parsed = Self::parse(bytes)?;
        if parsed.kind != KIND_FULL {
            return Err(SnapshotError::SpecMismatch {
                detail: "incremental snapshot: load the full base first, \
                         then apply_incremental"
                    .into(),
            });
        }
        let mut store = SketchStore::new(parsed.spec)?;
        store.capacity = parsed.capacity;
        store.eviction = parsed.eviction;
        store.clock = parsed.clock;
        store.evictions = parsed.evictions;
        store.checkpoint_seq = parsed.seq;
        store.insert_records(parsed.records)?;
        store.check_capacity()?;
        Ok(store)
    }

    /// Apply an incremental snapshot on top of this (restored) store:
    /// tombstoned keys are dropped, rewritten keys replaced, and the
    /// eviction clock fast-forwarded to the writer's. The delta must chain
    /// directly on this store's [`checkpoint_seq`](Self::checkpoint_seq).
    ///
    /// # Errors
    /// [`SnapshotError::SequenceMismatch`] when applied out of order,
    /// [`SpecMismatch`](SnapshotError::SpecMismatch) when spec or capacity
    /// policy differ, or any decode error. On any error the store is
    /// unchanged.
    pub fn apply_incremental(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let parsed = Self::parse(bytes)?;
        if parsed.kind != KIND_INCREMENTAL {
            return Err(SnapshotError::SpecMismatch {
                detail: "full snapshot: use load_snapshot, not apply_incremental".into(),
            });
        }
        if parsed.spec != self.spec {
            return Err(SnapshotError::SpecMismatch {
                detail: format!(
                    "delta spec {:?} differs from the store's {:?}",
                    parsed.spec, self.spec
                ),
            });
        }
        if parsed.capacity != self.capacity || parsed.eviction != self.eviction {
            return Err(SnapshotError::SpecMismatch {
                detail: "delta capacity/eviction policy differs from the store's".into(),
            });
        }
        if parsed.base != self.checkpoint_seq {
            return Err(SnapshotError::SequenceMismatch {
                expected: parsed.base,
                found: self.checkpoint_seq,
            });
        }
        // Applied to a copy (a map of pointers) and swapped in only whole:
        // a delta that fails part-way leaves this store untouched.
        let mut next = self.clone();
        // Tombstones first: a key evicted and then recreated since the
        // base carries both a tombstone and a fresh record.
        for key in &parsed.tombstones {
            if let Some(entry) = next.entries.remove(key) {
                next.order.remove(&entry.order_stamp);
            }
        }
        for (key, _, _, _) in &parsed.records {
            if let Some(entry) = next.entries.remove(key) {
                next.order.remove(&entry.order_stamp);
            }
        }
        next.insert_records(parsed.records)?;
        next.clock = parsed.clock;
        next.evictions = parsed.evictions;
        next.checkpointed(parsed.seq);
        next.check_capacity()?;
        *self = next;
        Ok(())
    }

    fn insert_records(
        &mut self,
        records: Vec<(K, u64, u64, Box<dyn Sketch>)>,
    ) -> Result<(), SnapshotError> {
        for (key, order_stamp, last_written, sketch) in records {
            if self.capacity.is_some() && self.order.insert(order_stamp, key.clone()).is_some() {
                return Err(corrupt("store duplicate order stamp"));
            }
            if self
                .entries
                .insert(
                    key,
                    Entry {
                        sketch: Arc::from(sketch),
                        order_stamp,
                        last_written,
                        dirty: false,
                    },
                )
                .is_some()
            {
                return Err(corrupt("store duplicate key"));
            }
        }
        Ok(())
    }

    fn check_capacity(&self) -> Result<(), SnapshotError> {
        if self.capacity.is_some_and(|cap| self.entries.len() > cap) {
            return Err(corrupt("store capacity exceeded"));
        }
        Ok(())
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
            .field("capacity", &self.capacity)
            .field("eviction", &self.eviction)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Backend;

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

    #[test]
    fn capacity_evicts_lru_by_write_recency() {
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 2, Eviction::Lru).unwrap();
        store.insert(1, 10, 0);
        store.insert(2, 11, 0);
        store.insert(1, 12, 0); // refresh key 1; key 2 is now LRU
        store.insert(3, 13, 0); // evicts key 2
        assert_eq!(store.keys(), vec![1, 3]);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn grouped_ingest_eviction_follows_first_appearance_order() {
        use crate::sketch::StreamEvent;
        let mut store: SketchStore<&'static str> =
            SketchStore::with_capacity(spec(), 2, Eviction::Lru).unwrap();
        // Raw interleaving writes "a" last, but grouped dispatch stamps
        // keys by first appearance: a, b, then c evicts a.
        store.ingest(&[
            ("a", StreamEvent::new(1, 1)),
            ("b", StreamEvent::new(1, 1)),
            ("a", StreamEvent::new(2, 2)),
            ("c", StreamEvent::new(1, 3)),
        ]);
        assert_eq!(store.keys(), vec!["b", "c"]);
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn capacity_evicts_fifo_by_creation() {
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 2, Eviction::Fifo).unwrap();
        store.insert(1, 10, 0);
        store.insert(2, 11, 0);
        store.insert(1, 12, 0); // writes don't matter to FIFO
        store.insert(3, 13, 0); // evicts key 1 (oldest creation)
        assert_eq!(store.keys(), vec![2, 3]);
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn churning_one_shot_keys_stay_within_capacity() {
        // The attack-traffic scenario: sustained brand-new keys at
        // capacity. Every arrival evicts exactly one resident, the hot
        // keys being rewritten stay resident under LRU, and the eviction
        // index never drifts from the entry map.
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 8, Eviction::Lru).unwrap();
        for t in 1..=500u64 {
            store.insert(t % 4, t, 0); // four hot tenants, always refreshed
            store.insert(1_000 + t, t, 0); // one-shot noise key per tick
        }
        assert_eq!(store.len(), 8);
        let keys = store.keys();
        for hot in 0..4u64 {
            assert!(keys.contains(&hot), "hot key {hot} evicted: {keys:?}");
        }
        // 500 noise keys entered an 8-slot store: all but the last few
        // were pushed back out.
        assert!(store.evictions() >= 490, "evictions={}", store.evictions());
    }

    #[test]
    fn construction_validates_spec_and_capacity() {
        assert!(SketchStore::<u64>::new(SketchSpec::time(0)).is_err());
        assert!(
            SketchStore::<u64>::with_capacity(spec(), 0, Eviction::Lru).is_err(),
            "zero capacity must be rejected"
        );
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
        let store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 7, Eviction::Fifo).unwrap();
        let dbg = format!("{store:?}");
        assert!(dbg.contains("SketchStore") && dbg.contains("capacity"));
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
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 4, Eviction::Lru).unwrap();
        for t in 1..=800u64 {
            store.insert(t % 6, t, t % 8); // 6 keys through a 4-slot store
        }
        let before_evictions = store.evictions();
        let bytes = store.write_snapshot().unwrap();
        assert_eq!(store.checkpoint_seq(), 1);
        assert_eq!(store.dirty_len(), 0, "checkpoint resets the dirty set");

        let restored = SketchStore::<u64>::load_snapshot(&bytes).unwrap();
        assert_eq!(restored.checkpoint_seq(), 1);
        assert_eq!(restored.evictions(), before_evictions);
        assert_eq!(restored.memory_bytes(), store.memory_bytes());
        assert_stores_agree(&store, &restored, WindowSpec::time(800, 1_000));

        // The restored store makes the *same* future eviction decision: the
        // LRU stamp index survived the round trip.
        let mut live = store;
        let mut back = restored;
        live.insert(99, 801, 0);
        back.insert(99, 801, 0);
        assert_eq!(live.keys(), back.keys(), "same victim evicted");
    }

    #[test]
    fn incremental_chain_restores_to_the_live_state() {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        for t in 1..=300u64 {
            store.insert(t % 5, t, t % 8);
        }
        let full = store.write_snapshot().unwrap();

        // Epoch 1: two keys move, one is brand new.
        for t in 301..=400u64 {
            store.insert(t % 2, t, 1);
        }
        store.insert(7, 401, 3);
        assert_eq!(store.dirty_len(), 3);
        let delta1 = store.write_incremental().unwrap();

        // Epoch 2: one more key moves.
        for t in 402..=450u64 {
            store.insert(3, t, 5);
        }
        let delta2 = store.write_incremental().unwrap();

        // Deltas only carry the dirty keys: far smaller than the base.
        assert!(
            delta1.len() < full.len(),
            "{} !< {}",
            delta1.len(),
            full.len()
        );

        let mut restored = SketchStore::<u64>::load_snapshot(&full).unwrap();
        restored.apply_incremental(&delta1).unwrap();
        restored.apply_incremental(&delta2).unwrap();
        assert_stores_agree(&store, &restored, WindowSpec::time(450, 1_000));

        // Replays and skips are sequence errors, not silent corruption.
        assert!(matches!(
            restored.apply_incremental(&delta1),
            Err(crate::snapshot::SnapshotError::SequenceMismatch { .. })
        ));
        let mut fresh = SketchStore::<u64>::load_snapshot(&full).unwrap();
        assert!(matches!(
            fresh.apply_incremental(&delta2),
            Err(crate::snapshot::SnapshotError::SequenceMismatch { .. })
        ));
    }

    #[test]
    fn incremental_tombstones_carry_evictions() {
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 3, Eviction::Lru).unwrap();
        for key in 0..3u64 {
            store.insert(key, 10, 0);
        }
        let full = store.write_snapshot().unwrap();
        // Key 3 arrives, evicting key 0 (the LRU victim).
        store.insert(3, 20, 0);
        assert_eq!(store.keys(), vec![1, 2, 3]);
        let delta = store.write_incremental().unwrap();

        let mut restored = SketchStore::<u64>::load_snapshot(&full).unwrap();
        assert_eq!(restored.keys(), vec![0, 1, 2]);
        restored.apply_incremental(&delta).unwrap();
        assert_eq!(restored.keys(), vec![1, 2, 3]);
        assert_eq!(restored.evictions(), 1);
    }

    #[test]
    fn a_delta_that_fails_part_way_leaves_the_store_untouched() {
        let mut writer: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        for t in 1..=100u64 {
            writer.insert(t % 3, t, 1);
        }
        let full = writer.write_snapshot().unwrap();
        writer.insert(1, 101, 2);
        let delta = writer.write_incremental().unwrap();

        // Re-seal the one-record delta with its record repeated: checksum
        // valid, so it fails only when the second copy meets the first.
        let header_len = (1..delta.len() - 8)
            .find(|&h| delta[h..].starts_with(&frame::fnv1a(&delta[..h]).to_le_bytes()))
            .expect("the header checksum");
        assert_eq!(delta[header_len - 1], 1, "the record count");
        let record = &delta[header_len + 8..];
        let mut doubled = delta[..header_len - 1].to_vec();
        put_varint(&mut doubled, 2);
        frame::seal(&mut doubled, 0);
        doubled.extend_from_slice(record);
        doubled.extend_from_slice(record);

        let mut store = SketchStore::<u64>::load_snapshot(&full).unwrap();
        assert!(store.apply_incremental(&doubled).is_err());
        let mut fresh = SketchStore::<u64>::load_snapshot(&full).unwrap();
        assert!(
            store.write_snapshot().unwrap() == fresh.write_snapshot().unwrap(),
            "the failed delta changed the store"
        );
    }

    #[test]
    fn eviction_shrinks_memory_accounting() {
        // The exact backend's memory is content-proportional (the EH slab
        // pre-allocates to capacity), so warm-vs-cold differences are
        // visible in the accounting.
        let exact_spec = spec().backend(Backend::Exact);
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(exact_spec, 3, Eviction::Lru).unwrap();
        for t in 1..=600u64 {
            store.insert(t % 3, t, t % 32);
        }
        let full3 = store.memory_bytes();
        assert!(full3 > 0);
        // A new key evicts one resident; the accounting must track it.
        store.insert(50, 601, 0);
        assert_eq!(store.len(), 3);
        let after = store.memory_bytes();
        assert!(
            after < full3,
            "evicting a warm sketch for a cold one must shrink memory: \
             {full3} -> {after}"
        );
        assert_eq!(
            after,
            store
                .memory_report()
                .per_key
                .iter()
                .map(|&(_, b)| b)
                .sum::<usize>()
        );
    }

    #[test]
    fn snapshot_mid_eviction_round_trips() {
        // The satellite scenario guarding the LRU stamp index: checkpoint a
        // store that has already evicted (and will evict again), restore,
        // and verify both the query surface and the *next* eviction.
        let mut store: SketchStore<u64> =
            SketchStore::with_capacity(spec(), 2, Eviction::Fifo).unwrap();
        store.insert(1, 10, 0);
        store.insert(2, 11, 0);
        store.insert(3, 12, 0); // evicts 1 (FIFO)
        assert_eq!(store.evictions(), 1);
        let bytes = store.write_snapshot().unwrap();
        let mut restored = SketchStore::<u64>::load_snapshot(&bytes).unwrap();
        assert_eq!(restored.keys(), vec![2, 3]);
        assert_eq!(restored.evictions(), 1);
        // Next eviction victim must match the original store's.
        store.insert(4, 13, 0);
        restored.insert(4, 13, 0);
        assert_eq!(store.keys(), restored.keys());
        assert_eq!(store.evictions(), restored.evictions());
    }

    #[test]
    fn store_snapshot_rejects_corruption_and_misuse() {
        let mut store: SketchStore<u64> = SketchStore::new(spec()).unwrap();
        for t in 1..=100u64 {
            store.insert(t % 3, t, 1);
        }
        let full = store.write_snapshot().unwrap();
        let delta = store.write_incremental().unwrap();

        use crate::snapshot::SnapshotError;
        // Kind misuse is typed.
        assert!(matches!(
            SketchStore::<u64>::load_snapshot(&delta),
            Err(SnapshotError::SpecMismatch { .. })
        ));
        let mut target = SketchStore::<u64>::load_snapshot(&full).unwrap();
        assert!(matches!(
            target.apply_incremental(&full),
            Err(SnapshotError::SpecMismatch { .. })
        ));
        // Bad magic, version bump, bit rot and truncation are the
        // robustness suite's (`tests/frame_robustness.rs`).
        // A delta for a different spec is refused.
        let mut other: SketchStore<u64> =
            SketchStore::new(SketchSpec::time(1_000).seed(99)).unwrap();
        other.insert(1, 1, 1);
        let _ = other.write_snapshot().unwrap();
        other.insert(1, 2, 1);
        let foreign = other.write_incremental().unwrap();
        assert!(matches!(
            target.apply_incremental(&foreign),
            Err(SnapshotError::SpecMismatch { .. })
        ));
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
