//! Sharded parallel ingestion for high-speed streams.
//!
//! The paper's problem statement demands synopses that are "time-efficient
//! (to manage high-speed data streams)" (§1). A single ECM-sketch ingests a
//! few hundred thousand to a couple of million updates per second (paper
//! Table 3); streams beyond that need parallelism. [`ShardedEcm`] provides
//! it without touching the accuracy analysis:
//!
//! * The key universe is partitioned over `k` shards by a hash of the item,
//!   so each shard's sketch summarizes a **key-disjoint substream**.
//! * A point query routes to the one shard owning the key — its estimate
//!   carries the ordinary single-sketch guarantee of Theorem 1, and with
//!   `1/k` of the stream mass hashing into each shard, `‖a_r‖₁` per shard
//!   shrinks, so in practice shard-local error *improves*.
//! * Self-joins and inner products decompose exactly over key-disjoint
//!   substreams (`F₂(⋃ᵢ Sᵢ) = Σᵢ F₂(Sᵢ)` when the `Sᵢ` share no keys), so
//!   the sharded estimate is the sum of per-shard estimates, each with its
//!   own Theorem 2 guarantee.
//!
//! [`ShardedEcm::ingest_parallel`] runs one OS thread per shard fed over
//! bounded channels — plain `std` threading, no extra dependencies — and is
//! deterministic: it produces bit-identical shards to sequential insertion
//! because routing by key preserves each shard's arrival order.
//!
//! **Reads do not go through the ingest threads.** A `ShardedEcm` is
//! plain data: queries run on whatever thread holds a reference. For
//! concurrent readers beside a writer, publish clones of it through a
//! [`LeftRight`](crate::publish::LeftRight) pair: readers pin and query
//! an immutable snapshot wait-free, with answers bit-identical to the
//! write copy's at the publication point.

use std::sync::mpsc;
use std::thread;

use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::traits::WindowCounter;
use sliding_window::{CodecError, MergeError};

use crate::config::EcmConfig;
use crate::sketch::EcmSketch;

const CODEC_VERSION: u8 = 1;

/// Multiplicative hash for shard routing (SplitMix64 finalizer). Kept
/// separate from the Count-Min hash family so that shard routing and cell
/// hashing are independent.
#[inline]
fn route_hash(item: u64, seed: u64) -> u64 {
    let mut z = item ^ seed ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs are shipped to the shard workers in batches of this size; bounded
/// batching keeps the channels from buffering the whole stream.
const BATCH: usize = 4096;

/// One pre-grouped run shipped to a shard worker: `weight` consecutive
/// occurrences of `item` at tick `ts`.
type Run = (u64, u64, u64);

/// A key-partitioned array of ECM-sketches with exact query composition.
///
/// ```
/// use ecm::{EcmBuilder, Query, ShardedEcm, SketchReader, WindowSpec};
/// use sliding_window::ExponentialHistogram;
///
/// let cfg = EcmBuilder::new(0.1, 0.1, 1_000).seed(1).eh_config();
/// // Four worker threads ingest a 10k-event stream.
/// let sk: ShardedEcm<ExponentialHistogram> =
///     ShardedEcm::ingest_parallel(&cfg, 4, (1..=10_000u64).map(|t| (t % 20, t)));
/// // Each of the 20 keys holds ~50 of the last 1000 arrivals.
/// let est = sk
///     .query(&Query::point(7), WindowSpec::time(10_000, 1_000))
///     .unwrap()
///     .into_value();
/// assert!((est.value - 50.0).abs() <= 0.1 * 1_000.0 + 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEcm<W: WindowCounter> {
    shards: Vec<EcmSketch<W>>,
    route_seed: u64,
}

impl<W: WindowCounter> ShardedEcm<W> {
    /// Create `shards` empty sketches sharing `cfg` (and therefore hash
    /// seeds — the shards stay individually mergeable with peers).
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn new(cfg: &EcmConfig<W>, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedEcm {
            shards: (0..shards)
                .map(|i| {
                    let mut sk = EcmSketch::new(cfg);
                    sk.set_id_namespace(i as u64 + 1);
                    sk
                })
                .collect(),
            route_seed: cfg.seed,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `item`.
    #[inline]
    pub fn shard_of(&self, item: u64) -> usize {
        (route_hash(item, self.route_seed) % self.shards.len() as u64) as usize
    }

    /// Insert one occurrence of `item` at tick `ts` (non-decreasing).
    pub fn insert(&mut self, item: u64, ts: u64) {
        let s = self.shard_of(item);
        self.shards[s].insert(item, ts);
    }

    /// Insert `n` occurrences of `item` at tick `ts` through the owning
    /// shard's weighted fast path (bit-identical to `n`
    /// [`insert`](Self::insert) calls).
    pub fn insert_weighted(&mut self, item: u64, ts: u64, n: u64) {
        let s = self.shard_of(item);
        self.shards[s].insert_weighted(item, ts, n);
    }

    /// Batched ingest: runs of consecutive equal `(item, ts)` events become
    /// one weighted update on the owning shard. Consecutive events always
    /// share a shard when they share an item, so grouping before routing
    /// preserves every shard's arrival subsequence — the result is
    /// bit-identical to per-event insertion.
    pub fn ingest_batch(&mut self, events: &[crate::sketch::StreamEvent]) {
        for (run, n) in crate::sketch::grouped_runs(events) {
            self.insert_weighted(run.item, run.ts, n);
        }
    }

    /// Declare that the stream clock has reached `ts` with no arrivals
    /// (forwarded to every shard sketch).
    pub fn advance_to(&mut self, ts: u64) {
        for shard in &mut self.shards {
            shard.advance_to(ts);
        }
    }

    /// Point query: routed to the owning shard; Theorem 1 applies with the
    /// shard's (smaller) stream norm. Core of the typed
    /// [`Query::point`](crate::query::Query::point) path.
    pub(crate) fn point_query(&self, item: u64, now: u64, range: u64) -> f64 {
        self.shards[self.shard_of(item)].point_query(item, now, range)
    }

    /// Self-join (F₂) estimate: the exact key-disjoint decomposition
    /// `Σ_shards F₂(shard)`; core of the typed
    /// [`Query::self_join`](crate::query::Query::self_join) path.
    pub(crate) fn self_join(&self, now: u64, range: u64) -> f64 {
        self.shards.iter().map(|s| s.self_join(now, range)).sum()
    }

    /// Inner product against another sharded sketch with the same shard
    /// count, routing seed and cell configuration.
    ///
    /// # Errors
    /// [`MergeError::IncompatibleConfig`] on shard-count or seed mismatch,
    /// or if any shard pair is incompatible.
    pub(crate) fn inner_product(
        &self,
        other: &ShardedEcm<W>,
        now: u64,
        range: u64,
    ) -> Result<f64, MergeError> {
        if self.shards.len() != other.shards.len() || self.route_seed != other.route_seed {
            return Err(MergeError::IncompatibleConfig {
                detail: format!(
                    "{} shards seed {} vs {} shards seed {}",
                    self.shards.len(),
                    self.route_seed,
                    other.shards.len(),
                    other.route_seed
                ),
            });
        }
        let mut sum = 0.0;
        for (a, b) in self.shards.iter().zip(&other.shards) {
            sum += a.inner_product(b, now, range)?;
        }
        Ok(sum)
    }

    /// Estimated total arrivals in the query range (sum over shards).
    pub(crate) fn total_arrivals(&self, now: u64, range: u64) -> f64 {
        self.shards
            .iter()
            .map(|s| s.total_arrivals(now, range))
            .sum()
    }

    /// The shards' [`EcmSketch::arrivals_bound`]s, summed in the order
    /// [`total_arrivals`](Self::total_arrivals) sums their estimates —
    /// term by term no smaller, so (float addition being monotone) no
    /// smaller in total.
    pub(crate) fn arrivals_bound(&self) -> Option<f64> {
        self.shards.iter().map(EcmSketch::arrivals_bound).sum()
    }

    /// Lifetime arrivals across all shards.
    pub fn lifetime_arrivals(&self) -> u64 {
        self.shards.iter().map(EcmSketch::lifetime_arrivals).sum()
    }

    /// Read access to the shard sketches (e.g. for shipping them to a
    /// distributed aggregation individually).
    pub fn shard_sketches(&self) -> &[EcmSketch<W>] {
        &self.shards
    }

    /// Tick of the most recent insertion across all shards (0 if empty).
    pub fn last_tick(&self) -> u64 {
        self.shards
            .iter()
            .map(EcmSketch::last_tick)
            .max()
            .unwrap_or(0)
    }

    /// Total memory across shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(EcmSketch::memory_bytes).sum()
    }

    /// Append the compact wire encoding: shard count, routing seed, then
    /// every shard sketch in order — the full mutable state, including each
    /// shard's arrival-id namespace and sequence.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, CODEC_VERSION);
        put_varint(buf, self.shards.len() as u64);
        put_varint(buf, self.route_seed);
        for shard in &self.shards {
            shard.encode(buf);
        }
    }

    /// Size of the wire encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Decode a sharded sketch previously produced by
    /// [`encode`](Self::encode); `cfg` and `shards` must match the
    /// encoder's construction parameters.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, corruption, an unsupported version, or
    /// a shard-count / routing-seed mismatch.
    pub fn decode(
        cfg: &EcmConfig<W>,
        shards: usize,
        input: &mut &[u8],
    ) -> Result<Self, CodecError> {
        let version = get_u8(input, "sharded version")?;
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let n = get_varint(input, "sharded count")? as usize;
        if n != shards || n == 0 {
            return Err(CodecError::Corrupt {
                context: "sharded count",
            });
        }
        let route_seed = get_varint(input, "sharded route seed")?;
        if route_seed != cfg.seed {
            return Err(CodecError::Corrupt {
                context: "sharded route seed",
            });
        }
        let mut decoded = Vec::with_capacity(n);
        for _ in 0..n {
            decoded.push(EcmSketch::decode(cfg, input)?);
        }
        Ok(ShardedEcm {
            shards: decoded,
            route_seed,
        })
    }
}

impl<W: WindowCounter + Send> ShardedEcm<W>
where
    W::Config: Send + Sync,
    W::GridStorage: Send,
{
    /// Build a sharded sketch by streaming `(item, tick)` pairs through one
    /// worker thread per shard.
    ///
    /// The dispatcher ships **pre-grouped runs** over the bounded channels:
    /// successive same-shard events with equal `(item, tick)` coalesce into
    /// one `(item, tick, weight)` record, which the worker applies through
    /// the weighted fast path. On bursty streams this cuts both the channel
    /// traffic and the per-event hashing by the mean burst length.
    ///
    /// Deterministic: the result is bit-identical to sequential
    /// [`insert`](Self::insert)ion of the same stream — routing by key hash
    /// preserves each shard's arrival subsequence (FIFO channels), and a
    /// coalesced run covers events that are consecutive *within its shard's
    /// substream*, so the weighted update assigns the same arrival ids the
    /// per-event path would.
    ///
    /// # Panics
    /// If `shards == 0`, or propagates a worker panic (e.g. decreasing
    /// timestamps).
    pub fn ingest_parallel<I>(cfg: &EcmConfig<W>, shards: usize, events: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        assert!(shards > 0, "need at least one shard");
        let route_seed = cfg.seed;
        let built: Vec<EcmSketch<W>> = thread::scope(|scope| {
            let mut senders = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for i in 0..shards {
                // Bounded: at most a few batches in flight per shard.
                let (tx, rx) = mpsc::sync_channel::<Vec<Run>>(4);
                senders.push(tx);
                handles.push(scope.spawn(move || {
                    let mut sk = EcmSketch::new(cfg);
                    sk.set_id_namespace(i as u64 + 1);
                    while let Ok(batch) = rx.recv() {
                        for (item, ts, weight) in batch {
                            sk.insert_weighted(item, ts, weight);
                        }
                    }
                    sk
                }));
            }
            let mut batches: Vec<Vec<Run>> =
                (0..shards).map(|_| Vec::with_capacity(BATCH)).collect();
            // Per-shard open run, coalescing consecutive same-shard
            // duplicates even when other shards' events interleave.
            let mut pending: Vec<Option<Run>> = vec![None; shards];
            for (item, ts) in events {
                let s = (route_hash(item, route_seed) % shards as u64) as usize;
                match &mut pending[s] {
                    Some((pi, pt, w)) if *pi == item && *pt == ts => *w += 1,
                    slot => {
                        if let Some(run) = slot.take() {
                            batches[s].push(run);
                            if batches[s].len() == BATCH {
                                let full =
                                    std::mem::replace(&mut batches[s], Vec::with_capacity(BATCH));
                                senders[s].send(full).expect("worker alive");
                            }
                        }
                        *slot = Some((item, ts, 1));
                    }
                }
            }
            for (s, run) in pending.into_iter().enumerate() {
                if let Some(run) = run {
                    batches[s].push(run);
                }
            }
            for (s, batch) in batches.into_iter().enumerate() {
                if !batch.is_empty() {
                    senders[s].send(batch).expect("worker alive");
                }
            }
            drop(senders); // close channels; workers drain and return
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        ShardedEcm {
            shards: built,
            route_seed,
        }
    }

    /// Build a sharded sketch from **pre-partitioned** per-shard streams —
    /// the shape real ingestion pipelines have (per-NIC or per-partition
    /// queues), with no single-threaded dispatcher in the way, so
    /// throughput scales with cores.
    ///
    /// Every `parts[s]` stream must contain exactly the keys that
    /// [`shard_of`](Self::shard_of) routes to shard `s` (e.g. produced by
    /// [`partition_pairs`]); this is debug-asserted per event.
    ///
    /// # Panics
    /// If `parts` is empty, or propagates a worker panic.
    pub fn ingest_prepartitioned(cfg: &EcmConfig<W>, parts: Vec<Vec<(u64, u64)>>) -> Self {
        assert!(!parts.is_empty(), "need at least one shard");
        let shards = parts.len();
        let route_seed = cfg.seed;
        let built: Vec<EcmSketch<W>> = thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(i, part)| {
                    scope.spawn(move || {
                        let mut sk = EcmSketch::new(cfg);
                        sk.set_id_namespace(i as u64 + 1);
                        // Coalesce consecutive duplicates into weighted
                        // updates (bit-identical; see ingest_parallel).
                        for ((item, ts), w) in crate::sketch::grouped_runs(&part) {
                            debug_assert_eq!(
                                (route_hash(item, route_seed) % shards as u64) as usize,
                                i,
                                "item {item} routed to the wrong shard"
                            );
                            sk.insert_weighted(item, ts, w);
                        }
                        sk
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        ShardedEcm {
            shards: built,
            route_seed,
        }
    }
}

/// Partition a `(item, tick)` stream into the per-shard substreams that
/// [`ShardedEcm::ingest_prepartitioned`] expects, preserving arrival order
/// within each shard. `seed` must equal the sketch config's seed.
pub fn partition_pairs(
    pairs: impl IntoIterator<Item = (u64, u64)>,
    shards: usize,
    seed: u64,
) -> Vec<Vec<(u64, u64)>> {
    assert!(shards > 0, "need at least one shard");
    let mut parts: Vec<Vec<(u64, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    for (item, ts) in pairs {
        let s = (route_hash(item, seed) % shards as u64) as usize;
        parts[s].push((item, ts));
    }
    parts
}

#[cfg(test)]
mod tests {
    // These tests exercise the crate-private positional core on purpose:
    // they pin down the computation the typed query layer delegates to.
    // Query-surface coverage lives in the query module's own tests.
    use super::*;
    use crate::config::{EcmBuilder, QueryKind};
    use sliding_window::ExponentialHistogram;
    use stream_gen::{worldcup_like, WindowOracle};

    type Sharded = ShardedEcm<ExponentialHistogram>;

    fn cfg(eps: f64, window: u64) -> EcmConfig<ExponentialHistogram> {
        EcmBuilder::new(eps, 0.05, window).seed(11).eh_config()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let sh = Sharded::new(&cfg(0.1, 1000), 7);
        for item in 0..10_000u64 {
            let s = sh.shard_of(item);
            assert!(s < 7);
            assert_eq!(s, sh.shard_of(item));
        }
    }

    #[test]
    fn routing_balances_keys() {
        let sh = Sharded::new(&cfg(0.1, 1000), 8);
        let mut per = [0u32; 8];
        for item in 0..80_000u64 {
            per[sh.shard_of(item)] += 1;
        }
        for (s, &c) in per.iter().enumerate() {
            assert!(
                (8_000..=12_000).contains(&c),
                "shard {s} owns {c} of 80k keys"
            );
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let window = 2_600_000u64;
        let cfg = cfg(0.15, window);
        let events = worldcup_like(30_000, 4);
        let pairs: Vec<(u64, u64)> = events.iter().map(|e| (e.key, e.ts)).collect();

        let mut seq = Sharded::new(&cfg, 4);
        for &(k, t) in &pairs {
            seq.insert(k, t);
        }
        let par = Sharded::ingest_parallel(&cfg, 4, pairs.iter().copied());

        assert_eq!(par.lifetime_arrivals(), seq.lifetime_arrivals());
        let now = events.last().unwrap().ts;
        for key in (0..5_000u64).step_by(37) {
            assert_eq!(
                par.point_query(key, now, window),
                seq.point_query(key, now, window),
                "key={key}"
            );
        }
        assert_eq!(par.self_join(now, window), seq.self_join(now, window));
    }

    #[test]
    fn point_queries_meet_the_envelope() {
        let window = 2_600_000u64;
        let eps = 0.1;
        let cfg = cfg(eps, window);
        let events = worldcup_like(40_000, 21);
        let oracle = WindowOracle::from_events(&events);
        let sh = Sharded::ingest_parallel(&cfg, 8, events.iter().map(|e| (e.key, e.ts)));

        let now = oracle.last_tick();
        let norm = oracle.total(now, window) as f64;
        let mut checked = 0u32;
        for key in 0..2_000u64 {
            let exact = oracle.frequency(key, now, window) as f64;
            if exact == 0.0 {
                continue;
            }
            checked += 1;
            let est = sh.point_query(key, now, window);
            // Sharding only shrinks per-shard norms: the single-sketch
            // envelope ε‖a_r‖₁ remains valid (and is loose here).
            assert!(
                (est - exact).abs() <= eps * norm + 2.0,
                "key={key} est={est} exact={exact}"
            );
        }
        assert!(checked > 200, "workload too sparse: {checked}");
    }

    #[test]
    fn self_join_tracks_exact_f2() {
        let window = 2_600_000u64;
        // Self-joins need the Theorem 2 split (a point-optimized array is
        // too narrow and inflates the collision term).
        let cfg = EcmBuilder::new(0.1, 0.05, window)
            .query_kind(QueryKind::InnerProduct)
            .seed(11)
            .eh_config();
        let events = worldcup_like(30_000, 33);
        let oracle = WindowOracle::from_events(&events);
        let sh = Sharded::ingest_parallel(&cfg, 4, events.iter().map(|e| (e.key, e.ts)));
        let now = oracle.last_tick();
        let exact = oracle.self_join(now, window) as f64;
        let est = sh.self_join(now, window);
        let norm = oracle.total(now, window) as f64;
        // Theorem 2 envelope: the F₂ error is additive in ‖a_r‖₁², and on a
        // near-uniform stream (F₂ ≪ ‖a‖₁²) the relative inflation is large
        // but the absolute envelope must hold.
        assert!(
            (est - exact).abs() <= 0.1 * norm * norm,
            "est={est} exact={exact} norm={norm}"
        );
        // Count-Min collisions only ever add mass: modulo the (small) window
        // error the estimate dominates the truth.
        assert!(est >= 0.8 * exact, "est={est} exact={exact}");
    }

    #[test]
    fn inner_product_requires_matching_layout() {
        let a = Sharded::new(&cfg(0.1, 100), 4);
        let b = Sharded::new(&cfg(0.1, 100), 8);
        assert!(matches!(
            a.inner_product(&b, 10, 100),
            Err(MergeError::IncompatibleConfig { .. })
        ));
    }

    #[test]
    fn inner_product_of_disjoint_streams_is_near_zero() {
        let window = 10_000u64;
        let cfg = cfg(0.1, window);
        let mut a = Sharded::new(&cfg, 4);
        let mut b = Sharded::new(&cfg, 4);
        for t in 1..=2_000u64 {
            a.insert(t % 100, t); // keys 0..99
            b.insert(1_000 + t % 100, t); // keys 1000..1099
        }
        let ip = a.inner_product(&b, 2_000, window).unwrap();
        // True inner product is 0; only hash collisions contribute.
        let norm = 2_000.0f64;
        assert!(ip <= 0.06 * norm * norm / 4.0, "ip={ip}");
    }

    #[test]
    fn total_arrivals_sums_shards() {
        let cfg = cfg(0.1, 1_000_000);
        let mut sh = Sharded::new(&cfg, 3);
        for t in 1..=9_000u64 {
            sh.insert(t % 500, t);
        }
        let est = sh.total_arrivals(9_000, 1_000_000);
        assert!((est - 9_000.0).abs() <= 900.0, "est={est}");
        assert_eq!(sh.lifetime_arrivals(), 9_000);
    }

    #[test]
    fn single_shard_degenerates_to_plain_sketch() {
        let cfg = cfg(0.2, 50_000);
        let mut plain = EcmSketch::new(&cfg);
        plain.set_id_namespace(1);
        let mut sh = Sharded::new(&cfg, 1);
        for t in 1..=5_000u64 {
            plain.insert(t % 80, t);
            sh.insert(t % 80, t);
        }
        for key in 0..80u64 {
            assert_eq!(
                sh.point_query(key, 5_000, 50_000),
                plain.point_query(key, 5_000, 50_000)
            );
        }
    }

    #[test]
    fn prepartitioned_equals_channel_fed() {
        let window = 2_600_000u64;
        let cfg = cfg(0.15, window);
        let events = worldcup_like(20_000, 13);
        let pairs: Vec<(u64, u64)> = events.iter().map(|e| (e.key, e.ts)).collect();
        let channel = Sharded::ingest_parallel(&cfg, 4, pairs.iter().copied());
        let parts = partition_pairs(pairs.iter().copied(), 4, cfg.seed);
        let pre = Sharded::ingest_prepartitioned(&cfg, parts);
        let now = events.last().unwrap().ts;
        for key in (0..3_000u64).step_by(41) {
            assert_eq!(
                channel.point_query(key, now, window),
                pre.point_query(key, now, window),
                "key={key}"
            );
        }
        assert_eq!(channel.lifetime_arrivals(), pre.lifetime_arrivals());
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    #[cfg(debug_assertions)]
    fn prepartitioned_rejects_misrouted_keys() {
        let cfg = cfg(0.1, 1_000);
        // Everything dumped into shard 0 — most keys belong elsewhere.
        let parts = vec![
            (0..100u64).map(|k| (k, k + 1)).collect::<Vec<_>>(),
            Vec::new(),
        ];
        let _ = Sharded::ingest_prepartitioned(&cfg, parts);
    }

    #[test]
    fn ingest_parallel_handles_empty_stream() {
        let sh = Sharded::ingest_parallel(&cfg(0.1, 100), 4, std::iter::empty());
        assert_eq!(sh.lifetime_arrivals(), 0);
        assert_eq!(sh.point_query(1, 10, 100), 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Parallel ingestion is bit-deterministic: channel-fed,
            /// pre-partitioned and sequential insertion agree on every
            /// query, for arbitrary bounded streams and shard counts.
            #[test]
            fn prop_ingestion_paths_agree(
                keys in proptest::collection::vec(0u64..500, 20..300),
                shards in 1usize..6,
            ) {
                let window = 10_000u64;
                let cfg = EcmBuilder::new(0.2, 0.1, window).seed(9).eh_config();
                let pairs: Vec<(u64, u64)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, i as u64 + 1))
                    .collect();

                let mut seq = ShardedEcm::<ExponentialHistogram>::new(&cfg, shards);
                for &(k, t) in &pairs {
                    seq.insert(k, t);
                }
                let chan = ShardedEcm::<ExponentialHistogram>::ingest_parallel(
                    &cfg, shards, pairs.iter().copied());
                let parts = partition_pairs(pairs.iter().copied(), shards, cfg.seed);
                let pre = ShardedEcm::<ExponentialHistogram>::ingest_prepartitioned(&cfg, parts);

                let now = pairs.len() as u64;
                for probe in keys.iter().step_by(7) {
                    let a = seq.point_query(*probe, now, window);
                    prop_assert_eq!(a, chan.point_query(*probe, now, window));
                    prop_assert_eq!(a, pre.point_query(*probe, now, window));
                }
                prop_assert_eq!(seq.self_join(now, window), chan.self_join(now, window));
                prop_assert_eq!(seq.lifetime_arrivals(), pre.lifetime_arrivals());
            }
        }
    }

    #[test]
    fn inner_product_kind_configs_also_work() {
        // Smoke test with the Theorem 2 split.
        let cfg = EcmBuilder::new(0.2, 0.1, 10_000)
            .query_kind(QueryKind::InnerProduct)
            .seed(5)
            .eh_config();
        let sh = ShardedEcm::<ExponentialHistogram>::ingest_parallel(
            &cfg,
            2,
            (1..=1_000u64).map(|t| (t % 50, t)),
        );
        assert!(sh.self_join(1_000, 10_000) > 0.0);
    }
}
