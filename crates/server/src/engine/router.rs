//! The router: owns the shard mailboxes, partitions ingest batches,
//! routes per-key queries, broadcasts cross-key ones, applies admission
//! control, and orchestrates snapshot / shutdown. Worker lifecycle —
//! spawn, crash detection, respawn — lives in
//! [`supervisor`](super::supervisor).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecm::{
    Epoch, QueryError, Ranking, SketchStore, SpecError, StandingQuery, StreamEvent, ViewAnswer,
    ViewDef, ViewError, ViewReadout, ViewWindow, WindowSpec,
};

use super::hub::{self, ViewHub};
use super::manifest::{read_manifest, write_manifest, MANIFEST};
use super::supervisor::{self, Fleet, Registry, SlotState};
use super::{route, Pinned, RankMemoStats, ShardMsg, ShardStatus, ViewsSummary};
use crate::config::ServerConfig;
use crate::fault::FaultPlan;
use crate::protocol::{parse_view_def, wire_view_def, OwnedQuery};

/// Hard cap on the total event occurrences one [`Engine::ingest`] call may
/// expand to (batch lines × per-line counts): keeps one request from
/// ballooning into an unbounded allocation.
pub const MAX_INGEST_OCCURRENCES: u64 = 1 << 22;

/// Why an engine call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The configured [`SketchSpec`](ecm::SketchSpec) is invalid.
    Spec(SpecError),
    /// A structural config field is out of domain.
    InvalidConfig(&'static str),
    /// The engine is shutting down (or already shut down); the request was
    /// not applied.
    ShuttingDown,
    /// A shard worker is gone for good: its respawn failed (or shutdown
    /// raced its death) and the shard stays down.
    ShardDied {
        /// Which shard.
        shard: usize,
    },
    /// The shard's worker died and the supervisor is rebuilding it from
    /// checkpoint + WAL replay; the request was not applied. **Retryable**
    /// — the shard returns in restore-time, not operator-time.
    ShardRestarting {
        /// Which shard.
        shard: usize,
    },
    /// Admission control shed the request: the shard's mailbox stayed
    /// full past the admission deadline (or its worker is quarantined as
    /// wedged). The request was not enqueued. **Retryable** after
    /// `retry_after_ms`.
    Overloaded {
        /// Which shard.
        shard: usize,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The shard accepted the request but did not reply within the
    /// request deadline. The request **may still apply** after this error
    /// — retryable only for idempotent reads.
    ShardTimeout {
        /// Which shard.
        shard: usize,
    },
    /// The configured fault plan did not parse (or this is a release
    /// build without the `fault-injection` feature).
    FaultPlan(String),
    /// An item is outside the spec's dyadic-hierarchy universe; the whole
    /// batch was rejected (hierarchy writes would panic on it).
    ItemOutOfUniverse {
        /// The offending item.
        item: u64,
        /// The universe width in bits.
        bits: u32,
    },
    /// An ingest call would expand past [`MAX_INGEST_OCCURRENCES`].
    IngestTooHeavy {
        /// The requested total occurrences.
        requested: u64,
    },
    /// Writing or encoding a checkpoint failed.
    Snapshot(String),
    /// Appending to the write-ahead log failed on at least one shard. The
    /// failing shard's partition was not applied, but sibling shards'
    /// partitions may already be applied **and durable** — durable ingest
    /// is at-least-once, not atomic, across shards, so a blind retry of
    /// the whole batch can double-count the partitions that succeeded
    /// (see [`Engine::ingest`]).
    Wal(String),
    /// Restoring from the snapshot directory failed.
    Restore(String),
    /// The snapshot directory was written by an engine with a different
    /// shard count; refusing to restore onto a mismatched layout.
    ShardCountMismatch {
        /// Shards recorded in the manifest.
        manifest: usize,
        /// Shards in the current config.
        config: usize,
    },
    /// A standing-view operation failed.
    View(ViewError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "invalid sketch spec: {e}"),
            EngineError::InvalidConfig(detail) => write!(f, "invalid config: {detail}"),
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::ShardDied { shard } => write!(f, "shard {shard} worker died"),
            EngineError::ShardRestarting { shard } => {
                write!(f, "shard {shard} is restarting; retry shortly")
            }
            EngineError::Overloaded {
                shard,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} is overloaded; retry after {retry_after_ms} ms"
            ),
            EngineError::ShardTimeout { shard } => {
                write!(f, "shard {shard} did not reply within the request deadline")
            }
            EngineError::FaultPlan(detail) => write!(f, "invalid fault plan: {detail}"),
            EngineError::ItemOutOfUniverse { item, bits } => write!(
                f,
                "item {item} outside the {bits}-bit hierarchy universe"
            ),
            EngineError::IngestTooHeavy { requested } => write!(
                f,
                "ingest of {requested} occurrences exceeds the per-request cap of {MAX_INGEST_OCCURRENCES}"
            ),
            EngineError::Snapshot(detail) => write!(f, "snapshot failed: {detail}"),
            EngineError::Wal(detail) => write!(f, "write-ahead log failed: {detail}"),
            EngineError::Restore(detail) => write!(f, "restore failed: {detail}"),
            EngineError::ShardCountMismatch { manifest, config } => write!(
                f,
                "snapshot dir was written with {manifest} shards, config has {config}"
            ),
            EngineError::View(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl EngineError {
    /// Short machine-readable code for the JSON `error` field.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::Spec(_) => "spec",
            EngineError::InvalidConfig(_) => "config",
            EngineError::ShuttingDown => "shutting_down",
            EngineError::ShardDied { .. } => "shard_died",
            EngineError::ShardRestarting { .. } => "shard_restarting",
            EngineError::Overloaded { .. } => "overloaded",
            EngineError::ShardTimeout { .. } => "shard_timeout",
            EngineError::FaultPlan(_) => "fault_plan",
            EngineError::ItemOutOfUniverse { .. } => "item_out_of_universe",
            EngineError::IngestTooHeavy { .. } => "ingest_too_heavy",
            EngineError::Snapshot(_) => "snapshot",
            EngineError::Wal(_) => "wal",
            EngineError::Restore(_) => "restore",
            EngineError::ShardCountMismatch { .. } => "shard_count_mismatch",
            EngineError::View(e) => e.code(),
        }
    }

    /// Whether a client may safely retry the failed call verbatim.
    /// `true` means the request was **not applied** and the condition is
    /// transient ([`ShardRestarting`](EngineError::ShardRestarting),
    /// [`Overloaded`](EngineError::Overloaded)).
    /// [`ShardTimeout`](EngineError::ShardTimeout) is deliberately
    /// excluded: the request may still apply behind the timeout, so only
    /// idempotent reads should retry it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::ShardRestarting { .. } | EngineError::Overloaded { .. }
        )
    }
}

/// Outcome of an [`Engine::snapshot`] broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReport {
    /// The directory written into.
    pub dir: String,
    /// Shards checkpointed.
    pub shards: usize,
    /// Total bytes across all shard files.
    pub bytes: u64,
}

/// What an acked [`Engine::ingest`] applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestAck {
    /// Event occurrences applied (and, when durable, logged).
    pub ingested: u64,
    /// Runs refused because their tick preceded their key's write clock
    /// (`stale_timestamp`). A refused run is applied nowhere and never
    /// logged; the rest of the batch is applied.
    pub stale: u64,
}

/// Suggested client backoff attached to [`EngineError::Overloaded`].
const RETRY_AFTER_MS: u64 = 100;

/// A query outcome with its consistency point, as returned by
/// [`Engine::query_served`].
#[derive(Debug)]
pub struct ServedAnswer {
    /// The per-sketch outcome; `None` when the key has never been
    /// written.
    pub answer: Option<Result<ecm::Answer, QueryError>>,
    /// The owning shard's write clock (maximum applied tick) at the
    /// moment the answer was computed. Deterministic across restarts —
    /// it is a function of the acked event multiset alone — which is why
    /// responses carry it (and not the publication sequence number,
    /// which is incarnation-local).
    pub clock: u64,
}

/// Fleet rankings the engine remembers ([`RankMemo`]).
const RANK_MEMO_ENTRIES: usize = 8;

/// What a fleet ranking is a pure function of: `k`, the resolved window,
/// and the `seq` of every pinned epoch, in shard order. Each shard's
/// left-right pair outlives its worker incarnations and numbers its
/// publications +1 each, so a `seq` vector names exactly one set of
/// published stores.
#[derive(PartialEq)]
struct RankKey {
    k: usize,
    window: WindowSpec,
    seqs: Box<[u64]>,
}

/// A fleet ranking's rows, best first, shared between the memo and its
/// readers.
type Rows = Arc<[(String, f64)]>;

/// The last few fleet rankings, keyed by [`RankKey`]: a read at an
/// unchanged publication returns the ranking already computed, and a miss
/// ranks outside any lock, then replaces the oldest entry. Lookups and
/// inserts only `try_lock`, so a contended reader ranks uncached instead
/// of waiting: reads stay wait-free. Computed on a miss, never on a write
/// (Noria's read-side materialization, without its write-side upkeep).
pub(super) struct RankMemo {
    entries: Mutex<VecDeque<(RankKey, Rows)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RankMemo {
    pub(super) fn new() -> RankMemo {
        RankMemo {
            entries: Mutex::new(VecDeque::with_capacity(RANK_MEMO_ENTRIES)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The rows memoized under `key`, or `rank()`'s, memoized.
    fn get_or_rank(&self, key: RankKey, rank: impl FnOnce() -> Vec<(String, f64)>) -> Rows {
        let memoized = self.entries.try_lock().ok().and_then(|entries| {
            entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, rows)| Arc::clone(rows))
        });
        if let Some(rows) = memoized {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return rows;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let rows: Rows = rank().into();
        if let Ok(mut entries) = self.entries.try_lock() {
            if !entries.iter().any(|(k, _)| *k == key) {
                if entries.len() == RANK_MEMO_ENTRIES {
                    entries.pop_front();
                }
                entries.push_back((key, Arc::clone(&rows)));
            }
        }
        rows
    }
}

/// The sharded serving engine. Cheap to share behind an `Arc`; every
/// method takes `&self`.
///
/// The engine owns only the pieces of the fleet its threads must not: the
/// supervisor thread's handle and stop flag, and the notifier thread's
/// handle. Everything the router, the supervisor and the notifier share —
/// shard slots, the shutdown gate, the view registry, the hub, the
/// ranking memo — lives in the `Fleet`.
pub struct Engine {
    fleet: Arc<Fleet>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    supervisor_stop: Arc<AtomicBool>,
    notifier: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Build the shard fleet: validate the config, restore every shard
    /// from the snapshot directory when it holds a manifest, and spawn one
    /// worker thread per shard.
    ///
    /// # Errors
    /// Spec/config validation errors, restore failures, or a shard-count
    /// mismatch against the snapshot manifest.
    pub fn start(cfg: &ServerConfig) -> Result<Engine, EngineError> {
        cfg.spec.validate()?;
        if cfg.shards == 0 {
            return Err(EngineError::InvalidConfig("shards must be >= 1"));
        }
        if cfg.mailbox_depth == 0 {
            return Err(EngineError::InvalidConfig("mailbox_depth must be >= 1"));
        }
        if cfg.durability {
            if cfg.snapshot_dir.is_none() {
                return Err(EngineError::InvalidConfig(
                    "durability requires a snapshot_dir",
                ));
            }
            if cfg.wal_segment_bytes == 0 || cfg.wal_compact_bytes == 0 {
                return Err(EngineError::InvalidConfig(
                    "wal_segment_bytes and wal_compact_bytes must be >= 1",
                ));
            }
        }
        if cfg.subscriber_outbox == 0 {
            return Err(EngineError::InvalidConfig("subscriber_outbox must be >= 1"));
        }
        let restore_from = cfg
            .snapshot_dir
            .as_deref()
            .filter(|dir| dir.join(MANIFEST).exists());
        let mut restored_views = Registry::new();
        if let Some(dir) = restore_from {
            let (manifest, view_defs) = read_manifest(dir)?;
            if manifest != cfg.shards {
                return Err(EngineError::ShardCountMismatch {
                    manifest,
                    config: cfg.shards,
                });
            }
            for wire in view_defs {
                let toks: Vec<&str> = wire.split_ascii_whitespace().collect();
                let def = parse_view_def(&toks)
                    .map_err(|e| EngineError::Restore(format!("manifest view {wire:?}: {e}")))?;
                def.validate()
                    .map_err(|e| EngineError::Restore(format!("manifest view {wire:?}: {e}")))?;
                if restored_views.insert(def.name.clone(), def).is_some() {
                    return Err(EngineError::Restore(format!(
                        "manifest view {wire:?}: duplicate name"
                    )));
                }
            }
        }
        if cfg.durability {
            // Record the layout up front: a crash before the first
            // checkpoint must still restore (WAL-only) onto the same shard
            // count.
            let dir = cfg.snapshot_dir.as_deref().expect("validated above");
            if restore_from.is_none() {
                write_manifest(dir, cfg.shards, &[], cfg.wal_fsync)?;
            }
        }
        // An empty/absent plan never reaches the parser, so release builds
        // (where the parser always errors) run clean with faults unset.
        let faults = match cfg.fault_plan.as_deref().filter(|t| !t.trim().is_empty()) {
            Some(text) => FaultPlan::parse(text).map_err(EngineError::FaultPlan)?,
            None => FaultPlan::default(),
        };
        let (exit_tx, exit_rx) = channel();
        let (fleet, notices) = Fleet::new(cfg, restored_views, exit_tx, faults);
        let fleet = Arc::new(fleet);
        for shard in 0..cfg.shards {
            let (store, wal) =
                supervisor::recover_shard(&fleet, shard).map_err(EngineError::Restore)?;
            supervisor::spawn_worker(&fleet, shard, store, wal);
        }
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let sup_fleet = Arc::clone(&fleet);
        let sup_stop = Arc::clone(&supervisor_stop);
        let supervisor = std::thread::Builder::new()
            .name("sketchd-supervisor".to_string())
            .spawn(move || supervisor::supervise(sup_fleet, exit_rx, sup_stop))
            .expect("spawn supervisor");
        let notifier_fleet = Arc::clone(&fleet);
        let notifier = std::thread::Builder::new()
            .name("sketchd-notifier".to_string())
            .spawn(move || hub::notify(&notifier_fleet, notices))
            .expect("spawn notifier");
        Ok(Engine {
            fleet,
            supervisor: Mutex::new(Some(supervisor)),
            supervisor_stop,
            notifier: Mutex::new(Some(notifier)),
        })
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.fleet.slots.len()
    }

    /// Crash-shaped restart of one shard: enqueue [`ShardMsg::Exit`], the
    /// worker exits without a final checkpoint, and the supervisor
    /// rebuilds it from checkpoint + WAL-tail replay. Returns once `Exit`
    /// is accepted into the mailbox — the repair itself is asynchronous.
    /// Messages already queued behind `Exit` die unreplied (their senders
    /// see a retryable error, never a false ack).
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown), the admission errors
    /// of [`ingest`](Engine::ingest), or
    /// [`InvalidConfig`](EngineError::InvalidConfig) for an out-of-range
    /// shard index.
    pub fn restart_shard(&self, shard: usize) -> Result<(), EngineError> {
        if shard >= self.fleet.slots.len() {
            return Err(EngineError::InvalidConfig("shard index out of range"));
        }
        let gate = self.fleet.down.read().expect("gate poisoned");
        if *gate {
            return Err(EngineError::ShuttingDown);
        }
        self.send(shard, ShardMsg::Exit)
    }

    /// Ingest a keyed batch: `(key, event, count)` triples in arrival
    /// order. A triple is one weighted run and stays one — in the shard
    /// message, in the log record and in the sketch update — so the work is
    /// per line, not per occurrence; the batch is partitioned per shard
    /// preserving each key's order.
    ///
    /// The call returns once every shard has applied its partition and
    /// **published** it to the read path, so an `Ok` means every later
    /// query — from any thread — sees the batch, and the events survive a
    /// graceful shutdown. With durability on, each shard appends its
    /// partition to the write-ahead log *before* applying it
    /// (ack-after-append) — an `Ok` then also means the events survive
    /// `kill -9`. A shard whose worker dies holding the partition never
    /// acks it: the caller gets the retryable
    /// [`ShardRestarting`](EngineError::ShardRestarting). A full mailbox
    /// applies backpressure up to the admission deadline, then sheds with
    /// [`Overloaded`](EngineError::Overloaded); a batch rejected *before*
    /// dispatch (universe violation, cap, shutdown race, admission) is
    /// applied nowhere.
    ///
    /// **Stale ticks.** A run whose tick precedes its key's write clock —
    /// the latest tick applied to the key or declared by a `FLUSH` — is
    /// refused by the owning shard before its log append (the one
    /// [`WriteError::check_tick`](ecm::WriteError::check_tick) every sketch
    /// write crosses), and counted in [`IngestAck::stale`]; the batch's
    /// other runs are applied. Two connections writing one key therefore
    /// cannot reorder its synopsis: the later-arriving older tick is
    /// refused, not merged out of order.
    ///
    /// **Retry semantics across shards.** Each shard appends and applies
    /// its partition independently, so an error after dispatch means only
    /// that the batch *as a whole* is not acked: sibling partitions that
    /// already landed are applied (and durable — they replay after a
    /// crash). Multi-shard ingest is therefore at-least-once — a client
    /// that retries a failed batch verbatim may double-count the
    /// partitions that succeeded. Clients that cannot tolerate that should
    /// treat a post-dispatch ingest error as "partially applied, amount
    /// unknown" rather than "safe to replay".
    ///
    /// # Errors
    /// [`ItemOutOfUniverse`](EngineError::ItemOutOfUniverse),
    /// [`IngestTooHeavy`](EngineError::IngestTooHeavy),
    /// [`ShuttingDown`](EngineError::ShuttingDown),
    /// [`Overloaded`](EngineError::Overloaded),
    /// [`ShardRestarting`](EngineError::ShardRestarting),
    /// [`ShardTimeout`](EngineError::ShardTimeout),
    /// [`Wal`](EngineError::Wal), or
    /// [`ShardDied`](EngineError::ShardDied).
    pub fn ingest(&self, batch: &[(String, StreamEvent, u64)]) -> Result<IngestAck, EngineError> {
        self.ingest_owned(batch.to_vec())
    }

    /// [`ingest`](Self::ingest) of a batch the caller hands over: each run
    /// moves into its shard's partition instead of being copied there.
    /// The front-end's entry point, as it owns the batches it parses.
    ///
    /// # Errors
    /// As [`ingest`](Self::ingest).
    pub fn ingest_owned(
        &self,
        batch: Vec<(String, StreamEvent, u64)>,
    ) -> Result<IngestAck, EngineError> {
        let mut total: u64 = 0;
        for (_, event, count) in &batch {
            if let Some(limit) = self.fleet.item_limit {
                if event.item >= limit {
                    return Err(EngineError::ItemOutOfUniverse {
                        item: event.item,
                        bits: limit.trailing_zeros(),
                    });
                }
            }
            total = total.saturating_add(*count);
        }
        if total > MAX_INGEST_OCCURRENCES {
            return Err(EngineError::IngestTooHeavy { requested: total });
        }
        let n = self.fleet.slots.len();
        let mut per_shard: Vec<Vec<(String, StreamEvent, u64)>> = vec![Vec::new(); n];
        for run in batch.into_iter().filter(|(_, _, count)| *count > 0) {
            per_shard[route(&run.0, n)].push(run);
        }
        let gate = self.fleet.down.read().expect("gate poisoned");
        if *gate {
            return Err(EngineError::ShuttingDown);
        }
        let mut pending = Vec::new();
        for (i, runs) in per_shard.into_iter().enumerate() {
            if runs.is_empty() {
                continue;
            }
            let (reply, rx) = channel();
            self.send(i, ShardMsg::Ingest { runs, reply })?;
            pending.push((i, rx));
        }
        drop(gate);
        // Every shard confirms its partition is logged, applied and
        // published before the batch-level ack. A partial failure leaves
        // the failing shard's partition unapplied while sibling
        // partitions landed — the error tells the client the batch (as a
        // whole) is not acked.
        let mut ack = IngestAck::default();
        for (i, rx) in pending {
            let part = self.collect(i, &rx)?.map_err(EngineError::Wal)?;
            ack.ingested += part.ingested;
            ack.stale += part.stale;
        }
        Ok(ack)
    }

    /// Answer `query` over `window` from `key`'s sketch, wait-free: pin
    /// the owning shard's published epoch, query it, done — no mailbox,
    /// no lock. This is the front-end's (and the only) read path.
    ///
    /// Workers publish before they ack, so a client that received an
    /// ingest ack always reads its own write, and the answer is
    /// bit-identical to an in-process store's at the same write clock;
    /// the returned [`ServedAnswer::clock`] is that consistency point.
    /// Since a read never touches the mailbox, it keeps serving (the last
    /// published epoch) while the worker is restarting or wedged.
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown) only; per-sketch
    /// [`QueryError`]s come back inside the `Some`.
    pub fn query_served(
        &self,
        key: &str,
        query: &OwnedQuery,
        window: WindowSpec,
    ) -> Result<ServedAnswer, EngineError> {
        let shard = route(key, self.fleet.slots.len());
        let epoch = self.pin(shard)?;
        let sketch = epoch.value.get(key);
        if let (Some(s), WindowSpec::Time { now, .. }) = (sketch, window) {
            if now < s.write_clock() {
                self.fleet.slots[shard]
                    .behind_clock
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(ServedAnswer {
            answer: sketch.map(|s| s.query(&query.to_query(), window)),
            clock: epoch.clock,
        })
    }

    /// The `k` keys with the most window arrivals across the whole fleet
    /// (value descending, ties by key) — identical to what one un-sharded
    /// store's `top_k` would return. One running [`Ranking`] is threaded
    /// through the shards ([`SketchStore::rank_into`]), so each shard
    /// scores only the sketches whose arrivals bound can still reach the
    /// k-th score its predecessors left.
    ///
    /// Each shard's contribution comes wait-free from its published
    /// epoch — a broadcast read is N pins, all held until the winners'
    /// keys are copied out. A fleet ranking is memoized per publication:
    /// a call whose `k`, window and pinned epochs (by their `seq`s) were
    /// ranked before — by `top_k` or by a fleet view read — returns those
    /// rows, which are the ranking of exactly the pinned epochs.
    ///
    /// [`SketchStore::rank_into`]: ecm::SketchStore::rank_into
    ///
    /// # Errors
    /// As [`query_served`](Engine::query_served).
    pub fn top_k(&self, k: usize, window: WindowSpec) -> Result<Vec<(String, f64)>, EngineError> {
        let epochs = self.pin_all()?;
        Ok(self.fleet.ranked(&epochs, k, window).to_vec())
    }

    /// Pin one shard's published epoch for a read, counting it.
    fn pin(&self, shard: usize) -> Result<Pinned, EngineError> {
        if *self.fleet.down.read().expect("gate poisoned") {
            return Err(EngineError::ShuttingDown);
        }
        let slot = &self.fleet.slots[shard];
        slot.published_reads.fetch_add(1, Ordering::Relaxed);
        Ok(slot.published.pin())
    }

    /// Pin every shard's published epoch, in shard order.
    fn pin_all(&self) -> Result<Vec<Pinned>, EngineError> {
        (0..self.fleet.slots.len()).map(|s| self.pin(s)).collect()
    }

    /// The fleet ranking memo's hit and miss counts since startup, for
    /// `STATS`.
    pub fn rank_memo_stats(&self) -> RankMemoStats {
        let memo = &self.fleet.rank_memo;
        RankMemoStats {
            hits: memo.hits.load(Ordering::Relaxed),
            misses: memo.misses.load(Ordering::Relaxed),
        }
    }

    /// Per-shard status, in shard order: supervision health, the
    /// published store's size and the worker's recorded counters. A read,
    /// like [`query_served`](Engine::query_served): it enqueues nothing,
    /// so every row is complete, a wedged, restarting or dead shard's
    /// included — exactly when the operator most needs to see it.
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown) only.
    pub fn stats(&self) -> Result<Vec<ShardStatus>, EngineError> {
        if self.is_down() {
            return Err(EngineError::ShuttingDown);
        }
        Ok((0..self.fleet.slots.len())
            .map(|shard| self.fleet.status(shard))
            .collect())
    }

    /// The notification hub, whose outboxes carry every push.
    pub fn hub(&self) -> &Arc<ViewHub> {
        &self.fleet.hub
    }

    /// Subscribe to a registered view's pushes: the subscription id (for
    /// [`ViewHub::unsubscribe`]) and the outbox. The lookup and the
    /// registration hold the registry lock [`view_drop`](Engine::view_drop)
    /// evicts under, so no subscriber outlives its view.
    ///
    /// # Errors
    /// [`View`](EngineError::View) ([`Unknown`](ViewError::Unknown)) when
    /// no view of that name exists.
    pub fn subscribe(&self, view: &str) -> Result<(u64, Receiver<String>), EngineError> {
        let registry = self.registry();
        if !registry.contains_key(view) {
            return Err(EngineError::View(ViewError::Unknown {
                name: view.to_string(),
            }));
        }
        Ok(self.fleet.hub.subscribe(view))
    }

    /// Register a standing view: validate, record it in the registry,
    /// and — when durable — persist it to the manifest so it survives
    /// `kill -9`. No shard is involved: reads evaluate published epochs,
    /// and the notifier pushes from them.
    ///
    /// # Errors
    /// [`View`](EngineError::View) (invalid or duplicate definition), or
    /// a manifest write failure.
    pub fn view_create(&self, def: ViewDef<String>) -> Result<(), EngineError> {
        def.validate().map_err(EngineError::View)?;
        // Names and keys must survive the wire/manifest round trip, which
        // tokenizes on whitespace: enforce token shape here, not at parse
        // time, so programmatic callers get the same contract.
        for tok in [Some(&def.name), def.key.as_ref()].into_iter().flatten() {
            if tok.len() > crate::protocol::MAX_KEY
                || tok.chars().any(|c| c.is_whitespace() || c.is_control())
            {
                return Err(EngineError::View(ViewError::Invalid {
                    detail: "view names and keys must be whitespace-free tokens of at most \
                             128 bytes",
                }));
            }
        }
        let mut registry = self.registry();
        if registry.contains_key(&def.name) {
            return Err(EngineError::View(ViewError::Duplicate {
                name: def.name.clone(),
            }));
        }
        registry.insert(def.name.clone(), def);
        self.persist_views(&registry)
    }

    /// Drop a standing view: remove it from the registry, end its
    /// subscribers' streams, and re-write the durable manifest.
    ///
    /// # Errors
    /// [`View`](EngineError::View) when no view of that name exists, or a
    /// manifest write failure.
    pub fn view_drop(&self, name: &str) -> Result<(), EngineError> {
        let mut registry = self.registry();
        if registry.remove(name).is_none() {
            return Err(EngineError::View(ViewError::Unknown {
                name: name.to_string(),
            }));
        }
        self.fleet.hub.evict_view(name);
        self.persist_views(&registry)
    }

    /// Read a standing view's current answer wait-free from published
    /// epochs, like [`query_served`](Engine::query_served). A keyed view
    /// is evaluated on its owning shard's epoch with that epoch's `seq`,
    /// the one its pushes carry. A fleet-wide top-k view ranks like
    /// [`top_k`](Engine::top_k) at the largest shard clock, with the sum
    /// of the epochs' `seq`. A respawn lowers neither. The ranking shares
    /// `top_k`'s memo: a `TOPK` of the same `k` and resolved window over
    /// the same publications reads the same entry, and a hit is the
    /// ranking of exactly the pinned epochs.
    ///
    /// # Errors
    /// [`View`](EngineError::View) — including
    /// [`NoData`](ecm::ViewError::NoData) when the view's key (for a fleet
    /// view: every shard) has never been written — or
    /// [`ShuttingDown`](EngineError::ShuttingDown).
    pub fn view_read(&self, name: &str) -> Result<ViewReadout<String>, EngineError> {
        let def = self.registry().get(name).cloned().ok_or_else(|| {
            EngineError::View(ViewError::Unknown {
                name: name.to_string(),
            })
        })?;
        let no_data = || {
            EngineError::View(ViewError::NoData {
                name: name.to_string(),
            })
        };
        if let Some(key) = &def.key {
            let epoch = self.pin(route(key, self.fleet.slots.len()))?;
            return keyed_readout(&def, &epoch)
                .map_err(EngineError::View)?
                .ok_or_else(no_data);
        }
        let StandingQuery::TopK { k } = def.query else {
            unreachable!("validated: fleet-wide views are top-k")
        };
        let epochs = self.pin_all()?;
        self.fleet
            .rank_view(&epochs, k, def.window)
            .ok_or_else(no_data)
    }

    /// Registered definitions, in name order.
    pub fn view_list(&self) -> Vec<ViewDef<String>> {
        self.registry().values().cloned().collect()
    }

    /// The fleet-wide standing-view counters for `STATS`.
    pub fn views_summary(&self) -> ViewsSummary {
        self.fleet.hub.summary(self.registry().len())
    }

    /// Re-write the manifest with the current view set — only when the
    /// engine is durable (the manifest already exists and must stay in
    /// step). Non-durable engines persist views at `SNAPSHOT` / shutdown,
    /// when the manifest is written next to the checkpoint files it
    /// belongs with.
    fn persist_views(&self, registry: &Registry) -> Result<(), EngineError> {
        match (self.fleet.wal_cfg, &self.fleet.snapshot_dir) {
            (Some(_), Some(dir)) => self.write_manifest(dir, registry),
            _ => Ok(()),
        }
    }

    /// Write the manifest — the shard layout and `registry` — into `dir`.
    fn write_manifest(&self, dir: &Path, registry: &Registry) -> Result<(), EngineError> {
        let wire: Vec<String> = registry.values().map(wire_view_def).collect();
        let fsync = self.fleet.wal_cfg.is_some_and(|w| w.fsync);
        write_manifest(dir, self.fleet.slots.len(), &wire, fsync)
    }

    /// Advance every shard's stream clock to `ts` with no arrivals.
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown),
    /// [`Overloaded`](EngineError::Overloaded),
    /// [`ShardRestarting`](EngineError::ShardRestarting),
    /// [`ShardTimeout`](EngineError::ShardTimeout), or
    /// [`ShardDied`](EngineError::ShardDied).
    pub fn flush(&self, ts: u64) -> Result<(), EngineError> {
        self.broadcast(|reply| ShardMsg::Flush { ts, reply })?;
        Ok(())
    }

    /// Checkpoint every shard into `dir` (one `shard-<i>.full` each) and
    /// write the layout manifest.
    ///
    /// # Errors
    /// [`Snapshot`](EngineError::Snapshot) carrying the first shard
    /// failure, or the routing errors of [`flush`](Engine::flush).
    pub fn snapshot(&self, dir: &Path) -> Result<SnapshotReport, EngineError> {
        let bytes = self
            .broadcast(|reply| ShardMsg::Snapshot {
                dir: dir.to_path_buf(),
                reply,
            })?
            .into_iter()
            .sum::<Result<u64, String>>()
            .map_err(EngineError::Snapshot)?;
        self.write_manifest(dir, &self.registry())?;
        Ok(SnapshotReport {
            dir: dir.display().to_string(),
            shards: self.fleet.slots.len(),
            bytes,
        })
    }

    /// Graceful shutdown: close the ingest gate, enqueue `Shutdown` behind
    /// every accepted message, wait for each worker to drain its mailbox
    /// (writing a final full checkpoint when a snapshot dir is
    /// configured), and join all threads. Idempotent — later calls are
    /// no-ops.
    ///
    /// # Errors
    /// [`Snapshot`](EngineError::Snapshot) when a final checkpoint failed
    /// (the engine still shuts down fully).
    pub fn shutdown(&self) -> Result<(), EngineError> {
        let mut receivers = Vec::new();
        {
            let mut gate = self.fleet.down.write().expect("gate poisoned");
            if *gate {
                return Ok(());
            }
            *gate = true;
            for (i, slot) in self.fleet.slots.iter().enumerate() {
                let sender = slot.sender.read().expect("sender poisoned").clone();
                let (tx, rx) = channel();
                // A send failure means the worker is already gone (a
                // mid-restart shard's sender points at the dead
                // incarnation); still stop the rest. The supervisor sees
                // the gate and retires any worker it respawns after this.
                if sender.send(ShardMsg::Shutdown { reply: tx }).is_ok() {
                    receivers.push((i, rx));
                }
            }
        }
        let mut snapshot_error = None;
        for (i, rx) in receivers {
            match rx.recv() {
                Ok(None) => {}
                Ok(Some(e)) => snapshot_error = Some(e),
                Err(_) => snapshot_error = Some(format!("shard {i} died before stopping")),
            }
        }
        // Stop the supervisor before reaping worker handles: after the
        // join, no respawn (which installs a fresh handle) can be racing.
        self.supervisor_stop.store(true, Ordering::Relaxed);
        let supervisor = self.supervisor.lock().expect("supervisor poisoned").take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        for slot in &self.fleet.slots {
            let handle = slot.handle.lock().expect("handle poisoned").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        // No worker is left to publish: the notifier drains the notices
        // queued so far, then stops.
        self.fleet.hub.stop_notifier();
        let notifier = self.notifier.lock().expect("notifier poisoned").take();
        if let Some(handle) = notifier {
            let _ = handle.join();
        }
        if snapshot_error.is_none() {
            if let Some(dir) = &self.fleet.snapshot_dir {
                self.write_manifest(dir, &self.registry())?;
            }
        }
        match snapshot_error {
            Some(e) => Err(EngineError::Snapshot(e)),
            None => Ok(()),
        }
    }

    /// Whether [`shutdown`](Engine::shutdown) has begun.
    pub fn is_down(&self) -> bool {
        *self.fleet.down.read().expect("gate poisoned")
    }

    /// Admission-controlled enqueue onto one shard's mailbox. Never
    /// blocks indefinitely: a quarantined (wedged) shard sheds
    /// immediately, a full mailbox applies backpressure in 200 µs waits
    /// up to the admission deadline and then sheds, and a down shard
    /// answers with its supervision state instead of hanging the caller.
    fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), EngineError> {
        let slot = &self.fleet.slots[shard];
        {
            let state = slot.state.lock().expect("state poisoned");
            match &*state {
                SlotState::Up => {}
                SlotState::Wedged => {
                    drop(state);
                    slot.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Overloaded {
                        shard,
                        retry_after_ms: RETRY_AFTER_MS,
                    });
                }
                SlotState::Restarting => return Err(EngineError::ShardRestarting { shard }),
                SlotState::Dead(_) => return Err(EngineError::ShardDied { shard }),
            }
        }
        // Clone the sender out of the slot so a mid-loop respawn swaps
        // the slot without blocking on us: our clone points at the dead
        // incarnation and fails fast as Disconnected.
        let sender = slot.sender.read().expect("sender poisoned").clone();
        let deadline = Instant::now() + self.fleet.admission_timeout;
        let mut msg = msg;
        loop {
            match sender.try_send(msg) {
                Ok(()) => {
                    slot.gauge.note_enqueue();
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => return Err(self.unavailable(shard)),
                Err(TrySendError::Full(m)) => {
                    if Instant::now() >= deadline {
                        slot.shed.fetch_add(1, Ordering::Relaxed);
                        return Err(EngineError::Overloaded {
                            shard,
                            retry_after_ms: RETRY_AFTER_MS,
                        });
                    }
                    msg = m;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// What a disconnected mailbox or reply channel means for the caller:
    /// the shard is gone for good ([`ShardDied`](EngineError::ShardDied))
    /// when its respawn failed or shutdown raced its death, and
    /// [`ShardRestarting`](EngineError::ShardRestarting) — retryable —
    /// while the supervisor is repairing it.
    fn unavailable(&self, shard: usize) -> EngineError {
        let dead = matches!(
            &*self.fleet.slots[shard]
                .state
                .lock()
                .expect("state poisoned"),
            SlotState::Dead(_)
        );
        if dead || *self.fleet.down.read().expect("gate poisoned") {
            EngineError::ShardDied { shard }
        } else {
            EngineError::ShardRestarting { shard }
        }
    }

    /// Broadcast one request to every shard, then collect every reply.
    fn broadcast<T>(&self, make: impl Fn(Sender<T>) -> ShardMsg) -> Result<Vec<T>, EngineError> {
        let mut receivers = Vec::with_capacity(self.fleet.slots.len());
        {
            let gate = self.fleet.down.read().expect("gate poisoned");
            if *gate {
                return Err(EngineError::ShuttingDown);
            }
            for i in 0..self.fleet.slots.len() {
                let (tx, rx) = channel();
                self.send(i, make(tx))?;
                receivers.push((i, rx));
            }
        }
        let mut replies = Vec::with_capacity(receivers.len());
        for (i, rx) in receivers {
            replies.push(self.collect(i, &rx)?);
        }
        Ok(replies)
    }

    /// Wait for one shard's reply, bounded by the request deadline so a
    /// worker dying (or wedging) mid-request surfaces as a typed error
    /// instead of a hang.
    fn collect<T>(&self, shard: usize, rx: &Receiver<T>) -> Result<T, EngineError> {
        match rx.recv_timeout(self.fleet.request_timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => Err(EngineError::ShardTimeout { shard }),
            Err(RecvTimeoutError::Disconnected) => Err(self.unavailable(shard)),
        }
    }

    /// The view registry, locked.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.fleet.views.lock().expect("view registry poisoned")
    }
}

/// A keyed view's readout on its shard's pinned `epoch`, stamped with the
/// epoch's `seq`; `None` while the key has no sketch. `VIEW READ` and the
/// notifier both read keyed views through it.
pub(super) fn keyed_readout(
    def: &ViewDef<String>,
    epoch: &Epoch<SketchStore<String>>,
) -> Result<Option<ViewReadout<String>>, ViewError> {
    let readout = def.evaluate(&epoch.value)?;
    Ok(readout.map(|(answer, now)| ViewReadout {
        answer,
        now,
        seq: epoch.seq,
    }))
}

/// The fleet rankings, shared by the router's reads and the notifier.
impl Fleet {
    /// The fleet ranking of [`top_k`](Engine::top_k) and fleet view reads
    /// over the pinned `epochs`: from the memo when these epochs were
    /// ranked for `k` and `window` before, else [`rank`](Fleet::rank)ed.
    fn ranked(&self, epochs: &[Pinned], k: usize, window: WindowSpec) -> Rows {
        let key = RankKey {
            k,
            window,
            seqs: epochs.iter().map(|e| e.seq).collect(),
        };
        self.rank_memo
            .get_or_rank(key, || self.rank(epochs, k, window))
    }

    /// Rank the pinned `epochs` uncached: thread one [`Ranking`] through
    /// them, counting each shard's scored sketches.
    fn rank(&self, epochs: &[Pinned], k: usize, window: WindowSpec) -> Vec<(String, f64)> {
        let mut ranking = Ranking::new(k);
        for (slot, epoch) in self.slots.iter().zip(epochs) {
            let scored = epoch
                .value
                .rank_into(&mut ranking, &ecm::Query::total_arrivals(), window);
            slot.ranked_sketches
                .fetch_add(scored as u64, Ordering::Relaxed);
        }
        ranking.into_owned()
    }

    /// A fleet top-k view's readout over the pinned `epochs`: ranked at
    /// the fleet clock (the largest epoch clock) and stamped with the sum
    /// of the epochs' `seq`s; `None` while every store is empty.
    pub(super) fn rank_view(
        &self,
        epochs: &[Pinned],
        k: usize,
        window: ViewWindow,
    ) -> Option<ViewReadout<String>> {
        if epochs.iter().all(|e| e.value.is_empty()) {
            return None;
        }
        let now = epochs.iter().map(|e| e.clock).max().unwrap_or(0);
        Some(ViewReadout {
            answer: ViewAnswer::Ranking(self.ranked(epochs, k, window.resolve(now)).to_vec()),
            now,
            seq: epochs.iter().map(|e| e.seq).sum(),
        })
    }
}

impl Drop for Engine {
    /// Best-effort graceful shutdown, so dropping an engine (e.g. a test
    /// unwinding) never leaks worker threads or skips the final
    /// checkpoint.
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.fleet.slots.len())
            .field("down", &self.is_down())
            .field("snapshot_dir", &self.fleet.snapshot_dir)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecm::SketchSpec;

    /// The ranking memo under concurrency: 4 reader threads rank the
    /// fleet while 1 writer publishes, over a few `(k, window)`s that
    /// share, miss and evict entries — fixed windows that hit between
    /// publications, and windows at the pinned clock. Every reply equals
    /// an uncached ranking of the same pinned epochs: a hit is never
    /// another publication's ranking.
    #[test]
    fn memoized_rankings_are_the_rankings_of_the_pinned_epochs() {
        let spec = SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(3);
        let engine = Engine::start(&ServerConfig::new(spec).shards(2)).expect("engine");
        let writing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for t in 1..=300u64 {
                    let batch: Vec<(String, StreamEvent, u64)> = (0..8)
                        .map(|i| {
                            let key = format!("k{}", (t * 7 + i) % 40);
                            (key, StreamEvent::new(i, t * 10), 1 + (t + i) % 5)
                        })
                        .collect();
                    engine.ingest(&batch).expect("ingest");
                }
                writing.store(false, Ordering::SeqCst);
            });
            for reader in 0..4u64 {
                let (engine, writing) = (&engine, &writing);
                scope.spawn(move || {
                    let mut calls = 0u64;
                    // Past the last publication too, where entries hit.
                    while writing.load(Ordering::SeqCst) || calls < 200 {
                        let epochs = engine.pin_all().expect("pin");
                        let now = epochs.iter().map(|e| e.clock).max().unwrap_or(0);
                        let (k, window) = match (reader + calls) % 4 {
                            0 => (3, WindowSpec::time(3_000, 1_000)),
                            1 => (10, WindowSpec::time(3_000, 3_000)),
                            2 => (5, WindowSpec::time(now, 500)),
                            _ => (1 + (calls % 12) as usize, WindowSpec::time(now, 2_000)),
                        };
                        let memoized = engine.fleet.ranked(&epochs, k, window);
                        assert_eq!(
                            memoized[..],
                            engine.fleet.rank(&epochs, k, window)[..],
                            "reader {reader} call {calls}: k {k} over {window:?}"
                        );
                        calls += 1;
                    }
                });
            }
        });
        let memo = engine.rank_memo_stats();
        assert!(memo.hits > 0 && memo.misses > 0, "{memo:?}");
        engine.shutdown().expect("shutdown");
    }
}
