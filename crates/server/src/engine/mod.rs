//! The serving engine: N long-lived shard workers behind one router,
//! with a wait-free published read path beside the mailboxes.
//!
//! Modeled on SnelDB's shard-worker architecture: every key is
//! deterministically mapped to a shard by FNV-1a hash, each shard worker
//! is a plain OS thread owning a private `SketchStore<String>` partition,
//! and all **writes** are typed [`ShardMsg`]s over **bounded**
//! `sync_channel` mailboxes — a hot shard's full mailbox blocks its
//! senders (local backpressure) without stalling sibling shards. Shards
//! never share mutable state.
//!
//! **Reads never enqueue.** A worker publishes an immutable snapshot of
//! its store through a left-right epoch pair (see [`ecm::publish`]) before
//! it acks each write; the router answers point / range / self-join /
//! heavy-hitter queries, each shard's `TOPK` contribution and every
//! `VIEW READ` by pinning published epochs, wait-free and without
//! touching the mailbox. That is the only read path. `STATS` is a read
//! too: the store's size comes off the published epoch, and the worker's
//! counters from the numbers it records in its slot before every reply.
//! Only `SNAPSHOT` and `FLUSH` stay on the mailbox (they change
//! worker-owned state).
//!
//! **Shards hold no views.** Standing views are a fleet-wide registry
//! (`VIEW CREATE`/`DROP` edit it, the manifest and the hub, and no
//! mailbox), and `SUBSCRIBE` pushes come from one notifier that diffs
//! views over published epochs (see [`ViewHub`]).
//!
//! Invariants:
//! * Same key → always the same shard, so each key's arrival order is the
//!   per-shard mailbox order and every per-key sketch sees exactly the
//!   event sequence an in-process [`SketchStore`] would.
//!   A published snapshot is a clone of that store (copy-on-write, but
//!   observably a deep copy), so a served answer is **bit-identical** to
//!   the library's at the same write clock — the end-to-end and
//!   differential tests pin it against a mirror store.
//! * **Publish-before-ack**: every write message runs WAL append (when
//!   durable) → apply → publish → ack, in one function of the shard
//!   worker. An ack therefore means "visible to every reader"
//!   (read-your-writes, with no gate), and since the log append comes
//!   first, a reader can never observe state that a crash could
//!   un-happen.
//! * [`Engine::shutdown`] closes the ingest gate, then sends `Shutdown`
//!   behind all accepted messages; FIFO mailboxes mean every acked event
//!   is applied (and checkpointed, when a snapshot dir is configured)
//!   before the worker exits.

mod hub;
mod manifest;
mod router;
mod shard;
mod supervisor;
mod wal;

pub use hub::ViewHub;
pub use router::{
    Engine, EngineError, IngestAck, ServedAnswer, SnapshotReport, MAX_INGEST_OCCURRENCES,
};

use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use ecm::{Epoch, SketchStore, StreamEvent};

/// A shard's published epoch, pinned.
type Pinned = Arc<Epoch<SketchStore<String>>>;

/// Fleet-wide standing-view counters for `STATS`: the registry size, the
/// notifier's evaluations, and the hub's subscriber numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewsSummary {
    /// Views in the engine registry.
    pub registered: usize,
    /// View evaluations the notifier has run since startup (none while
    /// nobody subscribes).
    pub maintenance: u64,
    /// Live subscribers.
    pub subscribers: usize,
    /// Notification lines dropped on full subscriber outboxes.
    pub dropped: u64,
}

/// The fleet ranking memo's counters for `STATS`: `TOPK` calls and fleet
/// view reads answered from a memoized ranking, and those that ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankMemoStats {
    /// Reads whose `k`, window and pinned publications were ranked before.
    pub hits: u64,
    /// Reads that ranked the pinned epochs themselves.
    pub misses: u64,
}

/// One shard's numbers in `STATS`: the store's size, read off its
/// published epoch, and the counters its worker records in the shard's
/// slot before every reply. Neither needs the worker, so a down shard
/// reports its last published store and its last recorded counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Resident keys in this shard's published store.
    pub keys: usize,
    /// Bytes held by this shard's published sketches.
    pub memory_bytes: usize,
    /// Event occurrences ingested by this shard's current worker (a
    /// respawn resets the counter); a `STATS` after an ingest ack counts
    /// the batch.
    pub ingested: u64,
    /// Weighted runs (ingest lines) those occurrences arrived as; the mean
    /// run weight is `ingested / ingest_runs`.
    pub ingest_runs: u64,
    /// Runs the current worker refused because their tick preceded their
    /// key's write clock (`stale_timestamp`); none of them reached the log.
    pub stale: u64,
    /// The shard store's checkpoint sequence number.
    pub checkpoint_seq: u64,
    /// Bytes in this shard's write-ahead log (0 with durability off).
    pub wal_bytes: u64,
    /// Segment files in this shard's write-ahead log (0 with durability
    /// off).
    pub wal_segments: u64,
    /// WAL compactions the current worker folded into full checkpoints.
    pub compactions: u64,
}

/// Supervision state of one shard, always reportable — even while the
/// shard's worker is down and cannot answer for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// `"up"`, `"wedged"`, `"restarting"`, or `"dead"`.
    pub state: &'static str,
    /// Times the supervisor has respawned this shard's worker.
    pub restarts: u64,
    /// Milliseconds from engine start to the latest respawn (0 = never
    /// restarted).
    pub last_restart_ms: u64,
    /// High-water mark of the shard's mailbox depth since engine start.
    pub mailbox_hwm: u64,
    /// Requests shed by admission control: the mailbox stayed full past
    /// the deadline, or the worker was quarantined as wedged.
    pub shed_requests: u64,
    /// Queries (`TOPK` and every view read included) served wait-free
    /// from this shard's published epoch.
    pub published_reads: u64,
    /// Time queries whose `now` was behind the key's write clock.
    pub behind_clock: u64,
    /// Sketches `TOPK` requests and fleet view reads (the notifier's too)
    /// had to score on this shard; a memo hit scores none. A ranking
    /// scores a few more than `k` while the arrivals bounds prune, at
    /// most `k` once every key is silent for longer than the window, and
    /// up to every key whose bound went stale within the window.
    pub ranked_sketches: u64,
}

/// One shard's row in [`Engine::stats`]: supervision health plus the
/// shard's numbers, both complete for every shard, up or down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Supervision health.
    pub health: ShardHealth,
    /// The published store's size and the worker's recorded counters.
    pub stats: ShardStats,
}

/// A typed message delivered to one shard worker's mailbox. Each request
/// carries a sender of its own reply type.
#[derive(Debug)]
pub enum ShardMsg {
    /// Apply a batch of keyed weighted runs (every key in it routes to this
    /// shard). The runs travel as the client sent them — `(key, event, n)`
    /// is `n` occurrences — through the log and into the store.
    Ingest {
        /// The runs, in arrival order.
        runs: Vec<(String, StreamEvent, u64)>,
        /// Where the worker acks the occurrences applied and the runs
        /// refused as stale, once the accepted runs are appended to the
        /// write-ahead log (when durable), applied and published; or the
        /// append's error, in which case nothing was applied.
        reply: Sender<Result<IngestAck, String>>,
    },
    /// Advance every resident sketch's clock to `ts` with no arrivals.
    Flush {
        /// Target tick.
        ts: u64,
        /// Where the worker acks, once the advance is published.
        reply: Sender<()>,
    },
    /// Checkpoint this shard's store into `dir` as `shard-<i>.full`.
    Snapshot {
        /// Target directory.
        dir: PathBuf,
        /// Where the worker reports bytes written or the error.
        reply: Sender<Result<u64, String>>,
    },
    /// Drain, write a final full checkpoint when a snapshot dir is
    /// configured, ack, and exit the worker thread.
    Shutdown {
        /// Where the worker acks completion, with the final checkpoint's
        /// error if one was attempted and failed (the worker still exits).
        reply: Sender<Option<String>>,
    },
    /// Exit the worker thread *without* a final checkpoint — a
    /// crash-shaped, supervisor-recoverable stop used by
    /// [`Engine::restart_shard`]. Messages already queued ahead of it are
    /// processed; anything enqueued behind it dies with the mailbox
    /// (unreplied, so senders see a retryable error, never a false ack).
    Exit,
}

/// The shard that owns `key` in an `n`-shard engine: the key's
/// [`fnv1a`](ecm::frame::fnv1a), deterministic across runs and processes,
/// so snapshots restore onto the same layout.
pub fn route(key: &str, n: usize) -> usize {
    (ecm::frame::fnv1a(key.as_bytes()) % n as u64) as usize
}
