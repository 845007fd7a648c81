//! The shard supervisor: detects a dead or wedged worker, quarantines its
//! mailbox, and respawns it through the crash-recovery path — restore the
//! latest checkpoint, replay the WAL tail, tell the notifier — without
//! losing the other N−1 shards.
//!
//! Every worker thread carries an [`ExitGuard`] whose `Drop` posts an
//! [`ExitNotice`] to the supervisor thread, so a panic anywhere in the
//! worker (including an injected one) is observed the moment the thread
//! unwinds. The supervisor also ticks a health check: a worker that sits
//! inside one message past the configured deadline is marked *wedged* and
//! its shard sheds requests instead of queueing them — the live thread is
//! never respawned (two workers appending to one WAL would corrupt it);
//! the quarantine lifts when the message finishes, and the normal respawn
//! runs if it panics instead.
//!
//! Respawn safety leans entirely on the PR-7 durability contract: acked
//! durable writes are on the log *before* they are acked, so
//! checkpoint + WAL-tail replay reconstructs exactly the acked history.
//! Without durability, a respawned shard restarts from its last
//! checkpoint (or empty) — supervision keeps the fleet serving, but
//! events acked after that checkpoint die with the worker.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecm::{Epoch, LeftRight, SketchSpec, SketchStore, ViewDef};

use super::hub::{Notice, ViewHub};
use super::manifest::MANIFEST;
use super::router::RankMemo;
use super::shard;
use super::wal::{ShardWal, WalConfig};
use super::{ShardHealth, ShardMsg, ShardStats, ShardStatus};
use crate::config::ServerConfig;
use crate::fault::{FaultHook, FaultPlan};

/// Salt decorrelating a worker's fault hook from its WAL's (both belong
/// to the same shard and must not share a random stream).
const WORKER_SALT: u64 = 0x574f_524b;
/// Salt for the WAL-side fault hook.
const WAL_SALT: u64 = 0x57_414c;

/// How often the supervisor wakes to run the wedge health check and poll
/// its stop flag.
const TICK: Duration = Duration::from_millis(50);

/// Lifecycle of one shard's worker, as the router sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum SlotState {
    /// Worker alive and draining its mailbox.
    Up,
    /// Worker alive but stuck inside one message past the health
    /// deadline; the mailbox is quarantined (requests shed) until it
    /// recovers or dies.
    Wedged,
    /// Worker died; the supervisor is rebuilding it.
    Restarting,
    /// Respawn failed (restore/replay error); the shard stays down.
    Dead(String),
}

impl SlotState {
    /// The `STATS` wire name.
    pub(super) fn name(&self) -> &'static str {
        match self {
            SlotState::Up => "up",
            SlotState::Wedged => "wedged",
            SlotState::Restarting => "restarting",
            SlotState::Dead(_) => "dead",
        }
    }
}

/// Mailbox instrumentation shared between the senders (enqueue) and the
/// worker (dequeue / busy stamps). All plain atomics — the counters are
/// advisory (health checks, `STATS`), never consistency-bearing.
#[derive(Debug)]
pub(super) struct ShardGauge {
    /// The engine's start instant; all millisecond stamps count from it.
    epoch: Instant,
    /// Messages accepted but not yet dequeued (approximate under races).
    depth: AtomicU64,
    /// High-water mark of `depth`.
    hwm: AtomicU64,
    /// Milliseconds-from-epoch when the worker entered its current
    /// message; 0 while idle.
    busy_since_ms: AtomicU64,
}

impl ShardGauge {
    fn new(epoch: Instant) -> ShardGauge {
        ShardGauge {
            epoch,
            depth: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
            busy_since_ms: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// A sender landed a message in the mailbox.
    pub(super) fn note_enqueue(&self) {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// The worker pulled a message out and is now inside it. Stamps are
    /// clamped to ≥ 1 so 0 stays the unambiguous idle marker.
    pub(super) fn note_dequeue(&self) {
        self.busy_since_ms
            .store(self.now_ms().max(1), Ordering::Relaxed);
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// The worker finished its message.
    pub(super) fn note_idle(&self) {
        self.busy_since_ms.store(0, Ordering::Relaxed);
    }

    /// A fresh worker starts with an empty mailbox and no busy stamp (the
    /// high-water mark survives restarts — it describes the shard, not
    /// the worker).
    fn reset(&self) {
        self.depth.store(0, Ordering::Relaxed);
        self.busy_since_ms.store(0, Ordering::Relaxed);
    }
}

/// The counters a shard's worker records for `STATS`: what
/// [`ShardStats`] holds beyond the store's size, which `STATS` reads off
/// the published epoch. The worker records them before each reply and
/// after each checkpoint, so `STATS` never enters the mailbox, and a down
/// shard reports the last ones its worker recorded. A spawn zeroes the
/// ingest counters and records the recovered store and log. Advisory,
/// like the gauge.
#[derive(Debug, Default)]
pub(super) struct WorkerStats {
    pub(super) ingested: AtomicU64,
    pub(super) ingest_runs: AtomicU64,
    pub(super) stale: AtomicU64,
    checkpoint_seq: AtomicU64,
    wal_bytes: AtomicU64,
    wal_segments: AtomicU64,
    compactions: AtomicU64,
}

impl WorkerStats {
    /// Record the store's checkpoint sequence and the log's size, segments
    /// and compactions.
    pub(super) fn record(&self, store: &SketchStore<String>, wal: Option<&ShardWal>) {
        self.checkpoint_seq
            .store(store.checkpoint_seq(), Ordering::Relaxed);
        self.wal_bytes
            .store(wal.map_or(0, ShardWal::total_bytes), Ordering::Relaxed);
        self.wal_segments
            .store(wal.map_or(0, ShardWal::segments), Ordering::Relaxed);
        self.compactions
            .store(wal.map_or(0, ShardWal::compactions), Ordering::Relaxed);
    }

    /// A fresh worker's numbers: nothing ingested yet, and the recovered
    /// store's checkpoint and log.
    fn reset(&self, store: &SketchStore<String>, wal: Option<&ShardWal>) {
        for counter in [&self.ingested, &self.ingest_runs, &self.stale] {
            counter.store(0, Ordering::Relaxed);
        }
        self.record(store, wal);
    }
}

/// One shard's replaceable attachment point: the mailbox sender the
/// router clones for every request, the supervision state, and the
/// restart/shed counters `STATS` reports.
pub(super) struct ShardSlot {
    /// The live mailbox. Swapped wholesale on respawn; senders cloned
    /// from a dead incarnation fail fast (receiver dropped) instead of
    /// blocking.
    pub(super) sender: RwLock<SyncSender<ShardMsg>>,
    pub(super) state: Mutex<SlotState>,
    pub(super) restarts: AtomicU64,
    pub(super) last_restart_ms: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) gauge: Arc<ShardGauge>,
    pub(super) worker: Arc<WorkerStats>,
    pub(super) handle: Mutex<Option<JoinHandle<()>>>,
    /// The shard's left-right epoch pair: the worker publishes a snapshot
    /// of its store here before acking each write, the router pins it to
    /// serve reads wait-free (see `ecm::publish`). Outlives worker
    /// incarnations — during a rebuild the last published epoch keeps
    /// serving.
    pub(super) published: Arc<LeftRight<SketchStore<String>>>,
    /// Queries served from the published epoch (for `STATS`).
    pub(super) published_reads: AtomicU64,
    /// Time queries whose `now` was behind the key's write clock.
    pub(super) behind_clock: AtomicU64,
    /// Sketches `TOPK` and fleet view reads had to score on this shard
    /// (for `STATS`), on ranking-memo misses only: against keys × misses,
    /// how well the score bounds still prune.
    pub(super) ranked_sketches: AtomicU64,
}

impl ShardSlot {
    fn new(epoch: Instant, spec: &SketchSpec) -> ShardSlot {
        // Placeholder sender (disconnected once `rx` drops here); the
        // first spawn_worker installs the real one. The placeholder
        // published epoch (an empty store) is likewise replaced before the
        // engine is handed to any caller.
        let (tx, _rx) = sync_channel(1);
        let empty = SketchStore::new(spec.clone()).expect("spec validated by Engine::start");
        ShardSlot {
            sender: RwLock::new(tx),
            state: Mutex::new(SlotState::Up),
            restarts: AtomicU64::new(0),
            last_restart_ms: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            gauge: Arc::new(ShardGauge::new(epoch)),
            worker: Arc::default(),
            handle: Mutex::new(None),
            published: Arc::new(LeftRight::new(Epoch::initial(empty, 0, 0))),
            published_reads: AtomicU64::new(0),
            behind_clock: AtomicU64::new(0),
            ranked_sketches: AtomicU64::new(0),
        }
    }
}

/// What a worker's [`ExitGuard`] posts when its thread ends, however it
/// ends.
pub(super) struct ExitNotice {
    pub(super) shard: usize,
    /// `true` for a drained `Shutdown` or a disconnected mailbox (the
    /// engine is going away); `false` for a panic or an `Exit` request —
    /// the cases the supervisor must repair.
    pub(super) clean: bool,
}

/// The standing views by name.
pub(super) type Registry = BTreeMap<String, ViewDef<String>>;

/// Everything the router, the supervisor and the notifier share about the
/// fleet. Lives behind one `Arc`; the supervisor and notifier threads hold
/// clones, so nothing here may own their `JoinHandle`s (the engine does).
pub(super) struct Fleet {
    pub(super) slots: Vec<ShardSlot>,
    /// Ingest/shutdown gate (see [`Engine`](super::Engine)).
    pub(super) down: RwLock<bool>,
    pub(super) snapshot_dir: Option<PathBuf>,
    pub(super) spec: SketchSpec,
    /// `Some` exactly when the engine is durable.
    pub(super) wal_cfg: Option<WalConfig>,
    pub(super) mailbox_depth: usize,
    pub(super) admission_timeout: Duration,
    pub(super) request_timeout: Duration,
    pub(super) health_deadline: Duration,
    pub(super) item_limit: Option<u64>,
    /// The standing-view registry. `SUBSCRIBE` registers with the hub
    /// under its lock, and `VIEW DROP` evicts under it, so no subscriber
    /// outlives its view.
    pub(super) views: Mutex<Registry>,
    pub(super) hub: Arc<ViewHub>,
    /// Fleet rankings of `TOPK`, fleet view reads and the notifier.
    pub(super) rank_memo: RankMemo,
    /// Cloned into every worker's exit guard; the fleet's own copy keeps
    /// the channel alive across respawns.
    pub(super) exit_tx: Sender<ExitNotice>,
    pub(super) faults: FaultPlan,
}

impl Fleet {
    /// An empty fleet skeleton and the receiving end of its notice
    /// channel; the router calls [`recover_shard`] and [`spawn_worker`]
    /// per shard, then starts the supervisor and the notifier.
    pub(super) fn new(
        cfg: &ServerConfig,
        views: Registry,
        exit_tx: Sender<ExitNotice>,
        faults: FaultPlan,
    ) -> (Fleet, Receiver<Notice>) {
        let epoch = Instant::now();
        let (hub, notices) = ViewHub::new(cfg.subscriber_outbox);
        let fleet = Fleet {
            slots: (0..cfg.shards)
                .map(|_| ShardSlot::new(epoch, &cfg.spec))
                .collect(),
            down: RwLock::new(false),
            snapshot_dir: cfg.snapshot_dir.clone(),
            spec: cfg.spec.clone(),
            wal_cfg: cfg.durability.then_some(WalConfig {
                segment_bytes: cfg.wal_segment_bytes,
                compact_bytes: cfg.wal_compact_bytes,
                fsync: cfg.wal_fsync,
            }),
            mailbox_depth: cfg.mailbox_depth,
            admission_timeout: cfg.admission_timeout,
            request_timeout: cfg.request_timeout,
            health_deadline: cfg.health_deadline,
            item_limit: cfg
                .spec
                .hierarchy_bits()
                .map(|bits| 1u64.checked_shl(bits).unwrap_or(u64::MAX)),
            views: Mutex::new(views),
            hub: Arc::new(hub),
            rank_memo: RankMemo::new(),
            exit_tx,
            faults,
        };
        (fleet, notices)
    }

    /// The shard's `STATS` row: its supervision health, its published
    /// store's size and its worker's recorded counters. The epoch is
    /// pinned directly, not through `Engine::pin`, so `STATS` counts in no
    /// `published_reads`.
    pub(super) fn status(&self, shard: usize) -> ShardStatus {
        let slot = &self.slots[shard];
        let epoch = slot.published.pin();
        let store = &epoch.value;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let worker = &slot.worker;
        ShardStatus {
            shard,
            health: ShardHealth {
                state: slot.state.lock().expect("state poisoned").name(),
                restarts: load(&slot.restarts),
                last_restart_ms: load(&slot.last_restart_ms),
                mailbox_hwm: load(&slot.gauge.hwm),
                shed_requests: load(&slot.shed),
                published_reads: load(&slot.published_reads),
                behind_clock: load(&slot.behind_clock),
                ranked_sketches: load(&slot.ranked_sketches),
            },
            stats: ShardStats {
                keys: store.key_count(),
                memory_bytes: store.memory_bytes(),
                ingested: load(&worker.ingested),
                ingest_runs: load(&worker.ingest_runs),
                stale: load(&worker.stale),
                checkpoint_seq: load(&worker.checkpoint_seq),
                wal_bytes: load(&worker.wal_bytes),
                wal_segments: load(&worker.wal_segments),
                compactions: load(&worker.compactions),
            },
        }
    }
}

/// Posts the exit notice when the worker thread ends — by return, by
/// `Exit`, or by unwinding out of a panic.
struct ExitGuard {
    shard: usize,
    tx: Sender<ExitNotice>,
    clean: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let _ = self.tx.send(ExitNotice {
            shard: self.shard,
            clean: self.clean,
        });
    }
}

/// Create the mailbox, spawn the worker thread, and install both into the
/// shard's slot. Used for the initial fleet and for every respawn.
pub(super) fn spawn_worker(
    fleet: &Arc<Fleet>,
    shard: usize,
    store: SketchStore<String>,
    wal: Option<ShardWal>,
) {
    let slot = &fleet.slots[shard];
    let (tx, rx) = sync_channel(fleet.mailbox_depth);
    let gauge = Arc::clone(&slot.gauge);
    gauge.reset();
    let stats = Arc::clone(&slot.worker);
    stats.reset(&store, wal.as_ref());
    let publisher = shard::Publisher::start(
        shard,
        Arc::clone(&slot.published),
        &store,
        Arc::clone(&fleet.hub),
    );
    let exit_tx = fleet.exit_tx.clone();
    let dir = fleet.snapshot_dir.clone();
    let faults = FaultHook::new(&fleet.faults, shard, WORKER_SALT);
    let handle = std::thread::Builder::new()
        .name(format!("sketchd-shard-{shard}"))
        .spawn(move || {
            let mut guard = ExitGuard {
                shard,
                tx: exit_tx,
                clean: false,
            };
            guard.clean = shard::run(shard, store, rx, dir, wal, gauge, stats, faults, publisher);
        })
        .expect("spawn shard worker");
    *slot.sender.write().expect("sender poisoned") = tx;
    *slot.handle.lock().expect("handle poisoned") = Some(handle);
}

/// The supervisor loop: repair unclean exits, tick the wedge health
/// check, and leave when the engine's shutdown sets `stop`.
pub(super) fn supervise(fleet: Arc<Fleet>, exit_rx: Receiver<ExitNotice>, stop: Arc<AtomicBool>) {
    loop {
        match exit_rx.recv_timeout(TICK) {
            Ok(notice) => {
                if notice.clean || *fleet.down.read().expect("gate poisoned") {
                    continue;
                }
                respawn(&fleet, notice.shard);
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                health_check(&fleet);
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Flip shards between `Up` and `Wedged` from their busy stamps. Only
/// those two states move here — restarts are owned by [`respawn`].
fn health_check(fleet: &Fleet) {
    let deadline_ms = fleet.health_deadline.as_millis() as u64;
    for slot in &fleet.slots {
        let busy = slot.gauge.busy_since_ms.load(Ordering::Relaxed);
        let over = busy != 0 && slot.gauge.now_ms().saturating_sub(busy) > deadline_ms;
        let mut state = slot.state.lock().expect("state poisoned");
        match *state {
            SlotState::Up if over => *state = SlotState::Wedged,
            SlotState::Wedged if !over => *state = SlotState::Up,
            _ => {}
        }
    }
}

/// Rebuild one dead shard: quarantine, reap the corpse, restore
/// checkpoint + WAL tail, tell the notifier, spawn the replacement, reopen
/// the slot.
fn respawn(fleet: &Arc<Fleet>, shard: usize) {
    let slot = &fleet.slots[shard];
    *slot.state.lock().expect("state poisoned") = SlotState::Restarting;
    // The thread already unwound (its exit notice got us here); joining
    // guarantees its WAL handle is closed before the replay reopens it.
    if let Some(handle) = slot.handle.lock().expect("handle poisoned").take() {
        let _ = handle.join();
    }
    let began = Instant::now();
    match recover_shard(fleet, shard) {
        Ok((store, wal)) => {
            // Queued ahead of the replacement's first publication, so the
            // marker precedes every push the new worker causes.
            fleet.hub.notice(|| Notice::Restarted(shard));
            spawn_worker(fleet, shard, store, wal);
            slot.restarts.fetch_add(1, Ordering::Relaxed);
            slot.last_restart_ms
                .store(slot.gauge.now_ms().max(1), Ordering::Relaxed);
            *slot.state.lock().expect("state poisoned") = SlotState::Up;
            eprintln!(
                "sketchd: shard {shard} worker died; restarted in {:?}",
                began.elapsed()
            );
            if *fleet.down.read().expect("gate poisoned") {
                // Shutdown raced the rebuild and missed the new worker:
                // retire it here so the engine's join sees no stragglers.
                retire(fleet, shard);
            }
        }
        Err(e) => {
            eprintln!("sketchd: shard {shard} restart failed: {e}");
            *slot.state.lock().expect("state poisoned") = SlotState::Dead(e);
        }
    }
}

/// Rebuild one shard's store and log from disk — at start-up and on every
/// respawn: the checkpoint chain of a snapshot directory that has a
/// manifest, and the write-ahead log replayed on top when durable (a
/// durable shard that has not checkpointed yet has only its log). Without
/// a log, events acked after the last checkpoint are lost.
pub(super) fn recover_shard(
    fleet: &Fleet,
    shard: usize,
) -> Result<(SketchStore<String>, Option<ShardWal>), String> {
    let dir = fleet.snapshot_dir.as_deref();
    let mut store = match dir.filter(|dir| dir.join(MANIFEST).exists()) {
        Some(dir) if fleet.wal_cfg.is_none() || dir.join(shard::full_file(shard)).exists() => {
            shard::restore(shard, dir)?
        }
        _ => SketchStore::new(fleet.spec.clone()).map_err(|e| format!("fresh store: {e}"))?,
    };
    let wal = match fleet.wal_cfg {
        Some(cfg) => {
            let dir = dir.expect("durable has a dir");
            let faults = FaultHook::new(&fleet.faults, shard, WAL_SALT);
            let (wal, _report) = ShardWal::open(dir, shard, cfg, &mut store, faults)?;
            Some(wal)
        }
        None => None,
    };
    Ok((store, wal))
}

/// Gracefully stop a worker that was respawned after shutdown had already
/// begun.
fn retire(fleet: &Arc<Fleet>, shard: usize) {
    let slot = &fleet.slots[shard];
    let sender = slot.sender.read().expect("sender poisoned").clone();
    let (tx, rx) = channel();
    if sender.send(ShardMsg::Shutdown { reply: tx }).is_ok() {
        let _ = rx.recv();
    }
    if let Some(handle) = slot.handle.lock().expect("handle poisoned").take() {
        let _ = handle.join();
    }
}
