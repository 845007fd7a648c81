//! The shard worker: one long-lived thread, one `SketchStore` partition,
//! and (with durability on) one write-ahead log.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use ecm::{Epoch, LeftRight, SketchStore, SnapshotError};

use super::hub::{Notice, ViewHub};
use super::supervisor::{ShardGauge, WorkerStats};
use super::wal::{write_atomic, ShardWal};
use super::{IngestAck, ShardMsg};
use crate::fault::{FaultHook, FaultSite};

/// Name of shard `i`'s full-checkpoint file inside a snapshot directory.
pub(super) fn full_file(shard: usize) -> String {
    format!("shard-{shard}.full")
}

/// The worker's half of the read path (see `ecm::publish`), and the one
/// place that decides when a write becomes visible: every write message
/// (`Ingest`, `Flush`) runs stale filter → WAL append → apply →
/// [`commit`](Self::commit),
/// and `commit` publishes the store before it acks. An ack therefore means
/// "visible to every reader" — read-your-writes needs no gate and no
/// second read path — and because the log append comes first, a pinned
/// epoch never shows state a crash could un-happen. Publishing per batch
/// is affordable because a store clone is a map of shared pointers: only
/// the keys the batch wrote were copied. Each of those copies is the
/// key's whole sketch, and on a wide, sparse fleet that copy is the
/// largest per-event cost the worker has — which is why the EH slab keeps
/// a cell to a 56-byte header and the slots its buckets use (about 12 KB
/// for a `wide-fleet` key, where the per-level layout before it took
/// 24 KB).
pub(super) struct Publisher {
    shard: usize,
    lr: Arc<LeftRight<SketchStore<String>>>,
    /// The shard's write clock (maximum applied tick) — the consistency
    /// point stamped onto every query response.
    clock: u64,
    hub: Arc<ViewHub>,
}

impl Publisher {
    /// Publish a restored (or fresh) `store` as the shard's first epoch of
    /// this worker incarnation, with the clock read off its sketches, so
    /// reads see the rebuilt state before the mailbox reopens.
    pub(super) fn start(
        shard: usize,
        lr: Arc<LeftRight<SketchStore<String>>>,
        store: &SketchStore<String>,
        hub: Arc<ViewHub>,
    ) -> Publisher {
        let clock = store
            .iter()
            .map(|(_, s)| s.write_clock())
            .max()
            .unwrap_or(0);
        let mut publisher = Publisher {
            shard,
            lr,
            clock,
            hub,
        };
        publisher.publish(store, clock);
        publisher
    }

    /// Publish a snapshot of `store`, whose latest write was at tick
    /// `ts`, and send the notifier the epoch while anyone subscribes.
    fn publish(&mut self, store: &SketchStore<String>, ts: u64) {
        self.clock = self.clock.max(ts);
        // `LeftRight::publish` assigns the sequence number.
        self.lr
            .publish(Epoch::initial(store.clone(), self.clock, store.version()));
        self.hub
            .notice(|| Notice::Published(self.shard, self.lr.pin()));
    }

    /// Finish a write message that `store` already holds: publish, then
    /// send `ack`.
    fn commit<T>(&mut self, store: &SketchStore<String>, ts: u64, reply: &Sender<T>, ack: T) {
        self.publish(store, ts);
        let _ = reply.send(ack);
    }
}

/// The worker loop. Runs until the mailbox disconnects or a `Shutdown` /
/// `Exit` message arrives; replies are best-effort (a requester that hung
/// up is not an error). Before each reply, and after each compaction, the
/// worker records its `STATS` counters into `stats`.
///
/// Returns `true` for a clean end (drained `Shutdown`, or the engine
/// dropped the mailbox) and `false` for a crash-shaped [`ShardMsg::Exit`]
/// — the supervisor repairs `false` and panics, never `true`.
#[allow(clippy::too_many_arguments)]
pub(super) fn run(
    shard: usize,
    mut store: SketchStore<String>,
    rx: Receiver<ShardMsg>,
    snapshot_dir: Option<std::path::PathBuf>,
    mut wal: Option<ShardWal>,
    gauge: Arc<ShardGauge>,
    stats: Arc<WorkerStats>,
    mut faults: FaultHook,
    mut publisher: Publisher,
) -> bool {
    while let Ok(msg) = rx.recv() {
        gauge.note_dequeue();
        match msg {
            ShardMsg::Ingest { mut runs, reply } => {
                // Parse forbids `err` at this site, so a firing rule
                // panics or sleeps — before the WAL sees the run, keeping
                // acked ⇔ applied exact across an injected crash.
                let _ = faults.fire(FaultSite::Shard);
                // A run whose tick precedes its key's write clock is
                // refused here, before the log: the log then holds exactly
                // what was applied, and replay — which never sees a `FLUSH`
                // — needs no policy of its own.
                let refused = store.retain_fresh(&mut runs);
                stats.stale.fetch_add(refused, Ordering::Relaxed);
                // Ack-after-append: the run reaches the log before it is
                // applied or acked, so an acked event survives `kill -9`.
                // On append failure the run is applied *nowhere* — the
                // store and the log never disagree.
                let appended = match &mut wal {
                    Some(w) if !runs.is_empty() => w.append_runs(&runs, store.checkpoint_seq()),
                    _ => Ok(()),
                };
                match appended {
                    Ok(()) => {
                        let latest = runs.iter().map(|(_, e, _)| e.ts).max().unwrap_or(0);
                        store.ingest_runs(&runs);
                        let ack = IngestAck {
                            ingested: runs.iter().map(|(_, _, n)| n).sum(),
                            stale: refused,
                        };
                        stats.ingested.fetch_add(ack.ingested, Ordering::Relaxed);
                        stats
                            .ingest_runs
                            .fetch_add(runs.len() as u64, Ordering::Relaxed);
                        stats.record(&store, wal.as_ref());
                        publisher.commit(&store, latest, &reply, Ok(ack));
                        if let Some(w) = &mut wal {
                            if w.needs_compaction() {
                                if let Some(dir) = &snapshot_dir {
                                    // Compaction failure degrades to "log
                                    // keeps growing" — ingest stays up and
                                    // the next batch retries.
                                    if let Err(e) =
                                        checkpoint(shard, &mut store, dir, Some(w), &mut faults)
                                    {
                                        eprintln!("sketchd: shard {shard} compaction failed: {e}");
                                    }
                                    stats.record(&store, Some(&*w));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        stats.record(&store, wal.as_ref());
                        let _ = reply.send(Err(e));
                    }
                }
            }
            ShardMsg::Flush { ts, reply } => {
                store.advance_to(ts);
                publisher.commit(&store, ts, &reply, ());
            }
            ShardMsg::Snapshot { dir, reply } => {
                // A checkpoint into the WAL's own directory compacts the log
                // into it; any other directory is a plain export that must
                // not touch the log.
                let chained = match &mut wal {
                    Some(w) if snapshot_dir.as_deref() == Some(dir.as_path()) => Some(w),
                    _ => None,
                };
                let outcome = checkpoint(shard, &mut store, &dir, chained, &mut faults);
                stats.record(&store, wal.as_ref());
                let _ = reply.send(outcome);
            }
            ShardMsg::Shutdown { reply } => {
                // Everything sent before this message has been applied (the
                // mailbox is FIFO); the final full checkpoint therefore
                // captures every acked event.
                let snapshot_error = snapshot_dir.as_deref().and_then(|dir| {
                    checkpoint(shard, &mut store, dir, wal.as_mut(), &mut faults).err()
                });
                stats.record(&store, wal.as_ref());
                let _ = reply.send(snapshot_error);
                gauge.note_idle();
                return true;
            }
            ShardMsg::Exit => {
                // Crash-shaped: no final checkpoint, no ack. Recovery is
                // the supervisor's restore-and-replay, same as a panic.
                gauge.note_idle();
                return false;
            }
        }
        gauge.note_idle();
    }
    true
}

/// Write this shard's full checkpoint, `shard-<i>.full`, into `dir`.
///
/// With `wal` (`dir` is the log's own directory) this folds the log into
/// the checkpoint: encode the snapshot, rotate onto a new segment, pin the
/// marker there, land the file, then delete every sealed segment. The
/// marker lives in the surviving active segment, so every crash window
/// along the way leaves a log that replays onto whichever checkpoint is on
/// disk; afterwards the log is one near-empty segment.
fn checkpoint(
    shard: usize,
    store: &mut SketchStore<String>,
    dir: &Path,
    mut wal: Option<&mut ShardWal>,
    faults: &mut FaultHook,
) -> Result<u64, String> {
    faults.fire(FaultSite::Snapshot)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let bytes = store
        .write_snapshot()
        .map_err(|e: SnapshotError| format!("shard {shard} full encode: {e}"))?;
    let fsync = wal.as_ref().is_some_and(|w| w.fsync());
    if let Some(w) = wal.as_deref_mut() {
        w.rotate(store.checkpoint_seq())?;
        w.append_marker(store.checkpoint_seq())?;
    }
    write_atomic(dir, &full_file(shard), &bytes, fsync)
        .map_err(|e| format!("shard {shard} full write: {e}"))?;
    if let Some(w) = wal {
        w.truncate_sealed()?;
        w.note_compaction();
    }
    Ok(bytes.len() as u64)
}

/// Restore one shard's store from a snapshot directory: load
/// `shard-<i>.full`; the log, when durable, replays on top.
///
/// An older release may have left `shard-<i>.delta-<seq>` files beside it.
/// One numbered at or below the full checkpoint's sequence was cut before
/// it and is superseded, so it is ignored. One above it holds acked writes
/// the full checkpoint lacks; dropping it would lose them, so it refuses
/// the restore, naming the file.
pub(super) fn restore(shard: usize, dir: &Path) -> Result<SketchStore<String>, String> {
    let full = dir.join(full_file(shard));
    let bytes = std::fs::read(&full).map_err(|e| format!("read {}: {e}", full.display()))?;
    let store = SketchStore::<String>::load_snapshot(&bytes)
        .map_err(|e| format!("decode {}: {e}", full.display()))?;
    let prefix = format!("shard-{shard}.delta-");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(seq) = name
            .to_string_lossy()
            .strip_prefix(&prefix)
            .map(str::parse::<u64>)
        else {
            continue;
        };
        if !seq.is_ok_and(|seq| seq <= store.checkpoint_seq()) {
            return Err(format!(
                "{} is newer than checkpoint {} in {}, and incremental checkpoints are \
                 retired: restore it with the release that wrote it, or remove it to give \
                 up its writes",
                entry.path().display(),
                store.checkpoint_seq(),
                full.display()
            ));
        }
    }
    Ok(store)
}
