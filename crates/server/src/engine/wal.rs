//! The shard worker's write-ahead log: segment files, rotation,
//! compaction bookkeeping, and crash recovery.
//!
//! The byte format and replay semantics live in [`ecm::wal`]; this module
//! owns the I/O side — which files exist, which one is active, when to
//! rotate, and how to resume appending after a crash (including
//! truncating a torn tail). One [`ShardWal`] belongs to exactly one shard
//! worker thread, so nothing here is synchronized.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ecm::wal::{
    encode_checkpoint, encode_runs, encode_segment_header, replay, segment_version, WalSegment,
    WalSegmentHeader,
};
use ecm::{ReplayReport, SketchStore, StreamEvent, WAL_VERSION};

use crate::fault::{FaultHook, FaultSite};

/// Name of shard `i`'s WAL segment `seg` inside the snapshot directory.
/// Zero-padded so lexicographic order is chain order.
pub(super) fn wal_file(shard: usize, segment: u64) -> String {
    format!("shard-{shard}.wal-{segment:06}")
}

/// Fsync a directory so file creations, renames, and removals inside it
/// survive power loss. Appends only sync file *contents*; the directory
/// entry pointing at a fresh segment (or the ordering of a removal) needs
/// its own sync, or a freshly rotated segment can vanish on power loss and
/// replay sees a chain gap.
pub(super) fn sync_dir(dir: &Path) -> Result<(), String> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("sync dir {}: {e}", dir.display()))
}

/// Crash-safe file landing for checkpoints and the manifest: write the
/// bytes to a same-directory temp file, then `rename` over the target
/// (atomic on POSIX). The target either keeps its old contents or holds
/// the complete new ones — a kill mid-write cannot tear the only `.full`
/// file or the manifest and strand a restart. The temp name's leading dot
/// keeps it out of every `shard-<i>.*` prefix scan (restore, WAL
/// listing), and being deterministic means a crash leaves at
/// most one stale temp per target, overwritten by the next attempt. With
/// `fsync`, the data and the directory entry are on the platter before
/// this returns.
pub(super) fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    fsync: bool,
) -> Result<(), String> {
    let tmp = dir.join(format!(".tmp.{name}"));
    let mut file = File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    if fsync {
        file.sync_data()
            .map_err(|e| format!("fsync {}: {e}", tmp.display()))?;
    }
    drop(file);
    let target = dir.join(name);
    std::fs::rename(&tmp, &target)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), target.display()))?;
    if fsync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The durability knobs a [`ShardWal`] runs with, copied out of the
/// [`ServerConfig`](crate::config::ServerConfig).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalConfig {
    /// Rotate the active segment once it grows past this many bytes.
    pub(crate) segment_bytes: u64,
    /// Fold the log into a fresh full checkpoint once its total size
    /// passes this many bytes.
    pub(crate) compact_bytes: u64,
    /// `sync_data` after every append.
    pub(crate) fsync: bool,
}

/// One shard's append handle over its segment chain.
pub(super) struct ShardWal {
    dir: PathBuf,
    shard: usize,
    cfg: WalConfig,
    file: File,
    /// Active segment index (1-based; older segments are sealed).
    segment: u64,
    /// Sequence number of the last record appended.
    record_seq: u64,
    /// Bytes in the active segment (header included).
    active_bytes: u64,
    /// Bytes across all sealed segments.
    sealed_bytes: u64,
    /// Sealed segment count.
    sealed_segments: u64,
    /// Compactions performed since this handle opened.
    compactions: u64,
    /// The framed record being written, and the body it frames — both
    /// reused across appends.
    buf: Vec<u8>,
    body: Vec<u8>,
    /// Deterministic fault injection on the append/rotate paths
    /// (zero-sized no-op in release builds).
    faults: FaultHook,
}

impl ShardWal {
    /// Open shard `shard`'s log in `dir`, replaying any existing segments
    /// into `store` (which the caller has already restored from the
    /// latest checkpoint), truncating a torn tail, and leaving the handle
    /// positioned to append. A fresh log gets segment 1 plus an immediate
    /// checkpoint marker for the store's current sequence, so a chain
    /// point always exists.
    pub(super) fn open(
        dir: &Path,
        shard: usize,
        cfg: WalConfig,
        store: &mut SketchStore<String>,
        faults: FaultHook,
    ) -> Result<(ShardWal, ReplayReport), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let fail =
            |stage: &str, e: &dyn std::fmt::Display| format!("shard {shard} wal {stage}: {e}");
        let mut indexed: Vec<(u64, PathBuf)> = Vec::new();
        let prefix = format!("shard-{shard}.wal-");
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(suffix) = name.strip_prefix(&prefix) {
                let index: u64 = suffix
                    .parse()
                    .map_err(|_| fail("segment name", &format!("unparseable index in {name}")))?;
                indexed.push((index, entry.path()));
            }
        }
        indexed.sort();
        let mut contents: Vec<(u64, Vec<u8>)> = Vec::with_capacity(indexed.len());
        for (index, path) in &indexed {
            let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            contents.push((*index, bytes));
        }
        let segments: Vec<WalSegment<'_>> = contents
            .iter()
            .map(|(index, bytes)| WalSegment {
                index: *index,
                bytes,
            })
            .collect();
        let report = replay(store, shard as u64, &segments).map_err(|e| fail("replay", &e))?;

        let mut wal = ShardWal {
            dir: dir.to_path_buf(),
            shard,
            cfg,
            // Placeholder; every branch below installs the real handle.
            file: File::open(dir).map_err(|e| fail("open dir", &e))?,
            segment: 0,
            record_seq: report.last_seq,
            active_bytes: 0,
            sealed_bytes: 0,
            sealed_segments: 0,
            compactions: 0,
            buf: Vec::new(),
            body: Vec::new(),
            faults,
        };
        match indexed.last() {
            None => {
                // Fresh log: open segment 1 and pin the chain point.
                wal.create_segment(1, store.checkpoint_seq())?;
                wal.append_marker(store.checkpoint_seq())?;
            }
            Some((last_index, last_path)) => {
                wal.segment = *last_index;
                for (index, bytes) in &contents {
                    if index != last_index {
                        wal.sealed_bytes += bytes.len() as u64;
                        wal.sealed_segments += 1;
                    }
                }
                if report.last_segment_valid_len == 0 {
                    // Even the header was torn (a crash inside rotation's
                    // first write): the file holds nothing — recreate the
                    // same segment index so the chain stays contiguous.
                    std::fs::remove_file(last_path).map_err(|e| fail("remove torn segment", &e))?;
                    wal.create_segment(*last_index, store.checkpoint_seq())?;
                    if wal.sealed_segments == 0 {
                        // No sealed history either: this was a fresh log's
                        // very first write, so re-pin the chain point.
                        wal.append_marker(store.checkpoint_seq())?;
                    }
                } else {
                    let file = OpenOptions::new()
                        .write(true)
                        .open(last_path)
                        .map_err(|e| fail("open segment", &e))?;
                    if report.torn_tail {
                        file.set_len(report.last_segment_valid_len as u64)
                            .map_err(|e| fail("truncate torn tail", &e))?;
                    }
                    let mut file = file;
                    use std::io::Seek;
                    file.seek(std::io::SeekFrom::End(0))
                        .map_err(|e| fail("seek", &e))?;
                    wal.file = file;
                    wal.active_bytes = report.last_segment_valid_len as u64;
                    let version = contents
                        .last()
                        .and_then(|(_, bytes)| segment_version(bytes));
                    if version != Some(WAL_VERSION) {
                        // A segment written by an older binary: seal it, so
                        // that no record it could not read lands under a
                        // header that says it could.
                        wal.rotate(store.checkpoint_seq())?;
                    }
                }
            }
        }
        Ok((wal, report))
    }

    /// Total log size on disk (active + sealed segments).
    pub(super) fn total_bytes(&self) -> u64 {
        self.active_bytes + self.sealed_bytes
    }

    /// Segment files on disk (active + sealed).
    pub(super) fn segments(&self) -> u64 {
        self.sealed_segments + 1
    }

    /// Compactions performed since this handle opened.
    pub(super) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether this log syncs every write (checkpoint files written next
    /// to it must then sync too, or the log's durability claim is hollow).
    pub(super) fn fsync(&self) -> bool {
        self.cfg.fsync
    }

    /// Whether the log has outgrown the compaction threshold.
    pub(super) fn needs_compaction(&self) -> bool {
        self.total_bytes() > self.cfg.compact_bytes
    }

    /// Append one ingest batch as a runs record. On success the runs are on
    /// the log (and in the OS page cache — or on the platter, with `fsync`)
    /// and the worker may apply + ack them. When the active segment has
    /// outgrown its threshold it is rotated *first* (`checkpoint_seq` seeds
    /// the new header), so every error leaves the batch off the log: a
    /// refused batch never replays.
    pub(super) fn append_runs(
        &mut self,
        runs: &[(String, StreamEvent, u64)],
        checkpoint_seq: u64,
    ) -> Result<(), String> {
        // Fires *before* any byte is written: an injected append error is
        // the clean ack-after-append failure (the run lands nowhere).
        self.faults.fire(FaultSite::WalAppend)?;
        if self.active_bytes >= self.cfg.segment_bytes {
            self.rotate(checkpoint_seq)?;
        }
        self.buf.clear();
        encode_runs(self.record_seq + 1, runs, &mut self.body, &mut self.buf);
        self.write_buf()?;
        self.record_seq += 1;
        Ok(())
    }

    /// Append a checkpoint marker chaining the log to `checkpoint_seq`.
    /// Called *before* the checkpoint file itself is written: if the crash
    /// lands between the two, replay simply chains from the previous
    /// marker and the unlanded one is skipped.
    pub(super) fn append_marker(&mut self, checkpoint_seq: u64) -> Result<(), String> {
        self.buf.clear();
        encode_checkpoint(self.record_seq + 1, checkpoint_seq, &mut self.buf);
        self.write_buf()?;
        self.record_seq += 1;
        Ok(())
    }

    /// Seal the active segment and open the next one. The counters move
    /// only once the next segment exists: after a failure this handle
    /// keeps appending to the active segment, and the next rotation retries
    /// the same index, so the chain has no gap.
    pub(super) fn rotate(&mut self, checkpoint_seq: u64) -> Result<(), String> {
        self.faults.fire(FaultSite::WalRotate)?;
        let sealed = self.active_bytes;
        self.create_segment(self.segment + 1, checkpoint_seq)?;
        self.sealed_bytes += sealed;
        self.sealed_segments += 1;
        Ok(())
    }

    /// Delete every sealed segment. Only safe after the active segment
    /// holds a marker for a checkpoint that is on disk — i.e. from
    /// [`compact`-style](super::shard) callers.
    pub(super) fn truncate_sealed(&mut self) -> Result<(), String> {
        for index in (self.segment - self.sealed_segments)..self.segment {
            let path = self.dir.join(wal_file(self.shard, index));
            std::fs::remove_file(&path)
                .map_err(|e| format!("shard {} wal remove {}: {e}", self.shard, path.display()))?;
        }
        if self.cfg.fsync {
            sync_dir(&self.dir).map_err(|e| format!("shard {} wal {e}", self.shard))?;
        }
        self.sealed_bytes = 0;
        self.sealed_segments = 0;
        Ok(())
    }

    /// Count one finished compaction.
    pub(super) fn note_compaction(&mut self) {
        self.compactions += 1;
    }

    /// Create segment `segment` and make it the active one.
    fn create_segment(&mut self, segment: u64, base_checkpoint_seq: u64) -> Result<(), String> {
        let path = self.dir.join(wal_file(self.shard, segment));
        let header = encode_segment_header(&WalSegmentHeader {
            shard: self.shard as u64,
            segment,
            base_record_seq: self.record_seq,
            base_checkpoint_seq,
        });
        let mut file = File::create(&path)
            .map_err(|e| format!("shard {} wal create {}: {e}", self.shard, path.display()))?;
        file.write_all(&header)
            .map_err(|e| format!("shard {} wal header write: {e}", self.shard))?;
        if self.cfg.fsync {
            // The header and the directory entry must both be on the
            // platter before any record relies on this segment existing —
            // otherwise power loss after a rotation can drop the whole
            // segment and replay reports a chain gap (hard SpecMismatch).
            file.sync_data()
                .map_err(|e| format!("shard {} wal header fsync: {e}", self.shard))?;
            sync_dir(&self.dir).map_err(|e| format!("shard {} wal {e}", self.shard))?;
        }
        self.file = file;
        self.segment = segment;
        self.active_bytes = header.len() as u64;
        Ok(())
    }

    fn write_buf(&mut self) -> Result<(), String> {
        self.file
            .write_all(&self.buf)
            .map_err(|e| format!("shard {} wal append: {e}", self.shard))?;
        if self.cfg.fsync {
            self.file
                .sync_data()
                .map_err(|e| format!("shard {} wal fsync: {e}", self.shard))?;
        }
        self.active_bytes += self.buf.len() as u64;
        Ok(())
    }
}
