//! Per-shard write-ahead logging for [`SketchStore`] fleets.
//!
//! Snapshots ([`store`](crate::store)) bound recovery loss to "everything
//! since the last checkpoint" — for the paper's continuous monitoring
//! setting that is still too much: an acked event must survive a crash.
//! This module closes the gap with an append-only log of ingest runs,
//! written *before* the events are applied (and before the caller's ack),
//! so recovery = latest snapshot + WAL replay reproduces a never-crashed
//! store bit for bit, by the same arrival-id-sequence argument the
//! snapshot differential tests already prove.
//!
//! A log is a chain of **segment** files. Each segment opens with a sealed
//! header and carries sealed, sequence-numbered records; magic, version,
//! body length and seal follow the shared rules of [`frame`]:
//!
//! ```text
//! segment header                          one record (repeated)
//! ┌───────┬─────────┬───────┬─────────┬──────────┬──────────┬──────────┐
//! │ magic │ version │ shard │ segment │ base rec │ base ckpt│ checksum │
//! │ "EL"  │   u8    │varint │ varint  │  varint  │  varint  │ u64 FNV  │
//! └───────┴─────────┴───────┴─────────┴──────────┴──────────┴──────────┘
//! ┌──────────┬──────┬─────────┬─────────────────────────────┬──────────┐
//! │ body len │ kind │ rec seq │ payload                     │ checksum │
//! │  varint  │  u8  │ varint  │ by kind, below              │ u64 FNV  │
//! └──────────┴──────┴─────────┴─────────────────────────────┴──────────┘
//! payload by kind
//!   0 events      n · n × (key · item · ts)            one entry per occurrence
//!   1 checkpoint  checkpoint seq
//!   2 runs        reserved · n × (key · item · ts · weight), to the body's end
//! ```
//!
//! Three record kinds exist. A **runs** record (kind 2, what
//! [`encode_runs`] writes and a shard worker logs) carries one ingest
//! batch exactly as the store applies it: one `(key, event, weight)` entry
//! per weighted run, so a line that stands for 8 occurrences costs one
//! entry, not 8. Its leading `reserved` varint is written as 0 and ignored
//! on replay — room for a client batch id. An **events** record (kind 0,
//! [`encode_ingest`]) is the older shape, one entry per occurrence; nothing
//! writes it any more but it decodes and replays for ever, so a log written
//! before kind 2 existed replays unchanged. A **checkpoint marker** records
//! that checkpoint `checkpoint_seq` was cut at this point of the stream.
//! Markers are appended *before* the checkpoint file is written, so a crash
//! between the two leaves a chain that still replays from the previous
//! marker. [`replay`] finds the last marker matching the restored store's
//! [`checkpoint_seq`](SketchStore::checkpoint_seq) and re-applies every
//! ingest record after it (skipping markers of checkpoints that never
//! landed).
//!
//! **Versions.** Segments are written as version 2 ([`WAL_VERSION`]);
//! version 1 — the same layout without kind 2 — is still read. The bump
//! exists for the other direction: a binary that predates kind 2 refuses a
//! version-2 segment with [`SnapshotError::UnsupportedVersion`] instead of
//! calling its runs records corrupt.
//!
//! **Replay streams.** It walks the log twice and never holds more than
//! one decoded record: the first pass verifies every frame, checksum, body,
//! segment link and sequence number and finds the chain marker; the second
//! decodes the records after the marker one at a time and applies each.
//! Every hard error is therefore reported before the store is touched.
//!
//! Torn-tail handling is typed, never a panic: a final record (or final
//! segment header) with too few bytes is the interrupted last write — it
//! is silently dropped and [`ReplayReport::torn_tail`] is set so the owner
//! can truncate the file and keep appending. A *complete* record that
//! fails its checksum, a gap in record sequence numbers, or any corruption
//! in a sealed (non-final) segment is a hard [`SnapshotError`]: the log is
//! not trustworthy and replay refuses to guess. One caveat is inherent to
//! length-framed logs: in the *final* segment, a corrupted length varint
//! makes the frame (and everything after it) indistinguishable from a torn
//! tail, so such damage truncates rather than erroring — only corruption
//! that leaves the length framing intact is guaranteed to surface as a
//! hard error there.

use std::hash::Hash;

use crate::frame::{self, corrupt};
use crate::sketch::StreamEvent;
use crate::snapshot::{SnapshotError, SnapshotKey};
use crate::store::SketchStore;
use sliding_window::codec::{get_u8, get_varint, put_u8, put_varint};
use sliding_window::CodecError;

/// The WAL format version segments are written with. Bump on any layout
/// change; older readers reject newer logs with
/// [`SnapshotError::UnsupportedVersion`]. Version 1 (no runs records) is
/// still read.
pub const WAL_VERSION: u8 = 2;

/// Oldest segment version [`replay`] still reads.
const WAL_MIN_VERSION: u8 = 1;

/// Leading magic of every WAL segment ("ECM Log").
pub(crate) const WAL_MAGIC: [u8; 2] = *b"EL";

const KIND_EVENTS: u8 = 0;
const KIND_CHECKPOINT: u8 = 1;
const KIND_RUNS: u8 = 2;

/// The self-describing header opening every segment file: which shard the
/// log belongs to, the segment's position in the chain, and the record /
/// checkpoint sequences the segment continues from (so replay can verify
/// chain contiguity after older segments were truncated away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSegmentHeader {
    /// Shard index the log belongs to.
    pub shard: u64,
    /// This segment's index in the chain (1-based, contiguous).
    pub segment: u64,
    /// Sequence number of the last record written before this segment
    /// (0 for the first segment of a fresh log).
    pub base_record_seq: u64,
    /// The owning store's checkpoint sequence when the segment was opened
    /// (informational; replay chains on markers, not on this).
    pub base_checkpoint_seq: u64,
}

/// Encode a segment header (magic, version, fields, seal).
pub fn encode_segment_header(h: &WalSegmentHeader) -> Vec<u8> {
    let mut buf = frame::begin(WAL_MAGIC, WAL_VERSION);
    put_varint(&mut buf, h.shard);
    put_varint(&mut buf, h.segment);
    put_varint(&mut buf, h.base_record_seq);
    put_varint(&mut buf, h.base_checkpoint_seq);
    frame::seal(&mut buf, 0);
    buf
}

/// The format version a segment file declares, when it is long enough to
/// say. An owner about to append to an existing segment compares this with
/// [`WAL_VERSION`]: records of the current version do not belong in a
/// segment that announces an older one.
pub fn segment_version(mut bytes: &[u8]) -> Option<u8> {
    frame::open(&mut bytes, WAL_MAGIC, 0..=u8::MAX, "wal segment header").ok()
}

/// Decode a segment header, advancing the slice past it. The seal is
/// verified before the header is trusted.
///
/// # Errors
/// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
/// [`SnapshotError::ChecksumMismatch`], or truncation as a
/// [`CodecError`] (callers decide whether a truncated header is a torn
/// tail or hard corruption).
pub fn decode_segment_header(input: &mut &[u8]) -> Result<WalSegmentHeader, SnapshotError> {
    let start = *input;
    let versions = WAL_MIN_VERSION..=WAL_VERSION;
    frame::open(input, WAL_MAGIC, versions, "wal segment header")?;
    let header = WalSegmentHeader {
        shard: get_varint(input, "wal shard")?,
        segment: get_varint(input, "wal segment index")?,
        base_record_seq: get_varint(input, "wal base record seq")?,
        base_checkpoint_seq: get_varint(input, "wal base checkpoint seq")?,
    };
    frame::check_seal(start, input, "wal segment header")?;
    Ok(header)
}

/// Frame `body` as one record: `[varint len][body][seal over both]`.
fn frame_record(body: &[u8], buf: &mut Vec<u8>) {
    let start = buf.len();
    frame::put_bytes(buf, body);
    frame::seal(buf, start);
}

/// Append one events record (kind 0) for `events` with sequence number
/// `seq`: one entry per occurrence. Kept for logs and tools that predate
/// [`encode_runs`]; replay reads both for ever.
pub fn encode_ingest<K: SnapshotKey>(seq: u64, events: &[(K, StreamEvent)], buf: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(16 + events.len() * 6);
    put_u8(&mut body, KIND_EVENTS);
    put_varint(&mut body, seq);
    put_varint(&mut body, events.len() as u64);
    for (key, event) in events {
        key.encode_key(&mut body);
        put_varint(&mut body, event.item);
        put_varint(&mut body, event.ts);
    }
    frame_record(&body, buf);
}

/// Append one runs record (kind 2) for `runs` with sequence number `seq`:
/// one `(key, event, weight)` entry per run, in arrival order. `body` is
/// scratch the caller keeps between appends (cleared here), so a steady
/// writer allocates nothing per record.
pub fn encode_runs<K: SnapshotKey>(
    seq: u64,
    runs: &[(K, StreamEvent, u64)],
    body: &mut Vec<u8>,
    buf: &mut Vec<u8>,
) {
    body.clear();
    put_u8(body, KIND_RUNS);
    put_varint(body, seq);
    // Reserved (a client batch id, once ingest is exactly-once).
    put_varint(body, 0);
    for (key, event, weight) in runs {
        key.encode_key(body);
        put_varint(body, event.item);
        put_varint(body, event.ts);
        put_varint(body, *weight);
    }
    frame_record(body, buf);
}

/// Append one checkpoint marker chaining to `checkpoint_seq`.
pub fn encode_checkpoint(seq: u64, checkpoint_seq: u64, buf: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(8);
    put_u8(&mut body, KIND_CHECKPOINT);
    put_varint(&mut body, seq);
    put_varint(&mut body, checkpoint_seq);
    frame_record(&body, buf);
}

/// What one record body says besides its ingest entries.
struct RecordHead {
    seq: u64,
    /// `Some` for a checkpoint marker.
    checkpoint_seq: Option<u64>,
}

/// Decode one checksum-verified record body in full. The entries of an
/// ingest record (either kind; an events entry is a run of weight 1)
/// replace the contents of `runs`; a marker leaves it empty.
fn decode_body<K: SnapshotKey>(
    mut input: &[u8],
    runs: &mut Vec<(K, StreamEvent, u64)>,
) -> Result<RecordHead, SnapshotError> {
    runs.clear();
    let input = &mut input;
    let kind = get_u8(input, "wal record kind")?;
    let seq = get_varint(input, "wal record seq")?;
    let mut entry = |input: &mut &[u8], weighted: bool| -> Result<(), SnapshotError> {
        let key = K::decode_key(input)?;
        let item = get_varint(input, "wal event item")?;
        let ts = get_varint(input, "wal event ts")?;
        let weight = if weighted {
            get_varint(input, "wal run weight")?
        } else {
            1
        };
        runs.push((key, StreamEvent::new(item, ts), weight));
        Ok(())
    };
    let mut checkpoint_seq = None;
    match kind {
        KIND_EVENTS => {
            // The count is checksummed but sizes nothing up front: the
            // vector grows with the entries actually present.
            for _ in 0..get_varint(input, "wal run length")? {
                entry(input, false)?;
            }
        }
        KIND_RUNS => {
            get_varint(input, "wal reserved")?;
            while !input.is_empty() {
                entry(input, true)?;
            }
        }
        KIND_CHECKPOINT => checkpoint_seq = Some(get_varint(input, "wal checkpoint seq")?),
        _ => return Err(corrupt("wal record kind")),
    }
    if !input.is_empty() {
        return Err(SnapshotError::TrailingBytes { count: input.len() });
    }
    Ok(RecordHead {
        seq,
        checkpoint_seq,
    })
}

/// One segment file handed to [`replay`]: its chain index (parsed from the
/// file name) and its full contents.
#[derive(Debug, Clone, Copy)]
pub struct WalSegment<'a> {
    /// The segment's index in the chain.
    pub index: u64,
    /// The segment file's bytes.
    pub bytes: &'a [u8],
}

/// The next thing in a segment's record area.
enum Frame<'a> {
    /// A complete record whose checksum holds: its body.
    Record(&'a [u8]),
    /// The bytes end inside a record — an interrupted write.
    Torn,
    /// The bytes end cleanly.
    End,
}

/// Take one length-framed record off the front of `input`, verifying its
/// seal. `input` advances only past a complete record.
///
/// # Errors
/// A checksum mismatch over *complete* bytes. Truncation is
/// [`Frame::Torn`], not an error — the caller knows whether this segment
/// is allowed a torn tail.
fn next_frame<'a>(input: &mut &'a [u8]) -> Result<Frame<'a>, SnapshotError> {
    if input.is_empty() {
        return Ok(Frame::End);
    }
    let mut rest = *input;
    // A length the bytes cannot hold — cut, or a corrupt varint claiming
    // up to u64::MAX — is indistinguishable from an interrupted write.
    let body = match frame::take_bytes(&mut rest, "wal record") {
        Ok(body) if rest.len() >= 8 => body,
        Ok(_) | Err(CodecError::Truncated { .. }) => return Ok(Frame::Torn),
        Err(e) => return Err(e.into()),
    };
    frame::check_seal(input, &mut rest, "wal record")?;
    *input = rest;
    Ok(Frame::Record(body))
}

/// What [`replay`] did, and what it learned about the log's tail — the
/// owner uses `last_segment_valid_len` / `torn_tail` to truncate the
/// interrupted write before appending again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segments scanned.
    pub segments: usize,
    /// Complete records decoded across all segments.
    pub records: u64,
    /// Ingest records re-applied to the store (those after the chain
    /// marker).
    pub applied_records: u64,
    /// Event occurrences re-applied.
    pub applied_events: u64,
    /// Sequence number of the last complete record (0 when the log holds
    /// none); the owner continues appending from here.
    pub last_seq: u64,
    /// Whether the final segment ended inside an interrupted write.
    pub torn_tail: bool,
    /// Byte length of the final segment's valid prefix (0 when even its
    /// header was torn, in which case the file holds nothing worth
    /// keeping).
    pub last_segment_valid_len: usize,
}

/// Replay a shard's log into its restored store: find the last checkpoint
/// marker matching `store.checkpoint_seq()` and re-apply every ingest
/// record after it, in log order. Markers after the chain point — cut for
/// checkpoints that never landed on disk — are skipped.
///
/// `segments` must be the shard's segment files in ascending index order
/// (the caller lists and reads them; this layer stays I/O-free). The log
/// is walked twice — verify everything and find the marker, then decode
/// and apply one record at a time — so memory above the store is one
/// decoded record however long the log is, and `store` is untouched when
/// an error is returned.
///
/// # Errors
/// * [`SnapshotError::SpecMismatch`] — a segment belongs to a different
///   shard, or its header disagrees with its file name / chain position.
/// * [`SnapshotError::SequenceMismatch`] — a gap in record sequence
///   numbers, or no marker matches the store's checkpoint (the log does
///   not continue this store).
/// * Hard corruption: bad magic, unsupported version, a checksum mismatch
///   over *complete* bytes, a malformed checksum-valid body. A torn tail
///   in a non-final segment is corruption (rotation only happens after a
///   complete write), a torn tail in the final segment is the interrupted
///   last write and is silently dropped.
pub fn replay<K>(
    store: &mut SketchStore<K>,
    shard: u64,
    segments: &[WalSegment<'_>],
) -> Result<ReplayReport, SnapshotError>
where
    K: Eq + Hash + Ord + Clone + SnapshotKey,
{
    let target = store.checkpoint_seq();
    let mut report = ReplayReport {
        segments: segments.len(),
        records: 0,
        applied_records: 0,
        applied_events: 0,
        last_seq: 0,
        torn_tail: false,
        last_segment_valid_len: 0,
    };
    // The one decoded record either pass holds.
    let mut runs: Vec<(K, StreamEvent, u64)> = Vec::new();

    // Pass 1: verify the whole log; remember where the records after the
    // chain marker start, and the last marker seen for the error message.
    let mut chain: Option<(usize, &[u8])> = None;
    let mut last_marker: Option<u64> = None;
    let mut expected_seq: Option<u64> = None;
    let mut prev_index: Option<u64> = None;
    for (pos, segment) in segments.iter().enumerate() {
        let last = pos + 1 == segments.len();
        let mut input = segment.bytes;
        let header = match decode_segment_header(&mut input) {
            Ok(h) => h,
            Err(SnapshotError::Codec(CodecError::Truncated { .. })) if last => {
                // The file ends inside its own header: the interrupted
                // first write of a rotation; it carries nothing.
                report.torn_tail = true;
                continue;
            }
            Err(SnapshotError::Codec(CodecError::Truncated { .. })) => {
                return Err(corrupt("wal torn segment before the log tail"));
            }
            Err(e) => return Err(e),
        };
        if header.shard != shard {
            return Err(SnapshotError::SpecMismatch {
                detail: format!(
                    "wal segment belongs to shard {}, expected shard {shard}",
                    header.shard
                ),
            });
        }
        if header.segment != segment.index {
            return Err(SnapshotError::SpecMismatch {
                detail: format!(
                    "wal segment header says index {}, file name says {}",
                    header.segment, segment.index
                ),
            });
        }
        if let Some(prev) = prev_index {
            if header.segment != prev + 1 {
                return Err(SnapshotError::SpecMismatch {
                    detail: format!("wal segment chain gap: {} follows {prev}", header.segment),
                });
            }
        }
        prev_index = Some(header.segment);
        // The oldest surviving segment declares its own base; every later
        // one must continue exactly where its predecessor stopped.
        let mut expected = match expected_seq {
            None => header.base_record_seq,
            Some(e) if header.base_record_seq != e => {
                return Err(SnapshotError::SequenceMismatch {
                    expected: e,
                    found: header.base_record_seq,
                });
            }
            Some(e) => e,
        };
        loop {
            match next_frame(&mut input)? {
                Frame::End => break,
                Frame::Torn if last => {
                    report.torn_tail = true;
                    break;
                }
                Frame::Torn => return Err(corrupt("wal torn segment before the log tail")),
                Frame::Record(body) => {
                    let head = decode_body(body, &mut runs)?;
                    if head.seq != expected + 1 {
                        return Err(SnapshotError::SequenceMismatch {
                            expected: expected + 1,
                            found: head.seq,
                        });
                    }
                    expected = head.seq;
                    report.records += 1;
                    if let Some(seq) = head.checkpoint_seq {
                        last_marker = Some(seq);
                        if seq == target {
                            chain = Some((pos, input));
                        }
                    }
                }
            }
        }
        if last {
            report.last_segment_valid_len = segment.bytes.len() - input.len();
        }
        expected_seq = Some(expected);
        report.last_seq = expected;
    }
    if report.records == 0 {
        report.last_seq = 0;
        return Ok(report);
    }
    let Some((chain_pos, chain_rest)) = chain else {
        return Err(SnapshotError::SequenceMismatch {
            expected: target,
            found: last_marker.unwrap_or(0),
        });
    };

    // Pass 2: from the chain marker on, decode one record, apply it, drop
    // it. Pass 1 accepted every one of these bytes, so only `Record` and
    // the tail it already reported can come back.
    for (pos, segment) in segments.iter().enumerate().skip(chain_pos) {
        let mut input = if pos == chain_pos {
            chain_rest
        } else {
            let mut input = segment.bytes;
            if decode_segment_header(&mut input).is_err() {
                break; // the header-torn final segment
            }
            input
        };
        while let Frame::Record(body) = next_frame(&mut input)? {
            if decode_body(body, &mut runs)?.checkpoint_seq.is_none() {
                store.ingest_runs(&runs);
                report.applied_records += 1;
                report.applied_events += runs.iter().map(|(_, _, n)| n).sum::<u64>();
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SketchSpec;
    use crate::query::{Query, WindowSpec};

    fn spec() -> SketchSpec {
        SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(3)
    }

    fn batch(tag: u64, base_ts: u64) -> Vec<(u64, StreamEvent)> {
        (0..40)
            .map(|i| (tag % 3, StreamEvent::new((tag + i) % 7, base_ts + i)))
            .collect()
    }

    /// A log as a live shard writes it: one segment, genesis marker first.
    fn small_log(batches: &[Vec<(u64, StreamEvent)>]) -> Vec<u8> {
        let mut bytes = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut bytes);
        for (i, b) in batches.iter().enumerate() {
            encode_ingest(2 + i as u64, b, &mut bytes);
        }
        bytes
    }

    fn arrivals(store: &SketchStore<u64>, key: u64) -> u64 {
        store
            .query(
                &key,
                &Query::total_arrivals(),
                WindowSpec::time(200, 10_000),
            )
            .map_or(0, |r| r.unwrap().into_value().value as u64)
    }

    #[test]
    fn header_round_trips_and_rejects_tampering() {
        let h = WalSegmentHeader {
            shard: 7,
            segment: 42,
            base_record_seq: 99,
            base_checkpoint_seq: 3,
        };
        let bytes = encode_segment_header(&h);
        let mut input = bytes.as_slice();
        assert_eq!(decode_segment_header(&mut input).unwrap(), h);
        assert!(input.is_empty());

        // Magic and version are the robustness suite's
        // (`tests/frame_robustness.rs`); a field under the seal is this one's.
        let mut bad = bytes.clone();
        bad[4] ^= 0x10;
        assert!(matches!(
            decode_segment_header(&mut bad.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn replay_reapplies_records_after_the_chain_marker() {
        let batches = [batch(1, 1), batch(2, 50), batch(4, 100)];
        let mut live = SketchStore::<u64>::new(spec()).unwrap();
        for b in &batches {
            live.ingest(b);
        }
        let bytes = small_log(&batches);
        let mut restored = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut restored,
            0,
            &[WalSegment {
                index: 1,
                bytes: &bytes,
            }],
        )
        .unwrap();
        assert_eq!(report.applied_records, 3);
        assert_eq!(report.applied_events, 120);
        assert_eq!(report.last_seq, 4);
        assert!(!report.torn_tail);
        assert_eq!(report.last_segment_valid_len, bytes.len());
        for key in 0..3 {
            assert_eq!(arrivals(&live, key), arrivals(&restored, key), "key {key}");
        }
    }

    #[test]
    fn markers_for_unlanded_checkpoints_are_skipped() {
        // Log: marker(0), b1, marker(1) [checkpoint 1 never landed], b2.
        let b1 = batch(1, 1);
        let b2 = batch(2, 50);
        let mut bytes = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut bytes);
        encode_ingest(2, &b1, &mut bytes);
        encode_checkpoint(3, 1, &mut bytes);
        encode_ingest(4, &b2, &mut bytes);

        let mut live = SketchStore::<u64>::new(spec()).unwrap();
        live.ingest(&b1);
        live.ingest(&b2);
        let mut restored = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut restored,
            0,
            &[WalSegment {
                index: 1,
                bytes: &bytes,
            }],
        )
        .unwrap();
        // Both ingest records replay: the store is at checkpoint 0, so the
        // chain point is marker(0), not the unlanded marker(1).
        assert_eq!(report.applied_records, 2);
        for key in 0..3 {
            assert_eq!(arrivals(&live, key), arrivals(&restored, key), "key {key}");
        }
    }

    #[test]
    fn replay_spans_segments_and_rejects_chain_gaps() {
        let b1 = batch(1, 1);
        let b2 = batch(2, 50);
        let mut seg1 = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut seg1);
        encode_ingest(2, &b1, &mut seg1);
        let mut seg2 = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 2,
            base_record_seq: 2,
            base_checkpoint_seq: 0,
        });
        encode_ingest(3, &b2, &mut seg2);

        let mut restored = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut restored,
            0,
            &[
                WalSegment {
                    index: 1,
                    bytes: &seg1,
                },
                WalSegment {
                    index: 2,
                    bytes: &seg2,
                },
            ],
        )
        .unwrap();
        assert_eq!(report.applied_records, 2);
        assert_eq!(report.last_seq, 3);

        // A missing middle segment is a chain gap, not a silent skip.
        let mut seg3 = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 3,
            base_record_seq: 3,
            base_checkpoint_seq: 0,
        });
        encode_ingest(4, &b1, &mut seg3);
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        assert!(matches!(
            replay(
                &mut fresh,
                0,
                &[
                    WalSegment {
                        index: 1,
                        bytes: &seg1,
                    },
                    WalSegment {
                        index: 3,
                        bytes: &seg3,
                    },
                ],
            ),
            Err(SnapshotError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn wrong_shard_and_missing_chain_marker_are_typed() {
        let bytes = small_log(&[batch(1, 1)]);
        let seg = [WalSegment {
            index: 1,
            bytes: &bytes,
        }];
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        assert!(matches!(
            replay(&mut fresh, 5, &seg),
            Err(SnapshotError::SpecMismatch { .. })
        ));
        // A store claiming checkpoint 9 finds no marker(9) in this log.
        let mut live = SketchStore::<u64>::new(spec()).unwrap();
        live.ingest(&batch(1, 1));
        for _ in 0..9 {
            live.write_snapshot().unwrap();
        }
        assert!(matches!(
            replay(&mut live, 0, &seg),
            Err(SnapshotError::SequenceMismatch {
                expected: 9,
                found: 0
            })
        ));
    }

    #[test]
    fn runs_records_replay_as_the_events_they_stand_for() {
        // One batch logged as events, the next as runs (with the reserved
        // field already in use, as a later writer might): the store lands
        // where the per-occurrence feed does.
        let runs: Vec<(u64, StreamEvent, u64)> = (0..30)
            .map(|i| (i % 3, StreamEvent::new(i % 5, 60 + i / 4), 1 + i % 7))
            .collect();
        let events: Vec<(u64, StreamEvent)> = runs
            .iter()
            .flat_map(|&(k, e, n)| (0..n).map(move |_| (k, e)))
            .collect();
        let mut live = SketchStore::<u64>::new(spec()).unwrap();
        live.ingest(&batch(1, 1));
        live.ingest(&events);

        let mut bytes = small_log(&[batch(1, 1)]);
        let mut body = Vec::new();
        put_u8(&mut body, KIND_RUNS);
        put_varint(&mut body, 3);
        put_varint(&mut body, 0xFEED);
        for (key, event, weight) in &runs {
            key.encode_key(&mut body);
            put_varint(&mut body, event.item);
            put_varint(&mut body, event.ts);
            put_varint(&mut body, *weight);
        }
        frame_record(&body, &mut bytes);
        let mut same = small_log(&[batch(1, 1)]);
        encode_runs(3, &runs, &mut Vec::new(), &mut same);
        assert_eq!(same.len() + 2, bytes.len(), "reserved is one 0 byte");

        for log in [&bytes, &same] {
            let mut restored = SketchStore::<u64>::new(spec()).unwrap();
            let report = replay(
                &mut restored,
                0,
                &[WalSegment {
                    index: 1,
                    bytes: log,
                }],
            )
            .unwrap();
            assert_eq!(report.applied_records, 2);
            assert_eq!(report.applied_events, 40 + events.len() as u64);
            assert_eq!(
                live.clone().write_snapshot().unwrap(),
                restored.write_snapshot().unwrap()
            );
        }
    }

    #[test]
    fn version_1_segments_are_read_and_are_told_apart() {
        let mut bytes = small_log(&[batch(1, 1)]);
        assert_eq!(segment_version(&bytes), Some(WAL_VERSION));
        assert_eq!(segment_version(&bytes[..2]), None);
        assert_eq!(segment_version(b"XX\x01"), None);
        // Re-stamp the header as a version-1 writer would have.
        let covered = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        })
        .len()
            - 8;
        bytes[2] = 1;
        let sum = frame::fnv1a(&bytes[..covered]);
        bytes[covered..covered + 8].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(segment_version(&bytes), Some(1));
        let mut restored = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut restored,
            0,
            &[WalSegment {
                index: 1,
                bytes: &bytes,
            }],
        )
        .unwrap();
        assert_eq!(report.applied_events, 40);
    }

    #[test]
    fn a_hard_error_late_in_the_log_leaves_the_store_untouched() {
        // Two good records, then (a) a sequence gap, (b) a record whose
        // checksum holds over a body that does not parse. Both are found
        // by the verifying pass: nothing of the good records is applied.
        let mut gap = small_log(&[batch(1, 1), batch(2, 50)]);
        encode_runs(
            9,
            &[(0u64, StreamEvent::new(1, 90), 4)],
            &mut Vec::new(),
            &mut gap,
        );
        let mut malformed = small_log(&[batch(1, 1), batch(2, 50)]);
        frame_record(&[KIND_RUNS, 4, 0, 7], &mut malformed);
        for (log, what) in [(&gap, "gap"), (&malformed, "malformed body")] {
            let mut store = SketchStore::<u64>::new(spec()).unwrap();
            let outcome = replay(
                &mut store,
                0,
                &[WalSegment {
                    index: 1,
                    bytes: log,
                }],
            );
            assert!(outcome.is_err(), "{what}");
            assert!(store.is_empty(), "{what}: applied before the error");
        }
    }

    #[test]
    fn record_seq_gaps_are_rejected() {
        let mut bytes = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        encode_checkpoint(1, 0, &mut bytes);
        encode_ingest(3, &batch(1, 1), &mut bytes); // gap: 2 is missing
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        assert!(matches!(
            replay(
                &mut fresh,
                0,
                &[WalSegment {
                    index: 1,
                    bytes: &bytes,
                }],
            ),
            Err(SnapshotError::SequenceMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn torn_tail_drops_the_last_record_only() {
        let batches = [batch(1, 1), batch(2, 50)];
        let full = small_log(&batches);
        let one = small_log(&batches[..1]);
        // Cut inside the second ingest record: replay applies the first
        // and reports the valid prefix for truncation.
        let cut = &full[..one.len() + 10];
        let mut restored = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut restored,
            0,
            &[WalSegment {
                index: 1,
                bytes: cut,
            }],
        )
        .unwrap();
        assert_eq!(report.applied_records, 1);
        assert!(report.torn_tail);
        assert_eq!(report.last_segment_valid_len, one.len());

        // But a torn segment *before* the tail is hard corruption.
        let mut seg2 = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 2,
            base_record_seq: 3,
            base_checkpoint_seq: 0,
        });
        encode_ingest(4, &batches[0], &mut seg2);
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        assert!(replay(
            &mut fresh,
            0,
            &[
                WalSegment {
                    index: 1,
                    bytes: cut,
                },
                WalSegment {
                    index: 2,
                    bytes: &seg2,
                },
            ],
        )
        .is_err());
    }

    #[test]
    fn absurd_record_length_is_torn_not_a_panic() {
        // A length varint claiming u64::MAX bytes: `len + 8` must not wrap
        // into a passing bounds check (release) or panic (debug) — the
        // frame is indistinguishable from a torn tail and drops as one.
        let header = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        let mut bytes = header.clone();
        put_varint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[0xAB; 16]);
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(
            &mut fresh,
            0,
            &[WalSegment {
                index: 1,
                bytes: &bytes,
            }],
        )
        .unwrap();
        assert_eq!(report.records, 0);
        assert!(report.torn_tail);
        assert_eq!(report.last_segment_valid_len, header.len());
    }

    #[test]
    fn empty_log_and_header_only_segment_replay_to_nothing() {
        let mut fresh = SketchStore::<u64>::new(spec()).unwrap();
        let report = replay(&mut fresh, 0, &[]).unwrap();
        assert_eq!(report.records, 0);
        let header = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: 0,
        });
        let report = replay(
            &mut fresh,
            0,
            &[WalSegment {
                index: 1,
                bytes: &header,
            }],
        )
        .unwrap();
        assert_eq!(report.records, 0);
        assert!(!report.torn_tail);
        assert_eq!(report.last_segment_valid_len, header.len());
    }
}
