//! One robustness suite for every framed on-disk format (`ecm::frame`):
//! the single-sketch record (`"ES"`), the fleet snapshot (`"EF"`) and a
//! write-ahead-log segment (`"EL"`) holding runs and marker
//! records. Each producer's bytes are damaged the same ways — magic,
//! version, truncation at every offset, every single-bit flip at every byte
//! — and the decoder must answer with a typed error, never a panic and
//! never a silently different value. The one exception is the log's
//! *final* segment, whose damage may instead read as a torn tail: a clean
//! prefix that applies no more than was acked.

use ecm::wal::{encode_checkpoint, encode_runs, encode_segment_header, replay};
use ecm::wal::{WalSegment, WalSegmentHeader};
use ecm::{restore_any, SketchSpec, SketchStore, SnapshotError, StreamEvent};

type Decode = Box<dyn Fn(&[u8]) -> Result<u64, SnapshotError>>;

/// One framed format under test.
struct Producer {
    name: &'static str,
    bytes: Vec<u8>,
    /// Decode `bytes`; `Ok` carries the event occurrences a log replay
    /// applied (0 for snapshots).
    decode: Decode,
    /// `Some(acked)` when damaged bytes may decode as a clean prefix that
    /// applies at most `acked` occurrences; `None` when they must fail.
    clean_prefix: Option<u64>,
}

fn spec() -> SketchSpec {
    SketchSpec::time(1_000).epsilon(0.25).delta(0.25).seed(5)
}

fn runs(key: &str, ts: u64) -> Vec<(String, StreamEvent, u64)> {
    (0..6)
        .map(|i| {
            (
                key.to_string(),
                StreamEvent::new(i % 4, ts + i / 2),
                1 + i % 3,
            )
        })
        .collect()
}

fn header(segment: u64, base_record_seq: u64) -> Vec<u8> {
    encode_segment_header(&WalSegmentHeader {
        shard: 0,
        segment,
        base_record_seq,
        base_checkpoint_seq: 0,
    })
}

fn replay_into_fresh(segments: &[&[u8]]) -> Result<u64, SnapshotError> {
    let segments: Vec<WalSegment<'_>> = (1..)
        .zip(segments)
        .map(|(index, bytes)| WalSegment { index, bytes })
        .collect();
    let mut store = SketchStore::<String>::new(spec()).unwrap();
    replay(&mut store, 0, &segments).map(|r| r.applied_events)
}

fn producers() -> Vec<Producer> {
    let mut sketch = spec().build().unwrap();
    for t in 1..=300u64 {
        sketch.insert(t, t % 7);
    }
    let record = spec().snapshot(&*sketch).unwrap();

    // Three keys, checkpointed.
    let mut store = SketchStore::new(spec()).unwrap();
    for t in 1..=60u64 {
        store.insert(["a", "b", "c"][t as usize % 3].to_string(), t, t % 5);
    }
    let full = store.write_snapshot().unwrap();

    // A segment as a shard writes it: the genesis marker, runs, a marker
    // for a checkpoint that never landed, more runs.
    let (first, second) = (runs("a", 10), runs("b", 20));
    let mut body = Vec::new();
    let mut segment = header(1, 0);
    encode_checkpoint(1, 0, &mut segment);
    encode_runs(2, &first, &mut body, &mut segment);
    encode_checkpoint(3, 1, &mut segment);
    encode_runs(4, &second, &mut body, &mut segment);
    let acked = first.iter().chain(&second).map(|(_, _, n)| n).sum();
    let mut next = header(2, 4);
    encode_runs(5, &runs("c", 30), &mut body, &mut next);

    vec![
        Producer {
            name: "ES record",
            bytes: record,
            decode: Box::new(|b| restore_any(b).map(|_| 0)),
            clean_prefix: None,
        },
        Producer {
            name: "EF full",
            bytes: full,
            decode: Box::new(|b| SketchStore::<String>::load_snapshot(b).map(|_| 0)),
            clean_prefix: None,
        },
        Producer {
            name: "EL sealed segment",
            bytes: segment.clone(),
            decode: Box::new(move |b| replay_into_fresh(&[b, &next])),
            clean_prefix: None,
        },
        Producer {
            name: "EL final segment",
            bytes: segment,
            decode: Box::new(|b| replay_into_fresh(&[b])),
            clean_prefix: Some(acked),
        },
    ]
}

/// `bad` decodes to a typed error, or — where the format allows one — to a
/// clean prefix.
fn rejected(p: &Producer, bad: &[u8], what: &str) {
    match ((p.decode)(bad), p.clean_prefix) {
        (Err(_), _) => {}
        (Ok(applied), Some(acked)) => {
            assert!(
                applied <= acked,
                "{}, {what}: applied {applied} > {acked}",
                p.name
            );
        }
        (Ok(_), None) => panic!("{}, {what}: damaged bytes decoded", p.name),
    }
}

#[test]
fn every_framed_format_rejects_damage_typed() {
    for p in producers() {
        let whole = (p.decode)(&p.bytes);
        assert!(whole.is_ok(), "{}: {whole:?}", p.name);
        if let Some(acked) = p.clean_prefix {
            assert_eq!(whole.unwrap(), acked, "{}", p.name);
        }

        let mut bad = p.bytes.clone();
        bad[0] ^= 0x20;
        let magic = (p.decode)(&bad);
        assert!(
            matches!(magic, Err(SnapshotError::BadMagic)),
            "{}: {magic:?}",
            p.name
        );
        let mut bad = p.bytes.clone();
        bad[2] = 0xfe;
        let version = (p.decode)(&bad);
        assert!(
            matches!(
                version,
                Err(SnapshotError::UnsupportedVersion { found: 0xfe })
            ),
            "{}: {version:?}",
            p.name
        );

        for cut in 0..p.bytes.len() {
            rejected(&p, &p.bytes[..cut], &format!("cut at {cut}"));
        }
        for at in 0..p.bytes.len() {
            for bit in 0..8 {
                let mut bad = p.bytes.clone();
                bad[at] ^= 1 << bit;
                rejected(&p, &bad, &format!("bit {bit} of byte {at} flipped"));
            }
        }
    }
}
