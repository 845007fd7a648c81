//! Versioned snapshot & recovery for every sketch backend (and, via
//! [`SketchStore`](crate::store::SketchStore), whole keyed fleets).
//!
//! The paper's setting is *continuous* monitoring: sites run for weeks and
//! a crash must not cost the sliding-window state the guarantees were paid
//! for. This module turns the workspace's byte-accurate wire codec into a
//! durable, self-describing snapshot format:
//!
//! ```text
//! ┌───────┬─────────┬─────────────┬─────────────┬─────────────┬─────────┬──────────┐
//! │ magic │ version │ spec header │ write clock │ payload len │ payload │ checksum │
//! │ "ES"  │   u8    │ (SketchSpec)│   varint    │   varint    │  bytes  │ u64 FNV  │
//! └───────┴─────────┴─────────────┴─────────────┴─────────────┴─────────┴──────────┘
//! ```
//!
//! Magic, version, payload length and checksum follow the shared rules of
//! [`frame`]; the seal is checked before the payload is decoded.
//!
//! * **Self-describing**: the header carries the full [`SketchSpec`], so
//!   [`restore_any`] rebuilds a sketch with zero prior configuration, and
//!   [`SketchSpec::restore`] additionally *verifies* the snapshot matches
//!   the spec the caller expects.
//! * **Bit-exact**: the payload is the backend's full mutable state
//!   (including arrival-id namespaces and sequence counters), so a restored
//!   sketch answers every query bit-identically, re-encodes byte-identically
//!   and — crucially for the distributed setting — keeps ingesting with the
//!   *same* arrival ids a never-crashed sketch would have assigned.
//!
//! Truncated, corrupted or version-bumped snapshot bytes always surface as
//! [`SnapshotError`]s; no input panics the decoder
//! (`crates/ecm/tests/frame_robustness.rs`, `tests/snapshot_recovery.rs`).
//!
//! # Example
//!
//! ```
//! use ecm::api::{SketchSpec, SketchWriter};
//! use ecm::query::{Query, SketchReader, WindowSpec};
//!
//! let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(7);
//! let mut sketch = spec.build().unwrap();
//! for t in 1..=600u64 {
//!     sketch.insert(t, t % 3);
//! }
//! let bytes = spec.snapshot(&*sketch).unwrap();
//!
//! // ... crash, restart ...
//! let restored = spec.restore(&bytes).unwrap();
//! let w = WindowSpec::time(600, 1_000);
//! let a = sketch.query(&Query::point(2), w).unwrap().into_value().value;
//! let b = restored.query(&Query::point(2), w).unwrap().into_value().value;
//! assert_eq!(a.to_bits(), b.to_bits());
//!
//! // Corruption is a typed error, not a panic or a wrong answer.
//! let mut bad = bytes.clone();
//! *bad.last_mut().unwrap() ^= 0xff;
//! assert!(spec.restore(&bad).is_err());
//! ```

use std::fmt;

use crate::api::{Backend, Clock, Sketch, SketchSpec, SpecBackend, SpecError};
use crate::config::QueryKind;
use crate::frame::{self, corrupt};
use crate::hierarchy::EcmHierarchy;
use crate::sketch::EcmSketch;
use sliding_window::codec::{
    get_f64, get_u64, get_u8, get_varint, put_f64, put_u64, put_u8, put_varint,
};
use sliding_window::{
    CodecError, DeterministicWave, ExactWindow, ExponentialHistogram, RandomizedWave,
};

/// Current snapshot format version. Bump on any layout change; older
/// readers reject newer snapshots with
/// [`SnapshotError::UnsupportedVersion`] instead of misparsing them.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Leading magic of every snapshot record ("ECM Sketch").
pub(crate) const MAGIC: [u8; 2] = *b"ES";

/// Version byte of a count-clock payload's `[version, arrivals]` prefix.
const COUNT_PAYLOAD_VERSION: u8 = 1;

/// Why a snapshot could not be written or restored. Every failure mode of
/// the durability path is typed — decoders never panic on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The payload or framing bytes failed to decode.
    Codec(CodecError),
    /// The embedded spec (or the spec the caller supplied) is invalid.
    Spec(SpecError),
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The record's checksum does not cover its bytes — bit rot or
    /// truncation-with-padding.
    ChecksumMismatch {
        /// What was being verified.
        context: &'static str,
    },
    /// The snapshot describes a different sketch than the caller expects
    /// (spec disagreement, or a trait object that is not what the spec
    /// builds).
    SpecMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The header's write clock disagrees with the decoded payload's.
    ClockMismatch {
        /// Clock recorded in the header.
        header: u64,
        /// Clock carried by the decoded payload.
        payload: u64,
    },
    /// A write-ahead-log segment or record is out of sequence, or the log
    /// holds no marker for the checkpoint it must replay onto.
    SequenceMismatch {
        /// The sequence number the reader required.
        expected: u64,
        /// The sequence number it found.
        found: u64,
    },
    /// A fleet snapshot field holds a value that only a retired writer
    /// produced: an incremental delta's kind or tombstones, or a bounded
    /// store's capacity, eviction policy, evictions or order stamps.
    Retired {
        /// The field.
        field: &'static str,
    },
    /// Extra bytes follow a complete record.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec failure: {e}"),
            SnapshotError::Spec(e) => write!(f, "snapshot spec failure: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            SnapshotError::ChecksumMismatch { context } => {
                write!(f, "checksum mismatch over {context}")
            }
            SnapshotError::SpecMismatch { detail } => {
                write!(f, "snapshot does not match the expected spec: {detail}")
            }
            SnapshotError::ClockMismatch { header, payload } => write!(
                f,
                "snapshot header clock {header} disagrees with payload clock {payload}"
            ),
            SnapshotError::SequenceMismatch { expected, found } => {
                write!(f, "sequence mismatch: expected {expected}, found {found}")
            }
            SnapshotError::Retired { field } => write!(
                f,
                "{field} holds a value only a retired writer produced \
                 (incremental checkpoints and bounded stores are gone)"
            ),
            SnapshotError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Codec(e) => Some(e),
            SnapshotError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<SpecError> for SnapshotError {
    fn from(e: SpecError) -> Self {
        SnapshotError::Spec(e)
    }
}

/// Store keys that can ride in a fleet snapshot
/// ([`SketchStore::write_snapshot`](crate::store::SketchStore::write_snapshot)).
/// Implemented for the owned key types a persisted store can use; borrowed
/// keys (`&'static str`) have no restore path and stay snapshot-less.
pub trait SnapshotKey: Sized {
    /// Append the key's wire encoding.
    fn encode_key(&self, buf: &mut Vec<u8>);

    /// Decode a key previously produced by
    /// [`encode_key`](Self::encode_key), advancing the slice.
    ///
    /// # Errors
    /// [`CodecError`] on truncation or corruption.
    fn decode_key(input: &mut &[u8]) -> Result<Self, CodecError>;
}

impl SnapshotKey for u64 {
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }

    fn decode_key(input: &mut &[u8]) -> Result<Self, CodecError> {
        get_varint(input, "u64 key")
    }
}

impl SnapshotKey for u32 {
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }

    fn decode_key(input: &mut &[u8]) -> Result<Self, CodecError> {
        u32::try_from(get_varint(input, "u32 key")?)
            .map_err(|_| CodecError::Corrupt { context: "u32 key" })
    }
}

impl SnapshotKey for String {
    fn encode_key(&self, buf: &mut Vec<u8>) {
        frame::put_bytes(buf, self.as_bytes());
    }

    fn decode_key(input: &mut &[u8]) -> Result<Self, CodecError> {
        let bytes = frame::take_bytes(input, "string key")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt {
            context: "string key utf-8",
        })
    }
}

/// An optional varint: a 0/1 presence byte, then the value.
pub(crate) fn put_opt(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(x) => {
            put_u8(buf, 1);
            put_varint(buf, x);
        }
    }
}

pub(crate) fn get_opt(input: &mut &[u8], context: &'static str) -> Result<Option<u64>, CodecError> {
    match get_u8(input, context)? {
        0 => Ok(None),
        1 => Ok(Some(get_varint(input, context)?)),
        _ => Err(CodecError::Corrupt { context }),
    }
}

/// Format-v1 sanity bounds on what a snapshot header may describe, applied
/// symmetrically on write and read. The wire checksums guard against bit
/// rot, not adversaries; these bounds are the second layer, keeping a
/// header whose varints or float bit patterns were blown up (or crafted)
/// from driving giant derived allocations — Count-Min widths from a
/// subnormal ε, level pyramids from a 2⁶⁰ window — before the payload
/// decoders can fail cleanly. Real deployments sit orders of magnitude
/// inside every bound.
pub(crate) fn format_bounds(spec: &SketchSpec) -> Result<(), SnapshotError> {
    const MIN_ACCURACY: f64 = 1e-4;
    const MAX_HORIZON: u64 = 1 << 48;
    let fail = |detail: String| Err(SnapshotError::Spec(SpecError::InvalidParameter { detail }));
    if spec.epsilon < MIN_ACCURACY || spec.delta < MIN_ACCURACY {
        return fail(format!(
            "snapshot format bound: epsilon/delta must be >= {MIN_ACCURACY}"
        ));
    }
    if spec.window > MAX_HORIZON || spec.max_arrivals.is_some_and(|u| u > MAX_HORIZON) {
        return fail(format!(
            "snapshot format bound: window/max_arrivals must be <= 2^48, got {}",
            spec.window
        ));
    }
    Ok(())
}

/// Serialize a spec header (fixed field order; consumed by
/// [`decode_spec`]). The trailing option byte once carried a shard count;
/// it is kept, always "none", so the v1 layout does not move. Backend tags
/// 4 (the retired equi-width baseline) and 5 (the retired decayed
/// Count-Min) are never written.
pub(crate) fn encode_spec(spec: &SketchSpec, buf: &mut Vec<u8>) {
    put_u8(
        buf,
        match spec.clock {
            Clock::Time => 0,
            Clock::Count => 1,
        },
    );
    put_varint(buf, spec.window);
    put_f64(buf, spec.epsilon);
    put_f64(buf, spec.delta);
    match spec.backend {
        Backend::Eh => put_u8(buf, 0),
        Backend::Dw => put_u8(buf, 1),
        Backend::Rw => put_u8(buf, 2),
        Backend::Exact => put_u8(buf, 3),
    }
    put_u8(
        buf,
        match spec.query_kind {
            QueryKind::Point => 0,
            QueryKind::InnerProduct => 1,
        },
    );
    put_u64(buf, spec.seed);
    put_opt(buf, spec.max_arrivals);
    put_opt(buf, spec.hierarchy_bits.map(u64::from));
    put_opt(buf, None);
}

/// Parse a spec header and validate it — an embedded spec that fails
/// [`SketchSpec::validate`] is corrupt by construction (no writer produces
/// one).
pub(crate) fn decode_spec(input: &mut &[u8]) -> Result<SketchSpec, SnapshotError> {
    let clock = match get_u8(input, "spec clock")? {
        0 => Clock::Time,
        1 => Clock::Count,
        _ => return Err(corrupt("spec clock")),
    };
    let window = get_varint(input, "spec window")?;
    let epsilon = get_f64(input, "spec epsilon")?;
    let delta = get_f64(input, "spec delta")?;
    let backend = match get_u8(input, "spec backend")? {
        0 => Backend::Eh,
        1 => Backend::Dw,
        2 => Backend::Rw,
        3 => Backend::Exact,
        tag @ (4 | 5) => {
            return Err(SnapshotError::Spec(SpecError::InvalidParameter {
                detail: format!(
                    "backend tag {tag} is retired (4: equi-width, 5: decayed count-min)"
                ),
            }))
        }
        _ => return Err(corrupt("spec backend")),
    };
    let query_kind = match get_u8(input, "spec query kind")? {
        0 => QueryKind::Point,
        1 => QueryKind::InnerProduct,
        _ => return Err(corrupt("spec query kind")),
    };
    let seed = get_u64(input, "spec seed")?;
    let max_arrivals = get_opt(input, "spec max_arrivals")?;
    let hierarchy_bits = match get_opt(input, "spec hierarchy bits")? {
        None => None,
        Some(b) => Some(u32::try_from(b).map_err(|_| corrupt("spec hierarchy bits"))?),
    };
    if let Some(n) = get_opt(input, "spec shards")? {
        return Err(SnapshotError::Spec(SpecError::InvalidParameter {
            detail: format!("sharded sketches ({n} shards) are not supported"),
        }));
    }
    let spec = SketchSpec {
        clock,
        window,
        epsilon,
        delta,
        backend,
        query_kind,
        seed,
        max_arrivals,
        hierarchy_bits,
    };
    spec.validate()?;
    format_bounds(&spec)?;
    Ok(spec)
}

/// The sketch trait object as the concrete type `T`, or a
/// [`SpecMismatch`](SnapshotError::SpecMismatch) naming both sides.
fn downcast<'a, T: 'static>(
    sketch: &'a dyn Sketch,
    expected: &'static str,
) -> Result<&'a T, SnapshotError> {
    sketch
        .as_any()
        .downcast_ref::<T>()
        .ok_or_else(|| SnapshotError::SpecMismatch {
            detail: format!("the sketch is a {}, not a {expected}", sketch.backend()),
        })
}

/// Serialize the backend payload of `sketch` as described by `spec` —
/// the structural dispatch mirror of [`SketchSpec::build`].
pub(crate) fn encode_payload(
    spec: &SketchSpec,
    sketch: &dyn Sketch,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    match spec.backend {
        Backend::Eh => encode_counter_payload::<ExponentialHistogram>(spec, sketch, buf),
        Backend::Dw => encode_counter_payload::<DeterministicWave>(spec, sketch, buf),
        Backend::Rw => encode_counter_payload::<RandomizedWave>(spec, sketch, buf),
        Backend::Exact => encode_counter_payload::<ExactWindow>(spec, sketch, buf),
    }
}

fn encode_counter_payload<W>(
    spec: &SketchSpec,
    sketch: &dyn Sketch,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError>
where
    W: SpecBackend + fmt::Debug + 'static,
    W::Config: 'static,
{
    match spec.hierarchy_bits {
        None => {
            let sk = downcast::<EcmSketch<W>>(sketch, "plain sketch")?;
            put_clock(spec, sk.clock(), sk.last_tick(), buf)?;
            sk.encode(buf);
        }
        Some(_) => {
            let h = downcast::<EcmHierarchy<W>>(sketch, "hierarchy")?;
            put_clock(spec, h.clock(), h.last_tick(), buf)?;
            h.encode(buf);
        }
    }
    Ok(())
}

/// Check that a sketch runs on the spec's clock, and lead a count-clock
/// payload with its `[version, arrivals]` prefix.
fn put_clock(
    spec: &SketchSpec,
    clock: Clock,
    arrivals: u64,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    if clock != spec.clock {
        return Err(SnapshotError::SpecMismatch {
            detail: format!(
                "the sketch runs a {clock:?} clock, the spec a {:?} one",
                spec.clock
            ),
        });
    }
    if clock == Clock::Count {
        put_u8(buf, COUNT_PAYLOAD_VERSION);
        put_varint(buf, arrivals);
    }
    Ok(())
}

/// Decode one whole backend payload as described by `spec`; bytes left
/// over are [`TrailingBytes`](SnapshotError::TrailingBytes).
pub(crate) fn decode_payload(
    spec: &SketchSpec,
    mut payload: &[u8],
) -> Result<Box<dyn Sketch>, SnapshotError> {
    let input = &mut payload;
    let sketch = match spec.backend {
        Backend::Eh => decode_counter_payload::<ExponentialHistogram>(spec, input),
        Backend::Dw => decode_counter_payload::<DeterministicWave>(spec, input),
        Backend::Rw => decode_counter_payload::<RandomizedWave>(spec, input),
        Backend::Exact => decode_counter_payload::<ExactWindow>(spec, input),
    }?;
    if !payload.is_empty() {
        return Err(SnapshotError::TrailingBytes {
            count: payload.len(),
        });
    }
    Ok(sketch)
}

fn decode_counter_payload<W>(
    spec: &SketchSpec,
    input: &mut &[u8],
) -> Result<Box<dyn Sketch>, SnapshotError>
where
    W: SpecBackend + fmt::Debug + 'static,
    W::Config: 'static,
{
    let cfg = spec.ecm_config::<W>()?;
    let arrivals = match spec.clock {
        Clock::Time => None,
        Clock::Count => {
            let version = get_u8(input, "count-based version")?;
            if version != COUNT_PAYLOAD_VERSION {
                return Err(CodecError::BadVersion { found: version }.into());
            }
            Some(get_varint(input, "count-based arrivals")?)
        }
    };
    let sketch: Box<dyn Sketch> = match spec.hierarchy_bits {
        None => Box::new(EcmSketch::decode(&cfg, input)?.on_clock(spec.clock)),
        Some(bits) => Box::new(EcmHierarchy::decode(bits, &cfg, input)?.on_clock(spec.clock)),
    };
    // The count clock *is* the wrapped sketch's tick clock (one tick per
    // arrival); a payload where they diverge is corrupt.
    if arrivals.is_some_and(|a| a != sketch.write_clock()) {
        return Err(corrupt("count-based clock"));
    }
    Ok(sketch)
}

/// Restore a sketch from a snapshot **without** prior configuration: the
/// record's embedded spec describes the backend. Returns the spec alongside
/// the sketch so the caller can keep building identical peers or verify it
/// against deployment expectations. This is the one decode path of an
/// `"ES"` record; the seal is checked before the payload is decoded.
///
/// # Errors
/// Any [`SnapshotError`]; trailing bytes after the record are rejected.
pub fn restore_any(bytes: &[u8]) -> Result<(SketchSpec, Box<dyn Sketch>), SnapshotError> {
    let mut input = bytes;
    let versions = SNAPSHOT_VERSION..=SNAPSHOT_VERSION;
    frame::open(&mut input, MAGIC, versions, "snapshot header")?;
    let spec = decode_spec(&mut input)?;
    let clock = get_varint(&mut input, "snapshot clock")?;
    let payload = frame::take_bytes(&mut input, "snapshot payload")?;
    frame::check_seal(bytes, &mut input, "snapshot record")?;
    if !input.is_empty() {
        return Err(SnapshotError::TrailingBytes { count: input.len() });
    }
    let sketch = decode_payload(&spec, payload)?;
    if sketch.write_clock() != clock {
        return Err(SnapshotError::ClockMismatch {
            header: clock,
            payload: sketch.write_clock(),
        });
    }
    Ok((spec, sketch))
}

impl SketchSpec {
    /// Serialize `sketch` — which must be the backend this spec
    /// [`build`](SketchSpec::build)s — as one self-describing, checksummed
    /// snapshot record (see the [module docs](self) for the layout).
    ///
    /// # Errors
    /// Any validation error, or [`SnapshotError::SpecMismatch`] when
    /// `sketch` is not the backend this spec describes.
    pub fn snapshot(&self, sketch: &dyn Sketch) -> Result<Vec<u8>, SnapshotError> {
        self.validate()?;
        format_bounds(self)?;
        let mut payload = Vec::new();
        encode_payload(self, sketch, &mut payload)?;
        let mut buf = frame::begin(MAGIC, SNAPSHOT_VERSION);
        encode_spec(self, &mut buf);
        put_varint(&mut buf, sketch.write_clock());
        frame::put_bytes(&mut buf, &payload);
        frame::seal(&mut buf, 0);
        Ok(buf)
    }

    /// Restore a sketch from a snapshot produced by
    /// [`snapshot`](SketchSpec::snapshot), verifying that the record's
    /// embedded spec is **exactly** this spec (use [`restore_any`] to
    /// restore without prior knowledge).
    ///
    /// # Errors
    /// Any [`SnapshotError`], including
    /// [`SpecMismatch`](SnapshotError::SpecMismatch) when the embedded spec
    /// differs.
    pub fn restore(&self, bytes: &[u8]) -> Result<Box<dyn Sketch>, SnapshotError> {
        let (spec, sketch) = restore_any(bytes)?;
        if spec != *self {
            return Err(SnapshotError::SpecMismatch {
                detail: format!("snapshot spec {spec:?} differs from expected {self:?}"),
            });
        }
        Ok(sketch)
    }
}

/// Snapshot a **typed** sketch — the mergeable `EcmSketch<W>` the
/// `distributed` crate's sites hold. The record is the one
/// [`SketchSpec::snapshot`] writes for the same state, so either side can
/// restore it.
///
/// # Errors
/// Any validation error, [`SpecError::BackendMismatch`] when `W` disagrees
/// with the spec, or [`SnapshotError::SpecMismatch`] for structured specs.
pub fn snapshot_sketch<W>(
    spec: &SketchSpec,
    sketch: &EcmSketch<W>,
) -> Result<Vec<u8>, SnapshotError>
where
    W: SpecBackend + fmt::Debug + 'static,
    W::Config: 'static,
{
    spec.ecm_config::<W>()?;
    spec.snapshot(sketch)
}

/// Restore a **typed** `EcmSketch<W>` from a snapshot record — the
/// site-recovery counterpart of [`snapshot_sketch`], decoded by
/// [`SketchSpec::restore`]. The restored sketch resumes its arrival-id
/// sequence exactly where the checkpoint left it, so replaying the
/// post-checkpoint stream reproduces a never-crashed sketch bit for bit.
///
/// # Errors
/// Any [`SnapshotError`], including spec disagreement with the record and
/// [`SnapshotError::SpecMismatch`] for structured specs.
pub fn restore_sketch<W>(spec: &SketchSpec, bytes: &[u8]) -> Result<EcmSketch<W>, SnapshotError>
where
    W: SpecBackend + fmt::Debug + 'static,
    W::Config: 'static,
{
    spec.ecm_config::<W>()?;
    let sketch = spec.restore(bytes)?;
    let sketch = downcast::<EcmSketch<W>>(&*sketch, "plain time-based sketch")?;
    if sketch.clock() != Clock::Time {
        return Err(SnapshotError::SpecMismatch {
            detail: "the sketch runs the count clock, not the time clock".into(),
        });
    }
    Ok(sketch.clone())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::SketchWriter;
    use crate::query::{Query, SketchReader, WindowSpec};

    fn warm_spec_sketch() -> (SketchSpec, Box<dyn Sketch>) {
        let spec = SketchSpec::time(1_000).epsilon(0.2).delta(0.2).seed(11);
        let mut sk = spec.build().unwrap();
        for t in 1..=400u64 {
            sk.insert(t, t % 13);
        }
        (spec, sk)
    }

    #[test]
    fn spec_header_round_trips_every_axis() {
        let specs = [
            SketchSpec::time(1_000),
            SketchSpec::time(1_000).backend(Backend::Dw).seed(u64::MAX),
            SketchSpec::time(7)
                .backend(Backend::Rw)
                .epsilon(0.25)
                .max_arrivals(5_000),
            SketchSpec::time(1_000).backend(Backend::Exact),
            SketchSpec::time(1_000).hierarchy(9),
            SketchSpec::count(64).epsilon(0.05),
            SketchSpec::count(64)
                .hierarchy(8)
                .query_kind(QueryKind::InnerProduct),
        ];
        for spec in specs {
            let mut buf = Vec::new();
            encode_spec(&spec, &mut buf);
            let mut slice = buf.as_slice();
            let back = decode_spec(&mut slice).unwrap();
            assert!(slice.is_empty());
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn embedded_specs_that_fail_validation_are_rejected() {
        // A zero-window spec can only appear via corruption. Window 1
        // encodes as the single byte 0x01 right after the clock tag, so
        // zeroing it keeps every later field aligned.
        let mut buf = Vec::new();
        encode_spec(&SketchSpec::time(1), &mut buf);
        assert_eq!(buf[1], 1);
        buf[1] = 0;
        let mut slice = buf.as_slice();
        assert!(matches!(
            decode_spec(&mut slice),
            Err(SnapshotError::Spec(SpecError::ZeroWindow))
        ));
    }

    #[test]
    fn restore_any_is_self_describing() {
        let (spec, sk) = warm_spec_sketch();
        let bytes = spec.snapshot(&*sk).unwrap();
        let (embedded, restored) = restore_any(&bytes).unwrap();
        assert_eq!(embedded, spec);
        let w = WindowSpec::time(400, 1_000);
        for item in 0..13u64 {
            let a = sk.query(&Query::point(item), w).unwrap().into_value().value;
            let b = restored
                .query(&Query::point(item), w)
                .unwrap()
                .into_value()
                .value;
            assert_eq!(a.to_bits(), b.to_bits(), "item {item}");
        }
    }

    #[test]
    fn snapshot_rejects_a_sketch_from_a_different_spec() {
        let (spec, sk) = warm_spec_sketch();
        let other = SketchSpec::time(1_000)
            .backend(Backend::Dw)
            .build()
            .unwrap();
        // Another backend, or the same sketch type on the other clock.
        let count = SketchSpec::count(1_000).epsilon(0.2).delta(0.2).seed(11);
        for (spec, sketch) in [(&spec, &other), (&count, &sk)] {
            assert!(matches!(
                spec.snapshot(&**sketch),
                Err(SnapshotError::SpecMismatch { .. })
            ));
        }
    }

    #[test]
    fn restore_rejects_spec_disagreement() {
        let (spec, sk) = warm_spec_sketch();
        let bytes = spec.snapshot(&*sk).unwrap();
        let other = SketchSpec::time(1_000).epsilon(0.2).delta(0.2).seed(12);
        assert!(matches!(
            other.restore(&bytes),
            Err(SnapshotError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn framing_failures_are_typed() {
        // Magic, version, truncation and bit flips are the robustness
        // suite's (`tests/frame_robustness.rs`); what is left is the
        // record's own rule: nothing may follow it.
        let (spec, sk) = warm_spec_sketch();
        let mut bad = spec.snapshot(&*sk).unwrap();
        bad.push(0);
        assert!(matches!(
            spec.restore(&bad),
            Err(SnapshotError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn typed_and_dyn_records_are_interchangeable() {
        let spec = SketchSpec::time(500).epsilon(0.2).delta(0.2).seed(4);
        let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
        let mut typed = EcmSketch::new(&cfg);
        for t in 1..=200u64 {
            typed.insert(t, t % 9);
        }
        let typed_bytes = snapshot_sketch(&spec, &typed).unwrap();

        // The dyn path restores the typed record...
        let restored_dyn = spec.restore(&typed_bytes).unwrap();
        let w = WindowSpec::time(200, 500);
        let a = restored_dyn
            .query(&Query::point(3), w)
            .unwrap()
            .into_value()
            .value;
        // ...and the typed path restores the dyn path's record.
        let mut dyn_built = spec.build().unwrap();
        for t in 1..=200u64 {
            dyn_built.insert(t, t % 9);
        }
        let dyn_bytes = spec.snapshot(&*dyn_built).unwrap();
        assert_eq!(dyn_bytes, typed_bytes, "same state, same record bytes");
        let restored_typed: EcmSketch<ExponentialHistogram> =
            restore_sketch(&spec, &dyn_bytes).unwrap();
        let b = restored_typed
            .query(&Query::point(3), w)
            .unwrap()
            .into_value()
            .value;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn typed_surface_rejects_structured_specs() {
        let spec = SketchSpec::time(100).hierarchy(4);
        let plain = SketchSpec::time(100);
        let cfg = plain.ecm_config::<ExponentialHistogram>().unwrap();
        let sk = EcmSketch::new(&cfg);
        assert!(matches!(
            snapshot_sketch(&spec, &sk),
            Err(SnapshotError::SpecMismatch { .. })
        ));
        // A sound hierarchy record restores, but not as a plain sketch.
        let hierarchy = spec.snapshot(&*spec.build().unwrap()).unwrap();
        assert!(matches!(
            restore_sketch::<ExponentialHistogram>(&spec, &hierarchy),
            Err(SnapshotError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn format_bounds_reject_blown_up_headers_on_both_sides() {
        // Write side: a spec outside the v1 format bounds is refused before
        // any bytes exist.
        let tiny_eps = SketchSpec::time(100).epsilon(1e-9);
        let sk = SketchSpec::time(100).build().unwrap();
        assert!(matches!(
            tiny_eps.snapshot(&*sk),
            Err(SnapshotError::Spec(SpecError::InvalidParameter { .. }))
        ));
        // Read side: a crafted header describing 2^20 shards is refused
        // before anything is sized from it.
        let mut shards = Vec::new();
        encode_spec(&SketchSpec::time(100), &mut shards);
        let mut huge = Vec::new();
        put_opt(&mut huge, Some(1 << 20));
        let shards = replace_zero(&shards, shards.len() - 1, &huge);
        assert!(matches!(
            decode_spec(&mut shards.as_slice()),
            Err(SnapshotError::Spec(SpecError::InvalidParameter { .. }))
        ));
        // In-bounds specs are untouched.
        let ok = SketchSpec::time(100).epsilon(0.01).delta(0.01);
        let mut buf = Vec::new();
        encode_spec(&ok, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_spec(&mut slice).unwrap(), ok);
    }

    /// `bytes` with the zero byte at `at` (a "none" option, or the EH
    /// backend tag) replaced by `with`.
    pub(crate) fn replace_zero(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        assert_eq!(bytes[at], 0, "byte {at} is written as 0");
        [&bytes[..at], with, &bytes[at + 1..]].concat()
    }

    /// Re-seal a record whose trailing checksum covers everything before it.
    pub(crate) fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 8);
        frame::seal(&mut bytes, 0);
        bytes
    }

    #[test]
    fn spec_header_bytes_are_pinned() {
        let (spec, sk) = warm_spec_sketch();
        let bytes = spec.snapshot(&*sk).unwrap();
        let hex: String = bytes[..35].iter().map(|b| format!("{b:02x}")).collect();
        // Magic, version and the spec header as format v1 lays them out:
        // a change here moves every record already on disk.
        assert_eq!(
            hex,
            "45530100e8079a9999999999c93f9a9999999999c93f00000b00000000000000000000"
        );
        let mut header = Vec::new();
        encode_spec(&spec, &mut header);
        assert_eq!(header[..], bytes[3..35]);
        // The whole record, payload included, still seals to the same sum.
        assert_eq!(bytes.len(), 1_089);
        assert_eq!(
            bytes[bytes.len() - 8..],
            [0x87, 0x20, 0xd7, 0x4a, 0xa3, 0x45, 0xe1, 0x9b]
        );
    }

    #[test]
    fn count_clock_record_bytes_are_pinned() {
        // A count-clock payload is `[version, arrivals]` then the wrapped
        // tick-addressed sketch. The arrival ids it assigns are in the
        // bytes: a plain sketch's ids are its ticks (`seq` stays 0), a
        // hierarchy's levels count them in their auto sequence, and a
        // randomized wave samples by them.
        let count = SketchSpec::count(500).epsilon(0.2).delta(0.2).seed(11);
        let pins: [(SketchSpec, usize, [u8; 8]); 3] = [
            (count.clone(), 1_233, [42, 92, 242, 224, 193, 205, 136, 57]),
            (
                count.clone().hierarchy(6),
                4_449,
                [32, 173, 217, 137, 202, 27, 54, 53],
            ),
            (
                count.backend(Backend::Rw).epsilon(0.3).max_arrivals(5_000),
                28_567,
                [42, 227, 255, 249, 177, 58, 72, 80],
            ),
        ];
        for (spec, len, seal) in pins {
            let mut sk = spec.build().unwrap();
            for t in 1..=800u64 {
                sk.insert_weighted(t, t % 13, 1 + t % 3);
            }
            let bytes = spec.snapshot(&*sk).unwrap();
            assert_eq!(bytes.len(), len, "{spec:?}");
            assert_eq!(bytes[bytes.len() - 8..], seal, "{spec:?}");
        }
    }

    #[test]
    fn retired_header_values_are_typed_errors_on_every_restore_path() {
        let (spec, sk) = warm_spec_sketch();
        let mut header = Vec::new();
        encode_spec(&spec, &mut header);
        // Header values only a retired writer produced: where in the spec
        // header, and the bytes that replace the zero byte written there.
        let mut shards = Vec::new();
        put_opt(&mut shards, Some(3));
        let retired = [
            ("a present shard count", header.len() - 1, shards),
            // After the clock tag, window 1 000 (a two-byte varint), ε, δ.
            ("backend tag 4 (equi-width)", 1 + 2 + 8 + 8, vec![4]),
            ("backend tag 5 (decayed count-min)", 1 + 2 + 8 + 8, vec![5]),
        ];

        let record = spec.snapshot(&*sk).unwrap();
        // A fleet record carries the same spec header one kind byte later;
        // with no resident keys its header checksum closes the record.
        let mut store = crate::store::SketchStore::<u64>::new(spec.clone()).unwrap();
        let fleet = store.write_snapshot().unwrap();
        for (what, at, with) in retired {
            // `start`: where the spec header begins in `bytes`.
            let edit = |bytes: &[u8], start: usize| replace_zero(bytes, start + at, &with);
            let rejected = |r: Result<(), SnapshotError>| {
                assert!(
                    matches!(
                        r,
                        Err(SnapshotError::Spec(SpecError::InvalidParameter { .. }))
                    ),
                    "{what}: {r:?}"
                );
            };
            let bad = reseal(edit(&record, 3));
            rejected(restore_any(&bad).map(drop));
            rejected(spec.restore(&bad).map(drop));
            let bad = reseal(edit(&fleet, 4));
            rejected(crate::store::SketchStore::<u64>::load_snapshot(&bad).map(drop));
        }
    }

    #[test]
    fn errors_display_their_cause_and_chain_sources() {
        use std::error::Error as _;
        let e = SnapshotError::UnsupportedVersion { found: 9 };
        assert!(e.to_string().contains('9'));
        let e = SnapshotError::SequenceMismatch {
            expected: 3,
            found: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        let e = SnapshotError::Codec(CodecError::Truncated { context: "x" });
        assert!(e.source().is_some());
        let e = SnapshotError::Spec(SpecError::ZeroWindow);
        assert!(e.source().is_some() && e.to_string().contains("window"));
    }
}
