//! The framing rules every on-disk format shares: the single-sketch
//! snapshot (`"ES"`, [`snapshot`](crate::snapshot)), the fleet snapshot
//! (`"EF"`, [`store`](crate::store)) and the write-ahead log (`"EL"`,
//! [`wal`](crate::wal)).
//!
//! * A file or record opens with a two-byte **magic** and a one-byte
//!   **version**; [`open`] checks them before anything else is parsed, so
//!   a foreign input is [`BadMagic`](SnapshotError::BadMagic) and a newer
//!   format is [`UnsupportedVersion`](SnapshotError::UnsupportedVersion),
//!   never a misparse.
//! * A **seal** is a little-endian u64 [`fnv1a`] over every byte since a
//!   start offset ([`seal`] / [`check_seal`]). It guards against bit rot
//!   and truncation, not attackers; the same hash routes keys to shards.
//! * A byte string (a payload, a record body, a string key) is a varint
//!   length and the bytes ([`put_bytes`] / [`take_bytes`]).
//!
//! What each format puts between these — and the log's torn-tail rule,
//! which only the log has — stays with the format.

use std::ops::RangeInclusive;

use crate::snapshot::SnapshotError;
use sliding_window::codec::{get_u64, get_u8, get_varint, put_u64, put_u8, put_varint};
use sliding_window::CodecError;

/// 64-bit FNV-1a over `bytes`: every seal's checksum, and the shard
/// router's key hash. Deterministic across runs and processes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A new buffer holding `magic` and `version`: the opening [`open`] reads.
pub fn begin(magic: [u8; 2], version: u8) -> Vec<u8> {
    let mut buf = magic.to_vec();
    put_u8(&mut buf, version);
    buf
}

/// Read `magic` and a version byte off the front of `input`, advancing past
/// them, and return the version.
///
/// # Errors
/// In this order: [`CodecError::Truncated`] when the magic is incomplete,
/// [`SnapshotError::BadMagic`], truncation again when the version byte is
/// missing, and [`SnapshotError::UnsupportedVersion`] for a version outside
/// `versions`.
pub fn open(
    input: &mut &[u8],
    magic: [u8; 2],
    versions: RangeInclusive<u8>,
    context: &'static str,
) -> Result<u8, SnapshotError> {
    let Some((found, rest)) = input.split_first_chunk::<2>() else {
        return Err(CodecError::Truncated { context }.into());
    };
    if *found != magic {
        return Err(SnapshotError::BadMagic);
    }
    *input = rest;
    let version = get_u8(input, context)?;
    if !versions.contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    Ok(version)
}

/// Append the seal over `buf[start..]`.
pub fn seal(buf: &mut Vec<u8>, start: usize) {
    let sum = fnv1a(&buf[start..]);
    put_u64(buf, sum);
}

/// Verify the seal that follows the bytes read since `start`: `input` is
/// the cursor, a suffix of `start`, and advances past the seal.
///
/// # Errors
/// [`SnapshotError::ChecksumMismatch`], or truncation when the seal is cut.
pub fn check_seal(
    start: &[u8],
    input: &mut &[u8],
    context: &'static str,
) -> Result<(), SnapshotError> {
    let covered = &start[..start.len() - input.len()];
    if get_u64(input, context)? != fnv1a(covered) {
        return Err(SnapshotError::ChecksumMismatch { context });
    }
    Ok(())
}

/// Append `bytes` as a varint-length byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Take one [`put_bytes`] string off the front of `input`.
///
/// # Errors
/// [`CodecError::Truncated`] when the length or the bytes are cut (a
/// length is untrusted until its seal is checked, so no length overflows).
pub fn take_bytes<'a>(input: &mut &'a [u8], context: &'static str) -> Result<&'a [u8], CodecError> {
    let len = get_varint(input, context)?;
    if len > input.len() as u64 {
        return Err(CodecError::Truncated { context });
    }
    let (bytes, rest) = input.split_at(len as usize);
    *input = rest;
    Ok(bytes)
}

/// A structurally invalid field, as a [`SnapshotError`].
pub(crate) fn corrupt(context: &'static str) -> SnapshotError {
    CodecError::Corrupt { context }.into()
}
