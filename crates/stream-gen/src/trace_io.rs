//! Trace import/export.
//!
//! The evaluation ships with synthetic substitutes for the paper's two
//! proprietary traces (see [`crate::workloads`]). Users who hold the real
//! WorldCup'98 or CRAWDAD data — or any other timestamped key stream — can
//! run the Fig. 4 experiment on it (`repro --trace FILE` in the `bench`
//! package) by converting to the simple formats here:
//!
//! * **CSV** (`ts,key,site` per line, `#` comments allowed) — easy to
//!   produce with standard tools from the original datasets' readers.
//! * **Binary** — the workspace varint codec, ~3–6 bytes/event on sorted
//!   traces.
//!
//! Both formats round-trip exactly and validate on load (timestamps must be
//! non-decreasing, since every synopsis in the workspace requires it).

use crate::event::Event;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Errors raised while loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line or record could not be parsed.
    Parse {
        /// 1-based line (CSV) or record (binary) number.
        record: usize,
        /// What went wrong.
        detail: String,
    },
    /// Timestamps went backwards.
    OutOfOrder {
        /// 1-based record number of the offending event.
        record: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { record, detail } => {
                write!(f, "trace parse error at record {record}: {detail}")
            }
            TraceError::OutOfOrder { record } => {
                write!(f, "trace record {record} has a decreasing timestamp")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Write a trace as CSV (`ts,key,site`), one event per line.
pub fn write_csv<W: Write>(events: &[Event], out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "# ts,key,site")?;
    for e in events {
        writeln!(w, "{},{},{}", e.ts, e.key, e.site)?;
    }
    w.flush()
}

/// Read a CSV trace. Blank lines and `#` comments are skipped; timestamps
/// must be non-decreasing.
pub fn read_csv<R: Read>(input: R) -> Result<Vec<Event>, TraceError> {
    let mut out = Vec::new();
    let mut last_ts = 0u64;
    for (i, line) in BufReader::new(input).lines().enumerate() {
        let record = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = |name: &str| -> Result<u64, TraceError> {
            fields
                .next()
                .ok_or_else(|| TraceError::Parse {
                    record,
                    detail: format!("missing field `{name}`"),
                })?
                .trim()
                .parse()
                .map_err(|e| TraceError::Parse {
                    record,
                    detail: format!("bad `{name}`: {e}"),
                })
        };
        let ts = next("ts")?;
        let key = next("key")?;
        let site = next("site")?;
        if site > u64::from(u32::MAX) {
            return Err(TraceError::Parse {
                record,
                detail: format!("site {site} exceeds u32"),
            });
        }
        if !out.is_empty() && ts < last_ts {
            return Err(TraceError::OutOfOrder { record });
        }
        last_ts = ts;
        out.push(Event {
            ts,
            key,
            site: site as u32,
        });
    }
    Ok(out)
}

const BINARY_MAGIC: &[u8; 4] = b"ECMT";
const BINARY_VERSION: u8 = 1;

/// Write a trace in the compact binary format (delta-varint timestamps).
pub fn write_binary<W: Write>(events: &[Event], out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    let mut buf = Vec::with_capacity(events.len() * 6 + 16);
    buf.extend_from_slice(BINARY_MAGIC);
    buf.push(BINARY_VERSION);
    put_varint(&mut buf, events.len() as u64);
    let mut prev_ts = 0u64;
    for e in events {
        put_varint(&mut buf, e.ts - prev_ts);
        put_varint(&mut buf, e.key);
        put_varint(&mut buf, u64::from(e.site));
        prev_ts = e.ts;
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Read a binary trace written by [`write_binary`].
pub fn read_binary<R: Read>(mut input: R) -> Result<Vec<Event>, TraceError> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    let mut slice = bytes.as_slice();
    let mut header = [0u8; 5];
    if slice.len() < 5 {
        return Err(TraceError::Parse {
            record: 0,
            detail: "missing header".into(),
        });
    }
    header.copy_from_slice(&slice[..5]);
    slice = &slice[5..];
    if &header[..4] != BINARY_MAGIC {
        return Err(TraceError::Parse {
            record: 0,
            detail: "bad magic".into(),
        });
    }
    if header[4] != BINARY_VERSION {
        return Err(TraceError::Parse {
            record: 0,
            detail: format!("unsupported version {}", header[4]),
        });
    }
    let n = get_varint(&mut slice, 0)? as usize;
    if n > (1 << 33) {
        return Err(TraceError::Parse {
            record: 0,
            detail: format!("implausible event count {n}"),
        });
    }
    let mut out = Vec::with_capacity(n.min(1 << 24));
    let mut ts = 0u64;
    for record in 1..=n {
        let dt = get_varint(&mut slice, record)?;
        ts = ts.checked_add(dt).ok_or_else(|| TraceError::Parse {
            record,
            detail: "timestamp overflow".into(),
        })?;
        let key = get_varint(&mut slice, record)?;
        let site = get_varint(&mut slice, record)?;
        if site > u64::from(u32::MAX) {
            return Err(TraceError::Parse {
                record,
                detail: format!("site {site} exceeds u32"),
            });
        }
        out.push(Event {
            ts,
            key,
            site: site as u32,
        });
    }
    if !slice.is_empty() {
        return Err(TraceError::Parse {
            record: n,
            detail: format!("{} trailing bytes", slice.len()),
        });
    }
    Ok(out)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(input: &mut &[u8], record: usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or_else(|| TraceError::Parse {
            record,
            detail: "truncated varint".into(),
        })?;
        *input = rest;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(TraceError::Parse {
                record,
                detail: "overlong varint".into(),
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::worldcup_like;

    #[test]
    fn csv_round_trips() {
        let events = worldcup_like(2_000, 7);
        let mut buf = Vec::new();
        write_csv(&events, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn csv_skips_comments_and_blanks() {
        let text = "# header\n\n10,5,0\n # another\n11,6,1\n";
        let events = read_csv(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1],
            Event {
                ts: 11,
                key: 6,
                site: 1
            }
        );
    }

    #[test]
    fn csv_rejects_garbage_and_disorder() {
        assert!(matches!(
            read_csv("abc,1,2\n".as_bytes()),
            Err(TraceError::Parse { record: 1, .. })
        ));
        assert!(matches!(
            read_csv("5,1\n".as_bytes()),
            Err(TraceError::Parse { .. })
        ));
        assert!(matches!(
            read_csv("5,1,0\n4,1,0\n".as_bytes()),
            Err(TraceError::OutOfOrder { record: 2 })
        ));
        assert!(matches!(
            read_csv("5,1,5000000000\n".as_bytes()),
            Err(TraceError::Parse { .. })
        ));
    }

    #[test]
    fn binary_round_trips_compactly() {
        let events = worldcup_like(5_000, 11);
        let mut bin = Vec::new();
        write_binary(&events, &mut bin).unwrap();
        let back = read_binary(bin.as_slice()).unwrap();
        assert_eq!(back, events);
        // Sorted traces delta-encode well: well under 8 bytes/event.
        assert!(
            bin.len() < events.len() * 8,
            "{} bytes for {} events",
            bin.len(),
            events.len()
        );
        // And far smaller than the CSV.
        let mut csv = Vec::new();
        write_csv(&events, &mut csv).unwrap();
        assert!(bin.len() * 2 < csv.len());
    }

    #[test]
    fn binary_rejects_corruption() {
        let events = worldcup_like(100, 3);
        let mut bin = Vec::new();
        write_binary(&events, &mut bin).unwrap();
        // Bad magic.
        let mut bad = bin.clone();
        bad[0] = b'X';
        assert!(read_binary(bad.as_slice()).is_err());
        // Bad version.
        let mut bad = bin.clone();
        bad[4] = 9;
        assert!(read_binary(bad.as_slice()).is_err());
        // Truncation.
        for cut in [3usize, 5, bin.len() / 2, bin.len() - 1] {
            assert!(read_binary(&bin[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut bad = bin.clone();
        bad.push(0);
        assert!(read_binary(bad.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut bin = Vec::new();
        write_binary(&[], &mut bin).unwrap();
        assert!(read_binary(bin.as_slice()).unwrap().is_empty());
        let mut csv = Vec::new();
        write_csv(&[], &mut csv).unwrap();
        assert!(read_csv(csv.as_slice()).unwrap().is_empty());
    }
}
