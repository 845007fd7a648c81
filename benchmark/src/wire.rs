//! One protocol connection: newline framing both ways, replies read into
//! a reusable buffer so the client adds no allocation per request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection to `sketchd`.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// How long `recv` polls the socket before it blocks on it; `None`
    /// blocks at once.
    spin: Option<Duration>,
}

/// Whether a reply line reports success.
pub fn is_ok(reply: &[u8]) -> bool {
    reply.starts_with(b"{\"ok\":true")
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a generous read timeout (a hung
    /// server must fail the run, not hang it).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            spin: None,
        })
    }

    /// Wait for replies by polling the socket for up to `spin` before
    /// blocking on it (`None`: block at once; `Duration::MAX`: never block).
    /// A polling client never leaves its core, so the server's connection
    /// thread always runs on the other one: without this, where the
    /// scheduler puts the two decides the result (one core or two — a
    /// factor of 1.4 in pipelined throughput on a 2-vCPU host) and flips
    /// from segment to segment. A budget lets a client whose reply is held
    /// up behind a write give its core to the shard workers meanwhile.
    pub fn set_spin(&mut self, spin: Option<Duration>) -> io::Result<()> {
        self.spin = spin;
        self.stream.set_nonblocking(spin.is_some())
    }

    /// Write `bytes` (one or more complete request lines or frames).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next reply line, without its newline. The slice is valid until
    /// the next call.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        let mut polling_since = None;
        loop {
            if let Some(nl) = self.buf[self.start..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = self.start..self.start + nl;
                self.start += nl + 1;
                return Ok(&self.buf[line]);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = match (self.stream.read(&mut self.buf[self.end..]), self.spin) {
                (Err(e), Some(budget)) if e.kind() == io::ErrorKind::WouldBlock => {
                    if polling_since.get_or_insert_with(Instant::now).elapsed() < budget {
                        std::hint::spin_loop();
                        continue;
                    }
                    // Out of budget: one blocking read, then poll again.
                    polling_since = None;
                    self.stream.set_nonblocking(false)?;
                    let read = self.stream.read(&mut self.buf[self.end..]);
                    self.stream.set_nonblocking(true)?;
                    read?
                }
                (other, _) => other?,
            };
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        }
    }

    /// Send one request and return its reply as an owned string.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.send(request.as_bytes())?;
        if !request.ends_with('\n') {
            self.send(b"\n")?;
        }
        let reply = self.recv()?;
        Ok(String::from_utf8_lossy(reply).into_owned())
    }
}

/// The number following `"field":` at its first occurrence in `json`.
pub fn json_number(json: &str, field: &str) -> Option<f64> {
    json_numbers(json, field).next()
}

/// Every number following a `"field":` in `json`, in order (one per shard
/// row of a `STATS` reply, after the fleet total when there is one).
pub fn json_numbers<'a>(json: &'a str, field: &str) -> impl Iterator<Item = f64> + 'a {
    let needle = format!("\"{field}\":");
    let mut rest = json;
    std::iter::from_fn(move || loop {
        let at = rest.find(&needle)?;
        rest = &rest[at + needle.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..len].parse::<f64>() {
            return Some(v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_reads_every_shard_row() {
        let stats = r#"{"ok":true,"compactions":3,"shards":[{"shard":0,"health":{"fallback_reads":5},"compactions":1},{"shard":1,"health":{"fallback_reads":7},"compactions":2}]}"#;
        assert_eq!(json_number(stats, "compactions"), Some(3.0));
        let per_shard: Vec<f64> = json_numbers(stats, "fallback_reads").collect();
        assert_eq!(per_shard, vec![5.0, 7.0]);
        assert_eq!(json_number(stats, "missing"), None);
        assert!(is_ok(stats.as_bytes()));
        assert!(!is_ok(br#"{"ok":false,"error":"x"}"#));
    }
}
