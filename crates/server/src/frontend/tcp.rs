//! The TCP listener, connection handlers, and the bounded line reader.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ecm::StreamEvent;

use crate::config::ServerConfig;
use crate::engine::{Engine, EngineError};
use crate::protocol::{
    parse_command, parse_data_line, response, wire_view_def, CmdError, Command, MAX_LINE,
};

/// Why [`Server::start`] failed.
#[derive(Debug)]
pub enum StartError {
    /// The engine could not start (bad spec/config, failed restore).
    Engine(EngineError),
    /// The listener socket could not be bound.
    Io(std::io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Engine(e) => write!(f, "engine start failed: {e}"),
            StartError::Io(e) => write!(f, "listener bind failed: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<EngineError> for StartError {
    fn from(e: EngineError) -> Self {
        StartError::Engine(e)
    }
}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        StartError::Io(e)
    }
}

/// Lock a registry mutex, recovering from poison: the guarded state is a
/// plain registry (socket map, join-handle list) whose invariants hold
/// after any partial mutation, so a handler that panicked while holding
/// the lock must not cascade into every `.lock().expect(..)` taking down
/// the acceptor and all healthy connections.
fn registry<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// State shared between the acceptor, the connection handlers and the
/// [`Server`] handle.
struct Shared {
    stop: AtomicBool,
    active: AtomicUsize,
    next_id: AtomicU64,
    /// Socket clones of live connections, so shutdown can unblock handler
    /// threads stuck in a read.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    max_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Shared {
    fn new(cfg: &ServerConfig) -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            max_connections: cfg.max_connections,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
        }
    }
}

/// A running `sketchd` instance: an engine plus a TCP acceptor.
///
/// Stops when a client sends `SHUTDOWN`, or programmatically via
/// [`Server::stop`]; [`Server::join`] then waits for the acceptor and all
/// connection handlers to exit.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind the listen socket, start the engine (restoring from the
    /// snapshot directory if it holds a manifest), and spawn the acceptor.
    ///
    /// # Errors
    /// Engine validation/restore errors, or socket bind failures.
    pub fn start(cfg: ServerConfig) -> Result<Server, StartError> {
        let engine = Arc::new(Engine::start(&cfg)?);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(&cfg));
        let acceptor = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sketchd-acceptor".to_string())
                .spawn(move || accept_loop(listener, engine, shared))
                .map_err(StartError::Io)?
        };
        Ok(Server {
            addr,
            engine,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 to the OS-chosen ephemeral
    /// port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the socket, for in-process inspection (tests,
    /// embedding).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Programmatic equivalent of a client `SHUTDOWN`: drain and stop the
    /// engine, stop accepting, and unblock every connection handler.
    /// Idempotent.
    ///
    /// # Errors
    /// The engine's final-checkpoint error, if any (the server still
    /// stops).
    pub fn stop(&self) -> Result<(), EngineError> {
        let outcome = self.engine.shutdown();
        halt_frontend(&self.shared);
        outcome
    }

    /// Wait for the acceptor and every connection handler to exit. Call
    /// after `SHUTDOWN` has been sent (or [`Server::stop`]); the engine is
    /// drained and stopped by then.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handlers = std::mem::take(&mut *registry(&self.shared.handlers));
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("engine", &self.engine)
            .finish()
    }
}

impl Drop for Server {
    /// Best-effort stop, so a dropped handle (test unwinding) never leaks
    /// the acceptor thread or a bound port.
    fn drop(&mut self) {
        let _ = self.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Flag the front-end down and force every live socket closed, unblocking
/// handler threads stuck in `read`.
fn halt_frontend(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    let conns = registry(&shared.conns);
    for stream in conns.values() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Undo one connection's registration when its handler exits — by return
/// *or* by panic. Running in `Drop` keeps the connection cap and the
/// socket map honest even when a handler unwinds: a leaked `active` slot
/// would silently shrink the cap forever.
struct Deregister {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Deregister {
    fn drop(&mut self) {
        registry(&self.shared.conns).remove(&self.id);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<Engine>, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => spawn_handler(stream, &engine, &shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_handler(mut stream: TcpStream, engine: &Arc<Engine>, shared: &Arc<Shared>) {
    if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
        // Refuse, don't queue: the cap bounds handler threads.
        let mut refusal = String::new();
        response::write_error(
            &mut refusal,
            "too_many_connections",
            "connection cap reached",
        );
        refusal.push('\n');
        let _ = stream.write_all(refusal.as_bytes());
        return;
    }
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let _ = stream.set_nodelay(true);
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        registry(&shared.conns).insert(id, clone);
    }
    shared.active.fetch_add(1, Ordering::SeqCst);
    let engine = Arc::clone(engine);
    let shared_for_conn = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("sketchd-conn-{id}"))
        .spawn(move || {
            let deregister = Deregister {
                shared: Arc::clone(&shared_for_conn),
                id,
            };
            handle_connection(stream, &engine, &shared_for_conn);
            drop(deregister);
        });
    match handle {
        Ok(h) => registry(&shared.handlers).push(h),
        Err(_) => {
            // Thread spawn failed; roll the registration back.
            registry(&shared.conns).remove(&id);
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// One line from the bounded reader.
enum Line<'a> {
    /// A complete line (without its newline), borrowed from the reader's
    /// buffer until the next call.
    Data(&'a [u8]),
    /// A line longer than [`MAX_LINE`]; its bytes were discarded up to the
    /// next newline, so the stream is re-synchronized.
    TooLong,
    /// Peer closed (or the read timed out).
    Eof,
}

/// Bytes one `read` may bring in. A line is bounded by [`MAX_LINE`], so
/// the buffer holds at most a partial line of that length plus one read.
const READ_CHUNK: usize = 16 * 1024;

/// Pending replies past this many bytes go out at once rather than when
/// the input runs dry: the bound on a connection's output buffer while a
/// long burst is being answered.
const REPLY_CAP: usize = 64 * 1024;

/// A connection's outgoing side. Reply lines accumulate in `pending` and
/// leave in one `write_all`: before the line reader blocks for more input
/// (see [`LineReader::next_line`]), past [`REPLY_CAP`], and before the
/// connection turns push-only or closes. A pipelined burst of requests
/// thus costs one send, not one per reply, and replies keep their order.
struct Replies<W> {
    writer: W,
    /// Whole reply lines, newlines included, then the one being rendered.
    pending: String,
}

impl<W: Write> Replies<W> {
    /// End the reply rendered into `pending`; write everything out once
    /// past the cap.
    fn end_line(&mut self) -> std::io::Result<()> {
        self.pending.push('\n');
        if self.pending.len() >= REPLY_CAP {
            self.flush()
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let sent = self.writer.write_all(self.pending.as_bytes());
        self.pending.clear();
        sent
    }
}

/// Newline framing over a raw stream with a hard per-line byte bound —
/// `BufReader::read_line` would buffer an attacker-length line in full.
/// Reads land in one buffer that lives as long as the connection and lines
/// are handed out as slices of it: no allocation and no copy per line.
/// The connection's [`Replies`] ride along, so they go out before every
/// read that may block.
struct LineReader<R, W> {
    stream: R,
    replies: Replies<W>,
    /// `buf[start..end]` is what has been read and not yet handed out;
    /// `buf[start..scanned]` is known to hold no newline.
    buf: Box<[u8]>,
    start: usize,
    scanned: usize,
    end: usize,
    /// Inside an over-long line: drop bytes up to the next newline.
    discarding: bool,
    eof: bool,
}

impl<R: Read, W: Write> LineReader<R, W> {
    fn new(stream: R, writer: W) -> Self {
        LineReader {
            stream,
            replies: Replies {
                writer,
                pending: String::new(),
            },
            buf: vec![0; MAX_LINE + 1 + READ_CHUNK].into_boxed_slice(),
            start: 0,
            scanned: 0,
            end: 0,
            discarding: false,
            eof: false,
        }
    }

    fn next_line(&mut self) -> Line<'_> {
        loop {
            if self.eof {
                return Line::Eof;
            }
            if let Some(nl) = self.buf[self.scanned..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = self.start..self.scanned + nl;
                self.start = line.end + 1;
                self.scanned = self.start;
                if std::mem::take(&mut self.discarding) || line.len() > MAX_LINE {
                    return Line::TooLong;
                }
                return Line::Data(&self.buf[line]);
            }
            // No newline buffered. A partial line already past the bound
            // can only end over-long: stop keeping it.
            if self.discarding || self.end - self.start > MAX_LINE {
                self.discarding = true;
                self.start = self.end;
            }
            // Move the partial line to the front so a full read fits.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            self.scanned = self.end;
            // The read may block: a peer that waits for its replies before
            // sending more must have them first. A peer we cannot write to
            // is gone.
            if self.replies.flush().is_err() {
                self.eof = true;
                return Line::Eof;
            }
            match self
                .stream
                .read(&mut self.buf[self.end..self.end + READ_CHUNK])
            {
                Ok(0) | Err(_) => {
                    // EOF (or timeout/reset). A final unterminated line
                    // still counts as a line.
                    self.eof = true;
                    if !self.discarding && self.end > 0 {
                        return Line::Data(&self.buf[..self.end]);
                    }
                }
                Ok(n) => self.end += n,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, engine: &Engine, shared: &Shared) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    serve(LineReader::new(stream, writer), engine, shared);
}

/// Answer a connection's requests in order, one reply line each, until
/// the peer closes, a write fails, `SHUTDOWN`, or `SUBSCRIBE` turns the
/// connection push-only.
fn serve<R: Read, W: Write>(mut conn: LineReader<R, W>, engine: &Engine, shared: &Shared) {
    loop {
        let parsed = match conn.next_line() {
            Line::Eof => break,
            Line::TooLong => Err(CmdError::LineTooLong { limit: MAX_LINE }),
            // Blank lines are ignored rather than answered: a trailing
            // newline must not desynchronize a pipelining client's reply
            // counting.
            Line::Data(line) if line.iter().all(|b| b.is_ascii_whitespace()) => continue,
            Line::Data(line) => {
                // Fault injection, armed only by SKETCHD_TEST_PANIC (and
                // compiled out of plain release builds, like the engine's
                // fault hooks): panic while holding the connection
                // registry, poisoning the mutex — the worst spot a real
                // handler bug could die in, and exactly what the
                // poison-recovering `registry` path must survive.
                #[cfg(any(debug_assertions, feature = "fault-injection"))]
                if std::env::var_os("SKETCHD_TEST_PANIC").is_some() && line == b"__PANIC__" {
                    let _poisoner = shared.conns.lock();
                    panic!("test-injected connection handler panic");
                }
                parse_command(line)
            }
        };
        match parsed {
            Err(e) => response::write_error(&mut conn.replies.pending, e.code(), &e.to_string()),
            Ok(Command::Batch { n }) => {
                let Some(batch) = read_batch(&mut conn, n) else {
                    return; // connection died mid-batch
                };
                let out = &mut conn.replies.pending;
                match batch {
                    Ok(triples) => match engine.ingest_owned(triples) {
                        Ok(ack) => response::write_ingest_ack(out, &ack),
                        Err(e) => engine_error(out, &e),
                    },
                    Err((i, e)) => {
                        response::write_error(out, e.code(), &format!("batch line {i}: {e}"));
                    }
                }
            }
            Ok(Command::Subscribe { view }) => match engine.subscribe(&view) {
                Ok((id, rx)) => {
                    conn.replies.pending.push_str(&response::subscribed(&view));
                    conn.replies.pending.push('\n');
                    if conn.replies.flush().is_ok() {
                        subscribe_loop(rx, shared, &mut conn.replies.writer);
                    }
                    engine.hub().unsubscribe(id);
                    return; // push-only from here; the connection is done
                }
                Err(e) => engine_error(&mut conn.replies.pending, &e),
            },
            Ok(Command::Shutdown) => {
                // Drain + final checkpoint + worker join happen *before* the
                // ack, so a client that saw the ack knows every prior ack is
                // durable.
                let out = &mut conn.replies.pending;
                match engine.shutdown() {
                    Ok(()) => out.push_str(&response::shutdown()),
                    Err(e) => engine_error(out, &e),
                }
                out.push('\n');
                let _ = conn.replies.flush();
                halt_frontend(shared);
                return;
            }
            Ok(cmd) => dispatch(&mut conn.replies.pending, cmd, engine),
        }
        if conn.replies.end_line().is_err() {
            return;
        }
    }
    let _ = conn.replies.flush();
}

/// Read the `n` data lines of a `BATCH` body. The frame is atomic: on a
/// bad line the remaining lines are still consumed (framing survives) and
/// the whole batch is rejected, naming the first bad line and its error.
/// `None` means the connection died mid-body.
#[allow(clippy::type_complexity)]
fn read_batch<R: Read, W: Write>(
    conn: &mut LineReader<R, W>,
    n: usize,
) -> Option<Result<Vec<(String, StreamEvent, u64)>, (usize, CmdError)>> {
    let mut triples = Vec::with_capacity(n.min(4096));
    let mut bad: Option<(usize, CmdError)> = None;
    for i in 0..n {
        match conn.next_line() {
            Line::Eof => return None,
            Line::TooLong => {
                bad.get_or_insert((i, CmdError::LineTooLong { limit: MAX_LINE }));
            }
            Line::Data(line) => {
                if bad.is_none() {
                    match parse_data_line(line) {
                        Ok(triple) => triples.push(triple),
                        Err(e) => bad = Some((i, e)),
                    }
                }
            }
        }
    }
    Some(match bad {
        Some(bad) => Err(bad),
        None => Ok(triples),
    })
}

/// Render an [`EngineError`] as a response line. Transient errors that
/// are safe to retry verbatim get the `retryable` form with a backoff
/// hint; everything else (including `shard_timeout`, whose request may
/// still apply) is a plain error the client interprets by code.
fn engine_error(out: &mut String, e: &EngineError) {
    if e.is_retryable() {
        let retry_after_ms = match e {
            EngineError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
            _ => 50,
        };
        response::write_retry_error(out, e.code(), &e.to_string(), retry_after_ms);
    } else {
        response::write_error(out, e.code(), &e.to_string());
    }
}

/// Render the reply to every command but `BATCH`, `SUBSCRIBE` and
/// `SHUTDOWN`, which [`serve`] handles, into `out`.
fn dispatch(out: &mut String, cmd: Command, engine: &Engine) {
    match cmd {
        Command::Ping => out.push_str(&response::pong()),
        Command::Store {
            key,
            ts,
            item,
            count,
        } => match engine.ingest_owned(vec![(key.clone(), StreamEvent::new(item, ts), count)]) {
            Ok(ack) if ack.stale > 0 => response::write_error(
                out,
                "stale_timestamp",
                &format!("tick {ts} precedes the write clock of key {key:?}; nothing was applied"),
            ),
            Ok(ack) => response::write_ingest_ack(out, &ack),
            Err(e) => engine_error(out, &e),
        },
        Command::Query { key, query, window } => match engine.query_served(&key, &query, window) {
            Err(e) => engine_error(out, &e),
            Ok(served) => match served.answer {
                None => {
                    response::write_error(
                        out,
                        "unknown_key",
                        &format!("no sketch for key {key:?}"),
                    );
                }
                Some(Err(e)) => response::write_query_error(out, &e),
                Some(Ok(answer)) => {
                    response::write_answer_at(out, query.name(), &answer, served.clock);
                }
            },
        },
        Command::TopK { k, window } => match engine.top_k(k, window) {
            Ok(rows) => response::write_topk(out, &rows),
            Err(e) => engine_error(out, &e),
        },
        Command::Stats => match engine.stats() {
            Ok(rows) => {
                let views = engine.views_summary();
                out.push_str(&response::stats(&rows, &engine.rank_memo_stats(), &views));
            }
            Err(e) => engine_error(out, &e),
        },
        Command::CreateView { def } => {
            let name = def.name.clone();
            match engine.view_create(def) {
                Ok(()) => out.push_str(&response::view_created(&name)),
                Err(e) => engine_error(out, &e),
            }
        }
        Command::ReadView { name } => match engine.view_read(&name) {
            Ok(readout) => response::write_view_read(out, &name, &readout),
            Err(e) => engine_error(out, &e),
        },
        Command::DropView { name } => match engine.view_drop(&name) {
            Ok(()) => out.push_str(&response::view_dropped(&name)),
            Err(e) => engine_error(out, &e),
        },
        Command::ListViews => {
            let rows: Vec<(String, &'static str, String)> = engine
                .view_list()
                .iter()
                .map(|d| (d.name.clone(), d.kind(), wire_view_def(d)))
                .collect();
            out.push_str(&response::view_list(&rows));
        }
        Command::Flush { ts } => match engine.flush(ts) {
            Ok(()) => out.push_str(&response::flushed(ts)),
            Err(e) => engine_error(out, &e),
        },
        Command::Snapshot { dir } => match engine.snapshot(Path::new(&dir)) {
            Ok(report) => out.push_str(&response::snapshot(&report)),
            Err(e) => engine_error(out, &e),
        },
        Command::Batch { .. } | Command::Subscribe { .. } | Command::Shutdown => {
            unreachable!("BATCH, SUBSCRIBE and SHUTDOWN are handled by `serve`")
        }
    }
}

/// Forward every notification the hub queues for a subscription until
/// the server stops, the view is dropped (the hub disconnects its
/// subscribers), or the peer stops reading. Each wake-up sends every
/// queued push in one write. A 5-second idle gap emits a `ping`
/// notification so a half-dead peer is detected by the write instead of
/// lingering forever.
fn subscribe_loop<W: Write>(rx: Receiver<String>, shared: &Shared, writer: &mut W) {
    let tick = Duration::from_millis(100);
    let mut idle = Duration::ZERO;
    let mut lines = String::new();
    while !shared.stop.load(Ordering::SeqCst) {
        lines.clear();
        match rx.recv_timeout(tick) {
            Ok(line) => {
                idle = Duration::ZERO;
                for line in std::iter::once(line).chain(rx.try_iter()) {
                    lines.push_str(&line);
                    lines.push('\n');
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                idle += tick;
                if idle < Duration::from_secs(5) {
                    continue;
                }
                idle = Duration::ZERO;
                lines.push_str(&response::heartbeat());
                lines.push('\n');
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if writer.write_all(lines.as_bytes()).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use ecm::SketchSpec;

    use super::*;

    /// What the scripted peer has seen: every write the server made.
    #[derive(Default)]
    struct Seen {
        writes: Vec<Vec<u8>>,
    }

    impl Seen {
        fn replies(&self) -> usize {
            self.writes
                .iter()
                .flatten()
                .filter(|&&b| b == b'\n')
                .count()
        }
    }

    /// A peer that sends its chunks one `read` at a time, each with the
    /// number of replies it completes, and checks at every read that the
    /// replies to everything sent before have been written.
    struct Script {
        chunks: VecDeque<(Vec<u8>, usize)>,
        answered: usize,
        reads: usize,
        seen: Rc<RefCell<Seen>>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            assert_eq!(
                self.seen.borrow().replies(),
                self.answered,
                "read {} found replies pending",
                self.reads
            );
            let Some((chunk, replies)) = self.chunks.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            self.answered += replies;
            Ok(chunk.len())
        }
    }

    struct Sink(Rc<RefCell<Seen>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn replies_go_out_once_per_burst_and_before_every_read() {
        let seen = Rc::new(RefCell::new(Seen::default()));
        let script = Script {
            chunks: VecDeque::from([
                ("PING\n".repeat(32).into_bytes(), 32),
                // A request cut mid-line, then a batch whose body needs
                // one more read: the replies before it go out first.
                (b"PING\nQUERY k total ti".to_vec(), 1),
                (b"me 5 10\nBATCH 2\nk 1 1\n".to_vec(), 1),
                (b"k 2 1 3\nQUERY k total time 5 10".to_vec(), 1),
            ]),
            answered: 0,
            reads: 0,
            seen: Rc::clone(&seen),
        };
        let spec = SketchSpec::time(100).epsilon(0.2).delta(0.2).seed(3);
        let cfg = ServerConfig::new(spec).shards(1);
        let engine = Engine::start(&cfg).expect("engine");
        serve(
            LineReader::new(script, Sink(Rc::clone(&seen))),
            &engine,
            &Shared::new(&cfg),
        );
        engine.shutdown().expect("shutdown");

        let seen = seen.borrow();
        let writes: Vec<&str> = seen
            .writes
            .iter()
            .map(|w| std::str::from_utf8(w).expect("utf-8"))
            .collect();
        assert_eq!(writes.len(), 5, "one write per burst: {writes:?}");
        assert_eq!(writes[0], "{\"ok\":true,\"pong\":true}\n".repeat(32));
        assert_eq!(writes[1], "{\"ok\":true,\"pong\":true}\n");
        assert!(writes[2].contains("unknown_key"), "{}", writes[2]);
        assert_eq!(writes[3], "{\"ok\":true,\"ingested\":4}\n");
        assert!(writes[4].contains("\"value\":4.0"), "{}", writes[4]);
    }
}
