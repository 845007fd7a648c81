//! The TCP listener, connection handlers, and the bounded line reader.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ecm::StreamEvent;

use crate::config::ServerConfig;
use crate::engine::{Engine, EngineError, ViewHub};
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
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            max_connections: cfg.max_connections,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
        });
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
        let refusal = response::error("too_many_connections", "connection cap reached");
        let _ = stream.write_all(refusal.as_bytes());
        let _ = stream.write_all(b"\n");
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

/// Newline framing over a raw stream with a hard per-line byte bound —
/// `BufReader::read_line` would buffer an attacker-length line in full.
/// Reads land in one buffer that lives as long as the connection and lines
/// are handed out as slices of it: no allocation and no copy per line.
struct LineReader {
    stream: TcpStream,
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

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
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
    let mut writer = writer;
    let mut reader = LineReader::new(stream);
    loop {
        let parsed = match reader.next_line() {
            Line::Eof => return,
            Line::TooLong => {
                let resp = response::error(
                    "line_too_long",
                    &CmdError::LineTooLong { limit: MAX_LINE }.to_string(),
                );
                if respond(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
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
        let resp = match parsed {
            Err(e) => response::error(e.code(), &e.to_string()),
            Ok(Command::Batch { n }) => match read_batch(&mut reader, n) {
                None => return, // connection died mid-batch
                Some(Err(resp)) => resp,
                Some(Ok(triples)) => ingest(engine, &triples),
            },
            Ok(cmd) => match dispatch(cmd, engine, shared, &mut writer) {
                Some(resp) => resp,
                None => return, // SHUTDOWN: reply already written
            },
        };
        if respond(&mut writer, &resp).is_err() {
            return;
        }
    }
}

fn respond(writer: &mut TcpStream, resp: &str) -> std::io::Result<()> {
    writer.write_all(resp.as_bytes())?;
    writer.write_all(b"\n")
}

/// Read the `n` data lines of a `BATCH` body. The frame is atomic: on a
/// bad line the remaining lines are still consumed (framing survives) and
/// the whole batch is rejected with one error naming the first bad line.
/// `None` means the connection died mid-body.
#[allow(clippy::type_complexity)]
fn read_batch(
    reader: &mut LineReader,
    n: usize,
) -> Option<Result<Vec<(String, StreamEvent, u64)>, String>> {
    let mut triples = Vec::with_capacity(n.min(4096));
    let mut bad: Option<(usize, CmdError)> = None;
    for i in 0..n {
        match reader.next_line() {
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
        Some((i, e)) => Err(response::error(e.code(), &format!("batch line {i}: {e}"))),
        None => Ok(triples),
    })
}

/// Render an [`EngineError`] as a response line. Transient errors that
/// are safe to retry verbatim get the `retryable` form with a backoff
/// hint; everything else (including `shard_timeout`, whose request may
/// still apply) is a plain error the client interprets by code.
fn engine_error(e: &EngineError) -> String {
    if e.is_retryable() {
        let retry_after_ms = match e {
            EngineError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
            _ => 50,
        };
        response::retry_error(e.code(), &e.to_string(), retry_after_ms)
    } else {
        response::error(e.code(), &e.to_string())
    }
}

fn ingest(engine: &Engine, triples: &[(String, StreamEvent, u64)]) -> String {
    match engine.ingest(triples) {
        Ok(ack) => response::ingest_ack(&ack),
        Err(e) => engine_error(&e),
    }
}

/// Handle every command except `BATCH`. Returns the response line, or
/// `None` after `SHUTDOWN` (which writes its own ack and ends the
/// connection).
fn dispatch(
    cmd: Command,
    engine: &Engine,
    shared: &Shared,
    writer: &mut TcpStream,
) -> Option<String> {
    Some(match cmd {
        Command::Ping => response::pong(),
        Command::Store {
            key,
            ts,
            item,
            count,
        } => match engine.ingest(&[(key.clone(), StreamEvent::new(item, ts), count)]) {
            Ok(ack) if ack.stale > 0 => response::error(
                "stale_timestamp",
                &format!("tick {ts} precedes the write clock of key {key:?}; nothing was applied"),
            ),
            Ok(ack) => response::ingest_ack(&ack),
            Err(e) => engine_error(&e),
        },
        Command::Batch { .. } => unreachable!("BATCH handled by the caller"),
        Command::Query { key, query, window } => match engine.query_served(&key, &query, window) {
            Err(e) => engine_error(&e),
            Ok(served) => match served.answer {
                None => response::error("unknown_key", &format!("no sketch for key {key:?}")),
                Some(Err(e)) => response::query_error(&e),
                Some(Ok(answer)) => response::answer_at(query.name(), &answer, served.clock),
            },
        },
        Command::TopK { k, window } => match engine.top_k(k, window) {
            Ok(rows) => response::topk(&rows),
            Err(e) => engine_error(&e),
        },
        Command::Stats => match engine.stats() {
            Ok(rows) => {
                let views = engine.views_summary();
                response::stats(&rows, &engine.rank_memo_stats(), &views)
            }
            Err(e) => engine_error(&e),
        },
        Command::CreateView { def } => {
            let name = def.name.clone();
            match engine.view_create(def) {
                Ok(()) => response::view_created(&name),
                Err(e) => engine_error(&e),
            }
        }
        Command::ReadView { name } => match engine.view_read(&name) {
            Ok(readout) => response::view_read(&name, &readout),
            Err(e) => engine_error(&e),
        },
        Command::DropView { name } => match engine.view_drop(&name) {
            Ok(()) => response::view_dropped(&name),
            Err(e) => engine_error(&e),
        },
        Command::ListViews => {
            let rows: Vec<(String, &'static str, String)> = engine
                .view_list()
                .iter()
                .map(|d| (d.name.clone(), d.kind(), wire_view_def(d)))
                .collect();
            response::view_list(&rows)
        }
        Command::Subscribe { view } => match engine.subscribe(&view) {
            Ok((id, rx)) => {
                subscribe_loop(&view, id, rx, engine.hub(), shared, writer);
                return None; // push-only from here; the connection is done
            }
            Err(e) => engine_error(&e),
        },
        Command::Flush { ts } => match engine.flush(ts) {
            Ok(()) => response::flushed(ts),
            Err(e) => engine_error(&e),
        },
        Command::Snapshot { dir } => match engine.snapshot(Path::new(&dir)) {
            Ok(report) => response::snapshot(&report),
            Err(e) => engine_error(&e),
        },
        Command::Shutdown => {
            // Drain + final checkpoint + worker join happen *before* the
            // ack, so a client that saw the ack knows every prior ack is
            // durable.
            let resp = match engine.shutdown() {
                Ok(()) => response::shutdown(),
                Err(e) => engine_error(&e),
            };
            let _ = respond(writer, &resp);
            halt_frontend(shared);
            return None;
        }
    })
}

/// Turn the connection push-only: ack the subscription, then forward every
/// notification the hub publishes for `view` until the server stops, the
/// view is dropped (the hub disconnects its subscribers), or the peer
/// stops reading. A 5-second idle gap emits a `ping` notification so a
/// half-dead peer is detected by the write instead of lingering forever.
fn subscribe_loop(
    view: &str,
    id: u64,
    rx: Receiver<String>,
    hub: &ViewHub,
    shared: &Shared,
    writer: &mut TcpStream,
) {
    if respond(writer, &response::subscribed(view)).is_err() {
        hub.unsubscribe(id);
        return;
    }
    let tick = Duration::from_millis(100);
    let mut idle = Duration::ZERO;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match rx.recv_timeout(tick) {
            Ok(line) => {
                idle = Duration::ZERO;
                if respond(writer, &line).is_err() {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                idle += tick;
                if idle >= Duration::from_secs(5) {
                    idle = Duration::ZERO;
                    if respond(writer, &response::heartbeat()).is_err() {
                        break;
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    hub.unsubscribe(id);
}
