//! `sketchd` — a sharded network front-end over the workspace's sketch
//! library, turning the keyed [`SketchStore`](ecm::SketchStore) into a
//! standalone service (ROADMAP item 1).
//!
//! The paper's sketches summarize streams that arrive *from the network*;
//! after PRs 1–5 the system could only be driven as a library. This crate
//! adds the missing socket, in three layers:
//!
//! * **Engine** ([`engine`]) — N long-lived shard workers, each owning a
//!   `SketchStore<String>` partition built from one
//!   [`SketchSpec`]. Keys are routed by FNV-1a hash, typed
//!   [`ShardMsg`](engine::ShardMsg)s travel over **bounded** mailboxes
//!   (`std::sync::mpsc::sync_channel`), so a hot shard applies backpressure
//!   to its senders without stalling sibling shards. Mailboxes carry
//!   *writes*; queries are served wait-free from each shard's published
//!   left-right epoch ([`ecm::publish`]) — per-key queries pin the owning
//!   shard's epoch, cross-key queries pin all N and merge. A worker
//!   publishes before it acks a write, so a published epoch always holds
//!   every acked write: read-your-writes with one read path. `Snapshot`
//!   messages reuse the PR-5 checkpoint machinery per shard.
//! * **Protocol + front-end** ([`protocol`], [`frontend`]) — a
//!   newline-delimited command language (`STORE`, `BATCH`, `QUERY`, `TOPK`,
//!   `STATS`, `FLUSH`, `SNAPSHOT`, `PING`, `SHUTDOWN`) with a hand-rolled
//!   zero-dependency parser returning typed [`CmdError`](protocol::CmdError)s,
//!   JSON responses that carry every estimate **with** its (ε, δ)
//!   guarantee, served over threaded TCP with per-connection read/write
//!   timeouts and a connection cap.
//! * **Client** ([`client`]) — a pipelining `sketch-client` library with
//!   typed errors and seeded retry. (What the served system costs is
//!   priced from outside the process by `sketchbench`, the repo benchmark
//!   in `benchmark/`; see `docs/BENCHMARKS.md`.)
//!
//! # Quick start
//!
//! ```
//! use sketch_server::config::ServerConfig;
//! use sketch_server::frontend::Server;
//! use sketch_server::client::Client;
//! use ecm::SketchSpec;
//!
//! let cfg = ServerConfig::new(SketchSpec::time(1_000).seed(7)).shards(2);
//! let server = Server::start(cfg).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.call("STORE alice 10 7").unwrap();
//! let resp = client.call("QUERY alice point 7 time 10 100").unwrap();
//! assert!(resp.contains("\"ok\":true"));
//! client.call("SHUTDOWN").unwrap();
//! server.join();
//! ```

pub mod client;
pub mod config;
pub mod engine;
pub mod fault;
pub mod frontend;
pub mod protocol;

pub use client::{answer_now, Client, ClientError, RetryPolicy};
pub use config::ServerConfig;
pub use engine::{Engine, EngineError};
pub use frontend::Server;

// Re-export the seams a server caller needs, so driving `sketchd`
// programmatically does not require depending on `ecm` directly.
pub use ecm::{Answer, Estimate, Guarantee, Query, SketchSpec, StreamEvent, WindowSpec};
