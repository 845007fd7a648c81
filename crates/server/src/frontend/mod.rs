//! The network front-end: a threaded TCP listener speaking the
//! newline-delimited [`protocol`](crate::protocol) on top of the
//! [`Engine`](crate::engine::Engine).
//!
//! One OS thread accepts connections (bounded by the config's connection
//! cap — excess connections get a JSON refusal, not a queue slot), one
//! thread per live connection reads command lines and answers each with
//! one JSON response line; the lines collect in one buffer that is
//! written out whenever the input runs dry. Per-connection read/write timeouts keep an
//! idle or stalled peer from pinning its handler thread forever; an
//! over-long line is discarded up to the next newline so the connection
//! re-synchronizes instead of dying.

mod tcp;

pub use tcp::{Server, StartError};
