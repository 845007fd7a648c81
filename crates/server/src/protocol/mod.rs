//! The `sketchd` wire protocol: a newline-delimited command language in, a
//! JSON object per response line out.
//!
//! One request line maps to one response line (the `BATCH` body lines are
//! the sole exception: the `n` data lines that follow a `BATCH n` header
//! are acknowledged by a single response). Replies keep the order of their
//! requests, but go out when the server has no further complete request
//! buffered from the connection: a pipelined burst gets its replies in one
//! write. A client that pipelines must read its replies, since the server
//! reads no further while a write to it is blocked. The command grammar is parsed by
//! [`parser`]; responses are rendered by [`response`], and every estimate
//! travels **with** the (ε, δ) guarantee its backend derived — a remote
//! reader gets exactly the accuracy contract an in-process
//! [`SketchReader`](ecm::SketchReader) caller would.
//!
//! | Command | Reply |
//! |---|---|
//! | `PING` | `{"ok":true,"pong":true}` |
//! | `STORE <key> <ts> <item> [<count>]` | `{"ok":true,"ingested":n}`, or a `stale_timestamp` error |
//! | `BATCH <n>` + n × `<key> <ts> <item> [<count>]` | one `{"ok":true,"ingested":n}`, plus `"stale":k` when k lines were refused |
//! | `QUERY <key> point <item> <window>` | `{"ok":true,...,"value":v,"guarantee":{...}}` |
//! | `QUERY <key> range <lo> <hi> <window>` | as above |
//! | `QUERY <key> self_join <window>` | as above |
//! | `QUERY <key> total <window>` | as above |
//! | `QUERY <key> heavy_hitters <rel:φ\|abs:n> <window>` | `{"ok":true,...,"hitters":[...]}` |
//! | `QUERY <key> quantile <φ> <window>` | `{"ok":true,...,"key":k}` |
//! | `TOPK <k> <window>` | `{"ok":true,"topk":[...]}` |
//! | `STATS` | per-shard key counts / memory / ingest and stale counters |
//! | `FLUSH <ts>` | advance every shard's clock to `ts` |
//! | `SNAPSHOT <dir> [full]` | `{"ok":true,"snapshot":"full",...}`: a full checkpoint of every shard into `dir`; the retired `incr` option is a `bad_request` error |
//! | `VIEW CREATE <name> <def>` | register a standing view |
//! | `VIEW READ <name>` | `{"ok":true,"view":...,"now":n,"seq":s}` |
//! | `VIEW DROP <name>` | `{"ok":true,...,"dropped":true}` |
//! | `VIEW LIST` | `{"ok":true,"views":[...]}` |
//! | `SUBSCRIBE <view>` | push stream of the view's change notifications |
//! | `SHUTDOWN` | drain, final snapshot, stop the server |
//!
//! A line whose tick precedes its key's write clock (the latest tick the
//! key took, or a later `FLUSH`) is *stale*: its shard refuses it before
//! logging anything, and applies the rest of the batch.
//!
//! `<window>` is either `time <now> <range>` (a time-based window covering
//! ticks `(now − range, now]`) or `last <n>` (the most recent `n` arrivals,
//! for count-based specs). Standing-view definitions use windows *without*
//! `now` (`time <range>` / `last <n>`): the view pins `now` to the
//! sketch's write clock at every evaluation. `<def>` is
//! `<name> hh <key> <rel:φ|abs:n> <window>`,
//! `<name> threshold <key> <point <item>|self_join|total> <limit> <window>`,
//! or `<name> topk <k> <window>` (see
//! [`parser::parse_view_def`]).

pub(crate) mod json;
pub mod parser;
pub mod response;

pub use parser::{
    parse_command, parse_data_line, parse_view_def, wire_view_def, CmdError, Command, OwnedQuery,
    MAX_BATCH, MAX_KEY, MAX_LINE,
};
