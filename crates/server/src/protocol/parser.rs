//! Hand-rolled, zero-dependency command parser.
//!
//! Input is one raw line (without the trailing `\n`, an optional trailing
//! `\r` is tolerated); output is a typed [`Command`] or a typed
//! [`CmdError`]. The parser is total: any byte sequence yields one of the
//! two, never a panic — `tests/protocol_robustness.rs` fuzzes it with
//! random bytes to keep that true.

use std::fmt;

use ecm::{
    Query, ScalarQuery, StandingQuery, StreamEvent, Threshold, ViewDef, ViewWindow, WindowSpec,
};

/// Longest accepted request line in bytes (longer lines are rejected and
/// the connection handler discards until the next newline).
pub const MAX_LINE: usize = 4096;

/// Longest accepted key token in bytes.
pub const MAX_KEY: usize = 128;

/// Largest accepted `BATCH` body size in lines.
pub const MAX_BATCH: usize = 1 << 16;

/// Largest accepted per-event `count` (keeps one line from expanding into
/// an unbounded weighted ingest).
pub const MAX_COUNT: u64 = 1 << 20;

/// An owned query description — the wire/mailbox form of
/// [`ecm::Query`], which cannot itself cross a channel because its
/// inner-product variant borrows.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedQuery {
    /// Frequency of one item.
    Point {
        /// The queried item.
        item: u64,
    },
    /// Self-join size (F₂) of the window.
    SelfJoin,
    /// Arrivals with key in `[lo, hi]` (hierarchy specs only).
    Range {
        /// Lowest key, inclusive.
        lo: u64,
        /// Highest key, inclusive.
        hi: u64,
    },
    /// Keys at or above a frequency threshold (hierarchy specs only).
    HeavyHitters {
        /// The threshold.
        threshold: Threshold,
    },
    /// The φ-quantile key (hierarchy specs only).
    Quantile {
        /// Rank fraction in (0, 1].
        phi: f64,
    },
    /// Total arrivals in the window.
    Total,
}

impl OwnedQuery {
    /// The equivalent borrowed [`ecm::Query`] value.
    pub fn to_query(&self) -> Query<'static> {
        match *self {
            OwnedQuery::Point { item } => Query::point(item),
            OwnedQuery::SelfJoin => Query::self_join(),
            OwnedQuery::Range { lo, hi } => Query::range_sum(lo, hi),
            OwnedQuery::HeavyHitters { threshold } => Query::heavy_hitters(threshold),
            OwnedQuery::Quantile { phi } => Query::quantile(phi),
            OwnedQuery::Total => Query::total_arrivals(),
        }
    }

    /// The query's wire verb (also used in responses).
    pub fn name(&self) -> &'static str {
        match self {
            OwnedQuery::Point { .. } => "point",
            OwnedQuery::SelfJoin => "self_join",
            OwnedQuery::Range { .. } => "range",
            OwnedQuery::HeavyHitters { .. } => "heavy_hitters",
            OwnedQuery::Quantile { .. } => "quantile",
            OwnedQuery::Total => "total",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// One keyed event: `count` occurrences of `item` at tick `ts`.
    Store {
        /// Tenant key.
        key: String,
        /// Arrival tick.
        ts: u64,
        /// Stream item.
        item: u64,
        /// Occurrences (≥ 1).
        count: u64,
    },
    /// Header of an `n`-line batch; the next `n` lines are data lines.
    Batch {
        /// Number of data lines that follow.
        n: usize,
    },
    /// A typed query against one key's sketch.
    Query {
        /// Tenant key.
        key: String,
        /// What to compute.
        query: OwnedQuery,
        /// Which stream slice.
        window: WindowSpec,
    },
    /// The `k` keys with the most window arrivals, across all shards.
    TopK {
        /// How many keys.
        k: usize,
        /// Which stream slice.
        window: WindowSpec,
    },
    /// Per-shard fleet statistics.
    Stats,
    /// Advance every shard's stream clock to `ts` with no arrivals.
    Flush {
        /// The tick every sketch's clock must reach.
        ts: u64,
    },
    /// Checkpoint every shard into a directory.
    Snapshot {
        /// Target directory (created if missing).
        dir: String,
    },
    /// Register a standing view.
    CreateView {
        /// The parsed definition.
        def: ViewDef<String>,
    },
    /// Read a standing view's materialized answer.
    ReadView {
        /// The view name.
        name: String,
    },
    /// Drop a standing view.
    DropView {
        /// The view name.
        name: String,
    },
    /// List registered views.
    ListViews,
    /// Turn this connection into a push stream of `view`'s notifications.
    Subscribe {
        /// The view name.
        view: String,
    },
    /// Drain, optionally snapshot, and stop the server.
    Shutdown,
}

/// Why a request line could not be parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum CmdError {
    /// Blank line (or only whitespace).
    Empty,
    /// The line exceeded [`MAX_LINE`] bytes.
    LineTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The first token is not a known verb.
    UnknownVerb {
        /// The offending token (truncated for display).
        verb: String,
    },
    /// Right verb, wrong number of arguments.
    WrongArity {
        /// The verb.
        verb: &'static str,
        /// The expected shape.
        expected: &'static str,
    },
    /// A numeric argument did not parse or is out of domain.
    BadNumber {
        /// Which argument.
        what: &'static str,
        /// The offending token.
        got: String,
    },
    /// A key token is empty, too long, or otherwise malformed.
    BadKey {
        /// What was wrong.
        detail: &'static str,
    },
    /// A window clause did not parse.
    BadWindow {
        /// What was wrong.
        detail: &'static str,
    },
    /// A heavy-hitter threshold did not parse (`rel:<φ>` or `abs:<n>`).
    BadThreshold {
        /// The offending token.
        got: String,
    },
    /// A `BATCH` header exceeds [`MAX_BATCH`] lines.
    BatchTooLarge {
        /// The requested size.
        got: usize,
        /// The limit.
        limit: usize,
    },
    /// A `BATCH 0` header: an empty batch is a protocol error.
    EmptyBatch,
    /// A well-formed request this server no longer serves.
    BadRequest {
        /// What was refused, and why.
        detail: &'static str,
    },
}

impl CmdError {
    /// Short machine-readable error code for the JSON `error` field.
    pub fn code(&self) -> &'static str {
        match self {
            CmdError::Empty => "empty",
            CmdError::LineTooLong { .. } => "line_too_long",
            CmdError::NotUtf8 => "not_utf8",
            CmdError::UnknownVerb { .. } => "unknown_verb",
            CmdError::WrongArity { .. } => "wrong_arity",
            CmdError::BadNumber { .. } => "bad_number",
            CmdError::BadKey { .. } => "bad_key",
            CmdError::BadWindow { .. } => "bad_window",
            CmdError::BadThreshold { .. } => "bad_threshold",
            CmdError::BatchTooLarge { .. } => "batch_too_large",
            CmdError::EmptyBatch => "empty_batch",
            CmdError::BadRequest { .. } => "bad_request",
        }
    }
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdError::Empty => write!(f, "empty command line"),
            CmdError::LineTooLong { limit } => {
                write!(f, "line exceeds the {limit}-byte limit")
            }
            CmdError::NotUtf8 => write!(f, "line is not valid UTF-8"),
            CmdError::UnknownVerb { verb } => write!(f, "unknown verb {verb:?}"),
            CmdError::WrongArity { verb, expected } => {
                write!(f, "{verb} expects: {expected}")
            }
            CmdError::BadNumber { what, got } => {
                write!(f, "{what} is not a valid number: {got:?}")
            }
            CmdError::BadKey { detail } => write!(f, "bad key: {detail}"),
            CmdError::BadWindow { detail } => write!(f, "bad window: {detail}"),
            CmdError::BadThreshold { got } => write!(
                f,
                "bad threshold {got:?}: expected rel:<phi in (0,1)> or abs:<count>"
            ),
            CmdError::BatchTooLarge { got, limit } => {
                write!(f, "batch of {got} lines exceeds the {limit}-line limit")
            }
            CmdError::EmptyBatch => write!(f, "batch must contain at least one line"),
            CmdError::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

impl std::error::Error for CmdError {}

/// The line as UTF-8 text, rejecting over-long and non-UTF-8 lines before
/// any token is inspected.
fn text(line: &[u8]) -> Result<&str, CmdError> {
    if line.len() > MAX_LINE {
        return Err(CmdError::LineTooLong { limit: MAX_LINE });
    }
    // Tolerate a trailing \r from CRLF clients (e.g. telnet / nc -C).
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line).map_err(|_| CmdError::NotUtf8)
}

/// The line as UTF-8 tokens, or the appropriate error.
fn tokens(line: &[u8]) -> Result<Vec<&str>, CmdError> {
    let toks: Vec<&str> = text(line)?.split_ascii_whitespace().collect();
    if toks.is_empty() {
        return Err(CmdError::Empty);
    }
    Ok(toks)
}

fn num<T: std::str::FromStr>(tok: &str, what: &'static str) -> Result<T, CmdError> {
    tok.parse().map_err(|_| CmdError::BadNumber {
        what,
        got: truncate_for_display(tok),
    })
}

/// Keep error payloads bounded even when the offending token is huge.
fn truncate_for_display(tok: &str) -> String {
    if tok.len() <= 32 {
        tok.to_string()
    } else {
        let mut end = 32;
        while !tok.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &tok[..end])
    }
}

fn key(tok: &str) -> Result<String, CmdError> {
    if tok.is_empty() {
        return Err(CmdError::BadKey {
            detail: "key must be non-empty",
        });
    }
    if tok.len() > MAX_KEY {
        return Err(CmdError::BadKey {
            detail: "key exceeds the 128-byte limit",
        });
    }
    Ok(tok.to_string())
}

/// Parse the trailing window clause: `time <now> <range>` or `last <n>`.
fn window(toks: &[&str]) -> Result<WindowSpec, CmdError> {
    match toks {
        ["time", now, range] => Ok(WindowSpec::time(
            num(now, "window now")?,
            num(range, "window range")?,
        )),
        ["last", n] => Ok(WindowSpec::last(num(n, "window last_n")?)),
        [] => Err(CmdError::BadWindow {
            detail: "missing window clause: time <now> <range> | last <n>",
        }),
        _ => Err(CmdError::BadWindow {
            detail: "expected: time <now> <range> | last <n>",
        }),
    }
}

fn threshold(tok: &str) -> Result<Threshold, CmdError> {
    let bad = || CmdError::BadThreshold {
        got: truncate_for_display(tok),
    };
    if let Some(rest) = tok.strip_prefix("rel:") {
        let phi: f64 = rest.parse().map_err(|_| bad())?;
        if !(phi > 0.0 && phi < 1.0) {
            return Err(bad());
        }
        Ok(Threshold::Relative(phi))
    } else if let Some(rest) = tok.strip_prefix("abs:") {
        let n: f64 = rest.parse().map_err(|_| bad())?;
        if !(n.is_finite() && n >= 0.0) {
            return Err(bad());
        }
        Ok(Threshold::Absolute(n))
    } else {
        Err(bad())
    }
}

/// Parse a standing-view window clause: `time <range>` or `last <n>`.
/// Unlike an on-demand window there is no `now` — the view pins `now` to
/// the sketch's write clock at every evaluation.
fn view_window(toks: &[&str]) -> Result<ViewWindow, CmdError> {
    match toks {
        ["time", range] => Ok(ViewWindow::Time {
            range: num(range, "window range")?,
        }),
        ["last", n] => Ok(ViewWindow::Last {
            n: num(n, "window last_n")?,
        }),
        _ => Err(CmdError::BadWindow {
            detail: "expected: time <range> | last <n> (views pin `now` themselves)",
        }),
    }
}

/// Parse a view-definition tail: `<name> <kind> [args…] <window>`. This
/// is both the `VIEW CREATE` argument grammar and the form view specs are
/// persisted in (the snapshot manifest stores exactly this string, so a
/// restored definition re-enters through the same parser).
///
/// Kinds: `hh <key> <rel:φ|abs:n>`, `threshold <key> <point <item>|
/// self_join|total> <limit>`, `topk <k>`.
///
/// # Errors
/// A [`CmdError`]; never panics.
pub fn parse_view_def(toks: &[&str]) -> Result<ViewDef<String>, CmdError> {
    let arity = |expected| CmdError::WrongArity {
        verb: "VIEW CREATE",
        expected,
    };
    if toks.len() < 2 {
        return Err(arity("<name> <hh|threshold|topk> [args…] <window>"));
    }
    let name = key(toks[0])?;
    match toks[1] {
        "hh" => {
            if toks.len() < 4 {
                return Err(arity("<name> hh <key> <rel:φ|abs:n> <window>"));
            }
            Ok(ViewDef {
                name,
                key: Some(key(toks[2])?),
                query: StandingQuery::HeavyHitters {
                    threshold: threshold(toks[3])?,
                },
                window: view_window(&toks[4..])?,
            })
        }
        "threshold" => {
            if toks.len() < 4 {
                return Err(arity(
                    "<name> threshold <key> <point <item>|self_join|total> <limit> <window>",
                ));
            }
            let target = key(toks[2])?;
            let (query, rest) = match toks[3] {
                "point" => {
                    if toks.len() < 5 {
                        return Err(arity(
                            "<name> threshold <key> point <item> <limit> <window>",
                        ));
                    }
                    (
                        ScalarQuery::Point {
                            item: num(toks[4], "item")?,
                        },
                        &toks[5..],
                    )
                }
                "self_join" => (ScalarQuery::SelfJoin, &toks[4..]),
                "total" => (ScalarQuery::Total, &toks[4..]),
                other => {
                    return Err(CmdError::UnknownVerb {
                        verb: format!("VIEW CREATE threshold {}", truncate_for_display(other)),
                    })
                }
            };
            let [limit, window @ ..] = rest else {
                return Err(arity("<name> threshold <key> <query> <limit> <window>"));
            };
            let limit: f64 = num(limit, "limit")?;
            Ok(ViewDef {
                name,
                key: Some(target),
                query: StandingQuery::Threshold { query, limit },
                window: view_window(window)?,
            })
        }
        "topk" => {
            if toks.len() < 3 {
                return Err(arity("<name> topk <k> <window>"));
            }
            Ok(ViewDef {
                name,
                key: None,
                query: StandingQuery::TopK {
                    k: num(toks[2], "k")?,
                },
                window: view_window(&toks[3..])?,
            })
        }
        other => Err(CmdError::UnknownVerb {
            verb: format!("VIEW CREATE {}", truncate_for_display(other)),
        }),
    }
}

/// Render a definition back into its [`parse_view_def`] tail — the
/// persisted (manifest) and `VIEW LIST` form. Round-trips exactly: names
/// and keys are whitespace-free tokens and numbers use shortest
/// round-trip formatting.
pub fn wire_view_def(def: &ViewDef<String>) -> String {
    let window = match def.window {
        ViewWindow::Time { range } => format!("time {range}"),
        ViewWindow::Last { n } => format!("last {n}"),
    };
    match &def.query {
        StandingQuery::HeavyHitters { threshold } => {
            let threshold = match threshold {
                Threshold::Relative(phi) => format!("rel:{phi:?}"),
                Threshold::Absolute(n) => format!("abs:{n:?}"),
            };
            format!(
                "{} hh {} {threshold} {window}",
                def.name,
                def.key.as_deref().unwrap_or("?")
            )
        }
        StandingQuery::Threshold { query, limit } => {
            let query = match query {
                ScalarQuery::Point { item } => format!("point {item}"),
                ScalarQuery::SelfJoin => "self_join".to_string(),
                ScalarQuery::Total => "total".to_string(),
            };
            format!(
                "{} threshold {} {query} {limit:?} {window}",
                def.name,
                def.key.as_deref().unwrap_or("?")
            )
        }
        StandingQuery::TopK { k } => format!("{} topk {k} {window}", def.name),
    }
}

/// Parse the `(ts, item, count)` tail shared by `STORE` and batch data
/// lines.
fn event_tail(
    ts_tok: &str,
    item_tok: &str,
    count_tok: Option<&str>,
) -> Result<(u64, u64, u64), CmdError> {
    let ts = num(ts_tok, "ts")?;
    let item = num(item_tok, "item")?;
    let count: u64 = match count_tok {
        None => 1,
        Some(tok) => num(tok, "count")?,
    };
    if count == 0 || count > MAX_COUNT {
        return Err(CmdError::BadNumber {
            what: "count",
            got: truncate_for_display(count_tok.unwrap_or("0")),
        });
    }
    Ok((ts, item, count))
}

/// Parse one command line (everything except `BATCH` body lines).
///
/// # Errors
/// A [`CmdError`] describing exactly what was malformed; never panics.
pub fn parse_command(line: &[u8]) -> Result<Command, CmdError> {
    let toks = tokens(line)?;
    match toks[0] {
        "PING" => match toks.len() {
            1 => Ok(Command::Ping),
            _ => Err(CmdError::WrongArity {
                verb: "PING",
                expected: "no arguments",
            }),
        },
        "STORE" => {
            if toks.len() < 2 {
                return Err(CmdError::WrongArity {
                    verb: "STORE",
                    expected: "<key> <ts> <item> [<count>]",
                });
            }
            let key = key(toks[1])?;
            let (ts, item, count) = match toks[2..] {
                [ts, item] => event_tail(ts, item, None),
                [ts, item, count] => event_tail(ts, item, Some(count)),
                _ => Err(CmdError::WrongArity {
                    verb: "STORE",
                    expected: "<key> <ts> <item> [<count>]",
                }),
            }?;
            Ok(Command::Store {
                key,
                ts,
                item,
                count,
            })
        }
        "BATCH" => {
            if toks.len() != 2 {
                return Err(CmdError::WrongArity {
                    verb: "BATCH",
                    expected: "<n>",
                });
            }
            let n: usize = num(toks[1], "batch size")?;
            if n == 0 {
                return Err(CmdError::EmptyBatch);
            }
            if n > MAX_BATCH {
                return Err(CmdError::BatchTooLarge {
                    got: n,
                    limit: MAX_BATCH,
                });
            }
            Ok(Command::Batch { n })
        }
        "QUERY" => {
            if toks.len() < 3 {
                return Err(CmdError::WrongArity {
                    verb: "QUERY",
                    expected: "<key> <kind> [args…] <window>",
                });
            }
            let key = key(toks[1])?;
            let (query, rest) = match toks[2] {
                "point" => {
                    if toks.len() < 4 {
                        return Err(CmdError::WrongArity {
                            verb: "QUERY",
                            expected: "<key> point <item> <window>",
                        });
                    }
                    (
                        OwnedQuery::Point {
                            item: num(toks[3], "item")?,
                        },
                        &toks[4..],
                    )
                }
                "self_join" => (OwnedQuery::SelfJoin, &toks[3..]),
                "range" => {
                    if toks.len() < 5 {
                        return Err(CmdError::WrongArity {
                            verb: "QUERY",
                            expected: "<key> range <lo> <hi> <window>",
                        });
                    }
                    (
                        OwnedQuery::Range {
                            lo: num(toks[3], "range lo")?,
                            hi: num(toks[4], "range hi")?,
                        },
                        &toks[5..],
                    )
                }
                "heavy_hitters" => {
                    if toks.len() < 4 {
                        return Err(CmdError::WrongArity {
                            verb: "QUERY",
                            expected: "<key> heavy_hitters <rel:φ|abs:n> <window>",
                        });
                    }
                    (
                        OwnedQuery::HeavyHitters {
                            threshold: threshold(toks[3])?,
                        },
                        &toks[4..],
                    )
                }
                "quantile" => {
                    if toks.len() < 4 {
                        return Err(CmdError::WrongArity {
                            verb: "QUERY",
                            expected: "<key> quantile <phi> <window>",
                        });
                    }
                    let phi: f64 = num(toks[3], "phi")?;
                    (OwnedQuery::Quantile { phi }, &toks[4..])
                }
                "total" => (OwnedQuery::Total, &toks[3..]),
                other => {
                    return Err(CmdError::UnknownVerb {
                        verb: format!("QUERY {}", truncate_for_display(other)),
                    })
                }
            };
            Ok(Command::Query {
                key,
                query,
                window: window(rest)?,
            })
        }
        "TOPK" => {
            if toks.len() < 2 {
                return Err(CmdError::WrongArity {
                    verb: "TOPK",
                    expected: "<k> <window>",
                });
            }
            let k: usize = num(toks[1], "k")?;
            if k == 0 {
                return Err(CmdError::BadNumber {
                    what: "k",
                    got: "0".to_string(),
                });
            }
            Ok(Command::TopK {
                k,
                window: window(&toks[2..])?,
            })
        }
        "STATS" => match toks.len() {
            1 => Ok(Command::Stats),
            _ => Err(CmdError::WrongArity {
                verb: "STATS",
                expected: "no arguments",
            }),
        },
        "FLUSH" => match toks.len() {
            2 => Ok(Command::Flush {
                ts: num(toks[1], "ts")?,
            }),
            _ => Err(CmdError::WrongArity {
                verb: "FLUSH",
                expected: "<ts>",
            }),
        },
        "SNAPSHOT" => match toks[1..] {
            [dir] | [dir, "full"] => Ok(Command::Snapshot {
                dir: dir.to_string(),
            }),
            [_, "incr"] => Err(CmdError::BadRequest {
                detail: "SNAPSHOT option `incr` is retired: every checkpoint is full, \
                         and the write-ahead log carries what follows it",
            }),
            _ => Err(CmdError::WrongArity {
                verb: "SNAPSHOT",
                expected: "<dir> [full]",
            }),
        },
        "VIEW" => {
            if toks.len() < 2 {
                return Err(CmdError::WrongArity {
                    verb: "VIEW",
                    expected: "CREATE|READ|DROP|LIST …",
                });
            }
            match toks[1] {
                "CREATE" => Ok(Command::CreateView {
                    def: parse_view_def(&toks[2..])?,
                }),
                "READ" => match toks.len() {
                    3 => Ok(Command::ReadView {
                        name: key(toks[2])?,
                    }),
                    _ => Err(CmdError::WrongArity {
                        verb: "VIEW READ",
                        expected: "<name>",
                    }),
                },
                "DROP" => match toks.len() {
                    3 => Ok(Command::DropView {
                        name: key(toks[2])?,
                    }),
                    _ => Err(CmdError::WrongArity {
                        verb: "VIEW DROP",
                        expected: "<name>",
                    }),
                },
                "LIST" => match toks.len() {
                    2 => Ok(Command::ListViews),
                    _ => Err(CmdError::WrongArity {
                        verb: "VIEW LIST",
                        expected: "no arguments",
                    }),
                },
                other => Err(CmdError::UnknownVerb {
                    verb: format!("VIEW {}", truncate_for_display(other)),
                }),
            }
        }
        "SUBSCRIBE" => match toks.len() {
            2 => Ok(Command::Subscribe {
                view: key(toks[1])?,
            }),
            _ => Err(CmdError::WrongArity {
                verb: "SUBSCRIBE",
                expected: "<view>",
            }),
        },
        "SHUTDOWN" => match toks.len() {
            1 => Ok(Command::Shutdown),
            _ => Err(CmdError::WrongArity {
                verb: "SHUTDOWN",
                expected: "no arguments",
            }),
        },
        other => Err(CmdError::UnknownVerb {
            verb: truncate_for_display(other),
        }),
    }
}

/// Parse one `BATCH` body line: `<key> <ts> <item> [<count>]`. The tokens
/// are walked in place, so the returned key is the line's only allocation.
///
/// # Errors
/// A [`CmdError`]; never panics.
pub fn parse_data_line(line: &[u8]) -> Result<(String, StreamEvent, u64), CmdError> {
    let arity = CmdError::WrongArity {
        verb: "BATCH line",
        expected: "<key> <ts> <item> [<count>]",
    };
    let mut toks = text(line)?.split_ascii_whitespace();
    let key_tok = toks.next().ok_or(CmdError::Empty)?;
    let (Some(ts), Some(item)) = (toks.next(), toks.next()) else {
        return Err(arity);
    };
    let count = toks.next();
    let key = key(key_tok)?;
    if toks.next().is_some() {
        return Err(arity);
    }
    let (ts, item, count) = event_tail(ts, item, count)?;
    Ok((key, StreamEvent::new(item, ts), count))
}
