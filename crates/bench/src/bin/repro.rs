//! Regenerates `REPRODUCTION.json`: every table and figure cell of the
//! paper's evaluation that the workspace reproduces, one claim record per
//! qualitative shape of the paper (its measured value, fixed margin and
//! verdict), and the machine it ran on. `tests/reproduction.rs` checks the
//! file. `ECM_EVENTS` (default 200 000) scales the traces; the checked-in
//! file is a release run at the default.
//!
//! ```bash
//! cargo run --release -p bench --bin repro                    # rewrites REPRODUCTION.json
//! ECM_EVENTS=20000 cargo run --release -p bench --bin repro -- /tmp/repro.json
//! cargo run --release -p bench --bin repro -- --trace trace.csv out.json
//! ```
//!
//! `--trace FILE` runs the Fig. 4 experiment on a real trace instead of the
//! synthetic suite: a `ts,key,site` CSV (`.csv`) or the binary format of
//! `stream_gen::trace_io`. Without an output path its document goes to
//! stdout, so the checked-in file is never overwritten by a replay.

use ecm_bench::json::{env_block, object, rows, text};
use ecm_bench::repro::{self, Report};
use ecm_bench::{event_budget, WINDOW};
use std::fs::File;
use stream_gen::{read_binary, read_csv};

/// A measured value as JSON, to six decimal places without trailing zeros.
fn value(v: f64) -> String {
    assert!(v.is_finite(), "a measured value is not finite: {v}");
    let fixed = format!("{v:.6}");
    fixed
        .trim_end_matches('0')
        .trim_end_matches('.')
        .to_string()
}

fn document(report: &Report, workload: String) -> String {
    let mut claims = Vec::new();
    for c in &report.claims {
        // Value and margin at full precision: the verdict must follow from
        // what is written.
        assert!(c.value.is_finite(), "claim {} measured {}", c.id, c.value);
        let (paper, measures) = (text(c.paper), text(c.measures));
        let value = [("value", c.value.to_string()), ("op", text(c.op))];
        let margin = [
            ("margin", c.margin.to_string()),
            ("verdict", text(c.verdict())),
        ];
        let head = [("id", text(c.id)), ("paper", paper), ("measures", measures)];
        claims.push(object(&[&head[..], &value, &margin].concat()));
    }
    let mut cells = Vec::new();
    for r in &report.rows {
        let mut fields = vec![("exp", text(r.exp))];
        fields.extend(r.labels.iter().map(|(k, v)| (*k, text(v))));
        fields.extend(
            r.names
                .split(' ')
                .zip(&r.values)
                .map(|(k, &v)| (k, value(v))),
        );
        cells.push(object(&fields));
    }
    format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"repro\",\n  \"env\": {},\n  \
         \"workload\": {workload},\n  \"claims\": {},\n  \"rows\": {}\n}}\n",
        env_block(),
        rows(&claims),
        rows(&cells)
    )
}

fn main() {
    let usage = "usage: repro [--trace FILE] [OUT]";
    let (mut trace, mut out) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = Some(args.next().expect(usage)),
            _ if out.is_none() => out = Some(arg),
            _ => panic!("{usage}"),
        }
    }
    let window = ("window", WINDOW.to_string());
    let (report, workload) = if let Some(path) = &trace {
        let file = File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        let read = if path.ends_with(".csv") {
            read_csv
        } else {
            read_binary
        };
        let events = read(file).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
        assert!(!events.is_empty(), "{path} holds no events");
        let sites = events.iter().map(|e| e.site).max().unwrap_or(0) + 1;
        let n = ("events", events.len().to_string());
        let workload = object(&[("trace", text(path)), n, window]);
        (repro::fig4(&[(path.as_str(), &events, sites)]), workload)
    } else {
        let n = event_budget();
        eprintln!("running every experiment at {n} events");
        (
            repro::suite(n),
            object(&[("events", n.to_string()), window]),
        )
    };
    for c in &report.claims {
        let (verdict, id) = (c.verdict(), c.id);
        eprintln!("{verdict:<16} {id:<40} {} {} {}", c.value, c.op, c.margin);
    }
    let json = document(&report, workload);
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.json");
    match out.or_else(|| trace.is_none().then(|| default.to_string())) {
        Some(path) => {
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
