//! **Replay a real trace through the centralized evaluation.**
//!
//! The shipped experiments use synthetic substitutes for the paper's
//! proprietary traces (DESIGN.md §4). If you hold the real WorldCup'98 or
//! CRAWDAD data — or any timestamped key stream — convert it to the CSV
//! (`ts,key,site`) or binary format of `stream_gen::trace_io` and point this
//! binary at it to reproduce the Fig. 4 columns on the real thing:
//!
//! ```bash
//! cargo run --release -p ecm-bench --bin replay_trace -- trace.csv
//! ECM_EPS=0.05 cargo run --release -p ecm-bench --bin replay_trace -- trace.bin
//! ```

use ecm::{QueryKind, SketchSpec};
use ecm_bench::{build_sketch_batched, header, mb, score_point_queries, score_self_join};
use sliding_window::ExponentialHistogram;
use std::fs::File;
use stream_gen::{read_binary, read_csv, uniform_sites, write_csv, Event, WindowOracle};

const WINDOW: u64 = 1_000_000;

fn load(path: &str) -> Vec<Event> {
    let file = File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
    if path.ends_with(".csv") {
        read_csv(file).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
    } else {
        read_binary(file).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
    }
}

fn main() {
    let eps: f64 = std::env::var("ECM_EPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let args: Vec<String> = std::env::args().collect();
    let events = match args.get(1) {
        Some(path) => {
            println!("replaying {path}");
            load(path)
        }
        None => {
            // Self-demonstration: write a synthetic trace out and read it
            // back, so the binary exercises the full I/O path.
            let demo = uniform_sites(50_000, 8, 42);
            let path = std::env::temp_dir().join("ecm_demo_trace.csv");
            write_csv(&demo, File::create(&path).expect("temp file")).expect("write");
            println!(
                "no trace given; demonstrating with a synthetic one at {}",
                path.display()
            );
            load(path.to_str().expect("utf-8 temp path"))
        }
    };
    assert!(!events.is_empty(), "trace is empty");
    let sites = events.iter().map(|e| e.site).max().unwrap_or(0) + 1;
    println!(
        "{} events, {} distinct sites, ticks {}..{}",
        events.len(),
        sites,
        events.first().unwrap().ts,
        events.last().unwrap().ts
    );

    let oracle = WindowOracle::from_events(&events);
    let now = oracle.last_tick();
    header(
        &format!("centralized ECM-EH at eps = {eps} (window = {WINDOW})"),
        "query        avg_err     max_err     queries   memory_MB",
    );
    for kind in [QueryKind::Point, QueryKind::InnerProduct] {
        let cfg = SketchSpec::time(WINDOW)
            .epsilon(eps)
            .query_kind(kind)
            .seed(7)
            .ecm_config::<ExponentialHistogram>()
            .unwrap();
        // Batched ingest: real traces carry same-(key, ts) bursts, which
        // collapse into weighted updates (bit-identical to the per-event
        // loop; see benches/kernels.rs for the throughput delta).
        let sk = build_sketch_batched(&cfg, &events);
        let (label, s) = match kind {
            QueryKind::Point => ("point", score_point_queries(&sk, &oracle, now, 300)),
            QueryKind::InnerProduct => ("self-join", score_self_join(&sk, &oracle, now)),
        };
        println!(
            "{:<12} {:>9.5} {:>11.5} {:>9} {:>11.3}",
            label,
            s.avg,
            s.max,
            s.queries,
            mb(sk.memory_bytes())
        );
    }
    println!("(both observed errors must sit below the configured eps = {eps})");
}
