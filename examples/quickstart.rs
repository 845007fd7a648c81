//! Quickstart: build an ECM-sketch over a sliding window, answer point and
//! self-join queries through the unified typed query API, and compare
//! against exact counts.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use ecm::{EcmEh, Query, QueryKind, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use std::collections::HashMap;

fn main() {
    // A 0.1-approximate, 90%-confidence sketch over a 1-hour window
    // (ticks are seconds here).
    let window = 3_600u64;
    let cfg = SketchSpec::time(window)
        .query_kind(QueryKind::Point)
        .seed(42)
        .ecm_config()
        .unwrap();
    let mut sketch = EcmEh::new(&cfg);
    println!(
        "ECM-EH sketch: {}x{} cells, ε_sw = {:.4}, window = {window}s",
        sketch.width(),
        sketch.depth(),
        cfg.cell.epsilon
    );

    // Feed two hours of a skewed synthetic stream: key 7 is hot early,
    // key 13 is hot late.
    let mut exact: HashMap<u64, Vec<u64>> = HashMap::new();
    for t in 1..=7_200u64 {
        let key = if t <= 3_600 {
            if t % 3 == 0 {
                7
            } else {
                t % 100
            }
        } else if t % 3 == 0 {
            13
        } else {
            t % 100
        };
        sketch.insert(t, key);
        exact.entry(key).or_default().push(t);
    }

    let now = 7_200u64;
    let truth = |key: u64, range: u64| -> u64 {
        exact.get(&key).map_or(0, |ts| {
            ts.iter()
                .filter(|&&t| t > now.saturating_sub(range))
                .count() as u64
        })
    };

    println!("\npoint queries over the last hour (window covers 3600..7200):");
    for key in [7u64, 13, 50] {
        let est = sketch
            .query(&Query::point(key), WindowSpec::time(now, window))
            .expect("window is within configuration")
            .into_value();
        println!(
            "  key {key:>3}: estimated {:>7.1} ± {:>5.1}, exact {:>5}",
            est.value,
            est.absolute_bound(3_600.0).unwrap(),
            truth(key, window)
        );
    }

    println!("\npoint queries over the last 10 minutes:");
    for key in [7u64, 13, 50] {
        let est = sketch
            .query(&Query::point(key), WindowSpec::time(now, 600))
            .unwrap()
            .into_value();
        println!(
            "  key {key:>3}: estimated {:>7.1}, exact {:>5}",
            est.value,
            truth(key, 600)
        );
    }

    // Self-join (F2) over the last hour — a measure of stream skew.
    let w = WindowSpec::time(now, window);
    let sj = sketch.query(&Query::self_join(), w).unwrap().into_value();
    let exact_sj: f64 = exact
        .keys()
        .map(|&k| {
            let f = truth(k, window) as f64;
            f * f
        })
        .sum();
    println!(
        "\nself-join over the last hour: estimated {:.0}, exact {exact_sj:.0}",
        sj.value
    );
    let total = sketch
        .query(&Query::total_arrivals(), w)
        .unwrap()
        .into_value();
    println!(
        "total arrivals in window: estimated {:.0}, exact 3600",
        total.value
    );

    // The typed API refuses out-of-contract windows instead of clamping.
    let too_wide = sketch.query(&Query::point(7), WindowSpec::time(now, window * 2));
    println!("asking for a 2-hour window: {}", too_wide.unwrap_err());
    println!("sketch memory: {} KiB", sketch.memory_bytes() / 1024);
}
