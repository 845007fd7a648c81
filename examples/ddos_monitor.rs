//! The paper's motivating scenario (§1): network nodes maintain
//! sliding-window frequency statistics of target IPs; a coordinator
//! aggregates them and flags targets whose recent request count exceeds a
//! capacity threshold — the distributed-trigger DDoS detection scheme of
//! Jain et al.
//!
//! This example runs 8 "routers", injects a flood toward one target IP in
//! the last quarter of the trace, aggregates the per-router hierarchies and
//! reports sliding-window heavy hitters.
//!
//! ```bash
//! cargo run --release --example ddos_monitor
//! ```

use ecm::{EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec};
use sliding_window::ExponentialHistogram;
use stream_gen::SeededRng;

const ROUTERS: usize = 8;
const WINDOW: u64 = 10_000; // seconds
const UNIVERSE_BITS: u32 = 16; // 65 536 target addresses

fn main() {
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(0.05)
        .delta(0.05)
        .seed(2024)
        .ecm_config()
        .unwrap();
    let mut routers: Vec<EcmHierarchy<ExponentialHistogram>> = (0..ROUTERS)
        .map(|_| EcmHierarchy::new(UNIVERSE_BITS, &cfg))
        .collect();

    // Background traffic: uniform-ish requests to many targets, observed by
    // random routers. Flood: target 0xBEEF hammered in the last quarter.
    let mut rng = SeededRng::seed_from_u64(7);
    let total_ticks = 40_000u64;
    let victim = 0xBEEFu64;
    let mut victim_requests = 0u64;
    for t in 1..=total_ticks {
        let router = rng.gen_range(0..ROUTERS);
        let target = rng.gen_range(0u64..(1 << UNIVERSE_BITS));
        routers[router].insert(t, target);
        if t > 3 * total_ticks / 4 {
            // Flood wave: every tick, several routers see the victim.
            for _ in 0..3 {
                let router = rng.gen_range(0..ROUTERS);
                routers[router].insert(t, victim);
                victim_requests += 1;
            }
        }
    }
    println!("injected {victim_requests} flood requests toward {victim:#x}");

    // Coordinator: order-preserving aggregation of the router hierarchies.
    let refs: Vec<&EcmHierarchy<ExponentialHistogram>> = routers.iter().collect();
    let global = EcmHierarchy::merge(&refs, &cfg.cell).unwrap();

    let now = total_ticks;
    let w = WindowSpec::time(now, WINDOW);
    let in_window = global
        .query(&Query::total_arrivals(), w)
        .unwrap()
        .into_value()
        .value;
    println!("arrivals in the last {WINDOW}s (all routers): ≈ {in_window:.0}");

    // Capacity threshold: no single target should receive more than 5% of
    // recent traffic.
    let alerts = global
        .query(&Query::heavy_hitters(Threshold::Relative(0.05)), w)
        .unwrap()
        .into_heavy_hitters();
    println!("\ntargets above 5% of recent traffic:");
    for (target, est) in &alerts {
        println!("  {target:#07x}: ≈ {:.0} requests in window", est.value);
    }
    assert!(
        alerts.iter().any(|&(t, _)| t == victim),
        "the flooded target must be flagged"
    );

    // Drill-down: victim's request rate over exponentially growing ranges.
    println!("\nvictim rate profile:");
    for range in [100u64, 1_000, 10_000] {
        let est = global
            .query(&Query::point(victim), WindowSpec::time(now, range))
            .unwrap()
            .into_value()
            .value;
        println!("  last {range:>6}s: ≈ {est:>8.0} requests");
    }
    println!(
        "\nper-router memory: {} KiB",
        routers[0].memory_bytes() / 1024
    );
}
