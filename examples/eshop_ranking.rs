//! The paper's e-commerce motivation (§1): "ranking products in a
//! cloud-based e-shop, based on the number of recent visits of each
//! product". One hierarchy of ECM-sketches answers, over any recency
//! horizon: which products are trending (heavy hitters), how is traffic
//! distributed over the catalog (quantiles), and how concentrated is demand
//! (self-join skew) — while a count-clock sketch ranks by "last N visits"
//! instead of wall-clock recency.
//!
//! ```bash
//! cargo run --release --example eshop_ranking
//! ```

use ecm::{EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec};
use sliding_window::ExponentialHistogram;
use stream_gen::SeededRng;

const WINDOW: u64 = 86_400; // one day of seconds
const CATALOG_BITS: u32 = 14; // 16 384 products

fn main() {
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(0.05)
        .delta(0.05)
        .seed(7)
        .ecm_config()
        .unwrap();
    let mut visits: EcmHierarchy<ExponentialHistogram> = EcmHierarchy::new(CATALOG_BITS, &cfg);
    let last_n = SketchSpec::count(10_000).epsilon(0.05).delta(0.05).seed(8);
    let mut last_visits = last_n.build().unwrap();

    // Three days of browsing: steady Zipf-ish interest, plus a product
    // launch (id 777) that goes viral on day 3.
    let mut rng = SeededRng::seed_from_u64(99);
    let total_ticks = 3 * WINDOW;
    for t in 1..=total_ticks {
        let product = if t > 2 * WINDOW && rng.gen_bool(0.25) {
            777 // viral launch
        } else {
            // Skewed catalog interest.
            let r = rng.gen_f64();
            ((r * r * 16_000.0) as u64).min((1 << CATALOG_BITS) - 1)
        };
        visits.insert(t, product);
        last_visits.insert(t, product); // the count clock ignores the tick
    }
    let now = total_ticks;

    println!("catalog analytics over the last 24h (ECM hierarchy, ε = 0.05):");
    let day = WindowSpec::time(now, WINDOW);
    let day_total = visits
        .query(&Query::total_arrivals(), day)
        .unwrap()
        .into_value()
        .value;
    println!("  visits in window: ≈ {day_total:.0}");

    let trending = visits
        .query(&Query::heavy_hitters(Threshold::Relative(0.02)), day)
        .unwrap()
        .into_heavy_hitters();
    println!("  trending products (> 2% of traffic):");
    for (product, est) in trending.iter().take(8) {
        println!("    #{product:<6} ≈ {:>8.0} visits", est.value);
    }
    assert!(
        trending.iter().any(|&(p, _)| p == 777),
        "the viral product must trend"
    );

    // Catalog concentration: which product id splits the traffic in half?
    for &phi in &[0.25f64, 0.5, 0.9] {
        let q = visits
            .query(&Query::quantile(phi), day)
            .unwrap()
            .into_quantile()
            .unwrap();
        println!("  {:.0}% of visits fall on products ≤ #{q}", phi * 100.0);
    }

    // Demand concentration via the self-join of the level-0 sketch.
    let f2 = visits
        .query(&Query::self_join(), day)
        .unwrap()
        .into_value()
        .value;
    let uniform_f2 = day_total * day_total / f64::from(1 << CATALOG_BITS);
    println!(
        "  demand skew: F2 ≈ {f2:.2e} ({}x the uniform-catalog baseline)",
        (f2 / uniform_f2) as u64
    );

    // Popularity over the last 10 000 visits, wall clock ignored.
    println!("\ncount-based ranking (last 10 000 visits):");
    let viral = last_visits
        .query(&Query::point(777), WindowSpec::last(10_000))
        .unwrap()
        .into_value()
        .value;
    println!("  #777 holds ≈ {viral:.0} of the last 10 000 visits");
    assert!(viral > 1_500.0, "viral product dominates recent visits");

    println!(
        "\nmemory: hierarchy {} KiB, count-based sketch {} KiB",
        visits.memory_bytes() / 1024,
        last_visits.memory_bytes() / 1024
    );
}
