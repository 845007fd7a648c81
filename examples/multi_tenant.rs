//! Multi-tenant quickstart: one `SketchSpec` describes every tenant's
//! sketch, a `SketchStore` creates them lazily, ingests mixed-key batches,
//! and answers cross-tenant queries — and reports what each tenant costs.
//!
//! The scenario: a shared API gateway tracks per-tenant request streams
//! over a 1-hour sliding window. Most tenants are quiet; a few are heavy.
//! The store never evicts a tenant (an evicted key would answer 0, an
//! undercount the sketch's guarantee forbids), so memory is sized from
//! `memory_report()`, and a caller that must cap it refuses new keys.
//!
//! ```bash
//! cargo run --release --example multi_tenant
//! ```

use ecm::{Query, SketchSpec, SketchStore, StreamEvent, WindowSpec};
use stream_gen::{SeededRng, ZipfSampler};

const WINDOW: u64 = 3_600; // 1 hour of 1-second ticks
const TENANTS: u64 = 200;

fn main() {
    // One description for the whole fleet: ε = 0.1, δ = 0.1, ECM-EH cells.
    let spec = SketchSpec::time(WINDOW).epsilon(0.1).delta(0.1).seed(42);
    let mut store: SketchStore<u64> = SketchStore::new(spec).expect("valid spec");

    // Two hours of gateway traffic: tenant popularity is Zipf-skewed, each
    // request carries an endpoint id (the item being counted).
    let mut rng = SeededRng::seed_from_u64(7);
    let tenants = ZipfSampler::new(TENANTS, 1.1);
    let mut batch: Vec<(u64, StreamEvent)> = Vec::with_capacity(4_096);
    let mut total = 0u64;
    for t in 1..=(2 * WINDOW) {
        for _ in 0..rng.gen_range(1..6u64) {
            let tenant = tenants.sample(&mut rng);
            let endpoint = rng.gen_range(0..32u64);
            batch.push((tenant, StreamEvent::new(endpoint, t)));
            total += 1;
        }
        if batch.len() >= 4_096 {
            store.ingest(&batch); // grouped per tenant before dispatch
            batch.clear();
        }
    }
    store.ingest(&batch);

    let now = 2 * WINDOW;
    let w = WindowSpec::time(now, WINDOW);
    println!(
        "{total} requests over {TENANTS} tenants → {} resident sketches",
        store.len()
    );
    assert!(store.len() as u64 <= TENANTS);

    // Which tenants carried the most traffic in the last hour?
    println!("\ntop tenants by windowed request volume:");
    for (tenant, volume) in store.top_k(5, &Query::total_arrivals(), w) {
        println!("  tenant {tenant:>5}: ≈ {volume:>8.0} requests");
    }

    // Drill into one tenant: per-endpoint frequency with its guarantee.
    let (hot, _) = store.top_k(1, &Query::total_arrivals(), w).remove(0);
    let est = store
        .query(&hot, &Query::point(0), w)
        .expect("hot tenant is resident")
        .expect("in-window point query")
        .into_value();
    let g = est.guarantee.expect("EH sketches carry guarantees");
    println!(
        "\ntenant {hot}, endpoint 0: ≈ {:.0} requests (±ε·N with ε = {:.3}, δ = {:.2})",
        est.value, g.epsilon, g.delta
    );

    // What the fleet costs, largest tenant first: the numbers a key budget
    // is set from.
    let report = store.memory_report();
    println!(
        "\nmemory: {} bytes over {} sketches ({} per tenant on average); largest:",
        report.total,
        report.per_key.len(),
        report.total / report.per_key.len().max(1)
    );
    for (tenant, bytes) in report.per_key.iter().take(3) {
        println!("  tenant {tenant:>5}: {bytes:>8} bytes");
    }
    assert_eq!(report.total, store.memory_bytes());
    assert_eq!(report.per_key.len(), store.len());
}
