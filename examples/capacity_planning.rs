//! Deploying a sketch hierarchy with an error budget (paper §5.1).
//!
//! An operator wants 10%-accurate sliding-window frequency statistics at the
//! root of a 64-site aggregation tree. Naively giving every site ε = 0.1
//! blows the budget — merge error is additive per level — so the deployment
//! must *budget*: [`HierarchyPlan`] derives the per-site ε, the sketch
//! dimensions, and memory/transfer predictions; the simulation then checks
//! the plan against a real aggregation run.
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```

use distributed::{aggregate_tree, naive_compounded_epsilon, per_level_errors, HierarchyPlan};
use ecm::{EcmConfig, EcmEh, Query, SketchReader, SketchWriter, WindowSpec};
use sliding_window::EhConfig;
use stream_gen::{partition_by_site, uniform_sites, WindowOracle};

const WINDOW: u64 = 1_000_000;
const SITES: usize = 64;
const TARGET_EPS: f64 = 0.1;

fn main() {
    // 1. Plan the deployment.
    let plan = HierarchyPlan::point_queries(TARGET_EPS, 0.05, WINDOW, SITES, 100_000);
    println!(
        "deployment plan for {} sites (h = {} levels):",
        plan.sites, plan.levels
    );
    println!("  end-to-end target      ε  = {:.4}", plan.target_epsilon);
    println!(
        "  window / hashing split    = {:.4} / {:.4}",
        plan.window_epsilon, plan.hashing_epsilon
    );
    println!("  budgeted per-site      ε  = {:.4}", plan.site_epsilon);
    println!(
        "  sketch dimensions         = {} × {}",
        plan.width, plan.depth
    );
    println!(
        "  predicted sketch size     ≈ {} KiB",
        plan.sketch_bytes / 1024
    );
    println!(
        "  predicted aggregation     ≈ {} KiB over {} transfers",
        plan.transfer_bytes / 1024,
        2 * (SITES - 1)
    );
    println!(
        "  budgeting memory premium  ≈ {:.1}×",
        plan.budgeting_memory_factor()
    );

    // What the error *would* do without budgeting, level by level.
    println!(
        "\nworst-case window error by level (site ε = window share {:.4}):",
        plan.window_epsilon
    );
    for (level, err) in per_level_errors(plan.window_epsilon, plan.levels)
        .iter()
        .enumerate()
    {
        println!(
            "  level {level}: {err:.4}{}",
            if *err > plan.window_epsilon * 1.001 {
                "  ← over budget"
            } else {
                ""
            }
        );
    }
    println!(
        "  (naive per-level compounding would predict {:.4})",
        naive_compounded_epsilon(plan.window_epsilon, plan.levels)
    );

    // 2. Simulate the deployment.
    let events = uniform_sites(150_000, SITES as u32, 2024);
    let oracle = WindowOracle::from_events(&events);
    let parts = partition_by_site(&events, SITES as u32);
    let cfg: EcmConfig<sliding_window::ExponentialHistogram> = EcmConfig {
        width: plan.width,
        depth: plan.depth,
        seed: 7,
        cell: EhConfig::new(plan.site_epsilon, WINDOW),
    };
    let out = aggregate_tree(
        SITES,
        |i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        },
        &cfg.cell,
    )
    .expect("homogeneous sketches merge");

    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;
    let mut worst = 0.0f64;
    let mut sum = 0.0;
    let mut n = 0u32;
    for key in 0..5_000u64 {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        if exact == 0.0 {
            continue;
        }
        let est = out
            .query(&Query::point(key), WindowSpec::time(now, WINDOW))
            .unwrap()
            .into_value()
            .value;
        let err = (est - exact).abs() / norm;
        worst = worst.max(err);
        sum += err;
        n += 1;
    }

    println!("\nsimulated aggregation over {} events:", events.len());
    println!(
        "  actual transfer volume    = {} KiB",
        out.stats.bytes / 1024
    );
    println!(
        "  observed error: avg {:.5}, worst {:.5} (target {TARGET_EPS})",
        sum / f64::from(n),
        worst
    );
    assert!(worst <= TARGET_EPS, "deployment must meet its budget");
    println!("  → plan verified: the root meets its end-to-end target");
}
