//! **Ablation: aggregation error budgeting (paper §5.1).** Two sweeps:
//!
//! 1. the merge output error ε′ — Theorem 4 predicts total error
//!    `ε + ε′ + ε·ε′`, so shrinking ε′ below the sites' ε buys accuracy at
//!    memory cost, while inflating it degrades the root sketch;
//! 2. hierarchy depth h at fixed per-site ε — err₂ grows additively with
//!    levels — versus the `multilevel_epsilon` compensation that plans
//!    per-site ε to hit a target root error.

use distributed::aggregate_tree;
use ecm::{EcmEh, SketchSpec, SketchWriter};
use ecm_bench::{header, mb, score_point_queries};
use sliding_window::exponential_histogram::multilevel_epsilon;
use sliding_window::EhConfig;
use stream_gen::{partition_by_site, uniform_sites, WindowOracle};

const WINDOW: u64 = 1_000_000;

fn main() {
    let n_events = std::env::var("ECM_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    // Sweep 1: merge output ε′ at fixed site ε.
    let site_eps = 0.1;
    let events = uniform_sites(n_events, 8, 42);
    let oracle = WindowOracle::from_events(&events);
    let now = oracle.last_tick();
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(site_eps)
        .seed(7)
        .ecm_config()
        .unwrap();
    let parts = partition_by_site(&events, 8);

    println!("Ablation 1: merge output epsilon' (8 sites, site eps = {site_eps})");
    header(
        "root accuracy and size vs eps'",
        "eps'     root_avg_err   root_max_err   root_MB",
    );
    for &eps_prime in &[0.02f64, 0.05, 0.1, 0.2, 0.4] {
        let out_cell = EhConfig::new(eps_prime, WINDOW);
        let out = aggregate_tree(
            8,
            |i| {
                let mut sk = EcmEh::new(&cfg);
                sk.set_id_namespace(i as u64 + 1);
                for e in &parts[i] {
                    sk.insert(e.ts, e.key);
                }
                sk
            },
            &out_cell,
        )
        .unwrap();
        let s = score_point_queries(&out.root, &oracle, now, 300);
        println!(
            "{:<8} {:>12.5} {:>14.5} {:>9.3}",
            eps_prime,
            s.avg,
            s.max,
            mb(out.root.memory_bytes())
        );
    }
    println!(
        "(Theorem 4: total ≤ eps + eps' + eps·eps'; smaller eps' → bigger, more accurate root)"
    );

    // Sweep 2: hierarchy depth with and without multilevel compensation.
    println!("\nAblation 2: hierarchy depth h (target root error 0.1)");
    header(
        "uncompensated (site eps = 0.1) vs compensated (multilevel_epsilon)",
        "nodes  h   plain_err   comp_site_eps   comp_err    comp_MB_ratio",
    );
    for &nodes in &[2usize, 8, 32, 128] {
        let h = usize::BITS - (nodes - 1).leading_zeros();
        let events = uniform_sites(n_events, nodes as u32, 77);
        let oracle = WindowOracle::from_events(&events);
        let now = oracle.last_tick();
        let parts = partition_by_site(&events, nodes as u32);

        let run = |site_eps: f64| {
            let cfg = SketchSpec::time(WINDOW)
                .epsilon(site_eps)
                .seed(9)
                .ecm_config()
                .unwrap();
            let out = aggregate_tree(
                nodes,
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
            .unwrap();
            let s = score_point_queries(&out.root, &oracle, now, 300);
            (s.avg, out.root.memory_bytes())
        };

        let (plain_err, plain_mem) = run(0.1);
        let comp_eps = multilevel_epsilon(0.1, h);
        let (comp_err, comp_mem) = run(comp_eps);
        println!(
            "{:<6} {:<3} {:>9.5} {:>14.4} {:>10.5} {:>14.2}",
            nodes,
            h,
            plain_err,
            comp_eps,
            comp_err,
            comp_mem as f64 / plain_mem as f64
        );
    }
    println!("(compensation buys root accuracy with a modest per-site memory premium)");
}
