//! **Ablation: the ε-split optimization (paper §4.1).** How much memory does
//! the paper's optimal division of the error budget between the Count-Min
//! dimension (ε_cm) and the window dimension (ε_sw) actually save, compared
//! to naive splits, at identical end-to-end accuracy?
//!
//! For a grid of candidate splits satisfying the Theorem-1 constraint
//! `ε_sw + ε_cm + ε_sw·ε_cm = ε`, build the resulting ECM-EH sketch over the
//! same stream and report measured memory and observed error.

use ecm::{split_inner_product, split_point_query};
use ecm::{EcmConfig, EcmEh};
use ecm_bench::{header, mb, score_point_queries, Dataset};
use sliding_window::EhConfig;
use stream_gen::WindowOracle;

const WINDOW: u64 = 1_000_000;

fn build(esw: f64, ecm_eps: f64, events: &[stream_gen::Event]) -> EcmEh {
    let width = (std::f64::consts::E / ecm_eps).ceil() as usize;
    let cfg = EcmConfig {
        width,
        depth: 3,
        seed: 7,
        cell: EhConfig::new(esw, WINDOW),
    };
    let mut sk = EcmEh::new(&cfg);
    for (i, e) in events.iter().enumerate() {
        sk.insert_with_id(e.ts, e.key, i as u64 + 1).unwrap();
    }
    sk
}

fn main() {
    let eps = 0.1;
    let events = Dataset::Wc98.generate(
        std::env::var("ECM_EVENTS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(100_000),
        42,
    );
    let oracle = WindowOracle::from_events(&events);
    let now = oracle.last_tick();

    println!("Ablation: epsilon split at end-to-end eps = {eps} (point queries)");
    header(
        "candidate splits on the Theorem-1 constraint surface",
        "split          eps_sw   eps_cm   memory_MB   avg_err    max_err",
    );

    let (opt_sw, opt_cm) = split_point_query(eps);
    let mut rows: Vec<(String, f64, f64)> = vec![
        ("optimal".into(), opt_sw, opt_cm),
        ("window-heavy".into(), 0.08, 0.0), // ecm derived below
        ("cm-heavy".into(), 0.02, 0.0),
        ("extreme-window".into(), 0.095, 0.0),
        ("extreme-cm".into(), 0.005, 0.0),
    ];
    for row in rows.iter_mut().skip(1) {
        // Solve ε_cm from the constraint given ε_sw.
        row.2 = (eps - row.1) / (1.0 + row.1);
    }

    let mut best_mem = f64::INFINITY;
    let mut best_name = String::new();
    for (name, esw, ecm_eps) in &rows {
        let sk = build(*esw, *ecm_eps, &events);
        let s = score_point_queries(&sk, &oracle, now, 300);
        let m = mb(sk.memory_bytes());
        if m < best_mem {
            best_mem = m;
            best_name = name.clone();
        }
        println!(
            "{:<14} {:>7.4} {:>8.4} {:>10.3} {:>9.5} {:>10.5}",
            name, esw, ecm_eps, m, s.avg, s.max
        );
    }
    println!(
        "\nmost compact split: {best_name} (paper's model predicts 'optimal'; \
         implementation constants can produce near-ties among nearby splits, \
         but the extreme splits lose clearly)"
    );

    // Inner-product split sanity: the asymmetric optimum beats the
    // symmetric point-query split for self-join-shaped constraints.
    let (ip_sw, ip_cm) = split_inner_product(eps);
    println!(
        "\ninner-product split at eps = {eps}: eps_sw = {ip_sw:.4}, eps_cm = {ip_cm:.4} \
         (memory objective 1/(sw·cm) = {:.1})",
        1.0 / (ip_sw * ip_cm)
    );
    let naive = eps / 2.0;
    let naive_cm_numer = eps - naive * naive - 2.0 * naive;
    let naive_cm = naive_cm_numer / ((1.0 + naive) * (1.0 + naive));
    if naive_cm_numer > 0.0 {
        println!(
            "naive sw = eps/2 split would need 1/(sw·cm) = {:.1}",
            1.0 / (naive * naive_cm)
        );
    } else {
        println!(
            "naive sw = eps/2 split is infeasible for Theorem 2 at eps = {eps} \
             (constraint forces eps_cm ≤ 0) — the optimizer is necessary, not a luxury"
        );
    }
}
