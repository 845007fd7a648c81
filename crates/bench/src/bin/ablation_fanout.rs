//! **Ablation: aggregation-tree fanout (paper §5.1).**
//!
//! The multi-level error bound `h·ε·(1+ε) + ε` depends on the tree *height*,
//! and the paper notes the topology can be built to control it. This binary
//! sweeps the fanout of a k-ary aggregation tree over a fixed site set:
//! flatter trees have fewer levels (less error inflation, less per-site
//! ε-budgeting when targeting a fixed root error) and ship fewer
//! intermediate sketches, at the cost of wider merges at each internal node
//! — the star topology being the degenerate everyone-ships-to-the-
//! coordinator layout.

use distributed::{aggregate_kary_tree, multilevel_epsilon, KaryTree};
use ecm::{EcmEh, SketchSpec, SketchWriter};
use ecm_bench::{header, mb, score_point_queries};
use stream_gen::{partition_by_site, uniform_sites, WindowOracle};

const WINDOW: u64 = 1_000_000;
const SITES: usize = 64;
const TARGET_EPS: f64 = 0.1;

fn main() {
    let n_events = std::env::var("ECM_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let events = uniform_sites(n_events, SITES as u32, 42);
    let oracle = WindowOracle::from_events(&events);
    let now = oracle.last_tick();
    let parts = partition_by_site(&events, SITES as u32);

    println!(
        "Fanout ablation: {SITES} sites, {n_events} events, root target eps = {TARGET_EPS} \
         (per-site eps budgeted per tree height)"
    );
    header(
        "error, communication and memory vs fanout",
        "fanout  levels  site_eps  messages      bytes_MB  root_avg_err  root_max_err  site_MB",
    );

    for &fanout in &[2usize, 4, 8, 16, SITES] {
        let levels = KaryTree::new(SITES, fanout).height();
        let site_eps = multilevel_epsilon(TARGET_EPS, levels);
        let cfg = SketchSpec::time(WINDOW)
            .epsilon(site_eps)
            .seed(7)
            .ecm_config()
            .unwrap();
        let mut site_mb = 0.0f64;
        let out = aggregate_kary_tree(
            SITES,
            fanout,
            |i| {
                let mut sk = EcmEh::new(&cfg);
                sk.set_id_namespace(i as u64 + 1);
                for e in &parts[i] {
                    sk.insert(e.ts, e.key);
                }
                site_mb = site_mb.max(mb(sk.memory_bytes()));
                sk
            },
            &cfg.cell,
        )
        .unwrap();
        let s = score_point_queries(&out.root, &oracle, now, 300);
        println!(
            "{:<7} {:<7} {:>8.4} {:>9} {:>12.3} {:>13.5} {:>13.5} {:>8.3}",
            fanout,
            out.stats.levels,
            site_eps,
            out.stats.messages,
            mb(out.stats.bytes as usize),
            s.avg,
            s.max,
            site_mb
        );
    }
    println!(
        "(expected shape: higher fanout → fewer levels → looser per-site ε (smaller site \
         sketches) and fewer shipped sketches, with observed root error flat and within \
         target across all fanouts — the star pays with a {SITES}-way merge at one node)"
    );
}
