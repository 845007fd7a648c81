//! Multi-level error budgeting end to end (paper §5.1): a
//! [`HierarchyPlan`]-budgeted aggregation tree of full ECM-sketches must
//! observe its end-to-end point-query error target at the root, while the
//! un-budgeted deployment with the same target is measurably worse on deep
//! trees.

use ecm_suite::distributed::{achieved_epsilon, aggregate_tree, HierarchyPlan};
use ecm_suite::ecm::{EcmConfig, EcmEh, Query, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use ecm_suite::sliding_window::{EhConfig, ExponentialHistogram};
use ecm_suite::stream_gen::{partition_by_site, uniform_sites, WindowOracle};

const WINDOW: u64 = 1_000_000;

fn measure_root_error(
    cfg: &EcmConfig<ExponentialHistogram>,
    events: &[ecm_suite::stream_gen::Event],
    oracle: &WindowOracle,
    sites: usize,
) -> f64 {
    let parts = partition_by_site(events, sites as u32);
    let out = aggregate_tree(
        sites,
        |i| {
            let mut sk = EcmEh::new(cfg);
            sk.set_id_namespace(i as u64 + 1);
            for e in &parts[i] {
                sk.insert(e.ts, e.key);
            }
            sk
        },
        &cfg.cell,
    )
    .unwrap();
    let now = oracle.last_tick();
    let norm = oracle.total(now, WINDOW) as f64;
    let mut worst = 0.0f64;
    for key in 0..3_000u64 {
        let exact = oracle.frequency(key, now, WINDOW) as f64;
        if exact == 0.0 {
            continue;
        }
        let est = out
            .query(&Query::point(key), WindowSpec::time(now, WINDOW))
            .unwrap()
            .into_value()
            .value;
        worst = worst.max((est - exact).abs() / norm);
    }
    worst
}

#[test]
fn budgeted_tree_meets_the_plan_target() {
    let target = 0.15;
    let sites = 16usize;
    let events = uniform_sites(40_000, sites as u32, 31);
    let oracle = WindowOracle::from_events(&events);

    let plan = HierarchyPlan::point_queries(target, 0.05, WINDOW, sites, 40_000);
    // Build sketches with the plan's budgeted site ε on the window side and
    // the fixed hashing dimensions.
    let cfg = EcmConfig {
        width: plan.width,
        depth: plan.depth,
        seed: 3,
        cell: EhConfig::new(plan.site_epsilon, WINDOW),
    };
    let worst = measure_root_error(&cfg, &events, &oracle, sites);
    assert!(
        worst <= target,
        "budgeted root must meet its end-to-end target: worst={worst} target={target}"
    );
}

#[test]
fn unbudgeted_eh_tree_is_worse_than_budgeted_on_deep_trees() {
    // Paper Table 4's distributed-aggregation loss, isolated to the window
    // dimension: in a full ECM tree the observed error is dominated by hash
    // collisions (identical in both deployments), so the budgeting effect is
    // only cleanly measurable on raw exponential-histogram hierarchies,
    // where bucket granularity is the *only* error source.
    use ecm_suite::sliding_window::{merge_exponential_histograms, ExponentialHistogram as Eh};

    let target = 0.2;
    let sites = 64usize;
    let levels = 6u32;
    let run = |site_eps: f64, seed: u64| -> f64 {
        let cfg = EhConfig::new(site_eps, WINDOW);
        let events = uniform_sites(40_000, sites as u32, seed);
        let mut ehs: Vec<Eh> = (0..sites).map(|_| Eh::new(&cfg)).collect();
        let mut truth: Vec<u64> = Vec::with_capacity(events.len());
        let mut now = 0u64;
        for e in &events {
            ehs[e.site as usize].insert_one(e.ts);
            truth.push(e.ts);
            now = e.ts;
        }
        // Pairwise merge up all six levels.
        let mut layer = ehs;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let refs: Vec<&Eh> = pair.iter().collect();
                    merge_exponential_histograms(&refs, &cfg).unwrap()
                })
                .collect();
        }
        let root = &layer[0];
        // Average relative count error over many sub-window ranges, where
        // bucket granularity bites.
        let mut sum = 0.0;
        let mut n = 0u32;
        for i in 1..=40u64 {
            let range = WINDOW * i / 40;
            let cutoff = now - range;
            let exact = truth.iter().filter(|&&t| t > cutoff).count() as f64;
            if exact < 100.0 {
                continue;
            }
            sum += (root.estimate(now, range) - exact).abs() / exact;
            n += 1;
        }
        sum / f64::from(n.max(1))
    };

    let plan = HierarchyPlan::point_queries(target, 0.05, WINDOW, sites, 40_000);
    assert_eq!(plan.levels, levels);
    let mut budgeted_sum = 0.0;
    let mut plain_sum = 0.0;
    for seed in [5u64, 6, 7] {
        budgeted_sum += run(plan.site_epsilon, seed);
        // Un-budgeted: sites spend the whole window share locally.
        plain_sum += run(plan.window_epsilon, seed);
    }
    assert!(
        budgeted_sum < plain_sum,
        "budgeting must reduce window error: budgeted={budgeted_sum} plain={plain_sum}"
    );
    // And the budgeted deployment stays within its window-error share.
    assert!(
        budgeted_sum / 3.0 <= plan.window_epsilon,
        "avg budgeted error {} above window share {}",
        budgeted_sum / 3.0,
        plan.window_epsilon
    );
}

#[test]
fn plan_memory_prediction_is_the_right_order() {
    // The plan's sketch-byte prediction is an upper-bound-flavored estimate;
    // it must land within an order of magnitude of a real budgeted sketch
    // and on the conservative side.
    let sites = 8usize;
    let events = uniform_sites(50_000, sites as u32, 12);
    let plan = HierarchyPlan::point_queries(0.1, 0.05, WINDOW, sites, 50_000);
    let cfg = EcmConfig {
        width: plan.width,
        depth: plan.depth,
        seed: 1,
        cell: EhConfig::new(plan.site_epsilon, WINDOW),
    };
    let parts = partition_by_site(&events, sites as u32);
    let mut sk = EcmEh::new(&cfg);
    for e in &parts[0] {
        sk.insert(e.ts, e.key);
    }
    let actual = sk.encoded_len() as u64;
    assert!(
        plan.sketch_bytes >= actual / 4,
        "prediction {} far below actual {}",
        plan.sketch_bytes,
        actual
    );
    assert!(
        plan.sketch_bytes <= actual * 40,
        "prediction {} wildly above actual {}",
        plan.sketch_bytes,
        actual
    );
}

#[test]
fn forward_recursion_matches_builder_budgets() {
    // The spec's Theorem 1 split and the budget module must agree: a
    // plan's window share run through the forward recursion at the plan's
    // site ε reproduces the target share.
    for &(target, sites) in &[(0.1, 4usize), (0.2, 33), (0.1, 256)] {
        let plan = HierarchyPlan::point_queries(target, 0.1, WINDOW, sites, 10_000);
        let forward = achieved_epsilon(plan.site_epsilon, plan.levels);
        assert!(
            (forward - plan.window_epsilon).abs() < 1e-9,
            "target={target} sites={sites}"
        );
        // And the builder's split at the same ε target agrees with the
        // plan's hashing share.
        let builder_cfg = SketchSpec::time(WINDOW)
            .epsilon(target)
            .ecm_config::<ExponentialHistogram>()
            .unwrap();
        assert_eq!(builder_cfg.width, plan.width);
    }
}
