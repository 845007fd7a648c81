//! The paper's §1 scenario, end to end: a distributed network monitor that
//! detects a DDoS flash crowd.
//!
//! Eight edge routers each summarize their local traffic in an ECM-sketch
//! hierarchy. Three mechanisms run side by side, mirroring the Jain et al.
//! architecture the paper describes:
//!
//! 1. **Local triggers** — each router checks its own per-target windowed
//!    counts against its fair-share threshold (no communication).
//! 2. **Drift-triggered propagation** (Chan et al.) keeps the coordinator's
//!    view of the *global arrival volume* current within θ+ε.
//! 3. On a trigger, routers ship their hierarchies; the coordinator merges
//!    them order-preservingly (§5) and runs sliding-window heavy-hitter
//!    group testing (§6.1) to identify the attacked target.
//!
//! ```bash
//! cargo run --release --example network_monitor
//! ```

use distributed::DriftPropagation;
use ecm::{EcmHierarchy, Query, SketchReader, SketchSpec, SketchWriter, Threshold, WindowSpec};
use sliding_window::{EhConfig, ExponentialHistogram};
use stream_gen::{inject_flash_crowd, uniform_sites, FlashCrowd};

const WINDOW: u64 = 200_000; // ~2.3 days of seconds
const SITES: usize = 8;
const BITS: u32 = 16;
const TARGET: u64 = 4242;

fn main() {
    // Traffic: steady background plus a flash crowd toward one target.
    let base = uniform_sites(60_000, SITES as u32, 11);
    let attack_start = 1_400_000u64;
    let events = inject_flash_crowd(
        &base,
        &FlashCrowd {
            target_key: TARGET,
            start: attack_start,
            duration: WINDOW / 2,
            volume: 15_000,
            sources: SITES as u32,
            seed: 3,
        },
    );
    println!(
        "trace: {} events over {} sites, flash crowd of 15k requests toward key {TARGET}",
        events.len(),
        SITES
    );

    // Per-router state.
    let eps = 0.05;
    let cfg = SketchSpec::time(WINDOW)
        .epsilon(eps)
        .delta(0.05)
        .seed(17)
        .ecm_config()
        .unwrap();
    let mut routers: Vec<EcmHierarchy<ExponentialHistogram>> =
        (0..SITES).map(|_| EcmHierarchy::new(BITS, &cfg)).collect();
    // Volume tracking at the coordinator (drift budget 10%).
    let mut volume = DriftPropagation::new(SITES, &EhConfig::new(eps, WINDOW), 0.1);

    // Local trigger threshold: the per-router fair share of a target's
    // capacity, here ~600 requests per window per router.
    let local_threshold = 600.0;
    let mut alarm: Option<(u64, usize)> = None; // (tick, router)
    let mut escalated = false;

    for e in &events {
        let site = e.site as usize;
        routers[site].insert(e.ts, e.key % (1 << BITS));
        volume.observe(site, e.ts);
        // Local trigger: cheap point query on the router's own level-0
        // sketch. (Real deployments would check only keys seen in the
        // arrival; we do exactly that.)
        if alarm.is_none() {
            let local = routers[site]
                .query(&Query::point(e.key), WindowSpec::time(e.ts, WINDOW))
                .expect("in-window query")
                .into_value()
                .value;
            if local > local_threshold {
                alarm = Some((e.ts, site));
            }
        }
        // Escalation runs AT the alarm — sliding windows answer about the
        // present, so the coordinator acts while the attack is in-window.
        if let (Some((alarm_ts, alarm_site)), false) = (alarm, escalated) {
            escalated = true;
            println!("\nlocal trigger fired at router {alarm_site}, tick {alarm_ts}");
            assert!(
                alarm_ts >= attack_start && alarm_ts <= attack_start + WINDOW / 2,
                "trigger must fire during the attack window"
            );

            // Coordinator volume view (maintained continuously, cheaply).
            let vstats = volume.stats();
            println!(
                "coordinator volume estimate: ≈ {:.0} arrivals in window \
                 ({} EH shipments, {:.0} KiB so far)",
                volume.coordinator_estimate(),
                vstats.shipments,
                vstats.bytes as f64 / 1024.0,
            );

            // Collect, merge, identify the target network-wide.
            let mut shipped_bytes = 0u64;
            let decoded: Vec<EcmHierarchy<ExponentialHistogram>> = routers
                .iter()
                .map(|h| {
                    let mut buf = Vec::new();
                    h.encode(&mut buf);
                    shipped_bytes += buf.len() as u64;
                    EcmHierarchy::decode(BITS, &cfg, &mut buf.as_slice()).expect("wire decode")
                })
                .collect();
            let refs: Vec<&EcmHierarchy<ExponentialHistogram>> = decoded.iter().collect();
            let global = EcmHierarchy::merge(&refs, &cfg.cell).expect("homogeneous merge");

            let suspects = global
                .query(
                    &Query::heavy_hitters(Threshold::Relative(0.05)),
                    WindowSpec::time(alarm_ts, WINDOW),
                )
                .expect("in-window query")
                .into_heavy_hitters();
            println!(
                "\nescalation: shipped {} KiB of hierarchies; \
                 network-wide heavy hitters (φ = 5%):",
                shipped_bytes / 1024
            );
            for (key, est) in &suspects {
                println!("  key {key:<8} ≈ {:>8.0} requests in window", est.value);
            }
            assert!(
                suspects.iter().any(|&(k, _)| k == TARGET),
                "the attacked target must surface network-wide"
            );

            // Forensics: where is the attack traffic entering?
            println!("\nper-router share of traffic to key {TARGET}:");
            for (i, r) in routers.iter().enumerate() {
                let share = r
                    .query(&Query::point(TARGET), WindowSpec::time(alarm_ts, WINDOW))
                    .expect("in-window query")
                    .into_value()
                    .value;
                println!("  router {i}: ≈ {share:>7.0}");
            }
        }
    }
    assert!(escalated, "the flash crowd must trip a local trigger");

    // After the trace: the window has slid past the burst; a fresh report
    // at the current tick is clean again.
    let now = events.last().unwrap().ts;
    let refs: Vec<&EcmHierarchy<ExponentialHistogram>> = routers.iter().collect();
    let global = EcmHierarchy::merge(&refs, &cfg.cell).expect("homogeneous merge");
    let after = global
        .query(
            &Query::heavy_hitters(Threshold::Relative(0.05)),
            WindowSpec::time(now, WINDOW),
        )
        .expect("in-window query")
        .into_heavy_hitters();
    assert!(
        after.iter().all(|&(k, _)| k != TARGET),
        "the aged-out attack must disappear from fresh reports"
    );
    println!("\nat trace end (tick {now}): attack aged out — heavy-hitter report is clean");
    println!("\n→ distributed detection complete: local triggers, continuous volume");
    println!("  tracking, and guaranteed-error network-wide identification, all on");
    println!("  sketches a fraction of the raw stream's size.");
}
