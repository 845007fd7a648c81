//! **Continuous monitoring: the geometric method vs periodic push vs
//! centralize-everything (paper §6.2).**
//!
//! A self-join (F₂) threshold is monitored over distributed sites while a
//! flash crowd drives the stream across the threshold and window expiry
//! brings it back down. For each protocol the table reports communication
//! (sync rounds, messages, bytes) and tracking quality (events on the wrong
//! side of the threshold, longest detection lag). The paper's claim is that
//! the geometric method tracks crossings exactly (zero wrong-side events)
//! at a fraction of the communication of its competitors.

use distributed::geometric::SelfJoinFn;
use distributed::{
    run_protocol, ForwardAllProtocol, GeometricMonitor, MonitoringProtocol, PeriodicPushProtocol,
    RunReport,
};
use ecm::{EcmEh, QueryKind, SketchSpec};
use ecm_bench::header;
use stream_gen::{inject_flash_crowd, uniform_sites, FlashCrowd};

const WINDOW: u64 = 1 << 20;
const SITES: usize = 4;

fn nodes_and_fn(seed: u64) -> (Vec<EcmEh>, SelfJoinFn) {
    let cfg = SketchSpec::time(WINDOW)
        .query_kind(QueryKind::InnerProduct)
        .seed(seed)
        .ecm_config()
        .unwrap();
    let nodes: Vec<EcmEh> = (0..SITES)
        .map(|i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(i as u64 + 1);
            sk
        })
        .collect();
    let func = SelfJoinFn {
        width: cfg.width,
        depth: cfg.depth,
    };
    (nodes, func)
}

fn row(name: &str, r: &RunReport) {
    println!(
        "{:<14} {:>6} {:>9} {:>12} {:>12} {:>10}",
        name,
        r.stats.syncs,
        r.stats.messages,
        r.stats.bytes,
        r.wrong_side_events,
        r.max_delay_events
    );
}

fn main() {
    let n_events = std::env::var("ECM_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    // Background traffic plus a DDoS-style burst toward one key: the
    // self-join of the average vector crosses the threshold during the
    // burst and recedes as the window slides past it.
    let base = uniform_sites(n_events, SITES as u32, 11);
    let burst_start = base[n_events / 2].ts;
    let events = inject_flash_crowd(
        &base,
        &FlashCrowd {
            target_key: 7,
            start: burst_start,
            duration: WINDOW / 4,
            volume: n_events / 4,
            sources: SITES as u32,
            seed: 3,
        },
    );

    // Pick the threshold between the quiet and burst regimes by probing the
    // stream with a disposable forward-all run.
    let (nodes, func) = nodes_and_fn(5);
    let mut probe = ForwardAllProtocol::new(nodes, func, f64::INFINITY, WINDOW);
    let mut peak: f64 = 0.0;
    for &e in &events {
        MonitoringProtocol::observe(&mut probe, e);
        peak = peak.max(MonitoringProtocol::true_global_value(&probe, e.ts));
    }
    let threshold = peak / 4.0;

    println!(
        "Continuous F2-threshold monitoring: {} events, {SITES} sites, threshold {:.0} \
         (peak {:.0})",
        events.len(),
        threshold,
        peak
    );
    header(
        "protocol comparison",
        "protocol        syncs  messages        bytes  wrong_side  max_delay",
    );

    let (nodes, func) = nodes_and_fn(5);
    let mut geo = GeometricMonitor::new(nodes, func, threshold, WINDOW, 0);
    row("geometric", &run_protocol(&mut geo, &events, threshold));

    let (nodes, func) = nodes_and_fn(5);
    let mut geo_bal = GeometricMonitor::new(nodes, func, threshold, WINDOW, 0);
    geo_bal.set_balancing(true);
    let bal_report = run_protocol(&mut geo_bal, &events, threshold);
    row("geo+balance", &bal_report);
    println!(
        "               ({} of the violations were absorbed by peer balancing)",
        bal_report.stats.balances
    );

    for &period in &[WINDOW / 64, WINDOW / 8] {
        let (nodes, func) = nodes_and_fn(5);
        let mut per = PeriodicPushProtocol::new(nodes, func, threshold, WINDOW, period, 0);
        row(
            &format!("push-{period}"),
            &run_protocol(&mut per, &events, threshold),
        );
    }

    let (nodes, func) = nodes_and_fn(5);
    let mut fwd = ForwardAllProtocol::new(nodes, func, threshold, WINDOW);
    row("forward-all", &run_protocol(&mut fwd, &events, threshold));

    println!(
        "(expected shape: geometric tracks with zero wrong-side events at a bounded \
         number of sync rounds; balancing trades full syncs for peer probes — a win \
         when sites are many and a sync is O(n), roughly break-even at this tiny \
         site count; periodic push trades delay for its fixed rate; forward-all is \
         exact but pays one message per event — its byte count scales with the \
         stream, geometric's with the number of crossings, so geometric wins as \
         streams grow long relative to the sketch size)"
    );
}
