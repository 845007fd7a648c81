//! Continuous distributed monitoring with the geometric method (paper
//! §6.2): four sites keep local ECM-sketches; a coordinator must know at all
//! times whether the self-join size (a skew indicator) of the union stream's
//! recent window is above a threshold — while communicating only when some
//! site's local drift ball actually crosses it.
//!
//! The union stream is also mirrored into a live `sketchd` through the
//! pipelining `sketch-client`: an in-process server by default, or an
//! external one when `SKETCHD_ADDR` is set (start it with a matching spec,
//! e.g. `SKETCHD_WINDOW=5000 SKETCHD_SEED=99`). The server side is a
//! registered standing view (`VIEW CREATE … threshold … self_join`): the
//! server maintains the windowed self-join incrementally on its ingest
//! path, and every synchronization point is a cheap `VIEW READ` — not a
//! recompute — cross-checked against the coordinator's value. A second
//! connection `SUBSCRIBE`s to the view and collects the pushed crossing
//! notifications. The network path and the in-process geometric method
//! must tell the same story.
//!
//! ```bash
//! cargo run --release --example continuous_threshold
//! # or against an already-running server:
//! SKETCHD_ADDR=127.0.0.1:7070 cargo run --release --example continuous_threshold
//! ```

use distributed::{GeometricMonitor, MonitorEvent, SelfJoinFn};
use ecm::{EcmEh, QueryKind};
use sketch_server::protocol::response::is_ok;
use sketch_server::{Client, Server, ServerConfig, SketchSpec};
use stream_gen::Event;

const SITES: u32 = 4;
const WINDOW: u64 = 5_000;
/// Events buffered client-side before they are shipped in one `BATCH` frame.
const MIRROR_BATCH: usize = 512;
/// Threshold on the self-join of the *average* statistics vector (the
/// monitor's scale); the served view watches the raw union-stream F₂, which
/// is n² times larger.
const F2_THRESHOLD: f64 = 50_000.0;

/// Mirror of the union stream inside a real `sketchd`.
///
/// Every event the monitor observes is also shipped to a server under one
/// tenant key, and each synchronization point additionally asks the server
/// for the windowed self-join over the wire.
struct ServerMirror {
    client: Client,
    /// A second connection in push mode, collecting the view's crossing
    /// notifications as the server's maintenance publishes them.
    subscriber: Client,
    /// `Some` when the example spawned its own in-process server (the
    /// default); `None` when `SKETCHD_ADDR` named an external one.
    spawned: Option<Server>,
    pending: Vec<String>,
    /// Per-sync rows: (t, coordinator f(avg), served f(avg), above).
    checks: Vec<(u64, f64, f64, bool)>,
}

impl ServerMirror {
    fn start() -> ServerMirror {
        let (client, spawned) = match std::env::var("SKETCHD_ADDR") {
            Ok(addr) => {
                println!("mirroring the union stream to live sketchd at {addr}");
                let client = Client::connect(&addr).expect("connect to SKETCHD_ADDR");
                (client, None)
            }
            Err(_) => {
                // Same accuracy contract as the sites: the InnerProduct
                // split spends the ε budget the way a self-join caller
                // should.
                let spec = SketchSpec::time(WINDOW)
                    .epsilon(0.1)
                    .delta(0.1)
                    .seed(99)
                    .query_kind(QueryKind::InnerProduct);
                let server =
                    Server::start(ServerConfig::new(spec)).expect("start in-process sketchd");
                let addr = server.local_addr();
                println!("mirroring the union stream to in-process sketchd at {addr}");
                let client = Client::connect(addr).expect("connect to in-process sketchd");
                (client, Some(server))
            }
        };
        let mut mirror =
            ServerMirror {
                client,
                subscriber: Client::connect(std::env::var("SKETCHD_ADDR").unwrap_or_else(|_| {
                    spawned.as_ref().expect("spawned").local_addr().to_string()
                }))
                .expect("connect subscriber"),
                spawned,
                pending: Vec::new(),
                checks: Vec::new(),
            };
        // Register the standing query once: the server re-evaluates it
        // incrementally as batches land, so sync points read a cached
        // answer instead of recomputing the window. The limit is on the
        // raw-F2 scale (f(avg) × n²).
        let limit = F2_THRESHOLD * f64::from(SITES * SITES);
        let ack = mirror
            .client
            .call(&format!(
                "VIEW CREATE f2 threshold union self_join {limit} time {WINDOW}"
            ))
            .expect("VIEW CREATE");
        assert!(
            is_ok(&ack) || ack.contains("duplicate_view"), // external reruns
            "server refused the view: {ack}"
        );
        // Push mode: threshold crossings arrive here without being polled.
        mirror
            .subscriber
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .expect("read timeout");
        let ack = mirror.subscriber.subscribe("f2").expect("SUBSCRIBE");
        assert!(is_ok(&ack), "server refused the subscription: {ack}");
        mirror
    }

    fn record(&mut self, ev: &Event) {
        self.pending.push(format!("union {} {}", ev.ts, ev.key));
        if self.pending.len() >= MIRROR_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let ack = self.client.batch(&self.pending).expect("BATCH ingest");
        assert!(is_ok(&ack), "server refused a mirrored batch: {ack}");
        self.pending.clear();
    }

    /// At a sync point: drain the mirror, then read the standing view the
    /// server has been maintaining. The view's consistency point is the
    /// sketch's write clock — the event at tick `t` that triggered this
    /// sync is the last one flushed, so the cached answer covers exactly
    /// the window the coordinator just evaluated. The served estimate is
    /// for F2 of the raw union stream; dividing by n² puts it on the
    /// monitor's f(avg) scale.
    fn cross_check(&mut self, t: u64, monitor_value: f64, above: bool) {
        self.flush();
        let resp = self.client.call("VIEW READ f2").expect("view read");
        assert!(is_ok(&resp), "view read failed: {resp}");
        // An external server may carry state from earlier runs; only the
        // fresh in-process one pins its write clock to our stream.
        assert!(
            self.spawned.is_none() || resp.contains(&format!("\"now\":{t}")),
            "the view's consistency point must be the sync tick {t}: {resp}"
        );
        let raw = json_value(&resp);
        // The view's crossing verdict and its estimate must agree.
        let served_above = resp.contains("\"above\":true");
        assert_eq!(
            served_above,
            raw > F2_THRESHOLD * f64::from(SITES * SITES),
            "view verdict disagrees with its own estimate: {resp}"
        );
        let served = raw / f64::from(SITES * SITES);
        self.checks.push((t, monitor_value, served, above));
    }

    /// Drain what is left, collect the pushed crossing notifications, and,
    /// if the server is ours, take it down cleanly. Returns the threshold
    /// pushes the subscriber received.
    fn finish(mut self) -> Vec<String> {
        self.flush();
        // Maintenance publishes after the ingest ack; give the final
        // batch's notifications a moment to land, then drain.
        let mut pushes = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while std::time::Instant::now() < deadline {
            match self.subscriber.recv() {
                Ok(line) if line.contains("\"notify\":\"threshold\"") => pushes.push(line),
                Ok(_) => continue, // heartbeat
                Err(_) => {
                    if !pushes.is_empty() {
                        break; // quiet after the crossings: done
                    }
                }
            }
        }
        if self.spawned.is_some() {
            let ack = self.client.call("SHUTDOWN").expect("SHUTDOWN");
            assert!(is_ok(&ack), "shutdown refused: {ack}");
        }
        if let Some(server) = self.spawned.take() {
            server.join();
        }
        pushes
    }
}

/// Pull the `"value":` field out of a one-line JSON reply.
fn json_value(resp: &str) -> f64 {
    let idx = resp.find("\"value\":").expect("reply carries a value");
    let rest = &resp[idx + "\"value\":".len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().expect("numeric value")
}

fn main() {
    let cfg = SketchSpec::time(WINDOW)
        .query_kind(QueryKind::InnerProduct)
        .seed(99)
        .ecm_config()
        .unwrap();
    let nodes: Vec<EcmEh> = (0..SITES)
        .map(|i| {
            let mut sk = EcmEh::new(&cfg);
            sk.set_id_namespace(u64::from(i) + 1);
            sk
        })
        .collect();
    let func = SelfJoinFn {
        width: cfg.width,
        depth: cfg.depth,
    };
    // Note the scaling: f(avg) ≈ F2(union)/n², so the diverse background
    // (≈ 62 500 / 16 ≈ 4 000) sits below, and the flood (≈ 16M / 16 ≈ 1M)
    // far above.
    let threshold = F2_THRESHOLD;
    let mut monitor = GeometricMonitor::new(nodes, func, threshold, WINDOW, 0);
    println!(
        "monitoring F2(avg vector) > {threshold} across {SITES} sites \
         (sketch {}x{})",
        cfg.width, cfg.depth
    );

    let mut mirror = ServerMirror::start();

    // Phase 1: diverse traffic (low skew). Phase 2: one key floods (skew
    // spikes → crossing). Phase 3: flood stops; window drains (crossing
    // back down).
    let mut events_seen = 0u64;
    let mut crossings = Vec::new();
    for t in 1..=30_000u64 {
        let key = if (8_000..12_000).contains(&t) {
            77 // flood
        } else {
            t % 400
        };
        let ev = Event {
            ts: t,
            key,
            site: (t % u64::from(SITES)) as u32,
        };
        events_seen += 1;
        mirror.record(&ev);
        if let MonitorEvent::Synced { value, above } = monitor.observe(ev) {
            crossings.push((t, value, above));
            mirror.cross_check(t, value, above);
        }
    }

    println!("\nsynchronizations ({} total):", crossings.len());
    for &(t, value, above) in crossings.iter().take(12) {
        println!(
            "  t = {t:>6}: F2 ≈ {value:>10.0} → {}",
            if above { "ABOVE" } else { "below" }
        );
    }
    if crossings.len() > 12 {
        println!("  ... ({} more)", crossings.len() - 12);
    }

    let stats = monitor.stats();
    let naive_bytes = events_seen * monitor.sync_bytes() / u64::from(SITES) / 2;
    println!("\ncommunication:");
    println!("  local checks:     {:>10}", stats.checks);
    println!("  syncs:            {:>10}", stats.syncs);
    println!("  bytes shipped:    {:>10}", stats.bytes);
    println!("  ship-every-update baseline: {naive_bytes} bytes");
    println!("  savings: {:.1}x", naive_bytes as f64 / stats.bytes as f64);
    assert!(
        crossings.iter().any(|&(_, _, above)| above),
        "the flood must push the function above the threshold"
    );
    assert!(
        !crossings.last().unwrap().2,
        "after the window drains the function must come back down"
    );

    println!("\nserved self-join at sync points (both on the f(avg) scale):");
    for &(t, coordinator, served, above) in mirror.checks.iter().take(12) {
        println!(
            "  t = {t:>6}: coordinator ≈ {coordinator:>10.0}, served ≈ {served:>10.0} → {}",
            if above { "ABOVE" } else { "below" }
        );
    }
    if mirror.checks.len() > 12 {
        println!("  ... ({} more)", mirror.checks.len() - 12);
    }
    // CM inner-product estimates never undershoot, so during the flood
    // (true f(avg) ≈ 1M ≫ threshold) the served value must agree with the
    // coordinator that the function is above.
    assert!(
        mirror
            .checks
            .iter()
            .any(|&(_, _, served, above)| above && served >= threshold),
        "the served self-join must also see the flood cross the threshold"
    );
    let own_server = mirror.spawned.is_some();
    let pushes = mirror.finish();
    println!("\nsubscriber received {} pushed crossing(s):", pushes.len());
    for line in pushes.iter().take(4) {
        println!("  {line}");
    }
    // On a fresh server the flood's upward crossing must have been pushed
    // (an external server may already have been above before we started).
    assert!(
        !own_server || pushes.iter().any(|l| l.contains("\"above\":true")),
        "the subscriber must see the flood's crossing pushed"
    );
}
