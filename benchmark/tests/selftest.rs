//! The benchmark checks itself: the quick mode runs every workload end to
//! end without a failed operation and prints every metric `BENCHMARK.json`
//! declares with its unit, the release profile is the repo's, and the
//! in-process layer walk answers like the wire. (`src/metrics.rs` reads its
//! tables from `BENCHMARK.json` and checks the declaration itself.)
//!
//! These tests spawn `sketchd` and time things, so they share one lock:
//! `cargo test` runs tests on parallel threads and two servers on a
//! two-core box would only measure each other.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use sketchbench::env::Env;
use sketchbench::gen::{Generator, LANES};
use sketchbench::layers::{walk, WalkPlan};
use sketchbench::metrics::{end_to_end, per_layer};
use sketchbench::proc::{build_sketchd, out_dir, repo_root, ServerSpec, Sketchd};
use sketchbench::session::{measure, Options};
use sketchbench::trace::Spans;
use sketchbench::wire::{is_ok, Conn};
use sketchbench::workload::{find, WORKLOADS};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one may still run.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn sketchd() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| build_sketchd().expect("sketchd builds"))
}

#[test]
fn quick_mode_runs_every_workload_and_prints_every_declared_metric() {
    let _guard = serial();
    let bin = sketchd();
    let env = Env::capture();
    let gated = end_to_end().len();
    let declared: Vec<(&str, &str)> = end_to_end()
        .iter()
        .chain(&per_layer())
        .map(|m| (m.name, m.unit))
        .collect();

    let quick = Options {
        quick: true,
        ..Options::default()
    };
    let started = Instant::now();
    let mut reports = Vec::new();
    for w in &WORKLOADS {
        reports.push(measure(w, &quick, bin, &env).expect("quick run completes"));
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 30.0, "the four quick runs took {took:.1} s");
    // One traced quick run on top: the workload with views exercises every
    // layer of the walk, and the trace files must land.
    let traced = Options {
        trace: true,
        ..quick
    };
    let read_mix = find("read-mix").expect("workload exists");
    reports.push(measure(read_mix, &traced, bin, &env).expect("traced quick run completes"));
    for name in [
        "trace-read-mix.json",
        "trace-read-mix-walk.json",
        "report-read-mix.json",
    ] {
        let written = std::fs::read_to_string(out_dir().join(name)).expect("file written");
        assert!(
            written.starts_with('{') && written.trim_end().ends_with('}'),
            "{name}"
        );
    }
    let walked = reports.last().unwrap().per_layer();
    let price = |name: &str| walked.iter().find(|row| row.0 == name).expect("declared").2;
    assert!(price("views.maintain_us") > 0.0 && price("store.clone_us") > 0.0);
    assert_eq!(price("wal.bytes_per_event"), 0.0, "read-mix keeps no log");

    for report in &reports {
        let w = report.run.workload;
        assert_eq!(report.run.failed, 0, "{}: failed_ops", w.name);
        assert!(report.run.attempted > 0);
        let printed: Vec<(&str, &str)> = report
            .end_to_end()
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .chain(
                report
                    .per_layer()
                    .iter()
                    .map(|(name, unit, _)| (*name, *unit)),
            )
            .collect();
        assert_eq!(printed, declared, "{}: names, units and order", w.name);
        let human = report.human();
        let contract = report.contract_line(false) + &report.contract_line(true);
        for (i, (name, unit)) in declared.iter().enumerate() {
            // The table for people leaves out the walk's layers when there
            // was no walk; the result lines carry every metric regardless.
            if i < gated || report.walk.is_some() {
                let row = format!("   {name} ");
                assert!(human.contains(&row), "{}: {name} not printed", w.name);
                let line = human.lines().find(|l| l.starts_with(&row)).unwrap();
                assert!(line.ends_with(&format!("  {unit}")), "{line}");
            }
            let cell = format!("\"{name}\":{{\"value\":");
            let at = contract
                .find(&cell)
                .unwrap_or_else(|| panic!("{name} not in result"));
            let tail = &contract[at..];
            let object = &tail[..tail.find('}').expect("object closes")];
            assert!(
                object.ends_with(&format!("\"unit\":\"{unit}\"")),
                "{object}"
            );
        }
        for (name, _, value) in report.end_to_end() {
            assert!(value.median > 0.0, "{}: {name} must never read 0", w.name);
        }
    }
}

#[test]
fn release_profile_equals_the_roots() {
    let section = |manifest: &Path| -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("manifest exists");
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap().trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    };
    let root = section(&repo_root().join("Cargo.toml"));
    let ours = section(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(ours, root);
}

#[test]
fn the_walk_answers_like_the_wire() {
    let _guard = serial();
    let w = find("durable-runs").expect("workload exists");
    let plan = WalkPlan::QUICK;
    let seed = 3;
    let mut spans = Spans::new(true);
    let walked = walk(w, seed, plan, &mut spans).expect("walk completes");
    assert_eq!(walked.answers.len(), plan.queries + 1);
    assert!(walked.metrics["wal.bytes_per_event"] > 0.0);
    assert!(!spans.all().is_empty());

    // The same batches and the same questions over TCP (durability off:
    // the answers do not depend on it).
    let server = Sketchd::spawn(&ServerSpec {
        bin: sketchd().to_path_buf(),
        data_dir: None,
    })
    .expect("sketchd starts");
    let mut conn = Conn::connect(server.addr).expect("connects");
    let gen = Generator::new(seed, w.shape, &[]);
    let mut call = |request: String| {
        let reply = conn.call(&request).expect("reply arrives");
        assert!(is_ok(reply.as_bytes()), "{request:?} -> {reply}");
        reply
    };
    for (from, to) in [(0, plan.warm), (plan.warm, plan.warm + plan.measured)] {
        for j in from..to {
            for lane in 0..LANES {
                let mut frame = Vec::new();
                gen.frame(lane, j, j + 1, &mut frame, &mut Vec::new());
                call(String::from_utf8(frame).expect("frames are ASCII"));
            }
        }
        call(format!("FLUSH {}", Generator::clock(to)));
    }
    let now = Generator::clock(plan.warm + plan.measured);
    let mut wire: Vec<String> = (1..=plan.queries as u64)
        .map(|i| call(String::from_utf8(gen.point_query(i, now)).unwrap()))
        .collect();
    wire.push(call(format!(
        "TOPK 10 time {now} {}",
        sketchbench::gen::WINDOW
    )));
    assert_eq!(walked.answers, wire);
}
