//! One measurement of one workload: the run over TCP and, when traced, the
//! in-process layer walk, with the report and trace files written out.

use std::path::Path;

use crate::env::{Env, StealMeter};
use crate::layers::{walk, WalkPlan};
use crate::proc::out_dir;
use crate::report::Report;
use crate::run::run;
use crate::trace::Spans;
use crate::workload::Workload;

/// `run_seconds` of `BENCHMARK.json`: what a full run measures for.
pub const DEFAULT_SECONDS: f64 = 21.0;
/// Measured rounds of a full run, spread evenly over its incarnations.
pub const ROUNDS: usize = 9;
/// Server incarnations of a full run: each is set up from scratch (so
/// `setup_s` is a median of this many), warmed up, and measures a third of
/// the rounds.
pub const SETUPS: usize = 3;

/// What the command line chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The only input knob.
    pub seed: u64,
    /// Seconds a full run measures for.
    pub seconds: f64,
    /// Record client spans and walk the layers in-process.
    pub trace: bool,
    /// One round of half-second segments, one set-up, a short walk: a
    /// smoke test, not a measurement.
    pub quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        }
    }
}

/// Measure `w` once against the `sketchd` binary at `sketchd`. Writes
/// `out/report-<workload>.json`, and for a traced run
/// `out/trace-<workload>.json` (client spans of the TCP rounds) and
/// `out/trace-<workload>-walk.json` (the layer walk's spans).
pub fn measure(
    w: &'static Workload,
    opts: &Options,
    sketchd: &Path,
    env: &Env,
) -> Result<Report, String> {
    // A traced run keeps the round size of a full run but measures four
    // rounds — two plain, two with spans on — on one incarnation: its
    // numbers explain, they are not compared between commits.
    let (seconds, rounds, setups, traced) = match (opts.quick, opts.trace) {
        (true, false) => (2.0, 1, 1, 0),
        (true, true) => (4.0, 2, 1, 1),
        (false, false) => (opts.seconds, ROUNDS, SETUPS, 0),
        (false, true) => (opts.seconds * 4.0 / ROUNDS as f64, 4, 1, 2),
    };
    let steal = StealMeter::start();
    let run = run(
        w,
        opts.seed,
        w.plan(seconds, rounds, setups),
        traced,
        sketchd,
    )?;
    let steal_pct = steal.pct();
    let dir = out_dir();
    let io = |e: std::io::Error| format!("cannot write under {}: {e}", dir.display());
    let walk = if opts.trace {
        let plan = if opts.quick {
            WalkPlan::QUICK
        } else {
            WalkPlan::FULL
        };
        let mut spans = Spans::new(true);
        let walked = walk(w, opts.seed, plan, &mut spans)?;
        run.spans
            .write_json(&dir.join(format!("trace-{}.json", w.name)))
            .map_err(io)?;
        spans
            .write_json(&dir.join(format!("trace-{}-walk.json", w.name)))
            .map_err(io)?;
        Some(walked)
    } else {
        None
    };
    let report = Report {
        run,
        walk,
        env: env.clone(),
        steal_pct,
    };
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("report-{}.json", w.name)),
                report.json() + "\n",
            )
        })
        .map_err(io)?;
    Ok(report)
}
