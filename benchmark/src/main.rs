//! `sketchbench` command line. See `benchmark/README.md`.

use std::process::ExitCode;

use sketchbench::env::Env;
use sketchbench::metrics::end_to_end;
use sketchbench::proc::build_sketchd;
use sketchbench::session::{measure, Options};
use sketchbench::stats::summarize;
use sketchbench::workload::{find, Workload, WORKLOADS};

const USAGE: &str = "\
usage:
  sketchbench run <workload> [--seed N] [--seconds S] [--trace] [--quick]
  sketchbench all            [--seed N] [--seconds S] [--trace] [--quick]
  sketchbench --aa K         [--seed N] [--seconds S]
  sketchbench --workload <workload> --seed N --seconds S --trace <0|1>   (the driver's form)
workloads: hot-tenants wide-fleet durable-runs read-mix";

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    opts: Options,
    aa: usize,
    /// The driver's form: the last stdout line is its result object.
    contract: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        opts: Options::default(),
        aa: 0,
        contract: false,
    };
    let workload = |name: &str| find(name).ok_or_else(|| format!("unknown workload {name:?}"));
    let mut it = argv.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg {
            "run" => args.workloads = vec![workload(value("a workload")?)?],
            "all" => args.workloads = WORKLOADS.iter().collect(),
            "--workload" => {
                args.workloads = vec![workload(value("a workload")?)?];
                args.contract = true;
            }
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--aa" => {
                args.aa = value("a count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                args.workloads = WORKLOADS.iter().collect();
            }
            "--trace" => {
                // `--trace 0|1` from the driver, a bare flag from people.
                args.opts.trace = match it.peek() {
                    Some(&"0") | Some(&"1") => it.next() == Some("1"),
                    _ => true,
                };
            }
            "--quick" => args.opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("nothing to run".to_string());
    }
    Ok(args)
}

/// `--aa K`: K full passes of the same build; per metric × workload the K
/// values, their median and the largest relative gap between two of them.
fn aa(args: &Args, sketchd: &std::path::Path, env: &Env) -> Result<bool, String> {
    let metrics = end_to_end();
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); metrics.len()]; args.workloads.len()];
    let mut clean = true;
    for pass in 0..args.aa {
        for (wi, w) in args.workloads.iter().enumerate() {
            let report = measure(w, &args.opts, sketchd, env)?;
            eprintln!("pass {} {}", pass + 1, report.human());
            clean &= report.run.failed == 0;
            for (mi, (_, _, s)) in report.end_to_end().iter().enumerate() {
                values[wi][mi].push(s.median);
            }
        }
    }
    println!(
        "{:<14} {:<26} {:>10} {:>8} {:>7}  values",
        "workload", "metric", "median", "gap %", "bound %"
    );
    for (wi, w) in args.workloads.iter().enumerate() {
        for (mi, m) in metrics.iter().enumerate() {
            let v = &values[wi][mi];
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let median = summarize(v).median;
            let gap = 100.0 * (hi - lo) / median;
            let listed: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            let bound = 100.0 * m.bound.unwrap_or(0.0);
            println!(
                "{:<14} {:<26} {median:>10.4} {gap:>8.2} {bound:>7.0}{} {}",
                w.name,
                m.name,
                if gap > bound { "!" } else { " " },
                listed.join(" ")
            );
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sketchbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = build_sketchd().and_then(|sketchd| {
        let env = Env::capture();
        if args.aa > 0 {
            return aa(&args, &sketchd, &env);
        }
        let mut clean = true;
        for w in &args.workloads {
            let report = measure(w, &args.opts, &sketchd, &env)?;
            print!("{}", report.human());
            clean &= report.run.failed == 0;
            if args.contract {
                println!("{}", report.contract_line(args.opts.trace));
                // The driver reads correctness from the line itself.
                clean = true;
            }
        }
        Ok(clean)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sketchbench: failed_ops > 0");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sketchbench: {e}");
            ExitCode::FAILURE
        }
    }
}
