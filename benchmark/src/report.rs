//! Turning a run (and its layer walk) into the numbers people and the
//! driver read: the end-to-end table, the per-layer list with the
//! waterfall, the full JSON report and the driver's one-line result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::env::Env;
use crate::gen::LINES_PER_BATCH;
use crate::layers::Walk;
use crate::metrics::{end_to_end, per_layer};
use crate::run::RunReport;
use crate::stats::{summarize, Summary};

/// Steal above this share marks the host noisy.
const NOISY_STEAL_PCT: f64 = 5.0;
/// Generator lag above this marks the run generator-bound.
const NOISY_LAG_MS: f64 = 5.0;

/// Everything one invocation measured on one workload.
#[derive(Debug)]
pub struct Report {
    /// The run over TCP.
    pub run: RunReport,
    /// The in-process layer walk (traced runs only).
    pub walk: Option<Walk>,
    /// The machine record.
    pub env: Env,
    /// `/proc/stat` steal during the run, percent.
    pub steal_pct: f64,
}

/// The terms of `server_cpu_us_per_event ≈ Σ layers`, in µs per event.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// `(layer term, µs per event)`, outside in.
    pub terms: Vec<(&'static str, f64)>,
    /// The measured `server_cpu_us_per_event`.
    pub measured: f64,
}

impl Report {
    /// A metric measured once per round, or once per incarnation, over all
    /// of them.
    fn round(&self, name: &str) -> Summary {
        let run = &self.run;
        let values = run.rounds.get(name).or_else(|| run.incarnations.get(name));
        summarize(values.map_or(&[], Vec::as_slice))
    }

    /// Whether the run over TCP measured `name` (the rest need the walk).
    fn measured_over_tcp(&self, name: &str) -> bool {
        let run = &self.run;
        run.rounds.contains_key(name)
            || run.incarnations.contains_key(name)
            || run.scalars.contains_key(name)
    }

    fn scalar(&self, name: &str) -> f64 {
        self.run.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Whether the numbers should be distrusted: the hypervisor took CPU
    /// away, or the open-loop generator ran late.
    pub fn noisy_host(&self) -> bool {
        self.steal_pct > NOISY_STEAL_PCT || self.scalar("client.pace_lag_p99_ms") > NOISY_LAG_MS
    }

    /// The end-to-end metrics in `BENCHMARK.json` order, **as measured**:
    /// the value is the median over all rounds (over the incarnations for
    /// `setup_s` and `server_rss_mb`), the quartiles its spread inside this
    /// run.
    pub fn as_measured(&self) -> Vec<(&'static str, &'static str, Summary)> {
        end_to_end()
            .iter()
            .map(|m| (m.name, m.unit, self.round(m.name)))
            .collect()
    }

    /// The end-to-end metrics **at the reference host speed**: what
    /// [`as_measured`](Self::as_measured) holds with this run's
    /// `client.host_speed` divided out. These are the values
    /// `BENCHMARK.json` bounds.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, Summary)> {
        let speed = match self.scalar("client.host_speed") {
            s if s > 0.0 => s,
            _ => 1.0,
        };
        // A paced rate is set by the benchmark's clock, not by the host.
        let paced = self.run.workload.paced_batches_per_s.is_some();
        self.as_measured()
            .into_iter()
            .map(|(name, unit, raw)| {
                let speed = if paced && name == "ingest_meps" {
                    1.0
                } else {
                    speed
                };
                let scaled = Summary {
                    median: at_reference_speed(unit, raw.median, speed),
                    q25: at_reference_speed(unit, raw.q25, speed),
                    q75: at_reference_speed(unit, raw.q75, speed),
                };
                (name, unit, scaled)
            })
            .collect()
    }

    /// The waterfall of a traced run.
    pub fn waterfall(&self) -> Option<Waterfall> {
        let walk = self.walk.as_ref()?;
        let layer = |name: &str| walk.metrics.get(name).copied().unwrap_or(0.0);
        let measured = self.round("server_cpu_us_per_event").median;
        // Per-line and per-batch prices become per-event ones through what
        // a batch of this workload carries (1 024 lines, ~8 occurrences a
        // line when weighted).
        let events_per_batch = walk.events as f64 / walk.batches.max(1) as f64;
        let parse =
            layer("protocol.parse_ns_per_line") * LINES_PER_BATCH as f64 / events_per_batch / 1e3;
        let views = if self.run.workload.views > 0 {
            layer("views.maintain_us") / events_per_batch
        } else {
            0.0
        };
        Some(Waterfall {
            terms: vec![
                (
                    "frontend.self",
                    measured - walk.engine_cpu_us_per_event - parse,
                ),
                ("protocol.parse", parse),
                ("engine.route", layer("engine.route_ns_per_event") / 1e3),
                ("wal.encode", layer("wal.encode_ns_per_event") / 1e3),
                ("store.ingest", layer("store.ingest_ns_per_event") / 1e3),
                (
                    "store.clone/batch",
                    layer("store.clone_us") / events_per_batch,
                ),
                ("views.maintain/batch", views),
            ],
            measured,
        })
    }

    /// Every per-layer metric in `BENCHMARK.json` order. Layers the walk
    /// prices are 0 in an untraced run.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let walk: BTreeMap<&str, f64> = self
            .walk
            .iter()
            .flat_map(|w| w.metrics.iter().map(|(k, v)| (*k, *v)))
            .collect();
        let waterfall = self.waterfall();
        per_layer()
            .iter()
            .map(|m| {
                let value = match m.name {
                    "frontend.self_us_per_event" => {
                        waterfall.as_ref().map_or(0.0, |w| w.terms[0].1)
                    }
                    "frontend.self_us_per_query" => self.walk.as_ref().map_or(0.0, |_| {
                        let below = walk["protocol.parse_ns_per_query"]
                            + walk["engine.query_ns"]
                            + walk["protocol.render_ns_per_answer"];
                        self.round("client.cpu_us_per_pipelined_query").median - below / 1e3
                    }),
                    "trace.overhead_pct" => {
                        let plain = self.round("ingest_meps").median;
                        match self.run.traced_rounds.get("ingest_meps") {
                            Some(traced) if plain > 0.0 => {
                                100.0 * (1.0 - summarize(traced).median / plain)
                            }
                            _ => 0.0,
                        }
                    }
                    "trace.unattributed_pct" => waterfall.as_ref().map_or(0.0, |w| {
                        let sum: f64 = w.terms.iter().map(|t| t.1).sum();
                        100.0 * (w.measured - sum) / w.measured
                    }),
                    name => match self.run.scalars.get(name) {
                        Some(&v) => v,
                        None if self.measured_over_tcp(name) => self.round(name).median,
                        None => walk.get(name).copied().unwrap_or(0.0),
                    },
                };
                (m.name, m.unit, value)
            })
            .collect()
    }

    /// The table a person reads.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let run = &self.run;
        let _ = writeln!(
            out,
            "== {} seed {} — {} rounds, {} set-ups, failed_ops {}/{} attempted_ops{}",
            run.workload.name,
            run.seed,
            run.plan.rounds,
            run.plan.setups,
            run.failed,
            run.attempted,
            if self.noisy_host() {
                " — NOISY HOST"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "   {:<28} {:>12} {:>12} {:>12} {:>12}  unit   (host speed {:.3}: probe {:.1} ns/line)",
            "end-to-end metric",
            "at ref speed",
            "q25",
            "q75",
            "as measured",
            self.scalar("client.host_speed"),
            self.scalar("client.probe_ns_per_line"),
        );
        for ((name, unit, s), (_, _, raw)) in self.end_to_end().into_iter().zip(self.as_measured())
        {
            let _ = writeln!(
                out,
                "   {name:<28} {:>12.4} {:>12.4} {:>12.4} {:>12.4}  {unit}",
                s.median, s.q25, s.q75, raw.median
            );
        }
        // An untraced run prints the layer metrics it has: the client's own
        // and the ones read off the wire. The rest need the walk.
        let _ = writeln!(out, "   {:<34} {:>14}  unit", "per-layer metric", "value");
        for (name, unit, value) in self.per_layer() {
            if self.walk.is_some() || self.measured_over_tcp(name) {
                let _ = writeln!(out, "   {name:<34} {value:>14.4}  {unit}");
            }
        }
        if let Some(w) = self.waterfall() {
            let _ = writeln!(out, "   waterfall, us of server CPU per event:");
            for (term, us) in &w.terms {
                let _ = writeln!(
                    out,
                    "     {term:<24} {us:>9.4}  {:>5.1} %",
                    100.0 * us / w.measured
                );
            }
            let sum: f64 = w.terms.iter().map(|t| t.1).sum();
            let _ = writeln!(
                out,
                "     {:<24} {sum:>9.4}  of {:.4} measured",
                "sum", w.measured
            );
        }
        let _ = writeln!(
            out,
            "   input_fnv {:016x} {:016x}  steal {:.2} %  pace_lag_p99 {:.3} ms",
            run.input_fnv[0],
            run.input_fnv[1],
            self.steal_pct,
            self.scalar("client.pace_lag_p99_ms")
        );
        out
    }

    /// The full report as one JSON object.
    pub fn json(&self) -> String {
        let run = &self.run;
        let e2e: Vec<String> = self
            .end_to_end()
            .iter()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"q25\":{},\"q75\":{},\"unit\":\"{unit}\"}}",
                    num(s.median),
                    num(s.q25),
                    num(s.q75)
                )
            })
            .collect();
        let raw: Vec<String> = self
            .as_measured()
            .iter()
            .map(|(name, _, s)| format!("\"{name}\":{}", num(s.median)))
            .collect();
        let layers: Vec<String> = self
            .per_layer()
            .iter()
            .map(|(name, unit, v)| cell(name, unit, *v))
            .collect();
        let series = |(name, values): (&&str, &Vec<f64>)| {
            let values: Vec<String> = values.iter().map(|v| num(*v)).collect();
            format!("\"{name}\":[{}]", values.join(","))
        };
        let per_round: Vec<String> = run.rounds.iter().map(series).collect();
        let per_incarnation: Vec<String> = run.incarnations.iter().map(series).collect();
        let env = &self.env;
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"rounds\":{},\"setups\":{},\"traced\":{},\
             \"failed_ops\":{},\"attempted_ops\":{},\"input_fnv\":[\"{:016x}\",\"{:016x}\"],\
             \"noisy_host\":{},\"end_to_end\":{{{}}},\"as_measured\":{{{}}},\"per_layer\":{{{}}},\"per_round\":{{{}}},\"per_incarnation\":{{{}}},\
             \"env\":{{\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\
             \"profile\":\"{}\",\"commit\":\"{}\",\"steal_pct\":{},\"pace_lag_p99_ms\":{}}}}}",
            run.workload.name,
            run.seed,
            run.plan.rounds,
            run.plan.setups,
            self.walk.is_some(),
            run.failed,
            run.attempted,
            run.input_fnv[0],
            run.input_fnv[1],
            self.noisy_host(),
            e2e.join(","),
            raw.join(","),
            layers.join(","),
            per_round.join(","),
            per_incarnation.join(","),
            env.nproc,
            escape(&env.cpu_model),
            escape(&env.kernel),
            escape(&env.rustc),
            env.profile,
            escape(&env.commit),
            num(self.steal_pct),
            num(self.scalar("client.pace_lag_p99_ms")),
        )
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics (untraced) or the per-layer metrics (traced).
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            self.per_layer()
                .iter()
                .map(|(name, unit, v)| cell(name, unit, *v))
                .collect()
        } else {
            self.end_to_end()
                .iter()
                .map(|(name, unit, s)| cell(name, unit, s.median))
                .collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.run.failed == 0,
            self.run.attempted.max(1),
            self.run.failed,
            metrics.join(",")
        )
    }
}

/// What a `value` in `unit` would have read on a host at the reference
/// speed, measured on one `speed` times as fast: durations stretch by that
/// factor, rates shrink by it, memory and counts do not move.
fn at_reference_speed(unit: &str, value: f64, speed: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => value * speed,
        rate if rate.ends_with("/s") => value / speed,
        _ => value,
    }
}

/// `"name":{"value":…,"unit":"…"}`, the shape the driver reads.
fn cell(name: &str, unit: &str, value: f64) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        num(value)
    )
}

/// A JSON number with all its digits; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_scales_durations_and_rates_and_nothing_else() {
        // Measured on a host 1.25 times as fast as the reference.
        assert_eq!(at_reference_speed("s", 2.0, 1.25), 2.5);
        assert_eq!(at_reference_speed("us", 80.0, 1.25), 100.0);
        assert_eq!(at_reference_speed("Mevents/s", 2.5, 1.25), 2.0);
        assert_eq!(at_reference_speed("kqueries/s", 100.0, 1.25), 80.0);
        assert_eq!(at_reference_speed("MiB", 270.0, 1.25), 270.0);
        assert_eq!(at_reference_speed("count", 3.0, 1.25), 3.0);
        // A speed of 1 changes nothing, whatever the unit.
        for m in end_to_end().iter().chain(&per_layer()) {
            assert_eq!(at_reference_speed(m.unit, 7.0, 1.0), 7.0, "{}", m.name);
        }
        // Every declared end-to-end unit is one the rule knows how to treat:
        // a new duration in an unlisted unit would silently go unscaled.
        for m in end_to_end() {
            let known = ["s", "ms", "us", "ns", "MiB", "count"].contains(&m.unit);
            assert!(known || m.unit.ends_with("/s"), "{}: {}", m.name, m.unit);
        }
    }
}
