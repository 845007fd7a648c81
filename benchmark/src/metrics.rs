//! The metric tables. `BENCHMARK.json` at the repo root is the one place
//! they are declared; it is compiled in and read here, so what a report
//! prints and what the driver expects cannot drift apart.

const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name in every output.
    pub name: &'static str,
    /// Unit (ASCII: `us` is microseconds).
    pub unit: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The value of `"key":` in the flat object `object`: a string without its
/// quotes, or a bare number.
fn field(object: &'static str, key: &str) -> Option<&'static str> {
    let quoted = format!("\"{key}\"");
    let rest = &object[object.find(&quoted)? + quoted.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    match rest.strip_prefix('"') {
        Some(string) => string.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// The flat objects of the array under `"name"` (the file is ours: no
/// nesting, no escapes).
fn section(name: &str) -> impl Iterator<Item = &'static str> {
    let at = DECLARED
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {name:?}"));
    let body = &DECLARED[at..];
    let body = &body[..body.find(']').expect("the section is an array")];
    body.split('{').skip(1)
}

fn metrics(name: &str) -> Vec<Metric> {
    section(name)
        .map(|object| Metric {
            name: field(object, "name").expect("a metric has a name"),
            unit: field(object, "unit").expect("a metric has a unit"),
            bound: field(object, "bound").map(|b| b.parse().expect("a bound is a number")),
        })
        .collect()
}

/// The end-to-end metrics in declared order; every workload reports all of
/// them, from untraced runs.
pub fn end_to_end() -> Vec<Metric> {
    metrics("end_to_end")
}

/// Every per-layer metric a traced run prints, in declared order. No
/// bounds: layers explain, end-to-end decides.
pub fn per_layer() -> Vec<Metric> {
    metrics("per_layer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn the_declaration_is_one_the_driver_accepts() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name).collect();
        for m in e2e.iter().chain(&layers) {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !m.name.is_empty() && m.name.len() <= 64 && m.name.chars().all(legal),
                "illegal name {:?}",
                m.name
            );
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), e2e.len() + layers.len(), "a name is used once");
        for m in &e2e {
            let bound = m.bound.expect("an end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(layers.iter().all(|m| m.bound.is_none()));
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn the_declared_workloads_are_the_ones_that_run() {
        let declared: Vec<&str> = section("workloads")
            .map(|object| field(object, "name").expect("a workload has a name"))
            .collect();
        assert_eq!(declared, WORKLOADS.map(|w| w.name));
    }
}
