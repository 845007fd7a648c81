//! `REPRODUCTION.json`, the checked-in record of which of the paper's
//! shapes this workspace reproduces (`src/bin/repro.rs` writes it). The
//! file must carry every claim of `ecm_bench::repro::CLAIMS` at its fixed
//! margin, with the verdict its recorded value implies; and the claims that
//! depend on neither scale nor timing are re-run live at a reduced event
//! count with the suite's seeds, so a change that breaks a guarantee fails
//! here rather than at the next re-recording.

use ecm_bench::json::{number, section, string};
use ecm_bench::repro::{self, verdict, Report};
use std::path::Path;

/// Events per trace in the live re-runs.
const LIVE_EVENTS: usize = 10_000;

fn load() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../REPRODUCTION.json");
    let text = std::fs::read_to_string(&path);
    text.unwrap_or_else(|e| panic!("REPRODUCTION.json must be checked in at {path:?}: {e}"))
}

#[test]
fn every_claim_is_recorded_at_its_margin_with_the_verdict_its_value_implies() {
    let text = load();
    let claims = section(&text, "claims");
    let claims = &claims[..claims.find(']').expect("claims close")];
    for listed in repro::listed_claims() {
        let (id, op, margin) = (listed.id, listed.op, listed.margin);
        let needle = format!("{{\"id\": \"{id}\",");
        let line = claims.lines().find(|l| l.trim_start().starts_with(&needle));
        let line = line.unwrap_or_else(|| panic!("REPRODUCTION.json has no claim {id:?}"));
        assert_eq!(string(line, "op"), op, "{id}: comparison changed");
        assert_eq!(number(line, "margin"), margin, "{id}: margin changed");
        let value = number(line, "value");
        let why = format!("{id}: {value} {op} {margin}");
        assert_eq!(string(line, "verdict"), verdict(value, op, margin), "{why}");
    }
    // The eleven shapes of the paper the file answers, split into parts.
    let listed = repro::listed_claims().count();
    assert_eq!((claims.matches("{\"id\": ").count(), listed), (24, 24));
}

#[test]
fn the_file_is_a_release_run_at_the_default_scale_with_its_machine() {
    let text = load();
    assert_eq!(number(&text, "schema_version"), 1.0);
    assert_eq!(string(&text, "bench"), "repro");
    let env = section(&text, "env").lines().next().expect("env line");
    assert!(number(env, "nproc") >= 1.0);
    for key in ["cpu_model", "kernel", "rustc", "profile", "commit"] {
        assert!(!string(env, key).is_empty(), "env {key:?} is empty");
    }
    let profile = string(env, "profile");
    assert!(
        profile.starts_with("release"),
        "not a release run: {profile}"
    );
    assert_eq!(number(section(&text, "workload"), "events"), 200_000.0);
    let rows = section(&text, "rows");
    for exp in "fig4 fig5 fig6 table2 table3 table4 monitoring".split(' ') {
        let row = format!("{{\"exp\": \"{exp}\", ");
        assert!(rows.contains(&row), "no {exp} rows");
    }
}

/// Claim `id` holds in `report`.
fn assert_live(report: Report, id: &str) {
    let c = report
        .claims
        .iter()
        .find(|c| c.id == id)
        .expect("the claim is made");
    let (value, op, margin) = (c.value, c.op, c.margin);
    assert_eq!(c.verdict(), "reproduced", "{id}: {value} {op} {margin}");
}

#[test]
fn centralized_errors_stay_within_eps_live() {
    let data = repro::datasets(LIVE_EVENTS);
    assert_live(repro::fig4(&repro::sets(&data)), "fig4.error_within_eps");
}

#[test]
fn randomized_wave_aggregation_is_lossless_live() {
    let data = repro::datasets(LIVE_EVENTS);
    assert_live(repro::table4(&repro::sets(&data)), "table4.rw_lossless");
}

#[test]
fn the_guaranteed_structures_stay_within_eps_live() {
    assert_live(repro::baseline_equiwidth(), "s2.eh_within_eps");
    let hybrid = repro::baseline_hybrid(LIVE_EVENTS);
    assert_live(hybrid, "s2.hierarchy_within_eps");
}

#[test]
fn the_ablation_bounds_hold_live() {
    let n = LIVE_EVENTS;
    assert_live(repro::ablation_fanout(n), "ablation.fanout_within_target");
    assert_live(repro::ablation_merge(n), "ablation.merge_theorem4");
    assert_live(repro::propagation(n), "ablation.propagation_within_bound");
}
