//! The bench crate's one JSON format: machine-written, one row per line,
//! fields in a fixed order. `benches/kernels.rs` writes `BENCH_kernels.json`
//! and `src/bin/repro.rs` writes `REPRODUCTION.json` with the writer half;
//! `tests/reproduction.rs` reads the latter back with the flat-field reader.

use std::process::Command;

/// One JSON object on one line, from names and already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array, one row per line.
pub fn rows(rows: &[String]) -> String {
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// A number with `decimals` places.
pub fn num(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// A JSON string. The strings written here are labels, file names and
/// machine descriptions, for which Rust's `Debug` escapes and JSON's
/// coincide.
pub fn text(s: &str) -> String {
    format!("{s:?}")
}

/// The machine record, with the keys a `sketchbench` report carries.
pub fn env_block() -> String {
    let first_line = |text: &str| Some(text.lines().next()?.trim().to_string());
    let run = |cmd: &mut Command| {
        let out = cmd.output().ok().filter(|o| o.status.success())?;
        first_line(&String::from_utf8_lossy(&out.stdout))
    };
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu_model = cpuinfo.lines().find(|l| l.starts_with("model name"));
    let cpu_model = cpu_model.and_then(|l| first_line(l.split(':').nth(1)?));
    let kernel = first_line(&read("/proc/sys/kernel/osrelease"));
    let rustc = run(Command::new("rustc").arg("--version"));
    let mut git = Command::new("git");
    let commit = run(git
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR")));
    let known = |v: Option<String>| text(v.as_deref().unwrap_or("unknown"));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=thin, codegen-units=1)"
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    object(&[
        ("nproc", nproc.to_string()),
        ("cpu_model", known(cpu_model)),
        ("kernel", known(kernel)),
        ("rustc", known(rustc)),
        ("profile", text(profile)),
        ("commit", known(commit)),
    ])
}

/// The text after the top-level `"name": ` of a machine-written file.
pub fn section<'a>(text: &'a str, name: &str) -> &'a str {
    text.split(&format!("\n  \"{name}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("missing section {name:?}"))
}

/// The text following the first `"key": ` in `text` (flat, machine-written
/// JSON: no nesting below the field, no escaped quotes).
fn after<'a>(text: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\": ");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("missing field {key:?}"));
    &text[at + needle.len()..]
}

/// The number following the first `"key": ` in `text`.
pub fn number(text: &str, key: &str) -> f64 {
    let rest = after(text, key);
    rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())]
        .parse()
        .unwrap_or_else(|e| panic!("field {key:?} is not a number: {e}"))
}

/// The string following the first `"key": ` in `text`, without its quotes.
pub fn string<'a>(text: &'a str, key: &str) -> &'a str {
    let rest = after(text, key)
        .strip_prefix('"')
        .unwrap_or_else(|| panic!("field {key:?} is not a string"));
    &rest[..rest.find('"').expect("a closing quote")]
}
