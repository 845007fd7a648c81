//! Retired names stay retired. `SketchSpec` is the only way to build a
//! sketch, so the typed builder it replaced may appear nowhere a caller
//! could reach it — in the other crates, the tests, the examples, the
//! meta-crate, the README or the docs. (Inside `crates/ecm/src` the config
//! derivations are private functions behind `SketchSpec::ecm_config`.) The
//! store's incremental checkpoints and its capacity eviction are gone
//! everywhere, `crates/ecm/src` included: the write-ahead log is the only
//! increment, and a store never discards a key. So are the count-based
//! wrapper types (the count clock is a value on `EcmSketch` and
//! `EcmHierarchy`) and the equi-width spec backend.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every text file under `path` (or `path` itself), skipping build output.
fn text_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        for entry in std::fs::read_dir(path).expect("readable dir").flatten() {
            text_files(&entry.path(), out);
        }
    } else if path
        .extension()
        .is_some_and(|e| ["rs", "md", "toml", "yml"].contains(&e.to_str().unwrap_or("")))
    {
        out.push(path.to_path_buf());
    }
}

/// Each retired name in two halves, so this file does not match itself,
/// and the one directory it may still appear under.
const RETIRED: [([&str; 2], Option<&str>); 9] = [
    (["Ecm", "Builder"], Some("crates/ecm/src")),
    (["write_", "incremental"], None),
    (["apply_", "incremental"], None),
    (["Evic", "tion"], None),
    (["SketchStore::", "with_capacity"], None),
    (["KIND_", "INCREMENTAL"], None),
    (["CountBased", "Ecm"], None),
    (["CountBased", "Hierarchy"], None),
    (["Backend::", "Ew"], None),
];

#[test]
fn the_retired_builder_appears_nowhere_outside_the_ecm_crate() {
    let mut files = Vec::new();
    for scope in ["crates", "tests", "examples", "src", "README.md", "docs"] {
        text_files(&root().join(scope), &mut files);
    }
    assert!(files.len() > 100, "the scan must see the workspace");
    let texts: Vec<(&PathBuf, String)> = files
        .iter()
        .filter_map(|f| Some((f, std::fs::read_to_string(f).ok()?)))
        .collect();
    for (halves, exempt) in RETIRED {
        let needle = halves.concat();
        let exempt = exempt.map(|dir| root().join(dir));
        let hits: Vec<String> = texts
            .iter()
            .filter(|(f, _)| exempt.as_ref().is_none_or(|dir| !f.starts_with(dir)))
            .filter_map(|(f, text)| {
                let line = text.lines().position(|l| l.contains(&needle))?;
                Some(format!("{}:{}", f.display(), line + 1))
            })
            .collect();
        assert!(hits.is_empty(), "retired {needle} appears: {hits:?}");
    }
}
