//! One sketch surface: `SketchSpec` is the only way to build a sketch, so
//! the typed builder it replaced may appear nowhere a caller could reach it
//! — in the other crates, the tests, the examples, the meta-crate, the
//! README or the docs. (Inside `crates/ecm/src` the config derivations are
//! private functions behind `SketchSpec::ecm_config`.)

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

#[test]
fn the_retired_builder_appears_nowhere_outside_the_ecm_crate() {
    // Spelled in two halves so this file does not match itself.
    let needle = ["Ecm", "Builder"].concat();
    let exempt = root().join("crates/ecm/src");
    let mut files = Vec::new();
    for scope in ["crates", "tests", "examples", "src", "README.md", "docs"] {
        text_files(&root().join(scope), &mut files);
    }
    assert!(files.len() > 100, "the scan must see the workspace");
    let hits: Vec<String> = files
        .iter()
        .filter(|f| !f.starts_with(&exempt))
        .filter_map(|f| {
            let text = std::fs::read_to_string(f).ok()?;
            let line = text.lines().position(|l| l.contains(&needle))?;
            Some(format!("{}:{}", f.display(), line + 1))
        })
        .collect();
    assert!(hits.is_empty(), "{needle} outside crates/ecm/src: {hits:?}");
}
