//! The snapshot-directory manifest: the shard layout and the standing
//! views a restart must find again, as one small JSON file
//! (`{"shards":N,"views":["…", …]}`).

use std::path::Path;

use super::wal::write_atomic;
use super::EngineError;
use crate::protocol::json;

/// Name of the manifest inside a snapshot directory.
pub(super) const MANIFEST: &str = "MANIFEST.json";

/// Land the manifest through [`write_atomic`] (synced with `fsync`, the
/// log's setting), so a crash mid-write can't tear the file a restart
/// needs to restore at all. Each view is persisted as its `VIEW CREATE`
/// wire tail, re-parsed on restore by the same protocol grammar that
/// created it.
pub(super) fn write_manifest(
    dir: &Path,
    shards: usize,
    views: &[String],
    fsync: bool,
) -> Result<(), EngineError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| EngineError::Snapshot(format!("create {}: {e}", dir.display())))?;
    let mut text = format!("{{\"shards\":{shards},\"views\":[");
    for (i, v) in views.iter().enumerate() {
        text.push_str(if i > 0 { ",\"" } else { "\"" });
        json::escape(&mut text, v);
        text.push('"');
    }
    text.push_str("]}\n");
    write_atomic(dir, MANIFEST, text.as_bytes(), fsync).map_err(EngineError::Snapshot)
}

/// Read the shard count and persisted view definitions back. A PR-7-era
/// manifest without a `views` field restores with an empty view set.
pub(super) fn read_manifest(dir: &Path) -> Result<(usize, Vec<String>), EngineError> {
    let path = dir.join(MANIFEST);
    let corrupt = |what: &str| EngineError::Restore(format!("{}: {what}", path.display()));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| EngineError::Restore(format!("read {}: {e}", path.display())))?;
    let needle = "\"shards\":";
    let at = text.find(needle).ok_or_else(|| corrupt("no shard count"))?;
    let digits: String = text[at + needle.len()..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    let shards = digits
        .parse()
        .map_err(|e| corrupt(&format!("bad shard count: {e}")))?;
    let views = match text.find("\"views\":") {
        None => Vec::new(),
        Some(at) => {
            let rest = &text[at + "\"views\":".len()..];
            let open = rest.find('[').ok_or_else(|| corrupt("bad views"))?;
            json::parse_string_array(&rest[open + 1..])
                .map_err(|what| corrupt(&format!("views: {what}")))?
        }
    };
    Ok((shards, views))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sketchd-manifest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn a_manifest_written_by_the_previous_release_still_parses() {
        // The bytes `write_manifest` produced while it had its own escaper:
        // no short forms, so the tab in the second view is a `\u0009`.
        let dir = scratch("parent-bytes");
        let parent = "{\"shards\":4,\"views\":[\"hot topk 3 time 500\",\
                      \"q\\\"uo\\\\te\\u0009 hh user-1 rel:0.1 time 500\"]}\n";
        std::fs::write(dir.join(MANIFEST), parent).unwrap();
        let views = vec![
            "hot topk 3 time 500".to_string(),
            "q\"uo\\te\t hh user-1 rel:0.1 time 500".to_string(),
        ];
        assert_eq!(read_manifest(&dir).unwrap(), (4, views.clone()));

        // Today's bytes differ only in the tab's short form, and read back
        // to the same views.
        write_manifest(&dir, 4, &views, false).unwrap();
        let written = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert_eq!(written, parent.replace("\\u0009", "\\t"));
        assert_eq!(read_manifest(&dir).unwrap(), (4, views));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_without_views_or_with_a_torn_array_is_told_apart() {
        let dir = scratch("shapes");
        std::fs::write(dir.join(MANIFEST), "{\"shards\": 2}\n").unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), (2, Vec::new()));
        std::fs::write(dir.join(MANIFEST), "{\"shards\":2,\"views\":[\"a").unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
