//! Cache snapshots: atomic persistence with an identity digest.
//!
//! A snapshot is a pretty-printed JSON file holding every cache entry
//! in least-recently-used order plus a digest over the entries.  The
//! writer goes through write-then-rename (the checkpoint discipline —
//! a crash mid-write never corrupts a loadable snapshot), and the
//! loader recomputes the digest and refuses a file whose contents do
//! not match its identity, so a truncated, hand-edited, or mixed-up
//! snapshot loads as a clean error and the server simply starts cold.

use std::path::Path;

use spi_verify::jsonlite::Json;

use crate::digest::digest;

/// Snapshot entries: `(key, op, body)` triples, LRU-first.
pub type Entries = Vec<(String, String, String)>;

/// The digest binding a snapshot to its exact contents.
#[must_use]
pub fn snapshot_identity(entries: &[(String, String, String)]) -> String {
    use std::fmt::Write as _;
    let mut desc = String::from("snapshot-v1");
    for (key, op, body) in entries {
        let _ = write!(desc, "|{key}|{op}|{body}");
    }
    digest(&desc)
}

/// Encodes cache entries as a snapshot body: `version`, `identity` and
/// `entries`.  A snapshot file is this body rendered, and a gossip
/// transfer carries it on the wire.
#[must_use]
pub fn snapshot_body(entries: &[(String, String, String)]) -> Json {
    let entry = |(key, op, body): &(String, String, String)| {
        Json::Obj(vec![
            ("key".into(), Json::str(key.clone())),
            ("op".into(), Json::str(op.clone())),
            ("body".into(), Json::str(body.clone())),
        ])
    };
    Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("identity".into(), Json::str(snapshot_identity(entries))),
        ("entries".into(), Json::Arr(entries.iter().map(entry).collect())),
    ])
}

/// Decodes and *verifies* a snapshot body; `source` ("snapshot",
/// "gossip") names it in error messages.
///
/// # Errors
///
/// Fails on an unsupported version, a structurally incomplete entry
/// (a torn transfer), or an identity digest that does not match the
/// contents (forged or corrupted) — in every case nothing is returned
/// to load or merge.
pub fn parse_snapshot(body: &Json, source: &str) -> Result<Entries, String> {
    match body.get("version").and_then(Json::as_int) {
        Some(1) => {}
        other => return Err(format!("unsupported {source} version {other:?}")),
    }
    let mut entries = Entries::new();
    for item in body.get("entries").and_then(Json::as_arr).unwrap_or_default() {
        let field = |k: &str| {
            item.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("a {source} entry lacks its {k:?}"))
        };
        entries.push((field("key")?, field("op")?, field("body")?));
    }
    let stored = body.get("identity").and_then(Json::as_str).unwrap_or("");
    let computed = snapshot_identity(&entries);
    if stored != computed {
        return Err(format!(
            "{source} identity mismatch (it says {stored}, its contents hash to {computed}); \
             refusing it"
        ));
    }
    Ok(entries)
}

/// Writes a snapshot atomically (write-then-rename).
///
/// # Errors
///
/// Returns a description of the I/O failure.
pub fn write_snapshot(path: &Path, entries: &[(String, String, String)]) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, snapshot_body(entries).render())
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move snapshot into {}: {e}", path.display()))
}

/// Loads a snapshot, verifying its identity digest.
///
/// # Errors
///
/// Fails on I/O trouble, malformed JSON, or anything
/// [`parse_snapshot`] refuses.
pub fn load_snapshot(path: &Path) -> Result<Entries, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_snapshot(&json, "snapshot")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spi-snap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.json")
    }

    fn sample() -> Entries {
        vec![
            ("fnv:aaaa".into(), "verify".into(), r#"{"verdict":"securely-implements"}"#.into()),
            ("fnv:bbbb".into(), "campaign".into(), r#"{"enumerated":3}"#.into()),
        ]
    }

    #[test]
    fn round_trips_entries_in_order() {
        let path = tmp("roundtrip");
        write_snapshot(&path, &sample()).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), sample());
    }

    #[test]
    fn empty_snapshots_round_trip() {
        let path = tmp("empty");
        write_snapshot(&path, &[]).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), Entries::new());
    }

    #[test]
    fn forged_identity_is_refused() {
        let path = tmp("forged");
        write_snapshot(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Tamper with a body without updating the identity.
        let forged = text.replace("securely-implements", "attack");
        assert_ne!(text, forged, "the tamper target must exist");
        std::fs::write(&path, forged).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("identity mismatch"), "{err}");
    }

    #[test]
    fn tampered_identity_field_is_refused() {
        let path = tmp("badid");
        write_snapshot(&path, &sample()).unwrap();
        let mut forged = std::fs::read_to_string(&path).unwrap();
        let id_start = forged.find("fnv:").unwrap();
        forged.replace_range(id_start + 4..id_start + 8, "dead");
        std::fs::write(&path, &forged).unwrap();
        assert!(load_snapshot(&path).is_err());
    }

    #[test]
    fn missing_and_malformed_files_error_cleanly() {
        assert!(load_snapshot(Path::new("/nonexistent/snap.json")).is_err());
        let path = tmp("malformed");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::write(&path, r#"{"version":9,"identity":"x","entries":[]}"#).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }
}
