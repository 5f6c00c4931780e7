//! The one writer of the `BENCH_*.json` result files.
//!
//! Each file is a flat JSON object whose top-level keys belong to
//! different experiments (`all` owns the wall-clock accounting in
//! `BENCH_harness.json`, `scale_sweep` and `tenant_service` their own
//! sections; `cluster_smoke` and `tracker_failover` share
//! `BENCH_cluster.json`). [`set_keys`] replaces the keys a writer owns and
//! keeps every other key verbatim, so the writers can run in any order.

use pnats_obs::json::validate_json;
use std::path::Path;

/// Set each `(key, value)` of `entries` as a top-level key of the JSON
/// object in `path` (values are JSON text), keeping every other key and
/// the order of the existing ones; new keys are appended. A missing file
/// starts empty. Fails — leaving the file alone — when the file is not a
/// JSON object or a value is not valid JSON.
pub fn set_keys(path: impl AsRef<Path>, entries: &[(&str, String)]) -> Result<(), String> {
    let path = path.as_ref();
    let mut members = match std::fs::read_to_string(path) {
        Ok(text) => members(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    for (key, value) in entries {
        validate_json(value).map_err(|e| format!("{key}: {e}"))?;
        let value = value.trim().to_string();
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }
    let body: Vec<String> = members.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let text = format!("{{\n{}\n}}\n", body.join(",\n"));
    validate_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Record a run's keys in `path` through [`set_keys`] — unless the run is
/// a smoke run. Smoke runs measure shrunken inputs; their numbers would
/// overwrite the committed full-run sections, so they leave the file's
/// bytes untouched. Returns whether the file was written.
pub fn record(
    path: impl AsRef<Path>,
    entries: &[(&str, String)],
    smoke: bool,
) -> Result<bool, String> {
    if smoke {
        return Ok(false);
    }
    set_keys(path, entries)?;
    Ok(true)
}

/// The top-level `(key, raw value text)` members of a JSON object.
fn members(text: &str) -> Result<Vec<(String, String)>, String> {
    validate_json(text)?;
    let inner = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    // The text is valid JSON, so splitting at commas outside strings and
    // nested values yields exactly the `"key": value` members.
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0);
    let mut parts = Vec::new();
    for (i, c) in inner.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !inner[start..].trim().is_empty() {
        parts.push(&inner[start..]);
    }
    parts
        .into_iter()
        .map(|part| {
            let part = part.trim().strip_prefix('"').ok_or("member without a key")?;
            let (key, value) = part.split_once("\":").ok_or("member without a value")?;
            Ok((key.to_string(), value.trim().to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pnats-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn failover_and_smoke_fields_survive_each_other() {
        let path = scratch("cluster.json");
        let failover = [
            ("failover_trials", "3".to_string()),
            ("failover_ms_mean", "133.7".to_string()),
            ("failover_ms_p99", "135.8".to_string()),
        ];
        let smoke = [
            ("bench", "\"cluster_smoke\"".to_string()),
            ("seed", "42".to_string()),
            ("cluster_ms", "105.8".to_string()),
        ];
        set_keys(&path, &failover).unwrap();
        set_keys(&path, &smoke).unwrap();
        let got = members(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (k, v) in failover.iter().chain(&smoke) {
            assert!(got.contains(&(k.to_string(), v.clone())), "{k} lost: {got:?}");
        }

        // Re-writing a key replaces it in place; re-writing the same
        // value leaves the file byte-identical.
        set_keys(&path, &[("failover_ms_mean", "99.0".to_string())]).unwrap();
        let once = std::fs::read_to_string(&path).unwrap();
        set_keys(&path, &[("failover_ms_mean", "99.0".to_string())]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), once);
        let got = members(&once).unwrap();
        assert_eq!(got.len(), failover.len() + smoke.len());
        assert_eq!(got[1], ("failover_ms_mean".to_string(), "99.0".to_string()));
    }

    #[test]
    fn nested_values_and_tricky_strings_round_trip() {
        let path = scratch("harness.json");
        let section = "{\"cells\": [{\"a\": 1}, {\"b\": \"x, \\\"}]\"}], \"k\": null}";
        let multi_line = "{\n    \"offers\": 3,\n    \"assigns\": 2\n  }";
        let entries = [("scale_sweep", section.to_string()), ("counters", multi_line.to_string())];
        set_keys(&path, &entries).unwrap();
        set_keys(&path, &[("total_wall_s", "1.000".into())]).unwrap();
        let got = members(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["scale_sweep", "counters", "total_wall_s"]);
        assert_eq!(got[0].1, section);
        assert_eq!(got[1].1, multi_line);
    }

    #[test]
    fn smoke_runs_leave_the_file_bytes_alone() {
        let path = scratch("smoke.json");
        let committed = "{\n  \"scale_sweep\": {\"smoke\": false, \"cells\": [1, 2]}\n}\n";
        std::fs::write(&path, committed).unwrap();
        let section = [("scale_sweep", "{\"smoke\": true, \"cells\": [1]}".to_string())];
        assert!(!record(&path, &section, true).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
        assert!(record(&path, &section, false).unwrap());
        assert_ne!(std::fs::read_to_string(&path).unwrap(), committed);
    }

    #[test]
    fn refuses_to_clobber_a_malformed_file_or_write_a_bad_value() {
        let path = scratch("bad.json");
        std::fs::write(&path, "[1, 2]").unwrap();
        assert!(set_keys(&path, &[("k", "1".into())]).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1, 2]");
        std::fs::remove_file(&path).unwrap();
        assert!(set_keys(&path, &[("k", "{oops".into())]).is_err());
        assert!(!path.exists());
    }
}
