//! A `--smoke` run must leave the committed `BENCH_*.json` trail alone:
//! its numbers come from shrunken inputs and would replace the full-run
//! sections. Runs the real `pnats-bench tenant_service --smoke` (about a
//! second) in a temporary directory holding a full-run file.

use std::process::Command;

#[test]
fn tenant_service_smoke_leaves_bench_harness_bytes_unchanged() {
    let dir = std::env::temp_dir().join(format!("pnats-smoke-writes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_harness.json");
    let committed =
        "{\n  \"tenant_service\": {\"seed\": \"42\", \"smoke\": false, \"levels\": []}\n}\n";
    std::fs::write(&path, committed).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pnats-bench"))
        .args(["tenant_service", "42", "--smoke"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&path).unwrap(), committed.as_bytes());
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert_eq!(names, ["BENCH_harness.json"], "a smoke run created files");
    std::fs::remove_dir_all(&dir).unwrap();
}
