//! Drift gate for the experiment registry: names are unique, `list`
//! prints exactly them, and every `pnats-bench <name>` invocation in CI
//! and the docs names a registered experiment.

use pnats_bench::experiments::{find, EXPERIMENTS};
use std::process::Command;

#[test]
fn names_are_unique_and_the_sweep_is_the_paper_set() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 22);
    names.sort();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment names");
    assert!(names.iter().all(|n| !["all", "list"].contains(n)), "name shadows a command");
    assert_eq!(EXPERIMENTS.iter().filter(|e| e.in_all).count(), 16);
}

#[test]
fn list_prints_exactly_the_registered_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_pnats-bench")).arg("list").output().unwrap();
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout).unwrap().lines().map(String::from).collect();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered);
}

#[test]
fn every_documented_invocation_names_a_registered_experiment() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut seen = 0;
    for file in [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
        // `cargo run … -p pnats-bench -- <name>` and `…/release/pnats-bench <name>`.
        for marker in ["-p pnats-bench -- ", "release/pnats-bench "] {
            for (at, _) in text.match_indices(marker) {
                let name = text[at + marker.len()..].split_whitespace().next().unwrap_or("");
                let name = name.trim_end_matches(['`', ')', ';']);
                assert!(
                    ["all", "list"].contains(&name) || find(name).is_some(),
                    "{file}: `pnats-bench {name}` is not a registered experiment"
                );
                seen += 1;
            }
        }
    }
    assert!(seen > 0, "no pnats-bench invocations found in CI or the docs");
}
