//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cloud|scale_nominal|cluster_live|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with a plain
//! placer and no layer probes. With `--trace 1` it runs the workload once
//! plainly and then traced — the placer wrapped, spans kept in memory —
//! followed by the layer probes, prints the per-layer metrics, and writes
//! the spans as JSONL under `perfbench/out/`. Every output is checked; a
//! failed check counts the jobs it covers as failed. The last line of
//! standard output is the JSON result; the lines before it name every
//! metric with its unit and the host it ran on. `LAYERS.md` maps each
//! per-layer metric to the end-to-end metric it should move.

mod calib;
mod live;
mod out;
mod placer;
mod probes;
mod sim;
mod span;
mod stats;

use out::Out;
use sim::SimWorkload;
use span::{Clock, SpanLog};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("node_local_pct", "%"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.place_map.calls", "count"),
    ("core.place_map.self_s", "s"),
    ("core.place_map.p50_us", "us"),
    ("core.place_map.p99_us", "us"),
    ("core.place_reduce.calls", "count"),
    ("core.place_reduce.self_s", "s"),
    ("core.place_reduce.p50_us", "us"),
    ("core.place_reduce.p99_us", "us"),
    ("core.assign_ratio", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.pruned", "count"),
    ("loop.self_s", "s"),
    ("loop.self_share", "ratio"),
    ("net.fill.p50_us", "us"),
    ("net.fill.p99_us", "us"),
    ("net.transfer_op.p50_us", "us"),
    ("net.transfer_op.p99_us", "us"),
    ("net.flows", "count"),
    ("rpc.encode.p50_ns", "ns"),
    ("rpc.decode.p50_ns", "ns"),
    ("rpc.rtt.p50_us", "us"),
    ("rpc.rtt.p99_us", "us"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.append.p50_us", "us"),
    ("journal.append.p99_us", "us"),
    ("journal.append_fsync.p50_us", "us"),
    ("journal.replay_ms", "ms"),
    ("engine.exec_map.self_ms", "ms"),
    ("engine.exec_reduce.self_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

const WORKLOADS: [&str; 3] = ["paper_cloud", "scale_nominal", "cluster_live"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Output of a command, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload, untraced: the end-to-end metrics.
fn run_plain(workload: &str, seed: u64, seconds: f64, dir: &Path) -> (Out, Vec<String>) {
    let mut out = Out::default();
    let lines = match workload {
        "paper_cloud" => sim::run(SimWorkload::PaperCloud, seed, seconds, &mut out, workload),
        "scale_nominal" => sim::run(SimWorkload::ScaleNominal, seed, seconds, &mut out, workload),
        _ => {
            let lines = live::run(seed, seconds, dir, &mut out);
            if let Some(mb) = peak_rss_mb() {
                out.put("peak_rss_mb", mb, "MB");
            }
            lines
        }
    };
    (out, lines)
}

/// One workload, traced: the workload's own layers, then the probes.
fn run_traced(workload: &str, seed: u64, seconds: f64, dir: &Path) -> (Out, Vec<String>) {
    let mut out = Out::default();
    let mut log = SpanLog::new(Clock::new());
    let root = log.open(None, 0, "run");
    let probe_job = live::live_job(seed, 0);
    let probe_cfg = live::cluster_config(&probe_job, dir.join("probe-job.journal"));
    let (mut lines, live_runs) = match workload {
        "paper_cloud" | "scale_nominal" => {
            let w = if workload == "paper_cloud" {
                SimWorkload::PaperCloud
            } else {
                SimWorkload::ScaleNominal
            };
            (
                sim::run_traced(w, seed, seconds, &mut out, &mut log, root, workload),
                Vec::new(),
            )
        }
        _ => live::run_traced(seed, dir, &mut out, &mut log, root),
    };

    let span = log.open(Some(root), 0, "probe.net");
    probes::net(seed, &mut out);
    log.close(span);

    let span = log.open(Some(root), 0, "probe.rpc");
    probes::rpc(&probe_job, probe_cfg.block_bytes, &mut out);
    log.close(span);

    // The journal probe replays a live job's own records: the last traced
    // job's on cluster_live, one rotation job run for the purpose elsewhere.
    let span = log.open(Some(root), 0, "probe.journal");
    let probe_run;
    let last = match live_runs.last() {
        Some(r) => r,
        None => {
            let (run, check) = live::run_job(&probe_job, &probe_cfg, None);
            out.attempted += 1;
            if let Err(e) = check {
                out.fail(1, format!("journal probe job: {e}"));
            }
            probe_run = run;
            &probe_run
        }
    };
    probes::journal(&last.records, last.journal_bytes, dir, &mut out);
    log.close(span);

    let span = log.open(Some(root), 0, "probe.engine");
    let floor_ms = probes::engine(seed, probe_cfg.block_bytes, &mut out);
    log.close(span);
    log.close(root);

    if !live_runs.is_empty() {
        // What the benchmark cannot yet split: heartbeat pacing, lock
        // waits, registration and shutdown. Measured per job: placer time,
        // the engine's compute floor, and the journal appends.
        let n = live_runs.len() as f64;
        let wall_ms: f64 = live_runs.iter().map(|r| r.job_ms).sum::<f64>() / n;
        let place_ms = out.get("cluster.place.self_ms").unwrap_or(0.0) / n;
        let records: f64 = live_runs
            .iter()
            .map(|r| r.records.len() as f64)
            .sum::<f64>()
            / n;
        let append_ms = records * out.get("journal.append.p50_us").unwrap_or(0.0) / 1e3;
        out.put(
            "cluster.unattributed_share",
            1.0 - (place_ms + floor_ms + append_ms) / wall_ms,
            "ratio",
        );
    }

    let path = dir.join(format!("spans-{workload}.jsonl"));
    match std::fs::write(&path, log.to_jsonl()) {
        Ok(()) => lines.push(format!(
            "spans {} written to {}",
            log.spans.len(),
            path.display()
        )),
        Err(e) => out.fail(0, format!("writing {}: {e}", path.display())),
    }
    (out, lines)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host nproc={nproc} load_threads=1 rustc=\"{}\" commit={} seed={} seconds={} trace={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for w in &workloads {
        let (out, lines) = if args.trace {
            run_traced(w, args.seed, args.seconds, &dir)
        } else {
            run_plain(w, args.seed, args.seconds, &dir)
        };
        let threads = if *w == "cluster_live" {
            "1 client; tracker + 3 workers in-process"
        } else {
            "1"
        };
        println!("workload {w} threads=\"{threads}\"");
        for l in lines {
            println!("{w} {l}");
        }
        print!("{}", out.lines(&format!("{w} ")));
        println!(
            "{w} metric error_rate {:.6} ratio n={}",
            out.error_rate(),
            out.attempted
        );
        results.push((w, out));
    }
    if let [(_, out)] = results.as_slice() {
        println!("{}", out.result_json(declared));
    } else {
        // `all`: one result over every workload, metric names prefixed.
        let mut merged = Out::default();
        for (w, out) in &results {
            merged.attempted += out.attempted;
            merged.failed += out.failed;
            for m in &out.metrics {
                let mut m = m.clone();
                m.name = format!("{w}/{}", m.name);
                merged.metrics.push(m);
            }
        }
        let names: Vec<(String, &str)> = workloads
            .iter()
            .flat_map(|w| declared.iter().map(move |(n, u)| (format!("{w}/{n}"), *u)))
            .collect();
        let names: Vec<(&str, &str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        println!("{}", merged.result_json(&names));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = json.matches("\"name\":").count();
        assert_eq!(count, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }
}
