//! The live-runtime workload, `cluster_live`: a closed loop with one
//! client that submits jobs one after another — rotating WordCount, Grep
//! and TeraSort — to an in-process TCP tracker with three workers via
//! `run_cluster`, 4 ms heartbeats, the journal on (`FsyncPolicy::Never`,
//! a fresh file per job). Each job also runs on the in-process engine as
//! the output-parity reference. The simulator is bypassed.

use crate::calib::Calibration;
use crate::out::Out;
use crate::placer::{drain, put_core, Call, TimedPlacer};
use crate::span::{Clock, SpanLog};
use crate::stats::{median, percentile};
use pnats_cluster::{
    check_cluster_report, check_journal_recovery, placer_by_name, read_journal, run_cluster,
    ClusterConfig, ClusterReport, FsyncPolicy, JobSpec, JournalRecord,
};
use pnats_engine::MapReduceEngine;
use pnats_obs::SchedCounters;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs with distinct inputs, generated in set-up; longer runs cycle
/// through them. Also the minimum job count of an untraced run, so that
/// `job_p90_ms` has at least ten samples beyond it.
pub const JOBS: usize = 100;
const N_WORKERS: usize = 3;
const N_REDUCES: usize = 3;
const HEARTBEAT: Duration = Duration::from_millis(4);
/// The placer both runtimes run: the paper's probabilistic scheduler.
const SCHEDULER: &str = "paper";

const WORDS: &[&str] = &[
    "map",
    "reduce",
    "shuffle",
    "block",
    "replica",
    "rack",
    "probabilistic",
    "placement",
    "locality",
    "heartbeat",
    "tracker",
    "slot",
    "skew",
    "partition",
    "network",
];

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// ~32 KiB of seeded prose: 8 words a line.
fn words_input(seed: u64) -> String {
    let mut s = String::with_capacity(33 << 10);
    let mut x = seed ^ 0x2545_F491_4F6C_DD1D;
    while s.len() < 32 << 10 {
        for _ in 0..8 {
            s.push_str(WORDS[lcg(&mut x) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// ~32 KiB of seeded TeraSort records: a 10-digit key plus payload.
fn tera_input(seed: u64) -> String {
    let mut s = String::with_capacity(33 << 10);
    let mut x = seed ^ 0x9E37_79B9;
    let mut i = 0;
    while s.len() < 32 << 10 {
        s.push_str(&format!(
            "{:010}payload-{i}\n",
            lcg(&mut x) % 10_000_000_000
        ));
        i += 1;
    }
    s
}

/// One job of the rotation: what to run, on which input, with which seed.
pub struct LiveJob {
    pub spec: JobSpec,
    pub input: String,
    pub seed: u64,
}

/// The `i`-th job of the rotation for `seed`.
pub fn live_job(seed: u64, i: usize) -> LiveJob {
    let job_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64);
    let (spec, input) = match i % 3 {
        0 => (JobSpec::WordCount, words_input(job_seed)),
        1 => {
            let needle = WORDS[(job_seed % WORDS.len() as u64) as usize].to_string();
            (JobSpec::Grep(needle), words_input(job_seed))
        }
        _ => (JobSpec::TeraSort, tera_input(job_seed)),
    };
    LiveJob {
        spec,
        input,
        seed: job_seed,
    }
}

pub fn cluster_config(job: &LiveJob, journal: PathBuf) -> ClusterConfig {
    ClusterConfig {
        n_nodes: N_WORKERS,
        heartbeat: HEARTBEAT,
        seed: job.seed,
        journal: Some(journal),
        journal_fsync: FsyncPolicy::Never,
        ..ClusterConfig::default()
    }
}

fn placer() -> Box<dyn pnats_core::TaskPlacer> {
    placer_by_name(SCHEDULER, HEARTBEAT.as_secs_f64()).expect("the paper scheduler is built in")
}

/// What one job produced.
pub struct JobRun {
    pub report: ClusterReport,
    pub job_ms: f64,
    pub engine_ms: f64,
    pub records: Vec<JournalRecord>,
    pub journal_bytes: u64,
    pub calls: Vec<Call>,
    /// `(engine.run, cluster.run)` intervals on the run's clock, if traced.
    pub engine_ns: (u64, u64),
    pub cluster_ns: (u64, u64),
}

/// Run one job on the engine and then on the cluster, and check it:
/// cluster oracle, byte parity with the engine, and journal recovery.
/// A failed check is returned as the error.
pub fn run_job(
    job: &LiveJob,
    cfg: &ClusterConfig,
    clock: Option<Clock>,
) -> (JobRun, Result<(), String>) {
    let journal = cfg
        .journal
        .as_deref()
        .expect("cluster_live runs with the journal on");
    let now = |c: Option<Clock>| c.map_or(0, |c| c.now_ns());
    let e0 = now(clock);
    let t = Instant::now();
    let engine = MapReduceEngine::new(cfg.engine_config()).run(
        &job.spec.job(N_REDUCES),
        &job.input,
        placer(),
    );
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;
    let e1 = now(clock);
    let (p, log) = match clock {
        Some(c) => {
            let (p, log) = TimedPlacer::wrap(placer(), c);
            (p, Some(log))
        }
        None => (placer(), None),
    };
    let t = Instant::now();
    let report = run_cluster(cfg, &job.spec, N_REDUCES, &job.input, p);
    let job_ms = t.elapsed().as_secs_f64() * 1e3;
    let c1 = now(clock);
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    let records = read_journal(journal);
    let _ = std::fs::remove_file(journal);
    let check = (|| {
        if engine.failed {
            return Err("engine reference run failed".to_string());
        }
        if report.failed {
            return Err("cluster run failed".to_string());
        }
        check_cluster_report(&report).map_err(|e| format!("check_cluster_report: {e}"))?;
        if report.output != engine.output {
            return Err("cluster output differs from engine output".to_string());
        }
        let records = records.as_ref().map_err(|e| format!("read_journal: {e}"))?;
        check_journal_recovery(records).map_err(|e| format!("check_journal_recovery: {e}"))
    })();
    let run = JobRun {
        report,
        job_ms,
        engine_ms,
        records: records.unwrap_or_default(),
        journal_bytes,
        calls: log.map(|l| drain(&l)).unwrap_or_default(),
        engine_ns: (e0, e1),
        cluster_ns: (e1, c1),
    };
    (run, check)
}

/// Set-up: every job's input and config, built from the seed.
fn setup(seed: u64, dir: &Path) -> Vec<(LiveJob, ClusterConfig)> {
    (0..JOBS)
        .map(|i| {
            let job = live_job(seed, i);
            let cfg = cluster_config(&job, dir.join(format!("job{i}.journal")));
            (job, cfg)
        })
        .collect()
}

/// Run jobs back to back until `seconds` have passed and at least
/// `min_jobs` ran.
fn run_loop(
    jobs: &[(LiveJob, ClusterConfig)],
    seconds: f64,
    min_jobs: usize,
    clock: Option<Clock>,
    out: &mut Out,
) -> Vec<JobRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min_jobs || start.elapsed().as_secs_f64() < seconds {
        let i = runs.len();
        let (job, cfg) = &jobs[i % jobs.len()];
        let (run, check) = run_job(job, cfg, clock);
        out.attempted += 1;
        if let Err(e) = check {
            out.fail(
                1,
                format!("cluster_live job {i} ({}): {e}", job.spec.to_wire()),
            );
        }
        runs.push(run);
    }
    runs
}

fn tasks_per_s(runs: &[JobRun]) -> f64 {
    let tasks: usize = runs
        .iter()
        .map(|r| r.report.n_maps + r.report.n_reduces)
        .sum();
    tasks as f64 / (runs.iter().map(|r| r.job_ms).sum::<f64>() / 1e3)
}

/// Untraced run: the end-to-end metrics. `setup_s` is scaled to the
/// reference host speed from the calibration kernel timed between the
/// set-ups; the job loop waits on heartbeats more than it computes, so its
/// rate and job times are host time as measured.
pub fn run(seed: u64, seconds: f64, dir: &Path, out: &mut Out) -> Vec<String> {
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    let mut cal = Calibration::default();
    for _ in 0..crate::sim::SETUP_SAMPLES {
        cal.sample();
        let t = Instant::now();
        jobs = setup(seed, dir);
        setups.push(t.elapsed().as_secs_f64());
    }
    cal.sample();
    let runs = run_loop(&jobs, seconds, JOBS, None, out);
    let job_ms: Vec<f64> = runs.iter().map(|r| r.job_ms).collect();
    let engine_ms: Vec<f64> = runs.iter().map(|r| r.engine_ms).collect();
    let (mut local, mut total) = (0u64, 0u64);
    for r in &runs {
        for l in [&r.report.map_locality, &r.report.reduce_locality] {
            local += l.node_local;
            total += l.total();
        }
    }
    out.put("setup_s", median(&setups) * cal.speed(), "s");
    out.put("setup_host_s", median(&setups), "s");
    out.put("host_speed", cal.speed(), "ratio");
    out.put("tasks_per_s", tasks_per_s(&runs), "1/s");
    out.put_pct("job_p50_ms", percentile(&job_ms, 0.5), 1.0, "ms");
    out.put(
        "node_local_pct",
        100.0 * local as f64 / total.max(1) as f64,
        "%",
    );
    out.put_pct("job_p90_ms", percentile(&job_ms, 0.9), 1.0, "ms");
    out.put_pct("engine_job_p50_ms", percentile(&engine_ms, 0.5), 1.0, "ms");
    vec![format!("jobs {} setup_s_samples {setups:.6?}", runs.len())]
}

/// Untraced jobs in a traced run: enough for the p50s behind
/// `cluster.overhead_ratio` and the rate behind `bench.trace_overhead`.
const PLAIN_JOBS: usize = 30;
/// Traced jobs, a fixed count so per-layer totals compare across runs: at
/// ~4 reduce offers a job, enough for a p99 over `place_reduce` calls with
/// ten samples beyond it.
const TRACED_JOBS: usize = 300;

/// Traced run: a few untraced jobs, then [`TRACED_JOBS`] traced jobs with
/// the placer wrapped; cluster-layer metrics from the traced jobs. Returns
/// the traced jobs, which the caller needs for attribution, alongside the
/// printed lines.
pub fn run_traced(
    seed: u64,
    dir: &Path,
    out: &mut Out,
    log: &mut SpanLog,
    root: u64,
) -> (Vec<String>, Vec<JobRun>) {
    let jobs = setup(seed, dir);
    let plain = run_loop(&jobs, 0.0, PLAIN_JOBS, None, out);
    let traced = run_loop(&jobs, 0.0, TRACED_JOBS, Some(log.clock), out);
    for (i, r) in traced.iter().enumerate() {
        let job = i as u64;
        let span = log.push(Some(root), job, "job", r.engine_ns.0, r.cluster_ns.1);
        log.push(Some(span), job, "engine.run", r.engine_ns.0, r.engine_ns.1);
        let run = log.push(
            Some(span),
            job,
            "cluster.run",
            r.cluster_ns.0,
            r.cluster_ns.1,
        );
        for c in &r.calls {
            log.push(Some(run), job, c.kind.span_name(), c.start_ns, c.end_ns);
        }
    }
    let all_calls: Vec<Call> = traced
        .iter()
        .flat_map(|r| r.calls.iter().copied())
        .collect();
    let mut counters = SchedCounters::default();
    for r in &traced {
        counters.merge(&r.report.counters);
        if r.calls.len() as u64 != r.report.counters.offers {
            out.fail(
                1,
                format!(
                    "cluster_live: wrapper saw {} calls but counters.offers = {}",
                    r.calls.len(),
                    r.report.counters.offers
                ),
            );
        }
    }
    put_core(out, &[(SCHEDULER, &all_calls, &counters)]);
    let run_ns = log.dur_ns_of("cluster.run");
    let self_ns = log.self_ns_of("cluster.run");
    out.put("loop.self_s", self_ns as f64 / 1e9, "s");
    out.put(
        "loop.self_share",
        self_ns as f64 / run_ns.max(1) as f64,
        "ratio",
    );
    let place_ns: u64 = all_calls.iter().map(|c| c.end_ns - c.start_ns).sum();
    let place_us: Vec<f64> = all_calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
        .collect();
    out.put("cluster.place.calls", all_calls.len() as f64, "count");
    out.put("cluster.place.self_ms", place_ns as f64 / 1e6, "ms");
    out.put_pct(
        "cluster.place.p99_us",
        percentile(&place_us, 0.99),
        1.0,
        "us",
    );
    let first: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.report.first_assign_ms)
        .map(|m| m as f64)
        .collect();
    out.put_pct(
        "cluster.first_assign_ms.p50",
        percentile(&first, 0.5),
        1.0,
        "ms",
    );
    let p50 = |v: Vec<f64>| percentile(&v, 0.5).value;
    if let (Some(job), Some(engine)) = (
        p50(plain.iter().map(|r| r.job_ms).collect()),
        p50(plain.iter().map(|r| r.engine_ms).collect()),
    ) {
        out.put("cluster.overhead_ratio", job / engine, "ratio");
    }
    out.put(
        "bench.trace_overhead",
        tasks_per_s(&traced) / tasks_per_s(&plain),
        "ratio",
    );
    (
        vec![format!(
            "plain_jobs {} traced_jobs {}",
            plain.len(),
            traced.len()
        )],
        traced,
    )
}
