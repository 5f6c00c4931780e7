//! The two simulator workloads.
//!
//! * `paper_cloud`: the paper's 60-node cloud setup (`cloud_config`:
//!   ingest-confined replicas, 8 background flows, fluid max-min network)
//!   running the Table II Grep batch under probabilistic, coupling and
//!   fair. The fluid network dominates; the placers run their reference
//!   cost path because the cost-index gate is off at 60 nodes.
//! * `scale_nominal`: the `scale_sweep --smoke` cell — 1k nodes, 100k
//!   tasks, multi-rack, nominal transfer engine — under probabilistic and
//!   fifo. The fluid network is never called; the tick loop and the
//!   incremental cost-index placer path carry the load.
//!
//! Both are batch runs: arrivals follow the batch's submit times in
//! simulated time, and every cell runs on the calling thread.

use crate::calib::Calibration;
use crate::out::Out;
use crate::placer::{drain, put_core, Call, TimedPlacer};
use crate::span::{Clock, SpanLog};
use crate::stats::{fnv1a, median, percentile};
use pnats_bench::harness::{cloud_config, make_placer, SchedulerKind};
use pnats_obs::SchedCounters;
use pnats_sim::config::TopologyKind;
use pnats_sim::{check_report, JobInput, SimConfig, SimReport, Simulation};
use pnats_workloads::{table2_batch, AppKind, ShuffleModel};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    PaperCloud,
    ScaleNominal,
}

/// One simulator run of the workload: a scheduler over a config and batch.
struct CellSpec {
    kind: SchedulerKind,
    cfg: SimConfig,
    inputs: Vec<JobInput>,
}

impl SimWorkload {
    fn schedulers(self) -> &'static [SchedulerKind] {
        match self {
            SimWorkload::PaperCloud => &[
                SchedulerKind::Probabilistic,
                SchedulerKind::Coupling,
                SchedulerKind::Fair,
            ],
            SimWorkload::ScaleNominal => &[SchedulerKind::Probabilistic, SchedulerKind::Fifo],
        }
    }

    /// Config and batch of one cell, built from the seed (part of set-up).
    fn cell(self, kind: SchedulerKind, seed: u64) -> CellSpec {
        let (cfg, inputs) = match self {
            SimWorkload::PaperCloud => (
                cloud_config(seed),
                JobInput::from_batch(&table2_batch(AppKind::Grep)),
            ),
            SimWorkload::ScaleNominal => (scale_config(seed), scale_inputs()),
        };
        CellSpec { kind, cfg, inputs }
    }
}

/// Maps and reduces per `scale_nominal` job: 1000 tasks each, 100 jobs.
const SCALE_MAPS_PER_JOB: usize = 992;
const SCALE_REDUCES_PER_JOB: usize = 8;
const SCALE_JOBS: usize = 100;

/// The `scale_sweep` 1k-node cell: 25 racks × 40 nodes, quiet network,
/// raw-hop costs, nominal transfers, small candidate windows.
fn scale_config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.n_nodes = 1_000;
    c.topology = TopologyKind::MultiRack {
        racks: 25,
        per_rack: 40,
        uplink_bps: 10e9,
    };
    c.network_condition = false;
    c.fluid_network = false;
    c.map_candidate_window = 8;
    c.reduce_candidate_window = 4;
    c.max_sim_time = 1_000_000.0;
    c.seed = seed;
    c
}

/// 100 identical Grep-shaped jobs of 992 × 64 MB maps + 8 reduces,
/// arrivals staggered over 300 simulated seconds.
fn scale_inputs() -> Vec<JobInput> {
    (0..SCALE_JOBS)
        .map(|ji| JobInput {
            name: format!("scale{ji:04}"),
            submit: 300.0 * ji as f64 / SCALE_JOBS as f64,
            block_sizes: vec![64 << 20; SCALE_MAPS_PER_JOB],
            n_reduces: SCALE_REDUCES_PER_JOB,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        })
        .collect()
}

/// What one cell produced, with the host time it took.
pub struct CellRun {
    pub scheduler: &'static str,
    pub setup_s: f64,
    pub run_s: f64,
    pub jobs: usize,
    pub tasks: usize,
    /// FNV-1a of the cell's task and job trace (tasks CSV + jobs CSV).
    pub fingerprint: u64,
    pub jct_bits: Vec<u64>,
    pub makespan_bits: u64,
    pub counters: SchedCounters,
    /// The full report and batch, kept for the cells the oracle checks
    /// and dropped from repeats so memory does not grow with the run.
    pub full: Option<(SimReport, Vec<JobInput>)>,
    /// Placer calls, when the cell ran traced.
    pub calls: Vec<Call>,
    /// `(sim.new, sim.run)` intervals on the run's clock, when traced.
    pub new_ns: (u64, u64),
    pub run_ns: (u64, u64),
}

/// Run one cell. Set-up (config, batch, placer, `Simulation::new`) is
/// timed apart from `Simulation::run`.
fn run_cell(w: SimWorkload, kind: SchedulerKind, seed: u64, clock: Option<Clock>) -> CellRun {
    let t0 = Instant::now();
    let c0 = clock.map_or(0, |c| c.now_ns());
    let spec = w.cell(kind, seed);
    let placer = make_placer(spec.kind, &spec.cfg);
    let (placer, log) = match clock {
        Some(c) => {
            let (p, log) = TimedPlacer::wrap(placer, c);
            (p, Some(log))
        }
        None => (placer, None),
    };
    let sim = Simulation::new(spec.cfg, placer);
    let setup_s = t0.elapsed().as_secs_f64();
    let c1 = clock.map_or(0, |c| c.now_ns());
    let t1 = Instant::now();
    let report = sim.run(&spec.inputs);
    let run_s = t1.elapsed().as_secs_f64();
    let c2 = clock.map_or(0, |c| c.now_ns());
    let mut trace_bytes = report.trace.tasks_csv().into_bytes();
    trace_bytes.extend_from_slice(report.trace.jobs_csv().as_bytes());
    CellRun {
        scheduler: kind.label(),
        setup_s,
        run_s,
        jobs: report.jobs_submitted,
        tasks: report.trace.tasks.len(),
        fingerprint: fnv1a(&trace_bytes),
        jct_bits: report
            .trace
            .jobs
            .iter()
            .map(|j| j.jct().to_bits())
            .collect(),
        makespan_bits: report.trace.makespan().to_bits(),
        counters: report.counters.clone(),
        calls: log.map(|l| drain(&l)).unwrap_or_default(),
        full: Some((report, spec.inputs)),
        new_ns: (c0, c1),
        run_ns: (c1, c2),
    }
}

/// Time set-up alone (everything before `Simulation::run`) for every cell
/// of one pass, dropping the built simulations.
fn setup_only(w: SimWorkload, seed: u64) -> f64 {
    let t0 = Instant::now();
    for &kind in w.schedulers() {
        let spec = w.cell(kind, seed);
        let placer = make_placer(spec.kind, &spec.cfg);
        std::hint::black_box(Simulation::new(spec.cfg, placer));
        std::hint::black_box(spec.inputs);
    }
    t0.elapsed().as_secs_f64()
}

/// Count every job of the cell and fail those the oracles reject: jobs
/// that failed or never completed, and the whole cell when `check_report`
/// or the `offers = assigns + Σ skips` identity does not hold.
fn check_cell(c: &CellRun) -> Result<(), (u64, String)> {
    let (r, inputs) = c.full.as_ref().expect("checked cells keep their report");
    let jobs = r.jobs_submitted as u64;
    check_report(r, inputs).map_err(|e| (jobs, format!("check_report: {e}")))?;
    if !r.counters.consistent() {
        return Err((jobs, "offers != assigns + skips".to_string()));
    }
    let bad = (r.jobs_submitted - r.jobs_completed) as u64 + r.jobs_failed as u64;
    if bad > 0 {
        return Err((bad.min(jobs), format!("{bad} jobs failed or incomplete")));
    }
    Ok(())
}

/// Check every job of `pass` — the cells are independent, so on up to
/// `nproc` threads once the timed phase is over — and every job of the
/// `repeats` against it: a repeated cell must reproduce the checked one
/// exactly, so the quadratic `check_report` runs once per distinct cell.
fn check_passes(label: &str, pass: &[CellRun], repeats: &[&CellRun], out: &mut Out) {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(pass.len());
    let verdicts: Vec<Result<(), (u64, String)>> = std::thread::scope(|scope| {
        let chunks: Vec<_> = pass
            .chunks(pass.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || chunk.iter().map(check_cell).collect::<Vec<_>>()))
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for (c, v) in pass.iter().zip(verdicts) {
        out.attempted += c.jobs as u64;
        if let Err((jobs, e)) = v {
            out.fail(jobs, format!("{label}/{}: {e}", c.scheduler));
        }
    }
    for (i, c) in repeats.iter().enumerate() {
        let twin = &pass[i % pass.len()];
        out.attempted += c.jobs as u64;
        if !same_outputs(c, twin) {
            out.fail(
                c.jobs as u64,
                format!(
                    "{label}/{}: a repeat diverged from the checked run",
                    c.scheduler
                ),
            );
        }
    }
}

/// Whether a traced cell reproduced its untraced twin exactly: JCTs,
/// makespan, counters and trace fingerprint.
fn same_outputs(a: &CellRun, b: &CellRun) -> bool {
    a.fingerprint == b.fingerprint
        && a.jct_bits == b.jct_bits
        && a.makespan_bits == b.makespan_bits
        && a.counters == b.counters
}

/// Tasks per host second over `passes`: each cell's tasks over the median
/// of its run times, so one slow pass of a cell does not move the rate.
fn tasks_per_s(passes: &[Vec<CellRun>]) -> f64 {
    let cells = passes[0].len();
    let tasks: usize = passes[0].iter().map(|c| c.tasks).sum();
    let run_s: f64 = (0..cells)
        .map(|i| median(&passes.iter().map(|p| p[i].run_s).collect::<Vec<_>>()))
        .sum();
    tasks as f64 / run_s
}

/// Simulated outputs pooled over every job of a pass.
fn put_sim_outputs(pass: &[CellRun], out: &mut Out) {
    let reports: Vec<&SimReport> = pass
        .iter()
        .map(|c| &c.full.as_ref().expect("the first pass keeps its reports").0)
        .collect();
    let jcts: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.trace.jobs.iter().map(|j| j.jct()))
        .collect();
    let (mut local, mut total, mut net) = (0u64, 0u64, 0f64);
    for r in &reports {
        let l = r.trace.locality_all();
        local += l.node_local;
        total += l.total();
        net += r.trace.network_bytes;
    }
    out.put_pct("job_p50_ms", percentile(&jcts, 0.5), 1e3, "ms");
    out.put(
        "node_local_pct",
        100.0 * local as f64 / total.max(1) as f64,
        "%",
    );
    out.put(
        "sim_mean_jct_s",
        jcts.iter().sum::<f64>() / jcts.len().max(1) as f64,
        "s",
    );
    let makespans: Vec<f64> = reports.iter().map(|r| r.trace.makespan()).collect();
    out.put(
        "sim_makespan_s",
        makespans.iter().cloned().fold(0.0, f64::max),
        "s",
    );
    out.put("sim_net_gb", net / 1e9, "GB");
}

/// Untraced run: passes over every cell until `seconds` of host time have
/// gone by, then the end-to-end metrics. `setup_s` and `tasks_per_s` are
/// scaled to the reference host speed, from the calibration kernel timed
/// between the cells; the host figures are printed as `setup_host_s` and
/// `tasks_per_host_s`.
pub fn run(w: SimWorkload, seed: u64, seconds: f64, out: &mut Out, label: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cal = Calibration::default();
    let passes = run_passes(w, seed, seconds, None, &mut cal, &mut lines);
    // Peak memory of the timed phase, before the oracle allocates.
    if let Some(mb) = crate::peak_rss_mb() {
        out.put("peak_rss_mb", mb, "MB");
    }
    let repeats: Vec<&CellRun> = passes[1..].iter().flatten().collect();
    check_passes(label, &passes[0], &repeats, out);
    let mut setups: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|c| c.setup_s).sum())
        .collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only(w, seed));
    }
    out.put("setup_s", median(&setups) * cal.speed(), "s");
    out.put("setup_host_s", median(&setups), "s");
    let host_rate = tasks_per_s(&passes);
    out.put("tasks_per_s", host_rate / cal.speed(), "1/s");
    out.put("tasks_per_host_s", host_rate, "1/s");
    out.put("host_speed", cal.speed(), "ratio");
    put_sim_outputs(&passes[0], out);
    lines.push(format!(
        "passes {} setup_s_samples {setups:.6?} kernel_s n={} median {:.6}",
        passes.len(),
        cal.samples().len(),
        cal.median_s()
    ));
    lines
}

fn run_passes(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    clock: Option<Clock>,
    cal: &mut Calibration,
    lines: &mut Vec<String>,
) -> Vec<Vec<CellRun>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Only the first untraced pass keeps its reports for the oracle.
        let keep = passes.is_empty() && clock.is_none();
        let pass: Vec<CellRun> = w
            .schedulers()
            .iter()
            .map(|&k| {
                cal.sample();
                let mut c = run_cell(w, k, seed, clock);
                if !keep {
                    c.full = None;
                }
                c
            })
            .collect();
        for c in &pass {
            lines.push(format!(
                "cell pass={} scheduler={} jobs={} tasks={} setup_s={:.6} run_s={:.6} fingerprint={:016x}",
                passes.len(),
                c.scheduler,
                c.jobs,
                c.tasks,
                c.setup_s,
                c.run_s,
                c.fingerprint
            ));
        }
        passes.push(pass);
    }
    cal.sample();
    passes
}

/// Minimum set-up samples behind `setup_s`; runs with fewer passes add
/// set-up-only repeats to reach it. Set-up takes milliseconds, so one
/// sample is at the mercy of the host; the median of many is not.
pub const SETUP_SAMPLES: usize = 31;

/// Traced run: one untraced pass, then traced passes with the placer
/// wrapped and spans kept, then the per-layer metrics. The traced cells
/// must reproduce the untraced ones exactly.
pub fn run_traced(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    out: &mut Out,
    log: &mut SpanLog,
    root: u64,
    label: &str,
) -> Vec<String> {
    let mut lines = Vec::new();
    // Both rates behind `bench.trace_overhead` are host rates of this run,
    // so the calibration is only there to space the cells as `run` does.
    let mut cal = Calibration::default();
    let plain = run_passes(w, seed, 0.0, None, &mut cal, &mut lines);
    let start = Instant::now();
    let traced = run_passes(
        w,
        seed,
        seconds / 2.0,
        Some(log.clock),
        &mut cal,
        &mut lines,
    );
    lines.push(format!(
        "traced_passes {} in {:.3}s",
        traced.len(),
        start.elapsed().as_secs_f64()
    ));
    for pass in &traced {
        for t in pass {
            if t.calls.len() as u64 != t.counters.offers {
                out.fail(
                    t.jobs as u64,
                    format!(
                        "{label}/{}: wrapper saw {} calls but counters.offers = {}",
                        t.scheduler,
                        t.calls.len(),
                        t.counters.offers
                    ),
                );
            }
        }
    }
    // The traced cells are repeats of the plain pass: they must reproduce
    // its simulated outputs exactly.
    let repeats: Vec<&CellRun> = traced.iter().flatten().collect();
    check_passes(label, &plain[0], &repeats, out);
    // Spans of the last traced pass, which the per-layer metrics describe:
    // one cell span per cell, its sim.new and sim.run children, and the
    // placer calls under sim.run.
    let last = traced.last().expect("at least one traced pass");
    let (mut run_ns, mut new_ns) = (0u64, 0u64);
    for (job, c) in last.iter().enumerate() {
        let job = job as u64;
        let cell = log.push(Some(root), job, "cell", c.new_ns.0, c.run_ns.1);
        log.push(Some(cell), job, "sim.new", c.new_ns.0, c.new_ns.1);
        let run = log.push(Some(cell), job, "sim.run", c.run_ns.0, c.run_ns.1);
        for call in &c.calls {
            log.push(
                Some(run),
                job,
                call.kind.span_name(),
                call.start_ns,
                call.end_ns,
            );
        }
        run_ns += c.run_ns.1 - c.run_ns.0;
        new_ns += c.new_ns.1 - c.new_ns.0;
    }
    let run_self_ns = log.self_ns_of("sim.run");
    let cells: Vec<(&'static str, &[Call], &SchedCounters)> = last
        .iter()
        .map(|c| (c.scheduler, c.calls.as_slice(), &c.counters))
        .collect();
    put_core(out, &cells);
    out.put("loop.self_s", run_self_ns as f64 / 1e9, "s");
    out.put(
        "loop.self_share",
        run_self_ns as f64 / run_ns.max(1) as f64,
        "ratio",
    );
    out.put("sim.new_s", new_ns as f64 / 1e9, "s");
    out.put(
        "bench.trace_overhead",
        tasks_per_s(&traced) / tasks_per_s(&plain),
        "ratio",
    );
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::TimedPlacer;
    use pnats_obs::InMemorySink;
    use pnats_workloads::scaled_batch;

    /// One decision-traced run of `kind`, optionally through the timing
    /// wrapper; returns the report and the wrapper's call count.
    fn traced_run(
        kind: SchedulerKind,
        cfg: SimConfig,
        inputs: &[JobInput],
        wrap: bool,
    ) -> (SimReport, usize) {
        let placer = make_placer(kind, &cfg);
        let (placer, log) = if wrap {
            let (p, log) = TimedPlacer::wrap(placer, Clock::new());
            (p, Some(log))
        } else {
            (placer, None)
        };
        let report = Simulation::new(cfg, placer)
            .with_trace(Box::new(InMemorySink::unbounded()))
            .run(inputs);
        (report, log.map_or(0, |l| drain(&l).len()))
    }

    /// The wrapper changes nothing the simulator produces — decision trace
    /// JSONL, counters, JCTs, makespan — and sees every offer.
    fn assert_transparent(w: SimWorkload, inputs: &[JobInput]) {
        for &kind in w.schedulers() {
            let cfg = w.cell(kind, 7).cfg;
            let (plain, _) = traced_run(kind, cfg.clone(), inputs, false);
            let (wrapped, calls) = traced_run(kind, cfg, inputs, true);
            let label = kind.label();
            assert!(
                plain.all_completed(),
                "{label}: shrunken cell must complete"
            );
            assert!(
                plain.trace_jsonl.as_ref().is_some_and(|t| !t.is_empty()),
                "{label}: no trace"
            );
            assert_eq!(
                plain.trace_jsonl, wrapped.trace_jsonl,
                "{label}: trace JSONL differs"
            );
            assert_eq!(plain.counters, wrapped.counters, "{label}: counters differ");
            let jcts = |r: &SimReport| -> Vec<u64> {
                r.trace.jobs.iter().map(|j| j.jct().to_bits()).collect()
            };
            assert_eq!(jcts(&plain), jcts(&wrapped), "{label}: JCTs differ");
            assert_eq!(
                plain.trace.makespan().to_bits(),
                wrapped.trace.makespan().to_bits(),
                "{label}: makespan differs"
            );
            assert_eq!(
                calls as u64, wrapped.counters.offers,
                "{label}: wrapper missed offers"
            );
        }
    }

    #[test]
    fn wrapper_is_transparent_on_a_shrunken_paper_cloud_cell() {
        let inputs = JobInput::from_batch(&scaled_batch(AppKind::Grep, 3, 10));
        assert_transparent(SimWorkload::PaperCloud, &inputs);
    }

    #[test]
    fn wrapper_is_transparent_on_a_shrunken_scale_nominal_cell() {
        let mut inputs = scale_inputs();
        inputs.truncate(2);
        assert_transparent(SimWorkload::ScaleNominal, &inputs);
    }
}
