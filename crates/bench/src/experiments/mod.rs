//! The experiment registry behind the `pnats-bench` entry point.
//!
//! Every table, figure, ablation and gate is an [`Experiment`]: a name, an
//! argument synopsis and a function that writes its report into a
//! [`Ctx`]. `pnats-bench <name> [seed] [--smoke]` runs one;
//! [`run_all`] chains the paper's sweep (the experiments flagged
//! [`Experiment::in_all`]) into one report plus `BENCH_harness.json`.

mod ablations;
mod cluster;
mod fault_sweep;
mod paper;
mod scale_sweep;
mod tenant_service;
mod trace_check;

use crate::bench_json;
use crate::harness::Ctx;
use std::io::Write;
use std::time::Instant;

/// One registered experiment.
pub struct Experiment {
    /// Command name (`pnats-bench <name>`).
    pub name: &'static str,
    /// Argument synopsis for `--help`.
    pub synopsis: &'static str,
    /// Part of the [`run_all`] sweep.
    pub in_all: bool,
    /// Run at `seed`, smoke-sized when the flag is set, writing the report
    /// into the context. `Err` carries the reason the experiment failed.
    pub run: fn(&mut Ctx, u64, bool) -> Result<(), String>,
}

const fn exp(
    name: &'static str,
    synopsis: &'static str,
    in_all: bool,
    run: fn(&mut Ctx, u64, bool) -> Result<(), String>,
) -> Experiment {
    Experiment { name, synopsis, in_all, run }
}

/// Every experiment, in `pnats-bench list` and [`run_all`] order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table2", "", true, paper::table2),
    exp("fig3_data_size", "", true, paper::fig3_data_size),
    exp("fig4_jct_cdf", "[seed]", true, paper::fig4_jct_cdf),
    exp("fig5_reduction", "[seed]", true, paper::fig5_reduction),
    exp("fig6_task_times", "[seed]", true, paper::fig6_task_times),
    exp("table3_locality", "[seed]", true, paper::table3_locality),
    exp("fig7_locality_vs_size", "[seed]", true, paper::fig7_locality_vs_size),
    exp("pmin_sweep", "[seed]", true, paper::pmin_sweep),
    exp("ablation_estimation", "[seed]", true, ablations::ablation_estimation),
    exp("ablation_netcond", "[seed]", true, ablations::ablation_netcond),
    exp("ablation_prob_model", "[seed]", true, ablations::ablation_prob_model),
    exp("ablation_replication", "[seed]", true, ablations::ablation_replication),
    exp("ablation_speculation", "[seed]", true, ablations::ablation_speculation),
    exp("fault_sweep", "[seed] [--smoke]", true, fault_sweep::run),
    exp("extended_comparison", "[seed]", true, ablations::extended_comparison),
    exp("continuous_arrivals", "[seed]", true, ablations::continuous_arrivals),
    exp("scale_sweep", "[seed] [--smoke]", false, scale_sweep::run),
    exp("tenant_service", "[seed] [--smoke]", false, tenant_service::run),
    exp("trace_check", "[seed]", false, trace_check::run),
    exp("cluster_smoke", "[seed]", false, cluster::cluster_smoke),
    exp("tracker_failover", "[seed] [--smoke]", false, cluster::tracker_failover),
    exp("chaos_soak", "[seed] [--smoke]", false, cluster::chaos_soak),
];

/// The experiment registered as `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiment whose serial/parallel pair calibrates the speedup: a
/// 9-run matrix with fully deterministic output.
const CALIBRATION: &str = "fig4_jct_cdf";

/// Run `exp` on `ctx`, returning its wall-clock seconds.
fn timed(exp: &Experiment, ctx: &mut Ctx, seed: u64) -> Result<f64, String> {
    let wall = Instant::now();
    (exp.run)(ctx, seed, false).map_err(|e| format!("{}: {e}", exp.name))?;
    Ok(wall.elapsed().as_secs_f64())
}

/// Run every [`Experiment::in_all`] experiment in sequence at `seed` on
/// `threads` workers, streaming one EXPERIMENTS.md-ready report to `out`,
/// and write the wall-clock and decision accounting to
/// `BENCH_harness.json` (keeping the keys other experiments own).
///
/// First, a calibration experiment runs serially and on at least two
/// workers: the parallel report must be byte-identical to the serial one,
/// and the pair records the measured speedup. Afterwards every
/// scheduler's merged counters must satisfy `offers = assigns + Σ skips`.
pub fn run_all(seed: u64, threads: usize, out: &mut dyn Write) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write report: {e}");
    let calibration = find(CALIBRATION).expect("calibration experiment is registered");
    let wide = threads.max(2);
    writeln!(out, "######## calibration: {CALIBRATION} serial vs {wide} threads ########")
        .map_err(io)?;
    let (mut serial, mut parallel) = (Ctx::new(1), Ctx::new(wide));
    let serial_s = timed(calibration, &mut serial, seed)?;
    let parallel_s = timed(calibration, &mut parallel, seed)?;
    let identical = serial.out == parallel.out;
    let speedup = serial_s / parallel_s.max(1e-9);
    writeln!(
        out,
        "serial {serial_s:.2}s  parallel {parallel_s:.2}s  speedup {speedup:.2}x  \
         stdout_identical={identical}"
    )
    .map_err(io)?;
    if !identical {
        return Err("parallel stdout differs from serial stdout — determinism broken".into());
    }

    let total = Instant::now();
    let mut acc = Ctx::new(threads);
    let mut experiments = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| e.in_all) {
        writeln!(out, "\n############ {} ############", exp.name).map_err(io)?;
        let (out_from, runs_from) = (acc.out.len(), acc.matrix_runs);
        let wall_s = timed(exp, &mut acc, seed)?;
        out.write_all(&acc.out.as_bytes()[out_from..]).map_err(io)?;
        out.flush().map_err(io)?;
        let runs = acc.matrix_runs - runs_from;
        // runs_per_s is always a number: 0-matrix-run experiments (pure
        // data tables like table2) report 0.000, not null.
        experiments.push(format!(
            "    {{\"name\": \"{}\", \"wall_s\": {wall_s:.3}, \"matrix_runs\": {runs}, \"runs_per_s\": {:.3}}}",
            exp.name,
            runs as f64 / wall_s.max(1e-9)
        ));
    }
    let total_wall_s = total.elapsed().as_secs_f64();

    // Decision accounting must balance: every slot offer became exactly
    // one assign or one reason-tagged skip.
    for (name, c) in &acc.counters {
        if !c.consistent() {
            return Err(format!("{name} counters violate offers = assigns + skips: {c:?}"));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counters = json_object(acc.counters.iter().map(|(n, c)| (n, c.to_json_object("    "))));
    let tenants = json_object(acc.tenants.iter().map(|(n, c)| (n, c.to_json_object())));
    bench_json::set_keys(
        "BENCH_harness.json",
        &[
            ("threads", threads.to_string()),
            ("nproc", nproc.to_string()),
            ("seed", format!("\"{seed}\"")),
            (
                "calibration",
                format!(
                    "{{\n    \"experiment\": \"{CALIBRATION}\",\n    \"parallel_threads\": {wide},\n    \
                     \"serial_wall_s\": {serial_s:.3},\n    \"parallel_wall_s\": {parallel_s:.3},\n    \
                     \"speedup\": {speedup:.3},\n    \"stdout_identical\": {identical}\n  }}"
                ),
            ),
            ("experiments", format!("[\n{}\n  ]", experiments.join(",\n"))),
            ("scheduler_counters", counters),
            ("tenant_counters", tenants),
            ("total_wall_s", format!("{total_wall_s:.3}")),
        ],
    )?;

    writeln!(out, "\nAll experiments completed in {total_wall_s:.1}s ({threads} threads).")
        .map_err(io)?;
    writeln!(out, "Wall-clock accounting written to BENCH_harness.json").map_err(io)?;
    Ok(())
}

/// A JSON object of `(name, value)` members, one per line at the nesting
/// depth of a `BENCH_harness.json` section.
fn json_object<'a>(members: impl Iterator<Item = (&'a String, String)>) -> String {
    let lines: Vec<String> = members.map(|(name, v)| format!("    \"{name}\": {v}")).collect();
    if lines.is_empty() {
        return "{}".into();
    }
    format!("{{\n{}\n  }}", lines.join(",\n"))
}
