//! Robustness extension: makespan degradation under injected node crashes.
//!
//! A nested sweep of seeded [`FaultPlan`]s — plan *k* contains the first
//! *k* crashes of one master schedule, so each step strictly adds faults —
//! run under the paper's three-way scheduler comparison. Every report is
//! replayed through the invariant oracle ([`pnats_sim::check_report`]):
//! any violated conservation law (duplicate map completion, completion on
//! a dead node, leaked offer) aborts the bench. Per scheduler, the
//! makespan series must be monotone in the crash count up to a slack for
//! scheduling noise ([`pnats_sim::check_makespan_monotone`]).
//!
//! `--smoke` shrinks the sweep to two crash counts on a reduced batch (the
//! CI configuration).

use crate::harness::{hdfs_config, mean_jct, run_matrix, Ctx, Run, PAPER_SCHEDULERS};
use pnats_core::faults::FaultPlan;
use pnats_metrics::render_table;
use pnats_sim::{check_makespan_monotone, check_report, JobInput};
use pnats_workloads::{scaled_batch, table2_batch, AppKind};

/// Crashed nodes stay down for this long (the sweep models fail-recover,
/// not permanent loss, so every batch still completes).
const MTTR_S: f64 = 400.0;
/// Crashes land in this window of simulated time — strictly inside the
/// batch's active period under every scheduler (the fault-free Terasort
/// makespan is ~690 s at its shortest), so every planned crash fires.
const CRASH_WINDOW: (f64, f64) = (100.0, 600.0);
/// Tolerated relative makespan *decrease* per added crash: a crash can
/// accidentally improve placement (killing work off a congested node), so
/// monotonicity only holds up to scheduling noise.
const MONOTONE_SLACK: f64 = 0.25;

/// Run the sweep; any oracle or monotonicity violation is fatal.
pub fn run(ctx: &mut Ctx, seed: u64, smoke: bool) -> Result<(), String> {
    let crash_counts: &[usize] = if smoke { &[0, 2] } else { &[0, 1, 2, 4, 8] };
    // The smoke batch finishes in ~30 simulated seconds, so its crash
    // window (and repair time) shrink to match.
    let (inputs, window, mttr) = if smoke {
        (JobInput::from_batch(&scaled_batch(AppKind::Terasort, 2, 20)), (5.0, 20.0), 15.0)
    } else {
        (JobInput::from_batch(&table2_batch(AppKind::Terasort)), CRASH_WINDOW, MTTR_S)
    };
    let n_nodes = hdfs_config(seed).n_nodes;
    // One master schedule; plan k keeps its first k crashes, so the sweep
    // is nested and the monotonicity check is meaningful.
    let master = FaultPlan::with_random_crashes(
        *crash_counts.last().unwrap(),
        n_nodes,
        window,
        Some(mttr),
        seed,
    );

    let mut runs = Vec::new();
    for kind in PAPER_SCHEDULERS {
        for &k in crash_counts {
            let mut cfg = hdfs_config(seed);
            cfg.faults = FaultPlan { crashes: master.crashes[..k].to_vec(), ..FaultPlan::none() };
            runs.push(Run::new(kind, cfg, inputs.clone()));
        }
    }
    let reports = run_matrix(ctx, runs);

    // Every report must satisfy the conservation laws; with recovering
    // crashes every batch must still complete, and — the window sitting
    // strictly inside the active period — every planned crash must fire.
    for (i, r) in reports.iter().enumerate() {
        check_report(r, &inputs)
            .map_err(|e| format!("oracle violation under {}: {e}", r.scheduler))?;
        if !r.all_completed() {
            return Err(format!(
                "{} completed only {}/{} jobs (crashes all recover; none may fail)",
                r.scheduler, r.jobs_completed, r.jobs_submitted
            ));
        }
        let k = crash_counts[i % crash_counts.len()] as u64;
        if r.counters.node_crashes != k {
            return Err(format!(
                "{} injected {} crashes but planned {k} — window outside the run?",
                r.scheduler, r.counters.node_crashes
            ));
        }
    }

    let mut rows = Vec::new();
    for (s, kind) in PAPER_SCHEDULERS.iter().enumerate() {
        let slice = &reports[s * crash_counts.len()..(s + 1) * crash_counts.len()];
        let makespans: Vec<f64> = slice.iter().map(|r| r.trace.makespan()).collect();
        check_makespan_monotone(&makespans, MONOTONE_SLACK)
            .map_err(|e| format!("{} {e}", kind.label()))?;
        let base = makespans[0];
        for (i, (&k, r)) in crash_counts.iter().zip(slice).enumerate() {
            rows.push(vec![
                kind.label().to_string(),
                k.to_string(),
                format!("{:.0}", makespans[i]),
                format!("{:+.1}%", 100.0 * (makespans[i] - base) / base),
                format!("{:.0}", mean_jct(r)),
                r.counters.reexecuted_maps.to_string(),
                r.counters.retries.to_string(),
            ]);
        }
    }
    ctx.print(render_table(
        "Fault sweep — Terasort batch, makespan vs injected node crashes",
        &[
            "scheduler",
            "crashes",
            "makespan (s)",
            "vs 0 crashes",
            "mean JCT (s)",
            "reexec maps",
            "retries",
        ],
        &rows,
    ));
    Ok(())
}
