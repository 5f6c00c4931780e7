//! Ablations and sensitivity studies beyond the paper's figures: the
//! estimator, network-condition cost, probability model, replication
//! factor, speculation, the full scheduler zoo and Poisson arrivals.

use crate::harness::{
    cloud_config, hdfs_config, mean_jct, run_matrix, run_matrix_with, Ctx, PlacerSpec, Run,
    SchedulerKind, ALL_SCHEDULERS, PAPER_SCHEDULERS,
};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::prob::ProbabilityModel;
use pnats_metrics::render_table;
use pnats_sim::config::background_traffic;
use pnats_sim::{JobInput, TaskKind};
use pnats_tenancy::TenancyConfig;
use pnats_workloads::{poisson_mixed_batch, scaled_batch, table2_batch, AppKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// The probabilistic scheduler at the paper's `P_min = 0.4`, with the
/// given model and estimator.
fn probabilistic(model: ProbabilityModel, estimator: IntermediateEstimator) -> PlacerSpec {
    PlacerSpec::Probabilistic { p_min: 0.4, model, estimator }
}

/// Ablation: the paper's intermediate-size estimator (§II-B2).
///
/// Same scheduler, two estimators: the paper's progress-extrapolated
/// `Î = A · B / d_read` vs Coupling's raw current size `A`. The paper
/// credits its estimator as the third reason for its gains; the effect
/// concentrates on shuffle-heavy batches whose reduces are placed while
/// many maps are still running.
pub fn ablation_estimation(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    // 3 batches × 2 estimators, app-major to match the table rows.
    let mut runs = Vec::new();
    for app in AppKind::ALL {
        let inputs = JobInput::from_batch(&table2_batch(app));
        for est in [IntermediateEstimator::ProgressExtrapolated, IntermediateEstimator::CurrentSize]
        {
            runs.push(Run::with_spec(
                probabilistic(ProbabilityModel::Exponential, est),
                cloud_config(seed),
                inputs.clone(),
            ));
        }
    }
    let reports = run_matrix(ctx, runs);

    let mut rows = Vec::new();
    for (app, pair) in AppKind::ALL.into_iter().zip(reports.chunks(2)) {
        let mut cells = vec![app.to_string()];
        cells.extend(pair.iter().map(|r| format!("{:.0}", mean_jct(r))));
        rows.push(cells);
    }
    ctx.print(render_table(
        "Estimator ablation — mean JCT (s) per batch",
        &["batch", "progress-extrapolated (paper)", "current-size (coupling's)"],
        &rows,
    ));
    Ok(())
}

/// Ablation: §II-B3's network-condition cost (inverse measured rate) vs
/// plain hop counts, across background-traffic intensities.
///
/// The paper's §V names "different network conditions (e.g., bandwidth
/// utilization)" as the evaluation this feature deserves. We sweep the
/// number of background-traffic lanes and compare hop-based scheduling
/// against the congestion-scaled matrix.
pub fn ablation_netcond(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Terasort));
    const LANES: [usize; 4] = [0, 4, 8, 16];
    let mut runs = Vec::new();
    for lanes in LANES {
        for netcond in [true, false] {
            let mut cfg = cloud_config(seed);
            cfg.network_condition = netcond;
            cfg.background = background_traffic(lanes, 8_000.0, cfg.n_nodes, 999 + seed);
            runs.push(Run::with_spec(
                probabilistic(
                    ProbabilityModel::Exponential,
                    IntermediateEstimator::ProgressExtrapolated,
                ),
                cfg,
                inputs.clone(),
            ));
        }
    }
    let reports = run_matrix(ctx, runs);

    let mut rows = Vec::new();
    for (lanes, pair) in LANES.into_iter().zip(reports.chunks(2)) {
        let mut cells = vec![lanes.to_string()];
        cells.extend(pair.iter().map(|r| format!("{:.0}", mean_jct(r))));
        rows.push(cells);
    }
    ctx.print(render_table(
        "Network-condition ablation — Terasort batch mean JCT (s)",
        &["background lanes", "inverse-rate cost (§II-B3)", "hop cost"],
        &rows,
    ));
    Ok(())
}

/// Ablation: alternative probability models (§V future work) and the
/// deterministic min-cost strawman.
///
/// "We will further explore various probabilistic computation models for
/// the probability determination and study their impacts on the job
/// performance" — here they are: exponential (the paper's Formula 4/5),
/// reciprocal, linear and sigmoid, plus the fully deterministic greedy
/// min-cost placer (the probabilistic relaxation removed entirely).
pub fn ablation_prob_model(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Wordcount));
    // 4 probability models + the deterministic min-cost strawman.
    let mut runs: Vec<Run> = ProbabilityModel::ALL
        .iter()
        .map(|&model| {
            Run::with_spec(
                probabilistic(model, IntermediateEstimator::ProgressExtrapolated),
                cloud_config(seed),
                inputs.clone(),
            )
        })
        .collect();
    runs.push(Run::new(SchedulerKind::MinCost, cloud_config(seed), inputs));
    let reports = run_matrix(ctx, runs);

    let labels = ProbabilityModel::ALL
        .iter()
        .map(|m| m.label().to_string())
        .chain(std::iter::once("deterministic-mincost".to_string()));
    let mut rows = Vec::new();
    for (label, r) in labels.zip(&reports) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            label,
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
        ]);
    }
    ctx.print(render_table(
        "Probability-model ablation — Wordcount batch",
        &["model", "finished", "mean JCT (s)", "% local maps"],
        &rows,
    ));
    Ok(())
}

/// Ablation: HDFS replication factor (the paper fixes 2; we sweep 1–3).
///
/// More replicas mean more nodes can host any map locally, raising
/// locality and shrinking the placement problem; replication 1 is the
/// stress case where every placement decision is all-or-nothing.
pub fn ablation_replication(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Wordcount));
    let cells: Vec<(usize, _)> = [1usize, 2, 3]
        .into_iter()
        .flat_map(|replication| PAPER_SCHEDULERS.into_iter().map(move |kind| (replication, kind)))
        .collect();
    let runs = cells
        .iter()
        .map(|&(replication, kind)| {
            let mut cfg = hdfs_config(seed);
            cfg.replication = replication;
            Run::new(kind, cfg, inputs.clone())
        })
        .collect();
    let reports = run_matrix(ctx, runs);

    let mut rows = Vec::new();
    for ((replication, kind), r) in cells.iter().zip(&reports) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            replication.to_string(),
            kind.label().to_string(),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
        ]);
    }
    ctx.print(render_table(
        "Replication-factor sweep — Wordcount batch (HDFS layout)",
        &["replication", "scheduler", "mean JCT (s)", "% local maps"],
        &rows,
    ));
    Ok(())
}

/// Robustness extension: speculative execution under injected stragglers.
///
/// The paper's related work leans on Mantri ("reining in the outliers");
/// our simulator injects slow nodes and optionally launches Hadoop-style
/// backup copies. This sweep shows (a) stragglers hurt every scheduler and
/// (b) speculation claws the tail back, orthogonally to placement policy.
pub fn ablation_speculation(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Grep));
    // (label, slow nodes as (index, speed factor), speculation lag)
    type Condition = (&'static str, Vec<(usize, f64)>, f64);
    let conditions: [Condition; 3] = [
        ("healthy", vec![], 0.0),
        ("3 stragglers", vec![(5usize, 0.15), (23, 0.2), (47, 0.1)], 0.0),
        ("3 stragglers + speculation", vec![(5, 0.15), (23, 0.2), (47, 0.1)], 0.25),
    ];
    let runs = conditions
        .iter()
        .map(|(_, slow, spec)| {
            let mut cfg = hdfs_config(seed);
            cfg.slow_nodes = slow.clone();
            cfg.speculation_lag = *spec;
            Run::new(SchedulerKind::Probabilistic, cfg, inputs.clone())
        })
        .collect();
    let reports = run_matrix(ctx, runs);

    let mut rows = Vec::new();
    for ((label, _, _), r) in conditions.iter().zip(&reports) {
        let maps = r.trace.task_time_cdf(TaskKind::Map);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", mean_jct(r)),
            format!("{:.0}", r.trace.makespan()),
            format!("{:.1}", maps.quantile(0.99)),
        ]);
    }
    ctx.print(render_table(
        "Speculation ablation — Grep batch, probabilistic scheduler",
        &["condition", "mean JCT (s)", "makespan (s)", "map p99 (s)"],
        &rows,
    ));
    Ok(())
}

/// Beyond the paper's three-way comparison: all implemented schedulers —
/// including the Quincy-style global min-cost matcher, LARTS, FIFO,
/// deterministic min-cost and the random floor — on one scaled workload.
///
/// Scaled (jobs ÷4) because the Quincy placer solves a min-cost flow per
/// slot offer, which is exactly the scheduling-overhead contrast the paper
/// draws against flow-based schedulers.
pub fn extended_comparison(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    let inputs = JobInput::from_batch(&scaled_batch(AppKind::Wordcount, 10, 4));
    let runs = ALL_SCHEDULERS
        .iter()
        .map(|&kind| {
            let mut cfg = cloud_config(seed);
            cfg.map_candidate_window = 16; // bound Quincy's per-offer graph
            cfg.reduce_candidate_window = 8;
            Run::new(kind, cfg, inputs.clone())
        })
        .collect();
    // Per-run wall-clock is measured inside the worker; under parallel
    // execution it still reflects each solver's own compute (modulo cache
    // contention), which is the contrast this column exists to draw.
    let results = run_matrix_with(ctx, runs, |run| {
        let wall = Instant::now();
        let r = run.execute();
        (r, wall.elapsed().as_secs_f64())
    });

    let mut rows = Vec::new();
    for (kind, (r, wall_s)) in ALL_SCHEDULERS.into_iter().zip(&results) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            kind.label().to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
            format!("{:.0}", r.trace.network_bytes / 1e9),
            format!("{:.1}", wall_s),
        ]);
    }
    ctx.print(render_table(
        "Extended comparison — scaled Wordcount batch (cloud layout)",
        &["scheduler", "done", "mean JCT (s)", "% local maps", "net GB", "solver wall (s)"],
        &rows,
    ));
    Ok(())
}

/// Sensitivity: Poisson job arrivals instead of the paper's all-at-once
/// batches — the shared-cluster steady state the conclusion targets.
/// Sweeps offered load (mean inter-arrival gap) for the three schedulers.
///
/// Runs through the tenancy layer as its single-tenant special case: the
/// passthrough config exercises the service-mode arrival path while
/// producing byte-identical traces to a tenancy-free run (pinned by
/// `tests/tenancy_parity.rs`).
pub fn continuous_arrivals(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    // Arrival sequences are drawn up front (one seeded stream per load
    // level, exactly as the serial loop did), so the matrix cells stay
    // independent of execution order.
    let mut cells = Vec::new();
    let mut runs = Vec::new();
    for gap_s in [120.0, 60.0, 30.0] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = poisson_mixed_batch(15, gap_s, &mut rng);
        let inputs = JobInput::from_batch(&batch);
        for kind in PAPER_SCHEDULERS {
            cells.push((gap_s, kind));
            let mut cfg = cloud_config(seed);
            cfg.tenancy = Some(TenancyConfig::single_tenant(inputs.len()));
            runs.push(Run::new(kind, cfg, inputs.clone()));
        }
    }
    let reports = run_matrix(ctx, runs);

    let mut rows = Vec::new();
    for ((gap_s, kind), r) in cells.iter().zip(&reports) {
        rows.push(vec![
            format!("{gap_s:.0}"),
            kind.label().to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.0}", r.trace.makespan()),
        ]);
    }
    ctx.print(render_table(
        "Continuous Poisson arrivals — 15 mixed Table II jobs",
        &["mean gap (s)", "scheduler", "done", "mean JCT (s)", "makespan (s)"],
        &rows,
    ));
    Ok(())
}
