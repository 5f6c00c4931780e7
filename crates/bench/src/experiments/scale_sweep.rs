//! Scale sweep: throughput of the incremental tick loop at 1k/10k nodes
//! and 100k/1M tasks, far beyond the paper's 60-node testbed.
//!
//! This is a *throughput benchmark*, not an experiment: it runs with the
//! nominal (contention-free) transfer engine (`fluid_network = false`) and
//! raw-hop costs (`network_condition = false`), the regime the incremental
//! cost index and flat task tables were built for. Decision semantics are
//! unchanged — the scheduler sees exactly the costs and candidate windows
//! it would see on a dense run (the differential gate in
//! `tests/scale_parity.rs` and the proptests in
//! `crates/sim/tests/cost_parity_props.rs` pin that), only the bookkeeping
//! is incremental.
//!
//! Grid: {1k, 10k} nodes × {100k, 1M} tasks × {probabilistic, fifo,
//! random}. Each cell reports simulated makespan, wall-clock and
//! tasks-placed-per-wall-second; results are folded into
//! `BENCH_harness.json` under a top-level `"scale_sweep"` key (the file is
//! created if `all` has not run yet).
//!
//! `--smoke` runs only the 1k-node / 100k-task column (all three
//! schedulers) and enforces a wall-clock budget — the CI guard against
//! accidentally regressing the tick loop back to quadratic scans. A smoke
//! run leaves `BENCH_harness.json` untouched.

use crate::bench_json;
use crate::harness::{run_matrix_with, Ctx, Run, SchedulerKind};
use pnats_metrics::render_table;
use pnats_sim::config::TopologyKind;
use pnats_sim::{JobInput, SimConfig, SimReport};
use pnats_workloads::{AppKind, ShuffleModel};
use std::time::Instant;

/// Wall-clock budget for `--smoke` (1k nodes / 100k tasks × 3 schedulers).
/// Generous for slow CI runners; the pre-optimization loop blew through it
/// by more than an order of magnitude.
const SMOKE_BUDGET_S: f64 = 300.0;

/// Maps per job; with [`REDUCES_PER_JOB`] this makes each job exactly 1000
/// tasks, so the task count is job count × 1000.
const MAPS_PER_JOB: usize = 992;
const REDUCES_PER_JOB: usize = 8;
const BLOCK: u64 = 64 << 20;

/// The benchmark cluster: multi-rack, quiet network, nominal transfer
/// engine, small candidate windows (large windows measure candidate
/// cloning, not the tick loop).
fn scale_config(n_nodes: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.n_nodes = n_nodes;
    c.topology = match n_nodes {
        1_000 => TopologyKind::MultiRack { racks: 25, per_rack: 40, uplink_bps: 10e9 },
        10_000 => TopologyKind::MultiRack { racks: 50, per_rack: 200, uplink_bps: 40e9 },
        n => {
            assert!(n % 40 == 0, "scale_sweep grid expects 1k/10k-style node counts");
            TopologyKind::MultiRack { racks: n / 40, per_rack: 40, uplink_bps: 10e9 }
        }
    };
    c.network_condition = false; // raw hops: the class-compressed metric
    c.fluid_network = false; // nominal engine: no global rate recomputation
    c.map_candidate_window = 8;
    c.reduce_candidate_window = 4;
    c.max_sim_time = 1_000_000.0;
    c.seed = seed;
    c
}

/// `n_tasks / 1000` identical jobs (992 maps + 8 reduces each, 64 MB
/// blocks), arrivals staggered over 300 simulated seconds.
fn scale_inputs(n_tasks: usize) -> Vec<JobInput> {
    assert_eq!(n_tasks % (MAPS_PER_JOB + REDUCES_PER_JOB), 0);
    let n_jobs = n_tasks / (MAPS_PER_JOB + REDUCES_PER_JOB);
    (0..n_jobs)
        .map(|ji| JobInput {
            name: format!("scale{ji:04}"),
            submit: 300.0 * ji as f64 / n_jobs as f64,
            block_sizes: vec![BLOCK; MAPS_PER_JOB],
            n_reduces: REDUCES_PER_JOB,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        })
        .collect()
}

struct Cell {
    n_nodes: usize,
    n_tasks: usize,
    scheduler: SchedulerKind,
    report: SimReport,
    wall_s: f64,
}

impl Cell {
    fn tasks_per_s(&self) -> f64 {
        self.n_tasks as f64 / self.wall_s.max(1e-9)
    }
}

/// Run the grid and fold its cells into `BENCH_harness.json`.
pub fn run(ctx: &mut Ctx, seed: u64, smoke: bool) -> Result<(), String> {
    let schedulers = [SchedulerKind::Probabilistic, SchedulerKind::Fifo, SchedulerKind::Random];
    let grid: Vec<(usize, usize)> = if smoke {
        vec![(1_000, 100_000)]
    } else {
        vec![(1_000, 100_000), (1_000, 1_000_000), (10_000, 100_000), (10_000, 1_000_000)]
    };

    let mut runs = Vec::new();
    let mut shapes = Vec::new();
    for &(n_nodes, n_tasks) in &grid {
        for kind in schedulers {
            runs.push(Run::new(kind, scale_config(n_nodes, seed), scale_inputs(n_tasks)));
            shapes.push((n_nodes, n_tasks, kind));
        }
    }

    let total = Instant::now();
    let results = run_matrix_with(ctx, runs, |r| {
        let wall = Instant::now();
        let report = r.execute();
        (report, wall.elapsed().as_secs_f64())
    });
    let total_wall_s = total.elapsed().as_secs_f64();

    let cells: Vec<Cell> = shapes
        .into_iter()
        .zip(results)
        .map(|((n_nodes, n_tasks, scheduler), (report, wall_s))| Cell {
            n_nodes,
            n_tasks,
            scheduler,
            report,
            wall_s,
        })
        .collect();

    // Stdout carries only seed-determined columns (the workspace invariant:
    // byte-identical at any thread count); wall-clock accounting goes to
    // stderr.
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.n_nodes.to_string(),
                c.n_tasks.to_string(),
                c.scheduler.label().to_string(),
                format!("{}/{}", c.report.jobs_completed, c.report.jobs_submitted),
                format!("{:.1}", c.report.sim_end),
            ]
        })
        .collect();
    ctx.print(render_table(
        &format!("Scale sweep (seed {seed}) — incremental tick loop"),
        &["Nodes", "Tasks", "Scheduler", "Jobs done", "Sim end (s)"],
        &rows,
    ));
    for c in &cells {
        eprintln!(
            "SWEEP nodes={} tasks={} scheduler={} wall_s={:.3} tasks_per_s={:.0}",
            c.n_nodes,
            c.n_tasks,
            c.scheduler.label(),
            c.wall_s,
            c.tasks_per_s()
        );
    }

    for c in &cells {
        assert!(
            c.report.all_completed(),
            "{} @ {} nodes / {} tasks left jobs unfinished",
            c.scheduler.label(),
            c.n_nodes,
            c.n_tasks
        );
    }

    let mut cell_json: Vec<String> = Vec::new();
    for c in &cells {
        cell_json.push(format!(
            "{{\"nodes\": {}, \"tasks\": {}, \"scheduler\": \"{}\", \"sim_end_s\": {:.1}, \"wall_s\": {:.3}, \"tasks_per_s\": {:.0}}}",
            c.n_nodes,
            c.n_tasks,
            c.scheduler.label(),
            c.report.sim_end,
            c.wall_s,
            c.tasks_per_s()
        ));
    }
    let section = format!(
        "{{\"seed\": \"{seed}\", \"smoke\": {smoke}, \"total_wall_s\": {total_wall_s:.3}, \"cells\": [{}]}}",
        cell_json.join(", ")
    );
    let where_to = if bench_json::record("BENCH_harness.json", &[("scale_sweep", section)], smoke)? {
        "results folded into BENCH_harness.json"
    } else {
        "smoke run, BENCH_harness.json left untouched"
    };
    eprintln!("Scale sweep completed in {total_wall_s:.1}s; {where_to}");

    if smoke {
        assert!(
            total_wall_s <= SMOKE_BUDGET_S,
            "smoke sweep took {total_wall_s:.1}s, budget {SMOKE_BUDGET_S}s — tick loop regressed"
        );
        eprintln!("SMOKE OK ({total_wall_s:.1}s <= {SMOKE_BUDGET_S}s budget)");
    }
    Ok(())
}
