//! Multi-tenant service mode: three weighted tenant streams submitting
//! Poisson job arrivals against one shared cluster, swept from light load
//! past the admission-control saturation point.
//!
//! Every run enables all three tenancy policies — DWRR weighted fair
//! sharing, admission control (per-tenant queue caps plus cluster
//! saturation backpressure), and min-share map preemption — under the
//! paper's probabilistic scheduler on the headline cloud configuration.
//! Reported per (arrival rate × tenant): jobs admitted/rejected/preempted,
//! completed-job JCT p50/p99, and a per-rate Jain fairness index over
//! weight-normalized map service (slot-seconds / weight: exactly 1.0 means
//! service split in weight proportion). Scheduling wall-clock (total and
//! per offer) is measured per run and reported on **stderr** and in the
//! JSON section only — stdout carries seed-determined columns exclusively,
//! so it stays byte-identical across thread counts.
//!
//! Results are folded into `BENCH_harness.json` under a top-level
//! `"tenant_service"` key (the file is created if `all` has not run
//! yet). Every run must pass the trace oracle (`check_report`), which
//! includes the rejection-accounting, preemption-requeue and slot-capacity
//! laws.
//!
//! `--smoke` runs the lightest and heaviest rates on shrunken jobs and
//! enforces a wall-clock budget — the CI guard that service mode stays
//! cheap enough to gate on. A smoke run leaves `BENCH_harness.json`
//! untouched.

use crate::bench_json;
use crate::harness::{cloud_config, run_matrix, Ctx, Run, SchedulerKind};
use pnats_metrics::{jain_index, percentile, render_table};
use pnats_sim::{check_report, JobInput, SimReport, TaskKind};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
use pnats_workloads::{multi_tenant_poisson, TenantStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Wall-clock budget for `--smoke` (two rates on divisor-20 jobs).
const SMOKE_BUDGET_S: f64 = 120.0;

/// The three tenants: gold pays for 3× weight and a guaranteed quarter of
/// the map slots, silver for 2× weight, bronze rides along at weight 1
/// behind a short admission queue.
fn tenant_set() -> TenantSet {
    TenantSet::new(vec![
        TenantSpec::new("gold", 3.0).with_min_share(0.25),
        TenantSpec::new("silver", 2.0),
        TenantSpec::new("bronze", 1.0).with_queue_cap(4),
    ])
}

/// One sweep level: every tenant submits `n_jobs` Poisson arrivals with
/// the same mean gap (the offered load), sized down by `divisor`.
fn level_workload(
    mean_gap_s: f64,
    n_jobs: usize,
    divisor: u32,
    seed: u64,
) -> (Vec<JobInput>, Vec<u32>) {
    let streams = [TenantStream { n_jobs, mean_gap_s, divisor }; 3];
    // One seeded stream per load level, so levels are independent cells.
    let mut rng = SmallRng::seed_from_u64(seed ^ ((mean_gap_s as u64) << 8));
    let (batch, tags) = multi_tenant_poisson(&streams, &mut rng);
    (JobInput::from_batch(&batch), tags)
}

/// Per-tenant derived metrics of one finished run.
struct TenantRow {
    name: String,
    admitted: u64,
    rejected: u64,
    preempted: u64,
    done: usize,
    jct_p50: Option<f64>,
    jct_p99: Option<f64>,
}

/// Jain fairness index over weight-normalized map service (slot-seconds
/// per unit weight), counting only tenants that received any service.
fn service_jain(r: &SimReport, tags: &[u32], weights: &[f64]) -> Option<f64> {
    let mut service = vec![0.0f64; weights.len()];
    for t in r.trace.tasks_of(TaskKind::Map) {
        service[tags[t.job] as usize] += t.running_time();
    }
    let normalized: Vec<f64> = service
        .iter()
        .zip(weights)
        .map(|(s, w)| s / w)
        .filter(|x| *x > 0.0)
        .collect();
    jain_index(&normalized)
}

fn tenant_rows(r: &SimReport, tags: &[u32]) -> Vec<TenantRow> {
    r.tenants
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let mut jcts: Vec<f64> = r
                .trace
                .jobs
                .iter()
                .filter(|j| tags[j.job] as usize == t)
                .map(|j| j.jct())
                .collect();
            jcts.sort_by(f64::total_cmp);
            TenantRow {
                name: ts.name.clone(),
                admitted: ts.counters.admitted,
                rejected: ts.counters.rejected_queue + ts.counters.rejected_saturated,
                preempted: ts.counters.preempted,
                done: jcts.len(),
                jct_p50: percentile(&jcts, 0.50),
                jct_p99: percentile(&jcts, 0.99),
            }
        })
        .collect()
}

fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
}

/// Run the sweep and fold its levels into `BENCH_harness.json`.
pub fn run(ctx: &mut Ctx, seed: u64, smoke: bool) -> Result<(), String> {
    // Offered-load sweep: mean Poisson gap per tenant stream, from a
    // comfortably subcritical trickle down to a gap well past the point
    // where backlog-per-slot exceeds the saturation threshold and
    // admission control starts shedding arrivals.
    let (gaps, n_jobs, divisor): (Vec<f64>, usize, u32) = if smoke {
        (vec![120.0, 10.0], 6, 20)
    } else {
        (vec![240.0, 120.0, 60.0, 15.0], 12, 4)
    };
    let tenants = tenant_set();
    let weights = tenants.weights();

    let mut runs = Vec::new();
    let mut cells = Vec::new();
    for &gap in &gaps {
        let (inputs, tags) = level_workload(gap, n_jobs, divisor, seed);
        let mut tc = TenancyConfig::new(tenants.clone(), tags.clone());
        tc.fairness = true;
        tc.admission = true;
        tc.preemption = true;
        tc.saturation_backlog = 2.0;
        tc.preempt_cooldown_s = 5.0;
        let mut cfg = cloud_config(seed);
        cfg.tenancy = Some(tc);
        runs.push(Run::new(SchedulerKind::Probabilistic, cfg, inputs.clone()));
        cells.push((gap, inputs, tags));
    }

    let total = Instant::now();
    let reports = run_matrix(ctx, runs);
    let total_wall_s = total.elapsed().as_secs_f64();

    for ((gap, inputs, _), r) in cells.iter().zip(&reports) {
        check_report(r, inputs)
            .unwrap_or_else(|e| panic!("oracle violation at gap {gap}: {e}"));
    }

    let mut rows = Vec::new();
    let mut level_json = Vec::new();
    for ((gap, _, tags), r) in cells.iter().zip(&reports) {
        let jain = service_jain(r, tags, &weights);
        let trows = tenant_rows(r, tags);
        let mut tenant_json = Vec::new();
        for (t, tr) in trows.iter().enumerate() {
            rows.push(vec![
                format!("{gap:.0}"),
                tr.name.clone(),
                format!("{:.0}", weights[t]),
                tr.admitted.to_string(),
                tr.rejected.to_string(),
                tr.preempted.to_string(),
                tr.done.to_string(),
                fmt_opt(tr.jct_p50),
                fmt_opt(tr.jct_p99),
                if t == 0 { fmt_opt(jain.map(|j| j * 100.0)) } else { String::new() },
            ]);
            tenant_json.push(format!(
                "{{\"name\": \"{}\", \"weight\": {}, \"admitted\": {}, \"rejected_queue\": {}, \"rejected_saturated\": {}, \"preempted\": {}, \"jobs_done\": {}, \"jct_p50_s\": {}, \"jct_p99_s\": {}}}",
                tr.name,
                weights[t],
                r.tenants[t].counters.admitted,
                r.tenants[t].counters.rejected_queue,
                r.tenants[t].counters.rejected_saturated,
                r.tenants[t].counters.preempted,
                tr.done,
                json_opt(tr.jct_p50),
                json_opt(tr.jct_p99),
            ));
        }
        // Wall-clock accounting stays off stdout (byte-identity invariant).
        let offers = r.counters.offers.max(1);
        let offer_us = r.sched_wall_s * 1e6 / offers as f64;
        eprintln!(
            "SERVICE gap_s={gap:.0} sched_wall_s={:.3} offers={} offer_latency_us={offer_us:.2}",
            r.sched_wall_s, r.counters.offers
        );
        level_json.push(format!(
            "{{\"mean_gap_s\": {gap:.0}, \"jain_index\": {}, \"jobs_rejected\": {}, \"sched_wall_s\": {:.3}, \"offer_latency_us\": {offer_us:.2}, \"tenants\": [{}]}}",
            json_opt(jain),
            r.jobs_rejected,
            r.sched_wall_s,
            tenant_json.join(", ")
        ));
    }

    ctx.print(render_table(
        &format!("Tenant service mode (seed {seed}) — 3 tenants, Poisson arrivals"),
        &[
            "gap (s)", "tenant", "w", "admit", "reject", "preempt", "done", "p50 JCT", "p99 JCT",
            "Jain %",
        ],
        &rows,
    ));

    // The sweep must actually cross the saturation point: the heaviest
    // rate has to shed load through admission control.
    let heaviest = reports.last().expect("at least one level");
    assert!(
        heaviest.jobs_rejected > 0,
        "heaviest rate (gap {}s) rejected nothing — sweep no longer reaches saturation",
        gaps.last().unwrap()
    );

    let section = format!(
        "{{\"seed\": \"{seed}\", \"smoke\": {smoke}, \"total_wall_s\": {total_wall_s:.3}, \"levels\": [{}]}}",
        level_json.join(", ")
    );
    let where_to =
        if bench_json::record("BENCH_harness.json", &[("tenant_service", section)], smoke)? {
            "results folded into BENCH_harness.json"
        } else {
            "smoke run, BENCH_harness.json left untouched"
        };
    eprintln!("Tenant service sweep completed in {total_wall_s:.1}s; {where_to}");

    if smoke {
        assert!(
            total_wall_s <= SMOKE_BUDGET_S,
            "smoke sweep took {total_wall_s:.1}s, budget {SMOKE_BUDGET_S}s — service mode regressed"
        );
        eprintln!("SMOKE OK ({total_wall_s:.1}s <= {SMOKE_BUDGET_S}s budget)");
    }
    Ok(())
}
