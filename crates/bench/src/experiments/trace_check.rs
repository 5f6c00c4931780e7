//! CI gate for the decision-tracing pipeline: run a small traced matrix
//! and verify, end to end, that
//!
//! 1. every emitted trace line is well-formed JSON,
//! 2. the counter identity holds (`offers = assigns + Σ skips`, and one
//!    record per offer),
//! 3. the fixed-seed trace is byte-identical across reruns and across
//!    serial vs. parallel matrix execution.
//!
//! Any violation fails the experiment.

use crate::harness::{cloud_config, parallel_map, Ctx, Run, SchedulerKind};
use pnats_obs::json::validate_json;
use pnats_obs::SchedCounters;
use pnats_sim::config::background_traffic;
use pnats_sim::{JobInput, SimReport};
use pnats_workloads::{scaled_batch, AppKind};

/// Concatenated trace + merged per-scheduler counters of a traced matrix.
fn trace_and_counters(
    reports: &[SimReport],
) -> Result<(String, Vec<(String, SchedCounters)>), String> {
    let mut text = String::new();
    let mut acc = Ctx::default();
    for r in reports {
        match r.trace_jsonl.as_ref() {
            Some(t) => text.push_str(t),
            None => return Err(format!("{}: traced run produced no trace", r.scheduler)),
        }
        acc.record(r);
    }
    Ok((text, acc.counters))
}

/// Run the gate.
pub fn run(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    // A small but non-trivial matrix: three schedulers, two apps, on a
    // shrunken cloud config with background traffic so skips actually
    // occur (delay scheduling, probability gates, co-location refusals).
    let mk_runs = || -> Vec<Run> {
        let mut runs = Vec::new();
        for kind in [
            SchedulerKind::Probabilistic,
            SchedulerKind::Fair,
            SchedulerKind::Coupling,
        ] {
            for (i, app) in [AppKind::Grep, AppKind::Terasort].iter().enumerate() {
                let mut cfg = cloud_config(seed + i as u64);
                cfg.n_nodes = 10;
                cfg.background = background_traffic(2, 1_000.0, cfg.n_nodes, seed);
                runs.push(
                    Run::new(kind, cfg, JobInput::from_batch(&scaled_batch(*app, 2, 24)))
                        .traced(),
                );
            }
        }
        runs
    };

    let serial = parallel_map(mk_runs(), 1, Run::execute);
    let rerun = parallel_map(mk_runs(), 1, Run::execute);
    let wide = parallel_map(mk_runs(), 4, Run::execute);

    let (trace, counters) = trace_and_counters(&serial)?;
    let (trace_rerun, _) = trace_and_counters(&rerun)?;
    let (trace_wide, _) = trace_and_counters(&wide)?;

    // (3) Determinism: byte-identical across reruns and thread counts.
    if trace != trace_rerun {
        return Err("trace differs between two serial executions of the same seed".into());
    }
    if trace != trace_wide {
        return Err("trace differs between serial and parallel matrix execution".into());
    }

    // (1) Every line parses as JSON.
    let mut lines = 0u64;
    for line in trace.lines() {
        lines += 1;
        if let Err(e) = validate_json(line) {
            return Err(format!("invalid JSON trace line: {e}\n{line}"));
        }
    }
    if lines == 0 {
        return Err("traced matrix emitted no records".into());
    }

    // (2) Counter identity, per scheduler and in total.
    let mut offers_total = 0u64;
    for (name, c) in &counters {
        if !c.consistent() {
            return Err(format!("{name}: offers != assigns + skips: {c:?}"));
        }
        if c.offers == 0 {
            return Err(format!("{name}: no slot offers recorded"));
        }
        offers_total += c.offers;
    }
    if lines != offers_total {
        return Err(format!("trace has {lines} records but counters saw {offers_total} offers"));
    }

    ctx.println(format!(
        "TRACE_CHECK ok: {lines} records, {} schedulers, deterministic across reruns and thread counts",
        counters.len()
    ));
    for (name, c) in &counters {
        ctx.println(format!("  {name}: {}", c.to_kv()));
    }
    Ok(())
}
