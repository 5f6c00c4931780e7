//! A transparent [`TaskPlacer`] wrapper that times every placement call.
//!
//! It forwards each trait method to the wrapped placer unchanged — same
//! context, same node, same RNG — so decisions, counters and traces are
//! exactly those of the unwrapped placer. It only reads the clock before
//! and after `place_map`/`place_reduce` and appends the interval to a
//! shared log, which the benchmark turns into `core.place_*` spans.

use crate::out::Out;
use crate::span::Clock;
use crate::stats::percentile;
use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::placer::{Decision, DecisionDetail, PlacerStats, TaskPlacer};
use pnats_net::NodeId;
use pnats_obs::SchedCounters;
use rand::rngs::SmallRng;
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Map,
    Reduce,
}

impl CallKind {
    pub fn span_name(self) -> &'static str {
        match self {
            CallKind::Map => "core.place_map",
            CallKind::Reduce => "core.place_reduce",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub kind: CallKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a [`TimedPlacer`] appends its calls; shared with the benchmark,
/// which reads it after the runtime has consumed the placer.
pub type CallLog = Arc<Mutex<Vec<Call>>>;

pub struct TimedPlacer {
    inner: Box<dyn TaskPlacer>,
    clock: Clock,
    log: CallLog,
}

impl TimedPlacer {
    pub fn wrap(inner: Box<dyn TaskPlacer>, clock: Clock) -> (Box<dyn TaskPlacer>, CallLog) {
        let log: CallLog = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
        (
            Box::new(Self {
                inner,
                clock,
                log: log.clone(),
            }),
            log,
        )
    }

    fn record(&self, kind: CallKind, start_ns: u64) {
        let end_ns = self.clock.now_ns();
        self.log
            .lock()
            .expect("call log poisoned by a panicking placer")
            .push(Call {
                kind,
                start_ns,
                end_ns,
            });
    }
}

impl TaskPlacer for TimedPlacer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let start = self.clock.now_ns();
        let d = self.inner.place_map(ctx, node, rng);
        self.record(CallKind::Map, start);
        d
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let start = self.clock.now_ns();
        let d = self.inner.place_reduce(ctx, node, rng);
        self.record(CallKind::Reduce, start);
        d
    }

    fn on_heartbeat_round(&mut self, round: u64) {
        self.inner.on_heartbeat_round(round);
    }

    fn stats(&self) -> Option<&PlacerStats> {
        self.inner.stats()
    }

    fn last_detail(&self) -> Option<DecisionDetail> {
        self.inner.last_detail()
    }
}

/// Take the calls out of a log once the runtime is done with the placer.
pub fn drain(log: &CallLog) -> Vec<Call> {
    std::mem::take(&mut *log.lock().expect("call log poisoned by a panicking placer"))
}

/// Placement-call metrics over `calls` under `prefix` (e.g.
/// `core.place_map`), plus the pooled self time.
fn put_calls(out: &mut Out, prefix: &str, calls: &[&Call]) {
    let us: Vec<f64> = calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
        .collect();
    out.put(format!("{prefix}.calls"), us.len() as f64, "count");
    out.put(
        format!("{prefix}.self_s"),
        us.iter().sum::<f64>() / 1e6,
        "s",
    );
    out.put_pct(format!("{prefix}.p50_us"), percentile(&us, 0.5), 1.0, "us");
    out.put_pct(format!("{prefix}.p99_us"), percentile(&us, 0.99), 1.0, "us");
}

/// Core-layer metrics of the traced cells: pooled, and per scheduler when
/// the workload runs more than one.
pub fn put_core(out: &mut Out, cells: &[(&'static str, &[Call], &SchedCounters)]) {
    for kind in [CallKind::Map, CallKind::Reduce] {
        let all: Vec<&Call> = cells
            .iter()
            .flat_map(|(_, calls, _)| calls.iter())
            .filter(|c| c.kind == kind)
            .collect();
        put_calls(out, kind.span_name(), &all);
    }
    let mut pooled = SchedCounters::default();
    for (_, _, c) in cells {
        pooled.merge(c);
    }
    out.put(
        "core.assign_ratio",
        pooled.assigns as f64 / pooled.offers.max(1) as f64,
        "ratio",
    );
    let lookups = pooled.cache_hits + pooled.cache_misses;
    out.put(
        "core.cache_hit_ratio",
        pooled.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.put("core.pruned", pooled.pruned as f64, "count");
    if cells.len() > 1 {
        for (sched, calls, _) in cells {
            for kind in [CallKind::Map, CallKind::Reduce] {
                let mine: Vec<&Call> = calls.iter().filter(|c| c.kind == kind).collect();
                put_calls(out, &format!("{}.{sched}", kind.span_name()), &mine);
            }
        }
    }
}
