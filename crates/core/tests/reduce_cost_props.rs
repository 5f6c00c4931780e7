//! Differential property: the source-major reduce-cost kernel
//! ([`reduce_costs_over`]) is bit-identical to evaluating Formula 3
//! ([`reduce_cost`]) node by node, and [`reduce_cost_avg`] built on it is
//! bit-identical to the per-node fold it replaced.
//!
//! Equality is on `to_bits`, not `==`: the kernel swaps the loop nesting
//! (sources outer, nodes inner), which is exact only because every node's
//! sum starts from the same `-0.0` and receives the same products in the
//! same order. A signed zero or a NaN payload differing would show here.
//!
//! Covered: every shipped [`PathCost`] metric (dense, rack ladder,
//! uniform, classed, live inverse-rate), both estimators, node lists that
//! are empty, unsorted and repeating, and sources that are empty, carry
//! zero bytes, or have read nothing yet (`input_read == 0`, which the
//! progress extrapolation maps to an estimate of 0).

use pnats_core::context::{ReduceCandidate, ShuffleSource};
use pnats_core::cost::{reduce_cost, reduce_cost_avg, reduce_costs_over};
use pnats_core::{IntermediateEstimator, JobId, ReduceTaskId};
use pnats_net::{
    ClassedDistance, DistanceMatrix, InverseRateCost, NodeId, PathCost, RackLadderCost,
    RateMonitor, Topology, UniformCost,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RACKS: usize = 3;
const PER_RACK: usize = 4;
const N: usize = RACKS * PER_RACK;
const GBPS: f64 = 1e9 / 8.0;

/// The per-node fold `reduce_cost_avg` used before the kernel; kept only
/// as this test's oracle.
fn reduce_cost_avg_oracle(
    c: &ReduceCandidate,
    free_nodes: &[NodeId],
    cost: &dyn PathCost,
    est: IntermediateEstimator,
) -> f64 {
    if free_nodes.is_empty() {
        return f64::INFINITY;
    }
    let sum: f64 = free_nodes
        .iter()
        .map(|&k| reduce_cost(c, k, cost, est))
        .sum();
    sum / free_nodes.len() as f64
}

fn node_strategy() -> impl Strategy<Value = NodeId> {
    (0..N as u32).prop_map(NodeId)
}

/// One shuffle source, weighted toward the edges: zero bytes, nothing read
/// yet, and fully read.
fn source_strategy() -> impl Strategy<Value = ShuffleSource> {
    let bytes = prop_oneof![1 => Just(0.0), 4 => 0.0..1e9f64, 1 => 0.0..1.0f64];
    (node_strategy(), bytes, 1..1_000_000u64, 0..4u32).prop_map(
        |(node, current_bytes, total, read)| {
            let input_read = match read {
                0 => 0,
                1 => total,
                _ => total / 2 + 1,
            };
            ShuffleSource {
                node,
                current_bytes,
                input_read,
                input_total: total,
            }
        },
    )
}

fn candidate_strategy() -> impl Strategy<Value = ReduceCandidate> {
    vec(source_strategy(), 0..24).prop_map(|sources| ReduceCandidate {
        task: ReduceTaskId {
            job: JobId(0),
            index: 0,
        },
        sources,
    })
}

/// Unsorted node lists with repeats (12 nodes, up to 30 entries), empty
/// included.
fn nodes_strategy() -> impl Strategy<Value = Vec<NodeId>> {
    vec(node_strategy(), 0..30)
}

fn estimator_strategy() -> impl Strategy<Value = IntermediateEstimator> {
    prop_oneof![
        Just(IntermediateEstimator::ProgressExtrapolated),
        Just(IntermediateEstimator::CurrentSize),
    ]
}

/// A dense matrix with arbitrary (non-hop) entries, occasionally
/// unreachable (`∞`), so products like `0 · ∞` are exercised too.
fn random_matrix(rng: &mut SmallRng) -> DistanceMatrix {
    let mut rows = vec![0.0; N * N];
    for a in 0..N {
        for b in 0..N {
            if a != b {
                rows[a * N + b] = if rng.gen_range(0..20) == 0 {
                    f64::INFINITY
                } else {
                    rng.gen_range(0.0..10.0)
                };
            }
        }
    }
    DistanceMatrix::from_rows(N, rows)
}

/// A live inverse-rate metric with some paths observed (congested below
/// the nominal rate) and the rest falling back to hop counts.
fn random_inverse_rate(topo: &Topology, rng: &mut SmallRng) -> InverseRateCost {
    let mut monitor = RateMonitor::new(N, 0.5);
    for _ in 0..40 {
        let (a, b) = (
            NodeId(rng.gen_range(0..N as u32)),
            NodeId(rng.gen_range(0..N as u32)),
        );
        monitor.observe(a, b, rng.gen_range(0.01..1.5) * GBPS);
    }
    InverseRateCost::new(DistanceMatrix::hops(topo), monitor, GBPS)
}

/// Assert the kernel against the per-node oracle on one metric.
fn check(
    name: &str,
    c: &ReduceCandidate,
    nodes: &[NodeId],
    cost: &dyn PathCost,
    est: IntermediateEstimator,
) -> Result<(), TestCaseError> {
    let mut out = vec![1.0; 3]; // stale contents must be overwritten
    reduce_costs_over(c, nodes, cost, est, &mut out);
    prop_assert_eq!(out.len(), nodes.len(), "{}: one cost per node", name);
    for (k, (&node, &got)) in nodes.iter().zip(&out).enumerate() {
        let want = reduce_cost(c, node, cost, est);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: node #{} ({}): {} vs {}",
            name,
            k,
            node,
            got,
            want
        );
    }
    let (got, want) = (
        reduce_cost_avg(c, nodes, cost, est),
        reduce_cost_avg_oracle(c, nodes, cost, est),
    );
    prop_assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{}: C_r_ave {} vs {}",
        name,
        got,
        want
    );
    Ok(())
}

proptest! {
    #[test]
    fn kernel_is_bit_equal_to_per_node_reduce_cost(
        c in candidate_strategy(),
        nodes in nodes_strategy(),
        est in estimator_strategy(),
        seed in 0..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = Topology::multi_rack(RACKS, PER_RACK, GBPS, GBPS);
        check("dense", &c, &nodes, &random_matrix(&mut rng), est)?;
        check("hops", &c, &nodes, &DistanceMatrix::hops(&topo), est)?;
        check("rack-ladder", &c, &nodes, &RackLadderCost::hadoop(topo.layout()), est)?;
        check("uniform", &c, &nodes, &UniformCost::new(N, rng.gen_range(0.0..5.0)), est)?;
        check("classed", &c, &nodes, &ClassedDistance::hops(&topo), est)?;
        check("inverse-rate", &c, &nodes, &random_inverse_rate(&topo, &mut rng), est)?;
    }
}

/// No sources: every node's cost is the empty fold, `-0.0` — the same
/// signed zero `reduce_cost` has always returned.
#[test]
fn empty_sources_give_negative_zero() {
    let topo = Topology::multi_rack(RACKS, PER_RACK, GBPS, GBPS);
    let h = DistanceMatrix::hops(&topo);
    let c = ReduceCandidate {
        task: ReduceTaskId {
            job: JobId(0),
            index: 0,
        },
        sources: vec![],
    };
    let nodes = [NodeId(3), NodeId(0), NodeId(3)];
    let mut out = Vec::new();
    reduce_costs_over(&c, &nodes, &h, IntermediateEstimator::default(), &mut out);
    assert_eq!(out.len(), 3);
    for v in &out {
        assert_eq!(v.to_bits(), (-0.0f64).to_bits());
    }
    let per_node = reduce_cost(&c, NodeId(3), &h, IntermediateEstimator::default());
    assert_eq!(per_node.to_bits(), (-0.0f64).to_bits());
    let avg = reduce_cost_avg(&c, &nodes, &h, IntermediateEstimator::default());
    assert_eq!(avg.to_bits(), (-0.0f64 / 3.0).to_bits());
}
