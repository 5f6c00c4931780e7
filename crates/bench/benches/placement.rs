//! Placement-decision latency per scheduler: the full Algorithm 1/2 path
//! (candidate scan, cost + average, probability, draw) against the
//! baselines' decision paths, at realistic candidate/cluster sizes.
//!
//! `reduce_offer/*` times one reduce slot offer on a context shaped like
//! the paper testbed's mid-job offers: 60 nodes, 16 candidates with ~60
//! shuffle sources each (finished per-node rows plus running maps), ~50
//! free reduce nodes. The probabilistic placer starts each offer with a
//! cold `C_r_ave` cache, as after every free-set change.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pnats_baselines::{CouplingPlacer, FairDelayPlacer, MinCostPlacer};
use pnats_core::context::{
    MapCandidate, MapSchedContext, ReduceCandidate, ReduceSchedContext, ShuffleSource,
};
use pnats_core::placer::TaskPlacer;
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_core::types::{JobId, MapTaskId, ReduceTaskId};
use pnats_net::{DistanceMatrix, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Fixture {
    h: DistanceMatrix,
    layout: pnats_net::ClusterLayout,
    map_cands: Vec<MapCandidate>,
    reduce_cands: Vec<ReduceCandidate>,
    free: Vec<NodeId>,
}

fn fixture(n_nodes: usize, n_cands: usize) -> Fixture {
    let topo = Topology::palmetto_slice(n_nodes, 125e6);
    let h = DistanceMatrix::hops(&topo);
    let layout = topo.layout().clone();
    let map_cands: Vec<MapCandidate> = (0..n_cands)
        .map(|i| MapCandidate {
            task: MapTaskId { job: JobId(0), index: i as u32 },
            block_size: 128 << 20,
            replicas: vec![
                NodeId((i % n_nodes) as u32),
                NodeId(((i * 7 + 1) % n_nodes) as u32),
            ],
        })
        .collect();
    let reduce_cands: Vec<ReduceCandidate> = (0..n_cands.min(16))
        .map(|i| ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: i as u32 },
            sources: (0..n_nodes)
                .map(|s| ShuffleSource {
                    node: NodeId(s as u32),
                    current_bytes: (s * i + 1) as f64 * 1e5,
                    input_read: 64 << 20,
                    input_total: 128 << 20,
                })
                .collect(),
        })
        .collect();
    let free: Vec<NodeId> = (0..n_nodes as u32).map(NodeId).collect();
    Fixture { h, layout, map_cands, reduce_cands, free }
}

type PlacerFactory = Box<dyn Fn() -> Box<dyn TaskPlacer>>;

fn bench_place(c: &mut Criterion) {
    let fx = fixture(60, 32);
    let mut group = c.benchmark_group("placement");

    let placers: Vec<(&str, PlacerFactory)> = vec![
        ("probabilistic", Box::new(|| Box::new(ProbabilisticPlacer::paper()))),
        ("coupling", Box::new(|| Box::new(CouplingPlacer::paper()))),
        ("fair", Box::new(|| Box::new(FairDelayPlacer::hadoop_defaults()))),
        ("mincost", Box::new(|| Box::new(MinCostPlacer::new()))),
    ];
    for (name, make) in &placers {
        group.bench_with_input(BenchmarkId::new("map_offer", name), name, |b, _| {
            let mut placer = make();
            let mut rng = SmallRng::seed_from_u64(1);
            let ctx =
                MapSchedContext::new(JobId(0), &fx.map_cands, &fx.free, &fx.h, &fx.layout);
            b.iter(|| black_box(placer.place_map(&ctx, NodeId(5), &mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("reduce_offer", name), name, |b, _| {
            let mut placer = make();
            let mut rng = SmallRng::seed_from_u64(1);
            let ctx =
                ReduceSchedContext::new(JobId(0), &fx.reduce_cands, &fx.free, &fx.h, &fx.layout)
                    .map_phase(0.5, 100, 200)
                    .reduce_phase(4, 16)
                    .at(10.0);
            b.iter(|| black_box(placer.place_reduce(&ctx, NodeId(5), &mut rng)));
        });
    }
    group.finish();
}

/// 16 reduce candidates over 60 nodes: 21 finished per-node rows and 38
/// running maps at assorted progress, partition-skewed byte counts.
fn testbed_reduce_cands() -> Vec<ReduceCandidate> {
    let finished = (0..21u32).map(|n| (NodeId(n * 3 % 60), 1.0));
    let running = (0..38u32).map(|m| (NodeId((m * 7 + 2) % 60), (m % 10) as f64 / 10.0));
    let sources: Vec<(NodeId, f64)> = finished.chain(running).collect();
    (0..16u32)
        .map(|f| ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: f },
            sources: sources
                .iter()
                .enumerate()
                .map(|(i, &(node, progress))| {
                    let total = 128u64 << 20;
                    let read = (total as f64 * progress) as u64;
                    let bytes = ((i as u32 * 31 + f * 17) % 97 + 1) as f64 * 1e5;
                    ShuffleSource {
                        node,
                        current_bytes: bytes * progress,
                        input_read: read,
                        input_total: total,
                    }
                })
                .collect(),
        })
        .collect()
}

fn bench_reduce_offer(c: &mut Criterion) {
    let topo = Topology::palmetto_slice(60, 125e6);
    let h = DistanceMatrix::hops(&topo);
    let cands = testbed_reduce_cands();
    // Every sixth node's reduce slots are taken: 50 free.
    let free: Vec<NodeId> = (0..60u32).filter(|n| n % 6 != 5).map(NodeId).collect();
    let running = [NodeId(5), NodeId(11)];
    let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
        .running_on(&running)
        .map_phase(0.6, 21, 59)
        .reduce_phase(2, 32)
        .at(10.0);
    let node = NodeId(7);
    let mut group = c.benchmark_group("reduce_offer");
    group.bench_function("coupling", |b| {
        let mut placer = CouplingPlacer::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| black_box(placer.place_reduce(&ctx, node, &mut rng)));
    });
    group.bench_function("probabilistic", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter_batched(
            ProbabilisticPlacer::paper,
            |mut placer| placer.place_reduce(&ctx, node, &mut rng),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_place, bench_reduce_offer);
criterion_main!(benches);
