//! Max-min fair flow allocation throughput: the progressive-filling pass
//! from scratch, and the in-situ churn pattern the simulator drives (one
//! flow leaves, one arrives, rates are refilled — `net.fill` in
//! `perfbench/LAYERS.md`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pnats_net::{FlowNetwork, NodeId, RoutingTable, Topology};

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_model");
    for &(nodes, flows) in &[(20usize, 50usize), (60, 200), (60, 600)] {
        let topo = Topology::palmetto_slice(nodes, 125e6);
        let routes = RoutingTable::new(&topo);
        group.bench_with_input(
            BenchmarkId::new("progressive_filling", format!("{nodes}n_{flows}f")),
            &flows,
            |b, &nf| {
                b.iter_batched(
                    || {
                        let mut fx = FlowNetwork::new(&topo);
                        for i in 0..nf {
                            let src = NodeId((i % nodes) as u32);
                            let dst = NodeId(((i * 13 + 1) % nodes) as u32);
                            if src != dst {
                                fx.add_flow(src, dst, routes.route(src, dst));
                            }
                        }
                        fx
                    },
                    |mut fx| {
                        fx.ensure_rates();
                        black_box(fx.n_active())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_model");
    let (nodes, flows) = (60usize, 200usize);
    let topo = Topology::palmetto_slice(nodes, 125e6);
    let routes = RoutingTable::new(&topo);
    let pair = |i: usize| {
        let src = NodeId((i % nodes) as u32);
        let dst = NodeId(((i * 13 + 1) % nodes) as u32);
        (src, if src == dst { NodeId(((i + 1) % nodes) as u32) } else { dst })
    };
    let mut fx = FlowNetwork::new(&topo);
    let mut live: std::collections::VecDeque<_> = (0..flows)
        .map(|i| {
            let (s, d) = pair(i);
            fx.add_flow(s, d, routes.route(s, d))
        })
        .collect();
    fx.ensure_rates();
    let mut next = flows;
    group.bench_with_input(
        BenchmarkId::new("churn_remove_add_fill", format!("{nodes}n_{flows}f")),
        &flows,
        |b, _| {
            b.iter(|| {
                fx.remove_flow(live.pop_front().expect("flows stay live"));
                let (s, d) = pair(next);
                next += 1;
                live.push_back(fx.add_flow(s, d, routes.route(s, d)));
                fx.ensure_rates();
                black_box(fx.n_active())
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_fill, bench_churn);
criterion_main!(benches);
