//! Property tests of the max-min fair flow allocator: for arbitrary flow
//! sets on arbitrary tree topologies, the allocation must be feasible
//! (no link over capacity), positive, and max-min fair in the bottleneck
//! sense (no flow can be raised without lowering a smaller-or-equal flow).

use pnats_net::{FlowId, FlowNetwork, LinkId, NodeId, RoutingTable, Topology};
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..20).prop_map(|n| Topology::single_rack(n, 1e8)),
        ((2usize..4), (2usize..6)).prop_map(|(r, p)| Topology::multi_rack(r, p, 1e8, 2e8)),
        (3usize..30).prop_map(|n| Topology::palmetto_slice(n, 1e8)),
    ]
}

/// Start one flow per `(a, b)` pair (endpoints taken modulo the node
/// count; self-pairs skipped), returning `(id, src, dst)` per flow.
fn add_flows(
    topo: &Topology,
    routes: &RoutingTable,
    fx: &mut FlowNetwork,
    pairs: &[(usize, usize)],
) -> Vec<(FlowId, NodeId, NodeId)> {
    let n = topo.n_nodes();
    let mut flows = Vec::new();
    for &(a, b) in pairs {
        let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
        if src != dst {
            flows.push((fx.add_flow(src, dst, routes.route(src, dst)), src, dst));
        }
    }
    flows
}

/// Every flow gets a strictly positive, finite rate and no link is over
/// capacity.
fn check_feasible(
    topo: &Topology,
    fx: &mut FlowNetwork,
    flows: &[(FlowId, NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    for (id, _, _) in flows {
        let r = fx.rate(*id);
        prop_assert!(r.is_finite() && r > 0.0, "rate {r}");
    }
    for (i, link) in topo.links().iter().enumerate() {
        let load = fx.link_load(LinkId(i as u32));
        prop_assert!(
            load <= link.capacity_bps * (1.0 + 1e-9),
            "link {i}: {load} > {}",
            link.capacity_bps
        );
    }
    Ok(())
}

/// The defining property of a max-min fair allocation: every flow has a
/// *bottleneck* link — a saturated link on its path where no other flow
/// receives a strictly higher rate.
fn check_bottlenecks(
    topo: &Topology,
    routes: &RoutingTable,
    fx: &mut FlowNetwork,
    flows: &[(FlowId, NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    let rates: Vec<f64> = flows.iter().map(|(id, _, _)| fx.rate(*id)).collect();
    for (i, (_, src, dst)) in flows.iter().enumerate() {
        let path = routes.route(*src, *dst);
        let has_bottleneck = path.iter().any(|&link| {
            let load = fx.link_load(link);
            let saturated = load >= topo.capacity(link) * (1.0 - 1e-9);
            let max_on_link = flows
                .iter()
                .enumerate()
                .filter(|(_, (_, s, d))| routes.route(*s, *d).contains(&link))
                .map(|(j, _)| rates[j])
                .fold(0.0, f64::max);
            saturated && rates[i] >= max_on_link * (1.0 - 1e-9)
        });
        prop_assert!(has_bottleneck, "flow {i} (rate {}) has no bottleneck link", rates[i]);
    }
    Ok(())
}

/// The shrunk failure proptest once recorded for a flow-removal property:
/// four nodes on one switch carrying flows 2→0, 1→3, 2→0 and 1→0, with
/// the first flow (the victim) removed. The survivors' allocation must
/// stay feasible and max-min fair once the victim's share is released.
#[test]
fn removing_a_flow_on_one_switch_keeps_the_rest_max_min_fair() {
    let topo = Topology::single_rack(4, 1e8);
    let routes = RoutingTable::new(&topo);
    let mut fx = FlowNetwork::new(&topo);
    let mut flows = add_flows(&topo, &routes, &mut fx, &[(22, 8), (41, 3), (34, 4), (1, 20)]);
    assert_eq!(flows.len(), 4);
    check_feasible(&topo, &mut fx, &flows).unwrap();
    let victim = 0;
    let (id, _, _) = flows.remove(victim);
    fx.remove_flow(id);
    check_feasible(&topo, &mut fx, &flows).unwrap();
    check_bottlenecks(&topo, &routes, &mut fx, &flows).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocation_is_feasible_and_positive(
        topo in topo_strategy(),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..40),
    ) {
        let routes = RoutingTable::new(&topo);
        let mut fx = FlowNetwork::new(&topo);
        let flows = add_flows(&topo, &routes, &mut fx, &pairs);
        prop_assume!(!flows.is_empty());
        check_feasible(&topo, &mut fx, &flows)?;
    }

    #[test]
    fn single_flow_gets_path_min_capacity(topo in topo_strategy(), a in 0usize..64, b in 0usize..64) {
        let n = topo.n_nodes();
        let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
        prop_assume!(src != dst);
        let routes = RoutingTable::new(&topo);
        let mut fx = FlowNetwork::new(&topo);
        let id = fx.add_flow(src, dst, routes.route(src, dst));
        let min_cap = routes
            .route(src, dst)
            .iter()
            .map(|l| topo.capacity(*l))
            .fold(f64::INFINITY, f64::min);
        let r = fx.rate(id);
        prop_assert!((r - min_cap).abs() < 1e-6 * min_cap, "{r} vs {min_cap}");
    }

    #[test]
    fn every_flow_has_a_bottleneck(
        topo in topo_strategy(),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..25),
    ) {
        let routes = RoutingTable::new(&topo);
        let mut fx = FlowNetwork::new(&topo);
        let flows = add_flows(&topo, &routes, &mut fx, &pairs);
        prop_assume!(!flows.is_empty());
        check_bottlenecks(&topo, &routes, &mut fx, &flows)?;
    }
}
