//! Property tests of the max-min fair flow allocator: for arbitrary flow
//! sets on arbitrary tree topologies, the allocation must be feasible
//! (no link over capacity), positive, and max-min fair in the bottleneck
//! sense (no flow can be raised without lowering a smaller-or-equal flow).
//! A differential property pins the incremental bookkeeping (slab slots,
//! per-link flow lists, reused fill scratch): after any sequence of adds,
//! removes and capacity changes, every rate is bit-equal to that of a
//! network built from scratch with the same flows in a shuffled order.

use pnats_net::{FlowId, FlowNetwork, LinkId, NodeId, RoutingTable, Topology};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

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

/// Apply `ops` to a fresh network — `(0..=5, a, b, x)`: kinds 0–2 add a
/// flow between nodes `a` and `b` (node-local when they coincide), kind 3
/// removes the live flow at index `a`, kind 4 sets link `a`'s capacity to
/// `x` × nominal, kind 5 refills the rates (as the simulator does between
/// mutations) — then rebuild the surviving flows in an order shuffled by
/// `seed` and require bit-equal rates.
fn check_matches_rebuild(
    topo: &Topology,
    ops: &[(u32, usize, usize, f64)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let routes = RoutingTable::new(topo);
    let n = topo.n_nodes();
    let n_links = topo.links().len();
    let mut fx = FlowNetwork::new(topo);
    let mut caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_bps).collect();
    let mut live: Vec<(FlowId, NodeId, NodeId)> = Vec::new();
    for &(kind, a, b, x) in ops {
        match kind {
            0..=2 => {
                let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
                live.push((fx.add_flow(src, dst, routes.route(src, dst)), src, dst));
            }
            3 if !live.is_empty() => {
                let (id, _, _) = live.remove(a % live.len());
                fx.remove_flow(id);
            }
            3 => {}
            5 => fx.ensure_rates(),
            _ => {
                let l = a % n_links;
                caps[l] = topo.capacity(LinkId(l as u32)) * x;
                fx.set_capacity(LinkId(l as u32), caps[l]);
            }
        }
    }
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
    let mut fresh = FlowNetwork::with_capacities(caps);
    let mut fresh_ids = vec![None; live.len()];
    for &i in &order {
        let (_, src, dst) = live[i];
        fresh_ids[i] = Some(fresh.add_flow(src, dst, routes.route(src, dst)));
    }
    prop_assert_eq!(fx.n_active(), live.len());
    for (i, &(id, src, dst)) in live.iter().enumerate() {
        let got = fx.rate(id);
        let want = fresh.rate(fresh_ids[i].expect("rebuilt"));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "flow {} ({:?}->{:?}): {} vs {}", i, src, dst, got, want);
        prop_assert!(fx.rate_floor(id) <= got * (1.0 + 1e-12), "floor above rate");
    }
    Ok(())
}

#[test]
#[should_panic(expected = "unknown flow id")]
fn rate_of_a_removed_flow_panics() {
    let topo = Topology::single_rack(3, 1e8);
    let routes = RoutingTable::new(&topo);
    let mut fx = FlowNetwork::new(&topo);
    let id = fx.add_flow(NodeId(0), NodeId(1), routes.route(NodeId(0), NodeId(1)));
    fx.remove_flow(id);
    fx.rate(id);
}

#[test]
#[should_panic(expected = "unknown flow id")]
fn endpoints_of_a_removed_flow_panics() {
    let topo = Topology::single_rack(3, 1e8);
    let routes = RoutingTable::new(&topo);
    let mut fx = FlowNetwork::new(&topo);
    let id = fx.add_flow(NodeId(0), NodeId(1), routes.route(NodeId(0), NodeId(1)));
    fx.remove_flow(id);
    fx.endpoints(id);
}

#[test]
#[should_panic(expected = "unknown flow id")]
fn removing_a_flow_twice_panics() {
    let topo = Topology::single_rack(3, 1e8);
    let routes = RoutingTable::new(&topo);
    let mut fx = FlowNetwork::new(&topo);
    let id = fx.add_flow(NodeId(0), NodeId(1), routes.route(NodeId(0), NodeId(1)));
    fx.remove_flow(id);
    fx.remove_flow(id);
}

/// A removed flow's slot is reused by the next flow, but the old handle
/// must not reach the new flow.
#[test]
#[should_panic(expected = "unknown flow id")]
fn a_removed_flows_handle_does_not_reach_its_slots_next_flow() {
    let topo = Topology::single_rack(3, 1e8);
    let routes = RoutingTable::new(&topo);
    let mut fx = FlowNetwork::new(&topo);
    let old = fx.add_flow(NodeId(0), NodeId(1), routes.route(NodeId(0), NodeId(1)));
    fx.remove_flow(old);
    let new = fx.add_flow(NodeId(1), NodeId(2), routes.route(NodeId(1), NodeId(2)));
    assert_ne!(old, new);
    fx.rate(old);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_rates_equal_a_shuffled_rebuild(
        topo in topo_strategy(),
        ops in proptest::collection::vec((0u32..6, 0usize..64, 0usize..64, 0.05f64..1.0), 1..80),
        seed in 0u64..u64::MAX,
    ) {
        check_matches_rebuild(&topo, &ops, seed)?;
    }

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
