//! Fluid flow model: max-min fair bandwidth sharing over routed paths.
//!
//! The simulator models every in-flight transfer (remote map input fetch,
//! shuffle segment) as a *flow* over the links of its route. Whenever the
//! flow set changes, rates are recomputed with the classic **progressive
//! filling** algorithm, which yields the max-min fair allocation:
//!
//! 1. all flows start unfrozen, every link has its full residual capacity;
//! 2. find the link whose equal share (`residual / unfrozen flows crossing
//!    it`) is smallest — this is the next bottleneck;
//! 3. freeze every unfrozen flow crossing it at that share, subtracting the
//!    share from the residual of every other link on the flow's path;
//! 4. repeat until every flow is frozen.
//!
//! The resulting per-flow rates are also what the paper's §II-B3 "network
//! condition" monitor observes: the measured transmission rate of a path is
//! exactly the rate contention leaves available on it.

use crate::topology::{LinkId, NodeId, Topology};

/// Handle of an active flow. Not reused within one [`FlowNetwork`] until
/// 2³² further flows have started.
///
/// The low 32 bits are the flow's slot in the network's slab (slots are
/// recycled), the high 32 bits a per-network serial, so a stale handle to
/// a recycled slot is still rejected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FlowId(pub u64);

impl FlowId {
    fn slot(self) -> usize {
        self.0 as u32 as usize
    }
}

#[derive(Clone, Debug)]
struct Flow {
    /// `None` while the slot is free.
    id: Option<FlowId>,
    src: NodeId,
    dst: NodeId,
    route: Vec<LinkId>,
    rate: f64,
}

/// Reusable per-recompute working set, sized at the first recompute.
#[derive(Clone, Debug, Default)]
struct FillScratch {
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    frozen: Vec<bool>,
    loaded: Vec<u32>,
}

/// A set of concurrent flows over a capacitated topology, with max-min
/// fair rate assignment.
///
/// Flows live in a slab indexed by [`FlowId`] slot, so lookups are O(1)
/// and memory follows the peak number of concurrent flows, not the number
/// ever started. Each link keeps the slots of the flows crossing it,
/// updated on add and remove, so a recompute rebuilds nothing.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    capacities: Vec<f64>,
    flows: Vec<Flow>,
    free_slots: Vec<u32>,
    next_serial: u32,
    /// Slots of the flows crossing each link, in no particular order
    /// (empty until the first routed flow arrives).
    link_flows: Vec<Vec<u32>>,
    /// Flows with a non-empty route.
    n_routed: usize,
    scratch: Box<FillScratch>,
    /// Rates valid only when `clean`; recomputed lazily.
    clean: bool,
}

impl FlowNetwork {
    /// An empty flow set over the links of `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::with_capacities(topo.links().iter().map(|l| l.capacity_bps).collect())
    }

    /// An empty flow set over explicit link capacities (for tests).
    pub fn with_capacities(capacities: Vec<f64>) -> Self {
        Self {
            capacities,
            flows: Vec::new(),
            free_slots: Vec::new(),
            next_serial: 0,
            link_flows: Vec::new(),
            n_routed: 0,
            scratch: Box::default(),
            clean: true,
        }
    }

    /// Number of active flows.
    pub fn n_active(&self) -> usize {
        self.flows.len() - self.free_slots.len()
    }

    /// Start a flow from `src` to `dst` along `route`. An empty route means
    /// a node-local transfer; such flows get an infinite rate and never
    /// bottleneck anything.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, route: &[LinkId]) -> FlowId {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.flows.push(Flow {
                    id: None,
                    src,
                    dst,
                    route: Vec::new(),
                    rate: f64::INFINITY,
                });
                u32::try_from(self.flows.len() - 1).expect("flow slots fit in u32")
            }
        };
        let id = FlowId(((self.next_serial as u64) << 32) | slot as u64);
        self.next_serial = self.next_serial.wrapping_add(1);
        let f = &mut self.flows[slot as usize];
        f.id = Some(id);
        f.src = src;
        f.dst = dst;
        f.route.clear();
        f.route.extend_from_slice(route);
        f.rate = f64::INFINITY;
        if !route.is_empty() {
            if self.link_flows.is_empty() {
                self.link_flows.resize_with(self.capacities.len(), Vec::new);
            }
            for l in route {
                self.link_flows[l.idx()].push(slot);
            }
            self.n_routed += 1;
        }
        self.clean = false;
        id
    }

    /// The slab slot of live flow `id`; panics with "unknown flow id"
    /// otherwise.
    fn slot_of(&self, id: FlowId, what: &str) -> usize {
        let slot = id.slot();
        match self.flows.get(slot) {
            Some(f) if f.id == Some(id) => slot,
            _ => panic!("{what}: unknown flow id {id:?}"),
        }
    }

    /// Remove a finished or cancelled flow. Panics on unknown id.
    pub fn remove_flow(&mut self, id: FlowId) {
        let slot = self.slot_of(id, "remove_flow");
        let f = &mut self.flows[slot];
        f.id = None;
        for l in &f.route {
            let list = &mut self.link_flows[l.idx()];
            let pos = list
                .iter()
                .position(|&s| s as usize == slot)
                .expect("routed flow is on its links' lists");
            list.swap_remove(pos);
        }
        if !f.route.is_empty() {
            self.n_routed -= 1;
        }
        self.free_slots.push(slot as u32);
        self.clean = false;
    }

    /// Current max-min fair rate of `id` in bytes/second, recomputing if the
    /// flow set changed. Panics on unknown id.
    pub fn rate(&mut self, id: FlowId) -> f64 {
        self.ensure_rates();
        self.flows[self.slot_of(id, "rate")].rate
    }

    /// A lower bound on the rate `id` gets, available without a recompute:
    /// the equal share of the tightest link on its path. Max-min fairness
    /// guarantees it — a flow's bottleneck link is saturated and no flow on
    /// it gets more, so the flow gets at least `capacity / flows` there.
    /// Infinite for a node-local flow. Panics on unknown id.
    pub fn rate_floor(&self, id: FlowId) -> f64 {
        let f = &self.flows[self.slot_of(id, "rate_floor")];
        f.route
            .iter()
            .map(|l| self.capacities[l.idx()] / self.link_flows[l.idx()].len() as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Endpoints of `id`.
    pub fn endpoints(&self, id: FlowId) -> (NodeId, NodeId) {
        let f = &self.flows[self.slot_of(id, "endpoints")];
        (f.src, f.dst)
    }

    /// Recompute (if needed) and iterate all `(id, src, dst, rate)` tuples,
    /// in no particular order.
    pub fn rates(&mut self) -> impl Iterator<Item = (FlowId, NodeId, NodeId, f64)> + '_ {
        self.ensure_rates();
        self.flows
            .iter()
            .filter_map(|f| f.id.map(|id| (id, f.src, f.dst, f.rate)))
    }

    /// Force recomputation now (no-op if rates are current).
    pub fn ensure_rates(&mut self) {
        if self.clean {
            return;
        }
        self.recompute();
        self.clean = true;
    }

    /// Progressive filling. O(L·B + F·P) where L = links carrying flows,
    /// B = bottleneck iterations (≤ L), F = flows, P = path length.
    ///
    /// The result does not depend on the order of flows within a link's
    /// list: every flow frozen in one step gets the same `share` and
    /// subtracts that same value from each link it crosses, and the
    /// bottleneck is the first strict minimum in ascending link order.
    fn recompute(&mut self) {
        // Node-local flows keep the infinite rate `add_flow` gave them.
        if self.n_routed == 0 {
            return;
        }
        let FillScratch { residual, unfrozen, frozen, loaded } = &mut *self.scratch;
        residual.clear();
        residual.extend_from_slice(&self.capacities);
        unfrozen.clear();
        unfrozen.extend(self.link_flows.iter().map(|l| l.len() as u32));
        frozen.clear();
        frozen.resize(self.flows.len(), false);
        // Only links carrying ≥ 1 flow can ever be the bottleneck; scan that
        // (usually tiny) ascending subset instead of all links. Ascending
        // order preserves the exact first-strict-minimum selection of the
        // full scan.
        loaded.clear();
        loaded.extend((0..unfrozen.len() as u32).filter(|&l| unfrozen[l as usize] > 0));
        let mut remaining = self.n_routed;
        while remaining > 0 {
            // Find the bottleneck link: the smallest equal share.
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            loaded.retain(|&l| unfrozen[l as usize] > 0);
            for &l in loaded.iter() {
                let l = l as usize;
                let share = residual[l] / unfrozen[l] as f64;
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
            debug_assert!(best_link != usize::MAX, "unfrozen flows but no loaded link");
            let share = best_share.max(0.0);
            // Freeze every unfrozen flow crossing the bottleneck.
            for &slot in &self.link_flows[best_link] {
                let slot = slot as usize;
                if frozen[slot] {
                    continue;
                }
                frozen[slot] = true;
                remaining -= 1;
                let f = &mut self.flows[slot];
                f.rate = share;
                for l in &f.route {
                    let li = l.idx();
                    residual[li] = (residual[li] - share).max(0.0);
                    unfrozen[li] -= 1;
                }
            }
        }
    }

    /// Override the capacity of one link (fault injection: link-rate
    /// degradation windows scale a node's NIC down and back up). Rates are
    /// lazily recomputed on the next query. Panics on unknown link.
    pub fn set_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        assert!(capacity_bps > 0.0, "link capacity must stay positive");
        self.capacities[link.idx()] = capacity_bps;
        self.clean = false;
    }

    /// Current configured capacity of `link` in bytes/second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacities[link.idx()]
    }

    /// Sum of current rates crossing `link` (diagnostics / tests).
    pub fn link_load(&mut self, link: LinkId) -> f64 {
        self.ensure_rates();
        self.flows
            .iter()
            .filter(|f| f.id.is_some() && f.route.contains(&link))
            .map(|f| f.rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    const GB: f64 = 1e9 / 8.0; // 1 Gbps in bytes/sec

    fn star(n: usize) -> (Topology, RoutingTable) {
        let t = Topology::single_rack(n, GB);
        let rt = RoutingTable::new(&t);
        (t, rt)
    }

    #[test]
    fn single_flow_gets_full_path_capacity() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(0), NodeId(1), rt.route(NodeId(0), NodeId(1)));
        assert!((fx.rate(f) - GB).abs() < 1e-6);
    }

    #[test]
    fn local_flow_is_unconstrained() {
        let (t, rt) = star(2);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(0), NodeId(0), rt.route(NodeId(0), NodeId(0)));
        assert!(fx.rate(f).is_infinite());
    }

    #[test]
    fn two_flows_share_a_nic_evenly() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        // Both flows terminate at node 0: its NIC is the bottleneck.
        let f1 = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        let f2 = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        assert!((fx.rate(f1) - GB / 2.0).abs() < 1e-6);
        assert!((fx.rate(f2) - GB / 2.0).abs() < 1e-6);
    }

    #[test]
    fn removal_restores_capacity() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f1 = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        let f2 = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        assert!((fx.rate(f1) - GB / 2.0).abs() < 1e-6);
        fx.remove_flow(f2);
        assert!((fx.rate(f1) - GB).abs() < 1e-6);
        assert_eq!(fx.n_active(), 1);
    }

    #[test]
    fn max_min_is_not_merely_proportional() {
        // Two racks, thin uplink: cross-rack flows bottleneck on the uplink,
        // and the in-rack flow picks up the slack on its NIC — the defining
        // max-min behaviour.
        let t = Topology::multi_rack(2, 2, GB, GB / 2.0);
        let rt = RoutingTable::new(&t);
        let mut fx = FlowNetwork::new(&t);
        // Cross-rack: node2 -> node0 (shares node0's NIC with f_local).
        let f_cross = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        // In-rack: node1 -> node0.
        let f_local = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        // Uplink capacity GB/2 carries only f_cross -> f_cross = GB/2;
        // node0 NIC splits GB between both, equal share GB/2 each, so NIC is
        // not the binding constraint and f_local takes GB - GB/2 = GB/2...
        // with equal split both get GB/2: check uplink share first.
        let rc = fx.rate(f_cross);
        let rl = fx.rate(f_local);
        assert!((rc + rl - GB).abs() < 1e-6, "dst NIC saturated");
        assert!(rc <= GB / 2.0 + 1e-6, "cross-rack flow capped by uplink");
        assert!(rl >= rc - 1e-6, "in-rack flow never below cross-rack flow");
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // 3 flows into node0, one flow between node1 and node2. The NIC of
        // node0 is shared 3 ways; the 1<->2 flow only shares the switch, so
        // it gets its full NIC rate.
        let (t, rt) = star(4);
        let mut fx = FlowNetwork::new(&t);
        let into0: Vec<_> = (1..4)
            .map(|s| fx.add_flow(NodeId(s), NodeId(0), rt.route(NodeId(s), NodeId(0))))
            .collect();
        for f in &into0 {
            assert!((fx.rate(*f) - GB / 3.0).abs() < 1e-5);
        }
        // Node 3 -> node 2: node3's NIC carries the into0 flow (GB/3) plus
        // this one; max-min gives it the residual 2/3 GB.
        let side = fx.add_flow(NodeId(3), NodeId(2), rt.route(NodeId(3), NodeId(2)));
        let r = fx.rate(side);
        assert!((r - 2.0 * GB / 3.0).abs() < 1e-5, "got {r}");
    }

    #[test]
    fn rates_iterator_reports_all_flows() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        let v: Vec<_> = fx.rates().collect();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|(_, _, dst, r)| *dst == NodeId(0) && *r > 0.0));
    }

    #[test]
    fn link_load_never_exceeds_capacity() {
        let (t, rt) = star(5);
        let mut fx = FlowNetwork::new(&t);
        for s in 1..5 {
            fx.add_flow(NodeId(s), NodeId(0), rt.route(NodeId(s), NodeId(0)));
            fx.add_flow(NodeId(0), NodeId(s), rt.route(NodeId(0), NodeId(s)));
        }
        for (i, l) in t.links().iter().enumerate() {
            let load = fx.link_load(LinkId(i as u32));
            assert!(load <= l.capacity_bps + 1e-6, "link {i} overloaded: {load}");
        }
    }

    #[test]
    fn degrading_a_link_rescales_active_flows() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        assert!((fx.rate(f) - GB).abs() < 1e-6);
        // Node 0's NIC is the first link in a single-rack topology's
        // incident list; find it through the topology rather than guessing.
        let nic = t.incident(crate::topology::Vertex::Node(NodeId(0)))[0].0;
        fx.set_capacity(nic, GB / 10.0);
        assert!((fx.rate(f) - GB / 10.0).abs() < 1e-6, "flow follows the degraded link");
        fx.set_capacity(nic, GB);
        assert!((fx.rate(f) - GB).abs() < 1e-6, "restore brings the rate back");
        assert!((fx.capacity(nic) - GB).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown flow id")]
    fn removing_unknown_flow_panics() {
        let (t, _) = star(2);
        let mut fx = FlowNetwork::new(&t);
        fx.remove_flow(FlowId(42));
    }
}
