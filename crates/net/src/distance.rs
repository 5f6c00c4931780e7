//! The hop distance matrix `H` of the paper (§II-B1).
//!
//! `h_ab` is the number of hops (links) on the shortest path between data
//! nodes `D_a` and `D_b`. It can be computed from a [`Topology`] by BFS, or
//! supplied verbatim — the paper's Figure 2 worked example gives `H`
//! directly, and §II-B3 replaces hop counts with inverse transmission rates
//! while keeping the same matrix shape.

use crate::cost::PathCost;
use crate::topology::{NodeId, Topology, Vertex};
use std::collections::VecDeque;

/// A dense symmetric matrix of node-to-node path costs.
///
/// Entries are `f64` so the same type serves hop counts and the
/// inverse-rate variant of §II-B3. Diagonal entries are always 0.
///
/// The matrix carries a [`PathCost::version`] revision tag so schedulers
/// can cache values derived from it; `set` bumps the tag automatically and
/// runtimes that rebuild the matrix wholesale stamp it via `set_version`.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    entries: Vec<f64>,
    version: u64,
}

/// Value equality ignores the `version` cache tag.
impl PartialEq for DistanceMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.entries == other.entries
    }
}

impl DistanceMatrix {
    /// Build from explicit row-major entries. Panics if `entries` is not
    /// `n × n`, any diagonal entry is non-zero, or any entry is negative.
    pub fn from_rows(n: usize, entries: Vec<f64>) -> Self {
        assert_eq!(entries.len(), n * n, "distance matrix must be n×n");
        for i in 0..n {
            assert_eq!(entries[i * n + i], 0.0, "diagonal must be zero");
            for j in 0..n {
                assert!(entries[i * n + j] >= 0.0, "distances must be non-negative");
            }
        }
        Self { n, entries, version: 0 }
    }

    /// An all-zero matrix (every node equidistant at 0); mostly for tests.
    pub fn zero(n: usize) -> Self {
        Self { n, entries: vec![0.0; n * n], version: 0 }
    }

    /// Hop counts computed from `topo` by BFS from every node.
    ///
    /// Unreachable pairs get `f64::INFINITY`. Each link crossed counts as
    /// one hop, so two nodes under the same switch are 2 hops apart, nodes
    /// under different ToR switches of a common core are 4 hops apart, etc.
    pub fn hops(topo: &Topology) -> Self {
        let n = topo.n_nodes();
        let n_vertices = n + topo.n_switches();
        let mut entries = vec![f64::INFINITY; n * n];
        let mut dist = vec![u32::MAX; n_vertices];
        let mut queue = VecDeque::new();
        for src in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            queue.clear();
            let src_v = Vertex::Node(NodeId(src as u32));
            dist[src] = 0;
            queue.push_back(src_v);
            while let Some(v) = queue.pop_front() {
                let vi = match v {
                    Vertex::Node(nd) => nd.idx(),
                    Vertex::Switch(s) => n + s.0 as usize,
                };
                let d = dist[vi];
                for &(_, next) in topo.incident(v) {
                    let ni = match next {
                        Vertex::Node(nd) => nd.idx(),
                        Vertex::Switch(s) => n + s.0 as usize,
                    };
                    if dist[ni] == u32::MAX {
                        dist[ni] = d + 1;
                        queue.push_back(next);
                    }
                }
            }
            for dst in 0..n {
                if dist[dst] != u32::MAX {
                    entries[src * n + dst] = dist[dst] as f64;
                }
            }
        }
        Self { n, entries, version: 0 }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current revision tag (see [`PathCost::version`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp the revision tag (used by runtimes that rebuild the matrix
    /// per refresh and need downstream caches to notice).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Distance between `a` and `b`.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> f64 {
        self.entries[a.idx() * self.n + b.idx()]
    }

    /// Mutable entry access, e.g. to overwrite hop counts with inverse
    /// rates per §II-B3. Bumps the revision tag.
    pub fn set(&mut self, a: NodeId, b: NodeId, v: f64) {
        assert!(v >= 0.0);
        self.entries[a.idx() * self.n + b.idx()] = v;
        self.version += 1;
    }

    /// The matrix from the paper's Figure 2 worked example (4 nodes).
    ///
    /// The text pins down row `D_3`: distances to `D_1..D_4` are
    /// `[2, 10, 0, 6]`, and the map/reduce example uses `h(D_1,D_2)=4` and
    /// `h(D_2,D_3)=10` (cost of `M_2@D_2 → R_1@D_1` is `20·4`, and
    /// `M_2@D_2 → R_2@D_3` is `10·10`). We complete the symmetric matrix
    /// with `h(D_1,D_4)=8`, `h(D_2,D_4)=12` — unused by the example.
    pub fn paper_figure2() -> Self {
        #[rustfmt::skip]
        let rows = vec![
            0.0,  4.0,  2.0,  8.0,
            4.0,  0.0, 10.0, 12.0,
            2.0, 10.0,  0.0,  6.0,
            8.0, 12.0,  6.0,  0.0,
        ];
        Self::from_rows(4, rows)
    }

    /// Whether the matrix is symmetric (it is for hop counts; measured-rate
    /// matrices may not be).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.entries[i * self.n + j] != self.entries[j * self.n + i] {
                    return false;
                }
            }
        }
        true
    }
}

impl PathCost for DistanceMatrix {
    #[inline]
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        self.get(a, b)
    }

    fn n_nodes(&self) -> usize {
        self.n
    }

    fn version(&self) -> u64 {
        self.version
    }

    /// Reads `a`'s row as one slice: no per-pair index arithmetic or
    /// dynamic dispatch.
    fn add_costs_from(&self, a: NodeId, to: &[NodeId], scale: f64, acc: &mut [f64]) {
        debug_assert_eq!(to.len(), acc.len());
        let row = &self.entries[a.idx() * self.n..(a.idx() + 1) * self.n];
        for (slot, &b) in acc.iter_mut().zip(to) {
            *slot += scale * row[b.idx()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9 / 8.0;

    #[test]
    fn single_rack_hops_are_two() {
        let t = Topology::single_rack(4, GB);
        let h = DistanceMatrix::hops(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                let expect = if a == b { 0.0 } else { 2.0 };
                assert_eq!(h.get(a, b), expect, "{a}->{b}");
            }
        }
    }

    #[test]
    fn multi_rack_hop_ladder() {
        let t = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&t);
        // same node / same rack / cross rack = 0 / 2 / 4
        assert_eq!(h.get(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(h.get(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(h.get(NodeId(0), NodeId(2)), 4.0);
        assert!(h.is_symmetric());
    }

    #[test]
    fn isolated_nodes_are_unreachable() {
        let t = Topology::isolated(2);
        let h = DistanceMatrix::hops(&t);
        assert_eq!(h.get(NodeId(0), NodeId(0)), 0.0);
        assert!(h.get(NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    fn paper_matrix_matches_text() {
        let h = DistanceMatrix::paper_figure2();
        // Row D3 (index 2) from the text: 2, 10, 0, 6.
        assert_eq!(h.get(NodeId(2), NodeId(0)), 2.0);
        assert_eq!(h.get(NodeId(2), NodeId(1)), 10.0);
        assert_eq!(h.get(NodeId(2), NodeId(2)), 0.0);
        assert_eq!(h.get(NodeId(2), NodeId(3)), 6.0);
        // Distances used by the reduce example.
        assert_eq!(h.get(NodeId(1), NodeId(0)), 4.0);
        assert_eq!(h.get(NodeId(1), NodeId(2)), 10.0);
        assert!(h.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn nonzero_diagonal_rejected() {
        DistanceMatrix::from_rows(2, vec![1.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be n×n")]
    fn wrong_shape_rejected() {
        DistanceMatrix::from_rows(2, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn set_overrides_entry() {
        let mut h = DistanceMatrix::zero(2);
        h.set(NodeId(0), NodeId(1), 7.5);
        assert_eq!(h.get(NodeId(0), NodeId(1)), 7.5);
        assert_eq!(h.get(NodeId(1), NodeId(0)), 0.0, "set is directional");
    }

    #[test]
    fn path_cost_impl_delegates() {
        let h = DistanceMatrix::paper_figure2();
        assert_eq!(PathCost::path_cost(&h, NodeId(2), NodeId(1)), 10.0);
        assert_eq!(PathCost::n_nodes(&h), 4);
    }

    #[test]
    fn version_tracks_mutation_but_not_equality() {
        let mut h = DistanceMatrix::paper_figure2();
        let pristine = DistanceMatrix::paper_figure2();
        assert_eq!(PathCost::version(&h), 0);
        h.set(NodeId(0), NodeId(1), 4.0); // same value, still a mutation
        assert_eq!(PathCost::version(&h), 1);
        assert_eq!(h, pristine, "version is a cache tag, not part of value identity");
        h.set_version(42);
        assert_eq!(h.version(), 42);
    }
}
