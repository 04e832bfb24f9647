//! Bridge detection (Tarjan low-link), in the undirected sense.
//!
//! A bridge is a single link whose removal disconnects its endpoints — the
//! `k = 1` bottleneck case of the paper (Fig. 2). Parallel edges are handled
//! correctly (two parallel links are never bridges): the DFS excludes only the
//! specific tree edge used to reach a node, not every edge to its parent.
//!
//! [`BridgeSearch`] is the reusable form: it builds the undirected adjacency
//! once and runs any number of passes over it, each with its own set of
//! masked-out links, on scratch buffers kept between passes. The bottleneck
//! search runs one pass per candidate prefix.

use crate::adjacency::Adjacency;
use crate::ids::{EdgeId, NodeId};
use crate::network::Network;

/// A reusable Tarjan bridge pass over one network (undirected sense).
///
/// A pass ([`BridgeSearch::run`]) starts a DFS at a root, skipping the links
/// the caller masks out, and records every bridge of the root's component
/// together with the endpoint farther from the root. The DFS numbering is
/// kept, so [`BridgeSearch::in_subtree`] answers "does `v` lie below this
/// bridge" in O(1): removing the bridge `(e, below)` splits the component
/// into the DFS subtree of `below` and everything else.
#[derive(Clone, Debug)]
pub struct BridgeSearch {
    adj: Adjacency,
    /// Discovery time + 1 (0 = not visited in this pass).
    disc: Vec<u32>,
    low: Vec<u32>,
    /// Largest discovery time in the node's DFS subtree.
    last: Vec<u32>,
    /// Iterative DFS frames: (node, incoming tree edge, next child index).
    stack: Vec<(NodeId, Option<EdgeId>, usize)>,
    bridges: Vec<(EdgeId, NodeId)>,
    time: u32,
}

impl BridgeSearch {
    /// Builds the undirected adjacency of `net` and empty scratch buffers.
    pub fn new(net: &Network) -> Self {
        let n = net.node_count();
        BridgeSearch {
            adj: Adjacency::undirected(net),
            disc: vec![0; n],
            low: vec![0; n],
            last: vec![0; n],
            stack: Vec::new(),
            bridges: Vec::new(),
            time: 1,
        }
    }

    /// Forgets every earlier pass: no node is visited, no bridge recorded.
    pub fn clear(&mut self) {
        self.disc.fill(0);
        self.bridges.clear();
        self.time = 1;
    }

    /// One pass from `root` over the links for which `removed` is false:
    /// clears the previous pass, then explores `root`'s component.
    pub fn run(&mut self, root: NodeId, removed: impl Fn(EdgeId) -> bool) {
        self.clear();
        self.explore(root, removed);
    }

    /// Explores `root`'s component (skipping `removed` links) without
    /// clearing earlier passes, so several roots can cover a whole graph.
    /// Does nothing when `root` was already visited.
    pub fn explore(&mut self, root: NodeId, removed: impl Fn(EdgeId) -> bool) {
        if self.disc[root.index()] != 0 {
            return;
        }
        self.discover(root);
        self.stack.push((root, None, 0));
        while let Some(&mut (u, via, ref mut idx)) = self.stack.last_mut() {
            let edges = self.adj.out_edges(u);
            if *idx < edges.len() {
                let (e, v) = edges[*idx];
                *idx += 1;
                if Some(e) == via || removed(e) {
                    continue; // don't reuse the tree edge we arrived on
                }
                if self.disc[v.index()] == 0 {
                    self.discover(v);
                    self.stack.push((v, Some(e), 0));
                } else {
                    self.low[u.index()] = self.low[u.index()].min(self.disc[v.index()]);
                }
            } else {
                self.stack.pop();
                self.last[u.index()] = self.time - 1;
                if let Some(&mut (parent, _, _)) = self.stack.last_mut() {
                    self.low[parent.index()] = self.low[parent.index()].min(self.low[u.index()]);
                    if self.low[u.index()] > self.disc[parent.index()] {
                        // the tree edge into u is a bridge
                        if let Some(e) = via {
                            self.bridges.push((e, u));
                        }
                    }
                }
            }
        }
    }

    fn discover(&mut self, v: NodeId) {
        self.disc[v.index()] = self.time;
        self.low[v.index()] = self.time;
        self.time += 1;
    }

    /// Number of nodes visited since the last clear.
    pub fn reached(&self) -> usize {
        (self.time - 1) as usize
    }

    /// Whether `v` was visited since the last clear.
    pub fn visited(&self, v: NodeId) -> bool {
        self.disc[v.index()] != 0
    }

    /// Bridges found since the last clear, as `(bridge, endpoint farther
    /// from the root)`, in DFS finishing order.
    pub fn bridges(&self) -> &[(EdgeId, NodeId)] {
        &self.bridges
    }

    /// Whether `v` lies in the DFS subtree of `top` (both visited in the
    /// current pass). For a bridge `(e, below)` this is "`v` is cut off
    /// from the root when `e` is removed".
    pub fn in_subtree(&self, top: NodeId, v: NodeId) -> bool {
        let (d, first) = (self.disc[v.index()], self.disc[top.index()]);
        d != 0 && first <= d && d <= self.last[top.index()]
    }
}

/// Returns the bridges of `net` (undirected sense), in increasing edge order.
pub fn find_bridges(net: &Network) -> Vec<EdgeId> {
    let mut search = BridgeSearch::new(net);
    for root in 0..net.node_count() {
        search.explore(NodeId::from(root), |_| false);
    }
    let mut bridges: Vec<EdgeId> = search.bridges().iter().map(|&(e, _)| e).collect();
    bridges.sort_unstable();
    bridges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{GraphKind, NetworkBuilder};
    use proptest::prelude::*;

    fn build(n: usize, edges: &[(usize, usize)]) -> Network {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let ns = b.add_nodes(n);
        for &(u, v) in edges {
            b.add_edge(ns[u], ns[v], 1, 0.1).unwrap();
        }
        b.build()
    }

    #[test]
    fn path_all_bridges() {
        let net = build(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(find_bridges(&net), vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let net = build(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(find_bridges(&net).is_empty());
    }

    #[test]
    fn two_triangles_one_bridge() {
        let net = build(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert_eq!(find_bridges(&net), vec![EdgeId(6)]);
    }

    #[test]
    fn parallel_edges_are_not_bridges() {
        let net = build(2, &[(0, 1), (0, 1)]);
        assert!(find_bridges(&net).is_empty());
        let net = build(2, &[(0, 1)]);
        assert_eq!(find_bridges(&net), vec![EdgeId(0)]);
    }

    #[test]
    fn disconnected_graph_handled() {
        let net = build(4, &[(0, 1), (2, 3)]);
        assert_eq!(find_bridges(&net), vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn self_loop_is_not_a_bridge() {
        let net = build(2, &[(0, 0), (0, 1)]);
        assert_eq!(find_bridges(&net), vec![EdgeId(1)]);
    }

    #[test]
    fn masked_pass_sees_the_graph_without_the_masked_links() {
        // cycle 0-1-2-3-0 plus a pendant 3-4: masking link 0 (0-1) turns the
        // rest of the cycle into a path of bridges
        let net = build(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
        let mut search = BridgeSearch::new(&net);
        search.run(NodeId(0), |_| false);
        assert_eq!(search.reached(), 5);
        assert_eq!(search.bridges(), &[(EdgeId(4), NodeId(4))]);
        search.run(NodeId(0), |e| e == EdgeId(0));
        let mut found: Vec<EdgeId> = search.bridges().iter().map(|&(e, _)| e).collect();
        found.sort_unstable();
        assert_eq!(found, vec![EdgeId(1), EdgeId(2), EdgeId(3), EdgeId(4)]);
        // removing bridge 2 (2-3) cuts {1, 2} off from the root 0
        let below = search
            .bridges()
            .iter()
            .find(|&&(e, _)| e == EdgeId(2))
            .map(|&(_, v)| v)
            .unwrap();
        assert!(search.in_subtree(below, NodeId(1)));
        assert!(!search.in_subtree(below, NodeId(4)));
        assert!(!search.in_subtree(below, NodeId(0)));
        // a pass rooted inside a component never reaches the other one
        search.run(NodeId(4), |e| e == EdgeId(4));
        assert_eq!(search.reached(), 1);
        assert!(!search.visited(NodeId(0)));
    }

    /// Brute-force oracle: e is a bridge iff removing it disconnects its
    /// endpoints.
    fn bridges_brute(net: &Network) -> Vec<EdgeId> {
        use crate::bitset::BitSet;
        use crate::traverse::is_connected_st;
        let m = net.edge_count();
        let mut out = Vec::new();
        for (id, e) in net.edge_refs() {
            if e.src == e.dst {
                continue;
            }
            let mut alive = BitSet::full(m);
            alive.remove(id.index());
            if !is_connected_st(net, e.src, e.dst, Some(&alive)) {
                out.push(id);
            }
        }
        out
    }

    proptest! {
        #[test]
        fn prop_matches_bruteforce(
            n in 2usize..9,
            raw_edges in proptest::collection::vec((0usize..8, 0usize..8), 1..16),
        ) {
            let edges: Vec<(usize, usize)> =
                raw_edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            let net = build(n, &edges);
            prop_assert_eq!(find_bridges(&net), bridges_brute(&net));
        }
    }
}
