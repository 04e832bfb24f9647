//! α-bottleneck link sets (Section III-A): discovery and validation.
//!
//! A link set `E* ⊆ E` is a set of α-bottleneck links w.r.t. `s` and `t` when
//! (1) removing `E*` disconnects `s` from `t` but removing any proper subset
//! does not (minimality), (2) `|E*|` is a small constant, and (3) each of the
//! two connected components left by the removal has at most `α|E|` links.
//! Connectivity is taken in the undirected sense, matching the paper's use of
//! "connected components".

use netgraph::{connected_components, BridgeSearch, EdgeId, Network, NodeId};

use crate::error::ReliabilityError;

/// A validated bottleneck link set together with its decomposition geometry.
#[derive(Clone, Debug)]
pub struct BottleneckSet {
    /// The bottleneck links `E* = {e_1, …, e_k}`, in increasing id order.
    pub edges: Vec<EdgeId>,
    /// Nodes of the component containing the source, sorted.
    pub side_s_nodes: Vec<NodeId>,
    /// Nodes of the component containing the sink, sorted.
    pub side_t_nodes: Vec<NodeId>,
    /// Links inside the source-side component.
    pub side_s_edges: usize,
    /// Links inside the sink-side component.
    pub side_t_edges: usize,
    /// For each bottleneck link (in `edges` order): true when its `src`
    /// endpoint lies on the source side (the link is oriented s-side →
    /// t-side). Relevant for directed networks.
    pub forward_oriented: Vec<bool>,
}

impl BottleneckSet {
    /// Number of bottleneck links `k`.
    pub fn k(&self) -> usize {
        self.edges.len()
    }

    /// The balance factor `α`: the larger side's share of all links,
    /// `max(|E_s|, |E_t|) / |E|`.
    pub fn alpha(&self, total_edges: usize) -> f64 {
        if total_edges == 0 {
            return 0.0;
        }
        self.side_s_edges.max(self.side_t_edges) as f64 / total_edges as f64
    }

    /// Total capacity of the bottleneck links (if `< d`, reliability is 0).
    pub fn capacity(&self, net: &Network) -> u64 {
        self.edges.iter().map(|&e| net.edge(e).capacity).sum()
    }
}

/// Validates that `edges` is a bottleneck link set for `(s, t)` and computes
/// its decomposition geometry.
pub fn validate_bottleneck_set(
    net: &Network,
    s: NodeId,
    t: NodeId,
    edges: &[EdgeId],
) -> Result<BottleneckSet, ReliabilityError> {
    net.check_node(s)?;
    net.check_node(t)?;
    for &e in edges {
        if e.index() >= net.edge_count() {
            return Err(netgraph::GraphError::EdgeOutOfRange {
                edge: e,
                edge_count: net.edge_count(),
            }
            .into());
        }
    }
    let mut edges: Vec<EdgeId> = edges.to_vec();
    edges.sort_unstable();
    edges.dedup();

    let comps = connected_components(net, |e| edges.iter().any(|r| r.index() == e));
    if comps.same(s, t) {
        return Err(ReliabilityError::NotSeparating);
    }
    if comps.count() != 2 {
        return Err(ReliabilityError::NotTwoComponents {
            components: comps.count(),
        });
    }
    // minimality: with exactly two components, one holding s and the other
    // t, dropping link e_i from the set reconnects s and t exactly when e_i
    // crosses between the components; a link that stays inside one side (or
    // a self-loop) makes the rest of the set a separating witness
    let crosses = |e: EdgeId| {
        let l = net.edge(e);
        !comps.same(l.src, l.dst)
    };
    if let Some(skip) = edges.iter().position(|&e| !crosses(e)) {
        let mut witness = edges.clone();
        witness.remove(skip);
        return Err(ReliabilityError::NotMinimal { witness });
    }
    let s_label = comps.label(s);
    let t_label = comps.label(t);
    let side_s_nodes = comps.members(s_label);
    let side_t_nodes = comps.members(t_label);
    let mut side_s_edges = 0;
    let mut side_t_edges = 0;
    for (id, e) in net.edge_refs() {
        if edges.contains(&id) {
            continue;
        }
        if comps.label(e.src) == s_label && comps.label(e.dst) == s_label {
            side_s_edges += 1;
        } else {
            debug_assert!(
                comps.label(e.src) == t_label && comps.label(e.dst) == t_label,
                "non-bottleneck link must lie within one side"
            );
            side_t_edges += 1;
        }
    }
    let forward_oriented = edges
        .iter()
        .map(|&e| comps.label(net.edge(e).src) == s_label)
        .collect();
    Ok(BottleneckSet {
        edges,
        side_s_nodes,
        side_t_nodes,
        side_s_edges,
        side_t_edges,
        forward_oriented,
    })
}

/// Searches for the most balanced bottleneck set with at most `max_k` links:
/// minimizes `max(|E_s|, |E_t|)`, breaking ties toward smaller `k`.
///
/// The search is bridge-pruned (see [`find_all_bottleneck_sets`]): one
/// linear Tarjan pass per `(k−1)`-link prefix instead of a component
/// labelling per `k`-link candidate.
pub fn find_bottleneck_set(
    net: &Network,
    s: NodeId,
    t: NodeId,
    max_k: usize,
) -> Result<BottleneckSet, ReliabilityError> {
    let mut best: Option<BottleneckSet> = None;
    for_each_bottleneck_set(net, s, t, max_k, |cand| {
        let score = cand.side_s_edges.max(cand.side_t_edges);
        let better = match &best {
            None => true,
            Some(b) => {
                let bs = b.side_s_edges.max(b.side_t_edges);
                score < bs || (score == bs && cand.k() < b.k())
            }
        };
        if better {
            best = Some(cand);
        }
    })?;
    best.ok_or(ReliabilityError::NoBottleneckFound)
}

/// Enumerates *every* bottleneck set with at most `max_k` links (same search
/// as [`find_bottleneck_set`], collecting instead of keeping the best). For
/// analysis tooling; the count can grow quickly with `max_k`.
///
/// Sets come out by size, then in lexicographic order of their sorted link
/// ids — the order of an exhaustive scan over all link combinations, which
/// the tests keep as the oracle. Sets of size 1 (separating bridges) are
/// always reported, even for `max_k = 0`.
///
/// **Search.** For each prefix `P` of `k − 1` links (lexicographic), one
/// Tarjan pass rooted at `s` runs on `G − P`. If `P ∪ {e}` is a bottleneck
/// set, `P` alone does not separate `s` from `t` (minimality) but `P ∪ {e}`
/// does, so `e` is a bridge of `G − P` with `t` below it — and `e` has a
/// larger id than every link of `P`. Only those bridges are candidates, so
/// no set is lost. A candidate is a bottleneck set exactly when `G − P − e`
/// has two components (here: `G − P` is connected, which the pass tells by
/// the number of nodes it reached), `s` and `t` lie on different sides
/// (`t` below `e`), and every link of `P` crosses between the sides (one
/// endpoint below `e`, one not) — together the separating, two-component
/// and minimality conditions of [`validate_bottleneck_set`], which then runs
/// only for accepted sets, to build their geometry.
pub fn find_all_bottleneck_sets(
    net: &Network,
    s: NodeId,
    t: NodeId,
    max_k: usize,
) -> Result<Vec<BottleneckSet>, ReliabilityError> {
    let mut out = Vec::new();
    for_each_bottleneck_set(net, s, t, max_k, |set| out.push(set))?;
    Ok(out)
}

fn for_each_bottleneck_set(
    net: &Network,
    s: NodeId,
    t: NodeId,
    max_k: usize,
    mut consider: impl FnMut(BottleneckSet),
) -> Result<(), ReliabilityError> {
    net.check_node(s)?;
    net.check_node(t)?;
    // Multi-state links never join a cut in v1: the decomposition engines
    // condition on a cut link being up or down, which has no meaning for a
    // link with more than two capacity states. Candidacy is restricted to
    // binary links; the sides may still contain multi-state links (the
    // planner sweeps such sides whole).
    let eligible = |e: EdgeId| -> bool { net.spectrum(e).is_none() };
    let pool: Vec<EdgeId> = (0..net.edge_count())
        .map(EdgeId::from)
        .filter(|&e| eligible(e))
        .collect();
    let m = pool.len();
    let n = net.node_count();
    let mut search = BridgeSearch::new(net);
    let mut removed = vec![false; net.edge_count()];
    let mut prefix: Vec<usize> = Vec::new();
    let mut found: Vec<EdgeId> = Vec::new();
    let mut set: Vec<EdgeId> = Vec::new();
    for k in 1..=max_k.min(m).max(1) {
        // prefixes: (k−1)-combinations of pool indices, leaving room for a
        // larger last link
        prefix.clear();
        prefix.extend(0..k - 1);
        loop {
            for &i in &prefix {
                removed[pool[i].index()] = true;
            }
            search.run(s, |e| removed[e.index()]);
            for &i in &prefix {
                removed[pool[i].index()] = false;
            }
            if search.reached() == n {
                let floor = prefix.last().map(|&i| pool[i]);
                found.clear();
                found.extend(search.bridges().iter().filter_map(|&(e, below)| {
                    let accept = eligible(e)
                        && floor.is_none_or(|f| e > f)
                        && search.in_subtree(below, t)
                        && prefix.iter().all(|&i| {
                            let l = net.edge(pool[i]);
                            search.in_subtree(below, l.src) != search.in_subtree(below, l.dst)
                        });
                    accept.then_some(e)
                }));
                found.sort_unstable();
                for &e in &found {
                    set.clear();
                    set.extend(prefix.iter().map(|&i| pool[i]));
                    set.push(e);
                    if let Ok(b) = validate_bottleneck_set(net, s, t, &set) {
                        consider(b);
                    }
                }
            }
            if !next_combination(&mut prefix, m.saturating_sub(1)) {
                break;
            }
        }
    }
    Ok(())
}

/// Advances `combo` (strictly increasing indices in `0..items`) to the next
/// combination in lexicographic order; false when it was the last one.
fn next_combination(combo: &mut [usize], items: usize) -> bool {
    let k = combo.len();
    for i in (0..k).rev() {
        if combo[i] != i + items - k {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    /// Two triangles joined by a bridge (Fig. 2 shape).
    fn bridge_graph() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[1], n[2], 2, 0.1).unwrap();
        b.add_edge(n[2], n[0], 2, 0.1).unwrap();
        b.add_edge(n[2], n[3], 4, 0.1).unwrap(); // bridge e3
        b.add_edge(n[3], n[4], 2, 0.1).unwrap();
        b.add_edge(n[4], n[5], 2, 0.1).unwrap();
        b.add_edge(n[5], n[3], 2, 0.1).unwrap();
        (b.build(), n[0], n[5])
    }

    /// Two diamonds joined by two links (k = 2 bottleneck).
    fn two_link_graph() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap(); // 0: s->a
        b.add_edge(n[0], n[2], 2, 0.1).unwrap(); // 1: s->b
        b.add_edge(n[1], n[3], 2, 0.1).unwrap(); // 2: bottleneck a->c
        b.add_edge(n[2], n[4], 2, 0.1).unwrap(); // 3: bottleneck b->d
        b.add_edge(n[3], n[5], 2, 0.1).unwrap(); // 4: c->t
        b.add_edge(n[4], n[5], 2, 0.1).unwrap(); // 5: d->t
        (b.build(), n[0], n[5])
    }

    #[test]
    fn validates_bridge() {
        let (net, s, t) = bridge_graph();
        let set = validate_bottleneck_set(&net, s, t, &[EdgeId(3)]).unwrap();
        assert_eq!(set.k(), 1);
        assert_eq!(set.side_s_edges, 3);
        assert_eq!(set.side_t_edges, 3);
        assert!((set.alpha(7) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(set.capacity(&net), 4);
        assert_eq!(set.forward_oriented, vec![true]);
        assert_eq!(set.side_s_nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(set.side_t_nodes, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn rejects_non_separating() {
        let (net, s, t) = bridge_graph();
        assert_eq!(
            validate_bottleneck_set(&net, s, t, &[EdgeId(0)]).unwrap_err(),
            ReliabilityError::NotSeparating
        );
    }

    #[test]
    fn rejects_non_minimal() {
        let (net, s, t) = bridge_graph();
        let err = validate_bottleneck_set(&net, s, t, &[EdgeId(0), EdgeId(3)]).unwrap_err();
        match err {
            ReliabilityError::NotMinimal { witness } => assert_eq!(witness, vec![EdgeId(3)]),
            other => panic!("expected NotMinimal, got {other:?}"),
        }
    }

    #[test]
    fn rejects_three_components() {
        // path s - a - t: removing both path edges isolates a
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        let net = b.build();
        let err = validate_bottleneck_set(&net, n[0], n[2], &[EdgeId(0), EdgeId(1)]).unwrap_err();
        // the set is also non-minimal, but the component count is checked
        // first: the isolated middle node makes three components
        assert_eq!(err, ReliabilityError::NotTwoComponents { components: 3 });
    }

    #[test]
    fn validates_two_link_cut() {
        let (net, s, t) = two_link_graph();
        let set = validate_bottleneck_set(&net, s, t, &[EdgeId(2), EdgeId(3)]).unwrap();
        assert_eq!(set.k(), 2);
        assert_eq!(set.side_s_edges, 2);
        assert_eq!(set.side_t_edges, 2);
        assert_eq!(set.forward_oriented, vec![true, true]);
    }

    #[test]
    fn finds_bridge_automatically() {
        let (net, s, t) = bridge_graph();
        let set = find_bottleneck_set(&net, s, t, 3).unwrap();
        assert_eq!(set.edges, vec![EdgeId(3)]);
    }

    #[test]
    fn finds_two_link_cut_automatically() {
        let (net, s, t) = two_link_graph();
        let set = find_bottleneck_set(&net, s, t, 3).unwrap();
        // several minimal 2-cuts achieve perfectly balanced 2+2 sides (e.g.
        // {2,3}, but also "diagonal" cuts like {0,5}); any of them is optimal
        assert_eq!(set.k(), 2);
        assert_eq!(set.side_s_edges.max(set.side_t_edges), 2);
        // and the returned set must itself validate
        validate_bottleneck_set(&net, s, t, &set.edges).unwrap();
    }

    #[test]
    fn find_all_enumerates_every_cut() {
        let (net, s, t) = two_link_graph();
        let all = find_all_bottleneck_sets(&net, s, t, 2).unwrap();
        // exactly the minimal 2-cuts of the double diamond (no bridges)
        let mut cuts: Vec<Vec<EdgeId>> = all.iter().map(|b| b.edges.clone()).collect();
        cuts.sort();
        assert!(cuts.contains(&vec![EdgeId(0), EdgeId(1)]));
        assert!(cuts.contains(&vec![EdgeId(2), EdgeId(3)]));
        assert!(cuts.contains(&vec![EdgeId(4), EdgeId(5)]));
        // every reported set validates independently
        for set in &all {
            validate_bottleneck_set(&net, s, t, &set.edges).unwrap();
        }
    }

    #[test]
    fn find_all_includes_bridges() {
        let (net, s, t) = bridge_graph();
        let all = find_all_bottleneck_sets(&net, s, t, 1).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].edges, vec![EdgeId(3)]);
    }

    #[test]
    fn no_bottleneck_in_dense_graph() {
        // complete graph on 4 nodes: 2-edge-connected everywhere, no cut of
        // size <= 2 leaves exactly two components... actually K4 has 3-cuts
        // only; with max_k = 2 nothing is found
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(4);
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(n[i], n[j], 1, 0.1).unwrap();
            }
        }
        let net = b.build();
        assert_eq!(
            find_bottleneck_set(&net, n[0], n[3], 2).unwrap_err(),
            ReliabilityError::NoBottleneckFound
        );
    }

    #[test]
    fn multistate_links_are_not_cut_candidates() {
        // the bridge graph, but with the bridge carrying a capacity spectrum:
        // no reported set may contain the multi-state link, even though the
        // bridge alone would be the best-balanced cut
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[1], n[2], 2, 0.1).unwrap();
        b.add_edge(n[2], n[0], 2, 0.1).unwrap();
        b.add_spectrum_edge(n[2], n[3], &[(0, 0.1), (2, 0.4), (4, 0.5)])
            .unwrap();
        b.add_edge(n[3], n[4], 2, 0.1).unwrap();
        b.add_edge(n[4], n[5], 2, 0.1).unwrap();
        b.add_edge(n[5], n[3], 2, 0.1).unwrap();
        let net = b.build();
        let all = find_all_bottleneck_sets(&net, n[0], n[5], 3).unwrap();
        assert!(!all.is_empty(), "binary 2-cuts around the triangles exist");
        for set in &all {
            assert!(
                !set.edges.contains(&EdgeId(3)),
                "multi-state bridge must never be a candidate: {:?}",
                set.edges
            );
        }
        // binary cuts elsewhere are still found when they exist
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(4);
        b.add_spectrum_edge(n[0], n[1], &[(0, 0.2), (1, 0.3), (2, 0.5)])
            .unwrap();
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 3, 0.1).unwrap(); // binary bridge
        b.add_edge(n[2], n[3], 1, 0.1).unwrap();
        b.add_edge(n[2], n[3], 1, 0.2).unwrap();
        let net = b.build();
        let set = find_bottleneck_set(&net, n[0], n[3], 2).unwrap();
        assert_eq!(set.edges, vec![EdgeId(2)]);
    }

    #[test]
    fn backward_oriented_edge_detected() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap(); // s -> a
        b.add_edge(n[1], n[2], 2, 0.1).unwrap(); // bottleneck a -> b (forward)
        b.add_edge(n[3], n[1], 2, 0.1).unwrap(); // bottleneck c -> a (backward!)
        b.add_edge(n[2], n[3], 2, 0.1).unwrap(); // b -> c
                                                 // hmm: this graph's cut {1, 2} separates {s,a} from {b,c}
        let net = b.build();
        let set = validate_bottleneck_set(&net, n[0], n[2], &[EdgeId(1), EdgeId(2)]).unwrap();
        assert_eq!(set.forward_oriented, vec![true, false]);
    }
}
