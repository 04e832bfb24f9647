//! The bridge-pruned bottleneck search against an exhaustive oracle.
//!
//! The oracle is the plain combination scan: every link set of size
//! `1..=max_k` (size 1 always, as the search reports separating bridges
//! even for `max_k = 0`), in lexicographic order of its sorted link ids,
//! checked for the three conditions of Section III-A by component labelling
//! — `s` and `t` separated, exactly two components, and no proper subset
//! separating. The search must return the same sets, with the same
//! geometry, in the same order.

use flowrel::core::{
    find_all_bottleneck_sets, find_bottleneck_set, BottleneckSet, ReliabilityError,
};
use flowrel::netgraph::{connected_components, EdgeId, GraphKind, Network, NetworkBuilder, NodeId};
use flowrel::workloads::generators;
use rand::{Rng, SeedableRng};

fn separates(net: &Network, s: NodeId, t: NodeId, removed: &[EdgeId]) -> bool {
    !connected_components(net, |e| removed.iter().any(|r| r.index() == e)).same(s, t)
}

fn is_bottleneck(net: &Network, s: NodeId, t: NodeId, set: &[EdgeId]) -> bool {
    let comps = connected_components(net, |e| set.iter().any(|r| r.index() == e));
    if comps.same(s, t) || comps.count() != 2 {
        return false;
    }
    (0..set.len()).all(|skip| {
        let rest: Vec<EdgeId> = (0..set.len())
            .filter(|&i| i != skip)
            .map(|i| set[i])
            .collect();
        !separates(net, s, t, &rest)
    })
}

/// The exhaustive scan: every combination of binary links, by size.
fn exhaustive(net: &Network, s: NodeId, t: NodeId, max_k: usize) -> Vec<Vec<EdgeId>> {
    let pool: Vec<EdgeId> = (0..net.edge_count())
        .map(EdgeId::from)
        .filter(|&e| net.spectrum(e).is_none())
        .collect();
    let m = pool.len();
    let mut out = Vec::new();
    for k in 1..=max_k.min(m).max(1) {
        if k > m {
            break;
        }
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            let cand: Vec<EdgeId> = combo.iter().map(|&i| pool[i]).collect();
            if is_bottleneck(net, s, t, &cand) {
                out.push(cand);
            }
            let Some(i) = (0..k).rev().find(|&i| combo[i] != i + m - k) else {
                break;
            };
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }
    out
}

/// Sides, link counts and orientation of `set`, recomputed by labelling.
fn geometry(net: &Network, s: NodeId, set: &BottleneckSet) -> (Vec<NodeId>, usize, Vec<bool>) {
    let comps = connected_components(net, |e| set.edges.iter().any(|r| r.index() == e));
    let side_s = comps.members(comps.label(s));
    let inside_s = net
        .edge_refs()
        .filter(|(id, e)| !set.edges.contains(id) && comps.same(e.src, s) && comps.same(e.dst, s))
        .count();
    let forward = set
        .edges
        .iter()
        .map(|&e| comps.same(net.edge(e).src, s))
        .collect();
    (side_s, inside_s, forward)
}

fn assert_same_search(net: &Network, s: NodeId, t: NodeId, max_k: usize, what: &str) {
    let want = exhaustive(net, s, t, max_k);
    let got = find_all_bottleneck_sets(net, s, t, max_k).unwrap();
    let got_edges: Vec<Vec<EdgeId>> = got.iter().map(|b| b.edges.clone()).collect();
    assert_eq!(got_edges, want, "{what}: max_k = {max_k}");
    for set in &got {
        let (side_s, inside_s, forward) = geometry(net, s, set);
        assert_eq!(set.side_s_nodes, side_s, "{what}: {:?}", set.edges);
        assert_eq!(set.side_s_edges, inside_s, "{what}: {:?}", set.edges);
        assert_eq!(
            set.side_s_edges + set.side_t_edges + set.k(),
            net.edge_count(),
            "{what}: {:?}",
            set.edges
        );
        assert_eq!(set.forward_oriented, forward, "{what}: {:?}", set.edges);
    }
    // the best-set choice is a fold over the same stream
    let best = want
        .iter()
        .map(|edges| {
            let b = got.iter().find(|b| &b.edges == edges).unwrap();
            (b.side_s_edges.max(b.side_t_edges), b.k(), edges)
        })
        .fold(None::<(usize, usize, &Vec<EdgeId>)>, |acc, c| match acc {
            Some(a) if !(c.0 < a.0 || (c.0 == a.0 && c.1 < a.1)) => Some(a),
            _ => Some(c),
        });
    match (find_bottleneck_set(net, s, t, max_k), best) {
        (Ok(set), Some((_, _, edges))) => assert_eq!(&set.edges, edges, "{what}"),
        (Err(ReliabilityError::NoBottleneckFound), None) => {}
        (other, want) => panic!("{what}: got {other:?}, want {want:?}"),
    }
}

fn random_multigraph(rng: &mut rand::rngs::StdRng) -> (Network, NodeId, NodeId) {
    let kind = if rng.gen_bool(0.5) {
        GraphKind::Directed
    } else {
        GraphKind::Undirected
    };
    let n = rng.gen_range(2..=8usize);
    let links = rng.gen_range(1..=14usize);
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
    for _ in 0..links {
        // self-loops and parallel links are drawn on purpose
        let u = nodes[rng.gen_range(0..n)];
        let v = if rng.gen_bool(0.08) {
            u
        } else {
            nodes[rng.gen_range(0..n)]
        };
        if rng.gen_bool(0.15) {
            b.add_spectrum_edge(u, v, &[(0, 0.25), (1, 0.25), (2, 0.5)])
                .unwrap();
        } else {
            b.add_edge(u, v, rng.gen_range(1..=3), 0.125).unwrap();
        }
    }
    let s = rng.gen_range(0..n);
    let t = (s + rng.gen_range(1..n)) % n;
    (b.build(), nodes[s], nodes[t])
}

#[test]
fn search_matches_exhaustive_scan_on_random_multigraphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x05ee_db0b);
    let mut found = 0usize;
    for round in 0..1500 {
        let (net, s, t) = random_multigraph(&mut rng);
        for max_k in 0..=3 {
            assert_same_search(&net, s, t, max_k, &format!("random graph #{round}"));
        }
        found += find_all_bottleneck_sets(&net, s, t, 3).unwrap().len();
    }
    assert!(
        found > 500,
        "the draws must exercise accepted sets, got {found}"
    );
}

#[test]
fn search_matches_exhaustive_scan_on_generator_families() {
    let families = [
        ("slack-barbell-3x2", generators::slack_barbell(3, 2, 1)),
        (
            "chained-barbell-3x3",
            generators::chained_barbell(3, 3, 1, 2),
        ),
        ("nested-barbell-2x3", generators::nested_barbell(2, 3, 1, 3)),
        ("kary-nested-cut-2x2", generators::kary_nested_cut(2, 2, 4)),
        ("barbell-mesh-3", generators::barbell_mesh(3, 5)),
        ("grid-4x3", generators::grid(4, 3, 6)),
        ("slack-barbell-8x3", generators::slack_barbell(8, 3, 7)),
        (
            "chained-barbell-6x4",
            generators::chained_barbell(6, 4, 2, 8),
        ),
        ("nested-barbell-3x4", generators::nested_barbell(3, 4, 1, 9)),
        ("kary-nested-cut-4x2", generators::kary_nested_cut(4, 2, 10)),
        ("barbell-mesh-6", generators::barbell_mesh(6, 11)),
        ("grid-5x5", generators::grid(5, 5, 12)),
    ];
    let mut found = 0usize;
    for (name, inst) in &families {
        for max_k in 1..=3 {
            assert_same_search(&inst.net, inst.source, inst.sink, max_k, name);
        }
        found += find_all_bottleneck_sets(&inst.net, inst.source, inst.sink, 3)
            .unwrap()
            .len();
    }
    assert!(
        found > 50,
        "the families must have many bottleneck sets, got {found}"
    );
}
