//! FIFO push-relabel with the gap heuristic.
//!
//! Push-relabel computes the full maximum flow; the early-exit `limit` is
//! applied to the returned value only (the preflow cannot stop mid-way and
//! still be a valid flow). It is included as the asymptotically strongest
//! comparator (`O(|V|³)`) for the solver-ablation bench.

use crate::graph::FlowGraph;
use crate::solver::MaxFlowSolver;
use crate::workspace::{prepare, Workspace};

/// FIFO push-relabel with gap relabelling.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabel;

impl MaxFlowSolver for PushRelabel {
    fn solve_ws(
        &self,
        g: &mut FlowGraph,
        s: usize,
        t: usize,
        limit: u64,
        ws: &mut Workspace,
    ) -> u64 {
        if s == t {
            return limit;
        }
        g.ensure_csr();
        let n = g.node_count();
        prepare(&mut ws.height, n, 0);
        prepare(&mut ws.excess, n, 0);
        prepare(&mut ws.cursor, n, 0);
        prepare(&mut ws.count, 2 * n + 1, 0); // nodes per height
        let height = &mut ws.height;
        let excess = &mut ws.excess;
        let current = &mut ws.cursor;
        let count = &mut ws.count;
        let active = &mut ws.deque;
        active.clear();

        height[s] = n;
        count[0] = n - 1;
        count[n] += 1;

        // saturate source arcs (snapshot them: pushing mutates g)
        ws.path.clear();
        ws.path.extend_from_slice(g.arcs_from(s));
        for i in 0..ws.path.len() {
            let arc = ws.path[i];
            let cap = g.residual(arc);
            if cap > 0 {
                let v = g.arc_head(arc);
                g.push(arc, cap);
                excess[v] += cap;
                if v != t && v != s && excess[v] == cap {
                    active.push_back(v as u32);
                }
            }
        }

        while let Some(u) = active.pop_front() {
            let u = u as usize;
            // discharge u completely
            while excess[u] > 0 {
                if current[u] == g.arcs_from(u).len() {
                    // relabel
                    let old_h = height[u];
                    let mut min_h = usize::MAX;
                    for &arc in g.arcs_from(u) {
                        if g.residual(arc) > 0 {
                            min_h = min_h.min(height[g.arc_head(arc)]);
                        }
                    }
                    if min_h == usize::MAX {
                        break; // no admissible arcs ever; excess is stuck
                    }
                    count[old_h] -= 1;
                    height[u] = min_h + 1;
                    count[height[u]] += 1;
                    current[u] = 0;
                    // gap heuristic: heights (old_h, n) became unreachable
                    if count[old_h] == 0 && old_h < n {
                        for v in 0..n {
                            if v != s && height[v] > old_h && height[v] <= n {
                                count[height[v]] -= 1;
                                height[v] = n + 1;
                                count[height[v]] += 1;
                            }
                        }
                    }
                    continue;
                }
                let arc = g.arcs_from(u)[current[u]];
                let v = g.arc_head(arc);
                if g.residual(arc) > 0 && height[u] == height[v] + 1 {
                    let amount = excess[u].min(g.residual(arc));
                    g.push(arc, amount);
                    excess[u] -= amount;
                    let was_inactive = excess[v] == 0;
                    excess[v] += amount;
                    if was_inactive && v != s && v != t {
                        active.push_back(v as u32);
                    }
                } else {
                    current[u] += 1;
                }
            }
        }
        excess[t].min(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clrs_max_flow() {
        let mut g = FlowGraph::new(6);
        g.add_arc(0, 1, 16);
        g.add_arc(0, 2, 13);
        g.add_arc(1, 2, 10);
        g.add_arc(2, 1, 4);
        g.add_arc(1, 3, 12);
        g.add_arc(3, 2, 9);
        g.add_arc(2, 4, 14);
        g.add_arc(4, 3, 7);
        g.add_arc(3, 5, 20);
        g.add_arc(4, 5, 4);
        assert_eq!(PushRelabel.solve(&mut g, 0, 5, u64::MAX), 23);
    }

    #[test]
    fn limit_caps_return_value() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 10);
        assert_eq!(PushRelabel.solve(&mut g, 0, 1, 4), 4);
    }

    #[test]
    fn handles_dead_end_excess() {
        // excess pushed into node 1 can only return to s
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 10);
        g.add_arc(1, 2, 3);
        assert_eq!(PushRelabel.solve(&mut g, 0, 2, u64::MAX), 3);
    }

    #[test]
    fn two_node_direct() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 5);
        assert_eq!(PushRelabel.solve(&mut g, 0, 1, u64::MAX), 5);
    }

    #[test]
    fn star_graph() {
        let mut g = FlowGraph::new(5);
        for v in 1..4 {
            g.add_arc(0, v, 2);
            g.add_arc(v, 4, 1);
        }
        assert_eq!(PushRelabel.solve(&mut g, 0, 4, u64::MAX), 3);
    }
}
