//! The unbudgeted reference bottleneck algorithm (Sections III–IV).
//!
//! Pipeline: validate/decompose along the bottleneck set → enumerate the
//! assignment set `D` → build both side spectra (`|D| · 2^{|E_c|}` max-flow
//! calls each) → accumulate over the `2^k` bottleneck configurations with
//! inclusion–exclusion. Total `O(2^{α|E|} · |V||E|)` for constant `d`, `k` —
//! the paper's headline bound.
//!
//! The code is generic over the [`Weight`] domain, so the same steps run in
//! `f64` and in exact rationals; tests, the paper tables and the benches
//! compare against it. Production runs — budgeted, resumable, recursive —
//! go through the planner ([`crate::plan`]), whose flat `Cut` leaves are
//! bit-identical to this engine in serial `f64`.

use exactmath::BigRational;
use netgraph::{EdgeId, Network};

use crate::accumulate::combine_spectra;
use crate::assign::{crossing_ranges, enumerate_assignments, supported_assignment_masks};
use crate::bottleneck::{validate_bottleneck_set, BottleneckSet};
use crate::budget::BudgetSentinel;
use crate::certcache::SweepStats;
use crate::decompose::{decompose, Side};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::CalcOptions;
use crate::oracle::SideOracle;
use crate::plan::BottleneckReport;
use crate::sweep::{sweep_spectrum_budgeted, SweepConfig};
use crate::weight::{edge_weights, edge_weights_exact, EdgeWeights, Weight};

/// Generic bottleneck reliability over any weight domain.
pub fn reliability_bottleneck_weighted<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    weights: &EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<(W, BottleneckReport), ReliabilityError> {
    demand.validate(net)?;
    let set = validate_bottleneck_set(net, demand.source, demand.sink, cut)?;
    reliability_bottleneck_on_set(net, demand, &set, weights, opts)
}

/// As [`reliability_bottleneck_weighted`], with a pre-validated set.
pub fn reliability_bottleneck_on_set<W: Weight>(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    weights: &EdgeWeights<W>,
    opts: &CalcOptions,
) -> Result<(W, BottleneckReport), ReliabilityError> {
    if net.has_multistate() {
        return Err(ReliabilityError::MultiState {
            operation: "the one-level bottleneck decomposition",
        });
    }
    let report = |count: usize, sweep: SweepStats| BottleneckReport {
        set: set.clone(),
        assignment_count: count,
        alpha: set.alpha(net.edge_count()),
        sweep,
        plan_slots: Vec::new(),
    };
    if demand.demand == 0 {
        return Ok((W::one(), report(0, SweepStats::default())));
    }
    // assignment set D (Section III-B)
    let ranges = crossing_ranges(
        net,
        &set.edges,
        &set.forward_oriented,
        demand.demand,
        opts.assignment_model,
    );
    let assignments = enumerate_assignments(demand.demand, &ranges);
    if assignments.is_empty() {
        // the bottleneck cannot carry d at all: reliability is trivially zero
        return Ok((W::zero(), report(0, SweepStats::default())));
    }
    if assignments.len() > opts.max_assignments || assignments.len() > 31 {
        return Err(ReliabilityError::TooManyAssignments {
            count: assignments.len(),
            max: opts.max_assignments.min(31),
        });
    }
    let widest = set.side_s_edges.max(set.side_t_edges);
    if widest > opts.max_side_edges {
        return Err(ReliabilityError::SideTooLarge {
            count: widest,
            max: opts.max_side_edges,
        });
    }

    // side spectra (Section III-C, streamed through the sweep engine); the
    // sides are independent subproblems, swept concurrently when parallel
    let dn = assignments.len();
    let dec = decompose(net, &demand, set);
    let cfg = SweepConfig::from_opts(opts);
    let unlimited = BudgetSentinel::unlimited();
    let sweep_side = |side: &Side| {
        let mut oracle = SideOracle::new(side, &assignments, opts.solver)?;
        let live: Vec<usize> = (0..dn)
            .filter(|&j| !opts.prune_infeasible_assignments || oracle.feasible_at_best(j))
            .collect();
        // project the parent weights onto the side's own link numbering
        let w: EdgeWeights<W> = side
            .edge_origin
            .iter()
            .map(|&e| weights[e.index()].clone())
            .collect();
        Ok::<_, ReliabilityError>(sweep_spectrum_budgeted(
            &oracle, &live, &w, dn, &cfg, &unlimited, None,
        ))
    };
    let (side_s, side_t) = if opts.parallel {
        rayon::join(|| sweep_side(&dec.side_s), || sweep_side(&dec.side_t))
    } else {
        (sweep_side(&dec.side_s), sweep_side(&dec.side_t))
    };
    let ((spec_s, mut sweep), (spec_t, stats_t)) = (side_s?, side_t?);
    sweep.merge(&stats_t);

    // accumulation (Section IV)
    let support = supported_assignment_masks(&assignments, dec.cut.len());
    let cut_weights: Vec<(W, W)> = dec
        .cut
        .iter()
        .map(|&e| weights[e.index()].clone())
        .collect();
    let r = combine_spectra(
        &cut_weights,
        &support,
        &spec_s.mass,
        &spec_t.mass,
        opts.accumulation,
    );
    Ok((r, report(dn, sweep)))
}

/// Bottleneck reliability in `f64`.
pub fn reliability_bottleneck(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    reliability_bottleneck_weighted(net, demand, cut, &edge_weights(net), opts).map(|(r, _)| r)
}

/// Bottleneck reliability with exact rational arithmetic.
pub fn reliability_bottleneck_exact(
    net: &Network,
    demand: FlowDemand,
    cut: &[EdgeId],
    opts: &CalcOptions,
) -> Result<BigRational, ReliabilityError> {
    reliability_bottleneck_weighted(net, demand, cut, &edge_weights_exact(net), opts)
        .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{reliability_naive, reliability_naive_exact};
    use netgraph::{GraphKind, NetworkBuilder, NodeId};

    /// Bridge graph: triangle — bridge — triangle.
    fn bridge_net() -> (Network, FlowDemand, Vec<EdgeId>) {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 1, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.15).unwrap();
        b.add_edge(n[2], n[0], 1, 0.2).unwrap();
        let bridge = b.add_edge(n[2], n[3], 2, 0.05).unwrap();
        b.add_edge(n[3], n[4], 1, 0.1).unwrap();
        b.add_edge(n[4], n[5], 1, 0.25).unwrap();
        b.add_edge(n[5], n[3], 1, 0.3).unwrap();
        (b.build(), FlowDemand::new(n[0], n[5], 1), vec![bridge])
    }

    /// Double-diamond with a 2-link bottleneck.
    fn two_cut_net() -> (Network, FlowDemand, Vec<EdgeId>) {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[0], n[2], 2, 0.2).unwrap();
        let c1 = b.add_edge(n[1], n[3], 2, 0.05).unwrap();
        let c2 = b.add_edge(n[2], n[4], 1, 0.15).unwrap();
        b.add_edge(n[3], n[5], 2, 0.1).unwrap();
        b.add_edge(n[4], n[5], 2, 0.25).unwrap();
        b.add_edge(n[1], n[2], 1, 0.3).unwrap(); // intra-side extra
        (b.build(), FlowDemand::new(n[0], n[5], 2), vec![c1, c2])
    }

    #[test]
    fn bridge_matches_naive() {
        let (net, d, cut) = bridge_net();
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        let bottleneck = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert!(
            (naive - bottleneck).abs() < 1e-12,
            "naive {naive} vs bottleneck {bottleneck}"
        );
        assert!(bottleneck > 0.0 && bottleneck < 1.0);
    }

    #[test]
    fn two_cut_matches_naive_all_methods() {
        let (net, d, cut) = two_cut_net();
        let naive = reliability_naive(&net, d, &CalcOptions::default()).unwrap();
        for method in [
            crate::accumulate::AccumulationMethod::PaperDirect,
            crate::accumulate::AccumulationMethod::ZetaInclusionExclusion,
            crate::accumulate::AccumulationMethod::Complement,
        ] {
            let opts = CalcOptions {
                accumulation: method,
                ..Default::default()
            };
            let r = reliability_bottleneck(&net, d, &cut, &opts).unwrap();
            assert!(
                (naive - r).abs() < 1e-12,
                "{method:?}: naive {naive} vs {r}"
            );
        }
    }

    #[test]
    fn exact_matches_naive_exact() {
        let (net, d, cut) = two_cut_net();
        let naive = reliability_naive_exact(&net, d, &CalcOptions::default()).unwrap();
        let bn = reliability_bottleneck_exact(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(naive, bn, "exact arithmetic must agree bit for bit");
    }

    #[test]
    fn insufficient_cut_capacity_is_zero() {
        let (net, _, cut) = two_cut_net();
        // total cut capacity is 3 < 4
        let d = FlowDemand::new(NodeId(0), NodeId(5), 4);
        let (r, report) = reliability_bottleneck_weighted(
            &net,
            d,
            &cut,
            &edge_weights(&net),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(r, 0.0);
        assert_eq!(report.assignment_count, 0);
    }

    #[test]
    fn zero_demand_is_one() {
        let (net, _, cut) = bridge_net();
        let d = FlowDemand::new(NodeId(0), NodeId(5), 0);
        let r = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn report_carries_geometry() {
        let (net, d, cut) = two_cut_net();
        let (_, report) = reliability_bottleneck_weighted(
            &net,
            d,
            &cut,
            &edge_weights(&net),
            &CalcOptions::default(),
        )
        .unwrap();
        assert_eq!(report.set.k(), 2);
        assert_eq!(
            report.assignment_count, 2,
            "D = {{(2,0)... no: (1,1),(2,0)}}"
        );
        assert!((report.alpha - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_variants_agree_and_report_stats() {
        let (net, d, cut) = two_cut_net();
        let w = edge_weights(&net);
        let plain = CalcOptions {
            certificate_cache: false,
            ..Default::default()
        };
        let (r0, rep0) = reliability_bottleneck_weighted(&net, d, &cut, &w, &plain).unwrap();
        let (r1, rep1) =
            reliability_bottleneck_weighted(&net, d, &cut, &w, &CalcOptions::default()).unwrap();
        let (r2, _) =
            reliability_bottleneck_weighted(&net, d, &cut, &w, &CalcOptions::parallel()).unwrap();
        assert_eq!(r0, r1, "serial cert-cached run must be bit-identical");
        assert!((r0 - r2).abs() < 1e-12);
        assert_eq!(rep0.sweep.solver_calls_avoided(), 0);
        assert!(rep1.sweep.solver_calls_avoided() > 0);
        assert_eq!(rep1.sweep.configs, rep0.sweep.configs);
        assert!(rep0.sweep.configs > 0);
    }

    /// The budgeted path is the planner's flat `Cut` leaf: its bounds
    /// bracket this engine's value at every slice, and a serial run resumed
    /// to completion reproduces it bit for bit.
    #[test]
    fn anytime_bounds_bracket_and_resume_is_bit_identical() {
        use crate::plan::{DecompositionPlan, PlanNode, PlanOutcome};
        let (net, d, cut) = two_cut_net();
        let set = validate_bottleneck_set(&net, d.source, d.sink, &cut).unwrap();
        let exact = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        let flat = |max_configs: Option<u64>| CalcOptions {
            max_depth: 0,
            budget: crate::budget::Budget {
                max_configs,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = DecompositionPlan::plan_on_set(&net, d, &set, &flat(None), 3).unwrap();
        assert!(matches!(plan.root_node(), PlanNode::Cut(_)));

        // unlimited budget: the flat cut must equal the reference engine
        match plan.execute(&flat(None), None).unwrap() {
            PlanOutcome::Complete { reliability, .. } => {
                assert_eq!(reliability, exact, "anytime complete must be bit-identical")
            }
            PlanOutcome::Partial { .. } => panic!("unlimited budget must complete"),
        }

        // tiny budget slices, resumed to completion
        let mut resume = None;
        let mut partials = 0usize;
        let r = loop {
            match plan.execute(&flat(Some(3)), resume.as_ref()).unwrap() {
                PlanOutcome::Complete { reliability, .. } => break reliability,
                PlanOutcome::Partial {
                    r_low,
                    r_high,
                    explored,
                    checkpoint,
                    ..
                } => {
                    assert!(
                        r_low <= exact + 1e-12 && exact <= r_high + 1e-12,
                        "[{r_low}, {r_high}] must bracket {exact}"
                    );
                    assert!((0.0..=1.0).contains(&explored));
                    partials += 1;
                    assert!(partials < 10_000, "budgeted loop must make progress");
                    resume = Some(checkpoint);
                }
            }
        };
        assert!(partials >= 1, "a 3-config budget must interrupt this sweep");
        assert_eq!(r, exact, "serial resumed run must be bit-identical");
    }

    #[test]
    fn paper_faithful_options_agree() {
        let (net, d, cut) = two_cut_net();
        let default = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();
        let faithful =
            reliability_bottleneck(&net, d, &cut, &CalcOptions::paper_faithful()).unwrap();
        assert!((default - faithful).abs() < 1e-12);
    }
}
