//! The end-to-end bottleneck algorithm (Sections III–IV).
//!
//! Pipeline: validate/decompose along the bottleneck set → enumerate the
//! assignment set `D` → build both side spectra (`|D| · 2^{|E_c|}` max-flow
//! calls each) → accumulate over the `2^k` bottleneck configurations with
//! inclusion–exclusion. Total `O(2^{α|E|} · |V||E|)` for constant `d`, `k` —
//! the paper's headline bound.

use exactmath::BigRational;
use netgraph::{EdgeId, Network};

use crate::accumulate::{combine_interval, combine_spectra};
use crate::assign::{
    crossing_ranges, enumerate_assignments, supported_assignment_masks, Assignment,
};
use crate::bottleneck::{validate_bottleneck_set, BottleneckSet};
use crate::budget::BudgetSentinel;
use crate::certcache::SweepStats;
use crate::checkpoint::{SideCheckpoint, SweepCursor};
use crate::decompose::{decompose, Decomposition, Side};
use crate::demand::FlowDemand;
use crate::error::ReliabilityError;
use crate::options::CalcOptions;
use crate::oracle::SideOracle;
use crate::spectrum::MaskMass;
use crate::sweep::{sweep_spectrum_budgeted, PartialSpectrum, SweepConfig};
use crate::weight::{edge_weights, edge_weights_exact, EdgeWeights, Weight};

/// What the bottleneck algorithm did, for reporting and experiments.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// The bottleneck set used.
    pub set: BottleneckSet,
    /// Size of the assignment set `|D|`.
    pub assignment_count: usize,
    /// `α` of the decomposition.
    pub alpha: f64,
    /// Sweep-engine counters, merged over both side spectra (configurations
    /// tested, solver calls, certificate hits).
    pub sweep: SweepStats,
    /// Per-leaf-slot planner accounting (empty for one-level runs): how the
    /// plan interpreter apportioned the budget and what each sweep actually
    /// cost. See [`PlanSlotReport`].
    pub plan_slots: Vec<PlanSlotReport>,
}

/// Budget and cost accounting for one plan leaf slot, in DFS slot order.
#[derive(Clone, Debug)]
pub struct PlanSlotReport {
    /// DFS slot index (matches `leaf #i` / `sweep #i` in the rendered plan).
    pub index: usize,
    /// Leaf kind: `"naive"`, `"cut"`, `"sweep"`, or — in hybrid mode, when
    /// the budget forced this scalar leaf to be estimated statistically —
    /// `"mc"` (in that case `configs`/`explored` count samples).
    pub kind: &'static str,
    /// Configurations the planner predicted this slot still had to
    /// enumerate when the run started (resume-aware).
    pub predicted: f64,
    /// Cost-proportional fraction of the configuration budget the
    /// apportioner grants this slot's subtree (predicted cost over the total
    /// predicted cost; the sentinel fork uses exactly this ratio when the
    /// budget tracks a configuration allowance).
    pub share: f64,
    /// Configurations the sweep actually tested during this run.
    pub configs: u64,
    /// Fraction of this slot's own configuration space explored so far.
    pub explored: f64,
}

/// Projects parent-network weights onto a side's own edge numbering.
fn side_weights<W: Weight>(side: &Side, parent: &EdgeWeights<W>) -> EdgeWeights<W> {
    side.edge_origin
        .iter()
        .map(|&e| parent[e.index()].clone())
        .collect()
}

/// Probability mass a partial side spectrum has explored, clamped to
/// `[0, 1]`.
pub(crate) fn explored_mass(mass: &MaskMass<f64>) -> f64 {
    mass.total().clamp(0.0, 1.0)
}

/// Bit mask of the live assignment indices.
pub(crate) fn live_mask(live: &[usize]) -> u32 {
    live.iter().fold(0u32, |a, &j| a | 1 << j)
}

/// One side's swept spectrum and the sweep's counters.
type SideRun<W> = (PartialSpectrum<W>, SweepStats);

/// The two side oracles of a one-level split with their link weights,
/// checked against the side-size limit.
struct SideSweeps<W> {
    oracle_s: SideOracle,
    oracle_t: SideOracle,
    w_s: EdgeWeights<W>,
    w_t: EdgeWeights<W>,
    dn: usize,
}

impl<W: Weight> SideSweeps<W> {
    fn new(
        dec: &Decomposition,
        assignments: &[Assignment],
        weights: &EdgeWeights<W>,
        opts: &CalcOptions,
    ) -> Result<Self, ReliabilityError> {
        let oracle_s = SideOracle::new(&dec.side_s, assignments, opts.solver)?;
        let oracle_t = SideOracle::new(&dec.side_t, assignments, opts.solver)?;
        for m in [oracle_s.edge_count(), oracle_t.edge_count()] {
            if m > opts.max_side_edges {
                return Err(ReliabilityError::SideTooLarge {
                    count: m,
                    max: opts.max_side_edges,
                });
            }
        }
        Ok(SideSweeps {
            oracle_s,
            oracle_t,
            w_s: side_weights(&dec.side_s, weights),
            w_t: side_weights(&dec.side_t, weights),
            dn: assignments.len(),
        })
    }

    /// The assignments a fresh sweep of each side realizes at all.
    fn fresh_live(&mut self, opts: &CalcOptions) -> (Vec<usize>, Vec<usize>) {
        let dn = self.dn;
        let live = |o: &mut SideOracle| -> Vec<usize> {
            (0..dn)
                .filter(|&j| !opts.prune_infeasible_assignments || o.feasible_at_best(j))
                .collect()
        };
        (live(&mut self.oracle_s), live(&mut self.oracle_t))
    }

    /// Sweeps both sides under one sentinel, concurrently when
    /// `opts.parallel` (the sides are independent subproblems).
    fn sweep(
        &self,
        live_s: &[usize],
        live_t: &[usize],
        opts: &CalcOptions,
        sentinel: &BudgetSentinel,
        res_s: Option<PartialSpectrum<W>>,
        res_t: Option<PartialSpectrum<W>>,
    ) -> (SideRun<W>, SideRun<W>) {
        let cfg = SweepConfig::from_opts(opts);
        let side_s = || {
            sweep_spectrum_budgeted(
                &self.oracle_s,
                live_s,
                &self.w_s,
                self.dn,
                &cfg,
                sentinel,
                res_s,
            )
        };
        let side_t = || {
            sweep_spectrum_budgeted(
                &self.oracle_t,
                live_t,
                &self.w_t,
                self.dn,
                &cfg,
                sentinel,
                res_t,
            )
        };
        if opts.parallel {
            rayon::join(side_s, side_t)
        } else {
            (side_s(), side_t())
        }
    }
}

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

    let dn = assignments.len();
    let dec = decompose(net, &demand, set);
    let mut sides = SideSweeps::new(&dec, &assignments, weights, opts)?;
    let (live_s, live_t) = sides.fresh_live(opts);

    // side spectra (Section III-C, streamed through the sweep engine)
    let unlimited = BudgetSentinel::unlimited();
    let ((spec_s, stats_s), (spec_t, stats_t)) =
        sides.sweep(&live_s, &live_t, opts, &unlimited, None, None);
    let mut sweep = stats_s;
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

/// What a budget-aware bottleneck run produced.
#[derive(Clone, Debug)]
pub enum BottleneckOutcome {
    /// The budget sufficed: the exact reliability, identical to what
    /// [`reliability_bottleneck_on_set`] computes on the same instance.
    Complete {
        /// Exact reliability.
        reliability: f64,
        /// Run report.
        report: BottleneckReport,
    },
    /// The budget ran out (or the run was cancelled) mid-sweep.
    Partial {
        /// Sound lower bound on the reliability.
        r_low: f64,
        /// Sound upper bound on the reliability.
        r_high: f64,
        /// Fraction of the joint configuration space covered so far (the
        /// product of the two sides' explored probability mass).
        explored: f64,
        /// Source-side resume state.
        side_s: Box<SideCheckpoint>,
        /// Sink-side resume state.
        side_t: Box<SideCheckpoint>,
        /// Run report for the work done so far.
        report: BottleneckReport,
    },
}

/// Validates a side checkpoint against this decomposition and unpacks it into
/// the sweep engine's resume form. The checkpoint's `live` set is
/// authoritative — it records which assignments the interrupted run swept.
pub(crate) fn side_resume(
    ck: &SideCheckpoint,
    which: &str,
    m: usize,
    dn: usize,
) -> Result<(Vec<usize>, PartialSpectrum<f64>), ReliabilityError> {
    let bad = |reason: String| ReliabilityError::CheckpointMismatch { reason };
    if ck.cursor.total != 1u64 << m {
        return Err(bad(format!(
            "{which} checkpoint enumerates {} configurations, this side {}",
            ck.cursor.total,
            1u64 << m
        )));
    }
    if ck.mass.slots() != 1usize << dn {
        return Err(bad(format!(
            "{which} checkpoint carries {} mask masses, this instance needs {}",
            ck.mass.slots(),
            1usize << dn
        )));
    }
    if let Some(&j) = ck.live.iter().find(|&&j| j >= dn) {
        return Err(bad(format!(
            "{which} checkpoint marks assignment {j} live, only {dn} exist"
        )));
    }
    Ok((
        ck.live.clone(),
        PartialSpectrum {
            mass: ck.mass.clone(),
            remaining: ck.cursor.remaining.clone(),
            certs: ck.certs.clone(),
        },
    ))
}

/// Budget-aware bottleneck reliability in `f64`, with checkpoint/resume.
///
/// Runs both side sweeps under `opts.budget` (the sweeps share one sentinel,
/// so the limits apply to the whole calculation). When the budget suffices
/// the result is `Complete` and — in serial mode — bit-identical to
/// [`reliability_bottleneck_on_set`]. When it runs out the result is
/// `Partial`: each side's unexplored probability mass is injected at its
/// worst-case (empty) and best-case (all live assignments) realization masks,
/// which by monotonicity of the accumulation brackets the exact reliability
/// in `[r_low, r_high]`. The returned side checkpoints resume the enumeration
/// exactly where it stopped: a resumed serial run reproduces the
/// uninterrupted serial result bit for bit.
pub fn reliability_bottleneck_anytime(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    opts: &CalcOptions,
    resume: Option<(&SideCheckpoint, &SideCheckpoint)>,
) -> Result<BottleneckOutcome, ReliabilityError> {
    let sentinel = opts.budget.start();
    reliability_bottleneck_anytime_on(net, demand, set, opts, &sentinel, resume)
}

/// As [`reliability_bottleneck_anytime`], but drawing from an externally
/// owned [`BudgetSentinel`] instead of starting a fresh one from
/// `opts.budget`, so a plan interpreter can hold several cut sweeps (and
/// naive leaf sweeps) to one shared budget.
pub fn reliability_bottleneck_anytime_on(
    net: &Network,
    demand: FlowDemand,
    set: &BottleneckSet,
    opts: &CalcOptions,
    sentinel: &BudgetSentinel,
    resume: Option<(&SideCheckpoint, &SideCheckpoint)>,
) -> Result<BottleneckOutcome, ReliabilityError> {
    demand.validate(net)?;
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
        return Ok(BottleneckOutcome::Complete {
            reliability: 1.0,
            report: report(0, SweepStats::default()),
        });
    }
    let ranges = crossing_ranges(
        net,
        &set.edges,
        &set.forward_oriented,
        demand.demand,
        opts.assignment_model,
    );
    let assignments = enumerate_assignments(demand.demand, &ranges);
    if assignments.is_empty() {
        return Ok(BottleneckOutcome::Complete {
            reliability: 0.0,
            report: report(0, SweepStats::default()),
        });
    }
    if assignments.len() > opts.max_assignments || assignments.len() > 31 {
        return Err(ReliabilityError::TooManyAssignments {
            count: assignments.len(),
            max: opts.max_assignments.min(31),
        });
    }
    let dn = assignments.len();

    let dec = decompose(net, &demand, set);
    let weights = edge_weights(net);
    let mut sides = SideSweeps::new(&dec, &assignments, &weights, opts)?;
    let (m_s, m_t) = (sides.oracle_s.edge_count(), sides.oracle_t.edge_count());
    let (live_s, res_s, live_t, res_t) = match resume {
        Some((cs, ct)) => {
            let (ls, ps) = side_resume(cs, "source-side", m_s, dn)?;
            let (lt, pt) = side_resume(ct, "sink-side", m_t, dn)?;
            (ls, Some(ps), lt, Some(pt))
        }
        None => {
            let (ls, lt) = sides.fresh_live(opts);
            (ls, None, lt, None)
        }
    };
    let ((part_s, stats_s), (part_t, stats_t)) =
        sides.sweep(&live_s, &live_t, opts, sentinel, res_s, res_t);
    let mut sweep = stats_s;
    sweep.merge(&stats_t);

    let support = supported_assignment_masks(&assignments, dec.cut.len());
    let cut_weights: Vec<(f64, f64)> = dec.cut.iter().map(|&e| weights[e.index()]).collect();

    if part_s.is_complete() && part_t.is_complete() {
        let r = combine_spectra(
            &cut_weights,
            &support,
            &part_s.mass,
            &part_t.mass,
            opts.accumulation,
        );
        return Ok(BottleneckOutcome::Complete {
            reliability: r,
            report: report(dn, sweep),
        });
    }

    let (sum_s, sum_t) = (explored_mass(&part_s.mass), explored_mass(&part_t.mass));
    let (lo, hi) = combine_interval(
        &cut_weights,
        &support,
        &part_s.mass,
        &(1.0 - sum_s).max(0.0),
        live_mask(&live_s),
        &part_t.mass,
        &(1.0 - sum_t).max(0.0),
        live_mask(&live_t),
        opts.accumulation,
    );
    let r_low = lo.clamp(0.0, 1.0);
    let r_high = hi.clamp(r_low, 1.0);
    let side_ck = |m: usize, live: Vec<usize>, p: PartialSpectrum<f64>| SideCheckpoint {
        cursor: SweepCursor {
            total: 1u64 << m,
            remaining: p.remaining,
        },
        live,
        mass: p.mass,
        certs: p.certs,
    };
    Ok(BottleneckOutcome::Partial {
        r_low,
        r_high,
        explored: (sum_s * sum_t).clamp(0.0, 1.0),
        side_s: Box::new(side_ck(m_s, live_s, part_s)),
        side_t: Box::new(side_ck(m_t, live_t, part_t)),
        report: report(dn, sweep),
    })
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

    #[test]
    fn anytime_bounds_bracket_and_resume_is_bit_identical() {
        let (net, d, cut) = two_cut_net();
        let set = validate_bottleneck_set(&net, d.source, d.sink, &cut).unwrap();
        let exact = reliability_bottleneck(&net, d, &cut, &CalcOptions::default()).unwrap();

        // unlimited budget: the anytime path must equal the classic one
        let full =
            reliability_bottleneck_anytime(&net, d, &set, &CalcOptions::default(), None).unwrap();
        match full {
            BottleneckOutcome::Complete { reliability, .. } => {
                assert_eq!(reliability, exact, "anytime complete must be bit-identical")
            }
            BottleneckOutcome::Partial { .. } => panic!("unlimited budget must complete"),
        }

        // tiny budget slices, resumed to completion
        let budget = |n: u64| CalcOptions {
            budget: crate::budget::Budget {
                max_configs: Some(n),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut resume: Option<(Box<SideCheckpoint>, Box<SideCheckpoint>)> = None;
        let mut partials = 0usize;
        let r = loop {
            let out = reliability_bottleneck_anytime(
                &net,
                d,
                &set,
                &budget(3),
                resume.as_ref().map(|(a, b)| (a.as_ref(), b.as_ref())),
            )
            .unwrap();
            match out {
                BottleneckOutcome::Complete { reliability, .. } => break reliability,
                BottleneckOutcome::Partial {
                    r_low,
                    r_high,
                    explored,
                    side_s,
                    side_t,
                    ..
                } => {
                    assert!(
                        r_low <= exact + 1e-12 && exact <= r_high + 1e-12,
                        "[{r_low}, {r_high}] must bracket {exact}"
                    );
                    assert!((0.0..=1.0).contains(&explored));
                    partials += 1;
                    assert!(partials < 10_000, "budgeted loop must make progress");
                    resume = Some((side_s, side_t));
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
