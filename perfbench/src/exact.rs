//! The exact workloads, `decomp` and `sweep`: each op parses one instance's
//! `.fnet` text and runs `ReliabilityCalculator::run` on it — the CLI's
//! `compute` path without process start-up.
//!
//! The traced op makes the same calls one layer at a time through the public
//! functions (`fnet::parse`, `reduce`, `find_bottleneck_set`,
//! `DecompositionPlan::plan_on_set` / `execute`, `reliability_naive_with_stats`)
//! with a span around each. `execute` runs sweeps and accumulation inside
//! itself, so for a plan that is a single flat cut the traced op re-drives
//! that split through the one-level functions (`decompose`, `SideOracle`,
//! `RealizationSpectrum::build_with`, `accumulate::combine`) instead; the
//! numbers taken from those spans are labelled re-driven.

use std::collections::BTreeMap;
use std::time::Instant;

use flowrel_core::accumulate::combine;
use flowrel_core::assign::{crossing_ranges, enumerate_assignments, supported_assignment_masks};
use flowrel_core::{
    decompose, edge_weights, find_bottleneck_set, fnet, reduce, reliability_factoring,
    reliability_naive_with_stats, CalcOptions, CutNode, DecompositionPlan, FlowDemand, Outcome,
    PlanNode, PlanOutcome, RealizationSpectrum, ReliabilityCalculator, ReliabilityError,
    SideOracle, Strategy, SweepConfig, SweepStats,
};
use netgraph::Network;
use workloads::generators::{
    barbell, chained_barbell, degraded_barbell, grid, kary_nested_cut, nested_barbell,
    slack_barbell, BarbellParams,
};

use crate::corpus::{redraw_probabilities, text, Rng};
use crate::report::{ms, RunOutput};
use crate::trace::Tracer;
use crate::Workload;

/// Exact answers must match the reference to this absolute tolerance.
pub const EXACT_TOL: f64 = 1e-10;

/// The bottleneck search width the calculator's `Auto` strategy uses.
const AUTO_K: usize = 3;

/// One instance of an exact workload.
pub struct Case {
    name: String,
    text: String,
    strategy: Strategy,
    opts: CalcOptions,
    reference: f64,
    reference_engine: &'static str,
}

impl Case {
    fn calculator(&self) -> ReliabilityCalculator {
        ReliabilityCalculator::new()
            .with_strategy(self.strategy.clone())
            .with_options(self.opts.clone())
    }
}

/// A different exact engine than the op's, for the setup-time reference.
#[derive(Clone, Copy)]
enum Reference {
    /// Plain `2^|E|` enumeration of the unreduced instance.
    Naive,
    /// The one-level spectrum engine on the root bottleneck split
    /// (`max_depth: 0`), instead of the recursive plan or a naive sweep.
    FlatCut,
    /// The op's strategy on another max-flow solver (push–relabel), cold
    /// solves instead of warm repair, and zeta-transform inclusion–exclusion
    /// instead of the complement accumulation.
    AltEngine,
}

impl Reference {
    fn name(self) -> &'static str {
        match self {
            Reference::Naive => "naive-unreduced",
            Reference::FlatCut => "flat-one-level-cut",
            Reference::AltEngine => "push-relabel-cold-zeta",
        }
    }

    fn solve(self, text: &str, op_strategy: &Strategy) -> Result<f64, String> {
        let (net, d) = parse(text)?;
        let (strategy, options) = match self {
            Reference::Naive => (
                Strategy::Naive,
                CalcOptions {
                    reduce: false,
                    ..CalcOptions::default()
                },
            ),
            Reference::FlatCut => (
                Strategy::BottleneckAuto { max_k: AUTO_K },
                CalcOptions {
                    max_depth: 0,
                    max_assignments: 31,
                    ..CalcOptions::default()
                },
            ),
            Reference::AltEngine => (
                op_strategy.clone(),
                CalcOptions {
                    solver: maxflow::SolverKind::PushRelabel,
                    incremental: false,
                    accumulation: flowrel_core::AccumulationMethod::ZetaInclusionExclusion,
                    ..CalcOptions::parallel()
                },
            ),
        };
        ReliabilityCalculator { strategy, options }
            .run_complete(&net, d)
            .map(|r| r.reliability)
            .map_err(|e| format!("reference {}: {e}", self.name()))
    }
}

fn parse(text: &str) -> Result<(Network, FlowDemand), String> {
    let nf = fnet::parse(text).map_err(|e| format!("parse: {e}"))?;
    let d = nf.demand.ok_or("instance has no demand line")?;
    Ok((nf.net, d))
}

/// Root `|D|` of the calculator's split on the reduced instance, `None`
/// when it finds no bottleneck.
fn root_assignments(text: &str, max_k: usize) -> Option<usize> {
    let (net, d) = parse(text).ok()?;
    let red = reduce(&net, d, true, maxflow::SolverKind::Dinic);
    let set = find_bottleneck_set(&red.net, red.demand.source, red.demand.sink, max_k).ok()?;
    let ranges = crossing_ranges(
        &red.net,
        &set.edges,
        &set.forward_oriented,
        red.demand.demand,
        CalcOptions::default().assignment_model,
    );
    Some(enumerate_assignments(red.demand.demand, &ranges).len())
}

fn case(
    name: String,
    text: String,
    strategy: Strategy,
    opts: CalcOptions,
    reference: Reference,
) -> Result<Case, String> {
    let value = reference.solve(&text, &strategy)?;
    Ok(Case {
        name,
        text,
        strategy,
        opts,
        reference: value,
        reference_engine: reference.name(),
    })
}

/// Wide-cut barbells are kept when their root split has at least this
/// many assignments (and at most `max_assignments`).
const WIDE_MIN_ASSIGNMENTS: usize = 16;
const WIDE_MAX_ASSIGNMENTS: usize = 24;

/// `decomp`: the layers before and after the leaf sweeps. Structured
/// families under `Auto` (reduce, bottleneck search and plan build take the
/// time) plus wide-cut barbells whose accumulation over `2^|D|` masks takes
/// it. Structure comes from fixed generator seeds (wide-cut candidates are
/// tried in seed order and kept by their root `|D|`); the workload seed
/// draws the failure probabilities and orders the ops.
pub fn decomp_corpus(seed: u64, smoke: bool) -> Result<Vec<Case>, String> {
    let mut rng = Rng::new(seed);
    let mut cases = Vec::new();
    type Family = (&'static str, fn(u64) -> workloads::generators::Instance);
    let families: &[Family] = if smoke {
        &[
            ("slack-barbell-4x2", |s| slack_barbell(4, 2, s)),
            ("kary-nested-cut-2x2", |s| kary_nested_cut(2, 2, s)),
        ]
    } else {
        &[
            ("slack-barbell-8x3", |s| slack_barbell(8, 3, s)),
            ("slack-barbell-6x3", |s| slack_barbell(6, 3, s)),
            ("nested-barbell-d3x5", |s| nested_barbell(3, 5, 2, s)),
            ("nested-barbell-d3x4", |s| nested_barbell(3, 4, 2, s)),
            ("kary-nested-cut-5x2", |s| kary_nested_cut(5, 2, s)),
            ("kary-nested-cut-4x2", |s| kary_nested_cut(4, 2, s)),
            ("chained-barbell-10x5", |s| chained_barbell(10, 5, 2, s)),
            ("chained-barbell-8x5", |s| chained_barbell(8, 5, 2, s)),
        ]
    };
    let structures: &[u64] = if smoke { &[1] } else { &[1, 2, 3, 4] };
    for (family, make) in families {
        for &s in structures {
            let t = redraw_probabilities(&text(&make(s)), &mut rng);
            cases.push(case(
                format!("{family}/s{s}"),
                t,
                Strategy::Auto,
                CalcOptions::default(),
                Reference::FlatCut,
            )?);
        }
    }
    let want_wide = if smoke { 1 } else { 8 };
    let wide_opts = CalcOptions {
        max_assignments: WIDE_MAX_ASSIGNMENTS,
        ..CalcOptions::default()
    };
    let mut kept = 0;
    for s in 1..=64u64 {
        if kept == want_wide {
            break;
        }
        let (inst, _) = barbell(BarbellParams {
            cluster_nodes: 4 + (s % 2) as usize,
            cluster_extra_edges: 2 + (s / 2 % 2) as usize,
            cut_links: 3,
            cut_capacity: 3,
            demand: 4,
            seed: s,
        });
        let t = redraw_probabilities(&text(&inst), &mut rng);
        let dn = root_assignments(&t, AUTO_K).unwrap_or(0);
        if !(WIDE_MIN_ASSIGNMENTS..=WIDE_MAX_ASSIGNMENTS).contains(&dn) {
            continue;
        }
        cases.push(case(
            format!("wide-cut-barbell/s{s}/D{dn}"),
            t,
            Strategy::BottleneckAuto { max_k: AUTO_K },
            wide_opts.clone(),
            Reference::Naive,
        )?);
        kept += 1;
    }
    if kept < want_wide {
        return Err(format!(
            "only {kept} of {want_wide} wide-cut candidates had |D| >= {WIDE_MIN_ASSIGNMENTS}"
        ));
    }
    rng.shuffle(&mut cases);
    Ok(cases)
}

/// `sweep`: leaf sweeps dominate, in their three forms — binary naive,
/// per-assignment side oracles, and mixed radix — under
/// `CalcOptions::parallel()`. Structure is fixed; the workload seed draws
/// the failure probabilities and orders the ops.
pub fn sweep_corpus(seed: u64, smoke: bool) -> Result<Vec<Case>, String> {
    let mut rng = Rng::new(seed);
    let par = CalcOptions::parallel();
    let shapes: Vec<(String, workloads::generators::Instance, Strategy, Reference)> = if smoke {
        vec![
            (
                "ring-barbell-5x2".into(),
                flowrel_bench::ring_barbell(5, 2, 5).0,
                Strategy::Naive,
                Reference::FlatCut,
            ),
            (
                "degraded-barbell-4x2".into(),
                degraded_barbell(BarbellParams {
                    cluster_nodes: 4,
                    cluster_extra_edges: 2,
                    cut_links: 2,
                    cut_capacity: 2,
                    demand: 2,
                    seed: 3,
                })
                .0,
                Strategy::Auto,
                Reference::AltEngine,
            ),
        ]
    } else {
        vec![
            (
                "ring-barbell-11x3".into(),
                flowrel_bench::ring_barbell(11, 3, 5).0,
                Strategy::Naive,
                Reference::FlatCut,
            ),
            (
                "tight-barbell-7x6x3".into(),
                flowrel_bench::tight_barbell(7, 6, 3, 11).0,
                Strategy::Naive,
                Reference::FlatCut,
            ),
            (
                "grid-4x4".into(),
                grid(4, 4, 3),
                Strategy::Naive,
                Reference::FlatCut,
            ),
            (
                "barbell-12x10-k3".into(),
                barbell(BarbellParams {
                    cluster_nodes: 12,
                    cluster_extra_edges: 10,
                    cut_links: 3,
                    cut_capacity: 2,
                    demand: 2,
                    seed: 3,
                })
                .0,
                Strategy::Auto,
                Reference::AltEngine,
            ),
            (
                "degraded-barbell-8x4".into(),
                degraded_barbell(BarbellParams {
                    cluster_nodes: 8,
                    cluster_extra_edges: 4,
                    cut_links: 3,
                    cut_capacity: 2,
                    demand: 2,
                    seed: 3,
                })
                .0,
                Strategy::Auto,
                Reference::AltEngine,
            ),
        ]
    };
    let mut cases = Vec::new();
    for (name, inst, strategy, reference) in shapes {
        let t = redraw_probabilities(&text(&inst), &mut rng);
        cases.push(case(name, t, strategy, par.clone(), reference)?);
    }
    rng.shuffle(&mut cases);
    Ok(cases)
}

/// Counts the traced ops collect from what the layers return.
#[derive(Default)]
struct Counters {
    ops: u64,
    fallible_before: u64,
    fallible_after: u64,
    searches: u64,
    found: u64,
    plans: u64,
    leaves: u64,
    predicted: f64,
    actual: f64,
    sweep: SweepStats,
    /// Configs of sweeps that ran in a span of their own.
    timed_configs: u64,
    combines: u64,
    mask_entries: f64,
    redriven_cuts: u64,
}

pub struct Exact {
    cases: Vec<Case>,
    counters: Counters,
    /// Untraced wall time per case in the traced run, for the serial
    /// comparison.
    per_case_ms: Vec<Vec<f64>>,
    parallel: bool,
}

impl Exact {
    pub fn new(cases: Vec<Case>) -> Self {
        let parallel = cases.iter().any(|c| c.opts.parallel);
        let n = cases.len();
        Exact {
            cases,
            counters: Counters::default(),
            per_case_ms: vec![Vec::new(); n],
            parallel,
        }
    }

    fn check(&self, i: usize, got: Result<f64, String>) -> Result<(), String> {
        let c = &self.cases[i];
        let r = got.map_err(|e| format!("{}: {e}", c.name))?;
        if (r - c.reference).abs() <= EXACT_TOL {
            Ok(())
        } else {
            Err(format!(
                "{}: got {r:.17}, reference ({}) {:.17}",
                c.name, c.reference_engine, c.reference
            ))
        }
    }
}

fn solve(c: &Case) -> Result<f64, String> {
    let (net, d) = parse(&c.text)?;
    match c.calculator().run(&net, d).map_err(|e| e.to_string())? {
        Outcome::Complete(rep) => Ok(rep.reliability),
        Outcome::Partial(_) => Err("unexpected partial result".into()),
    }
}

/// The root node under pure pass-through wrappers, if it is a flat cut.
fn single_cut(plan: &DecompositionPlan) -> Option<&CutNode> {
    if plan.leaf_count() != 1 {
        return None;
    }
    let mut node = plan.root_node();
    loop {
        match node {
            PlanNode::Cut(c) => return Some(c),
            PlanNode::Preprocess { child, .. } | PlanNode::Reduce { child, .. } => node = child,
            _ => return None,
        }
    }
}

fn traced_solve(c: &Case, t: &mut Tracer, k: &mut Counters) -> Result<f64, String> {
    let nf = t
        .time("fnet.parse", || fnet::parse(&c.text))
        .map_err(|e| format!("parse: {e}"))?;
    let d = nf.demand.ok_or("instance has no demand line")?;
    let opts = &c.opts;
    // `ReliabilityCalculator::run`: reduce first, then dispatch on the
    // reduced instance when the reduction changed anything
    let red = t.time("reduce", || reduce(&nf.net, d, true, opts.solver));
    k.fallible_before += red.original_fallible as u64;
    k.fallible_after += red.fallible_links() as u64;
    let (net, d) = if red.is_identity() {
        (&nf.net, d)
    } else {
        (&red.net, red.demand)
    };
    let err = |e: ReliabilityError| e.to_string();
    match c.strategy {
        Strategy::Naive => naive(t, k, net, d, opts).map_err(err),
        Strategy::BottleneckAuto { max_k } => {
            let set = search(t, k, net, d, max_k).map_err(err)?;
            plan(t, k, net, d, &set, max_k, opts).map_err(err)
        }
        Strategy::Auto => {
            if let Ok(set) = search(t, k, net, d, AUTO_K) {
                if set.side_s_edges.max(set.side_t_edges) + 2 < net.edge_count() {
                    match plan(t, k, net, d, &set, AUTO_K, opts) {
                        Ok(r) => return Ok(r),
                        Err(
                            ReliabilityError::TooManyAssignments { .. }
                            | ReliabilityError::SideTooLarge { .. }
                            | ReliabilityError::TooManyEdges { .. },
                        ) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
            }
            if net.has_multistate() {
                naive(t, k, net, d, opts).map_err(err)
            } else {
                t.time("factoring", || reliability_factoring(net, d, opts))
                    .map_err(err)
            }
        }
        _ => Err("strategy not driven by the exact workloads".into()),
    }
}

fn search(
    t: &mut Tracer,
    k: &mut Counters,
    net: &Network,
    d: FlowDemand,
    max_k: usize,
) -> Result<flowrel_core::BottleneckSet, ReliabilityError> {
    k.searches += 1;
    let set = t.time("bottleneck", || {
        find_bottleneck_set(net, d.source, d.sink, max_k)
    });
    k.found += u64::from(set.is_ok());
    set
}

fn naive(
    t: &mut Tracer,
    k: &mut Counters,
    net: &Network,
    d: FlowDemand,
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    let (r, stats) = t.time("sweep", || reliability_naive_with_stats(net, d, opts))?;
    k.sweep.merge(&stats);
    k.timed_configs += stats.configs;
    Ok(r)
}

fn plan(
    t: &mut Tracer,
    k: &mut Counters,
    net: &Network,
    d: FlowDemand,
    set: &flowrel_core::BottleneckSet,
    max_k: usize,
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    let plan = t.time("plan.build", || {
        DecompositionPlan::plan_on_set(net, d, set, opts, max_k)
    })?;
    k.plans += 1;
    k.leaves += plan.leaf_count() as u64;
    k.predicted += plan.predicted_cost();
    if let Some(cut) = single_cut(&plan) {
        return redrive_cut(t, k, cut, opts);
    }
    match t.time("plan.execute", || plan.execute(opts, None))? {
        PlanOutcome::Complete {
            reliability, stats, ..
        } => {
            k.sweep.merge(&stats);
            k.actual += stats.configs as f64;
            Ok(reliability)
        }
        PlanOutcome::Partial { .. } => Err(ReliabilityError::Interrupted {
            r_low: 0.0,
            r_high: 1.0,
        }),
    }
}

/// Re-drives a flat cut through the public one-level functions.
fn redrive_cut(
    t: &mut Tracer,
    k: &mut Counters,
    c: &CutNode,
    opts: &CalcOptions,
) -> Result<f64, ReliabilityError> {
    k.redriven_cuts += 1;
    let ranges = crossing_ranges(
        &c.net,
        &c.set.edges,
        &c.set.forward_oriented,
        c.demand.demand,
        opts.assignment_model,
    );
    let assignments = enumerate_assignments(c.demand.demand, &ranges);
    if assignments.is_empty() {
        return Ok(0.0);
    }
    let dn = assignments.len();
    let dec = t.time("plan.decompose", || decompose(&c.net, &c.demand, &c.set));
    let weights = edge_weights(&c.net);
    let cfg = SweepConfig::from_opts(opts);
    let mut sides = Vec::with_capacity(2);
    for side in [&dec.side_s, &dec.side_t] {
        let w: Vec<(f64, f64)> = side
            .edge_origin
            .iter()
            .map(|e| weights[e.index()])
            .collect();
        let (spectrum, stats) = t.time("sweep", || {
            let mut oracle = SideOracle::new(side, &assignments, opts.solver)?;
            RealizationSpectrum::build_with(
                &mut oracle,
                &w,
                opts.max_side_edges,
                opts.max_assignments,
                opts.prune_infeasible_assignments,
                &cfg,
            )
        })?;
        k.sweep.merge(&stats);
        k.timed_configs += stats.configs;
        k.actual += stats.configs as f64;
        sides.push(spectrum);
    }
    let support = supported_assignment_masks(&assignments, dec.cut.len());
    let cut_weights: Vec<(f64, f64)> = dec.cut.iter().map(|e| weights[e.index()]).collect();
    // complete spectra: the one-level engine's single combine (partial
    // runs would bracket with combine_interval instead)
    let r = t.time("accumulate", || {
        combine(
            &cut_weights,
            &support,
            &sides[0].mass,
            &sides[1].mass,
            dn,
            opts.accumulation,
        )
    });
    k.combines += 1;
    k.mask_entries += (1u64 << dn) as f64;
    Ok(r)
}

impl Workload for Exact {
    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, i: u64) -> Result<(), String> {
        let i = i as usize % self.cases.len();
        self.check(i, solve(&self.cases[i]))
    }

    fn traced_op(&mut self, i: u64, t: &mut Tracer) -> Result<(), String> {
        let i = i as usize % self.cases.len();
        self.counters.ops += 1;
        let got = traced_solve(&self.cases[i], t, &mut self.counters);
        self.check(i, got)
    }

    fn record_untraced(&mut self, i: u64, wall_ms: f64) {
        let n = self.cases.len();
        self.per_case_ms[i as usize % n].push(wall_ms);
    }

    fn layer_metrics(&mut self, out: &mut RunOutput, self_ns: &BTreeMap<&str, u64>) {
        let k = &self.counters;
        let ops = k.ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.metric(
            "reduce.fallible_ratio",
            ratio(k.fallible_after as f64, k.fallible_before as f64),
            "ratio",
        );
        out.metric(
            "bottleneck.found_ratio",
            ratio(k.found as f64, k.searches as f64),
            "ratio",
        );
        out.metric(
            "plan.leaves",
            ratio(k.leaves as f64, k.plans as f64),
            "count",
        );
        out.metric("plan.cost_error", ratio(k.actual, k.predicted), "ratio");
        out.metric("accumulate.mask_entries", k.mask_entries / ops, "count");
        let s = &k.sweep;
        out.metric("sweep.configs", s.configs as f64 / ops, "count");
        // only sweeps that ran in a span of their own have a time to divide by
        let sweep_s = self_ns.get("sweep").copied().unwrap_or(0) as f64 / 1e9;
        out.metric(
            "sweep.configs_per_s",
            ratio(k.timed_configs as f64, sweep_s),
            "1/s",
        );
        out.metric("sweep.cert_hit_ratio", s.hit_rate(), "ratio");
        out.metric("sweep.solver_calls", s.solver_calls as f64 / ops, "count");
        out.metric(
            "sweep.repair_ratio",
            ratio(s.repairs as f64, s.flips as f64),
            "ratio",
        );
        out.metric("sweep.full_resolves", s.full_resolves as f64 / ops, "count");
        let threads = if self.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        out.metric("sweep.threads", threads as f64, "count");
        out.meta("exact_timed_sweep_configs", k.timed_configs.to_string());
        out.meta("exact_redriven_cuts", k.redriven_cuts.to_string());
        out.meta("exact_combines", k.combines.to_string());
        out.meta("exact_plans", k.plans.to_string());
    }

    fn speedup_vs_serial(&mut self) -> Result<f64, String> {
        if !self.parallel {
            return Ok(1.0);
        }
        // one serial run per case against the median of its parallel runs
        let (mut serial, mut parallel) = (0.0, 0.0);
        for (i, c) in self.cases.iter().enumerate() {
            if self.per_case_ms[i].is_empty() {
                continue;
            }
            let serial_case = Case {
                name: c.name.clone(),
                text: c.text.clone(),
                strategy: c.strategy.clone(),
                opts: CalcOptions {
                    parallel: false,
                    ..c.opts.clone()
                },
                reference: c.reference,
                reference_engine: c.reference_engine,
            };
            let t0 = Instant::now();
            let r = solve(&serial_case);
            serial += ms(t0.elapsed());
            self.check(i, r)?;
            parallel += crate::report::median(&self.per_case_ms[i]);
        }
        Ok(if parallel > 0.0 {
            serial / parallel
        } else {
            0.0
        })
    }

    fn describe(&self, out: &mut RunOutput) {
        let names: Vec<String> = self
            .cases
            .iter()
            .map(|c| crate::report::json_str(&format!("{} [ref: {}]", c.name, c.reference_engine)))
            .collect();
        out.meta("corpus", format!("[{}]", names.join(", ")));
    }
}
