//! The `mc` workload: Monte-Carlo estimation to a stated accuracy. Each op
//! runs one estimator (crude, permutation, or dagger via `Auto` on a
//! bottlenecked instance) with a fixed seed until the 95% interval's half
//! width reaches `CI_HALF`; the sample cap is only a safeguard. Latency is
//! therefore the time to that accuracy.

use std::collections::{BTreeMap, HashMap};

use flowrel_core::{
    find_bottleneck_set, fnet, reduce, CalcOptions, EstimatorKind, McReport, McSettings,
    ReliabilityCalculator, StopTarget, Strategy,
};
use montecarlo::{McBudget, McOutcome, MAX_STRATA_LINKS};
use workloads::generators::{barbell, grid, kary_nested_cut, BarbellParams, Instance};

use crate::corpus::{text, Rng};
use crate::report::{json_str, RunOutput};
use crate::trace::Tracer;
use crate::Workload;

/// Target 95% half width of every estimate.
pub const CI_HALF: f64 = 0.008;
/// Distinct RNG seeds per instance and estimator.
const SEEDS_PER_ESTIMATOR: usize = 3;
/// Safeguard sample cap.
pub const MAX_SAMPLES: u64 = 4_000_000;
/// An estimate must lie within this many standard errors of a known exact
/// value.
const SIGMAS: f64 = 4.0;

struct Case {
    name: String,
    text: String,
    settings: McSettings,
    exact: Option<f64>,
}

/// What must repeat bit for bit on a rerun of the same seed.
type Bits = (u64, u64, u64);

fn bits(r: &McReport) -> Bits {
    (r.mean.to_bits(), r.samples, r.flow_evals)
}

pub struct Mc {
    cases: Vec<Case>,
    first: HashMap<usize, Bits>,
    ops: u64,
    samples: u64,
    flow_evals: u64,
    capped: u64,
}

fn instances(smoke: bool) -> Vec<(&'static str, Instance)> {
    if smoke {
        return vec![("grid-3x3", grid(3, 3, 3))];
    }
    vec![
        ("grid-5x5", grid(5, 5, 3)),
        ("kary-nested-cut-5x2", kary_nested_cut(5, 2, 11)),
        (
            "barbell-13x12-k2",
            barbell(BarbellParams {
                cluster_nodes: 13,
                cluster_extra_edges: 12,
                cut_links: 2,
                cut_capacity: 2,
                demand: 2,
                seed: 7,
            })
            .0,
        ),
    ]
}

impl Mc {
    /// Instances and probabilities are fixed, so every seed asks for the
    /// same accuracy on the same reliabilities; the workload seed draws the
    /// estimators' RNG seeds and orders the ops.
    pub fn setup(seed: u64, smoke: bool) -> Result<Mc, String> {
        let mut rng = Rng::new(seed);
        let mut cases = Vec::new();
        for (name, inst) in instances(smoke) {
            let t = text(&inst);
            let nf = fnet::parse(&t).map_err(|e| format!("{name}: {e}"))?;
            let d = nf.demand.ok_or("no demand")?;
            // exact reference from the planner where it finishes quickly;
            // unknown past the enumeration bound
            let exact = ReliabilityCalculator::new()
                .with_options(CalcOptions {
                    budget: flowrel_core::Budget {
                        time_limit: Some(std::time::Duration::from_secs(2)),
                        ..flowrel_core::Budget::unlimited()
                    },
                    ..CalcOptions::default()
                })
                .run(&nf.net, d)
                .ok()
                .and_then(|o| o.reliability());
            let estimators = [
                EstimatorKind::Crude,
                EstimatorKind::Permutation,
                EstimatorKind::Auto,
            ];
            for (run, estimator) in
                (0..SEEDS_PER_ESTIMATOR).flat_map(|r| estimators.map(|e| (r, e)))
            {
                cases.push(Case {
                    name: format!("{name}/{}/{run}", estimator.name()),
                    text: t.clone(),
                    settings: McSettings {
                        seed: rng.next_u64(),
                        estimator,
                        target: StopTarget {
                            rel_err: None,
                            ci_half: Some(CI_HALF),
                            max_samples: MAX_SAMPLES,
                        },
                        ..McSettings::default()
                    },
                    exact,
                });
            }
        }
        rng.shuffle(&mut cases);
        Ok(Mc {
            cases,
            first: HashMap::new(),
            ops: 0,
            samples: 0,
            flow_evals: 0,
            capped: 0,
        })
    }

    fn check(&mut self, i: usize, report: McReport) -> Result<(), String> {
        let c = &self.cases[i];
        if let Some(exact) = c.exact {
            let slack = SIGMAS * report.std_error + 1e-10;
            if (report.mean - exact).abs() > slack {
                return Err(format!(
                    "{}: estimate {} is more than {SIGMAS} sigma ({}) from exact {exact}",
                    c.name, report.mean, report.std_error
                ));
            }
        }
        let b = bits(&report);
        match self.first.get(&i) {
            None => {
                self.first.insert(i, b);
            }
            Some(&f) if f == b => {}
            Some(&f) => {
                return Err(format!(
                    "{}: rerun of seed {} gave {b:?}, first run {f:?}",
                    c.name, c.settings.seed
                ))
            }
        }
        Ok(())
    }
}

fn solve(c: &Case) -> Result<McReport, String> {
    let nf = fnet::parse(&c.text).map_err(|e| format!("parse: {e}"))?;
    let d = nf.demand.ok_or("no demand")?;
    let rep = ReliabilityCalculator::new()
        .with_strategy(Strategy::MonteCarlo(c.settings.clone()))
        .run_complete(&nf.net, d)
        .map_err(|e| format!("{}: {e}", c.name))?;
    rep.mc
        .ok_or_else(|| format!("{}: no Monte-Carlo report", c.name))
}

/// The calculator's Monte-Carlo path, one layer at a time.
fn traced_solve(c: &Case, t: &mut Tracer) -> Result<McReport, String> {
    let nf = t
        .time("fnet.parse", || fnet::parse(&c.text))
        .map_err(|e| format!("parse: {e}"))?;
    let d = nf.demand.ok_or("no demand")?;
    let opts = CalcOptions::default();
    let red = t.time("reduce", || reduce(&nf.net, d, true, opts.solver));
    let (net, d) = if red.is_identity() {
        (&nf.net, d)
    } else {
        (&red.net, red.demand)
    };
    let mut settings = c.settings.clone();
    if settings.estimator == EstimatorKind::Auto {
        // ReliabilityCalculator resolves Auto before the engine runs
        settings.estimator = EstimatorKind::Permutation;
        if !net.has_multistate() {
            let set = t.time("bottleneck", || {
                find_bottleneck_set(net, d.source, d.sink, 3)
            });
            if let Ok(set) = set {
                if set.edges.len() <= MAX_STRATA_LINKS {
                    settings.estimator = EstimatorKind::Dagger;
                    settings.strata = set.edges;
                }
            }
        }
    }
    let out = t.time("mc", || {
        montecarlo::engine::run(
            net,
            d.source,
            d.sink,
            d.demand,
            &settings,
            &McBudget::unlimited(),
            opts.parallel,
        )
    });
    match out.map_err(|e| format!("{}: {e}", c.name))? {
        McOutcome::Done(r) => Ok(r),
        McOutcome::Interrupted { .. } => Err(format!("{}: interrupted", c.name)),
    }
}

impl Workload for Mc {
    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, i: u64) -> Result<(), String> {
        let i = i as usize % self.cases.len();
        let r = solve(&self.cases[i])?;
        self.check(i, r)
    }

    fn traced_op(&mut self, i: u64, t: &mut Tracer) -> Result<(), String> {
        let i = i as usize % self.cases.len();
        let r = traced_solve(&self.cases[i], t)?;
        self.ops += 1;
        self.samples += r.samples;
        self.flow_evals += r.flow_evals;
        self.capped += u64::from(r.samples >= MAX_SAMPLES);
        self.check(i, r)
    }

    fn layer_metrics(&mut self, out: &mut RunOutput, _self_ns: &BTreeMap<&str, u64>) {
        let ops = self.ops.max(1) as f64;
        out.metric("mc.samples", self.samples as f64 / ops, "count");
        out.metric("mc.flow_evals", self.flow_evals as f64 / ops, "count");
        let per = if self.samples > 0 {
            self.flow_evals as f64 / self.samples as f64
        } else {
            0.0
        };
        out.metric("mc.evals_per_sample", per, "ratio");
        out.meta("mc_ops_at_sample_cap", self.capped.to_string());
    }

    fn describe(&self, out: &mut RunOutput) {
        let names: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                let exact = c
                    .exact
                    .map_or("unknown".to_string(), |e| format!("{e:.12}"));
                json_str(&format!("{} [exact: {exact}]", c.name))
            })
            .collect();
        out.meta("corpus", format!("[{}]", names.join(", ")));
        out.meta("mc_ci_half", crate::report::num(CI_HALF));
        out.meta("mc_max_samples", MAX_SAMPLES.to_string());
    }
}
