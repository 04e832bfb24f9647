//! `flowrel` — command-line reliability calculator.
//!
//! ```text
//! flowrel compute <file.fnet> [--strategy auto|naive|factoring|bridge|sp|mc] [--exact]
//!                             [--timeout SECS] [--max-configs N]
//!                             [--max-depth N] [--explain] [--hybrid]
//!                             [--checkpoint PATH] [--resume PATH]
//!                             [--mc-estimator auto|crude|dagger|perm]
//!                             [--rel-err EPS] [--ci HALF] [--samples N] [--seed S]
//! flowrel analyze <file.fnet> [--max-k K]
//! flowrel mc <file.fnet> [--samples N] [--seed S]
//! flowrel generate <barbell|chain|grid|mesh|slack-barbell|degraded-barbell> [args...]
//! flowrel dot <file.fnet>
//! ```
//!
//! `flowrel mc FILE [--samples N] [--seed S]` is shorthand for
//! `flowrel compute FILE --strategy mc --mc-estimator crude`, drawing 100 000
//! samples from seed 1 unless told otherwise; both commands run the same
//! engine and print the same answer.
//!
//! Each subcommand accepts only its own flags: an unknown `--flag`, a flag
//! missing its value, or a stray argument is a usage error (exit `2`), so a
//! typo such as `--timout` can never silently drop a budget.
//!
//! `--explain` prints the recursive decomposition plan (node kinds, per-node
//! link counts, predicted sweep cost) before the computation runs, and — when
//! the planner executed — a per-subtree accounting table afterwards showing
//! each leaf slot's apportioned budget share and its predicted vs. actual
//! sweep cost; `--max-depth` caps how many nested splits the planner may
//! stack (`0` forces the flat one-level decomposition).
//!
//! `--hybrid` (off by default) lets the plan interpreter place a Monte-Carlo
//! estimator at any scalar leaf whose predicted sweep cost exceeds the
//! configuration share its subtree was apportioned (`--max-configs` sets the
//! allowance). The answer is then *labelled*: `certified` when every leaf ran
//! exactly, `statistical` with a 95% interval as soon as any leaf sampled.
//! The sampling flags (`--seed`, `--samples`, `--rel-err`, `--ci`,
//! `--mc-estimator`) configure the leaf estimators; with `--explain`, the
//! accounting table marks sampled leaves `mc` and says why they sampled.
//!
//! ## Exit codes
//!
//! Every failure mode has its own status so scripts can branch without
//! parsing stderr: `2` usage, `3` file I/O, `4` file parse, `10`–`24` one
//! per [`flowrel_core::ReliabilityError`] variant (see [`CliError::from`]),
//! and `20` for an *incomplete* run — the budget ran out and a partial
//! result with rigorous bounds plus a checkpoint was produced. Monte-Carlo
//! runs use the same scheme: an interrupted estimation writes its checkpoint
//! and exits `20`; invalid sampling parameters exit `24`. A reader that
//! closes the output early (`flowrel ... | head -1`) ends the run quietly
//! with status `0`.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use flowrel_core::fnet as format;
use flowrel_core::{
    birnbaum_importance, enumerate_minimal_cuts, esary_proschan_bounds, find_bottleneck_set,
    reliability_bridge, reliability_naive_exact, reliability_sp_reduced, validate_bottleneck_set,
    Budget, CalcOptions, CancelToken, Checkpoint, DecompositionPlan, FlowDemand, Outcome,
    ReliabilityCalculator, ReliabilityError, Strategy,
};
use netgraph::find_bridges;

/// Exit status for a budget-limited run that produced bounds + checkpoint
/// instead of an exact value.
const EXIT_INCOMPLETE: u8 = 20;

/// An error annotated with the process exit status it maps to.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Self {
        CliError {
            code: 3,
            message: message.into(),
        }
    }

    fn parse(message: impl Into<String>) -> Self {
        CliError {
            code: 4,
            message: message.into(),
        }
    }

    /// A failed write to stdout. A closed reader is not an error: it maps to
    /// the quiet status `0`, which `main` reports as success.
    fn stdout(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError {
                code: 0,
                message: String::new(),
            },
            _ => CliError::io(format!("stdout: {e}")),
        }
    }
}

/// `println!` that returns a failed stdout write as a [`CliError`] from the
/// enclosing function instead of panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(CliError::stdout)?
    };
}

impl From<ReliabilityError> for CliError {
    fn from(e: ReliabilityError) -> Self {
        CliError {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         flowrel compute <file.fnet> [--strategy auto|naive|factoring|bridge|sp|mc] [--exact] [--parallel] [--no-certs]\n  \
         {:17}[--no-incremental] [--no-reduce] [--parallel-threshold N] [--timeout SECS] [--max-configs N]\n  \
         {:17}[--max-depth N] [--explain] [--hybrid] [--checkpoint PATH] [--resume PATH]\n  \
         {:17}[--mc-estimator auto|crude|dagger|perm] [--rel-err EPS] [--ci HALF] [--samples N] [--seed S]\n  \
         flowrel analyze <file.fnet> [--max-k K]\n  \
         flowrel importance <file.fnet>\n  \
         flowrel mc <file.fnet> [--samples N] [--seed S]\n  \
         flowrel generate barbell <cluster_nodes> <extra_edges> <k> <demand> <seed>\n  \
         flowrel generate chain <segments> <demand> <seed>\n  \
         flowrel generate grid <w> <h> <seed>\n  \
         flowrel generate mesh <peers> <neighbors> <rate> <seed>\n  \
         flowrel generate slack-barbell <segments> <spurs> <seed>\n  \
         flowrel generate degraded-barbell <cluster_nodes> <extra_edges> <k> <demand> <seed>\n  \
         flowrel dot <file.fnet>",
        "",
        "",
        ""
    );
    ExitCode::from(2)
}

/// The flags each subcommand accepts; a trailing `=` marks a flag that
/// takes a value.
const COMPUTE_FLAGS: &str = "--strategy= --exact --parallel --no-certs --no-incremental \
    --no-reduce --parallel-threshold= --timeout= --max-configs= --max-depth= --explain --hybrid \
    --checkpoint= --resume= --mc-estimator= --rel-err= --ci= --samples= --seed=";
const ANALYZE_FLAGS: &str = "--max-k=";
const MC_FLAGS: &str = "--samples= --seed=";

/// The flags given to one subcommand, as `(flag, value)` pairs.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Parses `args` against `spec`, rejecting unknown flags, flags missing
    /// their value and stray arguments.
    fn parse(cmd: &str, args: &[String], spec: &str) -> Result<Flags, CliError> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let valued = spec
                .split_whitespace()
                .find_map(|f| match f.strip_suffix('=') {
                    Some(name) => (name == arg).then_some(true),
                    None => (f == arg).then_some(false),
                });
            let value = match valued {
                None if arg.starts_with("--") => {
                    return Err(CliError::usage(format!("{cmd}: unknown flag '{arg}'")))
                }
                None => {
                    return Err(CliError::usage(format!(
                        "{cmd}: unexpected argument '{arg}'"
                    )))
                }
                Some(false) => None,
                Some(true) => match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(CliError::usage(format!("{cmd}: {arg} needs a value"))),
                },
            };
            given.push((arg.clone(), value));
        }
        Ok(Flags(given))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| name == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(name, _)| name == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses the value of `flag`, if given; `want` describes a valid value.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, want: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("bad {flag} (want {want})")))
            })
            .transpose()
    }

    /// The value of `flag` as a finite number > 0, if given.
    fn positive(&self, flag: &str) -> Result<Option<f64>, CliError> {
        match self.parsed::<f64>(flag, "a value > 0")? {
            Some(x) if !(x.is_finite() && x > 0.0) => {
                Err(CliError::usage(format!("bad {flag} (want a value > 0)")))
            }
            v => Ok(v),
        }
    }
}

fn load(path: &str) -> Result<format::NetFile, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    format::parse(&text).map_err(|e| CliError::parse(format!("{path}: {e}")))
}

fn demand_of(file: &format::NetFile) -> Result<FlowDemand, CliError> {
    file.demand
        .ok_or_else(|| CliError::parse("the file has no 'demand' line"))
}

/// Builds [`montecarlo::McSettings`] from the `--strategy mc` flags.
fn mc_settings(flags: &Flags) -> Result<montecarlo::McSettings, CliError> {
    let estimator = match flags.value("--mc-estimator") {
        None => montecarlo::EstimatorKind::Auto,
        Some(name) => montecarlo::EstimatorKind::from_name(name)
            .ok_or_else(|| CliError::usage(format!("unknown --mc-estimator '{name}'")))?,
    };
    let max_samples = flags.parsed("--samples", "a count")?.unwrap_or(1_000_000);
    let seed = flags.parsed("--seed", "an integer")?.unwrap_or(0);
    Ok(montecarlo::McSettings {
        seed,
        estimator,
        target: montecarlo::StopTarget {
            rel_err: flags.positive("--rel-err")?,
            ci_half: flags.positive("--ci")?,
            max_samples,
        },
        ..Default::default()
    })
}

/// `--explain`: prints the decomposition plan the calculator will execute
/// for the bottleneck-planning strategies, or says why there is none.
/// Informational only — planning failures here never abort the computation.
fn explain(
    net: &netgraph::Network,
    demand: FlowDemand,
    strategy: &Strategy,
    opts: &CalcOptions,
) -> Result<(), CliError> {
    if matches!(
        strategy,
        Strategy::Naive | Strategy::Factoring | Strategy::MonteCarlo(_)
    ) {
        say!("plan: not applicable ({strategy:?} does not use the decomposition planner)");
        return Ok(());
    }
    // Mirror the calculator: reduce first (when enabled), plan the remnant,
    // and render the plan wrapped in the reduction node so link references
    // read in the original numbering.
    let mut red = opts
        .reduce
        .then(|| flowrel_core::reduce(net, demand, true, opts.solver))
        .filter(|r| !r.is_identity());
    // An explicit cut arrives in original link ids; translate it into the
    // reduced id space, or drop the reduction when a referenced link no
    // longer exists (the calculator runs such strategies unreduced too).
    let cut = match strategy {
        Strategy::Bottleneck(cut) => Some(match &red {
            Some(r) => {
                let map = r.original_to_reduced();
                let mut translated = Vec::new();
                let ok = cut
                    .iter()
                    .all(|e| match map.get(e.index()).copied().flatten() {
                        Some(x) => {
                            if !translated.contains(&x) {
                                translated.push(x);
                            }
                            true
                        }
                        None => false,
                    });
                if ok {
                    translated
                } else {
                    red = None;
                    cut.clone()
                }
            }
            None => cut.clone(),
        }),
        _ => None,
    };
    if let Some(r) = &red {
        say!("{}", r.summary());
    }
    let (pnet, pdemand) = red.as_ref().map_or((net, demand), |r| (&r.net, r.demand));
    let max_k = match strategy {
        Strategy::BottleneckAuto { max_k } => *max_k,
        _ => 3,
    };
    let planned = match &cut {
        Some(c) => validate_bottleneck_set(pnet, pdemand.source, pdemand.sink, c)
            .and_then(|set| DecompositionPlan::plan_on_set(pnet, pdemand, &set, opts, max_k)),
        None => find_bottleneck_set(pnet, pdemand.source, pdemand.sink, max_k)
            .and_then(|set| DecompositionPlan::plan_on_set(pnet, pdemand, &set, opts, max_k)),
    };
    match planned {
        Ok(plan) => {
            let plan = match &red {
                Some(r) => plan.with_reduction(r),
                None => plan,
            };
            write!(std::io::stdout(), "{}", plan.render()).map_err(CliError::stdout)?;
        }
        Err(e) => say!("plan: none ({e}); the strategy will fall back or fail accordingly"),
    }
    Ok(())
}

/// `--explain`, after the run: per-leaf-slot accounting from the plan
/// interpreter — how the configuration budget was apportioned across the
/// subtrees and what each sweep actually cost compared to the planner's
/// prediction. Empty for one-level (non-planned) runs.
fn explain_slots(slots: &[flowrel_core::PlanSlotReport]) -> Result<(), CliError> {
    if slots.is_empty() {
        return Ok(());
    }
    say!(
        "plan accounting: {} leaf slot{} (predicted = configs left at start; share = budget fraction granted)",
        slots.len(),
        if slots.len() == 1 { "" } else { "s" }
    );
    say!(
        "{:>6} {:>6} {:>12} {:>8} {:>12} {:>10}",
        "slot",
        "kind",
        "predicted",
        "share",
        "configs",
        "explored"
    );
    for s in slots {
        let share = if s.share > 0.0 {
            format!("{:.1}%", 100.0 * s.share)
        } else {
            "-".to_string()
        };
        say!(
            "{:>6} {:>6} {:>12.3e} {:>8} {:>12} {:>9.3}%",
            format!("#{}", s.index),
            s.kind,
            s.predicted,
            share,
            s.configs,
            100.0 * s.explored
        );
    }
    for s in slots.iter().filter(|s| s.kind == "mc") {
        say!(
            "slot #{} sampled: predicted exact cost {:.3e} configs exceeded its apportioned \
             budget share ({:.1}%), so the leaf ran the Monte-Carlo estimator instead \
             ({} samples drawn)",
            s.index,
            s.predicted,
            100.0 * s.share,
            s.configs
        );
    }
    Ok(())
}

fn cmd_compute(path: &str, flags: &Flags) -> Result<(), CliError> {
    let file = load(path)?;
    let demand = demand_of(&file)?;
    let strategy = match flags.value("--strategy") {
        None | Some("auto") => Strategy::Auto,
        Some("naive") => Strategy::Naive,
        Some("factoring") => Strategy::Factoring,
        Some("bridge") => {
            let r = reliability_bridge(&file.net, demand, &CalcOptions::default())?;
            say!("reliability = {r:.12}  (bridge decomposition)");
            return Ok(());
        }
        Some("sp") => {
            let r = reliability_sp_reduced(&file.net, demand, &CalcOptions::default())?;
            say!("reliability = {r:.12}  (series-parallel reduction + factoring)");
            return Ok(());
        }
        Some("mc") => Strategy::MonteCarlo(mc_settings(flags)?),
        Some(other) => return Err(CliError::usage(format!("unknown strategy '{other}'"))),
    };
    let time_limit = flags.positive("--timeout")?.map(Duration::from_secs_f64);
    let max_configs = flags.parsed("--max-configs", "a count")?;
    let checkpoint_path = flags
        .value("--checkpoint")
        .map_or_else(|| format!("{path}.ckpt"), str::to_string);
    // Shared two-stage handler: first SIGINT/SIGTERM trips the token (the
    // sweep stops at a clean cursor and writes its checkpoint), the second
    // hard-exits 128+signo. Shared with flowrel-server so both binaries
    // behave identically under init systems and Ctrl-C alike.
    let cancel: CancelToken = flowrel_shutdown::ShutdownSignal::install().token();
    let parallel_threshold = flags.parsed("--parallel-threshold", "a config count")?;
    let max_depth = flags.parsed("--max-depth", "a depth, 0 disables recursion")?;
    let defaults = CalcOptions::default();
    let hybrid = flags.has("--hybrid");
    let opts = CalcOptions {
        parallel: flags.has("--parallel"),
        certificate_cache: !flags.has("--no-certs"),
        incremental: !flags.has("--no-incremental"),
        reduce: !flags.has("--no-reduce"),
        parallel_threshold: parallel_threshold.unwrap_or(defaults.parallel_threshold),
        max_depth: max_depth.unwrap_or(defaults.max_depth),
        hybrid,
        // the sampling flags double as the hybrid leaf-estimator settings
        hybrid_mc: if hybrid {
            mc_settings(flags)?
        } else {
            defaults.hybrid_mc.clone()
        },
        budget: Budget {
            time_limit,
            max_configs,
            cancel: Some(cancel),
        },
        ..defaults
    };
    let calc = ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(opts);
    let explaining = flags.has("--explain");
    if explaining {
        explain(&file.net, demand, &calc.strategy, &calc.options)?;
    }
    let outcome = match flags.value("--resume") {
        Some(ck_path) => {
            let text = std::fs::read_to_string(ck_path)
                .map_err(|e| CliError::io(format!("{ck_path}: {e}")))?;
            let ck = Checkpoint::from_text(&text)?;
            calc.resume(&file.net, demand, &ck)?
        }
        None => calc.run(&file.net, demand)?,
    };
    let report = match outcome {
        Outcome::Complete(report) => report,
        Outcome::Partial(partial) => {
            std::fs::write(&checkpoint_path, partial.checkpoint.to_text())
                .map_err(|e| CliError::io(format!("{checkpoint_path}: {e}")))?;
            if explaining {
                if let Some(b) = &partial.bottleneck {
                    explain_slots(&b.plan_slots)?;
                }
            }
            if let Some(mc) = &partial.mc {
                say!(
                    "partial estimate: reliability in [{:.12}, {:.12}]  (via {}, 95% Wilson \
                     interval from {} samples — statistical, not certified)",
                    partial.r_low,
                    partial.r_high,
                    partial.algorithm,
                    mc.samples
                );
            } else {
                say!(
                    "partial result: reliability in [{:.12}, {:.12}]  (via {}, {:.3}% of the \
                     configuration space explored)",
                    partial.r_low,
                    partial.r_high,
                    partial.algorithm,
                    100.0 * partial.explored
                );
            }
            say!("checkpoint written to {checkpoint_path}");
            say!("resume with: flowrel compute {path} --resume {checkpoint_path}");
            let quality = if partial.certified {
                "certified"
            } else {
                "statistical (95% Wilson)"
            };
            return Err(CliError {
                code: EXIT_INCOMPLETE,
                message: format!(
                    "incomplete: budget exhausted, bounds [{:.12}, {:.12}] {quality}",
                    partial.r_low, partial.r_high
                ),
            });
        }
    };
    say!(
        "reliability = {:.12}  (via {})",
        report.reliability,
        report.algorithm
    );
    if report.certified {
        say!("certainty   : certified (exact enumeration)");
    } else {
        say!(
            "certainty   : statistical — 95% interval [{:.12}, {:.12}]",
            report.interval.0,
            report.interval.1
        );
    }
    if let Some(b) = report.bottleneck {
        say!(
            "bottleneck: {:?}  |E_s|={} |E_t|={} alpha={:.3} |D|={}",
            b.set.edges,
            b.set.side_s_edges,
            b.set.side_t_edges,
            b.alpha,
            b.assignment_count
        );
        if b.sweep.configs > 0 {
            say!(
                "sweep: {} configs, {} solver calls, {} avoided by certificates ({:.1}% hit rate)",
                b.sweep.configs,
                b.sweep.solver_calls,
                b.sweep.solver_calls_avoided(),
                100.0 * b.sweep.hit_rate()
            );
        }
        if b.sweep.flips > 0 || b.sweep.full_resolves > 0 {
            say!(
                "warm repair: {} edge flips absorbed, {} paths cancelled, {} full re-solves",
                b.sweep.flips,
                b.sweep.repairs,
                b.sweep.full_resolves
            );
        }
        if explaining {
            explain_slots(&b.plan_slots)?;
        }
    }
    if let Some(mc) = report.mc {
        if mc.exact {
            say!(
                "mc: value classified exactly ({} flow evals, no sampling needed)",
                mc.flow_evals
            );
        } else {
            say!(
                "mc: 95% CI [{:.12}, {:.12}]  se={:.3e}  {} samples, {} flow evals",
                mc.ci_low,
                mc.ci_high,
                mc.std_error,
                mc.samples,
                mc.flow_evals
            );
        }
    }
    if flags.has("--exact") {
        let exact = reliability_naive_exact(&file.net, demand, &CalcOptions::default())?;
        say!("exact       = {exact}");
        say!("            = {}…", exact.to_decimal_string(15));
    }
    Ok(())
}

fn cmd_analyze(path: &str, flags: &Flags) -> Result<(), CliError> {
    let file = load(path)?;
    let net = &file.net;
    say!(
        "{} network: {} nodes, {} links",
        match net.kind() {
            netgraph::GraphKind::Directed => "directed",
            netgraph::GraphKind::Undirected => "undirected",
        },
        net.node_count(),
        net.edge_count()
    );
    let bridges = find_bridges(net);
    say!("bridges: {bridges:?}");
    let Some(demand) = file.demand else {
        say!("(no demand line: skipping demand-specific analysis)");
        return Ok(());
    };
    let max_k: usize = flags.parsed("--max-k", "a set size")?.unwrap_or(3);
    let cut = maxflow::min_cut(net, demand.source, demand.sink, maxflow::SolverKind::Dinic);
    say!(
        "max flow {} -> {}: {} (min cut {:?})",
        demand.source,
        demand.sink,
        cut.value,
        cut.edges
    );
    match find_bottleneck_set(net, demand.source, demand.sink, max_k) {
        Ok(set) => say!(
            "best bottleneck set (k <= {max_k}): {:?}  |E_s|={} |E_t|={} alpha={:.3}",
            set.edges,
            set.side_s_edges,
            set.side_t_edges,
            set.alpha(net.edge_count())
        ),
        Err(e) => say!("bottleneck search: {e}"),
    }
    if demand.demand == 1 && net.edge_count() <= 20 {
        if let Ok((lo, hi)) = esary_proschan_bounds(net, demand, 100_000) {
            say!("Esary-Proschan bounds: [{lo:.6}, {hi:.6}]");
        }
        if let Ok(cuts) = enumerate_minimal_cuts(net, demand.source, demand.sink, 4) {
            say!("minimal cut sets (size <= 4): {}", cuts.len());
        }
    }
    Ok(())
}

/// `flowrel mc`: shorthand for `compute --strategy mc --mc-estimator crude`
/// with its own defaults of 100 000 samples and seed 1.
fn cmd_mc(path: &str, flags: &Flags) -> Result<(), CliError> {
    let samples = flags.value("--samples").unwrap_or("100000");
    let seed = flags.value("--seed").unwrap_or("1");
    let args = ["--strategy", "mc", "--mc-estimator", "crude"];
    let args = [&args[..], &["--samples", samples, "--seed", seed]].concat();
    let args: Vec<String> = args.into_iter().map(String::from).collect();
    cmd_compute(path, &Flags::parse("compute", &args, COMPUTE_FLAGS)?)
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    use workloads::generators::{
        barbell, bridge_chain, degraded_barbell, grid, slack_barbell, BarbellParams, Instance,
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::usage(format!("generate: unknown flag '{flag}'")));
    }
    let parse_or = |i: usize, default: u64| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let n = |i: usize, default: u64| parse_or(i, default) as usize;
    let barbell_params = || BarbellParams {
        cluster_nodes: n(1, 4),
        cluster_extra_edges: n(2, 2),
        cut_links: n(3, 2),
        cut_capacity: parse_or(4, 2),
        demand: parse_or(4, 2),
        seed: parse_or(5, 1),
    };
    let with_demand = |inst: Instance| {
        let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
        (inst.net, demand)
    };
    let (net, demand) = match args.first().map(String::as_str) {
        Some("barbell") => with_demand(barbell(barbell_params()).0),
        Some("degraded-barbell") => with_demand(degraded_barbell(barbell_params()).0),
        Some("chain") => with_demand(bridge_chain(n(1, 3), parse_or(2, 1), parse_or(3, 1))),
        Some("grid") => with_demand(grid(n(1, 3), n(2, 3), parse_or(3, 1))),
        Some("slack-barbell") => with_demand(slack_barbell(n(1, 3), n(2, 2), parse_or(3, 1))),
        Some("mesh") => {
            let peers: Vec<flowrel_overlay::Peer> = (0..parse_or(1, 8))
                .map(|i| flowrel_overlay::Peer::new(4, 300.0 + 60.0 * (i % 5) as f64))
                .collect();
            let sc = flowrel_overlay::random_mesh(
                &peers,
                n(2, 2),
                parse_or(3, 1),
                &flowrel_overlay::ChurnModel::new(90.0),
                parse_or(4, 1),
            );
            let Some(&sub) = sc.peers.last() else {
                return Err(CliError::usage("mesh: need at least one peer"));
            };
            (sc.net, FlowDemand::new(sc.server, sub, sc.stream_rate))
        }
        _ => {
            return Err(CliError::usage(
                "generate: expected barbell|chain|grid|mesh|slack-barbell|degraded-barbell",
            ))
        }
    };
    let text = format::serialize(&net, Some(demand));
    write!(std::io::stdout(), "{text}").map_err(CliError::stdout)
}

fn cmd_importance(path: &str) -> Result<(), CliError> {
    let file = load(path)?;
    let demand = demand_of(&file)?;
    let imp = birnbaum_importance(&file.net, demand, &CalcOptions::default())?;
    say!("reliability = {:.9}", imp.reliability);
    say!(
        "{:>6} {:>14} {:>12} {:>12}  link",
        "rank",
        "potential",
        "birnbaum",
        "p(e)"
    );
    for (rank, &e) in imp.ranked().iter().enumerate() {
        let edge = file.net.edge(netgraph::EdgeId::from(e));
        say!(
            "{:>6} {:>14.6} {:>12.6} {:>12.4}  e{e}: {} -> {}",
            rank + 1,
            imp.improvement[e],
            imp.birnbaum[e],
            edge.fail_prob,
            edge.src,
            edge.dst
        );
    }
    Ok(())
}

fn cmd_dot(path: &str) -> Result<(), CliError> {
    let file = load(path)?;
    write!(
        std::io::stdout(),
        "{}",
        netgraph::dot::to_dot(&file.net, &[])
    )
    .map_err(CliError::stdout)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match (cmd.as_str(), rest.split_first()) {
        ("compute", Some((path, args))) => {
            Flags::parse(cmd, args, COMPUTE_FLAGS).and_then(|f| cmd_compute(path, &f))
        }
        ("analyze", Some((path, args))) => {
            Flags::parse(cmd, args, ANALYZE_FLAGS).and_then(|f| cmd_analyze(path, &f))
        }
        ("mc", Some((path, args))) => {
            Flags::parse(cmd, args, MC_FLAGS).and_then(|f| cmd_mc(path, &f))
        }
        ("importance", Some((path, args))) => {
            Flags::parse(cmd, args, "").and_then(|_| cmd_importance(path))
        }
        ("generate", _) => cmd_generate(rest),
        ("dot", Some((path, args))) => Flags::parse(cmd, args, "").and_then(|_| cmd_dot(path)),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.code == 0 => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
