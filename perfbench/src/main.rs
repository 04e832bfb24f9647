//! flowrel benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decomp|sweep|mc|server> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The workload seed generates the `.fnet` corpus; the program under test
//! only receives that text. With `--trace 0` the run measures end-to-end
//! metrics untraced; with `--trace 1` it alternates untraced and traced ops
//! and reports per-layer self times, the layers' own counters, and the
//! tracing overhead. Every answer is checked; a wrong answer counts as a
//! failed op and makes the command exit 1 after printing its result. The
//! last line of standard output is the result JSON; the line before it
//! carries the run's metadata. See `perfbench/README.md`.

mod corpus;
mod exact;
mod mc;
mod report;
mod server;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use report::{end_to_end, ms, Measured, RunOutput};
use trace::{Tracer, OP_SPAN};

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of the run spent warming up before timing starts.
const WARMUP_SHARE: f64 = 0.1;

/// Every per-layer metric, in output order. A workload whose layers do no
/// work reports 0 for theirs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fnet.parse_ms", "ms"),
    ("reduce.ms", "ms"),
    ("reduce.fallible_ratio", "ratio"),
    ("bottleneck.ms", "ms"),
    ("bottleneck.found_ratio", "ratio"),
    ("plan.build_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("plan.leaves", "count"),
    ("plan.cost_error", "ratio"),
    ("accumulate.ms", "ms"),
    ("accumulate.mask_entries", "count"),
    ("sweep.ms", "ms"),
    ("sweep.configs", "count"),
    ("sweep.configs_per_s", "1/s"),
    ("sweep.cert_hit_ratio", "ratio"),
    ("sweep.solver_calls", "count"),
    ("sweep.repair_ratio", "ratio"),
    ("sweep.full_resolves", "count"),
    ("sweep.threads", "count"),
    ("sweep.speedup_vs_serial", "x"),
    ("mc.ms", "ms"),
    ("mc.samples", "count"),
    ("mc.flow_evals", "count"),
    ("mc.evals_per_sample", "ratio"),
    ("server.ms", "ms"),
    ("server.hit_rtt_p50_ms", "ms"),
    ("server.result_hit_ratio", "ratio"),
    ("server.parse_hit_ratio", "ratio"),
    ("server.shed_ratio", "ratio"),
    ("server.wire_overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose self time makes up each per-layer time metric.
const LAYER_SPANS: &[(&str, &[&str])] = &[
    ("fnet.parse_ms", &["fnet.parse"]),
    ("reduce.ms", &["reduce"]),
    ("bottleneck.ms", &["bottleneck"]),
    ("plan.build_ms", &["plan.build"]),
    ("plan.execute_ms", &["plan.execute", "plan.decompose"]),
    ("accumulate.ms", &["accumulate"]),
    ("sweep.ms", &["sweep"]),
    ("mc.ms", &["mc"]),
    ("server.ms", &["server.compute", "server.resume"]),
];

/// Numbers taken from spans of re-driven one-level splits rather than from
/// the calculator's own `execute`.
const REDRIVEN: &[&str] = &[
    "sweep.ms",
    "sweep.configs_per_s",
    "accumulate.ms",
    "accumulate.mask_entries",
    "sweep.speedup_vs_serial",
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["decomp", "sweep", "mc", "server"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of decomp, sweep, mc, server (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A workload driven by one thread in a closed loop.
pub trait Workload {
    /// Number of distinct ops; op `i` is op `i mod cases()`.
    fn cases(&self) -> usize;
    /// Runs op `i` untraced and checks its answer.
    fn op(&mut self, i: u64) -> Result<(), String>;
    /// Runs op `i` layer by layer with spans, and checks its answer.
    fn traced_op(&mut self, i: u64, t: &mut Tracer) -> Result<(), String>;
    /// Notes the untraced wall time of op `i` in a traced run.
    fn record_untraced(&mut self, _i: u64, _wall_ms: f64) {}
    /// Per-layer counts and ratios from what the layers returned, given
    /// the traced self time per span name.
    fn layer_metrics(&mut self, out: &mut RunOutput, self_ns: &BTreeMap<&'static str, u64>);
    /// Serial time over parallel time of the same ops (1 for serial runs).
    fn speedup_vs_serial(&mut self) -> Result<f64, String> {
        Ok(1.0)
    }
    /// Adds the corpus description to the metadata.
    fn describe(&self, out: &mut RunOutput);
}

fn fail(out: &mut RunOutput, err: String) {
    if out.failed < 5 {
        eprintln!("perfbench: FAILED: {err}");
    }
    out.failed += 1;
    out.correct = false;
}

/// Sets up `reps` times (keeping the last) and returns the set-up times.
fn set_up<W>(reps: usize, setup: &dyn Fn() -> Result<W, String>) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn run_single<W: Workload>(
    args: &Args,
    setup: &dyn Fn() -> Result<W, String>,
) -> Result<RunOutput, String> {
    let reps = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    };
    let (mut w, setup_s) = set_up(reps, setup)?;
    let mut out = RunOutput {
        correct: true,
        ..Default::default()
    };
    w.describe(&mut out);
    let budget = Duration::from_secs_f64(args.seconds);

    // warm-up: lazy set-up and allocator growth happen before timing
    let warm = Instant::now();
    for i in 0..w.cases() as u64 {
        if let Err(e) = w.op(i) {
            eprintln!("perfbench: FAILED in warm-up: {e}");
            out.correct = false;
        }
        if warm.elapsed().as_secs_f64() >= args.seconds * WARMUP_SHARE {
            break;
        }
    }

    if !args.trace {
        let mut lat = Vec::new();
        let cpu0 = report::cpu_ms();
        let t0 = Instant::now();
        let mut marks = vec![(0.0, 0.0, 0)];
        let mut i = 0u64;
        loop {
            let s = Instant::now();
            let r = w.op(i);
            lat.push(ms(s.elapsed()));
            out.attempted += 1;
            if let Err(e) = r {
                fail(&mut out, e);
            }
            i += 1;
            if i.is_multiple_of(w.cases() as u64) {
                // a whole pass over the corpus closes a rate window
                marks.push((t0.elapsed().as_secs_f64(), report::cpu_ms() - cpu0, i));
            }
            if t0.elapsed() >= budget {
                break;
            }
        }
        let m = Measured {
            latencies_ms: lat,
            wall: t0.elapsed(),
            cpu_ms: report::cpu_ms() - cpu0,
            setup_s,
            marks,
        };
        end_to_end(&mut out, &m);
        return Ok(out);
    }

    // traced run: each op runs untraced, then traced, so both see the same
    // ops; the difference is the tracing overhead
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut i = 0u64;
    loop {
        let s = Instant::now();
        let r = w.op(i);
        let wall = s.elapsed();
        untraced_ns += wall.as_nanos() as u64;
        w.record_untraced(i, ms(wall));
        out.attempted += 1;
        if let Err(e) = r {
            fail(&mut out, e);
        }
        let op = tracer.begin_op(i);
        let r = w.traced_op(i, &mut tracer);
        traced_ns += tracer.end_op(op);
        out.attempted += 1;
        if let Err(e) = r {
            fail(&mut out, format!("traced: {e}"));
        }
        i += 1;
        if epoch.elapsed() >= budget {
            break;
        }
    }
    let speedup = w.speedup_vs_serial();
    let self_ns = tracer.self_ns();
    w.layer_metrics(&mut out, &self_ns);
    match speedup {
        Ok(x) => out.metric("sweep.speedup_vs_serial", x, "x"),
        Err(e) => fail(&mut out, format!("serial comparison: {e}")),
    }
    span_metrics(&mut out, &self_ns, i, untraced_ns, traced_ns);
    write_spans(args, &tracer);
    Ok(out)
}

/// Per-layer self times (ms per traced op), coverage, and overhead.
fn span_metrics(
    out: &mut RunOutput,
    self_ns: &BTreeMap<&'static str, u64>,
    ops: u64,
    untraced_ns: u64,
    traced_ns: u64,
) {
    let ops = ops.max(1) as f64;
    for (metric, spans) in LAYER_SPANS {
        let ns: u64 = spans.iter().filter_map(|s| self_ns.get(s)).sum();
        out.metric(metric, ns as f64 / 1e6 / ops, "ms");
    }
    let layers_ns: u64 = self_ns
        .iter()
        .filter(|(name, _)| **name != OP_SPAN)
        .map(|(_, ns)| ns)
        .sum();
    let untraced = untraced_ns.max(1) as f64;
    out.metric("trace.coverage", layers_ns as f64 / untraced, "ratio");
    out.metric(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced - 1.0,
        "ratio",
    );
    let breakdown: Vec<String> = self_ns
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {}", report::num(*ns as f64 / 1e6 / ops)))
        .collect();
    out.meta("self_ms_per_op", format!("{{{}}}", breakdown.join(", ")));
    out.meta("traced_ops", report::num(ops));
    let redriven: Vec<String> = REDRIVEN.iter().map(|s| report::json_str(s)).collect();
    out.meta("redriven", format!("[{}]", redriven.join(", ")));
}

fn write_spans(args: &Args, tracer: &Tracer) {
    // beside the benchmark's sources, whatever the working directory
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

/// Fills 0 for any metric of `list` a workload did not report.
fn complete(out: &mut RunOutput, list: &[(&str, &'static str)]) {
    for (name, unit) in list {
        if !out.metrics.iter().any(|m| m.name == *name) {
            out.metric(name, 0.0, unit);
        }
    }
    out.metrics.sort_by_key(|m| {
        list.iter()
            .position(|(n, _)| *n == m.name)
            .unwrap_or(usize::MAX)
    });
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let (seed, smoke) = (args.seed, args.smoke);
    let mut out = match args.workload.as_str() {
        "decomp" => run_single(args, &|| {
            exact::decomp_corpus(seed, smoke).map(exact::Exact::new)
        })?,
        "sweep" => run_single(args, &|| {
            exact::sweep_corpus(seed, smoke).map(exact::Exact::new)
        })?,
        "mc" => run_single(args, &|| mc::Mc::setup(seed, smoke))?,
        "server" => server::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    complete(&mut out, list);
    out.meta_str("workload", &args.workload);
    out.meta("seed", args.seed.to_string());
    out.meta("seconds", report::num(args.seconds));
    out.meta("trace", args.trace.to_string());
    out.meta("rayon_threads", rayon::current_num_threads().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.meta("nproc", nproc.to_string());
    out.meta_str("git_commit", &report::git_commit());
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.meta_json());
            println!("{}", out.result_json());
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names and units listed in the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value") + 1..];
                    rest[..rest.find('"').expect("value ends")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn smoke(workload: &str, trace: bool) -> RunOutput {
        let args = Args {
            workload: workload.into(),
            seed: 9_001,
            seconds: 0.3,
            trace,
            smoke: true,
        };
        run(&args).unwrap_or_else(|e| panic!("{workload} smoke run failed: {e}"))
    }

    fn assert_emits(out: &RunOutput, section: &str) {
        for (name, unit) in declared(section) {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"));
            assert_eq!(m.unit, unit, "unit of {name}");
            assert!(m.value.is_finite());
        }
    }

    fn check_workload(workload: &str) {
        let plain = smoke(workload, false);
        assert!(plain.correct, "{workload}: gate failed");
        assert!(plain.attempted >= 1 && plain.failed == 0);
        assert_emits(&plain, "end_to_end");
        let traced = smoke(workload, true);
        assert!(traced.correct, "{workload}: traced gate failed");
        assert_emits(&traced, "per_layer");
        let line = plain.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }

    #[test]
    fn smoke_decomp() {
        check_workload("decomp");
    }

    #[test]
    fn smoke_sweep() {
        check_workload("sweep");
    }

    #[test]
    fn smoke_mc() {
        check_workload("mc");
    }

    #[test]
    fn smoke_server() {
        check_workload("server");
    }

    #[test]
    fn declared_metrics_match_the_emitted_lists() {
        let names = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload mc --seed 3 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload mc --trace 2")).is_err());
        assert!(parse_args(&argv("--workload mc --bogus 1")).is_err());
    }
}
