//! The `server` workload: an in-process `flowrel-server` on loopback, driven
//! by two client threads of this process, each with one connection, in a
//! closed loop. The seeded mix is hot repeats of a set smaller than the
//! server's 64-entry cache (reads), cold distinct instances that overflow it
//! (writes and evictions), and requests with a `max_configs` budget that come
//! back partial and are then resumed by token.
//!
//! An op is one request answered. Answers must equal the in-process
//! calculator's bit for bit; a partial interval must contain the exact value
//! and its resume must land on it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flowrel_core::{fnet, Budget, CalcOptions, CancelToken, ReliabilityCalculator};
use flowrel_server::{
    start, BindAddr, Client, ComputeRequest, Response, ServerConfig, ServerHandle, StrategySpec,
};
use workloads::generators::{barbell, BarbellParams};

use crate::corpus::{redraw_probabilities, text, Rng};
use crate::exact::EXACT_TOL;
use crate::report::{self, ms, Measured, RunOutput};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPS};

/// Client connections (one thread each).
const CLIENTS: usize = 2;
/// Shares of the request mix: hot, then cold; the rest is budgeted.
const HOT_SHARE: f64 = 0.80;
const COLD_SHARE: f64 = 0.15;
/// Configuration allowance of a budgeted request.
const BUDGET_CONFIGS: u64 = 256;
/// The server's default request deadline, which the in-process reference
/// uses too so both take the same budgeted code paths.
const DEADLINE: Duration = Duration::from_secs(30);

struct Inst {
    text: String,
    reference: f64,
    /// In-process compute time measured in set-up.
    inproc_ms: f64,
}

struct Pools {
    hot: Vec<Inst>,
    cold: Vec<Inst>,
    budget: Vec<Inst>,
}

/// A started server; dropping it drains and joins the server.
struct Running {
    handle: Option<ServerHandle>,
    addr: BindAddr,
    pools: Pools,
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.begin_shutdown();
            h.join();
        }
    }
}

fn server_calculator(max_configs: Option<u64>) -> ReliabilityCalculator {
    ReliabilityCalculator::new().with_options(CalcOptions {
        parallel: false,
        budget: Budget {
            time_limit: Some(DEADLINE),
            max_configs,
            cancel: Some(CancelToken::new()),
        },
        ..CalcOptions::default()
    })
}

/// Fixed structures; every instance redraws its failure probabilities, so
/// instances are distinct to the cache while the work per structure stays
/// the same across seeds.
fn structures(smoke: bool, budgeted: bool) -> Vec<String> {
    let (nodes, extra, seeds): (usize, usize, &[u64]) = match (smoke, budgeted) {
        (true, false) => (4, 2, &[1]),
        (true, true) => (5, 3, &[1]),
        (false, false) => (6, 4, &[1, 2, 3, 4]),
        (false, true) => (7, 5, &[1, 2]),
    };
    seeds
        .iter()
        .map(|&seed| {
            text(
                &barbell(BarbellParams {
                    cluster_nodes: nodes,
                    cluster_extra_edges: extra,
                    cut_links: 2,
                    cut_capacity: 2,
                    demand: 2,
                    seed,
                })
                .0,
            )
        })
        .collect()
}

fn pool(rng: &mut Rng, shapes: &[String], n: usize) -> Result<Vec<Inst>, String> {
    (0..n)
        .map(|i| {
            let t = redraw_probabilities(&shapes[i % shapes.len()], rng);
            let nf = fnet::parse(&t).map_err(|e| format!("parse: {e}"))?;
            let d = nf.demand.ok_or("no demand")?;
            let t0 = Instant::now();
            let r = server_calculator(None)
                .run_complete(&nf.net, d)
                .map_err(|e| format!("in-process reference: {e}"))?;
            Ok(Inst {
                text: t,
                reference: r.reliability,
                inproc_ms: ms(t0.elapsed()),
            })
        })
        .collect()
}

fn setup(seed: u64, smoke: bool) -> Result<Running, String> {
    let mut rng = Rng::new(seed);
    let (hot, cold, budget) = if smoke { (4, 8, 2) } else { (16, 96, 24) };
    let plain = structures(smoke, false);
    let pools = Pools {
        hot: pool(&mut rng, &plain, hot)?,
        cold: pool(&mut rng, &plain, cold)?,
        budget: pool(&mut rng, &structures(smoke, true), budget)?,
    };
    let handle = start(ServerConfig {
        addr: BindAddr::Tcp("127.0.0.1:0".into()),
        max_concurrent: CLIENTS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Running {
        addr: handle.addr().clone(),
        handle: Some(handle),
        pools,
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot,
    Cold,
    Budget,
    Resume,
}

/// One answered request.
struct Sample {
    kind: Kind,
    rtt_ms: f64,
    cached: bool,
    traced: bool,
    /// Round trip minus the in-process compute time, for cold misses.
    wire_ms: Option<f64>,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    budget_served_cached: u64,
    resumed_bit_identical: u64,
}

fn request(text: &str, max_configs: Option<u64>) -> ComputeRequest {
    ComputeRequest {
        net: text.to_string(),
        strategy: StrategySpec::Auto,
        timeout_ms: None,
        max_configs,
        hybrid: false,
        checkpoint: None,
    }
}

/// Sends one request, inside a span when traced.
fn timed<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.time(name, f),
        None => f(),
    };
    (out, ms(t0.elapsed()))
}

fn complete_value(resp: &Response) -> Result<(f64, bool), String> {
    match resp {
        Response::Complete {
            reliability,
            cached,
            ..
        } => Ok((*reliability, *cached)),
        Response::Error(e) => Err(format!("server error {e}")),
        other => Err(format!("expected a complete answer, got {other:?}")),
    }
}

struct Shared<'a> {
    pools: &'a Pools,
    cold_next: AtomicUsize,
    budget_next: AtomicUsize,
    /// Requests answered so far, by both clients.
    answered: AtomicU64,
}

/// One client's closed loop until `deadline`; in a traced run every other
/// op is traced.
fn client_loop(
    addr: &BindAddr,
    shared: &Shared,
    seed: u64,
    deadline: Instant,
    trace: Option<Instant>,
) -> Result<(ClientLog, Option<Tracer>), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(seed);
    let mut log = ClientLog::default();
    let mut tracer = trace.map(Tracer::new);
    let pools = shared.pools;
    let mut op = 0u64;
    while Instant::now() < deadline {
        let traced = tracer.is_some() && op % 2 == 1;
        let mut t = if traced { tracer.as_mut() } else { None };
        let span = t.as_mut().map(|t| t.begin_op(op));
        let pick = rng.unit();
        let (kind, inst) = if pick < HOT_SHARE {
            (
                Kind::Hot,
                &pools.hot[rng.below(pools.hot.len() as u64) as usize],
            )
        } else if pick < HOT_SHARE + COLD_SHARE {
            let j = shared.cold_next.fetch_add(1, Ordering::Relaxed);
            (Kind::Cold, &pools.cold[j % pools.cold.len()])
        } else {
            let j = shared.budget_next.fetch_add(1, Ordering::Relaxed);
            (Kind::Budget, &pools.budget[j % pools.budget.len()])
        };
        let max_configs = (kind == Kind::Budget).then_some(BUDGET_CONFIGS);
        log.attempted += 1;
        let (resp, rtt) = timed(t.as_deref_mut(), "server.compute", || {
            client.compute(request(&inst.text, max_configs))
        });
        let resp = resp.map_err(|e| format!("transport: {e}"))?;
        let record = |log: &mut ClientLog, kind, rtt_ms, cached, wire_ms| {
            shared.answered.fetch_add(1, Ordering::Relaxed);
            log.samples.push(Sample {
                kind,
                rtt_ms,
                cached,
                traced,
                wire_ms,
            })
        };
        match (&resp, kind) {
            (
                Response::Partial {
                    r_low,
                    r_high,
                    token,
                    ..
                },
                Kind::Budget,
            ) => {
                let r = inst.reference;
                if !(*r_low - EXACT_TOL <= r && r <= *r_high + EXACT_TOL) {
                    log.failures.push(format!(
                        "partial [{r_low}, {r_high}] does not contain exact {r}"
                    ));
                }
                record(&mut log, Kind::Budget, rtt, false, None);
                log.attempted += 1;
                let (resumed, rtt) =
                    timed(t.as_deref_mut(), "server.resume", || client.resume(token));
                let resumed = resumed.map_err(|e| format!("transport: {e}"))?;
                match complete_value(&resumed) {
                    Ok((v, _)) if (v - r).abs() <= EXACT_TOL => {
                        log.resumed_bit_identical += u64::from(v.to_bits() == r.to_bits());
                        record(&mut log, Kind::Resume, rtt, false, None);
                    }
                    Ok((v, _)) => log
                        .failures
                        .push(format!("resumed answer {v:.17} is not exact {r:.17}")),
                    Err(e) => log.failures.push(format!("resume: {e}")),
                }
            }
            _ => match complete_value(&resp) {
                Ok((v, cached)) if v.to_bits() == inst.reference.to_bits() => {
                    if kind == Kind::Budget {
                        // an earlier complete answer was still cached
                        log.budget_served_cached += 1;
                    }
                    let wire = (kind == Kind::Cold && !cached).then_some(rtt - inst.inproc_ms);
                    record(&mut log, kind, rtt, cached, wire);
                }
                Ok((v, _)) => log.failures.push(format!(
                    "server answered {v:.17}, in-process {:.17}",
                    inst.reference
                )),
                Err(e) => log.failures.push(e),
            },
        }
        if let (Some(t), Some(id)) = (t, span) {
            t.end_op(id);
        }
        op += 1;
    }
    Ok((log, tracer))
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let reps = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    };
    let (running, setup_s) = crate::set_up(reps, &|| setup(args.seed, args.smoke))?;
    let pools = &running.pools;
    let mut out = RunOutput {
        correct: true,
        ..Default::default()
    };
    out.meta(
        "corpus",
        format!(
            "{{\"hot\": {}, \"cold\": {}, \"budgeted\": {}, \"budget_configs\": {BUDGET_CONFIGS}, \"clients\": {CLIENTS}}}",
            pools.hot.len(),
            pools.cold.len(),
            pools.budget.len()
        ),
    );

    // warm-up: every hot instance once, so hot requests start cached
    let mut warm = Client::connect(&running.addr).map_err(|e| format!("connect: {e}"))?;
    for inst in &pools.hot {
        let resp = warm
            .compute(request(&inst.text, None))
            .map_err(|e| format!("transport: {e}"))?;
        match complete_value(&resp) {
            Ok((v, _)) if v.to_bits() == inst.reference.to_bits() => {}
            other => {
                eprintln!("perfbench: FAILED in warm-up: {other:?}");
                out.correct = false;
            }
        }
    }
    drop(warm);

    let handle = running.handle.as_ref().expect("server running");
    let before = handle.stats();
    let shared = Shared {
        pools,
        cold_next: AtomicUsize::new(0),
        budget_next: AtomicUsize::new(0),
        answered: AtomicU64::new(0),
    };
    let cpu0 = report::cpu_ms();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let epoch = args.trace.then_some(t0);
    let mut marks = vec![(0.0, 0.0, 0)];
    let results: Vec<Result<(ClientLog, Option<Tracer>), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, shared) = (&running.addr, &shared);
                let seed = args.seed.wrapping_mul(31).wrapping_add(c as u64 + 1);
                s.spawn(move || client_loop(addr, shared, seed, deadline, epoch))
            })
            .collect();
        // one rate window per whole second
        let mut next = t0 + Duration::from_secs(1);
        while next <= deadline {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            let answered = shared.answered.load(Ordering::Relaxed);
            marks.push((
                next.duration_since(t0).as_secs_f64(),
                report::cpu_ms() - cpu0,
                answered,
            ));
            next += Duration::from_secs(1);
        }
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = t0.elapsed();
    let cpu = report::cpu_ms() - cpu0;
    let after = handle.stats();

    let mut samples = Vec::new();
    let mut tracer = Tracer::new(t0);
    let (mut budget_cached, mut bit_identical) = (0, 0);
    for r in results {
        let (log, t) = r?;
        out.attempted += log.attempted;
        for f in log.failures {
            crate::fail(&mut out, f);
        }
        budget_cached += log.budget_served_cached;
        bit_identical += log.resumed_bit_identical;
        samples.extend(log.samples);
        if let Some(t) = t {
            tracer.absorb(t);
        }
    }
    // a shed request comes back as an error reply, already failed above
    let shed = after.shed - before.shed;
    out.meta("budget_requests_served_cached", budget_cached.to_string());
    out.meta("resumes_bit_identical", bit_identical.to_string());
    let count = |k: Kind| samples.iter().filter(|s| s.kind == k).count();
    out.meta(
        "requests",
        format!(
            "{{\"hot\": {}, \"cold\": {}, \"budget\": {}, \"resume\": {}}}",
            count(Kind::Hot),
            count(Kind::Cold),
            count(Kind::Budget),
            count(Kind::Resume)
        ),
    );

    if !args.trace {
        let m = Measured {
            latencies_ms: samples.iter().map(|s| s.rtt_ms).collect(),
            wall,
            cpu_ms: cpu,
            setup_s,
            marks,
        };
        report::end_to_end(&mut out, &m);
        return Ok(out);
    }

    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.rtt_ms)
        .collect();
    out.metric("server.hit_rtt_p50_ms", report::median(&hits), "ms");
    let served = after.served - before.served;
    out.metric(
        "server.result_hit_ratio",
        ratio(after.result_hits - before.result_hits, served),
        "ratio",
    );
    let (ph, pm) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    out.metric("server.parse_hit_ratio", ratio(ph, ph + pm), "ratio");
    out.metric("server.shed_ratio", ratio(shed, served), "ratio");
    let wire: Vec<f64> = samples.iter().filter_map(|s| s.wire_ms).collect();
    out.metric("server.wire_overhead_ms", report::median(&wire), "ms");
    let sum = |traced: bool| -> (f64, usize) {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.rtt_ms)
            .collect();
        (v.iter().sum(), v.len())
    };
    let ((_, tr_n), (un_ms, un_n)) = (sum(true), sum(false));
    // the traced ops' untraced counterpart: the mean untraced request
    let untraced_ns = (un_ms / un_n.max(1) as f64 * tr_n as f64 * 1e6) as u64;
    let traced_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let ops = tracer.spans().iter().filter(|s| s.parent.is_none()).count() as u64;
    crate::span_metrics(
        &mut out,
        &tracer.self_ns(),
        ops,
        untraced_ns.max(1),
        traced_ns,
    );
    crate::write_spans(args, &tracer);
    Ok(out)
}
