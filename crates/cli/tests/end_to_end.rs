//! End-to-end CLI checks. The library-level round trips check that
//! generate → serialize → parse → compute agrees with a direct computation
//! for every generator the CLI exposes; the binary-level checks drive the
//! `flowrel` executable itself (flag validation, the `mc` shorthand, and
//! output into a closed pipe).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use flowrel_core::fnet as format;
use flowrel_core::{reliability_factoring, CalcOptions, FlowDemand, ReliabilityCalculator};

fn flowrel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowrel"))
        .args(args)
        .output()
        .expect("run flowrel")
}

/// Writes `flowrel generate <args>` to a per-test file in the temp dir.
fn generated(name: &str, args: &[&str]) -> PathBuf {
    let out = flowrel(&[&["generate"], args].concat());
    assert!(out.status.success(), "generate {args:?}: {out:?}");
    let path = std::env::temp_dir().join(format!("flowrel-e2e-{}-{name}.fnet", std::process::id()));
    std::fs::write(&path, &out.stdout).expect("write instance");
    path
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = flowrel(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let path = generated("flags", &["barbell", "4", "2", "2", "2", "7"]);
    let file = path.to_str().unwrap();
    assert_usage_error(
        &["compute", file, "--timout", "1"],
        "unknown flag '--timout'",
    );
    assert_usage_error(&["mc", file, "--sample", "10"], "unknown flag '--sample'");
    assert_usage_error(&["mc", file, "--timeout", "1"], "unknown flag '--timeout'");
    assert_usage_error(&["analyze", file, "--max-k"], "--max-k needs a value");
    assert_usage_error(
        &["compute", file, "--seed", "--parallel"],
        "--seed needs a value",
    );
    assert_usage_error(&["compute", file, "stray"], "unexpected argument 'stray'");
    assert_usage_error(&["dot", file, "--explain"], "unknown flag '--explain'");
    assert_usage_error(
        &["generate", "grid", "3", "3", "--seed"],
        "unknown flag '--seed'",
    );
    // accepted flags still parse, switches included
    let out = flowrel(&[
        "compute",
        file,
        "--explain",
        "--max-depth",
        "0",
        "--no-certs",
    ]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(path).ok();
}

#[test]
fn mc_shorthand_prints_the_same_estimate_as_compute_crude() {
    let path = generated("mc", &["barbell", "4", "2", "2", "2", "7"]);
    let file = path.to_str().unwrap();
    let sampling = ["--samples", "20000", "--seed", "7"];
    let mc = flowrel(&[&["mc", file][..], &sampling].concat());
    let compute = flowrel(
        &[
            &[
                "compute",
                file,
                "--strategy",
                "mc",
                "--mc-estimator",
                "crude",
            ][..],
            &sampling,
        ]
        .concat(),
    );
    assert!(mc.status.success(), "{mc:?}");
    assert!(compute.status.success(), "{compute:?}");
    let text = String::from_utf8_lossy(&mc.stdout);
    assert!(text.contains("montecarlo:crude"), "{text}");
    assert!(text.contains("20000 samples"), "{text}");
    assert_eq!(mc.stdout, compute.stdout);
    std::fs::remove_file(path).ok();
}

#[test]
fn mc_samples_multistate_files() {
    let path = generated("mc-deg", &["degraded-barbell", "4", "2", "3", "2", "7"]);
    let out = flowrel(&["mc", path.to_str().unwrap(), "--samples", "5000"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("reliability = "));
    std::fs::remove_file(path).ok();
}

/// Asserts a run whose reader went away exited quietly, not by a panic.
fn assert_quiet_exit(child: std::process::Child) {
    let out = child.wait_with_output().expect("wait for flowrel");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let spawn = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_flowrel"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn flowrel")
    };
    // far more output than a pipe buffers: read one line, then hang up
    let mut child = spawn(&["generate", "grid", "80", "80", "1"]);
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty());
    assert_quiet_exit(child);

    // a reader that is gone before the answer is printed
    let path = generated("pipe", &["barbell", "4", "2", "2", "2", "7"]);
    let mut child = spawn(&["compute", path.to_str().unwrap()]);
    drop(child.stdout.take());
    assert_quiet_exit(child);
    std::fs::remove_file(path).ok();
}

#[test]
fn generated_barbell_roundtrips_and_computes() {
    let (inst, _) = workloads::generators::barbell(workloads::generators::BarbellParams {
        cluster_nodes: 4,
        cluster_extra_edges: 2,
        cut_links: 2,
        cut_capacity: 2,
        demand: 2,
        seed: 7,
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let text = format::serialize(&inst.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    let direct = ReliabilityCalculator::new()
        .run_complete(&inst.net, demand)
        .unwrap()
        .reliability;
    let via_file = ReliabilityCalculator::new()
        .run_complete(&parsed.net, parsed.demand.expect("demand survives"))
        .unwrap()
        .reliability;
    assert!((direct - via_file).abs() < 1e-12, "{direct} vs {via_file}");
}

#[test]
fn generated_degraded_barbell_roundtrips_and_computes() {
    // multi-state cut links: the serialized text carries 'spectrum' lines,
    // and the parsed instance computes the same (naive) answer
    let (inst, cut) =
        workloads::generators::degraded_barbell(workloads::generators::BarbellParams {
            cluster_nodes: 3,
            cluster_extra_edges: 1,
            cut_links: 2,
            cut_capacity: 2,
            demand: 2,
            seed: 7,
        });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let text = format::serialize(&inst.net, Some(demand));
    assert!(text.contains("spectrum"), "{text}");
    let parsed = format::parse(&text).expect("roundtrip parse");
    for &e in &cut {
        assert_eq!(parsed.net.spectrum(e), inst.net.spectrum(e));
    }
    let naive = ReliabilityCalculator::new().with_strategy(flowrel_core::Strategy::Naive);
    let direct = naive.run_complete(&inst.net, demand).unwrap().reliability;
    let via_file = naive
        .run_complete(&parsed.net, parsed.demand.expect("demand survives"))
        .unwrap()
        .reliability;
    assert!((direct - via_file).abs() < 1e-12, "{direct} vs {via_file}");
}

#[test]
fn generated_grid_roundtrips() {
    let inst = workloads::generators::grid(3, 3, 5);
    let demand = FlowDemand::new(inst.source, inst.sink, 1);
    let text = format::serialize(&inst.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    assert_eq!(parsed.net.edge_count(), inst.net.edge_count());
    let a = reliability_factoring(&inst.net, demand, &CalcOptions::default()).unwrap();
    let b = reliability_factoring(&parsed.net, demand, &CalcOptions::default()).unwrap();
    assert!((a - b).abs() < 1e-12);
}

#[test]
fn generated_mesh_roundtrips() {
    let peers: Vec<flowrel_overlay::Peer> = (0..6)
        .map(|i| flowrel_overlay::Peer::new(3, 300.0 + 50.0 * i as f64))
        .collect();
    let sc = flowrel_overlay::random_mesh(&peers, 2, 1, &flowrel_overlay::ChurnModel::new(90.0), 3);
    let sub = *sc.peers.last().unwrap();
    let demand = FlowDemand::new(sc.server, sub, 1);
    let text = format::serialize(&sc.net, Some(demand));
    let parsed = format::parse(&text).expect("roundtrip parse");
    for (a, b) in sc.net.edges().iter().zip(parsed.net.edges()) {
        assert_eq!(a, b, "probabilities must survive text round-trip exactly");
    }
}
