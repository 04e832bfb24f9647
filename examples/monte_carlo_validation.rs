//! Monte-Carlo vs exact: convergence of the crude sampling engine to the
//! exact reliability (experiment ABL-MC, interactively).
//!
//! Run with `cargo run --release --example monte_carlo_validation`.

use flowrel::core::{reliability_naive, CalcOptions, FlowDemand};
use flowrel::montecarlo::{engine, EstimatorKind, McBudget, McReport, McSettings, StopTarget};
use flowrel::workloads::generators::{barbell, BarbellParams};

/// Runs the crude engine with base seed `seed` until `target` is met.
fn crude(inst: &flowrel::workloads::Instance, target: StopTarget, seed: u64) -> McReport {
    let settings = McSettings {
        seed,
        estimator: EstimatorKind::Crude,
        target,
        ..Default::default()
    };
    let out = engine::run(
        &inst.net,
        inst.source,
        inst.sink,
        inst.demand,
        &settings,
        &McBudget::unlimited(),
        false,
    )
    .expect("estimate");
    *out.report()
}

fn main() {
    let (inst, _) = barbell(BarbellParams {
        cluster_nodes: 5,
        seed: 11,
        ..Default::default()
    });
    let demand = FlowDemand::new(inst.source, inst.sink, inst.demand);
    let exact = reliability_naive(&inst.net, demand, &CalcOptions::default()).expect("exact");
    println!(
        "barbell: |V| = {}, |E| = {}, d = {}",
        inst.net.node_count(),
        inst.net.edge_count(),
        inst.demand
    );
    println!("exact reliability: {exact:.9}\n");
    println!(
        "{:>10} {:>12} {:>12} {:>10}  covers?",
        "samples", "estimate", "abs error", "CI half"
    );
    let covers = |r: &McReport| r.ci_low <= exact && exact <= r.ci_high;
    for exp in [8u32, 10, 12, 14, 16, 18] {
        let samples = 1u64 << exp;
        let target = StopTarget {
            max_samples: samples,
            ..Default::default()
        };
        let r = crude(&inst, target, 7);
        println!(
            "{:>10} {:>12.6} {:>12.2e} {:>10.2e}  {}",
            samples,
            r.mean,
            (r.mean - exact).abs(),
            (r.ci_high - r.ci_low) / 2.0,
            if covers(&r) { "yes" } else { "NO" }
        );
    }
    println!("\nsequential stopping rule targeting a ±0.002 95% CI:");
    let target = StopTarget {
        ci_half: Some(0.002),
        max_samples: 1 << 22,
        ..Default::default()
    };
    let r = crude(&inst, target, 13);
    println!(
        "stopped after {} samples at {:.6} (exact {:.6}, covered: {})",
        r.samples,
        r.mean,
        exact,
        covers(&r)
    );
}
