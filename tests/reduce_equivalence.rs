//! Structural-reduction equivalence: the fixed-point reduction pipeline
//! ([`flowrel::core::reduce`]) is invisible everywhere except the counters.
//! Across every workload family and every strategy, the calculator returns
//! the same reliability to 1e-12 with reduction on and off; the Monte-Carlo
//! path is *seed-wise* invisible (reduce-on on the original instance is
//! bit-identical to reduce-off on the pre-reduced instance); and budgeted
//! runs with reduction on resume bit-identically through text checkpoints —
//! even when the resuming calculator has the flag flipped, because resume
//! pins `reduce` to what the checkpoint recorded.

use flowrel::core::{
    reduce, Budget, CalcOptions, Checkpoint, FlowDemand, Outcome, ReliabilityCalculator, Strategy,
};
use flowrel::montecarlo::{EstimatorKind, McSettings, StopTarget};
use flowrel::workloads::generators::{self, BarbellParams};

fn demand_of(inst: &generators::Instance) -> FlowDemand {
    FlowDemand::new(inst.source, inst.sink, inst.demand)
}

fn calc(strategy: Strategy, reduce: bool) -> ReliabilityCalculator {
    ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            reduce,
            ..CalcOptions::default()
        })
}

/// Every generator family small enough for the unreduced-naive ground truth.
fn families(seed: u64) -> Vec<(&'static str, generators::Instance)> {
    vec![
        (
            "barbell",
            generators::barbell(BarbellParams {
                cluster_nodes: 4,
                cluster_extra_edges: 2,
                cut_links: 2,
                cut_capacity: 2,
                demand: 2,
                seed,
            })
            .0,
        ),
        ("bridge-chain", generators::bridge_chain(3, 1, seed)),
        ("grid", generators::grid(3, 3, seed)),
        (
            "chained-barbell",
            generators::chained_barbell(2, 3, 1, seed),
        ),
        ("nested-barbell", generators::nested_barbell(2, 3, 1, seed)),
        ("kary-nested-cut", generators::kary_nested_cut(2, 2, seed)),
        ("barbell-mesh", generators::barbell_mesh(2, seed)),
        ("slack-barbell", generators::slack_barbell(2, 1, seed)),
    ]
}

/// A proptest-style seed loop standing in for property testing without the
/// crate: for every family × exact strategy × reduction on/off, the
/// calculator agrees with unreduced naive enumeration to 1e-12.
#[test]
fn reduction_preserves_reliability_across_families_and_strategies() {
    for seed in [1u64, 7, 19] {
        for (family, inst) in families(seed) {
            let d = demand_of(&inst);
            let exact = calc(Strategy::Naive, false)
                .run_complete(&inst.net, d)
                .unwrap_or_else(|e| panic!("{family} seed {seed}: naive reference: {e}"))
                .reliability;
            let strategies = [
                Strategy::Naive,
                Strategy::Factoring,
                Strategy::BottleneckAuto { max_k: 2 },
                Strategy::Auto,
            ];
            for strategy in strategies {
                for reduce_on in [true, false] {
                    let rep = calc(strategy.clone(), reduce_on)
                        .run_complete(&inst.net, d)
                        .unwrap_or_else(|e| {
                            panic!("{family} seed {seed} {strategy:?} reduce={reduce_on}: {e}")
                        });
                    assert!(
                        (rep.reliability - exact).abs() < 1e-12,
                        "{family} seed {seed} {strategy:?} reduce={reduce_on}: \
                         {} ({}) vs naive {exact}",
                        rep.reliability,
                        rep.algorithm
                    );
                }
            }
        }
    }
}

/// An explicit bottleneck cut given in *original* link ids still works with
/// reduction on (the calculator translates the ids into the reduced space),
/// and agrees with the unreduced run.
#[test]
fn explicit_cuts_translate_into_the_reduced_id_space() {
    let inst = generators::slack_barbell(2, 2, 3);
    let d = demand_of(&inst);
    let set =
        flowrel::core::find_bottleneck_set(&inst.net, d.source, d.sink, 2).expect("a cut exists");
    let strategy = Strategy::Bottleneck(set.edges.clone());
    let off = calc(strategy.clone(), false)
        .run_complete(&inst.net, d)
        .expect("unreduced explicit-cut run");
    let on = calc(strategy, true)
        .run_complete(&inst.net, d)
        .expect("reduced explicit-cut run");
    assert!(
        (on.reliability - off.reliability).abs() < 1e-12,
        "explicit cut: reduced {} vs unreduced {}",
        on.reliability,
        off.reliability
    );
}

/// The Monte-Carlo path is seed-wise invisible to the reduction: running
/// reduce-on against the original instance is bit-identical — estimates,
/// intervals, sample counts — to running reduce-off against the pre-reduced
/// instance, because the engine sees the same network and the same seed.
#[test]
fn montecarlo_reduction_is_seedwise_invisible() {
    let inst = generators::slack_barbell(3, 2, 5);
    let d = demand_of(&inst);
    let red = reduce(&inst.net, d, true, CalcOptions::default().solver);
    assert!(red.stats.changed(), "the instance must actually reduce");
    let settings = McSettings {
        seed: 42,
        estimator: EstimatorKind::Crude,
        target: StopTarget {
            max_samples: 20_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let on = calc(Strategy::MonteCarlo(settings.clone()), true)
        .run_complete(&inst.net, d)
        .expect("reduce-on MC");
    let off = calc(Strategy::MonteCarlo(settings), false)
        .run_complete(&red.net, red.demand)
        .expect("reduce-off MC on the pre-reduced instance");
    assert_eq!(on.algorithm, "reduce+montecarlo:crude");
    assert_eq!(
        on.mc, off.mc,
        "same instance + same seed must match bitwise"
    );
    assert_eq!(on.reliability.to_bits(), off.reliability.to_bits());
}

/// Slices a run to completion through the checkpoint text round trip with
/// the given resuming calculator; asserts every checkpoint carries the
/// reduced shape stamp when `expect_shape` and returns the final bits.
fn sliced(
    start: &ReliabilityCalculator,
    resume_with: &ReliabilityCalculator,
    net: &netgraph::Network,
    d: FlowDemand,
    expect_shape: bool,
) -> (f64, usize) {
    let mut out = start.run(net, d).expect("budgeted run");
    let mut slices = 0usize;
    loop {
        match out {
            Outcome::Complete(rep) => return (rep.reliability, slices),
            Outcome::Partial(p) => {
                slices += 1;
                assert!(slices < 100_000, "budget loop must make progress");
                assert_eq!(
                    p.checkpoint.reduce_shape.is_some(),
                    expect_shape,
                    "checkpoint shape stamp must match the run's reduction state"
                );
                let ck = Checkpoint::from_text(&p.checkpoint.to_text()).expect("round trip");
                out = resume_with.resume(net, d, &ck).expect("resume");
            }
        }
    }
}

/// Budgeted runs with reduction on resume bit-identically to the
/// uninterrupted run — including when the resuming calculator was built
/// with `reduce: false` (a `--no-reduce` flip between write and resume),
/// which resume must override from the checkpoint's shape stamp.
#[test]
fn budgeted_runs_resume_bit_identically_with_reduction_on() {
    let inst = generators::slack_barbell(2, 2, 9);
    let d = demand_of(&inst);
    for strategy in [Strategy::Naive, Strategy::BottleneckAuto { max_k: 2 }] {
        let exact = calc(strategy.clone(), true)
            .run_complete(&inst.net, d)
            .expect("uninterrupted reduced run");
        assert!(
            exact.algorithm.starts_with("reduce+"),
            "the run must actually reduce, got {}",
            exact.algorithm
        );
        let budget = Budget {
            max_configs: Some(7),
            ..Budget::unlimited()
        };
        let budgeted = ReliabilityCalculator::new()
            .with_strategy(strategy.clone())
            .with_options(CalcOptions {
                reduce: true,
                budget,
                ..CalcOptions::default()
            });
        for resume_reduce in [true, false] {
            let (resumed, slices) = sliced(
                &budgeted,
                &calc(strategy.clone(), resume_reduce),
                &inst.net,
                d,
                true,
            );
            assert!(slices > 0, "{strategy:?}: 7-config slices must interrupt");
            assert_eq!(
                resumed.to_bits(),
                exact.reliability.to_bits(),
                "{strategy:?} resume_reduce={resume_reduce}: sliced {resumed} vs {}",
                exact.reliability
            );
        }
    }
}

/// Legacy checkpoints (no shape stamp, written with reduction off) resume on
/// the instance exactly as given even when the resuming calculator has
/// reduction on — resume pins `reduce` off for them.
#[test]
fn legacy_unreduced_checkpoints_resume_unreduced() {
    let inst = generators::slack_barbell(2, 2, 13);
    let d = demand_of(&inst);
    let exact = calc(Strategy::Naive, false)
        .run_complete(&inst.net, d)
        .expect("uninterrupted unreduced run");
    assert_eq!(exact.algorithm, "naive");
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(Strategy::Naive)
        .with_options(CalcOptions {
            reduce: false,
            budget: Budget {
                max_configs: Some(7),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
    let (resumed, slices) = sliced(&budgeted, &calc(Strategy::Naive, true), &inst.net, d, false);
    assert!(slices > 0, "7-config slices must interrupt");
    assert_eq!(
        resumed.to_bits(),
        exact.reliability.to_bits(),
        "legacy resume: sliced {resumed} vs {}",
        exact.reliability
    );
}

/// Unreduced `Auto` on a 71-link instance whose cuts leave sides too large
/// falls back to factoring, which must refuse the size with an error before
/// any 64-bit edge mask is built — not panic.
#[test]
fn unreduced_auto_past_64_links_returns_an_error() {
    let inst = generators::slack_barbell(8, 3, 1);
    assert_eq!(inst.net.edge_count(), 71);
    let out =
        std::panic::catch_unwind(|| calc(Strategy::Auto, false).run(&inst.net, demand_of(&inst)));
    match out {
        Ok(Err(e)) => assert!(
            matches!(
                e,
                flowrel::core::ReliabilityError::TooManyEdges { count: 71, .. }
            ),
            "unexpected refusal: {e}"
        ),
        Ok(Ok(_)) => panic!("71 links are beyond every exact engine's bound"),
        Err(_) => panic!("unreduced Auto panicked on a 71-link instance"),
    }
}
