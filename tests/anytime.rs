//! Anytime soundness: any budget cutoff yields a rigorous interval
//! `r_low <= R_exact <= r_high`, a resumed serial run is bit-identical to
//! the uninterrupted one, a resumed parallel run agrees within 1e-12, and
//! checkpoints survive the text round trip — for both the naive and the
//! bottleneck sweep paths.

use flowrel::core::{
    fnet, reliability_bottleneck, BottleneckReport, Budget, CalcOptions, CancelToken, Checkpoint,
    CheckpointKind, FlowDemand, Outcome, ReliabilityCalculator, Strategy,
};
use flowrel::netgraph::{GraphKind, Network, NetworkBuilder};
use rand::prelude::*;

fn random_network(rng: &mut SmallRng, kind: GraphKind) -> (Network, FlowDemand) {
    let n = rng.gen_range(3usize..6);
    let edges = rng.gen_range(4usize..9);
    let mut b = NetworkBuilder::new(kind);
    let nodes = b.add_nodes(n);
    for w in nodes.windows(2) {
        let p = rng.gen_range(1u32..16) as f64 / 32.0;
        b.add_edge(w[0], w[1], rng.gen_range(1u64..3), p).unwrap();
    }
    for _ in 0..edges {
        let u = rng.gen_range(0usize..n);
        let v = rng.gen_range(0usize..n);
        let p = rng.gen_range(0u32..24) as f64 / 32.0;
        b.add_edge(nodes[u], nodes[v], rng.gen_range(1u64..4), p)
            .unwrap();
    }
    let demand = rng.gen_range(1u64..3);
    (b.build(), FlowDemand::new(nodes[0], nodes[n - 1], demand))
}

/// Barbell with a genuine 2-link bottleneck, so the decomposition engages.
fn barbell() -> (Network, FlowDemand) {
    let mut b = NetworkBuilder::new(GraphKind::Undirected);
    let n = b.add_nodes(8);
    for (i, j, p) in [(0, 1, 0.1), (1, 2, 0.15), (2, 0, 0.2), (0, 2, 0.12)] {
        b.add_edge(n[i], n[j], 2, p).unwrap();
    }
    b.add_edge(n[2], n[4], 1, 0.05).unwrap(); // cut link 1
    b.add_edge(n[3], n[5], 1, 0.08).unwrap(); // cut link 2
    b.add_edge(n[2], n[3], 1, 0.3).unwrap();
    for (i, j, p) in [(4, 5, 0.1), (5, 6, 0.25), (6, 7, 0.3), (7, 4, 0.18)] {
        b.add_edge(n[i], n[j], 2, p).unwrap();
    }
    (b.build(), FlowDemand::new(n[0], n[6], 1))
}

fn calc(strategy: Strategy, budget: Budget, parallel: bool) -> ReliabilityCalculator {
    ReliabilityCalculator {
        strategy,
        options: CalcOptions {
            parallel,
            budget,
            ..Default::default()
        },
    }
}

fn limit(n: u64) -> Budget {
    Budget {
        max_configs: Some(n),
        ..Default::default()
    }
}

/// Runs under a per-slice budget, checking every partial against `exact`,
/// until the computation completes; returns the final value and how many
/// partials were seen. Resumes go through the text round trip when `via_text`
/// is set, exercising the same path the CLI uses.
fn drive_to_completion(
    c: &ReliabilityCalculator,
    net: &Network,
    d: FlowDemand,
    exact: f64,
    via_text: bool,
) -> (f64, usize) {
    let mut out = c.run(net, d).expect("budgeted run");
    let mut partials = 0usize;
    loop {
        match out {
            Outcome::Complete(rep) => return (rep.reliability, partials),
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                assert!((0.0..=1.0).contains(&p.r_low));
                assert!((0.0..=1.0).contains(&p.r_high));
                assert!((0.0..=1.0).contains(&p.explored));
                partials += 1;
                assert!(partials < 100_000, "budget loop must make progress");
                let ck = if via_text {
                    Checkpoint::from_text(&p.checkpoint.to_text()).expect("text round trip")
                } else {
                    p.checkpoint
                };
                out = c.resume(net, d, &ck).expect("resume");
            }
        }
    }
}

#[test]
fn naive_budget_cutoffs_bracket_and_serial_resume_is_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(0xa17_7131);
    for case in 0..12 {
        let (net, d) = random_network(&mut rng, GraphKind::Undirected);
        let exact = calc(Strategy::Naive, Budget::unlimited(), false)
            .run_complete(&net, d)
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .reliability;
        let budgeted = calc(Strategy::Naive, limit(7), false);
        let (resumed, partials) = drive_to_completion(&budgeted, &net, d, exact, false);
        assert_eq!(
            resumed.to_bits(),
            exact.to_bits(),
            "case {case}: serial resume must be bit-identical ({resumed} vs {exact})"
        );
        // tiny instances may finish inside one slice; most must not
        if net.edge_count() > 5 {
            assert!(partials > 0, "case {case}: 7-config slices must interrupt");
        }
    }
}

#[test]
fn naive_parallel_resume_agrees_within_1e12() {
    let mut rng = SmallRng::seed_from_u64(0xa17_7132);
    for case in 0..8 {
        let (net, d) = random_network(&mut rng, GraphKind::Directed);
        let exact = calc(Strategy::Naive, Budget::unlimited(), false)
            .run_complete(&net, d)
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .reliability;
        let budgeted = calc(Strategy::Naive, limit(64), true);
        let (resumed, _) = drive_to_completion(&budgeted, &net, d, exact, false);
        assert!(
            (resumed - exact).abs() < 1e-12,
            "case {case}: parallel resume {resumed} vs {exact}"
        );
    }
}

#[test]
fn bottleneck_budget_cutoffs_bracket_and_serial_resume_is_bit_identical() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Auto, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap();
    assert_eq!(
        exact.algorithm, "reduce+auto:bottleneck",
        "the barbell must engage the decomposition (after reduction)"
    );
    let exact = exact.reliability;
    // every cutoff produces a valid bracketing interval
    for cut in [1u64, 3, 9, 27, 81] {
        match calc(Strategy::Auto, limit(cut), false)
            .run(&net, d)
            .unwrap()
        {
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "cut {cut}: [{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                assert!(p.r_high - p.r_low <= 1.0);
            }
            Outcome::Complete(rep) => assert_eq!(rep.reliability.to_bits(), exact.to_bits()),
        }
    }
    // sliced to completion through the text round trip: bit-identical
    let budgeted = calc(Strategy::Auto, limit(9), false);
    let (resumed, partials) = drive_to_completion(&budgeted, &net, d, exact, true);
    assert!(partials > 0, "9-config slices must interrupt the barbell");
    assert_eq!(
        resumed.to_bits(),
        exact.to_bits(),
        "serial bottleneck resume must be bit-identical ({resumed} vs {exact})"
    );
}

#[test]
fn bottleneck_parallel_resume_agrees_within_1e12() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Auto, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap()
        .reliability;
    let budgeted = calc(Strategy::Auto, limit(50), true);
    let (resumed, _) = drive_to_completion(&budgeted, &net, d, exact, true);
    assert!(
        (resumed - exact).abs() < 1e-12,
        "parallel bottleneck resume {resumed} vs {exact}"
    );
}

#[test]
fn interval_width_shrinks_as_the_budget_grows() {
    let (net, d) = barbell();
    let mut last_width = f64::INFINITY;
    for cut in [2u64, 20, 200] {
        let (lo, hi) = calc(Strategy::Naive, limit(cut), false)
            .run(&net, d)
            .unwrap()
            .bounds();
        let width = hi - lo;
        assert!(
            width <= last_width + 1e-12,
            "more budget must not widen the interval ({width} after {last_width})"
        );
        last_width = width;
    }
    assert!(last_width < 1.0, "200 configs must pin down some mass");
}

#[test]
fn tripped_cancel_token_stops_both_paths_immediately() {
    let (net, d) = barbell();
    let exact = calc(Strategy::Naive, Budget::unlimited(), false)
        .run_complete(&net, d)
        .unwrap()
        .reliability;
    let cancel = CancelToken::new();
    cancel.trip();
    let budget = Budget {
        cancel: Some(cancel),
        ..Default::default()
    };
    for strategy in [Strategy::Naive, Strategy::Auto] {
        match calc(strategy.clone(), budget.clone(), false)
            .run(&net, d)
            .unwrap()
        {
            Outcome::Partial(p) => {
                // nothing explored, so the lower bound is vacuous; the
                // bottleneck path may still cap r_high below 1 via the cut
                // links' own failure probability
                assert_eq!(p.r_low, 0.0, "{strategy:?}");
                assert!(
                    exact <= p.r_high + 1e-12 && p.r_high <= 1.0,
                    "{strategy:?}: r_high {} must stay sound",
                    p.r_high
                );
                assert_eq!(p.explored, 0.0, "{strategy:?}");
            }
            Outcome::Complete(_) => panic!("{strategy:?}: tripped token must interrupt"),
        }
    }
}

#[test]
fn checkpoint_text_is_stable_across_round_trips() {
    let (net, d) = barbell();
    for strategy in [Strategy::Naive, Strategy::Auto] {
        let out = calc(strategy.clone(), limit(5), false)
            .run(&net, d)
            .unwrap();
        let Outcome::Partial(p) = out else {
            panic!("{strategy:?}: 5-config budget must interrupt");
        };
        let text = p.checkpoint.to_text();
        let reparsed = Checkpoint::from_text(&text).expect("parse back");
        assert_eq!(
            reparsed, p.checkpoint,
            "{strategy:?}: checkpoint must survive the text round trip exactly"
        );
        assert_eq!(
            reparsed.to_text(),
            text,
            "{strategy:?}: serialization must be canonical"
        );
    }
}

/// A `kind bottleneck` checkpoint from the flat one-level engine that
/// predates the planner (`tests/fixtures/legacy-bottleneck.ckpt`: a
/// budget-interrupted split of the `.fnet` beside it along links 6 and 7)
/// resumes in budget slices to the uninterrupted serial bits, and the first
/// further interruption re-checkpoints as `kind plan`.
#[test]
fn legacy_bottleneck_checkpoint_resumes_in_slices_to_the_serial_bits() {
    let fixture = |name: &str| {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let file = fnet::parse(&fixture("legacy-bottleneck.fnet")).expect("fixture network");
    let (net, d) = (file.net, file.demand.expect("fixture demand"));
    let legacy = Checkpoint::from_text(&fixture("legacy-bottleneck.ckpt")).expect("legacy text");
    let CheckpointKind::Bottleneck { cut, .. } = &legacy.kind else {
        panic!("the fixture must be a legacy bottleneck checkpoint");
    };
    let fresh = ReliabilityCalculator {
        strategy: Strategy::Bottleneck(cut.clone()),
        options: CalcOptions {
            reduce: false,
            max_depth: 0,
            ..Default::default()
        },
    }
    .run_complete(&net, d)
    .expect("uninterrupted flat decomposition");
    let exact = fresh.reliability;
    let configs = |b: &Option<BottleneckReport>| b.as_ref().map_or(0, |b| b.sweep.configs);
    let reference = reliability_bottleneck(&net, d, cut, &CalcOptions::default()).unwrap();
    assert_eq!(exact.to_bits(), reference.to_bits());

    let budgeted = calc(Strategy::Auto, limit(16), false);
    let mut out = budgeted.resume(&net, d, &legacy).expect("legacy resume");
    let mut partials = 0usize;
    let mut swept = 0u64;
    let resumed = loop {
        match out {
            Outcome::Complete(rep) => {
                swept += configs(&rep.bottleneck);
                break rep.reliability;
            }
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                swept += configs(&p.bottleneck);
                let text = p.checkpoint.to_text();
                if partials == 0 {
                    assert!(
                        text.lines().any(|l| l == "kind plan"),
                        "a resumed legacy checkpoint must re-checkpoint as a plan:\n{text}"
                    );
                }
                partials += 1;
                assert!(partials < 100_000, "budget loop must make progress");
                let ck = Checkpoint::from_text(&text).expect("text round trip");
                out = budgeted.resume(&net, d, &ck).expect("resume");
            }
        }
    };
    assert!(partials > 0, "16-config slices must interrupt the resume");
    assert!(
        swept < configs(&fresh.bottleneck),
        "the resume must continue the legacy sweeps, not restart them \
         ({swept} configs vs {} fresh)",
        configs(&fresh.bottleneck)
    );
    assert_eq!(
        resumed.to_bits(),
        exact.to_bits(),
        "legacy resume must be bit-identical ({resumed} vs {exact})"
    );
}
