//! Recursive decomposition planner equivalence: the plan-tree execution
//! agrees with naive enumeration to 1e-12 on recursively-decomposable
//! instances (chained barbells, nested barbells, random graphs), depth caps
//! only change the plan — never the value — and a budgeted recursive run
//! resumed through text checkpoints reproduces the uninterrupted serial
//! result bit for bit.

use flowrel::core::{
    Budget, CalcOptions, Checkpoint, FlowDemand, Outcome, ReliabilityCalculator, Strategy,
};
use flowrel::workloads::generators;

fn demand_of(inst: &generators::Instance) -> FlowDemand {
    FlowDemand::new(inst.source, inst.sink, inst.demand)
}

fn exact_naive(inst: &generators::Instance) -> f64 {
    ReliabilityCalculator::new()
        .with_strategy(Strategy::Naive)
        .run_complete(&inst.net, demand_of(inst))
        .expect("naive reference")
        .reliability
}

#[test]
fn planner_matches_naive_across_generator_families_and_depths() {
    let instances = [
        generators::chained_barbell(2, 3, 1, 7),
        generators::chained_barbell(3, 3, 1, 8),
        generators::chained_barbell(2, 4, 2, 9),
        generators::nested_barbell(1, 3, 1, 10),
        generators::nested_barbell(2, 3, 1, 11),
    ];
    for inst in &instances {
        let exact = exact_naive(inst);
        for max_depth in [0usize, 1, 64] {
            let rep = ReliabilityCalculator::new()
                .with_strategy(Strategy::BottleneckAuto { max_k: 1 })
                .with_options(CalcOptions {
                    max_depth,
                    ..CalcOptions::default()
                })
                .run_complete(&inst.net, demand_of(inst))
                .expect("plannable instance");
            assert!(
                (rep.reliability - exact).abs() < 1e-12,
                "{} links, depth {max_depth}: plan {} vs naive {exact}",
                inst.net.edge_count(),
                rep.reliability
            );
            assert!(rep.bottleneck.is_some(), "plan runs report the root cut");
        }
    }
}

#[test]
fn auto_strategy_agrees_with_naive_on_decomposable_instances() {
    for seed in [3u64, 5, 21] {
        let inst = generators::chained_barbell(3, 3, 1, seed);
        let exact = exact_naive(&inst);
        let rep = ReliabilityCalculator::new()
            .run_complete(&inst.net, demand_of(&inst))
            .expect("auto");
        assert!(
            (rep.reliability - exact).abs() < 1e-12,
            "seed {seed}: auto {} ({}) vs naive {exact}",
            rep.reliability,
            rep.algorithm
        );
    }
}

/// A budgeted recursive run interrupted every few configurations, with every
/// checkpoint serialized to text and parsed back, finishes on the same bits
/// as the uninterrupted run.
#[test]
fn budgeted_plan_resumes_bit_identically_through_text_checkpoints() {
    let inst = generators::nested_barbell(2, 3, 1, 17);
    let demand = demand_of(&inst);
    let strategy = Strategy::BottleneckAuto { max_k: 1 };
    let exact = ReliabilityCalculator::new()
        .with_strategy(strategy.clone())
        .run_complete(&inst.net, demand)
        .expect("uninterrupted run")
        .reliability;
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            budget: Budget {
                max_configs: Some(3),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
    let mut out = budgeted.run(&inst.net, demand).expect("budgeted run");
    let mut partials = 0usize;
    let finished = loop {
        match out {
            Outcome::Complete(rep) => break rep.reliability,
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                let text = p.checkpoint.to_text();
                let parsed = Checkpoint::from_text(&text).expect("round trip");
                assert_eq!(parsed, p.checkpoint, "text round trip must be lossless");
                partials += 1;
                assert!(partials < 100_000, "resume loop must make progress");
                out = budgeted.resume(&inst.net, demand, &parsed).expect("resume");
            }
        }
    };
    assert!(
        partials > 0,
        "a 3-config budget must interrupt this instance"
    );
    assert_eq!(
        finished.to_bits(),
        exact.to_bits(),
        "serial resume must be bit-identical"
    );
}

/// The budgeted factoring engine brackets the exact value and its text
/// checkpoints resume to the unbudgeted factoring value bit for bit.
#[test]
fn budgeted_factoring_resumes_bit_identically_through_text_checkpoints() {
    let inst = generators::chained_barbell(2, 3, 1, 23);
    let demand = demand_of(&inst);
    let exact = exact_naive(&inst);
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(Strategy::Factoring)
        .with_options(CalcOptions {
            budget: Budget {
                max_configs: Some(2),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
    let mut out = budgeted.run(&inst.net, demand).expect("budgeted factoring");
    let mut partials = 0usize;
    let finished = loop {
        match out {
            Outcome::Complete(rep) => {
                // This instance reduces (slack clamps + a parallel merge),
                // so the calculator stamps the reduction prefix.
                assert_eq!(rep.algorithm, "reduce+factoring");
                break rep.reliability;
            }
            Outcome::Partial(p) => {
                assert_eq!(p.algorithm, "reduce+factoring");
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                let parsed = Checkpoint::from_text(&p.checkpoint.to_text()).expect("round trip");
                assert_eq!(parsed, p.checkpoint);
                partials += 1;
                assert!(partials < 100_000, "factoring resume must make progress");
                out = budgeted.resume(&inst.net, demand, &parsed).expect("resume");
            }
        }
    };
    assert!(partials > 0, "a 2-config budget must interrupt factoring");
    assert!(
        (finished - exact).abs() < 1e-12,
        "resumed factoring {finished} vs naive {exact}"
    );
    // Budgeted or not, the factoring strategy runs one engine, so the
    // resumed bits equal a plain unbudgeted run's.
    let one_shot = ReliabilityCalculator::new()
        .with_strategy(Strategy::Factoring)
        .run_complete(&inst.net, demand)
        .expect("unbudgeted factoring");
    assert_eq!(finished.to_bits(), one_shot.reliability.to_bits());
}

/// Recursive-Cut plans agree with naive enumeration to 1e-12 across all
/// four generator families, with recursion both on (deep planner) and off
/// (the flat PR 5 planner) — a proptest-style seed loop standing in for
/// property testing without the crate.
#[test]
fn deep_planner_matches_naive_across_all_generator_families() {
    for seed in [1u64, 7, 19] {
        let cases = [
            (generators::chained_barbell(3, 3, 1, seed), 1usize),
            (generators::nested_barbell(2, 3, 1, seed), 1),
            (generators::kary_nested_cut(1, 2, seed), 2),
            (generators::kary_nested_cut(2, 2, seed), 2),
            (generators::barbell_mesh(2, seed), 2),
        ];
        for (inst, max_k) in cases {
            let exact = exact_naive(&inst);
            for recursive_cut_sides in [true, false] {
                let rep = ReliabilityCalculator::new()
                    .with_strategy(Strategy::BottleneckAuto { max_k })
                    .with_options(CalcOptions {
                        recursive_cut_sides,
                        ..CalcOptions::default()
                    })
                    .run_complete(&inst.net, demand_of(&inst))
                    .expect("plannable instance");
                assert!(
                    (rep.reliability - exact).abs() < 1e-12,
                    "seed {seed}, {} links, deep={recursive_cut_sides}: plan {} vs naive {exact}",
                    inst.net.edge_count(),
                    rep.reliability
                );
            }
        }
    }
}

/// Budget-apportioned partial runs of deep plans return certified
/// `[r_low, r_high]` intervals enclosing the exact value at every stop.
#[test]
fn deep_partial_runs_bracket_the_exact_value() {
    let inst = generators::kary_nested_cut(2, 2, 31);
    let demand = demand_of(&inst);
    let exact = exact_naive(&inst);
    for budget in [1u64, 5, 17, 64] {
        let calc = ReliabilityCalculator::new()
            .with_strategy(Strategy::BottleneckAuto { max_k: 2 })
            .with_options(CalcOptions {
                budget: Budget {
                    max_configs: Some(budget),
                    ..Budget::unlimited()
                },
                ..CalcOptions::default()
            });
        match calc.run(&inst.net, demand).expect("budgeted deep run") {
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "budget {budget}: [{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                assert!(p.r_low <= p.r_high);
                let rep = p.bottleneck.as_ref().expect("plan runs report the cut");
                assert!(
                    !rep.plan_slots.is_empty(),
                    "partial deep runs report per-slot budget shares"
                );
                let share_sum: f64 = rep.plan_slots.iter().map(|s| s.share).sum();
                assert!(
                    (share_sum - 1.0).abs() < 1e-9,
                    "fresh-run shares partition the budget, got {share_sum}"
                );
            }
            Outcome::Complete(rep) => {
                assert!(
                    (rep.reliability - exact).abs() < 1e-12,
                    "budget {budget} completed: {} vs {exact}",
                    rep.reliability
                );
            }
        }
    }
}

/// An interrupted deep-plan run resumed through v1 text checkpoints (every
/// checkpoint serialized and parsed back) finishes on the same bits as the
/// uninterrupted serial run.
#[test]
fn deep_plan_resumes_bit_identically_through_text_checkpoints() {
    let inst = generators::kary_nested_cut(2, 2, 17);
    let demand = demand_of(&inst);
    let strategy = Strategy::BottleneckAuto { max_k: 2 };
    let exact = ReliabilityCalculator::new()
        .with_strategy(strategy.clone())
        .run_complete(&inst.net, demand)
        .expect("uninterrupted deep run")
        .reliability;
    let reference = exact_naive(&inst);
    assert!(
        (exact - reference).abs() < 1e-12,
        "deep plan {exact} vs naive {reference}"
    );
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            budget: Budget {
                max_configs: Some(3),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
    let mut out = budgeted.run(&inst.net, demand).expect("budgeted deep run");
    let mut partials = 0usize;
    let finished = loop {
        match out {
            Outcome::Complete(rep) => break rep.reliability,
            Outcome::Partial(p) => {
                assert!(
                    p.r_low <= exact + 1e-12 && exact <= p.r_high + 1e-12,
                    "[{}, {}] must bracket {exact}",
                    p.r_low,
                    p.r_high
                );
                let text = p.checkpoint.to_text();
                let parsed = Checkpoint::from_text(&text).expect("round trip");
                assert_eq!(parsed, p.checkpoint, "text round trip must be lossless");
                partials += 1;
                assert!(partials < 100_000, "deep resume loop must make progress");
                out = budgeted.resume(&inst.net, demand, &parsed).expect("resume");
            }
        }
    };
    assert!(
        partials > 0,
        "a 3-config budget must interrupt this instance"
    );
    assert_eq!(
        finished.to_bits(),
        exact.to_bits(),
        "serial deep resume must be bit-identical"
    );
}

/// `--max-depth 0` (flat) and deep recursion disagree on plan shape, so a
/// checkpoint from one refuses to resume under the other only when shapes
/// differ — the checkpoint carries its own planning depth and re-derives
/// the same tree regardless of the resuming calculator's options.
#[test]
fn plan_checkpoints_carry_their_own_depth() {
    let inst = generators::nested_barbell(2, 3, 1, 29);
    let demand = demand_of(&inst);
    let strategy = Strategy::BottleneckAuto { max_k: 1 };
    let exact = ReliabilityCalculator::new()
        .with_strategy(strategy.clone())
        .run_complete(&inst.net, demand)
        .expect("uninterrupted")
        .reliability;
    let budgeted = ReliabilityCalculator::new()
        .with_strategy(strategy.clone())
        .with_options(CalcOptions {
            budget: Budget {
                max_configs: Some(3),
                ..Budget::unlimited()
            },
            ..CalcOptions::default()
        });
    let Outcome::Partial(p) = budgeted.run(&inst.net, demand).expect("run") else {
        panic!("a 3-config budget must interrupt");
    };
    // resume under a calculator configured with a different max_depth: the
    // checkpoint's stored depth wins and the run still finishes correctly
    let other = ReliabilityCalculator::new()
        .with_strategy(strategy)
        .with_options(CalcOptions {
            max_depth: 0,
            ..CalcOptions::default()
        });
    let mut out = other
        .resume(&inst.net, demand, &p.checkpoint)
        .expect("depth-0 calculator must still honor the checkpoint's depth");
    let mut guard = 0usize;
    let finished = loop {
        match out {
            Outcome::Complete(rep) => break rep.reliability,
            Outcome::Partial(p) => {
                guard += 1;
                assert!(guard < 100_000);
                out = other
                    .resume(&inst.net, demand, &p.checkpoint)
                    .expect("resume");
            }
        }
    };
    assert_eq!(finished.to_bits(), exact.to_bits());
}
