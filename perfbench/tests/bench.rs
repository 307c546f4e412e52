//! The benchmark's own checks: deterministic inputs, the tail rule, the
//! metric catalogue, and the traced decomposition of `solve`.

use std::collections::BTreeSet;

use cloudalloc_core::solve;
use cloudalloc_model::ClientId;
use cloudalloc_protocol::{ClientMessage, ServerMessage};
use cloudalloc_workload::{generate, ScenarioConfig};
use perfbench::metrics::{valid_name, Report, END_TO_END, PER_LAYER};
use perfbench::script::{Kind, Script};
use perfbench::serve_wl::SESSION_REQUESTS;
use perfbench::solve_wl::{cli_solver, decomposed_solve, identical, SolveSpec};
use perfbench::stats::{min_samples_for, percentile, tail_percentile};
use perfbench::{Samples, Tail, WORKLOADS};

/// Plays a script against a stand-in server that admits every admit.
fn play(seed: u64, requests: usize) -> Vec<ClientMessage> {
    let universe = generate(&ScenarioConfig::paper(3000), 1);
    let mut script = Script::new(&universe, seed);
    (0..requests)
        .map(|_| {
            let msg = script.next_request();
            let reply = match msg {
                ClientMessage::Admit { req, client } => ServerMessage::Admitted {
                    req,
                    client,
                    cluster: cloudalloc_model::ClusterId(0),
                    profit: 1.0,
                    profit_delta: 1.0,
                    latency_us: 1,
                    slo_ok: true,
                },
                ClientMessage::Depart { req, client } => ServerMessage::Departed {
                    req,
                    client,
                    profit: 1.0,
                    latency_us: 1,
                    slo_ok: true,
                },
                _ => ServerMessage::Bye { req: msg.req() },
            };
            script.observe(&reply);
            msg
        })
        .collect()
}

#[test]
fn the_request_script_is_deterministic_from_the_seed() {
    assert_eq!(play(7, 400), play(7, 400));
    assert_ne!(play(7, 400), play(8, 400));
}

#[test]
fn the_request_script_follows_the_churn_mix() {
    let msgs = play(3, 4000);
    let share =
        |kind| msgs.iter().filter(|m| Kind::of(m) == kind).count() as f64 / msgs.len() as f64;
    assert!((share(Kind::Admit) - 0.60).abs() < 0.03, "admit share {}", share(Kind::Admit));
    for kind in [Kind::Depart, Kind::Renegotiate] {
        assert!((share(kind) - 0.15).abs() < 0.03, "{kind:?} share {}", share(kind));
    }
    assert!((share(Kind::Query) - 0.10).abs() < 0.03, "query share {}", share(Kind::Query));
    // Admits always name a client never requested before.
    let mut seen = BTreeSet::new();
    for msg in &msgs {
        if let ClientMessage::Admit { client, .. } = msg {
            assert!(seen.insert(*client), "client {client:?} admitted twice");
        }
    }
}

#[test]
fn an_exhausted_universe_turns_admits_into_queries() {
    let universe = generate(&ScenarioConfig::paper(5), 1);
    let mut script = Script::new(&universe, 4);
    let admits =
        (0..200).filter(|_| matches!(script.next_request(), ClientMessage::Admit { .. })).count();
    assert_eq!(admits, 5, "each of the five clients asks exactly once");
}

#[test]
fn departs_and_renegotiations_only_name_clients_seen_admitted() {
    let universe = generate(&ScenarioConfig::paper(50), 2);
    let mut script = Script::new(&universe, 11);
    for _ in 0..200 {
        let msg = script.next_request();
        let known: BTreeSet<ClientId> = script.admitted().iter().copied().collect();
        match msg {
            ClientMessage::Depart { client, req } => {
                assert!(known.contains(&client));
                script.observe(&ServerMessage::Departed {
                    req,
                    client,
                    profit: 0.0,
                    latency_us: 0,
                    slo_ok: true,
                });
                assert!(!script.admitted().contains(&client));
            }
            ClientMessage::Renegotiate { client, .. } => assert!(known.contains(&client)),
            ClientMessage::Admit { req, client } if req % 2 == 0 => {
                script.observe(&ServerMessage::Admitted {
                    req,
                    client,
                    cluster: cloudalloc_model::ClusterId(0),
                    profit: 0.0,
                    profit_delta: 0.0,
                    latency_us: 0,
                    slo_ok: true,
                });
            }
            _ => {}
        }
    }
}

#[test]
fn the_scenario_sets_and_solver_seeds_are_deterministic() {
    for spec in [SolveSpec::paper(), SolveSpec::scale()] {
        assert_eq!(spec.generate(), spec.generate());
    }
    let paper = SolveSpec::paper();
    assert_eq!(paper.scenarios.len(), 8);
    let inputs = paper.inputs();
    assert_eq!(inputs.len(), 8 * paper.solver_seeds);
    let distinct: BTreeSet<(usize, u64)> = inputs.iter().copied().collect();
    assert_eq!(distinct.len(), inputs.len(), "every solve of a pass is distinct");
    let order = paper.order(5, 0);
    assert_eq!(order, paper.order(5, 0));
    assert_ne!(order, paper.order(6, 0));
    assert_ne!(order, paper.order(5, 1));
    assert_eq!(order.iter().copied().collect::<BTreeSet<_>>().len(), inputs.len());
    for k in 0..8 {
        let per_scenario = inputs.iter().filter(|&&(s, _)| s == k).count();
        assert_eq!(per_scenario, paper.solver_seeds);
    }
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(10_000), Some(99));
    assert_eq!(tail_percentile(1000), Some(99));
    assert_eq!(tail_percentile(999), Some(90));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(99), Some(75));
    assert_eq!(tail_percentile(40), Some(75));
    assert_eq!(tail_percentile(39), Some(50));
    assert_eq!(tail_percentile(20), Some(50));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(min_samples_for(99), 1000);
    assert_eq!(min_samples_for(90), 100);
    assert_eq!(min_samples_for(75), 40);

    // Each workload's tail: p75 over solve_paper's 56 distinct solves,
    // p99 over serve_churn's 1,500 requests, the slowest of solve_scale's 4.
    let tail_of = |inputs: usize| {
        let mut samples = Samples::new(inputs);
        (0..inputs).for_each(|i| samples.push(i, 1.0));
        samples.tail()
    };
    assert_eq!(tail_of(SolveSpec::paper().inputs().len()), Tail::Percentile(75));
    assert_eq!(tail_of(SESSION_REQUESTS), Tail::Percentile(99));
    assert_eq!(tail_of(SolveSpec::scale().inputs().len()), Tail::Max);

    // Nearest rank: exactly ten samples lie beyond the p99 of 1..=1000.
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let p99 = percentile(&samples, 99);
    assert_eq!(p99, 990.0);
    assert_eq!(samples.iter().filter(|&&s| s > p99).count(), 10);
    assert_eq!(Tail::Max.of(&samples), 1000.0);
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut names = BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(names.insert(name), "metric {name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
    assert!(valid_name("core.phase.reassign_s"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let listed: BTreeSet<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    let expected: BTreeSet<&str> =
        END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).chain(WORKLOADS).collect();
    assert_eq!(listed, expected);
}

#[test]
fn the_report_renders_exactly_its_catalogue() {
    let mut report = Report::default();
    report.attempted = 3;
    for &(name, _) in END_TO_END {
        report.set(name, 1.5);
    }
    let line = report.render(END_TO_END).expect("complete");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    assert!(report.render(PER_LAYER).is_err(), "end-to-end metrics are not per-layer ones");

    report.set("setup_s", f64::NAN);
    assert!(report.render(END_TO_END).is_err());
    report.set("setup_s", 1.0);
    report.problem("a check failed");
    assert!(report.render(END_TO_END).expect("renders").contains("\"correct\": false"));
}

#[test]
fn the_traced_decomposition_equals_solve() {
    let config = cli_solver();
    for (scenario, seed) in [(ScenarioConfig::small(8), 3), (ScenarioConfig::paper(30), 4)] {
        let system = generate(&scenario, seed);
        let whole = solve(&system, &config, 9);
        let parts = decomposed_solve(&system, &config, 9);
        assert!(identical(&whole, &parts), "decomposition diverged on seed {seed}");
    }
}
