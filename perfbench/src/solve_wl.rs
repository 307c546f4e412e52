//! The `solve_paper` and `solve_scale` workloads: the CLI-default solver
//! on fixed scenario sets, timed per call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cloudalloc_core::{
    best_initial, improve_scored, solve, solve_hierarchical, HierConfig, SolveResult, SolverConfig,
    SolverCtx,
};
use cloudalloc_model::{
    check_feasibility, evaluate, ClientId, CloudSystem, ScoredAllocation, Violation,
};
use cloudalloc_workload::{generate, ScenarioConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::metrics::Report;
use crate::probe::{Probe, Totals, COUNTERS, PHASES};
use crate::stats;
use crate::{
    another_pass, another_setup, mix, peak_rss_mib, timed, Run, Samples, MIN_PASSES, THREADS,
};

/// One solve workload: a fixed scenario set, the solver seeds per
/// scenario, and the solve entry point.
#[derive(Debug, Clone)]
pub struct SolveSpec {
    /// `(scenario, scenario seed)` pairs solved in every pass.
    pub scenarios: Vec<(ScenarioConfig, u64)>,
    /// Solver seeds `0..solver_seeds` per scenario: the distinct solves
    /// of a pass are scenarios × solver seeds.
    pub solver_seeds: usize,
    /// `solve_hierarchical` with `HierConfig::default()` instead of
    /// `solve`.
    pub hierarchical: bool,
}

impl SolveSpec {
    /// `solve` on `ScenarioConfig::paper(200)` over scenario seeds 0..8,
    /// six solver seeds each.
    pub fn paper() -> Self {
        Self {
            scenarios: (0..8).map(|s| (ScenarioConfig::paper(200), s)).collect(),
            solver_seeds: 6,
            hierarchical: false,
        }
    }

    /// `solve_hierarchical` on `ScenarioConfig::scale(5000)`, scenario
    /// seed 0, four solver seeds.
    pub fn scale() -> Self {
        Self {
            scenarios: vec![(ScenarioConfig::scale(5000), 0)],
            solver_seeds: 4,
            hierarchical: true,
        }
    }

    /// Generates every scenario of the set.
    pub fn generate(&self) -> Vec<CloudSystem> {
        self.scenarios.iter().map(|(config, seed)| generate(config, *seed)).collect()
    }

    /// The distinct solves of a pass, as `(scenario index, solver
    /// seed)`. They are fixed: one solver seed's solve time varies too
    /// much for a per-seed sample of them to give steady figures.
    pub fn inputs(&self) -> Vec<(usize, u64)> {
        let n = self.scenarios.len();
        (0..n * self.solver_seeds).map(|i| (i % n, (i / n) as u64)).collect()
    }

    /// The order pass `pass` of a run seeded `seed` solves the inputs in.
    pub fn order(&self, seed: u64, pass: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.scenarios.len() * self.solver_seeds).collect();
        order.shuffle(&mut StdRng::seed_from_u64(mix(seed, pass as u64)));
        order
    }
}

/// The solver configuration `cloudalloc solve` builds by default, with
/// the thread count pinned.
pub fn cli_solver() -> SolverConfig {
    SolverConfig { num_threads: Some(THREADS), ..SolverConfig::default() }
}

/// Checks one result: hard constraints hold (declining a client is the
/// only tolerated violation), the reported profit is an external
/// `evaluate` bit for bit, and a repeated solve of the same input
/// reproduces the first one's profit bits.
fn check(system: &CloudSystem, result: &SolveResult, first: &mut Option<u64>, report: &mut Report) {
    let hard = check_feasibility(system, &result.allocation)
        .into_iter()
        .filter(|v| !matches!(v, Violation::Unassigned { .. }))
        .count();
    if hard > 0 {
        report.failed += 1;
        report.problem(format!("{hard} hard constraint violations"));
    }
    let profit = result.report.profit.to_bits();
    if evaluate(system, &result.allocation).profit.to_bits() != profit {
        report.problem("reported profit differs from an external evaluate");
    }
    match *first {
        None => *first = Some(profit),
        Some(bits) if bits != profit => report.problem("a repeated solve changed the profit"),
        Some(_) => {}
    }
}

/// Solves `system` once through the workload's public entry point.
fn entry(spec: &SolveSpec, system: &CloudSystem, config: &SolverConfig, seed: u64) -> SolveResult {
    if spec.hierarchical {
        solve_hierarchical(system, config, &HierConfig::default(), seed)
    } else {
        solve(system, config, seed)
    }
}

/// The setup samples: generating the whole scenario set, repeated.
fn setup_samples(spec: &SolveSpec) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while another_setup(start, samples.len()) {
        samples.push(timed(|| spec.generate()).1);
    }
    samples
}

/// The plain run: at least [`MIN_PASSES`] whole passes over the distinct
/// solves, then more while another pass fits in the time.
pub fn run_plain(spec: &SolveSpec, run: &Run, report: &mut Report) {
    let setup = setup_samples(spec);
    let systems = spec.generate();
    let inputs = spec.inputs();
    let config = cli_solver();
    let mut firsts = vec![None; inputs.len()];
    let mut profits = vec![0.0; inputs.len()];
    let mut samples = Samples::new(inputs.len());
    let start = Instant::now();
    let mut passes = 0;
    while report.failed == 0 && another_pass(start, passes, run.seconds, MIN_PASSES) {
        for i in spec.order(run.seed, passes) {
            let (k, seed) = inputs[i];
            report.attempted += 1;
            let solved = catch_unwind(AssertUnwindSafe(|| {
                timed(|| entry(spec, &systems[k], &config, seed))
            }));
            let Ok((result, seconds)) = solved else {
                report.failed += 1;
                report.problem("a solve panicked");
                continue;
            };
            check(&systems[k], &result, &mut firsts[i], report);
            profits[i] = result.report.profit;
            samples.push(i, seconds);
        }
        passes += 1;
    }
    samples.report(report);
    report.set("setup_s", stats::median(&setup));
    report.set("profit", profits.iter().sum());
    report.set("peak_rss_mib", peak_rss_mib());
    println!("# {passes} passes x {} solves, tail {}", inputs.len(), samples.tail().label());
}

/// `solve` taken apart through public functions, timing each layer:
/// lowering, greedy construction, incremental-scorer build, local search
/// and the final evaluation. Must reproduce `solve` bit for bit.
fn decomposed(
    system: &CloudSystem,
    config: &SolverConfig,
    seed: u64,
    t: &mut Totals,
) -> SolveResult {
    let (ctx, lower) = timed(|| SolverCtx::new(system, config));
    let ((allocation, initial_profit), greedy) = timed(|| best_initial(&ctx, seed));
    let (mut scored, lower_scored) = timed(|| ScoredAllocation::lowered(&ctx.compiled, allocation));
    let (stats, local) = timed(|| improve_scored(&ctx, &mut scored, seed.wrapping_add(0x5EED)));
    let ((allocation, report), eval) = timed(|| {
        let allocation = scored.into_allocation();
        let report = evaluate(system, &allocation);
        (allocation, report)
    });
    t.add("model.lower_s", lower + lower_scored);
    t.add("core.greedy_s", greedy);
    t.add("core.local_search_s", local);
    t.add("model.evaluate_s", eval);
    SolveResult { allocation, report, initial_profit, stats }
}

/// Bit-identity of two solves: allocation, profits and search trace.
pub fn identical(a: &SolveResult, b: &SolveResult) -> bool {
    a.allocation == b.allocation
        && a.report.profit.to_bits() == b.report.profit.to_bits()
        && a.initial_profit.to_bits() == b.initial_profit.to_bits()
        && a.stats.rounds == b.stats.rounds
        && a.stats.converged == b.stats.converged
        && a.stats.history.len() == b.stats.history.len()
        && a.stats.history.iter().zip(&b.stats.history).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `solve` taken apart as in the traced run; public for the tests.
pub fn decomposed_solve(system: &CloudSystem, config: &SolverConfig, seed: u64) -> SolveResult {
    decomposed(system, config, seed, &mut Totals::default())
}

/// The traced run: the same passes with the program's spans and counters
/// read per call, plus the bench's own layer timers around public calls.
pub fn run_traced(spec: &SolveSpec, run: &Run, report: &mut Report) {
    let setup = setup_samples(spec);
    let systems = spec.generate();
    let inputs = spec.inputs();
    let config = cli_solver();
    let mut firsts = vec![None; inputs.len()];
    let mut t = Totals::default();
    let mut samples = Samples::new(inputs.len());
    let start = Instant::now();
    let mut passes = 0;
    while report.failed == 0 && another_pass(start, passes, run.seconds, 1) {
        for i in spec.order(run.seed, passes) {
            let (k, seed) = inputs[i];
            let system = &systems[k];
            report.attempted += 1;
            Probe::reset();
            let solved = catch_unwind(AssertUnwindSafe(|| {
                timed(|| {
                    if spec.hierarchical {
                        entry(spec, system, &config, seed)
                    } else {
                        decomposed(system, &config, seed, &mut t)
                    }
                })
            }));
            let probe = Probe::take();
            let Ok((result, seconds)) = solved else {
                report.failed += 1;
                report.problem("a solve panicked");
                continue;
            };
            check(system, &result, &mut firsts[i], report);
            if !spec.hierarchical
                && passes == 0
                && !identical(&result, &solve(system, &config, seed))
            {
                report.problem("the traced decomposition differs from solve()");
            }
            samples.push(i, seconds);
            t.add("total_s", seconds);
            t.add_spans(&probe, PHASES);
            t.add_counts(&probe, COUNTERS);
            if spec.hierarchical {
                t.add_spans(
                    &probe,
                    &[
                        ("model.lower_s", "hier.lower"),
                        ("core.hier.sketch_s", "hier.sketch"),
                        ("core.hier.extract_s", "hier.extract"),
                        ("core.hier.group_solve_s", "hier.wave.solve"),
                        ("core.hier.stitch_s", "hier.stitch"),
                        ("core.hier.rescore_s", "hier.rescore"),
                        ("model.evaluate_s", "hier.rescore"),
                        ("core.greedy_s", "solve.greedy"),
                        ("core.local_search_s", "solve.local_search"),
                    ],
                );
                t.add_counts(
                    &probe,
                    &[("core.hier.groups", "hier.groups"), ("core.hier.waves", "hier.waves")],
                );
            }
            let n = system.num_clients();
            let served =
                (0..n).filter(|&i| !result.allocation.placements(ClientId(i)).is_empty()).count();
            t.add("core.rounds", result.stats.rounds as f64);
            t.add("core.converged_share", f64::from(u8::from(result.stats.converged)));
            t.add("core.served_share", served as f64 / n as f64);
            t.add("core.active_servers", result.report.active_servers as f64);
        }
        passes += 1;
    }
    let calls = samples.calls() as f64;
    let covered: &[&str] = if spec.hierarchical {
        &[
            "model.lower_s",
            "core.hier.sketch_s",
            "core.hier.extract_s",
            "core.hier.group_solve_s",
            "core.hier.stitch_s",
            "core.hier.rescore_s",
        ]
    } else {
        &["model.lower_s", "core.greedy_s", "core.local_search_s", "model.evaluate_s"]
    };
    let covered_s: f64 = covered.iter().map(|name| t.get(name)).sum();
    report.set("core.coverage", stats::ratio(covered_s, t.get("total_s")));
    report.set("workload.generate_s", stats::median(&setup));
    report.set("run.calls", calls);
    report.set("trace.p50_ms", stats::median(&samples.per_input()) * 1e3);
    let tried = t.get("core.reassign.tried");
    report.set("core.reassign.accept_ratio", stats::ratio(t.get("reassign.accepted"), tried));
    report.set("core.reassign.stale_ratio", stats::ratio(t.get("reassign.stale"), tried));
    report.set_per_call(&t, calls, &["core.", "model."]);
    println!("# traced calls {calls}, layer coverage {:.4}", covered_s / t.get("total_s"));
}
