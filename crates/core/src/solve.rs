//! The full `Resource_Alloc` pipeline: best-of-N greedy construction
//! followed by the local-search loop until steady (paper Fig. 3).

use cloudalloc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cloudalloc_model::{
    compile_streamed, evaluate, Allocation, ClientId, CloudSystem, LoweredClients, ProfitReport,
    ScoredAllocation,
};

use crate::config::SolverConfig;
use crate::ctx::SolverCtx;
use crate::initial::best_initial;
use crate::ops::{
    adjust_dispersion_rates, adjust_resource_shares, swap_clients, turn_off_servers,
    turn_on_servers, Reassign,
};
use crate::par::{pass_seed, run_parallel};
use crate::rounds::run_phase;

/// Outcome of a full solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The final allocation.
    pub allocation: Allocation,
    /// Profit breakdown of the final allocation.
    pub report: ProfitReport,
    /// Profit of the best greedy initial solution (before local search).
    pub initial_profit: f64,
    /// Local-search statistics.
    pub stats: SearchStats,
}

/// Progress record of the local-search loop.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Rounds executed before steady state (or the round cap).
    pub rounds: usize,
    /// Profit after each round, starting with the initial solution.
    pub history: Vec<f64>,
    /// Whether the loop reached steady state before the round cap.
    pub converged: bool,
}

/// Runs the local-search phase on an incrementally-scored allocation
/// until the profit is steady: `Adjust_ResourceShares` →
/// `Adjust_DispersionRates` → `TurnON` → `TurnOFF` → `Reassign_Clients`,
/// repeated. Every operator commits only improving changes, so the
/// profit trace is non-decreasing. The round-level profit comes straight
/// from the incremental caches — no full re-evaluation anywhere in the
/// loop.
///
/// The cluster-grained phases fan out over the solver pool via
/// [`run_phase`]: each cluster is evaluated against a fork of the
/// phase-start state and the accepted changes replay serially in cluster
/// order. That schedule runs at every thread count (including one), so
/// identical `(system, config, seed)` inputs yield bit-identical results
/// regardless of `num_threads`. Reassignment fans out too, as blocks of
/// snapshot-priced proposals whose accept tests replay serially against
/// the evolving global profit, each pass re-searching only the clusters
/// that changed since the last one (see `ops::reassign`); only the optional
/// swap stays fully serial, though the candidate search inside it fans
/// out per cluster.
pub fn improve_scored(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    seed: u64,
) -> SearchStats {
    let system = ctx.system;
    let config = ctx.config;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profit = scored.profit();
    let mut stats = SearchStats { history: vec![profit], ..Default::default() };

    let mut order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
    let mut reassign = Reassign::new(ctx);
    for round in 0..config.max_rounds {
        let _round_span = telemetry::span!("solve.round");
        search_round(ctx, scored, &mut rng, &mut order, &mut reassign);
        // Everything in this round is final: drop the undo journal so it
        // cannot grow across rounds.
        scored.commit();
        let new_profit = scored.profit();
        stats.rounds = round + 1;
        stats.history.push(new_profit);
        telemetry::Event::new("round")
            .field_u64("round", round as u64)
            .field_f64("profit", new_profit)
            .field_f64("gain", new_profit - profit)
            .emit();
        let scale = profit.abs().max(1.0);
        if new_profit - profit <= config.steady_tol * scale {
            stats.converged = true;
            break;
        }
        profit = new_profit;
    }
    stats
}

/// The operators of one local-search round, in paper order, each
/// committing only improving changes. `order` is reshuffled from `rng`
/// before reassignment; `reassign` carries its memo across rounds.
///
/// Returns `true` when reassignment moved a client.
pub(crate) fn search_round(
    ctx: &SolverCtx<'_>,
    scored: &mut ScoredAllocation<'_>,
    rng: &mut StdRng,
    order: &mut [ClientId],
    reassign: &mut Reassign,
) -> bool {
    let system = ctx.system;
    let config = ctx.config;
    if config.adjust_shares {
        let _span = telemetry::span!("solve.phase.shares");
        run_phase(ctx, scored, |sim, k| {
            // Servers in id order within the cluster; the operator
            // never flips power states, so checking ON in-loop equals
            // the phase-start snapshot.
            for &server in ctx.compiled.cluster_servers(k) {
                if sim.alloc().is_on(server) {
                    adjust_resource_shares(ctx, sim, server);
                }
            }
        });
    }
    if config.adjust_dispersion {
        let _span = telemetry::span!("solve.phase.dispersion");
        run_phase(ctx, scored, |sim, k| {
            // Dispersion is client-local and never moves a client
            // across clusters, so grouping clients under their
            // phase-start cluster keeps the fan-out disjoint.
            // Unassigned clients hold no branches — a no-op anyway.
            for i in 0..system.num_clients() {
                let client = ClientId(i);
                if sim.alloc().cluster_of(client) == Some(k) {
                    adjust_dispersion_rates(ctx, sim, client);
                }
            }
        });
    }
    if config.turn_on {
        let _span = telemetry::span!("solve.phase.turn_on");
        run_phase(ctx, scored, |sim, k| {
            turn_on_servers(ctx, sim, k);
        });
    }
    if config.turn_off {
        let _span = telemetry::span!("solve.phase.turn_off");
        run_phase(ctx, scored, |sim, k| {
            turn_off_servers(ctx, sim, k);
        });
    }
    let mut moved = false;
    if config.reassign {
        let _span = telemetry::span!("solve.phase.reassign");
        order.shuffle(rng);
        moved = reassign.pass(ctx, scored, order);
    }
    if config.swap {
        let _span = telemetry::span!("solve.phase.swap");
        swap_clients(ctx, scored, system.num_clients(), rng);
    }
    moved
}

/// Runs the local-search phase in place on a plain allocation. Wraps it
/// in a [`ScoredAllocation`] internally; callers holding one already
/// should use [`improve_scored`] to keep their caches warm.
pub fn improve(ctx: &SolverCtx<'_>, alloc: &mut Allocation, seed: u64) -> SearchStats {
    let owned = std::mem::replace(alloc, Allocation::new(ctx.system));
    let mut scored = ScoredAllocation::lowered(&ctx.compiled, owned);
    let stats = improve_scored(ctx, &mut scored, seed);
    *alloc = scored.into_allocation();
    stats
}

/// Runs the complete `Resource_Alloc` heuristic on `system`.
///
/// `seed` drives every randomized choice (client orderings); identical
/// `(system, config, seed)` triples produce identical results regardless
/// of the thread count.
///
/// # Panics
///
/// Panics if `config` fails [`SolverConfig::validate`].
pub fn solve(system: &CloudSystem, config: &SolverConfig, seed: u64) -> SolveResult {
    let _span = telemetry::span!("solve.total");
    let ctx = SolverCtx::new(system, config);
    solve_with_ctx(&ctx, seed)
}

/// Runs the complete heuristic on a system whose client lowering already
/// exists — the scale path. Group sub-problems extracted by
/// `cloudalloc_model::compile_group` and streamed populations arrive with
/// their arrays pre-filled; this entry moves them straight into the
/// solver context instead of re-deriving them from the AoS model. The
/// pre-filled arrays are bit-identical to a fresh lowering by the
/// streamed-compile contract, so the result is bit-identical to
/// [`solve`] on the same `(system, config, seed)`.
///
/// # Panics
///
/// Panics if `config` fails [`SolverConfig::validate`] or `clients`
/// disagrees with `system` (incomplete, or a different population).
pub fn solve_prelowered(
    system: &CloudSystem,
    clients: LoweredClients,
    config: &SolverConfig,
    seed: u64,
) -> SolveResult {
    let _span = telemetry::span!("solve.total");
    let ctx = SolverCtx::from_compiled(config, compile_streamed(system, clients));
    solve_with_ctx(&ctx, seed)
}

/// The shared pipeline body behind [`solve`] and [`solve_prelowered`]:
/// greedy construction, local search, final evaluation.
fn solve_with_ctx(ctx: &SolverCtx<'_>, seed: u64) -> SolveResult {
    let system = ctx.system;
    let (allocation, initial_profit) = {
        let _span = telemetry::span!("solve.greedy");
        best_initial(ctx, seed)
    };
    let mut scored = ScoredAllocation::lowered(&ctx.compiled, allocation);
    let stats = {
        let _span = telemetry::span!("solve.local_search");
        improve_scored(ctx, &mut scored, seed.wrapping_add(0x5EED))
    };
    let allocation = scored.into_allocation();
    let report = evaluate(system, &allocation);
    telemetry::Event::new("solve")
        .field_u64("seed", seed)
        .field_f64("initial_profit", initial_profit)
        .field_f64("profit", report.profit)
        .field_u64("rounds", stats.rounds as u64)
        .field_bool("converged", stats.converged)
        .emit();
    SolveResult { allocation, report, initial_profit, stats }
}

/// Multi-seed restarts: runs [`solve`] once per derived seed on the
/// solver's thread pool and keeps the most profitable result (ties go to
/// the lowest restart index). Restart 0 reproduces `solve(system,
/// config, seed)` exactly; the others perturb the seed through the same
/// stream-splitting mix used for greedy passes.
///
/// # Panics
///
/// Panics if `restarts` is zero or `config` fails
/// [`SolverConfig::validate`].
pub fn solve_restarts(
    system: &CloudSystem,
    config: &SolverConfig,
    seed: u64,
    restarts: usize,
) -> SolveResult {
    assert!(restarts >= 1, "need at least one restart");
    // The restarts run concurrently, so each solve must not fan out
    // again: pin the inner thread count to one.
    let inner = SolverConfig { num_threads: Some(1), ..config.clone() };
    let results = run_parallel(restarts, config.effective_threads(), |restart| {
        solve(system, &inner, pass_seed(seed, restart as u64))
    });
    results
        .into_iter()
        .reduce(|best, cand| if cand.report.profit > best.report.profit { cand } else { best })
        .expect("restarts >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_model::check_feasibility;
    use cloudalloc_workload::{generate, ScenarioConfig};

    #[test]
    fn solve_produces_feasible_improving_solutions() {
        let system = generate(&ScenarioConfig::small(12), 71);
        let result = solve(&system, &SolverConfig::default(), 1);
        assert!(result.report.profit >= result.initial_profit - 1e-9);
        // Everything placed must be feasible; clients the system cannot
        // profitably host may stay unassigned in overloaded fixtures.
        assert!(check_feasibility(&system, &result.allocation)
            .iter()
            .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        result.allocation.assert_consistent(&system);
    }

    #[test]
    fn well_provisioned_scenarios_serve_every_client() {
        // With strict constraint (6) every placeable client is served.
        let system = generate(&ScenarioConfig::small(5), 71);
        let config = SolverConfig { require_service: true, ..Default::default() };
        let result = solve(&system, &config, 1);
        assert!(check_feasibility(&system, &result.allocation).is_empty());
        assert!(result.allocation.is_complete(1e-6));
    }

    #[test]
    fn profit_history_is_monotone_non_decreasing() {
        let system = generate(&ScenarioConfig::small(10), 72);
        let result = solve(&system, &SolverConfig::default(), 2);
        for pair in result.stats.history.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "history decreased: {:?}", result.stats.history);
        }
    }

    #[test]
    fn solve_is_deterministic() {
        let system = generate(&ScenarioConfig::small(8), 73);
        let a = solve(&system, &SolverConfig::default(), 9);
        let b = solve(&system, &SolverConfig::default(), 9);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.report.profit, b.report.profit);
    }

    /// Full bit-for-bit equality of two solver results: allocation,
    /// profit bits, and the entire search trace (round count, every
    /// history entry, convergence flag).
    fn assert_results_identical(a: &SolveResult, b: &SolveResult, what: &str) {
        assert_eq!(a.allocation, b.allocation, "{what}: allocation diverged");
        assert_eq!(a.report.profit.to_bits(), b.report.profit.to_bits(), "{what}: profit bits");
        assert_eq!(
            a.initial_profit.to_bits(),
            b.initial_profit.to_bits(),
            "{what}: initial profit bits"
        );
        assert_eq!(a.stats.rounds, b.stats.rounds, "{what}: round count");
        assert_eq!(a.stats.converged, b.stats.converged, "{what}: convergence flag");
        assert_eq!(a.stats.history.len(), b.stats.history.len(), "{what}: history length");
        for (round, (x, y)) in a.stats.history.iter().zip(&b.stats.history).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: history[{round}]");
        }
    }

    #[test]
    fn prelowered_solve_matches_the_plain_entry_bit_for_bit() {
        // The scale entry: client arrays filled chunk-by-chunk ahead of
        // time, moved into the solver context without re-lowering.
        let system = generate(&ScenarioConfig::small(10), 74);
        let config = SolverConfig::default();
        let plain = solve(&system, &config, 4);
        let mut clients = LoweredClients::new(system.num_clients(), system.server_classes().len());
        for chunk in system.clients().chunks(3) {
            clients.push_chunk(system.server_classes(), system.utility_classes(), chunk);
        }
        let pre = solve_prelowered(&system, clients, &config, 4);
        assert_results_identical(&plain, &pre, "prelowered");
    }

    #[test]
    fn solve_is_identical_across_thread_counts() {
        let system = generate(&ScenarioConfig::small(10), 74);
        let base = solve(&system, &SolverConfig { num_threads: Some(1), ..Default::default() }, 9);
        for threads in [2, 4, 8] {
            let config = SolverConfig { num_threads: Some(threads), ..Default::default() };
            let result = solve(&system, &config, 9);
            assert_results_identical(&base, &result, &format!("threads={threads}"));
        }
    }

    #[test]
    fn solve_is_identical_across_thread_counts_at_paper_scale() {
        // Paper-family scenario (5 clusters, 10 server classes) with every
        // operator enabled: exercises the per-cluster fan-out, the forked
        // operator phases, and the parallel candidate search together.
        let system = generate(&ScenarioConfig::paper(30), 74);
        let base =
            solve(&system, &SolverConfig { num_threads: Some(1), ..SolverConfig::fast() }, 9);
        for threads in [2, 4, 8] {
            let config = SolverConfig { num_threads: Some(threads), ..SolverConfig::fast() };
            let result = solve(&system, &config, 9);
            assert_results_identical(&base, &result, &format!("paper threads={threads}"));
        }
    }

    #[test]
    fn restarts_never_lose_to_the_base_seed() {
        let system = generate(&ScenarioConfig::small(10), 76);
        let config = SolverConfig::fast();
        let single = solve(&system, &config, 3);
        let multi = solve_restarts(&system, &config, 3, 4);
        // Restart 0 *is* the base run, so the best-of-4 can only match or
        // beat it.
        assert!(multi.report.profit >= single.report.profit - 1e-9);
    }

    #[test]
    fn local_search_beats_the_initial_solution_on_some_seed() {
        let mut improved = false;
        for seed in 0..4 {
            let system = generate(&ScenarioConfig::small(12), 500 + seed);
            let result = solve(&system, &SolverConfig::default(), seed);
            if result.report.profit > result.initial_profit + 1e-6 {
                improved = true;
                break;
            }
        }
        assert!(improved, "local search never improved the greedy start");
    }

    #[test]
    fn disabled_operators_are_skipped() {
        let system = generate(&ScenarioConfig::small(6), 75);
        let config = SolverConfig {
            adjust_shares: false,
            adjust_dispersion: false,
            turn_on: false,
            turn_off: false,
            reassign: false,
            max_rounds: 2,
            ..Default::default()
        };
        let result = solve(&system, &config, 1);
        // With every operator off, round one changes nothing and the loop
        // converges immediately.
        assert!(result.stats.converged);
        assert_eq!(result.stats.rounds, 1);
        assert!((result.report.profit - result.initial_profit).abs() < 1e-12);
    }

    #[test]
    fn swap_extension_never_hurts() {
        let system = generate(&ScenarioConfig::paper(20), 79);
        let plain = solve(&system, &SolverConfig::fast(), 5);
        let with_swap = solve(&system, &SolverConfig { swap: true, ..SolverConfig::fast() }, 5);
        // Same greedy start (the swap flag does not perturb the shared
        // RNG stream until after reassign), monotone operators on top.
        assert!(with_swap.report.profit >= plain.initial_profit - 1e-9);
        assert!(with_swap.report.profit.is_finite());
    }

    #[test]
    fn paper_scale_scenario_solves_cleanly() {
        let system = generate(&ScenarioConfig::paper(40), 77);
        let result = solve(&system, &SolverConfig::fast(), 3);
        assert!(result.report.profit.is_finite());
        // Money-losing clients may be declined (Unassigned); every
        // placement must satisfy the capacity/stability constraints.
        assert!(check_feasibility(&system, &result.allocation)
            .iter()
            .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
    }

    #[test]
    fn require_service_serves_everyone_placeable() {
        let system = generate(&ScenarioConfig::paper(25), 78);
        let strict = SolverConfig { require_service: true, ..SolverConfig::fast() };
        let relaxed = SolverConfig::fast();
        let strict_result = solve(&system, &strict, 3);
        let relaxed_result = solve(&system, &relaxed, 3);
        let served = |r: &SolveResult| {
            (0..25).filter(|&i| !r.allocation.placements(ClientId(i)).is_empty()).count()
        };
        assert!(served(&strict_result) >= served(&relaxed_result));
        // Declining clients can only help profit.
        assert!(relaxed_result.report.profit >= strict_result.report.profit - 1e-6);
    }
}
