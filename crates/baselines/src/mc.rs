//! Monte-Carlo "best found" search (paper §VI).
//!
//! The paper normalizes Figures 4 and 5 by the best solution found with a
//! "Monte Carlo like simulation": at least 10,000 random client
//! assignments per scenario, resources inside clusters allocated with the
//! proposed method, each random solution polished by the reassignment
//! local search until no move improves. This module reproduces that
//! search and additionally records the *worst* raw and polished profits,
//! which are the other two series of Figure 5.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cloudalloc_core::ops::Reassign;
use cloudalloc_core::{improve, random_assignment, SolverConfig, SolverCtx};
use cloudalloc_model::{evaluate, Allocation, ClientId, CloudSystem, ScoredAllocation};

/// Configuration of the Monte-Carlo search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// Number of random assignments to draw (paper: ≥ 10,000; the bench
    /// harness defaults lower and offers `--paper-scale`).
    pub iterations: usize,
    /// Solver configuration used for intra-cluster placement and for the
    /// reassignment polish.
    pub solver: SolverConfig,
    /// Run the full local search (all operators) on the single best
    /// random solution at the end, sharpening the normalizer.
    pub polish_best: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        Self { iterations: 200, solver: SolverConfig::default(), polish_best: true }
    }
}

/// Outcome of a Monte-Carlo search.
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// The best allocation found.
    pub best_allocation: Allocation,
    /// Profit of the best allocation (after optional polishing).
    pub best_profit: f64,
    /// Worst profit among the *raw* random assignments (Figure 5's
    /// "worst initial solution before optimization").
    pub worst_raw_profit: f64,
    /// Worst profit among the *polished* assignments (Figure 5's "worst
    /// initial solution after optimization").
    pub worst_polished_profit: f64,
    /// Number of random assignments drawn.
    pub iterations: usize,
}

/// Repeats the reassignment local search until no client moves (the
/// paper's "this repeats until no further reassignment is possible").
fn reassign_until_stable(
    ctx: &SolverCtx<'_>,
    reassign: &mut Reassign,
    scored: &mut ScoredAllocation<'_>,
) {
    let order: Vec<ClientId> = (0..ctx.system.num_clients()).map(ClientId).collect();
    for _ in 0..ctx.config.max_rounds {
        if !reassign.pass(ctx, scored, &order) {
            break;
        }
        scored.commit();
    }
}

/// Runs the Monte-Carlo best-found search.
///
/// Deterministic per `(system, config, seed)`.
///
/// # Panics
///
/// Panics if `config.iterations == 0` or the solver config is invalid.
pub fn monte_carlo(system: &CloudSystem, config: &McConfig, seed: u64) -> McOutcome {
    assert!(config.iterations > 0, "need at least one Monte-Carlo iteration");
    let ctx = SolverCtx::new(system, &config.solver);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut best: Option<(f64, Allocation)> = None;
    let mut worst_raw = f64::INFINITY;
    let mut worst_polished = f64::INFINITY;
    let mut reassign = Reassign::new(&ctx);
    for _ in 0..config.iterations {
        let mut scored =
            ScoredAllocation::lowered(&ctx.compiled, random_assignment(&ctx, &mut rng));
        let raw = scored.profit();
        worst_raw = worst_raw.min(raw);
        reassign_until_stable(&ctx, &mut reassign, &mut scored);
        let polished = scored.profit();
        worst_polished = worst_polished.min(polished);
        if best.as_ref().is_none_or(|(p, _)| polished > *p) {
            best = Some((polished, scored.into_allocation()));
        }
    }
    let (mut best_profit, mut best_allocation) = best.expect("iterations >= 1");

    if config.polish_best {
        improve(&ctx, &mut best_allocation, seed.wrapping_add(0xBE57));
        best_profit = evaluate(system, &best_allocation).profit;
    }

    McOutcome {
        best_allocation,
        best_profit,
        worst_raw_profit: worst_raw,
        worst_polished_profit: worst_polished,
        iterations: config.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_model::{check_feasibility, Violation};
    use cloudalloc_workload::{generate, ScenarioConfig};

    fn quick_config(iterations: usize) -> McConfig {
        McConfig { iterations, solver: SolverConfig::fast(), polish_best: false }
    }

    #[test]
    fn ordering_invariants_hold() {
        let system = generate(&ScenarioConfig::small(8), 91);
        let out = monte_carlo(&system, &quick_config(10), 1);
        assert!(out.best_profit >= out.worst_polished_profit);
        assert!(out.worst_polished_profit >= out.worst_raw_profit - 1e-9);
        assert_eq!(out.iterations, 10);
    }

    #[test]
    fn best_allocation_is_feasible() {
        let system = generate(&ScenarioConfig::small(8), 92);
        let out = monte_carlo(&system, &quick_config(8), 2);
        let violations = check_feasibility(&system, &out.best_allocation);
        assert!(
            violations.iter().all(|v| matches!(v, Violation::Unassigned { .. })),
            "unexpected violations: {violations:?}"
        );
        out.best_allocation.assert_consistent(&system);
    }

    #[test]
    fn search_is_deterministic() {
        let system = generate(&ScenarioConfig::small(6), 93);
        let a = monte_carlo(&system, &quick_config(6), 7);
        let b = monte_carlo(&system, &quick_config(6), 7);
        assert_eq!(a.best_profit, b.best_profit);
        assert_eq!(a.best_allocation, b.best_allocation);
    }

    #[test]
    fn more_iterations_never_find_worse_optima() {
        let system = generate(&ScenarioConfig::small(8), 94);
        let small = monte_carlo(&system, &quick_config(4), 11);
        let large = monte_carlo(&system, &quick_config(16), 11);
        // Same seed: the first 4 draws coincide, so 16 draws dominate.
        assert!(large.best_profit >= small.best_profit - 1e-9);
        assert!(large.worst_raw_profit <= small.worst_raw_profit + 1e-9);
    }

    #[test]
    fn polishing_the_best_never_hurts() {
        let system = generate(&ScenarioConfig::small(8), 95);
        let raw = monte_carlo(&system, &quick_config(5), 3);
        let polished = monte_carlo(&system, &McConfig { polish_best: true, ..quick_config(5) }, 3);
        assert!(polished.best_profit >= raw.best_profit - 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo iteration")]
    fn zero_iterations_panics() {
        let system = generate(&ScenarioConfig::small(4), 96);
        let _ = monte_carlo(&system, &quick_config(0), 0);
    }
}
